//! Table I row 2 — CVE-2017-7529: nginx range-filter integer overflow,
//! mitigated with version diversity (1.13.2 filter pair + 1.13.4, §V-D).

use std::sync::Arc;

use rddr_httpsim::{HttpClient, NginxSim, NginxVersion};
use rddr_net::ServiceAddr;
use rddr_orchestra::Image;
use rddr_proxy::NVersion;

use crate::report::MitigationReport;
use crate::scenarios::{config, http, scenario_cluster, server_banner_variance};

/// The paper's crafted header: a suffix range whose size calculation
/// overflows the 1.13.2 bounds check.
pub const OVERFLOW_RANGE: &str = "bytes=-9223372036854775608";

/// Runs the scenario.
pub fn run() -> MitigationReport {
    let mut report = MitigationReport::new("CVE-2017-7529");
    let cluster = scenario_cluster();
    let proxy_addr = ServiceAddr::new("rddr-nginx", 80);
    let mut nginx = NVersion::new(
        "nginx",
        config(3)
            .filter_pair(0, 1)
            .variance(server_banner_variance())
            .build()
            .expect("static config"),
        http(),
    )
    .instances_at(ServiceAddr::new("nginx", 8000));

    // Filter pair on 1.13.2, third instance on the patched 1.13.4 —
    // "the two instances comprising the filter pair running version 1.13.2,
    // and the third instance running 1.13.4 which is not vulnerable".
    for (i, version) in ["1.13.2", "1.13.2", "1.13.4"].iter().enumerate() {
        let server = NginxSim::file_server(NginxVersion::parse(version));
        server.publish(
            "/index.html",
            b"<html>hello world</html>".to_vec(),
            format!("CACHE-SECRET-{i}-other-clients-session").into_bytes(),
        );
        nginx = nginx.variant(Image::new("nginx", *version), Arc::new(server));
    }
    let _nginx = nginx
        .deploy(&cluster, &proxy_addr)
        .expect("deployment starts");
    let net = cluster.net();

    // ---- benign traffic: plain GET and a valid range -----------------------
    report.benign_ok = (|| {
        let mut client = HttpClient::connect(&net, &proxy_addr).ok()?;
        let full = client.get("/index.html").ok()?;
        if full.status != 200 || full.body != b"<html>hello world</html>" {
            return None;
        }
        let mut client = HttpClient::connect(&net, &proxy_addr).ok()?;
        client
            .send_raw(b"GET /index.html HTTP/1.1\r\nHost: n\r\nRange: bytes=0-5\r\n\r\n")
            .ok()?;
        let partial = client.read_response().ok()?;
        (partial.status == 206 && partial.body == b"<html>").then_some(())
    })()
    .is_some();

    // ---- exploit: the overflowing Range header ------------------------------
    let mut client = match HttpClient::connect(&net, &proxy_addr) {
        Ok(c) => c,
        Err(e) => {
            report.note(format!("attacker connect failed: {e}"));
            return report;
        }
    };
    let crafted = format!("GET /index.html HTTP/1.1\r\nHost: n\r\nRange: {OVERFLOW_RANGE}\r\n\r\n");
    if client.send_raw(crafted.as_bytes()).is_err() {
        report.exploit_blocked = true;
        return report;
    }
    match client.read_response() {
        Err(_) => {
            report.exploit_blocked = true;
            report.note("connection severed on divergent range response");
        }
        Ok(resp) => {
            // The intervention page itself counts as blocked.
            report.exploit_blocked = resp.status == 403;
            if resp.body_text().contains("CACHE-SECRET") {
                report.leak_reached_client = true;
                report.note("adjacent cache memory reached the client");
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    #[test]
    fn cve_2017_7529_is_mitigated() {
        let report = super::run();
        assert!(report.mitigated(), "{report}");
    }
}
