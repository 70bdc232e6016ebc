//! Table I row 4 — CVE-2019-18277: HTTP request smuggling through HAProxy
//! 1.5.3, mitigated by "using nginx as a diverse implementation of a
//! reverse proxy" (§V-C1).

use std::sync::Arc;

use rddr_httpsim::haproxy::{smuggling_payload, smuggling_target_service};
use rddr_httpsim::{HaproxySim, HttpClient, NginxSim, NginxVersion};
use rddr_net::ServiceAddr;
use rddr_orchestra::Image;
use rddr_proxy::NVersion;

use crate::report::MitigationReport;
use crate::scenarios::{config, http, scenario_cluster, server_banner_variance};

/// Runs the scenario.
pub fn run() -> MitigationReport {
    let mut report = MitigationReport::new("CVE-2019-18277");
    let cluster = scenario_cluster();

    // The protected service S1, one replica per proxy instance. Its
    // /internal route "should not be invoked directly from outside the
    // deployment"; both proxies are "configured to deny the API call".
    let mut handles = Vec::new();
    for i in 0..2u16 {
        handles.push(
            cluster
                .run_container(
                    format!("s1-{i}"),
                    Image::new("s1", "v1"),
                    &ServiceAddr::new("s1", 9100 + i),
                    Arc::new(smuggling_target_service()),
                )
                .expect("scenario containers start"),
        );
    }

    // The N-versioned reverse proxy: HAProxy diversified with nginx.
    let proxy_addr = ServiceAddr::new("rddr-proxy", 80);
    let _proxies = NVersion::new(
        "proxy",
        config(2)
            .variance(server_banner_variance())
            .build()
            .expect("static config"),
        http(),
    )
    .variant(
        Image::new("haproxy", "1.5.3"),
        Arc::new(HaproxySim::new(ServiceAddr::new("s1", 9100))),
    )
    .variant(
        Image::new("nginx", "1.13.4"),
        Arc::new(NginxSim::reverse_proxy(
            NginxVersion::parse("1.13.4"),
            ServiceAddr::new("s1", 9101),
        )),
    )
    .instances_at(ServiceAddr::new("proxy", 8080))
    .deploy(&cluster, &proxy_addr)
    .expect("deployment starts");
    let net = cluster.net();

    // ---- benign traffic: the public route, and the ACL itself ---------------
    report.benign_ok = (|| {
        let mut client = HttpClient::connect(&net, &proxy_addr).ok()?;
        let public = client.get("/public").ok()?;
        if public.status != 200 || public.body_text() != "public ok" {
            return None;
        }
        // A direct request for the denied route is 403 from both proxies.
        let mut client = HttpClient::connect(&net, &proxy_addr).ok()?;
        let denied = client.get("/internal/flush").ok()?;
        (denied.status == 403).then_some(())
    })()
    .is_some();

    // ---- exploit: the smuggling payload --------------------------------------
    match HttpClient::connect(&net, &proxy_addr) {
        Err(e) => report.note(format!("attacker connect failed: {e}")),
        Ok(mut client) => {
            if client.send_raw(&smuggling_payload()).is_err() {
                report.exploit_blocked = true;
            } else {
                // Drain whatever the attacker can get before the severance.
                let mut received = String::new();
                for _ in 0..3 {
                    match client.read_response() {
                        Ok(resp) => {
                            if resp.status == 403 {
                                report.exploit_blocked = true;
                            }
                            received.push_str(&resp.body_text());
                        }
                        Err(_) => {
                            report.exploit_blocked = true;
                            report.note("connection severed on divergent proxy responses");
                            break;
                        }
                    }
                }
                if received.contains("INTERNAL") {
                    report.leak_reached_client = true;
                    report.note("smuggled /internal response reached the attacker");
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    #[test]
    fn cve_2019_18277_is_mitigated() {
        let report = super::run();
        assert!(report.mitigated(), "{report}");
    }
}
