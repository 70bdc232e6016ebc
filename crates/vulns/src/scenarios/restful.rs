//! Shared driver for the four RESTful library-diversity rows (§V-A):
//! deploy two wrapper instances with diverse libraries behind an incoming
//! proxy, check a benign call passes, fire the exploit call, and verify the
//! divergence severs before any leak marker reaches the client.

use std::sync::Arc;

use rddr_httpsim::HttpClient;
use rddr_net::ServiceAddr;
use rddr_orchestra::{Image, Service};
use rddr_proxy::NVersion;

use crate::report::MitigationReport;
use crate::scenarios::{config, http, scenario_cluster};

/// Drives one RESTful pair scenario.
///
/// * `services` — the two diverse instances (vulnerable first, like the
///   paper's deployments).
/// * `benign` — `(path, body)` that must return identical 200s.
/// * `exploit` — `(path, body)` whose responses diverge.
/// * `leak_markers` — substrings that must never reach the client.
pub(crate) fn run_rest_pair(
    id: &str,
    services: [(&str, Arc<dyn Service>); 2],
    benign: (&str, &str),
    exploit: (&str, &str),
    leak_markers: &[&str],
) -> MitigationReport {
    let mut report = MitigationReport::new(id);
    let cluster = scenario_cluster();
    let proxy_addr = ServiceAddr::new("rddr-rest", 80);
    let _rest = services
        .into_iter()
        .fold(
            NVersion::new("rest", config(2).build().expect("static config"), http()),
            |nv, (image, svc)| nv.variant(Image::new(image, "v1"), svc),
        )
        .instances_at(ServiceAddr::new("rest", 8000))
        .deploy(&cluster, &proxy_addr)
        .expect("deployment starts");
    let net = cluster.net();

    // Benign call must pass through with a 200.
    report.benign_ok = (|| {
        let mut client = HttpClient::connect(&net, &proxy_addr).ok()?;
        let resp = client.post(benign.0, benign.1).ok()?;
        (resp.status == 200).then(|| {
            report.note(format!("benign response: {} bytes", resp.body.len()));
        })
    })()
    .is_some();

    // Exploit call must be severed (or answered with the intervention page)
    // with no leak marker in whatever the client received.
    match HttpClient::connect(&net, &proxy_addr) {
        Err(e) => report.note(format!("attacker connect failed: {e}")),
        Ok(mut client) => match client.post(exploit.0, exploit.1) {
            Err(_) => {
                report.exploit_blocked = true;
                report.note("connection severed on divergent response");
            }
            Ok(resp) => {
                report.exploit_blocked = resp.status == 403;
                let text = resp.body_text();
                for marker in leak_markers {
                    if text.contains(marker) {
                        report.leak_reached_client = true;
                        report.note(format!("leak marker {marker:?} reached the client"));
                    }
                }
            }
        },
    }
    report
}
