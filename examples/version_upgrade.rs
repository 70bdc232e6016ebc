//! The paper's first motivating scenario (§II): "running the old and new
//! versions in parallel while checking for consistency" during a software
//! update — mitigating both the original bug *and* any bug the patch
//! introduces, reducing the attack surface to their intersection.
//!
//! Here nginx 1.13.2 (vulnerable to CVE-2017-7529) runs next to 1.13.4
//! (patched) behind RDDR, with a known-variance rule covering the version
//! banners (§IV-B4).
//!
//! ```text
//! cargo run --example version_upgrade
//! ```

use std::sync::Arc;
use std::time::Duration;

use rddr_repro::core::{EngineConfig, VarianceRule, VarianceRules};
use rddr_repro::httpsim::{HttpClient, NginxSim, NginxVersion};
use rddr_repro::net::ServiceAddr;
use rddr_repro::orchestra::{Cluster, Image};
use rddr_repro::protocols::HttpProtocol;
use rddr_repro::proxy::NVersion;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cluster = Cluster::new(4);
    // Version banners differ by design: configure known variance for them.
    let mut variance = VarianceRules::new();
    variance.push(VarianceRule::new("http:header:server", "*")?);
    let mut nginx = NVersion::new(
        "nginx",
        EngineConfig::builder(2)
            .variance(variance)
            .response_deadline(Duration::from_secs(2))
            .build()?,
        Arc::new(|| Box::new(HttpProtocol::new())),
    );
    for version in ["1.13.2", "1.13.4"] {
        let server = NginxSim::file_server(NginxVersion::parse(version));
        server.publish(
            "/report.html",
            b"<html>quarterly numbers</html>".to_vec(),
            b"ADJACENT-CACHE: another user's session".to_vec(),
        );
        nginx = nginx.variant(Image::new("nginx", version), Arc::new(server));
        println!("deploying nginx:{version} (image tag selects the version, §V-D)");
    }
    let rddr = nginx.deploy(&cluster, &ServiceAddr::new("rddr-nginx", 80))?;
    let net = cluster.net();

    // Benign: plain requests and valid ranges agree across versions.
    let mut client = HttpClient::connect(&net, &rddr.addr)?;
    let page = client.get("/report.html")?;
    println!(
        "\nbenign GET: status {} ({} bytes)",
        page.status,
        page.body.len()
    );
    let mut client = HttpClient::connect(&net, &rddr.addr)?;
    client.send_raw(b"GET /report.html HTTP/1.1\r\nHost: n\r\nRange: bytes=0-5\r\n\r\n")?;
    let partial = client.read_response()?;
    println!(
        "benign range: status {} body {:?}",
        partial.status,
        partial.body_text()
    );

    // The CVE-2017-7529 exploit: only 1.13.2 leaks, so RDDR intervenes.
    println!("\nsending the overflowing Range header ...");
    let mut attacker = HttpClient::connect(&net, &rddr.addr)?;
    attacker.send_raw(
        b"GET /report.html HTTP/1.1\r\nHost: n\r\nRange: bytes=-9223372036854775608\r\n\r\n",
    )?;
    match attacker.read_response() {
        Err(_) => println!("connection severed — the cache leak never left the deployment"),
        Ok(resp) => {
            assert!(!resp.body_text().contains("ADJACENT-CACHE"));
            println!("answered {} with no leaked bytes", resp.status);
        }
    }
    println!("proxy stats: {:?}", rddr.proxy.stats());
    Ok(())
}
