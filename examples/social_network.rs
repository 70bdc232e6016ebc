//! The paper's motivating deployment (Figure 1): a DeathStarBench-style
//! social network where only the two most exposed services — Search and
//! Compose Post — are 3-versioned behind RDDR, keeping the overhead at a
//! fraction of whole-deployment N-versioning (§II).
//!
//! ```text
//! cargo run --example social_network
//! ```

use rddr_repro::httpsim::HttpClient;
use rddr_repro::orchestra::Cluster;

// The deployment builders live in the benchmark harness crate's `social`
// module; this example re-creates them inline against the public API so it
// stands alone.
use std::sync::Arc;
use std::time::Duration;

use rddr_repro::core::EngineConfig;
use rddr_repro::httpsim::{HttpResponse, HttpService};
use rddr_repro::net::ServiceAddr;
use rddr_repro::orchestra::Image;
use rddr_repro::protocols::HttpProtocol;
use rddr_repro::proxy::{NVersion, ProtocolFactory};

const SERVICES: &[&str] = &[
    "frontend-logic",
    "compose-post",
    "search",
    "user-service",
    "home-timeline",
    "social-graph",
    "url-shorten",
    "media",
    "user-storage",
    "post-storage",
    "home-timeline-storage",
    "social-graph-storage",
];
const PROTECTED: &[&str] = &["search", "compose-post"];

fn stub(name: &'static str) -> Arc<HttpService> {
    Arc::new(HttpService::new(name).route("GET", "/", move |req, _ctx| {
        HttpResponse::ok(format!("{name}: {}", req.path))
    }))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cluster = Cluster::new(8);
    let n = 3;
    let mut containers = Vec::new();
    let mut protected = Vec::new();
    let mut entrypoints = Vec::new();

    for (i, name) in SERVICES.iter().enumerate() {
        let entry = ServiceAddr::new(*name, 8000 + (i as u16) * 10);
        if PROTECTED.contains(name) {
            // N diverse instances behind an RDDR incoming proxy at `entry`.
            let config = EngineConfig::builder(n)
                .response_deadline(Duration::from_secs(2))
                .build()?;
            let protocol: ProtocolFactory = Arc::new(|| Box::new(HttpProtocol::new()));
            protected.push(
                (0..n)
                    .fold(NVersion::new(*name, config, protocol), |nv, k| {
                        nv.variant(Image::new(*name, format!("v{}", k + 1)), stub(name))
                    })
                    .deploy(&cluster, &entry)?,
            );
        } else {
            containers.push(cluster.run_container(
                format!("{name}-0"),
                Image::new(*name, "v1"),
                &entry,
                stub(name),
            )?);
        }
        entrypoints.push((*name, entry));
    }

    let plain_count = SERVICES.len();
    let total = containers.len() + n * protected.len();
    let extra = total - plain_count;
    println!("social network: {} logical services", SERVICES.len());
    println!("containers: {total} (plain would be {plain_count}, +{extra} for RDDR)");
    println!(
        "overhead: {:.0}% for micro-versioning {:?} vs {:.0}% for whole-deployment {n}-versioning",
        100.0 * extra as f64 / plain_count as f64,
        PROTECTED,
        100.0 * (n as f64 - 1.0) * plain_count as f64 / plain_count as f64,
    );

    // Every entry point answers; protected ones flow through RDDR.
    let net = cluster.net();
    for (name, addr) in &entrypoints {
        let mut client = HttpClient::connect(&net, addr)?;
        let resp = client.get("/")?;
        let via = if PROTECTED.contains(name) {
            " (via RDDR)"
        } else {
            ""
        };
        println!("  {name:<22} -> {}{via}", resp.status);
    }
    Ok(())
}
