//! Observability: watch a poisoned N-versioned deployment through the
//! telemetry admin endpoint.
//!
//! Three diverse instances of a line service run behind the RDDR incoming
//! proxy on the in-memory fabric; one variant leaks extra bytes on `login`
//! lines. After a benign exchange and one severed divergence, the admin
//! endpoint is served on a real TCP port so any HTTP client can inspect
//! the deployment:
//!
//! ```text
//! cargo run --example observability
//! curl http://127.0.0.1:<port>/healthz
//! curl http://127.0.0.1:<port>/metrics
//! curl http://127.0.0.1:<port>/divergences
//! ```
//!
//! `RDDR_ADMIN_SECS` (default 10) controls how long the endpoint stays up.

use std::sync::Arc;
use std::time::Duration;

use rddr_repro::core::protocol::LineProtocol;
use rddr_repro::core::EngineConfig;
use rddr_repro::net::{Network, ServiceAddr, Stream, TcpNet};
use rddr_repro::orchestra::{Cluster, FnService, Image, Service};
use rddr_repro::proxy::{NVersion, ProxyTelemetry};
use rddr_repro::telemetry::AdminServer;

/// A line-echo service; when `leaky`, lines containing `login` come back
/// with extra bytes appended — the divergence RDDR is there to catch.
fn echo(leaky: bool) -> Arc<dyn Service> {
    Arc::new(FnService::new("echo", move |mut conn, _ctx| {
        let mut buf = Vec::new();
        let mut chunk = [0u8; 256];
        loop {
            match conn.read(&mut chunk) {
                Ok(0) | Err(_) => return,
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
            }
            while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = buf.drain(..=pos).collect();
                let mut reply = line[..line.len() - 1].to_vec();
                if leaky && reply.windows(5).any(|w| w == b"login") {
                    reply.extend_from_slice(b" token=hunter2");
                }
                reply.push(b'\n');
                if conn.write_all(&reply).is_err() {
                    return;
                }
            }
        }
    }))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Three diverse variants behind the proxy; the third one leaks.
    let cluster = Cluster::new(4);
    let telemetry = ProxyTelemetry::new("demo");
    let service = NVersion::new(
        "demo",
        EngineConfig::builder(3).build()?,
        Arc::new(|| Box::new(LineProtocol::new())),
    )
    .variant(Image::new("demo", "v1"), echo(false))
    .variant(Image::new("demo", "v2"), echo(false))
    .variant(Image::new("demo", "evil"), echo(true))
    .telemetry(telemetry.clone())
    .deploy(&cluster, &ServiceAddr::new("demo", 8000))?;

    // 2. A benign exchange passes; the poisoned one is severed and audited.
    let mut conn = cluster.net().dial(&service.addr)?;
    conn.write_all(b"ping\n")?;
    let mut reply = [0u8; 5];
    conn.read_exact(&mut reply)?;
    println!("benign exchange: {:?}", String::from_utf8_lossy(&reply));

    let mut victim = cluster.net().dial(&service.addr)?;
    victim.write_all(b"login alice\n")?;
    let mut buf = [0u8; 1];
    match victim.read(&mut buf) {
        Ok(0) | Err(_) => println!("poisoned exchange: severed before any leak"),
        Ok(_) => println!("poisoned exchange: unexpectedly answered"),
    }
    std::thread::sleep(Duration::from_millis(50));
    println!("audited divergences: {}", telemetry.audit.len());

    // 3. Publish the instance containers' resource meters as gauges.
    for container in &service.containers {
        // Prometheus metric names forbid '-', so "demo-0" becomes "demo_0".
        let prefix = container.name().replace('-', "_");
        container
            .meter()
            .export_gauges(&telemetry.registry, &prefix);
    }

    // 4. Serve the admin endpoint on a real TCP port for external clients.
    let net: Arc<dyn Network> = Arc::new(TcpNet::new());
    let admin = AdminServer::serve(
        net,
        &ServiceAddr::new("127.0.0.1", 0),
        Arc::clone(&telemetry.registry),
        Arc::clone(&telemetry.audit),
    )?;
    println!("admin endpoint: http://{}", admin.addr());
    println!("routes: /healthz /metrics /divergences");

    let secs: u64 = std::env::var("RDDR_ADMIN_SECS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10);
    std::thread::sleep(Duration::from_secs(secs));
    admin.shutdown();
    Ok(())
}
