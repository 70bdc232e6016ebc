//! Quickstart: protect a microservice with RDDR in ~40 lines.
//!
//! We deploy two diverse "user lookup" instances — one has a bug that leaks
//! every user's record when given a crafted id — behind RDDR's incoming
//! proxy with one `NVersion` builder call, and watch benign traffic flow
//! while the exploit gets severed.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use std::sync::Arc;

use rddr_repro::core::protocol::LineProtocol;
use rddr_repro::core::EngineConfig;
use rddr_repro::httpsim::{HttpResponse, HttpService};
use rddr_repro::net::{ServiceAddr, Stream};
use rddr_repro::orchestra::{Cluster, Image};
use rddr_repro::proxy::NVersion;

fn lookup_service(vulnerable: bool) -> HttpService {
    HttpService::new("user-lookup").route("GET", "/user", move |req, _ctx| {
        let id = req.param("id").unwrap_or("");
        if vulnerable && id.contains("*") {
            // The bug: a wildcard id dumps the whole table.
            return HttpResponse::ok("alice:secret1\nbob:secret2\ncarol:secret3");
        }
        match id {
            "alice" => HttpResponse::ok("alice:secret1"),
            "bob" => HttpResponse::ok("bob:secret2"),
            _ => HttpResponse::status(404, "no such user"),
        }
    })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Two diverse implementations of the same service (`lookup-0` and
    // `lookup-1`), with RDDR in front of them at the service's address:
    // replicate, de-noise, diff, respond.
    let cluster = Cluster::new(4);
    let rddr = NVersion::new(
        "lookup",
        EngineConfig::builder(2).build()?,
        Arc::new(|| Box::new(rddr_repro::protocols::HttpProtocol::new())),
    )
    .variant(
        Image::new("user-lookup", "impl-a"),
        Arc::new(lookup_service(true)),
    )
    .variant(
        Image::new("user-lookup", "impl-b"),
        Arc::new(lookup_service(false)),
    )
    .deploy(&cluster, &ServiceAddr::new("rddr", 80))?;
    let net = cluster.net();

    // 2. Benign traffic passes untouched.
    let mut client = rddr_repro::httpsim::HttpClient::connect(&net, &rddr.addr)?;
    let resp = client.get("/user?id=alice")?;
    println!("benign lookup: {} -> {:?}", resp.status, resp.body_text());
    assert_eq!(resp.body_text(), "alice:secret1");

    // 3. The exploit diverges (only one implementation leaks) — severed.
    let mut attacker = rddr_repro::httpsim::HttpClient::connect(&net, &rddr.addr)?;
    match attacker.get("/user?id=*") {
        Err(_) => println!("exploit: connection severed before any leak"),
        Ok(resp) => {
            assert!(
                !resp.body_text().contains("secret2"),
                "leak must be blocked"
            );
            println!("exploit: answered {} with no leaked rows", resp.status);
        }
    }
    println!("proxy stats: {:?}", rddr.proxy.stats());

    // Demonstrate the engine API directly, too.
    let mut engine = rddr_repro::core::NVersionEngine::new(
        EngineConfig::builder(2).build()?,
        LineProtocol::new(),
    );
    let verdict = engine.evaluate_responses(&[b"ok\n".to_vec(), b"ok\nEXTRA\n".to_vec()])?;
    println!("engine verdict on a leaky response pair: {verdict:?}");

    // Keep the line-protocol imports honest (the library API is used above).
    let _ = |mut s: rddr_repro::net::BoxStream| {
        let _ = s.write_all(b"bye");
    };
    Ok(())
}
