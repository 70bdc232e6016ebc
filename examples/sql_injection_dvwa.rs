//! The paper's §V-B case study: hardening DVWA against SQL injection with
//! three frontends at mixed sanitization levels, one shared backend
//! database behind RDDR's **outgoing** request proxy, and CSRF tokens kept
//! working by RDDR's ephemeral-state handling (§IV-B3).
//!
//! ```text
//! cargo run --example sql_injection_dvwa
//! ```

use std::sync::Arc;
use std::time::Duration;

use rddr_repro::core::EngineConfig;
use rddr_repro::httpsim::dvwa::{seed_dvwa_schema, SQLI_PAYLOAD};
use rddr_repro::httpsim::framework::url_encode;
use rddr_repro::httpsim::{DvwaSim, HttpClient, SecurityLevel};
use rddr_repro::net::ServiceAddr;
use rddr_repro::orchestra::{Cluster, Image};
use rddr_repro::pgsim::{Database, PgServer, PgVersion};
use rddr_repro::protocols::{HttpProtocol, PgProtocol};
use rddr_repro::proxy::{NVersion, OutgoingProxy};

fn token_from(html: &str) -> String {
    html.split("name=\"user_token\" value=\"")
        .nth(1)
        .and_then(|r| r.split('"').next())
        .expect("CSRF token in page")
        .to_string()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cluster = Cluster::new(8);

    // One shared backend database.
    let mut db = Database::new(PgVersion::parse("10.9")?);
    seed_dvwa_schema(&mut db)?;
    let _db = cluster.run_container(
        "dvwa-db-0",
        Image::new("postgres", "10.9"),
        &ServiceAddr::new("db", 5432),
        Arc::new(PgServer::new(db)),
    )?;

    // The outgoing proxy merges and verifies the 3 frontends' queries.
    let outgoing_addr = ServiceAddr::new("rddr-out", 5432);
    let outgoing = OutgoingProxy::start(
        Arc::new(cluster.net()),
        &outgoing_addr,
        ServiceAddr::new("db", 5432),
        EngineConfig::builder(3)
            .response_deadline(Duration::from_secs(2))
            .build()?,
        Arc::new(|| Box::new(PgProtocol::new())),
    )?;

    // Three frontends (filter pair unsanitized, third at High
    // sanitization) behind the incoming proxy (CSRF capture + response
    // diffing).
    let dvwa = [
        (SecurityLevel::Low, 1u64),
        (SecurityLevel::Low, 2),
        (SecurityLevel::High, 3),
    ]
    .into_iter()
    .fold(
        NVersion::new(
            "dvwa",
            EngineConfig::builder(3)
                .filter_pair(0, 1)
                .response_deadline(Duration::from_secs(2))
                .build()?,
            Arc::new(|| Box::new(HttpProtocol::new())),
        ),
        |nv, (level, seed)| {
            nv.variant(
                Image::new("dvwa", "v1"),
                Arc::new(DvwaSim::new(level, outgoing_addr.clone(), seed)),
            )
        },
    )
    .deploy(&cluster, &ServiceAddr::new("rddr-dvwa", 80))?;

    let net = cluster.net();

    // --- benign flow ---------------------------------------------------------
    let mut user = HttpClient::connect(&net, &dvwa.addr)?;
    let page = user.get("/vuln/sqli")?;
    let token = token_from(&page.body_text());
    println!("got SQLi demo page; RDDR captured the per-instance CSRF tokens");
    println!("client sees one token: {token}");
    let result = user.get(&format!("/vuln/sqli/run?id=3&user_token={token}"))?;
    println!(
        "benign lookup (id=3): status {}\n{}",
        result.status,
        result.body_text()
    );

    // --- exploit ---------------------------------------------------------------
    println!("launching injection: id={SQLI_PAYLOAD:?}");
    let mut attacker = HttpClient::connect(&net, &dvwa.addr)?;
    let page = attacker.get("/vuln/sqli")?;
    let token = token_from(&page.body_text());
    match attacker.get(&format!(
        "/vuln/sqli/run?id={}&user_token={token}",
        url_encode(SQLI_PAYLOAD)
    )) {
        Err(_) => println!("connection severed — injection blocked"),
        Ok(resp) => {
            let text = resp.body_text();
            assert!(
                !text.contains("Pablo"),
                "the full table dump must never reach the attacker"
            );
            println!(
                "injection answered with status {} and no row dump",
                resp.status
            );
        }
    }
    println!("\noutgoing proxy stats: {:?}", outgoing.stats());
    println!("incoming proxy stats: {:?}", dvwa.proxy.stats());
    Ok(())
}
