//! Table I row 9 — the DVWA SQL injection (§V-B): three frontend instances
//! at mixed sanitization levels over one shared backend database, with
//! RDDR's **outgoing** request proxy merging and verifying the instances'
//! queries, and its CSRF ephemeral-state handling keeping the login form
//! functional.

use std::sync::Arc;

use rddr_httpsim::dvwa::{seed_dvwa_schema, SQLI_PAYLOAD};
use rddr_httpsim::framework::url_encode;
use rddr_httpsim::{DvwaSim, HttpClient, SecurityLevel};
use rddr_net::ServiceAddr;
use rddr_orchestra::Image;
use rddr_pgsim::{Database, PgServer, PgVersion};
use rddr_proxy::{NVersion, OutgoingProxy};

use crate::report::MitigationReport;
use crate::scenarios::{config, http, pg, scenario_cluster};

fn extract_token(html: &str) -> Option<String> {
    html.split("name=\"user_token\" value=\"")
        .nth(1)?
        .split('"')
        .next()
        .map(str::to_string)
}

/// Runs the scenario.
pub fn run() -> MitigationReport {
    let mut report = MitigationReport::new("DVWA-SQLI");
    let cluster = scenario_cluster();

    // The single shared backend database ("we modified DVWA slightly to use
    // an external database").
    let mut db = Database::new(PgVersion::parse("10.9").expect("static version"));
    seed_dvwa_schema(&mut db).expect("schema seeds");
    let _db = cluster
        .run_container(
            "dvwa-db-0",
            Image::new("postgres", "10.9"),
            &ServiceAddr::new("db", 5432),
            Arc::new(PgServer::new(db)),
        )
        .expect("backend starts");

    // The outgoing request proxy between the N frontends and the backend.
    let outgoing_addr = ServiceAddr::new("rddr-out", 5432);
    let _outgoing = OutgoingProxy::start(
        Arc::new(cluster.net()),
        &outgoing_addr,
        ServiceAddr::new("db", 5432),
        config(3).build().expect("static config"),
        pg(),
    )
    .expect("outgoing proxy starts");

    // Three DVWA frontends: "one instance was configured for high input
    // sanitization, and the other two instances, forming the filter pair,
    // performed no input sanitization". The incoming request proxy in front
    // of them puts the filter pair on the two unsanitized instances.
    let incoming_addr = ServiceAddr::new("rddr-dvwa", 80);
    let _dvwa = [
        (SecurityLevel::Low, 0xd0_01u64),
        (SecurityLevel::Low, 0xd0_02),
        (SecurityLevel::High, 0xd0_03),
    ]
    .into_iter()
    .fold(
        NVersion::new(
            "dvwa",
            config(3).filter_pair(0, 1).build().expect("static config"),
            http(),
        ),
        |nv, (level, seed)| {
            nv.variant(
                Image::new("dvwa", "v1"),
                Arc::new(DvwaSim::new(level, outgoing_addr.clone(), seed)),
            )
        },
    )
    .instances_at(ServiceAddr::new("dvwa", 8000))
    .deploy(&cluster, &incoming_addr)
    .expect("deployment starts");
    let net = cluster.net();

    // ---- benign traffic: fetch the form (CSRF capture) and look up a user --
    report.benign_ok = (|| {
        let mut client = HttpClient::connect(&net, &incoming_addr).ok()?;
        let page = client.get("/vuln/sqli").ok()?;
        let token = extract_token(&page.body_text())?;
        report.note(format!("CSRF token forwarded to client: {token}"));
        let result = client
            .get(&format!("/vuln/sqli/run?id=3&user_token={token}"))
            .ok()?;
        (result.status == 200
            && result.body_text().contains("First name: Hack")
            && !result.body_text().contains("Gordon"))
        .then_some(())
    })()
    .is_some();

    // ---- exploit: the classic `' OR '1'='1` ----------------------------------
    match HttpClient::connect(&net, &incoming_addr) {
        Err(e) => report.note(format!("attacker connect failed: {e}")),
        Ok(mut client) => {
            let outcome = (|| {
                let page = client.get("/vuln/sqli").ok()?;
                let token = extract_token(&page.body_text())?;
                client
                    .get(&format!(
                        "/vuln/sqli/run?id={}&user_token={token}",
                        url_encode(SQLI_PAYLOAD)
                    ))
                    .ok()
            })();
            match outcome {
                None => {
                    report.exploit_blocked = true;
                    report.note("connection severed during the injection attempt");
                }
                Some(resp) => {
                    let text = resp.body_text();
                    // A successful injection dumps every user; the paper's
                    // mitigation leaves the attacker with an error page.
                    let dumped = ["Gordon", "Pablo", "admin"]
                        .iter()
                        .filter(|name| text.contains(**name))
                        .count();
                    if dumped >= 2 {
                        report.leak_reached_client = true;
                        report.note("full table dump reached the attacker");
                    } else {
                        report.exploit_blocked = true;
                        report.note(format!(
                            "injection answered with status {} and no row dump",
                            resp.status
                        ));
                    }
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    #[test]
    fn dvwa_sql_injection_is_mitigated() {
        let report = super::run();
        assert!(report.mitigated(), "{report}");
    }
}
