//! Table I row 1 — CVE-2017-7484: Postgres information leak through
//! selectivity estimation, mitigated by deploying CockroachDB as a diverse
//! implementation (§V-C2).

use std::sync::Arc;

use rddr_net::{Network, ServiceAddr};
use rddr_orchestra::Image;
use rddr_pgsim::{CockroachFlavor, Database, DbFlavor, PgClient, PgServer, PgVersion};
use rddr_proxy::NVersion;

use crate::report::MitigationReport;
use crate::scenarios::{config, pg, scenario_cluster};

fn seed(db: &mut Database) {
    let mut session = db.session("app");
    for sql in [
        "CREATE TABLE some_table (x INT, col_to_leak INT)",
        "INSERT INTO some_table VALUES (1, 7001), (2, 7002), (3, 7003)",
        "CREATE TABLE public_info (msg TEXT)",
        "INSERT INTO public_info VALUES ('welcome'), ('hours: 9-5')",
        "GRANT SELECT ON public_info TO MALLORY",
    ] {
        db.execute(&mut session, sql).expect("seed SQL is valid");
    }
}

/// Runs the scenario.
pub fn run() -> MitigationReport {
    let mut report = MitigationReport::new("CVE-2017-7484");
    let cluster = scenario_cluster();
    let proxy_addr = ServiceAddr::new("rddr-db", 5432);
    let mut dbs = NVersion::new(
        "db",
        config(3).filter_pair(0, 1).build().expect("static config"),
        pg(),
    )
    .instances_at(ServiceAddr::new("db", 5432));

    // Two vulnerable Postgres 9.2.20 instances (the filter pair) plus one
    // CockroachDB — "two Postgres instances and one CockroachDB instance".
    for (image, flavor) in [
        ("postgres", DbFlavor::Postgres),
        ("postgres", DbFlavor::Postgres),
        ("cockroach", DbFlavor::Cockroach(CockroachFlavor::default())),
    ] {
        let mut db =
            Database::with_flavor(PgVersion::parse("9.2.20").expect("static version"), flavor);
        seed(&mut db);
        dbs = dbs.variant(Image::new(image, "9.2.20"), Arc::new(PgServer::new(db)));
    }
    let _dbs = dbs
        .deploy(&cluster, &proxy_addr)
        .expect("deployment starts");
    let net = cluster.net();

    // ---- benign traffic -----------------------------------------------------
    if let Ok(conn) = net.dial(&proxy_addr) {
        if let Ok(mut client) = PgClient::connect(conn, "mallory") {
            let benign = client.query("SELECT msg FROM public_info ORDER BY msg");
            report.benign_ok = matches!(
                &benign,
                Ok(r) if r.error.is_none() && r.rows.len() == 2
            );
            if !report.benign_ok {
                report.note(format!("benign query failed: {benign:?}"));
            }
        }
    }

    // ---- exploit (Listing 1) --------------------------------------------------
    let mut leaked = false;
    let mut blocked = false;
    if let Ok(conn) = net.dial(&proxy_addr) {
        if let Ok(mut attacker) = PgClient::connect(conn, "mallory") {
            // Step 1: the custom function. Postgres reports success,
            // CockroachDB errors — RDDR severs here, "the exploit fails at
            // the first step".
            let step1 = attacker.query(
                "CREATE FUNCTION leak2(integer,integer) RETURNS boolean \
                 AS $$BEGIN RAISE NOTICE 'leak % %', $1, $2; RETURN $1 > $2; END$$ \
                 LANGUAGE plpgsql immutable",
            );
            match step1 {
                Err(_) => {
                    blocked = true;
                    report.note("severed at CREATE FUNCTION (step 1), as in the paper");
                }
                Ok(r) => {
                    report.note(format!("step 1 unexpectedly passed: {r:?}"));
                    // Continue the attack to see whether the leak fires.
                    let _ = attacker.query(
                        "CREATE OPERATOR >>> (procedure=leak2, leftarg=integer, \
                         rightarg=integer, restrict=scalargtsel)",
                    );
                    match attacker.query(
                        "EXPLAIN (COSTS OFF) SELECT x FROM some_table WHERE col_to_leak >>> 0",
                    ) {
                        Err(_) => blocked = true,
                        Ok(resp) => {
                            leaked = resp.notices.iter().any(|n| n.contains("700"));
                        }
                    }
                }
            }
        }
    }
    // If the attacker reconnects "and proceeds with subsequent steps of the
    // attack, the final EXPLAIN query which causes the leak is always
    // blocked".
    if let Ok(conn) = net.dial(&proxy_addr) {
        if let Ok(mut attacker) = PgClient::connect(conn, "mallory") {
            match attacker
                .query("EXPLAIN (COSTS OFF) SELECT x FROM some_table WHERE col_to_leak >>> 0")
            {
                Err(_) => report.note("reconnected EXPLAIN severed too"),
                Ok(resp) => {
                    if resp.notices.iter().any(|n| n.contains("700")) {
                        leaked = true;
                    }
                }
            }
        }
    }

    report.exploit_blocked = blocked;
    report.leak_reached_client = leaked;
    report
}

#[cfg(test)]
mod tests {
    #[test]
    fn cve_2017_7484_is_mitigated() {
        let report = super::run();
        assert!(report.mitigated(), "{report}");
    }
}
