//! §V-C2 end-to-end: Postgres + CockroachDB as diverse implementations of
//! one logical database behind RDDR — benign equivalence, the configuration
//! caveats the paper describes (isolation levels, row order), and the
//! divergence that mitigates the exploit.

use std::sync::Arc;
use std::time::Duration;

use rddr_repro::core::EngineConfig;
use rddr_repro::net::{Network, ServiceAddr};
use rddr_repro::orchestra::{Cluster, Image};
use rddr_repro::pgsim::{CockroachFlavor, Database, DbFlavor, PgClient, PgServer, PgVersion};
use rddr_repro::protocols::PgProtocol;
use rddr_repro::proxy::{NVersion, NVersionedService, ProtocolFactory};

fn pg() -> ProtocolFactory {
    Arc::new(|| Box::new(PgProtocol::new()))
}

fn seed(db: &mut Database) {
    let mut s = db.session("app");
    db.execute(
        &mut s,
        "CREATE TABLE accounts (id INT, owner TEXT, balance INT)",
    )
    .unwrap();
    db.execute(
        &mut s,
        "INSERT INTO accounts VALUES (1, 'ada', 100), (2, 'bob', 250), (3, 'cyd', 50)",
    )
    .unwrap();
}

fn deploy_safe(cockroach: CockroachFlavor) -> (Cluster, NVersionedService) {
    let cluster = Cluster::new(4);
    let config = EngineConfig::builder(2)
        .response_deadline(Duration::from_millis(800))
        .build()
        .unwrap();
    let rddr = [DbFlavor::Postgres, DbFlavor::Cockroach(cockroach)]
        .into_iter()
        .fold(NVersion::new("db", config, pg()), |nv, flavor| {
            let mut db = Database::with_flavor(PgVersion::parse("10.7").unwrap(), flavor);
            seed(&mut db);
            nv.variant(Image::new("db", "v1"), Arc::new(PgServer::new(db)))
        })
        .instances_at(ServiceAddr::new("db", 5432))
        .deploy(&cluster, &ServiceAddr::new("rddr-db", 5432))
        .unwrap();
    (cluster, rddr)
}

#[test]
fn ordered_queries_agree_across_implementations() {
    let (cluster, rddr) = deploy_safe(CockroachFlavor::default());
    let conn = cluster.net().dial(&rddr.addr).unwrap();
    let mut client = PgClient::connect(conn, "app").unwrap();
    let r = client
        .query("SELECT owner, balance FROM accounts ORDER BY balance DESC")
        .unwrap();
    assert!(r.error.is_none());
    assert_eq!(
        r.rows,
        vec![
            vec!["bob".to_string(), "250".to_string()],
            vec!["ada".to_string(), "100".to_string()],
            vec!["cyd".to_string(), "50".to_string()],
        ]
    );
}

#[test]
fn aggregates_and_dml_agree_across_implementations() {
    let (cluster, rddr) = deploy_safe(CockroachFlavor::default());
    let conn = cluster.net().dial(&rddr.addr).unwrap();
    let mut client = PgClient::connect(conn, "app").unwrap();
    let r = client
        .query("SELECT SUM(balance), COUNT(*) FROM accounts")
        .unwrap();
    assert_eq!(r.rows, vec![vec!["400".to_string(), "3".to_string()]]);
    let r = client
        .query("UPDATE accounts SET balance = balance + 10 WHERE owner = 'cyd'")
        .unwrap();
    assert_eq!(r.tag, "UPDATE 1");
    let r = client
        .query("SELECT balance FROM accounts WHERE owner = 'cyd'")
        .unwrap();
    assert_eq!(r.rows, vec![vec!["60".to_string()]]);
    assert_eq!(rddr.proxy.stats().divergences, 0);
}

#[test]
fn unordered_row_order_mismatch_blocks_benign_traffic() {
    // The paper's caveat: "the PostgreSQL query language does not require
    // any particular row order unless specified by ORDER BY … If they
    // differ, then RDDR will block the benign traffic."
    let (cluster, rddr) = deploy_safe(CockroachFlavor {
        scramble_row_order: true,
        ..CockroachFlavor::default()
    });
    let conn = cluster.net().dial(&rddr.addr).unwrap();
    let mut client = PgClient::connect(conn, "app").unwrap();
    let result = client.query("SELECT owner FROM accounts");
    assert!(
        result.is_err(),
        "differing row order must trigger a (false-positive) divergence"
    );
    std::thread::sleep(Duration::from_millis(50));
    assert!(rddr.proxy.stats().severed >= 1);

    // An ORDER BY restores agreement on a fresh session.
    let conn = cluster.net().dial(&rddr.addr).unwrap();
    let mut client = PgClient::connect(conn, "app").unwrap();
    let r = client
        .query("SELECT owner FROM accounts ORDER BY owner")
        .unwrap();
    assert_eq!(r.rows.len(), 3);
}

#[test]
fn isolation_level_must_match_cockroach() {
    // "We configured Postgres' transaction isolation level to match
    // CockroachDB, which forces serializable isolation."
    let (cluster, rddr) = deploy_safe(CockroachFlavor::default());
    let conn = cluster.net().dial(&rddr.addr).unwrap();
    let mut client = PgClient::connect(conn, "app").unwrap();
    // The matching setting is unanimous.
    let r = client
        .query("SET default_transaction_isolation TO 'serializable'")
        .unwrap();
    assert!(r.error.is_none());
    // A non-serializable setting diverges (Postgres accepts, Cockroach
    // rejects) and RDDR severs.
    let result = client.query("SET default_transaction_isolation TO 'read committed'");
    assert!(result.is_err() || result.unwrap().error.is_some());
}
