//! TPC-H through the full wire stack: the 3-versioned RDDR deployment must
//! return byte-identical results to the single-instance baseline for the
//! whole 21-query benchmark set — the invariant behind Figure 4's "we are
//! not expected to diverge under benign load".

use std::sync::Arc;
use std::time::Duration;

use rddr_repro::core::EngineConfig;
use rddr_repro::net::{Network, ServiceAddr, SimNet};
use rddr_repro::orchestra::{Cluster, CpuGovernor, Image, Service};
use rddr_repro::pgsim::{tpch, Database, PgClient, PgServer, PgServerConfig, PgVersion};
use rddr_repro::protocols::PgProtocol;
use rddr_repro::proxy::NVersion;

const SF: f64 = 0.05;

/// An 8-vCPU node running simulated work at 1/1000 speed.
fn cluster() -> Cluster {
    Cluster::with_governor(SimNet::new(), CpuGovernor::with_time_scale(8, 0.001))
}

/// A MiniPg 10.7 loaded with TPC-H at [`SF`], on a near-free cost model.
fn tpch_server() -> Arc<dyn Service> {
    let mut db = Database::new(PgVersion::parse("10.7").unwrap());
    tpch::load(&mut db, SF).expect("tpch loads");
    let quick = PgServerConfig {
        base_cost: Duration::from_micros(5),
        cost_per_row: Duration::from_nanos(100),
    };
    Arc::new(PgServer::with_config(db, quick))
}

#[test]
fn rddr_and_baseline_answer_identically_on_all_benchmark_queries() {
    let baseline = cluster();
    let base_addr = ServiceAddr::new("postgres", 5432);
    let _base = baseline
        .run_container(
            "postgres-0",
            Image::new("postgres", "10.7"),
            &base_addr,
            tpch_server(),
        )
        .unwrap();
    let cluster = cluster();
    let config = EngineConfig::builder(3)
        .filter_pair(0, 1)
        .response_deadline(Duration::from_secs(30))
        .build()
        .unwrap();
    let rddr = (0..3)
        .fold(
            NVersion::new("postgres", config, Arc::new(|| Box::new(PgProtocol::new()))),
            |nv, _| nv.variant(Image::new("postgres", "10.7"), tpch_server()),
        )
        .instances_at(ServiceAddr::new("pg", 5432))
        .deploy(&cluster, &ServiceAddr::new("rddr", 5432))
        .unwrap();

    let mut base_client =
        PgClient::connect(baseline.net().dial(&base_addr).unwrap(), "app").unwrap();
    let mut rddr_client =
        PgClient::connect(cluster.net().dial(&rddr.addr).unwrap(), "app").unwrap();

    for number in tpch::benchmark_query_numbers() {
        let query = tpch::QUERIES.iter().find(|q| q.number == number).unwrap();
        let a = base_client.query(query.sql).unwrap();
        let b = rddr_client.query(query.sql).unwrap();
        assert!(a.error.is_none(), "Q{number} baseline error: {:?}", a.error);
        assert!(b.error.is_none(), "Q{number} rddr error: {:?}", b.error);
        assert_eq!(a.columns, b.columns, "Q{number} column names");
        assert_eq!(a.rows, b.rows, "Q{number} result rows");
    }
    assert_eq!(
        rddr.proxy.stats().divergences,
        0,
        "benign TPC-H must never diverge"
    );
}

#[test]
fn tpch_loader_is_identical_across_instances() {
    // The 3 instances of the RDDR deployment must hold byte-identical data,
    // otherwise every query would be a false positive.
    let mut dbs: Vec<Database> = (0..3)
        .map(|_| {
            let mut db = Database::new(PgVersion::parse("10.7").unwrap());
            tpch::load(&mut db, SF).unwrap();
            db
        })
        .collect();
    let checks = [
        "SELECT COUNT(*), SUM(l_extendedprice) FROM lineitem",
        "SELECT COUNT(*), SUM(o_totalprice) FROM orders",
        "SELECT COUNT(*) FROM partsupp",
    ];
    for sql in checks {
        let mut reference: Option<Vec<Vec<String>>> = None;
        for db in dbs.iter_mut() {
            let mut s = db.session("app");
            let r = db.execute(&mut s, sql).unwrap();
            let rows: Vec<Vec<String>> = r
                .rows
                .iter()
                .map(|row| row.iter().map(|v| v.to_string()).collect())
                .collect();
            match &reference {
                None => reference = Some(rows),
                Some(expected) => assert_eq!(&rows, expected, "{sql}"),
            }
        }
    }
}
