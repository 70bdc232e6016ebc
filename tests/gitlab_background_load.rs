//! §V-F robustness: "RDDR functions robustly when deployed in a complex
//! system with high levels of benign traffic." Benign GitLab flows hammer
//! the 3-versioned Postgres while the exploit fires concurrently; the
//! exploit must be blocked and every benign request must keep succeeding.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rddr_repro::core::EngineConfig;
use rddr_repro::httpsim::framework::url_encode;
use rddr_repro::httpsim::gitlab::{deploy_gitlab, seed_gitlab_schema};
use rddr_repro::httpsim::HttpClient;
use rddr_repro::net::ServiceAddr;
use rddr_repro::orchestra::{Cluster, Image};
use rddr_repro::pgsim::{Database, PgServer, PgVersion};
use rddr_repro::protocols::PgProtocol;
use rddr_repro::proxy::NVersion;

#[test]
fn exploit_is_blocked_under_concurrent_benign_load() {
    let cluster = Cluster::new(8);
    let config = EngineConfig::builder(3)
        .filter_pair(0, 1)
        .response_deadline(Duration::from_secs(5))
        .build()
        .unwrap();
    let mut postgres = NVersion::new("pg", config, Arc::new(|| Box::new(PgProtocol::new())))
        .instances_at(ServiceAddr::new("pg", 5432));
    for version in ["10.7", "10.7", "10.9"] {
        let mut db = Database::new(PgVersion::parse(version).unwrap());
        seed_gitlab_schema(&mut db).unwrap();
        postgres = postgres.variant(Image::new("postgres", version), Arc::new(PgServer::new(db)));
    }
    let rddr = postgres
        .deploy(&cluster, &ServiceAddr::new("gitlab-postgres", 5432))
        .unwrap();
    let gitlab = deploy_gitlab(&cluster, rddr.addr.clone()).unwrap();
    let net = cluster.net();
    let workhorse = gitlab.addrs.workhorse.clone();

    let stop = Arc::new(AtomicBool::new(false));
    let benign_ok = Arc::new(AtomicU64::new(0));
    let benign_fail = Arc::new(AtomicU64::new(0));

    std::thread::scope(|scope| {
        // Four benign browsers looping /projects and the health endpoint.
        for _ in 0..4 {
            let net = net.clone();
            let workhorse = workhorse.clone();
            let stop = Arc::clone(&stop);
            let ok = Arc::clone(&benign_ok);
            let fail = Arc::clone(&benign_fail);
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let fine = HttpClient::connect(&net, &workhorse)
                        .and_then(|mut c| c.get("/projects"))
                        .map(|r| r.status == 200 && r.body_text().contains("gitlab-ce"))
                        .unwrap_or(false);
                    if fine {
                        ok.fetch_add(1, Ordering::Relaxed);
                    } else {
                        fail.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }

        // The attacker, mid-load.
        let mut leaked = false;
        let mut blocked = false;
        for sql in [
            "CREATE FUNCTION op_leak(int, int) RETURNS bool \
             AS 'BEGIN RAISE NOTICE ''leak %, %'', $1, $2; RETURN $1 < $2; END' \
             LANGUAGE plpgsql",
            "CREATE OPERATOR <<< (procedure=op_leak, leftarg=int, rightarg=int, \
             restrict=scalarltsel)",
            "SELECT * FROM user_secrets WHERE secret_level <<< 1000",
        ] {
            let Ok(mut attacker) = HttpClient::connect(&net, &workhorse) else {
                break;
            };
            match attacker.get(&format!("/api/v4/sql?q={}", url_encode(sql))) {
                Err(_) => {
                    blocked = true;
                    break;
                }
                Ok(resp) => {
                    let text = resp.body_text();
                    if text.contains("ROOT-ADMIN") {
                        leaked = true;
                    }
                    if resp.status == 500 {
                        blocked = true;
                        break;
                    }
                }
            }
        }
        // Let the benign load run a little longer after the attack.
        std::thread::sleep(Duration::from_millis(200));
        stop.store(true, Ordering::Relaxed);

        assert!(blocked, "the exploit must be blocked under load");
        assert!(!leaked, "no protected row may leak under load");
    });

    let ok = benign_ok.load(Ordering::Relaxed);
    let fail = benign_fail.load(Ordering::Relaxed);
    assert!(ok >= 20, "benign load must flow ({ok} ok / {fail} failed)");
    assert_eq!(fail, 0, "no benign request may be disturbed by the attack");
}
