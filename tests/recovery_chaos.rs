//! Crash-recovery chaos: kill a paged MiniPg instance mid-transaction,
//! respawn it through the supervisor's service factory (WAL recovery runs
//! before readiness), and let RDDR vote on what recovery produced.
//!
//! The acceptance scenario runs three paged instances behind a
//! MajorityVote + eject proxy. Instances 0 and 1 recover with
//! `replay-forward`; instance 2's policy is the variable. A first
//! transaction inserts a durably-committed marker row; a second is in
//! flight when instance 2's container is stopped and its disk crashes with
//! a seeded truncated-WAL-tail fault — tearing the *marker's* commit
//! record. `replay-forward` honours the torn trailing commit; a
//! `shadow-discard` instance discards it, diverges on the next read, and
//! is quarantined with `"offending_instance":2` in the audit log. The same
//! seed replays byte-for-byte: audit log, recovered WAL image, and state
//! digest.
//!
//! The seed is `RDDR_CHAOS_SEED` when set (CI runs the suite under three
//! fixed seeds), with a fixed default for local runs.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use rddr_repro::core::{DegradePolicy, EngineConfig, ResponsePolicy};
use rddr_repro::net::{ConnSelector, FaultPlan, Network, ServiceAddr, StorageFault};
use rddr_repro::orchestra::{Cluster, Image, Service, Supervisor};
use rddr_repro::pgsim::{
    Database, DbFlavor, PgClient, PgServer, PgVersion, PlanDiskFaults, RecoveryStats,
    StorageEngine, VDisk,
};
use rddr_repro::protocols::PgProtocol;
use rddr_repro::proxy::{NVersion, ProtocolFactory, ProxyTelemetry, StatsSnapshot};

const DEFAULT_SEED: u64 = 0x0D5A_2022;

fn chaos_seed() -> u64 {
    std::env::var("RDDR_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SEED)
}

fn pg() -> ProtocolFactory {
    Arc::new(|| Box::new(PgProtocol::new()))
}

fn minipg(engine: StorageEngine, disk: &VDisk) -> Result<Arc<dyn Service>, String> {
    let db = Database::with_engine(
        PgVersion::parse("10.7").map_err(|e| e.to_string())?,
        DbFlavor::Postgres,
        engine,
        disk,
    )
    .map_err(|e| e.to_string())?;
    Ok(Arc::new(PgServer::new(db)) as Arc<dyn Service>)
}

/// What one scenario run leaves behind for replay comparison.
#[derive(Debug, PartialEq)]
struct RunResult {
    stats: StatsSnapshot,
    audit: String,
    /// Instance 2's recovery outcome and post-recovery state digest,
    /// captured inside the respawn factory.
    recovery: Option<(RecoveryStats, u64)>,
    /// Instance 2's WAL image after recovery repaired it.
    wal_bytes: Vec<u8>,
    /// What the client read back for the marker row after the respawn.
    marker_rows: Vec<Vec<String>>,
    restarts: u64,
}

/// Kill-mid-transaction → crash with a torn WAL tail → factory respawn →
/// fresh-session readmission → RDDR votes on the recovered state.
/// `third_policy` picks instance 2's engine spec.
fn run_scenario(seed: u64, third_policy: &str) -> RunResult {
    let plan = FaultPlan::new(seed);
    // First crash of instance 2's WAL tears the tail of its last durable
    // append — which the scenario arranges to be the marker's commit record.
    plan.storage_inject(
        "db-2",
        Some("wal"),
        ConnSelector::Nth(0),
        StorageFault::TruncatedWalTail,
    );

    let cluster = Cluster::new(3);
    let specs = ["paged:replay-forward", "paged:replay-forward", third_policy];
    let mut engines = Vec::new();
    let mut disks: Vec<VDisk> = Vec::new();
    let mut dbs = NVersion::new(
        "db",
        EngineConfig::builder(3)
            .policy(ResponsePolicy::MajorityVote)
            .degrade(DegradePolicy::eject())
            .response_deadline(Duration::from_millis(800))
            .instance_deadline(Duration::from_millis(300))
            .build()
            .unwrap(),
        pg(),
    )
    .instances_at(ServiceAddr::new("db", 5432));
    for (i, spec) in specs.iter().enumerate() {
        let engine = StorageEngine::parse(spec).unwrap();
        let disk = PlanDiskFaults::disk(plan.clone(), &format!("db-{i}"));
        dbs = dbs.variant(Image::new("minipg", *spec), minipg(engine, &disk).unwrap());
        engines.push(engine);
        disks.push(disk);
    }
    let telemetry = ProxyTelemetry::new("recovery-chaos");
    let mut rddr = dbs
        .telemetry(telemetry.clone())
        .deploy(&cluster, &ServiceAddr::new("rddr-db", 5432))
        .unwrap();

    // Each replica respawns under its own name and address through a
    // factory that reopens its disk. Instance 2's recovery stats +
    // post-recovery digest, written by that factory, prove recovery ran
    // before the readiness probe.
    let supervisor = Supervisor::new();
    let recovered: Arc<Mutex<Option<(RecoveryStats, u64)>>> = Arc::new(Mutex::new(None));
    for ((handle, engine), disk) in rddr.containers.iter().zip(engines).zip(&disks) {
        let factory_disk = disk.clone();
        let slot = Arc::clone(&recovered);
        supervisor.register_factory(
            handle.name(),
            handle.image().clone(),
            handle.addr().clone(),
            move || {
                let db = Database::with_engine(
                    PgVersion::parse("10.7").map_err(|e| e.to_string())?,
                    DbFlavor::Postgres,
                    engine,
                    &factory_disk,
                )
                .map_err(|e| e.to_string())?;
                *slot.lock().unwrap() = Some((db.recovery_stats(), db.state_digest()));
                Ok(Arc::new(PgServer::new(db)) as Arc<dyn Service>)
            },
        );
    }

    // Session 1: a durably-committed marker, then a transaction that is
    // mid-flight when instance 2 dies.
    let conn = cluster.net().dial(&rddr.addr).unwrap();
    let mut client = PgClient::connect(conn, "app").unwrap();
    client
        .query("CREATE TABLE journal (id INT, note TEXT)")
        .unwrap();
    client.query("BEGIN").unwrap();
    client
        .query("INSERT INTO journal VALUES (1, 'marker')")
        .unwrap();
    let r = client.query("COMMIT").unwrap();
    assert_eq!(r.tag, "COMMIT");
    client.query("BEGIN").unwrap();
    client
        .query("INSERT INTO journal VALUES (2, 'phantom')")
        .unwrap();
    // Kill instance 2 mid-transaction: container gone, disk crashed. The
    // uncommitted phantom records die in the page cache; the armed fault
    // tears the durable tail — the marker's commit record.
    rddr.containers[2].kill();
    disks[2].crash();
    // The surviving quorum finishes the transaction; the dead replica is
    // ejected from the diff set.
    let r = client.query("ROLLBACK").unwrap();
    assert_eq!(r.tag, "ROLLBACK");
    drop(client);

    // Respawn through the factory: WAL recovery runs inside it, so the
    // readiness probe passing implies recovery completed.
    let respawned = supervisor
        .respawn(&cluster, "db-2", Duration::from_secs(2))
        .unwrap();

    // Session 2: the recovered replica is readmitted by the fresh fan-out
    // (a recovered replica reappears as a fresh session) and RDDR votes on
    // what its recovery policy kept.
    let conn = cluster.net().dial(&rddr.addr).unwrap();
    let mut client = PgClient::connect(conn, "app").unwrap();
    let marker = client
        .query("SELECT note FROM journal WHERE id = 1")
        .unwrap();
    drop(client);
    drop(respawned);

    // Let the session thread retire so its counters settle.
    std::thread::sleep(Duration::from_millis(50));
    let stats = rddr.proxy.stats();
    let wal_len = disks[2].len("wal") as usize;
    let recovery = *recovered.lock().unwrap();
    RunResult {
        stats,
        audit: telemetry.audit.stable_json(),
        recovery,
        wal_bytes: disks[2].read("wal", 0, wal_len),
        marker_rows: marker.rows,
        restarts: supervisor.restarts(),
    }
}

#[test]
fn shadow_discard_recovery_diverges_and_is_quarantined() {
    let run = run_scenario(chaos_seed(), "paged:shadow-discard");
    assert_eq!(run.restarts, 1, "supervisor must have respawned db-2");
    let (stats, digest) = run.recovery.expect("factory must capture recovery");
    assert!(stats.torn_tail, "the armed fault must tear the WAL tail");
    assert!(
        !stats.honoured_torn_commit,
        "shadow-discard must not honour the torn commit: {stats:?}"
    );
    assert_eq!(stats.discarded_txns, 1, "{stats:?}");
    assert_ne!(digest, 0);
    // The dead replica was ejected mid-transaction…
    assert!(run.stats.ejected >= 1, "{:?}", run.stats);
    // …and its divergent recovery was outvoted and quarantined.
    assert!(run.stats.quarantined >= 1, "{:?}", run.stats);
    assert!(
        run.audit.contains("\"offending_instance\":2"),
        "vote must implicate the shadow-discard instance: {}",
        run.audit
    );
    // The client still gets the quorum's answer: the marker survived.
    assert_eq!(run.marker_rows, vec![vec!["marker".to_string()]]);
}

#[test]
fn replay_forward_recovery_converges_and_rejoins_cleanly() {
    let run = run_scenario(chaos_seed(), "paged:replay-forward");
    let (stats, _) = run.recovery.expect("factory must capture recovery");
    assert!(stats.torn_tail, "{stats:?}");
    assert!(
        stats.honoured_torn_commit,
        "replay-forward must roll the torn commit forward: {stats:?}"
    );
    assert!(run.stats.ejected >= 1, "{:?}", run.stats);
    // Identical recovery policies reach identical state: no divergence,
    // no quarantine, nothing to pin on the respawned instance.
    assert_eq!(run.stats.quarantined, 0, "{:?}", run.stats);
    assert!(
        !run.audit.contains("\"offending_instance\""),
        "convergent recovery must not implicate anyone: {}",
        run.audit
    );
    assert_eq!(run.marker_rows, vec![vec!["marker".to_string()]]);
}

#[test]
fn same_seed_crash_recovery_replays_byte_identically() {
    let seed = chaos_seed();
    let a = run_scenario(seed, "paged:shadow-discard");
    let b = run_scenario(seed, "paged:shadow-discard");
    assert!(!a.audit.is_empty());
    assert_eq!(a.audit, b.audit, "audit log must replay byte-identically");
    assert_eq!(
        a.wal_bytes, b.wal_bytes,
        "recovered WAL image must replay byte-identically"
    );
    assert_eq!(
        a.recovery, b.recovery,
        "recovery stats and digest must match"
    );
    assert_eq!(a.stats, b.stats, "proxy counters must match");
}
