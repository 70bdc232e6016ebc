//! Storage-engine equivalence: golden wire answers and crash recovery.
//!
//! MiniPg's rows live in `rddr-pgstore`'s paged engine. It took over from
//! an in-memory store, and it must answer byte-identically on the wire to
//! what that store answered — tags, rows, notices, and error frames alike —
//! or the change of engine would have changed what RDDR votes on. The
//! in-memory store's answers to 128 seeded statement streams are kept as
//! digests in `tests/data/memory_engine_wire.txt`. The properties pin crash
//! recovery itself: killing an instance mid-transaction and replaying the
//! WAL is deterministic — the same seed leaves the same WAL image, recovery
//! stats, and state digest every time — and lands on the pre-transaction
//! state under either recovery policy.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rddr_repro::net::{BoxStream, Network, ServiceAddr};
use rddr_repro::orchestra::{Cluster, Image};
use rddr_repro::pgsim::pgbench::{self, SelectWorkload};
use rddr_repro::pgsim::{
    query_message, startup_message, Database, DbFlavor, PgServer, PgVersion, RecoveryPolicy,
    StorageEngine, VDisk,
};
use rddr_repro::protocols::PgMessage;

fn version() -> PgVersion {
    PgVersion::parse("10.7").unwrap()
}

/// A deterministic SQL statement stream: DDL, a bulk load big enough that
/// point statements go through the index, multi-row inserts, point, full
/// and aggregate selects, updates (point, multi-row, whole-table, TEXT that
/// grows), deletes (likewise), transaction verbs, a write burst that is
/// rolled back, and the odd guaranteed error (error frames must match
/// byte-for-byte too). The unordered full select puts scan order on the
/// wire.
fn statement_stream(seed: u64, len: usize) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stmts = vec!["CREATE TABLE t (id INT, name TEXT, score FLOAT)".to_string()];
    let mut next_id = 0i64;
    let mut in_txn = false;
    let bulk: Vec<String> = (0..140)
        .map(|_| {
            next_id += 1;
            format!("({next_id}, 'n{}', {}.5)", next_id % 7, next_id % 50)
        })
        .collect();
    stmts.push(format!("INSERT INTO t VALUES {}", bulk.join(", ")));
    for _ in 0..len {
        let some_id = rng.gen_range(0i64..=next_id);
        match rng.gen_range(0u32..16) {
            0..=3 => {
                let rows: Vec<String> = (0..rng.gen_range(1usize..=3))
                    .map(|_| {
                        next_id += 1;
                        format!(
                            "({next_id}, 'n{}', {}.5)",
                            rng.gen_range(0u32..100),
                            rng.gen_range(0i64..50)
                        )
                    })
                    .collect();
                stmts.push(format!("INSERT INTO t VALUES {}", rows.join(", ")));
            }
            4 => stmts.push(format!("SELECT name, score FROM t WHERE id = {some_id}")),
            5 => stmts.push("SELECT COUNT(*), SUM(score) FROM t".to_string()),
            6 => stmts.push(format!(
                "UPDATE t SET score = {}.25 WHERE id = {some_id}",
                rng.gen_range(0i64..90)
            )),
            7 => stmts.push(format!("DELETE FROM t WHERE id = {some_id}")),
            8 => {
                stmts.push(
                    match (in_txn, rng.gen_bool(0.5)) {
                        (false, _) => "BEGIN",
                        (true, true) => "COMMIT",
                        (true, false) => "ROLLBACK",
                    }
                    .to_string(),
                );
                in_txn = !in_txn;
            }
            9 => stmts.push("SELECT id, name, score FROM t".to_string()),
            // TEXT that grows, by a little or past what its page has left.
            10 => stmts.push(format!(
                "UPDATE t SET name = name || '{}' WHERE id = {some_id}",
                "g".repeat(rng.gen_range(1usize..600))
            )),
            11 => stmts.push(format!(
                "UPDATE t SET score = score + 1, name = name || '+' WHERE id > {some_id}"
            )),
            12 => stmts.push(match rng.gen_range(0u32..8) {
                0 => "DELETE FROM t".to_string(),
                1..=3 => "UPDATE t SET name = name || '!'".to_string(),
                _ => format!(
                    "DELETE FROM t WHERE id > {some_id} AND id < {}",
                    some_id + 6
                ),
            }),
            13 if !in_txn => stmts.extend([
                "BEGIN".to_string(),
                format!("UPDATE t SET name = name || '-doomed' WHERE id < {some_id}"),
                format!("DELETE FROM t WHERE id = {some_id}"),
                format!("DELETE FROM t WHERE id > {some_id}"),
                format!("INSERT INTO t VALUES ({some_id}, 'doomed', 0.5)"),
                "ROLLBACK".to_string(),
                "SELECT id, name FROM t".to_string(),
            ]),
            _ => stmts.push("SELECT ghost FROM phantom".to_string()),
        }
    }
    if in_txn {
        stmts.push("COMMIT".to_string());
    }
    stmts
}

/// A raw pg-wire session: sends simple queries and returns the exact
/// response bytes up to and including ReadyForQuery.
struct WireSession {
    conn: BoxStream,
    buf: Vec<u8>,
}

impl WireSession {
    fn connect(cluster: &Cluster, addr: &ServiceAddr) -> Self {
        let mut conn = cluster.net().dial(addr).unwrap();
        conn.write_all(&startup_message("app")).unwrap();
        let mut session = WireSession {
            conn,
            buf: Vec::new(),
        };
        // The greeting carries instance-specific BackendKeyData (excluded
        // from diffing by the protocol module), so it is read and dropped
        // rather than compared.
        session.read_until_ready();
        session
    }

    fn read_until_ready(&mut self) -> Vec<u8> {
        let mut out = Vec::new();
        let mut chunk = [0u8; 4096];
        loop {
            while let Some((m, used)) = PgMessage::decode(&self.buf, false).unwrap() {
                out.extend_from_slice(&self.buf[..used]);
                self.buf.drain(..used);
                if m.tag == b'Z' {
                    return out;
                }
            }
            let n = self
                .conn
                .read(&mut chunk)
                .expect("server closed mid-response");
            assert!(n > 0, "server closed mid-response");
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }

    fn exchange(&mut self, sql: &str) -> Vec<u8> {
        self.conn.write_all(&query_message(sql)).unwrap();
        self.read_until_ready()
    }
}

/// Runs a seeded stream against one instance and returns the wire response
/// to each statement.
fn wire_responses(stmts: &[String]) -> Vec<Vec<u8>> {
    let cluster = Cluster::new(1);
    let addr = ServiceAddr::new("db", 5432);
    let _c = cluster
        .run_container(
            "db-0",
            Image::new("minipg", "paged"),
            &addr,
            std::sync::Arc::new(PgServer::new(Database::new(version()))),
        )
        .unwrap();
    let mut session = WireSession::connect(&cluster, &addr);
    stmts.iter().map(|sql| session.exchange(sql)).collect()
}

/// Crash-recovery fixture: run a seeded stream, open a transaction, kill
/// the instance mid-transaction (drop + disk crash), then recover. Returns
/// the recovered WAL image, recovery stats, the post-recovery digest, and
/// how many phantom (uncommitted) rows survived.
fn recovered_state(seed: u64) -> (Vec<u8>, rddr_repro::pgsim::RecoveryStats, u64, usize) {
    let engine = StorageEngine::default();
    let disk = VDisk::new("db-0");
    let mut db = Database::with_engine(version(), DbFlavor::Postgres, engine, &disk).unwrap();
    let mut session = db.session("app");
    for sql in statement_stream(seed, 14) {
        let _ = db.execute(&mut session, &sql);
    }
    db.execute(&mut session, "BEGIN").unwrap();
    db.execute(&mut session, "INSERT INTO t VALUES (9999, 'phantom', 0.5)")
        .unwrap();
    // Kill mid-transaction: the process dies and unsynced writes with it.
    drop(db);
    disk.crash();
    let mut db = Database::with_engine(version(), DbFlavor::Postgres, engine, &disk).unwrap();
    let stats = db.recovery_stats();
    let wal = disk.read("wal", 0, disk.len("wal") as usize);
    let digest = db.state_digest();
    let mut session = db.session("app");
    let phantoms = db
        .execute(&mut session, "SELECT id FROM t WHERE id = 9999")
        .unwrap()
        .rows
        .len();
    (wal, stats, digest, phantoms)
}

/// Runs a seeded stream to a committed state, then opens a transaction that
/// rewrites TEXT across the whole table, deletes a range and appends, and
/// kills the instance before it commits. Returns the digest before the
/// transaction and the digest recovery reaches under `policy`.
fn killed_mid_update(seed: u64, policy: RecoveryPolicy) -> (u64, u64) {
    let engine = StorageEngine { policy };
    let disk = VDisk::new("db-0");
    let mut db = Database::with_engine(version(), DbFlavor::Postgres, engine, &disk).unwrap();
    let mut session = db.session("app");
    for sql in statement_stream(seed, 20) {
        let _ = db.execute(&mut session, &sql);
    }
    let committed = db.state_digest();
    for sql in [
        "BEGIN",
        "UPDATE t SET name = name || '-uncommitted', score = 0.5",
        "DELETE FROM t WHERE id > 40 AND id < 90",
        "UPDATE t SET score = 9.5 WHERE id = 7",
        "INSERT INTO t VALUES (9999, 'phantom', 0.5)",
    ] {
        db.execute(&mut session, sql).unwrap();
    }
    assert_ne!(
        db.state_digest(),
        committed,
        "the transaction did something"
    );
    drop(db);
    disk.crash();
    let db = Database::with_engine(version(), DbFlavor::Postgres, engine, &disk).unwrap();
    (committed, db.state_digest())
}

/// Per-seed FNV-1a digests of the in-memory engine's wire responses to
/// `statement_stream(seed, 40)`, seeds `0..128`, one `seed digest` line
/// each, captured while that engine still shipped.
const MEMORY_WIRE_GOLDEN: &str = include_str!("data/memory_engine_wire.txt");

/// FNV-1a of every response to `statement_stream(seed, 40)`, in order.
fn wire_digest(seed: u64) -> u64 {
    let responses = wire_responses(&statement_stream(seed, 40));
    rddr_repro::pgstore::fnv1a(&responses.concat())
}

/// Byte-identical wire responses: the paged engine answers every seeded
/// stream exactly as the in-memory engine did.
#[test]
fn paged_engine_is_wire_identical_to_memory() {
    let mut seeds = 0;
    for line in MEMORY_WIRE_GOLDEN.lines().filter(|l| !l.starts_with('#')) {
        let (seed, digest) = line.split_once(' ').expect("`seed digest` line");
        let seed: u64 = seed.parse().unwrap();
        let want = u64::from_str_radix(digest, 16).unwrap();
        assert_eq!(
            wire_digest(seed),
            want,
            "seed {seed}: the paged engine's wire responses differ from the in-memory engine's"
        );
        seeds += 1;
    }
    assert_eq!(seeds, 128);
}

proptest! {
    /// Byte-identical WAL replay: the same seed and the same mid-transaction
    /// kill leave the same durable state, bit for bit.
    #[test]
    fn same_seed_wal_replay_is_byte_identical(seed in any::<u64>()) {
        let (wal_a, stats_a, digest_a, phantoms_a) = recovered_state(seed);
        let (wal_b, stats_b, digest_b, _) = recovered_state(seed);
        prop_assert!(!wal_a.is_empty(), "the stream must leave a WAL behind");
        prop_assert_eq!(wal_a, wal_b, "WAL image must replay byte-identically");
        prop_assert_eq!(stats_a, stats_b);
        prop_assert_eq!(digest_a, digest_b);
        // The crash drops only unsynced writes, so the WAL tail sits on an
        // fsync boundary: nothing torn, and the phantom row died with the
        // process. (`discarded_txns` is seed-dependent: a stream ROLLBACK
        // hardened by a later commit's fsync replays as a discarded txn.)
        prop_assert!(!stats_a.torn_tail, "{:?}", stats_a);
        prop_assert_eq!(phantoms_a, 0, "uncommitted row must not survive the crash");
    }

    /// A kill in the middle of an UPDATE/DELETE transaction recovers to the
    /// state before it, whichever recovery policy replays the log: the
    /// row-addressed records of the committed prefix still name the rows
    /// they named when they were written.
    #[test]
    fn kill_mid_update_recovers_the_pre_transaction_state(seed in any::<u64>()) {
        for policy in [RecoveryPolicy::ReplayForward, RecoveryPolicy::ShadowDiscard] {
            let (committed, recovered) = killed_mid_update(seed, policy);
            prop_assert_eq!(committed, recovered, "{:?}", policy);
        }
    }
}

/// Loads a 2-branch pgbench dataset (500 accounts) on `spec`, runs 2 000
/// point selects, kills the instance (drop + disk crash) and brings it back:
/// replaying the WAL must reproduce the pre-crash state, digest and row
/// count alike.
fn pgbench_recovers_after_crash(spec: &str) {
    let engine = StorageEngine::parse(spec).unwrap();
    let disk = VDisk::new("bench");
    let open = || Database::with_engine(version(), DbFlavor::Postgres, engine, &disk).unwrap();
    let mut db = open();
    let accounts = pgbench::load_scaled(&mut db, 2, 250).unwrap();
    assert_eq!(accounts, 500);
    let mut session = db.session("app");
    let mut workload = SelectWorkload::new(accounts, 1);
    for _ in 0..2000 {
        db.execute(&mut session, &workload.next_query()).unwrap();
    }
    let digest = db.state_digest();

    drop(db);
    disk.crash();
    let mut db = open();
    assert_eq!(
        db.state_digest(),
        digest,
        "{spec}: recovery must reproduce the pre-crash state"
    );
    let mut session = db.session("app");
    let count = db
        .execute(&mut session, "SELECT COUNT(*) FROM pgbench_accounts")
        .unwrap();
    assert_eq!(count.rows[0][0].to_string(), "500", "{spec}");
}

#[test]
fn pgbench_replay_forward_recovers_the_pre_crash_state() {
    pgbench_recovers_after_crash("paged:replay-forward");
}

#[test]
fn pgbench_shadow_discard_recovers_the_pre_crash_state() {
    pgbench_recovers_after_crash("paged:shadow-discard");
}
