//! Single-thread probes: each times one public function of one layer on
//! seeded inputs, from outside the crate. They are the unit costs the budget
//! decomposition multiplies by per-op counts.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::BytesMut;
use rddr_core::protocol::LineProtocol;
use rddr_core::{
    diff_segments, Direction, EngineConfig, Frame, NVersionEngine, NoiseMask, Protocol, Segment,
    VarianceRules,
};
use rddr_net::{duplex_pair, BoxStream, Network, Poller, ServiceAddr, Stream, TcpNet, Token};
use rddr_pgsim::{pgbench, Database, PgVersion, Value, ValueCodec};
use rddr_pgstore::{
    BTree, BufferPool, PagedStore, RecoveryPolicy, Storage, TupleCodec, TupleId, VDisk, Wal,
    WalRecord,
};
use rddr_protocols::{HttpProtocol, JsonProtocol, PgProtocol};
use rddr_telemetry::{Histogram, Registry};

use crate::host;
use crate::stats::median;
use crate::workload::{
    http_response, pg_encode, Kind, RequestGen, INSTANCES, PG_READ_ACCOUNTS, PG_WRITE_ACCOUNTS,
};

/// Nanoseconds per call of `f`: median of three batches, each grown until
/// it runs for at least 10 ms so timer resolution does not matter.
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    let mut iters = 1u64;
    let mut batches = Vec::new();
    while batches.len() < 3 {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let elapsed = start.elapsed();
        if elapsed < Duration::from_millis(10) {
            iters *= 4;
            continue;
        }
        batches.push(elapsed.as_nanos() as f64 / iters as f64);
    }
    median(&batches)
}

/// Nanoseconds per call over exactly `calls` calls, for operations whose
/// cost depends on how many came before (an INSERT snapshots its table).
fn ns_over(calls: u32, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..calls {
        f();
    }
    start.elapsed().as_nanos() as f64 / f64::from(calls)
}

fn kib(bytes: usize) -> f64 {
    bytes as f64 / 1024.0
}

fn engine(protocol: impl Protocol + 'static) -> NVersionEngine {
    let config = EngineConfig::builder(INSTANCES)
        .filter_pair(0, 1)
        .build()
        .expect("static config");
    NVersionEngine::new(config, protocol)
}

/// One `http_noisy` exchange: the request body and the three instances'
/// responses to it.
fn http_exchange(seed: u64) -> Vec<Vec<u8>> {
    let mut gen = RequestGen::new(Kind::HttpNoisy, 0, seed, None);
    let mut request = Vec::new();
    gen.next(&mut request, true);
    let (id, _, body, _) = crate::workload::http_parse_request(&request).expect("own request");
    (0..INSTANCES)
        .map(|i| http_response(i, &id, &request[body.clone()], false))
        .collect()
}

fn core(seed: u64, out: &mut BTreeMap<&'static str, f64>) {
    let mut gen = RequestGen::new(Kind::LineFast, 0, seed, None);
    let mut line = Vec::new();
    gen.next(&mut line, true);
    let lines = vec![line.clone(); INSTANCES];
    let mut fast = engine(LineProtocol::new());
    out.insert(
        "core.fastpath_eval_ns",
        ns_per_call(|| {
            black_box(
                fast.evaluate_responses(black_box(&lines))
                    .expect("evaluates"),
            );
        }),
    );
    out.insert(
        "core.replicate_ns",
        ns_per_call(|| {
            black_box(
                fast.replicate_request(black_box(&line))
                    .expect("replicates"),
            );
        }),
    );

    let responses = http_exchange(seed);
    let size = kib(responses[0].len());
    let mut full = engine(HttpProtocol::new());
    out.insert(
        "core.full_eval_ns_per_kib",
        ns_per_call(|| {
            black_box(
                full.evaluate_responses(black_box(&responses))
                    .expect("evaluates"),
            );
        }) / size,
    );
    let http = HttpProtocol::new();
    let segments: Vec<Vec<Segment>> = responses
        .iter()
        .map(|r| http.tokenize(&Frame::new("http:response", r.clone())))
        .collect();
    out.insert(
        "core.denoise_mask_ns_per_kib",
        ns_per_call(|| {
            black_box(NoiseMask::from_filter_pair(
                black_box(&segments[0]),
                black_box(&segments[1]),
            ));
        }) / size,
    );
    let mask = NoiseMask::from_filter_pair(&segments[0], &segments[1]);
    let rules = VarianceRules::new();
    out.insert(
        "core.diff_ns_per_kib",
        ns_per_call(|| {
            black_box(diff_segments(black_box(&segments), &mask, &rules));
        }) / size,
    );
}

/// Times `split_frames` over `wire` (refilled each call) per frame, and
/// `tokenize` over the resulting frames per KiB.
fn framing(protocol: &dyn Protocol, wire: &[u8]) -> (f64, f64) {
    let mut buf = BytesMut::new();
    buf.extend_from_slice(wire);
    let frames = protocol
        .split_frames(&mut buf, Direction::Response)
        .expect("own traffic frames");
    let split = ns_per_call(|| {
        buf.extend_from_slice(wire);
        black_box(
            protocol
                .split_frames(&mut buf, Direction::Response)
                .expect("own traffic frames"),
        );
    }) / frames.len() as f64;
    let tokenize = ns_per_call(|| {
        for frame in &frames {
            black_box(protocol.tokenize(black_box(frame)));
        }
    }) / kib(wire.len());
    (split, tokenize)
}

fn protocols(seed: u64, out: &mut BTreeMap<&'static str, f64>) {
    let mut gen = RequestGen::new(Kind::LineFast, 0, seed, None);
    let mut lines = Vec::new();
    for _ in 0..16 {
        gen.next(&mut lines, true);
    }
    out.insert(
        "protocols.line_split_ns_per_frame",
        framing(&LineProtocol::new(), &lines).0,
    );

    let responses = http_exchange(seed);
    let (split, tokenize) = framing(&HttpProtocol::new(), &responses[0]);
    out.insert("protocols.http_split_ns_per_frame", split);
    out.insert("protocols.http_tokenize_ns_per_kib", tokenize);

    // The same body as one newline-delimited JSON document.
    let body_at = responses[0]
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response has a head")
        + 4;
    let mut document: Vec<u8> = responses[0][body_at..]
        .iter()
        .copied()
        .filter(|&b| b != b'\n')
        .collect();
    document.push(b'\n');
    out.insert(
        "protocols.json_tokenize_ns_per_kib",
        framing(&JsonProtocol::new(), &document).1,
    );

    let mut db = Database::new(PgVersion::parse("10.7").expect("static version"));
    pgbench::load_scaled(&mut db, 1, 100).expect("pgbench loads");
    let mut session = db.session("app");
    let result = db
        .execute(
            &mut session,
            "SELECT abalance FROM pgbench_accounts WHERE aid = 7",
        )
        .expect("point select");
    let (split, tokenize) = framing(&PgProtocol::new(), &pg_encode(&result));
    out.insert("protocols.pg_split_ns_per_frame", split);
    out.insert("protocols.pg_tokenize_ns_per_kib", tokenize);
}

/// An echo peer for `conn` on its own thread: answers every read in kind.
fn echo_peer(mut conn: BoxStream) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let mut buf = vec![0u8; 64 * 1024];
        while let Ok(n) = conn.read(&mut buf) {
            if n == 0 || conn.write_all(&buf[..n]).is_err() {
                return;
            }
        }
    })
}

/// A sink peer: reads `round` bytes, acknowledges with one byte, repeats.
fn sink_peer(mut conn: BoxStream, round: usize) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let mut buf = vec![0u8; 64 * 1024];
        let mut seen = 0;
        while let Ok(n) = conn.read(&mut buf) {
            if n == 0 {
                return;
            }
            seen += n;
            if seen >= round {
                seen -= round;
                if conn.write_all(b"k").is_err() {
                    return;
                }
            }
        }
    })
}

/// 64 B ping-pong over `(near, far)`: wall ns per round trip, and process
/// CPU ns per one-way hop (write, wake, read — both threads' share).
fn ping_pong(mut near: BoxStream, far: BoxStream) -> (f64, f64) {
    let peer = echo_peer(far);
    let ping = [0x5au8; 64];
    let mut pong = [0u8; 64];
    let mut round_trips = 0u64;
    let cpu_before = host::process_cpu_seconds();
    let ns = ns_per_call(|| {
        near.write_all(&ping).expect("peer is up");
        near.read_exact(&mut pong).expect("peer echoes");
        round_trips += 1;
    });
    let cpu_ns = (host::process_cpu_seconds() - cpu_before) * 1e9;
    near.shutdown();
    drop(near);
    peer.join().expect("echo peer exits");
    (ns, cpu_ns / (2 * round_trips) as f64)
}

/// One-way bulk throughput in MiB/s over `(near, far)`: 256 KiB rounds,
/// each acknowledged, so the unbounded in-memory pipe cannot run ahead.
fn mib_per_s(mut near: BoxStream, far: BoxStream) -> f64 {
    const ROUND: usize = 256 * 1024;
    let peer = sink_peer(far, ROUND);
    let block = vec![0xa5u8; 64 * 1024];
    let mut ack = [0u8; 1];
    let ns = ns_per_call(|| {
        for _ in 0..ROUND / block.len() {
            near.write_all(&block).expect("peer is up");
        }
        near.read_exact(&mut ack).expect("peer acknowledges");
    });
    near.shutdown();
    drop(near);
    peer.join().expect("sink peer exits");
    (ROUND as f64 / (1024.0 * 1024.0)) / (ns / 1e9)
}

fn tcp_pair() -> (BoxStream, BoxStream) {
    let net = TcpNet::new();
    let mut listener = net
        .listen(&ServiceAddr::new("127.0.0.1", 0))
        .expect("loopback binds");
    let near = net.dial(&listener.local_addr()).expect("loopback dials");
    (near, listener.accept().expect("loopback accepts"))
}

fn sim_pair() -> (BoxStream, BoxStream) {
    let (a, b) = duplex_pair("probe-a", "probe-b");
    (Box::new(a), Box::new(b))
}

/// Cross-thread `wake` → `poll`-return latency (half a two-poller
/// ping-pong), and polls returned per wake issued under bursts of 16.
fn poller(out: &mut BTreeMap<&'static str, f64>) {
    let (here, there) = (Arc::new(Poller::new()), Arc::new(Poller::new()));
    let stop = Arc::new(AtomicBool::new(false));
    let peer = {
        let (here, there, stop) = (Arc::clone(&here), Arc::clone(&there), Arc::clone(&stop));
        std::thread::spawn(move || {
            let mut ready = Vec::new();
            while !stop.load(Ordering::SeqCst) {
                if there.poll(&mut ready, Some(Duration::from_millis(100))) > 0 {
                    here.wake(Token(1));
                }
            }
        })
    };
    let mut ready = Vec::new();
    let round_trip = ns_per_call(|| {
        there.wake(Token(1));
        here.poll(&mut ready, None);
    });
    out.insert("net.poller_wake_ns", round_trip / 2.0);
    stop.store(true, Ordering::SeqCst);
    peer.join().expect("poller peer exits");

    const BURST: u64 = 16;
    let target = Arc::new(Poller::new());
    let seen = Arc::new(AtomicU64::new(0));
    let returns = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let consumer = {
        let (target, seen, returns, stop) = (
            Arc::clone(&target),
            Arc::clone(&seen),
            Arc::clone(&returns),
            Arc::clone(&stop),
        );
        std::thread::spawn(move || {
            let mut ready = Vec::new();
            while !stop.load(Ordering::SeqCst) {
                let n = target.poll(&mut ready, Some(Duration::from_millis(100)));
                if n > 0 {
                    returns.fetch_add(1, Ordering::SeqCst);
                    seen.fetch_add(n as u64, Ordering::SeqCst);
                }
            }
        })
    };
    let mut issued = 0u64;
    let deadline = Instant::now() + Duration::from_millis(60);
    while Instant::now() < deadline {
        for t in 0..BURST {
            target.wake(Token(t));
        }
        issued += BURST;
        while seen.load(Ordering::SeqCst) < issued {
            std::hint::spin_loop();
        }
    }
    stop.store(true, Ordering::SeqCst);
    consumer.join().expect("poller consumer exits");
    out.insert(
        "net.poller_coalesce_ratio",
        returns.load(Ordering::SeqCst) as f64 / issued as f64,
    );
}

fn net(out: &mut BTreeMap<&'static str, f64>) {
    let (a, b) = sim_pair();
    let (rtt, hop_cpu) = ping_pong(a, b);
    out.insert("net.pipe_rtt_ns", rtt);
    out.insert("net.pipe_hop_cpu_ns", hop_cpu);
    let (a, b) = sim_pair();
    out.insert("net.pipe_mib_s", mib_per_s(a, b));
    let (a, b) = tcp_pair();
    let (rtt, hop_cpu) = ping_pong(a, b);
    out.insert("net.tcp_rtt_ns", rtt);
    out.insert("net.tcp_hop_cpu_ns", hop_cpu);
    let (a, b) = tcp_pair();
    out.insert("net.tcp_mib_s", mib_per_s(a, b));
    poller(out);
}

fn pgsim(seed: u64, out: &mut BTreeMap<&'static str, f64>) {
    let mut db = Database::new(PgVersion::parse("10.7").expect("static version"));
    pgbench::load_scaled(&mut db, PG_WRITE_ACCOUNTS / 1000, 1000).expect("pgbench loads");
    let mut session = db.session("app");
    let mut n = seed;
    let mut next_aid = move || {
        n = n.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        (n >> 33) as usize % PG_WRITE_ACCOUNTS + 1
    };
    out.insert(
        "pgsim.select_ns",
        ns_per_call(|| {
            let sql = format!(
                "SELECT abalance FROM pgbench_accounts WHERE aid = {}",
                next_aid()
            );
            black_box(db.execute(&mut session, &sql).expect("select"));
        }),
    );
    // 1000 inserts into an empty history table, 100 updates: fixed counts,
    // because both snapshot the table they touch.
    out.insert(
        "pgsim.insert_ns",
        ns_over(1000, || {
            let sql = format!(
                "INSERT INTO pgbench_history VALUES (1, 1, {}, 5, 't')",
                next_aid()
            );
            black_box(db.execute(&mut session, &sql).expect("insert"));
        }),
    );
    out.insert(
        "pgsim.update_ns",
        ns_over(100, || {
            let sql = format!(
                "UPDATE pgbench_accounts SET abalance = abalance + 3 WHERE aid = {}",
                next_aid()
            );
            black_box(db.execute(&mut session, &sql).expect("update"));
        }),
    );
}

fn account_row(aid: usize) -> Vec<Value> {
    vec![
        Value::Int(aid as i64),
        Value::Int(((aid - 1) / 1000 + 1) as i64),
        Value::Int((aid as i64 * 7919) % 10_000 - 5000),
        Value::Text("a".into()),
    ]
}

/// A paged store holding `accounts` pgbench-shaped rows in one table.
fn paged_accounts(disk: &VDisk, accounts: usize) -> PagedStore<Vec<Value>, ValueCodec> {
    let mut store = PagedStore::open(disk.clone(), ValueCodec, RecoveryPolicy::ReplayForward)
        .expect("fresh store opens");
    store.begin().expect("begin");
    store.create_table("ACCOUNTS", b"app").expect("create");
    store.commit().expect("commit");
    for chunk in (1..=accounts).collect::<Vec<_>>().chunks(500) {
        store.begin().expect("begin");
        store
            .insert(
                "ACCOUNTS",
                chunk.iter().map(|&aid| account_row(aid)).collect(),
            )
            .expect("insert");
        store.commit().expect("commit");
    }
    store.ensure_index("ACCOUNTS").expect("index builds");
    store
}

fn pgstore(seed: u64, out: &mut BTreeMap<&'static str, f64>) {
    let keys: Vec<Vec<u8>> = (1..=PG_READ_ACCOUNTS)
        .map(|aid| ValueCodec.key(&account_row(aid)))
        .collect();
    let mut n = seed | 1;
    let mut draw = move || {
        n = n.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        (n >> 33) as usize
    };

    let start = Instant::now();
    let mut tree = BTree::new();
    for (i, key) in keys.iter().enumerate() {
        tree.insert(
            key,
            TupleId {
                page: i as u64 / 100,
                slot: (i % 100) as u16,
            },
        );
    }
    out.insert(
        "pgstore.btree_insert_ns",
        start.elapsed().as_nanos() as f64 / keys.len() as f64,
    );
    out.insert(
        "pgstore.btree_get_ns",
        ns_per_call(|| {
            black_box(tree.get(black_box(&keys[draw() % keys.len()])));
        }),
    );

    // 64 sealed pages on disk; an 8-frame pool cycling through them misses
    // every time, a pool that holds them all hits every time.
    let disk = VDisk::new("probe");
    let mut writer = BufferPool::new("heap", 64);
    for page_no in 0..64 {
        writer.create_page(&disk, page_no).expect("page creates");
    }
    writer.flush_all(&disk);
    let mut page_no = 0u64;
    let mut small = BufferPool::new("heap", 8);
    out.insert(
        "pgstore.page_fetch_miss_ns",
        ns_per_call(|| {
            page_no = (page_no + 1) % 64;
            black_box(
                small
                    .with_page(&disk, page_no, |p| p.slot_count())
                    .expect("page reads"),
            );
        }),
    );
    out.insert(
        "pgstore.page_fetch_hit_ns",
        ns_per_call(|| {
            page_no = (page_no + 1) % 64;
            black_box(
                writer
                    .with_page(&disk, page_no, |p| p.slot_count())
                    .expect("page reads"),
            );
        }),
    );

    // `pg_read`'s shape: seeded point lookups over a table larger than the
    // default pool.
    let disk = VDisk::new("probe-read");
    let store = paged_accounts(&disk, PG_READ_ACCOUNTS);
    let before = store.pool_stats();
    for _ in 0..20_000 {
        let key = &keys[draw() % keys.len()];
        store
            .lookup("ACCOUNTS", key, &mut |row| {
                black_box(row);
            })
            .expect("lookup");
    }
    let after = store.pool_stats();
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    out.insert(
        "pgstore.pool_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    out.insert(
        "pgstore.pool_evictions",
        (after.evictions - before.evictions) as f64,
    );
    drop(store);

    // Cold start: replay the WAL the load above left behind.
    let wal_mib = disk.len("wal") as f64 / (1024.0 * 1024.0);
    let start = Instant::now();
    let reopened = PagedStore::open(disk.clone(), ValueCodec, RecoveryPolicy::ReplayForward)
        .expect("store recovers");
    out.insert(
        "pgstore.recovery_ms_per_mib",
        start.elapsed().as_secs_f64() * 1000.0 / wal_mib,
    );
    drop(reopened);

    // `pg_write`'s shape: every UPDATE rewrites the (pool-resident) table
    // inside its own transaction.
    let disk = VDisk::new("probe-write");
    let mut store = paged_accounts(&disk, PG_WRITE_ACCOUNTS);
    let rows: Vec<Vec<Value>> = (1..=PG_WRITE_ACCOUNTS).map(account_row).collect();
    let before = store.pool_stats();
    const REWRITES: u64 = 50;
    for _ in 0..REWRITES {
        store.begin().expect("begin");
        store.rewrite("ACCOUNTS", rows.clone()).expect("rewrite");
        store.commit().expect("commit");
    }
    out.insert(
        "pgstore.writebacks_per_op",
        (store.pool_stats().writebacks - before.writebacks) as f64 / REWRITES as f64,
    );

    let wal = Wal::new(VDisk::new("probe-wal"), "wal");
    let mut encoded = Vec::new();
    ValueCodec.encode(&account_row(1), &mut encoded);
    let record = WalRecord::Insert {
        table: "ACCOUNTS".into(),
        rows: vec![encoded],
    };
    out.insert(
        "pgstore.wal_append_ns",
        ns_per_call(|| wal.append(black_box(&record))),
    );
    wal.sync();
    out.insert(
        "pgstore.wal_sync_ns",
        ns_per_call(|| {
            wal.append(&record);
            wal.sync();
        }) - out["pgstore.wal_append_ns"],
    );
}

fn telemetry(out: &mut BTreeMap<&'static str, f64>) {
    let histogram = Histogram::new();
    let mut v = 1u64;
    out.insert(
        "telemetry.histogram_record_ns",
        ns_per_call(|| {
            v = v.wrapping_mul(31) % 100_000;
            histogram.record(black_box(v));
        }),
    );
    let counter = Registry::new().counter("probe_total");
    out.insert("telemetry.counter_inc_ns", ns_per_call(|| counter.inc()));
}

/// Runs every probe; keys are per-layer metric names.
pub fn run(seed: u64) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    core(seed, &mut out);
    protocols(seed, &mut out);
    net(&mut out);
    pgsim(seed, &mut out);
    pgstore(seed, &mut out);
    telemetry(&mut out);
    out
}
