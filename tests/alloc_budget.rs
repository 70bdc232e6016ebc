//! Allocation budget of one exchange through the engine, counted by a
//! `#[global_allocator]`.
//!
//! The full de-noise/diff pipeline must cost a number of heap allocations
//! that depends on the number of *instances*, never on the number of
//! segments: an `http_noisy`-shaped exchange (a `Date` header, a request id
//! and a body nonce that differ per instance, so the fast path never hits
//! and the filter pair masks three positions) allocates exactly as often
//! with a 400-line body as with a 40-line one. Before the segment tables
//! the same two exchanges took 605 and 4 235 allocations (638 on the
//! benchmark's own 47-segment exchange), and the fast-path line exchange 17.
//!
//! A span event with a static label allocates nothing of its own: the
//! event vector's growth is the only cost.
//!
//! A buffer-pool miss reads the page into its victim frame's buffer and
//! the page map is a sorted vector sized to the pool, so a run of misses
//! allocates nothing. A fresh 4 KiB buffer per miss and a `BTreeMap` page
//! map made 10 000 misses cost 11 141 allocations and 41.2 MB.
//!
//! A pgbench point SELECT on the paged engine costs what its result needs:
//! tokens borrow the SQL text, the point executor walks the `WHERE` by
//! reference, reads the schema from the catalog and moves the matched rows,
//! and `PgServer` encodes into one reused buffer. Before, `Database::execute`
//! of the SELECT took 56 allocations, the UPDATE 81 and the INSERT 51, and
//! a `PgServer` round trip of the SELECT 71.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Duration;

use rddr_repro::core::protocol::LineProtocol;
use rddr_repro::core::{EngineConfig, NVersionEngine, Protocol, Verdict};
use rddr_repro::net::{duplex_pair, BoxStream, SimNet, Stream};
use rddr_repro::orchestra::{CpuGovernor, ResourceMeter, Service, ServiceCtx};
use rddr_repro::pgsim::{
    pgbench, query_message, startup_message, Database, DbFlavor, PgServer, PgServerConfig,
    PgVersion, Session, StorageEngine,
};
use rddr_repro::pgstore::{BufferPool, Page, VDisk, PAGE_SIZE};
use rddr_repro::protocols::HttpProtocol;
use rddr_repro::telemetry::Span;

const INSTANCES: usize = 3;

/// What one steady-state exchange may allocate: per instance, the frame
/// list `split_frames` returns and the bytes of the frame in it. The
/// engine's own scratch (buffers, frame slots, segment tables, the mask) is
/// reused, and the forwarded response is the first instance's frame, moved.
const PER_EXCHANGE: u64 = 2 * INSTANCES as u64;

thread_local! {
    // Per thread, so tests running side by side do not count each other.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

impl Counting {
    fn count(bytes: usize) {
        // Not `with`: the allocator also runs while a thread is torn down.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count(new_size);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations (and reallocations) `f` performs on this thread.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let (value, count, _) = allocated_in(f);
    (value, count)
}

/// Allocations `f` performs on this thread, and the bytes they asked for
/// (a reallocation counts its new size).
fn allocated_in<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let before = (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get));
    let value = f();
    (
        value,
        ALLOCATIONS.with(Cell::get) - before.0,
        BYTES.with(Cell::get) - before.1,
    )
}

/// Instance `instance`'s response: the benchmark's `http_noisy` shape, with
/// `lines` body lines of which one carries per-instance noise.
fn http_response(instance: usize, lines: usize) -> Vec<u8> {
    let tag = (b'a' + instance as u8) as char;
    let token = format!("{tag}1f3-0a2b-77c1-9e{instance}{tag}");
    let mut body = format!("{{\n \"nonce\": \"{token}\",\n");
    for i in 3..lines {
        body += &format!(" \"k{i}\": \"{:032x}\",\n", i * 7919);
    }
    body += "}\n";
    assert_eq!(body.lines().count(), lines);
    let mut wire = format!(
        "HTTP/1.1 200 OK\r\nDate: Tue, 29 Sep 2026 {instance}1:02:3{instance} GMT\r\n\
         X-Request-Id: {token}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    wire.extend_from_slice(body.as_bytes());
    wire
}

/// Allocations of one `evaluate_responses` once the engine's scratch has
/// reached its steady size, checking the verdict on the way.
fn steady_state_allocations(
    protocol: impl Protocol + 'static,
    responses: &[Vec<u8>],
    fastpath_hits_per_exchange: u64,
) -> u64 {
    let config = EngineConfig::builder(INSTANCES)
        .filter_pair(0, 1)
        .build()
        .unwrap();
    let mut engine = NVersionEngine::new(config, protocol);
    for _ in 0..16 {
        engine.evaluate_responses(responses).unwrap();
    }
    let (verdict, count) = allocations_in(|| engine.evaluate_responses(responses).unwrap());
    match verdict {
        Verdict::Unanimous(bytes) => assert_eq!(bytes, responses[0]),
        Verdict::Divergent(report) => panic!("the noise must be masked: {report}"),
    }
    assert_eq!(
        engine.metrics().fastpath_hits,
        17 * fastpath_hits_per_exchange
    );
    count
}

#[test]
fn full_pipeline_allocations_do_not_grow_with_the_body() {
    let counts: Vec<u64> = [40, 400]
        .into_iter()
        .map(|lines| {
            let responses: Vec<Vec<u8>> = (0..INSTANCES).map(|i| http_response(i, lines)).collect();
            steady_state_allocations(HttpProtocol::new(), &responses, 0)
        })
        .collect();
    println!("full-pipeline allocations per exchange: {counts:?} (40 and 400 body lines)");
    assert_eq!(counts[0], counts[1], "allocations grew with the body");
    assert!(counts[0] <= PER_EXCHANGE, "{} > {PER_EXCHANGE}", counts[0]);
}

#[test]
fn fast_path_line_exchange_stays_within_the_same_budget() {
    let line = b"a sixty-four byte line, as the line_fast workload sends them..\n".to_vec();
    let count = steady_state_allocations(LineProtocol::new(), &vec![line; INSTANCES], 1);
    println!("fast-path allocations per line exchange: {count}");
    assert!(count <= PER_EXCHANGE, "{count} > {PER_EXCHANGE}");
}

#[test]
fn static_span_labels_allocate_only_the_event_vector() {
    // 4, 8, 16, 32, 64 slots: one allocation and four doublings, with one
    // to spare. A `String` label per event made this 69.
    const BUDGET: u64 = 6;
    let span = Span::start("exchange");
    let ((), count) = allocations_in(|| {
        for _ in 0..16 {
            span.event("replicate");
            span.event("diff");
            span.event("respond:forward:0");
            span.event("instance:2:data");
        }
    });
    assert_eq!(span.timeline().len(), 64);
    println!("allocations for 64 static-label span events: {count}");
    assert!(count <= BUDGET, "{count} > {BUDGET}");
}

#[test]
fn buffer_pool_misses_refill_frames_in_place() {
    const PAGES: u64 = 256;
    const MISSES: u64 = 10_000;
    let disk = VDisk::new("alloc-budget");
    for page_no in 0..PAGES {
        let mut page = Page::new();
        page.insert(format!("page-{page_no}").as_bytes());
        disk.write_at("heap", page_no * PAGE_SIZE as u64, page.seal());
    }
    let mut pool = BufferPool::new("heap", 64);
    let ((), count, bytes) = allocated_in(|| {
        for i in 0..MISSES {
            pool.with_page(&disk, i % PAGES, Page::slot_count).unwrap();
        }
    });
    assert_eq!(
        pool.stats().misses,
        MISSES,
        "a 64-frame pool cycling 256 pages"
    );
    println!("{MISSES} buffer-pool misses: {count} allocations, {bytes} bytes");
    assert!(count <= 500, "{count} > 500 allocations");
    assert!(bytes < 64 * 1024, "{bytes} bytes allocated");
}

/// A `paged:replay-forward` database holding the pgbench tables with
/// 20 000 accounts, as `pg_read` serves them, plus a session on it.
fn pgbench_paged() -> (Database, Session) {
    let version = PgVersion::parse("10.7").unwrap();
    let engine = StorageEngine::parse("paged:replay-forward").unwrap();
    let disk = VDisk::new("alloc-budget-pg");
    let mut db = Database::with_engine(version, DbFlavor::Postgres, engine, &disk).unwrap();
    pgbench::load_scaled(&mut db, 20, 1000).unwrap();
    let session = db.session("app");
    (db, session)
}

/// Allocations of one `Database::execute` of `sql` after one warm-up call
/// of `warm_up` (which builds the index a point statement probes).
fn statement_allocations(sql: &str, warm_up: &str, expect_tag: &str) -> u64 {
    let (mut db, mut session) = pgbench_paged();
    db.execute(&mut session, warm_up).unwrap();
    let (result, count) = allocations_in(|| db.execute(&mut session, sql).unwrap());
    assert_eq!(result.tag, expect_tag);
    count
}

const POINT_SELECT: &str = "SELECT abalance FROM pgbench_accounts WHERE aid = 7001";

#[test]
fn pgbench_point_statements_allocate_within_budget() {
    let select = statement_allocations(
        POINT_SELECT,
        "SELECT abalance FROM pgbench_accounts WHERE aid = 3",
        "SELECT 1",
    );
    let update = statement_allocations(
        "UPDATE pgbench_accounts SET abalance = abalance + 17 WHERE aid = 7001",
        "UPDATE pgbench_accounts SET abalance = abalance + 5 WHERE aid = 3",
        "UPDATE 1",
    );
    let insert = statement_allocations(
        "INSERT INTO pgbench_history VALUES (12, 1, 7001, 17, 't')",
        "INSERT INTO pgbench_history VALUES (11, 1, 3, 5, 't')",
        "INSERT 0 1",
    );
    println!("pgbench statement allocations: select {select}, update {update}, insert {insert}");
    assert!(select <= 26, "SELECT: {select} > 26");
    assert!(update <= 81, "UPDATE: {update} > 81");
    assert!(insert <= 51, "INSERT: {insert} > 51");
}

/// Allocations of one `PgServer::handle` serving a startup message and
/// `queries` copies of `sql`, pre-filled into a duplex pipe whose client
/// end is closed, so the server runs on this thread until EOF.
fn pg_server_allocations(server: &PgServer, sql: &str, queries: usize) -> u64 {
    let (mut client, conn) = duplex_pair("client", "pg");
    client.write_all(&startup_message("app")).unwrap();
    for _ in 0..queries {
        client.write_all(&query_message(sql)).unwrap();
    }
    drop(client);
    let ctx = ServiceCtx {
        meter: ResourceMeter::new(),
        governor: CpuGovernor::new(1),
        net: Arc::new(SimNet::new()),
    };
    let conn: BoxStream = Box::new(conn);
    let ((), count) = allocations_in(|| server.handle(conn, &ctx));
    count
}

#[test]
fn pg_server_round_trip_allocates_within_budget() {
    const ZERO_COST: PgServerConfig = PgServerConfig {
        base_cost: Duration::ZERO,
        cost_per_row: Duration::ZERO,
    };
    let (mut db, mut session) = pgbench_paged();
    db.execute(&mut session, POINT_SELECT).unwrap();
    let server = PgServer::with_config(db, ZERO_COST);
    // The difference of two connections isolates the queries from the
    // handshake; over 16 queries the pipe's growth rounds away.
    const QUERIES: u64 = 16;
    let short = pg_server_allocations(&server, POINT_SELECT, QUERIES as usize);
    let long = pg_server_allocations(&server, POINT_SELECT, 2 * QUERIES as usize);
    let per_query = (long - short) / QUERIES;
    println!(
        "PgServer round trip: {per_query} allocations ({short} for {QUERIES} queries, {long} for {})",
        2 * QUERIES
    );
    assert!(per_query <= 30, "{per_query} > 30");
}
