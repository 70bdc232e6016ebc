//! The repo benchmark: one workload per process.
//!
//! ```text
//! rddr-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! rddr-benchmark --list
//! ```
//!
//! `--trace 0` measures the end-to-end metrics on an untraced deployment;
//! `--trace 1` produces the per-layer ledger (a short untraced run for the
//! counters and the open-loop validity numbers, a traced run for the spans,
//! and the single-thread probes). Every metric is printed by name with its
//! unit; the last line of standard output is the machine-readable result.

mod deploy;
mod driver;
mod host;
mod probes;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use deploy::{BarePg, Deployment};
use driver::{Driver, PhaseStats};
use stats::{clean_high, clean_low, median};
use trace::{exchanges, self_time, Exchange, Role, Span, Tracer};
use workload::{Kind, Spec, INSTANCES, SESSIONS};

/// Exchanges whose spans are written to the trace file.
const TRACE_FILE_EXCHANGES: usize = 2_000;

/// `(name, unit)` of every end-to-end metric, in print order.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_ops_s", "ops/s"),
    ("cpu_ms_per_kop", "ms"),
    ("open_p50_us", "us"),
    ("peak_rss_mib", "MiB"),
];

/// `(name, unit)` of every per-layer metric, in print order.
const PER_LAYER: &[(&str, &str)] = &[
    ("proxy.in_fanout_us_p50", "us"),
    ("proxy.in_merge_us_p50", "us"),
    ("proxy.in_straggler_gap_us_p50", "us"),
    ("proxy.out_merge_us_p50", "us"),
    ("proxy.out_respond_us_p50", "us"),
    ("instance.serve_us_p50", "us"),
    ("backend.serve_us_p50", "us"),
    ("proxy.self_share", "ratio"),
    ("proxy.exchanges", "count"),
    ("proxy.sessions", "count"),
    ("proxy.severed", "count"),
    ("proxy.merge_us_p50", "us"),
    ("proxy.reactor_workers", "count"),
    ("proxy.peak_threads", "count"),
    ("core.fastpath_hit_ratio", "ratio"),
    ("core.eval_us_p50", "us"),
    ("core.fastpath_eval_ns", "ns"),
    ("core.replicate_ns", "ns"),
    ("core.full_eval_ns_per_kib", "ns/KiB"),
    ("core.denoise_mask_ns_per_kib", "ns/KiB"),
    ("core.diff_ns_per_kib", "ns/KiB"),
    ("protocols.line_split_ns_per_frame", "ns"),
    ("protocols.http_split_ns_per_frame", "ns"),
    ("protocols.pg_split_ns_per_frame", "ns"),
    ("protocols.http_tokenize_ns_per_kib", "ns/KiB"),
    ("protocols.json_tokenize_ns_per_kib", "ns/KiB"),
    ("protocols.pg_tokenize_ns_per_kib", "ns/KiB"),
    ("net.pipe_rtt_ns", "ns"),
    ("net.pipe_hop_cpu_ns", "ns"),
    ("net.poller_wake_ns", "ns"),
    ("net.pipe_mib_s", "MiB/s"),
    ("net.poller_coalesce_ratio", "ratio"),
    ("net.tcp_rtt_ns", "ns"),
    ("net.tcp_hop_cpu_ns", "ns"),
    ("net.tcp_mib_s", "MiB/s"),
    ("net.bytes_per_op", "B"),
    ("pgsim.select_ns", "ns"),
    ("pgsim.update_ns", "ns"),
    ("pgsim.insert_ns", "ns"),
    ("pgstore.btree_get_ns", "ns"),
    ("pgstore.page_fetch_hit_ns", "ns"),
    ("pgstore.page_fetch_miss_ns", "ns"),
    ("pgstore.pool_hit_ratio", "ratio"),
    ("pgstore.pool_evictions", "count"),
    ("pgstore.wal_append_ns", "ns"),
    ("pgstore.wal_sync_ns", "ns"),
    ("pgstore.btree_insert_ns", "ns"),
    ("pgstore.wal_bytes_per_op", "B"),
    ("pgstore.fsyncs_per_op", "count"),
    ("pgstore.writebacks_per_op", "count"),
    ("pgstore.recovery_ms_per_mib", "ms/MiB"),
    ("telemetry.histogram_record_ns", "ns"),
    ("telemetry.counter_inc_ns", "ns"),
    ("baseline.bare_ops_s", "ops/s"),
    ("baseline.overhead_x", "ratio"),
    ("budget.residual_ratio", "ratio"),
    ("driver.open_p90_us", "us"),
    ("driver.open_p99_us", "us"),
    ("driver.open_late_ratio", "ratio"),
    ("driver.open_backlog_end", "count"),
    ("driver.samples", "count"),
    ("driver.trace_overhead_ratio", "ratio"),
];

type Metrics = BTreeMap<&'static str, f64>;

/// A driver and the deployment it loads; the driver (and its connections)
/// drops first so the deployment's service threads can be joined.
struct Rig {
    driver: Driver,
    deployment: Deployment,
}

fn set_up(spec: &Spec, seed: u64, tracer: Option<&Arc<Tracer>>) -> (Rig, f64) {
    let start = Instant::now();
    let deployment = Deployment::start(spec.kind, tracer);
    let mut driver = Driver::connect(
        Arc::clone(&deployment.net),
        deployment.proxy.listen_addr().clone(),
        spec.kind,
        SESSIONS,
        spec.depth,
        seed,
        deployment.pg.as_ref().map(|f| Arc::clone(&f.reference)),
    );
    driver.warm_up(spec.warmup);
    (Rig { driver, deployment }, start.elapsed().as_secs_f64())
}

/// The correctness tally of a process, over every rig it ran.
#[derive(Default)]
struct Verdict {
    attempted: u64,
    failed: u64,
    /// Divergent requests sent, each of which the proxy must have severed.
    severs: u64,
    /// A cross-check beyond the per-reply oracle failed.
    inconsistent: bool,
}

impl Verdict {
    fn correct(&self) -> bool {
        self.failed == 0 && !self.inconsistent
    }

    fn count(&mut self, driver: &Driver) {
        self.attempted += driver.attempted;
        self.failed += driver.failed;
        self.severs += driver.severs;
    }

    /// Counts a finished rig and cross-checks it against the deployment's
    /// own state: the proxy severed exactly the divergent requests, and
    /// (`pg_*`) the three instances converged on the state a reference
    /// reaches from the same statements.
    fn check(&mut self, rig: &Rig) {
        self.count(&rig.driver);
        let severed = rig.deployment.proxy.stats().severed;
        if severed != rig.driver.severs {
            eprintln!(
                "sever mismatch: proxy severed {severed}, driver expected {}",
                rig.driver.severs
            );
            self.inconsistent = true;
        }
        let Some(fleet) = &rig.deployment.pg else {
            return;
        };
        let mut guard = fleet.reference.lock();
        let workload::PgReference {
            db,
            session,
            issued,
        } = &mut *guard;
        for sql in issued.drain(..) {
            db.execute(session, &sql)
                .expect("reference applies statement");
        }
        let want = db.state_digest();
        for (i, server) in fleet.servers.iter().enumerate() {
            let got = server.database().lock().state_digest();
            if got != want {
                eprintln!("instance {i} state digest {got:#x} != reference {want:#x}");
                self.inconsistent = true;
            }
        }
    }
}

fn untraced_run(spec: &Spec, seed: u64, seconds: f64) -> (Metrics, Verdict) {
    let half = Duration::from_secs_f64(seconds / 2.0);
    let mut setups = Vec::new();
    let mut verdict = Verdict::default();

    // Three set-ups, each a fresh deployment after the same fixed warm-up:
    // the first only for its time and memory, the second takes the open
    // loop, the third the closed loop. Neither timed window then inherits
    // state (history rows, WAL, allocator) from however many ops the other
    // one completed.
    let (rig, took) = set_up(spec, seed, None);
    setups.push(took);
    // Taken here, after a fixed amount of work, not at exit: memory the
    // timed windows retain (the WAL is never truncated) grows with the ops
    // a faster build completes, and is reported per op instead.
    let peak_rss_mib = host::peak_rss_mib();
    verdict.check(&rig);
    drop(rig);

    let (mut rig, took) = set_up(spec, seed, None);
    setups.push(took);
    let mut open = rig.driver.open_loop(half, spec.open_rate);
    verdict.check(&rig);
    drop(rig);

    let (mut rig, took) = set_up(spec, seed, None);
    setups.push(took);
    let closed = rig.driver.closed_loop(half);
    println!("# reactor_workers: {}", rig.deployment.proxy.workers());
    verdict.check(&rig);
    drop(rig);

    let (p50, _) = open.latencies.quantile_us(0.50);
    let (p90, _) = open.latencies.quantile_us(0.90);
    let (p99, used) = open.latencies.quantile_us(0.99);
    println!(
        "# open loop: {} ops/s offered, {} samples in the smallest slice, tail quantile used \
         {used:.4}, {} of {} released late, backlog at end {}",
        spec.open_rate,
        open.latencies.min_slice_samples(),
        open.late,
        open.released,
        open.backlog_end
    );
    println!("# open-loop p90 {p90:.1} us, p99 {p99:.1} us (reported, not gated)");
    println!(
        "# closed-loop ops/s per slice: {:?}",
        closed.throughput_per_slice()
    );
    println!(
        "# failed_ratio: {} ({} of {})",
        verdict.failed as f64 / verdict.attempted.max(1) as f64,
        verdict.failed,
        verdict.attempted
    );
    println!("# severed (all expected): {}", verdict.severs);

    let mut m = Metrics::new();
    m.insert("setup_s", median(&setups));
    m.insert(
        "throughput_ops_s",
        clean_high(&closed.throughput_per_slice()),
    );
    m.insert(
        "cpu_ms_per_kop",
        clean_low(&closed.cpu_ms_per_kop_per_slice()),
    );
    m.insert("open_p50_us", p50);
    m.insert("peak_rss_mib", peak_rss_mib);
    (m, verdict)
}

/// Median of `ns` values, in microseconds.
fn p50_us(ns: &[f64]) -> f64 {
    median(ns) / 1000.0
}

/// The traced-span metrics (source **T**).
fn span_metrics(exchanges: &[Exchange<'_>], m: &mut Metrics) {
    let mut fanout = Vec::new();
    let mut merge = Vec::new();
    let mut gap = Vec::new();
    let mut serve = Vec::new();
    let mut out_merge = Vec::new();
    let mut out_respond = Vec::new();
    let mut backend = Vec::new();
    let mut self_share = Vec::new();
    for ex in exchanges {
        let Some(root) = ex.of(Role::ClientExchange).next() else {
            continue;
        };
        let serves: Vec<&Span> = ex.of(Role::InstanceServe).collect();
        if serves.len() != INSTANCES || root.duration() == 0 {
            continue;
        }
        let last_seen = serves.iter().map(|s| s.start_ns).max().unwrap_or(0);
        let first_reply = serves.iter().map(|s| s.end_ns).min().unwrap_or(0);
        let last_reply = serves.iter().map(|s| s.end_ns).max().unwrap_or(0);
        fanout.push(last_seen.saturating_sub(root.start_ns) as f64);
        merge.push(root.end_ns.saturating_sub(last_reply) as f64);
        gap.push((last_reply - first_reply) as f64);
        for s in &serves {
            serve.push(self_time(s, &ex.children(s)) as f64);
        }
        self_share.push(self_time(root, &serves) as f64 / root.duration() as f64);

        let calls: Vec<&Span> = ex.of(Role::InstanceCall).collect();
        if let (Some(b), true) = (ex.of(Role::BackendServe).next(), calls.len() == INSTANCES) {
            let last_call = calls.iter().map(|s| s.start_ns).max().unwrap_or(0);
            let last_answer = calls.iter().map(|s| s.end_ns).max().unwrap_or(0);
            out_merge.push(b.start_ns.saturating_sub(last_call) as f64);
            out_respond.push(last_answer.saturating_sub(b.end_ns) as f64);
            backend.push(b.duration() as f64);
        }
    }
    m.insert("proxy.in_fanout_us_p50", p50_us(&fanout));
    m.insert("proxy.in_merge_us_p50", p50_us(&merge));
    m.insert("proxy.in_straggler_gap_us_p50", p50_us(&gap));
    m.insert("instance.serve_us_p50", p50_us(&serve));
    m.insert("proxy.out_merge_us_p50", p50_us(&out_merge));
    m.insert("proxy.out_respond_us_p50", p50_us(&out_respond));
    m.insert("backend.serve_us_p50", p50_us(&backend));
    m.insert("proxy.self_share", median(&self_share));
}

/// The program's own counters after the untraced phases (source **C**).
fn counter_metrics(rig: &Rig, phases: &[&PhaseStats], m: &mut Metrics) {
    let stats = rig.deployment.proxy.stats();
    let registry = &rig.deployment.telemetry.registry;
    let hits = registry.counter("bench_in_fastpath_hits_total").get() as f64;
    let misses = registry.counter("bench_in_fastpath_misses_total").get() as f64;
    m.insert("proxy.exchanges", stats.exchanges as f64);
    m.insert("proxy.sessions", stats.sessions as f64);
    m.insert("proxy.severed", stats.severed as f64);
    m.insert(
        "proxy.merge_us_p50",
        registry
            .histogram("bench_in_merge_latency_us")
            .quantile(0.5) as f64,
    );
    m.insert(
        "core.eval_us_p50",
        registry
            .histogram("bench_in_exchange_eval_latency_us")
            .quantile(0.5) as f64,
    );
    m.insert("core.fastpath_hit_ratio", hits / (hits + misses).max(1.0));
    m.insert(
        "proxy.reactor_workers",
        rig.deployment.proxy.workers() as f64,
    );
    m.insert(
        "proxy.peak_threads",
        phases.iter().map(|p| p.peak_threads).max().unwrap_or(0) as f64,
    );
    // Instance 0's disk over the whole life of the deployment, load
    // excluded (the WAL was copied in and replayed, not written).
    let (mut wal_bytes, mut fsyncs) = (0.0, 0.0);
    if let Some(fleet) = &rig.deployment.pg {
        let disk = &fleet.disks[0];
        wal_bytes = (disk.len("wal") - fleet.loaded_wal_bytes) as f64;
        fsyncs = (disk.stats().fsyncs - fleet.loaded_fsyncs) as f64;
    }
    let ops = rig.driver.attempted.max(1) as f64;
    m.insert("pgstore.wal_bytes_per_op", wal_bytes / ops);
    m.insert("pgstore.fsyncs_per_op", fsyncs / ops);
}

/// Σ probe cost × per-op count for `spec`, in ns of CPU per op: what the
/// layers' unit costs predict one op should cost. The counts are a model of
/// the current data path (README "Budget model"), not a measurement.
fn predicted_ns_per_op(spec: &Spec, p: &Metrics) -> f64 {
    // client→proxy, proxy→3 instances and back: 8 link traversals per
    // batch, each a write, a wake and a read.
    let hops = |cpu: &str, per_op: f64| per_op * p[cpu] / spec.depth as f64;
    // Per exchange the incoming proxy records four histograms and bumps
    // three counters.
    let incoming = p["core.replicate_ns"]
        + 4.0 * p["telemetry.histogram_record_ns"]
        + 3.0 * p["telemetry.counter_inc_ns"];
    // `fastpath_eval` covers splitting and comparing the three responses.
    let line = p["protocols.line_split_ns_per_frame"] + p["core.fastpath_eval_ns"] + incoming;
    match spec.kind {
        Kind::LineFast => line + hops("net.pipe_hop_cpu_ns", 8.0),
        Kind::LineTcp => line + hops("net.tcp_hop_cpu_ns", 8.0),
        // The outgoing proxy merges three requests like the incoming one
        // merges three responses, over eight more hops.
        Kind::ChainBackend => {
            line + hops("net.pipe_hop_cpu_ns", 16.0)
                + p["protocols.line_split_ns_per_frame"]
                + p["core.fastpath_eval_ns"]
                + 2.0 * p["telemetry.histogram_record_ns"]
                + 2.0 * p["telemetry.counter_inc_ns"]
        }
        Kind::HttpNoisy => {
            let kib = 2.3;
            p["protocols.http_split_ns_per_frame"]
                + p["core.full_eval_ns_per_kib"] * kib
                + incoming
                + hops("net.pipe_hop_cpu_ns", 8.0)
                + 8.0 * kib / 1024.0 / p["net.pipe_mib_s"] * 1e9
        }
        Kind::PgRead | Kind::PgWrite => {
            let hit = p["pgstore.pool_hit_ratio"];
            let statement = if spec.kind == Kind::PgRead {
                p["pgsim.select_ns"]
                    + p["pgstore.btree_get_ns"]
                    + hit * p["pgstore.page_fetch_hit_ns"]
                    + (1.0 - hit) * p["pgstore.page_fetch_miss_ns"]
            } else {
                (2.0 * p["pgsim.update_ns"] + p["pgsim.insert_ns"]) / 3.0
                    + p["pgstore.wal_append_ns"]
                    + p["pgstore.wal_sync_ns"]
            };
            // One request frame at the proxy, four response frames from
            // each instance in the engine.
            13.0 * p["protocols.pg_split_ns_per_frame"]
                + p["core.fastpath_eval_ns"]
                + incoming
                + hops("net.pipe_hop_cpu_ns", 8.0)
                + INSTANCES as f64 * statement
        }
    }
}

fn traced_run(spec: &Spec, seed: u64, seconds: f64) -> (Metrics, Verdict) {
    let quarter = Duration::from_secs_f64(seconds / 4.0);
    let mut m = Metrics::new();

    // Untraced: the counters, the open-loop validity numbers, and the
    // throughput the traced run is compared against.
    let (mut rig, _) = set_up(spec, seed, None);
    let closed = rig.driver.closed_loop(quarter);
    let mut open = rig.driver.open_loop(quarter, spec.open_rate);
    let mut verdict = Verdict::default();
    verdict.check(&rig);
    counter_metrics(&rig, &[&closed, &open], &mut m);
    let untraced_ops_s = clean_high(&closed.throughput_per_slice());
    let cpu_ns_per_op = clean_low(&closed.cpu_ms_per_kop_per_slice()) * 1000.0;
    m.insert(
        "driver.open_late_ratio",
        open.late as f64 / open.released.max(1) as f64,
    );
    m.insert("driver.open_backlog_end", open.backlog_end as f64);
    m.insert("driver.samples", open.latencies.min_slice_samples() as f64);
    m.insert("driver.open_p90_us", open.latencies.quantile_us(0.90).0);
    m.insert("driver.open_p99_us", open.latencies.quantile_us(0.99).0);
    drop(rig);

    // Traced: same workload, every link through the wrapper.
    let tracer = Tracer::new(spec.kind.protocol());
    let (mut rig, _) = set_up(spec, seed, Some(&tracer));
    let traced = rig.driver.closed_loop(quarter * 2);
    verdict.check(&rig);
    if traced.peak_threads as f64 != m["proxy.peak_threads"] {
        eprintln!(
            "note: traced run peaked at {} threads, untraced at {}",
            traced.peak_threads, m["proxy.peak_threads"]
        );
    }
    m.insert(
        "driver.trace_overhead_ratio",
        clean_high(&traced.throughput_per_slice()) / untraced_ops_s.max(1.0),
    );
    m.insert(
        "net.bytes_per_op",
        tracer.link_bytes() as f64 / rig.driver.attempted.max(1) as f64,
    );
    let roles = rig.deployment.roles.clone();
    drop(rig);
    let spans = tracer.spans(&roles);
    let exchanges = exchanges(&spans);
    span_metrics(&exchanges, &mut m);
    let out_dir = std::path::PathBuf::from(
        std::env::var("RDDR_BENCH_OUT").unwrap_or_else(|_| "benchmark/out".into()),
    );
    let trace_file = out_dir.join(format!("trace-{}.json", spec.name));
    match std::fs::create_dir_all(&out_dir).and_then(|()| {
        let sample = &exchanges[..exchanges.len().min(TRACE_FILE_EXCHANGES)];
        trace::write_json(&trace_file, sample)
    }) {
        Ok(()) => println!(
            "# trace: {} spans, sample in {}",
            spans.len(),
            trace_file.display()
        ),
        Err(e) => eprintln!("trace file not written: {e}"),
    }

    // The Fig 5 yardstick: the same clients against one bare PgServer.
    let (mut bare_ops_s, mut overhead) = (0.0, 0.0);
    if spec.kind == Kind::PgRead {
        let bare = BarePg::start(spec.kind);
        let mut driver = Driver::connect(
            Arc::clone(&bare.net),
            bare.addr.clone(),
            spec.kind,
            SESSIONS,
            spec.depth,
            seed,
            Some(Arc::clone(&bare.reference)),
        );
        driver.warm_up(spec.warmup);
        let control = driver.closed_loop(quarter);
        verdict.count(&driver);
        drop(driver);
        bare_ops_s = clean_high(&control.throughput_per_slice());
        overhead = bare_ops_s / untraced_ops_s.max(1.0);
    }
    m.insert("baseline.bare_ops_s", bare_ops_s);
    m.insert("baseline.overhead_x", overhead);

    let probes = probes::run(seed);
    let predicted = predicted_ns_per_op(spec, &probes);
    m.insert(
        "budget.residual_ratio",
        1.0 - predicted / cpu_ns_per_op.max(1.0),
    );
    m.extend(probes);
    (m, verdict)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn result_json(table: &[(&str, &str)], m: &Metrics, verdict: &Verdict) -> String {
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(m.get(name).copied().unwrap_or(0.0))
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        verdict.correct(),
        verdict.attempted.max(1),
        verdict.failed,
        metrics.join(", ")
    )
}

fn usage() -> ! {
    eprintln!(
        "usage: rddr-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       \
         rddr-benchmark --list"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        for spec in &workload::SPECS {
            println!("{}", spec.name);
        }
        return;
    }
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let Some(spec) = value("--workload").as_deref().and_then(workload::spec) else {
        usage();
    };
    let seed: u64 = value("--seed").and_then(|s| s.parse().ok()).unwrap_or(1);
    let seconds: f64 = value("--seconds")
        .and_then(|s| s.parse().ok())
        .unwrap_or(10.0);
    let traced = match value("--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(_) => usage(),
    };
    if !(seconds.is_finite() && seconds >= 1.0) {
        usage();
    }

    // Host facts first: pinning shrinks what `nproc` reports.
    let facts = host::facts();
    let pinned = host::pin_to_one_cpu();
    println!(
        "# workload: {}  seed: {seed}  seconds: {seconds}  trace: {}",
        spec.name, traced as u8
    );
    for (key, fact) in facts {
        println!("# {key}: {fact}");
    }
    match pinned {
        Some(cpu) => println!("# pinned_cpu: {cpu}"),
        None => println!("# pinned_cpu: none (the kernel refused; expect noisier numbers)"),
    }
    let (table, (metrics, verdict)) = if traced {
        (PER_LAYER, traced_run(spec, seed, seconds))
    } else {
        (END_TO_END, untraced_run(spec, seed, seconds))
    };
    for (name, unit) in table {
        println!(
            "{name:<40} {:>16.4} {unit}",
            metrics.get(name).copied().unwrap_or(0.0)
        );
    }
    println!("{}", result_json(table, &metrics, &verdict));
    if !verdict.correct() {
        std::process::exit(1);
    }
}
