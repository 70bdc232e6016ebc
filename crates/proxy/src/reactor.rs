//! The shared session reactor: a fixed pool of worker threads, each owning
//! many proxy sessions as explicit state machines.
//!
//! Before this module existed every session cost one thread per direction
//! plus a reader thread per instance connection — O(sessions × N) threads,
//! which re-created the paper's own concurrency ceiling ("pgbench tapers off
//! above 16 simultaneous clients") as scheduler pressure. Now each proxy owns
//! a [`ReactorPool`] of O(cores) workers; the accept loop stays a thread (it
//! must block in `accept`), but everything after the handshake is a
//! [`SessionTask`] driven by readiness events from one
//! [`Poller`](rddr_net::Poller) per worker.
//!
//! The contract between a worker and its sessions:
//!
//! - Every *woken* stream is drained with `try_read` until `WouldBlock` on
//!   every step: wakes may be edge-triggered (duplex pipes) or
//!   level-triggered (TCP fds), and drain-to-`WouldBlock` makes both behave,
//!   while the per-step slot set ([`Ctx::woken`]) spares the session
//!   `try_read`-ing streams that never fired. Early data is pushed into the
//!   engine, which buffers it — exactly what the per-instance reader
//!   threads' channel used to do.
//! - EOF and read errors are *observed* during the drain (and the slot's
//!   token deregistered so a permanently-readable closed fd cannot spin),
//!   but *processed* at the same point in the exchange state machine where
//!   the thread model consumed its `Closed` event — preserving clean-close
//!   vs fault semantics.
//! - Deadlines are poller timers on a dedicated per-session timer slot; a
//!   timer fire re-runs the same checks the blocking `recv_timeout` loop ran
//!   on timeout.
//! - A step never blocks: writes are the only remaining synchronous I/O
//!   (in-memory writes never block; non-blocking TCP writes ride out
//!   `WouldBlock` in a bounded one-shot poll).

use std::ops::RangeInclusive;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, Sender};
use rddr_net::{BoxStream, Poller, Stream, Token};
use rddr_telemetry::{Gauge, Histogram, Registry};

/// Bits of a token reserved for the per-session slot index.
pub(crate) const SLOT_BITS: u32 = 8;
const SLOT_MASK: u64 = 0xff;
/// Slot of the session's primary stream (client for incoming, backend for
/// outgoing). Instance/member streams use slots `0..=SLOT_PRIMARY-1`.
pub(crate) const SLOT_PRIMARY: u64 = 254;
/// Slot reserved for the session's deadline timer.
pub(crate) const SLOT_TIMER: u64 = 255;
/// Token reserved for "new sessions are waiting in the inject queue".
const INJECT_TOKEN: u64 = u64::MAX;

/// Read scratch size: one socket read's worth of bytes, owned per worker
/// (not per session — 10k sessions must not pin 10k read buffers).
const SCRATCH_SIZE: usize = 16 * 1024;

/// What a session step tells the worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Flow {
    /// The session is parked waiting for wakes; keep it.
    Continue,
    /// The session is finished; tear it down and drop it.
    Done,
}

/// One proxy session, owned by a reactor worker and advanced by wakes.
pub(crate) trait SessionTask: Send {
    /// Runs once when a worker adopts the session: dial/register streams,
    /// arm initial timers. Registration must use [`Ctx::register`] so wakes
    /// route back to this session.
    fn init(&mut self, ctx: &mut Ctx<'_>) -> Flow;

    /// Runs on every wake (stream readiness or timer fire). Must drain the
    /// streams named by [`Ctx::woken`] to `WouldBlock` before parking again.
    fn step(&mut self, ctx: &mut Ctx<'_>) -> Flow;

    /// Tears the session down (shut connections, return gauges). Runs
    /// exactly once, after `init`/`step` returns [`Flow::Done`] or when the
    /// pool shuts down with the session still live.
    fn teardown(&mut self);

    /// Small-integer encoding of the session's current state, recorded into
    /// the reactor's session-state histogram after every step.
    fn state_ordinal(&self) -> u64;
}

/// Every token of session `id`, one per slot: a contiguous range.
fn session_tokens(id: u64) -> RangeInclusive<Token> {
    Token(id << SLOT_BITS)..=Token((id << SLOT_BITS) | SLOT_MASK)
}

/// Worker-side services a session uses during `init`/`step`.
pub(crate) struct Ctx<'a> {
    poller: &'a Poller,
    session: u64,
    /// Shared read scratch, valid for the duration of one step.
    pub(crate) scratch: &'a mut [u8],
    /// Slots whose tokens fired for this step, ascending and deduplicated.
    /// Sessions drain exactly these streams (every empty→non-empty arrival
    /// and every EOF produces a slot wake, and registration re-wakes for
    /// bytes that landed first, so targeted draining observes everything the
    /// old drain-all did without paying O(streams) `try_read` calls per
    /// wake). Empty during `init`.
    pub(crate) woken: &'a [u64],
}

impl Ctx<'_> {
    fn token(&self, slot: u64) -> Token {
        Token((self.session << SLOT_BITS) | (slot & SLOT_MASK))
    }

    /// Registers `stream` so readiness on it wakes this session. Returns
    /// `false` if the transport cannot deliver readiness natively (caller
    /// treats the stream as dead).
    pub(crate) fn register(&self, stream: &mut BoxStream, slot: u64) -> bool {
        stream.poll_register(self.poller.readiness(self.token(slot)))
    }

    /// Stops all wakes for `slot` (queued, timers, watched fds). Must run
    /// before the slot's stream is dropped if it registered an fd.
    pub(crate) fn deregister(&self, slot: u64) {
        self.poller.deregister(self.token(slot));
    }

    /// Arms (replacing) the session's deadline timer.
    pub(crate) fn set_timer(&self, after: Duration) {
        self.poller.set_timer(self.token(SLOT_TIMER), after);
    }

    /// Cancels the session's deadline timer.
    pub(crate) fn clear_timer(&self) {
        self.poller.clear_timer(self.token(SLOT_TIMER));
    }
}

/// Reactor observability, exported through the shared proxy registry:
/// worker count, live sessions (total and per worker), ready-queue depth,
/// and a histogram of session states after each step. The pool runs one
/// worker per `worker_sessions` gauge.
pub(crate) struct ReactorTelemetry {
    workers: Arc<Gauge>,
    sessions: Arc<Gauge>,
    worker_sessions: Vec<Arc<Gauge>>,
    ready_depth: Arc<Gauge>,
    session_state: Arc<Histogram>,
}

impl ReactorTelemetry {
    /// Registers the series of a `workers`-thread pool under
    /// `{stem}_reactor_*`.
    pub(crate) fn new(registry: &Registry, stem: &str, workers: usize) -> Self {
        let workers = workers.max(1);
        let t = ReactorTelemetry {
            workers: registry.gauge(&format!("{stem}_reactor_workers")),
            sessions: registry.gauge(&format!("{stem}_reactor_sessions")),
            worker_sessions: (0..workers)
                .map(|i| registry.gauge(&format!("{stem}_reactor_worker{i}_sessions")))
                .collect(),
            ready_depth: registry.gauge(&format!("{stem}_reactor_ready_depth")),
            session_state: registry.histogram(&format!("{stem}_reactor_session_state")),
        };
        t.workers.set(workers as i64);
        t
    }
}

struct WorkerHandle {
    inject: Sender<Box<dyn SessionTask>>,
    wake: rddr_net::Readiness,
    thread: Option<std::thread::JoinHandle<()>>,
}

/// A fixed pool of reactor workers; one per proxy.
///
/// Sessions are submitted round-robin and stay pinned to their worker for
/// life (session state is not `Sync` and never migrates). Dropping the pool
/// stops the workers and tears down any sessions still live.
pub(crate) struct ReactorPool {
    workers: Vec<WorkerHandle>,
    next: AtomicUsize,
    stop: Arc<AtomicBool>,
}

/// The pool size for one proxy: `RDDR_REACTOR_WORKERS` if set, else the
/// machine's available parallelism, floored at 2 (so a single-core box still
/// overlaps in-flight sessions with accept work) and capped at 32.
pub(crate) fn default_workers() -> usize {
    if let Ok(v) = std::env::var("RDDR_REACTOR_WORKERS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n.min(256);
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2)
        .clamp(2, 32)
}

impl ReactorPool {
    /// Spawns one reactor thread per worker `telemetry` was registered for,
    /// named `rddr-rx-{label}-{i}`.
    pub(crate) fn new(label: &str, telemetry: ReactorTelemetry) -> std::io::Result<Self> {
        let stop = Arc::new(AtomicBool::new(false));
        let telemetry = Arc::new(telemetry);
        let mut handles = Vec::with_capacity(telemetry.worker_sessions.len());
        for (i, own) in telemetry.worker_sessions.iter().enumerate() {
            let poller = Poller::new();
            let wake = poller.readiness(Token(INJECT_TOKEN));
            let (inject_tx, inject_rx) = unbounded();
            let stop = Arc::clone(&stop);
            let (telemetry, own) = (Arc::clone(&telemetry), Arc::clone(own));
            let thread = std::thread::Builder::new()
                .name(format!("rddr-rx-{label}-{i}"))
                .spawn(move || worker_loop(poller, inject_rx, stop, telemetry, own))?;
            handles.push(WorkerHandle {
                inject: inject_tx,
                wake,
                thread: Some(thread),
            });
        }
        Ok(Self {
            workers: handles,
            next: AtomicUsize::new(0),
            stop,
        })
    }

    /// Number of worker threads in the pool.
    pub(crate) fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Hands a session to the next worker (round-robin). Returns `false` if
    /// the pool is already stopping.
    pub(crate) fn submit(&self, task: Box<dyn SessionTask>) -> bool {
        if self.stop.load(Ordering::Relaxed) || self.workers.is_empty() {
            return false;
        }
        let i = self.next.fetch_add(1, Ordering::Relaxed) % self.workers.len();
        let Some(w) = self.workers.get(i) else {
            return false;
        };
        if w.inject.send(task).is_err() {
            return false;
        }
        w.wake.wake();
        true
    }
}

impl Drop for ReactorPool {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for w in &self.workers {
            w.wake.wake();
        }
        for w in &mut self.workers {
            if let Some(t) = w.thread.take() {
                // A worker that panicked already poisoned nothing (all state
                // was thread-local); joining is cleanup only.
                // rddr-analyze: allow(error-swallow)
                let _ = t.join();
            }
        }
    }
}

/// One reactor worker: polls for readiness, adopts injected sessions, and
/// advances woken sessions until the pool stops. `own` counts the sessions
/// it holds.
///
/// This is a blocking-hot-path sink for `rddr-analyze`: nothing reachable
/// from here may call `sleep`/`read_to_end`-style blocking primitives,
/// because one blocked worker stalls every session it owns.
pub(crate) fn worker_loop(
    poller: Poller,
    inject: Receiver<Box<dyn SessionTask>>,
    stop: Arc<AtomicBool>,
    telemetry: Arc<ReactorTelemetry>,
    own: Arc<Gauge>,
) {
    use std::collections::BTreeMap;
    let mut sessions: BTreeMap<u64, Box<dyn SessionTask>> = BTreeMap::new();
    let mut next_id: u64 = 1;
    let mut events: Vec<Token> = Vec::new();
    let mut slots: Vec<u64> = Vec::new();
    let mut scratch = vec![0u8; SCRATCH_SIZE];
    'run: loop {
        poller.poll(&mut events, None);
        telemetry.ready_depth.set(events.len() as i64);
        // `poll` delivers tokens ascending and deduplicated, so one
        // session's slots form a consecutive run (and INJECT_TOKEN sorts
        // last) — wakes collapse into one step per woken session without
        // building per-poll maps. Injections are handled first so a
        // brand-new session's immediate readiness (data already buffered at
        // registration) is stepped this round.
        let injected = events.last().is_some_and(|t| t.0 == INJECT_TOKEN);
        if injected {
            events.pop();
        }
        if stop.load(Ordering::Relaxed) {
            break 'run;
        }
        if injected {
            while let Ok(mut task) = inject.try_recv() {
                let id = next_id;
                next_id += 1;
                let mut ctx = Ctx {
                    poller: &poller,
                    session: id,
                    scratch: &mut scratch,
                    woken: &[],
                };
                match task.init(&mut ctx) {
                    Flow::Continue => {
                        sessions.insert(id, task);
                        telemetry.sessions.add(1);
                        own.add(1);
                    }
                    Flow::Done => {
                        poller.deregister_range(session_tokens(id));
                        task.teardown();
                    }
                }
            }
        }
        let mut next = 0;
        while let Some(first) = events.get(next) {
            let id = first.0 >> SLOT_BITS;
            slots.clear();
            while let Some(t) = events.get(next) {
                if t.0 >> SLOT_BITS != id {
                    break;
                }
                slots.push(t.0 & SLOT_MASK);
                next += 1;
            }
            let Some(task) = sessions.get_mut(&id) else {
                // A wake for a session already torn down (e.g. a watcher
                // surviving in a peer's stream handle); ignore.
                continue;
            };
            let mut ctx = Ctx {
                poller: &poller,
                session: id,
                scratch: &mut scratch,
                woken: &slots,
            };
            let flow = task.step(&mut ctx);
            telemetry.session_state.record(task.state_ordinal());
            if flow == Flow::Done {
                poller.deregister_range(session_tokens(id));
                if let Some(mut task) = sessions.remove(&id) {
                    task.teardown();
                }
                telemetry.sessions.add(-1);
                own.add(-1);
            }
        }
    }
    // Pool teardown: sever whatever is still live.
    for (id, mut task) in std::mem::take(&mut sessions) {
        poller.deregister_range(session_tokens(id));
        task.teardown();
        telemetry.sessions.add(-1);
        own.add(-1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct CountdownTask {
        remaining: u32,
        done: Arc<AtomicBool>,
        state: u64,
    }

    impl SessionTask for CountdownTask {
        fn init(&mut self, ctx: &mut Ctx<'_>) -> Flow {
            ctx.set_timer(Duration::from_millis(1));
            Flow::Continue
        }
        fn step(&mut self, ctx: &mut Ctx<'_>) -> Flow {
            self.state += 1;
            if self.remaining == 0 {
                return Flow::Done;
            }
            self.remaining -= 1;
            ctx.set_timer(Duration::from_millis(1));
            Flow::Continue
        }
        fn teardown(&mut self) {
            self.done.store(true, Ordering::SeqCst);
        }
        fn state_ordinal(&self) -> u64 {
            self.state
        }
    }

    #[test]
    fn pool_runs_sessions_to_completion() {
        let registry = Registry::new();
        let pool = ReactorPool::new("test", ReactorTelemetry::new(&registry, "t", 2)).unwrap();
        let flags: Vec<Arc<AtomicBool>> =
            (0..8).map(|_| Arc::new(AtomicBool::new(false))).collect();
        for f in &flags {
            assert!(pool.submit(Box::new(CountdownTask {
                remaining: 3,
                done: Arc::clone(f),
                state: 0,
            })));
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while std::time::Instant::now() < deadline
            && !flags.iter().all(|f| f.load(Ordering::SeqCst))
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(flags.iter().all(|f| f.load(Ordering::SeqCst)));
        let metrics = registry.render_prometheus();
        assert!(metrics.contains("t_reactor_workers 2"), "{metrics}");
        drop(pool);
    }

    #[test]
    fn pool_tears_down_live_sessions_on_drop() {
        let done = Arc::new(AtomicBool::new(false));
        let registry = Registry::new();
        let pool = ReactorPool::new("drop", ReactorTelemetry::new(&registry, "t", 1)).unwrap();
        assert!(pool.submit(Box::new(CountdownTask {
            remaining: u32::MAX,
            done: Arc::clone(&done),
            state: 0,
        })));
        std::thread::sleep(Duration::from_millis(30));
        drop(pool);
        assert!(done.load(Ordering::SeqCst), "teardown must run on drop");
    }

    #[test]
    fn default_workers_is_at_least_two() {
        // Even on a single-core box the pool overlaps accept and session
        // work (unless an explicit env override asks for 1).
        if std::env::var("RDDR_REACTOR_WORKERS").is_err() {
            assert!(default_workers() >= 2);
        }
    }
}
