//! The shared session reactor: a fixed pool of worker threads, each owning
//! many proxy sessions as explicit state machines, and the only code that
//! touches a session's streams.
//!
//! Each proxy owns a [`ReactorPool`] of O(cores) workers. The accept loop
//! stays a thread (it must block in `accept`), but everything after the
//! handshake is a [`SessionTask`] driven by readiness events from one
//! [`Poller`](rddr_net::Poller) per worker.
//!
//! The contract between a worker and its sessions:
//!
//! - **Streams.** The worker owns each session's stream table: instance or
//!   member `i` is slot `i`, the client or backend is [`SLOT_PRIMARY`]. The
//!   connections the accept loop grouped reach [`SessionTask::init`], and a
//!   session hands every stream it dials to [`Ctx::attach`] at once. From
//!   then on it only asks [`Ctx`] to write to a slot, close a slot or set
//!   and clear its timer.
//! - **Drain.** [`drain_and_step`] is the one read loop. It drains every
//!   *woken* slot with `try_read` until `WouldBlock` (wakes may be
//!   edge-triggered, as on duplex pipes, or level-triggered, as on TCP fds;
//!   draining to `WouldBlock` makes both behave) and hands the session each
//!   chunk through [`SessionTask::on_data`], then steps it. Slots that did
//!   not fire are not read: every arrival wakes its slot, and registration
//!   re-wakes for bytes that landed first.
//! - **Closes.** EOF and read errors are *observed* in the drain: the slot's
//!   token is deregistered, so a permanently-readable closed fd cannot spin,
//!   the slot is never read again, and the session hears
//!   [`SessionTask::on_close`]. The session *processes* the close at its own
//!   point in the exchange state machine, which keeps clean-close and fault
//!   apart.
//! - **Clock.** Deadlines are poller timers on a dedicated per-session timer
//!   slot, and time comes from [`Ctx::now`]: the wall clock under a worker,
//!   a scripted instant under a test driver.
//! - A step never blocks: writes are the only synchronous I/O (in-memory
//!   writes never block; non-blocking TCP writes ride out `WouldBlock` in a
//!   bounded one-shot poll).

use std::ops::RangeInclusive;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use rddr_net::{BoxStream, Poller, Stream, Token, TryRead};
use rddr_telemetry::{Gauge, Histogram, Registry};

/// Bits of a token reserved for the per-session slot index.
const SLOT_BITS: u32 = 8;
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
    /// Runs once when a worker adopts the session, with the connections the
    /// accept loop grouped for it: attach streams, arm initial timers.
    fn init(&mut self, ctx: &mut Ctx<'_>, accepted: Vec<BoxStream>) -> Flow;

    /// Takes one chunk the drain read from `slot`. Returns whether to keep
    /// draining the slot this step.
    fn on_data(&mut self, ctx: &mut Ctx<'_>, slot: u64, bytes: &[u8]) -> bool;

    /// The drain saw EOF or a read error on `slot`, which is never read
    /// again. The session handles the close in its next step.
    fn on_close(&mut self, slot: u64);

    /// Runs after the drain of every wake (stream readiness or timer fire).
    fn step(&mut self, ctx: &mut Ctx<'_>) -> Flow;

    /// Returns the session's gauges. Runs exactly once, after `init`/`step`
    /// returns [`Flow::Done`] or when the pool shuts down with the session
    /// still live; the worker then shuts the session's streams.
    fn teardown(&mut self);

    /// Small-integer encoding of the session's current state, recorded into
    /// the reactor's session-state histogram after every step.
    fn state_ordinal(&self) -> u64;
}

/// Every token of session `id`, one per slot: a contiguous range.
fn session_tokens(id: u64) -> RangeInclusive<Token> {
    Token(id << SLOT_BITS)..=Token((id << SLOT_BITS) | SLOT_MASK)
}

/// One attached stream of a session.
struct Attached {
    slot: u64,
    stream: BoxStream,
    /// The drain saw EOF or a read error; the slot is not read again.
    eof: bool,
}

/// One session's stream table, owned by its worker: a handful of slots, so
/// lookups scan.
#[derive(Default)]
pub(crate) struct Streams(Vec<Attached>);

impl Streams {
    fn find(&mut self, slot: u64) -> Option<&mut Attached> {
        self.0.iter_mut().find(|a| a.slot == slot)
    }
}

/// Worker-side services a session uses during `init`, the drain and `step`.
pub(crate) struct Ctx<'a> {
    poller: &'a Poller,
    session: u64,
    streams: &'a mut Streams,
    /// A scripted instant, or `None` for the wall clock.
    clock: Option<Instant>,
}

impl<'a> Ctx<'a> {
    /// The context of session `session` over its stream table, on the wall
    /// clock (`clock: None`) or a scripted instant.
    pub(crate) fn new(
        poller: &'a Poller,
        session: u64,
        streams: &'a mut Streams,
        clock: Option<Instant>,
    ) -> Self {
        Ctx {
            poller,
            session,
            streams,
            clock,
        }
    }

    fn token(&self, slot: u64) -> Token {
        Token((self.session << SLOT_BITS) | (slot & SLOT_MASK))
    }

    /// The session's clock.
    pub(crate) fn now(&self) -> Instant {
        self.clock.unwrap_or_else(Instant::now)
    }

    /// Time on the session's clock since `start` (zero if it is unset).
    pub(crate) fn since(&self, start: Option<Instant>) -> Duration {
        start.map_or(Duration::ZERO, |t| self.now().saturating_duration_since(t))
    }

    /// Takes `stream` as `slot` (which must be free) and registers it so
    /// readiness on it wakes this session. Returns `false`, shutting the
    /// stream, if the transport cannot deliver readiness natively: the
    /// caller treats the stream as dead.
    pub(crate) fn attach(&mut self, slot: u64, mut stream: BoxStream) -> bool {
        if !stream.poll_register(self.poller.readiness(self.token(slot))) {
            stream.shutdown();
            return false;
        }
        self.streams.0.push(Attached {
            slot,
            stream,
            eof: false,
        });
        true
    }

    /// Writes all of `bytes` to `slot`. Returns `false` if the slot has no
    /// stream or the write failed.
    #[must_use]
    pub(crate) fn write(&mut self, slot: u64, bytes: &[u8]) -> bool {
        self.streams
            .find(slot)
            .is_some_and(|a| a.stream.write_all(bytes).is_ok())
    }

    /// Whether `slot` has nothing more to read: no stream, or its EOF seen.
    pub(crate) fn at_eof(&mut self, slot: u64) -> bool {
        self.streams.find(slot).is_none_or(|a| a.eof)
    }

    /// Stops all wakes for `slot`, then shuts and drops its stream.
    pub(crate) fn close(&mut self, slot: u64) {
        self.poller.deregister(self.token(slot));
        if let Some(at) = self.streams.0.iter().position(|a| a.slot == slot) {
            self.streams.0.remove(at).stream.shutdown();
        }
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

/// Drains every `woken` slot of one session to `WouldBlock`, handing it
/// each chunk and each EOF, then steps it. The only read loop: workers run
/// it on every wake, test drivers with a scripted clock.
pub(crate) fn drain_and_step(
    task: &mut dyn SessionTask,
    ctx: &mut Ctx<'_>,
    woken: &[u64],
    scratch: &mut [u8],
) -> Flow {
    for &slot in woken {
        while let Some(attached) = ctx.streams.find(slot).filter(|a| !a.eof) {
            match attached.stream.try_read(scratch) {
                Ok(TryRead::Data(n)) => {
                    if !task.on_data(ctx, slot, scratch.get(..n).unwrap_or_default()) {
                        break;
                    }
                }
                Ok(TryRead::WouldBlock) => break,
                Ok(TryRead::Eof) | Err(_) => {
                    attached.eof = true;
                    ctx.poller.deregister(ctx.token(slot));
                    task.on_close(slot);
                    break;
                }
            }
        }
    }
    task.step(ctx)
}

/// Ends session `id`: stops its wakes, tears it down, then shuts its
/// streams.
pub(crate) fn finish(poller: &Poller, id: u64, task: &mut dyn SessionTask, streams: &mut Streams) {
    poller.deregister_range(session_tokens(id));
    task.teardown();
    for mut attached in streams.0.drain(..) {
        attached.stream.shutdown();
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

/// A session on its way to a worker, with the connections accepted for it.
type Adoption = (Box<dyn SessionTask>, Vec<BoxStream>);

struct WorkerHandle {
    inject: Sender<Adoption>,
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

    /// Hands a session and its accepted connections to the next worker
    /// (round-robin). Returns `false` if the pool is already stopping.
    pub(crate) fn submit(&self, task: Box<dyn SessionTask>, accepted: Vec<BoxStream>) -> bool {
        if self.stop.load(Ordering::Relaxed) || self.workers.is_empty() {
            return false;
        }
        let i = self.next.fetch_add(1, Ordering::Relaxed) % self.workers.len();
        let Some(w) = self.workers.get(i) else {
            return false;
        };
        if w.inject.send((task, accepted)).is_err() {
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

/// A session a worker holds: its state machine and its stream table.
struct Live {
    task: Box<dyn SessionTask>,
    streams: Streams,
}

/// One reactor worker: polls for readiness, adopts injected sessions, and
/// drains and steps woken sessions until the pool stops. `own` counts the
/// sessions it holds.
///
/// This is a blocking-hot-path sink for `rddr-analyze`: nothing reachable
/// from here may call `sleep`/`read_to_end`-style blocking primitives,
/// because one blocked worker stalls every session it owns.
pub(crate) fn worker_loop(
    poller: Poller,
    inject: Receiver<Adoption>,
    stop: Arc<AtomicBool>,
    telemetry: Arc<ReactorTelemetry>,
    own: Arc<Gauge>,
) {
    use std::collections::BTreeMap;
    let mut sessions: BTreeMap<u64, Live> = BTreeMap::new();
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
            while let Ok((task, accepted)) = inject.try_recv() {
                let id = next_id;
                next_id += 1;
                let mut live = Live {
                    task,
                    streams: Streams::default(),
                };
                let mut ctx = Ctx::new(&poller, id, &mut live.streams, None);
                match live.task.init(&mut ctx, accepted) {
                    Flow::Continue => {
                        sessions.insert(id, live);
                        telemetry.sessions.add(1);
                        own.add(1);
                    }
                    Flow::Done => finish(&poller, id, live.task.as_mut(), &mut live.streams),
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
            let Some(live) = sessions.get_mut(&id) else {
                // A wake for a session already torn down (e.g. a watcher
                // surviving in a peer's stream handle); ignore.
                continue;
            };
            let mut ctx = Ctx::new(&poller, id, &mut live.streams, None);
            let flow = drain_and_step(live.task.as_mut(), &mut ctx, &slots, &mut scratch);
            telemetry.session_state.record(live.task.state_ordinal());
            if flow == Flow::Done {
                if let Some(mut live) = sessions.remove(&id) {
                    finish(&poller, id, live.task.as_mut(), &mut live.streams);
                }
                telemetry.sessions.add(-1);
                own.add(-1);
            }
        }
    }
    // Pool teardown: sever whatever is still live.
    for (id, mut live) in std::mem::take(&mut sessions) {
        finish(&poller, id, live.task.as_mut(), &mut live.streams);
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
        fn init(&mut self, ctx: &mut Ctx<'_>, _: Vec<BoxStream>) -> Flow {
            ctx.set_timer(Duration::from_millis(1));
            Flow::Continue
        }
        fn on_data(&mut self, _: &mut Ctx<'_>, _: u64, _: &[u8]) -> bool {
            true
        }
        fn on_close(&mut self, _: u64) {}
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
            assert!(pool.submit(
                Box::new(CountdownTask {
                    remaining: 3,
                    done: Arc::clone(f),
                    state: 0,
                }),
                Vec::new()
            ));
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
        assert!(pool.submit(
            Box::new(CountdownTask {
                remaining: u32::MAX,
                done: Arc::clone(&done),
                state: 0,
            }),
            Vec::new()
        ));
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
