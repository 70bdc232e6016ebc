//! What both proxies are built from: the proxy handle (bind, reactor pool,
//! accept loop, stop) and the N-side session core.
//!
//! Each proxy session has one side with N streams and one side with a single
//! stream. For the incoming proxy, the N side is the instances and the single
//! stream is the client. For the outgoing proxy, the N side is the members
//! and the single stream is the backend. [`NSide`] owns everything on the N
//! side:
//! - the engine and the N streams;
//! - the fault, eject and quarantine handling;
//! - the drain;
//! - the deadline and straggler wait;
//! - the completion bookkeeping.
//!
//! It never asks which proxy it serves. The single stream and every
//! per-direction rule live in `incoming` and `outgoing`.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::BytesMut;
use rddr_core::{
    DegradePolicy, Direction, EngineConfig, EngineCounters, NVersionEngine, Protocol, RddrError,
    SurvivorPolicy,
};
use rddr_net::{BoxStream, Network, ServiceAddr, Stream, TryRead};
use rddr_telemetry::{Counter, Gauge, Histogram};

use crate::reactor::{
    default_workers, Ctx, Flow, ReactorPool, ReactorTelemetry, SessionTask, SLOT_PRIMARY,
};
use crate::{ProxyError, ProxyTelemetry, Result, StatsSnapshot};

/// Every counter one proxy keeps, registered once at start under
/// `{prefix}_{side}_*`: the engine's series (each session's engine holds
/// clones of the handles), the accept loop's and the session core's.
/// [`StatsSnapshot`] is a view of these.
pub(crate) struct ProxySeries {
    shared: ProxyTelemetry,
    /// `{prefix}_{side}`: the stem of every series this proxy registers.
    stem: String,
    engine: EngineCounters,
    /// Sessions accepted.
    sessions: Arc<Counter>,
    /// Sessions severed: a divergence, too few survivors, or a pool that
    /// was shutting down.
    severed: Arc<Counter>,
    /// Waiting for the N sides' data until the exchange is ready, µs.
    merge_us: Arc<Histogram>,
    /// Instances currently ejected across all live sessions (gauge).
    degraded_depth: Arc<Gauge>,
    /// Instance ejections after a fault (dial failure, reset, straggling).
    ejects: Arc<Counter>,
    /// Ejected instances readmitted after a successful warm-up probe.
    rejoins: Arc<Counter>,
    /// Instances quarantined after losing a quorum vote.
    quarantines: Arc<Counter>,
    /// Exchanges answered from a lone survivor without diffing.
    pass_through: Arc<Counter>,
}

impl ProxySeries {
    fn new(shared: ProxyTelemetry, side: &str) -> Self {
        let stem = format!("{}_{side}", shared.prefix);
        let registry = &shared.registry;
        let counter = |suffix: &str| registry.counter(&format!("{stem}_{suffix}"));
        ProxySeries {
            engine: EngineCounters::on(registry, &stem),
            sessions: counter("sessions_total"),
            severed: counter("severed_total"),
            merge_us: registry.histogram(&format!("{stem}_merge_latency_us")),
            degraded_depth: registry.gauge(&format!("{stem}_degraded_depth")),
            ejects: counter("ejects_total"),
            rejoins: counter("rejoins_total"),
            quarantines: counter("quarantines_total"),
            pass_through: counter("pass_through_total"),
            stem,
            shared,
        }
    }

    /// Registers the proxy's own histogram `{prefix}_{side}_{suffix}`.
    pub(crate) fn histogram(&self, suffix: &str) -> Arc<Histogram> {
        self.shared
            .registry
            .histogram(&format!("{}_{suffix}", self.stem))
    }

    fn snapshot(&self) -> StatsSnapshot {
        let engine = self.engine.snapshot();
        StatsSnapshot {
            sessions: self.sessions.get(),
            exchanges: engine.exchanges,
            divergences: engine.divergences,
            severed: self.severed.get(),
            throttled: engine.throttled,
            ejected: self.ejects.get(),
            quarantined: self.quarantines.get(),
            rejoined: self.rejoins.get(),
            pass_through: self.pass_through.get(),
        }
    }
}

/// A running proxy: its listen address, series, accept thread and reactor
/// pool. Dropping it stops the accept loop, then the pool.
pub(crate) struct Proxy {
    listen_addr: ServiceAddr,
    series: Arc<ProxySeries>,
    stop: Arc<AtomicBool>,
    net: Arc<dyn Network>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    /// Dropped (tearing down any in-flight sessions) after the accept loop
    /// has been joined.
    pool: Option<Arc<ReactorPool>>,
}

impl Proxy {
    /// Binds `listen` and hands every `group` consecutively accepted
    /// connections to a session on a reactor pool (a group the session
    /// factory declines is dropped, closing its connections). The accept
    /// thread is `rddr-{side}-{listen}`, the workers `rddr-rx-{side}-{i}`.
    ///
    /// Every series goes under `{prefix}_{side}_*` of `telemetry`, or of a
    /// private `ProxyTelemetry::new("rddr")` when there is none, and is
    /// registered here: the shared ones, the reactor's, and the side's own,
    /// which `factory` registers while it builds the session factory.
    pub(crate) fn start<F>(
        net: Arc<dyn Network>,
        listen: &ServiceAddr,
        side: &str,
        group: usize,
        telemetry: Option<ProxyTelemetry>,
        factory: impl FnOnce(&Arc<ProxySeries>) -> F,
    ) -> Result<Proxy>
    where
        F: Fn(Vec<BoxStream>) -> Option<Box<dyn SessionTask>> + Send + 'static,
    {
        let mut listener = net.listen(listen).map_err(ProxyError::Bind)?;
        // Report the resolved address (TCP port 0 binds to an ephemeral port).
        let listen_addr = listener.local_addr();
        let telemetry = telemetry.unwrap_or_else(|| ProxyTelemetry::new("rddr"));
        let series = Arc::new(ProxySeries::new(telemetry, side));
        let reactor =
            ReactorTelemetry::new(&series.shared.registry, &series.stem, default_workers());
        let pool = Arc::new(ReactorPool::new(side, reactor).map_err(ProxyError::Spawn)?);
        let session = factory(&series);
        let stop = Arc::new(AtomicBool::new(false));
        let (accept_stop, accept_pool, accept_series) =
            (Arc::clone(&stop), Arc::clone(&pool), Arc::clone(&series));
        let accept_thread = std::thread::Builder::new()
            .name(format!("rddr-{side}-{listen}"))
            .spawn(move || loop {
                let mut conns = Vec::with_capacity(group);
                while conns.len() < group {
                    let Ok(conn) = listener.accept() else {
                        return;
                    };
                    if accept_stop.load(Ordering::Relaxed) {
                        return;
                    }
                    conns.push(conn);
                }
                accept_series.sessions.inc();
                let Some(task) = session(conns) else {
                    continue;
                };
                if !accept_pool.submit(task) {
                    // Pool shutting down: the dropped task closes its
                    // connections — a severed session, not a crashed
                    // accept loop.
                    accept_series.severed.inc();
                }
            })
            .map_err(ProxyError::Spawn)?;
        Ok(Proxy {
            listen_addr,
            series,
            stop,
            net,
            accept_thread: Some(accept_thread),
            pool: Some(pool),
        })
    }

    pub(crate) fn listen_addr(&self) -> &ServiceAddr {
        &self.listen_addr
    }

    pub(crate) fn stats(&self) -> StatsSnapshot {
        self.series.snapshot()
    }

    pub(crate) fn workers(&self) -> usize {
        self.pool.as_ref().map_or(0, |p| p.worker_count())
    }

    pub(crate) fn stop(&mut self) {
        if !self.stop.swap(true, Ordering::Relaxed) {
            self.net.unbind_addr(&self.listen_addr);
            // Fabrics whose unbind is a no-op (plain TCP) need the accept
            // loop woken so it can observe the stop flag.
            if let Ok(mut conn) = self.net.dial(&self.listen_addr) {
                conn.shutdown();
            }
        }
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }

    pub(crate) fn debug(&self, name: &str, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct(name)
            .field("listen", &self.listen_addr)
            .field("stats", &self.series.snapshot())
            .finish()
    }
}

impl Drop for Proxy {
    fn drop(&mut self) {
        self.stop();
        // Accept loop is down; dropping the pool tears down live sessions.
        self.pool.take();
    }
}

/// What one state-machine transition asks the step driver to do next.
pub(crate) enum Advance {
    /// Re-run the state machine immediately (state changed, or buffered
    /// data may complete the next phase without a fresh wake).
    Again,
    /// Park until the next wake (readiness or timer).
    Park,
    /// Session over.
    Finish,
}

/// The step driver: runs `transition` until it parks or finishes.
pub(crate) fn run(mut transition: impl FnMut() -> Advance) -> Flow {
    loop {
        match transition() {
            Advance::Again => {}
            Advance::Park => return Flow::Continue,
            Advance::Finish => return Flow::Done,
        }
    }
}

/// Drains the single-stream side (client or backend) into `buf` if its slot
/// woke. EOF or a read error marks it closed and deregisters it.
pub(crate) fn drain_primary(
    ctx: &mut Ctx<'_>,
    conn: &mut BoxStream,
    open: &mut bool,
    buf: &mut BytesMut,
) {
    if !*open || !ctx.woken.contains(&SLOT_PRIMARY) {
        return;
    }
    loop {
        match conn.try_read(ctx.scratch) {
            Ok(TryRead::Data(n)) => {
                if let Some(read) = ctx.scratch.get(..n) {
                    buf.extend_from_slice(read);
                }
            }
            Ok(TryRead::WouldBlock) => break,
            Ok(TryRead::Eof) | Err(_) => {
                *open = false;
                ctx.deregister(SLOT_PRIMARY);
                break;
            }
        }
    }
}

/// How [`NSide::evaluate`] ended an exchange.
pub(crate) enum Verdict {
    /// The engine's verdict: forward these bytes.
    Forward(Vec<u8>),
    /// The engine's verdict: sever (counted in `severed`).
    Severed,
    /// Not evaluated: too few survivors (counted in `severed`), or nothing
    /// was buffered.
    Unevaluated,
}

/// The N side of one session: the engine, the N streams (slot `i` is
/// readiness slot `i`; `None` while instance `i` is out of the session),
/// the per-unit merge state and the accounting.
pub(crate) struct NSide {
    pub(crate) engine: NVersionEngine,
    pub(crate) streams: Vec<Option<BoxStream>>,
    pub(crate) degrade: DegradePolicy,
    deadline: Duration,
    instance_deadline: Option<Duration>,
    series: Arc<ProxySeries>,

    // Per-unit merge state.
    t0: Instant,
    /// Instances faulted this unit under the sever policy.
    pub(crate) failed: Vec<bool>,
    /// When the first instance completed this unit (the straggler clock).
    pub(crate) first_complete: Option<Instant>,

    /// EOFs observed during a drain, awaiting [`NSide::next_close`].
    pending_close: Vec<bool>,
    /// Streams that reached EOF (never drained again until readmitted).
    closed_seen: Vec<bool>,
}

impl NSide {
    /// A session's N side: an engine diffing `direction` that feeds the
    /// proxy's series and audit log.
    pub(crate) fn new(
        config: EngineConfig,
        protocol: Box<dyn Protocol>,
        direction: Direction,
        series: &Arc<ProxySeries>,
    ) -> Self {
        let (deadline, instance_deadline) =
            (config.response_deadline(), config.instance_deadline());
        let (degrade, n) = (config.degrade(), config.instances());
        let engine = NVersionEngine::with_telemetry(
            config,
            protocol,
            series.engine.clone(),
            Some(Arc::clone(&series.shared.audit)),
        )
        .diff_direction(direction);
        NSide {
            engine,
            streams: (0..n).map(|_| None).collect(),
            degrade,
            deadline,
            instance_deadline,
            series: Arc::clone(series),
            t0: Instant::now(),
            failed: vec![false; n],
            first_complete: None,
            pending_close: vec![false; n],
            closed_seen: vec![false; n],
        }
    }

    /// Installs `conn` as instance `i`'s stream, forgetting any EOF seen on
    /// the stream it replaces.
    pub(crate) fn admit(&mut self, i: usize, conn: BoxStream) {
        if let Some(slot) = self.streams.get_mut(i) {
            *slot = Some(conn);
        }
        if let Some(p) = self.pending_close.get_mut(i) {
            *p = false;
        }
        if let Some(c) = self.closed_seen.get_mut(i) {
            *c = false;
        }
    }

    /// Readmits ejected instance `i` on `conn`, a fresh stream already
    /// registered for readiness, and counts the rejoin.
    pub(crate) fn rejoin(&mut self, i: usize, conn: BoxStream) {
        self.admit(i, conn);
        self.engine.readmit(i);
        self.series.rejoins.inc();
        self.series.degraded_depth.add(-1);
    }

    /// Registers every held stream for readiness. A stream that cannot
    /// register is ejected under an eject policy and fails the session
    /// under sever. Returns whether the session can start.
    pub(crate) fn register(&mut self, ctx: &Ctx<'_>) -> bool {
        for i in 0..self.streams.len() {
            let registered = match self.streams.get_mut(i).and_then(Option::as_mut) {
                Some(conn) => ctx.register(conn, i as u64),
                None => true, // already ejected
            };
            if !registered {
                if !self.degrade.ejects() {
                    return false;
                }
                self.eject(i, ctx);
            }
        }
        !self.below_floor()
    }

    /// Whether too few live instances remain to keep serving: zero always
    /// is; a lone survivor is unless the policy says pass-through. (Under
    /// [`DegradePolicy::Sever`] nothing is ever ejected, so the count never
    /// drops below N.)
    pub(crate) fn below_floor(&self) -> bool {
        match self.engine.active_count() {
            0 => true,
            1 => self.degrade.survivor() != Some(SurvivorPolicy::PassThrough),
            _ => false,
        }
    }

    /// Takes instance `i` out of the session: the engine stops waiting for
    /// it and its stream is shut down. Counts only the degraded-depth
    /// transition (a clean departure); returns `false` if it was already out.
    pub(crate) fn remove(&mut self, i: usize, ctx: &Ctx<'_>) -> bool {
        ctx.deregister(i as u64);
        if !self.engine.is_active(i) {
            return false;
        }
        self.engine.eject(i);
        if let Some(mut conn) = self.streams.get_mut(i).and_then(Option::take) {
            conn.shutdown();
        }
        self.series.degraded_depth.add(1);
        true
    }

    /// Removes a *faulted* instance (failed dial, reset, straggling past its
    /// deadline) and counts the eject.
    pub(crate) fn eject(&mut self, i: usize, ctx: &Ctx<'_>) {
        if self.remove(i, ctx) {
            self.series.ejects.inc();
        }
    }

    /// Removes an *outvoted* instance (quorum voting picked another group)
    /// and counts the quarantine.
    fn quarantine(&mut self, i: usize, ctx: &Ctx<'_>) {
        if self.remove(i, ctx) {
            self.series.quarantines.inc();
        }
    }

    /// Routes an instance fault through the degrade policy: eject it, or
    /// mark it failed so the diff treats the missing output as a divergence
    /// (the paper's sever-on-fault behaviour).
    pub(crate) fn fault(&mut self, i: usize, ctx: &Ctx<'_>) {
        if self.degrade.ejects() {
            self.eject(i, ctx);
        } else {
            if let Some(f) = self.failed.get_mut(i) {
                *f = true;
            }
            self.engine.mark_failed(i);
        }
    }

    /// Starts the next exchange unit: its clock, no faults, no straggler
    /// clock.
    pub(crate) fn begin(&mut self) {
        self.t0 = Instant::now();
        self.failed.fill(false);
        self.first_complete = None;
    }

    /// Drains every *woken* instance stream to `WouldBlock` into the
    /// engine, calling `on_data(i, t0)` before each chunk from instance `i`
    /// is pushed (`t0` is the unit's start). While `merging`, the first
    /// instance to complete starts the straggler clock. EOFs are recorded
    /// and their tokens deregistered at once, so a closed fd cannot spin the
    /// poller, but they are handled only through [`NSide::next_close`].
    /// Streams that did not wake are left alone: every arrival wakes its
    /// slot.
    pub(crate) fn drain(
        &mut self,
        ctx: &mut Ctx<'_>,
        merging: bool,
        mut on_data: impl FnMut(usize, Instant),
    ) {
        for &slot in ctx.woken {
            let i = slot as usize;
            if self.closed_seen.get(i).copied().unwrap_or(true) {
                continue;
            }
            while let Some(conn) = self.streams.get_mut(i).and_then(Option::as_mut) {
                match conn.try_read(ctx.scratch) {
                    Ok(TryRead::Data(n)) => {
                        on_data(i, self.t0);
                        let pushed = match ctx.scratch.get(..n) {
                            Some(read) => self.engine.push_response(i, read),
                            None => Err(RddrError::Protocol("scratch underflow".into())),
                        };
                        if pushed.is_err() {
                            self.fault(i, ctx);
                            break;
                        }
                        if merging
                            && self.first_complete.is_none()
                            && self.engine.instance_complete(i)
                        {
                            self.first_complete = Some(Instant::now());
                        }
                    }
                    Ok(TryRead::WouldBlock) => break,
                    Ok(TryRead::Eof) | Err(_) => {
                        ctx.deregister(i as u64);
                        if let Some(p) = self.pending_close.get_mut(i) {
                            *p = true;
                        }
                        if let Some(c) = self.closed_seen.get_mut(i) {
                            *c = true;
                        }
                        break;
                    }
                }
            }
        }
    }

    /// The next live instance whose EOF a drain observed, clearing its flag.
    /// Sessions handle closes here, at the point of the exchange where the
    /// thread model consumed its `Closed` events.
    pub(crate) fn next_close(&mut self) -> Option<usize> {
        for (i, pending) in self.pending_close.iter_mut().enumerate() {
            if std::mem::take(pending) && self.engine.is_active(i) {
                return Some(i);
            }
        }
        None
    }

    fn incomplete(&self, i: usize) -> bool {
        self.engine.is_active(i) && !self.engine.instance_complete(i)
    }

    /// The deadline wait. Returns `true` to park: the unit is incomplete and
    /// time remains, and the timer is armed for the overall or the
    /// straggler deadline, whichever is first. Returns `false` to complete
    /// the unit now: it is ready, no instance is left, the overall deadline
    /// has passed, or the stragglers have just been faulted.
    pub(crate) fn deadline_wait(&mut self, ctx: &Ctx<'_>) -> bool {
        if self.engine.exchange_ready() || self.engine.active_count() == 0 {
            return false;
        }
        let mut wait = self.deadline.saturating_sub(self.t0.elapsed());
        if wait.is_zero() {
            return false;
        }
        if let (Some(limit), Some(first)) = (self.instance_deadline, self.first_complete) {
            let straggler = limit.saturating_sub(first.elapsed());
            if straggler.is_zero() {
                for i in 0..self.streams.len() {
                    if self.incomplete(i) {
                        self.fault(i, ctx);
                    }
                }
                return false;
            }
            wait = wait.min(straggler);
        }
        ctx.set_timer(wait);
        true
    }

    /// The first half of completing a unit: cancels the timer, records the
    /// merge latency, and ejects (under an eject policy) every live instance
    /// still incomplete. Under sever they stay for the diff to flag.
    pub(crate) fn settle(&mut self, ctx: &Ctx<'_>) {
        ctx.clear_timer();
        self.series.merge_us.record_duration(self.t0.elapsed());
        if self.degrade.ejects() && !self.engine.exchange_ready() {
            for i in 0..self.streams.len() {
                if self.incomplete(i) {
                    self.eject(i, ctx);
                }
            }
        }
    }

    /// The second half: checks the survivor floor, counts a lone-survivor
    /// pass-through, evaluates the unit (one pipelined unit when `unit`,
    /// else everything buffered) and accounts the exchange, its divergence,
    /// its quarantines and its sever.
    pub(crate) fn evaluate(&mut self, ctx: &Ctx<'_>, unit: bool) -> Verdict {
        if self.below_floor() {
            self.series.severed.inc();
            return Verdict::Unevaluated;
        }
        if self.engine.active_count() == 1 {
            self.series.pass_through.inc();
        }
        let finished = if unit {
            self.engine.finish_exchange_unit()
        } else {
            self.engine.finish_exchange()
        };
        let Ok(outcome) = finished else {
            return Verdict::Unevaluated;
        };
        for &i in &outcome.quarantined {
            self.quarantine(i, ctx);
        }
        match outcome.forward {
            Some(bytes) => Verdict::Forward(bytes),
            None => {
                self.series.severed.inc();
                Verdict::Severed
            }
        }
    }

    /// Shuts every remaining instance stream.
    pub(crate) fn shutdown_all(&mut self) {
        for conn in self.streams.iter_mut().flatten() {
            conn.shutdown();
        }
    }

    /// Session teardown: shuts the streams and returns the session's share
    /// of the degraded-depth gauge (its currently ejected instances).
    pub(crate) fn teardown(&mut self) {
        self.shutdown_all();
        let depth = self
            .streams
            .len()
            .saturating_sub(self.engine.active_count());
        if depth > 0 {
            self.series.degraded_depth.add(-(depth as i64));
        }
    }
}
