//! What both proxies are built from: the proxy handle (bind, reactor pool,
//! accept loop, stop) and the N-side session core.
//!
//! Each proxy session has one side with N streams and one side with a single
//! stream. For the incoming proxy, the N side is the instances and the single
//! stream is the client. For the outgoing proxy, the N side is the members
//! and the single stream is the backend. The reactor owns every stream and
//! the clock; [`NSide`] owns the N side's state:
//! - the engine;
//! - the fault, eject and quarantine handling;
//! - what the drain hands it: bytes into the engine, EOFs until handled;
//! - the deadline and straggler wait;
//! - the write to every live instance;
//! - the completion bookkeeping.
//!
//! It never asks which proxy it serves. The single stream's state and every
//! per-direction rule live in `incoming` and `outgoing`.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rddr_core::{
    DegradePolicy, Direction, EngineConfig, EngineCounters, NVersionEngine, Protocol,
    SurvivorPolicy,
};
use rddr_net::{BoxStream, Network, ServiceAddr};
use rddr_telemetry::{Counter, Gauge, Histogram};

use crate::reactor::{default_workers, Ctx, Flow, ReactorPool, ReactorTelemetry, SessionTask};
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
    /// connections to a fresh session on a reactor pool. The accept thread
    /// is `rddr-{side}-{listen}`, the workers `rddr-rx-{side}-{i}`.
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
        F: Fn() -> Box<dyn SessionTask> + Send + 'static,
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
                if !accept_pool.submit(session(), conns) {
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
            // loop woken so it can observe the stop flag; the connection
            // closes as it drops.
            let _ = self.net.dial(&self.listen_addr);
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

/// How [`NSide::evaluate`] ended an exchange.
pub(crate) enum Verdict {
    /// The engine's verdict: forward these bytes.
    Forward(Vec<u8>),
    /// The engine's verdict: sever (counted in `severed`).
    Severed,
    /// Not evaluated: too few survivors (counted in `severed`).
    Unevaluated,
    /// Not evaluated: no live instance buffered a frame (not counted).
    Silent,
}

/// The N side of one session: the engine (instance `i` reads and writes
/// through reactor slot `i`), the per-unit merge state and the accounting.
pub(crate) struct NSide {
    pub(crate) engine: NVersionEngine,
    pub(crate) degrade: DegradePolicy,
    deadline: Duration,
    instance_deadline: Option<Duration>,
    series: Arc<ProxySeries>,

    // Per-unit merge state.
    /// When the unit started, on the session's clock.
    pub(crate) t0: Option<Instant>,
    /// Instances faulted this unit under the sever policy.
    pub(crate) failed: Vec<bool>,
    /// When the first instance completed this unit (the straggler clock).
    pub(crate) first_complete: Option<Instant>,

    /// EOFs the drain observed, awaiting [`NSide::next_close`].
    pending_close: Vec<bool>,
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
            degrade,
            deadline,
            instance_deadline,
            series: Arc::clone(series),
            t0: None,
            failed: vec![false; n],
            first_complete: None,
            pending_close: vec![false; n],
        }
    }

    /// Hands instance `i`'s stream (`None`: the dial failed) to the reactor
    /// as slot `i`. A stream that cannot join is ejected under an eject
    /// policy and fails the session under sever. Returns whether the
    /// session can go on.
    pub(crate) fn attach(&mut self, ctx: &mut Ctx<'_>, i: usize, conn: Option<BoxStream>) -> bool {
        if conn.is_some_and(|conn| ctx.attach(i as u64, conn)) {
            return true;
        }
        if self.degrade.ejects() {
            self.eject(i, ctx);
        }
        self.degrade.ejects()
    }

    /// Readmits ejected instance `i` on `conn`, a fresh dial, if it joins
    /// the reactor, and counts the rejoin.
    pub(crate) fn rejoin(&mut self, ctx: &mut Ctx<'_>, i: usize, conn: BoxStream) {
        if !ctx.attach(i as u64, conn) {
            return;
        }
        if let Some(p) = self.pending_close.get_mut(i) {
            *p = false;
        }
        self.engine.readmit(i);
        self.series.rejoins.inc();
        self.series.degraded_depth.add(-1);
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

    /// Takes instance `i` out of the session: its slot is closed and the
    /// engine stops waiting for it. Counts only the degraded-depth
    /// transition (a clean departure); returns `false` if it was already out.
    pub(crate) fn remove(&mut self, i: usize, ctx: &mut Ctx<'_>) -> bool {
        ctx.close(i as u64);
        if !self.engine.is_active(i) {
            return false;
        }
        self.engine.eject(i);
        self.series.degraded_depth.add(1);
        true
    }

    /// Removes a *faulted* instance (failed dial, reset, straggling past its
    /// deadline) and counts the eject.
    pub(crate) fn eject(&mut self, i: usize, ctx: &mut Ctx<'_>) {
        if self.remove(i, ctx) {
            self.series.ejects.inc();
        }
    }

    /// Removes an *outvoted* instance (quorum voting picked another group)
    /// and counts the quarantine.
    fn quarantine(&mut self, i: usize, ctx: &mut Ctx<'_>) {
        if self.remove(i, ctx) {
            self.series.quarantines.inc();
        }
    }

    /// Routes an instance fault through the degrade policy: eject it, or
    /// mark it failed so the diff treats the missing output as a divergence
    /// (the paper's sever-on-fault behaviour).
    pub(crate) fn fault(&mut self, i: usize, ctx: &mut Ctx<'_>) {
        if self.degrade.ejects() {
            self.eject(i, ctx);
        } else {
            if let Some(f) = self.failed.get_mut(i) {
                *f = true;
            }
            self.engine.mark_failed(i);
        }
    }

    /// Starts the next exchange unit at `now`: no faults, no straggler
    /// clock.
    pub(crate) fn begin(&mut self, now: Instant) {
        self.t0 = Some(now);
        self.failed.fill(false);
        self.first_complete = None;
    }

    /// Pushes a chunk the drain read from instance `i` into the engine.
    /// While `merging`, the first instance to complete starts the straggler
    /// clock. A push error faults the instance; returns whether to keep
    /// draining it.
    pub(crate) fn receive(
        &mut self,
        ctx: &mut Ctx<'_>,
        i: usize,
        bytes: &[u8],
        merging: bool,
    ) -> bool {
        if self.engine.push_response(i, bytes).is_err() {
            self.fault(i, ctx);
            return false;
        }
        if merging && self.first_complete.is_none() && self.engine.instance_complete(i) {
            self.first_complete = Some(ctx.now());
        }
        true
    }

    /// Records the EOF the drain saw on `slot` (other than an instance's
    /// slot: ignored) for [`NSide::next_close`].
    pub(crate) fn closed(&mut self, slot: u64) {
        if let Some(p) = self.pending_close.get_mut(slot as usize) {
            *p = true;
        }
    }

    /// The next live instance whose EOF a drain observed, clearing its flag.
    /// Sessions handle closes here, at their own point in the exchange.
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
    pub(crate) fn deadline_wait(&mut self, ctx: &mut Ctx<'_>) -> bool {
        if self.engine.exchange_ready() || self.engine.active_count() == 0 {
            return false;
        }
        let mut wait = self.deadline.saturating_sub(ctx.since(self.t0));
        if wait.is_zero() {
            return false;
        }
        if let (Some(limit), Some(_)) = (self.instance_deadline, self.first_complete) {
            let straggler = limit.saturating_sub(ctx.since(self.first_complete));
            if straggler.is_zero() {
                for i in 0..self.failed.len() {
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
    pub(crate) fn settle(&mut self, ctx: &mut Ctx<'_>) {
        ctx.clear_timer();
        self.series.merge_us.record_duration(ctx.since(self.t0));
        if self.degrade.ejects() && !self.engine.exchange_ready() {
            for i in 0..self.failed.len() {
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
    pub(crate) fn evaluate(&mut self, ctx: &mut Ctx<'_>, unit: bool) -> Verdict {
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
            return Verdict::Silent;
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

    /// Counts a sever the session decided on itself.
    pub(crate) fn count_sever(&self) {
        self.series.severed.inc();
    }

    /// Writes `bytes(i)` to every live instance `i`. A failed write is a
    /// fault: the instance is ejected under an eject policy; under sever
    /// the session must end, and this returns `false` once every write was
    /// tried.
    pub(crate) fn write_live<'b>(
        &mut self,
        ctx: &mut Ctx<'_>,
        bytes: impl Fn(usize) -> &'b [u8],
    ) -> bool {
        let mut written = true;
        for i in 0..self.failed.len() {
            if !self.engine.is_active(i) || ctx.write(i as u64, bytes(i)) {
                continue;
            }
            if self.degrade.ejects() {
                self.eject(i, ctx);
            } else {
                written = false;
            }
        }
        written
    }

    /// Session teardown: returns the session's share of the degraded-depth
    /// gauge (its currently ejected instances).
    pub(crate) fn teardown(&mut self) {
        let depth = self.failed.len().saturating_sub(self.engine.active_count());
        if depth > 0 {
            self.series.degraded_depth.add(-(depth as i64));
        }
    }
}

#[cfg(test)]
mod tests {
    //! The places where the two directions differ (DESIGN.md, "Session
    //! reactor"), each pinned as a scripted list of peer events. A case runs
    //! through the reactor's own drain on a scripted clock over in-memory
    //! pipes: no threads, no sleeps, no poller wait.

    use std::collections::BTreeMap;
    use std::sync::Mutex;

    use rddr_core::protocol::LineProtocol;
    use rddr_core::EngineConfigBuilder;
    use rddr_net::{duplex_pair, BoxListener, NetError, Poller, Stream, TryRead};

    use super::*;
    use crate::reactor::{drain_and_step, finish, Streams, SLOT_PRIMARY, SLOT_TIMER};
    use crate::{incoming, outgoing, IncomingProxy, ProtocolFactory, ProxyError};

    /// A fabric that dials in-memory pipes and keeps each far end, so the
    /// test plays every peer the session dials.
    #[derive(Default)]
    struct Pipes(Mutex<Vec<(ServiceAddr, BoxStream)>>);

    impl Network for Pipes {
        fn listen(&self, addr: &ServiceAddr) -> rddr_net::Result<BoxListener> {
            Err(NetError::AddressInUse(addr.to_string()))
        }

        fn dial(&self, addr: &ServiceAddr) -> rddr_net::Result<BoxStream> {
            let (near, far) = duplex_pair("proxy", &addr.to_string());
            self.0.lock().unwrap().push((addr.clone(), Box::new(far)));
            Ok(Box::new(near))
        }
    }

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Side {
        In,
        Out,
    }

    /// One scripted event, by the peer on a slot, or the session's timer.
    #[derive(Clone, Copy)]
    enum Ev {
        Data(u64, &'static str),
        Eof(u64),
        Timer,
    }
    use Ev::{Data, Eof, Timer};

    const N: usize = 3;
    const P: u64 = SLOT_PRIMARY;

    /// The slot a dialled address belongs to: instance `svc:900i` is slot
    /// `i`, the backend is the primary.
    fn slot_of(addr: &ServiceAddr) -> u64 {
        match addr.port() {
            5432 => P,
            port => u64::from(port - 9000),
        }
    }

    /// Who heard what by the end of a script.
    struct Run {
        flow: Flow,
        stats: StatsSnapshot,
        /// Every byte each current peer read, by slot.
        heard: BTreeMap<u64, String>,
    }

    /// Runs `script` (each event at its millisecond on the scripted clock)
    /// against a fresh session of `side` with `N` instances.
    fn drive(side: Side, config: EngineConfig, script: &[(u64, Ev)]) -> Run {
        let pipes = Arc::new(Pipes::default());
        let net = Arc::clone(&pipes) as Arc<dyn Network>;
        let protocol: ProtocolFactory = Arc::new(|| Box::new(LineProtocol::new()));
        let name = if side == Side::In { "in" } else { "out" };
        let series = Arc::new(ProxySeries::new(ProxyTelemetry::new("t"), name));
        let mut peers: BTreeMap<u64, BoxStream> = BTreeMap::new();
        let mut accepted: Vec<BoxStream> = Vec::new();
        let mut task = match side {
            Side::In => {
                let (near, far) = duplex_pair("proxy", "client");
                accepted.push(Box::new(near));
                peers.insert(P, Box::new(far));
                let instances = (0..N as u16).map(|i| ServiceAddr::new("svc", 9000 + i));
                incoming::sessions(net, instances.collect(), config, protocol, &series)()
            }
            Side::Out => {
                for i in 0..N as u64 {
                    let (near, far) = duplex_pair("proxy", "member");
                    accepted.push(Box::new(near));
                    peers.insert(i, Box::new(far));
                }
                let backend = ServiceAddr::new("db", 5432);
                outgoing::sessions(net, backend, config, protocol, &series)()
            }
        };
        let adopt_dials = |peers: &mut BTreeMap<u64, BoxStream>| {
            for (addr, far) in pipes.0.lock().unwrap().drain(..) {
                peers.insert(slot_of(&addr), far);
            }
        };
        let (poller, mut streams, mut scratch) = (Poller::new(), Streams::default(), [0u8; 256]);
        let start = Instant::now();
        let mut flow = task.init(
            &mut Ctx::new(&poller, 1, &mut streams, Some(start)),
            accepted,
        );
        for &(ms, ev) in script {
            assert_eq!(
                flow,
                Flow::Continue,
                "the session ended before the script did"
            );
            adopt_dials(&mut peers);
            let slot = match ev {
                Data(slot, text) => {
                    peers
                        .get_mut(&slot)
                        .unwrap()
                        .write_all(text.as_bytes())
                        .unwrap();
                    slot
                }
                Eof(slot) => {
                    peers.get_mut(&slot).unwrap().shutdown();
                    slot
                }
                Timer => SLOT_TIMER,
            };
            let now = start + Duration::from_millis(ms);
            let mut ctx = Ctx::new(&poller, 1, &mut streams, Some(now));
            flow = drain_and_step(task.as_mut(), &mut ctx, &[slot], &mut scratch);
        }
        if flow == Flow::Done {
            finish(&poller, 1, task.as_mut(), &mut streams);
        }
        adopt_dials(&mut peers);
        let heard = peers
            .iter_mut()
            .map(|(&slot, peer)| {
                let mut text = Vec::new();
                while let Ok(TryRead::Data(n)) = peer.try_read(&mut scratch) {
                    text.extend_from_slice(&scratch[..n]);
                }
                (slot, String::from_utf8(text).unwrap())
            })
            .collect();
        Run {
            flow,
            stats: series.snapshot(),
            heard,
        }
    }

    /// One row: a script and what it must leave behind.
    struct Case {
        name: &'static str,
        side: Side,
        config: fn(EngineConfigBuilder) -> EngineConfigBuilder,
        script: &'static [(u64, Ev)],
        flow: Flow,
        /// `(exchanges, severed, ejected, rejoined)`.
        counts: (u64, u64, u64, u64),
        /// What some peers read, by slot.
        heard: &'static [(u64, &'static str)],
    }

    fn eject(c: EngineConfigBuilder) -> EngineConfigBuilder {
        c.degrade(DegradePolicy::eject())
    }

    fn sever(c: EngineConfigBuilder) -> EngineConfigBuilder {
        c
    }

    fn straggle(c: EngineConfigBuilder) -> EngineConfigBuilder {
        eject(c)
            .response_deadline(Duration::from_secs(30))
            .instance_deadline(Duration::from_millis(100))
    }

    const CASES: &[Case] = &[
        Case {
            name: "1 in: zero live instances count the sever",
            side: Side::In,
            config: eject,
            script: &[(0, Data(P, "a\n")), (1, Eof(0)), (2, Eof(1)), (3, Eof(2))],
            flow: Flow::Done,
            counts: (0, 1, 3, 0),
            heard: &[(P, "")],
        },
        Case {
            name: "1 out: zero live members end without a sever",
            side: Side::Out,
            config: eject,
            script: &[
                (0, Data(0, "SEL")),
                (0, Data(1, "SEL")),
                (0, Data(2, "SEL")),
                (1, Eof(0)),
                (2, Eof(1)),
                (3, Eof(2)),
            ],
            flow: Flow::Done,
            counts: (0, 0, 3, 0),
            heard: &[(P, "")],
        },
        Case {
            name: "1 in: silence past the deadline counts the sever",
            side: Side::In,
            config: sever,
            script: &[(0, Data(P, "a\n")), (20_000, Timer)],
            flow: Flow::Done,
            counts: (0, 1, 0, 0),
            heard: &[(P, ""), (0, "a\n")],
        },
        Case {
            name: "1 out: silence past the deadline ends without a sever",
            side: Side::Out,
            config: sever,
            script: &[(20_000, Timer)],
            flow: Flow::Done,
            counts: (0, 0, 0, 0),
            heard: &[(P, "")],
        },
        Case {
            name: "2 out, eject: a member closing before data departs uncounted",
            side: Side::Out,
            config: eject,
            script: &[
                (0, Eof(0)),
                (1, Data(1, "q\n")),
                (1, Data(2, "q\n")),
                (2, Data(P, "r\n")),
            ],
            flow: Flow::Continue,
            counts: (1, 0, 0, 0),
            heard: &[(P, "q\n"), (1, "r\n"), (2, "r\n")],
        },
        Case {
            name: "2 out, sever: the last member closing ends the session cleanly",
            side: Side::Out,
            config: sever,
            script: &[(0, Eof(0)), (1, Eof(1)), (2, Eof(2))],
            flow: Flow::Done,
            counts: (0, 0, 0, 0),
            heard: &[(P, "")],
        },
        // The unanimous failure markers forward nothing, and the session
        // gathers again instead of severing: a known gap, pinned as it is.
        Case {
            name: "3 in, sever: every instance failed evaluates before the deadline",
            side: Side::In,
            config: sever,
            script: &[(0, Data(P, "a\n")), (1, Eof(0)), (2, Eof(1)), (3, Eof(2))],
            flow: Flow::Continue,
            counts: (1, 0, 0, 0),
            heard: &[(P, "")],
        },
        Case {
            name: "4 out: a request buffered during the backend read starts the straggler clock",
            side: Side::Out,
            config: straggle,
            script: &[
                (0, Data(0, "q\n")),
                (0, Data(1, "q\n")),
                (0, Data(2, "q\n")),
                (1, Data(0, "q2\n")),
                (2, Data(P, "r\n")),
                (150, Timer),
            ],
            flow: Flow::Done,
            counts: (1, 1, 2, 0),
            heard: &[(P, "q\n"), (0, "r\n")],
        },
        Case {
            name: "4 in: a response buffered before the request starts no straggler clock",
            side: Side::In,
            config: straggle,
            script: &[(0, Data(0, "a\n")), (1, Data(P, "a\n")), (150, Timer)],
            flow: Flow::Continue,
            counts: (0, 0, 0, 0),
            heard: &[(0, "a\n"), (1, "a\n"), (2, "a\n")],
        },
        Case {
            name: "5 in: an ejected instance is re-dialled before the next batch",
            side: Side::In,
            config: eject,
            script: &[
                (0, Data(P, "a\n")),
                (1, Data(0, "a\n")),
                (1, Data(1, "a\n")),
                (1, Eof(2)),
                (2, Data(P, "b\n")),
            ],
            flow: Flow::Continue,
            counts: (1, 0, 1, 1),
            heard: &[(P, "a\n"), (0, "a\nb\n"), (2, "b\n")],
        },
        Case {
            name: "5 out: an ejected member stays out",
            side: Side::Out,
            config: eject,
            script: &[
                (0, Data(0, "a\n")),
                (0, Data(1, "a\n")),
                (0, Data(2, "a")),
                (0, Eof(2)),
                (1, Data(P, "r\n")),
                (2, Data(0, "b\n")),
                (2, Data(1, "b\n")),
            ],
            flow: Flow::Continue,
            counts: (2, 0, 1, 0),
            heard: &[(P, "a\nb\n"), (0, "r\n"), (1, "r\n")],
        },
    ];

    #[test]
    fn the_directions_differ_only_where_designed() {
        for case in CASES {
            let config = (case.config)(EngineConfig::builder(N)).build().unwrap();
            let run = drive(case.side, config, case.script);
            let s = run.stats;
            assert_eq!(run.flow, case.flow, "{}", case.name);
            assert_eq!(
                (s.exchanges, s.severed, s.ejected, s.rejoined),
                case.counts,
                "{}: {s:?}",
                case.name
            );
            for (slot, text) in case.heard {
                assert_eq!(
                    run.heard.get(slot).map(String::as_str),
                    Some(*text),
                    "{}: slot {slot}",
                    case.name
                );
            }
        }
    }

    #[test]
    fn only_incoming_checks_the_instance_count_at_start() {
        // The outgoing proxy cannot check: its members dial in.
        let started = IncomingProxy::start(
            Arc::new(Pipes::default()),
            &ServiceAddr::new("rddr", 80),
            vec![ServiceAddr::new("svc", 9000)],
            EngineConfig::builder(2).build().unwrap(),
            Arc::new(|| Box::new(LineProtocol::new())),
        );
        assert!(matches!(started, Err(ProxyError::Config(_))));
    }
}
