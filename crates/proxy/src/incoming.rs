//! The RDDR Incoming Request Proxy.

use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use bytes::BytesMut;
use rddr_core::{Direction, EngineConfig, Frame, Protocol, RddrError, INTERVENTION_PAGE};
use rddr_net::{BoxStream, Network, ServiceAddr};
use rddr_telemetry::{Histogram, Span};

use crate::plumbing::ProxyTelemetry;
use crate::reactor::{Ctx, Flow, SessionTask, SLOT_PRIMARY};
use crate::session::{run, Advance, NSide, Proxy, ProxySeries, Verdict};
use crate::{ProtocolFactory, ProxyError, Result, StatsSnapshot};

/// The span label of a data wake on instance `i`: `instance:{i}:data`,
/// from a static table for the instance counts deployments use.
fn data_label(i: usize) -> Cow<'static, str> {
    const LABELS: [&str; 8] = [
        "instance:0:data",
        "instance:1:data",
        "instance:2:data",
        "instance:3:data",
        "instance:4:data",
        "instance:5:data",
        "instance:6:data",
        "instance:7:data",
    ];
    match LABELS.get(i) {
        Some(&label) => Cow::Borrowed(label),
        None => Cow::Owned(format!("instance:{i}:data")),
    }
}

/// The latency series only the incoming proxy maintains, under
/// `{prefix}_in_*`.
struct InSeries {
    /// Client request accepted → response forwarded (or severed), µs.
    exchange_us: Arc<Histogram>,
    /// Writing the N replicated request copies, µs.
    fanout_us: Arc<Histogram>,
    /// Arrival lag of instance response data after fan-out, µs (all
    /// instances pooled).
    instance_us: Arc<Histogram>,
}

/// The incoming request proxy: clients connect here instead of to the
/// protected microservice; every request is replicated to the N instances
/// and their responses are diffed (Figure 2, top half).
///
/// Sessions run as state machines on a shared reactor pool of O(cores)
/// worker threads — only the accept loop keeps a thread of its own, so
/// thread count stays flat as concurrent client sessions grow.
///
/// Start with [`IncomingProxy::start`]; the returned handle owns the accept
/// loop and the reactor pool, and stops both on drop.
pub struct IncomingProxy(Proxy);

impl fmt::Debug for IncomingProxy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.debug("IncomingProxy", f)
    }
}

impl IncomingProxy {
    /// Binds `listen` and starts proxying to `instances`.
    ///
    /// # Errors
    ///
    /// Returns [`ProxyError::Config`] if the instance list length differs
    /// from the configured N, or [`ProxyError::Bind`] if the listen address
    /// is taken.
    pub fn start(
        net: Arc<dyn Network>,
        listen: &ServiceAddr,
        instances: Vec<ServiceAddr>,
        config: EngineConfig,
        protocol: ProtocolFactory,
    ) -> Result<IncomingProxy> {
        Self::start_with_telemetry(net, listen, instances, config, protocol, None)
    }

    /// Like [`IncomingProxy::start`], but the proxy exports to the shared
    /// [`ProxyTelemetry`] bundle: its counters and fan-out/merge latency
    /// histograms go to the registry (metric names under `{prefix}_in_*`),
    /// divergence incidents to the audit log, and the reactor exports its
    /// worker/session gauges under `{prefix}_in_reactor_*`. With `None` the
    /// proxy exports to a private bundle under the prefix `rddr`, readable
    /// only through [`IncomingProxy::stats`].
    pub fn start_with_telemetry(
        net: Arc<dyn Network>,
        listen: &ServiceAddr,
        instances: Vec<ServiceAddr>,
        config: EngineConfig,
        protocol: ProtocolFactory,
        telemetry: Option<ProxyTelemetry>,
    ) -> Result<IncomingProxy> {
        if instances.len() != config.instances() {
            return Err(ProxyError::Config(format!(
                "config expects {} instances but {} addresses were given",
                config.instances(),
                instances.len()
            )));
        }
        let session_net = Arc::clone(&net);
        let proxy = Proxy::start(net, listen, "in", 1, telemetry, |series| {
            sessions(session_net, instances, config, protocol, series)
        })?;
        Ok(IncomingProxy(proxy))
    }

    /// The address clients connect to.
    pub fn listen_addr(&self) -> &ServiceAddr {
        self.0.listen_addr()
    }

    /// Point-in-time counters: a view of the proxy's `{prefix}_in_*`
    /// series. Proxies started on one [`ProxyTelemetry`] prefix share those
    /// series, so each one's view counts them all.
    pub fn stats(&self) -> StatsSnapshot {
        self.0.stats()
    }

    /// Number of reactor workers serving this proxy's sessions.
    pub fn workers(&self) -> usize {
        self.0.workers()
    }

    /// Stops accepting new sessions and unbinds the listen address.
    /// In-flight sessions keep running until the proxy is dropped.
    pub fn stop(&mut self) {
        self.0.stop();
    }
}

/// The incoming proxy's session factory: one [`InSession`] per accepted
/// client, on the proxy's series plus the latency series only it keeps.
pub(crate) fn sessions(
    net: Arc<dyn Network>,
    instances: Vec<ServiceAddr>,
    config: EngineConfig,
    protocol: ProtocolFactory,
    series: &Arc<ProxySeries>,
) -> impl Fn() -> Box<dyn SessionTask> + Send + 'static {
    let own = Arc::new(InSeries {
        exchange_us: series.histogram("exchange_latency_us"),
        fanout_us: series.histogram("fanout_latency_us"),
        instance_us: series.histogram("instance_response_us"),
    });
    let (instances, series) = (Arc::new(instances), Arc::clone(series));
    move || -> Box<dyn SessionTask> {
        Box::new(InSession::new(
            Arc::clone(&net),
            Arc::clone(&instances),
            config.clone(),
            &protocol,
            &series,
            Arc::clone(&own),
        ))
    }
}

/// Where an incoming session currently is in its exchange cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InState {
    /// Reading client bytes until at least one complete request frame.
    Gather,
    /// A batch is fanned out; merging instance responses unit by unit.
    Merge,
}

/// One client session of the incoming proxy, driven by the reactor.
///
/// `Gather` buffers client bytes until a request frame is complete; `Merge`
/// waits for the instances' responses unit by unit, through the shared
/// [`NSide`] core. Instance data arriving before its unit starts merging is
/// pushed straight into the engine, which buffers it.
struct InSession {
    nside: NSide,
    net: Arc<dyn Network>,
    instances: Arc<Vec<ServiceAddr>>,
    is_http: bool,
    request_protocol: Box<dyn Protocol>,
    series: Arc<InSeries>,

    state: InState,
    request_buf: BytesMut,
    request_frames: Vec<Frame>,
    next_frame: usize,
    pipelined: bool,

    // Per-batch state (valid while `state == Merge`).
    exchange_start: Option<Instant>,
    span: Arc<Span>,
    throttled_stop: bool,
    hard_stop: bool,
    units: usize,
    units_done: usize,
    forward_buf: Vec<u8>,
    fanout_bufs: Vec<Vec<u8>>,
}

impl InSession {
    fn new(
        net: Arc<dyn Network>,
        instances: Arc<Vec<ServiceAddr>>,
        config: EngineConfig,
        protocol: &ProtocolFactory,
        proxy_series: &Arc<ProxySeries>,
        series: Arc<InSeries>,
    ) -> Self {
        let nside = NSide::new(config, protocol(), Direction::Response, proxy_series);
        let request_protocol = protocol();
        let is_http = request_protocol.name() == "http";
        let n = instances.len();
        InSession {
            nside,
            net,
            instances,
            is_http,
            request_protocol,
            series,
            state: InState::Gather,
            request_buf: BytesMut::new(),
            request_frames: Vec::new(),
            next_frame: 0,
            pipelined: false,
            exchange_start: None,
            span: Arc::new(Span::start("exchange")),
            throttled_stop: false,
            hard_stop: false,
            units: 0,
            units_done: 0,
            forward_buf: Vec::new(),
            fanout_bufs: (0..n).map(|_| Vec::new()).collect(),
        }
    }

    /// `Gather`: split complete request frames out of the buffer and start
    /// the next fan-out window, or park until more client bytes arrive (or
    /// finish once the client has closed).
    fn gather(&mut self, ctx: &mut Ctx<'_>) -> Advance {
        if self.next_frame < self.request_frames.len() {
            return self.start_window(ctx);
        }
        match self
            .request_protocol
            .split_frames(&mut self.request_buf, Direction::Request)
        {
            Ok(frames) if !frames.is_empty() => {
                self.pipelined = frames.len() > 1 && self.request_protocol.supports_pipelining();
                self.request_frames = frames;
                self.next_frame = 0;
                self.start_window(ctx)
            }
            Ok(_) if ctx.at_eof(SLOT_PRIMARY) => Advance::Finish,
            Ok(_) => Advance::Park,
            Err(_) => Advance::Finish,
        }
    }

    /// Replicates and fans out the next window of buffered request frames,
    /// then enters `Merge`: rejoin probes, span, throttle clamp, replicate,
    /// fan-out.
    fn start_window(&mut self, ctx: &mut Ctx<'_>) -> Advance {
        // Once the signature throttle has recorded a divergence the batch
        // depth clamps to one frame: every frame then meets a fully
        // up-to-date throttle instead of the lagging whole-batch check.
        let batch_end = if self.pipelined && !self.nside.engine.session().throttle_engaged() {
            self.request_frames.len()
        } else {
            self.next_frame + 1
        };

        // A replica ejected in an earlier exchange gets a rejoin probe
        // before each new batch: a successful re-dial readmits it.
        if self.nside.degrade.ejects() && self.nside.engine.active_count() < self.instances.len() {
            self.attempt_rejoins(ctx);
        }

        // One span per batch: it travels into the engine, shows up in any
        // divergence audit record, and times the proxy's own phases.
        self.exchange_start = Some(ctx.now());
        self.span = Arc::new(Span::start("exchange"));
        self.nside.engine.set_span(Arc::clone(&self.span));

        // Replicate every frame of the batch up front. The signature
        // throttle is consulted per frame at fan-out time; a throttled
        // frame severs the session once the units already on the wire have
        // been answered.
        let mut unit_copies: Vec<Vec<rddr_core::RequestCopy>> = Vec::new();
        self.throttled_stop = false;
        self.hard_stop = false;
        let Some(batch) = self.request_frames.get(self.next_frame..batch_end) else {
            return Advance::Finish;
        };
        self.next_frame = batch_end;
        for frame in batch {
            match self.nside.engine.replicate_request(&frame.bytes) {
                Ok(copies) => unit_copies.push(copies),
                Err(RddrError::Throttled) => {
                    self.throttled_stop = true;
                    break;
                }
                Err(_) => {
                    self.hard_stop = true;
                    break;
                }
            }
        }
        if unit_copies.is_empty() {
            if self.throttled_stop {
                self.sever(ctx);
            }
            return Advance::Finish;
        }

        // Fan out: one write per instance covering the whole batch.
        let fanout_start = ctx.now();
        let written = if let [copies] = unit_copies.as_slice() {
            self.nside
                .write_live(ctx, |i| copies.get(i).map_or(&[], |c| c.as_bytes()))
        } else {
            for (i, buf) in self.fanout_bufs.iter_mut().enumerate() {
                buf.clear();
                if self.nside.engine.is_active(i) {
                    for copy in unit_copies.iter().filter_map(|copies| copies.get(i)) {
                        buf.extend_from_slice(copy);
                    }
                }
            }
            let bufs = &self.fanout_bufs;
            self.nside
                .write_live(ctx, |i| bufs.get(i).map_or(&[], Vec::as_slice))
        };
        if !written {
            self.sever(ctx);
            return Advance::Finish;
        }
        self.series
            .fanout_us
            .record_duration(ctx.since(Some(fanout_start)));
        self.span.event("fanout:done");

        self.units = unit_copies.len();
        self.units_done = 0;
        self.forward_buf.clear();
        self.state = InState::Merge;
        self.nside.begin(ctx.now());
        Advance::Again
    }

    /// `Merge`: the wait for one exchange unit, then its completion. Runs
    /// on data wakes, close processing and timer fires alike.
    fn merge(&mut self, ctx: &mut Ctx<'_>) -> Advance {
        while let Some(i) = self.nside.next_close() {
            self.span.event(format!("instance:{i}:closed"));
            self.nside.fault(i, ctx);
        }
        // Under the sever policy a session whose every instance has faulted
        // has nothing left to wait for: evaluate immediately (the diff over
        // the failure markers severs it).
        let all_failed = !self.nside.degrade.ejects() && self.nside.failed.iter().all(|&f| f);
        if !all_failed && self.nside.deadline_wait(ctx) {
            return Advance::Park;
        }
        self.nside.settle(ctx);
        // De-noise + Diff + Respond. Pipelined batches consume one exchange
        // unit per pass; the classic path takes everything buffered, so a
        // surplus frame still diffs against the exchange that provoked it.
        let verdict = self.nside.evaluate(ctx, self.pipelined);
        if matches!(verdict, Verdict::Forward(_) | Verdict::Severed) {
            self.series
                .exchange_us
                .record_duration(ctx.since(self.exchange_start));
        }
        let Verdict::Forward(bytes) = verdict else {
            if matches!(verdict, Verdict::Silent) {
                // Every live instance stayed silent past the deadline: a
                // sever like any other.
                self.nside.count_sever();
            }
            self.flush_forwards(ctx);
            self.sever(ctx);
            return Advance::Finish;
        };
        // Forwards for a batch accumulate and reach the client in one write
        // once every unit is answered.
        self.forward_buf.extend_from_slice(&bytes);
        self.units_done += 1;
        if self.units_done < self.units {
            self.nside.begin(ctx.now());
            // Data for the next unit may already be buffered in the engine.
            return Advance::Again;
        }

        // Batch complete: flush forwards, then back to gathering (or stop).
        if !self.forward_buf.is_empty() {
            let flushed = ctx.write(SLOT_PRIMARY, &self.forward_buf);
            self.forward_buf.clear();
            if !flushed {
                return Advance::Finish;
            }
        }
        if self.throttled_stop {
            self.sever(ctx);
            return Advance::Finish;
        }
        if self.hard_stop {
            return Advance::Finish;
        }
        self.state = InState::Gather;
        Advance::Again
    }

    /// Probes every ejected instance once: a successful re-dial plus
    /// readiness registration is the warm-up check that readmits the
    /// replica into the diff set.
    fn attempt_rejoins(&mut self, ctx: &mut Ctx<'_>) {
        for (i, addr) in self.instances.iter().enumerate() {
            if self.nside.engine.is_active(i) {
                continue;
            }
            if let Ok(conn) = self.net.dial(addr) {
                self.nside.rejoin(ctx, i, conn);
            }
        }
    }

    /// Writes any accumulated batch forwards to the client before the
    /// session is severed, so units answered ahead of a mid-batch sever
    /// still reach the client in order. Best-effort: a failed write
    /// changes nothing on a session being severed anyway.
    fn flush_forwards(&mut self, ctx: &mut Ctx<'_>) {
        if !self.forward_buf.is_empty() {
            let _ = ctx.write(SLOT_PRIMARY, &self.forward_buf);
            self.forward_buf.clear();
        }
    }

    /// Severs the session: sends the HTTP intervention page, best-effort.
    /// The session then finishes, and the reactor closes the client and
    /// every instance.
    fn sever(&mut self, ctx: &mut Ctx<'_>) {
        if self.is_http {
            let _ = ctx.write(SLOT_PRIMARY, INTERVENTION_PAGE.as_bytes());
        }
    }
}

impl SessionTask for InSession {
    fn init(&mut self, ctx: &mut Ctx<'_>, accepted: Vec<BoxStream>) -> Flow {
        let Some(client) = accepted.into_iter().next() else {
            return Flow::Done;
        };
        if !ctx.attach(SLOT_PRIMARY, client) {
            return Flow::Done;
        }
        // Dial every instance. Under the default sever policy any
        // unreachable instance aborts the whole session; under an eject
        // policy it is ejected and the session starts degraded, as long as
        // enough survivors remain.
        for (i, addr) in self.instances.iter().enumerate() {
            if !self.nside.attach(ctx, i, self.net.dial(addr).ok()) {
                return Flow::Done;
            }
        }
        if self.nside.below_floor() {
            return Flow::Done;
        }
        Flow::Continue
    }

    fn on_data(&mut self, ctx: &mut Ctx<'_>, slot: u64, bytes: &[u8]) -> bool {
        if slot == SLOT_PRIMARY {
            self.request_buf.extend_from_slice(bytes);
            return true;
        }
        let merging = self.state == InState::Merge;
        if merging {
            self.series
                .instance_us
                .record_duration(ctx.since(self.nside.t0));
            self.span.event(data_label(slot as usize));
        }
        self.nside.receive(ctx, slot as usize, bytes, merging)
    }

    fn on_close(&mut self, slot: u64) {
        self.nside.closed(slot);
    }

    fn step(&mut self, ctx: &mut Ctx<'_>) -> Flow {
        run(|| match self.state {
            InState::Gather => self.gather(ctx),
            InState::Merge => self.merge(ctx),
        })
    }

    fn teardown(&mut self) {
        self.nside.teardown();
    }

    fn state_ordinal(&self) -> u64 {
        match self.state {
            InState::Gather => 0,
            InState::Merge => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_labels_render_as_formatted() {
        for i in [0, 1, 7, 8, 12] {
            let label = data_label(i);
            assert_eq!(label, format!("instance:{i}:data"));
            assert_eq!(matches!(label, Cow::Borrowed(_)), i < 8);
        }
    }
}
