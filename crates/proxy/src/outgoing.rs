//! The RDDR Outgoing Request Proxy.

use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use bytes::BytesMut;
use rddr_core::{Direction, EngineConfig, Frame, Protocol};
use rddr_net::{BoxStream, Network, ServiceAddr};
use rddr_telemetry::Histogram;

use crate::plumbing::ProxyTelemetry;
use crate::reactor::{Ctx, Flow, SessionTask, SLOT_PRIMARY};
use crate::session::{run, Advance, NSide, Proxy, ProxySeries, Verdict};
use crate::{ProtocolFactory, Result, StatsSnapshot};

/// The outgoing request proxy: the N protected instances connect *here*
/// instead of to a downstream microservice. The proxy verifies that all N
/// issue consistent requests, forwards a single merged copy to the real
/// backend, and replicates the backend's response to every instance
/// (Figure 2, bottom half; "one proxy assigned for each distinct
/// microservice" the protected service talks to).
///
/// The proxy groups instance connections into sessions of N in arrival
/// order: Diffy replicates traffic but "does not merge requests to
/// downstream microservices — RDDR addresses this issue with an outgoing
/// proxy to merge traffic streams" (§III-A).
///
/// Sessions run as state machines on a shared reactor pool of O(cores)
/// worker threads — only the accept loop keeps a thread of its own.
///
/// **Grouping assumption**: the N instances' connections for one logical
/// client flow arrive as a contiguous batch. This holds when the incoming
/// proxy serializes exchanges per client session (instances dial the
/// backend while handling the same replicated request) — the deployments
/// of the paper's evaluation. Highly concurrent frontends should instead
/// hold one persistent backend connection per instance, which pins the
/// grouping for the connection's lifetime.
pub struct OutgoingProxy(Proxy);

impl fmt::Debug for OutgoingProxy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.debug("OutgoingProxy", f)
    }
}

impl OutgoingProxy {
    /// Binds `listen` for the N instances and forwards merged traffic to
    /// `backend`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::ProxyError::Bind`] if the listen address is taken.
    pub fn start(
        net: Arc<dyn Network>,
        listen: &ServiceAddr,
        backend: ServiceAddr,
        config: EngineConfig,
        protocol: ProtocolFactory,
    ) -> Result<OutgoingProxy> {
        Self::start_with_telemetry(net, listen, backend, config, protocol, None)
    }

    /// Like [`OutgoingProxy::start`], but the proxy exports to the shared
    /// [`ProxyTelemetry`] bundle (metric names under `{prefix}_out_*`,
    /// divergences to its audit log) and the reactor exports its
    /// worker/session gauges under `{prefix}_out_reactor_*`. With `None`
    /// the proxy exports to a private bundle under the prefix `rddr`,
    /// readable only through [`OutgoingProxy::stats`].
    pub fn start_with_telemetry(
        net: Arc<dyn Network>,
        listen: &ServiceAddr,
        backend: ServiceAddr,
        config: EngineConfig,
        protocol: ProtocolFactory,
        telemetry: Option<ProxyTelemetry>,
    ) -> Result<OutgoingProxy> {
        let session_net = Arc::clone(&net);
        let group = config.instances();
        let proxy = Proxy::start(net, listen, "out", group, telemetry, |series| {
            sessions(session_net, backend, config, protocol, series)
        })?;
        Ok(OutgoingProxy(proxy))
    }

    /// The address the protected instances connect to.
    pub fn listen_addr(&self) -> &ServiceAddr {
        self.0.listen_addr()
    }

    /// Point-in-time counters: a view of the proxy's `{prefix}_out_*`
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

/// The outgoing proxy's session factory: one [`OutSession`] per group of N
/// accepted members, on the proxy's series plus its backend latency.
pub(crate) fn sessions(
    net: Arc<dyn Network>,
    backend: ServiceAddr,
    config: EngineConfig,
    protocol: ProtocolFactory,
    series: &Arc<ProxySeries>,
) -> impl Fn() -> Box<dyn SessionTask> + Send + 'static {
    let backend_us = series.histogram("backend_latency_us");
    let series = Arc::clone(series);
    move || -> Box<dyn SessionTask> {
        Box::new(OutSession::new(
            Arc::clone(&net),
            backend.clone(),
            config.clone(),
            &protocol,
            &series,
            Arc::clone(&backend_us),
        ))
    }
}

/// Where an outgoing session currently is in its exchange cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OutState {
    /// Collecting one complete request from every live member.
    MergeRequests,
    /// Merged request forwarded; reading the backend's complete response.
    BackendRead,
}

/// One merge session of the outgoing proxy, driven by the reactor.
///
/// `MergeRequests` waits, through the shared [`NSide`] core, for one
/// complete request from every live member; `BackendRead` parses the
/// backend's whole response and replicates it to the members. Member data
/// arriving during the backend read is buffered by the engine for the next
/// merge.
struct OutSession {
    nside: NSide,
    net: Arc<dyn Network>,
    backend_addr: ServiceAddr,
    response_protocol: Box<dyn Protocol>,
    /// Merged request written → complete backend response read, µs.
    backend_us: Arc<Histogram>,

    backend_buf: BytesMut,

    state: OutState,

    // Per-exchange merge state.
    /// Members whose close was handled this exchange (sever policy).
    closed: Vec<bool>,
    /// Whether any member sent data since the last merged request went to
    /// the backend: a member closing before that departs cleanly.
    saw_data: bool,

    // Per-exchange backend-read state.
    backend_start: Option<Instant>,
    collected: Vec<Frame>,
    response_buf: Vec<u8>,
}

impl OutSession {
    fn new(
        net: Arc<dyn Network>,
        backend_addr: ServiceAddr,
        config: EngineConfig,
        protocol: &ProtocolFactory,
        series: &Arc<ProxySeries>,
        backend_us: Arc<Histogram>,
    ) -> Self {
        let n = config.instances();
        // The outgoing proxy diffs the instances' *requests*.
        let nside = NSide::new(config, protocol(), Direction::Request, series);
        OutSession {
            nside,
            net,
            backend_addr,
            response_protocol: protocol(),
            backend_us,
            backend_buf: BytesMut::new(),
            state: OutState::MergeRequests,
            closed: vec![false; n],
            saw_data: false,
            backend_start: None,
            collected: Vec::new(),
            response_buf: Vec::new(),
        }
    }

    /// `MergeRequests`: the wait for one request from every live member,
    /// then the merge and the forward to the backend.
    fn merge_requests(&mut self, ctx: &mut Ctx<'_>) -> Advance {
        while let Some(i) = self.nside.next_close() {
            if self.nside.degrade.ejects() {
                // A member closing before any request data this exchange is
                // a clean departure, not a fault.
                if self.saw_data {
                    self.nside.eject(i, ctx);
                } else {
                    self.nside.remove(i, ctx);
                }
                if self.nside.engine.active_count() == 0 {
                    return Advance::Finish; // all members gone: session over
                }
            } else {
                if let Some(c) = self.closed.get_mut(i) {
                    *c = true;
                }
                if self.closed.iter().all(|&c| c) {
                    return Advance::Finish; // all instances done: clean end
                }
                self.nside.fault(i, ctx);
            }
        }

        // A member whose request was already fully buffered (drained during
        // the previous backend read) starts the straggler clock now.
        let engine = &self.nside.engine;
        if self.nside.first_complete.is_none()
            && (0..self.closed.len()).any(|i| engine.is_active(i) && engine.instance_complete(i))
        {
            self.nside.first_complete = Some(ctx.now());
        }

        if self.nside.deadline_wait(ctx) {
            return Advance::Park;
        }
        self.nside.settle(ctx);
        if self.nside.engine.active_count() == 0 {
            return Advance::Finish; // nothing left to merge for
        }
        let Verdict::Forward(merged) = self.nside.evaluate(ctx, false) else {
            return Advance::Finish;
        };

        // Forward the single merged request to the real backend.
        self.backend_start = Some(ctx.now());
        if !ctx.write(SLOT_PRIMARY, &merged) {
            return Advance::Finish;
        }
        self.response_buf.clear();
        self.collected.clear();
        self.saw_data = false;
        self.state = OutState::BackendRead;
        // Backend bytes may already be buffered from the drain.
        Advance::Again
    }

    /// `BackendRead`: parse one complete backend response out of the
    /// buffered backend bytes, then replicate it to the live members. A
    /// backend EOF or split error mid-exchange still replicates the partial
    /// frames collected so far; before any frame it ends the session.
    fn backend_read(&mut self, ctx: &mut Ctx<'_>) -> Advance {
        if self.collected.is_empty() {
            match self
                .response_protocol
                .split_frames(&mut self.backend_buf, Direction::Response)
            {
                Ok(frames) if !frames.is_empty() => self.collected = frames,
                Ok(_) if ctx.at_eof(SLOT_PRIMARY) => return Advance::Finish,
                Ok(_) => return Advance::Park,
                Err(_) => return Advance::Finish,
            }
        }
        // Keep collecting until the response exchange completes (e.g.
        // PostgreSQL: through ReadyForQuery).
        while !self
            .response_protocol
            .exchange_complete(&self.collected, Direction::Response)
        {
            match self
                .response_protocol
                .split_frames(&mut self.backend_buf, Direction::Response)
            {
                Ok(more) if !more.is_empty() => self.collected.extend(more),
                // EOF mid-exchange: replicate the partial frames.
                Ok(_) if ctx.at_eof(SLOT_PRIMARY) => break,
                Ok(_) => return Advance::Park,
                Err(_) => break, // parse error mid-exchange: same
            }
        }
        for f in &self.collected {
            self.response_buf.extend_from_slice(&f.bytes);
        }
        self.collected.clear();
        self.backend_us
            .record_duration(ctx.since(self.backend_start));

        // Replicate the backend's response to every live member.
        let response = &self.response_buf;
        if !self.nside.write_live(ctx, |_| response) || self.nside.engine.active_count() == 0 {
            return Advance::Finish;
        }
        self.begin_exchange(ctx.now());
        self.state = OutState::MergeRequests;
        Advance::Again
    }

    fn begin_exchange(&mut self, now: Instant) {
        self.nside.begin(now);
        self.closed.fill(false);
    }
}

impl SessionTask for OutSession {
    fn init(&mut self, ctx: &mut Ctx<'_>, accepted: Vec<BoxStream>) -> Flow {
        // A member that cannot join the reactor is ejected under an eject
        // policy and fatal under sever.
        for (i, conn) in accepted.into_iter().enumerate() {
            if !self.nside.attach(ctx, i, Some(conn)) {
                return Flow::Done;
            }
        }
        if self.nside.below_floor() {
            return Flow::Done;
        }
        let Ok(backend) = self.net.dial(&self.backend_addr) else {
            return Flow::Done;
        };
        if !ctx.attach(SLOT_PRIMARY, backend) {
            return Flow::Done;
        }
        self.begin_exchange(ctx.now());
        Flow::Continue
    }

    fn on_data(&mut self, ctx: &mut Ctx<'_>, slot: u64, bytes: &[u8]) -> bool {
        if slot == SLOT_PRIMARY {
            self.backend_buf.extend_from_slice(bytes);
            return true;
        }
        self.saw_data = true;
        let merging = self.state == OutState::MergeRequests;
        self.nside.receive(ctx, slot as usize, bytes, merging)
    }

    fn on_close(&mut self, slot: u64) {
        self.nside.closed(slot);
    }

    fn step(&mut self, ctx: &mut Ctx<'_>) -> Flow {
        run(|| match self.state {
            OutState::MergeRequests => self.merge_requests(ctx),
            OutState::BackendRead => self.backend_read(ctx),
        })
    }

    fn teardown(&mut self) {
        self.nside.teardown();
    }

    fn state_ordinal(&self) -> u64 {
        match self.state {
            OutState::MergeRequests => 0,
            OutState::BackendRead => 1,
        }
    }
}
