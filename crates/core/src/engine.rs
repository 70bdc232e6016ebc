//! The N-versioning engine: one instance per protected microservice
//! connection, orchestrating Replicate → De-noise → Diff → Respond.

use std::borrow::Cow;
use std::sync::Arc;
use std::time::Instant;

use bytes::BytesMut;
use rddr_telemetry::{AuditLog, DivergenceRecord, Span};

use crate::diff::diff_lists;
use crate::metrics::EngineCounters;
use crate::{
    Direction, DivergenceReport, EngineConfig, EngineMetrics, EphemeralStore, Frame, NoiseMask,
    PolicyDecision, Protocol, RddrError, Result, SegmentMask, SegmentTable, SignatureThrottle,
};

/// Frame slots (per instance) and mask entries the exchange scratch keeps
/// between exchanges; a larger exchange's are given back once it is
/// evaluated, like table memory above [`SegmentTable::MAX_RETAINED`], so an
/// idle session never pins its largest response.
const MAX_RETAINED_FRAMES: usize = 1024;
const MAX_RETAINED_MASKS: usize = 1024;

/// Per-connection mutable state: live ephemeral tokens and the divergence
/// signature throttle.
#[derive(Debug, Default)]
pub struct SessionState {
    /// Captured ephemeral (CSRF-like) tokens awaiting substitution.
    pub ephemeral: EphemeralStore,
    /// Divergence-signature throttle, when configured.
    pub throttle: Option<SignatureThrottle>,
}

impl SessionState {
    /// Whether the signature throttle is configured *and* has recorded at
    /// least one divergence signature. Callers that batch requests ahead of
    /// the throttle check (pipelined fan-out) use this to fall back to
    /// frame-at-a-time processing, so the throttle state can no longer lag
    /// behind frames already committed to a batch.
    pub fn throttle_engaged(&self) -> bool {
        self.throttle.as_ref().is_some_and(|t| !t.is_empty())
    }
}

/// The verdict for one exchange.
#[derive(Debug, Clone)]
pub enum Verdict {
    /// All instances agreed (after de-noising); the payload is the response
    /// to forward — the first instance's bytes, per the paper.
    Unanimous(Vec<u8>),
    /// Instances disagreed; the report describes how.
    Divergent(DivergenceReport),
}

/// One instance's share of a replicated request.
///
/// The overwhelmingly common case is `Shared`: every instance reads the same
/// single allocation. A private `Rewritten` copy exists only when
/// ephemeral-token substitution actually rewrote the bytes for that instance
/// (copy-on-write). Derefs to `[u8]`, so writers consume it like a plain
/// byte slice.
#[derive(Debug, Clone)]
pub enum RequestCopy {
    /// Untouched request bytes, shared across all instances.
    Shared(Arc<[u8]>),
    /// Bytes rewritten for this instance by ephemeral-token substitution.
    Rewritten(Vec<u8>),
}

impl RequestCopy {
    /// Whether this copy shares the original allocation (no rewrite fired).
    pub fn is_shared(&self) -> bool {
        matches!(self, RequestCopy::Shared(_))
    }

    /// The request bytes to send to the instance.
    pub fn as_bytes(&self) -> &[u8] {
        match self {
            RequestCopy::Shared(bytes) => bytes,
            RequestCopy::Rewritten(bytes) => bytes,
        }
    }
}

impl std::ops::Deref for RequestCopy {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_bytes()
    }
}

impl AsRef<[u8]> for RequestCopy {
    fn as_ref(&self) -> &[u8] {
        self.as_bytes()
    }
}

/// Everything the proxy needs to act on one completed exchange.
#[derive(Debug, Clone)]
pub struct ExchangeOutcome {
    /// The divergence report (empty details when unanimous). Instance
    /// indices are in the engine's original 0..N numbering even when some
    /// instances were ejected before the diff.
    pub report: DivergenceReport,
    /// What the response policy decided.
    pub decision: PolicyDecision,
    /// Bytes to forward to the client, when the decision is `Forward`.
    pub forward: Option<Vec<u8>>,
    /// Instances (original indices) outvoted by a majority forward: they
    /// diverged but the exchange was answered anyway, so the proxy should
    /// quarantine them rather than sever. Empty when unanimous or severed.
    pub quarantined: Vec<usize>,
}

impl ExchangeOutcome {
    /// Whether the connection should be severed.
    pub fn severed(&self) -> bool {
        matches!(self.decision, PolicyDecision::Sever { .. })
    }
}

/// The RDDR engine for one protected microservice connection.
///
/// The engine is synchronous and transport-free: the proxy feeds it request
/// bytes and per-instance response bytes; the engine renders verdicts. See
/// the crate-level docs for the phase pipeline.
pub struct NVersionEngine {
    config: EngineConfig,
    protocol: Box<dyn Protocol>,
    state: SessionState,
    counters: EngineCounters,
    audit: Option<Arc<AuditLog>>,
    span: Option<Arc<Span>>,
    // Token totals already folded into the (possibly shared) counters; the
    // ephemeral store reports running totals, so deltas are added.
    tokens_captured_reported: u64,
    tokens_substituted_reported: u64,
    response_bufs: Vec<BytesMut>,
    pending_frames: Vec<Vec<Frame>>,
    active: Vec<bool>,
    // Per-exchange scratch, refilled by every `finish_exchange*` and emptied
    // after it, so a steady-state exchange allocates nothing that grows with
    // its segment count: the live instances' original indices, their frames,
    // one segment table per live instance and the learned mask.
    live: Vec<usize>,
    exchange_frames: Vec<Vec<Frame>>,
    tables: Vec<SegmentTable>,
    mask: NoiseMask,
    // Captured only when the throttle or audit path will read it back.
    last_request: Option<Arc<[u8]>>,
    direction: Direction,
}

impl std::fmt::Debug for NVersionEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NVersionEngine")
            .field("instances", &self.config.instances())
            .field("protocol", &self.protocol.name())
            .field("metrics", &self.counters.snapshot())
            .finish()
    }
}

impl NVersionEngine {
    /// Creates an engine from a validated configuration and protocol module.
    pub fn new(config: EngineConfig, protocol: impl Protocol + 'static) -> Self {
        Self::from_boxed(config, Box::new(protocol))
    }

    /// Like [`NVersionEngine::new`] but accepting an already-boxed protocol
    /// (the proxies build protocols from runtime configuration).
    pub fn from_boxed(config: EngineConfig, protocol: Box<dyn Protocol>) -> Self {
        Self::with_telemetry(config, protocol, EngineCounters::private(), None)
    }

    /// An engine on a shared telemetry surface: it increments `counters`
    /// (so every engine holding a clone feeds one set of series, scraped
    /// via the admin endpoint) and appends its divergences to `audit` when
    /// provided, naming the counters' prefix as the service.
    pub fn with_telemetry(
        config: EngineConfig,
        protocol: Box<dyn Protocol>,
        counters: EngineCounters,
        audit: Option<Arc<AuditLog>>,
    ) -> Self {
        let n = config.instances();
        let throttle = config.throttle_budget().map(SignatureThrottle::new);
        Self {
            config,
            protocol,
            state: SessionState {
                ephemeral: EphemeralStore::new(),
                throttle,
            },
            counters,
            audit,
            span: None,
            tokens_captured_reported: 0,
            tokens_substituted_reported: 0,
            response_bufs: (0..n).map(|_| BytesMut::new()).collect(),
            pending_frames: (0..n).map(|_| Vec::new()).collect(),
            active: vec![true; n],
            live: Vec::with_capacity(n),
            exchange_frames: Vec::new(),
            tables: vec![SegmentTable::new(); n],
            mask: NoiseMask::none(),
            last_request: None,
            direction: Direction::Response,
        }
    }

    /// Associates the current exchange with a span; the engine records
    /// `replicate`/`diff`/`respond:*` events on it and attaches its timeline
    /// to any divergence audit record.
    pub fn set_span(&mut self, span: Arc<Span>) {
        self.span = Some(span);
    }

    /// Configures which traffic direction this engine diffs. The incoming
    /// proxy diffs instance *responses* (the default); the outgoing proxy
    /// diffs instance *requests* to a shared backend (§IV-B).
    pub fn diff_direction(mut self, direction: Direction) -> Self {
        self.direction = direction;
        self
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Accumulated metrics — a snapshot of the engine's registry counters.
    /// With shared telemetry attached, values cover every engine on the same
    /// registry prefix, not just this one.
    pub fn metrics(&self) -> EngineMetrics {
        self.counters.snapshot()
    }

    /// The per-connection session state (ephemeral tokens, throttle).
    pub fn session(&self) -> &SessionState {
        &self.state
    }

    /// **Replicate**: produces the per-instance request copies, applying
    /// ephemeral-token substitution (§IV-B3) and the divergence-signature
    /// throttle (§IV-D).
    ///
    /// # Errors
    ///
    /// Returns [`RddrError::Throttled`] if the request matches a recorded
    /// divergence signature beyond its budget.
    pub fn replicate_request(&mut self, request: &[u8]) -> Result<Vec<RequestCopy>> {
        if let Some(throttle) = &self.state.throttle {
            if throttle.should_refuse(request) {
                self.counters.throttled.inc();
                if let Some(span) = &self.span {
                    span.event("throttle:refused");
                }
                return Err(RddrError::Throttled);
            }
        }
        if let Some(span) = &self.span {
            span.event("replicate");
        }
        // One shared allocation serves every instance that needs no rewrite.
        let shared: Arc<[u8]> = Arc::from(request);
        self.last_request =
            (self.state.throttle.is_some() || self.audit.is_some()).then(|| Arc::clone(&shared));
        let n = self.config.instances();
        let copies = if self.protocol.supports_ephemeral() && !self.state.ephemeral.is_empty() {
            let out: Vec<RequestCopy> = (0..n)
                .map(|i| {
                    match self.state.ephemeral.substitute_rewritten(request, i) {
                        // Copy-on-write: only a fired substitution pays for
                        // a private copy.
                        Some(rewritten) => RequestCopy::Rewritten(rewritten),
                        None => RequestCopy::Shared(Arc::clone(&shared)),
                    }
                })
                .collect();
            self.state.ephemeral.purge_consumed();
            let total = self.state.ephemeral.substituted_total();
            self.counters
                .tokens_substituted
                .add(total - self.tokens_substituted_reported);
            self.tokens_substituted_reported = total;
            out
        } else {
            (0..n)
                .map(|_| RequestCopy::Shared(Arc::clone(&shared)))
                .collect()
        };
        Ok(copies)
    }

    /// Feeds raw response bytes from one instance, splitting complete frames.
    ///
    /// # Errors
    ///
    /// Returns [`RddrError::InstanceCountMismatch`] for an out-of-range
    /// instance index, or a protocol error on malformed traffic.
    pub fn push_response(&mut self, instance: usize, bytes: &[u8]) -> Result<()> {
        let n = self.config.instances();
        if instance >= n {
            return Err(RddrError::InstanceCountMismatch {
                expected: n,
                got: instance + 1,
            });
        }
        if !self.active[instance] {
            // An ejected instance's stream may still deliver bytes before its
            // session deregisters it; they are dropped rather than
            // corrupting the next diff.
            return Ok(());
        }
        self.response_bufs[instance].extend_from_slice(bytes);
        let frames = self
            .protocol
            .split_frames(&mut self.response_bufs[instance], self.direction)?;
        self.pending_frames[instance].extend(frames);
        Ok(())
    }

    /// Whether every *active* instance has produced one complete exchange
    /// unit (ejected instances are not waited for).
    pub fn exchange_ready(&self) -> bool {
        self.pending_frames
            .iter()
            .zip(&self.active)
            .filter(|&(_, active)| *active)
            .all(|(frames, _)| self.protocol.exchange_complete(frames, self.direction))
    }

    /// Whether one specific instance has produced a complete exchange unit.
    pub fn instance_complete(&self, instance: usize) -> bool {
        self.pending_frames
            .get(instance)
            .is_some_and(|frames| self.protocol.exchange_complete(frames, self.direction))
    }

    /// Marks an instance as failed (timed out or disconnected). The instance
    /// contributes an empty output, which registers as structural divergence
    /// unless every instance failed identically.
    pub fn mark_failed(&mut self, instance: usize) {
        if instance < self.pending_frames.len() && self.active[instance] {
            self.pending_frames[instance].clear();
            self.pending_frames[instance].push(Frame::new("failed", Vec::new()));
        }
    }

    /// Ejects an instance from the session: its buffered bytes are dropped
    /// and subsequent exchanges diff over the survivors only. Idempotent;
    /// out-of-range indices are ignored.
    pub fn eject(&mut self, instance: usize) {
        if let Some(slot) = self.active.get_mut(instance) {
            *slot = false;
        }
        if let Some(buf) = self.response_bufs.get_mut(instance) {
            buf.clear();
        }
        if let Some(frames) = self.pending_frames.get_mut(instance) {
            frames.clear();
        }
    }

    /// Readmits a previously ejected instance with fresh buffers (the rejoin
    /// step after a respawn + warm-up probe). Idempotent.
    pub fn readmit(&mut self, instance: usize) {
        if let Some(slot) = self.active.get_mut(instance) {
            *slot = true;
        }
        if let Some(buf) = self.response_bufs.get_mut(instance) {
            buf.clear();
        }
        if let Some(frames) = self.pending_frames.get_mut(instance) {
            frames.clear();
        }
    }

    /// Whether an instance is currently part of the diff set.
    pub fn is_active(&self, instance: usize) -> bool {
        self.active.get(instance).copied().unwrap_or(false)
    }

    /// How many instances are currently part of the diff set.
    pub fn active_count(&self) -> usize {
        self.active.iter().filter(|&&a| a).count()
    }

    /// The original indices of the instances currently in the diff set.
    pub fn active_instances(&self) -> Vec<usize> {
        (0..self.active.len()).filter(|&i| self.active[i]).collect()
    }

    /// **De-noise + Diff + Respond**: evaluates the buffered exchange.
    ///
    /// Consumes the pending frames and returns the outcome. On divergence,
    /// the triggering request's signature is recorded for throttling.
    ///
    /// # Errors
    ///
    /// Returns [`RddrError::Protocol`] if called before any instance
    /// produced a complete exchange (`exchange_ready` is false and no frames
    /// are buffered at all).
    pub fn finish_exchange(&mut self) -> Result<ExchangeOutcome> {
        self.finish_exchange_impl(false)
    }

    /// Like [`NVersionEngine::finish_exchange`], but consumes exactly one
    /// exchange *unit* per instance (per [`Protocol::exchange_take`]) instead
    /// of everything buffered. The proxies use this when evaluating pipelined
    /// exchanges, where responses pair 1:1 with the batched requests; the
    /// take-all variant stays the default so a surplus frame (e.g. a leaked
    /// extra line) diffs against the exchange that provoked it.
    ///
    /// # Errors
    ///
    /// Same as [`NVersionEngine::finish_exchange`].
    pub fn finish_exchange_unit(&mut self) -> Result<ExchangeOutcome> {
        self.finish_exchange_impl(true)
    }

    fn finish_exchange_impl(&mut self, unit: bool) -> Result<ExchangeOutcome> {
        // `live[compact] = original` maps the diff's dense instance numbering
        // back to the engine's 0..N ids once ejections have thinned the set.
        let mut live = std::mem::take(&mut self.live);
        live.clear();
        live.extend((0..self.active.len()).filter(|&i| self.active[i]));
        let mut frames = std::mem::take(&mut self.exchange_frames);
        let result = self.evaluate(unit, &live, &mut frames);
        for slot in &mut frames {
            slot.clear();
            if slot.capacity() > MAX_RETAINED_FRAMES {
                *slot = Vec::new();
            }
        }
        for table in &mut self.tables {
            table.clear();
        }
        if self.mask.len() > MAX_RETAINED_MASKS {
            self.mask = NoiseMask::none();
        }
        self.live = live;
        self.exchange_frames = frames;
        result
    }

    /// Evaluates one exchange of the `live` instances, moving their frames
    /// into `frames` (one slot per live instance, in `live` order).
    fn evaluate(
        &mut self,
        unit: bool,
        live: &[usize],
        frames: &mut Vec<Vec<Frame>>,
    ) -> Result<ExchangeOutcome> {
        if live.is_empty() {
            return Err(RddrError::Protocol(
                "no active instances in exchange".into(),
            ));
        }
        if live.iter().all(|&i| self.pending_frames[i].is_empty()) {
            return Err(RddrError::Protocol(
                "no frames buffered for any instance".into(),
            ));
        }
        let eval_start = Instant::now();
        if let Some(span) = &self.span {
            span.event("diff");
        }
        frames.resize_with(live.len(), Vec::new);
        for (slot, &i) in frames.iter_mut().zip(live) {
            let pending = &mut self.pending_frames[i];
            let take = if unit {
                self.protocol
                    .exchange_take(pending, self.direction)
                    .unwrap_or(pending.len())
                    .min(pending.len())
            } else {
                pending.len()
            };
            // drain (not mem::take) keeps the Vec's capacity for the next
            // exchange and, in unit mode, leaves pipelined frames beyond
            // this unit buffered.
            slot.extend(pending.drain(..take));
        }

        // Unanimous fast path: when every live instance produced
        // byte-identical critical frames, neither de-noising nor diffing can
        // change the verdict (identical payloads yield an empty filter-pair
        // mask, no ephemeral capture, and no differing segments), so the
        // full pipeline is skipped outright. Disabled when known-variance
        // rules are configured so `variance_excluded` accounting stays exact.
        if self.config.fast_path() && self.config.variance().is_empty() {
            if frames_unanimous(frames) {
                self.counters.fastpath_hits.inc();
                self.counters.exchanges.inc();
                let decision = PolicyDecision::Forward { instance: live[0] };
                if let Some(span) = &self.span {
                    span.event(forward_label(live[0]));
                }
                let forward = Some(take_bytes(&mut frames[0]));
                self.counters
                    .eval_latency_us
                    .record_duration(eval_start.elapsed());
                return Ok(ExchangeOutcome {
                    report: DivergenceReport::default(),
                    decision,
                    forward,
                    quarantined: Vec::new(),
                });
            }
            self.counters.fastpath_misses.inc();
        }

        // Tokenize each instance's critical frames into its segment table
        // (left empty by the previous exchange).
        for (table, instance_frames) in self.tables.iter_mut().zip(frames.iter()) {
            for frame in instance_frames.iter().filter(|f| f.critical) {
                self.protocol.tokenize_into(frame, table);
            }
        }
        let tables = &self.tables[..live.len()];

        // De-noise (§IV-B2): mask byte ranges on which the filter pair
        // differs. If either member of the pair has been ejected, filtering
        // is disabled for the exchange (the pair's whole point is that both
        // run identical versions).
        let compact = |original: usize| live.iter().position(|&i| i == original);
        match self.config.filter_pair() {
            Some((a, b)) => match (compact(a), compact(b)) {
                (Some(ca), Some(cb)) => self.mask.learn(&tables[ca], &tables[cb]),
                _ => self.mask.clear(),
            },
            None => self.mask.clear(),
        }

        // Ephemeral-state capture (§IV-B3), HTTP-style protocols only. A
        // captured token's range is masked unless the pair already masks
        // that position.
        let mut tokens_captured = 0;
        if self.protocol.supports_ephemeral() {
            let min_len = tables.iter().map(SegmentTable::len).min().unwrap_or(0);
            for pos in 0..min_len {
                let scanned = self
                    .state
                    .ephemeral
                    .scan_at(tables.len(), |i| tables[i].payload(pos));
                if let Some((prefix, suffix)) = scanned {
                    tokens_captured += 1;
                    if self.mask.mask_for(pos).is_none() {
                        self.mask.add(SegmentMask {
                            index: pos,
                            prefix,
                            suffix,
                            whole: false,
                        });
                    }
                }
            }
            let total = self.state.ephemeral.captured_total();
            self.counters
                .tokens_captured
                .add(total - self.tokens_captured_reported);
            self.tokens_captured_reported = total;
        }

        // Diff, in place over the tables.
        let mut outcome = diff_lists(tables, &self.mask, self.config.variance());
        outcome.report.tokens_captured = tokens_captured;
        self.counters.exchanges.inc();
        self.counters
            .noise_masked
            .add(outcome.report.noise_masked as u64);
        self.counters
            .variance_excluded
            .add(outcome.report.variance_excluded as u64);

        // Respond. The decision comes back in compact (diff) numbering; the
        // forward bytes must be looked up before remapping to original ids.
        let compact_decision = self.config.policy().decide(&outcome);
        if outcome.report.diverged() {
            self.counters.divergences.inc();
            if let Some(throttle) = &mut self.state.throttle {
                throttle.record(self.last_request.as_deref().unwrap_or(&[]));
            }
        }
        let forward = match &compact_decision {
            PolicyDecision::Forward { instance } => Some(take_bytes(&mut frames[*instance])),
            PolicyDecision::Sever { .. } => None,
        };
        // Quorum quarantine: on a majority forward despite divergence, the
        // outvoted instances are handed back for quarantine instead of
        // severing the session.
        let mut quarantined = Vec::new();
        if outcome.report.diverged() {
            if let PolicyDecision::Forward { .. } = &compact_decision {
                if let Some(winner) = outcome.agreement_groups().first() {
                    quarantined = (0..frames.len())
                        .filter(|c| !winner.contains(c))
                        .map(|c| live[c])
                        .collect();
                }
            }
        }
        // Remap every instance index in the outcome to original numbering.
        let to_original = |c: usize| live.get(c).copied().unwrap_or(c);
        for d in outcome.report.details.iter_mut() {
            d.instance = to_original(d.instance);
        }
        for s in outcome.report.structural.iter_mut() {
            *s = to_original(*s);
        }
        let decision = match compact_decision {
            PolicyDecision::Forward { instance } => PolicyDecision::Forward {
                instance: to_original(instance),
            },
            PolicyDecision::Sever { implicated } => PolicyDecision::Sever {
                implicated: implicated.into_iter().map(to_original).collect(),
            },
        };
        if let Some(span) = &self.span {
            span.event(match &decision {
                PolicyDecision::Forward { instance } => forward_label(*instance),
                PolicyDecision::Sever { .. } => Cow::Borrowed("respond:sever"),
            });
        }
        if outcome.report.diverged() {
            if let Some(audit) = &self.audit {
                audit.record(self.divergence_record(&outcome.report));
            }
        }
        self.counters
            .eval_latency_us
            .record_duration(eval_start.elapsed());
        Ok(ExchangeOutcome {
            report: outcome.report,
            decision,
            forward,
            quarantined,
        })
    }

    /// Builds the audit-log record for a diverged exchange.
    fn divergence_record(&self, report: &DivergenceReport) -> DivergenceRecord {
        let implicated = report.implicated_instances();
        let detail = report
            .details
            .first()
            .map(|d| {
                format!(
                    "[{}#{}] instance {}: {:?} != reference {:?}",
                    d.label, d.segment_index, d.instance, d.instance_excerpt, d.reference_excerpt
                )
            })
            .unwrap_or_else(|| format!("structural mismatch: instances {:?}", report.structural));
        DivergenceRecord {
            offending_instance: (implicated.len() == 1).then(|| implicated[0]),
            diff_positions: report.details.iter().map(|d| d.segment_index).collect(),
            structural: !report.structural.is_empty(),
            ..self.audit_record(detail)
        }
    }

    /// An audit-log record of this exchange: its id, service, request
    /// signature and timeline, with `detail` and nothing implicated.
    fn audit_record(&self, detail: String) -> DivergenceRecord {
        DivergenceRecord {
            exchange_id: self.span.as_ref().map_or(0, |s| s.id()),
            service: self.counters.prefix.to_string(),
            offending_instance: None,
            signature: crate::report::excerpt(self.last_request.as_deref().unwrap_or(&[])),
            diff_positions: Vec::new(),
            detail,
            structural: false,
            timeline: self.span.as_ref().map(|s| s.timeline()).unwrap_or_default(),
        }
    }

    /// Records in the audit log that the exchange was severed because
    /// every live instance failed ([`NVersionEngine::mark_failed`]) before
    /// answering: there was nothing to diff, and identical failure markers
    /// are not agreement.
    pub fn audit_all_failed(&self) {
        if let Some(audit) = &self.audit {
            audit.record(self.audit_record("every instance failed before answering".into()));
        }
    }

    /// Convenience: evaluates one complete response per instance in a single
    /// call (used by tests and non-streaming callers).
    ///
    /// # Errors
    ///
    /// Returns [`RddrError::InstanceCountMismatch`] if `responses.len()`
    /// differs from N, or a protocol error on malformed traffic.
    pub fn evaluate_responses(&mut self, responses: &[Vec<u8>]) -> Result<Verdict> {
        let n = self.config.instances();
        if responses.len() != n {
            return Err(RddrError::InstanceCountMismatch {
                expected: n,
                got: responses.len(),
            });
        }
        for (i, bytes) in responses.iter().enumerate() {
            self.push_response(i, bytes)?;
        }
        let outcome = self.finish_exchange()?;
        Ok(match outcome.forward {
            Some(bytes) if !outcome.report.diverged() => Verdict::Unanimous(bytes),
            Some(bytes) => {
                // Majority vote forwarded despite divergence; still report it.
                let _ = bytes;
                Verdict::Divergent(outcome.report)
            }
            None => Verdict::Divergent(outcome.report),
        })
    }
}

/// The span label of a forward to `instance`: `respond:forward:{instance}`,
/// from a static table for the instance counts deployments use.
fn forward_label(instance: usize) -> Cow<'static, str> {
    const LABELS: [&str; 8] = [
        "respond:forward:0",
        "respond:forward:1",
        "respond:forward:2",
        "respond:forward:3",
        "respond:forward:4",
        "respond:forward:5",
        "respond:forward:6",
        "respond:forward:7",
    ];
    match LABELS.get(instance) {
        Some(&label) => Cow::Borrowed(label),
        None => Cow::Owned(format!("respond:forward:{instance}")),
    }
}

/// The wire bytes of an instance's frames, in order. The frames are spent:
/// a lone frame (every line and HTTP exchange) gives up its buffer instead
/// of being copied.
fn take_bytes(frames: &mut [Frame]) -> Vec<u8> {
    if let [only] = frames {
        return std::mem::take(&mut only.bytes);
    }
    let mut out = Vec::with_capacity(frames.iter().map(Frame::len).sum());
    for f in frames.iter() {
        out.extend_from_slice(&f.bytes);
    }
    out
}

/// Whether every instance's *critical* frames are byte-identical to the
/// first instance's: same count, and frame by frame the same length, label
/// and bytes. A differing frame is rejected where it first differs (for
/// HTTP with a `Date` header, a few dozen bytes in).
fn frames_unanimous(frames: &[Vec<Frame>]) -> bool {
    let Some((first, rest)) = frames.split_first() else {
        return false;
    };
    rest.iter().all(|other| {
        let mut reference = first.iter().filter(|f| f.critical);
        other.iter().filter(|f| f.critical).all(|frame| {
            reference
                .next()
                .is_some_and(|r| r.bytes == frame.bytes && r.label == frame.label)
        }) && reference.next().is_none()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::LineProtocol;
    use crate::{EngineConfig, ResponsePolicy, VarianceRule, VarianceRules};

    fn engine(n: usize) -> NVersionEngine {
        NVersionEngine::new(
            EngineConfig::builder(n).build().unwrap(),
            LineProtocol::new(),
        )
    }

    fn telemetry_engine(
        n: usize,
        registry: &rddr_telemetry::Registry,
        prefix: &str,
        audit: &Arc<AuditLog>,
    ) -> NVersionEngine {
        NVersionEngine::with_telemetry(
            EngineConfig::builder(n).build().unwrap(),
            Box::new(LineProtocol::new()),
            EngineCounters::on(registry, prefix),
            Some(Arc::clone(audit)),
        )
    }

    #[test]
    fn unanimous_exchange_forwards_first_instance() {
        let mut e = engine(3);
        let v = e
            .evaluate_responses(&[b"ok\n".to_vec(), b"ok\n".to_vec(), b"ok\n".to_vec()])
            .unwrap();
        match v {
            Verdict::Unanimous(bytes) => assert_eq!(bytes, b"ok\n"),
            Verdict::Divergent(r) => panic!("unexpected divergence: {r}"),
        }
        assert_eq!(e.metrics().exchanges, 1);
        assert_eq!(e.metrics().divergences, 0);
    }

    #[test]
    fn leaking_instance_diverges() {
        let mut e = engine(2);
        let v = e
            .evaluate_responses(&[b"row\n".to_vec(), b"row\nSECRET\n".to_vec()])
            .unwrap();
        assert!(matches!(v, Verdict::Divergent(_)));
        assert_eq!(e.metrics().divergences, 1);
    }

    #[test]
    fn filter_pair_masks_nondeterminism() {
        let config = EngineConfig::builder(3).filter_pair(0, 1).build().unwrap();
        let mut e = NVersionEngine::new(config, LineProtocol::new());
        let v = e
            .evaluate_responses(&[
                b"session=abc123 welcome\n".to_vec(),
                b"session=xyz789 welcome\n".to_vec(),
                b"session=qqq555 welcome\n".to_vec(),
            ])
            .unwrap();
        assert!(matches!(v, Verdict::Unanimous(_)), "noise must be filtered");
    }

    #[test]
    fn divergence_beyond_noise_is_caught() {
        let config = EngineConfig::builder(3).filter_pair(0, 1).build().unwrap();
        let mut e = NVersionEngine::new(config, LineProtocol::new());
        let v = e
            .evaluate_responses(&[
                b"session=abc123 welcome\n".to_vec(),
                b"session=xyz789 welcome\n".to_vec(),
                b"session=qqq555 LEAKED-PTR\n".to_vec(),
            ])
            .unwrap();
        assert!(matches!(v, Verdict::Divergent(_)));
    }

    #[test]
    fn variance_rules_suppress_known_differences() {
        let mut rules = VarianceRules::new();
        rules.push(VarianceRule::any_label("version *").unwrap());
        let config = EngineConfig::builder(2).variance(rules).build().unwrap();
        let mut e = NVersionEngine::new(config, LineProtocol::new());
        let v = e
            .evaluate_responses(&[b"version 10.7\n".to_vec(), b"version 10.9\n".to_vec()])
            .unwrap();
        assert!(matches!(v, Verdict::Unanimous(_)));
    }

    #[test]
    fn throttle_refuses_repeated_diverging_request() {
        let config = EngineConfig::builder(2).throttle(0).build().unwrap();
        let mut e = NVersionEngine::new(config, LineProtocol::new());
        let req = b"GET /exploit\n";
        let copies = e.replicate_request(req).unwrap();
        assert_eq!(copies.len(), 2);
        e.evaluate_responses(&[b"a\n".to_vec(), b"b\n".to_vec()])
            .unwrap();
        assert!(matches!(
            e.replicate_request(req),
            Err(RddrError::Throttled)
        ));
        assert!(e.replicate_request(b"GET /fine\n").is_ok());
        assert_eq!(e.metrics().throttled, 1);
    }

    #[test]
    fn replication_count_matches_n() {
        let mut e = engine(5);
        assert_eq!(e.replicate_request(b"hi\n").unwrap().len(), 5);
    }

    #[test]
    fn replication_shares_one_allocation() {
        let mut e = engine(3);
        let copies = e.replicate_request(b"hello\n").unwrap();
        assert!(copies.iter().all(RequestCopy::is_shared));
        assert!(copies.iter().all(|c| &c[..] == b"hello\n"));
        let ptrs: Vec<*const u8> = copies.iter().map(|c| c.as_bytes().as_ptr()).collect();
        assert!(
            ptrs.windows(2).all(|w| w[0] == w[1]),
            "all shared copies must alias the same buffer"
        );
    }

    #[test]
    fn last_request_is_not_captured_without_consumers() {
        // No throttle and no audit: nothing reads the request back, so the
        // engine must not retain a copy.
        let mut e = engine(2);
        e.replicate_request(b"GET /big\n").unwrap();
        assert!(e.last_request.is_none());

        let throttled = EngineConfig::builder(2).throttle(1).build().unwrap();
        let mut e = NVersionEngine::new(throttled, LineProtocol::new());
        e.replicate_request(b"GET /big\n").unwrap();
        assert_eq!(e.last_request.as_deref(), Some(b"GET /big\n".as_slice()));
    }

    #[test]
    fn fast_path_counts_hits_and_misses() {
        let mut e = engine(2);
        e.evaluate_responses(&[b"same\n".to_vec(), b"same\n".to_vec()])
            .unwrap();
        e.evaluate_responses(&[b"one\n".to_vec(), b"two\n".to_vec()])
            .unwrap();
        let m = e.metrics();
        assert_eq!(m.fastpath_hits, 1);
        assert_eq!(m.fastpath_misses, 1);
        assert_eq!(m.exchanges, 2);
        assert_eq!(m.divergences, 1);
    }

    #[test]
    fn fast_path_disabled_runs_full_pipeline() {
        let config = EngineConfig::builder(2).fast_path(false).build().unwrap();
        let mut e = NVersionEngine::new(config, LineProtocol::new());
        let v = e
            .evaluate_responses(&[b"same\n".to_vec(), b"same\n".to_vec()])
            .unwrap();
        assert!(matches!(v, Verdict::Unanimous(_)));
        let m = e.metrics();
        assert_eq!(m.fastpath_hits, 0);
        assert_eq!(m.fastpath_misses, 0);
    }

    #[test]
    fn fast_path_skipped_when_variance_rules_configured() {
        let mut rules = VarianceRules::new();
        rules.push(VarianceRule::any_label("version *").unwrap());
        let config = EngineConfig::builder(2).variance(rules).build().unwrap();
        let mut e = NVersionEngine::new(config, LineProtocol::new());
        e.evaluate_responses(&[b"version 1\n".to_vec(), b"version 1\n".to_vec()])
            .unwrap();
        let m = e.metrics();
        assert_eq!(m.fastpath_hits, 0, "variance rules force the full path");
        assert!(m.variance_excluded > 0);
    }

    #[test]
    fn pipelined_lines_are_consumed_one_exchange_at_a_time() {
        let mut e = engine(2);
        e.push_response(0, b"a\nb\n").unwrap();
        e.push_response(1, b"a\nb\n").unwrap();
        let first = e.finish_exchange_unit().unwrap();
        assert_eq!(first.forward.unwrap(), b"a\n");
        assert!(e.exchange_ready(), "second pipelined line still buffered");
        let second = e.finish_exchange_unit().unwrap();
        assert_eq!(second.forward.unwrap(), b"b\n");
        assert_eq!(e.metrics().exchanges, 2);
    }

    #[test]
    fn take_all_finish_still_catches_surplus_lines() {
        // The default finish must keep diffing a leaked extra line against
        // the exchange that provoked it, not defer it to the next one.
        let mut e = engine(2);
        e.push_response(0, b"row\n").unwrap();
        e.push_response(1, b"row\nSECRET\n").unwrap();
        let outcome = e.finish_exchange().unwrap();
        assert!(outcome.report.diverged());
    }

    #[test]
    fn frames_unanimous_checks_bytes_labels_and_count() {
        let line = |b: &[u8]| Frame::new("line", b.to_vec());
        assert!(frames_unanimous(&[
            vec![line(b"x\n")],
            vec![line(b"x\n")],
            vec![line(b"x\n")]
        ]));
        assert!(!frames_unanimous(&[vec![line(b"x\n")], vec![line(b"y\n")]]));
        assert!(!frames_unanimous(&[
            vec![line(b"x\n")],
            vec![line(b"x\n"), line(b"extra\n")]
        ]));
        assert!(!frames_unanimous(&[
            vec![line(b"x\n"), line(b"extra\n")],
            vec![line(b"x\n")]
        ]));
        assert!(!frames_unanimous(&[
            vec![line(b"x\n")],
            vec![Frame::new("other", b"x\n".to_vec())]
        ]));
        // Single instance (degraded mode lone survivor) is trivially unanimous.
        assert!(frames_unanimous(&[vec![line(b"x\n")]]));
    }

    #[test]
    fn exchange_scratch_is_emptied_after_every_exchange() {
        // Full pipeline (the responses differ), then fast path: either way
        // nothing of the exchange is left behind in the engine.
        let config = EngineConfig::builder(3).filter_pair(0, 1).build().unwrap();
        let mut e = NVersionEngine::new(config, LineProtocol::new());
        for third in [b"id=3 leak\n".as_slice(), b"id=1 ok\n"] {
            e.evaluate_responses(&[b"id=1 ok\n".to_vec(), b"id=2 ok\n".to_vec(), third.to_vec()])
                .unwrap();
            assert!(e.tables.iter().all(SegmentTable::is_empty));
            assert!(e.exchange_frames.iter().all(Vec::is_empty));
        }
        e.evaluate_responses(&vec![b"same\n".to_vec(); 3]).unwrap();
        assert!(e.exchange_frames.iter().all(Vec::is_empty));
    }

    #[test]
    fn streaming_exchange_via_push_response() {
        let mut e = engine(2);
        e.push_response(0, b"par").unwrap();
        assert!(!e.exchange_ready());
        e.push_response(0, b"tial\n").unwrap();
        assert!(!e.exchange_ready(), "instance 1 still pending");
        e.push_response(1, b"partial\n").unwrap();
        assert!(e.exchange_ready());
        let outcome = e.finish_exchange().unwrap();
        assert!(!outcome.severed());
        assert_eq!(outcome.forward.unwrap(), b"partial\n");
    }

    #[test]
    fn mark_failed_instance_causes_divergence() {
        let mut e = engine(2);
        e.push_response(0, b"data\n").unwrap();
        e.mark_failed(1);
        let outcome = e.finish_exchange().unwrap();
        assert!(outcome.severed());
    }

    #[test]
    fn majority_vote_forwards_winning_group() {
        let config = EngineConfig::builder(3)
            .policy(ResponsePolicy::MajorityVote)
            .build()
            .unwrap();
        let mut e = NVersionEngine::new(config, LineProtocol::new());
        e.push_response(0, b"good\n").unwrap();
        e.push_response(1, b"evil\n").unwrap();
        e.push_response(2, b"good\n").unwrap();
        let outcome = e.finish_exchange().unwrap();
        assert!(!outcome.severed());
        assert_eq!(outcome.forward.unwrap(), b"good\n");
        assert!(outcome.report.diverged(), "divergence still reported");
    }

    #[test]
    fn majority_forward_quarantines_the_outlier() {
        let config = EngineConfig::builder(3)
            .policy(ResponsePolicy::MajorityVote)
            .build()
            .unwrap();
        let mut e = NVersionEngine::new(config, LineProtocol::new());
        e.push_response(0, b"good\n").unwrap();
        e.push_response(1, b"evil\n").unwrap();
        e.push_response(2, b"good\n").unwrap();
        let outcome = e.finish_exchange().unwrap();
        assert_eq!(outcome.quarantined, vec![1]);
        assert!(!outcome.severed());
    }

    #[test]
    fn unanimous_exchange_quarantines_nobody() {
        let mut e = engine(3);
        e.push_response(0, b"ok\n").unwrap();
        e.push_response(1, b"ok\n").unwrap();
        e.push_response(2, b"ok\n").unwrap();
        let outcome = e.finish_exchange().unwrap();
        assert!(outcome.quarantined.is_empty());
    }

    #[test]
    fn ejected_instance_is_not_waited_for() {
        let mut e = engine(3);
        e.eject(1);
        assert_eq!(e.active_count(), 2);
        assert_eq!(e.active_instances(), vec![0, 2]);
        e.push_response(0, b"ok\n").unwrap();
        assert!(!e.exchange_ready());
        e.push_response(2, b"ok\n").unwrap();
        assert!(e.exchange_ready(), "ejected instance 1 must not block");
        let outcome = e.finish_exchange().unwrap();
        assert!(!outcome.severed());
        assert_eq!(outcome.forward.unwrap(), b"ok\n");
    }

    #[test]
    fn pushes_to_ejected_instance_are_dropped() {
        let mut e = engine(2);
        e.eject(1);
        e.push_response(1, b"stale\n").unwrap();
        e.push_response(0, b"ok\n").unwrap();
        let outcome = e.finish_exchange().unwrap();
        assert!(!outcome.report.diverged(), "stale bytes must not diff");
        assert_eq!(outcome.forward.unwrap(), b"ok\n");
    }

    #[test]
    fn outcome_indices_stay_original_after_ejection() {
        // Eject instance 0; a divergence between 1 and 2 must implicate
        // instance 2 in original numbering, not compact index 1.
        let mut e = engine(3);
        e.eject(0);
        e.push_response(1, b"good\n").unwrap();
        e.push_response(2, b"evil\n").unwrap();
        let outcome = e.finish_exchange().unwrap();
        assert!(outcome.severed());
        match &outcome.decision {
            PolicyDecision::Sever { implicated } => assert_eq!(implicated, &vec![2]),
            other => panic!("expected sever, got {other:?}"),
        }
        assert_eq!(outcome.report.implicated_instances(), vec![2]);
    }

    #[test]
    fn forwarded_instance_index_is_original_after_ejection() {
        let config = EngineConfig::builder(3)
            .policy(ResponsePolicy::MajorityVote)
            .build()
            .unwrap();
        let mut e = NVersionEngine::new(config, LineProtocol::new());
        e.eject(0);
        e.push_response(1, b"a\n").unwrap();
        e.push_response(2, b"a\n").unwrap();
        let outcome = e.finish_exchange().unwrap();
        assert_eq!(
            outcome.decision,
            PolicyDecision::Forward { instance: 1 },
            "compact index 0 must map back to original instance 1"
        );
    }

    #[test]
    fn readmit_restores_full_diff_set() {
        let mut e = engine(2);
        e.eject(1);
        e.push_response(0, b"solo\n").unwrap();
        e.finish_exchange().unwrap();
        e.readmit(1);
        assert_eq!(e.active_count(), 2);
        e.push_response(0, b"x\n").unwrap();
        e.push_response(1, b"y\n").unwrap();
        let outcome = e.finish_exchange().unwrap();
        assert!(outcome.report.diverged(), "readmitted instance diffs again");
    }

    #[test]
    fn single_survivor_forwards_without_divergence() {
        let mut e = engine(3);
        e.eject(1);
        e.eject(2);
        e.push_response(0, b"alone\n").unwrap();
        let outcome = e.finish_exchange().unwrap();
        assert!(!outcome.severed());
        assert_eq!(outcome.forward.unwrap(), b"alone\n");
        assert!(outcome.quarantined.is_empty());
    }

    #[test]
    fn all_ejected_errors() {
        let mut e = engine(2);
        e.eject(0);
        e.eject(1);
        assert!(e.finish_exchange().is_err());
    }

    #[test]
    fn filter_pair_disabled_when_member_ejected() {
        let config = EngineConfig::builder(3).filter_pair(0, 1).build().unwrap();
        let mut e = NVersionEngine::new(config, LineProtocol::new());
        e.eject(0);
        // Without the pair, the session noise is no longer masked, so the
        // differing tokens now register as divergence.
        e.push_response(1, b"session=abc ok\n").unwrap();
        e.push_response(2, b"session=xyz ok\n").unwrap();
        let outcome = e.finish_exchange().unwrap();
        assert!(outcome.report.diverged());
    }

    #[test]
    fn wrong_response_count_is_rejected() {
        let mut e = engine(3);
        let err = e.evaluate_responses(&[b"a\n".to_vec()]).unwrap_err();
        assert!(matches!(
            err,
            RddrError::InstanceCountMismatch {
                expected: 3,
                got: 1
            }
        ));
    }

    #[test]
    fn finish_without_frames_errors() {
        let mut e = engine(2);
        assert!(e.finish_exchange().is_err());
    }

    #[test]
    fn shared_telemetry_feeds_registry_and_audit() {
        let registry = rddr_telemetry::Registry::new();
        let audit = Arc::new(AuditLog::new(8));
        let mut e = telemetry_engine(2, &registry, "rddr_test", &audit);
        let span = Arc::new(Span::start("exchange"));
        e.set_span(span.clone());
        e.replicate_request(b"GET /secret\n").unwrap();
        e.evaluate_responses(&[b"row\n".to_vec(), b"row\nLEAK\n".to_vec()])
            .unwrap();

        let text = registry.render_prometheus();
        assert!(text.contains("rddr_test_exchanges_total 1"), "{text}");
        assert!(text.contains("rddr_test_divergences_total 1"), "{text}");
        assert!(
            text.contains("rddr_test_exchange_eval_latency_us_count 1"),
            "{text}"
        );

        let records = audit.recent();
        assert_eq!(records.len(), 1);
        let rec = &records[0];
        assert_eq!(rec.exchange_id, span.id());
        assert_eq!(rec.service, "rddr_test");
        assert_eq!(rec.offending_instance, Some(1));
        assert!(rec.signature.contains("GET /secret"));
        assert!(
            rec.timeline.iter().any(|ev| ev.label == "replicate"),
            "span timeline attached: {:?}",
            rec.timeline
        );
    }

    #[test]
    fn forward_labels_render_as_formatted() {
        for instance in [0, 1, 7, 8, 12] {
            let label = forward_label(instance);
            assert_eq!(label, format!("respond:forward:{instance}"));
            assert_eq!(matches!(label, Cow::Borrowed(_)), instance < 8);
        }
    }

    #[test]
    fn unanimous_exchanges_leave_audit_empty() {
        let registry = rddr_telemetry::Registry::new();
        let audit = Arc::new(AuditLog::new(8));
        let mut e = telemetry_engine(2, &registry, "rddr_quiet", &audit);
        e.evaluate_responses(&[b"ok\n".to_vec(), b"ok\n".to_vec()])
            .unwrap();
        assert!(audit.is_empty());
    }

    #[test]
    fn metrics_accumulate_across_exchanges() {
        let mut e = engine(2);
        for _ in 0..3 {
            e.evaluate_responses(&[b"x\n".to_vec(), b"x\n".to_vec()])
                .unwrap();
        }
        e.evaluate_responses(&[b"x\n".to_vec(), b"y\n".to_vec()])
            .unwrap();
        let m = e.metrics();
        assert_eq!(m.exchanges, 4);
        assert_eq!(m.divergences, 1);
        assert!((m.divergence_rate() - 0.25).abs() < 1e-12);
    }
}
