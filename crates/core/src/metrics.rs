use std::fmt;
use std::sync::Arc;

use rddr_telemetry::{Counter, Histogram, Registry};

/// Counters accumulated by an [`crate::NVersionEngine`] over its lifetime.
///
/// Since the telemetry subsystem landed this is a *snapshot view*: the live
/// values are registry-backed counters (see [`EngineCounters`]) shared with
/// the `/metrics` admin endpoint, and [`crate::NVersionEngine::metrics`]
/// reads them into this plain struct.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineMetrics {
    /// Request/response exchanges evaluated.
    pub exchanges: u64,
    /// Exchanges that ended in a divergence verdict.
    pub divergences: u64,
    /// Segment positions masked as filter-pair noise, cumulative.
    pub noise_masked: u64,
    /// Segments excluded by known-variance rules, cumulative.
    pub variance_excluded: u64,
    /// Ephemeral tokens captured, cumulative.
    pub tokens_captured: u64,
    /// Ephemeral token substitutions applied to requests, cumulative.
    pub tokens_substituted: u64,
    /// Requests refused because they matched a known divergence signature.
    pub throttled: u64,
    /// Exchanges settled by the unanimous fast path (byte-identical critical
    /// frames; the de-noise/diff pipeline was skipped).
    pub fastpath_hits: u64,
    /// Exchanges that failed the fast check and paid the full pipeline.
    /// Only counted while the fast path is enabled and eligible.
    pub fastpath_misses: u64,
}

impl EngineMetrics {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fraction of exchanges that diverged (0 when no exchanges yet).
    pub fn divergence_rate(&self) -> f64 {
        if self.exchanges == 0 {
            0.0
        } else {
            self.divergences as f64 / self.exchanges as f64
        }
    }
}

impl fmt::Display for EngineMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "exchanges={} divergences={} noise_masked={} variance_excluded={} \
             tokens_captured={} tokens_substituted={} throttled={} \
             fastpath_hits={} fastpath_misses={}",
            self.exchanges,
            self.divergences,
            self.noise_masked,
            self.variance_excluded,
            self.tokens_captured,
            self.tokens_substituted,
            self.throttled,
            self.fastpath_hits,
            self.fastpath_misses,
        )
    }
}

/// Registry-backed handles behind an engine's [`EngineMetrics`].
///
/// A standalone engine owns a set on a private [`Registry`]. A deployment
/// that wants one scrape surface for a whole service registers the set once
/// on a shared registry ([`EngineCounters::on`]) and hands every session's
/// engine a clone, so all of them increment the same series.
#[derive(Debug, Clone)]
pub struct EngineCounters {
    /// The series-name prefix, which is also the service name in the
    /// engine's divergence audit records.
    pub(crate) prefix: Arc<str>,
    pub(crate) exchanges: Arc<Counter>,
    pub(crate) divergences: Arc<Counter>,
    pub(crate) noise_masked: Arc<Counter>,
    pub(crate) variance_excluded: Arc<Counter>,
    pub(crate) tokens_captured: Arc<Counter>,
    pub(crate) tokens_substituted: Arc<Counter>,
    pub(crate) throttled: Arc<Counter>,
    pub(crate) fastpath_hits: Arc<Counter>,
    pub(crate) fastpath_misses: Arc<Counter>,
    /// Wall-clock cost of de-noise + diff + respond, microseconds.
    pub(crate) eval_latency_us: Arc<Histogram>,
}

impl EngineCounters {
    /// Counters on a fresh private registry (per-engine semantics).
    pub fn private() -> Self {
        Self::on(&Registry::new(), "rddr")
    }

    /// Counters registered on `registry` under `prefix` (e.g. a prefix of
    /// `"rddr_pg"` yields `rddr_pg_exchanges_total`).
    pub fn on(registry: &Registry, prefix: &str) -> Self {
        let name = |suffix: &str| format!("{prefix}_{suffix}");
        EngineCounters {
            prefix: prefix.into(),
            exchanges: registry.counter(&name("exchanges_total")),
            divergences: registry.counter(&name("divergences_total")),
            noise_masked: registry.counter(&name("noise_masked_total")),
            variance_excluded: registry.counter(&name("variance_excluded_total")),
            tokens_captured: registry.counter(&name("tokens_captured_total")),
            tokens_substituted: registry.counter(&name("tokens_substituted_total")),
            throttled: registry.counter(&name("throttled_total")),
            fastpath_hits: registry.counter(&name("fastpath_hits_total")),
            fastpath_misses: registry.counter(&name("fastpath_misses_total")),
            eval_latency_us: registry.histogram(&name("exchange_eval_latency_us")),
        }
    }

    /// Reads the current counter values into a plain [`EngineMetrics`].
    pub fn snapshot(&self) -> EngineMetrics {
        EngineMetrics {
            exchanges: self.exchanges.get(),
            divergences: self.divergences.get(),
            noise_masked: self.noise_masked.get(),
            variance_excluded: self.variance_excluded.get(),
            tokens_captured: self.tokens_captured.get(),
            tokens_substituted: self.tokens_substituted.get(),
            throttled: self.throttled.get(),
            fastpath_hits: self.fastpath_hits.get(),
            fastpath_misses: self.fastpath_misses.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn divergence_rate_handles_zero() {
        assert_eq!(EngineMetrics::new().divergence_rate(), 0.0);
    }

    #[test]
    fn divergence_rate_computes_fraction() {
        let m = EngineMetrics {
            exchanges: 4,
            divergences: 1,
            ..EngineMetrics::new()
        };
        assert!((m.divergence_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn display_contains_all_counters() {
        let s = EngineMetrics::new().to_string();
        for key in [
            "exchanges",
            "divergences",
            "noise_masked",
            "throttled",
            "fastpath_hits",
            "fastpath_misses",
        ] {
            assert!(s.contains(key), "missing {key}");
        }
    }

    #[test]
    fn counters_snapshot_into_metrics() {
        let counters = EngineCounters::private();
        counters.exchanges.add(4);
        counters.divergences.inc();
        let m = counters.snapshot();
        assert_eq!(m.exchanges, 4);
        assert_eq!(m.divergences, 1);
        assert!((m.divergence_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn shared_registry_sums_across_engines() {
        let registry = Registry::new();
        let a = EngineCounters::on(&registry, "rddr_pg");
        let b = EngineCounters::on(&registry, "rddr_pg");
        a.exchanges.inc();
        b.exchanges.inc();
        assert_eq!(a.snapshot().exchanges, 2, "sessions share service counters");
        assert!(registry
            .render_prometheus()
            .contains("rddr_pg_exchanges_total 2"));
    }
}
