use std::fmt;
use std::sync::Arc;

use rddr_core::Protocol;
use rddr_net::NetError;
use rddr_telemetry::{AuditLog, Registry};

/// Builds a fresh protocol module per proxied connection.
///
/// Protocol modules are stateless, but each engine owns its module boxed,
/// so the proxy is configured with a factory rather than a shared instance.
pub type ProtocolFactory = Arc<dyn Fn() -> Box<dyn Protocol> + Send + Sync>;

/// Resolves a protocol-module name from an RDDR configuration file
/// ([`rddr_core::ConfigFile`]) to its factory.
///
/// Known names: `http`, `postgres` (alias `pg`), `json`, `line`, `raw`.
pub fn protocol_factory(name: &str) -> Option<ProtocolFactory> {
    match name.to_ascii_lowercase().as_str() {
        "http" => Some(Arc::new(|| Box::new(rddr_protocols::HttpProtocol::new()))),
        "postgres" | "pg" => Some(Arc::new(|| Box::new(rddr_protocols::PgProtocol::new()))),
        "json" => Some(Arc::new(|| Box::new(rddr_protocols::JsonProtocol::new()))),
        "line" => Some(Arc::new(|| {
            Box::new(rddr_core::protocol::LineProtocol::new())
        })),
        "raw" => Some(Arc::new(|| {
            Box::new(rddr_core::protocol::RawProtocol::new())
        })),
        _ => None,
    }
}

/// Errors produced while starting or running a proxy.
#[derive(Debug)]
pub enum ProxyError {
    /// The proxy could not bind its listen address.
    Bind(NetError),
    /// The engine configuration was inconsistent with the instance list.
    Config(String),
    /// The accept-loop thread could not be spawned.
    Spawn(std::io::Error),
}

impl fmt::Display for ProxyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProxyError::Bind(e) => write!(f, "proxy failed to bind: {e}"),
            ProxyError::Config(s) => write!(f, "proxy misconfigured: {s}"),
            ProxyError::Spawn(e) => write!(f, "proxy failed to spawn accept loop: {e}"),
        }
    }
}

impl std::error::Error for ProxyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProxyError::Bind(e) => Some(e),
            ProxyError::Config(_) => None,
            ProxyError::Spawn(e) => Some(e),
        }
    }
}

/// Default audit-log depth when [`ProxyTelemetry::new`] builds one.
const DEFAULT_AUDIT_CAPACITY: usize = 256;

/// The shared observability surface for one protected service.
///
/// Hand the same bundle to the incoming proxy, the outgoing proxy, and an
/// [`rddr_telemetry::AdminServer`]: every session's engine then feeds one
/// registry (scraped at `/metrics`) and one divergence audit log (served at
/// `/divergences`). Cloning shares the underlying registry and log.
#[derive(Clone)]
pub struct ProxyTelemetry {
    /// Metric series for all sessions, keyed under [`ProxyTelemetry::prefix`].
    pub registry: Arc<Registry>,
    /// Ring of divergence incidents across all sessions.
    pub audit: Arc<AuditLog>,
    /// Metric-name prefix, typically the protected service's name.
    pub prefix: String,
}

impl std::fmt::Debug for ProxyTelemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProxyTelemetry")
            .field("prefix", &self.prefix)
            .field("audited", &self.audit.len())
            .finish()
    }
}

impl ProxyTelemetry {
    /// A fresh registry plus a default-sized audit log under `prefix`.
    /// Prefixes should be valid Prometheus name stems (`[a-zA-Z_][a-zA-Z0-9_]*`).
    pub fn new(prefix: impl Into<String>) -> Self {
        ProxyTelemetry {
            registry: Arc::new(Registry::new()),
            audit: Arc::new(AuditLog::new(DEFAULT_AUDIT_CAPACITY)),
            prefix: prefix.into(),
        }
    }

    /// Wraps existing telemetry objects (e.g. one registry shared by several
    /// services, each with its own prefix).
    pub fn with(registry: Arc<Registry>, audit: Arc<AuditLog>, prefix: impl Into<String>) -> Self {
        ProxyTelemetry {
            registry,
            audit,
            prefix: prefix.into(),
        }
    }
}

/// A point-in-time view of a proxy's counters, read from its telemetry
/// series (`{prefix}_{side}_*`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Client sessions accepted.
    pub sessions: u64,
    /// Exchanges evaluated across all sessions.
    pub exchanges: u64,
    /// Exchanges that diverged.
    pub divergences: u64,
    /// Connections severed by the Respond phase.
    pub severed: u64,
    /// Requests refused by the divergence-signature throttle.
    pub throttled: u64,
    /// Instances ejected from a session after a fault (degraded mode).
    pub ejected: u64,
    /// Instances quarantined after losing a quorum vote.
    pub quarantined: u64,
    /// Previously ejected instances readmitted into a session.
    pub rejoined: u64,
    /// Exchanges answered from a lone survivor without diffing.
    pub pass_through: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proxy_error_display() {
        let e = ProxyError::Config("config expects 3 instances but 2 addresses were given".into());
        assert!(e.to_string().contains("misconfigured: config expects 3"));
    }
}
