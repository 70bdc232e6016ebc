//! N-versioning of a service on a cluster: start the N diverse instances
//! and splice an [`IncomingProxy`] in front of them — the "straightforward
//! implementation path for N-versioned systems" the paper promises for
//! container-orchestration platforms.
//!
//! [`NVersion`] is the one way to stand such a deployment up. It names the
//! instances, gives them their addresses, checks N against the engine
//! config, and returns an [`NVersionedService`] whose drop stops the proxy
//! before the instances.

use std::sync::Arc;

use rddr_core::EngineConfig;
use rddr_net::{Network, ServiceAddr};
use rddr_orchestra::{Cluster, ContainerHandle, Image, Service};

use crate::{IncomingProxy, ProtocolFactory, ProxyError, ProxyTelemetry, Result};

/// Builds an N-versioned deployment: one [`NVersion::variant`] per
/// instance, then [`NVersion::deploy`].
///
/// Instance `i` is the container `{name}-{i}`. By default it binds
/// `entry.port() + 1 + i` on the entry's host, so the proxy takes over the
/// entry address and existing clients keep it — the paper's "minimal code
/// changes" property. [`NVersion::instances_at`] counts up from an
/// explicit first-instance address instead.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use rddr_core::EngineConfig;
/// use rddr_net::{Network, ServiceAddr, Stream};
/// use rddr_orchestra::{Cluster, FnService, Image, Service};
/// use rddr_proxy::NVersion;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cluster = Cluster::new(4);
/// let echo: Arc<dyn Service> = Arc::new(FnService::new("echo", |mut conn, _ctx| {
///     let mut buf = [0u8; 64];
///     while let Ok(n) = conn.read(&mut buf) {
///         if n == 0 || conn.write_all(&buf[..n]).is_err() { break; }
///     }
/// }));
/// let service = NVersion::new(
///     "echo",
///     EngineConfig::builder(2).build()?,
///     Arc::new(|| Box::new(rddr_core::protocol::LineProtocol::new())),
/// )
/// .variant(Image::new("echo", "v1"), Arc::clone(&echo))
/// .variant(Image::new("echo", "v2"), echo)
/// .deploy(&cluster, &ServiceAddr::new("echo", 7))?;
/// let mut conn = cluster.net().dial(&service.addr)?;
/// conn.write_all(b"ping\n")?;
/// let mut reply = [0u8; 5];
/// conn.read_exact(&mut reply)?;
/// assert_eq!(&reply, b"ping\n");
/// # Ok(())
/// # }
/// ```
pub struct NVersion {
    name: String,
    config: EngineConfig,
    protocol: ProtocolFactory,
    variants: Vec<(Image, Arc<dyn Service>)>,
    first_instance: Option<ServiceAddr>,
    telemetry: ProxyTelemetry,
    proxy_net: Option<Arc<dyn Network>>,
}

impl std::fmt::Debug for NVersion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NVersion")
            .field("name", &self.name)
            .field("variants", &self.variants.len())
            .field("first_instance", &self.first_instance)
            .finish()
    }
}

impl NVersion {
    /// Starts a deployment of the service `name`, diffed by an engine
    /// built from `config` and `protocol`.
    pub fn new(name: impl Into<String>, config: EngineConfig, protocol: ProtocolFactory) -> Self {
        Self {
            name: name.into(),
            config,
            protocol,
            variants: Vec::new(),
            first_instance: None,
            telemetry: ProxyTelemetry::new("rddr"),
            proxy_net: None,
        }
    }

    /// Adds the next instance: `service` started from `image` (the tag is
    /// how version diversity is expressed).
    pub fn variant(mut self, image: Image, service: Arc<dyn Service>) -> Self {
        self.variants.push((image, service));
        self
    }

    /// Binds instance `i` at `first.port() + i` on `first`'s host instead
    /// of next to the entry.
    pub fn instances_at(mut self, first: ServiceAddr) -> Self {
        self.first_instance = Some(first);
        self
    }

    /// Feeds the proxy's counters and latency histograms to
    /// `telemetry.registry` (series prefixed `{prefix}_in_*`) and its
    /// divergences to `telemetry.audit`. Serve both with an
    /// [`rddr_telemetry::AdminServer`] for live `/metrics` and
    /// `/divergences` endpoints. Without it the proxy exports to a private
    /// bundle under the prefix `rddr`.
    pub fn telemetry(mut self, telemetry: ProxyTelemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The fabric the proxy listens and dials on, when it is not the
    /// cluster's own (e.g. a [`rddr_net::FaultNet`] over it).
    pub fn proxy_net(mut self, net: Arc<dyn Network>) -> Self {
        self.proxy_net = Some(net);
        self
    }

    /// Starts the instances on `cluster` and the proxy at `entry`.
    ///
    /// # Errors
    ///
    /// Returns [`ProxyError::Config`] if the config's N differs from the
    /// number of variants, if an instance port would pass `u16::MAX`, or
    /// if an instance fails to start; or the proxy's bind/start error.
    pub fn deploy(self, cluster: &Cluster, entry: &ServiceAddr) -> Result<NVersionedService> {
        let n = self.variants.len();
        if n != self.config.instances() {
            return Err(ProxyError::Config(format!(
                "config expects {} instances but {n} variants were given",
                self.config.instances(),
            )));
        }
        let (first, offset) = match &self.first_instance {
            Some(first) => (first, 0),
            None => (entry, 1),
        };
        let instance_addrs = (0..n)
            .map(|i| {
                u16::try_from(i + offset)
                    .ok()
                    .and_then(|k| first.port().checked_add(k))
                    .map(|port| first.with_port(port))
                    .ok_or_else(|| {
                        ProxyError::Config(format!("instance {i} port overflows after {first}"))
                    })
            })
            .collect::<Result<Vec<_>>>()?;
        let containers = self
            .variants
            .into_iter()
            .zip(&instance_addrs)
            .enumerate()
            .map(|(i, ((image, service), addr))| {
                cluster
                    .run_container(format!("{}-{i}", self.name), image, addr, service)
                    .map_err(|e| ProxyError::Config(format!("instance {i} failed: {e}")))
            })
            .collect::<Result<Vec<_>>>()?;
        let proxy = IncomingProxy::start_with_telemetry(
            self.proxy_net.unwrap_or_else(|| Arc::new(cluster.net())),
            entry,
            instance_addrs,
            self.config,
            self.protocol,
            Some(self.telemetry),
        )?;
        Ok(NVersionedService {
            proxy,
            containers,
            addr: entry.clone(),
        })
    }
}

/// A running N-versioned service: the instances plus their proxy.
///
/// Dropping the handle stops the proxy, then the instances (fields drop in
/// declaration order), so no client session outlives its instances.
pub struct NVersionedService {
    /// The RDDR incoming proxy.
    pub proxy: IncomingProxy,
    /// The instance containers, in instance order.
    pub containers: Vec<ContainerHandle>,
    /// The address clients connect to (the proxy's listen address).
    pub addr: ServiceAddr,
}

impl std::fmt::Debug for NVersionedService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NVersionedService")
            .field("addr", &self.addr)
            .field("instances", &self.containers.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use rddr_core::protocol::LineProtocol;
    use rddr_net::{Network, SimNet, Stream};
    use rddr_orchestra::{FnService, ServiceCtx};

    fn suffix_echo(suffix: &'static str) -> Arc<dyn Service> {
        Arc::new(FnService::new("echo", move |mut conn, _ctx| {
            let mut buf = Vec::new();
            let mut chunk = [0u8; 256];
            loop {
                match conn.read(&mut chunk) {
                    Ok(0) | Err(_) => return,
                    Ok(n) => buf.extend_from_slice(&chunk[..n]),
                }
                while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
                    let line: Vec<u8> = buf.drain(..=pos).collect();
                    let mut reply = line[..line.len() - 1].to_vec();
                    reply.extend_from_slice(suffix.as_bytes());
                    reply.push(b'\n');
                    if conn.write_all(&reply).is_err() {
                        return;
                    }
                }
            }
        }))
    }

    fn line() -> ProtocolFactory {
        Arc::new(|| Box::new(LineProtocol::new()))
    }

    /// `n` agreeing echo instances of the service `name`.
    fn echoes(name: &str, n: usize) -> NVersion {
        (0..n).fold(
            NVersion::new(name, EngineConfig::builder(n).build().unwrap(), line()),
            |nv, i| nv.variant(Image::new(name, format!("v{i}")), suffix_echo("")),
        )
    }

    #[test]
    fn deploys_and_serves() {
        let cluster = Cluster::new(4);
        let service = echoes("search", 3)
            .deploy(&cluster, &ServiceAddr::new("search", 8080))
            .unwrap();
        assert_eq!(service.containers.len(), 3);
        let mut conn = cluster.net().dial(&service.addr).unwrap();
        conn.write_all(b"query\n").unwrap();
        let mut reply = [0u8; 6];
        conn.read_exact(&mut reply).unwrap();
        assert_eq!(&reply, b"query\n");
    }

    #[test]
    fn instances_are_named_and_bound_after_the_entry() {
        let cluster = Cluster::new(4);
        let service = echoes("search", 3)
            .deploy(&cluster, &ServiceAddr::new("search", 8080))
            .unwrap();
        let placed: Vec<(&str, String)> = service
            .containers
            .iter()
            .map(|c| (c.name(), c.addr().to_string()))
            .collect();
        assert_eq!(
            placed,
            [
                ("search-0", "search:8081".to_string()),
                ("search-1", "search:8082".to_string()),
                ("search-2", "search:8083".to_string()),
            ]
        );
        assert_eq!(service.addr, ServiceAddr::new("search", 8080));
    }

    #[test]
    fn instances_at_counts_up_from_the_first_address() {
        let cluster = Cluster::new(4);
        let service = echoes("db", 3)
            .instances_at(ServiceAddr::new("pg", 5432))
            .deploy(&cluster, &ServiceAddr::new("rddr-db", 5432))
            .unwrap();
        let placed: Vec<(&str, String)> = service
            .containers
            .iter()
            .map(|c| (c.name(), c.addr().to_string()))
            .collect();
        assert_eq!(
            placed,
            [
                ("db-0", "pg:5432".to_string()),
                ("db-1", "pg:5433".to_string()),
                ("db-2", "pg:5434".to_string()),
            ]
        );
    }

    #[test]
    fn instance_port_overflow_is_a_config_error() {
        let cluster = Cluster::new(2);
        let by_entry = echoes("svc", 2).deploy(&cluster, &ServiceAddr::new("svc", 65535));
        assert!(matches!(by_entry, Err(ProxyError::Config(_))));
        let counted = echoes("svc", 2)
            .instances_at(ServiceAddr::new("svc", 65535))
            .deploy(&cluster, &ServiceAddr::new("rddr", 80));
        assert!(matches!(counted, Err(ProxyError::Config(_))));
        // Nothing was started: the entry and the last valid port are free.
        assert!(cluster.net().dial(&ServiceAddr::new("rddr", 80)).is_err());
        assert!(cluster.net().dial(&ServiceAddr::new("svc", 65535)).is_err());
    }

    #[test]
    fn detects_divergent_variant() {
        let cluster = Cluster::new(4);
        let service = NVersion::new("svc", EngineConfig::builder(2).build().unwrap(), line())
            .variant(Image::new("svc", "good"), suffix_echo(""))
            .variant(Image::new("svc", "evil"), suffix_echo(" LEAK"))
            .deploy(&cluster, &ServiceAddr::new("svc", 9000))
            .unwrap();
        let mut conn = cluster.net().dial(&service.addr).unwrap();
        conn.write_all(b"x\n").unwrap();
        let mut buf = [0u8; 1];
        assert_eq!(conn.read(&mut buf).unwrap(), 0, "divergence must sever");
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert_eq!(service.proxy.stats().divergences, 1);
    }

    #[test]
    fn telemetry_records_divergence_and_metrics() {
        let cluster = Cluster::new(4);
        let telemetry = ProxyTelemetry::new("svc");
        let service = NVersion::new("svc", EngineConfig::builder(2).build().unwrap(), line())
            .variant(Image::new("svc", "good"), suffix_echo(""))
            .variant(Image::new("svc", "evil"), suffix_echo(" LEAK"))
            .telemetry(telemetry.clone())
            .deploy(&cluster, &ServiceAddr::new("svc", 9050))
            .unwrap();
        let mut conn = cluster.net().dial(&service.addr).unwrap();
        conn.write_all(b"x\n").unwrap();
        let mut buf = [0u8; 1];
        assert_eq!(conn.read(&mut buf).unwrap(), 0, "divergence must sever");
        std::thread::sleep(std::time::Duration::from_millis(30));
        let page = telemetry.registry.render_prometheus();
        assert!(
            page.contains("svc_in_exchanges_total 1"),
            "metrics:\n{page}"
        );
        assert!(
            page.contains("svc_in_divergences_total 1"),
            "metrics:\n{page}"
        );
        assert!(
            page.contains("svc_in_exchange_latency_us"),
            "metrics:\n{page}"
        );
        assert_eq!(telemetry.audit.len(), 1);
        let record = &telemetry.audit.recent()[0];
        assert_eq!(record.service, "svc_in");
        assert!(
            !record.timeline.is_empty(),
            "span timeline should be attached"
        );
    }

    #[test]
    fn variant_count_must_match_config() {
        let cluster = Cluster::new(2);
        let err = NVersion::new("svc", EngineConfig::builder(2).build().unwrap(), line())
            .variant(Image::new("svc", "v1"), suffix_echo(""))
            .deploy(&cluster, &ServiceAddr::new("svc", 9100));
        assert!(matches!(err, Err(ProxyError::Config(_))));
        assert!(cluster.net().dial(&ServiceAddr::new("svc", 9101)).is_err());
    }

    /// A service that, when its container lets go of it, records whether
    /// the proxy's entry address was still bound.
    struct EntryProbe {
        net: SimNet,
        entry: ServiceAddr,
        entry_bound_at_stop: Arc<Mutex<Vec<bool>>>,
    }

    impl Service for EntryProbe {
        fn handle(&self, _conn: rddr_net::BoxStream, _ctx: &ServiceCtx) {}
    }

    impl Drop for EntryProbe {
        fn drop(&mut self) {
            let bound = self.net.dial(&self.entry).is_ok();
            self.entry_bound_at_stop.lock().push(bound);
        }
    }

    #[test]
    fn dropping_the_handle_stops_the_proxy_before_the_instances() {
        let cluster = Cluster::new(2);
        let entry = ServiceAddr::new("svc", 9200);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let probe = || {
            Arc::new(EntryProbe {
                net: cluster.net(),
                entry: entry.clone(),
                entry_bound_at_stop: Arc::clone(&seen),
            })
        };
        let service = NVersion::new("svc", EngineConfig::builder(2).build().unwrap(), line())
            .variant(Image::new("svc", "v1"), probe())
            .variant(Image::new("svc", "v2"), probe())
            .deploy(&cluster, &entry)
            .unwrap();
        // No session was ever opened, so each container's accept loop holds
        // the last reference to its service and drops it on stop.
        drop(service);
        assert_eq!(*seen.lock(), [false, false], "proxy outlived an instance");
    }
}
