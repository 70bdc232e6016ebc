use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;
use rddr_net::{NetError, Network, ServiceAddr, SimNet};

use crate::{
    ContainerHandle, CpuGovernor, Image, ResourceMeter, ResourceSample, Service, ServiceCtx,
};

/// Errors produced by the orchestration layer.
#[derive(Debug)]
pub enum ClusterError {
    /// The requested address is already bound by another container.
    AddressInUse(String),
    /// An underlying network failure.
    Net(NetError),
    /// A respawn was requested for a replica the supervisor never registered.
    UnknownReplica(String),
    /// A respawned replica did not pass its readiness probe in time.
    NotReady(String),
    /// A replica's service factory failed while rebuilding the service
    /// (e.g. storage recovery found unrepairable corruption).
    SpawnFailed(String),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::AddressInUse(a) => write!(f, "address already in use: {a}"),
            ClusterError::Net(e) => write!(f, "network failure: {e}"),
            ClusterError::UnknownReplica(n) => write!(f, "unknown replica: {n}"),
            ClusterError::NotReady(n) => {
                write!(f, "replica {n} failed its readiness probe")
            }
            ClusterError::SpawnFailed(e) => write!(f, "service factory failed: {e}"),
        }
    }
}

impl std::error::Error for ClusterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClusterError::Net(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetError> for ClusterError {
    fn from(e: NetError) -> Self {
        match e {
            NetError::AddressInUse(a) => ClusterError::AddressInUse(a),
            other => ClusterError::Net(other),
        }
    }
}

/// A cluster: a [`SimNet`] fabric plus one [`CpuGovernor`] per node.
///
/// The paper's "server machine" is an AWS `m5a.8xlarge` with 32 vCPUs;
/// `Cluster::new(32)` models it as a single node. Containers started on
/// the cluster share their node's governor (they compete for that node's
/// cores) but each gets its own [`ResourceMeter`]. The paper's §VI notes
/// that saturation "can be mitigated by … deploying each instance of the
/// N-versioned set on a different machine" — model that with
/// [`Cluster::multi_node`] and [`Cluster::run_container_on`].
pub struct Cluster {
    net: SimNet,
    nodes: Vec<CpuGovernor>,
    containers: Mutex<Vec<ContainerInfo>>,
}

struct ContainerInfo {
    name: String,
    meter: ResourceMeter,
}

impl fmt::Debug for Cluster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cluster")
            .field("nodes", &self.nodes.len())
            .field("vcpus_per_node", &self.nodes[0].capacity())
            .field("containers", &self.containers.lock().len())
            .finish()
    }
}

impl Cluster {
    /// Creates a cluster with `vcpus` virtual CPUs, running simulated work
    /// in real time.
    ///
    /// # Panics
    ///
    /// Panics if `vcpus` is zero.
    pub fn new(vcpus: usize) -> Self {
        Self::with_governor(SimNet::new(), CpuGovernor::new(vcpus))
    }

    /// Creates a cluster from explicit parts (e.g. a time-scaled governor
    /// for fast benchmark harnesses, or a latency-injecting fabric).
    pub fn with_governor(net: SimNet, governor: CpuGovernor) -> Self {
        Self {
            net,
            nodes: vec![governor],
            containers: Mutex::new(Vec::new()),
        }
    }

    /// Creates a cluster of `nodes` machines, each with its own governor of
    /// `vcpus` slots at the given time scale (§VI: "RDDR can easily be
    /// reconfigured to run distributed across multiple hosts").
    ///
    /// # Panics
    ///
    /// Panics if `nodes` or `vcpus` is zero, or the scale is non-positive.
    pub fn multi_node(nodes: usize, vcpus: usize, time_scale: f64) -> Self {
        assert!(nodes > 0, "a cluster needs at least one node");
        Self {
            net: SimNet::new(),
            nodes: (0..nodes)
                .map(|_| CpuGovernor::with_time_scale(vcpus, time_scale))
                .collect(),
            containers: Mutex::new(Vec::new()),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The governor of a specific node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn node_governor(&self, node: usize) -> CpuGovernor {
        self.nodes[node].clone()
    }

    /// The cluster network fabric (clone to hand to clients).
    pub fn net(&self) -> SimNet {
        self.net.clone()
    }

    /// The first node's CPU governor (the whole cluster's on single-node
    /// clusters).
    pub fn governor(&self) -> CpuGovernor {
        self.nodes[0].clone()
    }

    /// Starts a container serving `service` at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::AddressInUse`] if the address is taken.
    pub fn run_container(
        &self,
        name: impl Into<String>,
        image: Image,
        addr: &ServiceAddr,
        service: Arc<dyn Service>,
    ) -> crate::Result<ContainerHandle> {
        self.run_container_on(0, name, image, addr, service)
    }

    /// Starts a container on a specific node (multi-host placement, §VI).
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::AddressInUse`] if the address is taken.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn run_container_on(
        &self,
        node: usize,
        name: impl Into<String>,
        image: Image,
        addr: &ServiceAddr,
        service: Arc<dyn Service>,
    ) -> crate::Result<ContainerHandle> {
        let name = name.into();
        let listener = self.net.listen(addr)?;
        let meter = ResourceMeter::new();
        let ctx = ServiceCtx {
            meter: meter.clone(),
            governor: self.nodes[node].clone(),
            net: Arc::new(self.net.clone()),
        };
        self.containers.lock().push(ContainerInfo {
            name: name.clone(),
            meter,
        });
        let net = self.net.clone();
        let unbind_addr = addr.clone();
        let handle = ContainerHandle::spawn(
            name,
            image,
            addr.clone(),
            listener,
            service,
            ctx,
            Box::new(move || net.unbind(&unbind_addr)),
        );
        Ok(handle)
    }

    /// Aggregate resource usage of containers whose names start with
    /// `prefix` (empty prefix = whole cluster) — the paper's "process tree
    /// that comprises each deployment".
    pub fn usage(&self, prefix: &str) -> ResourceSample {
        self.containers
            .lock()
            .iter()
            .filter(|c| c.name.starts_with(prefix))
            .map(|c| c.meter.sample())
            .fold(ResourceSample::default(), ResourceSample::merge)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FnService;
    use rddr_net::Stream;
    use std::time::Duration;

    fn echo_service() -> Arc<dyn Service> {
        Arc::new(FnService::new("echo", |mut conn, ctx| {
            let mut buf = [0u8; 64];
            while let Ok(n) = conn.read(&mut buf) {
                if n == 0 {
                    break;
                }
                ctx.compute(Duration::from_micros(100));
                ctx.alloc(n as u64);
                if conn.write_all(&buf[..n]).is_err() {
                    break;
                }
            }
        }))
    }

    #[test]
    fn container_serves_and_meters() {
        let cluster = Cluster::with_governor(SimNet::new(), CpuGovernor::with_time_scale(4, 0.01));
        let addr = ServiceAddr::new("echo", 7);
        let _c = cluster
            .run_container("echo-0", Image::new("echo", "v1"), &addr, echo_service())
            .unwrap();
        let mut conn = cluster.net().dial(&addr).unwrap();
        conn.write_all(b"hi").unwrap();
        let mut buf = [0u8; 2];
        conn.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hi");
        drop(conn);
        // Metering is asynchronous with the reply; poll briefly.
        let deadline = std::time::Instant::now() + Duration::from_secs(1);
        loop {
            let usage = cluster.usage("echo");
            if usage.cpu_micros >= 100 && usage.mem_bytes >= 2 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "metering never arrived"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn duplicate_address_is_rejected() {
        let cluster = Cluster::new(1);
        let addr = ServiceAddr::new("svc", 80);
        let _a = cluster
            .run_container("a", Image::new("x", "1"), &addr, echo_service())
            .unwrap();
        assert!(matches!(
            cluster.run_container("b", Image::new("x", "1"), &addr, echo_service()),
            Err(ClusterError::AddressInUse(_))
        ));
    }

    #[test]
    fn stopping_container_unbinds_address() {
        let cluster = Cluster::new(1);
        let addr = ServiceAddr::new("svc", 80);
        let mut c = cluster
            .run_container("a", Image::new("x", "1"), &addr, echo_service())
            .unwrap();
        c.stop();
        assert!(cluster.net().dial(&addr).is_err());
        // Address can be rebound after stop.
        let _again = cluster
            .run_container("a2", Image::new("x", "2"), &addr, echo_service())
            .unwrap();
    }

    #[test]
    fn kill_severs_in_flight_connections() {
        let cluster = Cluster::new(1);
        let addr = ServiceAddr::new("svc", 80);
        let mut c = cluster
            .run_container("a", Image::new("x", "1"), &addr, echo_service())
            .unwrap();
        let mut conn = cluster.net().dial(&addr).unwrap();
        conn.write_all(b"hi").unwrap();
        let mut buf = [0u8; 2];
        conn.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hi");
        c.kill();
        // The established connection is severed, not drained: the peer
        // sees EOF (or an error) instead of another echo.
        let _ = conn.write_all(b"yo");
        let mut buf = [0u8; 2];
        assert!(
            conn.read_exact(&mut buf).is_err(),
            "kill must sever connections already being served"
        );
        assert!(cluster.net().dial(&addr).is_err());
    }

    #[test]
    fn usage_filters_by_prefix() {
        let cluster = Cluster::with_governor(SimNet::new(), CpuGovernor::with_time_scale(4, 0.001));
        let _a = cluster
            .run_container(
                "pg-0",
                Image::new("x", "1"),
                &ServiceAddr::new("a", 1),
                echo_service(),
            )
            .unwrap();
        let _b = cluster
            .run_container(
                "web-0",
                Image::new("x", "1"),
                &ServiceAddr::new("b", 1),
                echo_service(),
            )
            .unwrap();
        let mut conn = cluster.net().dial(&ServiceAddr::new("a", 1)).unwrap();
        conn.write_all(b"x").unwrap();
        let mut buf = [0u8; 1];
        conn.read_exact(&mut buf).unwrap();
        drop(conn);
        let deadline = std::time::Instant::now() + Duration::from_secs(1);
        while cluster.usage("pg").cpu_micros == 0 {
            assert!(std::time::Instant::now() < deadline);
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(cluster.usage("web").cpu_micros, 0);
    }
}
