//! The Figure 1 social-network deployment (DeathStarBench's social network,
//! Gan et al.) and the paper's micro-versioning overhead arithmetic (§II):
//! N-versioning only "Search" and "Compose Post" costs ~20% extra containers
//! instead of the 300% of replicating everything 3×.

use std::sync::Arc;
use std::time::Duration;

use rddr_core::EngineConfig;
use rddr_httpsim::{HttpResponse, HttpService};
use rddr_net::ServiceAddr;
use rddr_orchestra::{Cluster, ContainerHandle, Image};
use rddr_protocols::HttpProtocol;
use rddr_proxy::{NVersion, NVersionedService, ProtocolFactory};

/// The microservices of Figure 1's "small-scale social network deployment".
pub const SERVICES: &[&str] = &[
    "frontend-logic",
    "compose-post",
    "search",
    "user-service",
    "home-timeline",
    "social-graph",
    "url-shorten",
    "media",
    "user-storage",
    "post-storage",
    "home-timeline-storage",
    "social-graph-storage",
];

/// The subset worth protecting: "the microservices that handle unmodified
/// user data".
pub const PROTECTED: &[&str] = &["search", "compose-post"];

fn stub_service(name: &'static str) -> Arc<HttpService> {
    Arc::new(HttpService::new(name).route("GET", "/", move |req, _ctx| {
        HttpResponse::ok(format!("{name}: handled {}", req.path))
    }))
}

/// A deployed social network, possibly with RDDR protecting a subset.
pub struct SocialNetwork {
    /// The hosting cluster.
    pub cluster: Cluster,
    /// The RDDR-protected services (empty when deployed without
    /// protection).
    pub services: Vec<NVersionedService>,
    /// The unprotected services' containers.
    pub containers: Vec<ContainerHandle>,
    /// Address of each logical service's entry point.
    pub entrypoints: Vec<(String, ServiceAddr)>,
}

impl std::fmt::Debug for SocialNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SocialNetwork")
            .field("containers", &self.container_count())
            .field("services", &self.services.len())
            .finish()
    }
}

impl SocialNetwork {
    /// Total containers, the unit of the paper's overhead arithmetic
    /// ("if all microservice containers … were equally costly").
    pub fn container_count(&self) -> usize {
        let protected: usize = self.services.iter().map(|s| s.containers.len()).sum();
        self.containers.len() + protected
    }
}

/// Deploys the plain (unprotected) social network: one container each.
pub fn deploy_plain(cluster: Cluster) -> SocialNetwork {
    let mut containers = Vec::new();
    let mut entrypoints = Vec::new();
    for (i, name) in SERVICES.iter().enumerate() {
        let addr = ServiceAddr::new(*name, 8000 + i as u16);
        containers.push(
            cluster
                .run_container(
                    format!("{name}-0"),
                    Image::new(*name, "v1"),
                    &addr,
                    stub_service(name),
                )
                .expect("social services deploy"),
        );
        entrypoints.push((name.to_string(), addr));
    }
    SocialNetwork {
        cluster,
        services: Vec::new(),
        containers,
        entrypoints,
    }
}

/// Deploys the micro-versioned network: every service once, except the
/// [`PROTECTED`] subset which runs `n` diverse instances behind an RDDR
/// incoming proxy.
pub fn deploy_microversioned(cluster: Cluster, n: usize) -> SocialNetwork {
    let mut containers = Vec::new();
    let mut services = Vec::new();
    let mut entrypoints = Vec::new();
    for (i, name) in SERVICES.iter().enumerate() {
        let base_port = 8000 + (i as u16) * 10;
        if PROTECTED.contains(name) {
            let config = EngineConfig::builder(n)
                .response_deadline(Duration::from_secs(2))
                .build()
                .expect("static config");
            let protocol: ProtocolFactory = Arc::new(|| Box::new(HttpProtocol::new()));
            let service = (0..n)
                .fold(NVersion::new(*name, config, protocol), |nv, k| {
                    nv.variant(Image::new(*name, format!("v{}", k + 1)), stub_service(name))
                })
                .deploy(&cluster, &ServiceAddr::new(*name, base_port))
                .expect("protected service deploys");
            entrypoints.push((name.to_string(), service.addr.clone()));
            services.push(service);
        } else {
            let addr = ServiceAddr::new(*name, base_port);
            containers.push(
                cluster
                    .run_container(
                        format!("{name}-0"),
                        Image::new(*name, "v1"),
                        &addr,
                        stub_service(name),
                    )
                    .expect("social services deploy"),
            );
            entrypoints.push((name.to_string(), addr));
        }
    }
    SocialNetwork {
        cluster,
        services,
        containers,
        entrypoints,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rddr_httpsim::HttpClient;

    #[test]
    fn plain_network_has_one_container_per_service() {
        let net = deploy_plain(Cluster::new(4));
        assert_eq!(net.container_count(), SERVICES.len());
    }

    #[test]
    fn microversioned_overhead_matches_paper_arithmetic() {
        let plain = deploy_plain(Cluster::new(4));
        let protected = deploy_microversioned(Cluster::new(4), 3);
        // 12 services; 2 protected ones gain 2 extra containers each.
        let extra = protected.container_count() - plain.container_count();
        assert_eq!(extra, 4);
        let overhead = extra as f64 / plain.container_count() as f64;
        assert!((overhead - 1.0 / 3.0).abs() < 1e-9, "4/12 extra containers");
        assert_eq!(protected.services.len(), PROTECTED.len());
    }

    #[test]
    fn protected_services_still_answer_through_rddr() {
        let net = deploy_microversioned(Cluster::new(4), 3);
        let fabric = net.cluster.net();
        for (name, addr) in &net.entrypoints {
            let mut client = HttpClient::connect(&fabric, addr).unwrap();
            let resp = client.get("/").unwrap();
            assert_eq!(resp.status, 200, "{name}");
            assert!(resp.body_text().starts_with(name.as_str()), "{name}");
        }
    }
}
