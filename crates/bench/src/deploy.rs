//! Deployment builders for the §V-G performance figures: a single MiniPg
//! baseline, the same behind an Envoy front proxy, and a 3-versioned MiniPg
//! set behind RDDR — each on its own cluster so CPU/memory are attributable.

use std::sync::Arc;
use std::time::Duration;

use rddr_core::EngineConfig;
use rddr_httpsim::EnvoySim;
use rddr_net::{ServiceAddr, SimNet};
use rddr_orchestra::{Cluster, ContainerHandle, CpuGovernor, Image};
use rddr_pgsim::{Database, PgServer, PgServerConfig, PgVersion};
use rddr_protocols::PgProtocol;
use rddr_proxy::{NVersion, NVersionedService, ProtocolFactory};

/// The Figure 5/6 cost model: a deliberately heavy per-statement cost so the
/// vCPU governor — not harness overhead — is the bottleneck, reproducing
/// the paper's saturation crossover ("RDDR's throughput tapers off above 16
/// simultaneous clients" on a 32-vCPU server).
pub const PG_COST_MODEL: PgServerConfig = PgServerConfig {
    base_cost: Duration::from_millis(2),
    cost_per_row: Duration::from_micros(10),
};

/// A running database deployment: the address clients dial, plus the
/// cluster that hosts it (for resource sampling).
pub struct PgDeployment {
    /// Human-readable label (`"rddr"`, `"envoy"`, `"bare"`).
    pub label: &'static str,
    /// The address clients connect to.
    pub addr: ServiceAddr,
    /// The hosting cluster.
    pub cluster: Cluster,
    /// The RDDR deployment, if this is one; dropped before `handles`.
    service: Option<NVersionedService>,
    /// Containers outside an N-versioned set, kept alive for the
    /// deployment's lifetime.
    pub handles: Vec<ContainerHandle>,
}

impl std::fmt::Debug for PgDeployment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PgDeployment")
            .field("label", &self.label)
            .field("addr", &self.addr)
            .finish()
    }
}

impl PgDeployment {
    /// Aggregate resource usage of the whole deployment.
    pub fn usage(&self) -> rddr_orchestra::ResourceSample {
        self.cluster.usage("")
    }

    /// Instantaneous vCPU utilization of the deployment's node.
    pub fn utilization(&self) -> f64 {
        self.cluster.governor().utilization()
    }

    /// RDDR proxy statistics, if this deployment has a proxy.
    pub fn proxy_stats(&self) -> Option<rddr_proxy::StatsSnapshot> {
        self.service.as_ref().map(|s| s.proxy.stats())
    }
}

fn cluster(vcpus: usize, time_scale: f64) -> Cluster {
    Cluster::with_governor(
        SimNet::new(),
        CpuGovernor::with_time_scale(vcpus, time_scale),
    )
}

fn pg_protocol() -> ProtocolFactory {
    Arc::new(|| Box::new(PgProtocol::new()))
}

/// One MiniPg instance, clients connect directly (Figure 5's "1x Postgres").
///
/// `seed` populates each fresh database; `vcpus`/`time_scale` shape the
/// node (the paper's server machine has 32 vCPUs).
pub fn deploy_pg_baseline(
    seed: &dyn Fn(&mut Database),
    cost: PgServerConfig,
    vcpus: usize,
    time_scale: f64,
) -> PgDeployment {
    let cluster = cluster(vcpus, time_scale);
    let mut db = Database::new(PgVersion::parse("10.7").expect("static version"));
    seed(&mut db);
    let addr = ServiceAddr::new("postgres", 5432);
    let handle = cluster
        .run_container(
            "postgres-0",
            Image::new("postgres", "10.7"),
            &addr,
            Arc::new(PgServer::with_config(db, cost)),
        )
        .expect("baseline deploys");
    PgDeployment {
        label: "bare",
        addr,
        cluster,
        service: None,
        handles: vec![handle],
    }
}

/// One MiniPg instance behind an Envoy front proxy (Figure 5's
/// "1x Postgres + Envoy").
pub fn deploy_pg_envoy(
    seed: &dyn Fn(&mut Database),
    cost: PgServerConfig,
    vcpus: usize,
    time_scale: f64,
) -> PgDeployment {
    let cluster = cluster(vcpus, time_scale);
    let mut db = Database::new(PgVersion::parse("10.7").expect("static version"));
    seed(&mut db);
    let pg_addr = ServiceAddr::new("postgres", 5432);
    let envoy_addr = ServiceAddr::new("envoy", 5432);
    let mut handles = vec![cluster
        .run_container(
            "postgres-0",
            Image::new("postgres", "10.7"),
            &pg_addr,
            Arc::new(PgServer::with_config(db, cost)),
        )
        .expect("postgres deploys")];
    handles.push(
        cluster
            .run_container(
                "envoy-0",
                Image::new("envoy", "v1.14"),
                &envoy_addr,
                Arc::new(EnvoySim::new(pg_addr)),
            )
            .expect("envoy deploys"),
    );
    PgDeployment {
        label: "envoy",
        addr: envoy_addr,
        cluster,
        service: None,
        handles,
    }
}

/// Three identical MiniPg instances behind RDDR (Figures 4–6's "RDDR"
/// deployment; "all Postgres instances are identical").
pub fn deploy_pg_rddr(
    seed: &dyn Fn(&mut Database),
    cost: PgServerConfig,
    vcpus: usize,
    time_scale: f64,
) -> PgDeployment {
    let cluster = cluster(vcpus, time_scale);
    let config = EngineConfig::builder(3)
        .filter_pair(0, 1)
        .response_deadline(Duration::from_secs(30))
        .build()
        .expect("static config");
    let rddr = (0..3)
        .fold(NVersion::new("postgres", config, pg_protocol()), |nv, _| {
            let mut db = Database::new(PgVersion::parse("10.7").expect("static version"));
            seed(&mut db);
            nv.variant(
                Image::new("postgres", "10.7"),
                Arc::new(PgServer::with_config(db, cost)),
            )
        })
        .instances_at(ServiceAddr::new("pg", 5432))
        .deploy(&cluster, &ServiceAddr::new("rddr", 5432))
        .expect("rddr deploys");
    PgDeployment {
        label: "rddr",
        addr: rddr.addr.clone(),
        cluster,
        service: Some(rddr),
        handles: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rddr_net::Network;
    use rddr_pgsim::PgClient;

    fn tiny_seed(db: &mut Database) {
        let mut s = db.session("app");
        db.execute(&mut s, "CREATE TABLE kv (k INT, v TEXT)")
            .unwrap();
        db.execute(&mut s, "INSERT INTO kv VALUES (1, 'one'), (2, 'two')")
            .unwrap();
    }

    fn quick_cost() -> PgServerConfig {
        PgServerConfig {
            base_cost: Duration::from_micros(10),
            cost_per_row: Duration::from_micros(1),
        }
    }

    #[test]
    fn all_three_deployments_answer_identically() {
        let mut answers = Vec::new();
        for deployment in [
            deploy_pg_baseline(&tiny_seed, quick_cost(), 4, 0.01),
            deploy_pg_envoy(&tiny_seed, quick_cost(), 4, 0.01),
            deploy_pg_rddr(&tiny_seed, quick_cost(), 4, 0.01),
        ] {
            let conn = deployment.cluster.net().dial(&deployment.addr).unwrap();
            let mut client = PgClient::connect(conn, "app").unwrap();
            let r = client.query("SELECT v FROM kv WHERE k = 2").unwrap();
            answers.push((deployment.label, r.rows));
        }
        assert_eq!(answers[0].1, answers[1].1);
        assert_eq!(answers[0].1, answers[2].1);
        assert_eq!(answers[0].1, vec![vec!["two".to_string()]]);
    }

    #[test]
    fn rddr_deployment_uses_three_instances_of_memory() {
        let quick = quick_cost();
        let baseline = deploy_pg_baseline(&tiny_seed, quick, 4, 0.01);
        let rddr = deploy_pg_rddr(&tiny_seed, quick, 4, 0.01);
        // Memory is charged on first touch: issue one query each.
        for d in [&baseline, &rddr] {
            let conn = d.cluster.net().dial(&d.addr).unwrap();
            let mut client = PgClient::connect(conn, "app").unwrap();
            client.query("SELECT COUNT(*) FROM kv").unwrap();
        }
        let wait = |d: &PgDeployment| {
            let deadline = std::time::Instant::now() + Duration::from_secs(2);
            loop {
                let m = d.usage().mem_bytes;
                if m > 0 || std::time::Instant::now() > deadline {
                    return m;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        };
        let base_mem = wait(&baseline) as f64;
        let rddr_mem = wait(&rddr) as f64;
        assert!(base_mem > 0.0);
        let ratio = rddr_mem / base_mem;
        assert!(
            (2.5..=3.5).contains(&ratio),
            "3-version memory should be ~3x, got {ratio:.2}"
        );
    }
}
