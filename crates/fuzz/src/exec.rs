//! Deployment recipes and case drivers.
//!
//! One fresh deployment per case keeps executions independent (no SQL
//! state bleeding between cases) and is what makes replay exact: every
//! reproducer carries everything needed to rebuild the world it diverged
//! in. Every target deploys through one [`rddr_proxy::NVersion`] call, the
//! same builder `rddr-vulns` and the chaos suites use. The paged storage
//! target also registers [`rddr_orchestra::Supervisor`] factories for its
//! instances, so `!CRASH` items can kill, crash, and respawn an instance
//! mid-stream.

use std::sync::Arc;
use std::time::Duration;

use rddr_core::protocol::LineProtocol;
use rddr_core::{DegradePolicy, EngineConfig, ResponsePolicy, VarianceRule, VarianceRules};
use rddr_httpsim::haproxy::smuggling_target_service;
use rddr_httpsim::rest::{render_service, sanitize_service, svg_service};
use rddr_httpsim::{HaproxySim, HttpClient, NginxSim, NginxVersion};
use rddr_libsim::{CairoSvg, LxmlClean, Markdown2, MarkdownSafe, SanitizeHtml, SvgLib, VirtualFs};
use rddr_net::{
    BoxStream, ConnSelector, FaultNet, FaultPlan, Network, ServiceAddr, SimNet, StorageFault,
    Stream,
};
use rddr_orchestra::{
    Cluster, ContainerHandle, CpuGovernor, FnService, Image, Service, Supervisor,
};
use rddr_pgsim::{
    CockroachFlavor, Database, DbFlavor, PgClient, PgServer, PgServerConfig, PgVersion,
    PlanDiskFaults, StorageEngine, VDisk,
};
use rddr_protocols::{HttpProtocol, PgProtocol};
use rddr_proxy::{NVersion, NVersionedService, ProtocolFactory, ProxyTelemetry};

use crate::case::FuzzCase;
use crate::target::{Family, TargetId};
use crate::FuzzError;

/// Which instance set a deployment runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mode {
    /// The production recipe: version/implementation-diverse instances.
    Mixed,
    /// The triage control: every slot runs instance 0's recipe.
    Uniform,
}

/// The outcome of driving one case through one deployment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Execution {
    /// Whether the audit log recorded at least one divergence.
    pub diverged: bool,
    /// Normalized signature of the first divergence (empty when unanimous).
    pub key: String,
    /// Raw audit detail of the first divergence.
    pub detail: String,
    /// The full replay-stable audit JSON.
    pub audit: String,
    /// Items actually fed to the deployment.
    pub items_run: usize,
    /// Whether the client connection was severed at least once.
    pub severed: bool,
}

/// The instance the pg-storage chaos schedule crashes and tears.
pub(crate) const CRASH_INSTANCE: usize = 2;

/// Quick cost model so a fuzz campaign's thousands of statements stay fast
/// under the time-scaled governor.
const fn quick_cost() -> PgServerConfig {
    PgServerConfig {
        base_cost: Duration::from_micros(10),
        cost_per_row: Duration::from_micros(1),
    }
}

fn scenario_cluster() -> Cluster {
    Cluster::with_governor(SimNet::new(), CpuGovernor::with_time_scale(8, 0.01))
}

fn pg_protocol() -> ProtocolFactory {
    Arc::new(|| Box::new(PgProtocol::new()))
}

fn http_protocol() -> ProtocolFactory {
    Arc::new(|| Box::new(HttpProtocol::new()))
}

fn line_protocol() -> ProtocolFactory {
    Arc::new(|| Box::new(LineProtocol::new()))
}

fn server_banner_variance() -> Result<VarianceRules, FuzzError> {
    let mut rules = VarianceRules::new();
    rules.push(
        VarianceRule::new("http:header:server", "*")
            .map_err(|e| FuzzError::msg(format!("variance rule: {e}")))?,
    );
    Ok(rules)
}

fn config_err(e: impl std::fmt::Display) -> FuzzError {
    FuzzError::msg(format!("deploy: {e}"))
}

/// Arms the connection + storage faults the pg-storage target composes
/// with. Both fault kinds come from the same seeded plan: the first crash
/// of the shadow-discard instance's WAL tears its durable tail, and the
/// first proxy dial to instance 1 is refused (a transient connection
/// fault the quorum must absorb).
pub(crate) fn arm_chaos(plan: &FaultPlan) {
    plan.storage_inject(
        &format!("db-{CRASH_INSTANCE}"),
        Some("wal"),
        ConnSelector::Nth(0),
        StorageFault::TruncatedWalTail,
    );
    plan.refuse(&ServiceAddr::new("db", 5433), ConnSelector::Nth(0));
}

/// A running fuzz deployment: the N-versioned service, any backends
/// behind it, and telemetry, torn down on drop.
pub(crate) struct Deployment {
    cluster: Cluster,
    telemetry: ProxyTelemetry,
    service: NVersionedService,
    /// Containers outside the N-versioned set (smuggling backends).
    _backends: Vec<ContainerHandle>,
    supervisor: Option<Supervisor>,
    disks: Vec<VDisk>,
}

fn seed_rls_schema(db: &mut Database) -> Result<(), FuzzError> {
    let mut session = db.session("admin");
    for sql in [
        "CREATE TABLE users (id INT, name TEXT, karma INT)",
        "INSERT INTO users VALUES (1, 'alice', 70), (2, 'bob', 55), \
         (3, 'carol', 91), (4, 'dave', 12)",
        "CREATE TABLE user_secrets (secret_level INT, owner TEXT, token TEXT)",
        "INSERT INTO user_secrets VALUES (10, 'app', 'app-token-blue'), \
         (20, 'app', 'app-token-green'), (9001, 'root', 'ROOT-ADMIN-KEY')",
        "ALTER TABLE user_secrets ENABLE ROW LEVEL SECURITY",
        "CREATE POLICY visible ON user_secrets USING (owner = 'app')",
        // The querying session must NOT be pgsim's bootstrap superuser
        // (`APP`): superusers are RLS-exempt, which would mask the
        // version-gated leak probe on every version.
        "GRANT SELECT ON users TO FUZZER",
        "GRANT SELECT ON user_secrets TO FUZZER",
    ] {
        db.execute(&mut session, sql)?;
    }
    Ok(())
}

fn seed_plain_schema(db: &mut Database) -> Result<(), FuzzError> {
    let mut session = db.session("root");
    for sql in [
        "CREATE TABLE inventory (id INT, sku TEXT, qty INT)",
        "INSERT INTO inventory VALUES (1, 'bolt', 120), (2, 'nut', 300), \
         (3, 'washer', 80), (4, 'rivet', 45), (5, 'screw', 260)",
        "CREATE TABLE audit_log (id INT, entry TEXT)",
        "INSERT INTO audit_log VALUES (1, 'boot'), (2, 'ready')",
    ] {
        db.execute(&mut session, sql)?;
    }
    Ok(())
}

fn seed_ledger_schema(db: &mut Database) -> Result<(), FuzzError> {
    let mut session = db.session("app");
    for sql in [
        "CREATE TABLE ledger (id INT, amount INT, note TEXT)",
        "INSERT INTO ledger VALUES (1, 100, 'opening'), (2, -40, 'fees')",
    ] {
        db.execute(&mut session, sql)?;
    }
    Ok(())
}

fn pg_variant(
    nv: NVersion,
    version: &str,
    seed: fn(&mut Database) -> Result<(), FuzzError>,
) -> Result<NVersion, FuzzError> {
    let parsed = PgVersion::parse(version)?;
    let mut db = Database::new(parsed);
    seed(&mut db)?;
    Ok(nv.variant(
        Image::new("postgres", version),
        Arc::new(PgServer::with_config(db, quick_cost())),
    ))
}

fn cockroach_variant(nv: NVersion) -> Result<NVersion, FuzzError> {
    let flavor = CockroachFlavor {
        scramble_row_order: true,
        ..CockroachFlavor::default()
    };
    let mut db = Database::with_flavor(PgVersion::parse("10.9")?, DbFlavor::Cockroach(flavor));
    seed_plain_schema(&mut db)?;
    Ok(nv.variant(
        Image::new("cockroach", "19.1.0"),
        Arc::new(PgServer::with_config(db, quick_cost())),
    ))
}

fn nginx_variant(nv: NVersion, version: &str) -> NVersion {
    let server = NginxSim::file_server(NginxVersion::parse(version));
    // The adjacent cache memory is identical across instances: the leak
    // models the *same* co-tenant secret sitting next to each buffer, so a
    // uniform vulnerable deployment leaks unanimously (version-gated, not
    // noise).
    server.publish(
        "/index.html",
        b"<html>fuzz range target</html>".to_vec(),
        b"CACHE-SECRET-adjacent-cache-line".to_vec(),
    );
    let big: Vec<u8> = (0..257u16).map(|i| b'a' + (i % 23) as u8).collect();
    server.publish(
        "/big.bin",
        big,
        b"CACHE-SECRET-adjacent-cache-line".to_vec(),
    );
    nv.variant(Image::new("nginx", version), Arc::new(server))
}

fn noise_echo(instance: usize) -> Arc<dyn Service> {
    Arc::new(FnService::new("noisy-echo", move |mut conn, _ctx| {
        let mut buf: Vec<u8> = Vec::new();
        let mut chunk = [0u8; 256];
        loop {
            match conn.read(&mut chunk) {
                Ok(0) | Err(_) => return,
                Ok(n) => buf.extend(chunk.iter().take(n).copied()),
            }
            while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = buf.drain(..=pos).collect();
                let mut reply: Vec<u8> = line
                    .iter()
                    .take(line.len().saturating_sub(1))
                    .copied()
                    .collect();
                // The per-instance marker models unmasked nondeterminism
                // (pointer values, worker ids) that identical versions
                // still disagree on.
                reply.extend(format!(" #i{instance}\n").into_bytes());
                if conn.write_all(&reply).is_err() {
                    return;
                }
            }
        }
    }))
}

/// Builds a fresh deployment of `target` in `mode`. When `chaos` is given
/// (pg-storage only), instance disks draw faults from the plan and the
/// proxy dials instances through a [`FaultNet`] wrapping the same plan.
pub(crate) fn deploy(
    target: TargetId,
    mode: Mode,
    chaos: Option<&FaultPlan>,
) -> Result<Deployment, FuzzError> {
    let cluster = scenario_cluster();
    let telemetry = ProxyTelemetry::new("fuzz");
    let config = |n| EngineConfig::builder(n).response_deadline(Duration::from_millis(1500));
    let mut backends = Vec::new();
    // pg-storage only: each instance's engine and disk, for its respawn.
    let mut paged = Vec::new();

    let (nv, entry) = match target {
        TargetId::PgRls => {
            let versions = match mode {
                Mode::Mixed => ["10.7", "10.7", "10.9"],
                Mode::Uniform => ["10.7", "10.7", "10.7"],
            };
            let nv = NVersion::new(
                "pg",
                config(3).filter_pair(0, 1).build().map_err(config_err)?,
                pg_protocol(),
            );
            let nv = versions
                .into_iter()
                .try_fold(nv, |nv, v| pg_variant(nv, v, seed_rls_schema))?;
            (nv, ServiceAddr::new("pg", 5432))
        }
        TargetId::PgFlavors => {
            let nv = NVersion::new(
                "pg",
                config(3).filter_pair(0, 1).build().map_err(config_err)?,
                pg_protocol(),
            );
            let nv = pg_variant(nv, "10.9", seed_plain_schema)?;
            let nv = pg_variant(nv, "10.9", seed_plain_schema)?;
            let nv = match mode {
                Mode::Mixed => cockroach_variant(nv)?,
                Mode::Uniform => pg_variant(nv, "10.9", seed_plain_schema)?,
            };
            (nv, ServiceAddr::new("pg", 5432))
        }
        TargetId::PgStorage => {
            let specs = match mode {
                Mode::Mixed => [
                    "paged:replay-forward",
                    "paged:replay-forward",
                    "paged:shadow-discard",
                ],
                Mode::Uniform => [
                    "paged:replay-forward",
                    "paged:replay-forward",
                    "paged:replay-forward",
                ],
            };
            let net: Arc<dyn Network> = match chaos {
                Some(plan) => Arc::new(FaultNet::new(cluster.net(), plan.clone())),
                None => Arc::new(cluster.net()),
            };
            let mut nv = NVersion::new(
                "db",
                EngineConfig::builder(3)
                    .policy(ResponsePolicy::MajorityVote)
                    .degrade(DegradePolicy::eject())
                    .response_deadline(Duration::from_millis(800))
                    .instance_deadline(Duration::from_millis(300))
                    .build()
                    .map_err(config_err)?,
                pg_protocol(),
            )
            .instances_at(ServiceAddr::new("db", 5432))
            .proxy_net(net);
            for (i, spec) in specs.iter().enumerate() {
                let engine = StorageEngine::parse(spec)?;
                let disk = match chaos {
                    Some(plan) => PlanDiskFaults::disk(plan.clone(), &format!("db-{i}")),
                    None => VDisk::new(format!("db-{i}")),
                };
                let mut db = Database::with_engine(
                    PgVersion::parse("10.7")?,
                    DbFlavor::Postgres,
                    engine,
                    &disk,
                )?;
                seed_ledger_schema(&mut db)?;
                nv = nv.variant(
                    Image::new("minipg", *spec),
                    Arc::new(PgServer::with_config(db, quick_cost())),
                );
                paged.push((engine, disk));
            }
            (nv, ServiceAddr::new("rddr-db", 5432))
        }
        TargetId::HttpRange => {
            let versions = match mode {
                Mode::Mixed => ["1.13.2", "1.13.2", "1.13.4"],
                Mode::Uniform => ["1.13.2", "1.13.2", "1.13.2"],
            };
            let nv = NVersion::new(
                "nginx",
                config(3)
                    .filter_pair(0, 1)
                    .variance(server_banner_variance()?)
                    .build()
                    .map_err(config_err)?,
                http_protocol(),
            );
            let nv = versions.into_iter().fold(nv, nginx_variant);
            (nv, ServiceAddr::new("nginx", 8000))
        }
        TargetId::HttpSmuggle => {
            for i in 0..2u16 {
                backends.push(
                    cluster
                        .run_container(
                            format!("s1-{i}"),
                            Image::new("s1", "v1"),
                            &ServiceAddr::new("s1", 9100 + i),
                            Arc::new(smuggling_target_service()),
                        )
                        .map_err(config_err)?,
                );
            }
            let haproxy = Image::new("haproxy", "1.5.3");
            let nv = NVersion::new(
                "gw",
                config(2)
                    .variance(server_banner_variance()?)
                    .build()
                    .map_err(config_err)?,
                http_protocol(),
            )
            .variant(
                haproxy.clone(),
                Arc::new(HaproxySim::new(ServiceAddr::new("s1", 9100))),
            );
            let nv = match mode {
                Mode::Mixed => nv.variant(
                    Image::new("nginx", "1.13.4"),
                    Arc::new(NginxSim::reverse_proxy(
                        NginxVersion::parse("1.13.4"),
                        ServiceAddr::new("s1", 9101),
                    )),
                ),
                Mode::Uniform => nv.variant(
                    haproxy,
                    Arc::new(HaproxySim::new(ServiceAddr::new("s1", 9101))),
                ),
            };
            (nv, ServiceAddr::new("gw", 8080))
        }
        TargetId::LibMarkdown | TargetId::LibSvg | TargetId::LibXml => {
            let pair: [Arc<dyn Service>; 2] = match target {
                TargetId::LibMarkdown => [
                    Arc::new(render_service(Arc::new(Markdown2::new()))),
                    Arc::new(render_service(Arc::new(MarkdownSafe::new()))),
                ],
                TargetId::LibSvg => {
                    let fs = VirtualFs::with_defaults();
                    [
                        Arc::new(svg_service(Arc::new(SvgLib::new()), fs.clone())),
                        Arc::new(svg_service(Arc::new(CairoSvg::new()), fs)),
                    ]
                }
                _ => [
                    Arc::new(sanitize_service(Arc::new(LxmlClean::new()))),
                    Arc::new(sanitize_service(Arc::new(SanitizeHtml::new()))),
                ],
            };
            let [vulnerable, safe] = pair;
            let nv = NVersion::new(
                "rest",
                config(2).build().map_err(config_err)?,
                http_protocol(),
            )
            .variant(Image::new("lib", "vulnerable"), Arc::clone(&vulnerable));
            let nv = match mode {
                Mode::Mixed => nv.variant(Image::new("lib", "safe"), safe),
                Mode::Uniform => nv.variant(Image::new("lib", "vulnerable"), vulnerable),
            };
            (nv, ServiceAddr::new("rest", 8000))
        }
        TargetId::LineNoise => {
            // Noise is per-instance, so Mixed and Uniform deploy the same
            // thing: the point of this target is that its divergences
            // survive the uniform replay and triage as false positives.
            let nv = NVersion::new(
                "echo",
                config(2).build().map_err(config_err)?,
                line_protocol(),
            )
            .variant(Image::new("echo", "v1"), noise_echo(0))
            .variant(Image::new("echo", "v1"), noise_echo(1));
            (nv, ServiceAddr::new("echo", 7000))
        }
    };

    let service = nv
        .telemetry(telemetry.clone())
        .deploy(&cluster, &entry)
        .map_err(config_err)?;
    // Each paged instance respawns under its own name and address through
    // a factory that reopens its disk, so WAL recovery (under the
    // instance's policy) runs before the readiness probe.
    let supervisor = (!paged.is_empty()).then(Supervisor::new);
    if let Some(sup) = &supervisor {
        for (handle, (engine, disk)) in service.containers.iter().zip(&paged) {
            let (engine, disk) = (*engine, disk.clone());
            sup.register_factory(
                handle.name(),
                handle.image().clone(),
                handle.addr().clone(),
                move || {
                    let db = Database::with_engine(
                        PgVersion::parse("10.7").map_err(|e| e.to_string())?,
                        DbFlavor::Postgres,
                        engine,
                        &disk,
                    )
                    .map_err(|e| e.to_string())?;
                    Ok(Arc::new(PgServer::with_config(db, quick_cost())) as Arc<dyn Service>)
                },
            );
        }
    }

    Ok(Deployment {
        cluster,
        telemetry,
        service,
        _backends: backends,
        supervisor,
        disks: paged.into_iter().map(|(_, disk)| disk).collect(),
    })
}

/// Collapses value noise out of an audit detail so repeated instances of
/// the same divergence shape dedupe to one signature: digit runs become
/// one `#`, double-quoted spans (response bodies, fuzzed values) are
/// elided entirely, and the tail is bounded. What survives is the *shape*
/// of the divergence — which field, which instance, structural or not —
/// the same philosophy the de-noiser applies to responses.
fn normalize_detail(detail: &str) -> String {
    let mut out = String::with_capacity(detail.len().min(200));
    let mut in_digits = false;
    let mut in_quotes = false;
    let mut escaped = false;
    for c in detail.chars() {
        if in_quotes {
            // Quoted spans come from `{:?}`-formatted bodies, so `\"` and
            // `\\` inside them are content, not delimiters.
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_quotes = false;
                out.push('"');
            }
            continue;
        }
        if c == '"' {
            in_quotes = true;
            out.push('"');
            in_digits = false;
            continue;
        }
        if c.is_ascii_digit() {
            if !in_digits {
                out.push('#');
                in_digits = true;
            }
        } else {
            in_digits = false;
            out.push(c);
        }
        if out.len() >= 160 {
            break;
        }
    }
    out
}

fn collect(dep: &Deployment, case: &FuzzCase, items_run: usize, severed: bool) -> Execution {
    // Let session threads retire so audit appends and counters settle
    // (same discipline as the chaos suites).
    std::thread::sleep(Duration::from_millis(50));
    let records = dep.telemetry.audit.recent();
    let first = records.first();
    let key = first
        .map(|r| {
            format!(
                "{}|{:?}|{}|{}",
                case.target.name(),
                r.offending_instance,
                r.structural,
                normalize_detail(&r.detail)
            )
        })
        .unwrap_or_default();
    Execution {
        diverged: !records.is_empty(),
        key,
        detail: first.map(|r| r.detail.clone()).unwrap_or_default(),
        audit: dep.telemetry.audit.stable_json(),
        items_run,
        severed,
    }
}

fn drive_sql(
    dep: &mut Deployment,
    case: &FuzzCase,
    user: &str,
) -> Result<(usize, bool), FuzzError> {
    let net = dep.cluster.net();
    let mut client = Some(PgClient::connect(net.dial(&dep.service.addr)?, user)?);
    let mut items_run = 0usize;
    let mut severed = false;
    for item in &case.items {
        items_run += 1;
        if let Some(rest) = item.strip_prefix("!CRASH ") {
            let Some(idx) = rest.trim().parse::<usize>().ok().filter(|i| *i < 3) else {
                continue;
            };
            if dep.supervisor.is_none() {
                continue;
            }
            if let Some(handle) = dep.service.containers.get_mut(idx) {
                handle.kill();
            }
            if let Some(disk) = dep.disks.get(idx) {
                disk.crash();
            }
            let fresh = match dep.supervisor.as_ref() {
                Some(sup) => sup
                    .respawn(&dep.cluster, &format!("db-{idx}"), Duration::from_secs(2))
                    .map_err(|e| FuzzError::msg(format!("respawn db-{idx}: {e}")))?,
                None => continue,
            };
            // Keep the fresh handle alive: dropping it would stop the
            // container it just respawned.
            if let Some(slot) = dep.service.containers.get_mut(idx) {
                *slot = fresh;
            }
            // A recovered replica reappears as a fresh session: reconnect
            // so the next exchange fans out to all instances again.
            drop(client.take());
            client = Some(PgClient::connect(net.dial(&dep.service.addr)?, user)?);
            continue;
        }
        if item == "!RECONNECT" {
            drop(client.take());
            client = Some(PgClient::connect(net.dial(&dep.service.addr)?, user)?);
            continue;
        }
        let Some(active) = client.as_mut() else { break };
        if active.query(item).is_err() {
            severed = true;
            break;
        }
    }
    Ok((items_run, severed))
}

fn drive_http(dep: &Deployment, case: &FuzzCase) -> Result<(usize, bool), FuzzError> {
    let net = dep.cluster.net();
    let mut items_run = 0usize;
    let mut severed = false;
    for item in &case.items {
        items_run += 1;
        let mut client = HttpClient::connect(&net, &dep.service.addr)?;
        if client.send_raw(item.as_bytes()).is_err() || client.read_response().is_err() {
            severed = true;
        }
    }
    Ok((items_run, severed))
}

fn drive_payload(
    dep: &Deployment,
    case: &FuzzCase,
    route: &str,
) -> Result<(usize, bool), FuzzError> {
    let net = dep.cluster.net();
    let mut items_run = 0usize;
    let mut severed = false;
    for item in &case.items {
        items_run += 1;
        let mut client = HttpClient::connect(&net, &dep.service.addr)?;
        if client.post(route, item).is_err() {
            severed = true;
        }
    }
    Ok((items_run, severed))
}

fn read_line(conn: &mut BoxStream) -> bool {
    let mut seen = Vec::new();
    let mut chunk = [0u8; 128];
    loop {
        match conn.read(&mut chunk) {
            Ok(0) | Err(_) => return false,
            Ok(n) => {
                seen.extend(chunk.iter().take(n).copied());
                if seen.contains(&b'\n') {
                    return true;
                }
            }
        }
    }
}

fn drive_line(dep: &Deployment, case: &FuzzCase) -> Result<(usize, bool), FuzzError> {
    let net = dep.cluster.net();
    let mut conn = Some(net.dial(&dep.service.addr)?);
    let mut items_run = 0usize;
    let mut severed = false;
    for item in &case.items {
        items_run += 1;
        let Some(stream) = conn.as_mut() else {
            conn = Some(net.dial(&dep.service.addr)?);
            continue;
        };
        let sent = stream.write_all(format!("{item}\n").as_bytes()).is_ok();
        if !sent || !read_line(stream) {
            severed = true;
            conn = None;
        }
    }
    Ok((items_run, severed))
}

/// Deploys `target` in `mode` (with the chaos plan derived from
/// `chaos_seed`, when given and supported) and drives `case` through it.
pub(crate) fn execute(
    target: TargetId,
    mode: Mode,
    chaos_seed: Option<u64>,
    case: &FuzzCase,
) -> Result<Execution, FuzzError> {
    let plan = chaos_seed
        .filter(|_| target.supports_chaos())
        .map(FaultPlan::new);
    if let Some(p) = &plan {
        arm_chaos(p);
    }
    let mut dep = deploy(target, mode, plan.as_ref())?;
    let (items_run, severed) = match target.family() {
        Family::Sql => {
            let user = match target {
                TargetId::PgFlavors => "root",
                TargetId::PgRls => "fuzzer",
                _ => "app",
            };
            drive_sql(&mut dep, case, user)?
        }
        Family::Http => drive_http(&dep, case)?,
        Family::Payload => {
            let route = match target {
                TargetId::LibMarkdown => "/render",
                TargetId::LibSvg => "/convert",
                _ => "/sanitize",
            };
            drive_payload(&dep, case, route)?
        }
        Family::Line => drive_line(&dep, case)?,
    };
    Ok(collect(&dep, case, items_run, severed))
}

/// Classifies a divergence found on the mixed deployment. See the module
/// docs of [`crate::triage`] for the oracle.
pub(crate) fn classify(
    target: TargetId,
    case: &FuzzCase,
    chaos_seed: Option<u64>,
) -> Result<crate::Verdict, FuzzError> {
    if chaos_seed.is_some() {
        let clean = execute(target, Mode::Mixed, None, case)?;
        if !clean.diverged {
            return Ok(crate::Verdict::ChaosOnly);
        }
    }
    let uniform = execute(target, Mode::Uniform, None, case)?;
    Ok(if uniform.diverged {
        crate::Verdict::FalsePositive
    } else {
        crate::Verdict::TruePositive
    })
}
