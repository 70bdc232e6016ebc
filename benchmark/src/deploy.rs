//! Real deployments built only from the repo's public APIs, plus the
//! benchmark-owned services they protect (echo, HTTP, chain app, backend).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;
use rddr_core::EngineConfig;
use rddr_net::{BoxStream, Network, ServiceAddr, SimNet, Stream, TcpNet};
use rddr_orchestra::{CpuGovernor, ResourceMeter, Service, ServiceCtx};
use rddr_pgsim::{
    pgbench, Database, DbFlavor, PgServer, PgServerConfig, PgVersion, StorageEngine, VDisk,
};
use rddr_pgstore::paged::WAL_FILE;
use rddr_proxy::{IncomingProxy, OutgoingProxy, ProxyTelemetry};

use crate::trace::{Roles, Tracer};
use crate::workload::{
    backend_reply, history_table, http_parse_request, http_response, line_reply, Kind, PgReference,
    INSTANCES, SESSIONS,
};

type Handler = Arc<dyn Fn(BoxStream) + Send + Sync>;

/// A benchmark-owned service: one accept thread, one blocking thread per
/// connection (sessions are few and fixed, so the thread count is too).
pub struct Host {
    net: Arc<dyn Network>,
    pub addr: ServiceAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Host {
    pub fn start(net: &Arc<dyn Network>, want: &ServiceAddr, name: &str, handler: Handler) -> Host {
        let mut listener = net.listen(want).expect("benchmark service binds");
        let addr = listener.local_addr();
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::default();
        let accept = {
            let (stop, conns, name) = (Arc::clone(&stop), Arc::clone(&conns), name.to_string());
            std::thread::Builder::new()
                .name(format!("{name}-accept"))
                .spawn(move || {
                    while let Ok(conn) = listener.accept() {
                        if stop.load(Ordering::SeqCst) {
                            return;
                        }
                        let handler = Arc::clone(&handler);
                        let serve = std::thread::Builder::new()
                            .name(format!("{name}-conn"))
                            .spawn(move || handler(conn))
                            .expect("connection thread spawns");
                        conns.lock().push(serve);
                    }
                })
                .expect("accept thread spawns")
        };
        Host {
            net: Arc::clone(net),
            addr,
            stop,
            accept: Some(accept),
            conns,
        }
    }
}

impl Drop for Host {
    /// Joins every thread. Peers must already have closed their
    /// connections (the proxies are dropped first), or a handler blocked in
    /// `read` would hang the join.
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.net.unbind_addr(&self.addr);
        // TCP's unbind is a no-op: wake the accept loop so it sees `stop`.
        if let Ok(mut conn) = self.net.dial(&self.addr) {
            conn.shutdown();
        }
        if let Some(t) = self.accept.take() {
            t.join().expect("accept thread exits cleanly");
        }
        for t in self.conns.lock().drain(..) {
            t.join().expect("connection thread exits cleanly");
        }
    }
}

/// Serves newline-delimited requests until EOF: every complete line in a
/// read is answered through `reply`, all answers of that read in one write.
fn serve_lines(mut conn: BoxStream, mut reply: impl FnMut(&[u8], &mut Vec<u8>) -> bool) {
    let mut buf = Vec::new();
    let mut out = Vec::new();
    let mut chunk = vec![0u8; 16 * 1024];
    loop {
        match conn.read(&mut chunk) {
            Ok(0) | Err(_) => return,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
        }
        let mut start = 0;
        while let Some(pos) = buf[start..].iter().position(|&b| b == b'\n') {
            if !reply(&buf[start..=start + pos], &mut out) {
                return;
            }
            start += pos + 1;
        }
        buf.drain(..start);
        if !out.is_empty() && conn.write_all(&out).is_err() {
            return;
        }
        out.clear();
    }
}

fn echo_instance() -> Handler {
    Arc::new(|conn| {
        serve_lines(conn, |line, out| {
            line_reply(line, out);
            true
        })
    })
}

fn backend() -> Handler {
    Arc::new(|conn| {
        serve_lines(conn, |line, out| {
            backend_reply(line, out);
            true
        })
    })
}

/// The `chain_backend` app: one backend call per request, through the
/// outgoing proxy, on a connection held for the client connection's life.
fn chain_instance(net: Arc<dyn Network>, outgoing: ServiceAddr) -> Handler {
    Arc::new(move |conn| {
        let Ok(mut call) = net.dial(&outgoing) else {
            return;
        };
        call.set_read_timeout(Some(Duration::from_secs(10)));
        let mut answer = Vec::new();
        let mut chunk = [0u8; 1024];
        serve_lines(conn, |line, out| {
            if call.write_all(line).is_err() {
                return false;
            }
            answer.clear();
            while answer.last() != Some(&b'\n') {
                match call.read(&mut chunk) {
                    Ok(0) | Err(_) => return false,
                    Ok(n) => answer.extend_from_slice(&chunk[..n]),
                }
            }
            line_reply(&answer, out);
            true
        })
    })
}

fn http_instance(instance: usize) -> Handler {
    Arc::new(move |mut conn| {
        let mut buf = Vec::new();
        let mut chunk = vec![0u8; 16 * 1024];
        loop {
            match conn.read(&mut chunk) {
                Ok(0) | Err(_) => return,
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
            }
            while let Some((id, leak, body, total)) = http_parse_request(&buf) {
                let response = http_response(instance, &id, &buf[body], leak);
                buf.drain(..total);
                if conn.write_all(&response).is_err() {
                    return;
                }
            }
        }
    })
}

fn pg_instance(server: Arc<PgServer>, net: Arc<dyn Network>) -> Handler {
    // Zero cost model below, so the governor never sleeps: the database
    // burns real CPU, not simulated time.
    let ctx = ServiceCtx {
        meter: ResourceMeter::new(),
        governor: CpuGovernor::new(1),
        net,
    };
    Arc::new(move |conn| server.handle(conn, &ctx))
}

const PG_ZERO_COST: PgServerConfig = PgServerConfig {
    base_cost: Duration::ZERO,
    cost_per_row: Duration::ZERO,
};

fn pg_version() -> PgVersion {
    PgVersion::parse("10.7").expect("static version")
}

/// Loads the pgbench dataset plus one history table per session.
fn pg_load(db: &mut Database, accounts: usize) {
    pgbench::load_scaled(db, accounts / 1000, 1000).expect("pgbench loads");
    let mut session = db.session("app");
    for slot in 0..SESSIONS {
        let ddl = format!(
            "CREATE TABLE {} (tid INT, bid INT, aid INT, delta INT, mtime TEXT)",
            history_table(slot)
        );
        db.execute(&mut session, &ddl)
            .expect("history table creates");
    }
}

/// The three `PgServer`s of a `pg_*` deployment and the disks under them.
pub struct PgFleet {
    pub servers: Vec<Arc<PgServer>>,
    pub disks: Vec<VDisk>,
    pub reference: Arc<Mutex<PgReference>>,
    /// WAL length and fsync count of each disk once loaded, before traffic.
    pub loaded_wal_bytes: u64,
    pub loaded_fsyncs: u64,
}

/// One paged database per instance: the dataset is loaded once, its WAL is
/// copied onto each instance's disk, and every instance opens by replaying
/// it (the paged engine rebuilds its heap from the WAL on every open) — so
/// set-up pays one load and one recovery per instance.
fn pg_fleet(kind: Kind, instances: usize) -> PgFleet {
    let engine = StorageEngine::parse("paged:replay-forward").expect("static spec");
    let accounts = kind.pg_accounts();
    let seed_disk = VDisk::new("seed");
    {
        let mut db = Database::with_engine(pg_version(), DbFlavor::Postgres, engine, &seed_disk)
            .expect("fresh paged database opens");
        pg_load(&mut db, accounts);
    }
    let wal = seed_disk.read(WAL_FILE, 0, seed_disk.len(WAL_FILE) as usize);
    let mut servers = Vec::new();
    let mut disks = Vec::new();
    for i in 0..instances {
        let disk = VDisk::new(format!("pg{i}"));
        disk.append(WAL_FILE, &wal);
        disk.fsync(WAL_FILE);
        let db = Database::with_engine(pg_version(), DbFlavor::Postgres, engine, &disk)
            .expect("instance recovers from the copied WAL");
        servers.push(Arc::new(PgServer::with_config(db, PG_ZERO_COST)));
        disks.push(disk);
    }
    let mut db = Database::new(pg_version());
    pg_load(&mut db, accounts);
    let session = db.session("app");
    PgFleet {
        loaded_wal_bytes: disks[0].len(WAL_FILE),
        loaded_fsyncs: disks[0].stats().fsyncs,
        servers,
        disks,
        reference: Arc::new(Mutex::new(PgReference {
            db,
            session,
            issued: Vec::new(),
        })),
    }
}

/// A running deployment. Fields drop in declaration order: proxies first
/// (closing every session), then the services behind them.
pub struct Deployment {
    pub proxy: IncomingProxy,
    _outgoing: Option<OutgoingProxy>,
    _hosts: Vec<Host>,
    /// The fabric clients dial through.
    pub net: Arc<dyn Network>,
    pub telemetry: ProxyTelemetry,
    pub pg: Option<PgFleet>,
    pub roles: Roles,
}

fn engine_config() -> EngineConfig {
    EngineConfig::builder(INSTANCES)
        .filter_pair(0, 1)
        .response_deadline(Duration::from_secs(10))
        .build()
        .expect("static config")
}

impl Deployment {
    /// Stands the workload's topology up; with a tracer, every link runs
    /// through its wrapper.
    pub fn start(kind: Kind, tracer: Option<&Arc<Tracer>>) -> Deployment {
        let base: Arc<dyn Network> = if kind.tcp() {
            Arc::new(TcpNet::new())
        } else {
            Arc::new(SimNet::new())
        };
        let fabric = |origin: Option<usize>| match tracer {
            Some(t) => t.wrap(Arc::clone(&base), origin),
            None => Arc::clone(&base),
        };
        let net = fabric(None);
        let addr = |name: &str, port: u16| {
            if kind.tcp() {
                ServiceAddr::new("127.0.0.1", 0)
            } else {
                ServiceAddr::new(name, port)
            }
        };
        let telemetry = ProxyTelemetry::new("bench");
        let mut hosts = Vec::new();
        let mut roles = Roles::default();

        let mut outgoing = None;
        if kind == Kind::ChainBackend {
            let host = Host::start(&net, &addr("backend", 7100), "bench-backend", backend());
            roles.backend = Some(host.addr.clone());
            let proxy = OutgoingProxy::start_with_telemetry(
                Arc::clone(&net),
                &addr("rddr-out", 9100),
                host.addr.clone(),
                engine_config(),
                kind.protocol(),
                Some(telemetry.clone()),
            )
            .expect("outgoing proxy starts");
            roles.outgoing = Some(proxy.listen_addr().clone());
            hosts.push(host);
            outgoing = Some(proxy);
        }

        let pg = kind.is_pg().then(|| pg_fleet(kind, INSTANCES));
        for i in 0..INSTANCES {
            let handler = match kind {
                Kind::LineFast | Kind::LineTcp => echo_instance(),
                Kind::HttpNoisy => http_instance(i),
                Kind::ChainBackend => chain_instance(
                    fabric(Some(i)),
                    roles.outgoing.clone().expect("outgoing proxy is up"),
                ),
                Kind::PgRead | Kind::PgWrite => {
                    let fleet = pg.as_ref().expect("pg fleet is up");
                    pg_instance(Arc::clone(&fleet.servers[i]), Arc::clone(&net))
                }
            };
            let host = Host::start(
                &net,
                &addr("inst", 7000 + i as u16),
                &format!("bench-inst{i}"),
                handler,
            );
            roles.instances.push(host.addr.clone());
            hosts.push(host);
        }

        let proxy = IncomingProxy::start_with_telemetry(
            Arc::clone(&net),
            &addr("rddr", 9000),
            roles.instances.clone(),
            engine_config(),
            kind.protocol(),
            Some(telemetry.clone()),
        )
        .expect("incoming proxy starts");
        roles.proxy = Some(proxy.listen_addr().clone());

        Deployment {
            proxy,
            _outgoing: outgoing,
            _hosts: hosts,
            net,
            telemetry,
            pg,
            roles,
        }
    }
}

/// A bare single `PgServer` (no proxy) on its own fabric: the Fig 5 "1×
/// Postgres" control `pg_read` is normalised to.
pub struct BarePg {
    _host: Host,
    pub net: Arc<dyn Network>,
    pub addr: ServiceAddr,
    pub reference: Arc<Mutex<PgReference>>,
}

impl BarePg {
    pub fn start(kind: Kind) -> BarePg {
        let net: Arc<dyn Network> = Arc::new(SimNet::new());
        let mut fleet = pg_fleet(kind, 1);
        let server = fleet.servers.swap_remove(0);
        let host = Host::start(
            &net,
            &ServiceAddr::new("pg", 5432),
            "bench-bare",
            pg_instance(server, Arc::clone(&net)),
        );
        BarePg {
            addr: host.addr.clone(),
            _host: host,
            net,
            reference: fleet.reference,
        }
    }
}
