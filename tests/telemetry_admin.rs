//! End-to-end observability: an N-versioned deployment with one poisoned
//! instance serves `/healthz`, `/metrics`, and `/divergences` through the
//! telemetry admin endpoint — over the in-memory `SimNet` (via the
//! orchestra deployment helper) and over real TCP sockets.

use std::sync::Arc;
use std::time::Duration;

use rddr_repro::core::protocol::LineProtocol;
use rddr_repro::core::{DegradePolicy, EngineConfig, ResponsePolicy};
use rddr_repro::net::{Network, ServiceAddr, SimNet, Stream, TcpNet};
use rddr_repro::orchestra::{Cluster, FnService, Image, Service};
use rddr_repro::protocols::{parse_json, JsonValue};
use rddr_repro::proxy::{IncomingProxy, NVersion, OutgoingProxy, ProtocolFactory, ProxyTelemetry};
use rddr_repro::telemetry::AdminServer;

fn line() -> ProtocolFactory {
    Arc::new(|| Box::new(LineProtocol::new()))
}

/// One HTTP GET against the admin endpoint; returns the full response.
fn admin_get(net: &dyn Network, addr: &ServiceAddr, path: &str) -> String {
    let mut conn = net.dial(addr).unwrap();
    conn.write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
        .unwrap();
    let mut out = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match conn.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => out.extend_from_slice(&buf[..n]),
        }
    }
    String::from_utf8(out).unwrap()
}

/// Body of an HTTP response (everything past the blank line).
fn body(response: &str) -> &str {
    response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b)
        .unwrap_or("")
}

/// Asserts the three routes reflect one audited divergence blamed on
/// `poisoned` under metric prefix `{prefix}_in_*`.
fn assert_observability(net: &dyn Network, addr: &ServiceAddr, prefix: &str, poisoned: usize) {
    let health = admin_get(net, addr, "/healthz");
    assert!(health.starts_with("HTTP/1.1 200"), "{health}");
    assert_eq!(body(&health), "ok\n");

    let metrics = admin_get(net, addr, "/metrics");
    assert!(
        metrics.contains(&format!("{prefix}_in_exchanges_total 1")),
        "exchange counter missing:\n{metrics}"
    );
    assert!(
        metrics.contains(&format!("{prefix}_in_divergences_total 1")),
        "divergence counter missing:\n{metrics}"
    );
    for series in [
        "exchange_latency_us",
        "fanout_latency_us",
        "merge_latency_us",
    ] {
        assert!(
            metrics.contains(&format!("{prefix}_in_{series}{{quantile=\"0.99\"}}")),
            "latency quantiles for {series} missing:\n{metrics}"
        );
        assert!(
            metrics.contains(&format!("{prefix}_in_{series}_count 1")),
            "{metrics}"
        );
    }

    // Reactor observability rides the same registry: worker/session gauges
    // and the per-step session-state histogram must be live on /metrics.
    for gauge in ["reactor_workers", "reactor_sessions", "reactor_ready_depth"] {
        assert!(
            metrics.contains(&format!("{prefix}_in_{gauge} ")),
            "reactor gauge {gauge} missing:\n{metrics}"
        );
    }
    assert!(
        metrics.contains(&format!("{prefix}_in_reactor_session_state_count")),
        "reactor session-state histogram missing:\n{metrics}"
    );

    let divergences = admin_get(net, addr, "/divergences");
    let doc = parse_json(body(&divergences)).expect("audit JSON parses");
    let entry = doc
        .get("divergences")
        .and_then(|d| d.index(0))
        .expect("one audited divergence");
    assert_eq!(
        entry.get("offending_instance").and_then(JsonValue::as_f64),
        Some(poisoned as f64),
        "audit must name the diverging instance: {divergences}"
    );
    assert_eq!(
        entry.get("service").and_then(JsonValue::as_str),
        Some(format!("{prefix}_in").as_str())
    );
    let timeline = entry.get("timeline").expect("span timeline attached");
    assert!(timeline.index(0).is_some(), "timeline empty: {divergences}");
}

/// A line-echo service appending `suffix` to every line.
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

#[test]
fn poisoned_deployment_observable_over_simnet() {
    let cluster = Cluster::new(4);
    let telemetry = ProxyTelemetry::new("svc");
    let service = NVersion::new("svc", EngineConfig::builder(3).build().unwrap(), line())
        .variant(Image::new("svc", "v1"), suffix_echo(""))
        .variant(Image::new("svc", "v2"), suffix_echo(""))
        .variant(Image::new("svc", "evil"), suffix_echo(" LEAK"))
        .telemetry(telemetry.clone())
        .deploy(&cluster, &ServiceAddr::new("svc", 8000))
        .unwrap();

    // One poisoned exchange: the Block policy severs the client.
    let mut conn = cluster.net().dial(&service.addr).unwrap();
    conn.write_all(b"login alice\n").unwrap();
    let mut buf = [0u8; 1];
    assert_eq!(conn.read(&mut buf).unwrap(), 0, "divergence must sever");
    std::thread::sleep(Duration::from_millis(50));

    let net: Arc<dyn Network> = Arc::new(cluster.net());
    let admin = AdminServer::serve(
        Arc::clone(&net),
        &ServiceAddr::new("admin", 9900),
        Arc::clone(&telemetry.registry),
        Arc::clone(&telemetry.audit),
    )
    .unwrap();
    assert_observability(net.as_ref(), admin.addr(), "svc", 2);
    admin.shutdown();
}

/// Starts a real TCP line server on an ephemeral port.
fn spawn_tcp_line_server(suffix: &'static str) -> ServiceAddr {
    let net = TcpNet::new();
    let mut listener = net.listen(&ServiceAddr::new("127.0.0.1", 0)).unwrap();
    let addr = listener.local_addr();
    std::thread::spawn(move || {
        while let Ok(mut conn) = listener.accept() {
            std::thread::spawn(move || {
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
            });
        }
    });
    addr
}

#[test]
fn poisoned_deployment_observable_over_tcp() {
    let net: Arc<dyn Network> = Arc::new(TcpNet::new());
    let instances = vec![
        spawn_tcp_line_server(""),
        spawn_tcp_line_server(""),
        spawn_tcp_line_server(" LEAK"),
    ];
    let telemetry = ProxyTelemetry::new("svc");
    let mut proxy = IncomingProxy::start_with_telemetry(
        Arc::clone(&net),
        &ServiceAddr::new("127.0.0.1", 0),
        instances,
        EngineConfig::builder(3).build().unwrap(),
        line(),
        Some(telemetry.clone()),
    )
    .unwrap();

    let mut conn = net.dial(proxy.listen_addr()).unwrap();
    conn.write_all(b"login alice\n").unwrap();
    let mut buf = [0u8; 1];
    assert_eq!(conn.read(&mut buf).unwrap(), 0, "divergence must sever");
    std::thread::sleep(Duration::from_millis(50));

    let admin = AdminServer::serve(
        Arc::clone(&net),
        &ServiceAddr::new("127.0.0.1", 0),
        Arc::clone(&telemetry.registry),
        Arc::clone(&telemetry.audit),
    )
    .unwrap();
    assert_observability(net.as_ref(), admin.addr(), "svc", 2);
    admin.shutdown();
    proxy.stop();
}

/// Serves every request line of every connection to `addr` with
/// `reply(line)` (line without its `\n`; the reply gets one appended).
fn spawn_line_service(
    net: &SimNet,
    addr: ServiceAddr,
    reply: impl Fn(&[u8]) -> Vec<u8> + Send + Sync + Clone + 'static,
) {
    let mut listener = net.listen(&addr).unwrap();
    std::thread::spawn(move || {
        while let Ok(mut conn) = listener.accept() {
            let reply = reply.clone();
            std::thread::spawn(move || {
                let mut buf = Vec::new();
                let mut chunk = [0u8; 256];
                loop {
                    match conn.read(&mut chunk) {
                        Ok(0) | Err(_) => return,
                        Ok(n) => buf.extend_from_slice(&chunk[..n]),
                    }
                    while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
                        let line: Vec<u8> = buf.drain(..=pos).collect();
                        let mut out = reply(&line[..line.len() - 1]);
                        out.push(b'\n');
                        if conn.write_all(&out).is_err() {
                            return;
                        }
                    }
                }
            });
        }
    });
}

/// Every series name in a Prometheus rendering, sorted.
fn series_names(rendered: &str) -> Vec<String> {
    let mut names: Vec<String> = rendered
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|l| l.split(' ').next())
        .map(str::to_string)
        .collect();
    names.sort();
    names
}

/// The whole metric surface of a deployment whose incoming and outgoing
/// proxies share one telemetry bundle, pinned name by name after one
/// exchange: client → incoming proxy → 3 instances → outgoing proxy →
/// backend.
#[test]
fn both_proxies_register_exactly_the_pinned_series() {
    let net = SimNet::new();
    let dyn_net: Arc<dyn Network> = Arc::new(net.clone());
    let telemetry = ProxyTelemetry::new("svc");
    spawn_line_service(&net, ServiceAddr::new("db", 5432), |req| {
        [b"row:", req].concat()
    });
    let outgoing = OutgoingProxy::start_with_telemetry(
        Arc::clone(&dyn_net),
        &ServiceAddr::new("db-out", 5432),
        ServiceAddr::new("db", 5432),
        EngineConfig::builder(3).build().unwrap(),
        line(),
        Some(telemetry.clone()),
    )
    .unwrap();
    let instances: Vec<ServiceAddr> = (0..3).map(|i| ServiceAddr::new("app", 7000 + i)).collect();
    for addr in &instances {
        let backend_net = net.clone();
        spawn_line_service(&net, addr.clone(), move |req| {
            let mut db = backend_net.dial(&ServiceAddr::new("db-out", 5432)).unwrap();
            db.write_all(&[req, b"\n"].concat()).unwrap();
            let mut answer = Vec::new();
            let mut byte = [0u8; 1];
            while db.read(&mut byte).unwrap() == 1 && byte[0] != b'\n' {
                answer.push(byte[0]);
            }
            answer
        });
    }
    let incoming = IncomingProxy::start_with_telemetry(
        Arc::clone(&dyn_net),
        &ServiceAddr::new("app-in", 80),
        instances,
        EngineConfig::builder(3).build().unwrap(),
        line(),
        Some(telemetry.clone()),
    )
    .unwrap();

    let mut client = net.dial(incoming.listen_addr()).unwrap();
    client.write_all(b"q\n").unwrap();
    let mut reply = [0u8; 6];
    client.read_exact(&mut reply).unwrap();
    assert_eq!(&reply, b"row:q\n");

    let mut expected: Vec<String> = Vec::new();
    for (stem, workers, own) in [
        (
            "svc_in",
            incoming.workers(),
            &[
                "exchange_latency_us",
                "fanout_latency_us",
                "instance_response_us",
                "merge_latency_us",
            ][..],
        ),
        (
            "svc_out",
            outgoing.workers(),
            &["backend_latency_us", "merge_latency_us"][..],
        ),
    ] {
        let shared = [
            // The engine's counters and evaluation histogram.
            "divergences_total",
            "exchange_eval_latency_us",
            "exchanges_total",
            "fastpath_hits_total",
            "fastpath_misses_total",
            "noise_masked_total",
            "throttled_total",
            "tokens_captured_total",
            "tokens_substituted_total",
            "variance_excluded_total",
            // The accept loop and the Respond phase.
            "sessions_total",
            "severed_total",
            // Degraded mode.
            "degraded_depth",
            "ejects_total",
            "pass_through_total",
            "quarantines_total",
            "rejoins_total",
            // The reactor pool.
            "reactor_ready_depth",
            "reactor_session_state",
            "reactor_sessions",
            "reactor_workers",
        ];
        for series in own.iter().chain(&shared) {
            expected.push(format!("{stem}_{series}"));
        }
        for i in 0..workers {
            expected.push(format!("{stem}_reactor_worker{i}_sessions"));
        }
    }
    expected.sort();
    assert_eq!(
        series_names(&telemetry.registry.render_prometheus()),
        expected
    );
}

/// A line instance `index` of the view scenario. It echoes every line except:
/// `vote` (instance 2 answers `odd`), `split` (every instance answers
/// differently), `crash` (instance 1 hangs up) and `crash2` (instances 1
/// and 2 hang up).
fn spawn_scripted_instance(net: &SimNet, addr: ServiceAddr, index: usize) {
    let mut listener = net.listen(&addr).unwrap();
    std::thread::spawn(move || {
        while let Ok(mut conn) = listener.accept() {
            std::thread::spawn(move || {
                let mut buf = Vec::new();
                let mut chunk = [0u8; 256];
                loop {
                    match conn.read(&mut chunk) {
                        Ok(0) | Err(_) => return,
                        Ok(n) => buf.extend_from_slice(&chunk[..n]),
                    }
                    while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
                        let line: Vec<u8> = buf.drain(..=pos).collect();
                        let reply = match (&line[..pos], index) {
                            (b"vote", 2) => b"odd\n".to_vec(),
                            (b"split", i) => format!("split{i}\n").into_bytes(),
                            (b"crash", 1) | (b"crash2", 1 | 2) => {
                                conn.shutdown();
                                return;
                            }
                            _ => line,
                        };
                        if conn.write_all(&reply).is_err() {
                            return;
                        }
                    }
                }
            });
        }
    });
}

/// The value of every counter and gauge line in a Prometheus rendering.
fn rendered_values(rendered: &str) -> std::collections::BTreeMap<String, u64> {
    rendered
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.split_once(' '))
        .filter_map(|(name, value)| Some((name.to_string(), value.parse().ok()?)))
        .collect()
}

/// `stats()` is a view of `/metrics`: after a session that walks through a
/// quarantine, an eject, rejoins, a lone-survivor pass-through and a
/// throttle refusal, and a second session that is severed on divergence,
/// every `StatsSnapshot` field equals the value `/metrics` renders for its
/// series.
#[test]
fn stats_snapshot_equals_the_metrics_endpoint() {
    let net = SimNet::new();
    let instances: Vec<ServiceAddr> = (0..3).map(|i| ServiceAddr::new("app", 7000 + i)).collect();
    for (i, addr) in instances.iter().enumerate() {
        spawn_scripted_instance(&net, addr.clone(), i);
    }
    let telemetry = ProxyTelemetry::new("view");
    let dyn_net: Arc<dyn Network> = Arc::new(net.clone());
    let proxy = IncomingProxy::start_with_telemetry(
        Arc::clone(&dyn_net),
        &ServiceAddr::new("app-in", 80),
        instances,
        EngineConfig::builder(3)
            .policy(ResponsePolicy::MajorityVote)
            .degrade(DegradePolicy::eject_with_pass_through())
            .throttle(0)
            .build()
            .unwrap(),
        line(),
        Some(telemetry.clone()),
    )
    .unwrap();

    let read_line = |conn: &mut rddr_repro::net::BoxStream| {
        let mut out = Vec::new();
        let mut byte = [0u8; 1];
        while conn.read(&mut byte).unwrap_or(0) == 1 && byte[0] != b'\n' {
            out.push(byte[0]);
        }
        String::from_utf8(out).unwrap()
    };
    // Session 1: `vote` quarantines instance 2; `crash` rejoins it and
    // ejects instance 1; `crash2` rejoins 1, ejects 1 and 2 and passes
    // instance 0 through alone; the repeated `vote` rejoins both and is
    // refused by the throttle, which closes the session.
    let mut client = net.dial(proxy.listen_addr()).unwrap();
    for line in ["ok", "vote", "crash", "crash2"] {
        client.write_all(format!("{line}\n").as_bytes()).unwrap();
        assert_eq!(read_line(&mut client), line);
    }
    client.write_all(b"vote\n").unwrap();
    assert_eq!(
        read_line(&mut client),
        "",
        "the throttle refuses the repeat"
    );
    // Session 2: no majority, so the divergence severs.
    let mut client = net.dial(proxy.listen_addr()).unwrap();
    client.write_all(b"split\n").unwrap();
    assert_eq!(read_line(&mut client), "", "a split vote severs");

    let sessions = telemetry.registry.gauge("view_in_reactor_sessions");
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while sessions.get() != 0 || proxy.stats().divergences < 2 {
        assert!(std::time::Instant::now() < deadline, "sessions never ended");
        std::thread::sleep(Duration::from_millis(5));
    }

    let admin = AdminServer::serve(
        Arc::clone(&dyn_net),
        &ServiceAddr::new("admin", 9902),
        Arc::clone(&telemetry.registry),
        Arc::clone(&telemetry.audit),
    )
    .unwrap();
    let values = rendered_values(body(&admin_get(dyn_net.as_ref(), admin.addr(), "/metrics")));
    admin.shutdown();
    let stats = proxy.stats();
    let series = |name: &str| values.get(&format!("view_in_{name}")).copied();
    let view = [
        ("sessions", stats.sessions, series("sessions_total")),
        ("exchanges", stats.exchanges, series("exchanges_total")),
        (
            "divergences",
            stats.divergences,
            series("divergences_total"),
        ),
        ("severed", stats.severed, series("severed_total")),
        ("throttled", stats.throttled, series("throttled_total")),
        ("ejected", stats.ejected, series("ejects_total")),
        (
            "quarantined",
            stats.quarantined,
            series("quarantines_total"),
        ),
        ("rejoined", stats.rejoined, series("rejoins_total")),
        (
            "pass_through",
            stats.pass_through,
            series("pass_through_total"),
        ),
    ];
    for (field, value, rendered) in view {
        assert!(value > 0, "the scenario exercises {field}: {stats:?}");
        assert_eq!(Some(value), rendered, "{field} differs from /metrics");
    }
    assert_eq!(
        (
            stats.sessions,
            stats.exchanges,
            stats.divergences,
            stats.severed,
            stats.throttled
        ),
        (2, 5, 2, 1, 1),
        "{stats:?}"
    );
    assert_eq!(
        (
            stats.ejected,
            stats.quarantined,
            stats.rejoined,
            stats.pass_through
        ),
        (3, 1, 4, 1),
        "{stats:?}"
    );
}

/// The admin endpoint also runs over `SimNet` with a *healthy* deployment:
/// `/divergences` stays empty while `/metrics` still counts exchanges.
#[test]
fn healthy_deployment_has_empty_audit() {
    let net: Arc<dyn Network> = Arc::new(SimNet::new());
    let instances: Vec<ServiceAddr> = (0..2).map(|i| ServiceAddr::new("echo", 7000 + i)).collect();
    for addr in &instances {
        let mut listener = net.listen(addr).unwrap();
        std::thread::spawn(move || {
            while let Ok(mut conn) = listener.accept() {
                std::thread::spawn(move || {
                    let mut buf = [0u8; 256];
                    while let Ok(n) = conn.read(&mut buf) {
                        if n == 0 || conn.write_all(&buf[..n]).is_err() {
                            return;
                        }
                    }
                });
            }
        });
    }
    let telemetry = ProxyTelemetry::new("echo");
    let _proxy = IncomingProxy::start_with_telemetry(
        Arc::clone(&net),
        &ServiceAddr::new("rddr", 80),
        instances,
        EngineConfig::builder(2).build().unwrap(),
        line(),
        Some(telemetry.clone()),
    )
    .unwrap();
    let mut conn = net.dial(&ServiceAddr::new("rddr", 80)).unwrap();
    conn.write_all(b"ping\n").unwrap();
    let mut reply = [0u8; 5];
    conn.read_exact(&mut reply).unwrap();
    assert_eq!(&reply, b"ping\n");

    let admin = AdminServer::serve(
        Arc::clone(&net),
        &ServiceAddr::new("admin", 9901),
        Arc::clone(&telemetry.registry),
        Arc::clone(&telemetry.audit),
    )
    .unwrap();
    let divergences = admin_get(net.as_ref(), admin.addr(), "/divergences");
    assert!(
        body(&divergences).contains("\"divergences\":[]"),
        "{divergences}"
    );
    let metrics = admin_get(net.as_ref(), admin.addr(), "/metrics");
    assert!(metrics.contains("echo_in_exchanges_total 1"), "{metrics}");
    assert!(metrics.contains("echo_in_divergences_total 0"), "{metrics}");
    admin.shutdown();
}
