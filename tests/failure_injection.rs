//! Failure-injection tests: instances crashing mid-session, unreachable
//! backends, hung instances, and the DoS-throttling extension.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rddr_repro::core::protocol::LineProtocol;
use rddr_repro::core::{DegradePolicy, EngineConfig, ResponsePolicy};
use rddr_repro::httpsim::{HttpResponse, HttpService};
use rddr_repro::net::{BoxStream, NetError, Network, ServiceAddr, SimNet, Stream};
use rddr_repro::orchestra::{Cluster, FnService, Image, Service};
use rddr_repro::proxy::{NVersion, NVersionedService, OutgoingProxy, ProtocolFactory};

fn line() -> ProtocolFactory {
    Arc::new(|| Box::new(LineProtocol::new()))
}

/// Outcome of reading one newline-terminated line from a proxied connection.
///
/// A clean `Eof` (the peer closed between lines) and a `Reset` (the
/// connection died mid-line, losing the tail) are different failures: a
/// severed exchange must look like the former, never the latter.
#[derive(Debug, PartialEq, Eq)]
enum LineRead {
    /// A complete line, terminator stripped.
    Line(Vec<u8>),
    /// Clean close: no bytes buffered when the stream ended.
    Eof,
    /// The stream ended mid-line; the partial bytes read so far.
    Reset(Vec<u8>),
}

fn read_line(conn: &mut BoxStream) -> LineRead {
    let mut out = Vec::new();
    let mut b = [0u8; 1];
    loop {
        match conn.read(&mut b) {
            Ok(0) | Err(_) => {
                return if out.is_empty() {
                    LineRead::Eof
                } else {
                    LineRead::Reset(out)
                }
            }
            Ok(_) if b[0] == b'\n' => return LineRead::Line(out),
            Ok(_) => out.push(b[0]),
        }
    }
}

/// A line-echo service with a kill switch: once the returned flag is
/// cleared, the next line it reads shuts its connection down instead of
/// answering (a crash mid-session).
fn killable_echo() -> (Arc<dyn Service>, Arc<AtomicBool>) {
    let alive = Arc::new(AtomicBool::new(true));
    let flag = Arc::clone(&alive);
    let service = FnService::new("echo", move |mut conn, _ctx| {
        let mut buf = Vec::new();
        let mut chunk = [0u8; 512];
        loop {
            if !flag.load(Ordering::Relaxed) {
                conn.shutdown();
                return;
            }
            match conn.read(&mut chunk) {
                Ok(0) | Err(_) => return,
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
            }
            while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
                if !flag.load(Ordering::Relaxed) {
                    conn.shutdown();
                    return;
                }
                let line: Vec<u8> = buf.drain(..=pos).collect();
                if conn.write_all(&line).is_err() {
                    return;
                }
            }
        }
    });
    (Arc::new(service), alive)
}

fn echo() -> Arc<dyn Service> {
    killable_echo().0
}

/// `services` as line instances `svc-{i}` at `svc:9000 + i` behind RDDR at
/// `rddr:80`.
fn deploy(
    config: EngineConfig,
    services: impl IntoIterator<Item = Arc<dyn Service>>,
) -> (Cluster, NVersionedService) {
    let cluster = Cluster::new(4);
    let rddr = services
        .into_iter()
        .fold(NVersion::new("svc", config, line()), |nv, service| {
            nv.variant(Image::new("echo", "v1"), service)
        })
        .instances_at(ServiceAddr::new("svc", 9000))
        .deploy(&cluster, &ServiceAddr::new("rddr", 80))
        .unwrap();
    (cluster, rddr)
}

#[test]
fn instance_crash_mid_session_severs_cleanly() {
    let (b, b_alive) = killable_echo();
    let (cluster, rddr) = deploy(
        EngineConfig::builder(2)
            .response_deadline(Duration::from_millis(400))
            .build()
            .unwrap(),
        [echo(), b],
    );

    let mut client = cluster.net().dial(&rddr.addr).unwrap();
    client.write_all(b"first\n").unwrap();
    assert_eq!(read_line(&mut client), LineRead::Line(b"first".to_vec()));

    // Kill instance B, then issue another request: the proxy must sever
    // rather than silently serving from the surviving instance — and the
    // sever must be a *clean* close, not a mid-line reset leaking a partial
    // single-survivor response.
    b_alive.store(false, std::sync::atomic::Ordering::Relaxed);
    client.write_all(b"second\n").unwrap();
    let reply = read_line(&mut client);
    assert_eq!(
        reply,
        LineRead::Eof,
        "single-survivor output must not be forwarded"
    );
}

#[test]
fn unreachable_instance_at_session_start_closes_client() {
    let (cluster, mut rddr) = deploy(EngineConfig::builder(2).build().unwrap(), [echo(), echo()]);
    // Instance 1 is gone before the first session dials it.
    rddr.containers[1].stop();
    let mut client = cluster.net().dial(&rddr.addr).unwrap();
    // The session is refused at start, so the proxy may close the client
    // before or after the request lands; either way the client reads EOF.
    match client.write_all(b"hello\n") {
        Ok(()) | Err(NetError::Closed) => {}
        Err(e) => panic!("unexpected write error: {e}"),
    }
    assert_eq!(
        read_line(&mut client),
        LineRead::Eof,
        "session must be refused"
    );
}

#[test]
fn outgoing_proxy_with_dead_backend_severs_instances() {
    let net = SimNet::new();
    let _proxy = OutgoingProxy::start(
        Arc::new(net.clone()),
        &ServiceAddr::new("rddr-out", 5432),
        ServiceAddr::new("ghost-db", 5432),
        EngineConfig::builder(2)
            .response_deadline(Duration::from_millis(300))
            .build()
            .unwrap(),
        line(),
    )
    .unwrap();
    let mut a = net.dial(&ServiceAddr::new("rddr-out", 5432)).unwrap();
    let mut b = net.dial(&ServiceAddr::new("rddr-out", 5432)).unwrap();
    a.write_all(b"query\n").unwrap();
    b.write_all(b"query\n").unwrap();
    assert_eq!(read_line(&mut a), LineRead::Eof);
    assert_eq!(read_line(&mut b), LineRead::Eof);
}

#[test]
fn cluster_container_stop_is_observed_by_proxy() {
    let cluster = Cluster::new(4);
    let unused = || -> Arc<dyn Service> {
        Arc::new(HttpService::new("unused").route("GET", "/", |_r, _c| HttpResponse::ok("")))
    };
    let mut rddr = NVersion::new(
        "echo",
        EngineConfig::builder(2)
            .response_deadline(Duration::from_millis(300))
            .build()
            .unwrap(),
        Arc::new(|| Box::new(rddr_repro::protocols::HttpProtocol::new())),
    )
    .variant(Image::new("echo", "v1"), unused())
    .variant(Image::new("echo", "v1"), unused())
    .instances_at(ServiceAddr::new("echo", 9000))
    .deploy(&cluster, &ServiceAddr::new("rddr", 80))
    .unwrap();
    // Stop one container: new sessions cannot dial it, so clients are cut.
    rddr.containers[1].stop();
    let mut client = rddr_repro::httpsim::HttpClient::connect(&cluster.net(), &rddr.addr).unwrap();
    assert!(
        client.get("/").is_err(),
        "session with a stopped instance must fail"
    );
}

#[test]
fn throttled_attacker_cannot_grind_instances() {
    // A "diverse" instance that appends junk to one specific input.
    let diverse = FnService::new("diverse", |mut conn, _ctx| {
        let mut buf = Vec::new();
        let mut chunk = [0u8; 512];
        loop {
            match conn.read(&mut chunk) {
                Ok(0) | Err(_) => return,
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
            }
            while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = buf.drain(..=pos).collect();
                let reply = if line.starts_with(b"evil") {
                    b"evil DIVERGENT\n".to_vec()
                } else {
                    line
                };
                if conn.write_all(&reply).is_err() {
                    return;
                }
            }
        }
    });
    let (cluster, rddr) = deploy(
        EngineConfig::builder(2)
            .throttle(0)
            .response_deadline(Duration::from_millis(500))
            .build()
            .unwrap(),
        [echo(), Arc::new(diverse)],
    );

    // First exploit in a session: replicated, detected, severed.
    let mut c = cluster.net().dial(&rddr.addr).unwrap();
    c.write_all(b"evil\n").unwrap();
    assert_eq!(read_line(&mut c), LineRead::Eof);
    std::thread::sleep(Duration::from_millis(50));
    let s = rddr.proxy.stats();
    assert!(s.divergences >= 1, "{s:?}");
}

#[test]
fn read_line_distinguishes_reset_from_clean_eof() {
    // A raw SimNet pair: the server writes a partial line then dies, which
    // must surface as `Reset(partial)` — distinct from the clean `Eof` the
    // proxy produces when it severs between lines.
    let net = SimNet::new();
    let mut listener = net.listen(&ServiceAddr::new("raw", 7000)).unwrap();
    std::thread::spawn(move || {
        if let Ok(mut conn) = listener.accept() {
            let _ = conn.write_all(b"par");
            conn.shutdown();
        }
    });
    let mut client = net.dial(&ServiceAddr::new("raw", 7000)).unwrap();
    assert_eq!(read_line(&mut client), LineRead::Reset(b"par".to_vec()));
    // A second read on the dead connection is a clean EOF.
    assert_eq!(read_line(&mut client), LineRead::Eof);
}

#[test]
fn degraded_mode_ejects_crashed_instance_and_keeps_serving() {
    let (b, b_alive) = killable_echo();
    let (cluster, rddr) = deploy(
        EngineConfig::builder(3)
            .policy(ResponsePolicy::MajorityVote)
            .degrade(DegradePolicy::eject())
            .response_deadline(Duration::from_millis(500))
            .build()
            .unwrap(),
        [echo(), b, echo()],
    );

    let mut client = cluster.net().dial(&rddr.addr).unwrap();
    client.write_all(b"first\n").unwrap();
    assert_eq!(read_line(&mut client), LineRead::Line(b"first".to_vec()));

    // Kill instance B. Under DegradePolicy::eject the proxy drops it from
    // the roster and keeps serving from the surviving pair instead of
    // severing the whole session.
    b_alive.store(false, std::sync::atomic::Ordering::Relaxed);
    client.write_all(b"second\n").unwrap();
    assert_eq!(read_line(&mut client), LineRead::Line(b"second".to_vec()));
    client.write_all(b"third\n").unwrap();
    assert_eq!(read_line(&mut client), LineRead::Line(b"third".to_vec()));
    client.shutdown();

    std::thread::sleep(Duration::from_millis(50));
    let s = rddr.proxy.stats();
    assert!(
        s.ejected >= 1,
        "crash must be counted as an ejection: {s:?}"
    );
    assert_eq!(s.severed, 0, "no session sever in degraded mode: {s:?}");
}
