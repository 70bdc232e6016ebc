//! Concurrency stress: many clients hammering one incoming proxy at once.
//! Sessions are independent, so no exchange may be lost, duplicated, cross
//! paired with another client's, or falsely flagged divergent.

use std::sync::Arc;
use std::time::Duration;

use rddr_repro::core::protocol::LineProtocol;
use rddr_repro::core::{DegradePolicy, EngineConfig, ResponsePolicy};
use rddr_repro::net::{BoxStream, Network, ServiceAddr, SimNet, Stream};
use rddr_repro::proxy::{IncomingProxy, ProtocolFactory};

const CLIENTS: usize = 24;
const EXCHANGES: usize = 25;

fn line() -> ProtocolFactory {
    Arc::new(|| Box::new(LineProtocol::new()))
}

fn spawn_echo(net: &SimNet, addr: ServiceAddr) {
    let mut listener = net.listen(&addr).unwrap();
    std::thread::spawn(move || {
        while let Ok(mut conn) = listener.accept() {
            std::thread::spawn(move || {
                let mut buf = Vec::new();
                let mut chunk = [0u8; 1024];
                loop {
                    match conn.read(&mut chunk) {
                        Ok(0) | Err(_) => return,
                        Ok(n) => buf.extend_from_slice(&chunk[..n]),
                    }
                    while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
                        let line: Vec<u8> = buf.drain(..=pos).collect();
                        if conn.write_all(&line).is_err() {
                            return;
                        }
                    }
                }
            });
        }
    });
}

fn read_line(conn: &mut BoxStream) -> Option<Vec<u8>> {
    let mut out = Vec::new();
    let mut b = [0u8; 1];
    loop {
        match conn.read(&mut b) {
            Ok(0) | Err(_) => return None,
            Ok(_) if b[0] == b'\n' => return Some(out),
            Ok(_) => out.push(b[0]),
        }
    }
}

/// Held by every test here for as long as its proxy lives. The thread census
/// in `proxy_thread_count_stays_flat_under_concurrent_sessions` reads comm
/// names process-wide, and a reactor worker is named after its pool
/// (`rddr-rx-in-{i}`), not its proxy — a sibling test's workers cannot be
/// told from this proxy's by name, only kept from existing.
static ONE_PROXY: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn one_proxy_at_a_time() -> std::sync::MutexGuard<'static, ()> {
    // A sibling that failed while holding it has already torn its proxy down.
    ONE_PROXY
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[test]
fn concurrent_sessions_are_isolated_and_lossless() {
    let _alone = one_proxy_at_a_time();
    let net = SimNet::new();
    for port in [9000u16, 9001, 9002] {
        spawn_echo(&net, ServiceAddr::new("svc", port));
    }
    let proxy = IncomingProxy::start(
        Arc::new(net.clone()),
        &ServiceAddr::new("rddr", 80),
        (9000..9003).map(|p| ServiceAddr::new("svc", p)).collect(),
        EngineConfig::builder(3)
            .filter_pair(0, 1)
            .response_deadline(Duration::from_secs(10))
            .build()
            .unwrap(),
        line(),
    )
    .unwrap();

    std::thread::scope(|scope| {
        for client_id in 0..CLIENTS {
            let net = net.clone();
            scope.spawn(move || {
                let mut conn = net.dial(&ServiceAddr::new("rddr", 80)).unwrap();
                for i in 0..EXCHANGES {
                    let msg = format!("client-{client_id}-msg-{i}\n");
                    conn.write_all(msg.as_bytes()).unwrap();
                    let reply = read_line(&mut conn)
                        .unwrap_or_else(|| panic!("client {client_id} lost exchange {i}"));
                    assert_eq!(
                        reply,
                        msg.trim_end().as_bytes(),
                        "client {client_id} got another session's reply"
                    );
                }
            });
        }
    });

    std::thread::sleep(Duration::from_millis(50));
    let stats = proxy.stats();
    assert_eq!(stats.sessions, CLIENTS as u64);
    assert_eq!(stats.exchanges, (CLIENTS * EXCHANGES) as u64);
    assert_eq!(stats.divergences, 0, "identical echoes must never diverge");
    assert_eq!(stats.severed, 0);
}

/// Counts live threads whose name starts with `rddr-` — the threads of the
/// one proxy `ONE_PROXY` lets live (accept loop, reactor workers, and any
/// per-session thread a regression brings back under that prefix). The test
/// harness's unnamed helper threads (echo handlers, client drivers) don't
/// match.
#[cfg(target_os = "linux")]
fn rddr_threads() -> usize {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with("rddr-"))
        .count()
}

/// The reactor's core claim, asserted as a regression test: session count
/// must not move proxy thread count. Before the reactor every session cost
/// one thread per direction plus a reader per instance; any reappearance of
/// per-session threads shows up here as growth while clients are in flight.
#[cfg(target_os = "linux")]
#[test]
fn proxy_thread_count_stays_flat_under_concurrent_sessions() {
    let _alone = one_proxy_at_a_time();
    let net = SimNet::new();
    for port in [9200u16, 9201, 9202] {
        spawn_echo(&net, ServiceAddr::new("fsvc", port));
    }
    let proxy = IncomingProxy::start(
        Arc::new(net.clone()),
        &ServiceAddr::new("rddr-flat", 80),
        (9200..9203).map(|p| ServiceAddr::new("fsvc", p)).collect(),
        EngineConfig::builder(3)
            .response_deadline(Duration::from_secs(10))
            .build()
            .unwrap(),
        line(),
    )
    .unwrap();
    // The proxy's fixed thread budget: its reactor workers plus the accept
    // loop. (A freshly spawned thread only names itself once scheduled, so a
    // pre-session `rddr_threads()` baseline would race on a loaded box.)
    let budget = proxy.workers() + 1;

    let peak = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    std::thread::scope(|scope| {
        for client_id in 0..CLIENTS {
            let net = net.clone();
            let peak = Arc::clone(&peak);
            scope.spawn(move || {
                let mut conn = net.dial(&ServiceAddr::new("rddr-flat", 80)).unwrap();
                for i in 0..EXCHANGES {
                    let msg = format!("flat-{client_id}-{i}\n");
                    conn.write_all(msg.as_bytes()).unwrap();
                    assert_eq!(read_line(&mut conn).unwrap(), msg.trim_end().as_bytes());
                    peak.fetch_max(rddr_threads(), std::sync::atomic::Ordering::Relaxed);
                }
            });
        }
    });

    let peak = peak.load(std::sync::atomic::Ordering::Relaxed);
    assert!(peak > 0, "proxy threads must be named rddr-*");
    assert!(
        peak <= budget,
        "proxy threads grew with sessions: budget {budget} (workers + accept), saw {peak} \
         with {CLIENTS} live clients — per-session threads are back"
    );
    drop(proxy);
}

/// Echo that mangles any line containing `evil` — a deterministic
/// divergence trigger for one instance of a voting trio.
fn spawn_mangling_echo(net: &SimNet, addr: ServiceAddr) {
    let mut listener = net.listen(&addr).unwrap();
    std::thread::spawn(move || {
        while let Ok(mut conn) = listener.accept() {
            std::thread::spawn(move || {
                let mut buf = Vec::new();
                let mut chunk = [0u8; 1024];
                loop {
                    match conn.read(&mut chunk) {
                        Ok(0) | Err(_) => return,
                        Ok(n) => buf.extend_from_slice(&chunk[..n]),
                    }
                    while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
                        let mut line: Vec<u8> = buf.drain(..=pos).collect();
                        if line.windows(4).any(|w| w == b"evil") {
                            line = b"mangled\n".to_vec();
                        }
                        if conn.write_all(&line).is_err() {
                            return;
                        }
                    }
                }
            });
        }
    });
}

/// Regression for the pipelined-batching throttle-lag caveat: once the
/// signature throttle has recorded a divergence, batch depth must clamp to
/// one frame so a repeated diverging input *within a single client write*
/// is refused at its exact budget instead of riding a whole-batch fan-out
/// past a stale throttle check.
#[test]
fn engaged_throttle_clamps_pipelined_batch_depth() {
    let _alone = one_proxy_at_a_time();
    let net = SimNet::new();
    spawn_echo(&net, ServiceAddr::new("tsvc", 9100));
    spawn_echo(&net, ServiceAddr::new("tsvc", 9101));
    spawn_mangling_echo(&net, ServiceAddr::new("tsvc", 9102));
    let proxy = IncomingProxy::start(
        Arc::new(net.clone()),
        &ServiceAddr::new("rddr-throttle", 80),
        (9100..9103).map(|p| ServiceAddr::new("tsvc", p)).collect(),
        EngineConfig::builder(3)
            .policy(ResponsePolicy::MajorityVote)
            // Ejecting degrade mode lets the outvoted (quarantined) mangler
            // rejoin before each batch, so every exchange keeps all three
            // instances in the diff set and repeats keep diverging.
            .degrade(DegradePolicy::eject())
            .throttle(0)
            .response_deadline(Duration::from_secs(10))
            .build()
            .unwrap(),
        line(),
    )
    .unwrap();

    let mut conn = net.dial(&ServiceAddr::new("rddr-throttle", 80)).unwrap();
    // Engage the throttle: one diverging exchange, allowed (budget 0 allows
    // the first occurrence) and recorded. Majority voting keeps the session
    // alive and forwards the honest echo.
    conn.write_all(b"evil-seed\n").unwrap();
    assert_eq!(read_line(&mut conn).unwrap(), b"evil-seed");

    // One pipelined write carrying a *new* diverging input twice. With the
    // engaged-throttle clamp the frames meet the throttle one at a time:
    // the first occurrence is allowed and recorded, the repeat is refused
    // and the session severed. Without the clamp the whole batch fans out
    // against the stale pre-batch throttle state and the repeat (and the
    // trailing frame) are answered as if nothing happened.
    conn.write_all(b"evil-fresh\nevil-fresh\nafter\n").unwrap();
    assert_eq!(
        read_line(&mut conn).unwrap(),
        b"evil-fresh",
        "first occurrence of a new diverging input is within budget"
    );
    assert!(
        read_line(&mut conn).is_none(),
        "the in-batch repeat must be throttled and the session severed"
    );

    std::thread::sleep(Duration::from_millis(50));
    let stats = proxy.stats();
    assert!(
        stats.throttled >= 1,
        "the repeated signature must hit the throttle, got {stats:?}"
    );
    assert!(
        stats.divergences >= 2,
        "both evil inputs diverged once each"
    );
}
