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

/// The concurrency sweep: six rows of one proxy under hundreds to ten
/// thousand concurrent sessions, every row fenced by the `rddr-` census.
#[cfg(target_os = "linux")]
mod sweep {
    use super::*;
    use rddr_repro::net::{Poller, TcpNet, Token, TryRead};

    /// A sweep instance: one accept thread and one poll-driven serve thread
    /// echo every connection, however many sessions fan in, so the instances
    /// stay O(1) threads and the census sees only the proxy scale. Both threads
    /// are unnamed, so the `rddr-` census never counts them.
    struct SweepInstance {
        net: Arc<dyn Network>,
        addr: ServiceAddr,
        stop: Arc<std::sync::atomic::AtomicBool>,
        poller: Arc<Poller>,
        threads: Vec<std::thread::JoinHandle<()>>,
    }

    /// Token the accept thread wakes the serve loop with after queuing a new
    /// connection; connections use their index.
    const ADOPT: Token = Token(u64::MAX);

    impl SweepInstance {
        fn start(net: &Arc<dyn Network>, want: &ServiceAddr) -> SweepInstance {
            use std::sync::atomic::{AtomicBool, Ordering};
            let mut listener = net.listen(want).unwrap();
            let addr = listener.local_addr();
            let stop = Arc::new(AtomicBool::new(false));
            let poller = Arc::new(Poller::new());
            let inbox = Arc::new(std::sync::Mutex::new(Vec::<BoxStream>::new()));
            let accept = {
                let (poller, inbox, stop) = (Arc::clone(&poller), Arc::clone(&inbox), stop.clone());
                std::thread::spawn(move || {
                    while let Ok(conn) = listener.accept() {
                        if stop.load(Ordering::SeqCst) {
                            return;
                        }
                        inbox.lock().unwrap().push(conn);
                        poller.wake(ADOPT);
                    }
                })
            };
            let serve = {
                let (poller, stop) = (Arc::clone(&poller), Arc::clone(&stop));
                std::thread::spawn(move || {
                    // Indexed by token; a finished connection leaves a `None`.
                    let mut conns: Vec<Option<BoxStream>> = Vec::new();
                    let mut ready = Vec::new();
                    let mut chunk = vec![0u8; 16 * 1024];
                    loop {
                        poller.poll(&mut ready, None);
                        if stop.load(Ordering::SeqCst) {
                            return;
                        }
                        let mut woken = Vec::new();
                        for token in ready.drain(..) {
                            if token != ADOPT {
                                woken.push(token.0);
                                continue;
                            }
                            for mut conn in inbox.lock().unwrap().drain(..) {
                                let id = conns.len() as u64;
                                assert!(conn.poll_register(poller.readiness(Token(id))));
                                conns.push(Some(conn));
                                // Bytes may have landed before registration.
                                woken.push(id);
                            }
                        }
                        for id in woken {
                            let Some(Some(conn)) = conns.get_mut(id as usize) else {
                                continue;
                            };
                            // Echo to `WouldBlock`.
                            let alive = loop {
                                match conn.try_read(&mut chunk) {
                                    Ok(TryRead::WouldBlock) => break true,
                                    Ok(TryRead::Data(n)) => {
                                        if conn.write_all(&chunk[..n]).is_err() {
                                            break false;
                                        }
                                    }
                                    Ok(TryRead::Eof) | Err(_) => break false,
                                }
                            };
                            if !alive {
                                poller.deregister(Token(id));
                                conns[id as usize] = None;
                            }
                        }
                    }
                })
            };
            SweepInstance {
                net: Arc::clone(net),
                addr,
                stop,
                poller,
                threads: vec![accept, serve],
            }
        }
    }

    impl Drop for SweepInstance {
        fn drop(&mut self) {
            self.stop.store(true, std::sync::atomic::Ordering::SeqCst);
            self.net.unbind_addr(&self.addr);
            // Plain TCP's unbind is a no-op: a dial wakes the accept loop.
            if let Ok(mut conn) = self.net.dial(&self.addr) {
                conn.shutdown();
            }
            self.poller.wake(ADOPT);
            for t in self.threads.drain(..) {
                let _ = t.join();
            }
        }
    }

    /// The soft open-file limit (`Max open files` in `/proc/self/limits`).
    fn open_file_limit() -> String {
        std::fs::read_to_string("/proc/self/limits")
            .ok()
            .and_then(|l| {
                l.lines()
                    .find_map(|l| l.strip_prefix("Max open files"))
                    .and_then(|v| v.split_whitespace().next().map(str::to_string))
            })
            .unwrap_or_else(|| "unknown".into())
    }

    /// One row of the concurrency sweep: `clients` concurrent sessions through
    /// one proxy in front of three echo instances, every session driven from
    /// this one thread by a readiness [`Poller`], pipelining unanimous 64-byte
    /// requests until the row's 10 000 exchanges are spent. Every exchange must
    /// be answered, and the `rddr-` thread census must stay within the proxy's
    /// fixed budget however many sessions are live.
    fn sweep_row(fabric: &str, net: Arc<dyn Network>, clients: usize) {
        const TOTAL: usize = 10_000;
        const PAYLOAD: usize = 64;
        let batch = (TOTAL / clients).clamp(1, 16);
        // Rounds after the first batch each session sends.
        let mut rounds_left = vec![(TOTAL / (clients * batch)).max(1) - 1; clients];
        let addr = |host: &str, port: u16| {
            if fabric == "tcp" {
                ServiceAddr::new("127.0.0.1", 0)
            } else {
                ServiceAddr::new(host, port)
            }
        };
        let instances: Vec<SweepInstance> = (0..3)
            .map(|i| SweepInstance::start(&net, &addr("sweep", 7000 + i)))
            .collect();
        let proxy = IncomingProxy::start(
            Arc::clone(&net),
            &addr("rddr-sweep", 9000),
            instances.iter().map(|i| i.addr.clone()).collect(),
            EngineConfig::builder(3)
                .filter_pair(0, 1)
                .response_deadline(Duration::from_secs(10))
                .build()
                .unwrap(),
            line(),
        )
        .unwrap();
        let budget = proxy.workers() + 1;

        let mut batch_bytes = Vec::new();
        for k in 0..batch {
            let line = format!("req{k:08}:");
            batch_bytes.extend_from_slice(format!("{line:x<PAYLOAD$}\n").as_bytes());
        }
        let poller = Poller::new();
        let mut conns = Vec::with_capacity(clients);
        for i in 0..clients {
            let mut conn = net.dial(proxy.listen_addr()).unwrap_or_else(|e| {
                panic!(
                    "{fabric} row {clients}: dial {i} failed ({e}); a TCP session holds about \
                     8 fds, so this row needs about {} open files; the open-file limit is {}",
                    8 * clients,
                    open_file_limit()
                )
            });
            assert!(conn.poll_register(poller.readiness(Token(i as u64))));
            conns.push(conn);
        }
        let mut peak = rddr_threads();

        // Answers still owed per session. A session is done when it owes none
        // and has no rounds left; it is severed when its stream ends before.
        let mut pending = vec![batch; clients];
        for conn in &mut conns {
            assert!(
                conn.write_all(&batch_bytes).is_ok(),
                "{fabric}: first write failed"
            );
        }
        let mut severed = 0usize;
        let mut done = 0usize;
        let mut ready = Vec::new();
        let mut chunk = vec![0u8; 16 * 1024];
        let mut polls = 0usize;
        let mut last_progress = std::time::Instant::now();
        while done < clients {
            if poller.poll(&mut ready, Some(Duration::from_secs(1))) == 0 {
                assert!(
                    last_progress.elapsed() < Duration::from_secs(60),
                    "{fabric} row {clients}: stalled with {done}/{clients} sessions finished"
                );
                continue;
            }
            last_progress = std::time::Instant::now();
            polls += 1;
            if polls.is_multiple_of(64) {
                peak = peak.max(rddr_threads());
            }
            for token in ready.drain(..) {
                let i = token.0 as usize;
                if pending[i] == 0 {
                    continue;
                }
                let conn = &mut conns[i];
                let alive = loop {
                    match conn.try_read(&mut chunk) {
                        Ok(TryRead::WouldBlock) => break true,
                        Ok(TryRead::Data(n)) => {
                            let answers = chunk[..n].iter().filter(|&&b| b == b'\n').count();
                            pending[i] = pending[i].saturating_sub(answers);
                        }
                        Ok(TryRead::Eof) | Err(_) => break false,
                    }
                };
                if pending[i] == 0 && rounds_left[i] > 0 {
                    rounds_left[i] -= 1;
                    pending[i] = batch;
                    if alive && conn.write_all(&batch_bytes).is_err() {
                        pending[i] = 0;
                        severed += 1;
                    }
                }
                if pending[i] > 0 && !alive {
                    pending[i] = 0;
                    severed += 1;
                }
                if pending[i] == 0 {
                    done += 1;
                }
            }
        }
        peak = peak.max(rddr_threads());
        println!(
            "{fabric:>4} sweep {clients:>6} sessions: severed {severed}, \
             peak rddr- threads {peak} (budget {budget})"
        );
        assert_eq!(
            severed,
            0,
            "{fabric} row {clients}: unanimous sessions must never be severed (open-file limit {})",
            open_file_limit()
        );
        assert!(peak > 0, "proxy threads must be named rddr-*");
        assert!(
            peak <= budget,
            "{fabric} row {clients}: proxy threads grew with sessions: budget {budget} \
             (workers + accept), saw {peak} — per-session threads are back"
        );
        drop(conns);
        drop(proxy);
    }

    /// The reactor's claim at scale: from 256 to 10 000 concurrent SimNet
    /// sessions, every exchange is answered and the proxy's thread count holds
    /// at its workers plus the accept loop.
    #[test]
    fn simnet_sweep_keeps_proxy_threads_flat_to_ten_thousand_sessions() {
        let _alone = one_proxy_at_a_time();
        for clients in [256, 1000, 4000, 10_000] {
            sweep_row("sim", Arc::new(SimNet::new()), clients);
        }
    }

    /// The same sweep over loopback TCP at 256 and 1 000 sessions: the poll(2)
    /// path must not fall back to a thread per stream either. The 1 000 row
    /// holds about 8 000 file descriptors.
    #[test]
    fn tcp_sweep_keeps_proxy_threads_flat() {
        let _alone = one_proxy_at_a_time();
        for clients in [256, 1000] {
            sweep_row("tcp", Arc::new(TcpNet::new()), clients);
        }
    }
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
