//! The load generator: one thread multiplexing the client sessions through
//! a `Poller`, checking every reply against the oracle.
//!
//! Three kinds of work feed the same loop: a fixed count (priming, warm-up),
//! a closed loop (each session keeps its pipeline full for a fixed window)
//! and an open loop (requests fall due on a fixed schedule and are timed
//! from their due time, so a stall is charged to every request it delays).

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rddr_core::INTERVENTION_PAGE;
use rddr_net::{BoxStream, Network, Poller, ServiceAddr, Stream, Token, TryRead};

use crate::host;
use crate::stats::{slice_of, SlicedLatencies, SLICES};
use crate::workload::{Expect, Kind, PgReference, RequestGen, PG_READY};

/// A request released more than this after its due time counts as late:
/// the generator, not the system under test, delayed it.
pub const LATE_NS: u64 = 1_000_000;

/// No reply for this long fails everything in flight and ends the phase.
const STALL: Duration = Duration::from_secs(10);

/// The open-loop schedule: op `i` falls due at `i / rate`, belongs to
/// session `i % sessions`, and waits in that session's backlog until the
/// session can take it. Pure (time is passed in) so it is testable against
/// a fake server.
pub struct OpenLoop {
    interval_ns: f64,
    window_ns: u64,
    next: u64,
    backlog: Vec<VecDeque<u64>>,
    pub released: u64,
    pub late: u64,
}

impl OpenLoop {
    pub fn new(rate: f64, sessions: usize, window_ns: u64) -> OpenLoop {
        OpenLoop {
            interval_ns: 1e9 / rate,
            window_ns,
            next: 0,
            backlog: vec![VecDeque::new(); sessions],
            released: 0,
            late: 0,
        }
    }

    /// When the next unreleased op falls due; `None` once the window's
    /// schedule is exhausted.
    pub fn next_due(&self) -> Option<u64> {
        let due = (self.next as f64 * self.interval_ns) as u64;
        (due < self.window_ns).then_some(due)
    }

    /// Moves every op due by `now_ns` into its session's backlog.
    pub fn release(&mut self, now_ns: u64) {
        while let Some(due) = self.next_due().filter(|&due| due <= now_ns) {
            let session = (self.next % self.backlog.len() as u64) as usize;
            self.backlog[session].push_back(due);
            self.next += 1;
            self.released += 1;
            if now_ns - due > LATE_NS {
                self.late += 1;
            }
        }
    }

    /// The due time of the next op `session` should send, if one waits.
    pub fn take(&mut self, session: usize) -> Option<u64> {
        self.backlog[session].pop_front()
    }

    /// Ops released but not yet sent.
    pub fn backlog(&self) -> usize {
        self.backlog.iter().map(VecDeque::len).sum()
    }
}

/// Where the loop's requests come from.
enum Source {
    /// `left` more ops; with `only`, from that session alone and benign
    /// (session priming must not sever).
    Count {
        left: usize,
        only: Option<usize>,
    },
    /// Every session keeps its pipeline full until the window ends.
    Closed,
    Open(OpenLoop),
}

/// What one phase measured.
#[derive(Default)]
pub struct PhaseStats {
    pub attempted: u64,
    pub failed: u64,
    /// Expected severs observed (divergent requests the proxy cut).
    pub severs: u64,
    pub ok_per_slice: [u64; SLICES],
    /// Process CPU seconds at each slice boundary.
    pub cpu_marks: [f64; SLICES + 1],
    /// Open loop only: latency from due time, per slice.
    pub latencies: SlicedLatencies,
    pub released: u64,
    pub late: u64,
    pub backlog_end: usize,
    pub peak_threads: usize,
    pub window_s: f64,
}

impl PhaseStats {
    /// Correctly answered ops per second, per slice.
    pub fn throughput_per_slice(&self) -> Vec<f64> {
        let slice_s = self.window_s / SLICES as f64;
        self.ok_per_slice
            .iter()
            .map(|&n| n as f64 / slice_s)
            .collect()
    }

    /// Process CPU milliseconds per 1000 correctly answered ops, per slice.
    pub fn cpu_ms_per_kop_per_slice(&self) -> Vec<f64> {
        (0..SLICES)
            .map(|k| {
                let cpu_ms = (self.cpu_marks[k + 1] - self.cpu_marks[k]) * 1000.0;
                cpu_ms / (self.ok_per_slice[k].max(1) as f64 / 1000.0)
            })
            .collect()
    }
}

struct Pending {
    expect: Expect,
    due_ns: u64,
}

struct Session {
    conn: Option<BoxStream>,
    gen: RequestGen,
    pending: VecDeque<Pending>,
    rx: Vec<u8>,
}

/// How a completed (or abandoned) head-of-line request ended.
enum Outcome {
    Ok,
    Severed,
    Failed,
}

pub struct Driver {
    net: Arc<dyn Network>,
    addr: ServiceAddr,
    poller: Poller,
    sessions: Vec<Session>,
    depth: usize,
    tx: Vec<u8>,
    chunk: Vec<u8>,
    ready: Vec<Token>,
    /// Totals over every phase, warm-up included.
    pub attempted: u64,
    pub failed: u64,
    pub severs: u64,
}

impl Driver {
    /// Dials `sessions` sessions one after another, priming each with one
    /// exchange before the next is dialed: the outgoing proxy groups member
    /// connections in arrival order, so two sessions must not dial at once.
    pub fn connect(
        net: Arc<dyn Network>,
        addr: ServiceAddr,
        kind: Kind,
        sessions: usize,
        depth: usize,
        seed: u64,
        pg: Option<Arc<Mutex<PgReference>>>,
    ) -> Driver {
        let mut driver = Driver {
            net,
            addr,
            poller: Poller::new(),
            sessions: Vec::new(),
            depth,
            tx: Vec::new(),
            chunk: vec![0u8; 64 * 1024],
            ready: Vec::new(),
            attempted: 0,
            failed: 0,
            severs: 0,
        };
        for slot in 0..sessions {
            driver.sessions.push(Session {
                conn: None,
                gen: RequestGen::new(kind, slot, seed, pg.clone()),
                pending: VecDeque::new(),
                rx: Vec::new(),
            });
            driver.dial(slot);
            driver.run(
                Source::Count {
                    left: 1,
                    only: Some(slot),
                },
                Duration::ZERO,
            );
        }
        driver
    }

    /// (Re)dials session `slot`, runs its protocol handshake, and registers
    /// it with the poller. A failed dial leaves the session closed; its
    /// next requests then fail instead of hanging the run.
    fn dial(&mut self, slot: usize) {
        self.poller.deregister(Token(slot as u64));
        let session = &mut self.sessions[slot];
        session.conn = None;
        session.rx.clear();
        let Ok(mut conn) = self.net.dial(&self.addr) else {
            return;
        };
        if let Some(hello) = session.gen.hello() {
            conn.set_read_timeout(Some(STALL));
            let mut greeting = Vec::new();
            let mut chunk = [0u8; 512];
            if conn.write_all(&hello).is_err() {
                return;
            }
            while !greeting.ends_with(PG_READY) {
                match conn.read(&mut chunk) {
                    Ok(0) | Err(_) => return,
                    Ok(n) => greeting.extend_from_slice(&chunk[..n]),
                }
            }
        }
        if conn.poll_register(self.poller.readiness(Token(slot as u64))) {
            session.conn = Some(conn);
        }
    }

    pub fn warm_up(&mut self, ops: usize) {
        self.run(
            Source::Count {
                left: ops,
                only: None,
            },
            Duration::ZERO,
        );
    }

    pub fn closed_loop(&mut self, window: Duration) -> PhaseStats {
        self.run(Source::Closed, window)
    }

    pub fn open_loop(&mut self, window: Duration, rate: f64) -> PhaseStats {
        let schedule = OpenLoop::new(rate, self.sessions.len(), window.as_nanos() as u64);
        self.run(Source::Open(schedule), window)
    }

    /// The one loop behind every phase: refill sessions from `source`, park
    /// until replies (or the next due time), check replies, repeat until
    /// the source is dry and nothing is in flight.
    fn run(&mut self, mut source: Source, window: Duration) -> PhaseStats {
        let window_ns = window.as_nanos() as u64;
        let mut stats = PhaseStats {
            window_s: window.as_secs_f64(),
            peak_threads: host::thread_count(),
            ..PhaseStats::default()
        };
        let start = Instant::now();
        stats.cpu_marks[0] = host::process_cpu_seconds();
        let mut marks_done = 0;
        let mut last_progress = Instant::now();
        loop {
            let now_ns = start.elapsed().as_nanos() as u64;
            // Slice boundaries crossed since the last pass.
            while marks_done < SLICES
                && now_ns >= window_ns / SLICES as u64 * (marks_done + 1) as u64
            {
                marks_done += 1;
                stats.cpu_marks[marks_done] = host::process_cpu_seconds();
                stats.peak_threads = stats.peak_threads.max(host::thread_count());
                if marks_done == SLICES {
                    if let Source::Open(schedule) = &source {
                        stats.backlog_end = schedule.backlog();
                    }
                }
            }
            if let Source::Open(schedule) = &mut source {
                schedule.release(now_ns);
            }

            // Refill every session's pipeline.
            for slot in 0..self.sessions.len() {
                self.tx.clear();
                while self.sessions[slot].pending.len() < self.depth {
                    let due_ns = match &mut source {
                        Source::Count { left, only } => {
                            if *left == 0 || only.is_some_and(|s| s != slot) {
                                break;
                            }
                            *left -= 1;
                            now_ns
                        }
                        Source::Closed => {
                            if now_ns >= window_ns {
                                break;
                            }
                            now_ns
                        }
                        Source::Open(schedule) => match schedule.take(slot) {
                            Some(due) => due,
                            None => break,
                        },
                    };
                    let benign = matches!(source, Source::Count { only: Some(_), .. });
                    let session = &mut self.sessions[slot];
                    let expect = session.gen.next(&mut self.tx, benign);
                    session.pending.push_back(Pending { expect, due_ns });
                    stats.attempted += 1;
                }
                if self.tx.is_empty() {
                    continue;
                }
                let session = &mut self.sessions[slot];
                let wrote = match session.conn.as_mut() {
                    Some(conn) => conn.write_all(&self.tx).is_ok(),
                    None => false,
                };
                if !wrote {
                    self.abandon(slot, &mut stats);
                }
            }

            let in_flight: usize = self.sessions.iter().map(|s| s.pending.len()).sum();
            let more_due = match &source {
                Source::Count { left, .. } => *left > 0,
                Source::Closed => now_ns < window_ns,
                Source::Open(schedule) => schedule.next_due().is_some() || schedule.backlog() > 0,
            };
            if in_flight == 0 && !more_due {
                break;
            }
            if last_progress.elapsed() > STALL {
                for slot in 0..self.sessions.len() {
                    self.abandon(slot, &mut stats);
                }
                break;
            }

            // Park until replies arrive or the next request falls due.
            let timeout = match &source {
                Source::Open(schedule) => match schedule.next_due() {
                    Some(due) => Duration::from_nanos(due.saturating_sub(now_ns)),
                    None => Duration::from_millis(100),
                },
                Source::Closed if in_flight == 0 => Duration::ZERO,
                _ => Duration::from_millis(100),
            };
            if !timeout.is_zero() {
                self.poller.poll(&mut self.ready, Some(timeout));
            } else {
                self.ready.clear();
            }
            let ready = std::mem::take(&mut self.ready);
            for token in &ready {
                if self.drain(token.0 as usize, start, window_ns, &mut stats) {
                    last_progress = Instant::now();
                }
            }
            self.ready = ready;
        }
        while marks_done < SLICES {
            marks_done += 1;
            stats.cpu_marks[marks_done] = host::process_cpu_seconds();
        }
        if let Source::Open(schedule) = &source {
            stats.released = schedule.released;
            stats.late = schedule.late;
        }
        stats.peak_threads = stats.peak_threads.max(host::thread_count());
        self.attempted += stats.attempted;
        self.failed += stats.failed;
        self.severs += stats.severs;
        stats
    }

    /// Fails everything session `slot` has in flight and redials it.
    fn abandon(&mut self, slot: usize, stats: &mut PhaseStats) {
        stats.failed += self.sessions[slot].pending.len() as u64;
        self.sessions[slot].pending.clear();
        self.dial(slot);
    }

    /// Reads session `slot` dry and settles every reply that completed.
    /// Returns whether anything completed.
    fn drain(
        &mut self,
        slot: usize,
        start: Instant,
        window_ns: u64,
        stats: &mut PhaseStats,
    ) -> bool {
        let mut closed = false;
        {
            let session = &mut self.sessions[slot];
            let Some(conn) = session.conn.as_mut() else {
                return false;
            };
            loop {
                match conn.try_read(&mut self.chunk) {
                    Ok(TryRead::Data(n)) => session.rx.extend_from_slice(&self.chunk[..n]),
                    Ok(TryRead::WouldBlock) => break,
                    Ok(TryRead::Eof) | Err(_) => {
                        closed = true;
                        break;
                    }
                }
            }
        }
        let now_ns = start.elapsed().as_nanos() as u64;
        let mut progressed = false;
        let mut consumed = 0;
        let mut broken = false;
        let session = &mut self.sessions[slot];
        while let Some(head) = session.pending.front() {
            let rx = &session.rx[consumed..];
            let outcome = match &head.expect {
                Expect::Reply(want) if rx.len() >= want.len() => {
                    if rx[..want.len()] == want[..] {
                        consumed += want.len();
                        Outcome::Ok
                    } else {
                        Outcome::Failed
                    }
                }
                Expect::Reply(_) => break,
                Expect::Sever if closed && rx == INTERVENTION_PAGE.as_bytes() => Outcome::Severed,
                // A divergent request that gets anything but the
                // intervention page was answered: the leak got through.
                Expect::Sever if closed || !INTERVENTION_PAGE.as_bytes().starts_with(rx) => {
                    Outcome::Failed
                }
                Expect::Sever => break,
            };
            let due_ns = head.due_ns;
            session.pending.pop_front();
            progressed = true;
            match outcome {
                Outcome::Failed => {
                    stats.failed += 1;
                    broken = true;
                    break;
                }
                Outcome::Severed => stats.severs += 1,
                Outcome::Ok => {}
            }
            if window_ns > 0 {
                let slice = slice_of(now_ns, window_ns);
                if let Some(k) = slice {
                    stats.ok_per_slice[k] += 1;
                }
                // Ops due inside the window that complete during the drain
                // still belong to the window's tail.
                stats
                    .latencies
                    .record(slice.unwrap_or(SLICES - 1), now_ns.saturating_sub(due_ns));
            }
        }
        session.rx.drain(..consumed);
        if closed || broken {
            // A benign request cut off mid-flight failed; then start over
            // on a fresh session, as a real client would.
            self.abandon(slot, stats);
        }
        progressed
    }
}

impl Drop for Driver {
    fn drop(&mut self) {
        for slot in 0..self.sessions.len() {
            self.poller.deregister(Token(slot as u64));
            if let Some(mut conn) = self.sessions[slot].conn.take() {
                conn.shutdown();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fake single-threaded server in virtual time: serves one request at
    /// a time in `service_ns`, except that it freezes during `stall`.
    /// Returns each op's `(due, latency-from-due, latency-from-send)`.
    fn simulate(
        schedule: &mut OpenLoop,
        service_ns: u64,
        stall: std::ops::Range<u64>,
        step_ns: u64,
        end_ns: u64,
    ) -> Vec<(u64, u64, u64)> {
        let mut done = Vec::new();
        let mut busy_until = 0u64;
        let mut now = 0u64;
        while now < end_ns {
            schedule.release(now);
            if now >= busy_until {
                if let Some(due) = schedule.take(0) {
                    let begin = if stall.contains(&now) { stall.end } else { now };
                    busy_until = begin + service_ns;
                    done.push((due, busy_until - due, busy_until - now));
                }
            }
            now += step_ns;
        }
        done
    }

    #[test]
    fn a_server_stall_is_charged_to_every_request_it_delays() {
        const MS: u64 = 1_000_000;
        // 1000 ops/s for 400 ms against a 0.2 ms server that freezes from
        // 100 ms to 200 ms.
        let mut schedule = OpenLoop::new(1000.0, 1, 400 * MS);
        let done = simulate(&mut schedule, MS / 5, 100 * MS..200 * MS, MS / 10, 600 * MS);
        assert_eq!(done.len(), 400, "every scheduled op is eventually served");
        // The ~100 ops that fell due during the stall each waited for its
        // end (and for the queue ahead of them): charged from due time.
        let delayed = done
            .iter()
            .filter(|(_, from_due, _)| *from_due > 10 * MS)
            .count();
        assert!(delayed >= 100, "only {delayed} ops were charged the stall");
        for (due, from_due, _) in &done {
            if (100 * MS..200 * MS).contains(due) {
                assert!(
                    due + from_due >= 200 * MS,
                    "op due at {due} finished in the stall"
                );
            }
        }
        // Timed from *send* time instead (coordinated omission), all but
        // the one request that hit the stall would look fast.
        let looks_slow = done
            .iter()
            .filter(|(_, _, from_send)| *from_send > 10 * MS)
            .count();
        assert_eq!(looks_slow, 1);
        // The generator itself kept its schedule: nothing was released late.
        assert_eq!(schedule.late, 0);
        assert_eq!(schedule.released, 400);
        assert_eq!(schedule.backlog(), 0);
    }

    #[test]
    fn a_late_generator_is_reported() {
        const MS: u64 = 1_000_000;
        let mut schedule = OpenLoop::new(1000.0, 2, 100 * MS);
        schedule.release(0);
        assert_eq!((schedule.released, schedule.late), (1, 0));
        // The driver thread was descheduled for 50 ms.
        schedule.release(50 * MS);
        assert_eq!(schedule.released, 51);
        assert_eq!(
            schedule.late, 48,
            "ops due 1..=48 ms were released >1 ms late"
        );
        // Round-robin assignment: even ops to session 0, odd to session 1.
        assert_eq!(schedule.take(0), Some(0));
        assert_eq!(schedule.take(1), Some(MS));
        assert_eq!(schedule.take(0), Some(2 * MS));
        // The schedule ends with the window.
        schedule.release(500 * MS);
        assert_eq!(schedule.released, 100);
        assert_eq!(schedule.next_due(), None);
    }
}
