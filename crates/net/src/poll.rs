//! Poll-style readiness API over any [`Stream`](crate::Stream).
//!
//! A [`Poller`] multiplexes wake-up sources for one reactor worker thread:
//!
//! - **In-memory streams** ([`crate::DuplexStream`], and everything layered on
//!   top of it — SimNet, FaultNet, SecureNet) register a [`Readiness`] handle
//!   with the pipe they read from; the pipe's writer calls
//!   [`Readiness::wake`] whenever bytes (or EOF) arrive. These wakes are
//!   *edge-triggered*: consumers must drain with
//!   [`Stream::try_read`](crate::Stream::try_read) until `WouldBlock` on
//!   every wake.
//! - **Kernel sockets** ([`crate::TcpNet`] connections) register their raw fd
//!   via [`Readiness::register_fd`]; the poller watches them with `poll(2)`
//!   (no external event-loop crate — a ~30-line FFI shim). Kernel readiness
//!   is *level-triggered*: a readable fd reports ready on every poll until
//!   drained, so consumers must also drain to `WouldBlock` (and must
//!   [`Poller::deregister`] a token before dropping its stream, or a closed
//!   fd would report ready forever).
//! - **Timers** ([`Poller::set_timer`] / [`Readiness::wake_after`]) fire the
//!   token once the deadline passes — this is how read deadlines work when no
//!   thread blocks in `read` any more.
//!
//! When at least one fd is registered the poller parks in `poll(2)` and
//! in-memory wakes are delivered through a loopback UDP self-wake socket;
//! with no fds it parks on a condvar. Either way [`Poller::poll`] returns the
//! deduplicated set of woken [`Token`]s.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::RangeInclusive;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::{NetError, Result};

/// Identifies one wake-up source registered with a [`Poller`].
///
/// Tokens are opaque to the poller; reactors typically pack a session id and
/// a per-session slot into the `u64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Token(pub u64);

/// Outcome of a non-blocking [`Stream::try_read`](crate::Stream::try_read).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRead {
    /// `n` bytes were read into the buffer.
    Data(usize),
    /// The peer has cleanly closed the stream.
    Eof,
    /// No data is available right now; a wake will follow when there is.
    WouldBlock,
}

#[cfg(unix)]
const POLLIN: i16 = 0x001;
#[cfg(unix)]
const POLLOUT: i16 = 0x004;

#[cfg(unix)]
#[repr(C)]
#[derive(Clone, Copy)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[cfg(unix)]
extern "C" {
    fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
}

/// Waits (blocking) until `fd` is writable, via a one-shot `poll(2)`.
///
/// Used by non-blocking TCP streams to complete `write_all` without busy
/// spinning when the kernel send buffer is full.
///
/// # Errors
///
/// Returns [`NetError::TimedOut`] if the deadline expires first.
#[cfg(unix)]
pub fn wait_writable(fd: i32, timeout: Duration) -> Result<()> {
    let mut pfd = PollFd {
        fd,
        events: POLLOUT,
        revents: 0,
    };
    let ms = timeout.as_millis().min(i32::MAX as u128) as i32;
    // SAFETY: `pfd` is a valid pollfd for the duration of the call.
    let rc = unsafe { poll(&mut pfd, 1, ms) };
    if rc > 0 {
        Ok(())
    } else if rc == 0 {
        Err(NetError::TimedOut)
    } else {
        Err(NetError::Io(std::io::Error::last_os_error()))
    }
}

/// Loopback UDP pair used to interrupt a `poll(2)` park from another thread.
#[cfg(unix)]
struct Waker {
    tx: std::net::UdpSocket,
    rx: std::net::UdpSocket,
}

#[cfg(unix)]
impl Waker {
    fn new() -> Result<Self> {
        let rx = std::net::UdpSocket::bind(("127.0.0.1", 0))?;
        rx.set_nonblocking(true)?;
        let tx = std::net::UdpSocket::bind(("127.0.0.1", 0))?;
        tx.connect(rx.local_addr()?)?;
        tx.set_nonblocking(true)?;
        Ok(Self { tx, rx })
    }

    fn fd(&self) -> i32 {
        use std::os::unix::io::AsRawFd;
        self.rx.as_raw_fd()
    }

    fn wake(&self) {
        // A full socket buffer means a wake datagram is already pending, so
        // the syscall will return regardless; nothing to handle.
        // rddr-analyze: allow(error-swallow)
        let _ = self.tx.send(&[1]);
    }

    fn drain(&self) {
        let mut sink = [0u8; 16];
        while self.rx.recv(&mut sink).is_ok() {}
    }
}

struct PollState {
    /// Tokens woken since the last `poll` drain (deduplicated).
    queued: BTreeSet<u64>,
    /// Pending timers: `(deadline, seq) -> token`. The seq disambiguates
    /// equal deadlines. Holds both `wake_after` one-shots and the per-token
    /// replaceable `set_timer` deadline.
    timers: BTreeMap<(Instant, u64), u64>,
    /// Reverse index of the *replaceable* deadline per token:
    /// `token -> (deadline, seq)`. Keeps `set_timer`/`clear_timer` at
    /// O(log n) — a full-map sweep per call is quadratic once thousands of
    /// sessions re-arm a deadline every exchange.
    deadline: BTreeMap<u64, (Instant, u64)>,
    /// Reverse index of the `wake_after` one-shots: `(token, seq) ->
    /// deadline`. Every entry of `timers` is in exactly one of the two
    /// indexes, so deregistering a token range never sweeps `timers`.
    oneshots: BTreeMap<(u64, u64), Instant>,
    timer_seq: u64,
    /// Kernel fds under watch: `fd -> token`.
    fds: BTreeMap<i32, u64>,
    /// Reverse index of `fds`: `(token, fd)`.
    fd_tokens: BTreeSet<(u64, i32)>,
    /// True while the owning thread is parked inside `poll(2)` (as opposed
    /// to the condvar) — tells wakers to poke the self-wake socket.
    in_syscall: bool,
    #[cfg(unix)]
    waker: Option<Waker>,
}

struct Shared {
    state: Mutex<PollState>,
    cond: Condvar,
}

impl Shared {
    #[cfg(unix)]
    fn wake_syscall(state: &mut PollState) {
        if state.in_syscall {
            if let Some(w) = &state.waker {
                w.wake();
            }
        }
    }

    #[cfg(not(unix))]
    fn wake_syscall(_state: &mut PollState) {}

    fn enqueue(&self, token: u64) {
        let mut st = self.state.lock();
        let was_idle = st.queued.is_empty();
        // Set/map insert, not `Storage::insert`. rddr-analyze: allow(lock-order)
        st.queued.insert(token);
        // Notify only on the empty→non-empty transition: the poller drains
        // `queued` under this lock before parking, so a non-empty queue
        // means it is either running or was already poked — skipping the
        // redundant futex wake matters when wakes arrive in bursts.
        if was_idle {
            Self::wake_syscall(&mut st);
            drop(st);
            self.cond.notify_all();
        }
    }

    fn add_timer(&self, token: u64, after: Duration) {
        let mut st = self.state.lock();
        let seq = st.timer_seq;
        st.timer_seq = st.timer_seq.wrapping_add(1);
        let when = Instant::now() + after;
        // Set/map insert, not `Storage::insert`. rddr-analyze: allow(lock-order)
        st.timers.insert((when, seq), token);
        // Set/map insert, not `Storage::insert`. rddr-analyze: allow(lock-order)
        st.oneshots.insert((token, seq), when);
        // With a non-empty queue the poller is awake and recomputes its park
        // deadline (under this lock) before it can park again.
        if st.queued.is_empty() {
            Self::wake_syscall(&mut st);
            drop(st);
            self.cond.notify_all();
        }
    }
}

/// A cloneable handle that wakes one [`Token`] on its owning [`Poller`].
///
/// Streams hold onto the `Readiness` passed to
/// [`Stream::poll_register`](crate::Stream::poll_register) and call
/// [`wake`](Readiness::wake) whenever new bytes, EOF, or an error become
/// observable.
#[derive(Clone)]
pub struct Readiness {
    shared: Arc<Shared>,
    token: u64,
}

impl std::fmt::Debug for Readiness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Readiness")
            .field("token", &self.token)
            .finish()
    }
}

impl Readiness {
    /// The token this handle wakes.
    pub fn token(&self) -> Token {
        Token(self.token)
    }

    /// Wakes the token now. Idempotent until the next `poll` drains it.
    pub fn wake(&self) {
        self.shared.enqueue(self.token);
    }

    /// Arranges for the token to wake after `delay` (in addition to any
    /// data-driven wakes). Multiple pending delayed wakes may coexist.
    pub fn wake_after(&self, delay: Duration) {
        self.shared.add_timer(self.token, delay);
    }

    /// Puts a kernel fd under `poll(2)` watch for this token (read
    /// readiness). The fd must stay valid until [`Poller::deregister`].
    #[cfg(unix)]
    pub fn register_fd(&self, fd: i32) {
        let mut st = self.shared.state.lock();
        // Map insert, not `Storage::insert`. rddr-analyze: allow(lock-order)
        if let Some(previous) = st.fds.insert(fd, self.token) {
            st.fd_tokens.remove(&(previous, fd));
        }
        // Set insert, not `Storage::insert`. rddr-analyze: allow(lock-order)
        st.fd_tokens.insert((self.token, fd));
        Shared::wake_syscall(&mut st);
        drop(st);
        self.shared.cond.notify_all();
    }

    /// No kernel polling off unix; fd registration is unsupported.
    #[cfg(not(unix))]
    pub fn register_fd(&self, _fd: i32) {}
}

/// A readiness multiplexer for one reactor worker thread.
///
/// One thread calls [`poll`](Poller::poll) in a loop; any thread (pipe
/// writers, timer owners, injectors) may wake tokens concurrently through
/// [`Readiness`] handles created by [`readiness`](Poller::readiness).
pub struct Poller {
    shared: Arc<Shared>,
}

impl Default for Poller {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Poller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Poller").finish()
    }
}

impl Poller {
    /// Creates an empty poller.
    pub fn new() -> Self {
        Self {
            shared: Arc::new(Shared {
                state: Mutex::new(PollState {
                    queued: BTreeSet::new(),
                    timers: BTreeMap::new(),
                    deadline: BTreeMap::new(),
                    oneshots: BTreeMap::new(),
                    timer_seq: 0,
                    fds: BTreeMap::new(),
                    fd_tokens: BTreeSet::new(),
                    in_syscall: false,
                    #[cfg(unix)]
                    waker: None,
                }),
                cond: Condvar::new(),
            }),
        }
    }

    /// Creates a wake handle for `token`.
    pub fn readiness(&self, token: Token) -> Readiness {
        Readiness {
            shared: Arc::clone(&self.shared),
            token: token.0,
        }
    }

    /// Wakes `token` immediately (e.g. to re-run a session step).
    pub fn wake(&self, token: Token) {
        self.shared.enqueue(token.0);
    }

    /// Replaces the pending `set_timer` deadline for `token` with one firing
    /// after `delay` ([`Readiness::wake_after`] one-shots are independent and
    /// unaffected).
    pub fn set_timer(&self, token: Token, delay: Duration) {
        let mut st = self.shared.state.lock();
        if let Some(key) = st.deadline.remove(&token.0) {
            st.timers.remove(&key);
        }
        let seq = st.timer_seq;
        st.timer_seq = st.timer_seq.wrapping_add(1);
        let key = (Instant::now() + delay, seq);
        // Set/map insert, not `Storage::insert`. rddr-analyze: allow(lock-order)
        st.timers.insert(key, token.0);
        // Set/map insert, not `Storage::insert`. rddr-analyze: allow(lock-order)
        st.deadline.insert(token.0, key);
        if st.queued.is_empty() {
            Shared::wake_syscall(&mut st);
            drop(st);
            self.shared.cond.notify_all();
        }
    }

    /// Cancels the pending `set_timer` deadline for `token`.
    pub fn clear_timer(&self, token: Token) {
        let mut st = self.shared.state.lock();
        if let Some(key) = st.deadline.remove(&token.0) {
            st.timers.remove(&key);
        }
    }

    /// Removes every trace of `token`: queued wakes, timers, and watched
    /// fds. Must be called before dropping a stream whose fd was registered.
    pub fn deregister(&self, token: Token) {
        self.deregister_range(token..=token);
    }

    /// [`Poller::deregister`] for every token in `tokens` (used to tear
    /// down all slots of a session at once). Costs O(k log n) for the k
    /// wakes, timers and fds the range holds, whatever else is registered.
    pub fn deregister_range(&self, tokens: RangeInclusive<Token>) {
        let (first, last) = (tokens.start().0, tokens.end().0);
        if first > last {
            return;
        }
        let mut st = self.shared.state.lock();
        while let Some(&token) = st.queued.range(first..=last).next() {
            st.queued.remove(&token);
        }
        while let Some((&token, &key)) = st.deadline.range(first..=last).next() {
            st.deadline.remove(&token);
            st.timers.remove(&key);
        }
        while let Some((&(token, seq), &when)) =
            st.oneshots.range((first, 0)..=(last, u64::MAX)).next()
        {
            st.oneshots.remove(&(token, seq));
            st.timers.remove(&(when, seq));
        }
        while let Some(&(token, fd)) = st
            .fd_tokens
            .range((first, i32::MIN)..=(last, i32::MAX))
            .next()
        {
            st.fd_tokens.remove(&(token, fd));
            st.fds.remove(&fd);
        }
    }

    /// Blocks until at least one token wakes (or `timeout` expires), then
    /// moves all woken tokens into `out`. Returns the number delivered —
    /// zero only on timeout.
    ///
    /// Tokens are delivered deduplicated and in ascending `Token` order;
    /// reactors that pack `(session, slot)` into tokens rely on one
    /// session's wakes forming a consecutive run.
    pub fn poll(&self, out: &mut Vec<Token>, timeout: Option<Duration>) -> usize {
        out.clear();
        let overall_deadline = timeout.map(|t| Instant::now() + t);
        loop {
            let mut st = self.shared.state.lock();
            // Promote expired timers.
            let now = Instant::now();
            while let Some((&key, &tok)) = st.timers.iter().next() {
                if key.0 > now {
                    break;
                }
                st.timers.remove(&key);
                if st.deadline.get(&tok) == Some(&key) {
                    st.deadline.remove(&tok);
                } else {
                    st.oneshots.remove(&(tok, key.1));
                }
                // Set/map insert, not `Storage::insert`. rddr-analyze: allow(lock-order)
                st.queued.insert(tok);
            }
            if !st.queued.is_empty() {
                out.extend(st.queued.iter().map(|&t| Token(t)));
                st.queued.clear();
                return out.len();
            }
            if let Some(d) = overall_deadline {
                if now >= d {
                    return 0;
                }
            }
            let next_timer = st.timers.keys().next().map(|&(when, _)| when);
            let wake_at = match (overall_deadline, next_timer) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            if st.fds.is_empty() {
                match wake_at {
                    Some(at) => {
                        let wait = at.saturating_duration_since(Instant::now());
                        let _ = self.shared.cond.wait_for(&mut st, wait);
                    }
                    None => self.shared.cond.wait(&mut st),
                }
                continue;
            }
            #[cfg(unix)]
            {
                if st.waker.is_none() {
                    match Waker::new() {
                        Ok(w) => st.waker = Some(w),
                        Err(_) => {
                            // Loopback unavailable: degrade to short condvar
                            // waits so in-memory wakes are still seen.
                            let _ = self.shared.cond.wait_for(&mut st, Duration::from_millis(5));
                            continue;
                        }
                    }
                }
                let waker_fd = st.waker.as_ref().map(|w| w.fd()).unwrap_or(-1);
                let mut pollfds: Vec<PollFd> = st
                    .fds
                    .keys()
                    .map(|&fd| PollFd {
                        fd,
                        events: POLLIN,
                        revents: 0,
                    })
                    .collect();
                pollfds.push(PollFd {
                    fd: waker_fd,
                    events: POLLIN,
                    revents: 0,
                });
                st.in_syscall = true;
                drop(st);
                let timeout_ms = match wake_at {
                    Some(at) => at
                        .saturating_duration_since(Instant::now())
                        .as_millis()
                        .min(i32::MAX as u128)
                        .max(1) as i32,
                    None => -1,
                };
                let nfds = pollfds.len() as u64;
                // SAFETY: `pollfds` outlives the call; length matches.
                let rc = unsafe { poll(pollfds.as_mut_ptr(), nfds, timeout_ms) };
                // Re-acquire: the guard was dropped before the syscall
                // above. rddr-analyze: allow(lock-order)
                let mut st = self.shared.state.lock();
                st.in_syscall = false;
                if rc > 0 {
                    for pfd in &pollfds {
                        if pfd.revents == 0 {
                            continue;
                        }
                        // Drain the self-wake socket only when it fired.
                        // Every waker records its change (a queued token, a
                        // timer, an fd) under the lock before it sends, so a
                        // datagram that lands after this return carries no
                        // news; the next park returns at once and drains it.
                        if pfd.fd == waker_fd {
                            if let Some(w) = &st.waker {
                                w.drain();
                            }
                        } else if let Some(&tok) = st.fds.get(&pfd.fd) {
                            // Set/map insert, not `Storage::insert`. rddr-analyze: allow(lock-order)
                            st.queued.insert(tok);
                        }
                    }
                }
                continue;
            }
            #[cfg(not(unix))]
            {
                // Off unix there is no fd polling; wait on the condvar.
                match wake_at {
                    Some(at) => {
                        let wait = at.saturating_duration_since(Instant::now());
                        let _ = self.shared.cond.wait_for(&mut st, wait);
                    }
                    None => self.shared.cond.wait(&mut st),
                }
                continue;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{duplex_pair, Stream};

    #[test]
    fn timer_fires_after_delay() {
        let poller = Poller::new();
        poller.set_timer(Token(7), Duration::from_millis(20));
        let mut out = Vec::new();
        let t0 = Instant::now();
        let n = poller.poll(&mut out, Some(Duration::from_secs(2)));
        assert_eq!(n, 1);
        assert_eq!(out, vec![Token(7)]);
        assert!(t0.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn wake_from_other_thread_unparks_condvar_wait() {
        let poller = Poller::new();
        let r = poller.readiness(Token(1));
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            r.wake();
        });
        let mut out = Vec::new();
        let n = poller.poll(&mut out, Some(Duration::from_secs(2)));
        h.join().unwrap();
        assert_eq!(n, 1);
        assert_eq!(out, vec![Token(1)]);
    }

    #[test]
    fn wakes_are_deduplicated() {
        let poller = Poller::new();
        let r = poller.readiness(Token(3));
        r.wake();
        r.wake();
        r.wake();
        let mut out = Vec::new();
        assert_eq!(poller.poll(&mut out, Some(Duration::from_millis(100))), 1);
    }

    #[test]
    fn deregister_cancels_queued_wakes_and_timers() {
        let poller = Poller::new();
        poller.readiness(Token(9)).wake();
        poller.set_timer(Token(9), Duration::from_millis(1));
        poller.deregister(Token(9));
        let mut out = Vec::new();
        assert_eq!(poller.poll(&mut out, Some(Duration::from_millis(50))), 0);
    }

    /// Tearing down one session's token range clears its queued wakes, its
    /// `set_timer` deadline, its `wake_after` timers and its fds, and leaves
    /// the neighbouring session's untouched.
    #[cfg(unix)]
    #[test]
    fn deregister_range_clears_one_session_and_spares_its_neighbour() {
        use crate::{Network, ServiceAddr, TcpNet};
        let net = TcpNet::new();
        let mut listener = net.listen(&ServiceAddr::new("127.0.0.1", 0)).unwrap();
        let bound = listener.local_addr();
        let poller = Poller::new();
        let mut streams = Vec::new();
        // Session s holds tokens `s << 8 ..= s << 8 | 0xff`.
        for session in [1u64, 2] {
            let base = session << 8;
            poller.readiness(Token(base | 3)).wake();
            poller
                .readiness(Token(base | 4))
                .wake_after(Duration::from_secs(60));
            poller.set_timer(Token(base | 0xff), Duration::from_secs(60));
            let mut client = net.dial(&bound).unwrap();
            assert!(client.poll_register(poller.readiness(Token(base | 5))));
            streams.push((client, listener.accept().unwrap()));
        }
        poller.deregister_range(Token(0x100)..=Token(0x1ff));
        {
            let st = poller.shared.state.lock();
            assert_eq!(st.queued.iter().copied().collect::<Vec<_>>(), [0x203]);
            assert_eq!(st.deadline.keys().copied().collect::<Vec<_>>(), [0x2ff]);
            assert_eq!(st.oneshots.keys().map(|k| k.0).collect::<Vec<_>>(), [0x204]);
            let mut timed: Vec<u64> = st.timers.values().copied().collect();
            timed.sort_unstable();
            assert_eq!(timed, [0x204, 0x2ff]);
            assert_eq!(st.fds.values().copied().collect::<Vec<_>>(), [0x205]);
            assert_eq!(
                st.fd_tokens.iter().map(|k| k.0).collect::<Vec<_>>(),
                [0x205]
            );
        }
        // The survivor's fd still wakes its token; the removed one's never.
        streams[0].1.write_all(b"x").unwrap();
        streams[1].1.write_all(b"x").unwrap();
        let mut out = Vec::new();
        assert_eq!(poller.poll(&mut out, Some(Duration::from_secs(5))), 1);
        assert_eq!(out, vec![Token(0x203)]);
        assert_eq!(poller.poll(&mut out, Some(Duration::from_secs(5))), 1);
        assert_eq!(out, vec![Token(0x205)]);
        poller.deregister_range(Token(0x200)..=Token(0x2ff));
    }

    #[test]
    fn set_timer_replaces_previous_timer() {
        let poller = Poller::new();
        poller.set_timer(Token(4), Duration::from_millis(5));
        poller.set_timer(Token(4), Duration::from_millis(40));
        let mut out = Vec::new();
        let t0 = Instant::now();
        assert_eq!(poller.poll(&mut out, Some(Duration::from_secs(2))), 1);
        assert!(
            t0.elapsed() >= Duration::from_millis(35),
            "second set_timer must replace the first ({:?})",
            t0.elapsed()
        );
    }

    #[test]
    fn duplex_write_wakes_registered_token() {
        let poller = Poller::new();
        let (mut a, mut b) = duplex_pair("a", "b");
        assert!(b.poll_register(poller.readiness(Token(11))));
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(15));
            a.write_all(b"hi").unwrap();
            a
        });
        let mut out = Vec::new();
        assert_eq!(poller.poll(&mut out, Some(Duration::from_secs(2))), 1);
        assert_eq!(out, vec![Token(11)]);
        let mut buf = [0u8; 8];
        assert_eq!(b.try_read(&mut buf).unwrap(), TryRead::Data(2));
        assert_eq!(b.try_read(&mut buf).unwrap(), TryRead::WouldBlock);
        drop(h.join().unwrap());
        // Peer drop closes the pipe: another wake, then Eof.
        assert_eq!(poller.poll(&mut out, Some(Duration::from_secs(2))), 1);
        assert_eq!(b.try_read(&mut buf).unwrap(), TryRead::Eof);
    }

    #[test]
    fn registration_wakes_immediately_when_data_already_buffered() {
        let poller = Poller::new();
        let (mut a, mut b) = duplex_pair("a", "b");
        a.write_all(b"early").unwrap();
        assert!(b.poll_register(poller.readiness(Token(5))));
        let mut out = Vec::new();
        assert_eq!(poller.poll(&mut out, Some(Duration::from_millis(200))), 1);
        assert_eq!(out, vec![Token(5)]);
    }

    /// Regression test for the reactor read-deadline contract: a session
    /// whose deadline expires is woken by its timer and can be severed
    /// *without* stalling the other sessions multiplexed on the same poller.
    /// (Under the old thread model the blocking `read` timeout provided
    /// this; under the poller it must come from `set_timer`.)
    #[test]
    fn expired_deadline_wakes_without_stalling_other_sessions() {
        let poller = Poller::new();
        // Session 1: a stream that will never produce data, with a deadline.
        let (_quiet_peer, mut quiet) = duplex_pair("a", "b");
        assert!(quiet.poll_register(poller.readiness(Token(1))));
        poller.set_timer(Token(1), Duration::from_millis(60));
        // Session 2: a busy stream that keeps receiving data.
        let (mut busy_peer, mut busy) = duplex_pair("c", "d");
        assert!(busy.poll_register(poller.readiness(Token(2))));
        let writer = std::thread::spawn(move || {
            for _ in 0..10 {
                std::thread::sleep(Duration::from_millis(10));
                if busy_peer.write_all(b"x").is_err() {
                    break;
                }
            }
        });
        let t0 = Instant::now();
        let mut out = Vec::new();
        let mut busy_wakes = 0;
        let mut deadline_fired_at = None;
        while deadline_fired_at.is_none() && t0.elapsed() < Duration::from_secs(3) {
            poller.poll(&mut out, Some(Duration::from_millis(500)));
            for t in &out {
                match t.0 {
                    1 => deadline_fired_at = Some(t0.elapsed()),
                    2 => {
                        busy_wakes += 1;
                        let mut sink = [0u8; 8];
                        while matches!(busy.try_read(&mut sink), Ok(TryRead::Data(_))) {}
                    }
                    _ => {}
                }
            }
        }
        writer.join().unwrap();
        let fired = deadline_fired_at.expect("deadline timer must fire");
        assert!(
            fired >= Duration::from_millis(55),
            "deadline fired early: {fired:?}"
        );
        assert!(
            fired < Duration::from_millis(500),
            "deadline wake stalled: {fired:?}"
        );
        // The busy session made progress while the quiet one waited: its
        // wakes interleaved with (not after) the deadline.
        assert!(
            busy_wakes >= 3,
            "busy session starved while deadline pended ({busy_wakes} wakes)"
        );
        // Severing the expired session must not disturb the busy one.
        poller.deregister(Token(1));
        quiet.shutdown();
    }

    #[cfg(unix)]
    #[test]
    fn tcp_fd_readiness_via_poll_syscall() {
        use crate::{Network, ServiceAddr, TcpNet};
        let net = TcpNet::new();
        let mut listener = net.listen(&ServiceAddr::new("127.0.0.1", 0)).unwrap();
        let bound = listener.local_addr();
        let server = std::thread::spawn(move || {
            let mut conn = listener.accept().unwrap();
            std::thread::sleep(Duration::from_millis(20));
            conn.write_all(b"pong").unwrap();
            conn
        });
        let mut client = net.dial(&bound).unwrap();
        let poller = Poller::new();
        assert!(client.poll_register(poller.readiness(Token(42))));
        let mut out = Vec::new();
        assert_eq!(poller.poll(&mut out, Some(Duration::from_secs(5))), 1);
        assert_eq!(out, vec![Token(42)]);
        let mut buf = [0u8; 16];
        assert_eq!(client.try_read(&mut buf).unwrap(), TryRead::Data(4));
        assert_eq!(&buf[..4], b"pong");
        assert_eq!(client.try_read(&mut buf).unwrap(), TryRead::WouldBlock);
        // Must deregister before dropping the fd.
        poller.deregister(Token(42));
        drop(client);
        drop(server.join().unwrap());
    }

    #[cfg(unix)]
    #[test]
    fn in_memory_wake_interrupts_poll_syscall_park() {
        use crate::{Network, ServiceAddr, TcpNet};
        // Register one quiet TCP fd so the poller parks in poll(2), then
        // deliver an in-memory wake: the self-wake socket must unpark it.
        let net = TcpNet::new();
        let mut listener = net.listen(&ServiceAddr::new("127.0.0.1", 0)).unwrap();
        let bound = listener.local_addr();
        let srv = std::thread::spawn(move || listener.accept());
        let mut client = net.dial(&bound).unwrap();
        let server_conn = srv.join().unwrap().unwrap();
        let poller = Poller::new();
        assert!(client.poll_register(poller.readiness(Token(1))));
        let r = poller.readiness(Token(2));
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            r.wake();
        });
        let mut out = Vec::new();
        let t0 = Instant::now();
        assert_eq!(poller.poll(&mut out, Some(Duration::from_secs(5))), 1);
        assert!(t0.elapsed() < Duration::from_secs(4));
        assert_eq!(out, vec![Token(2)]);
        h.join().unwrap();
        poller.deregister(Token(1));
        drop(server_conn);
    }

    #[cfg(unix)]
    #[test]
    fn wake_between_syscall_parks_is_delivered() {
        use crate::{Network, ServiceAddr, TcpNet};
        // One quiet TCP fd makes every park a poll(2) call.
        let net = TcpNet::new();
        let mut listener = net.listen(&ServiceAddr::new("127.0.0.1", 0)).unwrap();
        let bound = listener.local_addr();
        let srv = std::thread::spawn(move || listener.accept());
        let mut client = net.dial(&bound).unwrap();
        let server_conn = srv.join().unwrap().unwrap();
        let poller = Poller::new();
        assert!(client.poll_register(poller.readiness(Token(1))));
        let mut out = Vec::new();
        assert_eq!(poller.poll(&mut out, Some(Duration::from_millis(20))), 0);
        // No thread is parked, so this wake sends no datagram: the queued
        // token alone must end the next poll.
        poller.readiness(Token(2)).wake();
        let t0 = Instant::now();
        assert_eq!(poller.poll(&mut out, Some(Duration::from_secs(5))), 1);
        assert_eq!(out, vec![Token(2)]);
        assert!(t0.elapsed() < Duration::from_secs(4));
        // A wake that interrupts a park is delivered too, and the next park
        // still sleeps until its timeout.
        let r = poller.readiness(Token(3));
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            r.wake();
        });
        assert_eq!(poller.poll(&mut out, Some(Duration::from_secs(5))), 1);
        assert_eq!(out, vec![Token(3)]);
        h.join().unwrap();
        assert_eq!(poller.poll(&mut out, Some(Duration::from_millis(20))), 0);
        poller.deregister(Token(1));
        drop(server_conn);
    }
}
