use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::poll::{Readiness, TryRead};
use crate::{NetError, Result, Stream};

/// Shared state for one direction of a duplex pipe.
struct Pipe {
    buf: Mutex<PipeBuf>,
    readable: Condvar,
}

struct PipeBuf {
    data: VecDeque<u8>,
    closed: bool,
    /// Reactor handle to wake whenever data or EOF arrives. Wakes are
    /// edge-triggered: registered consumers drain via `try_read` until
    /// `WouldBlock` on every wake. Blocking `read`ers coexist through the
    /// condvar path.
    watcher: Option<Readiness>,
}

impl PipeBuf {
    /// Moves up to `out.len()` buffered bytes into `out`: the one copy every
    /// blocking and non-blocking read goes through. The deque's two halves
    /// are copied as slices, then the consumed range is dropped from the
    /// front.
    fn take(&mut self, out: &mut [u8]) -> TryRead {
        if self.data.is_empty() {
            return if self.closed {
                TryRead::Eof
            } else {
                TryRead::WouldBlock
            };
        }
        let (front, back) = self.data.as_slices();
        let mut filled = 0;
        for half in [front, back] {
            let Some(rest) = out.get_mut(filled..) else {
                break;
            };
            let n = rest.len().min(half.len());
            if let (Some(dst), Some(src)) = (rest.get_mut(..n), half.get(..n)) {
                dst.copy_from_slice(src);
                filled += n;
            }
        }
        self.data.drain(..filled);
        TryRead::Data(filled)
    }
}

impl Pipe {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            buf: Mutex::new(PipeBuf {
                data: VecDeque::new(),
                closed: false,
                watcher: None,
            }),
            readable: Condvar::new(),
        })
    }

    fn write(&self, bytes: &[u8]) -> Result<()> {
        let mut guard = self.buf.lock();
        if guard.closed {
            return Err(NetError::Closed);
        }
        // Nothing new to read: a wake would only make the reader re-park.
        if bytes.is_empty() {
            return Ok(());
        }
        let was_empty = guard.data.is_empty();
        guard.data.extend(bytes);
        // Wake only on the empty→non-empty transition: consumers (blocking
        // readers and registered watchers alike) only park after observing
        // an empty buffer under this lock, so leftover data means the wake
        // that announced it is still pending — a pipelined burst of writes
        // pays one wake, not one per frame.
        if !was_empty {
            return Ok(());
        }
        let watcher = guard.watcher.clone();
        drop(guard);
        // A pipe direction has exactly one logical consumer (the peer's
        // reader); waking one waiter suffices and skips the thundering herd
        // a `try_clone`'d endpoint would otherwise pay per write. `close`
        // still notifies all: every waiter must observe EOF.
        self.readable.notify_one();
        if let Some(w) = watcher {
            w.wake();
        }
        Ok(())
    }

    fn read(&self, out: &mut [u8], timeout: Option<Duration>) -> Result<usize> {
        // One deadline per read: a wake that brings no data must not re-arm
        // the full timeout. A timeout too large to add is no deadline.
        let deadline = timeout.and_then(|t| Instant::now().checked_add(t));
        let mut guard = self.buf.lock();
        loop {
            match guard.take(out) {
                TryRead::Data(n) => return Ok(n),
                TryRead::Eof => return Ok(0),
                TryRead::WouldBlock => {}
            }
            match deadline {
                Some(at) => {
                    let left = at.saturating_duration_since(Instant::now());
                    if self.readable.wait_for(&mut guard, left).timed_out()
                        && guard.data.is_empty()
                        && !guard.closed
                    {
                        return Err(NetError::TimedOut);
                    }
                }
                None => self.readable.wait(&mut guard),
            }
        }
    }

    fn close(&self) {
        let mut guard = self.buf.lock();
        guard.closed = true;
        let watcher = guard.watcher.clone();
        drop(guard);
        self.readable.notify_all();
        if let Some(w) = watcher {
            w.wake();
        }
    }
}

/// One end of an in-memory duplex byte stream.
///
/// Created in pairs by [`duplex_pair`]; data written to one end is readable
/// from the other. This is the connection type used by [`crate::SimNet`].
pub struct DuplexStream {
    rx: Arc<Pipe>,
    tx: Arc<Pipe>,
    peer: String,
    read_timeout: Option<Duration>,
    bytes_tx: Arc<AtomicU64>,
    close_on_drop: bool,
}

impl std::fmt::Debug for DuplexStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DuplexStream")
            .field("peer", &self.peer)
            .finish()
    }
}

/// Creates a connected pair of in-memory streams.
///
/// `a_name` and `b_name` label the two endpoints: the first returned stream
/// reports `b_name` as its peer and vice versa.
///
/// # Examples
///
/// ```
/// use rddr_net::{duplex_pair, Stream};
///
/// let (mut client, mut server) = duplex_pair("client", "server");
/// client.write_all(b"ping").unwrap();
/// let mut buf = [0u8; 4];
/// server.read_exact(&mut buf).unwrap();
/// assert_eq!(&buf, b"ping");
/// assert_eq!(client.peer(), "server");
/// ```
pub fn duplex_pair(a_name: &str, b_name: &str) -> (DuplexStream, DuplexStream) {
    duplex_pair_counted(
        a_name,
        b_name,
        Arc::new(AtomicU64::new(0)),
        Arc::new(AtomicU64::new(0)),
    )
}

/// Like [`duplex_pair`] but accounting traffic into shared byte counters
/// (used by [`crate::SimNet`] for its [`crate::NetStats`]).
pub(crate) fn duplex_pair_counted(
    a_name: &str,
    b_name: &str,
    a_to_b: Arc<AtomicU64>,
    b_to_a: Arc<AtomicU64>,
) -> (DuplexStream, DuplexStream) {
    let ab = Pipe::new();
    let ba = Pipe::new();
    let a = DuplexStream {
        rx: Arc::clone(&ba),
        tx: Arc::clone(&ab),
        peer: b_name.to_string(),
        read_timeout: None,
        bytes_tx: Arc::clone(&a_to_b),
        close_on_drop: true,
    };
    let b = DuplexStream {
        rx: ab,
        tx: ba,
        peer: a_name.to_string(),
        read_timeout: None,
        bytes_tx: b_to_a,
        close_on_drop: true,
    };
    (a, b)
}

impl Stream for DuplexStream {
    fn read(&mut self, buf: &mut [u8]) -> Result<usize> {
        self.rx.read(buf, self.read_timeout)
    }

    fn write_all(&mut self, buf: &[u8]) -> Result<()> {
        self.tx.write(buf)?;
        self.bytes_tx.fetch_add(buf.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    fn shutdown(&mut self) {
        self.tx.close();
        self.rx.close();
    }

    fn set_read_timeout(&mut self, timeout: Option<Duration>) {
        self.read_timeout = timeout;
    }

    fn peer(&self) -> String {
        self.peer.clone()
    }

    fn try_clone(&self) -> Result<crate::BoxStream> {
        Ok(Box::new(DuplexStream {
            rx: Arc::clone(&self.rx),
            tx: Arc::clone(&self.tx),
            peer: self.peer.clone(),
            read_timeout: self.read_timeout,
            bytes_tx: Arc::clone(&self.bytes_tx),
            close_on_drop: false,
        }))
    }

    fn poll_register(&mut self, readiness: Readiness) -> bool {
        let mut guard = self.rx.buf.lock();
        let ready_now = !guard.data.is_empty() || guard.closed;
        guard.watcher = Some(readiness.clone());
        drop(guard);
        if ready_now {
            readiness.wake();
        }
        true
    }

    fn try_read(&mut self, buf: &mut [u8]) -> Result<TryRead> {
        Ok(self.rx.buf.lock().take(buf))
    }
}

impl Drop for DuplexStream {
    fn drop(&mut self) {
        if self.close_on_drop {
            self.tx.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poll::{Poller, Token};
    use proptest::prelude::*;

    #[test]
    fn round_trip_both_directions() {
        let (mut a, mut b) = duplex_pair("a", "b");
        a.write_all(b"to-b").unwrap();
        b.write_all(b"to-a").unwrap();
        let mut buf = [0u8; 4];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"to-b");
        a.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"to-a");
    }

    #[test]
    fn drop_signals_eof_to_peer() {
        let (a, mut b) = duplex_pair("a", "b");
        drop(a);
        let mut buf = [0u8; 1];
        assert_eq!(b.read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn read_after_shutdown_drains_then_eof() {
        let (mut a, mut b) = duplex_pair("a", "b");
        a.write_all(b"xy").unwrap();
        a.shutdown();
        let mut buf = [0u8; 2];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"xy");
        assert_eq!(b.read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn read_timeout_fires() {
        let (_a, mut b) = duplex_pair("a", "b");
        b.set_read_timeout(Some(Duration::from_millis(10)));
        let mut buf = [0u8; 1];
        assert!(matches!(b.read(&mut buf), Err(NetError::TimedOut)));
    }

    #[test]
    fn write_to_closed_peer_fails() {
        let (mut a, mut b) = duplex_pair("a", "b");
        b.shutdown();
        assert!(matches!(a.write_all(b"x"), Err(NetError::Closed)));
    }

    #[test]
    fn large_transfer_is_intact() {
        let (mut a, mut b) = duplex_pair("a", "b");
        let payload: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let expected = payload.clone();
        let writer = std::thread::spawn(move || {
            for chunk in payload.chunks(4096) {
                a.write_all(chunk).unwrap();
            }
        });
        let mut got = vec![0u8; expected.len()];
        b.read_exact(&mut got).unwrap();
        writer.join().unwrap();
        assert_eq!(got, expected);
    }

    #[test]
    fn write_wakes_reader_blocked_under_read_timeout() {
        // Pins the notify_one wakeup: a reader parked in the timed wait path
        // must be woken by a write long before its timeout expires, not
        // discover the data only when `wait_for` times out.
        let (mut a, mut b) = duplex_pair("a", "b");
        b.set_read_timeout(Some(Duration::from_secs(5)));
        let reader = std::thread::spawn(move || {
            let t0 = std::time::Instant::now();
            let mut buf = [0u8; 2];
            b.read_exact(&mut buf).unwrap();
            (buf, t0.elapsed())
        });
        std::thread::sleep(Duration::from_millis(20));
        a.write_all(b"hi").unwrap();
        let (buf, elapsed) = reader.join().unwrap();
        assert_eq!(&buf, b"hi");
        assert!(
            elapsed < Duration::from_secs(4),
            "reader should wake on write, not on timeout (took {elapsed:?})"
        );
    }

    #[test]
    fn concurrent_reader_wakes_on_write() {
        let (mut a, mut b) = duplex_pair("a", "b");
        let reader = std::thread::spawn(move || {
            let mut buf = [0u8; 3];
            b.read_exact(&mut buf).unwrap();
            buf
        });
        std::thread::sleep(Duration::from_millis(20));
        a.write_all(b"abc").unwrap();
        assert_eq!(&reader.join().unwrap(), b"abc");
    }

    #[test]
    fn empty_writes_do_not_extend_the_read_deadline() {
        // An empty write must not wake the reader, and a wake must not re-arm
        // the reader's timeout: with both, this 50 ms read would block for
        // as long as the writes go on (600 ms).
        let (mut a, mut b) = duplex_pair("a", "b");
        b.set_read_timeout(Some(Duration::from_millis(50)));
        let writer = std::thread::spawn(move || {
            for _ in 0..60 {
                a.write_all(b"").unwrap();
                std::thread::sleep(Duration::from_millis(10));
            }
            a
        });
        let t0 = Instant::now();
        let mut buf = [0u8; 1];
        let got = b.read(&mut buf);
        let elapsed = t0.elapsed();
        drop(writer.join().unwrap());
        assert!(matches!(got, Err(NetError::TimedOut)), "{got:?}");
        assert!(
            elapsed < Duration::from_millis(200),
            "read outlived its deadline: {elapsed:?}"
        );
    }

    #[test]
    fn empty_write_wakes_no_watcher() {
        let poller = Poller::new();
        let (mut a, mut b) = duplex_pair("a", "b");
        assert!(b.poll_register(poller.readiness(Token(1))));
        a.write_all(b"").unwrap();
        let mut out = Vec::new();
        assert_eq!(poller.poll(&mut out, Some(Duration::from_millis(30))), 0);
        assert_eq!(b.try_read(&mut [0u8; 4]).unwrap(), TryRead::WouldBlock);
        a.write_all(b"x").unwrap();
        assert_eq!(poller.poll(&mut out, Some(Duration::from_secs(2))), 1);
    }

    #[test]
    fn reads_copy_across_the_ring_wrap() {
        let (mut a, mut b) = duplex_pair("a", "b");
        let payload: Vec<u8> = (0..=255u8).cycle().take(100).collect();
        a.write_all(payload.get(..64).unwrap()).unwrap();
        let mut buf = [0u8; 100];
        assert_eq!(b.read(&mut buf[..40]).unwrap(), 40);
        a.write_all(payload.get(64..).unwrap()).unwrap();
        // The head sits mid-buffer, so the 60 bytes left span both halves.
        let halves = {
            let guard = b.rx.buf.lock();
            let (front, back) = guard.data.as_slices();
            (front.len(), back.len())
        };
        assert!(
            halves.0 > 0 && halves.1 > 0,
            "ring did not wrap: {halves:?}"
        );
        assert_eq!(b.try_read(&mut buf[40..]).unwrap(), TryRead::Data(60));
        assert_eq!(&buf[..], &payload[..]);
    }

    /// What a pipe read returned, in the model's terms.
    #[derive(Debug, PartialEq)]
    enum Got {
        Data(Vec<u8>),
        Eof,
        WouldBlock,
    }

    proptest! {
        /// Any interleaving of writes (0–300 bytes), blocking reads and
        /// non-blocking reads (1–97-byte buffers), with the writer closing
        /// at a random step, hands the reader exactly the bytes written, in
        /// order; `Eof` comes only after the close, once the buffer is
        /// drained, and stays.
        #[test]
        fn pipe_delivers_every_byte_in_order(
            ops in proptest::collection::vec((0u8..4, 0usize..301, 1usize..98), 1..150),
            close_at in 0usize..200,
        ) {
            let (mut a, mut b) = duplex_pair("a", "b");
            let mut next = 0u8;
            let mut written: Vec<u8> = Vec::new();
            let mut read: Vec<u8> = Vec::new();
            let mut closed = false;
            // Leave the deque's head mid-buffer so later writes wrap it.
            let prime: Vec<u8> = (0..64).map(|_| { next = next.wrapping_add(7); next }).collect();
            a.write_all(&prime).unwrap();
            written.extend_from_slice(&prime);
            let mut buf = [0u8; 97];
            prop_assert_eq!(b.read(&mut buf[..40]).unwrap(), 40);
            read.extend_from_slice(&buf[..40]);
            let steps = ops.len() + 8;
            for step in 0..steps {
                if step == close_at {
                    a.shutdown();
                    closed = true;
                }
                // Past the generated ops, keep reading until drained.
                let (kind, w, r) = ops.get(step).copied().unwrap_or((3, 0, 97));
                let buffered = written.len() - read.len();
                match kind {
                    0 | 1 => {
                        let bytes: Vec<u8> =
                            (0..w).map(|_| { next = next.wrapping_add(7); next }).collect();
                        let result = a.write_all(&bytes);
                        if closed {
                            prop_assert!(matches!(result, Err(NetError::Closed)), "{result:?}");
                        } else {
                            prop_assert!(result.is_ok(), "{result:?}");
                            written.extend_from_slice(&bytes);
                        }
                    }
                    _ => {
                        // A blocking read only where it cannot park forever.
                        let got = if kind == 2 && (buffered > 0 || closed) {
                            match b.read(&mut buf[..r]).unwrap() {
                                0 => Got::Eof,
                                n => Got::Data(buf[..n].to_vec()),
                            }
                        } else {
                            match b.try_read(&mut buf[..r]).unwrap() {
                                TryRead::Data(n) => Got::Data(buf[..n].to_vec()),
                                TryRead::Eof => Got::Eof,
                                TryRead::WouldBlock => Got::WouldBlock,
                            }
                        };
                        let expected = if buffered > 0 {
                            let n = r.min(buffered);
                            Got::Data(written[read.len()..read.len() + n].to_vec())
                        } else if closed {
                            Got::Eof
                        } else {
                            Got::WouldBlock
                        };
                        prop_assert_eq!(&got, &expected, "step {}", step);
                        if let Got::Data(bytes) = got {
                            read.extend_from_slice(&bytes);
                        }
                    }
                }
            }
            if !closed {
                a.shutdown();
            }
            while let TryRead::Data(n) = b.try_read(&mut buf).unwrap() {
                read.extend_from_slice(&buf[..n]);
            }
            prop_assert_eq!(&read, &written);
            prop_assert_eq!(b.try_read(&mut buf).unwrap(), TryRead::Eof);
            prop_assert_eq!(b.read(&mut buf).unwrap(), 0);
        }
    }
}
