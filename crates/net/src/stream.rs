use std::time::Duration;

use crate::poll::{Readiness, TryRead};
use crate::{NetError, Result, ServiceAddr};

/// A bidirectional, blocking byte stream — the socket abstraction both RDDR
/// proxies are written against.
///
/// Implementations must be [`Send`]: a proxy hands each accepted connection
/// to the reactor worker that runs its session, and instances and clients
/// serve theirs from threads of their own.
pub trait Stream: Send {
    /// Reads up to `buf.len()` bytes, blocking until at least one byte is
    /// available, EOF, or the configured read deadline expires.
    ///
    /// Returns `Ok(0)` on a clean EOF.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::TimedOut`] if a read deadline was set and expired.
    fn read(&mut self, buf: &mut [u8]) -> Result<usize>;

    /// Writes the entire buffer.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Closed`] if the peer has hung up.
    fn write_all(&mut self, buf: &[u8]) -> Result<()>;

    /// Shuts the stream down in both directions. Subsequent peer reads see EOF.
    fn shutdown(&mut self);

    /// Sets (or clears) the deadline applied to each subsequent [`read`](Stream::read).
    fn set_read_timeout(&mut self, timeout: Option<Duration>);

    /// A human-readable description of the remote endpoint, for diagnostics.
    fn peer(&self) -> String;

    /// Creates a second handle to the same connection, so one thread can
    /// read while another writes, or so a second owner can shut it down
    /// (a container that severs its live connections on `kill`).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] if the transport cannot be cloned (e.g. a
    /// stateful secure channel).
    fn try_clone(&self) -> Result<BoxStream> {
        Err(NetError::Io(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "stream does not support cloning",
        )))
    }

    /// Registers this stream with a reactor: subsequent readable bytes, EOF,
    /// or errors must wake `readiness`. Returns `false` if the transport
    /// cannot deliver readiness natively; a reactor then treats the stream
    /// as dead.
    ///
    /// After a successful registration the owner reads exclusively through
    /// [`try_read`](Stream::try_read), draining to
    /// [`TryRead::WouldBlock`] on every wake — wakes may be edge-triggered.
    fn poll_register(&mut self, readiness: Readiness) -> bool {
        let _ = readiness;
        false
    }

    /// Non-blocking read: returns immediately with data, EOF, or
    /// [`TryRead::WouldBlock`].
    ///
    /// Only meaningful after [`poll_register`](Stream::poll_register)
    /// returned `true` (or on transports that are intrinsically
    /// non-blocking).
    ///
    /// # Errors
    ///
    /// Returns the same errors as [`read`](Stream::read); an unsupported
    /// transport reports [`NetError::Io`] with `ErrorKind::Unsupported`.
    fn try_read(&mut self, buf: &mut [u8]) -> Result<TryRead> {
        let _ = buf;
        Err(NetError::Io(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "stream does not support non-blocking reads",
        )))
    }

    /// Reads exactly `buf.len()` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Closed`] if EOF arrives first.
    fn read_exact(&mut self, buf: &mut [u8]) -> Result<()> {
        let mut filled = 0;
        while filled < buf.len() {
            let Some(rest) = buf.get_mut(filled..) else {
                return Err(NetError::Closed);
            };
            let n = self.read(rest)?;
            if n == 0 {
                return Err(NetError::Closed);
            }
            filled += n;
        }
        Ok(())
    }
}

/// An owned, type-erased [`Stream`].
pub type BoxStream = Box<dyn Stream>;

/// Accepts inbound connections on one bound address.
pub trait Listener: Send {
    /// Blocks until a client connects.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Closed`] once the owning network shuts down.
    fn accept(&mut self) -> Result<BoxStream>;

    /// The address this listener is bound to.
    fn local_addr(&self) -> ServiceAddr;
}

/// An owned, type-erased [`Listener`].
pub type BoxListener = Box<dyn Listener>;

/// A network fabric: something that can bind listeners and dial peers.
///
/// Both [`crate::SimNet`] and [`crate::TcpNet`] implement this, so every
/// deployment in the evaluation can run in-memory or over real sockets
/// unchanged.
pub trait Network: Send + Sync {
    /// Binds a listener on `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::AddressInUse`] if the address is taken.
    fn listen(&self, addr: &ServiceAddr) -> Result<BoxListener>;

    /// Opens a connection to `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::ConnectionRefused`] if nothing is listening.
    fn dial(&self, addr: &ServiceAddr) -> Result<BoxStream>;

    /// Releases the listener bound at `addr`, unblocking its `accept` loop.
    ///
    /// Fabrics with out-of-band teardown (plain TCP) may leave this a no-op;
    /// [`crate::SimNet`] implements it so proxies and containers can stop
    /// cleanly.
    fn unbind_addr(&self, addr: &ServiceAddr) {
        let _ = addr;
    }
}

impl Stream for Box<dyn Stream> {
    fn read(&mut self, buf: &mut [u8]) -> Result<usize> {
        (**self).read(buf)
    }
    fn write_all(&mut self, buf: &[u8]) -> Result<()> {
        (**self).write_all(buf)
    }
    fn shutdown(&mut self) {
        (**self).shutdown()
    }
    fn set_read_timeout(&mut self, timeout: Option<Duration>) {
        (**self).set_read_timeout(timeout)
    }
    fn peer(&self) -> String {
        (**self).peer()
    }
    fn try_clone(&self) -> Result<BoxStream> {
        (**self).try_clone()
    }
    fn poll_register(&mut self, readiness: Readiness) -> bool {
        (**self).poll_register(readiness)
    }
    fn try_read(&mut self, buf: &mut [u8]) -> Result<TryRead> {
        (**self).try_read(buf)
    }
}
