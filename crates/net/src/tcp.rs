use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::time::Duration;

use crate::poll::{Readiness, TryRead};
use crate::{BoxListener, BoxStream, Listener, NetError, Network, Result, ServiceAddr, Stream};

/// Accept-queue depth asked of every listener. std binds with 128, so a
/// burst of dials past it stalls each extra one for a SYN retransmit; the
/// kernel clamps this request to `net.core.somaxconn`.
#[cfg(unix)]
const LISTEN_BACKLOG: i32 = 4096;

#[cfg(unix)]
extern "C" {
    #[link_name = "listen"]
    fn sys_listen(fd: i32, backlog: i32) -> i32;
}

/// A [`Network`] backed by the operating system's TCP stack.
///
/// Deployments written against [`Network`] run unchanged over real sockets;
/// this is the backend a production RDDR deployment would use (one proxy
/// container per protected service, as in the paper's Kubernetes setup).
///
/// # Examples
///
/// ```
/// use rddr_net::{Network, TcpNet, ServiceAddr};
///
/// # fn main() -> Result<(), rddr_net::NetError> {
/// let net = TcpNet::new();
/// let mut listener = net.listen(&ServiceAddr::new("127.0.0.1", 0))?;
/// let bound = listener.local_addr();
/// let handle = std::thread::spawn(move || {
///     let mut conn = listener.accept().unwrap();
///     let mut buf = [0u8; 2];
///     conn.read_exact(&mut buf).unwrap();
///     conn.write_all(&buf).unwrap();
/// });
/// let mut client = net.dial(&bound)?;
/// client.write_all(b"ok")?;
/// let mut buf = [0u8; 2];
/// client.read_exact(&mut buf)?;
/// handle.join().unwrap();
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct TcpNet;

impl TcpNet {
    /// Creates the TCP backend.
    pub fn new() -> Self {
        TcpNet
    }
}

struct TcpConn {
    inner: TcpStream,
    peer: String,
    /// Set once the socket has been switched to non-blocking for reactor
    /// use; `write_all` then has to ride out `WouldBlock` itself.
    nonblocking: bool,
}

impl Stream for TcpConn {
    fn read(&mut self, buf: &mut [u8]) -> Result<usize> {
        Ok(self.inner.read(buf)?)
    }

    fn write_all(&mut self, buf: &[u8]) -> Result<()> {
        if !self.nonblocking {
            return Ok(self.inner.write_all(buf)?);
        }
        // Non-blocking socket: a full kernel send buffer surfaces as
        // WouldBlock; park in a one-shot poll(2) until writable. Reactor
        // sessions write merged responses inline, so this bounds the stall
        // to genuine peer backpressure.
        #[cfg(unix)]
        {
            use std::os::unix::io::AsRawFd;
            let mut rest = buf;
            while !rest.is_empty() {
                match self.inner.write(rest) {
                    Ok(0) => return Err(NetError::Closed),
                    Ok(n) => rest = rest.get(n..).unwrap_or(&[]),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        crate::poll::wait_writable(
                            self.inner.as_raw_fd(),
                            Duration::from_secs(30),
                        )?;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e.into()),
                }
            }
            Ok(())
        }
        #[cfg(not(unix))]
        Ok(self.inner.write_all(buf)?)
    }

    fn shutdown(&mut self) {
        let _ = self.inner.shutdown(Shutdown::Both);
    }

    fn set_read_timeout(&mut self, timeout: Option<Duration>) {
        let _ = self.inner.set_read_timeout(timeout);
    }

    fn peer(&self) -> String {
        self.peer.clone()
    }

    fn try_clone(&self) -> Result<crate::BoxStream> {
        let inner = self.inner.try_clone()?;
        Ok(Box::new(TcpConn {
            inner,
            peer: self.peer.clone(),
            nonblocking: self.nonblocking,
        }))
    }

    #[cfg(unix)]
    fn poll_register(&mut self, readiness: Readiness) -> bool {
        use std::os::unix::io::AsRawFd;
        if self.inner.set_nonblocking(true).is_err() {
            return false;
        }
        self.nonblocking = true;
        readiness.register_fd(self.inner.as_raw_fd());
        true
    }

    fn try_read(&mut self, buf: &mut [u8]) -> Result<TryRead> {
        match self.inner.read(buf) {
            Ok(0) => Ok(TryRead::Eof),
            Ok(n) => Ok(TryRead::Data(n)),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::Interrupted =>
            {
                Ok(TryRead::WouldBlock)
            }
            Err(e) => Err(e.into()),
        }
    }
}

struct TcpAcceptor {
    inner: TcpListener,
    addr: ServiceAddr,
}

impl Listener for TcpAcceptor {
    fn accept(&mut self) -> Result<BoxStream> {
        let (stream, peer) = self.inner.accept()?;
        stream.set_nodelay(true).ok();
        Ok(Box::new(TcpConn {
            inner: stream,
            peer: peer.to_string(),
            nonblocking: false,
        }))
    }

    fn local_addr(&self) -> ServiceAddr {
        self.addr.clone()
    }
}

impl Network for TcpNet {
    fn listen(&self, addr: &ServiceAddr) -> Result<BoxListener> {
        let listener = TcpListener::bind((addr.host(), addr.port()))?;
        // Re-issuing listen(2) on a listening socket only resizes its
        // accept queue.
        #[cfg(unix)]
        {
            use std::os::unix::io::AsRawFd;
            // SAFETY: the fd is the live listening socket `listener` owns.
            if unsafe { sys_listen(listener.as_raw_fd(), LISTEN_BACKLOG) } != 0 {
                return Err(std::io::Error::last_os_error().into());
            }
        }
        let local = listener.local_addr()?;
        Ok(Box::new(TcpAcceptor {
            inner: listener,
            addr: ServiceAddr::new(addr.host(), local.port()),
        }))
    }

    fn dial(&self, addr: &ServiceAddr) -> Result<BoxStream> {
        let stream = TcpStream::connect((addr.host(), addr.port()))?;
        stream.set_nodelay(true).ok();
        let peer = addr.to_string();
        Ok(Box::new(TcpConn {
            inner: stream,
            peer,
            nonblocking: false,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_round_trip() {
        let net = TcpNet::new();
        let mut listener = net.listen(&ServiceAddr::new("127.0.0.1", 0)).unwrap();
        let bound = listener.local_addr();
        assert_ne!(bound.port(), 0, "ephemeral port must be resolved");
        let server = std::thread::spawn(move || {
            let mut conn = listener.accept().unwrap();
            let mut buf = [0u8; 5];
            conn.read_exact(&mut buf).unwrap();
            conn.write_all(b"world").unwrap();
        });
        let mut client = net.dial(&bound).unwrap();
        client.write_all(b"hello").unwrap();
        let mut buf = [0u8; 5];
        client.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"world");
        server.join().unwrap();
    }

    /// A burst of dials that nobody accepts yet must all complete: each one
    /// past the listen backlog would stall for a SYN retransmit (about 1 s).
    #[test]
    fn a_burst_of_dials_fits_the_listen_backlog() {
        const DIALS: usize = 256;
        let net = TcpNet::new();
        let mut listener = net.listen(&ServiceAddr::new("127.0.0.1", 0)).unwrap();
        let bound = listener.local_addr();
        let dialer = std::thread::spawn(move || {
            (0..DIALS)
                .map(|_| net.dial(&bound))
                .collect::<Result<Vec<_>>>()
        });
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while !dialer.is_finished() {
            assert!(
                std::time::Instant::now() < deadline,
                "{DIALS} dials did not complete within 2 s without an accept"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        let dialed = dialer.join().unwrap().unwrap();
        for _ in 0..DIALS {
            listener.accept().unwrap();
        }
        assert_eq!(dialed.len(), DIALS);
    }

    #[test]
    fn dial_refused_port_errors() {
        let net = TcpNet::new();
        // Bind then immediately drop to find a very likely free port.
        let l = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let port = l.local_addr().unwrap().port();
        drop(l);
        let err = net.dial(&ServiceAddr::new("127.0.0.1", port));
        assert!(err.is_err());
    }
}
