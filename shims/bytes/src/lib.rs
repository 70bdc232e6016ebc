//! Offline stand-in for the `bytes` crate.
//!
//! The container this workspace builds in has no access to crates.io, so the
//! workspace patches `bytes` to this in-tree implementation. Only the subset
//! actually used by the RDDR crates is provided: a growable byte buffer with
//! cheap-enough front splitting (`split_to`), slice deref, and `From<&[u8]>`.
//!
//! The real crate amortizes `split_to` with reference-counted views; here a
//! plain `Vec<u8>` plus a read cursor gives the same O(1) amortized front
//! split without any unsafe code.

use std::fmt;

/// A mutable, growable byte buffer, API-compatible (for the used subset)
/// with `bytes::BytesMut`.
#[derive(Default, Clone)]
pub struct BytesMut {
    data: Vec<u8>,
    /// Bytes before `head` have been split off and are logically gone.
    head: usize,
}

impl PartialEq for BytesMut {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for BytesMut {}

impl BytesMut {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        BytesMut {
            data: Vec::new(),
            head: 0,
        }
    }

    /// Creates an empty buffer with at least `capacity` bytes preallocated.
    pub fn with_capacity(capacity: usize) -> Self {
        BytesMut {
            data: Vec::with_capacity(capacity),
            head: 0,
        }
    }

    /// Number of readable bytes.
    pub fn len(&self) -> usize {
        self.data.len() - self.head
    }

    /// Whether no bytes are readable.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends `extend` to the buffer.
    pub fn extend_from_slice(&mut self, extend: &[u8]) {
        self.compact_if_large();
        self.data.extend_from_slice(extend);
    }

    /// Removes and returns the first `at` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `at > self.len()`.
    pub fn split_to(&mut self, at: usize) -> BytesMut {
        assert!(
            at <= self.len(),
            "split_to out of bounds: {at} > {}",
            self.len()
        );
        let front = self.data[self.head..self.head + at].to_vec();
        self.head += at;
        self.compact_if_large();
        BytesMut {
            data: front,
            head: 0,
        }
    }

    /// Removes all bytes, keeping allocated capacity.
    pub fn clear(&mut self) {
        self.data.clear();
        self.head = 0;
    }

    /// Copies the readable bytes into a fresh `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// Consumes the buffer, returning its readable bytes.
    pub fn freeze(self) -> Vec<u8> {
        if self.head == 0 {
            self.data
        } else {
            self.data[self.head..].to_vec()
        }
    }

    fn as_slice(&self) -> &[u8] {
        &self.data[self.head..]
    }

    /// Drops the dead prefix once nothing but it is left (free: the usual
    /// state between two messages) or once it dominates the allocation,
    /// keeping `split_to` O(1) amortized.
    fn compact_if_large(&mut self) {
        if self.head == self.data.len() {
            self.data.clear();
            self.head = 0;
        } else if self.head > 4096 && self.head * 2 > self.data.len() {
            self.data.drain(..self.head);
            self.head = 0;
        }
    }
}

impl std::ops::Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::ops::DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        let head = self.head;
        &mut self.data[head..]
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<&[u8]> for BytesMut {
    fn from(bytes: &[u8]) -> Self {
        BytesMut {
            data: bytes.to_vec(),
            head: 0,
        }
    }
}

impl From<Vec<u8>> for BytesMut {
    fn from(data: Vec<u8>) -> Self {
        BytesMut { data, head: 0 }
    }
}

impl Extend<u8> for BytesMut {
    fn extend<T: IntoIterator<Item = u8>>(&mut self, iter: T) {
        self.data.extend(iter);
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_to_removes_prefix() {
        let mut b = BytesMut::from(&b"hello world"[..]);
        let front = b.split_to(6);
        assert_eq!(&front[..], b"hello ");
        assert_eq!(&b[..], b"world");
        assert_eq!(b.len(), 5);
    }

    #[test]
    fn extend_after_split_sees_only_tail() {
        let mut b = BytesMut::new();
        b.extend_from_slice(b"abcdef");
        b.split_to(3);
        b.extend_from_slice(b"gh");
        assert_eq!(&b[..], b"defgh");
        assert_eq!(b.to_vec(), b"defgh");
    }

    #[test]
    fn compaction_keeps_contents() {
        let mut b = BytesMut::new();
        b.extend_from_slice(&vec![7u8; 10_000]);
        b.split_to(9_000);
        b.extend_from_slice(b"xyz");
        assert_eq!(b.len(), 1_003);
        assert_eq!(&b[1_000..], b"xyz");
    }

    #[test]
    fn a_fully_consumed_buffer_reuses_its_allocation() {
        let mut b = BytesMut::new();
        b.extend_from_slice(&[1u8; 100]);
        let capacity = b.data.capacity();
        for _ in 0..1_000 {
            b.split_to(100);
            b.extend_from_slice(&[2u8; 100]);
        }
        assert_eq!(b.data.capacity(), capacity);
        assert_eq!(&b[..], &[2u8; 100][..]);
    }

    #[test]
    fn equality_ignores_split_history() {
        let mut a = BytesMut::from(&b"xyz"[..]);
        a.extend_from_slice(b"tail");
        a.split_to(3);
        let fresh = BytesMut::from(&b"tail"[..]);
        assert_eq!(a.to_vec(), fresh.to_vec());
    }
}
