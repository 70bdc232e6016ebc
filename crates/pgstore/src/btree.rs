//! An in-memory B+Tree mapping primary-key bytes to posting lists: heap
//! tuple locations in the paged engine, row positions in the memory engine.
//!
//! Nodes live in an arena (`Vec<Node>`) and reference each other by index,
//! sidestepping ownership cycles. Duplicate keys append to the existing
//! key's posting list, preserving insertion order — the executor's
//! point-lookup candidate order is the same on both engines.
//!
//! Keys of up to [`INLINE_KEY`] bytes (pgbench's are 6) live inline in
//! their node's key array, packed into three big-endian words with the
//! length in the last byte: a node's binary search reads one contiguous
//! array and compares word triples, with no pointer to chase and no
//! `memcmp` call. Only longer keys point to a heap copy. A unique key's
//! one posting (the primary-key case) is inline too; only a duplicated key
//! gets a list of its own.
//!
//! The tree is built lazily from a heap scan and then maintained by
//! INSERT and by UPDATEs that leave the key alone. It has no removal: a
//! deleted row's entry lingers (as dead index entries do in PostgreSQL
//! until a vacuum) and the engines skip it on lookup, which is sound
//! because a tombstoned slot is never handed out again. Whatever could
//! make a lingering entry lie — a key-changing UPDATE, a rolled-back
//! append, a chain rebuild — drops the whole tree instead.

use std::cmp::Ordering;

/// Where a tuple lives in its table's heap chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TupleId {
    /// Position of the page in the table's chain (not the page's number in
    /// the heap file, so the address means the same after the chain's
    /// pages are reallocated by WAL replay).
    pub page: u64,
    /// Slot within the page.
    pub slot: u16,
}

/// Maximum keys per node before it splits.
const ORDER: usize = 32;

/// Keys up to this many bytes live inline: 22 bytes of key, a zero byte
/// and the length fill three words.
const INLINE_KEY: usize = 22;

/// `key` packed for inline storage: its bytes zero-padded to 23 and then
/// its length, read as three big-endian words. Word triples then order
/// exactly as the keys' bytes do (a key sorts before its extensions, by
/// the length byte). `None` for a key longer than [`INLINE_KEY`].
fn pack(key: &[u8]) -> Option<[u64; 3]> {
    if key.len() > INLINE_KEY {
        return None;
    }
    let mut bytes = [0u8; 24];
    bytes.get_mut(..key.len())?.copy_from_slice(key);
    if let Some(len) = bytes.last_mut() {
        *len = key.len() as u8;
    }
    let mut words = [0u64; 3];
    for (word, chunk) in words.iter_mut().zip(bytes.chunks_exact(8)) {
        *word = u64::from_be_bytes(chunk.try_into().unwrap_or_default());
    }
    Some(words)
}

/// The key bytes [`pack`] packed, passed to `f`.
fn with_unpacked<T>(words: &[u64; 3], f: impl FnOnce(&[u8]) -> T) -> T {
    let mut bytes = [0u8; 24];
    for (chunk, word) in bytes.chunks_exact_mut(8).zip(words) {
        chunk.copy_from_slice(&word.to_be_bytes());
    }
    let len = usize::from(bytes.last().copied().unwrap_or(0));
    f(bytes.get(..len).unwrap_or(&[]))
}

/// One key in a node's key array.
#[derive(Debug, Clone)]
enum Key {
    /// A key of at most [`INLINE_KEY`] bytes, [`pack`]ed.
    Inline([u64; 3]),
    /// A longer key.
    Heap(Box<[u8]>),
}

impl Key {
    fn new(key: &[u8]) -> Key {
        match pack(key) {
            Some(words) => Key::Inline(words),
            None => Key::Heap(key.into()),
        }
    }

    /// This key as a probe, to compare other keys against.
    fn probe(&self) -> Probe<'_> {
        match self {
            Key::Inline(words) => Probe::Packed(*words),
            Key::Heap(bytes) => Probe::Long(bytes),
        }
    }

    /// How this key orders against `probe`, as their bytes do.
    fn cmp(&self, probe: &Probe<'_>) -> Ordering {
        match (self, probe) {
            (Key::Inline(a), Probe::Packed(b)) => a.cmp(b),
            (Key::Inline(a), Probe::Long(b)) => with_unpacked(a, |a| a.cmp(b)),
            (Key::Heap(a), Probe::Packed(b)) => with_unpacked(b, |b| (**a).cmp(b)),
            (Key::Heap(a), Probe::Long(b)) => (**a).cmp(b),
        }
    }
}

/// A key being searched for, packed once per search when short.
enum Probe<'k> {
    Packed([u64; 3]),
    Long(&'k [u8]),
}

impl<'k> Probe<'k> {
    fn new(key: &'k [u8]) -> Probe<'k> {
        match pack(key) {
            Some(words) => Probe::Packed(words),
            None => Probe::Long(key),
        }
    }
}

/// A key's posting list: the one value a unique key has, inline, or the
/// values of a duplicated key in insertion order.
#[derive(Debug)]
enum Postings<V> {
    One(V),
    Many(Vec<V>),
}

impl<V: Copy> Postings<V> {
    fn as_slice(&self) -> &[V] {
        match self {
            Postings::One(value) => std::slice::from_ref(value),
            Postings::Many(values) => values,
        }
    }

    fn push(&mut self, value: V) {
        match self {
            Postings::One(first) => *self = Postings::Many(vec![*first, value]),
            Postings::Many(values) => values.push(value),
        }
    }
}

#[derive(Debug)]
enum Node<V> {
    Leaf {
        keys: Vec<Key>,
        postings: Vec<Postings<V>>,
    },
    Internal {
        /// `keys[i]` is the smallest key reachable via `children[i + 1]`.
        keys: Vec<Key>,
        children: Vec<usize>,
    },
}

/// A B+Tree from key bytes to posting lists of `V`s ([`TupleId`]s unless
/// said otherwise).
#[derive(Debug)]
pub struct BTree<V = TupleId> {
    arena: Vec<Node<V>>,
    root: usize,
    keys: u64,
    entries: u64,
}

impl<V: Copy> Default for BTree<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Copy> BTree<V> {
    /// An empty tree.
    #[must_use]
    pub fn new() -> Self {
        Self {
            arena: vec![Node::Leaf {
                keys: Vec::new(),
                postings: Vec::new(),
            }],
            root: 0,
            keys: 0,
            entries: 0,
        }
    }

    /// Number of distinct keys.
    #[must_use]
    pub fn key_count(&self) -> u64 {
        self.keys
    }

    /// Number of (key, value) entries, duplicates included.
    #[must_use]
    pub fn entry_count(&self) -> u64 {
        self.entries
    }

    /// Height of the tree (1 = a lone leaf).
    #[must_use]
    pub fn height(&self) -> usize {
        let mut h = 1;
        let mut at = self.root;
        while let Some(Node::Internal { children, .. }) = self.arena.get(at) {
            h += 1;
            match children.first() {
                Some(&c) => at = c,
                None => break,
            }
        }
        h
    }

    /// The posting list for `key`, in insertion order (empty if absent).
    #[must_use]
    pub fn get(&self, key: &[u8]) -> &[V] {
        let probe = Probe::new(key);
        let mut at = self.root;
        loop {
            match self.arena.get(at) {
                Some(Node::Internal { keys, children }) => {
                    let idx = keys.partition_point(|k| k.cmp(&probe) != Ordering::Greater);
                    match children.get(idx) {
                        Some(&c) => at = c,
                        None => return &[],
                    }
                }
                Some(Node::Leaf { keys, postings }) => {
                    return match keys.binary_search_by(|k| k.cmp(&probe)) {
                        Ok(i) => postings.get(i).map_or(&[], Postings::as_slice),
                        Err(_) => &[],
                    };
                }
                None => return &[],
            }
        }
    }

    /// Inserts `(key, value)`; duplicates append to the posting list.
    pub fn insert(&mut self, key: &[u8], value: V) {
        self.entries += 1;
        if let Some((mid_key, right)) = self.insert_at(self.root, &Probe::new(key), key, value) {
            // Root split: grow the tree by one level.
            let new_root = self.arena.len();
            self.arena.push(Node::Internal {
                keys: vec![mid_key],
                children: vec![self.root, right],
            });
            self.root = new_root;
        }
    }

    /// Recursive insert; returns `Some((separator, new_node))` when the
    /// child at `at` split.
    fn insert_at(
        &mut self,
        at: usize,
        probe: &Probe<'_>,
        key: &[u8],
        value: V,
    ) -> Option<(Key, usize)> {
        let child = match self.arena.get(at) {
            Some(Node::Internal { keys, children }) => {
                let idx = keys.partition_point(|k| k.cmp(probe) != Ordering::Greater);
                children.get(idx).copied()
            }
            _ => None,
        };
        if let Some(child) = child {
            let (mid_key, right) = self.insert_at(child, probe, key, value)?;
            if let Some(Node::Internal { keys, children }) = self.arena.get_mut(at) {
                let mid = mid_key.probe();
                let idx = keys.partition_point(|k| k.cmp(&mid) != Ordering::Greater);
                keys.insert(idx, mid_key);
                children.insert(idx + 1, right);
                if keys.len() > ORDER {
                    return Some(self.split_internal(at));
                }
            }
            return None;
        }
        // Leaf.
        if let Some(Node::Leaf { keys, postings }) = self.arena.get_mut(at) {
            match keys.binary_search_by(|k| k.cmp(probe)) {
                Ok(i) => {
                    if let Some(list) = postings.get_mut(i) {
                        list.push(value);
                    }
                }
                Err(i) => {
                    keys.insert(i, Key::new(key));
                    postings.insert(i, Postings::One(value));
                    self.keys += 1;
                }
            }
            if keys.len() > ORDER {
                return Some(self.split_leaf(at));
            }
        }
        None
    }

    fn split_leaf(&mut self, at: usize) -> (Key, usize) {
        let (mid_key, right_keys, right_postings) = match self.arena.get_mut(at) {
            Some(Node::Leaf { keys, postings }) => {
                let mid = keys.len() / 2;
                let right_keys: Vec<_> = keys.drain(mid..).collect();
                let right_postings: Vec<_> = postings.drain(mid..).collect();
                let mid_key = right_keys
                    .first()
                    .cloned()
                    .unwrap_or(Key::Heap(Box::new([])));
                (mid_key, right_keys, right_postings)
            }
            _ => (Key::Heap(Box::new([])), Vec::new(), Vec::new()),
        };
        let right = self.arena.len();
        self.arena.push(Node::Leaf {
            keys: right_keys,
            postings: right_postings,
        });
        (mid_key, right)
    }

    fn split_internal(&mut self, at: usize) -> (Key, usize) {
        let (mid_key, right_keys, right_children) = match self.arena.get_mut(at) {
            Some(Node::Internal { keys, children }) => {
                let mid = keys.len() / 2;
                let mut right_keys: Vec<_> = keys.drain(mid..).collect();
                let right_children: Vec<_> = children.drain(mid + 1..).collect();
                // The separator moves up rather than staying in either half.
                let mid_key = if right_keys.is_empty() {
                    Key::Heap(Box::new([]))
                } else {
                    right_keys.remove(0)
                };
                (mid_key, right_keys, right_children)
            }
            _ => (Key::Heap(Box::new([])), Vec::new(), Vec::new()),
        };
        let right = self.arena.len();
        self.arena.push(Node::Internal {
            keys: right_keys,
            children: right_children,
        });
        (mid_key, right)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tid(n: u64) -> TupleId {
        TupleId {
            page: n / 16,
            slot: (n % 16) as u16,
        }
    }

    #[test]
    fn packed_keys_order_as_their_bytes() {
        assert!(matches!(Key::new(&[7; INLINE_KEY]), Key::Inline(_)));
        assert!(matches!(Key::new(&[7; INLINE_KEY + 1]), Key::Heap(_)));
        let keys: [&[u8]; 9] = [
            b"",
            b"\0",
            b"\0\0",
            b"a",
            b"a\0",
            b"ab",
            b"i7001",
            &[0xff; INLINE_KEY],
            &[0xff; INLINE_KEY + 1],
        ];
        for a in keys {
            if let Some(words) = pack(a) {
                with_unpacked(&words, |bytes| assert_eq!(bytes, a));
            }
            for b in keys {
                let probe = Probe::new(b);
                assert_eq!(Key::new(a).cmp(&probe), a.cmp(b), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn get_on_empty_is_empty() {
        let t: BTree = BTree::new();
        assert!(t.get(b"anything").is_empty());
    }

    #[test]
    fn duplicates_preserve_insertion_order() {
        let mut t = BTree::new();
        t.insert(b"k", tid(3));
        t.insert(b"k", tid(1));
        t.insert(b"k", tid(2));
        assert_eq!(t.get(b"k"), &[tid(3), tid(1), tid(2)]);
        assert_eq!(t.key_count(), 1);
        assert_eq!(t.entry_count(), 3);
    }

    #[test]
    fn many_keys_split_and_stay_findable() {
        let mut t = BTree::new();
        let n = 4_000u64;
        // Insert in a scrambled but deterministic order.
        for i in 0..n {
            let k = (i.wrapping_mul(2_654_435_761)) % n;
            t.insert(format!("key-{k:08}").as_bytes(), tid(k));
        }
        assert!(t.height() > 2, "tree split into multiple levels");
        for k in 0..n {
            let got = t.get(format!("key-{k:08}").as_bytes());
            assert!(got.contains(&tid(k)), "key-{k:08} lost after splits");
        }
        assert!(t.get(b"key-99999999").is_empty());
    }

    #[test]
    fn sequential_and_reverse_insertion_agree() {
        let build = |order: &[u64]| {
            let mut t = BTree::new();
            for &k in order {
                t.insert(&k.to_be_bytes(), tid(k));
            }
            t
        };
        let fwd: Vec<u64> = (0..500).collect();
        let rev: Vec<u64> = (0..500).rev().collect();
        let a = build(&fwd);
        let b = build(&rev);
        for k in 0..500u64 {
            assert_eq!(a.get(&k.to_be_bytes()), b.get(&k.to_be_bytes()));
        }
        assert_eq!(a.key_count(), b.key_count());
    }

    proptest::proptest! {
        /// Against a `BTreeMap` model: any run of inserts, with keys of
        /// 0–40 bytes (on both sides of the inline bound, many sharing long
        /// prefixes) and duplicates, leaves every key's posting list in
        /// insertion order, absent keys empty and both counts exact.
        #[test]
        fn matches_a_btreemap_model(
            ops in proptest::collection::vec((0u8..4, 0usize..41, 0u8..3, 0u64..5_000), 1..700),
        ) {
            let mut tree = BTree::new();
            let mut model: std::collections::BTreeMap<Vec<u8>, Vec<TupleId>> =
                std::collections::BTreeMap::new();
            let mut seen: Vec<Vec<u8>> = Vec::new();
            for (kind, len, fill, n) in ops {
                let key = if kind == 0 && !seen.is_empty() {
                    seen[n as usize % seen.len()].clone()
                } else {
                    (0..len)
                        .map(|i| if i + 1 == len { (n % 5) as u8 } else { fill })
                        .collect()
                };
                tree.insert(&key, tid(n));
                model.entry(key.clone()).or_default().push(tid(n));
                seen.push(key);
            }
            for (key, postings) in &model {
                proptest::prop_assert_eq!(tree.get(key), postings.as_slice());
                let mut longer = key.clone();
                longer.push(9);
                proptest::prop_assert!(tree.get(&longer).is_empty());
            }
            proptest::prop_assert!(tree.get(&[7u8; 23]).is_empty());
            proptest::prop_assert_eq!(tree.key_count(), model.len() as u64);
            let entries: usize = model.values().map(Vec::len).sum();
            proptest::prop_assert_eq!(tree.entry_count(), entries as u64);
        }
    }
}
