//! An in-memory B+Tree mapping primary-key bytes to heap tuple locations.
//!
//! Nodes live in an arena (`Vec<Node>`) and reference each other by index,
//! sidestepping ownership cycles. Duplicate keys append to the existing
//! key's posting list, preserving insertion order — the executor's
//! point-lookup candidate order must match the in-memory engine's
//! `BTreeMap<String, Vec<usize>>` exactly.
//!
//! The tree is built lazily from a heap scan and then maintained by
//! INSERT and by UPDATEs that leave the key alone. It has no removal: a
//! deleted row's entry lingers (as dead index entries do in PostgreSQL
//! until a vacuum) and the paged engine skips it on lookup, which is sound
//! because a tombstoned slot is never handed out again. Whatever could
//! make a lingering entry lie — a key-changing UPDATE, a rolled-back
//! append, a chain rebuild — drops the whole tree instead.

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

#[derive(Debug)]
enum Node {
    Leaf {
        keys: Vec<Vec<u8>>,
        postings: Vec<Vec<TupleId>>,
    },
    Internal {
        /// `keys[i]` is the smallest key reachable via `children[i + 1]`.
        keys: Vec<Vec<u8>>,
        children: Vec<usize>,
    },
}

/// A B+Tree from key bytes to posting lists of [`TupleId`]s.
#[derive(Debug)]
pub struct BTree {
    arena: Vec<Node>,
    root: usize,
    keys: u64,
    entries: u64,
}

impl Default for BTree {
    fn default() -> Self {
        Self::new()
    }
}

impl BTree {
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

    /// Number of (key, tuple) entries, duplicates included.
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
    pub fn get(&self, key: &[u8]) -> &[TupleId] {
        let mut at = self.root;
        loop {
            match self.arena.get(at) {
                Some(Node::Internal { keys, children }) => {
                    let idx = keys.partition_point(|k| k.as_slice() <= key);
                    match children.get(idx) {
                        Some(&c) => at = c,
                        None => return &[],
                    }
                }
                Some(Node::Leaf { keys, postings }) => {
                    return match keys.binary_search_by(|k| k.as_slice().cmp(key)) {
                        Ok(i) => postings.get(i).map_or(&[], Vec::as_slice),
                        Err(_) => &[],
                    };
                }
                None => return &[],
            }
        }
    }

    /// Inserts `(key, tid)`; duplicates append to the posting list.
    pub fn insert(&mut self, key: &[u8], tid: TupleId) {
        self.entries += 1;
        if let Some((mid_key, right)) = self.insert_at(self.root, key, tid) {
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
    fn insert_at(&mut self, at: usize, key: &[u8], tid: TupleId) -> Option<(Vec<u8>, usize)> {
        let child = match self.arena.get(at) {
            Some(Node::Internal { keys, children }) => {
                let idx = keys.partition_point(|k| k.as_slice() <= key);
                children.get(idx).copied()
            }
            _ => None,
        };
        if let Some(child) = child {
            let split = self.insert_at(child, key, tid)?;
            let (mid_key, right) = split;
            if let Some(Node::Internal { keys, children }) = self.arena.get_mut(at) {
                let idx = keys.partition_point(|k| k.as_slice() <= mid_key.as_slice());
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
            match keys.binary_search_by(|k| k.as_slice().cmp(key)) {
                Ok(i) => {
                    if let Some(list) = postings.get_mut(i) {
                        list.push(tid);
                    }
                }
                Err(i) => {
                    keys.insert(i, key.to_vec());
                    postings.insert(i, vec![tid]);
                    self.keys += 1;
                }
            }
            if keys.len() > ORDER {
                return Some(self.split_leaf(at));
            }
        }
        None
    }

    fn split_leaf(&mut self, at: usize) -> (Vec<u8>, usize) {
        let (mid_key, right_keys, right_postings) = match self.arena.get_mut(at) {
            Some(Node::Leaf { keys, postings }) => {
                let mid = keys.len() / 2;
                let right_keys: Vec<_> = keys.drain(mid..).collect();
                let right_postings: Vec<_> = postings.drain(mid..).collect();
                let mid_key = right_keys.first().cloned().unwrap_or_default();
                (mid_key, right_keys, right_postings)
            }
            _ => (Vec::new(), Vec::new(), Vec::new()),
        };
        let right = self.arena.len();
        self.arena.push(Node::Leaf {
            keys: right_keys,
            postings: right_postings,
        });
        (mid_key, right)
    }

    fn split_internal(&mut self, at: usize) -> (Vec<u8>, usize) {
        let (mid_key, right_keys, right_children) = match self.arena.get_mut(at) {
            Some(Node::Internal { keys, children }) => {
                let mid = keys.len() / 2;
                let mut right_keys: Vec<_> = keys.drain(mid..).collect();
                let right_children: Vec<_> = children.drain(mid + 1..).collect();
                // The separator moves up rather than staying in either half.
                let mid_key = if right_keys.is_empty() {
                    Vec::new()
                } else {
                    right_keys.remove(0)
                };
                (mid_key, right_keys, right_children)
            }
            _ => (Vec::new(), Vec::new(), Vec::new()),
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
    fn get_on_empty_is_empty() {
        let t = BTree::new();
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
}
