//! The in-memory storage engine: MiniPg's original row vectors behind the
//! [`Storage`] trait.
//!
//! Rows live in insertion-order vectors with a lazily-built primary-key
//! index (`BTreeMap<key bytes, Vec<row position>>`). A row's position is its
//! [`RowId`] and never changes: UPDATE replaces the row where it is, DELETE
//! leaves a `None` behind (and the row's index entry, which lookups skip —
//! the same dead-entry rule as the paged engine's B+Tree; rolling a DELETE
//! back drops the index, which may have been built without the row).
//! Nothing survives a restart — the behaviour the recovery chaos suite
//! contrasts against the paged engine.
//!
//! A transaction keeps an undo log of what it touched — how long a table
//! was before an append, the row an UPDATE or DELETE replaced, the whole
//! table only for DDL and `rewrite` — and rollback plays it backwards.

use std::collections::BTreeMap;

use crate::{fnv1a_extend, no_such_table, Result, RowId, Storage, StoreError, TupleCodec};

struct MemTable<R> {
    meta: Vec<u8>,
    /// Insertion order; `None` marks a deleted row.
    rows: Vec<Option<R>>,
    live: u64,
    heap_bytes: u64,
    index: Option<BTreeMap<Vec<u8>, Vec<usize>>>,
}

impl<R> MemTable<R> {
    fn new(meta: Vec<u8>) -> Self {
        Self {
            meta,
            rows: Vec::new(),
            live: 0,
            heap_bytes: 0,
            index: None,
        }
    }
}

/// One step of an open transaction, with what it takes to take it back.
enum Undo<R> {
    /// Rows were appended to a table that held `len` slots.
    Append { table: String, len: usize },
    /// The row at `at` was replaced or deleted; `row` is what it was.
    Row { table: String, at: usize, row: R },
    /// The table was created, dropped or rewritten; `prior` is the table as
    /// it stood (`None` = it did not exist).
    Table {
        table: String,
        prior: Option<MemTable<R>>,
    },
}

/// The in-memory engine. `C` supplies key extraction and heap accounting;
/// rows are stored as-is, so scans are clone-only.
pub struct MemStore<R, C> {
    codec: C,
    tables: BTreeMap<String, MemTable<R>>,
    /// `Some` while a transaction is open: its steps, oldest first.
    undo: Option<Vec<Undo<R>>>,
}

fn no_such_row(table: &str, at: usize) -> StoreError {
    StoreError::Corrupt(format!("{table} has no live row at address {at}"))
}

impl<R: Clone, C: TupleCodec<R>> MemStore<R, C> {
    /// An empty store using `codec`.
    #[must_use]
    pub fn new(codec: C) -> Self {
        Self {
            codec,
            tables: BTreeMap::new(),
            undo: None,
        }
    }

    fn table(&self, table: &str) -> Result<&MemTable<R>> {
        self.tables.get(table).ok_or_else(|| no_such_table(table))
    }

    fn log(&mut self, step: Undo<R>) {
        if let Some(undo) = &mut self.undo {
            undo.push(step);
        }
    }

    /// Installs `next` under `table` (or removes the table), logging what
    /// was there.
    fn swap_table(&mut self, table: &str, next: Option<MemTable<R>>) {
        let prior = match next {
            Some(next) => self.tables.insert(table.to_string(), next),
            None => self.tables.remove(table),
        };
        self.log(Undo::Table {
            table: table.to_string(),
            prior,
        });
    }

    /// Puts `row` at `at` — over a live row, or (`revive`, undoing a DELETE)
    /// over a deleted one — keeping the counters right and dropping the
    /// index if the key under `at` changed or the row came back from the
    /// dead. Returns what was there.
    fn put(&mut self, table: &str, at: usize, row: R, revive: bool) -> Result<Option<R>> {
        let codec = &self.codec;
        let t = self
            .tables
            .get_mut(table)
            .ok_or_else(|| no_such_table(table))?;
        let slot = t.rows.get_mut(at).ok_or_else(|| no_such_row(table, at))?;
        match slot {
            Some(old) => {
                t.heap_bytes -= codec.heap_bytes(old);
                if t.index.is_some() && codec.key(old) != codec.key(&row) {
                    t.index = None;
                }
            }
            // An index built since the DELETE never saw this row.
            None if revive => {
                t.live += 1;
                t.index = None;
            }
            None => return Err(no_such_row(table, at)),
        }
        t.heap_bytes += codec.heap_bytes(&row);
        Ok(slot.replace(row))
    }

    /// Plays one undo step backwards.
    fn revert(&mut self, step: Undo<R>) -> Result<()> {
        match step {
            Undo::Append { table, len } => {
                let codec = &self.codec;
                let t = self
                    .tables
                    .get_mut(&table)
                    .ok_or_else(|| no_such_table(&table))?;
                for row in t.rows.drain(len..).flatten() {
                    t.live -= 1;
                    t.heap_bytes -= codec.heap_bytes(&row);
                }
                // Its entries for the positions just given up would lie.
                t.index = None;
            }
            Undo::Row { table, at, row } => {
                self.put(&table, at, row, true)?;
            }
            Undo::Table { table, prior } => match prior {
                Some(t) => {
                    self.tables.insert(table, t);
                }
                None => {
                    self.tables.remove(&table);
                }
            },
        }
        Ok(())
    }
}

impl<R: Clone + Send, C: TupleCodec<R>> Storage<R> for MemStore<R, C> {
    fn engine(&self) -> &'static str {
        "memory"
    }

    fn create_table(&mut self, table: &str, meta: &[u8]) -> Result<()> {
        if self.tables.contains_key(table) {
            return Err(StoreError::TableExists(table.into()));
        }
        self.swap_table(table, Some(MemTable::new(meta.to_vec())));
        Ok(())
    }

    fn drop_table(&mut self, table: &str) -> Result<()> {
        self.table(table)?;
        self.swap_table(table, None);
        Ok(())
    }

    fn table_names(&self) -> Vec<String> {
        self.tables.keys().cloned().collect()
    }

    fn table_meta(&self, table: &str) -> Option<Vec<u8>> {
        self.tables.get(table).map(|t| t.meta.clone())
    }

    fn row_count(&self, table: &str) -> Result<u64> {
        Ok(self.table(table)?.live)
    }

    fn scan_rows(&self, table: &str, visit: &mut dyn FnMut(RowId, R)) -> Result<()> {
        for (at, row) in self.table(table)?.rows.iter().enumerate() {
            if let Some(row) = row {
                visit(RowId(at as u64), row.clone());
            }
        }
        Ok(())
    }

    fn ensure_index(&mut self, table: &str) -> Result<()> {
        let codec = &self.codec;
        let t = self
            .tables
            .get_mut(table)
            .ok_or_else(|| no_such_table(table))?;
        if t.index.is_none() {
            let mut index: BTreeMap<Vec<u8>, Vec<usize>> = BTreeMap::new();
            for (at, row) in t.rows.iter().enumerate() {
                if let Some(row) = row {
                    index.entry(codec.key(row)).or_default().push(at);
                }
            }
            t.index = Some(index);
        }
        Ok(())
    }

    fn has_index(&self, table: &str) -> bool {
        self.tables.get(table).is_some_and(|t| t.index.is_some())
    }

    fn lookup_rows(&self, table: &str, key: &[u8], visit: &mut dyn FnMut(RowId, R)) -> Result<u64> {
        let t = self.table(table)?;
        let mut candidates = 0u64;
        if let Some(index) = &t.index {
            for &at in index.get(key).into_iter().flatten() {
                // A deleted row's entry lingers; its slot is empty.
                if let Some(Some(row)) = t.rows.get(at) {
                    candidates += 1;
                    visit(RowId(at as u64), row.clone());
                }
            }
            return Ok(candidates);
        }
        // No index: filtered scan — same candidate set, same order.
        for (at, row) in t.rows.iter().enumerate() {
            if let Some(row) = row {
                if self.codec.key(row) == key {
                    candidates += 1;
                    visit(RowId(at as u64), row.clone());
                }
            }
        }
        Ok(candidates)
    }

    fn insert(&mut self, table: &str, rows: Vec<R>) -> Result<()> {
        let len = self.table(table)?.rows.len();
        self.log(Undo::Append {
            table: table.to_string(),
            len,
        });
        let codec = &self.codec;
        let Some(t) = self.tables.get_mut(table) else {
            return Err(no_such_table(table));
        };
        for row in rows {
            t.live += 1;
            t.heap_bytes += codec.heap_bytes(&row);
            if let Some(index) = &mut t.index {
                index.entry(codec.key(&row)).or_default().push(t.rows.len());
            }
            t.rows.push(Some(row));
        }
        Ok(())
    }

    fn update(&mut self, table: &str, rows: Vec<(RowId, R)>) -> Result<()> {
        for (RowId(at), row) in rows {
            let at = at as usize;
            if let Some(old) = self.put(table, at, row, false)? {
                self.log(Undo::Row {
                    table: table.to_string(),
                    at,
                    row: old,
                });
            }
        }
        Ok(())
    }

    fn delete(&mut self, table: &str, rows: &[RowId]) -> Result<()> {
        self.table(table)?;
        for &RowId(at) in rows {
            let at = at as usize;
            let codec = &self.codec;
            let Some(t) = self.tables.get_mut(table) else {
                return Err(no_such_table(table));
            };
            let Some(old) = t.rows.get_mut(at).and_then(Option::take) else {
                return Err(no_such_row(table, at));
            };
            t.live -= 1;
            t.heap_bytes -= codec.heap_bytes(&old);
            self.log(Undo::Row {
                table: table.to_string(),
                at,
                row: old,
            });
        }
        // Nothing left to address: give the tombstones back.
        let t = self.table(table)?;
        if t.live == 0 && !t.rows.is_empty() {
            let fresh = MemTable::new(t.meta.clone());
            self.swap_table(table, Some(fresh));
        }
        Ok(())
    }

    fn rewrite(&mut self, table: &str, rows: Vec<R>) -> Result<()> {
        let mut fresh = MemTable::new(self.table(table)?.meta.clone());
        fresh.live = rows.len() as u64;
        fresh.heap_bytes = rows.iter().map(|r| self.codec.heap_bytes(r)).sum();
        fresh.rows = rows.into_iter().map(Some).collect();
        self.swap_table(table, Some(fresh));
        Ok(())
    }

    fn begin(&mut self) -> Result<()> {
        if self.undo.is_some() {
            return Err(StoreError::TransactionOpen);
        }
        self.undo = Some(Vec::new());
        Ok(())
    }

    fn commit(&mut self) -> Result<()> {
        if self.undo.take().is_none() {
            return Err(StoreError::NoTransaction);
        }
        Ok(())
    }

    fn rollback(&mut self) -> Result<()> {
        let Some(undo) = self.undo.take() else {
            return Err(StoreError::NoTransaction);
        };
        for step in undo.into_iter().rev() {
            self.revert(step)?;
        }
        Ok(())
    }

    fn in_txn(&self) -> bool {
        self.undo.is_some()
    }

    fn bytes(&self) -> u64 {
        self.tables.values().map(|t| t.heap_bytes).sum()
    }

    fn state_digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut buf = Vec::new();
        for (name, t) in &self.tables {
            h = fnv1a_extend(h, name.as_bytes());
            h = fnv1a_extend(h, &t.meta);
            for row in t.rows.iter().flatten() {
                buf.clear();
                self.codec.encode(row, &mut buf);
                h = fnv1a_extend(h, &buf);
            }
        }
        h
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A toy codec over `(u64, String)` rows.
    pub(crate) struct PairCodec;

    impl TupleCodec<(u64, String)> for PairCodec {
        fn encode(&self, row: &(u64, String), out: &mut Vec<u8>) {
            out.extend_from_slice(&row.0.to_le_bytes());
            out.extend_from_slice(row.1.as_bytes());
        }

        fn decode(&self, bytes: &[u8]) -> Result<(u64, String)> {
            let head = bytes
                .get(..8)
                .ok_or_else(|| StoreError::Corrupt("pair row too short".into()))?;
            let mut buf = [0u8; 8];
            buf.copy_from_slice(head);
            let tail = bytes.get(8..).unwrap_or(&[]);
            let text = String::from_utf8(tail.to_vec())
                .map_err(|_| StoreError::Corrupt("pair row not UTF-8".into()))?;
            Ok((u64::from_le_bytes(buf), text))
        }

        fn key(&self, row: &(u64, String)) -> Vec<u8> {
            row.0.to_be_bytes().to_vec()
        }

        fn heap_bytes(&self, row: &(u64, String)) -> u64 {
            24 + 8 + 16 + row.1.len() as u64
        }
    }

    fn store() -> MemStore<(u64, String), PairCodec> {
        let mut s = MemStore::new(PairCodec);
        s.create_table("T", b"meta").unwrap();
        s
    }

    #[test]
    fn scan_preserves_insertion_order() {
        let mut s = store();
        s.insert("T", vec![(2, "b".into()), (1, "a".into()), (2, "c".into())])
            .unwrap();
        let mut seen = Vec::new();
        s.scan("T", &mut |r| seen.push(r)).unwrap();
        assert_eq!(
            seen,
            vec![(2, "b".into()), (1, "a".into()), (2, "c".into())]
        );
    }

    #[test]
    fn lookup_matches_with_and_without_index() {
        let mut s = store();
        s.insert("T", vec![(2, "b".into()), (1, "a".into()), (2, "c".into())])
            .unwrap();
        let key = 2u64.to_be_bytes();
        let mut unindexed = Vec::new();
        let n0 = s.lookup("T", &key, &mut |r| unindexed.push(r)).unwrap();
        s.ensure_index("T").unwrap();
        assert!(s.has_index("T"));
        let mut indexed = Vec::new();
        let n1 = s.lookup("T", &key, &mut |r| indexed.push(r)).unwrap();
        assert_eq!(unindexed, indexed);
        assert_eq!(n0, n1);
        assert_eq!(n0, 2);
    }

    #[test]
    fn rollback_restores_rows_and_dropped_tables() {
        let mut s = store();
        s.insert("T", vec![(1, "keep".into())]).unwrap();
        let digest = s.state_digest();
        s.begin().unwrap();
        s.insert("T", vec![(2, "gone".into())]).unwrap();
        s.drop_table("T").unwrap();
        s.create_table("U", b"").unwrap();
        s.rollback().unwrap();
        assert_eq!(s.state_digest(), digest);
        assert_eq!(s.table_names(), vec!["T".to_string()]);
    }

    #[test]
    fn commit_keeps_changes() {
        let mut s = store();
        s.begin().unwrap();
        s.insert("T", vec![(1, "kept".into())]).unwrap();
        s.commit().unwrap();
        assert_eq!(s.row_count("T").unwrap(), 1);
        assert!(!s.in_txn());
        assert!(matches!(s.commit(), Err(StoreError::NoTransaction)));
    }

    #[test]
    fn bytes_metering_tracks_rows() {
        let mut s = store();
        assert_eq!(s.bytes(), 0);
        s.insert("T", vec![(1, "ab".into())]).unwrap();
        assert_eq!(s.bytes(), 24 + 8 + 16 + 2);
        s.rewrite("T", Vec::new()).unwrap();
        assert_eq!(s.bytes(), 0);
    }
}
