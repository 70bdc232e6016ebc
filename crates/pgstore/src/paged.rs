//! The paged storage engine: slotted heap pages behind a buffer pool, a
//! write-ahead log for durability, and a B+Tree primary-key index.
//!
//! Each table owns a chain of heap pages, linked via the page header's
//! `next` field and mirrored in `PagedTable::pages`. A row's address is
//! where it sits in that chain — `(position of its page in the chain, slot
//! in the page)` — and it keeps it: INSERT appends to the chain tail,
//! UPDATE replaces the tuple inside its page and slot, DELETE leaves a
//! tombstone. So scan order is insertion order, the B+Tree's entries stay
//! true across writes, and a write touches (and dirties, and logs) one
//! page, not the table. The one exception is a row that outgrows its page
//! even after in-page compaction: the table's chain is then rebuilt from a
//! scan (every row keeps its scan *position*; addresses are reassigned and
//! the index dropped). A chain is also rebuilt, to nothing, when a DELETE
//! removes a table's last row.
//!
//! Durability is WAL-first: every mutation is a logical record, applied to
//! the heap by the same [`PagedStore::apply`] that replays it after a
//! crash, and commit appends a `Commit` record and fsyncs — the only fsync
//! on the write path. A dirty heap page reaches the heap file only when the
//! buffer pool evicts it — never at commit or after replay — and the heap
//! file is *rebuilt from the WAL* on open, so a torn heap page can never
//! survive recovery; the heap exists to bound memory, not to be the source
//! of truth. [`PagedStore::open`] replays the log under the
//! instance's [`RecoveryPolicy`] and reports [`RecoveryStats`], which the
//! chaos suite asserts on.
//!
//! `Update`/`Delete` records name rows by address, so replay must rebuild
//! the layout the writer had. It does, because (a) whether and where a
//! tuple fits is a function of a page's logical content (see [`page`](crate::page)),
//! (b) addresses are chain positions, not heap-file page numbers, and (c) a
//! transaction that does not commit leaves no trace in the layout: its undo
//! log — the length of the chain before an append, the before-image of
//! each tuple replaced or tombstoned, the whole displaced table for DDL
//! and chain rebuilds (its pages are only freed at commit) — is played
//! backwards on `ROLLBACK`. Taking back an append or a DELETE drops the
//! index: it may hold entries for slots given up, or — built since the
//! DELETE — none for the rows revived.

use std::cell::RefCell;
use std::collections::BTreeMap;

use crate::btree::{BTree, TupleId};
use crate::disk::VDisk;
use crate::page::{Page, PAGE_SIZE};
use crate::pool::{BufferPool, PoolStats, DEFAULT_FRAMES};
use crate::wal::{RecoveryPolicy, TailState, Wal, WalRecord};
use crate::{fnv1a_extend, no_such_table, Result, RowId, Storage, StoreError, TupleCodec};

/// Heap file name on the instance's [`VDisk`].
pub const HEAP_FILE: &str = "heap";
/// WAL file name on the instance's [`VDisk`].
pub const WAL_FILE: &str = "wal";

/// What [`PagedStore::open`] found and did during WAL replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Transactions rolled forward.
    pub committed_txns: u64,
    /// Transactions discarded for lack of a verifiable commit.
    pub discarded_txns: u64,
    /// Whether the log ended in a torn record.
    pub torn_tail: bool,
    /// Whether the policy honoured a torn trailing commit record
    /// (ReplayForward's divergence corner).
    pub honoured_torn_commit: bool,
    /// Bytes of torn tail truncated to restore clean framing.
    pub truncated_bytes: u64,
}

#[derive(Debug)]
struct PagedTable {
    meta: Vec<u8>,
    /// Heap page numbers in chain order. A [`TupleId`]'s `page` indexes
    /// this, so scans and lookups never chase `next` through the pool.
    pages: Vec<u64>,
    rows: u64,
    index: Option<BTree>,
}

impl PagedTable {
    fn new(meta: Vec<u8>) -> Self {
        Self {
            meta,
            pages: Vec::new(),
            rows: 0,
            index: None,
        }
    }

    /// The heap page at `tid`'s chain position.
    fn page_no(&self, tid: TupleId) -> Option<u64> {
        self.pages.get(usize::try_from(tid.page).ok()?).copied()
    }
}

fn no_such_page(table: &str, tid: TupleId) -> StoreError {
    StoreError::Corrupt(format!("{table} has no page at address {}", address(tid)))
}

/// One step of an open transaction, with what it takes to take it back.
enum Undo {
    /// Tuples were appended to a chain that was `pages` long with
    /// `tail_slots` slots on its last page, when the table held `rows`.
    Append {
        table: String,
        pages: usize,
        tail_slots: u16,
        rows: u64,
    },
    /// The tuple at `tid` was replaced or tombstoned; `image` is what it
    /// was.
    Tuple {
        table: String,
        tid: TupleId,
        image: Vec<u8>,
    },
    /// The table was created, dropped or had its chain rebuilt; `prior` is
    /// the table as it stood, pages untouched (`None` = it did not exist).
    Table {
        table: String,
        prior: Option<PagedTable>,
    },
}

struct OpenTxn {
    id: u64,
    /// Steps taken so far, oldest first.
    undo: Vec<Undo>,
}

/// The paged engine. Generic over the host row type `R`; the codec maps
/// rows to heap tuples and index keys.
pub struct PagedStore<R, C> {
    codec: C,
    disk: VDisk,
    wal: Wal,
    policy: RecoveryPolicy,
    pool: RefCell<BufferPool>,
    tables: BTreeMap<String, PagedTable>,
    /// Recycled page numbers, LIFO (deterministic reuse order).
    free_pages: Vec<u64>,
    next_page: u64,
    next_txn: u64,
    /// Open explicit transaction, if any.
    txn: Option<OpenTxn>,
    recovery: RecoveryStats,
    _row: std::marker::PhantomData<fn() -> R>,
}

/// The address a WAL record and a [`RowId`] carry for `tid`.
fn address(tid: TupleId) -> u64 {
    tid.page << 16 | u64::from(tid.slot)
}

fn tuple_id(address: u64) -> TupleId {
    TupleId {
        page: address >> 16,
        slot: (address & 0xFFFF) as u16,
    }
}

impl<R: Clone, C: TupleCodec<R>> PagedStore<R, C> {
    /// Opens the store on `disk`, replaying any existing WAL under
    /// `policy`. The heap file is rebuilt from the log, so this is both
    /// cold start and crash recovery.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] on interior WAL corruption (torn tails are
    /// handled per policy, not errors).
    pub fn open(disk: VDisk, codec: C, policy: RecoveryPolicy) -> Result<Self> {
        Self::open_with_frames(disk, codec, policy, DEFAULT_FRAMES)
    }

    /// [`PagedStore::open`] with an explicit buffer-pool capacity.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] on interior WAL corruption.
    pub fn open_with_frames(
        disk: VDisk,
        codec: C,
        policy: RecoveryPolicy,
        frames: usize,
    ) -> Result<Self> {
        let wal = Wal::new(disk.clone(), WAL_FILE);
        let replay = wal.replay(policy)?;
        // The heap is rebuilt from the log: discard whatever the crash left.
        disk.remove(HEAP_FILE);
        let mut store = Self {
            codec,
            disk: disk.clone(),
            wal,
            policy,
            pool: RefCell::new(BufferPool::new(HEAP_FILE, frames)),
            tables: BTreeMap::new(),
            free_pages: Vec::new(),
            next_page: 1,
            next_txn: replay.next_txn,
            txn: None,
            recovery: RecoveryStats {
                committed_txns: replay.committed,
                discarded_txns: replay.discarded,
                torn_tail: !matches!(replay.tail, TailState::Clean),
                honoured_torn_commit: replay.honoured_torn_commit,
                truncated_bytes: store_len_delta(&disk, replay.valid_end),
            },
            _row: std::marker::PhantomData,
        };
        let honoured = replay
            .honoured_torn_commit
            .then_some(replay.tail_txn)
            .flatten();
        if store.recovery.torn_tail {
            // Clear the torn tail so future appends restore clean framing.
            store.wal.truncate(replay.valid_end);
            if let Some(txn) = honoured {
                // ReplayForward honoured the torn commit: re-log it cleanly
                // so the *next* recovery reaches the same state.
                store.wal.append(&WalRecord::Commit { txn });
            }
            store.wal.sync();
        }
        for op in &replay.ops {
            store.apply(op, None)?;
        }
        Ok(store)
    }

    /// Stats from the replay that [`PagedStore::open`] performed.
    #[must_use]
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.recovery
    }

    /// Buffer-pool statistics.
    #[must_use]
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.borrow().stats()
    }

    /// The recovery policy this instance runs.
    #[must_use]
    pub fn policy(&self) -> RecoveryPolicy {
        self.policy
    }

    /// The underlying disk (for tests and fault orchestration).
    #[must_use]
    pub fn disk(&self) -> &VDisk {
        &self.disk
    }

    fn table(&self, table: &str) -> Result<&PagedTable> {
        self.tables.get(table).ok_or_else(|| no_such_table(table))
    }

    /// The heap page holding `tid`.
    fn page_of(&self, table: &str, tid: TupleId) -> Result<u64> {
        self.table(table)?
            .page_no(tid)
            .ok_or_else(|| no_such_page(table, tid))
    }

    fn log(&mut self, step: Undo) {
        if let Some(txn) = &mut self.txn {
            txn.undo.push(step);
        }
    }

    /// Marks where `table`'s chain ends, for an append about to happen.
    fn log_append(&mut self, table: &str) -> Result<()> {
        if self.txn.is_none() {
            return Ok(());
        }
        let t = self.table(table)?;
        let tail_slots = match t.pages.last() {
            Some(&tail) => self
                .pool
                .borrow_mut()
                .with_page(&self.disk, tail, Page::slot_count)?,
            None => 0,
        };
        let step = Undo::Append {
            table: table.to_string(),
            pages: t.pages.len(),
            tail_slots,
            rows: t.rows,
        };
        self.log(step);
        Ok(())
    }

    /// Logs `record` and applies it: the live write path is replay of a
    /// record that was just written. `rows` are the record's tuples,
    /// decoded (the caller encoded them, so it has them). A write outside
    /// a transaction runs in one of its own, committed if it applies and
    /// rolled back if not, so the log files every record under the
    /// transaction it belongs to.
    fn write(&mut self, record: &WalRecord, rows: Option<Vec<R>>) -> Result<()>
    where
        Self: Storage<R>,
    {
        let implicit = self.txn.is_none();
        if implicit {
            self.begin()?;
        }
        self.wal.append(record);
        match (implicit, self.apply(record, rows)) {
            (true, Ok(())) => self.commit(),
            (true, Err(e)) => {
                self.rollback()?;
                Err(e)
            }
            (false, result) => result,
        }
    }

    /// The rows `tuples` encode: `held` if the caller has them, decoded
    /// otherwise.
    fn rows_of<'a>(
        &self,
        held: Option<Vec<R>>,
        tuples: impl Iterator<Item = &'a Vec<u8>>,
    ) -> Result<Vec<R>> {
        match held {
            Some(rows) => Ok(rows),
            None => tuples.map(|t| self.codec.decode(t)).collect(),
        }
    }

    /// Applies a logical record to the heap. `rows` spares decoding the
    /// record's tuples when the caller already holds them.
    fn apply(&mut self, op: &WalRecord, rows: Option<Vec<R>>) -> Result<()> {
        match op {
            WalRecord::CreateTable { table, meta } => {
                self.swap_table(table, Some(PagedTable::new(meta.clone())));
                Ok(())
            }
            WalRecord::DropTable { table } => {
                self.swap_table(table, None);
                Ok(())
            }
            WalRecord::Insert {
                table,
                rows: tuples,
            } => {
                let rows = self.rows_of(rows, tuples.iter())?;
                self.log_append(table)?;
                self.heap_insert(table, &rows, tuples)
            }
            WalRecord::Rewrite {
                table,
                rows: tuples,
            } => {
                let rows = self.rows_of(rows, tuples.iter())?;
                self.rebuild(table, &rows, tuples)
            }
            WalRecord::Update {
                table,
                rows: tuples,
            } => {
                let rows = self.rows_of(rows, tuples.iter().map(|(_, t)| t))?;
                self.heap_update(table, tuples, &rows)
            }
            WalRecord::Delete { table, rows } => self.heap_delete(table, rows),
            WalRecord::Begin { .. } | WalRecord::Commit { .. } => Ok(()),
        }
    }

    /// Allocates a page number (recycled first) and installs a fresh page.
    fn alloc_page(&mut self) -> Result<u64> {
        let no = match self.free_pages.pop() {
            Some(no) => no,
            None => {
                let no = self.next_page;
                self.next_page += 1;
                no
            }
        };
        self.pool.borrow_mut().create_page(&self.disk, no)?;
        Ok(no)
    }

    /// Returns a chain's pages to the free list.
    fn free_chain(&mut self, pages: &[u64]) {
        // LIFO, most recently allocated first: reuse order stays
        // deterministic across engines and runs.
        self.free_pages.extend(pages.iter().rev());
    }

    /// Installs `next` under `table`, or removes the table. Inside a
    /// transaction the table displaced is parked in the undo log with its
    /// pages still allocated, so rollback can put it back untouched; they
    /// are freed at commit. Outside one they are freed at once.
    fn swap_table(&mut self, table: &str, next: Option<PagedTable>) {
        let prior = match next {
            Some(next) => self.tables.insert(table.to_string(), next),
            None => self.tables.remove(table),
        };
        match &mut self.txn {
            Some(txn) => txn.undo.push(Undo::Table {
                table: table.to_string(),
                prior,
            }),
            None => {
                if let Some(t) = prior {
                    self.free_chain(&t.pages);
                }
            }
        }
    }

    /// Encodes rows for the heap and the WAL.
    fn encode_all(&self, rows: &[R]) -> Result<Vec<Vec<u8>>> {
        rows.iter()
            .map(|row| {
                let mut tuple = Vec::new();
                self.codec.encode(row, &mut tuple);
                if tuple.len() > Page::max_tuple() {
                    return Err(StoreError::TupleTooLarge {
                        bytes: tuple.len(),
                        max: Page::max_tuple(),
                    });
                }
                Ok(tuple)
            })
            .collect()
    }

    /// Appends `rows` (and their encodings, `tuples`) to the table's heap
    /// chain, maintaining the index.
    fn heap_insert(&mut self, table: &str, rows: &[R], tuples: &[Vec<u8>]) -> Result<()> {
        self.table(table)?;
        for (row, tuple) in rows.iter().zip(tuples) {
            // Try the chain tail; grow the chain when full.
            let last = self.table(table)?.pages.last().copied();
            let mut slot = None;
            if let Some(last) = last {
                slot = self
                    .pool
                    .borrow_mut()
                    .with_page_mut(&self.disk, last, |p| p.insert(tuple))?;
            }
            if slot.is_none() {
                let fresh = self.alloc_page()?;
                if let Some(last) = last {
                    self.pool
                        .borrow_mut()
                        .with_page_mut(&self.disk, last, |p| p.set_next(fresh))?;
                }
                slot = self
                    .pool
                    .borrow_mut()
                    .with_page_mut(&self.disk, fresh, |p| p.insert(tuple))?;
                if let Some(t) = self.tables.get_mut(table) {
                    t.pages.push(fresh);
                }
            }
            let Some(slot) = slot else {
                return Err(StoreError::Corrupt(format!(
                    "tuple of {} bytes rejected by a fresh page",
                    tuple.len()
                )));
            };
            let codec = &self.codec;
            if let Some(t) = self.tables.get_mut(table) {
                t.rows += 1;
                if let Some(index) = &mut t.index {
                    let page = t.pages.len().saturating_sub(1) as u64;
                    index.insert(&codec.key(row), TupleId { page, slot });
                }
            }
        }
        Ok(())
    }

    /// Replaces the table's chain wholesale; the index is dropped.
    fn rebuild(&mut self, table: &str, rows: &[R], tuples: &[Vec<u8>]) -> Result<()> {
        let meta = self.table(table)?.meta.clone();
        self.swap_table(table, Some(PagedTable::new(meta)));
        self.heap_insert(table, rows, tuples)
    }

    /// Replaces the tuple at each address with the tuple (and decoded row)
    /// paired with it, inside its page and slot.
    fn heap_update(&mut self, table: &str, tuples: &[(u64, Vec<u8>)], rows: &[R]) -> Result<()> {
        self.table(table)?;
        for (i, ((at, tuple), row)) in tuples.iter().zip(rows).enumerate() {
            let tid = tuple_id(*at);
            let page_no = self.page_of(table, tid)?;
            let (image, fit) = self.pool.borrow_mut().with_page_mut(
                &self.disk,
                page_no,
                |p| -> Result<(Vec<u8>, bool)> {
                    let image = p.tuple(tid.slot)?.to_vec();
                    Ok((image, p.put(tid.slot, tuple)?))
                },
            )??;
            if !fit {
                return self.relocate(table, tuples.get(i..).unwrap_or(&[]));
            }
            self.replaced(table, tid, image, Some(row))?;
        }
        Ok(())
    }

    /// A row outgrew its page: rebuilds the table's chain from a scan with
    /// the outstanding `tuples` substituted at their addresses. Selected by
    /// what the page reports (the tuple does not fit even compacted), every
    /// row keeps its scan position, and replay takes the same turn because
    /// it sees the same page.
    fn relocate(&mut self, table: &str, tuples: &[(u64, Vec<u8>)]) -> Result<()> {
        let mut pending: BTreeMap<u64, &Vec<u8>> = tuples.iter().map(|(at, t)| (*at, t)).collect();
        let mut all = Vec::new();
        self.scan_tuples(table, &mut |tid, tuple| {
            all.push(match pending.remove(&address(tid)) {
                Some(new) => new.clone(),
                None => tuple.to_vec(),
            });
            Ok(())
        })?;
        if let Some(at) = pending.keys().next() {
            return Err(StoreError::Corrupt(format!(
                "{table} has no live row at address {at}"
            )));
        }
        let rows = all
            .iter()
            .map(|t| self.codec.decode(t))
            .collect::<Result<Vec<R>>>()?;
        self.rebuild(table, &rows, &all)
    }

    /// Tombstones the addressed tuples.
    fn heap_delete(&mut self, table: &str, rows: &[u64]) -> Result<()> {
        self.table(table)?;
        for &at in rows {
            let tid = tuple_id(at);
            let page_no = self.page_of(table, tid)?;
            let image = self.pool.borrow_mut().with_page_mut(
                &self.disk,
                page_no,
                |p| -> Result<Vec<u8>> {
                    let image = p.tuple(tid.slot)?.to_vec();
                    p.delete(tid.slot)?;
                    Ok(image)
                },
            )??;
            self.replaced(table, tid, image, None)?;
        }
        // Nothing left to address: give the chain back.
        let t = self.table(table)?;
        if t.rows == 0 && !t.pages.is_empty() {
            self.rebuild(table, &[], &[])?;
        }
        Ok(())
    }

    /// Bookkeeping after the tuple at `tid` (it was `image`) was replaced
    /// by `new`, or tombstoned: counters, the index, the undo log.
    fn replaced(
        &mut self,
        table: &str,
        tid: TupleId,
        image: Vec<u8>,
        new: Option<&R>,
    ) -> Result<()> {
        let old = self.codec.decode(&image)?;
        self.account(table, Some(&old), new)?;
        self.log(Undo::Tuple {
            table: table.to_string(),
            tid,
            image,
        });
        Ok(())
    }

    /// Brings `table`'s row count and index in line with one slot going
    /// from `old` to `new` (`None` = a tombstone).
    fn account(&mut self, table: &str, old: Option<&R>, new: Option<&R>) -> Result<()> {
        let codec = &self.codec;
        let t = self
            .tables
            .get_mut(table)
            .ok_or_else(|| no_such_table(table))?;
        match (old, new) {
            (Some(old), Some(new)) => {
                // The entry under the old key would lie.
                if t.index.is_some() && codec.key(old) != codec.key(new) {
                    t.index = None;
                }
            }
            // The tombstone's index entry stays; lookups skip it.
            (Some(_), None) => t.rows -= 1,
            // A rolled-back DELETE. An index built since the DELETE never
            // saw this row.
            (None, Some(_)) => {
                t.rows += 1;
                t.index = None;
            }
            (None, None) => {}
        }
        Ok(())
    }

    /// Plays one undo step backwards.
    fn revert(&mut self, step: Undo) -> Result<()> {
        match step {
            Undo::Append {
                table,
                pages,
                tail_slots,
                rows,
            } => {
                let t = self
                    .tables
                    .get_mut(&table)
                    .ok_or_else(|| no_such_table(&table))?;
                let dropped = t.pages.split_off(pages);
                t.rows = rows;
                // Its entries for the slots just given up would lie.
                t.index = None;
                let tail = t.pages.last().copied();
                self.free_chain(&dropped);
                if let Some(tail) = tail {
                    self.pool
                        .borrow_mut()
                        .with_page_mut(&self.disk, tail, |p| {
                            p.truncate(tail_slots);
                            p.set_next(0);
                        })?;
                }
            }
            Undo::Tuple { table, tid, image } => {
                let page_no = self.page_of(&table, tid)?;
                let (current, fit) = self.pool.borrow_mut().with_page_mut(
                    &self.disk,
                    page_no,
                    |p| -> Result<(Option<Vec<u8>>, bool)> {
                        let current = p.get(tid.slot)?.map(<[u8]>::to_vec);
                        Ok((current, p.put(tid.slot, &image)?))
                    },
                )??;
                if !fit {
                    return Err(StoreError::Corrupt(format!(
                        "before-image of {table} address {} no longer fits its page",
                        address(tid)
                    )));
                }
                let current = current.map(|t| self.codec.decode(&t)).transpose()?;
                let image = self.codec.decode(&image)?;
                self.account(&table, current.as_ref(), Some(&image))?;
            }
            Undo::Table { table, prior } => {
                let current = match prior {
                    Some(t) => self.tables.insert(table, t),
                    None => self.tables.remove(&table),
                };
                if let Some(t) = current {
                    self.free_chain(&t.pages);
                }
            }
        }
        Ok(())
    }

    /// Visits every live tuple, with its address, in chain order.
    fn scan_tuples(
        &self,
        table: &str,
        visit: &mut dyn FnMut(TupleId, &[u8]) -> Result<()>,
    ) -> Result<()> {
        let t = self.table(table)?;
        let mut pool = self.pool.borrow_mut();
        for (page, &page_no) in (0u64..).zip(&t.pages) {
            pool.with_page(&self.disk, page_no, |p| -> Result<()> {
                for slot in 0..p.slot_count() {
                    if let Some(tuple) = p.get(slot)? {
                        visit(TupleId { page, slot }, tuple)?;
                    }
                }
                Ok(())
            })??;
        }
        Ok(())
    }
}

fn store_len_delta(disk: &VDisk, valid_end: u64) -> u64 {
    disk.len(WAL_FILE).saturating_sub(valid_end)
}

impl<R: Clone + Send, C: TupleCodec<R> + Send> Storage<R> for PagedStore<R, C> {
    fn create_table(&mut self, table: &str, meta: &[u8]) -> Result<()> {
        if self.tables.contains_key(table) {
            return Err(StoreError::TableExists(table.into()));
        }
        self.write(
            &WalRecord::CreateTable {
                table: table.into(),
                meta: meta.to_vec(),
            },
            None,
        )
    }

    fn drop_table(&mut self, table: &str) -> Result<()> {
        self.table(table)?;
        self.write(
            &WalRecord::DropTable {
                table: table.into(),
            },
            None,
        )
    }

    fn table_names(&self) -> Vec<String> {
        self.tables.keys().cloned().collect()
    }

    fn table_meta(&self, table: &str) -> Option<Vec<u8>> {
        self.tables.get(table).map(|t| t.meta.clone())
    }

    fn row_count(&self, table: &str) -> Result<u64> {
        Ok(self.table(table)?.rows)
    }

    fn scan_rows(&self, table: &str, visit: &mut dyn FnMut(RowId, R)) -> Result<()> {
        self.scan_tuples(table, &mut |tid, tuple| {
            visit(RowId(address(tid)), self.codec.decode(tuple)?);
            Ok(())
        })
    }

    fn ensure_index(&mut self, table: &str) -> Result<()> {
        if self.table(table)?.index.is_some() {
            return Ok(());
        }
        // Build from a heap walk: key -> TupleId per tuple, chain order.
        let mut index = BTree::new();
        self.scan_tuples(table, &mut |tid, tuple| {
            index.insert(&self.codec.key(&self.codec.decode(tuple)?), tid);
            Ok(())
        })?;
        if let Some(t) = self.tables.get_mut(table) {
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
            let mut pool = self.pool.borrow_mut();
            for &tid in index.get(key) {
                let page_no = t.page_no(tid).ok_or_else(|| no_such_page(table, tid))?;
                // A deleted row's entry lingers; its slot is a tombstone.
                let row = pool.with_page(&self.disk, page_no, |p| {
                    p.get(tid.slot)?.map(|t| self.codec.decode(t)).transpose()
                })??;
                if let Some(row) = row {
                    candidates += 1;
                    visit(RowId(address(tid)), row);
                }
            }
            return Ok(candidates);
        }
        // No index: filtered heap scan — identical candidate set.
        self.scan_tuples(table, &mut |tid, tuple| {
            let row = self.codec.decode(tuple)?;
            if self.codec.key(&row) == key {
                candidates += 1;
                visit(RowId(address(tid)), row);
            }
            Ok(())
        })?;
        Ok(candidates)
    }

    fn insert(&mut self, table: &str, rows: Vec<R>) -> Result<()> {
        self.table(table)?;
        let record = WalRecord::Insert {
            table: table.into(),
            rows: self.encode_all(&rows)?,
        };
        self.write(&record, Some(rows))
    }

    fn update(&mut self, table: &str, rows: Vec<(RowId, R)>) -> Result<()> {
        self.table(table)?;
        if rows.is_empty() {
            return Ok(());
        }
        let (at, rows): (Vec<u64>, Vec<R>) = rows.into_iter().map(|(id, row)| (id.0, row)).unzip();
        let record = WalRecord::Update {
            table: table.into(),
            rows: at.into_iter().zip(self.encode_all(&rows)?).collect(),
        };
        self.write(&record, Some(rows))
    }

    fn delete(&mut self, table: &str, rows: &[RowId]) -> Result<()> {
        self.table(table)?;
        if rows.is_empty() {
            return Ok(());
        }
        self.write(
            &WalRecord::Delete {
                table: table.into(),
                rows: rows.iter().map(|id| id.0).collect(),
            },
            None,
        )
    }

    fn rewrite(&mut self, table: &str, rows: Vec<R>) -> Result<()> {
        self.table(table)?;
        let record = WalRecord::Rewrite {
            table: table.into(),
            rows: self.encode_all(&rows)?,
        };
        self.write(&record, Some(rows))
    }

    fn begin(&mut self) -> Result<()> {
        if self.txn.is_some() {
            return Err(StoreError::TransactionOpen);
        }
        let id = self.next_txn;
        self.next_txn += 1;
        self.wal.append(&WalRecord::Begin { txn: id });
        self.txn = Some(OpenTxn {
            id,
            undo: Vec::new(),
        });
        Ok(())
    }

    fn commit(&mut self) -> Result<()> {
        let Some(txn) = self.txn.take() else {
            return Err(StoreError::NoTransaction);
        };
        self.wal.append(&WalRecord::Commit { txn: txn.id });
        self.wal.sync();
        // Tables the transaction displaced can no longer come back.
        for step in txn.undo {
            if let Undo::Table { prior: Some(t), .. } = step {
                self.free_chain(&t.pages);
            }
        }
        Ok(())
    }

    fn rollback(&mut self) -> Result<()> {
        let Some(txn) = self.txn.take() else {
            return Err(StoreError::NoTransaction);
        };
        // Undo the heap in memory. The log keeps the dead transaction's
        // records (some may already be durable, hardened by an earlier
        // commit's fsync); without a Commit, recovery discards them.
        for step in txn.undo.into_iter().rev() {
            self.revert(step)?;
        }
        Ok(())
    }

    fn in_txn(&self) -> bool {
        self.txn.is_some()
    }

    fn bytes(&self) -> u64 {
        let live: u64 = self.tables.values().map(|t| t.pages.len() as u64).sum();
        live * PAGE_SIZE as u64
    }

    fn state_digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for (name, t) in &self.tables {
            h = fnv1a_extend(h, name.as_bytes());
            h = fnv1a_extend(h, &t.meta);
            // Stored tuples are the codec's encoding of the rows.
            let scan = self.scan_tuples(name, &mut |_, tuple| {
                h = fnv1a_extend(h, tuple);
                Ok(())
            });
            if scan.is_err() {
                // Digest of unreadable state: poison deterministically.
                h = fnv1a_extend(h, b"<corrupt>");
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskFaults;
    use crate::mem::tests::PairCodec;
    use crate::mem::MemStore;
    use std::sync::Arc;

    type Row = (u64, String);

    fn open(disk: &VDisk, policy: RecoveryPolicy) -> PagedStore<Row, PairCodec> {
        PagedStore::open(disk.clone(), PairCodec, policy).unwrap()
    }

    fn rows(n: u64) -> Vec<Row> {
        (0..n).map(|i| (i % 7, format!("row-{i:04}"))).collect()
    }

    #[test]
    fn paged_matches_model_digest() {
        let disk = VDisk::new("d");
        let mut paged = open(&disk, RecoveryPolicy::ReplayForward);
        let mut mem = MemStore::new(PairCodec);
        for s in [&mut paged as &mut dyn Storage<Row>, &mut mem] {
            s.create_table("T", b"meta").unwrap();
            s.begin().unwrap();
            s.insert("T", rows(300)).unwrap();
            s.commit().unwrap();
            s.begin().unwrap();
            s.rewrite("T", rows(150)).unwrap();
            s.insert("T", vec![(99, "tail".into())]).unwrap();
            s.commit().unwrap();
        }
        assert_eq!(paged.state_digest(), mem.state_digest());
        assert_eq!(paged.row_count("T").unwrap(), mem.row_count("T").unwrap());
        // Scan order identical.
        let mut a = Vec::new();
        let mut b = Vec::new();
        paged.scan("T", &mut |r| a.push(r)).unwrap();
        mem.scan("T", &mut |r| b.push(r)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn lookup_candidates_match_the_model() {
        let disk = VDisk::new("d");
        let mut paged = open(&disk, RecoveryPolicy::ReplayForward);
        let mut mem = MemStore::new(PairCodec);
        for s in [&mut paged as &mut dyn Storage<Row>, &mut mem] {
            s.create_table("T", b"").unwrap();
            s.begin().unwrap();
            s.insert("T", rows(200)).unwrap();
            s.commit().unwrap();
            s.ensure_index("T").unwrap();
        }
        for key in 0u64..8 {
            let k = key.to_be_bytes();
            let mut a = Vec::new();
            let mut b = Vec::new();
            let na = paged.lookup("T", &k, &mut |r| a.push(r)).unwrap();
            let nb = mem.lookup("T", &k, &mut |r| b.push(r)).unwrap();
            assert_eq!(a, b, "candidate rows for key {key}");
            assert_eq!(na, nb, "candidate count for key {key}");
        }
    }

    #[test]
    fn restart_replays_committed_state() {
        let disk = VDisk::new("d");
        let digest = {
            let mut s = open(&disk, RecoveryPolicy::ReplayForward);
            s.create_table("T", b"meta").unwrap();
            s.begin().unwrap();
            s.insert("T", rows(500)).unwrap();
            s.commit().unwrap();
            s.state_digest()
        };
        disk.crash();
        let s = open(&disk, RecoveryPolicy::ReplayForward);
        assert_eq!(s.state_digest(), digest);
        // The explicit txn, and the one the standalone CREATE ran in.
        assert_eq!(s.recovery_stats().committed_txns, 2);
        assert_eq!(s.table_meta("T").unwrap(), b"meta");
    }

    /// A write outside any transaction after a rollback survives a
    /// reopen, and a crash: it runs in a transaction of its own, so replay
    /// cannot file it under the rolled-back one.
    #[test]
    fn a_standalone_write_after_a_rollback_survives_a_reopen() {
        let disk = VDisk::new("d");
        let mut s = open(&disk, RecoveryPolicy::ReplayForward);
        s.create_table("T", b"").unwrap();
        s.begin().unwrap();
        s.insert("T", rows(1)).unwrap();
        s.rollback().unwrap();
        s.insert("T", rows(1)).unwrap();
        let live = (s.row_count("T").unwrap(), s.state_digest());
        assert_eq!(live.0, 1);
        drop(s);
        let s = open(&disk, RecoveryPolicy::ReplayForward);
        assert_eq!((s.row_count("T").unwrap(), s.state_digest()), live);
        drop(s);
        disk.crash();
        let s = open(&disk, RecoveryPolicy::ShadowDiscard);
        assert_eq!((s.row_count("T").unwrap(), s.state_digest()), live);
    }

    #[test]
    fn uncommitted_transaction_dies_with_the_crash() {
        let disk = VDisk::new("d");
        let digest = {
            let mut s = open(&disk, RecoveryPolicy::ReplayForward);
            s.create_table("T", b"").unwrap();
            s.begin().unwrap();
            s.insert("T", rows(10)).unwrap();
            s.commit().unwrap();
            let committed = s.state_digest();
            s.begin().unwrap();
            s.insert("T", vec![(999, "phantom".into())]).unwrap();
            committed
        };
        disk.crash();
        for policy in [RecoveryPolicy::ReplayForward, RecoveryPolicy::ShadowDiscard] {
            let s = open(&disk, policy);
            assert_eq!(s.state_digest(), digest, "{policy:?}");
        }
    }

    #[test]
    fn rollback_restores_pre_transaction_state() {
        let disk = VDisk::new("d");
        let mut s = open(&disk, RecoveryPolicy::ReplayForward);
        s.create_table("T", b"").unwrap();
        s.begin().unwrap();
        s.insert("T", rows(50)).unwrap();
        s.commit().unwrap();
        let digest = s.state_digest();
        s.begin().unwrap();
        s.rewrite("T", rows(3)).unwrap();
        s.drop_table("T").unwrap();
        s.create_table("U", b"").unwrap();
        s.rollback().unwrap();
        assert_eq!(s.state_digest(), digest);
        assert_eq!(s.table_names(), vec!["T".to_string()]);
    }

    /// `(address, row)` of every row `keep` accepts, in scan order.
    fn addresses(
        s: &dyn Storage<Row>,
        table: &str,
        keep: impl Fn(&Row) -> bool,
    ) -> Vec<(RowId, Row)> {
        let mut out = Vec::new();
        s.scan_rows(table, &mut |at, row| {
            if keep(&row) {
                out.push((at, row));
            }
        })
        .unwrap();
        out
    }

    fn scan(s: &dyn Storage<Row>, table: &str) -> Vec<Row> {
        addresses(s, table, |_| true)
            .into_iter()
            .map(|(_, r)| r)
            .collect()
    }

    /// Deletes, then same-size, shrinking and (within what the deletes
    /// freed) growing updates, addressed from a scan so both engines see
    /// the same statement.
    fn churn(s: &mut dyn Storage<Row>) {
        s.begin().unwrap();
        let doomed: Vec<RowId> = addresses(s, "T", |r| r.1.ends_with('7'))
            .into_iter()
            .map(|(at, _)| at)
            .collect();
        s.delete("T", &doomed).unwrap();
        let hits = addresses(s, "T", |r| r.1.ends_with('3'));
        let updates = hits
            .into_iter()
            .enumerate()
            .map(|(i, (at, (k, text)))| {
                let text = match i % 3 {
                    0 => text.to_uppercase(),
                    1 => "x".into(),
                    _ => format!("{text}-grown"),
                };
                (at, (k, text))
            })
            .collect();
        s.update("T", updates).unwrap();
        s.insert("T", vec![(3, "after-the-churn".into())]).unwrap();
        s.commit().unwrap();
    }

    #[test]
    fn row_addressed_writes_match_the_model_and_replay() {
        let disk = VDisk::new("d");
        let mut paged = open(&disk, RecoveryPolicy::ReplayForward);
        let mut mem = MemStore::new(PairCodec);
        for (engine, s) in [
            ("paged", &mut paged as &mut dyn Storage<Row>),
            ("model", &mut mem),
        ] {
            s.create_table("T", b"meta").unwrap();
            s.begin().unwrap();
            s.insert("T", rows(400)).unwrap();
            s.commit().unwrap();
            s.ensure_index("T").unwrap();
            churn(s);
            churn(s);
            assert!(s.has_index("T"), "{engine}: key-preserving writes keep it");
        }
        assert_eq!(scan(&paged, "T"), scan(&mem, "T"));
        assert_eq!(paged.state_digest(), mem.state_digest());
        assert_eq!(paged.row_count("T").unwrap(), mem.row_count("T").unwrap());
        assert_eq!(paged.row_count("T").unwrap(), scan(&mem, "T").len() as u64);
        // Updated rows kept their place: keys still run 0..7 cyclically
        // wherever a row survives.
        for key in 0u64..8 {
            let k = key.to_be_bytes();
            let (mut a, mut b) = (Vec::new(), Vec::new());
            let na = paged.lookup("T", &k, &mut |r| a.push(r)).unwrap();
            let nb = mem.lookup("T", &k, &mut |r| b.push(r)).unwrap();
            assert_eq!(a, b, "candidates for key {key}");
            assert_eq!(
                (na, nb),
                (a.len() as u64, a.len() as u64),
                "dead entries not counted"
            );
        }
        // The Update/Delete records address the same rows after a restart.
        let digest = paged.state_digest();
        drop(paged);
        disk.crash();
        for policy in [RecoveryPolicy::ReplayForward, RecoveryPolicy::ShadowDiscard] {
            assert_eq!(open(&disk, policy).state_digest(), digest, "{policy:?}");
        }
    }

    #[test]
    fn a_row_that_outgrows_its_page_keeps_its_scan_position() {
        let disk = VDisk::new("d");
        let mut paged = open(&disk, RecoveryPolicy::ReplayForward);
        let mut mem = MemStore::new(PairCodec);
        for s in [&mut paged as &mut dyn Storage<Row>, &mut mem] {
            s.create_table("T", b"").unwrap();
            s.begin().unwrap();
            s.insert("T", rows(300)).unwrap();
            s.commit().unwrap();
            s.begin().unwrap();
            // Two growing rows on one (full) page, a third further on: the
            // first no longer fits, the rest ride the same rebuild.
            let updates = addresses(s, "T", |r| {
                ["row-0005", "row-0009", "row-0250"].contains(&&*r.1)
            })
            .into_iter()
            .map(|(at, (k, text))| (at, (k, text.repeat(200))))
            .collect();
            s.update("T", updates).unwrap();
            s.commit().unwrap();
            // Addresses were reassigned; fresh ones work.
            s.begin().unwrap();
            let again = addresses(s, "T", |r| r.1 == "row-0010")
                .into_iter()
                .map(|(at, (k, _))| (at, (k, "ten".to_string())))
                .collect();
            s.update("T", again).unwrap();
            s.commit().unwrap();
        }
        let seen = scan(&paged, "T");
        assert_eq!(seen, scan(&mem, "T"));
        assert_eq!(seen[5].1, "row-0005".repeat(200));
        assert_eq!(seen[10].1, "ten");
        assert_eq!(seen[250].1, "row-0250".repeat(200));
        let digest = paged.state_digest();
        assert_eq!(digest, mem.state_digest());
        drop(paged);
        disk.crash();
        assert_eq!(
            open(&disk, RecoveryPolicy::ShadowDiscard).state_digest(),
            digest
        );
        // A row no page can hold is still the paged engine's own error.
        let mut paged = open(&disk, RecoveryPolicy::ReplayForward);
        let (at, (k, _)) = addresses(&paged, "T", |_| true).swap_remove(0);
        assert!(matches!(
            paged.update("T", vec![(at, (k, "x".repeat(PAGE_SIZE)))]),
            Err(StoreError::TupleTooLarge { .. })
        ));
        assert_eq!(paged.state_digest(), digest);
    }

    #[test]
    fn rollback_undoes_exactly_what_the_transaction_touched() {
        let disk = VDisk::new("d");
        let mut paged = open(&disk, RecoveryPolicy::ReplayForward);
        let mut mem = MemStore::new(PairCodec);
        for (engine, s) in [
            ("paged", &mut paged as &mut dyn Storage<Row>),
            ("model", &mut mem),
        ] {
            s.create_table("T", b"t").unwrap();
            s.create_table("U", b"u").unwrap();
            s.begin().unwrap();
            s.insert("T", rows(200)).unwrap();
            s.insert("U", rows(10)).unwrap();
            s.commit().unwrap();
            s.ensure_index("T").unwrap();
            let before = (s.state_digest(), s.bytes(), s.row_count("T").unwrap());

            s.begin().unwrap();
            s.insert("T", rows(150)).unwrap();
            let updates = addresses(s, "T", |r| r.0 == 2)
                .into_iter()
                .enumerate()
                .map(|(i, (at, (k, text)))| {
                    // One rekeyed, one outgrowing its page, the rest in place.
                    let row = match i {
                        0 => (k + 100, text),
                        1 => (k, text.repeat(300)),
                        _ => (k, format!("{text}!")),
                    };
                    (at, row)
                })
                .collect();
            s.update("T", updates).unwrap();
            let doomed: Vec<RowId> = addresses(s, "T", |r| r.0 == 4)
                .into_iter()
                .map(|(at, _)| at)
                .collect();
            s.delete("T", &doomed).unwrap();
            s.insert("T", vec![(4, "late".into())]).unwrap();
            let all: Vec<RowId> = addresses(s, "U", |_| true)
                .into_iter()
                .map(|(at, _)| at)
                .collect();
            s.delete("U", &all).unwrap();
            assert_eq!(s.row_count("U").unwrap(), 0);
            s.drop_table("U").unwrap();
            s.create_table("V", b"v").unwrap();
            s.insert("V", rows(5)).unwrap();
            s.rollback().unwrap();

            assert_eq!(
                (s.state_digest(), s.bytes(), s.row_count("T").unwrap()),
                before,
                "{engine}"
            );
            assert_eq!(s.table_names(), ["T", "U"], "{engine}");
            assert_eq!(s.table_meta("U").unwrap(), b"u", "{engine}");
            assert_eq!(scan(s, "U"), rows(10), "{engine}");
            // The next transaction addresses rows as if the rolled-back one
            // had never run — which is what replay will assume.
            s.ensure_index("T").unwrap();
            churn(s);
        }
        assert_eq!(paged.state_digest(), mem.state_digest());
        assert_eq!(scan(&paged, "T"), scan(&mem, "T"));
        let digest = paged.state_digest();
        drop(paged);
        disk.crash();
        assert_eq!(
            open(&disk, RecoveryPolicy::ReplayForward).state_digest(),
            digest
        );
    }

    /// An index first built between a DELETE and its ROLLBACK was built
    /// from live tuples only; the rows the rollback revives must still be
    /// found through whatever index serves the next lookup.
    #[test]
    fn an_index_built_mid_transaction_does_not_outlive_a_rolled_back_delete() {
        let disk = VDisk::new("d");
        let mut paged = open(&disk, RecoveryPolicy::ReplayForward);
        let mut mem = MemStore::new(PairCodec);
        for (engine, s) in [
            ("paged", &mut paged as &mut dyn Storage<Row>),
            ("model", &mut mem),
        ] {
            s.create_table("T", b"").unwrap();
            s.begin().unwrap();
            s.insert("T", rows(100)).unwrap();
            s.commit().unwrap();
            assert!(!s.has_index("T"), "{engine}");
            let key = 4u64.to_be_bytes();
            let mut committed = Vec::new();
            s.lookup("T", &key, &mut |r| committed.push(r)).unwrap();
            assert_eq!(committed.len(), 14, "{engine}");

            s.begin().unwrap();
            let doomed: Vec<RowId> = addresses(s, "T", |r| r.0 == 4)
                .into_iter()
                .map(|(at, _)| at)
                .collect();
            s.delete("T", &doomed).unwrap();
            s.ensure_index("T").unwrap();
            assert_eq!(s.lookup("T", &key, &mut |_| {}).unwrap(), 0, "{engine}");
            s.rollback().unwrap();

            for pass in ["as rolled back", "index rebuilt"] {
                let mut seen = Vec::new();
                let n = s.lookup("T", &key, &mut |r| seen.push(r)).unwrap();
                assert_eq!(seen, committed, "{engine}, {pass}");
                assert_eq!(n, 14, "{engine}, {pass}");
                s.ensure_index("T").unwrap();
            }
            assert_eq!(s.row_count("T").unwrap(), 100, "{engine}");
        }
        assert_eq!(paged.state_digest(), mem.state_digest());
    }

    #[test]
    fn a_log_with_legacy_rewrite_records_still_replays() {
        let encode = |rows: &[Row]| -> Vec<Vec<u8>> {
            rows.iter()
                .map(|r| {
                    let mut out = Vec::new();
                    PairCodec.encode(r, &mut out);
                    out
                })
                .collect()
        };
        let kept: Vec<Row> = rows(40).into_iter().filter(|r| r.0 != 3).collect();
        let disk = VDisk::new("d");
        let wal = Wal::new(disk.clone(), WAL_FILE);
        let txns = [
            vec![WalRecord::CreateTable {
                table: "T".into(),
                meta: b"m".to_vec(),
            }],
            vec![WalRecord::Insert {
                table: "T".into(),
                rows: encode(&rows(40)),
            }],
            // What an UPDATE/DELETE logged before this engine addressed rows.
            vec![WalRecord::Rewrite {
                table: "T".into(),
                rows: encode(&kept),
            }],
            // ...followed by one from after: address 1 is the rewritten
            // chain's second row.
            vec![WalRecord::Update {
                table: "T".into(),
                rows: vec![(1, encode(&[(1, "new".into())]).remove(0))],
            }],
        ];
        for (txn, ops) in (1u64..).zip(txns) {
            wal.append(&WalRecord::Begin { txn });
            for op in &ops {
                wal.append(op);
            }
            wal.append(&WalRecord::Commit { txn });
        }
        wal.sync();
        let s = open(&disk, RecoveryPolicy::ShadowDiscard);
        assert_eq!(s.recovery_stats().committed_txns, 4);
        let mut want = kept;
        want[1] = (1, "new".into());
        assert_eq!(scan(&s, "T"), want);
    }

    struct TruncateFirstCrash;
    impl DiskFaults for TruncateFirstCrash {
        fn truncate_tail(&self, _d: &str, _f: &str, seq: u64) -> bool {
            seq == 0
        }
    }

    /// The divergence recipe: commit a transaction, then crash with the
    /// tail-truncation fault armed so the durable log ends mid-Commit.
    fn torn_commit_disk() -> (VDisk, u64, u64) {
        let disk = VDisk::with_faults("d", Arc::new(TruncateFirstCrash));
        let (with_marker, without_marker) = {
            let mut s = open(&disk, RecoveryPolicy::ReplayForward);
            s.create_table("T", b"").unwrap();
            s.begin().unwrap();
            s.insert("T", rows(10)).unwrap();
            s.commit().unwrap();
            let without = s.state_digest();
            s.begin().unwrap();
            s.insert("T", vec![(42, "marker".into())]).unwrap();
            s.commit().unwrap(); // this Commit record gets torn at crash
            (s.state_digest(), without)
        };
        disk.crash();
        (disk, with_marker, without_marker)
    }

    #[test]
    fn recovery_policies_diverge_on_torn_commit() {
        // Two independent, deterministically-identical disks: recovery
        // repairs the log, so the policies must not share one.
        let (disk_fwd, with_marker, without_marker) = torn_commit_disk();
        let forward = open(&disk_fwd, RecoveryPolicy::ReplayForward);
        assert!(forward.recovery_stats().honoured_torn_commit);
        assert_eq!(forward.state_digest(), with_marker);

        let (disk_shadow, _, _) = torn_commit_disk();
        let shadow = open(&disk_shadow, RecoveryPolicy::ShadowDiscard);
        assert!(!shadow.recovery_stats().honoured_torn_commit);
        assert!(shadow.recovery_stats().torn_tail);
        assert_eq!(shadow.state_digest(), without_marker);
        assert_ne!(with_marker, without_marker);
    }

    #[test]
    fn replay_forward_recovery_is_stable_across_restarts() {
        let (disk, with_marker, _) = torn_commit_disk();
        let first = open(&disk, RecoveryPolicy::ReplayForward);
        assert_eq!(first.state_digest(), with_marker);
        drop(first);
        // Second recovery sees the re-logged clean Commit: same state, no
        // torn tail this time.
        disk.crash();
        let second = open(&disk, RecoveryPolicy::ReplayForward);
        assert_eq!(second.state_digest(), with_marker);
        assert!(!second.recovery_stats().torn_tail);
    }

    /// The engine rule for a row no heap page can hold: INSERT, UPDATE and
    /// `rewrite` fail with `TupleTooLarge` before anything is logged, and the
    /// store is left as it was.
    #[test]
    fn oversize_tuple_is_rejected_and_leaves_the_store_unchanged() {
        let disk = VDisk::new("d");
        let mut paged = open(&disk, RecoveryPolicy::ReplayForward);
        paged.create_table("T", b"").unwrap();
        paged.insert("T", rows(3)).unwrap();
        let (digest, wal_len) = (paged.state_digest(), disk.len(WAL_FILE));
        let big = (1u64, "x".repeat(Page::max_tuple() + 100));
        let at = addresses(&paged, "T", |_| true)[0].0;
        for result in [
            paged.insert("T", vec![big.clone()]),
            paged.update("T", vec![(at, big.clone())]),
            paged.rewrite("T", vec![big]),
        ] {
            assert!(
                matches!(result, Err(StoreError::TupleTooLarge { .. })),
                "{result:?}"
            );
        }
        assert_eq!(paged.state_digest(), digest);
        assert_eq!(paged.row_count("T").unwrap(), 3);
        assert_eq!(disk.len(WAL_FILE), wal_len, "nothing reached the log");
    }

    #[test]
    fn buffer_pool_pressure_does_not_change_results() {
        let disk = VDisk::new("d");
        let mut tiny =
            PagedStore::open_with_frames(disk.clone(), PairCodec, RecoveryPolicy::ReplayForward, 2)
                .unwrap();
        tiny.create_table("T", b"").unwrap();
        tiny.begin().unwrap();
        tiny.insert("T", rows(2_000)).unwrap();
        tiny.commit().unwrap();
        let digest = tiny.state_digest();
        assert!(tiny.pool_stats().evictions > 0, "pool actually thrashed");

        let disk2 = VDisk::new("d2");
        let mut roomy =
            PagedStore::open_with_frames(disk2, PairCodec, RecoveryPolicy::ReplayForward, 1_024)
                .unwrap();
        roomy.create_table("T", b"").unwrap();
        roomy.begin().unwrap();
        roomy.insert("T", rows(2_000)).unwrap();
        roomy.commit().unwrap();
        assert_eq!(roomy.state_digest(), digest);
    }

    #[test]
    fn autocommit_writes_leave_the_heap_file_alone() {
        // A table that fits the default pool: commits write the WAL, and
        // no dirty page goes back to the heap file until it is evicted.
        let disk = VDisk::new("d");
        let mut paged = open(&disk, RecoveryPolicy::ReplayForward);
        paged.create_table("T", b"meta").unwrap();
        paged.begin().unwrap();
        paged.insert("T", rows(2_000)).unwrap();
        paged.commit().unwrap();
        let targets = addresses(&paged, "T", |_| true);
        let (before, heap_len) = (paged.pool_stats(), disk.len(HEAP_FILE));
        for (i, (at, (key, _))) in targets.iter().step_by(10).take(200).enumerate() {
            paged.begin().unwrap();
            paged
                .update("T", vec![(*at, (*key, format!("upd-{i:04}")))])
                .unwrap();
            paged.commit().unwrap();
        }
        let after = paged.pool_stats();
        assert_eq!(after.evictions, before.evictions, "the table fits the pool");
        assert_eq!(after.writebacks - before.writebacks, 0, "{after:?}");
        assert_eq!(disk.len(HEAP_FILE), heap_len);
        // Durability is the WAL's: the crash loses nothing committed.
        let digest = paged.state_digest();
        drop(paged);
        disk.crash();
        assert_eq!(
            open(&disk, RecoveryPolicy::ReplayForward).state_digest(),
            digest
        );
    }

    /// The model property's tables: three, so DDL and writes interleave.
    const MODEL_TABLES: [&str; 3] = ["T0", "T1", "T2"];

    /// The steps of the model property's op stream.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum ModelOp {
        Create,
        Drop,
        Insert,
        Update,
        Delete,
        Rewrite,
        Index,
        Begin,
        /// Commit, or one time in four roll back.
        End,
        /// A DELETE, then an index built over what is left, inside a
        /// transaction (opened here unless one is) that later ops end.
        DeleteThenIndex,
    }

    /// How often each op is drawn: mostly row writes, so tables grow to
    /// several pages, with DDL and transaction verbs in between.
    const MODEL_MIX: [ModelOp; 34] = {
        use ModelOp::*;
        [
            Create,
            Create,
            Create,
            Drop,
            Insert,
            Insert,
            Insert,
            Insert,
            Insert,
            Insert,
            Insert,
            Insert,
            Insert,
            Update,
            Update,
            Update,
            Update,
            Update,
            Delete,
            Delete,
            Delete,
            Rewrite,
            Rewrite,
            Index,
            Index,
            Begin,
            Begin,
            Begin,
            End,
            End,
            End,
            DeleteThenIndex,
            DeleteThenIndex,
            DeleteThenIndex,
        ]
    };

    /// A fresh row for the model property, numbered `n` so every row is
    /// distinct: keys in `0..8`, so a lookup has several candidates, and
    /// text of 1 to 900 bytes, so a page holds a few rows and a 4-frame
    /// pool evicts.
    fn model_row(n: &mut u64, bits: u64) -> Row {
        *n += 1;
        let len = [1, 12, 120, 900][(bits >> 3 & 3) as usize];
        (bits % 8, format!("{n}:{}", "m".repeat(len)))
    }

    /// Up to `k` distinct scan positions of a `len`-row table, ascending,
    /// drawn from `bits`.
    fn model_positions(len: usize, bits: u64, k: usize) -> Vec<usize> {
        if len == 0 {
            return Vec::new();
        }
        let step = 1 + (bits >> 16) as usize % 5;
        let mut at: Vec<usize> = (0..k.min(len))
            .map(|i| (bits as usize + i * step) % len)
            .collect();
        at.sort_unstable();
        at.dedup();
        at
    }

    /// The addresses `s` hands out for the rows at `positions` of its scan.
    fn model_ids(s: &dyn Storage<Row>, table: &str, positions: &[usize]) -> Vec<RowId> {
        if positions.is_empty() {
            return Vec::new();
        }
        let all = addresses(s, table, |_| true);
        positions.iter().map(|&i| all[i].0).collect()
    }

    /// Everything the executor can observe of a store: tables, their
    /// catalog blobs, scans, per-key lookup candidates with their counts,
    /// row counts, the open transaction and the digest.
    fn observe(s: &dyn Storage<Row>) -> String {
        let mut out = format!("txn={} digest={:x}\n", s.in_txn(), s.state_digest());
        for table in s.table_names() {
            out += &format!(
                "{table} meta={:?} rows={:?} scan={:?}\n",
                s.table_meta(&table),
                s.row_count(&table),
                scan(s, &table)
            );
            for key in 0u64..8 {
                let mut seen = Vec::new();
                let n = s.lookup(&table, &key.to_be_bytes(), &mut |r| seen.push(r));
                out += &format!("  {key}: {n:?} {seen:?}\n");
            }
        }
        out
    }

    /// One generated op; `bits` picks its table, rows and targets.
    /// Row-addressed ops name rows by scan position, so both stores get
    /// the same statement.
    fn model_op(s: &mut dyn Storage<Row>, op: ModelOp, bits: u64) -> Result<()> {
        let table = MODEL_TABLES[(bits >> 40) as usize % MODEL_TABLES.len()];
        let mut n = bits >> 24 & 0xFFFF;
        let len = s.row_count(table).map_or(0, |rows| rows as usize);
        let k = 1 + (bits >> 12) as usize % 6;
        match op {
            ModelOp::Create => s.create_table(table, table.as_bytes()),
            ModelOp::Drop => s.drop_table(table),
            ModelOp::Insert => s.insert(
                table,
                (0..k).map(|i| model_row(&mut n, bits >> i)).collect(),
            ),
            ModelOp::Update => {
                let at = model_positions(len, bits, k);
                let ids = model_ids(s, table, &at);
                let mut rows = Vec::new();
                s.scan(table, &mut |r| rows.push(r))?;
                let updates = ids
                    .into_iter()
                    .zip(at)
                    .enumerate()
                    .map(|(i, (id, at))| {
                        let (key, text) = rows[at].clone();
                        // Same size, shrunk, grown past its page, rekeyed.
                        let row = match (bits >> (2 * i + 20)) & 3 {
                            0 => (key, text.to_uppercase()),
                            1 => (key, "s".into()),
                            2 => (key, text.repeat(3).chars().take(3_000).collect()),
                            _ => ((key + 1) % 8, text),
                        };
                        (id, row)
                    })
                    .collect();
                s.update(table, updates)
            }
            ModelOp::Delete => {
                let ids = model_ids(s, table, &model_positions(len, bits, k));
                s.delete(table, &ids)
            }
            ModelOp::Rewrite => s.rewrite(
                table,
                (0..k).map(|i| model_row(&mut n, bits >> (i + 5))).collect(),
            ),
            ModelOp::Index => s.ensure_index(table),
            ModelOp::Begin => s.begin(),
            ModelOp::End if bits & 3 != 0 => s.commit(),
            ModelOp::End => s.rollback(),
            ModelOp::DeleteThenIndex => {
                if !s.in_txn() {
                    s.begin()?;
                }
                let ids = model_ids(s, table, &model_positions(len, bits, k));
                if !ids.is_empty() {
                    s.delete(table, &ids)?;
                }
                s.ensure_index(table)
            }
        }
    }

    proptest::proptest! {
        /// The paged engine on a 4-frame pool observes exactly what the
        /// in-memory model does after every op of a generated stream, and
        /// a reopen replays the log to the model's final state.
        #[test]
        fn paged_store_matches_the_model(
            ops in proptest::collection::vec(
                (0..MODEL_MIX.len(), proptest::prelude::any::<u64>()),
                1..120,
            )
        ) {
            let disk = VDisk::new("model");
            let open = |disk: &VDisk| {
                PagedStore::open_with_frames(
                    disk.clone(),
                    PairCodec,
                    RecoveryPolicy::ReplayForward,
                    4,
                )
            };
            let mut paged = open(&disk).unwrap();
            let mut model = MemStore::new(PairCodec);
            for s in [&mut paged as &mut dyn Storage<Row>, &mut model] {
                s.begin().unwrap();
                for (t, table) in (0u64..).zip(MODEL_TABLES) {
                    s.create_table(table, table.as_bytes()).unwrap();
                    s.insert(table, (0..12).map(|i| model_row(&mut (t * 100), i * 9)).collect())
                        .unwrap();
                }
                s.commit().unwrap();
            }
            for (i, &(pick, bits)) in ops.iter().enumerate() {
                let op = MODEL_MIX[pick];
                // Row-addressed writes need rows to address: an empty one
                // is a no-op whose return the engines need not agree on.
                let table = MODEL_TABLES[(bits >> 40) as usize % MODEL_TABLES.len()];
                if matches!(op, ModelOp::Update | ModelOp::Delete)
                    && model.row_count(table).map_or(true, |rows| rows == 0)
                {
                    continue;
                }
                let want = model_op(&mut model, op, bits);
                let got = model_op(&mut paged, op, bits);
                proptest::prop_assert_eq!(&got, &want, "op {} {:?} {:#x}", i, op, bits);
                proptest::prop_assert_eq!(
                    observe(&paged),
                    observe(&model),
                    "after op {} {:?} {:#x}",
                    i,
                    op,
                    bits
                );
            }
            if model.in_txn() {
                model.rollback().unwrap();
                paged.rollback().unwrap();
            }
            drop(paged);
            proptest::prop_assert_eq!(open(&disk).unwrap().state_digest(), model.state_digest());
        }
    }

    #[test]
    fn same_seed_replay_is_byte_identical() {
        let run = || {
            let disk = VDisk::new("d");
            let mut s = open(&disk, RecoveryPolicy::ReplayForward);
            s.create_table("T", b"m").unwrap();
            s.begin().unwrap();
            s.insert("T", rows(100)).unwrap();
            s.commit().unwrap();
            disk.crash();
            let s = open(&disk, RecoveryPolicy::ReplayForward);
            (
                s.state_digest(),
                disk.read(WAL_FILE, 0, disk.len(WAL_FILE) as usize),
            )
        };
        let (d1, wal1) = run();
        let (d2, wal2) = run();
        assert_eq!(d1, d2);
        assert_eq!(
            wal1, wal2,
            "WAL images byte-identical across same-seed runs"
        );
    }
}
