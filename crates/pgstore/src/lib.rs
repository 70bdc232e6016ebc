//! A paged storage engine for MiniPg, built so that *recovery itself* is a
//! divergence surface RDDR can vote on.
//!
//! The paper's evaluation treats its N-versioned databases as opaque; this
//! crate opens the box. [`PagedStore`] keeps slotted heap pages ([`page`])
//! behind a fixed-size buffer pool with deterministic clock eviction
//! ([`pool`]), a write-ahead log with commit records ([`wal`]), and a
//! B+Tree primary-key index ([`btree`]), all on a simulated crash-faulty
//! disk ([`disk::VDisk`]). Restart replays the WAL, so a respawned instance
//! rejoins with its committed state — and *how* it treats a torn log tail
//! is a [`RecoveryPolicy`] that diverse versions may disagree on. The
//! executor runs against the [`Storage`] trait, which the unit tests'
//! in-memory reference model also implements.
//!
//! Writes are row-addressed: a scan or lookup hands out a [`RowId`] with
//! each row, and [`Storage::update`] / [`Storage::delete`] touch only the
//! rows named. A row keeps its scan position for life — an UPDATE replaces
//! it where it is, a DELETE leaves a tombstone — and a transaction
//! remembers only the before-images of what it touched.
//!
//! The deliberate divergence corner is a **torn WAL tail ending in a
//! commit record**: [`RecoveryPolicy::ReplayForward`] trusts the readable
//! commit kind byte and applies the transaction;
//! [`RecoveryPolicy::ShadowDiscard`] discards any transaction whose commit
//! record does not verify. Same bytes, two honest recoveries, different
//! states — exactly the rarely-exercised corner where independently-written
//! engines disagree. A row larger than a heap page fails cleanly with
//! [`StoreError::TupleTooLarge`].
//!
//! The crate is dependency-free (the `parking_lot` shim is the workspace's
//! mandated lock type) and fully deterministic: no wall-clock, no hash
//! maps, no randomness. Fault injection enters only through the
//! [`disk::DiskFaults`] hook, which `rddr-pgsim` adapts to the seeded
//! `rddr-net` fault plan.

pub mod btree;
pub mod disk;
#[cfg(test)]
mod mem;
pub mod page;
pub mod paged;
pub mod pool;
pub mod wal;

pub use btree::{BTree, TupleId};
pub use disk::{DiskFaults, NoFaults, VDisk};
pub use page::{Page, PAGE_SIZE};
pub use paged::{PagedStore, RecoveryStats};
pub use pool::BufferPool;
pub use wal::{RecoveryPolicy, Wal, WalRecord};

use std::fmt;

/// Errors produced by the storage layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The named table does not exist in the store.
    NoSuchTable(String),
    /// The named table already exists in the store.
    TableExists(String),
    /// An encoded tuple exceeds the heap page capacity.
    TupleTooLarge {
        /// Encoded tuple size.
        bytes: usize,
        /// Largest tuple a heap page can hold.
        max: usize,
    },
    /// On-disk state failed validation (checksum mismatch, bad framing).
    Corrupt(String),
    /// `commit`/`rollback` without an open transaction.
    NoTransaction,
    /// `begin` while a transaction is already open.
    TransactionOpen,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::NoSuchTable(t) => write!(f, "no such table {t}"),
            StoreError::TableExists(t) => write!(f, "table {t} already exists"),
            StoreError::TupleTooLarge { bytes, max } => {
                write!(f, "tuple of {bytes} bytes exceeds page capacity {max}")
            }
            StoreError::Corrupt(why) => write!(f, "corrupt storage: {why}"),
            StoreError::NoTransaction => write!(f, "no transaction in progress"),
            StoreError::TransactionOpen => write!(f, "a transaction is already in progress"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, StoreError>;

fn no_such_table(table: &str) -> StoreError {
    StoreError::NoSuchTable(table.into())
}

/// How rows of the host's tuple type map to bytes and index keys.
///
/// The storage engine is generic over the tuple type `R`; the codec
/// supplies its serialization and the primary-key bytes it indexes by.
pub trait TupleCodec<R>: Send {
    /// Serializes a row (heap + WAL representation).
    fn encode(&self, row: &R, out: &mut Vec<u8>);
    /// Deserializes a row.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Corrupt`] when the bytes are not a valid row.
    fn decode(&self, bytes: &[u8]) -> Result<R>;
    /// The primary-key bytes for the index (the first column's grouping
    /// key, in the host's semantics).
    fn key(&self, row: &R) -> Vec<u8>;
}

/// Where a row lives inside its table, as handed out by
/// [`Storage::scan_rows`] and [`Storage::lookup_rows`]. Opaque to callers;
/// ordered like the scan. `insert` and `delete` never move a row, so an
/// address stays good across them; `update` (a row may outgrow its page)
/// and `rewrite` may reassign a table's addresses, so take fresh ones from
/// a scan after either.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct RowId(pub(crate) u64);

/// The storage contract MiniPg's executor runs against.
///
/// [`Storage::scan`] preserves insertion order and [`Storage::lookup`]
/// per-key candidate order; the wire answers depend on both.
/// Transactions are serialized (one open at a time, as the executor holds
/// the database lock); `begin`/`commit`/`rollback` back the SQL
/// transaction verbs. The executor wraps each standalone mutation in an
/// implicit transaction, and the paged engine runs a write made outside
/// one in a transaction of its own, so every change reaches the WAL under
/// the transaction it belongs to.
pub trait Storage<R>: Send {
    /// Creates a table. `meta` is an opaque catalog blob (column
    /// definitions, owner) that recovery hands back via
    /// [`Storage::table_meta`] so the executor can rebuild its catalog.
    ///
    /// # Errors
    ///
    /// [`StoreError::TableExists`] if the table already exists.
    fn create_table(&mut self, table: &str, meta: &[u8]) -> Result<()>;

    /// Drops a table and its rows.
    ///
    /// # Errors
    ///
    /// [`StoreError::NoSuchTable`] if the table does not exist.
    fn drop_table(&mut self, table: &str) -> Result<()>;

    /// Names of all tables, sorted.
    fn table_names(&self) -> Vec<String>;

    /// The catalog blob the table was created with, if it exists.
    fn table_meta(&self, table: &str) -> Option<Vec<u8>>;

    /// Number of stored rows.
    ///
    /// # Errors
    ///
    /// [`StoreError::NoSuchTable`] if the table does not exist.
    fn row_count(&self, table: &str) -> Result<u64>;

    /// Visits every row, with its address, in insertion order.
    ///
    /// # Errors
    ///
    /// [`StoreError::NoSuchTable`] / [`StoreError::Corrupt`].
    fn scan_rows(&self, table: &str, visit: &mut dyn FnMut(RowId, R)) -> Result<()>;

    /// [`Storage::scan_rows`] without the addresses.
    ///
    /// # Errors
    ///
    /// [`StoreError::NoSuchTable`] / [`StoreError::Corrupt`].
    fn scan(&self, table: &str, visit: &mut dyn FnMut(R)) -> Result<()> {
        self.scan_rows(table, &mut |_, row| visit(row))
    }

    /// Builds the primary-key index if it is not already present.
    ///
    /// # Errors
    ///
    /// [`StoreError::NoSuchTable`] / [`StoreError::Corrupt`].
    fn ensure_index(&mut self, table: &str) -> Result<()>;

    /// Whether the primary-key index is currently built.
    fn has_index(&self, table: &str) -> bool;

    /// Visits the rows whose primary key matches `key`, with their
    /// addresses, in insertion order, returning how many candidates were
    /// visited (the executor's scan-cost charge). Falls back to a filtered
    /// scan when no index is built — the candidate set (and therefore the
    /// charge) is identical.
    ///
    /// # Errors
    ///
    /// [`StoreError::NoSuchTable`] / [`StoreError::Corrupt`].
    fn lookup_rows(&self, table: &str, key: &[u8], visit: &mut dyn FnMut(RowId, R)) -> Result<u64>;

    /// [`Storage::lookup_rows`] without the addresses.
    ///
    /// # Errors
    ///
    /// [`StoreError::NoSuchTable`] / [`StoreError::Corrupt`].
    fn lookup(&self, table: &str, key: &[u8], visit: &mut dyn FnMut(R)) -> Result<u64> {
        self.lookup_rows(table, key, &mut |_, row| visit(row))
    }

    /// Appends rows in order, maintaining the index if built.
    ///
    /// # Errors
    ///
    /// [`StoreError::NoSuchTable`] / [`StoreError::TupleTooLarge`].
    fn insert(&mut self, table: &str, rows: Vec<R>) -> Result<()>;

    /// Replaces each addressed row with the row paired with it. Every row
    /// of the table keeps its scan position. The index survives unless a
    /// row's key changed. A row that outgrows its page makes the engine
    /// rebuild that table's chain, which reassigns the table's addresses.
    ///
    /// # Errors
    ///
    /// [`StoreError::NoSuchTable`] / [`StoreError::TupleTooLarge`];
    /// [`StoreError::Corrupt`] for an address that names no live row.
    fn update(&mut self, table: &str, rows: Vec<(RowId, R)>) -> Result<()>;

    /// Removes the addressed rows. No other row moves, and the index (if
    /// built) stays.
    ///
    /// # Errors
    ///
    /// [`StoreError::NoSuchTable`]; [`StoreError::Corrupt`] for an address
    /// that names no live row.
    fn delete(&mut self, table: &str, rows: &[RowId]) -> Result<()>;

    /// Replaces the table's rows wholesale, dropping the index and
    /// reassigning every address. The executor no longer calls this —
    /// UPDATE and DELETE are row-addressed — but logs written before they
    /// were still hold `Rewrite` records, which replay through it.
    ///
    /// # Errors
    ///
    /// [`StoreError::NoSuchTable`] / [`StoreError::TupleTooLarge`].
    fn rewrite(&mut self, table: &str, rows: Vec<R>) -> Result<()>;

    /// Opens a transaction.
    ///
    /// # Errors
    ///
    /// [`StoreError::TransactionOpen`] if one is already open.
    fn begin(&mut self) -> Result<()>;

    /// Commits the open transaction: appends the commit record and fsyncs
    /// the WAL — the durability point.
    ///
    /// # Errors
    ///
    /// [`StoreError::NoTransaction`] if none is open.
    fn commit(&mut self) -> Result<()>;

    /// Rolls the open transaction back: every row, table and counter it
    /// touched is put back as it was, from the before-images the
    /// transaction logged as it went.
    ///
    /// # Errors
    ///
    /// [`StoreError::NoTransaction`] if none is open.
    fn rollback(&mut self) -> Result<()>;

    /// Whether a transaction is open.
    fn in_txn(&self) -> bool;

    /// Simulated resident bytes (memory metering): the live heap pages.
    fn bytes(&self) -> u64;

    /// Deterministic digest of the full logical state (tables, rows, in
    /// order) — the replay-equivalence probe for recovery tests.
    fn state_digest(&self) -> u64;
}

/// FNV-1a over a byte slice; the crate's checksum/digest primitive.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Extends an FNV-1a digest with more bytes (for incremental digests).
#[must_use]
pub fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
