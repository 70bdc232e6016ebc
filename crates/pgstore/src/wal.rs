//! The write-ahead log: framing, append/sync, and seeded-fault-tolerant
//! replay under pluggable recovery policies.
//!
//! Record framing (little-endian): `[payload len u32][FNV-1a of payload
//! u64][payload]`, where the payload's first byte is the record kind. A
//! transaction is `Begin … ops … Commit`; the executor wraps standalone
//! mutations so *every* change is transactional. Appends are cached until
//! [`Wal::sync`] (called at commit), so an uncommitted transaction's
//! records simply die with the crash.
//!
//! Payloads after the kind byte (strings and blobs are `u32` length +
//! bytes):
//!
//! ```text
//! 1 Begin    txn u64
//! 2 Commit   txn u64
//! 3 Create   table, meta
//! 4 Drop     table
//! 5 Insert   table, count u32, count × tuple
//! 6 Rewrite  table, count u32, count × tuple     (no longer written)
//! 7 Update   table, count u32, count × (address u64, tuple)
//! 8 Delete   table, count u32, count × address u64
//! ```
//!
//! `Update` and `Delete` carry only the tuples they touch, addressed by
//! `(chain position << 16) | slot`. The address is physical, so it is only
//! meaningful because replay rebuilds the heap to the same layout the
//! writer had: every placement decision is a function of the pages'
//! logical content, and a rolled-back transaction leaves none behind.
//!
//! Replay applies transactions in commit order. A record that fails
//! validation *before* the end of the log is hard corruption; a partial or
//! unverifiable record *at* the tail is the expected shape of a crash, and
//! what happens next is the [`RecoveryPolicy`] — the deliberate divergence
//! corner. A torn tail whose readable kind byte is `Commit` means the
//! commit was issued and its transaction's records are all intact:
//! [`RecoveryPolicy::ReplayForward`] honours it, while
//! [`RecoveryPolicy::ShadowDiscard`] refuses to trust anything it cannot
//! verify. Both then truncate the torn tail so subsequent appends restore
//! clean framing (ReplayForward re-appends the commit it honoured).

use crate::disk::VDisk;
use crate::{fnv1a, Result, StoreError};

/// How recovery treats a torn WAL tail — the knob that makes two paged
/// instances version-diverse without touching the SQL layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryPolicy {
    /// Honour a torn trailing record whose readable kind byte is `Commit`:
    /// the commit was issued, its transaction's records verify, so roll
    /// the transaction forward.
    #[default]
    ReplayForward,
    /// Discard any transaction whose commit record does not fully verify;
    /// a torn tail of any kind is treated as if the crash came first.
    ShadowDiscard,
}

impl RecoveryPolicy {
    /// Parses `"replay-forward"` / `"shadow-discard"`.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "replay-forward" | "replay_forward" | "replay" => Some(Self::ReplayForward),
            "shadow-discard" | "shadow_discard" | "shadow" => Some(Self::ShadowDiscard),
            _ => None,
        }
    }

    /// The canonical spec string.
    #[must_use]
    pub fn as_str(&self) -> &'static str {
        match self {
            Self::ReplayForward => "replay-forward",
            Self::ShadowDiscard => "shadow-discard",
        }
    }
}

/// Largest payload `replay` accepts from a length header (16 MiB). Honest
/// records are orders of magnitude smaller; a declared length beyond this
/// is header corruption, not a torn tail.
pub const MAX_RECORD_LEN: usize = 1 << 24;

const KIND_BEGIN: u8 = 1;
const KIND_COMMIT: u8 = 2;
const KIND_CREATE: u8 = 3;
const KIND_DROP: u8 = 4;
const KIND_INSERT: u8 = 5;
const KIND_REWRITE: u8 = 6;
const KIND_UPDATE: u8 = 7;
const KIND_DELETE: u8 = 8;

/// One logical WAL record. Row payloads are already codec-encoded — the
/// WAL is below the tuple type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// Transaction start.
    Begin {
        /// Transaction id (monotonic).
        txn: u64,
    },
    /// Transaction commit — the durability point.
    Commit {
        /// Transaction id.
        txn: u64,
    },
    /// Table creation, with the executor's opaque catalog blob.
    CreateTable {
        /// Table name.
        table: String,
        /// Catalog blob (column definitions, owner).
        meta: Vec<u8>,
    },
    /// Table drop.
    DropTable {
        /// Table name.
        table: String,
    },
    /// Row append.
    Insert {
        /// Table name.
        table: String,
        /// Codec-encoded rows, in insertion order.
        rows: Vec<Vec<u8>>,
    },
    /// Wholesale row replacement — what UPDATE/DELETE logged before they
    /// were row-addressed; still replayed, no longer written.
    Rewrite {
        /// Table name.
        table: String,
        /// Codec-encoded rows, in the new order.
        rows: Vec<Vec<u8>>,
    },
    /// In-place replacement of the addressed rows.
    Update {
        /// Table name.
        table: String,
        /// `(address, codec-encoded new row)`, in statement order.
        rows: Vec<(u64, Vec<u8>)>,
    },
    /// Removal of the addressed rows.
    Delete {
        /// Table name.
        table: String,
        /// Addresses of the rows removed.
        rows: Vec<u64>,
    },
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
    out.extend_from_slice(b);
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let out = self
            .bytes
            .get(self.pos..self.pos + n)
            .ok_or_else(|| StoreError::Corrupt("record payload underrun".into()))?;
        self.pos += n;
        Ok(out)
    }

    fn u64(&mut self) -> Result<u64> {
        let mut buf = [0u8; 8];
        buf.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(buf))
    }

    fn u32(&mut self) -> Result<u32> {
        let mut buf = [0u8; 4];
        buf.copy_from_slice(self.take(4)?);
        Ok(u32::from_le_bytes(buf))
    }

    fn bytes(&mut self) -> Result<Vec<u8>> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    fn string(&mut self) -> Result<String> {
        String::from_utf8(self.bytes()?)
            .map_err(|_| StoreError::Corrupt("record string not UTF-8".into()))
    }

    /// A `u32` count followed by that many items.
    fn counted<T>(&mut self, mut item: impl FnMut(&mut Self) -> Result<T>) -> Result<Vec<T>> {
        let n = self.u32()? as usize;
        let mut items = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            items.push(item(self)?);
        }
        Ok(items)
    }

    fn rows(&mut self) -> Result<Vec<Vec<u8>>> {
        self.counted(Self::bytes)
    }
}

impl WalRecord {
    /// Serializes the record payload (kind byte first).
    #[must_use]
    pub fn payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            WalRecord::Begin { txn } => {
                out.push(KIND_BEGIN);
                put_u64(&mut out, *txn);
            }
            WalRecord::Commit { txn } => {
                out.push(KIND_COMMIT);
                put_u64(&mut out, *txn);
            }
            WalRecord::CreateTable { table, meta } => {
                out.push(KIND_CREATE);
                put_bytes(&mut out, table.as_bytes());
                put_bytes(&mut out, meta);
            }
            WalRecord::DropTable { table } => {
                out.push(KIND_DROP);
                put_bytes(&mut out, table.as_bytes());
            }
            WalRecord::Insert { table, rows } | WalRecord::Rewrite { table, rows } => {
                out.push(match self {
                    WalRecord::Insert { .. } => KIND_INSERT,
                    _ => KIND_REWRITE,
                });
                put_bytes(&mut out, table.as_bytes());
                out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
                for row in rows {
                    put_bytes(&mut out, row);
                }
            }
            WalRecord::Update { table, rows } => {
                out.push(KIND_UPDATE);
                put_bytes(&mut out, table.as_bytes());
                out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
                for (at, row) in rows {
                    put_u64(&mut out, *at);
                    put_bytes(&mut out, row);
                }
            }
            WalRecord::Delete { table, rows } => {
                out.push(KIND_DELETE);
                put_bytes(&mut out, table.as_bytes());
                out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
                for at in rows {
                    put_u64(&mut out, *at);
                }
            }
        }
        out
    }

    /// Frames the record: length, checksum, payload.
    #[must_use]
    pub fn frame(&self) -> Vec<u8> {
        let payload = self.payload();
        let mut out = Vec::with_capacity(12 + payload.len());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&fnv1a(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    fn decode(payload: &[u8]) -> Result<Self> {
        let (&kind, rest) = payload
            .split_first()
            .ok_or_else(|| StoreError::Corrupt("empty record payload".into()))?;
        let mut c = Cursor {
            bytes: rest,
            pos: 0,
        };
        match kind {
            KIND_BEGIN => Ok(WalRecord::Begin { txn: c.u64()? }),
            KIND_COMMIT => Ok(WalRecord::Commit { txn: c.u64()? }),
            KIND_CREATE => Ok(WalRecord::CreateTable {
                table: c.string()?,
                meta: c.bytes()?,
            }),
            KIND_DROP => Ok(WalRecord::DropTable { table: c.string()? }),
            KIND_INSERT => Ok(WalRecord::Insert {
                table: c.string()?,
                rows: c.rows()?,
            }),
            KIND_REWRITE => Ok(WalRecord::Rewrite {
                table: c.string()?,
                rows: c.rows()?,
            }),
            KIND_UPDATE => Ok(WalRecord::Update {
                table: c.string()?,
                rows: c.counted(|c| Ok((c.u64()?, c.bytes()?)))?,
            }),
            KIND_DELETE => Ok(WalRecord::Delete {
                table: c.string()?,
                rows: c.counted(Cursor::u64)?,
            }),
            other => Err(StoreError::Corrupt(format!("unknown record kind {other}"))),
        }
    }
}

/// What replay found at the end of the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailState {
    /// The log ends on a record boundary.
    Clean,
    /// The log ends mid-record; the kind byte (if readable) is given.
    Torn(Option<u8>),
}

/// The outcome of replaying a WAL.
#[derive(Debug)]
pub struct Replay {
    /// Operations of committed transactions, in commit order.
    pub ops: Vec<WalRecord>,
    /// Shape of the log tail.
    pub tail: TailState,
    /// Transactions rolled forward.
    pub committed: u64,
    /// Transactions discarded (no verifiable commit).
    pub discarded: u64,
    /// Whether the policy honoured a torn trailing commit.
    pub honoured_torn_commit: bool,
    /// Byte offset of the last fully valid record's end (where a torn
    /// tail should be truncated to).
    pub valid_end: u64,
    /// One past the highest transaction id seen.
    pub next_txn: u64,
    /// The transaction honoured or discarded at the torn tail, if any.
    pub tail_txn: Option<u64>,
}

/// An append handle over a [`VDisk`] file.
#[derive(Debug)]
pub struct Wal {
    disk: VDisk,
    file: String,
}

impl Wal {
    /// Opens (or creates) the log `file` on `disk`.
    #[must_use]
    pub fn new(disk: VDisk, file: impl Into<String>) -> Self {
        Self {
            disk,
            file: file.into(),
        }
    }

    /// Appends a record (cached until [`Wal::sync`]).
    pub fn append(&self, record: &WalRecord) {
        self.disk.append(&self.file, &record.frame());
    }

    /// Hardens all cached appends — the commit durability point.
    pub fn sync(&self) {
        self.disk.fsync(&self.file);
    }

    /// Truncates the log (recovery clears a torn tail with this).
    pub fn truncate(&self, len: u64) {
        self.disk.truncate(&self.file, len);
    }

    /// Current log length in bytes.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.disk.len(&self.file)
    }

    /// Whether the log is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Replays the log under `policy`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] on an invalid record *before* the tail —
    /// torn tails are expected crash damage, interior corruption is not.
    pub fn replay(&self, policy: RecoveryPolicy) -> Result<Replay> {
        let bytes = self
            .disk
            .read(&self.file, 0, self.disk.len(&self.file) as usize);
        let mut ops = Vec::new();
        let mut committed = 0u64;
        let mut discarded = 0u64;
        let mut next_txn = 1u64;
        // The transaction whose Begin was seen but whose Commit was not
        // (yet), with its ops. Transactions do not overlap and every write
        // runs in one, so a Begin means the one still open was rolled back.
        let mut open: Option<(u64, Vec<WalRecord>)> = None;
        let mut pos = 0usize;
        let mut tail = TailState::Clean;
        let mut valid_end = 0u64;
        loop {
            if pos == bytes.len() {
                break;
            }
            let Some(header) = bytes.get(pos..pos + 12) else {
                tail = TailState::Torn(bytes.get(pos + 12).copied());
                break;
            };
            let mut len_buf = [0u8; 4];
            let mut crc_buf = [0u8; 8];
            len_buf.copy_from_slice(header.get(..4).unwrap_or(&[0; 4]));
            crc_buf.copy_from_slice(header.get(4..).unwrap_or(&[0; 8]));
            let len = u32::from_le_bytes(len_buf) as usize;
            let crc = u64::from_le_bytes(crc_buf);
            // A crash can truncate a record, never inflate one: a declared
            // length past the cap no honest writer produces is a corrupt
            // header, and must fail recovery cleanly rather than be misread
            // as innocuous torn-tail damage (or drive a reader that trusts
            // the header into a giant allocation).
            if len > MAX_RECORD_LEN {
                return Err(StoreError::Corrupt(format!(
                    "WAL record at offset {pos} declares a {len} byte payload \
                     (cap {MAX_RECORD_LEN}): length header corrupt"
                )));
            }
            let Some(payload) = bytes.get(pos + 12..pos + 12 + len) else {
                tail = TailState::Torn(bytes.get(pos + 12).copied());
                break;
            };
            if fnv1a(payload) != crc {
                if pos + 12 + len == bytes.len() {
                    tail = TailState::Torn(payload.first().copied());
                    break;
                }
                return Err(StoreError::Corrupt(format!(
                    "WAL record at offset {pos} fails checksum mid-log"
                )));
            }
            let record = WalRecord::decode(payload)?;
            pos += 12 + len;
            valid_end = pos as u64;
            match record {
                WalRecord::Begin { txn } => {
                    next_txn = next_txn.max(txn + 1);
                    if open.replace((txn, Vec::new())).is_some() {
                        discarded += 1;
                    }
                }
                WalRecord::Commit { txn } => {
                    next_txn = next_txn.max(txn + 1);
                    if let Some((_, txn_ops)) = open.take_if(|(t, _)| *t == txn) {
                        ops.extend(txn_ops);
                        committed += 1;
                    }
                }
                op => match &mut open {
                    Some((_, txn_ops)) => txn_ops.push(op),
                    // Untracked standalone op (defensive): apply as-is.
                    None => ops.push(op),
                },
            }
        }
        let mut honoured_torn_commit = false;
        let mut tail_txn = None;
        if let TailState::Torn(kind) = tail {
            // The torn record, if its kind byte reads Commit, can only
            // belong to the most recently opened transaction.
            if kind == Some(KIND_COMMIT) {
                if let Some((txn, _)) = &open {
                    tail_txn = Some(*txn);
                    if policy == RecoveryPolicy::ReplayForward {
                        if let Some((txn, txn_ops)) = open.take() {
                            next_txn = next_txn.max(txn + 1);
                            ops.extend(txn_ops);
                            committed += 1;
                            honoured_torn_commit = true;
                        }
                    }
                }
            }
        }
        discarded += u64::from(open.is_some());
        Ok(Replay {
            ops,
            tail,
            committed,
            discarded,
            honoured_torn_commit,
            valid_end,
            next_txn,
            tail_txn,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk() -> VDisk {
        VDisk::new("wal-test")
    }

    fn row(n: u8) -> Vec<u8> {
        vec![n; 4]
    }

    fn committed_txn(wal: &Wal, txn: u64, table: &str, rows: Vec<Vec<u8>>) {
        wal.append(&WalRecord::Begin { txn });
        wal.append(&WalRecord::Insert {
            table: table.into(),
            rows,
        });
        wal.append(&WalRecord::Commit { txn });
        wal.sync();
    }

    #[test]
    fn record_round_trip() {
        for rec in [
            WalRecord::Begin { txn: 7 },
            WalRecord::Commit { txn: 7 },
            WalRecord::CreateTable {
                table: "T".into(),
                meta: b"cols".to_vec(),
            },
            WalRecord::DropTable { table: "T".into() },
            WalRecord::Insert {
                table: "T".into(),
                rows: vec![row(1), row(2)],
            },
            WalRecord::Rewrite {
                table: "T".into(),
                rows: vec![],
            },
            WalRecord::Update {
                table: "T".into(),
                rows: vec![(3 << 16 | 7, row(9)), (0, vec![])],
            },
            WalRecord::Delete {
                table: "T".into(),
                rows: vec![1 << 16, 5],
            },
        ] {
            let frame = rec.frame();
            let payload = &frame[12..];
            assert_eq!(WalRecord::decode(payload).unwrap(), rec);
        }
    }

    #[test]
    fn replay_applies_committed_and_discards_uncommitted() {
        let d = disk();
        let wal = Wal::new(d.clone(), "wal");
        committed_txn(&wal, 1, "T", vec![row(1)]);
        // Uncommitted txn: records appended but never synced.
        wal.append(&WalRecord::Begin { txn: 2 });
        wal.append(&WalRecord::Insert {
            table: "T".into(),
            rows: vec![row(2)],
        });
        d.crash();
        let replay = Wal::new(d, "wal")
            .replay(RecoveryPolicy::ReplayForward)
            .unwrap();
        assert_eq!(replay.tail, TailState::Clean);
        assert_eq!((replay.committed, replay.discarded), (1, 0));
        assert_eq!(replay.ops.len(), 1);
        assert_eq!(replay.next_txn, 2);
    }

    struct TruncateFirstCrash;
    impl crate::disk::DiskFaults for TruncateFirstCrash {
        fn truncate_tail(&self, _d: &str, _f: &str, seq: u64) -> bool {
            seq == 0
        }
    }

    fn torn_commit_disk() -> VDisk {
        let d = VDisk::with_faults("d", std::sync::Arc::new(TruncateFirstCrash));
        let wal = Wal::new(d.clone(), "wal");
        committed_txn(&wal, 1, "T", vec![row(1)]);
        d.crash(); // tears the trailing Commit record mid-payload
        d
    }

    #[test]
    fn policies_diverge_on_torn_trailing_commit() {
        let d = torn_commit_disk();
        let forward = Wal::new(d.clone(), "wal")
            .replay(RecoveryPolicy::ReplayForward)
            .unwrap();
        assert!(matches!(forward.tail, TailState::Torn(Some(2))));
        assert!(forward.honoured_torn_commit);
        assert_eq!(forward.ops.len(), 1, "txn rolled forward");
        assert_eq!(forward.tail_txn, Some(1));

        let shadow = Wal::new(d, "wal")
            .replay(RecoveryPolicy::ShadowDiscard)
            .unwrap();
        assert!(!shadow.honoured_torn_commit);
        assert!(shadow.ops.is_empty(), "txn discarded");
        assert_eq!(shadow.discarded, 1);
        assert_eq!(shadow.tail_txn, Some(1));
        assert_eq!(shadow.valid_end, forward.valid_end);
    }

    #[test]
    fn torn_data_record_is_discarded_by_both_policies() {
        let d = VDisk::with_faults("d", std::sync::Arc::new(TruncateFirstCrash));
        let wal = Wal::new(d.clone(), "wal");
        wal.append(&WalRecord::Begin { txn: 1 });
        wal.append(&WalRecord::Insert {
            table: "T".into(),
            rows: vec![row(9)],
        });
        wal.sync(); // durable mid-transaction, then torn at crash
        d.crash();
        for policy in [RecoveryPolicy::ReplayForward, RecoveryPolicy::ShadowDiscard] {
            let r = Wal::new(d.clone(), "wal").replay(policy).unwrap();
            assert!(matches!(r.tail, TailState::Torn(Some(KIND_INSERT))));
            assert!(r.ops.is_empty());
            assert!(!r.honoured_torn_commit);
        }
    }

    #[test]
    fn interior_corruption_is_an_error() {
        let d = disk();
        let wal = Wal::new(d.clone(), "wal");
        committed_txn(&wal, 1, "T", vec![row(1)]);
        committed_txn(&wal, 2, "T", vec![row(2)]);
        // Flip a byte in the middle of the log.
        let mut bytes = d.read("wal", 0, d.len("wal") as usize);
        bytes[20] ^= 0xFF;
        d.truncate("wal", 0);
        d.write_at("wal", 0, &bytes);
        d.fsync("wal");
        assert!(matches!(
            wal.replay(RecoveryPolicy::ReplayForward),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn oversize_declared_length_is_corruption_not_a_torn_tail() {
        let d = disk();
        let wal = Wal::new(d.clone(), "wal");
        committed_txn(&wal, 1, "T", vec![row(1)]);
        // Hand-corrupt the tail: a frame header declaring a payload far
        // beyond both the remaining file size and any honest record, with
        // a few garbage payload bytes behind it. A reader that trusts the
        // header would attempt a gigabyte allocation; replay must fail
        // cleanly instead of reporting innocuous crash damage.
        let mut frame = Vec::new();
        frame.extend_from_slice(&0x4000_0000u32.to_le_bytes());
        frame.extend_from_slice(&0u64.to_le_bytes());
        frame.extend_from_slice(b"junk");
        d.append("wal", &frame);
        d.fsync("wal");
        for policy in [RecoveryPolicy::ReplayForward, RecoveryPolicy::ShadowDiscard] {
            assert!(
                matches!(wal.replay(policy), Err(StoreError::Corrupt(_))),
                "{policy:?} must reject the oversize length header"
            );
        }
    }

    #[test]
    fn truncated_tail_under_the_cap_stays_torn() {
        // The guard must not reclassify ordinary crash damage: a record
        // whose (honest) declared length just runs past the end of the
        // file is still a torn tail, for both policies.
        let d = torn_commit_disk();
        for policy in [RecoveryPolicy::ReplayForward, RecoveryPolicy::ShadowDiscard] {
            let r = Wal::new(d.clone(), "wal").replay(policy).unwrap();
            assert!(matches!(r.tail, TailState::Torn(_)));
        }
    }

    #[test]
    fn truncate_then_append_restores_clean_framing() {
        let d = torn_commit_disk();
        let wal = Wal::new(d, "wal");
        let r = wal.replay(RecoveryPolicy::ShadowDiscard).unwrap();
        wal.truncate(r.valid_end);
        committed_txn(&wal, r.next_txn, "T", vec![row(3)]);
        let again = wal.replay(RecoveryPolicy::ShadowDiscard).unwrap();
        assert_eq!(again.tail, TailState::Clean);
        assert_eq!(again.committed, 1);
    }
}
