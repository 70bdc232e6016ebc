//! Glue between MiniPg and the `rddr-pgstore` paged engine: the value
//! codec, the catalog blob, the per-instance recovery policy, and the
//! adapter that feeds `rddr-net`'s seeded fault plan into the simulated
//! disk.
//!
//! Every [`crate::Database`] runs on a `PagedStore` over a [`VDisk`].
//! [`StorageEngine`] is the per-instance knob — parsed from a spec string
//! like `"paged"` or `"paged:shadow-discard"` — so an RDDR deployment can
//! mix *recovery policies* behind one wire protocol.

use std::sync::Arc;

use rddr_net::{FaultPlan, StorageFault};
use rddr_pgstore::disk::DiskFaults;
use rddr_pgstore::{RecoveryPolicy, StoreError, TupleCodec, VDisk};

use crate::ast::ColumnDef;
use crate::db::SqlError;
use crate::value::{SqlType, Value};

/// Maps MiniPg rows (`Vec<Value>`) to tuple bytes and index keys for the
/// storage engine.
///
/// Encoding (little-endian): value count `u16`, then per value a tag byte —
/// 0 `NULL`, 1 `Int` (+8 bytes), 2 `Float` (+8 bytes bits), 3 `Bool`
/// (+1 byte), 4 `Text` (+len `u32` + bytes).
pub struct ValueCodec;

const TAG_NULL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_FLOAT: u8 = 2;
const TAG_BOOL: u8 = 3;
const TAG_TEXT: u8 = 4;

impl TupleCodec<Vec<Value>> for ValueCodec {
    fn encode(&self, row: &Vec<Value>, out: &mut Vec<u8>) {
        out.extend_from_slice(&(row.len() as u16).to_le_bytes());
        for v in row {
            match v {
                Value::Null => out.push(TAG_NULL),
                Value::Int(i) => {
                    out.push(TAG_INT);
                    out.extend_from_slice(&i.to_le_bytes());
                }
                Value::Float(f) => {
                    out.push(TAG_FLOAT);
                    out.extend_from_slice(&f.to_bits().to_le_bytes());
                }
                Value::Bool(b) => {
                    out.push(TAG_BOOL);
                    out.push(u8::from(*b));
                }
                Value::Text(t) => {
                    out.push(TAG_TEXT);
                    out.extend_from_slice(&(t.len() as u32).to_le_bytes());
                    out.extend_from_slice(t.as_bytes());
                }
            }
        }
    }

    fn decode(&self, bytes: &[u8]) -> Result<Vec<Value>, StoreError> {
        let mut pos = 0usize;
        let mut take = |n: usize| -> Result<&[u8], StoreError> {
            let out = bytes
                .get(pos..pos + n)
                .ok_or_else(|| StoreError::Corrupt("row tuple underrun".into()))?;
            pos += n;
            Ok(out)
        };
        let mut u16buf = [0u8; 2];
        u16buf.copy_from_slice(take(2)?);
        let count = u16::from_le_bytes(u16buf) as usize;
        let mut row = Vec::with_capacity(count);
        for _ in 0..count {
            let tag = take(1)?.first().copied().unwrap_or(TAG_NULL);
            row.push(match tag {
                TAG_NULL => Value::Null,
                TAG_INT => {
                    let mut b = [0u8; 8];
                    b.copy_from_slice(take(8)?);
                    Value::Int(i64::from_le_bytes(b))
                }
                TAG_FLOAT => {
                    let mut b = [0u8; 8];
                    b.copy_from_slice(take(8)?);
                    Value::Float(f64::from_bits(u64::from_le_bytes(b)))
                }
                TAG_BOOL => Value::Bool(take(1)?.first().copied().unwrap_or(0) != 0),
                TAG_TEXT => {
                    let mut b = [0u8; 4];
                    b.copy_from_slice(take(4)?);
                    let len = u32::from_le_bytes(b) as usize;
                    let text = String::from_utf8(take(len)?.to_vec())
                        .map_err(|_| StoreError::Corrupt("row text not UTF-8".into()))?;
                    Value::Text(text)
                }
                other => {
                    return Err(StoreError::Corrupt(format!("unknown value tag {other}")));
                }
            });
        }
        Ok(row)
    }

    fn key(&self, row: &Vec<Value>) -> Vec<u8> {
        // The first column's grouping key — identical to the executor's
        // historical `BTreeMap<String, _>` point-lookup index keys.
        row.first()
            .map(|v| v.group_key().into_bytes())
            .unwrap_or_default()
    }
}

/// Serializes the catalog blob stored next to each table: owner, then one
/// `NAME\tTYPE` line per column. This is what crash recovery hands back so
/// [`crate::Database`] can rebuild its catalog (RLS state, policies,
/// grants, and UDFs are session/catalog state and deliberately *not*
/// durable — matching how the scenarios re-apply schema policy on boot).
pub(crate) fn encode_table_meta(owner: &str, columns: &[ColumnDef]) -> Vec<u8> {
    let mut out = String::new();
    out.push_str(owner);
    for c in columns {
        out.push('\n');
        out.push_str(&c.name);
        out.push('\t');
        out.push_str(match c.ty {
            SqlType::Int => "INT",
            SqlType::Float => "FLOAT",
            SqlType::Text => "TEXT",
            SqlType::Bool => "BOOL",
        });
    }
    out.into_bytes()
}

/// Parses a catalog blob back into `(owner, columns)`.
pub(crate) fn decode_table_meta(meta: &[u8]) -> Result<(String, Vec<ColumnDef>), SqlError> {
    let text = std::str::from_utf8(meta)
        .map_err(|_| SqlError::Exec("storage: catalog blob not UTF-8".into()))?;
    let mut lines = text.split('\n');
    let owner = lines.next().unwrap_or_default().to_string();
    let mut columns = Vec::new();
    for line in lines {
        let (name, ty) = line
            .split_once('\t')
            .ok_or_else(|| SqlError::Exec(format!("storage: bad catalog column {line:?}")))?;
        let ty = match ty {
            "INT" => SqlType::Int,
            "FLOAT" => SqlType::Float,
            "TEXT" => SqlType::Text,
            "BOOL" => SqlType::Bool,
            other => {
                return Err(SqlError::Exec(format!(
                    "storage: bad catalog type {other:?}"
                )));
            }
        };
        columns.push(ColumnDef {
            name: name.to_string(),
            ty,
        });
    }
    Ok((owner, columns))
}

/// How an instance's storage recovers after a crash — the per-instance
/// diversity knob. Every instance runs the paged engine (WAL + heap pages
/// on a simulated disk); what differs is how recovery treats a torn WAL
/// tail.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StorageEngine {
    /// How recovery treats a torn WAL tail.
    pub policy: RecoveryPolicy,
}

impl StorageEngine {
    /// Parses a spec string: `"paged"` (replay-forward),
    /// `"paged:replay-forward"`, or `"paged:shadow-discard"`.
    ///
    /// # Errors
    ///
    /// [`SqlError::Parse`] on any other spec.
    pub fn parse(spec: &str) -> Result<Self, SqlError> {
        let spec = spec.trim();
        let lower = spec.to_ascii_lowercase();
        let policy = match lower.strip_prefix("paged") {
            Some("") => Some(RecoveryPolicy::ReplayForward),
            Some(rest) => rest.strip_prefix(':').and_then(RecoveryPolicy::parse),
            None => None,
        };
        policy.map(|policy| Self { policy }).ok_or_else(|| {
            SqlError::Parse(format!(
                "unknown storage engine {spec:?}: expected \"paged\", \"paged:replay-forward\" \
                 or \"paged:shadow-discard\""
            ))
        })
    }

    /// The canonical spec string.
    #[must_use]
    pub fn as_str(&self) -> &'static str {
        match self.policy {
            RecoveryPolicy::ReplayForward => "paged:replay-forward",
            RecoveryPolicy::ShadowDiscard => "paged:shadow-discard",
        }
    }
}

impl std::fmt::Display for StorageEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Adapts `rddr-net`'s seeded [`FaultPlan`] into `rddr-pgstore`'s
/// [`DiskFaults`] hook: one shared fault schedule drives network *and*
/// storage faults, so a chaos seed reproduces both.
#[derive(Clone)]
pub struct PlanDiskFaults {
    plan: FaultPlan,
    target: String,
}

impl PlanDiskFaults {
    /// Draws faults for `target`'s disk from `plan`.
    #[must_use]
    pub fn new(plan: FaultPlan, target: impl Into<String>) -> Self {
        Self {
            plan,
            target: target.into(),
        }
    }

    /// Builds a [`VDisk`] named `target` whose faults come from the plan.
    #[must_use]
    pub fn disk(plan: FaultPlan, target: &str) -> VDisk {
        VDisk::with_faults(target, Arc::new(Self::new(plan, target)))
    }
}

impl DiskFaults for PlanDiskFaults {
    fn torn_page(&self, _disk: &str, file: &str, seq: u64) -> bool {
        self.plan
            .storage_fault(&self.target, file, StorageFault::TornPage, seq)
    }

    fn lost_fsync(&self, _disk: &str, file: &str, seq: u64) -> bool {
        self.plan
            .storage_fault(&self.target, file, StorageFault::LostFsync, seq)
    }

    fn truncate_tail(&self, _disk: &str, file: &str, seq: u64) -> bool {
        self.plan
            .storage_fault(&self.target, file, StorageFault::TruncatedWalTail, seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rddr_net::ConnSelector;

    #[test]
    fn codec_round_trips_every_value_kind() {
        let codec = ValueCodec;
        let row = vec![
            Value::Int(-42),
            Value::Null,
            Value::Float(2.5),
            Value::Bool(true),
            Value::Text("naïve ✓".into()),
        ];
        let mut bytes = Vec::new();
        codec.encode(&row, &mut bytes);
        assert_eq!(codec.decode(&bytes).unwrap(), row);
    }

    #[test]
    fn codec_key_matches_group_key_semantics() {
        let codec = ValueCodec;
        // 2 and 2.0 group together, matching the executor's index keys.
        assert_eq!(
            codec.key(&vec![Value::Int(2)]),
            codec.key(&vec![Value::Float(2.0)])
        );
        assert_ne!(
            codec.key(&vec![Value::Int(2)]),
            codec.key(&vec![Value::Text("2".into())])
        );
        assert!(codec.key(&Vec::new()).is_empty());
    }

    #[test]
    fn corrupt_tuples_error_not_panic() {
        let codec = ValueCodec;
        assert!(codec.decode(&[]).is_err());
        assert!(codec.decode(&[5, 0, 99]).is_err());
        let mut bytes = Vec::new();
        codec.encode(&vec![Value::Text("hello".into())], &mut bytes);
        bytes.truncate(bytes.len() - 2);
        assert!(codec.decode(&bytes).is_err());
    }

    #[test]
    fn table_meta_round_trips() {
        let columns = vec![
            ColumnDef {
                name: "AID".into(),
                ty: SqlType::Int,
            },
            ColumnDef {
                name: "NOTE".into(),
                ty: SqlType::Text,
            },
        ];
        let meta = encode_table_meta("APP", &columns);
        let (owner, back) = decode_table_meta(&meta).unwrap();
        assert_eq!(owner, "APP");
        assert_eq!(back, columns);
    }

    #[test]
    fn engine_specs_parse_and_render() {
        assert_eq!(
            StorageEngine::parse("paged").unwrap(),
            StorageEngine::default()
        );
        assert_eq!(
            StorageEngine::parse("paged").unwrap().as_str(),
            "paged:replay-forward"
        );
        assert_eq!(
            StorageEngine::parse(" Paged:Shadow-Discard ").unwrap(),
            StorageEngine {
                policy: RecoveryPolicy::ShadowDiscard
            }
        );
        for spec in ["paged:replay-forward", "paged:shadow-discard"] {
            let e = StorageEngine::parse(spec).unwrap();
            assert_eq!(e.to_string(), spec);
            assert_eq!(StorageEngine::parse(e.as_str()).unwrap(), e);
        }
        // Anything else, the retired in-memory specs included, is an error
        // that names the spec and the forms that parse.
        for spec in [
            "floppy",
            "pagedx",
            "paged:",
            "paged:floppy",
            "memory",
            "mem",
            "in-memory",
        ] {
            let err = StorageEngine::parse(spec).unwrap_err();
            assert!(
                matches!(&err, SqlError::Parse(why) if why.contains(spec) && why.contains("\"paged\"")),
                "{spec}: {err}"
            );
        }
    }

    #[test]
    fn plan_faults_reach_the_disk() {
        let plan = FaultPlan::new(99);
        plan.storage_inject(
            "db-2",
            Some("wal"),
            ConnSelector::Nth(0),
            StorageFault::TruncatedWalTail,
        );
        let disk = PlanDiskFaults::disk(plan.clone(), "db-2");
        disk.append("wal", &[0u8; 64]);
        disk.fsync("wal");
        disk.crash();
        // The tail truncation kept only the torn stub of the last append.
        assert_eq!(disk.len("wal"), rddr_pgstore::disk::TORN_TAIL_KEEP as u64);
        assert_eq!(plan.stats().truncated_tails, 1);
        // A different target draws nothing.
        let other = PlanDiskFaults::disk(plan.clone(), "db-1");
        other.append("wal", &[0u8; 64]);
        other.fsync("wal");
        other.crash();
        assert_eq!(other.len("wal"), 64);
    }
}
