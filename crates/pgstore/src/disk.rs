//! A simulated durable medium with crash semantics and fault hooks.
//!
//! A [`VDisk`] is the storage analogue of the workspace's `SimNet`: an
//! in-process stand-in that preserves the *semantics* that matter — the
//! gap between written and durable. Every write lands in a volatile cache
//! (what the running process reads back); only [`VDisk::fsync`] moves it
//! to the durable image; [`VDisk::crash`] discards the cache and leaves
//! exactly the durable bytes, which is what a respawned instance recovers
//! from. Handles are cheap clones sharing state, so a [`VDisk`] passed to
//! a Supervisor restart factory survives its container.
//!
//! The three storage fault families of the chaos suite enter through the
//! [`DiskFaults`] hook, drawn deterministically per `(disk, file,
//! operation sequence)`:
//!
//! * **Torn page** — an fsynced write persists only its leading half; the
//!   cache still shows the full write, so the damage is visible only
//!   after a crash (caught by the page checksum).
//! * **Lost fsync** — the fsync reports success but hardens nothing; a
//!   subsequent crash drops the writes it claimed to persist.
//! * **Truncated WAL tail** — the crash itself tears the last fsynced
//!   append mid-record, leaving its length prefix and first payload byte
//!   (the record-kind tag) — the corner the two recovery policies
//!   disagree on.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;

/// Deterministic storage-fault oracle, consulted once per operation with a
/// per-`(disk, file)` sequence number. The default implementation injects
/// nothing; `rddr-pgsim` adapts the seeded `rddr-net` fault plan to this.
pub trait DiskFaults: Send + Sync {
    /// Whether the `seq`-th page write to `file` is torn at fsync time.
    fn torn_page(&self, disk: &str, file: &str, seq: u64) -> bool {
        let _ = (disk, file, seq);
        false
    }

    /// Whether the `seq`-th fsync of `file` silently hardens nothing.
    fn lost_fsync(&self, disk: &str, file: &str, seq: u64) -> bool {
        let _ = (disk, file, seq);
        false
    }

    /// Whether the `seq`-th crash of the disk tears `file`'s last durable
    /// append mid-record.
    fn truncate_tail(&self, disk: &str, file: &str, seq: u64) -> bool {
        let _ = (disk, file, seq);
        false
    }
}

/// A [`DiskFaults`] that never injects anything.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFaults;

impl DiskFaults for NoFaults {}

/// One pending (written but not fsynced) extent.
#[derive(Debug, Clone)]
struct PendingWrite {
    off: usize,
    len: usize,
    torn: bool,
    is_append: bool,
}

#[derive(Debug, Default)]
struct FileState {
    durable: Vec<u8>,
    cache: Vec<u8>,
    pending: Vec<PendingWrite>,
    /// Offset and length of the last *durable* append — the record the
    /// truncated-tail fault tears at crash time.
    last_append: Option<(usize, usize)>,
    write_seq: u64,
    fsync_seq: u64,
}

#[derive(Default)]
struct DiskState {
    files: BTreeMap<String, FileState>,
    crash_seq: u64,
    crashes: u64,
    fsyncs: u64,
    lost_fsyncs: u64,
    torn_writes: u64,
    truncated_tails: u64,
}

impl DiskState {
    /// `file`'s state, created empty on first use (always `Some`). Looks up
    /// before it inserts, so only a file's first touch allocates its name.
    fn touch(&mut self, file: &str) -> Option<&mut FileState> {
        if !self.files.contains_key(file) {
            self.files.insert(file.to_string(), FileState::default());
        }
        self.files.get_mut(file)
    }
}

/// Counter snapshot of a disk's fault history.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Crashes simulated.
    pub crashes: u64,
    /// Fsyncs requested (including lost ones).
    pub fsyncs: u64,
    /// Fsyncs that silently hardened nothing.
    pub lost_fsyncs: u64,
    /// Writes persisted torn.
    pub torn_writes: u64,
    /// WAL tails truncated at crash.
    pub truncated_tails: u64,
}

/// How many bytes of a torn tail survive: the 12-byte record header plus
/// the first payload byte (the kind tag) — a tear at the first sector
/// boundary that leaves the record's intent readable but unverifiable.
pub const TORN_TAIL_KEEP: usize = 13;

/// A simulated disk. Clones share state.
#[derive(Clone)]
pub struct VDisk {
    name: String,
    faults: Arc<dyn DiskFaults>,
    state: Arc<Mutex<DiskState>>,
}

impl std::fmt::Debug for VDisk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VDisk")
            .field("name", &self.name)
            .field("files", &self.state.lock().files.len())
            .finish()
    }
}

impl VDisk {
    /// A fault-free disk named `name` (the fault-plan target key).
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self::with_faults(name, Arc::new(NoFaults))
    }

    /// A disk whose operations consult `faults`.
    #[must_use]
    pub fn with_faults(name: impl Into<String>, faults: Arc<dyn DiskFaults>) -> Self {
        Self {
            name: name.into(),
            faults,
            state: Arc::new(Mutex::new(DiskState::default())),
        }
    }

    /// The disk's name (fault-plan target key).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current length of `file` as the running process sees it.
    #[must_use]
    pub fn len(&self, file: &str) -> u64 {
        self.state
            .lock()
            .files
            .get(file)
            .map_or(0, |f| f.cache.len() as u64)
    }

    /// Whether the disk holds no files at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.state.lock().files.is_empty()
    }

    /// Reads up to `len` bytes of `file` at `off` from the cache view
    /// (shorter at end-of-file; empty for a missing file).
    #[must_use]
    pub fn read(&self, file: &str, off: u64, len: usize) -> Vec<u8> {
        let state = self.state.lock();
        let Some(f) = state.files.get(file) else {
            return Vec::new();
        };
        let start = (off as usize).min(f.cache.len());
        let end = start.saturating_add(len).min(f.cache.len());
        f.cache
            .get(start..end)
            .map_or_else(Vec::new, <[u8]>::to_vec)
    }

    /// [`VDisk::read`] into `buf`: copies up to `buf.len()` bytes of `file`
    /// at `off` from the cache view and returns how many it copied (fewer
    /// at end-of-file; 0 for a missing file). Allocates nothing.
    pub fn read_into(&self, file: &str, off: u64, buf: &mut [u8]) -> usize {
        let state = self.state.lock();
        let Some(f) = state.files.get(file) else {
            return 0;
        };
        let start = (off as usize).min(f.cache.len());
        let end = start.saturating_add(buf.len()).min(f.cache.len());
        match (f.cache.get(start..end), buf.get_mut(..end - start)) {
            (Some(src), Some(dst)) => {
                dst.copy_from_slice(src);
                src.len()
            }
            _ => 0,
        }
    }

    /// Writes `bytes` to `file` at `off`, extending it if needed. The
    /// write is cached, not durable, until [`VDisk::fsync`].
    pub fn write_at(&self, file: &str, off: u64, bytes: &[u8]) {
        self.write_inner(file, off as usize, bytes, false);
    }

    /// Appends `bytes` to `file`, returning the offset written at.
    pub fn append(&self, file: &str, bytes: &[u8]) -> u64 {
        let off = self.state.lock().touch(file).map_or(0, |f| f.cache.len());
        self.write_inner(file, off, bytes, true);
        off as u64
    }

    fn write_inner(&self, file: &str, off: usize, bytes: &[u8], is_append: bool) {
        // The fault adjudicator may consult the shared fault plan (its own
        // lock); take the sequence number first so the state lock is fully
        // released before calling out.
        let seq = {
            let mut state = self.state.lock();
            let Some(f) = state.touch(file) else {
                return;
            };
            let seq = f.write_seq;
            f.write_seq += 1;
            seq
        };
        let torn = !is_append && self.faults.torn_page(&self.name, file, seq);
        let mut state = self.state.lock();
        if torn {
            state.torn_writes += 1;
        }
        let Some(f) = state.files.get_mut(file) else {
            return;
        };
        let end = off + bytes.len();
        if f.cache.len() < end {
            f.cache.resize(end, 0);
        }
        if let Some(dst) = f.cache.get_mut(off..end) {
            dst.copy_from_slice(bytes);
        }
        f.pending.push(PendingWrite {
            off,
            len: bytes.len(),
            torn,
            is_append,
        });
    }

    /// Hardens `file`'s pending writes into the durable image — unless the
    /// lost-fsync fault fires, in which case it reports success while
    /// hardening nothing (the writes stay pending and die with the next
    /// crash). Torn writes persist only their leading half.
    pub fn fsync(&self, file: &str) {
        let lost = {
            let mut state = self.state.lock();
            state.fsyncs += 1;
            let Some(f) = state.touch(file) else {
                return;
            };
            let seq = f.fsync_seq;
            f.fsync_seq += 1;
            drop(state);
            // `state` was dropped above: the fault-plan lock is consulted
            // unnested. rddr-analyze: allow(lock-order)
            self.faults.lost_fsync(&self.name, file, seq)
        };
        let mut state = self.state.lock();
        if lost {
            state.lost_fsyncs += 1;
            return;
        }
        let Some(f) = state.files.get_mut(file) else {
            return;
        };
        let FileState {
            durable,
            cache,
            pending,
            last_append,
            ..
        } = f;
        for w in pending.drain(..) {
            let end = w.off + w.len;
            if durable.len() < end {
                durable.resize(end, 0);
            }
            let keep = if w.torn { w.len / 2 } else { w.len };
            if let (Some(src), Some(dst)) = (
                cache.get(w.off..w.off + keep),
                durable.get_mut(w.off..w.off + keep),
            ) {
                dst.copy_from_slice(src);
            }
            if w.torn {
                if let Some(rest) = durable.get_mut(w.off + keep..end) {
                    rest.fill(0);
                }
            }
            if w.is_append {
                *last_append = Some((w.off, w.len));
            }
        }
    }

    /// Simulates a crash: every file's pending writes are discarded and
    /// the cache view is reset to the durable image. Files for which the
    /// truncated-tail fault fires lose the tail of their last durable
    /// append past [`TORN_TAIL_KEEP`] bytes.
    pub fn crash(&self) {
        let (seq, names) = {
            let mut state = self.state.lock();
            let seq = state.crash_seq;
            state.crash_seq += 1;
            state.crashes += 1;
            (seq, state.files.keys().cloned().collect::<Vec<_>>())
        };
        let draws: Vec<(String, bool)> = names
            .into_iter()
            .map(|n| {
                let hit = self.faults.truncate_tail(&self.name, &n, seq);
                (n, hit)
            })
            .collect();
        let mut state = self.state.lock();
        for (name, truncate) in draws {
            let mut truncated = false;
            if let Some(f) = state.files.get_mut(&name) {
                f.pending.clear();
                if truncate {
                    if let Some((off, len)) = f.last_append {
                        let keep = off + TORN_TAIL_KEEP.min(len);
                        if keep < f.durable.len() {
                            f.durable.truncate(keep);
                            f.last_append = None;
                            truncated = true;
                        }
                    }
                }
                f.cache = f.durable.clone();
            }
            if truncated {
                state.truncated_tails += 1;
            }
        }
    }

    /// Truncates `file` to `len` bytes in both the cache and durable
    /// images (recovery uses this to clear a torn WAL tail before
    /// appending fresh records).
    pub fn truncate(&self, file: &str, len: u64) {
        let mut state = self.state.lock();
        if let Some(f) = state.files.get_mut(file) {
            f.cache.truncate(len as usize);
            f.durable.truncate(len as usize);
            f.pending.retain(|w| w.off + w.len <= len as usize);
            if f.last_append.is_some_and(|(off, l)| off + l > len as usize) {
                f.last_append = None;
            }
        }
    }

    /// Removes `file` entirely (recovery rebuilds the heap from scratch).
    pub fn remove(&self, file: &str) {
        self.state.lock().files.remove(file);
    }

    /// Counter snapshot.
    #[must_use]
    pub fn stats(&self) -> DiskStats {
        let state = self.state.lock();
        DiskStats {
            crashes: state.crashes,
            fsyncs: state.fsyncs,
            lost_fsyncs: state.lost_fsyncs,
            torn_writes: state.torn_writes,
            truncated_tails: state.truncated_tails,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_are_visible_but_not_durable_until_fsync() {
        let disk = VDisk::new("d0");
        disk.write_at("f", 0, b"hello");
        assert_eq!(disk.read("f", 0, 5), b"hello");
        disk.crash();
        assert_eq!(disk.read("f", 0, 5), b"");
        disk.write_at("f", 0, b"hello");
        disk.fsync("f");
        disk.crash();
        assert_eq!(disk.read("f", 0, 5), b"hello");
    }

    #[test]
    fn append_returns_sequential_offsets() {
        let disk = VDisk::new("d0");
        assert_eq!(disk.append("log", b"abc"), 0);
        assert_eq!(disk.append("log", b"defg"), 3);
        assert_eq!(disk.len("log"), 7);
        assert_eq!(disk.read("log", 3, 4), b"defg");
    }

    struct OneLostFsync;
    impl DiskFaults for OneLostFsync {
        fn lost_fsync(&self, _d: &str, _f: &str, seq: u64) -> bool {
            seq == 0
        }
    }

    #[test]
    fn lost_fsync_reports_success_but_crash_discards() {
        let disk = VDisk::with_faults("d0", Arc::new(OneLostFsync));
        disk.append("log", b"txn");
        disk.fsync("log"); // lost
        assert_eq!(disk.read("log", 0, 3), b"txn"); // cache still shows it
        disk.crash();
        assert_eq!(disk.len("log"), 0);
        assert_eq!(disk.stats().lost_fsyncs, 1);
        // The next fsync works.
        disk.append("log", b"txn");
        disk.fsync("log");
        disk.crash();
        assert_eq!(disk.len("log"), 3);
    }

    struct TornFirstWrite;
    impl DiskFaults for TornFirstWrite {
        fn torn_page(&self, _d: &str, _f: &str, seq: u64) -> bool {
            seq == 0
        }
    }

    #[test]
    fn torn_write_halves_survive_crash_only() {
        let disk = VDisk::with_faults("d0", Arc::new(TornFirstWrite));
        disk.write_at("heap", 0, &[0xAA; 8]);
        disk.fsync("heap");
        // Cache view is whole...
        assert_eq!(disk.read("heap", 0, 8), vec![0xAA; 8]);
        disk.crash();
        // ...durable view is torn: first half kept, rest zeroed.
        assert_eq!(
            disk.read("heap", 0, 8),
            vec![0xAA, 0xAA, 0xAA, 0xAA, 0, 0, 0, 0]
        );
        assert_eq!(disk.stats().torn_writes, 1);
    }

    struct TruncateFirstCrash;
    impl DiskFaults for TruncateFirstCrash {
        fn truncate_tail(&self, _d: &str, file: &str, seq: u64) -> bool {
            file == "wal" && seq == 0
        }
    }

    #[test]
    fn crash_truncates_last_durable_append_mid_record() {
        let disk = VDisk::with_faults("d0", Arc::new(TruncateFirstCrash));
        let record = vec![7u8; 40];
        disk.append("wal", &record);
        disk.fsync("wal");
        disk.append("wal", &record); // pending, dies with the crash anyway
        disk.crash();
        assert_eq!(disk.len("wal"), TORN_TAIL_KEEP as u64);
        assert_eq!(disk.stats().truncated_tails, 1);
        // Second crash: no fault, nothing further lost.
        disk.crash();
        assert_eq!(disk.len("wal"), TORN_TAIL_KEEP as u64);
    }

    #[test]
    fn truncate_clears_tail_everywhere() {
        let disk = VDisk::new("d0");
        disk.append("wal", b"0123456789");
        disk.fsync("wal");
        disk.truncate("wal", 4);
        assert_eq!(disk.read("wal", 0, 10), b"0123");
        disk.crash();
        assert_eq!(disk.read("wal", 0, 10), b"0123");
    }

    #[test]
    fn clones_share_state() {
        let disk = VDisk::new("d0");
        let other = disk.clone();
        disk.append("f", b"x");
        assert_eq!(other.len("f"), 1);
    }
}
