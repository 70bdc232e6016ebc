//! A fixed-size buffer pool with deterministic clock eviction.
//!
//! Frames cache [`Page`]s of one heap file. Lookups pin the frame for the
//! duration of the visitor closure; eviction sweeps a clock hand over the
//! frames, skipping pinned ones and clearing reference bits, and flushes
//! dirty victims back to the [`VDisk`] before reuse — the only write-back
//! the engine's write path makes. A miss picks its victim first and then
//! reads the page from disk straight into that frame's buffer, so a frame
//! keeps one 4 KiB buffer for the life of the pool. Everything is
//! deterministic: same access sequence, same hit/miss/eviction trace.

use crate::disk::VDisk;
use crate::page::{Page, PAGE_SIZE};
use crate::{Result, StoreError};

/// Default number of frames a pool holds.
pub const DEFAULT_FRAMES: usize = 64;

#[derive(Debug)]
struct Frame {
    page_no: u64,
    page: Page,
    dirty: bool,
    pinned: bool,
    referenced: bool,
    occupied: bool,
}

impl Frame {
    fn empty() -> Self {
        Self {
            page_no: 0,
            page: Page::new(),
            dirty: false,
            pinned: false,
            referenced: false,
            occupied: false,
        }
    }
}

/// Which frame holds which page: `(page number, frame index)` pairs sorted
/// by page number. It holds at most one pair per frame, so it is allocated
/// once, at the pool's capacity, and a miss's remove and insert shift a
/// few hundred bytes instead of allocating tree nodes.
#[derive(Debug)]
struct PageMap(Vec<(u64, usize)>);

impl PageMap {
    fn with_capacity(frames: usize) -> Self {
        Self(Vec::with_capacity(frames))
    }

    fn find(&self, page_no: u64) -> std::result::Result<usize, usize> {
        self.0.binary_search_by_key(&page_no, |&(no, _)| no)
    }

    fn get(&self, page_no: &u64) -> Option<&usize> {
        let at = self.find(*page_no).ok()?;
        self.0.get(at).map(|(_, idx)| idx)
    }

    /// Maps `page_no`, which no frame holds, to frame `idx`.
    fn insert(&mut self, page_no: u64, idx: usize) {
        if let Err(at) = self.find(page_no) {
            self.0.insert(at, (page_no, idx));
        }
    }

    fn remove(&mut self, page_no: &u64) {
        if let Ok(at) = self.find(*page_no) {
            self.0.remove(at);
        }
    }

    fn clear(&mut self) {
        self.0.clear();
    }
}

/// Cache statistics, for benchmarks and eviction-determinism tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Lookups served from a resident frame.
    pub hits: u64,
    /// Lookups that read the page from disk.
    pub misses: u64,
    /// Frames recycled by the clock hand.
    pub evictions: u64,
    /// Dirty pages written back to disk.
    pub writebacks: u64,
}

/// A fixed-size page cache over one [`VDisk`] file.
#[derive(Debug)]
pub struct BufferPool {
    file: String,
    frames: Vec<Frame>,
    map: PageMap,
    hand: usize,
    stats: PoolStats,
}

impl BufferPool {
    /// A pool of `capacity` frames caching `file`.
    #[must_use]
    pub fn new(file: impl Into<String>, capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            file: file.into(),
            frames: (0..capacity).map(|_| Frame::empty()).collect(),
            map: PageMap::with_capacity(capacity),
            hand: 0,
            stats: PoolStats::default(),
        }
    }

    /// Cache statistics so far.
    #[must_use]
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Runs `f` over page `page_no`, reading it from `disk` on a miss. The
    /// frame is pinned while `f` runs.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] when the on-disk page fails validation (the
    /// torn-page detection path).
    pub fn with_page<T>(
        &mut self,
        disk: &VDisk,
        page_no: u64,
        f: impl FnOnce(&Page) -> T,
    ) -> Result<T> {
        let idx = self.acquire(disk, page_no)?;
        let out = match self.frames.get_mut(idx) {
            Some(frame) => {
                frame.pinned = true;
                let out = f(&frame.page);
                frame.pinned = false;
                out
            }
            None => return Err(StoreError::Corrupt("frame index out of range".into())),
        };
        Ok(out)
    }

    /// Like [`BufferPool::with_page`] but mutable; marks the frame dirty.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] when the on-disk page fails validation.
    pub fn with_page_mut<T>(
        &mut self,
        disk: &VDisk,
        page_no: u64,
        f: impl FnOnce(&mut Page) -> T,
    ) -> Result<T> {
        let idx = self.acquire(disk, page_no)?;
        let out = match self.frames.get_mut(idx) {
            Some(frame) => {
                frame.pinned = true;
                frame.dirty = true;
                let out = f(&mut frame.page);
                frame.pinned = false;
                out
            }
            None => return Err(StoreError::Corrupt("frame index out of range".into())),
        };
        Ok(out)
    }

    /// Installs a fresh empty page for `page_no` without reading disk (the
    /// page is being created and has no on-disk image yet).
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] if evicting a victim frame fails.
    pub fn create_page(&mut self, disk: &VDisk, page_no: u64) -> Result<()> {
        let idx = match self.map.get(&page_no) {
            Some(&idx) => idx,
            None => self.take_victim(disk, page_no)?,
        };
        if let Some(frame) = self.frames.get_mut(idx) {
            frame.page.reset();
            frame.dirty = true;
            frame.referenced = true;
        }
        Ok(())
    }

    /// Writes every dirty frame back to `disk` (unsynced; callers fsync).
    /// The storage engine never calls this — its heap is rebuilt from the
    /// WAL on open, so dirty pages reach disk only when evicted — but a
    /// caller that wants a file of sealed pages, such as a benchmark
    /// preparing pages to fetch, can.
    pub fn flush_all(&mut self, disk: &VDisk) {
        for frame in &mut self.frames {
            if frame.occupied && frame.dirty {
                disk.write_at(
                    &self.file,
                    frame.page_no * PAGE_SIZE as u64,
                    frame.page.seal(),
                );
                frame.dirty = false;
                self.stats.writebacks += 1;
            }
        }
    }

    /// Drops every frame without writing back — the crash/rollback path.
    pub fn clear(&mut self) {
        for frame in &mut self.frames {
            *frame = Frame::empty();
        }
        self.map.clear();
        self.hand = 0;
    }

    fn acquire(&mut self, disk: &VDisk, page_no: u64) -> Result<usize> {
        if let Some(&idx) = self.map.get(&page_no) {
            if let Some(frame) = self.frames.get_mut(idx) {
                frame.referenced = true;
            }
            self.stats.hits += 1;
            return Ok(idx);
        }
        self.stats.misses += 1;
        let idx = self.take_victim(disk, page_no)?;
        let Some(frame) = self.frames.get_mut(idx) else {
            return Err(StoreError::Corrupt("frame index out of range".into()));
        };
        let off = page_no * PAGE_SIZE as u64;
        let read = frame
            .page
            .read_from(|buf| disk.read_into(&self.file, off, buf));
        if let Err(e) = read {
            // The victim is already gone (written back if it was dirty);
            // the frame stays free and `page_no` unmapped.
            frame.occupied = false;
            frame.referenced = false;
            self.map.remove(&page_no);
            return Err(StoreError::Corrupt(format!(
                "page {page_no} of {}: {e}",
                self.file
            )));
        }
        Ok(idx)
    }

    /// Evicts a victim (see [`BufferPool::victim`]) and maps `page_no` to
    /// its frame, referenced and clean, with the old page still in the
    /// buffer for the caller to overwrite.
    fn take_victim(&mut self, disk: &VDisk, page_no: u64) -> Result<usize> {
        let idx = self.victim(disk)?;
        if let Some(frame) = self.frames.get_mut(idx) {
            if frame.occupied {
                self.map.remove(&frame.page_no);
            }
            frame.page_no = page_no;
            frame.dirty = false;
            frame.pinned = false;
            frame.referenced = true;
            frame.occupied = true;
        }
        self.map.insert(page_no, idx);
        Ok(idx)
    }

    /// Clock sweep: advance the hand, skip pinned frames, clear reference
    /// bits, take the first unreferenced unpinned frame. Flushes a dirty
    /// victim before handing it out.
    fn victim(&mut self, disk: &VDisk) -> Result<usize> {
        // An unoccupied frame is always free (scan in index order so frame
        // fill order is deterministic).
        if let Some(idx) = self.frames.iter().position(|f| !f.occupied) {
            return Ok(idx);
        }
        // Two full sweeps guarantee a victim unless every frame is pinned,
        // which cannot happen: pins only live inside a visitor closure.
        let n = self.frames.len();
        for _ in 0..2 * n {
            let idx = self.hand;
            self.hand = (self.hand + 1) % n;
            let Some(frame) = self.frames.get_mut(idx) else {
                continue;
            };
            if frame.pinned {
                continue;
            }
            if frame.referenced {
                frame.referenced = false;
                continue;
            }
            if frame.dirty {
                disk.write_at(
                    &self.file,
                    frame.page_no * PAGE_SIZE as u64,
                    frame.page.seal(),
                );
                frame.dirty = false;
                self.stats.writebacks += 1;
            }
            self.stats.evictions += 1;
            return Ok(idx);
        }
        Err(StoreError::Corrupt(
            "buffer pool exhausted: all frames pinned".into(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded_disk(pages: u64) -> VDisk {
        let disk = VDisk::new("pool-test");
        for no in 0..pages {
            let mut p = Page::new();
            p.insert(format!("page-{no}").as_bytes());
            disk.write_at("heap", no * PAGE_SIZE as u64, p.seal());
        }
        disk.fsync("heap");
        disk
    }

    #[test]
    fn hit_after_miss() {
        let disk = seeded_disk(2);
        let mut pool = BufferPool::new("heap", 4);
        let t = pool
            .with_page(&disk, 1, |p| p.tuple(0).map(<[u8]>::to_vec))
            .unwrap()
            .unwrap();
        assert_eq!(t, b"page-1");
        pool.with_page(&disk, 1, |_| ()).unwrap();
        assert_eq!(pool.stats().hits, 1);
        assert_eq!(pool.stats().misses, 1);
    }

    #[test]
    fn eviction_is_deterministic_and_bounded() {
        let disk = seeded_disk(8);
        let run = || {
            let mut pool = BufferPool::new("heap", 2);
            for no in [0u64, 1, 2, 3, 0, 1, 2, 3] {
                pool.with_page(&disk, no, |_| ()).unwrap();
            }
            pool.stats()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same access trace, same stats");
        assert!(a.evictions >= 4);
        assert_eq!(a.hits + a.misses, 8);
    }

    #[test]
    fn dirty_pages_write_back_on_eviction_and_flush() {
        let disk = seeded_disk(3);
        let mut pool = BufferPool::new("heap", 1);
        pool.with_page_mut(&disk, 0, |p| {
            p.insert(b"extra");
        })
        .unwrap();
        // Touch two other pages through the single frame: page 0 must be
        // written back by the clock.
        pool.with_page(&disk, 1, |_| ()).unwrap();
        pool.with_page(&disk, 2, |_| ()).unwrap();
        assert!(pool.stats().writebacks >= 1);
        disk.fsync("heap");
        // Re-read page 0 from disk through a fresh pool.
        let mut fresh = BufferPool::new("heap", 1);
        let n = fresh.with_page(&disk, 0, Page::slot_count).unwrap();
        assert_eq!(n, 2);
    }

    #[test]
    fn create_page_skips_disk_read() {
        let disk = VDisk::new("pool-test");
        let mut pool = BufferPool::new("heap", 2);
        pool.create_page(&disk, 0).unwrap();
        pool.with_page_mut(&disk, 0, |p| {
            p.insert(b"fresh");
        })
        .unwrap();
        pool.flush_all(&disk);
        disk.fsync("heap");
        let mut fresh = BufferPool::new("heap", 1);
        let t = fresh
            .with_page(&disk, 0, |p| p.tuple(0).map(<[u8]>::to_vec))
            .unwrap()
            .unwrap();
        assert_eq!(t, b"fresh");
    }

    #[test]
    fn corrupt_page_read_is_an_error() {
        let disk = VDisk::new("pool-test");
        disk.write_at("heap", 0, &vec![0xAAu8; PAGE_SIZE]);
        disk.fsync("heap");
        let mut pool = BufferPool::new("heap", 2);
        assert!(matches!(
            pool.with_page(&disk, 0, |_| ()),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn a_failed_read_leaves_the_pool_consistent() {
        let disk = seeded_disk(4);
        disk.write_at("heap", 3 * PAGE_SIZE as u64, &[0xAAu8; PAGE_SIZE]);
        let mut pool = BufferPool::new("heap", 2);
        pool.with_page_mut(&disk, 0, |p| p.insert(b"unflushed"))
            .unwrap();
        pool.with_page(&disk, 1, |_| ()).unwrap();
        // The clock picks page 0's frame, writes it back, then the read
        // into it fails.
        assert!(matches!(
            pool.with_page(&disk, 3, |_| ()),
            Err(StoreError::Corrupt(_))
        ));
        assert!(pool.map.get(&3).is_none(), "no entry for the failed page");
        assert!(pool.map.get(&0).is_none(), "page 0 was the victim");
        assert_eq!(pool.stats().writebacks, 1, "the dirty victim went back");
        let hits = pool.stats().hits;
        pool.with_page(&disk, 1, |_| ()).unwrap();
        assert_eq!(pool.stats().hits, hits + 1, "page 1 is still resident");
        let t = pool
            .with_page(&disk, 0, |p| p.tuple(1).map(<[u8]>::to_vec))
            .unwrap()
            .unwrap();
        assert_eq!(t, b"unflushed", "the write-back lost nothing");
        assert!(matches!(
            pool.with_page(&disk, 3, |_| ()),
            Err(StoreError::Corrupt(_))
        ));
        assert!(pool.map.get(&3).is_none());
    }
}
