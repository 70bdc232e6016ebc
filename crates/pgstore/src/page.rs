//! Slotted heap pages.
//!
//! Layout (little-endian, [`PAGE_SIZE`] bytes):
//!
//! ```text
//! 0..8    checksum   word-wise FNV-1a of bytes 8..PAGE_SIZE (see below),
//!                    stamped at seal time
//! 8..16   next page  number of the next page in the table's chain (0 = end)
//! 16..18  slot count
//! 18..20  free offset — start of the tuple data region (grows downward)
//! 20..    slot directory: per slot, offset u16 + length u16 (grows upward)
//! ...     tuple bytes, packed from the end of the page
//! ```
//!
//! A slot number, once handed out, names the same row for as long as the
//! page is part of its chain: [`Page::put`] replaces a slot's tuple in
//! place (moving the bytes inside the page when the tuple grows, compacting
//! the data region when it is fragmented) and [`Page::delete`] leaves a
//! tombstone — a slot entry with offset 0, which no tuple can have because
//! the header lives there. Only [`Page::truncate`] (rolling an append back)
//! gives slot numbers up for reuse.
//!
//! Whether a tuple fits is decided from the page's *logical* content alone
//! — slot count and live tuple lengths, never how fragmented the data
//! region happens to be — so a page rebuilt by WAL replay makes the same
//! placement decisions as the page that wrote the log.
//!
//! The checksum is what detects a torn page: a write that persisted only
//! its leading sectors fails verification on the next read-from-disk,
//! surfacing as [`StoreError::Corrupt`]. It is FNV-1a's xor-multiply step
//! taken a little-endian `u64` word at a time rather than a byte at a
//! time, over four interleaved lanes (word `i` feeds lane `i % 4`) that
//! are folded together at the end, so the multiplies of neighbouring words
//! overlap. Every step is a bijection of the lane state, so a change
//! confined to one word — any single flipped byte — always changes the sum.
//! Each write-back stamps it and each read from disk verifies it, in place
//! in the buffer-pool frame the page is read into.

use crate::{Result, StoreError};

/// Size of one heap page in bytes.
pub const PAGE_SIZE: usize = 4096;

/// Header bytes before the slot directory.
const HEADER: usize = 20;

/// Bytes one slot-directory entry occupies.
const SLOT_ENTRY: usize = 4;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Independent FNV lanes the checksum interleaves words over.
const LANES: usize = 4;

/// One FNV-1a step over a whole little-endian word.
fn fnv_word(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(FNV_PRIME)
}

fn le_word(bytes: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    if let Some(dst) = word.get_mut(..bytes.len()) {
        dst.copy_from_slice(bytes);
    }
    u64::from_le_bytes(word)
}

/// The page checksum of `body` (a page image past its checksum field):
/// word-wise FNV-1a over [`LANES`] interleaved lanes, folded in lane order,
/// then any words (and a zero-padded partial word) past the last full
/// stride.
fn checksum(body: &[u8]) -> u64 {
    let mut lanes = [FNV_OFFSET; LANES];
    let mut strides = body.chunks_exact(8 * LANES);
    for stride in &mut strides {
        for (lane, word) in lanes.iter_mut().zip(stride.chunks_exact(8)) {
            *lane = fnv_word(*lane, le_word(word));
        }
    }
    let folded = lanes.iter().fold(FNV_OFFSET, |h, &lane| fnv_word(h, lane));
    strides
        .remainder()
        .chunks(8)
        .fold(folded, |h, word| fnv_word(h, le_word(word)))
}

/// One in-memory heap page.
#[derive(Debug, Clone)]
pub struct Page {
    bytes: Vec<u8>,
}

impl Default for Page {
    fn default() -> Self {
        Self::new()
    }
}

impl Page {
    /// A fresh, empty page.
    #[must_use]
    pub fn new() -> Self {
        let mut page = Self {
            bytes: vec![0u8; PAGE_SIZE],
        };
        page.put_u16(18, PAGE_SIZE as u16);
        page
    }

    /// Largest tuple a page can hold.
    #[must_use]
    pub fn max_tuple() -> usize {
        PAGE_SIZE - HEADER - SLOT_ENTRY
    }

    /// Overwrites this page with an image read back from disk and
    /// validates it: `read` copies the image into the page buffer it is
    /// given and returns how many bytes it copied. The one read-from-disk
    /// path, so a miss reuses its frame's buffer. On an error the page
    /// holds whatever was read and must not be used.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] on a short read or checksum mismatch — the
    /// torn-page detection path.
    pub(crate) fn read_from(&mut self, read: impl FnOnce(&mut [u8]) -> usize) -> Result<()> {
        let n = read(&mut self.bytes);
        if n != PAGE_SIZE {
            return Err(StoreError::Corrupt(format!("short page read: {n} bytes")));
        }
        let stored = self.read_u64(0);
        let actual = checksum(self.bytes.get(8..).unwrap_or(&[]));
        if stored != actual {
            return Err(StoreError::Corrupt(format!(
                "page checksum mismatch: stored {stored:#x}, computed {actual:#x}"
            )));
        }
        Ok(())
    }

    /// Empties the page in place, as [`Page::new`] would build it.
    pub(crate) fn reset(&mut self) {
        self.bytes.fill(0);
        self.put_u16(18, PAGE_SIZE as u16);
    }

    /// Stamps the checksum and returns the full page image for writing.
    pub fn seal(&mut self) -> &[u8] {
        let sum = checksum(self.bytes.get(8..).unwrap_or(&[]));
        self.put_u64(0, sum);
        &self.bytes
    }

    /// The next page in the chain (0 = end of chain).
    #[must_use]
    pub fn next(&self) -> u64 {
        self.read_u64(8)
    }

    /// Links the chain to `page_no`.
    pub fn set_next(&mut self, page_no: u64) {
        self.put_u64(8, page_no);
    }

    /// Number of slots handed out, tombstones included.
    #[must_use]
    pub fn slot_count(&self) -> u16 {
        self.read_u16(16)
    }

    /// Bytes still available for one more tuple (including its slot entry),
    /// counting what a compaction would reclaim.
    #[must_use]
    pub fn free_space(&self) -> usize {
        (self.gap() + self.reclaimable()).saturating_sub(SLOT_ENTRY)
    }

    /// Appends a tuple, returning its slot number, or `None` if the page
    /// is full.
    pub fn insert(&mut self, tuple: &[u8]) -> Option<u16> {
        let need = tuple.len() + SLOT_ENTRY;
        if need > self.gap() {
            if need > self.gap() + self.reclaimable() {
                return None;
            }
            self.compact();
        }
        let slot = self.slot_count();
        self.put_u16(16, slot + 1);
        self.write_tuple(slot, tuple);
        Some(slot)
    }

    /// The tuple in `slot`, or `None` if the slot is a tombstone.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] if the slot or its extent is out of range.
    pub fn get(&self, slot: u16) -> Result<Option<&[u8]>> {
        let (off, len) = self.slot_entry(slot)?;
        if off == 0 {
            return Ok(None);
        }
        self.bytes
            .get(off..off + len)
            .map(Some)
            .ok_or_else(|| StoreError::Corrupt(format!("slot {slot} extent {off}+{len} invalid")))
    }

    /// The tuple bytes in a live `slot`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] if the slot is out of range or deleted.
    pub fn tuple(&self, slot: u16) -> Result<&[u8]> {
        self.get(slot)?
            .ok_or_else(|| StoreError::Corrupt(format!("slot {slot} is deleted")))
    }

    /// Makes `tuple` the content of `slot` — replacing its current tuple or
    /// reviving a tombstone — and returns whether it fit. A tuple no longer
    /// than the one it replaces is overwritten where it lies; a longer one
    /// moves into free space, after a compaction if the free bytes are not
    /// contiguous. On `false` the page is unchanged.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] if the slot is out of range.
    pub fn put(&mut self, slot: u16, tuple: &[u8]) -> Result<bool> {
        let (off, len) = self.slot_entry(slot)?;
        if off != 0 && tuple.len() <= len {
            if let Some(dst) = self.bytes.get_mut(off..off + tuple.len()) {
                dst.copy_from_slice(tuple);
            }
            self.set_slot_entry(slot, off, tuple.len());
            return Ok(true);
        }
        // The old image's bytes count as free from here on.
        self.set_slot_entry(slot, 0, 0);
        if tuple.len() > self.gap() {
            if tuple.len() > self.gap() + self.reclaimable() {
                self.set_slot_entry(slot, off, len);
                return Ok(false);
            }
            self.compact();
        }
        self.write_tuple(slot, tuple);
        Ok(true)
    }

    /// Tombstones `slot`: its number stays taken, its bytes become free.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] if the slot is out of range or already
    /// deleted.
    pub fn delete(&mut self, slot: u16) -> Result<()> {
        self.tuple(slot)?;
        self.set_slot_entry(slot, 0, 0);
        Ok(())
    }

    /// Forgets every slot from `slots` on (rolling an append back); their
    /// numbers will be handed out again.
    pub fn truncate(&mut self, slots: u16) {
        if slots < self.slot_count() {
            self.put_u16(16, slots);
        }
    }

    /// Contiguous free bytes between the slot directory and the data region.
    fn gap(&self) -> usize {
        let dir_end = HEADER + usize::from(self.slot_count()) * SLOT_ENTRY;
        usize::from(self.read_u16(18)).saturating_sub(dir_end)
    }

    /// Data-region bytes no live tuple owns (tombstones, superseded images,
    /// truncated appends) — what [`Page::compact`] would add to the gap.
    fn reclaimable(&self) -> usize {
        let live: usize = (0..self.slot_count())
            .filter_map(|slot| self.slot_entry(slot).ok())
            .filter(|&(off, _)| off != 0)
            .map(|(_, len)| len)
            .sum();
        (PAGE_SIZE - usize::from(self.read_u16(18))).saturating_sub(live)
    }

    /// Repacks the live tuples against the end of the page, in slot order.
    fn compact(&mut self) {
        let old = self.bytes.clone();
        self.put_u16(18, PAGE_SIZE as u16);
        for slot in 0..self.slot_count() {
            let Ok((off, len)) = self.slot_entry(slot) else {
                continue;
            };
            if off != 0 {
                self.write_tuple(slot, old.get(off..off + len).unwrap_or(&[]));
            }
        }
    }

    /// Copies `tuple` to the top of the gap and points `slot` at it. The
    /// caller has checked that it fits.
    fn write_tuple(&mut self, slot: u16, tuple: &[u8]) {
        let free_off = usize::from(self.read_u16(18));
        let new_off = free_off - tuple.len();
        if let Some(dst) = self.bytes.get_mut(new_off..free_off) {
            dst.copy_from_slice(tuple);
        }
        self.set_slot_entry(slot, new_off, tuple.len());
        self.put_u16(18, new_off as u16);
    }

    /// `(offset, length)` of `slot`'s directory entry.
    fn slot_entry(&self, slot: u16) -> Result<(usize, usize)> {
        if slot >= self.slot_count() {
            return Err(StoreError::Corrupt(format!(
                "slot {slot} out of range ({} slots)",
                self.slot_count()
            )));
        }
        let entry = HEADER + usize::from(slot) * SLOT_ENTRY;
        Ok((
            usize::from(self.read_u16(entry)),
            usize::from(self.read_u16(entry + 2)),
        ))
    }

    fn set_slot_entry(&mut self, slot: u16, off: usize, len: usize) {
        let entry = HEADER + usize::from(slot) * SLOT_ENTRY;
        self.put_u16(entry, off as u16);
        self.put_u16(entry + 2, len as u16);
    }

    fn read_u16(&self, off: usize) -> u16 {
        match self.bytes.get(off..off + 2) {
            Some([a, b]) => u16::from_le_bytes([*a, *b]),
            _ => 0,
        }
    }

    fn put_u16(&mut self, off: usize, v: u16) {
        if let Some(dst) = self.bytes.get_mut(off..off + 2) {
            dst.copy_from_slice(&v.to_le_bytes());
        }
    }

    fn read_u64(&self, off: usize) -> u64 {
        let mut buf = [0u8; 8];
        match self.bytes.get(off..off + 8) {
            Some(src) => {
                buf.copy_from_slice(src);
                u64::from_le_bytes(buf)
            }
            None => 0,
        }
    }

    fn put_u64(&mut self, off: usize, v: u64) {
        if let Some(dst) = self.bytes.get_mut(off..off + 8) {
            dst.copy_from_slice(&v.to_le_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Page {
        /// A page from an image read back from disk, validated as the
        /// buffer pool validates a miss.
        fn from_bytes(bytes: Vec<u8>) -> Result<Self> {
            let mut page = Self::new();
            page.read_from(|buf| {
                let n = bytes.len().min(buf.len());
                buf[..n].copy_from_slice(&bytes[..n]);
                n
            })?;
            Ok(page)
        }
    }

    #[test]
    fn insert_and_read_back_in_order() {
        let mut p = Page::new();
        assert_eq!(p.insert(b"alpha"), Some(0));
        assert_eq!(p.insert(b"beta"), Some(1));
        assert_eq!(p.insert(b""), Some(2));
        assert_eq!(p.tuple(0).unwrap(), b"alpha");
        assert_eq!(p.tuple(1).unwrap(), b"beta");
        assert_eq!(p.tuple(2).unwrap(), b"");
        assert!(p.tuple(3).is_err());
    }

    #[test]
    fn page_fills_up_and_rejects_overflow() {
        let mut p = Page::new();
        let tuple = vec![0xABu8; 100];
        let mut n = 0;
        while p.insert(&tuple).is_some() {
            n += 1;
        }
        // 4096 - 20 header, 104 bytes per tuple+slot.
        assert_eq!(n, (PAGE_SIZE - HEADER) / 104);
        assert!(p.free_space() < 104);
        // Smaller tuples still fit afterwards if space remains.
        let spare = p.free_space();
        if spare > 0 {
            assert!(p.insert(&vec![1u8; spare]).is_some());
        }
    }

    #[test]
    fn oversize_tuple_is_rejected() {
        let mut p = Page::new();
        assert!(p.insert(&vec![0u8; Page::max_tuple() + 1]).is_none());
        assert!(p.insert(&vec![0u8; Page::max_tuple()]).is_some());
    }

    #[test]
    fn put_keeps_the_slot_whatever_the_size() {
        let mut p = Page::new();
        p.insert(b"first").unwrap();
        p.insert(b"second").unwrap();
        p.insert(b"third").unwrap();
        // Same size and shrink: overwritten where it lies.
        assert!(p.put(1, b"SECOND").unwrap());
        assert!(p.put(0, b"1st").unwrap());
        // Grow: moves inside the page, slot unchanged.
        assert!(p.put(1, b"second, but longer").unwrap());
        assert_eq!(p.tuple(0).unwrap(), b"1st");
        assert_eq!(p.tuple(1).unwrap(), b"second, but longer");
        assert_eq!(p.tuple(2).unwrap(), b"third");
        assert_eq!(p.slot_count(), 3);
        assert!(p.put(3, b"no such slot").is_err());
    }

    #[test]
    fn growth_compacts_before_giving_up() {
        let mut p = Page::new();
        let tuple = vec![7u8; 500];
        while p.insert(&tuple).is_some() {}
        let slots = p.slot_count();
        assert!(p.free_space() < 500, "page is full");
        // Nothing contiguous is left for a 900-byte tuple, but deleting two
        // neighbours frees enough in total: the page compacts to fit it.
        assert!(!p.put(0, &vec![9u8; 900]).unwrap());
        assert_eq!(
            p.tuple(0).unwrap(),
            tuple.as_slice(),
            "a refusal changes nothing"
        );
        p.delete(2).unwrap();
        p.delete(4).unwrap();
        assert!(p.put(0, &vec![9u8; 900]).unwrap());
        assert_eq!(p.tuple(0).unwrap(), vec![9u8; 900].as_slice());
        for slot in [1, 3, 5] {
            assert_eq!(
                p.tuple(slot).unwrap(),
                tuple.as_slice(),
                "slot {slot} survived"
            );
        }
        assert_eq!(p.slot_count(), slots);
        // Past the page: refused whatever is compacted.
        assert!(!p.put(1, &vec![1u8; PAGE_SIZE]).unwrap());
    }

    #[test]
    fn fit_depends_on_content_not_on_history() {
        // Two pages with the same live tuples, one reached through updates
        // and deletes that fragmented it: both must take the same inserts.
        let mut worn = Page::new();
        let mut fresh = Page::new();
        for i in 0..30u8 {
            worn.insert(&[i; 120]).unwrap();
            fresh.insert(&[i; 120]).unwrap();
        }
        for slot in 0..30 {
            worn.put(slot, &[0u8; 130]).unwrap();
            worn.put(slot, &[slot as u8; 120]).unwrap();
        }
        let mut n = 0;
        loop {
            let (a, b) = (worn.insert(&[5u8; 100]), fresh.insert(&[5u8; 100]));
            assert_eq!(a, b, "insert {n}");
            if a.is_none() {
                break;
            }
            n += 1;
        }
        assert!(n > 0);
    }

    #[test]
    fn tombstones_keep_their_number_and_later_inserts_follow() {
        let mut p = Page::new();
        p.insert(b"a").unwrap();
        p.insert(b"b").unwrap();
        p.delete(0).unwrap();
        assert_eq!(p.get(0).unwrap(), None);
        assert!(p.tuple(0).is_err());
        assert!(p.delete(0).is_err(), "already deleted");
        assert_eq!(p.insert(b"c"), Some(2), "a deleted slot is not reused");
        assert_eq!(p.slot_count(), 3);
        // Undo of the delete: the row is back in its old position.
        assert!(p.put(0, b"a").unwrap());
        let live: Vec<&[u8]> = (0..3).filter_map(|s| p.get(s).unwrap()).collect();
        assert_eq!(live, [b"a", b"b", b"c"]);
        // Undo of an append: its slot number is handed out again.
        p.truncate(2);
        assert_eq!(p.insert(b"d"), Some(2));
        // An empty tuple is not a tombstone.
        p.put(1, b"").unwrap();
        assert_eq!(p.get(1).unwrap(), Some(&b""[..]));
    }

    #[test]
    fn seal_round_trips_through_bytes() {
        let mut p = Page::new();
        p.insert(b"persist me").unwrap();
        p.set_next(42);
        let image = p.seal().to_vec();
        let back = Page::from_bytes(image).unwrap();
        assert_eq!(back.tuple(0).unwrap(), b"persist me");
        assert_eq!(back.next(), 42);
    }

    #[test]
    fn torn_page_fails_checksum() {
        let mut p = Page::new();
        p.insert(b"full tuple data").unwrap();
        let mut image = p.seal().to_vec();
        // Tear: keep the first half, zero the rest (what a torn sector
        // write leaves on the platter).
        for b in &mut image[PAGE_SIZE / 2..] {
            *b = 0;
        }
        assert!(matches!(
            Page::from_bytes(image),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn short_read_is_corrupt() {
        assert!(matches!(
            Page::from_bytes(vec![0u8; 17]),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn checksum_known_answer() {
        let mut p = Page::new();
        p.insert(b"known answer").unwrap();
        p.insert(&[0x5Au8; 300]).unwrap();
        p.set_next(7);
        let image = p.seal().to_vec();
        // Worked out from the layout and the definition above by a
        // separate implementation, not read back from this one.
        const KNOWN: u64 = 0x490b_32dd_cc5a_a8f4;
        assert_eq!(checksum(&image[8..]), KNOWN);
        assert_eq!(&image[..8], &KNOWN.to_le_bytes());
    }

    #[test]
    fn every_single_byte_flip_fails_verification() {
        let mut p = Page::new();
        p.insert(b"flip me").unwrap();
        p.set_next(3);
        let image = p.seal().to_vec();
        for off in 8..PAGE_SIZE {
            let mut bad = image.clone();
            bad[off] ^= 0x01;
            assert!(
                matches!(Page::from_bytes(bad), Err(StoreError::Corrupt(_))),
                "flip at {off} went unnoticed"
            );
        }
    }
}
