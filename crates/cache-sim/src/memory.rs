//! Paged main-memory backing store.
//!
//! Memory is the authoritative copy below the cache hierarchy: faults in
//! *clean* cache data are recovered by re-fetching from here (paper §3.2),
//! so the store holds real words, not placeholders.
//!
//! Storage is organised as 256-byte pages: a page table maps page numbers
//! to slots in one flat word arena, allocated lazily on first non-zero
//! write. Block transfers inside one page (every power-of-two block up to
//! the page size, at an aligned base) are a single page lookup plus a
//! slice copy — no per-word hashing.
//!
//! The page is small on purpose. A thrashing workload's write-backs
//! scatter over its whole footprint (mcf's ~38k L2 write-backs per drive
//! land across 64 MB), so with 4 KiB pages nearly every write-back
//! zero-fills and faults in a fresh page of which it uses one block.
//! 256 bytes is eight Table 1 blocks and still one page per 64-byte
//! explorer block, so the arena grows with the blocks actually written.

use crate::geometry::WORD_BYTES;
use crate::wordmap::WordMap;

/// Bytes per storage page.
const PAGE_BYTES: u64 = 256;
/// 64-bit words per storage page.
const PAGE_WORDS: usize = (PAGE_BYTES / WORD_BYTES as u64) as usize;

/// A sparse word-addressable main memory. Unwritten locations read as
/// zero, like freshly initialised DRAM in a functional simulator.
///
/// # Example
///
/// ```
/// use cppc_cache_sim::memory::MainMemory;
///
/// let mut mem = MainMemory::new();
/// mem.write_word(0x40, 7);
/// assert_eq!(mem.read_word(0x40), 7);
/// assert_eq!(mem.read_word(0x48), 0);
/// ```
#[derive(Debug, Default)]
pub struct MainMemory {
    /// Page number (`addr / PAGE_BYTES`) → slot index into `arena`.
    /// Slots are handed out in allocation order.
    pages: WordMap<usize>,
    /// Concatenated page frames, `PAGE_WORDS` words each.
    arena: Vec<u64>,
    /// Count of non-zero resident words (the footprint proxy).
    nonzero: usize,
    reads: u64,
    writes: u64,
}

impl MainMemory {
    /// Creates an empty (all-zero) memory.
    #[must_use]
    pub fn new() -> Self {
        MainMemory::default()
    }

    #[inline]
    fn page_number(addr: u64) -> u64 {
        addr / PAGE_BYTES
    }

    /// Word offset of `addr` within its page.
    #[inline]
    fn page_word(addr: u64) -> usize {
        (addr % PAGE_BYTES) as usize / WORD_BYTES
    }

    /// The arena slice of the page holding `addr`, if allocated.
    #[inline]
    fn page(&self, addr: u64) -> Option<&[u64]> {
        let slot = *self.pages.get(&Self::page_number(addr))?;
        Some(&self.arena[slot * PAGE_WORDS..(slot + 1) * PAGE_WORDS])
    }

    /// The arena slice of the page holding `addr`, allocating a zeroed
    /// frame on first touch.
    fn page_mut(&mut self, addr: u64) -> &mut [u64] {
        let arena = &mut self.arena;
        let slot = *self
            .pages
            .entry(Self::page_number(addr))
            .or_insert_with(|| {
                arena.resize(arena.len() + PAGE_WORDS, 0);
                arena.len() / PAGE_WORDS - 1
            });
        &mut self.arena[slot * PAGE_WORDS..(slot + 1) * PAGE_WORDS]
    }

    /// Reads the 64-bit word containing `addr`.
    pub fn read_word(&mut self, addr: u64) -> u64 {
        self.reads += 1;
        self.peek_word(addr)
    }

    /// Reads without counting an access (for assertions/oracles).
    #[must_use]
    pub fn peek_word(&self, addr: u64) -> u64 {
        self.page(addr).map_or(0, |p| p[Self::page_word(addr)])
    }

    /// Writes the 64-bit word containing `addr`.
    pub fn write_word(&mut self, addr: u64, value: u64) {
        self.writes += 1;
        if value == 0 && self.page(addr).is_none() {
            return; // zero store to an untouched page: nothing to record
        }
        let w = Self::page_word(addr);
        let page = self.page_mut(addr);
        let old = page[w];
        page[w] = value;
        match (old == 0, value == 0) {
            (true, false) => self.nonzero += 1,
            (false, true) => self.nonzero -= 1,
            _ => {}
        }
    }

    /// Reads a whole block of `buf.len()` 64-bit words starting at the
    /// block-aligned `base` into `buf`.
    pub fn read_block_into(&mut self, base: u64, buf: &mut [u64]) {
        self.reads += buf.len() as u64;
        if Self::page_number(base) == Self::page_number(base + (buf.len() * WORD_BYTES - 1) as u64)
        {
            // Entirely within one page: one lookup, one slice copy.
            let w = Self::page_word(base);
            match self.page(base) {
                Some(page) => buf.copy_from_slice(&page[w..w + buf.len()]),
                None => buf.fill(0),
            }
        } else {
            for (i, slot) in buf.iter_mut().enumerate() {
                *slot = self.peek_word(base + (i * WORD_BYTES) as u64);
            }
        }
    }

    /// Allocating convenience wrapper around
    /// [`MainMemory::read_block_into`].
    pub fn read_block(&mut self, base: u64, words: usize) -> Vec<u64> {
        let mut buf = vec![0u64; words];
        self.read_block_into(base, &mut buf);
        buf
    }

    /// Writes a whole block starting at the block-aligned `base`.
    pub fn write_block(&mut self, base: u64, data: &[u64]) {
        self.write_back_dirty(base, data, u64::MAX);
    }

    /// Writes back only the dirty words of a block (`mask` bit `i` set ⇔
    /// word `i` is dirty). Clean words are left untouched, which matters
    /// when the cache copy of a clean word has been corrupted: memory
    /// remains authoritative.
    pub fn write_back_dirty(&mut self, base: u64, data: &[u64], mask: u64) {
        let effective = if data.len() >= 64 {
            mask
        } else {
            mask & ((1 << data.len()) - 1)
        };
        if effective == 0 {
            return;
        }
        self.writes += u64::from(effective.count_ones());
        if Self::page_number(base) == Self::page_number(base + (data.len() * WORD_BYTES - 1) as u64)
        {
            let start = Self::page_word(base);
            let mut delta: isize = 0;
            let page = self.page_mut(base);
            for (i, &value) in data.iter().enumerate() {
                if effective >> i & 1 == 1 {
                    let old = page[start + i];
                    page[start + i] = value;
                    match (old == 0, value == 0) {
                        (true, false) => delta += 1,
                        (false, true) => delta -= 1,
                        _ => {}
                    }
                }
            }
            self.nonzero = self.nonzero.checked_add_signed(delta).expect("footprint");
        } else {
            for (i, &value) in data.iter().enumerate() {
                if effective >> i & 1 == 1 {
                    // write_word counts one write itself; compensate.
                    self.writes -= 1;
                    self.write_word(base + (i * WORD_BYTES) as u64, value);
                }
            }
        }
    }

    /// A clone of the whole memory: the warm copy a fault campaign
    /// restores into its live memory with `clone_from` each trial.
    #[must_use]
    pub fn snapshot(&self) -> MainMemory {
        self.clone()
    }

    /// Total word reads serviced.
    #[must_use]
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Total word writes serviced.
    #[must_use]
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Number of distinct non-zero words resident (footprint proxy).
    #[must_use]
    pub fn footprint_words(&self) -> usize {
        self.nonzero
    }

    /// Iterates over `(address, value)` for every non-zero resident word.
    fn iter_nonzero(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.pages.iter().flat_map(move |(&page_no, &slot)| {
            self.arena[slot * PAGE_WORDS..(slot + 1) * PAGE_WORDS]
                .iter()
                .enumerate()
                .filter(|&(_, &v)| v != 0)
                .map(move |(w, &v)| (page_no * PAGE_BYTES + (w * WORD_BYTES) as u64, v))
        })
    }
}

/// `clone_from` restores a warm memory in place and allocates nothing
/// in steady state. Slots are handed out in order, so the pages `self`
/// allocated after it was cloned from `src` are exactly those with a
/// slot past `src`'s; dropping them leaves the page table equal to
/// `src`'s and only the word arena is copied back. A memory with a
/// different history is rebuilt from `src`.
impl Clone for MainMemory {
    fn clone(&self) -> Self {
        MainMemory {
            pages: self.pages.clone(),
            arena: self.arena.clone(),
            nonzero: self.nonzero,
            reads: self.reads,
            writes: self.writes,
        }
    }

    fn clone_from(&mut self, src: &Self) {
        let captured = src.arena.len() / PAGE_WORDS;
        if self.pages.len() > captured {
            self.pages.retain(|_, slot| *slot < captured);
        }
        if self.pages != src.pages {
            self.pages.clone_from(&src.pages);
        }
        self.arena.clone_from(&src.arena);
        self.nonzero = src.nonzero;
        self.reads = src.reads;
        self.writes = src.writes;
    }
}

/// Logical equality: same contents and traffic counters, independent of
/// page-allocation order.
impl PartialEq for MainMemory {
    fn eq(&self, other: &Self) -> bool {
        self.reads == other.reads
            && self.writes == other.writes
            && self.nonzero == other.nonzero
            && self.iter_nonzero().all(|(a, v)| other.peek_word(a) == v)
    }
}

impl Eq for MainMemory {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_reads_zero() {
        let mut m = MainMemory::new();
        assert_eq!(m.read_word(0xFFFF_0000), 0);
    }

    #[test]
    fn write_then_read() {
        let mut m = MainMemory::new();
        m.write_word(0x100, 0xABCD);
        assert_eq!(m.read_word(0x100), 0xABCD);
        // Same word, different byte offset inside it:
        assert_eq!(m.read_word(0x101), 0xABCD);
        // Neighbouring word unaffected:
        assert_eq!(m.read_word(0x108), 0);
    }

    #[test]
    fn block_roundtrip() {
        let mut m = MainMemory::new();
        m.write_block(0x200, &[1, 2, 3, 4]);
        assert_eq!(m.read_block(0x200, 4), vec![1, 2, 3, 4]);
    }

    #[test]
    fn write_back_dirty_respects_mask() {
        let mut m = MainMemory::new();
        m.write_block(0x300, &[10, 20, 30, 40]);
        m.write_back_dirty(0x300, &[11, 21, 31, 41], 0b0101);
        assert_eq!(m.read_block(0x300, 4), vec![11, 20, 31, 40]);
    }

    #[test]
    fn zero_writes_reclaim_space() {
        let mut m = MainMemory::new();
        m.write_word(0x10, 5);
        assert_eq!(m.footprint_words(), 1);
        m.write_word(0x10, 0);
        assert_eq!(m.footprint_words(), 0);
        assert_eq!(m.read_word(0x10), 0);
    }

    #[test]
    fn counters_track_traffic() {
        let mut m = MainMemory::new();
        m.write_block(0, &[1, 2]);
        let _ = m.read_block(0, 2);
        assert_eq!(m.writes(), 2);
        assert_eq!(m.reads(), 2);
    }

    #[test]
    fn transfers_crossing_a_page_boundary_work() {
        let mut m = MainMemory::new();
        let base = PAGE_BYTES - 2 * WORD_BYTES as u64; // last 2 words of page 0
        m.write_back_dirty(base, &[1, 2, 3, 4], 0b1111);
        assert_eq!(m.read_block(base, 4), vec![1, 2, 3, 4]);
        assert_eq!(m.peek_word(PAGE_BYTES), 3, "page 1 got the overflow");
        assert_eq!(m.footprint_words(), 4);
        assert_eq!(m.writes(), 4);
    }

    #[test]
    fn reads_of_unallocated_pages_are_zero_filled() {
        let mut m = MainMemory::new();
        assert_eq!(m.read_block(0x10_0000, 4), vec![0, 0, 0, 0]);
        assert_eq!(m.footprint_words(), 0, "reads never allocate");
    }

    #[test]
    fn logical_equality_ignores_page_allocation_order() {
        let mut a = MainMemory::new();
        let mut b = MainMemory::new();
        // Touch pages in opposite orders so arena layouts differ.
        a.write_word(0x0, 1);
        a.write_word(2 * PAGE_BYTES, 2);
        b.write_word(2 * PAGE_BYTES, 2);
        b.write_word(0x0, 1);
        assert_eq!(a, b);
        b.write_word(0x8, 9);
        a.write_word(0x8, 9);
        assert_eq!(a, b);
        a.write_word(0x10, 7);
        assert_ne!(a, b);
    }

    /// The page table and word arena exactly, not just the contents.
    fn layout_of(m: &MainMemory) -> (&WordMap<usize>, &[u64]) {
        (&m.pages, &m.arena)
    }

    #[test]
    fn restore_drops_pages_allocated_after_the_capture() {
        let mut m = MainMemory::new();
        m.write_word(0x40, 1);
        m.write_word(3 * PAGE_BYTES, 2);
        let warm = m.clone();
        m.write_word(0x48, 3); // warm page
        m.write_word(7 * PAGE_BYTES, 4); // fresh pages
        m.write_word(9 * PAGE_BYTES + 8, 5);
        m.clone_from(&warm);
        assert_eq!(m, warm);
        assert_eq!(
            layout_of(&m),
            layout_of(&warm),
            "page table and arena as cloned"
        );
        assert_eq!(m.peek_word(7 * PAGE_BYTES), 0);
    }

    #[test]
    fn restore_from_a_different_history_rebuilds_the_page_table() {
        let mut source = MainMemory::new();
        source.write_word(PAGE_BYTES, 11);
        source.write_word(5 * PAGE_BYTES + 16, 12);
        // Same number of pages, different page numbers and slot order.
        let mut other = MainMemory::new();
        other.write_word(5 * PAGE_BYTES, 21);
        other.write_word(2 * PAGE_BYTES, 22);
        other.write_word(40 * PAGE_BYTES, 23);
        other.clone_from(&source);
        assert_eq!(other, source);
        assert_eq!(layout_of(&other), layout_of(&source));
        assert_eq!(other.peek_word(PAGE_BYTES), 11);
        assert_eq!(other.peek_word(5 * PAGE_BYTES + 16), 12);
        assert_eq!(other.peek_word(5 * PAGE_BYTES), 0);
        assert_eq!(other.peek_word(2 * PAGE_BYTES), 0);
        assert_eq!(other.peek_word(40 * PAGE_BYTES), 0);
    }

    #[test]
    fn zero_store_to_untouched_page_counts_but_allocates_nothing() {
        let mut m = MainMemory::new();
        m.write_word(0x5000, 0);
        assert_eq!(m.writes(), 1);
        assert_eq!(m.footprint_words(), 0);
        assert_eq!(m.peek_word(0x5000), 0);
    }
}
