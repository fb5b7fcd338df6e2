//! The write-back, write-allocate set-associative cache.
//!
//! Storage is a struct-of-arrays arena: one contiguous `tags` / `valid`
//! / `dirty` vector each, indexed by `set * associativity + way`, plus a
//! single flat `words` buffer holding every block's data back to back.
//! Fills fetch straight into the arena slot via
//! [`Backing::fetch_block_into`] and evictions write back straight out
//! of it, so the steady-state access path performs no heap allocation.

use crate::geometry::{CacheGeometry, WORD_BYTES};
use crate::memory::MainMemory;
use crate::replacement::{ReplacementArena, ReplacementPolicy};
use crate::snapshot::CacheSnapshot;
use crate::stats::CacheStats;

/// Anything that can stand below a cache: the next cache level or main
/// memory. Fetches fill caller-provided buffers (the cache passes its
/// own arena slot, so no transfer allocation happens); write-backs carry
/// the dirty mask so only modified words propagate.
pub trait Backing {
    /// Fills `buf` with the block of `buf.len()` 64-bit words at
    /// block-aligned `base`.
    fn fetch_block_into(&mut self, base: u64, buf: &mut [u64]);

    /// Allocating convenience wrapper around
    /// [`Backing::fetch_block_into`] for cold paths (fault-recovery
    /// re-fetches); the hot path never calls it.
    fn fetch_block(&mut self, base: u64, words: usize) -> Vec<u64> {
        let mut buf = vec![0u64; words];
        self.fetch_block_into(base, &mut buf);
        buf
    }

    /// Accepts a write-back of the dirty words of the block at `base`
    /// (`dirty_mask` bit `i` set ⇔ `data[i]` is dirty).
    fn write_back(&mut self, base: u64, data: &[u64], dirty_mask: u64);
}

impl Backing for MainMemory {
    fn fetch_block_into(&mut self, base: u64, buf: &mut [u64]) {
        self.read_block_into(base, buf);
    }

    fn write_back(&mut self, base: u64, data: &[u64], dirty_mask: u64) {
        self.write_back_dirty(base, data, dirty_mask);
    }
}

/// A block evicted by a fill, handed back so protected caches can update
/// their bookkeeping. The data words are not carried: protected caches
/// (e.g. CPPC, which XORs evicted dirty words into R2) process the
/// outgoing block *before* triggering the fill, while it is still
/// resident.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// Block base address of the evicted block.
    pub base: u64,
    /// Per-word dirty mask at eviction time.
    pub dirty_mask: u64,
}

/// A read-only view of one block in the storage arena.
#[derive(Debug, Clone, Copy)]
pub struct BlockRef<'a> {
    tag: u64,
    valid: bool,
    dirty: u64,
    words: &'a [u64],
}

impl<'a> BlockRef<'a> {
    /// `true` if this way holds a valid block.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        self.valid
    }

    /// The tag of the resident block (meaningless when invalid).
    #[must_use]
    pub fn tag(&self) -> u64 {
        self.tag
    }

    /// `true` if any word of the block is dirty.
    #[must_use]
    pub fn is_dirty(&self) -> bool {
        self.dirty != 0
    }

    /// The per-word dirty bitmap (bit `i` set ⇔ word `i` dirty).
    #[must_use]
    pub fn dirty_mask(&self) -> u64 {
        self.dirty
    }

    /// `true` if word `w` is dirty.
    ///
    /// # Panics
    ///
    /// Panics if `w` is out of range.
    #[must_use]
    pub fn is_word_dirty(&self, w: usize) -> bool {
        assert!(w < self.words.len(), "word {w} out of range");
        self.dirty >> w & 1 == 1
    }

    /// Number of dirty words.
    #[must_use]
    pub fn dirty_word_count(&self) -> u32 {
        self.dirty.count_ones()
    }

    /// The data words.
    #[must_use]
    pub fn words(&self) -> &'a [u64] {
        self.words
    }

    /// Reads word `w`.
    ///
    /// # Panics
    ///
    /// Panics if `w` is out of range.
    #[must_use]
    pub fn word(&self, w: usize) -> u64 {
        self.words[w]
    }
}

/// A mutable view of one block's data words, for fault injection and
/// recovery. Deliberately narrow: neither tag, valid nor dirty state can
/// be changed through it, so the cache's incremental dirty-word counter
/// stays correct.
#[derive(Debug)]
pub struct BlockMut<'a> {
    words: &'a mut [u64],
}

impl BlockMut<'_> {
    /// Overwrites word `w` *without* touching the dirty bit — used by
    /// recovery to write corrected data back in place.
    ///
    /// # Panics
    ///
    /// Panics if `w` is out of range.
    pub fn patch_word(&mut self, w: usize, value: u64) {
        self.words[w] = value;
    }

    /// Flips bit `bit` of word `w` — fault injection's entry point into
    /// the data array.
    ///
    /// # Panics
    ///
    /// Panics if `w` or `bit` is out of range.
    pub fn flip_bit(&mut self, w: usize, bit: u32) {
        assert!(bit < 64, "bit {bit} out of range");
        assert!(w < self.words.len(), "word {w} out of range");
        self.words[w] ^= 1u64 << bit;
    }
}

/// A write-back, write-allocate set-associative cache holding real data.
///
/// # Example
///
/// ```
/// use cppc_cache_sim::{Cache, CacheGeometry, MainMemory, ReplacementPolicy};
///
/// let geo = CacheGeometry::new(1024, 2, 32)?;
/// let mut mem = MainMemory::new();
/// let mut c = Cache::new(geo, ReplacementPolicy::Lru);
/// c.store_word(0x40, 99, &mut mem);
/// assert_eq!(c.load_word(0x40, &mut mem), 99);
/// assert_eq!(c.stats().store_misses, 1);
/// assert_eq!(c.stats().load_hits, 1);
/// # Ok::<(), cppc_cache_sim::GeometryError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    geo: CacheGeometry,
    tags: Vec<u64>,
    valid: Vec<bool>,
    dirty: Vec<u64>,
    words: Vec<u64>,
    repl: ReplacementArena,
    stats: CacheStats,
    dirty_words: u64,
    scrub_cursor: usize,
    scratch_fetches: u64,
}

impl Cache {
    /// Creates an empty cache with the given geometry and policy.
    /// Random replacement is seeded deterministically per set.
    #[must_use]
    pub fn new(geo: CacheGeometry, policy: ReplacementPolicy) -> Self {
        let blocks = geo.num_sets() * geo.associativity();
        Cache {
            geo,
            tags: vec![0; blocks],
            valid: vec![false; blocks],
            dirty: vec![0; blocks],
            words: vec![0; blocks * geo.words_per_block()],
            repl: ReplacementArena::new(policy, geo.num_sets(), geo.associativity()),
            stats: CacheStats::default(),
            dirty_words: 0,
            scrub_cursor: 0,
            scratch_fetches: 0,
        }
    }

    /// The cache's geometry.
    #[must_use]
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geo
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Mutable statistics (for dirty-residency sampling by drivers).
    pub fn stats_mut(&mut self) -> &mut CacheStats {
        &mut self.stats
    }

    /// Zeroes the statistics (cache contents untouched) — used to
    /// exclude warm-up from measurements.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Number of dirty words currently resident (maintained
    /// incrementally; O(1)).
    #[must_use]
    pub fn dirty_word_count(&self) -> u64 {
        self.dirty_words
    }

    /// Number of block fetches served directly into reused storage (the
    /// arena slot on fills, caller buffers on block reads) — i.e. without
    /// allocating a transfer buffer. Monotonic; not part of
    /// [`CacheStats`] and unaffected by [`Cache::reset_stats`].
    #[must_use]
    pub fn scratch_reuse(&self) -> u64 {
        self.scratch_fetches
    }

    #[inline]
    fn index(&self, set: usize, way: usize) -> usize {
        debug_assert!(set < self.geo.num_sets(), "set {set} out of range");
        debug_assert!(way < self.geo.associativity(), "way {way} out of range");
        set * self.geo.associativity() + way
    }

    #[inline]
    fn block_words(&self, idx: usize) -> &[u64] {
        let wpb = self.geo.words_per_block();
        &self.words[idx * wpb..(idx + 1) * wpb]
    }

    /// Writes `value` into word `w` of the block at `idx`, marks it
    /// dirty, and returns `(old_value, was_already_dirty)`. Hit/miss and
    /// dirty statistics are the caller's business.
    #[inline]
    fn write_word_raw(&mut self, idx: usize, w: usize, value: u64) -> (u64, bool) {
        let wpb = self.geo.words_per_block();
        assert!(w < wpb, "word {w} out of range");
        let p = idx * wpb + w;
        let old = self.words[p];
        let was_dirty = self.dirty[idx] >> w & 1 == 1;
        self.words[p] = value;
        self.dirty[idx] |= 1 << w;
        (old, was_dirty)
    }

    /// Bumps `stores_to_dirty` / the dirty-word counter for one
    /// word-store whose prior dirtiness was `was_dirty`.
    #[inline]
    fn note_store(&mut self, was_dirty: bool) {
        if was_dirty {
            self.stats.stores_to_dirty += 1;
        } else {
            self.dirty_words += 1;
        }
    }

    /// Reads word `w` of the block at `(set, way)` straight from the
    /// arena — the protected-cache wrappers' hot-path read, which needs
    /// no block view.
    ///
    /// # Panics
    ///
    /// Panics if `w` is out of range (indices are debug-checked).
    #[inline]
    #[must_use]
    pub fn word_at(&self, set: usize, way: usize, w: usize) -> u64 {
        let wpb = self.geo.words_per_block();
        assert!(w < wpb, "word {w} out of range");
        self.words[self.index(set, way) * wpb + w]
    }

    /// The data words of the block at `(set, way)` as one slice.
    #[inline]
    #[must_use]
    pub fn words_at(&self, set: usize, way: usize) -> &[u64] {
        self.block_words(self.index(set, way))
    }

    /// The per-word dirty bitmap of the block at `(set, way)`.
    #[inline]
    #[must_use]
    pub fn dirty_mask_at(&self, set: usize, way: usize) -> u64 {
        self.dirty[self.index(set, way)]
    }

    /// `true` when `(set, way)` holds a valid block.
    #[inline]
    #[must_use]
    pub fn is_valid_at(&self, set: usize, way: usize) -> bool {
        self.valid[self.index(set, way)]
    }

    /// Looks up `addr`; returns `(set, way)` on a hit without updating
    /// replacement state or statistics.
    #[must_use]
    pub fn probe(&self, addr: u64) -> Option<(usize, usize)> {
        let set = self.geo.set_index(addr);
        let tag = self.geo.tag(addr);
        let base = set * self.geo.associativity();
        (0..self.geo.associativity())
            .find(|&way| self.valid[base + way] && self.tags[base + way] == tag)
            .map(|way| (set, way))
    }

    /// Reads the word at `addr` if resident, without side effects.
    #[must_use]
    pub fn peek_word(&self, addr: u64) -> Option<u64> {
        let (set, way) = self.probe(addr)?;
        let idx = self.index(set, way);
        Some(self.block_words(idx)[self.geo.word_index(addr)])
    }

    /// Loads the 64-bit word at `addr`, filling from `backing` on a miss.
    pub fn load_word<B: Backing>(&mut self, addr: u64, backing: &mut B) -> u64 {
        let w = self.geo.word_index(addr);
        let (set, way) = match self.probe(addr) {
            Some((set, way)) => {
                self.stats.load_hits += 1;
                self.repl.touch(set, way);
                (set, way)
            }
            None => {
                self.stats.load_misses += 1;
                let (set, way, _) = self.fill(addr, backing);
                (set, way)
            }
        };
        let idx = self.index(set, way);
        self.block_words(idx)[w]
    }

    /// Stores the 64-bit word `value` at `addr` (write-allocate).
    /// Returns `(old_word, was_dirty)` for the written word.
    pub fn store_word<B: Backing>(
        &mut self,
        addr: u64,
        value: u64,
        backing: &mut B,
    ) -> (u64, bool) {
        let w = self.geo.word_index(addr);
        let (set, way) = match self.probe(addr) {
            Some(hit) => {
                self.stats.store_hits += 1;
                hit
            }
            None => {
                self.stats.store_misses += 1;
                let (set, way, _) = self.fill(addr, backing);
                (set, way)
            }
        };
        self.repl.touch(set, way);
        let idx = self.index(set, way);
        let (old, was_dirty) = self.write_word_raw(idx, w, value);
        self.note_store(was_dirty);
        (old, was_dirty)
    }

    /// Stores one byte at `addr` (partial store). Returns `(old_word,
    /// was_dirty)`.
    pub fn store_byte<B: Backing>(&mut self, addr: u64, value: u8, backing: &mut B) -> (u64, bool) {
        let w = self.geo.word_index(addr);
        let byte = self.geo.byte_in_word(addr);
        let (set, way) = match self.probe(addr) {
            Some(hit) => {
                self.stats.store_hits += 1;
                hit
            }
            None => {
                self.stats.store_misses += 1;
                let (set, way, _) = self.fill(addr, backing);
                (set, way)
            }
        };
        self.repl.touch(set, way);
        let idx = self.index(set, way);
        let old = self.block_words(idx)[w];
        let shift = 8 * byte as u32;
        let merged = (old & !(0xFFu64 << shift)) | (u64::from(value) << shift);
        let (old, was_dirty) = self.write_word_raw(idx, w, merged);
        self.note_store(was_dirty);
        (old, was_dirty)
    }

    /// Reads the whole block containing `addr` (one access) into the
    /// caller-provided `buf`, filling on a miss. Used when this cache is
    /// the backing of a level above: the level above passes its own
    /// arena slot, so the transfer is a slice copy with no allocation.
    ///
    /// Returns the block's per-word dirty mask, which the read leaves
    /// unchanged (0 on a miss: a freshly filled block is clean), so the
    /// level above learns whether it read dirty data without a second
    /// probe.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is not exactly one block wide.
    pub fn read_block_into<B: Backing>(
        &mut self,
        addr: u64,
        backing: &mut B,
        buf: &mut [u64],
    ) -> u64 {
        assert_eq!(buf.len(), self.geo.words_per_block(), "block width");
        let (set, way) = match self.probe(addr) {
            Some((set, way)) => {
                self.stats.load_hits += 1;
                self.repl.touch(set, way);
                (set, way)
            }
            None => {
                self.stats.load_misses += 1;
                let (set, way, _) = self.fill(addr, backing);
                (set, way)
            }
        };
        let idx = self.index(set, way);
        buf.copy_from_slice(self.block_words(idx));
        self.scratch_fetches += 1;
        self.dirty[idx]
    }

    /// Allocating convenience wrapper around [`Cache::read_block_into`].
    pub fn read_block<B: Backing>(&mut self, addr: u64, backing: &mut B) -> Vec<u64> {
        let mut buf = vec![0u64; self.geo.words_per_block()];
        self.read_block_into(addr, backing, &mut buf);
        buf
    }

    /// Accepts a block-granularity write (e.g. a write-back from the
    /// level above): words selected by `mask` are stored and marked
    /// dirty. Returns whether any targeted word was already dirty — the
    /// L2 CPPC read-before-write trigger.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly one block wide.
    pub fn write_block<B: Backing>(
        &mut self,
        addr: u64,
        data: &[u64],
        mask: u64,
        backing: &mut B,
    ) -> bool {
        assert_eq!(data.len(), self.geo.words_per_block(), "block width");
        let (set, way) = match self.probe(addr) {
            Some(hit) => {
                self.stats.store_hits += 1;
                hit
            }
            None => {
                self.stats.store_misses += 1;
                let (set, way, _) = self.fill(addr, backing);
                (set, way)
            }
        };
        self.repl.touch(set, way);
        let idx = self.index(set, way);
        let mut any_dirty = false;
        for (w, &value) in data.iter().enumerate() {
            if mask >> w & 1 == 1 {
                let (_, was_dirty) = self.write_word_raw(idx, w, value);
                if was_dirty {
                    any_dirty = true;
                } else {
                    self.dirty_words += 1;
                }
            }
        }
        if any_dirty {
            self.stats.stores_to_dirty += 1;
        }
        any_dirty
    }

    /// Chooses the way a fill for `addr`'s set would land in: the first
    /// invalid way if any, otherwise the replacement victim. Protected
    /// caches call this *before* [`Cache::fill_into`] so they can process
    /// the outgoing block (e.g. CPPC XORs evicted dirty words into R2 and
    /// parity-checks them first).
    pub fn choose_way_for_fill(&mut self, set: usize) -> usize {
        assert!(set < self.geo.num_sets(), "set {set} out of range");
        let base = set * self.geo.associativity();
        (0..self.geo.associativity())
            .find(|&way| !self.valid[base + way])
            .unwrap_or_else(|| self.repl.victim(set))
    }

    /// Brings the block containing `addr` into the cache, evicting as
    /// needed. Returns `(set, way, eviction)`.
    pub fn fill<B: Backing>(
        &mut self,
        addr: u64,
        backing: &mut B,
    ) -> (usize, usize, Option<Eviction>) {
        let set = self.geo.set_index(addr);
        let way = self.choose_way_for_fill(set);
        let eviction = self.fill_into(addr, way, backing);
        (set, way, eviction)
    }

    /// Brings the block containing `addr` into way `way` of its set,
    /// writing back the displaced block if dirty. The fetch fills the
    /// block's arena slot directly — no transfer buffer is allocated.
    /// Returns the eviction, if a valid block was displaced.
    ///
    /// # Panics
    ///
    /// Panics if `way` is out of range.
    pub fn fill_into<B: Backing>(
        &mut self,
        addr: u64,
        way: usize,
        backing: &mut B,
    ) -> Option<Eviction> {
        let set = self.geo.set_index(addr);
        let tag = self.geo.tag(addr);
        assert!(way < self.geo.associativity(), "way {way} out of range");

        let eviction = self.evict_way(set, way, backing);
        let base = self.geo.block_base(addr);
        let idx = self.index(set, way);
        let wpb = self.geo.words_per_block();
        backing.fetch_block_into(base, &mut self.words[idx * wpb..(idx + 1) * wpb]);
        self.tags[idx] = tag;
        self.valid[idx] = true;
        self.dirty[idx] = 0;
        self.scratch_fetches += 1;
        self.stats.fills += 1;
        self.repl.filled(set, way);
        eviction
    }

    fn evict_way<B: Backing>(
        &mut self,
        set: usize,
        way: usize,
        backing: &mut B,
    ) -> Option<Eviction> {
        let idx = self.index(set, way);
        if !self.valid[idx] {
            return None;
        }
        let base = self.geo.address_of(self.tags[idx], set);
        let mask = self.dirty[idx];
        if mask != 0 {
            let wpb = self.geo.words_per_block();
            backing.write_back(base, &self.words[idx * wpb..(idx + 1) * wpb], mask);
            self.stats.writebacks += 1;
            self.stats.writeback_words += u64::from(mask.count_ones());
            self.dirty_words -= u64::from(mask.count_ones());
        } else {
            self.stats.clean_evictions += 1;
        }
        self.valid[idx] = false;
        self.dirty[idx] = 0;
        Some(Eviction {
            base,
            dirty_mask: mask,
        })
    }

    /// Stores `value` into word `w` of the resident block at `(set,
    /// way)`, maintaining the dirty-word counter, replacement state and
    /// the `stores_to_dirty` statistic (but *not* hit/miss counters —
    /// the caller has already classified the access). Returns
    /// `(old_word, was_dirty)`.
    ///
    /// # Panics
    ///
    /// Panics if the block is invalid or indices are out of range.
    pub fn store_word_in_place(
        &mut self,
        set: usize,
        way: usize,
        w: usize,
        value: u64,
    ) -> (u64, bool) {
        let idx = self.index(set, way);
        assert!(self.valid[idx], "block ({set},{way}) invalid");
        self.repl.touch(set, way);
        let (old, was_dirty) = self.write_word_raw(idx, w, value);
        self.note_store(was_dirty);
        (old, was_dirty)
    }

    /// Byte-granularity variant of [`Cache::store_word_in_place`].
    ///
    /// # Panics
    ///
    /// Panics if the block is invalid or indices are out of range.
    pub fn store_byte_in_place(
        &mut self,
        set: usize,
        way: usize,
        w: usize,
        byte: usize,
        value: u8,
    ) -> (u64, bool) {
        assert!(byte < 8, "byte {byte} out of range");
        let idx = self.index(set, way);
        assert!(self.valid[idx], "block ({set},{way}) invalid");
        self.repl.touch(set, way);
        let old = self.block_words(idx)[w];
        let shift = 8 * byte as u32;
        let merged = (old & !(0xFFu64 << shift)) | (u64::from(value) << shift);
        let (old, was_dirty) = self.write_word_raw(idx, w, merged);
        self.note_store(was_dirty);
        (old, was_dirty)
    }

    /// Records a replacement-policy touch of `(set, way)` without any
    /// data movement (used when a wrapper classifies hits itself).
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    pub fn touch(&mut self, set: usize, way: usize) {
        assert!(way < self.geo.associativity(), "way {way} out of range");
        self.repl.touch(set, way);
    }

    /// Writes the dirty words of the block at `(set, way)` back to
    /// `backing` and cleans the block, leaving it resident. No-op for
    /// clean or invalid blocks.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    pub fn writeback_block<B: Backing>(&mut self, set: usize, way: usize, backing: &mut B) {
        let idx = self.index(set, way);
        if !self.valid[idx] || self.dirty[idx] == 0 {
            return;
        }
        let base = self.geo.address_of(self.tags[idx], set);
        let mask = self.dirty[idx];
        let wpb = self.geo.words_per_block();
        backing.write_back(base, &self.words[idx * wpb..(idx + 1) * wpb], mask);
        self.stats.writebacks += 1;
        self.stats.writeback_words += u64::from(mask.count_ones());
        self.dirty_words -= u64::from(mask.count_ones());
        self.dirty[idx] = 0;
    }

    /// Invalidates the block at `(set, way)` without writing it back;
    /// dirty words are dropped (callers wanting them preserved run
    /// [`Cache::writeback_block`] first). Returns the number of dirty
    /// words dropped. No-op on invalid blocks.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    pub fn invalidate_way(&mut self, set: usize, way: usize) -> u32 {
        let idx = self.index(set, way);
        if !self.valid[idx] {
            return 0;
        }
        let dropped = self.dirty[idx].count_ones();
        self.dirty_words -= u64::from(dropped);
        self.valid[idx] = false;
        self.dirty[idx] = 0;
        dropped
    }

    /// Bumps the hit/miss counters directly — used by protected-cache
    /// wrappers that classify accesses themselves before using the
    /// in-place primitives.
    pub fn record_access(&mut self, is_store: bool, hit: bool) {
        match (is_store, hit) {
            (false, true) => self.stats.load_hits += 1,
            (false, false) => self.stats.load_misses += 1,
            (true, true) => self.stats.store_hits += 1,
            (true, false) => self.stats.store_misses += 1,
        }
    }

    /// Early write-back (the related-work policy of [2, 15] the paper
    /// §2 discusses): walks the sets round-robin from an internal cursor
    /// and writes back up to `max_blocks` dirty blocks, cleaning them in
    /// place. Returns how many blocks were written back.
    ///
    /// Reduces dirty residency (and hence parity-cache vulnerability) at
    /// the price of extra write-back traffic — the trade-off the paper
    /// contrasts CPPC against.
    pub fn early_writeback<B: Backing>(&mut self, max_blocks: usize, backing: &mut B) -> usize {
        let sets = self.geo.num_sets();
        let ways = self.geo.associativity();
        let mut cleaned = 0;
        for step in 0..sets * ways {
            if cleaned >= max_blocks {
                break;
            }
            let idx = (self.scrub_cursor + step) % (sets * ways);
            let (set, way) = (idx / ways, idx % ways);
            if self.valid[idx] && self.dirty[idx] != 0 {
                self.writeback_block(set, way, backing);
                cleaned += 1;
                self.scrub_cursor = (idx + 1) % (sets * ways);
            }
        }
        cleaned
    }

    /// Writes every dirty block back to `backing` and cleans it (cache
    /// contents stay resident).
    pub fn flush<B: Backing>(&mut self, backing: &mut B) {
        for set in 0..self.geo.num_sets() {
            for way in 0..self.geo.associativity() {
                let idx = self.index(set, way);
                if self.valid[idx] && self.dirty[idx] != 0 {
                    self.writeback_block(set, way, backing);
                }
            }
        }
    }

    /// Iterates over `(set, way, block)` for every valid block.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (usize, usize, BlockRef<'_>)> {
        let ways = self.geo.associativity();
        (0..self.tags.len())
            .filter(|&idx| self.valid[idx])
            .map(move |idx| (idx / ways, idx % ways, self.block_ref(idx)))
    }

    /// Iterates over every dirty word as `(set, way, word_index, value)`.
    ///
    /// Walks each block's 64-bit dirty bitmask with `trailing_zeros`
    /// (clearing the lowest set bit each step), so clean words cost
    /// nothing; the order is ascending `(block, word)` exactly as the
    /// per-word scan produced.
    pub fn iter_dirty_words(&self) -> impl Iterator<Item = (usize, usize, usize, u64)> + '_ {
        let ways = self.geo.associativity();
        (0..self.tags.len()).flat_map(move |idx| {
            let mut mask = if self.valid[idx] { self.dirty[idx] } else { 0 };
            std::iter::from_fn(move || {
                if mask == 0 {
                    return None;
                }
                let w = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                Some((idx / ways, idx % ways, w, self.block_words(idx)[w]))
            })
        })
    }

    /// Captures the cache's complete mutable state into a fresh
    /// [`CacheSnapshot`].
    #[must_use]
    pub fn snapshot(&self) -> CacheSnapshot {
        let mut snap = CacheSnapshot::default();
        self.capture_snapshot(&mut snap);
        snap
    }

    /// Captures the cache's complete mutable state into `snap`, reusing
    /// its buffers.
    pub fn capture_snapshot(&self, snap: &mut CacheSnapshot) {
        snap.tags.clone_from(&self.tags);
        snap.valid.clone_from(&self.valid);
        snap.dirty.clone_from(&self.dirty);
        snap.words.clone_from(&self.words);
        snap.repl.clone_from(&self.repl);
        snap.stats = self.stats;
        snap.dirty_words = self.dirty_words;
        snap.scrub_cursor = self.scrub_cursor;
        snap.scratch_fetches = self.scratch_fetches;
    }

    /// Restores the state captured by [`Cache::snapshot`] into the
    /// existing arenas — pure `copy_from_slice`, no allocation. The
    /// geometry itself is immutable, so a snapshot taken from this cache
    /// (or any cache of identical geometry) always fits.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot came from a different geometry.
    pub fn restore_snapshot(&mut self, snap: &CacheSnapshot) {
        assert_eq!(
            self.tags.len(),
            snap.tags.len(),
            "snapshot from a different geometry"
        );
        assert_eq!(
            self.words.len(),
            snap.words.len(),
            "snapshot from a different geometry"
        );
        self.tags.copy_from_slice(&snap.tags);
        self.valid.copy_from_slice(&snap.valid);
        self.dirty.copy_from_slice(&snap.dirty);
        self.words.copy_from_slice(&snap.words);
        self.repl.copy_from(&snap.repl);
        self.stats = snap.stats;
        self.dirty_words = snap.dirty_words;
        self.scrub_cursor = snap.scrub_cursor;
        self.scratch_fetches = snap.scratch_fetches;
    }

    #[inline]
    fn block_ref(&self, idx: usize) -> BlockRef<'_> {
        BlockRef {
            tag: self.tags[idx],
            valid: self.valid[idx],
            dirty: self.dirty[idx],
            words: self.block_words(idx),
        }
    }

    /// Direct block access (fault injection / recovery).
    ///
    /// # Panics
    ///
    /// Panics if `set`/`way` are out of range.
    #[must_use]
    pub fn block(&self, set: usize, way: usize) -> BlockRef<'_> {
        assert!(set < self.geo.num_sets(), "set {set} out of range");
        assert!(way < self.geo.associativity(), "way {way} out of range");
        self.block_ref(self.index(set, way))
    }

    /// Direct mutable access to the data words of the block at `(set,
    /// way)` (fault injection / recovery).
    ///
    /// # Panics
    ///
    /// Panics if `set`/`way` are out of range.
    pub fn block_mut(&mut self, set: usize, way: usize) -> BlockMut<'_> {
        assert!(set < self.geo.num_sets(), "set {set} out of range");
        assert!(way < self.geo.associativity(), "way {way} out of range");
        let idx = self.index(set, way);
        let wpb = self.geo.words_per_block();
        BlockMut {
            words: &mut self.words[idx * wpb..(idx + 1) * wpb],
        }
    }

    /// Reconstructs the block base address of the block at `(set, way)`.
    ///
    /// # Panics
    ///
    /// Panics if the block is invalid.
    #[must_use]
    pub fn block_address(&self, set: usize, way: usize) -> u64 {
        let idx = self.index(set, way);
        assert!(self.valid[idx], "block ({set},{way}) is invalid");
        self.geo.address_of(self.tags[idx], set)
    }

    /// The address of word `w` of the block at `(set, way)`.
    ///
    /// # Panics
    ///
    /// Panics if the block is invalid or `w` out of range.
    #[must_use]
    pub fn word_address(&self, set: usize, way: usize, w: usize) -> u64 {
        assert!(w < self.geo.words_per_block(), "word {w} out of range");
        self.block_address(set, way) + (w * WORD_BYTES) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cppc_campaign::rng::rngs::StdRng;
    use cppc_campaign::rng::{RngExt, SeedableRng};

    fn small() -> (Cache, MainMemory) {
        let geo = CacheGeometry::new(256, 2, 32).unwrap(); // 4 sets
        (Cache::new(geo, ReplacementPolicy::Lru), MainMemory::new())
    }

    #[test]
    fn store_then_load_hits() {
        let (mut c, mut m) = small();
        c.store_word(0x40, 7, &mut m);
        assert_eq!(c.load_word(0x40, &mut m), 7);
        assert_eq!(c.stats().store_misses, 1);
        assert_eq!(c.stats().load_hits, 1);
        assert_eq!(c.dirty_word_count(), 1);
    }

    #[test]
    fn dirty_data_not_in_memory_until_eviction() {
        let (mut c, mut m) = small();
        c.store_word(0x40, 7, &mut m);
        assert_eq!(m.peek_word(0x40), 0, "write-back: memory stale");
        // Evict set 2 (0x40 >> 5 = 2) by touching two more blocks mapping there.
        c.load_word(0x40 + 256, &mut m);
        c.load_word(0x40 + 512, &mut m);
        assert_eq!(m.peek_word(0x40), 7, "write-back happened on eviction");
        assert_eq!(c.stats().writebacks, 1);
        assert_eq!(c.dirty_word_count(), 0);
    }

    #[test]
    fn store_to_dirty_counted() {
        let (mut c, mut m) = small();
        c.store_word(0x40, 1, &mut m);
        assert_eq!(c.stats().stores_to_dirty, 0);
        c.store_word(0x40, 2, &mut m);
        assert_eq!(c.stats().stores_to_dirty, 1);
        // A different word in the same block is a fresh dirty word.
        c.store_word(0x48, 3, &mut m);
        assert_eq!(c.stats().stores_to_dirty, 1);
        assert_eq!(c.dirty_word_count(), 2);
    }

    #[test]
    fn store_byte_merges() {
        let (mut c, mut m) = small();
        m.write_word(0x40, 0x1111_1111_1111_1111);
        c.store_byte(0x42, 0xAB, &mut m);
        assert_eq!(c.load_word(0x40, &mut m), 0x1111_1111_11AB_1111);
    }

    #[test]
    fn flush_writes_everything() {
        let (mut c, mut m) = small();
        c.store_word(0x00, 1, &mut m);
        c.store_word(0x20, 2, &mut m);
        c.store_word(0x48, 3, &mut m);
        c.flush(&mut m);
        assert_eq!(m.peek_word(0x00), 1);
        assert_eq!(m.peek_word(0x20), 2);
        assert_eq!(m.peek_word(0x48), 3);
        assert_eq!(c.dirty_word_count(), 0);
        // Data still resident after flush:
        assert_eq!(c.peek_word(0x48), Some(3));
    }

    #[test]
    fn clean_eviction_counted() {
        let (mut c, mut m) = small();
        c.load_word(0x40, &mut m);
        c.load_word(0x40 + 256, &mut m);
        c.load_word(0x40 + 512, &mut m);
        assert_eq!(c.stats().clean_evictions, 1);
        assert_eq!(c.stats().writebacks, 0);
    }

    #[test]
    fn iter_dirty_words_finds_all() {
        let (mut c, mut m) = small();
        c.store_word(0x00, 11, &mut m);
        c.store_word(0x58, 22, &mut m);
        let dirty: Vec<u64> = c.iter_dirty_words().map(|(_, _, _, v)| v).collect();
        assert_eq!(dirty.len(), 2);
        assert!(dirty.contains(&11) && dirty.contains(&22));
    }

    #[test]
    fn write_block_marks_masked_words() {
        let (mut c, mut m) = small();
        let any_dirty = c.write_block(0x40, &[1, 2, 3, 4], 0b0110, &mut m);
        assert!(!any_dirty);
        assert_eq!(c.peek_word(0x48), Some(2));
        assert_eq!(c.peek_word(0x40), Some(0), "unmasked word keeps fill data");
        assert_eq!(c.dirty_word_count(), 2);
        // Second write over the same words reports dirtiness.
        let any_dirty = c.write_block(0x40, &[9, 9, 9, 9], 0b0010, &mut m);
        assert!(any_dirty);
        assert_eq!(c.stats().stores_to_dirty, 1);
    }

    #[test]
    fn lru_keeps_hot_block() {
        let (mut c, mut m) = small();
        c.load_word(0x40, &mut m); // A
        c.load_word(0x40 + 256, &mut m); // B
        c.load_word(0x40, &mut m); // touch A
        c.load_word(0x40 + 512, &mut m); // C evicts B
        assert!(c.probe(0x40).is_some(), "A stays");
        assert!(c.probe(0x40 + 256).is_none(), "B evicted");
    }

    #[test]
    fn word_address_roundtrip() {
        let (mut c, mut m) = small();
        c.store_word(0x1248, 5, &mut m);
        let (set, way) = c.probe(0x1248).unwrap();
        let w = c.geometry().word_index(0x1248);
        assert_eq!(c.word_address(set, way, w), 0x1248);
    }

    #[test]
    fn read_block_into_copies_resident_data() {
        let (mut c, mut m) = small();
        c.store_word(0x40, 7, &mut m);
        c.store_word(0x48, 8, &mut m);
        let mut buf = [0u64; 4];
        c.read_block_into(0x40, &mut m, &mut buf);
        assert_eq!(buf, [7, 8, 0, 0]);
        assert_eq!(c.stats().load_hits, 1);
        assert!(c.scratch_reuse() >= 1);
    }

    #[test]
    fn scratch_reuse_counts_fills() {
        let (mut c, mut m) = small();
        assert_eq!(c.scratch_reuse(), 0);
        c.load_word(0x40, &mut m);
        assert_eq!(c.scratch_reuse(), 1, "miss fetched into the arena");
        c.load_word(0x40, &mut m);
        assert_eq!(c.scratch_reuse(), 1, "hit fetches nothing");
        c.reset_stats();
        assert_eq!(c.scratch_reuse(), 1, "not part of CacheStats");
    }

    /// Functional transparency: a cache + memory must behave exactly like
    /// a flat memory for any access sequence.
    #[test]
    fn randomised_vs_flat_memory_oracle() {
        let mut rng = StdRng::seed_from_u64(0xCAC4E);
        let geo = CacheGeometry::new(512, 2, 32).unwrap();
        let mut cache = Cache::new(geo, ReplacementPolicy::Lru);
        let mut mem = MainMemory::new();
        let mut oracle: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        for _ in 0..20_000 {
            let addr = (rng.random_range(0..4096u64)) & !7;
            if rng.random_bool(0.4) {
                let v: u64 = rng.random();
                cache.store_word(addr, v, &mut mem);
                oracle.insert(addr, v);
            } else {
                let got = cache.load_word(addr, &mut mem);
                assert_eq!(got, *oracle.get(&addr).unwrap_or(&0), "addr {addr:#x}");
            }
        }
        cache.flush(&mut mem);
        for (addr, v) in oracle {
            assert_eq!(m_peek(&mem, addr), v);
        }
        fn m_peek(m: &MainMemory, a: u64) -> u64 {
            m.peek_word(a)
        }
    }

    #[test]
    fn dirty_count_matches_iteration() {
        let mut rng = StdRng::seed_from_u64(3);
        let geo = CacheGeometry::new(256, 2, 32).unwrap();
        let mut c = Cache::new(geo, ReplacementPolicy::Lru);
        let mut m = MainMemory::new();
        for _ in 0..500 {
            let addr = (rng.random_range(0..2048u64)) & !7;
            if rng.random_bool(0.5) {
                c.store_word(addr, rng.random(), &mut m);
            } else {
                c.load_word(addr, &mut m);
            }
            assert_eq!(c.dirty_word_count(), c.iter_dirty_words().count() as u64);
        }
    }

    #[test]
    fn prop_transparency() {
        let mut rng = StdRng::seed_from_u64(0xCAC4_0001);
        for _ in 0..64 {
            let geo = CacheGeometry::new(256, 2, 32).unwrap();
            let mut cache = Cache::new(geo, ReplacementPolicy::Fifo);
            let mut mem = MainMemory::new();
            let mut oracle: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
            for _ in 0..rng.random_range(1usize..200) {
                let addr = u64::from(rng.random::<u64>() as u16) & !7;
                if rng.random_bool(0.5) {
                    let v = rng.random::<u64>();
                    cache.store_word(addr, v, &mut mem);
                    oracle.insert(addr, v);
                } else {
                    assert_eq!(
                        cache.load_word(addr, &mut mem),
                        *oracle.get(&addr).unwrap_or(&0),
                        "addr {addr:#x}"
                    );
                }
            }
        }
    }
}
