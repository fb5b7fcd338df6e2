//! The Correctable Parity Protected Cache itself.
//!
//! [`CppcCache`] wraps the bit-accurate write-back cache from
//! `cppc-cache-sim` with:
//!
//! * a parity code array (`k`-way interleaved parity per word, §3.6),
//! * the R1/R2 XOR register file with 1–8 pairs (§3, §3.4, §4.11),
//! * the barrel byte-shifter rotating data by rotation class before it
//!   is XORed into the registers (§4.3),
//! * the recovery engine (§4.4) and fault locator (§4.5).
//!
//! The same type implements both the L1 CPPC (word write granularity,
//! word-sized registers) and the L2 CPPC (§3.5: block write granularity,
//! block-sized registers) — see [`CppcCache::new_l1`] and
//! [`CppcCache::new_l2`].
//!
//! # The invariant
//!
//! At any quiescent point, for every register pair `p` and lane `l`:
//! `R1 ^ R2 == XOR of rotate(value, class) over all dirty words in
//! domain (p, l)`. Every mutation below preserves it:
//!
//! * store of `new` over clean data: `R1 ^= rot(new)` — word joins the
//!   dirty set with value `new`;
//! * store of `new` over dirty `old`: additionally `R2 ^= rot(old)` —
//!   the read-before-write (§3.1);
//! * write-back / eviction of a dirty word `v`: `R2 ^= rot(v)` — word
//!   leaves the dirty set.

use cppc_cache_sim::cache::{Backing, Cache};
use cppc_cache_sim::geometry::CacheGeometry;
use cppc_cache_sim::replacement::ReplacementPolicy;
use cppc_cache_sim::stats::CacheStats;
use cppc_ecc::interleaved::InterleavedParity;
use cppc_fault::layout::PhysicalLayout;
use cppc_fault::model::FaultPattern;

use crate::config::{ConfigError, CppcConfig, ROTATION_CLASSES};
use crate::locator::{locate_spatial_into, LocateError, Suspect};
use crate::registers::RegisterFile;
use crate::rotate::{rotate_left_bytes, rotate_right_bytes};

use std::fmt;

/// A faulty dirty word during recovery: `(set, way, word, row, syndrome)`.
type FaultyWord = (usize, usize, usize, usize, u64);

/// A dirty word of a protection domain during recovery:
/// `(set, way, word, row, current value)`.
type DomainWord = (usize, usize, usize, usize, u64);

/// Reusable working buffers for [`CppcCache::recover_all`], so steady-state
/// recovery performs no heap allocation. Taken out of the cache with
/// `mem::take` for the duration of a pass (sidestepping `&mut self`
/// aliasing) and put back afterwards. `clone_from` keeps the buffers, so
/// the first recovery after a warm restore does not grow them again.
#[derive(Debug, Default)]
struct RecoveryScratch {
    /// Faulty clean words `(set, way, word)` found by the scan.
    faulty_clean: Vec<(usize, usize, usize)>,
    /// Faulty dirty words found by the scan.
    faulty_dirty: Vec<FaultyWord>,
    /// The faulty words of the domain currently being recovered.
    group: Vec<FaultyWord>,
    /// All dirty words of the domain currently being recovered.
    domain_words: Vec<DomainWord>,
    /// Locator inputs for the domain currently being recovered.
    suspects: Vec<Suspect>,
    /// Locator outputs (per-suspect error masks).
    masks: Vec<u64>,
}

cppc_cache_sim::clone_in_place! {
    RecoveryScratch { faulty_clean, faulty_dirty, group, domain_words, suspects, masks }
}

/// Write granularity of a CPPC: words (L1) or whole L1 blocks (L2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LaneMode {
    /// L1: the processor writes words; registers are one word wide.
    Word,
    /// L2: L1 writes back blocks; registers are one L1 block wide, one
    /// lane per word of the block (§3.5).
    BlockWord,
}

/// A detected-but-unrecoverable error: the CPPC raises a machine-check
/// exception (paper §4.4 step 7).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Due {
    /// Why recovery failed.
    pub reason: DueReason,
}

/// The ways recovery can fail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DueReason {
    /// Multiple faulty dirty words share parity groups and the locator
    /// could not pin the error down.
    Locator(LocateError),
    /// Faulty words share parity groups but the configuration lacks
    /// byte-level parity, so the locator cannot run at all.
    SharedGroupsNoLocator,
    /// A register-file parity fault coincided with dirty-data faults —
    /// the registers cannot be rebuilt from the dirty words (§4.9's
    /// recovery precondition: "provided there is no fault in the dirty
    /// words of the cache").
    RegisterFault,
    /// A word still failed its parity check after reconstruction —
    /// inconsistent state (e.g. a fault arrived mid-recovery).
    PostRecoveryMismatch,
}

impl fmt::Display for Due {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.reason {
            DueReason::Locator(e) => write!(f, "unrecoverable error: {e}"),
            DueReason::SharedGroupsNoLocator => {
                write!(
                    f,
                    "unrecoverable error: shared parity groups without byte parity"
                )
            }
            DueReason::PostRecoveryMismatch => {
                write!(
                    f,
                    "unrecoverable error: parity mismatch after reconstruction"
                )
            }
            DueReason::RegisterFault => {
                write!(
                    f,
                    "unrecoverable error: register fault with faulty dirty data"
                )
            }
        }
    }
}

impl std::error::Error for Due {}

/// What a recovery pass accomplished.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Faulty clean words repaired by re-fetch from the next level.
    pub corrected_clean: usize,
    /// Faulty dirty words repaired by register reconstruction.
    pub corrected_dirty: usize,
    /// Of those, how many needed the spatial fault locator.
    pub via_locator: usize,
}

/// CPPC-specific event counters (the inner cache keeps the generic ones).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CppcStats {
    /// Word-granularity read-before-write events (stores to dirty words,
    /// §3.1) — the paper's key L1 energy overhead.
    pub read_before_writes: u64,
    /// Block-granularity read-before-write events (L2 CPPC, §3.5).
    pub rbw_block_reads: u64,
    /// Reads merged for byte stores to clean words (partial-store fills).
    pub byte_store_merges: u64,
    /// Words whose parity check fired.
    pub detections: u64,
    /// Recovery passes run.
    pub recoveries: u64,
    /// Clean words corrected by re-fetch.
    pub corrected_clean: u64,
    /// Dirty words corrected by reconstruction (incl. locator cases).
    pub corrected_dirty: u64,
    /// Dirty words corrected via the spatial locator.
    pub corrected_via_locator: u64,
    /// Unrecoverable errors declared.
    pub dues: u64,
}

/// The Correctable Parity Protected Cache.
///
/// # Example
///
/// ```
/// use cppc_cache_sim::{CacheGeometry, MainMemory, ReplacementPolicy};
/// use cppc_core::cache::CppcCache;
/// use cppc_core::config::CppcConfig;
///
/// let geo = CacheGeometry::new(1024, 2, 32)?;
/// let mut mem = MainMemory::new();
/// let mut cppc = CppcCache::new_l1(geo, CppcConfig::paper(), ReplacementPolicy::Lru)?;
///
/// cppc.store_word(0x100, 0xDEAD_BEEF, &mut mem).unwrap();
/// // Flip a bit in the stored (dirty!) data:
/// cppc.flip_data_bit_at(0x100, 17);
/// // The load detects the fault via parity and repairs it from R1/R2:
/// assert_eq!(cppc.load_word(0x100, &mut mem).unwrap(), 0xDEAD_BEEF);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// `clone_from` copies into the existing arenas, registers and scratch
/// buffers, so restoring a warm clone of the same configuration
/// allocates nothing.
#[derive(Debug)]
pub struct CppcCache {
    inner: Cache,
    parity: Vec<u64>,
    code: InterleavedParity,
    layout: PhysicalLayout,
    config: CppcConfig,
    regs: RegisterFile,
    lane_mode: LaneMode,
    stats: CppcStats,
    /// One-block scratch reused by recovery re-fetches, so the repair
    /// path never allocates.
    fetch_scratch: Vec<u64>,
    /// Working buffers reused across recovery passes.
    recovery_scratch: RecoveryScratch,
    /// Per-rotation-class register pair, precomputed from the config:
    /// `pair_of_class` divides by a runtime value, which the store path
    /// cannot afford once per access.
    pair_of: [usize; ROTATION_CLASSES],
    /// Per-rotation-class byte rotation, precomputed likewise.
    rot_of: [u32; ROTATION_CLASSES],
}

cppc_cache_sim::clone_in_place! {
    CppcCache {
        inner, parity, code, layout, config, regs, lane_mode, stats, fetch_scratch,
        recovery_scratch, pair_of, rot_of,
    }
}

impl CppcCache {
    fn build(
        geo: CacheGeometry,
        config: CppcConfig,
        policy: ReplacementPolicy,
        lane_mode: LaneMode,
    ) -> Result<Self, ConfigError> {
        config.validate()?;
        let layout =
            PhysicalLayout::new(geo.num_sets(), geo.associativity(), geo.words_per_block());
        let lanes = match lane_mode {
            LaneMode::Word => 1,
            LaneMode::BlockWord => geo.words_per_block(),
        };
        Ok(CppcCache {
            inner: Cache::new(geo, policy),
            parity: vec![0; layout.num_rows()],
            code: InterleavedParity::new(config.parity_ways),
            layout,
            config,
            regs: RegisterFile::new(config.register_pairs, lanes),
            lane_mode,
            stats: CppcStats::default(),
            fetch_scratch: vec![0; geo.words_per_block()],
            recovery_scratch: RecoveryScratch::default(),
            pair_of: core::array::from_fn(|class| config.pair_of_class(class)),
            rot_of: core::array::from_fn(|class| config.rotation_of_class(class)),
        })
    }

    /// Creates an L1 CPPC: word write granularity, word-sized registers.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for invalid configurations.
    pub fn new_l1(
        geo: CacheGeometry,
        config: CppcConfig,
        policy: ReplacementPolicy,
    ) -> Result<Self, ConfigError> {
        Self::build(geo, config, policy, LaneMode::Word)
    }

    /// Creates an L2 CPPC (§3.5): block write granularity, registers one
    /// L1-block wide (one lane per word of the block).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for invalid configurations.
    pub fn new_l2(
        geo: CacheGeometry,
        config: CppcConfig,
        policy: ReplacementPolicy,
    ) -> Result<Self, ConfigError> {
        Self::build(geo, config, policy, LaneMode::BlockWord)
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &CppcConfig {
        &self.config
    }

    /// CPPC-specific counters.
    #[must_use]
    pub fn stats(&self) -> &CppcStats {
        &self.stats
    }

    /// Generic cache counters (hits, misses, write-backs, …).
    #[must_use]
    pub fn cache_stats(&self) -> &CacheStats {
        self.inner.stats()
    }

    /// The physical data-array layout (for fault targeting).
    #[must_use]
    pub fn layout(&self) -> &PhysicalLayout {
        &self.layout
    }

    /// The inner cache geometry.
    #[must_use]
    pub fn geometry(&self) -> &CacheGeometry {
        self.inner.geometry()
    }

    /// Number of dirty words currently resident.
    #[must_use]
    pub fn dirty_word_count(&self) -> u64 {
        self.inner.dirty_word_count()
    }

    /// Reads the word at `addr` without side effects, if resident.
    #[must_use]
    pub fn peek_word(&self, addr: u64) -> Option<u64> {
        self.inner.peek_word(addr)
    }

    /// Looks up `addr` without side effects, returning `(set, way)` on
    /// a hit.
    #[must_use]
    pub fn probe(&self, addr: u64) -> Option<(usize, usize)> {
        self.inner.probe(addr)
    }

    /// Ground-truth `(tag, dirty_mask)` of the block at `(set, way)`,
    /// or `None` for an invalid way — the tag-shadow's source of truth.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    #[must_use]
    pub fn tag_state_of(&self, set: usize, way: usize) -> Option<(u64, u8)> {
        let block = self.inner.block(set, way);
        block
            .is_valid()
            .then(|| (block.tag(), block.dirty_mask() as u8))
    }

    fn class_of_row(&self, row: usize) -> usize {
        self.layout.rotation_class(row, ROTATION_CLASSES)
    }

    fn lane_of_word(&self, word: usize) -> usize {
        match self.lane_mode {
            LaneMode::Word => 0,
            LaneMode::BlockWord => word,
        }
    }

    /// `(pair, lane, rotation)` of the word at `(set, way, word)`.
    fn domain_of(&self, set: usize, way: usize, word: usize) -> (usize, usize, u32) {
        self.domain_of_row(self.layout.row_of(set, way, word), word)
    }

    /// [`CppcCache::domain_of`] for a caller that already knows the
    /// physical row — the hot paths compute the row once and reuse it
    /// for the parity array, the domain and the rotation.
    #[inline]
    fn domain_of_row(&self, row: usize, word: usize) -> (usize, usize, u32) {
        let class = self.class_of_row(row);
        (
            self.pair_of[class],
            self.lane_of_word(word),
            self.rot_of[class],
        )
    }

    fn syndrome_at(&self, set: usize, way: usize, word: usize) -> u64 {
        let row = self.layout.row_of(set, way, word);
        let value = self.inner.word_at(set, way, word);
        self.code.syndrome(value, self.parity[row])
    }

    fn refresh_parity(&mut self, set: usize, way: usize, word: usize) {
        let row = self.layout.row_of(set, way, word);
        let value = self.inner.word_at(set, way, word);
        self.parity[row] = self.code.encode(value);
    }

    /// Makes the block containing `addr` resident, classifying the access
    /// and handling the CPPC side of any eviction (parity-check + XOR of
    /// outgoing dirty words into R2).
    fn ensure_resident<B: Backing>(
        &mut self,
        addr: u64,
        is_store: bool,
        backing: &mut B,
    ) -> Result<(usize, usize), Due> {
        if let Some((set, way)) = self.inner.probe(addr) {
            self.inner.record_access(is_store, true);
            self.inner.touch(set, way);
            return Ok((set, way));
        }
        self.inner.record_access(is_store, false);
        let set = self.inner.geometry().set_index(addr);
        let way = self.inner.choose_way_for_fill(set);

        // Pre-eviction: the outgoing block's dirty words are *read* (to
        // be written back), so their parity is checked; then they leave
        // the dirty set and must be XORed into R2. Rows of one block are
        // contiguous, so `row0 + w` addresses word `w`'s parity.
        let row0 = self.layout.row_of(set, way, 0);
        if self.inner.is_valid_at(set, way) && self.inner.dirty_mask_at(set, way) != 0 {
            let wpb = self.inner.geometry().words_per_block();
            let mask = self.inner.dirty_mask_at(set, way);
            let needs_recovery = (0..wpb).any(|w| {
                mask >> w & 1 == 1
                    && self
                        .code
                        .syndrome(self.inner.word_at(set, way, w), self.parity[row0 + w])
                        != 0
            });
            if needs_recovery {
                self.recover_all(backing)?;
            }
            let mask = self.inner.dirty_mask_at(set, way);
            for w in 0..wpb {
                if mask >> w & 1 == 1 {
                    let (pair, lane, rot) = self.domain_of_row(row0 + w, w);
                    let value = self.inner.word_at(set, way, w);
                    self.regs.absorb_removal(pair, lane, value, rot);
                }
            }
        }

        let _evicted = self.inner.fill_into(addr, way, backing);
        for w in 0..self.inner.geometry().words_per_block() {
            self.parity[row0 + w] = self.code.encode(self.inner.word_at(set, way, w));
        }
        Ok((set, way))
    }

    /// Loads the 64-bit word at `addr`, checking parity and recovering
    /// transparently.
    ///
    /// # Errors
    ///
    /// Returns [`Due`] when a detected error cannot be corrected — the
    /// hardware equivalent of a machine-check exception.
    pub fn load_word<B: Backing>(&mut self, addr: u64, backing: &mut B) -> Result<u64, Due> {
        let (set, way) = self.ensure_resident(addr, false, backing)?;
        let w = self.inner.geometry().word_index(addr);
        let row = self.layout.row_of(set, way, w);
        let value = self.inner.word_at(set, way, w);
        if self.code.syndrome(value, self.parity[row]) != 0 {
            self.recover_all(backing)?;
            return Ok(self.inner.word_at(set, way, w));
        }
        Ok(value)
    }

    /// Stores `value` at `addr` (write-allocate), performing the CPPC
    /// write path of Figure 2: XOR new data into R1; if the target word
    /// is dirty, read it first (read-before-write) and XOR it into R2.
    ///
    /// # Errors
    ///
    /// Returns [`Due`] when a fault discovered along the way is
    /// uncorrectable.
    pub fn store_word<B: Backing>(
        &mut self,
        addr: u64,
        value: u64,
        backing: &mut B,
    ) -> Result<(), Due> {
        let (set, way) = self.ensure_resident(addr, true, backing)?;
        let w = self.inner.geometry().word_index(addr);
        let row = self.layout.row_of(set, way, w);
        let (pair, lane, rot) = self.domain_of_row(row, w);

        if self.inner.dirty_mask_at(set, way) >> w & 1 == 1 {
            // Read-before-write: the old data is read, so parity is
            // checked — a corrupted old value must not poison R2.
            let mut old = self.inner.word_at(set, way, w);
            if self.code.syndrome(old, self.parity[row]) != 0 {
                self.recover_all(backing)?;
                old = self.inner.word_at(set, way, w);
            }
            self.regs.absorb_removal(pair, lane, old, rot);
            self.stats.read_before_writes += 1;
        }
        self.inner.store_word_in_place(set, way, w, value);
        self.regs.absorb_store(pair, lane, value, rot);
        self.parity[row] = self.code.encode(value);
        Ok(())
    }

    /// Stores one byte at `addr` (§3.1's byte-store path): the new byte
    /// is XORed into the corresponding byte of R1; the old byte goes
    /// into R2 if the word was dirty. A byte store to a *clean* word
    /// needs the rest of the word (a merge read) so that the full new
    /// word value enters R1.
    ///
    /// # Errors
    ///
    /// Returns [`Due`] when a fault discovered along the way is
    /// uncorrectable.
    pub fn store_byte<B: Backing>(
        &mut self,
        addr: u64,
        value: u8,
        backing: &mut B,
    ) -> Result<(), Due> {
        let (set, way) = self.ensure_resident(addr, true, backing)?;
        let geo = *self.inner.geometry();
        let w = geo.word_index(addr);
        let byte = geo.byte_in_word(addr);
        let row = self.layout.row_of(set, way, w);
        let (pair, lane, rot) = self.domain_of_row(row, w);

        let was_dirty = self.inner.dirty_mask_at(set, way) >> w & 1 == 1;
        // Either path reads the old word first, so parity is checked.
        let mut old = self.inner.word_at(set, way, w);
        if self.code.syndrome(old, self.parity[row]) != 0 {
            self.recover_all(backing)?;
            old = self.inner.word_at(set, way, w);
        }
        if was_dirty {
            let old_byte = (old >> (8 * byte)) & 0xFF;
            self.regs
                .absorb_removal(pair, lane, old_byte << (8 * byte), rot);
            self.regs
                .absorb_store(pair, lane, u64::from(value) << (8 * byte), rot);
            self.stats.read_before_writes += 1;
        } else {
            // Clean word: merge-read so the whole resulting word enters R1.
            let merged = (old & !(0xFFu64 << (8 * byte))) | (u64::from(value) << (8 * byte));
            self.regs.absorb_store(pair, lane, merged, rot);
            self.stats.byte_store_merges += 1;
        }
        self.inner.store_byte_in_place(set, way, w, byte, value);
        self.refresh_parity(set, way, w);
        Ok(())
    }

    /// Accepts a block-granularity write (the L2 CPPC path, §3.5):
    /// words selected by `mask` are written. One read-before-write block
    /// read is charged if any target word was dirty.
    ///
    /// # Errors
    ///
    /// Returns [`Due`] when a fault discovered along the way is
    /// uncorrectable.
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
    ) -> Result<(), Due> {
        let wpb = self.inner.geometry().words_per_block();
        assert_eq!(data.len(), wpb, "block width");
        let (set, way) = self.ensure_resident(addr, true, backing)?;

        let any_dirty =
            (0..wpb).any(|w| mask >> w & 1 == 1 && self.inner.block(set, way).is_word_dirty(w));
        if any_dirty {
            let needs_recovery = (0..wpb).any(|w| {
                mask >> w & 1 == 1
                    && self.inner.block(set, way).is_word_dirty(w)
                    && self.syndrome_at(set, way, w) != 0
            });
            if needs_recovery {
                self.recover_all(backing)?;
            }
            self.stats.rbw_block_reads += 1;
            for w in 0..wpb {
                if mask >> w & 1 == 1 && self.inner.block(set, way).is_word_dirty(w) {
                    let (pair, lane, rot) = self.domain_of(set, way, w);
                    let old = self.inner.block(set, way).word(w);
                    self.regs.absorb_removal(pair, lane, old, rot);
                }
            }
        }
        for (w, &value) in data.iter().enumerate() {
            if mask >> w & 1 == 1 {
                let (pair, lane, rot) = self.domain_of(set, way, w);
                self.inner.store_word_in_place(set, way, w, value);
                self.regs.absorb_store(pair, lane, value, rot);
                self.refresh_parity(set, way, w);
            }
        }
        Ok(())
    }

    /// Reads the whole block containing `addr` (the L2 CPPC read path),
    /// parity-checking every word.
    ///
    /// # Errors
    ///
    /// Returns [`Due`] when a detected error cannot be corrected.
    pub fn read_block<B: Backing>(&mut self, addr: u64, backing: &mut B) -> Result<Vec<u64>, Due> {
        let mut buf = vec![0; self.inner.geometry().words_per_block()];
        self.read_block_into(addr, backing, &mut buf)?;
        Ok(buf)
    }

    /// Reads the whole block containing `addr` into `buf` without
    /// allocating — the hot-path variant of [`CppcCache::read_block`]
    /// used by upper levels that reuse a per-cache scratch buffer.
    ///
    /// # Errors
    ///
    /// Returns [`Due`] when a detected error cannot be corrected.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is not exactly one block wide.
    pub fn read_block_into<B: Backing>(
        &mut self,
        addr: u64,
        backing: &mut B,
        buf: &mut [u64],
    ) -> Result<(), Due> {
        let (set, way) = self.ensure_resident(addr, false, backing)?;
        let wpb = self.inner.geometry().words_per_block();
        // Rows of a block are contiguous, so the whole block's parity sits
        // at `row0..row0 + wpb` and the OR-folded block syndrome kernel
        // answers "any word faulty?" in one pass.
        let row0 = self.layout.row_of(set, way, 0);
        if self.code.block_syndrome_or(
            self.inner.words_at(set, way),
            &self.parity[row0..row0 + wpb],
        ) != 0
        {
            self.recover_all(backing)?;
        }
        buf.copy_from_slice(self.inner.block(set, way).words());
        Ok(())
    }

    /// Writes every dirty block back (parity-checking outgoing data and
    /// moving it from the dirty set into R2), leaving contents resident.
    ///
    /// # Errors
    ///
    /// Returns [`Due`] when outgoing data is corrupt beyond recovery.
    pub fn flush<B: Backing>(&mut self, backing: &mut B) -> Result<(), Due> {
        let geo = *self.inner.geometry();
        let needs_recovery = self
            .inner
            .iter_dirty_words()
            .any(|(s, w, i, _)| self.syndrome_at(s, w, i) != 0);
        if needs_recovery {
            self.recover_all(backing)?;
        }
        for set in 0..geo.num_sets() {
            for way in 0..geo.associativity() {
                if !self.inner.block(set, way).is_valid() || !self.inner.block(set, way).is_dirty()
                {
                    continue;
                }
                for w in 0..geo.words_per_block() {
                    if self.inner.block(set, way).is_word_dirty(w) {
                        let (pair, lane, rot) = self.domain_of(set, way, w);
                        let value = self.inner.block(set, way).word(w);
                        self.regs.absorb_removal(pair, lane, value, rot);
                    }
                }
                self.inner.writeback_block(set, way, backing);
            }
        }
        Ok(())
    }

    /// Invalidates the block containing `addr` (a coherence action —
    /// §7's write-invalidate protocols): dirty words are parity-checked,
    /// written back to `backing` and XORed into R2 as they leave the
    /// dirty set, then the block is dropped. No-op if not resident.
    ///
    /// # Errors
    ///
    /// Returns [`Due`] if the outgoing dirty data is corrupt beyond
    /// recovery.
    pub fn invalidate_block<B: Backing>(&mut self, addr: u64, backing: &mut B) -> Result<(), Due> {
        let Some((set, way)) = self.inner.probe(addr) else {
            return Ok(());
        };
        let wpb = self.inner.geometry().words_per_block();
        if self.inner.block(set, way).is_dirty() {
            let needs_recovery = (0..wpb).any(|w| {
                self.inner.block(set, way).is_word_dirty(w) && self.syndrome_at(set, way, w) != 0
            });
            if needs_recovery {
                self.recover_all(backing)?;
            }
            for w in 0..wpb {
                if self.inner.block(set, way).is_word_dirty(w) {
                    let (pair, lane, rot) = self.domain_of(set, way, w);
                    let value = self.inner.block(set, way).word(w);
                    self.regs.absorb_removal(pair, lane, value, rot);
                }
            }
            self.inner.writeback_block(set, way, backing);
        }
        self.inner.invalidate_way(set, way);
        Ok(())
    }

    /// Writes the block containing `addr` back (parity-checked, dirty
    /// words moved into R2) but keeps it resident and clean — the M→S
    /// downgrade of a write-invalidate protocol (§7). No-op if not
    /// resident or already clean.
    ///
    /// # Errors
    ///
    /// Returns [`Due`] if the outgoing dirty data is corrupt beyond
    /// recovery.
    pub fn clean_block<B: Backing>(&mut self, addr: u64, backing: &mut B) -> Result<(), Due> {
        let Some((set, way)) = self.inner.probe(addr) else {
            return Ok(());
        };
        if !self.inner.block(set, way).is_dirty() {
            return Ok(());
        }
        let wpb = self.inner.geometry().words_per_block();
        let needs_recovery = (0..wpb).any(|w| {
            self.inner.block(set, way).is_word_dirty(w) && self.syndrome_at(set, way, w) != 0
        });
        if needs_recovery {
            self.recover_all(backing)?;
        }
        for w in 0..wpb {
            if self.inner.block(set, way).is_word_dirty(w) {
                let (pair, lane, rot) = self.domain_of(set, way, w);
                let value = self.inner.block(set, way).word(w);
                self.regs.absorb_removal(pair, lane, value, rot);
            }
        }
        self.inner.writeback_block(set, way, backing);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    /// Applies a physical fault pattern to the data array. Flips into
    /// invalid ways are dropped (nothing is stored there). Returns the
    /// number of bits actually flipped.
    pub fn inject(&mut self, pattern: &FaultPattern) -> usize {
        let applied =
            crate::scheme::apply_masks(&mut self.inner, &self.layout, pattern.row_masks());
        crate::obs::register_metrics();
        crate::obs::FAULTS_INJECTED.add(applied as u64);
        cppc_obs::record_event("cppc.inject", || {
            format!(
                "{applied} of {} flips landed on valid blocks",
                pattern.len()
            )
        });
        applied
    }

    /// Flips one data bit of the (resident) word at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the address is not resident or `bit >= 64`.
    pub fn flip_data_bit_at(&mut self, addr: u64, bit: u32) {
        let (set, way) = self.inner.probe(addr).expect("address must be resident");
        let w = self.inner.geometry().word_index(addr);
        assert!(bit < 64, "bit {bit} out of range");
        self.inner.block_mut(set, way).xor_word(w, 1u64 << bit);
    }

    /// Flips one stored parity bit (code-array fault injection).
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range or `group >= parity_ways`.
    pub fn flip_parity_bit(&mut self, row: usize, group: u32) {
        assert!(row < self.parity.len(), "row {row} out of range");
        assert!(
            group < self.config.parity_ways,
            "group {group} out of range"
        );
        self.parity[row] ^= 1u64 << group;
    }

    // ------------------------------------------------------------------
    // Recovery (§4.4)
    // ------------------------------------------------------------------

    /// Scans the whole cache for parity violations and repairs them:
    /// clean words by re-fetch, dirty words by register reconstruction,
    /// multi-word spatial faults via the locator. This is the §4.4
    /// procedure (invoked automatically by loads/stores that detect a
    /// fault; public so campaigns and scrubbers can trigger it).
    ///
    /// # Errors
    ///
    /// Returns [`Due`] when any fault is unrecoverable.
    pub fn recover_all<B: Backing>(&mut self, backing: &mut B) -> Result<RecoveryReport, Due> {
        crate::obs::register_metrics();
        crate::obs::RECOVERY_WALKS.inc();
        let _walk = crate::obs::RECOVERY_WALK.start();
        let detections_before = self.stats.detections;
        let result = self.recover_all_inner(backing);
        crate::obs::DETECTIONS.add(self.stats.detections - detections_before);
        match &result {
            Ok(report) => {
                crate::obs::CORRECTED_CLEAN.add(report.corrected_clean as u64);
                crate::obs::CORRECTED_DIRTY.add(report.corrected_dirty as u64);
                crate::obs::VIA_LOCATOR.add(report.via_locator as u64);
                if report.corrected_clean + report.corrected_dirty > 0 {
                    cppc_obs::record_event("cppc.recovery", || {
                        format!(
                            "corrected clean={} dirty={} via_locator={}",
                            report.corrected_clean, report.corrected_dirty, report.via_locator
                        )
                    });
                }
            }
            Err(due) => {
                crate::obs::DUES.inc();
                cppc_obs::record_event("cppc.due", || format!("{:?}", due.reason));
            }
        }
        result
    }

    fn recover_all_inner<B: Backing>(&mut self, backing: &mut B) -> Result<RecoveryReport, Due> {
        // Detach the scratch buffers for the duration of the pass so the
        // helpers below can borrow `self` mutably alongside them; put them
        // back afterwards (also on the error paths) so the next pass
        // reuses their capacity.
        let mut scratch = std::mem::take(&mut self.recovery_scratch);
        let result = self.recover_all_with_scratch(backing, &mut scratch);
        self.recovery_scratch = scratch;
        result
    }

    fn recover_all_with_scratch<B: Backing>(
        &mut self,
        backing: &mut B,
        scratch: &mut RecoveryScratch,
    ) -> Result<RecoveryReport, Due> {
        self.stats.recoveries += 1;
        let mut report = RecoveryReport::default();
        let geo = *self.inner.geometry();

        scratch.faulty_clean.clear();
        // (set, way, word, row, syndrome) grouped later by (pair, lane).
        scratch.faulty_dirty.clear();
        for set in 0..geo.num_sets() {
            for way in 0..geo.associativity() {
                if !self.inner.is_valid_at(set, way) {
                    continue;
                }
                let dirty = self.inner.dirty_mask_at(set, way);
                let row0 = self.layout.row_of(set, way, 0);
                let words = self.inner.words_at(set, way);
                // OR-folded block syndrome: one wide pass answers "any
                // word faulty?" so fault-free blocks (the overwhelming
                // majority) skip the per-word classification entirely.
                if self
                    .code
                    .block_syndrome_or(words, &self.parity[row0..row0 + words.len()])
                    == 0
                {
                    continue;
                }
                for (w, &value) in words.iter().enumerate() {
                    let syn = self.code.syndrome(value, self.parity[row0 + w]);
                    if syn != 0 {
                        self.stats.detections += 1;
                        if dirty >> w & 1 == 1 {
                            scratch.faulty_dirty.push((set, way, w, row0 + w, syn));
                        } else {
                            scratch.faulty_clean.push((set, way, w));
                        }
                    }
                }
            }
        }

        // Register-file parity check (§4.9): a corrupted register is
        // rebuilt from the dirty words — but only if they are all sound.
        if !self.regs.check_parity() {
            if scratch.faulty_dirty.is_empty() {
                self.repair_registers();
            } else {
                self.stats.dues += 1;
                return Err(Due {
                    reason: DueReason::RegisterFault,
                });
            }
        }

        // Clean faults: re-fetch from the next level (§3.2).
        for i in 0..scratch.faulty_clean.len() {
            let (set, way, w) = scratch.faulty_clean[i];
            let base = self.inner.block_address(set, way);
            backing.fetch_block_into(base, &mut self.fetch_scratch);
            let value = self.fetch_scratch[w];
            self.inner.block_mut(set, way).patch_word(w, value);
            self.refresh_parity(set, way, w);
            self.stats.corrected_clean += 1;
            report.corrected_clean += 1;
        }

        // Dirty faults: group by protection domain (pair, lane), in
        // first-encounter order of the keys. With at most a handful of
        // faulty words per pass the quadratic key scan beats building a
        // keyed map — and it allocates nothing.
        for i in 0..scratch.faulty_dirty.len() {
            let (_, _, wi, rowi, _) = scratch.faulty_dirty[i];
            let (pair, lane, _) = self.domain_of_row(rowi, wi);
            let seen = scratch.faulty_dirty[..i]
                .iter()
                .any(|&(_, _, w2, row2, _)| {
                    let (p2, l2, _) = self.domain_of_row(row2, w2);
                    (p2, l2) == (pair, lane)
                });
            if seen {
                continue;
            }
            scratch.group.clear();
            for j in i..scratch.faulty_dirty.len() {
                let entry = scratch.faulty_dirty[j];
                let (_, _, w2, row2, _) = entry;
                let (p2, l2, _) = self.domain_of_row(row2, w2);
                if (p2, l2) == (pair, lane) {
                    scratch.group.push(entry);
                }
            }
            let fixed = self.recover_domain(pair, lane, scratch)?;
            report.corrected_dirty += scratch.group.len();
            report.via_locator += fixed;
        }

        // Post-condition: every resident word must now pass parity.
        for set in 0..geo.num_sets() {
            for way in 0..geo.associativity() {
                if !self.inner.is_valid_at(set, way) {
                    continue;
                }
                let row0 = self.layout.row_of(set, way, 0);
                let words = self.inner.words_at(set, way);
                for (w, &value) in words.iter().enumerate() {
                    if self.code.syndrome(value, self.parity[row0 + w]) != 0 {
                        self.stats.dues += 1;
                        return Err(Due {
                            reason: DueReason::PostRecoveryMismatch,
                        });
                    }
                }
            }
        }
        Ok(report)
    }

    /// Collects all dirty words of protection domain `(pair, lane)` into
    /// `out` (cleared first), as `(set, way, word, row, current value)`.
    fn collect_dirty_words_of_domain(&self, pair: usize, lane: usize, out: &mut Vec<DomainWord>) {
        out.clear();
        let geo = self.inner.geometry();
        for set in 0..geo.num_sets() {
            for way in 0..geo.associativity() {
                if !self.inner.is_valid_at(set, way) {
                    continue;
                }
                let mut mask = self.inner.dirty_mask_at(set, way);
                if mask == 0 {
                    continue;
                }
                let row0 = self.layout.row_of(set, way, 0);
                while mask != 0 {
                    let w = mask.trailing_zeros() as usize;
                    mask &= mask - 1;
                    let (p, l, _) = self.domain_of_row(row0 + w, w);
                    if (p, l) == (pair, lane) {
                        out.push((set, way, w, row0 + w, self.inner.word_at(set, way, w)));
                    }
                }
            }
        }
    }

    /// Repairs the faulty dirty words of one domain (`scratch.group`).
    /// Returns how many needed the spatial locator.
    fn recover_domain(
        &mut self,
        pair: usize,
        lane: usize,
        scratch: &mut RecoveryScratch,
    ) -> Result<usize, Due> {
        debug_assert!(!scratch.group.is_empty());

        // One snapshot of the domain's dirty words serves every
        // reconstruction below; entries are refreshed as words are
        // repaired so later reconstructions see corrected values, exactly
        // as if each one re-walked the cache.
        self.collect_dirty_words_of_domain(pair, lane, &mut scratch.domain_words);

        if scratch.group.len() == 1 {
            let (set, way, w, row, _) = scratch.group[0];
            self.reconstruct_word(pair, lane, set, way, w, row, &scratch.domain_words);
            self.stats.corrected_dirty += 1;
            return Ok(0);
        }

        // Multiple faulty words: disjoint syndromes → group-masked
        // reconstruction (§4.4 step 4); shared syndromes → locator.
        let disjoint = scratch
            .group
            .iter()
            .enumerate()
            .all(|(i, a)| scratch.group[i + 1..].iter().all(|b| a.4 & b.4 == 0));
        if disjoint {
            for i in 0..scratch.group.len() {
                let (set, way, w, row, syn) = scratch.group[i];
                self.reconstruct_word_masked(
                    pair,
                    lane,
                    set,
                    way,
                    w,
                    row,
                    syn,
                    &scratch.domain_words,
                );
                self.stats.corrected_dirty += 1;
                let fixed = self.inner.word_at(set, way, w);
                if let Some(e) = scratch
                    .domain_words
                    .iter_mut()
                    .find(|e| (e.0, e.1, e.2) == (set, way, w))
                {
                    e.4 = fixed;
                }
            }
            return Ok(0);
        }

        // The locator's arithmetic relies on byte shifting (rotation ==
        // class) and byte-granularity parity. Without them, aliased
        // contributions cannot be separated — the fault is a DUE (this is
        // exactly the basic CPPC's limitation the paper motivates §4 with).
        if self.config.parity_ways != 8 || !self.config.byte_shifting {
            self.stats.dues += 1;
            return Err(Due {
                reason: DueReason::SharedGroupsNoLocator,
            });
        }

        // Spatial locator path (§4.5). R3 = (R1^R2) ^ XOR of rotated
        // current values of all dirty words in the domain = XOR of the
        // rotated error masks.
        let mut r3 = self.regs.dirty_xor(pair, lane);
        for &(_, _, _, row, value) in &scratch.domain_words {
            let rot = self.config.rotation_of_class(self.class_of_row(row));
            r3 ^= rotate_left_bytes(value, rot);
        }
        scratch.suspects.clear();
        for &(_, _, _, row, syn) in &scratch.group {
            scratch.suspects.push(Suspect {
                row,
                class: self.class_of_row(row),
                syndrome: syn as u8,
            });
        }
        match locate_spatial_into(r3, &scratch.suspects, &mut scratch.masks) {
            Ok(()) => {
                for (&(set, way, w, _, _), &mask) in scratch.group.iter().zip(&scratch.masks) {
                    let fixed = self.inner.block(set, way).word(w) ^ mask;
                    self.inner.block_mut(set, way).patch_word(w, fixed);
                    self.refresh_parity(set, way, w);
                    self.stats.corrected_dirty += 1;
                    self.stats.corrected_via_locator += 1;
                }
                Ok(scratch.group.len())
            }
            Err(e) => {
                self.stats.dues += 1;
                Err(Due {
                    reason: DueReason::Locator(e),
                })
            }
        }
    }

    /// Single-faulty-word reconstruction (§4.4 steps 1–2): XOR R1, R2
    /// and every other dirty word of the domain (rotated, from the
    /// caller's `domain_words` snapshot), then rotate the result back
    /// and write it over the faulty word.
    #[allow(clippy::too_many_arguments)]
    fn reconstruct_word(
        &mut self,
        pair: usize,
        lane: usize,
        set: usize,
        way: usize,
        w: usize,
        row: usize,
        domain_words: &[(usize, usize, usize, usize, u64)],
    ) {
        let mut acc = self.regs.dirty_xor(pair, lane);
        for &(s2, w2, i2, row2, value) in domain_words {
            if (s2, w2, i2) == (set, way, w) {
                continue;
            }
            let rot = self.config.rotation_of_class(self.class_of_row(row2));
            acc ^= rotate_left_bytes(value, rot);
        }
        let rot = self.config.rotation_of_class(self.class_of_row(row));
        let corrected = rotate_right_bytes(acc, rot);
        self.inner.block_mut(set, way).patch_word(w, corrected);
        self.refresh_parity(set, way, w);
    }

    /// Group-masked reconstruction for multiple faulty words with
    /// disjoint syndromes (§4.4 step 4): only the bits in the word's own
    /// fired parity groups are taken from the reconstruction; pollution
    /// from the other faulty words lies in *their* groups, which are
    /// disjoint.
    #[allow(clippy::too_many_arguments)]
    fn reconstruct_word_masked(
        &mut self,
        pair: usize,
        lane: usize,
        set: usize,
        way: usize,
        w: usize,
        row: usize,
        syndrome: u64,
        domain_words: &[(usize, usize, usize, usize, u64)],
    ) {
        let mut acc = self.regs.dirty_xor(pair, lane);
        for &(s2, w2, i2, row2, value) in domain_words {
            if (s2, w2, i2) == (set, way, w) {
                continue;
            }
            let rot = self.config.rotation_of_class(self.class_of_row(row2));
            acc ^= rotate_left_bytes(value, rot);
        }
        let rot = self.config.rotation_of_class(self.class_of_row(row));
        let recon = rotate_right_bytes(acc, rot);

        // Column mask of the fired parity groups (byte rotation preserves
        // groups, so the mask is rotation-independent).
        let ways = self.config.parity_ways;
        let mut mask = 0u64;
        for g in 0..ways {
            if syndrome >> g & 1 == 1 {
                let mut col = g;
                while col < 64 {
                    mask |= 1u64 << col;
                    col += ways;
                }
            }
        }
        let stored = self.inner.block(set, way).word(w);
        let corrected = (stored & !mask) | (recon & mask);
        self.inner.block_mut(set, way).patch_word(w, corrected);
        self.refresh_parity(set, way, w);
    }

    // ------------------------------------------------------------------
    // Invariant checking & register maintenance (§4.9)
    // ------------------------------------------------------------------

    /// Recomputes, by scanning the data array, what every pair/lane's
    /// `R1 ^ R2` should be.
    #[must_use]
    pub fn expected_register_state(&self) -> Vec<Vec<u64>> {
        let mut expect = vec![vec![0u64; self.regs.lanes()]; self.regs.pairs()];
        for (set, way, w, value) in self.inner.iter_dirty_words() {
            let (pair, lane, rot) = self.domain_of(set, way, w);
            expect[pair][lane] ^= rotate_left_bytes(value, rot);
        }
        expect
    }

    /// `true` iff `R1 ^ R2` matches the XOR of rotated dirty words for
    /// every pair and lane — the CPPC's defining invariant.
    #[must_use]
    pub fn verify_invariant(&self) -> bool {
        self.expected_register_state() == self.regs.checkpoint()
    }

    /// Repairs a corrupted register file by re-deriving it from the
    /// (assumed fault-free) dirty words, per §4.9's recovery option.
    pub fn repair_registers(&mut self) {
        let expect = self.expected_register_state();
        self.regs.reset_to(&expect);
    }

    /// Direct register-file access for fault injection on R1/R2 (§4.9).
    pub fn registers_mut(&mut self) -> &mut RegisterFile {
        &mut self.regs
    }

    /// Builds a [`crate::batch::BatchSim`] — the value-independent
    /// batch trial evaluator — from this cache's *warm* state.
    ///
    /// Returns `None` unless the state is certifiably fault-free
    /// (register parity good, R1^R2 invariant holds, every resident
    /// word's parity syndrome is zero): the batch algebra's
    /// `f(warm ^ err) = f(warm) ^ f(err)` cancellation is only valid
    /// from a clean baseline, so a caller holding a dirty/struck cache
    /// must take the ordinary per-trial path.
    #[must_use]
    pub fn batch_sim(&self) -> Option<crate::batch::BatchSim> {
        if !self.regs.check_parity() || !self.verify_invariant() {
            return None;
        }
        let geo = self.inner.geometry();
        let (sets, assoc, wpb) = (geo.num_sets(), geo.associativity(), geo.words_per_block());
        let mut info = vec![crate::batch::RowInfo::default(); self.layout.num_rows()];
        for set in 0..sets {
            for way in 0..assoc {
                let block = self.inner.block(set, way);
                let (valid, dirty_mask) = (block.is_valid(), block.dirty_mask());
                for w in 0..wpb {
                    let row = self.layout.row_of(set, way, w);
                    if valid && self.syndrome_at(set, way, w) != 0 {
                        return None; // latent fault: not a warm baseline
                    }
                    let (pair, lane, rot) = self.domain_of_row(row, w);
                    let pair = u16::try_from(pair).expect("pair fits u16");
                    let lane = u16::try_from(lane).expect("lane fits u16");
                    info[row] = crate::batch::RowInfo {
                        domain: u32::from(pair) << 16 | u32::from(lane),
                        rot: u8::try_from(rot).expect("rotation fits u8"),
                        class: u8::try_from(self.class_of_row(row)).expect("class fits u8"),
                        valid,
                        dirty: valid && dirty_mask >> w & 1 == 1,
                    };
                }
            }
        }
        Some(crate::batch::BatchSim {
            info,
            code: self.code,
            locator_ok: self.config.parity_ways == 8 && self.config.byte_shifting,
        })
    }

    /// A clone of the whole cache: the warm copy a fault campaign
    /// restores into its live cache with `clone_from` each trial.
    #[must_use]
    pub fn snapshot(&self) -> CppcCache {
        self.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cppc_cache_sim::memory::MainMemory;
    use cppc_campaign::rng::rngs::StdRng;
    use cppc_campaign::rng::{RngExt, SeedableRng};
    use cppc_fault::model::BitFlip;

    fn geo() -> CacheGeometry {
        CacheGeometry::new(1024, 2, 32).unwrap() // 16 sets, 4 words/block
    }

    fn l1(config: CppcConfig) -> (CppcCache, MainMemory) {
        (
            CppcCache::new_l1(geo(), config, ReplacementPolicy::Lru).unwrap(),
            MainMemory::new(),
        )
    }

    #[test]
    fn transparent_without_faults() {
        let (mut c, mut m) = l1(CppcConfig::paper());
        let mut rng = StdRng::seed_from_u64(1);
        let mut oracle = std::collections::HashMap::new();
        for _ in 0..10_000 {
            let addr = (rng.random_range(0..4096u64)) & !7;
            if rng.random_bool(0.4) {
                let v: u64 = rng.random();
                c.store_word(addr, v, &mut m).unwrap();
                oracle.insert(addr, v);
            } else {
                let got = c.load_word(addr, &mut m).unwrap();
                assert_eq!(got, *oracle.get(&addr).unwrap_or(&0));
            }
        }
        assert!(c.verify_invariant());
        assert_eq!(c.stats().detections, 0);
    }

    #[test]
    fn invariant_holds_under_traffic_all_configs() {
        for config in [
            CppcConfig::basic(),
            CppcConfig::paper(),
            CppcConfig::two_pairs(),
            CppcConfig::eight_pairs(),
        ] {
            let (mut c, mut m) = l1(config);
            let mut rng = StdRng::seed_from_u64(7);
            for i in 0..5_000 {
                let addr = (rng.random_range(0..8192u64)) & !7;
                if rng.random_bool(0.5) {
                    c.store_word(addr, rng.random(), &mut m).unwrap();
                } else {
                    c.load_word(addr, &mut m).unwrap();
                }
                if i % 500 == 0 {
                    assert!(c.verify_invariant(), "config {config:?} step {i}");
                }
            }
            c.flush(&mut m).unwrap();
            assert!(c.verify_invariant());
            assert_eq!(c.dirty_word_count(), 0);
        }
    }

    #[test]
    fn corrects_single_bit_in_dirty_word_basic() {
        let (mut c, mut m) = l1(CppcConfig::basic());
        c.store_word(0x100, 0xDEAD_BEEF_CAFE_F00D, &mut m).unwrap();
        c.store_word(0x400, 0x1111_2222_3333_4444, &mut m).unwrap();
        c.flip_data_bit_at(0x100, 63);
        assert_eq!(c.load_word(0x100, &mut m).unwrap(), 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(c.stats().corrected_dirty, 1);
        assert!(c.verify_invariant());
    }

    #[test]
    fn corrects_odd_burst_in_one_dirty_word() {
        // 3 flips in one word: basic CPPC corrects any detected fault
        // confined to one dirty word via full reconstruction.
        let (mut c, mut m) = l1(CppcConfig::paper());
        c.store_word(0x100, 42, &mut m).unwrap();
        for bit in [3, 11, 40] {
            c.flip_data_bit_at(0x100, bit);
        }
        assert_eq!(c.load_word(0x100, &mut m).unwrap(), 42);
    }

    #[test]
    fn clean_fault_refetched() {
        let (mut c, mut m) = l1(CppcConfig::paper());
        m.write_word(0x200, 777);
        assert_eq!(c.load_word(0x200, &mut m).unwrap(), 777);
        c.flip_data_bit_at(0x200, 5);
        assert_eq!(c.load_word(0x200, &mut m).unwrap(), 777);
        assert_eq!(c.stats().corrected_clean, 1);
    }

    #[test]
    fn parity_array_fault_corrected() {
        let (mut c, mut m) = l1(CppcConfig::paper());
        c.store_word(0x100, 9, &mut m).unwrap();
        let (set, way) = c.inner.probe(0x100).unwrap();
        let row = c.layout.row_of(set, way, 0);
        c.flip_parity_bit(row, 2);
        assert_eq!(c.load_word(0x100, &mut m).unwrap(), 9);
        assert!(c.verify_invariant());
    }

    #[test]
    fn read_before_write_counted_only_for_dirty_stores() {
        let (mut c, mut m) = l1(CppcConfig::paper());
        c.store_word(0x100, 1, &mut m).unwrap(); // clean → dirty: no RBW
        assert_eq!(c.stats().read_before_writes, 0);
        c.store_word(0x100, 2, &mut m).unwrap(); // dirty: RBW
        assert_eq!(c.stats().read_before_writes, 1);
        c.store_word(0x108, 3, &mut m).unwrap(); // different word: no RBW
        assert_eq!(c.stats().read_before_writes, 1);
    }

    #[test]
    fn byte_store_preserves_invariant() {
        let (mut c, mut m) = l1(CppcConfig::paper());
        m.write_word(0x100, 0xAAAA_BBBB_CCCC_DDDD);
        // byte store to clean word:
        c.store_byte(0x103, 0x42, &mut m).unwrap();
        assert!(c.verify_invariant());
        assert_eq!(c.peek_word(0x100), Some(0xAAAA_BBBB_42CC_DDDD));
        // byte store to dirty word:
        c.store_byte(0x105, 0x77, &mut m).unwrap();
        assert!(c.verify_invariant());
        assert_eq!(c.stats().read_before_writes, 1);
        assert_eq!(c.stats().byte_store_merges, 1);
        // and recovery still works afterwards:
        c.flip_data_bit_at(0x100, 60);
        assert_eq!(c.load_word(0x100, &mut m).unwrap(), 0xAAAA_77BB_42CC_DDDD);
    }

    #[test]
    fn eviction_moves_dirty_words_to_r2() {
        let (mut c, mut m) = l1(CppcConfig::paper());
        c.store_word(0x40, 0xAB, &mut m).unwrap();
        // Evict set 2's block by loading two more blocks into it
        // (16 sets x 32B = 512B stride).
        c.load_word(0x40 + 512, &mut m).unwrap();
        c.load_word(0x40 + 1024, &mut m).unwrap();
        assert_eq!(m.peek_word(0x40), 0xAB, "written back");
        assert!(c.verify_invariant(), "R2 absorbed the evicted dirty word");
        assert_eq!(c.dirty_word_count(), 0);
    }

    #[test]
    fn paper_figure_3_example() {
        // §3.3: store 0x0000 to word0, 0x8000 to word1, flip MSB-of-16
        // of word0, recover.
        let (mut c, mut m) = l1(CppcConfig::basic());
        c.store_word(0x100, 0x0000, &mut m).unwrap();
        c.store_word(0x108, 0x8000, &mut m).unwrap();
        c.flip_data_bit_at(0x100, 15);
        assert_eq!(c.load_word(0x100, &mut m).unwrap(), 0x0000);
    }

    #[test]
    fn vertical_two_bit_needs_byte_shifting() {
        // §4.1/§4.2: a vertical 2-bit fault (bit 0 of two vertically
        // adjacent dirty words).
        // With byte shifting (paper config): corrected.
        let (mut c, mut m) = l1(CppcConfig::paper());
        c.store_word(0x100, 0xF0, &mut m).unwrap(); // word 0 (row r)
        c.store_word(0x108, 0x0F, &mut m).unwrap(); // word 1 (row r+1)
        c.flip_data_bit_at(0x100, 0);
        c.flip_data_bit_at(0x108, 0);
        assert_eq!(c.load_word(0x100, &mut m).unwrap(), 0xF0);
        assert_eq!(c.load_word(0x108, &mut m).unwrap(), 0x0F);
        assert!(c.stats().corrected_via_locator >= 2);

        // Without byte shifting (basic): DUE.
        let (mut c, mut m) = l1(CppcConfig::basic());
        c.store_word(0x100, 0xF0, &mut m).unwrap();
        c.store_word(0x108, 0x0F, &mut m).unwrap();
        c.flip_data_bit_at(0x100, 0);
        c.flip_data_bit_at(0x108, 0);
        assert!(c.load_word(0x100, &mut m).is_err());
    }

    #[test]
    fn temporal_faults_in_disjoint_groups_corrected() {
        // Two dirty words far apart with faults in different parity
        // groups: §4.4 step 4 (no locator needed).
        let (mut c, mut m) = l1(CppcConfig::paper());
        c.store_word(0x100, 0x1234_5678_9ABC_DEF0, &mut m).unwrap();
        c.store_word(0x900, 0x0FED_CBA9_8765_4321, &mut m).unwrap();
        c.flip_data_bit_at(0x100, 0); // group 0
        c.flip_data_bit_at(0x900, 3); // group 3
        assert_eq!(c.load_word(0x100, &mut m).unwrap(), 0x1234_5678_9ABC_DEF0);
        assert_eq!(c.load_word(0x900, &mut m).unwrap(), 0x0FED_CBA9_8765_4321);
        assert_eq!(
            c.stats().corrected_via_locator,
            0,
            "step-4 path, no locator"
        );
    }

    /// Fills way 0 of the first `rows` physical rows with dirty data so
    /// spatial faults land on dirty words.
    fn dirty_fill_rows(c: &mut CppcCache, m: &mut MainMemory, rows: usize, seed: u64) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut values = Vec::new();
        for row in 0..rows {
            let (set, way, word) = c.layout().location_of(row);
            assert_eq!(way, 0, "row {row} must be way 0");
            let addr = c.geometry().address_of(0, set) + (word * 8) as u64;
            let v: u64 = rng.random();
            c.store_word(addr, v, m).unwrap();
            values.push(v);
        }
        values
    }

    fn addr_of_row(c: &CppcCache, row: usize) -> u64 {
        let (set, _, word) = c.layout().location_of(row);
        c.geometry().address_of(0, set) + (word * 8) as u64
    }

    #[test]
    fn spatial_squares_corrected_by_paper_config() {
        // Randomised spatial MBEs within 8x8 squares over dirty data:
        // correct or (rarely) DUE, never silent corruption.
        let mut corrected = 0;
        let mut dues = 0;
        for trial in 0..200u64 {
            let (mut c, mut m) = l1(CppcConfig::paper());
            let values = dirty_fill_rows(&mut c, &mut m, 32, trial);
            let mut rng = StdRng::seed_from_u64(trial ^ 0xFA17);
            let rows = rng.random_range(1..=8usize);
            let cols = rng.random_range(1..=8u32);
            let row0 = rng.random_range(0..=(32 - rows));
            let col0 = rng.random_range(0..=(64 - cols));
            let mut flips = Vec::new();
            for dr in 0..rows {
                for dc in 0..cols {
                    if rng.random_bool(0.6) {
                        flips.push(BitFlip {
                            row: row0 + dr,
                            col: col0 + dc,
                        });
                    }
                }
            }
            if flips.is_empty() {
                continue;
            }
            c.inject(&FaultPattern::new(flips));
            match c.recover_all(&mut m) {
                Ok(_) => {
                    // No silent corruption: every word must match.
                    for (row, &v) in values.iter().enumerate() {
                        assert_eq!(
                            c.peek_word(addr_of_row(&c, row)),
                            Some(v),
                            "trial {trial} row {row}: SDC"
                        );
                    }
                    assert!(c.verify_invariant(), "trial {trial}");
                    corrected += 1;
                }
                Err(_) => dues += 1,
            }
        }
        // Sparse in-square faults can be undetectable-but-benign or hit
        // ambiguities; the overwhelming majority must be corrected.
        assert!(corrected > dues * 10, "corrected={corrected} dues={dues}");
    }

    #[test]
    fn solid_squares_always_corrected_up_to_7_rows() {
        // Solid RxC squares with R <= 7, C <= 8: every parity group of
        // every touched word fires or the square is detectable; the
        // locator must correct all of them exactly.
        for rows in 1..=7usize {
            for cols in [1u32, 3, 5, 8] {
                let (mut c, mut m) = l1(CppcConfig::paper());
                let values = dirty_fill_rows(&mut c, &mut m, 16, 99);
                let mut flips = Vec::new();
                for dr in 0..rows {
                    for dc in 0..cols {
                        flips.push(BitFlip {
                            row: 2 + dr,
                            col: 20 + dc,
                        });
                    }
                }
                c.inject(&FaultPattern::new(flips));
                let report = c
                    .recover_all(&mut m)
                    .unwrap_or_else(|e| panic!("{rows}x{cols} square must be correctable: {e}"));
                assert!(report.corrected_dirty >= rows);
                for (row, &v) in values.iter().enumerate() {
                    assert_eq!(c.peek_word(addr_of_row(&c, row)), Some(v), "{rows}x{cols}");
                }
            }
        }
    }

    #[test]
    fn full_8x8_due_with_one_pair_corrected_with_two() {
        // §4.6: the solid 8x8 square is irreducible with one pair…
        let (mut c, mut m) = l1(CppcConfig::paper());
        let _ = dirty_fill_rows(&mut c, &mut m, 16, 5);
        let mut flips = Vec::new();
        for dr in 0..8usize {
            for dc in 0..8u32 {
                flips.push(BitFlip {
                    row: dr,
                    col: 16 + dc,
                });
            }
        }
        c.inject(&FaultPattern::new(flips.clone()));
        assert!(c.recover_all(&mut m).is_err(), "one pair: DUE");

        // …but correctable with two pairs (split into two 4x8 halves).
        let (mut c, mut m) = l1(CppcConfig::two_pairs());
        let values = dirty_fill_rows(&mut c, &mut m, 16, 5);
        c.inject(&FaultPattern::new(flips));
        c.recover_all(&mut m).expect("two pairs correct the 8x8");
        for (row, &v) in values.iter().enumerate() {
            assert_eq!(c.peek_word(addr_of_row(&c, row)), Some(v));
        }
    }

    #[test]
    fn distance_four_same_byte_handled_safely() {
        // §4.6's second irreducible pattern: same byte faults in words
        // 4 rows apart (classes 0 and 4). One pair: must not silently
        // miscorrect. Two pairs: separate domains, always corrected.
        let make_flips = || {
            vec![
                BitFlip { row: 0, col: 1 },
                BitFlip { row: 0, col: 2 },
                BitFlip { row: 4, col: 1 },
            ]
        };
        let (mut c, mut m) = l1(CppcConfig::paper());
        let values = dirty_fill_rows(&mut c, &mut m, 16, 6);
        c.inject(&FaultPattern::new(make_flips()));
        // DUE is acceptable for the aliased pattern; success must be exact.
        if c.recover_all(&mut m).is_ok() {
            for (row, &v) in values.iter().enumerate() {
                assert_eq!(c.peek_word(addr_of_row(&c, row)), Some(v), "no SDC allowed");
            }
        }

        let (mut c, mut m) = l1(CppcConfig::two_pairs());
        let values = dirty_fill_rows(&mut c, &mut m, 16, 6);
        c.inject(&FaultPattern::new(make_flips()));
        c.recover_all(&mut m).expect("two pairs split the domains");
        for (row, &v) in values.iter().enumerate() {
            assert_eq!(c.peek_word(addr_of_row(&c, row)), Some(v));
        }
    }

    #[test]
    fn eight_pairs_corrects_everything_without_shifting() {
        // §4.11: with 8 pairs, every class has a private register pair;
        // any spatial fault within 8 rows decomposes into single-word
        // recoveries.
        for trial in 0..50u64 {
            let (mut c, mut m) = l1(CppcConfig::eight_pairs());
            let values = dirty_fill_rows(&mut c, &mut m, 24, trial);
            let mut rng = StdRng::seed_from_u64(trial);
            let rows = rng.random_range(1..=8usize);
            let cols = rng.random_range(1..=8u32);
            let row0 = rng.random_range(0..=(24 - rows));
            let col0 = rng.random_range(0..=(64 - cols));
            let mut flips = Vec::new();
            for dr in 0..rows {
                for dc in 0..cols {
                    flips.push(BitFlip {
                        row: row0 + dr,
                        col: col0 + dc,
                    });
                }
            }
            c.inject(&FaultPattern::new(flips));
            c.recover_all(&mut m)
                .unwrap_or_else(|e| panic!("trial {trial}: {e}"));
            for (row, &v) in values.iter().enumerate() {
                assert_eq!(c.peek_word(addr_of_row(&c, row)), Some(v), "trial {trial}");
            }
        }
    }

    #[test]
    fn register_fault_repair() {
        // §4.9: a corrupted register is rebuilt from the dirty words.
        let (mut c, mut m) = l1(CppcConfig::paper());
        c.store_word(0x100, 11, &mut m).unwrap();
        c.store_word(0x300, 22, &mut m).unwrap();
        c.registers_mut().flip_r1_bit(0, 0, 17);
        assert!(!c.verify_invariant());
        c.repair_registers();
        assert!(c.verify_invariant());
        // and recovery works after the repair:
        c.flip_data_bit_at(0x100, 2);
        assert_eq!(c.load_word(0x100, &mut m).unwrap(), 11);
    }

    #[test]
    fn register_fault_detected_by_parity_and_self_repaired() {
        // §4.9: register parity detects the flip; recover_all rebuilds
        // the registers from the (sound) dirty words.
        let (mut c, mut m) = l1(CppcConfig::paper());
        c.store_word(0x100, 0xAA, &mut m).unwrap();
        c.registers_mut().flip_r2_bit(0, 0, 30);
        assert!(!c.registers_mut().check_parity());
        c.recover_all(&mut m).unwrap();
        assert!(c.registers_mut().check_parity());
        assert!(c.verify_invariant());
        // The repaired registers still correct data faults.
        c.flip_data_bit_at(0x100, 7);
        assert_eq!(c.load_word(0x100, &mut m).unwrap(), 0xAA);
    }

    #[test]
    fn register_fault_plus_dirty_fault_is_due() {
        let (mut c, mut m) = l1(CppcConfig::paper());
        c.store_word(0x100, 0xAA, &mut m).unwrap();
        c.registers_mut().flip_r1_bit(0, 0, 3);
        c.flip_data_bit_at(0x100, 12);
        let err = c.recover_all(&mut m).unwrap_err();
        assert_eq!(err.reason, DueReason::RegisterFault);
    }

    #[test]
    fn l2_mode_block_writes() {
        let l2geo = CacheGeometry::new(4096, 4, 32).unwrap();
        let mut c = CppcCache::new_l2(l2geo, CppcConfig::paper(), ReplacementPolicy::Lru).unwrap();
        let mut m = MainMemory::new();
        c.write_block(0x100, &[1, 2, 3, 4], 0b1111, &mut m).unwrap();
        assert!(c.verify_invariant());
        assert_eq!(c.read_block(0x100, &mut m).unwrap(), vec![1, 2, 3, 4]);
        assert_eq!(c.stats().rbw_block_reads, 0);
        // Overwrite (dirty): one block RBW.
        c.write_block(0x100, &[5, 6, 7, 8], 0b0011, &mut m).unwrap();
        assert_eq!(c.stats().rbw_block_reads, 1);
        assert!(c.verify_invariant());
        // Fault in a dirty word of the block:
        c.flip_data_bit_at(0x108, 33);
        assert_eq!(c.read_block(0x100, &mut m).unwrap(), vec![5, 6, 3, 4]);
    }

    #[test]
    fn l2_mode_partial_masks_keep_invariant() {
        let l2geo = CacheGeometry::new(4096, 4, 32).unwrap();
        let mut c = CppcCache::new_l2(l2geo, CppcConfig::paper(), ReplacementPolicy::Lru).unwrap();
        let mut m = MainMemory::new();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..2000 {
            let addr = (rng.random_range(0..64u64)) * 32;
            let mask = rng.random_range(1..16u64);
            let data: Vec<u64> = (0..4).map(|_| rng.random()).collect();
            c.write_block(addr, &data, mask, &mut m).unwrap();
        }
        assert!(c.verify_invariant());
        c.flush(&mut m).unwrap();
        assert!(c.verify_invariant());
        assert_eq!(c.dirty_word_count(), 0);
    }

    #[test]
    fn recovery_during_eviction_pressure() {
        // A fault sits on a dirty word; instead of loading it, we force
        // its eviction — the pre-eviction parity check must trigger
        // recovery so R2 absorbs the *correct* value.
        let (mut c, mut m) = l1(CppcConfig::paper());
        c.store_word(0x40, 0x5555, &mut m).unwrap();
        c.flip_data_bit_at(0x40, 9);
        c.load_word(0x40 + 512, &mut m).unwrap();
        c.load_word(0x40 + 1024, &mut m).unwrap(); // evicts 0x40
        assert_eq!(m.peek_word(0x40), 0x5555, "corrected before write-back");
        assert!(c.verify_invariant());
    }

    #[test]
    fn store_over_corrupted_dirty_word_recovers_first() {
        let (mut c, mut m) = l1(CppcConfig::paper());
        c.store_word(0x40, 0xAAAA, &mut m).unwrap();
        c.store_word(0x48, 0xBBBB, &mut m).unwrap();
        c.flip_data_bit_at(0x40, 4);
        // Overwrite the corrupted word: RBW parity check fires first.
        c.store_word(0x40, 0xCCCC, &mut m).unwrap();
        assert!(c.verify_invariant(), "R2 must not absorb corrupted data");
        assert_eq!(c.load_word(0x48, &mut m).unwrap(), 0xBBBB);
        // Later recovery of the sibling still works:
        c.flip_data_bit_at(0x48, 8);
        assert_eq!(c.load_word(0x48, &mut m).unwrap(), 0xBBBB);
    }

    #[test]
    fn invalidation_maintains_invariant() {
        // §7: write-invalidate protocols remove dirty blocks; R2 must
        // absorb them exactly as an eviction would.
        let (mut c, mut m) = l1(CppcConfig::paper());
        c.store_word(0x100, 0xAA, &mut m).unwrap();
        c.store_word(0x108, 0xBB, &mut m).unwrap();
        c.store_word(0x300, 0xCC, &mut m).unwrap();
        c.invalidate_block(0x100, &mut m).unwrap();
        assert!(c.verify_invariant());
        assert_eq!(m.peek_word(0x100), 0xAA, "dirty data written back");
        assert_eq!(m.peek_word(0x108), 0xBB);
        assert!(c.peek_word(0x100).is_none(), "block gone");
        // The surviving dirty word is still correctable.
        c.flip_data_bit_at(0x300, 6);
        assert_eq!(c.load_word(0x300, &mut m).unwrap(), 0xCC);
    }

    #[test]
    fn invalidation_of_corrupted_block_recovers_first() {
        let (mut c, mut m) = l1(CppcConfig::paper());
        c.store_word(0x100, 0x1234, &mut m).unwrap();
        c.flip_data_bit_at(0x100, 3);
        c.invalidate_block(0x100, &mut m).unwrap();
        assert_eq!(m.peek_word(0x100), 0x1234, "corrected before write-back");
        assert!(c.verify_invariant());
    }

    #[test]
    fn invalidating_absent_block_is_noop() {
        let (mut c, mut m) = l1(CppcConfig::paper());
        c.invalidate_block(0x9990, &mut m).unwrap();
        assert!(c.verify_invariant());
    }

    #[test]
    fn due_counted_in_stats() {
        let (mut c, mut m) = l1(CppcConfig::basic());
        c.store_word(0x100, 1, &mut m).unwrap();
        c.store_word(0x108, 2, &mut m).unwrap();
        c.flip_data_bit_at(0x100, 0);
        c.flip_data_bit_at(0x108, 0);
        assert!(c.load_word(0x100, &mut m).is_err());
        assert_eq!(c.stats().dues, 1);
    }
}
