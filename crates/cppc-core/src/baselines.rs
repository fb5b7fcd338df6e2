//! The three baseline protected caches of the paper's evaluation (§6):
//!
//! * [`OneDimParityCache`] — 8 interleaved parity bits per word,
//!   detection only: a fault in a *clean* word is recovered by re-fetch,
//!   a fault in a *dirty* word halts the machine (the paper's
//!   motivation: "even a single-bit error in a write-back
//!   parity-protected cache may cause the processor to fail").
//! * [`SecdedCache`] — a (72,64) SECDED code per word, optionally with
//!   8-way physical bit interleaving so spatial MBEs decompose into
//!   single-bit errors per word.
//! * [`TwoDimParityCache`] — 8-way horizontal interleaved parity per
//!   word plus vertical parity rows (one in the paper's evaluated
//!   configuration); every store and every fill performs a
//!   read-before-write to keep the vertical parity current.
//!
//! All three hold real data through the same `cppc-cache-sim` substrate
//! used by the CPPC itself, so fault-injection campaigns compare the
//! schemes on identical ground.

use cppc_cache_sim::cache::{Backing, Cache};
use cppc_cache_sim::geometry::CacheGeometry;
use cppc_cache_sim::replacement::ReplacementPolicy;
use cppc_cache_sim::stats::CacheStats;
use cppc_ecc::interleaved::InterleavedParity;
use cppc_ecc::secded::{DecodeOutcome, Secded64};
use cppc_fault::layout::PhysicalLayout;
use cppc_fault::model::{BitFlip, FaultPattern};

use std::fmt;

/// A detected fault a baseline scheme cannot repair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnrecoverableFault {
    /// One-dimensional parity detected a fault in dirty data.
    DirtyParityFault,
    /// SECDED flagged a double-bit error.
    DoubleBitError,
    /// Two-dimensional parity found more than one faulty row in the
    /// same vertical parity group.
    MultipleRowsInGroup,
}

impl fmt::Display for UnrecoverableFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnrecoverableFault::DirtyParityFault => {
                write!(f, "parity fault in dirty data (no correction available)")
            }
            UnrecoverableFault::DoubleBitError => write!(f, "SECDED double-bit error"),
            UnrecoverableFault::MultipleRowsInGroup => {
                write!(f, "multiple faulty rows share one vertical parity row")
            }
        }
    }
}

impl std::error::Error for UnrecoverableFault {}

// ======================================================================
// One-dimensional parity
// ======================================================================

/// A write-back cache protected by `k`-way interleaved parity per word —
/// detection only.
#[derive(Debug, Clone)]
pub struct OneDimParityCache {
    inner: Cache,
    parity: Vec<u64>,
    code: InterleavedParity,
    layout: PhysicalLayout,
    corrected_clean: u64,
    dues: u64,
}

impl OneDimParityCache {
    /// Creates the cache with `parity_ways`-way interleaved parity
    /// (8 in the paper's configuration).
    ///
    /// # Panics
    ///
    /// Panics if `parity_ways` does not divide 64.
    #[must_use]
    pub fn new(geo: CacheGeometry, parity_ways: u32, policy: ReplacementPolicy) -> Self {
        let layout =
            PhysicalLayout::new(geo.num_sets(), geo.associativity(), geo.words_per_block());
        OneDimParityCache {
            inner: Cache::new(geo, policy),
            parity: vec![0; layout.num_rows()],
            code: InterleavedParity::new(parity_ways),
            layout,
            corrected_clean: 0,
            dues: 0,
        }
    }

    /// Generic cache statistics.
    #[must_use]
    pub fn cache_stats(&self) -> &CacheStats {
        self.inner.stats()
    }

    /// Clean words repaired by re-fetch.
    #[must_use]
    pub fn corrected_clean(&self) -> u64 {
        self.corrected_clean
    }

    /// Unrecoverable (dirty-data) faults seen.
    #[must_use]
    pub fn dues(&self) -> u64 {
        self.dues
    }

    /// The physical layout (for fault targeting).
    #[must_use]
    pub fn layout(&self) -> &PhysicalLayout {
        &self.layout
    }

    fn refresh_parity(&mut self, set: usize, way: usize, w: usize) {
        let row = self.layout.row_of(set, way, w);
        self.parity[row] = self.code.encode(self.inner.block(set, way).word(w));
    }

    fn ensure_resident<B: Backing>(
        &mut self,
        addr: u64,
        is_store: bool,
        backing: &mut B,
    ) -> (usize, usize) {
        if let Some((set, way)) = self.inner.probe(addr) {
            self.inner.record_access(is_store, true);
            self.inner.touch(set, way);
            return (set, way);
        }
        self.inner.record_access(is_store, false);
        let set = self.inner.geometry().set_index(addr);
        let way = self.inner.choose_way_for_fill(set);
        let _ = self.inner.fill_into(addr, way, backing);
        for w in 0..self.inner.geometry().words_per_block() {
            self.refresh_parity(set, way, w);
        }
        (set, way)
    }

    /// Loads a word; faults in clean data re-fetch, faults in dirty data
    /// are fatal.
    ///
    /// # Errors
    ///
    /// Returns [`UnrecoverableFault::DirtyParityFault`] on a dirty-data
    /// fault.
    pub fn load_word<B: Backing>(
        &mut self,
        addr: u64,
        backing: &mut B,
    ) -> Result<u64, UnrecoverableFault> {
        let (set, way) = self.ensure_resident(addr, false, backing);
        let w = self.inner.geometry().word_index(addr);
        let row = self.layout.row_of(set, way, w);
        let value = self.inner.block(set, way).word(w);
        if self.code.syndrome(value, self.parity[row]) != 0 {
            if self.inner.block(set, way).is_word_dirty(w) {
                self.dues += 1;
                return Err(UnrecoverableFault::DirtyParityFault);
            }
            let base = self.inner.block_address(set, way);
            let data = backing.fetch_block(base, self.inner.geometry().words_per_block());
            self.inner.block_mut(set, way).patch_word(w, data[w]);
            self.refresh_parity(set, way, w);
            self.corrected_clean += 1;
            return Ok(data[w]);
        }
        Ok(value)
    }

    /// Stores a word (no read-before-write needed — parity is recomputed
    /// from the new data alone; that is the scheme's energy advantage).
    pub fn store_word<B: Backing>(&mut self, addr: u64, value: u64, backing: &mut B) {
        let (set, way) = self.ensure_resident(addr, true, backing);
        let w = self.inner.geometry().word_index(addr);
        self.inner.store_word_in_place(set, way, w, value);
        self.refresh_parity(set, way, w);
    }

    /// Stores one byte: parity is recomputed from the merged word (the
    /// merge is free in hardware with per-byte write enables plus the
    /// old byte's parity group — no extra array read).
    pub fn store_byte<B: Backing>(&mut self, addr: u64, value: u8, backing: &mut B) {
        let (set, way) = self.ensure_resident(addr, true, backing);
        let w = self.inner.geometry().word_index(addr);
        let byte = self.inner.geometry().byte_in_word(addr);
        self.inner.store_byte_in_place(set, way, w, byte, value);
        self.refresh_parity(set, way, w);
    }

    /// Applies a fault pattern to the data array; returns bits flipped.
    pub fn inject(&mut self, pattern: &FaultPattern) -> usize {
        let mut applied = 0;
        for flip in pattern.flips() {
            let (set, way, word) = self.layout.location_of(flip.row);
            if self.inner.block(set, way).is_valid() {
                self.inner.block_mut(set, way).flip_bit(word, flip.col);
                applied += 1;
            }
        }
        applied
    }

    /// Reads the resident word without side effects.
    #[must_use]
    pub fn peek_word(&self, addr: u64) -> Option<u64> {
        self.inner.peek_word(addr)
    }

    /// Writes every dirty block back to `backing` (the data is written
    /// back as stored, so the parity over it stays valid).
    pub fn flush<B: Backing>(&mut self, backing: &mut B) {
        self.inner.flush(backing);
    }
}

// ======================================================================
// SECDED
// ======================================================================

/// A write-back cache protected by a (72,64) SECDED code per word, with
/// optional 8-way physical bit interleaving (the paper's L1 SECDED
/// baseline combines both).
#[derive(Debug, Clone)]
pub struct SecdedCache {
    inner: Cache,
    check: Vec<u16>,
    layout: PhysicalLayout,
    interleaved: bool,
    corrected: u64,
    dues: u64,
    rmw_reads: u64,
}

impl SecdedCache {
    /// Creates the cache. `interleaved` enables 8-way physical bit
    /// interleaving (spatial-MBE tolerance at 8x bitline energy).
    #[must_use]
    pub fn new(geo: CacheGeometry, interleaved: bool, policy: ReplacementPolicy) -> Self {
        let layout =
            PhysicalLayout::new(geo.num_sets(), geo.associativity(), geo.words_per_block());
        SecdedCache {
            inner: Cache::new(geo, policy),
            check: vec![Secded64::encode(0).check_bits(); layout.num_rows()],
            layout,
            interleaved,
            corrected: 0,
            dues: 0,
            rmw_reads: 0,
        }
    }

    /// Read-modify-writes forced by partial (sub-word) stores: the
    /// word's code must be recomputed from the whole word, so the old
    /// word is read and decoded first (paper §1's argument against
    /// large ECC domains, at word scale).
    #[must_use]
    pub fn rmw_reads(&self) -> u64 {
        self.rmw_reads
    }

    /// Generic cache statistics.
    #[must_use]
    pub fn cache_stats(&self) -> &CacheStats {
        self.inner.stats()
    }

    /// Single-bit corrections performed.
    #[must_use]
    pub fn corrected(&self) -> u64 {
        self.corrected
    }

    /// Double-bit (unrecoverable) errors seen.
    #[must_use]
    pub fn dues(&self) -> u64 {
        self.dues
    }

    /// The physical layout (for fault targeting).
    #[must_use]
    pub fn layout(&self) -> &PhysicalLayout {
        &self.layout
    }

    fn refresh_check(&mut self, set: usize, way: usize, w: usize) {
        let row = self.layout.row_of(set, way, w);
        self.check[row] = Secded64::encode(self.inner.block(set, way).word(w)).check_bits();
    }

    fn ensure_resident<B: Backing>(
        &mut self,
        addr: u64,
        is_store: bool,
        backing: &mut B,
    ) -> (usize, usize) {
        if let Some((set, way)) = self.inner.probe(addr) {
            self.inner.record_access(is_store, true);
            self.inner.touch(set, way);
            return (set, way);
        }
        self.inner.record_access(is_store, false);
        let set = self.inner.geometry().set_index(addr);
        let way = self.inner.choose_way_for_fill(set);
        let _ = self.inner.fill_into(addr, way, backing);
        for w in 0..self.inner.geometry().words_per_block() {
            self.refresh_check(set, way, w);
        }
        (set, way)
    }

    /// Loads a word, decoding the SECDED codeword: single-bit errors are
    /// corrected in place, double-bit errors are fatal.
    ///
    /// # Errors
    ///
    /// Returns [`UnrecoverableFault::DoubleBitError`] when the decoder
    /// flags an uncorrectable error.
    pub fn load_word<B: Backing>(
        &mut self,
        addr: u64,
        backing: &mut B,
    ) -> Result<u64, UnrecoverableFault> {
        let (set, way) = self.ensure_resident(addr, false, backing);
        let w = self.inner.geometry().word_index(addr);
        let row = self.layout.row_of(set, way, w);
        let stored = self.inner.block(set, way).word(w);
        match Secded64::from_parts(stored, self.check[row]).decode() {
            DecodeOutcome::Clean(v) => Ok(v),
            DecodeOutcome::Corrected { data, .. } => {
                self.inner.block_mut(set, way).patch_word(w, data);
                self.refresh_check(set, way, w);
                self.corrected += 1;
                Ok(data)
            }
            DecodeOutcome::DetectedUncorrectable => {
                self.dues += 1;
                Err(UnrecoverableFault::DoubleBitError)
            }
        }
    }

    /// Stores a word, re-encoding its SECDED codeword.
    pub fn store_word<B: Backing>(&mut self, addr: u64, value: u64, backing: &mut B) {
        let (set, way) = self.ensure_resident(addr, true, backing);
        let w = self.inner.geometry().word_index(addr);
        self.inner.store_word_in_place(set, way, w, value);
        self.refresh_check(set, way, w);
    }

    /// Stores one byte. Unlike parity, SECDED needs the rest of the
    /// word to recompute the code — a read-modify-write, decoded first
    /// so a latent fault is not silently absorbed into a fresh code.
    ///
    /// # Errors
    ///
    /// Returns [`UnrecoverableFault::DoubleBitError`] if the RMW decode
    /// flags an uncorrectable error.
    pub fn store_byte<B: Backing>(
        &mut self,
        addr: u64,
        value: u8,
        backing: &mut B,
    ) -> Result<(), UnrecoverableFault> {
        let (set, way) = self.ensure_resident(addr, true, backing);
        let w = self.inner.geometry().word_index(addr);
        let byte = self.inner.geometry().byte_in_word(addr);
        self.rmw_reads += 1;
        let row = self.layout.row_of(set, way, w);
        let stored = self.inner.block(set, way).word(w);
        match Secded64::from_parts(stored, self.check[row]).decode() {
            DecodeOutcome::Clean(_) => {}
            DecodeOutcome::Corrected { data, .. } => {
                self.inner.block_mut(set, way).patch_word(w, data);
                self.corrected += 1;
            }
            DecodeOutcome::DetectedUncorrectable => {
                self.dues += 1;
                return Err(UnrecoverableFault::DoubleBitError);
            }
        }
        self.inner.store_byte_in_place(set, way, w, byte, value);
        self.refresh_check(set, way, w);
        Ok(())
    }

    /// Applies a fault pattern in *logical* coordinates (no
    /// interleaving translation); returns bits flipped.
    pub fn inject(&mut self, pattern: &FaultPattern) -> usize {
        let mut applied = 0;
        for flip in pattern.flips() {
            let (set, way, word) = self.layout.location_of(flip.row);
            if self.inner.block(set, way).is_valid() {
                self.inner.block_mut(set, way).flip_bit(word, flip.col);
                applied += 1;
            }
        }
        applied
    }

    /// Applies a *physical* spatial fault. With interleaving enabled, a
    /// physical row holds bits of 8 consecutive logical rows
    /// bit-interleaved, so an NxM strike at physical `(row0, col0)`
    /// decomposes into ≤1 flip per word for M ≤ 8 — the mechanism that
    /// makes interleaved SECDED spatial-MBE tolerant. Without
    /// interleaving the pattern applies directly.
    ///
    /// Returns the bit flips actually applied (in logical coordinates).
    ///
    /// # Panics
    ///
    /// Panics if the footprint leaves the array.
    pub fn inject_spatial(
        &mut self,
        row0: usize,
        col0: u32,
        rows: usize,
        cols: u32,
    ) -> Vec<BitFlip> {
        let mut flips = Vec::new();
        if self.interleaved {
            // Physical row r holds logical rows 8r..8r+7 interleaved:
            // physical column c maps to logical row 8r + (c % 8),
            // bit c / 8. Strike columns live in 0..512.
            assert!(col0 + cols <= 512, "physical strike leaves the row");
            for dr in 0..rows {
                for dc in 0..cols {
                    let c = col0 + dc;
                    let logical_row = 8 * (row0 + dr) + (c % 8) as usize;
                    if logical_row < self.layout.num_rows() {
                        flips.push(BitFlip {
                            row: logical_row,
                            col: c / 8,
                        });
                    }
                }
            }
        } else {
            for dr in 0..rows {
                for dc in 0..cols {
                    flips.push(BitFlip {
                        row: row0 + dr,
                        col: col0 + dc,
                    });
                }
            }
        }
        let mut applied = Vec::new();
        for flip in flips {
            if flip.row >= self.layout.num_rows() {
                continue;
            }
            let (set, way, word) = self.layout.location_of(flip.row);
            if self.inner.block(set, way).is_valid() {
                self.inner.block_mut(set, way).flip_bit(word, flip.col);
                applied.push(flip);
            }
        }
        applied
    }

    /// Reads the resident word without side effects or decoding.
    #[must_use]
    pub fn peek_word(&self, addr: u64) -> Option<u64> {
        self.inner.peek_word(addr)
    }

    /// Writes every dirty block back to `backing` (data written back as
    /// stored; the per-word check bits stay consistent with it).
    pub fn flush<B: Backing>(&mut self, backing: &mut B) {
        self.inner.flush(backing);
    }
}

// ======================================================================
// Two-dimensional parity
// ======================================================================

/// A write-back cache protected by two-dimensional parity: 8-way
/// horizontal interleaved parity per word for detection, `vertical_rows`
/// vertical parity rows for correction (row `r` belongs to vertical
/// group `r mod vertical_rows`).
///
/// The paper's evaluated configuration uses a single vertical row
/// (matching CPPC's hardware budget), which sacrifices spatial-MBE
/// correction; eight rows restore it.
#[derive(Debug, Clone)]
pub struct TwoDimParityCache {
    inner: Cache,
    horizontal: Vec<u64>,
    vertical: Vec<u64>,
    code: InterleavedParity,
    layout: PhysicalLayout,
    read_before_writes: u64,
    corrected: u64,
    dues: u64,
}

impl TwoDimParityCache {
    /// Creates the cache with `vertical_rows` vertical parity rows.
    ///
    /// # Panics
    ///
    /// Panics if `vertical_rows` is zero.
    #[must_use]
    pub fn new(geo: CacheGeometry, vertical_rows: usize, policy: ReplacementPolicy) -> Self {
        assert!(vertical_rows > 0, "need at least one vertical parity row");
        let layout =
            PhysicalLayout::new(geo.num_sets(), geo.associativity(), geo.words_per_block());
        TwoDimParityCache {
            inner: Cache::new(geo, policy),
            horizontal: vec![0; layout.num_rows()],
            vertical: vec![0; vertical_rows],
            code: InterleavedParity::new(8),
            layout,
            read_before_writes: 0,
            corrected: 0,
            dues: 0,
        }
    }

    /// Generic cache statistics.
    #[must_use]
    pub fn cache_stats(&self) -> &CacheStats {
        self.inner.stats()
    }

    /// Read-before-write operations performed (every store + every word
    /// of every fill — the scheme's energy Achilles heel, §2).
    #[must_use]
    pub fn read_before_writes(&self) -> u64 {
        self.read_before_writes
    }

    /// Faulty rows corrected via vertical parity.
    #[must_use]
    pub fn corrected(&self) -> u64 {
        self.corrected
    }

    /// Unrecoverable faults seen.
    #[must_use]
    pub fn dues(&self) -> u64 {
        self.dues
    }

    /// The physical layout (for fault targeting).
    #[must_use]
    pub fn layout(&self) -> &PhysicalLayout {
        &self.layout
    }

    fn vgroup(&self, row: usize) -> usize {
        row % self.vertical.len()
    }

    fn refresh_horizontal(&mut self, set: usize, way: usize, w: usize) {
        let row = self.layout.row_of(set, way, w);
        self.horizontal[row] = self.code.encode(self.inner.block(set, way).word(w));
    }

    fn ensure_resident<B: Backing>(
        &mut self,
        addr: u64,
        is_store: bool,
        backing: &mut B,
    ) -> (usize, usize) {
        if let Some((set, way)) = self.inner.probe(addr) {
            self.inner.record_access(is_store, true);
            self.inner.touch(set, way);
            return (set, way);
        }
        self.inner.record_access(is_store, false);
        let set = self.inner.geometry().set_index(addr);
        let way = self.inner.choose_way_for_fill(set);
        let wpb = self.inner.geometry().words_per_block();

        // Read-before-write on the whole incoming line (§2): the old
        // contents must leave the vertical parity before new data enters.
        if self.inner.block(set, way).is_valid() {
            for w in 0..wpb {
                let row = self.layout.row_of(set, way, w);
                let old = self.inner.block(set, way).word(w);
                let g = self.vgroup(row);
                self.vertical[g] ^= old;
            }
        }
        self.read_before_writes += wpb as u64;
        let _ = self.inner.fill_into(addr, way, backing);
        for w in 0..wpb {
            let row = self.layout.row_of(set, way, w);
            let new = self.inner.block(set, way).word(w);
            let g = self.vgroup(row);
            self.vertical[g] ^= new;
            self.refresh_horizontal(set, way, w);
        }
        (set, way)
    }

    /// Loads a word; a horizontal parity fault triggers vertical-parity
    /// row reconstruction.
    ///
    /// # Errors
    ///
    /// Returns [`UnrecoverableFault::MultipleRowsInGroup`] when two
    /// faulty rows share a vertical group.
    pub fn load_word<B: Backing>(
        &mut self,
        addr: u64,
        backing: &mut B,
    ) -> Result<u64, UnrecoverableFault> {
        let (set, way) = self.ensure_resident(addr, false, backing);
        let w = self.inner.geometry().word_index(addr);
        let row = self.layout.row_of(set, way, w);
        let value = self.inner.block(set, way).word(w);
        if self.code.syndrome(value, self.horizontal[row]) != 0 {
            self.recover_all()?;
        }
        Ok(self.inner.block(set, way).word(w))
    }

    /// Stores a word, performing the mandatory read-before-write to
    /// update the vertical parity.
    pub fn store_word<B: Backing>(&mut self, addr: u64, value: u64, backing: &mut B) {
        let (set, way) = self.ensure_resident(addr, true, backing);
        let w = self.inner.geometry().word_index(addr);
        let row = self.layout.row_of(set, way, w);
        let old = self.inner.block(set, way).word(w);
        let g = self.vgroup(row);
        self.vertical[g] ^= old ^ value;
        self.read_before_writes += 1;
        self.inner.store_word_in_place(set, way, w, value);
        self.refresh_horizontal(set, way, w);
    }

    /// Stores one byte: the read-before-write is unavoidable (the old
    /// word is needed for the vertical parity update).
    pub fn store_byte<B: Backing>(&mut self, addr: u64, value: u8, backing: &mut B) {
        let (set, way) = self.ensure_resident(addr, true, backing);
        let w = self.inner.geometry().word_index(addr);
        let byte = self.inner.geometry().byte_in_word(addr);
        let row = self.layout.row_of(set, way, w);
        let old = self.inner.block(set, way).word(w);
        self.read_before_writes += 1;
        self.inner.store_byte_in_place(set, way, w, byte, value);
        let new = self.inner.block(set, way).word(w);
        let g = self.vgroup(row);
        self.vertical[g] ^= old ^ new;
        self.refresh_horizontal(set, way, w);
    }

    /// Scans for horizontal parity violations and repairs each faulty
    /// row from its vertical parity group.
    ///
    /// # Errors
    ///
    /// Returns [`UnrecoverableFault::MultipleRowsInGroup`] if a group
    /// holds two or more faulty rows.
    pub fn recover_all(&mut self) -> Result<(), UnrecoverableFault> {
        let wpb = self.inner.geometry().words_per_block();
        let mut faulty: Vec<(usize, usize, usize, usize)> = Vec::new();
        for (set, way, block) in self.inner.iter_blocks() {
            for w in 0..wpb {
                let row = self.layout.row_of(set, way, w);
                if self.code.syndrome(block.word(w), self.horizontal[row]) != 0 {
                    faulty.push((set, way, w, row));
                }
            }
        }
        // Two faulty rows in one vertical group are unrecoverable.
        for (i, a) in faulty.iter().enumerate() {
            for b in &faulty[i + 1..] {
                if self.vgroup(a.3) == self.vgroup(b.3) {
                    self.dues += 1;
                    return Err(UnrecoverableFault::MultipleRowsInGroup);
                }
            }
        }
        for (set, way, w, row) in faulty {
            let g = self.vgroup(row);
            let mut acc = self.vertical[g];
            for (s2, w2, b2) in self.inner.iter_blocks() {
                for i2 in 0..wpb {
                    let r2 = self.layout.row_of(s2, w2, i2);
                    if self.vgroup(r2) == g && r2 != row {
                        acc ^= b2.word(i2);
                    }
                }
            }
            self.inner.block_mut(set, way).patch_word(w, acc);
            self.refresh_horizontal(set, way, w);
            self.corrected += 1;
        }
        Ok(())
    }

    /// Applies a fault pattern to the data array; returns bits flipped.
    pub fn inject(&mut self, pattern: &FaultPattern) -> usize {
        let mut applied = 0;
        for flip in pattern.flips() {
            let (set, way, word) = self.layout.location_of(flip.row);
            if self.inner.block(set, way).is_valid() {
                self.inner.block_mut(set, way).flip_bit(word, flip.col);
                applied += 1;
            }
        }
        applied
    }

    /// Reads the resident word without side effects.
    #[must_use]
    pub fn peek_word(&self, addr: u64) -> Option<u64> {
        self.inner.peek_word(addr)
    }

    /// Writes every dirty block back to `backing` (data written back as
    /// stored; horizontal and vertical parity stay consistent with it).
    pub fn flush<B: Backing>(&mut self, backing: &mut B) {
        self.inner.flush(backing);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cppc_cache_sim::memory::MainMemory;

    fn geo() -> CacheGeometry {
        CacheGeometry::new(1024, 2, 32).unwrap()
    }

    // ---------------- One-dimensional parity ----------------

    #[test]
    fn parity_clean_fault_refetched() {
        let mut mem = MainMemory::new();
        mem.write_word(0x40, 7);
        let mut c = OneDimParityCache::new(geo(), 8, ReplacementPolicy::Lru);
        assert_eq!(c.load_word(0x40, &mut mem).unwrap(), 7);
        // corrupt the clean word
        let (set, way) = (geo().set_index(0x40), 0);
        let row = c.layout().row_of(set, way, 0);
        c.inject(&FaultPattern::new(vec![BitFlip { row, col: 3 }]));
        assert_eq!(c.load_word(0x40, &mut mem).unwrap(), 7, "refetched");
        assert_eq!(c.corrected_clean(), 1);
    }

    #[test]
    fn parity_dirty_fault_is_fatal() {
        let mut mem = MainMemory::new();
        let mut c = OneDimParityCache::new(geo(), 8, ReplacementPolicy::Lru);
        c.store_word(0x40, 99, &mut mem);
        let (set, _) = (geo().set_index(0x40), 0);
        let row = c.layout().row_of(set, 0, 0);
        c.inject(&FaultPattern::new(vec![BitFlip { row, col: 0 }]));
        assert_eq!(
            c.load_word(0x40, &mut mem),
            Err(UnrecoverableFault::DirtyParityFault)
        );
        assert_eq!(c.dues(), 1);
    }

    #[test]
    fn parity_store_needs_no_read() {
        let mut mem = MainMemory::new();
        let mut c = OneDimParityCache::new(geo(), 8, ReplacementPolicy::Lru);
        c.store_word(0x40, 1, &mut mem);
        c.store_word(0x40, 2, &mut mem);
        assert_eq!(c.load_word(0x40, &mut mem).unwrap(), 2);
    }

    // ---------------- SECDED ----------------

    #[test]
    fn secded_corrects_single_bit_in_dirty() {
        let mut mem = MainMemory::new();
        let mut c = SecdedCache::new(geo(), false, ReplacementPolicy::Lru);
        c.store_word(0x40, 0xDEAD, &mut mem);
        let row = c.layout().row_of(geo().set_index(0x40), 0, 0);
        c.inject(&FaultPattern::new(vec![BitFlip { row, col: 15 }]));
        assert_eq!(c.load_word(0x40, &mut mem).unwrap(), 0xDEAD);
        assert_eq!(c.corrected(), 1);
    }

    #[test]
    fn secded_double_bit_is_fatal() {
        let mut mem = MainMemory::new();
        let mut c = SecdedCache::new(geo(), false, ReplacementPolicy::Lru);
        c.store_word(0x40, 5, &mut mem);
        let row = c.layout().row_of(geo().set_index(0x40), 0, 0);
        c.inject(&FaultPattern::new(vec![
            BitFlip { row, col: 1 },
            BitFlip { row, col: 2 },
        ]));
        assert_eq!(
            c.load_word(0x40, &mut mem),
            Err(UnrecoverableFault::DoubleBitError)
        );
    }

    #[test]
    fn secded_interleaved_survives_spatial_burst() {
        let mut mem = MainMemory::new();
        let mut c = SecdedCache::new(geo(), true, ReplacementPolicy::Lru);
        // Fill two blocks (8 logical rows = 1 physical interleaved row).
        for i in 0..8u64 {
            c.store_word(0x40 + i * 8, 0x1111 * (i + 1), &mut mem);
        }
        // 0x40 maps to set 2, way 0, word 0 → logical rows 8..15, which
        // share physical interleaved row 1.
        let first_row = c.layout().row_of(geo().set_index(0x40), 0, 0);
        assert_eq!(first_row % 8, 0, "test assumes an aligned row band");
        // 1x8 physical burst: one bit in each of 8 logical rows.
        let flips = c.inject_spatial(first_row / 8, 100, 1, 8);
        assert!(!flips.is_empty());
        for i in 0..8u64 {
            assert_eq!(
                c.load_word(0x40 + i * 8, &mut mem).unwrap(),
                0x1111 * (i + 1),
                "word {i} corrected"
            );
        }
    }

    #[test]
    fn secded_non_interleaved_dies_on_horizontal_burst() {
        let mut mem = MainMemory::new();
        let mut c = SecdedCache::new(geo(), false, ReplacementPolicy::Lru);
        c.store_word(0x40, 5, &mut mem);
        let row = c.layout().row_of(geo().set_index(0x40), 0, 0);
        let flips = c.inject_spatial(row, 10, 1, 2);
        assert_eq!(flips.len(), 2);
        assert!(c.load_word(0x40, &mut mem).is_err());
    }

    #[test]
    fn interleaving_gives_each_word_at_most_one_flip_up_to_eight_columns() {
        // Physical column c of interleaved row r holds bit c / 8 of
        // logical row 8r + c % 8, so a strike up to eight columns wide
        // flips at most one bit per word; nine columns reach one word
        // twice.
        let mut mem = MainMemory::new();
        let mut c = SecdedCache::new(geo(), true, ReplacementPolicy::Lru);
        for addr in (0..1024u64).step_by(8) {
            c.store_word(addr, addr, &mut mem);
        }
        let rows = c.layout().num_rows();
        let most_flips_in_one_word = |flips: &[BitFlip]| {
            let mut per_row = vec![0u32; rows];
            for f in flips {
                per_row[f.row] += 1;
            }
            per_row.into_iter().max().unwrap_or(0)
        };
        for width in 1..=8u32 {
            for col0 in 0..=512 - width {
                let flips = c.inject_spatial(1, col0, 2, width);
                assert_eq!(flips.len(), 2 * width as usize, "width {width} col0 {col0}");
                assert_eq!(
                    most_flips_in_one_word(&flips),
                    1,
                    "width {width} col0 {col0}"
                );
            }
        }
        for col0 in 0..=512 - 9 {
            let flips = c.inject_spatial(1, col0, 2, 9);
            assert_eq!(most_flips_in_one_word(&flips), 2, "col0 {col0}");
        }
    }

    // ---------------- Two-dimensional parity ----------------

    #[test]
    fn twodim_corrects_dirty_fault() {
        let mut mem = MainMemory::new();
        let mut c = TwoDimParityCache::new(geo(), 1, ReplacementPolicy::Lru);
        c.store_word(0x40, 0xBEEF, &mut mem);
        c.store_word(0x80, 0xCAFE, &mut mem);
        let row = c.layout().row_of(geo().set_index(0x40), 0, 0);
        c.inject(&FaultPattern::new(vec![BitFlip { row, col: 7 }]));
        assert_eq!(c.load_word(0x40, &mut mem).unwrap(), 0xBEEF);
        assert_eq!(c.corrected(), 1);
    }

    #[test]
    fn twodim_single_vertical_row_dies_on_two_faulty_rows() {
        let mut mem = MainMemory::new();
        let mut c = TwoDimParityCache::new(geo(), 1, ReplacementPolicy::Lru);
        c.store_word(0x40, 1, &mut mem);
        c.store_word(0x48, 2, &mut mem);
        let set = geo().set_index(0x40);
        let r0 = c.layout().row_of(set, 0, 0);
        let r1 = c.layout().row_of(set, 0, 1);
        c.inject(&FaultPattern::new(vec![
            BitFlip { row: r0, col: 0 },
            BitFlip { row: r1, col: 0 },
        ]));
        assert_eq!(
            c.load_word(0x40, &mut mem),
            Err(UnrecoverableFault::MultipleRowsInGroup)
        );
    }

    #[test]
    fn twodim_eight_rows_survive_vertical_stripe() {
        let mut mem = MainMemory::new();
        let mut c = TwoDimParityCache::new(geo(), 8, ReplacementPolicy::Lru);
        for i in 0..8u64 {
            c.store_word(0x40 + i * 8, 100 + i, &mut mem);
        }
        let set = geo().set_index(0x40);
        // rows of words 0..3 of two consecutive blocks in the same way:
        let flips: Vec<BitFlip> = (0..8)
            .map(|i| BitFlip {
                row: c.layout().row_of(set + i / 4, 0, i % 4),
                col: 5,
            })
            .collect();
        c.inject(&FaultPattern::new(flips));
        for i in 0..8u64 {
            assert_eq!(c.load_word(0x40 + i * 8, &mut mem).unwrap(), 100 + i);
        }
    }

    #[test]
    fn twodim_counts_read_before_writes() {
        let mut mem = MainMemory::new();
        let mut c = TwoDimParityCache::new(geo(), 1, ReplacementPolicy::Lru);
        c.store_word(0x40, 1, &mut mem); // miss: 4-word fill RBW + 1 store RBW
        assert_eq!(c.read_before_writes(), 5);
        c.store_word(0x40, 2, &mut mem); // hit: 1 store RBW
        assert_eq!(c.read_before_writes(), 6);
    }

    #[test]
    fn twodim_vertical_survives_eviction_traffic() {
        let mut mem = MainMemory::new();
        let mut c = TwoDimParityCache::new(geo(), 1, ReplacementPolicy::Lru);
        // Cycle many blocks through one set to exercise fill/evict parity
        // maintenance, then verify correction still works.
        for i in 0..20u64 {
            c.store_word(0x40 + i * 1024, i, &mut mem);
        }
        c.store_word(0x40, 0xAA, &mut mem);
        let (set, way) = (geo().set_index(0x40), {
            // find the way holding 0x40
            let mut found = 0;
            for w in 0..2 {
                if c.inner.block(geo().set_index(0x40), w).is_valid()
                    && c.inner.peek_word(0x40).is_some()
                {
                    found = w;
                    break;
                }
            }
            found
        });
        let _ = way;
        let (s, w) = c.inner.probe(0x40).unwrap();
        let row = c.layout().row_of(s, w, 0);
        let _ = set;
        c.inject(&FaultPattern::new(vec![BitFlip { row, col: 1 }]));
        assert_eq!(c.load_word(0x40, &mut mem).unwrap(), 0xAA);
    }
}
