//! The R1/R2 XOR register file (paper §3, §4.9).
//!
//! R1 accumulates the XOR of every (rotated) word stored into the cache;
//! R2 accumulates the XOR of every (rotated) dirty word removed from the
//! cache — by overwrite or by write-back. The defining invariant,
//! maintained by construction and checked by
//! [`RegisterFile::checkpoint`]-based tests:
//!
//! > `R1 ^ R2` equals the XOR of the rotated values of all dirty words
//! > currently resident in the protection domain of the pair.
//!
//! A register *lane* is one 64-bit word. An L1 CPPC has one lane per
//! register; an L2 CPPC has one lane per word of an L1 block (§3.5: "R1
//! and R2 must have the size of an L1 cache block"). The file below
//! holds `pairs x lanes` of (R1, R2).

use cppc_ecc::parity::byte_parity64;

use crate::rotate::rotate_left_bytes;

/// A file of `pairs` (R1, R2) register pairs, each `lanes` words wide.
///
/// Per §4.9, the registers themselves carry byte parity, checked
/// whenever a register is read ([`RegisterFile::check_parity`]); a
/// detected register fault is repaired by re-deriving the registers
/// from the cache's dirty words (`reset_to`, driven by
/// `CppcCache::repair_registers`).
///
/// `clone_from` copies into the existing registers without allocating.
#[derive(Debug, PartialEq, Eq)]
pub struct RegisterFile {
    r1: Vec<u64>,
    r2: Vec<u64>,
    r1_parity: Vec<u8>,
    r2_parity: Vec<u8>,
    pairs: usize,
    lanes: usize,
}

cppc_cache_sim::clone_in_place! { RegisterFile { r1, r2, r1_parity, r2_parity, pairs, lanes } }

impl RegisterFile {
    /// Creates a zeroed register file.
    ///
    /// # Panics
    ///
    /// Panics if `pairs` or `lanes` is zero.
    #[must_use]
    pub fn new(pairs: usize, lanes: usize) -> Self {
        assert!(pairs > 0 && lanes > 0, "pairs and lanes must be non-zero");
        RegisterFile {
            r1: vec![0; pairs * lanes],
            r2: vec![0; pairs * lanes],
            r1_parity: vec![0; pairs * lanes],
            r2_parity: vec![0; pairs * lanes],
            pairs,
            lanes,
        }
    }

    /// Number of register pairs.
    #[must_use]
    pub fn pairs(&self) -> usize {
        self.pairs
    }

    /// Lanes (words) per register.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    fn idx(&self, pair: usize, lane: usize) -> usize {
        assert!(pair < self.pairs, "pair {pair} out of range");
        assert!(lane < self.lanes, "lane {lane} out of range");
        pair * self.lanes + lane
    }

    /// XORs `word`, rotated left by `rotation` bytes, into R1 of `pair`
    /// lane `lane` — the action on every store (paper Figure 2).
    pub fn absorb_store(&mut self, pair: usize, lane: usize, word: u64, rotation: u32) {
        crate::obs::R1_UPDATES.inc();
        let i = self.idx(pair, lane);
        self.r1[i] ^= rotate_left_bytes(word, rotation);
        self.r1_parity[i] = byte_parity64(self.r1[i]);
    }

    /// XORs `word`, rotated left by `rotation` bytes, into R2 of `pair`
    /// lane `lane` — the action when dirty data leaves the cache (by
    /// overwrite or write-back).
    pub fn absorb_removal(&mut self, pair: usize, lane: usize, word: u64, rotation: u32) {
        crate::obs::R2_UPDATES.inc();
        let i = self.idx(pair, lane);
        self.r2[i] ^= rotate_left_bytes(word, rotation);
        self.r2_parity[i] = byte_parity64(self.r2[i]);
    }

    /// `R1 ^ R2` for a pair/lane: the XOR of all (rotated) dirty words
    /// currently resident in that protection domain.
    #[must_use]
    pub fn dirty_xor(&self, pair: usize, lane: usize) -> u64 {
        let i = self.idx(pair, lane);
        self.r1[i] ^ self.r2[i]
    }

    /// Raw R1 value (for tests and fault injection on the registers
    /// themselves, §4.9).
    #[must_use]
    pub fn r1(&self, pair: usize, lane: usize) -> u64 {
        self.r1[self.idx(pair, lane)]
    }

    /// Raw R2 value.
    #[must_use]
    pub fn r2(&self, pair: usize, lane: usize) -> u64 {
        self.r2[self.idx(pair, lane)]
    }

    /// Checks the registers' own byte parity (§4.9: "protect registers
    /// with parity bits and check parities before each XOR operation").
    /// Returns `true` when every register matches its stored parity.
    #[must_use]
    pub fn check_parity(&self) -> bool {
        self.r1
            .iter()
            .zip(&self.r1_parity)
            .all(|(&r, &p)| byte_parity64(r) == p)
            && self
                .r2
                .iter()
                .zip(&self.r2_parity)
                .all(|(&r, &p)| byte_parity64(r) == p)
    }

    /// Flips one bit of R1 (register fault injection).
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 64` or indices are out of range.
    pub fn flip_r1_bit(&mut self, pair: usize, lane: usize, bit: u32) {
        assert!(bit < 64, "bit {bit} out of range");
        let i = self.idx(pair, lane);
        self.r1[i] ^= 1u64 << bit;
    }

    /// Flips one bit of R2 (register fault injection).
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 64` or indices are out of range.
    pub fn flip_r2_bit(&mut self, pair: usize, lane: usize, bit: u32) {
        assert!(bit < 64, "bit {bit} out of range");
        let i = self.idx(pair, lane);
        self.r2[i] ^= 1u64 << bit;
    }

    /// Rebuilds R1/R2 so that `R1 = dirty_xor_target` and `R2 = 0` for
    /// every lane — used after a register fault is repaired by re-XORing
    /// the cache's dirty words (§4.9). `targets` is indexed
    /// `[pair][lane]`.
    ///
    /// # Panics
    ///
    /// Panics if `targets` has wrong dimensions.
    pub fn reset_to(&mut self, targets: &[Vec<u64>]) {
        assert_eq!(targets.len(), self.pairs, "pair count");
        for (pair, lanes) in targets.iter().enumerate() {
            assert_eq!(lanes.len(), self.lanes, "lane count");
            for (lane, &v) in lanes.iter().enumerate() {
                let i = self.idx(pair, lane);
                self.r1[i] = v;
                self.r2[i] = 0;
                self.r1_parity[i] = byte_parity64(v);
                self.r2_parity[i] = 0;
            }
        }
    }

    /// Snapshot of all `dirty_xor` values, indexed `[pair][lane]` — the
    /// quantity the invariant tests compare against a scan of the cache.
    #[must_use]
    pub fn checkpoint(&self) -> Vec<Vec<u64>> {
        (0..self.pairs)
            .map(|p| (0..self.lanes).map(|l| self.dirty_xor(p, l)).collect())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_file_is_zero() {
        let f = RegisterFile::new(2, 4);
        for p in 0..2 {
            for l in 0..4 {
                assert_eq!(f.dirty_xor(p, l), 0);
            }
        }
    }

    #[test]
    fn store_then_removal_cancels() {
        let mut f = RegisterFile::new(1, 1);
        f.absorb_store(0, 0, 0xABCD, 3);
        assert_eq!(f.dirty_xor(0, 0), rotate_left_bytes(0xABCD, 3));
        f.absorb_removal(0, 0, 0xABCD, 3);
        assert_eq!(f.dirty_xor(0, 0), 0, "store+removal cancel in R1^R2");
    }

    #[test]
    fn overwrite_sequence_tracks_current_value() {
        // store v1; overwrite with v2 (v1 leaves): R1^R2 == rot(v2).
        let mut f = RegisterFile::new(1, 1);
        f.absorb_store(0, 0, 111, 2);
        f.absorb_store(0, 0, 222, 2);
        f.absorb_removal(0, 0, 111, 2);
        assert_eq!(f.dirty_xor(0, 0), rotate_left_bytes(222, 2));
    }

    #[test]
    fn pairs_and_lanes_are_independent() {
        let mut f = RegisterFile::new(2, 2);
        f.absorb_store(0, 0, 1, 0);
        f.absorb_store(1, 1, 2, 0);
        assert_eq!(f.dirty_xor(0, 0), 1);
        assert_eq!(f.dirty_xor(0, 1), 0);
        assert_eq!(f.dirty_xor(1, 0), 0);
        assert_eq!(f.dirty_xor(1, 1), 2);
    }

    #[test]
    fn register_fault_injection() {
        let mut f = RegisterFile::new(1, 1);
        f.absorb_store(0, 0, 0xF0, 0);
        f.flip_r1_bit(0, 0, 4);
        assert_eq!(f.r1(0, 0), 0xE0);
        f.flip_r2_bit(0, 0, 0);
        assert_eq!(f.r2(0, 0), 1);
    }

    #[test]
    fn reset_to_rebuilds() {
        let mut f = RegisterFile::new(2, 1);
        f.absorb_store(0, 0, 5, 0);
        f.flip_r1_bit(0, 0, 60); // corrupt
        f.reset_to(&[vec![5], vec![0]]);
        assert_eq!(f.dirty_xor(0, 0), 5);
        assert_eq!(f.dirty_xor(1, 0), 0);
        assert_eq!(f.r2(0, 0), 0);
    }

    #[test]
    fn parity_tracks_updates() {
        let mut f = RegisterFile::new(2, 2);
        assert!(f.check_parity());
        f.absorb_store(0, 1, 0xDEAD_BEEF, 3);
        f.absorb_removal(1, 0, 0x1234, 5);
        assert!(f.check_parity());
    }

    #[test]
    fn parity_detects_register_fault() {
        let mut f = RegisterFile::new(1, 1);
        f.absorb_store(0, 0, 0xFF, 0);
        f.flip_r1_bit(0, 0, 9);
        assert!(!f.check_parity(), "R1 flip detected");
        let mut f = RegisterFile::new(1, 1);
        f.absorb_removal(0, 0, 0xFF, 0);
        f.flip_r2_bit(0, 0, 60);
        assert!(!f.check_parity(), "R2 flip detected");
    }

    #[test]
    fn reset_restores_parity() {
        let mut f = RegisterFile::new(1, 1);
        f.absorb_store(0, 0, 5, 0);
        f.flip_r1_bit(0, 0, 1);
        f.reset_to(&[vec![5]]);
        assert!(f.check_parity());
    }

    #[test]
    fn checkpoint_shape() {
        let f = RegisterFile::new(4, 2);
        let cp = f.checkpoint();
        assert_eq!(cp.len(), 4);
        assert!(cp.iter().all(|lanes| lanes.len() == 2));
    }

    #[test]
    #[should_panic(expected = "pair 2 out of range")]
    fn oob_pair_panics() {
        let _ = RegisterFile::new(2, 1).r1(2, 0);
    }

    #[test]
    #[should_panic(expected = "pairs and lanes must be non-zero")]
    fn zero_pairs_panics() {
        let _ = RegisterFile::new(0, 1);
    }
}
