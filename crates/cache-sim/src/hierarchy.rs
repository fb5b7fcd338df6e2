//! The functional cache hierarchy: an L1 backed by an L2, optionally an
//! L3 below that, and main memory.
//!
//! Runs memory operations through the chain, collecting per-level
//! statistics plus the two measurements the paper's reliability model
//! needs (Table 2):
//!
//! * **dirty residency** — periodic samples of how many words are dirty
//!   (every level, the L3 included);
//! * **Tavg** — the mean interval between consecutive accesses to the
//!   same dirty word (L1) or dirty block (L2).
//!
//! One per-op drive body serves both depths. An L1 miss picks its
//! backing once, the L2 over memory or the L2 over the L3 over memory,
//! both built from the one [`CacheBacking`] adapter, so the two-level
//! chain compiles to the code it had before the L3 existed. The §7 L3
//! experiment (`section7`'s `l3_chain`) runs the three-level chain.
//!
//! # Tavg
//!
//! An interval runs from one access to a dirty word (L1) or dirty block
//! (L2) to the next access to it. That next access is a load, a store,
//! or the writeback that evicts it: the writeback reads the data, and
//! CPPC parity-checks an evicted dirty word before XORing it into R2, so
//! the last access → writeback stretch is exposed to faults like any
//! other. A store to a clean word or block starts a new interval, so no
//! interval spans an eviction, the stay in the level below and the
//! refill.
//!
//! Each level keeps one stamp per slot of its cache — per word for L1,
//! per block for L2 — holding the cycle of the last access. A stamp is
//! live exactly while its slot's dirty bit (L1) or dirty mask (L2) is
//! set, so the cache's own dirty state says which stamps count and an
//! eviction retires the victim's stamps in place: the block filling the
//! slot starts clean.

use crate::batch::{self, OpBatch};
use crate::cache::{BlockAccess, Cache, CacheBacking};
use crate::geometry::CacheGeometry;
use crate::memory::MainMemory;
use crate::replacement::ReplacementPolicy;
use crate::stats::CacheStats;

/// One memory operation of a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemOp {
    /// A 64-bit load.
    Load(u64),
    /// A 64-bit store of the given value.
    Store(u64, u64),
    /// A single-byte (partial) store — the access class that forces
    /// read-modify-writes on block-ECC schemes (paper §1) and exercises
    /// CPPC's byte path (§3.1).
    StoreByte(u64, u8),
}

impl MemOp {
    /// The byte address this operation touches.
    #[must_use]
    pub fn addr(&self) -> u64 {
        match *self {
            MemOp::Load(a) | MemOp::Store(a, _) => a,
            MemOp::StoreByte(a, _) => a,
        }
    }

    /// `true` for stores.
    #[must_use]
    pub fn is_store(&self) -> bool {
        matches!(self, MemOp::Store(..) | MemOp::StoreByte(..))
    }
}

/// The Tavg intervals of one level: a last-access stamp per cache slot
/// (L1 word or L2 block) and the running interval sum. A slot's stamp
/// means something only while the slot is dirty; the caller passes that
/// dirtiness in, read from the cache it already probed.
#[derive(Debug, Clone)]
struct SlotStamps {
    stamp: Vec<u64>,
    interval_sum: u128,
    interval_count: u64,
}

impl SlotStamps {
    fn new(slots: usize) -> Self {
        SlotStamps {
            stamp: vec![0; slots],
            interval_sum: 0,
            interval_count: 0,
        }
    }

    /// Records an access at `now` to `slot` that leaves it dirty: closes
    /// the running interval if the slot was already dirty and opens the
    /// next one.
    #[inline]
    fn touch(&mut self, slot: usize, now: u64, was_dirty: bool) {
        if was_dirty {
            self.retire(slot, now);
        }
        self.stamp[slot] = now;
    }

    /// Closes the interval of a dirty `slot` at `now` without opening
    /// another — the writeback that evicts it.
    #[inline]
    fn retire(&mut self, slot: usize, now: u64) {
        self.interval_sum += u128::from(now - self.stamp[slot]);
        self.interval_count += 1;
    }

    /// The L2 side of one block access: the dirty victim the access
    /// evicted from `access.slot`, then the access itself if it found
    /// the block dirty or leaves it dirty.
    #[inline]
    fn block_access(&mut self, access: BlockAccess, now: u64, dirty_after: bool) {
        if access.evicted_dirty {
            self.retire(access.slot, now);
        }
        let was_dirty = access.dirty_before != 0;
        if was_dirty || dirty_after {
            self.touch(access.slot, now, was_dirty);
        }
    }

    fn tavg(&self) -> Option<f64> {
        if self.interval_count == 0 {
            None
        } else {
            Some(self.interval_sum as f64 / self.interval_count as f64)
        }
    }
}

/// An L1 + L2 (+ L3) + memory functional simulator.
///
/// Every level must share the same block size (as in the paper's Table
/// 1 configuration, 32-byte lines at both levels).
///
/// # Example
///
/// ```
/// use cppc_cache_sim::hierarchy::{MemOp, TwoLevelHierarchy};
/// use cppc_cache_sim::{CacheGeometry, ReplacementPolicy};
///
/// let l1 = CacheGeometry::new(32 * 1024, 2, 32)?;
/// let l2 = CacheGeometry::new(1024 * 1024, 4, 32)?;
/// let mut h = TwoLevelHierarchy::new(l1, l2, ReplacementPolicy::Lru);
/// h.run([MemOp::Store(0x100, 42), MemOp::Load(0x100)]);
/// assert_eq!(h.l1().stats().load_hits, 1);
/// # Ok::<(), cppc_cache_sim::GeometryError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TwoLevelHierarchy {
    l1: Cache,
    l2: Cache,
    /// The level between the L2 and memory, when there is one.
    l3: Option<Cache>,
    mem: MainMemory,
    cycle: u64,
    cycles_per_op: u64,
    sample_interval: u64,
    ops_since_sample: u64,
    /// One stamp per L1 word slot, `(set·ways + way)·words_per_block + w`.
    l1_intervals: SlotStamps,
    /// One stamp per L2 block slot, `set·ways + way`.
    l2_intervals: SlotStamps,
}

impl TwoLevelHierarchy {
    /// Builds the hierarchy with empty caches and zeroed memory.
    ///
    /// # Panics
    ///
    /// Panics if the two levels have different block sizes.
    #[must_use]
    pub fn new(l1_geo: CacheGeometry, l2_geo: CacheGeometry, policy: ReplacementPolicy) -> Self {
        assert_eq!(
            l1_geo.block_bytes(),
            l2_geo.block_bytes(),
            "L1 and L2 must share a block size"
        );
        TwoLevelHierarchy {
            l1: Cache::new(l1_geo, policy),
            l2: Cache::new(l2_geo, policy),
            l3: None,
            mem: MainMemory::new(),
            cycle: 0,
            cycles_per_op: 1,
            sample_interval: 1024,
            ops_since_sample: 0,
            l1_intervals: SlotStamps::new(l1_geo.total_words()),
            l2_intervals: SlotStamps::new(l2_geo.num_sets() * l2_geo.associativity()),
        }
    }

    /// Builds an L1 + L2 + L3 + memory chain: the L3 serves the L2's
    /// misses and absorbs its writebacks, and is sampled, reset and
    /// published with the other levels. Tavg stays an L1/L2
    /// measurement.
    ///
    /// # Panics
    ///
    /// Panics if the levels have different block sizes.
    #[must_use]
    pub fn with_l3(
        l1_geo: CacheGeometry,
        l2_geo: CacheGeometry,
        l3_geo: CacheGeometry,
        policy: ReplacementPolicy,
    ) -> Self {
        assert_eq!(
            l2_geo.block_bytes(),
            l3_geo.block_bytes(),
            "L2 and L3 must share a block size"
        );
        TwoLevelHierarchy {
            l3: Some(Cache::new(l3_geo, policy)),
            ..Self::new(l1_geo, l2_geo, policy)
        }
    }

    /// Sets how many cycles each trace operation advances the clock
    /// (use the workload's cycles-per-memory-op estimate so Tavg comes
    /// out in cycles, as in Table 2).
    pub fn set_cycles_per_op(&mut self, cycles: u64) {
        assert!(cycles > 0, "cycles per op must be positive");
        self.cycles_per_op = cycles;
    }

    /// Sets the dirty-residency sampling interval in operations.
    pub fn set_sample_interval(&mut self, ops: u64) {
        assert!(ops > 0, "sample interval must be positive");
        self.sample_interval = ops;
    }

    /// Executes one operation, returning the loaded word (0 for stores).
    pub fn step(&mut self, op: MemOp) -> u64 {
        let (addr, kind, value) = batch::lanes(op);
        self.access(addr, kind, value)
    }

    /// The per-op body behind [`TwoLevelHierarchy::step`] and
    /// [`TwoLevelHierarchy::run_batch`]: one operation in lane form
    /// (`kind` is a [`batch`] lane tag).
    ///
    /// A single L1 probe classifies the access and answers the Tavg
    /// dirty-before question (a miss is never dirty before the access).
    /// A miss fills straight away, retiring the stamps of the victim's
    /// dirty words (the victim held the same slot), and the access
    /// completes through the in-place primitives, so no path probes L1
    /// twice.
    #[inline]
    fn access(&mut self, addr: u64, kind: u8, value: u64) -> u64 {
        self.cycle += self.cycles_per_op;
        let cycle = self.cycle;
        let is_load = kind == batch::KIND_LOAD;
        let w = self.l1.geometry().word_index(addr);
        let wpb = self.l1.geometry().words_per_block();
        let ways = self.l1.geometry().associativity();
        let (set, way, was_dirty) = if let Some((set, way)) = self.l1.probe(addr) {
            self.l1.record_access(!is_load, true);
            if is_load {
                self.l1.touch(set, way);
            }
            (set, way, self.l1.dirty_mask_at(set, way) >> w & 1 == 1)
        } else {
            self.l1.record_access(!is_load, false);
            // An L1 miss that hits a dirty L2 block is an access to dirty
            // L2 data for Tavg purposes; a read leaves a clean block
            // clean, a writeback leaves it dirty.
            let l2_intervals = &mut self.l2_intervals;
            let stamp = move |access, writeback| {
                l2_intervals.block_access(access, cycle, writeback);
            };
            // The backing type is chosen here, once per miss, so the
            // fill below is monomorphized for each depth.
            let (set, way, eviction) = match &mut self.l3 {
                None => self.l1.fill(
                    addr,
                    &mut CacheBacking {
                        cache: &mut self.l2,
                        below: &mut self.mem,
                        on_access: stamp,
                    },
                ),
                Some(l3) => self.l1.fill(
                    addr,
                    &mut CacheBacking {
                        cache: &mut self.l2,
                        below: &mut CacheBacking::new(l3, &mut self.mem),
                        on_access: stamp,
                    },
                ),
            };
            if let Some(eviction) = eviction {
                let base = (set * ways + way) * wpb;
                let mut mask = eviction.dirty_mask;
                while mask != 0 {
                    self.l1_intervals
                        .retire(base + mask.trailing_zeros() as usize, cycle);
                    mask &= mask - 1;
                }
            }
            (set, way, false)
        };
        let loaded = match kind {
            batch::KIND_LOAD => self.l1.word_at(set, way, w),
            batch::KIND_STORE => {
                self.l1.store_word_in_place(set, way, w, value);
                0
            }
            batch::KIND_STORE_BYTE => {
                let byte = self.l1.geometry().byte_in_word(addr);
                self.l1.store_byte_in_place(set, way, w, byte, value as u8);
                0
            }
            k => unreachable!("invalid op kind {k}"),
        };
        if was_dirty || !is_load {
            self.l1_intervals
                .touch((set * ways + way) * wpb + w, cycle, was_dirty);
        }

        self.ops_since_sample += 1;
        if self.ops_since_sample >= self.sample_interval {
            self.ops_since_sample = 0;
            for level in self.levels_mut() {
                let dirty = level.dirty_word_count();
                level.stats_mut().sample_dirty(dirty);
            }
        }
        loaded
    }

    /// Runs a whole trace, publishing per-level stat deltas to the
    /// global [`obs`](crate::obs) registry once at the end.
    pub fn run<I: IntoIterator<Item = MemOp>>(&mut self, trace: I) {
        let before = self.publish_mark();
        for op in trace {
            self.step(op);
        }
        self.publish_since(before);
    }

    /// Runs a pre-decoded [`OpBatch`] through the hierarchy — the trace
    /// timing fast path.
    ///
    /// Each operation goes through the same per-op body as
    /// [`TwoLevelHierarchy::step`], so state and statistics are
    /// bit-identical to stepping one at a time (pinned by differential
    /// tests); the batch walks flat lanes instead of decoding
    /// [`MemOp`]s, and obs deltas publish once per batch instead of
    /// never (`step`) or once per iterator drain
    /// ([`TwoLevelHierarchy::run`]).
    pub fn run_batch(&mut self, batch: &OpBatch) {
        let before = self.publish_mark();
        for ((&addr, &kind), &value) in batch.addrs().iter().zip(batch.kinds()).zip(batch.values())
        {
            self.access(addr, kind, value);
        }
        self.publish_since(before);
    }

    /// The levels top down: L1, L2 and the L3 when present.
    fn levels(&self) -> impl Iterator<Item = &Cache> {
        [&self.l1, &self.l2].into_iter().chain(self.l3.as_ref())
    }

    /// [`TwoLevelHierarchy::levels`], mutably.
    fn levels_mut(&mut self) -> impl Iterator<Item = &mut Cache> {
        [&mut self.l1, &mut self.l2]
            .into_iter()
            .chain(self.l3.as_mut())
    }

    /// The counters [`TwoLevelHierarchy::publish_since`] diffs against:
    /// each level's statistics (a missing L3's stay zero) and the
    /// levels' summed scratch reuse.
    fn publish_mark(&self) -> ([CacheStats; 3], u64) {
        let mut stats = [CacheStats::default(); 3];
        let mut scratch = 0;
        for (slot, level) in stats.iter_mut().zip(self.levels()) {
            *slot = *level.stats();
            scratch += level.scratch_reuse();
        }
        (stats, scratch)
    }

    /// Publishes the per-level stat deltas since `before` to the global
    /// [`obs`](crate::obs) registry, level 3 only when present.
    fn publish_since(&self, before: ([CacheStats; 3], u64)) {
        let ((before, scratch_before), (after, scratch_after)) = (before, self.publish_mark());
        for level in 1..=self.levels().count() {
            crate::obs::publish_level_delta(level, &before[level - 1], &after[level - 1]);
        }
        crate::obs::publish_scratch_delta(scratch_before, scratch_after);
    }

    /// Zeroes every level's statistics (cache contents and the clock
    /// are untouched) — call after a warm-up phase so measurements
    /// reflect steady state rather than compulsory misses.
    pub fn reset_stats(&mut self) {
        for level in self.levels_mut() {
            level.reset_stats();
        }
        self.ops_since_sample = 0;
    }

    /// The L1 cache.
    #[must_use]
    pub fn l1(&self) -> &Cache {
        &self.l1
    }

    /// The L2 cache.
    #[must_use]
    pub fn l2(&self) -> &Cache {
        &self.l2
    }

    /// The L3 cache, when the chain has one.
    #[must_use]
    pub fn l3(&self) -> Option<&Cache> {
        self.l3.as_ref()
    }

    /// The backing memory.
    #[must_use]
    pub fn memory(&self) -> &MainMemory {
        &self.mem
    }

    /// Current cycle count.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Mean interval (cycles) between consecutive accesses to the same
    /// dirty L1 word, counting the writeback that evicts it as its last
    /// access (see the [module docs](self)); `None` until an interval
    /// closes.
    #[must_use]
    pub fn l1_tavg(&self) -> Option<f64> {
        self.l1_intervals.tavg()
    }

    /// Mean interval (cycles) between consecutive accesses to the same
    /// dirty L2 block, counting its writeback to the level below as its
    /// last access.
    #[must_use]
    pub fn l2_tavg(&self) -> Option<f64> {
        self.l2_intervals.tavg()
    }

    /// Mean fraction of L1 words dirty across samples (Table 2's
    /// "percentage of dirty data", as a 0..1 fraction).
    #[must_use]
    pub fn l1_dirty_fraction(&self) -> f64 {
        self.l1.stats().mean_dirty_words() / self.l1.geometry().total_words() as f64
    }

    /// Mean fraction of L2 words dirty across samples.
    #[must_use]
    pub fn l2_dirty_fraction(&self) -> f64 {
        self.l2.stats().mean_dirty_words() / self.l2.geometry().total_words() as f64
    }

    /// Convenience: `(l1_stats, l2_stats)` snapshot (the L3's are on
    /// [`TwoLevelHierarchy::l3`]).
    #[must_use]
    pub fn stats(&self) -> (CacheStats, CacheStats) {
        (*self.l1.stats(), *self.l2.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cppc_campaign::rng::rngs::StdRng;
    use cppc_campaign::rng::{RngExt, SeedableRng};

    fn tiny() -> TwoLevelHierarchy {
        let l1 = CacheGeometry::new(256, 2, 32).unwrap();
        let l2 = CacheGeometry::new(1024, 2, 32).unwrap();
        TwoLevelHierarchy::new(l1, l2, ReplacementPolicy::Lru)
    }

    #[test]
    fn store_load_roundtrip() {
        let mut h = tiny();
        h.step(MemOp::Store(0x100, 77));
        assert_eq!(h.step(MemOp::Load(0x100)), 77);
    }

    #[test]
    fn l1_miss_fills_l2_first() {
        let mut h = tiny();
        h.step(MemOp::Load(0x100));
        assert_eq!(h.l1().stats().load_misses, 1);
        assert_eq!(h.l2().stats().load_misses, 1);
        h.step(MemOp::Load(0x108)); // same block: L1 hit
        assert_eq!(h.l1().stats().load_hits, 1);
        assert_eq!(h.l2().stats().loads(), 1, "no extra L2 access");
    }

    #[test]
    fn l1_writeback_lands_in_l2_not_memory() {
        let mut h = tiny();
        h.step(MemOp::Store(0x40, 5));
        // Force the L1 set to turn over (set count = 4 blocks apart 256B):
        h.step(MemOp::Load(0x40 + 256));
        h.step(MemOp::Load(0x40 + 512));
        assert_eq!(h.l1().stats().writebacks, 1);
        assert_eq!(h.memory().peek_word(0x40), 0, "L2 absorbed the write-back");
        assert_eq!(h.l2().peek_word(0x40), Some(5));
    }

    #[test]
    fn value_survives_both_levels() {
        let mut h = tiny();
        h.step(MemOp::Store(0x40, 123));
        // Thrash both levels thoroughly.
        for i in 0..64u64 {
            h.step(MemOp::Load(0x1000 + i * 32));
        }
        assert_eq!(h.step(MemOp::Load(0x40)), 123);
    }

    #[test]
    fn tavg_measured_for_reused_dirty_words() {
        let mut h = tiny();
        h.set_cycles_per_op(10);
        h.step(MemOp::Store(0x40, 1)); // cycle 10, dirty
        h.step(MemOp::Load(0x200)); // cycle 20
        h.step(MemOp::Store(0x40, 2)); // cycle 30 → interval 20
        let tavg = h.l1_tavg().unwrap();
        assert!((tavg - 20.0).abs() < 1e-9, "tavg = {tavg}");
    }

    /// Blocks `0x40 + k·0x200` share L1 set 2 and L2 set 2 of `tiny()`
    /// (4 L1 sets and 16 L2 sets of 32-byte blocks, both 2-way).
    const SET2: [u64; 4] = [0x40, 0x240, 0x440, 0x640];

    #[test]
    fn l1_tavg_ends_at_the_writeback_not_at_the_next_residency() {
        let mut h = tiny();
        h.set_cycles_per_op(10);
        h.step(MemOp::Store(SET2[0], 1)); // cycle 10: dirty, interval opens
        h.step(MemOp::Load(SET2[1])); // cycle 20
        h.step(MemOp::Load(SET2[2])); // cycle 30: evicts SET2[0], closes 30 - 10
        assert_eq!(h.l1().stats().writebacks, 1);
        h.step(MemOp::Load(SET2[0])); // cycle 40: refilled clean
        h.step(MemOp::Store(SET2[0], 2)); // cycle 50: a new interval opens
        assert_eq!(h.l1_tavg(), Some(20.0), "store → writeback only");
    }

    #[test]
    fn l2_tavg_ends_at_the_writeback_to_memory() {
        let mut h = tiny();
        h.set_cycles_per_op(10);
        h.step(MemOp::Store(SET2[0], 1)); // cycle 10
        h.step(MemOp::Load(SET2[1])); // cycle 20
        h.step(MemOp::Load(SET2[2])); // cycle 30: L1 writeback dirties the L2 block
        h.step(MemOp::Load(SET2[3])); // cycle 40: L2 writes that block to memory
        assert_eq!(h.l2().stats().writebacks, 1);
        assert_eq!(h.memory().peek_word(SET2[0]), 1);
        // Refill it, dirty it again and write it back to the L2 (cycle
        // 80), which opens a new L2 interval rather than closing one
        // that spans the trip to memory.
        h.step(MemOp::Load(SET2[0])); // cycle 50
        h.step(MemOp::Store(SET2[0], 2)); // cycle 60
        h.step(MemOp::Load(SET2[1])); // cycle 70
        h.step(MemOp::Load(SET2[2])); // cycle 80
        assert_eq!(h.l1().stats().writebacks, 2);
        assert_eq!(h.l2().stats().writebacks, 1);
        assert_eq!(
            h.l2_tavg(),
            Some(10.0),
            "L1 writeback → memory writeback only"
        );
        assert_eq!(h.l1_tavg(), Some(20.0));
    }

    #[test]
    fn tavg_none_without_dirty_reuse() {
        let mut h = tiny();
        h.step(MemOp::Load(0x40));
        h.step(MemOp::Load(0x80));
        assert!(h.l1_tavg().is_none());
    }

    #[test]
    fn dirty_fraction_sampled() {
        let mut h = tiny();
        h.set_sample_interval(1);
        h.step(MemOp::Store(0x40, 1));
        // 1 dirty word / 32 total words
        assert!((h.l1_dirty_fraction() - 1.0 / 32.0).abs() < 1e-9);
    }

    #[test]
    fn randomised_transparency_through_two_levels() {
        let mut rng = StdRng::seed_from_u64(0x11EE);
        let mut h = tiny();
        let mut oracle: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        for _ in 0..30_000 {
            let addr = (rng.random_range(0..8192u64)) & !7;
            if rng.random_bool(0.35) {
                let v: u64 = rng.random();
                h.step(MemOp::Store(addr, v));
                oracle.insert(addr, v);
            } else {
                let got = h.step(MemOp::Load(addr));
                assert_eq!(got, *oracle.get(&addr).unwrap_or(&0), "addr {addr:#x}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "share a block size")]
    fn mismatched_block_sizes_panic() {
        let l1 = CacheGeometry::new(256, 2, 32).unwrap();
        let l2 = CacheGeometry::new(1024, 2, 64).unwrap();
        let _ = TwoLevelHierarchy::new(l1, l2, ReplacementPolicy::Lru);
    }

    fn random_ops(seed: u64, n: usize) -> Vec<MemOp> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let addr = rng.random_range(0..16384u64);
                match rng.random_range(0..4u32) {
                    0 => MemOp::Store(addr & !7, rng.random()),
                    1 => MemOp::StoreByte(addr, rng.random::<u64>() as u8),
                    _ => MemOp::Load(addr & !7),
                }
            })
            .collect()
    }

    #[test]
    fn run_batch_matches_step_bit_for_bit() {
        let ops = random_ops(0xBA7C4, 40_000);
        let mut stepped = tiny();
        stepped.set_cycles_per_op(3);
        stepped.set_sample_interval(7);
        let mut batched = stepped.clone();
        for &op in &ops {
            stepped.step(op);
        }
        // Uneven chunk sizes so batch boundaries cross the sampling
        // cadence in every phase.
        let mut batch = crate::batch::OpBatch::new();
        for chunk in ops.chunks(513) {
            batch.clear();
            batch.extend_from_ops(chunk);
            batched.run_batch(&batch);
        }
        assert_eq!(stepped.stats(), batched.stats());
        assert_eq!(stepped.cycle(), batched.cycle());
        assert_eq!(stepped.l1_tavg(), batched.l1_tavg());
        assert_eq!(stepped.l2_tavg(), batched.l2_tavg());
        assert_eq!(stepped.l1_dirty_fraction(), batched.l1_dirty_fraction());
        assert_eq!(stepped.l2_dirty_fraction(), batched.l2_dirty_fraction());
        for addr in (0..16384u64).step_by(8) {
            assert_eq!(
                stepped.l1().peek_word(addr),
                batched.l1().peek_word(addr),
                "L1 word {addr:#x}"
            );
            assert_eq!(
                stepped.l2().peek_word(addr),
                batched.l2().peek_word(addr),
                "L2 word {addr:#x}"
            );
            assert_eq!(
                stepped.memory().peek_word(addr),
                batched.memory().peek_word(addr),
                "memory word {addr:#x}"
            );
        }
    }

    #[test]
    fn clock_and_sample_interval_move_no_access_counter() {
        // One drive can serve both Table 2's residency and Figure 10's
        // CPI because the clock rate and the sampling cadence change
        // only the dirty samples, never a hit, miss or fill counter.
        let ops = random_ops(0xC10C, 40_000);
        let run = |cycles_per_op, interval| {
            let mut h = tiny();
            h.set_cycles_per_op(cycles_per_op);
            h.set_sample_interval(interval);
            h.run(ops.iter().copied());
            let (l1, l2) = h.stats();
            [l1, l2]
        };
        let without_samples = |levels: [CacheStats; 2]| {
            levels.map(|s| CacheStats {
                dirty_word_samples: 0,
                dirty_word_samples_sum: 0,
                ..s
            })
        };
        let reference = run(1, 1024);
        for (cycles_per_op, interval) in [(7, 1024), (1, 2048), (7, 2048)] {
            let other = run(cycles_per_op, interval);
            assert_eq!(
                without_samples(other),
                without_samples(reference),
                "{cycles_per_op} cycles/op, sample every {interval}"
            );
            if interval != 1024 {
                assert_ne!(other[0].dirty_word_samples, reference[0].dirty_word_samples);
            }
        }
    }

    /// Drives `ops` through a fresh hierarchy and through the
    /// reference, one op at a time and in uneven batches, and demands
    /// bit-identical Tavg at both levels.
    fn assert_matches_reference(l1: CacheGeometry, l2: CacheGeometry, ops: &[MemOp]) {
        let mut stepped = TwoLevelHierarchy::new(l1, l2, ReplacementPolicy::Lru);
        stepped.set_cycles_per_op(3);
        let mut batched = stepped.clone();
        let mut oracle = super::reference::Reference::new(l1, l2, 3);
        for &op in ops {
            assert_eq!(stepped.step(op), oracle.step(op), "{op:?}");
        }
        let mut batch = crate::batch::OpBatch::new();
        for chunk in ops.chunks(777) {
            batch.clear();
            batch.extend_from_ops(chunk);
            batched.run_batch(&batch);
        }
        let unsampled = |s: &CacheStats| CacheStats {
            dirty_word_samples: 0,
            dirty_word_samples_sum: 0,
            ..*s
        };
        assert_eq!(
            unsampled(stepped.l1().stats()),
            unsampled(oracle.l1.stats())
        );
        assert_eq!(
            unsampled(stepped.l2().stats()),
            unsampled(oracle.l2.stats())
        );
        assert!(
            stepped.l2().stats().writebacks > 0,
            "L2 writebacks exercised"
        );
        let (l1_tavg, l2_tavg) = oracle.tavg();
        for h in [&stepped, &batched] {
            assert_eq!(h.l1_tavg().map(f64::to_bits), l1_tavg.map(f64::to_bits));
            assert_eq!(h.l2_tavg().map(f64::to_bits), l2_tavg.map(f64::to_bits));
        }
        assert!(l1_tavg.is_some() && l2_tavg.is_some());
    }

    #[test]
    fn slot_stamps_match_keyed_reference_on_tiny() {
        let t = tiny();
        for seed in [0x7A6, 0x7A7, 0x7A8] {
            assert_matches_reference(
                *t.l1().geometry(),
                *t.l2().geometry(),
                &random_ops(seed, 30_000),
            );
        }
    }

    #[test]
    fn slot_stamps_match_keyed_reference_on_four_way_l1() {
        let l1 = CacheGeometry::new(512, 4, 32).unwrap();
        let l2 = CacheGeometry::new(2048, 4, 32).unwrap();
        for seed in [0x4A1, 0x4A2, 0x4A3] {
            assert_matches_reference(l1, l2, &random_ops(seed, 30_000));
        }
    }

    #[test]
    fn run_batch_matches_run() {
        let ops = random_ops(0x5EED, 10_000);
        let mut iterated = tiny();
        let mut batched = tiny();
        iterated.run(ops.iter().copied());
        batched.run_batch(&crate::batch::OpBatch::from_ops(&ops));
        assert_eq!(iterated.stats(), batched.stats());
        assert_eq!(iterated.cycle(), batched.cycle());
    }

    /// `tiny()` with a 4 KiB, 4-way L3 below its L2.
    fn three_level() -> TwoLevelHierarchy {
        TwoLevelHierarchy::with_l3(
            CacheGeometry::new(256, 2, 32).unwrap(),
            CacheGeometry::new(1024, 2, 32).unwrap(),
            CacheGeometry::new(4096, 4, 32).unwrap(),
            ReplacementPolicy::Lru,
        )
    }

    #[test]
    fn roundtrip_through_three_levels() {
        let mut h = three_level();
        h.step(MemOp::Store(0x100, 77));
        assert_eq!(h.step(MemOp::Load(0x100)), 77);
    }

    #[test]
    fn miss_cascades_down_three_levels() {
        let mut h = three_level();
        h.step(MemOp::Load(0x100));
        let l3 = h.l3().expect("three levels");
        assert_eq!(h.l1().stats().load_misses, 1);
        assert_eq!(h.l2().stats().load_misses, 1);
        assert_eq!(l3.stats().load_misses, 1);
        // Second word in the same L1 line: the lower levels stay idle.
        h.step(MemOp::Load(0x108));
        assert_eq!(h.l1().stats().load_hits, 1);
        assert_eq!(h.l2().stats().loads(), 1);
        assert!(tiny().l3().is_none());
    }

    #[test]
    fn writeback_cascade_reaches_l3_not_memory() {
        let mut h = three_level();
        h.step(MemOp::Store(0x40, 5));
        // Push it out of L1 (4 sets x 32B = 256B stride) and out of L2
        // (16 sets x 32B = 512B stride).
        for i in 1..=8u64 {
            h.step(MemOp::Load(0x40 + i * 256));
        }
        assert!(h.l1().stats().writebacks >= 1);
        assert!(h.l2().stats().writebacks >= 1);
        assert_eq!(h.l3().unwrap().peek_word(0x40), Some(5));
        assert_eq!(h.memory().peek_word(0x40), 0, "the L3 absorbed it");
        assert_eq!(h.step(MemOp::Load(0x40)), 5);
    }

    #[test]
    fn randomised_transparency_through_three_levels() {
        let mut rng = StdRng::seed_from_u64(0x3133);
        let mut h = three_level();
        let mut oracle = std::collections::HashMap::new();
        for _ in 0..30_000 {
            let addr = (rng.random_range(0..16384u64)) & !7;
            if rng.random_bool(0.4) {
                let v: u64 = rng.random();
                h.step(MemOp::Store(addr, v));
                oracle.insert(addr, v);
            } else {
                assert_eq!(h.step(MemOp::Load(addr)), *oracle.get(&addr).unwrap_or(&0));
            }
        }
    }

    #[test]
    fn store_filtering_attenuates_down_the_hierarchy() {
        // The §7 intuition: when the write working set fits the upper
        // level, the L1 absorbs the re-store traffic and the lower
        // levels see almost no read-before-write events.
        let mut rng = StdRng::seed_from_u64(9);
        let mut h = three_level();
        for _ in 0..50_000 {
            if rng.random_bool(0.4) {
                // Hot store region: 2 blocks mapping to L1 sets 0-1,
                // which the loads below never touch — so the dirty
                // blocks are never evicted from L1.
                let addr = (rng.random_range(0..64u64)) & !7;
                h.step(MemOp::Store(addr, rng.random()));
            } else {
                // Loads confined to L1 sets 2-3 (offsets 0x40..0x7F of
                // each 256-byte stride).
                let stride = rng.random_range(0..32u64);
                let offset = 0x40 + (rng.random_range(0..0x40u64) & !7);
                h.step(MemOp::Load(stride * 256 + offset));
            }
        }
        let (l1, l2) = h.stats();
        assert!(l1.stores_to_dirty > 1_000, "L1 absorbs the re-store stream");
        assert_eq!(l2.stores_to_dirty, 0, "nothing dirty ever reaches L2");
        assert_eq!(h.l3().unwrap().stats().stores_to_dirty, 0);
    }

    #[test]
    #[should_panic(expected = "L2 and L3 must share a block size")]
    fn mismatched_l3_block_size_panics() {
        let _ = TwoLevelHierarchy::with_l3(
            CacheGeometry::new(256, 2, 32).unwrap(),
            CacheGeometry::new(1024, 2, 32).unwrap(),
            CacheGeometry::new(4096, 4, 64).unwrap(),
            ReplacementPolicy::Lru,
        );
    }

    /// Nothing above the L2 can tell whether an L3 sits below it: the
    /// loaded values, both upper levels' counters, their dirty
    /// residency and their Tavg are the same bits with and without one;
    /// only memory sees less traffic.
    #[test]
    fn an_l3_is_invisible_above_the_l2() {
        let ops = random_ops(0x13, 40_000);
        let mut two = tiny();
        two.set_cycles_per_op(3);
        two.set_sample_interval(7);
        let mut three = three_level();
        three.set_cycles_per_op(3);
        three.set_sample_interval(7);
        for &op in &ops {
            assert_eq!(two.step(op), three.step(op), "{op:?}");
        }
        assert_eq!(two.stats(), three.stats());
        assert_eq!(two.cycle(), three.cycle());
        assert_eq!(
            two.l1_dirty_fraction().to_bits(),
            three.l1_dirty_fraction().to_bits()
        );
        assert_eq!(
            two.l2_dirty_fraction().to_bits(),
            three.l2_dirty_fraction().to_bits()
        );
        assert_eq!(
            two.l1_tavg().map(f64::to_bits),
            three.l1_tavg().map(f64::to_bits)
        );
        assert_eq!(
            two.l2_tavg().map(f64::to_bits),
            three.l2_tavg().map(f64::to_bits)
        );
        assert!(two.l2_tavg().is_some());
        let l3 = three.l3().unwrap().stats();
        assert!(l3.load_hits > 0 && l3.writebacks > 0 && l3.dirty_word_samples > 0);
        assert!(three.memory().reads() < two.memory().reads());
        assert!(three.memory().writes() < two.memory().writes());
    }

    #[test]
    fn memop_accessors() {
        assert_eq!(MemOp::Load(8).addr(), 8);
        assert!(MemOp::Store(8, 1).is_store());
        assert!(!MemOp::Load(8).is_store());
    }
}

/// A word- and block-keyed Tavg reference for the slot stamps: plain
/// `HashMap`s of last-access cycles, driven by the caches' own
/// `load_word` / `store_word` paths and told of every writeback through
/// the [`Backing`] calls. A key is in its map exactly while that word
/// (L1) or block (L2) is dirty; a writeback removes it after closing its
/// last interval.
#[cfg(test)]
mod reference {
    use std::collections::HashMap;

    use super::{CacheGeometry, MainMemory, MemOp, ReplacementPolicy};
    use crate::cache::{Backing, Cache};

    #[derive(Default)]
    struct KeyedIntervals {
        last: HashMap<u64, u64>,
        sum: u128,
        count: u64,
    }

    impl KeyedIntervals {
        fn touch(&mut self, key: u64, now: u64, dirty_after: bool) {
            if let Some(last) = self.last.get_mut(&key) {
                self.sum += u128::from(now - *last);
                self.count += 1;
                *last = now;
            } else if dirty_after {
                self.last.insert(key, now);
            }
        }

        fn retire(&mut self, key: u64, now: u64) {
            let last = self.last.remove(&key).expect("a written-back key is dirty");
            self.sum += u128::from(now - last);
            self.count += 1;
        }

        fn tavg(&self) -> Option<f64> {
            (self.count > 0).then(|| self.sum as f64 / self.count as f64)
        }
    }

    /// Memory below the L2: a writeback retires the L2 block's key.
    struct Memory<'a> {
        mem: &'a mut MainMemory,
        l2_blocks: &'a mut KeyedIntervals,
        now: u64,
    }

    impl Backing for Memory<'_> {
        fn fetch_block_into(&mut self, base: u64, buf: &mut [u64]) {
            self.mem.read_block_into(base, buf);
        }

        fn write_back(&mut self, base: u64, data: &[u64], dirty_mask: u64) {
            self.l2_blocks.retire(base, self.now);
            self.mem.write_back_dirty(base, data, dirty_mask);
        }
    }

    /// The L2 below the L1: a writeback retires each dirty L1 word's key
    /// and touches the L2 block; a fetch touches the block if dirty.
    struct Level2<'a> {
        l2: &'a mut Cache,
        mem: &'a mut MainMemory,
        l1_words: &'a mut KeyedIntervals,
        l2_blocks: &'a mut KeyedIntervals,
        now: u64,
    }

    impl Backing for Level2<'_> {
        fn fetch_block_into(&mut self, base: u64, buf: &mut [u64]) {
            self.l2_blocks.touch(base, self.now, false);
            let mut below = Memory {
                mem: self.mem,
                l2_blocks: self.l2_blocks,
                now: self.now,
            };
            self.l2.read_block_into(base, &mut below, buf);
        }

        fn write_back(&mut self, base: u64, data: &[u64], dirty_mask: u64) {
            let mut mask = dirty_mask;
            while mask != 0 {
                let w = u64::from(mask.trailing_zeros());
                self.l1_words.retire(base + 8 * w, self.now);
                mask &= mask - 1;
            }
            let mut below = Memory {
                mem: self.mem,
                l2_blocks: self.l2_blocks,
                now: self.now,
            };
            self.l2.write_block(base, data, dirty_mask, &mut below);
            self.l2_blocks.touch(base, self.now, true);
        }
    }

    pub(super) struct Reference {
        pub(super) l1: Cache,
        pub(super) l2: Cache,
        mem: MainMemory,
        cycle: u64,
        cycles_per_op: u64,
        l1_words: KeyedIntervals,
        l2_blocks: KeyedIntervals,
    }

    impl Reference {
        pub(super) fn new(l1: CacheGeometry, l2: CacheGeometry, cycles_per_op: u64) -> Self {
            Reference {
                l1: Cache::new(l1, ReplacementPolicy::Lru),
                l2: Cache::new(l2, ReplacementPolicy::Lru),
                mem: MainMemory::new(),
                cycle: 0,
                cycles_per_op,
                l1_words: KeyedIntervals::default(),
                l2_blocks: KeyedIntervals::default(),
            }
        }

        pub(super) fn step(&mut self, op: MemOp) -> u64 {
            self.cycle += self.cycles_per_op;
            let now = self.cycle;
            // The op's own word: a fill only evicts other blocks' words.
            self.l1_words.touch(op.addr() & !7, now, op.is_store());
            let mut below = Level2 {
                l2: &mut self.l2,
                mem: &mut self.mem,
                l1_words: &mut self.l1_words,
                l2_blocks: &mut self.l2_blocks,
                now,
            };
            match op {
                MemOp::Load(a) => self.l1.load_word(a, &mut below),
                MemOp::Store(a, v) => {
                    self.l1.store_word(a, v, &mut below);
                    0
                }
                MemOp::StoreByte(a, v) => {
                    self.l1.store_byte(a, v, &mut below);
                    0
                }
            }
        }

        pub(super) fn tavg(&self) -> (Option<f64>, Option<f64>) {
            (self.l1_words.tavg(), self.l2_blocks.tavg())
        }
    }
}
