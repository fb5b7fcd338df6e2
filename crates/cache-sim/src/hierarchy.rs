//! Two-level (L1 + L2 + memory) functional hierarchy.
//!
//! Runs memory operations through an L1 backed by an L2 backed by main
//! memory, collecting per-level statistics plus the two measurements the
//! paper's reliability model needs (Table 2):
//!
//! * **dirty residency** — periodic samples of how many words are dirty;
//! * **Tavg** — the mean interval between consecutive accesses to the
//!   same dirty word (L1) or dirty block (L2).

use crate::batch::{self, OpBatch};
use crate::cache::{Backing, Cache};
use crate::geometry::CacheGeometry;
use crate::memory::MainMemory;
use crate::replacement::ReplacementPolicy;
use crate::stats::CacheStats;
use crate::wordmap::WordMap;

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

/// Tracks intervals between consecutive accesses to currently-dirty
/// entities (words or blocks), producing the paper's `Tavg`.
#[derive(Debug, Clone, Default)]
struct DirtyIntervalTracker {
    last_touch: WordMap<u64>,
    interval_sum: u128,
    interval_count: u64,
}

impl DirtyIntervalTracker {
    /// Records an access at `now` to `key`, which is dirty *after* the
    /// access if `dirty_after` (stores make words dirty; loads leave
    /// state unchanged).
    fn touch(&mut self, key: u64, now: u64, dirty_after: bool) {
        // One hash lookup per touch: a tracked key always refreshes its
        // stamp (dirty stays dirty on a load), an untracked one starts
        // being tracked only once a store dirties it.
        match self.last_touch.entry(key) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                self.interval_sum += u128::from(now - *e.get());
                self.interval_count += 1;
                e.insert(now);
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                if dirty_after {
                    e.insert(now);
                }
            }
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

/// An L1 + L2 + memory functional simulator.
///
/// Both levels must share the same block size (as in the paper's Table 1
/// configuration, 32-byte lines at both levels).
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
    mem: MainMemory,
    cycle: u64,
    cycles_per_op: u64,
    sample_interval: u64,
    ops_since_sample: u64,
    l1_intervals: DirtyIntervalTracker,
    l2_intervals: DirtyIntervalTracker,
}

struct L2Backing<'a> {
    l2: &'a mut Cache,
    mem: &'a mut MainMemory,
    intervals: &'a mut DirtyIntervalTracker,
    cycle: u64,
}

impl Backing for L2Backing<'_> {
    fn fetch_block_into(&mut self, base: u64, buf: &mut [u64]) {
        debug_assert_eq!(buf.len(), self.l2.geometry().words_per_block());
        // An L1 miss that hits a dirty L2 block is an access to dirty L2
        // data for Tavg purposes.
        if self.l2.read_block_into(base, self.mem, buf) != 0 {
            self.intervals.touch(base, self.cycle, true);
        }
    }

    fn write_back(&mut self, base: u64, data: &[u64], dirty_mask: u64) {
        let _ = self.l2.write_block(base, data, dirty_mask, self.mem);
        self.intervals.touch(base, self.cycle, true);
    }
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
            mem: MainMemory::new(),
            cycle: 0,
            cycles_per_op: 1,
            sample_interval: 1024,
            ops_since_sample: 0,
            l1_intervals: DirtyIntervalTracker::default(),
            l2_intervals: DirtyIntervalTracker::default(),
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
    /// A single L1 probe classifies the access and, on a load hit,
    /// answers the Tavg dirty-before question (a miss is never dirty
    /// before the access). A miss fills straight away and the access
    /// completes through the in-place primitives, so no path probes L1
    /// twice.
    #[inline]
    fn access(&mut self, addr: u64, kind: u8, value: u64) -> u64 {
        self.cycle += self.cycles_per_op;
        let cycle = self.cycle;
        let word_key = addr & !7;
        let is_load = kind == batch::KIND_LOAD;
        let w = self.l1.geometry().word_index(addr);
        let (set, way) = if let Some((set, way)) = self.l1.probe(addr) {
            self.l1.record_access(!is_load, true);
            if is_load {
                self.l1.touch(set, way);
                if self.l1.dirty_mask_at(set, way) >> w & 1 == 1 {
                    self.l1_intervals.touch(word_key, cycle, true);
                }
            }
            (set, way)
        } else {
            self.l1.record_access(!is_load, false);
            let mut backing = L2Backing {
                l2: &mut self.l2,
                mem: &mut self.mem,
                intervals: &mut self.l2_intervals,
                cycle,
            };
            let (set, way, _) = self.l1.fill(addr, &mut backing);
            (set, way)
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
        if !is_load {
            self.l1_intervals.touch(word_key, cycle, true);
        }

        self.ops_since_sample += 1;
        if self.ops_since_sample >= self.sample_interval {
            self.ops_since_sample = 0;
            let d1 = self.l1.dirty_word_count();
            let d2 = self.l2.dirty_word_count();
            self.l1.stats_mut().sample_dirty(d1);
            self.l2.stats_mut().sample_dirty(d2);
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

    /// The counters [`TwoLevelHierarchy::publish_since`] diffs against.
    fn publish_mark(&self) -> (CacheStats, CacheStats, u64) {
        let (l1, l2) = self.stats();
        (l1, l2, self.l1.scratch_reuse() + self.l2.scratch_reuse())
    }

    /// Publishes the per-level stat deltas since `before` to the global
    /// [`obs`](crate::obs) registry.
    fn publish_since(&self, before: (CacheStats, CacheStats, u64)) {
        let (l1_before, l2_before, scratch_before) = before;
        let (l1_after, l2_after) = self.stats();
        crate::obs::publish_level_delta(1, &l1_before, &l1_after);
        crate::obs::publish_level_delta(2, &l2_before, &l2_after);
        crate::obs::publish_scratch_delta(
            scratch_before,
            self.l1.scratch_reuse() + self.l2.scratch_reuse(),
        );
    }

    /// Zeroes both levels' statistics (cache contents and the clock are
    /// untouched) — call after a warm-up phase so measurements reflect
    /// steady state rather than compulsory misses.
    pub fn reset_stats(&mut self) {
        self.l1.reset_stats();
        self.l2.reset_stats();
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
    /// dirty L1 word, if any dirty word was ever re-accessed.
    #[must_use]
    pub fn l1_tavg(&self) -> Option<f64> {
        self.l1_intervals.tavg()
    }

    /// Mean interval (cycles) between consecutive accesses to the same
    /// dirty L2 block.
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

    /// Convenience: `(l1_stats, l2_stats)` snapshot.
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
    fn run_batch_matches_run() {
        let ops = random_ops(0x5EED, 10_000);
        let mut iterated = tiny();
        let mut batched = tiny();
        iterated.run(ops.iter().copied());
        batched.run_batch(&crate::batch::OpBatch::from_ops(&ops));
        assert_eq!(iterated.stats(), batched.stats());
        assert_eq!(iterated.cycle(), batched.cycle());
    }

    #[test]
    fn memop_accessors() {
        assert_eq!(MemOp::Load(8).addr(), 8);
        assert!(MemOp::Store(8, 1).is_store());
        assert!(!MemOp::Load(8).is_store());
    }
}
