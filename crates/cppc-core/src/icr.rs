//! In-Cache Replication (ICR), the related-work baseline of \[24\]
//! (Zhang et al., DSN 2003) the paper contrasts CPPC against in §2:
//! *"cache lines that have not been accessed for a long time are
//! allocated to replicas of dirty blocks. ICR essentially trades off
//! reduced effective cache size for better reliability. Thus the miss
//! rate of the cache may be higher or, alternatively, dirty blocks may
//! be left unprotected."*
//!
//! This model makes the trade explicit: half the capacity serves as the
//! data cache, the other half is a replica store for dirty blocks. When
//! the replica store overflows, the oldest replica is dropped and its
//! dirty block runs unprotected — exactly the failure mode the paper
//! points at. Parity detects; a faulty dirty word recovers from its
//! replica if one survives.

use cppc_cache_sim::cache::{Backing, Cache};
use cppc_cache_sim::geometry::CacheGeometry;
use cppc_cache_sim::replacement::ReplacementPolicy;
use cppc_cache_sim::stats::CacheStats;
use cppc_ecc::interleaved::InterleavedParity;
use cppc_fault::layout::PhysicalLayout;
use cppc_fault::model::FaultPattern;

use crate::baselines::UnrecoverableFault;

/// ICR statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IcrStats {
    /// Replica words written (each costs a cache write of energy).
    pub replica_writes: u64,
    /// Dirty blocks whose replica was dropped for capacity — left
    /// unprotected.
    pub unprotected_evictions: u64,
    /// Words recovered from a replica.
    pub recovered: u64,
    /// Faults in dirty data with no surviving replica.
    pub dues: u64,
}

/// An ICR-protected write-back cache: the nominal capacity is split in
/// half between data and replicas.
#[derive(Debug, Clone)]
pub struct IcrCache {
    inner: Cache,
    parity: Vec<u64>,
    code: InterleavedParity,
    layout: PhysicalLayout,
    /// FIFO of `(block_base, words)` replicas of dirty blocks.
    replicas: Vec<(u64, Vec<u64>)>,
    replica_capacity: usize,
    stats: IcrStats,
}

impl IcrCache {
    /// Creates an ICR cache of *nominal* `geo` capacity: the data side
    /// gets half the sets, the replica store gets the other half.
    ///
    /// # Panics
    ///
    /// Panics if the geometry cannot be halved (fewer than 2 sets).
    #[must_use]
    pub fn new(geo: CacheGeometry, parity_ways: u32, policy: ReplacementPolicy) -> Self {
        assert!(geo.num_sets() >= 2, "cannot halve a single-set cache");
        let half = CacheGeometry::new(geo.size_bytes() / 2, geo.associativity(), geo.block_bytes())
            .expect("halved geometry is valid");
        let layout = PhysicalLayout::new(
            half.num_sets(),
            half.associativity(),
            half.words_per_block(),
        );
        // The replica store competes with ordinary data for its half of
        // the cache; model its usable share as half of that half (the
        // [24] "dead block" supply is limited), so heavy write sets
        // overflow it and leave dirty blocks unprotected.
        let replica_capacity = geo.size_bytes() / 4 / geo.block_bytes();
        IcrCache {
            inner: Cache::new(half, policy),
            parity: vec![0; layout.num_rows()],
            code: InterleavedParity::new(parity_ways),
            layout,
            replicas: Vec::new(),
            replica_capacity,
            stats: IcrStats::default(),
        }
    }

    /// Generic cache statistics (of the halved data side — its miss
    /// rate is the scheme's capacity penalty).
    #[must_use]
    pub fn cache_stats(&self) -> &CacheStats {
        self.inner.stats()
    }

    /// ICR-specific statistics.
    #[must_use]
    pub fn stats(&self) -> &IcrStats {
        &self.stats
    }

    /// The physical layout of the data side (for fault targeting).
    #[must_use]
    pub fn layout(&self) -> &PhysicalLayout {
        &self.layout
    }

    fn refresh_parity(&mut self, set: usize, way: usize, w: usize) {
        let row = self.layout.row_of(set, way, w);
        self.parity[row] = self.code.encode(self.inner.block(set, way).word(w));
    }

    fn replica_of(&self, base: u64) -> Option<&Vec<u64>> {
        self.replicas
            .iter()
            .find(|(b, _)| *b == base)
            .map(|(_, w)| w)
    }

    fn upsert_replica(&mut self, base: u64, words: Vec<u64>) {
        self.stats.replica_writes += words.len() as u64;
        if let Some(entry) = self.replicas.iter_mut().find(|(b, _)| *b == base) {
            entry.1 = words;
            return;
        }
        if self.replicas.len() == self.replica_capacity {
            self.replicas.remove(0);
            self.stats.unprotected_evictions += 1;
        }
        self.replicas.push((base, words));
    }

    fn drop_replica(&mut self, base: u64) {
        self.replicas.retain(|(b, _)| *b != base);
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
        // The evicted block's replica (if any) is obsolete once the
        // write-back lands below.
        if self.inner.block(set, way).is_valid() {
            let base = self.inner.block_address(set, way);
            self.drop_replica(base);
        }
        let _ = self.inner.fill_into(addr, way, backing);
        for w in 0..self.inner.geometry().words_per_block() {
            self.refresh_parity(set, way, w);
        }
        (set, way)
    }

    /// Loads a word; a faulty clean word re-fetches, a faulty dirty
    /// word recovers from its replica.
    ///
    /// # Errors
    ///
    /// Returns [`UnrecoverableFault::DirtyParityFault`] when a dirty
    /// word is faulty and its replica was dropped.
    pub fn load_word<B: Backing>(
        &mut self,
        addr: u64,
        backing: &mut B,
    ) -> Result<u64, UnrecoverableFault> {
        let (set, way) = self.ensure_resident(addr, false, backing);
        let w = self.inner.geometry().word_index(addr);
        let row = self.layout.row_of(set, way, w);
        let value = self.inner.block(set, way).word(w);
        if self.code.syndrome(value, self.parity[row]) == 0 {
            return Ok(value);
        }
        if !self.inner.block(set, way).is_word_dirty(w) {
            let base = self.inner.block_address(set, way);
            let data = backing.fetch_block(base, self.inner.geometry().words_per_block());
            self.inner.block_mut(set, way).patch_word(w, data[w]);
            self.refresh_parity(set, way, w);
            return Ok(data[w]);
        }
        let base = self.inner.block_address(set, way);
        let Some(replica) = self.replica_of(base).cloned() else {
            self.stats.dues += 1;
            return Err(UnrecoverableFault::DirtyParityFault);
        };
        let good = replica[w];
        self.inner.block_mut(set, way).patch_word(w, good);
        self.refresh_parity(set, way, w);
        self.stats.recovered += 1;
        Ok(good)
    }

    /// Stores a word: the data write plus the replica write — ICR's
    /// doubled write energy.
    pub fn store_word<B: Backing>(&mut self, addr: u64, value: u64, backing: &mut B) {
        let (set, way) = self.ensure_resident(addr, true, backing);
        let w = self.inner.geometry().word_index(addr);
        self.inner.store_word_in_place(set, way, w, value);
        self.refresh_parity(set, way, w);
        let base = self.inner.block_address(set, way);
        let words = self.inner.block(set, way).words().to_vec();
        self.upsert_replica(base, words);
    }

    /// Stores one byte: data write plus replica refresh.
    pub fn store_byte<B: Backing>(&mut self, addr: u64, value: u8, backing: &mut B) {
        let (set, way) = self.ensure_resident(addr, true, backing);
        let w = self.inner.geometry().word_index(addr);
        let byte = self.inner.geometry().byte_in_word(addr);
        self.inner.store_byte_in_place(set, way, w, byte, value);
        self.refresh_parity(set, way, w);
        let base = self.inner.block_address(set, way);
        let words = self.inner.block(set, way).words().to_vec();
        self.upsert_replica(base, words);
    }

    /// Applies a fault pattern to the data side; returns bits flipped.
    pub fn inject(&mut self, pattern: &FaultPattern) -> usize {
        crate::scheme::apply_masks(&mut self.inner, &self.layout, pattern.row_masks())
    }

    /// Reads a resident word without side effects.
    #[must_use]
    pub fn peek_word(&self, addr: u64) -> Option<u64> {
        self.inner.peek_word(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cppc_cache_sim::memory::MainMemory;
    use cppc_fault::model::BitFlip;

    fn build() -> (IcrCache, MainMemory) {
        (
            IcrCache::new(
                CacheGeometry::new(2048, 2, 32).unwrap(),
                8,
                ReplacementPolicy::Lru,
            ),
            MainMemory::new(),
        )
    }

    #[test]
    fn recovers_dirty_fault_from_replica() {
        let (mut c, mut m) = build();
        c.store_word(0x40, 0xABCD, &mut m);
        let (set, way) = (c.inner.geometry().set_index(0x40), 0);
        let row = c.layout().row_of(set, way, 0);
        c.inject(&FaultPattern::new(vec![BitFlip { row, col: 5 }]));
        assert_eq!(c.load_word(0x40, &mut m).unwrap(), 0xABCD);
        assert_eq!(c.stats().recovered, 1);
    }

    #[test]
    fn dropped_replica_means_due() {
        let (mut c, mut m) = build();
        // 20 dirty blocks fit the 32-block data side but overflow the
        // 16-block replica store.
        for i in 0..20u64 {
            c.store_word(i * 32, i, &mut m);
        }
        assert!(c.stats().unprotected_evictions > 0);
        // Block 0 is still resident but its replica is gone.
        let (set, way) = c.inner.probe(0).expect("block 0 resident");
        let row = c.layout().row_of(set, way, 0);
        c.inject(&FaultPattern::new(vec![BitFlip { row, col: 0 }]));
        assert_eq!(
            c.load_word(0, &mut m),
            Err(UnrecoverableFault::DirtyParityFault)
        );
        assert_eq!(c.stats().dues, 1);
    }

    #[test]
    fn halved_capacity_hurts_miss_rate() {
        // The §2 critique quantified: same nominal size, higher misses.
        use cppc_cache_sim::Cache;
        let geo = CacheGeometry::new(2048, 2, 32).unwrap();
        let mut icr = IcrCache::new(geo, 8, ReplacementPolicy::Lru);
        let mut full = Cache::new(geo, ReplacementPolicy::Lru);
        let (mut m1, mut m2) = (MainMemory::new(), MainMemory::new());
        // Working set that fits 2KB but not 1KB.
        for round in 0..20 {
            let _ = round;
            for i in 0..48u64 {
                let _ = icr.load_word(i * 32, &mut m1);
                let _ = full.load_word(i * 32, &mut m2);
            }
        }
        assert!(
            icr.cache_stats().miss_rate() > 1.5 * full.stats().miss_rate(),
            "ICR {} vs full {}",
            icr.cache_stats().miss_rate(),
            full.stats().miss_rate()
        );
    }

    #[test]
    fn replica_writes_double_store_energy() {
        let (mut c, mut m) = build();
        c.store_word(0x40, 1, &mut m);
        c.store_word(0x40, 2, &mut m);
        assert!(c.stats().replica_writes >= 8, "whole-block replica writes");
    }

    #[test]
    fn clean_fault_refetches() {
        let (mut c, mut m) = build();
        m.write_word(0x40, 77);
        assert_eq!(c.load_word(0x40, &mut m).unwrap(), 77);
        let (set, way) = c.inner.probe(0x40).unwrap();
        let row = c.layout().row_of(set, way, 0);
        c.inject(&FaultPattern::new(vec![BitFlip { row, col: 9 }]));
        assert_eq!(c.load_word(0x40, &mut m).unwrap(), 77);
    }

    #[test]
    fn eviction_drops_replica() {
        let (mut c, mut m) = build();
        c.store_word(0x40, 5, &mut m);
        // Evict by filling the set (halved cache: 16 sets, stride 512).
        let _ = c.load_word(0x40 + 512, &mut m);
        let _ = c.load_word(0x40 + 1024, &mut m);
        assert_eq!(m.peek_word(0x40), 5, "written back");
        assert!(c.replica_of(0x40).is_none(), "replica dropped on eviction");
    }
}
