//! Write-through cache.
//!
//! The paper's §1 framing: parity alone *is* sufficient for a
//! write-through L1, because every datum has an up-to-date copy below —
//! a detected fault is always recoverable by re-fetch. The cost is that
//! every store propagates to the next level immediately, which is why
//! "most caches today are write-back caches" and why write-back needs
//! real correction. This type provides that comparison point.

use crate::cache::{Backing, Cache};
use crate::geometry::CacheGeometry;
use crate::memory::MainMemory;
use crate::replacement::ReplacementPolicy;
use crate::stats::CacheStats;

/// A write-through, write-allocate cache. Contents are never dirty;
/// every store is forwarded to the backing store immediately.
///
/// # Example
///
/// ```
/// use cppc_cache_sim::write_through::WriteThroughCache;
/// use cppc_cache_sim::{CacheGeometry, MainMemory, ReplacementPolicy};
///
/// let geo = CacheGeometry::new(1024, 2, 32)?;
/// let mut mem = MainMemory::new();
/// let mut c = WriteThroughCache::new(geo, ReplacementPolicy::Lru);
/// c.store_word(0x40, 7, &mut mem);
/// assert_eq!(mem.peek_word(0x40), 7, "store reached memory immediately");
/// # Ok::<(), cppc_cache_sim::GeometryError>(())
/// ```
#[derive(Debug, Clone)]
pub struct WriteThroughCache {
    inner: Cache,
    store_traffic: u64,
    /// One-block scratch reused for every write-through transfer, so the
    /// per-store path allocates nothing.
    store_scratch: Vec<u64>,
}

impl WriteThroughCache {
    /// Creates an empty write-through cache.
    #[must_use]
    pub fn new(geo: CacheGeometry, policy: ReplacementPolicy) -> Self {
        WriteThroughCache {
            inner: Cache::new(geo, policy),
            store_traffic: 0,
            store_scratch: vec![0; geo.words_per_block()],
        }
    }

    /// Generic statistics (no write-backs will ever appear; stores to
    /// the next level are counted by [`WriteThroughCache::store_traffic`]).
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        self.inner.stats()
    }

    /// Next-level write accesses caused by stores — the scheme's energy
    /// burden.
    #[must_use]
    pub fn store_traffic(&self) -> u64 {
        self.store_traffic
    }

    /// The geometry.
    #[must_use]
    pub fn geometry(&self) -> &CacheGeometry {
        self.inner.geometry()
    }

    /// Loads a word, filling on a miss.
    pub fn load_word<B: Backing>(&mut self, addr: u64, backing: &mut B) -> u64 {
        self.inner.load_word(addr, backing)
    }

    /// Stores a word: updates the cached copy (if resident or after a
    /// write-allocate fill) and writes through to `backing`.
    pub fn store_word<B: Backing>(&mut self, addr: u64, value: u64, backing: &mut B) {
        let (set, way) = match self.inner.probe(addr) {
            Some(hit) => {
                self.inner.record_access(true, true);
                hit
            }
            None => {
                self.inner.record_access(true, false);
                let set = self.inner.geometry().set_index(addr);
                let way = self.inner.choose_way_for_fill(set);
                let _ = self.inner.fill_into(addr, way, backing);
                (set, way)
            }
        };
        let w = self.inner.geometry().word_index(addr);
        // Patch (not store): the cached copy never turns dirty.
        self.inner.block_mut(set, way).patch_word(w, value);
        self.inner.touch(set, way);
        let base = self.inner.geometry().block_base(addr);
        self.store_scratch[w] = value;
        backing.write_back(base, &self.store_scratch, 1 << w);
        self.store_traffic += 1;
    }

    /// Stores one byte, writing the merged word through.
    pub fn store_byte<B: Backing>(&mut self, addr: u64, value: u8, backing: &mut B) {
        let (set, way) = match self.inner.probe(addr) {
            Some(hit) => {
                self.inner.record_access(true, true);
                hit
            }
            None => {
                self.inner.record_access(true, false);
                let set = self.inner.geometry().set_index(addr);
                let way = self.inner.choose_way_for_fill(set);
                let _ = self.inner.fill_into(addr, way, backing);
                (set, way)
            }
        };
        let w = self.inner.geometry().word_index(addr);
        let byte = self.inner.geometry().byte_in_word(addr);
        let old = self.inner.block(set, way).word(w);
        let shift = 8 * byte as u32;
        let merged = (old & !(0xFFu64 << shift)) | (u64::from(value) << shift);
        self.inner.block_mut(set, way).patch_word(w, merged);
        self.inner.touch(set, way);
        let base = self.inner.geometry().block_base(addr);
        self.store_scratch[w] = merged;
        backing.write_back(base, &self.store_scratch, 1 << w);
        self.store_traffic += 1;
    }

    /// Number of dirty words — always zero, by construction.
    #[must_use]
    pub fn dirty_word_count(&self) -> u64 {
        self.inner.dirty_word_count()
    }

    /// Reads a resident word without side effects.
    #[must_use]
    pub fn peek_word(&self, addr: u64) -> Option<u64> {
        self.inner.peek_word(addr)
    }

    /// Simulates fault recovery for a detected parity error: since no
    /// word is ever dirty, the word is simply re-fetched. (Provided for
    /// parity — pun intended — with the protected write-back caches.)
    pub fn refetch_word(&mut self, addr: u64, mem: &mut MainMemory) -> Option<u64> {
        let (set, way) = self.inner.probe(addr)?;
        let w = self.inner.geometry().word_index(addr);
        let value = mem.peek_word(addr);
        self.inner.block_mut(set, way).patch_word(w, value);
        Some(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cppc_campaign::rng::rngs::StdRng;
    use cppc_campaign::rng::{RngExt, SeedableRng};

    fn build() -> (WriteThroughCache, MainMemory) {
        (
            WriteThroughCache::new(
                CacheGeometry::new(512, 2, 32).unwrap(),
                ReplacementPolicy::Lru,
            ),
            MainMemory::new(),
        )
    }

    #[test]
    fn stores_reach_memory_immediately() {
        let (mut c, mut m) = build();
        c.store_word(0x40, 7, &mut m);
        assert_eq!(m.peek_word(0x40), 7);
        assert_eq!(c.load_word(0x40, &mut m), 7);
        assert_eq!(c.store_traffic(), 1);
    }

    #[test]
    fn never_dirty() {
        let (mut c, mut m) = build();
        for i in 0..100u64 {
            c.store_word(i * 8, i, &mut m);
        }
        assert_eq!(c.dirty_word_count(), 0);
        assert_eq!(c.stats().writebacks, 0);
    }

    #[test]
    fn every_store_is_traffic() {
        let (mut c, mut m) = build();
        for _ in 0..50 {
            c.store_word(0x40, 1, &mut m); // same word, still traffic
        }
        assert_eq!(c.store_traffic(), 50);
    }

    #[test]
    fn fault_recovery_is_trivially_refetch() {
        let (mut c, mut m) = build();
        c.store_word(0x40, 0xAB, &mut m);
        // corrupt the cached copy
        let (set, way) = c.inner.probe(0x40).unwrap();
        c.inner.block_mut(set, way).xor_word(0, 1 << 3);
        assert_eq!(c.refetch_word(0x40, &mut m), Some(0xAB));
        assert_eq!(c.load_word(0x40, &mut m), 0xAB);
    }

    #[test]
    fn transparency_oracle() {
        let (mut c, mut m) = build();
        let mut rng = StdRng::seed_from_u64(5);
        let mut oracle = std::collections::HashMap::new();
        for _ in 0..10_000 {
            let addr = (rng.random_range(0..4096u64)) & !7;
            if rng.random_bool(0.4) {
                let v: u64 = rng.random();
                c.store_word(addr, v, &mut m);
                oracle.insert(addr, v);
                // Memory is always current — the write-through property.
                assert_eq!(m.peek_word(addr), v);
            } else {
                assert_eq!(c.load_word(addr, &mut m), *oracle.get(&addr).unwrap_or(&0));
            }
        }
    }
}
