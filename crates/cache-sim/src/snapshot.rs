//! Warm-state snapshots of the simulator substrate.
//!
//! A fault-injection trial spends most of its time rebuilding the same
//! warm cache state from cold before injecting a single fault. These
//! snapshot types capture that state once — the flat SoA arenas make
//! the capture a handful of `memcpy`s — so every subsequent trial
//! restores into its *existing* arenas instead of replaying the warmup:
//!
//! * [`CacheSnapshot`] — tags/valid/dirty/words arenas, the replacement
//!   arena, statistics and the incremental counters of a
//!   [`crate::Cache`].
//! * [`MemorySnapshot`] — page table, word arena and traffic counters
//!   of a [`crate::MainMemory`].
//!
//! Restore is allocation-free in steady state: a snapshot is only valid
//! for a simulator of the identical geometry (enforced by length
//! asserts), so every `copy_from_slice` lands in place. Capture and
//! restore methods live on the simulator types themselves
//! ([`crate::Cache::snapshot`], [`crate::MainMemory::restore_snapshot`],
//! …); the structs here just own the saved state.

use crate::replacement::ReplacementArena;
use crate::stats::CacheStats;
use crate::wordmap::WordMap;

/// Saved warm state of a [`crate::Cache`].
///
/// Produced by [`crate::Cache::snapshot`] /
/// [`crate::Cache::capture_snapshot`]; consumed by
/// [`crate::Cache::restore_snapshot`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CacheSnapshot {
    pub(crate) tags: Vec<u64>,
    pub(crate) valid: Vec<bool>,
    pub(crate) dirty: Vec<u64>,
    pub(crate) words: Vec<u64>,
    pub(crate) repl: ReplacementArena,
    pub(crate) stats: CacheStats,
    pub(crate) dirty_words: u64,
    pub(crate) scrub_cursor: usize,
    pub(crate) scratch_fetches: u64,
}

impl CacheSnapshot {
    /// Approximate heap bytes held by this snapshot (arena payloads;
    /// feeds the `snapshot.bytes` campaign gauge).
    #[must_use]
    pub fn bytes(&self) -> u64 {
        (self.tags.len() * 8
            + self.valid.len()
            + self.dirty.len() * 8
            + self.words.len() * 8
            + self.repl.bytes()) as u64
    }
}

/// Saved warm state of a [`crate::MainMemory`].
///
/// Produced by [`crate::MainMemory::snapshot`]; consumed by
/// [`crate::MainMemory::restore_snapshot`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MemorySnapshot {
    pub(crate) pages: WordMap<usize>,
    pub(crate) arena: Vec<u64>,
    pub(crate) nonzero: usize,
    pub(crate) reads: u64,
    pub(crate) writes: u64,
}

impl MemorySnapshot {
    /// Approximate heap bytes held by this snapshot.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        (self.arena.len() * 8 + self.pages.len() * 16) as u64
    }
}

#[cfg(test)]
mod tests {
    use crate::geometry::CacheGeometry;
    use crate::memory::MainMemory;
    use crate::replacement::ReplacementPolicy;
    use crate::Cache;

    fn warm_pair() -> (Cache, MainMemory) {
        let geo = CacheGeometry::new(2048, 2, 32).unwrap();
        let mut mem = MainMemory::new();
        let mut cache = Cache::new(geo, ReplacementPolicy::Lru);
        for i in 0..512u64 {
            cache.store_word(i * 8, i.wrapping_mul(0x9E37), &mut mem);
            if i % 3 == 0 {
                cache.load_word(i * 8, &mut mem);
            }
        }
        (cache, mem)
    }

    #[test]
    fn cache_restore_reproduces_captured_state() {
        let (mut cache, mut mem) = warm_pair();
        let cache_snap = cache.snapshot();
        let mem_snap = mem.snapshot();
        let stats_at_capture = *cache.stats();
        let dirty_at_capture = cache.dirty_word_count();
        let reads_at_capture = mem.reads();

        // Diverge well past the captured state.
        for i in 0..256u64 {
            cache.store_word(0x4000 + i * 8, i, &mut mem);
        }
        cache.flush(&mut mem);
        assert_ne!(*cache.stats(), stats_at_capture);

        cache.restore_snapshot(&cache_snap);
        mem.restore_snapshot(&mem_snap);
        assert_eq!(*cache.stats(), stats_at_capture);
        assert_eq!(cache.dirty_word_count(), dirty_at_capture);
        assert_eq!(mem.reads(), reads_at_capture);
        // The restored image matches a second capture bit for bit.
        assert_eq!(cache.snapshot(), cache_snap);
        assert_eq!(mem.snapshot(), mem_snap);
        assert!(cache_snap.bytes() > 0);
        assert!(mem_snap.bytes() > 0);
    }

    #[test]
    fn dirty_word_iteration_matches_blockwise_scan() {
        let (cache, _mem) = warm_pair();
        let walked: Vec<_> = cache.iter_dirty_words().collect();
        let scanned: Vec<_> = cache
            .iter_blocks()
            .flat_map(|(s, w, b)| {
                (0..b.words().len())
                    .filter(move |&i| b.is_word_dirty(i))
                    .map(move |i| (s, w, i, b.word(i)))
            })
            .collect();
        assert!(!walked.is_empty());
        assert_eq!(walked, scanned);
    }

    #[test]
    #[should_panic(expected = "different geometry")]
    fn cache_restore_rejects_other_geometry() {
        let (cache, _mem) = warm_pair();
        let snap = cache.snapshot();
        let other_geo = CacheGeometry::new(4096, 4, 32).unwrap();
        Cache::new(other_geo, ReplacementPolicy::Lru).restore_snapshot(&snap);
    }
}
