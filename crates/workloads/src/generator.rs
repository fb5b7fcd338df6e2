//! The deterministic trace generator.

use cppc_cache_sim::hierarchy::MemOp;
use cppc_campaign::rng::rngs::StdRng;
use cppc_campaign::rng::{RngExt, SeedableRng};

use crate::profile::BenchmarkProfile;

/// Ring capacity for the recently-touched-word pool.
const REUSE_POOL: usize = 192;
/// Ring capacity for the recently-stored-word pool.
const STORE_POOL: usize = 48;

/// Generates an endless, deterministic stream of [`MemOp`]s matching a
/// [`BenchmarkProfile`]. Implements [`Iterator`].
///
/// # Example
///
/// ```
/// use cppc_workloads::{spec2000_profiles, TraceGenerator};
///
/// let profiles = spec2000_profiles();
/// let trace: Vec<_> = TraceGenerator::new(&profiles[0], 42).take(1000).collect();
/// assert_eq!(trace.len(), 1000);
/// ```
#[derive(Debug)]
pub struct TraceGenerator {
    profile: BenchmarkProfile,
    rng: StdRng,
    recent: Vec<u64>,
    recent_pos: usize,
    recent_stores: Vec<u64>,
    recent_stores_pos: usize,
    cursor: u64,
    store_cursor: u64,
}

impl TraceGenerator {
    /// Creates a generator for `profile` seeded with `seed`.
    #[must_use]
    pub fn new(profile: &BenchmarkProfile, seed: u64) -> Self {
        TraceGenerator {
            profile: *profile,
            rng: StdRng::seed_from_u64(seed),
            recent: Vec::with_capacity(REUSE_POOL),
            recent_pos: 0,
            recent_stores: Vec::with_capacity(STORE_POOL),
            recent_stores_pos: 0,
            cursor: 0,
            store_cursor: 0,
        }
    }

    /// The profile being generated.
    #[must_use]
    pub fn profile(&self) -> &BenchmarkProfile {
        &self.profile
    }

    fn remember(&mut self, addr: u64) {
        if self.recent.len() < REUSE_POOL {
            self.recent.push(addr);
        } else {
            self.recent[self.recent_pos] = addr;
            self.recent_pos = (self.recent_pos + 1) % REUSE_POOL;
        }
    }

    fn remember_store(&mut self, addr: u64) {
        if self.recent_stores.len() < STORE_POOL {
            self.recent_stores.push(addr);
        } else {
            self.recent_stores[self.recent_stores_pos] = addr;
            self.recent_stores_pos = (self.recent_stores_pos + 1) % STORE_POOL;
        }
    }

    fn pick_address(&mut self) -> u64 {
        let p = self.profile;
        let roll: f64 = self.rng.random();
        let addr = if roll < p.seq_prob {
            // Sequential runs stream through the hot region (real loops
            // walk arrays that mostly fit the upper cache levels).
            self.cursor = (self.cursor + 8) % p.hot_set_bytes;
            self.cursor
        } else if roll < p.seq_prob + p.reuse_prob && !self.recent.is_empty() {
            let i = self.rng.random_range(0..self.recent.len());
            self.recent[i]
        } else if self.rng.random_bool(p.hot_prob) {
            self.rng.random_range(0..p.hot_set_bytes) & !7
        } else {
            self.rng.random_range(0..p.working_set_bytes) & !7
        };
        addr & !7
    }

    /// Generates the next operation.
    pub fn step(&mut self) -> MemOp {
        let p = self.profile;
        let is_store = self.rng.random_bool(p.store_fraction());
        let addr = if is_store && self.rng.random_bool(p.store_stream_prob) {
            // Write-once streaming store: advance through the working
            // set; the word is fresh (clean) virtually every time.
            self.store_cursor = (self.store_cursor + 8) % p.working_set_bytes;
            self.store_cursor
        } else if is_store
            && !self.recent_stores.is_empty()
            && self.rng.random_bool(p.store_reuse_prob)
        {
            let i = self.rng.random_range(0..self.recent_stores.len());
            self.recent_stores[i]
        } else {
            let mut a = self.pick_address();
            // Stores write a narrower slice of the hot region than loads
            // read (see `store_region_fraction`).
            if is_store && a < p.hot_set_bytes && p.store_region_fraction < 1.0 {
                let region =
                    ((p.hot_set_bytes as f64 * p.store_region_fraction) as u64).max(64) & !7;
                a %= region;
            }
            a
        };
        self.remember(addr);
        if is_store {
            self.remember_store(addr);
            if self.rng.random_bool(p.byte_store_fraction) {
                // A partial store: pick a byte lane within the word.
                let lane = self.rng.random_range(0..8u64);
                MemOp::StoreByte(addr | lane, self.rng.random())
            } else {
                MemOp::Store(addr, self.rng.random())
            }
        } else {
            MemOp::Load(addr)
        }
    }
}

impl Iterator for TraceGenerator {
    type Item = MemOp;

    fn next(&mut self) -> Option<MemOp> {
        Some(self.step())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::spec2000_profiles;
    use cppc_cache_sim::geometry::CacheGeometry;
    use cppc_cache_sim::hierarchy::TwoLevelHierarchy;
    use cppc_cache_sim::replacement::ReplacementPolicy;

    fn hierarchy() -> TwoLevelHierarchy {
        // The paper's Table 1 configuration.
        let l1 = CacheGeometry::new(32 * 1024, 2, 32).unwrap();
        let l2 = CacheGeometry::new(1024 * 1024, 4, 32).unwrap();
        TwoLevelHierarchy::new(l1, l2, ReplacementPolicy::Lru)
    }

    #[test]
    fn deterministic_across_instances() {
        let p = &spec2000_profiles()[2];
        let a: Vec<_> = TraceGenerator::new(p, 9).take(500).collect();
        let b: Vec<_> = TraceGenerator::new(p, 9).take(500).collect();
        assert_eq!(a, b);
        let c: Vec<_> = TraceGenerator::new(p, 10).take(500).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn addresses_word_aligned_and_bounded() {
        let p = &spec2000_profiles()[0];
        for op in TraceGenerator::new(p, 1).take(5_000) {
            match op {
                MemOp::StoreByte(a, _) => assert!(a < p.working_set_bytes + 8),
                other => {
                    assert_eq!(other.addr() % 8, 0);
                    assert!(other.addr() < p.working_set_bytes);
                }
            }
        }
    }

    #[test]
    fn byte_stores_present_when_configured() {
        let profiles = spec2000_profiles();
        let gzip = profiles.iter().find(|p| p.name == "gzip").unwrap();
        let n = 20_000;
        let byte_stores = TraceGenerator::new(gzip, 3)
            .take(n)
            .filter(|op| matches!(op, MemOp::StoreByte(..)))
            .count();
        let stores = TraceGenerator::new(gzip, 3)
            .take(n)
            .filter(MemOp::is_store)
            .count();
        let frac = byte_stores as f64 / stores as f64;
        assert!((frac - gzip.byte_store_fraction).abs() < 0.03, "{frac}");
        // swim has none.
        let swim = profiles.iter().find(|p| p.name == "swim").unwrap();
        let none = TraceGenerator::new(swim, 3)
            .take(n)
            .filter(|op| matches!(op, MemOp::StoreByte(..)))
            .count();
        assert_eq!(none, 0);
    }

    #[test]
    fn store_fraction_near_profile() {
        let p = &spec2000_profiles()[3]; // mcf
        let n = 20_000;
        let stores = TraceGenerator::new(p, 5)
            .take(n)
            .filter(MemOp::is_store)
            .count();
        let measured = stores as f64 / n as f64;
        assert!(
            (measured - p.store_fraction()).abs() < 0.02,
            "measured {measured} vs {}",
            p.store_fraction()
        );
    }

    #[test]
    fn mcf_thrashes_l2() {
        let profiles = spec2000_profiles();
        let mcf = profiles.iter().find(|p| p.name == "mcf").unwrap();
        let mut h = hierarchy();
        h.run(TraceGenerator::new(mcf, 7).take(200_000));
        let miss_rate = h.stats().1.miss_rate();
        assert!(miss_rate > 0.5, "mcf L2 miss rate {miss_rate}");
    }

    #[test]
    fn cache_friendly_benchmarks_hit_l1() {
        let profiles = spec2000_profiles();
        let l1_miss = |name: &str| {
            let p = profiles.iter().find(|p| p.name == name).unwrap();
            let mut h = hierarchy();
            h.run(TraceGenerator::new(p, 7).take(100_000));
            h.stats().0.miss_rate()
        };
        for name in ["gzip", "eon", "crafty"] {
            let miss_rate = l1_miss(name);
            assert!(miss_rate < 0.18, "{name} L1 miss rate {miss_rate}");
        }
        // …and the thrasher misses far more often than the friendly ones.
        assert!(l1_miss("mcf") > 2.0 * l1_miss("eon"));
    }

    #[test]
    fn stores_to_dirty_words_occur() {
        // The CPPC read-before-write driver: a healthy fraction of
        // stores must land on already-dirty words.
        let profiles = spec2000_profiles();
        let mut total_ratio = 0.0;
        for p in &profiles {
            let mut h = hierarchy();
            h.run(TraceGenerator::new(p, 11).take(100_000));
            let s = h.stats().0;
            let ratio = s.stores_to_dirty as f64 / s.stores() as f64;
            assert!(ratio > 0.02, "{}: stores-to-dirty ratio {ratio}", p.name);
            total_ratio += ratio;
        }
        let avg = total_ratio / profiles.len() as f64;
        assert!((0.1..0.6).contains(&avg), "average stores-to-dirty {avg}");
    }

    #[test]
    fn dirty_residency_in_paper_range() {
        // Table 2: average dirty fraction ≈16% (L1) and ≈35% (L2).
        // Accept generous bands: 5–40% and 10–60%.
        let profiles = spec2000_profiles();
        let (mut l1_sum, mut l2_sum) = (0.0, 0.0);
        for p in &profiles {
            let mut h = hierarchy();
            h.set_sample_interval(4096);
            h.run(TraceGenerator::new(p, 13).take(300_000));
            l1_sum += h.l1_dirty_fraction();
            l2_sum += h.l2_dirty_fraction();
        }
        let l1_avg = l1_sum / profiles.len() as f64;
        let l2_avg = l2_sum / profiles.len() as f64;
        assert!((0.05..0.40).contains(&l1_avg), "L1 dirty avg {l1_avg}");
        assert!((0.10..0.60).contains(&l2_avg), "L2 dirty avg {l2_avg}");
    }
}
