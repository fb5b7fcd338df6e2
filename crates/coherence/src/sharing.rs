//! Multiprocessor trace generation with a tunable sharing degree.

use cppc_campaign::rng::rngs::StdRng;
use cppc_campaign::rng::{RngExt, SeedableRng};

use crate::system::CoreOp;

/// Generates a deterministic multiprocessor trace: each core mostly
/// works in a private region, but a `sharing_fraction` of its accesses
/// (loads and stores alike) target a region shared by all cores —
/// the knob for §7's invalidation-rate experiment.
#[derive(Debug)]
pub struct SharedTraceGenerator {
    rng: StdRng,
    cores: usize,
    private_bytes: u64,
    shared_bytes: u64,
    sharing_fraction: f64,
    store_fraction: f64,
    next_core: usize,
}

impl SharedTraceGenerator {
    /// Creates a generator for `cores` cores.
    ///
    /// * `private_bytes` — per-core private region size;
    /// * `shared_bytes` — size of the region all cores contend on;
    /// * `sharing_fraction` — probability an access targets the shared
    ///   region;
    /// * `store_fraction` — probability an access is a store.
    ///
    /// # Panics
    ///
    /// Panics if any size is below one word, `cores` is zero, or a
    /// fraction is outside `[0, 1]`.
    #[must_use]
    pub fn new(
        cores: usize,
        private_bytes: u64,
        shared_bytes: u64,
        sharing_fraction: f64,
        store_fraction: f64,
        seed: u64,
    ) -> Self {
        assert!(cores > 0, "need cores");
        assert!(private_bytes >= 8 && shared_bytes >= 8, "regions too small");
        assert!((0.0..=1.0).contains(&sharing_fraction), "fraction in [0,1]");
        assert!((0.0..=1.0).contains(&store_fraction), "fraction in [0,1]");
        SharedTraceGenerator {
            rng: StdRng::seed_from_u64(seed),
            cores,
            private_bytes,
            shared_bytes,
            sharing_fraction,
            store_fraction,
            next_core: 0,
        }
    }

    /// Generates the next operation (cores issue round-robin).
    pub fn step(&mut self) -> CoreOp {
        let core = self.next_core;
        self.next_core = (self.next_core + 1) % self.cores;

        let addr = if self.rng.random_bool(self.sharing_fraction) {
            // Shared region sits at the top of the address space.
            0x1000_0000 + (self.rng.random_range(0..self.shared_bytes) & !7)
        } else {
            // Private regions are disjoint per core.
            (core as u64 + 1) * 0x10_0000 + (self.rng.random_range(0..self.private_bytes) & !7)
        };
        if self.rng.random_bool(self.store_fraction) {
            CoreOp::Store {
                core,
                addr,
                value: self.rng.random(),
            }
        } else {
            CoreOp::Load { core, addr }
        }
    }
}

impl Iterator for SharedTraceGenerator {
    type Item = CoreOp;

    fn next(&mut self) -> Option<CoreOp> {
        Some(self.step())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CppcCoherentSystem;
    use cppc_cache_sim::geometry::CacheGeometry;
    use cppc_cache_sim::replacement::ReplacementPolicy;
    use cppc_core::CppcConfig;

    fn run(sharing: f64) -> (f64, u64) {
        let mut sys = CppcCoherentSystem::new(
            2,
            CacheGeometry::new(4096, 2, 32).unwrap(),
            CacheGeometry::new(32 * 1024, 4, 32).unwrap(),
            CppcConfig::paper(),
            ReplacementPolicy::Lru,
        );
        let mut stores = 0u64;
        for op in SharedTraceGenerator::new(2, 2048, 512, sharing, 0.4, 7).take(40_000) {
            if matches!(op, CoreOp::Store { .. }) {
                stores += 1;
            }
            sys.step(op).unwrap();
        }
        let rbw_rate = sys.total_read_before_writes() as f64 / stores as f64;
        (rbw_rate, sys.stats().dirty_invalidations)
    }

    #[test]
    fn determinism() {
        let a: Vec<_> = SharedTraceGenerator::new(2, 1024, 256, 0.3, 0.4, 1)
            .take(100)
            .collect();
        let b: Vec<_> = SharedTraceGenerator::new(2, 1024, 256, 0.3, 0.4, 1)
            .take(100)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn round_robin_cores() {
        let ops: Vec<_> = SharedTraceGenerator::new(3, 1024, 256, 0.5, 0.5, 2)
            .take(6)
            .collect();
        let core_of = |op: &CoreOp| match *op {
            CoreOp::Load { core, .. } | CoreOp::Store { core, .. } => core,
        };
        assert_eq!(
            ops.iter().map(core_of).collect::<Vec<_>>(),
            vec![0, 1, 2, 0, 1, 2]
        );
    }

    #[test]
    fn sharing_reduces_read_before_writes() {
        // §7's hypothesis, measured: more sharing → more dirty
        // invalidations → fewer stores land on locally-dirty words.
        let (rbw_none, inv_none) = run(0.0);
        let (rbw_high, inv_high) = run(0.6);
        assert_eq!(inv_none, 0);
        assert!(inv_high > 1_000, "sharing causes dirty invalidations");
        assert!(
            rbw_high < rbw_none,
            "rbw rate with sharing {rbw_high} vs private-only {rbw_none}"
        );
    }
}
