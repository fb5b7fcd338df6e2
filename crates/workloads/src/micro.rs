//! Microbenchmark access patterns for the scheme benches.

use cppc_cache_sim::hierarchy::MemOp;
use cppc_campaign::rng::rngs::StdRng;
use cppc_campaign::rng::{RngExt, SeedableRng};

/// `n` uniformly random operations over `range_bytes`, with the given
/// store fraction. Deterministic in `seed`.
///
/// # Panics
///
/// Panics if `range_bytes < 8` or `store_fraction` outside [0, 1].
#[must_use]
pub fn random_mix(n: usize, range_bytes: u64, store_fraction: f64, seed: u64) -> Vec<MemOp> {
    assert!(range_bytes >= 8, "range must hold at least one word");
    assert!((0.0..=1.0).contains(&store_fraction), "fraction in [0,1]");
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let addr = rng.random_range(0..range_bytes) & !7;
            if rng.random_bool(store_fraction) {
                MemOp::Store(addr, rng.random())
            } else {
                MemOp::Load(addr)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_mix_fraction() {
        let ops = random_mix(10_000, 1 << 20, 0.3, 1);
        let stores = ops.iter().filter(|o| o.is_store()).count();
        assert!((stores as f64 / 10_000.0 - 0.3).abs() < 0.03);
    }

    #[test]
    fn deterministic() {
        assert_eq!(random_mix(100, 4096, 0.5, 7), random_mix(100, 4096, 0.5, 7));
    }
}
