//! Shared experiment code: the bodies the `cppc-repro` paper artifacts,
//! the campaign kinds and the benchmarks run.
//!
//! The paper's tables and figures, the §7 explorations and the design
//! ablations are `cppc-repro` artifacts (see `EXPERIMENTS.md`); the
//! binaries in `src/bin/` are the BENCH gates. This library holds what
//! they share: the functional simulation runner, the experiment bodies
//! ([`experiments`], [`mbe`]) and the evaluation defaults.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod gate;
pub mod mbe;
pub mod microbench;
pub mod obs;

use cppc_cache_sim::hierarchy::TwoLevelHierarchy;
use cppc_cache_sim::replacement::ReplacementPolicy;
use cppc_cache_sim::stats::CacheStats;
use cppc_timing::MachineConfig;
use cppc_workloads::{BenchmarkProfile, SharedTrace};

/// Seed shared by the paper artifacts so every scheme sees the same
/// access stream.
pub const EVAL_SEED: u64 = 0x15CA_2011;

/// The result of running one benchmark through the Table 1 hierarchy.
#[derive(Debug, Clone, Copy)]
pub struct RunResult {
    /// L1 statistics.
    pub l1: CacheStats,
    /// L2 statistics.
    pub l2: CacheStats,
    /// Mean fraction of dirty L1 words.
    pub l1_dirty_fraction: f64,
    /// Mean fraction of dirty L2 words.
    pub l2_dirty_fraction: f64,
    /// Mean cycles between accesses to the same dirty L1 word.
    pub l1_tavg: Option<f64>,
    /// Mean cycles between accesses to the same dirty L2 block.
    pub l2_tavg: Option<f64>,
}

/// Runs `profile` for `ops` operations through the paper's Table 1
/// hierarchy and collects every statistic the figures need.
///
/// `Tavg` is counted in cycles at the profile's instructions per memory
/// operation (an assumed CPI of 1), rounded and at least 1.
///
/// # Panics
///
/// Panics if the Table 1 geometries are invalid (they are not).
#[must_use]
pub fn run_profile(profile: &BenchmarkProfile, ops: usize, seed: u64) -> RunResult {
    let trace = SharedTrace::generate(profile, seed, ops / 2 + ops);
    let machine = MachineConfig::table1();
    let l1 = machine.l1d.geometry().expect("valid L1");
    let l2 = machine.l2.geometry().expect("valid L2");
    let mut h = TwoLevelHierarchy::new(l1, l2, ReplacementPolicy::Lru);
    h.set_cycles_per_op(profile.instructions_per_memop().round().max(1.0) as u64);
    h.set_sample_interval(2048);
    // Warm the hierarchy for half the trace length, then measure: the
    // paper's 100M-instruction Simpoints amortise compulsory misses
    // that would otherwise dominate a short synthetic trace.
    let mut replay = trace.replay();
    h.run(replay.by_ref().take(ops / 2));
    h.reset_stats();
    h.run(replay.take(ops));
    let (l1_stats, l2_stats) = h.stats();
    RunResult {
        l1: l1_stats,
        l2: l2_stats,
        l1_dirty_fraction: h.l1_dirty_fraction(),
        l2_dirty_fraction: h.l2_dirty_fraction(),
        l1_tavg: h.l1_tavg(),
        l2_tavg: h.l2_tavg(),
    }
}

/// Arithmetic mean.
///
/// # Panics
///
/// Panics if `values` is empty.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of nothing");
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use cppc_workloads::spec2000_profiles;

    #[test]
    fn run_profile_produces_stats() {
        let p = &spec2000_profiles()[0];
        let r = run_profile(p, 20_000, 1);
        assert!(r.l1.accesses() == 20_000);
        assert!(r.l1_dirty_fraction > 0.0);
        assert!(r.l1_tavg.is_some());
    }

    #[test]
    fn mean_basics() {
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
    }
}
