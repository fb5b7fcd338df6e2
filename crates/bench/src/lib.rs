//! Shared experiment code: the bodies the `cppc-repro` paper artifacts,
//! the campaign kinds and the benchmarks run.
//!
//! The paper's tables and figures, the §7 explorations and the design
//! ablations are `cppc-repro` artifacts (see `EXPERIMENTS.md`); the
//! binaries in `src/bin/` are the BENCH gates. This library holds what
//! they share: the experiment bodies ([`experiments`], [`mbe`]) and the
//! evaluation defaults. The Table 1 hierarchy drive itself is
//! `cppc_timing::TimingModel::drive`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod gate;
pub mod mbe;
pub mod microbench;
pub mod obs;

/// Seed shared by the paper artifacts so every scheme sees the same
/// access stream.
pub const EVAL_SEED: u64 = 0x15CA_2011;

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

    #[test]
    fn mean_basics() {
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
    }
}
