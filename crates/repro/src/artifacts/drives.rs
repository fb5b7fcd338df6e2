//! The Table 1 drives the paper artifacts share.
//!
//! `table2_dirty` and the `ablations` port study read the same 15
//! streams at 300k ops; `fig10_cpi` and `energy_comparison` the same 15
//! at 120k. Each window is driven once per process at [`EVAL_SEED`],
//! and every artifact that asks for it reads the same [`RunResult`]s;
//! a scheme's CPI is then one `breakdown_from_stats` away.

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

use cppc_bench::EVAL_SEED;
use cppc_timing::{MachineConfig, RunResult, TimingModel};
use cppc_workloads::{spec2000_profiles, BenchmarkProfile};

/// Every benchmark profile with its [`TimingModel::drive`] at `ops`
/// memory operations.
pub(super) fn table1(ops: usize) -> impl Iterator<Item = (BenchmarkProfile, &'static RunResult)> {
    spec2000_profiles().into_iter().zip(runs(ops))
}

/// The memo behind [`table1`]: the drives in `spec2000_profiles()`
/// order.
fn runs(ops: usize) -> &'static [RunResult] {
    type Slot = &'static OnceLock<Vec<RunResult>>;
    static MEMO: Mutex<BTreeMap<usize, Slot>> = Mutex::new(BTreeMap::new());
    // The lock covers only the lookup, so a window is driven once while
    // different windows may be driven at the same time.
    let slot: Slot = *MEMO
        .lock()
        .expect("drive memo")
        .entry(ops)
        .or_insert_with(|| Box::leak(Box::default()));
    slot.get_or_init(|| {
        let model = TimingModel::new(MachineConfig::table1());
        spec2000_profiles()
            .iter()
            .map(|p| model.drive(p, ops, EVAL_SEED))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_window_is_driven_once() {
        let first = runs(2_000);
        assert!(std::ptr::eq(first, runs(2_000)), "memo hit");
        let model = TimingModel::new(MachineConfig::table1());
        let paired: Vec<_> = table1(2_000).collect();
        assert_eq!(paired.len(), spec2000_profiles().len());
        for (profile, run) in paired {
            assert_eq!(
                *run,
                model.drive(&profile, 2_000, EVAL_SEED),
                "{}",
                profile.name
            );
        }
    }
}
