//! Golden equivalence for the `ProtectionScheme` refactor: the four
//! ported schemes (`cppc`, `parity1d`, `secded-interleaved`,
//! `parity2d`) must reproduce the historical baked-in campaign
//! closures **bit for bit** — same tallies, same checkpoint bytes — at
//! 1, 2 and 8 threads.
//!
//! The "legacy" closures below are the pre-refactor campaign bodies,
//! kept inline here as the frozen reference: each drives the concrete
//! cache type directly (no trait), fills way 0 from the trial-seeded
//! RNG, strikes with the model's historical draw order (one `u64`
//! strike seed — or interleaved SECDED's two physical-range draws) and
//! classifies with the historical rules. If a scheme wrapper ever
//! consumes the RNG stream differently or reorders a classification
//! branch, these tests fail.

use std::path::PathBuf;

use cppc_bench::experiments::{inject_geometry, scheme_experiment};
use cppc_cache_sim::memory::MainMemory;
use cppc_cache_sim::replacement::ReplacementPolicy;
use cppc_campaign::rng::rngs::StdRng;
use cppc_campaign::rng::{RngExt, SeedableRng};
use cppc_campaign::{run, run_resumable, CampaignConfig, CheckpointPolicy};
use cppc_core::baselines::{OneDimParityCache, SecdedCache, TwoDimParityCache};
use cppc_core::{CppcCache, CppcConfig, SchemeKind};
use cppc_fault::campaign::{Outcome, OutcomeTally};
use cppc_fault::model::{FaultGenerator, FaultModel};

const SEED: u64 = 0xE0_17A1;
const TRIALS: u64 = 96;
const SHARD: u64 = 16;
const FAULT: FaultModel = FaultModel::SpatialSquare {
    rows: 4,
    cols: 4,
    density: 1.0,
};

/// The shared warm-up: fill way 0 with trial-seeded values through
/// `store`, returning ground truth. Identical to the fill loops of the
/// historical closures and of `scheme_experiment`.
fn fill(trial: u64, mut store: impl FnMut(u64, u64)) -> Vec<(u64, u64)> {
    let geo = inject_geometry();
    let mut rng = StdRng::seed_from_u64(trial);
    let mut truth = Vec::new();
    for set in 0..geo.num_sets() {
        for word in 0..geo.words_per_block() {
            let addr = geo.address_of(0, set) + (word * 8) as u64;
            let v: u64 = rng.random();
            store(addr, v);
            truth.push((addr, v));
        }
    }
    truth
}

/// Pre-refactor CPPC campaign body (`inject_experiment`'s protocol).
fn legacy_cppc(rng: &mut StdRng, trial: u64) -> Outcome {
    let mut mem = MainMemory::new();
    let mut cache = CppcCache::new_l1(
        inject_geometry(),
        CppcConfig::paper(),
        ReplacementPolicy::Lru,
    )
    .unwrap();
    let truth = fill(trial, |a, v| cache.store_word(a, v, &mut mem).unwrap());
    let mut generator = FaultGenerator::new(cache.layout().num_rows() / 2, rng.random());
    if cache.inject(&generator.sample(FAULT)) == 0 {
        return Outcome::Masked;
    }
    match cache.recover_all(&mut mem) {
        Err(_) => Outcome::DetectedUnrecoverable,
        Ok(_) => {
            if truth.iter().all(|&(a, v)| cache.peek_word(a) == Some(v)) {
                Outcome::Corrected
            } else {
                Outcome::SilentCorruption
            }
        }
    }
}

/// Pre-refactor 1D-parity campaign body (coverage-matrix protocol:
/// all loads surviving means the flips were parity-masked).
fn legacy_parity1d(rng: &mut StdRng, trial: u64) -> Outcome {
    let mut mem = MainMemory::new();
    let mut cache = OneDimParityCache::new(inject_geometry(), 8, ReplacementPolicy::Lru);
    let truth = fill(trial, |a, v| cache.store_word(a, v, &mut mem));
    let mut generator = FaultGenerator::new(cache.layout().num_rows() / 2, rng.random());
    if cache.inject(&generator.sample(FAULT)) == 0 {
        return Outcome::Masked;
    }
    for &(addr, v) in &truth {
        match cache.load_word(addr, &mut mem) {
            Err(_) => return Outcome::DetectedUnrecoverable,
            Ok(got) if got != v => return Outcome::SilentCorruption,
            Ok(_) => {}
        }
    }
    Outcome::Masked
}

/// Pre-refactor interleaved-SECDED campaign body, including the
/// physical-strike translation and its two-range RNG draw order.
fn legacy_secded(rng: &mut StdRng, trial: u64) -> Outcome {
    let mut mem = MainMemory::new();
    let mut cache = SecdedCache::new(inject_geometry(), true, ReplacementPolicy::Lru);
    let truth = fill(trial, |a, v| cache.store_word(a, v, &mut mem));
    let logical_rows = cache.layout().num_rows() / 2;
    let (rows, cols) = match FAULT {
        FaultModel::TemporalSingleBit | FaultModel::TemporalMultiBit { .. } => (1, 1),
        FaultModel::VerticalStripe { rows } => (rows, 1),
        FaultModel::HorizontalBurst { cols } => (1, cols),
        FaultModel::SpatialSquare { rows, cols, .. } => (rows, cols),
    };
    let physical_rows = logical_rows / 8;
    let prows = rows.div_ceil(8).max(1).min(physical_rows);
    let row0 = rng.random_range(0..=(physical_rows - prows));
    let col0 = rng.random_range(0..=(512 - cols));
    if cache.inject_spatial(row0, col0, prows, cols).is_empty() {
        return Outcome::Masked;
    }
    for &(addr, v) in &truth {
        match cache.load_word(addr, &mut mem) {
            Err(_) => return Outcome::DetectedUnrecoverable,
            Ok(got) if got != v => return Outcome::SilentCorruption,
            Ok(_) => {}
        }
    }
    Outcome::Corrected
}

/// Pre-refactor 2D-parity campaign body (one vertical row).
fn legacy_parity2d(rng: &mut StdRng, trial: u64) -> Outcome {
    let mut mem = MainMemory::new();
    let mut cache = TwoDimParityCache::new(inject_geometry(), 1, ReplacementPolicy::Lru);
    let truth = fill(trial, |a, v| cache.store_word(a, v, &mut mem));
    let mut generator = FaultGenerator::new(cache.layout().num_rows() / 2, rng.random());
    if cache.inject(&generator.sample(FAULT)) == 0 {
        return Outcome::Masked;
    }
    match cache.recover_all() {
        Err(_) => Outcome::DetectedUnrecoverable,
        Ok(()) => {
            if truth.iter().all(|&(a, v)| cache.peek_word(a) == Some(v)) {
                Outcome::Corrected
            } else {
                Outcome::SilentCorruption
            }
        }
    }
}

fn legacy_of(kind: SchemeKind) -> fn(&mut StdRng, u64) -> Outcome {
    match kind {
        SchemeKind::Cppc => legacy_cppc,
        SchemeKind::Parity1d => legacy_parity1d,
        SchemeKind::SecdedInterleaved => legacy_secded,
        SchemeKind::Parity2d => legacy_parity2d,
        other => panic!("{other} has no pre-refactor path"),
    }
}

const PORTED: [SchemeKind; 4] = [
    SchemeKind::Cppc,
    SchemeKind::Parity1d,
    SchemeKind::SecdedInterleaved,
    SchemeKind::Parity2d,
];

fn cfg(threads: usize) -> CampaignConfig {
    CampaignConfig::new(SEED, TRIALS)
        .threads(threads)
        .shard_size(SHARD)
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("cppc_scheme_equivalence");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Runs one experiment body through `run_resumable` (fresh checkpoint
/// file) and returns the tally plus the final checkpoint bytes.
fn run_checkpointed<F>(label: &str, threads: usize, experiment: F) -> (OutcomeTally, Vec<u8>)
where
    F: Fn(&mut StdRng, u64) -> Outcome + Sync,
{
    let path = tmp(&format!("{label}_{threads}.json"));
    let _ = std::fs::remove_file(&path);
    let policy = CheckpointPolicy {
        path: path.clone(),
        every: std::time::Duration::ZERO,
        resume: false,
    };
    let report = run_resumable::<OutcomeTally, _, _>(&cfg(threads), &policy, experiment, |_| {})
        .expect("campaign completes");
    assert!(report.is_complete());
    let bytes = std::fs::read(&path).expect("final checkpoint written");
    let _ = std::fs::remove_file(&path);
    (report.result, bytes)
}

#[test]
fn ported_schemes_match_legacy_tallies_and_checkpoint_bytes() {
    for kind in PORTED {
        let legacy = legacy_of(kind);
        for threads in [1usize, 2, 8] {
            let (legacy_tally, legacy_bytes) =
                run_checkpointed(&format!("legacy_{kind}"), threads, legacy);
            let (scheme_tally, scheme_bytes) = run_checkpointed(
                &format!("scheme_{kind}"),
                threads,
                scheme_experiment(kind, CppcConfig::paper(), FAULT),
            );
            assert_eq!(
                scheme_tally, legacy_tally,
                "{kind} tally diverged at {threads} threads"
            );
            assert_eq!(
                scheme_bytes, legacy_bytes,
                "{kind} checkpoint bytes diverged at {threads} threads"
            );
        }
    }
}

#[test]
fn tallies_are_thread_invariant_for_every_scheme() {
    // The zoo additions have no legacy path; pin their determinism the
    // same way the engine guarantees it for the ported four.
    for kind in SchemeKind::ALL {
        let base: OutcomeTally =
            run(&cfg(1), scheme_experiment(kind, CppcConfig::paper(), FAULT)).result;
        assert_eq!(base.total(), TRIALS);
        for threads in [2usize, 8] {
            let t: OutcomeTally = run(
                &cfg(threads),
                scheme_experiment(kind, CppcConfig::paper(), FAULT),
            )
            .result;
            assert_eq!(t, base, "{kind} tally varies at {threads} threads");
        }
    }
}

#[test]
fn legacy_reference_is_exercised() {
    // Guard against the frozen reference decaying into dead code that
    // masks everything: the 4x4 solid strike must actually separate
    // the schemes (CPPC and interleaved SECDED correct it, 1D parity
    // and single-row 2D parity end in DUE).
    let (cppc, _) = run_checkpointed("probe_cppc", 1, legacy_cppc);
    let (parity, _) = run_checkpointed("probe_parity", 1, legacy_parity1d);
    assert!(cppc.corrected > 0, "CPPC corrects the 4x4 strike");
    assert_eq!(cppc.sdc, 0);
    assert!(parity.due > 0, "1D parity cannot correct dirty faults");
    assert_eq!(parity.corrected, 0);
}
