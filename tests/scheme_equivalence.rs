//! Golden equivalence for the `ProtectionScheme` zoo: every member must
//! reproduce its frozen reference campaign body **bit for bit** — same
//! tallies, same checkpoint bytes — at 1, 2 and 8 threads.
//!
//! The "legacy" closures below are the reference bodies, kept inline
//! here: each drives a concrete cache type directly (never a zoo
//! member or `SchemeKind::build`), fills way 0 from the trial-seeded
//! RNG, strikes with the model's historical draw order (one `u64`
//! strike seed — or interleaved SECDED's two physical-range draws) and
//! classifies with the historical rules. The four paper schemes'
//! bodies are the pre-`ProtectionScheme` campaign closures; the
//! silent-write ECC and HARP bodies spell out those members' protocols
//! over a bare `SecdedCache` (store elision, write-through copy,
//! profiling pass). If a member ever consumes the RNG stream
//! differently or reorders a classification branch, these tests fail.
//!
//! The same bodies, parameterised by fault class and configuration,
//! are the historical `mbe_coverage` matrix closures, so they also pin
//! every row of that artifact across its whole fault matrix.

use std::path::PathBuf;

use cppc_bench::experiments::{built_experiment, scheme_experiment};
use cppc_bench::mbe::geometry as inject_geometry;
use cppc_cache_sim::memory::MainMemory;
use cppc_cache_sim::replacement::ReplacementPolicy;
use cppc_campaign::rng::rngs::StdRng;
use cppc_campaign::rng::{RngExt, SeedableRng};
use cppc_campaign::{run, run_with, CampaignConfig, CheckpointPolicy, PerTrial, RunOpts};
use cppc_core::baselines::{OneDimParityCache, SecdedCache, TwoDimParityCache};
use cppc_core::{CppcCache, CppcConfig, ProtectionScheme, SchemeKind};
use cppc_fault::campaign::{Outcome, OutcomeTally};
use cppc_fault::model::{FaultGenerator, FaultModel};
use cppc_repro::artifacts::mbe;

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

/// Pre-refactor CPPC campaign body (the baked-in `inject` protocol).
fn legacy_cppc(config: CppcConfig, model: FaultModel, rng: &mut StdRng, trial: u64) -> Outcome {
    let mut mem = MainMemory::new();
    let mut cache = CppcCache::new_l1(inject_geometry(), config, ReplacementPolicy::Lru).unwrap();
    let truth = fill(trial, |a, v| cache.store_word(a, v, &mut mem).unwrap());
    let mut generator = FaultGenerator::new(cache.layout().num_rows() / 2, rng.random());
    if cache.inject(&generator.sample(model)) == 0 {
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
fn legacy_parity1d(model: FaultModel, rng: &mut StdRng, trial: u64) -> Outcome {
    let mut mem = MainMemory::new();
    let mut cache = OneDimParityCache::new(inject_geometry(), ReplacementPolicy::Lru);
    let truth = fill(trial, |a, v| cache.store_word(a, v, &mut mem));
    let mut generator = FaultGenerator::new(cache.layout().num_rows() / 2, rng.random());
    if cache.inject(&generator.sample(model)) == 0 {
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
fn legacy_secded(model: FaultModel, rng: &mut StdRng, trial: u64) -> Outcome {
    let mut mem = MainMemory::new();
    let mut cache = SecdedCache::new(inject_geometry(), ReplacementPolicy::Lru);
    let truth = fill(trial, |a, v| cache.store_word(a, v, &mut mem));
    let logical_rows = cache.layout().num_rows() / 2;
    let (rows, cols) = match model {
        FaultModel::TemporalSingleBit | FaultModel::TemporalMultiBit { .. } => (1, 1),
        FaultModel::VerticalStripe { rows } => (rows, 1),
        FaultModel::HorizontalBurst { cols } => (1, cols),
        FaultModel::SpatialSquare { rows, cols, .. } => (rows, cols),
    };
    let physical_rows = logical_rows / 8;
    let prows = rows.div_ceil(8).max(1).min(physical_rows);
    let row0 = rng.random_range(0..=(physical_rows - prows));
    let col0 = rng.random_range(0..=(512 - cols));
    if cache.inject_spatial(row0, col0, prows, cols) == 0 {
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

/// Pre-refactor 2D-parity campaign body (the zoo's scheme has one
/// vertical row; the coverage matrix also runs eight).
fn legacy_parity2d(
    vertical_rows: usize,
    model: FaultModel,
    rng: &mut StdRng,
    trial: u64,
) -> Outcome {
    let mut mem = MainMemory::new();
    let mut cache =
        TwoDimParityCache::new(inject_geometry(), vertical_rows, ReplacementPolicy::Lru);
    let truth = fill(trial, |a, v| cache.store_word(a, v, &mut mem));
    let mut generator = FaultGenerator::new(cache.layout().num_rows() / 2, rng.random());
    if cache.inject(&generator.sample(model)) == 0 {
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

/// Loads every truth word: a refused load is a DUE, a wrong value an
/// SDC, and a clean run is Corrected (the SECDED-family grade).
fn grade_secded_loads(
    cache: &mut SecdedCache,
    truth: &[(u64, u64)],
    mem: &mut MainMemory,
) -> Outcome {
    for &(addr, v) in truth {
        match cache.load_word(addr, mem) {
            Err(_) => return Outcome::DetectedUnrecoverable,
            Ok(got) if got != v => return Outcome::SilentCorruption,
            Ok(_) => {}
        }
    }
    Outcome::Corrected
}

/// Silent-write-aware ECC: non-interleaved SECDED whose stores are
/// elided when the resident word already holds the value, struck in
/// logical rows.
fn legacy_silent(model: FaultModel, rng: &mut StdRng, trial: u64) -> Outcome {
    let mut mem = MainMemory::new();
    let mut cache = SecdedCache::new(inject_geometry(), ReplacementPolicy::Lru);
    let truth = fill(trial, |a, v| {
        if cache.peek_word(a) != Some(v) {
            cache.store_word(a, v, &mut mem);
        }
    });
    let mut generator = FaultGenerator::new(cache.layout().num_rows() / 2, rng.random());
    if cache.inject(&generator.sample(model)) == 0 {
        return Outcome::Masked;
    }
    grade_secded_loads(&mut cache, &truth, &mut mem)
}

/// HARP-style on-die ECC: non-interleaved SECDED operated
/// write-through, struck in logical rows; before the grade, a profiling
/// pass re-reads every written address (deduplicated, first-write
/// order) and repairs each resident word the code refuses from the
/// write-through copy.
fn legacy_harp(model: FaultModel, rng: &mut StdRng, trial: u64) -> Outcome {
    let mut mem = MainMemory::new();
    let mut cache = SecdedCache::new(inject_geometry(), ReplacementPolicy::Lru);
    let mut written: Vec<u64> = Vec::new();
    let truth = fill(trial, |a, v| {
        cache.store_word(a, v, &mut mem);
        mem.write_word(a, v);
        if !written.contains(&a) {
            written.push(a);
        }
    });
    let mut generator = FaultGenerator::new(cache.layout().num_rows() / 2, rng.random());
    if cache.inject(&generator.sample(model)) == 0 {
        return Outcome::Masked;
    }
    for &addr in &written {
        if cache.peek_word(addr).is_some() && cache.load_word(addr, &mut mem).is_err() {
            let reference = mem.peek_word(addr);
            cache.store_word(addr, reference, &mut mem);
        }
    }
    grade_secded_loads(&mut cache, &truth, &mut mem)
}

type Legacy = Box<dyn Fn(&mut StdRng, u64) -> Outcome + Sync>;

fn legacy_of(kind: SchemeKind) -> Legacy {
    match kind {
        SchemeKind::Cppc => Box::new(|r, t| legacy_cppc(CppcConfig::paper(), FAULT, r, t)),
        SchemeKind::Parity1d => Box::new(|r, t| legacy_parity1d(FAULT, r, t)),
        SchemeKind::SecdedInterleaved => Box::new(|r, t| legacy_secded(FAULT, r, t)),
        SchemeKind::Parity2d => Box::new(|r, t| legacy_parity2d(1, FAULT, r, t)),
        SchemeKind::SilentWriteEcc => Box::new(|r, t| legacy_silent(FAULT, r, t)),
        SchemeKind::HarpOdecc => Box::new(|r, t| legacy_harp(FAULT, r, t)),
    }
}

/// The historical coverage-matrix body behind each `mbe_coverage` row.
fn legacy_matrix_row(name: &str, model: FaultModel) -> Legacy {
    match name {
        "1D parity" => Box::new(move |r, t| legacy_parity1d(model, r, t)),
        "SECDED+interleave" => Box::new(move |r, t| legacy_secded(model, r, t)),
        "CPPC 1 pair" => Box::new(move |r, t| legacy_cppc(CppcConfig::paper(), model, r, t)),
        "CPPC 2 pairs" => Box::new(move |r, t| legacy_cppc(CppcConfig::two_pairs(), model, r, t)),
        "CPPC 8 pairs" => Box::new(move |r, t| legacy_cppc(CppcConfig::eight_pairs(), model, r, t)),
        "2D parity (1 row)" => Box::new(move |r, t| legacy_parity2d(1, model, r, t)),
        "2D parity (8 rows)" => Box::new(move |r, t| legacy_parity2d(8, model, r, t)),
        other => panic!("matrix row '{other}' has no historical body"),
    }
}

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

/// Runs one experiment body through `run_with` (fresh checkpoint
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
    let report = run_with::<OutcomeTally, _>(
        &cfg(threads),
        &PerTrial(experiment),
        RunOpts::checkpointed(&policy),
    )
    .expect("campaign completes");
    assert!(report.is_complete());
    let bytes = std::fs::read(&path).expect("final checkpoint written");
    let _ = std::fs::remove_file(&path);
    (report.result, bytes)
}

#[test]
fn ported_schemes_match_legacy_tallies_and_checkpoint_bytes() {
    for kind in SchemeKind::ALL {
        let legacy = legacy_of(kind);
        for threads in [1usize, 2, 8] {
            let (legacy_tally, legacy_bytes) =
                run_checkpointed(&format!("legacy_{kind}"), threads, &legacy);
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
    // Thread invariance of the zoo itself, independent of the frozen
    // reference bodies.
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
    let (cppc, _) = run_checkpointed("probe_cppc", 1, legacy_of(SchemeKind::Cppc));
    let (parity, _) = run_checkpointed("probe_parity", 1, legacy_of(SchemeKind::Parity1d));
    assert!(cppc.corrected > 0, "CPPC corrects the 4x4 strike");
    assert_eq!(cppc.sdc, 0);
    assert!(parity.due > 0, "1D parity cannot correct dirty faults");
    assert_eq!(parity.corrected, 0);
}

#[test]
fn coverage_matrix_rows_match_legacy_bodies() {
    // Every (scheme row, fault class) cell of the `mbe_coverage`
    // artifact, against the coverage-matrix body it replaced.
    for (fault, model) in mbe::fault_models() {
        for (name, build) in mbe::scheme_rows() {
            let cfg = CampaignConfig::new(SEED, TRIALS / 2).threads(2);
            let legacy: OutcomeTally = run(&cfg, legacy_matrix_row(name, model)).result;
            let row: OutcomeTally = run(&cfg, built_experiment(build, model)).result;
            assert_eq!(row, legacy, "{name} diverged on {fault}");
        }
    }
}
