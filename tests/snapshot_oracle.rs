//! Differential oracle for the warm-state snapshot hot path.
//!
//! The snapshot subsystem replaces per-trial warmup replay with a
//! restore from a captured warm state. These tests pin the claim that
//! the substitution is invisible: trial by trial, tally by tally and
//! checkpoint byte by checkpoint byte, the snapshot-backed
//! [`cppc_bench::mbe::experiment`] must be indistinguishable from the
//! replay-from-cold reference path defined here — including across an
//! interrupt/resume cycle.

use cppc::cache_sim::memory::MainMemory;
use cppc::cache_sim::replacement::ReplacementPolicy;
use cppc::core::{CppcCache, CppcConfig};
use cppc::fault::campaign::{Campaign, Outcome, OutcomeTally};
use cppc_bench::mbe::{
    experiment, experiment_model, geometry, oracle, SEED, SOLID_MODEL, SPARSE_MODEL,
};
use cppc_campaign::rng::rngs::StdRng;
use cppc_campaign::rng::RngExt;
use cppc_campaign::{run_with, trial_rng, CheckpointPolicy, PerTrial, RunOpts};
use cppc_fault::model::{FaultGenerator, FaultModel};

/// [`experiment_model`] without the warm pool: rebuilds the simulator
/// and replays the warmup from cold every trial, warming with
/// `oracle(trial)`. This is the pre-snapshot reference path the
/// differential oracle test compares against.
fn experiment_model_cold(model: FaultModel, rng: &mut StdRng, trial: u64) -> Outcome {
    let mut mem = MainMemory::new();
    let mut cache =
        CppcCache::new_l1(geometry(), CppcConfig::paper(), ReplacementPolicy::Lru).unwrap();
    let truth = oracle(trial);
    for &(addr, v) in &truth {
        cache.store_word(addr, v, &mut mem).unwrap();
    }
    let rows = cache.layout().num_rows() / 2;
    let mut generator = FaultGenerator::new(rows, rng.random());
    let pattern = generator.sample(model);
    if cache.inject(&pattern) == 0 {
        return Outcome::Masked;
    }
    match cache.recover_all(&mut mem) {
        Err(_) => Outcome::DetectedUnrecoverable,
        Ok(_) => {
            for &(addr, v) in &truth {
                if cache.peek_word(addr) != Some(v) {
                    return Outcome::SilentCorruption;
                }
            }
            Outcome::Corrected
        }
    }
}

/// The replay-from-cold form of [`experiment`].
///
/// # Panics
///
/// Panics if the paper configuration is rejected (it is not).
fn experiment_cold(rng: &mut StdRng, trial: u64) -> Outcome {
    experiment_model_cold(SOLID_MODEL, rng, trial)
}

/// Trial-by-trial equality: for every campaign trial index, the warm
/// restore path and the cold replay path must classify the injected
/// fault identically, for both the solid strike and the sparse strike
/// that exercises the locator and DUE branches.
#[test]
fn warm_and_cold_paths_agree_trial_by_trial() {
    for (name, model, trials) in [
        ("solid", SOLID_MODEL, 400u64),
        ("sparse", SPARSE_MODEL, 400u64),
    ] {
        let mut outcomes = [0u64; 2];
        for trial in 0..trials {
            let warm = experiment_model(model, &mut trial_rng(SEED, trial));
            let cold = experiment_model_cold(model, &mut trial_rng(SEED, trial), trial);
            assert_eq!(
                warm, cold,
                "{name} trial {trial}: warm path classified {warm:?}, cold path {cold:?}"
            );
            outcomes[usize::from(warm == Outcome::Corrected)] += 1;
        }
        // The comparison must not be vacuous: both branch families fire.
        assert!(
            outcomes.iter().all(|&n| n > 0) || name == "solid",
            "{name} campaign exercised only one outcome class"
        );
    }
}

/// Campaign tallies through the warm pool must match the golden values
/// captured on the replay-from-cold tree (see `hotpath_identity.rs`),
/// at every thread count.
#[test]
fn warm_campaign_tallies_match_cold_goldens() {
    for threads in [1usize, 2, 8] {
        let t = Campaign::new(SEED).run_parallel(2000, threads, experiment);
        assert_eq!(
            (t.masked, t.corrected, t.due, t.sdc),
            (0, 2000, 0, 0),
            "solid warm tally diverged at {threads} threads"
        );
        let sparse = |rng: &mut StdRng, _trial: u64| experiment_model(SPARSE_MODEL, rng);
        let t = Campaign::new(SEED).run_parallel(600, threads, sparse);
        assert_eq!(
            (t.masked, t.corrected, t.due, t.sdc),
            (0, 166, 434, 0),
            "sparse warm tally diverged at {threads} threads"
        );
    }
}

fn checkpoint_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("cppc_snapshot_oracle");
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

/// Checkpoint files written by a warm-pool campaign must be
/// byte-identical to those written by the cold reference campaign —
/// the snapshot path may not perturb a single serialised counter.
#[test]
fn warm_checkpoint_bytes_match_cold_checkpoint_bytes() {
    let cfg = Campaign::new(SEED).config(500).threads(2);
    let mut policy = CheckpointPolicy::new(checkpoint_path("warm.ckpt"));
    policy.every = std::time::Duration::ZERO;
    let report =
        run_with::<OutcomeTally, _>(&cfg, &PerTrial(experiment), RunOpts::checkpointed(&policy))
            .unwrap();
    assert!(report.is_complete());
    let warm_bytes = std::fs::read(&policy.path).unwrap();

    let mut cold_policy = CheckpointPolicy::new(checkpoint_path("cold.ckpt"));
    cold_policy.every = std::time::Duration::ZERO;
    let report = run_with::<OutcomeTally, _>(
        &cfg,
        &PerTrial(experiment_cold),
        RunOpts::checkpointed(&cold_policy),
    )
    .unwrap();
    assert!(report.is_complete());
    let cold_bytes = std::fs::read(&cold_policy.path).unwrap();

    assert_eq!(
        warm_bytes, cold_bytes,
        "snapshot path changed the checkpoint serialisation"
    );
    let _ = std::fs::remove_file(&policy.path);
    let _ = std::fs::remove_file(&cold_policy.path);
}

/// Interrupting a warm-pool campaign mid-flight and resuming it from
/// the checkpoint must converge on the same final checkpoint bytes and
/// tally as the uninterrupted cold campaign.
#[test]
fn interrupted_warm_campaign_resumes_to_cold_result() {
    let cfg = Campaign::new(SEED).config(500).threads(2);

    // Reference: one uninterrupted cold run.
    let mut cold_policy = CheckpointPolicy::new(checkpoint_path("resume_cold.ckpt"));
    cold_policy.every = std::time::Duration::ZERO;
    let cold_report = run_with::<OutcomeTally, _>(
        &cfg,
        &PerTrial(experiment_cold),
        RunOpts::checkpointed(&cold_policy),
    )
    .unwrap();
    assert!(cold_report.is_complete());
    let cold_bytes = std::fs::read(&cold_policy.path).unwrap();

    // Warm run, interrupted after 3 shards...
    let mut policy = CheckpointPolicy::new(checkpoint_path("resume_warm.ckpt"));
    policy.every = std::time::Duration::ZERO;
    let partial = run_with::<OutcomeTally, _>(
        &cfg.clone().stop_after_shards(3),
        &PerTrial(experiment),
        RunOpts::checkpointed(&policy),
    )
    .unwrap();
    assert!(
        !partial.is_complete(),
        "campaign should have been interrupted"
    );

    // ...then resumed to completion (policy.resume defaults to true).
    let resumed =
        run_with::<OutcomeTally, _>(&cfg, &PerTrial(experiment), RunOpts::checkpointed(&policy))
            .unwrap();
    assert!(resumed.is_complete());
    let warm_bytes = std::fs::read(&policy.path).unwrap();

    assert_eq!(
        warm_bytes, cold_bytes,
        "interrupt/resume through the warm pool changed the final checkpoint"
    );
    assert_eq!(
        (
            resumed.result.masked,
            resumed.result.corrected,
            resumed.result.due,
            resumed.result.sdc
        ),
        (
            cold_report.result.masked,
            cold_report.result.corrected,
            cold_report.result.due,
            cold_report.result.sdc
        ),
        "interrupt/resume through the warm pool changed the merged tally"
    );
    let _ = std::fs::remove_file(&policy.path);
    let _ = std::fs::remove_file(&cold_policy.path);
}

/// Restoring a snapshot after a destructive trial (inject + recover)
/// reproduces the captured simulator state exactly: stats, register
/// state and every data word match a freshly warmed twin.
#[test]
fn restore_reproduces_warm_state_after_destructive_trial() {
    let mut mem = MainMemory::new();
    let mut cache =
        CppcCache::new_l1(geometry(), CppcConfig::paper(), ReplacementPolicy::Lru).unwrap();
    let truth = oracle(SEED);
    for &(addr, v) in &truth {
        cache.store_word(addr, v, &mut mem).unwrap();
    }
    let cache_snap = cache.snapshot();
    let mem_snap = mem.snapshot();

    // A twin warmed identically, never touched afterwards.
    let mut twin_mem = MainMemory::new();
    let mut twin =
        CppcCache::new_l1(geometry(), CppcConfig::paper(), ReplacementPolicy::Lru).unwrap();
    for &(addr, v) in &truth {
        twin.store_word(addr, v, &mut twin_mem).unwrap();
    }

    // Run a destructive trial, then restore.
    let rows = cache.layout().num_rows() / 2;
    let mut generator = cppc_fault::model::FaultGenerator::new(rows, 0xDEAD_BEEF);
    let pattern = generator.sample(SOLID_MODEL);
    assert!(cache.inject(&pattern) > 0, "strike must land");
    cache.recover_all(&mut mem).unwrap();
    cache.restore_snapshot(&cache_snap);
    mem.restore_snapshot(&mem_snap);

    assert_eq!(cache.stats(), twin.stats(), "restored stats diverged");
    for &(addr, v) in &truth {
        assert_eq!(cache.peek_word(addr), Some(v), "restored word at {addr:#x}");
        assert_eq!(twin.peek_word(addr), Some(v));
    }
    // A second snapshot of the restored cache is identical to the first.
    assert_eq!(
        cache.snapshot(),
        cache_snap,
        "re-capture after restore differs"
    );
}
