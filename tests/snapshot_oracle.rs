//! Differential oracle for the warm-trial protocol.
//!
//! Every fault campaign fills a scheme once per worker and restores
//! that warm copy at the top of each trial. These tests pin the claim
//! that the substitution is invisible: trial by trial, for every member
//! of the scheme zoo and every fault class, and tally by tally and
//! checkpoint byte by checkpoint byte for the CPPC campaign
//! ([`cppc_bench::mbe::experiment_model`] on the solid strike), the
//! warm path must be indistinguishable from the refill-from-cold
//! reference body defined here — including across an interrupt/resume
//! cycle.

use cppc::cache_sim::memory::MainMemory;
use cppc::cache_sim::replacement::ReplacementPolicy;
use cppc::core::baselines::TwoDimParityCache;
use cppc::core::{CppcCache, CppcConfig, ProtectionScheme, SchemeKind};
use cppc::fault::campaign::{Outcome, OutcomeTally};
use cppc_bench::experiments::{built_experiment, parse_fault};
use cppc_bench::mbe::{experiment_model, geometry, oracle, SEED, SOLID_MODEL, SPARSE_MODEL};
use cppc_campaign::rng::rngs::StdRng;
use cppc_campaign::{
    run, run_with, trial_rng, CampaignConfig, CheckpointPolicy, PerTrial, RunOpts,
};
use cppc_fault::model::{FaultModel, FaultPattern};

/// The refill-from-cold reference body for any scheme: fill way 0 of
/// the freshly built `scheme` with `oracle(trial)`, strike it with one
/// sample of `model` and grade it through the scheme's own
/// classification. This is the pre-warm-pool protocol the differential
/// tests compare the warm path against.
fn cold_trial(
    mut scheme: Box<dyn ProtectionScheme>,
    model: FaultModel,
    rng: &mut StdRng,
    trial: u64,
) -> Outcome {
    let mut mem = MainMemory::new();
    let truth = oracle(trial);
    for &(addr, v) in &truth {
        scheme.write_word(addr, v, &mut mem).unwrap();
    }
    if scheme.inject_model(model, rng, &mut FaultPattern::empty()) == 0 {
        return Outcome::Masked;
    }
    scheme.classify(&truth, &mut mem)
}

fn paper_cppc() -> Box<dyn ProtectionScheme> {
    Box::new(CppcCache::new_l1(geometry(), CppcConfig::paper(), ReplacementPolicy::Lru).unwrap())
}

/// [`experiment_model`] without the warm pool.
fn experiment_model_cold(model: FaultModel, rng: &mut StdRng, trial: u64) -> Outcome {
    cold_trial(paper_cppc(), model, rng, trial)
}

/// The CPPC campaign's trial on the solid strike, through the warm pool.
fn experiment_warm(rng: &mut StdRng, _trial: u64) -> Outcome {
    experiment_model(SOLID_MODEL, rng)
}

/// The replay-from-cold form of [`experiment_warm`].
fn experiment_cold(rng: &mut StdRng, trial: u64) -> Outcome {
    experiment_model_cold(SOLID_MODEL, rng, trial)
}

/// Every zoo member plus the coverage matrix's eight-row 2D parity,
/// each against the cold body, on every fault class: the warm fill
/// (`oracle(SEED)`) may not change one outcome of the per-trial fill
/// (`oracle(trial)`), for silent-write ECC's value-comparing elision
/// and HARP's profiling pass included.
#[test]
fn every_member_agrees_with_the_cold_body_trial_by_trial() {
    type Build = Box<dyn Fn() -> Box<dyn ProtectionScheme> + Sync>;
    let mut schemes: Vec<(String, Build)> = SchemeKind::ALL
        .into_iter()
        .map(|kind| {
            let build: Build =
                Box::new(move || kind.build(geometry(), CppcConfig::paper()).unwrap());
            (kind.to_string(), build)
        })
        .collect();
    schemes.push((
        "parity2d-8rows".into(),
        Box::new(|| {
            Box::new(TwoDimParityCache::new(
                geometry(),
                8,
                ReplacementPolicy::Lru,
            ))
        }),
    ));
    let mut models: Vec<(&str, FaultModel)> = ["single", "2xvert", "8xhoriz", "4x4", "8x8"]
        .into_iter()
        .map(|name| (name, parse_fault(name).unwrap()))
        .collect();
    models.push(("sparse 8x8", SPARSE_MODEL));
    let mut outcomes = OutcomeTally::default();
    for (name, build) in &schemes {
        for &(fault, model) in &models {
            let warm = built_experiment(|_| build(), model);
            for trial in 0..300u64 {
                let w = warm(&mut trial_rng(SEED, trial), trial);
                let cold = cold_trial(build(), model, &mut trial_rng(SEED, trial), trial);
                assert_eq!(
                    w, cold,
                    "{name} {fault} trial {trial}: warm {w:?}, cold {cold:?}"
                );
                outcomes.record(w);
            }
        }
    }
    // Not vacuous: the comparison reaches every graded outcome.
    let OutcomeTally {
        corrected,
        due,
        sdc,
        ..
    } = outcomes;
    assert!(corrected > 0 && due > 0 && sdc > 0, "{outcomes:?}");
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
        let cfg = |trials| CampaignConfig::new(SEED, trials).threads(threads);
        let t: OutcomeTally = run(&cfg(2000), experiment_warm).result;
        assert_eq!(
            (t.masked, t.corrected, t.due, t.sdc),
            (0, 2000, 0, 0),
            "solid warm tally diverged at {threads} threads"
        );
        let sparse = |rng: &mut StdRng, _trial: u64| experiment_model(SPARSE_MODEL, rng);
        let t: OutcomeTally = run(&cfg(600), sparse).result;
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
    let cfg = CampaignConfig::new(SEED, 500).threads(2);
    let mut policy = CheckpointPolicy::new(checkpoint_path("warm.ckpt"));
    policy.every = std::time::Duration::ZERO;
    let report = run_with::<OutcomeTally, _>(
        &cfg,
        &PerTrial(experiment_warm),
        RunOpts::checkpointed(&policy),
    )
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
    let cfg = CampaignConfig::new(SEED, 500).threads(2);

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
        &PerTrial(experiment_warm),
        RunOpts::checkpointed(&policy),
    )
    .unwrap();
    assert!(
        !partial.is_complete(),
        "campaign should have been interrupted"
    );

    // ...then resumed to completion (policy.resume defaults to true).
    let resumed = run_with::<OutcomeTally, _>(
        &cfg,
        &PerTrial(experiment_warm),
        RunOpts::checkpointed(&policy),
    )
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

/// Restoring the warm copy after a destructive trial (inject +
/// recover) reproduces the warm simulator state exactly: stats,
/// register state, parity and every data word match a freshly warmed
/// twin, and the restore lands in the live cache's own buffers.
#[test]
fn restore_reproduces_warm_state_after_destructive_trial() {
    let warm_up = || {
        let mut mem = MainMemory::new();
        let mut cache =
            CppcCache::new_l1(geometry(), CppcConfig::paper(), ReplacementPolicy::Lru).unwrap();
        for &(addr, v) in &oracle(SEED) {
            cache.store_word(addr, v, &mut mem).unwrap();
        }
        (cache, mem)
    };
    let (warm, warm_mem) = warm_up();
    let (mut cache, mut mem) = (warm.clone(), warm_mem.clone());
    // A twin warmed identically, never touched afterwards.
    let (mut twin, twin_mem) = warm_up();

    // Run a destructive trial, then restore.
    let rows = cache.layout().num_rows() / 2;
    let mut generator = cppc_fault::model::FaultGenerator::new(rows, 0xDEAD_BEEF);
    let pattern = generator.sample(SOLID_MODEL);
    assert!(cache.inject(&pattern) > 0, "strike must land");
    cache.recover_all(&mut mem).unwrap();
    assert_ne!(cache.stats(), twin.stats(), "the trial moved the counters");
    cache.clone_from(&warm);
    mem.clone_from(&warm_mem);

    assert_eq!(cache.stats(), twin.stats(), "restored stats diverged");
    assert_eq!(cache.cache_stats(), twin.cache_stats());
    assert_eq!(mem, twin_mem, "restored memory diverged");
    assert_eq!(
        cache.registers_mut().checkpoint(),
        twin.registers_mut().checkpoint(),
        "restored registers diverged"
    );
    assert!(cache.verify_invariant());
    assert!(cache.batch_sim().is_some(), "no latent parity mismatch");
    for &(addr, v) in &oracle(SEED) {
        assert_eq!(cache.peek_word(addr), Some(v), "restored word at {addr:#x}");
    }
}
