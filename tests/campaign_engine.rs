//! Cross-crate guarantees of the campaign engine: bit-identical merged
//! reports at any thread count, and checkpoint/resume transparency.

use cppc::campaign::json::Json;
use cppc::campaign::rng::{rngs::StdRng, RngExt};
use cppc::campaign::{run_resumable, Accumulator, CampaignConfig, CheckpointPolicy, Persist};
use cppc::fault::campaign::{Campaign, Outcome, OutcomeTally};
use cppc::reliability::montecarlo::{simulate_double_fault_mttf_parallel, MonteCarloConfig};

/// A fault-free stand-in for a real injection experiment whose outcome
/// depends on the trial's RNG stream and index, so any divergence in
/// stream derivation, shard layout or merge order changes the report.
fn stream_sensitive(rng: &mut StdRng, trial: u64) -> Outcome {
    let draw = rng.random::<u64>() ^ trial.rotate_left(17);
    match draw % 4 {
        0 => Outcome::Masked,
        1 => Outcome::Corrected,
        2 => Outcome::DetectedUnrecoverable,
        _ => Outcome::SilentCorruption,
    }
}

fn serialized_tally(tally: &OutcomeTally) -> String {
    tally.to_json().to_string_compact()
}

#[test]
fn merged_reports_are_byte_identical_at_1_2_8_threads() {
    // 999 trials: not a multiple of the shard size, so the last shard is
    // ragged — the layout edge case most likely to diverge.
    let campaign = Campaign::new(0xD37E_2011);
    let baseline = serialized_tally(&campaign.run_parallel(999, 1, stream_sensitive));
    for threads in [2usize, 8] {
        let report = serialized_tally(&campaign.run_parallel(999, threads, stream_sensitive));
        assert_eq!(report, baseline, "diverged at {threads} threads");
    }
    // And the sequential (non-engine) path derives the same streams.
    assert_eq!(
        serialized_tally(&campaign.run(999, stream_sensitive)),
        baseline
    );
}

#[test]
fn montecarlo_floats_are_bit_identical_at_1_2_8_threads() {
    let cfg = MonteCarloConfig {
        faults_per_hour: 30.0,
        domains: 4,
        tavg_hours: 0.002,
        trials: 1000,
    };
    let one = simulate_double_fault_mttf_parallel(&cfg, 0xF00D, 1);
    for threads in [2usize, 8] {
        let par = simulate_double_fault_mttf_parallel(&cfg, 0xF00D, threads);
        assert_eq!(
            one.mttf_hours.to_bits(),
            par.mttf_hours.to_bits(),
            "mean diverged at {threads} threads"
        );
        assert_eq!(
            one.std_error_hours.to_bits(),
            par.std_error_hours.to_bits(),
            "stderr diverged at {threads} threads"
        );
        assert_eq!(
            one.mean_faults_to_failure.to_bits(),
            par.mean_faults_to_failure.to_bits(),
            "fault count diverged at {threads} threads"
        );
    }
}

#[test]
fn interrupted_campaign_resumes_to_the_uninterrupted_report() {
    let tmp = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let path = tmp.join("campaign_engine_resume.ckpt");
    let _ = std::fs::remove_file(&path);

    let experiment = |rng: &mut StdRng, trial: u64| stream_sensitive(rng, trial);
    let base_cfg = CampaignConfig::new(0x00AB_5E17, 500).threads(2);
    let mut policy = CheckpointPolicy::new(&path);
    policy.every = std::time::Duration::ZERO; // checkpoint after every shard

    // Uninterrupted reference.
    let full: OutcomeTally = cppc::campaign::run(&base_cfg, experiment).result;

    // Interrupt after 3 shards...
    let partial_cfg = base_cfg.clone().stop_after_shards(3);
    let partial: OutcomeTally = run_resumable(&partial_cfg, &policy, experiment, |_| {})
        .expect("checkpointed run")
        .result;
    assert!(partial.total() < full.total(), "stop budget must interrupt");
    assert!(path.exists(), "checkpoint file must be written");

    // ...then resume to completion.
    let resumed = run_resumable::<OutcomeTally, _, _>(&base_cfg, &policy, experiment, |_| {})
        .expect("resumed run");
    assert!(
        resumed.resumed_shards >= 3,
        "must restore checkpointed shards"
    );
    assert!(resumed.is_complete());
    assert_eq!(
        serialized_tally(&resumed.result),
        serialized_tally(&full),
        "resumed report must equal the uninterrupted one"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn checkpoint_rejects_mismatched_campaign() {
    let tmp = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let path = tmp.join("campaign_engine_identity.ckpt");
    let _ = std::fs::remove_file(&path);

    let experiment = |rng: &mut StdRng, trial: u64| stream_sensitive(rng, trial);
    let policy = CheckpointPolicy::new(&path);
    let cfg = CampaignConfig::new(1, 200).threads(1).stop_after_shards(1);
    run_resumable::<OutcomeTally, _, _>(&cfg, &policy, experiment, |_| {}).expect("first run");

    // A different seed is a different campaign: the stale checkpoint
    // must be rejected, not silently merged.
    let other = CampaignConfig::new(2, 200).threads(1);
    let err = run_resumable::<OutcomeTally, _, _>(&other, &policy, experiment, |_| {});
    assert!(err.is_err(), "identity mismatch must be an error");
    let _ = std::fs::remove_file(&path);
}

/// Writes a valid one-shard checkpoint and returns (path, its bytes).
fn valid_checkpoint(name: &str) -> (std::path::PathBuf, Vec<u8>) {
    let tmp = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let path = tmp.join(name);
    let _ = std::fs::remove_file(&path);
    let experiment = |rng: &mut StdRng, trial: u64| stream_sensitive(rng, trial);
    let policy = CheckpointPolicy::new(&path);
    let cfg = CampaignConfig::new(0xBAD_F00D, 200)
        .threads(1)
        .stop_after_shards(1);
    run_resumable::<OutcomeTally, _, _>(&cfg, &policy, experiment, |_| {}).expect("seed run");
    let bytes = std::fs::read(&path).expect("checkpoint on disk");
    (path, bytes)
}

fn resume_with(path: &std::path::Path) -> Result<(), String> {
    let experiment = |rng: &mut StdRng, trial: u64| stream_sensitive(rng, trial);
    let policy = CheckpointPolicy::new(path);
    let cfg = CampaignConfig::new(0xBAD_F00D, 200).threads(1);
    run_resumable::<OutcomeTally, _, _>(&cfg, &policy, experiment, |_| {})
        .map(|_| ())
        .map_err(|e| e.to_string())
}

#[test]
fn truncated_checkpoint_is_a_clean_diagnostic_not_a_panic() {
    let (path, bytes) = valid_checkpoint("campaign_engine_truncated.ckpt");
    // Every truncation point must fail cleanly — a partial write (torn
    // shutdown) can stop anywhere.
    for keep in [0, 1, bytes.len() / 2, bytes.len() - 1] {
        std::fs::write(&path, &bytes[..keep]).unwrap();
        let err = resume_with(&path).expect_err("truncated checkpoint must be rejected");
        assert!(
            err.contains("malformed checkpoint"),
            "truncation at {keep} bytes: {err}"
        );
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn bit_flipped_checkpoint_is_a_clean_diagnostic_not_a_panic() {
    let (path, bytes) = valid_checkpoint("campaign_engine_bitflip.ckpt");
    // Corrupt a structural byte: the opening brace becomes garbage.
    let mut flipped = bytes.clone();
    flipped[0] ^= 0x40;
    std::fs::write(&path, &flipped).unwrap();
    let err = resume_with(&path).expect_err("corrupt JSON must be rejected");
    assert!(err.contains("malformed checkpoint"), "{err}");

    // Corrupt the recorded seed instead: the document still parses but
    // now names a different campaign — identity mismatch, not a merge.
    let text = String::from_utf8(bytes).unwrap();
    let field = format!("\"seed\":{}", 0xBAD_F00Du64);
    assert!(text.contains(&field), "checkpoint must record the seed");
    let other = text.replace(&field, &format!("\"seed\":{}", 0xBAD_F00Eu64));
    std::fs::write(&path, other).unwrap();
    let err = resume_with(&path).expect_err("foreign checkpoint must be rejected");
    assert!(err.contains("different campaign"), "{err}");
    let _ = std::fs::remove_file(&path);
}

/// The `Persist` JSON used above must round-trip exactly, otherwise the
/// byte-comparisons compare lossy serializations.
#[test]
fn tally_roundtrips_through_checkpoint_json() {
    let t = OutcomeTally {
        masked: u64::MAX,
        corrected: 1,
        due: 0,
        sdc: 42,
    };
    let parsed = Json::parse(&t.to_json().to_string_compact()).expect("parses");
    assert_eq!(OutcomeTally::from_json(&parsed), Some(t));
    // `counters()` drives the live metrics labels.
    assert_eq!(
        Accumulator::counters(&t)
            .iter()
            .map(|(label, _)| *label)
            .collect::<Vec<_>>(),
        ["Masked", "Corrected", "DUE", "SDC"]
    );
}
