//! Campaign experiment bodies shared by the CLI and the job server.
//!
//! `cppc-cli campaign` and `cppc-cli serve` must produce **bit-identical
//! tallies** for the same campaign parameters — that is the service's
//! end-to-end determinism guarantee — so the experiment closures live
//! here, in one place, and both drivers call them. Each experiment is a
//! pure function of `(trial RNG stream, trial index)`; the campaign
//! engine derives the stream from `(campaign seed, trial)` alone, which
//! is what makes results independent of thread count, scheduling and
//! process boundaries.

use std::time::Duration;

use cppc_cache_sim::geometry::CacheGeometry;
use cppc_cache_sim::hierarchy::TwoLevelHierarchy;
use cppc_cache_sim::replacement::ReplacementPolicy;
use cppc_campaign::rng::rngs::StdRng;
use cppc_campaign::rng::RngExt;
use cppc_campaign::snapshot::WarmPool;
use cppc_core::{CppcConfig, ProtectionScheme, SchemeKind};
use cppc_fault::campaign::Outcome;
use cppc_fault::model::FaultModel;
use cppc_workloads::SharedTrace;

use crate::mbe;

/// Parses a CPPC configuration name (`basic`, `paper`, `two-pairs`,
/// `eight-pairs`).
///
/// # Errors
///
/// Returns a message naming the unknown configuration.
pub fn parse_config(name: &str) -> Result<CppcConfig, String> {
    match name {
        "basic" => Ok(CppcConfig::basic()),
        "paper" => Ok(CppcConfig::paper()),
        "two-pairs" => Ok(CppcConfig::two_pairs()),
        "eight-pairs" => Ok(CppcConfig::eight_pairs()),
        other => Err(format!("unknown config '{other}'")),
    }
}

/// Parses a fault-model name (`single`, `2xvert`, `8xhoriz`, `4x4`,
/// `8x8`).
///
/// # Errors
///
/// Returns a message naming the unknown fault model.
pub fn parse_fault(name: &str) -> Result<FaultModel, String> {
    match name {
        "single" => Ok(FaultModel::TemporalSingleBit),
        "2xvert" => Ok(FaultModel::VerticalStripe { rows: 2 }),
        "8xhoriz" => Ok(FaultModel::HorizontalBurst { cols: 8 }),
        "4x4" => Ok(FaultModel::SpatialSquare {
            rows: 4,
            cols: 4,
            density: 1.0,
        }),
        "8x8" => Ok(FaultModel::SpatialSquare {
            rows: 8,
            cols: 8,
            density: 1.0,
        }),
        other => Err(format!("unknown fault model '{other}'")),
    }
}

/// Parses a protection-scheme selector name (`cppc`, `parity1d`,
/// `secded-interleaved`, `parity2d`, `silent-write-ecc`, `harp-odecc`).
///
/// # Errors
///
/// Returns a message naming the unknown scheme and listing the known
/// ones.
pub fn parse_scheme(name: &str) -> Result<SchemeKind, String> {
    SchemeKind::parse(name)
}

/// The fault-injection experiment behind `cppc-cli campaign --scheme
/// <name>`, `scheme` and `inject` service jobs and `cppc-cli stats`:
/// fill way 0 of a small L1 ([`mbe::geometry`]) with known values,
/// strike it with one sampled fault pattern, run recovery and classify
/// the outcome, for any member of the protection-scheme zoo behind the
/// `ProtectionScheme` trait. `inject` is this body at
/// [`SchemeKind::Cppc`].
///
/// For the ported schemes the tallies are **bit-identical** to the
/// historical baked-in closures: the RNG draws (one `u64` for the
/// strike seed — or the two-range draws of interleaved SECDED's
/// physical-strike translation) and the classification rules are
/// exactly theirs, and the warm fill cannot change an outcome (see
/// [`mbe::WarmTrial`]), so tallies and checkpoint bytes match the
/// pre-refactor paths (pinned by the `scheme_equivalence` suite).
/// `config` parameterizes CPPC only; the other schemes use their paper
/// configurations.
pub fn scheme_experiment(
    kind: SchemeKind,
    config: CppcConfig,
    fault: FaultModel,
) -> impl Fn(&mut StdRng, u64) -> Outcome + Sync {
    built_experiment(
        move |geo| kind.build(geo, config).expect("validated config"),
        fault,
    )
}

/// [`scheme_experiment`]'s protocol over any scheme `build` makes from
/// [`mbe::geometry`], including variants outside the zoo's paper
/// configurations (the coverage matrix's eight-row 2D parity). Each
/// worker builds and fills one [`mbe::WarmTrial`] from a pool the
/// returned experiment owns, and every trial restores it.
pub fn built_experiment<B>(
    build: B,
    fault: FaultModel,
) -> impl Fn(&mut StdRng, u64) -> Outcome + Sync
where
    B: Fn(CacheGeometry) -> Box<dyn ProtectionScheme> + Sync,
{
    let pool = WarmPool::new();
    move |rng, _trial| {
        let warm = || mbe::WarmTrial::pooled(build(mbe::geometry()));
        pool.with(0, warm, |trial: &mut mbe::WarmTrial| trial.run(fault, rng))
    }
}

/// The hierarchy the `trace` experiment replays its trace through: a
/// small two-level machine (8KB/2-way L1, 32KB/4-way L2, 32B lines) so
/// short traces still generate misses and write-backs at both levels.
///
/// # Panics
///
/// Never — the geometries are valid by construction.
#[must_use]
pub fn trace_hierarchy() -> TwoLevelHierarchy {
    let l1 = CacheGeometry::new(8 * 1024, 2, 32).expect("valid geometry");
    let l2 = CacheGeometry::new(32 * 1024, 4, 32).expect("valid geometry");
    TwoLevelHierarchy::new(l1, l2, ReplacementPolicy::Lru)
}

/// Digest of a hierarchy run the `trace` experiment folds into its
/// outcome draw: a deterministic mix of both levels' counters and the
/// final cycle, so any divergence in the replayed stream (a corrupted
/// trace file, a decoder bug, a non-deterministic fast path) changes
/// the campaign tally.
#[must_use]
pub fn trace_digest(h: &TwoLevelHierarchy) -> u64 {
    let (l1, l2) = h.stats();
    let mut acc: u64 = 0xCBF2_9CE4_8422_2325; // FNV-1a offset basis
    let mut mix = |v: u64| {
        acc ^= v;
        acc = acc.wrapping_mul(0x1000_0000_01B3);
    };
    for s in [l1, l2] {
        mix(s.load_hits);
        mix(s.load_misses);
        mix(s.store_hits);
        mix(s.store_misses);
        mix(s.stores_to_dirty);
        mix(s.writebacks);
        mix(s.writeback_words);
        mix(s.fills);
        mix(s.clean_evictions);
    }
    mix(h.cycle());
    acc
}

/// Loads a trace file for the `trace` experiment in the format its
/// leading bytes show: binary (`docs/TRACES.md`), text v1 or Dinero
/// `din` ([`cppc_workloads::TraceFormat::sniff`]).
///
/// # Errors
///
/// Returns a human-readable message on I/O failures or malformed
/// content in any format.
pub fn load_trace(path: &str) -> Result<SharedTrace, String> {
    cppc_workloads::read_trace_file(path, None).map(SharedTrace::from_ops)
}

/// The trace-driven experiment behind `cppc-cli campaign --kind trace`
/// and `trace` service jobs: each trial replays the whole pre-decoded
/// trace through [`trace_hierarchy`] via the batched fast path, folds
/// the run's [`trace_digest`] into the trial's RNG draw and classifies
/// like [`synthetic_outcome`]. The digest term makes the tally sensitive
/// to every replayed operation while staying a pure function of
/// `(trace, trial RNG stream, trial index)` — so served results match
/// direct runs byte for byte at any thread count.
pub fn trace_experiment(trace: &SharedTrace) -> impl Fn(&mut StdRng, u64) -> Outcome + Sync {
    // Decode once; every trial replays the same immutable lanes.
    let batch = trace.batch();
    move |rng, trial| {
        let mut h = trace_hierarchy();
        h.run_batch(&batch);
        let draw =
            rng.random::<u64>() ^ trace_digest(&h) ^ trial.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        match draw % 4 {
            0 => Outcome::Masked,
            1 => Outcome::Corrected,
            2 => Outcome::DetectedUnrecoverable,
            _ => Outcome::SilentCorruption,
        }
    }
}

/// A deterministic outcome that depends on both the trial's RNG stream
/// and its index, so any divergence in stream derivation, shard layout
/// or merge order changes the tally. Used by the `sleep` experiment and
/// by tests that need an order-sensitive campaign without simulator
/// cost.
#[must_use]
pub fn synthetic_outcome(rng: &mut StdRng, trial: u64) -> Outcome {
    // Odd-multiplier mix so the trial index reaches the low bits the
    // `% 4` below actually samples (a plain rotate leaves them zero
    // for small indices).
    let draw = rng.random::<u64>() ^ trial.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    match draw % 4 {
        0 => Outcome::Masked,
        1 => Outcome::Corrected,
        2 => Outcome::DetectedUnrecoverable,
        _ => Outcome::SilentCorruption,
    }
}

/// A duration-controllable synthetic experiment: each trial sleeps
/// `millis` and classifies via [`synthetic_outcome`]. Wall time scales
/// with the trial count while the tally stays deterministic, which is
/// what service tests need to exercise backpressure, cancellation and
/// interrupt-resume at precise moments.
pub fn sleep_experiment(millis: u64) -> impl Fn(&mut StdRng, u64) -> Outcome + Sync {
    move |rng, trial| {
        if millis > 0 {
            std::thread::sleep(Duration::from_millis(millis));
        }
        synthetic_outcome(rng, trial)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cppc_campaign::rng::SeedableRng;
    use cppc_fault::campaign::OutcomeTally;

    #[test]
    fn config_parsing() {
        assert_eq!(parse_config("paper"), Ok(CppcConfig::paper()));
        assert_eq!(parse_config("basic"), Ok(CppcConfig::basic()));
        assert_eq!(parse_config("two-pairs"), Ok(CppcConfig::two_pairs()));
        assert_eq!(parse_config("eight-pairs"), Ok(CppcConfig::eight_pairs()));
        assert!(parse_config("bogus").is_err());
    }

    #[test]
    fn fault_parsing() {
        for name in ["single", "2xvert", "8xhoriz", "4x4", "8x8"] {
            assert!(parse_fault(name).is_ok(), "{name}");
        }
        assert!(parse_fault("9x9").is_err());
    }

    #[test]
    fn scheme_parsing() {
        for name in [
            "cppc",
            "parity1d",
            "secded-interleaved",
            "parity2d",
            "silent-write-ecc",
            "harp-odecc",
        ] {
            assert!(parse_scheme(name).is_ok(), "{name}");
        }
        assert!(parse_scheme("hamming").is_err());
    }

    #[test]
    fn every_scheme_runs_a_campaign_without_sdc_on_single_bit() {
        let cfg = cppc_campaign::CampaignConfig::new(0x5EED, 24).shard_size(8);
        for kind in SchemeKind::ALL {
            let tally: OutcomeTally = cppc_campaign::run(
                &cfg,
                scheme_experiment(kind, CppcConfig::paper(), FaultModel::TemporalSingleBit),
            )
            .result;
            assert_eq!(tally.total(), 24, "{kind}");
            assert_eq!(tally.sdc, 0, "{kind}: single-bit must never go silent");
        }
    }

    #[test]
    fn synthetic_outcome_is_deterministic_and_stream_sensitive() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        assert_eq!(synthetic_outcome(&mut a, 3), synthetic_outcome(&mut b, 3));
        // The trial index matters even for identical streams.
        let mut c = StdRng::seed_from_u64(7);
        let mut d = StdRng::seed_from_u64(7);
        let outcomes: Vec<Outcome> = (0..16).map(|t| synthetic_outcome(&mut c, t)).collect();
        let shifted: Vec<Outcome> = (1..17).map(|t| synthetic_outcome(&mut d, t)).collect();
        assert_ne!(outcomes, shifted);
    }

    #[test]
    fn trace_experiment_is_thread_invariant_and_trace_sensitive() {
        let p = &cppc_workloads::spec2000_profiles()[0];
        let trace = SharedTrace::generate(p, 0x7ACE, 2_000);
        let sequential: OutcomeTally = cppc_campaign::run(
            &cppc_campaign::CampaignConfig::new(0x7ACE, 32).shard_size(8),
            trace_experiment(&trace),
        )
        .result;
        let threaded: OutcomeTally = cppc_campaign::run(
            &cppc_campaign::CampaignConfig::new(0x7ACE, 32)
                .shard_size(8)
                .threads(4),
            trace_experiment(&trace),
        )
        .result;
        assert_eq!(sequential, threaded, "tally independent of thread count");
        assert_eq!(sequential.total(), 32);
        // A different trace must change the tally: the digest really
        // feeds the outcome draw.
        let other = SharedTrace::generate(p, 0x7ACF, 2_000);
        let diverged: OutcomeTally = cppc_campaign::run(
            &cppc_campaign::CampaignConfig::new(0x7ACE, 32).shard_size(8),
            trace_experiment(&other),
        )
        .result;
        assert_ne!(sequential, diverged, "tally sensitive to the trace");
    }

    #[test]
    fn sleep_experiment_tallies_match_engine_reruns() {
        let cfg = cppc_campaign::CampaignConfig::new(0x51EE, 64).shard_size(8);
        let a: OutcomeTally = cppc_campaign::run(&cfg, sleep_experiment(0)).result;
        let b: OutcomeTally = cppc_campaign::run(&cfg, sleep_experiment(0)).result;
        assert_eq!(a, b);
        assert_eq!(a.total(), 64);
    }
}
