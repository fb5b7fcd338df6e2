//! `cppc-campaign` — parallel deterministic campaign engine.
//!
//! Every headline result of the CPPC reproduction is a *campaign*:
//! thousands of independent seeded experiments (fault injections,
//! Monte Carlo MTTF trials, per-profile trace sweeps) whose outcomes
//! are merged into one report. This crate runs such campaigns across
//! worker threads while keeping the merged result **bit-identical at
//! any thread count**, and carries the supporting infrastructure:
//!
//! * [`engine`] — sharded execution, workers taking shards in order
//!   from one atomic cursor, order-independent merging, worker-panic
//!   containment;
//! * [`checkpoint`] — periodic JSON checkpoints and resume;
//! * [`metrics`] — live trials/sec, per-outcome counters and ETA;
//! * [`snapshot`] — per-process pool of warm trial contexts, so each
//!   worker simulates the warmup prefix once and every later trial
//!   restores it in place;
//! * [`rng`] — the workspace's self-contained deterministic PRNGs
//!   (SplitMix64, xorshift128+), also used by every other crate so the
//!   workspace builds fully offline;
//! * [`json`] — the dependency-free JSON used by checkpoints and
//!   benchmark baselines.
//!
//! # Example
//!
//! ```
//! use cppc_campaign::{run, Accumulator, CampaignConfig};
//! use cppc_campaign::rng::{rngs::StdRng, RngExt};
//!
//! #[derive(Default)]
//! struct Heads(u64);
//!
//! impl Accumulator for Heads {
//!     type Item = bool;
//!     fn record(&mut self, _trial: u64, heads: bool) {
//!         self.0 += u64::from(heads);
//!     }
//!     fn merge(&mut self, other: Self) {
//!         self.0 += other.0;
//!     }
//! }
//!
//! let cfg = CampaignConfig::new(0xC0FFEE, 10_000).threads(4);
//! let report = run::<Heads, _>(&cfg, |rng: &mut StdRng, _| rng.random_bool(0.5));
//! assert!(report.is_complete());
//! // Identical to the 1-thread result, bit for bit:
//! let seq = run::<Heads, _>(&cfg.clone().threads(1), |rng, _| rng.random_bool(0.5));
//! assert_eq!(report.result.0, seq.result.0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod checkpoint;
pub mod engine;
pub mod json;
pub mod metrics;
pub mod obs;
pub mod rng;
pub mod snapshot;

pub use checkpoint::{CampaignIdentity, CheckpointError, Persist};
pub use engine::{
    run, run_exec, run_with, trial_rng, trial_seed, Accumulator, CampaignConfig, CampaignReport,
    CheckpointPolicy, FailedShard, PerTrial, RunOpts, TrialExec, DEFAULT_SHARD_SIZE,
};
pub use metrics::Progress;
pub use snapshot::WarmPool;
