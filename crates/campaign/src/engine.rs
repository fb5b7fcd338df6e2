//! The parallel deterministic campaign engine.
//!
//! A campaign is `trials` independent deterministic experiments. The
//! engine splits them into fixed-size *shards*, hands the shards out to
//! worker threads in ascending order from one atomic cursor, and
//! merges per-shard results in shard order. Three properties fall out
//! of the design:
//!
//! * **Determinism at any thread count.** Every trial's RNG stream is
//!   derived from `(campaign seed, trial index)` alone
//!   ([`trial_seed`]), the shard partition depends only on
//!   `trials`/`shard_size`, and merging happens in shard-index order —
//!   never in completion order. The merged result is therefore
//!   bit-identical whether the campaign ran on 1 thread or 64.
//! * **Interruptibility.** With a [`CheckpointPolicy`], completed
//!   shards are serialized to a JSON checkpoint on a wall-clock
//!   cadence and once more when the run ends or is interrupted; a
//!   resumed campaign re-executes only the missing shards and merges
//!   to the identical final result.
//! * **Panic containment.** A panicking experiment poisons only its
//!   shard: the worker records the shard's trial range, derived seed
//!   and panic message in the report and moves on.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::checkpoint::{
    load_checkpoint, write_checkpoint, CampaignIdentity, CheckpointError, Persist,
};
use crate::metrics::{MetricsTracker, Progress};
use crate::rng::{mix64, rngs::StdRng, SeedableRng, GOLDEN_GAMMA};

/// Default trials per shard: small enough to load-balance and
/// checkpoint at fine grain, large enough to amortise scheduling.
pub const DEFAULT_SHARD_SIZE: u64 = 64;

/// Derives the seed of one trial's RNG stream from the campaign seed.
///
/// This is SplitMix64 random access at position `trial + 1`: it
/// depends only on `(campaign_seed, trial)`, never on shard layout or
/// execution order, which is what makes campaign results independent
/// of the thread count.
#[must_use]
pub const fn trial_seed(campaign_seed: u64, trial: u64) -> u64 {
    mix64(campaign_seed.wrapping_add(GOLDEN_GAMMA.wrapping_mul(trial.wrapping_add(1))))
}

/// Builds the RNG a given trial receives.
#[must_use]
pub fn trial_rng(campaign_seed: u64, trial: u64) -> StdRng {
    StdRng::seed_from_u64(trial_seed(campaign_seed, trial))
}

/// Executes a contiguous range of trials of one shard into an
/// accumulator.
///
/// The engine's determinism contract binds implementations, not just
/// the engine: for every trial in `lo..hi` the executor must derive
/// that trial's randomness from [`trial_rng`]`(seed, trial)` alone and
/// call `acc.record(trial, …)` exactly once, in ascending trial order.
/// Under that contract a range executor — e.g. one that evaluates
/// several trials through a single vectorized instruction stream — is
/// observationally identical to the per-trial loop at any thread
/// count, shard size or batch width.
///
/// Closures keep working through [`PerTrial`]; [`run_exec`] and
/// [`run_with`] accept any executor.
pub trait TrialExec<A: Accumulator>: Sync {
    /// Runs trials `lo..hi` (derived from `seed`) into `acc`.
    fn run_range(&self, seed: u64, lo: u64, hi: u64, acc: &mut A);
}

/// The ordinary per-trial executor: each trial gets its own derived
/// RNG and one closure call.
pub struct PerTrial<F>(pub F);

impl<A, F> TrialExec<A> for PerTrial<F>
where
    A: Accumulator,
    F: Fn(&mut StdRng, u64) -> A::Item + Sync,
{
    fn run_range(&self, seed: u64, lo: u64, hi: u64, acc: &mut A) {
        for trial in lo..hi {
            let mut rng = trial_rng(seed, trial);
            acc.record(trial, (self.0)(&mut rng, trial));
        }
    }
}

/// Order-independent aggregation of per-trial results.
///
/// `merge` must be associative, and the engine guarantees it is always
/// invoked in ascending shard order, so even non-commutative
/// aggregations (floating-point sums, concatenation) are reproducible.
pub trait Accumulator: Default + Send {
    /// What one trial produces.
    type Item;

    /// Folds one trial's result into this shard's state.
    fn record(&mut self, trial: u64, item: Self::Item);

    /// Folds a later shard's state into this one.
    fn merge(&mut self, other: Self);

    /// Labelled live counters for progress display (e.g. `Corrected`).
    fn counters(&self) -> Vec<(&'static str, u64)> {
        Vec::new()
    }
}

/// Campaign shape: seed, size and execution parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignConfig {
    /// Master seed every trial stream derives from.
    pub seed: u64,
    /// Number of independent trials.
    pub trials: u64,
    /// Worker threads; `0` means one per available CPU.
    pub threads: usize,
    /// Trials per shard. Changing this changes checkpoint granularity
    /// and floating-point merge grouping, so it is part of the
    /// campaign identity; results at a fixed `shard_size` are
    /// identical at any thread count.
    pub shard_size: u64,
    /// Stop dispatching new shards once this many have completed —
    /// used to interrupt a campaign gracefully (checkpoint tests,
    /// budgeted runs). `None` runs to completion.
    pub stop_after_shards: Option<u64>,
}

impl CampaignConfig {
    /// A sequential campaign with the default shard size.
    #[must_use]
    pub fn new(seed: u64, trials: u64) -> Self {
        CampaignConfig {
            seed,
            trials,
            threads: 1,
            shard_size: DEFAULT_SHARD_SIZE,
            stop_after_shards: None,
        }
    }

    /// Sets the worker-thread count (`0` = all available CPUs).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the shard size.
    ///
    /// # Panics
    ///
    /// Panics if `shard_size` is zero.
    #[must_use]
    pub fn shard_size(mut self, shard_size: u64) -> Self {
        assert!(shard_size > 0, "shard size must be positive");
        self.shard_size = shard_size;
        self
    }

    /// Sets the graceful-stop shard budget.
    #[must_use]
    pub fn stop_after_shards(mut self, shards: u64) -> Self {
        self.stop_after_shards = Some(shards);
        self
    }

    /// Number of shards the trial range splits into.
    #[must_use]
    pub fn total_shards(&self) -> u64 {
        self.trials.div_ceil(self.shard_size)
    }

    /// The worker count actually used.
    #[must_use]
    pub fn resolved_threads(&self) -> usize {
        let hw = || {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        };
        let wanted = if self.threads == 0 {
            hw()
        } else {
            self.threads
        };
        wanted.max(1).min(self.total_shards().max(1) as usize)
    }

    /// This campaign's checkpoint identity.
    #[must_use]
    pub fn identity(&self) -> CampaignIdentity {
        CampaignIdentity {
            seed: self.seed,
            trials: self.trials,
            shard_size: self.shard_size,
        }
    }

    fn shard_bounds(&self, shard: u64) -> (u64, u64) {
        let lo = shard * self.shard_size;
        (lo, (lo + self.shard_size).min(self.trials))
    }
}

/// Where and how often to checkpoint, and whether to resume.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Checkpoint file path.
    pub path: PathBuf,
    /// Minimum wall-clock time between periodic writes: a shard that
    /// completes once `every` has passed since the last write triggers
    /// the next one. [`Duration::ZERO`] writes after every shard. The
    /// final write (run complete or interrupted) happens regardless.
    ///
    /// Each write is a create + write + rename, whose cost is mostly
    /// file-system latency rather than serialisation, so a time bound
    /// keeps a campaign of many short shards from paying it per shard.
    pub every: Duration,
    /// Load previously completed shards from `path` before running.
    pub resume: bool,
}

impl CheckpointPolicy {
    /// Checkpoints to `path` at most once a second (plus the final
    /// write), resuming if the file already exists.
    #[must_use]
    pub fn new(path: impl Into<PathBuf>) -> Self {
        CheckpointPolicy {
            path: path.into(),
            every: Duration::from_secs(1),
            resume: true,
        }
    }
}

/// A shard whose experiment panicked.
#[derive(Debug, Clone)]
pub struct FailedShard {
    /// Shard index.
    pub shard: u64,
    /// First trial of the shard (inclusive).
    pub trial_lo: u64,
    /// Last trial of the shard (exclusive).
    pub trial_hi: u64,
    /// Derived RNG seed of the shard's first trial — enough to replay
    /// the failure deterministically.
    pub first_trial_seed: u64,
    /// The panic message.
    pub message: String,
}

/// What a campaign run produced.
#[derive(Debug)]
pub struct CampaignReport<A> {
    /// Merged result over all completed shards, in shard order.
    pub result: A,
    /// Trials contributing to `result`.
    pub trials_merged: u64,
    /// Total shards in the campaign.
    pub total_shards: u64,
    /// Shards completed (executed + resumed).
    pub completed_shards: u64,
    /// Shards restored from the checkpoint instead of executed.
    pub resumed_shards: u64,
    /// Shards that panicked (excluded from `result`).
    pub failed: Vec<FailedShard>,
    /// Wall-clock seconds for this run.
    pub elapsed_secs: f64,
}

impl<A> CampaignReport<A> {
    /// `true` when every shard completed and none failed.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.failed.is_empty() && self.completed_shards == self.total_shards
    }
}

enum WorkerMsg<A> {
    Done { shard: u64, acc: A },
    Failed { shard: u64, message: String },
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic of unknown type".to_string()
    }
}

/// Runs a campaign to completion with no checkpoint, interrupt or
/// progress reporting.
pub fn run<A, F>(cfg: &CampaignConfig, experiment: F) -> CampaignReport<A>
where
    A: Accumulator,
    F: Fn(&mut StdRng, u64) -> A::Item + Sync,
{
    run_exec(cfg, PerTrial(experiment))
}

/// [`run`] with an explicit [`TrialExec`] range executor.
pub fn run_exec<A, E>(cfg: &CampaignConfig, exec: E) -> CampaignReport<A>
where
    A: Accumulator,
    E: TrialExec<A>,
{
    run_impl(cfg, &exec, Vec::new(), None, None, &mut |_| {})
}

/// What a [`run_with`] campaign does besides running: checkpoint,
/// stop on an interrupt flag, report progress. Every field is
/// optional; `RunOpts::default()` is a plain [`run_exec`].
#[derive(Default)]
pub struct RunOpts<'a> {
    /// Checkpoint (and, with [`CheckpointPolicy::resume`], resume from)
    /// this file.
    pub checkpoint: Option<&'a CheckpointPolicy>,
    /// Cooperative stop flag. When another thread sets it (a service's
    /// shutdown or cancel path), workers stop taking new shards,
    /// already-running shards finish, and the final checkpoint covers
    /// everything completed so far. The report is then not
    /// [`CampaignReport::is_complete`]; a later resumed run merges to
    /// the bit-identical result an uninterrupted run produces.
    pub interrupt: Option<&'a AtomicBool>,
    /// Receives a [`Progress`] snapshot after every executed or failed
    /// shard (never for shards restored from the checkpoint).
    pub progress: Option<&'a mut dyn FnMut(&Progress)>,
}

impl<'a> RunOpts<'a> {
    /// Checkpoints under `policy`; no interrupt, no progress.
    #[must_use]
    pub fn checkpointed(policy: &'a CheckpointPolicy) -> Self {
        RunOpts {
            checkpoint: Some(policy),
            ..RunOpts::default()
        }
    }
}

/// Runs a campaign under [`RunOpts`].
///
/// With a checkpoint whose policy resumes, previously completed shards
/// are loaded from its path and only the remainder executes; the
/// merged result is identical to an uninterrupted run.
///
/// # Errors
///
/// Returns [`CheckpointError`] when the checkpoint file exists but is
/// malformed, belongs to a different campaign, or cannot be written.
pub fn run_with<A, E>(
    cfg: &CampaignConfig,
    exec: &E,
    opts: RunOpts<'_>,
) -> Result<CampaignReport<A>, CheckpointError>
where
    A: Accumulator + Persist,
    E: TrialExec<A>,
{
    let on_progress: &mut dyn FnMut(&Progress) = match opts.progress {
        Some(p) => p,
        None => &mut |_| {},
    };
    let Some(policy) = opts.checkpoint else {
        return Ok(run_impl(
            cfg,
            exec,
            Vec::new(),
            None,
            opts.interrupt,
            on_progress,
        ));
    };
    let identity = cfg.identity();
    let preloaded = if policy.resume {
        load_checkpoint::<A>(&policy.path, identity)?
    } else {
        Vec::new()
    };
    let mut last_save = Instant::now();
    let mut io_error: Option<std::io::Error> = None;
    let report = {
        let mut save = |slots: &[Option<A>], finished: bool| {
            if finished || last_save.elapsed() >= policy.every {
                let _ckpt_span = crate::obs::CHECKPOINT_WRITE.start();
                crate::obs::CHECKPOINT_WRITES.inc();
                if let Err(e) = write_checkpoint(&policy.path, identity, slots) {
                    io_error.get_or_insert(e);
                }
                last_save = Instant::now();
            }
        };
        run_impl(
            cfg,
            exec,
            preloaded,
            Some(&mut save),
            opts.interrupt,
            on_progress,
        )
    };
    match io_error {
        Some(e) => Err(e.into()),
        None => Ok(report),
    }
}

#[allow(clippy::type_complexity, clippy::too_many_lines)]
fn run_impl<A, E, P>(
    cfg: &CampaignConfig,
    exec: &E,
    preloaded: Vec<(u64, A)>,
    mut save: Option<&mut dyn FnMut(&[Option<A>], bool)>,
    interrupt: Option<&AtomicBool>,
    on_progress: &mut P,
) -> CampaignReport<A>
where
    A: Accumulator,
    E: TrialExec<A>,
    P: FnMut(&Progress) + ?Sized,
{
    let total_shards = cfg.total_shards();
    let mut slots: Vec<Option<A>> = (0..total_shards).map(|_| None).collect();
    let mut tracker = MetricsTracker::new(cfg.trials, total_shards);

    crate::obs::register_metrics();
    let mut resumed = 0u64;
    for (shard, acc) in preloaded {
        let slot = &mut slots[shard as usize];
        if slot.is_none() {
            let (lo, hi) = cfg.shard_bounds(shard);
            tracker.record_resumed(hi - lo, &acc.counters());
            crate::obs::SHARDS_RESUMED.inc();
            *slot = Some(acc);
            resumed += 1;
        }
    }

    // Workers take pending shards in ascending order from one cursor.
    // The stop budget caps how many hand out in total, which is what
    // makes graceful interruption exact rather than racy. The cursor
    // publishes nothing (`pending` is fixed before any worker starts),
    // so `Relaxed` suffices.
    let mut pending: Vec<u64> = (0..total_shards)
        .filter(|&s| slots[s as usize].is_none())
        .collect();
    if let Some(budget) = cfg.stop_after_shards {
        pending.truncate(usize::try_from(budget.saturating_sub(resumed)).unwrap_or(usize::MAX));
    }
    let cursor = AtomicUsize::new(0);
    let workers = cfg.resolved_threads();
    let mut completed = resumed;
    let mut failed: Vec<FailedShard> = Vec::new();

    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel::<WorkerMsg<A>>();
        let (pending, cursor, exec) = (&pending, &cursor, &exec);
        // Runs the next pending shard; `None` once every one has been
        // handed out or the run is interrupted.
        let run_next = move || -> Option<WorkerMsg<A>> {
            if interrupt.is_some_and(|f| f.load(Ordering::Acquire)) {
                return None;
            }
            let &shard = pending.get(cursor.fetch_add(1, Ordering::Relaxed))?;
            let (lo, hi) = cfg.shard_bounds(shard);
            let _shard_span = crate::obs::SHARD_LATENCY.start();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let mut acc = A::default();
                exec.run_range(cfg.seed, lo, hi, &mut acc);
                acc
            }));
            Some(match outcome {
                Ok(acc) => WorkerMsg::Done { shard, acc },
                Err(payload) => WorkerMsg::Failed {
                    shard,
                    message: panic_message(payload.as_ref()),
                },
            })
        };
        for _ in 1..workers {
            let tx = tx.clone();
            scope.spawn(move || {
                while let Some(msg) = run_next() {
                    if tx.send(msg).is_err() {
                        break;
                    }
                }
                // Spill this worker's span aggregates before the closure
                // returns: `thread::scope` unblocks on closure completion,
                // which can precede the thread's TLS destructors, so a
                // snapshot taken right after the scope would race the
                // destructor-driven spill.
                cppc_obs::flush();
            });
        }
        drop(tx);

        let mut handle = |msg: WorkerMsg<A>| {
            match msg {
                WorkerMsg::Done { shard, acc } => {
                    let (lo, hi) = cfg.shard_bounds(shard);
                    tracker.record_executed(hi - lo, &acc.counters());
                    crate::obs::SHARDS_EXECUTED.inc();
                    crate::obs::TRIALS_EXECUTED.add(hi - lo);
                    slots[shard as usize] = Some(acc);
                }
                WorkerMsg::Failed { shard, message } => {
                    let (lo, hi) = cfg.shard_bounds(shard);
                    tracker.record_failed(hi - lo);
                    crate::obs::SHARDS_FAILED.inc();
                    cppc_obs::record_event("campaign.shard_failed", || {
                        format!("shard {shard} (trials {lo}..{hi}): {message}")
                    });
                    failed.push(FailedShard {
                        shard,
                        trial_lo: lo,
                        trial_hi: hi,
                        first_trial_seed: trial_seed(cfg.seed, lo),
                        message,
                    });
                }
            }
            completed += 1;
            if let Some(save) = save.as_mut() {
                save(&slots, false);
            }
            on_progress(&tracker.snapshot());
        };
        // The calling thread is worker 0: between its own shards it folds
        // in whatever the other workers finished meanwhile.
        while let Some(msg) = run_next() {
            handle(msg);
            while let Ok(msg) = rx.try_recv() {
                handle(msg);
            }
        }
        // Spill worker 0's spans as the other workers do: the calling
        // thread (a daemon job, a CLI run) may outlive the campaign by
        // far, and its thread-exit spill would come too late for a
        // snapshot taken from another thread.
        cppc_obs::flush();
        for msg in rx {
            handle(msg);
        }
    });

    if let Some(save) = save.as_mut() {
        save(&slots, true);
    }

    // Merge in ascending shard order — completion order never matters.
    let mut result = A::default();
    let mut trials_merged = 0u64;
    for (shard, slot) in slots.into_iter().enumerate() {
        if let Some(acc) = slot {
            let (lo, hi) = cfg.shard_bounds(shard as u64);
            trials_merged += hi - lo;
            result.merge(acc);
        }
    }
    failed.sort_by_key(|f| f.shard);

    let progress = tracker.snapshot();
    CampaignReport {
        result,
        trials_merged,
        total_shards,
        completed_shards: completed,
        resumed_shards: resumed,
        failed,
        elapsed_secs: progress.elapsed_secs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::rng::RngExt;

    /// Sums the first random u64 of every trial — order-sensitive if
    /// the engine ever merged out of order with wrapping arithmetic
    /// replaced; here used to detect stream divergence.
    #[derive(Debug, Default, PartialEq)]
    struct XorDigest {
        digest: u64,
        count: u64,
    }

    impl Accumulator for XorDigest {
        type Item = u64;
        fn record(&mut self, trial: u64, item: Self::Item) {
            // Bind the value to its trial index so reordering shows.
            self.digest ^= mix64(item.wrapping_add(trial));
            self.count += 1;
        }
        fn merge(&mut self, other: Self) {
            // Order-sensitive combiner: rotate before folding.
            self.digest = self.digest.rotate_left(1) ^ other.digest;
            self.count += other.count;
        }
        fn counters(&self) -> Vec<(&'static str, u64)> {
            vec![("trials", self.count)]
        }
    }

    impl Persist for XorDigest {
        fn to_json(&self) -> Json {
            Json::Arr(vec![Json::UInt(self.digest), Json::UInt(self.count)])
        }
        fn from_json(value: &Json) -> Option<Self> {
            let pair = value.as_arr()?;
            Some(XorDigest {
                digest: pair.first()?.as_u64()?,
                count: pair.get(1)?.as_u64()?,
            })
        }
    }

    fn digest_experiment(rng: &mut StdRng, _trial: u64) -> u64 {
        rng.random()
    }

    #[test]
    fn identical_at_any_thread_count() {
        let base = run::<XorDigest, _>(
            &CampaignConfig::new(0xFEED, 1000).shard_size(16),
            digest_experiment,
        );
        assert_eq!(base.result.count, 1000);
        assert!(base.is_complete());
        for threads in [2, 3, 8] {
            let parallel = run::<XorDigest, _>(
                &CampaignConfig::new(0xFEED, 1000)
                    .shard_size(16)
                    .threads(threads),
                digest_experiment,
            );
            assert_eq!(parallel.result, base.result, "threads = {threads}");
        }
    }

    #[test]
    fn trial_seed_is_order_free() {
        assert_ne!(trial_seed(1, 0), trial_seed(1, 1));
        assert_ne!(trial_seed(1, 0), trial_seed(2, 0));
        assert_eq!(trial_seed(7, 42), trial_seed(7, 42));
    }

    #[test]
    fn short_final_shard_handled() {
        let report = run::<XorDigest, _>(
            &CampaignConfig::new(1, 100).shard_size(64),
            digest_experiment,
        );
        assert_eq!(report.total_shards, 2);
        assert_eq!(report.result.count, 100);
        assert_eq!(report.trials_merged, 100);
    }

    #[test]
    fn panics_are_contained() {
        let report = run::<XorDigest, _>(
            &CampaignConfig::new(3, 100).shard_size(10).threads(2),
            |rng, trial| {
                assert!(!(50..60).contains(&trial), "boom on trial {trial}");
                digest_experiment(rng, trial)
            },
        );
        assert_eq!(report.failed.len(), 1);
        let f = &report.failed[0];
        assert_eq!((f.trial_lo, f.trial_hi), (50, 60));
        assert_eq!(f.first_trial_seed, trial_seed(3, 50));
        assert!(f.message.contains("boom"), "{}", f.message);
        assert_eq!(report.result.count, 90);
        assert!(!report.is_complete());
    }

    #[test]
    fn stop_budget_interrupts() {
        let report = run::<XorDigest, _>(
            &CampaignConfig::new(5, 1000)
                .shard_size(10)
                .stop_after_shards(3),
            digest_experiment,
        );
        assert_eq!(report.completed_shards, 3);
        assert_eq!(report.result.count, 30);
        assert!(!report.is_complete());
    }

    #[test]
    fn resumable_equals_uninterrupted() {
        let dir = std::env::temp_dir().join("cppc_engine_resume_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.json");
        let _ = std::fs::remove_file(&path);
        let cfg = CampaignConfig::new(0xAB, 500).shard_size(16);
        let policy = CheckpointPolicy {
            path: path.clone(),
            every: Duration::ZERO,
            resume: true,
        };
        let exec = PerTrial(digest_experiment);

        // Interrupt after ~7 shards.
        let partial: CampaignReport<XorDigest> = run_with(
            &cfg.clone().stop_after_shards(7),
            &exec,
            RunOpts::checkpointed(&policy),
        )
        .unwrap();
        assert!(!partial.is_complete());

        // Resume and compare with an uninterrupted run.
        let resumed: CampaignReport<XorDigest> =
            run_with(&cfg, &exec, RunOpts::checkpointed(&policy)).unwrap();
        assert!(resumed.is_complete());
        assert!(resumed.resumed_shards >= 7);
        let oneshot = run::<XorDigest, _>(&cfg, digest_experiment);
        assert_eq!(resumed.result, oneshot.result);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A fresh checkpoint path in a per-test scratch directory.
    fn cadence_path(test: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cppc_engine_cadence_{test}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("ckpt.json")
    }

    /// Runs a 20-shard campaign under `every`, recording whether the
    /// checkpoint file existed at each progress callback.
    fn file_seen_per_callback(path: &std::path::Path, every: Duration) -> Vec<bool> {
        let policy = CheckpointPolicy {
            path: path.to_path_buf(),
            every,
            resume: false,
        };
        let mut seen = Vec::new();
        let report: CampaignReport<XorDigest> = run_with(
            &CampaignConfig::new(0xCAD, 320).shard_size(16),
            &PerTrial(digest_experiment),
            RunOpts {
                checkpoint: Some(&policy),
                progress: Some(&mut |_| seen.push(path.exists())),
                ..RunOpts::default()
            },
        )
        .unwrap();
        assert!(report.is_complete());
        assert_eq!(seen.len(), 20);
        seen
    }

    #[test]
    fn long_cadence_writes_only_the_final_checkpoint() {
        let path = cadence_path("long");
        let seen = file_seen_per_callback(&path, Duration::from_secs(3600));
        assert!(
            seen.iter().all(|&exists| !exists),
            "no periodic write may land within the hour: {seen:?}"
        );
        assert!(path.exists(), "the final write is unconditional");
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn zero_cadence_writes_after_every_shard() {
        let path = cadence_path("zero");
        let seen = file_seen_per_callback(&path, Duration::ZERO);
        assert!(seen.iter().all(|&exists| exists), "{seen:?}");
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn interrupt_always_leaves_a_resumable_checkpoint() {
        let path = cadence_path("interrupt");
        let cfg = CampaignConfig::new(0xAB, 500).shard_size(16);
        let policy = CheckpointPolicy {
            path: path.clone(),
            every: Duration::from_secs(3600),
            resume: true,
        };
        let exec = PerTrial(digest_experiment);
        let partial: CampaignReport<XorDigest> = run_with(
            &cfg.clone().stop_after_shards(5),
            &exec,
            RunOpts::checkpointed(&policy),
        )
        .unwrap();
        assert!(!partial.is_complete());
        assert!(
            path.exists(),
            "an interrupted run must leave its checkpoint"
        );
        let resumed: CampaignReport<XorDigest> =
            run_with(&cfg, &exec, RunOpts::checkpointed(&policy)).unwrap();
        assert_eq!(resumed.resumed_shards, 5);
        assert_eq!(
            resumed.result,
            run::<XorDigest, _>(&cfg, digest_experiment).result
        );
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    /// A stop budget of k at two threads hands out exactly the first k
    /// shards: the partial tally is that of a k-shard campaign, and a
    /// resumed run restores those k shards.
    #[test]
    fn stop_budget_dispatches_the_first_shards_in_order() {
        let path = cadence_path("budget");
        let cfg = CampaignConfig::new(0xB0D6, 1000).shard_size(10).threads(2);
        let policy = CheckpointPolicy {
            path: path.clone(),
            every: Duration::ZERO,
            resume: true,
        };
        let exec = PerTrial(digest_experiment);
        for k in [1, 3, 7, 20] {
            let _ = std::fs::remove_file(&path);
            let partial: CampaignReport<XorDigest> = run_with(
                &cfg.clone().stop_after_shards(k),
                &exec,
                RunOpts::checkpointed(&policy),
            )
            .unwrap();
            let first_k = run::<XorDigest, _>(
                &CampaignConfig::new(0xB0D6, k * 10).shard_size(10),
                digest_experiment,
            );
            assert_eq!(partial.result, first_k.result, "budget {k}");
            let resumed: CampaignReport<XorDigest> =
                run_with(&cfg, &exec, RunOpts::checkpointed(&policy)).unwrap();
            assert_eq!(resumed.resumed_shards, k, "budget {k}");
            assert!(resumed.is_complete());
        }
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn progress_reports_flow() {
        let mut snapshots = 0u64;
        let mut last_done = 0u64;
        let report: CampaignReport<XorDigest> = run_with(
            &CampaignConfig::new(9, 200).shard_size(50),
            &PerTrial(digest_experiment),
            RunOpts {
                progress: Some(&mut |p| {
                    snapshots += 1;
                    assert!(p.trials_done >= last_done);
                    last_done = p.trials_done;
                    assert_eq!(p.trials_total, 200);
                }),
                ..RunOpts::default()
            },
        )
        .unwrap();
        assert_eq!(snapshots, 4);
        assert_eq!(last_done, 200);
        assert!(report.is_complete());
    }

    #[test]
    fn zero_threads_resolves_to_hardware() {
        let cfg = CampaignConfig::new(0, 1000).threads(0);
        assert!(cfg.resolved_threads() >= 1);
        // Never more workers than shards.
        let tiny = CampaignConfig::new(0, 1).threads(64);
        assert_eq!(tiny.resolved_threads(), 1);
    }

    #[test]
    fn counters_surface_in_progress() {
        let mut seen = Vec::new();
        let _: CampaignReport<XorDigest> = run_with(
            &CampaignConfig::new(2, 64).shard_size(64),
            &PerTrial(digest_experiment),
            RunOpts {
                progress: Some(&mut |p| seen = p.counters.clone()),
                ..RunOpts::default()
            },
        )
        .unwrap();
        assert_eq!(seen, vec![("trials", 64)]);
    }
}
