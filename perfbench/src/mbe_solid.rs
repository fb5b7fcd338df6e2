//! `mbe-solid`: the paper's 4x4 solid-strike coverage campaign
//! (`MbeBatchExec::solid` through `cppc_campaign::run_exec`, shard 64,
//! batch 64, one worker per CPU).
//!
//! Its cost is fault sampling, gather, the SIMD syndrome kernel,
//! classification and the engine's per-shard overhead; it never runs
//! the recovery walk, trace decode, the hierarchy or the daemon.
//!
//! The traced run drives the same batch loop itself through the public
//! calls (`FaultGenerator::sample_into`, `BatchSim::gather`,
//! `BatchSim::syndromes`, `BatchSim::classify`, and the per-trial
//! `experiment_model` for lanes that need the full simulator) and must
//! reproduce the untraced tally exactly.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use cppc_bench::mbe::{self, MbeBatchExec, SOLID_MODEL};
use cppc_cache_sim::memory::MainMemory;
use cppc_cache_sim::replacement::ReplacementPolicy;
use cppc_campaign::rng::RngExt;
use cppc_campaign::{run_exec, trial_rng, trial_seed, Accumulator, CampaignConfig, TrialExec};
use cppc_core::{BatchOutcome, BatchScratch, BatchSim, CppcCache, CppcConfig};
use cppc_fault::model::{FaultGenerator, FaultPattern};
use cppc_fault::{Outcome, OutcomeTally};

use crate::obsdelta::ObsSnap;
use crate::report::{median, peak_rss_mb, percentile, Metric, RunOutput};
use crate::spans::{self, Tracer, WINDOW};
use crate::{Opts, Scale};

/// Trials per shard, lanes per batch and engine workers (0 = one per
/// CPU): the CLI's mbe campaign shape.
const SHARD: u64 = 64;
const BATCH: usize = 64;
const THREADS: usize = 0;

/// The work shape of one run.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Trials per engine call in the untraced run.
    pub trials_per_rep: u64,
    /// Trials per engine call in the traced run (each traced call is
    /// grouped with untraced calls of the same campaign).
    pub traced_trials_per_rep: u64,
}

impl Shape {
    /// The shape at `scale`.
    #[must_use]
    pub fn at(scale: Scale) -> Self {
        match scale {
            Scale::Full => Shape {
                trials_per_rep: 1 << 18,
                traced_trials_per_rep: 1 << 16,
            },
            Scale::Tiny => Shape {
                trials_per_rep: 4096,
                traced_trials_per_rep: 2048,
            },
        }
    }

    fn config(&self, seed: u64, trials: u64) -> CampaignConfig {
        CampaignConfig::new(seed, trials)
            .shard_size(SHARD)
            .threads(THREADS)
    }
}

/// Set-up as the executor's warm pool performs it, through public
/// calls: build the paper-config L1, replay the way-0 warm-up, capture
/// both snapshots, and certify the warm state for the batch engine.
///
/// # Errors
///
/// Returns a message if the cache cannot be built or warmed, or the
/// warm state fails certification.
pub fn warm_and_certify() -> Result<BatchSim, String> {
    let mut mem = MainMemory::new();
    let mut cache = CppcCache::new_l1(mbe::geometry(), CppcConfig::paper(), ReplacementPolicy::Lru)
        .map_err(|e| format!("paper config rejected: {e:?}"))?;
    for (addr, v) in mbe::oracle(mbe::SEED) {
        cache
            .store_word(addr, v, &mut mem)
            .map_err(|e| format!("warm-up store failed: {e:?}"))?;
    }
    black_box((cache.snapshot(), mem.snapshot()));
    cache
        .batch_sim()
        .ok_or_else(|| "warm state failed batch certification".to_string())
}

/// One timed [`warm_and_certify`], its duration appended to `setup`.
fn timed_setup(setup: &mut Vec<f64>) -> Result<BatchSim, String> {
    let t = Instant::now();
    let sim = warm_and_certify()?;
    setup.push(t.elapsed().as_secs_f64());
    Ok(sim)
}

/// The output check: every trial of a solid 4x4 strike is corrected
/// (paper §4.4).
fn all_corrected(tally: &OutcomeTally, trials: u64) -> bool {
    tally.corrected == trials && tally.masked == 0 && tally.due == 0 && tally.sdc == 0
}

/// Runs the workload.
///
/// # Errors
///
/// Returns a message when set-up fails.
pub fn run(opts: &Opts) -> Result<RunOutput, String> {
    let shape = Shape::at(opts.scale);
    let mut setup = Vec::new();
    let sim = timed_setup(&mut setup)?;
    let exec = MbeBatchExec::solid(BATCH);
    // Let every worker's warm pool fill before anything is timed.
    let warm_trials = SHARD * 4 * crate::report::nproc() as u64;
    let warm = run_exec::<OutcomeTally, _>(
        &shape.config(trial_seed(opts.seed, u64::MAX), warm_trials),
        exec,
    );
    if !warm.is_complete() {
        return Err("warm-up campaign did not complete".into());
    }
    let mut out = if opts.trace {
        traced(opts, &shape, &sim, exec)
    } else {
        untraced(opts, &shape, exec, &mut setup)?
    };
    out.shape = vec![
        ("trials_per_rep", shape.trials_per_rep),
        ("traced_trials_per_rep", shape.traced_trials_per_rep),
        ("shard", SHARD),
        ("batch", BATCH as u64),
    ];
    if !opts.trace {
        out.metrics
            .push(Metric::new("setup_s", "s", median(&setup)));
        out.metrics
            .push(Metric::new("peak_rss_mb", "MB", peak_rss_mb()));
    }
    Ok(out)
}

/// The measured loop. Set-up is repeated before every engine call (and
/// kept out of the call's time), so `setup_s` is a median over the
/// whole run rather than one moment of it.
fn untraced(
    opts: &Opts,
    shape: &Shape,
    exec: MbeBatchExec,
    setup: &mut Vec<f64>,
) -> Result<RunOutput, String> {
    let budget = Duration::from_secs_f64(opts.seconds);
    let start = Instant::now();
    let (mut trials, mut secs, mut failed) = (0u64, 0.0f64, 0u64);
    let mut rep = 0u64;
    let (mut tallies, mut calls_ms) = (Vec::new(), Vec::new());
    while rep == 0 || start.elapsed() < budget {
        timed_setup(setup)?;
        let cfg = shape.config(trial_seed(opts.seed, rep), shape.trials_per_rep);
        let t = Instant::now();
        let report = run_exec::<OutcomeTally, _>(&cfg, exec);
        let dt = t.elapsed().as_secs_f64();
        secs += dt;
        calls_ms.push(dt * 1e3);
        trials += shape.trials_per_rep;
        let failed_trials: u64 = report.failed.iter().map(|f| f.trial_hi - f.trial_lo).sum();
        failed += failed_trials.max(shape.trials_per_rep.saturating_sub(report.result.corrected));
        tallies.push(report.result);
        rep += 1;
    }
    let correct = failed == 0
        && tallies
            .iter()
            .all(|t| all_corrected(t, shape.trials_per_rep) && *t == tallies[0]);
    Ok(RunOutput {
        correct,
        attempted: trials,
        failed,
        metrics: vec![
            Metric::new("throughput_per_s", "1/s", trials as f64 / secs),
            Metric::new("latency_p50_ms", "ms", percentile(&calls_ms, 50.0)),
            Metric::new("latency_p90_ms", "ms", percentile(&calls_ms, 90.0)),
        ],
        notes: vec![format!(
            "mbe-solid: {rep} engine calls (latency samples) x {} trials in {secs:.3} s; \
             tally {:?}; median call rate {:.0} trials/s",
            shape.trials_per_rep,
            tallies[0],
            shape.trials_per_rep as f64 / median(&calls_ms) * 1e3
        )],
        ..RunOutput::default()
    })
}

/// Per-run counters of the traced batch loop.
#[derive(Debug, Default)]
struct LaneCounts {
    lanes: AtomicU64,
    needs_full: AtomicU64,
    syndrome_words: AtomicU64,
}

thread_local! {
    /// A worker's fault-pattern buffers, reused across shards as the
    /// executor reuses the one in its warm context.
    static PATTERNS: std::cell::RefCell<Vec<FaultPattern>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// The batch loop of `MbeBatchExec`, driven through the public calls
/// with a span around each layer's call.
struct TracedExec<'a> {
    sim: &'a BatchSim,
    batch: usize,
    tracer: &'a Tracer,
    parent: u64,
    counts: &'a LaneCounts,
}

impl<A: Accumulator<Item = Outcome>> TrialExec<A> for TracedExec<'_> {
    fn run_range(&self, seed: u64, lo: u64, hi: u64, acc: &mut A) {
        let mut local = self.tracer.local();
        let shard = local.open("campaign.run_range", self.parent);
        let sample_rows = self.sim.num_rows() / 2;
        // Like the executor: fresh lane arenas for every range, fault
        // patterns reused from the worker's long-lived context.
        let (mut rows, mut errs, mut syns) = (Vec::new(), Vec::new(), Vec::new());
        let mut lanes: Vec<(u64, usize, usize, u32)> = Vec::new();
        let mut scratch = BatchScratch::default();
        PATTERNS.with_borrow_mut(|patterns| {
            patterns.resize_with(self.batch, FaultPattern::empty);
            let mut chunk_lo = lo;
            while chunk_lo < hi {
                let chunk_hi = (chunk_lo + self.batch as u64).min(hi);
                let n = (chunk_hi - chunk_lo) as usize;

                let span = local.open("fault.sample", shard.id());
                for (pattern, trial) in patterns.iter_mut().zip(chunk_lo..chunk_hi) {
                    let mut rng = trial_rng(seed, trial);
                    FaultGenerator::new(sample_rows, rng.random())
                        .sample_into(SOLID_MODEL, pattern);
                }
                local.close(span);

                let span = local.open("core.gather", shard.id());
                rows.clear();
                errs.clear();
                lanes.clear();
                for (pattern, trial) in patterns[..n].iter().zip(chunk_lo..chunk_hi) {
                    let arena_lo = rows.len();
                    let applied = self.sim.gather(pattern, &mut rows, &mut errs);
                    lanes.push((trial, arena_lo, rows.len(), applied));
                }
                local.close(span);

                let span = local.open("ecc.syndrome", shard.id());
                syns.clear();
                syns.resize(errs.len(), 0);
                self.sim.syndromes(&errs, &mut syns);
                local.close(span);
                self.counts
                    .syndrome_words
                    .fetch_add(errs.len() as u64, Ordering::Relaxed);

                let classify = local.open("core.classify", shard.id());
                for &(trial, a, b, applied) in &lanes {
                    let outcome = if applied == 0 {
                        Outcome::Masked
                    } else {
                        match self.sim.classify(
                            &rows[a..b],
                            &mut errs[a..b],
                            &syns[a..b],
                            &mut scratch,
                        ) {
                            BatchOutcome::Masked => Outcome::Masked,
                            BatchOutcome::Recovered { residual: false } => Outcome::Corrected,
                            BatchOutcome::Recovered { residual: true } => Outcome::SilentCorruption,
                            BatchOutcome::NeedsFull => {
                                self.counts.needs_full.fetch_add(1, Ordering::Relaxed);
                                let span = local.open("core.fallback", classify.id());
                                let outcome =
                                    mbe::experiment_model(SOLID_MODEL, &mut trial_rng(seed, trial));
                                local.close(span);
                                outcome
                            }
                        }
                    };
                    acc.record(trial, outcome);
                }
                local.close(classify);
                self.counts.lanes.fetch_add(n as u64, Ordering::Relaxed);
                chunk_lo = chunk_hi;
            }
        });
        local.close(shard);
    }
}

/// Engine calls per group of the traced run: one traced, the rest
/// untraced, all of the same campaign. Tracing one call in eight keeps
/// the in-memory span list to about half a million spans in a 30 s run.
const GROUP: u64 = 8;

fn traced(opts: &Opts, shape: &Shape, sim: &BatchSim, exec: MbeBatchExec) -> RunOutput {
    let tracer = Tracer::new();
    let counts = LaneCounts::default();
    let budget = Duration::from_secs_f64(opts.seconds);
    let trials_each = shape.traced_trials_per_rep;
    let before = ObsSnap::take();
    let start = Instant::now();
    let (mut plain_s, mut traced_s, mut thread_s) = (0.0f64, 0.0f64, 0.0f64);
    let (mut groups, mut failed, mut mismatches) = (0u64, 0u64, 0u64);
    let mut main = tracer.local();
    while groups == 0 || start.elapsed() < budget {
        let cfg = shape.config(trial_seed(opts.seed, groups), trials_each);
        let mut tallies = Vec::with_capacity(GROUP as usize);
        // Rotate the traced call through the group so drifting host
        // speed cancels out of the overhead estimate.
        for call_no in 0..GROUP {
            let report = if call_no == groups % GROUP {
                let window = main.open(WINDOW, 0);
                let call = main.open("campaign.run_exec", window.id());
                let t = Instant::now();
                let report = run_exec::<OutcomeTally, _>(
                    &cfg,
                    TracedExec {
                        sim,
                        batch: BATCH,
                        tracer: &tracer,
                        parent: call.id(),
                        counts: &counts,
                    },
                );
                let wall = t.elapsed().as_secs_f64();
                main.close(call);
                main.close(window);
                traced_s += wall;
                thread_s += wall * cfg.resolved_threads() as f64;
                report
            } else {
                let t = Instant::now();
                let report = run_exec::<OutcomeTally, _>(&cfg, exec);
                plain_s += t.elapsed().as_secs_f64();
                report
            };
            let lost: u64 = report.failed.iter().map(|f| f.trial_hi - f.trial_lo).sum();
            failed += lost.max(trials_each.saturating_sub(report.result.corrected));
            tallies.push(report.result);
        }
        // The traced loop must reproduce the executor's tally exactly.
        if tallies
            .iter()
            .any(|t| *t != tallies[0] || !all_corrected(t, trials_each))
        {
            mismatches += 1;
        }
        groups += 1;
    }
    drop(main);
    let after = ObsSnap::take();
    let spans = tracer.into_spans();
    let analysis = spans::analyse(&spans);
    let run_range_s = analysis.total_s("campaign.run_range");
    let lanes = counts.lanes.load(Ordering::Relaxed);
    let fast = lanes - counts.needs_full.load(Ordering::Relaxed);
    let words = counts.syndrome_words.load(Ordering::Relaxed);
    let syndrome_s = analysis.total_s("ecc.syndrome");
    let mut metrics = vec![
        Metric::new("campaign.engine_s", "s", (thread_s - run_range_s).max(0.0)),
        Metric::new(
            "campaign.shards",
            "count",
            analysis.name("campaign.run_range").count as f64,
        ),
        Metric::new("fault.sample_s", "s", analysis.total_s("fault.sample")),
        Metric::new("core.gather_s", "s", analysis.total_s("core.gather")),
        Metric::new("core.classify_s", "s", analysis.self_s("core.classify")),
        Metric::new("core.fallback_s", "s", analysis.total_s("core.fallback")),
        Metric::new("batch.lanes", "count", lanes as f64),
        Metric::new(
            "batch.fast_path_ratio",
            "ratio",
            if lanes == 0 {
                0.0
            } else {
                fast as f64 / lanes as f64
            },
        ),
        Metric::new("ecc.syndrome_s", "s", syndrome_s),
        Metric::new("ecc.syndrome_words", "count", words as f64),
        Metric::new(
            "ecc.syndrome_gbps",
            "GB/s",
            // Bytes the kernel reads (error words) and writes (syndromes).
            if syndrome_s > 0.0 {
                (words * 16) as f64 / syndrome_s / 1e9
            } else {
                0.0
            },
        ),
    ];
    metrics.extend(after.layer_counts(&before));
    // Per-call time, traced over untraced.
    let ratio = traced_s * (GROUP - 1) as f64 / plain_s.max(1e-12);
    metrics.extend(analysis.trace_metrics(ratio));
    let span_file = opts.work_dir.join("spans-mbe-solid.tsv");
    let _ = spans::write_tsv(&span_file, &spans);
    RunOutput {
        correct: failed == 0 && mismatches == 0,
        attempted: GROUP * groups * trials_each,
        failed: failed.max(mismatches * trials_each),
        metrics,
        notes: vec![
            format!(
                "mbe-solid traced: {groups} groups of {GROUP} {trials_each}-trial calls, \
                 one traced; untraced {plain_s:.3} s, traced {traced_s:.3} s; spans in {}",
                span_file.display()
            ),
            spans::render(&analysis),
        ],
        ..RunOutput::default()
    }
}
