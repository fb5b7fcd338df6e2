//! Executes one campaign spec on the engine: the single place a
//! [`JobKind`] meets its experiment body.
//!
//! The runner is where a [`JobSpec`] meets [`cppc_campaign::run_with`]:
//! it resolves the spec's kind to its experiment body (from
//! [`cppc_bench::experiments`]), runs it under the caller's
//! [`RunOpts`] and reports one of three ends. Both the daemon (with the
//! job's checkpoint file and interrupt flag) and `cppc-cli campaign`
//! (with an optional `--checkpoint`) call [`execute`], so a served
//! result and a direct run are the same function of the spec. An
//! `Interrupted` end means the engine drained in-flight shards and
//! wrote a final checkpoint — the caller decides whether that was a
//! cancel (terminal) or a shutdown suspension (the job stays `running`
//! in the journal and resumes bit-identically on restart).

use cppc_bench::experiments::{
    load_trace, parse_config, parse_fault, parse_scheme, scheme_experiment, sleep_experiment,
    trace_experiment,
};
use cppc_campaign::json::Json;
use cppc_campaign::rng::rngs::StdRng;
use cppc_campaign::{
    run_with, Accumulator, CampaignConfig, CampaignReport, CheckpointError, PerTrial, Persist,
    RunOpts, TrialExec,
};
use cppc_fault::campaign::OutcomeTally;
use cppc_reliability::montecarlo::{simulate_trial_into, MonteCarloAccumulator, MonteCarloConfig};

use crate::job::{JobKind, JobSpec};

/// How a job execution ended.
#[derive(Debug, Clone, PartialEq)]
pub enum RunEnd {
    /// Every shard completed; `result` is the kind-specific final
    /// document (see [`tally_result_json`] / [`montecarlo_result_json`]).
    Complete {
        /// The job's final result document.
        result: Json,
    },
    /// The interrupt flag stopped the run early; progress is
    /// checkpointed and a resumed run merges bit-identically.
    Interrupted,
    /// A shard panicked or the checkpoint was unusable.
    Failed {
        /// Human-readable diagnostic.
        error: String,
    },
}

/// Runs `spec` on `threads` workers (`0` = every CPU) to one of its
/// three ends.
///
/// `opts` carries the optional checkpoint policy (created on first
/// write, resumed from when present and the policy resumes), the
/// cooperative stop flag and the receiver of the engine's live
/// progress snapshots. An `explore` spec runs its own sweep driver:
/// the checkpoint *path* becomes the base name of a sibling directory
/// holding one digest-keyed file per configuration, which it always
/// resumes from.
pub fn execute(spec: &JobSpec, threads: usize, opts: RunOpts<'_>) -> RunEnd {
    let cfg = spec.campaign_config(threads);
    match &spec.kind {
        JobKind::Scheme {
            scheme,
            config,
            fault,
        } => {
            let (Ok(scheme), Ok(config), Ok(fault)) = (
                parse_scheme(scheme),
                parse_config(config),
                parse_fault(fault),
            ) else {
                return RunEnd::Failed {
                    error: "spec no longer parses (scheme/config/fault)".into(),
                };
            };
            tally(
                &cfg,
                &PerTrial(scheme_experiment(scheme, config, fault)),
                opts,
            )
        }
        // The batched executor is bit-identical to the per-trial path
        // at any batch size, so checkpoints written by older daemons
        // (or by `--batch 1` runs) resume seamlessly through it.
        JobKind::Mbe => tally(
            &cfg,
            &cppc_bench::mbe::MbeBatchExec::solid(spec.batch),
            opts,
        ),
        JobKind::Sleep { millis } => tally(&cfg, &PerTrial(sleep_experiment(*millis)), opts),
        JobKind::Trace { path } => {
            // Load (and pre-decode) once; the experiment replays the
            // immutable batch per trial on every worker thread.
            let trace = match load_trace(path) {
                Ok(trace) => trace,
                Err(error) => return RunEnd::Failed { error },
            };
            tally(&cfg, &PerTrial(trace_experiment(&trace)), opts)
        }
        // The sweep has its own parallel driver and per-config
        // checkpoint store, so it bypasses the shard engine; the
        // per-config files give the same suspend/resume contract
        // (interrupt → `Interrupted`, a rerun resumes bit-identically
        // from the completed configs).
        JobKind::Explore { quick } => {
            let sweep = sweep_spec(spec, *quick);
            let sweep_opts = cppc_explore::SweepOptions {
                threads,
                checkpoint_dir: opts
                    .checkpoint
                    .map(|policy| policy.path.with_extension("explore.d")),
            };
            match cppc_explore::run_sweep(&sweep, &sweep_opts, opts.interrupt) {
                Err(error) => RunEnd::Failed { error },
                Ok(cppc_explore::SweepOutcome::Interrupted { .. }) => RunEnd::Interrupted,
                Ok(cppc_explore::SweepOutcome::Complete(points)) => RunEnd::Complete {
                    result: cppc_explore::doc::sweep_doc(&sweep, &points),
                },
            }
        }
        JobKind::MonteCarlo { .. } => {
            let mc = montecarlo_config(spec).expect("a montecarlo spec has a model");
            std::thread_local! {
                static LAST_FAULT: std::cell::RefCell<Vec<f64>> =
                    const { std::cell::RefCell::new(Vec::new()) };
            }
            let exec = PerTrial(move |rng: &mut StdRng, _trial| {
                LAST_FAULT.with(|scratch| simulate_trial_into(&mc, rng, &mut scratch.borrow_mut()))
            });
            finish(run_with(&cfg, &exec, opts), montecarlo_result_json)
        }
    }
}

/// The worker threads [`execute`] runs `spec` on at `threads` (`0` =
/// every CPU): the engine's shard workers, or for an `explore` spec the
/// sweep driver's configuration workers.
#[must_use]
pub fn resolved_threads(spec: &JobSpec, threads: usize) -> usize {
    match spec.kind {
        JobKind::Explore { quick } => {
            let configs = sweep_spec(spec, quick).enumerate().len();
            cppc_explore::SweepOptions {
                threads,
                checkpoint_dir: None,
            }
            .workers(configs)
        }
        _ => spec.campaign_config(threads).resolved_threads(),
    }
}

/// The sweep an `explore` spec runs: its tier, with `--trials`/`--seed`
/// overriding each configuration's campaign.
fn sweep_spec(spec: &JobSpec, quick: bool) -> cppc_explore::SweepSpec {
    let mut sweep = if quick {
        cppc_explore::SweepSpec::quick_tier()
    } else {
        cppc_explore::SweepSpec::full_tier()
    };
    sweep.trials = spec.trials;
    sweep.campaign_seed = spec.seed;
    sweep
}

/// The Monte Carlo model a `montecarlo` spec runs (`None` for every
/// other kind).
#[must_use]
pub fn montecarlo_config(spec: &JobSpec) -> Option<MonteCarloConfig> {
    match spec.kind {
        JobKind::MonteCarlo {
            rate,
            domains,
            tavg,
        } => Some(MonteCarloConfig {
            faults_per_hour: rate,
            domains: domains as usize,
            tavg_hours: tavg,
            trials: spec.trials as u32,
        }),
        _ => None,
    }
}

/// Runs an outcome-tally campaign and renders its result document.
fn tally<E: TrialExec<OutcomeTally>>(cfg: &CampaignConfig, exec: &E, opts: RunOpts<'_>) -> RunEnd {
    finish(run_with(cfg, exec, opts), tally_result_json)
}

fn finish<A: Accumulator + Persist>(
    outcome: Result<CampaignReport<A>, CheckpointError>,
    render: impl FnOnce(&A) -> Json,
) -> RunEnd {
    match outcome {
        Err(e) => RunEnd::Failed {
            error: e.to_string(),
        },
        Ok(report) => {
            if let Some(f) = report.failed.first() {
                return RunEnd::Failed {
                    error: format!(
                        "shard {} (trials {}..{}) panicked: {}",
                        f.shard, f.trial_lo, f.trial_hi, f.message
                    ),
                };
            }
            if report.is_complete() {
                RunEnd::Complete {
                    result: render(&report.result),
                }
            } else {
                RunEnd::Interrupted
            }
        }
    }
}

/// The final result document of an outcome-tally campaign (`inject`,
/// `mbe`, `sleep`): the tally's own persisted form —
/// `{"masked":..,"corrected":..,"due":..,"sdc":..}`. `cppc-cli
/// campaign --json` prints exactly this, which is what the service
/// smoke gate compares against.
#[must_use]
pub fn tally_result_json(tally: &OutcomeTally) -> Json {
    tally.to_json()
}

/// The final result document of a `montecarlo` job: the accumulator's
/// exact sums (IEEE-754 bit patterns, so restart equality is exact)
/// plus the human-readable derived estimate.
#[must_use]
pub fn montecarlo_result_json(acc: &MonteCarloAccumulator) -> Json {
    let result = acc.finish();
    let mut pairs = match acc.to_json() {
        Json::Obj(pairs) => pairs,
        _ => unreachable!("accumulator persists as an object"),
    };
    pairs.push(("mttf_hours".into(), Json::from_f64_bits(result.mttf_hours)));
    pairs.push((
        "std_error_hours".into(),
        Json::from_f64_bits(result.std_error_hours),
    ));
    pairs.push((
        "mean_faults_to_failure".into(),
        Json::from_f64_bits(result.mean_faults_to_failure),
    ));
    Json::Obj(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSpec;
    use cppc_campaign::{CheckpointPolicy, FailedShard, Progress};
    use std::path::Path;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    /// The daemon's default cadence; these tests only check results.
    const CADENCE: Duration = Duration::from_secs(1);

    /// [`execute`] under a resuming checkpoint at `path`.
    fn execute_at(
        spec: &JobSpec,
        path: &Path,
        every: Duration,
        threads: usize,
        interrupt: Option<&AtomicBool>,
        mut progress: impl FnMut(&Progress),
    ) -> RunEnd {
        let policy = CheckpointPolicy {
            path: path.to_path_buf(),
            every,
            resume: true,
        };
        execute(
            spec,
            threads,
            RunOpts {
                checkpoint: Some(&policy),
                interrupt,
                progress: Some(&mut progress),
            },
        )
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("cppc_serve_runner_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn resolved_threads_counts_sweep_workers_for_explore() {
        // Eight trials make one engine shard, but the quick sweep still
        // spreads its 28 configurations over the requested workers.
        let explore = JobSpec::new(JobKind::Explore { quick: true }, 8, 1);
        assert_eq!(explore.campaign_config(64).resolved_threads(), 1);
        assert_eq!(resolved_threads(&explore, 64), 28);
        assert_eq!(resolved_threads(&explore, 3), 3);
        let sleep = JobSpec::new(JobKind::Sleep { millis: 0 }, 8, 1);
        assert_eq!(resolved_threads(&sleep, 64), 1);
    }

    #[test]
    fn sleep_job_completes_and_matches_direct_engine_run() {
        let path = tmp("sleep_complete.json");
        let _ = std::fs::remove_file(&path);
        let spec = JobSpec {
            shard_size: 8,
            ..JobSpec::new(JobKind::Sleep { millis: 0 }, 96, 0xABCD)
        };
        let end = execute_at(&spec, &path, CADENCE, 1, None, |_| {});
        let direct: OutcomeTally =
            cppc_campaign::run(&spec.campaign_config(1), sleep_experiment(0)).result;
        assert_eq!(
            end,
            RunEnd::Complete {
                result: tally_result_json(&direct)
            }
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn interrupt_then_resume_is_bit_identical() {
        let path = tmp("interrupt_resume.json");
        let _ = std::fs::remove_file(&path);
        let spec = JobSpec {
            shard_size: 4,
            ..JobSpec::new(JobKind::Sleep { millis: 1 }, 64, 0x1234)
        };
        // Interrupt as soon as the first progress snapshot arrives.
        let flag = AtomicBool::new(false);
        let end = execute_at(&spec, &path, Duration::ZERO, 1, Some(&flag), |_| {
            flag.store(true, Ordering::Release);
        });
        assert_eq!(end, RunEnd::Interrupted);
        assert!(path.exists(), "interruption must leave a checkpoint");
        // Resume to completion and compare with an uninterrupted run.
        let resumed = execute_at(&spec, &path, CADENCE, 1, None, |_| {});
        let direct: OutcomeTally =
            cppc_campaign::run(&spec.campaign_config(1), sleep_experiment(1)).result;
        assert_eq!(
            resumed,
            RunEnd::Complete {
                result: tally_result_json(&direct)
            }
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn explore_job_interrupts_before_work_and_resumes_to_sweep_doc() {
        let ckpt = tmp("explore_interrupt.json");
        let ckpt_dir = ckpt.with_extension("explore.d");
        let _ = std::fs::remove_dir_all(&ckpt_dir);
        let spec = JobSpec::new(JobKind::Explore { quick: true }, 2, 0xE87A);
        // A pre-raised flag must yield `Interrupted` without running a
        // single configuration (so cancel/shutdown is prompt).
        let flag = AtomicBool::new(true);
        let end = execute_at(&spec, &ckpt, CADENCE, 1, Some(&flag), |_| {});
        assert_eq!(end, RunEnd::Interrupted);
        assert!(
            !ckpt_dir.exists() || std::fs::read_dir(&ckpt_dir).unwrap().next().is_none(),
            "no config may complete under a pre-raised interrupt"
        );
        // Resume to completion: the result is the sweep document for
        // the quick tier with the job's trials/seed substituted in.
        let end = execute_at(&spec, &ckpt, CADENCE, 2, None, |_| {});
        let mut sweep = cppc_explore::SweepSpec::quick_tier();
        sweep.trials = 2;
        sweep.campaign_seed = 0xE87A;
        match end {
            RunEnd::Complete { result } => {
                assert_eq!(
                    result.get("schema").and_then(Json::as_str),
                    Some("cppc-explore/1")
                );
                assert_eq!(
                    result
                        .get("summary")
                        .and_then(|s| s.get("configs"))
                        .and_then(Json::as_u64),
                    Some(sweep.enumerate().len() as u64)
                );
            }
            other => panic!("expected Complete, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&ckpt_dir);
    }

    #[test]
    fn trace_job_completes_and_matches_direct_engine_run() {
        let ckpt = tmp("trace_complete.json");
        let trace_path = tmp("trace_complete.cppct");
        let _ = std::fs::remove_file(&ckpt);
        let p = &cppc_workloads::spec2000_profiles()[0];
        let trace = cppc_workloads::SharedTrace::generate(p, 0x7ACE, 1_000);
        cppc_workloads::binfmt::write_bin_trace_file(&trace_path, trace.ops()).unwrap();
        let spec = JobSpec {
            shard_size: 8,
            ..JobSpec::new(
                JobKind::Trace {
                    path: trace_path.display().to_string(),
                },
                32,
                0xABCD,
            )
        };
        let end = execute_at(&spec, &ckpt, CADENCE, 2, None, |_| {});
        let direct: OutcomeTally =
            cppc_campaign::run(&spec.campaign_config(1), trace_experiment(&trace)).result;
        assert_eq!(
            end,
            RunEnd::Complete {
                result: tally_result_json(&direct)
            }
        );
        let _ = std::fs::remove_file(&ckpt);
        let _ = std::fs::remove_file(&trace_path);
    }

    #[test]
    fn trace_job_with_missing_file_fails_cleanly() {
        let ckpt = tmp("trace_missing.json");
        let spec = JobSpec::new(
            JobKind::Trace {
                path: "/nonexistent/trace.cppct".into(),
            },
            8,
            1,
        );
        match execute_at(&spec, &ckpt, CADENCE, 1, None, |_| {}) {
            RunEnd::Failed { error } => assert!(error.contains("cannot open"), "{error}"),
            other => panic!("expected Failed, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_checkpoint_fails_cleanly() {
        let path = tmp("corrupt.json");
        std::fs::write(&path, "{not json").unwrap();
        let spec = JobSpec::new(JobKind::Sleep { millis: 0 }, 16, 1);
        match execute_at(&spec, &path, CADENCE, 1, None, |_| {}) {
            RunEnd::Failed { error } => assert!(error.contains("malformed"), "{error}"),
            other => panic!("expected Failed, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn montecarlo_result_is_exact_and_derived() {
        let path = tmp("mc.json");
        let _ = std::fs::remove_file(&path);
        let spec = JobSpec::new(
            JobKind::MonteCarlo {
                rate: 40.0,
                domains: 8,
                tavg: 0.0004,
            },
            200,
            0xCA7,
        );
        let RunEnd::Complete { result } = execute_at(&spec, &path, CADENCE, 1, None, |_| {}) else {
            panic!("montecarlo job should complete")
        };
        assert_eq!(result.get("n").and_then(Json::as_u64), Some(200));
        let mttf = result
            .get("mttf_hours")
            .and_then(Json::as_f64_bits)
            .unwrap();
        assert!(mttf.is_finite() && mttf > 0.0);
        // Re-running reproduces the document bit for bit.
        let _ = std::fs::remove_file(&path);
        let RunEnd::Complete { result: again } = execute_at(&spec, &path, CADENCE, 1, None, |_| {})
        else {
            panic!("montecarlo rerun should complete")
        };
        assert_eq!(again, result);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_failed_shard_fails_the_run_and_names_the_shard() {
        let report = CampaignReport {
            result: OutcomeTally::default(),
            trials_merged: 56,
            total_shards: 8,
            completed_shards: 8,
            resumed_shards: 0,
            failed: vec![FailedShard {
                shard: 3,
                trial_lo: 24,
                trial_hi: 32,
                first_trial_seed: cppc_campaign::trial_seed(1, 24),
                message: "boom".into(),
            }],
            elapsed_secs: 0.0,
        };
        match finish(Ok(report), tally_result_json) {
            RunEnd::Failed { error } => {
                assert_eq!(error, "shard 3 (trials 24..32) panicked: boom");
            }
            other => panic!("expected Failed, got {other:?}"),
        }
    }

    #[test]
    fn direct_run_needs_no_checkpoint() {
        let spec = JobSpec {
            shard_size: 8,
            ..JobSpec::new(JobKind::Sleep { millis: 0 }, 40, 0xD1EC)
        };
        let end = execute(&spec, 2, RunOpts::default());
        let direct: OutcomeTally =
            cppc_campaign::run(&spec.campaign_config(1), sleep_experiment(0)).result;
        assert_eq!(
            end,
            RunEnd::Complete {
                result: tally_result_json(&direct)
            }
        );
    }
}
