//! `serve-mix`: an in-process job daemon (`cppc_serve::server::serve`
//! on a unix socket, `max_threads` = nproc, the default checkpoint
//! cadence) fed by two closed-loop clients (`cppc_serve::client::Client`).
//! Each client submits a job, watches it to its `end` event, then
//! submits the next, walking one fixed job cycle.
//!
//! This is the only workload that exercises admission, the queue, the
//! journal, checkpoint persistence and watch notification. It also uses
//! the campaign layer differently (per-trial warm-up stores, the
//! recovery walk, the locator, DUEs) and the hierarchy differently (a
//! hit-dominated gcc trace). The checkpoint-heavy 100k-trial `mbe` job
//! re-serialises every completed shard at each checkpoint, so its cost
//! grows as O(shards²); the benchmark keeps that job in the mix.

use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cppc_bench::experiments::{
    load_trace, parse_config, parse_fault, parse_scheme, scheme_experiment, trace_experiment,
};
use cppc_bench::mbe::MbeBatchExec;
use cppc_campaign::json::Json;
use cppc_campaign::rng::rngs::StdRng;
use cppc_campaign::{run_exec, trial_seed, CampaignReport};
use cppc_core::SchemeKind;
use cppc_fault::OutcomeTally;
use cppc_reliability::montecarlo::{simulate_trial_into, MonteCarloAccumulator, MonteCarloConfig};
use cppc_serve::runner::{montecarlo_result_json, tally_result_json};
use cppc_serve::{Client, JobKind, JobRecord, JobSpec, JobState, JobStore, Priority, ServerConfig};

use crate::obsdelta::ObsSnap;
use crate::report::{mean, median, peak_rss_mb, percentile, Metric, RunOutput};
use crate::spans::{self, Tracer, WINDOW};
use crate::{Opts, Scale};

/// Closed-loop client threads.
const CLIENTS: usize = 2;

/// The work shape of one run.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Trials of the README-sized `mbe` jobs.
    pub small_mbe_trials: u64,
    /// Trials of the checkpoint-heavy `mbe` job.
    pub heavy_mbe_trials: u64,
    /// Trials of each `scheme` job of a parity-class scheme (`cppc`,
    /// `parity1d`, `parity2d`: a few ms per job).
    pub scheme_trials: u64,
    /// Trials of each `scheme` job of an ECC-class scheme
    /// (`secded-interleaved`, `silent-write-ecc`, `harp-odecc`), whose
    /// trials cost 20-40x more; sized so these jobs take ~70 ms on the
    /// reference host, between two 50 ms watch ticks.
    pub ecc_scheme_trials: [u64; 3],
    /// Operations of the gcc trace the `trace` jobs replay.
    pub trace_ops: usize,
    /// Trials (whole-trace replays) of each `trace` job.
    pub trace_trials: u64,
    /// Trials of each `montecarlo` job.
    pub montecarlo_trials: u64,
    /// Finished jobs journalled before the daemon starts, so every
    /// start recovers a journal.
    pub journal_records: u64,
    /// Daemon starts timed for `setup_s` before the measured loop, and
    /// again after it.
    pub setup_starts: usize,
}

impl Shape {
    /// The shape at `scale`.
    #[must_use]
    pub fn at(scale: Scale) -> Self {
        match scale {
            Scale::Full => Shape {
                small_mbe_trials: 2000,
                heavy_mbe_trials: 100_000,
                scheme_trials: 200,
                ecc_scheme_trials: [85, 110, 80],
                trace_ops: 20_000,
                trace_trials: 4,
                montecarlo_trials: 2500,
                journal_records: 500,
                setup_starts: 4,
            },
            Scale::Tiny => Shape {
                small_mbe_trials: 200,
                heavy_mbe_trials: 2000,
                scheme_trials: 8,
                ecc_scheme_trials: [4, 4, 4],
                trace_ops: 2000,
                trace_trials: 1,
                montecarlo_trials: 100,
                journal_records: 8,
                setup_starts: 1,
            },
        }
    }

    /// Trials of a `scheme` job of `kind`.
    #[must_use]
    pub fn scheme_trials(&self, kind: SchemeKind) -> u64 {
        match kind {
            SchemeKind::SecdedInterleaved => self.ecc_scheme_trials[0],
            SchemeKind::SilentWriteEcc => self.ecc_scheme_trials[1],
            SchemeKind::HarpOdecc => self.ecc_scheme_trials[2],
            _ => self.scheme_trials,
        }
    }
}

/// One slot of the job cycle.
#[derive(Debug, Clone)]
pub struct Slot {
    /// Short label (`mbe-small`, `scheme-cppc-8x8`, ...).
    pub label: String,
    /// The submitted spec.
    pub spec: JobSpec,
}

/// The fixed job cycle of 79 jobs: two passes over the zoo, each with
/// a `scheme` job for every member with 4x4 and 8x8 strikes (12) and
/// nine each of README-sized `mbe`, short `trace` (over the gcc trace at
/// `trace_path`) and `montecarlo` jobs (27), then one checkpoint-heavy
/// `mbe` job. Seeds derive from the workload seed and the slot; sizes
/// and order depend on the shape alone.
///
/// The served latency of a job is its run time rounded up to the
/// daemon's 50 ms watch tick. 66 jobs finish within one tick, the
/// twelve ECC-class scheme jobs within two, and the heavy job takes
/// several, so the 50th percentile falls inside the one-tick jobs and
/// the 90th in the middle of the two-tick ones, away from any rank
/// where it would flip between ticks. The heavy job, whose time varies
/// most from run to run, is about an eighth of a cycle's time.
#[must_use]
pub fn job_cycle(shape: &Shape, seed: u64, trace_path: &str) -> Vec<Slot> {
    let spec = |kind: JobKind, trials: u64, slot: usize, batch: usize| {
        let mut spec = JobSpec::new(kind, trials, trial_seed(seed, slot as u64));
        spec.batch = batch;
        spec
    };
    let short = [
        ("mbe-small", JobKind::Mbe, shape.small_mbe_trials, 64),
        (
            "trace-gcc",
            JobKind::Trace {
                path: trace_path.to_string(),
            },
            shape.trace_trials,
            1,
        ),
        (
            "montecarlo",
            JobKind::MonteCarlo {
                rate: 40.0,
                domains: 8,
                tavg: 0.0004,
            },
            shape.montecarlo_trials,
            1,
        ),
    ];
    let mut short = short.iter().cycle();
    let mut slots: Vec<(String, JobKind, u64, usize)> = Vec::new();
    for (i, scheme) in SchemeKind::ALL.into_iter().enumerate().cycle().take(12) {
        for fault in ["4x4", "8x8"] {
            slots.push((
                format!("scheme-{}-{fault}", scheme.name()),
                JobKind::Scheme {
                    scheme: scheme.name().to_string(),
                    config: "paper".into(),
                    fault: fault.into(),
                },
                shape.scheme_trials(scheme),
                1,
            ));
        }
        // Short jobs between the zoo pairs: nine each of mbe, trace and
        // montecarlo per pass over the zoo.
        for _ in 0..if i < 3 { 5 } else { 4 } {
            let (label, kind, trials, batch) = short.next().expect("cycled").clone();
            slots.push((label.to_string(), kind, trials, batch));
        }
    }
    slots.push(("mbe-heavy".into(), JobKind::Mbe, shape.heavy_mbe_trials, 64));
    slots
        .into_iter()
        .enumerate()
        .map(|(i, (label, kind, trials, batch))| Slot {
            label,
            spec: spec(kind, trials, i, batch),
        })
        .collect()
}

/// The result document a direct engine run of `spec` produces — what
/// `cppc-cli campaign --json` prints for the same spec.
///
/// # Errors
///
/// Returns a message if the spec does not parse or a shard fails.
fn direct_result(spec: &JobSpec) -> Result<Json, String> {
    fn done<A>(report: CampaignReport<A>, render: impl FnOnce(&A) -> Json) -> Result<Json, String> {
        if report.is_complete() {
            Ok(render(&report.result))
        } else {
            Err(format!("{} failed shards", report.failed.len()))
        }
    }
    let cfg = spec.campaign_config(spec.threads);
    match &spec.kind {
        JobKind::Mbe => done(
            run_exec::<OutcomeTally, _>(&cfg, MbeBatchExec::solid(spec.batch)),
            tally_result_json,
        ),
        JobKind::Scheme {
            scheme,
            config,
            fault,
        } => {
            let exp = scheme_experiment(
                parse_scheme(scheme)?,
                parse_config(config)?,
                parse_fault(fault)?,
            );
            done(
                cppc_campaign::run::<OutcomeTally, _>(&cfg, exp),
                tally_result_json,
            )
        }
        JobKind::Trace { path } => {
            let trace = load_trace(path)?;
            done(
                cppc_campaign::run::<OutcomeTally, _>(&cfg, trace_experiment(&trace)),
                tally_result_json,
            )
        }
        JobKind::MonteCarlo {
            rate,
            domains,
            tavg,
        } => {
            let mc = MonteCarloConfig {
                faults_per_hour: *rate,
                domains: *domains as usize,
                tavg_hours: *tavg,
                trials: u32::try_from(spec.trials).map_err(|_| "too many trials")?,
            };
            let report =
                cppc_campaign::run::<MonteCarloAccumulator, _>(&cfg, |rng: &mut StdRng, _| {
                    simulate_trial_into(&mc, rng, &mut Vec::new())
                });
            done(report, montecarlo_result_json)
        }
        other => Err(format!("job kind '{}' is not in the mix", other.name())),
    }
}

/// One finished job as its client saw it.
#[derive(Debug, Clone)]
struct Sample {
    index: u64,
    slot: usize,
    /// Submit sent → acknowledged.
    submit: Duration,
    /// Acknowledged → first event with a state other than `queued`.
    queue_wait: Duration,
    /// That event → the `end` event.
    run: Duration,
    /// The `end` event's result, compact JSON; `None` if the job did
    /// not end `done` (with the reason in `error`).
    result: Option<String>,
    error: Option<String>,
}

impl Sample {
    fn total_ms(&self) -> f64 {
        (self.submit + self.queue_wait + self.run).as_secs_f64() * 1e3
    }
}

/// A running in-process daemon.
struct Daemon {
    socket: PathBuf,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    /// Starts the daemon and waits until it answers a request (its
    /// journal recovered and its accept loop running). Returns the
    /// daemon and the start-up time.
    fn start(data_dir: &Path, socket: &Path) -> Result<(Daemon, Duration), String> {
        let cfg = ServerConfig::new(data_dir, socket);
        let t = Instant::now();
        let thread = std::thread::spawn(move || cppc_serve::serve(cfg));
        loop {
            if let Ok(mut client) = Client::connect_unix(socket) {
                if client.list(Some("none")).is_ok() {
                    let up = t.elapsed();
                    let daemon = Daemon {
                        socket: socket.to_path_buf(),
                        thread,
                    };
                    return Ok((daemon, up));
                }
            }
            if thread.is_finished() {
                return Err(match thread.join() {
                    Ok(Err(e)) => format!("daemon failed to start: {e}"),
                    _ => "daemon exited during start-up".to_string(),
                });
            }
            if t.elapsed() > Duration::from_secs(30) {
                return Err("daemon did not answer within 30 s".into());
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    /// Asks the daemon to shut down and waits for its thread.
    fn stop(self) -> Result<(), String> {
        let asked = Client::connect_unix(&self.socket)
            .map_err(|e| e.to_string())
            .and_then(|mut c| c.shutdown().map_err(|e| e.to_string()));
        let joined = self.thread.join();
        asked?;
        match joined {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("daemon error: {e}")),
            Err(_) => Err("daemon thread panicked".into()),
        }
    }
}

/// Journals `n` finished jobs, as a long-running daemon's history.
fn seed_journal(data_dir: &Path, shape: &Shape, n: u64) -> Result<(), String> {
    let store = JobStore::open(data_dir).map_err(|e| e.to_string())?;
    for id in 1..=n {
        let spec = JobSpec::new(JobKind::Mbe, shape.small_mbe_trials, id);
        let mut record = JobRecord::new(id, "history".into(), Priority::Normal, spec);
        record.transition(JobState::Running)?;
        record.transition(JobState::Done)?;
        record.result = Some(tally_result_json(&OutcomeTally {
            corrected: shape.small_mbe_trials,
            ..OutcomeTally::default()
        }));
        store.persist(&record).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Submits `spec` and watches it to its end.
fn one_job(
    client: &mut Client,
    tenant: &str,
    spec: &JobSpec,
) -> (Duration, Duration, Duration, Result<String, String>) {
    let t0 = Instant::now();
    let id = match client.submit(tenant, Priority::Normal, spec.clone()) {
        Ok(id) => id,
        Err(e) => {
            let dt = t0.elapsed();
            return (
                dt,
                Duration::ZERO,
                Duration::ZERO,
                Err(format!("submit: {e}")),
            );
        }
    };
    let t1 = Instant::now();
    let mut started: Option<Instant> = None;
    let end = client.watch(id, |event| {
        if started.is_none() && event.get("state").and_then(Json::as_str) != Some("queued") {
            started = Some(Instant::now());
        }
    });
    let t3 = Instant::now();
    let t2 = started.unwrap_or(t3);
    let result = match end {
        Err(e) => Err(format!("watch: {e}")),
        Ok(doc) => match (doc.get("state").and_then(Json::as_str), doc.get("result")) {
            (Some("done"), Some(result)) => Ok(result.to_string_compact()),
            (state, _) => Err(format!(
                "job {id} ended {} ({})",
                state.unwrap_or("?"),
                doc.get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("no result")
            )),
        },
    };
    (t1 - t0, t2 - t1, t3 - t2, result)
}

/// Whether job `index` belongs to a traced cycle: a traced run traces
/// every other cycle and compares it with the untraced ones.
fn traced_cycle(index: u64, cycle_len: usize) -> bool {
    (index / cycle_len as u64) % 2 == 1
}

/// Runs the closed loop until `budget` has passed and the job index
/// reaches a multiple of `round` (so every run completes whole cycles).
/// In a traced run, jobs of odd cycles are wrapped in spans.
fn closed_loop(
    socket: &Path,
    cycle: &[Slot],
    budget: Duration,
    tracer: Option<&Tracer>,
) -> Result<(Vec<Sample>, Duration), String> {
    let len = cycle.len() as u64;
    let round = if tracer.is_some() { 2 * len } else { len };
    let mut clients = Vec::with_capacity(CLIENTS);
    for _ in 0..CLIENTS {
        clients.push(Client::connect_unix(socket).map_err(|e| format!("client connect: {e}"))?);
    }
    let start = Instant::now();
    // (next job index, first index not to run): the first fetch after
    // the budget fixes the limit at the end of the current round, under
    // the same lock that hands out indices, so exactly the jobs below
    // the limit run.
    let dispatch = Mutex::new((0u64, u64::MAX));
    let take = || {
        let mut d = dispatch.lock().expect("dispatch lock");
        if d.1 == u64::MAX && start.elapsed() >= budget {
            d.1 = d.0.div_ceil(round) * round;
        }
        (d.0 < d.1).then(|| {
            d.0 += 1;
            d.0 - 1
        })
    };
    let samples = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for (i, mut client) in clients.into_iter().enumerate() {
            let (take, samples) = (&take, &samples);
            s.spawn(move || {
                let tenant = format!("client-{i}");
                let mut local = tracer.map(Tracer::local);
                let mut mine = Vec::new();
                while let Some(k) = take() {
                    let slot = (k % len) as usize;
                    let t0 = Instant::now();
                    let (submit, queue_wait, run, result) =
                        one_job(&mut client, &tenant, &cycle[slot].spec);
                    if let Some(local) = local.as_mut().filter(|_| traced_cycle(k, cycle.len())) {
                        let (t1, t2) = (t0 + submit, t0 + submit + queue_wait);
                        let t3 = t2 + run;
                        let w = local.record(WINDOW, 0, t0, Instant::now());
                        local.record("serve.submit", w, t0, t1);
                        local.record("serve.queue_wait", w, t1, t2);
                        local.record("serve.run", w, t2, t3);
                    }
                    let (result, error) = match result {
                        Ok(r) => (Some(r), None),
                        Err(e) => (None, Some(e)),
                    };
                    mine.push(Sample {
                        index: k,
                        slot,
                        submit,
                        queue_wait,
                        run,
                        result,
                        error,
                    });
                }
                samples.lock().expect("samples").append(&mut mine);
            });
        }
    });
    let wall = start.elapsed();
    let mut samples = samples.into_inner().expect("samples");
    samples.sort_by_key(|s| s.index);
    Ok((samples, wall))
}

/// Runs the workload.
///
/// # Errors
///
/// Returns a message when the daemon, its data directory or the trace
/// cannot be set up.
pub fn run(opts: &Opts) -> Result<RunOutput, String> {
    let shape = Shape::at(opts.scale);
    let dir = opts.work_dir.join(format!("serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let result = run_in(opts, &shape, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn run_in(opts: &Opts, shape: &Shape, dir: &Path) -> Result<RunOutput, String> {
    let gcc = cppc_workloads::spec2000_profiles()
        .into_iter()
        .find(|p| p.name == "gcc")
        .ok_or("no gcc profile")?;
    let trace_path = dir.join("gcc.cppct");
    crate::trace_mcf::record(
        &trace_path,
        &gcc,
        trial_seed(opts.seed, u64::MAX),
        shape.trace_ops,
    )?;
    let cycle = job_cycle(shape, opts.seed, &trace_path.to_string_lossy());
    // The reference results, from direct engine runs of each slot's spec.
    let mut expected = Vec::with_capacity(cycle.len());
    let mut direct_ms = Vec::with_capacity(cycle.len());
    for slot in &cycle {
        let t = Instant::now();
        expected.push(direct_result(&slot.spec)?.to_string_compact());
        direct_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }

    // The measured daemon and the extra timed starts each get their own
    // copy of the same journal, so every start recovers the same work.
    let data_dir = dir.join("data");
    let start_dir = dir.join("start-data");
    let socket = dir.join("d.sock");
    seed_journal(&data_dir, shape, shape.journal_records)?;
    seed_journal(&start_dir, shape, shape.journal_records)?;
    let mut setup = Vec::with_capacity(2 * shape.setup_starts + 1);
    let restarts = |setup: &mut Vec<f64>| -> Result<(), String> {
        for _ in 0..shape.setup_starts {
            let (daemon, up) = Daemon::start(&start_dir, &socket)?;
            setup.push(up.as_secs_f64());
            daemon.stop()?;
        }
        Ok(())
    };
    restarts(&mut setup)?;
    let (daemon, up) = Daemon::start(&data_dir, &socket)?;
    setup.push(up.as_secs_f64());

    let tracer = opts.trace.then(Tracer::new);
    let before = ObsSnap::take();
    let looped = closed_loop(
        &socket,
        &cycle,
        Duration::from_secs_f64(opts.seconds),
        tracer.as_ref(),
    );
    let stopped = daemon.stop();
    let after = ObsSnap::take();
    let (samples, wall) = looped?;
    stopped?;
    // Start-up again after the loop, so `setup_s` spans the run rather
    // than one moment of it.
    restarts(&mut setup)?;

    let mut failed = 0u64;
    let mut notes = Vec::new();
    for s in &samples {
        let ok = s.result.as_deref() == Some(expected[s.slot].as_str());
        if !ok {
            failed += 1;
            if notes.len() < 5 {
                notes.push(format!(
                    "job {} ({}) failed: {}",
                    s.index,
                    cycle[s.slot].label,
                    s.error
                        .as_deref()
                        .unwrap_or("result differs from the direct run")
                ));
            }
        }
    }
    let cycles = samples.len() as u64 / cycle.len() as u64;
    let whole = (samples.len() as u64).is_multiple_of(cycle.len() as u64);
    let latencies: Vec<f64> = samples.iter().map(Sample::total_ms).collect();
    notes.push(format!(
        "serve-mix: {} jobs ({cycles} cycles of {}) in {:.3} s; {} latency samples",
        samples.len(),
        cycle.len(),
        wall.as_secs_f64(),
        latencies.len()
    ));
    for (i, slot) in cycle.iter().enumerate() {
        let per: Vec<f64> = samples
            .iter()
            .filter(|s| s.slot == i)
            .map(Sample::total_ms)
            .collect();
        notes.push(format!(
            "  {:<30} served median {:8.2} ms  direct run {:8.2} ms",
            slot.label,
            median(&per),
            direct_ms[i]
        ));
    }

    let mut out = RunOutput {
        correct: failed == 0 && whole && !samples.is_empty(),
        attempted: samples.len() as u64,
        failed,
        shape: vec![
            ("cycle_jobs", cycle.len() as u64),
            ("cycle_trials", cycle.iter().map(|s| s.spec.trials).sum()),
            ("trace_ops", shape.trace_ops as u64),
            ("clients", CLIENTS as u64),
        ],
        notes,
        ..RunOutput::default()
    };
    if let Some(tracer) = tracer {
        let spans = tracer.into_spans();
        let analysis = spans::analyse(&spans);
        out.metrics = layer_metrics(&analysis, &samples, cycle.len(), &after, &before);
        let _ = spans::write_tsv(&opts.work_dir.join("spans-serve-mix.tsv"), &spans);
        out.notes.push(spans::render(&analysis));
    } else {
        out.metrics = vec![
            Metric::new(
                "throughput_per_s",
                "1/s",
                samples.len() as f64 / wall.as_secs_f64(),
            ),
            Metric::new("latency_p50_ms", "ms", percentile(&latencies, 50.0)),
            Metric::new("latency_p90_ms", "ms", percentile(&latencies, 90.0)),
            Metric::new("setup_s", "s", median(&setup)),
            Metric::new("peak_rss_mb", "MB", peak_rss_mb()),
        ];
    }
    Ok(out)
}

/// The serve-layer metrics of a traced run: client-side phases of the
/// traced jobs (means, so they add up to the mean latency), the
/// daemon's own job time, checkpoint persistence and its share.
fn layer_metrics(
    analysis: &spans::Analysis,
    samples: &[Sample],
    cycle_len: usize,
    after: &ObsSnap,
    before: &ObsSnap,
) -> Vec<Metric> {
    let phase_ms = |f: fn(&Sample) -> Duration| -> f64 {
        let v: Vec<f64> = samples
            .iter()
            .filter(|s| traced_cycle(s.index, cycle_len))
            .map(|s| f(s).as_secs_f64() * 1e3)
            .collect();
        mean(&v)
    };
    let run_ms = phase_ms(|s| s.run);
    let (jobs, job_ns) = after.timer_since(before, "serve.job.ns");
    let job_run_ms = job_ns as f64 / 1e6 / jobs.max(1) as f64;
    let (_, ckpt_ns) = after.timer_since(before, "campaign.checkpoint.write.ns");
    let latency_sum = |traced: bool| -> f64 {
        samples
            .iter()
            .filter(|s| traced_cycle(s.index, cycle_len) == traced)
            .map(Sample::total_ms)
            .sum()
    };
    let mut metrics = vec![
        Metric::new("serve.submit_ms", "ms", phase_ms(|s| s.submit)),
        Metric::new("serve.queue_wait_ms", "ms", phase_ms(|s| s.queue_wait)),
        Metric::new("serve.run_ms", "ms", run_ms),
        Metric::new("serve.job_run_ms", "ms", job_run_ms),
        Metric::new("serve.notify_lag_ms", "ms", run_ms - job_run_ms),
        Metric::new(
            "campaign.checkpoint_share_pct",
            "%",
            if job_ns == 0 {
                0.0
            } else {
                ckpt_ns as f64 / job_ns as f64 * 100.0
            },
        ),
    ];
    metrics.extend(after.layer_counts(before));
    metrics.extend(analysis.trace_metrics(latency_sum(true) / latency_sum(false).max(1e-12)));
    metrics
}
