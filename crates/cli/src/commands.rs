//! The CLI subcommands.

use std::error::Error;
use std::path::PathBuf;

use cppc_bench::experiments::{
    inject_experiment, inject_geometry, parse_config, parse_fault, parse_scheme, scheme_experiment,
    sleep_experiment,
};
use cppc_cache_sim::geometry::CacheGeometry;
use cppc_cache_sim::replacement::ReplacementPolicy;
use cppc_campaign::rng::rngs::StdRng;
use cppc_campaign::{
    Accumulator, CampaignConfig, CampaignReport, CheckpointPolicy, Persist, Progress,
};
use cppc_core::CppcConfig;
use cppc_energy::scheme::{AccessCounts, ProtectionKind, SchemeEnergy};
use cppc_energy::tech::TechnologyNode;
use cppc_energy::AreaModel;
use cppc_fault::campaign::{Campaign, OutcomeTally};
use cppc_fault::model::FaultModel;
use cppc_reliability::mttf::{
    aliasing_vulnerable_bits, mttf_aliasing_years, mttf_cppc_years, mttf_one_dim_parity_years,
    mttf_secded_years,
};
use cppc_reliability::{ReliabilityParams, SeuRate};
use cppc_timing::{L1Scheme, MachineConfig, TimingModel};
use cppc_workloads::spec2000_profiles;

use crate::args::ParsedArgs;

type CliResult = Result<(), Box<dyn Error>>;

/// Prints usage.
pub fn print_help() {
    println!(
        "cppc-cli — Correctable Parity Protected Cache (ISCA 2011) tools

USAGE: cppc-cli <COMMAND> [--key value ...]

COMMANDS:
  benchmarks   list the synthetic SPEC2000-like workloads
  simulate     run one benchmark through the Table 1 machine
                 --bench <name>   benchmark (default gcc)
                 --ops <n>        memory operations (default 200000)
                 --seed <n>       trace seed (default 42)
  inject       run a fault-injection campaign on an L1 CPPC
                 --config basic|paper|two-pairs|eight-pairs (default paper)
                 --fault single|2xvert|8xhoriz|4x4|8x8 (default 4x4)
                 --trials <n>     campaign size (default 400)
  campaign     run a campaign through the parallel deterministic engine
               (bit-identical results at any thread count; live metrics
               on stderr)
                 --kind inject|scheme|montecarlo|mbe|sleep|trace
                                  (default inject)
                 --scheme cppc|parity1d|secded-interleaved|parity2d|
                          silent-write-ecc|harp-odecc
                                  protection scheme to campaign (implies
                                  --kind scheme; see docs/SCHEMES.md)
                 --trials <n>     campaign size (default 2000)
                 --seed <n>       master seed (default 0xC11)
                 --threads <n>    workers; 0 resolves to every CPU via
                                  available_parallelism (default 0)
                 --shard-size <n> trials per shard (campaign identity)
                 --batch <n>      mbe kind: trials per vectorized
                                  syndrome batch (default 1; tallies
                                  and checkpoints are bit-identical at
                                  any batch size)
                 --checkpoint <path>  periodic checkpoint file
                 --checkpoint-every-ms <ms>  minimum time between
                                  periodic checkpoint writes; 0 writes
                                  after every shard (default 1000; the
                                  final write always happens)
                 --resume true|false  resume from checkpoint (default true)
                 --json           print only the result document on
                                  stdout (matches a serve job's result)
                 inject and scheme kinds also take --config/--fault;
                 montecarlo --rate/--domains/--tavg; sleep --sleep-ms;
                 trace --trace <file> (text or binary trace to replay
                 per trial; see docs/TRACES.md)
  mttf         print the analytical MTTF table
                 --level l1|l2    evaluation point (default l1)
                 --fit <f>        SEU rate, FIT/bit (default 0.001)
                 --avf <f>        AVF (default 0.7)
  sweep        design-space sweep
                 --what pairs|ways (default pairs)
  trace        trace-file tools (see docs/TRACES.md); bare `trace` is
               `trace record`
    trace record   record a synthetic trace to a file
                 --bench <name>   benchmark (default gcc)
                 --ops <n>        operations (default 100000)
                 --format text|bin (default text)
                 --out <path>     output file (default trace.txt, or
                                  trace.cppct with --format bin)
                 --seed <n>       trace seed (default 42)
    trace convert  convert between trace formats
                 --in <path>      input (format sniffed, or --from
                                  text|bin|din to pin it)
                 --out <path>     output file
                 --to text|bin    output format (default bin)
    trace info     format, op counts and load/store mix of a file
                 --in <path>      trace file
    trace bench    ops/sec probe: materialize-then-replay vs the
                   streaming binary reader (binary traces)
                 --in <path>      trace file
                 --reps <n>       best-of repetitions (default 3)
  montecarlo   validate the MTTF model at accelerated rates
                 --rate <f>       faults/hour over dirty bits (default 40)
                 --domains <n>    protection domains (default 8)
                 --tavg <f>       window, hours (default 0.0004)
                 --trials <n>     trials (default 3000)
  coherence    multiprocessor CPPC read-before-write sweep
                 --cores <n>      cores (default 4)
                 --ops <n>        total ops (default 100000)
  repro        reproduce the paper's tables/figures with golden gates
               (see docs/RESULTS.md)
                 --artifact <name> one artifact (default: fast tier)
                 --all            every artifact, incl. the full tier
                 --check          gate against committed goldens, write
                                  nothing; non-zero exit on violation
                 --update-goldens re-bless goldens with fresh values
                 --render         re-render docs/RESULTS.md from the
                                  committed JSON, no simulation
                 --threads <n>    workers, 0 = all CPUs (default 1)
                 --quick          scaled-down trial counts (tests only;
                                  never mix with committed goldens)
                 --root <path>    repo root (default .)
  explore      design-space sweep over scheme x geometry x interleave-k
               x scrub interval; Pareto frontier over (MTTF, energy,
               CPI, area) feeding docs/EXPLORER.md
                 --quick          28-config CI tier (default: the
                                  432-config full tier)
                 --check          re-run the tier and require byte
                                  identity with the committed
                                  docs/results/explore_<tier>.json
                 --render         re-render docs/EXPLORER.md from the
                                  committed JSONs, no simulation
                 --threads <n>    workers across configs, 0 = all CPUs
                                  (default 0); bytes identical at any
                                  thread count
                 --checkpoint-dir <dir>  per-config checkpoints keyed
                                  by config digest (resume)
                 --include <s,..> keep only config labels containing a
                                  substring (side study; needs --out)
                 --exclude <s,..> drop config labels containing a
                                  substring (side study; needs --out)
                 --out <path>     write the document here instead of
                                  docs/results/explore_<tier>.json
                 --root <path>    repo root (default .)
  stats        run a workload + mini campaign, then print the live
               metrics registry (see docs/METRICS.md)
                 --bench <name>   benchmark (default gcc)
                 --ops <n>        memory operations (default 200000)
                 --seed <n>       seed (default 42)
                 --trials <n>     injection trials (default 200)
                 --format table|json (default table)
                 --all true|false include zero metrics (default false)
                 --events <n>     ring events to tail (default 10)
                 --describe true  print the metrics reference, no run
  serve        run the campaign job daemon (see docs/ARCHITECTURE.md)
                 --data-dir <dir> journal + checkpoints (default
                                  cppc-serve-data)
                 --socket <path>  unix socket (default /tmp/cppc-serve.sock)
                 --tcp <addr>     extra loopback listener, e.g.
                                  127.0.0.1:7070
                 --queue-cap <n>  admission bound (default 64)
                 --max-threads <n> worker-thread governor (default: CPUs)
                 --checkpoint-every-ms <ms> minimum time between a
                                  job's periodic checkpoint writes; 0
                                  writes after every shard (default
                                  1000)
  submit       submit a job to a daemon; prints the job id
                 --kind/--trials/--seed/--threads/--shard-size/--batch
                 and the kind-specific flags, exactly as `campaign`
                 (--threads 0 resolves on the daemon's host)
                 --tenant <name>  fair-share key (default 'default')
                 --priority high|normal (default normal)
                 --watch          stream progress until the job ends
  status       one job's status document    --id <job>
  result       a finished job's result JSON --id <job>
  cancel       cancel a queued/running job  --id <job>
  list         job summaries                [--tenant <name>]
  watch        stream progress; prints the result JSON when done
                 --id <job>
  metrics      the daemon's live metrics snapshot (JSON)
  shutdown     graceful daemon shutdown (running jobs are checkpointed
               and resume on restart)
               every client command takes --socket <path> or --tcp <addr>
  help         this text"
    );
}

/// `benchmarks`
pub fn benchmarks() -> CliResult {
    println!(
        "{:<10} {:>8} {:>8} {:>12} {:>10}",
        "name", "ld/ki", "st/ki", "footprint", "base CPI"
    );
    for p in spec2000_profiles() {
        println!(
            "{:<10} {:>8} {:>8} {:>9} KB {:>10.2}",
            p.name,
            p.loads_per_kinst,
            p.stores_per_kinst,
            p.working_set_bytes / 1024,
            p.base_cpi
        );
    }
    Ok(())
}

/// `simulate`
pub fn simulate(args: &ParsedArgs) -> CliResult {
    let bench = args.get_or("bench", "gcc");
    let ops: usize = args.get_parsed("ops", 200_000)?;
    let seed: u64 = args.get_parsed("seed", 42)?;

    let profiles = spec2000_profiles();
    let profile = profiles
        .iter()
        .find(|p| p.name == bench)
        .ok_or_else(|| format!("unknown benchmark '{bench}' (see `benchmarks`)"))?;

    let machine = MachineConfig::table1();
    let model = TimingModel::new(machine);
    let base = model.simulate(profile, L1Scheme::OneDimParity, ops, seed);

    println!("benchmark {bench}: {ops} memory ops on the Table 1 machine\n");
    println!(
        "L1: miss rate {:5.2}%   stores-to-dirty {:6}   write-backs {:6}",
        base.l1_stats.miss_rate() * 100.0,
        base.l1_stats.stores_to_dirty,
        base.l1_stats.writebacks
    );
    println!(
        "L2: miss rate {:5.2}%   accesses {:9}",
        base.l2_stats.miss_rate() * 100.0,
        base.l2_stats.accesses()
    );
    println!();
    for (name, scheme) in [
        ("1D parity", L1Scheme::OneDimParity),
        ("CPPC", L1Scheme::Cppc),
        ("2D parity", L1Scheme::TwoDimParity),
    ] {
        let b = model.breakdown_from_stats(profile, scheme, ops, base.l1_stats, base.l2_stats);
        println!(
            "CPI {name:<10} {:.4}  ({:+.3}% vs parity)",
            b.cpi(),
            (b.cpi() / base.cpi() - 1.0) * 100.0
        );
    }

    let node = TechnologyNode::Nm32;
    let counts = AccessCounts {
        reads: base.l1_stats.load_hits,
        writes: base.l1_stats.store_hits + base.l1_stats.fills,
        stores_to_dirty: base.l1_stats.stores_to_dirty,
        miss_fills: base.l1_stats.fills,
        words_per_line: 4,
        silent_writes: 0,
    };
    let parity = SchemeEnergy::new(
        32 * 1024,
        2,
        32,
        ProtectionKind::OneDimParity { ways: 8 },
        node,
    );
    println!();
    for (name, kind) in [
        ("CPPC", ProtectionKind::Cppc { ways: 8 }),
        ("SECDED", ProtectionKind::Secded { interleaved: true }),
        ("2D parity", ProtectionKind::TwoDimParity { ways: 8 }),
    ] {
        let e = SchemeEnergy::new(32 * 1024, 2, 32, kind, node);
        println!(
            "L1 energy {name:<10} {:.3}x parity",
            e.total_pj(&counts) / parity.total_pj(&counts)
        );
    }
    Ok(())
}

/// `inject`
pub fn inject(args: &ParsedArgs) -> CliResult {
    let config = parse_config(args.get_or("config", "paper"))?;
    let fault = parse_fault(args.get_or("fault", "4x4"))?;
    let trials: u64 = args.get_parsed("trials", 400)?;

    let tally: OutcomeTally =
        Campaign::new(0xC11).run(trials, inject_experiment(inject_geometry(), config, fault));

    println!("campaign: {trials} trials");
    println!(
        "corrected: {:>6}  ({:.1}%)",
        tally.corrected,
        pct(tally.corrected, &tally)
    );
    println!(
        "DUE:       {:>6}  ({:.1}%)",
        tally.due,
        pct(tally.due, &tally)
    );
    println!(
        "SDC:       {:>6}  ({:.1}%)",
        tally.sdc,
        pct(tally.sdc, &tally)
    );
    println!(
        "masked:    {:>6}  ({:.1}%)",
        tally.masked,
        pct(tally.masked, &tally)
    );
    Ok(())
}

fn pct(n: u64, t: &OutcomeTally) -> f64 {
    n as f64 / t.total() as f64 * 100.0
}

/// How an engine campaign checkpoints: where, how often (minimum
/// wall-clock time between periodic writes), and whether an existing
/// file is resumed from.
struct CheckpointArgs<'a> {
    path: Option<&'a str>,
    every: std::time::Duration,
    resume: bool,
}

impl<'a> CheckpointArgs<'a> {
    fn from_args(args: &'a ParsedArgs) -> Result<Self, Box<dyn Error>> {
        Ok(CheckpointArgs {
            path: args.get("checkpoint"),
            every: std::time::Duration::from_millis(args.get_parsed("checkpoint-every-ms", 1000)?),
            resume: args.get_parsed("resume", true)?,
        })
    }
}

/// Runs one engine campaign, printing throttled live metrics to stderr
/// and checkpointing/resuming when `--checkpoint` is given.
fn run_engine_campaign<A, F>(
    cfg: &CampaignConfig,
    ckpt: &CheckpointArgs,
    experiment: F,
) -> Result<CampaignReport<A>, Box<dyn Error>>
where
    A: Accumulator + Persist,
    F: Fn(&mut StdRng, u64) -> A::Item + Sync,
{
    run_engine_campaign_exec(cfg, ckpt, cppc_campaign::PerTrial(experiment))
}

/// [`run_engine_campaign`] over an explicit range executor (the batched
/// mbe path goes through here directly).
fn run_engine_campaign_exec<A, E>(
    cfg: &CampaignConfig,
    ckpt: &CheckpointArgs,
    exec: E,
) -> Result<CampaignReport<A>, Box<dyn Error>>
where
    A: Accumulator + Persist,
    E: cppc_campaign::TrialExec<A>,
{
    let mut last_print: Option<std::time::Instant> = None;
    let on_progress = move |p: &Progress| {
        let done = p.shards_done == p.shards_total;
        let due = last_print.is_none_or(|t| t.elapsed().as_millis() >= 500);
        if done || due {
            eprintln!("  {}", p.summary_line());
            last_print = Some(std::time::Instant::now());
        }
    };
    let report = match ckpt.path {
        Some(path) => {
            let mut policy = CheckpointPolicy::new(path);
            policy.resume = ckpt.resume;
            policy.every = ckpt.every;
            cppc_campaign::run_resumable_exec(cfg, &policy, exec, on_progress)?
        }
        None => cppc_campaign::run_with_progress_exec(cfg, exec, on_progress),
    };
    for failed in &report.failed {
        eprintln!(
            "  shard {} FAILED (trials {}..{}, first seed {:#x}): {}",
            failed.shard, failed.trial_lo, failed.trial_hi, failed.first_trial_seed, failed.message
        );
    }
    Ok(report)
}

/// Prints the post-run shard summary (stderr in `--json` mode, where
/// stdout carries only the result document).
fn shard_summary<A: Accumulator>(report: &CampaignReport<A>, json: bool) {
    let line = format!(
        "{} shards ({} resumed, {} failed) in {:.2}s",
        report.completed_shards,
        report.resumed_shards,
        report.failed.len(),
        report.elapsed_secs
    );
    if json {
        eprintln!("{line}");
    } else {
        println!("{line}");
    }
}

fn print_tally(report: &CampaignReport<OutcomeTally>, json: bool) {
    shard_summary(report, json);
    let tally = &report.result;
    if json {
        // Exactly the service's result document for the same spec —
        // the CI smoke gate diffs the two byte for byte.
        println!(
            "{}",
            cppc_serve::runner::tally_result_json(tally).to_string_compact()
        );
        return;
    }
    println!(
        "corrected: {:>6}  ({:.1}%)",
        tally.corrected,
        pct(tally.corrected, tally)
    );
    println!(
        "DUE:       {:>6}  ({:.1}%)",
        tally.due,
        pct(tally.due, tally)
    );
    println!(
        "SDC:       {:>6}  ({:.1}%)",
        tally.sdc,
        pct(tally.sdc, tally)
    );
    println!(
        "masked:    {:>6}  ({:.1}%)",
        tally.masked,
        pct(tally.masked, tally)
    );
}

/// `campaign`
pub fn campaign(args: &ParsedArgs) -> CliResult {
    // `--scheme <name>` alone selects the scheme-zoo campaign.
    let default_kind = if args.get("scheme").is_some() {
        "scheme"
    } else {
        "inject"
    };
    let kind = args.get_or("kind", default_kind);
    let threads: usize = args.get_parsed("threads", 0)?; // 0 = all CPUs
    let trials: u64 = args.get_parsed("trials", 2000)?;
    let seed: u64 = args.get_parsed("seed", 0xC11)?;
    let shard_size: u64 = args.get_parsed("shard-size", cppc_campaign::DEFAULT_SHARD_SIZE)?;
    let batch: usize = args.get_parsed("batch", 1)?;
    let json = args.get_flag("json");
    let ckpt = CheckpointArgs::from_args(args)?;

    let cfg = CampaignConfig::new(seed, trials)
        .threads(threads)
        .shard_size(shard_size);
    let banner = format!(
        "campaign: kind={kind}  trials={trials}  seed={seed:#x}  threads={}  checkpoint={}",
        cfg.resolved_threads(),
        ckpt.path.unwrap_or("none"),
    );
    if json {
        eprintln!("{banner}");
    } else {
        println!("{banner}");
    }

    match kind {
        "inject" => {
            let config = parse_config(args.get_or("config", "paper"))?;
            let fault = parse_fault(args.get_or("fault", "4x4"))?;
            let report: CampaignReport<OutcomeTally> = run_engine_campaign(
                &cfg,
                &ckpt,
                inject_experiment(inject_geometry(), config, fault),
            )?;
            print_tally(&report, json);
        }
        "scheme" => {
            let scheme = parse_scheme(args.get_or("scheme", "cppc"))?;
            let config = parse_config(args.get_or("config", "paper"))?;
            let fault = parse_fault(args.get_or("fault", "4x4"))?;
            let report: CampaignReport<OutcomeTally> =
                run_engine_campaign(&cfg, &ckpt, scheme_experiment(scheme, config, fault))?;
            print_tally(&report, json);
        }
        "mbe" => {
            // `--batch > 1` routes through the cross-trial batched
            // executor; results are bit-identical to `--batch 1`.
            let report: CampaignReport<OutcomeTally> =
                run_engine_campaign_exec(&cfg, &ckpt, cppc_bench::mbe::MbeBatchExec::solid(batch))?;
            print_tally(&report, json);
        }
        "sleep" => {
            let millis: u64 = args.get_parsed("sleep-ms", 0)?;
            let report: CampaignReport<OutcomeTally> =
                run_engine_campaign(&cfg, &ckpt, sleep_experiment(millis))?;
            print_tally(&report, json);
        }
        "trace" => {
            use cppc_bench::experiments::{load_trace, trace_experiment};
            let path = args
                .get("trace")
                .ok_or("--kind trace requires --trace <file>")?;
            let trace = load_trace(path)?;
            let report: CampaignReport<OutcomeTally> =
                run_engine_campaign(&cfg, &ckpt, trace_experiment(&trace))?;
            print_tally(&report, json);
        }
        "montecarlo" => {
            use cppc_reliability::montecarlo::{
                analytic_mttf_hours, simulate_trial_into, MonteCarloAccumulator, MonteCarloConfig,
            };
            let mc_cfg = MonteCarloConfig {
                faults_per_hour: args.get_parsed("rate", 40.0)?,
                domains: args.get_parsed("domains", 8)?,
                tavg_hours: args.get_parsed("tavg", 0.0004)?,
                trials: u32::try_from(trials).map_err(|_| "too many trials for montecarlo")?,
            };
            // Same closure shape as the service runner (scratch reuse),
            // so a job's exact result document matches `--json` here.
            std::thread_local! {
                static LAST_FAULT: std::cell::RefCell<Vec<f64>> =
                    const { std::cell::RefCell::new(Vec::new()) };
            }
            let report: CampaignReport<MonteCarloAccumulator> =
                run_engine_campaign(&cfg, &ckpt, |rng: &mut StdRng, _trial| {
                    LAST_FAULT.with(|s| simulate_trial_into(&mc_cfg, rng, &mut s.borrow_mut()))
                })?;
            shard_summary(&report, json);
            if json {
                println!(
                    "{}",
                    cppc_serve::runner::montecarlo_result_json(&report.result).to_string_compact()
                );
            } else {
                let mc = report.result.finish();
                println!(
                    "  simulated: {:.2} h  (+/- {:.2})",
                    mc.mttf_hours, mc.std_error_hours
                );
                println!("  analytic:  {:.2} h", analytic_mttf_hours(&mc_cfg));
            }
        }
        other => {
            return Err(format!(
                "unknown kind '{other}' (use inject|scheme|montecarlo|mbe|sleep|trace)"
            )
            .into())
        }
    }
    Ok(())
}

/// `mttf`
pub fn mttf(args: &ParsedArgs) -> CliResult {
    let level = args.get_or("level", "l1");
    let fit: f64 = args.get_parsed("fit", 0.001)?;
    let avf: f64 = args.get_parsed("avf", 0.7)?;
    let mut params = match level {
        "l1" => ReliabilityParams::paper_l1(),
        "l2" => ReliabilityParams::paper_l2(),
        other => return Err(format!("unknown level '{other}' (use l1|l2)").into()),
    };
    params.rate = SeuRate::from_fit_per_bit(fit);
    params.avf = avf;

    println!("MTTF at the paper's {level} point ({fit} FIT/bit, AVF {avf}):");
    println!(
        "  1D parity: {:>12.3e} years",
        mttf_one_dim_parity_years(&params)
    );
    println!("  CPPC:      {:>12.3e} years", mttf_cppc_years(&params, 8));
    let secded_bits = if level == "l1" { 64.0 } else { 256.0 };
    println!(
        "  SECDED:    {:>12.3e} years",
        mttf_secded_years(&params, secded_bits)
    );
    Ok(())
}

/// Which on-disk trace format a file holds, judged from its first
/// bytes: the binary magic, the text header, or (failing both) the
/// Dinero `din` layout, which has no signature of its own.
fn sniff_trace_format(path: &str) -> Result<&'static str, Box<dyn Error>> {
    use std::io::Read;
    let mut head = [0u8; 64];
    let mut f = std::fs::File::open(path).map_err(|e| format!("cannot open '{path}': {e}"))?;
    let n = f.read(&mut head)?;
    let head = &head[..n];
    if head.starts_with(&cppc_workloads::binfmt::MAGIC) {
        return Ok("bin");
    }
    if head.starts_with(cppc_workloads::trace_io::HEADER.as_bytes()) {
        return Ok("text");
    }
    Ok("din")
}

/// Loads a whole trace file into memory as ops, in any of the three
/// supported formats.
fn load_trace_ops(
    path: &str,
    format: &str,
) -> Result<Vec<cppc_cache_sim::hierarchy::MemOp>, Box<dyn Error>> {
    use std::io::BufReader;
    let open = || -> Result<std::fs::File, Box<dyn Error>> {
        Ok(std::fs::File::open(path).map_err(|e| format!("cannot open '{path}': {e}"))?)
    };
    Ok(match format {
        "text" => cppc_workloads::read_trace(BufReader::new(open()?))?,
        // No BufReader: the binary reader does its own chunked buffering.
        "bin" => cppc_workloads::read_bin_trace(open()?)?,
        "din" => cppc_workloads::read_din_trace(BufReader::new(open()?))?,
        other => return Err(format!("unknown trace format '{other}' (use text|bin|din)").into()),
    })
}

/// `trace` / `trace record`
pub fn trace(args: &ParsedArgs) -> CliResult {
    use cppc_workloads::{write_trace, BinTraceWriter, TraceGenerator};
    let bench = args.get_or("bench", "gcc");
    let ops: usize = args.get_parsed("ops", 100_000)?;
    let format = args.get_or("format", "text");
    let default_out = if format == "bin" {
        "trace.cppct"
    } else {
        "trace.txt"
    };
    let out_path = args.get_or("out", default_out).to_string();
    let seed: u64 = args.get_parsed("seed", 42)?;
    let profiles = spec2000_profiles();
    let profile = profiles
        .iter()
        .find(|p| p.name == bench)
        .ok_or_else(|| format!("unknown benchmark '{bench}' (see `benchmarks`)"))?;
    let generated = TraceGenerator::new(profile, seed).take(ops);
    let n = match format {
        "text" => {
            let mut file = std::io::BufWriter::new(std::fs::File::create(&out_path)?);
            write_trace(&mut file, generated)?
        }
        "bin" => {
            let file = std::io::BufWriter::new(std::fs::File::create(&out_path)?);
            let mut writer = BinTraceWriter::new(file)?;
            for op in generated {
                writer.push(op)?;
            }
            usize::try_from(writer.finish()?).unwrap_or(usize::MAX)
        }
        other => return Err(format!("unknown format '{other}' (use text|bin)").into()),
    };
    println!("wrote {n} operations of '{bench}' (seed {seed}, {format}) to {out_path}");
    Ok(())
}

/// `trace convert` — whole-file conversion between the text v1, binary
/// v1 and Dinero `din` formats. The input format is sniffed unless
/// `--from` pins it (a `din` file has no signature, so sniffing falls
/// back to it only when neither magic matches).
pub fn trace_convert(args: &ParsedArgs) -> CliResult {
    use std::io::Write;
    let in_path = args.get("in").ok_or("missing --in <path>")?;
    let out_path = args.get("out").ok_or("missing --out <path>")?;
    let from = match args.get("from") {
        Some(f) => f.to_string(),
        None => sniff_trace_format(in_path)?.to_string(),
    };
    let to = args.get_or("to", "bin");
    let _span = cppc_workloads::obs::TRACE_CONVERT.start();
    let ops = load_trace_ops(in_path, &from)?;
    match to {
        "text" => {
            let mut out = std::io::BufWriter::new(std::fs::File::create(out_path)?);
            cppc_workloads::write_trace(&mut out, ops.iter().copied())?;
            out.flush()?;
        }
        "bin" => {
            cppc_workloads::binfmt::write_bin_trace_file(out_path, &ops)?;
        }
        other => return Err(format!("unknown output format '{other}' (use text|bin)").into()),
    }
    cppc_workloads::obs::TRACE_OPS_CONVERTED.add(ops.len() as u64);
    println!(
        "converted {} operations: {in_path} ({from}) -> {out_path} ({to})",
        ops.len()
    );
    Ok(())
}

/// `trace info` — format, declared and actual op counts, and the
/// load/store mix of a trace file.
pub fn trace_info(args: &ParsedArgs) -> CliResult {
    use cppc_cache_sim::hierarchy::MemOp;
    let path = args.get("in").ok_or("missing --in <path>")?;
    let format = sniff_trace_format(path)?;
    let file_bytes = std::fs::metadata(path)?.len();
    let declared: Option<u64> = if format == "bin" {
        cppc_workloads::BinTraceReader::open(path)?.declared_ops()
    } else {
        None
    };
    let ops = load_trace_ops(path, format)?;
    let (mut loads, mut stores, mut byte_stores) = (0u64, 0u64, 0u64);
    for op in &ops {
        match op {
            MemOp::Load(_) => loads += 1,
            MemOp::Store(..) => stores += 1,
            MemOp::StoreByte(..) => byte_stores += 1,
        }
    }
    println!("{path}: {format} trace, {file_bytes} bytes");
    match declared {
        Some(n) => println!("  declared ops: {n}"),
        None if format == "bin" => println!("  declared ops: unknown (unfinished writer)"),
        None => {}
    }
    println!("  ops:          {}", ops.len());
    println!("  loads:        {loads}");
    println!("  stores:       {stores}");
    println!("  byte stores:  {byte_stores}");
    Ok(())
}

/// `trace bench` — quick ops/sec probe of a trace file: the
/// materialize-then-replay leg (full decode into a `SharedTrace`, then
/// one batched drive) against the streaming leg (chunked
/// `BinTraceReader` decode feeding the hierarchy as it goes; binary
/// traces only). Both legs include the file I/O, and the hierarchy
/// digests are asserted identical.
pub fn trace_bench(args: &ParsedArgs) -> CliResult {
    use cppc_bench::experiments::{load_trace, trace_digest, trace_hierarchy};
    let path = args.get("in").ok_or("missing --in <path>")?;
    let reps: usize = args.get_parsed("reps", 3)?;
    let reps = reps.max(1);
    let format = sniff_trace_format(path)?;

    let mut materialize_best = f64::INFINITY;
    let mut ops_count = 0usize;
    let mut digest = 0u64;
    for _ in 0..reps {
        let t0 = std::time::Instant::now();
        let trace = load_trace(path)?;
        let batch = trace.batch();
        let mut h = trace_hierarchy();
        h.run_batch(&batch);
        let dt = t0.elapsed().as_secs_f64();
        ops_count = batch.len();
        digest = trace_digest(&h);
        materialize_best = materialize_best.min(dt);
    }
    let materialize_rate = ops_count as f64 / materialize_best;
    println!("{path}: {ops_count} ops ({format}), best of {reps}");
    println!("  materialize: {materialize_rate:>12.0} ops/s");

    if format == "bin" {
        let mut streaming_best = f64::INFINITY;
        for _ in 0..reps {
            let t0 = std::time::Instant::now();
            let mut reader = cppc_workloads::BinTraceReader::open(path)?;
            let mut h = trace_hierarchy();
            let mut batch = cppc_workloads::OpBatch::new();
            cppc_workloads::binfmt::drive(&mut reader, &mut h, &mut batch)?;
            let dt = t0.elapsed().as_secs_f64();
            assert_eq!(
                trace_digest(&h),
                digest,
                "streaming drive diverged from materialized drive"
            );
            streaming_best = streaming_best.min(dt);
        }
        let streaming_rate = ops_count as f64 / streaming_best;
        println!("  streaming:   {streaming_rate:>12.0} ops/s");
        println!(
            "  speedup:     {:>12.2}x",
            streaming_rate / materialize_rate
        );
    }
    Ok(())
}

/// `montecarlo`
pub fn montecarlo(args: &ParsedArgs) -> CliResult {
    use cppc_reliability::montecarlo::{
        analytic_mttf_hours, simulate_double_fault_mttf, MonteCarloConfig,
    };
    let cfg = MonteCarloConfig {
        faults_per_hour: args.get_parsed("rate", 40.0)?,
        domains: args.get_parsed("domains", 8)?,
        tavg_hours: args.get_parsed("tavg", 0.0004)?,
        trials: args.get_parsed("trials", 3000)?,
    };
    let mc = simulate_double_fault_mttf(&cfg, 0xCA7);
    let analytic = analytic_mttf_hours(&cfg);
    println!("accelerated double-fault MTTF ({} trials):", cfg.trials);
    println!(
        "  simulated: {:.2} h  (+/- {:.2})",
        mc.mttf_hours, mc.std_error_hours
    );
    println!("  analytic:  {analytic:.2} h");
    println!(
        "  deviation: {:+.1}%   mean faults absorbed per failure: {:.1}",
        (mc.mttf_hours / analytic - 1.0) * 100.0,
        mc.mean_faults_to_failure
    );
    Ok(())
}

/// `coherence`
pub fn coherence(args: &ParsedArgs) -> CliResult {
    use cppc_coherence::{CppcCoherentSystem, SharedTraceGenerator};
    let cores: usize = args.get_parsed("cores", 4)?;
    let ops: usize = args.get_parsed("ops", 100_000)?;
    println!("multiprocessor CPPC: {cores} cores, MSI write-invalidate, {ops} ops\n");
    println!(
        "{:>10} {:>12} {:>12} {:>12}",
        "sharing", "rbw/store", "dirty-inv", "invariants"
    );
    for sharing_pct in [0u32, 10, 25, 50, 75] {
        let mut sys = CppcCoherentSystem::new(
            cores,
            CacheGeometry::new(32 * 1024, 2, 32)?,
            CacheGeometry::new(1024 * 1024, 4, 32)?,
            CppcConfig::paper(),
            ReplacementPolicy::Lru,
        );
        let generator = SharedTraceGenerator::new(
            cores,
            64 * 1024,
            16 * 1024,
            f64::from(sharing_pct) / 100.0,
            0.35,
            0xC0DE ^ u64::from(sharing_pct),
        );
        let mut stores = 0u64;
        for op in generator.take(ops) {
            if matches!(op, cppc_coherence::CoreOp::Store { .. }) {
                stores += 1;
            }
            sys.step(op).map_err(|e| format!("unexpected DUE: {e}"))?;
        }
        println!(
            "{:>9}% {:>12.4} {:>12} {:>12}",
            sharing_pct,
            sys.total_read_before_writes() as f64 / stores as f64,
            sys.stats().dirty_invalidations,
            if sys.verify_invariants() {
                "ok"
            } else {
                "VIOLATED"
            }
        );
    }
    Ok(())
}

/// `sweep`
pub fn sweep(args: &ParsedArgs) -> CliResult {
    let what = args.get_or("what", "pairs");
    let params = ReliabilityParams::paper_l1();
    match what {
        "pairs" => {
            println!("{:<8} {:>16} {:>12}", "pairs", "alias MTTF (y)", "area ovh");
            for pairs in [1usize, 2, 4, 8] {
                let alias = mttf_aliasing_years(&params, aliasing_vulnerable_bits(pairs));
                let area = AreaModel::cppc(32 * 1024, 8, pairs, 64).overhead_fraction();
                let alias_str = if alias.is_infinite() {
                    "eliminated".to_string()
                } else {
                    format!("{alias:.2e}")
                };
                println!("{pairs:<8} {alias_str:>16} {:>11.2}%", area * 100.0);
            }
        }
        "ways" => {
            println!("{:<8} {:>16} {:>12}", "ways", "MTTF (y)", "area ovh");
            for ways in [1u32, 2, 4, 8] {
                let m = mttf_cppc_years(&params, ways);
                let area = AreaModel::cppc(32 * 1024, ways, 1, 64).overhead_fraction();
                println!("{ways:<8} {m:>16.2e} {:>11.2}%", area * 100.0);
            }
        }
        other => return Err(format!("unknown sweep '{other}' (use pairs|ways)").into()),
    }
    Ok(())
}

/// `repro` — the paper-results reproduction harness (`crates/repro`).
pub fn repro(args: &ParsedArgs) -> CliResult {
    use cppc_repro::{Artifact, RunConfig, Tier};

    let root = PathBuf::from(args.get_or("root", "."));
    let check = args.get_flag("check");
    let update_goldens = args.get_flag("update-goldens");
    let render = args.get_flag("render");
    if check && update_goldens {
        return Err("--check and --update-goldens are mutually exclusive".into());
    }

    if render {
        cppc_repro::write_book(&root)?;
        println!("rendered {}", cppc_repro::book_path(&root).display());
        return Ok(());
    }

    let cfg = RunConfig {
        threads: args.get_parsed("threads", 1)?,
        quick: args.get_flag("quick"),
    };
    let registry = cppc_repro::registry();
    let selection: Vec<&Artifact> = match args.get("artifact") {
        Some(name) => vec![cppc_repro::find(name).ok_or_else(|| {
            let known: Vec<&str> = registry.iter().map(|a| a.name).collect();
            format!("unknown artifact '{name}' (known: {})", known.join(", "))
        })?],
        None if args.get_flag("all") => registry.iter().collect(),
        // Default scope is the fast tier: the CI smoke set.
        None => registry.iter().filter(|a| a.tier == Tier::Fast).collect(),
    };

    let mut failures = Vec::new();
    for a in &selection {
        eprintln!(
            "repro: running {} ({}, tier {}) ...",
            a.name, a.title, a.tier
        );
        let out = cppc_repro::run_artifact(a, &cfg);
        if check {
            let doc = cppc_repro::load_doc(&cppc_repro::json_path(&root, a.name));
            let mut fails = cppc_repro::check_artifact(a, &out, doc.as_ref());
            for f in &fails {
                eprintln!("  FAIL {f}");
            }
            if fails.is_empty() {
                eprintln!("  ok: {} metrics within tolerance", out.metrics.len());
            }
            failures.append(&mut fails);
        } else {
            cppc_repro::write_artifact(&root, a, &cfg, &out, update_goldens)?;
            println!("wrote {}", cppc_repro::json_path(&root, a.name).display());
        }
    }

    if check {
        if failures.is_empty() {
            println!(
                "repro check: {} artifact(s) within golden tolerances",
                selection.len()
            );
            return Ok(());
        }
        return Err(format!("{} golden-gate violation(s)", failures.len()).into());
    }

    cppc_repro::write_book(&root)?;
    println!("wrote {}", cppc_repro::book_path(&root).display());
    Ok(())
}

/// Path of a tier's committed sweep document.
fn explore_json_path(root: &std::path::Path, tier: &str) -> PathBuf {
    root.join("docs")
        .join("results")
        .join(format!("explore_{tier}.json"))
}

/// Loads a committed sweep document, if present and well-formed.
fn explore_doc(root: &std::path::Path, tier: &str) -> Option<cppc_campaign::json::Json> {
    let text = std::fs::read_to_string(explore_json_path(root, tier)).ok()?;
    cppc_campaign::json::Json::parse(&text).ok()
}

/// Re-renders `docs/EXPLORER.md` from the committed tier documents.
fn write_explorer_book(root: &std::path::Path) -> Result<PathBuf, Box<dyn Error>> {
    let quick = explore_doc(root, "quick");
    let full = explore_doc(root, "full");
    let path = root.join("docs").join("EXPLORER.md");
    std::fs::write(
        &path,
        cppc_explore::doc::render(quick.as_ref(), full.as_ref()),
    )
    .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

/// Splits a comma-separated filter list.
fn split_filters(raw: Option<&str>) -> Vec<String> {
    raw.map_or_else(Vec::new, |s| {
        s.split(',')
            .map(str::trim)
            .filter(|p| !p.is_empty())
            .map(ToString::to_string)
            .collect()
    })
}

/// `explore` — the design-space explorer (`crates/explore`, see
/// docs/EXPLORER.md).
pub fn explore(args: &ParsedArgs) -> CliResult {
    use cppc_explore::{doc, run_sweep, SweepOptions, SweepOutcome, SweepSpec};

    let root = PathBuf::from(args.get_or("root", "."));
    let quick = args.get_flag("quick");
    let check = args.get_flag("check");
    if args.get_flag("render") {
        let path = write_explorer_book(&root)?;
        println!("rendered {}", path.display());
        return Ok(());
    }

    let mut spec = if quick {
        SweepSpec::quick_tier()
    } else {
        SweepSpec::full_tier()
    };
    spec.include = split_filters(args.get("include"));
    spec.exclude = split_filters(args.get("exclude"));
    let filtered = !spec.include.is_empty() || !spec.exclude.is_empty();
    let out_override = args.get("out").map(PathBuf::from);
    if check && (filtered || out_override.is_some()) {
        return Err("--check verifies the canonical tier; drop --include/--exclude/--out".into());
    }
    if filtered {
        if out_override.is_none() {
            return Err(
                "filtered sweeps are side studies; give them a home with --out <path>".into(),
            );
        }
        spec.tier = "custom".to_string();
    }

    let opts = SweepOptions {
        threads: args.get_parsed("threads", 0)?,
        checkpoint_dir: args.get("checkpoint-dir").map(PathBuf::from),
    };
    eprintln!(
        "explore: {} tier, {} configs x {} trials ({} workload ops) ...",
        spec.tier,
        spec.enumerate().len(),
        spec.trials,
        spec.workload_ops
    );
    let points = match run_sweep(&spec, &opts, None)? {
        SweepOutcome::Complete(points) => points,
        SweepOutcome::Interrupted { completed, total } => {
            return Err(format!("sweep interrupted at {completed}/{total} configs").into())
        }
    };
    let document = doc::sweep_doc(&spec, &points);
    let body = doc::pretty(&document);
    let summary = |key: &str| {
        document
            .get("summary")
            .and_then(|s| s.get(key))
            .and_then(cppc_campaign::json::Json::as_u64)
            .unwrap_or(0)
    };

    if check {
        let path = explore_json_path(&root, &spec.tier);
        let regen = format!(
            "cargo run --release -p cppc-cli -- explore{} --root {}",
            if quick { " --quick" } else { "" },
            root.display()
        );
        let committed = std::fs::read_to_string(&path)
            .map_err(|e| format!("read {}: {e} (generate it with `{regen}`)", path.display()))?;
        if committed != body {
            return Err(format!(
                "{} is stale: re-running the {} tier produced different bytes; \
                 regenerate with `{regen}`",
                path.display(),
                spec.tier
            )
            .into());
        }
        if summary("frontier_non_cppc") == 0 {
            return Err("frontier degenerated to a CPPC monoculture".into());
        }
        println!(
            "explore check: {} matches ({} configs, frontier {} incl. {} non-CPPC)",
            path.display(),
            summary("configs"),
            summary("frontier_size"),
            summary("frontier_non_cppc"),
        );
        return Ok(());
    }

    let path = out_override.unwrap_or_else(|| explore_json_path(&root, &spec.tier));
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("create {}: {e}", parent.display()))?;
    }
    std::fs::write(&path, &body).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!(
        "wrote {} ({} configs, frontier {} incl. {} non-CPPC, {} dominated)",
        path.display(),
        summary("configs"),
        summary("frontier_size"),
        summary("frontier_non_cppc"),
        summary("dominated"),
    );
    // A canonical tier write refreshes the book; side studies (--out)
    // leave the committed documents alone.
    if args.get("out").is_none() {
        let book = write_explorer_book(&root)?;
        println!("rendered {}", book.display());
    }
    Ok(())
}

/// Registers every instrumented subsystem's metric groups, so describe
/// mode and snapshots list them even before any activity. Kept in sync
/// with the `metrics-md` generator binary.
pub fn register_all_metrics() {
    cppc_cache_sim::obs::register_metrics();
    cppc_workloads::obs::register_metrics();
    cppc_core::obs::register_metrics();
    cppc_timing::obs::register_metrics();
    cppc_campaign::obs::register_metrics();
    cppc_repro::obs::register_metrics();
    cppc_serve::obs::register_metrics();
    cppc_bench::obs::register_metrics();
    cppc_explore::obs::register_metrics();
}

/// `stats`
pub fn stats(args: &ParsedArgs) -> CliResult {
    register_all_metrics();
    if args.get_parsed("describe", false)? {
        print!("{}", cppc_obs::reference_markdown());
        return Ok(());
    }

    let bench = args.get_or("bench", "gcc");
    let ops: usize = args.get_parsed("ops", 200_000)?;
    let seed: u64 = args.get_parsed("seed", 42)?;
    let trials: u64 = args.get_parsed("trials", 200)?;
    let format = args.get_or("format", "table");
    let include_zero: bool = args.get_parsed("all", false)?;
    let tail: usize = args.get_parsed("events", 10)?;

    let profiles = spec2000_profiles();
    let profile = profiles
        .iter()
        .find(|p| p.name == bench)
        .ok_or_else(|| format!("unknown benchmark '{bench}' (see `benchmarks`)"))?;

    // A Figure 10-style run: one functional pass shared by the three
    // protection schemes, so the timing group accumulates a stall-cause
    // breakdown covering each scheme's port-conflict term.
    eprintln!("running {bench} ({ops} ops) across 1D-parity / CPPC / 2D-parity ...");
    let model = TimingModel::new(MachineConfig::table1());
    let base = model.simulate(profile, L1Scheme::OneDimParity, ops, seed);
    for scheme in [L1Scheme::Cppc, L1Scheme::TwoDimParity] {
        let _ = model.breakdown_from_stats(profile, scheme, ops, base.l1_stats, base.l2_stats);
    }

    // A small fault-injection campaign so the recovery engine, register
    // file, campaign scheduler and event ring have something to show.
    eprintln!("running {trials}-trial fault-injection campaign ...");
    let geo = inject_geometry();
    let cfg = CampaignConfig::new(seed, trials);
    let fault = FaultModel::SpatialSquare {
        rows: 4,
        cols: 4,
        density: 1.0,
    };
    let _report: CampaignReport<OutcomeTally> =
        cppc_campaign::run(&cfg, inject_experiment(geo, CppcConfig::paper(), fault));
    eprintln!();

    let groups = cppc_obs::snapshot();
    match format {
        "table" => print!("{}", cppc_obs::render_table(&groups, include_zero)),
        "json" => println!("{}", cppc_obs::render_json(&groups)),
        other => return Err(format!("unknown format '{other}' (use table|json)").into()),
    }

    if tail > 0 && format == "table" {
        let events = cppc_obs::events();
        if !events.is_empty() {
            println!(
                "last {} of {} buffered events:",
                tail.min(events.len()),
                events.len()
            );
            for e in events.iter().rev().take(tail).rev() {
                println!("  #{:<6} {:<22} {}", e.seq, e.label, e.detail);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmarks_command_runs() {
        benchmarks().unwrap();
    }

    #[test]
    fn sweep_commands_run() {
        let pairs = crate::args::ParsedArgs::parse(["sweep".into()]).unwrap();
        sweep(&pairs).unwrap();
        let ways = crate::args::ParsedArgs::parse(["sweep".into(), "--what".into(), "ways".into()])
            .unwrap();
        sweep(&ways).unwrap();
        let bad = crate::args::ParsedArgs::parse(["sweep".into(), "--what".into(), "nope".into()])
            .unwrap();
        assert!(sweep(&bad).is_err());
    }

    #[test]
    fn mttf_command_runs() {
        let a = crate::args::ParsedArgs::parse(["mttf".into()]).unwrap();
        mttf(&a).unwrap();
        let l2 =
            crate::args::ParsedArgs::parse(["mttf".into(), "--level".into(), "l2".into()]).unwrap();
        mttf(&l2).unwrap();
        let bad =
            crate::args::ParsedArgs::parse(["mttf".into(), "--level".into(), "l9".into()]).unwrap();
        assert!(mttf(&bad).is_err());
    }
}
