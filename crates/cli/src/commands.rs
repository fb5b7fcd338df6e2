//! The CLI subcommands.

use std::error::Error;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use cppc_bench::experiments::{inject_experiment, inject_geometry};
use cppc_campaign::json::Json;
use cppc_campaign::{CampaignConfig, CampaignReport, CheckpointPolicy, Persist, Progress, RunOpts};
use cppc_core::CppcConfig;
use cppc_energy::scheme::{AccessCounts, ProtectionKind, SchemeEnergy};
use cppc_energy::tech::TechnologyNode;
use cppc_fault::campaign::OutcomeTally;
use cppc_fault::model::FaultModel;
use cppc_reliability::montecarlo::analytic_mttf_hours;
use cppc_reliability::mttf::{mttf_cppc_years, mttf_one_dim_parity_years, mttf_secded_years};
use cppc_reliability::{ReliabilityParams, SeuRate};
use cppc_serve::runner::RunEnd;
use cppc_timing::{L1Scheme, MachineConfig, TimingModel};
use cppc_workloads::spec2000_profiles;

use crate::args::ParsedArgs;

type CliResult = Result<(), Box<dyn Error>>;

/// The usage text `help` prints. Its COMMANDS list names exactly the
/// commands `main.rs` gives an option allowlist, plus `help` (a unit
/// test checks).
pub const HELP: &str = "cppc-cli — Correctable Parity Protected Cache (ISCA 2011) tools

USAGE: cppc-cli <COMMAND> [--key value ...]

COMMANDS:
  benchmarks   list the synthetic SPEC2000-like workloads
  simulate     run one benchmark through the Table 1 machine
                 --bench <name>   benchmark (default gcc)
                 --ops <n>        memory operations (default 200000)
                 --seed <n>       trace seed (default 42)
  campaign     run a campaign through the parallel deterministic engine
               (bit-identical results at any thread count; live metrics
               on stderr)
                 --kind inject|scheme|montecarlo|mbe|sleep|trace|explore
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
                 inject and scheme kinds also take
                   --config basic|paper|two-pairs|eight-pairs
                                  (default paper)
                   --fault single|2xvert|8xhoriz|4x4|8x8 (default 4x4);
                 montecarlo (accelerated double-fault MTTF, simulated
                 vs analytic) takes --rate <faults/h> (default 40),
                 --domains <n> (default 8) and --tavg <hours> (default
                 0.0004); sleep --sleep-ms;
                 trace --trace <file> (text or binary trace to replay
                 per trial; see docs/TRACES.md); explore --quick (the
                 28-config tier; --trials/--seed set each config's
                 campaign)
  mttf         print the analytical MTTF table
                 --level l1|l2    evaluation point (default l1)
                 --fit <f>        SEU rate, FIT/bit (default 0.001)
                 --avf <f>        AVF (default 0.7)
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
  repro        reproduce the paper's tables/figures with golden gates
               (see docs/RESULTS.md)
                 --artifact <name> one artifact (default: fast tier)
                 --all            every artifact, incl. the full tier
                 --check          gate against committed goldens, write
                                  nothing; non-zero exit on violation
                 --update-goldens re-bless goldens with fresh values
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
  docs         re-render docs/{RESULTS,SCHEMES,EXPLORER,METRICS}.md
               from the code and the committed docs/results/*.json (no
               simulation; run from the repo root)
                 --check          write nothing; exit non-zero naming
                                  every stale file
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
  help         this text";

/// Prints usage.
pub fn print_help() {
    println!("{HELP}");
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

/// The human-readable outcome breakdown of a tally.
fn print_tally(tally: &OutcomeTally) {
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

fn pct(n: u64, t: &OutcomeTally) -> f64 {
    n as f64 / t.total() as f64 * 100.0
}

/// `campaign` — builds the same [`JobSpec`](cppc_serve::JobSpec) as
/// `submit` and runs it in process through the daemon's executor
/// ([`cppc_serve::runner::execute`]), printing throttled live metrics
/// to stderr and checkpointing/resuming when `--checkpoint` is given.
pub fn campaign(args: &ParsedArgs) -> CliResult {
    let spec = crate::serve_cmd::spec_from_args(args, 0)?; // 0 = all CPUs
    let json = args.get_flag("json");
    let every = Duration::from_millis(args.get_parsed("checkpoint-every-ms", 1000)?);
    let resume = args.get_parsed("resume", true)?;
    let policy = args.get("checkpoint").map(|path| CheckpointPolicy {
        path: path.into(),
        every,
        resume,
    });
    // In `--json` mode stdout carries only the result document.
    let say = |line: &str| {
        if json {
            eprintln!("{line}");
        } else {
            println!("{line}");
        }
    };
    say(&format!(
        "campaign: kind={}  trials={}  seed={:#x}  threads={}  checkpoint={}",
        spec.kind.name(),
        spec.trials,
        spec.seed,
        cppc_serve::runner::resolved_threads(&spec, spec.threads),
        args.get("checkpoint").unwrap_or("none"),
    ));

    let resumable = policy.as_ref().is_some_and(|p| p.resume && p.path.exists());
    let started = Instant::now();
    // (shards done, resumed, failed, elapsed seconds) of the last
    // progress snapshot.
    let mut shards = None;
    let mut last_print: Option<Instant> = None;
    let end = cppc_serve::runner::execute(
        &spec,
        spec.threads,
        RunOpts {
            checkpoint: policy.as_ref(),
            interrupt: None,
            progress: Some(&mut |p: &Progress| {
                let due = last_print.is_none_or(|t| t.elapsed().as_millis() >= 500);
                if p.shards_done == p.shards_total || due {
                    eprintln!("  {}", p.summary_line());
                    last_print = Some(Instant::now());
                }
                shards = Some((
                    p.shards_done,
                    p.shards_resumed,
                    p.shards_failed,
                    p.elapsed_secs,
                ));
            }),
        },
    );
    // A run that finds every shard in its checkpoint executes nothing
    // and so reports no progress; its summary comes from the spec.
    if shards.is_none() && resumable && matches!(end, RunEnd::Complete { .. }) {
        let total = spec.campaign_config(spec.threads).total_shards();
        shards = Some((total, total, 0, started.elapsed().as_secs_f64()));
    }
    if let Some((done, resumed, failed, secs)) = shards {
        say(&format!(
            "{done} shards ({resumed} resumed, {failed} failed) in {secs:.2}s"
        ));
    }

    let result = match end {
        RunEnd::Complete { result } => result,
        RunEnd::Failed { error } => return Err(error.into()),
        RunEnd::Interrupted => return Err("campaign interrupted".into()),
    };
    if json {
        // Exactly the service's result document for the same spec —
        // the CI smoke gate diffs the two byte for byte.
        println!("{}", result.to_string_compact());
    } else if let Some(mc) = cppc_serve::runner::montecarlo_config(&spec) {
        let hours = |key| {
            result
                .get(key)
                .and_then(Json::as_f64_bits)
                .unwrap_or(f64::NAN)
        };
        let analytic = analytic_mttf_hours(&mc);
        println!(
            "  simulated: {:.2} h  (+/- {:.2})",
            hours("mttf_hours"),
            hours("std_error_hours")
        );
        println!("  analytic:  {analytic:.2} h");
        println!(
            "  deviation: {:+.1}%   mean faults absorbed per failure: {:.1}",
            (hours("mttf_hours") / analytic - 1.0) * 100.0,
            hours("mean_faults_to_failure")
        );
    } else if let Some(tally) = OutcomeTally::from_json(&result) {
        print_tally(&tally);
    } else {
        println!("{}", result.to_string_compact());
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

/// `repro` — the paper-results reproduction harness (`crates/repro`).
pub fn repro(args: &ParsedArgs) -> CliResult {
    use cppc_repro::{Artifact, RunConfig, Tier};

    let root = PathBuf::from(args.get_or("root", "."));
    let check = args.get_flag("check");
    let update_goldens = args.get_flag("update-goldens");
    if check && update_goldens {
        return Err("--check and --update-goldens are mutually exclusive".into());
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

    for path in crate::docs::write_all(&root)? {
        println!("wrote {}", path.display());
    }
    Ok(())
}

/// Path of a tier's committed sweep document.
pub(crate) fn explore_json_path(root: &std::path::Path, tier: &str) -> PathBuf {
    cppc_repro::results_dir(root).join(format!("explore_{tier}.json"))
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
    // A canonical tier write refreshes the books; side studies (--out)
    // leave the committed documents alone.
    if args.get("out").is_none() {
        for book in crate::docs::write_all(&root)? {
            println!("wrote {}", book.display());
        }
    }
    Ok(())
}

/// Registers every instrumented subsystem's metric groups, so describe
/// mode, snapshots and `docs/METRICS.md` list them even before any
/// activity. The reference ([`metrics_reference`]) works with `obs` off
/// too: it lists metadata only.
pub fn register_all_metrics() {
    cppc_cache_sim::obs::register_metrics();
    cppc_workloads::obs::register_metrics();
    cppc_core::obs::register_metrics();
    cppc_timing::obs::register_metrics();
    cppc_campaign::obs::register_metrics();
    cppc_campaign::snapshot::register_metrics();
    cppc_repro::obs::register_metrics();
    cppc_serve::obs::register_metrics();
    cppc_bench::obs::register_metrics();
    cppc_explore::obs::register_metrics();
}

/// The metrics reference: `stats --describe` and `docs/METRICS.md`.
pub fn metrics_reference() -> String {
    register_all_metrics();
    cppc_obs::reference_markdown()
}

/// `stats`
pub fn stats(args: &ParsedArgs) -> CliResult {
    if args.get_parsed("describe", false)? {
        print!("{}", metrics_reference());
        return Ok(());
    }
    register_all_metrics();

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
