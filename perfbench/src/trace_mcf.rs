//! `trace-mcf`: a recorded mcf `.cppct` trace streamed from disk
//! through `cppc_workloads::binfmt::drive` into the Table 1 hierarchy
//! (as `cppc-cli simulate` builds it), then the CPI breakdown for 1D
//! parity, CPPC and 2D parity.
//!
//! mcf's 64 MB footprint far exceeds the modelled caches, so decode,
//! fill, writeback and the simulator's backing memory dominate; no
//! fault, ECC or daemon code runs.

use std::path::Path;
use std::time::{Duration, Instant};

use cppc_bench::experiments::trace_digest;
use cppc_cache_sim::replacement::ReplacementPolicy;
use cppc_cache_sim::{CacheStats, TwoLevelHierarchy};
use cppc_timing::{L1Scheme, MachineConfig, TimingModel};
use cppc_workloads::binfmt::{self, DEFAULT_BATCH_OPS};
use cppc_workloads::{
    read_bin_trace, spec2000_profiles, BenchmarkProfile, BinTraceReader, BinTraceWriter, OpBatch,
    TraceGenerator,
};

use crate::obsdelta::ObsSnap;
use crate::report::{median, peak_rss_mb, percentile, Metric, RunOutput};
use crate::spans::{self, Local, Tracer, WINDOW};
use crate::{Opts, Scale};

/// The work shape of one run.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Operations in the recorded trace (one drive replays all).
    pub ops: usize,
}

impl Shape {
    /// The shape at `scale`.
    #[must_use]
    pub fn at(scale: Scale) -> Self {
        match scale {
            Scale::Full => Shape { ops: 1 << 19 },
            Scale::Tiny => Shape { ops: 1 << 14 },
        }
    }
}

/// Trace recordings timed for `setup_s` before the measured loop, and
/// again after it.
const SETUP_RECORDINGS: usize = 3;

/// The schemes whose CPI the workload reports, as `cppc-cli simulate`
/// prints them.
const SCHEMES: [L1Scheme; 3] = [
    L1Scheme::OneDimParity,
    L1Scheme::Cppc,
    L1Scheme::TwoDimParity,
];

/// The mcf profile.
fn mcf() -> Result<BenchmarkProfile, String> {
    spec2000_profiles()
        .into_iter()
        .find(|p| p.name == "mcf")
        .ok_or_else(|| "no mcf profile".to_string())
}

/// The Table 1 hierarchy, as `cppc-cli simulate` builds it.
///
/// # Errors
///
/// Returns a message if a Table 1 geometry is invalid.
pub fn table1_hierarchy() -> Result<TwoLevelHierarchy, String> {
    let machine = MachineConfig::table1();
    let l1 = machine.l1d.geometry().map_err(|e| format!("L1: {e:?}"))?;
    let l2 = machine.l2.geometry().map_err(|e| format!("L2: {e:?}"))?;
    Ok(TwoLevelHierarchy::new(l1, l2, ReplacementPolicy::Lru))
}

/// Records `ops` operations of `profile` (seeded with `seed`) to a
/// binary trace at `path`, as `cppc-cli trace record --format bin`
/// does.
///
/// # Errors
///
/// Propagates I/O errors as messages.
pub fn record(
    path: &Path,
    profile: &BenchmarkProfile,
    seed: u64,
    ops: usize,
) -> Result<u64, String> {
    let io = |e: std::io::Error| format!("recording {}: {e}", path.display());
    let file = std::io::BufWriter::new(std::fs::File::create(path).map_err(io)?);
    let mut writer = BinTraceWriter::new(file).map_err(io)?;
    for op in TraceGenerator::new(profile, seed).take(ops) {
        writer.push(op).map_err(io)?;
    }
    writer.finish().map_err(io)
}

/// The workload's set-up: recording the trace.
struct Recorder<'a> {
    path: &'a Path,
    profile: &'a BenchmarkProfile,
    seed: u64,
    ops: usize,
}

impl Recorder<'_> {
    /// Records the trace, appending the time taken to `setup`. Every
    /// recording writes the same bytes.
    fn timed(&self, setup: &mut Vec<f64>) -> Result<(), String> {
        let t = Instant::now();
        let written = record(self.path, self.profile, self.seed, self.ops)?;
        setup.push(t.elapsed().as_secs_f64());
        if written == self.ops as u64 {
            Ok(())
        } else {
            Err(format!("recorded {written} of {} ops", self.ops))
        }
    }
}

/// What one drive produced: the op count, the hierarchy digest, the
/// level statistics and the three CPIs (as bit patterns, compared
/// exactly).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Drive {
    ops: u64,
    digest: u64,
    stats: (CacheStats, CacheStats),
    cpi_bits: [u64; 3],
}

fn cpis(profile: &BenchmarkProfile, ops: u64, stats: (CacheStats, CacheStats)) -> [u64; 3] {
    let model = TimingModel::new(MachineConfig::table1());
    SCHEMES.map(|scheme| {
        model
            .breakdown_from_stats(profile, scheme, ops as usize, stats.0, stats.1)
            .cpi()
            .to_bits()
    })
}

/// The reference: the whole trace materialised, then driven through the
/// per-op `run` path.
fn materialised(path: &Path, profile: &BenchmarkProfile) -> Result<Drive, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let ops = read_bin_trace(file).map_err(|e| format!("decoding {}: {e}", path.display()))?;
    let mut h = table1_hierarchy()?;
    h.run(ops.iter().copied());
    let stats = h.stats();
    Ok(Drive {
        ops: ops.len() as u64,
        digest: trace_digest(&h),
        stats,
        cpi_bits: cpis(profile, ops.len() as u64, stats),
    })
}

/// One streaming drive through `binfmt::drive`.
fn stream(path: &Path, profile: &BenchmarkProfile, batch: &mut OpBatch) -> Result<Drive, String> {
    let mut reader =
        BinTraceReader::open(path).map_err(|e| format!("opening {}: {e}", path.display()))?;
    let mut h = table1_hierarchy()?;
    let ops = binfmt::drive(&mut reader, &mut h, batch).map_err(|e| format!("decoding: {e}"))?;
    let stats = h.stats();
    Ok(Drive {
        ops,
        digest: trace_digest(&h),
        stats,
        cpi_bits: cpis(profile, ops, stats),
    })
}

/// The same drive with a span around each layer call: reader open,
/// hierarchy build, every `next_batch` decode and `run_batch` drive,
/// and the CPI breakdowns.
fn stream_traced(
    path: &Path,
    profile: &BenchmarkProfile,
    batch: &mut OpBatch,
    local: &mut Local<'_>,
    parent: u64,
) -> Result<Drive, String> {
    let span = local.open("workloads.open", parent);
    let reader = BinTraceReader::open(path);
    local.close(span);
    let mut reader = reader.map_err(|e| format!("opening {}: {e}", path.display()))?;
    let span = local.open("cache_sim.build", parent);
    let h = table1_hierarchy();
    local.close(span);
    let mut h = h?;
    let mut ops = 0u64;
    loop {
        let span = local.open("workloads.decode", parent);
        let n = reader.next_batch(batch, DEFAULT_BATCH_OPS);
        local.close(span);
        if n.map_err(|e| format!("decoding: {e}"))? == 0 {
            break;
        }
        let span = local.open("cache_sim.drive", parent);
        h.run_batch(batch);
        local.close(span);
        ops += batch.len() as u64;
    }
    let stats = h.stats();
    let span = local.open("timing.breakdown", parent);
    let cpi_bits = cpis(profile, ops, stats);
    local.close(span);
    Ok(Drive {
        ops,
        digest: trace_digest(&h),
        stats,
        cpi_bits,
    })
}

/// Runs the workload.
///
/// # Errors
///
/// Returns a message when the trace cannot be recorded or the reference
/// drive fails.
pub fn run(opts: &Opts) -> Result<RunOutput, String> {
    let shape = Shape::at(opts.scale);
    let profile = mcf()?;
    let path = opts
        .work_dir
        .join(format!("trace-mcf-{}.cppct", std::process::id()));
    let recorder = Recorder {
        path: &path,
        profile: &profile,
        seed: opts.seed,
        ops: shape.ops,
    };
    let record = |setup: &mut Vec<f64>| -> Result<(), String> {
        for _ in 0..SETUP_RECORDINGS {
            recorder.timed(setup)?;
        }
        Ok(())
    };
    let mut setup = Vec::new();
    let mut out = record(&mut setup).and_then(|()| {
        let reference = materialised(&path, &profile)?;
        if reference.ops != shape.ops as u64 {
            return Err(format!(
                "materialised {} of {} ops",
                reference.ops, shape.ops
            ));
        }
        if opts.trace {
            return Ok(traced(opts, &path, &profile, &reference));
        }
        let out = untraced(opts, &path, &profile, &reference);
        // Record again after the loop, so `setup_s` spans the run
        // rather than one moment of it.
        record(&mut setup)?;
        Ok(out)
    });
    let _ = std::fs::remove_file(&path);
    if let Ok(out) = &mut out {
        out.shape = vec![("trace_ops", shape.ops as u64)];
        if !opts.trace {
            out.metrics
                .push(Metric::new("setup_s", "s", median(&setup)));
            out.metrics
                .push(Metric::new("peak_rss_mb", "MB", peak_rss_mb()));
        }
    }
    out
}

fn untraced(opts: &Opts, path: &Path, profile: &BenchmarkProfile, reference: &Drive) -> RunOutput {
    let budget = Duration::from_secs_f64(opts.seconds);
    let mut batch = OpBatch::with_capacity(DEFAULT_BATCH_OPS);
    let start = Instant::now();
    let (mut drives, mut failed, mut ops, mut secs) = (0u64, 0u64, 0u64, 0.0f64);
    let mut drives_ms = Vec::new();
    while drives == 0 || start.elapsed() < budget {
        let t = Instant::now();
        let drive = stream(path, profile, &mut batch);
        let dt = t.elapsed().as_secs_f64();
        drives += 1;
        match drive {
            Ok(d) if d == *reference => {
                secs += dt;
                ops += d.ops;
                drives_ms.push(dt * 1e3);
            }
            _ => failed += 1,
        }
    }
    RunOutput {
        correct: failed == 0,
        attempted: drives,
        failed,
        metrics: vec![
            Metric::new("throughput_per_s", "1/s", ops as f64 / secs.max(1e-12)),
            Metric::new("latency_p50_ms", "ms", percentile(&drives_ms, 50.0)),
            Metric::new("latency_p90_ms", "ms", percentile(&drives_ms, 90.0)),
        ],
        notes: vec![format!(
            "trace-mcf: {drives} streaming drives (latency samples) of {} ops in {secs:.3} s; \
             L1 miss rate {:.1}%, L2 miss rate {:.1}%; digest {:#018x} = materialised run",
            reference.ops,
            reference.stats.0.miss_rate() * 100.0,
            reference.stats.1.miss_rate() * 100.0,
            reference.digest
        )],
        ..RunOutput::default()
    }
}

fn traced(opts: &Opts, path: &Path, profile: &BenchmarkProfile, reference: &Drive) -> RunOutput {
    let budget = Duration::from_secs_f64(opts.seconds);
    let tracer = Tracer::new();
    let mut local = tracer.local();
    let mut batch = OpBatch::with_capacity(DEFAULT_BATCH_OPS);
    let before = ObsSnap::take();
    let start = Instant::now();
    let (mut pairs, mut failed, mut traced_ops) = (0u64, 0u64, 0u64);
    let (mut plain_s, mut traced_s) = (0.0f64, 0.0f64);
    while pairs == 0 || start.elapsed() < budget {
        for side in [pairs % 2, 1 - pairs % 2] {
            let t = Instant::now();
            let drive = if side == 0 {
                let d = stream(path, profile, &mut batch);
                plain_s += t.elapsed().as_secs_f64();
                d
            } else {
                let window = local.open(WINDOW, 0);
                let d = stream_traced(path, profile, &mut batch, &mut local, window.id());
                local.close(window);
                traced_s += t.elapsed().as_secs_f64();
                traced_ops += d.as_ref().map_or(0, |d| d.ops);
                d
            };
            if !matches!(drive, Ok(d) if d == *reference) {
                failed += 1;
            }
        }
        pairs += 1;
    }
    drop(local);
    let after = ObsSnap::take();
    let spans = tracer.into_spans();
    let analysis = spans::analyse(&spans);
    let drive_s = analysis.total_s("cache_sim.drive");
    let mut metrics = vec![
        Metric::new(
            "workloads.decode_s",
            "s",
            analysis.total_s("workloads.decode"),
        ),
        Metric::new("cache_sim.drive_s", "s", drive_s),
        Metric::new(
            "cache_sim.ns_per_op",
            "ns",
            drive_s * 1e9 / traced_ops.max(1) as f64,
        ),
        Metric::new(
            "timing.breakdown_s",
            "s",
            analysis.total_s("timing.breakdown"),
        ),
    ];
    metrics.extend(after.layer_counts(&before));
    metrics.extend(analysis.trace_metrics(traced_s / plain_s.max(1e-12)));
    let span_file = opts.work_dir.join("spans-trace-mcf.tsv");
    let _ = spans::write_tsv(&span_file, &spans);
    RunOutput {
        correct: failed == 0,
        attempted: 2 * pairs,
        failed,
        metrics,
        notes: vec![
            format!(
                "trace-mcf traced: {pairs} pairs of drives; untraced {plain_s:.3} s, \
                 traced {traced_s:.3} s; spans in {}",
                span_file.display()
            ),
            spans::render(&analysis),
        ],
        ..RunOutput::default()
    }
}
