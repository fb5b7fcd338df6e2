//! `cppc-perfbench` — the repository's end-to-end and per-layer
//! benchmark.
//!
//! Three long-running workloads, each loading a different layer of the
//! reproduction through the crates' public functions:
//!
//! * `mbe_solid` — the paper's 4x4 solid-strike coverage campaign on
//!   the cross-trial batch engine (fault sampling, gather, the SIMD
//!   syndrome kernel, classification, the campaign engine);
//! * `trace_mcf` — a recorded mcf binary trace streamed from disk
//!   into the Table 1 hierarchy, then the CPI breakdown of three
//!   schemes (trace decode, fill, writeback, backing memory);
//! * [`serve_mix`] — an in-process job daemon fed by two closed-loop
//!   clients with a fixed job mix (admission, queue, journal,
//!   checkpoint persistence, watch notification, recovery walks).
//!
//! An untraced run (`--trace 0`) reports the end-to-end metrics; a
//! traced run (`--trace 1`) times the same public calls from this
//! crate's own spans (`spans`) and reports the per-layer metrics.

mod mbe_solid;
mod obsdelta;
pub mod report;
pub mod serve_mix;
mod spans;
mod trace_mcf;

use std::path::PathBuf;

pub use report::{Metric, RunOutput};

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["mbe-solid", "trace-mcf", "serve-mix"];

/// How much work one run does: [`Scale::Full`] for measurements,
/// [`Scale::Tiny`] for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured shape.
    Full,
    /// The same work shape at a fraction of the size.
    Tiny,
}

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload seed: changes campaign seeds and trace contents, never
    /// the shape of the work.
    pub seed: u64,
    /// Measurement time budget.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Scratch directory for traces, daemon data and span files.
    pub work_dir: PathBuf,
    /// Work size.
    pub scale: Scale,
}

/// Runs `workload` once.
///
/// # Errors
///
/// Returns a message when the workload is unknown or its environment
/// cannot be set up (files, sockets); output mismatches are not errors
/// but `correct: false` results.
pub fn run(workload: &str, opts: &Opts) -> Result<RunOutput, String> {
    std::fs::create_dir_all(&opts.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.work_dir.display()))?;
    match workload {
        "mbe-solid" => mbe_solid::run(opts),
        "trace-mcf" => trace_mcf::run(opts),
        "serve-mix" => serve_mix::run(opts),
        other => Err(format!(
            "unknown workload '{other}' (use {})",
            WORKLOADS.join("|")
        )),
    }
}

/// The end-to-end metrics every untraced run reports, with units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run reports, with units. Each
/// workload measures the layers it enters; the others read 0.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("campaign.engine_s", "s"),
    ("campaign.shards", "count"),
    ("fault.sample_s", "s"),
    ("core.gather_s", "s"),
    ("core.classify_s", "s"),
    ("core.fallback_s", "s"),
    ("batch.lanes", "count"),
    ("batch.fast_path_ratio", "ratio"),
    ("ecc.syndrome_s", "s"),
    ("ecc.syndrome_words", "count"),
    ("ecc.syndrome_gbps", "GB/s"),
    ("workloads.decode_s", "s"),
    ("workloads.bytes_read", "bytes"),
    ("workloads.ops_decoded", "count"),
    ("cache_sim.drive_s", "s"),
    ("cache_sim.ns_per_op", "ns"),
    ("cache.l1.misses", "count"),
    ("cache.l1.writebacks", "count"),
    ("cache.l2.misses", "count"),
    ("cache.l2.writebacks", "count"),
    ("cache.fills", "count"),
    ("timing.breakdown_s", "s"),
    ("serve.submit_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.run_ms", "ms"),
    ("serve.job_run_ms", "ms"),
    ("serve.notify_lag_ms", "ms"),
    ("serve.requests", "count"),
    ("campaign.checkpoint_writes", "count"),
    ("campaign.checkpoint_write_s", "s"),
    ("campaign.checkpoint_share_pct", "%"),
    ("core.recovery_walks", "count"),
    ("core.recovery_walk_s", "s"),
    ("core.via_locator", "count"),
    ("core.dues", "count"),
    ("trace_overhead_pct", "%"),
    ("trace.coverage_pct", "%"),
    ("trace.spans", "count"),
];

/// Puts a run's metrics in the published order: the end-to-end list
/// for an untraced run, the per-layer list for a traced one. A
/// per-layer metric the workload did not measure (a layer it never
/// enters) reads 0; a missing end-to-end metric, or a unit that
/// disagrees with the list, marks the run incorrect.
#[must_use]
pub fn publish(mut out: RunOutput, trace: bool) -> RunOutput {
    let list: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut ordered = Vec::with_capacity(list.len());
    for &(name, unit) in list {
        match out.metrics.iter().position(|m| m.name == name) {
            Some(i) => {
                let m = out.metrics.swap_remove(i);
                if m.unit != unit {
                    out.correct = false;
                    out.notes
                        .push(format!("metric {name} has unit {} (want {unit})", m.unit));
                }
                ordered.push(Metric {
                    name,
                    unit,
                    value: m.value,
                });
            }
            None => {
                if !trace {
                    out.correct = false;
                    out.notes.push(format!("metric {name} was not measured"));
                }
                ordered.push(Metric::new(name, unit, 0.0));
            }
        }
    }
    for extra in &out.metrics {
        out.notes.push(format!(
            "unpublished metric {} = {}",
            extra.name, extra.value
        ));
    }
    out.metrics = ordered;
    out
}
