//! The sweep driver: embarrassingly parallel across configurations,
//! deterministic at any thread count, resumable via per-config
//! checkpoints.
//!
//! The driver first runs the shared functional workload once per
//! distinct geometry (sequentially — it is the only stateful step),
//! then hands configurations to a worker pool. Workers claim indices
//! from an atomic counter; because [`crate::eval::evaluate`] is a pure
//! function and results are stitched back by index, the output is
//! byte-identical whether one thread or sixteen ran the sweep.
//!
//! Checkpointing: with a checkpoint directory set, each finished
//! configuration is written to `<dir>/<digest:016x>.json` (atomically,
//! via a temp file + rename) and any config whose checkpoint already
//! exists — with a matching digest — is restored instead of
//! re-evaluated. The digest covers the config label *and* the spec
//! identity (seed, trials, workload), so stale checkpoints from a
//! different sweep are ignored rather than trusted.

use crate::eval::{self, ConfigPoint};
use crate::spec::{SweepConfig, SweepSpec};
use cppc_campaign::json::Json;
use cppc_timing::RunResult;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Driver knobs.
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Worker threads across configurations (0 = all available cores).
    pub threads: usize,
    /// Per-config checkpoint directory (`None` = no checkpointing).
    pub checkpoint_dir: Option<PathBuf>,
}

impl SweepOptions {
    /// The worker threads [`run_sweep`] starts for a sweep of `configs`
    /// configurations: `threads` (0 resolving to every available core),
    /// never more than there are configurations and never fewer than
    /// one.
    #[must_use]
    pub fn workers(&self, configs: usize) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            self.threads
        }
        .min(configs)
        .max(1)
    }
}

/// What a sweep run produced.
#[derive(Debug)]
pub enum SweepOutcome {
    /// Every selected configuration was evaluated (or restored), in
    /// enumeration order.
    Complete(Vec<ConfigPoint>),
    /// The interrupt flag was raised before all configurations
    /// finished; completed ones are checkpointed if a directory was
    /// given.
    Interrupted {
        /// Configurations evaluated or restored before the interrupt.
        completed: usize,
        /// Configurations the sweep selected in total.
        total: usize,
    },
}

fn checkpoint_path(dir: &Path, digest: u64) -> PathBuf {
    dir.join(format!("{digest:016x}.json"))
}

/// Loads a checkpointed point if it exists and matches `cfg`'s digest.
fn load_checkpoint(dir: &Path, cfg: &SweepConfig, digest: u64) -> Option<ConfigPoint> {
    let text = std::fs::read_to_string(checkpoint_path(dir, digest)).ok()?;
    let point = ConfigPoint::from_json(&Json::parse(&text).ok()?)?;
    (point.digest == digest && point.config == *cfg).then_some(point)
}

fn write_checkpoint(dir: &Path, point: &ConfigPoint) -> Result<(), String> {
    let path = checkpoint_path(dir, point.digest);
    let tmp = path.with_extension("tmp");
    let body = point.to_json().to_string_compact();
    std::fs::write(&tmp, body).map_err(|e| format!("write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, &path).map_err(|e| format!("rename {}: {e}", path.display()))
}

/// Evaluates one config, consulting and maintaining checkpoints.
fn point_for(
    spec: &SweepSpec,
    cfg: &SweepConfig,
    base: &RunResult,
    ckpt_dir: Option<&Path>,
) -> Result<ConfigPoint, String> {
    let digest = cfg.digest(spec);
    if let Some(dir) = ckpt_dir {
        if let Some(point) = load_checkpoint(dir, cfg, digest) {
            crate::obs::CHECKPOINT_HITS.inc();
            return Ok(point);
        }
    }
    let point = eval::evaluate(spec, cfg, base)?;
    crate::obs::CONFIGS_EVALUATED.inc();
    if let Some(dir) = ckpt_dir {
        write_checkpoint(dir, &point)?;
        crate::obs::CHECKPOINT_WRITES.inc();
    }
    Ok(point)
}

/// Runs the sweep.
///
/// `interrupt` is polled between configurations; once raised, workers
/// stop claiming new configs (in-flight ones finish and are
/// checkpointed) and the sweep returns [`SweepOutcome::Interrupted`].
/// A later run with the same spec and checkpoint directory restores
/// the finished configs and produces bytes identical to an
/// uninterrupted sweep.
///
/// # Errors
///
/// Returns a message for an invalid spec, an empty selection after
/// filtering, an unknown benchmark profile, or a checkpoint I/O
/// failure.
pub fn run_sweep(
    spec: &SweepSpec,
    opts: &SweepOptions,
    interrupt: Option<&AtomicBool>,
) -> Result<SweepOutcome, String> {
    spec.validate()?;
    let _span = crate::obs::SWEEP_LATENCY.start();
    crate::obs::SWEEPS.inc();
    let configs = spec.enumerate();
    if configs.is_empty() {
        return Err("sweep selects no configurations (filters too strict?)".to_string());
    }
    if let Some(dir) = &opts.checkpoint_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }

    // One functional run per distinct geometry, shared by every scheme
    // at that geometry.
    let mut baselines: BTreeMap<(u32, u32, u32), RunResult> = BTreeMap::new();
    for c in &configs {
        let key = (c.cache_kib, c.associativity, c.block_bytes);
        if let std::collections::btree_map::Entry::Vacant(slot) = baselines.entry(key) {
            slot.insert(eval::baseline(spec, key.0, key.1, key.2)?);
        }
    }

    let threads = opts.workers(configs.len());

    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let slots: Mutex<Vec<Option<ConfigPoint>>> = Mutex::new(vec![None; configs.len()]);
    let first_error: Mutex<Option<String>> = Mutex::new(None);
    let ckpt_dir = opts.checkpoint_dir.as_deref();

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let interrupted = interrupt.is_some_and(|f| f.load(Ordering::Acquire));
                if interrupted || stop.load(Ordering::Acquire) {
                    return;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(cfg) = configs.get(i) else { return };
                let key = (cfg.cache_kib, cfg.associativity, cfg.block_bytes);
                let base = &baselines[&key];
                match point_for(spec, cfg, base, ckpt_dir) {
                    Ok(point) => {
                        slots.lock().expect("sweep mutex")[i] = Some(point);
                    }
                    Err(e) => {
                        let mut err = first_error.lock().expect("sweep mutex");
                        err.get_or_insert(e);
                        stop.store(true, Ordering::Release);
                        return;
                    }
                }
            });
        }
    });

    if let Some(e) = first_error.into_inner().expect("sweep mutex") {
        return Err(e);
    }
    let slots = slots.into_inner().expect("sweep mutex");
    let total = slots.len();
    let completed = slots.iter().filter(|s| s.is_some()).count();
    if completed < total {
        return Ok(SweepOutcome::Interrupted { completed, total });
    }
    Ok(SweepOutcome::Complete(
        slots
            .into_iter()
            .map(|s| s.expect("counted above"))
            .collect(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cppc_core::SchemeKind;

    fn tiny_spec() -> SweepSpec {
        SweepSpec {
            tier: "custom".to_string(),
            schemes: vec![SchemeKind::Cppc, SchemeKind::Parity1d],
            cache_kib: vec![8],
            associativity: vec![2],
            block_bytes: vec![32],
            interleave_k: vec![8],
            scrub_intervals: vec![None],
            trials: 4,
            campaign_seed: 0xBEEF,
            workload_ops: 2_000,
            benchmark: "gcc".to_string(),
            include: Vec::new(),
            exclude: Vec::new(),
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cppc-explore-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn points(outcome: SweepOutcome) -> Vec<ConfigPoint> {
        match outcome {
            SweepOutcome::Complete(p) => p,
            SweepOutcome::Interrupted { completed, total } => {
                panic!("interrupted {completed}/{total}")
            }
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let spec = tiny_spec();
        let one = points(
            run_sweep(
                &spec,
                &SweepOptions {
                    threads: 1,
                    checkpoint_dir: None,
                },
                None,
            )
            .unwrap(),
        );
        let four = points(
            run_sweep(
                &spec,
                &SweepOptions {
                    threads: 4,
                    checkpoint_dir: None,
                },
                None,
            )
            .unwrap(),
        );
        assert_eq!(one, four);
    }

    #[test]
    fn pre_raised_interrupt_stops_before_any_work() {
        let spec = tiny_spec();
        let flag = AtomicBool::new(true);
        match run_sweep(&spec, &SweepOptions::default(), Some(&flag)).unwrap() {
            SweepOutcome::Interrupted { completed, total } => {
                assert_eq!(completed, 0);
                assert_eq!(total, 2);
            }
            SweepOutcome::Complete(_) => panic!("expected interrupt"),
        }
    }

    #[test]
    fn checkpoints_restore_to_identical_points() {
        let spec = tiny_spec();
        let dir = tmp_dir("ckpt");
        let opts = SweepOptions {
            threads: 1,
            checkpoint_dir: Some(dir.clone()),
        };
        let first = points(run_sweep(&spec, &opts, None).unwrap());
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), first.len());
        // Second run restores every point from disk.
        let second = points(run_sweep(&spec, &opts, None).unwrap());
        assert_eq!(first, second);
        // And matches a checkpoint-free run bit for bit.
        let fresh = points(run_sweep(&spec, &SweepOptions::default(), None).unwrap());
        assert_eq!(first, fresh);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_checkpoints_from_another_spec_are_ignored() {
        let spec = tiny_spec();
        let dir = tmp_dir("stale");
        let opts = SweepOptions {
            threads: 1,
            checkpoint_dir: Some(dir.clone()),
        };
        let first = points(run_sweep(&spec, &opts, None).unwrap());
        // A re-seeded spec must not trust the old files (different
        // digests => different checkpoint keys).
        let mut reseeded = spec.clone();
        reseeded.campaign_seed ^= 0xFF;
        let second = points(run_sweep(&reseeded, &opts, None).unwrap());
        assert_eq!(first.len(), second.len());
        assert_ne!(first[0].digest, second[0].digest);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_selection_is_an_error() {
        let mut spec = tiny_spec();
        spec.include = vec!["no-such-label".to_string()];
        let err = run_sweep(&spec, &SweepOptions::default(), None).unwrap_err();
        assert!(err.contains("no configurations"), "{err}");
    }
}
