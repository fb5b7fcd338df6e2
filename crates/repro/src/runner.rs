//! Executing artifacts, gating them against goldens and writing the
//! result documents.
//!
//! The flow mirrors the CLI verbs:
//!
//! * **run** — [`run_artifact`] executes the artifact, then
//!   [`write_artifact`] emits `docs/results/<name>.json`, carrying the
//!   committed golden values forward (or re-blessing them under
//!   `--update-goldens`);
//! * **check** — [`check_artifact`] compares a fresh run against the
//!   committed document and returns every [`GateFailure`]; the CLI
//!   exits non-zero if any survive;
//! * **render** — [`render_book`] rebuilds `docs/RESULTS.md` purely
//!   from the committed documents (no simulation); `cppc-cli docs`
//!   writes it, and `cppc-cli docs --check` is the freshness gate.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use cppc_campaign::json::Json;

use crate::artifact::{Artifact, ArtifactOutput, RunConfig};
use crate::artifacts::registry;
use crate::{book, jsonio, obs};

/// `docs/results` under the repo root.
#[must_use]
pub fn results_dir(root: &Path) -> PathBuf {
    root.join("docs").join("results")
}

/// The artifact's JSON document path under the repo root.
#[must_use]
pub fn json_path(root: &Path, artifact: &str) -> PathBuf {
    results_dir(root).join(format!("{artifact}.json"))
}

/// Loads and parses an artifact document, `None` when absent or
/// unparseable (an unparseable golden fails the gate downstream, as a
/// [`GateFailure::MissingGolden`]).
#[must_use]
pub fn load_doc(path: &Path) -> Option<Json> {
    let text = fs::read_to_string(path).ok()?;
    Json::parse(&text).ok()
}

/// Executes one artifact (with `repro.*` instrumentation).
#[must_use]
pub fn run_artifact(a: &Artifact, cfg: &RunConfig) -> ArtifactOutput {
    obs::register_metrics();
    let _span = obs::ARTIFACT_LATENCY.start();
    let out = (a.run)(cfg);
    obs::ARTIFACTS_RUN.add(1);
    out
}

/// One golden-gate failure.
#[derive(Debug, Clone, PartialEq)]
pub enum GateFailure {
    /// No committed document (or an unreadable one) to gate against.
    MissingGolden {
        /// Artifact name.
        artifact: String,
    },
    /// The committed document lacks a golden for this metric (it was
    /// added since the last `--update-goldens`).
    MissingMetric {
        /// Artifact name.
        artifact: String,
        /// Metric name.
        metric: String,
    },
    /// The fresh value left the metric's tolerance band.
    OutOfTolerance {
        /// Artifact name.
        artifact: String,
        /// Metric name.
        metric: String,
        /// Unit of both values.
        unit: String,
        /// The committed golden value.
        golden: f64,
        /// The freshly measured value.
        value: f64,
        /// Human-readable band (e.g. `±5%`).
        band: String,
    },
}

impl fmt::Display for GateFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GateFailure::MissingGolden { artifact } => write!(
                f,
                "{artifact}: no golden document (run `cppc-cli repro --artifact {artifact} \
                 --update-goldens` to bless one)"
            ),
            GateFailure::MissingMetric { artifact, metric } => write!(
                f,
                "{artifact}: metric '{metric}' has no committed golden (re-bless with \
                 --update-goldens)"
            ),
            GateFailure::OutOfTolerance {
                artifact,
                metric,
                unit,
                golden,
                value,
                band,
            } => write!(
                f,
                "{artifact}: {metric} = {value} {unit}, golden {golden} {unit} (band {band})"
            ),
        }
    }
}

/// Gates a fresh run against the committed document. Every metric is
/// compared with the *in-code* tolerance (the registry is the source of
/// truth; the JSON copy is documentation).
#[must_use]
pub fn check_artifact(a: &Artifact, out: &ArtifactOutput, doc: Option<&Json>) -> Vec<GateFailure> {
    obs::register_metrics();
    let Some(doc) = doc else {
        obs::GOLDEN_VIOLATIONS.add(1);
        return vec![GateFailure::MissingGolden {
            artifact: a.name.into(),
        }];
    };
    let mut failures = Vec::new();
    for m in &out.metrics {
        obs::METRICS_CHECKED.add(1);
        match jsonio::golden_of(doc, &m.name) {
            None => failures.push(GateFailure::MissingMetric {
                artifact: a.name.into(),
                metric: m.name.clone(),
            }),
            Some(golden) => {
                if !m.tolerance.accepts(golden, m.value) {
                    failures.push(GateFailure::OutOfTolerance {
                        artifact: a.name.into(),
                        metric: m.name.clone(),
                        unit: m.unit.into(),
                        golden,
                        value: m.value,
                        band: m.tolerance.describe(m.unit),
                    });
                }
            }
        }
    }
    obs::GOLDEN_VIOLATIONS.add(failures.len() as u64);
    failures
}

/// Writes the artifact document, carrying committed goldens forward
/// (or re-blessing them when `update_goldens`). Returns the document.
///
/// # Errors
///
/// Propagates filesystem errors (unwritable `docs/results/`).
pub fn write_artifact(
    root: &Path,
    a: &Artifact,
    cfg: &RunConfig,
    out: &ArtifactOutput,
    update_goldens: bool,
) -> io::Result<Json> {
    obs::register_metrics();
    let path = json_path(root, a.name);
    let prior = load_doc(&path);
    let doc = jsonio::artifact_json(a, cfg, out, prior.as_ref(), update_goldens);
    if update_goldens {
        obs::GOLDENS_UPDATED.add(out.metrics.len() as u64);
    }
    fs::create_dir_all(results_dir(root))?;
    fs::write(&path, doc.to_string_pretty())?;
    obs::RESULT_WRITES.add(1);
    Ok(doc)
}

/// Renders the book from the committed documents of every registered
/// artifact — a pure function of `docs/results/*.json`.
#[must_use]
pub fn render_book(root: &Path) -> String {
    obs::register_metrics();
    let docs: Vec<(&Artifact, Option<Json>)> = registry()
        .iter()
        .map(|a| (a, load_doc(&json_path(root, a.name))))
        .collect();
    obs::BOOK_RENDERS.add(1);
    book::render(&docs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{MetricValue, Tier, Tolerance};

    fn test_artifact() -> Artifact {
        Artifact {
            name: "unit_test_artifact",
            title: "Unit-test artifact",
            paper_ref: "§0",
            tier: Tier::Fast,
            summary: "Synthetic artifact for runner unit tests.",
            config: |_| vec![("k", "v".into())],
            run: |_| ArtifactOutput {
                metrics: vec![MetricValue::new(
                    "m.x",
                    "ratio",
                    "Test metric.",
                    1.0,
                    None,
                    Tolerance::Rel(0.05),
                )],
                tables: Vec::new(),
            },
        }
    }

    #[test]
    fn check_without_golden_fails() {
        let a = test_artifact();
        let out = (a.run)(&RunConfig::default());
        let failures = check_artifact(&a, &out, None);
        assert!(matches!(failures[0], GateFailure::MissingGolden { .. }));
    }

    #[test]
    fn check_against_matching_golden_passes_and_perturbation_fails() {
        let a = test_artifact();
        let cfg = RunConfig::default();
        let out = (a.run)(&cfg);
        let doc = jsonio::artifact_json(&a, &cfg, &out, None, true);
        assert!(check_artifact(&a, &out, Some(&doc)).is_empty());

        // A golden 10% away trips the 5% band.
        let mut perturbed = out.clone();
        perturbed.metrics[0].value = 1.1;
        let bad_doc = jsonio::artifact_json(&a, &cfg, &perturbed, None, true);
        let failures = check_artifact(&a, &out, Some(&bad_doc));
        assert_eq!(failures.len(), 1);
        assert!(matches!(failures[0], GateFailure::OutOfTolerance { .. }));
        assert!(failures[0].to_string().contains("m.x"));
    }

    #[test]
    fn new_metric_without_golden_is_flagged() {
        let a = test_artifact();
        let cfg = RunConfig::default();
        let mut out = (a.run)(&cfg);
        let doc = jsonio::artifact_json(&a, &cfg, &out, None, true);
        out.metrics.push(MetricValue::new(
            "m.new",
            "ratio",
            "Added later.",
            2.0,
            None,
            Tolerance::Exact,
        ));
        let failures = check_artifact(&a, &out, Some(&doc));
        assert!(matches!(failures[0], GateFailure::MissingMetric { .. }));
    }
}
