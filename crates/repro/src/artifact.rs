//! The artifact vocabulary: what a paper artifact *is* to the harness.
//!
//! An [`Artifact`] is one regenerable deliverable of the paper — a
//! table, a figure or a claims matrix — declared with its configuration
//! (echoed verbatim into the emitted JSON so a result is never divorced
//! from the inputs that produced it), its runtime [`Tier`] and a `run`
//! function producing [`ArtifactOutput`]: a flat list of gated
//! [`MetricValue`]s plus the human-facing [`Table`]s that mirror the
//! paper's presentation.

use std::fmt;

/// How long an artifact takes to regenerate, which decides where it
/// runs: `Fast` artifacts are executed by the CI smoke gate on every
/// change; `Full` artifacts run on demand (`cppc-cli repro --all`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Seconds — cheap enough for `ci.sh`'s `repro --check` smoke step.
    Fast,
    /// Tens of seconds and up — campaign-scale; run via `--all`.
    Full,
}

impl Tier {
    /// The tier's lowercase name, as stored in artifact JSON.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Tier::Fast => "fast",
            Tier::Full => "full",
        }
    }
}

impl fmt::Display for Tier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The tolerance band a metric may move inside without tripping the
/// golden gate.
///
/// Every artifact run is deterministic, so a band is not measurement
/// noise headroom — it is the *contract* of how far a future code
/// change may legitimately shift the metric (floating-point
/// re-association, trial-count retuning) before a human must look and
/// either fix the regression or consciously re-bless the golden with
/// `--update-goldens`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tolerance {
    /// Relative band: `|value - golden| <= frac * |golden|`.
    Rel(f64),
    /// Absolute band: `|value - golden| <= delta`, in the metric's unit.
    Abs(f64),
    /// Bit-exact: any change at all trips the gate. Used for safety
    /// properties (SDC counts must be zero) and closed-form results.
    Exact,
}

impl Tolerance {
    /// Whether `value` is within this band of `golden`.
    #[must_use]
    pub fn accepts(&self, golden: f64, value: f64) -> bool {
        match self {
            Tolerance::Rel(frac) => (value - golden).abs() <= frac * golden.abs(),
            Tolerance::Abs(delta) => (value - golden).abs() <= *delta,
            Tolerance::Exact => value.to_bits() == golden.to_bits(),
        }
    }

    /// Human-readable band, e.g. `±5%`, `±0.20 pct`, `exact`.
    #[must_use]
    pub fn describe(&self, unit: &str) -> String {
        match self {
            Tolerance::Rel(frac) => format!("±{}%", trim_float(frac * 100.0)),
            Tolerance::Abs(delta) => format!("±{} {unit}", trim_float(*delta)),
            Tolerance::Exact => "exact".to_string(),
        }
    }
}

/// Formats a float without trailing zeros (`5`, `0.2`, `1.5`).
fn trim_float(v: f64) -> String {
    let s = format!("{v:.4}");
    let s = s.trim_end_matches('0').trim_end_matches('.');
    s.to_string()
}

/// One gated measurement produced by an artifact run.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricValue {
    /// Dotted metric name, unique within the artifact
    /// (e.g. `mttf.cppc.l1_years`).
    pub name: String,
    /// Unit of the value (`years`, `pct`, `ratio`, `trials`).
    pub unit: &'static str,
    /// One-line description rendered into the book.
    pub doc: String,
    /// The measured value of this run.
    pub value: f64,
    /// The paper's published value, when it publishes one.
    pub paper: Option<f64>,
    /// The gate band around the golden value.
    pub tolerance: Tolerance,
}

impl MetricValue {
    /// Convenience constructor.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        unit: &'static str,
        doc: impl Into<String>,
        value: f64,
        paper: Option<f64>,
        tolerance: Tolerance,
    ) -> Self {
        MetricValue {
            name: name.into(),
            unit,
            doc: doc.into(),
            value,
            paper,
            tolerance,
        }
    }
}

/// A rendered table mirroring one of the paper's figures or tables.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Table caption.
    pub title: String,
    /// Column headers; the first column is the row label.
    pub columns: Vec<String>,
    /// Data rows, already formatted as strings.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    #[must_use]
    pub fn new(title: impl Into<String>, columns: &[&str], rows: Vec<Vec<String>>) -> Self {
        Table {
            title: title.into(),
            columns: columns.iter().map(|c| (*c).to_string()).collect(),
            rows,
        }
    }
}

/// Everything one artifact run produces.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ArtifactOutput {
    /// Gated metrics, in declaration order.
    pub metrics: Vec<MetricValue>,
    /// Presentation tables, in declaration order.
    pub tables: Vec<Table>,
}

/// Run-time knobs shared by all artifacts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunConfig {
    /// Worker threads for campaign-backed artifacts (0 = all CPUs).
    /// Results are bit-identical at every thread count — the campaign
    /// engine guarantees it — so this only affects wall time.
    pub threads: usize,
    /// Scale trials/ops down ~5x for the golden-gate *tests*. Quick
    /// runs measure different (but equally deterministic) values, so
    /// quick goldens and committed goldens never mix: the committed
    /// `docs/results/*.json` are always full-size runs.
    pub quick: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            threads: 1,
            quick: false,
        }
    }
}

impl RunConfig {
    /// `full` normally, `quick` under `quick` mode.
    #[must_use]
    pub fn pick<T>(&self, full: T, quick: T) -> T {
        if self.quick {
            quick
        } else {
            full
        }
    }
}

/// One registered paper artifact.
pub struct Artifact {
    /// Stable registry name (`table3_mttf`); doubles as the JSON file
    /// stem under `docs/results/`.
    pub name: &'static str,
    /// Human title rendered as the book section heading.
    pub title: &'static str,
    /// Where in the paper the artifact lives (`Table 3, §6.3`).
    pub paper_ref: &'static str,
    /// Runtime tier.
    pub tier: Tier,
    /// One-paragraph summary for the book: what is reproduced and what
    /// the expected shape is.
    pub summary: &'static str,
    /// The exact configuration of the run, echoed into the JSON
    /// (`key`, `value`) — the contract that makes the result
    /// regenerable.
    pub config: fn(&RunConfig) -> Vec<(&'static str, String)>,
    /// Executes the artifact and returns its metrics and tables.
    pub run: fn(&RunConfig) -> ArtifactOutput,
}

impl fmt::Debug for Artifact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Artifact")
            .field("name", &self.name)
            .field("tier", &self.tier)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tolerance_bands() {
        assert!(Tolerance::Rel(0.05).accepts(100.0, 104.9));
        assert!(!Tolerance::Rel(0.05).accepts(100.0, 105.1));
        assert!(Tolerance::Abs(0.5).accepts(1.0, 1.5));
        assert!(!Tolerance::Abs(0.5).accepts(1.0, 1.6));
        assert!(Tolerance::Exact.accepts(0.0, 0.0));
        assert!(!Tolerance::Exact.accepts(0.0, f64::EPSILON));
        // Negative goldens measure the band against the magnitude.
        assert!(Tolerance::Rel(0.1).accepts(-10.0, -10.9));
    }

    #[test]
    fn tolerance_descriptions() {
        assert_eq!(Tolerance::Rel(0.05).describe("years"), "±5%");
        assert_eq!(Tolerance::Abs(0.2).describe("pct"), "±0.2 pct");
        assert_eq!(Tolerance::Exact.describe("trials"), "exact");
    }

    #[test]
    fn run_config_pick() {
        let full = RunConfig::default();
        let quick = RunConfig {
            quick: true,
            ..full
        };
        assert_eq!(full.pick(10, 2), 10);
        assert_eq!(quick.pick(10, 2), 2);
    }
}
