//! Result lines, order statistics and the host fingerprint.

use std::fmt::Write as _;

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Unit string (`1/s`, `ms`, `s`, `MB`, `count`, ...).
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}

impl Metric {
    /// Shorthand constructor.
    #[must_use]
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Metric { name, unit, value }
    }
}

/// What one run reports: the output checks, the operation counts and
/// the metrics, plus the work shape the tests compare across seeds.
#[derive(Debug, Clone, Default)]
pub struct RunOutput {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted (trials, trace drives or jobs).
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Seed-independent facts about the work (trial counts, job mix,
    /// trace length), for the same-shape test.
    pub shape: Vec<(&'static str, u64)>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl RunOutput {
    /// The metric called `name`, if reported.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The final JSON line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`. A non-finite value cannot be printed as JSON; it
    /// is reported as 0 and the run marked incorrect.
    #[must_use]
    pub fn json_line(&self) -> String {
        let mut correct = self.correct;
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() {
                m.value
            } else {
                correct = false;
                0.0
            };
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                fmt_value(value),
                m.unit
            );
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted, self.failed
        )
    }
}

/// Formats a finite value with every digit `f64` carries (Rust's
/// shortest round-trip form), as a JSON number.
fn fmt_value(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

/// Median of `values` (mean of the middle pair for even counts); 0 for
/// an empty slice.
#[must_use]
pub(crate) fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `values`; 0 for an
/// empty slice.
#[must_use]
pub(crate) fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Arithmetic mean; 0 for an empty slice.
#[must_use]
pub(crate) fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The process's peak resident set (`VmHWM`) in MiB, 0 when the kernel
/// does not report it.
#[must_use]
pub(crate) fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Number of CPUs the process may run on.
#[must_use]
pub(crate) fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// The host fingerprint every result is tied to: CPU count, the parity
/// kernel the campaign executor dispatched to (`kernel.dispatch.*`),
/// the compiler, and whether the `obs` instrumentation is compiled in
/// (it is when constructing an executor moves a dispatch counter).
#[must_use]
pub fn fingerprint() -> String {
    let before = crate::obsdelta::ObsSnap::take();
    // Constructing the executor runs the one-time probe and bumps the
    // `kernel.dispatch.*` counter of the kernel it selected.
    let _exec = cppc_bench::mbe::MbeBatchExec::solid(64);
    let after = crate::obsdelta::ObsSnap::take();
    let counted = ["avx2", "sse2", "swar"]
        .into_iter()
        .find(|k| after.counter_since(&before, &format!("kernel.dispatch.{k}")) > 0);
    format!(
        "host: nproc={} kernel.dispatch={} rustc=\"{}\" obs={}",
        nproc(),
        counted.unwrap_or_else(|| cppc_ecc::kernels::active().name()),
        env!("PERFBENCH_RUSTC"),
        if counted.is_some() { "on" } else { "off" }
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let out = RunOutput {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![
                Metric::new("setup_s", "s", 2.0),
                Metric::new("x", "ms", 0.125),
            ],
            ..RunOutput::default()
        };
        assert_eq!(
            out.json_line(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 2.0, \"unit\": \"s\"}, \
             \"x\": {\"value\": 0.125, \"unit\": \"ms\"}}}"
        );
        let bad = RunOutput {
            correct: true,
            attempted: 1,
            metrics: vec![Metric::new("y", "s", f64::NAN)],
            ..RunOutput::default()
        };
        assert!(bad.json_line().starts_with("{\"correct\": false"));
    }
}
