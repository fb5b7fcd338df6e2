//! `explore_frontier` — the design-space explorer's quick-tier sweep
//! as a gated artifact.
//!
//! Runs the exact sweep `cppc-cli explore --quick` runs (the 28-config
//! CI tier of `cppc-explore`) and gates the shape of its Pareto
//! frontier: the frontier exists, it is not a CPPC monoculture (1D
//! parity's unit-cost corner is non-dominated by construction), most
//! of the grid is dominated, and the frontier's best MTTF / cheapest
//! energy corners stay put. The full per-point document behind
//! `docs/EXPLORER.md` is written by the CLI verb; this artifact is the
//! repro-book cross-check that the sweep's *conclusions* are stable.

use cppc_core::SchemeKind;
use cppc_explore::doc::sweep_doc;
use cppc_explore::pareto;
use cppc_explore::{run_sweep, ConfigPoint, SweepOptions, SweepOutcome, SweepSpec};

use crate::artifact::{Artifact, ArtifactOutput, MetricValue, RunConfig, Table, Tier, Tolerance};

/// Quick-test workload window (the full artifact run uses the quick
/// tier's own 40k-op window).
const OPS_QUICK: usize = 10_000;
const TRIALS_QUICK: u64 = 16;

/// The `explore_frontier` artifact.
pub fn artifact() -> Artifact {
    Artifact {
        name: "explore_frontier",
        title: "Design-space explorer — quick-tier Pareto frontier",
        paper_ref: "ROADMAP item 4 (beyond-paper; §6 models combined)",
        tier: Tier::Fast,
        summary: "The quick-tier design-space sweep of cppc-explore: every scheme-zoo \
                  member across two cache sizes, two CPPC interleave factors and two scrub \
                  settings, scored on (MTTF, energy vs 1D parity, CPI inflation, area \
                  overhead) and rank-peeled into a Pareto frontier. Gates pin the sweep \
                  size, the frontier's size and scheme mix (at least one non-CPPC config \
                  is always non-dominated — 1D parity holds the unit-cost corner), and \
                  the frontier's extreme corners.",
        config: |cfg| {
            let spec = SweepSpec::quick_tier();
            vec![
                ("tier", spec.tier.clone()),
                (
                    "grid",
                    format!(
                        "{} schemes x {:?} KiB x {:?}-way x {:?} B x k{:?} x scrub {:?}",
                        spec.schemes.len(),
                        spec.cache_kib,
                        spec.associativity,
                        spec.block_bytes,
                        spec.interleave_k,
                        spec.scrub_intervals,
                    ),
                ),
                ("campaign_seed", format!("{:#x}", spec.campaign_seed)),
                (
                    "trials_per_config",
                    cfg.pick(spec.trials, TRIALS_QUICK).to_string(),
                ),
                (
                    "workload",
                    format!(
                        "{} x {} ops",
                        spec.benchmark,
                        cfg.pick(spec.workload_ops, OPS_QUICK)
                    ),
                ),
                (
                    "objectives",
                    "mttf_years up; energy_ratio, cpi_inflation_pct, area_overhead_pct down".into(),
                ),
            ]
        },
        run,
    }
}

fn sdc_pct(p: &ConfigPoint) -> f64 {
    let total = p.tally.total();
    if total == 0 {
        return 0.0;
    }
    #[allow(clippy::cast_precision_loss)]
    let pct = p.tally.sdc as f64 / total as f64 * 100.0;
    pct
}

#[allow(clippy::cast_precision_loss)]
fn run(cfg: &RunConfig) -> ArtifactOutput {
    let mut spec = SweepSpec::quick_tier();
    spec.trials = cfg.pick(spec.trials, TRIALS_QUICK);
    spec.workload_ops = cfg.pick(spec.workload_ops, OPS_QUICK);
    let opts = SweepOptions {
        threads: cfg.threads,
        checkpoint_dir: None,
    };
    let points = match run_sweep(&spec, &opts, None).expect("quick tier sweeps cleanly") {
        SweepOutcome::Complete(points) => points,
        SweepOutcome::Interrupted { .. } => unreachable!("no interrupt flag installed"),
    };
    // Assemble the document once so the frontier accounting here is
    // the same code path the committed explore_quick.json runs.
    let _doc = sweep_doc(&spec, &points);
    let objectives: Vec<Vec<f64>> = points.iter().map(ConfigPoint::objectives).collect();
    let ranks = pareto::ranks(&objectives, &pareto::MAXIMIZE);

    let frontier: Vec<&ConfigPoint> = points
        .iter()
        .zip(&ranks)
        .filter(|(_, &r)| r == 0)
        .map(|(p, _)| p)
        .collect();
    let frontier_non_cppc = frontier
        .iter()
        .filter(|p| p.config.scheme != SchemeKind::Cppc)
        .count();
    let dominated = points.len() - frontier.len();
    let best_mttf = points.iter().map(|p| p.mttf_years).fold(0.0, f64::max);
    let min_energy = points
        .iter()
        .map(|p| p.energy_ratio)
        .fold(f64::INFINITY, f64::min);

    let metrics = vec![
        MetricValue::new(
            "explore.configs",
            "configs",
            "Configurations the quick tier enumerates (6 schemes, the k axis multiplying \
             CPPC only).",
            points.len() as f64,
            Some(28.0),
            Tolerance::Exact,
        ),
        MetricValue::new(
            "explore.frontier_size",
            "configs",
            "Rank-0 (non-dominated) configurations of the quick tier.",
            frontier.len() as f64,
            None,
            Tolerance::Exact,
        ),
        MetricValue::new(
            "explore.frontier_non_cppc",
            "configs",
            "Frontier configurations from non-CPPC schemes. Never zero: same-geometry 1D \
             parity is the energy/CPI/area unit corner, which nothing can dominate.",
            frontier_non_cppc as f64,
            None,
            Tolerance::Exact,
        ),
        MetricValue::new(
            "explore.dominated_pct",
            "pct",
            "Share of the grid strictly inside the frontier — the explorer's reason to \
             exist: most hand-pickable configs are dominated by a frontier point.",
            dominated as f64 / points.len() as f64 * 100.0,
            None,
            Tolerance::Abs(2.0),
        ),
        MetricValue::new(
            "explore.best_mttf_years",
            "years",
            "Best MTTF anywhere in the grid (a scrubbed 8-way CPPC corner).",
            best_mttf,
            None,
            Tolerance::Rel(0.05),
        ),
        MetricValue::new(
            "explore.min_energy_ratio",
            "ratio",
            "Cheapest energy ratio in the grid; exactly 1.0 because 1D parity at its own \
             geometry without scrubbing is the normalisation baseline.",
            min_energy,
            Some(1.0),
            Tolerance::Exact,
        ),
    ];

    let frontier_rows = frontier
        .iter()
        .map(|p| {
            vec![
                format!("`{}`", p.config.label()),
                format!("{:.3e}", p.mttf_years),
                format!("{:.4}", p.energy_ratio),
                format!("{:+.3}", p.cpi_inflation_pct),
                format!("{:.2}", p.area_overhead_pct),
                format!("{:.1}", sdc_pct(p)),
            ]
        })
        .collect();
    let rank_histogram = {
        let max_rank = ranks.iter().copied().max().unwrap_or(0);
        (0..=max_rank)
            .map(|r| {
                vec![
                    r.to_string(),
                    ranks.iter().filter(|&&x| x == r).count().to_string(),
                ]
            })
            .collect()
    };

    ArtifactOutput {
        metrics,
        tables: vec![
            Table::new(
                format!(
                    "Quick-tier Pareto frontier ({} of {} configs non-dominated)",
                    frontier.len(),
                    points.len()
                ),
                &[
                    "config",
                    "MTTF (years)",
                    "energy vs 1D parity",
                    "CPI +%",
                    "area %",
                    "SDC %",
                ],
                frontier_rows,
            ),
            Table::new(
                "Dominance-rank histogram",
                &["rank", "configs"],
                rank_histogram,
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_gates_hold() {
        let cfg = RunConfig {
            threads: 2,
            quick: true,
        };
        let out = run(&cfg);
        let metric = |name: &str| {
            out.metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("missing metric {name}"))
                .value
        };
        assert_eq!(metric("explore.configs"), 28.0);
        assert!(metric("explore.frontier_size") >= 1.0);
        // The acceptance property: the frontier is never CPPC-only.
        assert!(metric("explore.frontier_non_cppc") >= 1.0);
        assert_eq!(metric("explore.min_energy_ratio"), 1.0);
        assert!(metric("explore.best_mttf_years") > 1e3);
        assert_eq!(out.tables.len(), 2);
        assert!(!out.tables[0].rows.is_empty());
    }
}
