//! `fig10_cpi` — Figure 10: CPI of processors with CPPC and
//! two-dimensional-parity L1 caches, normalised to one-dimensional
//! parity.
//!
//! One Table 1 drive per benchmark (`cppc_timing::TimingModel::drive`,
//! shared with `energy_comparison`) feeds all three schemes — they see
//! the identical access stream, exactly as the paper's methodology —
//! and the scheme-specific read-port-contention terms are layered on
//! top. A second table repeats the comparison with the
//! structural, cycle-counting [`PipelineModel`], which tracks store
//! buffers, cycle stealing and port timestamps instead of the
//! closed-form contention terms; its averages are gated too.

use cppc_bench::{mean, EVAL_SEED};
use cppc_timing::{L1Scheme, MachineConfig, PipelineModel, TimingModel};
use cppc_workloads::spec2000_profiles;

use crate::artifact::{Artifact, ArtifactOutput, MetricValue, RunConfig, Table, Tier, Tolerance};

/// Memory operations per benchmark, pinned so the artifact is a closed
/// function of the repo alone.
const OPS: usize = 120_000;
const OPS_QUICK: usize = 20_000;

/// The `fig10_cpi` artifact.
pub fn artifact() -> Artifact {
    Artifact {
        name: "fig10_cpi",
        title: "Figure 10 — normalised CPI of L1 protection schemes",
        paper_ref: "Figure 10, §5.2, §6.1",
        tier: Tier::Fast,
        summary: "CPI of the Table 1 machine with a CPPC or two-dimensional-parity L1, \
                  normalised per benchmark to the one-dimensional-parity cache. The only \
                  mechanism separating the schemes is read-port contention from \
                  read-before-write operations. Expected shape: CPPC within a fraction of a \
                  percent on average (paper: +0.3% avg, ≤1% max) because stores to dirty \
                  words steal idle read-port cycles; 2D parity pays on every store and every \
                  miss line-read (paper: +1.7% avg, 6.9% max).",
        config: |cfg| {
            vec![
                (
                    "machine",
                    "Table 1 (4-wide, 32KB/2-way L1D, 1MB/4-way L2)".into(),
                ),
                ("benchmarks", "15 synthetic SPEC2000 profiles".into()),
                ("ops_per_benchmark", cfg.pick(OPS, OPS_QUICK).to_string()),
                ("trace_seed", format!("{EVAL_SEED:#x}")),
                ("schemes", "1D parity (base), CPPC, 2D parity".into()),
            ]
        },
        run,
    }
}

/// Per-benchmark CPI of CPPC and 2D parity under the structural
/// pipeline model, normalised to its 1D-parity run, plus the average
/// row; also returns the two averages.
fn pipeline_rows(machine: MachineConfig, ops: usize) -> (Vec<Vec<String>>, [f64; 2]) {
    let pipeline = PipelineModel::new(machine);
    let mut rows = Vec::new();
    let (mut cppc, mut twodim) = (Vec::new(), Vec::new());
    for profile in spec2000_profiles() {
        let cpi = |scheme| pipeline.simulate(&profile, scheme, ops, EVAL_SEED).cpi();
        let base = cpi(L1Scheme::OneDimParity);
        let (nc, nt) = (
            cpi(L1Scheme::Cppc) / base,
            cpi(L1Scheme::TwoDimParity) / base,
        );
        cppc.push(nc);
        twodim.push(nt);
        rows.push(vec![
            profile.name.to_string(),
            format!("{nc:.4}"),
            format!("{nt:.4}"),
        ]);
    }
    let averages = [mean(&cppc), mean(&twodim)];
    rows.push(vec![
        "average".into(),
        format!("{:.4}", averages[0]),
        format!("{:.4}", averages[1]),
    ]);
    (rows, averages)
}

fn run(cfg: &RunConfig) -> ArtifactOutput {
    let ops = cfg.pick(OPS, OPS_QUICK);
    let machine = MachineConfig::table1();
    let model = TimingModel::new(machine);

    let mut rows = Vec::new();
    let mut cppc_norm = Vec::new();
    let mut twodim_norm = Vec::new();
    for (profile, run) in super::drives::table1(ops) {
        let cpi = |scheme| {
            model
                .breakdown_from_stats(&profile, scheme, ops, run.l1, run.l2)
                .cpi()
        };
        let base_cpi = cpi(L1Scheme::OneDimParity);
        let nc = cpi(L1Scheme::Cppc) / base_cpi;
        let nt = cpi(L1Scheme::TwoDimParity) / base_cpi;
        cppc_norm.push(nc);
        twodim_norm.push(nt);
        rows.push(vec![
            profile.name.to_string(),
            format!("{base_cpi:.4}"),
            format!("{nc:.4}"),
            format!("{nt:.4}"),
        ]);
    }
    rows.push(vec![
        "average".into(),
        "1.0000".into(),
        format!("{:.4}", mean(&cppc_norm)),
        format!("{:.4}", mean(&twodim_norm)),
    ]);

    let max = |v: &[f64]| v.iter().copied().fold(f64::MIN, f64::max);
    let overhead = |n: f64| (n - 1.0) * 100.0;

    let mut metrics = vec![
        MetricValue::new(
            "cpi.cppc.avg_overhead_pct",
            "pct",
            "Average CPI overhead of the CPPC L1 over 1D parity (paper: +0.3%).",
            overhead(mean(&cppc_norm)),
            Some(0.3),
            Tolerance::Abs(0.1),
        ),
        MetricValue::new(
            "cpi.cppc.max_overhead_pct",
            "pct",
            "Worst-benchmark CPI overhead of the CPPC L1 (paper: at most 1%).",
            overhead(max(&cppc_norm)),
            Some(1.0),
            Tolerance::Abs(0.25),
        ),
        MetricValue::new(
            "cpi.twodim.avg_overhead_pct",
            "pct",
            "Average CPI overhead of the two-dimensional-parity L1 (paper: +1.7%).",
            overhead(mean(&twodim_norm)),
            Some(1.7),
            Tolerance::Abs(0.5),
        ),
        MetricValue::new(
            "cpi.twodim.max_overhead_pct",
            "pct",
            "Worst-benchmark CPI overhead of the two-dimensional-parity L1 (paper: 6.9%).",
            overhead(max(&twodim_norm)),
            Some(6.9),
            Tolerance::Abs(1.5),
        ),
    ];

    // The structural model costs far more per op than the closed form.
    let detailed_ops = (ops / 3).max(10_000);
    let (pipeline, [pipeline_cppc, pipeline_twodim]) = pipeline_rows(machine, detailed_ops);
    for (key, l1, avg, paper, band) in [
        ("cppc", "CPPC", pipeline_cppc, 0.3, 0.1),
        (
            "twodim",
            "two-dimensional-parity",
            pipeline_twodim,
            1.7,
            0.5,
        ),
    ] {
        metrics.push(MetricValue::new(
            format!("pipeline.{key}.avg_overhead_pct"),
            "pct",
            format!(
                "Average CPI overhead of the {l1} L1 over 1D parity under the structural \
                 pipeline model (paper: +{paper}%)."
            ),
            overhead(avg),
            Some(paper),
            Tolerance::Abs(band),
        ));
    }
    ArtifactOutput {
        metrics,
        tables: vec![
            Table::new(
                format!("Per-benchmark CPI, normalised to the 1D-parity L1 ({ops} ops each)"),
                &["bench", "CPI (1D parity)", "CPPC", "2D parity"],
                rows,
            ),
            Table::new(
                format!(
                    "Structural pipeline cross-check: CPI normalised to 1D parity \
                     ({detailed_ops} ops each)"
                ),
                &["bench", "CPPC", "2D parity"],
                pipeline,
            ),
        ],
    }
}
