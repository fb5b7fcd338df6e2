//! `table3_mttf` — Table 3: MTTF against temporal multi-bit errors,
//! plus §4.7's temporal-aliasing model and the Monte Carlo validation
//! of the closed form at accelerated fault rates.

use cppc_reliability::montecarlo::{
    analytic_mttf_hours, simulate_double_fault_mttf_parallel, MonteCarloConfig,
};
use cppc_reliability::mttf::{
    aliasing_vulnerable_bits, mttf_aliasing_years, mttf_cppc_years, mttf_one_dim_parity_years,
    mttf_secded_years,
};
use cppc_reliability::ReliabilityParams;

use crate::artifact::{Artifact, ArtifactOutput, MetricValue, RunConfig, Table, Tier, Tolerance};

/// Master seed of the Monte Carlo validation campaign.
const MC_SEED: u64 = 0x007A_B1E3;
/// Full-size / quick Monte Carlo trial counts.
const MC_TRIALS: u32 = 3000;
const MC_TRIALS_QUICK: u32 = 500;

/// The analytical-model tolerance: the closed form is deterministic, so
/// the band only needs to absorb benign floating-point re-association.
const ANALYTIC_TOL: Tolerance = Tolerance::Rel(0.01);

/// The `table3_mttf` artifact.
pub fn artifact() -> Artifact {
    Artifact {
        name: "table3_mttf",
        title: "Table 3 — MTTF against temporal multi-bit errors",
        paper_ref: "Table 3, §6.3, §4.7",
        tier: Tier::Fast,
        summary: "Mean time to failure of the three protected caches, computed with the \
                  paper's PARMA-style closed form at the paper's inputs (SEU 0.001 FIT/bit, \
                  AVF 0.7, Table 2 dirty fractions and Tavg), plus the §4.7 temporal-aliasing \
                  MTTF of the L2 with one register pair (the `ablations` register-pair table \
                  sweeps the pair count) and a Monte Carlo validation of the double-fault \
                  model at accelerated rates. Expected shape: parity decades, CPPC ~10^21 \
                  years at L1, SECDED ~100x above CPPC, every cell within 2x of the paper; the \
                  Monte Carlo estimate lands within a few percent of the analytic value.",
        config: |cfg| {
            vec![
                ("seu_rate_fit_per_bit", "0.001".into()),
                ("avf", "0.7".into()),
                (
                    "inputs",
                    "paper Table 2 dirty%/Tavg (paper_l1/paper_l2)".into(),
                ),
                ("mc_seed", format!("{MC_SEED:#x}")),
                (
                    "mc_trials",
                    cfg.pick(MC_TRIALS, MC_TRIALS_QUICK).to_string(),
                ),
                ("mc_faults_per_hour", "40".into()),
                ("mc_tavg_hours", "0.0004".into()),
            ]
        },
        run,
    }
}

fn run(cfg: &RunConfig) -> ArtifactOutput {
    let l1 = ReliabilityParams::paper_l1();
    let l2 = ReliabilityParams::paper_l2();

    let cells = [
        ("parity.l1_years", mttf_one_dim_parity_years(&l1), 4490.0),
        ("parity.l2_years", mttf_one_dim_parity_years(&l2), 64.0),
        ("cppc.l1_years", mttf_cppc_years(&l1, 8), 8.02e21),
        ("cppc.l2_years", mttf_cppc_years(&l2, 8), 8.07e15),
        ("secded.l1_years", mttf_secded_years(&l1, 64.0), 6.2e23),
        ("secded.l2_years", mttf_secded_years(&l2, 256.0), 1.1e19),
    ];

    let mut metrics: Vec<MetricValue> = cells
        .iter()
        .map(|&(name, value, paper)| {
            MetricValue::new(
                format!("mttf.{name}"),
                "years",
                format!(
                    "Closed-form MTTF, {} cell of Table 3.",
                    name.replace('.', " ")
                ),
                value,
                Some(paper),
                ANALYTIC_TOL,
            )
        })
        .collect();

    let mttf_table = Table::new(
        "MTTF (years) at the paper's L1 and L2 points",
        &["cache", "L1", "L2"],
        vec![
            vec![
                "one-dim parity".into(),
                format!("{:.0}", cells[0].1),
                format!("{:.1}", cells[1].1),
            ],
            vec![
                "CPPC (8-way parity)".into(),
                format!("{:.2e}", cells[2].1),
                format!("{:.2e}", cells[3].1),
            ],
            vec![
                "SECDED".into(),
                format!("{:.2e}", cells[4].1),
                format!("{:.2e}", cells[5].1),
            ],
            vec!["paper: parity".into(), "4490".into(), "64".into()],
            vec!["paper: CPPC".into(), "8.02e21".into(), "8.07e15".into()],
            vec!["paper: SECDED".into(), "6.2e23".into(), "1.1e19".into()],
        ],
    );

    // §4.7 temporal aliasing at the paper's L2 point; the `ablations`
    // register-pair table carries the sweep over pair counts.
    let alias_one_pair = mttf_aliasing_years(&l2, aliasing_vulnerable_bits(1));
    metrics.push(MetricValue::new(
        "mttf.aliasing.l2_one_pair_years",
        "years",
        "§4.7 temporal-aliasing MTTF of the L2 with one register pair (paper: 4.19e20 y).",
        alias_one_pair,
        Some(4.19e20),
        ANALYTIC_TOL,
    ));

    // Monte Carlo validation of the double-fault closed form at
    // accelerated rates, through the campaign engine (bit-identical at
    // any thread count).
    let trials = cfg.pick(MC_TRIALS, MC_TRIALS_QUICK);
    let mut mc_rows = Vec::new();
    for (label, metric, domains) in [
        ("CPPC (8 domains)", "mc.cppc_deviation_pct", 8usize),
        (
            "SECDED-like (1 domain)",
            "mc.single_domain_deviation_pct",
            1,
        ),
    ] {
        let mc_cfg = MonteCarloConfig {
            faults_per_hour: 40.0,
            domains,
            tavg_hours: 0.0004,
            trials,
        };
        let mc = simulate_double_fault_mttf_parallel(&mc_cfg, MC_SEED, cfg.threads);
        let analytic = analytic_mttf_hours(&mc_cfg);
        let deviation_pct = (mc.mttf_hours / analytic - 1.0) * 100.0;
        metrics.push(MetricValue::new(
            metric,
            "pct",
            format!(
                "Deviation of the simulated accelerated-rate MTTF from the analytic \
                 closed form, {domains}-domain configuration."
            ),
            deviation_pct,
            None,
            Tolerance::Abs(5.0),
        ));
        mc_rows.push(vec![
            label.into(),
            format!("{:.1}", mc.mttf_hours),
            format!("{:.1}", mc.std_error_hours),
            format!("{analytic:.1}"),
            format!("{deviation_pct:+.1}%"),
        ]);
    }

    ArtifactOutput {
        metrics,
        tables: vec![
            mttf_table,
            Table::new(
                format!(
                    "Monte Carlo validation at accelerated rates ({trials} trials, 40 faults/h, \
                     Tavg 0.0004 h)"
                ),
                &[
                    "configuration",
                    "simulated (h)",
                    "± (h)",
                    "analytic (h)",
                    "deviation",
                ],
                mc_rows,
            ),
        ],
    }
}
