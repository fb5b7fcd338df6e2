//! `energy_comparison` — Figures 11 and 12: dynamic energy of the L1
//! and L2 protection schemes, normalised to one-dimensional parity.
//!
//! Operation counts come from one Table 1 drive per benchmark
//! (`cppc_timing::TimingModel::drive`, shared with `fig10_cpi`);
//! per-operation energies come from the CACTI-substitute model
//! (`cppc-energy`) at 32 nm.

use cppc_bench::{mean, EVAL_SEED};
use cppc_cache_sim::stats::CacheStats;
use cppc_core::SchemeKind;
use cppc_energy::scheme::SchemeEnergy;
use cppc_energy::tech::TechnologyNode;
use cppc_timing::{counts_from_stats, MachineConfig};

use crate::artifact::{Artifact, ArtifactOutput, MetricValue, RunConfig, Table, Tier, Tolerance};

/// Memory operations per benchmark, pinned so the artifact is
/// reproducible from the repo alone.
const OPS: usize = 120_000;
const OPS_QUICK: usize = 24_000;

/// Normalised ratios move only when the energy model or the hierarchy
/// changes; 2% absorbs benign refactors.
const RATIO_TOL: Tolerance = Tolerance::Rel(0.02);

/// The `energy_comparison` artifact.
pub fn artifact() -> Artifact {
    Artifact {
        name: "energy_comparison",
        title: "Figures 11 & 12 — normalised L1/L2 dynamic energy",
        paper_ref: "Figures 11–12, §6.2",
        tier: Tier::Fast,
        summary: "Dynamic energy of each protection scheme at the Table 1 L1 and L2, \
                  normalised per benchmark to the one-dimensional-parity cache and averaged. \
                  Expected shape at L1: parity < CPPC (paper +14%) < SECDED (+42%) < 2D \
                  parity (+70%). At L2 CPPC's increment falls (paper +7%) because the L1 \
                  filters the store stream, while SECDED's interleaving penalty grows with \
                  the larger array's bitline fraction (+68%) and 2D parity reaches +75%.",
        config: |cfg| {
            vec![
                ("technology_node", "32nm".into()),
                ("l1", "32KB 2-way 32B (Table 1 L1D)".into()),
                ("l2", "1MB 4-way 32B (Table 1 L2)".into()),
                ("benchmarks", "15 synthetic SPEC2000 profiles".into()),
                ("ops_per_benchmark", cfg.pick(OPS, OPS_QUICK).to_string()),
                ("trace_seed", format!("{EVAL_SEED:#x}")),
                (
                    "schemes",
                    "1D parity (base), CPPC 8-way, SECDED interleaved, 2D parity".into(),
                ),
            ]
        },
        run,
    }
}

/// Normalised per-benchmark energies of one cache level.
struct LevelRatios {
    rows: Vec<Vec<String>>,
    cppc: Vec<f64>,
    secded: Vec<f64>,
    twodim: Vec<f64>,
}

fn level_ratios(
    size: usize,
    assoc: usize,
    block: usize,
    stats: &[(String, CacheStats)],
) -> LevelRatios {
    let node = TechnologyNode::Nm32;
    let [parity, cppc, secded, twodim] = [
        SchemeKind::Parity1d,
        SchemeKind::Cppc,
        SchemeKind::SecdedInterleaved,
        SchemeKind::Parity2d,
    ]
    .map(|k| SchemeEnergy::new(size, assoc, block, k.descriptor().pricing, node));

    let wpl = (block / 8) as u32;
    let mut out = LevelRatios {
        rows: Vec::new(),
        cppc: Vec::new(),
        secded: Vec::new(),
        twodim: Vec::new(),
    };
    for (name, level_stats) in stats {
        let counts = counts_from_stats(level_stats, wpl);
        let base = parity.total_pj(&counts);
        let c = cppc.total_pj(&counts) / base;
        let s = secded.total_pj(&counts) / base;
        let t = twodim.total_pj(&counts) / base;
        out.cppc.push(c);
        out.secded.push(s);
        out.twodim.push(t);
        out.rows.push(vec![
            name.clone(),
            format!("{c:.3}"),
            format!("{s:.3}"),
            format!("{t:.3}"),
        ]);
    }
    out.rows.push(vec![
        "average".into(),
        format!("{:.3}", mean(&out.cppc)),
        format!("{:.3}", mean(&out.secded)),
        format!("{:.3}", mean(&out.twodim)),
    ]);
    out
}

fn run(cfg: &RunConfig) -> ArtifactOutput {
    let ops = cfg.pick(OPS, OPS_QUICK);
    let machine = MachineConfig::table1();

    // One functional run per benchmark feeds both levels.
    let mut l1_stats = Vec::new();
    let mut l2_stats = Vec::new();
    for (profile, run) in super::drives::table1(ops) {
        l1_stats.push((profile.name.to_string(), run.l1));
        l2_stats.push((profile.name.to_string(), run.l2));
    }

    let l1 = level_ratios(
        machine.l1d.size_bytes,
        machine.l1d.associativity,
        machine.l1d.block_bytes,
        &l1_stats,
    );
    let l2 = level_ratios(
        machine.l2.size_bytes,
        machine.l2.associativity,
        machine.l2.block_bytes,
        &l2_stats,
    );

    let cell = |level: &str, scheme: &str, values: &[f64], paper: f64| {
        MetricValue::new(
            format!("energy.{level}.{scheme}"),
            "ratio",
            format!(
                "Average {} dynamic energy of {scheme}, normalised to 1D parity.",
                level.to_uppercase()
            ),
            mean(values),
            Some(paper),
            RATIO_TOL,
        )
    };
    let metrics = vec![
        cell("l1", "cppc", &l1.cppc, 1.14),
        cell("l1", "secded", &l1.secded, 1.42),
        cell("l1", "twodim", &l1.twodim, 1.70),
        cell("l2", "cppc", &l2.cppc, 1.07),
        cell("l2", "secded", &l2.secded, 1.68),
        cell("l2", "twodim", &l2.twodim, 1.75),
    ];

    // The L2 table also carries each benchmark's L2 miss rate, which
    // drives 2D parity's blow-up (the paper's mcf case); the average
    // row has none.
    let mut l2_rows = l2.rows;
    let miss_pct = l2_stats
        .iter()
        .map(|(_, stats)| format!("{:.1}", stats.miss_rate() * 100.0));
    for (row, miss) in l2_rows.iter_mut().zip(miss_pct.chain(["—".into()])) {
        row.push(miss);
    }
    ArtifactOutput {
        metrics,
        tables: vec![
            Table::new(
                format!("Figure 11 — L1 energy normalised to 1D parity ({ops} ops each)"),
                &["bench", "CPPC", "SECDED", "2D parity"],
                l1.rows,
            ),
            Table::new(
                format!("Figure 12 — L2 energy normalised to 1D parity ({ops} ops each)"),
                &["bench", "CPPC", "SECDED", "2D parity", "L2 miss %"],
                l2_rows,
            ),
        ],
    }
}
