//! `mbe_coverage` — the §4.6/§4.7 correction-capability matrix: how
//! each protection scheme disposes of each fault class (Corrected /
//! DUE / SDC / Masked) under sampled fault-injection campaigns.
//!
//! The golden gate pins the paper's headline claims exactly: zero
//! silent corruption anywhere, the 8x8 solid square unrecoverable with
//! one register pair but corrected with two, and SECDED+interleaving
//! correcting everything inside its 8-wide budget.
//!
//! Every row runs [`built_experiment`], the fill, strike and classify
//! protocol behind `cppc-cli campaign --scheme`; `tests/scheme_equivalence.rs`
//! pins each row to the historical per-scheme campaign bodies.

use cppc_bench::experiments::built_experiment;
use cppc_cache_sim::geometry::CacheGeometry;
use cppc_cache_sim::replacement::ReplacementPolicy;
use cppc_core::scheme::Parity2dScheme;
use cppc_core::{CppcConfig, ProtectionScheme, SchemeKind};
use cppc_fault::campaign::{Campaign, OutcomeTally};
use cppc_fault::model::FaultModel;

use crate::artifact::{Artifact, ArtifactOutput, MetricValue, RunConfig, Table, Tier, Tolerance};

/// Campaign seed.
const SEED: u64 = 0xC0DE;
/// Trials per (scheme, fault) cell.
const TRIALS: u64 = 200;
const TRIALS_QUICK: u64 = 40;

/// The `mbe_coverage` artifact.
pub fn artifact() -> Artifact {
    Artifact {
        name: "mbe_coverage",
        title: "§4.6 coverage matrix — MBE correction capability",
        paper_ref: "§4.6, §4.7, §4.5",
        tier: Tier::Full,
        summary: "Fault-injection campaigns measuring the outcome distribution (Corrected / \
                  DUE / SDC / Masked) of every protection scheme against every fault class, \
                  on a 2KB 2-way cache with way 0 fully dirty. Expected shape: 1D parity \
                  detects but never corrects; SECDED+interleaving corrects everything up to \
                  8-wide strikes; CPPC with one register pair corrects all spatial MBEs in \
                  an 8x8 square except the irreducible patterns (solid 8x8, distance-4 \
                  alias), which are DUE — never SDC; two pairs correct the 8x8 too. SDC is \
                  zero in every cell: when the locator cannot pin a fault down unambiguously \
                  it refuses rather than guesses.",
        config: |cfg| {
            vec![
                (
                    "geometry",
                    "2KB, 2-way, 32B blocks (32 sets, 256 rows)".into(),
                ),
                ("warm_state", "way 0 fully dirty, seeded values".into()),
                ("campaign_seed", format!("{SEED:#x}")),
                (
                    "trials_per_cell",
                    cfg.pick(TRIALS, TRIALS_QUICK).to_string(),
                ),
                (
                    "schemes",
                    "1D parity, SECDED+interleave, CPPC 1/2/8 pairs, 2D parity 1/8 rows".into(),
                ),
                (
                    "faults",
                    "single bit, 2-bit vertical, 8-bit horizontal, 4x4 solid, 8x8 sparse(0.4), \
                     8x8 solid"
                        .into(),
                ),
            ]
        },
        run,
    }
}

/// The matrix's fault classes, in table order.
#[must_use]
pub fn fault_models() -> Vec<(&'static str, FaultModel)> {
    vec![
        ("single bit", FaultModel::TemporalSingleBit),
        ("2-bit vertical", FaultModel::VerticalStripe { rows: 2 }),
        ("8-bit horizontal", FaultModel::HorizontalBurst { cols: 8 }),
        (
            "4x4 solid",
            FaultModel::SpatialSquare {
                rows: 4,
                cols: 4,
                density: 1.0,
            },
        ),
        (
            "8x8 sparse (40%)",
            FaultModel::SpatialSquare {
                rows: 8,
                cols: 8,
                density: 0.4,
            },
        ),
        (
            "8x8 solid",
            FaultModel::SpatialSquare {
                rows: 8,
                cols: 8,
                density: 1.0,
            },
        ),
    ]
}

/// A matrix row's protection scheme, built over the campaign geometry.
pub type SchemeBuilder = fn(CacheGeometry) -> Box<dyn ProtectionScheme>;

/// The matrix's scheme rows, in table order. All but the eight-row 2D
/// parity are members of the scheme zoo.
#[must_use]
pub fn scheme_rows() -> [(&'static str, SchemeBuilder); 7] {
    fn zoo(kind: SchemeKind, geo: CacheGeometry, config: CppcConfig) -> Box<dyn ProtectionScheme> {
        kind.build(geo, config).expect("valid config")
    }
    [
        ("1D parity", |g| {
            zoo(SchemeKind::Parity1d, g, CppcConfig::paper())
        }),
        ("SECDED+interleave", |g| {
            zoo(SchemeKind::SecdedInterleaved, g, CppcConfig::paper())
        }),
        ("CPPC 1 pair", |g| {
            zoo(SchemeKind::Cppc, g, CppcConfig::paper())
        }),
        ("CPPC 2 pairs", |g| {
            zoo(SchemeKind::Cppc, g, CppcConfig::two_pairs())
        }),
        ("CPPC 8 pairs", |g| {
            zoo(SchemeKind::Cppc, g, CppcConfig::eight_pairs())
        }),
        ("2D parity (1 row)", |g| {
            zoo(SchemeKind::Parity2d, g, CppcConfig::paper())
        }),
        ("2D parity (8 rows)", |g| {
            Box::new(Parity2dScheme::with_vertical_rows(
                g,
                8,
                ReplacementPolicy::Lru,
            ))
        }),
    ]
}

fn pct(n: u64, tally: &OutcomeTally) -> f64 {
    n as f64 / tally.total() as f64 * 100.0
}

fn run(cfg: &RunConfig) -> ArtifactOutput {
    let trials = cfg.pick(TRIALS, TRIALS_QUICK);
    let threads = cfg.threads;

    let mut tables = Vec::new();
    let mut sdc_total = 0u64;
    // (scheme, fault) -> tally for the gated cells below.
    let mut cells: Vec<(&str, &str, OutcomeTally)> = Vec::new();
    for (fault_name, model) in fault_models() {
        let mut rows = Vec::new();
        for (scheme_name, build) in scheme_rows() {
            let experiment = built_experiment(build, model);
            let tally = Campaign::new(SEED).run_parallel(trials, threads, experiment);
            sdc_total += tally.sdc;
            rows.push(vec![
                scheme_name.to_string(),
                format!("{:.1}", pct(tally.corrected, &tally)),
                format!("{:.1}", pct(tally.due, &tally)),
                format!("{:.1}", pct(tally.sdc, &tally)),
                format!("{:.1}", pct(tally.masked, &tally)),
            ]);
            cells.push((scheme_name, fault_name, tally));
        }
        tables.push(Table::new(
            format!("Fault: {fault_name} ({trials} trials per cell)"),
            &["scheme", "corrected %", "DUE %", "SDC %", "masked %"],
            rows,
        ));
    }

    let cell = |scheme: &str, fault: &str| -> &OutcomeTally {
        cells
            .iter()
            .find(|(s, f, _)| *s == scheme && *f == fault)
            .map(|(_, _, t)| t)
            .expect("gated cell present in matrix")
    };

    #[allow(clippy::cast_precision_loss)]
    let metrics = vec![
        MetricValue::new(
            "coverage.sdc_trials_total",
            "trials",
            "Silent-data-corruption outcomes summed over the whole scheme x fault matrix. \
             The paper's §4.5/§4.6 safety property: must be zero.",
            sdc_total as f64,
            Some(0.0),
            Tolerance::Exact,
        ),
        MetricValue::new(
            "coverage.cppc1.solid8x8_due_pct",
            "pct",
            "CPPC with one register pair on the solid 8x8 square: the §4.6 irreducible \
             pattern — detected but unrecoverable, never silently wrong.",
            pct(
                cell("CPPC 1 pair", "8x8 solid").due,
                cell("CPPC 1 pair", "8x8 solid"),
            ),
            Some(100.0),
            Tolerance::Exact,
        ),
        MetricValue::new(
            "coverage.cppc2.solid8x8_corrected_pct",
            "pct",
            "CPPC with two register pairs corrects the solid 8x8 square (classes 0-3 and \
             4-7 split across pairs).",
            pct(
                cell("CPPC 2 pairs", "8x8 solid").corrected,
                cell("CPPC 2 pairs", "8x8 solid"),
            ),
            Some(100.0),
            Tolerance::Exact,
        ),
        MetricValue::new(
            "coverage.cppc8.sparse8x8_corrected_pct",
            "pct",
            "CPPC with eight register pairs (no byte shifting needed) corrects everything \
             in the 8x8 square.",
            pct(
                cell("CPPC 8 pairs", "8x8 sparse (40%)").corrected,
                cell("CPPC 8 pairs", "8x8 sparse (40%)"),
            ),
            Some(100.0),
            Tolerance::Exact,
        ),
        MetricValue::new(
            "coverage.secded.solid8x8_corrected_pct",
            "pct",
            "SECDED with 8-way physical interleaving corrects the solid 8x8 square.",
            pct(
                cell("SECDED+interleave", "8x8 solid").corrected,
                cell("SECDED+interleave", "8x8 solid"),
            ),
            Some(100.0),
            Tolerance::Exact,
        ),
        MetricValue::new(
            "coverage.parity.solid4x4_corrected_pct",
            "pct",
            "1D parity never corrects a dirty-data fault (detection only).",
            pct(
                cell("1D parity", "4x4 solid").corrected,
                cell("1D parity", "4x4 solid"),
            ),
            Some(0.0),
            Tolerance::Exact,
        ),
        MetricValue::new(
            "coverage.cppc1.sparse8x8_corrected_pct",
            "pct",
            "CPPC with one register pair on the sparse 8x8 square: faults spanning all 8 \
             rows frequently alias across the distance-4 pairs (the published special-case \
             mechanism), so only a minority of samples correct.",
            pct(
                cell("CPPC 1 pair", "8x8 sparse (40%)").corrected,
                cell("CPPC 1 pair", "8x8 sparse (40%)"),
            ),
            None,
            Tolerance::Abs(5.0),
        ),
    ];

    ArtifactOutput { metrics, tables }
}
