//! `scheme_comparison` — the scheme-zoo cross-comparison: every member
//! of the `ProtectionScheme` zoo side by side on MTTF, dynamic energy
//! and fault response.
//!
//! This is the fast-tier artifact behind the cross-scheme table in
//! `docs/SCHEMES.md` (rendered by `cppc-cli docs` from the committed
//! document). Three lenses, one row per scheme:
//!
//! * **MTTF** — the paper's §6.3 closed-form model at the Table 1 L1
//!   parameters, each scheme mapped to its protection-domain size by
//!   the explorer's `mttf_years` from its descriptor's pricing;
//! * **energy** — a deterministic rewrite-heavy probe trace driven
//!   through each scheme's real write path (so silent-write elisions
//!   are *measured*, not assumed), priced by the 32 nm model and
//!   normalised to 1D parity;
//! * **fault response** — an engine campaign of `scheme_experiment`
//!   under the 4x4 solid strike, the same experiment body
//!   `cppc-cli campaign --scheme <name>` runs.
//!
//! The gate pins the §4.5 safety property exactly for the four ported
//! schemes (zero SDC) and bands the two related-work schemes, whose
//! non-interleaved SECDED miscorrects wide strikes — the documented
//! trade they make for lower energy (silent-write ECC) or on-die
//! repairability (HARP).

use cppc_bench::experiments::scheme_experiment;
use cppc_bench::mbe;
use cppc_cache_sim::memory::MainMemory;
use cppc_campaign::rng::rngs::StdRng;
use cppc_campaign::rng::{RngExt, SeedableRng};
use cppc_campaign::CampaignConfig;
use cppc_core::{CppcConfig, SchemeKind};
use cppc_energy::scheme::{AccessCounts, SchemeEnergy};
use cppc_energy::tech::TechnologyNode;
use cppc_explore::eval::mttf_years;
use cppc_fault::campaign::OutcomeTally;
use cppc_fault::model::FaultModel;
use cppc_reliability::mttf::ReliabilityParams;
use cppc_timing::counts_from_stats;

use crate::artifact::{Artifact, ArtifactOutput, MetricValue, RunConfig, Table, Tier, Tolerance};

/// Campaign seed (distinct from the other artifacts' seeds so the
/// tallies are independent samples).
const SEED: u64 = 0x5C4E;
/// Campaign trials per scheme.
const TRIALS: u64 = 240;
const TRIALS_QUICK: u64 = 48;

/// The strike every scheme faces: the 4x4 solid square, the smallest
/// fault that separates the zoo (CPPC and interleaved SECDED correct
/// it, 1D parity and 2D parity — one vertical row — cannot, and the
/// non-interleaved related-work codes sometimes miscorrect it).
const FAULT: FaultModel = FaultModel::SpatialSquare {
    rows: 4,
    cols: 4,
    density: 1.0,
};

/// Energy-probe trace seed and rewrite rounds.
const PROBE_SEED: u64 = 0x0DD5;
const PROBE_ROUNDS: usize = 8;

/// The `scheme_comparison` artifact.
pub fn artifact() -> Artifact {
    Artifact {
        name: "scheme_comparison",
        title: "Scheme zoo — cross-scheme MTTF, energy and fault response",
        paper_ref: "§4.5, §6.2, §6.3 + related work",
        tier: Tier::Fast,
        summary: "Every member of the protection-scheme zoo side by side: closed-form MTTF \
                  at the Table 1 L1, dynamic energy of a deterministic rewrite-heavy probe \
                  trace normalised to 1D parity (silent-write elisions measured through the \
                  scheme's real write path), and the outcome distribution of an engine \
                  campaign under the 4x4 solid strike. The four ported schemes keep the \
                  paper's zero-SDC safety property exactly; the two related-work schemes \
                  trade SDC-freedom under wide strikes for lower energy (silent-write-aware \
                  ECC) or on-die repairability (HARP-style profiling).",
        config: |cfg| {
            vec![
                (
                    "geometry",
                    "2KB, 2-way, 32B blocks (campaign cache, way 0 dirty)".into(),
                ),
                ("campaign_seed", format!("{SEED:#x}")),
                (
                    "trials_per_scheme",
                    cfg.pick(TRIALS, TRIALS_QUICK).to_string(),
                ),
                ("fault", "4x4 solid square".into()),
                (
                    "cppc_config",
                    "paper (1 register pair, byte shifting)".into(),
                ),
                ("mttf_params", "Table 1 L1 (32KB), §6.3 model".into()),
                (
                    "energy_probe",
                    format!(
                        "fill + {PROBE_ROUNDS} rewrite rounds (50% silent), seed \
                         {PROBE_SEED:#x}, 32nm"
                    ),
                ),
                ("schemes", SchemeKind::ALL.map(SchemeKind::name).join(", ")),
            ]
        },
        run,
    }
}

/// One engine campaign of the scheme under the 4x4 solid strike — the
/// exact experiment body `cppc-cli campaign --scheme <name>` runs.
fn campaign(kind: SchemeKind, trials: u64, threads: usize) -> OutcomeTally {
    let cfg = CampaignConfig::new(SEED, trials).threads(threads);
    cppc_campaign::run(&cfg, scheme_experiment(kind, CppcConfig::paper(), FAULT)).result
}

/// Drives the deterministic probe trace through the scheme's real write
/// path and returns the energy-model operation counts.
///
/// The trace fills way 0, then runs [`PROBE_ROUNDS`] rewrite rounds in
/// which each store repeats the currently-stored value with probability
/// 1/2 (a silent store) and writes fresh data otherwise, then reads
/// everything back. Silent-write-aware ECC elides the repeats; every
/// other scheme pays for them. `writes` counts the *issued* stores
/// (elided or not) so the schemes are priced on identical traffic and
/// the elision shows up only through the `silent_writes` discount.
fn probe_counts(kind: SchemeKind) -> AccessCounts {
    let geo = mbe::geometry();
    let mut mem = MainMemory::new();
    let mut scheme = kind.build(geo, CppcConfig::paper()).expect("paper config");
    let mut rng = StdRng::seed_from_u64(PROBE_SEED);
    let mut truth = Vec::new();
    for set in 0..geo.num_sets() {
        for word in 0..geo.words_per_block() {
            let addr = geo.address_of(0, set) + (word * 8) as u64;
            let v: u64 = rng.random();
            scheme
                .write_word(addr, v, &mut mem)
                .expect("fault-free probe");
            truth.push((addr, v));
        }
    }
    for _ in 0..PROBE_ROUNDS {
        for entry in &mut truth {
            let (addr, old) = *entry;
            let v: u64 = if rng.random::<u64>() % 2 == 0 {
                old
            } else {
                rng.random()
            };
            scheme
                .write_word(addr, v, &mut mem)
                .expect("fault-free probe");
            *entry = (addr, v);
        }
    }
    for &(addr, _) in &truth {
        scheme.read_word(addr, &mut mem).expect("fault-free probe");
    }
    let ops = scheme.ops();
    let mut counts = counts_from_stats(scheme.cache_stats(), geo.words_per_block() as u32);
    counts.writes += ops.silent_writes;
    counts.silent_writes = ops.silent_writes;
    counts
}

/// Prices the probe counts for one scheme at the campaign cache's
/// dimensions, 32 nm.
fn probe_energy_pj(kind: SchemeKind, counts: &AccessCounts) -> f64 {
    let pricing = kind.descriptor().pricing;
    SchemeEnergy::new(2048, 2, 32, pricing, TechnologyNode::Nm32).total_pj(counts)
}

#[allow(clippy::cast_precision_loss)]
fn pct(n: u64, tally: &OutcomeTally) -> f64 {
    n as f64 / tally.total() as f64 * 100.0
}

/// Metric-name stem of a scheme (`-` is not a metric-name character).
fn stem(kind: SchemeKind) -> String {
    kind.name().replace('-', "_")
}

#[allow(clippy::cast_precision_loss)]
fn run(cfg: &RunConfig) -> ArtifactOutput {
    let trials = cfg.pick(TRIALS, TRIALS_QUICK);
    let p = ReliabilityParams::paper_l1();

    // Per-scheme measurements, in catalog order.
    let tallies: Vec<(SchemeKind, OutcomeTally)> = SchemeKind::ALL
        .into_iter()
        .map(|k| (k, campaign(k, trials, cfg.threads)))
        .collect();
    let counts: Vec<(SchemeKind, AccessCounts)> = SchemeKind::ALL
        .into_iter()
        .map(|k| (k, probe_counts(k)))
        .collect();
    let counts_of = |k: SchemeKind| -> &AccessCounts {
        &counts
            .iter()
            .find(|(kind, _)| *kind == k)
            .expect("every scheme probed")
            .1
    };
    let base_pj = probe_energy_pj(SchemeKind::Parity1d, counts_of(SchemeKind::Parity1d));
    let energy_ratio = |k: SchemeKind| -> f64 { probe_energy_pj(k, counts_of(k)) / base_pj };
    let silent_counts = *counts_of(SchemeKind::SilentWriteEcc);
    let elision_pct = silent_counts.silent_writes as f64 / silent_counts.writes as f64 * 100.0;

    let comparison_rows = SchemeKind::ALL
        .into_iter()
        .map(|k| {
            let d = k.descriptor();
            vec![
                format!("`{}`", k.name()),
                format!("{:.1}", d.storage_overhead_pct()),
                format!("{:.3e}", mttf_years(d.pricing, &p, None)),
                format!("{:.3}", energy_ratio(k)),
            ]
        })
        .collect();
    let response_rows = tallies
        .iter()
        .map(|(k, t)| {
            vec![
                format!("`{}`", k.name()),
                format!("{:.1}", pct(t.corrected, t)),
                format!("{:.1}", pct(t.due, t)),
                format!("{:.1}", pct(t.sdc, t)),
                format!("{:.1}", pct(t.masked, t)),
            ]
        })
        .collect();

    let tally = |k: SchemeKind| -> &OutcomeTally {
        &tallies.iter().find(|(kind, _)| *kind == k).unwrap().1
    };
    let mut metrics = Vec::new();
    // The §4.5 safety property, pinned exactly for the ported schemes.
    for k in [
        SchemeKind::Cppc,
        SchemeKind::Parity1d,
        SchemeKind::SecdedInterleaved,
        SchemeKind::Parity2d,
    ] {
        metrics.push(MetricValue::new(
            format!("scheme.{}.sdc_pct", stem(k)),
            "pct",
            format!(
                "Silent-corruption share of `{}` under the 4x4 solid strike: the ported \
                 schemes keep the paper's zero-SDC property bit for bit.",
                k.name()
            ),
            pct(tally(k).sdc, tally(k)),
            Some(0.0),
            Tolerance::Exact,
        ));
    }
    for k in [SchemeKind::SilentWriteEcc, SchemeKind::HarpOdecc] {
        metrics.push(MetricValue::new(
            format!("scheme.{}.sdc_pct", stem(k)),
            "pct",
            format!(
                "Silent-corruption share of `{}` under the 4x4 solid strike: its \
                 non-interleaved SECDED miscorrects some wide strikes — the documented \
                 trade of the related-work design.",
                k.name()
            ),
            pct(tally(k).sdc, tally(k)),
            None,
            Tolerance::Abs(5.0),
        ));
    }
    metrics.push(MetricValue::new(
        "scheme.harp_odecc.corrected_pct",
        "pct",
        "Share of strikes HARP-style profiling disposes of cleanly: the profiling pass \
         repairs words the on-die code flags as uncorrectable from the write-through \
         memory copy, converting would-be DUEs into corrections.",
        pct(
            tally(SchemeKind::HarpOdecc).corrected,
            tally(SchemeKind::HarpOdecc),
        ),
        None,
        Tolerance::Abs(5.0),
    ));
    metrics.push(MetricValue::new(
        "scheme.silent_write_ecc.elision_pct",
        "pct",
        "Share of the probe trace's issued stores the silent-write-aware scheme elided \
         (incoming value matched the stored word). Deterministic trace; ~50% of rewrite \
         stores repeat by construction.",
        elision_pct,
        None,
        Tolerance::Abs(1.0),
    ));
    metrics.push(MetricValue::new(
        "scheme.silent_write_ecc.energy_ratio",
        "ratio",
        "Probe-trace dynamic energy of silent-write-aware ECC normalised to 1D parity: \
         the elided writes must price it below plain (non-interleaved) SECDED on the \
         same traffic.",
        energy_ratio(SchemeKind::SilentWriteEcc),
        None,
        Tolerance::Rel(0.02),
    ));

    ArtifactOutput {
        metrics,
        tables: vec![
            Table::new(
                "Cross-scheme comparison — storage, MTTF and normalised energy \
                 (paper L1 MTTF parameters; probe-trace energy)",
                &[
                    "scheme",
                    "storage overhead %",
                    "MTTF (years)",
                    "energy vs 1D parity",
                ],
                comparison_rows,
            ),
            Table::new(
                format!("Fault response — 4x4 solid strike ({trials} trials per scheme)"),
                &["scheme", "corrected %", "DUE %", "SDC %", "masked %"],
                response_rows,
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cppc_energy::ProtectionKind;

    #[test]
    fn probe_measures_elisions_only_for_the_silent_scheme() {
        let silent = probe_counts(SchemeKind::SilentWriteEcc);
        assert!(silent.silent_writes > 0, "rewrite rounds must elide");
        assert!(silent.silent_writes < silent.writes);
        let cppc = probe_counts(SchemeKind::Cppc);
        assert_eq!(cppc.silent_writes, 0);
        // Identical issued traffic across the zoo: the rounds rewrite
        // resident words only, so every scheme sees the same stores.
        assert_eq!(silent.writes, cppc.writes);
    }

    #[test]
    fn silent_elision_prices_below_plain_secded() {
        let counts = probe_counts(SchemeKind::SilentWriteEcc);
        let silent = probe_energy_pj(SchemeKind::SilentWriteEcc, &counts);
        // Plain non-interleaved SECDED on the same traffic subtracts
        // nothing for silent stores.
        let plain = SchemeEnergy::new(
            2048,
            2,
            32,
            ProtectionKind::Secded { interleaved: false },
            TechnologyNode::Nm32,
        )
        .total_pj(&counts);
        assert!(
            silent < plain,
            "elision must save energy: {silent} vs {plain}"
        );
    }

    #[test]
    fn quick_run_produces_all_rows_and_metrics() {
        let cfg = RunConfig {
            threads: 2,
            quick: true,
        };
        let out = run(&cfg);
        assert_eq!(out.tables.len(), 2);
        for t in &out.tables {
            assert_eq!(t.rows.len(), SchemeKind::ALL.len());
        }
        assert_eq!(out.metrics.len(), 9);
        // The ported schemes' exact zero-SDC gates hold even quick.
        for m in &out.metrics {
            if matches!(m.tolerance, Tolerance::Exact) {
                assert_eq!(m.value, 0.0, "{} must be zero", m.name);
            }
        }
    }
}
