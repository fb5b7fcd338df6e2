//! Fault-injection campaign: compare how CPPC configurations and the
//! baseline schemes dispose of random spatial multi-bit errors.
//!
//! Run with `cargo run --release --example fault_campaign [trials]`.

use cppc::campaign::CampaignConfig;
use cppc::core::{CppcConfig, SchemeKind};
use cppc::fault::campaign::OutcomeTally;
use cppc::fault::model::FaultModel;
use cppc_bench::experiments::scheme_experiment;

/// One campaign through the engine: `scheme_experiment` fills way 0 of
/// a 2 KiB L1, strikes it and lets the scheme's own recovery procedure
/// grade the outcome. `config` parameterizes CPPC only.
fn campaign(kind: SchemeKind, config: CppcConfig, model: FaultModel, trials: u64) -> OutcomeTally {
    let cfg = CampaignConfig::new(0xFA11, trials);
    cppc::campaign::run(&cfg, scheme_experiment(kind, config, model)).result
}

fn report(label: &str, tally: &OutcomeTally) {
    println!(
        "  {label:<24} corrected {:>5.1}%   DUE {:>5.1}%   SDC {:>5.1}%",
        tally.corrected as f64 / tally.total() as f64 * 100.0,
        tally.due as f64 / tally.total() as f64 * 100.0,
        tally.sdc as f64 / tally.total() as f64 * 100.0,
    );
}

fn main() {
    let trials: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(200);
    println!("spatial-MBE campaign: {trials} trials per configuration\n");

    for (name, model) in [
        ("single-bit SEU", FaultModel::TemporalSingleBit),
        (
            "3x3 solid square",
            FaultModel::SpatialSquare {
                rows: 3,
                cols: 3,
                density: 1.0,
            },
        ),
        (
            "8x8 solid square",
            FaultModel::SpatialSquare {
                rows: 8,
                cols: 8,
                density: 1.0,
            },
        ),
    ] {
        println!("{name}:");
        for (label, kind, config) in [
            ("1D parity", SchemeKind::Parity1d, CppcConfig::paper()),
            (
                "CPPC basic (1b parity)",
                SchemeKind::Cppc,
                CppcConfig::basic(),
            ),
            ("CPPC paper (1 pair)", SchemeKind::Cppc, CppcConfig::paper()),
            ("CPPC 2 pairs", SchemeKind::Cppc, CppcConfig::two_pairs()),
            ("CPPC 8 pairs", SchemeKind::Cppc, CppcConfig::eight_pairs()),
        ] {
            report(label, &campaign(kind, config, model, trials));
        }
        println!();
    }
    println!("notes:");
    println!(" * schemes with 8-way interleaved parity never silently corrupt —");
    println!("   they refuse (DUE) when a fault is outside their envelope;");
    println!(" * the basic CPPC's single parity bit cannot even *detect* an even");
    println!("   number of flips per word (the 8x8 square flips 8), which is why");
    println!("   the paper pairs CPPC with interleaved parity for spatial faults.");
}
