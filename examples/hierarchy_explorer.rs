//! Hierarchy explorer: run one SPEC2000-like profile through the full
//! Table 1 machine and print everything the paper's evaluation measures
//! for it — hit rates and dirty residency from the shared functional
//! run, then MTTF / energy / CPI / area for every protection scheme via
//! one [`cppc::explore`] sweep over the scheme axis.
//!
//! Run with `cargo run --release --example hierarchy_explorer [benchmark]`
//! (default: gcc; try `mcf` to see the L2-thrashing pathology).

use cppc::core::SchemeKind;
use cppc::explore::eval::baseline;
use cppc::explore::{run_sweep, SweepOptions, SweepOutcome, SweepSpec};
use cppc::workloads::spec2000_profiles;

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "gcc".to_string());
    let profiles = spec2000_profiles();
    if !profiles.iter().any(|p| p.name == which) {
        eprintln!(
            "unknown benchmark {which}; available: {}",
            profiles
                .iter()
                .map(|p| p.name)
                .collect::<Vec<_>>()
                .join(", ")
        );
        std::process::exit(1);
    }

    // One geometry (the Table 1 L1), every scheme, the chosen workload.
    let mut spec = SweepSpec::quick_tier();
    spec.tier = "example".to_string();
    spec.schemes = SchemeKind::ALL.to_vec();
    spec.cache_kib = vec![32];
    spec.interleave_k = vec![8];
    spec.scrub_intervals = vec![None];
    spec.benchmark = which.clone();
    spec.workload_ops = 200_000;
    spec.trials = 24;

    println!(
        "benchmark {which} — {} memory ops on the Table 1 machine\n",
        spec.workload_ops
    );

    // The sweep shares one functional run per geometry; surface the
    // same run here for the hit-rate/dirtiness picture.
    let run = baseline(&spec, 32, 2, 32).expect("benchmark exists");
    println!("functional behaviour:");
    println!(
        "  L1: {:>9} accesses, miss rate {:>5.2}%, stores-to-dirty {:>6}",
        run.l1.accesses(),
        run.l1.miss_rate() * 100.0,
        run.l1.stores_to_dirty
    );
    println!(
        "  L2: {:>9} accesses, miss rate {:>5.2}%, write-backs {:>9}",
        run.l2.accesses(),
        run.l2.miss_rate() * 100.0,
        run.l2.writebacks
    );

    let points = match run_sweep(&spec, &SweepOptions::default(), None) {
        Ok(SweepOutcome::Complete(points)) => points,
        Ok(SweepOutcome::Interrupted { .. }) => unreachable!("no interrupt flag"),
        Err(e) => {
            eprintln!("sweep failed: {e}");
            std::process::exit(1);
        }
    };

    println!("\nevery protection scheme at this workload (vs 1D parity):");
    println!(
        "  {:<22} {:>12} {:>9} {:>8} {:>8} {:>7}",
        "scheme", "MTTF (y)", "energy", "CPI +%", "area %", "SDC %"
    );
    for p in &points {
        let total = p.tally.total() as f64;
        let sdc_pct = if total > 0.0 {
            p.tally.sdc as f64 / total * 100.0
        } else {
            0.0
        };
        println!(
            "  {:<22} {:>12.2e} {:>8.3}x {:>8.3} {:>7.2}% {:>6.1}%",
            p.config.scheme.name(),
            p.mttf_years,
            p.energy_ratio,
            p.cpi_inflation_pct,
            p.area_overhead_pct,
            sdc_pct
        );
    }
}
