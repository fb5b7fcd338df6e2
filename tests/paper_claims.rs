//! Integration tests pinning the paper's headline quantitative claims —
//! the "shape" every figure and table must reproduce.

use cppc::energy::scheme::{AccessCounts, ProtectionKind, SchemeEnergy};
use cppc::energy::{AreaModel, TechnologyNode};
use cppc::reliability::mttf::{mttf_cppc_years, mttf_one_dim_parity_years, mttf_secded_years};
use cppc::reliability::ReliabilityParams;
use cppc::timing::{counts_from_stats, L1Scheme, MachineConfig, TimingModel};
use cppc::workloads::spec2000_profiles;

const OPS: usize = 60_000;

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// Figure 10's shape: CPPC CPI overhead well under 1% average; 2D
/// parity several times larger; both non-negative everywhere.
#[test]
fn figure10_cpi_shape() {
    let model = TimingModel::new(MachineConfig::table1());
    let mut cppc = Vec::new();
    let mut twodim = Vec::new();
    for p in spec2000_profiles() {
        let run = model.drive(&p, OPS, 0x15CA);
        let cpi = |scheme| {
            model
                .breakdown_from_stats(&p, scheme, OPS, run.l1, run.l2)
                .cpi()
        };
        let base = cpi(L1Scheme::OneDimParity);
        cppc.push(cpi(L1Scheme::Cppc) / base - 1.0);
        twodim.push(cpi(L1Scheme::TwoDimParity) / base - 1.0);
    }
    let (ac, at) = (mean(&cppc), mean(&twodim));
    assert!(
        (0.0..0.01).contains(&ac),
        "CPPC avg CPI overhead {ac} (paper 0.3%)"
    );
    assert!(at > 2.0 * ac, "2D overhead {at} must dwarf CPPC's {ac}");
    assert!(at < 0.08, "2D avg CPI overhead {at} (paper 1.7%)");
}

/// Figures 11/12's shape: at both levels the energy order is
/// parity < CPPC < SECDED < 2D-parity on the benchmark average, CPPC's
/// L2 overhead smaller than its L1 overhead, and mcf's 2D-parity L2
/// energy several times CPPC's.
#[test]
fn figures11_12_energy_shape() {
    let machine = MachineConfig::table1();
    let model = TimingModel::new(machine);
    let node = TechnologyNode::Nm32;

    let schemes = |size: usize, assoc: usize, block: usize| {
        (
            SchemeEnergy::new(
                size,
                assoc,
                block,
                ProtectionKind::OneDimParity { ways: 8 },
                node,
            ),
            SchemeEnergy::new(size, assoc, block, ProtectionKind::Cppc { ways: 8 }, node),
            SchemeEnergy::new(
                size,
                assoc,
                block,
                ProtectionKind::Secded { interleaved: true },
                node,
            ),
            SchemeEnergy::new(
                size,
                assoc,
                block,
                ProtectionKind::TwoDimParity { ways: 8 },
                node,
            ),
        )
    };
    let (l1_par, l1_cppc, l1_sec, l1_2d) = schemes(
        machine.l1d.size_bytes,
        machine.l1d.associativity,
        machine.l1d.block_bytes,
    );
    let (l2_par, l2_cppc, l2_sec, l2_2d) = schemes(
        machine.l2.size_bytes,
        machine.l2.associativity,
        machine.l2.block_bytes,
    );

    let mut l1_ratios = Vec::new();
    let mut l2_ratios = Vec::new();
    let mut mcf_l2: Option<(f64, f64)> = None;
    for p in spec2000_profiles() {
        let run = model.drive(&p, OPS, 0x15CA);
        let c1 = counts_from_stats(&run.l1, 4);
        let c2 = counts_from_stats(&run.l2, 4);
        l1_ratios.push([
            l1_cppc.total_pj(&c1) / l1_par.total_pj(&c1),
            l1_sec.total_pj(&c1) / l1_par.total_pj(&c1),
            l1_2d.total_pj(&c1) / l1_par.total_pj(&c1),
        ]);
        l2_ratios.push([
            l2_cppc.total_pj(&c2) / l2_par.total_pj(&c2),
            l2_sec.total_pj(&c2) / l2_par.total_pj(&c2),
            l2_2d.total_pj(&c2) / l2_par.total_pj(&c2),
        ]);
        if p.name == "mcf" {
            mcf_l2 = Some((l2_cppc.total_pj(&c2), l2_2d.total_pj(&c2)));
        }
    }
    let avg = |i: usize, v: &[[f64; 3]]| mean(&v.iter().map(|r| r[i]).collect::<Vec<_>>());
    let (l1c, l1s, l1t) = (avg(0, &l1_ratios), avg(1, &l1_ratios), avg(2, &l1_ratios));
    let (l2c, l2s, l2t) = (avg(0, &l2_ratios), avg(1, &l2_ratios), avg(2, &l2_ratios));

    // L1 (Figure 11): paper +14% / +42% / +70%.
    assert!(l1c > 1.0 && l1c < 1.25, "L1 CPPC {l1c}");
    assert!(l1s > l1c && l1s < 1.6, "L1 SECDED {l1s}");
    assert!(l1t > l1s, "L1 2D {l1t} must exceed SECDED {l1s}");

    // L2 (Figure 12): paper +7% / +68% / +75%; CPPC cheaper at L2.
    assert!(l2c > 1.0 && l2c < 1.2, "L2 CPPC {l2c}");
    assert!(
        l2c < l1c,
        "CPPC is relatively cheaper at L2 ({l2c} vs {l1c})"
    );
    assert!(l2s > l2c, "L2 SECDED {l2s}");
    assert!(l2t > 1.4, "L2 2D {l2t}");

    // mcf: 2D several times CPPC (paper: "several times").
    let (mcf_cppc, mcf_2d) = mcf_l2.expect("mcf profile present");
    assert!(mcf_2d / mcf_cppc > 2.0, "mcf blow-up {}", mcf_2d / mcf_cppc);
}

/// Table 3's shape: parity ≪ CPPC < SECDED at both levels, with CPPC
/// within a few orders of SECDED but astronomically above parity.
#[test]
fn table3_mttf_shape() {
    for (p, secded_domain) in [
        (ReliabilityParams::paper_l1(), 64.0),
        (ReliabilityParams::paper_l2(), 256.0),
    ] {
        let parity = mttf_one_dim_parity_years(&p);
        let cppc = mttf_cppc_years(&p, 8);
        let secded = mttf_secded_years(&p, secded_domain);
        assert!(cppc / parity > 1e10, "CPPC {cppc:e} vs parity {parity:e}");
        assert!(secded > cppc, "SECDED {secded:e} vs CPPC {cppc:e}");
        assert!(secded / cppc < 1e5, "CPPC within a few orders of SECDED");
    }
}

/// §5.1's area claim: adding CPPC correction to a parity cache costs a
/// negligible increment, while SECDED costs 12.5%.
#[test]
fn area_claim() {
    let size = 32 * 1024;
    let parity = AreaModel::one_dim_parity(size, 1);
    let cppc = AreaModel::cppc(size, 1, 1, 64);
    let secded = AreaModel::secded(size);
    let increment = cppc.overhead_bits() - parity.overhead_bits();
    let secded_increment = secded.overhead_bits() - parity.overhead_bits();
    assert!(increment < secded_increment / 50.0);
}

/// The energy model must respect the paper's SECDED counting rule:
/// interleaving multiplies only the bitline component by 8.
#[test]
fn secded_bitline_rule() {
    let node = TechnologyNode::Nm32;
    let plain = SchemeEnergy::new(
        32 * 1024,
        2,
        32,
        ProtectionKind::Secded { interleaved: false },
        node,
    );
    let inter = SchemeEnergy::new(
        32 * 1024,
        2,
        32,
        ProtectionKind::Secded { interleaved: true },
        node,
    );
    let counts = AccessCounts {
        reads: 1000,
        writes: 500,
        stores_to_dirty: 100,
        miss_fills: 50,
        words_per_line: 4,
        silent_writes: 0,
    };
    let ratio = inter.total_pj(&counts) / plain.total_pj(&counts);
    assert!(ratio > 1.2 && ratio < 1.7, "interleave ratio {ratio}");
}
