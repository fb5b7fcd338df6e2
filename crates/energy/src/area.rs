//! Storage/area overhead model (paper §5.1).
//!
//! Counts the extra storage bits each protection scheme adds to a cache:
//! code arrays, CPPC's register pairs, the barrel shifters' multiplexers
//! (converted to SRAM-bit-equivalents), and two-dimensional parity's
//! vertical rows. The paper's qualitative claim — CPPC ≈ parity ≪
//! SECDED — falls out of the counts.

use crate::scheme::ProtectionKind;

/// Area accounting for one protected cache, in SRAM-bit equivalents.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaModel {
    data_bits: f64,
    overhead_bits: f64,
}

/// Rough SRAM-bit-equivalents per barrel-shifter multiplexer (a 2:1 mux
/// is about the size of one and a half 6T cells).
const MUX_BIT_EQUIV: f64 = 1.5;

impl AreaModel {
    /// An unprotected cache of `size_bytes`.
    #[must_use]
    pub fn unprotected(size_bytes: usize) -> Self {
        AreaModel {
            data_bits: size_bytes as f64 * 8.0,
            overhead_bits: 0.0,
        }
    }

    /// One-dimensional parity: `ways` parity bits per 64-bit word.
    #[must_use]
    pub fn one_dim_parity(size_bytes: usize, ways: u32) -> Self {
        let data_bits = size_bytes as f64 * 8.0;
        AreaModel {
            data_bits,
            overhead_bits: data_bits * f64::from(ways) / 64.0,
        }
    }

    /// CPPC (§5.1): parity bits plus `pairs` register pairs of
    /// `register_bits` each (64 for L1, one L1 block for L2) plus two
    /// barrel shifters per pair.
    #[must_use]
    pub fn cppc(size_bytes: usize, parity_ways: u32, pairs: usize, register_bits: u32) -> Self {
        let base = Self::one_dim_parity(size_bytes, parity_ways);
        let registers = 2.0 * pairs as f64 * f64::from(register_bits);
        // CPPC shifter: n/8 * log2(n/8) muxes per shifter, two shifters.
        let lanes = f64::from(register_bits) / 8.0;
        let shifters = 2.0 * lanes * lanes.log2().max(0.0) * MUX_BIT_EQUIV;
        AreaModel {
            data_bits: base.data_bits,
            overhead_bits: base.overhead_bits + registers + shifters,
        }
    }

    /// SECDED: 8 check bits per 64-bit word (12.5%).
    #[must_use]
    pub fn secded(size_bytes: usize) -> Self {
        let data_bits = size_bytes as f64 * 8.0;
        AreaModel {
            data_bits,
            overhead_bits: data_bits * 8.0 / 64.0,
        }
    }

    /// Two-dimensional parity: horizontal parity bits plus
    /// `vertical_rows` rows of 64-bit vertical parity.
    #[must_use]
    pub fn two_dim_parity(size_bytes: usize, horizontal_ways: u32, vertical_rows: usize) -> Self {
        let base = Self::one_dim_parity(size_bytes, horizontal_ways);
        AreaModel {
            data_bits: base.data_bits,
            overhead_bits: base.overhead_bits + vertical_rows as f64 * 64.0,
        }
    }

    /// The area of a `size_bytes` cache under `kind` in the paper's
    /// evaluated L1 configuration: one 64-bit register pair for CPPC,
    /// one vertical row for 2D parity. The SECDED-class kinds all
    /// store 8 check bits per word.
    #[must_use]
    pub fn of(kind: ProtectionKind, size_bytes: usize) -> Self {
        match kind {
            ProtectionKind::OneDimParity { ways } => Self::one_dim_parity(size_bytes, ways),
            ProtectionKind::Cppc { ways } => Self::cppc(size_bytes, ways, 1, 64),
            ProtectionKind::TwoDimParity { ways } => Self::two_dim_parity(size_bytes, ways, 1),
            ProtectionKind::Secded { .. }
            | ProtectionKind::SilentWriteEcc
            | ProtectionKind::OnDieEcc => Self::secded(size_bytes),
        }
    }

    /// Protection storage overhead as a fraction of the data array.
    #[must_use]
    pub fn overhead_fraction(&self) -> f64 {
        self.overhead_bits / self.data_bits
    }

    /// Absolute overhead bits.
    #[must_use]
    pub fn overhead_bits(&self) -> f64 {
        self.overhead_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const L1: usize = 32 * 1024;

    #[test]
    fn secded_is_12_5_percent() {
        assert!((AreaModel::secded(L1).overhead_fraction() - 0.125).abs() < 1e-12);
    }

    #[test]
    fn word_parity_is_1_64th() {
        let a = AreaModel::one_dim_parity(L1, 1);
        assert!((a.overhead_fraction() - 1.0 / 64.0).abs() < 1e-12);
    }

    #[test]
    fn cppc_barely_above_parity() {
        let parity = AreaModel::one_dim_parity(L1, 8);
        let cppc = AreaModel::cppc(L1, 8, 1, 64);
        let delta = cppc.overhead_fraction() - parity.overhead_fraction();
        assert!(delta > 0.0);
        assert!(delta < 0.001, "registers+shifters are negligible: {delta}");
    }

    #[test]
    fn cppc_correction_increment_is_negligible() {
        // §5.1's claim: adding *correction* to an existing parity cache
        // costs only registers + shifters, versus SECDED's 8 extra check
        // bits per word. Compare the increments over the parity base.
        let parity1 = AreaModel::one_dim_parity(L1, 1);
        let cppc1 = AreaModel::cppc(L1, 1, 1, 64);
        let correction_cost = cppc1.overhead_bits() - parity1.overhead_bits();
        let secded_cost = AreaModel::secded(L1).overhead_bits() - parity1.overhead_bits();
        assert!(
            correction_cost < secded_cost / 100.0,
            "{correction_cost} vs {secded_cost}"
        );
        // And a word-parity CPPC stays far below SECDED in total.
        assert!(cppc1.overhead_fraction() < 0.02);
    }

    #[test]
    fn more_pairs_cost_more() {
        let one = AreaModel::cppc(L1, 8, 1, 64);
        let eight = AreaModel::cppc(L1, 8, 8, 64);
        assert!(eight.overhead_bits() > one.overhead_bits());
    }

    #[test]
    fn two_dim_vertical_rows_counted() {
        let one = AreaModel::two_dim_parity(L1, 8, 1);
        let eight = AreaModel::two_dim_parity(L1, 8, 8);
        assert!((eight.overhead_bits() - one.overhead_bits() - 7.0 * 64.0).abs() < 1e-9);
    }

    #[test]
    fn of_picks_the_paper_constructor_for_every_kind() {
        let of = |kind| AreaModel::of(kind, L1);
        assert_eq!(
            of(ProtectionKind::OneDimParity { ways: 8 }),
            AreaModel::one_dim_parity(L1, 8)
        );
        assert_eq!(
            of(ProtectionKind::Cppc { ways: 2 }),
            AreaModel::cppc(L1, 2, 1, 64)
        );
        assert_eq!(
            of(ProtectionKind::TwoDimParity { ways: 8 }),
            AreaModel::two_dim_parity(L1, 8, 1)
        );
        for kind in [
            ProtectionKind::Secded { interleaved: true },
            ProtectionKind::Secded { interleaved: false },
            ProtectionKind::SilentWriteEcc,
            ProtectionKind::OnDieEcc,
        ] {
            assert_eq!(of(kind), AreaModel::secded(L1), "{kind:?}");
        }
    }

    #[test]
    fn unprotected_has_zero_overhead() {
        assert_eq!(AreaModel::unprotected(L1).overhead_fraction(), 0.0);
    }

    #[test]
    fn ordering_matches_paper() {
        // With the same detection budget (8 parity bits/word ≈ SECDED's
        // 8 check bits/word), the increments order as: CPPC ≈ 2D-parity
        // (registers / one vertical row) ≪ anything adding code bits.
        let p = AreaModel::one_dim_parity(L1, 8).overhead_fraction();
        let c = AreaModel::cppc(L1, 8, 1, 64).overhead_fraction();
        let t = AreaModel::two_dim_parity(L1, 8, 1).overhead_fraction();
        assert!(p <= c, "correction adds something");
        assert!(c - p < 0.001, "but almost nothing");
        assert!(t - p < 0.001);
        // Word-parity CPPC vs SECDED: an order of magnitude apart.
        let c1 = AreaModel::cppc(L1, 1, 1, 64).overhead_fraction();
        let s = AreaModel::secded(L1).overhead_fraction();
        assert!(c1 * 6.0 < s, "{c1} vs {s}");
    }
}
