//! Per-scheme dynamic-energy accounting (paper §6.2).
//!
//! Combines a cache's per-operation energies with the operation counts a
//! trace produced. The paper's counting rules:
//!
//! * every scheme pays for its read hits and write hits;
//! * **CPPC** additionally pays one word read per store to a dirty word
//!   (read-before-write) plus the barrel shifter + register XOR on every
//!   write;
//! * **SECDED** pays 8x bitline energy when physically interleaved;
//! * **two-dimensional parity** pays a read-before-write on *every*
//!   store and reads the *entire old cache line* on every miss fill.

use crate::cache_energy::CacheEnergyModel;
use crate::tech::TechnologyNode;

/// Barrel-shifter energy per rotation (§4.8, [9]), picojoules.
const SHIFTER_PJ: f64 = 1.5;
/// One 64-bit register XOR + write, picojoules (one gate level, §4.9).
const REGISTER_XOR_PJ: f64 = 0.5;

/// Operation counts extracted from a simulation, per the paper's §6.2
/// methodology.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessCounts {
    /// Read hits.
    pub reads: u64,
    /// Write hits (plus fills counted as writes, if the caller chooses).
    pub writes: u64,
    /// Stores to already-dirty words (CPPC's word read-before-writes).
    pub stores_to_dirty: u64,
    /// Misses that fill a line (two-dimensional parity reads the old
    /// line on each).
    pub miss_fills: u64,
    /// Words per line (kept for reporting; a line read is a single
    /// full-width array access, so it does not scale the energy).
    pub words_per_line: u32,
    /// Stores elided as silent (silent-write-aware ECC: the incoming
    /// value matched the stored word, so no data or code write
    /// happened). A subset of `writes`; ignored by the other schemes.
    pub silent_writes: u64,
}

/// Which protection scheme is being priced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtectionKind {
    /// `ways`-way interleaved parity, detection only.
    OneDimParity {
        /// Parity bits per 64-bit word.
        ways: u32,
    },
    /// CPPC with `ways`-way parity (register/shifter energy included).
    Cppc {
        /// Parity bits per 64-bit word.
        ways: u32,
    },
    /// SECDED per word; `interleaved` enables the 8x bitline multiplier.
    Secded {
        /// Physical 8-way bit interleaving.
        interleaved: bool,
    },
    /// Two-dimensional parity with `ways`-way horizontal parity.
    TwoDimParity {
        /// Horizontal parity bits per 64-bit word.
        ways: u32,
    },
    /// Silent-write-aware SECDED (non-interleaved): elided silent
    /// stores pay no write energy. The silent-store comparison shares
    /// the read-modify-write array access the store was already making,
    /// so only the saved write is priced.
    SilentWriteEcc,
    /// HARP-style on-die SECDED (non-interleaved, write-through). The
    /// in-array cost matches plain SECDED; write-through and profiling
    /// traffic is next-level traffic, outside this cache's energy.
    OnDieEcc,
}

impl ProtectionKind {
    /// Code bits this scheme stores per 64-bit word.
    #[must_use]
    pub fn code_bits_per_word(&self) -> u32 {
        match *self {
            ProtectionKind::OneDimParity { ways }
            | ProtectionKind::Cppc { ways }
            | ProtectionKind::TwoDimParity { ways } => ways,
            ProtectionKind::Secded { .. }
            | ProtectionKind::SilentWriteEcc
            | ProtectionKind::OnDieEcc => 8,
        }
    }

    /// The physical interleave degree the array pays for.
    #[must_use]
    pub fn interleave_degree(&self) -> u32 {
        match *self {
            ProtectionKind::Secded { interleaved: true } => 8,
            _ => 1,
        }
    }
}

/// Energy accounting for one cache under one protection scheme.
///
/// # Example
///
/// ```
/// use cppc_energy::scheme::{AccessCounts, ProtectionKind, SchemeEnergy};
/// use cppc_energy::tech::TechnologyNode;
///
/// let cppc = SchemeEnergy::new(
///     32 * 1024, 2, 32, ProtectionKind::Cppc { ways: 8 }, TechnologyNode::Nm32);
/// let counts = AccessCounts { reads: 1000, writes: 500, stores_to_dirty: 150,
///                             miss_fills: 30, words_per_line: 4, silent_writes: 0 };
/// assert!(cppc.total_pj(&counts) > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchemeEnergy {
    model: CacheEnergyModel,
    kind: ProtectionKind,
}

impl SchemeEnergy {
    /// Builds the per-op model for a cache of the given dimensions under
    /// `kind`.
    #[must_use]
    pub fn new(
        size_bytes: usize,
        associativity: usize,
        block_bytes: usize,
        kind: ProtectionKind,
        node: TechnologyNode,
    ) -> Self {
        let words_per_block = block_bytes / 8;
        let code_bits_per_block = kind.code_bits_per_word() as usize * words_per_block;
        let model = CacheEnergyModel::new(
            size_bytes,
            associativity,
            block_bytes,
            code_bits_per_block,
            kind.interleave_degree(),
            node,
        );
        SchemeEnergy { model, kind }
    }

    /// The underlying per-access model.
    #[must_use]
    pub fn model(&self) -> &CacheEnergyModel {
        &self.model
    }

    /// The scheme being priced.
    #[must_use]
    pub fn kind(&self) -> ProtectionKind {
        self.kind
    }

    /// Total dynamic energy in picojoules for the given operation
    /// counts, applying the scheme's extra-operation rules.
    #[must_use]
    pub fn total_pj(&self, counts: &AccessCounts) -> f64 {
        let r = self.model.read_energy_pj();
        let w = self.model.write_energy_pj();
        let base = counts.reads as f64 * r + counts.writes as f64 * w;
        match self.kind {
            ProtectionKind::OneDimParity { .. }
            | ProtectionKind::Secded { .. }
            | ProtectionKind::OnDieEcc => base,
            ProtectionKind::SilentWriteEcc => {
                // Elided silent stores pay no array write; everything
                // else is plain (non-interleaved) SECDED.
                base - counts.silent_writes.min(counts.writes) as f64 * w
            }
            ProtectionKind::Cppc { .. } => {
                // Read-before-write on stores to dirty words; shifter +
                // register XOR on every write and every RBW read.
                let rbw = counts.stores_to_dirty as f64 * r;
                let plumbing = (counts.writes + counts.stores_to_dirty) as f64
                    * (SHIFTER_PJ + REGISTER_XOR_PJ);
                base + rbw + plumbing
            }
            ProtectionKind::TwoDimParity { .. } => {
                // Every store: read-before-write of the old data plus a
                // write of the updated vertical parity row (the vertical
                // row lives in the array, unlike CPPC's registers).
                // Every miss: the entire old line is read (§2) — one
                // full-width array access — and the vertical row
                // rewritten. `writes` includes fills (the fill itself is
                // a write for every scheme), so the per-store term uses
                // writes minus fills.
                let stores = counts.writes.saturating_sub(counts.miss_fills) as f64;
                let store_rbw = stores * (r + w);
                let line_rbw = counts.miss_fills as f64 * (r + w);
                base + store_rbw + line_rbw
            }
        }
    }

    /// Energy normalised to a reference scheme's energy on the same
    /// counts (how Figures 11/12 present results).
    #[must_use]
    pub fn normalised_to(&self, reference: &SchemeEnergy, counts: &AccessCounts) -> f64 {
        self.total_pj(counts) / reference.total_pj(counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const L1: (usize, usize, usize) = (32 * 1024, 2, 32);
    const L2: (usize, usize, usize) = (1024 * 1024, 4, 32);

    fn counts_l1() -> AccessCounts {
        // A plausible L1 mix: 2 loads per store, 30% of stores hit dirty
        // words, 3% miss rate.
        AccessCounts {
            reads: 10_000,
            writes: 5_000,
            stores_to_dirty: 1_500,
            miss_fills: 450,
            words_per_line: 4,
            silent_writes: 0,
        }
    }

    fn scheme(dims: (usize, usize, usize), kind: ProtectionKind) -> SchemeEnergy {
        SchemeEnergy::new(dims.0, dims.1, dims.2, kind, TechnologyNode::Nm32)
    }

    #[test]
    fn figure_11_ordering() {
        // 1D parity < CPPC < SECDED < 2D parity at L1.
        let counts = counts_l1();
        let parity = scheme(L1, ProtectionKind::OneDimParity { ways: 8 });
        let cppc = scheme(L1, ProtectionKind::Cppc { ways: 8 });
        let secded = scheme(L1, ProtectionKind::Secded { interleaved: true });
        let twodim = scheme(L1, ProtectionKind::TwoDimParity { ways: 8 });

        let e_par = parity.total_pj(&counts);
        let e_cppc = cppc.total_pj(&counts);
        let e_sec = secded.total_pj(&counts);
        let e_2d = twodim.total_pj(&counts);
        assert!(e_par < e_cppc, "{e_par} < {e_cppc}");
        assert!(e_cppc < e_sec, "{e_cppc} < {e_sec}");
        assert!(e_sec < e_2d, "{e_sec} < {e_2d}");
    }

    #[test]
    fn figure_11_cppc_overhead_band() {
        // Paper: CPPC L1 ≈ +14% over 1D parity (band: 5–25%).
        let counts = counts_l1();
        let parity = scheme(L1, ProtectionKind::OneDimParity { ways: 8 });
        let cppc = scheme(L1, ProtectionKind::Cppc { ways: 8 });
        let ratio = cppc.normalised_to(&parity, &counts);
        assert!((1.05..1.25).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn figure_11_secded_overhead_band() {
        // Paper: SECDED L1 ≈ +42% (band: 25–60%).
        let counts = counts_l1();
        let parity = scheme(L1, ProtectionKind::OneDimParity { ways: 8 });
        let secded = scheme(L1, ProtectionKind::Secded { interleaved: true });
        let ratio = secded.normalised_to(&parity, &counts);
        assert!((1.25..1.60).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn figure_12_l2_cppc_overhead_small() {
        // Paper: CPPC L2 ≈ +7% — fewer read-before-writes at L2.
        let counts = AccessCounts {
            reads: 1_000, // L1 misses
            writes: 400,  // L1 write-backs
            stores_to_dirty: 60,
            miss_fills: 80,
            words_per_line: 4,
            silent_writes: 0,
        };
        let parity = scheme(L2, ProtectionKind::OneDimParity { ways: 8 });
        let cppc = scheme(L2, ProtectionKind::Cppc { ways: 8 });
        let ratio = cppc.normalised_to(&parity, &counts);
        assert!((1.01..1.12).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn mcf_style_miss_storm_blows_up_two_dim() {
        // Figure 12's mcf: ~80% miss rate makes 2D parity several times
        // costlier than CPPC.
        let counts = AccessCounts {
            reads: 1_000,
            writes: 300,
            stores_to_dirty: 50,
            miss_fills: 1_000,
            words_per_line: 4,
            silent_writes: 0,
        };
        let cppc = scheme(L2, ProtectionKind::Cppc { ways: 8 });
        let twodim = scheme(L2, ProtectionKind::TwoDimParity { ways: 8 });
        let ratio = twodim.total_pj(&counts) / cppc.total_pj(&counts);
        assert!(ratio > 2.0, "ratio {ratio}");
    }

    #[test]
    fn code_bit_accessors() {
        assert_eq!(
            ProtectionKind::Secded { interleaved: true }.code_bits_per_word(),
            8
        );
        assert_eq!(ProtectionKind::Cppc { ways: 8 }.code_bits_per_word(), 8);
        assert_eq!(
            ProtectionKind::Secded { interleaved: true }.interleave_degree(),
            8
        );
        assert_eq!(
            ProtectionKind::Secded { interleaved: false }.interleave_degree(),
            1
        );
        assert_eq!(
            ProtectionKind::TwoDimParity { ways: 8 }.interleave_degree(),
            1
        );
    }

    #[test]
    fn zero_counts_zero_energy() {
        let cppc = scheme(L1, ProtectionKind::Cppc { ways: 8 });
        assert_eq!(cppc.total_pj(&AccessCounts::default()), 0.0);
    }

    #[test]
    fn silent_write_elision_saves_exactly_the_elided_writes() {
        let plain = scheme(L1, ProtectionKind::Secded { interleaved: false });
        let silent = scheme(L1, ProtectionKind::SilentWriteEcc);
        let mut counts = counts_l1();
        // No elisions: identical to non-interleaved SECDED.
        assert_eq!(silent.total_pj(&counts), plain.total_pj(&counts));
        // 40% silent stores: exactly those writes drop out.
        counts.silent_writes = 2_000;
        let saved = plain.total_pj(&counts) - silent.total_pj(&counts);
        let expected = 2_000.0 * silent.model().write_energy_pj();
        assert!((saved - expected).abs() < 1e-9, "{saved} vs {expected}");
        // And the result beats the interleaved baseline by construction.
        let interleaved = scheme(L1, ProtectionKind::Secded { interleaved: true });
        assert!(silent.total_pj(&counts) < interleaved.total_pj(&counts));
    }

    #[test]
    fn on_die_ecc_prices_like_plain_secded() {
        let counts = counts_l1();
        let plain = scheme(L1, ProtectionKind::Secded { interleaved: false });
        let odecc = scheme(L1, ProtectionKind::OnDieEcc);
        assert_eq!(odecc.total_pj(&counts), plain.total_pj(&counts));
        assert_eq!(ProtectionKind::OnDieEcc.interleave_degree(), 1);
        assert_eq!(ProtectionKind::OnDieEcc.code_bits_per_word(), 8);
    }
}
