//! The pluggable [`ProtectionScheme`] abstraction: one trait every
//! protected cache in the zoo implements, so campaigns, repro
//! artifacts and the CLI parameterize over a *scheme selector* instead
//! of hard-coding each cache type.
//!
//! The trait captures the full lifecycle a fault-injection campaign
//! exercises:
//!
//! * **encode** — [`ProtectionScheme::write_word`], the per-write
//!   callback that stores data and refreshes the scheme's code bits
//!   (CPPC additionally folds the old/new values into R1; 2D parity
//!   performs its read-before-write). Dirty evictions triggered by a
//!   conflicting fill run each scheme's per-eviction maintenance
//!   internally (CPPC's R2 update, 2D parity's vertical-row rewrite).
//! * **check / correct** — [`ProtectionScheme::read_word`] verifies the
//!   code on the read path and corrects (or refuses) on a mismatch;
//!   [`ProtectionScheme::classify`] runs the scheme's whole-array
//!   recovery procedure against ground truth and grades the outcome.
//! * **fault interface** — [`ProtectionScheme::inject`] applies a raw
//!   bit-flip pattern; [`ProtectionScheme::inject_model`] samples a
//!   strike from a [`FaultModel`] into a caller-owned pattern buffer
//!   the way the scheme's physical array is actually organised
//!   (interleaved SECDED translates logical strikes onto its 8-way
//!   interleaved array, everything else strikes logical rows directly).
//! * **warm restore** — [`WarmClone::restore`] copies a filled warm
//!   copy of the scheme back over a struck one in place, so a campaign
//!   fills once per worker and every trial starts from the same warm
//!   state without allocating. Every member implements it through its
//!   `Clone`, whose `clone_from` reuses the member's buffers.
//! * **accounting** — [`ProtectionScheme::ops`] surfaces the
//!   energy-relevant operation counts (writes, silent-write elisions,
//!   read-modify-writes, read-before-writes) and
//!   [`ProtectionScheme::cache_stats`] the generic traffic counters
//!   the area/energy models consume.
//! * **self-description** — [`SchemeKind::descriptor`] returns static
//!   name/overhead metadata plus the scheme's `pricing`, the model class
//!   the timing, energy, area and MTTF models read; `cppc-cli docs`
//!   renders `docs/SCHEMES.md` from exactly these descriptors.
//!
//! The zoo members are the protected caches themselves: the trait is
//! implemented on [`CppcCache`] (below) and on the three §6 baselines
//! in [`crate::baselines`]. The two related-work additions wrap a
//! [`SecdedCache`] to add their own state: [`crate::silent`]
//! (silent-write-aware ECC) and [`crate::harp`] (HARP-style on-die ECC
//! with an error-profiling pass). The four paper schemes reproduce the
//! historical baked-in campaign closures **bit for bit**: they consume
//! the trial RNG stream in the same order and classify with the same
//! rules, so campaign tallies and checkpoint bytes are identical to the
//! pre-refactor paths (the `scheme_equivalence` integration suite pins
//! every member at 1, 2 and 8 threads).

use cppc_cache_sim::cache::Cache;
use cppc_cache_sim::geometry::CacheGeometry;
use cppc_cache_sim::memory::MainMemory;
use cppc_cache_sim::replacement::ReplacementPolicy;
use cppc_cache_sim::stats::CacheStats;
use cppc_campaign::rng::rngs::StdRng;
use cppc_campaign::rng::RngExt;
use cppc_energy::ProtectionKind;
use cppc_fault::campaign::Outcome;
use cppc_fault::layout::PhysicalLayout;
use cppc_fault::model::{FaultGenerator, FaultModel, FaultPattern};

use crate::baselines::{OneDimParityCache, SecdedCache, TwoDimParityCache};
use crate::cache::{CppcCache, Due};
use crate::config::{ConfigError, CppcConfig};

use std::any::Any;
use std::fmt;

cppc_obs::metrics! {
    group SCHEME_METRICS: "scheme", "Protection-scheme zoo: per-scheme write-elision and error-profiling hooks behind the ProtectionScheme trait.";
    counter SILENT_WRITES: "scheme.silent_writes", "events", "Stores elided by the silent-write-aware ECC scheme: the incoming value matched the stored word, so the data write and the code refresh were both skipped.";
    counter HARP_PROFILED: "scheme.harp.profiled_uncorrectable", "words", "Words the HARP-style error-profiling pass identified as uncorrectable by the on-die SECDED code.";
    counter HARP_REPAIRS: "scheme.harp.repaired", "words", "Profiled uncorrectable words repaired from the scheme's write-through memory copy.";
}

/// Registers the scheme-zoo metric group (idempotent).
pub fn register_metrics() {
    SCHEME_METRICS.register();
}

/// A fault the scheme detected but cannot repair, surfaced from
/// [`ProtectionScheme::read_word`] / [`ProtectionScheme::write_word`].
///
/// Each implementation's native error type (CPPC's [`Due`], the
/// baselines' [`UnrecoverableFault`](crate::baselines::UnrecoverableFault))
/// converts into this with its human-readable diagnostic preserved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemeFault {
    /// Human-readable diagnostic from the underlying scheme.
    pub detail: String,
}

impl fmt::Display for SchemeFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.detail)
    }
}

impl std::error::Error for SchemeFault {}

impl From<Due> for SchemeFault {
    fn from(due: Due) -> Self {
        SchemeFault {
            detail: due.to_string(),
        }
    }
}

impl From<crate::baselines::UnrecoverableFault> for SchemeFault {
    fn from(fault: crate::baselines::UnrecoverableFault) -> Self {
        SchemeFault {
            detail: fault.to_string(),
        }
    }
}

/// Static self-description of one protection scheme: the metadata
/// `cppc-cli docs` renders into `docs/SCHEMES.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchemeDescriptor {
    /// The selector name (`cppc-cli campaign --scheme <name>`).
    pub name: &'static str,
    /// Human-readable title.
    pub title: &'static str,
    /// Where the design comes from (paper section or related work).
    pub reference: &'static str,
    /// One-paragraph summary of the mechanism.
    pub summary: &'static str,
    /// The scheme's paper configuration as the timing, energy, area
    /// and MTTF models see it: the one place a zoo member is mapped
    /// to a model class. It also fixes the code bits per word and the
    /// physical interleave degree.
    pub pricing: ProtectionKind,
    /// Extra state outside the data array (registers, vertical rows).
    pub extra_state: &'static str,
    /// What the scheme detects.
    pub detection: &'static str,
    /// What the scheme corrects.
    pub correction: &'static str,
}

impl SchemeDescriptor {
    /// Code-storage overhead as a percentage of the data array.
    #[must_use]
    pub fn storage_overhead_pct(&self) -> f64 {
        f64::from(self.pricing.code_bits_per_word()) / 64.0 * 100.0
    }
}

/// Energy-relevant operation counts a scheme accumulated, surfaced via
/// [`ProtectionScheme::ops`] for the `cppc-energy` accounting hooks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchemeOps {
    /// Data-array writes performed (stores that actually wrote).
    pub writes: u64,
    /// Stores elided as silent (value already stored; no array write).
    pub silent_writes: u64,
    /// Read-modify-write reads (sub-word stores under a word code).
    pub rmw_reads: u64,
    /// Read-before-writes (2D parity's vertical-row maintenance).
    pub read_before_writes: u64,
    /// Words corrected by the scheme.
    pub corrected: u64,
    /// Detected-but-unrecoverable faults.
    pub dues: u64,
}

/// The warm-trial half of [`ProtectionScheme`], implemented for every
/// member through its `Clone`.
pub trait WarmClone {
    /// A boxed clone of this scheme.
    fn clone_boxed(&self) -> Box<dyn ProtectionScheme>;

    /// Restores this scheme to `warm`'s state in place (`clone_from`),
    /// allocating nothing when `warm` is a clone of the same build.
    ///
    /// # Panics
    ///
    /// Panics if `warm` is a different type of scheme.
    fn restore(&mut self, warm: &dyn ProtectionScheme);
}

impl<T: ProtectionScheme + Clone> WarmClone for T {
    fn clone_boxed(&self) -> Box<dyn ProtectionScheme> {
        Box::new(self.clone())
    }

    fn restore(&mut self, warm: &dyn ProtectionScheme) {
        let warm: &dyn Any = warm;
        self.clone_from(warm.downcast_ref().expect("warm copy of the same scheme"));
    }
}

/// One protected cache in the zoo, as a campaign sees it.
///
/// Implemented by the protected caches over the shared
/// `cppc-cache-sim` substrate; the trait is object-safe so campaign
/// drivers hold a `Box<dyn ProtectionScheme>` built by
/// [`SchemeKind::build`]. A member is `Clone` with an in-place
/// `clone_from` (`cppc_cache_sim::clone_in_place!`), which gives it
/// [`WarmClone`].
pub trait ProtectionScheme: WarmClone + Any + Send {
    /// The per-write callback: store `value` at `addr`, refreshing the
    /// scheme's code (and running any scheme-specific write plumbing —
    /// CPPC's R1 XOR fold, 2D parity's read-before-write).
    ///
    /// # Errors
    ///
    /// Returns [`SchemeFault`] when the write path trips over a fault
    /// it cannot repair (e.g. an eviction of already-corrupt data).
    fn write_word(
        &mut self,
        addr: u64,
        value: u64,
        mem: &mut MainMemory,
    ) -> Result<(), SchemeFault>;

    /// The check/correct read hook: load the word at `addr`, verifying
    /// the code and correcting on a mismatch where the scheme can.
    ///
    /// # Errors
    ///
    /// Returns [`SchemeFault`] on a detected-but-unrecoverable fault.
    fn read_word(&mut self, addr: u64, mem: &mut MainMemory) -> Result<u64, SchemeFault>;

    /// Reads the word at `addr` without side effects, if resident.
    fn peek_word(&self, addr: u64) -> Option<u64>;

    /// The physical data-array layout (for fault targeting).
    fn layout(&self) -> &PhysicalLayout;

    /// Applies a raw bit-flip pattern to the data array, returning how
    /// many flips landed on resident blocks.
    fn inject(&mut self, pattern: &FaultPattern) -> usize;

    /// Samples one strike from `model` into `pattern` and applies it,
    /// returning the number of flips that landed.
    ///
    /// The default samples a logical-row pattern over the way-0 half of
    /// the array (the coverage-matrix methodology: way 0 is the dirty
    /// way) and consumes exactly one `u64` from `rng`, matching the
    /// historical baked-in campaign closures draw for draw. Schemes
    /// whose physical array is organised differently override this —
    /// interleaved SECDED translates the model into a physical strike
    /// on its 8-way interleaved array and leaves `pattern` alone.
    fn inject_model(
        &mut self,
        model: FaultModel,
        rng: &mut StdRng,
        pattern: &mut FaultPattern,
    ) -> usize {
        let rows = self.layout().num_rows() / 2;
        FaultGenerator::new(rows, rng.random()).sample_into(model, pattern);
        self.inject(pattern)
    }

    /// Runs the scheme's whole-array recovery procedure and grades the
    /// result against ground truth.
    ///
    /// Each scheme classifies with its own semantics, mirroring the
    /// historical coverage-matrix closures: correction-capable schemes
    /// return [`Outcome::Corrected`] when every word verifies, while 1D
    /// parity — detection only — returns [`Outcome::Masked`] when every
    /// load matches (even flips per parity group were hidden, harmless
    /// this time).
    fn classify(&mut self, truth: &[(u64, u64)], mem: &mut MainMemory) -> Outcome;

    /// Energy-relevant operation counts accumulated so far.
    fn ops(&self) -> SchemeOps;

    /// Generic cache traffic statistics (hits, fills, write-backs).
    fn cache_stats(&self) -> &CacheStats;
}

/// Applies each `(row, mask)` pair of `masks` that lands on a valid
/// block of `cache` (rows map to blocks through `layout`) by XORing the
/// mask into its word, and drops the rest: nothing is stored in an
/// invalid way. Returns how many bits landed. Every protected cache's
/// fault injection ends here.
pub(crate) fn apply_masks(
    cache: &mut Cache,
    layout: &PhysicalLayout,
    masks: &[(usize, u64)],
) -> usize {
    let mut applied = 0;
    for &(row, mask) in masks {
        let (set, way, word) = layout.location_of(row);
        if cache.block(set, way).is_valid() {
            cache.block_mut(set, way).xor_word(word, mask);
            applied += mask.count_ones() as usize;
        }
    }
    applied
}

/// Grades a run by loading every truth word through `load`, in order:
/// a refused load is a DUE, a wrong value an SDC, and a run in which
/// every load returns its truth value grades `clean`.
pub(crate) fn grade_loads<E>(
    truth: &[(u64, u64)],
    clean: Outcome,
    mut load: impl FnMut(u64) -> Result<u64, E>,
) -> Outcome {
    for &(addr, v) in truth {
        match load(addr) {
            Err(_) => return Outcome::DetectedUnrecoverable,
            Ok(got) if got != v => return Outcome::SilentCorruption,
            Ok(_) => {}
        }
    }
    clean
}

/// Grades a whole-array recovery: a failed one is a DUE; after a
/// successful one, a truth word that does not read back is an SDC.
pub(crate) fn grade_recovered(
    recovered: bool,
    truth: &[(u64, u64)],
    peek: impl Fn(u64) -> Option<u64>,
) -> Outcome {
    if !recovered {
        Outcome::DetectedUnrecoverable
    } else if truth.iter().all(|&(addr, v)| peek(addr) == Some(v)) {
        Outcome::Corrected
    } else {
        Outcome::SilentCorruption
    }
}

/// The scheme selector: every member of the zoo, by wire name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// CPPC itself (the paper's design).
    Cppc,
    /// One-dimensional interleaved parity, detection only.
    Parity1d,
    /// SECDED per word with 8-way physical bit interleaving.
    SecdedInterleaved,
    /// Two-dimensional parity (horizontal interleaved + vertical rows).
    Parity2d,
    /// Silent-write-aware low-power ECC (related work).
    SilentWriteEcc,
    /// HARP-style on-die ECC with an error-profiling pass (related
    /// work).
    HarpOdecc,
}

impl SchemeKind {
    /// Every scheme, in catalog order.
    pub const ALL: [SchemeKind; 6] = [
        SchemeKind::Cppc,
        SchemeKind::Parity1d,
        SchemeKind::SecdedInterleaved,
        SchemeKind::Parity2d,
        SchemeKind::SilentWriteEcc,
        SchemeKind::HarpOdecc,
    ];

    /// The selector's wire name (`cppc-cli campaign --scheme <name>`).
    #[must_use]
    pub fn name(self) -> &'static str {
        self.descriptor().name
    }

    /// Parses a wire name.
    ///
    /// # Errors
    ///
    /// Returns a message naming the unknown scheme and listing the
    /// known ones.
    pub fn parse(name: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|k| k.name() == name)
            .ok_or_else(|| {
                let known: Vec<&str> = Self::ALL.iter().map(|k| k.name()).collect();
                format!("unknown scheme '{name}' (use {})", known.join("|"))
            })
    }

    /// The scheme's static descriptor (without building a cache).
    #[must_use]
    pub fn descriptor(self) -> &'static SchemeDescriptor {
        match self {
            SchemeKind::Cppc => &CPPC_DESCRIPTOR,
            SchemeKind::Parity1d => &PARITY1D_DESCRIPTOR,
            SchemeKind::SecdedInterleaved => &SECDED_DESCRIPTOR,
            SchemeKind::Parity2d => &PARITY2D_DESCRIPTOR,
            SchemeKind::SilentWriteEcc => &crate::silent::SILENT_WRITE_ECC_DESCRIPTOR,
            SchemeKind::HarpOdecc => &crate::harp::HARP_ODECC_DESCRIPTOR,
        }
    }

    /// Builds the scheme over a cache of geometry `geo`.
    ///
    /// `config` parameterizes CPPC only (register pairs, parity ways,
    /// byte shifting); the other schemes use their paper
    /// configurations: 8-way parity, 8-way SECDED interleaving, one
    /// vertical parity row.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when `config` is invalid for CPPC.
    pub fn build(
        self,
        geo: CacheGeometry,
        config: CppcConfig,
    ) -> Result<Box<dyn ProtectionScheme>, ConfigError> {
        register_metrics();
        let policy = ReplacementPolicy::Lru;
        Ok(match self {
            SchemeKind::Cppc => Box::new(CppcCache::new_l1(geo, config, policy)?),
            SchemeKind::Parity1d => Box::new(OneDimParityCache::new(geo, policy)),
            SchemeKind::SecdedInterleaved => Box::new(SecdedCache::new(geo, policy)),
            SchemeKind::Parity2d => Box::new(TwoDimParityCache::new(geo, 1, policy)),
            SchemeKind::SilentWriteEcc => {
                Box::new(crate::silent::SilentWriteEccScheme::new(geo, policy))
            }
            SchemeKind::HarpOdecc => Box::new(crate::harp::HarpOdeccScheme::new(geo, policy)),
        })
    }
}

impl fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

// ======================================================================
// The paper's four schemes (the baselines' impls live in `baselines`)
// ======================================================================

static CPPC_DESCRIPTOR: SchemeDescriptor = SchemeDescriptor {
    name: "cppc",
    title: "CPPC — correctable parity protected cache",
    reference: "Manoochehri, Annavaram & Dubois, ISCA 2011 (the reproduced paper)",
    summary: "Interleaved parity per word for detection plus two XOR checkpoint registers \
              (R1 folds dirty data in, R2 folds evicted dirty data out); their difference \
              reconstructs any single faulty dirty word, and byte shifting spreads spatial \
              multi-bit strikes across parity groups so the locator can pin each faulty \
              word down. Clean faults are re-fetched from below.",
    pricing: ProtectionKind::Cppc { ways: 8 },
    extra_state: "one R1/R2 64-bit register pair per parity interleave (paper \
                  configuration: 1 pair, byte shifting on)",
    detection: "any fault a parity way sees (odd flips per group)",
    correction: "all dirty-word faults locatable by parity groups + byte shifting; \
                 spatial MBEs up to 8x8 except the irreducible solid-square/distance-4 \
                 patterns with one pair (DUE, never SDC)",
};

static PARITY1D_DESCRIPTOR: SchemeDescriptor = SchemeDescriptor {
    name: "parity1d",
    title: "1D interleaved parity (detection only)",
    reference: "paper §6 baseline",
    summary: "Eight interleaved parity bits per 64-bit word. Detection only: a fault in a \
              clean word is repaired by re-fetching from the next level; a fault in a \
              dirty word has no redundant copy anywhere and halts the machine — the \
              paper's motivating failure mode for write-back caches.",
    pricing: ProtectionKind::OneDimParity { ways: 8 },
    extra_state: "none",
    detection: "odd flips per parity group",
    correction: "clean words only (re-fetch); dirty faults are fatal (DUE)",
};

static SECDED_DESCRIPTOR: SchemeDescriptor = SchemeDescriptor {
    name: "secded-interleaved",
    title: "SECDED (72,64) with 8-way physical interleaving",
    reference: "paper §6 baseline",
    summary: "A (72,64) Hsiao SECDED code per word, with the data array physically \
              interleaved 8-way so a spatial multi-bit strike decomposes into at most one \
              flipped bit per logical word — each correctable on its own. Pays the 8x \
              bitline activation the interleaving implies on every access.",
    pricing: ProtectionKind::Secded { interleaved: true },
    extra_state: "none",
    detection: "single and double bit errors per word (guaranteed); wider strikes \
                decompose across the interleave",
    correction: "one bit per word — with 8-way interleaving, spatial strikes up to 8 \
                 columns wide",
};

static PARITY2D_DESCRIPTOR: SchemeDescriptor = SchemeDescriptor {
    name: "parity2d",
    title: "Two-dimensional parity",
    reference: "paper §6 baseline (Kim et al. style)",
    summary: "Eight-way horizontal interleaved parity per word plus vertical parity rows \
              (one in the paper's evaluated configuration). Horizontal parity locates the \
              faulty row, the vertical row rebuilds it — but every store and every fill \
              pays a read-before-write to keep the vertical parity current, and faults in \
              multiple rows of one vertical group are unrecoverable.",
    pricing: ProtectionKind::TwoDimParity { ways: 8 },
    extra_state: "vertical parity rows in the array (1 row in the evaluated config)",
    detection: "odd flips per horizontal parity group",
    correction: "any single faulty row per vertical parity group",
};

impl ProtectionScheme for CppcCache {
    fn write_word(
        &mut self,
        addr: u64,
        value: u64,
        mem: &mut MainMemory,
    ) -> Result<(), SchemeFault> {
        self.store_word(addr, value, mem).map_err(SchemeFault::from)
    }

    fn read_word(&mut self, addr: u64, mem: &mut MainMemory) -> Result<u64, SchemeFault> {
        self.load_word(addr, mem).map_err(SchemeFault::from)
    }

    fn peek_word(&self, addr: u64) -> Option<u64> {
        CppcCache::peek_word(self, addr)
    }

    fn layout(&self) -> &PhysicalLayout {
        CppcCache::layout(self)
    }

    fn inject(&mut self, pattern: &FaultPattern) -> usize {
        CppcCache::inject(self, pattern)
    }

    fn classify(&mut self, truth: &[(u64, u64)], mem: &mut MainMemory) -> Outcome {
        let recovered = self.recover_all(mem).is_ok();
        grade_recovered(recovered, truth, |addr| CppcCache::peek_word(self, addr))
    }

    fn ops(&self) -> SchemeOps {
        let stats = CppcCache::cache_stats(self);
        SchemeOps {
            writes: stats.store_hits + stats.fills,
            read_before_writes: stats.stores_to_dirty,
            ..SchemeOps::default()
        }
    }

    fn cache_stats(&self) -> &CacheStats {
        CppcCache::cache_stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cppc_campaign::rng::SeedableRng;

    fn geometry() -> CacheGeometry {
        CacheGeometry::new(2048, 2, 32).unwrap()
    }

    fn fill(scheme: &mut dyn ProtectionScheme, mem: &mut MainMemory) -> Vec<(u64, u64)> {
        let geo = geometry();
        let mut rng = StdRng::seed_from_u64(7);
        let mut truth = Vec::new();
        for set in 0..geo.num_sets() {
            for word in 0..geo.words_per_block() {
                let addr = geo.address_of(0, set) + (word * 8) as u64;
                let v: u64 = rng.random();
                scheme.write_word(addr, v, mem).unwrap();
                truth.push((addr, v));
            }
        }
        truth
    }

    #[test]
    fn names_parse_and_roundtrip() {
        for kind in SchemeKind::ALL {
            assert_eq!(SchemeKind::parse(kind.name()), Ok(kind));
            assert_eq!(kind.to_string(), kind.name());
        }
        let err = SchemeKind::parse("hamming").unwrap_err();
        assert!(err.contains("cppc"), "{err}");
        assert!(err.contains("harp-odecc"), "{err}");
    }

    #[test]
    fn descriptors_are_complete() {
        for kind in SchemeKind::ALL {
            let d = kind.descriptor();
            assert_eq!(d.name, kind.name());
            assert!(!d.summary.is_empty());
            assert!(!d.correction.is_empty());
            assert!(d.storage_overhead_pct() > 0.0, "{}", d.name);
        }
        assert_eq!(SchemeKind::Cppc.descriptor().storage_overhead_pct(), 12.5);
        // Each zoo member is priced at its paper configuration.
        let pricing = |kind: SchemeKind| kind.descriptor().pricing;
        assert_eq!(pricing(SchemeKind::Cppc), ProtectionKind::Cppc { ways: 8 });
        assert_eq!(
            pricing(SchemeKind::Parity1d),
            ProtectionKind::OneDimParity { ways: 8 }
        );
        assert_eq!(
            pricing(SchemeKind::SecdedInterleaved),
            ProtectionKind::Secded { interleaved: true }
        );
        assert_eq!(
            pricing(SchemeKind::Parity2d),
            ProtectionKind::TwoDimParity { ways: 8 }
        );
        assert_eq!(
            pricing(SchemeKind::SilentWriteEcc),
            ProtectionKind::SilentWriteEcc
        );
        assert_eq!(pricing(SchemeKind::HarpOdecc), ProtectionKind::OnDieEcc);
        assert_eq!(
            pricing(SchemeKind::SecdedInterleaved).interleave_degree(),
            8
        );
    }

    #[test]
    fn every_scheme_stores_and_reads_back() {
        for kind in SchemeKind::ALL {
            let mut mem = MainMemory::new();
            let mut scheme = kind.build(geometry(), CppcConfig::paper()).unwrap();
            let truth = fill(scheme.as_mut(), &mut mem);
            for &(addr, v) in &truth {
                assert_eq!(scheme.peek_word(addr), Some(v), "{kind}");
                assert_eq!(scheme.read_word(addr, &mut mem).unwrap(), v, "{kind}");
            }
            assert!(scheme.ops().writes > 0, "{kind}");
        }
    }

    #[test]
    fn fault_free_classify_is_clean_for_every_scheme() {
        for kind in SchemeKind::ALL {
            let mut mem = MainMemory::new();
            let mut scheme = kind.build(geometry(), CppcConfig::paper()).unwrap();
            let truth = fill(scheme.as_mut(), &mut mem);
            let outcome = scheme.classify(&truth, &mut mem);
            assert!(
                matches!(outcome, Outcome::Corrected | Outcome::Masked),
                "{kind}: {outcome:?}"
            );
        }
    }

    #[test]
    fn single_bit_fault_never_silently_corrupts() {
        for kind in SchemeKind::ALL {
            let mut mem = MainMemory::new();
            let mut scheme = kind.build(geometry(), CppcConfig::paper()).unwrap();
            let truth = fill(scheme.as_mut(), &mut mem);
            let mut rng = StdRng::seed_from_u64(11);
            let mut pattern = FaultPattern::empty();
            let landed = scheme.inject_model(FaultModel::TemporalSingleBit, &mut rng, &mut pattern);
            assert!(landed > 0, "{kind}: strike must land on the dirty way");
            let outcome = scheme.classify(&truth, &mut mem);
            assert_ne!(outcome, Outcome::SilentCorruption, "{kind}");
        }
    }
}
