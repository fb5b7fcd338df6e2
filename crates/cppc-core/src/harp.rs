//! HARP-style on-die ECC with an error-profiling pass (see PAPERS.md:
//! "HARP: practically and effectively identifying uncorrectable errors
//! in memory chips").
//!
//! On-die ECC sits *inside* the array and corrects transparently; the
//! system above never sees corrected errors, which makes the
//! uncorrectable ones hard to find until they bite. HARP's insight is
//! that writes are the ground truth: if every written value also
//! reaches a copy the on-die code cannot corrupt, a profiling pass can
//! read the array back, catch the words where the on-die code throws
//! up its hands (or miscorrects against the reference), and repair
//! them from the copy before they become failures.
//!
//! The model here: a per-word (72,64) SECDED array struck in logical
//! rows (non-interleaved — the on-die design point pays no
//! interleaving wiring) operated **write-through**, so main memory
//! always holds the last written value of every profiled word. [`HarpOdeccScheme::profile`] is the
//! error-profiling pass: it re-reads every address the program wrote,
//! counts the reads the on-die code flags uncorrectable
//! (`scheme.harp.profiled_uncorrectable`), and repairs each from the
//! write-through copy (`scheme.harp.repaired`). Campaign
//! classification runs the pass after the strike — a repaired word is
//! a correction the plain non-interleaved SECDED could not have made.

use cppc_cache_sim::geometry::CacheGeometry;
use cppc_cache_sim::memory::MainMemory;
use cppc_cache_sim::replacement::ReplacementPolicy;
use cppc_cache_sim::stats::CacheStats;
use cppc_cache_sim::wordmap::WordSet;
use cppc_energy::ProtectionKind;
use cppc_fault::campaign::Outcome;
use cppc_fault::layout::PhysicalLayout;
use cppc_fault::model::FaultPattern;

use crate::baselines::SecdedCache;
use crate::scheme::{ProtectionScheme, SchemeDescriptor, SchemeFault, SchemeOps};

/// Descriptor for [`HarpOdeccScheme`] (`--scheme harp-odecc`).
pub static HARP_ODECC_DESCRIPTOR: SchemeDescriptor = SchemeDescriptor {
    name: "harp-odecc",
    title: "HARP-style on-die ECC with error profiling",
    reference: "related work: HARP — identifying uncorrectable errors under on-die ECC (PAPERS.md)",
    summary: "Per-word (72,64) SECDED, non-interleaved, operated write-through so memory \
              always holds the last written value of every word. An error-profiling pass \
              re-reads each written address, counts the words the on-die code flags \
              uncorrectable, and repairs them from the write-through copy — turning \
              would-be DUEs into corrections at the cost of write-through traffic. \
              Miscorrections the on-die code does not flag still escape the profiler.",
    pricing: ProtectionKind::OnDieEcc,
    extra_state: "write-through reference copy in the next level; per-address profile list",
    detection: "single and double bit errors per word; the profiling pass additionally \
                surfaces every *flagged* uncorrectable word",
    correction: "one bit per word in-line; any flagged-uncorrectable word via \
                 profile-and-repair from the write-through copy",
};

/// A write-through SECDED cache with a HARP-style profiling pass,
/// behind the [`ProtectionScheme`] trait.
pub struct HarpOdeccScheme {
    inner: SecdedCache,
    /// Addresses the program wrote, deduplicated, in first-write order
    /// — the profile list the error-profiling pass walks.
    written: Vec<u64>,
    /// The members of `written`, for the dedupe on every write.
    seen: WordSet,
    profiled_uncorrectable: u64,
    repaired: u64,
}

cppc_cache_sim::clone_in_place! {
    HarpOdeccScheme { inner, written, seen, profiled_uncorrectable, repaired }
}

impl HarpOdeccScheme {
    /// Builds the scheme over a cache of geometry `geo`
    /// (non-interleaved SECDED, write-through).
    #[must_use]
    pub fn new(geo: CacheGeometry, policy: ReplacementPolicy) -> Self {
        // A campaign trial's warm-up writes every word of the cache
        // once; sizing the list and set for that spares their growth.
        let words = geo.total_words();
        HarpOdeccScheme {
            inner: SecdedCache::new(geo, policy),
            written: Vec::with_capacity(words),
            seen: WordSet::with_capacity_and_hasher(words, Default::default()),
            profiled_uncorrectable: 0,
            repaired: 0,
        }
    }

    /// Words the profiling pass flagged uncorrectable so far.
    #[must_use]
    pub fn profiled_uncorrectable(&self) -> u64 {
        self.profiled_uncorrectable
    }

    /// Flagged words repaired from the write-through copy so far.
    #[must_use]
    pub fn repaired(&self) -> u64 {
        self.repaired
    }

    /// The error-profiling pass: re-read every written address, count
    /// the reads the on-die code flags uncorrectable, and repair each
    /// from the write-through copy in `mem`. Returns how many words
    /// were repaired this pass.
    pub fn profile(&mut self, mem: &mut MainMemory) -> u64 {
        let mut repaired = 0;
        // The repair store below goes to the inner cache, not through
        // `write_word`, so the list does not grow mid-walk.
        for i in 0..self.written.len() {
            let addr = self.written[i];
            if self.inner.peek_word(addr).is_none() {
                continue;
            }
            if self.inner.load_word(addr, mem).is_err() {
                self.profiled_uncorrectable += 1;
                crate::scheme::HARP_PROFILED.inc();
                let reference = mem.peek_word(addr);
                self.inner.store_word(addr, reference, mem);
                self.repaired += 1;
                repaired += 1;
                crate::scheme::HARP_REPAIRS.inc();
            }
        }
        repaired
    }
}

impl ProtectionScheme for HarpOdeccScheme {
    fn write_word(
        &mut self,
        addr: u64,
        value: u64,
        mem: &mut MainMemory,
    ) -> Result<(), SchemeFault> {
        self.inner.store_word(addr, value, mem);
        // Write-through: memory is the profiling pass's ground truth.
        mem.write_word(addr, value);
        if self.seen.insert(addr) {
            self.written.push(addr);
        }
        Ok(())
    }

    fn read_word(&mut self, addr: u64, mem: &mut MainMemory) -> Result<u64, SchemeFault> {
        self.inner.load_word(addr, mem).map_err(SchemeFault::from)
    }

    fn peek_word(&self, addr: u64) -> Option<u64> {
        self.inner.peek_word(addr)
    }

    fn layout(&self) -> &PhysicalLayout {
        self.inner.layout()
    }

    fn inject(&mut self, pattern: &FaultPattern) -> usize {
        self.inner.inject(pattern)
    }

    fn classify(&mut self, truth: &[(u64, u64)], mem: &mut MainMemory) -> Outcome {
        // The profiling pass runs first: flagged-uncorrectable words
        // are repaired from the write-through copy instead of ending
        // the run as DUEs.
        self.profile(mem);
        self.inner.classify(truth, mem)
    }

    fn ops(&self) -> SchemeOps {
        let stats = self.inner.cache_stats();
        SchemeOps {
            writes: stats.store_hits + stats.fills,
            rmw_reads: self.inner.rmw_reads(),
            corrected: self.inner.corrected() + self.repaired,
            dues: self.inner.dues(),
            ..SchemeOps::default()
        }
    }

    fn cache_stats(&self) -> &CacheStats {
        self.inner.cache_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cppc_fault::model::BitFlip;

    fn geo() -> CacheGeometry {
        CacheGeometry::new(1024, 2, 32).unwrap()
    }

    #[test]
    fn write_through_keeps_memory_current() {
        let mut mem = MainMemory::new();
        let mut s = HarpOdeccScheme::new(geo(), ReplacementPolicy::Lru);
        s.write_word(0x40, 0xAB, &mut mem).unwrap();
        s.write_word(0x40, 0xCD, &mut mem).unwrap();
        assert_eq!(mem.peek_word(0x40), 0xCD);
    }

    #[test]
    fn profiling_repairs_a_flagged_uncorrectable_word() {
        let mut mem = MainMemory::new();
        let mut s = HarpOdeccScheme::new(geo(), ReplacementPolicy::Lru);
        s.write_word(0x40, 0xAB, &mut mem).unwrap();
        // A double-bit error per word is flagged uncorrectable by
        // SECDED — exactly what the profiling pass exists to find.
        let row = s.layout().row_of(geo().set_index(0x40), 0, 0);
        s.inject(&FaultPattern::new(vec![
            BitFlip { row, col: 0 },
            BitFlip { row, col: 1 },
        ]));
        assert_eq!(s.profile(&mut mem), 1);
        assert_eq!(s.profiled_uncorrectable(), 1);
        assert_eq!(s.repaired(), 1);
        assert_eq!(s.read_word(0x40, &mut mem).unwrap(), 0xAB);
        // A second pass finds nothing new.
        assert_eq!(s.profile(&mut mem), 0);
    }
}
