//! Silent-write-aware low-power ECC: a SECDED-protected cache that
//! elides the data write *and* the code refresh when a store carries
//! the value already held in the array ("Using Silent Writes in
//! Low-Power Traffic-Aware ECC", see PAPERS.md).
//!
//! Silent stores are common (stack re-initialisation, zero rewrites,
//! spin flags), and for an ECC cache each one normally costs a data
//! write plus a check-bit write. Skipping both saves write energy with
//! no loss of protection — *if* the stored word really equals the
//! incoming value. The hazard this model captures: the silent-store
//! comparison reads the **stored** word, so a latent fault in the
//! array makes the comparison see a corrupted value, the "silent"
//! elision is refused, and the store overwrites the fault (which is
//! actually the safe direction — the interesting accounting is the
//! energy saved, surfaced via [`SchemeOps::silent_writes`] and the
//! `scheme.silent_writes` metric).
//!
//! The underlying code here is per-word (72,64) SECDED struck in
//! logical rows, **without** physical interleaving — the low-power
//! design point: silent-write elision recovers write energy instead of
//! paying the 8x bitline activation interleaving costs on every access. The trade shows up
//! in campaigns: wide spatial strikes can defeat a non-interleaved
//! SECDED word (miscorrection → SDC), which the comparison table in
//! `docs/SCHEMES.md` makes visible next to the interleaved baseline.

use cppc_cache_sim::geometry::CacheGeometry;
use cppc_cache_sim::memory::MainMemory;
use cppc_cache_sim::replacement::ReplacementPolicy;
use cppc_cache_sim::stats::CacheStats;
use cppc_energy::ProtectionKind;
use cppc_fault::campaign::Outcome;
use cppc_fault::layout::PhysicalLayout;
use cppc_fault::model::FaultPattern;

use crate::baselines::SecdedCache;
use crate::scheme::{ProtectionScheme, SchemeDescriptor, SchemeFault, SchemeOps};

/// Descriptor for [`SilentWriteEccScheme`] (`--scheme silent-write-ecc`).
pub static SILENT_WRITE_ECC_DESCRIPTOR: SchemeDescriptor = SchemeDescriptor {
    name: "silent-write-ecc",
    title: "Silent-write-aware ECC (low-power SECDED)",
    reference: "related work: Using Silent Writes in Low-Power Traffic-Aware ECC (PAPERS.md)",
    summary: "Per-word (72,64) SECDED, non-interleaved, with silent-store elision: every \
              store first compares the incoming value against the stored word and skips \
              both the data write and the check-bit refresh when they match. Elisions are \
              counted in the scheme.silent_writes metric and priced as free writes by the \
              energy model. Without interleaving, spatial strikes wider than two bits per \
              word can miscorrect — the energy/reliability trade the catalog table shows.",
    pricing: ProtectionKind::SilentWriteEcc,
    extra_state: "one 64-bit comparator on the store path (reads the stored word)",
    detection: "single and double bit errors per word; wider per-word damage can alias",
    correction: "one bit per word (no interleave decomposition of spatial strikes)",
};

/// A SECDED cache with silent-store elision behind the
/// [`ProtectionScheme`] trait.
pub struct SilentWriteEccScheme {
    inner: SecdedCache,
    silent_writes: u64,
}

cppc_cache_sim::clone_in_place! { SilentWriteEccScheme { inner, silent_writes } }

impl SilentWriteEccScheme {
    /// Builds the scheme over a cache of geometry `geo`
    /// (non-interleaved SECDED — the low-power design point).
    #[must_use]
    pub fn new(geo: CacheGeometry, policy: ReplacementPolicy) -> Self {
        SilentWriteEccScheme {
            inner: SecdedCache::new(geo, policy),
            silent_writes: 0,
        }
    }

    /// Stores elided as silent so far.
    #[must_use]
    pub fn silent_writes(&self) -> u64 {
        self.silent_writes
    }
}

impl ProtectionScheme for SilentWriteEccScheme {
    fn write_word(
        &mut self,
        addr: u64,
        value: u64,
        mem: &mut MainMemory,
    ) -> Result<(), SchemeFault> {
        // The silent-store comparison reads the *stored* word — a
        // resident match elides the data write and the code refresh.
        // (A latent fault makes the comparison miss, so the store
        // proceeds and overwrites it: safe, just not energy-free.)
        if self.inner.peek_word(addr) == Some(value) {
            self.silent_writes += 1;
            crate::scheme::SILENT_WRITES.inc();
            return Ok(());
        }
        self.inner.store_word(addr, value, mem);
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
        self.inner.classify(truth, mem)
    }

    fn ops(&self) -> SchemeOps {
        let stats = self.inner.cache_stats();
        SchemeOps {
            writes: stats.store_hits + stats.fills,
            silent_writes: self.silent_writes,
            rmw_reads: self.inner.rmw_reads(),
            corrected: self.inner.corrected(),
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

    fn geo() -> CacheGeometry {
        CacheGeometry::new(1024, 2, 32).unwrap()
    }

    #[test]
    fn repeated_identical_store_is_elided() {
        let mut mem = MainMemory::new();
        let mut s = SilentWriteEccScheme::new(geo(), ReplacementPolicy::Lru);
        s.write_word(0x40, 0xAB, &mut mem).unwrap();
        assert_eq!(s.silent_writes(), 0);
        s.write_word(0x40, 0xAB, &mut mem).unwrap();
        s.write_word(0x40, 0xAB, &mut mem).unwrap();
        assert_eq!(s.silent_writes(), 2);
        assert_eq!(s.ops().silent_writes, 2);
        // A different value is a real store again.
        s.write_word(0x40, 0xCD, &mut mem).unwrap();
        assert_eq!(s.silent_writes(), 2);
        assert_eq!(s.read_word(0x40, &mut mem).unwrap(), 0xCD);
    }

    #[test]
    fn corrupted_word_defeats_the_elision_and_is_overwritten() {
        let mut mem = MainMemory::new();
        let mut s = SilentWriteEccScheme::new(geo(), ReplacementPolicy::Lru);
        s.write_word(0x40, 0xAB, &mut mem).unwrap();
        // Flip a bit in the stored word: the comparison now misses.
        let row = s.layout().row_of(geo().set_index(0x40), 0, 0);
        s.inject(&FaultPattern::new(vec![cppc_fault::model::BitFlip {
            row,
            col: 1,
        }]));
        s.write_word(0x40, 0xAB, &mut mem).unwrap();
        assert_eq!(s.silent_writes(), 0, "corrupted word is not silent");
        assert_eq!(s.read_word(0x40, &mut mem).unwrap(), 0xAB);
    }
}
