//! HashMap-oracle differential test for the flat (SoA) cache storage.
//!
//! Each cache keeps its blocks in one contiguous tags/dirty/words arena,
//! and blocks move between levels by `fetch_block_into` into reused
//! buffers. This test drives long randomised load/store/byte traffic
//! through the deepest composition path, a three-level hierarchy, and
//! checks every loaded value against a flat `HashMap` memory oracle.

use std::collections::HashMap;

use cppc_cache_sim::geometry::CacheGeometry;
use cppc_cache_sim::hierarchy::{Level, MemOp, TwoLevelHierarchy};
use cppc_cache_sim::replacement::ReplacementPolicy;
use cppc_campaign::rng::rngs::StdRng;
use cppc_campaign::rng::{RngExt, SeedableRng};

/// Applies a byte store to the oracle's word map.
fn oracle_store_byte(oracle: &mut HashMap<u64, u64>, addr: u64, value: u8) {
    let word = addr & !7;
    let shift = 8 * (addr % 8);
    let old = *oracle.get(&word).unwrap_or(&0);
    oracle.insert(
        word,
        (old & !(0xFFu64 << shift)) | (u64::from(value) << shift),
    );
}

#[test]
fn three_level_hierarchy_matches_oracle() {
    // Small, differently-shaped levels so blocks migrate through all
    // three on a working set ~4x the L3.
    let l1 = CacheGeometry::new(2 * 1024, 2, 32).unwrap();
    let l2 = CacheGeometry::new(8 * 1024, 4, 32).unwrap();
    let l3 = CacheGeometry::new(16 * 1024, 8, 32).unwrap();
    let mut h = TwoLevelHierarchy::with_l3(l1, l2, l3, ReplacementPolicy::Lru);
    let mut rng = StdRng::seed_from_u64(0xF1A7);
    let mut oracle: HashMap<u64, u64> = HashMap::new();
    for _ in 0..60_000 {
        let addr = rng.random_range(0..64 * 1024u64);
        let roll: f64 = rng.random();
        if roll < 0.30 {
            let v: u64 = rng.random();
            h.step(MemOp::Store(addr & !7, v));
            oracle.insert(addr & !7, v);
        } else if roll < 0.40 {
            let v: u8 = rng.random();
            h.step(MemOp::StoreByte(addr, v));
            oracle_store_byte(&mut oracle, addr, v);
        } else {
            let got = h.step(MemOp::Load(addr & !7));
            assert_eq!(
                got,
                *oracle.get(&(addr & !7)).unwrap_or(&0),
                "addr {addr:#x}"
            );
        }
    }
    // The working set must actually have thrashed every level.
    assert!(
        h.level_stats(Level::L3).unwrap().writebacks > 0,
        "L3 never evicted dirty data"
    );
    assert!(h.memory_reads() > 0);
}
