//! End-to-end integration: realistic traces running on a CPPC while
//! faults strike mid-execution, with a golden (fault-free) memory model
//! as the oracle. No scheme interaction may ever return wrong data, and
//! a fault-free run (byte stores included) leaves the same memory image
//! as an unprotected cache.

use cppc::cache_sim::{CacheGeometry, MainMemory, ReplacementPolicy};
use cppc::core::{CppcCache, CppcConfig};
use cppc::fault::model::{FaultGenerator, FaultModel};
use cppc::workloads::{spec2000_profiles, TraceGenerator};
use cppc_cache_sim::hierarchy::MemOp;
use cppc_campaign::rng::rngs::StdRng;
use cppc_campaign::rng::{RngExt, SeedableRng};
use std::collections::HashMap;

/// Runs `ops` operations of a SPEC-like trace on an L1 CPPC backed by
/// main memory, injecting a fault every `fault_every` operations, and
/// checks every load against a software oracle.
fn run_with_faults(config: CppcConfig, model: FaultModel, fault_every: usize, seed: u64) {
    let geo = CacheGeometry::new(8 * 1024, 2, 32).unwrap();
    let mut cache = CppcCache::new_l1(geo, config, ReplacementPolicy::Lru).unwrap();
    let mut mem = MainMemory::new();
    let mut oracle: HashMap<u64, u64> = HashMap::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let profile = spec2000_profiles()[0]; // gzip-like

    let mut generator = FaultGenerator::new(cache.layout().num_rows(), seed ^ 0xF417);
    let mut dues = 0usize;
    for (i, op) in TraceGenerator::new(&profile, seed).take(6_000).enumerate() {
        // Keep addresses inside a modest footprint so the fault generator
        // hits live data often.
        let addr = op.addr() % (64 * 1024);
        let result = match op {
            MemOp::Load(_) => cache.load_word(addr, &mut mem).map(|got| {
                assert_eq!(
                    got,
                    *oracle.get(&addr).unwrap_or(&0),
                    "SDC at op {i}, addr {addr:#x}"
                );
            }),
            MemOp::Store(_, v) => {
                let v = rng.random::<u64>() ^ v;
                let r = cache.store_word(addr, v, &mut mem);
                if r.is_ok() {
                    oracle.insert(addr, v);
                }
                r.map(|_| ())
            }
            MemOp::StoreByte(_, v) => {
                let word_addr = addr & !7;
                let lane = (addr % 8) as u32;
                let r = cache.store_byte(addr, v, &mut mem);
                if r.is_ok() {
                    let old = *oracle.get(&word_addr).unwrap_or(&0);
                    let merged = (old & !(0xFFu64 << (8 * lane))) | (u64::from(v) << (8 * lane));
                    oracle.insert(word_addr, merged);
                }
                r.map(|_| ())
            }
        };
        if result.is_err() {
            // A DUE halts the machine; end this run.
            dues += 1;
            break;
        }
        if i % fault_every == fault_every - 1 {
            cache.inject(&generator.sample(model));
        }
    }
    // DUEs are legal (detected, refused); corruption is not — the
    // assert inside the loop already guarantees that.
    let _ = dues;
}

#[test]
fn single_bit_faults_never_corrupt_paper_config() {
    for seed in 0..8 {
        run_with_faults(CppcConfig::paper(), FaultModel::TemporalSingleBit, 97, seed);
    }
}

#[test]
fn single_bit_faults_never_corrupt_basic_config() {
    for seed in 0..8 {
        run_with_faults(
            CppcConfig::basic(),
            FaultModel::TemporalSingleBit,
            211,
            seed,
        );
    }
}

#[test]
fn small_spatial_squares_never_corrupt() {
    let model = FaultModel::SpatialSquare {
        rows: 3,
        cols: 3,
        density: 1.0,
    };
    for seed in 0..8 {
        run_with_faults(CppcConfig::paper(), model, 151, seed);
    }
}

#[test]
fn vertical_stripes_never_corrupt_two_pairs() {
    let model = FaultModel::VerticalStripe { rows: 4 };
    for seed in 0..8 {
        run_with_faults(CppcConfig::two_pairs(), model, 131, seed);
    }
}

#[test]
fn eight_pairs_handle_dense_squares() {
    let model = FaultModel::SpatialSquare {
        rows: 8,
        cols: 8,
        density: 0.7,
    };
    for seed in 0..8 {
        run_with_faults(CppcConfig::eight_pairs(), model, 173, seed);
    }
}

#[test]
fn flush_after_faulty_run_reaches_memory_correctly() {
    // Store a working set, inject + recover, flush, and compare memory
    // against the oracle — the end-to-end write-back path.
    let geo = CacheGeometry::new(4 * 1024, 2, 32).unwrap();
    let mut cache = CppcCache::new_l1(geo, CppcConfig::paper(), ReplacementPolicy::Lru).unwrap();
    let mut mem = MainMemory::new();
    let mut oracle = HashMap::new();
    let mut rng = StdRng::seed_from_u64(77);
    for _ in 0..2_000 {
        let addr = (rng.random_range(0..16 * 1024u64)) & !7;
        let v: u64 = rng.random();
        cache.store_word(addr, v, &mut mem).unwrap();
        oracle.insert(addr, v);
    }
    let mut generator = FaultGenerator::new(cache.layout().num_rows(), 5);
    for _ in 0..10 {
        cache.inject(&generator.sample(FaultModel::TemporalSingleBit));
        cache.recover_all(&mut mem).unwrap();
    }
    cache.flush(&mut mem).unwrap();
    for (addr, v) in oracle {
        assert_eq!(mem.peek_word(addr), v, "addr {addr:#x}");
    }
}

#[test]
fn byte_stores_flow_through_the_whole_stack() {
    // A profile with byte stores runs through hierarchy + CPPC with the
    // same final memory image as an unprotected run.
    let profile = *spec2000_profiles()
        .iter()
        .find(|p| p.name == "gzip")
        .unwrap();
    assert!(profile.byte_store_fraction > 0.0);

    let geo = CacheGeometry::new(8 * 1024, 2, 32).unwrap();
    let mut protected =
        CppcCache::new_l1(geo, CppcConfig::paper(), ReplacementPolicy::Lru).unwrap();
    let mut mem_p = MainMemory::new();
    let mut plain = cppc::cache_sim::Cache::new(geo, ReplacementPolicy::Lru);
    let mut mem_u = MainMemory::new();

    let mut byte_ops = 0;
    for op in TraceGenerator::new(&profile, 3).take(40_000) {
        match op {
            MemOp::Load(a) => {
                let x = protected.load_word(a, &mut mem_p).unwrap();
                let y = plain.load_word(a, &mut mem_u);
                assert_eq!(x, y);
            }
            MemOp::Store(a, v) => {
                protected.store_word(a, v, &mut mem_p).unwrap();
                plain.store_word(a, v, &mut mem_u);
            }
            MemOp::StoreByte(a, v) => {
                byte_ops += 1;
                protected.store_byte(a, v, &mut mem_p).unwrap();
                plain.store_byte(a, v, &mut mem_u);
            }
        }
    }
    assert!(byte_ops > 100, "byte stores exercised: {byte_ops}");
    assert!(protected.verify_invariant());
    protected.flush(&mut mem_p).unwrap();
    plain.flush(&mut mem_u);
    assert_eq!(mem_p, mem_u, "identical final memory images");
}
