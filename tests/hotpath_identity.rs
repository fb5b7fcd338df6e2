//! Bit-identity guard for the allocation-free hot path.
//!
//! The golden values below were captured on the pre-flattening tree
//! (nested per-set vectors of per-block structs, word-keyed `MainMemory`,
//! allocating `Backing::fetch_block`). The storage refactor must not
//! change a single counter, dirty-fraction bit, campaign tally or
//! checkpoint byte — on any thread count. The Tavg bits are the one
//! exception: they follow the interval definition in
//! `cppc_cache_sim::hierarchy`, which closes an interval at the
//! writeback that evicts a dirty word or block.

use cppc::cache_sim::geometry::CacheGeometry;
use cppc::cache_sim::hierarchy::{Level, TwoLevelHierarchy};
use cppc::cache_sim::memory::MainMemory;
use cppc::cache_sim::replacement::ReplacementPolicy;
use cppc::cache_sim::stats::CacheStats;
use cppc::core::{CppcCache, CppcConfig};
use cppc::fault::campaign::Outcome;
use cppc::fault::model::{FaultGenerator, FaultModel};
use cppc::timing::MachineConfig;
use cppc::workloads::BenchmarkProfile;
use cppc_campaign::rng::rngs::StdRng;
use cppc_campaign::rng::{RngExt, SeedableRng};
use cppc_campaign::{run, run_with, CampaignConfig, CheckpointPolicy, PerTrial, RunOpts};
use cppc_fault::campaign::OutcomeTally;
use cppc_workloads::{spec2000_profiles, TraceGenerator};

const EVAL_SEED: u64 = 0x15CA_2011;

fn run_profile(profile: &BenchmarkProfile, ops: usize, seed: u64) -> TwoLevelHierarchy {
    let machine = MachineConfig::table1();
    let l1 = machine.l1d.geometry().expect("valid L1");
    let l2 = machine.l2.geometry().expect("valid L2");
    let mut h = TwoLevelHierarchy::new(l1, l2, ReplacementPolicy::Lru);
    h.set_cycles_per_op(profile.instructions_per_memop().round().max(1.0) as u64);
    h.set_sample_interval(2048);
    let mut generator = TraceGenerator::new(profile, seed);
    h.run(generator.by_ref().take(ops / 2));
    h.reset_stats();
    h.run(generator.take(ops));
    h
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn geometry() -> CacheGeometry {
    CacheGeometry::new(2048, 2, 32).unwrap()
}

fn oracle(seed: u64) -> Vec<(u64, u64)> {
    let geo = geometry();
    let mut rng = StdRng::seed_from_u64(seed);
    let rows = geo.num_sets() * geo.words_per_block();
    (0..rows)
        .map(|row| {
            let set = row / geo.words_per_block();
            let word = row % geo.words_per_block();
            let addr = geo.address_of(0, set) + (word * 8) as u64;
            (addr, rng.random())
        })
        .collect()
}

fn mbe_experiment(model: FaultModel) -> impl Fn(&mut StdRng, u64) -> Outcome + Sync {
    move |rng, trial| {
        let mut mem = MainMemory::new();
        let mut cache =
            CppcCache::new_l1(geometry(), CppcConfig::paper(), ReplacementPolicy::Lru).unwrap();
        let truth = oracle(trial);
        for &(addr, v) in &truth {
            cache.store_word(addr, v, &mut mem).unwrap();
        }
        let rows = cache.layout().num_rows() / 2;
        let mut generator = FaultGenerator::new(rows, rng.random());
        let pattern = generator.sample(model);
        if cache.inject(&pattern) == 0 {
            return Outcome::Masked;
        }
        match cache.recover_all(&mut mem) {
            Err(_) => Outcome::DetectedUnrecoverable,
            Ok(_) => {
                for &(addr, v) in &truth {
                    if cache.peek_word(addr) != Some(v) {
                        return Outcome::SilentCorruption;
                    }
                }
                Outcome::Corrected
            }
        }
    }
}

fn solid_square() -> FaultModel {
    FaultModel::SpatialSquare {
        rows: 4,
        cols: 4,
        density: 1.0,
    }
}

fn sparse_square() -> FaultModel {
    FaultModel::SpatialSquare {
        rows: 8,
        cols: 8,
        density: 0.4,
    }
}

#[test]
fn two_level_stats_match_golden_gzip() {
    let p = &spec2000_profiles()[0];
    assert_eq!(p.name, "gzip");
    let h = run_profile(p, 60_000, EVAL_SEED);
    let (l1, l2) = h.stats();
    let golden_l1 = CacheStats {
        load_hits: 36829,
        load_misses: 2709,
        store_hits: 17727,
        store_misses: 2735,
        stores_to_dirty: 9681,
        writebacks: 3006,
        writeback_words: 11538,
        clean_evictions: 2438,
        fills: 5444,
        dirty_word_samples_sum: 63720,
        dirty_word_samples: 29,
    };
    let golden_l2 = CacheStats {
        load_hits: 2624,
        load_misses: 2820,
        store_hits: 3006,
        store_misses: 0,
        stores_to_dirty: 167,
        writebacks: 0,
        writeback_words: 0,
        clean_evictions: 0,
        fills: 2820,
        dirty_word_samples_sum: 244077,
        dirty_word_samples: 29,
    };
    assert_eq!(l1, golden_l1);
    assert_eq!(l2, golden_l2);
    assert_eq!(h.l1_dirty_fraction().to_bits(), 0x3fe12a7b9611a7b9);
    assert_eq!(h.l2_dirty_fraction().to_bits(), 0x3fb07039611a7b96);
    assert_eq!(h.l1_tavg().unwrap().to_bits(), 0x40c2fe0c6046c9d8);
    assert_eq!(h.l2_tavg().unwrap().to_bits(), 0x40df28aaee22b403);
}

#[test]
fn two_level_stats_match_golden_mcf() {
    let p = &spec2000_profiles()[3];
    assert_eq!(p.name, "mcf");
    let h = run_profile(p, 60_000, EVAL_SEED);
    let (l1, l2) = h.stats();
    let golden_l1 = CacheStats {
        load_hits: 14141,
        load_misses: 33620,
        store_hits: 6225,
        store_misses: 6014,
        stores_to_dirty: 1747,
        writebacks: 7664,
        writeback_words: 10511,
        clean_evictions: 31970,
        fills: 39634,
        dirty_word_samples_sum: 8336,
        dirty_word_samples: 29,
    };
    let golden_l2 = CacheStats {
        load_hits: 13371,
        load_misses: 26263,
        store_hits: 7664,
        store_misses: 0,
        stores_to_dirty: 992,
        writebacks: 2244,
        writeback_words: 2558,
        clean_evictions: 10128,
        fills: 26263,
        dirty_word_samples_sum: 243797,
        dirty_word_samples: 29,
    };
    assert_eq!(l1, golden_l1);
    assert_eq!(l2, golden_l2);
    assert_eq!(h.l1_dirty_fraction().to_bits(), 0x3fb1f72c234f72c2);
    assert_eq!(h.l2_dirty_fraction().to_bits(), 0x3fb06b658469ee58);
    assert_eq!(h.l1_tavg().unwrap().to_bits(), 0x40a0ed657efda165);
    assert_eq!(h.l2_tavg().unwrap().to_bits(), 0x40e1a14fe81fe62b);
}

#[test]
fn three_level_stats_match_golden() {
    let p = &spec2000_profiles()[0];
    let mut h = TwoLevelHierarchy::with_l3(
        CacheGeometry::new(8 * 1024, 2, 32).unwrap(),
        CacheGeometry::new(64 * 1024, 4, 32).unwrap(),
        CacheGeometry::new(256 * 1024, 8, 32).unwrap(),
        ReplacementPolicy::Lru,
    );
    h.run(TraceGenerator::new(p, 0xA5).take(50_000));
    let (l1, l2) = h.stats();
    let l3 = h.level_stats(Level::L3).expect("three levels");
    let golden_l1 = CacheStats {
        load_hits: 23493,
        load_misses: 9203,
        store_hits: 14277,
        store_misses: 3027,
        stores_to_dirty: 5608,
        writebacks: 3583,
        writeback_words: 11389,
        clean_evictions: 8391,
        fills: 12230,
        dirty_word_samples_sum: 12910,
        dirty_word_samples: 48,
    };
    let golden_l2 = CacheStats {
        load_hits: 9650,
        load_misses: 2580,
        store_hits: 3583,
        store_misses: 0,
        stores_to_dirty: 1394,
        writebacks: 320,
        writeback_words: 1112,
        clean_evictions: 212,
        fills: 2580,
        dirty_word_samples_sum: 192520,
        dirty_word_samples: 48,
    };
    let golden_l3 = CacheStats {
        load_hits: 24,
        load_misses: 2556,
        store_hits: 320,
        store_misses: 0,
        stores_to_dirty: 0,
        writebacks: 0,
        writeback_words: 0,
        clean_evictions: 0,
        fills: 2556,
        dirty_word_samples_sum: 5559,
        dirty_word_samples: 48,
    };
    assert_eq!(l1, golden_l1);
    assert_eq!(l2, golden_l2);
    assert_eq!(l3, golden_l3);
    assert_eq!(h.memory_reads(), 10224);
    assert_eq!(h.memory_writes(), 0);
    assert_eq!(h.memory_footprint_words(), 0);
}

#[test]
fn campaign_tallies_match_golden_at_every_thread_count() {
    let solid = mbe_experiment(solid_square());
    let sparse = mbe_experiment(sparse_square());
    for threads in [1usize, 2, 8] {
        let cfg = |trials| CampaignConfig::new(0xC0DE, trials).threads(threads);
        let t: OutcomeTally = run(&cfg(2000), &solid).result;
        assert_eq!(
            (t.masked, t.corrected, t.due, t.sdc),
            (0, 2000, 0, 0),
            "solid tally diverged at {threads} threads"
        );
        let t: OutcomeTally = run(&cfg(600), &sparse).result;
        assert_eq!(
            (t.masked, t.corrected, t.due, t.sdc),
            (0, 166, 434, 0),
            "sparse tally diverged at {threads} threads"
        );
    }
}

#[test]
fn checkpoint_bytes_match_golden() {
    let dir = std::env::temp_dir().join("cppc_hotpath_identity");
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join("golden.ckpt");
    let _ = std::fs::remove_file(&path);
    let cfg = CampaignConfig::new(0xC0DE, 500).threads(2);
    let mut policy = CheckpointPolicy::new(&path);
    policy.every = std::time::Duration::ZERO;
    let experiment = mbe_experiment(solid_square());
    let report =
        run_with::<OutcomeTally, _>(&cfg, &PerTrial(experiment), RunOpts::checkpointed(&policy))
            .unwrap();
    assert!(report.is_complete());
    let bytes = std::fs::read(&path).unwrap();
    assert_eq!(bytes.len(), 450);
    assert_eq!(fnv1a(&bytes), 0x10d0c5a986123cc0);
    let _ = std::fs::remove_file(&path);
}
