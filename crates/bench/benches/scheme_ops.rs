//! Criterion benches comparing the *common-case* store/load path of
//! every protected cache — the software analogue of the paper's claim
//! that CPPC's normal operation adds almost nothing over plain parity
//! while two-dimensional parity pays a read-before-write on every store.

use cppc_bench::microbench::{BatchSize, Criterion};
use cppc_bench::{criterion_group, criterion_main};
use std::hint::black_box;

use cppc_cache_sim::geometry::CacheGeometry;
use cppc_cache_sim::memory::MainMemory;
use cppc_cache_sim::replacement::ReplacementPolicy;
use cppc_cache_sim::Cache;
use cppc_core::baselines::{OneDimParityCache, SecdedCache, TwoDimParityCache};
use cppc_core::{CppcCache, CppcConfig};
use cppc_workloads::micro::random_mix;

fn geo() -> CacheGeometry {
    CacheGeometry::new(32 * 1024, 2, 32).unwrap()
}

const OPS: usize = 4096;

fn bench_store_paths(c: &mut Criterion) {
    let trace = random_mix(OPS, 64 * 1024, 0.4, 7);
    let mut group = c.benchmark_group("mixed_trace_4k_ops");

    group.bench_function("unprotected", |b| {
        b.iter_batched(
            || (Cache::new(geo(), ReplacementPolicy::Lru), MainMemory::new()),
            |(mut cache, mut mem)| {
                for op in &trace {
                    match *op {
                        cppc_cache_sim::hierarchy::MemOp::Load(a) => {
                            black_box(cache.load_word(a, &mut mem));
                        }
                        cppc_cache_sim::hierarchy::MemOp::Store(a, v) => {
                            cache.store_word(a, v, &mut mem);
                        }
                        cppc_cache_sim::hierarchy::MemOp::StoreByte(a, v) => {
                            cache.store_byte(a, v, &mut mem);
                        }
                    }
                }
            },
            BatchSize::LargeInput,
        )
    });

    group.bench_function("one_dim_parity", |b| {
        b.iter_batched(
            || {
                (
                    OneDimParityCache::new(geo(), ReplacementPolicy::Lru),
                    MainMemory::new(),
                )
            },
            |(mut cache, mut mem)| {
                for op in &trace {
                    match *op {
                        cppc_cache_sim::hierarchy::MemOp::Load(a) => {
                            black_box(cache.load_word(a, &mut mem).unwrap());
                        }
                        cppc_cache_sim::hierarchy::MemOp::Store(a, v) => {
                            cache.store_word(a, v, &mut mem);
                        }
                        cppc_cache_sim::hierarchy::MemOp::StoreByte(a, v) => {
                            cache.store_byte(a, v, &mut mem);
                        }
                    }
                }
            },
            BatchSize::LargeInput,
        )
    });

    group.bench_function("cppc_paper", |b| {
        b.iter_batched(
            || {
                (
                    CppcCache::new_l1(geo(), CppcConfig::paper(), ReplacementPolicy::Lru).unwrap(),
                    MainMemory::new(),
                )
            },
            |(mut cache, mut mem)| {
                for op in &trace {
                    match *op {
                        cppc_cache_sim::hierarchy::MemOp::Load(a) => {
                            black_box(cache.load_word(a, &mut mem).unwrap());
                        }
                        cppc_cache_sim::hierarchy::MemOp::Store(a, v) => {
                            cache.store_word(a, v, &mut mem).unwrap();
                        }
                        cppc_cache_sim::hierarchy::MemOp::StoreByte(a, v) => {
                            cache.store_byte(a, v, &mut mem).unwrap();
                        }
                    }
                }
            },
            BatchSize::LargeInput,
        )
    });

    group.bench_function("secded_interleaved", |b| {
        b.iter_batched(
            || {
                (
                    SecdedCache::new(geo(), ReplacementPolicy::Lru),
                    MainMemory::new(),
                )
            },
            |(mut cache, mut mem)| {
                for op in &trace {
                    match *op {
                        cppc_cache_sim::hierarchy::MemOp::Load(a) => {
                            black_box(cache.load_word(a, &mut mem).unwrap());
                        }
                        cppc_cache_sim::hierarchy::MemOp::Store(a, v) => {
                            cache.store_word(a, v, &mut mem);
                        }
                        cppc_cache_sim::hierarchy::MemOp::StoreByte(a, v) => {
                            cache.store_byte(a, v, &mut mem).unwrap();
                        }
                    }
                }
            },
            BatchSize::LargeInput,
        )
    });

    group.bench_function("two_dim_parity", |b| {
        b.iter_batched(
            || {
                (
                    TwoDimParityCache::new(geo(), 1, ReplacementPolicy::Lru),
                    MainMemory::new(),
                )
            },
            |(mut cache, mut mem)| {
                for op in &trace {
                    match *op {
                        cppc_cache_sim::hierarchy::MemOp::Load(a) => {
                            black_box(cache.load_word(a, &mut mem).unwrap());
                        }
                        cppc_cache_sim::hierarchy::MemOp::Store(a, v) => {
                            cache.store_word(a, v, &mut mem);
                        }
                        cppc_cache_sim::hierarchy::MemOp::StoreByte(a, v) => {
                            cache.store_byte(a, v, &mut mem);
                        }
                    }
                }
            },
            BatchSize::LargeInput,
        )
    });

    group.finish();
}

criterion_group!(benches, bench_store_paths);
criterion_main!(benches);
