//! Proof that the simulator hot paths are allocation-free in steady
//! state: the hierarchy trace-replay loop, the warm fault-injection
//! trial cycle (restore + inject + recovery) of the CPPC campaign and
//! of the scheme zoo, every member's warm restore, and a shard of the
//! cross-trial batch engine.
//!
//! A counting global allocator wraps the system allocator and counts
//! each thread's allocations separately, so the test harness spawning
//! and reaping other tests' threads never lands in a measured window
//! (every drive measured here runs on the test's own thread); after a
//! generous warmup (which fills the SoA cache arenas, allocates every
//! backing-memory page the trace can touch and grows the Tavg interval
//! maps to their final size), replaying the identical trace again must
//! perform **zero** heap allocations: every fill lands in an arena slot,
//! every fetch goes through a reused scratch buffer, and the shared
//! trace is iterated without regeneration.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Mutex;

use cppc_bench::experiments::scheme_experiment;
use cppc_bench::mbe::{
    experiment_model, geometry, oracle, MbeBatchExec, SEED, SOLID_MODEL, SPARSE_MODEL,
};
use cppc_cache_sim::geometry::CacheGeometry;
use cppc_cache_sim::hierarchy::{MemOp, TwoLevelHierarchy};
use cppc_cache_sim::memory::MainMemory;
use cppc_cache_sim::replacement::ReplacementPolicy;
use cppc_campaign::{trial_rng, TrialExec};
use cppc_core::{CppcConfig, SchemeKind};
use cppc_fault::campaign::OutcomeTally;
use cppc_fault::model::FaultPattern;
use cppc_workloads::SharedTrace;

thread_local! {
    /// Allocation requests made by the current thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Some tests switch the process-wide obs flag off for their measured
/// window, and a concurrent test switching it back on would make that
/// window record spans: each test takes this lock for its whole run.
static MEASURE: Mutex<()> = Mutex::new(());

/// Counts every allocation request (alloc, zeroed alloc, realloc) on
/// the requesting thread; deallocations are free of charge.
struct CountingAllocator;

fn count_allocation() {
    // A thread being torn down can no longer reach its counter; it is
    // not one a test measures.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Runs `f` and returns its result with the number of heap allocations
/// the current thread made meanwhile.
fn counting_allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

// SAFETY: delegates every operation verbatim to `System`; the counter
// update touches a const-initialised thread-local `Cell` with no
// destructor and no allocation of its own.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// A deterministic mixed trace over a 64 KiB working set — twice the L2
/// below, so steady state keeps evicting, writing back and refilling
/// across all three levels of storage.
fn trace(len: usize) -> SharedTrace {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut ops = Vec::with_capacity(len);
    for _ in 0..len {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let addr = state % (64 * 1024);
        ops.push(match state & 0x700 {
            0x000 | 0x100 | 0x200 => MemOp::Store(addr & !7, state),
            0x300 => MemOp::StoreByte(addr, state as u8),
            _ => MemOp::Load(addr & !7),
        });
    }
    SharedTrace::from_ops(ops)
}

#[test]
fn steady_state_hierarchy_run_allocates_nothing() {
    let _serial = MEASURE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let l1 = CacheGeometry::new(8 * 1024, 2, 32).unwrap();
    let l2 = CacheGeometry::new(32 * 1024, 4, 32).unwrap();
    let mut h = TwoLevelHierarchy::new(l1, l2, ReplacementPolicy::Lru);
    let trace = trace(200_000);

    // Warmup: two full replays allocate everything the trace can ever
    // need — arena storage, backing-memory pages, interval-map capacity,
    // the observability registry.
    h.run(trace.replay());
    h.run(trace.replay());

    let ((), during) = counting_allocations(|| h.run(trace.replay()));

    let accesses = h.stats().0.accesses();
    assert!(accesses >= 400_000, "warmup + measured runs recorded");
    assert_eq!(
        during, 0,
        "steady-state replay of 200000 ops performed {during} heap allocations"
    );
}

/// The streaming binary-trace drive loop — chunked refills of the
/// reader's fixed buffer, record decode into recycled `OpBatch` lanes,
/// batched hierarchy stepping — is allocation-free once the reader and
/// batch exist and the hierarchy has seen the trace once. Constructing
/// a reader allocates its chunk buffer by design; steady state is the
/// loop, so the measured window drives a pre-built reader end to end.
#[test]
fn steady_state_streaming_binary_drive_allocates_nothing() {
    let _serial = MEASURE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let trace = trace(200_000);
    let dir = std::env::temp_dir().join(format!("cppc-alloc-free-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("stream.cppct");
    cppc_workloads::binfmt::write_bin_trace_file(&path, trace.ops()).unwrap();

    let l1 = CacheGeometry::new(8 * 1024, 2, 32).unwrap();
    let l2 = CacheGeometry::new(32 * 1024, 4, 32).unwrap();
    let mut h = TwoLevelHierarchy::new(l1, l2, ReplacementPolicy::Lru);
    let mut batch = cppc_workloads::OpBatch::new();

    // Warmup: two full streamed drives allocate the cache arenas, the
    // backing-memory pages, the interval-map capacity and the batch's
    // lane capacity.
    for _ in 0..2 {
        let mut reader = cppc_workloads::BinTraceReader::open(&path).unwrap();
        cppc_workloads::binfmt::drive(&mut reader, &mut h, &mut batch).unwrap();
    }

    let mut reader = cppc_workloads::BinTraceReader::open(&path).unwrap();
    let (driven, during) = counting_allocations(|| {
        cppc_workloads::binfmt::drive(&mut reader, &mut h, &mut batch).unwrap()
    });

    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(driven, 200_000, "whole trace streamed");
    assert_eq!(
        during, 0,
        "steady-state streaming drive of 200000 ops performed {during} heap allocations"
    );
}

/// The full snapshot trial cycle — restore warm state, generate and
/// inject a fault pattern, run recovery (including the locator), and
/// classify — is allocation-free once the warm pool holds a captured
/// context and every scratch buffer has grown to its high-water mark.
#[test]
fn steady_state_snapshot_trial_cycle_allocates_nothing() {
    let _serial = MEASURE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    // Span timers and ring events record through allocating closures;
    // they are instrumentation, not the hot path under test.
    cppc_obs::set_enabled(false);

    // Warmup: the first trial captures the snapshot; the rest grow the
    // fault-pattern buffer and the recovery/locator scratch to their
    // steady-state capacity on both the solid (all-corrected) and
    // sparse (locator + DUE) paths.
    for trial in 0..256 {
        experiment_model(SOLID_MODEL, &mut trial_rng(SEED, trial));
        experiment_model(SPARSE_MODEL, &mut trial_rng(SEED, trial));
    }

    let ((), during) = counting_allocations(|| {
        for trial in 256..384 {
            experiment_model(SOLID_MODEL, &mut trial_rng(SEED, trial));
            experiment_model(SPARSE_MODEL, &mut trial_rng(SEED, trial));
        }
    });

    cppc_obs::set_enabled(true);
    assert_eq!(
        during, 0,
        "steady-state restore+inject+recovery cycle performed {during} heap allocations"
    );
}

/// A batched shard — fault sampling, gather into the lane arenas, the
/// syndrome kernel, classification with the locator, and the per-trial
/// fallback for DUE lanes — is allocation-free once the worker's pooled
/// context holds its certified batch evaluator and lane arenas grown to
/// their high-water mark. The executor is driven directly: the engine's
/// result channel allocates by design and is not the hot path.
#[test]
fn steady_state_batched_shard_allocates_nothing() {
    let _serial = MEASURE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    const SHARD: u64 = 64;
    // As in the trial-cycle test: the fallback's recovery walk records
    // span timers and ring events through allocating closures.
    cppc_obs::set_enabled(false);
    let mut measured = Vec::new();
    for (name, exec) in [
        ("solid", MbeBatchExec::solid(64)),
        ("sparse", MbeBatchExec::new(SPARSE_MODEL, 64)),
    ] {
        let mut tally = OutcomeTally::default();
        // Warmup: the first shard captures the warm context and
        // certifies its batch evaluator; the rest grow the lane arenas
        // and the classifier and recovery scratch.
        for shard in 0..16 {
            exec.run_range(SEED, shard * SHARD, (shard + 1) * SHARD, &mut tally);
        }

        let ((), during) = counting_allocations(|| {
            for shard in 16..48 {
                exec.run_range(SEED, shard * SHARD, (shard + 1) * SHARD, &mut tally);
            }
        });
        assert_eq!(tally.total(), 48 * SHARD, "{name}: every trial recorded");
        measured.push((name, during, tally));
    }
    cppc_obs::set_enabled(true);

    let sparse = measured[1].2;
    assert!(
        sparse.due > 0,
        "the sparse shards reach the fallback: {sparse:?}"
    );
    for (name, during, _) in measured {
        assert_eq!(
            during, 0,
            "{name}: 32 steady-state batched shards performed {during} heap allocations"
        );
    }
}

/// Restoring a warm memory after a trial wrote to pages the warm copy
/// never had is allocation-free: slots are handed out in order, so
/// `clone_from` drops the post-clone pages and copies the word arena
/// back in place, leaving the page table and arena capacity for the
/// next trial.
#[test]
fn memory_restore_after_fresh_pages_allocates_nothing() {
    let _serial = MEASURE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut mem = MainMemory::new();
    for i in 0..64u64 {
        mem.write_word(i * 0x1000, i + 1);
    }
    let warm = mem.clone();
    // Every cycle writes more pages than the warm table has room for,
    // spread over 16 MiB.
    let trial = |mem: &mut MainMemory| {
        for i in 0..160u64 {
            mem.write_word(0x100_0000 + i * 0x1_9980, !i);
        }
        mem.clone_from(&warm);
    };

    // Warmup: the first cycles grow the arena and page table to hold
    // the trial's pages.
    for _ in 0..4 {
        trial(&mut mem);
    }

    let ((), during) = counting_allocations(|| {
        for _ in 0..64 {
            trial(&mut mem);
        }
    });
    assert_eq!(mem, warm, "restore reproduces the warm memory");
    assert_eq!(
        during, 0,
        "64 write-fresh-pages + restore cycles performed {during} heap allocations"
    );
}

/// Restoring a struck scheme from its warm copy allocates nothing, for
/// every member of the zoo: each member's `clone_from` copies into the
/// live scheme's own buffers.
#[test]
fn scheme_restore_allocates_nothing_for_every_member() {
    let _serial = MEASURE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    cppc_obs::set_enabled(false);
    let mut measured = Vec::new();
    for kind in SchemeKind::ALL {
        let mut warm = kind.build(geometry(), CppcConfig::paper()).unwrap();
        let mut warm_mem = MainMemory::new();
        let truth = oracle(SEED);
        for &(addr, v) in &truth {
            warm.write_word(addr, v, &mut warm_mem).unwrap();
        }
        let (mut live, mut mem) = (warm.clone_boxed(), warm_mem.clone());
        let mut pattern = FaultPattern::empty();
        let mut strike_and_restore = |trial: u64| {
            live.inject_model(SPARSE_MODEL, &mut trial_rng(SEED, trial), &mut pattern);
            live.classify(&truth, &mut mem);
            counting_allocations(|| {
                live.restore(warm.as_ref());
                mem.clone_from(&warm_mem);
            })
            .1
        };
        for trial in 0..8 {
            strike_and_restore(trial);
        }
        let during: u64 = (8..40).map(&mut strike_and_restore).sum();
        measured.push((kind, during));
    }
    cppc_obs::set_enabled(true);
    for (kind, during) in measured {
        assert_eq!(
            during, 0,
            "{kind}: 32 restores performed {during} heap allocations"
        );
    }
}

/// A whole warm scheme trial — pool checkout, restore, strike, recovery
/// and grade — allocates nothing in steady state for every member:
/// interleaved SECDED's physical-strike mapping and 2D parity's
/// recovery scan reuse buffers the scheme owns.
#[test]
fn steady_state_warm_scheme_trial_allocates_nothing() {
    let _serial = MEASURE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    cppc_obs::set_enabled(false);
    let mut measured = Vec::new();
    for kind in SchemeKind::ALL {
        let mut tally = OutcomeTally::default();
        let mut during = 0;
        for model in [SOLID_MODEL, SPARSE_MODEL] {
            let experiment = scheme_experiment(kind, CppcConfig::paper(), model);
            let mut run = |trials: std::ops::Range<u64>| {
                for trial in trials {
                    tally.record(experiment(&mut trial_rng(SEED, trial), trial));
                }
            };
            // Warmup: the first trial fills the worker's warm copy; the
            // rest grow the pattern and recovery scratch.
            run(0..128);
            during += counting_allocations(|| run(128..256)).1;
        }
        measured.push((kind, during, tally));
    }
    cppc_obs::set_enabled(true);
    for (kind, during, tally) in measured {
        // Interleaved SECDED turns each strike into single-bit errors per
        // word, so its strikes reach the correction path instead.
        if kind == SchemeKind::SecdedInterleaved {
            assert!(tally.corrected > 0, "{kind}: the strikes reach correction");
        } else {
            assert!(
                tally.due + tally.sdc > 0,
                "{kind}: the strikes reach the failure paths"
            );
        }
        assert_eq!(
            during, 0,
            "{kind}: 256 warm trials performed {during} heap allocations"
        );
    }
}
