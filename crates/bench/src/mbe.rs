//! The `mbe_coverage`-style fault-injection campaign shared by the
//! scaling and hot-path benchmark binaries: CPPC paper config, spatial
//! square strikes on a 2 KiB / 2-way cache.
//!
//! # Warm-state snapshots
//!
//! Every trial of this campaign starts from the *same* warm cache state
//! (way 0 fully dirty); only the injected fault differs. The hot path
//! therefore simulates the warmup prefix once per worker thread,
//! captures it ([`CppcCache::snapshot`] + [`MainMemory::snapshot`]) and
//! serves each trial by restoring the snapshot into the thread's
//! existing arenas via the process-wide [`WarmPool`] — no allocation
//! and no warmup replay in steady state. The batched executor
//! ([`MbeBatchExec`]) keeps its lane arenas ([`TrialBatch`]) and its
//! certified [`BatchSim`] in the same pooled context, so a worker's
//! steady-state shard allocates nothing either.
//!
//! The warm truth is `oracle(SEED)` for every trial (the cold path
//! historically used `oracle(trial)`); outcomes are unaffected because
//! the classification is value-independent: Masked is decided by fault
//! geometry alone, parity syndromes and R3 are XOR-linear (the error
//! contribution separates from the data), and a successful recovery
//! reconstructs the exact pre-fault values. The replay-from-cold path
//! lives on as a test oracle (`tests/snapshot_oracle.rs`), which checks
//! the equivalence trial by trial.

use cppc_cache_sim::geometry::CacheGeometry;
use cppc_cache_sim::memory::MainMemory;
use cppc_cache_sim::replacement::ReplacementPolicy;
use cppc_cache_sim::snapshot::MemorySnapshot;
use cppc_campaign::rng::rngs::StdRng;
use cppc_campaign::rng::{RngExt, SeedableRng};
use cppc_campaign::snapshot::WarmPool;
use cppc_campaign::{trial_rng, Accumulator, TrialExec};
use cppc_core::{BatchOutcome, BatchScratch, BatchSim, CppcCache, CppcConfig, SimSnapshot};
use cppc_fault::campaign::Outcome;
use cppc_fault::model::{FaultGenerator, FaultModel, FaultPattern};

/// Campaign seed shared by every binary that runs this experiment, so
/// their tallies are comparable.
pub const SEED: u64 = 0xC0DE;

/// The benchmark's solid 4x4 spatial strike.
pub const SOLID_MODEL: FaultModel = FaultModel::SpatialSquare {
    rows: 4,
    cols: 4,
    density: 1.0,
};

/// A sparse 8x8 strike that exercises the locator and DUE paths.
pub const SPARSE_MODEL: FaultModel = FaultModel::SpatialSquare {
    rows: 8,
    cols: 8,
    density: 0.4,
};

/// The campaign's cache geometry (32 sets, 256 data rows).
///
/// # Panics
///
/// Never — the geometry is valid by construction.
#[must_use]
pub fn geometry() -> CacheGeometry {
    CacheGeometry::new(2048, 2, 32).unwrap()
}

/// Ground truth: addresses of way-0 rows and their stored values.
#[must_use]
pub fn oracle(seed: u64) -> Vec<(u64, u64)> {
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

/// A worker thread's reusable trial state: the simulator pair, the warm
/// snapshots restored at the top of every trial, the fault-pattern
/// buffer, the ground-truth table and the batch engine's lane arenas.
#[derive(Debug)]
pub struct TrialContext {
    cache: CppcCache,
    mem: MainMemory,
    cache_snap: SimSnapshot,
    mem_snap: MemorySnapshot,
    pattern: FaultPattern,
    truth: Vec<(u64, u64)>,
    /// Lazily built value-independent batch evaluator for this warm
    /// state (`None` until the first batched shard runs).
    batch_sim: Option<BatchSim>,
    /// The batch engine's lane arenas, kept across shards so a worker's
    /// steady-state shard allocates nothing.
    batch: TrialBatch,
}

/// The process-wide pool of warm contexts shared by all benchmark
/// binaries and tests that run this experiment.
static POOL: WarmPool<TrialContext> = WarmPool::new();

/// The shared warm-context pool (for benchmark reporting: captures,
/// restores, hit rate, held bytes).
#[must_use]
pub fn pool() -> &'static WarmPool<TrialContext> {
    &POOL
}

/// Identity key of the warm state: everything the warmup prefix depends
/// on — seed, geometry and CPPC configuration. The fault *model* is
/// deliberately excluded: the warm state is model-independent, so solid
/// and sparse campaigns share one pool. A change to any input re-keys
/// the pool and invalidates stale contexts.
#[must_use]
pub fn warm_identity() -> u64 {
    let geo = geometry();
    let config = CppcConfig::paper();
    // FNV-1a over the warm-state facts.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in [
        SEED,
        geo.num_sets() as u64,
        geo.associativity() as u64,
        geo.words_per_block() as u64,
        u64::from(config.parity_ways),
        config.register_pairs as u64,
        u64::from(config.byte_shifting),
    ] {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Simulates the warmup prefix from cold and captures it. Returns the
/// context plus its snapshot payload size for the `snapshot.bytes`
/// gauge.
fn warm_context() -> (TrialContext, u64) {
    let mut mem = MainMemory::new();
    let mut cache =
        CppcCache::new_l1(geometry(), CppcConfig::paper(), ReplacementPolicy::Lru).unwrap();
    let truth = oracle(SEED);
    for &(addr, v) in &truth {
        cache.store_word(addr, v, &mut mem).unwrap();
    }
    let cache_snap = cache.snapshot();
    let mem_snap = mem.snapshot();
    let bytes = cache_snap.bytes() + mem_snap.bytes();
    (
        TrialContext {
            cache,
            mem,
            cache_snap,
            mem_snap,
            pattern: FaultPattern::empty(),
            truth,
            batch_sim: None,
            batch: TrialBatch::new(),
        },
        bytes,
    )
}

/// One trial against a restored warm context: restore, strike, recover,
/// classify.
fn run_trial(ctx: &mut TrialContext, model: FaultModel, rng: &mut StdRng) -> Outcome {
    ctx.cache.restore_snapshot(&ctx.cache_snap);
    ctx.mem.restore_snapshot(&ctx.mem_snap);
    let rows = ctx.cache.layout().num_rows() / 2;
    let mut generator = FaultGenerator::new(rows, rng.random());
    generator.sample_into(model, &mut ctx.pattern);
    if ctx.cache.inject(&ctx.pattern) == 0 {
        return Outcome::Masked;
    }
    match ctx.cache.recover_all(&mut ctx.mem) {
        Err(_) => Outcome::DetectedUnrecoverable,
        Ok(_) => {
            for &(addr, v) in &ctx.truth {
                if ctx.cache.peek_word(addr) != Some(v) {
                    return Outcome::SilentCorruption;
                }
            }
            Outcome::Corrected
        }
    }
}

/// One fault-injection trial of `model` on the shared warm pool.
pub fn experiment_model(model: FaultModel, rng: &mut StdRng) -> Outcome {
    POOL.with(warm_identity(), warm_context, |ctx| {
        run_trial(ctx, model, rng)
    })
}

/// One fault-injection trial: restore the warm way-0 fill, strike a 4x4
/// solid square, recover, classify. Snapshot-backed hot path.
///
/// # Panics
///
/// Panics if the paper configuration is rejected (it is not).
pub fn experiment(rng: &mut StdRng, _trial: u64) -> Outcome {
    experiment_model(SOLID_MODEL, rng)
}

// ---------------------------------------------------------------------
// Cross-trial batched execution
// ---------------------------------------------------------------------

/// Structure-of-arrays context of one batch of trials: every lane's
/// faulty `(row, error-mask, syndrome)` entries live contiguously in
/// shared arenas, so the syndrome stage of *all* lanes runs through a
/// single [`BatchSim::syndromes`] call (one vectorized instruction
/// stream) instead of one simulator walk per trial.
///
/// [`MbeBatchExec`] keeps one per worker, in the pooled
/// [`TrialContext`]: the arenas and the classifier's [`BatchScratch`]
/// grow to their high-water mark over the first shards and are then
/// reused by every later one.
#[derive(Debug, Default)]
pub struct TrialBatch {
    rows: Vec<u32>,
    errs: Vec<u64>,
    syns: Vec<u64>,
    lanes: Vec<BatchLane>,
    scratch: BatchScratch,
}

/// One lane of a [`TrialBatch`]: a trial plus its slice of the arenas.
#[derive(Debug, Clone, Copy)]
struct BatchLane {
    trial: u64,
    lo: usize,
    hi: usize,
    applied: u32,
}

impl TrialBatch {
    /// An empty batch. Its arenas grow on first use; they are reused
    /// only for as long as the caller keeps this value (each
    /// [`simulate_batch_into`] call clears them before every batch).
    #[must_use]
    pub fn new() -> Self {
        TrialBatch::default()
    }

    fn clear(&mut self) {
        self.rows.clear();
        self.errs.clear();
        self.syns.clear();
        self.lanes.clear();
    }
}

/// Evaluates the `trials` range in batches of `batch` lanes into
/// `acc`, bit-identically to running [`experiment_model`] per trial.
///
/// Per batch: every lane's fault pattern is sampled from its own
/// [`trial_rng`]-derived stream and gathered into the [`TrialBatch`]
/// arenas, all lanes' syndromes are computed in one vectorized pass,
/// and each lane is classified by error-delta propagation
/// ([`BatchSim::classify`]). Lanes the fast path cannot own — shared
/// parity-group syndromes inside one protection domain, i.e. locator
/// or DUE territory — fall back to the full per-trial simulator with a
/// freshly re-derived trial RNG, so their outcome is *the* reference
/// outcome. If the warm state cannot be certified fault-free
/// ([`CppcCache::batch_sim`] returns `None`) every trial of the range
/// falls back wholesale.
pub fn simulate_batch_into<A: Accumulator<Item = Outcome>>(
    ctx: &mut TrialContext,
    batch_buf: &mut TrialBatch,
    model: FaultModel,
    batch: usize,
    seed: u64,
    trials: std::ops::Range<u64>,
    acc: &mut A,
) {
    let (lo, hi) = (trials.start, trials.end);
    let batch = batch.max(1) as u64;
    if ctx.batch_sim.is_none() {
        // The pooled context may sit in an arbitrary post-trial state;
        // certify from the restored warm baseline.
        ctx.cache.restore_snapshot(&ctx.cache_snap);
        ctx.mem.restore_snapshot(&ctx.mem_snap);
        ctx.batch_sim = ctx.cache.batch_sim();
        if ctx.batch_sim.is_none() {
            crate::obs::BATCH_WHOLESALE_FALLBACKS.inc();
        }
    }
    let Some(sim) = ctx.batch_sim.take() else {
        for trial in lo..hi {
            let mut rng = trial_rng(seed, trial);
            acc.record(trial, run_trial(ctx, model, &mut rng));
        }
        return;
    };
    let sample_rows = sim.num_rows() / 2;

    let mut chunk_lo = lo;
    while chunk_lo < hi {
        let chunk_hi = (chunk_lo + batch).min(hi);
        batch_buf.clear();
        for trial in chunk_lo..chunk_hi {
            // Identical stream derivation to the per-trial path:
            // trial_rng seeds the generator, which samples the pattern.
            let mut rng = trial_rng(seed, trial);
            let mut generator = FaultGenerator::new(sample_rows, rng.random());
            generator.sample_into(model, &mut ctx.pattern);
            let arena_lo = batch_buf.rows.len();
            let applied = sim.gather(&ctx.pattern, &mut batch_buf.rows, &mut batch_buf.errs);
            batch_buf.lanes.push(BatchLane {
                trial,
                lo: arena_lo,
                hi: batch_buf.rows.len(),
                applied,
            });
        }
        // One instruction stream over every lane's error words.
        batch_buf.syns.resize(batch_buf.errs.len(), 0);
        sim.syndromes(&batch_buf.errs, &mut batch_buf.syns);

        crate::obs::BATCH_BATCHES.inc();
        crate::obs::BATCH_LANES_FILLED.add(batch_buf.lanes.len() as u64);
        for li in 0..batch_buf.lanes.len() {
            let lane = batch_buf.lanes[li];
            let outcome = if lane.applied == 0 {
                Outcome::Masked
            } else {
                match sim.classify(
                    &batch_buf.rows[lane.lo..lane.hi],
                    &mut batch_buf.errs[lane.lo..lane.hi],
                    &batch_buf.syns[lane.lo..lane.hi],
                    &mut batch_buf.scratch,
                ) {
                    BatchOutcome::Masked => Outcome::Masked,
                    BatchOutcome::Recovered { residual: false } => Outcome::Corrected,
                    BatchOutcome::Recovered { residual: true } => Outcome::SilentCorruption,
                    BatchOutcome::NeedsFull => {
                        crate::obs::BATCH_TAIL_FALLBACKS.inc();
                        let mut rng = trial_rng(seed, lane.trial);
                        run_trial(ctx, model, &mut rng)
                    }
                }
            };
            acc.record(lane.trial, outcome);
        }
        chunk_lo = chunk_hi;
    }
    ctx.batch_sim = Some(sim);
}

/// A [`TrialExec`] running the warm-pool mbe campaign through the
/// cross-trial batch engine, `batch` lanes at a time.
///
/// With `batch == 1` the pipeline still runs batched (one-lane
/// batches); the tallies are bit-identical at every batch size, thread
/// count, and with the `simd` feature disabled — the differential
/// tests pin this.
#[derive(Debug, Clone, Copy)]
pub struct MbeBatchExec {
    model: FaultModel,
    batch: usize,
}

impl MbeBatchExec {
    /// Creates the executor and records which parity kernel the probe
    /// dispatched to (`kernel.dispatch.*`).
    #[must_use]
    pub fn new(model: FaultModel, batch: usize) -> Self {
        crate::obs::record_kernel_dispatch();
        MbeBatchExec {
            model,
            batch: batch.max(1),
        }
    }

    /// The solid-4x4 executor of the standard mbe campaign.
    #[must_use]
    pub fn solid(batch: usize) -> Self {
        MbeBatchExec::new(SOLID_MODEL, batch)
    }
}

impl<A: Accumulator<Item = Outcome>> TrialExec<A> for MbeBatchExec {
    fn run_range(&self, seed: u64, lo: u64, hi: u64, acc: &mut A) {
        POOL.with(warm_identity(), warm_context, |ctx| {
            // Lend the worker's arenas to the batch loop, which also
            // needs the rest of the context mutably; taking them leaves
            // an empty, unallocated batch behind.
            let mut batch_buf = std::mem::take(&mut ctx.batch);
            simulate_batch_into(
                ctx,
                &mut batch_buf,
                self.model,
                self.batch,
                seed,
                lo..hi,
                acc,
            );
            ctx.batch = batch_buf;
        });
    }
}
