//! The fault-injection trial every campaign of the repo runs, and the
//! `mbe_coverage`-style CPPC campaign the scaling and hot-path
//! benchmark binaries share: CPPC paper config, spatial square strikes
//! on a 2 KiB / 2-way cache.
//!
//! # One warm-trial protocol
//!
//! Every trial starts from the *same* warm state (way 0 fully dirty);
//! only the injected fault differs. A [`WarmTrial`] fills a scheme
//! once, keeps that filled copy, and serves each trial by restoring the
//! copy over a live scheme in place
//! ([`cppc_core::WarmClone::restore`], the members' buffer-reusing
//! `clone_from`), striking the live one and classifying it: no
//! allocation and no refill in steady state. The scheme-zoo campaigns
//! ([`crate::experiments::scheme_experiment`]) hold one per worker in
//! a per-campaign [`WarmPool`]; this module's
//! CPPC campaign holds one in the process-wide pool, next to the
//! batched executor's lane arenas ([`TrialBatch`]) and its certified
//! [`BatchSim`], so a worker's steady-state shard allocates nothing
//! either. Why one warm fill serves every trial is set out on
//! [`WarmTrial`]; the cold refill-per-trial body lives on as a test
//! oracle (`tests/snapshot_oracle.rs`), which checks the equivalence
//! trial by trial for every member.

use std::any::Any;

use cppc_cache_sim::geometry::CacheGeometry;
use cppc_cache_sim::memory::MainMemory;
use cppc_cache_sim::replacement::ReplacementPolicy;
use cppc_campaign::rng::rngs::StdRng;
use cppc_campaign::rng::{RngExt, SeedableRng};
use cppc_campaign::snapshot::WarmPool;
use cppc_campaign::{trial_rng, Accumulator, TrialExec};
use cppc_core::{BatchOutcome, BatchScratch, BatchSim, CppcCache, CppcConfig, ProtectionScheme};
use cppc_fault::campaign::Outcome;
use cppc_fault::model::{FaultGenerator, FaultModel, FaultPattern};

/// Campaign seed shared by every binary that runs this experiment, so
/// their tallies are comparable. [`WarmTrial`] fills from
/// [`oracle`]`(SEED)`.
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

/// The cache geometry of every fault-injection campaign (2 KiB, 2 ways,
/// 32 sets, 256 data rows): this one and the scheme-zoo trials of
/// [`crate::experiments`].
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

/// One worker's warm trial state for any member of the scheme zoo: the
/// filled warm scheme and memory, the live pair each trial strikes, the
/// ground-truth table and the fault-pattern buffer.
///
/// # Why one warm fill serves trials with different data values
///
/// The warm copy is filled once with [`oracle`]`(SEED)`, while the
/// historical cold body filled every trial with `oracle(trial)`. No
/// outcome depends on which values fill way 0:
///
/// * **Masked** is decided by fault geometry alone: whether a flip
///   lands on a valid block.
/// * **Parity and Hamming codes are XOR-linear.** A parity bit is the
///   XOR of the bits it covers and a SECDED syndrome is a linear map of
///   the flipped bits, so a fault's syndrome separates from the data;
///   detection, SECDED's correct / refuse / miscorrect decision and 1D
///   and 2D parity's row location depend only on the flip pattern.
/// * **CPPC's registers are XOR-linear too.** R1 and R2 hold running
///   XORs of the words committed to and dirty in each domain, so the
///   R1^R2 reconstruction and the locator's decisions depend only on
///   the error geometry and on which words are dirty; a successful
///   recovery rebuilds the exact pre-fault values, and SDC is a
///   residual-mask test.
/// * **Silent-write ECC** elides a fill store only when the value equals
///   the word already resident (a fill-zeroed 0). An elided store leaves
///   the same word and check bits a performed one would; only its dirty
///   bit differs, and SECDED's load-and-decode grade never reads it.
/// * **HARP's** profiling pass compares each written word against its
///   write-through copy, which always holds the value the fill wrote,
///   so the words it flags and repairs depend only on the flip pattern.
///
/// `tests/snapshot_oracle.rs` pins the equivalence trial by trial for
/// every member against the cold refill-per-trial body.
pub struct WarmTrial {
    warm: Box<dyn ProtectionScheme>,
    warm_mem: MainMemory,
    scheme: Box<dyn ProtectionScheme>,
    mem: MainMemory,
    truth: Vec<(u64, u64)>,
    pattern: FaultPattern,
}

impl WarmTrial {
    /// Fills way 0 of `scheme` (built over [`geometry`]) with
    /// [`oracle`]`(SEED)` and keeps it as the warm copy.
    ///
    /// # Panics
    ///
    /// Panics if the fault-free fill is refused (it is not).
    #[must_use]
    pub fn new(mut warm: Box<dyn ProtectionScheme>) -> Self {
        let mut warm_mem = MainMemory::new();
        let truth = oracle(SEED);
        for &(addr, v) in &truth {
            warm.write_word(addr, v, &mut warm_mem)
                .expect("no faults yet");
        }
        WarmTrial {
            scheme: warm.clone_boxed(),
            mem: warm_mem.clone(),
            warm,
            warm_mem,
            truth,
            pattern: FaultPattern::empty(),
        }
    }

    /// The filled warm copy every trial restores from.
    #[must_use]
    pub fn warm(&self) -> &dyn ProtectionScheme {
        self.warm.as_ref()
    }

    /// One trial: restore the warm copy, sample a strike of `model` from
    /// `rng` into the pattern buffer and apply it, then recover and
    /// grade through the scheme's own classification.
    pub fn run(&mut self, model: FaultModel, rng: &mut StdRng) -> Outcome {
        self.scheme.restore(self.warm.as_ref());
        self.mem.clone_from(&self.warm_mem);
        if self.scheme.inject_model(model, rng, &mut self.pattern) == 0 {
            return Outcome::Masked;
        }
        self.scheme.classify(&self.truth, &mut self.mem)
    }

    /// A new warm trial for a [`WarmPool`], with the warm copy's
    /// data-array bytes for the `snapshot.bytes` gauge.
    #[must_use]
    pub fn pooled(scheme: Box<dyn ProtectionScheme>) -> (Self, u64) {
        let bytes = (scheme.layout().num_rows() * 8) as u64;
        (WarmTrial::new(scheme), bytes)
    }
}

/// The CPPC campaign's per-worker context: a [`WarmTrial`] over the
/// paper-configured CPPC plus the batch engine's certified evaluator
/// and lane arenas.
pub struct TrialContext {
    trial: WarmTrial,
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

/// Fills the paper-configured CPPC's warm trial from cold.
fn warm_context() -> (TrialContext, u64) {
    let cache = CppcCache::new_l1(geometry(), CppcConfig::paper(), ReplacementPolicy::Lru);
    let (trial, bytes) = WarmTrial::pooled(Box::new(cache.expect("paper config is valid")));
    let ctx = TrialContext {
        trial,
        batch_sim: None,
        batch: TrialBatch::default(),
    };
    (ctx, bytes)
}

/// One fault-injection trial of `model` on the shared warm pool.
pub fn experiment_model(model: FaultModel, rng: &mut StdRng) -> Outcome {
    POOL.with(warm_identity(), warm_context, |ctx| {
        ctx.trial.run(model, rng)
    })
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
    /// Per lane, where its slice of the arenas ends; it starts where the
    /// previous lane's ends.
    ends: Vec<usize>,
    scratch: BatchScratch,
}

impl TrialBatch {
    fn clear(&mut self) {
        self.rows.clear();
        self.errs.clear();
        self.syns.clear();
        self.ends.clear();
    }
}

/// Evaluates the `trials` range in batches of `batch` lanes into
/// `acc`, bit-identically to running [`experiment_model`] per trial.
///
/// Per batch: every lane's fault pattern is sampled from its own
/// [`trial_rng`]-derived stream and gathered into the context's
/// [`TrialBatch`] arenas, all lanes' syndromes are computed in one
/// vectorized pass, and each lane is classified by error-delta
/// propagation ([`BatchSim::classify`]). Lanes the fast path cannot
/// own — shared parity-group syndromes inside one protection domain,
/// i.e. locator or DUE territory — fall back to the full per-trial
/// simulator with a freshly re-derived trial RNG, so their outcome is
/// *the* reference outcome. If the warm state cannot be certified fault-free
/// ([`CppcCache::batch_sim`] returns `None`) every trial of the range
/// falls back wholesale.
pub fn simulate_batch_into<A: Accumulator<Item = Outcome>>(
    ctx: &mut TrialContext,
    model: FaultModel,
    batch: usize,
    seed: u64,
    trials: std::ops::Range<u64>,
    acc: &mut A,
) {
    let TrialContext {
        trial: warm_trial,
        batch_sim,
        batch: batch_buf,
    } = ctx;
    let (lo, hi) = (trials.start, trials.end);
    let batch = batch.max(1) as u64;
    if batch_sim.is_none() {
        // Certify the warm copy, never the live scheme a trial struck.
        let warm: &dyn Any = warm_trial.warm();
        *batch_sim = warm
            .downcast_ref::<CppcCache>()
            .expect("a CPPC")
            .batch_sim();
        if batch_sim.is_none() {
            crate::obs::BATCH_WHOLESALE_FALLBACKS.inc();
        }
    }
    let Some(sim) = batch_sim.as_ref() else {
        for trial in lo..hi {
            let mut rng = trial_rng(seed, trial);
            acc.record(trial, warm_trial.run(model, &mut rng));
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
            generator.sample_into(model, &mut warm_trial.pattern);
            sim.gather(
                &warm_trial.pattern,
                &mut batch_buf.rows,
                &mut batch_buf.errs,
            );
            batch_buf.ends.push(batch_buf.rows.len());
        }
        // One instruction stream over every lane's error words.
        batch_buf.syns.resize(batch_buf.errs.len(), 0);
        sim.syndromes(&batch_buf.errs, &mut batch_buf.syns);

        crate::obs::BATCH_BATCHES.inc();
        crate::obs::BATCH_LANES_FILLED.add(batch_buf.ends.len() as u64);
        let mut lo = 0;
        for (trial, &hi) in (chunk_lo..chunk_hi).zip(&batch_buf.ends) {
            // An empty lane classifies as masked.
            let outcome = match sim.classify(
                &batch_buf.rows[lo..hi],
                &mut batch_buf.errs[lo..hi],
                &batch_buf.syns[lo..hi],
                &mut batch_buf.scratch,
            ) {
                BatchOutcome::Masked => Outcome::Masked,
                BatchOutcome::Recovered { residual: false } => Outcome::Corrected,
                BatchOutcome::Recovered { residual: true } => Outcome::SilentCorruption,
                BatchOutcome::NeedsFull => {
                    crate::obs::BATCH_TAIL_FALLBACKS.inc();
                    warm_trial.run(model, &mut trial_rng(seed, trial))
                }
            };
            acc.record(trial, outcome);
            lo = hi;
        }
        chunk_lo = chunk_hi;
    }
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
            simulate_batch_into(ctx, self.model, self.batch, seed, lo..hi, acc);
        });
    }
}
