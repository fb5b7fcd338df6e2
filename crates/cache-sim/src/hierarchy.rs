//! The functional cache hierarchy: an L1 backed by an L2, optionally an
//! L3 below that, and main memory.
//!
//! Runs memory operations through the chain, collecting per-level
//! statistics plus the two measurements the paper's reliability model
//! needs (Table 2):
//!
//! * **dirty residency** — periodic samples of how many words are dirty
//!   (every level, the L3 included);
//! * **Tavg** — the mean interval between consecutive accesses to the
//!   same dirty word (L1) or dirty block (L2).
//!
//! One per-op drive body serves both depths. An L1 miss picks its
//! backing once, the L2 over memory or the L2 over the L3 over memory,
//! both built from the one [`CacheBacking`] adapter, so the two-level
//! chain compiles to the code it had before the L3 existed. The §7 L3
//! experiment (`section7`'s `l3_chain`) runs the three-level chain.
//!
//! # Tavg
//!
//! An interval runs from one access to a dirty word (L1) or dirty block
//! (L2) to the next access to it. That next access is a load, a store,
//! or the writeback that evicts it: the writeback reads the data, and
//! CPPC parity-checks an evicted dirty word before XORing it into R2, so
//! the last access → writeback stretch is exposed to faults like any
//! other. A store to a clean word or block starts a new interval, so no
//! interval spans an eviction, the stay in the level below and the
//! refill.
//!
//! Each level keeps one stamp per slot of its cache — per word for L1,
//! per block for L2 — holding the cycle of the last access. A stamp is
//! live exactly while its slot's dirty bit (L1) or dirty mask (L2) is
//! set, so the cache's own dirty state says which stamps count and an
//! eviction retires the victim's stamps in place: the block filling the
//! slot starts clean.
//!
//! # Shards
//!
//! The hierarchy is split into P shards that run in parallel and still
//! produce the bits of one unsplit drive. Every level has the same block
//! size and takes its set index from the low bits of the block number,
//! so the L1 set, every lower set and the memory page that can hold a
//! block, and all traffic between them (the fill, the L1 victim's
//! writeback, the L2 victim's writeback), stay inside one residue class
//! `block number mod P`. No operation of one class touches the state of
//! another. P is the largest power of two no larger than 8 and than the
//! set count of every level: it depends on the geometry alone, never on
//! the host.
//!
//! Shard `s` holds sets `s, s + P, s + 2P, …` of every level and its own
//! slice of memory, and sees compacted addresses: the log2 P partition
//! bits are taken out above the block offset. Each slice is then an
//! ordinary [`Cache`] of 1/P the size with unchanged tags, and the
//! 256-byte pages of a shard's memory stay dense. Random replacement
//! seeds each slice set from its global set index.
//!
//! [`TwoLevelHierarchy::step`] routes one operation to its shard.
//! [`TwoLevelHierarchy::run_batch`] deals each chunk of operations out to
//! the shards, stamped with their global cycle (the cycle at the chunk's
//! start plus `(i + 1)·cycles_per_op` for its op `i`), so Tavg does not
//! see the split. The shards then run on min(P, available cores)
//! threads, the caller among them. Each thread claims shards from a
//! shared counter, so the caller never waits on a helper the OS has not
//! scheduled: with one core, it drives every shard itself. Helper
//! threads start on a hierarchy's first chunk and are joined when it
//! drops. A thread out of work polls for 200 µs and then parks: the
//! caller unparks every helper when it starts a chunk, and the helper
//! that drives a chunk's last shard unparks the caller.
//!
//! Level counters, Tavg sums and counts and memory counters are sums over
//! the shards. Dirty residency is still sampled at the global sample
//! points: each shard records its dirty word counts at the points that
//! fall inside its part of a chunk, and the hierarchy adds them up into
//! one sample per point.

use std::num::NonZeroUsize;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

use crate::batch::{self, OpBatch};
use crate::cache::{BlockAccess, Cache, CacheBacking};
use crate::geometry::CacheGeometry;
use crate::memory::MainMemory;
use crate::replacement::ReplacementPolicy;
use crate::stats::CacheStats;

/// One memory operation of a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemOp {
    /// A 64-bit load.
    Load(u64),
    /// A 64-bit store of the given value.
    Store(u64, u64),
    /// A single-byte (partial) store — the access class that forces
    /// read-modify-writes on block-ECC schemes (paper §1) and exercises
    /// CPPC's byte path (§3.1).
    StoreByte(u64, u8),
}

impl MemOp {
    /// The byte address this operation touches.
    #[must_use]
    pub fn addr(&self) -> u64 {
        match *self {
            MemOp::Load(a) | MemOp::Store(a, _) => a,
            MemOp::StoreByte(a, _) => a,
        }
    }

    /// `true` for stores.
    #[must_use]
    pub fn is_store(&self) -> bool {
        matches!(self, MemOp::Store(..) | MemOp::StoreByte(..))
    }
}

/// A level of the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Level {
    /// The L1, which the operations address.
    L1,
    /// The L2 below it.
    L2,
    /// The L3 below the L2, when the chain has one.
    L3,
}

impl Level {
    /// The levels top down.
    const ALL: [Level; 3] = [Level::L1, Level::L2, Level::L3];
}

/// The most shards a hierarchy splits into.
const MAX_SHARDS: usize = 8;

/// Operations [`TwoLevelHierarchy::run_batch`] deals out to the shards
/// at a time; a shard's ops are listed by their `u16` index in it.
const CHUNK_OPS: usize = 4096;
const _: () = assert!(CHUNK_OPS <= 1 << 16);

/// The Tavg intervals of one level: a last-access stamp per cache slot
/// (L1 word or L2 block) and the running interval sum. A slot's stamp
/// means something only while the slot is dirty; the caller passes that
/// dirtiness in, read from the cache it already probed.
#[derive(Debug)]
struct SlotStamps {
    stamp: Vec<u64>,
    interval_sum: u128,
    interval_count: u64,
}

impl SlotStamps {
    fn new(slots: usize) -> Self {
        SlotStamps {
            stamp: vec![0; slots],
            interval_sum: 0,
            interval_count: 0,
        }
    }

    /// Records an access at `now` to `slot` that leaves it dirty: closes
    /// the running interval if the slot was already dirty and opens the
    /// next one.
    #[inline]
    fn touch(&mut self, slot: usize, now: u64, was_dirty: bool) {
        if was_dirty {
            self.retire(slot, now);
        }
        self.stamp[slot] = now;
    }

    /// Closes the interval of a dirty `slot` at `now` without opening
    /// another — the writeback that evicts it.
    #[inline]
    fn retire(&mut self, slot: usize, now: u64) {
        self.interval_sum += u128::from(now - self.stamp[slot]);
        self.interval_count += 1;
    }

    /// The L2 side of one block access: the dirty victim the access
    /// evicted from `access.slot`, then the access itself if it found
    /// the block dirty or leaves it dirty.
    #[inline]
    fn block_access(&mut self, access: BlockAccess, now: u64, dirty_after: bool) {
        if access.evicted_dirty {
            self.retire(access.slot, now);
        }
        let was_dirty = access.dirty_before != 0;
        if was_dirty || dirty_after {
            self.touch(access.slot, now, was_dirty);
        }
    }
}

/// How addresses split over the shards: the shard of a block is the low
/// `shard_bits` bits of its number, and a shard sees the address with
/// those bits taken out above the block offset.
#[derive(Debug, Clone, Copy, Default)]
struct Split {
    block_shift: u32,
    shard_bits: u32,
}

impl Split {
    /// The shard that holds `addr`'s block.
    #[inline]
    fn shard(self, addr: u64) -> usize {
        (addr >> self.block_shift & ((1 << self.shard_bits) - 1)) as usize
    }

    /// `addr` compacted for its shard.
    #[inline]
    fn compact(self, addr: u64) -> u64 {
        let offset = addr & ((1 << self.block_shift) - 1);
        (addr >> self.block_shift >> self.shard_bits) << self.block_shift | offset
    }
}

/// The chunk a shard's ops belong to.
#[derive(Debug, Clone, Copy, Default)]
struct Chunk {
    /// The clock before the chunk's first operation.
    cycle: u64,
    cycles_per_op: u64,
    /// Operations in the chunk, over all shards.
    len: usize,
    /// The index of the first operation after which dirty residency is
    /// sampled, and the distance to each next one.
    first_sample: usize,
    sample_interval: usize,
    split: Split,
}

/// One residue class of block numbers: its slice of every level and of
/// memory, all addressed by compacted addresses, and the Tavg stamps of
/// its slots.
#[derive(Debug)]
struct Shard {
    l1: Cache,
    l2: Cache,
    l3: Option<Cache>,
    mem: MainMemory,
    /// One stamp per L1 word slot, `(set·ways + way)·words_per_block + w`.
    l1_intervals: SlotStamps,
    /// One stamp per L2 block slot, `set·ways + way`.
    l2_intervals: SlotStamps,
    /// The indices of the shard's operations in the chunk being driven,
    /// which fix their cycles and where they fall between the sample
    /// points.
    ops: Vec<u16>,
    chunk: Chunk,
    /// The dirty word count of every level (0 for a missing L3) at each
    /// sample point of the chunk.
    samples: Vec<[u64; 3]>,
}

impl Shard {
    /// Shard `shard` of `shards` of a hierarchy with levels `geos` (the
    /// L3's last, when present).
    fn new(geos: &[CacheGeometry], policy: ReplacementPolicy, shard: usize, shards: usize) -> Self {
        let mut slices = geos.iter().map(|g| {
            let geo =
                CacheGeometry::new(g.size_bytes() / shards, g.associativity(), g.block_bytes())
                    .expect("a power-of-two slice of a valid geometry is valid");
            Cache::interleaved(geo, policy, shard, shards)
        });
        let l1 = slices.next().expect("an L1");
        let l2 = slices.next().expect("an L2");
        let l3 = slices.next();
        Shard {
            l1_intervals: SlotStamps::new(l1.geometry().total_words()),
            l2_intervals: SlotStamps::new(l2.geometry().num_sets() * l2.geometry().associativity()),
            l1,
            l2,
            l3,
            mem: MainMemory::new(),
            ops: Vec::new(),
            chunk: Chunk::default(),
            samples: Vec::new(),
        }
    }

    /// The per-op body behind [`TwoLevelHierarchy::step`] and
    /// [`TwoLevelHierarchy::run_batch`]: one operation in lane form
    /// (`kind` is a [`batch`] lane tag) at the compacted address `addr`
    /// and the global clock `cycle`.
    ///
    /// A single L1 probe classifies the access and answers the Tavg
    /// dirty-before question (a miss is never dirty before the access).
    /// A miss fills straight away, retiring the stamps of the victim's
    /// dirty words (the victim held the same slot), and the access
    /// completes through the in-place primitives, so no path probes L1
    /// twice.
    #[inline]
    fn access(&mut self, addr: u64, kind: u8, value: u64, cycle: u64) -> u64 {
        let is_load = kind == batch::KIND_LOAD;
        let w = self.l1.geometry().word_index(addr);
        let wpb = self.l1.geometry().words_per_block();
        let ways = self.l1.geometry().associativity();
        let (set, way, was_dirty) = if let Some((set, way)) = self.l1.probe(addr) {
            self.l1.record_access(!is_load, true);
            if is_load {
                self.l1.touch(set, way);
            }
            (set, way, self.l1.dirty_mask_at(set, way) >> w & 1 == 1)
        } else {
            self.l1.record_access(!is_load, false);
            // An L1 miss that hits a dirty L2 block is an access to dirty
            // L2 data for Tavg purposes; a read leaves a clean block
            // clean, a writeback leaves it dirty.
            let l2_intervals = &mut self.l2_intervals;
            let stamp = move |access, writeback| {
                l2_intervals.block_access(access, cycle, writeback);
            };
            // The backing type is chosen here, once per miss, so the
            // fill below is monomorphized for each depth.
            let (set, way, eviction) = match &mut self.l3 {
                None => self.l1.fill(
                    addr,
                    &mut CacheBacking {
                        cache: &mut self.l2,
                        below: &mut self.mem,
                        on_access: stamp,
                    },
                ),
                Some(l3) => self.l1.fill(
                    addr,
                    &mut CacheBacking {
                        cache: &mut self.l2,
                        below: &mut CacheBacking::new(l3, &mut self.mem),
                        on_access: stamp,
                    },
                ),
            };
            if let Some(eviction) = eviction {
                let base = (set * ways + way) * wpb;
                let mut mask = eviction.dirty_mask;
                while mask != 0 {
                    self.l1_intervals
                        .retire(base + mask.trailing_zeros() as usize, cycle);
                    mask &= mask - 1;
                }
            }
            (set, way, false)
        };
        let loaded = match kind {
            batch::KIND_LOAD => self.l1.word_at(set, way, w),
            batch::KIND_STORE => {
                self.l1.store_word_in_place(set, way, w, value);
                0
            }
            batch::KIND_STORE_BYTE => {
                let byte = self.l1.geometry().byte_in_word(addr);
                self.l1.store_byte_in_place(set, way, w, byte, value as u8);
                0
            }
            k => unreachable!("invalid op kind {k}"),
        };
        if was_dirty || !is_load {
            self.l1_intervals
                .touch((set * ways + way) * wpb + w, cycle, was_dirty);
        }
        loaded
    }

    /// Drives the shard's operations of its chunk, whose lanes start at
    /// op `first` of `lanes`, in order, appending its dirty word counts
    /// at every sample point of the chunk to the (cleared) samples: the
    /// point after op `k` is recorded before the shard's first op past
    /// `k`, or at the end.
    fn drive(&mut self, lanes: &OpBatch, first: usize) {
        let chunk = self.chunk;
        let ops = std::mem::take(&mut self.ops);
        let mut next_sample = chunk.first_sample;
        for index in ops.iter().map(|&i| usize::from(i)) {
            while next_sample < index {
                let dirty = self.dirty_words();
                self.samples.push(dirty);
                next_sample += chunk.sample_interval;
            }
            let cycle = chunk.cycle + (index as u64 + 1) * chunk.cycles_per_op;
            let op = first + index;
            self.access(
                chunk.split.compact(lanes.addrs()[op]),
                lanes.kinds()[op],
                lanes.values()[op],
                cycle,
            );
        }
        while next_sample < chunk.len {
            let dirty = self.dirty_words();
            self.samples.push(dirty);
            next_sample += chunk.sample_interval;
        }
        self.ops = ops;
    }

    /// The levels top down: L1, L2 and the L3 when present.
    fn levels(&self) -> impl Iterator<Item = &Cache> {
        [&self.l1, &self.l2].into_iter().chain(self.l3.as_ref())
    }

    /// The slice of `level`, when the chain has that level.
    fn cache(&self, level: Level) -> Option<&Cache> {
        match level {
            Level::L1 => Some(&self.l1),
            Level::L2 => Some(&self.l2),
            Level::L3 => self.l3.as_ref(),
        }
    }

    /// The dirty word count of every level, 0 for a missing L3.
    fn dirty_words(&self) -> [u64; 3] {
        let mut dirty = [0; 3];
        for (count, level) in dirty.iter_mut().zip(self.levels()) {
            *count = level.dirty_word_count();
        }
        dirty
    }
}

/// The number of threads the host can run at once, read once per
/// process.
fn host_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// How long a thread that ran out of work polls before it parks: the
/// gap between two chunks of one drive (the caller decoding and dealing
/// the next) is shorter, and a parked thread takes longer than that to
/// wake.
const POLL: Duration = Duration::from_micros(200);

/// Waits until `ready` holds: polls it (yielding the CPU in between) for
/// [`POLL`], then parks between checks. A park can end without an
/// unpark, so each wake checks again.
fn wait_until(ready: impl Fn() -> bool) {
    let start = Instant::now();
    while !ready() {
        if start.elapsed() > POLL {
            std::thread::park();
        } else {
            std::thread::yield_now();
        }
    }
}

/// The `round` value that tells the helpers to exit.
const SHUTDOWN: u64 = u64::MAX;

/// The state the caller and the helper threads share: the chunk in
/// progress and the shards on loan to drive it, the claim counters, and
/// the round the helpers wait on.
#[derive(Debug)]
struct Pool {
    /// A copy of the chunk's lanes for the helpers, written by the caller
    /// between rounds.
    lanes: RwLock<OpBatch>,
    slots: Box<[Mutex<Option<Shard>>]>,
    /// Slots claimed this round: the caller's, taken from the front, in
    /// the high half; the helpers', taken from the back, in the low
    /// half. A shard then tends to stay on one thread and in its cache.
    /// Reset with `Release` after the slots are filled and `done` is
    /// zeroed, so a claim's `Acquire` sees both.
    claims: AtomicU64,
    /// Slots driven this round, counted with `AcqRel` after each drive:
    /// the caller's `Acquire` load of the full count sees every drive.
    done: AtomicUsize,
    /// Set when a shard's drive panicked.
    panicked: AtomicBool,
    /// Bumped once per chunk with `Release`, after the lanes, the slots,
    /// `caller`, `done` and `claims` are written, so a helper's `Acquire`
    /// load of the new round sees them; the caller then unparks every
    /// helper. [`SHUTDOWN`] when the pool drops.
    round: AtomicU64,
    /// The thread driving the round, stored before `round` moves; the
    /// helper that drives the round's last slot unparks it.
    caller: Mutex<Thread>,
}

impl Pool {
    /// A helper thread's loop: wait for a new round, then claim shards
    /// from the back until none is left.
    fn serve(&self) {
        let mut seen = 0;
        loop {
            wait_until(|| self.round.load(Ordering::Acquire) != seen);
            seen = self.round.load(Ordering::Acquire);
            if seen == SHUTDOWN {
                return;
            }
            self.claim(true, None);
        }
    }

    /// The next unclaimed slot, from the back or the front.
    fn take(&self, from_back: bool) -> Option<usize> {
        let shards = self.slots.len() as u64;
        let mut claims = self.claims.load(Ordering::Acquire);
        loop {
            let (front, back) = (claims >> 32, claims & u64::from(u32::MAX));
            if front + back >= shards {
                return None;
            }
            let (next, slot) = if from_back {
                (claims + 1, shards - 1 - back)
            } else {
                (claims + (1 << 32), front)
            };
            match self.claims.compare_exchange_weak(
                claims,
                next,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(slot as usize),
                Err(now) => claims = now,
            }
        }
    }

    /// Claims slots one at a time and drives their shards until every
    /// slot of the round is taken, reading the chunk from `chunk` (a
    /// batch and the chunk's first op in it) or else from the pool's
    /// copy. A panicking drive is recorded, not propagated, so the round
    /// still completes; the slot's lock is held outside the unwind, so
    /// it is never poisoned.
    fn claim(&self, from_back: bool, chunk: Option<(&OpBatch, usize)>) {
        while let Some(slot) = self.take(from_back) {
            let mut shard = self.slots[slot]
                .lock()
                .expect("a slot lock is never poisoned");
            let shard = shard
                .as_mut()
                .expect("every slot holds a shard during a round");
            let driven = panic::catch_unwind(AssertUnwindSafe(|| match chunk {
                Some((batch, first)) => shard.drive(batch, first),
                None => shard.drive(&self.lanes.read().expect("lanes are written whole"), 0),
            }));
            if driven.is_err() {
                self.panicked.store(true, Ordering::Release);
            }
            if self.done.fetch_add(1, Ordering::AcqRel) + 1 == self.slots.len() && from_back {
                self.caller
                    .lock()
                    .expect("the caller lock is never poisoned")
                    .unpark();
            }
        }
    }
}

/// The threads that drive shards beside the caller.
#[derive(Debug)]
struct Helpers {
    pool: Arc<Pool>,
    threads: Vec<JoinHandle<()>>,
}

impl Helpers {
    /// A pool for `shards` shards with min(`shards`, host threads) − 1
    /// helper threads (fewer if the OS refuses some).
    fn start(shards: usize) -> Self {
        let pool = Arc::new(Pool {
            lanes: RwLock::new(OpBatch::new()),
            slots: (0..shards).map(|_| Mutex::new(None)).collect(),
            claims: AtomicU64::new(u64::from(u32::MAX)),
            done: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
            round: AtomicU64::new(0),
            caller: Mutex::new(std::thread::current()),
        });
        let threads = (1..shards.min(host_threads()))
            .filter_map(|_| {
                let pool = Arc::clone(&pool);
                std::thread::Builder::new()
                    .name("cppc-shard".into())
                    .spawn(move || pool.serve())
                    .ok()
            })
            .collect();
        Helpers { pool, threads }
    }

    /// Drives every shard's ops of the chunk `range` of `batch`, the
    /// caller claiming shards from the front while the helpers claim
    /// from the back, and hands the shards back in order.
    fn drive(&self, shards: &mut Vec<Shard>, batch: &OpBatch, range: Range<usize>) {
        let pool = &*self.pool;
        if !self.threads.is_empty() {
            pool.lanes
                .write()
                .expect("lanes are written whole")
                .copy_range(batch, range.clone());
            *pool
                .caller
                .lock()
                .expect("the caller lock is never poisoned") = std::thread::current();
        }
        for (slot, shard) in pool.slots.iter().zip(shards.drain(..)) {
            *slot.lock().expect("a slot lock is never poisoned") = Some(shard);
        }
        pool.done.store(0, Ordering::Relaxed);
        pool.claims.store(0, Ordering::Release);
        pool.round.fetch_add(1, Ordering::Release);
        for thread in &self.threads {
            thread.thread().unpark();
        }
        pool.claim(false, Some((batch, range.start)));
        wait_until(|| pool.done.load(Ordering::Acquire) == pool.slots.len());
        assert!(
            !pool.panicked.load(Ordering::Acquire),
            "a hierarchy shard panicked during its drive"
        );
        shards.extend(pool.slots.iter().map(|slot| {
            slot.lock()
                .expect("a slot lock is never poisoned")
                .take()
                .expect("a driven shard is back in its slot")
        }));
    }
}

impl Drop for Helpers {
    fn drop(&mut self) {
        self.pool.round.store(SHUTDOWN, Ordering::Release);
        for thread in self.threads.drain(..) {
            thread.thread().unpark();
            let _ = thread.join();
        }
    }
}

/// An L1 + L2 (+ L3) + memory functional simulator.
///
/// Every level must share the same block size (as in the paper's Table
/// 1 configuration, 32-byte lines at both levels).
///
/// # Example
///
/// ```
/// use cppc_cache_sim::hierarchy::{MemOp, TwoLevelHierarchy};
/// use cppc_cache_sim::{CacheGeometry, ReplacementPolicy};
///
/// let l1 = CacheGeometry::new(32 * 1024, 2, 32)?;
/// let l2 = CacheGeometry::new(1024 * 1024, 4, 32)?;
/// let mut h = TwoLevelHierarchy::new(l1, l2, ReplacementPolicy::Lru);
/// h.run([MemOp::Store(0x100, 42), MemOp::Load(0x100)]);
/// assert_eq!(h.stats().0.load_hits, 1);
/// # Ok::<(), cppc_cache_sim::GeometryError>(())
/// ```
#[derive(Debug)]
pub struct TwoLevelHierarchy {
    l1_geo: CacheGeometry,
    l2_geo: CacheGeometry,
    /// The level between the L2 and memory, when there is one.
    l3_geo: Option<CacheGeometry>,
    /// Shard `s` holds the blocks whose number is `s` mod the shard
    /// count (a power of two).
    shards: Vec<Shard>,
    split: Split,
    cycle: u64,
    cycles_per_op: u64,
    sample_interval: u64,
    ops_since_sample: u64,
    /// Dirty-residency samples taken, and each level's dirty words
    /// summed over them.
    dirty_samples: u64,
    dirty_sums: [u64; 3],
    /// Started on the first chunk of [`TwoLevelHierarchy::run_batch`].
    helpers: Option<Helpers>,
}

impl TwoLevelHierarchy {
    /// Builds the hierarchy with empty caches and zeroed memory.
    ///
    /// # Panics
    ///
    /// Panics if the two levels have different block sizes.
    #[must_use]
    pub fn new(l1_geo: CacheGeometry, l2_geo: CacheGeometry, policy: ReplacementPolicy) -> Self {
        assert_eq!(
            l1_geo.block_bytes(),
            l2_geo.block_bytes(),
            "L1 and L2 must share a block size"
        );
        Self::sharded(&[l1_geo, l2_geo], policy)
    }

    /// Builds an L1 + L2 + L3 + memory chain: the L3 serves the L2's
    /// misses and absorbs its writebacks, and is sampled, reset and
    /// published with the other levels. Tavg stays an L1/L2
    /// measurement.
    ///
    /// # Panics
    ///
    /// Panics if the levels have different block sizes.
    #[must_use]
    pub fn with_l3(
        l1_geo: CacheGeometry,
        l2_geo: CacheGeometry,
        l3_geo: CacheGeometry,
        policy: ReplacementPolicy,
    ) -> Self {
        assert_eq!(
            l2_geo.block_bytes(),
            l3_geo.block_bytes(),
            "L2 and L3 must share a block size"
        );
        assert_eq!(
            l1_geo.block_bytes(),
            l2_geo.block_bytes(),
            "L1 and L2 must share a block size"
        );
        Self::sharded(&[l1_geo, l2_geo, l3_geo], policy)
    }

    /// The chain of levels `geos` (L1 first) in the shard count the
    /// geometry allows: the largest power of two no larger than
    /// [`MAX_SHARDS`] and than any level's set count.
    fn sharded(geos: &[CacheGeometry], policy: ReplacementPolicy) -> Self {
        let sets = geos.iter().map(CacheGeometry::num_sets).min();
        Self::with_shards(geos, policy, sets.map_or(1, |s| s.min(MAX_SHARDS)))
    }

    /// The chain of levels `geos` (L1 first, block sizes already
    /// checked) split into `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics unless `shards` is a power of two no larger than any
    /// level's set count.
    pub(crate) fn with_shards(
        geos: &[CacheGeometry],
        policy: ReplacementPolicy,
        shards: usize,
    ) -> Self {
        assert!(
            shards.is_power_of_two() && geos.iter().all(|g| g.num_sets() >= shards),
            "{shards} shards do not divide every level's sets"
        );
        TwoLevelHierarchy {
            l1_geo: geos[0],
            l2_geo: geos[1],
            l3_geo: geos.get(2).copied(),
            shards: (0..shards)
                .map(|s| Shard::new(geos, policy, s, shards))
                .collect(),
            split: Split {
                block_shift: geos[0].block_bytes().trailing_zeros(),
                shard_bits: shards.trailing_zeros(),
            },
            cycle: 0,
            cycles_per_op: 1,
            sample_interval: 1024,
            ops_since_sample: 0,
            dirty_samples: 0,
            dirty_sums: [0; 3],
            helpers: None,
        }
    }

    /// Sets how many cycles each trace operation advances the clock
    /// (use the workload's cycles-per-memory-op estimate so Tavg comes
    /// out in cycles, as in Table 2).
    pub fn set_cycles_per_op(&mut self, cycles: u64) {
        assert!(cycles > 0, "cycles per op must be positive");
        self.cycles_per_op = cycles;
    }

    /// Sets the dirty-residency sampling interval in operations.
    pub fn set_sample_interval(&mut self, ops: u64) {
        assert!(ops > 0, "sample interval must be positive");
        self.sample_interval = ops;
    }

    /// The shard that holds `addr`'s block, and `addr` compacted for it.
    #[inline]
    fn route(&self, addr: u64) -> (usize, u64) {
        (self.split.shard(addr), self.split.compact(addr))
    }

    /// Executes one operation, returning the loaded word (0 for stores).
    pub fn step(&mut self, op: MemOp) -> u64 {
        let (addr, kind, value) = batch::lanes(op);
        self.cycle += self.cycles_per_op;
        let (shard, local) = self.route(addr);
        let loaded = self.shards[shard].access(local, kind, value, self.cycle);
        self.ops_since_sample += 1;
        if self.ops_since_sample >= self.sample_interval {
            self.ops_since_sample = 0;
            let mut dirty = [0; 3];
            for shard in &self.shards {
                for (sum, count) in dirty.iter_mut().zip(shard.dirty_words()) {
                    *sum += count;
                }
            }
            self.record_sample(dirty);
        }
        loaded
    }

    /// Adds one dirty-residency sample of every level's dirty words.
    fn record_sample(&mut self, dirty: [u64; 3]) {
        self.dirty_samples += 1;
        for (sum, count) in self.dirty_sums.iter_mut().zip(dirty) {
            *sum += count;
        }
    }

    /// Runs a whole trace, publishing per-level stat deltas to the
    /// global [`obs`](crate::obs) registry once at the end.
    pub fn run<I: IntoIterator<Item = MemOp>>(&mut self, trace: I) {
        let before = self.publish_mark();
        for op in trace {
            self.step(op);
        }
        self.publish_since(before);
    }

    /// Runs a pre-decoded [`OpBatch`] through the hierarchy — the trace
    /// timing fast path.
    ///
    /// Each operation goes through the same per-op body as
    /// [`TwoLevelHierarchy::step`], so state and statistics are
    /// bit-identical to stepping one at a time (pinned by differential
    /// tests); the batch walks flat lanes instead of decoding
    /// [`MemOp`]s, the shards run in parallel (see the
    /// [module docs](self)), and obs deltas publish once per batch
    /// instead of never (`step`) or once per iterator drain
    /// ([`TwoLevelHierarchy::run`]).
    pub fn run_batch(&mut self, batch: &OpBatch) {
        let before = self.publish_mark();
        for start in (0..batch.len()).step_by(CHUNK_OPS) {
            self.drive_chunk(batch, start..batch.len().min(start + CHUNK_OPS));
        }
        self.publish_since(before);
    }

    /// Deals the chunk `range` of `batch` out to the shards, drives them
    /// and adds their dirty counts up into one sample per sample point.
    fn drive_chunk(&mut self, batch: &OpBatch, range: Range<usize>) {
        let len = range.len();
        let interval = self.sample_interval as usize;
        let first_sample = interval.saturating_sub(self.ops_since_sample as usize + 1);
        let points = if first_sample < len {
            (len - 1 - first_sample) / interval + 1
        } else {
            0
        };
        let chunk = Chunk {
            cycle: self.cycle,
            cycles_per_op: self.cycles_per_op,
            len,
            first_sample,
            sample_interval: interval,
            split: self.split,
        };
        // The buffers grow to their high-water mark and stay there.
        for shard in &mut self.shards {
            shard.ops.clear();
            shard.samples.clear();
            shard.chunk = chunk;
        }
        for (index, &addr) in (0..).zip(&batch.addrs()[range.clone()]) {
            self.shards[self.split.shard(addr)].ops.push(index);
        }
        let shard_count = self.shards.len();
        self.helpers
            .get_or_insert_with(|| Helpers::start(shard_count))
            .drive(&mut self.shards, batch, range);
        for point in 0..points {
            let mut dirty = [0; 3];
            for shard in &self.shards {
                for (sum, count) in dirty.iter_mut().zip(shard.samples[point]) {
                    *sum += count;
                }
            }
            self.record_sample(dirty);
        }
        self.cycle += len as u64 * self.cycles_per_op;
        self.ops_since_sample = match points.checked_sub(1) {
            None => self.ops_since_sample + len as u64,
            Some(last) => (len - 1 - (first_sample + last * interval)) as u64,
        };
    }

    /// The number of levels: 2, or 3 with an L3.
    fn depth(&self) -> usize {
        2 + usize::from(self.l3_geo.is_some())
    }

    /// The counters [`TwoLevelHierarchy::publish_since`] diffs against:
    /// each level's statistics (a missing L3's stay zero) and the
    /// levels' summed scratch reuse.
    fn publish_mark(&self) -> ([CacheStats; 3], u64) {
        let mut stats = [CacheStats::default(); 3];
        for (slot, level) in stats.iter_mut().zip(Level::ALL) {
            *slot = self.level_stats(level).unwrap_or_default();
        }
        let scratch = self
            .shards
            .iter()
            .flat_map(|shard| shard.levels())
            .map(Cache::scratch_reuse)
            .sum();
        (stats, scratch)
    }

    /// Publishes the per-level stat deltas since `before` to the global
    /// [`obs`](crate::obs) registry, level 3 only when present.
    fn publish_since(&self, before: ([CacheStats; 3], u64)) {
        let ((before, scratch_before), (after, scratch_after)) = (before, self.publish_mark());
        for level in 1..=self.depth() {
            crate::obs::publish_level_delta(level, &before[level - 1], &after[level - 1]);
        }
        crate::obs::publish_scratch_delta(scratch_before, scratch_after);
    }

    /// Zeroes every level's statistics (cache contents and the clock
    /// are untouched) — call after a warm-up phase so measurements
    /// reflect steady state rather than compulsory misses.
    pub fn reset_stats(&mut self) {
        for shard in &mut self.shards {
            shard.l1.reset_stats();
            shard.l2.reset_stats();
            if let Some(l3) = &mut shard.l3 {
                l3.reset_stats();
            }
        }
        self.dirty_samples = 0;
        self.dirty_sums = [0; 3];
        self.ops_since_sample = 0;
    }

    /// The statistics of `level` over the whole hierarchy; `None` for
    /// an L3 the chain does not have.
    #[must_use]
    pub fn level_stats(&self, level: Level) -> Option<CacheStats> {
        let mut stats = CacheStats::default();
        for shard in &self.shards {
            stats.merge(shard.cache(level)?.stats());
        }
        stats.dirty_word_samples = self.dirty_samples;
        stats.dirty_word_samples_sum = self.dirty_sums[level as usize];
        Some(stats)
    }

    /// The geometry of `level` as a whole; `None` for an L3 the chain
    /// does not have.
    #[must_use]
    pub fn geometry(&self, level: Level) -> Option<CacheGeometry> {
        match level {
            Level::L1 => Some(self.l1_geo),
            Level::L2 => Some(self.l2_geo),
            Level::L3 => self.l3_geo,
        }
    }

    /// The slice of `level` that holds `addr`, and `addr` compacted for
    /// it.
    fn slice(&self, level: Level, addr: u64) -> Option<(&Cache, u64)> {
        let (shard, local) = self.route(addr);
        Some((self.shards[shard].cache(level)?, local))
    }

    /// Whether `level` holds the block of `addr`.
    #[must_use]
    pub fn holds(&self, level: Level, addr: u64) -> bool {
        self.slice(level, addr)
            .is_some_and(|(cache, local)| cache.probe(local).is_some())
    }

    /// Whether `level` holds the word of `addr` dirty.
    #[must_use]
    pub fn is_word_dirty(&self, level: Level, addr: u64) -> bool {
        self.slice(level, addr).is_some_and(|(cache, local)| {
            cache.probe(local).is_some_and(|(set, way)| {
                cache.dirty_mask_at(set, way) >> cache.geometry().word_index(local) & 1 == 1
            })
        })
    }

    /// The word of `addr` as `level` holds it, without counting an
    /// access; `None` when the level does not hold it.
    #[must_use]
    pub fn peek_word(&self, level: Level, addr: u64) -> Option<u64> {
        let (cache, local) = self.slice(level, addr)?;
        cache.peek_word(local)
    }

    /// The word of `addr` as main memory holds it, without counting an
    /// access.
    #[must_use]
    pub fn peek_memory_word(&self, addr: u64) -> u64 {
        let (shard, local) = self.route(addr);
        self.shards[shard].mem.peek_word(local)
    }

    /// Total word reads main memory served.
    #[must_use]
    pub fn memory_reads(&self) -> u64 {
        self.shards.iter().map(|shard| shard.mem.reads()).sum()
    }

    /// Total word writes main memory served.
    #[must_use]
    pub fn memory_writes(&self) -> u64 {
        self.shards.iter().map(|shard| shard.mem.writes()).sum()
    }

    /// Non-zero words resident in main memory (its footprint proxy).
    #[must_use]
    pub fn memory_footprint_words(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| shard.mem.footprint_words())
            .sum()
    }

    /// Current cycle count.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The mean of the intervals `level` picks out of each shard.
    fn tavg(&self, level: impl Fn(&Shard) -> &SlotStamps) -> Option<f64> {
        let (sum, count) = self
            .shards
            .iter()
            .map(level)
            .fold((0u128, 0u64), |(sum, count), stamps| {
                (sum + stamps.interval_sum, count + stamps.interval_count)
            });
        (count > 0).then(|| sum as f64 / count as f64)
    }

    /// Mean interval (cycles) between consecutive accesses to the same
    /// dirty L1 word, counting the writeback that evicts it as its last
    /// access (see the [module docs](self)); `None` until an interval
    /// closes.
    #[must_use]
    pub fn l1_tavg(&self) -> Option<f64> {
        self.tavg(|shard| &shard.l1_intervals)
    }

    /// Mean interval (cycles) between consecutive accesses to the same
    /// dirty L2 block, counting its writeback to the level below as its
    /// last access.
    #[must_use]
    pub fn l2_tavg(&self) -> Option<f64> {
        self.tavg(|shard| &shard.l2_intervals)
    }

    /// Mean fraction of L1 words dirty across samples (Table 2's
    /// "percentage of dirty data", as a 0..1 fraction).
    #[must_use]
    pub fn l1_dirty_fraction(&self) -> f64 {
        self.stats().0.mean_dirty_words() / self.l1_geo.total_words() as f64
    }

    /// Mean fraction of L2 words dirty across samples.
    #[must_use]
    pub fn l2_dirty_fraction(&self) -> f64 {
        self.stats().1.mean_dirty_words() / self.l2_geo.total_words() as f64
    }

    /// Convenience: `(l1_stats, l2_stats)` snapshot (the L3's come from
    /// [`TwoLevelHierarchy::level_stats`]).
    #[must_use]
    pub fn stats(&self) -> (CacheStats, CacheStats) {
        let level = |level| {
            self.level_stats(level)
                .expect("L1 and L2 are always present")
        };
        (level(Level::L1), level(Level::L2))
    }

    /// The number of shards the hierarchy is split into.
    #[cfg(test)]
    fn shard_count(&self) -> usize {
        self.shards.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cppc_campaign::rng::rngs::StdRng;
    use cppc_campaign::rng::{RngExt, SeedableRng};

    fn tiny() -> TwoLevelHierarchy {
        let l1 = CacheGeometry::new(256, 2, 32).unwrap();
        let l2 = CacheGeometry::new(1024, 2, 32).unwrap();
        TwoLevelHierarchy::new(l1, l2, ReplacementPolicy::Lru)
    }

    #[test]
    fn store_load_roundtrip() {
        let mut h = tiny();
        h.step(MemOp::Store(0x100, 77));
        assert_eq!(h.step(MemOp::Load(0x100)), 77);
    }

    #[test]
    fn l1_miss_fills_l2_first() {
        let mut h = tiny();
        h.step(MemOp::Load(0x100));
        assert_eq!(h.stats().0.load_misses, 1);
        assert_eq!(h.stats().1.load_misses, 1);
        h.step(MemOp::Load(0x108)); // same block: L1 hit
        assert_eq!(h.stats().0.load_hits, 1);
        assert_eq!(h.stats().1.loads(), 1, "no extra L2 access");
    }

    #[test]
    fn l1_writeback_lands_in_l2_not_memory() {
        let mut h = tiny();
        h.step(MemOp::Store(0x40, 5));
        // Force the L1 set to turn over (set count = 4 blocks apart 256B):
        h.step(MemOp::Load(0x40 + 256));
        h.step(MemOp::Load(0x40 + 512));
        assert_eq!(h.stats().0.writebacks, 1);
        assert_eq!(h.peek_memory_word(0x40), 0, "L2 absorbed the write-back");
        assert_eq!(h.peek_word(Level::L2, 0x40), Some(5));
    }

    #[test]
    fn value_survives_both_levels() {
        let mut h = tiny();
        h.step(MemOp::Store(0x40, 123));
        // Thrash both levels thoroughly.
        for i in 0..64u64 {
            h.step(MemOp::Load(0x1000 + i * 32));
        }
        assert_eq!(h.step(MemOp::Load(0x40)), 123);
    }

    #[test]
    fn tavg_measured_for_reused_dirty_words() {
        let mut h = tiny();
        h.set_cycles_per_op(10);
        h.step(MemOp::Store(0x40, 1)); // cycle 10, dirty
        h.step(MemOp::Load(0x200)); // cycle 20
        h.step(MemOp::Store(0x40, 2)); // cycle 30 → interval 20
        let tavg = h.l1_tavg().unwrap();
        assert!((tavg - 20.0).abs() < 1e-9, "tavg = {tavg}");
    }

    /// Blocks `0x40 + k·0x200` share L1 set 2 and L2 set 2 of `tiny()`
    /// (4 L1 sets and 16 L2 sets of 32-byte blocks, both 2-way).
    const SET2: [u64; 4] = [0x40, 0x240, 0x440, 0x640];

    #[test]
    fn l1_tavg_ends_at_the_writeback_not_at_the_next_residency() {
        let mut h = tiny();
        h.set_cycles_per_op(10);
        h.step(MemOp::Store(SET2[0], 1)); // cycle 10: dirty, interval opens
        h.step(MemOp::Load(SET2[1])); // cycle 20
        h.step(MemOp::Load(SET2[2])); // cycle 30: evicts SET2[0], closes 30 - 10
        assert_eq!(h.stats().0.writebacks, 1);
        h.step(MemOp::Load(SET2[0])); // cycle 40: refilled clean
        h.step(MemOp::Store(SET2[0], 2)); // cycle 50: a new interval opens
        assert_eq!(h.l1_tavg(), Some(20.0), "store → writeback only");
    }

    #[test]
    fn l2_tavg_ends_at_the_writeback_to_memory() {
        let mut h = tiny();
        h.set_cycles_per_op(10);
        h.step(MemOp::Store(SET2[0], 1)); // cycle 10
        h.step(MemOp::Load(SET2[1])); // cycle 20
        h.step(MemOp::Load(SET2[2])); // cycle 30: L1 writeback dirties the L2 block
        h.step(MemOp::Load(SET2[3])); // cycle 40: L2 writes that block to memory
        assert_eq!(h.stats().1.writebacks, 1);
        assert_eq!(h.peek_memory_word(SET2[0]), 1);
        // Refill it, dirty it again and write it back to the L2 (cycle
        // 80), which opens a new L2 interval rather than closing one
        // that spans the trip to memory.
        h.step(MemOp::Load(SET2[0])); // cycle 50
        h.step(MemOp::Store(SET2[0], 2)); // cycle 60
        h.step(MemOp::Load(SET2[1])); // cycle 70
        h.step(MemOp::Load(SET2[2])); // cycle 80
        assert_eq!(h.stats().0.writebacks, 2);
        assert_eq!(h.stats().1.writebacks, 1);
        assert_eq!(
            h.l2_tavg(),
            Some(10.0),
            "L1 writeback → memory writeback only"
        );
        assert_eq!(h.l1_tavg(), Some(20.0));
    }

    #[test]
    fn tavg_none_without_dirty_reuse() {
        let mut h = tiny();
        h.step(MemOp::Load(0x40));
        h.step(MemOp::Load(0x80));
        assert!(h.l1_tavg().is_none());
    }

    #[test]
    fn dirty_fraction_sampled() {
        let mut h = tiny();
        h.set_sample_interval(1);
        h.step(MemOp::Store(0x40, 1));
        // 1 dirty word / 32 total words
        assert!((h.l1_dirty_fraction() - 1.0 / 32.0).abs() < 1e-9);
    }

    #[test]
    fn randomised_transparency_through_two_levels() {
        let mut rng = StdRng::seed_from_u64(0x11EE);
        let mut h = tiny();
        let mut oracle: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        for _ in 0..30_000 {
            let addr = (rng.random_range(0..8192u64)) & !7;
            if rng.random_bool(0.35) {
                let v: u64 = rng.random();
                h.step(MemOp::Store(addr, v));
                oracle.insert(addr, v);
            } else {
                let got = h.step(MemOp::Load(addr));
                assert_eq!(got, *oracle.get(&addr).unwrap_or(&0), "addr {addr:#x}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "share a block size")]
    fn mismatched_block_sizes_panic() {
        let l1 = CacheGeometry::new(256, 2, 32).unwrap();
        let l2 = CacheGeometry::new(1024, 2, 64).unwrap();
        let _ = TwoLevelHierarchy::new(l1, l2, ReplacementPolicy::Lru);
    }

    fn random_ops(seed: u64, n: usize) -> Vec<MemOp> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let addr = rng.random_range(0..16384u64);
                match rng.random_range(0..4u32) {
                    0 => MemOp::Store(addr & !7, rng.random()),
                    1 => MemOp::StoreByte(addr, rng.random::<u64>() as u8),
                    _ => MemOp::Load(addr & !7),
                }
            })
            .collect()
    }

    #[test]
    fn run_batch_matches_step_bit_for_bit() {
        let ops = random_ops(0xBA7C4, 40_000);
        let (mut stepped, mut batched) = (tiny(), tiny());
        for h in [&mut stepped, &mut batched] {
            h.set_cycles_per_op(3);
            h.set_sample_interval(7);
        }
        for &op in &ops {
            stepped.step(op);
        }
        // Uneven chunk sizes so batch boundaries cross the sampling
        // cadence in every phase.
        let mut batch = crate::batch::OpBatch::new();
        for chunk in ops.chunks(513) {
            batch.clear();
            batch.extend_from_ops(chunk);
            batched.run_batch(&batch);
        }
        assert_eq!(stepped.stats(), batched.stats());
        assert_eq!(stepped.cycle(), batched.cycle());
        assert_eq!(stepped.l1_tavg(), batched.l1_tavg());
        assert_eq!(stepped.l2_tavg(), batched.l2_tavg());
        assert_eq!(stepped.l1_dirty_fraction(), batched.l1_dirty_fraction());
        assert_eq!(stepped.l2_dirty_fraction(), batched.l2_dirty_fraction());
        for addr in (0..16384u64).step_by(8) {
            assert_eq!(
                stepped.peek_word(Level::L1, addr),
                batched.peek_word(Level::L1, addr),
                "L1 word {addr:#x}"
            );
            assert_eq!(
                stepped.peek_word(Level::L2, addr),
                batched.peek_word(Level::L2, addr),
                "L2 word {addr:#x}"
            );
            assert_eq!(
                stepped.peek_memory_word(addr),
                batched.peek_memory_word(addr),
                "memory word {addr:#x}"
            );
        }
    }

    #[test]
    fn clock_and_sample_interval_move_no_access_counter() {
        // One drive can serve both Table 2's residency and Figure 10's
        // CPI because the clock rate and the sampling cadence change
        // only the dirty samples, never a hit, miss or fill counter.
        let ops = random_ops(0xC10C, 40_000);
        let run = |cycles_per_op, interval| {
            let mut h = tiny();
            h.set_cycles_per_op(cycles_per_op);
            h.set_sample_interval(interval);
            h.run(ops.iter().copied());
            let (l1, l2) = h.stats();
            [l1, l2]
        };
        let without_samples = |levels: [CacheStats; 2]| {
            levels.map(|s| CacheStats {
                dirty_word_samples: 0,
                dirty_word_samples_sum: 0,
                ..s
            })
        };
        let reference = run(1, 1024);
        for (cycles_per_op, interval) in [(7, 1024), (1, 2048), (7, 2048)] {
            let other = run(cycles_per_op, interval);
            assert_eq!(
                without_samples(other),
                without_samples(reference),
                "{cycles_per_op} cycles/op, sample every {interval}"
            );
            if interval != 1024 {
                assert_ne!(other[0].dirty_word_samples, reference[0].dirty_word_samples);
            }
        }
    }

    /// Drives `ops` through a fresh hierarchy and through the
    /// reference, one op at a time and in uneven batches, and demands
    /// bit-identical Tavg at both levels.
    fn assert_matches_reference(l1: CacheGeometry, l2: CacheGeometry, ops: &[MemOp]) {
        let mut stepped = TwoLevelHierarchy::new(l1, l2, ReplacementPolicy::Lru);
        let mut batched = TwoLevelHierarchy::new(l1, l2, ReplacementPolicy::Lru);
        stepped.set_cycles_per_op(3);
        batched.set_cycles_per_op(3);
        let mut oracle = super::reference::Reference::new(l1, l2, 3);
        for &op in ops {
            assert_eq!(stepped.step(op), oracle.step(op), "{op:?}");
        }
        let mut batch = crate::batch::OpBatch::new();
        for chunk in ops.chunks(777) {
            batch.clear();
            batch.extend_from_ops(chunk);
            batched.run_batch(&batch);
        }
        let unsampled = |s: &CacheStats| CacheStats {
            dirty_word_samples: 0,
            dirty_word_samples_sum: 0,
            ..*s
        };
        assert_eq!(unsampled(&stepped.stats().0), unsampled(oracle.l1.stats()));
        assert_eq!(unsampled(&stepped.stats().1), unsampled(oracle.l2.stats()));
        assert!(stepped.stats().1.writebacks > 0, "L2 writebacks exercised");
        let (l1_tavg, l2_tavg) = oracle.tavg();
        for h in [&stepped, &batched] {
            assert_eq!(h.l1_tavg().map(f64::to_bits), l1_tavg.map(f64::to_bits));
            assert_eq!(h.l2_tavg().map(f64::to_bits), l2_tavg.map(f64::to_bits));
        }
        assert!(l1_tavg.is_some() && l2_tavg.is_some());
    }

    #[test]
    fn slot_stamps_match_keyed_reference_on_tiny() {
        let t = tiny();
        for seed in [0x7A6, 0x7A7, 0x7A8] {
            assert_matches_reference(
                t.geometry(Level::L1).unwrap(),
                t.geometry(Level::L2).unwrap(),
                &random_ops(seed, 30_000),
            );
        }
    }

    #[test]
    fn slot_stamps_match_keyed_reference_on_four_way_l1() {
        let l1 = CacheGeometry::new(512, 4, 32).unwrap();
        let l2 = CacheGeometry::new(2048, 4, 32).unwrap();
        for seed in [0x4A1, 0x4A2, 0x4A3] {
            assert_matches_reference(l1, l2, &random_ops(seed, 30_000));
        }
    }

    #[test]
    fn run_batch_matches_run() {
        let ops = random_ops(0x5EED, 10_000);
        let mut iterated = tiny();
        let mut batched = tiny();
        iterated.run(ops.iter().copied());
        batched.run_batch(&crate::batch::OpBatch::from_ops(&ops));
        assert_eq!(iterated.stats(), batched.stats());
        assert_eq!(iterated.cycle(), batched.cycle());
    }

    /// `tiny()` with a 4 KiB, 4-way L3 below its L2.
    fn three_level() -> TwoLevelHierarchy {
        TwoLevelHierarchy::with_l3(
            CacheGeometry::new(256, 2, 32).unwrap(),
            CacheGeometry::new(1024, 2, 32).unwrap(),
            CacheGeometry::new(4096, 4, 32).unwrap(),
            ReplacementPolicy::Lru,
        )
    }

    #[test]
    fn roundtrip_through_three_levels() {
        let mut h = three_level();
        h.step(MemOp::Store(0x100, 77));
        assert_eq!(h.step(MemOp::Load(0x100)), 77);
    }

    #[test]
    fn miss_cascades_down_three_levels() {
        let mut h = three_level();
        h.step(MemOp::Load(0x100));
        let l3 = h.level_stats(Level::L3).expect("three levels");
        assert_eq!(h.stats().0.load_misses, 1);
        assert_eq!(h.stats().1.load_misses, 1);
        assert_eq!(l3.load_misses, 1);
        // Second word in the same L1 line: the lower levels stay idle.
        h.step(MemOp::Load(0x108));
        assert_eq!(h.stats().0.load_hits, 1);
        assert_eq!(h.stats().1.loads(), 1);
        assert!(tiny().level_stats(Level::L3).is_none());
    }

    #[test]
    fn writeback_cascade_reaches_l3_not_memory() {
        let mut h = three_level();
        h.step(MemOp::Store(0x40, 5));
        // Push it out of L1 (4 sets x 32B = 256B stride) and out of L2
        // (16 sets x 32B = 512B stride).
        for i in 1..=8u64 {
            h.step(MemOp::Load(0x40 + i * 256));
        }
        assert!(h.stats().0.writebacks >= 1);
        assert!(h.stats().1.writebacks >= 1);
        assert_eq!(h.peek_word(Level::L3, 0x40), Some(5));
        assert_eq!(h.peek_memory_word(0x40), 0, "the L3 absorbed it");
        assert_eq!(h.step(MemOp::Load(0x40)), 5);
    }

    #[test]
    fn randomised_transparency_through_three_levels() {
        let mut rng = StdRng::seed_from_u64(0x3133);
        let mut h = three_level();
        let mut oracle = std::collections::HashMap::new();
        for _ in 0..30_000 {
            let addr = (rng.random_range(0..16384u64)) & !7;
            if rng.random_bool(0.4) {
                let v: u64 = rng.random();
                h.step(MemOp::Store(addr, v));
                oracle.insert(addr, v);
            } else {
                assert_eq!(h.step(MemOp::Load(addr)), *oracle.get(&addr).unwrap_or(&0));
            }
        }
    }

    #[test]
    fn store_filtering_attenuates_down_the_hierarchy() {
        // The §7 intuition: when the write working set fits the upper
        // level, the L1 absorbs the re-store traffic and the lower
        // levels see almost no read-before-write events.
        let mut rng = StdRng::seed_from_u64(9);
        let mut h = three_level();
        for _ in 0..50_000 {
            if rng.random_bool(0.4) {
                // Hot store region: 2 blocks mapping to L1 sets 0-1,
                // which the loads below never touch — so the dirty
                // blocks are never evicted from L1.
                let addr = (rng.random_range(0..64u64)) & !7;
                h.step(MemOp::Store(addr, rng.random()));
            } else {
                // Loads confined to L1 sets 2-3 (offsets 0x40..0x7F of
                // each 256-byte stride).
                let stride = rng.random_range(0..32u64);
                let offset = 0x40 + (rng.random_range(0..0x40u64) & !7);
                h.step(MemOp::Load(stride * 256 + offset));
            }
        }
        let (l1, l2) = h.stats();
        assert!(l1.stores_to_dirty > 1_000, "L1 absorbs the re-store stream");
        assert_eq!(l2.stores_to_dirty, 0, "nothing dirty ever reaches L2");
        assert_eq!(h.level_stats(Level::L3).unwrap().stores_to_dirty, 0);
    }

    #[test]
    #[should_panic(expected = "L2 and L3 must share a block size")]
    fn mismatched_l3_block_size_panics() {
        let _ = TwoLevelHierarchy::with_l3(
            CacheGeometry::new(256, 2, 32).unwrap(),
            CacheGeometry::new(1024, 2, 32).unwrap(),
            CacheGeometry::new(4096, 4, 64).unwrap(),
            ReplacementPolicy::Lru,
        );
    }

    /// Nothing above the L2 can tell whether an L3 sits below it: the
    /// loaded values, both upper levels' counters, their dirty
    /// residency and their Tavg are the same bits with and without one;
    /// only memory sees less traffic.
    #[test]
    fn an_l3_is_invisible_above_the_l2() {
        let ops = random_ops(0x13, 40_000);
        let mut two = tiny();
        two.set_cycles_per_op(3);
        two.set_sample_interval(7);
        let mut three = three_level();
        three.set_cycles_per_op(3);
        three.set_sample_interval(7);
        for &op in &ops {
            assert_eq!(two.step(op), three.step(op), "{op:?}");
        }
        assert_eq!(two.stats(), three.stats());
        assert_eq!(two.cycle(), three.cycle());
        assert_eq!(
            two.l1_dirty_fraction().to_bits(),
            three.l1_dirty_fraction().to_bits()
        );
        assert_eq!(
            two.l2_dirty_fraction().to_bits(),
            three.l2_dirty_fraction().to_bits()
        );
        assert_eq!(
            two.l1_tavg().map(f64::to_bits),
            three.l1_tavg().map(f64::to_bits)
        );
        assert_eq!(
            two.l2_tavg().map(f64::to_bits),
            three.l2_tavg().map(f64::to_bits)
        );
        assert!(two.l2_tavg().is_some());
        let l3 = three.level_stats(Level::L3).unwrap();
        assert!(l3.load_hits > 0 && l3.writebacks > 0 && l3.dirty_word_samples > 0);
        assert!(three.memory_reads() < two.memory_reads());
        assert!(three.memory_writes() < two.memory_writes());
    }

    /// Everything a drive leaves that a caller can observe, as bits.
    #[derive(Debug, PartialEq)]
    struct Observed {
        levels: [Option<CacheStats>; 3],
        tavg_bits: [Option<u64>; 2],
        dirty_fraction_bits: [u64; 2],
        cycle: u64,
        memory: (u64, u64, usize),
        loaded: Vec<u64>,
        words: Vec<([Option<u64>; 3], u64)>,
    }

    fn observe(h: &TwoLevelHierarchy, loaded: Vec<u64>) -> Observed {
        Observed {
            levels: Level::ALL.map(|level| h.level_stats(level)),
            tavg_bits: [h.l1_tavg(), h.l2_tavg()].map(|t| t.map(f64::to_bits)),
            dirty_fraction_bits: [h.l1_dirty_fraction(), h.l2_dirty_fraction()].map(f64::to_bits),
            cycle: h.cycle(),
            memory: (
                h.memory_reads(),
                h.memory_writes(),
                h.memory_footprint_words(),
            ),
            loaded,
            words: (0..16384u64)
                .step_by(8)
                .map(|a| (Level::ALL.map(|l| h.peek_word(l, a)), h.peek_memory_word(a)))
                .collect(),
        }
    }

    /// Drives `ops` in rounds of single steps and of batches: batches
    /// of 1 to 700 ops that start mid sample interval and straddle
    /// sample points, and batches longer than a chunk. Between rounds
    /// the sample interval shrinks below the ops already counted, grows
    /// again, and the stats reset. With `batched` false the batch rounds
    /// are stepped too. Returns the words the step rounds loaded.
    fn drive_mixed(h: &mut TwoLevelHierarchy, ops: &[MemOp], batched: bool) -> Vec<u64> {
        h.set_cycles_per_op(3);
        h.set_sample_interval(7);
        let mut rng = StdRng::seed_from_u64(0x5A4D);
        let (mut loaded, mut batch, mut rest) = (Vec::new(), OpBatch::new(), ops);
        for round in 0.. {
            if rest.is_empty() {
                break;
            }
            let n = match round % 4 {
                0 => rng.random_range(1..20usize),
                1 | 2 => rng.random_range(1..700usize),
                _ => CHUNK_OPS + rng.random_range(1..1000usize),
            };
            let (now, later) = rest.split_at(n.min(rest.len()));
            if round % 4 == 0 {
                loaded.extend(now.iter().map(|&op| h.step(op)));
            } else if batched {
                batch.clear();
                batch.extend_from_ops(now);
                h.run_batch(&batch);
            } else {
                for &op in now {
                    h.step(op);
                }
            }
            match round {
                5 => h.set_sample_interval(1),
                6 => h.set_sample_interval(5),
                9 => h.reset_stats(),
                _ => {}
            }
            rest = later;
        }
        loaded
    }

    /// Levels of at least 8 sets each, so every shard count divides them.
    fn eight_set_levels(l3: bool) -> Vec<CacheGeometry> {
        let mut geos = vec![
            CacheGeometry::new(512, 2, 32).unwrap(),
            CacheGeometry::new(2048, 2, 32).unwrap(),
        ];
        if l3 {
            geos.push(CacheGeometry::new(8192, 4, 32).unwrap());
        }
        geos
    }

    /// Every shard count, stepped or batched, leaves the bits a stepped
    /// single-shard drive leaves: per-level counters, dirty residency,
    /// Tavg, clock, memory and every resident word, under each policy
    /// at both depths.
    #[test]
    fn every_shard_count_drives_the_bits_of_one_shard() {
        let ops = random_ops(0x5_4A2D, 30_000);
        for policy in [
            ReplacementPolicy::Lru,
            ReplacementPolicy::Fifo,
            ReplacementPolicy::Random,
        ] {
            for l3 in [false, true] {
                let geos = eight_set_levels(l3);
                let drive = |shards, batched| {
                    let mut h = TwoLevelHierarchy::with_shards(&geos, policy, shards);
                    let loaded = drive_mixed(&mut h, &ops, batched);
                    observe(&h, loaded)
                };
                let stepped = drive(1, false);
                let l2 = stepped.levels[1].unwrap();
                assert!(l2.writebacks > 0 && l2.dirty_word_samples > 0);
                assert!(stepped.tavg_bits.iter().all(Option::is_some));
                assert!(stepped.memory.2 > 0, "memory written");
                assert!(!l3 || stepped.levels[2].unwrap().writebacks > 0);
                for shards in [1, 2, 4, 8] {
                    for batched in [false, true] {
                        assert_eq!(
                            drive(shards, batched),
                            stepped,
                            "{policy:?}, L3 {l3}, {shards} shards, batched {batched}"
                        );
                    }
                }
                assert_eq!(TwoLevelHierarchy::sharded(&geos, policy).shard_count(), 8);
            }
        }
    }

    /// A level with fewer than 8 sets caps the shard count at its own
    /// set count, and the capped split still drives the unsplit bits.
    #[test]
    fn fewer_than_eight_sets_clamp_the_shard_count() {
        let ops = random_ops(0xC1A9, 20_000);
        let l2 = CacheGeometry::new(1024, 2, 32).unwrap();
        for (l1, shards) in [
            (CacheGeometry::new(256, 2, 32).unwrap(), 4),
            (CacheGeometry::new(256, 8, 32).unwrap(), 1),
        ] {
            let mut clamped = TwoLevelHierarchy::new(l1, l2, ReplacementPolicy::Random);
            assert_eq!(clamped.shard_count(), shards);
            let mut one = TwoLevelHierarchy::with_shards(&[l1, l2], ReplacementPolicy::Random, 1);
            let clamped_loads = drive_mixed(&mut clamped, &ops, true);
            let one_loads = drive_mixed(&mut one, &ops, false);
            assert_eq!(observe(&clamped, clamped_loads), observe(&one, one_loads));
        }
    }

    /// Chunks that arrive further apart than [`POLL`] find the helpers
    /// parked: the caller's unpark still brings them in, the drive leaves
    /// the stepped bits, and dropping the hierarchy joins the helpers.
    #[test]
    fn parked_helpers_wake_for_late_chunks_and_join_on_drop() {
        let ops = random_ops(0x9A2C, 30_000);
        let geos = eight_set_levels(true);
        let mut stepped = TwoLevelHierarchy::with_shards(&geos, ReplacementPolicy::Random, 1);
        let mut batched = TwoLevelHierarchy::with_shards(&geos, ReplacementPolicy::Random, 8);
        for (i, part) in ops.chunks(2_000).enumerate() {
            for &op in part {
                stepped.step(op);
            }
            batched.run_batch(&OpBatch::from_ops(part));
            if i % 2 == 0 {
                std::thread::sleep(POLL * 10);
            }
        }
        assert_eq!(observe(&batched, Vec::new()), observe(&stepped, Vec::new()));
        let pool = Arc::clone(&batched.helpers.as_ref().expect("started").pool);
        std::thread::sleep(POLL * 10);
        let (dropped, joined) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            drop(batched);
            dropped.send(()).expect("the test waits");
        });
        joined
            .recv_timeout(Duration::from_secs(30))
            .expect("dropping the hierarchy joins its parked helpers");
        assert_eq!(Arc::strong_count(&pool), 1, "every helper has exited");
    }

    #[test]
    fn memop_accessors() {
        assert_eq!(MemOp::Load(8).addr(), 8);
        assert!(MemOp::Store(8, 1).is_store());
        assert!(!MemOp::Load(8).is_store());
    }
}

/// A word- and block-keyed Tavg reference for the slot stamps: plain
/// `HashMap`s of last-access cycles, driven by the caches' own
/// `load_word` / `store_word` paths and told of every writeback through
/// the [`Backing`] calls. A key is in its map exactly while that word
/// (L1) or block (L2) is dirty; a writeback removes it after closing its
/// last interval.
#[cfg(test)]
mod reference {
    use std::collections::HashMap;

    use super::{CacheGeometry, MainMemory, MemOp, ReplacementPolicy};
    use crate::cache::{Backing, Cache};

    #[derive(Default)]
    struct KeyedIntervals {
        last: HashMap<u64, u64>,
        sum: u128,
        count: u64,
    }

    impl KeyedIntervals {
        fn touch(&mut self, key: u64, now: u64, dirty_after: bool) {
            if let Some(last) = self.last.get_mut(&key) {
                self.sum += u128::from(now - *last);
                self.count += 1;
                *last = now;
            } else if dirty_after {
                self.last.insert(key, now);
            }
        }

        fn retire(&mut self, key: u64, now: u64) {
            let last = self.last.remove(&key).expect("a written-back key is dirty");
            self.sum += u128::from(now - last);
            self.count += 1;
        }

        fn tavg(&self) -> Option<f64> {
            (self.count > 0).then(|| self.sum as f64 / self.count as f64)
        }
    }

    /// Memory below the L2: a writeback retires the L2 block's key.
    struct Memory<'a> {
        mem: &'a mut MainMemory,
        l2_blocks: &'a mut KeyedIntervals,
        now: u64,
    }

    impl Backing for Memory<'_> {
        fn fetch_block_into(&mut self, base: u64, buf: &mut [u64]) {
            self.mem.read_block_into(base, buf);
        }

        fn write_back(&mut self, base: u64, data: &[u64], dirty_mask: u64) {
            self.l2_blocks.retire(base, self.now);
            self.mem.write_back_dirty(base, data, dirty_mask);
        }
    }

    /// The L2 below the L1: a writeback retires each dirty L1 word's key
    /// and touches the L2 block; a fetch touches the block if dirty.
    struct Level2<'a> {
        l2: &'a mut Cache,
        mem: &'a mut MainMemory,
        l1_words: &'a mut KeyedIntervals,
        l2_blocks: &'a mut KeyedIntervals,
        now: u64,
    }

    impl Backing for Level2<'_> {
        fn fetch_block_into(&mut self, base: u64, buf: &mut [u64]) {
            self.l2_blocks.touch(base, self.now, false);
            let mut below = Memory {
                mem: self.mem,
                l2_blocks: self.l2_blocks,
                now: self.now,
            };
            self.l2.read_block_into(base, &mut below, buf);
        }

        fn write_back(&mut self, base: u64, data: &[u64], dirty_mask: u64) {
            let mut mask = dirty_mask;
            while mask != 0 {
                let w = u64::from(mask.trailing_zeros());
                self.l1_words.retire(base + 8 * w, self.now);
                mask &= mask - 1;
            }
            let mut below = Memory {
                mem: self.mem,
                l2_blocks: self.l2_blocks,
                now: self.now,
            };
            self.l2.write_block(base, data, dirty_mask, &mut below);
            self.l2_blocks.touch(base, self.now, true);
        }
    }

    pub(super) struct Reference {
        pub(super) l1: Cache,
        pub(super) l2: Cache,
        mem: MainMemory,
        cycle: u64,
        cycles_per_op: u64,
        l1_words: KeyedIntervals,
        l2_blocks: KeyedIntervals,
    }

    impl Reference {
        pub(super) fn new(l1: CacheGeometry, l2: CacheGeometry, cycles_per_op: u64) -> Self {
            Reference {
                l1: Cache::new(l1, ReplacementPolicy::Lru),
                l2: Cache::new(l2, ReplacementPolicy::Lru),
                mem: MainMemory::new(),
                cycle: 0,
                cycles_per_op,
                l1_words: KeyedIntervals::default(),
                l2_blocks: KeyedIntervals::default(),
            }
        }

        pub(super) fn step(&mut self, op: MemOp) -> u64 {
            self.cycle += self.cycles_per_op;
            let now = self.cycle;
            // The op's own word: a fill only evicts other blocks' words.
            self.l1_words.touch(op.addr() & !7, now, op.is_store());
            let mut below = Level2 {
                l2: &mut self.l2,
                mem: &mut self.mem,
                l1_words: &mut self.l1_words,
                l2_blocks: &mut self.l2_blocks,
                now,
            };
            match op {
                MemOp::Load(a) => self.l1.load_word(a, &mut below),
                MemOp::Store(a, v) => {
                    self.l1.store_word(a, v, &mut below);
                    0
                }
                MemOp::StoreByte(a, v) => {
                    self.l1.store_byte(a, v, &mut below);
                    0
                }
            }
        }

        pub(super) fn tavg(&self) -> (Option<f64>, Option<f64>) {
            (self.l1_words.tavg(), self.l2_blocks.tavg())
        }
    }
}
