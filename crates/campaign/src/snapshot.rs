//! Per-process pool of warm trial contexts shared across campaign shards.
//!
//! A fault-injection trial spends most of its wall time replaying the
//! same deterministic warmup prefix before injecting anything. The
//! [`WarmPool`] lets an experiment simulate that prefix **once per
//! worker thread** (per campaign identity), capture the resulting warm
//! state, and serve every subsequent trial by checking a warm context
//! out of the pool, restoring it in place and checking it back in:
//!
//! ```text
//! trial 0 (per thread):  warmup → capture     (a `snapshot.captures`)
//! trials 1..n:           checkout → restore   (a `snapshot.restores`)
//! ```
//!
//! The pool is keyed by a caller-supplied `identity` — a hash of
//! everything the warm state depends on (seed, geometry, configuration).
//! Presenting a different identity invalidates the pool: stale contexts
//! are dropped and the warmup is re-simulated, so a config change can
//! never leak a mismatched snapshot into a campaign.
//! The `snapshot.*` metrics are process-wide: `snapshot.bytes` sums
//! [`WarmPool::bytes`] over the live pools, and `snapshot.hit_rate` is
//! taken from the process-wide restore and capture counters.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

cppc_obs::metrics! {
    group SNAPSHOT_METRICS: "snapshot", "Warm-state snapshot reuse across campaign trials.";
    counter SNAPSHOT_CAPTURES: "snapshot.captures", "captures", "Warmup prefixes simulated from cold and captured into a pooled context.";
    counter SNAPSHOT_RESTORES: "snapshot.restores", "restores", "Trials served by restoring a pooled warm context instead of replaying the warmup.";
    gauge SNAPSHOT_BYTES: "snapshot.bytes", "bytes", "Approximate heap bytes held by pooled warm snapshots (current identity), summed over live pools.";
    gauge SNAPSHOT_HIT_RATE: "snapshot.hit_rate", "percent", "Restores as a percentage of pool checkouts (restores + captures).";
}

/// Registers the snapshot metric group (idempotent).
pub fn register_metrics() {
    SNAPSHOT_METRICS.register();
}

struct PoolState<T> {
    identity: u64,
    entries: Vec<T>,
}

/// A pool of reusable warm trial contexts, keyed by a campaign identity.
///
/// Designed to live in a `static`: [`WarmPool::new`] is `const`, and all
/// coordination is a single short-lived mutex around the free list plus
/// relaxed counters. The pool never holds the lock across a capture or a
/// trial, so worker threads warm up and run concurrently; at steady
/// state it holds one context per worker thread.
pub struct WarmPool<T> {
    state: Mutex<PoolState<T>>,
    captures: AtomicU64,
    restores: AtomicU64,
    bytes: AtomicU64,
}

impl<T> Default for WarmPool<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> WarmPool<T> {
    /// Creates an empty pool (usable in a `static`).
    #[must_use]
    pub const fn new() -> Self {
        WarmPool {
            state: Mutex::new(PoolState {
                identity: 0,
                entries: Vec::new(),
            }),
            captures: AtomicU64::new(0),
            restores: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    /// Runs `trial` on a warm context for `identity`.
    ///
    /// Checks a pooled context out (counting a restore), or builds one
    /// with `capture` when the pool is empty or keyed to a different
    /// identity (counting a capture; `capture` returns the context and
    /// its approximate heap bytes for the `snapshot.bytes` gauge). The
    /// context is checked back in afterwards — unless the identity moved
    /// on in the meantime, in which case the stale context is dropped.
    ///
    /// # Panics
    ///
    /// Panics if the pool mutex was poisoned by a panicking trial.
    pub fn with<R>(
        &self,
        identity: u64,
        capture: impl FnOnce() -> (T, u64),
        trial: impl FnOnce(&mut T) -> R,
    ) -> R {
        register_metrics();
        let pooled = {
            let mut st = self.state.lock().expect("warm pool poisoned");
            if st.identity != identity {
                st.identity = identity;
                st.entries.clear();
                SNAPSHOT_BYTES.add(-gauge_delta(self.bytes.swap(0, Ordering::Relaxed)));
            }
            st.entries.pop()
        };
        let mut ctx = match pooled {
            Some(ctx) => {
                self.restores.fetch_add(1, Ordering::Relaxed);
                SNAPSHOT_RESTORES.inc();
                ctx
            }
            None => {
                let (ctx, bytes) = capture();
                self.captures.fetch_add(1, Ordering::Relaxed);
                self.bytes.fetch_add(bytes, Ordering::Relaxed);
                SNAPSHOT_CAPTURES.inc();
                SNAPSHOT_BYTES.add(gauge_delta(bytes));
                ctx
            }
        };
        let out = trial(&mut ctx);
        {
            let mut st = self.state.lock().expect("warm pool poisoned");
            if st.identity == identity {
                st.entries.push(ctx);
            }
        }
        let process_wide = hit_rate(SNAPSHOT_RESTORES.get(), SNAPSHOT_CAPTURES.get());
        SNAPSHOT_HIT_RATE.set((process_wide * 100.0).round() as i64);
        out
    }

    /// Warmup prefixes simulated from cold over the pool's lifetime.
    #[must_use]
    pub fn captures(&self) -> u64 {
        self.captures.load(Ordering::Relaxed)
    }

    /// Trials served from a pooled context over the pool's lifetime.
    #[must_use]
    pub fn restores(&self) -> u64 {
        self.restores.load(Ordering::Relaxed)
    }

    /// Approximate heap bytes held by contexts of the current identity.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Fraction of checkouts served from the pool, in `[0, 1]` (0 when
    /// the pool has never been used).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        hit_rate(self.restores(), self.captures())
    }
}

impl<T> Drop for WarmPool<T> {
    /// Takes the pool's bytes out of the process-wide gauge.
    fn drop(&mut self) {
        SNAPSHOT_BYTES.add(-gauge_delta(*self.bytes.get_mut()));
    }
}

/// `bytes` as a gauge delta (saturating: a pool never holds 2^63 bytes).
fn gauge_delta(bytes: u64) -> i64 {
    i64::try_from(bytes).unwrap_or(i64::MAX)
}

/// Restores over checkouts, in `[0, 1]` (0 before any checkout).
fn hit_rate(restores: u64, captures: u64) -> f64 {
    let total = restores + captures;
    if total == 0 {
        0.0
    } else {
        restores as f64 / total as f64
    }
}

impl<T> std::fmt::Debug for WarmPool<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WarmPool")
            .field("captures", &self.captures())
            .field("restores", &self.restores())
            .field("bytes", &self.bytes())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialises the tests that move the process-wide snapshot metrics,
    /// so each one sees only its own pools' deltas.
    static METRICS: Mutex<()> = Mutex::new(());

    fn metrics_lock() -> std::sync::MutexGuard<'static, ()> {
        METRICS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn gauges_cover_every_live_pool() {
        let _guard = metrics_lock();
        register_metrics();
        let (captures0, restores0) = (SNAPSHOT_CAPTURES.get(), SNAPSHOT_RESTORES.get());
        let bytes0 = SNAPSHOT_BYTES.get();
        let a: WarmPool<u64> = WarmPool::new();
        let b: WarmPool<u64> = WarmPool::new();
        // Pool `a` is all restores after its capture, pool `b` runs
        // last and is half captures: neither pool's own ratio is the
        // process-wide one.
        for _ in 0..4 {
            a.with(1, || (0, 8), |_| ());
        }
        b.with(2, || (0, 100), |_| ());
        b.with(2, || (0, 100), |_| ());
        assert_eq!(SNAPSHOT_CAPTURES.get() - captures0, 2);
        assert_eq!(SNAPSHOT_RESTORES.get() - restores0, 4);
        let (captures, restores) = (SNAPSHOT_CAPTURES.get(), SNAPSHOT_RESTORES.get());
        assert_eq!(
            SNAPSHOT_HIT_RATE.get(),
            (restores as f64 * 100.0 / (restores + captures) as f64).round() as i64
        );
        assert_eq!(SNAPSHOT_BYTES.get() - bytes0, 108, "sum over both pools");
        // An identity change drops `b`'s stale bytes; dropping `a`
        // takes its bytes out too.
        b.with(3, || (0, 30), |_| ());
        assert_eq!(SNAPSHOT_BYTES.get() - bytes0, 38);
        drop(a);
        assert_eq!(SNAPSHOT_BYTES.get() - bytes0, 30);
        drop(b);
        assert_eq!(SNAPSHOT_BYTES.get(), bytes0);
    }

    #[test]
    fn first_use_captures_then_restores() {
        let _guard = metrics_lock();
        let pool: WarmPool<Vec<u64>> = WarmPool::new();
        for i in 0..5u64 {
            let seen = pool.with(
                7,
                || (vec![42], 8),
                |ctx| {
                    ctx.push(i);
                    ctx.len()
                },
            );
            assert_eq!(seen, 2 + i as usize, "context persists across trials");
        }
        assert_eq!(pool.captures(), 1);
        assert_eq!(pool.restores(), 4);
        assert_eq!(pool.bytes(), 8);
        assert!((pool.hit_rate() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn identity_change_invalidates_pool() {
        let _guard = metrics_lock();
        let pool: WarmPool<Vec<u64>> = WarmPool::new();
        pool.with(1, || (vec![1], 8), |_| ());
        pool.with(1, || (vec![1], 8), |_| ());
        assert_eq!(pool.captures(), 1);
        // New identity: the pooled context must NOT be reused.
        let fresh = pool.with(2, || (vec![9], 8), |ctx| ctx[0]);
        assert_eq!(fresh, 9);
        assert_eq!(pool.captures(), 2);
        assert_eq!(pool.bytes(), 8, "stale bytes cleared on invalidation");
    }

    #[test]
    fn concurrent_checkouts_get_distinct_contexts() {
        let _guard = metrics_lock();
        use std::sync::atomic::AtomicUsize;
        static LIVE: AtomicUsize = AtomicUsize::new(0);
        let pool: WarmPool<u64> = WarmPool::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..50 {
                        pool.with(
                            3,
                            || (LIVE.fetch_add(1, Ordering::Relaxed) as u64, 1),
                            |_| std::thread::yield_now(),
                        );
                    }
                });
            }
        });
        assert_eq!(pool.captures() + pool.restores(), 200);
        assert!(pool.captures() <= 4, "at most one capture per thread");
    }
}
