//! Reads the program's own counters and timers as
//! [`cppc_obs::snapshot()`] deltas around a measured phase.

use std::collections::HashMap;

use cppc_obs::SnapshotValue;

use crate::Metric;

/// Registers every metric group the benchmark reads, so snapshots list
/// them even before their layer first runs.
fn register_all() {
    cppc_campaign::obs::register_metrics();
    cppc_cache_sim::obs::register_metrics();
    cppc_core::obs::register_metrics();
    cppc_bench::obs::register_metrics();
    cppc_workloads::obs::register_metrics();
    cppc_timing::obs::register_metrics();
    cppc_serve::obs::register_metrics();
}

/// Counter values and timer `(count, total_ns)` pairs at one instant.
#[derive(Debug, Clone, Default)]
pub struct ObsSnap {
    counters: HashMap<&'static str, u64>,
    timers: HashMap<&'static str, (u64, u64)>,
}

impl ObsSnap {
    /// Snapshots the registry (flushing this thread's span aggregates).
    #[must_use]
    pub fn take() -> Self {
        register_all();
        let mut snap = ObsSnap::default();
        for group in cppc_obs::snapshot() {
            for m in group.metrics {
                match m.value {
                    SnapshotValue::Counter(v) => {
                        snap.counters.insert(m.name, v);
                    }
                    SnapshotValue::Timer(t) => {
                        snap.timers.insert(m.name, (t.count, t.total_ns));
                    }
                    SnapshotValue::Gauge(_) => {}
                }
            }
        }
        snap
    }

    /// Growth of counter `name` since `earlier` (0 if unknown).
    #[must_use]
    pub fn counter_since(&self, earlier: &ObsSnap, name: &str) -> u64 {
        let now = self.counters.get(name).copied().unwrap_or(0);
        let then = earlier.counters.get(name).copied().unwrap_or(0);
        now.saturating_sub(then)
    }

    /// Growth of timer `name` since `earlier`: `(spans, total ns)`.
    #[must_use]
    pub fn timer_since(&self, earlier: &ObsSnap, name: &str) -> (u64, u64) {
        let (c1, t1) = self.timers.get(name).copied().unwrap_or((0, 0));
        let (c0, t0) = earlier.timers.get(name).copied().unwrap_or((0, 0));
        (c1.saturating_sub(c0), t1.saturating_sub(t0))
    }
}

impl ObsSnap {
    /// The per-layer counts every traced run reads from the program's
    /// own instrumentation: trace decode, cache levels, daemon
    /// requests, checkpoint persistence and recovery walks, as growth
    /// since `earlier`. A layer the workload never enters reads 0.
    #[must_use]
    pub fn layer_counts(&self, earlier: &ObsSnap) -> Vec<Metric> {
        let c = |name: &str| self.counter_since(earlier, name) as f64;
        let (walks, walk_ns) = self.timer_since(earlier, "cppc.recovery.walk.ns");
        let (_, ckpt_ns) = self.timer_since(earlier, "campaign.checkpoint.write.ns");
        vec![
            Metric::new("workloads.bytes_read", "bytes", c("trace.bytes_read")),
            Metric::new("workloads.ops_decoded", "count", c("trace.ops_decoded")),
            Metric::new(
                "cache.l1.misses",
                "count",
                c("cache.l1.load_misses") + c("cache.l1.store_misses"),
            ),
            Metric::new("cache.l1.writebacks", "count", c("cache.l1.writebacks")),
            Metric::new(
                "cache.l2.misses",
                "count",
                c("cache.l2.load_misses") + c("cache.l2.store_misses"),
            ),
            Metric::new("cache.l2.writebacks", "count", c("cache.l2.writebacks")),
            Metric::new(
                "cache.fills",
                "count",
                c("cache.l1.fills") + c("cache.l2.fills"),
            ),
            Metric::new("serve.requests", "count", c("serve.requests")),
            Metric::new(
                "campaign.checkpoint_writes",
                "count",
                c("campaign.checkpoint_writes"),
            ),
            Metric::new("campaign.checkpoint_write_s", "s", ckpt_ns as f64 / 1e9),
            Metric::new(
                "core.recovery_walks",
                "count",
                c("cppc.recovery.walks").max(walks as f64),
            ),
            Metric::new("core.recovery_walk_s", "s", walk_ns as f64 / 1e9),
            Metric::new("core.via_locator", "count", c("cppc.recovery.via_locator")),
            Metric::new("core.dues", "count", c("cppc.recovery.dues")),
        ]
    }
}
