//! The static metric registry: typed metric cells, their metadata, and
//! the global list of registered metric groups.
//!
//! Metrics are declared with the [`metrics!`](crate::metrics) macro,
//! which forces every metric to carry a name, a unit and a doc string.
//! The declaration produces `static` cells (lock-free atomics) plus a
//! [`MetricGroup`] holding the metadata; the group self-registers into
//! the process-wide registry the first time any of the crate's
//! instrumentation runs (or when [`MetricGroup::register`] is called
//! explicitly, as the exporters and the `cppc-cli docs` renderer of
//! `docs/METRICS.md` do).

use std::sync::atomic::{AtomicBool, Ordering};
#[cfg(feature = "enabled")]
use std::sync::atomic::{AtomicI64, AtomicU64};
use std::sync::Mutex;

use crate::span::Timer;

/// What kind of value a metric holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing event count.
    Counter,
    /// A signed level that can move both ways.
    Gauge,
    /// A duration histogram fed by scoped span timers.
    Timer,
}

impl MetricKind {
    /// Lower-case label used by the exporters.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Timer => "timer",
        }
    }
}

/// A monotonically increasing event counter.
///
/// All updates are relaxed atomic adds; with the `enabled` feature off,
/// updates compile to nothing and reads return zero.
#[derive(Debug)]
pub struct Counter {
    #[cfg(feature = "enabled")]
    value: AtomicU64,
}

impl Counter {
    /// Creates a zeroed counter (used by the declaration macro).
    #[must_use]
    pub const fn new() -> Self {
        Counter {
            #[cfg(feature = "enabled")]
            value: AtomicU64::new(0),
        }
    }

    /// Adds `n` events.
    #[inline]
    pub fn add(&self, n: u64) {
        #[cfg(feature = "enabled")]
        self.value.fetch_add(n, Ordering::Relaxed);
        #[cfg(not(feature = "enabled"))]
        let _ = n;
    }

    /// Adds one event.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        #[cfg(feature = "enabled")]
        {
            self.value.load(Ordering::Relaxed)
        }
        #[cfg(not(feature = "enabled"))]
        0
    }

    /// Zeroes the counter (test/reset support).
    pub fn reset(&self) {
        #[cfg(feature = "enabled")]
        self.value.store(0, Ordering::Relaxed);
    }
}

impl Default for Counter {
    fn default() -> Self {
        Counter::new()
    }
}

/// A signed level (queue depth, resident bytes, …).
#[derive(Debug)]
pub struct Gauge {
    #[cfg(feature = "enabled")]
    value: AtomicI64,
}

impl Gauge {
    /// Creates a zeroed gauge.
    #[must_use]
    pub const fn new() -> Self {
        Gauge {
            #[cfg(feature = "enabled")]
            value: AtomicI64::new(0),
        }
    }

    /// Sets the level.
    #[inline]
    pub fn set(&self, v: i64) {
        #[cfg(feature = "enabled")]
        self.value.store(v, Ordering::Relaxed);
        #[cfg(not(feature = "enabled"))]
        let _ = v;
    }

    /// Moves the level by `delta` (negative to decrease).
    #[inline]
    pub fn add(&self, delta: i64) {
        #[cfg(feature = "enabled")]
        self.value.fetch_add(delta, Ordering::Relaxed);
        #[cfg(not(feature = "enabled"))]
        let _ = delta;
    }

    /// Current level.
    #[must_use]
    pub fn get(&self) -> i64 {
        #[cfg(feature = "enabled")]
        {
            self.value.load(Ordering::Relaxed)
        }
        #[cfg(not(feature = "enabled"))]
        0
    }

    /// Zeroes the gauge (test/reset support).
    pub fn reset(&self) {
        #[cfg(feature = "enabled")]
        self.value.store(0, Ordering::Relaxed);
    }
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge::new()
    }
}

/// A reference to one metric's value cell.
#[derive(Debug, Clone, Copy)]
pub enum MetricRef {
    /// A [`Counter`].
    Counter(&'static Counter),
    /// A [`Gauge`].
    Gauge(&'static Gauge),
    /// A [`Timer`].
    Timer(&'static Timer),
}

impl MetricRef {
    /// The metric's kind.
    #[must_use]
    pub fn kind(&self) -> MetricKind {
        match self {
            MetricRef::Counter(_) => MetricKind::Counter,
            MetricRef::Gauge(_) => MetricKind::Gauge,
            MetricRef::Timer(_) => MetricKind::Timer,
        }
    }
}

/// One metric's full description: identity, metadata and value cell.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Dotted metric name, e.g. `cache.l1.load_hits`.
    pub name: &'static str,
    /// Unit of the value (`events`, `cycles`, `ns`, `bytes`, …).
    pub unit: &'static str,
    /// Mandatory human description — the source of `docs/METRICS.md`.
    pub doc: &'static str,
    /// The value cell.
    pub metric: MetricRef,
}

/// A named set of metrics declared together by one subsystem.
#[derive(Debug)]
pub struct MetricGroup {
    /// Subsystem name, e.g. `cache.l1` or `campaign`.
    pub subsystem: &'static str,
    /// What the subsystem's metrics cover.
    pub doc: &'static str,
    /// The group's metrics, in declaration order.
    pub metrics: &'static [MetricDef],
    registered: AtomicBool,
}

static GROUPS: Mutex<Vec<&'static MetricGroup>> = Mutex::new(Vec::new());

impl MetricGroup {
    /// Creates a group (used by the declaration macro).
    #[must_use]
    pub const fn new(
        subsystem: &'static str,
        doc: &'static str,
        metrics: &'static [MetricDef],
    ) -> Self {
        MetricGroup {
            subsystem,
            doc,
            metrics,
            registered: AtomicBool::new(false),
        }
    }

    /// Adds the group to the process-wide registry (idempotent; the
    /// fast path is one relaxed atomic load).
    pub fn register(&'static self) {
        if self.registered.load(Ordering::Relaxed) {
            return;
        }
        if !self.registered.swap(true, Ordering::Relaxed) {
            GROUPS.lock().expect("metric registry lock").push(self);
        }
    }
}

/// All groups registered so far, sorted by subsystem name so the order
/// is independent of which instrumentation ran first.
#[must_use]
pub fn registered_groups() -> Vec<&'static MetricGroup> {
    let mut groups: Vec<&'static MetricGroup> =
        GROUPS.lock().expect("metric registry lock").clone();
    groups.sort_by_key(|g| g.subsystem);
    groups
}

/// Zeroes every registered metric (and nothing else). Intended for
/// tests that compare runs; concurrent writers will interleave, so call
/// it only while instrumented threads are quiescent.
pub fn reset_all() {
    crate::span::flush();
    for group in registered_groups() {
        for def in group.metrics {
            match def.metric {
                MetricRef::Counter(c) => c.reset(),
                MetricRef::Gauge(g) => g.reset(),
                MetricRef::Timer(t) => t.reset(),
            }
        }
    }
}

/// Declares a group of metrics: the typed `static` cells plus a
/// [`MetricGroup`] carrying name, unit and a **mandatory doc string**
/// for every metric — the metadata `docs/METRICS.md` is generated from.
///
/// ```
/// mod obs {
///     cppc_obs::metrics! {
///         group DEMO_METRICS: "demo", "Example subsystem.";
///         counter DEMO_OPS: "demo.ops", "events", "Operations processed.";
///         gauge DEMO_DEPTH: "demo.queue_depth", "items", "Current queue depth.";
///         timer DEMO_STEP: "demo.step.ns", "ns", "Wall time per step.";
///     }
/// }
/// obs::DEMO_METRICS.register();
/// obs::DEMO_OPS.inc();
/// assert_eq!(obs::DEMO_METRICS.metrics[0].name, "demo.ops");
/// assert_eq!(obs::DEMO_METRICS.metrics[0].unit, "events");
/// ```
#[macro_export]
macro_rules! metrics {
    (
        group $group:ident : $subsystem:literal, $gdoc:literal ;
        $( $kind:ident $name:ident : $mname:literal, $unit:literal, $doc:literal ; )+
    ) => {
        $( $crate::__metric_static!($kind $name, $doc); )+

        #[doc = $gdoc]
        pub static $group: $crate::registry::MetricGroup =
            $crate::registry::MetricGroup::new(
                $subsystem,
                $gdoc,
                &[ $( $crate::__metric_def!($kind $name, $mname, $unit, $doc) ),+ ],
            );
    };
}

/// Internal helper of [`metrics!`]: declares one metric's static cell.
#[doc(hidden)]
#[macro_export]
macro_rules! __metric_static {
    (counter $name:ident, $doc:literal) => {
        #[doc = $doc]
        pub static $name: $crate::registry::Counter = $crate::registry::Counter::new();
    };
    (gauge $name:ident, $doc:literal) => {
        #[doc = $doc]
        pub static $name: $crate::registry::Gauge = $crate::registry::Gauge::new();
    };
    (timer $name:ident, $doc:literal) => {
        #[doc = $doc]
        pub static $name: $crate::span::Timer = $crate::span::Timer::new();
    };
}

/// Internal helper of [`metrics!`]: builds one [`MetricDef`].
#[doc(hidden)]
#[macro_export]
macro_rules! __metric_def {
    (counter $name:ident, $mname:literal, $unit:literal, $doc:literal) => {
        $crate::registry::MetricDef {
            name: $mname,
            unit: $unit,
            doc: $doc,
            metric: $crate::registry::MetricRef::Counter(&$name),
        }
    };
    (gauge $name:ident, $mname:literal, $unit:literal, $doc:literal) => {
        $crate::registry::MetricDef {
            name: $mname,
            unit: $unit,
            doc: $doc,
            metric: $crate::registry::MetricRef::Gauge(&$name),
        }
    };
    (timer $name:ident, $mname:literal, $unit:literal, $doc:literal) => {
        $crate::registry::MetricDef {
            name: $mname,
            unit: $unit,
            doc: $doc,
            metric: $crate::registry::MetricRef::Timer(&$name),
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    crate::metrics! {
        group TEST_METRICS: "registry-test", "Metrics used by registry unit tests.";
        counter TEST_EVENTS: "registry_test.events", "events", "Events recorded by the test.";
        gauge TEST_LEVEL: "registry_test.level", "items", "Level set by the test.";
        timer TEST_SPAN: "registry_test.span.ns", "ns", "Span recorded by the test.";
    }

    #[test]
    fn counter_and_gauge_roundtrip() {
        TEST_METRICS.register();
        TEST_EVENTS.add(4);
        TEST_EVENTS.inc();
        TEST_LEVEL.set(7);
        TEST_LEVEL.add(-2);
        #[cfg(feature = "enabled")]
        {
            assert!(TEST_EVENTS.get() >= 5);
            assert_eq!(TEST_LEVEL.get(), 5);
        }
        #[cfg(not(feature = "enabled"))]
        {
            assert_eq!(TEST_EVENTS.get(), 0);
            assert_eq!(TEST_LEVEL.get(), 0);
        }
    }

    #[test]
    fn registration_is_idempotent() {
        TEST_METRICS.register();
        TEST_METRICS.register();
        let groups = registered_groups();
        assert_eq!(
            groups
                .iter()
                .filter(|g| g.subsystem == "registry-test")
                .count(),
            1
        );
    }

    #[test]
    fn metadata_is_mandatory_and_typed() {
        let defs = TEST_METRICS.metrics;
        assert_eq!(defs.len(), 3);
        assert!(defs.iter().all(|d| !d.doc.is_empty()));
        assert_eq!(defs[0].metric.kind(), MetricKind::Counter);
        assert_eq!(defs[1].metric.kind(), MetricKind::Gauge);
        assert_eq!(defs[2].metric.kind(), MetricKind::Timer);
        assert_eq!(defs[2].unit, "ns");
    }

    #[test]
    fn kind_labels() {
        assert_eq!(MetricKind::Counter.label(), "counter");
        assert_eq!(MetricKind::Gauge.label(), "gauge");
        assert_eq!(MetricKind::Timer.label(), "timer");
    }
}
