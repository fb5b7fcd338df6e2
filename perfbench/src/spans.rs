//! The traced run's spans: recorded in memory from the benchmark's own
//! code around each call into a layer, written to a file at exit, and
//! reduced to self time per layer and coverage of the traced wall time.
//!
//! A span has a name (`<layer>.<what>`), a start, an end and a parent
//! (0 for a root). Each traced repetition of a workload is wrapped in a
//! [`WINDOW`] span owned by the benchmark itself; the share of window
//! time that its child spans cover is the run's coverage.

use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Name of the benchmark's own per-repetition window span.
pub const WINDOW: &str = "bench.rep";

/// One finished span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRec {
    /// Unique id (≥ 1).
    pub id: u64,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u64,
    /// Small per-process number of the recording thread.
    pub thread: u32,
    /// `<layer>.<what>`.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
}

impl SpanRec {
    /// Duration in ns.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer: the name up to its first dot.
    #[must_use]
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Process-wide span sink shared by every recording thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static THREAD_NO: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A recorder for the calling thread; its spans reach the tracer
    /// when it is dropped.
    #[must_use]
    pub fn local(&self) -> Local<'_> {
        Local {
            tracer: self,
            thread: THREAD_NO.with(|t| *t),
            buf: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Every span recorded, in id order (recorders still alive keep
    /// theirs until they are dropped).
    #[must_use]
    pub fn into_spans(self) -> Vec<SpanRec> {
        let mut all = self.spans.into_inner().expect("span sink");
        all.sort_unstable_by_key(|s| s.id);
        all
    }
}

/// A span that has started and not yet ended.
#[derive(Debug, Clone, Copy)]
#[must_use = "close the span to record it"]
pub struct Open {
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
}

impl Open {
    /// This span's id, the parent of spans opened inside it.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// A thread's span recorder (a plain buffer; no lock per span).
#[derive(Debug)]
pub struct Local<'a> {
    tracer: &'a Tracer,
    thread: u32,
    buf: Vec<SpanRec>,
}

impl Local<'_> {
    /// Starts span `name` under `parent` (0 for a root).
    pub fn open(&mut self, name: &'static str, parent: u64) -> Open {
        Open {
            id: self.tracer.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            start_ns: self.tracer.now_ns(),
        }
    }

    /// Records a span whose bounds were taken earlier, returning its
    /// id (used where the bounds are only known after the fact, e.g.
    /// the first `running` event of a watched job).
    pub fn record(&mut self, name: &'static str, parent: u64, start: Instant, end: Instant) -> u64 {
        let ns = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.tracer.epoch).as_nanos())
                .unwrap_or(u64::MAX)
        };
        let id = self.tracer.next_id.fetch_add(1, Ordering::Relaxed);
        self.buf.push(SpanRec {
            id,
            parent,
            thread: self.thread,
            name,
            start_ns: ns(start),
            end_ns: ns(end).max(ns(start)),
        });
        id
    }

    /// Ends `span`.
    pub fn close(&mut self, span: Open) {
        let end_ns = self.tracer.now_ns();
        self.buf.push(SpanRec {
            id: span.id,
            parent: span.parent,
            thread: self.thread,
            name: span.name,
            start_ns: span.start_ns,
            end_ns,
        });
    }
}

impl Drop for Local<'_> {
    fn drop(&mut self) {
        if !self.buf.is_empty() {
            self.tracer
                .spans
                .lock()
                .expect("span sink")
                .append(&mut self.buf);
        }
    }
}

/// Totals of all spans sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans recorded.
    pub count: u64,
    /// Summed durations, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus the part its children cover), ns.
    pub self_ns: u64,
}

/// Self time per name and per layer, and window coverage.
#[derive(Debug, Clone, Default)]
pub struct Analysis {
    /// Spans analysed.
    pub spans: usize,
    /// Totals per span name.
    pub by_name: BTreeMap<&'static str, NameTotals>,
    /// Self time per layer, ns.
    pub layer_self_ns: BTreeMap<&'static str, u64>,
    /// Summed duration of the [`WINDOW`] spans, ns.
    pub window_ns: u64,
    /// Part of the window spans covered by their children, ns.
    pub covered_ns: u64,
}

impl Analysis {
    /// Totals of spans called `name` (zero when none were recorded).
    #[must_use]
    pub fn name(&self, name: &str) -> NameTotals {
        self.by_name.get(name).copied().unwrap_or_default()
    }

    /// Summed duration of spans called `name`, in seconds.
    #[must_use]
    pub fn total_s(&self, name: &str) -> f64 {
        self.name(name).total_ns as f64 / 1e9
    }

    /// Summed self time of spans called `name`, in seconds.
    #[must_use]
    pub fn self_s(&self, name: &str) -> f64 {
        self.name(name).self_ns as f64 / 1e9
    }

    /// The tracing metrics every traced run reports: the overhead
    /// (traced over untraced time for the same work, as a percentage
    /// above 1), coverage and span count.
    #[must_use]
    pub fn trace_metrics(&self, traced_over_plain: f64) -> Vec<crate::Metric> {
        use crate::Metric;
        vec![
            Metric::new("trace_overhead_pct", "%", (traced_over_plain - 1.0) * 100.0),
            Metric::new("trace.coverage_pct", "%", self.coverage_pct()),
            Metric::new("trace.spans", "count", self.spans as f64),
        ]
    }

    /// Share of the traced wall time (the window spans) that named
    /// layer spans cover, in percent.
    #[must_use]
    pub fn coverage_pct(&self) -> f64 {
        if self.window_ns == 0 {
            0.0
        } else {
            self.covered_ns as f64 / self.window_ns as f64 * 100.0
        }
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi)`.
fn union_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut covered, mut cur_lo, mut cur_hi) = (0u64, 0u64, 0u64);
    let mut open = false;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        if open && s <= cur_hi {
            cur_hi = cur_hi.max(e);
        } else {
            if open {
                covered += cur_hi - cur_lo;
            }
            (cur_lo, cur_hi, open) = (s, e, true);
        }
    }
    if open {
        covered += cur_hi - cur_lo;
    }
    covered
}

/// Computes self time per name and layer, and window coverage. A span's
/// self time is its duration minus the part of that interval its child
/// spans (on any thread) cover.
#[must_use]
pub fn analyse(spans: &[SpanRec]) -> Analysis {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out = Analysis {
        spans: spans.len(),
        ..Analysis::default()
    };
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |c| union_ns(c, s.start_ns, s.end_ns));
        let self_ns = s.dur_ns() - covered;
        let totals = out.by_name.entry(s.name).or_default();
        totals.count += 1;
        totals.total_ns += s.dur_ns();
        totals.self_ns += self_ns;
        *out.layer_self_ns.entry(s.layer()).or_default() += self_ns;
        if s.name == WINDOW {
            out.window_ns += s.dur_ns();
            out.covered_ns += covered;
        }
    }
    out
}

/// Writes the spans as tab-separated `id parent thread name start_ns
/// end_ns` lines under a header.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_tsv(path: &Path, spans: &[SpanRec]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\tthread\tname\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.thread, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

/// Renders the per-layer and per-name self-time table.
#[must_use]
pub fn render(analysis: &Analysis) -> String {
    let mut text = format!(
        "spans: {}  traced wall {:.3} s  covered by named spans {:.2}%\n",
        analysis.spans,
        analysis.window_ns as f64 / 1e9,
        analysis.coverage_pct()
    );
    // Self time is thread time: with parallel workers a layer's share
    // is of all recorded self time, not of the (single-thread) window.
    let all_self = analysis.layer_self_ns.values().sum::<u64>().max(1) as f64;
    for (layer, ns) in &analysis.layer_self_ns {
        text.push_str(&format!(
            "  layer {layer:<10} self {:>10.4} s  ({:5.1}% of all self time)\n",
            *ns as f64 / 1e9,
            *ns as f64 / all_self * 100.0
        ));
    }
    for (name, t) in &analysis.by_name {
        text.push_str(&format!(
            "  span  {name:<24} n={:<8} total {:>10.4} s  self {:>10.4} s\n",
            t.count,
            t.total_ns as f64 / 1e9,
            t.self_ns as f64 / 1e9
        ));
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            thread: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, WINDOW, 0, 100),
            span(2, 1, "campaign.run", 10, 90),
            // Two overlapping children on different threads.
            span(3, 2, "fault.sample", 10, 50),
            span(4, 2, "fault.sample", 30, 70),
        ];
        let a = analyse(&spans);
        assert_eq!(a.name(WINDOW).self_ns, 20);
        assert_eq!(a.name("campaign.run").self_ns, 20);
        assert_eq!(a.name("fault.sample").total_ns, 80);
        assert_eq!(a.layer_self_ns["fault"], 80);
        assert_eq!(a.window_ns, 100);
        assert_eq!(a.covered_ns, 80);
        assert!((a.coverage_pct() - 80.0).abs() < 1e-9);
    }

    #[test]
    fn recorder_collects_spans_from_threads() {
        let tracer = Tracer::new();
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let mut local = tracer.local();
                    let root = local.open("a.root", 0);
                    let child = local.open("b.child", root.id());
                    local.close(child);
                    local.close(root);
                });
            }
        });
        let spans = tracer.into_spans();
        assert_eq!(spans.len(), 4);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        let a = analyse(&spans);
        assert_eq!(a.name("b.child").count, 2);
    }
}
