//! Exporters: snapshots of the registry rendered as a human table,
//! JSON, or the `docs/METRICS.md` reference.

use crate::registry::{registered_groups, MetricKind, MetricRef};
use crate::span::TimerStats;

/// A point-in-time copy of one metric's value.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotValue {
    /// Counter value.
    Counter(u64),
    /// Gauge level.
    Gauge(i64),
    /// Timer aggregate.
    Timer(TimerStats),
}

impl SnapshotValue {
    /// The kind this value belongs to.
    #[must_use]
    pub fn kind(&self) -> MetricKind {
        match self {
            SnapshotValue::Counter(_) => MetricKind::Counter,
            SnapshotValue::Gauge(_) => MetricKind::Gauge,
            SnapshotValue::Timer(_) => MetricKind::Timer,
        }
    }

    /// `true` when the metric has recorded nothing.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        match self {
            SnapshotValue::Counter(v) => *v == 0,
            SnapshotValue::Gauge(v) => *v == 0,
            SnapshotValue::Timer(t) => t.count == 0,
        }
    }
}

/// A point-in-time copy of one metric (metadata + value).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    /// Dotted metric name.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// Doc string.
    pub doc: &'static str,
    /// The value at snapshot time.
    pub value: SnapshotValue,
}

/// A point-in-time copy of one registered group.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupSnapshot {
    /// Subsystem name.
    pub subsystem: &'static str,
    /// Subsystem doc string.
    pub doc: &'static str,
    /// The group's metrics, in declaration order.
    pub metrics: Vec<MetricSnapshot>,
}

/// Snapshots every registered group (groups sorted by subsystem name,
/// metrics in declaration order). Flushes the calling thread's span
/// aggregates first.
#[must_use]
pub fn snapshot() -> Vec<GroupSnapshot> {
    crate::span::flush();
    registered_groups()
        .into_iter()
        .map(|group| GroupSnapshot {
            subsystem: group.subsystem,
            doc: group.doc,
            metrics: group
                .metrics
                .iter()
                .map(|def| MetricSnapshot {
                    name: def.name,
                    unit: def.unit,
                    doc: def.doc,
                    value: match def.metric {
                        MetricRef::Counter(c) => SnapshotValue::Counter(c.get()),
                        MetricRef::Gauge(g) => SnapshotValue::Gauge(g.get()),
                        MetricRef::Timer(t) => SnapshotValue::Timer(t.stats()),
                    },
                })
                .collect(),
        })
        .collect()
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Renders snapshots as an aligned human-readable table. With
/// `include_zero` false, metrics that recorded nothing are elided (a
/// group with no active metric still prints its header).
#[must_use]
pub fn render_table(groups: &[GroupSnapshot], include_zero: bool) -> String {
    let mut out = String::new();
    for group in groups {
        out.push_str(&format!("[{}] {}\n", group.subsystem, group.doc));
        let mut any = false;
        for m in &group.metrics {
            if !include_zero && m.value.is_zero() {
                continue;
            }
            any = true;
            match &m.value {
                SnapshotValue::Counter(v) => {
                    out.push_str(&format!("  {:<36} {:>14}  {}\n", m.name, v, m.unit));
                }
                SnapshotValue::Gauge(v) => {
                    out.push_str(&format!("  {:<36} {:>14}  {}\n", m.name, v, m.unit));
                }
                SnapshotValue::Timer(t) => {
                    out.push_str(&format!(
                        "  {:<36} {:>14}  spans  mean {}  max {}  total {}\n",
                        m.name,
                        t.count,
                        fmt_ns(t.mean_ns()),
                        fmt_ns(t.max_ns),
                        fmt_ns(t.total_ns),
                    ));
                }
            }
        }
        if !any {
            out.push_str("  (no events recorded)\n");
        }
        out.push('\n');
    }
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders snapshots as one line-per-metric JSON document (stable key
/// order, no external dependencies).
#[must_use]
pub fn render_json(groups: &[GroupSnapshot]) -> String {
    let mut out = String::from("{\"groups\":[");
    for (gi, group) in groups.iter().enumerate() {
        if gi > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"subsystem\":\"{}\",\"doc\":\"{}\",\"metrics\":[",
            json_escape(group.subsystem),
            json_escape(group.doc)
        ));
        for (mi, m) in group.metrics.iter().enumerate() {
            if mi > 0 {
                out.push(',');
            }
            let head = format!(
                "{{\"name\":\"{}\",\"kind\":\"{}\",\"unit\":\"{}\",\"doc\":\"{}\"",
                json_escape(m.name),
                m.value.kind().label(),
                json_escape(m.unit),
                json_escape(m.doc)
            );
            out.push_str(&head);
            match &m.value {
                SnapshotValue::Counter(v) => out.push_str(&format!(",\"value\":{v}}}")),
                SnapshotValue::Gauge(v) => out.push_str(&format!(",\"value\":{v}}}")),
                SnapshotValue::Timer(t) => out.push_str(&format!(
                    ",\"count\":{},\"total_ns\":{},\"mean_ns\":{},\"max_ns\":{}}}",
                    t.count,
                    t.total_ns,
                    t.mean_ns(),
                    t.max_ns
                )),
            }
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

/// Renders the self-documenting metrics reference (the body of
/// `docs/METRICS.md`) from the registered groups' metadata. Values are
/// not included, so the output is deterministic: it changes only when a
/// metric is added, removed or re-documented.
#[must_use]
pub fn reference_markdown() -> String {
    let mut out = String::new();
    out.push_str("# Metrics reference\n\n");
    out.push_str(
        "Generated from the `cppc-obs` registry by `cargo run --release -p cppc-cli \
         -- docs` — **do not edit by hand**; CI regenerates this file and fails \
         if it drifts from the code. Every metric is declared next to the code it \
         instruments via `cppc_obs::metrics!`, which makes the name, unit and doc \
         string below mandatory at compile time.\n\n",
    );
    out.push_str(
        "Inspect live values with `cppc-cli stats` (runs a workload, prints this \
         table with numbers) or `cppc-cli stats --describe` (this reference, no \
         run). Building with the `obs` feature disabled compiles every metric \
         update out of the hot paths.\n",
    );
    for group in registered_groups() {
        out.push_str(&format!("\n## `{}` — {}\n\n", group.subsystem, group.doc));
        out.push_str("| metric | kind | unit | description |\n|---|---|---|---|\n");
        for def in group.metrics {
            out.push_str(&format!(
                "| `{}` | {} | {} | {} |\n",
                def.name,
                def.metric.kind().label(),
                def.unit,
                def.doc
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    crate::metrics! {
        group EXPORT_TEST_METRICS: "export-test", "Metrics used by exporter unit tests.";
        counter EXPORT_EVENTS: "export_test.events", "events", "Events with a \"quote\" in the doc.";
        timer EXPORT_SPAN: "export_test.span.ns", "ns", "Span recorded by the exporter test.";
    }

    fn our_group(groups: &[GroupSnapshot]) -> GroupSnapshot {
        groups
            .iter()
            .find(|g| g.subsystem == "export-test")
            .expect("group registered")
            .clone()
    }

    #[test]
    fn snapshot_carries_metadata_and_values() {
        EXPORT_TEST_METRICS.register();
        EXPORT_EVENTS.add(2);
        EXPORT_SPAN.record_ns(5000);
        let group = our_group(&snapshot());
        assert_eq!(group.metrics.len(), 2);
        let c = &group.metrics[0];
        assert_eq!(c.name, "export_test.events");
        assert_eq!(c.unit, "events");
        assert!(!c.doc.is_empty());
        #[cfg(feature = "enabled")]
        {
            assert!(matches!(c.value, SnapshotValue::Counter(v) if v >= 2));
            match &group.metrics[1].value {
                SnapshotValue::Timer(t) => assert!(t.count >= 1 && t.mean_ns() > 0),
                other => panic!("expected timer, got {other:?}"),
            }
        }
    }

    #[test]
    fn table_elides_or_includes_zeros() {
        EXPORT_TEST_METRICS.register();
        let groups = snapshot();
        let full = render_table(&groups, true);
        assert!(full.contains("export_test.events"));
        assert!(full.contains("[export-test]"));
        // A never-touched metric shows up only with include_zero.
        let zero_only: Vec<GroupSnapshot> = vec![GroupSnapshot {
            subsystem: "z",
            doc: "d",
            metrics: vec![MetricSnapshot {
                name: "z.nothing",
                unit: "events",
                doc: "never",
                value: SnapshotValue::Counter(0),
            }],
        }];
        assert!(!render_table(&zero_only, false).contains("z.nothing"));
        assert!(render_table(&zero_only, false).contains("no events recorded"));
        assert!(render_table(&zero_only, true).contains("z.nothing"));
    }

    #[test]
    fn json_is_escaped_and_structured() {
        EXPORT_TEST_METRICS.register();
        let json = render_json(&snapshot());
        assert!(json.starts_with("{\"groups\":["));
        assert!(json.contains("\\\"quote\\\""), "doc quotes escaped");
        assert!(json.contains("\"kind\":\"counter\""));
        assert!(json.contains("\"kind\":\"timer\""));
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn reference_markdown_lists_registered_metrics() {
        EXPORT_TEST_METRICS.register();
        let md = reference_markdown();
        assert!(md.starts_with("# Metrics reference"));
        assert!(md.contains("## `export-test`"));
        assert!(md.contains("| `export_test.events` | counter | events |"));
        assert!(md.contains("| `export_test.span.ns` | timer | ns |"));
    }

    #[test]
    fn ns_formatting() {
        assert_eq!(fmt_ns(12), "12ns");
        assert_eq!(fmt_ns(1500), "1.50us");
        assert_eq!(fmt_ns(2_500_000), "2.50ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.00s");
    }
}
