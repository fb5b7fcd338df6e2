//! The sweep document (`docs/results/explore_<tier>.json`) and the
//! `docs/EXPLORER.md` renderer.
//!
//! [`sweep_doc`] serialises a finished sweep — spec echo, per-point
//! objectives with exact bit patterns, outcome tallies and dominance
//! ranks — under the `cppc-explore/1` schema. [`render`] turns the
//! *committed* documents back into `docs/EXPLORER.md`: a hand-written
//! companion guide followed by generated frontier tables, per-knob
//! sensitivity slices and dominance-rank counts. Rendering reads only
//! the documents (no simulation), so CI can regenerate the book and
//! fail on drift exactly as it does for `docs/RESULTS.md`,
//! `docs/SCHEMES.md` and `docs/METRICS.md`.

use crate::eval::ConfigPoint;
use crate::pareto;
use crate::spec::SweepSpec;
use cppc_campaign::json::Json;
use cppc_core::SchemeKind;
use std::fmt::Write as _;

/// Schema tag of explore documents.
pub const SCHEMA: &str = "cppc-explore/1";

fn scrub_json(iv: Option<u64>) -> Json {
    iv.map_or(Json::Null, Json::UInt)
}

/// Assembles the sweep document: spec echo, summary, and every point
/// annotated with its dominance rank. Deterministic — the same spec
/// and points always produce the same bytes.
#[must_use]
pub fn sweep_doc(spec: &SweepSpec, points: &[ConfigPoint]) -> Json {
    let objectives: Vec<Vec<f64>> = points.iter().map(ConfigPoint::objectives).collect();
    let ranks = pareto::ranks(&objectives, &pareto::MAXIMIZE);
    let frontier = ranks.iter().filter(|&&r| r == 0).count();
    let frontier_non_cppc = points
        .iter()
        .zip(&ranks)
        .filter(|(p, &r)| r == 0 && p.config.scheme != SchemeKind::Cppc)
        .count();
    let max_rank = ranks.iter().copied().max().unwrap_or(0);
    crate::obs::FRONTIER_SIZE.set(i64::try_from(frontier).unwrap_or(i64::MAX));

    let schemes = spec
        .schemes
        .iter()
        .map(|s| s.name())
        .collect::<Vec<_>>()
        .join(", ");
    let spec_obj = Json::Obj(vec![
        ("schemes".to_string(), Json::Str(schemes)),
        (
            "cache_kib".to_string(),
            Json::Arr(
                spec.cache_kib
                    .iter()
                    .map(|&v| Json::UInt(u64::from(v)))
                    .collect(),
            ),
        ),
        (
            "associativity".to_string(),
            Json::Arr(
                spec.associativity
                    .iter()
                    .map(|&v| Json::UInt(u64::from(v)))
                    .collect(),
            ),
        ),
        (
            "block_bytes".to_string(),
            Json::Arr(
                spec.block_bytes
                    .iter()
                    .map(|&v| Json::UInt(u64::from(v)))
                    .collect(),
            ),
        ),
        (
            "interleave_k".to_string(),
            Json::Arr(
                spec.interleave_k
                    .iter()
                    .map(|&v| Json::UInt(u64::from(v)))
                    .collect(),
            ),
        ),
        (
            "scrub_intervals".to_string(),
            Json::Arr(
                spec.scrub_intervals
                    .iter()
                    .map(|&iv| scrub_json(iv))
                    .collect(),
            ),
        ),
        ("trials_per_config".to_string(), Json::UInt(spec.trials)),
        (
            "campaign_seed".to_string(),
            Json::Str(format!("{:#x}", spec.campaign_seed)),
        ),
        ("benchmark".to_string(), Json::Str(spec.benchmark.clone())),
        (
            "workload_ops".to_string(),
            Json::UInt(spec.workload_ops as u64),
        ),
        (
            "objectives".to_string(),
            Json::Str(
                "mttf_years (maximize); energy_ratio, cpi_inflation_pct, area_overhead_pct \
                 (minimize)"
                    .to_string(),
            ),
        ),
    ]);
    let summary = Json::Obj(vec![
        ("configs".to_string(), Json::UInt(points.len() as u64)),
        ("frontier_size".to_string(), Json::UInt(frontier as u64)),
        (
            "frontier_non_cppc".to_string(),
            Json::UInt(frontier_non_cppc as u64),
        ),
        (
            "dominated".to_string(),
            Json::UInt((points.len() - frontier) as u64),
        ),
        ("max_rank".to_string(), Json::UInt(u64::from(max_rank))),
    ]);
    let points_json: Vec<Json> = points
        .iter()
        .zip(&ranks)
        .map(|(p, &r)| {
            let Json::Obj(mut fields) = p.to_json() else {
                unreachable!("ConfigPoint::to_json returns an object")
            };
            fields.push(("rank".to_string(), Json::UInt(u64::from(r))));
            Json::Obj(fields)
        })
        .collect();
    Json::Obj(vec![
        ("schema".to_string(), Json::Str(SCHEMA.to_string())),
        ("tier".to_string(), Json::Str(spec.tier.clone())),
        ("spec".to_string(), spec_obj),
        ("summary".to_string(), summary),
        ("points".to_string(), Json::Arr(points_json)),
    ])
}

// ---------------------------------------------------------------------
// docs/EXPLORER.md rendering
// ---------------------------------------------------------------------

/// The hand-written companion guide rendered above the generated
/// tables (the TRACES.md-style specification half of the book).
const GUIDE: &str = "\
# Design-space explorer

<!-- GENERATED FILE, do not edit. Regenerate with\n     \
`cargo run --release -p cppc-cli -- docs`. -->

The paper evaluates CPPC at a handful of hand-picked configurations;
`cppc-cli explore` (crate `cppc-explore`, ROADMAP item 4) sweeps the
knobs this repository exposes and maps each configuration onto four
objectives. The tables below are generated from the committed
[`docs/results/explore_*.json`](results/) documents — rendering runs no
simulation, and CI fails if the book or the quick-tier document drifts
from what the code produces.

## Sweep specification

A sweep is a cross product over five knob axes plus shared campaign and
workload parameters:

| knob | axis | notes |
|---|---|---|
| `scheme` | any subset of the [scheme zoo](SCHEMES.md) | `cppc`, `parity1d`, `secded-interleaved`, `parity2d`, `silent-write-ecc`, `harp-odecc` |
| `cache_kib` | L1 capacities (KiB, power of two) | rescales the MTTF bit count and the energy/timing geometry |
| `associativity` | L1 ways (power of two) | |
| `block_bytes` | L1 block size (power of two ≥ 8) | |
| `interleave_k` | CPPC parity interleave factors (divisors of 64) | multiplies **CPPC configs only**; other schemes keep their canonical 8-way codes |
| `scrub_intervals` | cycles between scrub passes, or none | caps the double-fault window `Tavg` for correcting schemes; detection-only parity gains nothing |

Shared parameters: `trials` (fault-injection trials per config),
`campaign_seed`, `benchmark` + `workload_ops` (the SPEC2000 profile and
window driving the timing/energy models), and optional
`--include`/`--exclude` label filters.

Every config has a stable label —
`<scheme>/<size>KiB/<ways>w/<block>B/k<k>/scrub-<interval|none>` — and a
stable FNV-1a digest over the label plus the spec identity (seed,
trials, workload). The digest salts the per-config campaign seed and
keys per-config checkpoint files, which is what makes a sweep
byte-identical at any `--threads` and resumable after an interrupt
(`--checkpoint-dir`). Filters are deliberately excluded from the
digest, so a filtered partial sweep warms checkpoints a later full
sweep reuses.

## Objectives and dominance

Each configuration is scored on:

1. **MTTF (years, maximize)** — closed-form models from
   `cppc-reliability`, rescaled to the config's capacity; scrubbing
   shortens the vulnerability window of double-fault-limited schemes.
2. **Energy ratio (minimize)** — dynamic energy over the workload
   window divided by a one-dimensional-parity cache of the *same
   geometry* without scrubbing (so `parity1d/scrub-none` is exactly
   1.0 by construction).
3. **CPI inflation % (minimize)** — the read-before-write
   port-contention timing model, normalised the same way; scrub
   traffic adds its amortised share.
4. **Area overhead % (minimize)** — code-bit storage overhead.

A config **dominates** another when it is at least as good on all four
objectives and strictly better on at least one. Exact ties and
duplicates do not dominate each other. **Rank 0** (the Pareto frontier)
is the set no config dominates; rank 1 is the frontier after removing
rank 0, and so on — a config's rank counts how many onion layers sit
between it and the frontier. Every fault-injection tally travels with
its point, so the frontier can be cross-checked against empirical SDC
rates.

## Reproducing and extending

```console
$ cppc-cli explore --quick              # 28-config CI tier -> docs/results/explore_quick.json
$ cppc-cli explore                      # 432-config full tier -> docs/results/explore_full.json
$ cppc-cli explore --quick --check      # CI gate: re-run, require byte-identity
$ cppc-cli docs                         # re-render this file from committed JSONs
$ cppc-cli explore --threads 8 --checkpoint-dir /tmp/sweep.d   # parallel + resumable
$ cppc-cli explore --include cppc/ --out /tmp/cppc_only.json   # filtered side study
$ cppc-cli submit --kind explore --quick --watch               # through the daemon
```

Runs are deterministic: any `--threads`, with or without checkpoints,
produces the same bytes (pinned by `tests/explore_determinism.rs`). To
extend the space, edit the tier constructors in
`crates/explore/src/spec.rs` (or build a custom `SweepSpec`; see
`examples/design_space.rs`), then regenerate the documents and this
book. Adding a whole new knob is a four-step recipe documented in
[`docs/ARCHITECTURE.md`](ARCHITECTURE.md).
";

fn fnum(v: f64) -> String {
    if !v.is_finite() {
        return format!("{v}");
    }
    let a = v.abs();
    if a != 0.0 && !(1e-2..1e4).contains(&a) {
        format!("{v:.3e}")
    } else {
        format!("{v:.3}")
    }
}

fn pt_f(p: &Json, key: &str) -> f64 {
    p.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

fn pt_u(p: &Json, key: &str) -> u64 {
    p.get(key).and_then(Json::as_u64).unwrap_or(0)
}

fn pt_s<'a>(p: &'a Json, key: &str) -> &'a str {
    p.get(key).and_then(Json::as_str).unwrap_or("?")
}

fn sdc_pct(p: &Json) -> f64 {
    let tally = p.get("tally");
    let field = |k: &str| {
        tally
            .and_then(|t| t.get(k))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    let total = field("masked") + field("corrected") + field("due") + field("sdc");
    if total == 0 {
        return 0.0;
    }
    field("sdc") as f64 / total as f64 * 100.0
}

fn objective_cells(p: &Json) -> String {
    format!(
        "{} | {:.4} | {:+.3} | {:.2} | {:.1}",
        fnum(pt_f(p, "mttf_years")),
        pt_f(p, "energy_ratio"),
        pt_f(p, "cpi_inflation_pct"),
        pt_f(p, "area_overhead_pct"),
        sdc_pct(p),
    )
}

const OBJECTIVE_HEADER: &str = "MTTF (years) | energy ÷ parity | CPI +% | area % | SDC % |";

fn push_point_table(out: &mut String, head: &str, points: &[&Json], with_rank: bool) {
    if points.is_empty() {
        out.push_str("_No configurations in this slice._\n\n");
        return;
    }
    let rank_head = if with_rank { " rank |" } else { "" };
    let dashes = 6 + usize::from(with_rank);
    writeln!(out, "| {head} | {OBJECTIVE_HEADER}{rank_head}").unwrap();
    out.push_str(&format!("|{}\n", "---|".repeat(dashes)));
    for p in points {
        let rank_cell = if with_rank {
            format!(" {} |", pt_u(p, "rank"))
        } else {
            String::new()
        };
        writeln!(
            out,
            "| `{}` | {} |{}",
            pt_s(p, "label"),
            objective_cells(p),
            rank_cell
        )
        .unwrap();
    }
    out.push('\n');
}

fn scrub_matches(p: &Json, none_only: bool) -> bool {
    let is_none = matches!(p.get("scrub_interval"), Some(Json::Null));
    !none_only || is_none
}

/// Renders the per-tier study section from one committed document.
fn tier_section(out: &mut String, title: &str, doc: &Json) {
    let summary = |k: &str| {
        doc.get("summary")
            .and_then(|s| s.get(k))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    let empty = Vec::new();
    let points: Vec<&Json> = doc
        .get("points")
        .and_then(Json::as_arr)
        .unwrap_or(&empty)
        .iter()
        .collect();
    writeln!(out, "## {title}\n").unwrap();
    let trials = doc
        .get("spec")
        .and_then(|s| s.get("trials_per_config"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    let benchmark = doc
        .get("spec")
        .and_then(|s| s.get("benchmark"))
        .and_then(Json::as_str)
        .unwrap_or("?");
    writeln!(
        out,
        "{} configurations ({} fault-injection trials each, `{}` workload): \
         **{} on the Pareto frontier** ({} from non-CPPC schemes), {} dominated, \
         deepest rank {}.\n",
        summary("configs"),
        trials,
        benchmark,
        summary("frontier_size"),
        summary("frontier_non_cppc"),
        summary("dominated"),
        summary("max_rank"),
    )
    .unwrap();

    // Frontier table.
    writeln!(out, "### Pareto frontier (rank 0)\n").unwrap();
    let frontier: Vec<&Json> = points
        .iter()
        .copied()
        .filter(|p| pt_u(p, "rank") == 0)
        .collect();
    push_point_table(out, "config", &frontier, false);

    // Reference geometry for the sensitivity slices.
    let caches: Vec<u64> = {
        let mut seen = Vec::new();
        for p in &points {
            let v = pt_u(p, "cache_kib");
            if !seen.contains(&v) {
                seen.push(v);
            }
        }
        seen
    };
    let ref_cache = if caches.contains(&32) {
        32
    } else {
        caches.first().copied().unwrap_or(0)
    };
    let ref_assoc = points.first().map_or(0, |p| pt_u(p, "associativity"));
    let ref_block = points.first().map_or(0, |p| pt_u(p, "block_bytes"));
    let ref_k = points
        .iter()
        .filter(|p| pt_s(p, "scheme") == "cppc")
        .map(|p| pt_u(p, "k"))
        .max()
        .unwrap_or(8);
    let at_ref_geometry = |p: &&Json| {
        pt_u(p, "cache_kib") == ref_cache
            && pt_u(p, "associativity") == ref_assoc
            && pt_u(p, "block_bytes") == ref_block
    };
    writeln!(
        out,
        "### Sensitivity slices\n\nReference point: {ref_cache} KiB, {ref_assoc}-way, \
         {ref_block} B blocks, k = {ref_k}, no scrubbing; one knob varies per table.\n",
    )
    .unwrap();

    writeln!(out, "#### CPPC interleave factor k\n").unwrap();
    let k_slice: Vec<&Json> = points
        .iter()
        .copied()
        .filter(|p| pt_s(p, "scheme") == "cppc" && at_ref_geometry(p) && scrub_matches(p, true))
        .collect();
    push_point_table(out, "config", &k_slice, true);

    writeln!(out, "#### Cache size\n").unwrap();
    let size_slice: Vec<&Json> = points
        .iter()
        .copied()
        .filter(|p| {
            pt_s(p, "scheme") == "cppc"
                && pt_u(p, "k") == ref_k
                && pt_u(p, "associativity") == ref_assoc
                && pt_u(p, "block_bytes") == ref_block
                && scrub_matches(p, true)
        })
        .collect();
    push_point_table(out, "config", &size_slice, true);

    writeln!(out, "#### Scrub interval\n").unwrap();
    let scrub_slice: Vec<&Json> = points
        .iter()
        .copied()
        .filter(|p| pt_s(p, "scheme") == "cppc" && pt_u(p, "k") == ref_k && at_ref_geometry(p))
        .collect();
    push_point_table(out, "config", &scrub_slice, true);

    writeln!(out, "#### Protection scheme\n").unwrap();
    let scheme_slice: Vec<&Json> = points
        .iter()
        .copied()
        .filter(|p| {
            at_ref_geometry(p)
                && scrub_matches(p, true)
                && (pt_s(p, "scheme") != "cppc" || pt_u(p, "k") == ref_k)
        })
        .collect();
    push_point_table(out, "config", &scheme_slice, true);

    // Dominance accounting.
    writeln!(out, "### Dominance ranks\n").unwrap();
    writeln!(out, "| scheme | configs | on frontier | dominated |").unwrap();
    writeln!(out, "|---|---|---|---|").unwrap();
    let mut schemes_seen: Vec<&str> = Vec::new();
    for p in &points {
        let s = pt_s(p, "scheme");
        if !schemes_seen.contains(&s) {
            schemes_seen.push(s);
        }
    }
    for s in schemes_seen {
        let total = points.iter().filter(|p| pt_s(p, "scheme") == s).count();
        let on_front = points
            .iter()
            .filter(|p| pt_s(p, "scheme") == s && pt_u(p, "rank") == 0)
            .count();
        writeln!(
            out,
            "| `{s}` | {total} | {on_front} | {} |",
            total - on_front
        )
        .unwrap();
    }
    out.push('\n');
    let max_rank = summary("max_rank");
    writeln!(out, "| rank | configs |").unwrap();
    writeln!(out, "|---|---|").unwrap();
    for r in 0..=max_rank {
        let n = points.iter().filter(|p| pt_u(p, "rank") == r).count();
        writeln!(out, "| {r} | {n} |").unwrap();
    }
    out.push('\n');
}

fn missing_section(out: &mut String, title: &str, flag: &str, name: &str) {
    writeln!(
        out,
        "## {title}\n\n_No committed document. Generate `docs/results/{name}` with \
         `cargo run --release -p cppc-cli -- explore{flag}`._\n",
    )
    .unwrap();
}

/// Renders the whole `docs/EXPLORER.md` book from the committed quick-
/// and full-tier documents. Pure: same documents in, same bytes out.
#[must_use]
pub fn render(quick: Option<&Json>, full: Option<&Json>) -> String {
    let mut out = String::new();
    out.push_str(GUIDE);
    out.push('\n');
    match quick {
        Some(doc) => tier_section(&mut out, "Quick-tier study (the CI gate)", doc),
        None => missing_section(
            &mut out,
            "Quick-tier study (the CI gate)",
            " --quick",
            "explore_quick.json",
        ),
    }
    match full {
        Some(doc) => tier_section(&mut out, "Full-tier study", doc),
        None => missing_section(&mut out, "Full-tier study", "", "explore_full.json"),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{run_sweep, SweepOptions, SweepOutcome};

    fn tiny_doc() -> Json {
        let mut spec = SweepSpec::quick_tier();
        spec.tier = "custom".to_string();
        spec.schemes = vec![SchemeKind::Cppc, SchemeKind::Parity1d];
        spec.cache_kib = vec![8];
        spec.interleave_k = vec![8];
        spec.scrub_intervals = vec![None];
        spec.trials = 4;
        spec.workload_ops = 2_000;
        let points = match run_sweep(&spec, &SweepOptions::default(), None).unwrap() {
            SweepOutcome::Complete(p) => p,
            SweepOutcome::Interrupted { .. } => unreachable!("no interrupt flag"),
        };
        sweep_doc(&spec, &points)
    }

    #[test]
    fn doc_shape_and_summary_are_consistent() {
        let doc = tiny_doc();
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SCHEMA));
        assert_eq!(doc.get("tier").and_then(Json::as_str), Some("custom"));
        let points = doc.get("points").and_then(Json::as_arr).unwrap();
        assert_eq!(points.len(), 2);
        let frontier = points
            .iter()
            .filter(|p| p.get("rank").and_then(Json::as_u64) == Some(0))
            .count();
        let summary_frontier = doc
            .get("summary")
            .and_then(|s| s.get("frontier_size"))
            .and_then(Json::as_u64)
            .unwrap();
        assert_eq!(frontier as u64, summary_frontier);
        // CPPC vs parity1d is a pure trade-off: both on the frontier.
        assert_eq!(summary_frontier, 2);
    }

    #[test]
    fn doc_bytes_are_deterministic_and_parse_back() {
        let a = tiny_doc().to_string_pretty();
        let b = tiny_doc().to_string_pretty();
        assert_eq!(a, b);
        let parsed = Json::parse(&a).unwrap();
        assert_eq!(parsed.to_string_pretty(), a);
    }

    #[test]
    fn render_is_a_pure_function_of_the_documents() {
        let doc = tiny_doc();
        let once = render(Some(&doc), None);
        let twice = render(Some(&doc), None);
        assert_eq!(once, twice);
        assert!(once.contains("# Design-space explorer"));
        assert!(once.contains("GENERATED FILE"));
        assert!(once.contains("### Pareto frontier (rank 0)"));
        assert!(once.contains("cppc/8KiB/2w/32B/k8/scrub-none"));
        assert!(once.contains("_No committed document._") || once.contains("explore_full.json"));
    }

    #[test]
    fn render_without_documents_points_at_the_commands() {
        let text = render(None, None);
        assert!(text.contains("explore_quick.json"));
        assert!(text.contains("explore_full.json"));
    }
}
