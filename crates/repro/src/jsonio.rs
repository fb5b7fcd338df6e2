//! The artifact JSON document: construction, golden merging and field
//! access (pretty printing is [`Json::to_string_pretty`]).
//!
//! One document per artifact lives at `docs/results/<name>.json` (the
//! schema is documented in `docs/results/README.md`). Each metric
//! carries two copies of both its measured and golden values: a
//! human-readable `value`/`golden` float and a `value_bits`/
//! `golden_bits` IEEE-754 bit pattern. The bit patterns are what the
//! gate and the byte-identity guarantees are built on; the floats are
//! for people and diff reviews.

use cppc_campaign::json::Json;

use crate::artifact::{Artifact, ArtifactOutput, RunConfig, Tolerance};

/// Schema identifier stamped into every document.
pub const SCHEMA: &str = "cppc-repro/1";

/// Serialises a tolerance band.
fn tolerance_json(t: &Tolerance) -> Json {
    match t {
        Tolerance::Rel(frac) => Json::Obj(vec![("rel".into(), Json::Num(*frac))]),
        Tolerance::Abs(delta) => Json::Obj(vec![("abs".into(), Json::Num(*delta))]),
        Tolerance::Exact => Json::Str("exact".into()),
    }
}

/// Reads a tolerance band back from a document.
#[must_use]
pub fn tolerance_from_json(v: &Json) -> Option<Tolerance> {
    if v.as_str() == Some("exact") {
        return Some(Tolerance::Exact);
    }
    if let Some(frac) = v.get("rel").and_then(Json::as_f64) {
        return Some(Tolerance::Rel(frac));
    }
    if let Some(delta) = v.get("abs").and_then(Json::as_f64) {
        return Some(Tolerance::Abs(delta));
    }
    None
}

/// The golden value of `metric` recorded in a committed document
/// (bit-exact, via `golden_bits`).
#[must_use]
pub fn golden_of(doc: &Json, metric: &str) -> Option<f64> {
    doc.get("metrics")?
        .as_arr()?
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some(metric))?
        .get("golden_bits")?
        .as_f64_bits()
}

/// Builds the JSON document for one artifact run.
///
/// The golden of each metric is carried over from `prior` (the
/// committed document) unless `update_goldens` is set or the metric has
/// no prior golden, in which case the fresh value is blessed.
#[must_use]
pub fn artifact_json(
    a: &Artifact,
    cfg: &RunConfig,
    out: &ArtifactOutput,
    prior: Option<&Json>,
    update_goldens: bool,
) -> Json {
    let metrics = out
        .metrics
        .iter()
        .map(|m| {
            let golden = if update_goldens {
                m.value
            } else {
                prior
                    .and_then(|doc| golden_of(doc, &m.name))
                    .unwrap_or(m.value)
            };
            let mut obj = vec![
                ("name".into(), Json::Str(m.name.clone())),
                ("unit".into(), Json::Str(m.unit.into())),
                ("doc".into(), Json::Str(m.doc.clone())),
                ("value".into(), Json::Num(m.value)),
                ("value_bits".into(), Json::from_f64_bits(m.value)),
                ("golden".into(), Json::Num(golden)),
                ("golden_bits".into(), Json::from_f64_bits(golden)),
                ("tolerance".into(), tolerance_json(&m.tolerance)),
            ];
            if let Some(paper) = m.paper {
                obj.push(("paper".into(), Json::Num(paper)));
            }
            Json::Obj(obj)
        })
        .collect();

    let tables = out
        .tables
        .iter()
        .map(|t| {
            Json::Obj(vec![
                ("title".into(), Json::Str(t.title.clone())),
                (
                    "columns".into(),
                    Json::Arr(t.columns.iter().cloned().map(Json::Str).collect()),
                ),
                (
                    "rows".into(),
                    Json::Arr(
                        t.rows
                            .iter()
                            .map(|r| Json::Arr(r.iter().cloned().map(Json::Str).collect()))
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();

    Json::Obj(vec![
        ("schema".into(), Json::Str(SCHEMA.into())),
        ("artifact".into(), Json::Str(a.name.into())),
        ("title".into(), Json::Str(a.title.into())),
        ("paper_ref".into(), Json::Str(a.paper_ref.into())),
        ("tier".into(), Json::Str(a.tier.as_str().into())),
        ("quick".into(), Json::Bool(cfg.quick)),
        (
            "config".into(),
            Json::Obj(
                (a.config)(cfg)
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), Json::Str(v)))
                    .collect(),
            ),
        ),
        ("metrics".into(), Json::Arr(metrics)),
        ("tables".into(), Json::Arr(tables)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tolerance_roundtrip() {
        for t in [Tolerance::Rel(0.05), Tolerance::Abs(1.5), Tolerance::Exact] {
            assert_eq!(tolerance_from_json(&tolerance_json(&t)), Some(t));
        }
        assert_eq!(tolerance_from_json(&Json::Null), None);
    }

    #[test]
    fn pretty_output_parses_back() {
        let doc = Json::parse(r#"{"a":[1,2,{"b":"x"}],"empty_arr":[],"empty_obj":{}}"#).unwrap();
        let text = doc.to_string_pretty();
        assert_eq!(Json::parse(&text).unwrap(), doc);
        assert!(text.ends_with('\n'));
        assert!(text.contains("  \"a\": ["));
    }

    #[test]
    fn golden_lookup() {
        let x = 1.25f64;
        let doc = Json::Obj(vec![(
            "metrics".into(),
            Json::Arr(vec![Json::Obj(vec![
                ("name".into(), Json::Str("m".into())),
                ("golden_bits".into(), Json::from_f64_bits(x)),
            ])]),
        )]);
        assert_eq!(golden_of(&doc, "m"), Some(x));
        assert_eq!(golden_of(&doc, "other"), None);
    }
}
