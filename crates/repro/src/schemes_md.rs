//! Rendering `docs/SCHEMES.md` — the protection-scheme catalog.
//!
//! The catalog is a pure function of the
//! [`SchemeDescriptor`](cppc_core::scheme::SchemeDescriptor)s every
//! zoo member carries (`cppc_core::scheme`) plus the committed
//! `scheme_comparison` artifact document, so CI can regenerate it
//! without running a single simulation and fail on drift — the same
//! contract as `docs/RESULTS.md` and `docs/METRICS.md`.

use cppc_campaign::json::Json;
use cppc_core::scheme::SchemeKind;
use cppc_energy::ProtectionKind;
use cppc_timing::L1Scheme;

/// Renders the whole catalog. `comparison` is the committed
/// `docs/results/scheme_comparison.json` document (its cross-scheme
/// tables are reproduced verbatim); `None` renders a pointer to the
/// command that generates it.
#[must_use]
pub fn render(comparison: Option<&Json>) -> String {
    let mut out = String::new();
    out.push_str(
        "# Protection-scheme catalog\n\n\
         <!-- GENERATED FILE, do not edit. Regenerate with\n     \
         `cargo run --release -p cppc-cli -- docs`. -->\n\n\
         Every protection scheme the repository implements behind the\n\
         `ProtectionScheme` trait (`cppc_core::scheme`), generated from each\n\
         scheme's self-describing `SchemeDescriptor`. Select one anywhere a\n\
         scheme selector is accepted:\n\n\
         ```console\n\
         $ cppc-cli campaign --scheme <name> --trials 2000 --json\n\
         $ cppc-cli submit --scheme <name> --trials 2000 --watch\n\
         ```\n\n\
         The cross-scheme comparison at the end comes from the committed\n\
         [`scheme_comparison`](results/scheme_comparison.json) artifact (see\n\
         [`docs/RESULTS.md`](RESULTS.md)); the per-scheme sections below are\n\
         static metadata. To add a scheme, see the walkthrough in\n\
         [`docs/ARCHITECTURE.md`](ARCHITECTURE.md).\n\n",
    );

    // Index table.
    out.push_str("## Scheme index\n\n");
    out.push_str("| scheme | title | code bits/word | storage overhead | interleave |\n");
    out.push_str("|---|---|---|---|---|\n");
    for kind in SchemeKind::ALL {
        let d = kind.descriptor();
        out.push_str(&format!(
            "| [`{name}`](#{anchor}) | {title} | {bits} | {overhead:.1}% | {il}x |\n",
            name = d.name,
            anchor = anchor(d.name),
            title = d.title,
            bits = d.pricing.code_bits_per_word(),
            overhead = d.storage_overhead_pct(),
            il = d.pricing.interleave_degree(),
        ));
    }
    out.push('\n');

    for kind in SchemeKind::ALL {
        let d = kind.descriptor();
        out.push_str(&format!("## `{}`\n\n", d.name));
        out.push_str(&format!("**{}**\n\n", d.title));
        out.push_str(&format!("*Reference: {}.*\n\n", d.reference));
        out.push_str(d.summary);
        out.push_str("\n\n");
        out.push_str("| property | value |\n|---|---|\n");
        for (property, value) in [
            (
                "code bits per 64-bit word",
                d.pricing.code_bits_per_word().to_string(),
            ),
            (
                "storage overhead",
                format!("{:.1}%", d.storage_overhead_pct()),
            ),
            (
                "physical interleave",
                format!("{}x", d.pricing.interleave_degree()),
            ),
            ("timing / energy model", model_row(d.pricing)),
            ("extra state", d.extra_state.to_string()),
            ("detects", d.detection.to_string()),
            ("corrects", d.correction.to_string()),
        ] {
            out.push_str(&format!("| {property} | {value} |\n"));
        }
        out.push('\n');
    }

    out.push_str("## Cross-scheme comparison\n\n");
    match comparison {
        None => out.push_str(
            "*Not generated yet — run `cargo run --release -p cppc-cli -- repro \
             --artifact scheme_comparison --update-goldens`.*\n",
        ),
        Some(doc) => {
            out.push_str(
                "From the committed `scheme_comparison` artifact (fast tier, gated in CI \
                 by `cppc-cli repro --check`):\n\n",
            );
            if let Some(tables) = doc.get("tables").and_then(Json::as_arr) {
                for t in tables {
                    crate::book::render_table(t, &mut out);
                }
            }
        }
    }
    out
}

/// The "timing / energy model" row: the port-traffic class the CPI
/// model charges the scheme and the rule the energy model prices it by,
/// both read from the descriptor's `pricing`.
fn model_row(kind: ProtectionKind) -> String {
    use ProtectionKind as K;
    let timing = match L1Scheme::from(kind) {
        L1Scheme::OneDimParity => "1D parity (no extra port traffic)",
        L1Scheme::Cppc => "CPPC (a read-before-write per store to a dirty word)",
        L1Scheme::Secded => "SECDED (decoded off the critical path: no extra port traffic)",
        L1Scheme::TwoDimParity => "2D parity (a read-before-write per store, a line read per miss)",
    };
    let energy = match kind {
        K::OneDimParity { ways } => format!("{ways}-way 1D parity"),
        K::Cppc { ways } => format!("{ways}-way parity, read-before-writes, shifts and XORs"),
        K::TwoDimParity { ways } => format!("{ways}-way parity, vertical-row read-before-writes"),
        K::Secded { interleaved: true } => "SECDED on 8x interleaved bitlines".into(),
        K::Secded { interleaved: false } => "non-interleaved SECDED".into(),
        K::SilentWriteEcc => "non-interleaved SECDED, each elided silent store free".into(),
        K::OnDieEcc => "non-interleaved SECDED; write-through traffic not counted".into(),
    };
    format!("timed as {timing}; priced as {energy}")
}

/// GitHub-style anchor of a `## \`name\`` heading: backticks are
/// stripped, the rest of the selector name survives verbatim.
fn anchor(name: &str) -> String {
    name.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_scheme_gets_a_section() {
        let text = render(None);
        for kind in SchemeKind::ALL {
            let d = kind.descriptor();
            assert!(text.contains(&format!("## `{}`", d.name)), "{}", d.name);
            assert!(text.contains(d.title), "{}", d.name);
        }
        assert!(text.contains("Not generated yet"));
        assert!(text.contains("GENERATED FILE"));
        // The related-work SECDED variants state how they are modelled.
        assert!(text.contains(
            "timed as SECDED (decoded off the critical path: no extra port traffic); \
             priced as non-interleaved SECDED, each elided silent store free"
        ));
    }

    #[test]
    fn comparison_tables_are_reproduced() {
        let doc = Json::parse(
            r#"{"tables":[{"title":"T1","columns":["scheme","x"],
                "rows":[["`cppc`","1.0"]]}]}"#,
        )
        .unwrap();
        let text = render(Some(&doc));
        assert!(text.contains("**T1**"));
        assert!(text.contains("| `cppc` | 1.0 |"));
        assert!(!text.contains("Not generated yet"));
    }

    #[test]
    fn index_links_match_section_anchors() {
        let text = render(None);
        for kind in SchemeKind::ALL {
            assert!(text.contains(&format!("](#{})", anchor(kind.name()))));
        }
    }
}
