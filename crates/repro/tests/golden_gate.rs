//! End-to-end golden-gate behaviour on a real artifact, against a
//! throw-away results tree.
//!
//! Everything runs in quick mode against a temp-dir root, so these
//! goldens never mix with the committed ones under `docs/results/`.

use std::fs;
use std::path::PathBuf;

use cppc_repro::{
    check_artifact, find, json_path, load_doc, render_book, run_artifact, write_artifact,
    GateFailure, RunConfig,
};

/// A fresh scratch root per test (removed on drop).
struct ScratchRoot(PathBuf);

impl ScratchRoot {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("cppc-repro-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        ScratchRoot(dir)
    }
}

impl Drop for ScratchRoot {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn quick() -> RunConfig {
    RunConfig {
        threads: 1,
        quick: true,
    }
}

#[test]
fn check_passes_at_golden_and_fails_on_perturbation() {
    let root = ScratchRoot::new("gate");
    let a = find("table3_mttf").unwrap();
    let cfg = quick();
    let out = run_artifact(a, &cfg);

    // No golden yet: the gate must fail, not vacuously pass.
    assert!(matches!(
        check_artifact(a, &out, None)[0],
        GateFailure::MissingGolden { .. }
    ));

    // Bless goldens, then a re-run checks clean (the artifact is
    // deterministic, so measured == golden bit-for-bit).
    write_artifact(&root.0, a, &cfg, &out, true).unwrap();
    let doc = load_doc(&json_path(&root.0, a.name)).unwrap();
    let rerun = run_artifact(a, &cfg);
    assert!(check_artifact(a, &rerun, Some(&doc)).is_empty());

    // Perturb one committed golden_bits on disk: the gate must trip.
    let path = json_path(&root.0, a.name);
    let text = fs::read_to_string(&path).unwrap();
    let old_bits = format!("\"golden_bits\": {}", 3885.4434194055357f64.to_bits());
    let new_bits = format!("\"golden_bits\": {}", 9999.0f64.to_bits());
    assert!(text.contains(&old_bits), "expected golden in document");
    fs::write(&path, text.replace(&old_bits, &new_bits)).unwrap();

    let bad = load_doc(&path).unwrap();
    let failures = check_artifact(a, &rerun, Some(&bad));
    assert_eq!(failures.len(), 1);
    match &failures[0] {
        GateFailure::OutOfTolerance { metric, golden, .. } => {
            assert_eq!(metric, "mttf.parity.l1_years");
            assert_eq!(*golden, 9999.0);
        }
        other => panic!("expected OutOfTolerance, got {other:?}"),
    }
}

#[test]
fn update_goldens_round_trips_byte_identically() {
    let root = ScratchRoot::new("roundtrip");
    let a = find("table3_mttf").unwrap();
    let cfg = quick();

    let out = run_artifact(a, &cfg);
    write_artifact(&root.0, a, &cfg, &out, true).unwrap();
    let first = fs::read(json_path(&root.0, a.name)).unwrap();

    // Re-running and re-blessing must reproduce the file byte for byte
    // (determinism + stable pretty printer + bit-exact floats).
    let again = run_artifact(a, &cfg);
    write_artifact(&root.0, a, &cfg, &again, true).unwrap();
    let second = fs::read(json_path(&root.0, a.name)).unwrap();
    assert_eq!(first, second);

    // A plain run (no --update-goldens) carries goldens forward and is
    // also byte-identical while the code is unchanged.
    write_artifact(&root.0, a, &cfg, &again, false).unwrap();
    let third = fs::read(json_path(&root.0, a.name)).unwrap();
    assert_eq!(first, third);
}

#[test]
fn book_render_is_a_pure_function_of_the_documents() {
    let root = ScratchRoot::new("book");
    let a = find("table3_mttf").unwrap();
    let cfg = quick();
    let out = run_artifact(a, &cfg);
    write_artifact(&root.0, a, &cfg, &out, true).unwrap();

    let rendered = render_book(&root.0);
    // Re-rendering without re-running any artifact gives identical bytes
    // (this is what the `cppc-cli docs --check` freshness gate relies on).
    assert_eq!(render_book(&root.0), rendered);
    assert!(rendered.contains("table3_mttf"));
    // The other registered artifacts have no documents in this scratch
    // root and must show as placeholders, not be dropped.
    assert!(rendered.contains("no golden yet"));
}
