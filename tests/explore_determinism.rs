//! Cross-crate gates for the design-space explorer: the sweep document
//! must be a pure function of the spec — byte-identical at any worker
//! count, and byte-identical whether a sweep ran straight through or
//! was interrupted and resumed from its per-config checkpoints.

use std::sync::atomic::{AtomicBool, Ordering};

use cppc::explore::doc::sweep_doc;
use cppc::explore::{run_sweep, SweepOptions, SweepOutcome, SweepSpec};

/// A sweep small enough to run in a test but wide enough to exercise
/// every axis: two schemes, two cache sizes, two interleave degrees,
/// scrubbing on and off.
fn tiny_spec() -> SweepSpec {
    let mut spec = SweepSpec::quick_tier();
    spec.tier = "test".to_string();
    spec.trials = 8;
    spec.workload_ops = 4_000;
    spec
}

fn doc_bytes(spec: &SweepSpec, opts: &SweepOptions) -> String {
    match run_sweep(spec, opts, None).expect("sweep runs") {
        SweepOutcome::Complete(points) => sweep_doc(spec, &points).to_string_pretty(),
        SweepOutcome::Interrupted { .. } => unreachable!("no interrupt flag"),
    }
}

#[test]
fn sweep_doc_is_byte_identical_across_thread_counts() {
    let spec = tiny_spec();
    let reference = doc_bytes(
        &spec,
        &SweepOptions {
            threads: 1,
            checkpoint_dir: None,
        },
    );
    for threads in [2usize, 8] {
        let got = doc_bytes(
            &spec,
            &SweepOptions {
                threads,
                checkpoint_dir: None,
            },
        );
        assert_eq!(got, reference, "threads={threads} changed the document");
    }
    // The document is also non-trivial: every quick-tier config shows.
    assert!(reference.contains("\"configs\": 28"), "{reference}");
}

#[test]
fn pre_raised_interrupt_stops_before_any_config() {
    let spec = tiny_spec();
    let flag = AtomicBool::new(true);
    let opts = SweepOptions {
        threads: 4,
        checkpoint_dir: None,
    };
    match run_sweep(&spec, &opts, Some(&flag)).expect("sweep starts") {
        SweepOutcome::Interrupted { completed, total } => {
            assert_eq!(completed, 0);
            assert_eq!(total, 28);
        }
        SweepOutcome::Complete(_) => panic!("a raised flag must interrupt the sweep"),
    }
    assert!(flag.load(Ordering::Acquire), "flag is never cleared");
}

#[test]
fn resumed_sweep_matches_uninterrupted_run() {
    let dir = std::env::temp_dir().join("cppc_explore_resume_test");
    let _ = std::fs::remove_dir_all(&dir);

    // Warm the checkpoint store with only the cppc half of the grid
    // (an include filter), as an interrupted sweep would leave behind.
    let mut partial = tiny_spec();
    partial.include = vec!["cppc/".to_string()];
    let opts = SweepOptions {
        threads: 2,
        checkpoint_dir: Some(dir.clone()),
    };
    match run_sweep(&partial, &opts, None).expect("partial sweep runs") {
        SweepOutcome::Complete(points) => assert_eq!(points.len(), 8),
        SweepOutcome::Interrupted { .. } => unreachable!("no interrupt flag"),
    }

    // The full sweep reuses those checkpoints (the digest ignores
    // filters) and must produce the same bytes as a fresh run.
    let spec = tiny_spec();
    let resumed = doc_bytes(&spec, &opts);
    let fresh = doc_bytes(
        &spec,
        &SweepOptions {
            threads: 2,
            checkpoint_dir: None,
        },
    );
    assert_eq!(resumed, fresh, "checkpoint restore changed the document");

    let _ = std::fs::remove_dir_all(&dir);
}
