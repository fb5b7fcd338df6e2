//! The benchmark's own tests: every workload at reduced size, traced
//! and untraced, with its output checks passing, every published metric
//! present with its unit, and the same work shape for two seeds.

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, PoisonError};

use cppc_campaign::json::Json;
use cppc_perfbench::{publish, run, Opts, RunOutput, Scale, END_TO_END, PER_LAYER, WORKLOADS};

/// The program's counters are process-wide, so runs must not overlap.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn tiny(workload: &str, seed: u64, trace: bool) -> RunOutput {
    let opts = Opts {
        seed,
        seconds: 0.3,
        trace,
        work_dir: PathBuf::from(".perfbench").join("tests"),
        scale: Scale::Tiny,
    };
    let out = run(workload, &opts).unwrap_or_else(|e| panic!("{workload}: {e}"));
    publish(out, trace)
}

fn value(out: &RunOutput, name: &str) -> f64 {
    out.metric(name)
        .unwrap_or_else(|| panic!("{name} missing"))
        .value
}

fn assert_correct(workload: &str, out: &RunOutput) {
    assert!(out.correct, "{workload}: {:#?}", out.notes);
    assert!(out.attempted > 0, "{workload}: nothing attempted");
    assert_eq!(out.failed, 0, "{workload}: {:#?}", out.notes);
}

#[test]
fn untraced_runs_pass_their_checks_and_report_every_end_to_end_metric() {
    let _serial = serial();
    for workload in WORKLOADS {
        let out = tiny(workload, 1, false);
        assert_correct(workload, &out);
        let published: Vec<(&str, &str)> = out.metrics.iter().map(|m| (m.name, m.unit)).collect();
        assert_eq!(published, END_TO_END, "{workload}");
        for m in &out.metrics {
            assert!(m.value.is_finite() && m.value > 0.0, "{workload}: {m:?}");
        }
        let line = out.json_line();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );
    }
}

#[test]
fn traced_runs_report_every_layer_and_keep_the_layers_apart() {
    let _serial = serial();
    for workload in WORKLOADS {
        let out = tiny(workload, 2, true);
        assert_correct(workload, &out);
        let published: Vec<(&str, &str)> = out.metrics.iter().map(|m| (m.name, m.unit)).collect();
        assert_eq!(published, PER_LAYER, "{workload}");
        assert!(
            value(&out, "trace.coverage_pct") >= 90.0,
            "{workload}: {:#?}",
            out.notes
        );
        assert!(value(&out, "trace.spans") > 0.0, "{workload}");
        let zero = |prefixes: &[&str]| {
            for m in &out.metrics {
                if prefixes.iter().any(|p| m.name.starts_with(p)) {
                    assert_eq!(m.value, 0.0, "{workload}: {} should be 0", m.name);
                }
            }
        };
        match workload {
            "mbe-solid" => {
                zero(&["workloads.", "serve.", "core.recovery_walks"]);
                assert_eq!(value(&out, "batch.fast_path_ratio"), 1.0);
                assert!(value(&out, "ecc.syndrome_words") > 0.0);
                assert!(value(&out, "campaign.shards") > 0.0);
            }
            "trace-mcf" => {
                zero(&["fault.", "ecc.", "serve."]);
                assert!(value(&out, "workloads.ops_decoded") > 0.0);
                assert!(value(&out, "cache.l1.misses") > 0.0);
                assert!(value(&out, "cache_sim.drive_s") > 0.0);
            }
            "serve-mix" => {
                assert!(value(&out, "campaign.checkpoint_writes") > 0.0);
                assert!(value(&out, "core.recovery_walks") > 0.0);
                assert!(value(&out, "serve.requests") > 0.0);
                assert!(value(&out, "serve.run_ms") > 0.0);
            }
            other => panic!("untested workload {other}"),
        }
    }
}

#[test]
fn two_seeds_give_the_same_work_shape() {
    let _serial = serial();
    for workload in WORKLOADS {
        let a = tiny(workload, 3, false);
        let b = tiny(workload, 4, false);
        assert!(!a.shape.is_empty(), "{workload}");
        assert_eq!(a.shape, b.shape, "{workload}");
    }
    let shape = cppc_perfbench::serve_mix::Shape::at(Scale::Full);
    let mix = |seed| {
        cppc_perfbench::serve_mix::job_cycle(&shape, seed, "gcc.cppct")
            .into_iter()
            .map(|slot| (slot.label, slot.spec.kind.name(), slot.spec.trials))
            .collect::<Vec<_>>()
    };
    assert_eq!(mix(5), mix(6));
    assert_eq!(mix(5).len(), 79);
}

#[test]
fn benchmark_json_lists_the_published_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let doc = Json::parse(&text).expect("valid JSON");
    let names = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("{key} missing"))
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names("end_to_end"), own(&END_TO_END));
    assert_eq!(names("per_layer"), own(&PER_LAYER));
    let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, WORKLOADS);
}
