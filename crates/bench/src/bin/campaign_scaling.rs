//! Campaign-engine scaling baseline.
//!
//! Runs a fixed `mbe_coverage`-style fault-injection campaign (CPPC
//! paper config, 4x4 spatial square strikes) through `cppc-campaign`
//! at 1 thread and at N threads, checks the merged tallies are
//! bit-identical, and writes wall-clock + trials/sec to
//! `BENCH_campaign.json` at the repo root.
//!
//! Run with `cargo run -p cppc-bench --bin campaign_scaling --release`.
//! `--threads N` sets the parallel leg (default: all CPUs); `--trials N`
//! sets the campaign size (default 2000); `--out PATH` redirects the
//! baseline file.

use std::time::Instant;

use cppc_bench::gate::BenchArgs;
use cppc_bench::mbe::{experiment_model, pool, SEED, SOLID_MODEL};
use cppc_campaign::json::Json;
use cppc_campaign::CampaignConfig;
use cppc_fault::campaign::OutcomeTally;

/// Warm-pool activity during one benchmark leg: how many warmup
/// captures the leg ran and how many trials reused a pooled snapshot.
struct PoolDelta {
    captures: u64,
    restores: u64,
}

fn timed_run(trials: u64, threads: usize) -> (OutcomeTally, f64, PoolDelta) {
    let (captures0, restores0) = (pool().captures(), pool().restores());
    let start = Instant::now();
    let cfg = CampaignConfig::new(SEED, trials).threads(threads);
    let tally = cppc_campaign::run(&cfg, |rng, _| experiment_model(SOLID_MODEL, rng)).result;
    let secs = start.elapsed().as_secs_f64();
    let delta = PoolDelta {
        captures: pool().captures() - captures0,
        restores: pool().restores() - restores0,
    };
    (tally, secs, delta)
}

fn leg_json(requested: usize, effective: usize, trials: u64, secs: f64, delta: &PoolDelta) -> Json {
    let checkouts = delta.captures + delta.restores;
    Json::Obj(vec![
        ("requested_threads".into(), Json::UInt(requested as u64)),
        ("effective_threads".into(), Json::UInt(effective as u64)),
        ("wall_clock_secs".into(), Json::Num(secs)),
        ("trials_per_sec".into(), Json::Num(trials as f64 / secs)),
        (
            "snapshot".into(),
            Json::Obj(vec![
                ("captures".into(), Json::UInt(delta.captures)),
                ("restores".into(), Json::UInt(delta.restores)),
                (
                    "restores_per_thread".into(),
                    Json::Num(delta.restores as f64 / effective.max(1) as f64),
                ),
                (
                    "hit_rate".into(),
                    Json::Num(if checkouts == 0 {
                        0.0
                    } else {
                        delta.restores as f64 / checkouts as f64
                    }),
                ),
            ]),
        ),
    ])
}

fn main() {
    let args = BenchArgs::parse(&["threads", "trials", "out"]);
    let threads: usize = args.parsed("threads", 0); // 0 = all CPUs
    let trials: u64 = args.parsed("trials", 2000);
    let out: String = args.parsed("out", String::from("BENCH_campaign.json"));
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Oversubscribing a deterministic sharded campaign only adds context
    // switches: clamp the effective worker count to the host's cores but
    // record what was asked for.
    let requested_threads = if threads == 0 { cores } else { threads };
    let parallel_threads = requested_threads.min(cores);

    println!("campaign scaling baseline: {trials} trials, CPPC 4x4-square injection");
    println!("host cores: {cores}");
    if parallel_threads < requested_threads {
        println!("  ({requested_threads} threads requested, clamped to {parallel_threads})");
    }

    let (seq_tally, seq_secs, seq_pool) = timed_run(trials, 1);
    println!(
        "  1 thread:  {seq_secs:.2}s  ({:.0} trials/sec, {} snapshot captures / {} restores)",
        trials as f64 / seq_secs,
        seq_pool.captures,
        seq_pool.restores
    );
    let (par_tally, par_secs, par_pool) = timed_run(trials, parallel_threads);
    println!(
        "  {parallel_threads} threads: {par_secs:.2}s  ({:.0} trials/sec, {} snapshot captures / {} restores)",
        trials as f64 / par_secs,
        par_pool.captures,
        par_pool.restores
    );
    assert_eq!(
        seq_tally, par_tally,
        "engine determinism violated: tallies differ across thread counts"
    );
    // A parallel leg that could not actually run at the requested
    // concurrency (single-core host, or clamped request) measures
    // scheduler overhead, not scaling: publish `null` rather than a
    // number a regression gate would misread.
    let thread_limited = parallel_threads < requested_threads;
    let (speedup, note) = if cores == 1 || thread_limited {
        let why = if cores == 1 {
            "single-core host: parallel leg degenerates to sequential"
        } else {
            "thread-limited host: requested concurrency unavailable"
        };
        println!("  speedup: n/a ({why}; tallies bit-identical)");
        (Json::Null, Some(why))
    } else {
        let speedup = seq_secs / par_secs;
        println!("  speedup: {speedup:.2}x  (tallies bit-identical)");
        (Json::Num(speedup), None)
    };

    let mut doc = Json::Obj(vec![
        ("benchmark".into(), Json::Str("campaign_scaling".into())),
        (
            "campaign".into(),
            Json::Str("mbe_coverage: CPPC paper config, 4x4 solid square".into()),
        ),
        ("seed".into(), Json::UInt(SEED)),
        ("trials".into(), Json::UInt(trials)),
        ("host_cores".into(), Json::UInt(cores as u64)),
        (
            "sequential".into(),
            leg_json(1, 1, trials, seq_secs, &seq_pool),
        ),
        (
            "parallel".into(),
            leg_json(
                requested_threads,
                parallel_threads,
                trials,
                par_secs,
                &par_pool,
            ),
        ),
        ("speedup".into(), speedup),
        ("tallies_identical".into(), Json::Bool(true)),
        // True when the run asked for more workers than the host could
        // give (the clamp above) — readers of the baseline must not
        // interpret such a parallel leg as the requested concurrency.
        ("thread_limited".into(), Json::Bool(thread_limited)),
    ]);
    if let (Json::Obj(pairs), Some(why)) = (&mut doc, note) {
        pairs.push(("note".into(), Json::Str(why.into())));
    }
    std::fs::write(&out, doc.to_string_compact() + "\n").expect("write baseline");
    println!("wrote {out}");
}
