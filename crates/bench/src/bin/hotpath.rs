//! Hot-path throughput benchmark and regression gate.
//!
//! Measures trials/sec of the `mbe_coverage` campaign two ways, and the
//! parity kernels under it, and writes all three to
//! `BENCH_hotpath.json` (the campaign legs next to their baselines):
//!
//! * **sequential** — the per-trial reference path (restore the warm
//!   copy, inject, recover, classify), against the pre-snapshot-rework
//!   baseline (commit 918b4f9).
//! * **batched** — the cross-trial batch engine
//!   ([`cppc_bench::mbe::MbeBatchExec`]): fault patterns of a whole
//!   batch gathered into SoA arenas, syndromes of all lanes through
//!   one vectorized kernel call, error-delta classification, per-trial
//!   fallback for the locator/DUE tail. Its baseline is the per-trial
//!   throughput recorded at the previous optimisation round, and its
//!   target is ≥ 1,000,000 trials/sec. The batched tallies at the
//!   sequential leg's trial count are asserted bit-identical to the
//!   sequential tallies on every benchmark run.
//!
//! * **kernels** — ns/word and GB/s (input bytes read) of the
//!   dispatched and SWAR forms of the four `cppc_ecc::kernels` slice
//!   kernels on one 256-word slice with `ways` known only at run time,
//!   next to a plain memory-read row: four independent XOR
//!   accumulators over the same slice, the roofline a parity kernel
//!   cannot beat.
//!
//! Run with `cargo run -p cppc-bench --release --bin hotpath`.
//! `--trials N` sets the sequential campaign size (default 100000);
//! `--batch-trials N` the batched campaign size (default 1000000);
//! `--batch N` the lanes per batch (default 64); `--out PATH`
//! redirects the output file.
//!
//! `--gate PATH` switches to regression-gate mode: instead of writing a
//! new baseline, it reads the committed `BENCH_hotpath.json` at PATH,
//! measures the current tree once per leg and exits non-zero if the
//! sequential leg fell below 0.9x its recorded throughput, the
//! batched leg fell below the recorded `target_trials_per_sec` floor,
//! or any dispatched kernel is slower than its SWAR form. The kernel
//! check compares two measurements made on the same host in the same
//! run, so unlike the two throughput floors it does not depend on the
//! host; it is skipped when the dispatch itself is SWAR.

use std::hint::black_box;

use std::time::Instant;

use cppc_bench::gate::{self, BenchArgs, GATE_FLOOR};
use cppc_bench::mbe::{experiment_model, pool, MbeBatchExec, SEED, SOLID_MODEL};
use cppc_campaign::json::Json;
use cppc_campaign::rng::rngs::StdRng;
use cppc_campaign::rng::{RngExt, SeedableRng};
use cppc_campaign::{run_exec, CampaignConfig};
use cppc_ecc::kernels::{self, swar, KernelKind};
use cppc_fault::campaign::OutcomeTally;

/// Sequential trials/sec measured at the pre-snapshot tree (commit
/// 918b4f9) with `--trials 100000`, median of three runs.
const BASELINE_TRIALS_PER_SEC: f64 = 84_726.0;
const BASELINE_COMMIT: &str = "918b4f9";

/// Per-trial trials/sec at the tree immediately before the batch
/// engine landed (the `current.trials_per_sec` this benchmark recorded
/// at that commit) — the batched leg's speedup denominator.
const BATCH_BASELINE_TRIALS_PER_SEC: f64 = 223_923.0;
const BATCH_BASELINE_COMMIT: &str = "b268aba";

/// The batched leg's absolute throughput target.
const BATCH_TARGET_TRIALS_PER_SEC: f64 = 1_000_000.0;

/// Lanes per batch when `--batch` is not given.
const DEFAULT_BATCH: usize = 64;

fn timed_run(trials: u64) -> (OutcomeTally, f64) {
    let start = Instant::now();
    let cfg = CampaignConfig::new(SEED, trials);
    let tally = cppc_campaign::run(&cfg, |rng, _| experiment_model(SOLID_MODEL, rng)).result;
    (tally, start.elapsed().as_secs_f64())
}

fn timed_batched_run(trials: u64, batch: usize) -> (OutcomeTally, f64) {
    // Large shards amortise the scheduler; single-threaded so the two
    // legs measure per-core work, like-for-like.
    let cfg = CampaignConfig::new(SEED, trials)
        .shard_size(4096)
        .threads(1);
    let start = Instant::now();
    let report = run_exec::<OutcomeTally, _>(&cfg, MbeBatchExec::solid(batch));
    assert!(report.is_complete(), "batched campaign must complete");
    (report.result, start.elapsed().as_secs_f64())
}

/// Words per kernel call in the kernel rows: one 2 KiB slice, the
/// size of the campaign cache's data array.
const KERNEL_WORDS: usize = 256;

/// Interleaving degree of the kernel rows (the CPPC paper config's).
const KERNEL_WAYS: u32 = 8;

/// Kernel calls per timed sample.
const KERNEL_CALLS: u32 = 20_000;

/// One timed kernel form.
#[derive(Debug, Clone, Copy)]
struct KernelTiming {
    ns_per_word: f64,
    /// Input bytes read per nanosecond (= GB/s).
    gbps: f64,
}

impl KernelTiming {
    fn json(self) -> Json {
        Json::Obj(vec![
            ("ns_per_word".into(), Json::Num(self.ns_per_word)),
            ("gbps".into(), Json::Num(self.gbps)),
        ])
    }
}

/// A kernel's dispatched and SWAR timings.
struct KernelRow {
    name: &'static str,
    dispatched: KernelTiming,
    swar: KernelTiming,
}

/// Times `call`, one pass over a [`KERNEL_WORDS`] slice reading
/// `bytes_per_word` input bytes per word: the median of five samples.
fn time_kernel(bytes_per_word: f64, mut call: impl FnMut()) -> KernelTiming {
    let mut samples: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..KERNEL_CALLS {
                call();
            }
            start.elapsed().as_secs_f64() * 1e9 / (f64::from(KERNEL_CALLS) * KERNEL_WORDS as f64)
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    let ns_per_word = samples[2];
    KernelTiming {
        ns_per_word,
        gbps: bytes_per_word / ns_per_word,
    }
}

/// XOR of `words` through four independent accumulators (the
/// `fparity64` shape): a plain read of the slice with no parity
/// arithmetic, the memory-read roofline of the kernel rows.
fn read_xor4(words: &[u64]) -> u64 {
    let mut acc = [0u64; 4];
    let mut chunks = words.chunks_exact(4);
    for chunk in chunks.by_ref() {
        for (a, &w) in acc.iter_mut().zip(chunk) {
            *a ^= w;
        }
    }
    let tail = chunks.remainder().iter().fold(0, |a, &w| a ^ w);
    acc.iter().fold(tail, |a, &x| a ^ x)
}

/// Measures the kernel rows and the memory-read row.
fn kernel_rows() -> (Vec<KernelRow>, KernelTiming) {
    let mut rng = StdRng::seed_from_u64(SEED);
    let words: Vec<u64> = (0..KERNEL_WORDS).map(|_| rng.random()).collect();
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    // Known only at run time, as in the batch engine (`ways` comes from
    // the cache configuration).
    let ways = black_box(KERNEL_WAYS);
    let mut stored = vec![0u64; KERNEL_WORDS];
    swar::encode_many(&words, ways, &mut stored);
    let mut out = vec![0u64; KERNEL_WORDS];
    let mut out8 = vec![0u8; KERNEL_WORDS];

    let mut rows = Vec::new();
    let mut row = |name, dispatched, swar| {
        rows.push(KernelRow {
            name,
            dispatched,
            swar,
        });
    };
    row(
        "encode_many",
        time_kernel(8.0, || {
            kernels::encode_many(black_box(&words), ways, &mut out);
            black_box(&out);
        }),
        time_kernel(8.0, || {
            swar::encode_many(black_box(&words), ways, &mut out);
            black_box(&out);
        }),
    );
    row(
        "block_syndrome_or",
        time_kernel(16.0, || {
            black_box(kernels::block_syndrome_or(
                black_box(&words),
                black_box(&stored),
                ways,
            ));
        }),
        time_kernel(16.0, || {
            black_box(swar::block_syndrome_or(
                black_box(&words),
                black_box(&stored),
                ways,
            ));
        }),
    );
    row(
        "byte_parity_many",
        time_kernel(8.0, || {
            kernels::byte_parity_many(black_box(&words), &mut out8);
            black_box(&out8);
        }),
        time_kernel(8.0, || {
            swar::byte_parity_many(black_box(&words), &mut out8);
            black_box(&out8);
        }),
    );
    row(
        "fold_xor_bytes",
        time_kernel(8.0, || {
            black_box(kernels::fold_xor_bytes(black_box(&bytes)));
        }),
        time_kernel(8.0, || {
            black_box(swar::fold_xor_bytes(black_box(&bytes)));
        }),
    );
    let read = time_kernel(8.0, || {
        black_box(read_xor4(black_box(&words)));
    });
    (rows, read)
}

fn print_kernel_rows(rows: &[KernelRow], read: KernelTiming) {
    println!(
        "hot-path kernels: {KERNEL_WORDS}-word slices, runtime ways, dispatch {}",
        kernels::active().name()
    );
    for r in rows {
        println!(
            "  {:<18} dispatched {:6.2} ns/word {:6.2} GB/s   swar {:6.2} ns/word {:6.2} GB/s",
            r.name, r.dispatched.ns_per_word, r.dispatched.gbps, r.swar.ns_per_word, r.swar.gbps
        );
    }
    println!(
        "  {:<18} {:6.2} ns/word {:6.2} GB/s",
        "memory_read", read.ns_per_word, read.gbps
    );
}

fn kernels_json(rows: &[KernelRow], read: KernelTiming) -> Json {
    let mut items: Vec<Json> = rows
        .iter()
        .map(|r| {
            Json::Obj(vec![
                ("name".into(), Json::Str(r.name.into())),
                ("dispatched".into(), r.dispatched.json()),
                ("swar".into(), r.swar.json()),
                (
                    "speedup_vs_swar".into(),
                    Json::Num(r.swar.ns_per_word / r.dispatched.ns_per_word),
                ),
            ])
        })
        .collect();
    items.push(Json::Obj(vec![
        ("name".into(), Json::Str("memory_read".into())),
        ("ns_per_word".into(), Json::Num(read.ns_per_word)),
        ("gbps".into(), Json::Num(read.gbps)),
    ]));
    Json::Obj(vec![
        ("kernel".into(), Json::Str(kernels::active().name().into())),
        ("words".into(), Json::UInt(KERNEL_WORDS as u64)),
        ("ways".into(), Json::UInt(u64::from(KERNEL_WAYS))),
        ("rows".into(), Json::Arr(items)),
    ])
}

fn tally_json(tally: &OutcomeTally) -> Json {
    Json::Obj(vec![
        ("masked".into(), Json::UInt(tally.masked)),
        ("corrected".into(), Json::UInt(tally.corrected)),
        ("due".into(), Json::UInt(tally.due)),
        ("sdc".into(), Json::UInt(tally.sdc)),
    ])
}

/// Regression-gate mode: measure each leg once, compare against the
/// committed baseline file, exit 1 on a >10% regression of either.
fn run_gate(path: &str, trials: u64, batch: usize) {
    let recorded = gate::read_baseline(path, "baseline.trials_per_sec");
    // The batched leg gates against the recorded *target* floor, not
    // its own freshest measurement: the recorded trials_per_sec is a
    // quiet-host median-of-three, which a loaded CI run can undershoot
    // by well over the noise allowance without any real regression.
    // Falling below the 1M target, by contrast, means the batch engine
    // itself stopped paying off.
    let batched_floor = gate::read_baseline(path, "batched.target_trials_per_sec");

    println!("hot-path gate: {trials} sequential trials vs {recorded:.0} trials/sec baseline");
    let (_tally, secs) = timed_run(trials);
    let sequential_ok = gate::gate_leg(
        "hot-path sequential",
        "trials",
        trials as f64 / secs,
        recorded * GATE_FLOOR,
    );

    // The batched leg runs more trials per measurement — at ≥ 1M
    // trials/sec a small campaign would time scheduler noise.
    let batched_trials = trials * 10;
    println!(
        "hot-path gate: {batched_trials} batched trials (batch {batch}) vs \
         {batched_floor:.0} trials/sec target floor"
    );
    let (_tally, secs) = timed_batched_run(batched_trials, batch);
    let batched_ok = gate::gate_leg(
        "hot-path batched",
        "trials",
        batched_trials as f64 / secs,
        batched_floor,
    );

    // Every dispatched kernel must beat its own SWAR fallback: a vector
    // path slower than the scalar one is a codegen bug (a helper missing
    // its `#[target_feature]`), on any host.
    let (rows, read) = kernel_rows();
    print_kernel_rows(&rows, read);
    let mut kernels_ok = true;
    if kernels::active() == KernelKind::Swar {
        println!("  kernel check skipped: the dispatch is SWAR itself");
    } else {
        for r in &rows {
            kernels_ok &= gate::gate_leg(
                &format!("kernel {} (dispatched vs swar)", r.name),
                "words",
                1e9 / r.dispatched.ns_per_word,
                1e9 / r.swar.ns_per_word,
            );
        }
    }

    if !(sequential_ok && batched_ok && kernels_ok) {
        std::process::exit(1);
    }
    println!(
        "  gate passed (sequential floor {GATE_FLOOR}x, batched floor {batched_floor:.0} \
         trials/sec, every dispatched kernel at least as fast as SWAR)"
    );
}

#[allow(clippy::too_many_lines)]
fn main() {
    let args = BenchArgs::parse(&["trials", "batch-trials", "batch", "out", "gate"]);
    let trials: u64 = args.parsed("trials", 100_000);
    let batch_trials: u64 = args.parsed("batch-trials", 1_000_000);
    let batch: usize = args.parsed("batch", DEFAULT_BATCH);
    let out: String = args.parsed("out", String::from("BENCH_hotpath.json"));

    if let Some(path) = args.get("gate") {
        // Gate runs default to a smaller campaign: one run per leg,
        // quick enough for CI, long enough to amortise the per-thread
        // warmup capture.
        run_gate(path, args.parsed("trials", 20_000), batch);
        return;
    }

    println!("hot-path benchmark: {trials} sequential mbe_coverage trials, 3 runs");
    let (tally, median) =
        gate::median_of_three("sequential", trials, "trials", || timed_run(trials));
    let current = trials as f64 / median;
    let speedup = current / BASELINE_TRIALS_PER_SEC;
    println!("  median: {current:.0} trials/sec  ({speedup:.2}x vs pre-snapshot baseline)");

    println!("hot-path benchmark: {batch_trials} batched trials (batch {batch}), 3 runs");
    let (batched_tally, batched_median) =
        gate::median_of_three("batched", batch_trials, "trials", || {
            timed_batched_run(batch_trials, batch)
        });
    let batched_current = batch_trials as f64 / batched_median;
    let batched_speedup = batched_current / BATCH_BASELINE_TRIALS_PER_SEC;
    println!(
        "  median: {batched_current:.0} trials/sec  ({batched_speedup:.2}x vs per-trial \
         baseline, target {BATCH_TARGET_TRIALS_PER_SEC:.0})"
    );
    println!("  kernel: {}", kernels::active().name());

    // The batched engine must agree with the sequential leg bit for
    // bit at the same trial count — every benchmark run re-proves it.
    let (batched_check, _) = timed_batched_run(trials, batch);
    assert_eq!(
        batched_check, tally,
        "batched tallies diverge from sequential at {trials} trials"
    );
    println!("  tally identity: batched == sequential at {trials} trials");

    let (kernel_rows, read) = kernel_rows();
    print_kernel_rows(&kernel_rows, read);

    println!(
        "  warm pool: {} captures, {} restores ({:.4} hit rate)",
        pool().captures(),
        pool().restores(),
        pool().hit_rate()
    );

    let doc = Json::Obj(vec![
        ("benchmark".into(), Json::Str("hotpath".into())),
        (
            "campaign".into(),
            Json::Str("mbe_coverage: CPPC paper config, 4x4 solid square, sequential".into()),
        ),
        ("seed".into(), Json::UInt(SEED)),
        ("trials".into(), Json::UInt(trials)),
        (
            "baseline".into(),
            Json::Obj(vec![
                ("commit".into(), Json::Str(BASELINE_COMMIT.into())),
                ("trials_per_sec".into(), Json::Num(BASELINE_TRIALS_PER_SEC)),
            ]),
        ),
        (
            "current".into(),
            Json::Obj(vec![
                ("median_wall_clock_secs".into(), Json::Num(median)),
                ("trials_per_sec".into(), Json::Num(current)),
            ]),
        ),
        ("speedup".into(), Json::Num(speedup)),
        ("tallies".into(), tally_json(&tally)),
        (
            "batched".into(),
            Json::Obj(vec![
                ("batch".into(), Json::UInt(batch as u64)),
                ("trials".into(), Json::UInt(batch_trials)),
                ("kernel".into(), Json::Str(kernels::active().name().into())),
                (
                    "baseline".into(),
                    Json::Obj(vec![
                        ("commit".into(), Json::Str(BATCH_BASELINE_COMMIT.into())),
                        (
                            "trials_per_sec".into(),
                            Json::Num(BATCH_BASELINE_TRIALS_PER_SEC),
                        ),
                    ]),
                ),
                (
                    "target_trials_per_sec".into(),
                    Json::Num(BATCH_TARGET_TRIALS_PER_SEC),
                ),
                ("median_wall_clock_secs".into(), Json::Num(batched_median)),
                ("trials_per_sec".into(), Json::Num(batched_current)),
                ("speedup_vs_per_trial".into(), Json::Num(batched_speedup)),
                ("tallies".into(), tally_json(&batched_tally)),
            ]),
        ),
        ("kernels".into(), kernels_json(&kernel_rows, read)),
        (
            "snapshot".into(),
            Json::Obj(vec![
                ("captures".into(), Json::UInt(pool().captures())),
                ("restores".into(), Json::UInt(pool().restores())),
                ("bytes".into(), Json::UInt(pool().bytes())),
                ("hit_rate".into(), Json::Num(pool().hit_rate())),
            ]),
        ),
    ]);
    std::fs::write(&out, doc.to_string_compact() + "\n").expect("write hotpath result");
    println!("wrote {out}");
}
