//! Golden identity across the whole trace pipeline: the same operation
//! stream must produce **bit-identical** hierarchy statistics and cycle
//! counts whether it is driven straight from the generator, replayed
//! from a text trace file, replayed from a binary trace file, or
//! streamed through the chunked binary reader — and a
//! trace-driven campaign must tally identically at any thread count.
//! Any divergence means one of the ingestion paths is simulating a
//! different machine, which would silently invalidate every archived
//! trace result. A binary trace whose header lies about its record
//! count must load as an error, not abort the process.

use cppc_bench::experiments::{load_trace, trace_digest, trace_experiment, trace_hierarchy};
use cppc_cache_sim::hierarchy::{MemOp, TwoLevelHierarchy};
use cppc_cache_sim::{CacheGeometry, ReplacementPolicy};
use cppc_campaign::CampaignConfig;
use cppc_fault::campaign::OutcomeTally;
use cppc_workloads::{
    binfmt, read_din_trace, read_trace, spec2000_profiles, write_trace, BinTraceReader, OpBatch,
    SharedTrace, TraceGenerator,
};

const OPS: usize = 30_000;
const SEED: u64 = 0x007A_CE1D;

/// The generated op stream and its two on-disk encodings, in a
/// process-private temp directory.
struct Fixture {
    ops: Vec<MemOp>,
    dir: std::path::PathBuf,
    text_path: std::path::PathBuf,
    bin_path: std::path::PathBuf,
}

impl Fixture {
    fn new(tag: &str) -> Self {
        let profiles = spec2000_profiles();
        let profile = profiles.iter().find(|p| p.name == "gcc").unwrap();
        let ops: Vec<MemOp> = TraceGenerator::new(profile, SEED).take(OPS).collect();
        let dir =
            std::env::temp_dir().join(format!("cppc-trace-identity-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let text_path = dir.join("trace.txt");
        let bin_path = dir.join("trace.cppct");
        let mut text = std::io::BufWriter::new(std::fs::File::create(&text_path).unwrap());
        write_trace(&mut text, ops.iter().copied()).unwrap();
        drop(text);
        binfmt::write_bin_trace_file(&bin_path, &ops).unwrap();
        Fixture {
            ops,
            dir,
            text_path,
            bin_path,
        }
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// Everything the hierarchy measures, in one comparable bundle.
fn observe(
    h: &TwoLevelHierarchy,
) -> (
    u64,
    cppc_cache_sim::stats::CacheStats,
    cppc_cache_sim::stats::CacheStats,
    u64,
) {
    let (l1, l2) = h.stats();
    (h.cycle(), l1, l2, trace_digest(h))
}

#[test]
fn four_drive_paths_produce_identical_hierarchy_state() {
    let fx = Fixture::new("drives");

    // 1. Straight from the generator, per-op step path.
    let mut direct = trace_hierarchy();
    direct.run(fx.ops.iter().copied());
    let golden = observe(&direct);

    // 2. Text trace file, materialized, per-op step path.
    let text_trace = load_trace(fx.text_path.to_str().unwrap()).unwrap();
    assert_eq!(text_trace.ops(), &fx.ops[..], "text round trip");
    let mut text_h = trace_hierarchy();
    text_h.run(text_trace.replay());
    assert_eq!(observe(&text_h), golden, "text-trace drive diverged");

    // 3. Binary trace file, materialized, batched fast path.
    let bin_trace = load_trace(fx.bin_path.to_str().unwrap()).unwrap();
    assert_eq!(bin_trace.ops(), &fx.ops[..], "binary round trip");
    let mut bin_h = trace_hierarchy();
    bin_h.run_batch(&bin_trace.batch());
    assert_eq!(observe(&bin_h), golden, "binary-trace drive diverged");

    // 4. Streaming chunked reader, batched fast path, O(1) memory.
    let mut reader = BinTraceReader::open(&fx.bin_path).unwrap();
    let mut stream_h = trace_hierarchy();
    let mut batch = OpBatch::new();
    let driven = binfmt::drive(&mut reader, &mut stream_h, &mut batch).unwrap();
    assert_eq!(driven, OPS as u64, "streamed op count");
    assert_eq!(observe(&stream_h), golden, "streaming drive diverged");
}

#[test]
fn trace_campaign_tallies_are_thread_invariant() {
    let fx = Fixture::new("campaign");
    let trace = SharedTrace::from_binary_file(&fx.bin_path).unwrap();

    let single = CampaignConfig::new(0xBEE5, 240).threads(1).shard_size(16);
    let quad = CampaignConfig::new(0xBEE5, 240).threads(4).shard_size(16);
    let a: OutcomeTally = cppc_campaign::run(&single, trace_experiment(&trace)).result;
    let b: OutcomeTally = cppc_campaign::run(&quad, trace_experiment(&trace)).result;
    assert_eq!(a, b, "trace campaign tallies differ across thread counts");
    assert_eq!(a.total(), 240);
}

/// A Dinero `din` file has no signature of its own, yet `load_trace`
/// (and with it `trace bench`, `campaign --kind trace` and served
/// `trace` jobs) reads it to the ops `read_din_trace` returns.
#[test]
fn din_trace_loads_through_load_trace() {
    let fx = Fixture::new("din");
    let din_path = fx.dir.join("trace.din");
    let din: String = fx
        .ops
        .iter()
        .map(|op| match op {
            MemOp::Load(a) => format!("0 {a:x}\n"),
            MemOp::Store(a, _) | MemOp::StoreByte(a, _) => format!("1 {a:x} 8\n"),
        })
        .collect();
    std::fs::write(&din_path, &din).unwrap();

    let expected = read_din_trace(din.as_bytes()).unwrap();
    assert_eq!(expected.len(), OPS);
    let loaded = load_trace(din_path.to_str().unwrap()).unwrap();
    assert_eq!(loaded.ops(), &expected[..]);
}

#[test]
fn recorded_trace_replays_identically() {
    // Record a trace, replay it through a fresh hierarchy, and compare
    // every statistic with a direct run — the archival path is exact.
    let profile = spec2000_profiles()[2];
    let ops: Vec<MemOp> = TraceGenerator::new(&profile, 99).take(30_000).collect();

    let mut buf = Vec::new();
    write_trace(&mut buf, ops.iter().copied()).unwrap();
    let replayed = read_trace(std::io::BufReader::new(&buf[..])).unwrap();
    assert_eq!(replayed, ops);

    let run = |trace: &[MemOp]| {
        let l1 = CacheGeometry::new(32 * 1024, 2, 32).unwrap();
        let l2 = CacheGeometry::new(256 * 1024, 4, 32).unwrap();
        let mut h = TwoLevelHierarchy::new(l1, l2, ReplacementPolicy::Lru);
        h.run(trace.iter().copied());
        h.stats()
    };
    let (a1, a2) = run(&ops);
    let (b1, b2) = run(&replayed);
    assert_eq!(a1, b1);
    assert_eq!(a2, b2);
}

/// A `.cppct` header whose record count lies (one flipped byte declares
/// about 2^40 records) is an `Err` from `load_trace`, the loader behind
/// `campaign --kind trace` and served `trace` jobs — not an aborted
/// up-front allocation.
#[test]
fn lying_record_count_is_an_error_through_load_trace() {
    let fx = Fixture::new("lying-count");
    let mut bytes = std::fs::read(&fx.bin_path).unwrap();
    bytes[12] ^= 0xFF;
    let bad = fx.dir.join("lying.cppct");
    std::fs::write(&bad, &bytes).unwrap();
    let err = load_trace(bad.to_str().unwrap()).unwrap_err();
    assert!(err.contains("record count mismatch"), "{err}");
}
