//! `section7` — the paper's §7 explorations: CPPC energy overhead down
//! a three-level hierarchy, and the read-before-write rate of
//! CPPC-protected L1s under MSI write-invalidate sharing.

use cppc_bench::{mean, EVAL_SEED};
use cppc_cache_sim::geometry::CacheGeometry;
use cppc_cache_sim::hierarchy::{Level, TwoLevelHierarchy};
use cppc_cache_sim::replacement::ReplacementPolicy;
use cppc_coherence::{CoreOp, CppcCoherentSystem, SharedTraceGenerator};
use cppc_core::{CppcConfig, SchemeKind};
use cppc_energy::scheme::SchemeEnergy;
use cppc_energy::tech::TechnologyNode;
use cppc_timing::counts_from_stats;
use cppc_workloads::{spec2000_profiles, TraceGenerator};

use crate::artifact::{Artifact, ArtifactOutput, MetricValue, RunConfig, Table, Tier, Tolerance};

/// Memory operations per benchmark of the L3 chain (after a warm-up of
/// half as many), and total operations of each sharing level.
const OPS: usize = 300_000;
const OPS_QUICK: usize = 60_000;

/// Cores of the multiprocessor.
const CORES: usize = 4;
/// Sharing levels swept, in percent of accesses to the shared region.
const SHARING_PCT: [u32; 5] = [0, 10, 25, 50, 75];
/// Trace seed of sharing level `pct` is `SHARING_SEED ^ pct`.
const SHARING_SEED: u64 = 0xC0DE;

/// The L3 chain's (size, associativity) per level: Table 1's L1 and L2
/// plus an 8MB/16-way L3, all with 32-byte blocks.
const LEVELS: [(usize, usize); 3] = [(32 * 1024, 2), (1024 * 1024, 4), (8 * 1024 * 1024, 16)];

/// The `section7` artifact.
pub fn artifact() -> Artifact {
    Artifact {
        name: "section7",
        title: "§7 — L3 CPPC energy and multiprocessor read-before-writes",
        paper_ref: "§7",
        tier: Tier::Fast,
        summary: "The two §7 explorations. First, each benchmark runs through a three-level \
                  hierarchy (Table 1's L1 and L2 plus an 8MB/16-way L3) and CPPC's dynamic \
                  energy is normalised to 1D parity at every level; the paper expects the \
                  overhead to shrink down the hierarchy (L1 +14%, L2 +7%, L3 less still) \
                  because each level filters the store stream below it. Second, four cores \
                  with private CPPC L1s share an L2 under MSI write-invalidate while the \
                  fraction of shared accesses rises; the paper expects invalidations of \
                  dirty blocks to lower the read-before-write rate. Expected shape: \
                  overhead falls at every level, rbw/store never rises with sharing, and \
                  every core's register invariant holds throughout.",
        config: |cfg| {
            vec![
                ("technology_node", "32nm".into()),
                ("levels", "32KB/2-way, 1MB/4-way, 8MB/16-way".into()),
                ("benchmarks", "15 synthetic SPEC2000 profiles".into()),
                ("ops", cfg.pick(OPS, OPS_QUICK).to_string()),
                ("trace_seed", format!("{EVAL_SEED:#x}")),
                ("cores", format!("{CORES} CPPC L1s, shared L2")),
                ("regions", "64KB private per core, 16KB shared".into()),
                ("store_fraction", "0.35".into()),
                ("sharing_seed", format!("{SHARING_SEED:#x} ^ sharing %")),
            ]
        },
        run,
    }
}

/// Per-benchmark CPPC/1D-parity energy ratio at each level, plus their
/// averages.
fn l3_chain(ops: usize) -> (Vec<Vec<String>>, [f64; 3]) {
    let node = TechnologyNode::Nm32;
    let geometry = LEVELS.map(|(size, assoc)| CacheGeometry::new(size, assoc, 32).expect("level"));
    let energy = LEVELS.map(|(size, assoc)| {
        [SchemeKind::Parity1d, SchemeKind::Cppc]
            .map(|k| SchemeEnergy::new(size, assoc, 32, k.descriptor().pricing, node))
    });

    let mut rows = Vec::new();
    let mut ratios: [Vec<f64>; 3] = Default::default();
    for profile in spec2000_profiles() {
        let [g1, g2, g3] = geometry;
        let mut h = TwoLevelHierarchy::with_l3(g1, g2, g3, ReplacementPolicy::Lru);
        let mut generator = TraceGenerator::new(&profile, EVAL_SEED);
        h.run(generator.by_ref().take(ops / 2));
        h.reset_stats();
        h.run(generator.take(ops));
        let (s1, s2) = h.stats();
        let s3 = h.level_stats(Level::L3).expect("three levels");
        let mut row = vec![profile.name.to_string()];
        for (level, stats) in [s1, s2, s3].iter().enumerate() {
            let counts = counts_from_stats(stats, 4);
            let [parity, cppc] = &energy[level];
            // An L3 the benchmark never reaches costs both schemes nothing.
            let ratio = if counts.reads + counts.writes == 0 {
                1.0
            } else {
                cppc.total_pj(&counts) / parity.total_pj(&counts)
            };
            ratios[level].push(ratio);
            row.push(format!("{ratio:.3}"));
        }
        rows.push(row);
    }
    let averages = ratios.map(|r| mean(&r));
    for (label, cells) in [
        ("average", averages.map(|a| format!("{a:.3}"))),
        (
            "overhead",
            averages.map(|a| format!("{:+.1}%", (a - 1.0) * 100.0)),
        ),
    ] {
        rows.push(std::iter::once(label.to_string()).chain(cells).collect());
    }
    (rows, averages)
}

/// One sharing level: its table row, rbw/store and whether every core's
/// register invariant held.
fn sharing_point(pct: u32, ops: usize) -> (Vec<String>, f64, bool) {
    let mut sys = CppcCoherentSystem::new(
        CORES,
        CacheGeometry::new(32 * 1024, 2, 32).expect("L1"),
        CacheGeometry::new(1024 * 1024, 4, 32).expect("L2"),
        CppcConfig::paper(),
        ReplacementPolicy::Lru,
    );
    let (sharing, seed) = (f64::from(pct) / 100.0, SHARING_SEED ^ u64::from(pct));
    let trace = SharedTraceGenerator::new(CORES, 64 * 1024, 16 * 1024, sharing, 0.35, seed);
    let mut stores = 0u64;
    for op in trace.take(ops) {
        stores += u64::from(matches!(op, CoreOp::Store { .. }));
        sys.step(op).expect("a fault-free run raises no DUE");
    }
    let rbw = sys.total_read_before_writes() as f64 / stores as f64;
    let invariants = sys.verify_invariants();
    let row = vec![
        format!("{pct}%"),
        format!("{rbw:.4}"),
        sys.stats().dirty_invalidations.to_string(),
        sys.stats().invalidations.to_string(),
        format!("{:.1}", sys.l2_stats().miss_rate() * 100.0),
        if invariants { "ok" } else { "VIOLATED" }.into(),
    ];
    (row, rbw, invariants)
}

/// A 0/1 metric for a property the §7 text expects to hold.
fn property(name: &str, doc: &str, holds: bool) -> MetricValue {
    let value = f64::from(u8::from(holds));
    MetricValue::new(name, "bool", doc, value, Some(1.0), Tolerance::Exact)
}

fn run(cfg: &RunConfig) -> ArtifactOutput {
    let ops = cfg.pick(OPS, OPS_QUICK);
    let (chain_rows, chain) = l3_chain(ops);
    let overhead = chain.map(|a| (a - 1.0) * 100.0);
    let sweep: Vec<_> = SHARING_PCT.map(|pct| sharing_point(pct, ops)).into();
    let rbw: Vec<f64> = sweep.iter().map(|point| point.1).collect();

    let mut metrics = Vec::new();
    // (paper value, gate band) per level.
    let expected = [(Some(14.0), 0.5), (Some(7.0), 0.5), (None, 0.1)];
    for ((level, pct), (paper, band)) in ["L1", "L2", "L3"].iter().zip(overhead).zip(expected) {
        metrics.push(MetricValue::new(
            format!("l3_chain.{}.cppc_overhead_pct", level.to_lowercase()),
            "pct",
            format!("Average CPPC energy overhead over 1D parity at the {level} of the chain."),
            pct,
            paper,
            Tolerance::Abs(band),
        ));
    }
    metrics.push(property(
        "l3_chain.overhead_shrinks",
        "1 when CPPC's average overhead falls strictly at every level down the hierarchy \
         (§7: an L3 CPPC is cheaper still).",
        overhead[0] > overhead[1] && overhead[1] > overhead[2],
    ));
    metrics.push(property(
        "sharing.rbw_never_rises",
        "1 when rbw/store never rises from one sharing level to the next (§7: \
         invalidations remove dirty blocks, so fewer stores find their word dirty).",
        rbw.windows(2).all(|w| w[1] <= w[0]),
    ));
    metrics.push(property(
        "sharing.invariants_hold",
        "1 when every core's R1/R2 register invariant holds after the run at every \
         sharing level.",
        sweep.iter().all(|point| point.2),
    ));

    ArtifactOutput {
        metrics,
        tables: vec![
            Table::new(
                format!("CPPC energy over 1D parity down a three-level hierarchy ({ops} ops each)"),
                &["bench", "L1 CPPC", "L2 CPPC", "L3 CPPC"],
                chain_rows,
            ),
            Table::new(
                format!("MSI sharing sweep ({CORES} CPPC L1s, shared 1MB L2, {ops} ops per level)"),
                &[
                    "sharing",
                    "rbw/store",
                    "dirty-inv",
                    "inval",
                    "L2 miss %",
                    "invariants",
                ],
                sweep.into_iter().map(|point| point.0).collect(),
            ),
        ],
    }
}
