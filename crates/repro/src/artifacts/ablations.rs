//! `ablations` — the design choices the paper argues for, each set
//! against its alternative, one table per section: single- vs
//! dual-ported L1 (§7), early write-back (related work [2, 15]),
//! parity-way scaling (§3.4), register-pair scaling at the L1 and L2
//! points (§4.6/§4.7), a write-through L1 (§1) and in-cache replication
//! (related work [24], §2).

use std::fmt::Display;

use cppc_bench::{mean, EVAL_SEED};
use cppc_cache_sim::cache::Cache;
use cppc_cache_sim::geometry::CacheGeometry;
use cppc_cache_sim::hierarchy::MemOp;
use cppc_cache_sim::memory::MainMemory;
use cppc_cache_sim::replacement::ReplacementPolicy;
use cppc_cache_sim::write_through::WriteThroughCache;
use cppc_core::icr::IcrCache;
use cppc_core::{CppcCache, CppcConfig, SchemeKind};
use cppc_energy::scheme::SchemeEnergy;
use cppc_energy::tech::TechnologyNode;
use cppc_energy::AreaModel;
use cppc_reliability::mttf::{aliasing_vulnerable_bits, mttf_aliasing_years, mttf_cppc_years};
use cppc_reliability::ReliabilityParams;
use cppc_timing::{counts_from_stats, L1Scheme, MachineConfig, PortConfig, TimingModel};
use cppc_workloads::{spec2000_profiles, SharedTrace};

use crate::artifact::{Artifact, ArtifactOutput, MetricValue, RunConfig, Table, Tier, Tolerance};

/// Memory operations per benchmark (timing) and per replayed trace.
const OPS: usize = 300_000;
const OPS_QUICK: usize = 60_000;

/// The `ablations` artifact.
pub fn artifact() -> Artifact {
    Artifact {
        name: "ablations",
        title: "Design ablations — ports, early write-back, parity ways, register pairs, \
                write-through, ICR",
        paper_ref: "§2, §3.4, §4.6–4.7, §7",
        tier: Tier::Fast,
        summary: "Each design choice the paper argues for, set against its alternative. A \
                  single-ported L1 multiplies CPPC's CPI overhead, so the separate read port \
                  and cycle stealing carry the Figure 10 claim. Early write-back lowers dirty \
                  residency only at a steep write-back cost. MTTF scales linearly with parity \
                  ways at a linear area cost, and a few hundred register bits buy orders of \
                  magnitude of aliasing MTTF (eight pairs remove aliasing). A write-through \
                  L1 with plain parity pays about twice the energy of write-back with CPPC, \
                  and in-cache replication pays a higher miss rate for its replicas.",
        config: |cfg| {
            vec![
                ("machine", "Table 1 (32KB/2-way L1D, 1MB/4-way L2)".into()),
                ("ops", cfg.pick(OPS, OPS_QUICK).to_string()),
                ("trace_seed", format!("{EVAL_SEED:#x}")),
                ("technology_node", "32nm".into()),
                ("closed_forms", "paper_l1/paper_l2 inputs".into()),
            ]
        },
        run,
    }
}

/// Applies one trace operation to an L1 model, ignoring what it
/// returns. The ablated caches share method names but no trait.
macro_rules! apply {
    ($cache:expr, $op:expr, $mem:expr) => {
        match $op {
            MemOp::Load(a) => {
                let _ = $cache.load_word(a, $mem);
            }
            MemOp::Store(a, v) => {
                let _ = $cache.store_word(a, v, $mem);
            }
            MemOp::StoreByte(a, v) => {
                let _ = $cache.store_byte(a, v, $mem);
            }
        }
    };
}

/// The Table 1 L1 geometry.
fn l1_geometry() -> CacheGeometry {
    CacheGeometry::new(32 * 1024, 2, 32).expect("L1")
}

/// Average CPI overhead (%) of the CPPC L1 over 1D parity, dual- then
/// single-ported.
fn ports(ops: usize) -> [f64; 2] {
    let model = TimingModel::new(MachineConfig::table1());
    let (mut dual, mut single) = (Vec::new(), Vec::new());
    for (p, run) in super::drives::table1(ops) {
        let cpi = |scheme, ports| {
            model
                .breakdown_with_ports(&p, scheme, ports, ops, run.l1, run.l2)
                .cpi()
        };
        let base = cpi(L1Scheme::OneDimParity, PortConfig::SeparateReadWrite);
        dual.push(cpi(L1Scheme::Cppc, PortConfig::SeparateReadWrite) / base - 1.0);
        single.push(cpi(L1Scheme::Cppc, PortConfig::SinglePorted) / base - 1.0);
    }
    [mean(&dual) * 100.0, mean(&single) * 100.0]
}

/// L1 dirty residency and write-backs under periodic early write-back.
fn early_writeback(trace: &SharedTrace) -> Vec<Vec<String>> {
    let geo = l1_geometry();
    let mut rows = Vec::new();
    for interval in [0usize, 4096, 1024, 256, 64] {
        let mut cache = Cache::new(geo, ReplacementPolicy::Lru);
        let mut mem = MainMemory::new();
        let mut dirty_samples = Vec::new();
        for (i, op) in trace.replay().enumerate() {
            apply!(cache, op, &mut mem);
            if interval > 0 && i % interval == interval - 1 {
                cache.early_writeback(4, &mut mem);
            }
            if i % 1024 == 0 {
                dirty_samples.push(cache.dirty_word_count() as f64 / geo.total_words() as f64);
            }
        }
        rows.push(vec![
            match interval {
                0 => "never".into(),
                n => format!("{n} ops"),
            },
            format!("{:.1}", mean(&dirty_samples) * 100.0),
            cache.stats().writebacks.to_string(),
        ]);
    }
    rows
}

/// Energy (pJ) and L2 writes of write-back + CPPC, then of
/// write-through + parity.
fn write_through(trace: &SharedTrace) -> [(f64, u64); 2] {
    let node = TechnologyNode::Nm32;
    let (mut wb, mut mem_wb) = (
        Cache::new(l1_geometry(), ReplacementPolicy::Lru),
        MainMemory::new(),
    );
    let mut wt = WriteThroughCache::new(l1_geometry(), ReplacementPolicy::Lru);
    let mut mem_wt = MainMemory::new();
    for op in trace.replay() {
        apply!(wb, op, &mut mem_wb);
        apply!(wt, op, &mut mem_wt);
    }
    let l1_pj = |kind, counts| SchemeEnergy::new(32 * 1024, 2, 32, kind, node).total_pj(&counts);
    let [parity, cppc] = [SchemeKind::Parity1d, SchemeKind::Cppc].map(|k| k.descriptor().pricing);
    let l2_write_pj = SchemeEnergy::new(1024 * 1024, 4, 32, parity, node)
        .model()
        .write_energy_pj();
    // Write-back pays the CPPC L1 plus its write-backs into the L2;
    // write-through a parity L1 plus one L2 write per store.
    let (wb_writes, wt_writes) = (wb.stats().writebacks, wt.store_traffic());
    let wb_pj = l1_pj(cppc, counts_from_stats(wb.stats(), 4));
    let wt_pj = l1_pj(parity, counts_from_stats(wt.stats(), 4));
    [
        (wb_pj + wb_writes as f64 * l2_write_pj, wb_writes),
        (wt_pj + wt_writes as f64 * l2_write_pj, wt_writes),
    ]
}

/// ICR at half capacity against a full-capacity CPPC on the same trace:
/// the table rows and the two miss rates (%).
fn icr(trace: &SharedTrace) -> (Vec<Vec<String>>, [f64; 2]) {
    let mut icr = IcrCache::new(l1_geometry(), 8, ReplacementPolicy::Lru);
    let cppc = CppcCache::new_l1(l1_geometry(), CppcConfig::paper(), ReplacementPolicy::Lru);
    let mut cppc = cppc.expect("paper config");
    let (mut mem_icr, mut mem_cppc) = (MainMemory::new(), MainMemory::new());
    for op in trace.replay() {
        apply!(icr, op, &mut mem_icr);
        apply!(cppc, op, &mut mem_cppc);
    }
    let miss = [icr.cache_stats(), cppc.cache_stats()].map(|s| s.miss_rate() * 100.0);
    let rows = vec![
        vec![
            "ICR (half capacity)".into(),
            format!("{:.2}", miss[0]),
            format!("{} replica word writes", icr.stats().replica_writes),
            format!(
                "{} dirty blocks unprotected",
                icr.stats().unprotected_evictions
            ),
        ],
        vec![
            "CPPC (full capacity)".into(),
            format!("{:.2}", miss[1]),
            format!("{} read-before-writes", cppc.stats().read_before_writes),
            "every dirty word protected".into(),
        ],
    ];
    (rows, miss)
}

/// Formats an aliasing MTTF, infinite once the register pairs cover
/// every byte class.
fn alias_years(years: f64) -> String {
    if years.is_infinite() {
        "eliminated".into()
    } else {
        format!("{years:.2e}")
    }
}

/// An `Exact` gate on one closed-form table cell, `<table>.<row>.<column>`.
fn cell(
    table: &str,
    row: impl Display,
    column: &str,
    unit: &'static str,
    value: f64,
) -> MetricValue {
    let doc = format!("Closed-form {column} in row {row} of the {table} scaling table.");
    let name = format!("{table}.{row}.{column}");
    MetricValue::new(name, unit, doc, value, None, Tolerance::Exact)
}

fn run(cfg: &RunConfig) -> ArtifactOutput {
    let ops = cfg.pick(OPS, OPS_QUICK);
    // Each trace is generated once and replayed by every section that
    // needs it (the gcc-like one twice).
    let profiles = spec2000_profiles();
    let gzip = SharedTrace::generate(&profiles[0], EVAL_SEED, ops);
    let gcc = SharedTrace::generate(&profiles[2], EVAL_SEED, ops);

    let [dual, single] = ports(ops);
    let [(wb_pj, wb_writes), (wt_pj, wt_writes)] = write_through(&gzip);
    let (icr_rows, [icr_miss, cppc_miss]) = icr(&gcc);
    let mut metrics = vec![
        MetricValue::new(
            "ports.dual.cppc_cpi_overhead_pct",
            "pct",
            "Average CPI overhead of a dual-ported (separate read port) CPPC L1 over 1D parity.",
            dual,
            None,
            Tolerance::Abs(0.1),
        ),
        MetricValue::new(
            "ports.single.cppc_cpi_overhead_pct",
            "pct",
            "Average CPI overhead of a single-ported CPPC L1, whose read-before-writes \
             compete with loads for the one port.",
            single,
            None,
            Tolerance::Abs(0.25),
        ),
        MetricValue::new(
            "write_through.energy_ratio",
            "ratio",
            "Energy of a write-through parity L1 plus one L2 write per store, over a \
             write-back CPPC L1 plus its write-backs.",
            wt_pj / wb_pj,
            None,
            Tolerance::Rel(0.02),
        ),
        MetricValue::new(
            "icr.miss_rate_ratio",
            "ratio",
            "L1 miss rate of in-cache replication (half the capacity holds replicas) over a \
             full-capacity CPPC on the same trace.",
            icr_miss / cppc_miss,
            None,
            Tolerance::Rel(0.02),
        ),
    ];

    let (l1, l2) = (ReliabilityParams::paper_l1(), ReliabilityParams::paper_l2());
    let mut ways_rows = Vec::new();
    for ways in [1u32, 2, 4, 8] {
        let years = mttf_cppc_years(&l1, ways);
        let area = AreaModel::cppc(32 * 1024, ways, 1, 64).overhead_fraction() * 100.0;
        ways_rows.push(vec![
            ways.to_string(),
            format!("{years:.2e}"),
            format!("{area:.2}%"),
        ]);
        metrics.push(cell("ways", ways, "mttf_years", "years", years));
        metrics.push(cell("ways", ways, "area_pct", "pct", area));
    }

    let l2_bits = |pairs| AreaModel::cppc(1024 * 1024, 8, pairs, 256).overhead_bits();
    let mut pairs_rows = Vec::new();
    for pairs in [1usize, 2, 4, 8] {
        let vulnerable = aliasing_vulnerable_bits(pairs);
        let l1_alias = mttf_aliasing_years(&l1, vulnerable);
        let l1_area = AreaModel::cppc(32 * 1024, 8, pairs, 64).overhead_fraction() * 100.0;
        let l2_alias = mttf_aliasing_years(&l2, vulnerable);
        let l2_extra = l2_bits(pairs) - l2_bits(1);
        pairs_rows.push(vec![
            pairs.to_string(),
            alias_years(l1_alias),
            format!("{l1_area:.2}%"),
            alias_years(l2_alias),
            format!("{l2_extra:+.0}"),
        ]);
        // An eliminated (infinite) aliasing MTTF has no JSON number.
        for (column, unit, value) in [
            ("l1_alias_years", "years", l1_alias),
            ("l1_area_pct", "pct", l1_area),
            ("l2_alias_years", "years", l2_alias),
            ("l2_extra_bits", "bits", l2_extra),
        ] {
            if value.is_finite() {
                metrics.push(cell("pairs", pairs, column, unit, value));
            }
        }
    }

    ArtifactOutput {
        metrics,
        tables: vec![
            Table::new(
                format!("1) Port organisation: average CPPC CPI overhead ({ops} ops per bench)"),
                &["L1 ports", "CPI overhead"],
                vec![
                    vec!["dual-ported (paper)".into(), format!("{dual:+.2}%")],
                    vec!["single-ported".into(), format!("{single:+.2}%")],
                ],
            ),
            Table::new(
                format!("2) Early write-back: dirty residency against traffic (gcc, {ops} ops)"),
                &["scrub every", "dirty %", "writebacks"],
                early_writeback(&gcc),
            ),
            Table::new(
                "3) Parity-way scaling at the L1 point",
                &["ways", "MTTF (y)", "area ovh"],
                ways_rows,
            ),
            Table::new(
                "4) Register-pair scaling at the L1 and L2 points",
                &[
                    "pairs",
                    "L1 alias MTTF (y)",
                    "L1 area ovh",
                    "L2 alias MTTF (y)",
                    "L2 extra bits",
                ],
                pairs_rows,
            ),
            Table::new(
                format!("5) Write-through L1 against write-back CPPC (gzip, {ops} ops)"),
                &["L1", "energy (uJ)", "L2 writes"],
                vec![
                    vec![
                        "write-back + CPPC".into(),
                        format!("{:.1}", wb_pj / 1e6),
                        format!("{wb_writes} write-backs"),
                    ],
                    vec![
                        "write-through + parity".into(),
                        format!("{:.1}", wt_pj / 1e6),
                        format!("{wt_writes} store writes"),
                    ],
                    vec![
                        "write-through / write-back".into(),
                        format!("{:.1}x", wt_pj / wb_pj),
                        "—".into(),
                    ],
                ],
            ),
            Table::new(
                format!("6) In-cache replication against CPPC (gcc, {ops} ops)"),
                &["L1", "miss rate %", "extra work", "dirty data"],
                icr_rows,
            ),
        ],
    }
}
