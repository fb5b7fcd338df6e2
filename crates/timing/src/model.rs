//! The CPI model and per-scheme port-contention terms.

use cppc_cache_sim::batch::OpBatch;
use cppc_cache_sim::hierarchy::{MemOp, TwoLevelHierarchy};
use cppc_cache_sim::replacement::ReplacementPolicy;
use cppc_cache_sim::stats::CacheStats;
use cppc_energy::ProtectionKind;
use cppc_workloads::{BenchmarkProfile, TraceGenerator};

use crate::config::MachineConfig;

/// Operations [`TimingModel::drive`] hands the hierarchy per batch.
const DRIVE_BATCH_OPS: usize = 4096;

/// Runs `ops` through `h` in batches of [`DRIVE_BATCH_OPS`], so the
/// hierarchy's shards run in parallel; the result is the bits of
/// stepping them one at a time.
fn drive_batched(h: &mut TwoLevelHierarchy, ops: impl Iterator<Item = MemOp>, batch: &mut OpBatch) {
    let mut ops = ops.peekable();
    while ops.peek().is_some() {
        batch.clear();
        for op in ops.by_ref().take(DRIVE_BATCH_OPS) {
            batch.push(op);
        }
        h.run_batch(batch);
    }
}

/// Fraction of read-port conflicts a store can dodge because the store
/// buffer drains opportunistically (applies to every scheme's
/// read-before-write traffic).
const STORE_BUFFER_SLACK: f64 = 0.35;
/// Additional conflict-avoidance CPPC gets from coordinating the store
/// buffer with the load/store scheduler ("cycle stealing", §3.1).
const CPPC_STEAL_EFFICIENCY: f64 = 0.65;
/// Fraction of residual conflicts that escalate into a speculative-load
/// replay, and the cost of one replay (§3.1's "costly replays").
const REPLAY_FRACTION: f64 = 0.15;
const REPLAY_CYCLES: f64 = 4.0;

/// L1 port organisation (§7: "we will also evaluate single-ported
/// caches and their impact on the read-before-write operations").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PortConfig {
    /// Separate read and write ports (the paper's main assumption,
    /// §3.1: "widespread in modern processors") — read-before-writes
    /// contend only with loads, and CPPC steals idle read cycles.
    #[default]
    SeparateReadWrite,
    /// One shared port: every read-before-write serialises with *all*
    /// other accesses and cycle stealing cannot help.
    SinglePorted,
}

/// The L1 protection scheme's port-traffic class (for the Figure 10
/// comparison). A priced scheme maps onto it through
/// `From<ProtectionKind>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum L1Scheme {
    /// One-dimensional (interleaved) parity — no extra port traffic.
    OneDimParity,
    /// CPPC — read-before-write on stores to dirty words, mitigated by
    /// cycle stealing.
    Cppc,
    /// SECDED — decode off the critical path (§6.1), no port overhead.
    Secded,
    /// Two-dimensional parity — read-before-write on every store and a
    /// full line read on every miss.
    TwoDimParity,
}

impl From<ProtectionKind> for L1Scheme {
    /// The port traffic a priced scheme costs. The SECDED-class kinds
    /// (interleaved or not, silent-write-aware, on-die) all decode off
    /// the critical path (§6.1) and add none.
    fn from(kind: ProtectionKind) -> Self {
        match kind {
            ProtectionKind::OneDimParity { .. } => L1Scheme::OneDimParity,
            ProtectionKind::Cppc { .. } => L1Scheme::Cppc,
            ProtectionKind::TwoDimParity { .. } => L1Scheme::TwoDimParity,
            ProtectionKind::Secded { .. }
            | ProtectionKind::SilentWriteEcc
            | ProtectionKind::OnDieEcc => L1Scheme::Secded,
        }
    }
}

/// What one [`TimingModel::drive`] of the Table 1 hierarchy measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunResult {
    /// L1 statistics of the measured window.
    pub l1: CacheStats,
    /// L2 statistics of the measured window.
    pub l2: CacheStats,
    /// Mean fraction of dirty L1 words.
    pub l1_dirty_fraction: f64,
    /// Mean fraction of dirty L2 words.
    pub l2_dirty_fraction: f64,
    /// Mean cycles between accesses to the same dirty L1 word.
    pub l1_tavg: Option<f64>,
    /// Mean cycles between accesses to the same dirty L2 block.
    pub l2_tavg: Option<f64>,
}

/// CPI decomposition for one benchmark run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpiBreakdown {
    /// Instructions represented by the trace.
    pub instructions: f64,
    /// Base (ILP-limited, memory-ideal) CPI.
    pub base_cpi: f64,
    /// Cycles per instruction stalled on cache/memory misses.
    pub memory_cpi: f64,
    /// Cycles per instruction lost to protection-scheme port contention.
    pub contention_cpi: f64,
}

impl CpiBreakdown {
    /// The total CPI.
    #[must_use]
    pub fn cpi(&self) -> f64 {
        self.base_cpi + self.memory_cpi + self.contention_cpi
    }
}

/// The timing model: one functional drive, then analytical CPI terms
/// per scheme.
#[derive(Debug, Clone, Copy)]
pub struct TimingModel {
    machine: MachineConfig,
}

impl TimingModel {
    /// Creates the model for a machine.
    #[must_use]
    pub fn new(machine: MachineConfig) -> Self {
        TimingModel { machine }
    }

    /// The machine being modelled.
    #[must_use]
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// Drives `memops` operations of `profile` (seeded
    /// deterministically) through the machine's two-level hierarchy
    /// after a warm-up of `memops / 2`, and returns what the measured
    /// window recorded. Every scheme sees the same access stream, so
    /// one drive feeds every [`TimingModel::breakdown_from_stats`].
    ///
    /// The clock advances the profile's instructions per memory
    /// operation (rounded, at least 1) per op, so `Tavg` comes out in
    /// cycles at an assumed CPI of 1; dirty residency is sampled every
    /// 2048 ops. Neither moves a hit, miss or fill counter.
    ///
    /// # Panics
    ///
    /// Panics if the machine's cache geometries are inconsistent.
    #[must_use]
    pub fn drive(&self, profile: &BenchmarkProfile, memops: usize, seed: u64) -> RunResult {
        let _span = crate::obs::SIMULATE.start();
        let l1 = self.machine.l1d.geometry().expect("valid L1 geometry");
        let l2 = self.machine.l2.geometry().expect("valid L2 geometry");
        let mut h = TwoLevelHierarchy::new(l1, l2, ReplacementPolicy::Lru);
        h.set_cycles_per_op(profile.instructions_per_memop().round().max(1.0) as u64);
        h.set_sample_interval(2048);
        // Warm up for half the window, then measure steady state: the
        // paper's 100M-instruction Simpoints amortise compulsory misses
        // that would otherwise dominate a short synthetic trace.
        let mut generator = TraceGenerator::new(profile, seed);
        let mut batch = OpBatch::with_capacity(DRIVE_BATCH_OPS);
        drive_batched(&mut h, generator.by_ref().take(memops / 2), &mut batch);
        h.reset_stats();
        drive_batched(&mut h, generator.take(memops), &mut batch);
        let (l1, l2) = h.stats();
        RunResult {
            l1,
            l2,
            l1_dirty_fraction: h.l1_dirty_fraction(),
            l2_dirty_fraction: h.l2_dirty_fraction(),
            l1_tavg: h.l1_tavg(),
            l2_tavg: h.l2_tavg(),
        }
    }

    /// Computes the CPI breakdown from already-collected statistics
    /// (lets several schemes share one functional run — they see the
    /// same access stream). Uses the dual-ported L1 of Table 1.
    #[must_use]
    pub fn breakdown_from_stats(
        &self,
        profile: &BenchmarkProfile,
        scheme: L1Scheme,
        memops: usize,
        l1_stats: CacheStats,
        l2_stats: CacheStats,
    ) -> CpiBreakdown {
        self.breakdown_with_ports(
            profile,
            scheme,
            PortConfig::SeparateReadWrite,
            memops,
            l1_stats,
            l2_stats,
        )
    }

    /// [`TimingModel::breakdown_from_stats`] with an explicit port
    /// organisation — the §7 single-ported ablation.
    #[must_use]
    pub fn breakdown_with_ports(
        &self,
        profile: &BenchmarkProfile,
        scheme: L1Scheme,
        ports: PortConfig,
        memops: usize,
        l1_stats: CacheStats,
        l2_stats: CacheStats,
    ) -> CpiBreakdown {
        let instructions = memops as f64 * profile.instructions_per_memop();

        // Memory stall component: L1 misses pay the L2 latency; L2
        // misses pay DRAM, partially hidden by MLP/OoO overlap.
        let m = &self.machine;
        let l1_miss_cycles = l1_stats.misses() as f64 * f64::from(m.l2.latency_cycles);
        let l2_miss_cycles =
            l2_stats.misses() as f64 * f64::from(m.memory_latency_cycles) * (1.0 - m.mlp_overlap);
        let memory_cpi = (l1_miss_cycles + l2_miss_cycles) / instructions;

        let base_cpi = profile.base_cpi.max(1.0 / f64::from(m.issue_width));

        // Port contention: conflicts arise when a read-before-write
        // needs the read port in a cycle a load wants it. The chance is
        // proportional to port utilisation; a single-ported array
        // serialises against every access and cannot cycle-steal.
        let provisional_cycles = instructions * (base_cpi + memory_cpi);
        let port_util = match ports {
            PortConfig::SeparateReadWrite => {
                (l1_stats.loads() as f64 / provisional_cycles).min(1.0)
            }
            PortConfig::SinglePorted => (l1_stats.accesses() as f64 / provisional_cycles).min(1.0),
        };
        let conflict_cycles = |events: f64, steal: f64| -> f64 {
            let steal = match ports {
                PortConfig::SeparateReadWrite => steal,
                PortConfig::SinglePorted => 0.0,
            };
            let slack = match ports {
                PortConfig::SeparateReadWrite => STORE_BUFFER_SLACK,
                PortConfig::SinglePorted => 1.0,
            };
            let conflicts = events * port_util * slack * (1.0 - steal);
            conflicts * (1.0 + REPLAY_FRACTION * REPLAY_CYCLES)
        };
        let wpb = (m.l1d.block_bytes / 8) as f64;
        let contention = match scheme {
            L1Scheme::OneDimParity | L1Scheme::Secded => 0.0,
            L1Scheme::Cppc => {
                conflict_cycles(l1_stats.stores_to_dirty as f64, CPPC_STEAL_EFFICIENCY)
            }
            L1Scheme::TwoDimParity => {
                // every store + the whole old line on every fill
                conflict_cycles(l1_stats.stores() as f64, 0.0)
                    + conflict_cycles(l1_stats.fills as f64 * wpb, 0.0)
            }
        };
        crate::obs::publish_breakdown(
            instructions,
            instructions * base_cpi,
            l1_miss_cycles,
            l2_miss_cycles,
            contention,
        );
        CpiBreakdown {
            instructions,
            base_cpi,
            memory_cpi,
            contention_cpi: contention / instructions,
        }
    }
}

impl Default for TimingModel {
    fn default() -> Self {
        TimingModel::new(MachineConfig::table1())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cppc_workloads::spec2000_profiles;

    const OPS: usize = 60_000;

    #[test]
    fn every_protection_kind_maps_to_its_port_traffic_class() {
        for (kind, class) in [
            (
                ProtectionKind::OneDimParity { ways: 8 },
                L1Scheme::OneDimParity,
            ),
            (ProtectionKind::Cppc { ways: 4 }, L1Scheme::Cppc),
            (
                ProtectionKind::TwoDimParity { ways: 8 },
                L1Scheme::TwoDimParity,
            ),
            (
                ProtectionKind::Secded { interleaved: true },
                L1Scheme::Secded,
            ),
            (
                ProtectionKind::Secded { interleaved: false },
                L1Scheme::Secded,
            ),
            // The two SECDED-class fallbacks: timed as plain SECDED.
            (ProtectionKind::SilentWriteEcc, L1Scheme::Secded),
            (ProtectionKind::OnDieEcc, L1Scheme::Secded),
        ] {
            assert_eq!(L1Scheme::from(kind), class, "{kind:?}");
        }
    }

    /// CPI of `scheme` over one drive of `p`.
    fn cpi(p: &BenchmarkProfile, scheme: L1Scheme, ops: usize, seed: u64) -> f64 {
        let model = TimingModel::default();
        let run = model.drive(p, ops, seed);
        model
            .breakdown_from_stats(p, scheme, ops, run.l1, run.l2)
            .cpi()
    }

    fn run_all(scheme: L1Scheme) -> Vec<(String, f64)> {
        spec2000_profiles()
            .iter()
            .map(|p| (p.name.to_string(), cpi(p, scheme, OPS, 42)))
            .collect()
    }

    #[test]
    fn parity_and_secded_identical() {
        assert_eq!(run_all(L1Scheme::OneDimParity), run_all(L1Scheme::Secded));
    }

    #[test]
    fn figure_10_shape() {
        // CPPC overhead tiny (avg well under 1%, max ≤ ~2%); 2D parity
        // noticeably larger; ordering parity ≤ CPPC < 2D per benchmark.
        let base = run_all(L1Scheme::OneDimParity);
        let cppc = run_all(L1Scheme::Cppc);
        let twodim = run_all(L1Scheme::TwoDimParity);
        let mut cppc_overheads = Vec::new();
        let mut twodim_overheads = Vec::new();
        for ((name, b), ((_, c), (_, t))) in base.iter().zip(cppc.iter().zip(twodim.iter())) {
            let oc = c / b - 1.0;
            let ot = t / b - 1.0;
            assert!(oc >= 0.0 && ot >= oc, "{name}: {oc} vs {ot}");
            cppc_overheads.push(oc);
            twodim_overheads.push(ot);
        }
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let max = |v: &[f64]| v.iter().cloned().fold(0.0, f64::max);
        let (ac, at) = (avg(&cppc_overheads), avg(&twodim_overheads));
        assert!(ac < 0.01, "CPPC avg overhead {ac} (paper: 0.3%)");
        assert!(
            max(&cppc_overheads) < 0.025,
            "CPPC max {:?}",
            max(&cppc_overheads)
        );
        assert!(at > ac * 2.0, "2D parity clearly worse: {at} vs {ac}");
        assert!(at < 0.10, "2D avg overhead {at} (paper: 1.7%)");
    }

    #[test]
    fn memory_bound_benchmarks_have_higher_cpi() {
        let profiles = spec2000_profiles();
        let mcf = profiles.iter().find(|p| p.name == "mcf").unwrap();
        let eon = profiles.iter().find(|p| p.name == "eon").unwrap();
        let cpi_mcf = cpi(mcf, L1Scheme::OneDimParity, OPS, 1);
        let cpi_eon = cpi(eon, L1Scheme::OneDimParity, OPS, 1);
        assert!(cpi_mcf > 1.5 * cpi_eon, "{cpi_mcf} vs {cpi_eon}");
    }

    #[test]
    fn breakdown_components_positive() {
        let model = TimingModel::default();
        let p = &spec2000_profiles()[0];
        let run = model.drive(p, OPS, 3);
        let b = model.breakdown_from_stats(p, L1Scheme::Cppc, OPS, run.l1, run.l2);
        assert!(b.base_cpi > 0.0);
        assert!(b.memory_cpi >= 0.0);
        assert!(b.contention_cpi >= 0.0);
        assert!((b.cpi() - (b.base_cpi + b.memory_cpi + b.contention_cpi)).abs() < 1e-12);
        assert!(b.instructions > OPS as f64);
    }

    #[test]
    fn deterministic() {
        let model = TimingModel::default();
        let p = &spec2000_profiles()[5];
        assert_eq!(model.drive(p, 20_000, 9), model.drive(p, 20_000, 9));
    }

    #[test]
    fn drive_measures_the_window_and_its_residency() {
        let model = TimingModel::default();
        let p = &spec2000_profiles()[0];
        let r = model.drive(p, 20_000, 1);
        assert_eq!(r.l1.accesses(), 20_000, "warm-up ops are not counted");
        assert!(r.l1_dirty_fraction > 0.0);
        assert!(r.l1_tavg.is_some());
    }

    #[test]
    fn single_ported_costs_more() {
        // §7's ablation: without a separate read port, CPPC's
        // read-before-writes hurt noticeably more.
        let model = TimingModel::default();
        let p = &spec2000_profiles()[0];
        let run = model.drive(p, OPS, 1);
        let with_ports =
            |ports| model.breakdown_with_ports(p, L1Scheme::Cppc, ports, OPS, run.l1, run.l2);
        let dual = with_ports(PortConfig::SeparateReadWrite);
        let single = with_ports(PortConfig::SinglePorted);
        assert!(single.contention_cpi > 3.0 * dual.contention_cpi);
        // …but still bounded (the events themselves are rare).
        let base = model.breakdown_from_stats(p, L1Scheme::OneDimParity, OPS, run.l1, run.l2);
        assert!(single.cpi() / base.cpi() < 1.1);
    }
}
