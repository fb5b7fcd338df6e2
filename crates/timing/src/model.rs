//! The CPI model and per-scheme port-contention terms.

use cppc_cache_sim::batch::OpBatch;
use cppc_cache_sim::hierarchy::{MemOp, TwoLevelHierarchy};
use cppc_cache_sim::replacement::ReplacementPolicy;
use cppc_cache_sim::stats::CacheStats;
use cppc_energy::ProtectionKind;
use cppc_workloads::{BenchmarkProfile, SharedTrace, TraceGenerator};

use crate::config::MachineConfig;

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
    /// L1 statistics from the functional run.
    pub l1_stats: CacheStats,
    /// L2 statistics from the functional run.
    pub l2_stats: CacheStats,
}

impl CpiBreakdown {
    /// The total CPI.
    #[must_use]
    pub fn cpi(&self) -> f64 {
        self.base_cpi + self.memory_cpi + self.contention_cpi
    }
}

/// The timing model: functional simulation + analytical CPI terms.
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

    /// Runs `memops` operations of `profile` (seeded deterministically)
    /// through the hierarchy and returns the CPI breakdown under
    /// `scheme`.
    ///
    /// # Panics
    ///
    /// Panics if the machine's cache geometries are inconsistent.
    #[must_use]
    pub fn simulate(
        &self,
        profile: &BenchmarkProfile,
        scheme: L1Scheme,
        memops: usize,
        seed: u64,
    ) -> CpiBreakdown {
        let _span = crate::obs::SIMULATE.start();
        let l1 = self.machine.l1d.geometry().expect("valid L1 geometry");
        let l2 = self.machine.l2.geometry().expect("valid L2 geometry");
        let mut hierarchy = TwoLevelHierarchy::new(l1, l2, ReplacementPolicy::Lru);
        // Warm up for half the trace, then measure steady state.
        let mut generator = TraceGenerator::new(profile, seed);
        hierarchy.run(generator.by_ref().take(memops / 2));
        hierarchy.reset_stats();
        hierarchy.run(generator.take(memops));
        let (l1_stats, l2_stats) = hierarchy.stats();
        self.breakdown_from_stats(profile, scheme, memops, l1_stats, l2_stats)
    }

    /// Trace-driven variant of [`TimingModel::simulate`]: drives a
    /// pre-recorded [`SharedTrace`] through the hierarchy a pre-decoded
    /// batch at a time
    /// ([`TwoLevelHierarchy::run_batch`](cppc_cache_sim::TwoLevelHierarchy::run_batch)),
    /// so the per-op dispatch overhead amortizes. The first
    /// `memops / 2` operations warm the hierarchy, the next `memops`
    /// are measured — given
    /// `SharedTrace::generate(profile, seed, memops / 2 + memops)` the
    /// breakdown is bit-identical to
    /// `simulate(profile, scheme, memops, seed)` (pinned by tests);
    /// the trace can equally come from disk
    /// ([`SharedTrace::from_binary_file`]).
    ///
    /// # Panics
    ///
    /// Panics if the trace holds fewer than `memops / 2 + memops`
    /// operations or the machine's cache geometries are inconsistent.
    #[must_use]
    pub fn simulate_trace(
        &self,
        profile: &BenchmarkProfile,
        scheme: L1Scheme,
        trace: &SharedTrace,
        memops: usize,
    ) -> CpiBreakdown {
        let _span = crate::obs::SIMULATE.start();
        let warm = memops / 2;
        assert!(
            trace.len() >= warm + memops,
            "trace holds {} ops, need {warm} warm + {memops} measured",
            trace.len()
        );
        let l1 = self.machine.l1d.geometry().expect("valid L1 geometry");
        let l2 = self.machine.l2.geometry().expect("valid L2 geometry");
        let mut hierarchy = TwoLevelHierarchy::new(l1, l2, ReplacementPolicy::Lru);
        let mut batch = OpBatch::with_capacity(cppc_workloads::binfmt::DEFAULT_BATCH_OPS);
        let mut run_span = |hierarchy: &mut TwoLevelHierarchy, ops: &[MemOp]| {
            for chunk in ops.chunks(cppc_workloads::binfmt::DEFAULT_BATCH_OPS) {
                batch.clear();
                batch.extend_from_ops(chunk);
                hierarchy.run_batch(&batch);
            }
        };
        run_span(&mut hierarchy, &trace.ops()[..warm]);
        hierarchy.reset_stats();
        run_span(&mut hierarchy, &trace.ops()[warm..warm + memops]);
        let (l1_stats, l2_stats) = hierarchy.stats();
        self.breakdown_from_stats(profile, scheme, memops, l1_stats, l2_stats)
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
            l1_stats,
            l2_stats,
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

    fn run_all(scheme: L1Scheme) -> Vec<(String, f64)> {
        let model = TimingModel::default();
        spec2000_profiles()
            .iter()
            .map(|p| (p.name.to_string(), model.simulate(p, scheme, OPS, 42).cpi()))
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
        let model = TimingModel::default();
        let profiles = spec2000_profiles();
        let mcf = profiles.iter().find(|p| p.name == "mcf").unwrap();
        let eon = profiles.iter().find(|p| p.name == "eon").unwrap();
        let cpi_mcf = model.simulate(mcf, L1Scheme::OneDimParity, OPS, 1).cpi();
        let cpi_eon = model.simulate(eon, L1Scheme::OneDimParity, OPS, 1).cpi();
        assert!(cpi_mcf > 1.5 * cpi_eon, "{cpi_mcf} vs {cpi_eon}");
    }

    #[test]
    fn breakdown_components_positive() {
        let model = TimingModel::default();
        let p = &spec2000_profiles()[0];
        let b = model.simulate(p, L1Scheme::Cppc, OPS, 3);
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
        let a = model.simulate(p, L1Scheme::TwoDimParity, 20_000, 9).cpi();
        let b = model.simulate(p, L1Scheme::TwoDimParity, 20_000, 9).cpi();
        assert_eq!(a, b);
    }

    #[test]
    fn simulate_trace_matches_generator_drive() {
        // The batched trace drive is the fast path for the same
        // computation simulate() performs — every stat and CPI term
        // must come out bit-identical.
        let model = TimingModel::default();
        for p in &spec2000_profiles()[..4] {
            let trace = SharedTrace::generate(p, 42, 20_000 / 2 + 20_000);
            for scheme in [L1Scheme::Cppc, L1Scheme::TwoDimParity] {
                let direct = model.simulate(p, scheme, 20_000, 42);
                let traced = model.simulate_trace(p, scheme, &trace, 20_000);
                assert_eq!(direct, traced, "{} {scheme:?}", p.name);
            }
        }
    }

    #[test]
    #[should_panic(expected = "trace holds")]
    fn simulate_trace_rejects_short_traces() {
        let model = TimingModel::default();
        let p = &spec2000_profiles()[0];
        let trace = SharedTrace::generate(p, 1, 100);
        let _ = model.simulate_trace(p, L1Scheme::Cppc, &trace, 1_000);
    }

    #[test]
    fn single_ported_costs_more() {
        // §7's ablation: without a separate read port, CPPC's
        // read-before-writes hurt noticeably more.
        let model = TimingModel::default();
        let p = &spec2000_profiles()[0];
        let base = model.simulate(p, L1Scheme::OneDimParity, OPS, 1);
        let dual = model.breakdown_with_ports(
            p,
            L1Scheme::Cppc,
            PortConfig::SeparateReadWrite,
            OPS,
            base.l1_stats,
            base.l2_stats,
        );
        let single = model.breakdown_with_ports(
            p,
            L1Scheme::Cppc,
            PortConfig::SinglePorted,
            OPS,
            base.l1_stats,
            base.l2_stats,
        );
        assert!(single.contention_cpi > 3.0 * dual.contention_cpi);
        // …but still bounded (the events themselves are rare).
        assert!(single.cpi() / base.cpi() < 1.1);
    }
}
