//! A structural, cycle-counting pipeline model — the detailed
//! cross-check of the closed-form CPI model in [`crate::model`].
//!
//! Where the analytical model prices read-before-write conflicts with a
//! constant utilisation × slack factor, this model tracks the actual
//! machine state op by op: a store buffer of bounded depth draining
//! into the write port, read-before-write drains competing with loads
//! for the read port, idle read-port slots accumulating between memory
//! operations (the §3.1 "cycle stealing" supply), and speculative-load
//! replays when a conflict slips through. Everything is deterministic —
//! conflicts escalate to replays on a fixed modulus rather than a coin
//! flip — so results are exactly reproducible.

use cppc_cache_sim::geometry::CacheGeometry;
use cppc_cache_sim::hierarchy::{Level, MemOp, TwoLevelHierarchy};
use cppc_cache_sim::replacement::ReplacementPolicy;
use cppc_workloads::{BenchmarkProfile, TraceGenerator};

use crate::config::MachineConfig;
use crate::model::L1Scheme;

/// Cycle breakdown from a pipeline run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineResult {
    /// Total simulated cycles.
    pub cycles: f64,
    /// Instructions represented by the trace.
    pub instructions: f64,
    /// Cycles lost waiting for cache misses.
    pub miss_stall_cycles: f64,
    /// Cycles loads lost to read-port conflicts with read-before-writes.
    pub conflict_cycles: f64,
    /// Cycles lost to speculative-load replays.
    pub replay_cycles: f64,
    /// Cycles lost to a full store buffer.
    pub store_buffer_stall_cycles: f64,
    /// Read-before-write drains that found a stolen (idle) read slot.
    pub stolen_slots: u64,
    /// Drains that collided with a load.
    pub conflicts: u64,
}

impl PipelineResult {
    /// Cycles per instruction.
    #[must_use]
    pub fn cpi(&self) -> f64 {
        self.cycles / self.instructions
    }
}

/// The structural pipeline model.
#[derive(Debug, Clone, Copy)]
pub struct PipelineModel {
    machine: MachineConfig,
    store_buffer_depth: u32,
    replay_modulus: u64,
    replay_cycles: f64,
}

impl PipelineModel {
    /// Creates the model. The store buffer depth follows the LSQ budget
    /// (half the Table 1 LSQ); every `replay_modulus`-th conflict
    /// escalates to a 4-cycle replay (§3.1's "costly replays").
    #[must_use]
    pub fn new(machine: MachineConfig) -> Self {
        PipelineModel {
            machine,
            store_buffer_depth: machine.lsq_size / 2,
            replay_modulus: 7,
            replay_cycles: 4.0,
        }
    }

    /// Runs `memops` operations of `profile` under `scheme`, counting
    /// cycles structurally.
    ///
    /// # Panics
    ///
    /// Panics if the machine's geometries are invalid.
    #[must_use]
    pub fn simulate(
        &self,
        profile: &BenchmarkProfile,
        scheme: L1Scheme,
        memops: usize,
        seed: u64,
    ) -> PipelineResult {
        let l1_geo: CacheGeometry = self.machine.l1d.geometry().expect("valid L1");
        let l2_geo: CacheGeometry = self.machine.l2.geometry().expect("valid L2");
        let mut hierarchy = TwoLevelHierarchy::new(l1_geo, l2_geo, ReplacementPolicy::Lru);

        // Warm-up half the trace.
        let mut generator = TraceGenerator::new(profile, seed);
        hierarchy.run(generator.by_ref().take(memops / 2));

        let wpb = l1_geo.words_per_block() as f64;
        let mean_gap = profile.instructions_per_memop() * profile.base_cpi;
        let m = &self.machine;

        let mut result = PipelineResult {
            cycles: 0.0,
            instructions: memops as f64 * profile.instructions_per_memop(),
            miss_stall_cycles: 0.0,
            conflict_cycles: 0.0,
            replay_cycles: 0.0,
            store_buffer_stall_cycles: 0.0,
            stolen_slots: 0,
            conflicts: 0,
        };

        // Machine state. Time is `result.cycles`; the read port is
        // modelled as a "free from" timestamp for *eager* readers (2D
        // parity's uncoordinated read-before-writes), while CPPC's
        // coordinated drains consume a bounded supply of recently idle
        // read slots (the §3.1 cycle-stealing window).
        const IDLE_SLOT_CAP: f64 = 3.0;
        let mut idle_read_slots = 0.0f64;
        let mut pending_rbw = 0.0f64;
        let mut store_buffer = 0.0f64;
        let mut conflict_counter = 0u64;
        let mut read_port_free_at = 0.0f64;

        for (i, op) in generator.take(memops).enumerate() {
            // Bursty issue: a deterministic hash spreads gaps over
            // {0, 1, 2, 3} x mean/1.5, so back-to-back memory ops occur
            // (they are what create port conflicts) while the average
            // matches the profile's non-memory ILP.
            let burst = (i as u64).wrapping_mul(2_654_435_761) >> 7 & 3;
            let gap_cycles = mean_gap * burst as f64 / 1.5;
            result.cycles += gap_cycles;
            store_buffer = (store_buffer - gap_cycles).max(0.0);
            idle_read_slots = (idle_read_slots + gap_cycles).min(IDLE_SLOT_CAP);

            // Classify the access functionally *before* timing it.
            let addr = op.addr();
            let l1_hit = hierarchy.holds(Level::L1, addr);
            let was_dirty = hierarchy.is_word_dirty(Level::L1, addr);
            let l2_hit = l1_hit || hierarchy.holds(Level::L2, addr);
            hierarchy.step(op);

            // Scheme-specific read-before-write demand. CPPC's drains
            // are *coordinated*: they wait for idle read slots. 2D
            // parity's are *eager*: the read port is seized immediately
            // (one cycle per store, a whole line per fill).
            match scheme {
                L1Scheme::Cppc if op.is_store() && was_dirty && l1_hit => {
                    pending_rbw += 1.0;
                }
                L1Scheme::TwoDimParity => {
                    let mut hold = 0.0;
                    if op.is_store() {
                        hold += 1.0;
                    }
                    if !l1_hit {
                        hold += wpb; // the old line is read on every fill
                    }
                    if hold > 0.0 {
                        read_port_free_at = result.cycles.max(read_port_free_at) + hold;
                    }
                }
                _ => {}
            }

            // Serve coordinated drains from the stolen-slot supply.
            let served = pending_rbw.min(idle_read_slots);
            pending_rbw -= served;
            idle_read_slots -= served;
            result.stolen_slots += served as u64;

            result.cycles += 1.0; // issue slot of the memory op
            match op {
                MemOp::Load(_) => {
                    // An eager reader (2D parity) still holding the read
                    // port delays this load directly.
                    if result.cycles < read_port_free_at {
                        let wait = read_port_free_at - result.cycles;
                        result.conflicts += 1;
                        result.conflict_cycles += wait;
                        result.cycles = read_port_free_at;
                        conflict_counter += 1;
                        if conflict_counter.is_multiple_of(self.replay_modulus) {
                            result.replay_cycles += self.replay_cycles;
                            result.cycles += self.replay_cycles;
                        }
                    }
                    // A coordinated (CPPC) drain still pending collides.
                    if pending_rbw >= 1.0 {
                        pending_rbw -= 1.0;
                        result.conflicts += 1;
                        result.conflict_cycles += 1.0;
                        result.cycles += 1.0;
                        conflict_counter += 1;
                        if conflict_counter.is_multiple_of(self.replay_modulus) {
                            result.replay_cycles += self.replay_cycles;
                            result.cycles += self.replay_cycles;
                        }
                    }
                    if !l1_hit {
                        let stall = if l2_hit {
                            f64::from(m.l2.latency_cycles)
                        } else {
                            f64::from(m.l2.latency_cycles)
                                + f64::from(m.memory_latency_cycles) * (1.0 - m.mlp_overlap)
                        };
                        result.miss_stall_cycles += stall;
                        result.cycles += stall;
                        // A long stall is a drain bonanza.
                        store_buffer = (store_buffer - stall).max(0.0);
                        idle_read_slots = (idle_read_slots + stall).min(f64::from(m.lsq_size));
                    }
                }
                MemOp::Store(..) | MemOp::StoreByte(..) => {
                    store_buffer += 1.0;
                    if store_buffer > f64::from(self.store_buffer_depth) {
                        let stall = store_buffer - f64::from(self.store_buffer_depth);
                        result.store_buffer_stall_cycles += stall;
                        result.cycles += stall;
                        store_buffer = f64::from(self.store_buffer_depth);
                    }
                    if !l1_hit {
                        // Write-allocate fill latency, partially hidden.
                        let stall = if l2_hit {
                            f64::from(m.l2.latency_cycles) * 0.5
                        } else {
                            (f64::from(m.l2.latency_cycles)
                                + f64::from(m.memory_latency_cycles) * (1.0 - m.mlp_overlap))
                                * 0.5
                        };
                        result.miss_stall_cycles += stall;
                        result.cycles += stall;
                    }
                }
            }
        }
        result
    }
}

impl Default for PipelineModel {
    fn default() -> Self {
        PipelineModel::new(MachineConfig::table1())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cppc_workloads::spec2000_profiles;

    const OPS: usize = 50_000;

    fn overheads(scheme: L1Scheme) -> Vec<f64> {
        let model = PipelineModel::default();
        spec2000_profiles()
            .iter()
            .map(|p| {
                let base = model.simulate(p, L1Scheme::OneDimParity, OPS, 5);
                let with = model.simulate(p, scheme, OPS, 5);
                with.cpi() / base.cpi() - 1.0
            })
            .collect()
    }

    #[test]
    fn deterministic() {
        let model = PipelineModel::default();
        let p = &spec2000_profiles()[1];
        let a = model.simulate(p, L1Scheme::Cppc, 20_000, 3);
        let b = model.simulate(p, L1Scheme::Cppc, 20_000, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn parity_has_no_rbw_activity() {
        let model = PipelineModel::default();
        let p = &spec2000_profiles()[0];
        let r = model.simulate(p, L1Scheme::OneDimParity, OPS, 1);
        assert_eq!(r.conflicts, 0);
        assert_eq!(r.conflict_cycles, 0.0);
        assert_eq!(r.replay_cycles, 0.0);
    }

    #[test]
    fn structural_model_confirms_figure10_shape() {
        // The independent structural model must reproduce the analytical
        // model's conclusion: CPPC's CPI overhead tiny, 2D parity's
        // several times larger.
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let cppc = mean(&overheads(L1Scheme::Cppc));
        let twodim = mean(&overheads(L1Scheme::TwoDimParity));
        assert!(
            (0.0..0.015).contains(&cppc),
            "CPPC structural overhead {cppc}"
        );
        assert!(twodim > 2.0 * cppc, "2D {twodim} vs CPPC {cppc}");
        assert!(twodim < 0.12, "2D structural overhead {twodim}");
    }

    #[test]
    fn cycle_stealing_serves_most_drains() {
        // §3.1's claim, structurally: the idle-slot supply absorbs the
        // vast majority of CPPC's read-before-writes.
        let model = PipelineModel::default();
        let p = &spec2000_profiles()[0]; // store-hot gzip
        let r = model.simulate(p, L1Scheme::Cppc, OPS, 2);
        let total = r.stolen_slots + r.conflicts;
        assert!(total > 0, "rbw activity expected");
        let stolen_frac = r.stolen_slots as f64 / total as f64;
        assert!(stolen_frac > 0.8, "stolen fraction {stolen_frac}");
    }

    #[test]
    fn two_dim_suffers_more_conflicts_than_cppc() {
        let model = PipelineModel::default();
        let p = &spec2000_profiles()[6]; // eon, store-heavy
        let cppc = model.simulate(p, L1Scheme::Cppc, OPS, 3);
        let twodim = model.simulate(p, L1Scheme::TwoDimParity, OPS, 3);
        assert!(twodim.conflicts > 2 * cppc.conflicts);
    }

    #[test]
    fn memory_bound_profiles_have_high_cpi() {
        let model = PipelineModel::default();
        let profiles = spec2000_profiles();
        let mcf = profiles.iter().find(|p| p.name == "mcf").unwrap();
        let eon = profiles.iter().find(|p| p.name == "eon").unwrap();
        let c_mcf = model.simulate(mcf, L1Scheme::OneDimParity, OPS, 4).cpi();
        let c_eon = model.simulate(eon, L1Scheme::OneDimParity, OPS, 4).cpi();
        assert!(c_mcf > 2.0 * c_eon, "{c_mcf} vs {c_eon}");
    }

    #[test]
    fn breakdown_adds_up_loosely() {
        let model = PipelineModel::default();
        let p = &spec2000_profiles()[2];
        let r = model.simulate(p, L1Scheme::TwoDimParity, OPS, 6);
        let accounted =
            r.miss_stall_cycles + r.conflict_cycles + r.replay_cycles + r.store_buffer_stall_cycles;
        assert!(accounted < r.cycles, "stalls are a subset of cycles");
        assert!(r.cpi() > 0.3);
    }
}
