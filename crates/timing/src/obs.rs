//! Global observability for the timing model.
//!
//! Every CPI breakdown publishes its stall-cause cycle components into
//! the process-wide `cppc-obs` registry, so `cppc-cli stats` can show
//! where modelled time went (base issue, L1 miss, L2 miss, protection
//! port conflicts) across a whole run.

cppc_obs::metrics! {
    group TIMING_METRICS: "timing", "Timing model: stall-cause cycle breakdown, accumulated over every CPI evaluation.";
    counter INSTRUCTIONS: "timing.instructions", "instructions", "Instructions covered by CPI breakdowns.";
    counter BASE_CYCLES: "timing.base_cycles", "cycles", "Cycles spent at the core's base (no-stall) CPI.";
    counter L1_MISS_STALL: "timing.l1_miss_stall_cycles", "cycles", "Stall cycles paying the L2 latency on L1 misses.";
    counter L2_MISS_STALL: "timing.l2_miss_stall_cycles", "cycles", "Stall cycles paying DRAM latency on L2 misses (after MLP overlap).";
    counter PORT_CONFLICT_CYCLES: "timing.port_conflict_cycles", "cycles", "Cycles lost to protection-scheme L1 port conflicts (incl. replays).";
    counter BREAKDOWNS: "timing.breakdowns", "events", "CPI breakdowns computed.";
    timer SIMULATE: "timing.simulate.ns", "ns", "Wall time of each drive (warmup + measure).";
}

/// Registers the timing metric group (idempotent).
pub fn register_metrics() {
    TIMING_METRICS.register();
}

/// Publishes one breakdown's stall components (cycle values are
/// fractional in the model; rounded to whole cycles here).
pub(crate) fn publish_breakdown(
    instructions: f64,
    base_cycles: f64,
    l1_miss_cycles: f64,
    l2_miss_cycles: f64,
    contention_cycles: f64,
) {
    register_metrics();
    BREAKDOWNS.inc();
    INSTRUCTIONS.add(instructions.round() as u64);
    BASE_CYCLES.add(base_cycles.round() as u64);
    L1_MISS_STALL.add(l1_miss_cycles.round() as u64);
    L2_MISS_STALL.add(l2_miss_cycles.round() as u64);
    PORT_CONFLICT_CYCLES.add(contention_cycles.round() as u64);
}
