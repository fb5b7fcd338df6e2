//! Per-configuration evaluation: one [`SweepConfig`] in, one
//! [`ConfigPoint`] out.
//!
//! Each configuration is scored on the four explorer objectives, all
//! read from one model class, `SweepConfig::pricing`:
//!
//! * **MTTF (years)** from the closed-form models of
//!   `cppc_reliability::mttf`, with the paper's L1 parameters rescaled
//!   to the config's capacity. Scrubbing caps the double-fault
//!   vulnerability window (`Tavg`) at the scrub interval for schemes
//!   whose failure mode is a second fault in the same domain; parity's
//!   first-fault-fatal MTTF is unaffected (scrubbing detects, it cannot
//!   correct).
//! * **Energy ratio** — dynamic pJ over the workload window, divided by
//!   a one-dimensional-parity cache of the same geometry running the
//!   same window without scrubbing. Scrub passes add one read per block
//!   per pass plus writebacks for the dirty fraction.
//! * **CPI inflation %** — the port-contention timing model, again
//!   normalised to same-geometry 1D parity; scrubbing inflates CPI by
//!   the scrub traffic's share of the interval.
//! * **Area overhead %** — the scheme's storage overhead from
//!   `cppc_energy::area`.
//!
//! Alongside the analytical models, every configuration runs a
//! fault-injection campaign (`scheme_experiment` over a 4x4 spatial
//! strike) whose outcome tally is carried into the document — the
//! empirical cross-check on the closed-form MTTF ordering.
//!
//! Evaluation is a pure function of (spec, config, geometry baseline):
//! no clocks, no global state, so the sweep driver can run configs on
//! any number of threads and still produce identical bytes.

use crate::spec::{SweepConfig, SweepSpec};
use cppc_bench::experiments::scheme_experiment;
use cppc_campaign::json::Json;
use cppc_campaign::{CampaignConfig, Persist};
use cppc_core::SchemeKind;
use cppc_energy::{AreaModel, ProtectionKind, SchemeEnergy, TechnologyNode};
use cppc_fault::campaign::OutcomeTally;
use cppc_fault::model::FaultModel;
use cppc_reliability::mttf::{
    mttf_cppc_years, mttf_domain_double_fault_years, mttf_one_dim_parity_years, mttf_secded_years,
    ReliabilityParams,
};
use cppc_timing::{counts_from_stats, CacheLevelConfig, MachineConfig, RunResult, TimingModel};
use cppc_workloads::{spec2000_profiles, BenchmarkProfile};

/// Seed of the workload trace every configuration shares.
const WORKLOAD_SEED: u64 = 42;

/// Campaign shard size: small enough that even quick-tier configs span
/// several shards (exercising the deterministic reduction).
const CAMPAIGN_SHARD: u64 = 16;

/// The spatial strike injected by every campaign trial (the paper's
/// 4x4 worst-case footprint).
const FAULT: FaultModel = FaultModel::SpatialSquare {
    rows: 4,
    cols: 4,
    density: 1.0,
};

fn profile_for(spec: &SweepSpec) -> Result<BenchmarkProfile, String> {
    spec2000_profiles()
        .into_iter()
        .find(|p| p.name == spec.benchmark)
        .ok_or_else(|| format!("unknown benchmark profile '{}'", spec.benchmark))
}

fn machine_for(cache_kib: u32, associativity: u32, block_bytes: u32) -> MachineConfig {
    let mut machine = MachineConfig::table1();
    machine.l1d = CacheLevelConfig {
        size_bytes: cache_kib as usize * 1024,
        associativity: associativity as usize,
        block_bytes: block_bytes as usize,
        latency_cycles: 2,
    };
    // The hierarchy refills whole blocks, so both levels must agree on
    // the block size; sweeping the L1 block drags the L2's along.
    machine.l2.block_bytes = block_bytes as usize;
    machine
}

/// Drives the shared functional workload at one geometry.
///
/// All schemes at a geometry see the same access stream, so the
/// (expensive) drive runs once per distinct size × associativity ×
/// block triple and its statistics feed every scheme's analytical
/// breakdown.
///
/// # Errors
///
/// Returns a message if the spec names an unknown benchmark profile.
pub fn baseline(
    spec: &SweepSpec,
    cache_kib: u32,
    associativity: u32,
    block_bytes: u32,
) -> Result<RunResult, String> {
    let profile = profile_for(spec)?;
    let model = TimingModel::new(machine_for(cache_kib, associativity, block_bytes));
    Ok(model.drive(&profile, spec.workload_ops, WORKLOAD_SEED))
}

/// Closed-form MTTF (years) of a cache priced as `kind` with the
/// reliability parameters `p`.
///
/// Each kind maps to its protection domain: 1D parity dies on the first
/// dirty fault; CPPC's domain is `1/ways` of the dirty data; the
/// word-SECDED codes (interleaved or not: interleaving changes which
/// *spatial* strikes decompose, not the temporal double-fault domain)
/// protect 64-bit codewords; 2D parity's single vertical row makes the
/// whole dirty array one domain. A scrub every `scrub_interval` cycles
/// caps the window in which a *second* fault can accumulate in the same
/// domain; detection-only parity's first fault is fatal, scrubbed or
/// not.
#[must_use]
pub fn mttf_years(kind: ProtectionKind, p: &ReliabilityParams, scrub_interval: Option<u64>) -> f64 {
    let mut scrubbed = *p;
    if let Some(iv) = scrub_interval {
        scrubbed.tavg_cycles = p.tavg_cycles.min(iv as f64);
    }
    match kind {
        ProtectionKind::Cppc { ways } => mttf_cppc_years(&scrubbed, ways),
        ProtectionKind::OneDimParity { .. } => mttf_one_dim_parity_years(p),
        ProtectionKind::TwoDimParity { .. } => {
            mttf_domain_double_fault_years(&scrubbed, p.dirty_bits())
        }
        ProtectionKind::Secded { .. }
        | ProtectionKind::SilentWriteEcc
        | ProtectionKind::OnDieEcc => mttf_secded_years(&scrubbed, 64.0),
    }
}

/// One fully evaluated configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigPoint {
    /// The grid point.
    pub config: SweepConfig,
    /// Stable digest of (config, spec identity) — the checkpoint key
    /// and campaign-seed salt.
    pub digest: u64,
    /// MTTF in years (maximize).
    pub mttf_years: f64,
    /// Dynamic energy over the window, normalised to same-geometry 1D
    /// parity without scrubbing (minimize; parity1d/scrub-none is
    /// exactly 1.0 by construction).
    pub energy_ratio: f64,
    /// CPI inflation over the same baseline, percent (minimize).
    pub cpi_inflation_pct: f64,
    /// Storage overhead of the code bits, percent (minimize).
    pub area_overhead_pct: f64,
    /// Fault-injection outcome tally (empirical cross-check).
    pub tally: OutcomeTally,
}

impl ConfigPoint {
    /// The objective vector in [`crate::pareto::MAXIMIZE`] order.
    #[must_use]
    pub fn objectives(&self) -> Vec<f64> {
        vec![
            self.mttf_years,
            self.energy_ratio,
            self.cpi_inflation_pct,
            self.area_overhead_pct,
        ]
    }

    /// Serialises the point (float fields carry both a decimal and an
    /// exact bit-pattern form, the convention of the repro documents).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let c = &self.config;
        let scrub = match c.scrub_interval {
            None => Json::Null,
            Some(iv) => Json::UInt(iv),
        };
        Json::Obj(vec![
            ("label".to_string(), Json::Str(c.label())),
            ("scheme".to_string(), Json::Str(c.scheme.name().to_string())),
            ("cache_kib".to_string(), Json::UInt(u64::from(c.cache_kib))),
            (
                "associativity".to_string(),
                Json::UInt(u64::from(c.associativity)),
            ),
            (
                "block_bytes".to_string(),
                Json::UInt(u64::from(c.block_bytes)),
            ),
            ("k".to_string(), Json::UInt(u64::from(c.parity_k))),
            ("scrub_interval".to_string(), scrub),
            (
                "digest".to_string(),
                Json::Str(format!("{:016x}", self.digest)),
            ),
            ("mttf_years".to_string(), Json::Num(self.mttf_years)),
            (
                "mttf_years_bits".to_string(),
                Json::from_f64_bits(self.mttf_years),
            ),
            ("energy_ratio".to_string(), Json::Num(self.energy_ratio)),
            (
                "energy_ratio_bits".to_string(),
                Json::from_f64_bits(self.energy_ratio),
            ),
            (
                "cpi_inflation_pct".to_string(),
                Json::Num(self.cpi_inflation_pct),
            ),
            (
                "cpi_inflation_pct_bits".to_string(),
                Json::from_f64_bits(self.cpi_inflation_pct),
            ),
            (
                "area_overhead_pct".to_string(),
                Json::Num(self.area_overhead_pct),
            ),
            (
                "area_overhead_pct_bits".to_string(),
                Json::from_f64_bits(self.area_overhead_pct),
            ),
            ("tally".to_string(), self.tally.to_json()),
        ])
    }

    /// Rebuilds a point from [`ConfigPoint::to_json`] output (the
    /// checkpoint loader). Returns `None` on any shape mismatch.
    #[must_use]
    pub fn from_json(v: &Json) -> Option<ConfigPoint> {
        let scheme = SchemeKind::parse(v.get("scheme")?.as_str()?).ok()?;
        let scrub_interval = match v.get("scrub_interval")? {
            Json::Null => None,
            other => Some(other.as_u64()?),
        };
        let config = SweepConfig {
            scheme,
            cache_kib: u32::try_from(v.get("cache_kib")?.as_u64()?).ok()?,
            associativity: u32::try_from(v.get("associativity")?.as_u64()?).ok()?,
            block_bytes: u32::try_from(v.get("block_bytes")?.as_u64()?).ok()?,
            parity_k: u32::try_from(v.get("k")?.as_u64()?).ok()?,
            scrub_interval,
        };
        Some(ConfigPoint {
            config,
            digest: u64::from_str_radix(v.get("digest")?.as_str()?, 16).ok()?,
            mttf_years: v.get("mttf_years_bits")?.as_f64_bits()?,
            energy_ratio: v.get("energy_ratio_bits")?.as_f64_bits()?,
            cpi_inflation_pct: v.get("cpi_inflation_pct_bits")?.as_f64_bits()?,
            area_overhead_pct: v.get("area_overhead_pct_bits")?.as_f64_bits()?,
            tally: OutcomeTally::from_json(v.get("tally")?)?,
        })
    }
}

/// Evaluates one configuration against the shared geometry baseline.
///
/// # Errors
///
/// Returns a message if the spec names an unknown benchmark profile.
pub fn evaluate(
    spec: &SweepSpec,
    cfg: &SweepConfig,
    base: &RunResult,
) -> Result<ConfigPoint, String> {
    let profile = profile_for(spec)?;
    let model = TimingModel::new(machine_for(
        cfg.cache_kib,
        cfg.associativity,
        cfg.block_bytes,
    ));
    let memops = spec.workload_ops;
    let size = cfg.size_bytes();
    // One model class feeds all four objectives; the baseline is 1D
    // parity at its paper configuration.
    let kind = cfg.pricing();
    let parity = SchemeKind::Parity1d.descriptor().pricing;
    // The paper's L1 reliability parameters, rescaled to the capacity.
    let mut reliability = ReliabilityParams::paper_l1();
    reliability.total_bits = size as f64 * 8.0;
    let cpi_of = |kind: ProtectionKind| {
        model.breakdown_from_stats(&profile, kind.into(), memops, base.l1, base.l2)
    };

    // CPI, normalised to same-geometry 1D parity (no scrubbing).
    let b = cpi_of(kind);
    let parity_b = cpi_of(parity);
    let blocks = (size / cfg.block_bytes as usize) as f64;
    let dirty_fraction = reliability.dirty_fraction;
    // One scrub pass per interval touches every block (read) and
    // rewrites the dirty ones; its CPI cost is that traffic amortised
    // over the interval.
    let scrub_overhead = cfg
        .scrub_interval
        .map_or(0.0, |iv| blocks * (1.0 + dirty_fraction) / iv as f64);
    let cpi = b.cpi() * (1.0 + scrub_overhead);
    let cpi_inflation_pct = (cpi / parity_b.cpi() - 1.0) * 100.0;

    // Energy over the measured window, normalised to same-geometry 1D
    // parity without scrubbing.
    let words_per_line = cfg.block_bytes / 8;
    let base_counts = counts_from_stats(&base.l1, words_per_line);
    let mut counts = base_counts;
    if let Some(iv) = cfg.scrub_interval {
        let window_cycles = b.instructions * cpi;
        let passes = window_cycles / iv as f64;
        let scrub_reads = (passes * blocks).round() as u64;
        let scrub_writes = (passes * blocks * dirty_fraction).round() as u64;
        counts.reads += scrub_reads;
        counts.writes += scrub_writes;
    }
    let (assoc, block) = (cfg.associativity as usize, cfg.block_bytes as usize);
    let energy = |kind| SchemeEnergy::new(size, assoc, block, kind, TechnologyNode::Nm32);
    let energy_ratio = energy(kind).total_pj(&counts) / energy(parity).total_pj(&base_counts);

    // Empirical cross-check: the fault-injection campaign, seeded from
    // the config digest so every config draws an independent but
    // reproducible trial stream.
    let digest = cfg.digest(spec);
    let campaign = CampaignConfig::new(spec.campaign_seed ^ digest, spec.trials)
        .shard_size(CAMPAIGN_SHARD)
        .threads(1);
    let tally: OutcomeTally = cppc_campaign::run(
        &campaign,
        scheme_experiment(cfg.scheme, cfg.cppc_config(), FAULT),
    )
    .result;

    Ok(ConfigPoint {
        config: *cfg,
        digest,
        mttf_years: mttf_years(kind, &reliability, cfg.scrub_interval),
        energy_ratio,
        cpi_inflation_pct,
        area_overhead_pct: AreaModel::of(kind, size).overhead_fraction() * 100.0,
        tally,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> SweepSpec {
        let mut spec = SweepSpec::quick_tier();
        spec.tier = "custom".to_string();
        spec.trials = 8;
        spec.workload_ops = 4_000;
        spec
    }

    fn point_for(cfg: SweepConfig) -> ConfigPoint {
        let spec = tiny_spec();
        let base = baseline(&spec, cfg.cache_kib, cfg.associativity, cfg.block_bytes).unwrap();
        evaluate(&spec, &cfg, &base).unwrap()
    }

    #[test]
    fn parity_baseline_is_the_unit_point() {
        let p = point_for(SweepConfig {
            scheme: SchemeKind::Parity1d,
            cache_kib: 8,
            associativity: 2,
            block_bytes: 32,
            parity_k: 8,
            scrub_interval: None,
        });
        assert!((p.energy_ratio - 1.0).abs() < 1e-12, "{}", p.energy_ratio);
        assert!(p.cpi_inflation_pct.abs() < 1e-12, "{}", p.cpi_inflation_pct);
        assert_eq!(p.tally.total(), 8);
    }

    #[test]
    fn cppc_beats_parity_on_mttf_and_costs_more_area() {
        let cppc = point_for(SweepConfig {
            scheme: SchemeKind::Cppc,
            cache_kib: 8,
            associativity: 2,
            block_bytes: 32,
            parity_k: 8,
            scrub_interval: None,
        });
        let parity = point_for(SweepConfig {
            scheme: SchemeKind::Parity1d,
            cache_kib: 8,
            associativity: 2,
            block_bytes: 32,
            parity_k: 8,
            scrub_interval: None,
        });
        assert!(cppc.mttf_years > parity.mttf_years * 100.0);
        assert!(cppc.area_overhead_pct > parity.area_overhead_pct);
        assert!(cppc.energy_ratio > 1.0);
    }

    #[test]
    fn scrubbing_raises_cppc_mttf_and_energy() {
        let base_cfg = SweepConfig {
            scheme: SchemeKind::Cppc,
            cache_kib: 8,
            associativity: 2,
            block_bytes: 32,
            parity_k: 8,
            scrub_interval: None,
        };
        let plain = point_for(base_cfg);
        let scrubbed = point_for(SweepConfig {
            // Shorter than Tavg (1828 cycles), so the window shrinks.
            scrub_interval: Some(1_000),
            ..base_cfg
        });
        assert!(scrubbed.mttf_years > plain.mttf_years);
        assert!(scrubbed.energy_ratio > plain.energy_ratio);
        assert!(scrubbed.cpi_inflation_pct > plain.cpi_inflation_pct);
        // Scrubbing cannot save detection-only parity.
        let parity_scrubbed = point_for(SweepConfig {
            scheme: SchemeKind::Parity1d,
            scrub_interval: Some(1_000),
            ..base_cfg
        });
        let parity_plain = point_for(SweepConfig {
            scheme: SchemeKind::Parity1d,
            ..base_cfg
        });
        assert!((parity_scrubbed.mttf_years - parity_plain.mttf_years).abs() < 1e-12);
    }

    #[test]
    fn evaluation_is_deterministic() {
        let cfg = SweepConfig {
            scheme: SchemeKind::Parity2d,
            cache_kib: 8,
            associativity: 2,
            block_bytes: 32,
            parity_k: 8,
            scrub_interval: Some(200_000),
        };
        let a = point_for(cfg);
        let b = point_for(cfg);
        assert_eq!(a, b);
        assert_eq!(
            a.to_json().to_string_compact(),
            b.to_json().to_string_compact()
        );
    }

    #[test]
    fn point_json_roundtrips() {
        let p = point_for(SweepConfig {
            scheme: SchemeKind::SecdedInterleaved,
            cache_kib: 8,
            associativity: 2,
            block_bytes: 32,
            parity_k: 8,
            scrub_interval: Some(200_000),
        });
        let back = ConfigPoint::from_json(&p.to_json()).unwrap();
        assert_eq!(p, back);
    }
}
