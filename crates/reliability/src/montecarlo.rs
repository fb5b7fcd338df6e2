//! Monte Carlo validation of the analytical MTTF model.
//!
//! Table 3 is computed from the PARMA-style closed form (see
//! [`crate::mttf`]). This module validates that formula empirically: it
//! simulates the underlying stochastic process — Poisson fault arrivals
//! over the dirty bits, uniformly assigned to protection domains, with
//! failure declared when two faults land in the same domain within the
//! scrubbing window `Tavg` — and estimates the MTTF as the mean time to
//! failure.
//!
//! Real SEU rates (0.001 FIT/bit) produce MTTFs of 10²¹ years, which no
//! simulation can reach directly; instead the validation runs at
//! *accelerated* rates where both the simulation and the formula are
//! tractable, and relies on the model's `1/λ²` scaling to carry the
//! result back — the standard accelerated-testing argument (the paper's
//! own reference \[1\] does physical accelerated testing with neutron
//! beams).
//!
//! Trials run through the [`cppc_campaign`] engine with one RNG stream
//! per trial, so the estimate is bit-identical at any thread count and
//! campaigns can be checkpointed and resumed.

use cppc_campaign::json::Json;
use cppc_campaign::rng::rngs::StdRng;
use cppc_campaign::rng::RngExt;
use cppc_campaign::{Accumulator, CampaignConfig, Persist};

use crate::fit::HOURS_PER_YEAR;

/// Configuration of one accelerated Monte Carlo run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonteCarloConfig {
    /// Total fault rate over the protected (dirty) bits, per hour.
    pub faults_per_hour: f64,
    /// Number of equal-size protection domains (8 for the paper's CPPC;
    /// `dirty_bits / 64` for word SECDED).
    pub domains: usize,
    /// The vulnerability window: a second fault in the same domain
    /// within this many hours of the first is a failure.
    pub tavg_hours: f64,
    /// Independent trials to average over.
    pub trials: u32,
}

/// The result of a Monte Carlo estimation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonteCarloResult {
    /// Mean time to failure, hours.
    pub mttf_hours: f64,
    /// Standard error of the mean, hours.
    pub std_error_hours: f64,
    /// Mean number of faults absorbed before the failing pair.
    pub mean_faults_to_failure: f64,
}

impl MonteCarloResult {
    /// MTTF in years.
    #[must_use]
    pub fn mttf_years(&self) -> f64 {
        self.mttf_hours / HOURS_PER_YEAR
    }
}

/// One simulated trial: time to failure and faults absorbed on the way.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialSample {
    /// Hours until the double-fault failure.
    pub time_hours: f64,
    /// Faults absorbed up to and including the failing one.
    pub faults: u64,
}

/// Running sums of the Monte Carlo estimator — the engine accumulator.
///
/// Sums are accumulated per shard and merged in ascending shard order,
/// which fixes the floating-point summation tree independently of the
/// executing thread count.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MonteCarloAccumulator {
    /// Number of trials summed.
    pub n: u64,
    /// Σ time-to-failure (hours).
    pub sum_t: f64,
    /// Σ time-to-failure² (hours²).
    pub sum_t2: f64,
    /// Σ faults absorbed.
    pub total_faults: u64,
}

impl MonteCarloAccumulator {
    /// Folds the sums into the final estimate.
    #[must_use]
    pub fn finish(&self) -> MonteCarloResult {
        let n = self.n as f64;
        let mean = self.sum_t / n;
        // Sum-of-squares variance; tolerable conditioning at the trial
        // counts (≤ 1e6) and spreads (CV ~ 1) this estimator sees.
        let var = (self.sum_t2 - n * mean * mean).max(0.0) / (n - 1.0).max(1.0);
        MonteCarloResult {
            mttf_hours: mean,
            std_error_hours: (var / n).sqrt(),
            mean_faults_to_failure: self.total_faults as f64 / n,
        }
    }
}

impl Accumulator for MonteCarloAccumulator {
    type Item = TrialSample;

    fn record(&mut self, _trial: u64, sample: TrialSample) {
        self.n += 1;
        self.sum_t += sample.time_hours;
        self.sum_t2 += sample.time_hours * sample.time_hours;
        self.total_faults += sample.faults;
    }

    fn merge(&mut self, other: Self) {
        self.n += other.n;
        self.sum_t += other.sum_t;
        self.sum_t2 += other.sum_t2;
        self.total_faults += other.total_faults;
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![("Trials", self.n), ("Faults", self.total_faults)]
    }
}

impl Persist for MonteCarloAccumulator {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("n".into(), Json::UInt(self.n)),
            ("sum_t".into(), Json::from_f64_bits(self.sum_t)),
            ("sum_t2".into(), Json::from_f64_bits(self.sum_t2)),
            ("total_faults".into(), Json::UInt(self.total_faults)),
        ])
    }

    fn from_json(value: &Json) -> Option<Self> {
        Some(MonteCarloAccumulator {
            n: value.get("n")?.as_u64()?,
            sum_t: value.get("sum_t")?.as_f64_bits()?,
            sum_t2: value.get("sum_t2")?.as_f64_bits()?,
            total_faults: value.get("total_faults")?.as_u64()?,
        })
    }
}

/// The analytical prediction for the same process (no AVF —
/// this is raw time-to-double-fault): `1 / (λ_total · λ_domain · Tavg)`.
#[must_use]
pub fn analytic_mttf_hours(cfg: &MonteCarloConfig) -> f64 {
    let lambda_domain = cfg.faults_per_hour / cfg.domains as f64;
    1.0 / (cfg.faults_per_hour * lambda_domain * cfg.tavg_hours)
}

/// Simulates one trial of the double-fault process on its own RNG
/// stream. This is the experiment body handed to the campaign engine.
#[must_use]
pub fn simulate_trial(cfg: &MonteCarloConfig, rng: &mut StdRng) -> TrialSample {
    let mut last_fault = Vec::new();
    simulate_trial_into(cfg, rng, &mut last_fault)
}

/// Buffer-reuse form of [`simulate_trial`]: `last_fault` is reset and
/// reused as the per-domain last-arrival table, so a worker thread
/// running millions of trials allocates it once. Draws from `rng` in
/// exactly the same order as [`simulate_trial`].
#[must_use]
pub fn simulate_trial_into(
    cfg: &MonteCarloConfig,
    rng: &mut StdRng,
    last_fault: &mut Vec<f64>,
) -> TrialSample {
    let mut t = 0.0f64;
    last_fault.clear();
    last_fault.resize(cfg.domains, f64::NEG_INFINITY);
    let mut faults = 0u64;
    loop {
        // Exponential inter-arrival via inverse CDF.
        let u: f64 = rng.random();
        t += -u.max(f64::MIN_POSITIVE).ln() / cfg.faults_per_hour;
        faults += 1;
        let domain = rng.random_range(0..cfg.domains);
        if t - last_fault[domain] < cfg.tavg_hours {
            return TrialSample {
                time_hours: t,
                faults,
            };
        }
        last_fault[domain] = t;
    }
}

fn validate(cfg: &MonteCarloConfig) {
    assert!(cfg.faults_per_hour > 0.0, "rate must be positive");
    assert!(cfg.domains > 0, "need domains");
    assert!(cfg.tavg_hours > 0.0, "window must be positive");
    assert!(cfg.trials > 0, "need trials");
}

/// The engine configuration for this estimation — entry point for
/// checkpointed runs via [`cppc_campaign::run_with`].
#[must_use]
pub fn campaign_config(cfg: &MonteCarloConfig, seed: u64) -> CampaignConfig {
    CampaignConfig::new(seed, u64::from(cfg.trials))
}

/// Runs the accelerated simulation on a single thread.
///
/// # Panics
///
/// Panics if any parameter is non-positive.
#[must_use]
pub fn simulate_double_fault_mttf(cfg: &MonteCarloConfig, seed: u64) -> MonteCarloResult {
    simulate_double_fault_mttf_parallel(cfg, seed, 1)
}

/// Runs the accelerated simulation across `threads` workers (0 = all
/// CPUs). Bit-identical to the single-threaded estimate at any thread
/// count.
///
/// # Panics
///
/// Panics if any parameter is non-positive.
#[must_use]
pub fn simulate_double_fault_mttf_parallel(
    cfg: &MonteCarloConfig,
    seed: u64,
    threads: usize,
) -> MonteCarloResult {
    validate(cfg);
    let engine_cfg = campaign_config(cfg, seed).threads(threads);
    std::thread_local! {
        /// Per-worker last-arrival table, reused across every trial the
        /// thread runs (the hot loop is allocation-free in steady state).
        static LAST_FAULT: std::cell::RefCell<Vec<f64>> =
            const { std::cell::RefCell::new(Vec::new()) };
    }
    cppc_campaign::run::<MonteCarloAccumulator, _>(&engine_cfg, |rng, _trial| {
        LAST_FAULT.with(|scratch| simulate_trial_into(cfg, rng, &mut scratch.borrow_mut()))
    })
    .result
    .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(domains: usize, rate: f64, tavg: f64) -> MonteCarloConfig {
        MonteCarloConfig {
            faults_per_hour: rate,
            domains,
            tavg_hours: tavg,
            trials: 4000,
        }
    }

    #[test]
    fn matches_analytic_model_single_domain() {
        // Keep lambda*Tavg small: the closed form is a first-order
        // approximation, exact only in the rare-event limit.
        let c = cfg(1, 10.0, 0.001);
        let mc = simulate_double_fault_mttf(&c, 1);
        let analytic = analytic_mttf_hours(&c);
        let err = (mc.mttf_hours - analytic).abs() / analytic;
        assert!(
            err < 0.10,
            "MC {} vs analytic {analytic} ({err:.2} rel)",
            mc.mttf_hours
        );
    }

    #[test]
    fn matches_analytic_model_eight_domains() {
        // The CPPC configuration: 8 protection domains.
        let c = cfg(8, 50.0, 0.0005);
        let mc = simulate_double_fault_mttf(&c, 2);
        let analytic = analytic_mttf_hours(&c);
        let err = (mc.mttf_hours - analytic).abs() / analytic;
        assert!(
            err < 0.10,
            "MC {} vs analytic {analytic} ({err:.2} rel)",
            mc.mttf_hours
        );
    }

    #[test]
    fn more_domains_live_longer() {
        // §3.4: splitting the protection domain scales reliability.
        let one = simulate_double_fault_mttf(&cfg(1, 20.0, 0.005), 3);
        let eight = simulate_double_fault_mttf(&cfg(8, 20.0, 0.005), 3);
        let ratio = eight.mttf_hours / one.mttf_hours;
        assert!((6.0..10.5).contains(&ratio), "ratio {ratio} (expected ~8)");
    }

    #[test]
    fn shorter_window_lives_longer() {
        let slow = simulate_double_fault_mttf(&cfg(4, 20.0, 0.01), 4);
        let fast = simulate_double_fault_mttf(&cfg(4, 20.0, 0.001), 4);
        let ratio = fast.mttf_hours / slow.mttf_hours;
        assert!((7.0..13.5).contains(&ratio), "ratio {ratio} (expected ~10)");
    }

    #[test]
    fn inverse_square_rate_scaling() {
        // The accelerated-testing extrapolation law: MTTF ∝ 1/λ².
        let base = simulate_double_fault_mttf(&cfg(4, 10.0, 0.004), 5);
        let double = simulate_double_fault_mttf(&cfg(4, 20.0, 0.004), 5);
        let ratio = base.mttf_hours / double.mttf_hours;
        assert!((3.2..4.9).contains(&ratio), "ratio {ratio} (expected ~4)");
    }

    #[test]
    fn analytic_model_overestimates_outside_rare_event_regime() {
        // Documenting the approximation's limit: at lambda*Tavg ~ 0.1
        // per domain the closed form undershoots the simulated MTTF by
        // several percent — irrelevant at real SEU rates where
        // lambda*Tavg ~ 1e-18.
        let c = cfg(1, 10.0, 0.01);
        let mc = simulate_double_fault_mttf(&c, 1);
        let analytic = analytic_mttf_hours(&c);
        let rel = (mc.mttf_hours - analytic) / analytic;
        assert!((0.0..0.3).contains(&rel), "relative deviation {rel}");
    }

    #[test]
    fn deterministic_given_seed() {
        let c = cfg(2, 30.0, 0.003);
        let a = simulate_double_fault_mttf(&c, 9);
        let b = simulate_double_fault_mttf(&c, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn bit_identical_at_any_thread_count() {
        let c = cfg(4, 25.0, 0.002);
        let one = simulate_double_fault_mttf_parallel(&c, 11, 1);
        for threads in [2, 8] {
            let par = simulate_double_fault_mttf_parallel(&c, 11, threads);
            assert_eq!(one, par, "diverged at {threads} threads");
        }
    }

    #[test]
    fn statistics_are_sane() {
        let r = simulate_double_fault_mttf(&cfg(2, 30.0, 0.003), 10);
        assert!(r.std_error_hours > 0.0);
        assert!(r.std_error_hours < r.mttf_hours);
        assert!(r.mean_faults_to_failure > 1.0);
        assert!(r.mttf_years() < r.mttf_hours);
    }

    #[test]
    fn accumulator_persist_roundtrip() {
        let mut acc = MonteCarloAccumulator::default();
        Accumulator::record(
            &mut acc,
            0,
            TrialSample {
                time_hours: 1.5,
                faults: 3,
            },
        );
        Accumulator::record(
            &mut acc,
            1,
            TrialSample {
                time_hours: 0.25,
                faults: 2,
            },
        );
        let restored = MonteCarloAccumulator::from_json(&acc.to_json()).unwrap();
        assert_eq!(acc, restored);
        assert_eq!(acc.sum_t.to_bits(), restored.sum_t.to_bits());
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_panics() {
        let _ = simulate_double_fault_mttf(
            &MonteCarloConfig {
                faults_per_hour: 0.0,
                domains: 1,
                tavg_hours: 1.0,
                trials: 1,
            },
            0,
        );
    }
}
