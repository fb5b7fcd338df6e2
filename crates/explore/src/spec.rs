//! Sweep specification: the knob grid a sweep enumerates.
//!
//! A [`SweepSpec`] is a cross product over protection scheme, cache
//! geometry (size × associativity × block size), the CPPC parity
//! interleave factor *k* and an optional scrub interval, plus the
//! campaign/workload parameters every configuration shares. The *k*
//! axis only multiplies CPPC configurations — the other schemes carry
//! their canonical 8-way interleave — so the grid stays honest about
//! which knobs each scheme actually has.
//!
//! Every enumerated [`SweepConfig`] has a stable human label
//! (`cppc/32KiB/2w/32B/k8/scrub-none`) and a stable FNV-1a digest mixed
//! from that label and the spec identity (campaign seed, trials,
//! workload). The digest keys per-config checkpoints and salts the
//! per-config campaign seed, which is what makes sweeps byte-identical
//! at any thread count and resumable across runs.

use cppc_core::{CppcConfig, SchemeKind};
use cppc_energy::ProtectionKind;

/// Scrub intervals of the quick tier (cycles).
const QUICK_SCRUB: u64 = 200_000;

/// One point of the sweep grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepConfig {
    /// Protection scheme under test.
    pub scheme: SchemeKind,
    /// L1 data-cache capacity in KiB.
    pub cache_kib: u32,
    /// L1 associativity (ways).
    pub associativity: u32,
    /// L1 block size in bytes.
    pub block_bytes: u32,
    /// Parity interleave factor. Swept for CPPC; fixed at the canonical
    /// 8 for every other scheme (their codes are 8-way interleaved or
    /// word-granular regardless).
    pub parity_k: u32,
    /// Scrub interval in cycles (`None` = no scrubbing).
    pub scrub_interval: Option<u64>,
}

impl SweepConfig {
    /// Cache capacity in bytes.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.cache_kib as usize * 1024
    }

    /// The stable human-readable label, e.g.
    /// `cppc/32KiB/2w/32B/k8/scrub-none`.
    #[must_use]
    pub fn label(&self) -> String {
        let scrub = match self.scrub_interval {
            None => "scrub-none".to_string(),
            Some(iv) => format!("scrub-{iv}"),
        };
        format!(
            "{}/{}KiB/{}w/{}B/k{}/{}",
            self.scheme.name(),
            self.cache_kib,
            self.associativity,
            self.block_bytes,
            self.parity_k,
            scrub
        )
    }

    /// The model class every objective prices this config as: the
    /// scheme's paper configuration, with CPPC's parity array scaled to
    /// the swept interleave factor.
    #[must_use]
    pub(crate) fn pricing(&self) -> ProtectionKind {
        match self.scheme.descriptor().pricing {
            ProtectionKind::Cppc { .. } => ProtectionKind::Cppc {
                ways: self.parity_k,
            },
            paper => paper,
        }
    }

    /// The CPPC parameterisation this config implies: `parity_k`-way
    /// interleave, one register pair, byte shifting whenever the
    /// interleave supports it (k = 8). Non-CPPC schemes ignore this.
    #[must_use]
    pub fn cppc_config(&self) -> CppcConfig {
        CppcConfig {
            parity_ways: self.parity_k,
            register_pairs: 1,
            byte_shifting: self.parity_k == 8,
        }
    }

    /// Stable 64-bit FNV-1a digest of this config under `spec`: hashes
    /// the label plus everything in the spec that changes a point's
    /// value (campaign seed, trials, benchmark, workload length).
    /// Include/exclude filters deliberately do **not** participate, so
    /// a filtered partial sweep writes checkpoints a later full sweep
    /// can reuse.
    #[must_use]
    pub fn digest(&self, spec: &SweepSpec) -> u64 {
        let mut acc = fnv_str(0xCBF2_9CE4_8422_2325, &self.label());
        acc = fnv_u64(acc, spec.campaign_seed);
        acc = fnv_u64(acc, spec.trials);
        acc = fnv_u64(acc, spec.workload_ops as u64);
        fnv_str(acc, &spec.benchmark)
    }
}

fn fnv_u64(mut acc: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        acc ^= u64::from(b);
        acc = acc.wrapping_mul(0x1000_0000_01B3);
    }
    acc
}

fn fnv_str(mut acc: u64, s: &str) -> u64 {
    for b in s.bytes() {
        acc ^= u64::from(b);
        acc = acc.wrapping_mul(0x1000_0000_01B3);
    }
    acc
}

/// The full grid a sweep enumerates, plus shared campaign and workload
/// parameters and optional label filters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepSpec {
    /// Tier name ("quick", "full", or "custom") — names the output
    /// document `explore_<tier>.json`.
    pub tier: String,
    /// Schemes to sweep.
    pub schemes: Vec<SchemeKind>,
    /// Cache capacities in KiB.
    pub cache_kib: Vec<u32>,
    /// Associativities.
    pub associativity: Vec<u32>,
    /// Block sizes in bytes.
    pub block_bytes: Vec<u32>,
    /// CPPC interleave factors (each must divide 64).
    pub interleave_k: Vec<u32>,
    /// Scrub intervals in cycles (`None` = no scrubbing).
    pub scrub_intervals: Vec<Option<u64>>,
    /// Fault-injection trials per configuration.
    pub trials: u64,
    /// Base campaign seed (salted per config by the digest).
    pub campaign_seed: u64,
    /// Memory operations of the timing/energy workload window.
    pub workload_ops: usize,
    /// SPEC2000 benchmark profile driving the workload.
    pub benchmark: String,
    /// Keep only configs whose label contains at least one of these
    /// substrings (empty = keep all).
    pub include: Vec<String>,
    /// Drop configs whose label contains any of these substrings.
    pub exclude: Vec<String>,
}

impl SweepSpec {
    /// The CI tier: a 28-config subsample (2 sizes × 2 k values ×
    /// 2 scrub settings across all six schemes) sized so
    /// `cppc-cli explore --quick --check` stays a smoke-test.
    #[must_use]
    pub fn quick_tier() -> Self {
        SweepSpec {
            tier: "quick".to_string(),
            schemes: SchemeKind::ALL.to_vec(),
            cache_kib: vec![8, 32],
            associativity: vec![2],
            block_bytes: vec![32],
            interleave_k: vec![1, 8],
            scrub_intervals: vec![None, Some(QUICK_SCRUB)],
            trials: 48,
            campaign_seed: 0xE87A,
            workload_ops: 40_000,
            benchmark: "gcc".to_string(),
            include: Vec::new(),
            exclude: Vec::new(),
        }
    }

    /// The full design-space grid: 432 configurations.
    #[must_use]
    pub fn full_tier() -> Self {
        SweepSpec {
            tier: "full".to_string(),
            schemes: SchemeKind::ALL.to_vec(),
            cache_kib: vec![8, 16, 32, 64],
            associativity: vec![2, 4],
            block_bytes: vec![32, 64],
            interleave_k: vec![1, 2, 4, 8],
            scrub_intervals: vec![None, Some(100_000), Some(1_000_000)],
            trials: 240,
            campaign_seed: 0xE87A,
            workload_ops: 120_000,
            benchmark: "gcc".to_string(),
            include: Vec::new(),
            exclude: Vec::new(),
        }
    }

    /// Validates the grid axes.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending axis: empty axes, zero
    /// trials, interleave factors that do not divide 64, or geometry
    /// dimensions that are not powers of two.
    pub fn validate(&self) -> Result<(), String> {
        let non_empty: &[(&str, bool)] = &[
            ("schemes", self.schemes.is_empty()),
            ("cache_kib", self.cache_kib.is_empty()),
            ("associativity", self.associativity.is_empty()),
            ("block_bytes", self.block_bytes.is_empty()),
            ("interleave_k", self.interleave_k.is_empty()),
            ("scrub_intervals", self.scrub_intervals.is_empty()),
        ];
        for (name, empty) in non_empty {
            if *empty {
                return Err(format!("sweep axis '{name}' is empty"));
            }
        }
        if self.trials == 0 {
            return Err("trials must be >= 1".to_string());
        }
        if self.workload_ops == 0 {
            return Err("workload_ops must be >= 1".to_string());
        }
        for &k in &self.interleave_k {
            if k == 0 || 64 % k != 0 {
                return Err(format!("interleave factor {k} does not divide 64"));
            }
        }
        for &iv in self.scrub_intervals.iter().flatten() {
            if iv == 0 {
                return Err("scrub interval must be >= 1 cycle".to_string());
            }
        }
        for &kib in &self.cache_kib {
            if kib == 0 || !kib.is_power_of_two() {
                return Err(format!("cache size {kib} KiB is not a power of two"));
            }
        }
        for &w in &self.associativity {
            if w == 0 || !w.is_power_of_two() {
                return Err(format!("associativity {w} is not a power of two"));
            }
        }
        for &b in &self.block_bytes {
            if b < 8 || !b.is_power_of_two() {
                return Err(format!("block size {b} B is not a power of two >= 8"));
            }
        }
        Ok(())
    }

    /// Does `label` pass the include/exclude filters?
    #[must_use]
    pub fn matches_filters(&self, label: &str) -> bool {
        let included =
            self.include.is_empty() || self.include.iter().any(|s| label.contains(s.as_str()));
        included && !self.exclude.iter().any(|s| label.contains(s.as_str()))
    }

    /// Enumerates the grid in a fixed order (scheme, size,
    /// associativity, block, k, scrub) and applies the filters. The
    /// *k* axis expands for CPPC only; every other scheme gets one
    /// config per geometry × scrub point at the canonical k = 8.
    #[must_use]
    pub fn enumerate(&self) -> Vec<SweepConfig> {
        let mut out = Vec::new();
        for &scheme in &self.schemes {
            let ks: &[u32] = if scheme == SchemeKind::Cppc {
                &self.interleave_k
            } else {
                &[8]
            };
            for &cache_kib in &self.cache_kib {
                for &associativity in &self.associativity {
                    for &block_bytes in &self.block_bytes {
                        for &parity_k in ks {
                            for &scrub_interval in &self.scrub_intervals {
                                let cfg = SweepConfig {
                                    scheme,
                                    cache_kib,
                                    associativity,
                                    block_bytes,
                                    parity_k,
                                    scrub_interval,
                                };
                                if self.matches_filters(&cfg.label()) {
                                    out.push(cfg);
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn quick_tier_enumerates_28_configs() {
        let spec = SweepSpec::quick_tier();
        spec.validate().unwrap();
        let configs = spec.enumerate();
        // CPPC: 2 sizes x 2 k x 2 scrub = 8; five other schemes:
        // 2 sizes x 2 scrub = 4 each.
        assert_eq!(configs.len(), 8 + 5 * 4);
        let cppc = configs
            .iter()
            .filter(|c| c.scheme == SchemeKind::Cppc)
            .count();
        assert_eq!(cppc, 8);
    }

    #[test]
    fn full_tier_enumerates_432_configs() {
        let spec = SweepSpec::full_tier();
        spec.validate().unwrap();
        assert_eq!(spec.enumerate().len(), 192 + 240);
    }

    #[test]
    fn non_cppc_schemes_do_not_multiply_over_k() {
        let spec = SweepSpec::quick_tier();
        for c in spec.enumerate() {
            if c.scheme != SchemeKind::Cppc {
                assert_eq!(c.parity_k, 8, "{}", c.label());
            }
        }
    }

    #[test]
    fn labels_and_digests_are_unique_and_stable() {
        let spec = SweepSpec::quick_tier();
        let configs = spec.enumerate();
        let labels: HashSet<String> = configs.iter().map(SweepConfig::label).collect();
        assert_eq!(labels.len(), configs.len());
        let digests: HashSet<u64> = configs.iter().map(|c| c.digest(&spec)).collect();
        assert_eq!(digests.len(), configs.len());
        // Stability: the digest is part of the checkpoint contract.
        let first = &configs[0];
        assert_eq!(first.digest(&spec), first.digest(&spec));
        let mut reseeded = spec.clone();
        reseeded.campaign_seed ^= 1;
        assert_ne!(first.digest(&spec), first.digest(&reseeded));
    }

    #[test]
    fn digest_ignores_filters() {
        let spec = SweepSpec::quick_tier();
        let mut filtered = spec.clone();
        filtered.include = vec!["cppc/".to_string()];
        let c = spec.enumerate()[0];
        assert_eq!(c.digest(&spec), c.digest(&filtered));
    }

    #[test]
    fn label_format_is_the_documented_shape() {
        let c = SweepConfig {
            scheme: SchemeKind::Cppc,
            cache_kib: 32,
            associativity: 2,
            block_bytes: 32,
            parity_k: 8,
            scrub_interval: None,
        };
        assert_eq!(c.label(), "cppc/32KiB/2w/32B/k8/scrub-none");
        let s = SweepConfig {
            scrub_interval: Some(200_000),
            ..c
        };
        assert_eq!(s.label(), "cppc/32KiB/2w/32B/k8/scrub-200000");
    }

    #[test]
    fn include_and_exclude_filters_apply() {
        let mut spec = SweepSpec::quick_tier();
        spec.include = vec!["cppc/".to_string()];
        assert!(spec
            .enumerate()
            .iter()
            .all(|c| c.scheme == SchemeKind::Cppc));
        spec.include.clear();
        spec.exclude = vec!["scrub-none".to_string()];
        assert!(spec.enumerate().iter().all(|c| c.scrub_interval.is_some()));
        spec.include = vec!["parity1d".to_string(), "parity2d".to_string()];
        let got = spec.enumerate();
        assert!(!got.is_empty());
        assert!(got.iter().all(|c| {
            matches!(c.scheme, SchemeKind::Parity1d | SchemeKind::Parity2d)
                && c.scrub_interval.is_some()
        }));
    }

    #[test]
    fn validation_rejects_bad_axes() {
        let mut spec = SweepSpec::quick_tier();
        spec.interleave_k = vec![3];
        assert!(spec.validate().is_err());
        let mut spec = SweepSpec::quick_tier();
        spec.schemes.clear();
        assert!(spec.validate().is_err());
        let mut spec = SweepSpec::quick_tier();
        spec.trials = 0;
        assert!(spec.validate().is_err());
        let mut spec = SweepSpec::quick_tier();
        spec.cache_kib = vec![24];
        assert!(spec.validate().is_err());
        let mut spec = SweepSpec::quick_tier();
        spec.scrub_intervals = vec![Some(0)];
        assert!(spec.validate().is_err());
    }
}
