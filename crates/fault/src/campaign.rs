//! Fault-injection campaign runner.
//!
//! A campaign runs `trials` independent experiments. Each experiment
//! receives a freshly seeded RNG stream (derived deterministically from
//! the campaign seed via [`cppc_campaign::trial_seed`]), builds/loads a
//! system, injects a fault, exercises the recovery path and reports an
//! [`Outcome`]. The tally mirrors the standard soft-error taxonomy the
//! paper uses: corrected events, Detected-Unrecoverable Errors (DUE)
//! and Silent Data Corruptions (SDC).
//!
//! Campaigns execute through the [`cppc_campaign`] engine
//! (`cppc_campaign::run` over an [`OutcomeTally`]), whose per-trial RNG
//! streams make tallies **bit-identical at any thread count**.

use cppc_campaign::json::Json;
use cppc_campaign::{Accumulator, Persist};

/// The outcome of one injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// The fault hit state that was never consumed (or an invalid/empty
    /// location); the program result is unaffected.
    Masked,
    /// The fault was detected and repaired; data verified correct.
    Corrected,
    /// The fault was detected but could not be corrected — the machine
    /// raises a fatal exception (Detected Unrecoverable Error).
    DetectedUnrecoverable,
    /// The fault was not detected (or was "corrected" to a wrong value)
    /// and wrong data was consumed — Silent Data Corruption.
    SilentCorruption,
}

/// Tally of campaign outcomes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutcomeTally {
    /// Count of [`Outcome::Masked`].
    pub masked: u64,
    /// Count of [`Outcome::Corrected`].
    pub corrected: u64,
    /// Count of [`Outcome::DetectedUnrecoverable`].
    pub due: u64,
    /// Count of [`Outcome::SilentCorruption`].
    pub sdc: u64,
}

impl OutcomeTally {
    /// Records one outcome.
    pub fn record(&mut self, outcome: Outcome) {
        match outcome {
            Outcome::Masked => self.masked += 1,
            Outcome::Corrected => self.corrected += 1,
            Outcome::DetectedUnrecoverable => self.due += 1,
            Outcome::SilentCorruption => self.sdc += 1,
        }
    }

    /// Total trials recorded.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.masked + self.corrected + self.due + self.sdc
    }

    /// Fraction of *unmasked* faults that were corrected (coverage).
    /// Returns 1.0 when nothing was unmasked.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        let unmasked = self.corrected + self.due + self.sdc;
        if unmasked == 0 {
            1.0
        } else {
            self.corrected as f64 / unmasked as f64
        }
    }

    /// Fraction of all trials ending in silent corruption.
    #[must_use]
    pub fn sdc_rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.sdc as f64 / self.total() as f64
        }
    }
}

impl Accumulator for OutcomeTally {
    type Item = Outcome;

    fn record(&mut self, _trial: u64, outcome: Outcome) {
        OutcomeTally::record(self, outcome);
    }

    fn merge(&mut self, other: Self) {
        self.masked += other.masked;
        self.corrected += other.corrected;
        self.due += other.due;
        self.sdc += other.sdc;
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("Masked", self.masked),
            ("Corrected", self.corrected),
            ("DUE", self.due),
            ("SDC", self.sdc),
        ]
    }
}

impl Persist for OutcomeTally {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("masked".into(), Json::UInt(self.masked)),
            ("corrected".into(), Json::UInt(self.corrected)),
            ("due".into(), Json::UInt(self.due)),
            ("sdc".into(), Json::UInt(self.sdc)),
        ])
    }

    fn from_json(value: &Json) -> Option<Self> {
        Some(OutcomeTally {
            masked: value.get("masked")?.as_u64()?,
            corrected: value.get("corrected")?.as_u64()?,
            due: value.get("due")?.as_u64()?,
            sdc: value.get("sdc")?.as_u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_records_all_kinds() {
        let mut t = OutcomeTally::default();
        t.record(Outcome::Masked);
        t.record(Outcome::Corrected);
        t.record(Outcome::Corrected);
        t.record(Outcome::DetectedUnrecoverable);
        t.record(Outcome::SilentCorruption);
        assert_eq!(t.total(), 5);
        assert_eq!(t.masked, 1);
        assert_eq!(t.corrected, 2);
        assert_eq!(t.due, 1);
        assert_eq!(t.sdc, 1);
    }

    #[test]
    fn coverage_excludes_masked() {
        let t = OutcomeTally {
            masked: 100,
            corrected: 3,
            due: 1,
            sdc: 0,
        };
        assert!((t.coverage() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn coverage_is_one_when_all_masked() {
        let t = OutcomeTally {
            masked: 10,
            ..OutcomeTally::default()
        };
        assert_eq!(t.coverage(), 1.0);
    }

    #[test]
    fn sdc_rate_over_total() {
        let t = OutcomeTally {
            masked: 1,
            corrected: 1,
            due: 1,
            sdc: 1,
        };
        assert!((t.sdc_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn sdc_rate_zero_when_empty() {
        assert_eq!(OutcomeTally::default().sdc_rate(), 0.0);
    }

    #[test]
    fn tally_merge_is_componentwise() {
        let mut a = OutcomeTally {
            masked: 1,
            corrected: 2,
            due: 3,
            sdc: 4,
        };
        Accumulator::merge(
            &mut a,
            OutcomeTally {
                masked: 10,
                corrected: 20,
                due: 30,
                sdc: 40,
            },
        );
        assert_eq!(a.total(), 110);
        assert_eq!(a.due, 33);
    }

    #[test]
    fn tally_persist_roundtrip() {
        let t = OutcomeTally {
            masked: 5,
            corrected: 6,
            due: 7,
            sdc: 8,
        };
        let json = t.to_json();
        assert_eq!(OutcomeTally::from_json(&json), Some(t));
        assert_eq!(OutcomeTally::from_json(&Json::Null), None);
    }

    #[test]
    fn live_counters_use_paper_taxonomy() {
        let t = OutcomeTally {
            masked: 1,
            corrected: 2,
            due: 3,
            sdc: 4,
        };
        assert_eq!(
            Accumulator::counters(&t),
            vec![("Masked", 1), ("Corrected", 2), ("DUE", 3), ("SDC", 4)]
        );
    }
}
