//! PASS/FAIL decision making on top of the NDF (§IV-C).
//!
//! "The test decision is made by previously setting the desired level of
//! tolerance and checking whether the NDF lies in the acceptance or rejection
//! bands."

use crate::error::{DsigError, Result};
use crate::wire::{ByteReader, Wire};

/// The outcome of a signature-based test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TestOutcome {
    /// The NDF lies inside the acceptance band: the CUT is considered within
    /// specification.
    Pass,
    /// The NDF exceeds the acceptance band: the CUT is rejected.
    Fail,
}

impl std::fmt::Display for TestOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TestOutcome::Pass => write!(f, "PASS"),
            TestOutcome::Fail => write!(f, "FAIL"),
        }
    }
}

/// The acceptance band: CUTs whose NDF does not exceed the threshold pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcceptanceBand {
    /// Maximum NDF accepted as within specification.
    pub ndf_threshold: f64,
}

impl AcceptanceBand {
    /// Creates an acceptance band with an explicit threshold.
    ///
    /// # Errors
    /// Returns [`DsigError::InvalidConfig`] for a negative or non-finite threshold.
    pub fn new(ndf_threshold: f64) -> Result<Self> {
        if !(ndf_threshold >= 0.0) || !ndf_threshold.is_finite() {
            return Err(DsigError::InvalidConfig(format!(
                "NDF threshold must be non-negative and finite (got {ndf_threshold})"
            )));
        }
        Ok(AcceptanceBand { ndf_threshold })
    }

    /// Decides the outcome for one measured NDF value.
    pub fn decide(&self, ndf: f64) -> TestOutcome {
        if ndf <= self.ndf_threshold {
            TestOutcome::Pass
        } else {
            TestOutcome::Fail
        }
    }

    /// Calibrates the acceptance band from an NDF-versus-deviation sweep
    /// (the Fig. 8 characterization): the threshold is the largest NDF
    /// observed among deviations within `tolerance_pct`, so every
    /// in-tolerance device of the characterization passes.
    ///
    /// # Errors
    /// Returns [`DsigError::InvalidConfig`] if the sweep is empty or contains
    /// no point within the tolerance.
    pub fn calibrate(sweep: &[(f64, f64)], tolerance_pct: f64) -> Result<Self> {
        if sweep.is_empty() {
            return Err(DsigError::InvalidConfig("cannot calibrate from an empty sweep".into()));
        }
        let in_tolerance: Vec<f64> = sweep
            .iter()
            .filter(|(dev, _)| dev.abs() <= tolerance_pct + 1e-12)
            .map(|&(_, ndf)| ndf)
            .collect();
        if in_tolerance.is_empty() {
            return Err(DsigError::InvalidConfig(format!(
                "no sweep point lies within the ±{tolerance_pct}% tolerance"
            )));
        }
        let threshold = in_tolerance.iter().fold(0.0_f64, |m, &v| m.max(v));
        AcceptanceBand::new(threshold)
    }
}

/// Aggregate statistics of screening a population of devices.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ScreeningStats {
    /// Number of devices screened.
    pub total: usize,
    /// Devices that passed the signature test.
    pub passed: usize,
    /// Devices that failed the signature test.
    pub failed: usize,
    /// Devices that are truly within the specification tolerance.
    pub truly_good: usize,
    /// Devices that are truly outside the specification tolerance.
    pub truly_bad: usize,
    /// Out-of-spec devices that the test accepted (test escapes).
    pub escapes: usize,
    /// In-spec devices that the test rejected (yield loss).
    pub false_rejects: usize,
}

impl ScreeningStats {
    /// Records one device result.
    pub fn record(&mut self, truly_good: bool, outcome: TestOutcome) {
        self.total += 1;
        match outcome {
            TestOutcome::Pass => self.passed += 1,
            TestOutcome::Fail => self.failed += 1,
        }
        if truly_good {
            self.truly_good += 1;
            if outcome == TestOutcome::Fail {
                self.false_rejects += 1;
            }
        } else {
            self.truly_bad += 1;
            if outcome == TestOutcome::Pass {
                self.escapes += 1;
            }
        }
    }

    /// Fraction of devices that passed the test.
    pub fn test_yield(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.passed as f64 / self.total as f64
        }
    }

    /// Fraction of truly out-of-spec devices that escaped detection.
    pub fn escape_rate(&self) -> f64 {
        if self.truly_bad == 0 {
            0.0
        } else {
            self.escapes as f64 / self.truly_bad as f64
        }
    }

    /// Fraction of truly in-spec devices that were rejected.
    pub fn false_reject_rate(&self) -> f64 {
        if self.truly_good == 0 {
            0.0
        } else {
            self.false_rejects as f64 / self.truly_good as f64
        }
    }
}

// The outcome tags every format that carries a verdict shares.
crate::wire_tags!(TestOutcome: u8 { Pass = 0, Fail = 1 });

/// The threshold, decoded through [`AcceptanceBand::new`].
impl Wire for AcceptanceBand {
    const MIN_BYTES: usize = 8;

    fn put(&self, out: &mut Vec<u8>) {
        self.ndf_threshold.put(out);
    }

    fn get(r: &mut ByteReader<'_>) -> Result<Self> {
        AcceptanceBand::new(f64::get(r)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn band_validation_and_decision() {
        assert!(AcceptanceBand::new(-0.1).is_err());
        assert!(AcceptanceBand::new(f64::NAN).is_err());
        let band = AcceptanceBand::new(0.05).unwrap();
        assert_eq!(band.decide(0.02), TestOutcome::Pass);
        assert_eq!(band.decide(0.05), TestOutcome::Pass);
        assert_eq!(band.decide(0.051), TestOutcome::Fail);
        assert_eq!(TestOutcome::Pass.to_string(), "PASS");
        assert_eq!(TestOutcome::Fail.to_string(), "FAIL");
    }

    #[test]
    fn calibration_uses_in_tolerance_maximum() {
        // A synthetic, roughly linear NDF-vs-deviation characteristic.
        let sweep: Vec<(f64, f64)> = (-20..=20).map(|d: i32| (d as f64, 0.01 * d.abs() as f64)).collect();
        let band = AcceptanceBand::calibrate(&sweep, 5.0).unwrap();
        assert!((band.ndf_threshold - 0.05).abs() < 1e-12);
        // Devices beyond the tolerance fail with this threshold.
        assert_eq!(band.decide(0.07), TestOutcome::Fail);
        assert_eq!(band.decide(0.04), TestOutcome::Pass);
    }

    #[test]
    fn calibration_rejects_degenerate_input() {
        assert!(AcceptanceBand::calibrate(&[], 5.0).is_err());
        assert!(AcceptanceBand::calibrate(&[(10.0, 0.1)], 5.0).is_err());
    }

    #[test]
    fn screening_stats_bookkeeping() {
        let mut stats = ScreeningStats::default();
        stats.record(true, TestOutcome::Pass); // correct accept
        stats.record(true, TestOutcome::Fail); // false reject
        stats.record(false, TestOutcome::Fail); // correct reject
        stats.record(false, TestOutcome::Pass); // escape
        assert_eq!(stats.total, 4);
        assert_eq!(stats.passed, 2);
        assert_eq!(stats.failed, 2);
        assert_eq!(stats.escapes, 1);
        assert_eq!(stats.false_rejects, 1);
        assert!((stats.test_yield() - 0.5).abs() < 1e-12);
        assert!((stats.escape_rate() - 0.5).abs() < 1e-12);
        assert!((stats.false_reject_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_rates_are_zero() {
        let stats = ScreeningStats::default();
        assert_eq!(stats.test_yield(), 0.0);
        assert_eq!(stats.escape_rate(), 0.0);
        assert_eq!(stats.false_reject_rate(), 0.0);
    }
}
