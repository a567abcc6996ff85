//! Adaptive retest of marginal devices (§IV-C pushed to production scale).
//!
//! A single capture decides most devices confidently: their NDF lands far
//! from the acceptance threshold. The devices a single capture *misclassifies*
//! are exactly the ones whose NDF falls inside the measurement-noise guard
//! band around the threshold — re-measuring those with averaged repeats
//! pushes the detection limit below the single-shot noise floor, so the
//! verdict flips to the device's true side of the band. The repeats are
//! captured by [`crate::TestSetup::signatures_of_repeats`], the per-device
//! reference, or as batch entries of
//! [`crate::capture_signatures_batch`], one per repeat seed, which the
//! campaign runner uses and which gives the same signatures.
//!
//! [`RetestPolicy`] describes *when* to retest (the guard band) and *how
//! hard* (a cumulative repeat schedule with an escalation cap);
//! [`RetestPolicy::escalate`] is the **pure decision walk** shared verbatim
//! by the local flow ([`crate::TestFlow::evaluate_with_retest`]), the serving
//! tier (`DSRT` requests) and the campaign runner — which is what makes
//! retested campaign reports bit-identical across local, serve-target and
//! router-target scoring.

use crate::decision::{AcceptanceBand, TestOutcome};
use crate::error::{DsigError, Result};
use crate::wire::{ByteReader, Wire};

/// When and how hard to re-measure a marginal device before verdicting.
///
/// The schedule lists **cumulative** repeat counts: `vec![4, 16]` means
/// "average the first 4 repeats; if the averaged NDF still lies inside the
/// guard band, escalate to the average over the first 16". The last entry is
/// the escalation cap — the most repeats any single device can consume.
///
/// # Examples
///
/// ```
/// use dsig_core::{AcceptanceBand, RetestPolicy, TestOutcome};
///
/// # fn main() -> Result<(), dsig_core::DsigError> {
/// let band = AcceptanceBand::new(0.030)?;
/// let policy = RetestPolicy::new(0.005, vec![4, 16])?;
/// // 0.027 is inside [0.025, 0.035]: a single capture cannot be trusted.
/// assert!(policy.is_marginal(&band, 0.027));
/// assert!(!policy.is_marginal(&band, 0.050));
/// // The averaged repeats land at 0.040 — confidently FAIL, 4 repeats spent.
/// let verdict = policy.escalate(&band, 0.027, &[0.041, 0.039, 0.040, 0.040]);
/// assert_eq!(verdict.outcome, TestOutcome::Fail);
/// assert!(verdict.flipped, "the single capture said PASS");
/// assert_eq!(verdict.repeats_used, 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RetestPolicy {
    /// Half-width of the marginal guard band: a single-shot NDF within
    /// `guard_band` of the acceptance threshold triggers a retest.
    pub guard_band: f64,
    /// Cumulative repeat counts of the escalation steps, strictly
    /// increasing; the last entry is the escalation cap.
    pub schedule: Vec<u32>,
}

impl RetestPolicy {
    /// Creates a policy, validating the guard band and schedule.
    ///
    /// # Errors
    /// Returns [`DsigError::InvalidConfig`] for a non-finite or negative
    /// guard band, an empty schedule, a zero entry, or a schedule that is not
    /// strictly increasing.
    pub fn new(guard_band: f64, schedule: Vec<u32>) -> Result<Self> {
        if !guard_band.is_finite() || guard_band < 0.0 {
            return Err(DsigError::InvalidConfig(format!(
                "retest guard band must be non-negative and finite (got {guard_band})"
            )));
        }
        if schedule.is_empty() {
            return Err(DsigError::InvalidConfig(
                "retest schedule needs at least one escalation step".into(),
            ));
        }
        if schedule[0] == 0 || schedule.windows(2).any(|pair| pair[1] <= pair[0]) {
            return Err(DsigError::InvalidConfig(format!(
                "retest schedule must be strictly increasing cumulative repeat counts (got {schedule:?})"
            )));
        }
        Ok(RetestPolicy { guard_band, schedule })
    }

    /// The escalation cap: the most repeats one device can consume (the last
    /// schedule entry).
    pub fn repeat_cap(&self) -> u32 {
        *self.schedule.last().expect("validated schedule is non-empty")
    }

    /// Whether an NDF lies inside the guard band around the band's threshold
    /// — too close to the decision boundary for a single capture to decide.
    pub fn is_marginal(&self, band: &AcceptanceBand, ndf: f64) -> bool {
        (ndf - band.ndf_threshold).abs() <= self.guard_band
    }

    /// The pure escalation walk: decides one device from its single-shot NDF
    /// and the NDFs of the measurement repeats captured so far.
    ///
    /// A non-marginal single shot verdicts immediately with zero repeats
    /// spent. A marginal one walks the schedule: at each step the NDF is the
    /// average over the first `schedule[k]` repeats (a strict prefix sum, so
    /// every step's value is **bit-identical** to
    /// [`crate::TestFlow::evaluate_averaged`] over that many repeats); the
    /// walk stops at the first step whose average clears the guard band, or
    /// at the escalation cap. The final average decides PASS/FAIL either way.
    ///
    /// Steps beyond `repeat_ndfs.len()` are clamped — a caller that captured
    /// fewer repeats than the cap simply stops escalating earlier. The
    /// campaign runner relies on this to capture one step's repeats at a
    /// time: a walk that used every repeat it was given, below the cap, with
    /// its average still marginal, is one the next step continues.
    pub fn escalate(&self, band: &AcceptanceBand, initial_ndf: f64, repeat_ndfs: &[f64]) -> RetestVerdict {
        let initial_outcome = band.decide(initial_ndf);
        if !self.is_marginal(band, initial_ndf) {
            return RetestVerdict {
                ndf: initial_ndf,
                outcome: initial_outcome,
                marginal: false,
                flipped: false,
                repeats_used: 0,
            };
        }
        let mut sum = 0.0;
        let mut taken = 0usize;
        let mut ndf = initial_ndf;
        for &step in &self.schedule {
            let target = (step as usize).min(repeat_ndfs.len());
            if target <= taken {
                continue;
            }
            // Strict left-to-right prefix sum: the average over the first
            // `target` repeats reproduces `evaluate_averaged` bit-for-bit.
            while taken < target {
                sum += repeat_ndfs[taken];
                taken += 1;
            }
            ndf = sum / taken as f64;
            if !self.is_marginal(band, ndf) {
                break;
            }
        }
        let outcome = band.decide(ndf);
        RetestVerdict {
            ndf,
            outcome,
            marginal: true,
            flipped: outcome != initial_outcome,
            repeats_used: taken as u32,
        }
    }
}

/// The outcome of the retest escalation walk for one device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetestVerdict {
    /// The NDF that decided the verdict: the single-shot value for
    /// non-marginal devices, the final averaged value otherwise.
    pub ndf: f64,
    /// The final PASS/FAIL decision.
    pub outcome: TestOutcome,
    /// Whether the single-shot NDF fell inside the guard band.
    pub marginal: bool,
    /// Whether the averaged verdict differs from the single-shot one.
    pub flipped: bool,
    /// Measurement repeats consumed by the walk (0 for non-marginal devices).
    pub repeats_used: u32,
}

/// Derives the base noise seed of a device's retest repeats from its
/// single-shot noise seed (a SplitMix64 finalizer over a salted seed).
///
/// Every layer that captures retest repeats — the local flow and the campaign
/// runner — uses this one function, so the repeat measurements feeding the
/// escalation walk are the same bytes no matter where the verdict is
/// computed. The salt decorrelates the stream from the single-shot
/// measurement (seed `noise_seed` itself) and from the engine's per-device
/// seed streams.
pub fn retest_seed(noise_seed: u64) -> u64 {
    let mut z = noise_seed ^ 0x7265_7465_7374_5f6d; // "retest_m"
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The guard band, then the schedule; decoded through
/// [`RetestPolicy::new`].
impl Wire for RetestPolicy {
    const MIN_BYTES: usize = 8 + 4;

    fn put(&self, out: &mut Vec<u8>) {
        self.guard_band.put(out);
        self.schedule.put(out);
    }

    fn get(r: &mut ByteReader<'_>) -> Result<Self> {
        let guard_band = f64::get(r)?;
        RetestPolicy::new(guard_band, Wire::get(r)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn band(threshold: f64) -> AcceptanceBand {
        AcceptanceBand::new(threshold).unwrap()
    }

    #[test]
    fn policy_validation() {
        assert!(RetestPolicy::new(0.01, vec![4, 16]).is_ok());
        assert!(RetestPolicy::new(-0.01, vec![4]).is_err(), "negative guard");
        assert!(RetestPolicy::new(f64::NAN, vec![4]).is_err(), "NaN guard");
        assert!(RetestPolicy::new(0.01, vec![]).is_err(), "empty schedule");
        assert!(RetestPolicy::new(0.01, vec![0, 4]).is_err(), "zero step");
        assert!(RetestPolicy::new(0.01, vec![4, 4]).is_err(), "non-increasing");
        assert!(RetestPolicy::new(0.01, vec![8, 4]).is_err(), "decreasing");
        assert_eq!(RetestPolicy::new(0.01, vec![2, 8, 32]).unwrap().repeat_cap(), 32);
    }

    #[test]
    fn marginality_is_a_symmetric_band_around_the_threshold() {
        let policy = RetestPolicy::new(0.005, vec![4]).unwrap();
        let b = band(0.030);
        assert!(policy.is_marginal(&b, 0.030));
        assert!(policy.is_marginal(&b, 0.0251));
        assert!(policy.is_marginal(&b, 0.0349));
        assert!(!policy.is_marginal(&b, 0.0249));
        assert!(!policy.is_marginal(&b, 0.0351));
        // A zero guard band only retests exact-threshold hits.
        let strict = RetestPolicy::new(0.0, vec![4]).unwrap();
        assert!(strict.is_marginal(&b, 0.030));
        assert!(!strict.is_marginal(&b, 0.0300001));
    }

    #[test]
    fn non_marginal_devices_verdict_immediately() {
        let policy = RetestPolicy::new(0.005, vec![4, 16]).unwrap();
        let verdict = policy.escalate(&band(0.030), 0.010, &[9.0; 16]);
        assert_eq!(verdict.ndf, 0.010);
        assert_eq!(verdict.outcome, TestOutcome::Pass);
        assert!(!verdict.marginal);
        assert!(!verdict.flipped);
        assert_eq!(verdict.repeats_used, 0);
    }

    #[test]
    fn escalation_stops_at_the_first_confident_step() {
        let policy = RetestPolicy::new(0.005, vec![2, 6]).unwrap();
        let b = band(0.030);
        // First step average (0.045 + 0.047) / 2 = 0.046: outside the band,
        // so the later repeats are never consumed.
        let verdict = policy.escalate(&b, 0.028, &[0.045, 0.047, 0.0, 0.0, 0.0, 0.0]);
        assert_eq!(verdict.repeats_used, 2);
        assert_eq!(verdict.outcome, TestOutcome::Fail);
        assert!(verdict.marginal);
        assert!(verdict.flipped, "single shot 0.028 passed, the average fails");
        // A marginal FAIL confirmed by the average is not a flip.
        let verdict = policy.escalate(&b, 0.033, &[0.045, 0.047]);
        assert!(!verdict.flipped);
    }

    #[test]
    fn escalation_walks_the_full_schedule_when_repeats_stay_marginal() {
        let policy = RetestPolicy::new(0.005, vec![2, 4]).unwrap();
        let b = band(0.030);
        // All repeats marginal: the walk consumes the cap and decides from
        // the final average anyway.
        let repeats = [0.031, 0.029, 0.031, 0.029];
        let verdict = policy.escalate(&b, 0.030, &repeats);
        assert_eq!(verdict.repeats_used, 4);
        assert_eq!(verdict.ndf, (0.031 + 0.029 + 0.031 + 0.029) / 4.0);
        assert_eq!(verdict.outcome, TestOutcome::Pass);
    }

    #[test]
    fn prefix_averages_match_the_incremental_sum() {
        // The step-2 average must be the bitwise prefix sum over the first 4
        // values, exactly as evaluate_averaged computes it.
        let policy = RetestPolicy::new(1.0, vec![2, 4]).unwrap();
        let repeats = [0.1, 0.2, 0.3, 0.4];
        let verdict = policy.escalate(&band(0.25), 0.25, &repeats);
        let expected: f64 = (((0.1 + 0.2) + 0.3) + 0.4) / 4.0;
        assert_eq!(verdict.ndf.to_bits(), expected.to_bits());
    }

    #[test]
    fn short_repeat_lists_clamp_the_schedule() {
        let policy = RetestPolicy::new(0.005, vec![4, 16]).unwrap();
        let b = band(0.030);
        let verdict = policy.escalate(&b, 0.030, &[0.031, 0.029]);
        assert_eq!(verdict.repeats_used, 2, "only two repeats were captured");
        // No repeats at all: the single-shot NDF decides, marked marginal.
        let verdict = policy.escalate(&b, 0.032, &[]);
        assert_eq!(verdict.repeats_used, 0);
        assert_eq!(verdict.ndf, 0.032);
        assert_eq!(verdict.outcome, TestOutcome::Fail);
        assert!(verdict.marginal);
        assert!(!verdict.flipped);
    }

    #[test]
    fn flips_report_the_direction_change() {
        let policy = RetestPolicy::new(0.005, vec![2]).unwrap();
        let b = band(0.030);
        // Marginal PASS flips to FAIL.
        let to_fail = policy.escalate(&b, 0.028, &[0.050, 0.050]);
        assert_eq!(to_fail.outcome, TestOutcome::Fail);
        assert!(to_fail.flipped);
        // Marginal FAIL flips to PASS.
        let to_pass = policy.escalate(&b, 0.032, &[0.010, 0.010]);
        assert_eq!(to_pass.outcome, TestOutcome::Pass);
        assert!(to_pass.flipped);
        // Marginal but confirmed: no flip.
        let confirmed = policy.escalate(&b, 0.028, &[0.010, 0.010]);
        assert!(confirmed.marginal && !confirmed.flipped);
    }

    #[test]
    fn retest_seed_is_deterministic_and_decorrelated() {
        assert_eq!(retest_seed(7), retest_seed(7));
        assert_ne!(retest_seed(7), retest_seed(8));
        assert_ne!(
            retest_seed(7),
            7,
            "the retest stream must not reuse the single-shot seed"
        );
    }
}
