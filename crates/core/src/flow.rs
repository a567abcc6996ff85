//! End-to-end test flow: stimulus → CUT response → Lissajous → zone codes →
//! signature → NDF → PASS/FAIL.
//!
//! This is the orchestration layer behind the paper's experiments: Fig. 6/7
//! (golden vs defective signatures), Fig. 8 (NDF vs `f0` deviation sweep) and
//! the noise-robustness claim of §IV-C.

use cut_filters::{BiquadParams, Fault};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sim_signal::{MultitoneSpec, NoiseModel, Waveform};
use xy_monitor::ZonePartition;

use crate::batch::{CaptureScratch, SlotTable};
use crate::capture::{capture_signature, CaptureClock};
use crate::decision::{AcceptanceBand, ScreeningStats, TestOutcome};
use crate::error::{DsigError, Result};
use crate::ndf::ndf_and_peak;
use crate::retest::{retest_seed, RetestPolicy, RetestVerdict};
use crate::signature::Signature;

/// Everything needed to observe one CUT instance and capture its signature.
#[derive(Debug, Clone)]
pub struct TestSetup {
    /// The multitone stimulus applied to the CUT.
    pub stimulus: MultitoneSpec,
    /// The zone partition (bank of monitors) observing the Lissajous plane.
    pub partition: ZonePartition,
    /// The capture clock; `None` counts dwells in samples.
    pub clock: Option<CaptureClock>,
    /// Sample rate used to discretize the observed signals, hertz.
    pub sample_rate: f64,
    /// Measurement noise added to both observed signals.
    pub noise: NoiseModel,
    /// Minimum zone dwell the transition detector can register, seconds
    /// (shorter zone visits — typically noise chatter at a boundary — are
    /// absorbed by the surrounding zone). Set to 0 to disable.
    pub transition_min_dwell: f64,
    /// Input bandwidth of the observation front-end (the monitors), hertz.
    /// Both observed signals are low-pass filtered at this cutoff, which
    /// attenuates out-of-band measurement noise while leaving the multitone
    /// signal (tens of kilohertz) untouched. `None` disables the filter.
    pub monitor_bandwidth_hz: Option<f64>,
}

impl TestSetup {
    /// The paper's experimental setup: the default multitone stimulus, the
    /// six Table I monitors, the 10 MHz / 12-bit capture clock and no noise.
    ///
    /// # Errors
    /// Propagates monitor construction errors (none occur for the published values).
    pub fn paper_default() -> Result<Self> {
        Ok(TestSetup {
            stimulus: MultitoneSpec::paper_default(),
            partition: ZonePartition::paper_default()?,
            clock: Some(CaptureClock::paper_default()),
            sample_rate: 5e6,
            noise: NoiseModel::none(),
            transition_min_dwell: 2e-6,
            monitor_bandwidth_hz: Some(300e3),
        })
    }

    /// Returns a copy with the given measurement-noise model.
    pub fn with_noise(mut self, noise: NoiseModel) -> Self {
        self.noise = noise;
        self
    }

    /// Returns a copy with the given observation sample rate.
    ///
    /// # Errors
    /// Returns [`DsigError::InvalidConfig`] for a rate that does not resolve
    /// the stimulus (fewer than 50 samples per fundamental period) and for a
    /// NaN or infinite rate.
    pub fn with_sample_rate(mut self, sample_rate: f64) -> Result<Self> {
        if !(sample_rate * self.stimulus.period() >= 50.0) || !sample_rate.is_finite() {
            return Err(DsigError::InvalidConfig(format!(
                "sample rate {sample_rate} Hz is not finite or resolves fewer than 50 points per period"
            )));
        }
        self.sample_rate = sample_rate;
        Ok(self)
    }

    /// Observes one CUT instance: returns the `(x(t), y(t))` waveform pair
    /// over one Lissajous period, with measurement noise applied.
    ///
    /// `noise_seed` controls the (deterministic) noise realisation so that
    /// repeated measurements of different devices are independent.
    pub fn observe(&self, cut: &BiquadParams, noise_seed: u64) -> (Waveform, Waveform) {
        let x = self.stimulus.sample(1, self.sample_rate);
        let y = cut.steady_state_response(&self.stimulus, 1, self.sample_rate);
        let mut x_obs = self.noise.apply(&x, noise_seed.wrapping_mul(2));
        let mut y_obs = self.noise.apply(&y, noise_seed.wrapping_mul(2).wrapping_add(1));
        if let Some(bandwidth) = self.monitor_bandwidth_hz {
            x_obs = x_obs.lowpass(bandwidth);
            y_obs = y_obs.lowpass(bandwidth);
        }
        (x_obs, y_obs)
    }

    /// Captures the digital signature of one CUT instance.
    ///
    /// # Errors
    /// Propagates capture errors.
    pub fn signature_of(&self, cut: &BiquadParams, noise_seed: u64) -> Result<Signature> {
        let (x, y) = self.observe(cut, noise_seed);
        let mut signature = capture_signature(&self.partition, &x, &y, self.clock.as_ref())?;
        signature.deglitch(self.transition_min_dwell);
        Ok(signature)
    }

    /// Captures `repeats` independent measurements of **one** CUT instance,
    /// synthesizing the stimulus and the device response once and re-drawing
    /// only the measurement noise per repeat (seeds `base_seed`,
    /// `base_seed + 1`, …) — bit-identical to calling
    /// [`TestSetup::signature_of`] once per repeat with those seeds, because
    /// the synthesized waveforms do not depend on the noise realisation.
    ///
    /// This is the averaged-measurement fast path behind
    /// [`TestFlow::evaluate_averaged`]: the per-repeat cost drops to noise
    /// application and front-end filtering in reused buffers, then exact
    /// zone encoding that computes each sample's gate drives once per drive
    /// model (see [`crate::batch`]). Without a noise model every repeat
    /// observes identical samples, so the signature is captured once and
    /// shared.
    ///
    /// # Errors
    /// Propagates capture errors.
    pub fn signatures_of_repeats(&self, cut: &BiquadParams, repeats: usize, base_seed: u64) -> Result<Vec<Signature>> {
        let x = self.stimulus.sample(1, self.sample_rate);
        let y = cut.steady_state_response(&self.stimulus, 1, self.sample_rate);
        if x.len() != y.len() {
            return Err(DsigError::Signal(sim_signal::SignalError::GridMismatch {
                left: x.len(),
                right: y.len(),
            }));
        }
        let table = SlotTable::new(&self.partition);
        let mut scratch = CaptureScratch::default();
        let mut capture_one =
            |seed: u64| table.capture_measurement(self, x.samples(), y.samples(), seed, x.dt(), &mut scratch);
        if self.noise.is_none() {
            let signature = capture_one(base_seed)?;
            return Ok(vec![signature; repeats]);
        }
        (0..repeats)
            .map(|i| capture_one(base_seed.wrapping_add(i as u64)))
            .collect()
    }
}

/// The result of evaluating one CUT instance against the golden signature.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NdfReport {
    /// The normalized discrepancy factor (Eq. 2).
    pub ndf: f64,
    /// Peak instantaneous Hamming distance over the period.
    pub peak_hamming: u32,
    /// Number of zone traversals in the observed signature.
    pub observed_zones: usize,
}

/// The result of evaluating one CUT instance under a [`RetestPolicy`]
/// (see [`TestFlow::evaluate_with_retest`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetestNdfReport {
    /// The deciding measurements: the final (averaged, for retested devices)
    /// NDF with the peak Hamming distance and zone count folded over the
    /// initial capture and every consumed repeat.
    pub report: NdfReport,
    /// The single-shot NDF of the initial capture.
    pub initial_ndf: f64,
    /// The escalation walk's verdict (marginality, flip, repeats spent).
    pub verdict: RetestVerdict,
}

/// One point of the Fig. 8 sweep: an injected `f0` deviation and the NDF it produces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Injected natural-frequency deviation, percent.
    pub deviation_pct: f64,
    /// Measured NDF.
    pub ndf: f64,
}

/// A calibrated test flow: a golden signature plus the setup that produced it.
///
/// # Examples
///
/// Calibrate an acceptance band from a deviation sweep, then screen devices:
///
/// ```
/// use cut_filters::BiquadParams;
/// use dsig_core::{TestFlow, TestOutcome, TestSetup};
///
/// # fn main() -> Result<(), dsig_core::DsigError> {
/// let setup = TestSetup::paper_default()?.with_sample_rate(1e6)?;
/// let flow = TestFlow::new(setup, BiquadParams::paper_default())?;
/// // Devices within ±3% f0 deviation must pass.
/// let deviations: Vec<f64> = (-10..=10).map(f64::from).collect();
/// let band = flow.calibrate_band(&deviations, 3.0)?;
/// let good = flow.evaluate(&BiquadParams::paper_default().with_f0_shift_pct(1.0), 1)?;
/// let bad = flow.evaluate(&BiquadParams::paper_default().with_f0_shift_pct(9.0), 2)?;
/// assert_eq!(band.decide(good.ndf), TestOutcome::Pass);
/// assert_eq!(band.decide(bad.ndf), TestOutcome::Fail);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TestFlow {
    setup: TestSetup,
    reference: BiquadParams,
    golden: Signature,
}

impl TestFlow {
    /// Builds the flow by capturing the golden signature of the reference
    /// (nominal) CUT without measurement noise — the golden signature is a
    /// characterization-time artifact, not a production measurement.
    ///
    /// # Errors
    /// Propagates capture errors.
    pub fn new(setup: TestSetup, reference: BiquadParams) -> Result<Self> {
        let noiseless = TestSetup {
            noise: NoiseModel::none(),
            ..setup.clone()
        };
        let golden = noiseless.signature_of(&reference, 0)?;
        Ok(TestFlow {
            setup,
            reference,
            golden,
        })
    }

    /// The golden signature.
    pub fn golden(&self) -> &Signature {
        &self.golden
    }

    /// The reference (nominal) CUT parameters.
    pub fn reference(&self) -> &BiquadParams {
        &self.reference
    }

    /// The observation setup.
    pub fn setup(&self) -> &TestSetup {
        &self.setup
    }

    /// Evaluates one CUT instance: captures its signature and compares it to
    /// the golden one.
    ///
    /// # Errors
    /// Propagates capture and comparison errors.
    pub fn evaluate(&self, cut: &BiquadParams, noise_seed: u64) -> Result<NdfReport> {
        let observed = self.setup.signature_of(cut, noise_seed)?;
        let (ndf, peak_hamming) = ndf_and_peak(&self.golden, &observed)?;
        Ok(NdfReport {
            ndf,
            peak_hamming,
            observed_zones: observed.len(),
        })
    }

    /// Evaluates one CUT instance as the average over several independent
    /// measurements (noise realisations) — the standard way to push the
    /// detection limit below the single-shot noise floor.
    ///
    /// The stimulus and the device response are synthesized **once** for all
    /// repeats through [`TestSetup::signatures_of_repeats`] (only the noise
    /// realisation differs between repeats), so the per-repeat cost is noise
    /// application, filtering and capture — bit-identical to evaluating each
    /// repeat independently.
    ///
    /// # Errors
    /// Propagates capture and comparison errors; `repeats` must be non-zero.
    pub fn evaluate_averaged(&self, cut: &BiquadParams, repeats: usize, base_seed: u64) -> Result<NdfReport> {
        if repeats == 0 {
            return Err(DsigError::InvalidConfig(
                "at least one measurement repeat is required".into(),
            ));
        }
        let mut ndf_sum = 0.0;
        let mut peak = 0;
        let mut zones = 0;
        if self.setup.noise.is_none() {
            // Noiseless repeats observe identical samples: capture and score
            // once, then fold the single report through the same per-repeat
            // sum the general path uses (so the rounded average is unchanged).
            let report = self.evaluate(cut, base_seed)?;
            for _ in 0..repeats {
                ndf_sum += report.ndf;
                peak = peak.max(report.peak_hamming);
                zones = zones.max(report.observed_zones);
            }
        } else {
            for observed in self.setup.signatures_of_repeats(cut, repeats, base_seed)? {
                let (ndf, peak_hamming) = ndf_and_peak(&self.golden, &observed)?;
                ndf_sum += ndf;
                peak = peak.max(peak_hamming);
                zones = zones.max(observed.len());
            }
        }
        Ok(NdfReport {
            ndf: ndf_sum / repeats as f64,
            peak_hamming: peak,
            observed_zones: zones,
        })
    }

    /// Evaluates one CUT instance under an adaptive retest policy: a single
    /// capture decides non-marginal devices; a device whose NDF lands inside
    /// the policy's guard band around `band.ndf_threshold` is re-measured
    /// with averaged repeats (captured through
    /// [`TestSetup::signatures_of_repeats`], seeds derived by
    /// [`crate::retest_seed`]) and the escalation walk of
    /// [`RetestPolicy::escalate`] decides — each step's averaged NDF is
    /// bit-identical to [`TestFlow::evaluate_averaged`] over that many
    /// repeats.
    ///
    /// # Errors
    /// Propagates capture and comparison errors.
    ///
    /// # Examples
    ///
    /// ```
    /// use cut_filters::BiquadParams;
    /// use dsig_core::{AcceptanceBand, RetestPolicy, TestFlow, TestSetup};
    /// use sim_signal::NoiseModel;
    ///
    /// # fn main() -> Result<(), dsig_core::DsigError> {
    /// let setup = TestSetup::paper_default()?
    ///     .with_sample_rate(1e6)?
    ///     .with_noise(NoiseModel::paper_default());
    /// let flow = TestFlow::new(setup, BiquadParams::paper_default())?;
    /// let band = AcceptanceBand::new(0.03)?;
    /// let policy = RetestPolicy::new(0.01, vec![4, 16])?;
    /// // A grossly deviated device is decided by its single capture alone.
    /// let gross = BiquadParams::paper_default().with_f0_shift_pct(15.0);
    /// let report = flow.evaluate_with_retest(&gross, &band, &policy, 7)?;
    /// assert!(!report.verdict.marginal);
    /// assert_eq!(report.verdict.repeats_used, 0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn evaluate_with_retest(
        &self,
        cut: &BiquadParams,
        band: &AcceptanceBand,
        policy: &RetestPolicy,
        noise_seed: u64,
    ) -> Result<RetestNdfReport> {
        let initial = self.evaluate(cut, noise_seed)?;
        if !policy.is_marginal(band, initial.ndf) {
            return Ok(RetestNdfReport {
                report: initial,
                initial_ndf: initial.ndf,
                verdict: policy.escalate(band, initial.ndf, &[]),
            });
        }
        let repeats = self
            .setup
            .signatures_of_repeats(cut, policy.repeat_cap() as usize, retest_seed(noise_seed))?;
        let mut repeat_ndfs = Vec::with_capacity(repeats.len());
        let mut repeat_peaks = Vec::with_capacity(repeats.len());
        let mut repeat_zones = Vec::with_capacity(repeats.len());
        for observed in &repeats {
            let (ndf, peak_hamming) = ndf_and_peak(&self.golden, observed)?;
            repeat_ndfs.push(ndf);
            repeat_peaks.push(peak_hamming);
            repeat_zones.push(observed.len());
        }
        let verdict = policy.escalate(band, initial.ndf, &repeat_ndfs);
        let used = verdict.repeats_used as usize;
        Ok(RetestNdfReport {
            report: NdfReport {
                ndf: verdict.ndf,
                peak_hamming: repeat_peaks[..used]
                    .iter()
                    .fold(initial.peak_hamming, |peak, &p| peak.max(p)),
                observed_zones: repeat_zones[..used]
                    .iter()
                    .fold(initial.observed_zones, |zones, &z| zones.max(z)),
            },
            initial_ndf: initial.ndf,
            verdict,
        })
    }

    /// Characterizes the measurement-noise floor: the mean and maximum
    /// averaged NDF of the *nominal* reference device over `repeats`
    /// independent measurement groups.
    ///
    /// # Errors
    /// Propagates evaluation errors; `repeats` must be non-zero.
    pub fn noise_floor(&self, repeats: usize, group_size: usize, base_seed: u64) -> Result<(f64, f64)> {
        if repeats == 0 {
            return Err(DsigError::InvalidConfig("at least one repeat is required".into()));
        }
        let mut sum = 0.0;
        let mut max = 0.0_f64;
        for i in 0..repeats {
            let report =
                self.evaluate_averaged(&self.reference, group_size, base_seed.wrapping_add((i * 1000) as u64))?;
            sum += report.ndf;
            max = max.max(report.ndf);
        }
        Ok((sum / repeats as f64, max))
    }

    /// Evaluates a CUT produced by injecting a fault into the reference.
    ///
    /// # Errors
    /// Propagates fault application and evaluation errors.
    pub fn evaluate_fault(&self, fault: &Fault, noise_seed: u64) -> Result<NdfReport> {
        let cut = fault.apply_to_params(&self.reference)?;
        self.evaluate(&cut, noise_seed)
    }

    /// Runs the Fig. 8 sweep: NDF as a function of the `f0` deviation.
    ///
    /// # Errors
    /// Propagates evaluation errors.
    pub fn sweep_f0(&self, deviations_pct: &[f64]) -> Result<Vec<SweepPoint>> {
        deviations_pct
            .iter()
            .enumerate()
            .map(|(i, &dev)| {
                let cut = self.reference.with_f0_shift_pct(dev);
                let report = self.evaluate(&cut, 1000 + i as u64)?;
                Ok(SweepPoint {
                    deviation_pct: dev,
                    ndf: report.ndf,
                })
            })
            .collect()
    }

    /// Calibrates an acceptance band from a Fig. 8 style sweep so that every
    /// deviation within `tolerance_pct` passes.
    ///
    /// # Errors
    /// Propagates sweep and calibration errors.
    pub fn calibrate_band(&self, deviations_pct: &[f64], tolerance_pct: f64) -> Result<AcceptanceBand> {
        let sweep = self.sweep_f0(deviations_pct)?;
        let pairs: Vec<(f64, f64)> = sweep.iter().map(|p| (p.deviation_pct, p.ndf)).collect();
        AcceptanceBand::calibrate(&pairs, tolerance_pct)
    }

    /// Screens a synthetic production population whose `f0` deviations are
    /// Gaussian with the given sigma (percent). A device is *truly good* when
    /// its deviation is within `tolerance_pct`; the signature test decides
    /// PASS/FAIL through the supplied acceptance band.
    ///
    /// # Errors
    /// Propagates evaluation errors.
    pub fn screen_population(
        &self,
        devices: usize,
        sigma_pct: f64,
        tolerance_pct: f64,
        band: &AcceptanceBand,
        seed: u64,
    ) -> Result<ScreeningStats> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut stats = ScreeningStats::default();
        for i in 0..devices {
            let deviation = sigma_pct * sim_signal::standard_normal(&mut rng);
            let cut = self.reference.with_f0_shift_pct(deviation);
            let report = self.evaluate(&cut, seed.wrapping_add(i as u64))?;
            let outcome = band.decide(report.ndf);
            stats.record(deviation.abs() <= tolerance_pct, outcome);
        }
        Ok(stats)
    }

    /// Trains an alternate-test style estimator of the f0 deviation from the
    /// per-zone dwell-time features of the signature (see
    /// [`crate::regression`]). The characterization sweep plays the role of
    /// the regression training set of the paper's reference \[14\].
    ///
    /// # Errors
    /// Propagates evaluation and fitting errors.
    pub fn train_f0_estimator(&self, deviations_pct: &[f64]) -> Result<crate::regression::SignatureRegressor> {
        let mut samples = Vec::with_capacity(deviations_pct.len());
        for (i, &dev) in deviations_pct.iter().enumerate() {
            let cut = self.reference.with_f0_shift_pct(dev);
            let signature = self.setup.signature_of(&cut, 5000 + i as u64)?;
            samples.push((crate::regression::dwell_features(&self.golden, &signature), dev));
        }
        crate::regression::SignatureRegressor::fit(&samples, 1e-6)
    }

    /// Estimates the f0 deviation (in percent) of one CUT instance with a
    /// trained estimator.
    ///
    /// # Errors
    /// Propagates capture and prediction errors.
    pub fn estimate_f0_deviation(
        &self,
        estimator: &crate::regression::SignatureRegressor,
        cut: &BiquadParams,
        noise_seed: u64,
    ) -> Result<f64> {
        let signature = self.setup.signature_of(cut, noise_seed)?;
        estimator.predict(&crate::regression::dwell_features(&self.golden, &signature))
    }

    /// Finds the smallest positive `f0` deviation (in percent, searched on a
    /// 0.25 % grid up to `max_pct`) whose averaged NDF over `repeats`
    /// measurements exceeds the given threshold — the "minimum detectable
    /// deviation" of §IV-C.
    ///
    /// # Errors
    /// Propagates evaluation errors. Returns `Ok(None)` if no deviation up to
    /// `max_pct` is detectable.
    pub fn minimum_detectable_deviation(
        &self,
        band: &AcceptanceBand,
        max_pct: f64,
        repeats: usize,
        noise_seed: u64,
    ) -> Result<Option<f64>> {
        let mut dev = 0.25;
        while dev <= max_pct + 1e-9 {
            let cut = self.reference.with_f0_shift_pct(dev);
            let report = self.evaluate_averaged(&cut, repeats, noise_seed)?;
            if band.decide(report.ndf) == TestOutcome::Fail {
                return Ok(Some(dev));
            }
            dev += 0.25;
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow() -> TestFlow {
        let setup = TestSetup::paper_default().unwrap().with_sample_rate(1e6).unwrap();
        TestFlow::new(setup, BiquadParams::paper_default()).unwrap()
    }

    #[test]
    fn golden_signature_is_rich_and_periodic() {
        let f = flow();
        let golden = f.golden();
        assert!(golden.len() >= 6, "golden signature has only {} zones", golden.len());
        // One 200 µs period of 0.1 µs ticks.
        assert_eq!(golden.unit(), 1e-7);
        assert!(golden.total_count().abs_diff(2000) < 20, "{}", golden.total_count());
        assert!(golden.distinct_zones() >= 4);
    }

    #[test]
    fn nominal_device_has_zero_ndf() {
        let f = flow();
        let report = f.evaluate(&BiquadParams::paper_default(), 5).unwrap();
        assert_eq!(report.ndf, 0.0);
        assert_eq!(report.peak_hamming, 0);
    }

    #[test]
    fn f0_shift_produces_nonzero_ndf_that_grows_with_deviation() {
        let f = flow();
        let small = f.evaluate_fault(&Fault::F0ShiftPct(2.0), 7).unwrap();
        let large = f.evaluate_fault(&Fault::F0ShiftPct(10.0), 7).unwrap();
        assert!(small.ndf > 0.0, "2% shift NDF {}", small.ndf);
        assert!(large.ndf > small.ndf, "NDF must grow: {} vs {}", small.ndf, large.ndf);
    }

    #[test]
    fn ndf_is_roughly_symmetric_in_sign() {
        let f = flow();
        let plus = f.evaluate_fault(&Fault::F0ShiftPct(10.0), 11).unwrap();
        let minus = f.evaluate_fault(&Fault::F0ShiftPct(-10.0), 11).unwrap();
        let ratio = plus.ndf / minus.ndf;
        assert!(
            ratio > 0.4 && ratio < 2.5,
            "asymmetric NDF: +10% {} vs -10% {}",
            plus.ndf,
            minus.ndf
        );
    }

    #[test]
    fn sweep_produces_one_point_per_deviation() {
        let f = flow();
        let sweep = f.sweep_f0(&[-10.0, 0.0, 10.0]).unwrap();
        assert_eq!(sweep.len(), 3);
        assert!(sweep[1].ndf <= sweep[0].ndf.min(sweep[2].ndf));
    }

    #[test]
    fn calibrated_band_separates_good_from_bad() {
        let f = flow();
        let devs: Vec<f64> = (-10..=10).map(|d| d as f64).collect();
        let band = f.calibrate_band(&devs, 3.0).unwrap();
        let good = f.evaluate_fault(&Fault::F0ShiftPct(1.0), 3).unwrap();
        let bad = f.evaluate_fault(&Fault::F0ShiftPct(9.0), 3).unwrap();
        assert_eq!(band.decide(good.ndf), TestOutcome::Pass);
        assert_eq!(band.decide(bad.ndf), TestOutcome::Fail);
    }

    #[test]
    fn noise_does_not_hide_large_deviations() {
        let setup = TestSetup::paper_default()
            .unwrap()
            .with_sample_rate(1e6)
            .unwrap()
            .with_noise(NoiseModel::paper_default());
        let f = TestFlow::new(setup, BiquadParams::paper_default()).unwrap();
        let report = f.evaluate_fault(&Fault::F0ShiftPct(10.0), 23).unwrap();
        assert!(report.ndf > 0.02, "noisy 10% shift NDF {}", report.ndf);
    }

    #[test]
    fn averaged_evaluation_is_bit_identical_to_per_repeat_evaluation() {
        // The shared-synthesis fast path must reproduce the old
        // evaluate-per-repeat loop exactly, noisy and noiseless.
        let noisy_setup = TestSetup::paper_default()
            .unwrap()
            .with_sample_rate(1e6)
            .unwrap()
            .with_noise(NoiseModel::paper_default());
        let noisy = TestFlow::new(noisy_setup, BiquadParams::paper_default()).unwrap();
        let quiet = flow();
        for (f, base_seed) in [(&noisy, 40u64), (&quiet, 7u64)] {
            for repeats in [1usize, 3, 8] {
                let cut = BiquadParams::paper_default().with_f0_shift_pct(1.5);
                let fast = f.evaluate_averaged(&cut, repeats, base_seed).unwrap();
                let mut ndf_sum = 0.0;
                let mut peak = 0;
                let mut zones = 0;
                for i in 0..repeats {
                    let report = f.evaluate(&cut, base_seed.wrapping_add(i as u64)).unwrap();
                    ndf_sum += report.ndf;
                    peak = peak.max(report.peak_hamming);
                    zones = zones.max(report.observed_zones);
                }
                assert_eq!(
                    fast.ndf.to_bits(),
                    (ndf_sum / repeats as f64).to_bits(),
                    "repeats {repeats}"
                );
                assert_eq!(fast.peak_hamming, peak);
                assert_eq!(fast.observed_zones, zones);
            }
        }
    }

    #[test]
    fn repeated_signatures_match_the_per_repeat_capture() {
        let setup = TestSetup::paper_default()
            .unwrap()
            .with_sample_rate(1e6)
            .unwrap()
            .with_noise(NoiseModel::paper_default());
        let cut = BiquadParams::paper_default().with_f0_shift_pct(3.0);
        let repeated = setup.signatures_of_repeats(&cut, 4, 31).unwrap();
        assert_eq!(repeated.len(), 4);
        for (i, signature) in repeated.iter().enumerate() {
            assert_eq!(
                *signature,
                setup.signature_of(&cut, 31 + i as u64).unwrap(),
                "repeat {i}"
            );
        }
        // Noiseless: every repeat is the same capture, shared.
        let quiet = TestSetup::paper_default().unwrap().with_sample_rate(1e6).unwrap();
        let repeated = quiet.signatures_of_repeats(&cut, 3, 99).unwrap();
        assert_eq!(repeated[0], quiet.signature_of(&cut, 99).unwrap());
        assert!(repeated.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn retest_averages_are_bit_identical_to_evaluate_averaged() {
        use crate::decision::AcceptanceBand;

        let setup = TestSetup::paper_default()
            .unwrap()
            .with_sample_rate(1e6)
            .unwrap()
            .with_noise(NoiseModel::paper_default());
        let f = TestFlow::new(setup, BiquadParams::paper_default()).unwrap();
        let cut = BiquadParams::paper_default().with_f0_shift_pct(2.5);
        let noise_seed = 11u64;
        let initial = f.evaluate(&cut, noise_seed).unwrap();
        // Center the band on the single-shot NDF so the device is marginal
        // with a wide guard band: the walk must consume the full schedule.
        let band = AcceptanceBand::new(initial.ndf).unwrap();
        let policy = RetestPolicy::new(1.0, vec![3, 7]).unwrap();
        let retested = f.evaluate_with_retest(&cut, &band, &policy, noise_seed).unwrap();
        assert!(retested.verdict.marginal);
        assert_eq!(retested.verdict.repeats_used, 7);
        assert_eq!(retested.initial_ndf.to_bits(), initial.ndf.to_bits());
        // The deciding NDF is exactly evaluate_averaged over the consumed
        // repeats, from the shared retest seed stream.
        let averaged = f.evaluate_averaged(&cut, 7, retest_seed(noise_seed)).unwrap();
        assert_eq!(retested.report.ndf.to_bits(), averaged.ndf.to_bits());
        assert_eq!(
            retested.report.peak_hamming,
            averaged.peak_hamming.max(initial.peak_hamming)
        );
        assert_eq!(
            retested.report.observed_zones,
            averaged.observed_zones.max(initial.observed_zones)
        );
    }

    #[test]
    fn non_marginal_devices_skip_the_retest_capture() {
        use crate::decision::AcceptanceBand;

        let f = flow();
        let band = AcceptanceBand::new(0.03).unwrap();
        let policy = RetestPolicy::new(0.005, vec![4]).unwrap();
        let gross = BiquadParams::paper_default().with_f0_shift_pct(15.0);
        let retested = f.evaluate_with_retest(&gross, &band, &policy, 3).unwrap();
        let single = f.evaluate(&gross, 3).unwrap();
        assert_eq!(retested.report, single);
        assert!(!retested.verdict.marginal);
        assert_eq!(retested.verdict.repeats_used, 0);
        assert_eq!(retested.verdict.outcome, TestOutcome::Fail);
    }

    #[test]
    fn screening_statistics_are_consistent() {
        let f = flow();
        let band = AcceptanceBand::new(0.03).unwrap();
        let stats = f.screen_population(20, 5.0, 5.0, &band, 99).unwrap();
        assert_eq!(stats.total, 20);
        assert_eq!(stats.passed + stats.failed, 20);
        assert_eq!(stats.truly_good + stats.truly_bad, 20);
    }

    #[test]
    fn regression_estimator_recovers_signed_deviation() {
        let f = flow();
        let training: Vec<f64> = (-10..=10).map(|d| d as f64 * 2.0).collect();
        let estimator = f.train_f0_estimator(&training).unwrap();
        for true_dev in [-15.0, -7.0, 0.0, 6.0, 13.0] {
            let cut = BiquadParams::paper_default().with_f0_shift_pct(true_dev);
            let estimated = f.estimate_f0_deviation(&estimator, &cut, 77).unwrap();
            assert!(
                (estimated - true_dev).abs() < 4.0,
                "estimated {estimated}% for a true deviation of {true_dev}%"
            );
        }
    }

    #[test]
    fn with_sample_rate_validation() {
        let setup = TestSetup::paper_default().unwrap();
        assert!(setup.clone().with_sample_rate(1e3).is_err());
        assert!(setup.with_sample_rate(2e6).is_ok());
    }

    #[test]
    fn with_sample_rate_rejects_nan_and_infinite_rates() {
        // NaN fails every comparison and +inf clears any lower bound: both
        // used to be accepted, and capture then panicked on the sample grid.
        let setup = TestSetup::paper_default().unwrap();
        for rate in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(
                matches!(setup.clone().with_sample_rate(rate), Err(DsigError::InvalidConfig(_))),
                "rate {rate}"
            );
        }
    }
}
