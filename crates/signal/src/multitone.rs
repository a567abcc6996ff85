//! Multitone stimulus generation.
//!
//! The paper composes the CUT response with a *multitone* input signal whose
//! tones are harmonically related, so the resulting Lissajous curve is
//! periodic with the fundamental period (§II).

use crate::waveform::{SignalError, Waveform};

/// One tone of a multitone stimulus.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ToneSpec {
    /// Harmonic index relative to the fundamental (1 = fundamental).
    pub harmonic: u32,
    /// Peak amplitude in volts.
    pub amplitude: f64,
    /// Initial phase in radians.
    pub phase_rad: f64,
}

impl ToneSpec {
    /// Creates a tone at the given harmonic with zero phase.
    pub fn new(harmonic: u32, amplitude: f64) -> Self {
        ToneSpec {
            harmonic,
            amplitude,
            phase_rad: 0.0,
        }
    }

    /// Returns a copy with the given phase (radians).
    pub fn with_phase(mut self, phase_rad: f64) -> Self {
        self.phase_rad = phase_rad;
        self
    }
}

/// A multitone stimulus: a DC offset plus harmonically related sinusoids.
///
/// # Examples
/// ```
/// use sim_signal::{MultitoneSpec, ToneSpec};
/// let stim = MultitoneSpec::new(5_000.0, 0.5, vec![
///     ToneSpec::new(1, 0.25),
///     ToneSpec::new(3, 0.15),
/// ]).expect("valid stimulus");
/// assert!((stim.period() - 2e-4).abs() < 1e-12);
/// assert!((stim.value(0.0) - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MultitoneSpec {
    fundamental_hz: f64,
    offset: f64,
    tones: Vec<ToneSpec>,
}

impl MultitoneSpec {
    /// Creates a multitone specification.
    ///
    /// # Errors
    /// Returns [`SignalError::InvalidParameter`] if the fundamental is not
    /// positive, the tone list is empty, or any harmonic index is zero.
    pub fn new(fundamental_hz: f64, offset: f64, tones: Vec<ToneSpec>) -> Result<Self, SignalError> {
        if !(fundamental_hz > 0.0) {
            return Err(SignalError::InvalidParameter(format!(
                "fundamental frequency must be positive (got {fundamental_hz})"
            )));
        }
        if tones.is_empty() {
            return Err(SignalError::InvalidParameter("at least one tone is required".into()));
        }
        if tones.iter().any(|t| t.harmonic == 0) {
            return Err(SignalError::InvalidParameter("harmonic indices start at 1".into()));
        }
        Ok(MultitoneSpec {
            fundamental_hz,
            offset,
            tones,
        })
    }

    /// The stimulus used throughout the paper reproduction: a 5 kHz
    /// fundamental plus 3rd and 5th harmonics, centred at 0.5 V so that the
    /// composed Lissajous stays inside the `[0, 1] V x [0, 1] V` window of
    /// Fig. 1 and Fig. 6. The fundamental period is 200 µs, matching the time
    /// axis of Fig. 7.
    pub fn paper_default() -> Self {
        MultitoneSpec {
            fundamental_hz: 5_000.0,
            offset: 0.5,
            tones: vec![
                ToneSpec::new(1, 0.28),
                ToneSpec::new(3, 0.14).with_phase(std::f64::consts::FRAC_PI_3),
                ToneSpec::new(5, 0.07).with_phase(std::f64::consts::FRAC_PI_6),
            ],
        }
    }

    /// The fundamental frequency in hertz.
    pub fn fundamental_hz(&self) -> f64 {
        self.fundamental_hz
    }

    /// The DC offset in volts.
    pub fn offset(&self) -> f64 {
        self.offset
    }

    /// The tone list.
    pub fn tones(&self) -> &[ToneSpec] {
        &self.tones
    }

    /// The period of the composite signal (one fundamental period), seconds.
    pub fn period(&self) -> f64 {
        1.0 / self.fundamental_hz
    }

    /// Highest tone frequency present in the stimulus, hertz.
    pub fn max_frequency(&self) -> f64 {
        let max_h = self.tones.iter().map(|t| t.harmonic).max().unwrap_or(1);
        self.fundamental_hz * max_h as f64
    }

    /// Instantaneous value at time `t` seconds.
    pub fn value(&self, t: f64) -> f64 {
        let w0 = 2.0 * std::f64::consts::PI * self.fundamental_hz;
        self.offset
            + self
                .tones
                .iter()
                .map(|tone| tone.amplitude * (w0 * tone.harmonic as f64 * t + tone.phase_rad).sin())
                .sum::<f64>()
    }

    /// Samples one period (or `periods` periods) at `sample_rate` hertz.
    pub fn sample(&self, periods: u32, sample_rate: f64) -> Waveform {
        Waveform::from_fn(0.0, self.period() * periods as f64, sample_rate, |t| self.value(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_invalid_specs() {
        assert!(MultitoneSpec::new(0.0, 0.5, vec![ToneSpec::new(1, 0.1)]).is_err());
        assert!(MultitoneSpec::new(1e3, 0.5, vec![]).is_err());
        assert!(MultitoneSpec::new(1e3, 0.5, vec![ToneSpec::new(0, 0.1)]).is_err());
    }

    #[test]
    fn paper_default_period_is_200us() {
        let s = MultitoneSpec::paper_default();
        assert!((s.period() - 200e-6).abs() < 1e-12);
        assert_eq!(s.fundamental_hz(), 5000.0);
        assert_eq!(s.max_frequency(), 25_000.0);
    }

    #[test]
    fn paper_default_stays_in_unit_window() {
        let s = MultitoneSpec::paper_default();
        let w = s.sample(1, 5.0e6);
        assert!(w.min() >= 0.0, "min {}", w.min());
        assert!(w.max() <= 1.0, "max {}", w.max());
        // Should use a good fraction of the window.
        assert!(w.peak_to_peak() > 0.5);
    }

    #[test]
    fn value_is_periodic_with_fundamental() {
        let s = MultitoneSpec::paper_default();
        let t = 37.3e-6;
        assert!((s.value(t) - s.value(t + s.period())).abs() < 1e-9);
    }

    #[test]
    fn sampling_matches_value() {
        let s = MultitoneSpec::new(1e3, 0.2, vec![ToneSpec::new(1, 0.1), ToneSpec::new(2, 0.05)]).unwrap();
        let w = s.sample(2, 1e6);
        assert_eq!(w.len(), 2000);
        let k = 731;
        assert!((w.samples()[k] - s.value(w.time_at(k))).abs() < 1e-12);
    }

    #[test]
    fn amplitude_sum_and_offset() {
        let s = MultitoneSpec::new(1e3, 0.4, vec![ToneSpec::new(1, 0.1), ToneSpec::new(3, 0.2)]).unwrap();
        let amplitude_sum: f64 = s.tones().iter().map(|t| t.amplitude).sum();
        assert!((amplitude_sum - 0.3).abs() < 1e-12);
        assert_eq!(s.offset(), 0.4);
        assert_eq!(s.tones().len(), 2);
    }

    #[test]
    fn tone_builder_sets_phase() {
        let t = ToneSpec::new(2, 0.3).with_phase(1.0);
        assert_eq!(t.harmonic, 2);
        assert_eq!(t.phase_rad, 1.0);
    }
}
