//! Uniformly sampled waveforms.

use std::fmt;

/// Errors produced by waveform operations.
#[derive(Debug, Clone, PartialEq)]
pub enum SignalError {
    /// The operation requires two waveforms with the same sampling grid.
    GridMismatch {
        /// Number of samples of the left operand.
        left: usize,
        /// Number of samples of the right operand.
        right: usize,
    },
    /// The waveform has too few samples for the requested operation.
    TooShort {
        /// Number of samples available.
        len: usize,
        /// Minimum required.
        needed: usize,
    },
    /// An invalid parameter (non-positive sample rate, empty tone list, ...).
    InvalidParameter(String),
}

impl fmt::Display for SignalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SignalError::GridMismatch { left, right } => {
                write!(f, "sampling grids differ ({left} vs {right} samples)")
            }
            SignalError::TooShort { len, needed } => {
                write!(f, "waveform has {len} samples but {needed} are required")
            }
            SignalError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
        }
    }
}

impl std::error::Error for SignalError {}

/// A uniformly sampled real-valued waveform.
///
/// The time axis is implicit: sample `k` corresponds to `t0 + k / sample_rate`.
#[derive(Debug, Clone, PartialEq)]
pub struct Waveform {
    start_time: f64,
    sample_rate: f64,
    samples: Vec<f64>,
}

impl Waveform {
    /// Creates a waveform from raw samples.
    ///
    /// # Panics
    /// Panics if `sample_rate` is not strictly positive.
    pub fn new(start_time: f64, sample_rate: f64, samples: Vec<f64>) -> Self {
        assert!(sample_rate > 0.0, "sample rate must be positive");
        Waveform {
            start_time,
            sample_rate,
            samples,
        }
    }

    /// Samples a closure `f(t)` over `[start_time, start_time + duration)` at
    /// `sample_rate` hertz.
    pub fn from_fn(start_time: f64, duration: f64, sample_rate: f64, f: impl Fn(f64) -> f64) -> Self {
        assert!(sample_rate > 0.0, "sample rate must be positive");
        assert!(duration >= 0.0, "duration must be non-negative");
        let n = (duration * sample_rate).round() as usize;
        let samples = (0..n).map(|k| f(start_time + k as f64 / sample_rate)).collect();
        Waveform {
            start_time,
            sample_rate,
            samples,
        }
    }

    /// Builds a waveform from explicit `(time, value)` pairs that are assumed
    /// to be uniformly spaced (as produced by the transient simulator with a
    /// fixed step).
    ///
    /// # Errors
    /// Returns [`SignalError::TooShort`] when fewer than two samples are given
    /// and [`SignalError::InvalidParameter`] when times are not increasing.
    pub fn from_samples(times: &[f64], values: &[f64]) -> Result<Self, SignalError> {
        if times.len() < 2 || values.len() < 2 {
            return Err(SignalError::TooShort {
                len: times.len().min(values.len()),
                needed: 2,
            });
        }
        if times.len() != values.len() {
            return Err(SignalError::GridMismatch {
                left: times.len(),
                right: values.len(),
            });
        }
        let dt = times[1] - times[0];
        if !(dt > 0.0) {
            return Err(SignalError::InvalidParameter(
                "times must be strictly increasing".into(),
            ));
        }
        Ok(Waveform {
            start_time: times[0],
            sample_rate: 1.0 / dt,
            samples: values.to_vec(),
        })
    }

    /// The time of the first sample, seconds.
    pub fn start_time(&self) -> f64 {
        self.start_time
    }

    /// The sample rate in hertz.
    pub fn sample_rate(&self) -> f64 {
        self.sample_rate
    }

    /// The sample period in seconds.
    pub fn dt(&self) -> f64 {
        1.0 / self.sample_rate
    }

    /// The sample values.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the waveform has no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Total covered duration in seconds (`len / sample_rate`).
    pub fn duration(&self) -> f64 {
        self.samples.len() as f64 / self.sample_rate
    }

    /// The time of sample `k`.
    pub fn time_at(&self, k: usize) -> f64 {
        self.start_time + k as f64 / self.sample_rate
    }

    /// Linear interpolation of the waveform at an arbitrary time.
    ///
    /// Times outside the covered range clamp to the first/last sample.
    pub fn value_at(&self, t: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let pos = (t - self.start_time) * self.sample_rate;
        if pos <= 0.0 {
            return self.samples[0];
        }
        let idx = pos.floor() as usize;
        if idx + 1 >= self.samples.len() {
            return *self.samples.last().expect("non-empty");
        }
        let frac = pos - idx as f64;
        self.samples[idx] * (1.0 - frac) + self.samples[idx + 1] * frac
    }

    /// Resamples the waveform onto a new rate over the same time span.
    pub fn resample(&self, new_rate: f64) -> Waveform {
        assert!(new_rate > 0.0, "sample rate must be positive");
        let duration = self.duration();
        Waveform::from_fn(self.start_time, duration, new_rate, |t| self.value_at(t))
    }

    /// Minimum sample value (0.0 for an empty waveform).
    pub fn min(&self) -> f64 {
        self.samples
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
            .min(f64::INFINITY)
            .pipe_finite()
    }

    /// Maximum sample value (0.0 for an empty waveform).
    pub fn max(&self) -> f64 {
        self.samples
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
            .pipe_finite()
    }

    /// Arithmetic mean of the samples (0.0 for an empty waveform).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Root-mean-square value of the samples.
    pub fn rms(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            (self.samples.iter().map(|x| x * x).sum::<f64>() / self.samples.len() as f64).sqrt()
        }
    }

    /// Peak-to-peak amplitude.
    pub fn peak_to_peak(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.max() - self.min()
        }
    }

    /// Applies a function to every sample, returning a new waveform on the
    /// same grid.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Waveform {
        Waveform {
            start_time: self.start_time,
            sample_rate: self.sample_rate,
            samples: self.samples.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies a first-order low-pass filter with the given cutoff frequency,
    /// returning the filtered waveform on the same grid.
    ///
    /// This models the finite input bandwidth of an observation front-end
    /// (e.g. the zoning monitor): out-of-band noise is attenuated while
    /// signals well below the cutoff pass essentially unchanged. The filter
    /// state is initialized to the first sample to avoid a start-up step.
    pub fn lowpass(&self, cutoff_hz: f64) -> Waveform {
        let mut samples = self.samples.clone();
        lowpass_in_place(&mut samples, self.dt(), cutoff_hz);
        Waveform {
            start_time: self.start_time,
            sample_rate: self.sample_rate,
            samples,
        }
    }
}

/// In-place version of [`Waveform::lowpass`] over raw samples with period
/// `dt` seconds: the allocation-free primitive behind the batched capture
/// fast path. Produces bit-identical results to [`Waveform::lowpass`] (same
/// recurrence, same operation order).
///
/// # Panics
/// Panics if `cutoff_hz` is not strictly positive.
pub fn lowpass_in_place(samples: &mut [f64], dt: f64, cutoff_hz: f64) {
    lowpass_lanes_in_place([samples], dt, cutoff_hz);
}

/// [`lowpass_in_place`] over `N` independent streams in one loop, one lane
/// per stream: each lane runs the same recurrence on its own state, so each
/// stream comes out bit-identical to filtering it alone. Each update waits
/// on the previous one (a subtract, a multiply and an add), so one stream's
/// loop is bound by that latency; the lanes' chains are independent and
/// overlap, and two streams cost little more than one.
///
/// # Panics
/// Panics if `cutoff_hz` is not strictly positive, or if the streams are
/// not all of one length.
pub fn lowpass_lanes_in_place<const N: usize>(mut streams: [&mut [f64]; N], dt: f64, cutoff_hz: f64) {
    assert!(cutoff_hz > 0.0, "cutoff frequency must be positive");
    let len = streams.first().map_or(0, |stream| stream.len());
    assert!(
        streams.iter().all(|stream| stream.len() == len),
        "lowpass lanes must be streams of one length"
    );
    if len == 0 {
        return;
    }
    let alpha = lowpass_alpha(dt, cutoff_hz);
    let mut state = streams.each_ref().map(|stream| stream[0]);
    for k in 0..len {
        for (state, stream) in state.iter_mut().zip(streams.iter_mut()) {
            let x = &mut stream[k];
            *state += alpha * (*x - *state);
            *x = *state;
        }
    }
}

/// The smoothing factor of [`lowpass_in_place`]: `dt / (dt + RC)` with
/// `RC = 1 / (2π·cutoff)`.
fn lowpass_alpha(dt: f64, cutoff_hz: f64) -> f64 {
    let rc = 1.0 / (2.0 * std::f64::consts::PI * cutoff_hz);
    dt / (dt + rc)
}

/// How far apart [`lowpass_in_place`] can carry two sample streams: if the
/// streams differ by at most `gap` at every sample and the first is at most
/// `peak` in magnitude, their filtered streams (same `dt` and `cutoff_hz`)
/// differ by at most the returned value. It is `+inf` when no bound holds:
/// for a non-finite argument, or a smoothing factor `α` below `4u`.
///
/// The derivation, with `u = 2^-53`:
///
/// * **The exact filters.** In exact arithmetic the update
///   `s ← s + α·(x − s)` is a convex combination of state and input, so two
///   exact filters whose inputs differ by at most `gap` stay within `gap`
///   of each other, and each stays within its input's magnitude bound.
/// * **Each computed filter** starts exactly on its first input and then
///   rounds once per step, by
///   `ρ ≤ (2u + u²)·α·|x − s| + u·|s + m| + 2^-1075` with `m` the rounded
///   increment. The error this leaves decays by `1 − α` per step, so by
///   induction a computed filter stays within
///   `e(P) = 2P·(u/α + 5u) + 2^-1074/α` of the exact one on inputs bounded
///   by `P`, whenever `u/α ≤ 1/4`: the step bound is then at most
///   `α·e(P)`.
///
/// The result is `gap + e(peak) + e(peak + gap)`, times `1 + 2^-20` for the
/// rounding of its own evaluation.
pub fn lowpass_gap_bound(gap: f64, peak: f64, dt: f64, cutoff_hz: f64) -> f64 {
    const U: f64 = f64::EPSILON / 2.0;
    let alpha = lowpass_alpha(dt, cutoff_hz);
    if !(4.0 * U..=1.0).contains(&alpha) {
        return f64::INFINITY;
    }
    let own_rounding = |peak: f64| 2.0 * peak * (U / alpha + 5.0 * U) + f64::from_bits(1) / alpha;
    let bound = gap + own_rounding(peak) + own_rounding(peak + gap);
    if bound.is_finite() {
        bound * (1.0 + 1.0 / (1u64 << 20) as f64)
    } else {
        f64::INFINITY
    }
}

trait PipeFinite {
    fn pipe_finite(self) -> f64;
}
impl PipeFinite for f64 {
    fn pipe_finite(self) -> f64 {
        if self.is_finite() {
            self
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_samples_expected_grid() {
        let w = Waveform::from_fn(0.0, 1.0, 10.0, |t| t);
        assert_eq!(w.len(), 10);
        assert!((w.time_at(3) - 0.3).abs() < 1e-12);
        assert!((w.samples()[3] - 0.3).abs() < 1e-12);
        assert!((w.duration() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn value_at_interpolates_and_clamps() {
        let w = Waveform::new(0.0, 1.0, vec![0.0, 1.0, 2.0]);
        assert!((w.value_at(0.5) - 0.5).abs() < 1e-12);
        assert_eq!(w.value_at(-1.0), 0.0);
        assert_eq!(w.value_at(10.0), 2.0);
    }

    #[test]
    fn from_samples_roundtrip() {
        let times = vec![0.0, 0.1, 0.2, 0.3];
        let values = vec![1.0, 2.0, 3.0, 4.0];
        let w = Waveform::from_samples(&times, &values).unwrap();
        assert!((w.sample_rate() - 10.0).abs() < 1e-9);
        assert_eq!(w.samples(), &values[..]);
    }

    #[test]
    fn from_samples_rejects_bad_input() {
        assert!(Waveform::from_samples(&[0.0], &[1.0]).is_err());
        assert!(Waveform::from_samples(&[0.0, 0.1, 0.2], &[1.0, 2.0]).is_err());
        assert!(Waveform::from_samples(&[0.0, 0.0], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn statistics_on_known_signal() {
        let w = Waveform::new(0.0, 1.0, vec![-1.0, 1.0, -1.0, 1.0]);
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.rms(), 1.0);
        assert_eq!(w.min(), -1.0);
        assert_eq!(w.max(), 1.0);
        assert_eq!(w.peak_to_peak(), 2.0);
    }

    #[test]
    fn empty_waveform_statistics_are_zero() {
        let w = Waveform::new(0.0, 1.0, vec![]);
        assert!(w.is_empty());
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.rms(), 0.0);
        assert_eq!(w.value_at(1.0), 0.0);
        assert_eq!(w.peak_to_peak(), 0.0);
    }

    #[test]
    fn resample_preserves_shape() {
        let w = Waveform::from_fn(0.0, 1.0, 100.0, |t| (2.0 * std::f64::consts::PI * 2.0 * t).sin());
        let r = w.resample(1000.0);
        assert_eq!(r.len(), 1000);
        // Values at matching times agree within interpolation error.
        assert!((r.value_at(0.26) - w.value_at(0.26)).abs() < 0.01);
    }

    #[test]
    fn map_transforms_every_sample() {
        let a = Waveform::new(0.0, 1.0, vec![0.0, 1.0, 2.0]);
        let b = a.map(|x| x * 2.0);
        assert_eq!(b.samples(), &[0.0, 2.0, 4.0]);
        assert_eq!((b.start_time(), b.sample_rate()), (a.start_time(), a.sample_rate()));
    }

    #[test]
    fn lowpass_passes_slow_signals_and_attenuates_fast_ones() {
        // 1 kHz signal through a 100 kHz filter: essentially unchanged.
        let slow = Waveform::from_fn(0.0, 2e-3, 1e6, |t| (2.0 * std::f64::consts::PI * 1e3 * t).sin());
        let filtered = slow.lowpass(100e3);
        let err: f64 = slow
            .samples()
            .iter()
            .zip(filtered.samples())
            .skip(100)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(err < 0.02, "pass-band error {err}");
        // 500 kHz signal through a 50 kHz filter: strongly attenuated.
        let fast = Waveform::from_fn(0.0, 1e-4, 1e7, |t| (2.0 * std::f64::consts::PI * 500e3 * t).sin());
        let attenuated = fast.lowpass(50e3);
        let tail: Vec<f64> = attenuated.samples().iter().copied().skip(500).collect();
        let amp = tail.iter().fold(0.0_f64, |m, &v| m.max(v.abs()));
        assert!(amp < 0.15, "stop-band amplitude {amp}");
    }

    #[test]
    fn lowpass_gap_bound_covers_both_filters_rounding() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x10_0FA5);
        let dt = 5e-7;
        // Smoothing factors from about 3e-5 to about 0.97.
        for cutoff in [10.0, 1e3, 50e3, 300e3, 10e6] {
            for gap in [0.0, 1e-15, 4e-14] {
                let x: Vec<f64> = (0..4000).map(|_| rng.gen_range(-1.2..1.2)).collect();
                // The second stream sits `gap` away, in a random direction
                // per sample, or all on one side.
                let one_sided = rng.gen::<bool>();
                let shifted: Vec<f64> = x
                    .iter()
                    .map(|&v| v + if one_sided || rng.gen::<bool>() { gap } else { -gap })
                    .collect();
                let actual_gap = x.iter().zip(&shifted).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
                let peak = x.iter().fold(0.0f64, |m, v| m.max(v.abs()));
                let bound = lowpass_gap_bound(actual_gap, peak, dt, cutoff);
                let (mut a, mut b) = (x.clone(), shifted);
                lowpass_in_place(&mut a, dt, cutoff);
                lowpass_in_place(&mut b, dt, cutoff);
                let filtered_gap = a.iter().zip(&b).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
                assert!(
                    filtered_gap <= bound,
                    "cutoff {cutoff} gap {gap:e}: {filtered_gap:e} above {bound:e}"
                );
                // Each filter adds only its own rounding, about u·peak/α.
                let alpha = lowpass_alpha(dt, cutoff);
                let own = 4.0 * (peak + actual_gap) * (f64::EPSILON / 2.0) * (1.0 / alpha + 5.0);
                assert!(bound <= (actual_gap + own) * 1.001, "cutoff {cutoff}: {bound:e}");
            }
        }
        // No bound without finite inputs or with a vanishing smoothing factor.
        assert_eq!(lowpass_gap_bound(f64::NAN, 1.0, dt, 1e3), f64::INFINITY);
        assert_eq!(lowpass_gap_bound(1e-15, f64::INFINITY, dt, 1e3), f64::INFINITY);
        assert_eq!(lowpass_gap_bound(1e-15, 1.0, dt, 1e-12), f64::INFINITY);
    }

    #[test]
    fn lowpass_lanes_match_the_single_stream_filter_bit_for_bit() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x1A_4E5);
        let dt = 5e-7;
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for len in [0, 1, 2, 399, 400] {
            for cutoff in [50e3, 300e3] {
                let mut raw: [Vec<f64>; 2] =
                    std::array::from_fn(|_| (0..len).map(|_| rng.gen_range(-1.2..1.2)).collect());
                // A non-finite sample in one lane must stay in that lane.
                if len > 2 {
                    raw[1][len / 2] = f64::NAN;
                }
                let mut lanes = raw.clone();
                let [a, b] = &mut lanes;
                lowpass_lanes_in_place([a, b], dt, cutoff);
                for (lane, raw) in lanes.iter().zip(&raw) {
                    let mut alone = raw.clone();
                    lowpass_in_place(&mut alone, dt, cutoff);
                    assert_eq!(bits(lane), bits(&alone), "length {len} cutoff {cutoff}");
                    // The recurrence, spelled out.
                    let alpha = lowpass_alpha(dt, cutoff);
                    let mut state = raw.first().copied().unwrap_or_default();
                    let spelled: Vec<f64> = raw
                        .iter()
                        .map(|&x| {
                            state += alpha * (x - state);
                            state
                        })
                        .collect();
                    assert_eq!(bits(&alone), bits(&spelled), "length {len} cutoff {cutoff}");
                }
                assert!(lanes[0].iter().all(|v| v.is_finite()), "lane 1's NaN reached lane 0");
            }
        }
    }

    #[test]
    #[should_panic(expected = "streams of one length")]
    fn lowpass_lanes_reject_streams_of_unequal_length() {
        let (mut a, mut b) = (vec![0.5; 400], vec![0.5; 399]);
        lowpass_lanes_in_place([&mut a[..], &mut b[..]], 5e-7, 300e3);
    }

    #[test]
    fn lowpass_reduces_white_noise_variance() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let noisy = Waveform::new(0.0, 4e6, (0..4000).map(|_| rng.gen_range(-0.01..0.01)).collect());
        let filtered = noisy.lowpass(300e3);
        assert!(
            filtered.rms() < 0.6 * noisy.rms(),
            "rms {} vs {}",
            filtered.rms(),
            noisy.rms()
        );
    }

    #[test]
    fn error_display() {
        let e = SignalError::GridMismatch { left: 3, right: 2 };
        assert!(e.to_string().contains("3"));
        let e = SignalError::TooShort { len: 1, needed: 2 };
        assert!(e.to_string().contains("1"));
        let e = SignalError::InvalidParameter("x".into());
        assert!(e.to_string().contains("x"));
    }
}
