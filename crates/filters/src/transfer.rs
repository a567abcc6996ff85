//! Second-order (Biquad) transfer functions.
//!
//! The circuit under test in the paper is a Biquad low-pass filter whose
//! natural frequency `f0` is the parameter being verified. This module
//! provides the continuous-time transfer function, its frequency response and
//! the exact steady-state response to a multitone stimulus (a linear filter
//! driven by a sum of sinusoids responds with the same sinusoids scaled and
//! phase-shifted by `H(jw)`).
//!
//! The response has two syntheses. The reference,
//! [`BiquadParams::steady_state_response_into`], calls `sin` once per tone
//! and sample. The certified one,
//! [`BiquadParams::steady_state_response_on_grid`], reads each tone's sine
//! and cosine from a per-stimulus [`ToneGrid`] and returns a proven bound on
//! its distance from the reference.

use sim_signal::{MultitoneSpec, ToneSpec, Waveform};
use sim_spice::Complex;

use crate::error::{FilterError, Result};

/// The Biquad output tap being observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BiquadKind {
    /// Low-pass output (the paper's CUT observation).
    #[default]
    LowPass,
    /// Band-pass output.
    BandPass,
    /// High-pass output.
    HighPass,
}

impl std::fmt::Display for BiquadKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BiquadKind::LowPass => write!(f, "low-pass"),
            BiquadKind::BandPass => write!(f, "band-pass"),
            BiquadKind::HighPass => write!(f, "high-pass"),
        }
    }
}

/// Parameters of a second-order filter section.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BiquadParams {
    /// Natural frequency `f0` in hertz.
    pub f0_hz: f64,
    /// Quality factor `Q`.
    pub q: f64,
    /// Pass-band gain (DC gain for the low-pass output).
    pub gain: f64,
    /// Which output tap is observed.
    pub kind: BiquadKind,
}

impl BiquadParams {
    /// Creates a filter parameter set.
    ///
    /// # Errors
    /// Returns [`FilterError::InvalidParameter`] if `f0`, `Q` or the gain are
    /// not strictly positive and finite.
    pub fn new(f0_hz: f64, q: f64, gain: f64, kind: BiquadKind) -> Result<Self> {
        for (name, v) in [("f0", f0_hz), ("Q", q), ("gain", gain)] {
            if !(v > 0.0) || !v.is_finite() {
                return Err(FilterError::InvalidParameter(format!(
                    "{name} must be positive and finite (got {v})"
                )));
            }
        }
        Ok(BiquadParams { f0_hz, q, gain, kind })
    }

    /// The nominal CUT of the reproduction: a low-pass Biquad with
    /// `f0 = 15 kHz`, `Q = 1` and unity DC gain. With the paper-default
    /// multitone stimulus (5 kHz fundamental plus 3rd and 5th harmonics) the
    /// third harmonic sits exactly at `f0`, which makes the Lissajous
    /// composition highly sensitive to `f0` deviations — the property the
    /// paper's experiment relies on.
    pub fn paper_default() -> Self {
        BiquadParams {
            f0_hz: 15_000.0,
            q: 1.0,
            gain: 1.0,
            kind: BiquadKind::LowPass,
        }
    }

    /// Angular natural frequency `w0 = 2 pi f0` in rad/s.
    pub fn omega0(&self) -> f64 {
        2.0 * std::f64::consts::PI * self.f0_hz
    }

    /// Returns a copy with the natural frequency shifted by `percent` %
    /// (the deviation swept in Fig. 8).
    pub fn with_f0_shift_pct(&self, percent: f64) -> Self {
        BiquadParams {
            f0_hz: self.f0_hz * (1.0 + percent / 100.0),
            ..*self
        }
    }

    /// Returns a copy with the quality factor shifted by `percent` %.
    pub fn with_q_shift_pct(&self, percent: f64) -> Self {
        BiquadParams {
            q: self.q * (1.0 + percent / 100.0),
            ..*self
        }
    }

    /// Relative deviation of this filter's `f0` from a reference, in percent.
    pub fn f0_deviation_pct(&self, reference: &BiquadParams) -> f64 {
        (self.f0_hz / reference.f0_hz - 1.0) * 100.0
    }

    /// Complex transfer function `H(j 2 pi f)` at frequency `f` hertz.
    pub fn response(&self, frequency_hz: f64) -> Complex {
        let w0 = self.omega0();
        let s = Complex::from_imag(2.0 * std::f64::consts::PI * frequency_hz);
        let denom = s * s + s * Complex::from_real(w0 / self.q) + Complex::from_real(w0 * w0);
        let numer = match self.kind {
            BiquadKind::LowPass => Complex::from_real(self.gain * w0 * w0),
            BiquadKind::BandPass => s * Complex::from_real(self.gain * w0 / self.q),
            BiquadKind::HighPass => s * s * Complex::from_real(self.gain),
        };
        numer / denom
    }

    /// Magnitude of the frequency response at `f` hertz.
    pub fn magnitude(&self, frequency_hz: f64) -> f64 {
        self.response(frequency_hz).abs()
    }

    /// Exact steady-state response of the filter to a multitone stimulus,
    /// sampled at `sample_rate` hertz over `periods` fundamental periods.
    ///
    /// Each tone of the stimulus is scaled by `|H|` and shifted by `arg H`;
    /// the DC offset is scaled by `H(0)`.
    pub fn steady_state_response(&self, stimulus: &MultitoneSpec, periods: u32, sample_rate: f64) -> Waveform {
        let mut samples = Vec::new();
        self.steady_state_response_into(stimulus, periods, sample_rate, &mut samples);
        Waveform::new(0.0, sample_rate, samples)
    }

    /// Like [`BiquadParams::steady_state_response`], but synthesizes into a
    /// caller-owned buffer (cleared first). This is the allocation-free
    /// primitive behind the batched capture fast path; the sample values are
    /// bit-identical to the waveform-returning variant (same grid, same
    /// operation order).
    pub fn steady_state_response_into(
        &self,
        stimulus: &MultitoneSpec,
        periods: u32,
        sample_rate: f64,
        out: &mut Vec<f64>,
    ) {
        assert!(sample_rate > 0.0, "sample rate must be positive");
        let tones: Vec<(f64, f64, f64)> = stimulus
            .tones()
            .iter()
            .map(|tone| {
                let (amplitude, phase) = self.tone_output(stimulus, tone);
                (amplitude, angular_frequency(stimulus, tone), phase)
            })
            .collect();
        let offset = self.offset_output(stimulus);
        out.clear();
        out.extend(
            sample_times(stimulus, periods, sample_rate)
                .map(|t| offset + tones.iter().map(|&(a, w, p)| a * (w * t + p).sin()).sum::<f64>()),
        );
    }

    /// The certified fast counterpart of
    /// [`BiquadParams::steady_state_response_into`]: synthesizes the
    /// response on `grid`'s samples into `out` (cleared first) and returns a
    /// bound E such that every sample is within E of the reference's sample,
    /// assuming only that libm `sin` and `cos` are within one ulp.
    ///
    /// Each tone's output `a·sin(θ + p)` is expanded as
    /// `(a·cos p)·sin θ + (a·sin p)·cos θ`, with `sin θ` and `cos θ` read
    /// from the grid: two multiply-adds per tone and sample, and two libm
    /// calls per tone per device instead of one per tone and sample.
    ///
    /// The returned E is `+inf` or NaN when no bound holds: for a non-finite
    /// amplitude, phase or offset, or magnitudes near the `f64` range. A
    /// finite E also guarantees that every sample of `out` and of the
    /// reference is finite. The derivation, with `u = 2^-53` and tone `i` of
    /// output amplitude `a_i`, phase `p_i` and largest grid angle `Θ_i`:
    ///
    /// * **The reference's tone term** `fl(a·sin(fl(θ + p)))`. The argument
    ///   rounds by at most `u·(Θ + |p|)`, and `sin` is 1-Lipschitz; libm adds
    ///   at most one ulp of a value in `[-1, 1]`, `2u`; the product rounds
    ///   by at most `u·|a|·(1 + 2u)`. In all, `|a|·u·(Θ + |p| + 3 + 2u)`.
    ///   This argument-rounding term is the one that grows with the
    ///   harmonic index: the fast path never rounds `θ + p`.
    /// * **The fast tone term** `fl(fl(α·S) + fl(β·C))`, with
    ///   `α = fl(a·cos p)`, `β = fl(a·sin p)` and the grid's `S`, `C`. The
    ///   table's libm errors contribute `2u·|a|·(|cos p| + |sin p|) ≤
    ///   2.83u·|a|`. The coefficients' errors (libm plus one rounding each,
    ///   `|a|·u·(3 + 2u)`) times `|S|, |C| ≤ 1 + 2u` contribute `6u·|a|`.
    ///   The two products and the sum round by at most
    ///   `(2u + u²)·(|α·S| + |β·C|) ≤ 2u·|a|·(1 + 8u)` (Cauchy–Schwarz). In
    ///   all, under `10.9u·|a|`.
    /// * **Per tone**, the two terms differ by at most
    ///   `|a_i|·u·(16 + Θ_i + |p_i|)`; the constant leaves more than
    ///   `2u·|a_i|` for the second-order terms.
    /// * **The sums.** Both paths add the offset and `n` tone terms
    ///   recursively, in different orders, each term of magnitude at most
    ///   `1.01·|a_i|`. Recursive summation errs by at most
    ///   `γ_n·Σ|terms| ≤ 1.01·n·u·M` per path, with
    ///   `M = |offset| + 2·Σ|a_i|`: `2.02·n·u·M` for both.
    /// * **Underflow.** Each of the five products per tone may underflow,
    ///   erring by at most `2^-1075` more (counted as `2^-1074`); additions
    ///   underflow exactly.
    /// * **Overflow.** Every intermediate of both paths is at most about
    ///   `M`, so a bound is returned only for `M ≤ f64::MAX / 4` (and at
    ///   most `2^20` tones, which keeps `γ_n` below `1.01·n·u`).
    ///
    /// E is the sum of these terms times `1 + 2^-20`, a margin far above
    /// the rounding of E's own evaluation (under `(3n + 10)·u` relative).
    pub fn steady_state_response_on_grid(&self, grid: &ToneGrid, out: &mut Vec<f64>) -> f64 {
        let stimulus = &grid.stimulus;
        let n = grid.samples;
        let offset = self.offset_output(stimulus);
        out.clear();
        out.resize(n, offset);
        let (mut weighted, mut amplitudes) = (0.0, 0.0);
        for (i, tone) in stimulus.tones().iter().enumerate() {
            let (amplitude, phase) = self.tone_output(stimulus, tone);
            let (sin_p, cos_p) = phase.sin_cos();
            let (of_sin, of_cos) = (amplitude * cos_p, amplitude * sin_p);
            let tone_samples = i * n..(i + 1) * n;
            let (sin, cos) = (&grid.sin[tone_samples.clone()], &grid.cos[tone_samples]);
            for ((y, &s), &c) in out.iter_mut().zip(sin).zip(cos) {
                *y += of_sin * s + of_cos * c;
            }
            weighted += amplitude.abs() * (16.0 + grid.max_angle[i] + phase.abs());
            amplitudes += amplitude.abs();
        }
        let tones = stimulus.tones().len() as f64;
        let magnitude = offset.abs() + 2.0 * amplitudes;
        if !(magnitude <= f64::MAX / 4.0) || tones > TONE_LIMIT {
            return f64::INFINITY;
        }
        let bound = UNIT_ROUNDOFF * (weighted + 2.02 * tones * magnitude) + 5.0 * tones * SMALLEST_SUBNORMAL;
        bound * (1.0 + BOUND_MARGIN)
    }

    /// The steady-state output amplitude and phase of one stimulus tone:
    /// `tone.amplitude·|H|` and `tone.phase_rad + arg H` at the tone's
    /// frequency. Both response syntheses take every tone from here, so
    /// they agree on it bit for bit.
    fn tone_output(&self, stimulus: &MultitoneSpec, tone: &ToneSpec) -> (f64, f64) {
        let h = self.response(stimulus.fundamental_hz() * tone.harmonic as f64);
        (tone.amplitude * h.abs(), tone.phase_rad + h.arg())
    }

    /// The steady-state output of the stimulus offset: `offset·H(0)`.
    fn offset_output(&self, stimulus: &MultitoneSpec) -> f64 {
        stimulus.offset() * self.response(0.0).re
    }
}

/// The unit roundoff of `f64` arithmetic, `2^-53`.
const UNIT_ROUNDOFF: f64 = f64::EPSILON / 2.0;

/// The smallest subnormal, `2^-1074`: more than an underflowing product can
/// err by beyond its relative rounding (`2^-1075`).
const SMALLEST_SUBNORMAL: f64 = f64::from_bits(1);

/// Relative margin on a certified bound, covering the rounding of its own
/// evaluation.
const BOUND_MARGIN: f64 = 1.0 / (1u64 << 20) as f64;

/// Tone count above which [`BiquadParams::steady_state_response_on_grid`]
/// returns no bound.
const TONE_LIMIT: f64 = (1u64 << 20) as f64;

/// The angular frequency of a stimulus tone, `2π·f_fundamental·harmonic`,
/// as both response syntheses form it.
fn angular_frequency(stimulus: &MultitoneSpec, tone: &ToneSpec) -> f64 {
    2.0 * std::f64::consts::PI * stimulus.fundamental_hz() * tone.harmonic as f64
}

/// The sample instants of a response synthesis: `k / sample_rate` for each
/// of the `round(period·periods·sample_rate)` samples.
fn sample_times(stimulus: &MultitoneSpec, periods: u32, sample_rate: f64) -> impl ExactSizeIterator<Item = f64> {
    let n = (stimulus.period() * periods as f64 * sample_rate).round() as usize;
    (0..n).map(move |k| k as f64 / sample_rate)
}

/// The sine and cosine of every tone's angle `θ = fl(ω·t_k)` on a response
/// sample grid, formed exactly as [`BiquadParams::steady_state_response_into`]
/// forms it: the per-stimulus tables of
/// [`BiquadParams::steady_state_response_on_grid`].
///
/// Building a grid costs one `sin` and one `cos` per tone and sample; every
/// device synthesized on it then costs two per tone. At 2 MS/s the paper's
/// three-tone stimulus makes 400 samples and about 19 KB of tables.
#[derive(Debug, Clone)]
pub struct ToneGrid {
    stimulus: MultitoneSpec,
    samples: usize,
    /// Per tone, the largest `|θ|` on the grid (`+inf` if some θ is not
    /// finite).
    max_angle: Vec<f64>,
    /// `sin θ`, tone-major: `samples` values per tone.
    sin: Vec<f64>,
    /// `cos θ`, laid out like `sin`.
    cos: Vec<f64>,
}

impl ToneGrid {
    /// Tabulates `stimulus`'s tones over `periods` fundamental periods at
    /// `sample_rate` hertz: the grid of
    /// [`BiquadParams::steady_state_response_into`] with the same arguments.
    ///
    /// # Panics
    /// Panics if `sample_rate` is not strictly positive.
    pub fn new(stimulus: &MultitoneSpec, periods: u32, sample_rate: f64) -> Self {
        assert!(sample_rate > 0.0, "sample rate must be positive");
        let times: Vec<f64> = sample_times(stimulus, periods, sample_rate).collect();
        let mut grid = ToneGrid {
            stimulus: stimulus.clone(),
            samples: times.len(),
            max_angle: Vec::with_capacity(stimulus.tones().len()),
            sin: Vec::with_capacity(stimulus.tones().len() * times.len()),
            cos: Vec::with_capacity(stimulus.tones().len() * times.len()),
        };
        for tone in stimulus.tones() {
            let w = angular_frequency(stimulus, tone);
            let mut max_angle = 0.0f64;
            for &t in &times {
                let angle = w * t;
                // A non-finite angle leaves the tone without a bound.
                max_angle = max_angle.max(if angle.is_finite() { angle.abs() } else { f64::INFINITY });
                let (sin, cos) = angle.sin_cos();
                grid.sin.push(sin);
                grid.cos.push(cos);
            }
            grid.max_angle.push(max_angle);
        }
        grid
    }

    /// Number of samples a response synthesized on this grid has.
    pub fn len(&self) -> usize {
        self.samples
    }

    /// Whether the grid has no samples.
    pub fn is_empty(&self) -> bool {
        self.samples == 0
    }
}

impl Default for BiquadParams {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_invalid_parameters() {
        assert!(BiquadParams::new(0.0, 1.0, 1.0, BiquadKind::LowPass).is_err());
        assert!(BiquadParams::new(1e3, -1.0, 1.0, BiquadKind::LowPass).is_err());
        assert!(BiquadParams::new(1e3, 1.0, f64::NAN, BiquadKind::LowPass).is_err());
        assert!(BiquadParams::new(1e3, 0.707, 1.0, BiquadKind::LowPass).is_ok());
    }

    #[test]
    fn lowpass_dc_gain_and_resonance() {
        let p = BiquadParams::paper_default();
        assert!((p.magnitude(0.0) - 1.0).abs() < 1e-12);
        // At f0 the low-pass magnitude equals Q * gain.
        assert!((p.magnitude(p.f0_hz) - p.q * p.gain).abs() < 1e-9);
        // Far above f0 the response rolls off.
        assert!(p.magnitude(10.0 * p.f0_hz) < 0.02);
    }

    #[test]
    fn bandpass_peaks_at_f0_and_highpass_passes_high() {
        let bp = BiquadParams::new(10e3, 2.0, 1.0, BiquadKind::BandPass).unwrap();
        assert!((bp.magnitude(10e3) - 1.0).abs() < 1e-9);
        assert!(bp.magnitude(1e3) < 0.3);
        assert!(bp.magnitude(100e3) < 0.3);
        let hp = BiquadParams::new(10e3, 0.707, 1.0, BiquadKind::HighPass).unwrap();
        assert!(hp.magnitude(1e3) < 0.02);
        assert!((hp.magnitude(1e6) - 1.0).abs() < 1e-3);
        assert_eq!(BiquadKind::LowPass.to_string(), "low-pass");
    }

    #[test]
    fn f0_shift_scales_frequency() {
        let p = BiquadParams::paper_default();
        let shifted = p.with_f0_shift_pct(10.0);
        assert!((shifted.f0_hz - 16_500.0).abs() < 1e-9);
        assert!((shifted.f0_deviation_pct(&p) - 10.0).abs() < 1e-9);
        let down = p.with_f0_shift_pct(-20.0);
        assert!((down.f0_deviation_pct(&p) + 20.0).abs() < 1e-9);
    }

    #[test]
    fn q_shift_scales_quality_factor() {
        let p = BiquadParams::paper_default();
        let shifted = p.with_q_shift_pct(25.0);
        assert!((shifted.q - 1.25).abs() < 1e-12);
        assert_eq!(shifted.f0_hz, p.f0_hz);
    }

    #[test]
    fn cutoff_frequency_for_butterworth_q_equals_f0() {
        // With Q = 1/sqrt(2) (Butterworth), the -3 dB point is exactly f0.
        let p = BiquadParams::new(10e3, std::f64::consts::FRAC_1_SQRT_2, 1.0, BiquadKind::LowPass).unwrap();
        let gain = p.magnitude(10e3);
        assert!(
            (gain - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-12,
            "gain at f0 {gain}"
        );
    }

    #[test]
    fn phase_is_minus_90_degrees_at_f0() {
        let p = BiquadParams::paper_default();
        assert!((p.response(p.f0_hz).arg() + std::f64::consts::FRAC_PI_2).abs() < 1e-9);
    }

    #[test]
    fn steady_state_response_matches_single_tone_theory() {
        let p = BiquadParams::paper_default();
        let stim = MultitoneSpec::paper_default();
        let y = p.steady_state_response(&stim, 1, 5e6);
        // The mean of the output equals the offset times the DC gain.
        assert!((y.mean() - 0.5).abs() < 1e-3, "mean {}", y.mean());
        // The output stays inside the observation window.
        assert!(y.min() > 0.0 && y.max() < 1.0, "range [{}, {}]", y.min(), y.max());
    }

    #[test]
    fn f0_shift_changes_the_steady_state_output() {
        let stim = MultitoneSpec::paper_default();
        let golden = BiquadParams::paper_default().steady_state_response(&stim, 1, 1e6);
        let shifted = BiquadParams::paper_default()
            .with_f0_shift_pct(10.0)
            .steady_state_response(&stim, 1, 1e6);
        let rms = sim_signal::normalized_rms_error(&golden, &shifted).unwrap() * golden.peak_to_peak();
        assert!(rms > 0.005, "a 10% f0 shift must visibly change the output (rms {rms})");
    }

    #[test]
    fn default_is_paper_default() {
        assert_eq!(BiquadParams::default(), BiquadParams::paper_default());
    }

    #[test]
    fn reference_synthesis_is_the_direct_formula_bit_for_bit() {
        // The reference takes its tones from the shared helpers; its samples
        // must still be offset·H(0) + Σ a·sin(ω·t + p), formed term by term.
        let stim = MultitoneSpec::paper_default();
        let rate = 2e6;
        for kind in [BiquadKind::LowPass, BiquadKind::BandPass, BiquadKind::HighPass] {
            let cut = BiquadParams::new(15_000.0, 0.8, 1.3, kind)
                .unwrap()
                .with_f0_shift_pct(-7.0);
            let mut y = Vec::new();
            cut.steady_state_response_into(&stim, 2, rate, &mut y);
            assert_eq!(y.len(), 800);
            let w0 = 2.0 * std::f64::consts::PI * stim.fundamental_hz();
            for (k, &yk) in y.iter().enumerate() {
                let t = k as f64 / rate;
                let sum: f64 = stim
                    .tones()
                    .iter()
                    .map(|tone| {
                        let h = cut.response(stim.fundamental_hz() * tone.harmonic as f64);
                        tone.amplitude * h.abs() * (w0 * tone.harmonic as f64 * t + (tone.phase_rad + h.arg())).sin()
                    })
                    .sum();
                assert_eq!(
                    yk.to_bits(),
                    (stim.offset() * cut.response(0.0).re + sum).to_bits(),
                    "{kind} {k}"
                );
            }
        }
    }

    /// The largest sample gap between the certified and the reference
    /// synthesis of `cut`, the certified bound, and the same two after a
    /// first-order low-pass at `cutoff_hz`.
    fn gaps(cut: &BiquadParams, stim: &MultitoneSpec, rate: f64, cutoff_hz: f64) -> [f64; 4] {
        let grid = ToneGrid::new(stim, 1, rate);
        let (mut fast, mut exact) = (Vec::new(), Vec::new());
        let bound = cut.steady_state_response_on_grid(&grid, &mut fast);
        cut.steady_state_response_into(stim, 1, rate, &mut exact);
        assert_eq!(fast.len(), exact.len());
        let largest = |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
        let gap = largest(&fast, &exact);
        let peak = fast.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let dt = 1.0 / rate;
        sim_signal::lowpass_in_place(&mut fast, dt, cutoff_hz);
        sim_signal::lowpass_in_place(&mut exact, dt, cutoff_hz);
        let filtered_bound = sim_signal::lowpass_gap_bound(bound, peak, dt, cutoff_hz);
        [gap, bound, largest(&fast, &exact), filtered_bound]
    }

    #[test]
    fn certified_bound_holds_where_argument_rounding_dominates() {
        // One high harmonic makes ω·t large, so the reference's rounding of
        // ω·t + p dominates the bound: the regime where the bound is tight.
        let mut tightest: f64 = 0.0;
        for harmonic in [50, 73, 100, 150, 200, 299, 400] {
            for (i, phase) in [-7.5, -2.0, 0.0, 1.0, 3.5, 9.0].into_iter().enumerate() {
                let stim =
                    MultitoneSpec::new(5_000.0, 0.45, vec![ToneSpec::new(harmonic, 0.3).with_phase(phase)]).unwrap();
                let rate = 5e6 * (1 + harmonic / 100) as f64;
                let kind = [BiquadKind::LowPass, BiquadKind::BandPass, BiquadKind::HighPass][i % 3];
                let f0 = stim.fundamental_hz() * harmonic as f64 * (0.8 + 0.1 * i as f64);
                let cut = BiquadParams::new(f0, 0.5 + 0.4 * i as f64, 1.5, kind).unwrap();
                let [gap, bound, filtered_gap, filtered_bound] = gaps(&cut, &stim, rate, 3.0 * f0);
                assert!(
                    gap <= bound,
                    "harmonic {harmonic} phase {phase}: gap {gap:e} above {bound:e}"
                );
                assert!(
                    filtered_gap <= filtered_bound,
                    "harmonic {harmonic} phase {phase}: filtered gap {filtered_gap:e} above {filtered_bound:e}"
                );
                tightest = tightest.max(gap / bound).max(filtered_gap / filtered_bound);
            }
        }
        // The bound is not vacuous: some gap comes close to it.
        assert!(tightest > 0.5, "largest gap is {tightest} of the bound");
    }

    #[test]
    fn certified_bound_holds_on_the_paper_stimulus() {
        let stim = MultitoneSpec::paper_default();
        for deviation in [-20.0, -6.5, 0.0, 3.25, 20.0] {
            for kind in [BiquadKind::LowPass, BiquadKind::BandPass, BiquadKind::HighPass] {
                let cut = BiquadParams::new(15_000.0, 1.0, 1.0, kind)
                    .unwrap()
                    .with_f0_shift_pct(deviation);
                for rate in [1e6, 2e6, 5e6] {
                    let [gap, bound, filtered_gap, filtered_bound] = gaps(&cut, &stim, rate, 300e3);
                    assert!(
                        gap <= bound && filtered_gap <= filtered_bound,
                        "{kind} {deviation} {rate}"
                    );
                    assert!(bound < 1e-14 && filtered_bound < 2e-14, "{bound:e} {filtered_bound:e}");
                }
            }
        }
    }

    #[test]
    fn certified_bound_is_not_finite_without_finite_inputs() {
        let cut = BiquadParams::paper_default();
        let mut y = Vec::new();
        for tone in [
            ToneSpec::new(1, f64::NAN),
            ToneSpec::new(1, f64::INFINITY),
            ToneSpec::new(1, 0.3).with_phase(f64::INFINITY),
            ToneSpec::new(1, 0.3).with_phase(f64::NAN),
            ToneSpec::new(1, 1e308),
        ] {
            let stim = MultitoneSpec::new(5_000.0, 0.5, vec![tone]).unwrap();
            let bound = cut.steady_state_response_on_grid(&ToneGrid::new(&stim, 1, 1e6), &mut y);
            assert!(!bound.is_finite(), "{tone:?} gave {bound:e}");
        }
        let stim = MultitoneSpec::new(5_000.0, f64::NAN, vec![ToneSpec::new(1, 0.3)]).unwrap();
        let bound = cut.steady_state_response_on_grid(&ToneGrid::new(&stim, 1, 1e6), &mut y);
        assert!(!bound.is_finite());
        // ω·t overflows: the grid's angles are not finite.
        let stim = MultitoneSpec::new(1e307, 0.5, vec![ToneSpec::new(3, 0.3)]).unwrap();
        let bound = cut.steady_state_response_on_grid(&ToneGrid::new(&stim, 1, 5e307), &mut y);
        assert_eq!(y.len(), 5);
        assert!(!bound.is_finite() && y.iter().any(|v| !v.is_finite()));
    }

    #[test]
    fn tone_grid_matches_the_reference_grid() {
        let stim = MultitoneSpec::paper_default();
        let grid = ToneGrid::new(&stim, 3, 2e6);
        assert_eq!(grid.len(), 1200);
        assert!(!grid.is_empty());
        let mut y = Vec::new();
        let bound = BiquadParams::paper_default().steady_state_response_on_grid(&grid, &mut y);
        assert_eq!(
            y.len(),
            BiquadParams::paper_default().steady_state_response(&stim, 3, 2e6).len()
        );
        assert!(bound.is_finite() && bound > 0.0);
    }
}
