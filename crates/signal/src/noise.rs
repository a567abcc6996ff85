//! Measurement-noise injection.
//!
//! §IV-C of the paper evaluates the test robustness with "high frequency
//! white noise on the signals with null mean and a 3σ spread of 0.015 V".
//! [`NoiseModel::paper_default`] reproduces exactly that setting.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::waveform::Waveform;

/// One standard-normal draw via the Box-Muller transform (two uniforms, one
/// cosine branch). This is *the* Gaussian convention of the workspace: noise
/// injection, monitor Monte-Carlo variation and population screening all draw
/// through it, so their streams stay bit-identical to one another for a given
/// generator state.
pub fn standard_normal(rng: &mut impl Rng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    box_muller(u1, u2)
}

/// The Box-Muller transform of one pair of uniforms, `u1` in
/// `[MIN_POSITIVE, 1)` and `u2` in `[0, 1)`.
fn box_muller(u1: f64, u2: f64) -> f64 {
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Additive white Gaussian noise applied to observed signals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseModel {
    /// Standard deviation of the noise in volts.
    pub sigma: f64,
    /// Mean value of the noise in volts (the paper uses 0).
    pub mean: f64,
}

impl NoiseModel {
    /// Creates a zero-mean noise model with the given standard deviation.
    pub fn new(sigma: f64) -> Self {
        NoiseModel { sigma, mean: 0.0 }
    }

    /// The paper's noise setting: null mean and a 3σ spread of 0.015 V,
    /// i.e. σ = 5 mV.
    pub fn paper_default() -> Self {
        NoiseModel {
            sigma: 0.015 / 3.0,
            mean: 0.0,
        }
    }

    /// A noiseless model (σ = 0).
    pub fn none() -> Self {
        NoiseModel { sigma: 0.0, mean: 0.0 }
    }

    /// Draws one noise sample using the supplied random number generator.
    pub fn sample(&self, rng: &mut impl Rng) -> f64 {
        if self.sigma == 0.0 {
            return self.mean;
        }
        self.mean + self.sigma * standard_normal(rng)
    }

    /// Returns a copy of `waveform` with independent noise added to every
    /// sample, using a deterministic seed.
    pub fn apply(&self, waveform: &Waveform, seed: u64) -> Waveform {
        if self.is_none() {
            return waveform.clone();
        }
        let mut samples = waveform.samples().to_vec();
        self.apply_in_place(&mut samples, seed);
        Waveform::new(waveform.start_time(), waveform.sample_rate(), samples)
    }

    /// Adds independent noise to every sample in place — the allocation-free
    /// primitive behind the batched capture fast path. For a given seed the
    /// realisation is bit-identical to [`NoiseModel::apply`] (same generator,
    /// same draw order, same addition).
    pub fn apply_in_place(&self, samples: &mut [f64], seed: u64) {
        if self.is_none() {
            return;
        }
        let mut rng = StdRng::seed_from_u64(seed);
        for x in samples.iter_mut() {
            *x += self.sample(&mut rng);
        }
    }

    /// A bounded approximant of [`NoiseModel::apply_in_place`]: adds to every
    /// sample a noise value n̂ drawn from the reference's own uniforms, and
    /// returns δ with `|n̂ − n| ≤ δ` at every sample, n being the value the
    /// reference adds. δ is `+inf` or NaN when no bound holds: for a σ or
    /// mean that is not finite.
    ///
    /// It draws exactly the reference's uniform stream into `uniforms`: the
    /// u1 (from `MIN_POSITIVE..1`) and then the u2 (from `0..1`) of each
    /// sample, stored as every u1 followed by every u2. When σ = 0 it draws
    /// nothing, adds what the reference adds, bit for bit, and returns 0.
    /// Box-Muller's `ln` and `cos(2π·)` are then branch-free polynomials,
    /// each in a loop of its own that LLVM vectorises with `f64::sqrt`, and
    /// each sample gets `mean + σ·(r̂·ĉ)`, rounded as the reference rounds
    /// it. Only the uniform draws stay sequential.
    ///
    /// # The bound
    ///
    /// Per sample, with u = 2^-53, the reference rounds L = `ln u1`,
    /// r = √(−2L), θ = `2π·u2` (with the `f64` constant 2π_f), c = `cos θ`,
    /// z = r·c, σ·z and n = μ + σ·z. The approximant forms L̂, r̂, ĉ (for
    /// cos φ, with φ = 2π·u2 exactly), ẑ and n̂ the same way. libm `ln` and
    /// `cos` are assumed within one ulp, as the workspace assumes for `exp`,
    /// `sin` and `cos`: `|L − ln u1| ≤ 2u·|ln u1|`, `|c − cos θ| ≤ 2u·|cos θ|`.
    ///
    /// * **ln.** An integer split of the bits writes u1 = m·2^k exactly, with
    ///   m in `[√½, √2)`. Then `ln m = 2·atanh(s)` with `s = (m − 1)/(m + 1)`,
    ///   `|s| ≤ 0.1716`, summed through `s^21/21`: the Taylor remainder is
    ///   below 0.01u of the sum. `k·ln 2` comes in two parts, the first
    ///   exact. Rounding: s carries 2u, the sum's last addition 1u (its
    ///   higher terms are under 1 % of it and carry 12u), and, when k ≠ 0,
    ///   the two additions of `k·ln 2` 1u each of `|ln u1| ≥ |ln m|`. So
    ///   `|L̂ − ln u1| ≤ 5.2u·|ln u1|`.
    /// * **cos.** With q the nearest integer to `4·u2` and `t = u2 − q/4`,
    ///   exact because u2 is a multiple of 2^-53 and `|t| ≤ 1/8`, cos φ is
    ///   ±cos(2πt) or ±sin(2πt) by q mod 4. Both are Taylor polynomials in t
    ///   on `|2πt| ≤ π/4`, through degree 16 and 17, with correctly rounded
    ///   coefficients: remainders below 0.03u of the value, and Horner
    ///   rounding leaves `|ĉ − cos φ| ≤ 3u·|cos φ|`.
    /// * **The reference's angle.** `|θ − φ| ≤ A = 2^-51 + 2.4493e-16`: half
    ///   an ulp of θ < 8, plus `(2π − 2π_f)·u2`. So
    ///   `|cos θ − cos φ| ≤ A·|sin φ| + A²`.
    /// * **The radius.** r and r̂ are at most `R = 37.65`, above
    ///   `√(−2 ln MIN_POSITIVE) = 37.640`. They differ by
    ///   `(5.2u + 2u)/2` of it from the two `ln`s, and by 1u from each
    ///   square root.
    /// * **Assembled.** `|ẑ − z| ≤ A·R + 12.6u·|ẑ|` to first order: the
    ///   angle term, then 2u for the two products r̂·ĉ and r·c, 5.6u for the
    ///   radius, 3u for ĉ and 2u for libm `cos`, all proportional to
    ///   `r·|cos φ|`. Multiplying by σ and adding μ round twice more on each
    ///   side, 4u of `|σ|·|ẑ|` and 2u of `|μ|`, and a product can underflow
    ///   by half of 2^-1074. With Z the stream's largest `|ẑ|`,
    ///
    ///   `δ = (|σ|·(A·R + 20u·Z) + 2u·|μ| + 2^-1074)·(1 + 2^-20)`,
    ///
    ///   where 20u leaves 3.4u for the second-order terms of |ẑ|, and the
    ///   last factor covers A² against A and the rounding of δ itself.
    pub fn apply_approx_in_place(&self, samples: &mut [f64], seed: u64, uniforms: &mut Vec<f64>) -> f64 {
        if self.sigma == 0.0 {
            self.apply_in_place(samples, seed);
            return 0.0;
        }
        let mut rng = StdRng::seed_from_u64(seed);
        uniforms.clear();
        uniforms.resize(2 * samples.len(), 0.0);
        let (first, second) = uniforms.split_at_mut(samples.len());
        for (u1, u2) in first.iter_mut().zip(second) {
            *u1 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            *u2 = rng.gen_range(0.0..1.0);
        }
        self.add_approx(samples, uniforms)
    }

    /// The approximant's arithmetic over drawn uniforms (every u1, then
    /// every u2, one pair per sample of `samples`), which it overwrites:
    /// adds `mean + σ·ẑ` to each sample and returns δ.
    fn add_approx(&self, samples: &mut [f64], uniforms: &mut [f64]) -> f64 {
        const U: f64 = f64::EPSILON / 2.0;
        let (radii, normals) = uniforms.split_at_mut(samples.len());
        for u1 in radii.iter_mut() {
            *u1 = (-2.0 * ln_approx(*u1)).sqrt();
        }
        for (u2, &r) in normals.iter_mut().zip(radii.iter()) {
            *u2 = r * cos_2pi_approx(*u2);
        }
        let (sigma, mean) = (self.sigma, self.mean);
        for (x, &z) in samples.iter_mut().zip(normals.iter()) {
            *x += mean + sigma * z;
        }
        let largest = normals.iter().fold(0.0f64, |largest, z| largest.max(z.abs()));
        let angle = sigma.abs() * REFERENCE_ANGLE_ERROR * MAX_RADIUS;
        (angle + sigma.abs() * 20.0 * U * largest + 2.0 * U * mean.abs() + f64::from_bits(1))
            * (1.0 + 1.0 / (1u64 << 20) as f64)
    }

    /// Whether the model is a no-op (zero sigma and zero mean): applying it
    /// returns the input unchanged, which is what lets capture paths share
    /// one noiseless observed stimulus across devices.
    pub fn is_none(&self) -> bool {
        self.sigma == 0.0 && self.mean == 0.0
    }
}

/// The bound A on how far the reference's Box-Muller angle `2π·u2`, formed
/// with the `f64` constant 2π and rounded, lies from the exact angle: half an
/// ulp of an angle below 8, plus 2π minus that constant (2.44929e-16).
const REFERENCE_ANGLE_ERROR: f64 = f64::EPSILON * 2.0 + 2.4493e-16;

/// The largest Box-Muller radius either path can form, above
/// `√(−2 ln MIN_POSITIVE) = 37.640`.
const MAX_RADIUS: f64 = 37.65;

/// `2/(2j + 1)` for j = 1 ..= 10: `2·atanh(s) = 2s + s·w·Σ ATANH[j]·w^j` with
/// `w = s²`, through `s^21`.
const ATANH: [f64; 10] = [
    0.6666666666666666,
    0.4,
    0.2857142857142857,
    0.2222222222222222,
    0.18181818181818182,
    0.15384615384615385,
    0.13333333333333333,
    0.11764705882352941,
    0.10526315789473684,
    0.09523809523809523,
];

/// `(−1)^j·(2π)^(2j)/(2j)!`, correctly rounded: cos(2πt) through `t^16`.
const COS_2PI: [f64; 9] = [
    1.0,
    -19.739208802178716,
    64.9393940226683,
    -85.45681720669373,
    60.24464137187666,
    -26.4262567833744,
    7.903536371318469,
    -1.714390711088672,
    0.28200596845579123,
];

/// `(−1)^j·(2π)^(2j+1)/(2j+1)!`, correctly rounded: sin(2πt)/t through
/// `t^16`.
const SIN_2PI: [f64; 9] = [
    std::f64::consts::TAU,
    -41.34170224039976,
    81.60524927607506,
    -76.70585975306139,
    42.058693944897655,
    -15.09464257682299,
    3.819952584848282,
    -0.7181223017785006,
    0.10422916220813984,
];

/// `Σ coefficients[j]·w^j` by Horner's rule.
#[inline(always)]
fn horner(w: f64, coefficients: &[f64]) -> f64 {
    coefficients.iter().rev().fold(0.0, |sum, &c| sum * w + c)
}

/// ln of a positive normal `v` without libm (see
/// [`NoiseModel::apply_approx_in_place`]): an integer split into `m·2^k`,
/// `m` in `[√½, √2)`, then the atanh series of `ln m`.
#[inline(always)]
fn ln_approx(v: f64) -> f64 {
    const SQRT_HALF: u64 = 0x3fe6_a09e_667f_3bcd;
    const ONE: u64 = 0x3ff0_0000_0000_0000;
    const MANTISSA: u64 = (1 << 52) - 1;
    // 2^52 as a float's bits, and 2^52 + 1023: or-ing a biased exponent into
    // the first and subtracting the second converts it to k exactly.
    const TWO_52: u64 = 0x4330_0000_0000_0000;
    const TWO_52_PLUS_BIAS: f64 = 4_503_599_627_371_519.0;
    // ln 2 in two parts; the first has 21 trailing zero bits, so k·LN2_HI is
    // exact.
    const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
    const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
    // Adding 1 − √½ to the mantissa carries into the exponent exactly when
    // the mantissa is at least √2.
    let shifted = v.to_bits().wrapping_add(ONE - SQRT_HALF);
    let m = f64::from_bits((shifted & MANTISSA) + SQRT_HALF);
    let k = f64::from_bits((shifted >> 52) | TWO_52) - TWO_52_PLUS_BIAS;
    let f = m - 1.0;
    let s = f / (2.0 + f);
    let w = s * s;
    let ln_m = 2.0 * s + s * (w * horner(w, &ATANH));
    k * LN2_HI + (ln_m + k * LN2_LO)
}

/// `cos(2π·u)` without libm for a `u` in `[0, 1)` that is a multiple of
/// 2^-53 (see [`NoiseModel::apply_approx_in_place`]): the exact reduction
/// `t = u − q/4`, both polynomials on `|2πt| ≤ π/4`, and a bitwise choice of
/// one of them and its sign by the quadrant q.
#[inline(always)]
fn cos_2pi_approx(u: f64) -> f64 {
    // 1.5·2^52: adding it rounds 4u to an integer q, held in the low bits.
    const ROUND: f64 = 6_755_399_441_055_744.0;
    let rounded = 4.0 * u + ROUND;
    let quadrant = rounded.to_bits();
    let t = u - (rounded - ROUND) * 0.25;
    let w = t * t;
    let cos = horner(w, &COS_2PI);
    let sin = t * horner(w, &SIN_2PI);
    // cos(qπ/2 + 2πt) is cos, −sin, −cos, sin for q mod 4 = 0, 1, 2, 3.
    let odd = 0u64.wrapping_sub(quadrant & 1);
    let magnitude = (cos.to_bits() & !odd) | (sin.to_bits() & odd);
    f64::from_bits(magnitude ^ (((quadrant + 1) & 2) << 62))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_three_sigma_spec() {
        let n = NoiseModel::paper_default();
        assert!((3.0 * n.sigma - 0.015).abs() < 1e-12);
        assert_eq!(n.mean, 0.0);
    }

    #[test]
    fn none_is_identity() {
        let w = Waveform::from_fn(0.0, 1e-3, 1e6, |t| t);
        let noisy = NoiseModel::none().apply(&w, 42);
        assert_eq!(noisy, w);
    }

    #[test]
    fn sample_statistics_match_model() {
        let n = NoiseModel::new(0.01);
        let mut rng = StdRng::seed_from_u64(7);
        let draws: Vec<f64> = (0..20_000).map(|_| n.sample(&mut rng)).collect();
        let mean = draws.iter().sum::<f64>() / draws.len() as f64;
        let var = draws.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / draws.len() as f64;
        assert!(mean.abs() < 5e-4, "mean {mean}");
        assert!((var.sqrt() - 0.01).abs() < 5e-4, "sigma {}", var.sqrt());
    }

    #[test]
    fn apply_is_deterministic_per_seed() {
        let w = Waveform::from_fn(0.0, 1e-4, 1e6, |_| 0.5);
        let n = NoiseModel::paper_default();
        let a = n.apply(&w, 1);
        let b = n.apply(&w, 1);
        let c = n.apply(&w, 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn apply_preserves_grid() {
        let w = Waveform::from_fn(0.0, 1e-4, 2e6, |t| t * 1e3);
        let noisy = NoiseModel::new(0.005).apply(&w, 3);
        assert_eq!(noisy.len(), w.len());
        assert_eq!(noisy.sample_rate(), w.sample_rate());
        assert_eq!(noisy.start_time(), w.start_time());
    }

    /// The largest distance between the approximant's noise values and
    /// the reference's over a stream of given uniforms (every u1, then every
    /// u2), and the approximant's bound δ.
    fn approximant_error(noise: NoiseModel, mut uniforms: Vec<f64>) -> (f64, f64) {
        let n = uniforms.len() / 2;
        let reference: Vec<f64> = (0..n)
            .map(|k| noise.mean + noise.sigma * box_muller(uniforms[k], uniforms[n + k]))
            .collect();
        let mut approx = vec![0.0; n];
        let delta = noise.add_approx(&mut approx, &mut uniforms);
        let error = approx
            .iter()
            .zip(&reference)
            .map(|(a, r)| (a - r).abs())
            .fold(0.0, f64::max);
        (error, delta)
    }

    #[test]
    fn approximant_stays_within_its_bound_over_many_seeds() {
        let mut uniforms = Vec::new();
        for sigma in [5e-3, 1e-6, 0.2] {
            for mean in [0.0, 0.1] {
                let noise = NoiseModel { sigma, mean };
                for seed in 0..200 {
                    // Noise added to zeros is the noise itself.
                    let mut reference = vec![0.0; 400];
                    noise.apply_in_place(&mut reference, seed);
                    let mut approx = vec![0.0; 400];
                    let delta = noise.apply_approx_in_place(&mut approx, seed, &mut uniforms);
                    assert_eq!(uniforms.len(), 800, "one u1 and one u2 per sample");
                    for (k, (a, r)) in approx.iter().zip(&reference).enumerate() {
                        let at = format!("σ {sigma} mean {mean} seed {seed} sample {k}");
                        assert!((a - r).abs() <= delta, "{at}: {:e} above {delta:e}", (a - r).abs());
                    }
                    assert!(
                        delta < 1e-13 * sigma + 3e-16 * mean,
                        "σ {sigma} mean {mean}: δ {delta:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn approximant_bound_holds_and_is_tight_at_adversarial_uniforms() {
        let tiny = 2f64.powi(-53);
        // The quadrant and octant boundaries of u2 and their neighbours.
        let boundaries: Vec<f64> = (0..8)
            .flat_map(|j| [j as f64 / 8.0 - tiny, j as f64 / 8.0, j as f64 / 8.0 + tiny])
            .filter(|u2| (0.0..1.0).contains(u2))
            .collect();
        let smallest_radius = 1.0 - tiny;
        for u1 in [f64::MIN_POSITIVE, tiny, smallest_radius] {
            for noise in [NoiseModel::new(1.0), NoiseModel { sigma: 5e-3, mean: 0.1 }] {
                let uniforms = boundaries
                    .iter()
                    .map(|_| u1)
                    .chain(boundaries.iter().copied())
                    .collect();
                let (error, delta) = approximant_error(noise, uniforms);
                assert!(error <= delta, "u1 {u1:e} {noise:?}: {error:e} above {delta:e}");
            }
        }
        // Near u2 = 3/4, where |sin φ| = 1, the largest radius meets the
        // uniforms whose angle the reference rounds furthest from 2π·u2 (to
        // below it, where the constant 2π also falls short): the angle term
        // of δ is all but realised, so δ is within a factor of two.
        let tau = 2.0 * std::f64::consts::PI;
        let mut near: Vec<f64> = (0..1u32 << 14).map(|k| 0.75 + f64::from(k) * tiny).collect();
        near.sort_by(|a, b| {
            let short = |u2: f64| tau.mul_add(u2, -(tau * u2));
            short(*b).total_cmp(&short(*a))
        });
        near.truncate(64);
        let uniforms = near
            .iter()
            .map(|_| f64::MIN_POSITIVE)
            .chain(near.iter().copied())
            .collect();
        let (error, delta) = approximant_error(NoiseModel::new(1.0), uniforms);
        assert!(error <= delta, "{error:e} above {delta:e}");
        assert!(error > delta / 2.0, "{error:e} not above half of {delta:e}");
    }

    #[test]
    fn approximant_without_sigma_draws_nothing_and_adds_the_mean_exactly() {
        let w = Waveform::from_fn(0.0, 1e-4, 1e6, |t| (t * 1e4).sin() - 0.0);
        for noise in [NoiseModel { sigma: 0.0, mean: 0.1 }, NoiseModel::none()] {
            let mut reference = w.samples().to_vec();
            reference[3] = -0.0;
            let mut approx = reference.clone();
            noise.apply_in_place(&mut reference, 5);
            let mut uniforms = Vec::new();
            assert_eq!(noise.apply_approx_in_place(&mut approx, 5, &mut uniforms), 0.0);
            assert!(uniforms.is_empty(), "{noise:?} drew uniforms");
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&approx), bits(&reference), "{noise:?}");
        }
    }

    #[test]
    fn approximant_reports_no_bound_for_a_sigma_that_is_not_finite() {
        let mut uniforms = Vec::new();
        for sigma in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut samples = vec![0.5; 16];
            let delta = NoiseModel::new(sigma).apply_approx_in_place(&mut samples, 1, &mut uniforms);
            assert!(!delta.is_finite(), "σ {sigma}: δ {delta}");
        }
    }

    #[test]
    fn nonzero_mean_shifts_signal() {
        let w = Waveform::from_fn(0.0, 1e-3, 1e5, |_| 0.0);
        let n = NoiseModel { sigma: 0.0, mean: 0.1 };
        let shifted = n.apply(&w, 0);
        assert!((shifted.mean() - 0.1).abs() < 1e-12);
    }
}
