//! Process and mismatch variation (Monte Carlo) of the monitor.
//!
//! §III-B reports that the measured control curves "lie in the predicted
//! range for Monte Carlo simulations using the foundry technology statistical
//! characterization". Without access to the foundry models, this module
//! provides a parametric Gaussian model of the same structure: a global
//! (process) shift shared by all transistors of a monitor instance plus an
//! independent (mismatch) term per transistor, applied to the threshold
//! voltage, the process transconductance and the drawn width.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sim_spice::devices::MosParams;

use crate::boundary::{trace_boundary, BoundaryCurve, Window};
use crate::comparator::CurrentComparator;
use crate::error::Result;

/// Gaussian variation model for a 65 nm-like technology.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcessVariation {
    /// Global threshold-voltage shift standard deviation (volts).
    pub sigma_vth_global: f64,
    /// Per-transistor threshold mismatch coefficient `A_VT` in V·m
    /// (the Pelgrom coefficient; per-device sigma is `A_VT / sqrt(W L)`).
    pub avt: f64,
    /// Global relative sigma of the process transconductance `kp`.
    pub sigma_kp_rel_global: f64,
    /// Per-transistor relative mismatch sigma of `kp`.
    pub sigma_kp_rel_local: f64,
    /// Per-transistor relative sigma of the drawn width (edge roughness).
    pub sigma_width_rel: f64,
}

impl ProcessVariation {
    /// Nominal 65 nm-like corner: 15 mV global Vth sigma, `A_VT` = 3.5 mV·µm,
    /// 4 % global / 1 % local kp spread and 1 % width spread.
    pub fn nominal_65nm() -> Self {
        ProcessVariation {
            sigma_vth_global: 0.015,
            avt: 3.5e-9, // 3.5 mV·µm expressed in V·m
            sigma_kp_rel_global: 0.04,
            sigma_kp_rel_local: 0.01,
            sigma_width_rel: 0.01,
        }
    }

    /// A variation model with every sigma set to zero (useful in tests).
    pub fn none() -> Self {
        ProcessVariation {
            sigma_vth_global: 0.0,
            avt: 0.0,
            sigma_kp_rel_global: 0.0,
            sigma_kp_rel_local: 0.0,
            sigma_width_rel: 0.0,
        }
    }

    /// Per-device threshold mismatch sigma for a transistor geometry.
    pub fn vth_mismatch_sigma(&self, params: &MosParams) -> f64 {
        if self.avt == 0.0 {
            0.0
        } else {
            self.avt / (params.width * params.length).sqrt()
        }
    }

    fn gauss(rng: &mut impl Rng) -> f64 {
        sim_signal::standard_normal(rng)
    }

    /// Draws one varied instance of a monitor: a common process shift plus
    /// independent mismatch on each of the four input transistors.
    ///
    /// # Errors
    /// Propagates configuration errors if the perturbed geometry becomes
    /// invalid (practically impossible for realistic sigmas).
    pub fn sample_comparator(&self, nominal: &CurrentComparator, rng: &mut impl Rng) -> Result<CurrentComparator> {
        let dvth_global = Self::gauss(rng) * self.sigma_vth_global;
        let dkp_global = Self::gauss(rng) * self.sigma_kp_rel_global;
        let mut transistors = nominal.transistors;
        for t in &mut transistors {
            let sigma_local = self.vth_mismatch_sigma(t);
            let dvth = dvth_global + Self::gauss(rng) * sigma_local;
            let dkp = dkp_global + Self::gauss(rng) * self.sigma_kp_rel_local;
            let dw = Self::gauss(rng) * self.sigma_width_rel;
            *t = t
                .with_vth0(t.vth0 + dvth)
                .with_kp(t.kp * (1.0 + dkp))
                .with_width(t.width * (1.0 + dw));
        }
        CurrentComparator::new(
            format!("{}-mc", nominal.label),
            transistors,
            nominal.inputs,
            nominal.vdd,
        )
    }
}

impl Default for ProcessVariation {
    fn default() -> Self {
        Self::nominal_65nm()
    }
}

/// The Monte Carlo envelope of a monitor's boundary curve: for each abscissa
/// of the nominal curve, the minimum and maximum boundary ordinate observed
/// across the sampled instances.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundaryEnvelope {
    /// Label of the monitor.
    pub label: String,
    /// Nominal boundary curve.
    pub nominal: BoundaryCurve,
    /// `(x, y_min, y_max)` per abscissa where at least one instance crossed.
    pub envelope: Vec<(f64, f64, f64)>,
    /// Number of Monte Carlo instances drawn.
    pub instances: usize,
}

impl BoundaryEnvelope {
    /// Mean half-width of the envelope (a scalar summary of the spread), volts.
    pub fn mean_half_width(&self) -> f64 {
        if self.envelope.is_empty() {
            return 0.0;
        }
        self.envelope.iter().map(|&(_, lo, hi)| 0.5 * (hi - lo)).sum::<f64>() / self.envelope.len() as f64
    }
}

/// Runs a Monte Carlo sweep over monitor instances and accumulates the
/// boundary envelope (the reproduction of the Fig. 4 "predicted range").
///
/// # Errors
/// Propagates monitor construction errors from the variation model.
pub fn monte_carlo_envelope(
    nominal: &CurrentComparator,
    variation: &ProcessVariation,
    window: &Window,
    samples_per_curve: usize,
    instances: usize,
    seed: u64,
) -> Result<BoundaryEnvelope> {
    let mut rng = StdRng::seed_from_u64(seed);
    let nominal_curve = trace_boundary(nominal, window, samples_per_curve);
    let mut acc: std::collections::BTreeMap<u64, (f64, f64, f64)> = std::collections::BTreeMap::new();

    for _ in 0..instances {
        let instance = variation.sample_comparator(nominal, &mut rng)?;
        let curve = trace_boundary(&instance, window, samples_per_curve);
        for &(x, y) in &curve.points {
            let key = (x * 1e9).round() as u64;
            acc.entry(key)
                .and_modify(|entry| {
                    entry.1 = entry.1.min(y);
                    entry.2 = entry.2.max(y);
                })
                .or_insert((x, y, y));
        }
    }

    Ok(BoundaryEnvelope {
        label: nominal.label.clone(),
        nominal: nominal_curve,
        envelope: acc.into_values().collect(),
        instances,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table1::table1_comparators;

    #[test]
    fn zero_variation_reproduces_nominal() {
        let comps = table1_comparators().unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let varied = ProcessVariation::none().sample_comparator(&comps[2], &mut rng).unwrap();
        assert_eq!(varied.transistors, comps[2].transistors);
    }

    #[test]
    fn mismatch_sigma_scales_with_area() {
        let v = ProcessVariation::nominal_65nm();
        let small = MosParams::nmos_65nm(0.6e-6, 180e-9);
        let big = MosParams::nmos_65nm(3.0e-6, 180e-9);
        assert!(v.vth_mismatch_sigma(&small) > v.vth_mismatch_sigma(&big));
        // 3.5 mV·µm over sqrt(0.6 µm * 0.18 µm) ≈ 10.6 mV.
        assert!((v.vth_mismatch_sigma(&small) - 0.0106).abs() < 0.002);
    }

    #[test]
    fn sampled_instances_differ_from_nominal() {
        let comps = table1_comparators().unwrap();
        let v = ProcessVariation::nominal_65nm();
        let mut rng = StdRng::seed_from_u64(3);
        let inst = v.sample_comparator(&comps[2], &mut rng).unwrap();
        assert_ne!(inst.transistors, comps[2].transistors);
        // The perturbation must stay small (few tens of millivolts / percent).
        for (a, b) in inst.transistors.iter().zip(&comps[2].transistors) {
            assert!((a.vth0 - b.vth0).abs() < 0.15);
            assert!((a.kp / b.kp - 1.0).abs() < 0.3);
        }
    }

    #[test]
    fn envelope_contains_nominal_curve() {
        let comps = table1_comparators().unwrap();
        let env =
            monte_carlo_envelope(&comps[2], &ProcessVariation::nominal_65nm(), &Window::unit(), 41, 50, 7).unwrap();
        assert_eq!(env.instances, 50);
        assert!(!env.envelope.is_empty());
        assert!(env.mean_half_width() > 0.0);
        // Wherever an instance crossed at a nominal abscissa, the nominal
        // curve lies inside the envelope there, within 30 mV.
        let mut checked = 0;
        for &(x, y) in &env.nominal.points {
            if let Some(&(_, lo, hi)) = env.envelope.iter().find(|entry| (entry.0 - x).abs() < 1e-9) {
                assert!(
                    y >= lo - 0.03 && y <= hi + 0.03,
                    "nominal outside its own MC envelope at x = {x}"
                );
                checked += 1;
            }
        }
        assert!(checked > 0, "no nominal abscissa in the envelope");
    }

    #[test]
    fn envelope_width_grows_with_variation() {
        let comps = table1_comparators().unwrap();
        let narrow = ProcessVariation {
            sigma_vth_global: 0.005,
            avt: 1e-9,
            sigma_kp_rel_global: 0.01,
            sigma_kp_rel_local: 0.005,
            sigma_width_rel: 0.005,
        };
        let wide = ProcessVariation::nominal_65nm();
        let window = Window::unit();
        let e_narrow = monte_carlo_envelope(&comps[2], &narrow, &window, 21, 40, 11).unwrap();
        let e_wide = monte_carlo_envelope(&comps[2], &wide, &window, 21, 40, 11).unwrap();
        assert!(
            e_wide.mean_half_width() > e_narrow.mean_half_width(),
            "wide {} vs narrow {}",
            e_wide.mean_half_width(),
            e_narrow.mean_half_width()
        );
    }

    #[test]
    fn default_is_nominal() {
        assert_eq!(ProcessVariation::default(), ProcessVariation::nominal_65nm());
    }
}
