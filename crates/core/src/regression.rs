//! Alternate-test style parameter estimation from signature features.
//!
//! The paper's decision is a PASS/FAIL band on the NDF. Its related work
//! (reference \[14\]) maps Lissajous-signature features to circuit
//! specifications by regression. This module implements that extension: the
//! dwell time the CUT spends in each golden zone is used as a feature vector,
//! and a ridge-regularized linear model trained on a characterization sweep
//! estimates the *signed* parameter deviation — something the (even,
//! magnitude-only) NDF cannot provide on its own.

use crate::error::{DsigError, Result};
use crate::signature::Signature;

/// Extracts the feature vector of a signature relative to a golden signature:
/// the total dwell time spent in each of the golden signature's distinct
/// zones (zones never visited contribute 0), in seconds.
pub fn dwell_features(golden: &Signature, observed: &Signature) -> Vec<f64> {
    let mut zones: Vec<u32> = golden.entries().iter().map(|e| e.code.value()).collect();
    zones.sort_unstable();
    zones.dedup();
    zones
        .iter()
        .map(|&zone| {
            let count: u32 = observed
                .entries()
                .iter()
                .filter(|e| e.code.value() == zone)
                .map(|e| e.count)
                .sum();
            f64::from(count) * observed.unit()
        })
        .collect()
}

/// A linear model `deviation ~ w . features + b` trained by ridge-regularized
/// least squares on a characterization sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SignatureRegressor {
    weights: Vec<f64>,
    intercept: f64,
    feature_scale: Vec<f64>,
}

impl SignatureRegressor {
    /// Fits the model from characterization data: one `(features, deviation)`
    /// pair per characterized device.
    ///
    /// # Errors
    /// Returns [`DsigError::InvalidConfig`] when fewer than two samples are
    /// provided, the feature vectors disagree in length, or the normal
    /// equations are singular even after regularization.
    pub fn fit(samples: &[(Vec<f64>, f64)], ridge: f64) -> Result<Self> {
        if samples.len() < 2 {
            return Err(DsigError::InvalidConfig(
                "regression needs at least two characterization samples".into(),
            ));
        }
        let n_features = samples[0].0.len();
        if n_features == 0 || samples.iter().any(|(f, _)| f.len() != n_features) {
            return Err(DsigError::InvalidConfig("inconsistent or empty feature vectors".into()));
        }
        if !(ridge >= 0.0) {
            return Err(DsigError::InvalidConfig("ridge parameter must be non-negative".into()));
        }

        // Scale features to comparable magnitude (dwell times are ~1e-5 s).
        let mut feature_scale = vec![0.0_f64; n_features];
        for (f, _) in samples {
            for (k, &v) in f.iter().enumerate() {
                feature_scale[k] = feature_scale[k].max(v.abs());
            }
        }
        for s in &mut feature_scale {
            if *s == 0.0 {
                *s = 1.0;
            }
        }

        // Design matrix with an intercept column, normal equations with ridge.
        let dim = n_features + 1;
        let mut ata = vec![vec![0.0_f64; dim]; dim];
        let mut atb = vec![0.0_f64; dim];
        for (features, target) in samples {
            let mut row = Vec::with_capacity(dim);
            for (k, &v) in features.iter().enumerate() {
                row.push(v / feature_scale[k]);
            }
            row.push(1.0);
            for i in 0..dim {
                for j in 0..dim {
                    ata[i][j] += row[i] * row[j];
                }
                atb[i] += row[i] * target;
            }
        }
        for (i, row) in ata.iter_mut().enumerate().take(dim - 1) {
            row[i] += ridge;
        }

        let solution = solve_dense(&mut ata, &mut atb)?;
        let (weights, intercept) = solution.split_at(n_features);
        Ok(SignatureRegressor {
            weights: weights.to_vec(),
            intercept: intercept[0],
            feature_scale,
        })
    }

    /// Predicts the parameter deviation for a feature vector.
    ///
    /// # Errors
    /// Returns [`DsigError::InvalidConfig`] if the feature vector length does
    /// not match the trained model.
    pub fn predict(&self, features: &[f64]) -> Result<f64> {
        if features.len() != self.weights.len() {
            return Err(DsigError::InvalidConfig(format!(
                "expected {} features, got {}",
                self.weights.len(),
                features.len()
            )));
        }
        Ok(self
            .weights
            .iter()
            .zip(features)
            .zip(&self.feature_scale)
            .map(|((w, &x), s)| w * (x / s))
            .sum::<f64>()
            + self.intercept)
    }

    /// Number of features the model was trained on.
    pub fn feature_count(&self) -> usize {
        self.weights.len()
    }
}

/// Gaussian elimination with partial pivoting on a small dense system.
fn solve_dense(a: &mut [Vec<f64>], b: &mut [f64]) -> Result<Vec<f64>> {
    let n = b.len();
    for col in 0..n {
        let pivot_row = (col..n)
            .max_by(|&i, &j| a[i][col].abs().partial_cmp(&a[j][col].abs()).expect("finite"))
            .expect("non-empty");
        if a[pivot_row][col].abs() < 1e-12 {
            return Err(DsigError::InvalidConfig(
                "singular regression system (add more characterization points or ridge)".into(),
            ));
        }
        a.swap(col, pivot_row);
        b.swap(col, pivot_row);
        for row in (col + 1)..n {
            let factor = a[row][col] / a[col][col];
            if factor == 0.0 {
                continue;
            }
            for k in col..n {
                a[row][k] -= factor * a[col][k];
            }
            b[row] -= factor * b[col];
        }
    }
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut sum = b[i];
        for k in (i + 1)..n {
            sum -= a[i][k] * x[k];
        }
        x[i] = sum / a[i][i];
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::{SignatureEntry, ZoneCode};

    /// A signature of 1 µs counts.
    fn sig(entries: &[(u32, u32)]) -> Signature {
        Signature::new(
            1e-6,
            entries
                .iter()
                .map(|&(c, n)| SignatureEntry {
                    code: ZoneCode(c),
                    count: n,
                })
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn dwell_features_follow_golden_zone_order() {
        let golden = sig(&[(4, 10), (20, 30), (4, 5), (28, 60)]);
        let observed = sig(&[(4, 12), (28, 50), (99, 5), (4, 3)]);
        let features = dwell_features(&golden, &observed);
        // Golden distinct zones sorted: 4, 20, 28; each the zone's counts
        // times the unit.
        assert_eq!(features, [15.0 * 1e-6, 0.0, 50.0 * 1e-6]);
    }

    #[test]
    fn regressor_recovers_a_linear_relationship() {
        // Synthetic: deviation = 100 * (f1 - f2) with dwell-time sized features.
        let samples: Vec<(Vec<f64>, f64)> = (-10..=10)
            .map(|d| {
                let dev = d as f64;
                (vec![50e-6 + dev * 1e-6, 50e-6 - dev * 1e-6, 30e-6], dev)
            })
            .collect();
        let model = SignatureRegressor::fit(&samples, 1e-9).unwrap();
        assert_eq!(model.feature_count(), 3);
        for d in [-7.5, -2.0, 0.0, 3.3, 9.0] {
            let features = vec![50e-6 + d * 1e-6, 50e-6 - d * 1e-6, 30e-6];
            let predicted = model.predict(&features).unwrap();
            assert!((predicted - d).abs() < 0.05, "predicted {predicted} for {d}");
        }
    }

    #[test]
    fn fit_rejects_degenerate_input() {
        assert!(SignatureRegressor::fit(&[], 0.0).is_err());
        assert!(SignatureRegressor::fit(&[(vec![1.0], 0.0)], 0.0).is_err());
        assert!(SignatureRegressor::fit(&[(vec![1.0], 0.0), (vec![1.0, 2.0], 1.0)], 0.0).is_err());
        assert!(SignatureRegressor::fit(&[(vec![1.0], 0.0), (vec![2.0], 1.0)], -1.0).is_err());
    }

    #[test]
    fn predict_rejects_wrong_feature_count() {
        let samples = vec![(vec![1.0, 2.0], 0.0), (vec![2.0, 1.0], 1.0), (vec![3.0, 0.0], 2.0)];
        let model = SignatureRegressor::fit(&samples, 1e-6).unwrap();
        assert!(model.predict(&[1.0]).is_err());
    }

    #[test]
    fn constant_feature_does_not_break_the_fit() {
        // A feature that never varies would make the plain normal equations
        // singular; the ridge term keeps the fit well-posed.
        let samples: Vec<(Vec<f64>, f64)> = (0..8).map(|i| (vec![i as f64, 5.0], i as f64 * 2.0)).collect();
        let model = SignatureRegressor::fit(&samples, 1e-6).unwrap();
        let predicted = model.predict(&[3.0, 5.0]).unwrap();
        assert!((predicted - 6.0).abs() < 0.1, "predicted {predicted}");
    }
}
