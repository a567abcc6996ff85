//! Lissajous composition of two signals.
//!
//! The X-Y zoning method observes the trajectory traced by plotting one
//! circuit signal against another, exactly as an oscilloscope in X-Y mode
//! (§II of the paper). When the two signals share a fundamental period the
//! trajectory is closed and periodic.

use crate::waveform::{SignalError, Waveform};

/// A sampled X-Y trajectory: `(x(t_k), y(t_k))` over a common time grid.
#[derive(Debug, Clone, PartialEq)]
pub struct Lissajous {
    points: Vec<(f64, f64)>,
}

impl Lissajous {
    /// Composes two waveforms sampled on the same grid.
    ///
    /// # Errors
    /// Returns [`SignalError::GridMismatch`] when the waveforms have different
    /// lengths and [`SignalError::TooShort`] when fewer than two samples are
    /// available.
    pub fn compose(x: &Waveform, y: &Waveform) -> Result<Self, SignalError> {
        if x.len() != y.len() {
            return Err(SignalError::GridMismatch {
                left: x.len(),
                right: y.len(),
            });
        }
        if x.len() < 2 {
            return Err(SignalError::TooShort {
                len: x.len(),
                needed: 2,
            });
        }
        let points = x.samples().iter().zip(y.samples()).map(|(&a, &b)| (a, b)).collect();
        Ok(Lissajous { points })
    }

    /// The `(x, y)` points of the trajectory.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Number of samples in the trajectory.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the trajectory has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Axis-aligned bounding box `((x_min, x_max), (y_min, y_max))`.
    pub fn bounding_box(&self) -> ((f64, f64), (f64, f64)) {
        let mut xb = (f64::INFINITY, f64::NEG_INFINITY);
        let mut yb = (f64::INFINITY, f64::NEG_INFINITY);
        for &(x, y) in &self.points {
            xb.0 = xb.0.min(x);
            xb.1 = xb.1.max(x);
            yb.0 = yb.0.min(y);
            yb.1 = yb.1.max(y);
        }
        (xb, yb)
    }

    /// Whether every point lies inside the closed rectangle
    /// `[x_lo, x_hi] x [y_lo, y_hi]`.
    pub fn within(&self, x_lo: f64, x_hi: f64, y_lo: f64, y_hi: f64) -> bool {
        self.points
            .iter()
            .all(|&(x, y)| x >= x_lo && x <= x_hi && y >= y_lo && y <= y_hi)
    }

    /// Maximum pointwise distance between two trajectories on the same grid.
    ///
    /// # Errors
    /// Returns [`SignalError::GridMismatch`] if the trajectories have a
    /// different number of points.
    pub fn max_distance(&self, other: &Lissajous) -> Result<f64, SignalError> {
        if self.len() != other.len() {
            return Err(SignalError::GridMismatch {
                left: self.len(),
                right: other.len(),
            });
        }
        Ok(self
            .points
            .iter()
            .zip(&other.points)
            .map(|(&(x0, y0), &(x1, y1))| ((x1 - x0).powi(2) + (y1 - y0).powi(2)).sqrt())
            .fold(0.0_f64, f64::max))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multitone::MultitoneSpec;

    fn circle() -> Lissajous {
        // x = cos, y = sin over one full turn: the unit circle.
        let n = 1000.0;
        let x = Waveform::from_fn(0.0, 1.0, n, |t| (2.0 * std::f64::consts::PI * t).cos());
        let y = Waveform::from_fn(0.0, 1.0, n, |t| (2.0 * std::f64::consts::PI * t).sin());
        Lissajous::compose(&x, &y).unwrap()
    }

    #[test]
    fn compose_rejects_mismatched_grids() {
        let x = Waveform::from_fn(0.0, 1.0, 10.0, |t| t);
        let y = Waveform::from_fn(0.0, 1.0, 20.0, |t| t);
        assert!(Lissajous::compose(&x, &y).is_err());
    }

    #[test]
    fn compose_rejects_tiny_waveforms() {
        let x = Waveform::new(0.0, 1.0, vec![1.0]);
        let y = Waveform::new(0.0, 1.0, vec![1.0]);
        assert!(matches!(Lissajous::compose(&x, &y), Err(SignalError::TooShort { .. })));
    }

    #[test]
    fn circle_has_expected_geometry() {
        let c = circle();
        let ((xmin, xmax), (ymin, ymax)) = c.bounding_box();
        assert!((xmin + 1.0).abs() < 1e-3 && (xmax - 1.0).abs() < 1e-3);
        assert!((ymin + 1.0).abs() < 2e-2 && (ymax - 1.0).abs() < 2e-2);
        assert!(c.within(-1.01, 1.01, -1.01, 1.01));
        assert!(!c.within(-0.5, 0.5, -1.01, 1.01));
    }

    #[test]
    fn max_distance_between_scaled_curves() {
        let x = Waveform::from_fn(0.0, 1.0, 100.0, |t| t);
        let y1 = Waveform::from_fn(0.0, 1.0, 100.0, |t| t);
        let y2 = Waveform::from_fn(0.0, 1.0, 100.0, |t| t + 0.1);
        let a = Lissajous::compose(&x, &y1).unwrap();
        let b = Lissajous::compose(&x, &y2).unwrap();
        assert!((a.max_distance(&b).unwrap() - 0.1).abs() < 1e-12);
        let short = Lissajous::compose(
            &Waveform::from_fn(0.0, 0.5, 100.0, |t| t),
            &Waveform::from_fn(0.0, 0.5, 100.0, |t| t),
        )
        .unwrap();
        assert!(a.max_distance(&short).is_err());
    }

    #[test]
    fn multitone_composition_stays_in_unit_square() {
        let stim = MultitoneSpec::paper_default();
        let x = stim.sample(1, 2e6);
        // A crude "filter": attenuate and phase-shift the signal slightly.
        let y = Waveform::from_fn(0.0, stim.period(), 2e6, |t| 0.5 + (stim.value(t - 8e-6) - 0.5) * 0.9);
        let lis = Lissajous::compose(&x, &y).unwrap();
        assert!(lis.within(0.0, 1.0, 0.0, 1.0));
    }
}
