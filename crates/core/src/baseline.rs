//! Baseline test methods used for comparison.
//!
//! Two baselines are implemented:
//!
//! * **Straight-line zoning** ([`LinearZoning`]): the prior-work approach the
//!   paper improves upon (references \[12\], \[13\]): the X-Y plane is divided by
//!   straight lines implemented with weighted adders and comparators. The
//!   same signature/NDF machinery applies, only the boundary shapes differ.
//! * **Raw output comparison** ([`normalized_output_error`]): a classic
//!   transient-test style metric that compares the CUT output waveform
//!   directly against the golden output (no on-chip signature hardware).

use sim_signal::Waveform;

use crate::capture::PointEncoder;
use crate::error::{DsigError, Result};

/// One straight boundary `a x + b y + c = 0` in the X-Y plane.
///
/// A point is on the "1" side when `a x + b y + c > 0` after orientation
/// normalization (the side containing the origin reads 0, matching the zone
/// codification of §IV-A).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearBoundary {
    /// Coefficient of `x`.
    pub a: f64,
    /// Coefficient of `y`.
    pub b: f64,
    /// Constant term.
    pub c: f64,
}

impl LinearBoundary {
    /// Creates a boundary, normalising its orientation so that the origin
    /// lies on the `0` side.
    ///
    /// # Errors
    /// Returns [`DsigError::InvalidConfig`] for a degenerate line (`a = b = 0`).
    pub fn new(a: f64, b: f64, c: f64) -> Result<Self> {
        if a == 0.0 && b == 0.0 {
            return Err(DsigError::InvalidConfig(
                "degenerate straight boundary (a = b = 0)".into(),
            ));
        }
        // Orient so the origin evaluates non-positive.
        let at_origin = c;
        if at_origin > 0.0 {
            Ok(LinearBoundary { a: -a, b: -b, c: -c })
        } else {
            Ok(LinearBoundary { a, b, c })
        }
    }

    /// A vertical boundary `x = x0`.
    pub fn vertical(x0: f64) -> Self {
        LinearBoundary::new(1.0, 0.0, -x0).expect("non-degenerate")
    }

    /// A horizontal boundary `y = y0`.
    pub fn horizontal(y0: f64) -> Self {
        LinearBoundary::new(0.0, 1.0, -y0).expect("non-degenerate")
    }

    /// Digital output of the comparator implementing this line.
    pub fn output(&self, x: f64, y: f64) -> bool {
        self.a * x + self.b * y + self.c > 0.0
    }
}

/// A zone partition made of straight lines (the prior-work monitors).
#[derive(Debug, Clone, PartialEq)]
pub struct LinearZoning {
    boundaries: Vec<LinearBoundary>,
}

impl LinearZoning {
    /// A six-line partition comparable in richness to the paper's six
    /// nonlinear monitors: two vertical cuts, two horizontal cuts, the main
    /// diagonal and an anti-diagonal.
    pub fn paper_comparable() -> Self {
        LinearZoning {
            boundaries: vec![
                LinearBoundary::vertical(0.35),
                LinearBoundary::vertical(0.65),
                LinearBoundary::horizontal(0.35),
                LinearBoundary::horizontal(0.65),
                LinearBoundary::new(1.0, -1.0, 0.0).expect("non-degenerate"),
                LinearBoundary::new(1.0, 1.0, -1.0).expect("non-degenerate"),
            ],
        }
    }
}

impl PointEncoder for LinearZoning {
    fn encode(&self, x: f64, y: f64) -> u32 {
        let mut code = 0u32;
        for (i, b) in self.boundaries.iter().enumerate() {
            if b.output(x, y) {
                code |= 1 << i;
            }
        }
        code
    }
}

/// Classic waveform-comparison baseline: the RMS error between the observed
/// and golden CUT outputs normalized by the golden peak-to-peak amplitude.
///
/// # Errors
/// Propagates grid mismatch and degenerate-waveform errors.
pub fn normalized_output_error(golden: &Waveform, observed: &Waveform) -> Result<f64> {
    Ok(sim_signal::normalized_rms_error(golden, observed)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundary_orientation_puts_origin_on_zero_side() {
        let b = LinearBoundary::new(1.0, 1.0, -1.0).unwrap(); // x + y = 1
        assert!(!b.output(0.0, 0.0));
        assert!(b.output(0.8, 0.8));
        // A line written with the opposite sign is normalised to the same orientation.
        let b2 = LinearBoundary::new(-1.0, -1.0, 1.0).unwrap();
        assert_eq!(b.output(0.8, 0.8), b2.output(0.8, 0.8));
        assert_eq!(b.output(0.1, 0.1), b2.output(0.1, 0.1));
    }

    #[test]
    fn degenerate_boundary_rejected() {
        assert!(LinearBoundary::new(0.0, 0.0, 1.0).is_err());
    }

    #[test]
    fn vertical_and_horizontal_helpers() {
        let v = LinearBoundary::vertical(0.5);
        assert!(!v.output(0.4, 0.9));
        assert!(v.output(0.6, 0.1));
        let h = LinearBoundary::horizontal(0.5);
        assert!(!h.output(0.9, 0.4));
        assert!(h.output(0.1, 0.6));
    }

    #[test]
    fn linear_zoning_encodes_distinct_regions() {
        let z = LinearZoning::paper_comparable();
        assert_eq!(z.boundaries.len(), 6);
        let c_low = z.encode(0.1, 0.1);
        let c_high = z.encode(0.9, 0.9);
        let c_mid = z.encode(0.5, 0.5);
        assert_ne!(c_low, c_high);
        assert_ne!(c_low, c_mid);
        // The origin-side zone is all zeros.
        assert_eq!(z.encode(0.0, 0.0), 0);
    }

    #[test]
    fn adjacent_zones_differ_by_one_bit() {
        let z = LinearZoning::paper_comparable();
        // March across the x = 0.35 boundary at y = 0.1: exactly one bit flips.
        let before = z.encode(0.349, 0.1);
        let after = z.encode(0.351, 0.1);
        assert_eq!((before ^ after).count_ones(), 1);
    }

    #[test]
    fn normalized_output_error_baseline() {
        let golden = Waveform::from_fn(0.0, 1e-3, 1e6, |t| {
            0.5 + 0.3 * (2.0 * std::f64::consts::PI * 5e3 * t).sin()
        });
        let observed = golden.map(|v| v + 0.006);
        let err = normalized_output_error(&golden, &observed).unwrap();
        assert!((err - 0.01).abs() < 1e-3, "error {err}");
        let constant = Waveform::from_fn(0.0, 1e-3, 1e6, |_| 0.5);
        assert!(normalized_output_error(&constant, &observed).is_err());
    }
}
