//! Boundary (control) curve extraction.
//!
//! The zone boundary of a monitor is the locus in the X-Y plane where the two
//! branch currents balance. Because every Table I configuration drives the Y
//! signal into exactly one branch, the current difference is monotone in `y`
//! for a fixed `x`, so the boundary can be located with a robust bisection.

use crate::comparator::CurrentComparator;
use crate::error::{MonitorError, Result};

/// The observation window of the X-Y plane (the paper uses `[0, 1] V` on
/// both axes, Fig. 4 / Fig. 6).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    /// Lower X bound, volts.
    pub x_min: f64,
    /// Upper X bound, volts.
    pub x_max: f64,
    /// Lower Y bound, volts.
    pub y_min: f64,
    /// Upper Y bound, volts.
    pub y_max: f64,
}

impl Window {
    /// The unit window `[0, 1] V x [0, 1] V` used throughout the paper.
    pub fn unit() -> Self {
        Window {
            x_min: 0.0,
            x_max: 1.0,
            y_min: 0.0,
            y_max: 1.0,
        }
    }
}

impl Default for Window {
    fn default() -> Self {
        Window::unit()
    }
}

/// A sampled boundary curve: for each abscissa, the ordinate at which the
/// monitor output flips (if the boundary crosses the window at that abscissa).
#[derive(Debug, Clone, PartialEq)]
pub struct BoundaryCurve {
    /// Label of the monitor the curve belongs to.
    pub label: String,
    /// `(x, y)` samples of the boundary inside the window.
    pub points: Vec<(f64, f64)>,
}

impl BoundaryCurve {
    /// Number of boundary samples found inside the window.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the boundary never crosses the window.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Mean slope of the curve estimated by least squares, or `None` when
    /// fewer than two points are available. Used to classify curves as
    /// positive-slope (signals on opposite branches) or negative-slope
    /// (signals summed on the same branch), as discussed in §III-B.
    pub fn mean_slope(&self) -> Option<f64> {
        if self.points.len() < 2 {
            return None;
        }
        let n = self.points.len() as f64;
        let sx: f64 = self.points.iter().map(|p| p.0).sum();
        let sy: f64 = self.points.iter().map(|p| p.1).sum();
        let sxx: f64 = self.points.iter().map(|p| p.0 * p.0).sum();
        let sxy: f64 = self.points.iter().map(|p| p.0 * p.1).sum();
        let denom = n * sxx - sx * sx;
        if denom.abs() < 1e-15 {
            return None;
        }
        Some((n * sxy - sx * sy) / denom)
    }

    /// Maximum vertical deviation from the best straight-line fit. A perfectly
    /// linear boundary (e.g. the 45° curve away from subthreshold) has a small
    /// value; the nonlinear curves of the paper have a visibly larger one.
    pub fn max_deviation_from_line(&self) -> Option<f64> {
        let slope = self.mean_slope()?;
        let n = self.points.len() as f64;
        let sx: f64 = self.points.iter().map(|p| p.0).sum();
        let sy: f64 = self.points.iter().map(|p| p.1).sum();
        let intercept = (sy - slope * sx) / n;
        Some(
            self.points
                .iter()
                .map(|&(x, y)| (y - (slope * x + intercept)).abs())
                .fold(0.0_f64, f64::max),
        )
    }
}

/// Extracts the boundary ordinate for one abscissa by bisection over `y`.
///
/// # Errors
/// Returns [`MonitorError::BoundaryNotFound`] when the monitor output does not
/// change sign anywhere inside the window at this abscissa.
pub fn boundary_y_at(monitor: &CurrentComparator, x: f64, window: &Window) -> Result<f64> {
    let f = |y: f64| monitor.current_difference(x, y);
    let mut lo = window.y_min;
    let mut hi = window.y_max;
    let f_lo = f(lo);
    let f_hi = f(hi);
    if f_lo == 0.0 {
        return Ok(lo);
    }
    if f_hi == 0.0 {
        return Ok(hi);
    }
    if f_lo.signum() == f_hi.signum() {
        return Err(MonitorError::BoundaryNotFound { x });
    }
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        let f_mid = f(mid);
        if f_mid == 0.0 {
            return Ok(mid);
        }
        if f_mid.signum() == f_lo.signum() {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(0.5 * (lo + hi))
}

/// Samples the boundary curve of a monitor on `samples` abscissas across the
/// window. Abscissas where the boundary leaves the window are skipped, so the
/// returned curve may have fewer points than `samples`.
pub fn trace_boundary(monitor: &CurrentComparator, window: &Window, samples: usize) -> BoundaryCurve {
    let mut points = Vec::with_capacity(samples);
    for i in 0..samples {
        let x = window.x_min + (window.x_max - window.x_min) * i as f64 / (samples.max(2) - 1) as f64;
        if let Ok(y) = boundary_y_at(monitor, x, window) {
            points.push((x, y));
        }
    }
    BoundaryCurve {
        label: monitor.label.clone(),
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table1::{comparator_for_row, table1_comparators, table1_rows};

    #[test]
    fn the_default_window_is_the_unit_window() {
        assert_eq!(Window::default(), Window::unit());
    }

    #[test]
    fn diagonal_curve_has_unit_slope() {
        let rows = table1_rows();
        let m = comparator_for_row(&rows[5]).unwrap(); // curve 6: 45° line
        let curve = trace_boundary(&m, &Window::unit(), 101);
        assert!(curve.len() > 60, "boundary samples {}", curve.len());
        let slope = curve.mean_slope().unwrap();
        assert!((slope - 1.0).abs() < 0.15, "slope {slope}");
    }

    #[test]
    fn negative_slope_curves_slope_down() {
        // Curves 3-5 add X and Y on the same branch: negative slope (the
        // below-threshold plateau at small x flattens the average somewhat).
        let comps = table1_comparators().unwrap();
        for idx in 2..5 {
            let curve = trace_boundary(&comps[idx], &Window::unit(), 101);
            assert!(curve.len() > 10, "curve {} has {} samples", idx + 1, curve.len());
            let slope = curve.mean_slope().unwrap();
            assert!(slope < -0.05, "curve {} slope {}", idx + 1, slope);
        }
    }

    #[test]
    fn positive_slope_curves_slope_up() {
        let comps = table1_comparators().unwrap();
        for idx in 0..2 {
            let curve = trace_boundary(&comps[idx], &Window::unit(), 101);
            if curve.len() < 10 {
                continue; // the boundary may cross the window only partially
            }
            let slope = curve.mean_slope().unwrap();
            assert!(slope > 0.05, "curve {} slope {}", idx + 1, slope);
        }
    }

    #[test]
    fn nonlinear_curves_deviate_from_straight_line() {
        // Curve 4 (DC = 0.3 V) is a circular-arc-like boundary: clearly nonlinear.
        let comps = table1_comparators().unwrap();
        let curve = trace_boundary(&comps[3], &Window::unit(), 201);
        let dev = curve.max_deviation_from_line().unwrap();
        assert!(dev > 0.01, "expected a nonlinear boundary, deviation {dev}");
    }

    #[test]
    fn boundary_point_is_on_the_balance_locus() {
        let comps = table1_comparators().unwrap();
        let m = &comps[2];
        let y = boundary_y_at(m, 0.5, &Window::unit()).unwrap();
        assert!(m.current_difference(0.5, y).abs() < 1e-9);
    }

    #[test]
    fn missing_boundary_is_reported() {
        let comps = table1_comparators().unwrap();
        // Curve 4 uses a 0.3 V reference, so its boundary hugs the lower-left
        // corner: at large x the left branch always dominates and no crossing
        // exists inside the window.
        let m = &comps[3];
        let res = boundary_y_at(m, 0.9, &Window::unit());
        assert!(matches!(res, Err(MonitorError::BoundaryNotFound { .. })));
    }

    #[test]
    fn empty_curve_has_no_slope() {
        let c = BoundaryCurve {
            label: "x".into(),
            points: vec![],
        };
        assert!(c.is_empty());
        assert!(c.mean_slope().is_none());
        assert!(c.max_deviation_from_line().is_none());
    }
}
