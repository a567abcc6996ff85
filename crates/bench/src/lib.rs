//! # repro-bench
//!
//! Shared helpers for the paper-reproduction binaries and the `dsig_top`
//! fleet console ([`top`]). Each other binary in `src/bin/` regenerates one
//! table or figure of the paper's evaluation, or a study built on them
//! (baselines, design ablation, noise detection); README.md shows how to
//! run them. Performance is measured by the separate `perfbench/` package,
//! not here.

#![warn(missing_docs)]

pub mod top;

use cut_filters::BiquadParams;
use dsig_core::{DsigError, TestFlow, TestSetup};

/// Sample rate used by all reproduction binaries (samples per second of the
/// observed x/y signals). 2 MS/s resolves the 200 µs Lissajous with 400
/// points while keeping every binary fast enough for CI.
pub const REPRO_SAMPLE_RATE: f64 = 2e6;

/// Builds the paper's test flow: default stimulus, Table I monitors, 10 MHz /
/// 12-bit capture clock, nominal Biquad reference.
///
/// # Errors
/// Propagates setup construction errors.
pub fn paper_flow() -> Result<TestFlow, DsigError> {
    let setup = TestSetup::paper_default()?.with_sample_rate(REPRO_SAMPLE_RATE)?;
    TestFlow::new(setup, BiquadParams::paper_default())
}

/// Prints a simple ASCII header for a reproduction binary.
pub fn banner(experiment: &str, description: &str) {
    println!("================================================================");
    println!("{experiment}");
    println!("{description}");
    println!("================================================================");
}

/// Renders a crude ASCII scatter of `(x, y)` series for terminal inspection:
/// `width x height` characters covering the given axis ranges.
pub fn ascii_plot(
    series: &[(&str, &[(f64, f64)])],
    x_range: (f64, f64),
    y_range: (f64, f64),
    width: usize,
    height: usize,
) -> String {
    let mut grid = vec![vec![' '; width]; height];
    let markers = ['*', '+', 'o', 'x', '#', '@'];
    for (s, (_, points)) in series.iter().enumerate() {
        let marker = markers[s % markers.len()];
        for &(x, y) in points.iter() {
            if x < x_range.0 || x > x_range.1 || y < y_range.0 || y > y_range.1 {
                continue;
            }
            let col = ((x - x_range.0) / (x_range.1 - x_range.0) * (width - 1) as f64).round() as usize;
            let row = ((y - y_range.0) / (y_range.1 - y_range.0) * (height - 1) as f64).round() as usize;
            let row = height - 1 - row;
            grid[row][col] = marker;
        }
    }
    let mut out = String::new();
    for row in grid {
        out.push('|');
        out.extend(row);
        out.push('\n');
    }
    out.push('+');
    out.push_str(&"-".repeat(width));
    out.push('\n');
    for (s, (name, _)) in series.iter().enumerate() {
        out.push_str(&format!("  {} {}\n", markers[s % markers.len()], name));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_flow_builds() {
        let flow = paper_flow().expect("flow");
        assert!(!flow.golden().is_empty());
    }

    #[test]
    fn ascii_plot_places_points() {
        let pts = [(0.0, 0.0), (1.0, 1.0)];
        let plot = ascii_plot(&[("demo", &pts)], (0.0, 1.0), (0.0, 1.0), 10, 5);
        assert!(plot.contains('*'));
        assert!(plot.contains("demo"));
    }
}
