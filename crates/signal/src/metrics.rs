//! The waveform error of the classic baseline.
//!
//! The baseline comparison (`baseline_comparison` and
//! `dsig_core::normalized_output_error`) sets the paper's digital signature
//! against a transient-test style metric that compares the raw CUT output
//! with a golden output: the RMS error normalized by the golden's
//! peak-to-peak amplitude.

use crate::waveform::{SignalError, Waveform};

/// Normalized RMS error: RMS error divided by the golden waveform's
/// peak-to-peak amplitude. Dimensionless, comparable across signal levels.
///
/// # Errors
/// Returns [`SignalError::GridMismatch`] if the lengths differ,
/// [`SignalError::TooShort`] for empty waveforms and
/// [`SignalError::InvalidParameter`] if the golden waveform is constant
/// (zero peak-to-peak).
pub fn normalized_rms_error(golden: &Waveform, observed: &Waveform) -> Result<f64, SignalError> {
    if golden.len() != observed.len() {
        return Err(SignalError::GridMismatch {
            left: golden.len(),
            right: observed.len(),
        });
    }
    if golden.is_empty() {
        return Err(SignalError::TooShort { len: 0, needed: 1 });
    }
    let span = golden.peak_to_peak();
    if span <= 0.0 {
        return Err(SignalError::InvalidParameter(
            "golden waveform has zero peak-to-peak amplitude".into(),
        ));
    }
    let squares: f64 = golden
        .samples()
        .iter()
        .zip(observed.samples())
        .map(|(x, y)| (x - y) * (x - y))
        .sum();
    Ok((squares / golden.len() as f64).sqrt() / span)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(offset: f64) -> Waveform {
        Waveform::from_fn(0.0, 1.0, 100.0, move |t| t + offset)
    }

    #[test]
    fn identical_waveforms_have_zero_error() {
        let a = ramp(0.0);
        assert_eq!(normalized_rms_error(&a, &a).unwrap(), 0.0);
    }

    #[test]
    fn constant_offset_gives_expected_errors() {
        let a = ramp(0.0);
        let b = ramp(0.1);
        let expected = 0.1 / a.peak_to_peak();
        assert!((normalized_rms_error(&a, &b).unwrap() - expected).abs() < 1e-12);
    }

    #[test]
    fn normalized_error_scales_by_span() {
        let a = ramp(0.0); // peak-to-peak 0.99
        let b = ramp(0.099);
        let nrms = normalized_rms_error(&a, &b).unwrap();
        assert!((nrms - 0.1).abs() < 1e-2);
    }

    #[test]
    fn normalized_error_rejects_constant_golden() {
        let a = Waveform::from_fn(0.0, 1.0, 10.0, |_| 0.5);
        let b = ramp(0.0).resample(10.0);
        assert!(normalized_rms_error(&a, &b).is_err());
    }

    #[test]
    fn mismatched_grids_rejected() {
        let a = ramp(0.0);
        let b = Waveform::from_fn(0.0, 1.0, 50.0, |t| t);
        assert!(matches!(
            normalized_rms_error(&a, &b),
            Err(SignalError::GridMismatch { .. })
        ));
    }

    #[test]
    fn empty_waveforms_rejected() {
        let a = Waveform::new(0.0, 1.0, vec![]);
        let b = Waveform::new(0.0, 1.0, vec![]);
        assert!(matches!(
            normalized_rms_error(&a, &b),
            Err(SignalError::TooShort { .. })
        ));
    }
}
