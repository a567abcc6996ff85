//! The normalized discrepancy factor (NDF), Eq. (2) of the paper.
//!
//! `NDF = (1/T) * integral_0^T dH(S_O(t), S_G(t)) dt` — the time average of
//! the Hamming distance between the observed and golden instantaneous zone
//! codes over one Lissajous period.

use crate::error::{DsigError, Result};
use crate::signature::{Signature, SignatureEntry, ZoneCode};

/// One segment of the Hamming-distance chronogram (the lower plot of Fig. 7):
/// the Hamming distance is constant over `[t_start, t_end)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HammingSegment {
    /// Segment start time, seconds.
    pub t_start: f64,
    /// Segment end time, seconds.
    pub t_end: f64,
    /// Hamming distance between the golden and observed codes on the segment.
    pub distance: u32,
}

impl HammingSegment {
    /// Duration of the segment, seconds.
    pub fn duration(&self) -> f64 {
        self.t_end - self.t_start
    }
}

/// Builds the piecewise-constant Hamming-distance chronogram between a golden
/// and an observed signature over the golden period.
///
/// # Errors
/// Returns [`DsigError::InvalidSignature`] if either signature is empty.
pub fn hamming_chronogram(golden: &Signature, observed: &Signature) -> Result<Vec<HammingSegment>> {
    if golden.is_empty() || observed.is_empty() {
        return Err(DsigError::InvalidSignature("cannot compare empty signatures".into()));
    }
    let period = golden.total_duration();

    // Merge the transition instants of both signatures into one breakpoint list.
    let mut breakpoints: Vec<f64> = vec![0.0];
    breakpoints.extend(golden.transition_times());
    breakpoints.extend(observed.transition_times().into_iter().filter(|&t| t < period));
    breakpoints.push(period);
    breakpoints.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    breakpoints.dedup_by(|a, b| (*a - *b).abs() < 1e-15);

    let mut segments = Vec::with_capacity(breakpoints.len());
    for pair in breakpoints.windows(2) {
        let (t0, t1) = (pair[0], pair[1]);
        if t1 - t0 <= 0.0 {
            continue;
        }
        let mid = 0.5 * (t0 + t1);
        let distance = golden.code_at(mid).hamming_distance(observed.code_at(mid));
        segments.push(HammingSegment {
            t_start: t0,
            t_end: t1,
            distance,
        });
    }
    Ok(segments)
}

/// Computes the normalized discrepancy factor between a golden and an
/// observed signature (Eq. 2). The integration window is the golden
/// signature's total duration (one Lissajous period).
///
/// # Errors
/// Returns [`DsigError::InvalidSignature`] if either signature is empty or the
/// golden signature has zero duration.
pub fn ndf(golden: &Signature, observed: &Signature) -> Result<f64> {
    let period = golden.total_duration();
    if period <= 0.0 {
        return Err(DsigError::InvalidSignature("golden signature has zero duration".into()));
    }
    let segments = hamming_chronogram(golden, observed)?;
    let weighted: f64 = segments.iter().map(|s| s.distance as f64 * s.duration()).sum();
    Ok(weighted / period)
}

/// The maximum Hamming distance observed over the comparison window
/// (the peak of the Fig. 7 lower chronogram).
///
/// # Errors
/// Same as [`hamming_chronogram`].
pub fn peak_hamming_distance(golden: &Signature, observed: &Signature) -> Result<u32> {
    Ok(hamming_chronogram(golden, observed)?
        .iter()
        .map(|s| s.distance)
        .max()
        .unwrap_or(0))
}

/// The NDF and the peak Hamming distance of one comparison, bit-identical to
/// `(ndf(golden, observed)?, peak_hamming_distance(golden, observed)?)`.
///
/// Every scoring path uses this; [`ndf`], [`peak_hamming_distance`] and
/// [`hamming_chronogram`] stay as the reference it is tested against. It
/// makes one allocation-free merge walk over both signatures' cumulative
/// boundaries and replays the reference arithmetic: the same breakpoints in
/// the same order, the same 1e-15 dedup, the same midpoint code lookups (a
/// forward cursor per signature instead of a rescan) and the same summation
/// order.
///
/// # Errors
/// Same as [`ndf`], in the same order.
pub fn ndf_and_peak(golden: &Signature, observed: &Signature) -> Result<(f64, u32)> {
    let period = golden.total_duration();
    if period <= 0.0 {
        return Err(DsigError::InvalidSignature("golden signature has zero duration".into()));
    }
    if golden.is_empty() || observed.is_empty() {
        return Err(DsigError::InvalidSignature("cannot compare empty signatures".into()));
    }
    let mut golden_times = transitions(golden.entries()).peekable();
    let mut observed_times = transitions(observed.entries()).take_while(|&t| t < period).peekable();
    let breakpoints = std::iter::from_fn(|| match (golden_times.peek(), observed_times.peek()) {
        (Some(g), Some(o)) if o < g => observed_times.next(),
        (Some(_), _) => golden_times.next(),
        (None, _) => observed_times.next(),
    })
    .chain(std::iter::once(period));

    let mut golden_code = CodeCursor::new(golden.entries());
    let mut observed_code = CodeCursor::new(observed.entries());
    // `Iterator::sum` over the chronogram folds from -0.0.
    let (mut t0, mut weighted, mut peak) = (0.0, -0.0, 0);
    for t1 in breakpoints {
        // The reference's dedup. Kept breakpoints ascend at least 1e-15
        // apart, so its skip of non-positive windows never fires.
        if (t1 - t0).abs() < 1e-15 {
            continue;
        }
        let mid = 0.5 * (t0 + t1);
        let distance = golden_code.at(mid).hamming_distance(observed_code.at(mid));
        weighted += distance as f64 * (t1 - t0);
        peak = peak.max(distance);
        t0 = t1;
    }
    Ok((weighted / period, peak))
}

/// A non-empty signature's transition instants, accumulated from 0.0 in
/// entry order as [`Signature::transition_times`] does.
fn transitions(entries: &[SignatureEntry]) -> impl Iterator<Item = f64> + '_ {
    entries[..entries.len() - 1].iter().scan(0.0, |acc, e| {
        *acc += e.duration;
        Some(*acc)
    })
}

/// [`Signature::code_at`] for non-decreasing times: the cursor keeps the
/// entry it last returned and that entry's end, summed in `code_at`'s order.
struct CodeCursor<'a> {
    entries: &'a [SignatureEntry],
    index: usize,
    end: f64,
}

impl<'a> CodeCursor<'a> {
    fn new(entries: &'a [SignatureEntry]) -> Self {
        CodeCursor {
            entries,
            index: 0,
            end: entries[0].duration,
        }
    }

    /// The code at `t`. A time at or before 0 finds the cursor on the first
    /// entry (durations are positive); one past the end stops on the last.
    fn at(&mut self, t: f64) -> ZoneCode {
        while !(t < self.end) && self.index + 1 < self.entries.len() {
            self.index += 1;
            self.end += self.entries[self.index].duration;
        }
        self.entries[self.index].code
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(entries: &[(u32, f64)]) -> Signature {
        Signature::new(
            entries
                .iter()
                .map(|&(c, d)| SignatureEntry {
                    code: ZoneCode(c),
                    duration: d,
                })
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn identical_signatures_have_zero_ndf() {
        let g = sig(&[(4, 10e-6), (20, 30e-6), (28, 60e-6)]);
        assert_eq!(ndf(&g, &g).unwrap(), 0.0);
        assert_eq!(peak_hamming_distance(&g, &g).unwrap(), 0);
    }

    #[test]
    fn completely_different_single_bit_gives_one() {
        // Codes differ by exactly one bit for the whole period.
        let g = sig(&[(0b0, 100e-6)]);
        let o = sig(&[(0b1, 100e-6)]);
        assert!((ndf(&g, &o).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ndf_weights_by_duration() {
        // Half the period differs by 2 bits, the other half matches: NDF = 1.
        let g = sig(&[(0b00, 50e-6), (0b11, 50e-6)]);
        let o = sig(&[(0b11, 50e-6), (0b11, 50e-6)]);
        assert!((ndf(&g, &o).unwrap() - 1.0).abs() < 1e-12);
        // A quarter of the period differing by 2 bits gives NDF = 0.5.
        let o2 = sig(&[(0b11, 25e-6), (0b00, 75e-6)]);
        let g2 = sig(&[(0b00, 100e-6)]);
        assert!((ndf(&g2, &o2).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn chronogram_segments_cover_the_period() {
        let g = sig(&[(4, 10e-6), (20, 30e-6), (28, 60e-6)]);
        let o = sig(&[(4, 12e-6), (20, 28e-6), (30, 60e-6)]);
        let segs = hamming_chronogram(&g, &o).unwrap();
        let total: f64 = segs.iter().map(|s| s.duration()).sum();
        assert!((total - g.total_duration()).abs() < 1e-12);
        // Segments are ordered and non-overlapping.
        for pair in segs.windows(2) {
            assert!(pair[0].t_end <= pair[1].t_start + 1e-15);
        }
    }

    #[test]
    fn misaligned_transitions_produce_nonzero_ndf() {
        // Same code sequence but the transition is 10 µs late in the observed
        // signature: the mismatch window is 10 µs out of 100 µs with distance 1.
        let g = sig(&[(0b01, 50e-6), (0b11, 50e-6)]);
        let o = sig(&[(0b01, 60e-6), (0b11, 40e-6)]);
        let value = ndf(&g, &o).unwrap();
        assert!((value - 0.1).abs() < 1e-9, "ndf {value}");
        assert_eq!(peak_hamming_distance(&g, &o).unwrap(), 1);
    }

    #[test]
    fn observed_shorter_than_golden_extends_last_code() {
        let g = sig(&[(0b0, 50e-6), (0b1, 50e-6)]);
        let o = sig(&[(0b0, 50e-6), (0b1, 25e-6)]);
        // The observed signature's last code is held, so the tail still matches.
        assert_eq!(ndf(&g, &o).unwrap(), 0.0);
    }

    #[test]
    fn empty_signatures_rejected() {
        let g = sig(&[(1, 1.0)]);
        let empty = Signature::default();
        assert!(ndf(&g, &empty).is_err());
        assert!(ndf(&empty, &g).is_err());
        assert!(hamming_chronogram(&empty, &empty).is_err());
    }

    /// `ndf_and_peak` against the two reference calls: NDF bits, peak and
    /// error all equal.
    fn assert_matches_reference(golden: &Signature, observed: &Signature) {
        let reference = ndf(golden, observed).and_then(|n| Ok((n.to_bits(), peak_hamming_distance(golden, observed)?)));
        let one_pass = ndf_and_peak(golden, observed).map(|(n, peak)| (n.to_bits(), peak));
        assert_eq!(one_pass, reference, "golden {golden:?} observed {observed:?}");
    }

    #[test]
    fn one_pass_scoring_matches_the_reference_on_edge_cases() {
        let g = sig(&[(4, 10e-6), (20, 30e-6), (28, 60e-6)]);
        let tiny = sig(&[(1, 4e-16), (2, 4e-16)]);
        let cases = [
            (g.clone(), sig(&[(4, 12e-6), (20, 28e-6), (30, 60e-6)])),
            (g.clone(), g.clone()),
            // An observed transition 5e-16 s after the golden's is dropped by
            // the dedup; one past the period is ignored.
            (g.clone(), sig(&[(5, 10e-6 + 5e-16), (20, 100e-6), (7, 1.0)])),
            // A golden shorter than 1e-15 s has no window at all.
            (tiny.clone(), sig(&[(6, 1.0)])),
            // The last midpoint overflows to +inf, where `code_at` returns the
            // last code of each signature.
            (
                sig(&[(1, f64::MAX / 4.0), (2, f64::MAX / 2.0)]),
                sig(&[(3, f64::MAX / 2.0), (0, f64::MAX / 4.0)]),
            ),
            (g.clone(), Signature::default()),
            (Signature::default(), g.clone()),
        ];
        for (golden, observed) in &cases {
            assert_matches_reference(golden, observed);
        }
        let (value, peak) = ndf_and_peak(&tiny, &cases[3].1).unwrap();
        assert_eq!((value.to_bits(), peak), ((-0.0f64).to_bits(), 0));
    }

    #[test]
    fn segment_duration_helper() {
        let s = HammingSegment {
            t_start: 1.0,
            t_end: 3.5,
            distance: 2,
        };
        assert!((s.duration() - 2.5).abs() < 1e-12);
    }
}
