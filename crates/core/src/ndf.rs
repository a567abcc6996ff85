//! The normalized discrepancy factor (NDF), Eq. (2) of the paper.
//!
//! `NDF = (1/T) * integral_0^T dH(S_O(t), S_G(t)) dt` — the time average of
//! the Hamming distance between the observed and golden instantaneous zone
//! codes over one Lissajous period. Over counted dwells the integral is a
//! sum: `NDF = Σ dH × Δcount / T`, where each Δcount is a stretch on which
//! both signatures hold one code and T is the golden's total count. The sum
//! is exact in integers; the one division is the only rounding.

use crate::error::{DsigError, Result};
use crate::signature::{Signature, SignatureEntry};

/// One segment of the Hamming-distance chronogram (the lower plot of Fig. 7):
/// the Hamming distance is constant over the counts `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HammingSegment {
    /// First count of the segment.
    pub start: u32,
    /// One past the last count of the segment.
    pub end: u32,
    /// Hamming distance between the golden and observed codes on the segment.
    pub distance: u32,
}

impl HammingSegment {
    /// Number of counts the segment spans.
    pub fn count(&self) -> u32 {
        self.end - self.start
    }
}

/// Checks that two signatures can be compared.
///
/// # Errors
/// Returns [`DsigError::InvalidSignature`] if either signature is empty or
/// their units differ.
fn comparable(golden: &Signature, observed: &Signature) -> Result<()> {
    if golden.is_empty() || observed.is_empty() {
        return Err(DsigError::InvalidSignature("cannot compare empty signatures".into()));
    }
    if golden.unit() != observed.unit() {
        return Err(DsigError::InvalidSignature(format!(
            "the observed signature counts {} s per count, the golden {} s",
            observed.unit(),
            golden.unit()
        )));
    }
    Ok(())
}

/// Builds the piecewise-constant Hamming-distance chronogram between a golden
/// and an observed signature over the golden period. Segments are non-empty
/// and cover `[0, T)` in order; an observed signature shorter than the
/// golden holds its last code.
///
/// # Errors
/// Returns [`DsigError::InvalidSignature`] if either signature is empty or
/// their units differ.
pub fn hamming_chronogram(golden: &Signature, observed: &Signature) -> Result<Vec<HammingSegment>> {
    comparable(golden, observed)?;
    let period = golden.total_count();
    // Every entry boundary of either signature inside the window.
    let mut breakpoints: Vec<u32> = vec![0, period];
    for signature in [golden, observed] {
        breakpoints.extend(ends(signature.entries()).take_while(|&end| end < period));
    }
    breakpoints.sort_unstable();
    breakpoints.dedup();
    Ok(breakpoints
        .windows(2)
        .map(|pair| HammingSegment {
            start: pair[0],
            end: pair[1],
            distance: golden.code_at(pair[0]).hamming_distance(observed.code_at(pair[0])),
        })
        .collect())
}

/// Computes the normalized discrepancy factor between a golden and an
/// observed signature (Eq. 2). The integration window is the golden
/// signature's total count (one Lissajous period).
///
/// # Errors
/// Returns [`DsigError::InvalidSignature`] if either signature is empty or
/// their units differ.
pub fn ndf(golden: &Signature, observed: &Signature) -> Result<f64> {
    let weighted: u64 = hamming_chronogram(golden, observed)?
        .iter()
        .map(|s| u64::from(s.distance) * u64::from(s.count()))
        .sum();
    Ok(weighted as f64 / f64::from(golden.total_count()))
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
/// makes one allocation-free merge walk over both signatures' entries,
/// stepping to whichever entry ends first. The weighted sum is exact in a
/// `u64` (at most 32 bits of distance times a `u32` window), so summing in
/// walk order gives the reference's sum, and the same one division by the
/// walk's last golden boundary, the golden's total, gives the same NDF.
///
/// # Errors
/// Same as [`ndf`].
pub fn ndf_and_peak(golden: &Signature, observed: &Signature) -> Result<(f64, u32)> {
    comparable(golden, observed)?;
    let (mut golden_entries, mut observed_entries) = (golden.entries().iter(), observed.entries().iter());
    let (Some(mut g), Some(mut o)) = (golden_entries.next(), observed_entries.next()) else {
        unreachable!("`comparable` rejects empty signatures");
    };
    // Where the current golden and observed entries end.
    let (mut g_end, mut o_end) = (g.count, o.count);
    let (mut at, mut weighted, mut peak) = (0u32, 0u64, 0u32);
    loop {
        let end = g_end.min(o_end);
        let distance = g.code.hamming_distance(o.code);
        weighted += u64::from(distance) * u64::from(end - at);
        peak = peak.max(distance);
        at = end;
        if at == o_end {
            match observed_entries.next() {
                Some(next) => {
                    o = next;
                    o_end += next.count;
                }
                // The observed signature's last code holds to the end of
                // the window.
                None => o_end = u32::MAX,
            }
        }
        if at == g_end {
            match golden_entries.next() {
                Some(next) => {
                    g = next;
                    g_end += next.count;
                }
                None => break,
            }
        }
    }
    Ok((weighted as f64 / f64::from(g_end), peak))
}

/// A signature's cumulative entry ends, in counts.
fn ends(entries: &[SignatureEntry]) -> impl Iterator<Item = u32> + '_ {
    entries.iter().scan(0u32, |end, e| {
        *end += e.count;
        Some(*end)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::ZoneCode;

    /// A signature of 1 µs counts.
    fn sig(entries: &[(u32, u32)]) -> Signature {
        sig_in(1e-6, entries)
    }

    fn sig_in(unit: f64, entries: &[(u32, u32)]) -> Signature {
        Signature::new(
            unit,
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
    fn identical_signatures_have_zero_ndf() {
        let g = sig(&[(4, 10), (20, 30), (28, 60)]);
        assert_eq!(ndf(&g, &g).unwrap(), 0.0);
        assert_eq!(peak_hamming_distance(&g, &g).unwrap(), 0);
    }

    #[test]
    fn completely_different_single_bit_gives_one() {
        // Codes differ by exactly one bit for the whole period.
        let g = sig(&[(0b0, 100)]);
        let o = sig(&[(0b1, 100)]);
        assert_eq!(ndf(&g, &o).unwrap(), 1.0);
    }

    #[test]
    fn ndf_weights_by_duration() {
        // Half the period differs by 2 bits, the other half matches: NDF = 1.
        let g = sig(&[(0b00, 50), (0b11, 50)]);
        let o = sig(&[(0b11, 100)]);
        assert_eq!(ndf(&g, &o).unwrap(), 1.0);
        // A quarter of the period differing by 2 bits gives NDF = 0.5.
        let o2 = sig(&[(0b11, 25), (0b00, 75)]);
        let g2 = sig(&[(0b00, 100)]);
        assert_eq!(ndf(&g2, &o2).unwrap(), 0.5);
    }

    #[test]
    fn ndf_is_the_distance_weighted_count_over_the_total() {
        // By hand, over the golden's 70 counts:
        //   [0, 10)  5 ^ 5 = 0        0 × 10 =   0
        //   [10, 25) 6 ^ 5 = 0b011    2 × 15 =  30
        //   [25, 30) 6 ^ 7 = 0b001    1 ×  5 =   5
        //   [30, 60) 1 ^ 7 = 0b110    2 × 30 =  60
        //   [60, 70) 1 ^ 7, the observed 7 held past its end
        //                             2 × 10 =  20
        // NDF = 115 / 70, peak 2.
        let g = sig(&[(5, 10), (6, 20), (1, 40)]);
        let o = sig(&[(5, 25), (7, 35)]);
        let (value, peak) = ndf_and_peak(&g, &o).unwrap();
        assert_eq!(value.to_bits(), (115.0f64 / 70.0).to_bits());
        assert_eq!(peak, 2);
        assert_eq!(ndf(&g, &o).unwrap().to_bits(), value.to_bits());
        let segments = hamming_chronogram(&g, &o).unwrap();
        let spans: Vec<(u32, u32, u32)> = segments.iter().map(|s| (s.start, s.end, s.distance)).collect();
        assert_eq!(spans, [(0, 10, 0), (10, 25, 2), (25, 30, 1), (30, 60, 2), (60, 70, 2)]);
    }

    #[test]
    fn chronogram_segments_cover_the_period() {
        let g = sig(&[(4, 10), (20, 30), (28, 60)]);
        let o = sig(&[(4, 12), (20, 28), (30, 60)]);
        let segs = hamming_chronogram(&g, &o).unwrap();
        assert_eq!(segs.iter().map(HammingSegment::count).sum::<u32>(), g.total_count());
        // Segments are ordered, adjacent and non-empty.
        assert_eq!(segs[0].start, 0);
        for pair in segs.windows(2) {
            assert_eq!(pair[0].end, pair[1].start);
            assert!(pair[0].count() > 0);
        }
    }

    #[test]
    fn misaligned_transitions_produce_nonzero_ndf() {
        // Same code sequence but the transition is 10 counts late in the
        // observed signature: the mismatch window is 10 of 100 counts with
        // distance 1.
        let g = sig(&[(0b01, 50), (0b11, 50)]);
        let o = sig(&[(0b01, 60), (0b11, 40)]);
        assert_eq!(ndf(&g, &o).unwrap(), 0.1);
        assert_eq!(peak_hamming_distance(&g, &o).unwrap(), 1);
    }

    #[test]
    fn observed_shorter_than_golden_extends_last_code() {
        let g = sig(&[(0b0, 50), (0b1, 50)]);
        let o = sig(&[(0b0, 50), (0b1, 25)]);
        // The observed signature's last code is held, so the tail still matches.
        assert_eq!(ndf(&g, &o).unwrap(), 0.0);
    }

    #[test]
    fn empty_signatures_rejected() {
        let g = sig(&[(1, 1)]);
        let empty = sig(&[]);
        assert!(ndf(&g, &empty).is_err());
        assert!(ndf(&empty, &g).is_err());
        assert!(hamming_chronogram(&empty, &empty).is_err());
    }

    #[test]
    fn signatures_of_different_units_are_an_error_not_a_number() {
        // The same codes and counts on the paper clock's tick and on a 2 MS/s
        // sample period.
        let g = sig_in(1e-7, &[(4, 10), (20, 30)]);
        let o = sig_in(5e-7, &[(4, 10), (20, 30)]);
        for result in [
            ndf(&g, &o),
            ndf_and_peak(&g, &o).map(|(value, _)| value),
            peak_hamming_distance(&g, &o).map(f64::from),
        ] {
            assert!(
                matches!(&result, Err(DsigError::InvalidSignature(message)) if message.contains("per count")),
                "{result:?}"
            );
        }
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
        let g = sig(&[(4, 10), (20, 30), (28, 60)]);
        let cases = [
            (g.clone(), sig(&[(4, 12), (20, 28), (30, 60)])),
            (g.clone(), g.clone()),
            // An observed boundary on the golden's; one past the period.
            (g.clone(), sig(&[(5, 10), (20, 90), (7, 1000)])),
            // An observed signature ending exactly at the period, and one
            // ending at the last count a signature can hold.
            (g.clone(), sig(&[(3, 100)])),
            (
                sig(&[(1, u32::MAX / 4), (2, u32::MAX / 2)]),
                sig(&[(3, u32::MAX / 2), (0, u32::MAX / 2)]),
            ),
            (g.clone(), sig(&[])),
            (sig(&[]), g.clone()),
            (g.clone(), sig_in(2e-6, &[(4, 10)])),
        ];
        for (golden, observed) in &cases {
            assert_matches_reference(golden, observed);
        }
    }

    #[test]
    fn segment_duration_helper() {
        let s = HammingSegment {
            start: 10,
            end: 35,
            distance: 2,
        };
        assert_eq!(s.count(), 25);
    }
}
