//! Digital signatures: zone codes and (code, duration) sequences.
//!
//! Eq. (1) of the paper defines the CUT signature as the ordered sequence of
//! pairs `(Z_i, Delta_i)`: the zone code traversed by the Lissajous curve and
//! the time spent in that zone.

use std::fmt;

use crate::error::{DsigError, Result};
use crate::wire::{self, ByteReader, Format, Wire};

/// An n-bit zone code delivered by the monitor bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct ZoneCode(pub u32);

impl ZoneCode {
    /// The raw code value.
    pub fn value(self) -> u32 {
        self.0
    }

    /// Hamming distance to another zone code (number of differing monitor bits).
    pub fn hamming_distance(self, other: ZoneCode) -> u32 {
        (self.0 ^ other.0).count_ones()
    }

    /// Formats the code as a zero-padded binary string of `bits` bits, the
    /// notation used in Fig. 6 (e.g. `011100`).
    pub fn to_binary_string(self, bits: usize) -> String {
        format!("{:0width$b}", self.0, width = bits)
    }
}

impl From<u32> for ZoneCode {
    fn from(v: u32) -> Self {
        ZoneCode(v)
    }
}

impl fmt::Display for ZoneCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Binary for ZoneCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

/// One `(Z_i, Delta_i)` entry of a signature.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SignatureEntry {
    /// Zone code.
    pub code: ZoneCode,
    /// Time spent in the zone, seconds.
    pub duration: f64,
}

/// A digital signature: the ordered sequence of zone codes traversed by the
/// Lissajous trajectory with the dwell time in each zone (Eq. 1).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Signature {
    entries: Vec<SignatureEntry>,
}

impl Signature {
    /// Creates a signature from raw entries, merging consecutive entries with
    /// identical codes and dropping zero-duration entries.
    ///
    /// # Errors
    /// Returns [`DsigError::InvalidSignature`] if any duration is negative or
    /// not finite, or if the durations sum past `f64::MAX`.
    pub fn new(mut entries: Vec<SignatureEntry>) -> Result<Self> {
        for e in &entries {
            if !(e.duration >= 0.0) || !e.duration.is_finite() {
                return Err(DsigError::InvalidSignature(format!(
                    "zone {} has an invalid duration {}",
                    e.code, e.duration
                )));
            }
        }
        // Merge in place: `kept` entries are final so far, and the read
        // index never falls behind the write index.
        let mut kept = 0;
        for i in 0..entries.len() {
            let e = entries[i];
            if e.duration == 0.0 {
                continue;
            }
            if kept > 0 && entries[kept - 1].code == e.code {
                entries[kept - 1].duration += e.duration;
            } else {
                entries[kept] = e;
                kept += 1;
            }
        }
        entries.truncate(kept);
        let signature = Signature { entries };
        // Every cumulative boundary is at most the total, so a finite total
        // keeps every instant the NDF walks finite.
        let total = signature.total_duration();
        if !total.is_finite() {
            return Err(DsigError::InvalidSignature(format!("durations sum to {total}")));
        }
        Ok(signature)
    }

    /// Builds a signature from uniformly sampled zone codes with sample
    /// period `dt` seconds.
    ///
    /// # Errors
    /// Returns [`DsigError::InvalidSignature`] for an empty code sequence or a
    /// non-positive `dt`.
    pub fn from_sampled_codes(codes: &[u32], dt: f64) -> Result<Self> {
        if codes.is_empty() {
            return Err(DsigError::InvalidSignature(
                "no zone codes to build a signature from".into(),
            ));
        }
        if !(dt > 0.0) || !dt.is_finite() {
            return Err(DsigError::InvalidSignature(format!("invalid sample period {dt}")));
        }
        let entries = codes
            .iter()
            .map(|&c| SignatureEntry {
                code: ZoneCode(c),
                duration: dt,
            })
            .collect();
        Signature::new(entries)
    }

    /// The `(Z_i, Delta_i)` entries in traversal order.
    pub fn entries(&self) -> &[SignatureEntry] {
        &self.entries
    }

    /// Number of zone traversals `k` in the signature.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the signature has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total duration `T` covered by the signature, seconds.
    pub fn total_duration(&self) -> f64 {
        self.entries.iter().map(|e| e.duration).sum()
    }

    /// Number of *distinct* zone codes visited.
    pub fn distinct_zones(&self) -> usize {
        let mut codes: Vec<u32> = self.entries.iter().map(|e| e.code.value()).collect();
        codes.sort_unstable();
        codes.dedup();
        codes.len()
    }

    /// The zone code active at time `t` (seconds from the start of the
    /// signature). Times beyond the total duration return the last code;
    /// negative times return the first code.
    ///
    /// # Panics
    /// Panics if the signature is empty.
    pub fn code_at(&self, t: f64) -> ZoneCode {
        assert!(!self.entries.is_empty(), "code_at on an empty signature");
        if t <= 0.0 {
            return self.entries[0].code;
        }
        let mut acc = 0.0;
        for e in &self.entries {
            acc += e.duration;
            if t < acc {
                return e.code;
            }
        }
        self.entries[self.entries.len() - 1].code
    }

    /// The transition instants of the signature (cumulative entry boundaries,
    /// excluding 0 and the total duration).
    pub fn transition_times(&self) -> Vec<f64> {
        let mut times = Vec::with_capacity(self.entries.len().saturating_sub(1));
        let mut acc = 0.0;
        for e in &self.entries[..self.entries.len().saturating_sub(1)] {
            acc += e.duration;
            times.push(acc);
        }
        times
    }

    /// Returns a copy with every entry shorter than `min_dwell` seconds merged
    /// into its predecessor (or successor for a leading glitch).
    ///
    /// This models the finite response time of the asynchronous transition
    /// detector of Fig. 5: zone crossings caused by high-frequency noise
    /// chatter near a boundary are too short for the capture hardware to
    /// register, while genuine zone dwells (microseconds and longer for the
    /// paper's 200 µs Lissajous) are preserved.
    pub fn deglitched(&self, min_dwell: f64) -> Signature {
        if min_dwell <= 0.0 || self.entries.len() < 2 {
            return self.clone();
        }
        let mut merged: Vec<SignatureEntry> = Vec::with_capacity(self.entries.len());
        let mut carry = 0.0;
        for &e in &self.entries {
            if e.duration < min_dwell {
                // Too short to be registered: its time is absorbed by the
                // surrounding zone (the previous one when it exists).
                if let Some(last) = merged.last_mut() {
                    last.duration += e.duration;
                } else {
                    carry += e.duration;
                }
            } else {
                let mut entry = e;
                entry.duration += carry;
                carry = 0.0;
                merged.push(entry);
            }
        }
        if let Some(last) = merged.last_mut() {
            last.duration += carry;
        } else {
            // Every entry was a glitch: keep the dominant zone.
            return self.clone();
        }
        // Only captured signatures are deglitched (the capture paths of
        // `TestSetup`), and their one observation window is far below
        // `f64::MAX`, so regrouping the same durations cannot overflow.
        Signature::new(merged).expect("durations remain finite and non-negative")
    }

    /// Samples the signature as a decimal-coded chronogram (Fig. 7 top plot):
    /// `(time, code)` pairs on a uniform grid of `samples` points across the
    /// total duration.
    pub fn chronogram(&self, samples: usize) -> Vec<(f64, u32)> {
        let total = self.total_duration();
        (0..samples)
            .map(|k| {
                let t = total * k as f64 / samples.max(2) as f64;
                (t, self.code_at(t).value())
            })
            .collect()
    }
}

/// Magic prefix of the binary signature encoding (see [`Signature::to_bytes`]).
const CODEC_MAGIC: [u8; 4] = *b"DSG1";

crate::wire_fields!(ZoneCode { 0 });
crate::wire_fields!(SignatureEntry { code, duration });

/// The `DSG1` codec: the magic, then the entries as one list of
/// `(u32 code, f64 duration)` pairs. Nested in a frame or file, a signature
/// travels behind its `u32` byte length.
impl Format for Signature {
    const MAGIC: [u8; 4] = CODEC_MAGIC;
    const VERSION: Option<u16> = None;
    const CONTEXT: &'static str = "signature";
    const MIN_BODY: usize = 4;

    fn put_body(&self, out: &mut Vec<u8>) {
        self.entries.put(out);
    }

    /// Decodes through [`Signature::new`], so smuggled invalid durations
    /// are rejected like constructed ones.
    fn get_body(r: &mut ByteReader<'_>) -> Result<Self> {
        Signature::new(Wire::get(r)?)
    }
}

impl Signature {
    /// Encodes the signature into a compact, self-describing binary form:
    /// a 4-byte magic (`DSG1`), the entry count as a little-endian `u32`,
    /// then one `(u32 code, f64 duration)` little-endian pair per entry.
    ///
    /// The encoding is exact: durations round-trip bit-for-bit through
    /// [`Signature::from_bytes`]. A six-zone paper signature costs 32 + 8
    /// bytes versus hundreds of kilobytes for the raw waveform pair, which is
    /// what makes storing and replaying full campaign outputs practical.
    pub fn to_bytes(&self) -> Vec<u8> {
        wire::to_bytes(self)
    }

    /// Decodes a signature previously encoded with [`Signature::to_bytes`].
    ///
    /// Decoding never panics on malformed input: short buffers report
    /// [`DsigError::Truncated`], a wrong magic, an impossible entry count or
    /// trailing bytes report [`DsigError::Corrupt`], and smuggled invalid
    /// durations (negative, NaN, infinite, or summing past `f64::MAX`)
    /// report [`DsigError::InvalidSignature`] through the
    /// [`Signature::new`] validation.
    ///
    /// # Errors
    /// See above.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        wire::from_bytes(bytes)
    }
}

/// A borrowed-or-owned signature equals an owned one with the same entries,
/// as `Cow<str>` equals `String`: serving requests carry their signatures as
/// `Cow`.
impl PartialEq<Signature> for std::borrow::Cow<'_, Signature> {
    fn eq(&self, other: &Signature) -> bool {
        **self == *other
    }
}

impl FromIterator<SignatureEntry> for Signature {
    /// Collects entries through [`Signature::new`].
    ///
    /// # Panics
    /// Panics where `new` would return an error. Collect only captured
    /// dwells, which are finite, non-negative and sum to one observation
    /// window; decoded input goes through `new` and its error.
    fn from_iter<T: IntoIterator<Item = SignatureEntry>>(iter: T) -> Self {
        Signature::new(iter.into_iter().collect()).expect("finite non-negative durations")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(code: u32, duration: f64) -> SignatureEntry {
        SignatureEntry {
            code: ZoneCode(code),
            duration,
        }
    }

    #[test]
    fn zone_code_basics() {
        let a = ZoneCode(0b011100);
        let b = ZoneCode(0b111100);
        assert_eq!(a.hamming_distance(b), 1);
        assert_eq!(a.hamming_distance(a), 0);
        assert_eq!(a.to_binary_string(6), "011100");
        assert_eq!(a.to_string(), "28");
        assert_eq!(format!("{:b}", a), "11100");
        assert_eq!(ZoneCode::from(5u32).value(), 5);
    }

    #[test]
    fn new_merges_adjacent_identical_codes() {
        let s = Signature::new(vec![entry(1, 1.0), entry(1, 2.0), entry(2, 1.0), entry(1, 0.5)]).unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s.entries()[0].duration, 3.0);
        assert_eq!(s.distinct_zones(), 2);
        assert!((s.total_duration() - 4.5).abs() < 1e-12);
    }

    #[test]
    fn new_drops_zero_durations_and_rejects_negative() {
        let s = Signature::new(vec![entry(1, 0.0), entry(2, 1.0)]).unwrap();
        assert_eq!(s.len(), 1);
        assert!(Signature::new(vec![entry(1, -1.0)]).is_err());
        assert!(Signature::new(vec![entry(1, f64::NAN)]).is_err());
    }

    #[test]
    fn new_rejects_entries_summing_past_f64_max() {
        // Each duration is finite; their sum is not.
        let err = Signature::new(vec![entry(1, 1e308), entry(2, 1e308)]).unwrap_err();
        assert!(matches!(err, DsigError::InvalidSignature(_)), "{err:?}");
        // Halves of f64::MAX still sum to a finite period.
        let s = Signature::new(vec![entry(1, f64::MAX / 2.0), entry(2, f64::MAX / 2.0)]).unwrap();
        assert_eq!(s.total_duration(), f64::MAX);
    }

    #[test]
    fn new_rejects_a_merged_entry_past_f64_max() {
        // Merging two same-code entries would overflow the merged duration.
        let err = Signature::new(vec![entry(1, 1e308), entry(1, 1e308)]).unwrap_err();
        assert!(matches!(err, DsigError::InvalidSignature(_)), "{err:?}");
    }

    #[test]
    fn from_sampled_codes_compresses_runs() {
        let codes = [4, 4, 4, 20, 20, 28, 28, 28, 28];
        let s = Signature::from_sampled_codes(&codes, 1e-6).unwrap();
        assert_eq!(s.len(), 3);
        assert!((s.entries()[0].duration - 3e-6).abs() < 1e-15);
        assert!((s.entries()[2].duration - 4e-6).abs() < 1e-15);
        assert!(Signature::from_sampled_codes(&[], 1e-6).is_err());
        assert!(Signature::from_sampled_codes(&[1], 0.0).is_err());
    }

    #[test]
    fn code_at_walks_the_timeline() {
        let s = Signature::new(vec![entry(1, 1.0), entry(2, 2.0), entry(3, 1.0)]).unwrap();
        assert_eq!(s.code_at(-1.0).value(), 1);
        assert_eq!(s.code_at(0.5).value(), 1);
        assert_eq!(s.code_at(1.5).value(), 2);
        assert_eq!(s.code_at(3.5).value(), 3);
        assert_eq!(s.code_at(100.0).value(), 3);
    }

    #[test]
    fn transition_times_exclude_endpoints() {
        let s = Signature::new(vec![entry(1, 1.0), entry(2, 2.0), entry(3, 1.0)]).unwrap();
        let t = s.transition_times();
        assert_eq!(t.len(), 2);
        assert!((t[0] - 1.0).abs() < 1e-12);
        assert!((t[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn chronogram_covers_duration() {
        let s = Signature::new(vec![entry(7, 1.0), entry(9, 1.0)]).unwrap();
        let chrono = s.chronogram(10);
        assert_eq!(chrono.len(), 10);
        assert_eq!(chrono[0].1, 7);
        assert_eq!(chrono[9].1, 9);
    }

    #[test]
    fn deglitch_merges_short_entries_and_preserves_duration() {
        let s = Signature::new(vec![
            entry(1, 10e-6),
            entry(2, 0.5e-6), // noise glitch
            entry(1, 9.5e-6),
            entry(3, 20e-6),
        ])
        .unwrap();
        let clean = s.deglitched(2e-6);
        assert_eq!(clean.len(), 2, "entries: {:?}", clean.entries());
        assert_eq!(clean.entries()[0].code.value(), 1);
        assert_eq!(clean.entries()[1].code.value(), 3);
        assert!((clean.total_duration() - s.total_duration()).abs() < 1e-15);
        assert!((clean.entries()[0].duration - 20e-6).abs() < 1e-12);
    }

    #[test]
    fn deglitch_handles_leading_glitch_and_noop_cases() {
        let s = Signature::new(vec![entry(9, 0.5e-6), entry(1, 50e-6)]).unwrap();
        let clean = s.deglitched(2e-6);
        assert_eq!(clean.len(), 1);
        assert!((clean.total_duration() - s.total_duration()).abs() < 1e-15);
        // Disabled deglitching and all-glitch signatures are returned unchanged.
        assert_eq!(s.deglitched(0.0), s);
        let tiny = Signature::new(vec![entry(1, 0.1e-6), entry(2, 0.2e-6)]).unwrap();
        assert_eq!(tiny.deglitched(1e-6), tiny);
    }

    #[test]
    fn from_iterator_collects() {
        let s: Signature = vec![entry(1, 1.0), entry(2, 1.0)].into_iter().collect();
        assert_eq!(s.len(), 2);
    }

    #[test]
    #[should_panic(expected = "empty signature")]
    fn code_at_panics_on_empty() {
        let s = Signature::default();
        let _ = s.code_at(0.0);
    }

    #[test]
    fn clone_and_eq_are_consistent() {
        // The engine's binary codec and golden cache rely on these trait
        // implementations agreeing with each other.
        let code = ZoneCode(0b10110);
        assert_eq!(code, code.clone());
        let e = entry(5, 1.5e-6);
        assert_eq!(e, e.clone());
        let s = Signature::new(vec![entry(1, 1.0), entry(2, 2.0)]).unwrap();
        let cloned = s.clone();
        assert_eq!(s, cloned);
        assert_eq!(s.entries(), cloned.entries());
        // Inequality in any component breaks signature equality.
        assert_ne!(e, entry(6, 1.5e-6));
        assert_ne!(e, entry(5, 1.6e-6));
        assert_ne!(s, Signature::new(vec![entry(1, 1.0)]).unwrap());
        assert_ne!(s, Signature::default());
    }

    #[test]
    fn debug_formats_are_informative() {
        let s = Signature::new(vec![entry(28, 2e-6)]).unwrap();
        let debug = format!("{s:?}");
        assert!(debug.contains("Signature"), "{debug}");
        assert!(debug.contains("28"), "{debug}");
        let e = format!("{:?}", entry(3, 1.0));
        assert!(e.contains("SignatureEntry") && e.contains("duration"), "{e}");
        assert!(format!("{:?}", ZoneCode(3)).contains("ZoneCode(3)"));
    }

    #[test]
    fn codec_round_trips_bit_exact() {
        let s = Signature::new(vec![
            entry(0, 1.7e-6),
            entry(63, 200e-6),
            entry(5, f64::MIN_POSITIVE), // denormal-adjacent duration survives
            entry(1, 123.456),
        ])
        .unwrap();
        let decoded = Signature::from_bytes(&s.to_bytes()).unwrap();
        assert_eq!(decoded, s);
        for (a, b) in decoded.entries().iter().zip(s.entries()) {
            assert_eq!(
                a.duration.to_bits(),
                b.duration.to_bits(),
                "durations must be bit-exact"
            );
        }
        // An empty signature round-trips too.
        let empty = Signature::default();
        assert_eq!(Signature::from_bytes(&empty.to_bytes()).unwrap(), empty);
    }

    #[test]
    fn codec_size_is_compact() {
        let s = Signature::new((0..10).map(|k| entry(k, 1e-6 * (k + 1) as f64)).collect()).unwrap();
        assert_eq!(s.to_bytes().len(), 8 + 12 * s.len());
    }

    #[test]
    fn codec_rejects_corrupted_buffers() {
        let s = Signature::new(vec![entry(1, 1.0), entry(2, 2.0)]).unwrap();
        let bytes = s.to_bytes();
        assert!(
            matches!(Signature::from_bytes(&bytes[..3]), Err(DsigError::Truncated { .. })),
            "short buffer"
        );
        // One byte short of the final entry: the count guard (which insists
        // every claimed entry fits) fires before the per-entry read does.
        assert!(
            matches!(
                Signature::from_bytes(&bytes[..bytes.len() - 1]),
                Err(DsigError::Truncated { .. } | DsigError::Corrupt { .. })
            ),
            "truncated entries"
        );
        let mut magic = bytes.clone();
        magic[0] = b'x';
        assert!(
            matches!(Signature::from_bytes(&magic), Err(DsigError::Corrupt { .. })),
            "bad magic"
        );
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(
            matches!(Signature::from_bytes(&extra), Err(DsigError::Corrupt { .. })),
            "trailing bytes"
        );
        // An absurd count field is rejected before any allocation.
        let mut huge = bytes.clone();
        huge[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(
            matches!(Signature::from_bytes(&huge), Err(DsigError::Corrupt { .. })),
            "absurd count"
        );
        // A NaN duration smuggled into the payload is caught by validation.
        let mut nan = bytes;
        nan[12..20].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        assert!(
            matches!(Signature::from_bytes(&nan), Err(DsigError::InvalidSignature(_))),
            "NaN duration"
        );
    }
}
