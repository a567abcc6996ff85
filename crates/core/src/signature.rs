//! Digital signatures: zone codes and (code, count) sequences.
//!
//! Eq. (1) of the paper defines the CUT signature as the ordered sequence of
//! pairs `(Z_i, Delta_i)`: the zone code traversed by the Lissajous curve and
//! the time spent in that zone. The capture circuit of Fig. 5 measures each
//! dwell with an m-bit counter on its master clock, so a [`Signature`] holds
//! exactly those counter words: one `u32` count per zone visit, and one
//! unit, the seconds per count, for the whole signature.

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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SignatureEntry {
    /// Zone code.
    pub code: ZoneCode,
    /// Dwell in the zone, in counts of the signature's unit.
    pub count: u32,
}

/// A digital signature: the ordered sequence of zone codes traversed by the
/// Lissajous trajectory with the dwell in each zone (Eq. 1).
///
/// Every dwell is a positive count of one unit, the seconds per count: the
/// capture clock's tick, or the sample period of a capture without a clock.
/// No two neighbouring entries share a code, and the counts sum to at most
/// `u32::MAX`, so every position in the signature is a `u32` count. The
/// total count times the unit is finite, so every dwell and every position
/// in seconds is finite too.
#[derive(Debug, Clone, PartialEq)]
pub struct Signature {
    unit: f64,
    entries: Vec<SignatureEntry>,
}

impl Signature {
    /// Creates a signature of `unit` seconds per count from raw entries,
    /// dropping zero counts and merging neighbouring entries with identical
    /// codes.
    ///
    /// # Errors
    /// Returns [`DsigError::InvalidSignature`] if `unit` is not positive and
    /// finite, if the counts sum past `u32::MAX`, or if their total times
    /// `unit` is past `f64::MAX` seconds.
    pub fn new(unit: f64, mut entries: Vec<SignatureEntry>) -> Result<Self> {
        let mut total = 0u64;
        // Merge in place: `kept` entries are final so far, and the read
        // index never falls behind the write index.
        let mut kept = 0;
        for i in 0..entries.len() {
            let e = entries[i];
            if e.count == 0 {
                continue;
            }
            // Saturating: a `u64` of `u32` counts fills only past 2^32
            // entries, and any total past `u32::MAX` is refused below.
            total = total.saturating_add(u64::from(e.count));
            if kept > 0 && entries[kept - 1].code == e.code {
                // Wraps only when the total passes `u32::MAX`.
                entries[kept - 1].count = entries[kept - 1].count.wrapping_add(e.count);
            } else {
                entries[kept] = e;
                kept += 1;
            }
        }
        entries.truncate(kept);
        Signature::checked(unit, total, entries)
    }

    /// The signature of `unit` seconds per count over merged, non-zero
    /// `entries` whose counts sum to `total`, once the unit is positive and
    /// finite, the total a `u32` and the total in seconds finite.
    fn checked(unit: f64, total: u64, entries: Vec<SignatureEntry>) -> Result<Self> {
        if !(unit > 0.0) || !unit.is_finite() {
            return Err(DsigError::InvalidSignature(format!("invalid unit {unit} s per count")));
        }
        if total > u64::from(u32::MAX) {
            return Err(DsigError::InvalidSignature(format!("counts sum past {}", u32::MAX)));
        }
        // Every dwell and partial sum in seconds is at most the total.
        if !(total as f64 * unit).is_finite() {
            return Err(DsigError::InvalidSignature(format!(
                "{total} counts of {unit} s sum past {} s",
                f64::MAX
            )));
        }
        Ok(Signature { unit, entries })
    }

    /// Seconds per count.
    pub fn unit(&self) -> f64 {
        self.unit
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

    /// Total count `T` covered by the signature.
    pub fn total_count(&self) -> u32 {
        // `new` bounds the sum by `u32::MAX`.
        self.entries.iter().map(|e| e.count).sum()
    }

    /// Total duration covered by the signature, seconds.
    pub fn total_duration(&self) -> f64 {
        f64::from(self.total_count()) * self.unit
    }

    /// Number of *distinct* zone codes visited.
    pub fn distinct_zones(&self) -> usize {
        let mut codes: Vec<u32> = self.entries.iter().map(|e| e.code.value()).collect();
        codes.sort_unstable();
        codes.dedup();
        codes.len()
    }

    /// The zone code active at count `at` from the start of the signature.
    /// Counts at or past the total return the last code.
    ///
    /// # Panics
    /// Panics if the signature is empty.
    pub fn code_at(&self, at: u32) -> ZoneCode {
        assert!(!self.entries.is_empty(), "code_at on an empty signature");
        let mut end = 0u32;
        for e in &self.entries {
            end += e.count;
            if at < end {
                return e.code;
            }
        }
        self.entries[self.entries.len() - 1].code
    }

    /// Returns a copy with every entry shorter than `min_dwell` seconds merged
    /// into its predecessor (or successor for a leading glitch).
    ///
    /// This models the finite response time of the asynchronous transition
    /// detector of Fig. 5: zone crossings caused by high-frequency noise
    /// chatter near a boundary are too short for the capture hardware to
    /// register, while genuine zone dwells (microseconds and longer for the
    /// paper's 200 µs Lissajous) are preserved. A `min_dwell` that is not
    /// positive and finite, or that no entry reaches, changes nothing.
    pub fn deglitched(&self, min_dwell: f64) -> Signature {
        let mut signature = self.clone();
        signature.deglitch(min_dwell);
        signature
    }

    /// [`Signature::deglitched`] in place: one pass that compares each count
    /// against one count threshold and regroups counts, so the total and
    /// the unit are unchanged.
    pub(crate) fn deglitch(&mut self, min_dwell: f64) {
        let Some(threshold) = self.glitch_threshold(min_dwell) else {
            return;
        };
        let entries = &mut self.entries;
        // As in `new`: `kept` entries are final so far. A glitch before the
        // first kept entry carries its count into that entry.
        let (mut kept, mut carry) = (0, 0);
        for i in 0..entries.len() {
            let e = entries[i];
            if kept > 0 && (e.count < threshold || entries[kept - 1].code == e.code) {
                entries[kept - 1].count += e.count;
            } else if e.count < threshold {
                carry += e.count;
            } else {
                entries[kept] = SignatureEntry {
                    count: e.count + carry,
                    ..e
                };
                carry = 0;
                kept += 1;
            }
        }
        // Every entry was a glitch: nothing was written, and the signature
        // stays as captured.
        if kept > 0 {
            entries.truncate(kept);
        }
    }

    /// The fewest counts that last `min_dwell` seconds, `count × unit` in
    /// `f64`: an entry with fewer counts is a glitch. `None` when
    /// deglitching is off (`min_dwell` not positive and finite) or no count
    /// lasts that long.
    fn glitch_threshold(&self, min_dwell: f64) -> Option<u32> {
        if !(min_dwell > 0.0) || !min_dwell.is_finite() {
            return None;
        }
        let lasts = |count: u32| f64::from(count) * self.unit >= min_dwell;
        let estimate = (min_dwell / self.unit).ceil();
        if !(estimate <= f64::from(u32::MAX)) {
            return None;
        }
        // `estimate` is within a count of the threshold; `lasts` is
        // monotone in the count, because rounding is.
        let mut threshold = estimate as u32;
        while threshold > 0 && lasts(threshold - 1) {
            threshold -= 1;
        }
        while threshold < u32::MAX && !lasts(threshold) {
            threshold += 1;
        }
        lasts(threshold).then_some(threshold)
    }

    /// An upper bound on the length of the signature's standalone encoding
    /// ([`Signature::to_bytes`]), from its entry count alone: the magic, the
    /// unit, and five bytes per varint. A frame sized by it holds the
    /// signature without growing.
    pub fn max_encoded_len(&self) -> usize {
        4 + 8 + 5 + 10 * self.entries.len()
    }
}

/// The `DSG2` codec: the magic, the unit as an `f64`, then the entry count
/// and each entry's code and count as LEB128 varints
/// ([`wire::put_varint`]). Nested in a frame or file, a signature travels
/// behind its `u32` byte length.
impl Format for Signature {
    const MAGIC: [u8; 4] = *b"DSG2";
    const VERSION: Option<u16> = None;
    const CONTEXT: &'static str = "signature";
    const MIN_BODY: usize = 8 + 1;

    fn put_body(&self, out: &mut Vec<u8>) {
        self.unit.put(out);
        // Every count is at least 1 and they sum to a `u32`, so the entry
        // count fits one too.
        wire::put_varint(out, self.entries.len() as u32);
        for e in &self.entries {
            wire::put_varint(out, e.code.0);
            wire::put_varint(out, e.count);
        }
    }

    /// Decodes in one pass that rejects zero counts, which no encoder
    /// writes, merges equal neighbours and sums the total as it reads; the
    /// unit and the total then pass [`Signature::new`]'s checks, so a
    /// smuggled invalid unit or total is rejected like a constructed one.
    fn get_body(r: &mut ByteReader<'_>) -> Result<Self> {
        let unit = f64::get(r)?;
        let len = r.varint()? as usize;
        r.check_count(len, 2)?;
        let mut entries: Vec<SignatureEntry> = Vec::with_capacity(len);
        // `len` is a `u32`, so at most `u32::MAX` counts of a `u32` each: the
        // `u64` cannot overflow.
        let mut total = 0u64;
        for _ in 0..len {
            let code = ZoneCode(r.varint()?);
            let count = r.varint()?;
            if count == 0 {
                return Err(DsigError::InvalidSignature(format!("zone {code} has a zero count")));
            }
            total += u64::from(count);
            match entries.last_mut() {
                // Wraps only when the total passes `u32::MAX`.
                Some(last) if last.code == code => last.count = last.count.wrapping_add(count),
                _ => entries.push(SignatureEntry { code, count }),
            }
        }
        Signature::checked(unit, total, entries)
    }
}

impl Signature {
    /// Encodes the signature into a compact, self-describing binary form:
    /// a 4-byte magic (`DSG2`), the unit as a little-endian `f64`, then the
    /// entry count and each entry's code and count as varints.
    ///
    /// A paper signature, with codes below 128 and dwells below 16,384
    /// ticks, costs at most 3 bytes per entry: 13 + 3 × 17 bytes for a
    /// 17-entry Table I capture, versus hundreds of kilobytes for the raw
    /// waveform pair, which is what makes storing and replaying full
    /// campaign outputs practical.
    pub fn to_bytes(&self) -> Vec<u8> {
        wire::to_bytes(self)
    }

    /// Decodes a signature previously encoded with [`Signature::to_bytes`].
    ///
    /// Decoding never panics on malformed input: short buffers report
    /// [`DsigError::Truncated`], a wrong magic, a malformed varint, an
    /// impossible entry count or trailing bytes report
    /// [`DsigError::Corrupt`], and a smuggled invalid unit (zero, negative
    /// or not finite), a zero count, counts summing past `u32::MAX` or a
    /// total past `f64::MAX` seconds report [`DsigError::InvalidSignature`],
    /// as [`Signature::new`] does.
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

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(code: u32, count: u32) -> SignatureEntry {
        SignatureEntry {
            code: ZoneCode(code),
            count,
        }
    }

    /// A signature of 0.1 µs counts, the paper clock's tick.
    fn sig(entries: &[(u32, u32)]) -> Signature {
        Signature::new(1e-7, entries.iter().map(|&(c, n)| entry(c, n)).collect()).unwrap()
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
        let s = sig(&[(1, 10), (1, 20), (2, 10), (1, 5)]);
        assert_eq!(s.entries(), [entry(1, 30), entry(2, 10), entry(1, 5)]);
        assert_eq!(s.distinct_zones(), 2);
        assert_eq!(s.total_count(), 45);
        assert_eq!(s.total_duration(), 45.0 * 1e-7);
    }

    #[test]
    fn new_drops_zero_durations_and_rejects_negative() {
        let s = sig(&[(1, 0), (2, 10), (3, 0), (2, 5)]);
        assert_eq!(s.entries(), [entry(2, 15)]);
        // A negative, zero or non-finite unit is no count of seconds.
        for unit in [-1e-7, 0.0, f64::NAN, f64::INFINITY] {
            assert!(
                matches!(
                    Signature::new(unit, vec![entry(1, 1)]),
                    Err(DsigError::InvalidSignature(_))
                ),
                "unit {unit}"
            );
        }
    }

    #[test]
    fn new_rejects_counts_summing_past_u32_max() {
        // Each count fits a u32; their sum does not, merged or not.
        for code in [2, 1] {
            let err = Signature::new(1e-7, vec![entry(1, u32::MAX), entry(code, 1)]).unwrap_err();
            assert!(matches!(err, DsigError::InvalidSignature(_)), "{err:?}");
        }
        let s = Signature::new(1e-7, vec![entry(1, u32::MAX - 1), entry(2, 1)]).unwrap();
        assert_eq!(s.total_count(), u32::MAX);
    }

    #[test]
    fn new_rejects_entries_summing_past_f64_max() {
        // Each dwell of one count is finite in seconds; their sum is not.
        let err = Signature::new(1e308, vec![entry(1, 1), entry(2, 1)]).unwrap_err();
        assert!(matches!(err, DsigError::InvalidSignature(_)), "{err:?}");
        // Halves of f64::MAX still sum to a finite period.
        let s = Signature::new(f64::MAX / 2.0, vec![entry(1, 1), entry(2, 1)]).unwrap();
        assert_eq!(s.total_duration(), f64::MAX);
    }

    #[test]
    fn new_rejects_a_merged_entry_past_f64_max() {
        // Merging two same-code entries would overflow the merged dwell.
        let err = Signature::new(1e308, vec![entry(1, 1), entry(1, 1)]).unwrap_err();
        assert!(matches!(err, DsigError::InvalidSignature(_)), "{err:?}");
    }

    #[test]
    fn code_at_walks_the_timeline() {
        let s = sig(&[(1, 10), (2, 20), (3, 10)]);
        assert_eq!(s.code_at(0).value(), 1);
        assert_eq!(s.code_at(9).value(), 1);
        assert_eq!(s.code_at(10).value(), 2);
        assert_eq!(s.code_at(35).value(), 3);
        assert_eq!(s.code_at(u32::MAX).value(), 3);
    }

    #[test]
    fn deglitch_merges_short_entries_and_preserves_duration() {
        // 0.1 µs counts; a 2 µs detector registers 20 counts or more.
        let s = sig(&[(1, 100), (2, 5), (1, 95), (3, 200)]);
        let clean = s.deglitched(2e-6);
        assert_eq!(clean.entries(), [entry(1, 200), entry(3, 200)]);
        assert_eq!(clean.total_count(), s.total_count());
        assert_eq!(clean.unit(), s.unit());
    }

    #[test]
    fn deglitch_compares_counts_as_count_times_unit() {
        // 20 × 1e-7 rounds to exactly 2e-6 in f64 and 19 × 1e-7 falls short,
        // so 19 counts are the longest glitch.
        assert_eq!(20.0 * 1e-7, 2e-6);
        let s = sig(&[(1, 100), (2, 19), (3, 20), (4, 100)]);
        assert_eq!(
            s.deglitched(2e-6).entries(),
            [entry(1, 119), entry(3, 20), entry(4, 100)]
        );
        // 13 × 1e-7 rounds below 1.3e-6, so 13 counts are a glitch at
        // 1.3 µs, and last 1.2 µs.
        let s = sig(&[(1, 20), (2, 13), (3, 20)]);
        assert_eq!(s.deglitched(1.3e-6).entries(), [entry(1, 33), entry(3, 20)]);
        assert_eq!(s.deglitched(1.2e-6), s);
    }

    #[test]
    fn deglitch_handles_leading_glitch_and_noop_cases() {
        let s = sig(&[(9, 5), (1, 500)]);
        let clean = s.deglitched(2e-6);
        assert_eq!(clean.entries(), [entry(1, 505)]);
        // Disabled deglitching and all-glitch signatures are returned unchanged.
        for min_dwell in [0.0, -1.0, f64::NAN, f64::INFINITY, 1e300] {
            assert_eq!(s.deglitched(min_dwell), s, "min dwell {min_dwell}");
        }
        let tiny = sig(&[(1, 1), (2, 2)]);
        assert_eq!(tiny.deglitched(1e-6), tiny);
    }

    #[test]
    #[should_panic(expected = "empty signature")]
    fn code_at_panics_on_empty() {
        let s = sig(&[]);
        let _ = s.code_at(0);
    }

    #[test]
    fn clone_and_eq_are_consistent() {
        // The engine's binary codec and golden cache rely on these trait
        // implementations agreeing with each other.
        let code = ZoneCode(0b10110);
        assert_eq!(code, code.clone());
        let e = entry(5, 15);
        assert_eq!(e, e.clone());
        let s = sig(&[(1, 10), (2, 20)]);
        let cloned = s.clone();
        assert_eq!(s, cloned);
        assert_eq!(s.entries(), cloned.entries());
        // Inequality in any component breaks signature equality.
        assert_ne!(e, entry(6, 15));
        assert_ne!(e, entry(5, 16));
        assert_ne!(s, sig(&[(1, 10)]));
        assert_ne!(s, sig(&[]));
        assert_ne!(s, Signature::new(2e-7, s.entries().to_vec()).unwrap());
    }

    #[test]
    fn debug_formats_are_informative() {
        let s = sig(&[(28, 20)]);
        let debug = format!("{s:?}");
        assert!(debug.contains("Signature") && debug.contains("unit"), "{debug}");
        assert!(debug.contains("28"), "{debug}");
        let e = format!("{:?}", entry(3, 1));
        assert!(e.contains("SignatureEntry") && e.contains("count"), "{e}");
        assert!(format!("{:?}", ZoneCode(3)).contains("ZoneCode(3)"));
    }

    #[test]
    fn codec_round_trips_bit_exact() {
        let s = Signature::new(
            1.0 / 3e6,
            vec![
                entry(0, 17),
                entry(63, 2000),
                entry(u32::MAX, 1),
                entry(5, u32::MAX - 2018),
            ],
        )
        .unwrap();
        let bytes = s.to_bytes();
        assert!(bytes.len() <= s.max_encoded_len());
        let decoded = Signature::from_bytes(&bytes).unwrap();
        assert_eq!(decoded, s);
        assert_eq!(decoded.unit().to_bits(), s.unit().to_bits());
        // An empty signature round-trips too.
        let empty = sig(&[]);
        assert_eq!(Signature::from_bytes(&empty.to_bytes()).unwrap(), empty);
    }

    #[test]
    fn codec_size_is_compact() {
        // Magic, the unit, the entry count, then (code, count) varints: a
        // code below 128 takes one byte and a count below 16,384 two.
        let s = sig(&[(28, 390), (60, 5)]);
        let mut expected = b"DSG2".to_vec();
        expected.extend_from_slice(&1e-7f64.to_bits().to_le_bytes());
        expected.extend_from_slice(&[2, 28, 0x86, 0x03, 60, 5]);
        assert_eq!(s.to_bytes(), expected);
        let table_one = sig(&(0..17).map(|k| (k * 3, 128 + 17 * k)).collect::<Vec<_>>());
        assert_eq!(table_one.to_bytes().len(), 13 + 3 * 17);
    }

    #[test]
    fn codec_rejects_corrupted_buffers() {
        let s = sig(&[(1, 10), (2, 20)]);
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
        magic[3] = b'1';
        assert!(
            matches!(Signature::from_bytes(&magic), Err(DsigError::Corrupt { .. })),
            "the previous magic"
        );
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(
            matches!(Signature::from_bytes(&extra), Err(DsigError::Corrupt { .. })),
            "trailing bytes"
        );
        // An absurd count field is rejected before any allocation.
        let mut huge = bytes[..12].to_vec();
        huge.extend_from_slice(&[0xff, 0xff, 0xff, 0xff, 0x0f]);
        huge.extend_from_slice(&bytes[13..]);
        assert!(
            matches!(Signature::from_bytes(&huge), Err(DsigError::Corrupt { .. })),
            "absurd count"
        );
    }

    #[test]
    fn decoding_merges_like_new_and_checks_the_unit_and_total_after_the_entries() {
        let body = |unit: f64, entries: &[u8]| {
            let mut bytes = b"DSG2".to_vec();
            bytes.extend_from_slice(&unit.to_bits().to_le_bytes());
            bytes.extend_from_slice(entries);
            Signature::from_bytes(&bytes)
        };
        // Equal neighbours, which no encoder writes, merge as in `new`.
        assert_eq!(
            body(1e-7, &[3, 1, 4, 1, 0x86, 0x03, 2, 3]).unwrap(),
            sig(&[(1, 394), (2, 3)])
        );
        // The unit and the total are checked once the entries are read, so a
        // malformed entry after them is still `Corrupt` or `Truncated`.
        let past_u32 = [3, 1, 0xff, 0xff, 0xff, 0xff, 0x0f, 2, 1, 3];
        assert!(matches!(body(1e-7, &past_u32), Err(DsigError::Truncated { .. })));
        assert!(matches!(
            body(0.0, &[2, 1, 4, 2, 0x80, 0x00]),
            Err(DsigError::Corrupt { .. })
        ));
        // A zero count is refused where it is read.
        assert!(matches!(
            body(1e-7, &[2, 1, 0, 2, 0x80, 0x00]),
            Err(DsigError::InvalidSignature(_))
        ));
    }

    #[test]
    fn codec_rejects_invalid_units_counts_and_totals() {
        let body = |unit: f64, entries: &[u8]| {
            let mut bytes = b"DSG2".to_vec();
            bytes.extend_from_slice(&unit.to_bits().to_le_bytes());
            bytes.extend_from_slice(entries);
            Signature::from_bytes(&bytes)
        };
        assert!(body(1e-7, &[1, 4, 10]).is_ok());
        for (unit, entries, what) in [
            (1e-7, &[1u8, 4, 0][..], "a zero count"),
            (0.0, &[1, 4, 10], "a zero unit"),
            (f64::NAN, &[1, 4, 10], "a NaN unit"),
            (f64::INFINITY, &[1, 4, 10], "an infinite unit"),
            (
                1e-7,
                &[2, 4, 0xff, 0xff, 0xff, 0xff, 0x0f, 5, 1],
                "a total past u32::MAX",
            ),
        ] {
            assert!(
                matches!(body(unit, entries), Err(DsigError::InvalidSignature(_))),
                "{what}"
            );
        }
    }
}
