//! Asynchronous signature capture (Fig. 5).
//!
//! The on-chip capture circuit watches the monitor outputs, detects code
//! transitions asynchronously and records the time spent in each zone with an
//! m-bit counter clocked by a master clock. This module models that capture
//! over sampled `x(t)` / `y(t)` waveforms: any [`PointEncoder`] (a bank of
//! nonlinear monitors, a straight-line zoning baseline, ...) maps samples to
//! zone codes, run-length encoding counts the samples of each dwell, and an
//! optional [`CaptureClock`] rounds each count to clock ticks.

use sim_signal::Waveform;
use xy_monitor::ZonePartition;

use crate::error::{DsigError, Result};
use crate::signature::{Signature, SignatureEntry, ZoneCode};

/// Anything that maps an `(x, y)` observation point to a digital zone code.
///
/// The paper's encoder is the bank of nonlinear current-comparator monitors
/// ([`ZonePartition`]); the prior-work baseline uses straight lines
/// ([`crate::baseline::LinearZoning`]).
pub trait PointEncoder {
    /// The zone code of an observation point.
    fn encode(&self, x: f64, y: f64) -> u32;
}

impl PointEncoder for ZonePartition {
    fn encode(&self, x: f64, y: f64) -> u32 {
        self.zone_code(x, y)
    }
}

/// The master-clock / counter model of the capture circuit (Fig. 5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CaptureClock {
    /// Master clock frequency in hertz.
    pub frequency_hz: f64,
    /// Width of the interval counter in bits (`m` in the paper).
    pub counter_bits: u32,
}

impl CaptureClock {
    /// Creates a capture clock.
    ///
    /// # Errors
    /// Returns [`DsigError::InvalidConfig`] for a non-positive frequency or a
    /// counter width outside `1..=32`.
    pub fn new(frequency_hz: f64, counter_bits: u32) -> Result<Self> {
        if !(frequency_hz > 0.0) || !frequency_hz.is_finite() {
            return Err(DsigError::InvalidConfig(format!(
                "master clock frequency must be positive (got {frequency_hz})"
            )));
        }
        if counter_bits == 0 || counter_bits > 32 {
            return Err(DsigError::InvalidConfig(format!(
                "counter width must be between 1 and 32 bits (got {counter_bits})"
            )));
        }
        Ok(CaptureClock {
            frequency_hz,
            counter_bits,
        })
    }

    /// A 10 MHz master clock with a 12-bit counter: one tick is 0.1 µs and the
    /// counter covers 409.6 µs, comfortably more than the 200 µs Lissajous
    /// period of the paper's experiment (Fig. 7).
    pub fn paper_default() -> Self {
        CaptureClock {
            frequency_hz: 10e6,
            counter_bits: 12,
        }
    }

    /// Duration of one clock tick, seconds.
    pub fn tick(&self) -> f64 {
        1.0 / self.frequency_hz
    }

    /// Maximum count the m-bit counter can hold.
    pub fn max_ticks(&self) -> u64 {
        (1u64 << self.counter_bits) - 1
    }

    /// Quantizes a dwell time to clock ticks, saturating at the counter range.
    pub fn quantize_ticks(&self, duration: f64) -> u64 {
        let ticks = (duration / self.tick()).round();
        if ticks <= 0.0 {
            0
        } else {
            (ticks as u64).min(self.max_ticks())
        }
    }
}

/// Captures the digital signature of a pair of observed signals.
///
/// The two waveforms must share the same sampling grid (they are the
/// `x(t)` / `y(t)` pair composed into the Lissajous trajectory). When a
/// [`CaptureClock`] is supplied, every dwell is counted in master-clock
/// ticks, saturated to the counter range; `None` counts samples.
///
/// # Errors
/// Returns [`DsigError::Signal`]-wrapped grid mismatch errors and
/// [`DsigError::InvalidSignature`] for empty inputs.
pub fn capture_signature(
    encoder: &dyn PointEncoder,
    x: &Waveform,
    y: &Waveform,
    clock: Option<&CaptureClock>,
) -> Result<Signature> {
    if x.len() != y.len() {
        return Err(DsigError::Signal(sim_signal::SignalError::GridMismatch {
            left: x.len(),
            right: y.len(),
        }));
    }
    if x.is_empty() {
        return Err(DsigError::InvalidSignature(
            "cannot capture a signature from empty waveforms".into(),
        ));
    }

    let codes = x
        .samples()
        .iter()
        .zip(y.samples())
        .map(|(&xk, &yk)| encoder.encode(xk, yk));
    signature_from_codes(codes, x.dt(), clock)
}

/// Run-length encodes a stream of uniformly sampled zone codes into a
/// [`Signature`], counting each dwell in samples of period `dt` seconds or,
/// with a [`CaptureClock`], in its ticks.
///
/// Quantisation rounds each dwell's sample count to ticks once
/// ([`CaptureClock::quantize_ticks`] of `count × dt`); a dwell that rounds
/// to no tick is not registered, and the zones on either side of it join
/// when they share a code.
///
/// This is the shared back half of every capture path: [`capture_signature`]
/// streams encoder outputs straight into it (no intermediate buffer), the
/// batched fast path ([`crate::batch::capture_signatures_batch`]) feeds it
/// one device of a lot at a time. Keeping a single implementation is what
/// guarantees the two paths produce bit-identical signatures.
///
/// # Errors
/// Returns [`DsigError::InvalidSignature`] for an empty code sequence, a
/// non-positive sample period, or a capture of more than `u32::MAX` counts.
pub fn signature_from_codes<I>(codes: I, dt: f64, clock: Option<&CaptureClock>) -> Result<Signature>
where
    I: IntoIterator<Item = u32>,
{
    if !(dt > 0.0) || !dt.is_finite() {
        return Err(DsigError::InvalidSignature(format!("invalid sample period {dt}")));
    }
    let mut codes = codes.into_iter();
    let Some(first) = codes.next() else {
        return Err(DsigError::InvalidSignature(
            "cannot capture a signature from empty waveforms".into(),
        ));
    };
    let too_long = || DsigError::InvalidSignature(format!("a capture longer than {} samples", u32::MAX));
    let mut entries: Vec<SignatureEntry> = Vec::new();
    let mut current = SignatureEntry {
        code: ZoneCode(first),
        count: 1,
    };
    for code in codes {
        if code == current.code.0 {
            current.count = current.count.checked_add(1).ok_or_else(too_long)?;
        } else {
            entries.push(current);
            current = SignatureEntry {
                code: ZoneCode(code),
                count: 1,
            };
        }
    }
    entries.push(current);

    let Some(clock) = clock else {
        return Signature::new(dt, entries);
    };
    for e in &mut entries {
        // `max_ticks` fits a u32: the counter is at most 32 bits wide.
        e.count = clock.quantize_ticks(f64::from(e.count) * dt) as u32;
    }
    Signature::new(clock.tick(), entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial encoder that splits the plane into four quadrants around (0.5, 0.5).
    struct Quadrants;

    impl PointEncoder for Quadrants {
        fn encode(&self, x: f64, y: f64) -> u32 {
            (u32::from(x > 0.5)) | (u32::from(y > 0.5) << 1)
        }
    }

    fn ramp_pair() -> (Waveform, Waveform) {
        // x ramps 0 -> 1 while y stays at 0.25: two zones are traversed.
        let x = Waveform::from_fn(0.0, 1.0, 100.0, |t| t);
        let y = Waveform::from_fn(0.0, 1.0, 100.0, |_| 0.25);
        (x, y)
    }

    #[test]
    fn clock_validation_and_quantization() {
        assert!(CaptureClock::new(0.0, 12).is_err());
        assert!(CaptureClock::new(1e6, 0).is_err());
        assert!(CaptureClock::new(1e6, 40).is_err());
        let clk = CaptureClock::new(1e6, 4).unwrap();
        assert_eq!(clk.tick(), 1e-6);
        assert_eq!(clk.max_ticks(), 15);
        assert_eq!(clk.quantize_ticks(3.4e-6), 3);
        assert_eq!(clk.quantize_ticks(1e-3), 15); // saturates
        assert_eq!(clk.quantize_ticks(1e-9), 0);
    }

    #[test]
    fn paper_default_clock_covers_the_period() {
        let clk = CaptureClock::paper_default();
        assert!(clk.max_ticks() as f64 * clk.tick() > 200e-6);
    }

    #[test]
    fn capture_detects_zone_transitions() {
        let (x, y) = ramp_pair();
        let sig = capture_signature(&Quadrants, &x, &y, None).unwrap();
        assert_eq!(sig.len(), 2, "one transition expected: {:?}", sig.entries());
        assert_eq!(sig.entries()[0].code.value(), 0);
        assert_eq!(sig.entries()[1].code.value(), 1);
        // Both dwells are about half the 100 samples.
        assert_eq!(sig.unit(), x.dt());
        assert_eq!(sig.total_count() as usize, x.len());
        assert!(sig.entries()[0].count.abs_diff(51) < 2, "{:?}", sig.entries());
    }

    #[test]
    fn quantized_capture_rounds_durations() {
        let (x, y) = ramp_pair();
        let clk = CaptureClock::new(10.0, 8).unwrap(); // 0.1 s ticks
        let samples = capture_signature(&Quadrants, &x, &y, None).unwrap();
        let ticks = capture_signature(&Quadrants, &x, &y, Some(&clk)).unwrap();
        assert_eq!(ticks.unit(), clk.tick());
        // Each dwell's sample count, rounded once to ticks.
        let rounded: Vec<u32> = samples
            .entries()
            .iter()
            .map(|e| clk.quantize_ticks(f64::from(e.count) * x.dt()) as u32)
            .collect();
        let counted: Vec<u32> = ticks.entries().iter().map(|e| e.count).collect();
        assert_eq!(counted, rounded);
    }

    #[test]
    fn dwells_below_half_a_tick_drop_out_and_their_neighbours_join() {
        // Dwells of 3, 1 and 5 samples of 1 µs on a 2.5 µs clock: 1.2, 0.4
        // and 2 ticks. The middle one rounds to no tick, and the two dwells
        // of code 1 on either side of it become one.
        let clk = CaptureClock::new(0.4e6, 8).unwrap(); // 2.5 µs ticks
        let s = signature_from_codes([1, 1, 1, 2, 1, 1, 1, 1, 1], 1e-6, Some(&clk)).unwrap();
        assert_eq!(
            s.entries(),
            [SignatureEntry {
                code: ZoneCode(1),
                count: 1 + 2
            }]
        );
        // Without a clock every sample counts.
        let s = signature_from_codes([1, 1, 1, 2, 1, 1, 1, 1, 1], 1e-6, None).unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s.unit(), 1e-6);
        assert!(signature_from_codes([], 1e-6, None).is_err());
        assert!(signature_from_codes([1], 0.0, None).is_err());
    }

    #[test]
    fn mismatched_grids_rejected() {
        let x = Waveform::from_fn(0.0, 1.0, 100.0, |t| t);
        let y = Waveform::from_fn(0.0, 1.0, 50.0, |_| 0.0);
        assert!(capture_signature(&Quadrants, &x, &y, None).is_err());
        let empty = Waveform::new(0.0, 1.0, vec![]);
        assert!(capture_signature(&Quadrants, &empty, &empty, None).is_err());
    }

    #[test]
    fn zone_partition_implements_point_encoder() {
        let partition = ZonePartition::paper_default().unwrap();
        let encoder: &dyn PointEncoder = &partition;
        assert_eq!(encoder.encode(0.3, 0.4), partition.zone_code(0.3, 0.4));
    }

    #[test]
    fn constant_signals_give_single_entry_signature() {
        let x = Waveform::from_fn(0.0, 1.0, 50.0, |_| 0.2);
        let y = Waveform::from_fn(0.0, 1.0, 50.0, |_| 0.2);
        let sig = capture_signature(&Quadrants, &x, &y, None).unwrap();
        assert_eq!(sig.len(), 1);
        assert_eq!(sig.distinct_zones(), 1);
    }
}
