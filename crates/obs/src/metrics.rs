//! The metric primitives: counters, gauges, histograms and span timers.
//!
//! All primitives are updated with `Relaxed` atomics — each metric is an
//! independent statistic and no cross-metric ordering is promised. A
//! snapshot is therefore *monotonically consistent* per metric (counters
//! never run backwards between scrapes) without being a cross-metric
//! transaction, which is exactly what an operator polling a live fleet
//! needs and all the hot path can afford.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::snapshot::HistogramSnapshot;

/// Number of latency buckets in a [`Histogram`]: power-of-two microsecond
/// upper bounds `1, 2, 4, …, 2^26` (≈ 67 s) plus one overflow bucket.
pub const HISTOGRAM_BUCKETS: usize = 28;

/// A monotonically increasing event counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one to the counter.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Returns the current count.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-write-wins floating-point gauge (stored as [`f64::to_bits`], so
/// the snapshot round-trips the value bit-exactly).
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge {
            bits: AtomicU64::new(0.0f64.to_bits()),
        }
    }
}

impl Gauge {
    /// Creates a gauge at `0.0`.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Returns the current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A fixed-bin latency histogram over microseconds.
///
/// Bucket `i < 27` counts samples with `value_us <= 2^i`; the final bucket
/// counts everything larger (≈ 67 s and up). Exponential bins keep the
/// structure a fixed 28 atomics wide while resolving quantiles to within a
/// factor of two across nine orders of magnitude — plenty for trend and
/// regression detection, which is what the workspace uses latencies for.
#[derive(Debug)]
pub struct Histogram {
    counts: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }
}

/// The inclusive upper bound (µs) of bucket `index`; `u64::MAX` for the
/// overflow bucket.
pub(crate) fn bucket_upper_us(index: usize) -> u64 {
    if index + 1 >= HISTOGRAM_BUCKETS {
        u64::MAX
    } else {
        1u64 << index
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    fn bucket_index(value_us: u64) -> usize {
        if value_us <= 1 {
            0
        } else {
            let bits = (u64::BITS - (value_us - 1).leading_zeros()) as usize;
            bits.min(HISTOGRAM_BUCKETS - 1)
        }
    }

    /// Records one sample of `value_us` microseconds.
    #[inline]
    pub fn record_us(&self, value_us: u64) {
        self.counts[Histogram::bucket_index(value_us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(value_us, Ordering::Relaxed);
        // The exact observed maximum keeps tail quantiles honest when
        // samples land in the overflow bucket (whose bound is u64::MAX).
        self.max_us.fetch_max(value_us, Ordering::Relaxed);
    }

    /// Records one elapsed [`Duration`] (saturating at `u64::MAX` µs).
    #[inline]
    pub fn record(&self, elapsed: Duration) {
        self.record_us(u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX));
    }

    /// Returns an owned snapshot of the current bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum_us: self.sum_us.load(Ordering::Relaxed),
            max_us: self.max_us.load(Ordering::Relaxed),
            buckets: (0..HISTOGRAM_BUCKETS)
                .map(|i| (bucket_upper_us(i), self.counts[i].load(Ordering::Relaxed)))
                .collect(),
        }
    }
}

/// An RAII span timer: measures from [`Span::enter`] to drop and records
/// the elapsed microseconds into the histogram it was entered on.
///
/// ```
/// use dsig_obs::{Histogram, Span};
/// let latency = Histogram::new();
/// {
///     let _span = Span::enter(&latency);
///     // ... timed work ...
/// }
/// assert_eq!(latency.snapshot().count, 1);
/// ```
#[derive(Debug)]
pub struct Span<'a> {
    histogram: &'a Histogram,
    start: Instant,
}

impl<'a> Span<'a> {
    /// Starts timing against `histogram`.
    pub fn enter(histogram: &'a Histogram) -> Self {
        Span {
            histogram,
            start: Instant::now(),
        }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.histogram.record(self.start.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let c = Counter::new();
        assert_eq!(c.get(), 0);
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn gauge_is_last_write_wins_and_bit_exact() {
        let g = Gauge::new();
        assert_eq!(g.get(), 0.0);
        g.set(1.5);
        g.set(-0.0);
        assert_eq!(g.get().to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn histogram_bucket_boundaries() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 0);
        assert_eq!(Histogram::bucket_index(2), 1);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 2);
        assert_eq!(Histogram::bucket_index(5), 3);
        assert_eq!(Histogram::bucket_index(1 << 26), 26);
        assert_eq!(Histogram::bucket_index((1 << 26) + 1), HISTOGRAM_BUCKETS - 1);
        assert_eq!(Histogram::bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn histogram_snapshot_counts_and_sum() {
        let h = Histogram::new();
        h.record_us(1);
        h.record_us(100);
        h.record_us(100);
        h.record_us(u64::MAX);
        let snap = h.snapshot();
        assert_eq!(snap.count, 4);
        assert_eq!(snap.sum_us, 1u64.wrapping_add(200).wrapping_add(u64::MAX));
        assert_eq!(snap.max_us, u64::MAX, "the exact max survives the overflow bucket");
        assert_eq!(snap.buckets.len(), HISTOGRAM_BUCKETS);
        assert_eq!(snap.buckets[0], (1, 1));
        assert_eq!(snap.buckets[7], (128, 2));
        assert_eq!(snap.buckets[HISTOGRAM_BUCKETS - 1], (u64::MAX, 1));
    }

    #[test]
    fn span_records_one_sample_on_drop() {
        let h = Histogram::new();
        {
            let _span = Span::enter(&h);
        }
        assert_eq!(h.snapshot().count, 1);
    }

    #[test]
    fn concurrent_updates_are_lossless() {
        use std::sync::Arc;
        let c = Arc::new(Counter::new());
        let h = Arc::new(Histogram::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let (c, h) = (Arc::clone(&c), Arc::clone(&h));
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        c.inc();
                        h.record_us(i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.get(), 4000);
        assert_eq!(h.snapshot().count, 4000);
        assert_eq!(h.snapshot().buckets.iter().map(|&(_, n)| n).sum::<u64>(), 4000);
    }
}
