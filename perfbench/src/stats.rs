//! Order statistics used by the benchmark's reports.

/// Nearest-rank percentile of an ascending series: the smallest sample with
/// at least `pct` percent of the series at or below it. `None` when empty.
/// The exact reference the histogram's percentiles are tested against.
#[cfg(test)]
pub fn percentile(sorted: &[f64], pct: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of an unordered series (mean of the two middle samples for an
/// even count). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    })
}

/// First and third quartiles of an unordered series, computed exactly like
/// Python's `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method). `None` for fewer than two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median — the spread the
/// benchmark's stability check uses. `None` for fewer than two samples or a
/// zero median.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let mid = median(values)?;
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

/// Verdict rates over equal time windows of a phase, filled op by op.
/// Each op's count is spread evenly over its own interval, so a window's
/// rate does not jump by a whole op at its edges. Work past the phase end
/// is ignored.
pub struct WindowRates {
    width: f64,
    work: Vec<f64>,
    /// Sum and count of the machine slowness factors seen per window.
    factors: Vec<(f64, u64)>,
}

impl WindowRates {
    /// `windows` equal windows over a phase of `phase_s` seconds.
    pub fn new(phase_s: f64, windows: usize) -> WindowRates {
        WindowRates {
            width: phase_s / windows.max(1) as f64,
            work: vec![0.0; windows.max(1)],
            factors: vec![(0.0, 0); windows.max(1)],
        }
    }

    /// Records the machine slowness factor in force when an op ended at
    /// `at` seconds.
    pub fn add_factor(&mut self, at: f64, factor: f64) {
        if let Some((sum, count)) = self.factors.get_mut((at / self.width) as usize) {
            *sum += factor;
            *count += 1;
        }
    }

    /// Mean slowness factor of each window (1 when none was recorded).
    pub fn factors(&self) -> Vec<f64> {
        self.factors
            .iter()
            .map(|&(sum, count)| if count == 0 { 1.0 } else { sum / count as f64 })
            .collect()
    }

    /// Rate of each window at the reference machine speed: the measured rate
    /// times the window's mean slowness factor.
    pub fn reference_rates(&self) -> Vec<f64> {
        self.rates()
            .into_iter()
            .zip(self.factors())
            .map(|(rate, f)| rate * f)
            .collect()
    }

    /// Adds an op that ran from `start` to `end` (seconds from the phase
    /// start) and produced `count` verdicts.
    pub fn add(&mut self, start: f64, end: f64, count: u64) {
        let width = self.width;
        let span = end - start;
        if !(span > 0.0) {
            if let Some(total) = self.work.get_mut((end / width) as usize) {
                *total += count as f64;
            }
            return;
        }
        let first = (start / width).max(0.0) as usize;
        for (slot, total) in self.work.iter_mut().enumerate().skip(first) {
            let (lo, hi) = (slot as f64 * width, (slot + 1) as f64 * width);
            if lo >= end {
                break;
            }
            let overlap = end.min(hi) - start.max(lo);
            if overlap > 0.0 {
                *total += count as f64 * overlap / span;
            }
        }
    }

    /// Rate of each window, per second.
    pub fn rates(&self) -> Vec<f64> {
        self.work.iter().map(|&w| w / self.width).collect()
    }
}

/// Relative width of a [`LatencyHistogram`] bucket.
const BUCKET_RATIO: f64 = 1.001;
/// Smallest value a [`LatencyHistogram`] resolves; smaller ones share the
/// first bucket.
const HISTOGRAM_FLOOR: f64 = 0.01;
/// Buckets of a [`LatencyHistogram`]: 0.01 to about 1.2e8 (µs).
const HISTOGRAM_BUCKETS: usize = 23_300;

/// A latency histogram with 0.1 %-wide log buckets: fixed memory however
/// many ops a run makes, and percentiles within 0.1 % of the exact
/// nearest-rank value.
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            counts: vec![0; HISTOGRAM_BUCKETS],
            total: 0,
        }
    }

    fn bucket(value: f64) -> usize {
        if !(value > HISTOGRAM_FLOOR) {
            return 0;
        }
        ((value / HISTOGRAM_FLOOR).ln() / BUCKET_RATIO.ln()) as usize
    }

    pub fn record(&mut self, value: f64) {
        let bucket = Self::bucket(value).min(HISTOGRAM_BUCKETS - 1);
        self.counts[bucket] += 1;
        self.total += 1;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// Nearest-rank percentile, reported as the geometric centre of the
    /// bucket holding that rank. `None` when empty.
    pub fn percentile(&self, pct: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((pct / 100.0 * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        let bucket = self
            .counts
            .iter()
            .position(|&c| {
                seen += c;
                seen >= rank
            })
            .expect("the ranks sum to the total");
        Some(HISTOGRAM_FLOOR * BUCKET_RATIO.powf(bucket as f64 + 0.5))
    }

    /// Number of recorded values in buckets above the `pct` percentile's.
    pub fn count_beyond(&self, pct: f64) -> u64 {
        match self.percentile(pct) {
            Some(p) => self.counts[Self::bucket(p) + 1..].iter().sum(),
            None => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_on_a_known_series() {
        let series: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&series, 50.0), Some(10.0));
        assert_eq!(percentile(&series, 95.0), Some(19.0));
        assert_eq!(percentile(&series, 100.0), Some(20.0));
        assert_eq!(percentile(&series, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7.0], 95.0), Some(7.0));
    }

    #[test]
    fn median_of_odd_and_even_series() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 3.0, 1.0]), Some((1.25, 3.75)));
        // statistics.quantiles([5, 9], n=4) == [4.0, 7.0, 10.0] (extrapolated)
        assert_eq!(quartiles(&[9.0, 5.0]), Some((4.0, 10.0)));
        // statistics.quantiles([10, 20, 30, 40, 50, 60, 70], n=4) == [20, 40, 60]
        let seven: Vec<f64> = (1..=7).map(|v| f64::from(v) * 10.0).collect();
        assert_eq!(quartiles(&seven), Some((20.0, 60.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let spread = relative_spread(&ten).unwrap();
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(relative_spread(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn window_rates_split_ops_by_overlap() {
        // Four 1 s windows holding 10, 10, 40 and 10 verdicts.
        let mut windows = WindowRates::new(4.0, 4);
        for (start, end, count) in [(0.0, 1.0, 10), (1.0, 2.0, 10), (2.0, 3.0, 40), (3.0, 4.0, 10)] {
            windows.add(start, end, count);
        }
        assert_eq!(windows.rates(), vec![10.0, 10.0, 40.0, 10.0]);
        assert_eq!(median(&windows.rates()), Some(10.0));
        // Work past the phase end is dropped.
        windows.add(4.0, 4.5, 1000);
        assert_eq!(windows.rates(), vec![10.0, 10.0, 40.0, 10.0]);
        // An op straddling a window edge is split by overlap: 8 verdicts over
        // [0.5, 1.5) put 4 in each of the first two windows.
        let mut straddling = WindowRates::new(2.0, 2);
        for (start, end, count) in [(0.0, 0.5, 4), (0.5, 1.5, 8), (1.5, 2.0, 4)] {
            straddling.add(start, end, count);
        }
        assert_eq!(straddling.rates(), vec![8.0, 8.0]);
        // A window run at half the reference speed counts twice its rate.
        straddling.add_factor(0.2, 2.0);
        straddling.add_factor(0.7, 2.0);
        assert_eq!(straddling.reference_rates(), vec![16.0, 8.0]);
    }

    #[test]
    fn histogram_percentiles_track_the_exact_ones() {
        let mut histogram = LatencyHistogram::new();
        assert_eq!(histogram.percentile(50.0), None);
        let series: Vec<f64> = (1..=1000).map(|v| f64::from(v) * 1.7).collect();
        for &v in series.iter().rev() {
            histogram.record(v);
        }
        assert_eq!(histogram.count(), 1000);
        for pct in [1.0, 50.0, 95.0, 99.0, 100.0] {
            let exact = percentile(&series, pct).unwrap();
            let binned = histogram.percentile(pct).unwrap();
            assert!((binned / exact - 1.0).abs() < 1e-3, "p{pct}: {binned} vs {exact}");
        }
        assert_eq!(histogram.count_beyond(95.0), 50);
        // Out-of-range values land in the end buckets instead of panicking.
        histogram.record(0.0);
        histogram.record(1e12);
        assert_eq!(histogram.count(), 1002);
    }
}
