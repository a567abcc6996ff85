//! Streaming campaign aggregation: pass/fail yield, NDF range, per-fault
//! coverage and dwell-time statistics, folded one device at a time.

use dsig_core::{ScreeningStats, TestOutcome};

/// The outcome of evaluating one device of a campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceResult {
    /// Index of the device within the campaign.
    pub index: usize,
    /// Label inherited from the device spec (fault name, deviation, number).
    pub label: String,
    /// True `f0` deviation of the instance, percent.
    pub true_deviation_pct: f64,
    /// Measured normalized discrepancy factor. For a retested device this is
    /// the final averaged NDF that decided the verdict (the single-shot
    /// value lives in [`DeviceRetest::initial_ndf`]).
    pub ndf: f64,
    /// Peak instantaneous Hamming distance over the period (folded over the
    /// initial capture and every consumed repeat for retested devices).
    pub peak_hamming: u32,
    /// Number of zone traversals in the observed signature (the maximum over
    /// initial capture and consumed repeats for retested devices).
    pub observed_zones: usize,
    /// PASS/FAIL decision of the campaign's acceptance band.
    pub outcome: TestOutcome,
    /// Adaptive-retest metadata — present exactly when the single-shot NDF
    /// fell inside the campaign retest policy's guard band.
    pub retest: Option<DeviceRetest>,
}

/// Adaptive-retest metadata of one marginal device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceRetest {
    /// The single-shot NDF that triggered the retest.
    pub initial_ndf: f64,
    /// Measurement repeats consumed by the escalation walk.
    pub repeats_used: u32,
    /// Whether the averaged verdict differs from the single-shot one.
    pub flipped: bool,
}

/// Aggregate adaptive-retest statistics of a campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RetestStats {
    /// Devices whose single-shot NDF fell inside the guard band.
    pub marginal: usize,
    /// Marginal devices whose verdict flipped PASS → FAIL under averaging.
    pub flips_to_fail: usize,
    /// Marginal devices whose verdict flipped FAIL → PASS under averaging.
    pub flips_to_pass: usize,
    /// Total measurement repeats consumed across every retested device.
    pub repeats_spent: u64,
}

impl RetestStats {
    /// Total verdict flips in either direction.
    pub fn flips(&self) -> usize {
        self.flips_to_fail + self.flips_to_pass
    }
}

/// Which capture path produced a campaign's observed signatures — recorded
/// in the report so a throughput regression is diagnosable from the report
/// alone (a campaign silently falling back to the per-device path is
/// several times slower than the batched one).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum CapturePath {
    /// The capture path was not recorded.
    #[default]
    Unknown,
    /// The shared-stimulus batched fast path.
    Batched,
    /// The per-device reference path, with the reason for the fallback.
    PerDevice {
        /// Why the batched fast path was not taken.
        reason: String,
    },
}

impl std::fmt::Display for CapturePath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CapturePath::Unknown => write!(f, "unknown"),
            CapturePath::Batched => write!(f, "batched (shared stimulus)"),
            CapturePath::PerDevice { reason } => write!(f, "per-device ({reason})"),
        }
    }
}

/// Streaming min/max/mean statistics of zone dwell times (seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DwellStats {
    min: f64,
    max: f64,
    sum: f64,
    count: u64,
}

impl DwellStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        DwellStats {
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
            count: 0,
        }
    }

    /// Records one dwell time.
    pub fn record(&mut self, dwell: f64) {
        self.min = self.min.min(dwell);
        self.max = self.max.max(dwell);
        self.sum += dwell;
        self.count += 1;
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &DwellStats) {
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.sum += other.sum;
        self.count += other.count;
    }

    /// Shortest recorded dwell (`None` before any record).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Longest recorded dwell (`None` before any record).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean recorded dwell (`None` before any record).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Number of recorded dwells.
    pub fn count(&self) -> u64 {
        self.count
    }
}

impl Default for DwellStats {
    fn default() -> Self {
        Self::new()
    }
}

/// Detection record of one fault of a fault-grid campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultCoverage {
    /// Human-readable fault label.
    pub label: String,
    /// The NDF the fault produced.
    pub ndf: f64,
    /// Whether the acceptance band rejected the faulty device.
    pub detected: bool,
}

/// The aggregated outcome of a campaign.
///
/// Equality compares every *result* field — screening counters, dwell
/// statistics, coverage, per-device rows and retest statistics — but
/// deliberately ignores [`CampaignReport::capture`]: the capture path
/// records *how* the signatures were produced, and the batched fast path is
/// bit-identical to the per-device reference by contract, so two runs
/// differing only in capture path are the same result.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Pass/fail/escape bookkeeping over the whole population.
    pub screening: ScreeningStats,
    /// Dwell-time statistics across every zone of every observed signature.
    pub dwell: DwellStats,
    /// Per-fault coverage (populated for fault-grid campaigns, where each
    /// device is a distinct fault; empty otherwise).
    pub coverage: Vec<FaultCoverage>,
    /// Per-device results in campaign order.
    pub results: Vec<DeviceResult>,
    /// Aggregate adaptive-retest statistics (all zero when the campaign ran
    /// without a retest policy).
    pub retest: RetestStats,
    /// The capture path the campaign took (batched fast path vs per-device
    /// fallback, with the fallback reason).
    pub capture: CapturePath,
    ndf_sum: f64,
    ndf_min: f64,
    ndf_max: f64,
}

impl CampaignReport {
    /// Creates an empty report.
    pub fn new() -> Self {
        CampaignReport {
            screening: ScreeningStats::default(),
            dwell: DwellStats::new(),
            coverage: Vec::new(),
            results: Vec::new(),
            retest: RetestStats::default(),
            capture: CapturePath::default(),
            ndf_sum: 0.0,
            ndf_min: f64::INFINITY,
            ndf_max: f64::NEG_INFINITY,
        }
    }

    /// Folds one device into the report. `tolerance_pct` decides whether the
    /// device counts as truly good; `track_coverage` appends a
    /// [`FaultCoverage`] row (fault-grid campaigns).
    pub fn record(&mut self, result: DeviceResult, dwell: &DwellStats, tolerance_pct: f64, track_coverage: bool) {
        let truly_good = result.true_deviation_pct.abs() <= tolerance_pct;
        self.screening.record(truly_good, result.outcome);
        self.dwell.merge(dwell);
        self.ndf_sum += result.ndf;
        self.ndf_min = self.ndf_min.min(result.ndf);
        self.ndf_max = self.ndf_max.max(result.ndf);
        if let Some(retest) = &result.retest {
            self.retest.marginal += 1;
            self.retest.repeats_spent += u64::from(retest.repeats_used);
            if retest.flipped {
                match result.outcome {
                    TestOutcome::Fail => self.retest.flips_to_fail += 1,
                    TestOutcome::Pass => self.retest.flips_to_pass += 1,
                }
            }
        }
        if track_coverage {
            self.coverage.push(FaultCoverage {
                label: result.label.clone(),
                ndf: result.ndf,
                detected: result.outcome == TestOutcome::Fail,
            });
        }
        self.results.push(result);
    }

    /// Number of devices evaluated.
    pub fn devices(&self) -> usize {
        self.results.len()
    }

    /// Fraction of devices that passed (see [`ScreeningStats::test_yield`]).
    pub fn test_yield(&self) -> f64 {
        self.screening.test_yield()
    }

    /// Mean NDF over the population (`None` for an empty report).
    pub fn mean_ndf(&self) -> Option<f64> {
        (!self.results.is_empty()).then(|| self.ndf_sum / self.results.len() as f64)
    }

    /// Smallest NDF observed (`None` for an empty report).
    pub fn min_ndf(&self) -> Option<f64> {
        (!self.results.is_empty()).then_some(self.ndf_min)
    }

    /// Largest NDF observed (`None` for an empty report).
    pub fn max_ndf(&self) -> Option<f64> {
        (!self.results.is_empty()).then_some(self.ndf_max)
    }

    /// Fraction of faults detected, for fault-grid campaigns
    /// (`None` when no coverage rows were tracked).
    pub fn fault_coverage(&self) -> Option<f64> {
        if self.coverage.is_empty() {
            return None;
        }
        let detected = self.coverage.iter().filter(|c| c.detected).count();
        Some(detected as f64 / self.coverage.len() as f64)
    }

    /// A compact multi-line human-readable summary.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "devices: {}  pass: {}  fail: {}  yield: {:.1}%\n",
            self.devices(),
            self.screening.passed,
            self.screening.failed,
            100.0 * self.test_yield()
        ));
        out.push_str(&format!(
            "ndf: min {:.4}  mean {:.4}  max {:.4}\n",
            self.min_ndf().unwrap_or(0.0),
            self.mean_ndf().unwrap_or(0.0),
            self.max_ndf().unwrap_or(0.0)
        ));
        out.push_str(&format!(
            "escapes: {}  false rejects: {}\n",
            self.screening.escapes, self.screening.false_rejects
        ));
        if let (Some(min), Some(mean), Some(max)) = (self.dwell.min(), self.dwell.mean(), self.dwell.max()) {
            out.push_str(&format!(
                "zone dwell: min {:.2} µs  mean {:.2} µs  max {:.2} µs  ({} zones)\n",
                min * 1e6,
                mean * 1e6,
                max * 1e6,
                self.dwell.count()
            ));
        }
        if let Some(coverage) = self.fault_coverage() {
            out.push_str(&format!("fault coverage: {:.1}%\n", 100.0 * coverage));
        }
        if self.retest.marginal > 0 {
            out.push_str(&format!(
                "retest: {} marginal  flips {} -> FAIL, {} -> PASS  repeats spent {}\n",
                self.retest.marginal, self.retest.flips_to_fail, self.retest.flips_to_pass, self.retest.repeats_spent
            ));
        }
        if self.capture != CapturePath::Unknown {
            out.push_str(&format!("capture path: {}\n", self.capture));
        }
        out
    }
}

impl PartialEq for CampaignReport {
    fn eq(&self, other: &Self) -> bool {
        // `capture` is diagnostic metadata, not a result — see the type docs.
        self.screening == other.screening
            && self.dwell == other.dwell
            && self.coverage == other.coverage
            && self.results == other.results
            && self.retest == other.retest
            && self.ndf_sum == other.ndf_sum
            && self.ndf_min == other.ndf_min
            && self.ndf_max == other.ndf_max
    }
}

impl Default for CampaignReport {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(index: usize, ndf: f64, dev: f64, outcome: TestOutcome) -> DeviceResult {
        DeviceResult {
            index,
            label: format!("d{index}"),
            true_deviation_pct: dev,
            ndf,
            peak_hamming: 1,
            observed_zones: 8,
            outcome,
            retest: None,
        }
    }

    #[test]
    fn dwell_stats_stream_and_merge() {
        let mut a = DwellStats::new();
        assert_eq!(a.mean(), None);
        a.record(1e-6);
        a.record(3e-6);
        let mut b = DwellStats::new();
        b.record(5e-6);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min(), Some(1e-6));
        assert_eq!(a.max(), Some(5e-6));
        assert!((a.mean().unwrap() - 3e-6).abs() < 1e-18);
    }

    #[test]
    fn report_aggregates_yield_ndf_and_coverage() {
        let mut report = CampaignReport::new();
        let mut dwell = DwellStats::new();
        dwell.record(10e-6);
        report.record(result(0, 0.01, 1.0, TestOutcome::Pass), &dwell, 3.0, true);
        report.record(result(1, 0.20, 10.0, TestOutcome::Fail), &dwell, 3.0, true);
        report.record(result(2, 0.02, 8.0, TestOutcome::Pass), &dwell, 3.0, true); // escape
        assert_eq!(report.devices(), 3);
        assert!((report.test_yield() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(report.screening.escapes, 1);
        assert_eq!(report.min_ndf(), Some(0.01));
        assert_eq!(report.max_ndf(), Some(0.20));
        assert!((report.mean_ndf().unwrap() - 0.23 / 3.0).abs() < 1e-12);
        assert!((report.fault_coverage().unwrap() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(report.dwell.count(), 3);
        let text = report.summary();
        assert!(text.contains("devices: 3"));
        assert!(text.contains("fault coverage"));
    }

    #[test]
    fn retest_stats_and_capture_path_aggregate() {
        let mut report = CampaignReport::new();
        let dwell = DwellStats::new();
        report.capture = CapturePath::PerDevice {
            reason: "batching disabled on this runner".into(),
        };
        // A marginal PASS->FAIL flip, a marginal confirmation, a clean device.
        let mut flipped = result(0, 0.041, 5.0, TestOutcome::Fail);
        flipped.retest = Some(DeviceRetest {
            initial_ndf: 0.028,
            repeats_used: 16,
            flipped: true,
        });
        let mut confirmed = result(1, 0.027, 1.0, TestOutcome::Pass);
        confirmed.retest = Some(DeviceRetest {
            initial_ndf: 0.029,
            repeats_used: 4,
            flipped: false,
        });
        report.record(flipped, &dwell, 3.0, false);
        report.record(confirmed, &dwell, 3.0, false);
        report.record(result(2, 0.001, 0.5, TestOutcome::Pass), &dwell, 3.0, false);
        assert_eq!(report.retest.marginal, 2);
        assert_eq!(report.retest.flips_to_fail, 1);
        assert_eq!(report.retest.flips_to_pass, 0);
        assert_eq!(report.retest.flips(), 1);
        assert_eq!(report.retest.repeats_spent, 20);
        let text = report.summary();
        assert!(text.contains("retest: 2 marginal"), "{text}");
        assert!(text.contains("per-device (batching disabled on this runner)"), "{text}");
    }

    #[test]
    fn empty_report_is_well_defined() {
        let report = CampaignReport::new();
        assert_eq!(report.devices(), 0);
        assert_eq!(report.mean_ndf(), None);
        assert_eq!(report.fault_coverage(), None);
        assert!(report.summary().contains("devices: 0"));
    }
}
