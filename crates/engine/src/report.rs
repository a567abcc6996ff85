//! Streaming campaign aggregation: NDF histogram, pass/fail yield, per-fault
//! coverage and dwell-time statistics, folded one device at a time — plus
//! persistence ([`CampaignReport::save`] / [`CampaignReport::load`], format
//! `DSGR` v2, declared through [`dsig_core::wire`]).

use std::path::Path;

use dsig_core::wire::{self, ByteReader, Wire};
use dsig_core::{Result, ScreeningStats, TestOutcome};

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

/// A fixed-bin histogram of NDF values.
#[derive(Debug, Clone, PartialEq)]
pub struct NdfHistogram {
    bin_width: f64,
    counts: Vec<u64>,
    overflow: u64,
}

impl NdfHistogram {
    /// Creates a histogram of `bins` bins of width `bin_width`, plus an
    /// overflow bucket. The paper's NDF values live in roughly `[0, 1]`, so
    /// the default campaign histogram uses 50 bins of 0.01.
    pub fn new(bin_width: f64, bins: usize) -> Self {
        NdfHistogram {
            bin_width,
            counts: vec![0; bins.max(1)],
            overflow: 0,
        }
    }

    /// The default campaign histogram: 50 bins of 0.01 NDF.
    pub fn campaign_default() -> Self {
        Self::new(0.01, 50)
    }

    /// Records one NDF value.
    pub fn record(&mut self, ndf: f64) {
        let bin = (ndf / self.bin_width).floor();
        if bin.is_finite() && bin >= 0.0 && (bin as usize) < self.counts.len() {
            self.counts[bin as usize] += 1;
        } else {
            self.overflow += 1;
        }
    }

    /// Per-bin counts (bin `i` covers `[i * w, (i + 1) * w)`).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Width of one bin.
    pub fn bin_width(&self) -> f64 {
        self.bin_width
    }

    /// Values beyond the last bin.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total number of recorded values.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.overflow
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
/// Equality compares every *result* field — screening counters, histogram,
/// dwell statistics, coverage, per-device rows and retest statistics — but
/// deliberately ignores [`CampaignReport::capture`]: the capture path
/// records *how* the signatures were produced, and the batched fast path is
/// bit-identical to the per-device reference by contract, so two runs
/// differing only in capture path are the same result.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Pass/fail/escape bookkeeping over the whole population.
    pub screening: ScreeningStats,
    /// Histogram of device NDFs.
    pub histogram: NdfHistogram,
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
    /// Creates an empty report with the default histogram.
    pub fn new() -> Self {
        CampaignReport {
            screening: ScreeningStats::default(),
            histogram: NdfHistogram::campaign_default(),
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
        self.histogram.record(result.ndf);
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
            && self.histogram == other.histogram
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

/// Current campaign-report format version. Version 2 added the capture-path
/// record, the aggregate retest statistics and the per-device retest
/// metadata; a report of any other version is rejected.
const REPORT_VERSION: u16 = 2;

dsig_core::wire_fields!(NdfHistogram {
    bin_width,
    counts,
    overflow
});
dsig_core::wire_fields!(DwellStats { min, max, sum, count });
dsig_core::wire_fields!(RetestStats {
    marginal,
    flips_to_fail,
    flips_to_pass,
    repeats_spent
});
dsig_core::wire_fields!(FaultCoverage { label, ndf, detected });
dsig_core::wire_fields!(DeviceRetest {
    initial_ndf,
    repeats_used,
    flipped
});
dsig_core::wire_fields!(DeviceResult {
    index,
    label,
    true_deviation_pct,
    ndf,
    peak_hamming,
    observed_zones,
    outcome,
    retest
});
dsig_core::wire_fields!(CampaignReport {
    screening,
    histogram,
    dwell,
    ndf_sum,
    ndf_min,
    ndf_max,
    capture,
    retest,
    coverage,
    results
}, file: *b"DSGR", Some(REPORT_VERSION), "campaign report");

/// A tag byte and a reason string; only [`CapturePath::PerDevice`] carries
/// a reason, so the other paths must carry an empty one.
impl Wire for CapturePath {
    const MIN_BYTES: usize = 1 + 4;

    fn put(&self, out: &mut Vec<u8>) {
        match self {
            CapturePath::Unknown => (0u8, String::new()).put(out),
            CapturePath::Batched => (1u8, String::new()).put(out),
            CapturePath::PerDevice { reason } => {
                2u8.put(out);
                reason.put(out);
            }
        }
    }

    fn get(r: &mut ByteReader<'_>) -> Result<Self> {
        let (tag, reason) = <(u8, String)>::get(r)?;
        match tag {
            0 | 1 if !reason.is_empty() => Err(r.corrupt(format!("capture path {tag} carries a reason {reason:?}"))),
            0 => Ok(CapturePath::Unknown),
            1 => Ok(CapturePath::Batched),
            2 => Ok(CapturePath::PerDevice { reason }),
            other => Err(r.corrupt(format!("invalid capture-path tag {other}"))),
        }
    }
}

impl CampaignReport {
    /// Serializes the complete report (screening counters, histogram, dwell
    /// statistics, capture path, retest statistics, coverage rows and
    /// per-device results) into the versioned `DSGR` binary format.
    /// Floating-point fields round-trip bit-exactly.
    pub fn to_bytes(&self) -> Vec<u8> {
        wire::to_bytes(self)
    }

    /// Decodes a report produced by [`CampaignReport::to_bytes`], at exactly
    /// the current version.
    ///
    /// # Errors
    /// Returns [`dsig_core::DsigError::Truncated`] / [`dsig_core::DsigError::Corrupt`] on malformed
    /// input; never panics.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        wire::from_bytes(bytes)
    }

    /// Writes the serialized report to a file.
    ///
    /// # Errors
    /// Returns [`dsig_core::DsigError::Io`] on filesystem errors.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        wire::save_bytes(path.as_ref(), &self.to_bytes(), "campaign report")
    }

    /// Reads a report previously written with [`CampaignReport::save`].
    ///
    /// # Errors
    /// Returns [`dsig_core::DsigError::Io`] on filesystem errors and decoding errors as
    /// in [`CampaignReport::from_bytes`].
    pub fn load(path: impl AsRef<Path>) -> Result<Self> {
        Self::from_bytes(&wire::load_bytes(path.as_ref(), "campaign report")?)
    }
}

#[cfg(test)]
mod tests {
    use dsig_core::DsigError;

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
    fn histogram_bins_and_overflow() {
        let mut h = NdfHistogram::new(0.1, 5);
        for v in [0.0, 0.05, 0.1, 0.45, 0.9, f64::NAN] {
            h.record(v);
        }
        assert_eq!(h.counts()[0], 2);
        assert_eq!(h.counts()[1], 1);
        assert_eq!(h.counts()[4], 1);
        assert_eq!(h.overflow(), 2, "0.9 and NaN overflow");
        assert_eq!(h.total(), 6);
        assert_eq!(h.bin_width(), 0.1);
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

    fn sample_report() -> CampaignReport {
        let mut report = CampaignReport::new();
        let mut dwell = DwellStats::new();
        dwell.record(10e-6);
        dwell.record(35e-6);
        report.record(result(0, 0.01, 1.0, TestOutcome::Pass), &dwell, 3.0, true);
        report.record(result(1, 0.20, 10.0, TestOutcome::Fail), &dwell, 3.0, true);
        report.record(result(2, 0.02, 8.0, TestOutcome::Pass), &dwell, 3.0, true);
        report
    }

    #[test]
    fn report_round_trips_bit_exact() {
        let report = sample_report();
        let decoded = CampaignReport::from_bytes(&report.to_bytes()).unwrap();
        assert_eq!(decoded, report);
        assert_eq!(
            decoded.mean_ndf().unwrap().to_bits(),
            report.mean_ndf().unwrap().to_bits()
        );
        // The empty report (infinite min/max sentinels) round-trips too.
        let empty = CampaignReport::new();
        assert_eq!(CampaignReport::from_bytes(&empty.to_bytes()).unwrap(), empty);
    }

    #[test]
    fn report_saves_and_loads_from_disk() {
        let report = sample_report();
        let path = std::env::temp_dir().join(format!("dsig-report-{}-{:p}.bin", std::process::id(), &report));
        report.save(&path).unwrap();
        let loaded = CampaignReport::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded, report);
        assert!(matches!(
            CampaignReport::load(path.with_extension("missing")),
            Err(DsigError::Io(_))
        ));
    }

    #[test]
    fn corrupted_reports_are_rejected_without_panicking() {
        let bytes = sample_report().to_bytes();
        assert!(CampaignReport::from_bytes(&bytes[..bytes.len() / 2]).is_err());
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            CampaignReport::from_bytes(&bad_magic),
            Err(DsigError::Corrupt { .. })
        ));
        let mut future_version = bytes.clone();
        future_version[4..6].copy_from_slice(&99u16.to_le_bytes());
        assert!(matches!(
            CampaignReport::from_bytes(&future_version),
            Err(DsigError::Corrupt { .. })
        ));
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(CampaignReport::from_bytes(&trailing).is_err());
        // The sample rows carry no retest metadata, so the last device row
        // ends with its outcome tag and then its retest presence tag (0).
        let last = bytes.len() - 1;
        assert_eq!(bytes[last - 1..], [0, 0], "a PASS row without retest metadata");
        // A bad outcome tag in the last device row is caught by validation.
        let mut bad_outcome = bytes.clone();
        bad_outcome[last - 1] = 7;
        assert!(matches!(
            CampaignReport::from_bytes(&bad_outcome),
            Err(DsigError::Corrupt { .. })
        ));
        // So is a bad retest presence tag.
        let mut bad_presence = bytes;
        bad_presence[last] = 7;
        assert!(matches!(
            CampaignReport::from_bytes(&bad_presence),
            Err(DsigError::Corrupt { .. })
        ));
    }

    #[test]
    fn a_detected_byte_other_than_0_or_1_is_corrupt() {
        // One coverage row and no device rows: the detected byte sits just
        // before the 4-byte device-row count.
        let mut report = CampaignReport::new();
        report.coverage.push(FaultCoverage {
            label: "open R1".into(),
            ndf: 0.5,
            detected: true,
        });
        let mut bytes = report.to_bytes();
        let detected = bytes.len() - 5;
        assert_eq!(bytes[detected], 1);
        bytes[detected] = 7;
        assert!(matches!(
            CampaignReport::from_bytes(&bytes),
            Err(DsigError::Corrupt { .. })
        ));
    }

    #[test]
    fn a_flipped_byte_other_than_0_or_1_is_corrupt() {
        // A last device row with retest metadata ends with its flipped byte.
        let mut report = sample_report();
        let mut retested = result(3, 0.041, 5.0, TestOutcome::Fail);
        retested.retest = Some(DeviceRetest {
            initial_ndf: 0.028,
            repeats_used: 6,
            flipped: true,
        });
        report.record(retested, &DwellStats::new(), 3.0, false);
        let mut bytes = report.to_bytes();
        let flipped = bytes.len() - 1;
        assert_eq!(bytes[flipped], 1);
        bytes[flipped] = 9;
        assert!(matches!(
            CampaignReport::from_bytes(&bytes),
            Err(DsigError::Corrupt { .. })
        ));
    }

    #[test]
    fn a_reason_on_the_unknown_or_batched_capture_path_is_corrupt() {
        let mut report = sample_report();
        report.capture = CapturePath::PerDevice {
            reason: "reason-marker".into(),
        };
        let bytes = report.to_bytes();
        let marker = bytes
            .windows(13)
            .position(|w| w == b"reason-marker")
            .expect("the report carries the reason");
        // The capture tag precedes the reason's 4-byte length.
        let tag = marker - 5;
        assert_eq!(bytes[tag], 2);
        for other in [0, 1] {
            let mut mutated = bytes.clone();
            mutated[tag] = other;
            assert!(
                matches!(CampaignReport::from_bytes(&mutated), Err(DsigError::Corrupt { .. })),
                "capture tag {other} with a reason"
            );
        }
    }

    #[test]
    fn retest_stats_and_capture_path_aggregate_and_round_trip() {
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
        // Bit-exact DSGR v2 round trip, including the metadata (equality
        // ignores the capture path, so check it explicitly).
        let decoded = CampaignReport::from_bytes(&report.to_bytes()).unwrap();
        assert_eq!(decoded, report);
        assert_eq!(decoded.capture, report.capture);
        assert_eq!(
            decoded.results[0].retest.unwrap().initial_ndf.to_bits(),
            0.028f64.to_bits()
        );
    }

    #[test]
    fn version_1_reports_are_rejected_as_corrupt() {
        // A report is read at exactly its current version: a version-1
        // header is refused before any body byte is read.
        let mut v1 = sample_report().to_bytes();
        v1[4..6].copy_from_slice(&1u16.to_le_bytes());
        assert!(matches!(
            CampaignReport::from_bytes(&v1),
            Err(DsigError::Corrupt { .. })
        ));
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
