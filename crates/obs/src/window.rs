//! Windowed rates and declarative health verdicts.
//!
//! Lifetime counters answer "how much since boot"; an operator watching a
//! fleet needs "how much in the last few seconds". A [`RateWindow`] turns
//! successive observations of one monotonic counter into a per-second rate
//! over a fixed sliding window of buckets, deterministically — callers pass
//! explicit timestamps, so tests need no clock.
//!
//! A [`SloPolicy`] then compresses a whole scrape into one answer: given a
//! [`HealthSample`] (requests, errors, tail latency, backed-off backends)
//! it produces a [`HealthReport`] with a PASS/DEGRADED/FAIL
//! [`HealthStatus`] and the specific findings that drove the verdict —
//! the body of the `DSHC` health frame.

/// A fixed-bucket sliding window deriving per-interval deltas from a
/// monotonic counter.
///
/// Feed it `(now_us, counter_total)` pairs via [`RateWindow::observe`];
/// [`RateWindow::rate_per_sec`] averages the deltas that landed inside the
/// window. The first observation only primes the baseline (a process's
/// lifetime total must not count as a burst). Stale buckets are zeroed
/// lazily, so an idle counter decays to a zero rate after one window.
#[derive(Debug, Clone)]
pub struct RateWindow {
    bucket_us: u64,
    /// `(bucket index, accumulated delta)` per slot; a slot is valid only
    /// while its index is within the window of the queried `now_us`.
    buckets: Vec<(u64, u64)>,
    last_total: u64,
    primed: bool,
}

impl RateWindow {
    /// Creates a window of `buckets.max(1)` buckets of
    /// `bucket_us.max(1)` µs each.
    pub fn new(bucket_us: u64, buckets: usize) -> Self {
        RateWindow {
            bucket_us: bucket_us.max(1),
            buckets: vec![(0, 0); buckets.max(1)],
            last_total: 0,
            primed: false,
        }
    }

    /// Total span of the window, in µs.
    pub fn span_us(&self) -> u64 {
        self.bucket_us.saturating_mul(self.buckets.len() as u64)
    }

    /// Records the counter's current `total` at time `now_us`. Deltas are
    /// saturating, so a counter that restarts (new process scraped under
    /// the same name) contributes zero instead of wrapping.
    pub fn observe(&mut self, now_us: u64, total: u64) {
        if !self.primed {
            self.primed = true;
            self.last_total = total;
            return;
        }
        let delta = total.saturating_sub(self.last_total);
        self.last_total = total;
        let index = now_us / self.bucket_us;
        let slot = (index % self.buckets.len() as u64) as usize;
        if self.buckets[slot].0 != index {
            self.buckets[slot] = (index, 0);
        }
        self.buckets[slot].1 = self.buckets[slot].1.saturating_add(delta);
    }

    /// The average per-second rate over the window ending at `now_us`.
    /// Buckets older than the window are ignored; the still-filling
    /// current bucket is included, so the rate is a slight underestimate
    /// while the newest bucket is partial.
    pub fn rate_per_sec(&self, now_us: u64) -> f64 {
        let current = now_us / self.bucket_us;
        let oldest = current.saturating_sub(self.buckets.len() as u64 - 1);
        let total: u64 = self
            .buckets
            .iter()
            .filter(|&&(index, _)| index >= oldest && index <= current)
            .map(|&(_, delta)| delta)
            .fold(0, u64::saturating_add);
        total as f64 * 1_000_000.0 / self.span_us() as f64
    }
}

/// Declarative service-level objectives a fleet scrape is judged against.
///
/// `Copy` so it can ride inside copyable config structs (e.g. the router's
/// `RouterConfig`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloPolicy {
    /// Maximum tolerated `errors / requests` ratio before the verdict
    /// degrades.
    pub max_error_rate: f64,
    /// Maximum tolerated 99th-percentile request latency, in µs.
    pub max_p99_us: u64,
    /// Maximum tolerated number of simultaneously backed-off backends.
    pub max_backed_off: u32,
}

impl Default for SloPolicy {
    /// One backed-off backend, a 1% error rate or a 10 s request p99
    /// already degrades the verdict.
    fn default() -> Self {
        SloPolicy {
            max_error_rate: 0.01,
            max_p99_us: 10_000_000,
            max_backed_off: 0,
        }
    }
}

/// The verdict of a health check, worst first when merging.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthStatus {
    /// Every objective is met.
    Pass,
    /// At least one objective is violated but the service is still doing
    /// useful work.
    Degraded,
    /// The service is not doing useful work (every backend backed off, or
    /// every request erroring).
    Fail,
}

impl HealthStatus {
    /// Upper-case display name (`PASS`, `DEGRADED`, `FAIL`).
    pub fn as_str(self) -> &'static str {
        match self {
            HealthStatus::Pass => "PASS",
            HealthStatus::Degraded => "DEGRADED",
            HealthStatus::Fail => "FAIL",
        }
    }
}

dsig_core::wire_tags!(HealthStatus: u8 { Pass = 0, Degraded = 1, Fail = 2 });

/// The operational facts a [`SloPolicy`] judges: one fleet scrape boiled
/// down to five numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HealthSample {
    /// Requests handled (fleet-wide lifetime total).
    pub requests: u64,
    /// Requests answered with an error.
    pub errors: u64,
    /// 99th-percentile request latency, in µs.
    pub p99_us: u64,
    /// Backends currently backed off (unreachable or failing).
    pub backed_off: u32,
    /// Backends in the fleet (0 for a single-process health check).
    pub backends: u32,
}

/// The result of judging a [`HealthSample`] against a [`SloPolicy`]: the
/// verdict plus the facts and findings that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReport {
    /// The verdict.
    pub status: HealthStatus,
    /// Observed `errors / requests` ratio (0 when no requests were seen).
    pub error_rate: f64,
    /// Observed 99th-percentile request latency, in µs.
    pub p99_us: u64,
    /// Backends currently backed off.
    pub backed_off: u32,
    /// Backends in the fleet.
    pub backends: u32,
    /// Fleet membership epoch: bumped by the routing tier on every
    /// join/leave/drain, `0` for a single-process health check (and for
    /// policies that never learn an epoch — [`SloPolicy::evaluate`] always
    /// reports `0`; the tier that owns the membership overwrites it).
    pub epoch: u64,
    /// One line per violated objective; empty for a PASS.
    pub findings: Vec<String>,
}

impl HealthReport {
    /// Renders the report as human-readable text: a one-line summary plus
    /// one indented line per finding.
    pub fn render(&self) -> String {
        let mut out = format!(
            "health {} error_rate {:.4} p99_us {} backed_off {}/{} epoch {}\n",
            self.status.as_str(),
            self.error_rate,
            self.p99_us,
            self.backed_off,
            self.backends,
            self.epoch
        );
        for finding in &self.findings {
            out.push_str("  - ");
            out.push_str(finding);
            out.push('\n');
        }
        out
    }
}

impl SloPolicy {
    /// Judges `sample`: FAIL when the service is doing no useful work
    /// (every backend backed off, or every request erroring), DEGRADED
    /// when any objective is violated, PASS otherwise. Findings name each
    /// violated objective.
    pub fn evaluate(&self, sample: HealthSample) -> HealthReport {
        let error_rate = if sample.requests == 0 {
            0.0
        } else {
            sample.errors as f64 / sample.requests as f64
        };
        let mut findings = Vec::new();
        if error_rate > self.max_error_rate {
            findings.push(format!(
                "error rate {:.4} exceeds the {:.4} objective ({} of {} requests)",
                error_rate, self.max_error_rate, sample.errors, sample.requests
            ));
        }
        if sample.p99_us > self.max_p99_us {
            findings.push(format!(
                "request p99 {}us exceeds the {}us objective",
                sample.p99_us, self.max_p99_us
            ));
        }
        if sample.backed_off > self.max_backed_off {
            findings.push(format!(
                "{} of {} backends backed off (at most {} tolerated)",
                sample.backed_off, sample.backends, self.max_backed_off
            ));
        }
        let all_backends_down = sample.backends > 0 && sample.backed_off >= sample.backends;
        if all_backends_down {
            findings.push("every backend is backed off".to_owned());
        }
        let all_requests_failing = sample.requests > 0 && sample.errors >= sample.requests;
        if all_requests_failing {
            findings.push("every request errored".to_owned());
        }
        let status = if all_backends_down || all_requests_failing {
            HealthStatus::Fail
        } else if findings.is_empty() {
            HealthStatus::Pass
        } else {
            HealthStatus::Degraded
        };
        HealthReport {
            status,
            error_rate,
            p99_us: sample.p99_us,
            backed_off: sample.backed_off,
            backends: sample.backends,
            epoch: 0,
            findings,
        }
    }
}

dsig_core::wire_fields!(HealthReport {
    status,
    error_rate,
    p99_us,
    backed_off,
    backends,
    epoch,
    findings
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_observation_only_primes() {
        let mut w = RateWindow::new(1_000_000, 5);
        w.observe(0, 1_000_000); // a long-lived counter joins the window
        assert_eq!(w.rate_per_sec(0), 0.0);
        w.observe(1_000_000, 1_000_100);
        // 100 events over a 5-second window.
        assert!((w.rate_per_sec(1_000_000) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn rate_decays_as_buckets_age_out() {
        let mut w = RateWindow::new(1_000_000, 2);
        w.observe(0, 0);
        w.observe(500_000, 100); // bucket 0
        assert!((w.rate_per_sec(500_000) - 50.0).abs() < 1e-9);
        // Two seconds later bucket 0 has aged out of the 2-bucket window.
        assert_eq!(w.rate_per_sec(2_500_000), 0.0);
        // And its slot is reused without double counting.
        w.observe(2_500_000, 130);
        assert!((w.rate_per_sec(2_500_000) - 15.0).abs() < 1e-9);
    }

    #[test]
    fn counter_restart_contributes_zero() {
        let mut w = RateWindow::new(1_000_000, 2);
        w.observe(0, 500);
        w.observe(100, 10); // the scraped process restarted
        assert_eq!(w.rate_per_sec(100), 0.0);
        w.observe(200, 30);
        assert!(w.rate_per_sec(200) > 0.0);
    }

    #[test]
    fn healthy_sample_passes() {
        let report = SloPolicy::default().evaluate(HealthSample {
            requests: 1000,
            errors: 5,
            p99_us: 20_000,
            backed_off: 0,
            backends: 3,
        });
        assert_eq!(report.status, HealthStatus::Pass);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert!((report.error_rate - 0.005).abs() < 1e-12);
        // No traffic at all is also a pass, not a division by zero.
        let idle = SloPolicy::default().evaluate(HealthSample::default());
        assert_eq!(idle.status, HealthStatus::Pass);
        assert_eq!(idle.error_rate, 0.0);
    }

    #[test]
    fn one_backed_off_backend_degrades_by_default() {
        let report = SloPolicy::default().evaluate(HealthSample {
            requests: 100,
            errors: 0,
            p99_us: 1_000,
            backed_off: 1,
            backends: 3,
        });
        assert_eq!(report.status, HealthStatus::Degraded);
        assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
        assert!(report.findings[0].contains("1 of 3 backends"), "{:?}", report.findings);
    }

    #[test]
    fn error_rate_and_p99_objectives_degrade() {
        let policy = SloPolicy {
            max_error_rate: 0.10,
            max_p99_us: 500,
            max_backed_off: 1,
        };
        let report = policy.evaluate(HealthSample {
            requests: 100,
            errors: 20,
            p99_us: 800,
            backed_off: 1,
            backends: 4,
        });
        assert_eq!(report.status, HealthStatus::Degraded);
        assert_eq!(report.findings.len(), 2, "{:?}", report.findings);
    }

    #[test]
    fn catastrophic_samples_fail() {
        let every_backend = SloPolicy::default().evaluate(HealthSample {
            requests: 10,
            errors: 0,
            p99_us: 1,
            backed_off: 3,
            backends: 3,
        });
        assert_eq!(every_backend.status, HealthStatus::Fail);
        let every_request = SloPolicy::default().evaluate(HealthSample {
            requests: 10,
            errors: 10,
            p99_us: 1,
            backed_off: 0,
            backends: 3,
        });
        assert_eq!(every_request.status, HealthStatus::Fail);
    }

    #[test]
    fn status_round_trips_and_orders() {
        use dsig_core::wire::{ByteReader, Wire};
        for status in [HealthStatus::Pass, HealthStatus::Degraded, HealthStatus::Fail] {
            let mut out = Vec::new();
            status.put(&mut out);
            assert_eq!(HealthStatus::get(&mut ByteReader::new(&out, "status")).unwrap(), status);
        }
        assert!(HealthStatus::get(&mut ByteReader::new(&[9], "status")).is_err());
        assert!(HealthStatus::Fail > HealthStatus::Degraded);
        assert!(HealthStatus::Degraded > HealthStatus::Pass);
    }

    #[test]
    fn report_renders_summary_and_findings() {
        let report = SloPolicy::default().evaluate(HealthSample {
            requests: 100,
            errors: 50,
            p99_us: 1,
            backed_off: 1,
            backends: 3,
        });
        let text = report.render();
        assert!(text.starts_with("health DEGRADED"), "{text}");
        assert!(text.lines().count() >= 2, "{text}");
        assert!(text.contains("error rate"), "{text}");
    }
}
