//! Declarative health verdicts.
//!
//! A [`SloPolicy`] compresses a whole scrape into one answer: given a
//! [`HealthSample`] (requests, errors, tail latency, backed-off backends)
//! it produces a [`HealthReport`] with a PASS/DEGRADED/FAIL
//! [`HealthStatus`] and the specific findings that drove the verdict —
//! the body of the `DSHC` health frame.

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
