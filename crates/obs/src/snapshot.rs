//! The stable scrape format: [`MetricsSnapshot`] and its `DSMS` wire codec.

use dsig_core::wire::{self, ByteReader, Format, Wire};
use dsig_core::Result;

/// Magic bytes of a serialized metrics snapshot.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"DSMS";
/// Current snapshot format version. Version 2 added the exact observed
/// maximum to histogram bodies; a snapshot of any other version is
/// rejected.
pub const SNAPSHOT_VERSION: u16 = 2;

/// An owned copy of one histogram's state at scrape time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total number of recorded samples.
    pub count: u64,
    /// Sum of all recorded values, in microseconds (wrapping).
    pub sum_us: u64,
    /// Exact largest recorded value in µs; 0 when no sample has been
    /// recorded.
    pub max_us: u64,
    /// `(inclusive upper bound in µs, samples)` per bucket, ascending; the
    /// final bucket's bound is `u64::MAX` (overflow).
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// The smallest bucket upper bound (µs) below which at least fraction
    /// `q` of the samples fall, clamped to the exact observed maximum when
    /// one is known — so a tail quantile landing in the overflow bucket
    /// reports the real largest sample instead of saturating at the
    /// bucket's `u64::MAX` bound. Returns 0 for an empty histogram.
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        // max_us == 0 carries no known maximum: no clamp then.
        let clamp = |bound: u64| if self.max_us > 0 { bound.min(self.max_us) } else { bound };
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(upper, n) in &self.buckets {
            seen = seen.saturating_add(n);
            if seen >= rank {
                return clamp(upper);
            }
        }
        clamp(u64::MAX)
    }

    /// Median latency bound in µs.
    pub fn p50_us(&self) -> u64 {
        self.quantile_us(0.50)
    }

    /// 99th-percentile latency bound in µs.
    pub fn p99_us(&self) -> u64 {
        self.quantile_us(0.99)
    }
}

/// The value of one scraped metric.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A monotonically increasing count.
    Counter(u64),
    /// A last-write-wins measurement.
    Gauge(f64),
    /// A latency distribution.
    Histogram(HistogramSnapshot),
}

dsig_core::wire_tags!(MetricValue: u8 {
    Counter(u64) = 0,
    Gauge(f64) = 1,
    Histogram(HistogramSnapshot) = 2,
});

/// Decoded bucket bounds must ascend strictly.
impl Wire for HistogramSnapshot {
    const MIN_BYTES: usize = 3 * 8 + 4;

    fn put(&self, out: &mut Vec<u8>) {
        (self.count, self.sum_us, self.max_us).put(out);
        self.buckets.put(out);
    }

    fn get(r: &mut ByteReader<'_>) -> Result<Self> {
        let (count, sum_us, max_us) = Wire::get(r)?;
        let buckets: Vec<(u64, u64)> = Wire::get(r)?;
        if buckets.windows(2).any(|pair| pair[0].0 >= pair[1].0) {
            return Err(r.corrupt("histogram bounds not ascending"));
        }
        Ok(HistogramSnapshot {
            count,
            sum_us,
            max_us,
            buckets,
        })
    }
}

/// How one metric moved between two snapshots (see
/// [`MetricsSnapshot::diff`]).
#[derive(Debug, Clone, PartialEq)]
pub enum MetricDelta {
    /// A counter's earlier and later values.
    Counter {
        /// Value in the earlier snapshot.
        from: u64,
        /// Value in the later snapshot.
        to: u64,
    },
    /// A gauge's earlier and later values (free to move either way).
    Gauge {
        /// Value in the earlier snapshot.
        from: f64,
        /// Value in the later snapshot.
        to: f64,
    },
    /// A histogram's earlier and later sample counts and sums.
    Histogram {
        /// Sample count in the earlier snapshot.
        count_from: u64,
        /// Sample count in the later snapshot.
        count_to: u64,
        /// Sample sum (µs) in the earlier snapshot.
        sum_from: u64,
        /// Sample sum (µs) in the later snapshot.
        sum_to: u64,
    },
    /// The name is registered as a different metric kind in each snapshot.
    KindChanged,
}

/// Per-metric deltas between two snapshots (see [`MetricsSnapshot::diff`]).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SnapshotDiff {
    /// Deltas for names present in both snapshots, ascending by name.
    pub deltas: Vec<(String, MetricDelta)>,
    /// Names present only in the earlier snapshot.
    pub vanished: Vec<String>,
    /// Names present only in the later snapshot.
    pub appeared: Vec<String>,
}

impl SnapshotDiff {
    /// Everything that violates scrape-over-scrape monotonicity of one
    /// live registry: counters or histogram sample counts that went
    /// backwards, metrics that vanished, and names that changed kind.
    /// Empty for a well-behaved pair of scrapes (gauges are last-write-wins
    /// and new metrics may appear at any time; neither is a violation).
    pub fn monotonicity_violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (name, delta) in &self.deltas {
            match delta {
                MetricDelta::Counter { from, to } if to < from => {
                    out.push(format!("counter {name} went backwards: {from} -> {to}"));
                }
                MetricDelta::Histogram {
                    count_from, count_to, ..
                } if count_to < count_from => {
                    out.push(format!("histogram {name} lost samples: {count_from} -> {count_to}"));
                }
                MetricDelta::KindChanged => out.push(format!("metric {name} changed kind between scrapes")),
                _ => {}
            }
        }
        for name in &self.vanished {
            out.push(format!("metric {name} vanished between scrapes"));
        }
        out
    }
}

/// One process's metrics at a point in time: `(name, value)` pairs sorted
/// by name, serializable via [`MetricsSnapshot::to_bytes`] (magic `DSMS`).
///
/// Counters in successive snapshots of a live registry are monotonically
/// consistent: a later scrape never reports a smaller value.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// The scraped metrics, ascending by name (names are unique).
    pub metrics: Vec<(String, MetricValue)>,
}

/// The `DSMS` body: the metrics, whose decoded names must ascend strictly.
impl Format for MetricsSnapshot {
    const MAGIC: [u8; 4] = SNAPSHOT_MAGIC;
    const VERSION: Option<u16> = Some(SNAPSHOT_VERSION);
    const CONTEXT: &'static str = "metrics snapshot";
    const MIN_BODY: usize = 4;

    fn put_body(&self, out: &mut Vec<u8>) {
        self.metrics.put(out);
    }

    fn get_body(r: &mut ByteReader<'_>) -> Result<Self> {
        let metrics: Vec<(String, MetricValue)> = Wire::get(r)?;
        if let Some(pair) = metrics.windows(2).find(|pair| pair[0].0 >= pair[1].0) {
            return Err(r.corrupt(format!("metric names not strictly ascending at {:?}", pair[1].0)));
        }
        Ok(MetricsSnapshot { metrics })
    }
}

impl MetricsSnapshot {
    /// Looks up a metric by name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.metrics
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.metrics[i].1)
    }

    /// The value of counter `name`, if present and a counter.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name) {
            Some(MetricValue::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// The value of gauge `name`, if present and a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.get(name) {
            Some(MetricValue::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// The state of histogram `name`, if present and a histogram.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.get(name) {
            Some(MetricValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Serializes the snapshot (magic `DSMS`, version 2).
    pub fn to_bytes(&self) -> Vec<u8> {
        wire::to_bytes(self)
    }

    /// Decodes a snapshot serialized by [`MetricsSnapshot::to_bytes`], at
    /// exactly the current version.
    ///
    /// # Errors
    /// Returns [`dsig_core::DsigError::Truncated`] /
    /// [`dsig_core::DsigError::Corrupt`] on malformed input, including names that are not strictly ascending and
    /// histogram bounds that are not ascending.
    pub fn from_bytes(bytes: &[u8]) -> Result<MetricsSnapshot> {
        wire::from_bytes(bytes)
    }

    /// Computes per-metric deltas from `earlier` to `self` (both sorted by
    /// name, so this is one merge walk). Use
    /// [`SnapshotDiff::monotonicity_violations`] to check that two scrapes
    /// of one live registry are consistent.
    pub fn diff(&self, earlier: &MetricsSnapshot) -> SnapshotDiff {
        let mut diff = SnapshotDiff::default();
        let (mut i, mut j) = (0, 0);
        while i < earlier.metrics.len() || j < self.metrics.len() {
            let order = match (earlier.metrics.get(i), self.metrics.get(j)) {
                (Some((was, _)), Some((now, _))) => was.as_str().cmp(now.as_str()),
                (Some(_), None) => std::cmp::Ordering::Less,
                (None, Some(_)) => std::cmp::Ordering::Greater,
                (None, None) => unreachable!("loop condition holds an index in range"),
            };
            match order {
                std::cmp::Ordering::Less => {
                    diff.vanished.push(earlier.metrics[i].0.clone());
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    diff.appeared.push(self.metrics[j].0.clone());
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    let (name, was) = &earlier.metrics[i];
                    let now = &self.metrics[j].1;
                    let delta = match (was, now) {
                        (MetricValue::Counter(from), MetricValue::Counter(to)) => {
                            MetricDelta::Counter { from: *from, to: *to }
                        }
                        (MetricValue::Gauge(from), MetricValue::Gauge(to)) => {
                            MetricDelta::Gauge { from: *from, to: *to }
                        }
                        (MetricValue::Histogram(from), MetricValue::Histogram(to)) => MetricDelta::Histogram {
                            count_from: from.count,
                            count_to: to.count,
                            sum_from: from.sum_us,
                            sum_to: to.sum_us,
                        },
                        _ => MetricDelta::KindChanged,
                    };
                    diff.deltas.push((name.clone(), delta));
                    i += 1;
                    j += 1;
                }
            }
        }
        diff
    }

    /// Returns a copy with `prefix` prepended to every metric name. A
    /// uniform prefix preserves the sorted-unique name invariant, so the
    /// result still serializes and decodes.
    pub fn with_prefix(&self, prefix: &str) -> MetricsSnapshot {
        MetricsSnapshot {
            metrics: self
                .metrics
                .iter()
                .map(|(name, value)| (format!("{prefix}{name}"), value.clone()))
                .collect(),
        }
    }

    /// Element-wise rollup of several snapshots: counters and gauges are
    /// summed, histograms merged per bucket bound (counts and sums added,
    /// maxima maxed, bounds unioned ascending). A metric present in only
    /// some snapshots rolls up over those; a name registered as different
    /// kinds in different snapshots is dropped from the rollup (the
    /// per-backend copies still carry it).
    pub fn rollup(parts: &[MetricsSnapshot]) -> MetricsSnapshot {
        let mut merged: std::collections::BTreeMap<String, Option<MetricValue>> = std::collections::BTreeMap::new();
        for part in parts {
            for (name, value) in &part.metrics {
                match merged.get_mut(name) {
                    None => {
                        merged.insert(name.clone(), Some(value.clone()));
                    }
                    Some(slot) => {
                        let folded = match (slot.take(), value) {
                            (Some(MetricValue::Counter(a)), MetricValue::Counter(b)) => {
                                Some(MetricValue::Counter(a.wrapping_add(*b)))
                            }
                            (Some(MetricValue::Gauge(a)), MetricValue::Gauge(b)) => Some(MetricValue::Gauge(a + b)),
                            (Some(MetricValue::Histogram(a)), MetricValue::Histogram(b)) => {
                                Some(MetricValue::Histogram(merge_histograms(&a, b)))
                            }
                            // Kind conflict: poison the name for the rest
                            // of the rollup.
                            _ => None,
                        };
                        *slot = folded;
                    }
                }
            }
        }
        MetricsSnapshot {
            metrics: merged
                .into_iter()
                .filter_map(|(name, value)| value.map(|v| (name, v)))
                .collect(),
        }
    }

    /// Assembles a fleet scrape: each backend's snapshot under a
    /// `backend.<label>.` prefix, the cross-backend [rollup](MetricsSnapshot::rollup)
    /// under `fleet.`, and the aggregator's own snapshot unprefixed. On a
    /// (misconfigured) name collision the first writer wins, preserving
    /// the sorted-unique invariant the `DSMS` decoder enforces.
    pub fn merge_fleet(backends: &[(String, MetricsSnapshot)], own: &MetricsSnapshot) -> MetricsSnapshot {
        let mut merged: std::collections::BTreeMap<String, MetricValue> = std::collections::BTreeMap::new();
        let mut add = |snapshot: MetricsSnapshot| {
            for (name, value) in snapshot.metrics {
                merged.entry(name).or_insert(value);
            }
        };
        for (label, snapshot) in backends {
            add(snapshot.with_prefix(&format!("backend.{label}.")));
        }
        let parts: Vec<MetricsSnapshot> = backends.iter().map(|(_, s)| s.clone()).collect();
        add(MetricsSnapshot::rollup(&parts).with_prefix("fleet."));
        add(own.clone());
        MetricsSnapshot {
            metrics: merged.into_iter().collect(),
        }
    }
}

/// Merges two histogram snapshots: counts and sums added (wrapping, like
/// the recording path), maxima maxed, bucket bounds unioned ascending.
fn merge_histograms(a: &HistogramSnapshot, b: &HistogramSnapshot) -> HistogramSnapshot {
    let mut buckets: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    for &(upper, n) in a.buckets.iter().chain(&b.buckets) {
        let slot = buckets.entry(upper).or_insert(0);
        *slot = slot.wrapping_add(n);
    }
    HistogramSnapshot {
        count: a.count.wrapping_add(b.count),
        sum_us: a.sum_us.wrapping_add(b.sum_us),
        max_us: a.max_us.max(b.max_us),
        buckets: buckets.into_iter().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsSnapshot {
        MetricsSnapshot {
            metrics: vec![
                ("a.count".into(), MetricValue::Counter(42)),
                ("b.gauge".into(), MetricValue::Gauge(-1.25)),
                (
                    "c.hist".into(),
                    MetricValue::Histogram(HistogramSnapshot {
                        count: 3,
                        sum_us: 300,
                        max_us: 120,
                        buckets: vec![(64, 1), (128, 2), (u64::MAX, 0)],
                    }),
                ),
            ],
        }
    }

    #[test]
    fn round_trips_bit_exactly() {
        let snap = sample();
        let bytes = snap.to_bytes();
        let back = MetricsSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn lookup_helpers() {
        let snap = sample();
        assert_eq!(snap.counter("a.count"), Some(42));
        assert_eq!(snap.gauge("b.gauge"), Some(-1.25));
        assert_eq!(snap.histogram("c.hist").unwrap().count, 3);
        assert_eq!(snap.counter("b.gauge"), None);
        assert_eq!(snap.get("missing"), None);
    }

    #[test]
    fn quantiles_walk_cumulative_buckets() {
        // max_us == 0 (no known maximum): tail quantiles saturate at the
        // bucket bounds.
        let h = HistogramSnapshot {
            count: 100,
            sum_us: 0,
            max_us: 0,
            buckets: vec![(1, 50), (2, 40), (4, 9), (u64::MAX, 1)],
        };
        assert_eq!(h.p50_us(), 1);
        assert_eq!(h.quantile_us(0.95), 4);
        assert_eq!(h.p99_us(), 4);
        assert_eq!(h.quantile_us(1.0), u64::MAX);
        assert_eq!(
            HistogramSnapshot {
                count: 0,
                sum_us: 0,
                max_us: 0,
                buckets: vec![]
            }
            .p50_us(),
            0
        );
    }

    #[test]
    fn known_max_clamps_tail_quantiles() {
        // One sample in the overflow bucket: with the exact max known, the
        // tail quantile reports it instead of u64::MAX; quantiles below the
        // max keep their bucket-bound answers.
        let h = HistogramSnapshot {
            count: 100,
            sum_us: 0,
            max_us: 250_000_000,
            buckets: vec![(1, 50), (2, 40), (4, 9), (u64::MAX, 1)],
        };
        assert_eq!(h.p50_us(), 1);
        assert_eq!(h.quantile_us(1.0), 250_000_000);
        // A max below a bucket bound clamps that bound too (the last
        // sample in a bucket is never larger than the observed max).
        let tight = HistogramSnapshot {
            count: 2,
            sum_us: 5,
            max_us: 3,
            buckets: vec![(2, 1), (4, 1)],
        };
        assert_eq!(tight.quantile_us(1.0), 3);
    }

    #[test]
    fn version1_snapshots_are_rejected_as_corrupt() {
        // A snapshot is read at exactly its current version: a version-1
        // header is refused before any body byte is read.
        let mut v1 = sample().to_bytes();
        v1[4..6].copy_from_slice(&1u16.to_le_bytes());
        assert!(matches!(
            MetricsSnapshot::from_bytes(&v1),
            Err(dsig_core::DsigError::Corrupt { .. })
        ));
    }

    #[test]
    fn diff_reports_deltas_vanished_and_appeared() {
        let earlier = MetricsSnapshot {
            metrics: vec![
                ("a.count".into(), MetricValue::Counter(10)),
                ("b.gone".into(), MetricValue::Counter(1)),
                ("c.gauge".into(), MetricValue::Gauge(1.0)),
                (
                    "d.hist".into(),
                    MetricValue::Histogram(HistogramSnapshot {
                        count: 2,
                        sum_us: 20,
                        max_us: 15,
                        buckets: vec![(u64::MAX, 2)],
                    }),
                ),
            ],
        };
        let later = MetricsSnapshot {
            metrics: vec![
                ("a.count".into(), MetricValue::Counter(15)),
                ("c.gauge".into(), MetricValue::Gauge(-2.0)),
                (
                    "d.hist".into(),
                    MetricValue::Histogram(HistogramSnapshot {
                        count: 5,
                        sum_us: 60,
                        max_us: 15,
                        buckets: vec![(u64::MAX, 5)],
                    }),
                ),
                ("e.new".into(), MetricValue::Counter(1)),
            ],
        };
        let diff = later.diff(&earlier);
        assert_eq!(diff.vanished, vec!["b.gone".to_string()]);
        assert_eq!(diff.appeared, vec!["e.new".to_string()]);
        assert_eq!(
            diff.deltas,
            vec![
                ("a.count".into(), MetricDelta::Counter { from: 10, to: 15 }),
                ("c.gauge".into(), MetricDelta::Gauge { from: 1.0, to: -2.0 }),
                (
                    "d.hist".into(),
                    MetricDelta::Histogram {
                        count_from: 2,
                        count_to: 5,
                        sum_from: 20,
                        sum_to: 60,
                    }
                ),
            ]
        );
        // The vanished counter is the only monotonicity violation here.
        let violations = diff.monotonicity_violations();
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("b.gone"), "{violations:?}");
    }

    #[test]
    fn diff_flags_regressions_and_kind_changes() {
        let earlier = MetricsSnapshot {
            metrics: vec![
                ("a".into(), MetricValue::Counter(10)),
                ("b".into(), MetricValue::Counter(1)),
                (
                    "h".into(),
                    MetricValue::Histogram(HistogramSnapshot {
                        count: 9,
                        sum_us: 0,
                        max_us: 0,
                        buckets: vec![],
                    }),
                ),
            ],
        };
        let later = MetricsSnapshot {
            metrics: vec![
                ("a".into(), MetricValue::Counter(3)),
                ("b".into(), MetricValue::Gauge(1.0)),
                (
                    "h".into(),
                    MetricValue::Histogram(HistogramSnapshot {
                        count: 4,
                        sum_us: 0,
                        max_us: 0,
                        buckets: vec![],
                    }),
                ),
            ],
        };
        let violations = later.diff(&earlier).monotonicity_violations();
        assert_eq!(violations.len(), 3, "{violations:?}");
        assert!(violations.iter().any(|v| v.contains("counter a went backwards")));
        assert!(violations.iter().any(|v| v.contains("b changed kind")));
        assert!(violations.iter().any(|v| v.contains("histogram h lost samples")));
        // An identical pair has no violations and no movement.
        assert!(earlier.diff(&earlier).monotonicity_violations().is_empty());
    }

    #[test]
    fn rejects_unsorted_names_unknown_kinds_and_trailing_bytes() {
        let mut unsorted = sample();
        unsorted.metrics.swap(0, 1);
        assert!(MetricsSnapshot::from_bytes(&unsorted.to_bytes()).is_err());

        let mut bytes = sample().to_bytes();
        // The kind byte of the first metric sits after the header (6), the
        // metric count (4) and the length-prefixed name.
        let kind_at = 6 + 4 + 4 + "a.count".len();
        bytes[kind_at] = 9;
        assert!(MetricsSnapshot::from_bytes(&bytes).is_err());

        let mut trailing = sample().to_bytes();
        trailing.push(0);
        assert!(MetricsSnapshot::from_bytes(&trailing).is_err());
    }

    #[test]
    fn rejects_truncation_at_every_length() {
        let bytes = sample().to_bytes();
        for keep in 0..bytes.len() {
            assert!(MetricsSnapshot::from_bytes(&bytes[..keep]).is_err());
        }
    }

    #[test]
    fn with_prefix_preserves_order_and_round_trips() {
        let prefixed = sample().with_prefix("backend.local-0.");
        assert_eq!(prefixed.counter("backend.local-0.a.count"), Some(42));
        assert!(MetricsSnapshot::from_bytes(&prefixed.to_bytes()).is_ok());
    }

    #[test]
    fn rollup_sums_counters_and_merges_histograms() {
        let a = MetricsSnapshot {
            metrics: vec![
                ("c".into(), MetricValue::Counter(10)),
                ("g".into(), MetricValue::Gauge(1.5)),
                (
                    "h".into(),
                    MetricValue::Histogram(HistogramSnapshot {
                        count: 2,
                        sum_us: 30,
                        max_us: 20,
                        buckets: vec![(16, 1), (32, 1)],
                    }),
                ),
                ("only.a".into(), MetricValue::Counter(1)),
                ("kind.conflict".into(), MetricValue::Counter(1)),
            ],
        };
        let b = MetricsSnapshot {
            metrics: vec![
                ("c".into(), MetricValue::Counter(5)),
                ("g".into(), MetricValue::Gauge(0.5)),
                (
                    "h".into(),
                    MetricValue::Histogram(HistogramSnapshot {
                        count: 3,
                        sum_us: 200,
                        max_us: 90,
                        buckets: vec![(32, 2), (128, 1)],
                    }),
                ),
                ("kind.conflict".into(), MetricValue::Gauge(1.0)),
            ],
        };
        let rolled = MetricsSnapshot::rollup(&[a, b]);
        assert_eq!(rolled.counter("c"), Some(15));
        assert_eq!(rolled.gauge("g"), Some(2.0));
        let h = rolled.histogram("h").unwrap();
        assert_eq!(h.count, 5);
        assert_eq!(h.sum_us, 230);
        assert_eq!(h.max_us, 90);
        assert_eq!(h.buckets, vec![(16, 1), (32, 3), (128, 1)]);
        // Partial presence rolls up over the snapshots that carry it.
        assert_eq!(rolled.counter("only.a"), Some(1));
        // A kind conflict drops the name from the rollup entirely.
        assert_eq!(rolled.get("kind.conflict"), None);
        assert!(MetricsSnapshot::from_bytes(&rolled.to_bytes()).is_ok());
    }

    #[test]
    fn merge_fleet_prefixes_rolls_up_and_appends_own() {
        let backend = |n: u64| MetricsSnapshot {
            metrics: vec![("serve.requests".into(), MetricValue::Counter(n))],
        };
        let own = MetricsSnapshot {
            metrics: vec![("router.forwards".into(), MetricValue::Counter(7))],
        };
        let fleet =
            MetricsSnapshot::merge_fleet(&[("local-0".into(), backend(3)), ("local-1".into(), backend(4))], &own);
        assert_eq!(fleet.counter("backend.local-0.serve.requests"), Some(3));
        assert_eq!(fleet.counter("backend.local-1.serve.requests"), Some(4));
        assert_eq!(fleet.counter("fleet.serve.requests"), Some(7));
        assert_eq!(fleet.counter("router.forwards"), Some(7));
        // The result is a legal DSMS body: sorted unique names.
        let bytes = fleet.to_bytes();
        assert_eq!(MetricsSnapshot::from_bytes(&bytes).unwrap(), fleet);
    }
}
