//! The process-wide metric registry.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use dsig_core::recover;

use crate::events::EventSink;
use crate::metrics::{Counter, Gauge, Histogram};
use crate::snapshot::{MetricValue, MetricsSnapshot};
use crate::trace::Tracer;

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A cheaply cloneable handle to a set of named metrics.
///
/// Components resolve their metric handles (`Arc<Counter>` etc.) once at
/// construction time; the registry's lock is touched only on registration
/// and on [`Registry::snapshot`], never on the recording hot path. Clones
/// share the same underlying metrics, and [`Registry::global`] provides the
/// conventional process-wide instance every tier registers into by default.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<Mutex<BTreeMap<String, Metric>>>,
    tracer: Tracer,
    events: EventSink,
    kind_mismatches: Arc<AtomicU64>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry").field("metrics", &self.lock().len()).finish()
    }
}

impl Registry {
    /// Creates an empty, private registry (used by tests that need
    /// isolation from the process-wide one).
    pub fn new() -> Self {
        Registry::default()
    }

    /// The process-wide registry. Every tier's constructors default to
    /// registering here, so one scrape sees the whole process.
    pub fn global() -> Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new).clone()
    }

    /// The registry's span recorder. Clones share it, so every component
    /// registered into one registry records into one ring and a single
    /// trace scrape sees the whole process.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The registry's event recorder. Clones share it, so every component
    /// registered into one registry emits into one ring and a single
    /// event drain sees the whole process.
    pub fn events(&self) -> &EventSink {
        &self.events
    }

    fn lock(&self) -> MutexGuard<'_, BTreeMap<String, Metric>> {
        // Metric updates cannot panic, so poisoning can only come from a
        // panicking *caller* mid-registration; the map is still coherent.
        recover(self.inner.lock())
    }

    /// Returns the counter registered under `name`, creating it at zero if
    /// absent. If `name` is already registered as a different kind, a
    /// detached counter is returned (it keeps working but is invisible to
    /// snapshots) — metric names are namespaced per tier to keep that a
    /// programming error that cannot take a service down.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.lock();
        let metric = map
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())));
        match metric {
            Metric::Counter(c) => Arc::clone(c),
            _ => {
                self.kind_mismatches.fetch_add(1, Ordering::Relaxed);
                Arc::new(Counter::new())
            }
        }
    }

    /// Returns the gauge registered under `name`, creating it at `0.0` if
    /// absent; same kind-mismatch policy as [`Registry::counter`].
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.lock();
        let metric = map
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::new())));
        match metric {
            Metric::Gauge(g) => Arc::clone(g),
            _ => {
                self.kind_mismatches.fetch_add(1, Ordering::Relaxed);
                Arc::new(Gauge::new())
            }
        }
    }

    /// Returns the histogram registered under `name`, creating it empty if
    /// absent; same kind-mismatch policy as [`Registry::counter`].
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.lock();
        let metric = map
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new())));
        match metric {
            Metric::Histogram(h) => Arc::clone(h),
            _ => {
                self.kind_mismatches.fetch_add(1, Ordering::Relaxed);
                Arc::new(Histogram::new())
            }
        }
    }

    /// Captures every registered metric into a [`MetricsSnapshot`], sorted
    /// by name. Counters are monotonically consistent across successive
    /// snapshots of the same registry.
    ///
    /// Three synthetic health counters ride along so silent data loss is
    /// visible from any scrape: `obs.dropped_spans` and
    /// `obs.dropped_events` (ring overwrites of undrained records) and
    /// `obs.kind_mismatches` (detached handles returned for a name
    /// registered as a different kind). A real metric registered under one
    /// of those names wins.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let map = self.lock();
        let mut metrics: Vec<(String, MetricValue)> = map
            .iter()
            .map(|(name, metric)| {
                let value = match metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                };
                (name.clone(), value)
            })
            .collect();
        drop(map);
        for (name, value) in [
            ("obs.dropped_events", self.events.dropped()),
            ("obs.dropped_spans", self.tracer.dropped()),
            ("obs.kind_mismatches", self.kind_mismatches.load(Ordering::Relaxed)),
        ] {
            if let Err(at) = metrics.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
                metrics.insert(at, (name.to_owned(), MetricValue::Counter(value)));
            }
        }
        MetricsSnapshot { metrics }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_returns_shared_handles() {
        let registry = Registry::new();
        let a = registry.counter("x");
        let b = registry.counter("x");
        a.inc();
        b.inc();
        assert_eq!(registry.snapshot().counter("x"), Some(2));
    }

    #[test]
    fn clones_share_metrics() {
        let registry = Registry::new();
        let clone = registry.clone();
        clone.gauge("g").set(2.5);
        assert_eq!(registry.snapshot().gauge("g"), Some(2.5));
    }

    #[test]
    fn kind_mismatch_returns_detached_handle_and_is_counted() {
        let registry = Registry::new();
        registry.counter("m").inc();
        let detached = registry.gauge("m");
        detached.set(9.0);
        // The registered counter is untouched and still a counter, but the
        // misuse is visible in the snapshot.
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter("m"), Some(1));
        assert_eq!(snapshot.counter("obs.kind_mismatches"), Some(1));
        registry.histogram("m");
        registry.counter("g");
        assert_eq!(registry.snapshot().counter("obs.kind_mismatches"), Some(2));
    }

    #[test]
    fn snapshot_is_sorted_and_monotonic() {
        let registry = Registry::new();
        let c = registry.counter("b.second");
        registry.counter("a.first");
        registry.histogram("c.third").record_us(10);
        c.add(5);
        let first = registry.snapshot();
        let names: Vec<_> = first.metrics.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            [
                "a.first",
                "b.second",
                "c.third",
                "obs.dropped_events",
                "obs.dropped_spans",
                "obs.kind_mismatches"
            ]
        );
        c.add(5);
        let second = registry.snapshot();
        assert!(second.counter("b.second").unwrap() > first.counter("b.second").unwrap());
    }

    #[test]
    fn snapshot_surfaces_ring_drops_and_real_metrics_win() {
        let registry = Registry::new();
        assert_eq!(registry.snapshot().counter("obs.dropped_spans"), Some(0));
        assert_eq!(registry.snapshot().counter("obs.dropped_events"), Some(0));
        for i in 0..(crate::EventSink::DEFAULT_CAPACITY as u64 + 3) {
            registry
                .events()
                .emit(crate::EventLevel::Info, "test", "e", i.to_string(), &[]);
        }
        assert_eq!(registry.snapshot().counter("obs.dropped_events"), Some(3));
        // A real metric registered under a synthetic name is not shadowed.
        registry.counter("obs.dropped_spans").add(41);
        assert_eq!(registry.snapshot().counter("obs.dropped_spans"), Some(41));
        // The snapshot still decodes: names stayed strictly ascending.
        let bytes = registry.snapshot().to_bytes();
        assert!(MetricsSnapshot::from_bytes(&bytes).is_ok());
    }

    #[test]
    fn clones_share_the_event_sink() {
        let registry = Registry::new();
        registry
            .clone()
            .events()
            .emit(crate::EventLevel::Warn, "test", "shared", "x", &[]);
        assert_eq!(registry.events().drain().len(), 1);
    }

    #[test]
    fn clones_share_the_tracer() {
        let registry = Registry::new();
        let ctx = registry.tracer().start_trace();
        drop(registry.clone().tracer().span("s", "test", ctx));
        assert_eq!(registry.tracer().drain().len(), 1);
    }

    #[test]
    fn global_registry_is_one_instance() {
        let a = Registry::global();
        let name = "obs.test.global_registry_is_one_instance";
        a.counter(name).inc();
        assert!(Registry::global().snapshot().counter(name).unwrap() >= 1);
    }
}
