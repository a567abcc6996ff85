//! # dsig-obs
//!
//! Std-only observability substrate for the digital-signature workspace:
//! atomic [`Counter`]s and [`Gauge`]s, fixed-bin latency [`Histogram`]s with
//! quantile extraction, and RAII [`Span`] timers — behind a cloneable
//! [`Registry`] whose [`MetricsSnapshot`] serializes through
//! `dsig_core::wire` like every other workspace format (magic `DSMS`).
//!
//! Design constraints, in order:
//!
//! 1. **Bit-identity neutrality.** Instrumentation must never influence
//!    signatures, reports or scheduling decisions. Every metric is a plain
//!    relaxed atomic side channel; nothing in this crate feeds back into the
//!    code it observes.
//! 2. **Near-zero hot-path cost.** Recording a counter is one relaxed
//!    `fetch_add`; a histogram sample is three. Handles are `Arc`s resolved
//!    once at construction time — the registry mutex is touched only on
//!    registration and snapshot, never per sample.
//! 3. **No dependencies.** `std` + `dsig_core::wire` only, like the rest of
//!    the workspace.
//!
//! # Example
//!
//! ```
//! use dsig_obs::{Registry, Span};
//!
//! let registry = Registry::new();
//! let requests = registry.counter("serve.requests");
//! let latency = registry.histogram("serve.latency_us");
//!
//! requests.inc();
//! {
//!     let _span = Span::enter(&latency); // records elapsed µs on drop
//! }
//!
//! let snapshot = registry.snapshot();
//! assert_eq!(snapshot.counter("serve.requests"), Some(1));
//! let bytes = snapshot.to_bytes();
//! let back = dsig_obs::MetricsSnapshot::from_bytes(&bytes).unwrap();
//! assert_eq!(back, snapshot);
//! ```

#![warn(missing_docs)]

pub mod events;
pub mod metrics;
pub mod registry;
mod ring;
pub mod snapshot;
pub mod trace;
pub mod window;

pub use events::{EventLevel, EventLog, EventRecord, EventSink, EVENT_LOG_MAGIC, EVENT_LOG_VERSION};
pub use metrics::{Counter, Gauge, Histogram, Span, HISTOGRAM_BUCKETS};
pub use registry::Registry;
pub use snapshot::{
    HistogramSnapshot, MetricDelta, MetricValue, MetricsSnapshot, SnapshotDiff, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
pub use trace::{
    ActiveSpan, SpanRecord, TraceContext, TraceLog, TraceTree, Tracer, TRACE_LOG_MAGIC, TRACE_LOG_VERSION,
};
pub use window::{HealthReport, HealthSample, HealthStatus, SloPolicy};
