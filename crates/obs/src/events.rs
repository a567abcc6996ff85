//! Structured operational events on top of the tracing substrate.
//!
//! Metrics say *how much* and traces say *where the time went*; events say
//! *what happened*: a backend was marked backed off, a pipelined client
//! reconnected and resubmitted, a connection was poisoned. An [`EventSink`]
//! keeps its [`EventRecord`]s in the same bounded lock-per-slot ring as the
//! span ring of [`crate::Tracer`] — emitting an event is one relaxed
//! `fetch_add` plus one uncontended per-slot mutex, and the ring overwrites
//! the oldest record instead of blocking when full (counting the overwrite
//! in [`EventSink::dropped`], surfaced as the `obs.dropped_events` counter).
//!
//! Each record captures the ambient [`crate::TraceContext`]'s trace id at
//! emission time, so operational history correlates with the span log: the
//! reconnect event and the spans of the request that triggered it share a
//! trace id. The [`EventLog`] `DSEL` codec puts drained events on the wire
//! for the `DSEX`/`DSED` scrape pair.

use std::sync::Arc;

use dsig_core::{wire, Result};

use crate::ring::Ring;
use crate::trace;

/// Magic bytes of a serialized event log.
pub const EVENT_LOG_MAGIC: [u8; 4] = *b"DSEL";
/// Current event-log format version.
pub const EVENT_LOG_VERSION: u16 = 1;

/// Severity of an operational event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventLevel {
    /// An expected operational transition (e.g. a backend recovered).
    Info,
    /// A degraded-but-handled condition (e.g. reconnect and resubmit).
    Warn,
    /// A fault that lost work or state (e.g. a poisoned connection).
    Error,
}

impl EventLevel {
    /// Lower-case display name (`info`, `warn`, `error`).
    pub fn as_str(self) -> &'static str {
        match self {
            EventLevel::Info => "info",
            EventLevel::Warn => "warn",
            EventLevel::Error => "error",
        }
    }
}

/// One recorded operational event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventRecord {
    /// Severity of the event.
    pub level: EventLevel,
    /// Which tier emitted it, e.g. `router`.
    pub tier: String,
    /// Stable machine-readable name, e.g. `backend.backed_off`.
    pub name: String,
    /// Human-readable description of what happened.
    pub message: String,
    /// Free-form `key=value` context (backend label, attempt count, …).
    pub fields: Vec<(String, String)>,
    /// Emission time, in µs since the recording process's epoch.
    pub at_us: u64,
    /// Trace id of the ambient [`crate::TraceContext`] at emission time
    /// (0 when no trace was active).
    pub trace_id: u64,
}

/// A cheaply cloneable event recorder: a bounded ring of [`EventRecord`]s.
///
/// Clones share the ring. When the ring is full the oldest event is
/// overwritten and counted in [`EventSink::dropped`] — events are a
/// diagnostic side channel and must never block or grow without bound.
#[derive(Clone)]
pub struct EventSink {
    ring: Arc<Ring<EventRecord>>,
}

impl std::fmt::Debug for EventSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventSink")
            .field("capacity", &self.ring.capacity())
            .finish()
    }
}

impl Default for EventSink {
    fn default() -> Self {
        EventSink::with_capacity(EventSink::DEFAULT_CAPACITY)
    }
}

impl EventSink {
    /// Default ring capacity, in events.
    pub const DEFAULT_CAPACITY: usize = 1024;

    /// Creates a sink holding at most `capacity.max(1)` events.
    pub fn with_capacity(capacity: usize) -> Self {
        EventSink {
            ring: Arc::new(Ring::new(capacity)),
        }
    }

    /// Number of events overwritten before being drained. Surfaced in
    /// snapshots as the `obs.dropped_events` counter.
    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }

    /// Records one event, stamping the emission time and the ambient
    /// [`crate::TraceContext`]'s trace id.
    pub fn emit(&self, level: EventLevel, tier: &str, name: &str, message: impl Into<String>, fields: &[(&str, &str)]) {
        let record = EventRecord {
            level,
            tier: tier.to_owned(),
            name: name.to_owned(),
            message: message.into(),
            fields: fields.iter().map(|&(k, v)| (k.to_owned(), v.to_owned())).collect(),
            at_us: trace::now_us(),
            trace_id: trace::current_context().trace_id,
        };
        self.ring.push(record);
    }

    /// Takes every buffered event out of the ring, ordered by
    /// `(at_us, trace_id, name)`. Events emitted concurrently with the
    /// drain land in the next one — a drain is consuming, not idempotent.
    pub fn drain(&self) -> Vec<EventRecord> {
        let mut events = self.ring.take_all();
        events.sort_by(|a, b| (a.at_us, a.trace_id, &a.name).cmp(&(b.at_us, b.trace_id, &b.name)));
        events
    }
}

dsig_core::wire_tags!(EventLevel: u8 { Info = 0, Warn = 1, Error = 2 });
dsig_core::wire_fields!(EventRecord {
    level,
    tier,
    name,
    message,
    at_us,
    trace_id,
    fields
});
dsig_core::wire_fields!(EventLog { events }, file: EVENT_LOG_MAGIC, Some(EVENT_LOG_VERSION), "event log");

/// A set of events in transit: the `DSEL` wire format serve and router
/// answer event scrapes with.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EventLog {
    /// The drained events, in drain order.
    pub events: Vec<EventRecord>,
}

impl EventLog {
    /// Serializes the log (magic `DSEL`, version 1).
    pub fn to_bytes(&self) -> Vec<u8> {
        wire::to_bytes(self)
    }

    /// Decodes a log serialized by [`EventLog::to_bytes`]. Never panics on
    /// malformed input.
    ///
    /// # Errors
    /// Returns [`dsig_core::DsigError::Truncated`] /
    /// [`dsig_core::DsigError::Corrupt`] on framing errors or an unknown
    /// level tag.
    pub fn from_bytes(bytes: &[u8]) -> Result<EventLog> {
        wire::from_bytes(bytes)
    }

    /// Renders the log as human-readable text, one event per line (the
    /// format CI uploads as the `EVENTS_*.txt` artifact).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for event in &self.events {
            out.push_str(&format!(
                "{:>12}us {:<5} [{}] {} {}",
                event.at_us,
                event.level.as_str(),
                event.tier,
                event.name,
                event.message
            ));
            for (key, value) in &event.fields {
                out.push_str(&format!(" {key}={value}"));
            }
            if event.trace_id != 0 {
                out.push_str(&format!(" trace={:016x}", event.trace_id));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{with_context, TraceContext};

    fn event(at: u64, name: &str) -> EventRecord {
        EventRecord {
            level: EventLevel::Warn,
            tier: "test".into(),
            name: name.into(),
            message: "m".into(),
            fields: vec![],
            at_us: at,
            trace_id: 0,
        }
    }

    #[test]
    fn emit_captures_ambient_trace_and_fields() {
        let sink = EventSink::default();
        let ctx = TraceContext {
            trace_id: 0xABCD,
            parent_span: 7,
            sampled: true,
        };
        {
            let _guard = with_context(ctx);
            sink.emit(
                EventLevel::Warn,
                "router",
                "backend.backed_off",
                "b down",
                &[("backend", "local-1")],
            );
        }
        sink.emit(EventLevel::Info, "router", "backend.recovered", "b up", &[]);
        let events = sink.drain();
        assert_eq!(events.len(), 2);
        let down = events.iter().find(|e| e.name == "backend.backed_off").unwrap();
        assert_eq!(down.trace_id, 0xABCD);
        assert_eq!(down.fields, vec![("backend".to_string(), "local-1".to_string())]);
        let up = events.iter().find(|e| e.name == "backend.recovered").unwrap();
        assert_eq!(up.trace_id, 0);
        // Drain takes: a second drain is empty.
        assert!(sink.drain().is_empty());
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let sink = EventSink::with_capacity(4);
        for i in 0..10 {
            sink.emit(EventLevel::Info, "test", "e", format!("n{i}"), &[]);
        }
        assert_eq!(sink.dropped(), 6);
        let events = sink.drain();
        assert_eq!(events.len(), 4);
        for i in 6..10 {
            assert!(
                events.iter().any(|e| e.message == format!("n{i}")),
                "event {i} must survive"
            );
        }
        // Drops accumulate; drains do not reset the counter.
        sink.emit(EventLevel::Info, "test", "e", "again", &[]);
        assert_eq!(sink.dropped(), 6);
    }

    #[test]
    fn clones_share_the_ring() {
        let sink = EventSink::default();
        sink.clone().emit(EventLevel::Error, "test", "from-clone", "x", &[]);
        assert_eq!(sink.drain().len(), 1);
    }

    #[test]
    fn log_round_trips_and_rejects_abuse() {
        let mut rich = event(10, "reconnect");
        rich.level = EventLevel::Error;
        rich.trace_id = 99;
        rich.fields = vec![
            ("addr".into(), "127.0.0.1:1".into()),
            ("resubmitted".into(), "3".into()),
        ];
        let log = EventLog {
            events: vec![event(5, "backoff"), rich],
        };
        let bytes = log.to_bytes();
        let back = EventLog::from_bytes(&bytes).unwrap();
        assert_eq!(back, log);
        assert_eq!(back.to_bytes(), bytes);
        // The empty log is legal.
        assert!(EventLog::from_bytes(&EventLog::default().to_bytes())
            .unwrap()
            .events
            .is_empty());
        // Truncation at every length is a clean error.
        for keep in 0..bytes.len() {
            assert!(EventLog::from_bytes(&bytes[..keep]).is_err(), "prefix of {keep} bytes");
        }
        // Trailing bytes are corruption.
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(EventLog::from_bytes(&trailing).is_err());
        // An unknown level tag is corruption: the tag of the first event
        // sits right after the header (6) and the count (4).
        let mut bad_level = bytes.clone();
        bad_level[10] = 9;
        assert!(EventLog::from_bytes(&bad_level).is_err());
    }

    #[test]
    fn render_is_one_line_per_event() {
        let mut rich = event(10, "mux.reconnect");
        rich.trace_id = 0xFF;
        rich.fields = vec![("resubmitted".into(), "2".into())];
        let log = EventLog {
            events: vec![event(5, "plain"), rich],
        };
        let text = log.render();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("mux.reconnect"), "{text}");
        assert!(text.contains("resubmitted=2"), "{text}");
        assert!(text.contains("trace=00000000000000ff"), "{text}");
    }
}
