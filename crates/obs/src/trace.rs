//! Causal, per-request tracing on top of the metrics substrate.
//!
//! The aggregate metrics of [`crate::Registry`] say *how much* time a tier
//! spends per phase; traces say *which request* spent it *where*. A
//! [`Tracer`] hands out sampled [`TraceContext`]s, records parent/child
//! [`SpanRecord`]s into a bounded ring of slots, and exports them as a
//! versioned binary [`TraceLog`] (magic `DSTL`) that [`TraceTree::render`]
//! prints as an indented span tree with per-span self/total time.
//!
//! The design constraints mirror the metric primitives:
//!
//! 1. **Bit-identity neutrality.** Spans are a side channel; nothing here
//!    feeds back into scoring, routing or scheduling. An unsampled span is a
//!    no-op that allocates nothing, so untraced traffic stays on the old hot
//!    path.
//! 2. **Lock-free-ish recording.** Finishing a span claims a slot with one
//!    relaxed atomic `fetch_add` and takes one uncontended per-slot mutex —
//!    recorders never serialize on a shared lock, and the ring overwrites
//!    the oldest span instead of blocking when full.
//! 3. **Std-only.** Ids come from a splitmix64-scrambled process counter,
//!    timestamps from one process-wide monotonic epoch.
//!
//! Cross-tier propagation is *ambient*: [`with_context`] pins a
//! [`TraceContext`] to the current thread and the wire encoders pick it up
//! via [`current_context`], so deep call chains (engine → router → serve)
//! need no extra parameters.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use dsig_core::wire::{self, ByteReader, Wire};
use dsig_core::Result;

use crate::ring::Ring;

/// Magic bytes of a serialized trace log.
pub const TRACE_LOG_MAGIC: [u8; 4] = *b"DSTL";
/// Current trace-log format version.
pub const TRACE_LOG_VERSION: u16 = 1;

/// The compact causal context propagated across tiers: which trace a
/// request belongs to, which span caused it, and whether spans should be
/// recorded at all.
///
/// [`TraceContext::NONE`] (all zeroes) is the null context old-version
/// frames decode to; it is never sampled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Id shared by every span of one trace; 0 means "no trace".
    pub trace_id: u64,
    /// Span id of the causing span (0 for a trace root).
    pub parent_span: u64,
    /// Whether spans under this context are recorded.
    pub sampled: bool,
}

impl TraceContext {
    /// The null context: no trace, never sampled.
    pub const NONE: TraceContext = TraceContext {
        trace_id: 0,
        parent_span: 0,
        sampled: false,
    };

    /// Whether spans opened under this context are recorded.
    pub fn is_sampled(&self) -> bool {
        self.sampled && self.trace_id != 0
    }
}

// The fixed 17-byte wire form every work-request frame carries.
dsig_core::wire_fields!(TraceContext {
    trace_id,
    parent_span,
    sampled
});

thread_local! {
    static AMBIENT: Cell<TraceContext> = const { Cell::new(TraceContext::NONE) };
}

/// The context pinned to the current thread ([`TraceContext::NONE`] when
/// nothing is pinned). Wire encoders call this to stamp outgoing frames.
pub fn current_context() -> TraceContext {
    AMBIENT.with(Cell::get)
}

/// Pins `ctx` to the current thread until the returned guard drops, when
/// the previously pinned context is restored. Guards nest.
#[must_use = "the context is only pinned while the guard is alive"]
pub fn with_context(ctx: TraceContext) -> ContextGuard {
    let previous = AMBIENT.with(|slot| slot.replace(ctx));
    ContextGuard {
        previous,
        _not_send: std::marker::PhantomData,
    }
}

/// Restores the previously pinned [`TraceContext`] on drop (see
/// [`with_context`]).
#[derive(Debug)]
pub struct ContextGuard {
    previous: TraceContext,
    /// The guard manipulates a thread-local and must drop on the thread
    /// that created it.
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        AMBIENT.with(|slot| slot.set(self.previous));
    }
}

/// Process-wide monotonic epoch all span timestamps are relative to.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds since the process epoch (shared with the event log so
/// span and event timestamps are directly comparable).
pub(crate) fn now_us() -> u64 {
    u64::try_from(epoch().elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// splitmix64: a cheap, well-mixed scrambler for id allocation.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Allocates a process-unique nonzero id. Seeding the counter with the
/// process id keeps ids from different processes of one fleet distinct,
/// so stitched multi-process traces do not collide.
fn next_id() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(1);
    loop {
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let id = splitmix64(n ^ (u64::from(std::process::id()) << 32));
        if id != 0 {
            return id;
        }
    }
}

/// One finished span: a named, tier-tagged interval of one trace with
/// key=value annotations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Trace this span belongs to (never 0).
    pub trace_id: u64,
    /// This span's id (never 0).
    pub span_id: u64,
    /// Id of the parent span (0 for a trace root).
    pub parent_span: u64,
    /// What the span measures, e.g. `router.forward`.
    pub name: String,
    /// Which tier recorded it, e.g. `router`.
    pub tier: String,
    /// Start, in µs since the recording process's epoch.
    pub start_us: u64,
    /// End, in µs since the recording process's epoch (`>= start_us`).
    pub end_us: u64,
    /// Free-form `key=value` annotations (backend id, chunk index, …).
    pub annotations: Vec<(String, String)>,
}

impl SpanRecord {
    /// The span's duration in µs.
    pub fn total_us(&self) -> u64 {
        self.end_us - self.start_us
    }
}

/// A cheaply cloneable span recorder: a bounded ring of finished spans.
///
/// Clones share the ring. When the ring is full the oldest span is
/// overwritten — tracing is a diagnostic side channel and must never
/// block or grow without bound.
#[derive(Clone)]
pub struct Tracer {
    ring: Arc<Ring<SpanRecord>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("capacity", &self.ring.capacity())
            .finish()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::with_capacity(Tracer::DEFAULT_CAPACITY)
    }
}

impl Tracer {
    /// Default ring capacity, in spans.
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// Creates a tracer holding at most `capacity.max(1)` spans.
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            ring: Arc::new(Ring::new(capacity)),
        }
    }

    /// Number of spans overwritten before being drained. Surfaced in
    /// snapshots as the `obs.dropped_spans` counter.
    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }

    /// Starts a new sampled trace, returning the root context to open the
    /// first span under.
    pub fn start_trace(&self) -> TraceContext {
        TraceContext {
            trace_id: next_id(),
            parent_span: 0,
            sampled: true,
        }
    }

    /// Opens a span named `name` on tier `tier` under `parent`. If the
    /// parent context is unsampled, the returned span is a no-op: nothing
    /// is allocated and nothing is recorded on drop.
    pub fn span(&self, name: &str, tier: &str, parent: TraceContext) -> ActiveSpan {
        if !parent.is_sampled() {
            return ActiveSpan { state: None };
        }
        ActiveSpan {
            state: Some(ActiveSpanState {
                tracer: self.clone(),
                record: SpanRecord {
                    trace_id: parent.trace_id,
                    span_id: next_id(),
                    parent_span: parent.parent_span,
                    name: name.to_owned(),
                    tier: tier.to_owned(),
                    start_us: now_us(),
                    end_us: 0,
                    annotations: Vec::new(),
                },
            }),
        }
    }

    fn record(&self, span: SpanRecord) {
        self.ring.push(span);
    }

    /// Takes every buffered span out of the ring, ordered by
    /// `(trace_id, start_us, span_id)`. Spans recorded concurrently with
    /// the drain land in the next one.
    pub fn drain(&self) -> Vec<SpanRecord> {
        let mut spans = self.ring.take_all();
        spans.sort_by_key(|a| (a.trace_id, a.start_us, a.span_id));
        spans
    }
}

struct ActiveSpanState {
    tracer: Tracer,
    record: SpanRecord,
}

/// An open span: records itself into its [`Tracer`]'s ring on drop.
/// Unsampled spans carry no state and do nothing.
#[must_use = "a span measures until it is dropped"]
pub struct ActiveSpan {
    state: Option<ActiveSpanState>,
}

impl std::fmt::Debug for ActiveSpan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActiveSpan")
            .field("sampled", &self.state.is_some())
            .finish()
    }
}

impl ActiveSpan {
    /// The context that makes further spans children of this one
    /// ([`TraceContext::NONE`] for a no-op span).
    pub fn context(&self) -> TraceContext {
        match &self.state {
            Some(state) => TraceContext {
                trace_id: state.record.trace_id,
                parent_span: state.record.span_id,
                sampled: true,
            },
            None => TraceContext::NONE,
        }
    }

    /// Attaches a `key=value` annotation (no-op on an unsampled span; the
    /// value is not even formatted then).
    pub fn annotate(&mut self, key: &str, value: impl std::fmt::Display) {
        if let Some(state) = &mut self.state {
            state.record.annotations.push((key.to_owned(), value.to_string()));
        }
    }
}

impl Drop for ActiveSpan {
    fn drop(&mut self) {
        if let Some(mut state) = self.state.take() {
            state.record.end_us = now_us().max(state.record.start_us);
            state.tracer.record(state.record);
        }
    }
}

/// A set of spans in transit: the `DSTL` wire format serve and router
/// answer trace scrapes with.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceLog {
    /// The exported spans (any order; [`TraceTree::build`] regroups them).
    pub spans: Vec<SpanRecord>,
}

impl TraceLog {
    /// Serializes the log (magic `DSTL`, version 1).
    pub fn to_bytes(&self) -> Vec<u8> {
        wire::to_bytes(self)
    }

    /// Decodes a log serialized by [`TraceLog::to_bytes`]. Never panics on
    /// malformed input.
    ///
    /// # Errors
    /// Returns [`dsig_core::DsigError::Truncated`] /
    /// [`dsig_core::DsigError::Corrupt`] on framing errors, zero trace or
    /// span ids, or a span ending before it starts.
    pub fn from_bytes(bytes: &[u8]) -> Result<TraceLog> {
        wire::from_bytes(bytes)
    }
}

dsig_core::wire_fields!(TraceLog { spans }, file: TRACE_LOG_MAGIC, Some(TRACE_LOG_VERSION), "trace log");

/// Decoded spans are checked: both ids are nonzero and a span never ends
/// before it starts.
impl Wire for SpanRecord {
    const MIN_BYTES: usize = 3 * 8 + 2 * 4 + 2 * 8 + 4;

    fn put(&self, out: &mut Vec<u8>) {
        (self.trace_id, self.span_id, self.parent_span).put(out);
        self.name.put(out);
        self.tier.put(out);
        (self.start_us, self.end_us).put(out);
        self.annotations.put(out);
    }

    fn get(r: &mut ByteReader<'_>) -> Result<Self> {
        let (trace_id, span_id, parent_span) = Wire::get(r)?;
        if trace_id == 0 || span_id == 0 {
            return Err(r.corrupt(format!("zero id in span (trace {trace_id}, span {span_id})")));
        }
        let (name, tier, start_us, end_us): (String, String, u64, u64) = Wire::get(r)?;
        if end_us < start_us {
            return Err(r.corrupt(format!(
                "span {name:?} ends at {end_us}µs before starting at {start_us}µs"
            )));
        }
        Ok(SpanRecord {
            trace_id,
            span_id,
            parent_span,
            name,
            tier,
            start_us,
            end_us,
            annotations: Wire::get(r)?,
        })
    }
}

/// One trace's spans arranged as a parent/child tree, with a text
/// renderer for human consumption.
#[derive(Debug, Clone)]
pub struct TraceTree {
    /// Trace id shared by every span in the tree.
    pub trace_id: u64,
    spans: Vec<SpanRecord>,
    /// `children[i]` = indices into `spans` of span `i`'s children,
    /// ordered by start time.
    children: Vec<Vec<usize>>,
    /// Indices of spans with `parent_span == 0`.
    roots: Vec<usize>,
    /// Indices of spans whose parent id resolves to no span in this trace.
    orphans: Vec<usize>,
}

impl TraceTree {
    /// Groups `spans` by trace id and arranges each group into a tree.
    /// Trees come back ordered by trace id; spans within a tree keep their
    /// causal (parent before child, siblings by start time) order in
    /// [`TraceTree::render`].
    pub fn build(spans: &[SpanRecord]) -> Vec<TraceTree> {
        let mut by_trace: std::collections::BTreeMap<u64, Vec<SpanRecord>> = std::collections::BTreeMap::new();
        for span in spans {
            if span.trace_id != 0 {
                by_trace.entry(span.trace_id).or_default().push(span.clone());
            }
        }
        by_trace
            .into_iter()
            .map(|(trace_id, mut spans)| {
                spans.sort_by_key(|a| (a.start_us, a.span_id));
                let index_of: std::collections::HashMap<u64, usize> =
                    spans.iter().enumerate().map(|(i, s)| (s.span_id, i)).collect();
                let mut children = vec![Vec::new(); spans.len()];
                let mut roots = Vec::new();
                let mut orphans = Vec::new();
                for (i, span) in spans.iter().enumerate() {
                    if span.parent_span == 0 {
                        roots.push(i);
                    } else {
                        match index_of.get(&span.parent_span) {
                            // A span can claim itself as parent only through
                            // corruption; treat that as an orphan too.
                            Some(&p) if p != i => children[p].push(i),
                            _ => orphans.push(i),
                        }
                    }
                }
                TraceTree {
                    trace_id,
                    spans,
                    children,
                    roots,
                    orphans,
                }
            })
            .collect()
    }

    /// Every span of the trace, ordered by start time.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Number of root spans (`parent_span == 0`).
    pub fn root_count(&self) -> usize {
        self.roots.len()
    }

    /// Number of spans whose parent is missing from this trace.
    pub fn orphan_count(&self) -> usize {
        self.orphans.len()
    }

    /// Self time of span `i`: its total minus the totals of its children
    /// (saturating, since child clocks may come from another process).
    fn self_us(&self, i: usize) -> u64 {
        let nested: u64 = self.children[i]
            .iter()
            .map(|&c| self.spans[c].total_us())
            .fold(0, u64::saturating_add);
        self.spans[i].total_us().saturating_sub(nested)
    }

    fn render_span(&self, i: usize, depth: usize, out: &mut String) {
        let span = &self.spans[i];
        out.push_str(&"  ".repeat(depth + 1));
        out.push_str(&format!(
            "{} [{}] total={}us self={}us",
            span.name,
            span.tier,
            span.total_us(),
            self.self_us(i)
        ));
        for (key, value) in &span.annotations {
            out.push_str(&format!(" {key}={value}"));
        }
        out.push('\n');
        for &child in &self.children[i] {
            self.render_span(child, depth + 1, out);
        }
    }

    /// Renders the trace as an indented span tree, one span per line with
    /// total and self µs plus annotations. Orphaned spans (parent missing
    /// from the scrape, e.g. evicted from the ring) are listed at the end.
    pub fn render(&self) -> String {
        let mut out = format!("trace {:016x} ({} spans)\n", self.trace_id, self.spans.len());
        for &root in &self.roots {
            self.render_span(root, 0, &mut out);
        }
        if !self.orphans.is_empty() {
            out.push_str(&format!("  orphaned ({} spans, parent missing):\n", self.orphans.len()));
            for &orphan in &self.orphans {
                self.render_span(orphan, 1, &mut out);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace: u64, id: u64, parent: u64, name: &str, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            trace_id: trace,
            span_id: id,
            parent_span: parent,
            name: name.into(),
            tier: "test".into(),
            start_us: start,
            end_us: end,
            annotations: vec![],
        }
    }

    #[test]
    fn ids_are_nonzero_and_distinct() {
        let a = next_id();
        let b = next_id();
        assert_ne!(a, 0);
        assert_ne!(b, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn ambient_context_nests_and_restores() {
        assert_eq!(current_context(), TraceContext::NONE);
        let outer = TraceContext {
            trace_id: 1,
            parent_span: 2,
            sampled: true,
        };
        let inner = TraceContext {
            trace_id: 1,
            parent_span: 3,
            sampled: true,
        };
        {
            let _outer = with_context(outer);
            assert_eq!(current_context(), outer);
            {
                let _inner = with_context(inner);
                assert_eq!(current_context(), inner);
            }
            assert_eq!(current_context(), outer);
        }
        assert_eq!(current_context(), TraceContext::NONE);
    }

    #[test]
    fn unsampled_spans_are_no_ops() {
        let tracer = Tracer::default();
        {
            let mut span = tracer.span("noop", "test", TraceContext::NONE);
            span.annotate("k", "v");
            assert_eq!(span.context(), TraceContext::NONE);
        }
        // A sampled flag on a zero trace id is still not a sampled context.
        let zero_trace = TraceContext {
            trace_id: 0,
            parent_span: 0,
            sampled: true,
        };
        drop(tracer.span("noop", "test", zero_trace));
        assert!(tracer.drain().is_empty());
    }

    #[test]
    fn spans_record_parentage_and_annotations() {
        let tracer = Tracer::default();
        let root_ctx = tracer.start_trace();
        let child_ctx;
        {
            let mut root = tracer.span("root", "engine", root_ctx);
            root.annotate("chunk", 7);
            child_ctx = root.context();
            drop(tracer.span("child", "router", child_ctx));
        }
        let spans = tracer.drain();
        assert_eq!(spans.len(), 2);
        let root = spans.iter().find(|s| s.name == "root").unwrap();
        let child = spans.iter().find(|s| s.name == "child").unwrap();
        assert_eq!(root.parent_span, 0);
        assert_eq!(root.annotations, vec![("chunk".to_string(), "7".to_string())]);
        assert_eq!(child.trace_id, root.trace_id);
        assert_eq!(child.parent_span, root.span_id);
        assert!(root.end_us >= root.start_us);
        // Drain takes: a second drain is empty.
        assert!(tracer.drain().is_empty());
    }

    #[test]
    fn ring_overwrites_oldest_when_full() {
        let tracer = Tracer::with_capacity(4);
        assert_eq!(tracer.dropped(), 0);
        let ctx = tracer.start_trace();
        for i in 0..10 {
            let mut span = tracer.span("s", "test", ctx);
            span.annotate("i", i);
        }
        assert_eq!(tracer.dropped(), 6, "each overwrite of an undrained span counts");
        let spans = tracer.drain();
        assert_eq!(spans.len(), 4);
        let kept: Vec<&str> = spans.iter().map(|s| s.annotations[0].1.as_str()).collect();
        for i in 6..10 {
            assert!(
                kept.contains(&i.to_string().as_str()),
                "span {i} must survive, kept {kept:?}"
            );
        }
    }

    #[test]
    fn clones_share_the_ring() {
        let tracer = Tracer::default();
        let clone = tracer.clone();
        let ctx = tracer.start_trace();
        drop(clone.span("from-clone", "test", ctx));
        assert_eq!(tracer.drain().len(), 1);
    }

    #[test]
    fn trace_context_wire_form_round_trips() {
        assert_eq!(TraceContext::MIN_BYTES, 17);
        for ctx in [
            TraceContext::NONE,
            TraceContext {
                trace_id: 0xDEAD,
                parent_span: 0xBEEF,
                sampled: true,
            },
        ] {
            let mut out = Vec::new();
            ctx.put(&mut out);
            assert_eq!(out.len(), TraceContext::MIN_BYTES);
            let mut r = ByteReader::new(&out, "test");
            assert_eq!(TraceContext::get(&mut r).unwrap(), ctx);
            r.finish().unwrap();
        }
        // A flag beyond 1 is corruption, not a bool cast.
        let mut bad = Vec::new();
        TraceContext::NONE.put(&mut bad);
        bad[16] = 7;
        let mut r = ByteReader::new(&bad, "test");
        assert!(matches!(
            TraceContext::get(&mut r),
            Err(dsig_core::DsigError::Corrupt { .. })
        ));
        // Truncation is a clean error.
        let mut r = ByteReader::new(&bad[..10], "test");
        assert!(TraceContext::get(&mut r).is_err());
    }

    #[test]
    fn trace_log_round_trips_and_rejects_abuse() {
        let mut with_annotations = span(5, 2, 1, "child", 10, 30);
        with_annotations.annotations = vec![("backend".into(), "local-1".into()), ("k".into(), "v".into())];
        let log = TraceLog {
            spans: vec![span(5, 1, 0, "root", 0, 50), with_annotations],
        };
        let bytes = log.to_bytes();
        let back = TraceLog::from_bytes(&bytes).unwrap();
        assert_eq!(back, log);
        assert_eq!(back.to_bytes(), bytes);
        // The empty log is legal.
        assert!(TraceLog::from_bytes(&TraceLog::default().to_bytes())
            .unwrap()
            .spans
            .is_empty());
        // Truncation at every length is a clean error.
        for keep in 0..bytes.len() {
            assert!(TraceLog::from_bytes(&bytes[..keep]).is_err(), "prefix of {keep} bytes");
        }
        // Trailing bytes are corruption.
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(TraceLog::from_bytes(&trailing).is_err());
        // Zero ids and inverted timestamps are corruption.
        let zero_id = TraceLog {
            spans: vec![span(5, 0, 0, "bad", 0, 1)],
        };
        assert!(TraceLog::from_bytes(&zero_id.to_bytes()).is_err());
        let zero_trace = TraceLog {
            spans: vec![span(0, 1, 0, "bad", 0, 1)],
        };
        assert!(TraceLog::from_bytes(&zero_trace.to_bytes()).is_err());
        let inverted = TraceLog {
            spans: vec![span(5, 1, 0, "bad", 10, 3)],
        };
        assert!(TraceLog::from_bytes(&inverted.to_bytes()).is_err());
    }

    #[test]
    fn tree_builds_parentage_and_reports_orphans() {
        let spans = vec![
            span(1, 10, 0, "root", 0, 100),
            span(1, 11, 10, "a", 5, 40),
            span(1, 12, 10, "b", 45, 90),
            span(1, 13, 99, "lost", 50, 60), // parent 99 was evicted
            span(2, 20, 0, "other-root", 0, 10),
        ];
        let trees = TraceTree::build(&spans);
        assert_eq!(trees.len(), 2);
        let first = &trees[0];
        assert_eq!(first.trace_id, 1);
        assert_eq!(first.root_count(), 1);
        assert_eq!(first.orphan_count(), 1);
        assert_eq!(first.spans().len(), 4);
        assert_eq!(trees[1].trace_id, 2);
        assert_eq!(trees[1].orphan_count(), 0);
    }

    #[test]
    fn render_indents_children_and_reports_self_time() {
        let mut annotated = span(1, 11, 10, "router.forward", 10, 60);
        annotated.annotations = vec![("backend".into(), "local-0".into())];
        let spans = vec![
            span(1, 10, 0, "engine.chunk", 0, 100),
            annotated,
            span(1, 12, 11, "serve.dispatch", 20, 40),
        ];
        let trees = TraceTree::build(&spans);
        assert_eq!(trees.len(), 1);
        let text = trees[0].render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("trace "), "{text}");
        assert!(lines[1].starts_with("  engine.chunk"), "{text}");
        assert!(lines[1].contains("total=100us self=50us"), "{text}");
        assert!(lines[2].starts_with("    router.forward"), "{text}");
        assert!(lines[2].contains("total=50us self=30us"), "{text}");
        assert!(lines[2].ends_with("backend=local-0"), "{text}");
        assert!(lines[3].starts_with("      serve.dispatch"), "{text}");
        assert!(lines[3].contains("self=20us"), "{text}");
    }

    #[test]
    fn self_clocks_saturate_across_processes() {
        // A child stitched from another process can report a longer total
        // than its parent; self time saturates at zero instead of wrapping.
        let spans = vec![span(1, 1, 0, "parent", 0, 10), span(1, 2, 1, "child", 0, 50)];
        let trees = TraceTree::build(&spans);
        let text = trees[0].render();
        assert!(text.contains("parent [test] total=10us self=0us"), "{text}");
    }
}
