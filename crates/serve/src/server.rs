//! The sharded scoring server: a `std::net::TcpListener` accept loop
//! dispatching batches to N scoring shards over channels, plus the in-process
//! [`ServeHandle`] client path that bypasses TCP entirely for embedded use.
//!
//! # Architecture
//!
//! ```text
//!                    ┌──────────────┐   ScoreJob    ┌─────────┐
//!  TCP conn ──────▶ │  connection   │ ────────────▶ │ shard 0 │
//!  TCP conn ──────▶ │  threads      │ ────────────▶ │ shard 1 │
//!                    │ (frame codec) │ ────────────▶ │   ...   │
//!  ServeHandle ───▶ │  + dispatch   │ ◀──────────── │ shard N │
//!                    └──────────────┘  chunk replies └─────────┘
//! ```
//!
//! Each request's signature batch is split into fixed-size chunks fanned out
//! round-robin over the shards, and chunk replies are reassembled in request
//! order — so one large batch parallelizes across every shard while scoring
//! stays bit-identical to a serial loop (scoring is a pure function of
//! `(golden, observed)`; shard count and dispatch order cannot change it).

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

use dsig_core::{ndf_and_peak, AcceptanceBand, DsigError, RetestPolicy, Signature};
use dsig_engine::{available_threads, RemoteRetest, RemoteScore, RemoteScorer, RetestDevice};
use dsig_obs::trace::{self, TraceContext, Tracer};
use dsig_obs::{
    Counter, EventLevel, EventLog, Gauge, HealthReport, HealthSample, Histogram, MetricValue, MetricsSnapshot,
    Registry, SloPolicy, Span, TraceLog,
};

use crate::error::{Result, ServeError};
use crate::mux::{self, WorkPool};
use crate::proto::{
    decode_any_request, decode_request_context, encode_admin_response, encode_decode_error, encode_events_response,
    encode_health_response, encode_metrics_response, encode_response, encode_retest_response, encode_traces_response,
    AdminResponse, ErrorCode, EventsResponse, HealthResponse, MetricsResponse, Request, RetestRequest, RetestResponse,
    RetestScore, ScoreResult, ScreenResponse, TracesResponse,
};
use crate::store::{GoldenRecord, GoldenStore};

/// Tuning knobs of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Number of scoring shards (worker threads). Defaults to the hardware
    /// thread count.
    pub shards: usize,
    /// Signatures per chunk handed to one shard. Small chunks spread a batch
    /// wider; large chunks cut channel traffic. Defaults to 64.
    pub shard_chunk: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: available_threads(),
            shard_chunk: 64,
        }
    }
}

impl ServeConfig {
    /// A config with an explicit shard count and the default chunk size.
    pub fn with_shards(shards: usize) -> Self {
        ServeConfig {
            shards: shards.max(1),
            ..Self::default()
        }
    }
}

/// The serving tier's metric handles, resolved once per [`ServeHandle`]
/// fleet so the hot path never touches the registry lock. All names live
/// under the `serve.` prefix of the registry the handle was spawned in
/// (the process-wide [`Registry::global`] by default).
struct ServeMetrics {
    /// `serve.requests.<family>` — requests answered, by payload magic.
    requests: PerFamily,
    /// `serve.errors.<family>` — error responses, by payload magic.
    errors: PerFamily,
    /// `serve.errors.decode` — frames whose payload failed to decode.
    decode_errors: Arc<Counter>,
    /// `serve.dispatch_us` — time to fan one batch out to the shards.
    dispatch_us: Arc<Histogram>,
    /// `serve.reassembly_us` — time from last chunk sent to batch reassembled.
    reassembly_us: Arc<Histogram>,
    /// `serve.bytes_in` / `serve.bytes_out` — framed TCP payload traffic.
    bytes_in: Arc<Counter>,
    bytes_out: Arc<Counter>,
    /// `serve.signatures_scored` — mirror of [`ServeHandle::signatures_scored`].
    scored: Arc<Counter>,
    /// `serve.request_us` — end-to-end time to answer one decoded request.
    request_us: Arc<Histogram>,
    /// `serve.queue_depth` — work-pool jobs queued or running, sampled as
    /// each connection frame arrives.
    queue_depth: Arc<Gauge>,
}

/// One counter per request family (wire magic).
struct PerFamily {
    screen: Arc<Counter>,
    multi: Arc<Counter>,
    retest: Arc<Counter>,
    push: Arc<Counter>,
    fetch: Arc<Counter>,
    metrics: Arc<Counter>,
    traces: Arc<Counter>,
    fleet_metrics: Arc<Counter>,
    fleet_traces: Arc<Counter>,
    events: Arc<Counter>,
    health: Arc<Counter>,
    admin: Arc<Counter>,
}

impl PerFamily {
    fn new(registry: &Registry, kind: &str) -> PerFamily {
        let name = |family: &str| format!("serve.{kind}.{family}");
        PerFamily {
            screen: registry.counter(&name("dsrq")),
            multi: registry.counter(&name("dsrm")),
            retest: registry.counter(&name("dsrt")),
            push: registry.counter(&name("dsgp")),
            fetch: registry.counter(&name("dsgf")),
            metrics: registry.counter(&name("dsmx")),
            traces: registry.counter(&name("dstx")),
            fleet_metrics: registry.counter(&name("dsfm")),
            fleet_traces: registry.counter(&name("dsft")),
            events: registry.counter(&name("dsex")),
            health: registry.counter(&name("dshc")),
            admin: registry.counter(&name("dsaq")),
        }
    }

    fn of(&self, request: &Request) -> &Arc<Counter> {
        match request {
            Request::Screen(_) => &self.screen,
            Request::MultiScreen(_) => &self.multi,
            Request::Retest(_) => &self.retest,
            Request::PushGolden { .. } => &self.push,
            Request::FetchGolden { .. } => &self.fetch,
            Request::Metrics => &self.metrics,
            Request::Traces => &self.traces,
            Request::FleetMetrics => &self.fleet_metrics,
            Request::FleetTraces => &self.fleet_traces,
            Request::Events => &self.events,
            Request::Health => &self.health,
            Request::Admin(_) => &self.admin,
        }
    }
}

impl ServeMetrics {
    fn new(registry: &Registry) -> ServeMetrics {
        ServeMetrics {
            requests: PerFamily::new(registry, "requests"),
            errors: PerFamily::new(registry, "errors"),
            decode_errors: registry.counter("serve.errors.decode"),
            dispatch_us: registry.histogram("serve.dispatch_us"),
            reassembly_us: registry.histogram("serve.reassembly_us"),
            bytes_in: registry.counter("serve.bytes_in"),
            bytes_out: registry.counter("serve.bytes_out"),
            scored: registry.counter("serve.signatures_scored"),
            request_us: registry.histogram("serve.request_us"),
            queue_depth: registry.gauge("serve.queue_depth"),
        }
    }
}

/// Distills a [`HealthSample`] out of a serving-tier metrics snapshot:
/// `requests` and `errors` sum the per-family `serve.requests.*` /
/// `serve.errors.*` counters and `p99_us` reads the `serve.request_us`
/// histogram, all under an optional name prefix (`""` for a process's own
/// snapshot, `"fleet."` for the routing tier's merged rollup). The fleet
/// fields are supplied by the caller — a standalone server is a fleet of
/// one with nothing backed off.
pub fn health_sample(snapshot: &MetricsSnapshot, prefix: &str, backed_off: u32, backends: u32) -> HealthSample {
    let sum_family = |family: &str| {
        let family_prefix = format!("{prefix}serve.{family}.");
        snapshot
            .metrics
            .iter()
            .filter(|(name, _)| name.starts_with(&family_prefix))
            .filter_map(|(_, value)| match value {
                MetricValue::Counter(v) => Some(*v),
                _ => None,
            })
            .fold(0u64, u64::wrapping_add)
    };
    HealthSample {
        requests: sum_family("requests"),
        errors: sum_family("errors"),
        p99_us: snapshot
            .histogram(&format!("{prefix}serve.request_us"))
            .map_or(0, |h| h.p99_us()),
        backed_off,
        backends,
    }
}

/// One chunk of scoring work handed to a shard. The batch itself is shared
/// (`Arc`), so fanning a request across shards moves no signature data.
struct ScoreJob {
    record: Arc<GoldenRecord>,
    batch: Arc<[Signature]>,
    /// The chunk of the batch this job scores; its start doubles as the
    /// reassembly key.
    range: std::ops::Range<usize>,
    /// Trace context of the request this chunk belongs to — the shard
    /// thread parents its `serve.shard` span under it.
    ctx: TraceContext,
    reply: mpsc::Sender<(usize, std::result::Result<Vec<ScoreResult>, DsigError>)>,
}

/// Scores one observed signature against a golden record.
fn score(record: &GoldenRecord, observed: &Signature) -> std::result::Result<ScoreResult, DsigError> {
    let (ndf, peak_hamming) = ndf_and_peak(&record.golden, observed)?;
    Ok(ScoreResult {
        ndf,
        peak_hamming,
        outcome: record.band.decide(ndf),
    })
}

fn shard_loop(jobs: mpsc::Receiver<ScoreJob>, scored: Arc<AtomicU64>, scored_metric: Arc<Counter>, tracer: Tracer) {
    while let Ok(job) = jobs.recv() {
        let mut shard_span = tracer.span("serve.shard", "serve", job.ctx);
        shard_span.annotate("chunk_start", job.range.start);
        shard_span.annotate("items", job.range.len());
        let items = &job.batch[job.range.clone()];
        let result: std::result::Result<Vec<ScoreResult>, DsigError> =
            items.iter().map(|observed| score(&job.record, observed)).collect();
        if result.is_ok() {
            scored.fetch_add(items.len() as u64, Ordering::Relaxed);
            scored_metric.add(items.len() as u64);
        }
        // Recorded before the reply is sent so a scrape issued right after
        // the response cannot miss the shard span.
        drop(shard_span);
        // A send failure means the requester gave up (disconnected client);
        // the work is simply dropped.
        let _ = job.reply.send((job.range.start, result));
    }
}

/// An in-process client of the scoring shards: the same dispatch path the
/// TCP connection threads use, without any socket or framing cost. Cloning a
/// handle is cheap; each clone can be used from its own thread.
pub struct ServeHandle {
    shards: Vec<mpsc::Sender<ScoreJob>>,
    cursor: Arc<AtomicUsize>,
    store: Arc<GoldenStore>,
    chunk: usize,
    scored: Arc<AtomicU64>,
    registry: Registry,
    tracer: Tracer,
    metrics: Arc<ServeMetrics>,
}

impl Clone for ServeHandle {
    fn clone(&self) -> Self {
        ServeHandle {
            shards: self.shards.clone(),
            cursor: Arc::clone(&self.cursor),
            store: Arc::clone(&self.store),
            chunk: self.chunk,
            scored: Arc::clone(&self.scored),
            registry: self.registry.clone(),
            tracer: self.tracer.clone(),
            metrics: Arc::clone(&self.metrics),
        }
    }
}

impl ServeHandle {
    /// Spawns a set of scoring shards over a store and returns a handle to
    /// them — the TCP-free way to embed a scoring backend in another process
    /// (the router tier builds its in-process backends this way; a
    /// [`Server`] is this plus a listener).
    ///
    /// Shard threads are detached and exit once the last clone of the
    /// returned handle is dropped.
    ///
    /// Metrics register in the process-wide [`Registry::global`]; use
    /// [`ServeHandle::spawn_in`] to register elsewhere.
    pub fn spawn(store: Arc<GoldenStore>, config: ServeConfig) -> ServeHandle {
        ServeHandle::spawn_in(store, config, Registry::global())
    }

    /// Like [`ServeHandle::spawn`], registering the fleet's metrics in
    /// `registry` instead of the process-wide one (test isolation, or one
    /// registry per embedded fleet).
    pub fn spawn_in(store: Arc<GoldenStore>, config: ServeConfig, registry: Registry) -> ServeHandle {
        let metrics = Arc::new(ServeMetrics::new(&registry));
        let tracer = registry.tracer().clone();
        let scored = Arc::new(AtomicU64::new(0));
        let mut shards = Vec::with_capacity(config.shards.max(1));
        for _ in 0..config.shards.max(1) {
            let (jobs, receiver) = mpsc::channel();
            let counter = Arc::clone(&scored);
            let scored_metric = Arc::clone(&metrics.scored);
            let shard_tracer = tracer.clone();
            // Shards are detached: they exit when the last job sender drops.
            std::thread::spawn(move || shard_loop(receiver, counter, scored_metric, shard_tracer));
            shards.push(jobs);
        }
        ServeHandle {
            shards,
            cursor: Arc::new(AtomicUsize::new(0)),
            store,
            chunk: config.shard_chunk.max(1),
            scored,
            registry,
            tracer,
            metrics,
        }
    }

    /// The golden store this handle scores against.
    pub fn store(&self) -> &Arc<GoldenStore> {
        &self.store
    }

    /// Snapshots the registry this handle's fleet reports into — the
    /// in-process form of the `DSMX` metrics scrape. Counters are
    /// monotonically consistent across successive calls.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// Drains and returns the spans buffered by this handle's tracer — the
    /// in-process equivalent of a `DSTX` scrape.
    pub fn traces(&self) -> TraceLog {
        TraceLog {
            spans: self.registry.tracer().drain(),
        }
    }

    /// Drains and returns the structured events buffered by this handle's
    /// registry — the in-process equivalent of a `DSEX` scrape. Draining
    /// consumes: a second drain returns only events emitted in between.
    pub fn events(&self) -> EventLog {
        EventLog {
            events: self.registry.events().drain(),
        }
    }

    /// Evaluates this process's health against `policy` from a fresh
    /// metrics snapshot — the in-process form of the `DSHC` check. A
    /// standalone serving process is a fleet of one with no routing tier,
    /// so `backed_off` is always zero.
    pub fn health(&self, policy: &SloPolicy) -> HealthReport {
        policy.evaluate(health_sample(&self.metrics(), "", 0, 1))
    }

    /// Total signatures scored successfully through this handle's shards
    /// (shared with every clone and with the owning [`Server`], if any).
    pub fn signatures_scored(&self) -> u64 {
        self.scored.load(Ordering::Relaxed)
    }

    /// Stores (or replaces) a golden record — the in-process form of the
    /// `DSGP` replication push.
    pub fn push_golden(&self, key: u64, golden: Signature, band: AcceptanceBand) {
        self.store.insert(key, golden, band);
    }

    /// Looks up a golden record — the in-process form of the `DSGF` readback.
    ///
    /// # Errors
    /// Returns [`ServeError::UnknownGolden`] when the store has no record
    /// under `key`.
    pub fn fetch_golden(&self, key: u64) -> Result<Arc<GoldenRecord>> {
        self.store.get(key).ok_or(ServeError::UnknownGolden(key))
    }

    /// Scores a batch where **each signature names its own golden**: items
    /// are grouped by fingerprint, each group is screened through the shards
    /// like a [`ServeHandle::screen`] batch, and results return in request
    /// order — bit-identical to screening the groups separately.
    ///
    /// # Errors
    /// As for [`ServeHandle::screen`]; an unknown fingerprint anywhere fails
    /// the whole batch.
    pub fn screen_multi(&self, items: &[(u64, Signature)]) -> Result<Vec<ScoreResult>> {
        let mut results: Vec<Option<ScoreResult>> = vec![None; items.len()];
        for (key, indices) in group_by_fingerprint(items) {
            let batch: Vec<Signature> = indices.iter().map(|&i| items[i].1.clone()).collect();
            let scores = self.screen_vec(key, batch)?;
            for (&index, score) in indices.iter().zip(scores) {
                results[index] = Some(score);
            }
        }
        Ok(results.into_iter().map(|r| r.expect("every item scored")).collect())
    }

    /// Screens an adaptive-retest batch: every device's single-shot
    /// signature **and** its pre-captured measurement repeats are scored
    /// through the shards in one flattened batch, then the pure escalation
    /// walk of [`dsig_core::RetestPolicy::escalate`] re-decides marginal
    /// devices from averaged repeats — server-side, before any verdict is
    /// answered. Returns one [`RetestScore`] per device in request order.
    ///
    /// The averaged NDF of a retested device is bit-identical to
    /// [`dsig_core::TestFlow::evaluate_averaged`] over the consumed repeats,
    /// and the peak Hamming distance folds the initial capture with every
    /// consumed repeat — exactly what
    /// [`dsig_core::TestFlow::evaluate_with_retest`] computes locally.
    ///
    /// # Errors
    /// As for [`ServeHandle::screen`]; the golden's stored acceptance band
    /// decides marginality and the final verdicts.
    pub fn screen_retest(&self, request: &RetestRequest) -> Result<Vec<RetestScore>> {
        let flat: Vec<Signature> = request
            .items
            .iter()
            .flat_map(|item| std::iter::once(&item.initial).chain(&item.repeats).cloned())
            .collect();
        let repeat_counts: Vec<usize> = request.items.iter().map(|item| item.repeats.len()).collect();
        self.screen_retest_flat(request.golden_key, &request.policy, flat, &repeat_counts)
    }

    /// Like [`ServeHandle::screen_retest`], taking ownership of the request —
    /// the zero-copy path the connection threads use (the decoded signatures
    /// move straight into the shard batch, never cloned).
    ///
    /// # Errors
    /// As for [`ServeHandle::screen_retest`].
    pub fn screen_retest_owned(&self, request: RetestRequest) -> Result<Vec<RetestScore>> {
        let repeat_counts: Vec<usize> = request.items.iter().map(|item| item.repeats.len()).collect();
        let flat: Vec<Signature> = request
            .items
            .into_iter()
            .flat_map(|item| std::iter::once(item.initial).chain(item.repeats))
            .collect();
        self.screen_retest_flat(request.golden_key, &request.policy, flat, &repeat_counts)
    }

    /// The shared retest core: score the flattened `initial + repeats` batch
    /// through the shards (the exact scoring pipeline of plain screening),
    /// then run the pure escalation walk per device.
    fn screen_retest_flat(
        &self,
        golden_key: u64,
        policy: &RetestPolicy,
        flat: Vec<Signature>,
        repeat_counts: &[usize],
    ) -> Result<Vec<RetestScore>> {
        let record = self
            .store
            .get(golden_key)
            .ok_or(ServeError::UnknownGolden(golden_key))?;
        let scores = self.screen_record(Arc::clone(&record), flat)?;
        let mut results = Vec::with_capacity(repeat_counts.len());
        let mut at = 0usize;
        for &repeat_count in repeat_counts {
            let initial = scores[at];
            let repeats = &scores[at + 1..at + 1 + repeat_count];
            at += 1 + repeat_count;
            let repeat_ndfs: Vec<f64> = repeats.iter().map(|s| s.ndf).collect();
            let verdict = policy.escalate(&record.band, initial.ndf, &repeat_ndfs);
            if verdict.marginal && verdict.repeats_used >= policy.repeat_cap() {
                let key = format!("{golden_key:#x}");
                let used = verdict.repeats_used.to_string();
                self.registry.events().emit(
                    EventLevel::Warn,
                    "serve",
                    "retest.cap_hit",
                    "marginal device consumed the full escalation schedule",
                    &[("golden_key", &key), ("repeats_used", &used)],
                );
            }
            let used = verdict.repeats_used as usize;
            results.push(RetestScore {
                score: ScoreResult {
                    ndf: verdict.ndf,
                    peak_hamming: repeats[..used]
                        .iter()
                        .fold(initial.peak_hamming, |peak, s| peak.max(s.peak_hamming)),
                    outcome: verdict.outcome,
                },
                marginal: verdict.marginal,
                flipped: verdict.flipped,
                repeats_used: verdict.repeats_used,
            });
        }
        Ok(results)
    }

    /// Scores a batch of observed signatures against the golden stored under
    /// `golden_key`, returning one [`ScoreResult`] per signature in order.
    ///
    /// The batch is chunked across the scoring shards and reassembled, so a
    /// large batch uses every shard; results are bit-identical for any shard
    /// count and chunk size.
    ///
    /// # Errors
    /// Returns [`ServeError::UnknownGolden`] for an unknown fingerprint,
    /// [`ServeError::Closed`] if the shards have shut down, and
    /// [`ServeError::Dsig`] if any signature fails to score.
    pub fn screen(&self, golden_key: u64, signatures: &[Signature]) -> Result<Vec<ScoreResult>> {
        self.screen_vec(golden_key, signatures.to_vec())
    }

    /// Like [`ServeHandle::screen`], taking ownership of the batch — the
    /// zero-copy path the connection threads use (the decoded request batch
    /// is shared with the shards via one `Arc`, never cloned).
    ///
    /// # Errors
    /// As for [`ServeHandle::screen`].
    pub fn screen_vec(&self, golden_key: u64, signatures: Vec<Signature>) -> Result<Vec<ScoreResult>> {
        let record = self
            .store
            .get(golden_key)
            .ok_or(ServeError::UnknownGolden(golden_key))?;
        self.screen_record(record, signatures)
    }

    /// The shard-dispatch core behind [`ServeHandle::screen_vec`] and the
    /// retest path, taking an already-resolved golden record (one store
    /// lookup per request, however the caller obtained the record).
    fn screen_record(&self, record: Arc<GoldenRecord>, signatures: Vec<Signature>) -> Result<Vec<ScoreResult>> {
        if signatures.is_empty() {
            return Ok(Vec::new());
        }
        let batch: Arc<[Signature]> = signatures.into();
        let inbound = trace::current_context();
        if batch.len() <= self.chunk {
            // A batch that fits one chunk is scored on the calling thread:
            // the shard round trip (channel, wake-up, reply) only pays for
            // itself when there are chunks to run in parallel. Spans and
            // metrics are identical to the dispatched path with one chunk.
            {
                let mut dispatch_span = self.tracer.span("serve.dispatch", "serve", inbound);
                let _dispatch = Span::enter(&self.metrics.dispatch_us);
                dispatch_span.annotate("chunks", 1usize);
                dispatch_span.annotate("batch", batch.len());
            }
            let result = {
                let mut shard_span = self.tracer.span("serve.shard", "serve", inbound);
                shard_span.annotate("chunk_start", 0usize);
                shard_span.annotate("items", batch.len());
                let scored: std::result::Result<Vec<ScoreResult>, DsigError> =
                    batch.iter().map(|observed| score(&record, observed)).collect();
                if scored.is_ok() {
                    self.scored.fetch_add(batch.len() as u64, Ordering::Relaxed);
                    self.metrics.scored.add(batch.len() as u64);
                }
                scored
            };
            let mut reassembly_span = self.tracer.span("serve.reassembly", "serve", inbound);
            reassembly_span.annotate("chunks", 1usize);
            let _reassembly = Span::enter(&self.metrics.reassembly_us);
            return Ok(result?);
        }
        let (reply, replies) = mpsc::channel();
        let mut chunks = 0usize;
        {
            let mut dispatch_span = self.tracer.span("serve.dispatch", "serve", inbound);
            let _dispatch = Span::enter(&self.metrics.dispatch_us);
            for start in (0..batch.len()).step_by(self.chunk) {
                let end = (start + self.chunk).min(batch.len());
                let shard = self.cursor.fetch_add(1, Ordering::Relaxed) % self.shards.len();
                self.shards[shard]
                    .send(ScoreJob {
                        record: Arc::clone(&record),
                        batch: Arc::clone(&batch),
                        range: start..end,
                        ctx: inbound,
                        reply: reply.clone(),
                    })
                    .map_err(|_| ServeError::Closed)?;
                chunks += 1;
            }
            dispatch_span.annotate("chunks", chunks);
            dispatch_span.annotate("batch", batch.len());
        }
        drop(reply);
        let mut reassembly_span = self.tracer.span("serve.reassembly", "serve", inbound);
        reassembly_span.annotate("chunks", chunks);
        let _reassembly = Span::enter(&self.metrics.reassembly_us);
        let mut parts = Vec::with_capacity(chunks);
        for _ in 0..chunks {
            let part = replies.recv().map_err(|_| ServeError::Closed)?;
            parts.push(part);
        }
        parts.sort_unstable_by_key(|&(start, _)| start);
        let mut results = Vec::with_capacity(batch.len());
        for (_, part) in parts {
            results.extend(part?);
        }
        Ok(results)
    }

    /// Scores a single signature (a one-element [`ServeHandle::screen`]).
    ///
    /// # Errors
    /// As for [`ServeHandle::screen`].
    pub fn screen_one(&self, golden_key: u64, signature: &Signature) -> Result<ScoreResult> {
        Ok(self.screen(golden_key, std::slice::from_ref(signature))?[0])
    }
}

/// The scoring server: shard workers plus a TCP accept loop.
///
/// Dropping (or [`Server::shutdown`]-ing) the server stops accepting new
/// connections; shard workers exit once the last [`ServeHandle`] — including
/// the handles held by still-open connections — is gone.
pub struct Server {
    local_addr: SocketAddr,
    handle: ServeHandle,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds a listener (use port 0 for an ephemeral port), spawns the
    /// scoring shards and the accept loop, and starts serving.
    ///
    /// Metrics register in the process-wide [`Registry::global`]; use
    /// [`Server::bind_in`] to register elsewhere.
    ///
    /// # Errors
    /// Returns [`ServeError::Io`] if the listener cannot be bound.
    pub fn bind(addr: impl ToSocketAddrs, store: Arc<GoldenStore>, config: ServeConfig) -> Result<Server> {
        Server::bind_in(addr, store, config, Registry::global())
    }

    /// Like [`Server::bind`], registering the server's metrics, traces, and
    /// events in `registry` instead of the process-wide one — so several
    /// servers in one process (a demo fleet, a test harness) each answer
    /// `DSMX` with their own counters rather than a shared blur.
    ///
    /// # Errors
    /// Returns [`ServeError::Io`] if the listener cannot be bound.
    pub fn bind_in(
        addr: impl ToSocketAddrs,
        store: Arc<GoldenStore>,
        config: ServeConfig,
        registry: Registry,
    ) -> Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let handle = ServeHandle::spawn_in(store, config, registry);

        let shutdown = Arc::new(AtomicBool::new(false));
        let accept_handle = handle.clone();
        let accept_shutdown = Arc::clone(&shutdown);
        // One request-processing pool shared by every connection: request
        // concurrency scales with cores, not with connection count, so one
        // listener fans out to thousands of pipelined clients.
        let pool = Arc::new(WorkPool::new(available_threads()));
        let accept_thread = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if accept_shutdown.load(Ordering::SeqCst) {
                    break;
                }
                match stream {
                    Ok(stream) => {
                        let conn_handle = accept_handle.clone();
                        let conn_pool = Arc::clone(&pool);
                        // Connection threads are detached; they exit when the
                        // peer closes its end of the stream.
                        std::thread::spawn(move || handle_connection(stream, conn_handle, conn_pool));
                    }
                    // Back off briefly on accept errors (e.g. EMFILE under
                    // fd exhaustion) instead of busy-spinning the core.
                    Err(_) => std::thread::sleep(std::time::Duration::from_millis(10)),
                }
            }
        });

        Ok(Server {
            local_addr,
            handle,
            shutdown,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address the server is listening on (with the real port when bound
    /// to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A new in-process handle to the scoring shards.
    pub fn handle(&self) -> ServeHandle {
        self.handle.clone()
    }

    /// Total signatures scored successfully since the server started, across
    /// the TCP and in-process paths.
    pub fn signatures_scored(&self) -> u64 {
        self.handle.signatures_scored()
    }

    /// Snapshots the registry this server reports into — the in-process
    /// form of the `DSMX` metrics scrape.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.handle.metrics()
    }

    /// Stops accepting connections and joins the accept loop. Idempotent;
    /// also invoked on drop. In-flight connections finish serving their
    /// current stream.
    pub fn shutdown(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the blocking accept with a throwaway connection. A wildcard
        // bind address (0.0.0.0 / ::) is not dialable everywhere, so dial
        // its loopback equivalent on the bound port.
        let mut wake = self.local_addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
                SocketAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
            });
        }
        let woke = TcpStream::connect_timeout(&wake, std::time::Duration::from_secs(1)).is_ok();
        if let Some(thread) = self.accept_thread.take() {
            if woke {
                let _ = thread.join();
            }
            // If the wake connection failed, the accept loop may still be
            // blocked; leave the thread detached rather than hang the caller.
            // It exits at the next (never-served) connection attempt.
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Groups the items of a multi-golden batch by fingerprint, preserving
/// first-appearance order of the keys and original item indices within each
/// group — the shared substrate of every `screen_multi` implementation (the
/// in-process handle here, the routing tier's per-backend splitter).
pub fn group_by_fingerprint(items: &[(u64, Signature)]) -> Vec<(u64, Vec<usize>)> {
    let mut order: Vec<u64> = Vec::new();
    let mut groups: HashMap<u64, Vec<usize>> = HashMap::new();
    for (index, (key, _)) in items.iter().enumerate() {
        groups
            .entry(*key)
            .or_insert_with(|| {
                order.push(*key);
                Vec::new()
            })
            .push(index);
    }
    order
        .into_iter()
        .map(|key| {
            let indices = groups.remove(&key).expect("every ordered key has a group");
            (key, indices)
        })
        .collect()
}

/// Maps a serving-layer error onto the wire error code it travels as.
fn error_code_of(err: &ServeError) -> ErrorCode {
    match err {
        ServeError::UnknownGolden(_) => ErrorCode::UnknownGolden,
        _ => ErrorCode::Internal,
    }
}

/// Builds the response frame for one decoded request — shared by every
/// serving process (and mirrored by the router tier, which answers the same
/// request kinds after fanning the work out).
fn respond(handle: &ServeHandle, request: Request) -> Vec<u8> {
    let metrics = &handle.metrics;
    let _request_timer = Span::enter(&metrics.request_us);
    metrics.requests.of(&request).inc();
    // Cloned up front so the error arms can tally without re-matching on
    // the (by then moved) request.
    let error_counter = Arc::clone(metrics.errors.of(&request));
    let count_error = || error_counter.inc();
    match request {
        Request::Screen(request) => encode_response(&match handle.screen_vec(request.golden_key, request.signatures) {
            Ok(results) => ScreenResponse::Results(results),
            Err(err) => {
                count_error();
                ScreenResponse::Error {
                    code: error_code_of(&err),
                    message: err.to_string(),
                }
            }
        }),
        Request::MultiScreen(request) => encode_response(&match handle.screen_multi(&request.items) {
            Ok(results) => ScreenResponse::Results(results),
            Err(err) => {
                count_error();
                ScreenResponse::Error {
                    code: error_code_of(&err),
                    message: err.to_string(),
                }
            }
        }),
        Request::Retest(request) => encode_retest_response(&match handle.screen_retest_owned(request) {
            Ok(results) => RetestResponse::Results(results),
            Err(err) => {
                count_error();
                RetestResponse::Error {
                    code: error_code_of(&err),
                    message: err.to_string(),
                }
            }
        }),
        Request::PushGolden { key, band, golden } => {
            handle.push_golden(key, golden, band);
            encode_admin_response(&AdminResponse::Ack)
        }
        Request::FetchGolden { key } => encode_admin_response(&match handle.fetch_golden(key) {
            Ok(record) => AdminResponse::Record {
                band: record.band,
                golden: record.golden.clone(),
            },
            Err(err) => {
                count_error();
                AdminResponse::Error {
                    code: error_code_of(&err),
                    message: err.to_string(),
                }
            }
        }),
        Request::Metrics => encode_metrics_response(&MetricsResponse::Snapshot(handle.metrics())),
        Request::Traces => encode_traces_response(&TracesResponse::Log(handle.traces())),
        // A standalone serving process answers the fleet scrapes as a fleet
        // of one: its own snapshot/log, no `backend.*` prefixes, so the
        // routing tier and a bare server share one client-side shape.
        Request::FleetMetrics => encode_metrics_response(&MetricsResponse::Snapshot(handle.metrics())),
        Request::FleetTraces => encode_traces_response(&TracesResponse::Log(handle.traces())),
        Request::Events => encode_events_response(&EventsResponse::Log(handle.events())),
        Request::Health => encode_health_response(&HealthResponse::Report(handle.health(&SloPolicy::default()))),
        // A leaf serving process has no fleet to administer; only the
        // routing tier accepts membership verbs.
        Request::Admin(_) => {
            count_error();
            encode_admin_response(&AdminResponse::Error {
                code: ErrorCode::BadRequest,
                message: "fleet admin verbs are only valid against a routing tier".into(),
            })
        }
    }
}

/// Serves one TCP connection through the shared [`WorkPool`]: frames are
/// read on this thread, tagged requests run as pool jobs completing out of
/// order, and a writer thread streams responses back (see
/// [`mux::drive_connection`]).
fn handle_connection(stream: TcpStream, handle: ServeHandle, pool: Arc<WorkPool>) {
    let depth_pool = Arc::clone(&pool);
    let respond_to = Arc::new(move |payload: Vec<u8>| {
        handle.metrics.bytes_in.add(payload.len() as u64 + 4);
        handle.metrics.queue_depth.set(depth_pool.queued() as f64);
        let response = {
            // Pin the caller's trace context for the whole request so every
            // span opened while serving it parents under the remote caller
            // — per request, because pool workers interleave requests from
            // many callers.
            let _ctx = trace::with_context(decode_request_context(&payload));
            match decode_any_request(&payload) {
                Ok(request) => respond(&handle, request),
                Err(err) => {
                    handle.metrics.decode_errors.inc();
                    encode_decode_error(&payload, err.to_string())
                }
            }
        };
        handle.metrics.bytes_out.add(response.len() as u64 + 4);
        response
    });
    mux::drive_connection(stream, &pool, respond_to);
}

impl From<ScoreResult> for RemoteScore {
    fn from(score: ScoreResult) -> Self {
        RemoteScore {
            ndf: score.ndf,
            peak_hamming: score.peak_hamming,
            outcome: score.outcome,
        }
    }
}

impl From<RetestScore> for RemoteRetest {
    fn from(score: RetestScore) -> Self {
        RemoteRetest {
            score: score.score.into(),
            marginal: score.marginal,
            flipped: score.flipped,
            repeats_used: score.repeats_used,
        }
    }
}

/// Builds the wire retest request of an engine-level retest batch — shared
/// by the [`RemoteScorer`] impls of the serving and routing tiers.
pub fn retest_request_of(golden_key: u64, policy: &RetestPolicy, devices: &[RetestDevice]) -> RetestRequest {
    RetestRequest {
        golden_key,
        policy: policy.clone(),
        items: devices
            .iter()
            .map(|device| crate::proto::RetestItem {
                initial: device.initial.clone(),
                repeats: device.repeats.clone(),
            })
            .collect(),
    }
}

impl RemoteScorer for ServeHandle {
    fn screen_remote(&self, golden_key: u64, signatures: &[Signature]) -> dsig_core::Result<Vec<RemoteScore>> {
        self.screen(golden_key, signatures)
            .map(|scores| scores.into_iter().map(Into::into).collect())
            .map_err(ServeError::into_dsig)
    }

    fn retest_remote(
        &self,
        golden_key: u64,
        policy: &RetestPolicy,
        devices: &[RetestDevice],
    ) -> dsig_core::Result<Vec<RemoteRetest>> {
        // The built request is already owned: take the zero-copy path so the
        // signatures are cloned once, not twice.
        self.screen_retest_owned(retest_request_of(golden_key, policy, devices))
            .map(|scores| scores.into_iter().map(Into::into).collect())
            .map_err(ServeError::into_dsig)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsig_core::{AcceptanceBand, SignatureEntry, TestOutcome, ZoneCode};

    fn sig(codes: &[(u32, f64)]) -> Signature {
        Signature::new(
            codes
                .iter()
                .map(|&(c, d)| SignatureEntry {
                    code: ZoneCode(c),
                    duration: d,
                })
                .collect(),
        )
        .unwrap()
    }

    fn store_with_golden(key: u64) -> Arc<GoldenStore> {
        let store = GoldenStore::new();
        store.insert(
            key,
            sig(&[(1, 100e-6), (3, 100e-6)]),
            AcceptanceBand::new(0.05).unwrap(),
        );
        Arc::new(store)
    }

    fn direct_score(record: &GoldenRecord, observed: &Signature) -> ScoreResult {
        score(record, observed).unwrap()
    }

    #[test]
    fn handle_screens_in_process_and_matches_direct_scoring() {
        let store = store_with_golden(9);
        let server = Server::bind("127.0.0.1:0", Arc::clone(&store), ServeConfig::with_shards(3)).unwrap();
        let handle = server.handle();
        let observed = vec![
            sig(&[(1, 100e-6), (3, 100e-6)]), // the golden itself
            sig(&[(1, 100e-6), (7, 100e-6)]), // one zone rewritten
            sig(&[(5, 200e-6)]),              // grossly defective
        ];
        let results = handle.screen(9, &observed).unwrap();
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].ndf, 0.0);
        assert_eq!(results[0].outcome, TestOutcome::Pass);
        assert!(results[2].ndf > results[1].ndf);
        assert_eq!(results[2].outcome, TestOutcome::Fail);
        let record = store.get(9).unwrap();
        for (result, observed) in results.iter().zip(&observed) {
            let direct = direct_score(&record, observed);
            assert_eq!(result, &direct, "handle path must equal direct scoring");
        }
        assert_eq!(server.signatures_scored(), 3);
    }

    #[test]
    fn batches_are_chunked_across_shards_in_order() {
        let store = store_with_golden(1);
        let config = ServeConfig {
            shards: 4,
            shard_chunk: 3, // force many chunks
        };
        let server = Server::bind("127.0.0.1:0", Arc::clone(&store), config).unwrap();
        let handle = server.handle();
        // A batch with a recognizable per-item signature: item k dwells k+1
        // microseconds in zone 2.
        let observed: Vec<Signature> = (0..50)
            .map(|k| sig(&[(1, 100e-6), (2, (k + 1) as f64 * 1e-6)]))
            .collect();
        let results = handle.screen(1, &observed).unwrap();
        assert_eq!(results.len(), 50);
        let record = store.get(1).unwrap();
        for (result, observed) in results.iter().zip(&observed) {
            assert_eq!(result, &direct_score(&record, observed), "order must be preserved");
        }
        // NDF grows with the inserted dwell, so order mistakes would show.
        for pair in results.windows(2) {
            assert!(pair[1].ndf >= pair[0].ndf);
        }
    }

    #[test]
    fn unknown_golden_and_empty_batch() {
        let store = store_with_golden(2);
        let server = Server::bind("127.0.0.1:0", store, ServeConfig::with_shards(1)).unwrap();
        let handle = server.handle();
        assert!(matches!(
            handle.screen(999, &[sig(&[(1, 1.0)])]),
            Err(ServeError::UnknownGolden(999))
        ));
        assert!(handle.screen(2, &[]).unwrap().is_empty());
        let single = handle.screen_one(2, &sig(&[(1, 100e-6), (3, 100e-6)])).unwrap();
        assert_eq!(single.ndf, 0.0);
    }

    #[test]
    fn spawned_handle_scores_without_a_listener_and_serves_admin_ops() {
        let store = store_with_golden(11);
        let handle = ServeHandle::spawn(Arc::clone(&store), ServeConfig::with_shards(2));
        let observed = sig(&[(1, 100e-6), (3, 100e-6)]);
        assert_eq!(handle.screen_one(11, &observed).unwrap().ndf, 0.0);
        assert_eq!(handle.signatures_scored(), 1);
        // Push then read back a second golden through the admin surface.
        assert!(matches!(handle.fetch_golden(12), Err(ServeError::UnknownGolden(12))));
        handle.push_golden(12, sig(&[(2, 50e-6)]), AcceptanceBand::new(0.01).unwrap());
        let record = handle.fetch_golden(12).unwrap();
        assert_eq!(record.band.ndf_threshold, 0.01);
        assert_eq!(record.golden, sig(&[(2, 50e-6)]));
    }

    #[test]
    fn multi_screen_matches_per_key_screening_in_request_order() {
        let store = store_with_golden(1);
        store.insert(2, sig(&[(2, 100e-6), (4, 100e-6)]), AcceptanceBand::new(0.05).unwrap());
        let config = ServeConfig {
            shards: 3,
            shard_chunk: 2, // force chunking inside each key group
        };
        let handle = ServeHandle::spawn(Arc::clone(&store), config);
        // Interleave the two goldens so grouping must reassemble by index.
        let items: Vec<(u64, Signature)> = (0..20)
            .map(|k| {
                let key = 1 + (k % 2) as u64;
                (key, sig(&[(1, 100e-6), (2, (k + 1) as f64 * 1e-6)]))
            })
            .collect();
        let results = handle.screen_multi(&items).unwrap();
        assert_eq!(results.len(), items.len());
        for (result, (key, observed)) in results.iter().zip(&items) {
            let direct = direct_score(&store.get(*key).unwrap(), observed);
            assert_eq!(result, &direct, "multi-screen must equal per-key scoring");
        }
        // An unknown key anywhere fails the whole batch.
        let mut bad = items;
        bad[7].0 = 999;
        assert!(matches!(handle.screen_multi(&bad), Err(ServeError::UnknownGolden(999))));
    }

    #[test]
    fn retest_screening_escalates_marginal_devices_server_side() {
        use crate::proto::RetestItem;
        use dsig_core::RetestPolicy;

        let store = store_with_golden(4);
        let record = store.get(4).unwrap();
        let config = ServeConfig {
            shards: 3,
            shard_chunk: 2, // force chunking across the flattened batch
        };
        let handle = ServeHandle::spawn(Arc::clone(&store), config);
        // Three devices: one far inside the band, one marginal whose repeats
        // push it over the threshold (a PASS -> FAIL flip), one marginal and
        // confirmed by its repeats.
        let clean = sig(&[(1, 100e-6), (3, 100e-6)]);
        let marginal_bad = sig(&[(1, 100e-6), (3, 91e-6), (7, 9e-6)]);
        let worse = sig(&[(1, 100e-6), (3, 80e-6), (7, 20e-6)]);
        let marginal_ok = sig(&[(1, 100e-6), (3, 92e-6), (7, 8e-6)]);
        let single = |s: &Signature| score(&record, s).unwrap();
        // Build a guard band that makes exactly the two borderline devices
        // marginal against the stored 0.05 threshold.
        let guard = 0.02;
        let policy = RetestPolicy::new(guard, vec![2]).unwrap();
        assert!(!policy.is_marginal(&record.band, single(&clean).ndf));
        assert!(policy.is_marginal(&record.band, single(&marginal_bad).ndf));
        assert!(policy.is_marginal(&record.band, single(&marginal_ok).ndf));

        let request = RetestRequest {
            golden_key: 4,
            policy: policy.clone(),
            items: vec![
                RetestItem {
                    initial: clean.clone(),
                    repeats: vec![],
                },
                RetestItem {
                    initial: marginal_bad.clone(),
                    repeats: vec![worse.clone(), worse.clone()],
                },
                RetestItem {
                    initial: marginal_ok.clone(),
                    repeats: vec![marginal_ok.clone(), marginal_ok.clone()],
                },
            ],
        };
        let results = handle.screen_retest(&request).unwrap();
        assert_eq!(results.len(), 3);
        // Non-marginal: the single-shot score passes through untouched.
        assert_eq!(results[0].score, single(&clean));
        assert!(!results[0].marginal);
        assert_eq!(results[0].repeats_used, 0);
        // Marginal with failing repeats: averaged NDF, folded peak, FAIL.
        let expected_ndf = (single(&worse).ndf + single(&worse).ndf) / 2.0;
        assert_eq!(results[1].score.ndf.to_bits(), expected_ndf.to_bits());
        assert_eq!(results[1].score.outcome, record.band.decide(expected_ndf));
        assert_eq!(
            results[1].score.peak_hamming,
            single(&marginal_bad).peak_hamming.max(single(&worse).peak_hamming)
        );
        assert_eq!(results[1].repeats_used, 2);
        assert!(results[1].marginal);
        // Confirmed marginal device: same outcome as the single shot.
        assert!(results[2].marginal);
        assert_eq!(results[2].score.outcome, single(&marginal_ok).outcome);

        // The TCP path answers the identical scores.
        let server = Server::bind("127.0.0.1:0", store, ServeConfig::with_shards(2)).unwrap();
        let client = crate::client::ServeClient::connect(server.local_addr()).unwrap();
        assert_eq!(client.screen_retest(&request).unwrap(), results);
        // Unknown goldens carry the fingerprint back.
        let unknown = RetestRequest {
            golden_key: 0xDEAD,
            ..request
        };
        assert!(matches!(
            client.screen_retest(&unknown),
            Err(ServeError::UnknownGolden(0xDEAD))
        ));
        assert!(matches!(
            handle.screen_retest(&unknown),
            Err(ServeError::UnknownGolden(0xDEAD))
        ));
    }

    #[test]
    fn shutdown_is_idempotent_and_stops_accepting() {
        let store = store_with_golden(3);
        let mut server = Server::bind("127.0.0.1:0", store, ServeConfig::with_shards(1)).unwrap();
        let addr = server.local_addr();
        server.shutdown();
        server.shutdown(); // second call is a no-op
                           // After shutdown the accept loop is gone; a fresh connection is
                           // either refused or accepted by the OS backlog and never served —
                           // both are fine, the point is that this does not hang or panic.
        let _ = TcpStream::connect(addr);
        // The in-process path still works: shards live as long as handles do.
        let handle = server.handle();
        assert!(handle.screen(3, &[sig(&[(1, 100e-6), (3, 100e-6)])]).is_ok());
    }
}
