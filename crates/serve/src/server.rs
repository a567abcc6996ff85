//! The scoring server: a [`mux::Listener`] accept loop whose connections
//! run requests on one shared [`WorkPool`], plus the in-process
//! [`ServeHandle`] client path that bypasses TCP entirely for embedded use.
//!
//! # Architecture
//!
//! ```text
//!  TCP conn ──▶ reader ─┐      ┌──── WorkPool ────┐
//!  TCP conn ──▶ reader ─┼────▶ │ decode, score,   │ ──▶ per-connection writer
//!  TCP conn ──▶ reader ─┘      │ encode           │
//!                              └──────────────────┘
//!  TCP conn ──▶ read, decode, score, encode, write on one thread (one worker)
//!  ServeHandle ──▶ score on the caller's thread
//! ```
//!
//! Both paths answer through the same [`Service`] impl of [`ServeHandle`]:
//! the listener runs [`crate::service::respond`] over it, behind a private
//! metering layer that counts the requests arriving as frames.
//!
//! A request's batch is scored by [`dsig_engine::score`], the scorer a
//! campaign's local target runs too, on the thread that holds the request —
//! a pool worker, a connection's own thread (one worker, no pool) or the
//! caller of an in-process [`ServeHandle`] — over the decoded
//! signatures as they are, in request order. Scoring is a pure function of
//! `(golden, observed)`, so every path answers bit-identical scores;
//! requests still run concurrently across the pool.

use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dsig_core::{AcceptanceBand, DsigError, Signature};
use dsig_engine::{available_threads, score, RemoteScorer};
use dsig_obs::trace::{self, Tracer};
use dsig_obs::{
    Counter, EventLevel, EventLog, Gauge, HealthReport, HealthSample, Histogram, MetricValue, MetricsSnapshot,
    Registry, SloPolicy, Span, TraceLog,
};

use crate::error::{Result, ServeError};
use crate::mux::{self, WorkPool};
use crate::proto::{AdminReply, Request, Response, RetestRequest, RetestScore, ScoreResult, REQUEST_MAGICS};
use crate::service::{self, Service};
use crate::store::{GoldenRecord, GoldenStore};

/// Tuning knobs of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads of the server's request pool. Defaults to the hardware
    /// thread count. With one worker, each connection answers its requests
    /// on its own thread, which reads, scores and writes each in turn. An
    /// in-process [`ServeHandle`] reads nothing from the config: it scores
    /// on the caller's thread.
    pub shards: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: available_threads(),
        }
    }
}

impl ServeConfig {
    /// A config with an explicit pool size (at least one worker).
    pub fn with_shards(shards: usize) -> Self {
        ServeConfig { shards: shards.max(1) }
    }
}

/// The serving tier's metric handles, resolved once per [`ServeHandle`]
/// fleet so the hot path never touches the registry lock. All names live
/// under the `serve.` prefix of the registry the handle was spawned in
/// (the process-wide [`Registry::global`] by default).
struct ServeMetrics {
    /// `serve.requests.<family>` and `serve.errors.<family>` for each
    /// request magic (`dsrq`, …): requests answered, and error responses.
    families: Vec<([u8; 4], Arc<Counter>, Arc<Counter>)>,
    /// `serve.errors.decode` — frames whose payload failed to decode.
    decode_errors: Arc<Counter>,
    /// `serve.bytes_in` / `serve.bytes_out` — framed TCP payload traffic.
    bytes_in: Arc<Counter>,
    bytes_out: Arc<Counter>,
    /// `serve.signatures_scored` — mirror of [`ServeHandle::signatures_scored`].
    scored: Arc<Counter>,
    /// `serve.request_us` — end-to-end time to answer one decoded request.
    request_us: Arc<Histogram>,
    /// `serve.queue_depth` — work-pool jobs queued, sampled as each
    /// connection frame arrives. A one-worker server has no pool and
    /// never sets it.
    queue_depth: Arc<Gauge>,
}

impl ServeMetrics {
    fn new(registry: &Registry) -> ServeMetrics {
        let counter = |kind: &str, magic: &[u8; 4]| {
            registry.counter(&format!(
                "serve.{kind}.{}",
                String::from_utf8_lossy(magic).to_lowercase()
            ))
        };
        ServeMetrics {
            families: REQUEST_MAGICS
                .iter()
                .map(|magic| (*magic, counter("requests", magic), counter("errors", magic)))
                .collect(),
            decode_errors: registry.counter("serve.errors.decode"),
            bytes_in: registry.counter("serve.bytes_in"),
            bytes_out: registry.counter("serve.bytes_out"),
            scored: registry.counter("serve.signatures_scored"),
            request_us: registry.histogram("serve.request_us"),
            queue_depth: registry.gauge("serve.queue_depth"),
        }
    }

    /// The request and error counters of `request`'s family.
    fn family(&self, request: &Request) -> (&Counter, &Counter) {
        let magic = request.magic();
        let (_, requests, errors) = self
            .families
            .iter()
            .find(|(family, ..)| *family == magic)
            .expect("every request magic is counted");
        (requests, errors)
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

/// An in-process scoring backend: the scoring path the TCP connections use,
/// without any socket or framing cost. Every call scores on the calling
/// thread. Cloning a handle is cheap; each clone can be used from its own
/// thread.
#[derive(Clone)]
pub struct ServeHandle {
    store: Arc<GoldenStore>,
    scored: Arc<AtomicU64>,
    registry: Registry,
    tracer: Tracer,
    metrics: Arc<ServeMetrics>,
}

impl ServeHandle {
    /// Builds a handle over a store — the TCP-free way to embed a scoring
    /// backend in another process (the router tier builds its in-process
    /// backends this way; a [`Server`] is this plus a listener). The handle
    /// starts no thread and reads nothing from `config`.
    ///
    /// Metrics register in the process-wide [`Registry::global`]; use
    /// [`ServeHandle::spawn_in`] to register elsewhere.
    pub fn spawn(store: Arc<GoldenStore>, config: ServeConfig) -> ServeHandle {
        ServeHandle::spawn_in(store, config, Registry::global())
    }

    /// Like [`ServeHandle::spawn`], registering the handle's metrics in
    /// `registry` instead of the process-wide one (test isolation, or one
    /// registry per embedded fleet).
    pub fn spawn_in(store: Arc<GoldenStore>, _config: ServeConfig, registry: Registry) -> ServeHandle {
        ServeHandle {
            store,
            scored: Arc::new(AtomicU64::new(0)),
            tracer: registry.tracer().clone(),
            metrics: Arc::new(ServeMetrics::new(&registry)),
            registry,
        }
    }

    /// Snapshots the registry this handle reports into — the in-process
    /// form of the `DSMX` metrics scrape. Counters are monotonically
    /// consistent across successive calls.
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

    /// Total signatures scored successfully through this handle (shared
    /// with every clone and with the owning [`Server`], if any).
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

    /// Screens an adaptive-retest batch through [`score::retest`]: every
    /// device's single-shot signature **and** the measurement repeats
    /// captured so far (a prefix of the schedule) are scored in request
    /// order, then the pure escalation walk of
    /// [`dsig_core::RetestPolicy::escalate`] re-decides marginal devices from
    /// averaged repeats, clamped to the repeats sent — server-side, before
    /// any verdict is answered. Returns one [`RetestScore`] per device in
    /// request order.
    ///
    /// The averaged NDF of a retested device is bit-identical to
    /// [`dsig_core::TestFlow::evaluate_averaged`] over the consumed repeats,
    /// and the peak Hamming distance folds the initial capture with every
    /// consumed repeat — exactly what
    /// [`dsig_core::TestFlow::evaluate_with_retest`] computes locally.
    ///
    /// A device that consumes the policy's whole schedule logs a
    /// `retest.cap_hit` event once the whole request has scored, so a
    /// request that fails to score emits none.
    ///
    /// # Errors
    /// As for [`ServeHandle::screen`]; the golden's stored acceptance band
    /// decides marginality and the final verdicts.
    pub fn screen_retest(&self, request: &RetestRequest) -> Result<Vec<RetestScore>> {
        let record = self.fetch_golden(request.golden_key)?;
        let scores = self.scoring(request.signature_count(), || {
            score::retest(&record.golden, &record.band, request)
        })?;
        let cap = request.policy.repeat_cap();
        for device in scores.iter().filter(|s| s.marginal && s.repeats_used >= cap) {
            let key = format!("{:#x}", request.golden_key);
            let used = device.repeats_used.to_string();
            self.registry.events().emit(
                EventLevel::Warn,
                "serve",
                "retest.cap_hit",
                "marginal device consumed the full escalation schedule",
                &[("golden_key", &key), ("repeats_used", &used)],
            );
        }
        Ok(scores)
    }

    /// Scores a batch of observed signatures against the golden stored under
    /// `golden_key` through [`score::screen`], returning one [`ScoreResult`]
    /// per signature in order.
    ///
    /// # Errors
    /// Returns [`ServeError::UnknownGolden`] for an unknown fingerprint and
    /// [`ServeError::Dsig`] if any signature fails to score.
    pub fn screen(&self, golden_key: u64, signatures: &[Signature]) -> Result<Vec<ScoreResult>> {
        let record = self.fetch_golden(golden_key)?;
        self.scoring(signatures.len(), || {
            score::screen(&record.golden, &record.band, signatures)
        })
    }

    /// Runs `run`, which scores `signatures` signatures, on the calling
    /// thread under one `serve.score` span parented under the request's
    /// trace context. A call that scores adds `signatures` to
    /// `serve.signatures_scored` once.
    fn scoring<T>(&self, signatures: usize, run: impl FnOnce() -> dsig_core::Result<Vec<T>>) -> Result<Vec<T>> {
        let mut span = self.tracer.span("serve.score", "serve", trace::current_context());
        let scores = run()?;
        span.annotate("items", signatures);
        self.scored.fetch_add(signatures as u64, Ordering::Relaxed);
        self.metrics.scored.add(signatures as u64);
        Ok(scores)
    }

    /// Scores a single signature (a one-element [`ServeHandle::screen`]).
    ///
    /// # Errors
    /// As for [`ServeHandle::screen`].
    pub fn screen_one(&self, golden_key: u64, signature: &Signature) -> Result<ScoreResult> {
        Ok(self.screen(golden_key, std::slice::from_ref(signature))?[0])
    }
}

/// The scoring server: a TCP listener whose connections run requests on one
/// shared [`WorkPool`], over the [`ServeHandle`] it hands out in-process.
///
/// Dropping (or [`Server::shutdown`]-ing) the server stops accepting new
/// connections; open connections keep serving, and handles keep scoring.
pub struct Server {
    listener: mux::Listener,
    handle: ServeHandle,
}

impl Server {
    /// Binds a listener (use port 0 for an ephemeral port), starts the
    /// request pool of `config.shards` workers (none for one worker, whose
    /// connections answer on their own threads) and the accept loop, and
    /// starts serving.
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
        // One request-processing pool shared by every connection: request
        // concurrency scales with the pool, not with connection count, so
        // one listener fans out to thousands of pipelined clients. With one
        // worker there is no pool: each connection answers on its own thread.
        let pool = (config.shards > 1).then(|| Arc::new(WorkPool::new(config.shards)));
        let handle = ServeHandle::spawn_in(store, config, registry);
        let served = handle.clone();
        // The request handler sees the pool only to sample
        // `serve.queue_depth`, and holds it weakly so the pool is never
        // dropped from one of its own workers.
        let queue = pool.as_ref().map(Arc::downgrade);
        let respond = Arc::new(move |payload: Vec<u8>| {
            let metrics = &served.metrics;
            metrics.bytes_in.add(payload.len() as u64 + 4);
            if let Some(pool) = queue.as_ref().and_then(std::sync::Weak::upgrade) {
                metrics.queue_depth.set(pool.queued() as f64);
            }
            let response = service::respond(&served, &payload, Some(&metrics.decode_errors));
            metrics.bytes_out.add(response.len() as u64 + 4);
            response
        });
        let listener = mux::Listener::bind(addr, pool, respond)?;
        Ok(Server { listener, handle })
    }

    /// The address the server is listening on (with the real port when bound
    /// to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// A new in-process handle scoring against the server's store.
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
        self.listener.shutdown();
    }
}

/// Every request a handle answers, as a frame or as an in-process call, is
/// counted by family (`serve.requests.*`, and `serve.errors.*` when it
/// fails) and timed (`serve.request_us`). Calls of the handle's own methods
/// stay unmetered.
impl Service for ServeHandle {
    fn call(&self, request: Request<'_>) -> Result<Response> {
        let _request_timer = Span::enter(&self.metrics.request_us);
        let (requests, errors) = self.metrics.family(&request);
        requests.inc();
        let response = self.answer(request);
        if response.is_err() {
            errors.inc();
        }
        response
    }
}

impl ServeHandle {
    /// Answers one request, unmetered.
    fn answer(&self, request: Request<'_>) -> Result<Response> {
        Ok(match request {
            Request::Screen(request) => Response::Screen(self.screen(request.golden_key, &request.signatures)?),
            Request::Retest(request) => Response::Retest(self.screen_retest(&request)?),
            Request::PushGolden { key, band, golden } => {
                self.push_golden(key, golden.into_owned(), band);
                Response::Admin(AdminReply::Ack)
            }
            Request::FetchGolden { key } => Response::Admin(AdminReply::Record((*self.fetch_golden(key)?).clone())),
            // A standalone serving process answers the fleet scrapes as a
            // fleet of one: its own snapshot/log, no `backend.*` prefixes, so
            // the routing tier and a bare server share one client-side shape.
            Request::Metrics | Request::FleetMetrics => Response::Metrics(self.metrics()),
            Request::Traces => Response::Traces(self.traces()),
            Request::Events => Response::Events(self.events()),
            Request::Health => Response::Health(self.health(&SloPolicy::default())),
            // A leaf serving process has no fleet to administer; only the
            // routing tier accepts membership verbs.
            Request::Admin(_) => {
                return Err(
                    DsigError::InvalidConfig("fleet admin verbs are only valid against a routing tier".into()).into(),
                )
            }
        })
    }
}

impl RemoteScorer for ServeHandle {
    fn screen_remote(&self, golden_key: u64, signatures: &[Signature]) -> dsig_core::Result<Vec<ScoreResult>> {
        self.screen(golden_key, signatures).map_err(ServeError::into_dsig)
    }

    fn retest_remote(&self, request: &RetestRequest) -> dsig_core::Result<Vec<RetestScore>> {
        self.screen_retest(request).map_err(ServeError::into_dsig)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsig_core::{AcceptanceBand, SignatureEntry, TestOutcome, ZoneCode};
    use std::net::TcpStream;

    /// A signature of 1 µs counts.
    fn sig(codes: &[(u32, u32)]) -> Signature {
        Signature::new(
            1e-6,
            codes
                .iter()
                .map(|&(c, n)| SignatureEntry {
                    code: ZoneCode(c),
                    count: n,
                })
                .collect(),
        )
        .unwrap()
    }

    fn store_with_golden(key: u64) -> Arc<GoldenStore> {
        let store = GoldenStore::new();
        store.insert(key, sig(&[(1, 100), (3, 100)]), AcceptanceBand::new(0.05).unwrap());
        Arc::new(store)
    }

    /// Scores `observed` with the reference `ndf` and
    /// `peak_hamming_distance`, independent of the production scorer.
    fn direct_score(record: &GoldenRecord, observed: &Signature) -> ScoreResult {
        let ndf = dsig_core::ndf(&record.golden, observed).unwrap();
        ScoreResult {
            ndf,
            peak_hamming: dsig_core::peak_hamming_distance(&record.golden, observed).unwrap(),
            outcome: record.band.decide(ndf),
        }
    }

    #[test]
    fn handle_screens_in_process_and_matches_direct_scoring() {
        let store = store_with_golden(9);
        let server = Server::bind("127.0.0.1:0", Arc::clone(&store), ServeConfig::with_shards(3)).unwrap();
        let handle = server.handle();
        let observed = vec![
            sig(&[(1, 100), (3, 100)]), // the golden itself
            sig(&[(1, 100), (7, 100)]), // one zone rewritten
            sig(&[(5, 200)]),           // grossly defective
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
    fn batches_score_in_request_order() {
        let store = store_with_golden(1);
        let server = Server::bind("127.0.0.1:0", Arc::clone(&store), ServeConfig::with_shards(4)).unwrap();
        let handle = server.handle();
        // A batch with a recognizable per-item signature: item k dwells k+1
        // microseconds in zone 2.
        let observed: Vec<Signature> = (0..50).map(|k| sig(&[(1, 100), (2, k + 1)])).collect();
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
            handle.screen(999, &[sig(&[(1, 1_000_000)])]),
            Err(ServeError::UnknownGolden(999))
        ));
        assert!(handle.screen(2, &[]).unwrap().is_empty());
        let single = handle.screen_one(2, &sig(&[(1, 100), (3, 100)])).unwrap();
        assert_eq!(single.ndf, 0.0);
    }

    #[test]
    fn a_served_signature_of_another_unit_is_answered_with_an_error_not_a_score() {
        // The golden counts 1 µs; the observed copy holds the same codes and
        // counts in 0.1 µs ticks.
        let store = store_with_golden(4);
        let server = Server::bind("127.0.0.1:0", store, ServeConfig::with_shards(1)).unwrap();
        let golden = sig(&[(1, 100), (3, 100)]);
        let ticks = Signature::new(1e-7, golden.entries().to_vec()).unwrap();
        let in_process = server.handle().screen(4, std::slice::from_ref(&ticks));
        assert!(
            matches!(&in_process, Err(ServeError::Dsig(dsig_core::DsigError::InvalidSignature(m))) if m.contains("per count")),
            "{in_process:?}"
        );
        // Over TCP, a `DSRQ` carrying it draws an error reply for the whole
        // request, and the connection goes on serving.
        let client = crate::ServeClient::connect(server.local_addr()).unwrap();
        let served = client.screen(4, &[golden.clone(), ticks]);
        assert!(
            matches!(&served, Err(ServeError::Remote(m)) if m.contains("per count")),
            "{served:?}"
        );
        assert_eq!(client.screen(4, &[golden]).unwrap()[0].ndf, 0.0);
    }

    #[test]
    fn spawned_handle_scores_without_a_listener_and_serves_admin_ops() {
        let store = store_with_golden(11);
        let handle = ServeHandle::spawn(Arc::clone(&store), ServeConfig::with_shards(2));
        let observed = sig(&[(1, 100), (3, 100)]);
        assert_eq!(handle.screen_one(11, &observed).unwrap().ndf, 0.0);
        assert_eq!(handle.signatures_scored(), 1);
        // Push then read back a second golden through the admin surface.
        assert!(matches!(handle.fetch_golden(12), Err(ServeError::UnknownGolden(12))));
        handle.push_golden(12, sig(&[(2, 50)]), AcceptanceBand::new(0.01).unwrap());
        let record = handle.fetch_golden(12).unwrap();
        assert_eq!(record.band.ndf_threshold, 0.01);
        assert_eq!(record.golden, sig(&[(2, 50)]));
    }

    #[test]
    fn retest_screening_escalates_marginal_devices_server_side() {
        use crate::proto::RetestItem;
        use dsig_core::RetestPolicy;

        let store = store_with_golden(4);
        let record = store.get(4).unwrap();
        let handle = ServeHandle::spawn(Arc::clone(&store), ServeConfig::with_shards(3));
        // Three devices: one far inside the band, one marginal whose repeats
        // push it over the threshold (a PASS -> FAIL flip), one marginal and
        // confirmed by its repeats.
        let clean = sig(&[(1, 100), (3, 100)]);
        let marginal_bad = sig(&[(1, 100), (3, 91), (7, 9)]);
        let worse = sig(&[(1, 100), (3, 80), (7, 20)]);
        let marginal_ok = sig(&[(1, 100), (3, 92), (7, 8)]);
        let single = |s: &Signature| direct_score(&record, s);
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
        // The in-process path still works: it needs no listener.
        let handle = server.handle();
        assert!(handle.screen(3, &[sig(&[(1, 100), (3, 100)])]).is_ok());
    }
}
