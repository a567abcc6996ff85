//! The TCP client: one [`Service`] over two transports.
//!
//! [`Client`] implements [`Service`] over a small sealed exchange seam: one
//! encoded request frame in, its response payload out. Its one `call`
//! encodes the [`Request`], exchanges it (resent on a dead connection only
//! when [`Request::resendable`] allows) and decodes the reply in the
//! request's family, checking that a screen or retest is answered with one
//! result per item and reporting an unknown golden under the request's key.
//! The typed operations — screening, adaptive retest, golden push and
//! fetch, the observability scrapes and drains, the fleet-admin verbs — are
//! thin wrappers over that call. The two instantiations differ only in the
//! transport:
//!
//! * [`ServeClient`] — the blocking transport: one connection, one request
//!   in flight, each exchange a write-then-read on the caller's thread (no
//!   reader thread, no channel). Throughput comes from batching (many
//!   signatures per request) and from running several clients in parallel.
//! * [`PipelinedClient`] — the multiplexed transport: one connection, **N
//!   requests in flight**, responses matched by the echoed request id and
//!   completed out of order. Cheap to clone; every clone shares the
//!   connection, so thousands of caller threads fan in over one stream.
//!
//! A serving process and a routing tier speak the same protocol, so both
//! clients talk to either.
//!
//! # Retry semantics
//!
//! Nearly every request is pure (screening scores, golden pushes and
//! fetches, metrics scrapes and the fleet-admin verbs are all idempotent), so
//! both transports transparently resend a request **once** when the
//! connection turns out to be dead — a server restart or an idle-timeout
//! close between requests does not surface to the caller. If the
//! replacement connection dies too (a crash-looping or shedding server), the
//! request fails with the I/O error instead of being redialed forever.
//! Under pipelining only the **unacknowledged** requests are resubmitted,
//! with their original ids; requests whose responses already arrived are
//! never resent.
//!
//! The drains — the `DSTX` trace drain and the `DSEX` event drain — are the
//! exception on both transports: draining consumes records, so a
//! drain whose connection dies fails with the connection error instead of
//! being silently re-issued (the drain may or may not have happened
//! server-side).

use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, Weak};

use dsig_core::{recover, AcceptanceBand, DsigError, Signature};

use dsig_obs::{EventLevel, EventLog, HealthReport, MetricsSnapshot, Registry, TraceLog};

use crate::error::{Result, ServeError};
use crate::proto::{
    encode_request, encode_retest_request, read_frame, stamp_request_id, write_frame, AdminReply, AdminRequest, Family,
    FleetRoster, Request, Response, RetestRequest, RetestScore, ScoreResult,
};
use crate::service::Service;

mod seam {
    use crate::error::Result;

    /// The exchange seam [`super::Client`] writes its typed operations over.
    /// Sealed: implemented by the two transports of this module only.
    pub trait Exchange: Send + Sync {
        /// Sends one encoded request frame and returns its response payload.
        /// `resend` says whether the request may ride a second connection
        /// when the first turns out dead; drains may not.
        fn exchange(&self, frame: Vec<u8>, resend: bool) -> Result<Vec<u8>>;
    }
}

/// A typed client of the serving protocol over transport `T`: either
/// [`ServeClient`] (blocking) or [`PipelinedClient`] (multiplexed). Every
/// method takes `&self`.
///
/// See the module docs for the retry semantics.
#[derive(Clone)]
pub struct Client<T> {
    transport: T,
}

/// The blocking TCP client: one connection, one request in flight.
///
/// # Examples
///
/// Screen one observed signature against a served golden:
///
/// ```
/// use std::sync::Arc;
/// use cut_filters::BiquadParams;
/// use dsig_core::{AcceptanceBand, TestSetup};
/// use dsig_serve::{GoldenStore, ServeClient, ServeConfig, Server};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let setup = TestSetup::paper_default()?.with_sample_rate(1e6)?;
/// let reference = BiquadParams::paper_default();
/// let store = Arc::new(GoldenStore::new());
/// let key = store.characterize(&setup, &reference, AcceptanceBand::new(0.03)?)?;
/// let server = Server::bind("127.0.0.1:0", store, ServeConfig::default())?;
///
/// let observed = setup.signature_of(&reference, 7)?;
/// let client = ServeClient::connect(server.local_addr())?;
/// let score = client.screen_one(key, &observed)?;
/// assert_eq!(score.ndf, 0.0, "the nominal device matches its golden exactly");
/// # Ok(())
/// # }
/// ```
pub type ServeClient = Client<Blocking>;

/// The multiplexed TCP client: one connection, many requests in flight,
/// responses matched to callers by the echoed request id.
///
/// Cloning is cheap and every clone shares the connection and id space —
/// hand clones to as many threads as you like. The `start_*` / `wait_*`
/// pairs return and redeem a [`Ticket`] instead of blocking, which is how
/// one thread keeps hundreds of requests in flight.
pub type PipelinedClient = Client<Pipelined>;

impl<T: seam::Exchange> Service for Client<T> {
    fn call(&self, request: Request<'_>) -> Result<Response> {
        let payload = self.transport.exchange(request.encode(), request.resendable())?;
        reply(&request, &payload)
    }
}

impl<T: seam::Exchange> Client<T> {
    /// Scores a batch of observed signatures against the golden stored under
    /// `golden_key` on the server (routed to its owning backend by a routing
    /// tier), returning one [`ScoreResult`] per signature in request order.
    ///
    /// # Errors
    /// Returns [`ServeError::UnknownGolden`] if the server does not hold the
    /// fingerprint, [`ServeError::Remote`] for other server-side failures,
    /// [`ServeError::Protocol`] on malformed responses and
    /// [`ServeError::Io`] on dead connections (after one transparent
    /// reconnect attempt).
    pub fn screen(&self, golden_key: u64, signatures: &[Signature]) -> Result<Vec<ScoreResult>> {
        self.call(Request::screen(golden_key, signatures))?.into_body()
    }

    /// Scores a single signature (a one-element [`Client::screen`]).
    ///
    /// # Errors
    /// As for [`Client::screen`].
    pub fn screen_one(&self, golden_key: u64, signature: &Signature) -> Result<ScoreResult> {
        Ok(self.screen(golden_key, std::slice::from_ref(signature))?[0])
    }

    /// Screens an adaptive-retest batch (`DSRT`): each device's single-shot
    /// signature plus its measurement repeats, re-decided server-side through
    /// the request's retest policy. Returns one [`RetestScore`] per device in
    /// request order.
    ///
    /// # Errors
    /// As for [`Client::screen`].
    pub fn screen_retest(&self, request: &RetestRequest) -> Result<Vec<RetestScore>> {
        self.call(Request::retest(request))?.into_body()
    }

    /// Stores (or replaces) a golden record on the server (`DSGP`) — the
    /// replication push a routing tier uses to place goldens on backends.
    ///
    /// # Errors
    /// As for [`Client::screen`] (minus `UnknownGolden`).
    pub fn push_golden(&self, key: u64, band: AcceptanceBand, golden: &Signature) -> Result<()> {
        match self.call(Request::push(key, band, golden))?.into_body()? {
            AdminReply::Ack => Ok(()),
            other => Err(ServeError::Protocol(format!("push answered with {other:?}"))),
        }
    }

    /// Reads a golden record back from the server (`DSGF`) — the readback a
    /// routing tier uses to refresh its local store on a miss.
    ///
    /// # Errors
    /// Returns [`ServeError::UnknownGolden`] when the server has no record
    /// under `key`; otherwise as for [`Client::screen`].
    pub fn fetch_golden(&self, key: u64) -> Result<(AcceptanceBand, Signature)> {
        match self.call(Request::FetchGolden { key })?.into_body()? {
            AdminReply::Record(record) => Ok((record.band, record.golden)),
            other => Err(ServeError::Protocol(format!("fetch answered with {other:?}"))),
        }
    }

    /// Scrapes the server's live metrics registry (`DSMX`), returning its
    /// [`MetricsSnapshot`] — the operator's view of request counters,
    /// request latencies and traffic totals. Counters are monotonically consistent
    /// across successive scrapes of the same process.
    ///
    /// # Errors
    /// As for [`Client::screen`] (minus `UnknownGolden`).
    pub fn metrics(&self) -> Result<MetricsSnapshot> {
        self.call(Request::Metrics)?.into_body()
    }

    /// Scrapes the fleet-wide merged metrics (`DSFM`): against a routing
    /// tier the snapshot carries every backend's metrics under
    /// `backend.<label>.` prefixes, the cross-backend rollup under `fleet.`
    /// and the router's own registry unprefixed; a bare server answers its
    /// own snapshot — a fleet of one. Idempotent, like `DSMX`.
    ///
    /// # Errors
    /// As for [`Client::metrics`].
    pub fn fleet_metrics(&self) -> Result<MetricsSnapshot> {
        self.call(Request::FleetMetrics)?.into_body()
    }

    /// Drains the server's buffered trace spans (`DSTX`), returning its
    /// [`TraceLog`]. Scraping consumes: each span is exported at most once,
    /// so successive scrapes return disjoint span sets — and a drain is
    /// never resent on a dead connection.
    ///
    /// # Errors
    /// As for [`Client::metrics`].
    pub fn traces(&self) -> Result<TraceLog> {
        self.call(Request::Traces)?.into_body()
    }

    /// Drains the server's structured event log (`DSEX`): backend
    /// backoff/recovery transitions, reconnects, refresh-on-miss records.
    /// Consuming, like `DSTX`: each event is exported at most once.
    ///
    /// # Errors
    /// As for [`Client::metrics`].
    pub fn events(&self) -> Result<EventLog> {
        self.call(Request::Events)?.into_body()
    }

    /// Asks the server to evaluate its own health (`DSHC`), returning the
    /// PASS/DEGRADED/FAIL [`HealthReport`]; a routing tier folds in backend
    /// reachability and its membership epoch. Idempotent.
    ///
    /// # Errors
    /// As for [`Client::metrics`].
    pub fn health(&self) -> Result<HealthReport> {
        self.call(Request::Health)?.into_body()
    }

    /// Asks a routing tier to admit the backend at `label` (`DSAQ` join: a
    /// dialable `host:port`, or an existing member's label to reactivate it)
    /// and waits for the golden migration to complete, returning the roster
    /// after the membership change. Idempotent by label: joining a member
    /// that is already active is an acknowledged no-op.
    ///
    /// # Errors
    /// Returns [`ServeError::Remote`] when the peer rejects the verb (a leaf
    /// serving process is not a routing tier, an unparseable label);
    /// otherwise as for [`Client::metrics`].
    pub fn fleet_join(&self, label: &str) -> Result<FleetRoster> {
        self.admin(AdminRequest::Join { label: label.into() })
    }

    /// Asks a routing tier to remove the member at `label` (`DSAQ` leave),
    /// re-replicating its goldens to the surviving owners first. Idempotent
    /// by label: leaving an unknown member is an acknowledged no-op; the last
    /// member cannot leave.
    ///
    /// # Errors
    /// As for [`Client::fleet_join`].
    pub fn fleet_leave(&self, label: &str) -> Result<FleetRoster> {
        self.admin(AdminRequest::Leave { label: label.into() })
    }

    /// Asks a routing tier to drain the member at `label` (`DSAQ` drain):
    /// its goldens are re-replicated and new work steers away, but the
    /// member stays in the roster as a last resort. Idempotent by label.
    ///
    /// # Errors
    /// As for [`Client::fleet_join`].
    pub fn fleet_drain(&self, label: &str) -> Result<FleetRoster> {
        self.admin(AdminRequest::Drain { label: label.into() })
    }

    /// Reads the routing tier's live membership roster (`DSAQ` list): the
    /// current epoch plus every member's label, id and state. Idempotent.
    ///
    /// # Errors
    /// As for [`Client::fleet_join`].
    pub fn fleet_roster(&self) -> Result<FleetRoster> {
        self.admin(AdminRequest::List)
    }

    /// One fleet-admin verb, answered with the post-change roster.
    fn admin(&self, request: AdminRequest) -> Result<FleetRoster> {
        match self.call(Request::Admin(request))?.into_body()? {
            AdminReply::Roster(roster) => Ok(roster),
            other => Err(ServeError::Protocol(format!("admin verb answered with {other:?}"))),
        }
    }
}

/// Decodes `payload` as the reply to `request`: a body of the request's
/// family, or the server's error (see [`crate::proto::Reply::into_result`]),
/// with one result per item for a screen or retest.
fn reply(request: &Request<'_>, payload: &[u8]) -> Result<Response> {
    let response = request.family().decode(payload)?.into_result(request.golden_key())?;
    Ok(match (response, request) {
        (Response::Screen(scores), Request::Screen(screen)) => {
            Response::Screen(check_count(scores, screen.signatures.len())?)
        }
        (Response::Retest(scores), Request::Retest(retest)) => {
            Response::Retest(check_count(scores, retest.items.len())?)
        }
        (response, _) => response,
    })
}

/// Checks that a response carries one result per request item.
fn check_count<S>(results: Vec<S>, expected: usize) -> Result<Vec<S>> {
    if results.len() != expected {
        return Err(ServeError::Protocol(format!(
            "server returned {} results for {expected} requested",
            results.len(),
        )));
    }
    Ok(results)
}

/// The blocking transport of [`ServeClient`]: one connection, exchanged on
/// the caller's thread. The lock only serializes callers sharing one client;
/// it is uncontended in the one-thread use it is built for.
pub struct Blocking {
    addr: SocketAddr,
    /// The live connection; `None` after a failed exchange, redialed by the
    /// next one.
    conn: Mutex<Option<Connection>>,
}

/// One dialed connection of the blocking transport.
struct Connection {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Connection {
    fn dial(addr: impl ToSocketAddrs) -> Result<Connection> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Connection {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
        })
    }

    /// Writes one request frame and reads the response frame.
    fn exchange(&mut self, request: &[u8]) -> Result<Vec<u8>> {
        write_frame(&mut self.writer, request)?;
        self.writer.flush()?;
        read_frame(&mut self.reader)?.ok_or_else(|| {
            ServeError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection before responding",
            ))
        })
    }
}

impl ServeClient {
    /// Connects to a scoring server or routing tier.
    ///
    /// # Errors
    /// Returns [`ServeError::Io`] on connection errors.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self> {
        let conn = Connection::dial(addr)?;
        let addr = conn.writer.get_ref().peer_addr()?;
        Ok(Client {
            transport: Blocking {
                addr,
                conn: Mutex::new(Some(conn)),
            },
        })
    }
}

impl Blocking {
    /// One exchange on the live connection, dialing first if the last one
    /// failed. A failure drops the connection, so the next exchange
    /// redials.
    fn exchange_once(&self, conn: &mut Option<Connection>, frame: &[u8]) -> Result<Vec<u8>> {
        // The connection leaves its slot for the exchange and returns only
        // after a whole one: a failed exchange, or a panic inside one, leaves
        // the slot empty and the next call redials.
        let mut live = match conn.take() {
            Some(live) => live,
            None => Connection::dial(self.addr)?,
        };
        let response = live.exchange(frame)?;
        *conn = Some(live);
        Ok(response)
    }
}

impl seam::Exchange for Blocking {
    fn exchange(&self, frame: Vec<u8>, resend: bool) -> Result<Vec<u8>> {
        let mut conn = recover(self.conn.lock());
        match self.exchange_once(&mut conn, &frame) {
            Err(ServeError::Io(_)) if resend => self.exchange_once(&mut conn, &frame),
            response => response,
        }
    }
}

/// Upper bound on one (re)dial. Redials run with callers waiting — the
/// reconnect path even holds the state lock — so a dial to a black-holed
/// host must fail within this bound instead of stalling every clone for the
/// OS connect default (which can be minutes).
const DIAL_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(5);

/// A pending response slot: the ticket's receiver plus everything needed to
/// resubmit the request if the connection dies underneath it.
struct PendingEntry {
    /// The encoded request frame, id already stamped — resent verbatim on
    /// reconnect (if `resend` allows it).
    frame: Vec<u8>,
    /// Whether the request may be resubmitted at all (drains may not).
    resend: bool,
    /// Delivers the response payload (or the terminal error) to the ticket.
    tx: mpsc::Sender<Result<Vec<u8>>>,
    /// Whether the one-redial retry budget is spent: a request rides at most
    /// two connections — if the one it was resubmitted on dies too, it fails
    /// instead of riding a crash loop forever.
    resubmitted: bool,
}

/// Shared connection state: the write half plus the in-flight table.
struct MuxState {
    /// Write half of the live connection; `None` between connections.
    writer: Option<BufWriter<TcpStream>>,
    /// Bumped on every (re)connect so a stale reader thread — one belonging
    /// to an already-replaced connection — recognizes itself and exits
    /// without touching the table.
    generation: u64,
    /// In-flight requests by id. An entry leaves the table exactly once:
    /// when its response arrives, when a failed reconnect fails it, or when
    /// corruption poisons the client.
    pending: HashMap<u64, PendingEntry>,
    /// Set when the stream returned a response id that matches nothing —
    /// ids can no longer be trusted, so the client is terminally dead.
    poisoned: Option<String>,
}

struct MuxInner {
    addr: SocketAddr,
    state: Mutex<MuxState>,
    /// Monotonic id source; ids start at 1 (0 is the encoders' placeholder).
    next_id: AtomicU64,
}

impl Drop for MuxInner {
    fn drop(&mut self) {
        // The reader thread holds only a `Weak` to this state, so it cannot
        // keep the client alive — but it is blocked in `read_frame`.
        // Shutting the socket down (both halves share one underlying
        // socket) pops it out with an EOF.
        if let Ok(state) = self.state.lock() {
            if let Some(writer) = &state.writer {
                let _ = writer.get_ref().shutdown(std::net::Shutdown::Both);
            }
        }
    }
}

/// A handle to one in-flight [`PipelinedClient`] request: redeem it with
/// [`Ticket::wait`] for the raw response payload. Tickets resolve in
/// whatever order the server finishes — that is the point of pipelining —
/// and may be waited from any thread.
pub struct Ticket {
    rx: mpsc::Receiver<Result<Vec<u8>>>,
    /// Keeps the connection alive until redeemed, and lets `wait` drain the
    /// shared write buffer before blocking.
    inner: Arc<MuxInner>,
}

impl Ticket {
    /// Blocks until the response (or the connection's terminal error)
    /// arrives, returning the raw response payload.
    ///
    /// Submitted frames may still be sitting in the connection's write
    /// buffer (submission only buffers — that is what batches a burst of
    /// `start_*` calls into a handful of syscalls), so `wait` pushes the
    /// buffer to the wire before blocking: redeeming any ticket guarantees
    /// every previously submitted request is actually on its way.
    ///
    /// # Errors
    /// Returns whatever error killed the request: [`ServeError::Io`] for a
    /// dead connection that could not be transparently retried, or
    /// [`ServeError::Dsig`] ([`DsigError::Corrupt`]) when the stream
    /// produced an unmatchable response id.
    pub fn wait(self) -> Result<Vec<u8>> {
        {
            let mut state = recover(self.inner.state.lock());
            if let Some(writer) = state.writer.as_mut() {
                if !writer.buffer().is_empty() && writer.flush().is_err() {
                    reconnect(&self.inner, &mut state);
                }
            }
        }
        self.rx.recv().unwrap_or_else(|_| {
            Err(ServeError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "pipelined connection dropped the request without resolving it",
            )))
        })
    }
}

/// The multiplexed transport of [`PipelinedClient`]: one connection shared
/// by every clone, with a reader thread matching responses to tickets by id.
#[derive(Clone)]
pub struct Pipelined {
    inner: Arc<MuxInner>,
}

impl PipelinedClient {
    /// Connects to a scoring server or routing tier.
    ///
    /// # Errors
    /// Returns [`ServeError::Io`] on connection errors.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self> {
        let stream = TcpStream::connect(addr)?;
        let addr = stream.peer_addr()?;
        let inner = Arc::new(MuxInner {
            addr,
            state: Mutex::new(MuxState {
                writer: None,
                generation: 0,
                pending: HashMap::new(),
                poisoned: None,
            }),
            next_id: AtomicU64::new(1),
        });
        let mut state = recover(inner.state.lock());
        attach_stream(&inner, &mut state, stream)?;
        drop(state);
        Ok(Client {
            transport: Pipelined { inner },
        })
    }

    /// Starts a screening request (`DSRQ`); redeem with
    /// [`PipelinedClient::wait_screen`].
    ///
    /// # Errors
    /// As for [`Ticket::wait`].
    pub fn start_screen(&self, golden_key: u64, signatures: &[Signature]) -> Result<Ticket> {
        self.transport.submit(encode_request(golden_key, signatures), true)
    }

    /// Redeems a [`PipelinedClient::start_screen`] ticket.
    ///
    /// # Errors
    /// As for [`Client::screen`].
    pub fn wait_screen(&self, ticket: Ticket, expected: usize, golden_key: u64) -> Result<Vec<ScoreResult>> {
        let scores = Family::Screen.decode(&ticket.wait()?)?.into_result(Some(golden_key))?;
        check_count(scores.into_body()?, expected)
    }

    /// Starts an adaptive-retest request (`DSRT`); redeem with
    /// [`PipelinedClient::wait_retest`].
    ///
    /// # Errors
    /// As for [`Ticket::wait`].
    pub fn start_retest(&self, request: &RetestRequest) -> Result<Ticket> {
        self.transport.submit(encode_retest_request(request), true)
    }

    /// Redeems a [`PipelinedClient::start_retest`] ticket.
    ///
    /// # Errors
    /// As for [`Client::screen_retest`].
    pub fn wait_retest(&self, ticket: Ticket, expected: usize, golden_key: u64) -> Result<Vec<RetestScore>> {
        let scores = Family::Retest.decode(&ticket.wait()?)?.into_result(Some(golden_key))?;
        check_count(scores.into_body()?, expected)
    }
}

impl Pipelined {
    /// Submits one encoded request frame and returns its [`Ticket`]. The
    /// frame is stamped with a fresh id; the response with the matching id
    /// resolves the ticket, whenever it arrives.
    ///
    /// # Errors
    /// Returns [`ServeError::Io`] if the connection is down and redialing
    /// fails, and the poisoning [`ServeError::Dsig`] if a protocol
    /// violation has terminally killed this client.
    fn submit(&self, mut frame: Vec<u8>, resend: bool) -> Result<Ticket> {
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        stamp_request_id(&mut frame, id);
        let (tx, rx) = mpsc::channel();
        let mut state = recover(self.inner.state.lock());
        if let Some(detail) = &state.poisoned {
            return Err(poison_error(detail));
        }
        if state.writer.is_none() {
            // Lazy redial after an idle server-side close — with the lock
            // released, so a slow dial stalls neither other clones'
            // submissions nor the reader's response delivery.
            drop(state);
            let stream = TcpStream::connect_timeout(&self.inner.addr, DIAL_TIMEOUT)?;
            state = recover(self.inner.state.lock());
            if let Some(detail) = &state.poisoned {
                return Err(poison_error(detail));
            }
            // A clone may have redialed while the lock was free; theirs
            // wins and our stream just drops.
            if state.writer.is_none() {
                attach_stream(&self.inner, &mut state, stream)?;
            }
        }
        // The pending table owns the frame (for resubmit-on-reconnect); the
        // wire write borrows it from there, so the hot path never copies it.
        state.pending.insert(
            id,
            PendingEntry {
                frame,
                resend,
                tx,
                resubmitted: false,
            },
        );
        let MuxState { writer, pending, .. } = &mut *state;
        let frame = &pending[&id].frame;
        let writer = writer.as_mut().expect("connected above");
        if write_frame(writer, frame).is_err() {
            // The connection died under us; one transparent reconnect
            // resubmits everything in flight that may be resent.
            reconnect(&self.inner, &mut state);
        }
        // No flush here: the frame sits in the write buffer until the buffer
        // overflows onto the wire or a [`Ticket::wait`] drains it. A burst
        // of submissions thus coalesces into a handful of write syscalls,
        // and redeeming any ticket guarantees delivery of them all.
        Ok(Ticket {
            rx,
            inner: Arc::clone(&self.inner),
        })
    }
}

impl seam::Exchange for Pipelined {
    fn exchange(&self, frame: Vec<u8>, resend: bool) -> Result<Vec<u8>> {
        self.submit(frame, resend)?.wait()
    }
}

/// The terminal error a poisoned client answers everything with.
fn poison_error(detail: &str) -> ServeError {
    ServeError::Dsig(DsigError::Corrupt {
        context: "mux response stream",
        detail: detail.to_string(),
    })
}

/// Installs a freshly dialed stream into the state — new writer, bumped
/// generation, new reader thread — without touching the pending table.
fn attach_stream(inner: &Arc<MuxInner>, state: &mut MuxState, stream: TcpStream) -> Result<()> {
    stream.set_nodelay(true)?;
    let read_half = stream.try_clone()?;
    // The reader starts before the state changes, so a failed spawn leaves
    // the state as it was. It cannot see the state before the caller
    // releases the lock.
    let generation = state.generation + 1;
    let weak = Arc::downgrade(inner);
    std::thread::spawn(move || reader_loop(&weak, read_half, generation));
    state.writer = Some(BufWriter::new(stream));
    state.generation = generation;
    Ok(())
}

/// Tears down the current connection and dials **once**: unacknowledged
/// resendable requests that have not been resubmitted before are resubmitted
/// with their original ids (and their one-redial budget marked spent);
/// pending drains, requests whose budget is already spent and — if the
/// redial fails — everything else resolve to the connection error. Callers
/// already hold the lock.
fn reconnect(inner: &Arc<MuxInner>, state: &mut MuxState) {
    state.writer = None;
    // Invalidate the old reader even if redialing fails.
    state.generation += 1;
    // Fail the drains rather than re-issuing them, and the
    // requests whose single transparent resubmission is already spent — the
    // budget is what keeps a server that accepts and immediately dies again
    // (crash loop, overload shedding) from being redialed forever while
    // callers hang.
    let spent: Vec<u64> = state
        .pending
        .iter()
        .filter(|(_, entry)| entry.resubmitted || !entry.resend)
        .map(|(&id, _)| id)
        .collect();
    for id in spent {
        if let Some(entry) = state.pending.remove(&id) {
            let message = if !entry.resend {
                "connection died before the drain resolved; not resubmitted (drains are not idempotent)"
            } else {
                "connection died again after the request's one transparent resubmission"
            };
            let _ = entry.tx.send(Err(ServeError::Io(std::io::Error::new(
                std::io::ErrorKind::ConnectionReset,
                message,
            ))));
        }
    }
    if state.pending.is_empty() {
        // Nothing left to resubmit: skip the redial and let the next call
        // dial lazily (outside the lock).
        return;
    }
    let failure = match TcpStream::connect_timeout(&inner.addr, DIAL_TIMEOUT)
        .map_err(ServeError::from)
        .and_then(|stream| attach_stream(inner, state, stream))
    {
        Err(err) => Some(err),
        Ok(()) => {
            let MuxState { writer, pending, .. } = &mut *state;
            let writer = writer.as_mut().expect("attached above");
            pending
                .values_mut()
                .try_fold((), |(), entry| {
                    entry.resubmitted = true;
                    write_frame(writer, &entry.frame)
                })
                .and_then(|()| writer.flush().map_err(Into::into))
                .err()
        }
    };
    if let Some(err) = failure {
        // The retry is spent: resolve every survivor with the error.
        state.writer = None;
        let message = err.to_string();
        for (_, entry) in state.pending.drain() {
            let _ = entry.tx.send(Err(ServeError::Io(std::io::Error::new(
                std::io::ErrorKind::ConnectionReset,
                message.clone(),
            ))));
        }
    } else {
        let resubmitted = state.pending.len().to_string();
        let peer = inner.addr.to_string();
        Registry::global().events().emit(
            EventLevel::Warn,
            "client",
            "mux.reconnect",
            "connection died; redialed and resubmitted the unacknowledged idempotent requests",
            &[("peer", &peer), ("resubmitted", &resubmitted)],
        );
    }
}

/// The demultiplexing read half: matches response ids to pending tickets.
/// One reader exists per connection generation; a reader that detects it is
/// stale (the connection was replaced underneath it) exits silently.
fn reader_loop(inner: &Weak<MuxInner>, stream: TcpStream, generation: u64) {
    let mut reader = BufReader::new(stream);
    loop {
        let outcome = read_frame(&mut reader);
        // Upgrade after the blocking read: if every client handle is gone
        // (the drop shut the socket down to wake us), just exit.
        let Some(inner) = inner.upgrade() else {
            return;
        };
        let mut state = recover(inner.state.lock());
        if state.generation != generation {
            return;
        }
        match outcome {
            Ok(Some(payload)) => {
                let id = crate::proto::peek_request_id(&payload);
                match state.pending.remove(&id) {
                    Some(entry) => {
                        let _ = entry.tx.send(Ok(payload));
                    }
                    None => {
                        // An id matching nothing in flight — duplicate or
                        // never-issued. The stream can no longer be
                        // trusted to route responses: poison terminally.
                        let detail = format!("response carries unknown or duplicate request id {id}");
                        state.poisoned = Some(detail.clone());
                        let peer = inner.addr.to_string();
                        Registry::global().events().emit(
                            EventLevel::Error,
                            "client",
                            "mux.poisoned",
                            detail.clone(),
                            &[("peer", &peer)],
                        );
                        if let Some(writer) = &state.writer {
                            let _ = writer.get_ref().shutdown(std::net::Shutdown::Both);
                        }
                        state.writer = None;
                        state.generation += 1;
                        for (_, entry) in state.pending.drain() {
                            let _ = entry.tx.send(Err(poison_error(&detail)));
                        }
                        return;
                    }
                }
            }
            Ok(None) if state.pending.is_empty() => {
                // Idle server-side close: note it and let the next call
                // redial lazily.
                state.writer = None;
                state.generation += 1;
                return;
            }
            // EOF or an unreadable stream with requests in flight: one
            // transparent reconnect, resubmitting the unacknowledged.
            Ok(None) | Err(_) => {
                reconnect(&inner, &mut state);
                return;
            }
        }
    }
}

impl dsig_engine::RemoteScorer for PipelinedClient {
    fn screen_remote(&self, golden_key: u64, signatures: &[Signature]) -> dsig_core::Result<Vec<ScoreResult>> {
        self.screen(golden_key, signatures).map_err(ServeError::into_dsig)
    }

    fn retest_remote(&self, request: &RetestRequest) -> dsig_core::Result<Vec<RetestScore>> {
        self.screen_retest(request).map_err(ServeError::into_dsig)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use dsig_core::{AcceptanceBand, SignatureEntry, TestOutcome, ZoneCode};

    use super::*;
    use crate::proto::{Reply, ScreenResponse};
    use crate::server::{ServeConfig, Server};
    use crate::store::GoldenStore;

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

    fn serve() -> (Server, u64) {
        let store = GoldenStore::new();
        let key = 0xA11CE;
        store.insert(key, sig(&[(1, 100), (3, 100)]), AcceptanceBand::new(0.05).unwrap());
        let server = Server::bind("127.0.0.1:0", Arc::new(store), ServeConfig::with_shards(2)).unwrap();
        (server, key)
    }

    #[test]
    fn client_screens_over_loopback() {
        let (server, key) = serve();
        let client = ServeClient::connect(server.local_addr()).unwrap();
        let observed = vec![sig(&[(1, 100), (3, 100)]), sig(&[(1, 100), (7, 100)])];
        let results = client.screen(key, &observed).unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].ndf, 0.0);
        assert_eq!(results[0].outcome, TestOutcome::Pass);
        assert!(results[1].ndf > 0.0);
        // The TCP path must agree with the in-process path bit-for-bit.
        let direct = server.handle().screen(key, &observed).unwrap();
        assert_eq!(results, direct);
        // Several requests reuse the same connection.
        let single = client.screen_one(key, &observed[1]).unwrap();
        assert_eq!(single, direct[1]);
    }

    #[test]
    fn unknown_golden_is_reported_with_the_key() {
        let (server, _) = serve();
        let client = ServeClient::connect(server.local_addr()).unwrap();
        match client.screen(0xDEAD, &[sig(&[(1, 1_000_000)])]) {
            Err(ServeError::UnknownGolden(key)) => assert_eq!(key, 0xDEAD),
            other => panic!("expected UnknownGolden, got {other:?}"),
        }
        // The connection survives an error response.
        assert!(client.screen(0xA11CE, &[sig(&[(1, 100), (3, 100)])]).is_ok());
    }

    #[test]
    fn empty_batches_round_trip() {
        let (server, key) = serve();
        let client = ServeClient::connect(server.local_addr()).unwrap();
        assert!(client.screen(key, &[]).unwrap().is_empty());
    }

    #[test]
    fn client_reconnects_once_when_the_connection_is_torn_down() {
        use std::net::TcpListener;

        let store = GoldenStore::new();
        let key = 5;
        store.insert(key, sig(&[(1, 100), (3, 100)]), AcceptanceBand::new(0.05).unwrap());
        let handle = crate::server::ServeHandle::spawn(Arc::new(store), ServeConfig::with_shards(1));

        // A deliberately flaky front: the first accepted connection is
        // dropped on the floor (a server-side teardown mid-session); the
        // second is served for real.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let serve_thread = std::thread::spawn(move || {
            let (dead, _) = listener.accept().unwrap();
            drop(dead);
            let (live, _) = listener.accept().unwrap();
            let mut reader = std::io::BufReader::new(live.try_clone().unwrap());
            let mut writer = std::io::BufWriter::new(live);
            while let Ok(Some(payload)) = crate::proto::read_frame(&mut reader) {
                let request = crate::proto::decode_request(&payload).unwrap();
                let results = handle.screen(request.golden_key, &request.signatures).unwrap();
                crate::proto::write_frame(
                    &mut writer,
                    &crate::proto::encode_response(&ScreenResponse::Results(results)),
                )
                .unwrap();
                std::io::Write::flush(&mut writer).unwrap();
            }
        });

        let client = ServeClient::connect(addr).unwrap();
        // The first exchange hits the torn-down connection and must succeed
        // through the one-shot transparent reconnect; later requests reuse
        // the live connection.
        let observed = sig(&[(1, 100), (3, 100)]);
        for _ in 0..3 {
            assert_eq!(client.screen_one(key, &observed).unwrap().ndf, 0.0);
        }
        drop(client);
        serve_thread.join().unwrap();
    }

    #[test]
    fn pipelined_client_screens_and_matches_the_blocking_path() {
        let (server, key) = serve();
        let client = PipelinedClient::connect(server.local_addr()).unwrap();
        let observed = vec![sig(&[(1, 100), (3, 100)]), sig(&[(1, 100), (7, 100)])];
        // Issue a burst of tickets before waiting on any: all in flight on
        // the one connection.
        let tickets: Vec<_> = (0..16).map(|_| client.start_screen(key, &observed).unwrap()).collect();
        let direct = server.handle().screen(key, &observed).unwrap();
        for ticket in tickets {
            assert_eq!(client.wait_screen(ticket, observed.len(), key).unwrap(), direct);
        }
        // Typed blocking wrappers agree too, and clones share the stream.
        assert_eq!(client.clone().screen(key, &observed).unwrap(), direct);
        assert_eq!(client.screen_one(key, &observed[1]).unwrap(), direct[1]);
        assert!(matches!(
            client.screen(0xDEAD, &observed),
            Err(ServeError::UnknownGolden(0xDEAD))
        ));
        // Admin + scrape surfaces run pipelined as well.
        let band = AcceptanceBand::new(0.02).unwrap();
        let second = sig(&[(2, 100)]);
        client.push_golden(0xB0B, band, &second).unwrap();
        assert_eq!(client.fetch_golden(0xB0B).unwrap(), (band, second.clone()));
        assert!(client.metrics().unwrap().counter("serve.requests.dsrq").unwrap() > 0);
        let _ = client.traces().unwrap();
    }

    /// The satellite contract: on a dead connection, the pipelined client
    /// resubmits **only unacknowledged idempotent** requests — an already
    /// answered request is never resent, and the ids survive the redial.
    #[test]
    fn pipelined_reconnect_resubmits_only_unacknowledged_requests() {
        use std::net::TcpListener;

        let store = GoldenStore::new();
        let key = 5;
        let golden = sig(&[(1, 100), (3, 100)]);
        store.insert(key, golden.clone(), AcceptanceBand::new(0.05).unwrap());
        let handle = crate::server::ServeHandle::spawn(Arc::new(store), ServeConfig::with_shards(1));

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let serve_thread = std::thread::spawn(move || {
            let answer = |stream: &std::net::TcpStream, payload: &[u8]| {
                let request = crate::proto::decode_request(payload).unwrap();
                let results = handle.screen(request.golden_key, &request.signatures).unwrap();
                let mut response = crate::proto::encode_response(&ScreenResponse::Results(results));
                crate::proto::stamp_request_id(&mut response, crate::proto::peek_request_id(payload));
                let mut writer = std::io::BufWriter::new(stream);
                crate::proto::write_frame(&mut writer, &response).unwrap();
                std::io::Write::flush(&mut writer).unwrap();
            };
            // Connection 1: answer request A, read request B, then drop the
            // connection with B unacknowledged.
            let (first, _) = listener.accept().unwrap();
            let mut reader = std::io::BufReader::new(first.try_clone().unwrap());
            let frame_a = crate::proto::read_frame(&mut reader).unwrap().unwrap();
            answer(&first, &frame_a);
            let frame_b = crate::proto::read_frame(&mut reader).unwrap().unwrap();
            let id_a = crate::proto::peek_request_id(&frame_a);
            let id_b = crate::proto::peek_request_id(&frame_b);
            drop(reader);
            drop(first);
            // Connection 2: the client must resubmit exactly B (same id) —
            // never the acknowledged A.
            let (second, _) = listener.accept().unwrap();
            let mut reader = std::io::BufReader::new(second.try_clone().unwrap());
            let resubmitted = crate::proto::read_frame(&mut reader).unwrap().unwrap();
            assert_eq!(crate::proto::peek_request_id(&resubmitted), id_b);
            assert_eq!(resubmitted, frame_b, "resubmission must be byte-identical");
            answer(&second, &resubmitted);
            // The follow-up request proves A was never resent: it is the
            // next (and only further) frame on the wire.
            let frame_c = crate::proto::read_frame(&mut reader).unwrap().unwrap();
            assert_ne!(crate::proto::peek_request_id(&frame_c), id_a);
            answer(&second, &frame_c);
            assert!(
                crate::proto::read_frame(&mut reader).unwrap().is_none(),
                "no further resubmissions"
            );
        });

        let client = PipelinedClient::connect(addr).unwrap();
        let observed = vec![golden.clone()];
        let ticket_a = client.start_screen(key, &observed).unwrap();
        let scores_a = client.wait_screen(ticket_a, 1, key).unwrap();
        assert_eq!(scores_a[0].ndf, 0.0);
        // B rides the torn-down connection; the transparent reconnect must
        // resolve it without surfacing an error.
        let ticket_b = client.start_screen(key, &observed).unwrap();
        assert_eq!(client.wait_screen(ticket_b, 1, key).unwrap(), scores_a);
        assert_eq!(client.screen(key, &observed).unwrap(), scores_a);
        drop(client);
        serve_thread.join().unwrap();
    }

    /// A pending `DSTX` trace drain is **not** idempotent: a reconnect must
    /// fail it with the connection error instead of re-issuing it.
    #[test]
    fn pipelined_reconnect_fails_pending_trace_drains_instead_of_resubmitting() {
        use std::net::TcpListener;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let serve_thread = std::thread::spawn(move || {
            // Connection 1: swallow the DSTX frame and hang up.
            let (first, _) = listener.accept().unwrap();
            let mut reader = std::io::BufReader::new(first.try_clone().unwrap());
            let frame = crate::proto::read_frame(&mut reader).unwrap().unwrap();
            assert_eq!(&frame[..4], b"DSTX");
            drop(reader);
            drop(first);
            // With the drain failed there is nothing left to resubmit, so
            // the client must not even redial: poll the listener briefly
            // and reject any second connection.
            listener.set_nonblocking(true).unwrap();
            let deadline = std::time::Instant::now() + std::time::Duration::from_millis(300);
            while std::time::Instant::now() < deadline {
                match listener.accept() {
                    Ok(_) => panic!("a trace drain must not trigger a redial, let alone a resubmission"),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(std::time::Duration::from_millis(10));
                    }
                    Err(e) => panic!("unexpected accept error {e}"),
                }
            }
        });

        let client = PipelinedClient::connect(addr).unwrap();
        assert!(matches!(client.traces(), Err(ServeError::Io(_))));
        drop(client);
        serve_thread.join().unwrap();
    }

    /// The blocking twin: a `DSTX` drain whose connection dies fails with
    /// the connection error — no redial, no resend — and the next request
    /// dials a fresh connection lazily.
    #[test]
    fn blocking_drains_fail_on_a_dead_connection_instead_of_resubmitting() {
        use std::net::TcpListener;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (window_closed, window) = mpsc::channel();
        let serve_thread = std::thread::spawn(move || {
            // Connection 1: swallow the DSTX frame and hang up.
            let (first, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(first.try_clone().unwrap());
            let frame = read_frame(&mut reader).unwrap().unwrap();
            assert_eq!(&frame[..4], b"DSTX");
            drop(reader);
            drop(first);
            // The failed drain must not redial: poll the listener briefly
            // and reject any second connection.
            listener.set_nonblocking(true).unwrap();
            let deadline = std::time::Instant::now() + std::time::Duration::from_millis(300);
            while std::time::Instant::now() < deadline {
                match listener.accept() {
                    Ok(_) => panic!("a trace drain must not trigger a redial, let alone a resubmission"),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(std::time::Duration::from_millis(10));
                    }
                    Err(e) => panic!("unexpected accept error {e}"),
                }
            }
            window_closed.send(()).unwrap();
            // Connection 2, dialed by the next request: answer its scrape.
            listener.set_nonblocking(false).unwrap();
            let (second, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(second.try_clone().unwrap());
            let frame = read_frame(&mut reader).unwrap().unwrap();
            assert_eq!(&frame[..4], b"DSMX");
            let mut response = crate::proto::encode_reply(&Reply::Results(MetricsSnapshot { metrics: vec![] }));
            stamp_request_id(&mut response, crate::proto::peek_request_id(&frame));
            let mut writer = BufWriter::new(&second);
            write_frame(&mut writer, &response).unwrap();
            writer.flush().unwrap();
        });

        let client = ServeClient::connect(addr).unwrap();
        assert!(matches!(client.traces(), Err(ServeError::Io(_))));
        window.recv().unwrap();
        // The dead connection is not reused: the next request redials.
        assert!(client.metrics().unwrap().metrics.is_empty());
        serve_thread.join().unwrap();
    }

    /// Against a server that accepts and immediately dies again, the retry
    /// budget is one transparent resubmission per request: the second dead
    /// connection fails the ticket with [`ServeError::Io`] instead of
    /// redialing forever while the caller hangs.
    #[test]
    fn pipelined_requests_fail_after_one_resubmission_against_a_crash_looping_server() {
        use std::net::TcpListener;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let crash_loop = std::thread::spawn(move || {
            // The initial connection and the one reconnect dial are both
            // accepted and dropped on the floor; a third dial would hit the
            // closed listener (connection refused), so a retry-budget
            // regression still fails the test instead of hanging it.
            for _ in 0..2 {
                let (conn, _) = listener.accept().unwrap();
                drop(conn);
            }
        });

        let client = PipelinedClient::connect(addr).unwrap();
        let ticket = client.start_screen(1, &[sig(&[(1, 1_000_000)])]).unwrap();
        match ticket.wait() {
            Err(ServeError::Io(_)) => {}
            other => panic!("expected Io after the spent retry budget, got {other:?}"),
        }
        crash_loop.join().unwrap();
        // The budget is per request, not per client: a later call dials
        // lazily (and here fails cleanly against the closed listener).
        assert!(matches!(
            client.screen(1, &[sig(&[(1, 1_000_000)])]),
            Err(ServeError::Io(_))
        ));
    }

    /// A response id matching nothing in flight poisons the client: every
    /// pending and future request surfaces [`DsigError::Corrupt`].
    #[test]
    fn unmatched_response_ids_poison_the_pipelined_client() {
        use std::net::TcpListener;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let serve_thread = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
            let _ = crate::proto::read_frame(&mut reader).unwrap().unwrap();
            // Answer with an id that was never issued.
            let mut response = crate::proto::encode_response(&ScreenResponse::Results(vec![]));
            crate::proto::stamp_request_id(&mut response, 0x000B_AD1D);
            let mut writer = std::io::BufWriter::new(&stream);
            crate::proto::write_frame(&mut writer, &response).unwrap();
            std::io::Write::flush(&mut writer).unwrap();
        });

        let client = PipelinedClient::connect(addr).unwrap();
        let ticket = client.start_screen(1, &[sig(&[(1, 1_000_000)])]).unwrap();
        match ticket.wait() {
            Err(ServeError::Dsig(dsig_core::DsigError::Corrupt { context, .. })) => {
                assert_eq!(context, "mux response stream");
            }
            other => panic!("expected Corrupt poisoning, got {other:?}"),
        }
        // Poisoning is terminal: later calls fail fast without dialing.
        assert!(matches!(
            client.screen(1, &[sig(&[(1, 1_000_000)])]),
            Err(ServeError::Dsig(dsig_core::DsigError::Corrupt { .. }))
        ));
        serve_thread.join().unwrap();
    }

    #[test]
    fn metrics_scrape_reports_live_counters_over_tcp() {
        let (server, key) = serve();
        let client = ServeClient::connect(server.local_addr()).unwrap();
        let before = client.metrics().unwrap();
        let observed = vec![sig(&[(1, 100), (3, 100)]), sig(&[(1, 100), (7, 100)])];
        client.screen(key, &observed).unwrap();
        let _ = client.screen(0xDEAD, &[sig(&[(1, 1_000_000)])]);
        let after = client.metrics().unwrap();
        // Counters move and stay monotonic (the registry is process-wide, so
        // only deltas relative to `before` are asserted).
        let delta = |name: &str| after.counter(name).unwrap() - before.counter(name).unwrap_or(0);
        assert!(delta("serve.requests.dsrq") >= 2);
        assert!(delta("serve.errors.dsrq") >= 1);
        assert!(delta("serve.signatures_scored") >= 2);
        assert!(delta("serve.bytes_in") > 0);
        assert!(delta("serve.bytes_out") > 0);
        assert!(after.counter("serve.requests.dsmx").unwrap() >= 1);
        assert!(after.histogram("serve.request_us").unwrap().count >= 1);
        // The TCP scrape and the in-process scrape see the same registry.
        assert!(
            server.metrics().counter("serve.requests.dsrq").unwrap() >= after.counter("serve.requests.dsrq").unwrap()
        );
    }

    #[test]
    fn traces_scrape_drains_server_spans_over_tcp() {
        use dsig_obs::{trace, Tracer};

        let (server, key) = serve();
        let client = ServeClient::connect(server.local_addr()).unwrap();
        let observed = vec![sig(&[(1, 100), (3, 100)]), sig(&[(1, 100), (7, 100)])];

        // An unsampled request (no ambient context) must leave no spans.
        client.screen(key, &observed).unwrap();
        // A sampled request propagates its context over the wire; the server
        // parents its scoring span under it.
        let ctx = Tracer::default().start_trace();
        {
            let _guard = trace::with_context(ctx);
            client.screen(key, &observed).unwrap();
        }
        let log = client.traces().unwrap();
        let ours: Vec<_> = log.spans.iter().filter(|s| s.trace_id == ctx.trace_id).collect();
        assert!(!ours.is_empty(), "sampled request must leave spans on the server");
        assert!(
            ours.iter()
                .any(|s| s.name == "serve.score"
                    && s.annotations.iter().any(|(key, value)| key == "items" && value == "2")),
            "missing serve.score span over the request's 2 signatures"
        );
        assert!(ours
            .iter()
            .all(|s| s.parent_span == ctx.parent_span && s.tier == "serve"));
        assert!(
            log.spans.iter().all(|s| s.trace_id == ctx.trace_id),
            "the unsampled request must not have recorded spans",
        );
        // Scraping drains: a second scrape starts empty.
        assert!(client.traces().unwrap().spans.is_empty());
    }

    #[test]
    fn admin_ops_round_trip_over_tcp() {
        let (server, key) = serve();
        let client = ServeClient::connect(server.local_addr()).unwrap();
        // Push a second golden, read it back, and screen against both.
        let band = AcceptanceBand::new(0.02).unwrap();
        let second = sig(&[(2, 100), (4, 100)]);
        client.push_golden(0xB0B, band, &second).unwrap();
        let (fetched_band, fetched) = client.fetch_golden(0xB0B).unwrap();
        assert_eq!(fetched_band, band);
        assert_eq!(fetched, second);
        assert!(matches!(
            client.fetch_golden(0xDEAD),
            Err(ServeError::UnknownGolden(0xDEAD))
        ));
        let own = client
            .screen(key, &[sig(&[(1, 100), (3, 100)]), sig(&[(1, 100), (7, 100)])])
            .unwrap();
        assert_eq!(own[0].ndf, 0.0);
        assert!(own[1].ndf > 0.0);
        let pushed = client.screen(0xB0B, std::slice::from_ref(&second)).unwrap();
        assert_eq!(pushed[0].ndf, 0.0, "pushed golden must score its own signature clean");
        // Bit-identical to the in-process path.
        assert_eq!(pushed, server.handle().screen(0xB0B, &[second]).unwrap());
    }

    /// One helper exercises both transports: the typed layer cannot tell
    /// them apart.
    fn drive<T: seam::Exchange>(peer: &Client<T>, key: u64) {
        let observed = sig(&[(1, 100), (3, 100)]);
        assert_eq!(peer.screen_one(key, &observed).unwrap().ndf, 0.0);
        assert_eq!(peer.screen(key, std::slice::from_ref(&observed)).unwrap().len(), 1);
        assert!(peer.metrics().unwrap().counter("serve.signatures_scored").is_some());
        let _ = peer.health().unwrap();
        let _ = peer.fleet_metrics().unwrap();
        // A leaf rejects every fleet-admin verb with the routing-tier error.
        for verdict in [
            peer.fleet_join("127.0.0.1:1"),
            peer.fleet_leave("x"),
            peer.fleet_drain("x"),
            peer.fleet_roster(),
        ] {
            assert!(matches!(verdict, Err(ServeError::Remote(_))), "{verdict:?}");
        }
    }

    #[test]
    fn both_transports_drive_every_operation_against_a_bare_server() {
        let (server, key) = serve();
        drive(&ServeClient::connect(server.local_addr()).unwrap(), key);
        drive(&PipelinedClient::connect(server.local_addr()).unwrap(), key);
    }
}
