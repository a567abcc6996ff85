//! The compact binary wire protocol, std-only.
//!
//! Every message travels as a length-prefixed frame; payloads follow the
//! shared versioned-header convention of [`dsig_core::wire`]. Every request
//! and response frame carries its `u64` request id at bytes `6..14` and is
//! read at exactly its current version — wire frames are never persisted,
//! so an older frame is rejected like any malformed one. See the crate docs
//! for the full byte layout.
//!
//! The protocol is deliberately batch-first: one request carries any number
//! of signatures for one golden, so the framing, syscall and dispatch cost is
//! amortized over the batch.

use std::io::{Read, Write};

use dsig_core::{wire, AcceptanceBand, RetestPolicy, Signature};
use dsig_obs::trace::{self, TraceContext};
use dsig_obs::{EventLog, HealthReport, HealthStatus, MetricsSnapshot, TraceLog};

use crate::error::{Result, ServeError};

pub use dsig_engine::{RetestItem, RetestRequest, RetestScore, ScoreResult};

/// Magic prefix of request payloads.
pub const REQUEST_MAGIC: [u8; 4] = *b"DSRQ";
/// Magic prefix of response payloads.
pub const RESPONSE_MAGIC: [u8; 4] = *b"DSRS";
/// Magic prefix of multi-golden screening request payloads (`DSRM`) — the
/// routed form where every signature carries its own golden fingerprint.
pub const MULTI_REQUEST_MAGIC: [u8; 4] = *b"DSRM";
/// Magic prefix of golden-push (replication) request payloads (`DSGP`).
pub const PUSH_MAGIC: [u8; 4] = *b"DSGP";
/// Magic prefix of golden-fetch (readback) request payloads (`DSGF`).
pub const FETCH_MAGIC: [u8; 4] = *b"DSGF";
/// Magic prefix of admin (push/fetch) response payloads (`DSRA`).
pub const ADMIN_RESPONSE_MAGIC: [u8; 4] = *b"DSRA";
/// Magic prefix of fleet-admin request payloads (`DSAQ`): the membership
/// verbs — join, leave, drain, list — a routing tier accepts over the
/// ordinary tagged mux. Answered in the `DSRA` family (ack/roster/error).
/// Idempotent by label: resubmitting a join/leave/drain after a reconnect
/// converges to the same membership, so the pipelined client may resubmit
/// them like any work frame.
pub const ADMIN_REQUEST_MAGIC: [u8; 4] = *b"DSAQ";
/// Magic prefix of adaptive-retest screening request payloads (`DSRT`): each
/// device carries its single-shot signature plus pre-captured measurement
/// repeats, and the server verdicts marginal devices through the
/// [`RetestPolicy`] escalation walk before answering.
pub const RETEST_REQUEST_MAGIC: [u8; 4] = *b"DSRT";
/// Magic prefix of adaptive-retest response payloads (`DSRR`) — the
/// `DSRS`-style score list extended with per-device retest metadata.
pub const RETEST_RESPONSE_MAGIC: [u8; 4] = *b"DSRR";
/// Magic prefix of metrics-scrape request payloads (`DSMX`): a header-only
/// frame asking the answering process — serving process or router — for a
/// snapshot of its live metrics registry.
pub const METRICS_REQUEST_MAGIC: [u8; 4] = *b"DSMX";
/// Magic prefix of metrics-scrape response payloads (`DSMR`) — one
/// serialized [`dsig_obs::MetricsSnapshot`] (`DSMS` bytes), or an error.
pub const METRICS_RESPONSE_MAGIC: [u8; 4] = *b"DSMR";
/// Magic prefix of trace-scrape request payloads (`DSTX`): a header-only
/// frame asking the answering process to drain its buffered trace spans.
pub const TRACES_REQUEST_MAGIC: [u8; 4] = *b"DSTX";
/// Magic prefix of trace-scrape response payloads (`DSTD`) — one serialized
/// [`dsig_obs::TraceLog`] (`DSTL` bytes), or an error.
pub const TRACES_RESPONSE_MAGIC: [u8; 4] = *b"DSTD";
/// Magic prefix of fleet-metrics-scrape request payloads (`DSFM`): a
/// header-only frame asking an aggregating process (the router) to fan
/// `DSMX` out to every backend and answer one merged snapshot — per-backend
/// metrics under `backend.<id>.` prefixes plus `fleet.` rollups — in the
/// ordinary `DSMR` response family. Idempotent: scraping twice returns two
/// consistent snapshots.
pub const FLEET_METRICS_REQUEST_MAGIC: [u8; 4] = *b"DSFM";
/// Magic prefix of fleet-trace-drain request payloads (`DSFT`): the `DSFM`
/// pattern for traces — every backend's span ring drained and concatenated
/// with the aggregator's own, answered in the `DSTD` response family.
/// **Not** idempotent: like `DSTX`, a drain consumes the spans it returns.
pub const FLEET_TRACES_REQUEST_MAGIC: [u8; 4] = *b"DSFT";
/// Magic prefix of event-drain request payloads (`DSEX`): a header-only
/// frame asking the answering process to drain its buffered operational
/// events. **Not** idempotent: like `DSTX`, a drain consumes what it
/// returns.
pub const EVENTS_REQUEST_MAGIC: [u8; 4] = *b"DSEX";
/// Magic prefix of event-drain response payloads (`DSED`) — one serialized
/// [`dsig_obs::EventLog`] (`DSEL` bytes), or an error.
pub const EVENTS_RESPONSE_MAGIC: [u8; 4] = *b"DSED";
/// Magic prefix of health-check request payloads (`DSHC`): a header-only
/// frame asking the answering process to judge its current state against
/// its [`dsig_obs::SloPolicy`] and answer one PASS/DEGRADED/FAIL verdict.
/// Idempotent.
pub const HEALTH_REQUEST_MAGIC: [u8; 4] = *b"DSHC";
/// Magic prefix of health-check response payloads (`DSHR`) — one
/// [`dsig_obs::HealthReport`], or an error.
pub const HEALTH_RESPONSE_MAGIC: [u8; 4] = *b"DSHR";
/// Wire-protocol version of response frames and of the header-only scrape
/// requests: magic, version, then the `u64` request id at bytes `6..14`
/// (the multiplexing correlator, echoed from the request).
pub const PROTO_VERSION: u16 = 2;
/// Wire-protocol version of the work-carrying request frames
/// (`DSRQ`/`DSRM`/`DSRT`/`DSGP`/`DSGF`/`DSAQ`): magic, version, the `u64`
/// request id at bytes `6..14`, then a fixed 17-byte trace context.
pub const REQUEST_PROTO_VERSION: u16 = 3;
/// Wire-protocol version of health-check responses (`DSHR`), whose report
/// carries the `u64` fleet membership epoch after the backend count.
pub const HEALTH_RESPONSE_VERSION: u16 = 3;

/// Upper bound on a frame payload (64 MiB). A length prefix beyond this is
/// treated as a protocol violation rather than an allocation request — it
/// bounds what a corrupt or malicious peer can make either side allocate.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Status byte of an ok response.
const STATUS_OK: u8 = 0;
/// Status byte of an error response; every response family shares it.
const STATUS_ERROR: u8 = 1;

/// Machine-readable error codes carried by error responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The requested golden fingerprint is not in the store.
    UnknownGolden,
    /// The request could not be decoded.
    BadRequest,
    /// Scoring failed server-side.
    Internal,
}

impl ErrorCode {
    fn to_u16(self) -> u16 {
        match self {
            ErrorCode::UnknownGolden => 1,
            ErrorCode::BadRequest => 2,
            ErrorCode::Internal => 3,
        }
    }

    fn from_u16(v: u16) -> Result<Self> {
        match v {
            1 => Ok(ErrorCode::UnknownGolden),
            2 => Ok(ErrorCode::BadRequest),
            3 => Ok(ErrorCode::Internal),
            other => Err(ServeError::Protocol(format!("unknown error code {other}"))),
        }
    }
}

/// A decoded screening request: score `signatures` against the golden stored
/// under `golden_key`.
#[derive(Debug, Clone, PartialEq)]
pub struct ScreenRequest {
    /// Fingerprint of the golden to score against
    /// (see [`dsig_engine::golden_fingerprint`]).
    pub golden_key: u64,
    /// The observed signatures to score, in request order.
    pub signatures: Vec<Signature>,
}

/// A decoded response: per-signature scores, or a server-side error.
#[derive(Debug, Clone, PartialEq)]
pub enum ScreenResponse {
    /// One score per request signature, in request order.
    Results(Vec<ScoreResult>),
    /// The request failed server-side.
    Error {
        /// Machine-readable error class.
        code: ErrorCode,
        /// Rendered error message.
        message: String,
    },
}

/// A decoded multi-golden screening request: score each signature against
/// the golden its fingerprint names. This is the frame a routing tier splits
/// into per-backend [`ScreenRequest`] sub-batches.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiScreenRequest {
    /// `(golden fingerprint, observed signature)` pairs, in request order.
    pub items: Vec<(u64, Signature)>,
}

/// A decoded adaptive-retest response (`DSRR`): per-device retest scores, or
/// a server-side error (same error vocabulary as [`ScreenResponse`]).
#[derive(Debug, Clone, PartialEq)]
pub enum RetestResponse {
    /// One retest score per request device, in request order.
    Results(Vec<RetestScore>),
    /// The request failed server-side.
    Error {
        /// Machine-readable error class.
        code: ErrorCode,
        /// Rendered error message.
        message: String,
    },
}

/// A decoded fleet-admin request (`DSAQ`): one membership verb addressed to
/// a routing tier. Every verb is idempotent by label — replaying it after a
/// reconnect converges to the same membership — so the multiplexing client
/// resubmits admin frames like ordinary work frames.
#[derive(Debug, Clone, PartialEq)]
pub enum AdminRequest {
    /// Add the backend at `label` (a dialable `host:port` address) to the
    /// fleet, or reactivate it if it is present but draining.
    Join {
        /// The backend's label: the address the router will dial.
        label: String,
    },
    /// Remove the backend labelled `label` from the fleet, re-replicating
    /// the goldens it owned first.
    Leave {
        /// Label of the backend to remove.
        label: String,
    },
    /// Stop targeting the backend labelled `label` with new work (it stays
    /// ranked, as a last resort) and re-replicate the goldens it owns.
    Drain {
        /// Label of the backend to drain.
        label: String,
    },
    /// Return the current membership roster and epoch without changing
    /// anything.
    List,
}

/// Verb tag of an [`AdminRequest::Join`].
const ADMIN_VERB_JOIN: u8 = 0;
/// Verb tag of an [`AdminRequest::Leave`].
const ADMIN_VERB_LEAVE: u8 = 1;
/// Verb tag of an [`AdminRequest::Drain`].
const ADMIN_VERB_DRAIN: u8 = 2;
/// Verb tag of an [`AdminRequest::List`].
const ADMIN_VERB_LIST: u8 = 3;

/// Operational state of one fleet member, as reported in a roster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendState {
    /// Targeted with new work.
    Active,
    /// Administratively draining: still ranked, not targeted with new work.
    Draining,
    /// Currently backed off after consecutive failures.
    BackedOff,
}

impl BackendState {
    /// The state's wire tag.
    pub fn to_u8(self) -> u8 {
        match self {
            BackendState::Active => 0,
            BackendState::Draining => 1,
            BackendState::BackedOff => 2,
        }
    }

    /// Decodes a wire tag written by [`BackendState::to_u8`]; `None` on an
    /// unknown tag.
    pub fn from_u8(tag: u8) -> Option<BackendState> {
        match tag {
            0 => Some(BackendState::Active),
            1 => Some(BackendState::Draining),
            2 => Some(BackendState::BackedOff),
            _ => None,
        }
    }
}

/// One fleet member in a roster.
#[derive(Debug, Clone, PartialEq)]
pub struct RosterEntry {
    /// The backend's label (address for TCP backends).
    pub label: String,
    /// The backend's rendezvous-hash identity.
    pub id: u64,
    /// Its operational state at roster time.
    pub state: BackendState,
}

/// A fleet membership roster: the epoch plus one entry per member. Every
/// mutating admin verb answers with the post-change roster, so a caller
/// always observes the membership its change produced.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetRoster {
    /// Membership epoch: bumped on every join/leave/drain.
    pub epoch: u64,
    /// The members, in membership order.
    pub entries: Vec<RosterEntry>,
}

/// Any request frame the serving tier understands, decoded by payload magic
/// (see [`decode_any_request`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// A single-golden screening request (`DSRQ`).
    Screen(ScreenRequest),
    /// A multi-golden screening request (`DSRM`).
    MultiScreen(MultiScreenRequest),
    /// An adaptive-retest screening request (`DSRT`).
    Retest(RetestRequest),
    /// A golden replication push (`DSGP`): store `golden` under `key`.
    PushGolden {
        /// Fingerprint the golden is stored under.
        key: u64,
        /// Acceptance band applied to NDFs scored against this golden.
        band: AcceptanceBand,
        /// The golden signature.
        golden: Signature,
    },
    /// A golden readback request (`DSGF`): return the record under `key`.
    FetchGolden {
        /// Fingerprint to read back.
        key: u64,
    },
    /// A metrics-scrape request (`DSMX`): snapshot the process's registry.
    Metrics,
    /// A trace-scrape request (`DSTX`): drain the process's buffered spans.
    Traces,
    /// A fleet-metrics-scrape request (`DSFM`): fan `DSMX` out to every
    /// backend and answer one merged snapshot. A leaf process answers it
    /// as a fleet of one.
    FleetMetrics,
    /// A fleet-trace-drain request (`DSFT`): drain every backend's spans
    /// plus the aggregator's own.
    FleetTraces,
    /// An event-drain request (`DSEX`): drain the process's buffered
    /// operational events.
    Events,
    /// A health-check request (`DSHC`): judge the current state against
    /// the process's SLO policy.
    Health,
    /// A fleet-admin request (`DSAQ`): a membership verb for the routing
    /// tier. A leaf serving process answers it with a `DSRA` error — it has
    /// no fleet to administer.
    Admin(AdminRequest),
}

/// A decoded metrics-scrape response (`DSMR`): the answering process's
/// metrics snapshot, or a server-side error (same error vocabulary as
/// [`ScreenResponse`]).
#[derive(Debug, Clone, PartialEq)]
pub enum MetricsResponse {
    /// The scraped snapshot.
    Snapshot(MetricsSnapshot),
    /// The request failed server-side.
    Error {
        /// Machine-readable error class.
        code: ErrorCode,
        /// Rendered error message.
        message: String,
    },
}

/// A decoded trace-scrape response (`DSTD`): the spans the answering
/// process had buffered (draining them), or a server-side error (same error
/// vocabulary as [`ScreenResponse`]).
#[derive(Debug, Clone, PartialEq)]
pub enum TracesResponse {
    /// The drained spans.
    Log(TraceLog),
    /// The request failed server-side.
    Error {
        /// Machine-readable error class.
        code: ErrorCode,
        /// Rendered error message.
        message: String,
    },
}

/// A decoded event-drain response (`DSED`): the events the answering
/// process had buffered (draining them), or a server-side error (same error
/// vocabulary as [`ScreenResponse`]).
#[derive(Debug, Clone, PartialEq)]
pub enum EventsResponse {
    /// The drained events.
    Log(EventLog),
    /// The request failed server-side.
    Error {
        /// Machine-readable error class.
        code: ErrorCode,
        /// Rendered error message.
        message: String,
    },
}

/// A decoded health-check response (`DSHR`): the answering process's
/// verdict, or a server-side error (same error vocabulary as
/// [`ScreenResponse`]).
#[derive(Debug, Clone, PartialEq)]
pub enum HealthResponse {
    /// The judged verdict with the facts behind it.
    Report(HealthReport),
    /// The request failed server-side.
    Error {
        /// Machine-readable error class.
        code: ErrorCode,
        /// Rendered error message.
        message: String,
    },
}

/// A decoded admin response (to [`Request::PushGolden`] /
/// [`Request::FetchGolden`] / [`Request::Admin`]).
#[derive(Debug, Clone, PartialEq)]
pub enum AdminResponse {
    /// The push was applied.
    Ack,
    /// The fetched golden record.
    Record {
        /// Acceptance band of the record.
        band: AcceptanceBand,
        /// The golden signature.
        golden: Signature,
    },
    /// The membership roster answering a fleet-admin verb.
    Roster(FleetRoster),
    /// The request failed server-side.
    Error {
        /// Machine-readable error class.
        code: ErrorCode,
        /// Rendered error message.
        message: String,
    },
}

/// Status byte of an [`AdminResponse::Ack`].
const ADMIN_ACK: u8 = 0;
/// Status byte of an [`AdminResponse::Record`].
const ADMIN_RECORD: u8 = 2;
/// Status byte of an [`AdminResponse::Roster`].
const ADMIN_ROSTER: u8 = 3;

/// The work-carrying request magics (`DSRQ`/`DSRM`/`DSRT`/`DSGP`/`DSGF`/
/// `DSAQ`): the frames that carry a trace context after the request id.
const WORK_REQUEST_MAGICS: [[u8; 4]; 6] = [
    REQUEST_MAGIC,
    MULTI_REQUEST_MAGIC,
    RETEST_REQUEST_MAGIC,
    PUSH_MAGIC,
    FETCH_MAGIC,
    ADMIN_REQUEST_MAGIC,
];

/// Starts a work-request frame of `magic`: the tagged header with the
/// placeholder id `0`, then the current thread's ambient trace context (see
/// [`trace::current_context`]) — so deep call chains propagate causality
/// without threading a parameter through every signature.
fn work_request(magic: [u8; 4], capacity: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(capacity);
    wire::put_tagged_header(&mut out, magic, REQUEST_PROTO_VERSION, 0);
    trace::put_trace_context(&mut out, trace::current_context());
    out
}

/// Opens a work-request frame of `magic`: checks the tagged header and reads
/// the trace context, returning it with a reader positioned at the body.
fn open_work_request<'a>(
    payload: &'a [u8],
    magic: [u8; 4],
    context: &'static str,
) -> Result<(TraceContext, wire::ByteReader<'a>)> {
    let mut r = wire::ByteReader::new(payload, context);
    r.tagged_header(magic, REQUEST_PROTO_VERSION)?;
    Ok((trace::read_trace_context(&mut r)?, r))
}

/// Extracts the request id of a frame — request **or** response — without
/// decoding its body: bytes `6..14`, the correlator the event loop echoes
/// into the response and the pipelined client demultiplexes on. Infallible:
/// a payload too short to carry an id peeks as `0` (the decoder proper
/// reports the actual error).
pub fn peek_request_id(payload: &[u8]) -> u64 {
    payload
        .get(6..14)
        .map_or(0, |id| u64::from_le_bytes(id.try_into().expect("8 bytes")))
}

/// Stamps `request_id` into a frame in place (bytes `6..14`, right after the
/// magic and version). Encoders emit the placeholder id `0`; transports that
/// multiplex stamp the real correlator here — and the event loop stamps the
/// echoed id into responses the same way — without re-encoding the body.
///
/// # Panics
/// Panics if `frame` is shorter than a tagged header — calling this on
/// anything but an encoder's output is a programming error.
pub fn stamp_request_id(frame: &mut [u8], request_id: u64) {
    frame[6..14].copy_from_slice(&request_id.to_le_bytes());
}

/// Extracts the trace context of a request frame without decoding its body
/// — the dispatch loop pins it to the handling thread before
/// [`decode_any_request`] runs. Infallible: anything that is not a
/// well-formed frame of a context-carrying family yields
/// [`TraceContext::NONE`] (the decoder proper reports the actual error).
pub fn decode_request_context(payload: &[u8]) -> TraceContext {
    WORK_REQUEST_MAGICS
        .into_iter()
        .find(|magic| payload.get(..4) == Some(magic.as_slice()))
        .and_then(|magic| open_work_request(payload, magic, "request trace context").ok())
        .map_or(TraceContext::NONE, |(ctx, _)| ctx)
}

/// Appends an error body — status byte, `u16` error code, message — the
/// layout every response family shares.
fn put_error(out: &mut Vec<u8>, code: ErrorCode, message: &str) {
    out.push(STATUS_ERROR);
    wire::put_u16(out, code.to_u16());
    wire::put_str(out, message);
}

/// Reads an error body after its status byte, through the end of the frame.
fn read_error(mut r: wire::ByteReader<'_>) -> Result<(ErrorCode, String)> {
    let code = ErrorCode::from_u16(r.u16()?)?;
    let message = r.string()?;
    r.finish()?;
    Ok((code, message))
}

/// Encodes a screening request payload (without the frame length prefix).
pub fn encode_request(golden_key: u64, signatures: &[Signature]) -> Vec<u8> {
    let mut out = work_request(REQUEST_MAGIC, 35 + 64 * signatures.len());
    wire::put_u64(&mut out, golden_key);
    wire::put_u32(&mut out, signatures.len() as u32);
    for signature in signatures {
        wire::put_bytes(&mut out, &signature.to_bytes());
    }
    out
}

/// Decodes a screening request payload. Never panics on malformed input.
///
/// # Errors
/// Returns [`ServeError::Dsig`] on framing or signature decoding errors.
pub fn decode_request(payload: &[u8]) -> Result<ScreenRequest> {
    let (_, mut r) = open_work_request(payload, REQUEST_MAGIC, "screen request")?;
    let golden_key = r.u64()?;
    let count = r.u32()? as usize;
    // Minimum per signature: 4-byte length prefix + 8-byte empty signature.
    r.check_count(count, 12)?;
    let mut signatures = Vec::with_capacity(count);
    for _ in 0..count {
        signatures.push(Signature::from_bytes(r.bytes()?)?);
    }
    r.finish()?;
    Ok(ScreenRequest { golden_key, signatures })
}

/// Encodes a multi-golden screening request payload (without the frame
/// length prefix).
pub fn encode_multi_request(items: &[(u64, Signature)]) -> Vec<u8> {
    let mut out = work_request(MULTI_REQUEST_MAGIC, 27 + 76 * items.len());
    wire::put_u32(&mut out, items.len() as u32);
    for (key, signature) in items {
        wire::put_u64(&mut out, *key);
        wire::put_bytes(&mut out, &signature.to_bytes());
    }
    out
}

/// Decodes a multi-golden screening request payload. Never panics on
/// malformed input.
///
/// # Errors
/// Returns [`ServeError::Dsig`] on framing or signature decoding errors.
pub fn decode_multi_request(payload: &[u8]) -> Result<MultiScreenRequest> {
    let (_, mut r) = open_work_request(payload, MULTI_REQUEST_MAGIC, "multi screen request")?;
    let count = r.u32()? as usize;
    // Minimum per item: 8-byte key + 4-byte length + 8-byte empty signature.
    r.check_count(count, 20)?;
    let mut items = Vec::with_capacity(count);
    for _ in 0..count {
        let key = r.u64()?;
        items.push((key, Signature::from_bytes(r.bytes()?)?));
    }
    r.finish()?;
    Ok(MultiScreenRequest { items })
}

/// Encodes an adaptive-retest screening request payload (without the frame
/// length prefix).
pub fn encode_retest_request(request: &RetestRequest) -> Vec<u8> {
    let mut out = work_request(RETEST_REQUEST_MAGIC, 49 + 128 * request.items.len());
    wire::put_u64(&mut out, request.golden_key);
    wire::put_f64(&mut out, request.policy.guard_band);
    wire::put_u32(&mut out, request.policy.schedule.len() as u32);
    for &step in &request.policy.schedule {
        wire::put_u32(&mut out, step);
    }
    wire::put_u32(&mut out, request.items.len() as u32);
    for item in &request.items {
        wire::put_bytes(&mut out, &item.initial.to_bytes());
        wire::put_u32(&mut out, item.repeats.len() as u32);
        for repeat in &item.repeats {
            wire::put_bytes(&mut out, &repeat.to_bytes());
        }
    }
    out
}

/// Decodes an adaptive-retest screening request payload. Never panics on
/// malformed input.
///
/// # Errors
/// Returns [`ServeError::Dsig`] on framing, signature or policy decoding
/// errors (an invalid guard band or schedule is rejected by
/// [`RetestPolicy::new`]).
pub fn decode_retest_request(payload: &[u8]) -> Result<RetestRequest> {
    let (_, mut r) = open_work_request(payload, RETEST_REQUEST_MAGIC, "retest request")?;
    let golden_key = r.u64()?;
    let guard_band = r.f64()?;
    let steps = r.u32()? as usize;
    r.check_count(steps, 4)?;
    let mut schedule = Vec::with_capacity(steps);
    for _ in 0..steps {
        schedule.push(r.u32()?);
    }
    let policy = RetestPolicy::new(guard_band, schedule)?;
    let count = r.u32()? as usize;
    // Minimum per item: 4-byte initial length + 8-byte empty signature +
    // 4-byte repeat count.
    r.check_count(count, 16)?;
    let mut items = Vec::with_capacity(count);
    for _ in 0..count {
        let initial = Signature::from_bytes(r.bytes()?)?;
        let repeats_len = r.u32()? as usize;
        r.check_count(repeats_len, 12)?;
        let mut repeats = Vec::with_capacity(repeats_len);
        for _ in 0..repeats_len {
            repeats.push(Signature::from_bytes(r.bytes()?)?);
        }
        items.push(RetestItem { initial, repeats });
    }
    r.finish()?;
    Ok(RetestRequest {
        golden_key,
        policy,
        items,
    })
}

/// Encodes an adaptive-retest response payload (without the frame length
/// prefix).
pub fn encode_retest_response(response: &RetestResponse) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    wire::put_tagged_header(&mut out, RETEST_RESPONSE_MAGIC, PROTO_VERSION, 0);
    match response {
        RetestResponse::Results(results) => {
            out.push(STATUS_OK);
            wire::put_u32(&mut out, results.len() as u32);
            for result in results {
                wire::put_f64(&mut out, result.score.ndf);
                wire::put_u32(&mut out, result.score.peak_hamming);
                wire::put_outcome(&mut out, result.score.outcome);
                out.push(u8::from(result.marginal));
                out.push(u8::from(result.flipped));
                wire::put_u32(&mut out, result.repeats_used);
            }
        }
        RetestResponse::Error { code, message } => put_error(&mut out, *code, message),
    }
    out
}

/// Decodes an adaptive-retest response payload. Never panics on malformed
/// input.
///
/// # Errors
/// Returns [`ServeError::Dsig`] on framing errors and
/// [`ServeError::Protocol`] on unknown status, marginal or flip tags.
pub fn decode_retest_response(payload: &[u8]) -> Result<RetestResponse> {
    let mut r = wire::ByteReader::new(payload, "retest response");
    r.tagged_header(RETEST_RESPONSE_MAGIC, PROTO_VERSION)?;
    match r.u8()? {
        STATUS_OK => {
            let count = r.u32()? as usize;
            // 19 bytes per score: the 13-byte DSRS score + u8 marginal,
            // u8 flipped, u32 repeats_used.
            r.check_count(count, 19)?;
            let mut results = Vec::with_capacity(count);
            for _ in 0..count {
                let score = ScoreResult {
                    ndf: r.f64()?,
                    peak_hamming: r.u32()?,
                    outcome: r.outcome()?,
                };
                let marginal = decode_bool(r.u8()?, "marginal")?;
                let flipped = decode_bool(r.u8()?, "flipped")?;
                let repeats_used = r.u32()?;
                results.push(RetestScore {
                    score,
                    marginal,
                    flipped,
                    repeats_used,
                });
            }
            r.finish()?;
            Ok(RetestResponse::Results(results))
        }
        STATUS_ERROR => read_error(r).map(|(code, message)| RetestResponse::Error { code, message }),
        other => Err(ServeError::Protocol(format!("unknown retest response status {other}"))),
    }
}

/// Decodes a strict boolean wire tag (0 or 1).
fn decode_bool(tag: u8, what: &str) -> Result<bool> {
    match tag {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(ServeError::Protocol(format!("invalid {what} tag {other}"))),
    }
}

/// Encodes a golden-push request payload (without the frame length prefix).
pub fn encode_push_request(key: u64, band: AcceptanceBand, golden: &Signature) -> Vec<u8> {
    let mut out = work_request(PUSH_MAGIC, 43 + 64);
    wire::put_u64(&mut out, key);
    wire::put_f64(&mut out, band.ndf_threshold);
    wire::put_bytes(&mut out, &golden.to_bytes());
    out
}

/// Decodes a golden-push request payload. Never panics on malformed input.
///
/// # Errors
/// Returns [`ServeError::Dsig`] on framing, signature or acceptance-band
/// decoding errors.
pub fn decode_push_request(payload: &[u8]) -> Result<Request> {
    let (_, mut r) = open_work_request(payload, PUSH_MAGIC, "golden push request")?;
    let key = r.u64()?;
    let band = AcceptanceBand::new(r.f64()?)?;
    let golden = Signature::from_bytes(r.bytes()?)?;
    r.finish()?;
    Ok(Request::PushGolden { key, band, golden })
}

/// Encodes a golden-fetch request payload (without the frame length prefix).
pub fn encode_fetch_request(key: u64) -> Vec<u8> {
    let mut out = work_request(FETCH_MAGIC, 31);
    wire::put_u64(&mut out, key);
    out
}

/// Decodes a golden-fetch request payload. Never panics on malformed input.
///
/// # Errors
/// Returns [`ServeError::Dsig`] on framing errors.
pub fn decode_fetch_request(payload: &[u8]) -> Result<Request> {
    let (_, mut r) = open_work_request(payload, FETCH_MAGIC, "golden fetch request")?;
    let key = r.u64()?;
    r.finish()?;
    Ok(Request::FetchGolden { key })
}

/// Encodes a fleet-admin request payload (without the frame length prefix):
/// one verb tag plus the addressed label (empty for [`AdminRequest::List`]).
pub fn encode_admin_request(request: &AdminRequest) -> Vec<u8> {
    let mut out = work_request(ADMIN_REQUEST_MAGIC, 40);
    let (verb, label) = match request {
        AdminRequest::Join { label } => (ADMIN_VERB_JOIN, label.as_str()),
        AdminRequest::Leave { label } => (ADMIN_VERB_LEAVE, label.as_str()),
        AdminRequest::Drain { label } => (ADMIN_VERB_DRAIN, label.as_str()),
        AdminRequest::List => (ADMIN_VERB_LIST, ""),
    };
    out.push(verb);
    wire::put_str(&mut out, label);
    out
}

/// Decodes a fleet-admin request payload. Never panics on malformed input.
///
/// # Errors
/// Returns [`ServeError::Dsig`] on framing errors and
/// [`ServeError::Protocol`] on an unknown verb tag or a label where none is
/// allowed (`List` carries an empty label).
pub fn decode_admin_request(payload: &[u8]) -> Result<Request> {
    let (_, mut r) = open_work_request(payload, ADMIN_REQUEST_MAGIC, "fleet admin request")?;
    let verb = r.u8()?;
    let label = r.string()?;
    r.finish()?;
    let request = match verb {
        ADMIN_VERB_JOIN => AdminRequest::Join { label },
        ADMIN_VERB_LEAVE => AdminRequest::Leave { label },
        ADMIN_VERB_DRAIN => AdminRequest::Drain { label },
        ADMIN_VERB_LIST => {
            if !label.is_empty() {
                return Err(ServeError::Protocol(format!(
                    "admin list request carries an unexpected label {label:?}"
                )));
            }
            AdminRequest::List
        }
        other => return Err(ServeError::Protocol(format!("unknown admin verb {other}"))),
    };
    Ok(Request::Admin(request))
}

/// The header-only scrape requests, keyed by magic: the request each one
/// decodes to and the response family that answers it — and its decode
/// errors. The fleet scrapes answer in their leaf scrape's family.
static SCRAPES: [([u8; 4], Request, [u8; 4]); 6] = [
    (METRICS_REQUEST_MAGIC, Request::Metrics, METRICS_RESPONSE_MAGIC),
    (TRACES_REQUEST_MAGIC, Request::Traces, TRACES_RESPONSE_MAGIC),
    (
        FLEET_METRICS_REQUEST_MAGIC,
        Request::FleetMetrics,
        METRICS_RESPONSE_MAGIC,
    ),
    (FLEET_TRACES_REQUEST_MAGIC, Request::FleetTraces, TRACES_RESPONSE_MAGIC),
    (EVENTS_REQUEST_MAGIC, Request::Events, EVENTS_RESPONSE_MAGIC),
    (HEALTH_REQUEST_MAGIC, Request::Health, HEALTH_RESPONSE_MAGIC),
];

/// The [`SCRAPES`] entry of a payload's magic, if it is a scrape request.
fn scrape_of(payload: &[u8]) -> Option<&'static ([u8; 4], Request, [u8; 4])> {
    SCRAPES
        .iter()
        .find(|(magic, ..)| payload.get(..4) == Some(magic.as_slice()))
}

/// Encodes a header-only scrape request payload (without the frame length
/// prefix): `magic` is one of `DSMX`/`DSTX`/`DSFM`/`DSFT`/`DSEX`/`DSHC`.
pub fn encode_scrape_request(magic: [u8; 4]) -> Vec<u8> {
    debug_assert!(
        SCRAPES.iter().any(|(scrape, ..)| *scrape == magic),
        "not a scrape magic"
    );
    let mut out = Vec::with_capacity(14);
    wire::put_tagged_header(&mut out, magic, PROTO_VERSION, 0);
    out
}

/// Decodes a header-only scrape request payload by its magic. Never panics
/// on malformed input.
///
/// # Errors
/// Returns [`ServeError::Protocol`] for a magic that is not a scrape request
/// and [`ServeError::Dsig`] on framing errors (unsupported version,
/// truncation, trailing bytes).
pub fn decode_scrape_request(payload: &[u8]) -> Result<Request> {
    let (magic, request, _) = scrape_of(payload).ok_or_else(|| {
        ServeError::Protocol(format!(
            "{:?} is not a scrape request",
            String::from_utf8_lossy(payload.get(..4).unwrap_or(payload))
        ))
    })?;
    let mut r = wire::ByteReader::new(payload, "scrape request");
    r.tagged_header(*magic, PROTO_VERSION)?;
    r.finish()?;
    Ok(request.clone())
}

/// Encodes a metrics-scrape response payload (without the frame length
/// prefix). The ok body is one length-prefixed `DSMS` snapshot.
pub fn encode_metrics_response(response: &MetricsResponse) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    wire::put_tagged_header(&mut out, METRICS_RESPONSE_MAGIC, PROTO_VERSION, 0);
    match response {
        MetricsResponse::Snapshot(snapshot) => {
            out.push(STATUS_OK);
            wire::put_bytes(&mut out, &snapshot.to_bytes());
        }
        MetricsResponse::Error { code, message } => put_error(&mut out, *code, message),
    }
    out
}

/// Decodes a metrics-scrape response payload. Never panics on malformed
/// input.
///
/// # Errors
/// Returns [`ServeError::Dsig`] on framing or snapshot decoding errors and
/// [`ServeError::Protocol`] on an unknown status byte.
pub fn decode_metrics_response(payload: &[u8]) -> Result<MetricsResponse> {
    let mut r = wire::ByteReader::new(payload, "metrics response");
    r.tagged_header(METRICS_RESPONSE_MAGIC, PROTO_VERSION)?;
    match r.u8()? {
        STATUS_OK => {
            let snapshot = MetricsSnapshot::from_bytes(r.bytes()?)?;
            r.finish()?;
            Ok(MetricsResponse::Snapshot(snapshot))
        }
        STATUS_ERROR => read_error(r).map(|(code, message)| MetricsResponse::Error { code, message }),
        other => Err(ServeError::Protocol(format!("unknown metrics response status {other}"))),
    }
}

/// Encodes a trace-scrape response payload (without the frame length
/// prefix). The ok body is one length-prefixed `DSTL` trace log.
pub fn encode_traces_response(response: &TracesResponse) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    wire::put_tagged_header(&mut out, TRACES_RESPONSE_MAGIC, PROTO_VERSION, 0);
    match response {
        TracesResponse::Log(log) => {
            out.push(STATUS_OK);
            wire::put_bytes(&mut out, &log.to_bytes());
        }
        TracesResponse::Error { code, message } => put_error(&mut out, *code, message),
    }
    out
}

/// Decodes a trace-scrape response payload. Never panics on malformed
/// input.
///
/// # Errors
/// Returns [`ServeError::Dsig`] on framing or trace-log decoding errors and
/// [`ServeError::Protocol`] on an unknown status byte.
pub fn decode_traces_response(payload: &[u8]) -> Result<TracesResponse> {
    let mut r = wire::ByteReader::new(payload, "traces response");
    r.tagged_header(TRACES_RESPONSE_MAGIC, PROTO_VERSION)?;
    match r.u8()? {
        STATUS_OK => {
            let log = TraceLog::from_bytes(r.bytes()?)?;
            r.finish()?;
            Ok(TracesResponse::Log(log))
        }
        STATUS_ERROR => read_error(r).map(|(code, message)| TracesResponse::Error { code, message }),
        other => Err(ServeError::Protocol(format!("unknown traces response status {other}"))),
    }
}

/// Encodes an event-drain response payload (without the frame length
/// prefix). The ok body is one length-prefixed `DSEL` event log.
pub fn encode_events_response(response: &EventsResponse) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    wire::put_tagged_header(&mut out, EVENTS_RESPONSE_MAGIC, PROTO_VERSION, 0);
    match response {
        EventsResponse::Log(log) => {
            out.push(STATUS_OK);
            wire::put_bytes(&mut out, &log.to_bytes());
        }
        EventsResponse::Error { code, message } => put_error(&mut out, *code, message),
    }
    out
}

/// Decodes an event-drain response payload. Never panics on malformed
/// input.
///
/// # Errors
/// Returns [`ServeError::Dsig`] on framing or event-log decoding errors and
/// [`ServeError::Protocol`] on an unknown status byte.
pub fn decode_events_response(payload: &[u8]) -> Result<EventsResponse> {
    let mut r = wire::ByteReader::new(payload, "events response");
    r.tagged_header(EVENTS_RESPONSE_MAGIC, PROTO_VERSION)?;
    match r.u8()? {
        STATUS_OK => {
            let log = EventLog::from_bytes(r.bytes()?)?;
            r.finish()?;
            Ok(EventsResponse::Log(log))
        }
        STATUS_ERROR => read_error(r).map(|(code, message)| EventsResponse::Error { code, message }),
        other => Err(ServeError::Protocol(format!("unknown events response status {other}"))),
    }
}

/// Encodes a health-check response payload (without the frame length
/// prefix). The ok body carries the report inline: status byte, error
/// rate, p99, backed-off and fleet-size counts, the membership epoch
/// (version 3), then the findings.
pub fn encode_health_response(response: &HealthResponse) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    wire::put_tagged_header(&mut out, HEALTH_RESPONSE_MAGIC, HEALTH_RESPONSE_VERSION, 0);
    match response {
        HealthResponse::Report(report) => {
            out.push(STATUS_OK);
            out.push(report.status.to_u8());
            wire::put_f64(&mut out, report.error_rate);
            wire::put_u64(&mut out, report.p99_us);
            wire::put_u32(&mut out, report.backed_off);
            wire::put_u32(&mut out, report.backends);
            wire::put_u64(&mut out, report.epoch);
            wire::put_u32(&mut out, report.findings.len() as u32);
            for finding in &report.findings {
                wire::put_str(&mut out, finding);
            }
        }
        HealthResponse::Error { code, message } => put_error(&mut out, *code, message),
    }
    out
}

/// Decodes a health-check response payload. Never panics on malformed
/// input.
///
/// # Errors
/// Returns [`ServeError::Dsig`] on framing errors and
/// [`ServeError::Protocol`] on an unknown status byte or verdict tag.
pub fn decode_health_response(payload: &[u8]) -> Result<HealthResponse> {
    let mut r = wire::ByteReader::new(payload, "health response");
    r.tagged_header(HEALTH_RESPONSE_MAGIC, HEALTH_RESPONSE_VERSION)?;
    match r.u8()? {
        STATUS_OK => {
            let tag = r.u8()?;
            let status = HealthStatus::from_u8(tag)
                .ok_or_else(|| ServeError::Protocol(format!("unknown health status {tag}")))?;
            let error_rate = r.f64()?;
            let p99_us = r.u64()?;
            let backed_off = r.u32()?;
            let backends = r.u32()?;
            let epoch = r.u64()?;
            let n_findings = r.u32()? as usize;
            // Minimum finding: one empty length-prefixed string.
            r.check_count(n_findings, 4)?;
            let mut findings = Vec::with_capacity(n_findings);
            for _ in 0..n_findings {
                findings.push(r.string()?);
            }
            r.finish()?;
            Ok(HealthResponse::Report(HealthReport {
                status,
                error_rate,
                p99_us,
                backed_off,
                backends,
                epoch,
                findings,
            }))
        }
        STATUS_ERROR => read_error(r).map(|(code, message)| HealthResponse::Error { code, message }),
        other => Err(ServeError::Protocol(format!("unknown health response status {other}"))),
    }
}

/// Decodes any request frame by its payload magic — the dispatch point of a
/// serving or routing process. Never panics on malformed input.
///
/// # Errors
/// Returns [`ServeError::Protocol`] for an unknown magic and the specific
/// decoder's errors otherwise.
pub fn decode_any_request(payload: &[u8]) -> Result<Request> {
    match payload.get(..4) {
        Some(magic) if *magic == REQUEST_MAGIC => Ok(Request::Screen(decode_request(payload)?)),
        Some(magic) if *magic == MULTI_REQUEST_MAGIC => Ok(Request::MultiScreen(decode_multi_request(payload)?)),
        Some(magic) if *magic == RETEST_REQUEST_MAGIC => Ok(Request::Retest(decode_retest_request(payload)?)),
        Some(magic) if *magic == PUSH_MAGIC => decode_push_request(payload),
        Some(magic) if *magic == FETCH_MAGIC => decode_fetch_request(payload),
        Some(magic) if *magic == ADMIN_REQUEST_MAGIC => decode_admin_request(payload),
        Some(_) if scrape_of(payload).is_some() => decode_scrape_request(payload),
        Some(magic) => Err(ServeError::Protocol(format!(
            "unknown request magic {:?}",
            String::from_utf8_lossy(magic)
        ))),
        None => Err(ServeError::Protocol(format!(
            "request frame of {} bytes is too short for a magic",
            payload.len()
        ))),
    }
}

/// Encodes the response for a request frame that failed to decode, in the
/// response family the client is waiting for: admin requests
/// (`DSGP`/`DSGF`/`DSAQ`) are answered with a `DSRA` error, retest requests
/// (`DSRT`) with a `DSRR` error and each scrape with an error in the family
/// that answers it (`DSFM` in `DSMR`, `DSFT` in `DSTD` — the table
/// [`decode_scrape_request`] reads), so each client-side decoder surfaces
/// the server's message instead of a magic mismatch; everything else gets a
/// `DSRS` error.
pub fn encode_decode_error(payload: &[u8], message: String) -> Vec<u8> {
    let family = match payload.get(..4) {
        Some(magic) if *magic == PUSH_MAGIC || *magic == FETCH_MAGIC || *magic == ADMIN_REQUEST_MAGIC => {
            ADMIN_RESPONSE_MAGIC
        }
        Some(magic) if *magic == RETEST_REQUEST_MAGIC => RETEST_RESPONSE_MAGIC,
        _ => scrape_of(payload).map_or(RESPONSE_MAGIC, |&(_, _, family)| family),
    };
    let version = if family == HEALTH_RESPONSE_MAGIC {
        HEALTH_RESPONSE_VERSION
    } else {
        PROTO_VERSION
    };
    let mut out = Vec::with_capacity(32);
    wire::put_tagged_header(&mut out, family, version, 0);
    put_error(&mut out, ErrorCode::BadRequest, &message);
    out
}

/// Encodes an admin response payload (without the frame length prefix).
pub fn encode_admin_response(response: &AdminResponse) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    wire::put_tagged_header(&mut out, ADMIN_RESPONSE_MAGIC, PROTO_VERSION, 0);
    match response {
        AdminResponse::Ack => out.push(ADMIN_ACK),
        AdminResponse::Record { band, golden } => {
            out.push(ADMIN_RECORD);
            wire::put_f64(&mut out, band.ndf_threshold);
            wire::put_bytes(&mut out, &golden.to_bytes());
        }
        AdminResponse::Roster(roster) => {
            out.push(ADMIN_ROSTER);
            wire::put_u64(&mut out, roster.epoch);
            wire::put_u32(&mut out, roster.entries.len() as u32);
            for entry in &roster.entries {
                wire::put_str(&mut out, &entry.label);
                wire::put_u64(&mut out, entry.id);
                out.push(entry.state.to_u8());
            }
        }
        AdminResponse::Error { code, message } => put_error(&mut out, *code, message),
    }
    out
}

/// Decodes an admin response payload. Never panics on malformed input.
///
/// # Errors
/// Returns [`ServeError::Dsig`] on framing errors and
/// [`ServeError::Protocol`] on an unknown status byte.
pub fn decode_admin_response(payload: &[u8]) -> Result<AdminResponse> {
    let mut r = wire::ByteReader::new(payload, "admin response");
    r.tagged_header(ADMIN_RESPONSE_MAGIC, PROTO_VERSION)?;
    match r.u8()? {
        ADMIN_ACK => {
            r.finish()?;
            Ok(AdminResponse::Ack)
        }
        ADMIN_RECORD => {
            let band = AcceptanceBand::new(r.f64()?)?;
            let golden = Signature::from_bytes(r.bytes()?)?;
            r.finish()?;
            Ok(AdminResponse::Record { band, golden })
        }
        ADMIN_ROSTER => {
            let epoch = r.u64()?;
            let count = r.u32()? as usize;
            // Minimum per entry: 4-byte empty label + u64 id + u8 state.
            r.check_count(count, 13)?;
            let mut entries = Vec::with_capacity(count);
            for _ in 0..count {
                let label = r.string()?;
                let id = r.u64()?;
                let tag = r.u8()?;
                let state = BackendState::from_u8(tag)
                    .ok_or_else(|| ServeError::Protocol(format!("unknown backend state {tag}")))?;
                entries.push(RosterEntry { label, id, state });
            }
            r.finish()?;
            Ok(AdminResponse::Roster(FleetRoster { epoch, entries }))
        }
        STATUS_ERROR => read_error(r).map(|(code, message)| AdminResponse::Error { code, message }),
        other => Err(ServeError::Protocol(format!("unknown admin response status {other}"))),
    }
}

/// Encodes a response payload (without the frame length prefix).
pub fn encode_response(response: &ScreenResponse) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    wire::put_tagged_header(&mut out, RESPONSE_MAGIC, PROTO_VERSION, 0);
    match response {
        ScreenResponse::Results(results) => {
            out.push(STATUS_OK);
            wire::put_u32(&mut out, results.len() as u32);
            for result in results {
                wire::put_f64(&mut out, result.ndf);
                wire::put_u32(&mut out, result.peak_hamming);
                wire::put_outcome(&mut out, result.outcome);
            }
        }
        ScreenResponse::Error { code, message } => put_error(&mut out, *code, message),
    }
    out
}

/// Decodes a response payload. Never panics on malformed input.
///
/// # Errors
/// Returns [`ServeError::Dsig`] on framing errors (including unknown outcome
/// tags) and [`ServeError::Protocol`] on an unknown status byte.
pub fn decode_response(payload: &[u8]) -> Result<ScreenResponse> {
    let mut r = wire::ByteReader::new(payload, "screen response");
    r.tagged_header(RESPONSE_MAGIC, PROTO_VERSION)?;
    match r.u8()? {
        STATUS_OK => {
            let count = r.u32()? as usize;
            // 13 bytes per score: f64 ndf, u32 peak hamming, u8 outcome.
            r.check_count(count, 13)?;
            let mut results = Vec::with_capacity(count);
            for _ in 0..count {
                results.push(ScoreResult {
                    ndf: r.f64()?,
                    peak_hamming: r.u32()?,
                    outcome: r.outcome()?,
                });
            }
            r.finish()?;
            Ok(ScreenResponse::Results(results))
        }
        STATUS_ERROR => read_error(r).map(|(code, message)| ScreenResponse::Error { code, message }),
        other => Err(ServeError::Protocol(format!("unknown response status {other}"))),
    }
}

/// Writes one frame: a little-endian `u32` payload length, then the payload.
///
/// # Errors
/// Returns [`ServeError::Protocol`] for an oversized payload and
/// [`ServeError::Io`] on write errors.
pub fn write_frame(writer: &mut impl Write, payload: &[u8]) -> Result<()> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(ServeError::Protocol(format!(
            "frame of {} bytes exceeds the {MAX_FRAME_BYTES}-byte limit",
            payload.len()
        )));
    }
    writer.write_all(&(payload.len() as u32).to_le_bytes())?;
    writer.write_all(payload)?;
    Ok(())
}

/// Reads one frame. Returns `Ok(None)` on a clean end-of-stream (the peer
/// closed between frames).
///
/// # Errors
/// Returns [`ServeError::Protocol`] for an oversized length prefix and
/// [`ServeError::Io`] on read errors, including mid-frame end-of-stream.
pub fn read_frame(reader: &mut impl Read) -> Result<Option<Vec<u8>>> {
    let mut prefix = [0u8; 4];
    let mut filled = 0;
    while filled < prefix.len() {
        match reader.read(&mut prefix[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(ServeError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "stream ended inside a frame length prefix",
                )))
            }
            Ok(n) => filled += n,
            // Retry interrupted reads like read_exact does; a stray signal
            // must not tear down a healthy connection.
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(ServeError::Protocol(format!(
            "peer announced a frame of {len} bytes (limit {MAX_FRAME_BYTES})"
        )));
    }
    let mut payload = vec![0u8; len];
    reader.read_exact(&mut payload)?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsig_core::{SignatureEntry, TestOutcome, ZoneCode};

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

    #[test]
    fn request_round_trips() {
        let signatures = vec![sig(&[(1, 10e-6), (3, 20e-6)]), sig(&[(7, 1.0)])];
        let payload = encode_request(0xFEED_BEEF, &signatures);
        let decoded = decode_request(&payload).unwrap();
        assert_eq!(decoded.golden_key, 0xFEED_BEEF);
        assert_eq!(decoded.signatures, signatures);
        // An empty batch is legal.
        let empty = decode_request(&encode_request(1, &[])).unwrap();
        assert!(empty.signatures.is_empty());
    }

    #[test]
    fn responses_round_trip() {
        let ok = ScreenResponse::Results(vec![
            ScoreResult {
                ndf: 0.0125,
                peak_hamming: 2,
                outcome: TestOutcome::Pass,
            },
            ScoreResult {
                ndf: 0.41,
                peak_hamming: 5,
                outcome: TestOutcome::Fail,
            },
        ]);
        assert_eq!(decode_response(&encode_response(&ok)).unwrap(), ok);
        let err = ScreenResponse::Error {
            code: ErrorCode::UnknownGolden,
            message: "no such golden".into(),
        };
        assert_eq!(decode_response(&encode_response(&err)).unwrap(), err);
        for code in [ErrorCode::UnknownGolden, ErrorCode::BadRequest, ErrorCode::Internal] {
            assert_eq!(ErrorCode::from_u16(code.to_u16()).unwrap(), code);
        }
        assert!(ErrorCode::from_u16(99).is_err());
    }

    #[test]
    fn malformed_payloads_are_rejected_without_panicking() {
        let payload = encode_request(7, &[sig(&[(1, 1.0)])]);
        assert!(decode_request(&payload[..5]).is_err());
        assert!(decode_request(&payload[..payload.len() - 1]).is_err());
        let mut bad_magic = payload.clone();
        bad_magic[0] = b'X';
        assert!(decode_request(&bad_magic).is_err());
        let mut future = payload.clone();
        future[4..6].copy_from_slice(&42u16.to_le_bytes());
        assert!(decode_request(&future).is_err(), "future protocol version");
        let response = encode_response(&ScreenResponse::Results(vec![]));
        assert!(decode_response(&response[..3]).is_err());
        let mut bad_status = response;
        let at = 14; // magic + version + request id
        bad_status[at] = 9;
        assert!(matches!(decode_response(&bad_status), Err(ServeError::Protocol(_))));
    }

    #[test]
    fn multi_requests_round_trip_and_reject_malformed_payloads() {
        let items = vec![
            (7u64, sig(&[(1, 10e-6), (3, 20e-6)])),
            (9u64, sig(&[(7, 1.0)])),
            (7u64, sig(&[(2, 5e-6)])),
        ];
        let payload = encode_multi_request(&items);
        match decode_any_request(&payload).unwrap() {
            Request::MultiScreen(decoded) => assert_eq!(decoded.items, items),
            other => panic!("expected MultiScreen, got {other:?}"),
        }
        assert!(decode_multi_request(&encode_multi_request(&[]))
            .unwrap()
            .items
            .is_empty());
        assert!(decode_multi_request(&payload[..9]).is_err());
        assert!(decode_multi_request(&payload[..payload.len() - 2]).is_err());
        let mut trailing = payload.clone();
        trailing.push(0);
        assert!(decode_multi_request(&trailing).is_err());
    }

    #[test]
    fn retest_requests_round_trip_and_reject_malformed_payloads() {
        let policy = RetestPolicy::new(0.005, vec![2, 8]).unwrap();
        let request = RetestRequest {
            golden_key: 0xFEED,
            policy: policy.clone(),
            items: vec![
                RetestItem {
                    initial: sig(&[(1, 10e-6), (3, 20e-6)]),
                    repeats: vec![sig(&[(1, 11e-6)]), sig(&[(1, 9e-6)])],
                },
                RetestItem {
                    initial: sig(&[(7, 1.0)]),
                    repeats: vec![],
                },
            ],
        };
        let payload = encode_retest_request(&request);
        match decode_any_request(&payload).unwrap() {
            Request::Retest(decoded) => assert_eq!(decoded, request),
            other => panic!("expected Retest, got {other:?}"),
        }
        // Empty device lists are legal.
        let empty = RetestRequest {
            golden_key: 1,
            policy,
            items: vec![],
        };
        assert_eq!(decode_retest_request(&encode_retest_request(&empty)).unwrap(), empty);
        // Truncations, trailing bytes and broken policies are clean errors.
        assert!(decode_retest_request(&payload[..9]).is_err());
        assert!(decode_retest_request(&payload[..payload.len() - 2]).is_err());
        let mut trailing = payload.clone();
        trailing.push(0);
        assert!(decode_retest_request(&trailing).is_err());
        // The guard band sits after magic+version+request id (14) + trace
        // context (17) + golden key (8).
        let mut nan_guard = payload.clone();
        nan_guard[39..47].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        assert!(decode_retest_request(&nan_guard).is_err(), "NaN guard band");
        let mut bad_schedule = payload;
        // First schedule step (after magic+version+id+context+key+guard+step
        // count).
        bad_schedule[51..55].copy_from_slice(&0u32.to_le_bytes());
        assert!(decode_retest_request(&bad_schedule).is_err(), "zero schedule step");
    }

    #[test]
    fn retest_responses_round_trip_and_reject_malformed_payloads() {
        let ok = RetestResponse::Results(vec![
            RetestScore {
                score: ScoreResult {
                    ndf: 0.031,
                    peak_hamming: 2,
                    outcome: TestOutcome::Fail,
                },
                marginal: true,
                flipped: true,
                repeats_used: 8,
            },
            RetestScore {
                score: ScoreResult {
                    ndf: 0.001,
                    peak_hamming: 0,
                    outcome: TestOutcome::Pass,
                },
                marginal: false,
                flipped: false,
                repeats_used: 0,
            },
        ]);
        let payload = encode_retest_response(&ok);
        assert_eq!(decode_retest_response(&payload).unwrap(), ok);
        let err = RetestResponse::Error {
            code: ErrorCode::UnknownGolden,
            message: "no such golden".into(),
        };
        assert_eq!(decode_retest_response(&encode_retest_response(&err)).unwrap(), err);
        // Truncation, trailing bytes, bad status and bad boolean tags.
        assert!(decode_retest_response(&payload[..5]).is_err());
        let mut trailing = payload.clone();
        trailing.push(0);
        assert!(decode_retest_response(&trailing).is_err());
        let mut bad_status = payload.clone();
        bad_status[14] = 9;
        assert!(matches!(
            decode_retest_response(&bad_status),
            Err(ServeError::Protocol(_))
        ));
        let mut bad_marginal = payload;
        // First score: header(14) + status(1) + count(4) + ndf(8) + peak(4) +
        // outcome(1) puts the marginal tag at offset 32.
        bad_marginal[32] = 7;
        assert!(matches!(
            decode_retest_response(&bad_marginal),
            Err(ServeError::Protocol(_))
        ));
        // A decode failure of a DSRT request answers in the DSRR family.
        let response = encode_decode_error(b"DSRT", "bad".into());
        assert!(matches!(
            decode_retest_response(&response).unwrap(),
            RetestResponse::Error {
                code: ErrorCode::BadRequest,
                ..
            }
        ));
    }

    #[test]
    fn push_and_fetch_round_trip_and_reject_malformed_payloads() {
        let golden = sig(&[(1, 100e-6), (3, 100e-6)]);
        let band = AcceptanceBand::new(0.03).unwrap();
        let push = encode_push_request(0xFACE, band, &golden);
        match decode_any_request(&push).unwrap() {
            Request::PushGolden {
                key,
                band: decoded_band,
                golden: decoded,
            } => {
                assert_eq!(key, 0xFACE);
                assert_eq!(decoded_band, band);
                assert_eq!(decoded, golden);
            }
            other => panic!("expected PushGolden, got {other:?}"),
        }
        assert!(decode_push_request(&push[..10]).is_err());
        // A NaN threshold is caught by AcceptanceBand validation (the
        // threshold sits after magic+version+id (14) + context (17) + key (8)).
        let mut nan = push.clone();
        nan[39..47].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        assert!(decode_push_request(&nan).is_err());

        let fetch = encode_fetch_request(42);
        assert_eq!(decode_any_request(&fetch).unwrap(), Request::FetchGolden { key: 42 });
        assert!(decode_fetch_request(&fetch[..8]).is_err());
        let mut trailing = fetch.clone();
        trailing.push(1);
        assert!(decode_fetch_request(&trailing).is_err());

        // Unknown magics and short buffers are protocol errors, not panics.
        assert!(matches!(decode_any_request(b"NOPE1234"), Err(ServeError::Protocol(_))));
        assert!(matches!(decode_any_request(b"DS"), Err(ServeError::Protocol(_))));
    }

    #[test]
    fn admin_responses_round_trip_and_reject_malformed_payloads() {
        let band = AcceptanceBand::new(0.05).unwrap();
        let golden = sig(&[(1, 10e-6), (2, 20e-6)]);
        for response in [
            AdminResponse::Ack,
            AdminResponse::Record {
                band,
                golden: golden.clone(),
            },
            AdminResponse::Roster(FleetRoster {
                epoch: 5,
                entries: vec![
                    RosterEntry {
                        label: "127.0.0.1:9000".into(),
                        id: 0xFEED,
                        state: BackendState::Active,
                    },
                    RosterEntry {
                        label: "local-1".into(),
                        id: 7,
                        state: BackendState::Draining,
                    },
                ],
            }),
            AdminResponse::Error {
                code: ErrorCode::UnknownGolden,
                message: "no such golden".into(),
            },
        ] {
            let payload = encode_admin_response(&response);
            assert_eq!(decode_admin_response(&payload).unwrap(), response);
            assert!(decode_admin_response(&payload[..5]).is_err());
        }
        let mut bad_status = encode_admin_response(&AdminResponse::Ack);
        bad_status[14] = 9; // magic + version + request id
        assert!(matches!(
            decode_admin_response(&bad_status),
            Err(ServeError::Protocol(_))
        ));
        let mut trailing = encode_admin_response(&AdminResponse::Ack);
        trailing.push(0);
        assert!(decode_admin_response(&trailing).is_err());
        // An unknown backend-state tag is a clean protocol error: the tag of
        // the single empty-label entry sits at the end of the payload.
        let mut bad_state = encode_admin_response(&AdminResponse::Roster(FleetRoster {
            epoch: 1,
            entries: vec![RosterEntry {
                label: String::new(),
                id: 1,
                state: BackendState::BackedOff,
            }],
        }));
        *bad_state.last_mut().unwrap() = 9;
        assert!(matches!(
            decode_admin_response(&bad_state),
            Err(ServeError::Protocol(_))
        ));
        for state in [BackendState::Active, BackendState::Draining, BackendState::BackedOff] {
            assert_eq!(BackendState::from_u8(state.to_u8()), Some(state));
        }
        assert_eq!(BackendState::from_u8(3), None);
    }

    #[test]
    fn admin_requests_round_trip_and_reject_malformed_payloads() {
        for request in [
            AdminRequest::Join {
                label: "127.0.0.1:9000".into(),
            },
            AdminRequest::Leave {
                label: "127.0.0.1:9000".into(),
            },
            AdminRequest::Drain {
                label: "local-2".into(),
            },
            AdminRequest::List,
        ] {
            let payload = encode_admin_request(&request);
            assert_eq!(decode_any_request(&payload).unwrap(), Request::Admin(request.clone()));
            assert!(decode_admin_request(&payload[..9]).is_err(), "{request:?}");
            let mut trailing = payload.clone();
            trailing.push(0);
            assert!(decode_admin_request(&trailing).is_err(), "{request:?}");
            let mut future = payload.clone();
            future[4..6].copy_from_slice(&42u16.to_le_bytes());
            assert!(decode_admin_request(&future).is_err(), "{request:?} future version");
        }
        // An unknown verb tag is a clean protocol error. The verb sits after
        // magic+version+id (14) + trace context (17).
        let mut bad_verb = encode_admin_request(&AdminRequest::List);
        bad_verb[31] = 9;
        assert!(matches!(decode_admin_request(&bad_verb), Err(ServeError::Protocol(_))));
        // A list verb must not carry a label.
        let mut labelled_list = encode_admin_request(&AdminRequest::Drain { label: "x".into() });
        labelled_list[31] = 3;
        assert!(matches!(
            decode_admin_request(&labelled_list),
            Err(ServeError::Protocol(_))
        ));
    }

    #[test]
    fn decode_errors_answer_in_the_request_family() {
        let band = AcceptanceBand::new(0.03).unwrap();
        let golden = sig(&[(1, 1.0)]);
        // An undecodable admin request (future version) must get a DSRA
        // error, so the admin client surfaces the message instead of a magic
        // mismatch.
        let mut push = encode_push_request(1, band, &golden);
        push[4..6].copy_from_slice(&42u16.to_le_bytes());
        let err = decode_any_request(&push).unwrap_err();
        let response = encode_decode_error(&push, err.to_string());
        match decode_admin_response(&response).unwrap() {
            AdminResponse::Error { code, message } => {
                assert_eq!(code, ErrorCode::BadRequest);
                assert!(message.contains("version"), "{message}");
            }
            other => panic!("expected an admin error, got {other:?}"),
        }
        // An undecodable fleet-admin verb answers in the DSRA family too.
        let mut admin = encode_admin_request(&AdminRequest::List);
        admin[4..6].copy_from_slice(&42u16.to_le_bytes());
        let err = decode_any_request(&admin).unwrap_err();
        let response = encode_decode_error(&admin, err.to_string());
        assert!(matches!(
            decode_admin_response(&response).unwrap(),
            AdminResponse::Error {
                code: ErrorCode::BadRequest,
                ..
            }
        ));
        // Everything else (screening requests, unknown magics) answers DSRS.
        for payload in [&encode_request(1, &[])[..2], b"NOPE1234"] {
            let response = encode_decode_error(payload, "bad".into());
            assert!(matches!(
                decode_response(&response).unwrap(),
                ScreenResponse::Error {
                    code: ErrorCode::BadRequest,
                    ..
                }
            ));
        }
    }

    #[test]
    fn metrics_frames_round_trip_and_reject_malformed_payloads() {
        use dsig_obs::Registry;

        let request = encode_scrape_request(METRICS_REQUEST_MAGIC);
        assert_eq!(decode_any_request(&request).unwrap(), Request::Metrics);
        // A scrape request carries nothing beyond the header.
        let mut trailing_request = request.clone();
        trailing_request.push(0);
        assert!(decode_scrape_request(&trailing_request).is_err());
        let mut future = request.clone();
        future[4..6].copy_from_slice(&42u16.to_le_bytes());
        assert!(decode_scrape_request(&future).is_err(), "future protocol version");

        let registry = Registry::new();
        registry.counter("serve.requests.screen").add(3);
        registry.gauge("engine.devices_per_s").set(1234.5);
        registry.histogram("serve.dispatch_us").record_us(17);
        let ok = MetricsResponse::Snapshot(registry.snapshot());
        let payload = encode_metrics_response(&ok);
        assert_eq!(decode_metrics_response(&payload).unwrap(), ok);

        let err = MetricsResponse::Error {
            code: ErrorCode::Internal,
            message: "registry unavailable".into(),
        };
        assert_eq!(decode_metrics_response(&encode_metrics_response(&err)).unwrap(), err);

        // Truncation, trailing bytes and a bad status are clean errors.
        assert!(decode_metrics_response(&payload[..5]).is_err());
        assert!(decode_metrics_response(&payload[..payload.len() - 1]).is_err());
        let mut trailing = payload.clone();
        trailing.push(0);
        assert!(decode_metrics_response(&trailing).is_err());
        let mut bad_status = payload;
        bad_status[14] = 9; // magic + version + request id
        assert!(matches!(
            decode_metrics_response(&bad_status),
            Err(ServeError::Protocol(_))
        ));

        // A decode failure of a DSMX request answers in the DSMR family.
        let response = encode_decode_error(&encode_scrape_request(METRICS_REQUEST_MAGIC)[..5], "bad".into());
        assert!(matches!(
            decode_metrics_response(&response).unwrap(),
            MetricsResponse::Error {
                code: ErrorCode::BadRequest,
                ..
            }
        ));
    }

    #[test]
    fn requests_carry_the_ambient_trace_context() {
        let ctx = TraceContext {
            trace_id: 0xABCD,
            parent_span: 0x1234,
            sampled: true,
        };
        let band = AcceptanceBand::new(0.03).unwrap();
        let golden = sig(&[(1, 1.0)]);
        let frames: Vec<(&str, Vec<u8>)> = {
            let _guard = trace::with_context(ctx);
            vec![
                ("DSRQ", encode_request(7, &[sig(&[(1, 1.0)])])),
                ("DSRM", encode_multi_request(&[(7, sig(&[(1, 1.0)]))])),
                (
                    "DSRT",
                    encode_retest_request(&RetestRequest {
                        golden_key: 7,
                        policy: RetestPolicy::new(0.01, vec![2]).unwrap(),
                        items: vec![],
                    }),
                ),
                ("DSGP", encode_push_request(7, band, &golden)),
                ("DSGF", encode_fetch_request(7)),
                ("DSAQ", encode_admin_request(&AdminRequest::List)),
            ]
        };
        for (what, payload) in &frames {
            assert_eq!(decode_request_context(payload), ctx, "{what}");
            // The context block never breaks body decoding.
            assert!(decode_any_request(payload).is_ok(), "{what}");
        }
        // Outside the guard the ambient context is gone: frames carry the
        // null context, and the peek agrees.
        let bare = encode_fetch_request(7);
        assert_eq!(decode_request_context(&bare), TraceContext::NONE);
        // Non-context frames and garbage peek to NONE instead of erroring.
        assert_eq!(
            decode_request_context(&encode_scrape_request(METRICS_REQUEST_MAGIC)),
            TraceContext::NONE
        );
        assert_eq!(decode_request_context(b"DS"), TraceContext::NONE);
        assert_eq!(decode_request_context(b"NOPE1234"), TraceContext::NONE);
    }

    #[test]
    fn traces_frames_round_trip_and_reject_malformed_payloads() {
        use dsig_obs::SpanRecord;

        let request = encode_scrape_request(TRACES_REQUEST_MAGIC);
        assert_eq!(decode_any_request(&request).unwrap(), Request::Traces);
        // A scrape request carries nothing beyond the header.
        let mut trailing_request = request.clone();
        trailing_request.push(0);
        assert!(decode_scrape_request(&trailing_request).is_err());
        let mut future = request.clone();
        future[4..6].copy_from_slice(&42u16.to_le_bytes());
        assert!(decode_scrape_request(&future).is_err(), "future protocol version");

        let log = TraceLog {
            spans: vec![SpanRecord {
                trace_id: 1,
                span_id: 2,
                parent_span: 0,
                name: "serve.dispatch".into(),
                tier: "serve".into(),
                start_us: 10,
                end_us: 40,
                annotations: vec![("batch".into(), "64".into())],
            }],
        };
        let ok = TracesResponse::Log(log);
        let payload = encode_traces_response(&ok);
        assert_eq!(decode_traces_response(&payload).unwrap(), ok);

        let err = TracesResponse::Error {
            code: ErrorCode::Internal,
            message: "tracer unavailable".into(),
        };
        assert_eq!(decode_traces_response(&encode_traces_response(&err)).unwrap(), err);

        // Truncation, trailing bytes and a bad status are clean errors.
        assert!(decode_traces_response(&payload[..5]).is_err());
        assert!(decode_traces_response(&payload[..payload.len() - 1]).is_err());
        let mut trailing = payload.clone();
        trailing.push(0);
        assert!(decode_traces_response(&trailing).is_err());
        let mut bad_status = payload;
        bad_status[14] = 9; // magic + version + request id
        assert!(matches!(
            decode_traces_response(&bad_status),
            Err(ServeError::Protocol(_))
        ));

        // A decode failure of a DSTX request answers in the DSTD family.
        let response = encode_decode_error(&encode_scrape_request(TRACES_REQUEST_MAGIC)[..5], "bad".into());
        assert!(matches!(
            decode_traces_response(&response).unwrap(),
            TracesResponse::Error {
                code: ErrorCode::BadRequest,
                ..
            }
        ));
    }

    #[test]
    fn fleet_scrape_requests_round_trip_and_answer_in_leaf_families() {
        for (payload, want) in [
            (
                encode_scrape_request(FLEET_METRICS_REQUEST_MAGIC),
                Request::FleetMetrics,
            ),
            (encode_scrape_request(FLEET_TRACES_REQUEST_MAGIC), Request::FleetTraces),
            (encode_scrape_request(EVENTS_REQUEST_MAGIC), Request::Events),
            (encode_scrape_request(HEALTH_REQUEST_MAGIC), Request::Health),
        ] {
            assert_eq!(decode_any_request(&payload).unwrap(), want);
            // Scrape requests carry nothing beyond the header.
            let mut trailing = payload.clone();
            trailing.push(0);
            assert!(decode_any_request(&trailing).is_err(), "{want:?}");
            let mut future = payload.clone();
            future[4..6].copy_from_slice(&42u16.to_le_bytes());
            assert!(decode_any_request(&future).is_err(), "{want:?} future version");
        }
        // Decode failures answer in the family the client decodes: DSFM in
        // DSMR, DSFT in DSTD, DSEX in DSED, DSHC in DSHR.
        let response = encode_decode_error(&encode_scrape_request(FLEET_METRICS_REQUEST_MAGIC)[..5], "bad".into());
        assert!(matches!(
            decode_metrics_response(&response).unwrap(),
            MetricsResponse::Error { .. }
        ));
        let response = encode_decode_error(&encode_scrape_request(FLEET_TRACES_REQUEST_MAGIC)[..5], "bad".into());
        assert!(matches!(
            decode_traces_response(&response).unwrap(),
            TracesResponse::Error { .. }
        ));
        let response = encode_decode_error(&encode_scrape_request(EVENTS_REQUEST_MAGIC)[..5], "bad".into());
        assert!(matches!(
            decode_events_response(&response).unwrap(),
            EventsResponse::Error { .. }
        ));
        let response = encode_decode_error(&encode_scrape_request(HEALTH_REQUEST_MAGIC)[..5], "bad".into());
        assert!(matches!(
            decode_health_response(&response).unwrap(),
            HealthResponse::Error { .. }
        ));
    }

    #[test]
    fn events_responses_round_trip_and_reject_malformed_payloads() {
        use dsig_obs::{EventLevel, EventRecord};

        let ok = EventsResponse::Log(EventLog {
            events: vec![EventRecord {
                level: EventLevel::Warn,
                tier: "router".into(),
                name: "backend.backed_off".into(),
                message: "local-1 down".into(),
                fields: vec![("backend".into(), "local-1".into())],
                at_us: 123,
                trace_id: 0xFEED,
            }],
        });
        let payload = encode_events_response(&ok);
        assert_eq!(decode_events_response(&payload).unwrap(), ok);
        let err = EventsResponse::Error {
            code: ErrorCode::Internal,
            message: "sink unavailable".into(),
        };
        assert_eq!(decode_events_response(&encode_events_response(&err)).unwrap(), err);
        assert!(decode_events_response(&payload[..5]).is_err());
        assert!(decode_events_response(&payload[..payload.len() - 1]).is_err());
        let mut trailing = payload.clone();
        trailing.push(0);
        assert!(decode_events_response(&trailing).is_err());
        let mut bad_status = payload;
        bad_status[14] = 9; // magic + version + request id
        assert!(matches!(
            decode_events_response(&bad_status),
            Err(ServeError::Protocol(_))
        ));
    }

    #[test]
    fn health_responses_round_trip_and_reject_malformed_payloads() {
        let ok = HealthResponse::Report(HealthReport {
            status: HealthStatus::Degraded,
            error_rate: 0.25,
            p99_us: 45_000,
            backed_off: 1,
            backends: 3,
            epoch: 4,
            findings: vec!["1 of 3 backends backed off".into()],
        });
        let payload = encode_health_response(&ok);
        assert_eq!(decode_health_response(&payload).unwrap(), ok);
        let err = HealthResponse::Error {
            code: ErrorCode::Internal,
            message: "no snapshot".into(),
        };
        assert_eq!(decode_health_response(&encode_health_response(&err)).unwrap(), err);
        assert!(decode_health_response(&payload[..5]).is_err());
        assert!(decode_health_response(&payload[..payload.len() - 1]).is_err());
        let mut trailing = payload.clone();
        trailing.push(0);
        assert!(decode_health_response(&trailing).is_err());
        let mut bad_status = payload.clone();
        bad_status[14] = 9; // magic + version + request id
        assert!(matches!(
            decode_health_response(&bad_status),
            Err(ServeError::Protocol(_))
        ));
        // An unknown verdict tag (right after the status byte) is an error.
        let mut bad_verdict = payload;
        bad_verdict[15] = 9;
        assert!(matches!(
            decode_health_response(&bad_verdict),
            Err(ServeError::Protocol(_))
        ));
    }

    #[test]
    fn request_ids_stamp_and_peek_across_every_tagged_family() {
        // A freshly encoded frame carries the placeholder id 0; stamping
        // patches bytes 6..14 in place and the peek reads it back.
        let mut request = encode_request(7, &[sig(&[(1, 1.0)])]);
        assert_eq!(peek_request_id(&request), 0);
        stamp_request_id(&mut request, 0xABCD_EF01_2345_6789);
        assert_eq!(peek_request_id(&request), 0xABCD_EF01_2345_6789);
        // The body still decodes — the id lives outside it.
        assert!(decode_request(&request).is_ok());
        // The context peek skips the id correctly.
        assert_eq!(decode_request_context(&request), TraceContext::NONE);

        let mut response = encode_response(&ScreenResponse::Results(vec![]));
        stamp_request_id(&mut response, 42);
        assert_eq!(peek_request_id(&response), 42);
        assert!(decode_response(&response).is_ok());

        for mut frame in [
            encode_multi_request(&[]),
            encode_retest_request(&RetestRequest {
                golden_key: 1,
                policy: RetestPolicy::new(0.005, vec![2]).unwrap(),
                items: vec![],
            }),
            encode_push_request(1, AcceptanceBand::new(0.03).unwrap(), &sig(&[(1, 1.0)])),
            encode_fetch_request(1),
            encode_admin_request(&AdminRequest::Join {
                label: "127.0.0.1:9000".into(),
            }),
            encode_scrape_request(METRICS_REQUEST_MAGIC),
            encode_scrape_request(TRACES_REQUEST_MAGIC),
            encode_scrape_request(FLEET_METRICS_REQUEST_MAGIC),
            encode_scrape_request(FLEET_TRACES_REQUEST_MAGIC),
            encode_scrape_request(EVENTS_REQUEST_MAGIC),
            encode_scrape_request(HEALTH_REQUEST_MAGIC),
            encode_retest_response(&RetestResponse::Results(vec![])),
            encode_admin_response(&AdminResponse::Ack),
            encode_admin_response(&AdminResponse::Roster(FleetRoster {
                epoch: 1,
                entries: vec![],
            })),
            encode_events_response(&EventsResponse::Log(EventLog::default())),
            encode_health_response(&HealthResponse::Error {
                code: ErrorCode::Internal,
                message: "x".into(),
            }),
            encode_decode_error(b"DSRQ", "boom".into()),
        ] {
            assert_eq!(peek_request_id(&frame), 0);
            stamp_request_id(&mut frame, 99);
            assert_eq!(peek_request_id(&frame), 99, "family {:?}", &frame[..4]);
        }
        // The peek is a read of bytes 6..14, whatever the magic; a payload
        // too short to carry an id peeks as 0 without panicking.
        assert_eq!(peek_request_id(b"NOPE12\x07\0\0\0\0\0\0\0tail"), 7);
        assert_eq!(peek_request_id(b"DS"), 0);
        assert_eq!(peek_request_id(b"DSRQ\x03\0\x07"), 0);
    }

    #[test]
    fn older_frame_versions_are_rejected_like_malformed_frames() {
        // Hand-built frames of the versions before the current layout: a v2
        // work request (trace context, no id), a v1 one (bare header), a v1
        // response and scrape, and a v2 health report (no epoch).
        let mut v2 = Vec::new();
        wire::put_header(&mut v2, REQUEST_MAGIC, 2);
        trace::put_trace_context(&mut v2, TraceContext::NONE);
        wire::put_u64(&mut v2, 7);
        wire::put_u32(&mut v2, 0);
        let mut v1 = Vec::new();
        wire::put_header(&mut v1, REQUEST_MAGIC, 1);
        wire::put_u64(&mut v1, 9);
        wire::put_u32(&mut v1, 0);
        let mut fetch = Vec::new();
        wire::put_header(&mut fetch, FETCH_MAGIC, 1);
        wire::put_u64(&mut fetch, 42);
        let mut scrape = Vec::new();
        wire::put_header(&mut scrape, METRICS_REQUEST_MAGIC, 1);
        for old in [&v2, &v1, &fetch, &scrape] {
            let err = decode_any_request(old).unwrap_err();
            assert!(err.to_string().contains("version"), "{err}");
            assert_eq!(decode_request_context(old), TraceContext::NONE);
        }
        assert!(decode_request(&v2).is_err());
        assert!(decode_request(&v1).is_err());

        let mut r1 = Vec::new();
        wire::put_header(&mut r1, RESPONSE_MAGIC, 1);
        r1.push(STATUS_OK);
        wire::put_u32(&mut r1, 0);
        assert!(decode_response(&r1).is_err());

        let mut h2 = Vec::new();
        wire::put_tagged_header(&mut h2, HEALTH_RESPONSE_MAGIC, 2, 0);
        h2.push(STATUS_OK);
        h2.push(HealthStatus::Pass.to_u8());
        wire::put_f64(&mut h2, 0.0);
        wire::put_u64(&mut h2, 17);
        wire::put_u32(&mut h2, 0);
        wire::put_u32(&mut h2, 2);
        wire::put_u32(&mut h2, 0);
        assert!(decode_health_response(&h2).is_err());

        // A current work request truncated inside the id region is an
        // error, not a panic.
        let tagged = encode_request(7, &[]);
        assert!(decode_request(&tagged[..10]).is_err());
    }

    #[test]
    fn frames_round_trip_over_a_stream() {
        let mut stream = Vec::new();
        write_frame(&mut stream, b"alpha").unwrap();
        write_frame(&mut stream, b"").unwrap();
        write_frame(&mut stream, b"beta").unwrap();
        let mut reader = stream.as_slice();
        assert_eq!(read_frame(&mut reader).unwrap().unwrap(), b"alpha");
        assert_eq!(read_frame(&mut reader).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut reader).unwrap().unwrap(), b"beta");
        assert!(read_frame(&mut reader).unwrap().is_none(), "clean end of stream");
    }

    #[test]
    fn frame_reader_rejects_abuse() {
        // Truncated prefix.
        let mut reader: &[u8] = &[1, 2];
        assert!(matches!(read_frame(&mut reader), Err(ServeError::Io(_))));
        // Truncated payload.
        let mut stream = Vec::new();
        write_frame(&mut stream, b"payload").unwrap();
        stream.truncate(stream.len() - 2);
        let mut reader = stream.as_slice();
        assert!(matches!(read_frame(&mut reader), Err(ServeError::Io(_))));
        // An absurd announced length is a protocol violation, not an
        // allocation.
        let huge = (u32::MAX).to_le_bytes();
        let mut reader: &[u8] = &huge;
        assert!(matches!(read_frame(&mut reader), Err(ServeError::Protocol(_))));
    }
}
