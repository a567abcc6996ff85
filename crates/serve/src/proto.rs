//! The compact binary wire protocol, std-only.
//!
//! Every message travels as a length-prefixed frame; payloads follow the
//! shared versioned-header convention of [`dsig_core::wire`], and every body
//! is declared once through its [`Wire`] impl. Every request and response
//! frame carries its `u64` request id at bytes `6..14` and is read at
//! exactly its current version — wire frames are never persisted, so an
//! older frame is rejected like any malformed one. See the crate docs for
//! the full byte layout.
//!
//! The protocol is deliberately batch-first: one request carries any number
//! of signatures for one golden, so the framing, syscall and dispatch cost is
//! amortized over the batch.
//!
//! Every request kind is one variant of [`Request`], which borrows its bodies
//! when a caller builds it and owns them when [`decode_any_request`] does;
//! every reply is one variant of [`Response`]. Which reply family answers
//! which request is decided in one place, [`Family::of`].

use std::borrow::Cow;
use std::io::{Read, Write};

use dsig_core::wire::{self, ByteReader, Wire};
use dsig_core::{AcceptanceBand, Signature};
use dsig_obs::trace::{self, TraceContext};
use dsig_obs::{EventLog, HealthReport, MetricsSnapshot, TraceLog};

use crate::error::{Result, ServeError};
use crate::store::GoldenRecord;

pub use dsig_engine::{RetestItem, RetestRequest, RetestScore, ScoreResult};

/// Magic prefix of request payloads.
pub const REQUEST_MAGIC: [u8; 4] = *b"DSRQ";
/// Magic prefix of response payloads.
pub const RESPONSE_MAGIC: [u8; 4] = *b"DSRS";
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
/// device carries its single-shot signature plus the measurement repeats
/// captured so far (any prefix of the escalation, up to the cap), and the
/// server verdicts marginal devices through the [`dsig_core::RetestPolicy`]
/// escalation walk, clamped to the repeats sent, before answering.
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
/// (`DSRQ`/`DSRT`/`DSGP`/`DSGF`/`DSAQ`): magic, version, the `u64` request
/// id at bytes `6..14`, then a fixed 17-byte trace context.
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

dsig_core::wire_tags!(ErrorCode: u16 {
    UnknownGolden = 1,
    BadRequest = 2,
    Internal = 3,
});

/// A screening request: score `signatures` against the golden stored under
/// `golden_key`. The signatures are borrowed when a caller builds the request
/// and owned when [`decode_request`] builds it.
#[derive(Debug, Clone, PartialEq)]
pub struct ScreenRequest<'a> {
    /// Fingerprint of the golden to score against
    /// (see [`dsig_engine::golden_fingerprint`]).
    pub golden_key: u64,
    /// The observed signatures to score, in request order.
    pub signatures: Cow<'a, [Signature]>,
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

/// A verb tag, then the addressed label; [`AdminRequest::List`] carries an
/// empty one.
impl Wire for AdminRequest {
    const MIN_BYTES: usize = 1 + 4;

    fn put(&self, out: &mut Vec<u8>) {
        static NO_LABEL: String = String::new();
        let (verb, label) = match self {
            AdminRequest::Join { label } => (0u8, label),
            AdminRequest::Leave { label } => (1, label),
            AdminRequest::Drain { label } => (2, label),
            AdminRequest::List => (3, &NO_LABEL),
        };
        verb.put(out);
        label.put(out);
    }

    fn get(r: &mut ByteReader<'_>) -> dsig_core::Result<Self> {
        let (verb, label) = <(u8, String)>::get(r)?;
        match verb {
            0 => Ok(AdminRequest::Join { label }),
            1 => Ok(AdminRequest::Leave { label }),
            2 => Ok(AdminRequest::Drain { label }),
            3 if label.is_empty() => Ok(AdminRequest::List),
            3 => Err(r.corrupt(format!("admin list request carries an unexpected label {label:?}"))),
            other => Err(r.corrupt(format!("unknown admin verb {other}"))),
        }
    }
}

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

dsig_core::wire_tags!(BackendState: u8 {
    Active = 0,
    Draining = 1,
    BackedOff = 2,
});

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

dsig_core::wire_fields!(RosterEntry { label, id, state });

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

dsig_core::wire_fields!(FleetRoster { epoch, entries });

/// Any request the serving tier understands: what a [`crate::Service`]
/// answers and what a request frame decodes to (see [`decode_any_request`]).
/// Bodies are borrowed when a caller builds the request, so neither an
/// in-process hop nor a TCP encode copies a signature, and owned when the
/// decoder builds it.
#[derive(Debug, Clone, PartialEq)]
pub enum Request<'a> {
    /// A single-golden screening request (`DSRQ`).
    Screen(ScreenRequest<'a>),
    /// An adaptive-retest screening request (`DSRT`).
    Retest(Cow<'a, RetestRequest>),
    /// A golden replication push (`DSGP`): store `golden` under `key`.
    PushGolden {
        /// Fingerprint the golden is stored under.
        key: u64,
        /// Acceptance band applied to NDFs scored against this golden.
        band: AcceptanceBand,
        /// The golden signature.
        golden: Cow<'a, Signature>,
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

impl<'a> Request<'a> {
    /// A screening request borrowing its signatures.
    pub fn screen(golden_key: u64, signatures: &'a [Signature]) -> Self {
        Request::Screen(ScreenRequest {
            golden_key,
            signatures: Cow::Borrowed(signatures),
        })
    }

    /// An adaptive-retest request borrowing its devices.
    pub fn retest(request: &'a RetestRequest) -> Self {
        Request::Retest(Cow::Borrowed(request))
    }

    /// A golden push borrowing its golden.
    pub fn push(key: u64, band: AcceptanceBand, golden: &'a Signature) -> Self {
        Request::PushGolden {
            key,
            band,
            golden: Cow::Borrowed(golden),
        }
    }
}

impl Request<'_> {
    /// The magic of this request's frame.
    pub fn magic(&self) -> [u8; 4] {
        match self {
            Request::Screen(_) => REQUEST_MAGIC,
            Request::Retest(_) => RETEST_REQUEST_MAGIC,
            Request::PushGolden { .. } => PUSH_MAGIC,
            Request::FetchGolden { .. } => FETCH_MAGIC,
            Request::Metrics => METRICS_REQUEST_MAGIC,
            Request::Traces => TRACES_REQUEST_MAGIC,
            Request::FleetMetrics => FLEET_METRICS_REQUEST_MAGIC,
            Request::Events => EVENTS_REQUEST_MAGIC,
            Request::Health => HEALTH_REQUEST_MAGIC,
            Request::Admin(_) => ADMIN_REQUEST_MAGIC,
        }
    }

    /// The response family that answers this request.
    pub fn family(&self) -> Family {
        Family::of(&self.magic())
    }

    /// Whether a client may resend this request on a fresh connection when
    /// the first one dies: every request but the drains (`DSTX`, `DSEX`),
    /// which consume what they return.
    pub fn resendable(&self) -> bool {
        !matches!(self, Request::Traces | Request::Events)
    }

    /// The golden fingerprint this request names, if any: an unknown-golden
    /// error in its reply is reported under this key.
    pub fn golden_key(&self) -> Option<u64> {
        match self {
            Request::Screen(request) => Some(request.golden_key),
            Request::Retest(request) => Some(request.golden_key),
            Request::PushGolden { key, .. } | Request::FetchGolden { key } => Some(*key),
            _ => None,
        }
    }

    /// Encodes this request's payload (without the frame length prefix),
    /// writing every borrowed body straight into the frame.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Request::Screen(request) => encode_request(request.golden_key, &request.signatures),
            Request::Retest(request) => encode_retest_request(request),
            Request::PushGolden { key, band, golden } => encode_push_request(*key, *band, golden),
            Request::FetchGolden { key } => encode_fetch_request(*key),
            Request::Admin(request) => encode_admin_request(request),
            scrape => encode_scrape_request(scrape.magic()),
        }
    }
}

/// A decoded response of any family: the operation's results, or the error
/// body every response family shares.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply<T> {
    /// The operation's results: the family's ok body.
    Results(T),
    /// The request failed server-side.
    Error {
        /// Machine-readable error class.
        code: ErrorCode,
        /// Rendered error message.
        message: String,
    },
}

/// A screening response (`DSRS`): one score per request signature, in
/// request order, or an error.
pub type ScreenResponse = Reply<Vec<ScoreResult>>;
/// An adaptive-retest response (`DSRR`): one retest score per request
/// device, in request order, or an error.
pub type RetestResponse = Reply<Vec<RetestScore>>;

impl<T> Reply<T> {
    /// The same reply with its ok body mapped through `f`.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Reply<U> {
        match self {
            Reply::Results(body) => Reply::Results(f(body)),
            Reply::Error { code, message } => Reply::Error { code, message },
        }
    }

    /// The results, or the server's error: an unknown golden as
    /// [`ServeError::UnknownGolden`] of `golden_key` when the request named
    /// one, anything else as [`ServeError::Remote`] with the server's
    /// message.
    ///
    /// # Errors
    /// As above.
    pub fn into_result(self, golden_key: Option<u64>) -> Result<T> {
        match (self, golden_key) {
            (Reply::Results(body), _) => Ok(body),
            (
                Reply::Error {
                    code: ErrorCode::UnknownGolden,
                    ..
                },
                Some(key),
            ) => Err(ServeError::UnknownGolden(key)),
            (Reply::Error { message, .. }, _) => Err(ServeError::Remote(message)),
        }
    }
}

/// The ok body of a `DSRA` admin response: the status byte is the body's
/// tag.
#[derive(Debug, Clone, PartialEq)]
pub enum AdminReply {
    /// The push was applied.
    Ack,
    /// The fetched golden record.
    Record(GoldenRecord),
    /// The membership roster answering a fleet-admin verb.
    Roster(FleetRoster),
}

dsig_core::wire_tags!(AdminReply: u8 {
    Ack = 0,
    Record(GoldenRecord) = 2,
    Roster(FleetRoster) = 3,
});

/// The ok body of one response family: the family's magic, version and
/// decode context, and the status byte its body travels under.
pub trait ReplyBody: Wire {
    /// The response family's magic.
    const MAGIC: [u8; 4];
    /// What decode errors name.
    const CONTEXT: &'static str;
    /// The response family's frame version.
    const VERSION: u16 = PROTO_VERSION;
    /// The ok status byte, or `None` for a body whose own tag is its
    /// status byte (`DSRA`).
    const STATUS: Option<u8> = Some(STATUS_OK);

    /// The body of `response`, if it belongs to this family.
    fn from_response(response: Response) -> Option<Self>;
}

/// Declares every response family once — its [`Response`] and [`Family`]
/// variant, ok-body type, magic, decode context and any other [`ReplyBody`]
/// constant — and derives from that list each body's [`ReplyBody`] impl and
/// the per-family reply, error and decode paths.
macro_rules! reply_families {
    ($($(#[$doc:meta])* $family:ident($body:ty) = $magic:ident, $context:literal $(, $name:ident: $ty:ty = $value:expr)*;)*) => {
        /// A reply body of any family: what a [`crate::Service`] answers.
        #[derive(Debug, Clone, PartialEq)]
        pub enum Response {
            $($(#[$doc])* $family($body),)*
        }

        /// The response families: which frame answers a request (see
        /// [`Family::of`]).
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Family {
            $($(#[$doc])* $family,)*
        }

        $(impl ReplyBody for $body {
            const MAGIC: [u8; 4] = $magic;
            const CONTEXT: &'static str = $context;
            $(const $name: $ty = $value;)*

            fn from_response(response: Response) -> Option<Self> {
                match response {
                    Response::$family(body) => Some(body),
                    _ => None,
                }
            }
        })*

        impl Response {
            /// Encodes this reply's payload (without the frame length
            /// prefix).
            pub fn encode(self) -> Vec<u8> {
                match self {
                    $(Response::$family(body) => encode_reply(&Reply::Results(body)),)*
                }
            }
        }

        impl Family {
            /// Encodes an error reply of this family.
            pub fn error(self, code: ErrorCode, message: String) -> Vec<u8> {
                match self {
                    $(Family::$family => encode_reply(&Reply::<$body>::Error { code, message }),)*
                }
            }

            /// Decodes a reply payload of this family. Never panics on
            /// malformed input.
            ///
            /// # Errors
            /// As for [`decode_reply`].
            pub fn decode(self, payload: &[u8]) -> Result<Reply<Response>> {
                Ok(match self {
                    $(Family::$family => decode_reply::<$body>(payload)?.map(Response::$family),)*
                })
            }
        }
    };
}

reply_families! {
    /// Screening scores (`DSRS`): one per request signature.
    Screen(Vec<ScoreResult>) = RESPONSE_MAGIC, "screen response";
    /// Adaptive-retest scores (`DSRR`): one per request device.
    Retest(Vec<RetestScore>) = RETEST_RESPONSE_MAGIC, "retest response";
    /// An admin answer (`DSRA`): a push ack, a fetched record or a roster.
    Admin(AdminReply) = ADMIN_RESPONSE_MAGIC, "admin response", STATUS: Option<u8> = None;
    /// A metrics snapshot (`DSMR`).
    Metrics(MetricsSnapshot) = METRICS_RESPONSE_MAGIC, "metrics response";
    /// Drained trace spans (`DSTD`).
    Traces(TraceLog) = TRACES_RESPONSE_MAGIC, "traces response";
    /// Drained events (`DSED`).
    Events(EventLog) = EVENTS_RESPONSE_MAGIC, "events response";
    /// A health verdict (`DSHR`).
    Health(HealthReport) = HEALTH_RESPONSE_MAGIC, "health response", VERSION: u16 = HEALTH_RESPONSE_VERSION;
}

impl Family {
    /// The family that answers request payloads of `magic`'s first four
    /// bytes — the one place that decides which reply answers which
    /// request. A payload of no known magic is answered as a screen.
    pub fn of(magic: &[u8]) -> Family {
        match magic.get(..4).and_then(|magic| <[u8; 4]>::try_from(magic).ok()) {
            Some(PUSH_MAGIC | FETCH_MAGIC | ADMIN_REQUEST_MAGIC) => Family::Admin,
            Some(RETEST_REQUEST_MAGIC) => Family::Retest,
            Some(METRICS_REQUEST_MAGIC | FLEET_METRICS_REQUEST_MAGIC) => Family::Metrics,
            Some(TRACES_REQUEST_MAGIC) => Family::Traces,
            Some(EVENTS_REQUEST_MAGIC) => Family::Events,
            Some(HEALTH_REQUEST_MAGIC) => Family::Health,
            _ => Family::Screen,
        }
    }
}

impl Response {
    /// This response's body as a `T`.
    ///
    /// # Errors
    /// Returns [`ServeError::Protocol`] when the response belongs to another
    /// family.
    pub fn into_body<T: ReplyBody>(self) -> Result<T> {
        T::from_response(self)
            .ok_or_else(|| ServeError::Protocol(format!("expected a {}, got another family", T::CONTEXT)))
    }
}

/// A status byte, then the ok body or the shared error body: `u16` error
/// code and message.
impl<T: ReplyBody> Wire for Reply<T> {
    const MIN_BYTES: usize = 1;

    fn put(&self, out: &mut Vec<u8>) {
        match self {
            Reply::Results(body) => {
                if let Some(status) = T::STATUS {
                    status.put(out);
                }
                body.put(out);
            }
            Reply::Error { code, message } => {
                STATUS_ERROR.put(out);
                code.put(out);
                message.put(out);
            }
        }
    }

    fn get(r: &mut ByteReader<'_>) -> dsig_core::Result<Self> {
        if r.peek() == Some(STATUS_ERROR) {
            let (_, code, message) = <(u8, ErrorCode, String)>::get(r)?;
            return Ok(Reply::Error { code, message });
        }
        if let Some(status) = T::STATUS {
            let got = u8::get(r)?;
            if got != status {
                return Err(r.corrupt(format!("unknown response status {got}")));
            }
        }
        Ok(Reply::Results(T::get(r)?))
    }
}

/// Every request magic. The first five are the work-carrying requests
/// (`DSRQ`/`DSRT`/`DSGP`/`DSGF`/`DSAQ`), whose frames carry a trace context
/// after the request id; the rest are the header-only scrapes.
pub(crate) const REQUEST_MAGICS: [[u8; 4]; 10] = [
    REQUEST_MAGIC,
    RETEST_REQUEST_MAGIC,
    PUSH_MAGIC,
    FETCH_MAGIC,
    ADMIN_REQUEST_MAGIC,
    METRICS_REQUEST_MAGIC,
    TRACES_REQUEST_MAGIC,
    FLEET_METRICS_REQUEST_MAGIC,
    EVENTS_REQUEST_MAGIC,
    HEALTH_REQUEST_MAGIC,
];

/// Starts a work-request frame of `magic`: the tagged header with the
/// placeholder id `0`, then the current thread's ambient trace context (see
/// [`trace::current_context`]) — so deep call chains propagate causality
/// without threading a parameter through every signature.
fn work_request(magic: [u8; 4], capacity: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(capacity);
    wire::put_tagged_header(&mut out, magic, REQUEST_PROTO_VERSION, 0);
    trace::current_context().put(&mut out);
    out
}

/// Opens a work-request frame of `magic`: checks the tagged header and reads
/// the trace context, returning it with a reader positioned at the body.
fn open_work_request<'a>(
    payload: &'a [u8],
    magic: [u8; 4],
    context: &'static str,
) -> Result<(TraceContext, ByteReader<'a>)> {
    let mut r = ByteReader::new(payload, context);
    r.tagged_header(magic, REQUEST_PROTO_VERSION)?;
    Ok((TraceContext::get(&mut r)?, r))
}

/// Decodes the body of a work-request frame of `magic`, which must fill the
/// rest of the frame.
fn decode_work<T: Wire>(payload: &[u8], magic: [u8; 4], context: &'static str) -> Result<T> {
    let (_, mut r) = open_work_request(payload, magic, context)?;
    let body = T::get(&mut r)?;
    r.finish()?;
    Ok(body)
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
    REQUEST_MAGICS[..5]
        .iter()
        .find(|magic| payload.get(..4) == Some(magic.as_slice()))
        .and_then(|magic| open_work_request(payload, *magic, "request trace context").ok())
        .map_or(TraceContext::NONE, |(ctx, _)| ctx)
}

/// Encodes a screening request payload (without the frame length prefix).
/// Each signature is written straight into the frame, which is sized up
/// front for the signatures' largest encodings, so it never grows.
pub fn encode_request(golden_key: u64, signatures: &[Signature]) -> Vec<u8> {
    // Header, trace context, key and count; then per signature its byte
    // length and at most its encoding's bound.
    let capacity = 14 + 17 + 8 + 4 + signatures.iter().map(|s| 4 + s.max_encoded_len()).sum::<usize>();
    let mut out = work_request(REQUEST_MAGIC, capacity);
    golden_key.put(&mut out);
    wire::put_slice(signatures, &mut out);
    out
}

/// Decodes a screening request payload. Never panics on malformed input.
///
/// # Errors
/// Returns [`ServeError::Dsig`] on framing or signature decoding errors.
pub fn decode_request(payload: &[u8]) -> Result<ScreenRequest<'static>> {
    let (golden_key, signatures) = decode_work::<(u64, Vec<Signature>)>(payload, REQUEST_MAGIC, "screen request")?;
    Ok(ScreenRequest {
        golden_key,
        signatures: Cow::Owned(signatures),
    })
}

/// Encodes an adaptive-retest screening request payload (without the frame
/// length prefix).
pub fn encode_retest_request(request: &RetestRequest) -> Vec<u8> {
    let mut out = work_request(RETEST_REQUEST_MAGIC, 64 + 128 * request.items.len());
    request.put(&mut out);
    out
}

/// Decodes an adaptive-retest screening request payload. Never panics on
/// malformed input.
///
/// # Errors
/// Returns [`ServeError::Dsig`] on framing, signature or policy decoding
/// errors (an invalid guard band or schedule is rejected by
/// [`dsig_core::RetestPolicy::new`]).
pub fn decode_retest_request(payload: &[u8]) -> Result<RetestRequest> {
    decode_work(payload, RETEST_REQUEST_MAGIC, "retest request")
}

/// Encodes a golden-push request payload (without the frame length prefix).
pub fn encode_push_request(key: u64, band: AcceptanceBand, golden: &Signature) -> Vec<u8> {
    let mut out = work_request(PUSH_MAGIC, 14 + 17 + 16 + 4 + golden.max_encoded_len());
    key.put(&mut out);
    band.put(&mut out);
    golden.put(&mut out);
    out
}

/// Encodes a golden-fetch request payload (without the frame length prefix).
pub fn encode_fetch_request(key: u64) -> Vec<u8> {
    let mut out = work_request(FETCH_MAGIC, 14 + 17 + 8);
    key.put(&mut out);
    out
}

/// Encodes a fleet-admin request payload (without the frame length prefix):
/// one verb tag plus the addressed label (empty for [`AdminRequest::List`]).
pub fn encode_admin_request(request: &AdminRequest) -> Vec<u8> {
    let mut out = work_request(ADMIN_REQUEST_MAGIC, 40);
    request.put(&mut out);
    out
}

/// The header-only scrape requests.
const SCRAPES: [Request<'static>; 5] = [
    Request::Metrics,
    Request::Traces,
    Request::FleetMetrics,
    Request::Events,
    Request::Health,
];

/// The scrape request of a payload's magic, if it is one.
fn scrape_of(payload: &[u8]) -> Option<Request<'static>> {
    SCRAPES
        .into_iter()
        .find(|scrape| payload.get(..4) == Some(scrape.magic().as_slice()))
}

/// Encodes a header-only scrape request payload (without the frame length
/// prefix): `magic` is one of `DSMX`/`DSTX`/`DSFM`/`DSEX`/`DSHC`.
pub fn encode_scrape_request(magic: [u8; 4]) -> Vec<u8> {
    debug_assert!(scrape_of(&magic).is_some(), "not a scrape magic");
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
pub fn decode_scrape_request(payload: &[u8]) -> Result<Request<'static>> {
    let request = scrape_of(payload).ok_or_else(|| {
        ServeError::Protocol(format!(
            "{:?} is not a scrape request",
            String::from_utf8_lossy(payload.get(..4).unwrap_or(payload))
        ))
    })?;
    let mut r = ByteReader::new(payload, "scrape request");
    r.tagged_header(request.magic(), PROTO_VERSION)?;
    r.finish()?;
    Ok(request)
}

/// Decodes any request frame by its payload magic — the dispatch point of a
/// serving or routing process. Never panics on malformed input.
///
/// # Errors
/// Returns [`ServeError::Protocol`] for an unknown magic and
/// [`ServeError::Dsig`] for a malformed frame of a known one.
pub fn decode_any_request(payload: &[u8]) -> Result<Request<'static>> {
    match payload.get(..4) {
        Some(magic) if *magic == REQUEST_MAGIC => Ok(Request::Screen(decode_request(payload)?)),
        Some(magic) if *magic == RETEST_REQUEST_MAGIC => {
            Ok(Request::Retest(Cow::Owned(decode_retest_request(payload)?)))
        }
        Some(magic) if *magic == PUSH_MAGIC => {
            let (key, band, golden) = decode_work(payload, PUSH_MAGIC, "golden push request")?;
            Ok(Request::PushGolden {
                key,
                band,
                golden: Cow::Owned(golden),
            })
        }
        Some(magic) if *magic == FETCH_MAGIC => Ok(Request::FetchGolden {
            key: decode_work(payload, FETCH_MAGIC, "golden fetch request")?,
        }),
        Some(magic) if *magic == ADMIN_REQUEST_MAGIC => Ok(Request::Admin(decode_work(
            payload,
            ADMIN_REQUEST_MAGIC,
            "fleet admin request",
        )?)),
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

/// Encodes the response for a request frame that failed to decode: a
/// `BadRequest` error in the family [`Family::of`] its magic names, so each
/// client-side decoder surfaces the server's message instead of a magic
/// mismatch.
pub fn encode_decode_error(payload: &[u8], message: String) -> Vec<u8> {
    Family::of(payload).error(ErrorCode::BadRequest, message)
}

/// Encodes a response payload of any family (without the frame length
/// prefix).
pub fn encode_reply<T: ReplyBody>(reply: &Reply<T>) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    wire::put_tagged_header(&mut out, T::MAGIC, T::VERSION, 0);
    reply.put(&mut out);
    out
}

/// Decodes a response payload of the family of `T`. Never panics on
/// malformed input.
///
/// # Errors
/// Returns [`ServeError::Dsig`] on a malformed frame: a wrong magic or
/// version, an unknown status byte or tag, truncation or trailing bytes.
pub fn decode_reply<T: ReplyBody>(payload: &[u8]) -> Result<Reply<T>> {
    let mut r = ByteReader::new(payload, T::CONTEXT);
    r.tagged_header(T::MAGIC, T::VERSION)?;
    let reply = Reply::get(&mut r)?;
    r.finish()?;
    Ok(reply)
}

/// Encodes a screening response payload: [`encode_reply`] of the `DSRS`
/// family.
pub fn encode_response(response: &ScreenResponse) -> Vec<u8> {
    encode_reply(response)
}

/// Decodes a screening response payload: [`decode_reply`] of the `DSRS`
/// family.
///
/// # Errors
/// As for [`decode_reply`].
pub fn decode_response(payload: &[u8]) -> Result<ScreenResponse> {
    decode_reply(payload)
}

/// Encodes an adaptive-retest response payload: [`encode_reply`] of the
/// `DSRR` family.
pub fn encode_retest_response(response: &RetestResponse) -> Vec<u8> {
    encode_reply(response)
}

/// Decodes an adaptive-retest response payload: [`decode_reply`] of the
/// `DSRR` family.
///
/// # Errors
/// As for [`decode_reply`].
pub fn decode_retest_response(payload: &[u8]) -> Result<RetestResponse> {
    decode_reply(payload)
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
    use dsig_core::{DsigError, RetestPolicy, SignatureEntry, TestOutcome, ZoneCode};
    use dsig_obs::HealthStatus;

    /// A malformed body: a codec error, not a protocol violation.
    fn corrupt<T: std::fmt::Debug>(decoded: Result<T>) -> bool {
        matches!(decoded, Err(ServeError::Dsig(DsigError::Corrupt { .. })))
    }

    /// Decodes one standalone value of `T`.
    fn get<T: Wire>(bytes: &[u8]) -> dsig_core::Result<T> {
        T::get(&mut ByteReader::new(bytes, "test"))
    }

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

    #[test]
    fn request_round_trips() {
        let signatures = vec![sig(&[(1, 10), (3, 20)]), sig(&[(7, 1_000_000)])];
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
            let mut out = Vec::new();
            code.put(&mut out);
            assert_eq!(get::<ErrorCode>(&out).unwrap(), code);
        }
        assert!(get::<ErrorCode>(&99u16.to_le_bytes()).is_err());
    }

    #[test]
    fn malformed_payloads_are_rejected_without_panicking() {
        let payload = encode_request(7, &[sig(&[(1, 1_000_000)])]);
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
        assert!(corrupt(decode_response(&bad_status)));
    }

    #[test]
    fn retest_requests_round_trip_and_reject_malformed_payloads() {
        let policy = RetestPolicy::new(0.005, vec![2, 8]).unwrap();
        let request = RetestRequest {
            golden_key: 0xFEED,
            policy: policy.clone(),
            items: vec![
                RetestItem {
                    initial: sig(&[(1, 10), (3, 20)]),
                    repeats: vec![sig(&[(1, 11)]), sig(&[(1, 9)])],
                },
                RetestItem {
                    initial: sig(&[(7, 1_000_000)]),
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
        assert!(corrupt(decode_retest_response(&bad_status)));
        let mut bad_marginal = payload;
        // First score: header(14) + status(1) + count(4) + ndf(8) + peak(4) +
        // outcome(1) puts the marginal tag at offset 32.
        bad_marginal[32] = 7;
        assert!(corrupt(decode_retest_response(&bad_marginal)));
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
        let golden = sig(&[(1, 100), (3, 100)]);
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
        assert!(decode_any_request(&push[..10]).is_err());
        // A NaN threshold is caught by AcceptanceBand validation (the
        // threshold sits after magic+version+id (14) + context (17) + key (8)).
        let mut nan = push.clone();
        nan[39..47].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        assert!(decode_any_request(&nan).is_err());

        let fetch = encode_fetch_request(42);
        assert_eq!(decode_any_request(&fetch).unwrap(), Request::FetchGolden { key: 42 });
        assert!(decode_any_request(&fetch[..8]).is_err());
        let mut trailing = fetch.clone();
        trailing.push(1);
        assert!(decode_any_request(&trailing).is_err());

        // Unknown magics and short buffers are protocol errors, not panics.
        assert!(matches!(decode_any_request(b"NOPE1234"), Err(ServeError::Protocol(_))));
        assert!(matches!(decode_any_request(b"DS"), Err(ServeError::Protocol(_))));
    }

    #[test]
    fn admin_responses_round_trip_and_reject_malformed_payloads() {
        let band = AcceptanceBand::new(0.05).unwrap();
        let golden = sig(&[(1, 10), (2, 20)]);
        for response in [
            Reply::Results(AdminReply::Ack),
            Reply::Results(AdminReply::Record(GoldenRecord {
                golden: golden.clone(),
                band,
            })),
            Reply::Results(AdminReply::Roster(FleetRoster {
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
            })),
            Reply::Error {
                code: ErrorCode::UnknownGolden,
                message: "no such golden".into(),
            },
        ] {
            let payload = encode_reply(&response);
            assert_eq!(decode_reply::<AdminReply>(&payload).unwrap(), response);
            assert!(decode_reply::<AdminReply>(&payload[..5]).is_err());
        }
        let mut bad_status = encode_reply(&Reply::Results(AdminReply::Ack));
        bad_status[14] = 9; // magic + version + request id
        assert!(corrupt(decode_reply::<AdminReply>(&bad_status)));
        let mut trailing = encode_reply(&Reply::Results(AdminReply::Ack));
        trailing.push(0);
        assert!(decode_reply::<AdminReply>(&trailing).is_err());
        // An unknown backend-state tag is a clean codec error: the tag of
        // the single empty-label entry sits at the end of the payload.
        let mut bad_state = encode_reply(&Reply::Results(AdminReply::Roster(FleetRoster {
            epoch: 1,
            entries: vec![RosterEntry {
                label: String::new(),
                id: 1,
                state: BackendState::BackedOff,
            }],
        })));
        *bad_state.last_mut().unwrap() = 9;
        assert!(corrupt(decode_reply::<AdminReply>(&bad_state)));
        for state in [BackendState::Active, BackendState::Draining, BackendState::BackedOff] {
            let mut out = Vec::new();
            state.put(&mut out);
            assert_eq!(get::<BackendState>(&out).unwrap(), state);
        }
        assert!(get::<BackendState>(&[3]).is_err());
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
            assert!(decode_any_request(&payload[..9]).is_err(), "{request:?}");
            let mut trailing = payload.clone();
            trailing.push(0);
            assert!(decode_any_request(&trailing).is_err(), "{request:?}");
            let mut future = payload.clone();
            future[4..6].copy_from_slice(&42u16.to_le_bytes());
            assert!(decode_any_request(&future).is_err(), "{request:?} future version");
        }
        // An unknown verb tag is a clean codec error. The verb sits after
        // magic+version+id (14) + trace context (17).
        let mut bad_verb = encode_admin_request(&AdminRequest::List);
        bad_verb[31] = 9;
        assert!(corrupt(decode_any_request(&bad_verb)));
        // A list verb must not carry a label.
        let mut labelled_list = encode_admin_request(&AdminRequest::Drain { label: "x".into() });
        labelled_list[31] = 3;
        assert!(corrupt(decode_any_request(&labelled_list)));
    }

    #[test]
    fn decode_errors_answer_in_the_request_family() {
        let band = AcceptanceBand::new(0.03).unwrap();
        let golden = sig(&[(1, 1_000_000)]);
        // An undecodable admin request (future version) must get a DSRA
        // error, so the admin client surfaces the message instead of a magic
        // mismatch.
        let mut push = encode_push_request(1, band, &golden);
        push[4..6].copy_from_slice(&42u16.to_le_bytes());
        let err = decode_any_request(&push).unwrap_err();
        let response = encode_decode_error(&push, err.to_string());
        match decode_reply::<AdminReply>(&response).unwrap() {
            Reply::Error { code, message } => {
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
            decode_reply::<AdminReply>(&response).unwrap(),
            Reply::Error {
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
        let ok = Reply::Results(registry.snapshot());
        let payload = encode_reply(&ok);
        assert_eq!(decode_reply::<MetricsSnapshot>(&payload).unwrap(), ok);

        let err = Reply::Error {
            code: ErrorCode::Internal,
            message: "registry unavailable".into(),
        };
        assert_eq!(decode_reply::<MetricsSnapshot>(&encode_reply(&err)).unwrap(), err);

        // Truncation, trailing bytes and a bad status are clean errors.
        assert!(decode_reply::<MetricsSnapshot>(&payload[..5]).is_err());
        assert!(decode_reply::<MetricsSnapshot>(&payload[..payload.len() - 1]).is_err());
        let mut trailing = payload.clone();
        trailing.push(0);
        assert!(decode_reply::<MetricsSnapshot>(&trailing).is_err());
        let mut bad_status = payload;
        bad_status[14] = 9; // magic + version + request id
        assert!(corrupt(decode_reply::<MetricsSnapshot>(&bad_status)));

        // A decode failure of a DSMX request answers in the DSMR family.
        let response = encode_decode_error(&encode_scrape_request(METRICS_REQUEST_MAGIC)[..5], "bad".into());
        assert!(matches!(
            decode_reply::<MetricsSnapshot>(&response).unwrap(),
            Reply::Error {
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
        let golden = sig(&[(1, 1_000_000)]);
        let frames: Vec<(&str, Vec<u8>)> = {
            let _guard = trace::with_context(ctx);
            vec![
                ("DSRQ", encode_request(7, &[sig(&[(1, 1_000_000)])])),
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
        let ok = Reply::Results(log);
        let payload = encode_reply(&ok);
        assert_eq!(decode_reply::<TraceLog>(&payload).unwrap(), ok);

        let err = Reply::Error {
            code: ErrorCode::Internal,
            message: "tracer unavailable".into(),
        };
        assert_eq!(decode_reply::<TraceLog>(&encode_reply(&err)).unwrap(), err);

        // Truncation, trailing bytes and a bad status are clean errors.
        assert!(decode_reply::<TraceLog>(&payload[..5]).is_err());
        assert!(decode_reply::<TraceLog>(&payload[..payload.len() - 1]).is_err());
        let mut trailing = payload.clone();
        trailing.push(0);
        assert!(decode_reply::<TraceLog>(&trailing).is_err());
        let mut bad_status = payload;
        bad_status[14] = 9; // magic + version + request id
        assert!(corrupt(decode_reply::<TraceLog>(&bad_status)));

        // A decode failure of a DSTX request answers in the DSTD family.
        let response = encode_decode_error(&encode_scrape_request(TRACES_REQUEST_MAGIC)[..5], "bad".into());
        assert!(matches!(
            decode_reply::<TraceLog>(&response).unwrap(),
            Reply::Error {
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
        // DSMR, DSEX in DSED, DSHC in DSHR.
        let response = encode_decode_error(&encode_scrape_request(FLEET_METRICS_REQUEST_MAGIC)[..5], "bad".into());
        assert!(matches!(
            decode_reply::<MetricsSnapshot>(&response).unwrap(),
            Reply::Error { .. }
        ));
        let response = encode_decode_error(&encode_scrape_request(EVENTS_REQUEST_MAGIC)[..5], "bad".into());
        assert!(matches!(
            decode_reply::<EventLog>(&response).unwrap(),
            Reply::Error { .. }
        ));
        let response = encode_decode_error(&encode_scrape_request(HEALTH_REQUEST_MAGIC)[..5], "bad".into());
        assert!(matches!(
            decode_reply::<HealthReport>(&response).unwrap(),
            Reply::Error { .. }
        ));
    }

    #[test]
    fn events_responses_round_trip_and_reject_malformed_payloads() {
        use dsig_obs::{EventLevel, EventRecord};

        let ok = Reply::Results(EventLog {
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
        let payload = encode_reply(&ok);
        assert_eq!(decode_reply::<EventLog>(&payload).unwrap(), ok);
        let err = Reply::Error {
            code: ErrorCode::Internal,
            message: "sink unavailable".into(),
        };
        assert_eq!(decode_reply::<EventLog>(&encode_reply(&err)).unwrap(), err);
        assert!(decode_reply::<EventLog>(&payload[..5]).is_err());
        assert!(decode_reply::<EventLog>(&payload[..payload.len() - 1]).is_err());
        let mut trailing = payload.clone();
        trailing.push(0);
        assert!(decode_reply::<EventLog>(&trailing).is_err());
        let mut bad_status = payload;
        bad_status[14] = 9; // magic + version + request id
        assert!(corrupt(decode_reply::<EventLog>(&bad_status)));
    }

    #[test]
    fn health_responses_round_trip_and_reject_malformed_payloads() {
        let ok = Reply::Results(HealthReport {
            status: HealthStatus::Degraded,
            error_rate: 0.25,
            p99_us: 45_000,
            backed_off: 1,
            backends: 3,
            epoch: 4,
            findings: vec!["1 of 3 backends backed off".into()],
        });
        let payload = encode_reply(&ok);
        assert_eq!(decode_reply::<HealthReport>(&payload).unwrap(), ok);
        let err = Reply::Error {
            code: ErrorCode::Internal,
            message: "no snapshot".into(),
        };
        assert_eq!(decode_reply::<HealthReport>(&encode_reply(&err)).unwrap(), err);
        assert!(decode_reply::<HealthReport>(&payload[..5]).is_err());
        assert!(decode_reply::<HealthReport>(&payload[..payload.len() - 1]).is_err());
        let mut trailing = payload.clone();
        trailing.push(0);
        assert!(decode_reply::<HealthReport>(&trailing).is_err());
        let mut bad_status = payload.clone();
        bad_status[14] = 9; // magic + version + request id
        assert!(corrupt(decode_reply::<HealthReport>(&bad_status)));
        // An unknown verdict tag (right after the status byte) is an error.
        let mut bad_verdict = payload;
        bad_verdict[15] = 9;
        assert!(corrupt(decode_reply::<HealthReport>(&bad_verdict)));
    }

    #[test]
    fn request_ids_stamp_and_peek_across_every_tagged_family() {
        // A freshly encoded frame carries the placeholder id 0; stamping
        // patches bytes 6..14 in place and the peek reads it back.
        let mut request = encode_request(7, &[sig(&[(1, 1_000_000)])]);
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
            encode_retest_request(&RetestRequest {
                golden_key: 1,
                policy: RetestPolicy::new(0.005, vec![2]).unwrap(),
                items: vec![],
            }),
            encode_push_request(1, AcceptanceBand::new(0.03).unwrap(), &sig(&[(1, 1_000_000)])),
            encode_fetch_request(1),
            encode_admin_request(&AdminRequest::Join {
                label: "127.0.0.1:9000".into(),
            }),
            encode_scrape_request(METRICS_REQUEST_MAGIC),
            encode_scrape_request(TRACES_REQUEST_MAGIC),
            encode_scrape_request(FLEET_METRICS_REQUEST_MAGIC),
            encode_scrape_request(EVENTS_REQUEST_MAGIC),
            encode_scrape_request(HEALTH_REQUEST_MAGIC),
            encode_retest_response(&RetestResponse::Results(vec![])),
            encode_reply(&Reply::Results(AdminReply::Ack)),
            encode_reply(&Reply::Results(AdminReply::Roster(FleetRoster {
                epoch: 1,
                entries: vec![],
            }))),
            encode_reply(&Reply::Results(EventLog::default())),
            encode_reply(&Reply::<HealthReport>::Error {
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
        TraceContext::NONE.put(&mut v2);
        (7u64, 0u32).put(&mut v2);
        let mut v1 = Vec::new();
        wire::put_header(&mut v1, REQUEST_MAGIC, 1);
        (9u64, 0u32).put(&mut v1);
        let mut fetch = Vec::new();
        wire::put_header(&mut fetch, FETCH_MAGIC, 1);
        42u64.put(&mut fetch);
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
        0u32.put(&mut r1);
        assert!(decode_response(&r1).is_err());

        let mut h2 = Vec::new();
        wire::put_tagged_header(&mut h2, HEALTH_RESPONSE_MAGIC, 2, 0);
        h2.push(STATUS_OK);
        HealthStatus::Pass.put(&mut h2);
        (0.0f64, 17u64, 0u32, 2u32).put(&mut h2);
        0u32.put(&mut h2);
        assert!(decode_reply::<HealthReport>(&h2).is_err());

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
