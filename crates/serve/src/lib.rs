//! # dsig-serve
//!
//! The production-test serving layer: a request/response signature-scoring
//! service. A tester (or any client) uploads the digital signature captured
//! from a device under test; the service scores it against a stored golden
//! signature — NDF, peak Hamming distance, PASS/FAIL — and answers. This is
//! the paper's end-game recast as a network service: `dsig-engine` is the
//! batch characterization layer, `dsig-serve` is the per-device screening
//! layer in front of it.
//!
//! The crate provides:
//!
//! * [`GoldenStore`] — goldens characterized once per `(setup, reference)`
//!   fingerprint ([`dsig_engine::golden_fingerprint`]), each the golden of
//!   [`dsig_core::TestFlow::new`] that the engine's cache holds too, held in
//!   memory for scoring and persisted in a versioned binary format;
//! * [`Server`] / [`ServeConfig`] — a TCP accept loop whose connections
//!   run requests on one shared [`WorkPool`]; each batch is scored in
//!   request order by [`dsig_engine::score`], the scorer of a campaign's
//!   local target, on the thread that holds the request, so results are
//!   bit-identical for every pool size and to local scoring;
//! * [`Service`] — the one seam of the serving protocol: a [`Request`] in,
//!   a [`Response`] out. [`ServeHandle`], [`Client`] and the routing tier's
//!   handle implement it, and [`service::respond`] is the one frame handler
//!   both tiers' listeners answer through;
//! * [`ServeHandle`] — the in-process client path (the same scoring, on the
//!   caller's thread, no TCP) for embedding the scorer into another process;
//! * [`Client`] — the one typed TCP client: a [`Service`] over a sealed
//!   exchange seam, in two transports — [`ServeClient`] (blocking, one
//!   request in flight) and [`PipelinedClient`] (N requests in flight on one
//!   connection, responses matched by request id). A routing tier speaks
//!   the same protocol, and `dsig_router` re-exports the two as
//!   `RouterClient` and `PipelinedRouterClient`;
//! * [`mux`] — the accept loop both serving tiers share, the [`WorkPool`]
//!   and the connection event loop that serves frames out of order;
//! * [`proto`] — the std-only wire protocol (layout below).
//!
//! # Wire format
//!
//! Everything is little-endian; `f64`s travel as [`f64::to_bits`] and are
//! therefore bit-exact. Every message is one **frame**:
//!
//! ```text
//! frame     := u32 payload_len, payload        (payload_len <= 64 MiB)
//! ```
//!
//! Request payload (magic `DSRQ`, version 3):
//!
//! ```text
//! request   := "DSRQ", u16 version=3,
//!              u64 request_id,                 (multiplexing correlator)
//!              17-byte trace context,
//!              u64 golden_key,                 (fingerprint of the golden)
//!              u32 count,
//!              count * { u32 len, len bytes }  (each a Signature::to_bytes)
//! ```
//!
//! Response payload (magic `DSRS`, version 2):
//!
//! ```text
//! response  := "DSRS", u16 version=2,
//!              u64 request_id,                 (echo of the request's id)
//!              u8 status, body
//! status 0  := u32 count, count * { f64 ndf, u32 peak_hamming, u8 outcome }
//!              (outcome: 0 = PASS, 1 = FAIL; one score per request
//!               signature, in request order)
//! status 1  := u16 error_code, u32 len, len bytes of UTF-8 message
//!              (error_code: 1 = unknown golden, 2 = bad request,
//!               3 = internal)
//! ```
//!
//! The request id sits at the fixed bytes `6..14` of every frame. Requests
//! on one connection may be answered **out of order**; the echoed id is the
//! correlator. Wire frames are never persisted, so every frame is read at
//! exactly its current version: an older one draws a `BadRequest` error in
//! its response family, like any malformed frame.
//!
//! Further request kinds share the frame and header convention and are
//! dispatched by payload magic: `DSRT` (adaptive-retest screening: each device
//! carries its single shot plus measurement repeats, and marginal devices
//! are re-decided **server-side** through the carried
//! [`dsig_core::RetestPolicy`], answered with a `DSRR` response), `DSGP`
//! (golden replication push), `DSGF` (golden readback) — the latter two
//! answer with a `DSRA` admin response — and `DSMX` (metrics scrape,
//! answered with a `DSMR` response carrying one serialized
//! [`dsig_obs::MetricsSnapshot`]). See `docs/FORMATS.md` for the normative
//! layouts.
//!
//! Golden-store file (magic `DSGS`, version 1 — see [`store`]):
//!
//! ```text
//! store     := "DSGS", u16 version=1, u32 count,
//!              count * { u64 fingerprint, f64 ndf_threshold,
//!                        u32 len, len bytes }  (each a Signature::to_bytes)
//! ```
//!
//! # Example
//!
//! Characterize a golden, serve it, and screen a device over loopback:
//!
//! ```
//! use std::sync::Arc;
//! use cut_filters::BiquadParams;
//! use dsig_core::{AcceptanceBand, TestSetup};
//! use dsig_serve::{GoldenStore, ServeClient, ServeConfig, Server};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let setup = TestSetup::paper_default()?.with_sample_rate(1e6)?;
//! let reference = BiquadParams::paper_default();
//!
//! // Characterization: done once, persisted via store.save(path).
//! let store = Arc::new(GoldenStore::new());
//! let key = store.characterize(&setup, &reference, AcceptanceBand::new(0.03)?)?;
//!
//! // Serving: ephemeral loopback port, default pool size.
//! let server = Server::bind("127.0.0.1:0", store, ServeConfig::default())?;
//!
//! // Production test: capture a signature from a device, upload, decide.
//! let observed = setup.signature_of(&reference.with_f0_shift_pct(10.0), 7)?;
//! let client = ServeClient::connect(server.local_addr())?;
//! let score = client.screen_one(key, &observed)?;
//! assert!(score.ndf > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod error;
pub mod mux;
pub mod proto;
pub mod server;
pub mod service;
pub mod store;

pub use client::{Client, PipelinedClient, ServeClient, Ticket};
pub use error::{Result, ServeError};
pub use mux::WorkPool;
pub use proto::{
    AdminReply, AdminRequest, BackendState, ErrorCode, Family, FleetRoster, Reply, Request, Response, RetestItem,
    RetestRequest, RetestResponse, RetestScore, RosterEntry, ScoreResult, ScreenRequest, ScreenResponse,
};
pub use server::{ServeConfig, ServeHandle, Server};
pub use service::Service;
pub use store::{GoldenRecord, GoldenStore};
