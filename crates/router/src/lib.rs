//! # dsig-router
//!
//! The multi-backend routing tier of the signature-scoring service: a
//! coordinator that fronts N [`dsig_serve`] backends and turns the
//! single-process serving layer into a horizontally sharded one.
//!
//! A production test floor screens whole lots against golden signatures; one
//! scoring process eventually saturates. The router shards that workload by
//! **golden fingerprint** ([`dsig_engine::golden_fingerprint`]): rendezvous
//! (HRW) hashing assigns every fingerprint an owner backend and a
//! deterministic replica chain, and each request goes whole to its golden's
//! owner over the existing `DSRQ`/`DSRS` protocol. Because signature
//! scoring is a pure function of `(golden, observed, band)`, routed results
//! are **bit-identical** to direct [`dsig_core::TestFlow`] scoring at every
//! backend count and under failover — the loopback
//! tests enforce this over a 1000-device lot with a killed backend.
//!
//! The crate provides:
//!
//! * [`Router`] — the TCP front: the serving tier's accept loop
//!   ([`dsig_serve::mux::Listener`]) and its one frame handler
//!   ([`dsig_serve::service::respond`]) over the router's handle;
//! * [`RouterHandle`] — the router itself, usable in-process (no TCP): the
//!   live membership, the golden store and every routed operation, shared by
//!   its clones and by the [`Router`] that fronts it. It is a
//!   [`dsig_serve::Service`] like the serving tier's handle, and
//!   [`RouterHandle::spawn`] builds a whole in-process backend fleet via
//!   [`dsig_serve::ServeHandle::spawn`] for tests and benches;
//! * [`RouterClient`] / [`PipelinedRouterClient`] — the TCP clients: the
//!   router speaks the serving protocol unchanged, so these are
//!   [`dsig_serve::ServeClient`] (blocking) and
//!   [`dsig_serve::PipelinedClient`] (multiplexed) under the router's
//!   names. Routed operations fail with the serving tier's
//!   [`dsig_serve::ServeError`] too; a request the whole failover chain
//!   failed is [`dsig_serve::ServeError::AllBackendsFailed`];
//! * [`RouterStore`] — the router's authoritative golden store, a
//!   [`dsig_serve::GoldenStore`] (same `DSGS` format, same fingerprint
//!   keying): characterize once, **push** to the owning backends,
//!   **refresh** a failover backend on miss, **read back** from backends
//!   after a router restart;
//! * [`Backend`] / [`HealthConfig`] — the backend fleet: each member an
//!   `Arc<dyn` [`dsig_serve::Service`]`>` (a `dsig-serve` process over TCP,
//!   an in-process handle, or any other service), with a stable rendezvous
//!   id, a kill switch and an exponential-backoff health record for
//!   deterministic failover (the replica chain *is* the HRW ranking);
//! * [`RouterConfig`] — replication factor and health policy.
//!
//! # Elastic fleet
//!
//! Membership is **live**: the `DSAQ` admin family (join, leave, drain,
//! list — see `docs/FORMATS.md`) mutates an epoch-versioned membership
//! snapshot under the event loop. A joining backend has the goldens it now
//! owns migrated onto it *before* it enters the rotation; a leaving or
//! draining member has its replicas re-homed to the survivors first; a
//! member that stays dead past its backoff cap triggers once-per-death
//! **replica healing**. Backends are addressed by **label** (`host:port`
//! or `local-<id>`); membership transitions surface as `backend.joined` /
//! `backend.left` / `backend.draining` / `replica.healed` events and the
//! epoch rides in every `DSHR` health report. The verbs travel over either
//! TCP client ([`dsig_serve::Client::fleet_join`] and friends) or the
//! in-process [`RouterHandle`].
//!
//! The router implements [`dsig_engine::RemoteScorer`], so a
//! [`dsig_engine::CampaignRunner`] can score an entire campaign through the
//! routing tier (`ScoreTarget::Remote`) — multi-process campaign sharding
//! with reports bit-identical to local scoring.
//!
//! # Wire format
//!
//! The router speaks the serving protocol unchanged — the same frames, each
//! at its current version with the request id at bytes `6..14`:
//! `DSRQ`/`DSRS` for single-golden screening (forwarded verbatim to
//! backends), plus the `DSRT`/`DSRR` retest pair, the `DSGP`/`DSGF`/`DSRA` replication frames, the `DSAQ`
//! fleet-admin verbs and the observability scrapes (`DSMX`/`DSFM`, `DSTX`,
//! `DSEX`, `DSHC`), answering with the routing tier's own
//! counters — per-backend forwards/failovers/retries, backoff gauge,
//! fan-out latency, refresh-on-miss — or the fleet-wide merge. All are
//! specified in `docs/FORMATS.md`.
//!
//! # Example
//!
//! Characterize a golden through the router (which replicates it to the
//! owning backends), then screen a deviated device over loopback:
//!
//! ```
//! use std::sync::Arc;
//! use cut_filters::BiquadParams;
//! use dsig_core::{AcceptanceBand, TestSetup};
//! use dsig_router::{Backend, Router, RouterClient, RouterConfig, RouterStore};
//! use dsig_serve::{GoldenStore, ServeConfig, ServeHandle};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Two in-process scoring backends fronted by a TCP router.
//! let fleet: Vec<Backend> = (0..2)
//!     .map(|id| Backend::local(id, ServeHandle::spawn(Arc::new(GoldenStore::new()), ServeConfig::with_shards(1))))
//!     .collect();
//! let router = Router::bind("127.0.0.1:0", fleet, RouterStore::new(), RouterConfig::default())?;
//!
//! // Characterization: once, through the router — the golden lands on its
//! // rendezvous owner and replica.
//! let setup = TestSetup::paper_default()?.with_sample_rate(1e6)?;
//! let reference = BiquadParams::paper_default();
//! let key = router.handle().characterize(&setup, &reference, AcceptanceBand::new(0.03)?)?;
//!
//! // Production test: capture a signature, upload, decide.
//! let observed = setup.signature_of(&reference.with_f0_shift_pct(10.0), 7)?;
//! let client = RouterClient::connect(router.local_addr())?;
//! let score = client.screen_one(key, &observed)?;
//! assert!(score.ndf > 0.0);
//! # Ok(())
//! # }
//! ```
//!
//! `examples/router.rs` runs a multi-backend fleet with a killed backend.

#![warn(missing_docs)]

pub mod backend;
pub mod handle;
pub mod hash;
pub mod router;
pub mod server;

pub use backend::{Backend, HealthConfig};
/// The router's authoritative golden store: the serving tier's golden store.
pub use dsig_serve::GoldenStore as RouterStore;
pub use dsig_serve::{PipelinedClient as PipelinedRouterClient, ServeClient as RouterClient};
pub use handle::RouterHandle;
pub use hash::{hrw_weight, mix64, rank_backends};
pub use router::RouterConfig;
pub use server::Router;
