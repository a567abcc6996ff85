//! # dsig-engine
//!
//! A parallel test-campaign engine that turns the single-device
//! `TestFlow::evaluate` path of `dsig-core` into population-scale screening:
//! thousands of devices-under-test scored against one golden signature, the
//! workload behind the paper's Fig. 8 sweeps and Table 1 Monte-Carlo
//! screening.
//!
//! The engine provides:
//!
//! * [`Campaign`] / [`DevicePopulation`] — fault grids, Monte-Carlo lots and
//!   `f0` sweeps over one shared [`dsig_core::TestSetup`];
//! * [`CampaignRunner`] — a std-only scoped worker pool (chunked work queue
//!   over `std::thread::scope`) with deterministic per-device seeding:
//!   results are **bit-identical for every thread count**. Campaigns route
//!   through the shared-stimulus batched capture fast path
//!   ([`dsig_core::batch`]) — one synthesized stimulus and one set of
//!   precomputed monitor current terms per setup, several times the
//!   per-device throughput, still bit-identical at every batch size — and
//!   [`CampaignRunner::with_batching`]`(false)` keeps the per-device
//!   reference it is tested against. Monitor process variation is a
//!   characterization study ([`xy_monitor::monte_carlo_envelope`], Fig. 4),
//!   not a campaign option;
//! * [`GoldenCache`] — golden signatures characterized once per
//!   `(setup, reference)` fingerprint, not once per device;
//! * [`score`] — the one production scorer: [`score::screen`] and
//!   [`score::retest`] decide every verdict, both for the runner's in-process
//!   local target and for the serving tier behind a remote
//!   [`ScoreTarget`] (the [`RemoteScorer`] seam);
//! * [`CampaignReport`] — streaming aggregation: pass/fail yield, NDF
//!   range, escapes and false rejects, per-fault coverage and zone dwell
//!   statistics;
//! * [`SignatureLog`] — a compact binary log of observed signatures
//!   (built on [`dsig_core::Signature::to_bytes`]) that can be stored and
//!   [replayed](SignatureLog::replay) against any golden signature offline.
//!
//! # Campaigns
//!
//! A campaign is a declarative description — *which* devices, observed *how*,
//! accepted *when* — handed to a runner:
//!
//! ```
//! use cut_filters::BiquadParams;
//! use dsig_core::{AcceptanceBand, TestSetup};
//! use dsig_engine::{Campaign, CampaignRunner, DevicePopulation};
//!
//! # fn main() -> Result<(), dsig_core::DsigError> {
//! let setup = TestSetup::paper_default()?.with_sample_rate(1e6)?;
//! let campaign = Campaign::new(
//!     setup,
//!     BiquadParams::paper_default(),
//!     // A small Monte-Carlo lot: f0 deviations Gaussian with sigma = 4%.
//!     DevicePopulation::MonteCarlo { devices: 8, sigma_pct: 4.0 },
//!     AcceptanceBand::new(0.03)?,
//!     3.0, // devices within ±3% are truly good
//! )?
//! .with_seed(42);
//!
//! let runner = CampaignRunner::new(); // one worker per hardware thread
//! let report = runner.run(&campaign)?;
//! assert_eq!(report.devices(), 8);
//! // The same campaign on one thread is bit-identical.
//! assert_eq!(CampaignRunner::with_threads(1).run(&campaign)?, report);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod campaign;
pub mod codec;
pub mod pool;
pub mod report;
pub mod runner;
pub mod score;

pub use cache::{golden_fingerprint, golden_key, GoldenCache, GoldenKey};
pub use campaign::{mix_seed, Campaign, DevicePopulation, DeviceSpec};
pub use codec::SignatureLog;
pub use pool::{available_threads, parallel_map_indexed, DEFAULT_CHUNK};
pub use report::{CampaignReport, CapturePath, DeviceResult, DeviceRetest, DwellStats, FaultCoverage, RetestStats};
pub use runner::CampaignRunner;
pub use score::{RemoteScorer, RetestItem, RetestRequest, RetestScore, ScoreResult, ScoreTarget};
