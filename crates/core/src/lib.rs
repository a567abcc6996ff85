//! # dsig-core
//!
//! The digital-signature analog test method of *"Analog Circuit Test Based on
//! a Digital Signature"* (DATE 2010):
//!
//! * [`Signature`] — the sequence of `(zone code, dwell)` pairs produced by
//!   the asynchronous capture circuit (Eq. 1, Fig. 5): each dwell a `u32`
//!   counter word, in one unit of seconds per count;
//! * [`capture_signature`] — the capture model over sampled `x(t)` / `y(t)`
//!   observations: run-length counts of samples, rounded once to the ticks
//!   of a master clock ([`CaptureClock`]);
//! * [`ndf()`](fn@ndf) — the normalized discrepancy factor (Eq. 2), the time-weighted
//!   average Hamming distance between observed and golden zone codes, an
//!   integer sum over counts with one division;
//!   [`ndf_and_peak`] returns it with the chronogram's peak from one walk,
//!   the form every scoring path uses;
//! * [`AcceptanceBand`] / [`TestOutcome`] — the PASS/FAIL decision;
//! * [`TestFlow`] — the end-to-end flow (golden generation, CUT evaluation,
//!   Fig. 8 sweeps, population screening, minimum detectable deviation);
//! * [`batch`] — the shared-stimulus batched capture fast path
//!   ([`StimulusBank`], [`capture_signatures_batch`]): per-setup stimulus
//!   and monitor-term caching with bit-identical batched evaluation;
//! * [`retest`] — adaptive retest of marginal NDFs ([`RetestPolicy`]): a
//!   guard band around the acceptance threshold plus a cumulative repeat
//!   schedule, decided by one pure escalation walk shared by the local flow,
//!   the serving tier and the campaign runner;
//! * [`baseline`] — straight-line zoning and raw waveform comparison
//!   baselines used for comparison benches.
//!
//! # Examples
//!
//! ```
//! use cut_filters::{BiquadParams, Fault};
//! use dsig_core::{TestFlow, TestSetup};
//!
//! # fn main() -> Result<(), dsig_core::DsigError> {
//! let setup = TestSetup::paper_default()?.with_sample_rate(1e6)?;
//! let flow = TestFlow::new(setup, BiquadParams::paper_default())?;
//! // A +10% natural-frequency deviation produces a clearly nonzero NDF.
//! let report = flow.evaluate_fault(&Fault::F0ShiftPct(10.0), 42)?;
//! assert!(report.ndf > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod baseline;
pub mod batch;
pub mod capture;
pub mod decision;
pub mod error;
pub mod flow;
pub mod ndf;
pub mod regression;
pub mod retest;
pub mod signature;
pub mod wire;

pub use baseline::{normalized_output_error, LinearBoundary, LinearZoning};
pub use batch::{capture_signatures_batch, stimulus_key, BatchDevice, SharedStimulus, StimulusBank};
pub use capture::{capture_signature, signature_from_codes, CaptureClock, PointEncoder};
pub use decision::{AcceptanceBand, ScreeningStats, TestOutcome};
pub use error::{DsigError, Result};
pub use flow::{NdfReport, RetestNdfReport, SweepPoint, TestFlow, TestSetup};
pub use ndf::{hamming_chronogram, ndf, ndf_and_peak, peak_hamming_distance, HammingSegment};
pub use regression::{dwell_features, SignatureRegressor};
pub use retest::{retest_seed, RetestPolicy, RetestVerdict};
pub use signature::{Signature, SignatureEntry, ZoneCode};

/// The guard a lock operation returns, recovered when a panicking holder
/// poisoned the lock: the workspace's one lock-poisoning policy. It takes any
/// [`std::sync::LockResult`]: `Mutex::lock`, `RwLock::read` and `write`,
/// `Condvar::wait`, `Mutex::into_inner`.
///
/// Every critical section in the workspace assigns whole values or does one
/// map or queue operation, so a recovered guard reads consistent state, and
/// one panicking request fails alone instead of taking down every later
/// holder of the lock.
pub fn recover<G>(result: std::sync::LockResult<G>) -> G {
    result.unwrap_or_else(std::sync::PoisonError::into_inner)
}
