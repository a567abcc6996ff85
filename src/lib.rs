//! # analog-signature
//!
//! A Rust reproduction of *"Analog Circuit Test Based on a Digital
//! Signature"* (A. Gómez, R. Sanahuja, L. Balado, J. Figueras — DATE 2010).
//!
//! The paper tests analog circuits by composing two observable signals into a
//! Lissajous trajectory, dividing the X-Y plane into zones with nonlinear
//! boundaries generated by tiny CMOS current-comparator monitors, capturing
//! the sequence of zone codes and dwell times as a **digital signature**, and
//! quantifying parameter deviations with a **normalized discrepancy factor**
//! (the time-weighted Hamming distance between observed and golden codes).
//!
//! This crate is a thin facade over the workspace members:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`spice`] | `sim-spice` | MNA circuit simulator (DC / transient / AC) |
//! | [`signal`] | `sim-signal` | waveforms, multitone stimuli, noise, Lissajous, FFT |
//! | [`monitor`] | `xy-monitor` | current-comparator monitors, boundary curves, zones, Monte Carlo |
//! | [`filters`] | `cut-filters` | Biquad CUT models and fault injection |
//! | [`dsig`] | `dsig-core` | signatures, capture, NDF, decisions, test flows, baselines |
//! | [`engine`] | `dsig-engine` | parallel campaign runner, golden cache, reports, signature log |
//! | [`obs`] | `dsig-obs` | zero-dependency metrics: counters, gauges, histograms, snapshots |
//! | [`serve`] | `dsig-serve` | scoring server, persistent golden store, wire protocol |
//! | [`router`] | `dsig-router` | multi-backend routing tier: golden-key sharding, replication, failover |
//!
//! # Quick start
//!
//! ```
//! use analog_signature::dsig::{AcceptanceBand, RetestPolicy, TestFlow, TestSetup};
//! use analog_signature::filters::{BiquadParams, Fault};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Characterize the nominal CUT and build the golden signature.
//! let setup = TestSetup::paper_default()?.with_sample_rate(1e6)?;
//! let flow = TestFlow::new(setup, BiquadParams::paper_default())?;
//!
//! // Verify a device with a +10% natural-frequency deviation.
//! let report = flow.evaluate_fault(&Fault::F0ShiftPct(10.0), 42)?;
//! assert!(report.ndf > 0.0);
//!
//! // Production decisions pair an acceptance band with an adaptive retest
//! // policy: devices whose NDF lands within the guard band of the
//! // threshold are re-measured with averaged repeats (first 4, then up to
//! // 16) before the verdict — far from the band, one capture decides.
//! let band = AcceptanceBand::new(0.03)?;
//! let policy = RetestPolicy::new(0.005, vec![4, 16])?;
//! let gross = BiquadParams::paper_default().with_f0_shift_pct(10.0);
//! let retested = flow.evaluate_with_retest(&gross, &band, &policy, 42)?;
//! assert!(!retested.verdict.marginal, "a gross defect needs no retest");
//! assert_eq!(retested.verdict.repeats_used, 0);
//! # Ok(())
//! # }
//! ```
//!
//! The `repro-bench` crate regenerates every table and figure of the paper's
//! evaluation. See `README.md` for quickstart commands, `ARCHITECTURE.md`
//! for the crate map and data flow (including the shared-stimulus batched
//! capture fast path), and `docs/FORMATS.md` for every binary format.

#![warn(missing_docs)]

/// The MNA circuit-simulation substrate (`sim-spice`).
pub use sim_spice as spice;

/// The signal-processing substrate (`sim-signal`).
pub use sim_signal as signal;

/// The X-Y zoning monitor models (`xy-monitor`).
pub use xy_monitor as monitor;

/// The circuit-under-test models (`cut-filters`).
pub use cut_filters as filters;

/// The digital-signature test core (`dsig-core`).
pub use dsig_core as dsig;

/// The population-scale campaign engine (`dsig-engine`).
pub use dsig_engine as engine;

/// The zero-dependency observability substrate (`dsig-obs`).
pub use dsig_obs as obs;

/// The signature-scoring service (`dsig-serve`).
pub use dsig_serve as serve;

/// The multi-backend routing tier (`dsig-router`).
pub use dsig_router as router;
