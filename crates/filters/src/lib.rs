//! # cut-filters
//!
//! Circuit-under-test models for the digital-signature analog test
//! reproduction. The paper's CUT is a Biquad low-pass filter whose natural
//! frequency `f0` is verified through the signature-based test; this crate
//! models it at three abstraction levels that cross-validate each other:
//!
//! * [`BiquadParams`] — the analytic second-order transfer function, with the
//!   exact steady-state response to a multitone stimulus;
//! * [`StateSpaceSim`] — a fixed-step RK4 time-domain simulation of the same
//!   section;
//! * [`TowThomasDesign`] — a component-level op-amp realisation simulated by
//!   the `sim-spice` MNA engine.
//!
//! [`Fault`] injects parametric deviations (the Fig. 8 `f0` sweep), component
//! shifts and catastrophic open/short defects.
//!
//! # Examples
//!
//! ```
//! use cut_filters::{BiquadParams, Fault};
//! use sim_signal::MultitoneSpec;
//!
//! # fn main() -> Result<(), cut_filters::FilterError> {
//! let golden = BiquadParams::paper_default();
//! let defective = Fault::F0ShiftPct(10.0).apply_to_params(&golden)?;
//! let stimulus = MultitoneSpec::paper_default();
//! let y_golden = golden.steady_state_response(&stimulus, 1, 1e6);
//! let y_defective = defective.steady_state_response(&stimulus, 1, 1e6);
//! assert!(sim_signal::normalized_rms_error(&y_golden, &y_defective)? > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod error;
pub mod faults;
pub mod state_space;
pub mod tow_thomas;
pub mod transfer;

pub use error::{FilterError, Result};
pub use faults::{fig8_f0_sweep, ComponentRef, Fault};
pub use state_space::StateSpaceSim;
pub use tow_thomas::{TowThomasCircuit, TowThomasDesign};
pub use transfer::{BiquadKind, BiquadParams, ToneGrid};
