//! # sim-spice
//!
//! A small, self-contained SPICE-like analog circuit simulator built as the
//! substrate for the reproduction of *"Analog Circuit Test Based on a Digital
//! Signature"* (DATE 2010).
//!
//! The crate provides:
//!
//! * a netlist builder ([`Circuit`]) with the five elements the paper's two
//!   circuits need: resistors, capacitors, independent voltage sources, ideal
//!   op-amps (the Tow-Thomas biquad) and level-1 MOSFETs (the Fig. 2
//!   current-comparator monitor);
//! * DC operating-point analysis ([`dc_operating_point`]) using damped
//!   Newton-Raphson with gmin stepping;
//! * fixed-step transient analysis ([`transient`]) with trapezoidal
//!   integration;
//! * small-signal AC analysis ([`ac_sweep`]).
//!
//! It is intentionally minimal: dense linear algebra, fixed time steps and a
//! single MOSFET model — enough to simulate the paper's Biquad filter and the
//! transistor-level X-Y zoning monitor, and to cross-check the behavioural
//! models against them, and nothing more.
//!
//! # Examples
//!
//! ```
//! use sim_spice::{Circuit, SourceWaveform, TransientConfig, transient};
//!
//! # fn main() -> Result<(), sim_spice::SpiceError> {
//! // An RC low-pass filter driven by a 1 kHz sine.
//! let mut ckt = Circuit::new();
//! let vin = ckt.node("in");
//! let vout = ckt.node("out");
//! let gnd = ckt.ground();
//! ckt.add_vsource("V1", vin, gnd, SourceWaveform::Sine {
//!     offset: 0.5, amplitude: 0.4, frequency_hz: 1e3, phase_rad: 0.0,
//! })?;
//! ckt.add_resistor("R1", vin, vout, 1.59e3)?;
//! ckt.add_capacitor("C1", vout, gnd, 100e-9)?;
//!
//! let result = transient(&ckt, &TransientConfig::new(2e-3, 1e-6))?;
//! assert_eq!(result.times().len(), result.voltage(vout).len());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod circuit;
pub mod complex;
pub mod devices;
pub mod error;
pub mod linalg;
pub mod source;

pub use analysis::{
    ac_sweep, ac_sweep_at, dc_operating_point, dc_operating_point_at_time, log_frequency_grid, transient, AcResult,
    NewtonOptions, OperatingPoint, TransientConfig, TransientResult,
};
pub use circuit::{Circuit, Element, MnaLayout, Node};
pub use complex::Complex;
pub use devices::{MosParams, MosPolarity, MosRegion};
pub use error::{Result, SpiceError};
pub use source::{SourceWaveform, Tone};
