//! # sim-signal
//!
//! Signal-processing substrate for the digital-signature analog test
//! reproduction:
//!
//! * [`Waveform`] — uniformly sampled signals with interpolation and
//!   statistics;
//! * [`MultitoneSpec`] — the harmonically related multitone stimulus used to
//!   excite the circuit under test (§II of the paper);
//! * [`NoiseModel`] — additive white Gaussian measurement noise (§IV-C);
//! * [`fft`](mod@fft) — spectrum utilities used by tests and benches;
//! * [`metrics`] — the waveform error of the classic baseline method;
//! * [`Lissajous`] — X-Y composition of two signals.
//!
//! # Examples
//!
//! ```
//! use sim_signal::{Lissajous, MultitoneSpec};
//!
//! # fn main() -> Result<(), sim_signal::SignalError> {
//! let stimulus = MultitoneSpec::paper_default();
//! let x = stimulus.sample(1, 1e6);
//! // A trivially processed "output": the same signal attenuated around 0.5 V.
//! let y = x.map(|v| 0.5 + 0.8 * (v - 0.5));
//! let trajectory = Lissajous::compose(&x, &y)?;
//! assert!(trajectory.within(0.0, 1.0, 0.0, 1.0));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod fft;
pub mod lissajous;
pub mod metrics;
pub mod multitone;
pub mod noise;
pub mod waveform;

pub use fft::{amplitude_spectrum, fft, tone_amplitude, tone_amplitude_projection};
pub use lissajous::Lissajous;
pub use metrics::normalized_rms_error;
pub use multitone::{MultitoneSpec, ToneSpec};
pub use noise::{standard_normal, NoiseModel};
pub use waveform::{lowpass_gap_bound, lowpass_in_place, lowpass_lanes_in_place, SignalError, Waveform};
