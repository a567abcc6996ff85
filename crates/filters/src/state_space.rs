//! State-variable time-domain simulation of the Biquad.
//!
//! The second-order section is written in state-variable form and integrated
//! with a classic fixed-step Runge-Kutta 4 scheme. This gives a time-domain
//! reference that is independent of both the analytic steady-state expansion
//! ([`crate::transfer::BiquadParams::steady_state_response`]) and the
//! transistor/op-amp level netlist ([`crate::tow_thomas`]), so the three can
//! cross-validate each other.

use sim_signal::{MultitoneSpec, Waveform};

use crate::error::{FilterError, Result};
use crate::transfer::{BiquadKind, BiquadParams};

/// Fixed-step RK4 simulator for a second-order filter section.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StateSpaceSim {
    params: BiquadParams,
    /// Integration step, seconds.
    pub dt: f64,
}

impl StateSpaceSim {
    /// Creates a simulator for the given filter with the given step.
    ///
    /// # Errors
    /// Returns [`FilterError::InvalidParameter`] if the step is not positive
    /// or is too coarse for the filter (fewer than 20 steps per `1/f0`).
    pub fn new(params: BiquadParams, dt: f64) -> Result<Self> {
        if !(dt > 0.0) || !dt.is_finite() {
            return Err(FilterError::InvalidParameter(format!(
                "time step must be positive (got {dt})"
            )));
        }
        if dt > 1.0 / (20.0 * params.f0_hz) {
            return Err(FilterError::InvalidParameter(format!(
                "time step {dt} too coarse for f0 = {} Hz (need at least 20 steps per period)",
                params.f0_hz
            )));
        }
        Ok(StateSpaceSim { params, dt })
    }

    /// State derivative of the canonical second-order section:
    /// `x1' = x2`, `x2' = w0^2 (u - x1) - (w0/Q) x2`.
    fn derivative(&self, x: [f64; 2], u: f64) -> [f64; 2] {
        let w0 = self.params.omega0();
        [x[1], w0 * w0 * (u - x[0]) - w0 / self.params.q * x[1]]
    }

    /// Output equation for the configured tap.
    fn output(&self, x: [f64; 2], u: f64) -> f64 {
        let w0 = self.params.omega0();
        match self.params.kind {
            BiquadKind::LowPass => self.params.gain * x[0],
            // x2 = w0^2 s U / D, while the unity band-pass output is (w0/Q) s U / D.
            BiquadKind::BandPass => self.params.gain * x[1] / (w0 * self.params.q),
            // High-pass identity: hp = u - lp_unity - bp_unity.
            BiquadKind::HighPass => self.params.gain * (u - x[0] - x[1] / (w0 * self.params.q)),
        }
    }

    /// Simulates the response to an arbitrary input `u(t)` over `duration`
    /// seconds, starting from a zero state, and returns the output sampled at
    /// the integration step.
    pub fn simulate(&self, duration: f64, input: impl Fn(f64) -> f64) -> Waveform {
        let steps = (duration / self.dt).round() as usize;
        let mut x = [0.0_f64; 2];
        let mut samples = Vec::with_capacity(steps + 1);
        samples.push(self.output(x, input(0.0)));
        for k in 0..steps {
            let t = k as f64 * self.dt;
            let h = self.dt;
            let k1 = self.derivative(x, input(t));
            let k2 = self.derivative([x[0] + 0.5 * h * k1[0], x[1] + 0.5 * h * k1[1]], input(t + 0.5 * h));
            let k3 = self.derivative([x[0] + 0.5 * h * k2[0], x[1] + 0.5 * h * k2[1]], input(t + 0.5 * h));
            let k4 = self.derivative([x[0] + h * k3[0], x[1] + h * k3[1]], input(t + h));
            for i in 0..2 {
                x[i] += h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
            }
            samples.push(self.output(x, input(t + h)));
        }
        Waveform::new(0.0, 1.0 / self.dt, samples)
    }

    /// Simulates the response to a multitone stimulus for `settle + observe`
    /// fundamental periods and returns only the last `observe` periods (the
    /// settled, periodic part used for signature generation).
    pub fn simulate_multitone(&self, stimulus: &MultitoneSpec, settle: u32, observe: u32) -> Waveform {
        let period = stimulus.period();
        let total = period * (settle + observe) as f64;
        let full = self.simulate(total, |t| stimulus.value(t));
        let skip = (period * settle as f64 / self.dt).round() as usize;
        let samples = full.samples()[skip..].to_vec();
        Waveform::new(0.0, 1.0 / self.dt, samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_signal::MultitoneSpec;

    #[test]
    fn rejects_bad_steps() {
        let p = BiquadParams::paper_default();
        assert!(StateSpaceSim::new(p, 0.0).is_err());
        assert!(StateSpaceSim::new(p, 1e-3).is_err()); // far too coarse for 15 kHz
        assert!(StateSpaceSim::new(p, 1e-7).is_ok());
    }

    #[test]
    fn step_response_settles_to_dc_gain() {
        let p = BiquadParams::new(10e3, 0.707, 1.0, BiquadKind::LowPass).unwrap();
        let sim = StateSpaceSim::new(p, 1e-7).unwrap();
        let y = sim.simulate(2e-3, |_| 1.0);
        let last = *y.samples().last().unwrap();
        assert!((last - 1.0).abs() < 1e-3, "settled value {last}");
    }

    #[test]
    fn sine_at_f0_is_amplified_by_q() {
        let p = BiquadParams::new(10e3, 2.0, 1.0, BiquadKind::LowPass).unwrap();
        let sim = StateSpaceSim::new(p, 1e-7).unwrap();
        let y = sim.simulate(3e-3, |t| (2.0 * std::f64::consts::PI * 10e3 * t).sin());
        // Look at the last millisecond only (steady state).
        let tail: Vec<f64> = y.samples().iter().copied().skip(20_000).collect();
        let amp = tail.iter().fold(0.0_f64, |m, &v| m.max(v.abs()));
        assert!((amp - 2.0).abs() < 0.05, "steady-state amplitude {amp}");
    }

    #[test]
    fn rk4_matches_analytic_steady_state() {
        let p = BiquadParams::paper_default();
        let stim = MultitoneSpec::paper_default();
        let sim = StateSpaceSim::new(p, 2e-8).unwrap();
        let simulated = sim.simulate_multitone(&stim, 10, 1);
        let analytic = p.steady_state_response(&stim, 1, simulated.sample_rate());
        // Compare on the common length (the analytic waveform covers one period).
        let n = analytic.len().min(simulated.len());
        let mut max_err = 0.0_f64;
        for k in 0..n {
            max_err = max_err.max((analytic.samples()[k] - simulated.samples()[k]).abs());
        }
        assert!(
            max_err < 5e-3,
            "max deviation between RK4 and analytic response: {max_err}"
        );
    }

    #[test]
    fn simulate_multitone_returns_requested_window() {
        let p = BiquadParams::paper_default();
        let stim = MultitoneSpec::paper_default();
        let sim = StateSpaceSim::new(p, 1e-7).unwrap();
        let y = sim.simulate_multitone(&stim, 3, 2);
        assert!((y.duration() - 2.0 * stim.period()).abs() < 1e-5);
    }
}
