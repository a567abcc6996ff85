//! Fixed-step transient analysis.

use crate::circuit::{Circuit, Element, MnaLayout, Node};
use crate::error::{Result, SpiceError};

use super::dc::{dc_operating_point_at_time, newton_solve, NewtonOptions};
use super::stamp::{update_reactive_state, ReactiveMode, ReactiveState, SourceEval};

/// Configuration of a transient analysis run.
#[derive(Debug, Clone, Copy)]
pub struct TransientConfig {
    /// Simulation stop time in seconds.
    pub t_stop: f64,
    /// Fixed time step in seconds.
    pub dt: f64,
    /// Samples before this time are simulated but not recorded (useful to
    /// skip the start-up transient before steady state).
    pub record_from: f64,
    /// Whether the initial condition is the DC operating point at `t = 0`
    /// (`true`) or the all-zero state (`false`).
    pub start_from_dc: bool,
}

impl TransientConfig {
    /// Creates a configuration recording from `t = 0` and starting from the
    /// DC operating point.
    pub fn new(t_stop: f64, dt: f64) -> Self {
        TransientConfig {
            t_stop,
            dt,
            record_from: 0.0,
            start_from_dc: true,
        }
    }

    /// Returns a copy that only records samples at or after `t` seconds.
    pub fn with_record_from(mut self, t: f64) -> Self {
        self.record_from = t;
        self
    }

    /// Validates the time parameters.
    ///
    /// # Errors
    /// Returns [`SpiceError::InvalidAnalysis`] if the stop time or step are
    /// not positive, or the step exceeds the stop time.
    pub fn validate(&self) -> Result<()> {
        if !(self.dt > 0.0) || !self.dt.is_finite() {
            return Err(SpiceError::InvalidAnalysis(format!(
                "time step must be positive (got {})",
                self.dt
            )));
        }
        if !(self.t_stop > 0.0) || !self.t_stop.is_finite() {
            return Err(SpiceError::InvalidAnalysis(format!(
                "stop time must be positive (got {})",
                self.t_stop
            )));
        }
        if self.dt > self.t_stop {
            return Err(SpiceError::InvalidAnalysis(
                "time step larger than stop time".to_string(),
            ));
        }
        Ok(())
    }
}

/// Result of a transient analysis: time axis plus a voltage trace per node.
#[derive(Debug, Clone)]
pub struct TransientResult {
    times: Vec<f64>,
    /// `traces[node_index][sample]`, node index 0 (ground) is all zeros.
    traces: Vec<Vec<f64>>,
}

impl TransientResult {
    /// The recorded time axis in seconds.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// The voltage trace of a node.
    pub fn voltage(&self, node: Node) -> &[f64] {
        &self.traces[node.index()]
    }
}

/// Runs a fixed-step transient analysis.
///
/// The circuit is first solved for its operating point at `t = 0` (unless
/// `start_from_dc` is disabled), then integrated with the trapezoidal rule.
///
/// # Errors
/// Propagates DC convergence errors, per-step Newton failures
/// ([`SpiceError::ConvergenceFailure`]) and invalid configurations.
///
/// # Examples
/// ```
/// use sim_spice::{transient, Circuit, SourceWaveform, TransientConfig};
/// # fn main() -> Result<(), sim_spice::SpiceError> {
/// // RC low-pass step response.
/// let mut ckt = Circuit::new();
/// let vin = ckt.node("in");
/// let out = ckt.node("out");
/// let g = ckt.ground();
/// ckt.add_vsource("V1", vin, g, SourceWaveform::Pulse {
///     low: 0.0, high: 1.0, delay: 0.0, rise: 1e-9, fall: 1e-9, width: 1.0, period: 2.0,
/// })?;
/// ckt.add_resistor("R1", vin, out, 1e3)?;
/// ckt.add_capacitor("C1", out, g, 1e-6)?;
/// let result = transient(&ckt, &TransientConfig::new(5e-3, 1e-5))?;
/// let v_end = *result.voltage(out).last().expect("samples");
/// assert!((v_end - 1.0).abs() < 0.01);
/// # Ok(())
/// # }
/// ```
pub fn transient(circuit: &Circuit, config: &TransientConfig) -> Result<TransientResult> {
    config.validate()?;
    let layout = MnaLayout::new(circuit);
    let options = NewtonOptions::default();

    // Initial condition.
    let mut x = if config.start_from_dc {
        dc_operating_point_at_time(circuit, 0.0)?.solution().to_vec()
    } else {
        vec![0.0; layout.total_unknowns]
    };

    // Seed the capacitors' companion-model state from the initial solution.
    let mut state = vec![ReactiveState::default(); circuit.element_count()];
    for (idx, element) in circuit.elements().iter().enumerate() {
        if let Element::Capacitor { a, b, .. } = element {
            state[idx].v_prev = layout.voltage_from(&x, *a) - layout.voltage_from(&x, *b);
        }
    }

    let steps = (config.t_stop / config.dt).round() as usize;
    let node_count = circuit.node_count();
    let mut times = Vec::with_capacity(steps + 1);
    let mut traces: Vec<Vec<f64>> = vec![Vec::with_capacity(steps + 1); node_count];
    let record = |t: f64, x: &[f64], traces: &mut Vec<Vec<f64>>, times: &mut Vec<f64>| {
        if t + 1e-15 >= config.record_from {
            times.push(t);
            for node_idx in 0..node_count {
                let v = layout.voltage_from(x, Node(node_idx));
                traces[node_idx].push(v);
            }
        }
    };

    record(0.0, &x, &mut traces, &mut times);

    for step in 1..=steps {
        let t = step as f64 * config.dt;
        let reactive = ReactiveMode::Companion {
            step: config.dt,
            state: &state,
        };
        x = newton_solve(
            circuit,
            &layout,
            &x,
            SourceEval::AtTime(t),
            reactive,
            1e-12,
            &options,
            "transient",
        )?;
        update_reactive_state(circuit, &layout, &x, config.dt, &mut state);
        record(t, &x, &mut traces, &mut times);
    }

    Ok(TransientResult { times, traces })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceWaveform;

    #[test]
    fn rc_charging_follows_exponential() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        let g = ckt.ground();
        // Step from 0 to 1 V at t=0 through R into C; tau = 1 ms.
        ckt.add_vsource(
            "V1",
            vin,
            g,
            SourceWaveform::Pwl(vec![(0.0, 0.0), (1e-9, 1.0), (1.0, 1.0)]),
        )
        .unwrap();
        ckt.add_resistor("R1", vin, out, 1e3).unwrap();
        ckt.add_capacitor("C1", out, g, 1e-6).unwrap();
        let res = transient(&ckt, &TransientConfig::new(3e-3, 1e-6)).unwrap();
        let times = res.times();
        let v = res.voltage(out);
        // Compare against the analytic solution at t = 1 ms and t = 2 ms.
        for target in [1e-3, 2e-3] {
            let idx = times.iter().position(|&t| (t - target).abs() < 5e-7).unwrap();
            let expected = 1.0 - (-target / 1e-3_f64).exp();
            assert!(
                (v[idx] - expected).abs() < 5e-3,
                "at {target}: {} vs {}",
                v[idx],
                expected
            );
        }
    }

    #[test]
    fn rc_lowpass_attenuates_sine_amplitude() {
        // 1 kHz cutoff RC driven at 10 kHz: gain should be ~ 1/sqrt(1+100) ≈ 0.0995.
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        let g = ckt.ground();
        let r = 1.0 / (2.0 * std::f64::consts::PI * 1000.0 * 1e-6);
        ckt.add_vsource(
            "V1",
            vin,
            g,
            SourceWaveform::Sine {
                offset: 0.0,
                amplitude: 1.0,
                frequency_hz: 10e3,
                phase_rad: 0.0,
            },
        )
        .unwrap();
        ckt.add_resistor("R1", vin, out, r).unwrap();
        ckt.add_capacitor("C1", out, g, 1e-6).unwrap();
        let res = transient(&ckt, &TransientConfig::new(2e-3, 1e-7).with_record_from(1e-3)).unwrap();
        let v = res.voltage(out);
        let amp = v.iter().fold(0.0_f64, |m, &x| m.max(x.abs()));
        assert!((amp - 0.0995).abs() < 0.01, "amplitude {amp}");
    }

    #[test]
    fn invalid_config_rejected() {
        let ckt = Circuit::new();
        assert!(transient(&ckt, &TransientConfig::new(-1.0, 1e-6)).is_err());
        assert!(transient(&ckt, &TransientConfig::new(1.0, 0.0)).is_err());
        assert!(transient(&ckt, &TransientConfig::new(1e-6, 1.0)).is_err());
    }

    #[test]
    fn record_from_skips_early_samples() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let g = ckt.ground();
        ckt.add_vsource("V1", a, g, 1.0).unwrap();
        ckt.add_resistor("R1", a, g, 1e3).unwrap();
        let res = transient(&ckt, &TransientConfig::new(1e-3, 1e-5).with_record_from(5e-4)).unwrap();
        assert!(res.times()[0] >= 5e-4 - 1e-12);
    }
}
