//! DC operating-point analysis (Newton-Raphson with gmin stepping).

use crate::circuit::{Circuit, MnaLayout, Node};
use crate::error::{Result, SpiceError};
use crate::linalg;

use super::stamp::{assemble, ReactiveMode, SourceEval};

/// Result of a DC operating-point analysis.
#[derive(Debug, Clone)]
pub struct OperatingPoint {
    layout: MnaLayout,
    solution: Vec<f64>,
}

impl OperatingPoint {
    /// Voltage of a node (0.0 for ground).
    pub fn voltage(&self, node: Node) -> f64 {
        self.layout.voltage_from(&self.solution, node)
    }

    /// The raw solution vector (node voltages then branch currents).
    pub fn solution(&self) -> &[f64] {
        &self.solution
    }

    /// The MNA layout that maps nodes to solution indices.
    pub fn layout(&self) -> &MnaLayout {
        &self.layout
    }
}

/// Configuration knobs for the Newton-Raphson solver.
#[derive(Debug, Clone, Copy)]
pub struct NewtonOptions {
    /// Maximum Newton iterations per solve.
    pub max_iterations: usize,
    /// Absolute voltage tolerance (volts).
    pub abs_tol: f64,
    /// Relative tolerance.
    pub rel_tol: f64,
    /// Maximum per-iteration change applied to node voltages (volts); larger
    /// Newton updates are clamped to this value for robustness.
    pub damping_limit: f64,
}

impl Default for NewtonOptions {
    fn default() -> Self {
        NewtonOptions {
            max_iterations: 200,
            abs_tol: 1e-9,
            rel_tol: 1e-6,
            damping_limit: 0.5,
        }
    }
}

/// Runs a Newton-Raphson solve with the given source evaluation and reactive
/// handling, starting from `initial_guess`.
pub(crate) fn newton_solve(
    circuit: &Circuit,
    layout: &MnaLayout,
    initial_guess: &[f64],
    sources: SourceEval,
    reactive: ReactiveMode<'_>,
    gmin: f64,
    options: &NewtonOptions,
    analysis: &'static str,
) -> Result<Vec<f64>> {
    let mut x = initial_guess.to_vec();
    let mut last_residual = f64::INFINITY;
    for _iter in 0..options.max_iterations {
        let (a, b) = assemble(circuit, layout, &x, sources, reactive, gmin);
        let x_new = a.solve(&b)?;
        // Damped update: clamp node-voltage moves, accept branch currents as is.
        let mut max_rel = 0.0_f64;
        let mut next = x.clone();
        for i in 0..x.len() {
            let mut delta = x_new[i] - x[i];
            if i < layout.num_node_unknowns {
                delta = delta.clamp(-options.damping_limit, options.damping_limit);
            }
            next[i] = x[i] + delta;
            let scale = options.abs_tol + options.rel_tol * x_new[i].abs().max(x[i].abs());
            max_rel = max_rel.max((x_new[i] - x[i]).abs() / scale);
        }
        last_residual = linalg::diff_inf_norm(&x_new, &x);
        x = next;
        if max_rel <= 1.0 {
            return Ok(x);
        }
    }
    Err(SpiceError::ConvergenceFailure {
        analysis,
        iterations: options.max_iterations,
        residual: last_residual,
    })
}

/// Computes the DC operating point of a circuit.
///
/// Nonlinear devices are solved by damped Newton-Raphson iteration; when the
/// plain solve fails to converge, a gmin-stepping continuation is attempted
/// before giving up.
///
/// # Errors
/// Returns [`SpiceError::ConvergenceFailure`] if no solution is found, or
/// [`SpiceError::SingularMatrix`] for structurally singular circuits.
///
/// # Examples
/// ```
/// use sim_spice::{Circuit, dc_operating_point};
/// # fn main() -> Result<(), sim_spice::SpiceError> {
/// let mut ckt = Circuit::new();
/// let vin = ckt.node("in");
/// let a = ckt.node("a");
/// let g = ckt.ground();
/// ckt.add_vsource("V1", vin, g, 3.0)?;
/// ckt.add_resistor("R1", vin, a, 2000.0)?;
/// ckt.add_resistor("R2", a, g, 1000.0)?;
/// let op = dc_operating_point(&ckt)?;
/// assert!((op.voltage(a) - 1.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
pub fn dc_operating_point(circuit: &Circuit) -> Result<OperatingPoint> {
    dc_operating_point_at(circuit, SourceEval::Dc)
}

/// Computes the operating point with all sources evaluated at time `t`
/// (used to initialize transient analysis).
pub fn dc_operating_point_at_time(circuit: &Circuit, t: f64) -> Result<OperatingPoint> {
    dc_operating_point_at(circuit, SourceEval::AtTime(t))
}

fn dc_operating_point_at(circuit: &Circuit, sources: SourceEval) -> Result<OperatingPoint> {
    let layout = MnaLayout::new(circuit);
    let options = NewtonOptions::default();
    let zero = vec![0.0; layout.total_unknowns];

    // Plain attempt with the final (tiny) gmin.
    if let Ok(solution) = newton_solve(
        circuit,
        &layout,
        &zero,
        sources,
        ReactiveMode::Static,
        1e-12,
        &options,
        "dc",
    ) {
        return Ok(OperatingPoint { layout, solution });
    }

    // gmin stepping: solve with a large conductance to ground and use each
    // solution to warm-start the next, gradually removing the crutch.
    let mut guess = zero;
    let schedule = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-8, 1e-10, 1e-12];
    for (i, gmin) in schedule.iter().enumerate() {
        match newton_solve(
            circuit,
            &layout,
            &guess,
            sources,
            ReactiveMode::Static,
            *gmin,
            &options,
            "dc",
        ) {
            Ok(solution) => {
                guess = solution;
            }
            Err(err) => {
                if i == schedule.len() - 1 {
                    return Err(err);
                }
                // Keep the previous guess and continue stepping.
            }
        }
    }
    Ok(OperatingPoint {
        layout,
        solution: guess,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::MosParams;
    use crate::source::SourceWaveform;

    #[test]
    fn resistive_divider() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        let g = ckt.ground();
        ckt.add_vsource("V1", vin, g, 3.0).unwrap();
        ckt.add_resistor("R1", vin, out, 2e3).unwrap();
        ckt.add_resistor("R2", out, g, 1e3).unwrap();
        let op = dc_operating_point(&ckt).unwrap();
        assert!((op.voltage(out) - 1.0).abs() < 1e-9);
        assert!((op.voltage(vin) - 3.0).abs() < 1e-9);
        // Source current (V1's branch unknown, SPICE sign: positive from the
        // + terminal through the source): 3 V over 3 kΩ = 1 mA out of it.
        let branch = op.layout().branch_of_element[0].unwrap();
        assert!((op.solution()[branch] + 1e-3).abs() < 1e-9);
    }

    #[test]
    fn opamp_follower_tracks_input() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        let g = ckt.ground();
        ckt.add_vsource("V1", vin, g, 0.75).unwrap();
        ckt.add_opamp("U1", vin, out, out).unwrap();
        ckt.add_resistor("RL", out, g, 10e3).unwrap();
        let op = dc_operating_point(&ckt).unwrap();
        assert!((op.voltage(out) - 0.75).abs() < 1e-9);
    }

    #[test]
    fn inverting_amplifier_gain() {
        // Ideal op-amp inverting amplifier with gain -2.
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let vminus = ckt.node("minus");
        let out = ckt.node("out");
        let g = ckt.ground();
        ckt.add_vsource("V1", vin, g, 0.2).unwrap();
        ckt.add_resistor("R1", vin, vminus, 10e3).unwrap();
        ckt.add_resistor("R2", vminus, out, 20e3).unwrap();
        ckt.add_opamp("U1", g, vminus, out).unwrap();
        let op = dc_operating_point(&ckt).unwrap();
        assert!((op.voltage(out) + 0.4).abs() < 1e-9);
        assert!(op.voltage(vminus).abs() < 1e-9);
    }

    #[test]
    fn diode_connected_mosfet_settles_above_threshold() {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let d = ckt.node("d");
        let g = ckt.ground();
        ckt.add_vsource("VDD", vdd, g, 1.2).unwrap();
        ckt.add_resistor("R1", vdd, d, 10e3).unwrap();
        let params = MosParams::nmos_65nm(1.8e-6, 180e-9);
        // Diode connected: gate tied to drain.
        ckt.add_mosfet("M1", d, d, g, params).unwrap();
        let op = dc_operating_point(&ckt).unwrap();
        let vd = op.voltage(d);
        assert!(vd > params.vth0 && vd < 1.0, "diode-connected voltage {vd}");
    }

    #[test]
    fn sine_source_contributes_only_offset_at_dc() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let g = ckt.ground();
        ckt.add_vsource(
            "V1",
            a,
            g,
            SourceWaveform::Sine {
                offset: 0.5,
                amplitude: 0.4,
                frequency_hz: 1e3,
                phase_rad: 0.0,
            },
        )
        .unwrap();
        ckt.add_resistor("R1", a, g, 1e3).unwrap();
        let op = dc_operating_point(&ckt).unwrap();
        assert!((op.voltage(a) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn floating_node_with_gmin_does_not_blow_up() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("float");
        let g = ckt.ground();
        ckt.add_vsource("V1", a, g, 1.0).unwrap();
        ckt.add_capacitor("C1", a, b, 1e-9).unwrap();
        let op = dc_operating_point(&ckt).unwrap();
        assert!(op.voltage(b).abs() < 2.0);
    }
}
