//! MNA matrix assembly ("stamping") shared by the DC and transient solvers.

use crate::circuit::{Circuit, Element, MnaLayout};
use crate::devices::mosfet;
use crate::linalg::DenseMatrix;

/// Per-capacitor companion-model state carried between transient time steps.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReactiveState {
    /// Previous voltage across the capacitor.
    pub v_prev: f64,
    /// Previous current through the capacitor.
    pub i_prev: f64,
}

/// How independent sources are evaluated during assembly.
#[derive(Debug, Clone, Copy)]
pub enum SourceEval {
    /// Use the DC value of each waveform (operating-point analysis).
    Dc,
    /// Evaluate each waveform at an absolute time in seconds.
    AtTime(f64),
}

impl SourceEval {
    fn value(&self, w: &crate::source::SourceWaveform) -> f64 {
        match self {
            SourceEval::Dc => w.dc_value(),
            SourceEval::AtTime(t) => w.value(*t),
        }
    }
}

/// What to do with reactive elements during assembly.
#[derive(Debug, Clone, Copy)]
pub enum ReactiveMode<'a> {
    /// DC: capacitors open.
    Static,
    /// Transient step of size `step` using trapezoidal companion models built
    /// from the previous-step state.
    Companion {
        /// Time-step size in seconds.
        step: f64,
        /// Per-element previous state (indexed like `Circuit::elements`).
        state: &'a [ReactiveState],
    },
}

/// Assembles the linearized MNA system `A x = b` around the current
/// Newton-Raphson iterate `x_guess`.
pub fn assemble(
    circuit: &Circuit,
    layout: &MnaLayout,
    x_guess: &[f64],
    sources: SourceEval,
    reactive: ReactiveMode<'_>,
    gmin: f64,
) -> (DenseMatrix, Vec<f64>) {
    let n = layout.total_unknowns;
    let mut a = DenseMatrix::zeros(n);
    let mut b = vec![0.0; n];

    // gmin from every node to ground keeps the matrix non-singular in the
    // presence of floating capacitor nodes and helps NR convergence.
    for k in 0..layout.num_node_unknowns {
        a.add(k, k, gmin);
    }

    let v_of = |node: crate::circuit::Node| -> f64 { layout.voltage_from(x_guess, node) };

    // Helper closures for the two fundamental stamps.
    let stamp_conductance = |a: &mut DenseMatrix, n1: Option<usize>, n2: Option<usize>, g: f64| {
        if let Some(i) = n1 {
            a.add(i, i, g);
            if let Some(j) = n2 {
                a.add(i, j, -g);
            }
        }
        if let Some(j) = n2 {
            a.add(j, j, g);
            if let Some(i) = n1 {
                a.add(j, i, -g);
            }
        }
    };
    let stamp_current = |b: &mut [f64], from: Option<usize>, to: Option<usize>, i: f64| {
        // A current `i` leaves `from` and enters `to`.
        if let Some(f) = from {
            b[f] -= i;
        }
        if let Some(t) = to {
            b[t] += i;
        }
    };

    for (idx, element) in circuit.elements().iter().enumerate() {
        let branch = layout.branch_of_element[idx];
        match element {
            Element::Resistor { a: na, b: nb, ohms, .. } => {
                let g = 1.0 / ohms;
                stamp_conductance(&mut a, layout.node_unknown(*na), layout.node_unknown(*nb), g);
            }
            Element::Capacitor {
                a: na, b: nb, farads, ..
            } => match reactive {
                ReactiveMode::Static => {
                    // Open circuit at DC: no stamp.
                }
                ReactiveMode::Companion { step, state } => {
                    let st = state[idx];
                    let geq = 2.0 * farads / step;
                    let ieq = geq * st.v_prev + st.i_prev;
                    let ia = layout.node_unknown(*na);
                    let ib = layout.node_unknown(*nb);
                    stamp_conductance(&mut a, ia, ib, geq);
                    // Equivalent history current flows from b to a (it opposes
                    // the geq*v term): i = geq*v - ieq.
                    stamp_current(&mut b, ib, ia, ieq);
                }
            },
            Element::VoltageSource { pos, neg, waveform, .. } => {
                let br = branch.expect("vsource has a branch");
                let ip = layout.node_unknown(*pos);
                let ineg = layout.node_unknown(*neg);
                if let Some(i) = ip {
                    a.add(i, br, 1.0);
                    a.add(br, i, 1.0);
                }
                if let Some(j) = ineg {
                    a.add(j, br, -1.0);
                    a.add(br, j, -1.0);
                }
                b[br] = sources.value(waveform);
            }
            Element::IdealOpAmp {
                in_pos, in_neg, out, ..
            } => {
                let br = branch.expect("opamp has a branch");
                let ip = layout.node_unknown(*in_pos);
                let inn = layout.node_unknown(*in_neg);
                let io = layout.node_unknown(*out);
                // Output branch current is injected into the output node.
                if let Some(o) = io {
                    a.add(o, br, -1.0);
                }
                // Constraint row: v(in_pos) - v(in_neg) = 0.
                if let Some(i) = ip {
                    a.add(br, i, 1.0);
                }
                if let Some(j) = inn {
                    a.add(br, j, -1.0);
                }
            }
            Element::Mosfet {
                drain,
                gate,
                source,
                params,
                ..
            } => {
                let vd = v_of(*drain);
                let vg = v_of(*gate);
                let vs = v_of(*source);
                let ev = mosfet::evaluate(params, vg, vd, vs);
                let id = layout.node_unknown(*drain);
                let ig = layout.node_unknown(*gate);
                let is = layout.node_unknown(*source);
                // Output conductance between drain and source.
                stamp_conductance(&mut a, id, is, ev.gds);
                // Transconductance: current into the drain controlled by vgs.
                for (row, sign) in [(id, 1.0), (is, -1.0)] {
                    if let Some(r) = row {
                        if let Some(c) = ig {
                            a.add(r, c, sign * ev.gm);
                        }
                        if let Some(c) = is {
                            a.add(r, c, -sign * ev.gm);
                        }
                    }
                }
                // Equivalent current source for the Newton linearization.
                let ieq = ev.id - ev.gm * (vg - vs) - ev.gds * (vd - vs);
                // ieq leaves the drain node and enters the source node.
                stamp_current(&mut b, id, is, ieq);
            }
        }
    }

    (a, b)
}

/// Computes the post-solve capacitor state (voltages and trapezoidal
/// currents) used to seed the next transient step.
pub fn update_reactive_state(
    circuit: &Circuit,
    layout: &MnaLayout,
    solution: &[f64],
    step: f64,
    state: &mut [ReactiveState],
) {
    for (idx, element) in circuit.elements().iter().enumerate() {
        if let Element::Capacitor { a, b, farads, .. } = element {
            let v = layout.voltage_from(solution, *a) - layout.voltage_from(solution, *b);
            let st = &mut state[idx];
            st.i_prev = 2.0 * farads / step * (v - st.v_prev) - st.i_prev;
            st.v_prev = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;

    #[test]
    fn resistor_divider_assembles_expected_matrix() {
        let mut ckt = Circuit::new();
        let a_node = ckt.node("a");
        let g = ckt.ground();
        ckt.add_resistor("R1", a_node, g, 2.0).unwrap();
        ckt.add_vsource("V1", a_node, g, 1.0).unwrap();
        let layout = MnaLayout::new(&ckt);
        let x = vec![0.0; layout.total_unknowns];
        let (a, b) = assemble(&ckt, &layout, &x, SourceEval::Dc, ReactiveMode::Static, 0.0);
        assert!((a[(0, 0)] - 0.5).abs() < 1e-12);
        assert_eq!((a[(0, 1)], a[(1, 0)]), (1.0, 1.0));
        assert_eq!(b, vec![0.0, 1.0]);
    }

    #[test]
    fn vsource_stamp_fixes_node_voltage() {
        let mut ckt = Circuit::new();
        let a_node = ckt.node("a");
        let g = ckt.ground();
        ckt.add_vsource("V1", a_node, g, 5.0).unwrap();
        ckt.add_resistor("R1", a_node, g, 1e3).unwrap();
        let layout = MnaLayout::new(&ckt);
        let x = vec![0.0; layout.total_unknowns];
        let (a, b) = assemble(&ckt, &layout, &x, SourceEval::Dc, ReactiveMode::Static, 1e-12);
        let sol = a.solve(&b).unwrap();
        assert!((sol[0] - 5.0).abs() < 1e-9);
        // Branch current = -5 mA (current flows out of the + terminal through R).
        assert!((sol[1] + 5e-3).abs() < 1e-9);
    }

    #[test]
    fn capacitor_is_open_at_dc() {
        let mut ckt = Circuit::new();
        let a_node = ckt.node("a");
        let b_node = ckt.node("b");
        let g = ckt.ground();
        ckt.add_vsource("V1", a_node, g, 1.0).unwrap();
        ckt.add_resistor("R1", a_node, b_node, 1e3).unwrap();
        ckt.add_capacitor("C1", b_node, g, 1e-9).unwrap();
        let layout = MnaLayout::new(&ckt);
        let x = vec![0.0; layout.total_unknowns];
        let (a, b) = assemble(&ckt, &layout, &x, SourceEval::Dc, ReactiveMode::Static, 1e-12);
        let sol = a.solve(&b).unwrap();
        // No DC current: node b floats up to the source voltage.
        assert!((sol[1] - 1.0).abs() < 1e-6);
    }
}
