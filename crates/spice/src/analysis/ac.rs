//! Small-signal AC analysis.
//!
//! The circuit is linearized around its DC operating point and solved in the
//! frequency domain with complex phasors. Every non-DC independent source is
//! replaced by a unit-magnitude phasor, so node phasors are directly the
//! transfer function from that source.

use crate::circuit::{Circuit, Element, MnaLayout, Node};
use crate::complex::{Complex, ComplexMatrix};
use crate::devices::mosfet;
use crate::error::{Result, SpiceError};

use super::dc::{dc_operating_point, OperatingPoint};

/// Result of an AC sweep: per-frequency node phasors.
#[derive(Debug, Clone)]
pub struct AcResult {
    /// `phasors[freq_index][node_index]`.
    phasors: Vec<Vec<Complex>>,
}

impl AcResult {
    /// Phasor of `node` at the `freq_index`-th analysis frequency.
    pub fn phasor(&self, freq_index: usize, node: Node) -> Complex {
        self.phasors[freq_index][node.index()]
    }
}

/// Builds a logarithmically spaced frequency grid (inclusive of both ends).
///
/// # Panics
/// Panics if `points < 2` or the bounds are not positive.
pub fn log_frequency_grid(f_start: f64, f_stop: f64, points: usize) -> Vec<f64> {
    assert!(points >= 2, "need at least two points");
    assert!(f_start > 0.0 && f_stop > f_start, "invalid frequency bounds");
    let log_start = f_start.log10();
    let log_stop = f_stop.log10();
    (0..points)
        .map(|i| 10f64.powf(log_start + (log_stop - log_start) * i as f64 / (points - 1) as f64))
        .collect()
}

/// Runs an AC sweep at the given frequencies.
///
/// # Errors
/// Propagates DC operating-point failures and singular-matrix errors, and
/// returns [`SpiceError::InvalidAnalysis`] for an empty frequency list.
pub fn ac_sweep(circuit: &Circuit, frequencies: &[f64]) -> Result<AcResult> {
    if frequencies.is_empty() {
        return Err(SpiceError::InvalidAnalysis(
            "AC sweep needs at least one frequency".to_string(),
        ));
    }
    let op = dc_operating_point(circuit)?;
    ac_sweep_at(circuit, &op, frequencies)
}

/// Runs an AC sweep reusing an already computed operating point.
///
/// # Errors
/// Returns [`SpiceError::SingularMatrix`] for structurally singular circuits
/// and [`SpiceError::InvalidAnalysis`] for an empty frequency list.
pub fn ac_sweep_at(circuit: &Circuit, op: &OperatingPoint, frequencies: &[f64]) -> Result<AcResult> {
    if frequencies.is_empty() {
        return Err(SpiceError::InvalidAnalysis(
            "AC sweep needs at least one frequency".to_string(),
        ));
    }
    let layout = MnaLayout::new(circuit);
    let n = layout.total_unknowns;
    let node_count = circuit.node_count();
    let mut phasors = Vec::with_capacity(frequencies.len());

    for &freq in frequencies {
        let omega = 2.0 * std::f64::consts::PI * freq;
        let mut a = ComplexMatrix::zeros(n);
        let mut b = vec![Complex::ZERO; n];

        let stamp_admittance = |a: &mut ComplexMatrix, n1: Option<usize>, n2: Option<usize>, y: Complex| {
            if let Some(i) = n1 {
                a.add(i, i, y);
                if let Some(j) = n2 {
                    a.add(i, j, -y);
                }
            }
            if let Some(j) = n2 {
                a.add(j, j, y);
                if let Some(i) = n1 {
                    a.add(j, i, -y);
                }
            }
        };

        for (idx, element) in circuit.elements().iter().enumerate() {
            let branch = layout.branch_of_element[idx];
            match element {
                Element::Resistor { a: na, b: nb, ohms, .. } => {
                    stamp_admittance(
                        &mut a,
                        layout.node_unknown(*na),
                        layout.node_unknown(*nb),
                        Complex::from_real(1.0 / ohms),
                    );
                }
                Element::Capacitor {
                    a: na, b: nb, farads, ..
                } => {
                    stamp_admittance(
                        &mut a,
                        layout.node_unknown(*na),
                        layout.node_unknown(*nb),
                        Complex::from_imag(omega * farads),
                    );
                }
                Element::VoltageSource { pos, neg, waveform, .. } => {
                    let br = branch.expect("vsource branch");
                    let ip = layout.node_unknown(*pos);
                    let ineg = layout.node_unknown(*neg);
                    if let Some(i) = ip {
                        a.add(i, br, Complex::ONE);
                        a.add(br, i, Complex::ONE);
                    }
                    if let Some(j) = ineg {
                        a.add(j, br, -Complex::ONE);
                        a.add(br, j, -Complex::ONE);
                    }
                    b[br] = Complex::from_real(waveform.ac_magnitude());
                }
                Element::IdealOpAmp {
                    in_pos, in_neg, out, ..
                } => {
                    let br = branch.expect("opamp branch");
                    if let Some(o) = layout.node_unknown(*out) {
                        a.add(o, br, -Complex::ONE);
                    }
                    if let Some(i) = layout.node_unknown(*in_pos) {
                        a.add(br, i, Complex::ONE);
                    }
                    if let Some(j) = layout.node_unknown(*in_neg) {
                        a.add(br, j, -Complex::ONE);
                    }
                }
                Element::Mosfet {
                    drain,
                    gate,
                    source,
                    params,
                    ..
                } => {
                    let vd = op.voltage(*drain);
                    let vg = op.voltage(*gate);
                    let vs = op.voltage(*source);
                    let ev = mosfet::evaluate(params, vg, vd, vs);
                    let id = layout.node_unknown(*drain);
                    let ig = layout.node_unknown(*gate);
                    let is = layout.node_unknown(*source);
                    stamp_admittance(&mut a, id, is, Complex::from_real(ev.gds));
                    for (row, sign) in [(id, 1.0), (is, -1.0)] {
                        if let Some(r) = row {
                            if let Some(c) = ig {
                                a.add(r, c, Complex::from_real(sign * ev.gm));
                            }
                            if let Some(c) = is {
                                a.add(r, c, Complex::from_real(-sign * ev.gm));
                            }
                        }
                    }
                }
            }
        }
        // Tiny gmin keeps floating nodes solvable, mirroring the DC solver.
        for k in 0..layout.num_node_unknowns {
            a.add(k, k, Complex::from_real(1e-12));
        }

        let x = a.solve(&b)?;
        let mut row = Vec::with_capacity(node_count);
        for node_idx in 0..node_count {
            let node = Node(node_idx);
            let phasor = match layout.node_unknown(node) {
                Some(i) => x[i],
                None => Complex::ZERO,
            };
            row.push(phasor);
        }
        phasors.push(row);
    }

    Ok(AcResult { phasors })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceWaveform;

    fn rc_lowpass(fc: f64) -> (Circuit, Node) {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        let g = ckt.ground();
        let c = 1e-9;
        let r = 1.0 / (2.0 * std::f64::consts::PI * fc * c);
        ckt.add_vsource(
            "V1",
            vin,
            g,
            SourceWaveform::Sine {
                offset: 0.0,
                amplitude: 1.0,
                frequency_hz: fc,
                phase_rad: 0.0,
            },
        )
        .unwrap();
        ckt.add_resistor("R1", vin, out, r).unwrap();
        ckt.add_capacitor("C1", out, g, c).unwrap();
        (ckt, out)
    }

    #[test]
    fn rc_lowpass_minus_3db_at_cutoff() {
        let (ckt, out) = rc_lowpass(10e3);
        let res = ac_sweep(&ckt, &[10e3]).unwrap();
        let mag = res.phasor(0, out).abs();
        assert!((mag - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-3, "gain {mag}");
        let ph = res.phasor(0, out).arg();
        assert!((ph + std::f64::consts::FRAC_PI_4).abs() < 1e-3, "phase {ph}");
    }

    #[test]
    fn rc_lowpass_rolloff_is_20db_per_decade() {
        let (ckt, out) = rc_lowpass(1e3);
        let res = ac_sweep(&ckt, &[10e3, 100e3]).unwrap();
        let slope = res.phasor(1, out).db() - res.phasor(0, out).db();
        assert!((slope + 20.0).abs() < 0.5, "slope {slope}");
    }

    #[test]
    fn log_grid_endpoints() {
        let grid = log_frequency_grid(1.0, 1000.0, 4);
        assert!((grid[0] - 1.0).abs() < 1e-12);
        assert!((grid[3] - 1000.0).abs() < 1e-9);
        assert!((grid[1] - 10.0).abs() < 1e-9);
        assert_eq!(res_len(&grid), 4);
    }

    fn res_len(v: &[f64]) -> usize {
        v.len()
    }

    #[test]
    fn empty_frequency_list_rejected() {
        let (ckt, _) = rc_lowpass(1e3);
        assert!(ac_sweep(&ckt, &[]).is_err());
    }

    #[test]
    fn dc_source_does_not_drive_ac() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let g = ckt.ground();
        ckt.add_vsource("V1", a, g, 1.0).unwrap();
        ckt.add_resistor("R1", a, g, 1e3).unwrap();
        let res = ac_sweep(&ckt, &[1e3]).unwrap();
        assert!(res.phasor(0, a).abs() < 1e-9);
    }
}
