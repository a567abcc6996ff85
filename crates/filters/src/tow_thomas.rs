//! Tow-Thomas op-amp realisation of the Biquad CUT.
//!
//! The paper's CUT is "a Biquad filter"; the Tow-Thomas two-integrator loop
//! is the textbook op-amp realisation of such a section. This module designs
//! the RC components for a requested `(f0, Q, gain)` and builds the
//! corresponding `sim-spice` netlist with ideal op-amps, providing a
//! circuit-level reference for the behavioural models and a substrate for
//! component-level fault injection.

use sim_spice::{Circuit, Node, SourceWaveform};

use crate::error::{FilterError, Result};
use crate::transfer::{BiquadKind, BiquadParams};

/// Component values of a Tow-Thomas biquad.
///
/// Topology (all op-amps ideal):
///
/// * A1: lossy inverting integrator — `R1` from the input, `R3` from the
///   low-pass output, feedback `C1 || Rq`; its output is the band-pass node.
/// * A2: inverting integrator — `R2` from the band-pass node, feedback `C2`.
/// * A3: unity inverter (`Rinv`/`Rinv`) producing the low-pass output.
///
/// With `R2 = R3 = R` and `C1 = C2 = C`: `w0 = 1/(R C)`, `Q = Rq / R` and the
/// low-pass gain magnitude is `R3 / R1`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TowThomasDesign {
    /// Input resistor (sets the gain), ohms.
    pub r1: f64,
    /// Integrator resistor of A2, ohms.
    pub r2: f64,
    /// Feedback resistor from the low-pass output to A1, ohms.
    pub r3: f64,
    /// Damping resistor (sets Q), ohms.
    pub rq: f64,
    /// Feedback capacitor of A1, farads.
    pub c1: f64,
    /// Feedback capacitor of A2, farads.
    pub c2: f64,
    /// Resistors of the unity inverter A3, ohms.
    pub r_inv: f64,
}

impl TowThomasDesign {
    /// Designs component values for the requested low-pass parameters, using
    /// 1 nF capacitors and equal integrator resistors.
    ///
    /// # Errors
    /// Returns [`FilterError::InvalidParameter`] if the parameters are not a
    /// low-pass section (the Tow-Thomas low-pass tap is what the paper
    /// observes) or are out of the supported range.
    pub fn from_params(params: &BiquadParams) -> Result<Self> {
        if params.kind != BiquadKind::LowPass {
            return Err(FilterError::InvalidParameter(
                "the Tow-Thomas design targets the low-pass output".into(),
            ));
        }
        let c = 1e-9;
        let r = 1.0 / (params.omega0() * c);
        if !(r > 1.0) || !r.is_finite() {
            return Err(FilterError::InvalidParameter(format!(
                "natural frequency {} Hz leads to an unrealisable resistor {r} ohm",
                params.f0_hz
            )));
        }
        Ok(TowThomasDesign {
            r1: r / params.gain,
            r2: r,
            r3: r,
            rq: params.q * r,
            c1: c,
            c2: c,
            r_inv: 10e3,
        })
    }

    /// The effective filter parameters realised by the component values
    /// (useful after component-level fault injection).
    ///
    /// # Errors
    /// Returns [`FilterError::InvalidParameter`] if the components are
    /// non-physical (never the case for designs produced by
    /// [`TowThomasDesign::from_params`]).
    pub fn effective_params(&self) -> Result<BiquadParams> {
        let w0 = 1.0 / (self.r2 * self.r3 * self.c1 * self.c2).sqrt();
        let f0 = w0 / (2.0 * std::f64::consts::PI);
        let q = self.rq * (self.c1 / (self.c2 * self.r2 * self.r3)).sqrt();
        let gain = self.r3 / self.r1;
        BiquadParams::new(f0, q, gain, BiquadKind::LowPass)
    }

    /// Builds the Tow-Thomas netlist driven by the given source waveform.
    ///
    /// # Errors
    /// Propagates netlist construction errors.
    pub fn build_netlist(&self, stimulus: SourceWaveform) -> Result<TowThomasCircuit> {
        let mut ckt = Circuit::new();
        let input = ckt.node("in");
        let n1 = ckt.node("sum1");
        let bandpass = ckt.node("bp");
        let n2 = ckt.node("sum2");
        let lp_inverted = ckt.node("lp_inv");
        let n3 = ckt.node("sum3");
        let lowpass = ckt.node("lp");
        let gnd = ckt.ground();

        ckt.add_vsource("VIN", input, gnd, stimulus)?;
        // A1: lossy integrator.
        ckt.add_resistor("R1", input, n1, self.r1)?;
        ckt.add_resistor("R3", lowpass, n1, self.r3)?;
        ckt.add_resistor("RQ", bandpass, n1, self.rq)?;
        ckt.add_capacitor("C1", bandpass, n1, self.c1)?;
        ckt.add_opamp("A1", gnd, n1, bandpass)?;
        // A2: integrator.
        ckt.add_resistor("R2", bandpass, n2, self.r2)?;
        ckt.add_capacitor("C2", lp_inverted, n2, self.c2)?;
        ckt.add_opamp("A2", gnd, n2, lp_inverted)?;
        // A3: unity inverter.
        ckt.add_resistor("RINV_A", lp_inverted, n3, self.r_inv)?;
        ckt.add_resistor("RINV_B", lowpass, n3, self.r_inv)?;
        ckt.add_opamp("A3", gnd, n3, lowpass)?;

        Ok(TowThomasCircuit {
            circuit: ckt,
            input,
            bandpass,
            lowpass,
        })
    }
}

/// A built Tow-Thomas netlist with its observation nodes.
#[derive(Debug, Clone)]
pub struct TowThomasCircuit {
    /// The complete netlist.
    pub circuit: Circuit,
    /// Stimulus input node.
    pub input: Node,
    /// Band-pass output node (output of A1).
    pub bandpass: Node,
    /// Low-pass output node (output of A3) — the paper's observed signal.
    pub lowpass: Node,
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_spice::{ac_sweep, dc_operating_point};

    fn paper_design() -> TowThomasDesign {
        TowThomasDesign::from_params(&BiquadParams::paper_default()).unwrap()
    }

    #[test]
    fn design_realises_requested_parameters() {
        let params = BiquadParams::paper_default();
        let design = TowThomasDesign::from_params(&params).unwrap();
        let eff = design.effective_params().unwrap();
        assert!((eff.f0_hz - params.f0_hz).abs() / params.f0_hz < 1e-9);
        assert!((eff.q - params.q).abs() < 1e-9);
        assert!((eff.gain - params.gain).abs() < 1e-9);
    }

    #[test]
    fn bandpass_section_rejected() {
        let bp = BiquadParams::new(10e3, 1.0, 1.0, BiquadKind::BandPass).unwrap();
        assert!(TowThomasDesign::from_params(&bp).is_err());
    }

    #[test]
    fn netlist_dc_gain_matches_design() {
        let design = paper_design();
        let built = design.build_netlist(SourceWaveform::Dc(0.1)).unwrap();
        let op = dc_operating_point(&built.circuit).unwrap();
        let vlp = op.voltage(built.lowpass);
        // Unity DC gain in magnitude.
        assert!((vlp.abs() - 0.1).abs() < 1e-6, "lp = {vlp}");
        // The band-pass output carries no DC.
        assert!(op.voltage(built.bandpass).abs() < 1e-6);
    }

    #[test]
    fn ac_response_matches_analytic_transfer_function() {
        let params = BiquadParams::paper_default();
        let design = TowThomasDesign::from_params(&params).unwrap();
        let built = design
            .build_netlist(SourceWaveform::Sine {
                offset: 0.0,
                amplitude: 1.0,
                frequency_hz: 1e3,
                phase_rad: 0.0,
            })
            .unwrap();
        let freqs = [1e3, 5e3, 15e3, 25e3, 60e3];
        let res = ac_sweep(&built.circuit, &freqs).unwrap();
        for (i, &f) in freqs.iter().enumerate() {
            let circuit_mag = res.phasor(i, built.lowpass).abs();
            let analytic = params.magnitude(f);
            assert!(
                (circuit_mag - analytic).abs() / analytic < 0.01,
                "at {f} Hz: circuit {circuit_mag} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn component_shift_moves_effective_f0() {
        let mut design = paper_design();
        design.c2 *= 1.21; // +21 % capacitor: f0 drops by ~10 %
        let eff = design.effective_params().unwrap();
        let dev = eff.f0_deviation_pct(&BiquadParams::paper_default());
        assert!((dev + 9.1).abs() < 0.5, "deviation {dev}");
    }

    #[test]
    fn netlist_has_expected_structure() {
        let design = paper_design();
        let mut built = design.build_netlist(SourceWaveform::Dc(0.0)).unwrap();
        // 1 source + 6 resistors + 2 capacitors + 3 op-amps = 12 elements.
        assert_eq!(built.circuit.element_count(), 12);
        assert_eq!(built.circuit.node("lp"), built.lowpass);
    }
}
