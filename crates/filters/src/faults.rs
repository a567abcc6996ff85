//! Fault injection for the circuit under test.
//!
//! The paper sweeps parametric deviations of the natural frequency `f0`
//! (Fig. 8). This module generalizes that to a small fault dictionary:
//! parametric shifts of `f0`, `Q` and gain, component-value shifts of the
//! Tow-Thomas realisation, and catastrophic open/short defects, so that the
//! test flow can also be exercised on defects beyond the paper's sweep.

use crate::error::Result;
use crate::tow_thomas::TowThomasDesign;
use crate::transfer::BiquadParams;

/// A component of the Tow-Thomas realisation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ComponentRef {
    /// Input (gain-setting) resistor.
    R1,
    /// Integrator resistor of A2.
    R2,
    /// Feedback resistor from the low-pass output.
    R3,
    /// Damping (Q-setting) resistor.
    Rq,
    /// Feedback capacitor of A1.
    C1,
    /// Feedback capacitor of A2.
    C2,
}

impl std::fmt::Display for ComponentRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ComponentRef::R1 => "R1",
            ComponentRef::R2 => "R2",
            ComponentRef::R3 => "R3",
            ComponentRef::Rq => "RQ",
            ComponentRef::C1 => "C1",
            ComponentRef::C2 => "C2",
        };
        write!(f, "{s}")
    }
}

/// A fault injected into the circuit under test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// Shift of the natural frequency by the given percentage (the Fig. 8 sweep).
    F0ShiftPct(f64),
    /// Shift of the quality factor by the given percentage.
    QShiftPct(f64),
    /// Shift of the pass-band gain by the given percentage.
    GainShiftPct(f64),
    /// Relative shift of one Tow-Thomas component value by the given percentage.
    ComponentShiftPct(ComponentRef, f64),
    /// Catastrophic open defect of one component (value scaled by 10^6 for
    /// resistors, 10^-6 for capacitors).
    Open(ComponentRef),
    /// Catastrophic short defect of one component (value scaled by 10^-6 for
    /// resistors, 10^6 for capacitors).
    Short(ComponentRef),
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fault::F0ShiftPct(p) => write!(f, "f0 {p:+.1}%"),
            Fault::QShiftPct(p) => write!(f, "Q {p:+.1}%"),
            Fault::GainShiftPct(p) => write!(f, "gain {p:+.1}%"),
            Fault::ComponentShiftPct(c, p) => write!(f, "{c} {p:+.1}%"),
            Fault::Open(c) => write!(f, "{c} open"),
            Fault::Short(c) => write!(f, "{c} short"),
        }
    }
}

impl Fault {
    /// Applies the fault to a Tow-Thomas design, returning the faulty design.
    pub fn apply_to_design(&self, design: &TowThomasDesign) -> TowThomasDesign {
        let mut d = *design;
        let scale_component = |d: &mut TowThomasDesign, c: &ComponentRef, factor: f64| match c {
            ComponentRef::R1 => d.r1 *= factor,
            ComponentRef::R2 => d.r2 *= factor,
            ComponentRef::R3 => d.r3 *= factor,
            ComponentRef::Rq => d.rq *= factor,
            ComponentRef::C1 => d.c1 *= factor,
            ComponentRef::C2 => d.c2 *= factor,
        };
        match self {
            Fault::F0ShiftPct(p) => {
                // Scale both integrator capacitors: w0 ~ 1/sqrt(C1 C2).
                let factor = 1.0 / (1.0 + p / 100.0);
                d.c1 *= factor;
                d.c2 *= factor;
            }
            Fault::QShiftPct(p) => d.rq *= 1.0 + p / 100.0,
            Fault::GainShiftPct(p) => d.r1 /= 1.0 + p / 100.0,
            Fault::ComponentShiftPct(c, p) => scale_component(&mut d, c, 1.0 + p / 100.0),
            Fault::Open(c) => {
                let factor = if matches!(c, ComponentRef::C1 | ComponentRef::C2) {
                    1e-6
                } else {
                    1e6
                };
                scale_component(&mut d, c, factor);
            }
            Fault::Short(c) => {
                let factor = if matches!(c, ComponentRef::C1 | ComponentRef::C2) {
                    1e6
                } else {
                    1e-6
                };
                scale_component(&mut d, c, factor);
            }
        }
        d
    }

    /// Applies the fault to behavioural filter parameters.
    ///
    /// Parametric faults are applied directly; component-level faults are
    /// routed through the Tow-Thomas design and mapped back to effective
    /// `(f0, Q, gain)` values.
    ///
    /// # Errors
    /// Returns an error when the faulty component values map to non-physical
    /// filter parameters (possible for extreme catastrophic defects).
    pub fn apply_to_params(&self, params: &BiquadParams) -> Result<BiquadParams> {
        match self {
            Fault::F0ShiftPct(p) => Ok(params.with_f0_shift_pct(*p)),
            Fault::QShiftPct(p) => Ok(params.with_q_shift_pct(*p)),
            Fault::GainShiftPct(p) => {
                BiquadParams::new(params.f0_hz, params.q, params.gain * (1.0 + p / 100.0), params.kind)
            }
            Fault::ComponentShiftPct(..) | Fault::Open(_) | Fault::Short(_) => {
                let design = TowThomasDesign::from_params(params)?;
                self.apply_to_design(&design).effective_params()
            }
        }
    }
}

/// The f0-deviation sweep of Fig. 8: -20 % to +20 % in 1 % steps (including 0).
pub fn fig8_f0_sweep() -> Vec<Fault> {
    (-20..=20).map(|p| Fault::F0ShiftPct(p as f64)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f0_shift_maps_directly() {
        let p = BiquadParams::paper_default();
        let faulty = Fault::F0ShiftPct(10.0).apply_to_params(&p).unwrap();
        assert!((faulty.f0_hz - 16_500.0).abs() < 1e-9);
    }

    #[test]
    fn q_and_gain_shifts() {
        let p = BiquadParams::paper_default();
        let q = Fault::QShiftPct(-15.0).apply_to_params(&p).unwrap();
        assert!((q.q - 0.85).abs() < 1e-9);
        let g = Fault::GainShiftPct(5.0).apply_to_params(&p).unwrap();
        assert!((g.gain - 1.05).abs() < 1e-9);
    }

    #[test]
    fn component_shift_changes_f0_through_design() {
        let p = BiquadParams::paper_default();
        // +21 % on C2 gives roughly -9.1 % on f0 (1/sqrt(1.21) = 1/1.1).
        let faulty = Fault::ComponentShiftPct(ComponentRef::C2, 21.0)
            .apply_to_params(&p)
            .unwrap();
        let dev = faulty.f0_deviation_pct(&p);
        assert!((dev + 9.1).abs() < 0.5, "deviation {dev}");
    }

    #[test]
    fn f0_fault_on_design_matches_direct_parametric_fault() {
        let p = BiquadParams::paper_default();
        let design = TowThomasDesign::from_params(&p).unwrap();
        let faulty_design = Fault::F0ShiftPct(10.0).apply_to_design(&design);
        let eff = faulty_design.effective_params().unwrap();
        assert!((eff.f0_deviation_pct(&p) - 10.0).abs() < 1e-6);
        // Q and gain are untouched by a pure f0 shift.
        assert!((eff.q - p.q).abs() < 1e-9);
        assert!((eff.gain - p.gain).abs() < 1e-9);
    }

    #[test]
    fn open_resistor_is_catastrophic() {
        let p = BiquadParams::paper_default();
        let faulty = Fault::Open(ComponentRef::R1).apply_to_params(&p).unwrap();
        // An open input resistor kills the gain by six orders of magnitude.
        assert!(faulty.gain < 1e-5, "gain {}", faulty.gain);
    }

    #[test]
    fn short_capacitor_wrecks_f0() {
        let p = BiquadParams::paper_default();
        let faulty = Fault::Short(ComponentRef::C1).apply_to_params(&p).unwrap();
        assert!(faulty.f0_deviation_pct(&p).abs() > 90.0);
    }

    #[test]
    fn fig8_sweep_covers_minus20_to_plus20() {
        let sweep = fig8_f0_sweep();
        assert_eq!(sweep.len(), 41);
        assert_eq!(sweep[0], Fault::F0ShiftPct(-20.0));
        assert_eq!(sweep[20], Fault::F0ShiftPct(0.0));
        assert_eq!(sweep[40], Fault::F0ShiftPct(20.0));
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(Fault::F0ShiftPct(10.0).to_string(), "f0 +10.0%");
        assert_eq!(Fault::Open(ComponentRef::Rq).to_string(), "RQ open");
        assert_eq!(Fault::ComponentShiftPct(ComponentRef::C1, -5.0).to_string(), "C1 -5.0%");
    }
}
