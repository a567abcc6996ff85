//! Level-1 (square-law) MOSFET model with a simple subthreshold extension.
//!
//! The digital-signature monitor of the paper exploits the quasi-quadratic
//! `I_D(V_GS)` characteristic of MOS transistors in saturation to build
//! nonlinear zone boundaries, so the square-law model is exactly the
//! abstraction level required by the reproduction. The optional subthreshold
//! term reproduces the "distortion of curve 6 for small input voltages ...
//! caused by the subthreshold operation" observation of §III-B.

use crate::error::{Result, SpiceError};

/// Thermal voltage kT/q at room temperature (300 K), in volts.
pub const THERMAL_VOLTAGE: f64 = 0.02585;

/// Channel polarity of a MOSFET.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MosPolarity {
    /// n-channel device.
    Nmos,
    /// p-channel device.
    Pmos,
}

impl std::fmt::Display for MosPolarity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MosPolarity::Nmos => write!(f, "nmos"),
            MosPolarity::Pmos => write!(f, "pmos"),
        }
    }
}

/// Parameters of the level-1 MOSFET model.
///
/// Nominal values approximate a 65 nm general-purpose process at the
/// abstraction level needed for boundary-curve generation; they are not a
/// foundry model (see DESIGN.md §2 for the substitution rationale).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosParams {
    /// Channel polarity.
    pub polarity: MosPolarity,
    /// Drawn channel width in meters.
    pub width: f64,
    /// Drawn channel length in meters.
    pub length: f64,
    /// Zero-bias threshold voltage magnitude in volts.
    pub vth0: f64,
    /// Process transconductance `kp = mu * Cox` in A/V².
    pub kp: f64,
    /// Channel-length modulation coefficient in 1/V.
    pub lambda: f64,
    /// Subthreshold slope factor (typically 1.2–1.6). Set to 0 to disable
    /// the subthreshold current entirely.
    pub subthreshold_n: f64,
}

impl MosParams {
    /// Nominal NMOS parameters used by the monitor reproduction.
    ///
    /// The threshold voltage (0.25 V) is a low-Vt 65 nm value chosen so that
    /// the Table I bias levels (0.2–0.75 V) place the monitor boundary curves
    /// across the `[0, 1] V` observation window as in Fig. 4 of the paper.
    pub fn nmos_65nm(width: f64, length: f64) -> Self {
        MosParams {
            polarity: MosPolarity::Nmos,
            width,
            length,
            vth0: 0.25,
            kp: 350e-6,
            lambda: 0.06,
            subthreshold_n: 1.4,
        }
    }

    /// Nominal PMOS parameters used by the monitor reproduction.
    pub fn pmos_65nm(width: f64, length: f64) -> Self {
        MosParams {
            polarity: MosPolarity::Pmos,
            width,
            length,
            vth0: 0.32,
            kp: 160e-6,
            lambda: 0.08,
            subthreshold_n: 1.4,
        }
    }

    /// Aspect ratio `W / L`.
    pub fn aspect_ratio(&self) -> f64 {
        self.width / self.length
    }

    /// `beta = kp * W / L`, the square-law gain factor in A/V².
    pub fn beta(&self) -> f64 {
        self.kp * self.aspect_ratio()
    }

    /// Validates the geometric and electrical parameters.
    ///
    /// # Errors
    /// Returns [`SpiceError::InvalidParameter`] when W, L or kp are not
    /// strictly positive, or when the threshold voltage is not finite.
    pub fn validate(&self) -> Result<()> {
        if !(self.width > 0.0) || !(self.length > 0.0) {
            return Err(SpiceError::InvalidParameter {
                what: "mosfet geometry".into(),
                message: format!("W and L must be positive (got W={}, L={})", self.width, self.length),
            });
        }
        if !(self.kp > 0.0) {
            return Err(SpiceError::InvalidParameter {
                what: "mosfet kp".into(),
                message: "process transconductance must be positive".into(),
            });
        }
        if !self.vth0.is_finite() {
            return Err(SpiceError::InvalidParameter {
                what: "mosfet vth0".into(),
                message: "threshold voltage must be finite".into(),
            });
        }
        Ok(())
    }

    /// Returns a copy with the given width (meters).
    pub fn with_width(mut self, width: f64) -> Self {
        self.width = width;
        self
    }

    /// Returns a copy with the given threshold voltage (volts).
    pub fn with_vth0(mut self, vth0: f64) -> Self {
        self.vth0 = vth0;
        self
    }

    /// Returns a copy with the given process transconductance (A/V²).
    pub fn with_kp(mut self, kp: f64) -> Self {
        self.kp = kp;
        self
    }

    /// Whether `other` has the same drive model: bit-identical threshold
    /// voltage, channel-length modulation and subthreshold slope factor. Two
    /// such transistors get the same [`GateDrive`] at every gate voltage.
    pub fn shares_drive_with(&self, other: &MosParams) -> bool {
        self.vth0.to_bits() == other.vth0.to_bits()
            && self.lambda.to_bits() == other.lambda.to_bits()
            && self.subthreshold_n.to_bits() == other.subthreshold_n.to_bits()
    }
}

/// Operating region of the evaluated transistor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MosRegion {
    /// `V_GS` below threshold: only the subthreshold term conducts.
    Cutoff,
    /// `V_DS < V_GS - V_TH`: ohmic / triode region.
    Triode,
    /// `V_DS >= V_GS - V_TH`: saturation (square law).
    Saturation,
}

/// Result of evaluating the large-signal model at a bias point.
///
/// All quantities use the *terminal* convention required by MNA stamping:
/// [`MosEval::id`] is the signed current flowing **into the drain terminal**
/// (positive for a conducting NMOS with `vd > vs`, negative for a conducting
/// PMOS with `vs > vd`), and the conductances are the partial derivatives of
/// that terminal current with respect to the gate and drain voltages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosEval {
    /// Signed current into the drain terminal, amperes.
    pub id: f64,
    /// `dId/dVg` in siemens.
    pub gm: f64,
    /// `dId/dVd` in siemens.
    pub gds: f64,
    /// Operating region.
    pub region: MosRegion,
}

/// Evaluates the level-1 model for an **n-channel-oriented** bias pair
/// (`vgs`, `vds`), both non-negative for forward operation.
///
/// The function is continuous in both arguments; the subthreshold term is
/// clamped so that it matches the strong-inversion branch at `V_GS = V_TH`.
fn eval_forward(params: &MosParams, vgs: f64, vds: f64) -> MosEval {
    let beta = params.beta();
    let vth = params.vth0;
    let vov = vgs - vth;
    let n = params.subthreshold_n;

    // Subthreshold contribution (0 when disabled). The exponential is clamped
    // at V_GS = V_TH so that the total current is continuous there.
    let (isub, gm_sub, gds_sub) = if n > 0.0 {
        let i0 = beta * (n - 1.0) * THERMAL_VOLTAGE * THERMAL_VOLTAGE;
        let x = (vov / (n * THERMAL_VOLTAGE)).min(0.0);
        let expx = x.exp();
        let dfac = 1.0 - (-vds / THERMAL_VOLTAGE).exp();
        let isub = i0 * expx * dfac;
        let gm = if vov < 0.0 { isub / (n * THERMAL_VOLTAGE) } else { 0.0 };
        let gds = i0 * expx * (-vds / THERMAL_VOLTAGE).exp() / THERMAL_VOLTAGE;
        (isub, gm, gds)
    } else {
        (0.0, 0.0, 0.0)
    };

    if vov <= 0.0 {
        return MosEval {
            id: isub,
            gm: gm_sub,
            gds: gds_sub,
            region: MosRegion::Cutoff,
        };
    }

    let clm = 1.0 + params.lambda * vds;
    if vds < vov {
        // Triode region.
        let id = beta * (vov * vds - 0.5 * vds * vds) * clm + isub;
        let gm = beta * vds * clm + gm_sub;
        let gds = beta * (vov - vds) * clm + beta * (vov * vds - 0.5 * vds * vds) * params.lambda + gds_sub;
        MosEval {
            id,
            gm,
            gds,
            region: MosRegion::Triode,
        }
    } else {
        // Saturation region.
        let id = 0.5 * beta * vov * vov * clm + isub;
        let gm = beta * vov * clm + gm_sub;
        let gds = 0.5 * beta * vov * vov * params.lambda + gds_sub;
        MosEval {
            id,
            gm,
            gds,
            region: MosRegion::Saturation,
        }
    }
}

/// Evaluates the drain-terminal current and its small-signal derivatives for
/// terminal voltages expressed with respect to an arbitrary reference.
///
/// `vg`, `vd`, `vs` are the gate, drain and source node voltages. The
/// returned [`MosEval::id`] is the signed current flowing **into the drain
/// terminal** (and out of the source terminal): positive for a conducting
/// NMOS with `vd > vs`, negative for a conducting PMOS with `vs > vd`, and
/// sign-reversed when the intrinsic device operates with drain and source
/// exchanged. The derivatives [`MosEval::gm`] = `dId/dVg` and
/// [`MosEval::gds`] = `dId/dVd` are consistent with that signed current, so
/// that `dId/dVs = -(gm + gds)` always holds (the device current depends only
/// on voltage differences).
pub fn evaluate(params: &MosParams, vg: f64, vd: f64, vs: f64) -> MosEval {
    match params.polarity {
        MosPolarity::Nmos => {
            if vd >= vs {
                let fwd = eval_forward(params, vg - vs, vd - vs);
                MosEval {
                    id: fwd.id,
                    gm: fwd.gm,
                    gds: fwd.gds,
                    region: fwd.region,
                }
            } else {
                // Drain and source exchange roles; Id(vg, vd, vs) = -I_fwd(vg - vd, vs - vd).
                let fwd = eval_forward(params, vg - vd, vs - vd);
                MosEval {
                    id: -fwd.id,
                    gm: -fwd.gm,
                    gds: fwd.gm + fwd.gds,
                    region: fwd.region,
                }
            }
        }
        MosPolarity::Pmos => {
            if vs >= vd {
                // Forward PMOS: current flows source -> drain, so the
                // drain-terminal current is negative.
                let fwd = eval_forward(params, vs - vg, vs - vd);
                MosEval {
                    id: -fwd.id,
                    gm: fwd.gm,
                    gds: fwd.gds,
                    region: fwd.region,
                }
            } else {
                // Reversed PMOS: Id(vg, vd, vs) = +I_fwd(vd - vg, vd - vs).
                let fwd = eval_forward(params, vd - vg, vd - vs);
                MosEval {
                    id: fwd.id,
                    gm: -fwd.gm,
                    gds: fwd.gm + fwd.gds,
                    region: fwd.region,
                }
            }
        }
    }
}

/// Saturation-region drain current for a source-grounded device with the gate
/// driven at `vgs` (volts). This is the quantity added on each branch of the
/// current-comparator monitor in the paper (Fig. 2).
///
/// The drain is tied high enough to stay in saturation; channel-length
/// modulation is irrelevant for the current *comparison*, so it is evaluated
/// at the overdrive voltage itself. The current is the composition of its
/// width-independent [`GateDrive`] and its per-transistor [`GateGain`], and
/// equals the large-signal model's drain current at that bias bit for bit.
#[inline]
pub fn saturation_current(params: &MosParams, vgs: f64) -> f64 {
    GateGain::new(params).current(&GateDrive::at(params, vgs))
}

/// The part of [`saturation_current`] that does not depend on the
/// transistor's size: the overdrive, the channel-length modulation factor
/// and both subthreshold exponentials at one gate voltage.
///
/// It is a function of `vth0`, `lambda`, `subthreshold_n` and the gate
/// voltage only, so transistors that [`MosParams::shares_drive_with`] each
/// other share it, and one drive per gate voltage serves all of them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateDrive {
    /// Overdrive `vgs − vth0`; the device is cut off when it is `<= 0`.
    vov: f64,
    /// Channel-length modulation factor `1 + lambda · vds`.
    clm: f64,
    /// Subthreshold exponential `exp(min(vov / (n V_T), 0))`, 0 when the
    /// subthreshold term is disabled.
    expx: f64,
    /// Drain factor `1 − exp(−vds / V_T)`, 0 when the subthreshold term is
    /// disabled.
    dfac: f64,
}

impl GateDrive {
    /// The drive of `params`' model at gate voltage `vgs`, with the drain
    /// biased as [`saturation_current`] biases it. Computes the operands of
    /// the large-signal model's saturation branch with the same operations.
    #[inline]
    pub fn at(params: &MosParams, vgs: f64) -> Self {
        let vov = vgs - params.vth0;
        let vds = vov.max(0.0).max(THERMAL_VOLTAGE);
        let n = params.subthreshold_n;
        let (expx, dfac) = if n > 0.0 {
            let x = (vov / (n * THERMAL_VOLTAGE)).min(0.0);
            (x.exp(), 1.0 - (-vds / THERMAL_VOLTAGE).exp())
        } else {
            (0.0, 0.0)
        };
        GateDrive {
            vov,
            clm: 1.0 + params.lambda * vds,
            expx,
            dfac,
        }
    }
}

/// The per-transistor part of [`saturation_current`]: the square-law gain
/// `beta / 2` and the subthreshold prefactor `beta (n − 1) V_T²`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateGain {
    half_beta: f64,
    /// 0 when the subthreshold term is disabled.
    i0: f64,
}

impl GateGain {
    /// The gain of one transistor.
    #[inline]
    pub fn new(params: &MosParams) -> Self {
        let beta = params.beta();
        let n = params.subthreshold_n;
        GateGain {
            half_beta: 0.5 * beta,
            i0: if n > 0.0 {
                beta * (n - 1.0) * THERMAL_VOLTAGE * THERMAL_VOLTAGE
            } else {
                0.0
            },
        }
    }

    /// The saturation current of this transistor under `drive`, which must
    /// come from a model it shares its drive with. The products run in the
    /// large-signal model's order (`0.5 · beta · vov · vov · clm` starts with
    /// `beta / 2`, the subthreshold current is `(i0 · expx) · dfac`), so the
    /// result is the `f64` [`saturation_current`] returns for this transistor
    /// at the drive's gate voltage.
    #[inline]
    pub fn current(&self, drive: &GateDrive) -> f64 {
        let isub = self.i0 * drive.expx * drive.dfac;
        if drive.vov <= 0.0 {
            isub
        } else {
            self.half_beta * drive.vov * drive.vov * drive.clm + isub
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nmos() -> MosParams {
        MosParams::nmos_65nm(1.8e-6, 180e-9)
    }

    #[test]
    fn cutoff_current_is_tiny() {
        let ev = evaluate(&nmos(), 0.1, 1.0, 0.0);
        assert_eq!(ev.region, MosRegion::Cutoff);
        assert!(
            ev.id < 1e-6,
            "subthreshold current should be below a microampere, got {}",
            ev.id
        );
        assert!(ev.id >= 0.0);
    }

    #[test]
    fn saturation_follows_square_law() {
        let p = nmos();
        let a = evaluate(&p, p.vth0 + 0.2, 1.2, 0.0).id;
        let b = evaluate(&p, p.vth0 + 0.4, 1.2, 0.0).id;
        // Doubling the overdrive roughly quadruples the current (within CLM
        // and subthreshold floor tolerances).
        let ratio = b / a;
        assert!((ratio - 4.0).abs() < 0.35, "ratio {ratio}");
    }

    #[test]
    fn triode_region_detected() {
        let p = nmos();
        let ev = evaluate(&p, 1.0, 0.05, 0.0);
        assert_eq!(ev.region, MosRegion::Triode);
        assert!(ev.id > 0.0);
        assert!(ev.gds > ev.gm * 0.01);
    }

    #[test]
    fn current_is_continuous_at_threshold() {
        let p = nmos();
        let below = evaluate(&p, p.vth0 - 1e-6, 1.0, 0.0).id;
        let above = evaluate(&p, p.vth0 + 1e-6, 1.0, 0.0).id;
        assert!((below - above).abs() < 1e-8, "jump at threshold: {below} vs {above}");
    }

    #[test]
    fn current_is_continuous_at_saturation_edge() {
        let p = nmos();
        let vgs = p.vth0 + 0.3;
        let vov = 0.3;
        let a = evaluate(&p, vgs, vov - 1e-7, 0.0).id;
        let b = evaluate(&p, vgs, vov + 1e-7, 0.0).id;
        assert!((a - b).abs() / b < 1e-4);
    }

    #[test]
    fn reversed_device_flips_current_sign() {
        let p = nmos();
        let fwd = evaluate(&p, 1.0, 0.8, 0.0);
        let rev = evaluate(&p, 1.0, 0.0, 0.8);
        assert!(fwd.id > 0.0);
        assert!(rev.id < 0.0);
        assert!((fwd.id + rev.id).abs() < 1e-12);
    }

    #[test]
    fn pmos_conducts_with_low_gate() {
        let p = MosParams::pmos_65nm(1.8e-6, 180e-9);
        // Source at VDD = 1.2 V, gate at 0 V, drain at 0.6 V: strongly on.
        // Current flows source -> drain, so the drain-terminal current is negative.
        let ev = evaluate(&p, 0.0, 0.6, 1.2);
        assert!(ev.id < -1e-5, "pmos should conduct, got {}", ev.id);
        // Gate at VDD: off.
        let off = evaluate(&p, 1.2, 0.6, 1.2);
        assert!(off.id.abs() < 1e-6);
    }

    #[test]
    fn pmos_gm_and_gds_match_numeric_derivatives() {
        let p = MosParams::pmos_65nm(1.8e-6, 180e-9);
        let (vg, vd, vs) = (0.3, 0.6, 1.2);
        let h = 1e-6;
        let ev = evaluate(&p, vg, vd, vs);
        let gm_num = (evaluate(&p, vg + h, vd, vs).id - evaluate(&p, vg - h, vd, vs).id) / (2.0 * h);
        let gds_num = (evaluate(&p, vg, vd + h, vs).id - evaluate(&p, vg, vd - h, vs).id) / (2.0 * h);
        assert!(
            (ev.gm - gm_num).abs() / gm_num.abs().max(1e-12) < 1e-3,
            "gm {} vs {}",
            ev.gm,
            gm_num
        );
        assert!(
            (ev.gds - gds_num).abs() / gds_num.abs().max(1e-12) < 1e-3,
            "gds {} vs {}",
            ev.gds,
            gds_num
        );
    }

    #[test]
    fn reversed_nmos_derivatives_match_numeric() {
        let p = nmos();
        // Drain below source: the intrinsic device is reversed.
        let (vg, vd, vs) = (0.9, 0.2, 0.8);
        let h = 1e-6;
        let ev = evaluate(&p, vg, vd, vs);
        assert!(ev.id < 0.0);
        let gm_num = (evaluate(&p, vg + h, vd, vs).id - evaluate(&p, vg - h, vd, vs).id) / (2.0 * h);
        let gds_num = (evaluate(&p, vg, vd + h, vs).id - evaluate(&p, vg, vd - h, vs).id) / (2.0 * h);
        let gs_num = (evaluate(&p, vg, vd, vs + h).id - evaluate(&p, vg, vd, vs - h).id) / (2.0 * h);
        assert!(
            (ev.gm - gm_num).abs() / gm_num.abs().max(1e-9) < 1e-3,
            "gm {} vs {}",
            ev.gm,
            gm_num
        );
        assert!(
            (ev.gds - gds_num).abs() / gds_num.abs().max(1e-9) < 1e-3,
            "gds {} vs {}",
            ev.gds,
            gds_num
        );
        // The source derivative is implied: dId/dVs = -(gm + gds).
        assert!((-(ev.gm + ev.gds) - gs_num).abs() / gs_num.abs().max(1e-9) < 1e-3);
    }

    #[test]
    fn gm_matches_numeric_derivative() {
        let p = nmos();
        let vgs = 0.7;
        let vds = 1.0;
        let h = 1e-6;
        let ev = evaluate(&p, vgs, vds, 0.0);
        let up = evaluate(&p, vgs + h, vds, 0.0).id;
        let dn = evaluate(&p, vgs - h, vds, 0.0).id;
        let numeric = (up - dn) / (2.0 * h);
        assert!((ev.gm - numeric).abs() / numeric.abs() < 1e-3);
    }

    #[test]
    fn gds_matches_numeric_derivative() {
        let p = nmos();
        let vgs = 0.7;
        let vds = 0.15; // triode
        let h = 1e-7;
        let ev = evaluate(&p, vgs, vds, 0.0);
        let up = evaluate(&p, vgs, vds + h, 0.0).id;
        let dn = evaluate(&p, vgs, vds - h, 0.0).id;
        let numeric = (up - dn) / (2.0 * h);
        assert!(
            (ev.gds - numeric).abs() / numeric.abs() < 1e-3,
            "gds {} vs numeric {}",
            ev.gds,
            numeric
        );
    }

    #[test]
    fn saturation_current_monotone_in_vgs() {
        let p = nmos();
        let mut last = -1.0;
        for i in 0..=20 {
            let vgs = i as f64 * 0.05;
            let id = saturation_current(&p, vgs);
            assert!(id >= last, "current must be monotone in vgs");
            last = id;
        }
    }

    #[test]
    fn wider_device_carries_more_current() {
        let narrow = MosParams::nmos_65nm(0.6e-6, 180e-9);
        let wide = MosParams::nmos_65nm(3.0e-6, 180e-9);
        let i_narrow = saturation_current(&narrow, 0.8);
        let i_wide = saturation_current(&wide, 0.8);
        assert!(
            (i_wide / i_narrow - 5.0).abs() < 0.1,
            "5x width should give ~5x current"
        );
    }

    /// A random transistor: either polarity, any size and gain, and drive
    /// parameters drawn from the awkward corners of the model — a disabled
    /// (n ≤ 0 or NaN), falling (0 < n < 1) or rising (n ≥ 1) subthreshold
    /// term, negative, zero and huge channel-length modulation.
    fn random_params(rng: &mut impl rand::Rng) -> MosParams {
        let lambdas = [0.0, 0.06, -2.0, 1e3, -0.0, rng.gen_range(-1.0..1.0)];
        let slopes = [
            0.0,
            0.5,
            1.0,
            1.4,
            2.0,
            -1.0,
            f64::NAN,
            rng.gen_range(0.01..1.0),
            rng.gen_range(1.0..3.0),
        ];
        MosParams {
            polarity: if rng.gen::<bool>() {
                MosPolarity::Nmos
            } else {
                MosPolarity::Pmos
            },
            width: 10f64.powf(rng.gen_range(-8.0..-4.0)),
            length: 10f64.powf(rng.gen_range(-8.0..-5.0)),
            vth0: rng.gen_range(-0.5..1.0),
            kp: 10f64.powf(rng.gen_range(-6.0..-2.0)),
            lambda: lambdas[rng.gen_range(0..lambdas.len())],
            subthreshold_n: slopes[rng.gen_range(0..slopes.len())],
        }
    }

    /// A random gate voltage: any bit pattern (NaN payloads, infinities,
    /// subnormals, huge values), a special value, or one inside the window.
    fn random_vgs(rng: &mut impl rand::Rng) -> f64 {
        match rng.gen_range(0u32..4) {
            0 => f64::from_bits(rng.gen::<u64>()),
            1 => [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, 5e-324, -5e-324][rng.gen_range(0..7usize)],
            2 => f64::from_bits(rng.gen_range(0u64..1 << 52)),
            _ => rng.gen_range(-0.5..1.5),
        }
    }

    #[test]
    fn saturation_current_is_the_large_signal_drain_current_bit_for_bit() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5A7);
        for _ in 0..200_000 {
            let p = random_params(&mut rng);
            let v = random_vgs(&mut rng);
            let vds = (v - p.vth0).max(0.0).max(THERMAL_VOLTAGE);
            let expected = eval_forward(&p, v, vds).id;
            assert_eq!(
                saturation_current(&p, v).to_bits(),
                expected.to_bits(),
                "{p:?} at vgs {v:e}: expected {expected:e}"
            );
        }
    }

    #[test]
    fn a_shared_drive_gives_each_transistor_its_own_saturation_current() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xD21E);
        for _ in 0..200_000 {
            let p = random_params(&mut rng);
            // Another transistor of the same drive model: only size, gain
            // and polarity differ.
            let q = MosParams {
                vth0: p.vth0,
                lambda: p.lambda,
                subthreshold_n: p.subthreshold_n,
                ..random_params(&mut rng)
            };
            assert!(p.shares_drive_with(&q) && q.shares_drive_with(&p));
            let v = random_vgs(&mut rng);
            assert_eq!(
                GateGain::new(&p).current(&GateDrive::at(&q, v)).to_bits(),
                saturation_current(&p, v).to_bits(),
                "{p:?} through {q:?} at vgs {v:e}"
            );
        }
    }

    #[test]
    fn drive_models_differ_in_any_drive_parameter_bit() {
        let p = nmos();
        assert!(p.shares_drive_with(&p.with_width(9e-6).with_kp(1e-3)));
        assert!(!p.shares_drive_with(&p.with_vth0(p.vth0.next_up())));
        assert!(!p.shares_drive_with(&MosParams { lambda: 0.07, ..p }));
        assert!(!p.shares_drive_with(&MosParams {
            subthreshold_n: 0.0,
            ..p
        }));
        let zero = MosParams { lambda: 0.0, ..p };
        assert!(!zero.shares_drive_with(&MosParams { lambda: -0.0, ..p }));
        let nan = MosParams {
            subthreshold_n: f64::NAN,
            ..p
        };
        assert!(
            nan.shares_drive_with(&nan),
            "bitwise, so a NaN model shares with itself"
        );
    }

    #[test]
    fn validate_rejects_bad_geometry() {
        let mut p = nmos();
        p.width = 0.0;
        assert!(p.validate().is_err());
        let mut p = nmos();
        p.kp = -1.0;
        assert!(p.validate().is_err());
        assert!(nmos().validate().is_ok());
    }

    #[test]
    fn builders_update_fields() {
        let p = nmos().with_width(2e-6).with_vth0(0.4).with_kp(400e-6);
        assert_eq!(p.width, 2e-6);
        assert_eq!(p.vth0, 0.4);
        assert_eq!(p.kp, 400e-6);
        assert!((p.aspect_ratio() - 2e-6 / 180e-9).abs() < 1e-6);
    }
}
