//! Shared-stimulus batched signature capture — the population-scale fast path.
//!
//! Every device observed through one [`TestSetup`] sees the *same* input
//! samples: the synthesized stimulus, its noiseless band-limited observed
//! form, the gate drives of every X-driven and the currents of every
//! DC-driven monitor input transistor depend only on the setup, never on the
//! device under test. The per-device path ([`TestSetup::signature_of`])
//! recomputes all of that for every device.
//!
//! This module computes the shared work once per setup fingerprint and
//! evaluates device responses against it in batches:
//!
//! * [`StimulusBank`] — a bounded, LRU-evicting cache of [`SharedStimulus`]
//!   entries, keyed exactly by [`stimulus_key`] (no lossy hashing);
//! * [`SharedStimulus`] — the cached per-setup artifacts: raw stimulus,
//!   noiseless observed stimulus, the monitor bank's slot table with the
//!   gate-drive streams of its X drive models on that stimulus, per-sample
//!   Y thresholds, the stimulus tones on the sample grid and, built on the
//!   first noisy capture, the flip-curve tables on an x grid;
//! * [`capture_signatures_batch`] — evaluates N device responses (or N
//!   retest repeats, one entry per repeat seed) against the shared stimulus
//!   with scratch buffers reused across the whole batch — no per-device
//!   allocation beyond the returned signatures.
//!
//! # Bit-identity contract
//!
//! The fast path reuses the *exact* `f64` values the per-device path
//! computes:
//!
//! * **Transistor currents.** [`xy_monitor::saturation_current`] is the
//!   composition of two parts. A [`GateDrive`](xy_monitor::GateDrive) holds
//!   the overdrive, the channel-length modulation factor and both
//!   subthreshold exponentials; it depends only on the gate voltage and the
//!   transistor's *drive model*: `vth0`, `lambda` and `subthreshold_n`,
//!   compared bit for bit by [`MosParams::shares_drive_with`]. A
//!   [`GateGain`](xy_monitor::GateGain) holds `beta / 2` and the
//!   subthreshold prefactor, from `kp`, `W` and `L`. Exact encoding
//!   computes one drive per sample for each distinct drive model, on x and
//!   on y, and each monitor input applies its own gain to it: the same
//!   operations on the same operands in the same order as
//!   `saturation_current`, so the same current. DC-driven inputs cost one
//!   `saturation_current` call per setup.
//! * **Branch sums.** Branch currents are added in the same slot order as
//!   [`CurrentComparator::current_difference`].
//! * **Run-length encoding** goes through the same
//!   [`signature_from_codes`](crate::capture::signature_from_codes) helper,
//!   which counts samples and rounds each count to clock ticks, and
//!   deglitching through the same count threshold.
//!
//! Batched capture and [`TestSetup::signatures_of_repeats`] are therefore
//! bit-identical to [`TestSetup::signature_of`] at every batch size; the
//! workspace determinism and equivalence tests enforce this. Batched
//! capture also computes y and the noise differently and decides most bits
//! without transistor currents, but provably lands every sample in the same
//! zones (see the last two sections). On the exact path, for Table I, whose
//! transistors differ only in width, a noisy sample costs two drive
//! evaluations (one on x, one on y) and twelve short multiply-add chains
//! instead of twelve `saturation_current` calls.
//!
//! # Boundary-threshold zone encoding
//!
//! A monitor's output is which side of its boundary curve the `(x, y)`
//! point lies on. When x is the shared noiseless stimulus, that side is a
//! step function of y at each sample, so noiseless capture does not need
//! transistor currents for it.
//!
//! * **The contract.** For every monitor with exactly one Y-driven input,
//!   [`SharedStimulus::new`] tabulates per sample the `f64` value of y at
//!   which the bit flips, found by an exact search in `f64` total order
//!   against the same slot expression exact encoding evaluates. Noiseless
//!   batched capture then decides the bit with two compares: y below `lo`
//!   or above `hi`, the flip point minus and plus a guard band of
//!   `GUARD_ULPS` ulps. It evaluates the slot expression only inside the
//!   band or for a non-finite y.
//! * **Why it is exact.** With x shared, the bit at sample k is
//!   `(fl(fl(s + c) − R) > 0) ^ inverted` for a Y input on the left branch
//!   (`fl(L − fl(s + c))` on the right), where s is the Y-gate current and
//!   c, R and L are fixed per monitor and sample. Round-to-nearest `+` and
//!   `−` are monotone, so the bit is a step function of s whose direction
//!   follows the branch and `inverted`. The level-1 model makes s
//!   non-decreasing in finite y except possibly through libm `exp`
//!   rounding, which can only matter within a few ulps of the flip point:
//!   the guard band evaluates that region exactly.
//! * **The fallbacks.** Exact evaluation remains for monitors with zero or
//!   several Y inputs and for a Y-gate transistor model whose current is
//!   not provably non-decreasing (negative channel-length modulation, a
//!   slope factor in `(0, 1)`). Noisy setups, where x differs per device,
//!   use the flip-curve tables of the last section instead. The per-device
//!   [`TestSetup::signature_of`] / [`xy_monitor::ZonePartition::zone_code`]
//!   path never uses either table and stays the audit reference.
//! * **The cost.** The table is two `f64` per monitor and sample, built by
//!   false position on the branch-current difference, warm-started from the
//!   neighbouring samples' flip points, then an exact key-order search from
//!   that estimate: a few evaluations per monitor and sample, once per
//!   [`StimulusBank`] miss.
//!
//! # Certified response synthesis
//!
//! The response y reaches the signature only through the zone bits, so a
//! cheaper y that provably gets every bit the exact y would get gives the
//! same signature. Noiseless batched capture computes such a y when every
//! monitor has a threshold table; otherwise every device takes the exact
//! path, today's
//! [`steady_state_response_into`](BiquadParams::steady_state_response_into)
//! then the front-end filter, which stays the reference.
//!
//! * **The synthesis.** [`SharedStimulus::new`] tabulates the sine and
//!   cosine of every tone's angle `fl(ω·t_k)` on the sample grid, formed as
//!   the reference forms it ([`ToneGrid`], about 19 KB at 2 MS/s). Per
//!   device, [`BiquadParams::steady_state_response_on_grid`] expands each
//!   tone `a·sin(θ + p)` as `(a·cos p)·sin θ + (a·sin p)·cos θ`: two
//!   multiply-adds per tone and sample instead of one libm `sin`.
//! * **The bound.** The synthesis returns E with `|y − y_ref| ≤ E` at every
//!   sample, assuming only that libm `sin` and `cos` are within one ulp.
//!   Its terms are the reference's rounding of `θ + p` (`u·|a|·(Θ + |p|)`,
//!   the term that grows with the harmonic index), both paths' libm and
//!   product rounding (`16u·|a|` per tone), both sums' rounding and
//!   underflow; the derivation is in its docs. [`lowpass_gap_bound`]
//!   carries E through the front-end filter. The filter's update is a
//!   convex combination of state and input, so the gap between two exact
//!   filters never grows, and each computed filter adds only its own
//!   rounding, about `u·max|y|/α` for smoothing factor α. Devices go two
//!   at a time: their responses pass the filter in one loop
//!   ([`lowpass_lanes_in_place`]), whose lanes each run the reference's
//!   recurrence, so each response is filtered bit for bit as alone. An odd
//!   batch ends with one device.
//! * **The no-bound rule.** The filter's bound needs the stream's peak
//!   magnitude, taken as an eight-lane maximum, which is exact and
//!   order-free. No bound holds, and the device goes exact, when some sample
//!   is not finite or a sum of the `n` magnitudes could overflow: the rule
//!   refuses unless `2·n·peak` is finite, above any rounded running sum of
//!   `n` magnitudes at most `peak`.
//! * **The decision.** Each bit is decided against its threshold band
//!   widened by the carried bound E': above when `fl(y − hi) > E'`, below
//!   when `fl(lo − y) > E'`. Rounding is monotone, so these hold only when
//!   `y − hi > E'` (or `lo − y > E'`) exactly; every y' within E' of y is
//!   then outside the band on the same side, where the table decides y'
//!   as the exact slot expression does.
//! * **The fallback.** If E' is not finite, some sample is not finite, or
//!   any sample of any monitor lies inside its widened band, the device is
//!   recaptured on the exact path, and
//!   [`SharedStimulus::exact_syntheses`] counts it. At 2 MS/s, E' is about
//!   5e-15 V for Table I devices, dozens of ulps at 0.5 V, and a lot of
//!   2,048 Monte-Carlo devices recaptures none.
//! * **What does not change.** [`TestSetup::signature_of`],
//!   [`TestSetup::observe`] and [`TestSetup::signatures_of_repeats`] use
//!   only the reference synthesis and the reference noise
//!   ([`NoiseModel::apply_in_place`](sim_signal::NoiseModel::apply_in_place)),
//!   and no option chooses the path.
//!
//! # Certified noisy capture
//!
//! A noisy device's x is the shared stimulus plus its own noise, so the
//! per-sample thresholds above do not apply. Noisy batched capture decides
//! its bits against each monitor's boundary curve y\*(x) instead — the
//! curves of the paper's Figs. 4 and 6 — tabulated once per setup on an x
//! grid, and synthesizes y on the tone grid as noiseless capture does.
//!
//! * **Which monitors.** A monitor gets a flip curve when its bit is a step
//!   in y (exactly one Y-driven input, whose model `rises_with_gate`) and
//!   monotone in x: its X-driven inputs, if any, all sit on one branch and
//!   each `rises_with_gate`. With X on the other branch than Y, y\* rises
//!   with x (Table I curves 1, 2 and 6); on the same branch it falls
//!   (curves 3 to 5). All six Table I monitors qualify. The tables are
//!   built only when every monitor qualifies, as the certified synthesis
//!   needs a threshold table for every monitor.
//! * **The table.** The x grid spans the noiseless observed x range plus
//!   50 mV on each side, in up to 2,048 cells. Each cell is a row that
//!   holds every monitor's `lo` and `hi` in lanes, in blocks of eight,
//!   padded with lanes that decide nothing. The cell count is counted over
//!   the padded width: for Table I, 2,048 rows of 128 bytes, 256 KiB, plus
//!   one sentinel row whose lanes all decide nothing. The exact flip point
//!   at every grid point is found by the same search as the per-sample
//!   thresholds, warm started from its neighbours. A cell's band is the
//!   hull of the flip points at four grid points, from one below the cell
//!   to one above it, widened by `GUARD_ULPS`. The table is built on the
//!   first noisy capture of a [`SharedStimulus`] (about 3 ms for Table I),
//!   so noiseless workloads never pay for it.
//! * **Why every x in a cell has its flip point in the band.** Take a
//!   finite x in cell `c`, which spans `[g_(c+1), g_(c+2)]`; the band
//!   covers `g_c` to `g_(c+3)`. The grid points and the cell lookup round
//!   by a few ulps of x, far below a step, so x lies nearly a full step
//!   from `g_c` and from `g_(c+3)`. Each X-gate current is computed from
//!   rounded monotone operations of x and libm `exp`; within one ulp,
//!   `exp` can return a smaller value for a larger argument only when the
//!   two arguments are within `4.01u` of each other, which
//!   `exp_reversal` bounds to a gate-voltage span r below a thousandth of a
//!   step (and whose results it keeps normal). So every X-gate current at x
//!   lies between its values at `g_c` and `g_(c+3)`. Rounded addition and
//!   subtraction are monotone, and the X gates sit on one branch, so the
//!   branch-current difference at `(x, y)` lies between its values at
//!   `(g_c, y)` and `(g_(c+3), y)`. A y more than `GUARD_ULPS` above the
//!   band is above the flip point at both grid points, so both differences
//!   give the above-bit, and so does the one between them; the same holds
//!   below. Without the two outer grid points, an x a few ulps from a cell
//!   edge could fall outside both neighbours' currents.
//! * **The noise and its bound.** Both noisy streams draw their noise
//!   through [`NoiseModel::apply_approx_in_place`](sim_signal::NoiseModel::apply_approx_in_place):
//!   the reference's own uniforms, with Box-Muller's `ln` and `cos` as
//!   vectorised polynomials, and a bound δ on each noise value's distance
//!   from the reference's, derived in its docs (about 2e-16 V at the
//!   paper's σ = 5 mV). Each stream gets its own δ.
//! * **The synthesis and its bound.** When every monitor has a flip curve,
//!   y is the tone-grid synthesis with its bound E, plus the device's
//!   approximate y noise. Before the additions the two paths' sums lie
//!   within E + δ, and each addition rounds (`noise_gap_bound`);
//!   [`lowpass_gap_bound`] then carries the gap through the front-end
//!   filter to E'. x is the stimulus plus the approximate x noise through
//!   the same filter, with its own bound Δx from its δ, the same way. x and
//!   y pass the filter in one loop, under the no-bound rule above.
//! * **The decision.** One pass computes every sample's row: the cell of
//!   the computed x, or the sentinel row for an x outside the grid or not
//!   finite. Each sample then reads its row and decides every monitor's bit
//!   and doubt at once, a block of lanes per step. A bit is decided when y
//!   lies more than E' beyond its monitor's band in that row, by the
//!   rounding argument of the per-sample thresholds. The exact x lies
//!   within Δx of the computed x, and Δx is below half a step, so it lies
//!   within a step of that cell, whose band holds its flip point by the
//!   argument above.
//!   A sample the table leaves in doubt (inside the widened band, or x
//!   outside the grid) gets a box check (`threshold::box_check`): a
//!   two-point check in y (the exact slot expression at both ends of
//!   `[y − E', y + E']` moved outward by twice `GUARD_ULPS`;
//!   `threshold::two_point` derives why twice the guard is enough) at both
//!   ends of `[x − Δx − r, x + Δx + r]`, both inside the grid. When all
//!   four agree, every point of the box has their bit: the bit is a step
//!   in y up to dips within the guard, and monotone in x between points r
//!   apart. A Table I device at 2 MS/s has 2.5 such (sample, monitor)
//!   pairs of its 2,400, averaged over 256 devices.
//! * **The fallback.** The device is recaptured on the exact path
//!   (`SlotTable::capture_measurement`, which draws both noise streams
//!   again), and counted by [`SharedStimulus::exact_syntheses`], when the
//!   ends of a box check disagree or leave the grid, E' or Δx is not
//!   finite, Δx is not below half a grid step, or some sample is not
//!   finite. When a monitor has no flip curve, or the noiseless x range is
//!   not finite, every device takes that path. Monte-Carlo Table I lots of
//!   2,048 devices with the paper's noise, at 1, 2 and 5 MS/s with the
//!   front-end filter on and off, recapture none.
//! * **Retest repeats** are batch entries: one [`BatchDevice`] per repeat
//!   seed gives what [`TestSetup::signatures_of_repeats`] gives, through the
//!   same table.
//!
//! # Examples
//!
//! ```
//! use cut_filters::BiquadParams;
//! use dsig_core::{capture_signatures_batch, BatchDevice, StimulusBank, TestSetup};
//!
//! # fn main() -> Result<(), dsig_core::DsigError> {
//! let setup = TestSetup::paper_default()?.with_sample_rate(1e6)?;
//! let bank = StimulusBank::new();
//! // Synthesized once; every later request for the same setup is a hit.
//! let shared = bank.shared_for(&setup)?;
//!
//! let lot: Vec<BatchDevice> = (0..4)
//!     .map(|i| BatchDevice::new(BiquadParams::paper_default().with_f0_shift_pct(i as f64), i))
//!     .collect();
//! let signatures = capture_signatures_batch(&setup, &shared, &lot)?;
//! assert_eq!(signatures.len(), 4);
//! // Bit-identical to the per-device path.
//! assert_eq!(signatures[2], setup.signature_of(&lot[2].cut, lot[2].noise_seed)?);
//! assert_eq!(bank.hits(), 0);
//! assert_eq!(bank.misses(), 1);
//! # Ok(())
//! # }
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use cut_filters::{BiquadParams, ToneGrid};
use sim_signal::{lowpass_gap_bound, lowpass_in_place, lowpass_lanes_in_place, Waveform};
use xy_monitor::{CurrentComparator, MonitorInput, MosParams, MosPolarity, ZonePartition, THERMAL_VOLTAGE};

mod slots;
mod threshold;

use slots::{capture_codes, x_stream, y_stream, DriveStreams};
pub(crate) use slots::{CaptureScratch, SlotTable};
use threshold::{box_check, FlipCurves, XGrid, YThresholds};

use crate::error::{DsigError, Result};
use crate::flow::TestSetup;
use crate::recover;
use crate::signature::Signature;

/// The exact cache key of a [`SharedStimulus`]: every [`TestSetup`] parameter
/// the shared per-setup artifacts depend on, serialized losslessly as 64-bit
/// words. Equal keys *guarantee* interchangeable shared stimuli.
///
/// Deliberately excluded (the shared artifacts do not depend on them, so
/// setups differing only there share one bank entry):
///
/// * the **noise model** — noise is drawn per device at capture time;
/// * the **capture clock** and **transition deglitch dwell** — both apply
///   after zone encoding;
/// * monitor **supply voltage and labels** — the behavioural comparator
///   output depends only on the input transistors and their drive
///   assignment.
pub fn stimulus_key(setup: &TestSetup) -> Vec<u64> {
    let mut key = Vec::with_capacity(128);
    key.push(setup.sample_rate.to_bits());
    match setup.monitor_bandwidth_hz {
        Some(bandwidth) => key.push(bandwidth.to_bits()),
        None => key.push(u64::MAX),
    }
    push_stimulus_words(&mut key, &setup.stimulus);
    key.push(setup.partition.bits() as u64);
    for monitor in setup.partition.monitors() {
        push_monitor_words(&mut key, monitor);
    }
    key
}

/// Appends the lossless word serialization of a multitone stimulus — offset,
/// fundamental, then every tone — to a cache key. Shared by [`stimulus_key`]
/// and the engine's `golden_key` so the two keys can never drift apart on
/// what "the same stimulus" means.
pub fn push_stimulus_words(key: &mut Vec<u64>, stimulus: &sim_signal::MultitoneSpec) {
    key.push(stimulus.offset().to_bits());
    key.push(stimulus.fundamental_hz().to_bits());
    for tone in stimulus.tones() {
        key.push(u64::from(tone.harmonic));
        key.push(tone.amplitude.to_bits());
        key.push(tone.phase_rad.to_bits());
    }
}

/// Appends the behavioural word serialization of one monitor — output
/// polarity, drive assignment, then polarity and electrical parameters of
/// every input transistor — to a cache key. The supply voltage and label are
/// deliberately excluded: the comparator's digital output does not depend on
/// them. Shared by [`stimulus_key`] and the engine's `golden_key`.
pub fn push_monitor_words(key: &mut Vec<u64>, monitor: &xy_monitor::CurrentComparator) {
    key.push(u64::from(monitor.inverted));
    for input in &monitor.inputs {
        match input {
            MonitorInput::XAxis => key.push(0),
            MonitorInput::YAxis => key.push(1),
            MonitorInput::Dc(bias) => {
                key.push(2);
                key.push(bias.to_bits());
            }
        }
    }
    for t in &monitor.transistors {
        key.push(match t.polarity {
            MosPolarity::Nmos => NMOS_WORD,
            MosPolarity::Pmos => PMOS_WORD,
        });
        for v in [t.width, t.length, t.vth0, t.kp, t.lambda, t.subthreshold_n] {
            key.push(v.to_bits());
        }
    }
}

/// The key words of the two transistor polarities: each name's bytes,
/// big-endian, the words every earlier key layout wrote.
const NMOS_WORD: u64 = u64::from_be_bytes(*b"\0\0\0\0Nmos");
const PMOS_WORD: u64 = u64::from_be_bytes(*b"\0\0\0\0Pmos");

/// One device of a batched capture: the CUT parameters and the seed of its
/// measurement-noise realisation (the same seed [`TestSetup::signature_of`]
/// takes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchDevice {
    /// The (possibly deviated or faulty) CUT parameters of this device.
    pub cut: BiquadParams,
    /// Seed of the device's measurement-noise realisation; unused when the
    /// setup is noiseless.
    pub noise_seed: u64,
}

impl BatchDevice {
    /// Creates a batch entry for one device.
    pub fn new(cut: BiquadParams, noise_seed: u64) -> Self {
        BatchDevice { cut, noise_seed }
    }
}

/// Whether [`xy_monitor::saturation_current`] provably never falls as the
/// gate voltage rises, up to libm `exp` rounding ([`threshold::GUARD_ULPS`]):
/// a positive finite gain, non-negative channel-length modulation, and a
/// non-negative subthreshold prefactor (slope factor of at least 1, or the
/// term disabled). A Y gate failing this keeps its monitor on exact
/// evaluation, and so does an X gate on the noisy path.
fn rises_with_gate(t: &MosParams) -> bool {
    let beta = t.beta();
    let n = t.subthreshold_n;
    beta > 0.0
        && beta.is_finite()
        && t.lambda >= 0.0
        && t.lambda.is_finite()
        && t.vth0.is_finite()
        && (!(n > 0.0) || (n >= 1.0 && n.is_finite()))
}

/// The Y-driven slot of a monitor whose bit is a step in y: exactly one
/// Y-driven input, whose model [`rises_with_gate`].
fn y_step_slot(monitor: &CurrentComparator) -> Option<usize> {
    let mut y_slots = (0..4).filter(|&i| monitor.inputs[i] == MonitorInput::YAxis);
    let slot = y_slots.next()?;
    (y_slots.next().is_none() && rises_with_gate(&monitor.transistors[slot])).then_some(slot)
}

/// Whether a monitor's X-driven gates keep its bit monotone in x over
/// `grid`: they all sit on one branch, each [`rises_with_gate`], and each
/// has an [`exp_reversal`] span on the grid. Returns the widest such span,
/// 0 for a monitor without X gates, or `None` when the bit is not monotone.
fn monotone_in_x(monitor: &CurrentComparator, grid: &XGrid) -> Option<f64> {
    let mut x_slots = (0..4).filter(|&i| monitor.inputs[i] == MonitorInput::XAxis);
    let Some(first) = x_slots.next() else {
        return Some(0.0);
    };
    let on_right = first >= 2;
    std::iter::once(first).chain(x_slots).try_fold(0.0f64, |widest, i| {
        let t = &monitor.transistors[i];
        if (i >= 2) != on_right || !rises_with_gate(t) {
            return None;
        }
        Some(widest.max(exp_reversal(t, grid)?))
    })
}

/// How close two gate voltages on `grid` must be for the libm `exp` calls
/// of the gate model `t` to reverse their order, when that span is below a
/// thousandth of a grid step and those calls stay in the normal range on
/// the grid — the premise under which a flip-curve cell band holds every x
/// in its cell (see the module docs); `None` otherwise. A reversal needs two
/// `exp` arguments within `4.01u` of each other; both arguments are rounded
/// monotone functions of the gate voltage with slope at least
/// `1/(max(n, 1)·V_T)`, so a reversal spans less than
/// `4ε·(max(n, 1)·V_T + max|vgs − vth0|)` volts of gate voltage.
fn exp_reversal(t: &MosParams, grid: &XGrid) -> Option<f64> {
    let (lowest, highest) = grid.span();
    let (low_vov, high_vov) = (lowest - t.vth0, highest - t.vth0);
    let n = t.subthreshold_n;
    let span = 4.0 * f64::EPSILON * (n.max(1.0) * THERMAL_VOLTAGE + low_vov.abs().max(high_vov.abs()));
    let normal = !(n > 0.0) || low_vov / (n * THERMAL_VOLTAGE) > -700.0;
    (grid.step() > 1024.0 * span && normal).then_some(span)
}

/// The bound on how far a stream can end up from the exact path's once
/// each has its measurement noise added: a gap of `gap` between the exact
/// sums (the streams' gap before the addition plus the noise values' δ),
/// and the certified stream with noise at most `peak` in magnitude.
///
/// Both additions round to nearest, each by at most `u` of its exact sum
/// (an addition whose result is subnormal is exact). The certified sum's
/// exact value is at most `peak/(1 − u)` in magnitude and the exact path's
/// at most that plus `gap`, so the two observed streams differ by at most
/// `gap + u·(2·peak/(1 − u) + gap)`. The result is
/// `(gap + 2u·(peak + gap))·(1 + 2^-20)`, whose last factor covers the
/// `1/(1 − u)`, the rounding of a `gap` formed as a sum, and the rounding
/// of its own evaluation.
fn noise_gap_bound(gap: f64, peak: f64) -> f64 {
    const U: f64 = f64::EPSILON / 2.0;
    (gap + 2.0 * U * (peak + gap)) * (1.0 + 1.0 / (1u64 << 20) as f64)
}

/// A certified stream's bound on its way through the observation: it lies
/// within `gap` of the exact path's stream at every sample, and is at most
/// `peak` in magnitude.
#[derive(Debug, Clone, Copy)]
struct Carried {
    gap: f64,
    peak: f64,
}

/// Applies a setup's measurement noise to a certified stream that lies
/// within `gap` of the exact path's synthesized stream at every sample: the
/// noise of stream `stream_seed` (noisy setups only) through
/// [`NoiseModel::apply_approx_in_place`](sim_signal::NoiseModel::apply_approx_in_place)
/// and the scratch `uniforms`. Returns the stream's bound ahead of the
/// front-end filter ([`filter_certified`]): the noise's δ added to `gap`,
/// then [`noise_gap_bound`], and the stream's [`bounded_peak`]; `None` when
/// no bound holds, including for any non-finite sample.
fn observe_certified(
    setup: &TestSetup,
    samples: &mut [f64],
    gap: f64,
    stream_seed: u64,
    uniforms: &mut Vec<f64>,
) -> Option<Carried> {
    let noise_gap = (!setup.noise.is_none()).then(|| setup.noise.apply_approx_in_place(samples, stream_seed, uniforms));
    let peak = bounded_peak(samples)?;
    let gap = noise_gap.map_or(gap, |noise_gap| noise_gap_bound(gap + noise_gap, peak));
    Some(Carried { gap, peak })
}

/// The largest magnitude among `samples`, or `None` when some sample is not
/// finite or a sum of their magnitudes could overflow: the observation's
/// no-bound rule.
///
/// The maximum runs in eight lanes. It is exact and does not depend on the
/// order of its operands, so it has the bits of a serial fold. A NaN, once
/// met, stays in its lane, and an infinity wins every lane it meets, so the
/// result is finite only when every sample is. A rounded running sum of `n`
/// magnitudes, each at most `peak`, stays at most `n·peak·(1 + u)^(n−1)`,
/// below `2·n·peak`; the rule refuses unless that is finite.
fn bounded_peak(samples: &[f64]) -> Option<f64> {
    const LANES: usize = 8;
    let wider = |peak: f64, v: f64| {
        let magnitude = v.abs();
        if magnitude > peak || magnitude.is_nan() {
            magnitude
        } else {
            peak
        }
    };
    let mut lanes = [0.0f64; LANES];
    let chunks = samples.chunks_exact(LANES);
    let tail = chunks.remainder();
    for chunk in chunks {
        for (lane, &v) in lanes.iter_mut().zip(chunk) {
            *lane = wider(*lane, v);
        }
    }
    let peak = lanes.iter().chain(tail).fold(0.0, |peak, &v| wider(peak, v));
    (2.0 * peak * samples.len() as f64).is_finite().then_some(peak)
}

/// Passes `N` certified streams through the setup's front-end filter in one
/// loop ([`lowpass_lanes_in_place`]) and returns each one's bound on its
/// distance from the exact path's observed stream: `carried` through
/// [`lowpass_gap_bound`], or `+inf` where no bound holds.
fn filter_certified<const N: usize>(
    setup: &TestSetup,
    streams: [&mut [f64]; N],
    carried: [Option<Carried>; N],
    dt: f64,
) -> [f64; N] {
    let Some(bandwidth) = setup.monitor_bandwidth_hz else {
        return carried.map(|carried| carried.map_or(f64::INFINITY, |c| c.gap));
    };
    lowpass_lanes_in_place(streams, dt, bandwidth);
    carried.map(|carried| carried.map_or(f64::INFINITY, |c| lowpass_gap_bound(c.gap, c.peak, dt, bandwidth)))
}

/// The per-setup artifacts shared by every device of a batched capture: the
/// synthesized stimulus, its noiseless observed (band-limited) form, the
/// monitor bank's slot table with the X drive streams on that form, the
/// per-sample Y thresholds of every monitor with exactly one Y-driven input,
/// and, when every monitor has them, the tone grid of certified response
/// synthesis.
///
/// Obtain one from a [`StimulusBank`] (cached per [`stimulus_key`]) or
/// directly with [`SharedStimulus::new`].
#[derive(Debug)]
pub struct SharedStimulus {
    key: Vec<u64>,
    /// The raw synthesized stimulus (`stimulus.sample(1, sample_rate)`).
    x_raw: Waveform,
    /// The noiseless observed stimulus: `x_raw` low-pass filtered at the
    /// monitor bandwidth (or `x_raw` itself without a bandwidth limit).
    x_obs: Waveform,
    slots: SlotTable,
    /// The drives of every X drive model on `x_obs`.
    x_drives: DriveStreams,
    /// Per monitor, its threshold table when it has one.
    thresholds: Vec<Option<YThresholds>>,
    /// The stimulus tones on the sample grid, for certified response
    /// synthesis; present when every monitor has a threshold table.
    tones: Option<ToneGrid>,
    /// The flip-curve tables of noisy capture, built on the first noisy
    /// capture; absent when some monitor has no flip curve or the noiseless
    /// x range is not finite.
    flip_curves: OnceLock<Option<FlipCurves>>,
    /// Batched devices whose response went through the exact synthesis.
    exact_syntheses: AtomicU64,
}

impl SharedStimulus {
    /// Synthesizes the shared artifacts of a setup: the stimulus sample
    /// stream, its noiseless observed form, the drive streams of every X
    /// drive model on it, the Y-threshold table of every monitor with
    /// exactly one Y-driven input and, when every monitor has one, the tone
    /// grid of certified response synthesis.
    ///
    /// # Errors
    /// Returns [`DsigError::InvalidConfig`] when the setup's sample rate
    /// resolves no stimulus samples at all.
    pub fn new(setup: &TestSetup) -> Result<Self> {
        let x_raw = setup.stimulus.sample(1, setup.sample_rate);
        if x_raw.is_empty() {
            return Err(DsigError::InvalidConfig(format!(
                "sample rate {} Hz resolves no stimulus samples",
                setup.sample_rate
            )));
        }
        let x_obs = match setup.monitor_bandwidth_hz {
            Some(bandwidth) => x_raw.lowpass(bandwidth),
            None => x_raw.clone(),
        };
        let slots = SlotTable::new(&setup.partition);
        let mut x_drives = DriveStreams::default();
        x_drives.fill(slots.x_models(), x_obs.samples());
        let mut shared = SharedStimulus {
            key: stimulus_key(setup),
            x_raw,
            x_obs,
            slots,
            x_drives,
            thresholds: Vec::new(),
            tones: None,
            flip_curves: OnceLock::new(),
            exact_syntheses: AtomicU64::new(0),
        };
        shared.thresholds = setup
            .partition
            .monitors()
            .iter()
            .enumerate()
            .map(|(m, monitor)| {
                let slot = y_step_slot(monitor)?;
                Some(shared.flip_points(m, slot, monitor.inverted, shared.x_obs.samples(), &shared.x_drives))
            })
            .collect();
        if shared.thresholds.iter().all(Option::is_some) {
            shared.tones = Some(ToneGrid::new(&setup.stimulus, 1, setup.sample_rate))
                .filter(|grid| grid.len() == shared.samples());
        }
        Ok(shared)
    }

    /// The flip point in y of monitor `m` at every x of `x` (with the drives
    /// `drives` of the X models there): `slot` is its Y-driven input
    /// ([`y_step_slot`]) and `inverted` its output polarity.
    fn flip_points(&self, m: usize, slot: usize, inverted: bool, x: &[f64], drives: &DriveStreams) -> YThresholds {
        // A rising Y-gate current raises I_left − I_right on the left branch
        // and lowers it on the right one.
        let on_right = slot >= 2;
        let rising = |k, y| {
            let difference = self.slots.difference_at(m, drives, k, y);
            if on_right {
                -difference
            } else {
                difference
            }
        };
        YThresholds::build(
            x,
            inverted ^ on_right,
            |k, y| self.slots.bit_at(m, drives, k, y),
            rising,
        )
    }

    /// The flip-curve tables of `partition` (this stimulus's own monitor
    /// bank), built on the first call, on a grid over the noiseless observed
    /// x range plus 50 mV (`X_GRID_MARGIN_V`) on each side: present when
    /// every monitor's bit is a step in y ([`y_step_slot`]) and monotone in
    /// x ([`monotone_in_x`]), and that range is finite.
    fn flip_curves(&self, partition: &ZonePartition) -> Option<&FlipCurves> {
        self.flip_curves
            .get_or_init(|| {
                let (lowest, highest) = self
                    .x_obs
                    .samples()
                    .iter()
                    .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
                        (lo.min(x), hi.max(x))
                    });
                let monitors = partition.monitors();
                let grid = XGrid::covering(lowest, highest, monitors.len())?;
                let mut reversal = 0.0f64;
                let slots: Vec<usize> = monitors
                    .iter()
                    .map(|monitor| {
                        reversal = reversal.max(monotone_in_x(monitor, &grid)?);
                        y_step_slot(monitor)
                    })
                    .collect::<Option<_>>()?;
                let points = grid.points();
                let mut drives = DriveStreams::default();
                drives.fill(self.slots.x_models(), &points);
                let curves = monitors
                    .iter()
                    .zip(slots)
                    .enumerate()
                    .map(|(m, (monitor, slot))| self.flip_points(m, slot, monitor.inverted, &points, &drives))
                    .collect();
                Some(FlipCurves::new(grid, curves, reversal))
            })
            .as_ref()
    }

    /// Monitor `m`'s bit at sample `k` of the shared x and observed `y` by
    /// exact evaluation — the slot expression every other decision is
    /// checked against.
    #[inline]
    fn exact_bit(&self, m: usize, k: usize, y: f64) -> bool {
        self.slots.bit_at(m, &self.x_drives, k, y)
    }

    /// Number of samples in the shared stimulus (one Lissajous period).
    pub fn samples(&self) -> usize {
        self.x_obs.len()
    }

    /// Whether this shared stimulus was built for (an equivalent of) the
    /// given setup — exact [`stimulus_key`] equality.
    pub fn matches(&self, setup: &TestSetup) -> bool {
        self.key == stimulus_key(setup)
    }

    /// Number of devices (and retest repeats) captured against this shared
    /// stimulus whose response went through the exact synthesis: a
    /// certified synthesis left some bit in doubt or had no finite bound,
    /// some observed sample was not finite, or the setup has a monitor
    /// without a table for its path (then every device). Noiseless and
    /// noisy captures both count.
    pub fn exact_syntheses(&self) -> u64 {
        self.exact_syntheses.load(Ordering::Relaxed)
    }

    /// Synthesizes a device's y on the tone grid into `y` and applies the
    /// approximate measurement noise of `seed` on a noisy setup: the bound
    /// of [`BiquadParams::steady_state_response_on_grid`] carried through
    /// [`observe_certified`], ahead of the front-end filter.
    fn certified_response(
        &self,
        grid: &ToneGrid,
        setup: &TestSetup,
        cut: &BiquadParams,
        seed: u64,
        y: &mut Vec<f64>,
        uniforms: &mut Vec<f64>,
    ) -> Option<Carried> {
        let bound = cut.steady_state_response_on_grid(grid, y);
        observe_certified(setup, y, bound, y_stream(seed), uniforms)
    }

    /// The exact path's synthesized (unobserved) response of a device: the
    /// reference synthesis every certified path is checked against.
    fn exact_response(&self, setup: &TestSetup, cut: &BiquadParams, y: &mut Vec<f64>) -> Result<()> {
        cut.steady_state_response_into(&setup.stimulus, 1, setup.sample_rate, y);
        if y.len() != self.samples() {
            return Err(DsigError::Signal(sim_signal::SignalError::GridMismatch {
                left: self.samples(),
                right: y.len(),
            }));
        }
        Ok(())
    }

    /// Zone-encodes a certified y, within `bound` of the exact path's y at
    /// every sample, into `scratch.codes`: each bit is decided by its
    /// monitor's threshold table with the band widened by `bound` on both
    /// sides ([`YThresholds::beyond`]). Returns `false`, leaving the codes
    /// unusable, when the bound is not finite, a monitor has no table, or
    /// some sample lies inside a widened band: a bit is then in doubt.
    fn encode_certified(&self, y: &[f64], bound: f64, scratch: &mut CaptureScratch) -> bool {
        if !bound.is_finite() {
            return false;
        }
        let codes = &mut scratch.codes;
        codes.clear();
        codes.resize(y.len(), 0);
        for (m, table) in self.thresholds.iter().enumerate() {
            let Some(table) = table else {
                return false;
            };
            let mut undecided = false;
            for ((code, &yk), &band) in codes.iter_mut().zip(y).zip(&table.bands) {
                let (above, below) = YThresholds::beyond(band, yk, bound);
                undecided |= !(above | below);
                *code |= u32::from(above ^ table.below) << m;
            }
            if undecided {
                return false;
            }
        }
        true
    }

    /// Zone-encodes one device's noiseless observed `y` into
    /// `scratch.codes` against the shared x, one pass per monitor. A monitor
    /// with a threshold table is decided by compares and evaluated exactly
    /// only inside its guard band; the others are evaluated exactly over
    /// the drive streams of `y`.
    fn encode_noiseless(&self, y: &[f64], scratch: &mut CaptureScratch) {
        let CaptureScratch { y_drives, codes, .. } = scratch;
        codes.clear();
        codes.resize(y.len(), 0);
        if self.thresholds.iter().any(Option::is_none) {
            y_drives.fill(self.slots.y_models(), y);
        }
        for (m, table) in self.thresholds.iter().enumerate() {
            let Some(table) = table else {
                self.slots.encode_monitor(m, &self.x_drives, y_drives, codes);
                continue;
            };
            // One branch-free pass sets every bit as the table decides it; a
            // second pass, only when some sample needs it, evaluates the
            // undecided ones exactly.
            let mut any_undecided = false;
            for ((code, &yk), &band) in codes.iter_mut().zip(y).zip(&table.bands) {
                any_undecided |= !YThresholds::decides(band, yk);
                *code |= u32::from((yk > band[1]) ^ table.below) << m;
            }
            if any_undecided {
                for (k, ((code, &yk), &band)) in codes.iter_mut().zip(y).zip(&table.bands).enumerate() {
                    if !YThresholds::decides(band, yk) {
                        *code = (*code & !(1 << m)) | u32::from(self.exact_bit(m, k, yk)) << m;
                    }
                }
            }
        }
    }

    /// Captures `N` noiseless devices into `out`, with `N` scratch responses.
    /// When every monitor has a threshold table, each y is the certified
    /// synthesis ([`SharedStimulus::certified_response`]), the `N` responses
    /// pass the front-end filter in one loop ([`filter_certified`]), and
    /// [`SharedStimulus::encode_certified`] decides every bit. Otherwise, or
    /// when no bound holds or a bit is in doubt, a device is captured exactly
    /// and counts in [`SharedStimulus::exact_syntheses`].
    fn capture_noiseless<const N: usize>(
        &self,
        setup: &TestSetup,
        devices: [&BatchDevice; N],
        mut ys: [&mut Vec<f64>; N],
        scratch: &mut CaptureScratch,
        out: &mut Vec<Signature>,
    ) -> Result<()> {
        let dt = self.x_obs.dt();
        let bounds = match &self.tones {
            Some(grid) => {
                let carried = std::array::from_fn(|i| {
                    let device = devices[i];
                    self.certified_response(
                        grid,
                        setup,
                        &device.cut,
                        device.noise_seed,
                        ys[i],
                        &mut scratch.uniforms,
                    )
                });
                filter_certified(setup, ys.each_mut().map(|y| y.as_mut_slice()), carried, dt)
            }
            None => [f64::INFINITY; N],
        };
        for ((device, y), bound) in devices.into_iter().zip(ys).zip(bounds) {
            if !self.encode_certified(y, bound, scratch) {
                self.exact_syntheses.fetch_add(1, Ordering::Relaxed);
                self.exact_response(setup, &device.cut, y)?;
                if let Some(bandwidth) = setup.monitor_bandwidth_hz {
                    lowpass_in_place(y, dt, bandwidth);
                }
                self.encode_noiseless(y, scratch);
            }
            out.push(capture_codes(setup, &scratch.codes, dt)?);
        }
        Ok(())
    }

    /// Captures one noisy device. When every monitor has a flip curve, x is
    /// `x_raw` with the device's approximate x noise ([`observe_certified`]),
    /// y is the certified synthesis with its approximate noise
    /// ([`SharedStimulus::certified_response`]), both pass the front-end
    /// filter in one loop ([`filter_certified`]) with their bounds, and
    /// [`SharedStimulus::encode_noisy`] decides every bit. Otherwise, or
    /// when that leaves a bit in doubt or no bound holds, the device is
    /// captured exactly ([`SlotTable::capture_measurement`]) and counts in
    /// [`SharedStimulus::exact_syntheses`].
    fn capture_noisy(
        &self,
        setup: &TestSetup,
        curves: Option<&FlipCurves>,
        device: &BatchDevice,
        y: &mut Vec<f64>,
        scratch: &mut CaptureScratch,
    ) -> Result<Signature> {
        let dt = self.x_obs.dt();
        if let (Some(curves), Some(grid)) = (curves, &self.tones) {
            let CaptureScratch { x, uniforms, .. } = scratch;
            x.clear();
            x.extend_from_slice(self.x_raw.samples());
            let x_carried = observe_certified(setup, x, 0.0, x_stream(device.noise_seed), uniforms);
            let y_carried = self.certified_response(grid, setup, &device.cut, device.noise_seed, y, uniforms);
            let [x_gap, y_gap] = filter_certified(setup, [x, y], [x_carried, y_carried], dt);
            if self.encode_noisy(curves, y, y_gap, x_gap, scratch) {
                return capture_codes(setup, &scratch.codes, dt);
            }
        }
        self.exact_syntheses.fetch_add(1, Ordering::Relaxed);
        self.exact_response(setup, &device.cut, y)?;
        self.slots
            .capture_measurement(setup, self.x_raw.samples(), y, device.noise_seed, dt, scratch)
    }

    /// Zone-encodes a noisy observed pair into `scratch.codes`: x is
    /// `scratch.x`, within `x_gap` of the exact path's observed x, and y
    /// lies within `bound` of the exact path's observed y at every sample.
    /// One pass writes every sample's row ([`FlipCurves::rows_of`]) into the
    /// codes; then each sample's row decides all its monitors' bits at once,
    /// each band widened by the bound ([`FlipCurves::decide`]), and a bit
    /// left in doubt is settled by [`box_check`]. Returns `false`, leaving
    /// the codes unusable, when either bound is not finite, `x_gap` is not
    /// below half a grid step ([`FlipCurves::box_reach`]), or a box check
    /// leaves a bit in doubt.
    fn encode_noisy(
        &self,
        curves: &FlipCurves,
        y: &[f64],
        bound: f64,
        x_gap: f64,
        scratch: &mut CaptureScratch,
    ) -> bool {
        let Some(reach) = curves.box_reach(x_gap) else {
            return false;
        };
        if !bound.is_finite() {
            return false;
        }
        let span = curves.span();
        let CaptureScratch { x, codes, .. } = scratch;
        curves.rows_of(x, codes);
        for ((code, &xk), &yk) in codes.iter_mut().zip(x.iter()).zip(y) {
            let (bits, mut doubtful) = curves.decide(*code, yk, bound);
            *code = bits;
            while doubtful != 0 {
                let m = doubtful.trailing_zeros() as usize;
                doubtful &= doubtful - 1;
                match box_check(|x, y| self.slots.bit_at_point(m, x, y), xk, reach, span, yk, bound) {
                    Some(bit) => *code |= u32::from(bit) << m,
                    None => return false,
                }
            }
        }
        true
    }
}

/// Captures the signatures of a batch of devices sharing one setup, reusing
/// the shared stimulus artifacts and a single set of scratch buffers for the
/// whole batch.
///
/// The result is **bit-identical** to calling [`TestSetup::signature_of`]
/// per device (see the [module docs](self) for why), for every batch size —
/// including the noisy case, where each device still draws its own x/y noise
/// realisations from its seed. Retest repeats are batch entries too: one
/// [`BatchDevice`] per repeat seed captures what
/// [`TestSetup::signatures_of_repeats`] does.
///
/// Both cases take a certified path when the setup allows it: y synthesized
/// from per-setup tone tables with an error bound, and every bit decided by
/// a threshold table (noiseless) or a flip-curve table on an x grid (noisy)
/// with that bound as margin. A device whose bits the margin leaves in doubt
/// is recaptured on the exact path and counted by
/// [`SharedStimulus::exact_syntheses`].
///
/// # Errors
/// Returns [`DsigError::InvalidConfig`] when `shared` was built for a
/// different setup, and propagates capture errors.
pub fn capture_signatures_batch(
    setup: &TestSetup,
    shared: &SharedStimulus,
    devices: &[BatchDevice],
) -> Result<Vec<Signature>> {
    if !shared.matches(setup) {
        return Err(DsigError::InvalidConfig(
            "shared stimulus does not match the setup; fetch it from a StimulusBank with this setup".into(),
        ));
    }
    // Scratch buffers reused across every device of the batch.
    let mut ys: [Vec<f64>; 2] = Default::default();
    let [y, second_y] = &mut ys;
    let mut scratch = CaptureScratch::default();
    let mut out = Vec::with_capacity(devices.len());
    // x differs per device when the setup is noisy: its bits are decided
    // against the flip-curve tables instead of the per-sample thresholds.
    if !setup.noise.is_none() {
        let curves = shared.flip_curves(&setup.partition);
        for device in devices {
            out.push(shared.capture_noisy(setup, curves, device, y, &mut scratch)?);
        }
        return Ok(out);
    }
    // Noiseless devices go two at a time, their responses filtered in one
    // loop; an odd batch ends with one.
    let pairs = devices.chunks_exact(2);
    let last = pairs.remainder();
    for pair in pairs {
        shared.capture_noiseless(setup, [&pair[0], &pair[1]], [y, second_y], &mut scratch, &mut out)?;
    }
    if let [device] = last {
        shared.capture_noiseless(setup, [device], [y], &mut scratch, &mut out)?;
    }
    Ok(out)
}

/// Default number of [`SharedStimulus`] entries a [`StimulusBank`] retains.
pub const DEFAULT_BANK_CAPACITY: usize = 8;

#[derive(Debug)]
struct BankEntry {
    key: Vec<u64>,
    shared: Arc<SharedStimulus>,
    last_used: u64,
}

#[derive(Debug)]
struct BankInner {
    entries: Vec<BankEntry>,
    capacity: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    /// Exact syntheses of evicted entries, as of their eviction.
    evicted_exact_syntheses: u64,
}

/// A bounded, thread-safe cache of [`SharedStimulus`] entries keyed exactly
/// by [`stimulus_key`].
///
/// Synthesizing a shared stimulus costs about as much as observing a handful
/// of devices, so campaigns and characterization runs keep one bank for
/// their lifetime and fetch per-setup entries from it. When the bank is full
/// the least-recently-used entry is evicted; [`StimulusBank::hits`] /
/// [`StimulusBank::misses`] / [`StimulusBank::evictions`] expose the cache
/// behaviour for tests and monitoring.
#[derive(Debug)]
pub struct StimulusBank {
    inner: Mutex<BankInner>,
}

impl StimulusBank {
    /// A bank retaining up to [`DEFAULT_BANK_CAPACITY`] shared stimuli.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_BANK_CAPACITY)
    }

    /// A bank retaining up to `capacity` shared stimuli (at least one).
    pub fn with_capacity(capacity: usize) -> Self {
        StimulusBank {
            inner: Mutex::new(BankInner {
                entries: Vec::new(),
                capacity: capacity.max(1),
                tick: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
                evicted_exact_syntheses: 0,
            }),
        }
    }

    /// Returns the shared stimulus for a setup, synthesizing it on the first
    /// request and evicting the least-recently-used entry when the bank is
    /// at capacity.
    ///
    /// # Errors
    /// Propagates [`SharedStimulus::new`] errors.
    pub fn shared_for(&self, setup: &TestSetup) -> Result<Arc<SharedStimulus>> {
        let key = stimulus_key(setup);
        {
            let mut inner = recover(self.inner.lock());
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(i) = inner.entries.iter().position(|e| e.key == key) {
                inner.hits += 1;
                inner.entries[i].last_used = tick;
                return Ok(Arc::clone(&inner.entries[i].shared));
            }
            inner.misses += 1;
        }

        // Synthesize outside the lock: this is the expensive part.
        let shared = Arc::new(SharedStimulus::new(setup)?);
        let mut inner = recover(self.inner.lock());
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(i) = inner.entries.iter().position(|e| e.key == key) {
            // A racing builder inserted the same setup first; keep its entry.
            inner.entries[i].last_used = tick;
            return Ok(Arc::clone(&inner.entries[i].shared));
        }
        if inner.entries.len() >= inner.capacity {
            let lru = inner
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
                .expect("capacity is at least one");
            let evicted = inner.entries.swap_remove(lru);
            inner.evictions += 1;
            inner.evicted_exact_syntheses += evicted.shared.exact_syntheses();
        }
        inner.entries.push(BankEntry {
            key,
            shared: Arc::clone(&shared),
            last_used: tick,
        });
        Ok(shared)
    }

    /// Number of shared stimuli currently retained.
    pub fn len(&self) -> usize {
        recover(self.inner.lock()).entries.len()
    }

    /// Whether the bank is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of [`StimulusBank::shared_for`] calls answered from the cache.
    pub fn hits(&self) -> u64 {
        recover(self.inner.lock()).hits
    }

    /// Number of [`StimulusBank::shared_for`] calls that had to synthesize.
    pub fn misses(&self) -> u64 {
        recover(self.inner.lock()).misses
    }

    /// Number of entries evicted to make room for a newly synthesized one.
    pub fn evictions(&self) -> u64 {
        recover(self.inner.lock()).evictions
    }

    /// [`SharedStimulus::exact_syntheses`] summed over every entry this bank
    /// has held (an evicted entry's count as of its eviction).
    pub fn exact_syntheses(&self) -> u64 {
        let inner = recover(self.inner.lock());
        inner.evicted_exact_syntheses + inner.entries.iter().map(|e| e.shared.exact_syntheses()).sum::<u64>()
    }
}

impl Default for StimulusBank {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::slots::observe_in_place;
    use super::threshold::{from_order_key, order_key, GUARD_ULPS, MIN_KEY, POS_INF_KEY};
    use super::*;
    use sim_signal::{MultitoneSpec, NoiseModel, ToneSpec};

    fn setup() -> TestSetup {
        TestSetup::paper_default().unwrap().with_sample_rate(1e6).unwrap()
    }

    fn lot(count: usize) -> Vec<BatchDevice> {
        (0..count)
            .map(|i| {
                BatchDevice::new(
                    BiquadParams::paper_default().with_f0_shift_pct(i as f64 * 2.5 - 5.0),
                    1000 + i as u64,
                )
            })
            .collect()
    }

    #[test]
    fn batched_capture_is_bit_identical_to_per_device_noiseless() {
        let setup = setup();
        let shared = SharedStimulus::new(&setup).unwrap();
        let devices = lot(5);
        let batched = capture_signatures_batch(&setup, &shared, &devices).unwrap();
        for (device, batched_sig) in devices.iter().zip(&batched) {
            let per_device = setup.signature_of(&device.cut, device.noise_seed).unwrap();
            assert_eq!(*batched_sig, per_device, "device {:?}", device.cut.f0_hz);
        }
    }

    #[test]
    fn batched_capture_is_bit_identical_to_per_device_noisy() {
        let setup = setup().with_noise(NoiseModel::paper_default());
        let shared = SharedStimulus::new(&setup).unwrap();
        let devices = lot(5);
        let batched = capture_signatures_batch(&setup, &shared, &devices).unwrap();
        for (device, batched_sig) in devices.iter().zip(&batched) {
            let per_device = setup.signature_of(&device.cut, device.noise_seed).unwrap();
            assert_eq!(*batched_sig, per_device, "noise seed {}", device.noise_seed);
        }
    }

    #[test]
    fn batch_size_does_not_change_results() {
        let setup = setup();
        let shared = SharedStimulus::new(&setup).unwrap();
        let devices = lot(7);
        let whole = capture_signatures_batch(&setup, &shared, &devices).unwrap();
        let mut split = capture_signatures_batch(&setup, &shared, &devices[..3]).unwrap();
        split.extend(capture_signatures_batch(&setup, &shared, &devices[3..]).unwrap());
        assert_eq!(whole, split);
        let singles: Vec<Signature> = devices
            .iter()
            .map(|d| {
                capture_signatures_batch(&setup, &shared, std::slice::from_ref(d))
                    .unwrap()
                    .remove(0)
            })
            .collect();
        assert_eq!(whole, singles);
    }

    #[test]
    fn no_bandwidth_and_no_clock_path_matches_too() {
        let mut setup = setup();
        setup.monitor_bandwidth_hz = None;
        setup.clock = None;
        let shared = SharedStimulus::new(&setup).unwrap();
        let devices = lot(3);
        let batched = capture_signatures_batch(&setup, &shared, &devices).unwrap();
        for (device, batched_sig) in devices.iter().zip(&batched) {
            assert_eq!(
                *batched_sig,
                setup.signature_of(&device.cut, device.noise_seed).unwrap()
            );
        }
    }

    #[test]
    fn mismatched_shared_stimulus_is_rejected() {
        let shared = SharedStimulus::new(&setup()).unwrap();
        let other = setup().with_sample_rate(2e6).unwrap();
        assert!(capture_signatures_batch(&other, &shared, &lot(1)).is_err());
        assert!(shared.matches(&setup()));
        assert!(!shared.matches(&other));
    }

    #[test]
    fn noise_model_does_not_split_the_key() {
        // Noise is drawn per device at capture time, so noisy and noiseless
        // setups share one bank entry (like the engine's golden cache).
        let quiet = setup();
        let noisy = setup().with_noise(NoiseModel::paper_default());
        assert_eq!(stimulus_key(&quiet), stimulus_key(&noisy));
        // Clock and deglitch dwell apply after encoding: also shared.
        let mut unclocked = setup();
        unclocked.clock = None;
        unclocked.transition_min_dwell = 0.0;
        assert_eq!(stimulus_key(&quiet), stimulus_key(&unclocked));
        // The sample rate is part of the key.
        assert_ne!(
            stimulus_key(&quiet),
            stimulus_key(&setup().with_sample_rate(2e6).unwrap())
        );
    }

    #[test]
    fn bank_hits_and_misses() {
        let bank = StimulusBank::new();
        assert!(bank.is_empty());
        let a = bank.shared_for(&setup()).unwrap();
        assert_eq!((bank.hits(), bank.misses()), (0, 1));
        let b = bank.shared_for(&setup()).unwrap();
        assert_eq!((bank.hits(), bank.misses()), (1, 1));
        assert!(Arc::ptr_eq(&a, &b), "same setup must reuse the synthesized entry");
        let _ = bank.shared_for(&setup().with_sample_rate(2e6).unwrap()).unwrap();
        assert_eq!((bank.hits(), bank.misses()), (1, 2));
        assert_eq!(bank.len(), 2);
    }

    #[test]
    fn bank_evicts_least_recently_used() {
        let bank = StimulusBank::with_capacity(2);
        let rate_a = setup();
        let rate_b = setup().with_sample_rate(2e6).unwrap();
        let rate_c = setup().with_sample_rate(5e6).unwrap();
        bank.shared_for(&rate_a).unwrap();
        bank.shared_for(&rate_b).unwrap();
        assert_eq!(bank.evictions(), 0, "no eviction below capacity");
        bank.shared_for(&rate_a).unwrap(); // refresh a: b is now the LRU
        bank.shared_for(&rate_c).unwrap(); // evicts b
        assert_eq!(bank.len(), 2);
        assert_eq!((bank.hits(), bank.misses()), (1, 3));
        assert_eq!(bank.evictions(), 1, "filling past capacity must evict the LRU");
        bank.shared_for(&rate_a).unwrap();
        assert_eq!(bank.hits(), 2, "the refreshed entry must have survived eviction");
        bank.shared_for(&rate_b).unwrap();
        assert_eq!(bank.misses(), 4, "the evicted entry must be re-synthesized");
        assert_eq!(bank.evictions(), 2, "re-inserting past capacity evicts again");
    }

    /// Noiseless encoding of `y` against the shared x.
    fn encode(shared: &SharedStimulus, y: &[f64]) -> Vec<u32> {
        let mut scratch = CaptureScratch::default();
        shared.encode_noiseless(y, &mut scratch);
        scratch.codes
    }

    /// [`observe_certified`] then the front-end filter, for one stream: the
    /// observed stream's bound, `+inf` when none holds.
    fn observe_and_filter(setup: &TestSetup, samples: &mut [f64], gap: f64, stream: u64, dt: f64) -> f64 {
        let carried = observe_certified(setup, samples, gap, stream, &mut Vec::new());
        let [bound] = filter_certified(setup, [samples], [carried], dt);
        bound
    }

    /// A device's certified observed y, as noiseless and noisy capture
    /// observe it, and its bound.
    fn certified_y(shared: &SharedStimulus, setup: &TestSetup, cut: &BiquadParams, seed: u64, y: &mut Vec<f64>) -> f64 {
        let grid = shared.tones.as_ref().expect("every monitor has a threshold table");
        let carried = shared.certified_response(grid, setup, cut, seed, y, &mut Vec::new());
        let [bound] = filter_certified(setup, [y], [carried], shared.x_obs.dt());
        bound
    }

    /// [`FlipCurves::decide`] at one point: the row of `x`, then its bits.
    fn decide_at(curves: &FlipCurves, x: f64, y: f64, bound: f64) -> (u32, u32) {
        let mut rows = Vec::new();
        curves.rows_of(&[x], &mut rows);
        curves.decide(rows[0], y, bound)
    }

    /// Probes every tabulated flip point of `setup` at ±1 to ±(guard + 8)
    /// ulps through noiseless encoding, checking each bit against the exact
    /// slot expression and the per-device comparator, and that the band the
    /// table leaves to exact evaluation is no wider than the guard. Returns
    /// the number of tabulated monitors.
    fn probe_flip_points(setup: &TestSetup) -> usize {
        let shared = SharedStimulus::new(setup).unwrap();
        let x = shared.x_obs.samples();
        let reach = GUARD_ULPS as i64 + 8;
        let mut tabulated = 0;
        for (m, (table, monitor)) in shared.thresholds.iter().zip(setup.partition.monitors()).enumerate() {
            let Some(table) = table else { continue };
            tabulated += 1;
            let flips: Vec<u64> = table
                .bands
                .iter()
                .map(|&[lo, hi]| {
                    if hi < f64::INFINITY {
                        order_key(hi) - GUARD_ULPS
                    } else {
                        order_key(lo) + GUARD_ULPS
                    }
                })
                .collect();
            for (k, &flip) in flips.iter().enumerate() {
                if flip > MIN_KEY && flip < POS_INF_KEY {
                    assert_eq!(
                        shared.exact_bit(m, k, from_order_key(flip - 1)),
                        table.below,
                        "sample {k}"
                    );
                    assert_ne!(shared.exact_bit(m, k, from_order_key(flip)), table.below, "sample {k}");
                }
            }
            for offset in -reach..=reach {
                let keys: Vec<u64> = flips
                    .iter()
                    .map(|&flip| flip.saturating_add_signed(offset).clamp(MIN_KEY, POS_INF_KEY - 1))
                    .collect();
                let y: Vec<f64> = keys.iter().map(|&key| from_order_key(key)).collect();
                let codes = encode(&shared, &y);
                let label = &monitor.label;
                for k in 0..x.len() {
                    let exact = shared.exact_bit(m, k, y[k]);
                    assert_eq!(codes[k] >> m & 1 == 1, exact, "{label} sample {k} offset {offset}");
                    assert_eq!(monitor.output(x[k], y[k]), exact, "{label} sample {k} offset {offset}");
                    if offset.unsigned_abs() > GUARD_ULPS && keys[k].abs_diff(flips[k]) > GUARD_ULPS {
                        let decided = YThresholds::decides(table.bands[k], y[k]);
                        assert!(decided, "{label} sample {k} offset {offset} left to exact");
                    }
                }
            }
        }
        tabulated
    }

    /// A Table I setup at the given rate, with or without the front-end
    /// bandwidth limit.
    fn table1_setup(rate: f64, bandwidth: bool) -> TestSetup {
        let mut setup = TestSetup::paper_default().unwrap().with_sample_rate(rate).unwrap();
        if !bandwidth {
            setup.monitor_bandwidth_hz = None;
        }
        setup
    }

    #[test]
    fn threshold_table_matches_exact_expression_around_every_table1_flip_point() {
        for rate in [2e6, 5e6] {
            for bandwidth in [true, false] {
                let tabulated = probe_flip_points(&table1_setup(rate, bandwidth));
                assert_eq!(tabulated, 6, "every Table I monitor has exactly one Y input");
            }
        }
    }

    #[test]
    fn threshold_table_matches_exact_expression_at_random_and_non_finite_y() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x7AB1E);
        for (rate, bandwidth) in [(2e6, true), (5e6, false)] {
            let setup = table1_setup(rate, bandwidth);
            let shared = SharedStimulus::new(&setup).unwrap();
            let x = shared.x_obs.samples();
            let special = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
            for trial in 0..53 {
                // Constant NaN and ±inf streams, then random streams: half
                // inside the observation window, half any bit pattern (huge,
                // tiny, subnormal, NaN payloads).
                let y: Vec<f64> = (0..x.len())
                    .map(|_| match trial {
                        0..=2 => special[trial],
                        _ if trial % 2 == 0 => rng.gen_range(-0.5..1.5),
                        _ => f64::from_bits(rng.gen::<u64>()),
                    })
                    .collect();
                let codes = encode(&shared, &y);
                for k in 0..x.len() {
                    assert_eq!(
                        codes[k],
                        setup.partition.zone_code(x[k], y[k]),
                        "sample {k} y {:e}",
                        y[k]
                    );
                    for (m, table) in shared.thresholds.iter().enumerate() {
                        assert_eq!(
                            codes[k] >> m & 1 == 1,
                            shared.exact_bit(m, k, y[k]),
                            "sample {k} y {:e}",
                            y[k]
                        );
                        let table = table.as_ref().unwrap();
                        if !y[k].is_finite() {
                            assert!(!YThresholds::decides(table.bands[k], y[k]), "{} must go exact", y[k]);
                        }
                    }
                }
            }
        }
    }

    /// Custom monitors: Y on the right branch, Y on both branches, and each
    /// in both output polarities.
    fn custom_setup() -> TestSetup {
        use xy_monitor::ZonePartition;
        let nmos = MosParams::nmos_65nm(1.8e-6, 180e-9);
        let right_y = CurrentComparator::new(
            "right-y",
            [nmos; 4],
            [
                MonitorInput::XAxis,
                MonitorInput::Dc(0.3),
                MonitorInput::YAxis,
                MonitorInput::Dc(0.3),
            ],
            1.2,
        )
        .unwrap();
        let both_y = CurrentComparator::new(
            "both-y",
            [nmos.with_width(3e-6), nmos, nmos.with_width(1e-6), nmos],
            [
                MonitorInput::YAxis,
                MonitorInput::XAxis,
                MonitorInput::YAxis,
                MonitorInput::Dc(0.5),
            ],
            1.2,
        )
        .unwrap();
        let flipped = |monitor: &CurrentComparator| CurrentComparator {
            inverted: !monitor.inverted,
            ..monitor.clone()
        };
        let monitors = vec![flipped(&right_y), right_y, flipped(&both_y), both_y];
        let mut setup = table1_setup(2e6, true);
        setup.partition = ZonePartition::new(monitors).unwrap();
        setup
    }

    #[test]
    fn custom_partitions_stay_bit_identical_on_both_paths() {
        let setup = custom_setup();
        let shared = SharedStimulus::new(&setup).unwrap();
        let tabulated: Vec<bool> = shared.thresholds.iter().map(Option::is_some).collect();
        assert_eq!(
            tabulated,
            [true, true, false, false],
            "a right-branch Y gate is tabulated; Y on both branches stays exact"
        );
        assert_eq!(probe_flip_points(&setup), 2);
        let devices = lot(7);
        let batched = capture_signatures_batch(&setup, &shared, &devices).unwrap();
        for (device, batched_sig) in devices.iter().zip(&batched) {
            let per_device = setup.signature_of(&device.cut, device.noise_seed).unwrap();
            assert_eq!(*batched_sig, per_device, "device {:?}", device.cut.f0_hz);
            assert!(per_device.len() > 1, "the response must cross the custom boundaries");
        }
    }

    /// The custom monitors plus one reading x through two drive models (gates
    /// differing in vth0) and one with the subthreshold term disabled, each
    /// in both output polarities, under the paper's measurement noise.
    fn noisy_custom_setup() -> TestSetup {
        use xy_monitor::ZonePartition;
        let nmos = MosParams::nmos_65nm(1.8e-6, 180e-9);
        let two_x = CurrentComparator::new(
            "two-x",
            [nmos, nmos.with_vth0(0.35), nmos.with_width(3e-6), nmos],
            [
                MonitorInput::XAxis,
                MonitorInput::XAxis,
                MonitorInput::YAxis,
                MonitorInput::Dc(0.45),
            ],
            1.2,
        )
        .unwrap();
        let flat = MosParams {
            subthreshold_n: 0.0,
            ..nmos
        };
        let no_subthreshold = CurrentComparator::new(
            "no-subthreshold",
            [flat, flat, flat.with_width(1e-6), flat],
            [
                MonitorInput::YAxis,
                MonitorInput::Dc(0.3),
                MonitorInput::XAxis,
                MonitorInput::Dc(0.1),
            ],
            1.2,
        )
        .unwrap();
        let mut setup = custom_setup().with_noise(NoiseModel::paper_default());
        let mut monitors = setup.partition.monitors().to_vec();
        for monitor in [two_x, no_subthreshold] {
            monitors.push(CurrentComparator {
                inverted: !monitor.inverted,
                ..monitor.clone()
            });
            monitors.push(monitor);
        }
        setup.partition = ZonePartition::new(monitors).unwrap();
        setup
    }

    /// The monitors of [`noisy_custom_setup`] that get flip curves: all but
    /// the two with Y on both branches. Y on the right branch, X through two
    /// drive models, no subthreshold term, each in both output polarities.
    fn monotone_custom_setup() -> TestSetup {
        use xy_monitor::ZonePartition;
        let mut setup = noisy_custom_setup();
        let monitors = setup
            .partition
            .monitors()
            .iter()
            .filter(|monitor| y_step_slot(monitor).is_some())
            .cloned()
            .collect();
        setup.partition = ZonePartition::new(monitors).unwrap();
        setup
    }

    /// Table I's monitors followed by [`monotone_custom_setup`]'s: twelve
    /// monitors with flip curves, whose rows take two blocks of lanes.
    fn twelve_monitor_setup() -> TestSetup {
        use xy_monitor::ZonePartition;
        let mut setup = table1_setup(2e6, true).with_noise(NoiseModel::paper_default());
        let mut monitors = setup.partition.monitors().to_vec();
        monitors.extend_from_slice(monotone_custom_setup().partition.monitors());
        setup.partition = ZonePartition::new(monitors).unwrap();
        setup
    }

    #[test]
    fn noisy_custom_partitions_match_per_repeat_capture_on_both_exact_paths() {
        let setup = noisy_custom_setup();
        let shared = SharedStimulus::new(&setup).unwrap();
        assert_eq!(
            (shared.slots.x_models().len(), shared.slots.y_models().len()),
            (3, 2),
            "x: nominal, raised vth0, no subthreshold; y: nominal at any width, no subthreshold"
        );
        let devices = lot(5);
        let batched = capture_signatures_batch(&setup, &shared, &devices).unwrap();
        let (mut ever_set, mut always_set) = (0u32, u32::MAX);
        for (device, batched_sig) in devices.iter().zip(&batched) {
            let seed = device.noise_seed;
            assert_eq!(
                *batched_sig,
                setup.signature_of(&device.cut, seed).unwrap(),
                "seed {seed}"
            );
            let repeats = setup.signatures_of_repeats(&device.cut, 3, seed).unwrap();
            for (i, repeat) in (0u64..).zip(&repeats) {
                assert_eq!(
                    *repeat,
                    setup.signature_of(&device.cut, seed + i).unwrap(),
                    "seed {seed}"
                );
            }
            for entry in batched_sig.entries() {
                (ever_set, always_set) = (ever_set | entry.code.0, always_set & entry.code.0);
            }
        }
        let all = (1u32 << setup.partition.bits()) - 1;
        assert_eq!(ever_set & !always_set, all, "every monitor's bit must flip in the lot");
    }

    #[test]
    fn non_monotone_y_gate_models_stay_on_exact_evaluation() {
        use xy_monitor::ZonePartition;
        let nmos = MosParams::nmos_65nm(1.8e-6, 180e-9);
        let inputs = [
            MonitorInput::YAxis,
            MonitorInput::Dc(0.0),
            MonitorInput::XAxis,
            MonitorInput::Dc(0.0),
        ];
        // Strongly negative channel-length modulation turns the Y-gate
        // current over at 1/3 V of overdrive, so y crosses this boundary
        // twice where x is low; a slope factor in (0, 1) makes the
        // subthreshold current fall as y rises.
        let turning = [MosParams { lambda: -2.0, ..nmos }; 4];
        let mut sinking = [nmos; 4];
        sinking[0].subthreshold_n = 0.5;
        let monitors = [turning, sinking]
            .into_iter()
            .map(|transistors| CurrentComparator::new("non-monotone", transistors, inputs, 1.2).unwrap())
            .collect();
        let mut setup = table1_setup(2e6, true);
        setup.partition = ZonePartition::new(monitors).unwrap();
        let shared = SharedStimulus::new(&setup).unwrap();
        let x = shared.x_obs.samples();
        for step in 0..=40 {
            let y = vec![-0.5 + 0.05 * f64::from(step); x.len()];
            let codes = encode(&shared, &y);
            for k in 0..x.len() {
                assert_eq!(codes[k], setup.partition.zone_code(x[k], y[k]), "sample {k} y {}", y[k]);
            }
        }
        let devices = lot(3);
        let batched = capture_signatures_batch(&setup, &shared, &devices).unwrap();
        for (device, batched_sig) in devices.iter().zip(&batched) {
            assert_eq!(
                *batched_sig,
                setup.signature_of(&device.cut, device.noise_seed).unwrap()
            );
        }
        assert!(shared.thresholds.iter().all(Option::is_none));
    }

    /// The float nearest `end + outward·distance`, stepped until its
    /// distance from `end`, as [`YThresholds::beyond`] computes it, is at
    /// least `distance` (`away`) or at most `distance` (otherwise): a probe
    /// on the intended side of the widened band edge despite the rounding
    /// of the probe itself.
    fn probe(end: f64, outward: f64, distance: f64, away: bool) -> f64 {
        let mut y = end + outward * distance;
        let step = |y: f64, sign: f64| if sign > 0.0 { y.next_up() } else { y.next_down() };
        while away && outward * (y - end) < distance {
            y = step(y, outward);
        }
        while !away && outward * (y - end) > distance {
            y = step(y, -outward);
        }
        y
    }

    #[test]
    fn widened_bands_leave_every_doubtful_table1_bit_to_the_exact_path() {
        for (rate, bandwidth) in [(2e6, true), (5e6, false)] {
            let setup = table1_setup(rate, bandwidth);
            let shared = SharedStimulus::new(&setup).unwrap();
            let mut y = Vec::new();
            let mut scratch = CaptureScratch::default();
            let bound = certified_y(&shared, &setup, &BiquadParams::paper_default(), 0, &mut y);
            assert!(bound > 0.0 && bound < 1e-14, "bound {bound:e}");
            assert!(
                shared.encode_certified(&y, bound, &mut scratch),
                "the nominal device is decided"
            );
            let mut probed = 0;
            for (m, table) in shared.thresholds.iter().enumerate() {
                let table = table.as_ref().unwrap();
                for (k, &[lo, hi]) in table.bands.iter().enumerate() {
                    for (end, outward) in [(hi, 1.0), (lo, -1.0)] {
                        if !end.is_finite() {
                            continue;
                        }
                        probed += 1;
                        for scale in [0.5, 0.99, 1.01, 2.0] {
                            let yk = probe(end, outward, scale * bound, scale > 1.0);
                            let (above, below) = YThresholds::beyond([lo, hi], yk, bound);
                            let at = format!("monitor {m} sample {k} edge {end} scale {scale}");
                            if scale < 1.0 {
                                assert!(!(above | below), "{at}: decided inside the widened band");
                                let mut doubtful = y.clone();
                                doubtful[k] = yk;
                                assert!(!shared.encode_certified(&doubtful, bound, &mut scratch), "{at}");
                            } else {
                                assert!(above ^ below, "{at}: left undecided beyond the widened band");
                                let bit = above ^ table.below;
                                assert_eq!(shared.exact_bit(m, k, yk - bound), bit, "{at}");
                                assert_eq!(shared.exact_bit(m, k, yk + bound), bit, "{at}");
                            }
                        }
                    }
                }
            }
            assert!(probed > 2 * shared.samples(), "only {probed} finite band edges");
        }
    }

    #[test]
    fn certified_response_stays_within_its_bound_on_table1_lots() {
        for (rate, bandwidth) in [(2e6, true), (5e6, false)] {
            for noise in [NoiseModel::none(), NoiseModel::paper_default()] {
                let setup = table1_setup(rate, bandwidth).with_noise(noise);
                let shared = SharedStimulus::new(&setup).unwrap();
                let (mut certified, mut exact) = (Vec::new(), Vec::new());
                for device in lot(9) {
                    let seed = device.noise_seed;
                    let bound = certified_y(&shared, &setup, &device.cut, seed, &mut certified);
                    shared.exact_response(&setup, &device.cut, &mut exact).unwrap();
                    observe_in_place(&setup, &mut exact, y_stream(seed), shared.x_obs.dt());
                    assert_eq!(exact, setup.observe(&device.cut, seed).1.samples());
                    let gap = certified
                        .iter()
                        .zip(&exact)
                        .map(|(a, b)| (a - b).abs())
                        .fold(0.0, f64::max);
                    assert!(gap <= bound, "f0 {}: gap {gap:e} above {bound:e}", device.cut.f0_hz);
                    assert!(bound < 1e-14, "{noise:?}: bound {bound:e}");
                }
            }
        }
    }

    #[test]
    fn exact_syntheses_count_the_devices_left_to_the_exact_path() {
        let bank = StimulusBank::with_capacity(1);
        let devices = lot(7);
        let table1 = table1_setup(2e6, true);
        let shared = bank.shared_for(&table1).unwrap();
        capture_signatures_batch(&table1, &shared, &devices).unwrap();
        assert_eq!(
            shared.exact_syntheses(),
            0,
            "a Table I lot is decided by the certified synthesis"
        );
        // A noisy Table I lot is decided by the certified synthesis and the
        // flip-curve tables, which the first noisy capture builds.
        assert!(
            shared.flip_curves.get().is_none(),
            "noiseless capture builds no flip curves"
        );
        capture_signatures_batch(
            &table1.clone().with_noise(NoiseModel::paper_default()),
            &shared,
            &devices,
        )
        .unwrap();
        assert!(shared.flip_curves.get().is_some());
        assert_eq!(bank.exact_syntheses(), 0);
        // A monitor without a threshold table sends every device exact, and
        // so does a monitor without a flip curve on the noisy path.
        let custom = custom_setup();
        let custom_shared = bank.shared_for(&custom).unwrap();
        assert!(custom_shared.tones.is_none());
        capture_signatures_batch(&custom, &custom_shared, &devices).unwrap();
        assert_eq!(custom_shared.exact_syntheses(), 7);
        let noisy_custom = custom.with_noise(NoiseModel::paper_default());
        capture_signatures_batch(&noisy_custom, &custom_shared, &devices).unwrap();
        assert_eq!(custom_shared.exact_syntheses(), 14);
        // The bank's total survives the entry's eviction.
        assert_eq!(bank.exact_syntheses(), 14);
        bank.shared_for(&table1).unwrap();
        assert_eq!(bank.evictions(), 2);
        assert_eq!(bank.exact_syntheses(), 14);
    }

    /// `repeats` measurements of one device through batched capture: one
    /// batch entry per repeat seed, as the engine captures retest repeats.
    fn batched_repeats(
        setup: &TestSetup,
        shared: &SharedStimulus,
        cut: BiquadParams,
        repeats: u64,
        base_seed: u64,
    ) -> Vec<Signature> {
        let entries: Vec<BatchDevice> = (0..repeats)
            .map(|i| BatchDevice::new(cut, base_seed.wrapping_add(i)))
            .collect();
        capture_signatures_batch(setup, shared, &entries).unwrap()
    }

    /// Table I plus a monitor whose X gates sit on both branches, so its bit
    /// is not monotone in x: it has a threshold table but no flip curve.
    fn split_x_setup() -> TestSetup {
        use xy_monitor::ZonePartition;
        let nmos = MosParams::nmos_65nm(1.8e-6, 180e-9);
        let split_x = CurrentComparator::new(
            "split-x",
            [nmos.with_width(3e-6), nmos, nmos.with_width(1e-6), nmos],
            [
                MonitorInput::YAxis,
                MonitorInput::XAxis,
                MonitorInput::XAxis,
                MonitorInput::Dc(0.45),
            ],
            1.2,
        )
        .unwrap();
        let mut setup = table1_setup(2e6, true).with_noise(NoiseModel::paper_default());
        let mut monitors = setup.partition.monitors().to_vec();
        monitors.push(split_x);
        setup.partition = ZonePartition::new(monitors).unwrap();
        setup
    }

    #[test]
    fn noisy_fallbacks_stay_bit_identical_and_count_their_recaptures() {
        let with_noise = |sigma: f64, mean: f64| table1_setup(2e6, true).with_noise(NoiseModel { sigma, mean });
        // (setup, name, whether every capture must go exact)
        let cases = [
            (split_x_setup(), "X gates on both branches", true),
            (
                custom_setup().with_noise(NoiseModel::paper_default()),
                "Y on both branches",
                true,
            ),
            (with_noise(f64::NAN, 0.0), "σ = NaN", true),
            (with_noise(f64::INFINITY, 0.0), "σ = +inf", true),
            (with_noise(f64::NEG_INFINITY, 0.0), "σ = -inf", true),
            // x's noise bound is far above a grid step.
            (with_noise(1e300, 0.0), "σ = 1e300 V", true),
            (with_noise(0.0, 0.01), "mean only", false),
        ];
        let devices = lot(4);
        for (setup, name, all_exact) in cases {
            let shared = SharedStimulus::new(&setup).unwrap();
            let batched = capture_signatures_batch(&setup, &shared, &devices).unwrap();
            for (device, batched_sig) in devices.iter().zip(&batched) {
                let seed = device.noise_seed;
                assert_eq!(*batched_sig, setup.signature_of(&device.cut, seed).unwrap(), "{name}");
                let repeats = batched_repeats(&setup, &shared, device.cut, 3, seed);
                assert_eq!(
                    repeats,
                    setup.signatures_of_repeats(&device.cut, 3, seed).unwrap(),
                    "{name}"
                );
            }
            let captures = devices.len() as u64 * 4;
            if all_exact {
                assert_eq!(shared.exact_syntheses(), captures, "{name}: every capture goes exact");
            }
            if name == "mean only" {
                assert_eq!(
                    shared.exact_syntheses(),
                    0,
                    "{name}: the certified path decides a shifted x"
                );
            }
        }
        // One monitor without a flip curve leaves the setup without tables.
        let split_x = split_x_setup();
        assert!(SharedStimulus::new(&split_x)
            .unwrap()
            .flip_curves(&split_x.partition)
            .is_none());
    }

    #[test]
    fn noisy_lots_with_flip_curves_and_their_repeats_are_decided_without_recapture() {
        let noisy_table1 = |rate, bandwidth| table1_setup(rate, bandwidth).with_noise(NoiseModel::paper_default());
        // Table I with and without the filter, and custom monitors with Y on
        // the right branch, X through two drive models, and no subthreshold
        // term.
        for (setup, name) in [
            (noisy_table1(2e6, true), "Table I, 2 MS/s, filter"),
            (noisy_table1(5e6, false), "Table I, 5 MS/s"),
            (monotone_custom_setup(), "custom"),
            (twelve_monitor_setup(), "Table I and custom, two blocks of lanes"),
        ] {
            let shared = SharedStimulus::new(&setup).unwrap();
            let devices = lot(6);
            let batched = capture_signatures_batch(&setup, &shared, &devices).unwrap();
            for (device, batched_sig) in devices.iter().zip(&batched) {
                let seed = device.noise_seed;
                assert_eq!(*batched_sig, setup.signature_of(&device.cut, seed).unwrap(), "{name}");
                let repeats = batched_repeats(&setup, &shared, device.cut, 2, seed);
                assert_eq!(
                    repeats,
                    setup.signatures_of_repeats(&device.cut, 2, seed).unwrap(),
                    "{name}"
                );
            }
            assert_eq!(shared.exact_syntheses(), 0, "{name}");
            assert!(
                shared.flip_curves(&setup.partition).is_some(),
                "{name}: every monitor has a flip curve"
            );
        }
    }

    /// The flip key at `x` of monitor `m` bracketed by the band `[lo, hi]`:
    /// the exact bit reads `below` at `lo` and the opposite at `hi`, where
    /// each end is finite.
    fn brackets(shared: &SharedStimulus, m: usize, below: bool, x: f64, [lo, hi]: [f64; 2]) -> bool {
        (!lo.is_finite() || shared.slots.bit_at_point(m, x, lo) == below)
            && (!hi.is_finite() || shared.slots.bit_at_point(m, x, hi) != below)
    }

    #[test]
    fn flip_curve_bands_hold_the_flip_point_of_every_x_within_a_grid_step_of_their_cell() {
        for setup in [table1_setup(2e6, true), monotone_custom_setup()] {
            let shared = SharedStimulus::new(&setup).unwrap();
            let curves = shared.flip_curves(&setup.partition).unwrap();
            let points = curves.grid().points();
            let cells = points.len() - 3;
            let mut probed = 0;
            for m in 0..setup.partition.monitors().len() {
                let below = curves.below(m);
                for cell in (0..cells).step_by(3) {
                    let band = curves.band(cell, m);
                    // From one grid point below the cell to one above it,
                    // both ends and points between.
                    let (from, to) = (points[cell], points[cell + 3]);
                    for step in 0..=6 {
                        let x = from + (to - from) * f64::from(step) / 6.0;
                        assert!(
                            brackets(&shared, m, below, x, band),
                            "monitor {m} cell {cell} x {x} band {band:?}"
                        );
                        probed += 1;
                    }
                    let center = (points[cell + 1] + points[cell + 2]) / 2.0;
                    let mut rows = Vec::new();
                    curves.rows_of(&[center], &mut rows);
                    assert_eq!(rows, [cell as u32]);
                }
            }
            assert!(probed > 5_000, "only {probed} probes");
        }
    }

    #[test]
    fn flip_curve_bands_leave_every_doubtful_noisy_bit_to_the_two_point_check() {
        let setup = table1_setup(2e6, true).with_noise(NoiseModel::paper_default());
        let shared = SharedStimulus::new(&setup).unwrap();
        let curves = shared.flip_curves(&setup.partition).unwrap();
        let bound = certified_y(&shared, &setup, &BiquadParams::paper_default(), 5, &mut Vec::new());
        assert!(bound > 0.0 && bound < 1e-14, "bound {bound:e}");
        let points = curves.grid().points();
        let cells = points.len() - 3;
        let mut probed = 0;
        for m in 0..6 {
            let below = curves.below(m);
            for cell in (0..cells).step_by(7) {
                let x = (points[cell + 1] + points[cell + 2]) / 2.0;
                let [lo, hi] = curves.band(cell, m);
                for (end, outward) in [(hi, 1.0), (lo, -1.0)] {
                    if !end.is_finite() {
                        continue;
                    }
                    probed += 1;
                    for scale in [0.5, 0.99, 1.01, 2.0] {
                        let yk = probe(end, outward, scale * bound, scale > 1.0);
                        let (bits, doubtful) = decide_at(curves, x, yk, bound);
                        let at = format!("monitor {m} cell {cell} edge {end} scale {scale}");
                        assert_eq!(bits >> 6, 0, "{at}: a padded lane decided a bit");
                        if scale < 1.0 {
                            assert_eq!(doubtful >> m & 1, 1, "{at}: decided inside the widened band");
                        } else {
                            assert_eq!(doubtful >> m & 1, 0, "{at}: left in doubt beyond the widened band");
                            let bit = bits >> m & 1 == 1;
                            assert_eq!(bit, (outward > 0.0) ^ below, "{at}");
                            assert_eq!(shared.slots.bit_at_point(m, x, yk - bound), bit, "{at}");
                            assert_eq!(shared.slots.bit_at_point(m, x, yk + bound), bit, "{at}");
                        }
                    }
                }
            }
            // Outside the grid, or at a non-finite x, every bit is doubtful:
            // the sentinel row decides nothing.
            let (lowest, highest) = curves.grid().span();
            for x in [lowest - 1.0, highest + 1.0, f64::NAN, f64::INFINITY] {
                for y in [-1e300, 0.5, 1e300] {
                    assert_eq!(decide_at(curves, x, y, bound), (0, 0b11_1111), "x {x} y {y}");
                }
            }
        }
        assert!(probed > 6 * (cells / 7), "only {probed} finite band edges");
    }

    #[test]
    fn observation_carries_a_certified_gap_within_a_factor_two_of_its_worst_case() {
        let rate = 2e6;
        let cases = [
            (NoiseModel::none(), true),
            (NoiseModel::paper_default(), true),
            (NoiseModel::paper_default(), false),
            (NoiseModel::new(0.2), true),
        ];
        for (noise, bandwidth) in cases {
            let setup = table1_setup(rate, bandwidth).with_noise(noise);
            let shared = SharedStimulus::new(&setup).unwrap();
            let dt = shared.x_obs.dt();
            let mut exact = Vec::new();
            shared
                .exact_response(&setup, &BiquadParams::paper_default(), &mut exact)
                .unwrap();
            for offset in [1e-9, 3e-13] {
                // A constant offset passes the filter unchanged: the worst
                // case of the carried gap.
                let mut certified: Vec<f64> = exact.iter().map(|v| v + offset).collect();
                let gap = certified
                    .iter()
                    .zip(&exact)
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0, f64::max);
                let bound = observe_and_filter(&setup, &mut certified, gap, y_stream(9), dt);
                let mut reference = exact.clone();
                observe_in_place(&setup, &mut reference, y_stream(9), dt);
                let carried = certified
                    .iter()
                    .zip(&reference)
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0, f64::max);
                let at = format!("{noise:?} bandwidth {bandwidth} offset {offset:e}");
                assert!(carried <= bound, "{at}: gap {carried:e} above {bound:e}");
                assert!(carried > bound / 2.0, "{at}: gap {carried:e} below half of {bound:e}");
            }
        }
    }

    #[test]
    fn observation_bounds_cover_the_approximate_noise_of_both_streams() {
        // No gap before the noise: the certified streams are the exact
        // path's synthesis, so what the bound must cover is the approximate
        // noise alone, then the filter, on x and on y.
        let rate = 2e6;
        for sigma in [5e-3, 0.2, 1.0] {
            for bandwidth in [true, false] {
                let setup = table1_setup(rate, bandwidth).with_noise(NoiseModel::new(sigma));
                let shared = SharedStimulus::new(&setup).unwrap();
                let dt = shared.x_obs.dt();
                let mut y = Vec::new();
                shared
                    .exact_response(&setup, &BiquadParams::paper_default(), &mut y)
                    .unwrap();
                for seed in 0..64 {
                    for (raw, stream) in [(shared.x_raw.samples(), x_stream(seed)), (&y[..], y_stream(seed))] {
                        let mut certified = raw.to_vec();
                        let bound = observe_and_filter(&setup, &mut certified, 0.0, stream, dt);
                        let mut reference = raw.to_vec();
                        observe_in_place(&setup, &mut reference, stream, dt);
                        for (k, (a, b)) in certified.iter().zip(&reference).enumerate() {
                            let at = format!("σ {sigma} bandwidth {bandwidth} stream {stream} sample {k}");
                            assert!((a - b).abs() <= bound, "{at}: {:e} above {bound:e}", (a - b).abs());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn observations_whose_magnitudes_could_overflow_a_sum_have_no_bound() {
        // σ = 0 with a mean of 1e306 V: every observed sample is finite, but
        // the sum of 400 magnitudes overflows. A NaN or infinite mean makes
        // every sample non-finite.
        for mean in [1e306, f64::NAN, f64::INFINITY] {
            let setup = table1_setup(2e6, true).with_noise(NoiseModel { sigma: 0.0, mean });
            let shared = SharedStimulus::new(&setup).unwrap();
            for (raw, stream) in [
                (shared.x_raw.samples(), x_stream(3)),
                (shared.x_obs.samples(), y_stream(3)),
            ] {
                let mut samples = raw.to_vec();
                let carried = observe_certified(&setup, &mut samples, 0.0, stream, &mut Vec::new());
                assert!(carried.is_none(), "mean {mean:e}: {carried:?}");
                assert_eq!(samples.iter().all(|v| v.is_finite()), mean.is_finite(), "mean {mean:e}");
            }
            let devices = lot(5);
            let batched = capture_signatures_batch(&setup, &shared, &devices).unwrap();
            assert_eq!(shared.exact_syntheses(), 5, "mean {mean:e}: every device is recaptured");
            for (device, batched_sig) in devices.iter().zip(&batched) {
                let seed = device.noise_seed;
                assert_eq!(
                    *batched_sig,
                    setup.signature_of(&device.cut, seed).unwrap(),
                    "mean {mean:e}"
                );
            }
        }
        // One NaN or infinite sample leaves no bound on either path.
        for setup in [
            table1_setup(2e6, true),
            table1_setup(2e6, true).with_noise(NoiseModel::paper_default()),
        ] {
            let raw = SharedStimulus::new(&setup).unwrap().x_raw.samples().to_vec();
            for at in [0, 7, 200, raw.len() - 1] {
                for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                    let mut samples = raw.clone();
                    samples[at] = bad;
                    assert!(observe_certified(&setup, &mut samples, 0.0, 9, &mut Vec::new()).is_none());
                }
            }
        }
        // Finite samples whose sum cannot overflow give the exact largest
        // magnitude, and one NaN or infinity gives none, from a lane or from
        // the tail past the last eight.
        for len in [1, 7, 8, 9, 400, 403] {
            for at in [0, len / 2, len - 1] {
                let mut samples: Vec<f64> = (0..len).map(|k| (k % 13) as f64 * -1e-3).collect();
                samples[at] = -0.75;
                assert_eq!(bounded_peak(&samples), Some(0.75), "length {len} at {at}");
                for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                    samples[at] = bad;
                    assert_eq!(bounded_peak(&samples), None, "length {len} at {at}: {bad}");
                }
            }
        }
        assert_eq!(bounded_peak(&[]), Some(0.0));
        assert_eq!(bounded_peak(&[1e306; 8]), Some(1e306));
        assert_eq!(bounded_peak(&[f64::MAX / 1e3; 1000]), None);
    }

    #[test]
    fn devices_without_a_deciding_bound_are_captured_exactly() {
        // A phase of 1e17 rad makes the reference round its sine argument by
        // volts, so the bound leaves every bit in doubt; a NaN amplitude
        // leaves no bound at all, and no finite x range for flip curves.
        let tones = [ToneSpec::new(3, 0.14).with_phase(1e17), ToneSpec::new(3, f64::NAN)];
        for (tone, noise) in tones
            .into_iter()
            .flat_map(|tone| [NoiseModel::none(), NoiseModel::paper_default()].map(|noise| (tone, noise)))
        {
            let mut setup = table1_setup(2e6, true).with_noise(noise);
            let mut tones = setup.stimulus.tones().to_vec();
            tones[1] = tone;
            setup.stimulus = MultitoneSpec::new(5_000.0, 0.5, tones).unwrap();
            let shared = SharedStimulus::new(&setup).unwrap();
            assert!(shared.tones.is_some());
            let devices = lot(3);
            let batched = capture_signatures_batch(&setup, &shared, &devices).unwrap();
            assert_eq!(shared.exact_syntheses(), 3, "{tone:?} {noise:?}");
            for (device, batched_sig) in devices.iter().zip(&batched) {
                assert_eq!(
                    *batched_sig,
                    setup.signature_of(&device.cut, device.noise_seed).unwrap()
                );
            }
        }
    }

    #[test]
    fn empty_stimulus_rejected() {
        // A sample rate so low that one period resolves zero samples. The
        // validated constructor refuses such rates, so build the setup field
        // by hand.
        let mut degenerate = setup();
        degenerate.sample_rate = 1.0;
        assert!(SharedStimulus::new(&degenerate).is_err());
    }
}
