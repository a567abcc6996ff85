//! The exact zone encoder (see the [module docs](super)): each monitor input
//! transistor is a slot — a constant DC current, or the transistor's own
//! [`GateGain`] applied to the [`GateDrive`] of its drive model — and the
//! drives are computed once per sample for each distinct drive model, not
//! once per transistor.

use sim_signal::lowpass_in_place;
use xy_monitor::{saturation_current, GateDrive, GateGain, MonitorInput, MosParams, ZonePartition};

use crate::capture::signature_from_codes;
use crate::error::Result;
use crate::flow::TestSetup;
use crate::signature::Signature;

/// One input-transistor term of a monitor.
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// DC-driven gate: one saturation current for every sample.
    Const(f64),
    /// X-driven gate: its gain applied to the drive of X model `drive`.
    X { drive: usize, gain: GateGain },
    /// Y-driven gate: its gain applied to the drive of Y model `drive`.
    Y { drive: usize, gain: GateGain },
}

/// The four input-transistor terms of one monitor, in `[M1, M2, M3, M4]`
/// order: M1 + M2 feed the left branch, M3 + M4 the right one.
#[derive(Debug, Clone)]
struct MonitorSlots {
    inverted: bool,
    slots: [Slot; 4],
}

impl MonitorSlots {
    /// `I_left − I_right` at one sample, given the drive of each X and Y
    /// model there: the branch currents summed in slot order, exactly as
    /// [`xy_monitor::CurrentComparator::current_difference`] does. Always
    /// inlined: it is the per-sample body of exact encoding.
    #[inline(always)]
    fn difference(&self, x: impl Fn(usize) -> GateDrive, y: impl Fn(usize) -> GateDrive) -> f64 {
        let term = |slot: &Slot| match *slot {
            Slot::Const(current) => current,
            Slot::X { drive, gain } => gain.current(&x(drive)),
            Slot::Y { drive, gain } => gain.current(&y(drive)),
        };
        let [s0, s1, s2, s3] = &self.slots;
        let left = term(s0) + term(s1);
        let right = term(s2) + term(s3);
        left - right
    }

    /// The monitor's output bit at one sample by exact evaluation.
    #[inline(always)]
    fn bit(&self, x: impl Fn(usize) -> GateDrive, y: impl Fn(usize) -> GateDrive) -> bool {
        (self.difference(x, y) > 0.0) ^ self.inverted
    }
}

/// The drives of a list of drive models over one sample stream, model-major.
#[derive(Debug, Clone, Default)]
pub(super) struct DriveStreams {
    samples: usize,
    drives: Vec<GateDrive>,
}

impl DriveStreams {
    /// Recomputes the streams of `models` on the samples `v`.
    pub(super) fn fill(&mut self, models: &[MosParams], v: &[f64]) {
        self.samples = v.len();
        self.drives.clear();
        for model in models {
            self.drives.extend(v.iter().map(|&vk| GateDrive::at(model, vk)));
        }
    }

    /// The drive of model `d` at sample `k`.
    #[inline(always)]
    fn at(&self, d: usize, k: usize) -> GateDrive {
        self.drives[d * self.samples + k]
    }
}

/// Buffers of capture, reused across the devices of a batch or the repeats
/// of one device: one observed pair, the uniforms of a noise stream, the
/// drive streams of the pair's models and its zone codes.
#[derive(Debug, Default)]
pub(crate) struct CaptureScratch {
    pub(super) x: Vec<f64>,
    y: Vec<f64>,
    pub(super) uniforms: Vec<f64>,
    x_drives: DriveStreams,
    pub(super) y_drives: DriveStreams,
    pub(super) codes: Vec<u32>,
}

/// The exact encoder of a monitor bank: the distinct drive models of its X-
/// and Y-driven gates ([`MosParams::shares_drive_with`]), each gate's gain
/// and drive model, and the constant current of each DC-driven gate.
#[derive(Debug, Clone)]
pub(crate) struct SlotTable {
    x_models: Vec<MosParams>,
    y_models: Vec<MosParams>,
    monitors: Vec<MonitorSlots>,
}

impl SlotTable {
    /// The slot table of a partition's monitors.
    pub(crate) fn new(partition: &ZonePartition) -> Self {
        let (mut x_models, mut y_models) = (Vec::new(), Vec::new());
        let monitors = partition
            .monitors()
            .iter()
            .map(|monitor| {
                let mut slots = [Slot::Const(0.0); 4];
                for (slot, (t, input)) in slots.iter_mut().zip(monitor.transistors.iter().zip(monitor.inputs)) {
                    let gain = GateGain::new(t);
                    *slot = match input {
                        MonitorInput::Dc(bias) => Slot::Const(saturation_current(t, bias)),
                        MonitorInput::XAxis => Slot::X {
                            drive: model_index(&mut x_models, t),
                            gain,
                        },
                        MonitorInput::YAxis => Slot::Y {
                            drive: model_index(&mut y_models, t),
                            gain,
                        },
                    };
                }
                MonitorSlots {
                    inverted: monitor.inverted,
                    slots,
                }
            })
            .collect();
        SlotTable {
            x_models,
            y_models,
            monitors,
        }
    }

    /// The distinct drive models of the X-driven gates.
    pub(super) fn x_models(&self) -> &[MosParams] {
        &self.x_models
    }

    /// The distinct drive models of the Y-driven gates.
    pub(super) fn y_models(&self) -> &[MosParams] {
        &self.y_models
    }

    /// Monitor `m`'s `I_left − I_right` at sample `k` of the X drive streams
    /// `x`, at an observed `y` whose drives are computed on demand: the
    /// single-point evaluation of the guard band and the threshold search.
    #[inline]
    pub(super) fn difference_at(&self, m: usize, x: &DriveStreams, k: usize, y: f64) -> f64 {
        self.monitors[m].difference(|d| x.at(d, k), |d| GateDrive::at(&self.y_models[d], y))
    }

    /// Monitor `m`'s bit at sample `k` of `x` and observed `y`, like
    /// [`SlotTable::difference_at`].
    #[inline]
    pub(super) fn bit_at(&self, m: usize, x: &DriveStreams, k: usize, y: f64) -> bool {
        self.monitors[m].bit(|d| x.at(d, k), |d| GateDrive::at(&self.y_models[d], y))
    }

    /// Monitor `m`'s bit at the observed point `(x, y)`, with the drives of
    /// both computed on demand: the exact evaluation of the samples a
    /// flip-curve table leaves in doubt.
    #[inline]
    pub(super) fn bit_at_point(&self, m: usize, x: f64, y: f64) -> bool {
        self.monitors[m].bit(
            |d| GateDrive::at(&self.x_models[d], x),
            |d| GateDrive::at(&self.y_models[d], y),
        )
    }

    /// Sets bit `m` of every code where monitor `m` reads 1, by exact
    /// evaluation over drive streams covering `codes.len()` samples.
    pub(super) fn encode_monitor(&self, m: usize, x: &DriveStreams, y: &DriveStreams, codes: &mut [u32]) {
        let monitor = &self.monitors[m];
        for (k, code) in codes.iter_mut().enumerate() {
            *code |= u32::from(monitor.bit(|d| x.at(d, k), |d| y.at(d, k))) << m;
        }
    }

    /// Captures one measurement of the synthesized pair `(x, y)` (equal
    /// lengths, sample period `dt`) by exact encoding: the noise realisation
    /// of `seed` and the front-end filter are applied to copies of both
    /// streams exactly as [`TestSetup::observe`] applies them, then every
    /// monitor is evaluated over the streams' drives.
    pub(crate) fn capture_measurement(
        &self,
        setup: &TestSetup,
        x: &[f64],
        y: &[f64],
        seed: u64,
        dt: f64,
        scratch: &mut CaptureScratch,
    ) -> Result<Signature> {
        let CaptureScratch {
            x: x_obs,
            y: y_obs,
            x_drives,
            y_drives,
            codes,
            ..
        } = scratch;
        for (observed, raw, stream_seed) in [(&mut *x_obs, x, x_stream(seed)), (&mut *y_obs, y, y_stream(seed))] {
            observed.clear();
            observed.extend_from_slice(raw);
            observe_in_place(setup, observed, stream_seed, dt);
        }
        x_drives.fill(&self.x_models, x_obs);
        y_drives.fill(&self.y_models, y_obs);
        codes.clear();
        codes.resize(y_obs.len(), 0);
        for m in 0..self.monitors.len() {
            self.encode_monitor(m, x_drives, y_drives, codes);
        }
        capture_codes(setup, codes, dt)
    }
}

/// The noise stream seed of a measurement's x: the seed
/// [`TestSetup::observe`] draws x's noise from.
pub(super) fn x_stream(seed: u64) -> u64 {
    seed.wrapping_mul(2)
}

/// The noise stream seed of a measurement's y.
pub(super) fn y_stream(seed: u64) -> u64 {
    seed.wrapping_mul(2).wrapping_add(1)
}

/// Applies a setup's measurement noise (stream `stream_seed`) and front-end
/// filter to one synthesized stream in place, as [`TestSetup::observe`]
/// applies them.
pub(super) fn observe_in_place(setup: &TestSetup, samples: &mut [f64], stream_seed: u64, dt: f64) {
    setup.noise.apply_in_place(samples, stream_seed);
    if let Some(bandwidth) = setup.monitor_bandwidth_hz {
        lowpass_in_place(samples, dt, bandwidth);
    }
}

/// The index of `t`'s drive model in `models`, appending it when new.
fn model_index(models: &mut Vec<MosParams>, t: &MosParams) -> usize {
    models
        .iter()
        .position(|model| model.shares_drive_with(t))
        .unwrap_or_else(|| {
            models.push(*t);
            models.len() - 1
        })
}

/// The signature of a zone-code stream: run-length counted, rounded to the
/// capture clock's ticks and deglitched, as [`TestSetup::signature_of`] does.
pub(super) fn capture_codes(setup: &TestSetup, codes: &[u32], dt: f64) -> Result<Signature> {
    let mut signature = signature_from_codes(codes.iter().copied(), dt, setup.clock.as_ref())?;
    signature.deglitch(setup.transition_min_dwell);
    Ok(signature)
}
