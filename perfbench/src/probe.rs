//! The machine-speed probe: a fixed piece of arithmetic, independent of the
//! program under test, timed between ops so every time the benchmark reports
//! can be expressed at one reference machine speed.
//!
//! On a shared host the CPU a run gets can be 30 % faster or slower for tens
//! of seconds at a time (another tenant on the sibling hardware thread, host
//! contention). Ops and the probe slow down together, so the probe's time
//! relative to its reference ([`REFERENCE_PROBE_US`]) is a slowness factor
//! that maps a measured time to the reference machine (`time / factor`) and
//! a measured rate to it (`rate × factor`). The probe's work is benchmark
//! code that no change to the program touches, so a change to the program
//! moves the normalized figures exactly as it moves the raw ones.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::stats::median;

/// The probe's time on the reference machine, µs: its median on an idle
/// 2-vCPU 2.1 GHz x86-64 guest. Only ratios to it matter.
pub const REFERENCE_PROBE_US: f64 = 240.0;
/// Samples the probe synthesizes per run: 32 KiB of `f64`, about the
/// working set of capturing one device (a period of samples, the shared
/// monitor current streams and the zone codes).
const PROBE_SAMPLES: usize = 4096;
/// Probe runs the current factor is the median of.
const RECENT: usize = 9;
/// Least time between two probe runs inside a timed phase.
const PROBE_EVERY: Duration = Duration::from_millis(20);

/// One probe run: tone synthesis into a buffer, an exponential
/// device-current law over it, a one-pole filter pass and a data-dependent
/// threshold pass — the same kinds of work, over about the same working
/// set, as capturing one device. Returns a checksum so nothing is elided.
fn probe_work(buf: &mut [f64]) -> f64 {
    for (k, v) in buf.iter_mut().enumerate() {
        let t = black_box(k as f64 * 1e-4);
        *v = (t * std::f64::consts::TAU).sin() * 0.4 + (t * 18.85 + 0.3).sin() * 0.2 + 0.5;
    }
    let mut acc = 0.0;
    for v in buf.iter_mut() {
        *v = (*v * 12.0 - 6.0).exp().ln_1p();
        acc += *v;
    }
    let mut state = buf[0];
    for v in buf.iter_mut() {
        state += 0.25 * (*v - state);
        *v = state;
    }
    let crossings = buf.windows(2).filter(|w| (w[0] > 0.5) != (w[1] > 0.5)).count();
    acc + crossings as f64
}

pub struct SpeedProbe {
    buf: Vec<f64>,
    recent: VecDeque<f64>,
    last: Option<Instant>,
}

impl Default for SpeedProbe {
    fn default() -> Self {
        SpeedProbe::new()
    }
}

impl SpeedProbe {
    pub fn new() -> SpeedProbe {
        SpeedProbe {
            buf: vec![0.0; PROBE_SAMPLES],
            recent: VecDeque::with_capacity(RECENT),
            last: None,
        }
    }

    /// Runs the probe once and records its time.
    pub fn sample(&mut self) {
        let started = Instant::now();
        black_box(probe_work(black_box(&mut self.buf)));
        let took = started.elapsed();
        self.last = Some(started + took);
        let factor = took.as_secs_f64() * 1e6 / REFERENCE_PROBE_US;
        if self.recent.len() == RECENT {
            self.recent.pop_front();
        }
        self.recent.push_back(factor);
    }

    /// Runs the probe if [`PROBE_EVERY`] has passed since its last run.
    pub fn sample_if_due(&mut self) {
        if self.last.is_none_or(|last| last.elapsed() >= PROBE_EVERY) {
            self.sample();
        }
    }

    /// Runs the probe `RECENT` times back to back, so [`SpeedProbe::factor`]
    /// reflects the machine right now.
    pub fn settle(&mut self) {
        for _ in 0..RECENT {
            self.sample();
        }
    }

    /// Slowness of the machine now relative to the reference: the median of
    /// the recent probe times over [`REFERENCE_PROBE_US`] (1.0 before any
    /// sample).
    pub fn factor(&self) -> f64 {
        let recent: Vec<f64> = self.recent.iter().copied().collect();
        median(&recent).unwrap_or(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_probe_work_is_deterministic() {
        let mut a = vec![0.0; PROBE_SAMPLES];
        let mut b = vec![1.0; PROBE_SAMPLES];
        assert_eq!(probe_work(&mut a).to_bits(), probe_work(&mut b).to_bits());
    }

    #[test]
    fn the_factor_is_the_median_of_recent_runs() {
        let mut probe = SpeedProbe::new();
        assert_eq!(probe.factor(), 1.0);
        probe.settle();
        assert_eq!(probe.recent.len(), RECENT);
        assert!(probe.factor() > 0.0);
        probe.recent = [1.0, 9.0, 2.0, 3.0, 100.0, 2.5, 2.0, 1.5, 2.2].into_iter().collect();
        assert_eq!(probe.factor(), 2.2);
    }
}
