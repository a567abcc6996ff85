//! Scale audit of batched capture: certified synthesis, certified noisy
//! capture and retest repeats as batch entries, each checked bit for bit
//! against the per-device reference on Monte-Carlo Table I lots.
//!
//! For every sample rate (1, 2 and 5 MS/s), front-end filter (on, off) and
//! noise model (none, the paper's), a lot of `DEVICES` devices (f0 σ 3 %)
//! is captured:
//!
//! * every device through `capture_signatures_batch`, in calls of an odd
//!   number of devices (`CHUNK`), which must equal its
//!   `TestSetup::signature_of` signature;
//! * the first 256 devices' retest repeats as batch entries, one per
//!   repeat seed, in the shapes the campaign runner captures them under the
//!   schedule `[2, 6]`: one batch holding repeats 0–1 of every audited
//!   device, and one holding repeats 2–5 of every other audited device (the
//!   devices whose walk goes on). Each entry must equal
//!   `TestSetup::signatures_of_repeats` over all 6 and its own repeat seed's
//!   `TestSetup::signature_of`, and the per-device path's slice of repeats
//!   2–5 (`signatures_of_repeats` from the seed of repeat 2) must equal
//!   repeats 2–5.
//!
//! The audit exits non-zero on any mismatch, and on any device or repeat
//! the batch recaptured on the exact path (`exact_syntheses`): Table I lots
//! are expected to be decided by the certified tables alone.
//!
//! Run with: `cargo run --release -p repro-bench --bin capture_audit [-- DEVICES]`
//! (2,048 devices by default; CI runs 64).

use std::process::ExitCode;
use std::time::Instant;

use cut_filters::BiquadParams;
use dsig_core::{
    capture_signatures_batch, retest_seed, AcceptanceBand, BatchDevice, DsigError, SharedStimulus, Signature,
    StimulusBank, TestSetup,
};
use dsig_engine::{Campaign, DevicePopulation, DeviceSpec};
use sim_signal::NoiseModel;

/// Devices per lot when no count is given.
const DEFAULT_DEVICES: usize = 2048;
/// Devices per lot whose retest repeats are audited.
const REPEAT_DEVICES: usize = 256;
/// Retest repeats per audited device: the cap of the schedule `[2, 6]`.
const REPEATS: usize = 6;
/// Repeats of the schedule's first step.
const FIRST_STEP: usize = 2;
/// Standard deviation of the lot's f0 deviation, percent.
const SIGMA_PCT: f64 = 3.0;
/// Devices per batched capture call: odd, so that noiseless capture, which
/// takes devices two at a time, ends every chunk of a full lot, and the lot
/// of CI's 64-device run, with a single device.
const CHUNK: usize = 63;

/// What one lot's audit found.
struct Findings {
    mismatches: usize,
    repeat_mismatches: usize,
    exact_syntheses: u64,
}

impl Findings {
    fn clean(&self) -> bool {
        self.mismatches == 0 && self.repeat_mismatches == 0 && self.exact_syntheses == 0
    }
}

fn audit(setup: &TestSetup, devices: usize) -> Result<Findings, DsigError> {
    let campaign = Campaign::new(
        setup.clone(),
        BiquadParams::paper_default(),
        DevicePopulation::MonteCarlo {
            devices,
            sigma_pct: SIGMA_PCT,
        },
        AcceptanceBand::new(0.03)?,
        3.0,
    )?;
    let specs = (0..devices)
        .map(|i| campaign.device(i))
        .collect::<Result<Vec<_>, _>>()?;
    let shared = StimulusBank::new().shared_for(setup)?;

    let mut mismatches = 0;
    for chunk in specs.chunks(CHUNK) {
        let batch: Vec<BatchDevice> = chunk.iter().map(|s| BatchDevice::new(s.cut, s.noise_seed)).collect();
        for (spec, batched) in chunk.iter().zip(capture_signatures_batch(setup, &shared, &batch)?) {
            if batched != setup.signature_of(&spec.cut, spec.noise_seed)? {
                mismatches += 1;
            }
        }
    }

    // The runner's two step shapes: every audited device's first step in
    // one batch, the rest of the cap of every other device in a second.
    let audited = &specs[..specs.len().min(REPEAT_DEVICES)];
    let first_step = capture_repeats(setup, &shared, audited.iter(), 0..FIRST_STEP)?;
    let second_step = capture_repeats(setup, &shared, audited.iter().step_by(2), FIRST_STEP..REPEATS)?;
    let mut first_step = first_step.chunks(FIRST_STEP);
    let mut second_step = second_step.chunks(REPEATS - FIRST_STEP);
    let mut repeat_mismatches = 0;
    for (at, spec) in audited.iter().enumerate() {
        let seed = retest_seed(spec.noise_seed);
        let repeats = setup.signatures_of_repeats(&spec.cut, REPEATS, seed)?;
        let mut batched = first_step.next().expect("one first step per audited device").to_vec();
        if at % 2 == 0 {
            batched.extend_from_slice(second_step.next().expect("one second step per escalated device"));
            let slice =
                setup.signatures_of_repeats(&spec.cut, REPEATS - FIRST_STEP, seed.wrapping_add(FIRST_STEP as u64))?;
            repeat_mismatches += slice.iter().zip(&repeats[FIRST_STEP..]).filter(|(a, b)| a != b).count();
        }
        for ((i, batched), repeat) in (0u64..).zip(&batched).zip(&repeats) {
            if batched != repeat || *batched != setup.signature_of(&spec.cut, seed.wrapping_add(i))? {
                repeat_mismatches += 1;
            }
        }
    }

    Ok(Findings {
        mismatches,
        repeat_mismatches,
        exact_syntheses: shared.exact_syntheses(),
    })
}

/// Repeats `range` of each device, as entries of one batched capture call
/// in device order, repeat `i` seeded `retest_seed(noise_seed) + i`.
fn capture_repeats<'a>(
    setup: &TestSetup,
    shared: &SharedStimulus,
    specs: impl Iterator<Item = &'a DeviceSpec>,
    range: std::ops::Range<usize>,
) -> Result<Vec<Signature>, DsigError> {
    let batch: Vec<BatchDevice> = specs
        .flat_map(|spec| {
            let seed = retest_seed(spec.noise_seed);
            range
                .clone()
                .map(move |i| BatchDevice::new(spec.cut, seed.wrapping_add(i as u64)))
        })
        .collect();
    capture_signatures_batch(setup, shared, &batch)
}

fn run(devices: usize) -> Result<bool, DsigError> {
    let audited = devices.min(REPEAT_DEVICES);
    println!(
        "capture audit: Monte-Carlo Table I lots of {devices} devices (f0 sigma {SIGMA_PCT} %); \
         retest repeats 0-{} of {audited} devices in one batch, {}-{} of {} in a second",
        FIRST_STEP - 1,
        FIRST_STEP,
        REPEATS - 1,
        audited.div_ceil(2)
    );
    println!(
        "{:>8} {:>7} {:>6} {:>11} {:>17} {:>16} {:>8}",
        "MS/s", "filter", "noise", "mismatches", "repeat mismatches", "exact recaptures", "seconds"
    );
    let mut clean = true;
    for rate in [1e6, 2e6, 5e6] {
        for filter in [true, false] {
            for noisy in [false, true] {
                let mut setup = TestSetup::paper_default()?.with_sample_rate(rate)?;
                if !filter {
                    setup.monitor_bandwidth_hz = None;
                }
                if noisy {
                    setup = setup.with_noise(NoiseModel::paper_default());
                }
                let started = Instant::now();
                let findings = audit(&setup, devices)?;
                println!(
                    "{:>8} {:>7} {:>6} {:>11} {:>17} {:>16} {:>8.1}",
                    rate / 1e6,
                    if filter { "on" } else { "off" },
                    if noisy { "paper" } else { "none" },
                    findings.mismatches,
                    findings.repeat_mismatches,
                    findings.exact_syntheses,
                    started.elapsed().as_secs_f64()
                );
                clean &= findings.clean();
            }
        }
    }
    Ok(clean)
}

fn main() -> ExitCode {
    let devices = match std::env::args().nth(1).map(|arg| arg.parse::<usize>()) {
        None => DEFAULT_DEVICES,
        Some(Ok(devices)) if devices > 0 => devices,
        _ => {
            eprintln!("usage: capture_audit [DEVICES]   (a positive device count, {DEFAULT_DEVICES} by default)");
            return ExitCode::from(2);
        }
    };
    match run(devices) {
        Ok(true) => {
            println!("capture audit: PASS (no mismatch, no exact recapture)");
            ExitCode::SUCCESS
        }
        Ok(false) => {
            println!("capture audit: FAIL");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("capture audit: error: {e}");
            ExitCode::FAILURE
        }
    }
}
