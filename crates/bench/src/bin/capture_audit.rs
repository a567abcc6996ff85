//! Scale audit of batched capture: certified synthesis, certified noisy
//! capture and retest repeats as batch entries, each checked bit for bit
//! against the per-device reference on Monte-Carlo Table I lots.
//!
//! For every sample rate (1, 2 and 5 MS/s), front-end filter (on, off) and
//! noise model (none, the paper's), a lot of `DEVICES` devices (f0 σ 3 %)
//! is captured:
//!
//! * every device through `capture_signatures_batch`, which must equal its
//!   `TestSetup::signature_of` signature;
//! * the first 256 devices' 6 retest repeats as batch entries, one per
//!   repeat seed, which must equal `TestSetup::signatures_of_repeats` and
//!   each repeat seed's `TestSetup::signature_of`.
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
    capture_signatures_batch, retest_seed, AcceptanceBand, BatchDevice, DsigError, StimulusBank, TestSetup,
};
use dsig_engine::{Campaign, DevicePopulation};
use sim_signal::NoiseModel;

/// Devices per lot when no count is given.
const DEFAULT_DEVICES: usize = 2048;
/// Devices per lot whose retest repeats are audited.
const REPEAT_DEVICES: usize = 256;
/// Retest repeats per audited device.
const REPEATS: usize = 6;
/// Standard deviation of the lot's f0 deviation, percent.
const SIGMA_PCT: f64 = 3.0;
/// Devices per batched capture call.
const CHUNK: usize = 64;

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

    let mut repeat_mismatches = 0;
    for spec in specs.iter().take(REPEAT_DEVICES) {
        let seed = retest_seed(spec.noise_seed);
        let batch: Vec<BatchDevice> = (0..REPEATS as u64)
            .map(|i| BatchDevice::new(spec.cut, seed.wrapping_add(i)))
            .collect();
        let batched = capture_signatures_batch(setup, &shared, &batch)?;
        let repeats = setup.signatures_of_repeats(&spec.cut, REPEATS, seed)?;
        for ((device, batched), repeat) in batch.iter().zip(&batched).zip(&repeats) {
            if batched != repeat || *batched != setup.signature_of(&device.cut, device.noise_seed)? {
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

fn run(devices: usize) -> Result<bool, DsigError> {
    println!(
        "capture audit: Monte-Carlo Table I lots of {devices} devices (f0 sigma {SIGMA_PCT} %), \
         {} x {REPEATS} retest repeats per lot",
        devices.min(REPEAT_DEVICES)
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
