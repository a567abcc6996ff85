//! Property test of the shared-stimulus batched capture fast path: over
//! random setups (sample rate, monitor bandwidth, capture clock, measurement
//! noise, stimulus) and random lots (f0 deviations, Q, gain, output tap,
//! seeds, batch sizes), batched capture must be bit-identical to the
//! per-device reference path — signature by signature, entry by entry. The
//! repeat fast path must likewise equal per-device capture under each
//! repeat's seed, and so must repeats captured as batch entries. About half
//! the generated setups are noiseless, so both the shared-x branch
//! (threshold-table encoding) and the per-device-x branch (flip-curve
//! encoding) are exercised, each with certified response synthesis.

use analog_signature::dsig::{
    capture_signatures_batch, BatchDevice, CaptureClock, SharedStimulus, StimulusBank, TestSetup,
};
use analog_signature::filters::{BiquadKind, BiquadParams};
use analog_signature::signal::{MultitoneSpec, NoiseModel, ToneSpec};
use proptest::prelude::*;

/// Sample rates the generator picks from: all resolve the stimulus
/// comfortably, and 5 MS/s is the paper's own rate.
const RATES: [f64; 5] = [0.5e6, 1.0e6, 1.5e6, 2.0e6, 5.0e6];

/// Materializes a random-but-valid observation setup from generated knobs.
fn setup_from(rate: f64, bandwidth_khz: u32, clock_bits: u32, noise_sigma_mv: f64) -> TestSetup {
    let mut setup = TestSetup::paper_default()
        .expect("setup")
        .with_sample_rate(rate)
        .expect("rate");
    // 0 disables the front-end bandwidth limit; otherwise 100..=420 kHz.
    setup.monitor_bandwidth_hz = if bandwidth_khz == 0 {
        None
    } else {
        Some(f64::from(bandwidth_khz) * 1e3)
    };
    // 0 disables the capture clock (dwells counted in samples).
    setup.clock = if clock_bits == 0 {
        None
    } else {
        Some(CaptureClock::new(10e6, clock_bits).expect("clock"))
    };
    setup.noise = NoiseModel::new(noise_sigma_mv * 1e-3);
    setup
}

/// The three Biquad output taps, indexed by a generated knob.
const KINDS: [BiquadKind; 3] = [BiquadKind::LowPass, BiquadKind::BandPass, BiquadKind::HighPass];

/// A multitone stimulus on the paper's 5 kHz fundamental from generated
/// tones `(harmonic, weight, phase)`: the weights share `swing` volts of
/// total amplitude around `offset`.
fn stimulus_from(tones: &[(u32, f64, f64)], offset: f64, swing: f64) -> MultitoneSpec {
    let weights: f64 = tones.iter().map(|&(_, weight, _)| weight).sum();
    let tones = tones
        .iter()
        .map(|&(harmonic, weight, phase)| ToneSpec::new(harmonic, swing * weight / weights).with_phase(phase))
        .collect();
    MultitoneSpec::new(5_000.0, offset, tones).expect("stimulus")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn batched_capture_equals_per_device_capture(
        knobs in (0usize..RATES.len(), 0u32..421, 0u32..13, prop::bool::ANY, 0.0..8.0f64),
        stimulus in (
            prop::collection::vec((1u32..51, 0.05..1.0f64, -12.0..12.0f64), 1..7),
            0.25..0.75f64,
            0.05..0.5f64,
            prop::bool::ANY,
        ),
        lot in prop::collection::vec((-18.0..18.0f64, 0u64..1_000_000, 0.3..5.0f64, 0.25..2.0f64, 0usize..3), 1..9),
    ) {
        let (rate_index, bandwidth_khz, clock_bits, noisy, noise_sigma_mv) = knobs;
        // Sub-100 kHz bandwidths would chop into the stimulus band itself;
        // clamp the generated value into {None} ∪ [100, 420] kHz.
        let bandwidth_khz = if bandwidth_khz < 100 { 0 } else { bandwidth_khz };
        // A σ drawn from a continuous range is almost never exactly zero, so
        // noiseless setups get their own coin flip.
        let noise_sigma_mv = if noisy { noise_sigma_mv } else { 0.0 };
        let mut setup = setup_from(RATES[rate_index], bandwidth_khz, clock_bits, noise_sigma_mv);
        // Half the cases keep the paper's stimulus; the others draw 1-6
        // tones up to the 50th harmonic, phases beyond ±π, and the offset.
        let (tones, offset, swing, drawn) = stimulus;
        if drawn {
            setup.stimulus = stimulus_from(&tones, offset, swing);
        }

        let devices: Vec<BatchDevice> = lot
            .iter()
            .map(|&(deviation, seed, q, gain, kind)| {
                let cut = BiquadParams::new(15_000.0, q, gain, KINDS[kind]).expect("cut");
                BatchDevice::new(cut.with_f0_shift_pct(deviation), seed)
            })
            .collect();

        let shared = SharedStimulus::new(&setup).expect("shared stimulus");
        let batched = capture_signatures_batch(&setup, &shared, &devices).expect("batched capture");
        prop_assert_eq!(batched.len(), devices.len());
        for (device, batched_sig) in devices.iter().zip(&batched) {
            let per_device = setup
                .signature_of(&device.cut, device.noise_seed)
                .expect("per-device capture");
            prop_assert_eq!(batched_sig.len(), per_device.len());
            prop_assert_eq!(batched_sig.unit().to_bits(), per_device.unit().to_bits(), "units must be bit-identical");
            for (a, b) in batched_sig.entries().iter().zip(per_device.entries()) {
                prop_assert_eq!(a.code, b.code, "zone codes diverged");
                prop_assert_eq!(a.count, b.count, "dwell counts must be identical");
            }
        }
        // Noiseless and noisy lots (σ below 8 mV) alike must have been
        // decided by the certified synthesis, so the property checks its
        // bound and not only the exact fallback.
        prop_assert_eq!(shared.exact_syntheses(), 0);
    }

    #[test]
    fn repeats_equal_per_repeat_capture(
        knobs in (0usize..RATES.len(), 0u32..421, 0u32..13, prop::bool::ANY, 0.0..8.0f64),
        deviation in -18.0..18.0f64,
        base_seed in 0u64..1_000_000,
        repeats in 0usize..5,
    ) {
        // The same generated setups; every repeat must be the per-device
        // capture under its own seed.
        let (rate_index, bandwidth_khz, clock_bits, noisy, noise_sigma_mv) = knobs;
        let bandwidth_khz = if bandwidth_khz < 100 { 0 } else { bandwidth_khz };
        let noise_sigma_mv = if noisy { noise_sigma_mv } else { 0.0 };
        let setup = setup_from(RATES[rate_index], bandwidth_khz, clock_bits, noise_sigma_mv);
        let cut = BiquadParams::paper_default().with_f0_shift_pct(deviation);

        let repeated = setup.signatures_of_repeats(&cut, repeats, base_seed).expect("repeats");
        prop_assert_eq!(repeated.len(), repeats);
        // Retest repeats as the engine captures them: one batch entry per
        // repeat seed.
        let shared = SharedStimulus::new(&setup).expect("shared stimulus");
        let entries: Vec<BatchDevice> = (0..repeats as u64)
            .map(|i| BatchDevice::new(cut, base_seed + i))
            .collect();
        let batched = capture_signatures_batch(&setup, &shared, &entries).expect("batched repeats");
        prop_assert_eq!(&batched, &repeated);
        prop_assert_eq!(shared.exact_syntheses(), 0);
        for (i, repeat) in (0u64..).zip(&repeated) {
            let per_repeat = setup.signature_of(&cut, base_seed + i).expect("per-repeat capture");
            prop_assert_eq!(repeat.len(), per_repeat.len());
            prop_assert_eq!(repeat.unit().to_bits(), per_repeat.unit().to_bits(), "units must be bit-identical");
            for (a, b) in repeat.entries().iter().zip(per_repeat.entries()) {
                prop_assert_eq!(a.code, b.code, "zone codes diverged");
                prop_assert_eq!(a.count, b.count, "dwell counts must be identical");
            }
        }
    }

    #[test]
    fn bank_reuse_does_not_change_results(
        deviation in -15.0..15.0f64,
        seed in 0u64..1_000_000,
    ) {
        // Fetching the shared stimulus from a bank (hit or miss) must not
        // change anything: the entry is a pure function of the setup.
        let setup = TestSetup::paper_default().expect("setup").with_sample_rate(1e6).expect("rate");
        let bank = StimulusBank::new();
        let device = [BatchDevice::new(BiquadParams::paper_default().with_f0_shift_pct(deviation), seed)];
        let first = capture_signatures_batch(&setup, &bank.shared_for(&setup).expect("miss"), &device)
            .expect("capture via miss");
        let second = capture_signatures_batch(&setup, &bank.shared_for(&setup).expect("hit"), &device)
            .expect("capture via hit");
        prop_assert_eq!(first, second);
        prop_assert_eq!(bank.misses(), 1);
        prop_assert!(bank.hits() >= 1);
    }
}
