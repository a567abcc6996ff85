//! Determinism of the parallel campaign engine: a multi-threaded campaign
//! over a Monte-Carlo population must produce NDFs and peak Hamming
//! distances bit-identical to the plain serial loop, at every thread count.

use analog_signature::dsig::{ndf, peak_hamming_distance, AcceptanceBand, RetestPolicy, TestFlow, TestSetup};
use analog_signature::engine::{Campaign, CampaignRunner, DevicePopulation};
use analog_signature::filters::BiquadParams;
use analog_signature::signal::NoiseModel;

const DEVICES: usize = 64;

fn campaign() -> Campaign {
    let setup = TestSetup::paper_default()
        .expect("setup")
        .with_sample_rate(1e6)
        .expect("rate")
        .with_noise(NoiseModel::paper_default());
    Campaign::new(
        setup,
        BiquadParams::paper_default(),
        DevicePopulation::MonteCarlo {
            devices: DEVICES,
            sigma_pct: 4.0,
        },
        AcceptanceBand::new(0.03).expect("band"),
        3.0,
    )
    .expect("campaign")
    .with_seed(20260727)
}

/// The reference implementation the engine must reproduce bit-for-bit: a
/// plain serial loop over `Campaign::device`, scored by the reference `ndf`
/// and `peak_hamming_distance` against a golden signature characterized
/// directly with `TestFlow::new`. One `(ndf, peak)` pair per device.
fn serial_reference_ndfs(campaign: &Campaign) -> Vec<(f64, u32)> {
    let noiseless = TestSetup {
        noise: NoiseModel::none(),
        ..campaign.setup.clone()
    };
    let flow = TestFlow::new(noiseless, campaign.reference).expect("flow");
    (0..campaign.device_count())
        .map(|i| {
            let spec = campaign.device(i).expect("device");
            let observed = campaign
                .setup
                .signature_of(&spec.cut, spec.noise_seed)
                .expect("signature");
            (
                ndf(flow.golden(), &observed).expect("ndf"),
                peak_hamming_distance(flow.golden(), &observed).expect("peak"),
            )
        })
        .collect()
}

#[test]
fn parallel_campaign_matches_serial_loop_bit_for_bit() {
    let campaign = campaign();
    let reference = serial_reference_ndfs(&campaign);
    assert_eq!(reference.len(), DEVICES);
    // The population must be non-trivial: both passing and failing devices.
    assert!(reference.iter().any(|&(n, _)| n > 0.03), "lot has no failing device");
    assert!(reference.iter().any(|&(n, _)| n < 0.03), "lot has no passing device");
    assert!(reference.iter().any(|&(_, p)| p > 1), "lot has no multi-bit peak");

    for threads in [1usize, 2, 8] {
        let report = CampaignRunner::with_threads(threads)
            .with_chunk_size(7) // deliberately uneven chunking
            .run(&campaign)
            .expect("campaign run");
        assert_eq!(report.devices(), DEVICES);
        assert_eq!(
            report.results.iter().map(|r| r.ndf.to_bits()).collect::<Vec<_>>(),
            reference.iter().map(|(n, _)| n.to_bits()).collect::<Vec<_>>(),
            "NDFs at {threads} thread(s) differ from the serial loop"
        );
        assert_eq!(
            report.results.iter().map(|r| r.peak_hamming).collect::<Vec<_>>(),
            reference.iter().map(|&(_, p)| p).collect::<Vec<_>>(),
            "peaks at {threads} thread(s) differ from the serial loop"
        );
        // Device order and identity are preserved, not just the multiset.
        for (i, result) in report.results.iter().enumerate() {
            assert_eq!(result.index, i);
        }
    }
}

#[test]
fn batched_capture_is_bit_identical_at_every_batch_size_and_thread_count() {
    // The shared-stimulus batched fast path must reproduce the per-device
    // reference bit-for-bit at every capture batch size (= runner chunk) and
    // thread count — including under measurement noise, where each device
    // still draws its own x/y noise realisations.
    let campaign = campaign();
    let reference = CampaignRunner::with_threads(1)
        .with_batching(false)
        .run(&campaign)
        .expect("per-device reference run");
    for chunk in [1usize, 7, 64] {
        for threads in [1usize, 8] {
            let report = CampaignRunner::with_threads(threads)
                .with_chunk_size(chunk)
                .run(&campaign)
                .expect("batched run");
            assert_eq!(
                report, reference,
                "batch size {chunk} x {threads} thread(s) diverged from the per-device reference"
            );
        }
    }
}

#[test]
fn batched_retest_repeats_are_bit_identical_at_every_batch_size_and_thread_count() {
    // Retest repeats go through the batched capture too, one batch entry per
    // repeat seed; the per-device reference captures them with
    // `signatures_of_repeats`. Every verdict, retest record and NDF bit must
    // agree.
    let campaign = campaign();
    let policy = RetestPolicy::new(0.01, vec![2, 6]).expect("policy");
    let reference = CampaignRunner::with_threads(1)
        .with_batching(false)
        .with_retest(policy.clone())
        .run(&campaign)
        .expect("per-device reference run");
    assert!(
        reference.results.iter().any(|r| r.retest.is_some()),
        "some device must be marginal"
    );
    for chunk in [1usize, 7, 64] {
        for threads in [1usize, 8] {
            let report = CampaignRunner::with_threads(threads)
                .with_chunk_size(chunk)
                .with_retest(policy.clone())
                .run(&campaign)
                .expect("batched run");
            assert_eq!(
                report, reference,
                "batch size {chunk} x {threads} thread(s) diverged from the per-device reference"
            );
            assert_eq!(
                report.results.iter().map(|r| r.ndf.to_bits()).collect::<Vec<_>>(),
                reference.results.iter().map(|r| r.ndf.to_bits()).collect::<Vec<_>>(),
                "NDF bits at batch size {chunk} x {threads} thread(s)"
            );
        }
    }
}

#[test]
fn full_reports_are_identical_across_thread_counts() {
    let campaign = campaign();
    let reference = CampaignRunner::with_threads(1).run(&campaign).expect("serial run");
    for threads in [2usize, 8] {
        let report = CampaignRunner::with_threads(threads)
            .run(&campaign)
            .expect("parallel run");
        assert_eq!(report, reference, "report at {threads} threads diverged");
    }
}
