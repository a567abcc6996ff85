//! Acceptance test of the adaptive retest tier: a noisy 1000-device
//! Monte-Carlo lot whose guard band catches well over 5% of the population
//! must produce **bit-identical campaign reports — including the retest
//! statistics — across every score target**: local scoring,
//! `ScoreTarget::Remote(ServeHandle)` and `RouterHandle` at backend counts
//! {1, 2, 4}, with one owner backend killed mid-lot. At least one marginal
//! device must flip to its *true* verdict only through the averaged retest.

use std::sync::{Arc, OnceLock};

use analog_signature::dsig::{AcceptanceBand, RetestPolicy, TestOutcome, TestSetup};
use analog_signature::engine::{Campaign, CampaignReport, CampaignRunner, DevicePopulation, ScoreTarget};
use analog_signature::filters::BiquadParams;
use analog_signature::router::{RouterConfig, RouterHandle, RouterStore};
use analog_signature::serve::{GoldenStore, ServeConfig, ServeHandle};
use proptest::prelude::*;

const DEVICES: usize = 1000;

struct Lot {
    campaign: Campaign,
    policy: RetestPolicy,
    local: CampaignReport,
}

/// The noisy lot, its retest policy, and the locally scored reference report
/// — computed once for every test in this file.
fn lot() -> &'static Lot {
    static LOT: OnceLock<Lot> = OnceLock::new();
    LOT.get_or_init(|| {
        let setup = TestSetup::paper_default()
            .unwrap()
            .with_sample_rate(1e6)
            .unwrap()
            .with_noise(analog_signature::signal::NoiseModel::paper_default());
        let campaign = Campaign::new(
            setup,
            BiquadParams::paper_default(),
            DevicePopulation::MonteCarlo {
                devices: DEVICES,
                sigma_pct: 3.0,
            },
            AcceptanceBand::new(0.03).unwrap(),
            3.0,
        )
        .unwrap()
        .with_seed(77);
        // The guard band is tuned so the measurement noise makes well over
        // 5% of the lot marginal; two escalation steps bound the cost.
        let policy = RetestPolicy::new(0.01, vec![2, 6]).unwrap();
        let local = runner(4).with_retest(policy.clone()).run(&campaign).unwrap();
        Lot {
            campaign,
            policy,
            local,
        }
    })
}

fn runner(threads: usize) -> CampaignRunner {
    CampaignRunner::with_threads(threads)
}

#[test]
fn the_noisy_lot_is_marginal_heavy_and_retest_flips_devices_to_their_truth() {
    let lot = lot();
    let report = &lot.local;
    assert_eq!(report.devices(), DEVICES);
    assert!(
        report.retest.marginal >= DEVICES / 20,
        "noise must make at least 5% of the lot marginal (got {} of {DEVICES})",
        report.retest.marginal
    );
    assert!(report.retest.flips() > 0, "averaging must flip some verdicts");
    assert!(report.retest.repeats_spent > 0);

    // At least one marginal device reaches its true verdict only through the
    // averaged retest: the single shot decided wrongly, the average did not.
    let true_flips = report
        .results
        .iter()
        .filter(|r| {
            let Some(meta) = r.retest else { return false };
            let truly_good = r.true_deviation_pct.abs() <= lot.campaign.tolerance_pct;
            let final_correct = (r.outcome == TestOutcome::Pass) == truly_good;
            let initial_correct = (lot.campaign.band.decide(meta.initial_ndf) == TestOutcome::Pass) == truly_good;
            meta.flipped && final_correct && !initial_correct
        })
        .count();
    assert!(
        true_flips > 0,
        "at least one marginal device must flip to its true verdict via averaged retest"
    );

    // The campaign without a policy decides those same devices wrongly — the
    // flip is attributable to the retest tier, not to some other change.
    let single_shot = runner(4).run(&lot.campaign).unwrap();
    assert_eq!(single_shot.retest.marginal, 0);
    let changed = single_shot
        .results
        .iter()
        .zip(&report.results)
        .filter(|(s, r)| s.outcome != r.outcome)
        .count();
    assert_eq!(
        changed,
        report.retest.flips(),
        "every verdict change is a recorded flip"
    );
}

#[test]
fn the_local_report_matches_the_per_device_reference_runner_bit_for_bit() {
    // The local report captures repeats through the batched capture; the
    // per-device reference runner captures them with
    // `signatures_of_repeats`. Every score target is compared against the
    // local report, so it must itself be the reference's.
    let lot = lot();
    let reference = runner(2)
        .with_batching(false)
        .with_retest(lot.policy.clone())
        .run(&lot.campaign)
        .unwrap();
    assert_eq!(reference, lot.local);
    let ndf_bits = |report: &CampaignReport| -> Vec<(u64, Option<u64>)> {
        report
            .results
            .iter()
            .map(|r| (r.ndf.to_bits(), r.retest.map(|m| m.initial_ndf.to_bits())))
            .collect()
    };
    assert_eq!(ndf_bits(&reference), ndf_bits(&lot.local));
    assert_eq!(reference.retest, lot.local.retest);
}

#[test]
fn serve_target_reproduces_the_local_retest_report_bit_for_bit() {
    let lot = lot();
    let store = Arc::new(GoldenStore::new());
    store
        .characterize(&lot.campaign.setup, &lot.campaign.reference, lot.campaign.band)
        .unwrap();
    let serve = ServeHandle::spawn(store, ServeConfig::with_shards(3));
    let remote = runner(4)
        .with_retest(lot.policy.clone())
        .run_with_target(&lot.campaign, ScoreTarget::Remote(&serve))
        .unwrap();
    assert_eq!(
        remote, lot.local,
        "serve-scored retest report must be bit-identical to local scoring"
    );
    assert_eq!(remote.retest, lot.local.retest);
}

#[test]
fn router_target_reproduces_the_local_retest_report_at_every_backend_count() {
    let lot = lot();
    for backends in [1usize, 2, 4] {
        let router = RouterHandle::spawn(backends, RouterStore::new(), RouterConfig::default()).unwrap();
        let key = router
            .characterize(&lot.campaign.setup, &lot.campaign.reference, lot.campaign.band)
            .unwrap();

        // At the widest fleet, kill the golden's owner mid-lot from a timer
        // thread: wherever the kill lands in the campaign, failover must not
        // change a single verdict (scoring is pure; the replica chain and
        // the router store's refresh-on-miss carry the golden).
        let killer = (backends == 4).then(|| {
            let router = router.clone();
            let owner = router.rank_labels(key)[0].clone();
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(150));
                router.kill(&owner).unwrap();
            })
        });
        let routed = runner(4)
            .with_retest(lot.policy.clone())
            .run_with_target(&lot.campaign, ScoreTarget::Remote(&router))
            .unwrap();
        if let Some(killer) = killer {
            killer.join().unwrap();
        }
        assert_eq!(
            routed, lot.local,
            "router-scored retest report diverged at {backends} backends"
        );
        assert_eq!(routed.retest, lot.local.retest);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Retest determinism: for any small lot and policy, the set of flipped
    /// devices is identical across thread counts, chunk sizes and score
    /// targets.
    #[test]
    fn flip_sets_are_identical_across_thread_counts_and_score_targets(
        seed in 0u64..1000,
        guard_milli in 5u32..20,
        first_step in 1u32..4,
    ) {
        let setup = TestSetup::paper_default()
            .unwrap()
            .with_sample_rate(1e6)
            .unwrap()
            .with_noise(analog_signature::signal::NoiseModel::paper_default());
        let campaign = Campaign::new(
            setup,
            BiquadParams::paper_default(),
            DevicePopulation::MonteCarlo { devices: 16, sigma_pct: 4.0 },
            AcceptanceBand::new(0.03).unwrap(),
            3.0,
        )
        .unwrap()
        .with_seed(seed);
        let policy = RetestPolicy::new(f64::from(guard_milli) / 1000.0, vec![first_step, first_step + 3]).unwrap();

        let flip_set = |report: &CampaignReport| -> Vec<usize> {
            report
                .results
                .iter()
                .filter(|r| r.retest.is_some_and(|m| m.flipped))
                .map(|r| r.index)
                .collect()
        };
        let reference = runner(1).with_retest(policy.clone()).run(&campaign).unwrap();
        let flips = flip_set(&reference);
        for threads in [2usize, 5] {
            let report = runner(threads)
                .with_chunk_size(3)
                .with_retest(policy.clone())
                .run(&campaign)
                .unwrap();
            prop_assert_eq!(&report, &reference);
            prop_assert_eq!(flip_set(&report), flips.clone());
        }
        // The serving tier decides the same flip set.
        let store = Arc::new(GoldenStore::new());
        store
            .characterize(&campaign.setup, &campaign.reference, campaign.band)
            .unwrap();
        let serve = ServeHandle::spawn(store, ServeConfig::with_shards(2));
        let remote = runner(3)
            .with_retest(policy)
            .run_with_target(&campaign, ScoreTarget::Remote(&serve))
            .unwrap();
        prop_assert_eq!(&remote, &reference);
        prop_assert_eq!(flip_set(&remote), flips);
    }
}
