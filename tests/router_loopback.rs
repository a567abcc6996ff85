//! Acceptance test of the routing tier: a Monte-Carlo production lot
//! screened through a router must yield bit-identical `(ndf, outcome,
//! peak_hamming)` results to direct campaign-engine (`TestFlow`) scoring at
//! backend counts 1, 2 and 4 — and keep doing so, with zero wrong verdicts,
//! after one backend is killed mid-lot, and through a full **rolling
//! restart** (kill the owner, admin-join a fresh standby, remove the dead
//! member) at backend counts 2, 4 and 8 — and through a drain and a cold
//! TCP join while two TCP clients keep screening. A campaign scoring
//! through the router as its `ScoreTarget` must reproduce the local report
//! exactly.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use analog_signature::dsig::{AcceptanceBand, Signature, TestSetup};
use analog_signature::engine::{Campaign, CampaignReport, CampaignRunner, DevicePopulation, DeviceResult, ScoreTarget};
use analog_signature::filters::BiquadParams;
use analog_signature::router::{Backend, Router, RouterClient, RouterConfig, RouterHandle, RouterStore};
use analog_signature::serve::{BackendState, GoldenStore, ServeConfig, ServeHandle, Server};

const DEVICES: usize = 1000;
/// Client-side batch size: each batch is one routed request.
const BATCH: usize = 64;

struct Lot {
    setup: TestSetup,
    reference: BiquadParams,
    band: AcceptanceBand,
    report: CampaignReport,
    signatures: Vec<Signature>,
}

/// Simulates the lot once for every test in this file: the campaign report's
/// per-device scores *are* direct `TestFlow` scoring.
fn lot() -> &'static Lot {
    static LOT: OnceLock<Lot> = OnceLock::new();
    LOT.get_or_init(|| {
        let setup = TestSetup::paper_default().unwrap().with_sample_rate(1e6).unwrap();
        let reference = BiquadParams::paper_default();
        let band = AcceptanceBand::new(0.03).unwrap();
        let campaign = Campaign::new(
            setup.clone(),
            reference,
            DevicePopulation::MonteCarlo {
                devices: DEVICES,
                sigma_pct: 3.0,
            },
            band,
            3.0,
        )
        .unwrap()
        .with_seed(77);
        let (report, log) = CampaignRunner::new().run_logged(&campaign).unwrap();
        assert_eq!(report.devices(), DEVICES);
        Lot {
            setup,
            reference,
            band,
            report,
            signatures: log.entries().iter().map(|(_, s)| s.clone()).collect(),
        }
    })
}

fn router_with(backends: usize) -> (RouterHandle, u64) {
    let lot = lot();
    let router = RouterHandle::spawn(backends, RouterStore::new(), RouterConfig::default()).unwrap();
    let key = router.characterize(&lot.setup, &lot.reference, lot.band).unwrap();
    (router, key)
}

fn assert_scores_match(scores: &[analog_signature::serve::ScoreResult], results: &[DeviceResult], what: &str) {
    assert_eq!(scores.len(), results.len());
    for (score, result) in scores.iter().zip(results) {
        assert_eq!(
            score.ndf.to_bits(),
            result.ndf.to_bits(),
            "{what} device={}: routed NDF must be bit-identical",
            result.index
        );
        assert_eq!(
            score.outcome, result.outcome,
            "{what} device={}: routed outcome must match",
            result.index
        );
        assert_eq!(
            score.peak_hamming, result.peak_hamming,
            "{what} device={}",
            result.index
        );
    }
}

#[test]
fn routed_screening_is_bit_identical_at_every_backend_count() {
    let lot = lot();
    // Sub-batch 97 is coprime with the client batch of 64, so chunk
    // boundaries land everywhere across the lot.
    for backends in [1usize, 2, 4] {
        let (router, key) = router_with(backends);
        let mut scores = Vec::with_capacity(DEVICES);
        for batch in lot.signatures.chunks(BATCH) {
            scores.extend(router.screen(key, batch).unwrap());
        }
        assert_scores_match(&scores, &lot.report.results, &format!("backends={backends}"));
    }
}

#[test]
fn routed_screening_survives_a_killed_backend_with_zero_wrong_verdicts() {
    let lot = lot();
    let (router, key) = router_with(4);
    let owner = router.rank_labels(key)[0].clone();

    // First half of the lot with the full fleet...
    let half = DEVICES / 2;
    let mut scores = Vec::with_capacity(DEVICES);
    for batch in lot.signatures[..half].chunks(BATCH) {
        scores.extend(router.screen(key, batch).unwrap());
    }
    // ...then the owner dies mid-lot and the rest fails over to the replica
    // chain (refreshing the golden from the router store if it has to).
    router.kill(&owner).unwrap();
    for batch in lot.signatures[half..].chunks(BATCH) {
        scores.extend(router.screen(key, batch).unwrap());
    }
    assert_scores_match(&scores, &lot.report.results, "killed-owner");
    assert!(
        router.backend_is_down(&owner).unwrap(),
        "the killed owner must be marked down by the health record"
    );
}

#[test]
fn rolling_restart_mid_lot_keeps_every_verdict_at_all_fleet_sizes() {
    let lot = lot();
    for backends in [2usize, 4, 8] {
        let (router, key) = router_with(backends);
        let what = format!("rolling-restart backends={backends}");
        let third = DEVICES / 3;
        let mut scores = Vec::with_capacity(DEVICES);

        // Phase 1: the original fleet screens the first third of the lot.
        for batch in lot.signatures[..third].chunks(BATCH) {
            scores.extend(router.screen(key, batch).unwrap());
        }

        // Phase 2: the owner dies and a cold standby joins mid-lot — no
        // operator data shuffling: the join migrates the goldens the
        // newcomer owns before it enters the rotation.
        let owner = router.rank_labels(key)[0].clone();
        router.kill(&owner).unwrap();
        let epoch_before = router.epoch();
        let standby_id = 100 + backends as u64;
        let roster = router
            .join(Backend::local(
                standby_id,
                ServeHandle::spawn(Arc::new(GoldenStore::new()), ServeConfig::default()),
            ))
            .unwrap();
        assert_eq!(roster.epoch, epoch_before + 1, "{what}: join must bump the epoch");
        assert_eq!(roster.entries.len(), backends + 1);
        for batch in lot.signatures[third..2 * third].chunks(BATCH) {
            scores.extend(router.screen(key, batch).unwrap());
        }

        // Phase 3: the dead member is removed from the fleet outright; the
        // rest of the lot screens on the reshaped fleet.
        let roster = router.fleet_leave(&owner).unwrap();
        assert_eq!(roster.epoch, epoch_before + 2, "{what}: leave must bump the epoch");
        assert!(roster.entries.iter().all(|entry| entry.label != owner));
        for batch in lot.signatures[2 * third..].chunks(BATCH) {
            scores.extend(router.screen(key, batch).unwrap());
        }

        // Zero wrong verdicts across the kill, the join and the leave.
        assert_scores_match(&scores, &lot.report.results, &what);
        // The health report carries the final epoch, and the standby is a
        // full member: if it now owns the golden, it answers without help.
        assert_eq!(router.health().epoch, epoch_before + 2, "{what}");
        assert_eq!(router.backend_count(), backends);
        let standby = format!("local-{standby_id}");
        assert!(router.backend_labels().contains(&standby), "{what}");
    }
}

#[test]
fn campaign_scores_through_the_router_target_bit_identically() {
    let lot = lot();
    let (router, _key) = router_with(3);
    let campaign = Campaign::new(
        lot.setup.clone(),
        lot.reference,
        DevicePopulation::MonteCarlo {
            devices: 200,
            sigma_pct: 3.0,
        },
        lot.band,
        3.0,
    )
    .unwrap()
    .with_seed(2026);
    let runner = CampaignRunner::with_threads(4);
    let local = runner.run(&campaign).unwrap();
    let routed = runner.run_with_target(&campaign, ScoreTarget::Remote(&router)).unwrap();
    assert_eq!(
        routed, local,
        "a campaign scored through the router must reproduce the local report exactly"
    );
}

#[test]
fn a_drain_and_a_cold_tcp_join_under_concurrent_tcp_load_keep_every_verdict() {
    // Membership changes land between batches the load has already screened
    // and batches it has yet to screen: the admin client waits on the shared
    // batch counter before each change, and each screening client stops only
    // `AFTER_LAST_CHANGE` batches after the join returned. The overlap is by
    // construction, so nothing here depends on timing.
    const CLIENTS: usize = 2;
    const DRAIN_AFTER: usize = 8;
    const JOIN_AFTER: usize = 16;
    const AFTER_LAST_CHANGE: usize = 8;
    let lot = lot();
    let fleet: Vec<Backend> = (0..4)
        .map(|id| {
            Backend::local(
                id,
                ServeHandle::spawn(Arc::new(GoldenStore::new()), ServeConfig::default()),
            )
        })
        .collect();
    let router = Router::bind("127.0.0.1:0", fleet, RouterStore::new(), RouterConfig::default()).unwrap();
    let key = router
        .handle()
        .characterize(&lot.setup, &lot.reference, lot.band)
        .unwrap();
    let standby = Server::bind("127.0.0.1:0", Arc::new(GoldenStore::new()), ServeConfig::default()).unwrap();
    let standby_label = standby.local_addr().to_string();
    let addr = router.local_addr();
    let admin = RouterClient::connect(addr).unwrap();
    let epoch_before = admin.fleet_roster().unwrap().epoch;

    let chunks: Vec<(&[Signature], &[DeviceResult])> = lot
        .signatures
        .chunks(BATCH)
        .zip(lot.report.results.chunks(BATCH))
        .collect();
    let screened = AtomicUsize::new(0);
    let changed = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|client_index| {
                let (chunks, screened, changed) = (&chunks, &screened, &changed);
                scope.spawn(move || {
                    let client = RouterClient::connect(addr).unwrap();
                    let mut after_change = 0;
                    for batch in (client_index..).step_by(CLIENTS) {
                        if changed.load(Ordering::SeqCst) {
                            if after_change == AFTER_LAST_CHANGE {
                                break;
                            }
                            after_change += 1;
                        }
                        let (signatures, expected) = chunks[batch % chunks.len()];
                        let scores = client.screen(key, signatures).unwrap();
                        assert_scores_match(&scores, expected, &format!("churn client {client_index} batch {batch}"));
                        screened.fetch_add(1, Ordering::SeqCst);
                    }
                })
            })
            .collect();
        // A client only finishes before the last change by panicking: stop
        // waiting then, so the scope re-raises its panic instead of hanging.
        let wait_for = |batches: usize| {
            while screened.load(Ordering::SeqCst) < batches && !clients.iter().any(|client| client.is_finished()) {
                std::thread::yield_now();
            }
        };
        let changes = (|| {
            wait_for(DRAIN_AFTER);
            admin.fleet_drain("local-1")?;
            wait_for(JOIN_AFTER);
            admin.fleet_join(&standby_label)
        })();
        changed.store(true, Ordering::SeqCst);
        changes.unwrap();
    });
    assert!(screened.load(Ordering::SeqCst) >= JOIN_AFTER + CLIENTS * AFTER_LAST_CHANGE);

    // The end state over TCP: the drained member is still ranked but not
    // targeted, the standby is a full member, and each change bumped the
    // epoch once.
    let roster = admin.fleet_roster().unwrap();
    let state_of = |label: &str| {
        roster
            .entries
            .iter()
            .find(|entry| entry.label == label)
            .map(|entry| entry.state)
    };
    assert_eq!(state_of("local-1"), Some(BackendState::Draining), "{roster:?}");
    assert_eq!(state_of(&standby_label), Some(BackendState::Active), "{roster:?}");
    assert_eq!(roster.epoch, epoch_before + 2, "{roster:?}");
}
