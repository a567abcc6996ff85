//! Acceptance test of the observability tier: scraping a live `RouterHandle`
//! fleet *while* a campaign screens through it must show counters moving and
//! stay monotonically consistent scrape-over-scrape — and the instrumentation
//! must be purely observational: the routed campaign report stays
//! bit-identical to an uninstrumented local run. Retest cap hits on a
//! backend must reach the fleet event log a TCP client drains.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use analog_signature::dsig::{AcceptanceBand, RetestPolicy, Signature, SignatureEntry, TestSetup, ZoneCode};
use analog_signature::engine::{Campaign, CampaignRunner, DevicePopulation, ScoreTarget};
use analog_signature::filters::BiquadParams;
use analog_signature::obs::{EventLog, EventRecord, HealthStatus, MetricsSnapshot, Registry};
use analog_signature::router::{Backend, Router, RouterClient, RouterConfig, RouterHandle, RouterStore};
use analog_signature::serve::{GoldenStore, RetestItem, RetestRequest, ServeConfig, ServeHandle};

/// Every counter and histogram count present in `before` must still be
/// present in `after`, no smaller: counters are monotone, and a scrape must
/// never observe one moving backwards. Checked through the snapshot diff
/// the operator tooling uses.
fn assert_monotonic(before: &MetricsSnapshot, after: &MetricsSnapshot) {
    let violations = after.diff(before).monotonicity_violations();
    assert!(violations.is_empty(), "scrape went backwards: {violations:?}");
}

/// Sums one per-backend counter across the fleet.
fn fleet_counter(snapshot: &MetricsSnapshot, backends: usize, what: &str) -> u64 {
    (0..backends)
        .map(|i| {
            snapshot
                .counter(&format!("router.backend.local-{i}.{what}"))
                .unwrap_or(0)
        })
        .sum()
}

#[test]
fn live_fleet_scrapes_move_and_leave_the_campaign_report_bit_identical() {
    const BACKENDS: usize = 3;
    let setup = TestSetup::paper_default().unwrap().with_sample_rate(1e6).unwrap();
    let reference = BiquadParams::paper_default();
    let band = AcceptanceBand::new(0.03).unwrap();
    let campaign = Campaign::new(
        setup.clone(),
        reference,
        DevicePopulation::MonteCarlo {
            devices: 150,
            sigma_pct: 3.0,
        },
        band,
        3.0,
    )
    .unwrap()
    .with_seed(4242);
    let runner = CampaignRunner::with_threads(2);
    // The uninstrumented reference: a plain local run, no router, no scrapes.
    let local = runner.run(&campaign).unwrap();

    let router = RouterHandle::spawn(BACKENDS, RouterStore::new(), RouterConfig::default()).unwrap();
    router.characterize(&setup, &reference, band).unwrap();

    let first = router.metrics();
    let done = AtomicBool::new(false);
    let (routed, scrapes) = std::thread::scope(|scope| {
        let campaign = &campaign;
        let runner = &runner;
        let router = &router;
        let done = &done;
        let worker = scope.spawn(move || {
            let report = runner.run_with_target(campaign, ScoreTarget::Remote(router));
            done.store(true, Ordering::Release);
            report
        });
        // Scrape the fleet while the campaign is screening through it. Each
        // scrape must be monotonically consistent with the previous one.
        let mut scrapes = 0usize;
        let mut previous = first.clone();
        while !done.load(Ordering::Acquire) {
            let next = router.metrics();
            assert_monotonic(&previous, &next);
            previous = next;
            scrapes += 1;
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        (worker.join().expect("campaign thread panicked").unwrap(), scrapes)
    });
    let last = router.metrics();
    assert_monotonic(&first, &last);
    assert!(scrapes >= 1, "the campaign finished before a single mid-run scrape");

    // The counters moved: the campaign's screening traffic is visible.
    let forwards = fleet_counter(&last, BACKENDS, "forwards") - fleet_counter(&first, BACKENDS, "forwards");
    assert!(
        forwards >= 2,
        "expected the routed campaign to forward batches, saw {forwards}"
    );
    let fanout = last
        .histogram("router.fanout_us")
        .expect("fan-out histogram must exist");
    assert!(fanout.count >= first.histogram("router.fanout_us").map_or(0, |h| h.count) + 2);

    // And none of it touched the data path: bit-identical verdicts.
    assert_eq!(
        routed, local,
        "scraping a live fleet mid-campaign must not perturb the report"
    );
}

#[test]
fn one_fleet_scrape_carries_prefixes_and_rollups_and_health_flips_on_kills() {
    const BACKENDS: usize = 3;
    let setup = TestSetup::paper_default().unwrap().with_sample_rate(1e6).unwrap();
    let reference = BiquadParams::paper_default();
    let band = AcceptanceBand::new(0.03).unwrap();
    // Per-backend registries: each backend's `DSMX` answer carries only its
    // own counters, so the fleet scrape's prefixes and rollup are exactly
    // checkable (with the process-global registry every backend would
    // answer the same blurred snapshot).
    let fleet: Vec<Backend> = (0..BACKENDS)
        .map(|id| {
            Backend::local(
                id as u64,
                ServeHandle::spawn_in(Arc::new(GoldenStore::new()), ServeConfig::default(), Registry::new()),
            )
        })
        .collect();
    let router = RouterHandle::with_backends(fleet, RouterStore::new(), RouterConfig::default()).unwrap();
    let key = router.characterize(&setup, &reference, band).unwrap();
    let golden = router.golden(key).unwrap().golden.clone();
    // Screen a batch so the owner's scored counter moves.
    let batch: Vec<_> = std::iter::repeat_with(|| golden.clone()).take(8 * BACKENDS).collect();
    router.screen(key, &batch).unwrap();

    // ONE fleet scrape answers for everything: per-backend prefixed copies,
    // a cross-backend rollup, and the router's own unprefixed metrics.
    let scrape = router.fleet_metrics();
    let per_backend: Vec<u64> = (0..BACKENDS)
        .map(|i| {
            scrape
                .counter(&format!("backend.local-{i}.serve.signatures_scored"))
                .unwrap_or_else(|| panic!("backend local-{i} missing from the fleet scrape"))
        })
        .collect();
    let total: u64 = per_backend.iter().sum();
    // A single key routes to its owner, so the batch lands on one backend —
    // but every backend answers the scrape, and the rollup is the exact sum.
    assert!(
        total >= batch.len() as u64,
        "the screening load is invisible: {scrape:?}"
    );
    assert_eq!(
        scrape.counter("fleet.serve.signatures_scored"),
        Some(total),
        "the fleet rollup must be the exact cross-backend sum"
    );
    assert!(
        scrape.histogram("router.fanout_us").is_some(),
        "the router's own metrics ride the scrape unprefixed"
    );
    // The merged scrape is still a legal DSMS body (sorted unique names).
    assert_eq!(MetricsSnapshot::from_bytes(&scrape.to_bytes()).unwrap(), scrape);

    // The windowed health verdict tracks fleet state: PASS with everyone
    // up, DEGRADED after one kill, FAIL when nothing is left, and back to
    // PASS once the operator revives the fleet.
    assert_eq!(router.health().status, HealthStatus::Pass);
    router.kill("local-0").unwrap();
    let degraded = router.health();
    assert_eq!(degraded.status, HealthStatus::Degraded, "{degraded:?}");
    assert_eq!((degraded.backed_off, degraded.backends), (1, BACKENDS as u32));
    assert!(!degraded.findings.is_empty());
    for index in 1..BACKENDS {
        router.kill(&format!("local-{index}")).unwrap();
    }
    assert_eq!(router.health().status, HealthStatus::Fail);
    for label in router.backend_labels() {
        router.revive(&label).unwrap();
    }
    assert_eq!(router.health().status, HealthStatus::Pass);
}

/// A golden of two 100 µs zones, and an observed copy whose second zone
/// reads code 7 instead of 3 (one bit apart) for its last `flipped_us`: its
/// NDF is `flipped_us / 200`.
fn two_zone(flipped_us: u32) -> Signature {
    // 1 µs counts; a zero count drops out.
    let entries = [(1, 100), (3, 100 - flipped_us), (7, flipped_us)];
    Signature::new(
        1e-6,
        entries
            .iter()
            .map(|&(code, us)| SignatureEntry {
                code: ZoneCode(code),
                count: us,
            })
            .collect(),
    )
    .unwrap()
}

#[test]
fn retest_cap_hits_reach_the_fleet_event_log_over_tcp() {
    // Private backend registries: a sibling test's drain of the global
    // registry cannot take these events.
    let fleet: Vec<Backend> = (0..2)
        .map(|id| {
            Backend::local(
                id,
                ServeHandle::spawn_in(Arc::new(GoldenStore::new()), ServeConfig::default(), Registry::new()),
            )
        })
        .collect();
    let router = Router::bind("127.0.0.1:0", fleet, RouterStore::new(), RouterConfig::default()).unwrap();
    let client = RouterClient::connect(router.local_addr()).unwrap();
    const KEY: u64 = 0xCA9E_0417;
    let band = AcceptanceBand::new(0.05).unwrap();
    client.push_golden(KEY, band, &two_zone(0)).unwrap();

    // Threshold 0.05, guard 0.02: an NDF in [0.03, 0.07] is marginal.
    let policy = RetestPolicy::new(0.02, vec![1, 2]).unwrap();
    let (clean, marginal, far) = (two_zone(0), two_zone(10), two_zone(30));
    let item = |initial: &Signature, repeats: [&Signature; 2]| RetestItem {
        initial: initial.clone(),
        repeats: repeats.into_iter().cloned().collect(),
    };
    let request = RetestRequest {
        golden_key: KEY,
        policy,
        items: vec![
            // 1. Not marginal: decided by its single shot.
            RetestItem {
                initial: clean.clone(),
                repeats: Vec::new(),
            },
            // 2. Marginal, resolved by its first repeat (average 0).
            item(&marginal, [&clean, &clean]),
            // 3. Marginal after one repeat (0.05), resolved by the last step
            //    (average 0.1): it consumed the whole schedule.
            item(&marginal, [&marginal, &far]),
            // 4. Marginal throughout.
            item(&marginal, [&marginal, &marginal]),
        ],
    };
    let scores = client.screen_retest(&request).unwrap();
    let walked: Vec<(bool, u32)> = scores.iter().map(|s| (s.marginal, s.repeats_used)).collect();
    assert_eq!(walked, vec![(false, 0), (true, 1), (true, 2), (true, 2)]);

    let key = format!("{KEY:#x}");
    let cap_hits = |log: EventLog| -> Vec<EventRecord> {
        log.events
            .into_iter()
            .filter(|event| event.name == "retest.cap_hit")
            .filter(|event| event.fields.iter().any(|(k, v)| k == "golden_key" && *v == key))
            .collect()
    };
    let hits = cap_hits(client.events().unwrap());
    assert_eq!(hits.len(), 2, "devices 3 and 4 hit the cap: {hits:?}");
    for hit in &hits {
        assert!(
            hit.fields.contains(&("repeats_used".to_string(), "2".to_string())),
            "{hit:?}"
        );
    }
    // The drain is consuming: a second scrape carries neither again.
    assert_eq!(cap_hits(client.events().unwrap()), Vec::new());
}
