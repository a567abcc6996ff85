//! Acceptance test of the serving layer: a Monte-Carlo production lot
//! screened through the TCP client must yield bit-identical `(ndf, outcome)`
//! results to direct campaign-engine (`TestFlow`) scoring, at shard counts 1
//! and 4, and a `GoldenStore` reloaded from disk must serve the same
//! decisions.

use std::sync::Arc;

use analog_signature::dsig::{AcceptanceBand, Signature, TestSetup};
use analog_signature::engine::{golden_fingerprint, Campaign, CampaignRunner, DevicePopulation};
use analog_signature::filters::BiquadParams;
use analog_signature::serve::{GoldenStore, ServeClient, ServeConfig, Server};

const DEVICES: usize = 1000;
const BATCH: usize = 100;

#[test]
fn loopback_screening_is_bit_identical_to_direct_scoring() {
    let setup = TestSetup::paper_default().unwrap().with_sample_rate(1e6).unwrap();
    let reference = BiquadParams::paper_default();
    let band = AcceptanceBand::new(0.03).unwrap();

    // The "tester" side: simulate the lot once, keeping every observed
    // signature. The report's per-device NDFs/outcomes are direct
    // TestFlow-based scoring.
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
    let signatures: Vec<Signature> = log.entries().iter().map(|(_, s)| s.clone()).collect();

    // The serving side: one characterized golden in a store.
    let store = Arc::new(GoldenStore::new());
    let key = store.characterize(&setup, &reference, band).unwrap();
    assert_eq!(key, golden_fingerprint(&setup, &reference));

    let screen_all = |server: &Server| -> Vec<analog_signature::serve::ScoreResult> {
        let client = ServeClient::connect(server.local_addr()).unwrap();
        let mut scores = Vec::with_capacity(signatures.len());
        for batch in signatures.chunks(BATCH) {
            scores.extend(client.screen(key, batch).unwrap());
        }
        scores
    };

    // One pool worker serves each request inline on its connection's
    // reader thread; four run requests as pool jobs.
    for (shards, mode) in [(1usize, "inline"), (4, "pooled")] {
        let server = Server::bind("127.0.0.1:0", Arc::clone(&store), ServeConfig::with_shards(shards)).unwrap();
        let scores = screen_all(&server);
        assert_eq!(scores.len(), DEVICES);
        for (score, result) in scores.iter().zip(&report.results) {
            assert_eq!(
                score.ndf.to_bits(),
                result.ndf.to_bits(),
                "{mode} (pool of {shards}) device={}: served NDF must be bit-identical",
                result.index
            );
            assert_eq!(
                score.outcome, result.outcome,
                "{mode} (pool of {shards}) device={}: served outcome must match",
                result.index
            );
            assert_eq!(
                score.peak_hamming, result.peak_hamming,
                "{mode} (pool of {shards}) device={}: served peak must match",
                result.index
            );
        }
        assert_eq!(server.signatures_scored(), DEVICES as u64, "{mode}");
    }

    // Persistence: the store round-trips through disk and a server built on
    // the reloaded store makes identical decisions.
    let path = std::env::temp_dir().join(format!("serve-loopback-store-{}.bin", std::process::id()));
    store.save(&path).unwrap();
    let reloaded = Arc::new(GoldenStore::load(&path).unwrap());
    std::fs::remove_file(&path).ok();
    assert_eq!(reloaded.keys(), store.keys());
    assert_eq!(*reloaded.get(key).unwrap(), *store.get(key).unwrap());
    let server = Server::bind("127.0.0.1:0", reloaded, ServeConfig::with_shards(2)).unwrap();
    let scores = screen_all(&server);
    for (score, result) in scores.iter().zip(&report.results) {
        assert_eq!(
            score.ndf.to_bits(),
            result.ndf.to_bits(),
            "reloaded store must serve identical NDFs"
        );
        assert_eq!(score.outcome, result.outcome);
    }
}

#[test]
fn characterized_goldens_serve_scores_identical_to_the_flow() {
    // A store populated reference by reference must serve decisions
    // bit-identical to direct TestFlow scoring.
    let setup = TestSetup::paper_default().unwrap().with_sample_rate(1e6).unwrap();
    let band = AcceptanceBand::new(0.03).unwrap();
    let references: Vec<BiquadParams> = [-5.0, 0.0, 5.0]
        .iter()
        .map(|&d| BiquadParams::paper_default().with_f0_shift_pct(d))
        .collect();

    let store = Arc::new(GoldenStore::new());
    let keys: Vec<u64> = references
        .iter()
        .map(|reference| store.characterize(&setup, reference, band).unwrap())
        .collect();
    assert_eq!(store.len(), references.len());

    // Screen a deviated device against the nominal golden over loopback and
    // compare with direct TestFlow scoring.
    let flow = analog_signature::dsig::TestFlow::new(setup.clone(), references[1]).unwrap();
    let cut = references[1].with_f0_shift_pct(8.0);
    let observed = setup.signature_of(&cut, 7).unwrap();
    let direct = flow.evaluate(&cut, 7).unwrap();
    let server = Server::bind("127.0.0.1:0", store, ServeConfig::with_shards(2)).unwrap();
    let client = ServeClient::connect(server.local_addr()).unwrap();
    let score = client.screen_one(keys[1], &observed).unwrap();
    assert_eq!(score.ndf.to_bits(), direct.ndf.to_bits());
    assert_eq!(score.peak_hamming, direct.peak_hamming);
}

#[test]
fn in_process_handle_matches_tcp_path() {
    let setup = TestSetup::paper_default().unwrap().with_sample_rate(1e6).unwrap();
    let reference = BiquadParams::paper_default();
    let band = AcceptanceBand::new(0.03).unwrap();
    let store = Arc::new(GoldenStore::new());
    let key = store.characterize(&setup, &reference, band).unwrap();

    // A handful of devices across the deviation range.
    let observed: Vec<Signature> = [-10.0, -2.0, 0.0, 2.0, 10.0]
        .iter()
        .enumerate()
        .map(|(i, &dev)| {
            setup
                .signature_of(&reference.with_f0_shift_pct(dev), 100 + i as u64)
                .unwrap()
        })
        .collect();

    let server = Server::bind("127.0.0.1:0", store, ServeConfig::with_shards(3)).unwrap();
    let from_handle = server.handle().screen(key, &observed).unwrap();
    let client = ServeClient::connect(server.local_addr()).unwrap();
    let from_tcp = client.screen(key, &observed).unwrap();
    assert_eq!(from_handle, from_tcp, "TCP and in-process paths must agree exactly");
    // Nominal passes, ±10% fails with this band.
    assert_eq!(from_tcp[2].ndf, 0.0);
    assert!(from_tcp[0].ndf > 0.0 && from_tcp[4].ndf > 0.0);
}
