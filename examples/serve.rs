//! Production-test serving: characterize a golden into a persistent store,
//! bind the scoring server, and screen a Monte-Carlo production lot
//! over loopback TCP — verifying that the served decisions are bit-identical
//! to direct campaign-engine scoring.
//!
//! Run with `cargo run --release --example serve`.

use std::sync::Arc;

use analog_signature::dsig::{AcceptanceBand, TestSetup};
use analog_signature::engine::{Campaign, CampaignRunner, DevicePopulation};
use analog_signature::filters::BiquadParams;
use analog_signature::serve::{GoldenStore, ServeClient, ServeConfig, Server};

const DEVICES: usize = 1000;
const BATCH: usize = 64;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let setup = TestSetup::paper_default()?.with_sample_rate(1e6)?;
    let reference = BiquadParams::paper_default();
    let band = AcceptanceBand::new(0.03)?;

    // 1. Characterization (once per setup/reference): golden into the store,
    //    store onto disk — the artifact a test floor ships to its testers.
    let store = Arc::new(GoldenStore::new());
    let key = store.characterize(&setup, &reference, band)?;
    let store_path = std::env::temp_dir().join(format!("serve-example-goldens-{}.bin", std::process::id()));
    store.save(&store_path)?;
    println!(
        "golden store: fingerprint {key:#018x}, {} bytes on disk",
        std::fs::metadata(&store_path)?.len()
    );

    // 2. Simulate the production lot with the campaign engine, keeping every
    //    observed signature (this is the "tester capture" side).
    let campaign = Campaign::new(
        setup.clone(),
        reference,
        DevicePopulation::MonteCarlo {
            devices: DEVICES,
            sigma_pct: 3.0,
        },
        band,
        3.0,
    )?
    .with_seed(2026);
    let runner = CampaignRunner::new();
    let (report, log) = runner.run_logged(&campaign)?;
    println!(
        "lot simulated: {} devices, yield {:.1}%",
        report.devices(),
        100.0 * report.test_yield()
    );

    // 3. Serving: load the store back from disk (as a fresh serving process
    //    would) and screen the whole lot over loopback in batches.
    let served_store = Arc::new(GoldenStore::load(&store_path)?);
    let server = Server::bind("127.0.0.1:0", served_store, ServeConfig::default())?;
    println!("server listening on {}", server.local_addr());

    let client = ServeClient::connect(server.local_addr())?;
    let signatures: Vec<_> = log.entries().iter().map(|(_, s)| s.clone()).collect();
    let mut scores = Vec::with_capacity(signatures.len());
    for batch in signatures.chunks(BATCH) {
        scores.extend(client.screen(key, batch)?);
    }

    // 4. The served decisions must be bit-identical to the engine's.
    let mut mismatches = 0;
    for (score, result) in scores.iter().zip(&report.results) {
        if score.ndf.to_bits() != result.ndf.to_bits() || score.outcome != result.outcome {
            mismatches += 1;
        }
    }
    assert_eq!(mismatches, 0, "served scores diverged from direct engine scoring");
    println!(
        "screened {} signatures over TCP in batches of {BATCH}: all NDFs and outcomes bit-identical",
        scores.len()
    );
    println!("server scored {} signatures total", server.signatures_scored());
    std::fs::remove_file(&store_path).ok();
    Ok(())
}
