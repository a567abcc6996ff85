//! Multi-backend routed serving: spawn three scoring backends, front them
//! with a router, characterize a golden through the router (replicating it
//! to its rendezvous owners), screen a Monte-Carlo production lot over
//! loopback TCP — then kill a backend mid-lot and verify that failover
//! changes **zero** verdicts versus direct campaign-engine scoring.
//!
//! Run with `cargo run --release --example router`.

use std::sync::Arc;

use analog_signature::dsig::{AcceptanceBand, TestSetup};
use analog_signature::engine::{Campaign, CampaignRunner, DevicePopulation};
use analog_signature::filters::BiquadParams;
use analog_signature::router::{Backend, Router, RouterClient, RouterConfig, RouterStore};
use analog_signature::serve::{GoldenStore, ServeClient, ServeConfig, Server};

const DEVICES: usize = 1000;
const BATCH: usize = 64;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let setup = TestSetup::paper_default()?.with_sample_rate(1e6)?;
    let reference = BiquadParams::paper_default();
    let band = AcceptanceBand::new(0.03)?;

    // 1. The backend fleet: two real `dsig-serve` processes-worth of TCP
    //    servers plus one in-process backend, all fronted by one router.
    let mut server_a = Server::bind("127.0.0.1:0", Arc::new(GoldenStore::new()), ServeConfig::with_shards(2))?;
    let mut server_b = Server::bind("127.0.0.1:0", Arc::new(GoldenStore::new()), ServeConfig::with_shards(2))?;
    let local = analog_signature::serve::ServeHandle::spawn(Arc::new(GoldenStore::new()), ServeConfig::with_shards(2));
    let fleet = vec![
        Backend::tcp(server_a.local_addr()),
        Backend::tcp(server_b.local_addr()),
        Backend::local(2, local),
    ];
    let router = Router::bind("127.0.0.1:0", fleet, RouterStore::new(), RouterConfig::default())?;
    println!(
        "router on {} fronting backends [{}, {}, local-2]",
        router.local_addr(),
        server_a.local_addr(),
        server_b.local_addr()
    );

    // 2. Characterization through the router: the golden lands in the router
    //    store and on its rendezvous owner + replica.
    let handle = router.handle();
    let key = handle.characterize(&setup, &reference, band)?;
    let rank = handle.rank_labels(key);
    println!(
        "golden {key:#018x}: owner backend {}, replica backend {}",
        rank[0], rank[1]
    );

    // Backends answer readbacks for what they own (the replication path).
    let direct = ServeClient::connect(server_a.local_addr())?;
    let holds = direct.fetch_golden(key).is_ok();
    println!("backend {} holds the golden directly: {holds}", server_a.local_addr());

    // 3. Simulate the production lot with the campaign engine; its per-device
    //    scores are direct TestFlow scoring — the reference verdicts.
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
    let (report, log) = CampaignRunner::new().run_logged(&campaign)?;
    let signatures: Vec<_> = log.entries().iter().map(|(_, s)| s.clone()).collect();
    println!(
        "lot simulated: {} devices, yield {:.1}%",
        report.devices(),
        100.0 * report.test_yield()
    );

    // 4. Screen the first half through the router, kill the owner backend,
    //    screen the rest — failover must not change a single verdict.
    let client = RouterClient::connect(router.local_addr())?;
    let mut scores = Vec::with_capacity(DEVICES);
    let half = DEVICES / 2;
    for batch in signatures[..half].chunks(BATCH) {
        scores.extend(client.screen(key, batch)?);
    }
    // A real kill: shut the owning TCP server down (its listener closes, so
    // fresh dials are refused; connections it already accepted, the
    // router's among them, keep being served), and flip the member's kill
    // switch at the router, which refuses its work on any transport until a
    // revive. Backends are addressed by label: a TCP backend's label is its
    // host:port.
    let owner = &rank[0];
    if *owner == server_a.local_addr().to_string() {
        server_a.shutdown();
    } else if *owner == server_b.local_addr().to_string() {
        server_b.shutdown();
    }
    handle.kill(owner)?;
    println!(
        "killed owner backend {owner} mid-lot; failing over to backend {}",
        rank[1]
    );
    for batch in signatures[half..].chunks(BATCH) {
        scores.extend(client.screen(key, batch)?);
    }

    let mut mismatches = 0;
    for (score, result) in scores.iter().zip(&report.results) {
        if score.ndf.to_bits() != result.ndf.to_bits() || score.outcome != result.outcome {
            mismatches += 1;
        }
    }
    assert_eq!(mismatches, 0, "routed scores diverged from direct engine scoring");
    println!(
        "screened {} signatures through the router (owner killed at device {half}): \
         all NDFs and outcomes bit-identical, {mismatches} wrong verdicts",
        scores.len()
    );
    assert!(handle.backend_is_down(owner)?, "health record must mark the dead owner");
    Ok(())
}
