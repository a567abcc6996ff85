//! Acceptance test of end-to-end distributed tracing: a retest campaign
//! routed through a backend fleet must leave one **connected** span tree per
//! chunk — the engine's root `engine.chunk` span parenting the capture/
//! score/retest children, the router's screening spans beneath those, and
//! the serving tier's scoring spans beneath the router's forwards — with no
//! orphans at any backend count. And the instrumentation
//! must be purely observational: the traced routed report stays bit-identical
//! to an untraced local run.

use std::collections::HashMap;

use analog_signature::dsig::{AcceptanceBand, RetestPolicy, TestSetup};
use analog_signature::engine::{Campaign, CampaignRunner, DevicePopulation, ScoreTarget};
use analog_signature::filters::BiquadParams;
use analog_signature::obs::{Registry, SpanRecord, TraceTree};
use analog_signature::router::{RouterConfig, RouterHandle, RouterStore};

#[test]
fn routed_retest_campaign_yields_one_connected_span_tree_per_chunk() {
    const DEVICES: usize = 40;
    const CHUNK: usize = 16;
    let chunks = DEVICES.div_ceil(CHUNK);

    let setup = TestSetup::paper_default()
        .unwrap()
        .with_sample_rate(1e6)
        .unwrap()
        .with_noise(analog_signature::signal::NoiseModel::paper_default());
    let reference = BiquadParams::paper_default();
    let band = AcceptanceBand::new(0.03).unwrap();
    let policy = RetestPolicy::new(0.015, vec![4]).unwrap();
    let campaign = Campaign::new(
        setup.clone(),
        reference,
        DevicePopulation::MonteCarlo {
            devices: DEVICES,
            sigma_pct: 4.0,
        },
        band,
        3.0,
    )
    .unwrap()
    .with_seed(77);

    // The untraced reference: tracing off, no router — the report every
    // traced routed run below must reproduce bit-for-bit.
    let local = CampaignRunner::with_threads(2)
        .with_chunk_size(CHUNK)
        .with_tracing(false)
        .with_retest(policy.clone())
        .run(&campaign)
        .unwrap();
    let tracer = Registry::global().tracer().clone();
    assert!(
        tracer.drain().is_empty(),
        "an untraced run must not record a single span"
    );

    for backends in [1usize, 2] {
        let router = RouterHandle::spawn(backends, RouterStore::new(), RouterConfig::default()).unwrap();
        router.characterize(&setup, &reference, band).unwrap();
        tracer.drain(); // discard anything recorded before this run

        let routed = CampaignRunner::with_threads(2)
            .with_chunk_size(CHUNK)
            .with_retest(policy.clone())
            .run_with_target(&campaign, ScoreTarget::Remote(&router))
            .unwrap();
        assert_eq!(
            routed, local,
            "tracing a routed run through {backends} backend(s) must not perturb the report"
        );

        // Every tier shares the process-global tracer here, so one drain
        // holds the engine, router and serve spans of the whole campaign.
        let spans = tracer.drain();
        let trees = TraceTree::build(&spans);
        assert_eq!(
            trees.len(),
            chunks,
            "expected one trace per chunk at {backends} backend(s)"
        );
        let mut total_forwards = 0usize;
        let mut total_scores = 0usize;
        for tree in &trees {
            assert_eq!(tree.orphan_count(), 0, "disconnected span in:\n{}", tree.render());
            assert_eq!(tree.root_count(), 1, "expected a single root in:\n{}", tree.render());
            let by_id: HashMap<u64, &SpanRecord> = tree.spans().iter().map(|s| (s.span_id, s)).collect();
            let root = tree.spans().iter().find(|s| s.parent_span == 0).unwrap();
            assert_eq!(root.name, "engine.chunk");
            assert_eq!(root.tier, "engine");
            for name in ["engine.capture", "engine.score", "engine.retest", "router.screen"] {
                assert!(
                    tree.spans().iter().any(|s| s.name == name),
                    "missing {name} span in:\n{}",
                    tree.render()
                );
            }
            for span in tree.spans() {
                let parent = by_id.get(&span.parent_span);
                match span.tier.as_str() {
                    // Serve spans always hang beneath the router's forwards.
                    "serve" => {
                        total_scores += usize::from(span.name == "serve.score");
                        assert_eq!(
                            parent.expect("serve span has a parent").name,
                            "router.forward",
                            "serve span {} must parent under a router forward",
                            span.name
                        );
                    }
                    // Router spans hang beneath the engine or other router
                    // spans, never beneath the serving tier.
                    "router" => {
                        total_forwards += usize::from(span.name == "router.forward");
                        assert_ne!(parent.expect("router span has a parent").tier, "serve");
                    }
                    "engine" => {}
                    other => panic!("unexpected tier {other}"),
                }
            }
        }
        assert!(total_forwards > 0, "no router.forward spans at {backends} backend(s)");
        assert!(total_scores > 0, "no serve.score spans at {backends} backend(s)");
    }
}
