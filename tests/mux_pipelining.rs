//! Acceptance tests of the multiplexed serving core: one TCP connection
//! carrying hundreds of concurrently in-flight tagged requests must answer
//! them **out of order** (matched by the echoed request id) while staying
//! bit-identical to the blocking one-in-flight path — through a bare server
//! and through a routed 1k-device campaign at backend counts 1, 2 and 4 —
//! and the readiness-driven event loop must survive chaos: slow-loris
//! writers, mid-frame disconnects, garbage frames and stalled readers with
//! full write buffers, none of which may wedge other connections.

use std::io::Write;
use std::net::TcpStream;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use analog_signature::dsig::{AcceptanceBand, RetestPolicy, Signature, SignatureEntry, TestSetup, ZoneCode};
use analog_signature::engine::{
    available_threads, Campaign, CampaignReport, CampaignRunner, DevicePopulation, ScoreResult,
};
use analog_signature::filters::BiquadParams;
use analog_signature::obs::trace::{self, TraceContext};
use analog_signature::obs::{MetricsSnapshot, Registry};
use analog_signature::router::{Backend, PipelinedRouterClient, Router, RouterClient, RouterConfig, RouterStore};
use analog_signature::serve::{
    proto, GoldenStore, PipelinedClient, RetestItem, RetestRequest, ServeClient, ServeConfig, Server,
};

const DEVICES: usize = 1000;
const IN_FLIGHT: usize = 256;

/// Serializes the tests in this binary: the serving tier meters into the
/// process-global registry/tracer, so exact metric deltas and trace drains
/// are only meaningful while no sibling test is talking to a server.
fn exclusive() -> std::sync::MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    GUARD.lock().unwrap_or_else(|e| e.into_inner())
}

struct Lot {
    setup: TestSetup,
    reference: BiquadParams,
    band: AcceptanceBand,
    report: CampaignReport,
    signatures: Vec<Signature>,
}

/// Simulates the lot once for every test in this file; the report's
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
        Lot {
            setup,
            reference,
            band,
            report,
            signatures: log.entries().iter().map(|(_, s)| s.clone()).collect(),
        }
    })
}

fn served_store() -> (Arc<GoldenStore>, u64) {
    let lot = lot();
    let store = Arc::new(GoldenStore::new());
    let key = store.characterize(&lot.setup, &lot.reference, lot.band).unwrap();
    (store, key)
}

/// The connection mode a pool of `shards` workers serves in: one worker
/// answers each request inline on its connection's reader thread, more run
/// requests as pool jobs.
fn mode_of(shards: usize) -> &'static str {
    if shards == 1 {
        "inline"
    } else {
        "pooled"
    }
}

#[test]
fn hundreds_of_in_flight_requests_on_one_connection_match_the_blocking_path() {
    let _exclusive = exclusive();
    let lot = lot();
    let (store, key) = served_store();
    let server = Server::bind("127.0.0.1:0", store, ServeConfig::with_shards(4)).unwrap();

    // 32 DSRT retest requests ride along with the 256 DSRQ screens, so both
    // tagged work families interleave on the same stream.
    let policy = RetestPolicy::new(0.01, vec![2, 4]).unwrap();
    let retests: Vec<RetestRequest> = (0..32)
        .map(|r| RetestRequest {
            golden_key: key,
            policy: policy.clone(),
            items: (0..8)
                .map(|i| {
                    let at = (r * 8 + i) % (DEVICES - 5);
                    RetestItem {
                        initial: lot.signatures[at].clone(),
                        repeats: lot.signatures[at + 1..at + 5].to_vec(),
                    }
                })
                .collect(),
        })
        .collect();

    // Ground truth: the blocking one-in-flight client.
    let blocking = ServeClient::connect(server.local_addr()).unwrap();
    let blocking_scores: Vec<_> = lot.signatures[..IN_FLIGHT]
        .iter()
        .map(|s| blocking.screen_one(key, s).unwrap())
        .collect();
    let blocking_retests: Vec<_> = retests.iter().map(|r| blocking.screen_retest(r).unwrap()).collect();

    // Snapshot the per-family counters after the blocking run, drain stale
    // spans, then put every request in flight before waiting on any: 288
    // responses outstanding on one connection.
    let before = server.metrics();
    let _ = server.handle().traces();
    let pipelined = PipelinedClient::connect(server.local_addr()).unwrap();
    let screen_tickets: Vec<_> = lot.signatures[..IN_FLIGHT]
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let _ctx = trace::with_context(TraceContext {
                trace_id: 0xACE0_0000 + i as u64,
                parent_span: 1,
                sampled: true,
            });
            pipelined.start_screen(key, std::slice::from_ref(s)).unwrap()
        })
        .collect();
    let retest_tickets: Vec<_> = retests
        .iter()
        .enumerate()
        .map(|(r, request)| {
            let _ctx = trace::with_context(TraceContext {
                trace_id: 0xBEE0_0000 + r as u64,
                parent_span: 1,
                sampled: true,
            });
            pipelined.start_retest(request).unwrap()
        })
        .collect();

    for (i, ticket) in screen_tickets.into_iter().enumerate() {
        let scores = pipelined.wait_screen(ticket, 1, key).unwrap();
        assert_eq!(scores.len(), 1);
        assert_eq!(
            scores[0].ndf.to_bits(),
            blocking_scores[i].ndf.to_bits(),
            "device {i}: pipelined NDF must be bit-identical to the blocking path"
        );
        assert_eq!(scores[0].outcome, blocking_scores[i].outcome, "device {i}");
        assert_eq!(scores[0].peak_hamming, blocking_scores[i].peak_hamming, "device {i}");
    }
    for (r, ticket) in retest_tickets.into_iter().enumerate() {
        let scores = pipelined.wait_retest(ticket, retests[r].items.len(), key).unwrap();
        assert_eq!(scores, blocking_retests[r], "retest request {r}");
        for (a, b) in scores.iter().zip(&blocking_retests[r]) {
            assert_eq!(a.score.ndf.to_bits(), b.score.ndf.to_bits(), "retest request {r}");
        }
    }

    // Per-family metrics survived the interleaving: exactly 256 more DSRQ
    // and 32 more DSRT dispatches, every signature counted once.
    let after = server.metrics();
    let delta = |name: &str| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
    assert_eq!(delta("serve.requests.dsrq"), IN_FLIGHT as u64);
    assert_eq!(delta("serve.requests.dsrt"), 32);
    assert_eq!(delta("serve.errors.decode"), 0);

    // And so did the trace contexts: every request's spans landed under the
    // trace id its issuing context carried, none under anyone else's.
    let spans = server.handle().traces().spans;
    let seen: std::collections::HashSet<u64> = spans.iter().map(|s| s.trace_id).collect();
    for i in 0..IN_FLIGHT as u64 {
        assert!(
            seen.contains(&(0xACE0_0000 + i)),
            "screen trace {i} lost in interleaving"
        );
    }
    for r in 0..32u64 {
        assert!(
            seen.contains(&(0xBEE0_0000 + r)),
            "retest trace {r} lost in interleaving"
        );
    }
    for id in &seen {
        assert!(
            (0xACE0_0000..0xACE0_0000 + IN_FLIGHT as u64).contains(id) || (0xBEE0_0000..0xBEE0_0000 + 32).contains(id),
            "span recorded under unknown trace id {id:#x}"
        );
    }
}

#[test]
fn scrape_frames_interleave_with_hundreds_of_in_flight_screens() {
    let _exclusive = exclusive();
    let lot = lot();
    let (store, key) = served_store();
    let server = Server::bind("127.0.0.1:0", store, ServeConfig::with_shards(4)).unwrap();

    let blocking = ServeClient::connect(server.local_addr()).unwrap();
    let reference = blocking.screen_one(key, &lot.signatures[0]).unwrap();

    // Put 128 screens in flight, then run the whole observability surface —
    // DSMX, DSFM, DSEX (twice), DSHC — on the *same* connection while the
    // work drains. The scrapes ride the tagged mux like any other request,
    // so they answer without waiting for the queue ahead of them.
    let before = server.metrics();
    let pipelined = PipelinedClient::connect(server.local_addr()).unwrap();
    const WORK: usize = 128;
    let tickets: Vec<_> = (0..WORK)
        .map(|_| {
            pipelined
                .start_screen(key, std::slice::from_ref(&lot.signatures[0]))
                .unwrap()
        })
        .collect();

    let snapshot = pipelined.metrics().unwrap();
    assert!(
        snapshot.counter("serve.requests.dsrq").is_some(),
        "mid-flight DSMX must answer a live snapshot"
    );
    let fleet = pipelined.fleet_metrics().unwrap();
    assert!(
        fleet.counter("serve.requests.dsrq").is_some(),
        "a bare server answers DSFM as a fleet of one (unprefixed)"
    );
    let health = pipelined.health().unwrap();
    assert_eq!(
        (health.backed_off, health.backends),
        (0, 1),
        "a standalone server is a fleet of one with nothing backed off: {health:?}"
    );
    let drained = pipelined.events().unwrap();
    let again = pipelined.events().unwrap();
    for event in &again.events {
        assert!(
            !drained
                .events
                .iter()
                .any(|e| (e.at_us, &e.name, &e.message) == (event.at_us, &event.name, &event.message)),
            "DSEX is a take: no event may be exported twice ({})",
            event.name
        );
    }

    // The interleaved scrapes cost the work nothing: every screen comes
    // back bit-identical to the blocking path.
    for ticket in tickets {
        let scores = pipelined.wait_screen(ticket, 1, key).unwrap();
        assert_eq!(scores[0].ndf.to_bits(), reference.ndf.to_bits());
        assert_eq!(scores[0].outcome, reference.outcome);
    }
    let after = server.metrics();
    let delta = |name: &str| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
    assert_eq!(delta("serve.requests.dsrq"), WORK as u64);
    assert_eq!(delta("serve.requests.dsmx"), 1);
    assert_eq!(delta("serve.requests.dsfm"), 1);
    assert_eq!(delta("serve.requests.dsex"), 2);
    assert_eq!(delta("serve.requests.dshc"), 1);
    assert_eq!(delta("serve.errors.decode"), 0);
}

#[test]
fn tagged_responses_complete_out_of_order_and_are_matched_by_id() {
    let _exclusive = exclusive();
    let lot = lot();
    let (store, key) = served_store();
    let server = Server::bind("127.0.0.1:0", store, ServeConfig::with_shards(2)).unwrap();

    let blocking = ServeClient::connect(server.local_addr()).unwrap();
    let light_score = blocking.screen_one(key, &lot.signatures[0]).unwrap();

    // Raw wire: request id 1 carries a 2048-signature batch, ids 2..=65 one
    // signature each. With more than one pool worker the light responses
    // overtake the heavy one, so the arrival order cannot be the submission
    // order — the echoed id is the only correlator.
    let heavy_batch = vec![lot.signatures[0].clone(); 2048];
    let attempts = if available_threads() >= 2 { 3 } else { 0 };
    let mut saw_reordering = attempts == 0;
    for _ in 0..attempts.max(1) {
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut writer = std::io::BufWriter::new(stream.try_clone().unwrap());
        let mut reader = std::io::BufReader::new(stream);
        let mut frame = proto::encode_request(key, &heavy_batch);
        proto::stamp_request_id(&mut frame, 1);
        proto::write_frame(&mut writer, &frame).unwrap();
        for id in 2u64..=65 {
            let mut frame = proto::encode_request(key, std::slice::from_ref(&lot.signatures[0]));
            proto::stamp_request_id(&mut frame, id);
            proto::write_frame(&mut writer, &frame).unwrap();
        }
        writer.flush().unwrap();

        let mut arrival = Vec::with_capacity(65);
        for _ in 0..65 {
            let payload = proto::read_frame(&mut reader).unwrap().expect("response frame");
            let id = proto::peek_request_id(&payload);
            let scores = match proto::decode_response(&payload).unwrap() {
                proto::ScreenResponse::Results(scores) => scores,
                other => panic!("unexpected response {other:?}"),
            };
            let expected = if id == 1 { heavy_batch.len() } else { 1 };
            assert_eq!(scores.len(), expected, "response {id}");
            for score in &scores {
                assert_eq!(score.ndf.to_bits(), light_score.ndf.to_bits(), "response {id}");
            }
            arrival.push(id);
        }
        let mut ids = arrival.clone();
        ids.sort_unstable();
        assert_eq!(ids, (1u64..=65).collect::<Vec<_>>(), "every id answered exactly once");
        if arrival != ids {
            saw_reordering = true;
            break;
        }
    }
    assert!(
        saw_reordering,
        "with {} pool workers the heavy response must be overtaken by a light one",
        available_threads()
    );
}

#[test]
fn routed_pipelined_campaign_is_bit_identical_at_every_backend_count() {
    let _exclusive = exclusive();
    let lot = lot();
    const BATCH: usize = 64;
    for backends in [1usize, 2, 4] {
        // A real fleet: one TCP serve process per backend, one router in
        // front, goldens replicated through the router's (now multiplexed)
        // upstream connections.
        let servers: Vec<Server> = (0..backends)
            .map(|_| Server::bind("127.0.0.1:0", Arc::new(GoldenStore::new()), ServeConfig::default()).unwrap())
            .collect();
        let fleet = servers.iter().map(|s| Backend::tcp(s.local_addr())).collect();
        let router = Router::bind("127.0.0.1:0", fleet, RouterStore::new(), RouterConfig::default()).unwrap();
        let key = router
            .handle()
            .characterize(&lot.setup, &lot.reference, lot.band)
            .unwrap();

        let blocking = RouterClient::connect(router.local_addr()).unwrap();
        let mut blocking_scores = Vec::with_capacity(DEVICES);
        for batch in lot.signatures.chunks(BATCH) {
            blocking_scores.extend(blocking.screen(key, batch).unwrap());
        }

        // The pipelined campaign: every batch in flight before any is
        // awaited, all on one downstream connection.
        let pipelined = PipelinedRouterClient::connect(router.local_addr()).unwrap();
        let tickets: Vec<_> = lot
            .signatures
            .chunks(BATCH)
            .map(|batch| (pipelined.start_screen(key, batch).unwrap(), batch.len()))
            .collect();
        let mut scores = Vec::with_capacity(DEVICES);
        for (ticket, expected) in tickets {
            scores.extend(pipelined.wait_screen(ticket, expected, key).unwrap());
        }

        assert_eq!(scores.len(), DEVICES);
        for ((score, blocked), result) in scores.iter().zip(&blocking_scores).zip(&lot.report.results) {
            assert_eq!(
                score.ndf.to_bits(),
                result.ndf.to_bits(),
                "backends={backends} device={}: routed pipelined NDF must be bit-identical to direct scoring",
                result.index
            );
            assert_eq!(score.ndf.to_bits(), blocked.ndf.to_bits(), "backends={backends}");
            assert_eq!(
                score.outcome, result.outcome,
                "backends={backends} device={}",
                result.index
            );
            assert_eq!(score.peak_hamming, result.peak_hamming, "backends={backends}");
        }
    }
}

#[test]
fn old_version_frames_draw_current_bad_request_errors_and_the_connection_keeps_serving() {
    let _exclusive = exclusive();
    let lot = lot();
    let (store, key) = served_store();
    let server = Server::bind("127.0.0.1:0", store, ServeConfig::with_shards(2)).unwrap();
    let addr = server.local_addr();

    let blocking = ServeClient::connect(addr).unwrap();
    let expected = blocking.screen_one(key, &lot.signatures[0]).unwrap();

    // A version-2 DSRQ (trace context, no request id) and a version-1 DSMX
    // (bare header): the layouts from before every frame carried its id.
    let current = proto::encode_request(key, std::slice::from_ref(&lot.signatures[0]));
    let mut v2 = Vec::new();
    v2.extend_from_slice(&current[..4]);
    v2.extend_from_slice(&2u16.to_le_bytes());
    v2.extend_from_slice(&current[14..]); // trace context + body
    let mut v1_scrape = Vec::new();
    v1_scrape.extend_from_slice(b"DSMX");
    v1_scrape.extend_from_slice(&1u16.to_le_bytes());

    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = std::io::BufWriter::new(stream.try_clone().unwrap());
    let mut reader = std::io::BufReader::new(stream);
    let mut exchange = |frame: &[u8]| {
        proto::write_frame(&mut writer, frame).unwrap();
        writer.flush().unwrap();
        proto::read_frame(&mut reader).unwrap().expect("response frame")
    };

    // Each old frame is answered like any malformed one: a current-version
    // BadRequest error in its own response family.
    let response = exchange(&v2);
    assert_eq!(&response[..4], b"DSRS");
    assert_eq!(u16::from_le_bytes([response[4], response[5]]), proto::PROTO_VERSION);
    match proto::decode_response(&response).unwrap() {
        proto::ScreenResponse::Error { code, message } => {
            assert_eq!(code, proto::ErrorCode::BadRequest);
            assert!(message.contains("version"), "{message}");
        }
        other => panic!("a v2 DSRQ must draw an error, got {other:?}"),
    }
    let response = exchange(&v1_scrape);
    assert_eq!(&response[..4], b"DSMR");
    assert_eq!(u16::from_le_bytes([response[4], response[5]]), proto::PROTO_VERSION);
    assert!(matches!(
        proto::decode_reply::<MetricsSnapshot>(&response).unwrap(),
        proto::Reply::Error {
            code: proto::ErrorCode::BadRequest,
            ..
        }
    ));

    // The same connection then serves a current DSRQ bit-identically.
    let mut frame = current.clone();
    proto::stamp_request_id(&mut frame, 7);
    let response = exchange(&frame);
    assert_eq!(proto::peek_request_id(&response), 7);
    match proto::decode_response(&response).unwrap() {
        proto::ScreenResponse::Results(scores) => {
            assert_eq!(scores.len(), 1);
            assert_eq!(scores[0].ndf.to_bits(), expected.ndf.to_bits());
            assert_eq!(scores[0].outcome, expected.outcome);
            assert_eq!(scores[0].peak_hamming, expected.peak_hamming);
        }
        other => panic!("unexpected response {other:?}"),
    }
}

#[test]
fn a_dsft_frame_from_an_old_peer_draws_an_explicit_error_and_the_connection_keeps_serving() {
    let _exclusive = exclusive();
    let lot = lot();
    let (store, key) = served_store();
    // The server meters into its own registry and the router into the
    // process-wide one, so each tier's decode errors are read apart.
    let server = Server::bind_in("127.0.0.1:0", store, ServeConfig::default(), Registry::new()).unwrap();
    let router = Router::bind(
        "127.0.0.1:0",
        vec![Backend::tcp(server.local_addr())],
        RouterStore::new(),
        RouterConfig::default(),
    )
    .unwrap();
    router
        .handle()
        .characterize(&lot.setup, &lot.reference, lot.band)
        .unwrap();

    // The deleted fleet trace drain as an old peer still frames it: a
    // header-only `DSFT` scrape at version 2 with its request id.
    let mut dsft = b"DSFT".to_vec();
    dsft.extend_from_slice(&2u16.to_le_bytes());
    dsft.extend_from_slice(&0x5EEDu64.to_le_bytes());
    // Then a current DSRQ, whose answer is direct scoring's, bit for bit.
    let mut screen = proto::encode_request(key, std::slice::from_ref(&lot.signatures[0]));
    proto::stamp_request_id(&mut screen, 7);
    let direct = &lot.report.results[0];
    let mut expected = proto::encode_response(&proto::Reply::Results(vec![ScoreResult {
        ndf: direct.ndf,
        peak_hamming: direct.peak_hamming,
        outcome: direct.outcome,
    }]));
    proto::stamp_request_id(&mut expected, 7);

    let before = [server.metrics(), router.handle().metrics()];
    for (tier, addr) in [("server", server.local_addr()), ("router", router.local_addr())] {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut writer = std::io::BufWriter::new(stream.try_clone().unwrap());
        let mut reader = std::io::BufReader::new(stream);
        let mut exchange = |frame: &[u8]| {
            proto::write_frame(&mut writer, frame).unwrap();
            writer.flush().unwrap();
            proto::read_frame(&mut reader).unwrap().expect("response frame")
        };

        // An unknown magic answers in the screen family, under its id.
        let response = exchange(&dsft);
        assert_eq!(proto::peek_request_id(&response), 0x5EED, "{tier}");
        match proto::decode_response(&response).unwrap() {
            proto::Reply::Error { code, message } => {
                assert_eq!(code, proto::ErrorCode::BadRequest, "{tier}");
                assert!(message.contains("DSFT"), "{tier}: {message}");
            }
            other => panic!("{tier}: a DSFT frame must draw an error, got {other:?}"),
        }
        assert_eq!(exchange(&screen), expected, "{tier}");
    }
    // Each tier counted the DSFT its own decoder refused: the router
    // answered its copy without forwarding it.
    let after = [server.metrics(), router.handle().metrics()];
    for ((tier, before), after) in ["server", "router"].into_iter().zip(&before).zip(&after) {
        let decode_errors = |snapshot: &MetricsSnapshot| snapshot.counter("serve.errors.decode").unwrap_or(0);
        assert_eq!(decode_errors(after) - decode_errors(before), 1, "{tier}");
    }
}

#[test]
fn slow_loris_mid_frame_disconnects_and_garbage_do_not_wedge_other_connections() {
    let _exclusive = exclusive();
    for shards in [1usize, 2] {
        chaos_peers_at(shards);
    }
}

/// The chaos-peer scenario on a server whose pool has `shards` workers.
fn chaos_peers_at(shards: usize) {
    let mode = mode_of(shards);
    let lot = lot();
    let (store, key) = served_store();
    let server = Server::bind("127.0.0.1:0", store, ServeConfig::with_shards(shards)).unwrap();
    let addr = server.local_addr();

    let blocking = ServeClient::connect(addr).unwrap();
    let reference_score = blocking.screen_one(key, &lot.signatures[0]).unwrap();

    // Chaos peer 1: a slow-loris writer trickling one valid tagged frame a
    // byte at a time. It must eventually get its correct answer — and must
    // not delay anyone else while trickling.
    let loris = {
        let signature = lot.signatures[0].clone();
        std::thread::spawn(move || {
            let mut payload = proto::encode_request(key, std::slice::from_ref(&signature));
            proto::stamp_request_id(&mut payload, 42);
            let mut wire_bytes = (payload.len() as u32).to_le_bytes().to_vec();
            wire_bytes.append(&mut payload);
            let mut stream = TcpStream::connect(addr).unwrap();
            for byte in wire_bytes {
                stream.write_all(&[byte]).unwrap();
                stream.flush().unwrap();
                std::thread::sleep(Duration::from_millis(1));
            }
            let mut reader = std::io::BufReader::new(stream);
            let payload = proto::read_frame(&mut reader).unwrap().expect("loris response");
            assert_eq!(proto::peek_request_id(&payload), 42);
            match proto::decode_response(&payload).unwrap() {
                proto::ScreenResponse::Results(scores) => scores[0],
                other => panic!("unexpected loris response {other:?}"),
            }
        })
    };

    // Chaos peer 2: claims a 1000-byte frame, sends 10 bytes, disconnects
    // mid-frame. Chaos peer 3: a well-framed garbage payload — the server
    // must answer with a decode error, not drop the connection silently.
    let torn = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&1000u32.to_le_bytes()).unwrap();
        stream.write_all(&[0xAB; 10]).unwrap();
    });
    let garbage = std::thread::spawn(move || {
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = std::io::BufWriter::new(stream.try_clone().unwrap());
        proto::write_frame(&mut writer, b"JUNKJUNKJUNKJUNK").unwrap();
        writer.flush().unwrap();
        let mut reader = std::io::BufReader::new(stream);
        let response = proto::read_frame(&mut reader).unwrap();
        assert!(response.is_some(), "garbage must be answered with an error frame");
    });

    // Meanwhile the healthy connection pipelines 200 screens; every one
    // must come back promptly and bit-identical despite the chaos peers.
    let pipelined = PipelinedClient::connect(addr).unwrap();
    let tickets: Vec<_> = (0..200)
        .map(|_| {
            pipelined
                .start_screen(key, std::slice::from_ref(&lot.signatures[0]))
                .unwrap()
        })
        .collect();
    for ticket in tickets {
        let scores = pipelined.wait_screen(ticket, 1, key).unwrap();
        assert_eq!(scores[0].ndf.to_bits(), reference_score.ndf.to_bits(), "{mode}");
    }

    let loris_score = loris.join().expect("slow-loris must be served, not wedged");
    assert_eq!(loris_score.ndf.to_bits(), reference_score.ndf.to_bits(), "{mode}");
    torn.join().unwrap();
    garbage.join().unwrap();

    // The torn frame and the garbage frame cost the server nothing but a
    // decode error; it still serves new connections.
    let fresh = ServeClient::connect(addr).unwrap();
    let score = fresh.screen_one(key, &lot.signatures[0]).unwrap();
    assert_eq!(score.ndf.to_bits(), reference_score.ndf.to_bits(), "{mode}");
}

#[test]
fn a_stalled_reader_with_a_full_write_buffer_does_not_block_other_connections() {
    let _exclusive = exclusive();
    for shards in [1usize, 2] {
        stalled_reader_at(shards);
    }
}

/// The stalled-reader scenario on a server whose pool has `shards` workers.
fn stalled_reader_at(shards: usize) {
    let mode = mode_of(shards);
    let lot = lot();
    let (store, key) = served_store();
    let server = Server::bind("127.0.0.1:0", store, ServeConfig::with_shards(shards)).unwrap();
    let addr = server.local_addr();

    let blocking = ServeClient::connect(addr).unwrap();
    let reference_score = blocking.screen_one(key, &lot.signatures[0]).unwrap();

    // The stalled peer: pipelines 256 requests for 256-score responses
    // (roughly 850 KiB of answers) and never reads a byte. Its connection's
    // writer thread backs up against the kernel buffers; the pool and every
    // other connection must not.
    let tiny = Signature::new(
        1e-6,
        vec![SignatureEntry {
            code: ZoneCode(1),
            count: 1,
        }],
    )
    .unwrap();
    let stalled = TcpStream::connect(addr).unwrap();
    {
        let mut writer = std::io::BufWriter::new(stalled.try_clone().unwrap());
        let batch = vec![tiny; 256];
        for id in 1u64..=256 {
            let mut frame = proto::encode_request(key, &batch);
            proto::stamp_request_id(&mut frame, id);
            proto::write_frame(&mut writer, &frame).unwrap();
        }
        writer.flush().unwrap();
    }
    // Let the pool chew through the stalled peer's requests so its writer
    // is actually wedged against the unread buffer, not merely idle.
    std::thread::sleep(Duration::from_millis(300));

    // A healthy client must screen unimpeded — run it on a watchdog so a
    // wedged event loop fails the test instead of hanging it.
    let healthy = {
        let signature = lot.signatures[0].clone();
        std::thread::spawn(move || {
            let pipelined = PipelinedClient::connect(addr).unwrap();
            let tickets: Vec<_> = (0..64)
                .map(|_| pipelined.start_screen(key, std::slice::from_ref(&signature)).unwrap())
                .collect();
            tickets
                .into_iter()
                .map(|t| pipelined.wait_screen(t, 1, key).unwrap()[0])
                .collect::<Vec<_>>()
        })
    };
    let (done, watchdog) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = done.send(healthy.join());
    });
    let scores = watchdog
        .recv_timeout(Duration::from_secs(30))
        .unwrap_or_else(|_| panic!("healthy connection starved by a stalled peer ({mode})"))
        .expect("healthy client panicked");
    assert_eq!(scores.len(), 64);
    for score in scores {
        assert_eq!(score.ndf.to_bits(), reference_score.ndf.to_bits(), "{mode}");
    }

    // Once it reads again, the stalled peer gets every answer. Taking them
    // all also means none of its requests is still queued in the server when
    // the next test starts metering the process-global counters.
    let mut reader = std::io::BufReader::new(stalled);
    let mut answered: Vec<u64> = (0..256)
        .map(|_| {
            let payload = proto::read_frame(&mut reader).unwrap().expect("stalled peer's answer");
            proto::peek_request_id(&payload)
        })
        .collect();
    answered.sort_unstable();
    assert_eq!(answered, (1u64..=256).collect::<Vec<_>>(), "{mode}");
}
