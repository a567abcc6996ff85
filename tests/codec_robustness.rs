//! Property tests of the binary codecs: random signatures, logs and wire
//! frames (including the router tier's `DSGP`/`DSGF`/`DSRA`, the
//! `DSAQ` fleet-admin verbs with their roster responses, and the
//! observability tier's `DSMS` snapshots, `DSMX`/`DSMR` scrape pair, `DSTL`
//! trace logs, `DSTX`/`DSTD` trace scrape pair, `DSEL` event logs with
//! their `DSEX`/`DSED` drain pair, the `DSHC` health-check pair and the
//! `DSFM` fleet-scrape request) must round-trip bit-exactly, and
//! random truncations / byte mutations must be rejected or decoded — never
//! panic, never hang, never over-allocate.

use analog_signature::dsig::{AcceptanceBand, DsigError, Signature, SignatureEntry, ZoneCode};
use analog_signature::engine::SignatureLog;
use analog_signature::obs::{MetricsSnapshot, Registry};
use analog_signature::serve::{proto, GoldenRecord};
use proptest::prelude::*;

/// Builds a valid signature from generated `(code, count)` pairs, counted
/// in the paper clock's 0.1 µs ticks.
fn signature_from(parts: &[(u32, u32)]) -> Signature {
    Signature::new(
        1e-7,
        parts
            .iter()
            .map(|&(code, count)| SignatureEntry {
                code: ZoneCode(code),
                count,
            })
            .collect(),
    )
    .expect("generated counts sum within a u32")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn signature_round_trips_bit_exact(parts in prop::collection::vec((0u32..u32::MAX, 1u32..100_000_000), 1..40)) {
        // Any code and count, at every varint width.
        let signature = signature_from(&parts);
        let bytes = signature.to_bytes();
        prop_assert!(bytes.len() <= signature.max_encoded_len());
        let decoded = Signature::from_bytes(&bytes).unwrap();
        prop_assert_eq!(&decoded, &signature);
        prop_assert_eq!(decoded.unit().to_bits(), signature.unit().to_bits());
    }

    #[test]
    fn truncated_signatures_always_error(
        parts in prop::collection::vec((0u32..64, 1u32..5000), 1..20),
        cut in 0.0..1.0_f64,
    ) {
        let bytes = signature_from(&parts).to_bytes();
        let keep = (bytes.len() as f64 * cut) as usize; // strictly < len
        let result = Signature::from_bytes(&bytes[..keep]);
        prop_assert!(result.is_err(), "a {keep}-of-{} byte prefix must not decode", bytes.len());
        prop_assert!(
            matches!(result, Err(DsigError::Truncated { .. } | DsigError::Corrupt { .. })),
            "truncation must map to a dedicated codec error, got {:?}", result
        );
    }

    #[test]
    fn mutated_signatures_never_panic(
        parts in prop::collection::vec((0u32..64, 1u32..5000), 1..20),
        position in 0.0..1.0_f64,
        flip in 1u8..255,
    ) {
        let mut bytes = signature_from(&parts).to_bytes();
        let at = ((bytes.len() - 1) as f64 * position) as usize;
        bytes[at] ^= flip;
        // Any single-byte corruption either fails cleanly or decodes to some
        // valid signature (a payload flip can produce a different but legal
        // value); the property under test is the absence of panics and
        // unbounded allocations.
        if let Ok(decoded) = Signature::from_bytes(&bytes) {
            prop_assert!(decoded.entries().iter().all(|e| e.count > 0));
            prop_assert!(decoded.unit() > 0.0 && decoded.unit().is_finite());
        }
        // Corrupting the magic (bytes 0..4) or the one-byte entry count
        // (byte 12, after the 8-byte unit) can never decode silently: the
        // byte length pins the entry count. A flip inside the unit may
        // decode to another valid unit.
        if at < 4 || at == 12 {
            prop_assert!(Signature::from_bytes(&bytes).is_err());
        }
    }

    #[test]
    fn push_fetch_and_admin_frames_round_trip_and_survive_abuse(
        key in 0u64..u64::MAX,
        threshold in 0.0..10.0_f64,
        parts in prop::collection::vec((0u32..64, 1u32..5000), 1..10),
        position in 0.0..1.0_f64,
        flip in 1u8..255,
        cut in 0.0..1.0_f64,
    ) {
        let band = AcceptanceBand::new(threshold).unwrap();
        let golden = signature_from(&parts);
        for bytes in [
            proto::encode_push_request(key, band, &golden),
            proto::encode_fetch_request(key),
            // The DSAQ fleet-admin family: all four verbs, including a
            // generated host:port label and the empty label.
            proto::encode_admin_request(&proto::AdminRequest::Join {
                label: format!("10.0.{}.{}:{}", key % 256, (key >> 8) % 256, 1024 + key % 50_000),
            }),
            proto::encode_admin_request(&proto::AdminRequest::Leave { label: "local-1".into() }),
            proto::encode_admin_request(&proto::AdminRequest::Drain { label: String::new() }),
            proto::encode_admin_request(&proto::AdminRequest::List),
            proto::encode_reply(&proto::Reply::Results(proto::AdminReply::Ack)),
            proto::encode_reply(&proto::Reply::Results(proto::AdminReply::Record(GoldenRecord {
                golden: golden.clone(),
                band,
            }))),
            proto::encode_reply(&proto::Reply::Results(proto::AdminReply::Roster(proto::FleetRoster {
                epoch: key,
                entries: vec![
                    proto::RosterEntry {
                        label: "10.0.0.1:9000".into(),
                        id: key ^ 1,
                        state: proto::BackendState::Active,
                    },
                    proto::RosterEntry {
                        label: "local-1".into(),
                        id: 1,
                        state: proto::BackendState::Draining,
                    },
                    proto::RosterEntry {
                        label: "local-2".into(),
                        id: 2,
                        state: proto::BackendState::BackedOff,
                    },
                ],
            }))),
            proto::encode_reply(&proto::Reply::<proto::AdminReply>::Error {
                code: proto::ErrorCode::Internal,
                message: "x".into(),
            }),
        ] {
            // Round trip through the matching decoder.
            match bytes.get(..4) {
                Some(magic) if *magic == proto::ADMIN_RESPONSE_MAGIC => {
                    prop_assert_eq!(
                        proto::encode_reply(&proto::decode_reply::<proto::AdminReply>(&bytes).unwrap()),
                        bytes.clone()
                    );
                }
                _ => {
                    let decoded = proto::decode_any_request(&bytes).unwrap();
                    match &decoded {
                        proto::Request::PushGolden { key: k, band: b, golden: g } => {
                            prop_assert_eq!(*k, key);
                            prop_assert_eq!(b.ndf_threshold.to_bits(), band.ndf_threshold.to_bits());
                            prop_assert_eq!(g, &golden);
                        }
                        proto::Request::FetchGolden { key: k } => prop_assert_eq!(*k, key),
                        proto::Request::Admin(request) => {
                            prop_assert_eq!(proto::encode_admin_request(request), bytes.clone());
                        }
                        other => prop_assert!(false, "unexpected request kind {:?}", other),
                    }
                }
            }
            // Truncation: always a clean error (every frame is > 6 bytes).
            let keep = (bytes.len() as f64 * cut) as usize;
            prop_assert!(proto::decode_any_request(&bytes[..keep]).is_err());
            prop_assert!(proto::decode_reply::<proto::AdminReply>(&bytes[..keep]).is_err());
            // Mutation: never a panic; header corruption always errors.
            let mut mutated = bytes.clone();
            let at = ((mutated.len() - 1) as f64 * position) as usize;
            mutated[at] ^= flip;
            let _ = proto::decode_any_request(&mutated);
            let _ = proto::decode_reply::<proto::AdminReply>(&mutated);
            if at < 6 {
                prop_assert!(
                    proto::decode_any_request(&mutated).is_err()
                        && proto::decode_reply::<proto::AdminReply>(&mutated).is_err()
                );
            }
        }
    }

    #[test]
    fn retest_requests_round_trip_and_survive_abuse(
        key in 0u64..u64::MAX,
        guard_milli in 0u32..50,
        steps in prop::collection::vec(1u32..6, 1..4),
        items in prop::collection::vec(
            (
                prop::collection::vec((0u32..64, 1u32..5000), 1..6),
                prop::collection::vec(prop::collection::vec((0u32..64, 1u32..5000), 1..4), 0..4),
            ),
            0..6,
        ),
        position in 0.0..1.0_f64,
        flip in 1u8..255,
        cut in 0.0..1.0_f64,
    ) {
        // Build a strictly increasing cumulative schedule from the step increments.
        let mut schedule = Vec::with_capacity(steps.len());
        let mut total = 0u32;
        for step in steps {
            total += step;
            schedule.push(total);
        }
        let request = analog_signature::serve::RetestRequest {
            golden_key: key,
            policy: analog_signature::dsig::RetestPolicy::new(f64::from(guard_milli) / 1000.0, schedule).unwrap(),
            items: items
                .iter()
                .map(|(initial, repeats)| analog_signature::serve::RetestItem {
                    initial: signature_from(initial),
                    repeats: repeats.iter().map(|parts| signature_from(parts)).collect(),
                })
                .collect(),
        };
        let bytes = proto::encode_retest_request(&request);
        let decoded = proto::decode_retest_request(&bytes).unwrap();
        prop_assert_eq!(&decoded, &request);
        prop_assert_eq!(
            decoded.policy.guard_band.to_bits(),
            request.policy.guard_band.to_bits()
        );
        match proto::decode_any_request(&bytes).unwrap() {
            proto::Request::Retest(dispatched) => prop_assert_eq!(dispatched, request),
            other => prop_assert!(false, "expected Retest, got {:?}", other),
        }
        // Truncation: always a clean error (the empty request is > 22 bytes).
        let keep = (bytes.len() as f64 * cut) as usize;
        prop_assert!(proto::decode_retest_request(&bytes[..keep]).is_err());
        // Mutation: never a panic; header corruption always errors.
        let mut mutated = bytes.clone();
        let at = ((mutated.len() - 1) as f64 * position) as usize;
        mutated[at] ^= flip;
        let _ = proto::decode_retest_request(&mutated);
        let _ = proto::decode_any_request(&mutated);
        if at < 6 {
            prop_assert!(proto::decode_retest_request(&mutated).is_err());
        }
    }

    #[test]
    fn retest_responses_round_trip_and_survive_abuse(
        scores in prop::collection::vec(
            (0.0..2.0_f64, 0u32..50, prop::bool::ANY, prop::bool::ANY, prop::bool::ANY, 0u32..64),
            0..10,
        ),
        position in 0.0..1.0_f64,
        flip in 1u8..255,
        cut in 0.0..1.0_f64,
    ) {
        use analog_signature::dsig::TestOutcome;
        let response = proto::RetestResponse::Results(
            scores
                .iter()
                .map(|&(ndf, peak, fail, marginal, flipped, repeats)| proto::RetestScore {
                    score: proto::ScoreResult {
                        ndf,
                        peak_hamming: peak,
                        outcome: if fail { TestOutcome::Fail } else { TestOutcome::Pass },
                    },
                    marginal,
                    flipped,
                    repeats_used: repeats,
                })
                .collect(),
        );
        let bytes = proto::encode_retest_response(&response);
        prop_assert_eq!(&proto::decode_retest_response(&bytes).unwrap(), &response);
        // Truncation: always a clean error.
        let keep = (bytes.len() as f64 * cut) as usize;
        prop_assert!(proto::decode_retest_response(&bytes[..keep]).is_err());
        // Mutation: never a panic; header corruption always errors.
        let mut mutated = bytes.clone();
        let at = ((mutated.len() - 1) as f64 * position) as usize;
        mutated[at] ^= flip;
        let _ = proto::decode_retest_response(&mutated);
        if at < 6 {
            prop_assert!(proto::decode_retest_response(&mutated).is_err());
        }
    }

    #[test]
    fn metrics_snapshots_round_trip_and_survive_abuse(
        counters in prop::collection::vec(0u64..u64::MAX, 0..6),
        gauges in prop::collection::vec(-1e12..1e12_f64, 0..6),
        samples in prop::collection::vec(prop::collection::vec(0u64..10_000_000, 0..20), 0..4),
        position in 0.0..1.0_f64,
        flip in 1u8..255,
        cut in 0.0..1.0_f64,
    ) {
        // Populate a private registry (not the process-global one, which
        // other tests mutate concurrently) with generated metrics.
        let registry = Registry::new();
        for (i, v) in counters.iter().enumerate() {
            registry.counter(&format!("c{i:02}.count")).add(*v);
        }
        for (i, v) in gauges.iter().enumerate() {
            registry.gauge(&format!("g{i:02}.level")).set(*v);
        }
        for (i, values) in samples.iter().enumerate() {
            let histogram = registry.histogram(&format!("h{i:02}.us"));
            for v in values {
                histogram.record_us(*v);
            }
        }
        let snapshot = registry.snapshot();
        let bytes = snapshot.to_bytes();
        let decoded = MetricsSnapshot::from_bytes(&bytes).unwrap();
        // Bit-exact: every value survives, and re-encoding is byte-identical.
        for (i, v) in counters.iter().enumerate() {
            prop_assert_eq!(decoded.counter(&format!("c{i:02}.count")), Some(*v));
        }
        for (i, v) in gauges.iter().enumerate() {
            prop_assert_eq!(
                decoded.gauge(&format!("g{i:02}.level")).map(f64::to_bits),
                Some(v.to_bits())
            );
        }
        for (i, values) in samples.iter().enumerate() {
            let histogram = decoded.histogram(&format!("h{i:02}.us")).unwrap();
            prop_assert_eq!(histogram.count, values.len() as u64);
            prop_assert_eq!(histogram.sum_us, values.iter().fold(0u64, |a, &v| a.wrapping_add(v)));
        }
        prop_assert_eq!(decoded.to_bytes(), bytes.clone());
        // Truncation: always a clean error (the empty snapshot is 10 bytes).
        let keep = (bytes.len() as f64 * cut) as usize;
        prop_assert!(MetricsSnapshot::from_bytes(&bytes[..keep]).is_err());
        // Mutation: never a panic; header corruption always errors.
        let mut mutated = bytes.clone();
        let at = ((mutated.len() - 1) as f64 * position) as usize;
        mutated[at] ^= flip;
        let _ = MetricsSnapshot::from_bytes(&mutated);
        if at < 6 {
            prop_assert!(MetricsSnapshot::from_bytes(&mutated).is_err());
        }
    }

    #[test]
    fn metrics_scrape_frames_round_trip_and_survive_abuse(
        counter in 0u64..u64::MAX,
        gauge in -1e12..1e12_f64,
        samples in prop::collection::vec(0u64..10_000_000, 0..20),
        message_bytes in prop::collection::vec(0x20u8..0x7f, 0..40),
        position in 0.0..1.0_f64,
        flip in 1u8..255,
        cut in 0.0..1.0_f64,
    ) {
        let message = String::from_utf8(message_bytes).unwrap();
        // The DSMX request is header-only and dispatches like every other
        // request family.
        let request = proto::encode_scrape_request(proto::METRICS_REQUEST_MAGIC);
        match proto::decode_any_request(&request).unwrap() {
            proto::Request::Metrics => {}
            other => prop_assert!(false, "expected Metrics, got {:?}", other),
        }
        let registry = Registry::new();
        registry.counter("scrape.count").add(counter);
        registry.gauge("scrape.level").set(gauge);
        let histogram = registry.histogram("scrape.us");
        for v in &samples {
            histogram.record_us(*v);
        }
        for response in [
            proto::Reply::Results(registry.snapshot()),
            proto::Reply::Error {
                code: proto::ErrorCode::Internal,
                message,
            },
        ] {
            let bytes = proto::encode_reply(&response);
            let decoded = proto::decode_reply::<MetricsSnapshot>(&bytes).unwrap();
            prop_assert_eq!(proto::encode_reply(&decoded), bytes.clone());
            if let (
                proto::Reply::Results(got),
                proto::Reply::Results(sent),
            ) = (&decoded, &response)
            {
                prop_assert_eq!(got.counter("scrape.count"), sent.counter("scrape.count"));
                prop_assert_eq!(
                    got.gauge("scrape.level").map(f64::to_bits),
                    sent.gauge("scrape.level").map(f64::to_bits)
                );
            }
            // Truncation: always a clean error (every frame is > 6 bytes).
            let keep = (bytes.len() as f64 * cut) as usize;
            prop_assert!(proto::decode_reply::<MetricsSnapshot>(&bytes[..keep]).is_err());
            // Mutation: never a panic; header corruption always errors.
            let mut mutated = bytes.clone();
            let at = ((mutated.len() - 1) as f64 * position) as usize;
            mutated[at] ^= flip;
            let _ = proto::decode_reply::<MetricsSnapshot>(&mutated);
            if at < 6 {
                prop_assert!(proto::decode_reply::<MetricsSnapshot>(&mutated).is_err());
            }
        }
        // Truncating or corrupting the request header errors too.
        let keep = (request.len() as f64 * cut) as usize;
        prop_assert!(proto::decode_scrape_request(&request[..keep]).is_err());
        let mut mutated = request.clone();
        let at = ((mutated.len() - 1) as f64 * position) as usize;
        mutated[at] ^= flip;
        let same_family = matches!(proto::decode_scrape_request(&mutated), Ok(proto::Request::Metrics));
        if at < 6 {
            // Magic/version corruption never decodes as this family (a magic
            // flip may legally land on another scrape's magic); bytes 6..14
            // are the opaque request id, which any value is legal for.
            prop_assert!(!same_family);
        } else {
            prop_assert!(same_family);
            prop_assert_eq!(proto::peek_request_id(&mutated) == 0, mutated[6..14] == [0; 8]);
        }
    }

    #[test]
    fn trace_log_and_scrape_frames_round_trip_and_survive_abuse(
        spans in prop::collection::vec(
            (
                // trace id (never 0), span id (never 0), parent (0 = root)
                (1u64..u64::MAX, 1u64..u64::MAX, 0u64..u64::MAX),
                // name, tier
                (prop::collection::vec(0x20u8..0x7f, 1..16), prop::collection::vec(0x20u8..0x7f, 1..8)),
                // start µs, duration µs
                (0u64..1_000_000, 0u64..1_000_000),
                prop::collection::vec(
                    (prop::collection::vec(0x20u8..0x7f, 1..8), prop::collection::vec(0x20u8..0x7f, 0..8)),
                    0..4,
                ),
            ),
            0..8,
        ),
        message_bytes in prop::collection::vec(0x20u8..0x7f, 0..40),
        position in 0.0..1.0_f64,
        flip in 1u8..255,
        cut in 0.0..1.0_f64,
    ) {
        use analog_signature::obs::{SpanRecord, TraceLog};
        let log = TraceLog {
            spans: spans
                .iter()
                .map(|((trace_id, span_id, parent), (name, tier), (start, dur), annotations)| SpanRecord {
                    trace_id: *trace_id,
                    span_id: *span_id,
                    parent_span: *parent,
                    name: String::from_utf8(name.clone()).unwrap(),
                    tier: String::from_utf8(tier.clone()).unwrap(),
                    start_us: *start,
                    end_us: start + dur,
                    annotations: annotations
                        .iter()
                        .map(|(k, v)| {
                            (String::from_utf8(k.clone()).unwrap(), String::from_utf8(v.clone()).unwrap())
                        })
                        .collect(),
                })
                .collect(),
        };
        // The standalone DSTL log round-trips bit-exactly.
        let bytes = log.to_bytes();
        prop_assert_eq!(&TraceLog::from_bytes(&bytes).unwrap(), &log);
        // Truncation: always a clean error (the empty log is 10 bytes).
        let keep = (bytes.len() as f64 * cut) as usize;
        prop_assert!(TraceLog::from_bytes(&bytes[..keep]).is_err());
        // Mutation: never a panic; header corruption always errors.
        let mut mutated = bytes.clone();
        let at = ((mutated.len() - 1) as f64 * position) as usize;
        mutated[at] ^= flip;
        let _ = TraceLog::from_bytes(&mutated);
        if at < 6 {
            prop_assert!(TraceLog::from_bytes(&mutated).is_err());
        }

        // The DSTX request is header-only and dispatches like every other
        // request family.
        let request = proto::encode_scrape_request(proto::TRACES_REQUEST_MAGIC);
        match proto::decode_any_request(&request).unwrap() {
            proto::Request::Traces => {}
            other => prop_assert!(false, "expected Traces, got {:?}", other),
        }
        let keep = (request.len() as f64 * cut) as usize;
        prop_assert!(proto::decode_scrape_request(&request[..keep]).is_err());
        let mut mutated = request.clone();
        let at = ((mutated.len() - 1) as f64 * position) as usize;
        mutated[at] ^= flip;
        // As for DSMX: only the magic/version bytes are load-bearing; the
        // request id (6..14) is an opaque correlator.
        prop_assert_eq!(
            matches!(proto::decode_scrape_request(&mutated), Ok(proto::Request::Traces)),
            at >= 6
        );

        // Both DSTD response arms round-trip and reject abuse.
        let message = String::from_utf8(message_bytes).unwrap();
        for response in [
            proto::Reply::Results(log),
            proto::Reply::Error {
                code: proto::ErrorCode::Internal,
                message,
            },
        ] {
            let bytes = proto::encode_reply(&response);
            let decoded = proto::decode_reply::<TraceLog>(&bytes).unwrap();
            prop_assert_eq!(proto::encode_reply(&decoded), bytes.clone());
            let keep = (bytes.len() as f64 * cut) as usize;
            prop_assert!(proto::decode_reply::<TraceLog>(&bytes[..keep]).is_err());
            let mut mutated = bytes.clone();
            let at = ((mutated.len() - 1) as f64 * position) as usize;
            mutated[at] ^= flip;
            let _ = proto::decode_reply::<TraceLog>(&mutated);
            if at < 6 {
                prop_assert!(proto::decode_reply::<TraceLog>(&mutated).is_err());
            }
        }
    }

    #[test]
    fn event_logs_and_drain_frames_round_trip_and_survive_abuse(
        records in prop::collection::vec(
            (
                // level tag, (tier, name, message), fields, (at µs, trace id)
                0u8..3,
                (
                    prop::collection::vec(0x20u8..0x7f, 1..8),
                    prop::collection::vec(0x20u8..0x7f, 1..16),
                    prop::collection::vec(0x20u8..0x7f, 0..24),
                ),
                prop::collection::vec(
                    (prop::collection::vec(0x20u8..0x7f, 1..8), prop::collection::vec(0x20u8..0x7f, 0..8)),
                    0..4,
                ),
                (0u64..1_000_000_000, 0u64..u64::MAX),
            ),
            0..8,
        ),
        message_bytes in prop::collection::vec(0x20u8..0x7f, 0..40),
        position in 0.0..1.0_f64,
        flip in 1u8..255,
        cut in 0.0..1.0_f64,
    ) {
        use analog_signature::obs::{EventLevel, EventLog, EventRecord};
        let log = EventLog {
            events: records
                .iter()
                .map(|(level, (tier, name, message), fields, (at_us, trace_id))| EventRecord {
                    level: [EventLevel::Info, EventLevel::Warn, EventLevel::Error][*level as usize],
                    tier: String::from_utf8(tier.clone()).unwrap(),
                    name: String::from_utf8(name.clone()).unwrap(),
                    message: String::from_utf8(message.clone()).unwrap(),
                    fields: fields
                        .iter()
                        .map(|(k, v)| {
                            (String::from_utf8(k.clone()).unwrap(), String::from_utf8(v.clone()).unwrap())
                        })
                        .collect(),
                    at_us: *at_us,
                    trace_id: *trace_id,
                })
                .collect(),
        };
        // The standalone DSEL log round-trips bit-exactly.
        let bytes = log.to_bytes();
        prop_assert_eq!(&EventLog::from_bytes(&bytes).unwrap(), &log);
        // Truncation: always a clean error (the empty log is 10 bytes).
        let keep = (bytes.len() as f64 * cut) as usize;
        prop_assert!(EventLog::from_bytes(&bytes[..keep]).is_err());
        // Mutation: never a panic; header corruption always errors.
        let mut mutated = bytes.clone();
        let at = ((mutated.len() - 1) as f64 * position) as usize;
        mutated[at] ^= flip;
        let _ = EventLog::from_bytes(&mutated);
        if at < 6 {
            prop_assert!(EventLog::from_bytes(&mutated).is_err());
        }

        // The DSEX request is header-only and dispatches like every other
        // request family.
        let request = proto::encode_scrape_request(proto::EVENTS_REQUEST_MAGIC);
        match proto::decode_any_request(&request).unwrap() {
            proto::Request::Events => {}
            other => prop_assert!(false, "expected Events, got {:?}", other),
        }
        let keep = (request.len() as f64 * cut) as usize;
        prop_assert!(proto::decode_scrape_request(&request[..keep]).is_err());

        // Both DSED response arms round-trip and reject abuse.
        let message = String::from_utf8(message_bytes).unwrap();
        for response in [
            proto::Reply::Results(log),
            proto::Reply::Error {
                code: proto::ErrorCode::Internal,
                message,
            },
        ] {
            let bytes = proto::encode_reply(&response);
            let decoded = proto::decode_reply::<EventLog>(&bytes).unwrap();
            prop_assert_eq!(proto::encode_reply(&decoded), bytes.clone());
            let keep = (bytes.len() as f64 * cut) as usize;
            prop_assert!(proto::decode_reply::<EventLog>(&bytes[..keep]).is_err());
            let mut mutated = bytes.clone();
            let at = ((mutated.len() - 1) as f64 * position) as usize;
            mutated[at] ^= flip;
            let _ = proto::decode_reply::<EventLog>(&mutated);
            if at < 6 {
                prop_assert!(proto::decode_reply::<EventLog>(&mutated).is_err());
            }
        }
    }

    #[test]
    fn health_frames_round_trip_and_survive_abuse(
        status in 0u8..3,
        error_rate in 0.0..1.0_f64,
        p99_us in 0u64..10_000_000,
        backed_off in 0u32..8,
        extra_backends in 0u32..8,
        epoch in 0u64..u64::MAX,
        findings in prop::collection::vec(prop::collection::vec(0x20u8..0x7f, 0..32), 0..4),
        message_bytes in prop::collection::vec(0x20u8..0x7f, 0..40),
        position in 0.0..1.0_f64,
        flip in 1u8..255,
        cut in 0.0..1.0_f64,
    ) {
        use analog_signature::obs::{HealthReport, HealthStatus};
        // The DSHC request is header-only and dispatches like every other
        // request family.
        let request = proto::encode_scrape_request(proto::HEALTH_REQUEST_MAGIC);
        match proto::decode_any_request(&request).unwrap() {
            proto::Request::Health => {}
            other => prop_assert!(false, "expected Health, got {:?}", other),
        }
        let keep = (request.len() as f64 * cut) as usize;
        prop_assert!(proto::decode_scrape_request(&request[..keep]).is_err());

        // Both response arms round-trip and reject abuse; the error rate is
        // a bit-exact f64.
        let report = HealthReport {
            status: [HealthStatus::Pass, HealthStatus::Degraded, HealthStatus::Fail][status as usize],
            error_rate,
            p99_us,
            backed_off,
            backends: backed_off + extra_backends,
            epoch,
            findings: findings.iter().map(|f| String::from_utf8(f.clone()).unwrap()).collect(),
        };
        let message = String::from_utf8(message_bytes).unwrap();
        for response in [
            proto::Reply::Results(report),
            proto::Reply::Error {
                code: proto::ErrorCode::Internal,
                message,
            },
        ] {
            let bytes = proto::encode_reply(&response);
            let decoded = proto::decode_reply::<HealthReport>(&bytes).unwrap();
            prop_assert_eq!(proto::encode_reply(&decoded), bytes.clone());
            if let (proto::Reply::Results(got), proto::Reply::Results(sent)) =
                (&decoded, &response)
            {
                prop_assert_eq!(got.error_rate.to_bits(), sent.error_rate.to_bits());
            }
            let keep = (bytes.len() as f64 * cut) as usize;
            prop_assert!(proto::decode_reply::<HealthReport>(&bytes[..keep]).is_err());
            let mut mutated = bytes.clone();
            let at = ((mutated.len() - 1) as f64 * position) as usize;
            mutated[at] ^= flip;
            let _ = proto::decode_reply::<HealthReport>(&mutated);
            if at < 6 {
                prop_assert!(proto::decode_reply::<HealthReport>(&mutated).is_err());
            }
        }
    }

    #[test]
    fn fleet_scrape_requests_dispatch_and_survive_abuse(
        position in 0.0..1.0_f64,
        flip in 1u8..255,
        cut in 0.0..1.0_f64,
    ) {
        let request = proto::encode_scrape_request(proto::FLEET_METRICS_REQUEST_MAGIC);
        prop_assert_eq!(proto::decode_any_request(&request).unwrap(), proto::Request::FleetMetrics);
        // Truncation: always a clean error (the request is 14 bytes).
        let keep = (request.len() as f64 * cut) as usize;
        prop_assert!(proto::decode_any_request(&request[..keep]).is_err());
        // Mutation: corrupting the magic or version means the frame no
        // longer decodes as the family it was encoded as (a magic flip may
        // legally land on a *different* family's magic); the id bytes
        // (6..14) are an opaque correlator.
        let mut mutated = request.clone();
        let at = ((mutated.len() - 1) as f64 * position) as usize;
        mutated[at] ^= flip;
        let same_family = matches!(proto::decode_scrape_request(&mutated), Ok(proto::Request::FleetMetrics));
        if at < 6 {
            prop_assert!(!same_family);
        } else {
            prop_assert!(same_family);
            prop_assert_eq!(proto::peek_request_id(&mutated) == 0, mutated[6..14] == [0u8; 8]);
        }
    }

    #[test]
    fn tagged_request_headers_round_trip_and_decode_across_versions(
        key in 0u64..u64::MAX,
        id in 1u64..u64::MAX,
        parts in prop::collection::vec((0u32..64, 1u32..5000), 1..6),
        cut in 0.0..1.0_f64,
        position in 0.0..1.0_f64,
        flip in 1u8..255,
    ) {
        use analog_signature::dsig::wire::{self, Wire};
        use analog_signature::obs::TraceContext;

        // A v3 work request: header, request id, trace context, body. The
        // encoder emits the placeholder id 0; stamping patches bytes 6..14
        // in place and must not disturb the decoded body.
        let signature = signature_from(&parts);
        let mut tagged = proto::encode_request(key, std::slice::from_ref(&signature));
        let reference = proto::decode_request(&tagged).unwrap();
        prop_assert_eq!(proto::peek_request_id(&tagged), 0);
        proto::stamp_request_id(&mut tagged, id);
        prop_assert_eq!(proto::peek_request_id(&tagged), id);
        let decoded = proto::decode_request(&tagged).unwrap();
        prop_assert_eq!(&decoded, &reference);
        prop_assert_eq!(
            decoded.signatures[0].unit().to_bits(),
            reference.signatures[0].unit().to_bits()
        );

        // Other versions: the same body framed as v2 (trace context, no id)
        // and v1 (bare) — the layouts before the request id — and as a
        // future v4 are rejected like any malformed frame.
        let body = &tagged[14 + 17..];
        let mut v2 = Vec::new();
        wire::put_header(&mut v2, proto::REQUEST_MAGIC, 2);
        TraceContext::NONE.put(&mut v2);
        v2.extend_from_slice(body);
        let mut v1 = Vec::new();
        wire::put_header(&mut v1, proto::REQUEST_MAGIC, 1);
        v1.extend_from_slice(body);
        let mut v4 = tagged.clone();
        v4[4..6].copy_from_slice(&4u16.to_le_bytes());
        for other in [&v2, &v1, &v4] {
            prop_assert!(matches!(
                proto::decode_request(other),
                Err(analog_signature::serve::ServeError::Dsig(DsigError::Corrupt { .. }))
            ));
            prop_assert!(proto::decode_any_request(other).is_err());
        }

        // Truncation anywhere — including inside the id — is a clean error.
        let keep = (tagged.len() as f64 * cut) as usize;
        let truncated = proto::decode_request(&tagged[..keep]);
        prop_assert!(matches!(
            truncated,
            Err(analog_signature::serve::ServeError::Dsig(
                DsigError::Truncated { .. } | DsigError::Corrupt { .. }
            ))
        ));
        // Mutating the opaque id bytes only changes the peeked correlator;
        // the body still decodes to the same request.
        let mut mutated = tagged.clone();
        let at = 6 + ((7.999 * position) as usize);
        mutated[at] ^= flip;
        prop_assert_ne!(proto::peek_request_id(&mutated), id);
        prop_assert_eq!(&proto::decode_request(&mutated).unwrap(), &reference);
    }

    #[test]
    fn wire_tagged_headers_round_trip_and_reject_abuse(
        version in 0u16..8,
        expected in 1u16..8,
        id in 0u64..u64::MAX,
        trailer in prop::collection::vec(0u8..255, 0..8),
    ) {
        use analog_signature::dsig::wire::{self, ByteReader};
        let magic = *b"DSQQ";
        let mut frame = Vec::new();
        wire::put_tagged_header(&mut frame, magic, version, id);
        frame.extend_from_slice(&trailer);

        let mut reader = ByteReader::new(&frame, "proptest frame");
        let result = reader.tagged_header(magic, expected);
        if version == expected {
            prop_assert_eq!(result.unwrap(), id);
            prop_assert_eq!(reader.remaining(), trailer.len());
            // A header truncated inside the id region is a clean Truncated
            // error, never a panic or a garbage id.
            for keep in 6..14 {
                let mut reader = ByteReader::new(&frame[..keep], "proptest frame");
                prop_assert!(matches!(
                    reader.tagged_header(magic, expected),
                    Err(DsigError::Truncated { .. })
                ));
            }
        } else {
            // Every other version — older, newer or 0 — is rejected before
            // the id is ever touched.
            prop_assert!(matches!(result, Err(DsigError::Corrupt { .. })));
        }
        // The wrong magic is rejected whatever the version says.
        let mut reader = ByteReader::new(&frame, "proptest frame");
        prop_assert!(reader.tagged_header(*b"XXXX", expected).is_err());
    }

    #[test]
    fn log_round_trips_and_rejects_mutations(
        lots in prop::collection::vec(
            (0u32..10_000, prop::collection::vec((0u32..64, 1u32..5000), 1..8)),
            1..12,
        ),
        position in 0.0..1.0_f64,
        flip in 1u8..255,
        cut in 0.0..1.0_f64,
    ) {
        let mut log = SignatureLog::new();
        for (index, parts) in &lots {
            log.push(*index, signature_from(parts));
        }
        let bytes = log.to_bytes();
        prop_assert_eq!(&SignatureLog::from_bytes(&bytes).unwrap(), &log);

        // Truncation: always a clean error.
        let keep = (bytes.len() as f64 * cut) as usize;
        prop_assert!(SignatureLog::from_bytes(&bytes[..keep]).is_err());

        // Mutation: never a panic. A flip inside a device-index field decodes
        // to a different log; anything structural errors out.
        let mut mutated = bytes.clone();
        let at = ((mutated.len() - 1) as f64 * position) as usize;
        mutated[at] ^= flip;
        let _ = SignatureLog::from_bytes(&mutated);
        if at < 8 {
            prop_assert!(SignatureLog::from_bytes(&mutated).is_err(), "log header corruption must error");
        }
    }
}

/// A golden whose two counts each fit a `u32` but sum past `u32::MAX` (its
/// window would not be a count) is refused by decoding, so a server answers
/// the push with an error and stores nothing.
#[test]
fn a_pushed_golden_whose_durations_overflow_is_rejected_and_not_stored() {
    use analog_signature::serve::{GoldenStore, ServeConfig, ServeError, Server};
    use std::io::Write;
    use std::sync::Arc;

    // Encode a valid two-entry golden of 2^31 - 1 counts per entry, whose
    // counts are five-byte varints ending in 0x07, then patch both final
    // bytes to 0x0f, making each count u32::MAX.
    let key = 0xB16;
    let valid = signature_from(&[(1, 0x7fff_ffff), (2, 0x7fff_ffff)]);
    let mut frame = proto::encode_push_request(key, AcceptanceBand::new(0.03).unwrap(), &valid);
    let embedded = valid.to_bytes();
    let at = frame
        .windows(embedded.len())
        .position(|w| w == embedded.as_slice())
        .expect("the frame embeds the golden's bytes");
    // Magic, unit and entry count, then (code, count) per entry.
    for last_count_byte in [13 + 5, 13 + 6 + 5] {
        assert_eq!(frame[at + last_count_byte], 0x07);
        frame[at + last_count_byte] = 0x0f;
    }
    let decoded = proto::decode_any_request(&frame);
    assert!(
        matches!(decoded, Err(ServeError::Dsig(DsigError::InvalidSignature(_)))),
        "{decoded:?}"
    );

    let store = Arc::new(GoldenStore::new());
    let server = Server::bind("127.0.0.1:0", Arc::clone(&store), ServeConfig::with_shards(1)).unwrap();
    let stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    let mut writer = std::io::BufWriter::new(stream.try_clone().unwrap());
    proto::write_frame(&mut writer, &frame).unwrap();
    writer.flush().unwrap();
    let response = proto::read_frame(&mut std::io::BufReader::new(stream))
        .unwrap()
        .expect("response frame");
    match proto::decode_reply::<proto::AdminReply>(&response).unwrap() {
        proto::Reply::Error { code, .. } => assert_eq!(code, proto::ErrorCode::BadRequest),
        other => panic!("an overflowing golden must draw an error, got {other:?}"),
    }
    assert!(store.get(key).is_none(), "the refused golden was stored");
}

/// One frame of every request and response family (and every decode-error
/// answer), encoded from fixed inputs — the work requests under a fixed
/// ambient trace context.
fn golden_frames() -> Vec<(String, Vec<u8>)> {
    use analog_signature::dsig::{RetestPolicy, TestOutcome};
    use analog_signature::obs::trace::{self, TraceContext};
    use analog_signature::obs::{
        EventLevel, EventLog, EventRecord, HealthReport, HealthStatus, HistogramSnapshot, MetricValue, SpanRecord,
        TraceLog,
    };
    use proto::{
        AdminReply, AdminRequest, BackendState, ErrorCode, FleetRoster, Reply, RetestItem, RetestRequest,
        RetestResponse, RetestScore, RosterEntry, ScoreResult, ScreenResponse,
    };

    // 100 µs, 250 µs and 1 s of 0.1 µs ticks.
    let a = signature_from(&[(1, 1000), (3, 2500)]);
    let b = signature_from(&[(7, 10_000_000)]);
    let band = AcceptanceBand::new(0.03).unwrap();
    let ctx = TraceContext {
        trace_id: 0x0123_4567_89AB_CDEF,
        parent_span: 0xFEDC_BA98_7654_3210,
        sampled: true,
    };
    let mut frames: Vec<(&str, Vec<u8>)> = Vec::new();
    {
        let _guard = trace::with_context(ctx);
        frames.push(("DSRQ", proto::encode_request(0xFEED_F00D, &[a.clone(), b.clone()])));
        frames.push((
            "DSRT",
            proto::encode_retest_request(&RetestRequest {
                golden_key: 0xFEED,
                policy: RetestPolicy::new(0.005, vec![2, 6]).unwrap(),
                items: vec![RetestItem {
                    initial: a.clone(),
                    repeats: vec![b.clone(), a.clone()],
                }],
            }),
        ));
        frames.push(("DSGP", proto::encode_push_request(0xFACE, band, &a)));
        frames.push(("DSGF", proto::encode_fetch_request(42)));
        for (name, request) in [
            (
                "DSAQ join",
                AdminRequest::Join {
                    label: "127.0.0.1:9000".into(),
                },
            ),
            (
                "DSAQ leave",
                AdminRequest::Leave {
                    label: "local-1".into(),
                },
            ),
            (
                "DSAQ drain",
                AdminRequest::Drain {
                    label: "local-2".into(),
                },
            ),
            ("DSAQ list", AdminRequest::List),
        ] {
            frames.push((name, proto::encode_admin_request(&request)));
        }
    }
    let mut stamped = proto::encode_request(0xFEED_F00D, std::slice::from_ref(&b));
    proto::stamp_request_id(&mut stamped, 0x1122_3344_5566_7788);
    frames.push(("DSRQ stamped", stamped));
    for (name, magic) in [
        ("DSMX", proto::METRICS_REQUEST_MAGIC),
        ("DSTX", proto::TRACES_REQUEST_MAGIC),
        ("DSFM", proto::FLEET_METRICS_REQUEST_MAGIC),
        ("DSEX", proto::EVENTS_REQUEST_MAGIC),
        ("DSHC", proto::HEALTH_REQUEST_MAGIC),
    ] {
        frames.push((name, proto::encode_scrape_request(magic)));
    }
    let pass = ScoreResult {
        ndf: 0.0125,
        peak_hamming: 2,
        outcome: TestOutcome::Pass,
    };
    let fail = ScoreResult {
        ndf: 0.41,
        peak_hamming: 5,
        outcome: TestOutcome::Fail,
    };
    let error = |message: &str| (ErrorCode::Internal, message.to_string());
    frames.push((
        "DSRS results",
        proto::encode_response(&ScreenResponse::Results(vec![pass, fail])),
    ));
    frames.push((
        "DSRS error",
        proto::encode_response(&ScreenResponse::Error {
            code: ErrorCode::UnknownGolden,
            message: "no such golden".into(),
        }),
    ));
    frames.push((
        "DSRR results",
        proto::encode_retest_response(&RetestResponse::Results(vec![
            RetestScore {
                score: fail,
                marginal: true,
                flipped: true,
                repeats_used: 6,
            },
            RetestScore {
                score: pass,
                marginal: false,
                flipped: false,
                repeats_used: 0,
            },
        ])),
    ));
    let (code, message) = error("boom");
    frames.push((
        "DSRR error",
        proto::encode_retest_response(&RetestResponse::Error { code, message }),
    ));
    frames.push(("DSRA ack", proto::encode_reply(&Reply::Results(AdminReply::Ack))));
    frames.push((
        "DSRA record",
        proto::encode_reply(&Reply::Results(AdminReply::Record(GoldenRecord {
            golden: a.clone(),
            band,
        }))),
    ));
    let entry = |label: &str, id: u64, state: BackendState| RosterEntry {
        label: label.into(),
        id,
        state,
    };
    frames.push((
        "DSRA roster",
        proto::encode_reply(&Reply::Results(AdminReply::Roster(FleetRoster {
            epoch: 5,
            entries: vec![
                entry("127.0.0.1:9000", 0xFEED, BackendState::Active),
                entry("local-1", 7, BackendState::Draining),
                entry("local-2", 9, BackendState::BackedOff),
            ],
        }))),
    ));
    frames.push((
        "DSRA error",
        proto::encode_reply(&Reply::<AdminReply>::Error {
            code: ErrorCode::BadRequest,
            message: "bad label".into(),
        }),
    ));
    let snapshot = MetricsSnapshot {
        metrics: vec![
            ("a.count".into(), MetricValue::Counter(3)),
            ("b.level".into(), MetricValue::Gauge(1234.5)),
            (
                "c.us".into(),
                MetricValue::Histogram(HistogramSnapshot {
                    count: 2,
                    sum_us: 30,
                    max_us: 20,
                    buckets: vec![(16, 1), (32, 1), (u64::MAX, 0)],
                }),
            ),
        ],
    };
    frames.push(("DSMR snapshot", proto::encode_reply(&Reply::Results(snapshot))));
    let (code, message) = error("registry");
    frames.push((
        "DSMR error",
        proto::encode_reply(&Reply::<MetricsSnapshot>::Error { code, message }),
    ));
    let spans = TraceLog {
        spans: vec![SpanRecord {
            trace_id: 1,
            span_id: 2,
            parent_span: 0,
            name: "serve.dispatch".into(),
            tier: "serve".into(),
            start_us: 10,
            end_us: 40,
            annotations: vec![("batch".into(), "64".into())],
        }],
    };
    frames.push(("DSTD log", proto::encode_reply(&Reply::Results(spans))));
    let (code, message) = error("tracer");
    frames.push((
        "DSTD error",
        proto::encode_reply(&Reply::<TraceLog>::Error { code, message }),
    ));
    let events = EventLog {
        events: vec![EventRecord {
            level: EventLevel::Warn,
            tier: "router".into(),
            name: "backend.backed_off".into(),
            message: "local-1 down".into(),
            fields: vec![("backend".into(), "local-1".into())],
            at_us: 123,
            trace_id: 0xFEED,
        }],
    };
    frames.push(("DSED log", proto::encode_reply(&Reply::Results(events))));
    let (code, message) = error("sink");
    frames.push((
        "DSED error",
        proto::encode_reply(&Reply::<EventLog>::Error { code, message }),
    ));
    frames.push((
        "DSHR report",
        proto::encode_reply(&Reply::Results(HealthReport {
            status: HealthStatus::Degraded,
            error_rate: 0.25,
            p99_us: 45_000,
            backed_off: 1,
            backends: 3,
            epoch: 4,
            findings: vec!["1 of 3 backends backed off".into()],
        })),
    ));
    let (code, message) = error("no snapshot");
    frames.push((
        "DSHR error",
        proto::encode_reply(&Reply::<HealthReport>::Error { code, message }),
    ));
    let mut frames: Vec<(String, Vec<u8>)> = frames
        .into_iter()
        .map(|(name, bytes)| (name.to_string(), bytes))
        .collect();
    for magic in [
        "DSRQ", "DSRT", "DSGP", "DSGF", "DSAQ", "DSMX", "DSTX", "DSFM", "DSFT", "DSEX", "DSHC", "NOPE",
    ] {
        frames.push((
            format!("decode error {magic}"),
            proto::encode_decode_error(magic.as_bytes(), "bad request".into()),
        ));
    }
    frames
}

#[test]
fn current_frames_are_byte_identical_to_the_captured_golden_bytes() {
    let frames = golden_frames();
    assert_eq!(frames.len(), GOLDEN_FRAMES.len());
    for ((name, bytes), (golden_name, golden_hex)) in frames.iter().zip(GOLDEN_FRAMES) {
        assert_eq!(name, golden_name);
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(&hex, golden_hex, "{name}: the encoding drifted from the captured bytes");
    }
}

/// Every frame [`golden_frames`] encodes, as captured hex from the codec
/// before the one-header refactor: current frames must stay byte-identical.
const GOLDEN_FRAMES: &[(&str, &str)] = &[
    (
        "DSRQ",
        concat!(
            "4453525103000000000000000000efcdab89674523011032547698badcfe010df0edfe00000000020000001300000044",
            "53473248afbc9af2d77a3e0201e80703c413120000004453473248afbc9af2d77a3e010780ade204",
        ),
    ),
    (
        "DSRT",
        concat!(
            "4453525403000000000000000000efcdab89674523011032547698badcfe01edfe0000000000007b14ae47e17a743f02",
            "000000020000000600000001000000130000004453473248afbc9af2d77a3e0201e80703c41302000000120000004453",
            "473248afbc9af2d77a3e010780ade204130000004453473248afbc9af2d77a3e0201e80703c413",
        ),
    ),
    (
        "DSGP",
        concat!(
            "4453475003000000000000000000efcdab89674523011032547698badcfe01cefa000000000000b81e85eb51b89e3f13",
            "0000004453473248afbc9af2d77a3e0201e80703c413",
        ),
    ),
    (
        "DSGF",
        "4453474603000000000000000000efcdab89674523011032547698badcfe012a00000000000000",
    ),
    (
        "DSAQ join",
        concat!(
            "4453415103000000000000000000efcdab89674523011032547698badcfe01000e0000003132372e302e302e313a3930",
            "3030",
        ),
    ),
    (
        "DSAQ leave",
        "4453415103000000000000000000efcdab89674523011032547698badcfe0101070000006c6f63616c2d31",
    ),
    (
        "DSAQ drain",
        "4453415103000000000000000000efcdab89674523011032547698badcfe0102070000006c6f63616c2d32",
    ),
    (
        "DSAQ list",
        "4453415103000000000000000000efcdab89674523011032547698badcfe010300000000",
    ),
    (
        "DSRQ stamped",
        concat!(
            "445352510300887766554433221100000000000000000000000000000000000df0edfe00000000010000001200000044",
            "53473248afbc9af2d77a3e010780ade204",
        ),
    ),
    ("DSMX", "44534d5802000000000000000000"),
    ("DSTX", "4453545802000000000000000000"),
    ("DSFM", "4453464d02000000000000000000"),
    ("DSEX", "4453455802000000000000000000"),
    ("DSHC", "4453484302000000000000000000"),
    (
        "DSRS results",
        "445352530200000000000000000000020000009a9999999999893f02000000003d0ad7a3703dda3f0500000001",
    ),
    (
        "DSRS error",
        "44535253020000000000000000000101000e0000006e6f207375636820676f6c64656e",
    ),
    (
        "DSRR results",
        concat!(
            "445352520200000000000000000000020000003d0ad7a3703dda3f05000000010101060000009a9999999999893f0200",
            "000000000000000000",
        ),
    ),
    ("DSRR error", "445352520200000000000000000001030004000000626f6f6d"),
    ("DSRA ack", "445352410200000000000000000000"),
    (
        "DSRA record",
        "445352410200000000000000000002b81e85eb51b89e3f130000004453473248afbc9af2d77a3e0201e80703c413",
    ),
    (
        "DSRA roster",
        concat!(
            "4453524102000000000000000000030500000000000000030000000e0000003132372e302e302e313a39303030edfe00",
            "000000000000070000006c6f63616c2d31070000000000000001070000006c6f63616c2d32090000000000000002",
        ),
    ),
    (
        "DSRA error",
        "445352410200000000000000000001020009000000626164206c6162656c",
    ),
    (
        "DSMR snapshot",
        concat!(
            "44534d5202000000000000000000008700000044534d5302000300000007000000612e636f756e740003000000000000",
            "0007000000622e6c6576656c0100000000004a934004000000632e75730202000000000000001e000000000000001400",
            "000000000000030000001000000000000000010000000000000020000000000000000100000000000000ffffffffffff",
            "ffff0000000000000000",
        ),
    ),
    (
        "DSMR error",
        "44534d5202000000000000000000010300080000007265676973747279",
    ),
    (
        "DSTD log",
        concat!(
            "445354440200000000000000000000600000004453544c01000100000001000000000000000200000000000000000000",
            "00000000000e00000073657276652e64697370617463680500000073657276650a000000000000002800000000000000",
            "01000000050000006261746368020000003634",
        ),
    ),
    ("DSTD error", "445354440200000000000000000001030006000000747261636572"),
    (
        "DSED log",
        concat!(
            "445345440200000000000000000000650000004453454c0100010000000106000000726f75746572120000006261636b",
            "656e642e6261636b65645f6f66660c0000006c6f63616c2d3120646f776e7b00000000000000edfe0000000000000100",
            "0000070000006261636b656e64070000006c6f63616c2d31",
        ),
    ),
    ("DSED error", "44534544020000000000000000000103000400000073696e6b"),
    (
        "DSHR report",
        concat!(
            "44534852030000000000000000000001000000000000d03fc8af00000000000001000000030000000400000000000000",
            "010000001a00000031206f662033206261636b656e6473206261636b6564206f6666",
        ),
    ),
    (
        "DSHR error",
        "44534852030000000000000000000103000b0000006e6f20736e617073686f74",
    ),
    (
        "decode error DSRQ",
        "44535253020000000000000000000102000b0000006261642072657175657374",
    ),
    (
        "decode error DSRT",
        "44535252020000000000000000000102000b0000006261642072657175657374",
    ),
    (
        "decode error DSGP",
        "44535241020000000000000000000102000b0000006261642072657175657374",
    ),
    (
        "decode error DSGF",
        "44535241020000000000000000000102000b0000006261642072657175657374",
    ),
    (
        "decode error DSAQ",
        "44535241020000000000000000000102000b0000006261642072657175657374",
    ),
    (
        "decode error DSMX",
        "44534d52020000000000000000000102000b0000006261642072657175657374",
    ),
    (
        "decode error DSTX",
        "44535444020000000000000000000102000b0000006261642072657175657374",
    ),
    (
        "decode error DSFM",
        "44534d52020000000000000000000102000b0000006261642072657175657374",
    ),
    (
        // `DSFT` is no request magic: its decode error answers in the screen
        // family, as `NOPE`'s does (docs/FORMATS.md).
        "decode error DSFT",
        "44535253020000000000000000000102000b0000006261642072657175657374",
    ),
    (
        "decode error DSEX",
        "44534544020000000000000000000102000b0000006261642072657175657374",
    ),
    (
        "decode error DSHC",
        "44534852030000000000000000000102000b0000006261642072657175657374",
    ),
    (
        "decode error NOPE",
        "44535253020000000000000000000102000b0000006261642072657175657374",
    ),
];

/// One file of every persisted and standalone format, encoded from fixed
/// inputs: a `DSG2` signature, a two-entry `DSGL` log, a two-record `DSGS`
/// store, and standalone `DSMS`, `DSTL` and `DSEL` bodies.
fn golden_files() -> Vec<(&'static str, Vec<u8>)> {
    use analog_signature::obs::{
        EventLevel, EventLog, EventRecord, HistogramSnapshot, MetricValue, SpanRecord, TraceLog,
    };
    use analog_signature::serve::GoldenStore;

    let a = signature_from(&[(1, 1000), (3, 2500)]);
    let b = signature_from(&[(7, 10_000_000)]);
    let mut files = vec![("DSG2", a.to_bytes())];
    let mut log = SignatureLog::new();
    log.push(3, a.clone());
    log.push(9, b.clone());
    files.push(("DSGL", log.to_bytes()));

    let store = GoldenStore::new();
    store.insert(42, a, AcceptanceBand::new(0.03).unwrap());
    store.insert(7, b, AcceptanceBand::new(0.05).unwrap());
    files.push(("DSGS", store.to_bytes()));

    let snapshot = MetricsSnapshot {
        metrics: vec![
            ("a.count".into(), MetricValue::Counter(3)),
            ("b.level".into(), MetricValue::Gauge(-2.5)),
            (
                "c.us".into(),
                MetricValue::Histogram(HistogramSnapshot {
                    count: 2,
                    sum_us: 30,
                    max_us: 20,
                    buckets: vec![(16, 1), (u64::MAX, 1)],
                }),
            ),
        ],
    };
    files.push(("DSMS", snapshot.to_bytes()));
    let spans = TraceLog {
        spans: vec![SpanRecord {
            trace_id: 1,
            span_id: 2,
            parent_span: 0,
            name: "serve.dispatch".into(),
            tier: "serve".into(),
            start_us: 10,
            end_us: 40,
            annotations: vec![("batch".into(), "64".into())],
        }],
    };
    files.push(("DSTL", spans.to_bytes()));
    let events = EventLog {
        events: vec![EventRecord {
            level: EventLevel::Error,
            tier: "serve".into(),
            name: "conn.poisoned".into(),
            message: "peer sent garbage".into(),
            fields: vec![("peer".into(), "127.0.0.1:9".into())],
            at_us: 77,
            trace_id: 5,
        }],
    };
    files.push(("DSEL", events.to_bytes()));
    files
}

#[test]
fn persisted_files_are_byte_identical_to_the_captured_golden_bytes() {
    let files = golden_files();
    assert_eq!(files.len(), GOLDEN_FILES.len());
    for ((name, bytes), (golden_name, golden_hex)) in files.iter().zip(GOLDEN_FILES) {
        assert_eq!(name, golden_name);
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            &hex, golden_hex,
            "{name}: the persisted layout drifted from the captured bytes"
        );
    }
}

/// Files persisted before the `DSG2` signature codec are a declared break:
/// a `DSGL` log or `DSGS` store nesting `DSG1` signatures (here the previous
/// captured bytes of [`golden_files`]' two) is corrupt, not misread.
#[test]
fn files_nesting_previous_signatures_are_rejected_as_corrupt() {
    use analog_signature::serve::{GoldenStore, ServeError};

    let bytes = |hex: &str| -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect()
    };
    let log = SignatureLog::from_bytes(&bytes(DSG1_LAYOUT_DSGL));
    assert!(matches!(log, Err(DsigError::Corrupt { .. })), "{log:?}");
    let store = GoldenStore::from_bytes(&bytes(DSG1_LAYOUT_DSGS));
    assert!(
        matches!(store, Err(ServeError::Dsig(DsigError::Corrupt { .. }))),
        "{store:?}"
    );
}

/// The `DSGL` entry of [`GOLDEN_FILES`] as captured with `DSG1` signatures.
const DSG1_LAYOUT_DSGL: &str = concat!(
    "4453474c0200000003000000200000004453473102000000010000002c431cebe2361a3f03000000fca9f1d24d62303f",
    "0900000014000000445347310100000007000000000000000000f03f",
);

/// The `DSGS` entry of [`GOLDEN_FILES`] as captured with `DSG1` signatures.
const DSG1_LAYOUT_DSGS: &str = concat!(
    "4453475301000200000007000000000000009a9999999999a93f14000000445347310100000007000000000000000000",
    "f03f2a00000000000000b81e85eb51b89e3f200000004453473102000000010000002c431cebe2361a3f03000000fca9",
    "f1d24d62303f",
);

/// Every file [`golden_files`] encodes, as captured hex: persisted formats
/// must stay byte-identical.
const GOLDEN_FILES: &[(&str, &str)] = &[
    ("DSG2", "4453473248afbc9af2d77a3e0201e80703c413"),
    (
        "DSGL",
        concat!(
            "4453474c0200000003000000130000004453473248afbc9af2d77a3e0201e80703c41309000000120000004453473248",
            "afbc9af2d77a3e010780ade204",
        ),
    ),
    (
        "DSGS",
        concat!(
            "4453475301000200000007000000000000009a9999999999a93f120000004453473248afbc9af2d77a3e010780ade204",
            "2a00000000000000b81e85eb51b89e3f130000004453473248afbc9af2d77a3e0201e80703c413",
        ),
    ),
    (
        "DSMS",
        concat!(
            "44534d5302000300000007000000612e636f756e7400030000000000000007000000622e6c6576656c01000000000000",
            "04c004000000632e75730202000000000000001e00000000000000140000000000000002000000100000000000000001",
            "00000000000000ffffffffffffffff0100000000000000",
        ),
    ),
    (
        "DSTL",
        concat!(
            "4453544c0100010000000100000000000000020000000000000000000000000000000e00000073657276652e64697370",
            "617463680500000073657276650a00000000000000280000000000000001000000050000006261746368020000003634",
        ),
    ),
    (
        "DSEL",
        concat!(
            "4453454c010001000000020500000073657276650d000000636f6e6e2e706f69736f6e65641100000070656572207365",
            "6e7420676172626167654d0000000000000005000000000000000100000004000000706565720b0000003132372e302e",
            "302e313a39",
        ),
    ),
];
