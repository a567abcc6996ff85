//! Property-based tests of the signature / NDF invariants.

use analog_signature::dsig::{
    capture_signature, hamming_chronogram, ndf, ndf_and_peak, peak_hamming_distance, CaptureClock, PointEncoder,
    Signature, SignatureEntry, ZoneCode,
};
use analog_signature::monitor::ZonePartition;
use analog_signature::signal::Waveform;
use proptest::prelude::*;

/// Arbitrary signatures: 1..12 entries with codes below 64 and durations in
/// (1 µs, 100 µs).
fn signature_strategy() -> impl Strategy<Value = Signature> {
    prop::collection::vec((0u32..64, 1e-6..100e-6_f64), 1..12).prop_map(|entries| {
        Signature::new(
            entries
                .into_iter()
                .map(|(c, d)| SignatureEntry {
                    code: ZoneCode(c),
                    duration: d,
                })
                .collect(),
        )
        .expect("valid entries")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ndf_of_a_signature_with_itself_is_zero(sig in signature_strategy()) {
        prop_assert!(ndf(&sig, &sig).expect("ndf") < 1e-12);
    }

    #[test]
    fn ndf_is_bounded_by_the_code_width(a in signature_strategy(), b in signature_strategy()) {
        // Codes are below 64, i.e. at most 6 bits differ at any instant.
        let value = ndf(&a, &b).expect("ndf");
        prop_assert!(value >= 0.0);
        prop_assert!(value <= 6.0 + 1e-12);
    }

    #[test]
    fn ndf_is_symmetric_when_durations_match(codes_a in prop::collection::vec(0u32..64, 1..10),
                                             codes_b in prop::collection::vec(0u32..64, 1..10)) {
        // Build two signatures over the same total duration with uniform
        // dwell times; Eq. (2) is then symmetric in its arguments.
        let total = 200e-6;
        let a = Signature::new(codes_a.iter().map(|&c| SignatureEntry {
            code: ZoneCode(c), duration: total / codes_a.len() as f64,
        }).collect()).expect("a");
        let b = Signature::new(codes_b.iter().map(|&c| SignatureEntry {
            code: ZoneCode(c), duration: total / codes_b.len() as f64,
        }).collect()).expect("b");
        let ab = ndf(&a, &b).expect("ndf");
        let ba = ndf(&b, &a).expect("ndf");
        prop_assert!((ab - ba).abs() < 1e-9, "ndf(a,b) = {ab}, ndf(b,a) = {ba}");
    }

    #[test]
    fn signature_total_duration_is_preserved_by_merging(entries in prop::collection::vec((0u32..8, 1e-6..10e-6_f64), 1..20)) {
        let expected: f64 = entries.iter().map(|e| e.1).sum();
        let sig = Signature::new(entries.into_iter().map(|(c, d)| SignatureEntry {
            code: ZoneCode(c), duration: d,
        }).collect()).expect("sig");
        prop_assert!((sig.total_duration() - expected).abs() < 1e-12);
        // Merging never produces two adjacent entries with the same code.
        for pair in sig.entries().windows(2) {
            prop_assert_ne!(pair[0].code, pair[1].code);
        }
    }

    #[test]
    fn quantization_never_exceeds_half_a_tick_per_entry(duration in 1e-7..1e-3_f64) {
        let clock = CaptureClock::new(10e6, 16).expect("clock");
        let q = clock.quantize(duration);
        prop_assert!((q - duration).abs() <= 0.5 * clock.tick() + 1e-15);
    }

    #[test]
    fn hamming_distance_is_a_metric_on_codes(a in 0u32..64, b in 0u32..64, c in 0u32..64) {
        let ab = ZoneCode(a).hamming_distance(ZoneCode(b));
        let ba = ZoneCode(b).hamming_distance(ZoneCode(a));
        let ac = ZoneCode(a).hamming_distance(ZoneCode(c));
        let cb = ZoneCode(c).hamming_distance(ZoneCode(b));
        prop_assert_eq!(ab, ba);
        prop_assert_eq!(ZoneCode(a).hamming_distance(ZoneCode(a)), 0);
        // Triangle inequality.
        prop_assert!(ab <= ac + cb);
    }
}

/// One drawn signature: a duration palette and `(code, class, unit)` draws
/// that [`adversarial_duration`] turns into entries.
type RawSignature = (u32, Vec<(u32, u32, f64)>);

fn raw_signature() -> impl Strategy<Value = RawSignature> {
    (0u32..5, prop::collection::vec((0u32..64, 0u32..4, 0.0..1.0_f64), 0..12))
}

/// Palette 0 draws 1–100 µs dwells; 1 mixes in gaps of 0–2e-15 s; 2 draws
/// gaps only, so a whole signature can be shorter than 1e-15 s; 3 mixes in
/// subnormals (and zeros, which `Signature::new` drops); 4 mixes in
/// subnormals and durations of 1/8 to 3/8 of `f64::MAX`, whose sums put
/// midpoints past `f64::MAX`.
fn adversarial_duration(palette: u32, class: u32, unit: f64) -> f64 {
    match (palette, class) {
        (1, 0) | (2, _) => unit * 2e-15,
        (3, 0) | (4, 1) => f64::from_bits((unit * 2f64.powi(52)) as u64),
        (4, 0) => f64::MAX / 4.0 * (0.5 + unit),
        _ => 1e-6 + unit * 99e-6,
    }
}

/// A signature of the given entries, leaving out any entry that would take
/// the running total past 0.9 × `f64::MAX` (merging regroups the sum, and
/// `Signature::new` refuses a total past `f64::MAX`).
fn capped_signature(entries: &[(u32, f64)]) -> Signature {
    let mut total = 0.0;
    let mut kept = Vec::with_capacity(entries.len());
    for &(code, duration) in entries {
        if total + duration <= 0.9 * f64::MAX {
            total += duration;
            kept.push(SignatureEntry {
                code: ZoneCode(code),
                duration,
            });
        }
    }
    Signature::new(kept).expect("finite total")
}

/// A golden and an observed signature. The observed one is unrelated, an
/// identical copy, a jittered copy (some codes flipped), the golden's
/// instants under other codes, longer (the golden, then more entries) or
/// shorter (a prefix of the golden). Either side may be empty or hold one
/// entry.
fn scored_pair() -> impl Strategy<Value = (Signature, Signature)> {
    (raw_signature(), raw_signature(), 0u32..6, 0.0..0.02_f64).prop_map(|((gp, g), (op, o), relation, jitter)| {
        let golden: Vec<(u32, f64)> = g.iter().map(|&(c, k, u)| (c, adversarial_duration(gp, k, u))).collect();
        let other: Vec<(u32, f64)> = o.iter().map(|&(c, k, u)| (c, adversarial_duration(op, k, u))).collect();
        let observed: Vec<(u32, f64)> = match relation {
            0 => other,
            1 => golden.clone(),
            2 => golden
                .iter()
                .enumerate()
                .map(|(i, &(c, d))| {
                    let u = o.get(i).map_or(0.5, |draw| draw.2);
                    (if u < 0.2 { c ^ 1 } else { c }, d * (1.0 + jitter * (u - 0.5)))
                })
                .collect(),
            3 => golden
                .iter()
                .enumerate()
                .map(|(i, &(c, d))| (c ^ o.get(i).map_or(1, |draw| draw.0), d))
                .collect(),
            4 => golden.iter().chain(&other).copied().collect(),
            _ => golden[..golden.len() / 2].to_vec(),
        };
        (capped_signature(&golden), capped_signature(&observed))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(SCORED_PAIRS))]

    #[test]
    fn ndf_and_peak_equal_the_reference_bit_for_bit(pair in scored_pair()) {
        let (golden, observed) = pair;
        let reference = ndf(&golden, &observed)
            .and_then(|n| Ok((n.to_bits(), peak_hamming_distance(&golden, &observed)?)));
        let one_pass = ndf_and_peak(&golden, &observed).map(|(n, peak)| (n.to_bits(), peak));
        prop_assert_eq!(one_pass, reference, "golden {:?} observed {:?}", golden, observed);
    }
}

const SCORED_PAIRS: u32 = 8192;

/// The pairs the proptest above draws (same strategy, same name-seeded
/// generator) cover every shape the one-pass walk must get right.
#[test]
fn scored_pairs_cover_the_adversarial_shapes() {
    let strategy = scored_pair();
    let mut rng = proptest::TestRng::from_name("ndf_and_peak_equal_the_reference_bit_for_bit");
    let shapes = [
        "identical",
        "empty golden",
        "empty observed",
        "single entry",
        "golden under 1e-15 s",
        "subnormal duration",
        "equal instants",
        "instants under 1e-15 s apart",
        "overflowing midpoint",
        "observed longer",
        "observed shorter",
    ];
    let mut seen = [0u32; 11];
    for _ in 0..SCORED_PAIRS {
        let (golden, observed) = strategy.generate(&mut rng);
        let (g, o) = (golden.total_duration(), observed.total_duration());
        let mut instants: Vec<f64> = golden.transition_times();
        instants.extend(observed.transition_times());
        instants.sort_by(f64::total_cmp);
        let gaps = |f: &dyn Fn(f64) -> bool| instants.windows(2).any(|w| f(w[1] - w[0]));
        let overflow = hamming_chronogram(&golden, &observed)
            .is_ok_and(|segments| segments.iter().any(|s| (s.t_start + s.t_end).is_infinite()));
        let hits = [
            !golden.is_empty() && golden == observed,
            golden.is_empty(),
            observed.is_empty(),
            golden.len() == 1 || observed.len() == 1,
            g > 0.0 && g < 1e-15 && !observed.is_empty(),
            golden
                .entries()
                .iter()
                .chain(observed.entries())
                .any(|e| e.duration < f64::MIN_POSITIVE),
            gaps(&|gap| gap == 0.0),
            gaps(&|gap| gap > 0.0 && gap < 1e-15),
            overflow,
            !golden.is_empty() && o > g,
            !observed.is_empty() && o < g,
        ];
        for (count, hit) in seen.iter_mut().zip(hits) {
            *count += u32::from(hit);
        }
    }
    for (shape, count) in shapes.iter().zip(seen) {
        assert!(
            count >= 100,
            "only {count} of {SCORED_PAIRS} pairs are {shape}: {seen:?}"
        );
    }
}

/// A deterministic helper encoder for capture properties.
struct Grid4x4;

impl PointEncoder for Grid4x4 {
    fn bits(&self) -> usize {
        4
    }
    fn encode(&self, x: f64, y: f64) -> u32 {
        let xi = ((x * 4.0).floor() as u32).min(3);
        let yi = ((y * 4.0).floor() as u32).min(3);
        xi | (yi << 2)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn capture_total_duration_equals_observation_window(freq in 1.0..8.0_f64, phase in 0.0..std::f64::consts::TAU) {
        let x = Waveform::from_fn(0.0, 1.0, 2000.0, |t| 0.5 + 0.45 * (2.0 * std::f64::consts::PI * freq * t + phase).sin());
        let y = Waveform::from_fn(0.0, 1.0, 2000.0, |t| 0.5 + 0.45 * (2.0 * std::f64::consts::PI * freq * t).cos());
        let sig = capture_signature(&Grid4x4, &x, &y, None).expect("capture");
        prop_assert!((sig.total_duration() - 1.0).abs() < 1e-9);
        prop_assert!(!sig.is_empty());
    }

    #[test]
    fn capture_is_deterministic(freq in 1.0..8.0_f64) {
        let x = Waveform::from_fn(0.0, 1.0, 1000.0, |t| 0.5 + 0.4 * (2.0 * std::f64::consts::PI * freq * t).sin());
        let y = Waveform::from_fn(0.0, 1.0, 1000.0, |t| 0.5 + 0.4 * (2.0 * std::f64::consts::PI * 2.0 * freq * t).sin());
        let a = capture_signature(&Grid4x4, &x, &y, None).expect("capture");
        let b = capture_signature(&Grid4x4, &x, &y, None).expect("capture");
        prop_assert_eq!(a, b);
    }
}

#[test]
fn paper_partition_codes_adjacent_zones_within_one_bit_along_the_lissajous() {
    // Walk the golden Lissajous trajectory finely: consecutive samples must
    // differ by at most one or two bits (two only if two boundaries are
    // crossed between samples), reproducing the zone-codification property
    // of §IV-B that justifies the Hamming metric.
    let partition = ZonePartition::paper_default().expect("partition");
    let stimulus = analog_signature::signal::MultitoneSpec::paper_default();
    let params = analog_signature::filters::BiquadParams::paper_default();
    let x = stimulus.sample(1, 5e6);
    let y = params.steady_state_response(&stimulus, 1, 5e6);
    let mut max_step = 0u32;
    let mut prev: Option<u32> = None;
    for (xs, ys) in x.samples().iter().zip(y.samples()) {
        let code = partition.zone_code(*xs, *ys);
        if let Some(p) = prev {
            max_step = max_step.max((code ^ p).count_ones());
        }
        prev = Some(code);
    }
    assert!(max_step <= 2, "adjacent Lissajous samples jumped {max_step} bits");
}
