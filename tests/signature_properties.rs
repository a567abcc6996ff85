//! Property-based tests of the signature / NDF invariants.

use analog_signature::dsig::{
    capture_signature, ndf, ndf_and_peak, peak_hamming_distance, CaptureClock, PointEncoder, Signature, SignatureEntry,
    ZoneCode,
};
use analog_signature::monitor::ZonePartition;
use analog_signature::signal::Waveform;
use proptest::prelude::*;

/// The unit of every generated signature: the paper clock's 0.1 µs tick.
const TICK: f64 = 1e-7;

/// A signature of `TICK` counts.
fn counted(entries: impl IntoIterator<Item = (u32, u32)>) -> Signature {
    counted_in(TICK, entries)
}

fn counted_in(unit: f64, entries: impl IntoIterator<Item = (u32, u32)>) -> Signature {
    Signature::new(
        unit,
        entries
            .into_iter()
            .map(|(c, n)| SignatureEntry {
                code: ZoneCode(c),
                count: n,
            })
            .collect(),
    )
    .expect("valid entries")
}

/// Arbitrary signatures: 1..12 entries with codes below 64 and dwells of
/// 10 to 999 ticks (1 µs to 100 µs).
fn signature_strategy() -> impl Strategy<Value = Signature> {
    prop::collection::vec((0u32..64, 10u32..1000), 1..12).prop_map(counted)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ndf_of_a_signature_with_itself_is_zero(sig in signature_strategy()) {
        prop_assert_eq!(ndf(&sig, &sig).expect("ndf"), 0.0);
    }

    #[test]
    fn ndf_is_bounded_by_the_code_width(a in signature_strategy(), b in signature_strategy()) {
        // Codes are below 64, i.e. at most 6 bits differ at any instant.
        let value = ndf(&a, &b).expect("ndf");
        prop_assert!(value >= 0.0);
        prop_assert!(value <= 6.0);
    }

    #[test]
    fn ndf_is_symmetric_when_durations_match(codes_a in prop::collection::vec(0u32..64, 1..10),
                                             codes_b in prop::collection::vec(0u32..64, 1..10)) {
        // Build two signatures over the same total count with uniform
        // dwells (2,520 ticks divide evenly into 1 to 9 entries); Eq. (2)
        // is then symmetric in its arguments, and exactly so in integers.
        let total = 2520;
        let a = counted(codes_a.iter().map(|&c| (c, total / codes_a.len() as u32)));
        let b = counted(codes_b.iter().map(|&c| (c, total / codes_b.len() as u32)));
        let ab = ndf(&a, &b).expect("ndf");
        let ba = ndf(&b, &a).expect("ndf");
        prop_assert_eq!(ab.to_bits(), ba.to_bits(), "ndf(a,b) = {}, ndf(b,a) = {}", ab, ba);
    }

    #[test]
    fn signature_total_duration_is_preserved_by_merging(entries in prop::collection::vec((0u32..8, 10u32..100), 1..20)) {
        let expected: u32 = entries.iter().map(|e| e.1).sum();
        let sig = counted(entries);
        prop_assert_eq!(sig.total_count(), expected);
        prop_assert_eq!(sig.total_duration(), f64::from(expected) * TICK);
        // Merging never produces two adjacent entries with the same code.
        for pair in sig.entries().windows(2) {
            prop_assert_ne!(pair[0].code, pair[1].code);
        }
    }

    #[test]
    fn quantization_never_exceeds_half_a_tick_per_entry(duration in 1e-7..1e-3_f64) {
        let clock = CaptureClock::new(10e6, 16).expect("clock");
        let q = clock.quantize_ticks(duration) as f64 * clock.tick();
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

/// One drawn signature: a count palette and `(code, class, draw)` triples
/// that [`adversarial_count`] turns into entries.
type RawSignature = (u32, Vec<(u32, u32, u32)>);

fn raw_signature() -> impl Strategy<Value = RawSignature> {
    (
        0u32..4,
        prop::collection::vec((0u32..64, 0u32..4, 0u32..u32::MAX), 0..12),
    )
}

/// Palette 0 draws dwells of 10 to 1,000 counts; 1 mixes in dwells of one
/// and two counts; 2 draws those only, so boundaries fall one count apart;
/// 3 mixes in dwells of up to a third of `u32::MAX` (and zeros, which
/// `Signature::new` drops), whose sums reach the top of the count range.
fn adversarial_count(palette: u32, class: u32, draw: u32) -> u32 {
    match (palette, class) {
        (1, 0) | (2, _) => 1 + draw % 2,
        (3, 0) | (3, 1) => draw / 3,
        _ => 10 + draw % 991,
    }
}

/// A signature of the given entries, leaving out any entry that would take
/// the running total past `u32::MAX` (which `Signature::new` refuses).
fn capped_signature(unit: f64, entries: &[(u32, u32)]) -> Signature {
    let mut total = 0u32;
    let kept: Vec<(u32, u32)> = entries
        .iter()
        .copied()
        .filter(|&(_, n)| total.checked_add(n).map(|sum| total = sum).is_some())
        .collect();
    counted_in(unit, kept)
}

/// A golden and an observed signature. The observed one is unrelated, an
/// identical copy, a jittered copy (some codes flipped, boundaries moved by
/// a count), the golden's boundaries under other codes, longer (the golden,
/// then more entries), shorter (a prefix of the golden) or the golden in
/// another unit. Either side may be empty or hold one entry.
fn scored_pair() -> impl Strategy<Value = (Signature, Signature)> {
    (raw_signature(), raw_signature(), 0u32..7).prop_map(|((gp, g), (op, o), relation)| {
        let golden: Vec<(u32, u32)> = g.iter().map(|&(c, k, d)| (c, adversarial_count(gp, k, d))).collect();
        let other: Vec<(u32, u32)> = o.iter().map(|&(c, k, d)| (c, adversarial_count(op, k, d))).collect();
        let draw = |i: usize| o.get(i).map_or(0, |entry| entry.2);
        let observed: Vec<(u32, u32)> = match relation {
            0 => other,
            1 | 6 => golden.clone(),
            2 => golden
                .iter()
                .enumerate()
                .map(|(i, &(c, n))| {
                    let flip = u32::from(draw(i) % 5 == 0);
                    (c ^ flip, (n + draw(i) % 3).saturating_sub(1))
                })
                .collect(),
            3 => golden
                .iter()
                .enumerate()
                .map(|(i, &(c, n))| (c ^ o.get(i).map_or(1, |entry| entry.0), n))
                .collect(),
            4 => golden.iter().chain(&other).copied().collect(),
            _ => golden[..golden.len() / 2].to_vec(),
        };
        let observed_unit = if relation == 6 { 2.0 * TICK } else { TICK };
        (
            capped_signature(TICK, &golden),
            capped_signature(observed_unit, &observed),
        )
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

/// A signature's interior entry boundaries, in counts.
fn boundaries(signature: &Signature) -> Vec<u32> {
    let entries = signature.entries();
    entries[..entries.len().saturating_sub(1)]
        .iter()
        .scan(0, |end, e| {
            *end += e.count;
            Some(*end)
        })
        .collect()
}

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
        "one-count entry",
        "shared boundaries",
        "boundaries one count apart",
        "a total past half the count range",
        "observed longer",
        "observed shorter",
        "units differ",
    ];
    let mut seen = [0u32; 11];
    for _ in 0..SCORED_PAIRS {
        let (golden, observed) = strategy.generate(&mut rng);
        let (g, o) = (golden.total_count(), observed.total_count());
        let mut instants = boundaries(&golden);
        instants.extend(boundaries(&observed));
        instants.sort_unstable();
        let gaps = |gap: u32| instants.windows(2).any(|w| w[1] - w[0] == gap);
        let hits = [
            !golden.is_empty() && golden == observed,
            golden.is_empty(),
            observed.is_empty(),
            golden.len() == 1 || observed.len() == 1,
            golden.entries().iter().chain(observed.entries()).any(|e| e.count == 1),
            gaps(0),
            gaps(1),
            g.max(o) > u32::MAX / 2,
            !golden.is_empty() && o > g,
            !observed.is_empty() && o < g,
            golden.unit() != observed.unit(),
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
        // Without a clock every sample counts once.
        prop_assert_eq!(sig.unit(), x.dt());
        prop_assert_eq!(sig.total_count() as usize, x.len());
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
