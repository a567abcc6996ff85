//! Golden-signature cache.
//!
//! Building a [`TestFlow`] captures the golden signature of the reference
//! device — the expensive characterization step. A campaign needs it exactly
//! once, and consecutive campaigns over the same setup (sweeps over
//! populations, repeated lots) can share it, so the cache keys flows by the
//! exact parameters of `(setup, reference)` that the golden capture depends
//! on.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use cut_filters::BiquadParams;
use dsig_core::{recover, Result, TestFlow, TestSetup};

/// The exact cache key of a golden signature: every parameter of the setup
/// and reference device that the (noiseless) golden capture depends on,
/// serialized losslessly as 64-bit words. Equal keys therefore *guarantee*
/// equal golden signatures — there is no lossy probing or hashing involved
/// (`HashMap` hashes the word vector internally, but compares keys exactly).
pub type GoldenKey = Vec<u64>;

/// Builds the exact [`GoldenKey`] of a `(setup, reference)` pair.
pub fn golden_key(setup: &TestSetup, reference: &BiquadParams) -> GoldenKey {
    let mut key = Vec::with_capacity(128);
    let mut f = |v: f64| key.push(v.to_bits());

    // Capture-chain scalars.
    f(setup.sample_rate);
    f(setup.transition_min_dwell);
    match setup.monitor_bandwidth_hz {
        Some(bandwidth) => f(bandwidth),
        None => key.push(u64::MAX),
    }
    match &setup.clock {
        Some(clock) => {
            key.push(u64::from(clock.counter_bits));
            key.push(clock.frequency_hz.to_bits());
        }
        None => key.push(u64::MAX),
    }
    // The golden capture is noiseless by construction, so the noise model is
    // deliberately excluded: campaigns differing only in measurement noise
    // share one golden signature.

    // Stimulus and partition words come from the same serialization helpers
    // the batch path's `stimulus_key` uses, so the two keys cannot drift
    // apart on what "the same stimulus / monitor bank" means. The word order
    // here is load-bearing: `golden_fingerprint` digests of it are persisted
    // (DSGS stores), so any layout change requires a `STORE_VERSION` bump.
    dsig_core::batch::push_stimulus_words(&mut key, &setup.stimulus);

    // Partition: every electrical parameter of every monitor. Labels are
    // cosmetic and excluded; vdd is conservatively included (the behavioural
    // comparator output does not depend on it, but it predates that insight
    // and removing it would change every persisted fingerprint).
    key.push(setup.partition.bits() as u64);
    for monitor in setup.partition.monitors() {
        key.push(monitor.vdd.to_bits());
        dsig_core::batch::push_monitor_words(&mut key, monitor);
    }

    // Reference device.
    key.push(reference.f0_hz.to_bits());
    key.push(reference.q.to_bits());
    key.push(reference.gain.to_bits());
    key.push(
        format!("{:?}", reference.kind)
            .bytes()
            .fold(0u64, |acc, b| acc << 8 | u64::from(b)),
    );
    key
}

/// A compact 64-bit FNV-1a digest of [`golden_key`], identifying a
/// `(setup, reference)` characterization.
///
/// # Stability contract
///
/// The fingerprint is a pure function of the [`golden_key`] words — no
/// pointers, no hash-map iteration order, no platform-dependent state — so it
/// is **stable across runs, platforms, and thread counts**. Persistent
/// artifacts (the serving layer's `GoldenStore`) key goldens by this value
/// and rely on that stability to survive process restarts.
///
/// Two caveats follow from the design:
///
/// * **Collisions are possible in principle** (it is a 64-bit digest of an
///   arbitrarily long key), so in-process caches keep using the exact
///   [`GoldenKey`] for lookups; the fingerprint is for persistence, logging
///   and wire addressing, where 64 bits of FNV-1a over behaviorally distinct
///   setups is collision-free in practice (see the sweep-grid test below).
/// * **Extending [`golden_key`] changes every fingerprint.** Any change to
///   the key layout (new setup field, reordered words) invalidates stored
///   fingerprints; bump the on-disk format version of fingerprint-keyed
///   stores when that happens so stale stores are rejected instead of
///   silently missing every lookup.
pub fn golden_fingerprint(setup: &TestSetup, reference: &BiquadParams) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for word in golden_key(setup, reference) {
        for shift in [0u32, 8, 16, 24, 32, 40, 48, 56] {
            hash ^= (word >> shift) & 0xff;
            hash = hash.wrapping_mul(0x1000_0000_01b3);
        }
    }
    hash
}

/// A thread-safe cache of calibrated [`TestFlow`]s keyed exactly by
/// [`golden_key`].
#[derive(Default)]
pub struct GoldenCache {
    flows: Mutex<HashMap<GoldenKey, Arc<TestFlow>>>,
}

impl GoldenCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the cached flow for `(setup, reference)`, characterizing the
    /// golden signature on the first request.
    ///
    /// The returned flow is noise-normalized (its setup carries
    /// [`sim_signal::NoiseModel::none`]), since the key deliberately ignores
    /// measurement noise; production observations should go through the
    /// campaign's own [`TestSetup`], using the cached flow only for its
    /// golden signature.
    ///
    /// # Errors
    /// Propagates golden-capture errors from [`TestFlow::new`].
    pub fn flow_for(&self, setup: &TestSetup, reference: &BiquadParams) -> Result<Arc<TestFlow>> {
        let key = golden_key(setup, reference);
        if let Some(flow) = recover(self.flows.lock()).get(&key) {
            return Ok(Arc::clone(flow));
        }
        // Characterize outside the lock: golden capture is the expensive part.
        let noiseless = TestSetup {
            noise: sim_signal::NoiseModel::none(),
            ..setup.clone()
        };
        let flow = Arc::new(TestFlow::new(noiseless, *reference)?);
        let mut flows = recover(self.flows.lock());
        Ok(Arc::clone(flows.entry(key).or_insert(flow)))
    }

    /// Number of distinct golden signatures currently cached.
    pub fn len(&self) -> usize {
        recover(self.flows.lock()).len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_signal::NoiseModel;

    fn setup() -> TestSetup {
        TestSetup::paper_default().unwrap().with_sample_rate(1e6).unwrap()
    }

    #[test]
    fn same_setup_hits_the_cache() {
        let cache = GoldenCache::new();
        assert!(cache.is_empty());
        let a = cache.flow_for(&setup(), &BiquadParams::paper_default()).unwrap();
        let b = cache.flow_for(&setup(), &BiquadParams::paper_default()).unwrap();
        assert_eq!(cache.len(), 1);
        assert!(Arc::ptr_eq(&a, &b), "second lookup must reuse the characterized flow");
    }

    #[test]
    fn different_reference_or_rate_miss_the_cache() {
        let cache = GoldenCache::new();
        let _ = cache.flow_for(&setup(), &BiquadParams::paper_default()).unwrap();
        let shifted = BiquadParams::paper_default().with_f0_shift_pct(5.0);
        let _ = cache.flow_for(&setup(), &shifted).unwrap();
        assert_eq!(cache.len(), 2);
        let faster = TestSetup::paper_default().unwrap().with_sample_rate(2e6).unwrap();
        let _ = cache.flow_for(&faster, &BiquadParams::paper_default()).unwrap();
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn noise_model_does_not_split_the_cache() {
        // The golden capture is noiseless, so noisy and noiseless campaigns
        // over the same setup share one golden signature.
        let cache = GoldenCache::new();
        let quiet = cache.flow_for(&setup(), &BiquadParams::paper_default()).unwrap();
        let noisy_setup = setup().with_noise(NoiseModel::paper_default());
        let noisy = cache.flow_for(&noisy_setup, &BiquadParams::paper_default()).unwrap();
        assert_eq!(cache.len(), 1);
        assert_eq!(quiet.golden(), noisy.golden());
    }

    #[test]
    fn tiny_parameter_changes_split_the_cache() {
        // The key is exact: a monitor bias trimmed by 1 mV — far below any
        // behavioral probe's resolution — must still get its own golden.
        let cache = GoldenCache::new();
        let _ = cache.flow_for(&setup(), &BiquadParams::paper_default()).unwrap();
        let mut trimmed = setup();
        let mut monitors = trimmed.partition.monitors().to_vec();
        monitors[0].transistors[0].vth0 += 0.001;
        trimmed.partition = xy_monitor::ZonePartition::new(monitors).unwrap();
        let _ = cache.flow_for(&trimmed, &BiquadParams::paper_default()).unwrap();
        assert_eq!(cache.len(), 2, "a 1 mV bias trim must not share a golden signature");
    }

    #[test]
    fn fingerprints_are_collision_free_across_a_sweep_grid() {
        // Every behaviorally distinct (setup, reference) pair of a realistic
        // characterization grid must map to a distinct fingerprint — the
        // property persistent golden stores rely on. The grid crosses sample
        // rates, monitor bandwidths, f0 deviations and Q values: 3 * 2 * 41 *
        // 3 = 738 distinct characterizations.
        let mut seen = std::collections::HashMap::new();
        for sample_rate in [1e6, 2e6, 5e6] {
            for bandwidth in [Some(300e3), None] {
                let mut setup = TestSetup::paper_default()
                    .unwrap()
                    .with_sample_rate(sample_rate)
                    .unwrap();
                setup.monitor_bandwidth_hz = bandwidth;
                for tenth_pct in (-200..=200).step_by(10) {
                    for q_scale in [0.9, 1.0, 1.1] {
                        let mut reference = BiquadParams::paper_default().with_f0_shift_pct(tenth_pct as f64 / 10.0);
                        reference.q *= q_scale;
                        let fingerprint = golden_fingerprint(&setup, &reference);
                        if let Some(previous) = seen.insert(fingerprint, (sample_rate, bandwidth, tenth_pct, q_scale)) {
                            panic!(
                                "fingerprint collision: {:?} and {:?} both map to {fingerprint:#018x}",
                                previous,
                                (sample_rate, bandwidth, tenth_pct, q_scale)
                            );
                        }
                    }
                }
            }
        }
        assert_eq!(seen.len(), 3 * 2 * 41 * 3);
    }

    #[test]
    fn persisted_fingerprints_keep_their_values() {
        // DSGS stores key goldens by these digests across processes and
        // releases, so the key layout (including each transistor's polarity
        // word) must not drift. The second setup swaps one monitor's input
        // pair for PMOS devices, so both polarity words are covered.
        let paper = TestSetup::paper_default().unwrap();
        let reference = BiquadParams::paper_default();
        assert_eq!(golden_fingerprint(&paper, &reference), 4565530561233378702);
        let mut monitors = paper.partition.monitors().to_vec();
        for t in &mut monitors[0].transistors[..2] {
            *t = xy_monitor::MosParams::pmos_65nm(t.width, t.length);
        }
        let with_pmos = TestSetup {
            partition: xy_monitor::ZonePartition::new(monitors).unwrap(),
            ..paper
        };
        assert_eq!(golden_fingerprint(&with_pmos, &reference), 16634139454986308002);
    }

    #[test]
    fn key_and_fingerprint_are_stable() {
        let a = golden_key(&setup(), &BiquadParams::paper_default());
        let b = golden_key(&setup(), &BiquadParams::paper_default());
        assert_eq!(a, b);
        assert_eq!(
            golden_fingerprint(&setup(), &BiquadParams::paper_default()),
            golden_fingerprint(&setup(), &BiquadParams::paper_default())
        );
    }
}
