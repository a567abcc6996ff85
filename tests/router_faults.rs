//! Seeded fault injection behind the router's `Service` seam: a router over
//! four in-process backends, each reached through a link that draws one
//! fault per call from a seeded generator — an I/O error before the call, a
//! lost answer (the call runs, its reply is dropped), a spurious unknown
//! golden (which the router answers with a refresh on miss) or a short
//! delay. A 1,000-device lot is screened and retested through it in batches
//! for every seed: each answer must equal local `ndf_and_peak` scoring bit
//! for bit, and each failure must be an explicit all-backends-failed error.
//!
//! Health backoff reads the wall clock, so which member answers a call may
//! differ between runs of one seed; the invariants hold for every order.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use analog_signature::dsig::{ndf_and_peak, AcceptanceBand, RetestPolicy, Signature, TestFlow, TestOutcome, TestSetup};
use analog_signature::engine::{Campaign, CampaignRunner, DevicePopulation};
use analog_signature::filters::BiquadParams;
use analog_signature::obs::{MetricsSnapshot, Registry};
use analog_signature::router::{Backend, HealthConfig, RouterConfig, RouterHandle, RouterStore};
use analog_signature::serve::{
    GoldenStore, Request, Response, Result, RetestItem, RetestRequest, RetestScore, ScoreResult, ServeConfig,
    ServeError, ServeHandle, Service,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DEVICES: usize = 1000;
const BACKENDS: u64 = 4;
/// Signatures per screening request and devices per retest request.
const SCREEN_BATCH: usize = 64;
const RETEST_BATCH: usize = 16;
/// Measurement repeats carried per retest device (the policy's cap).
const REPEATS: usize = 4;
const SEEDS: [u64; 6] = [1, 2, 3, 5, 8, 13];

struct Lot {
    setup: TestSetup,
    reference: BiquadParams,
    band: AcceptanceBand,
    policy: RetestPolicy,
    golden: Signature,
    signatures: Vec<Signature>,
}

/// A noiseless Monte-Carlo lot around the acceptance threshold, simulated
/// once for every seed.
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
        .with_seed(31);
        let (_, log) = CampaignRunner::new().run_logged(&campaign).unwrap();
        Lot {
            golden: TestFlow::new(setup.clone(), reference).unwrap().golden().clone(),
            setup,
            reference,
            band,
            policy: RetestPolicy::new(0.01, vec![2, REPEATS as u32]).unwrap(),
            signatures: log.entries().iter().map(|(_, s)| s.clone()).collect(),
        }
    })
}

/// One fault per call, drawn in this order from the link's generator.
#[derive(Clone, Copy)]
enum Fault {
    IoBefore,
    LostAnswer,
    UnknownGolden,
    Delay,
}

/// Faults injected so far, by kind (in [`Fault`] order).
#[derive(Default)]
struct Injected([AtomicUsize; 4]);

/// A backend link that draws one fault per call from a seeded generator
/// once armed. Spurious unknown goldens hit only the golden-addressed work
/// (screens and retests), where the router refreshes on a miss.
struct Faulty {
    inner: ServeHandle,
    rng: Mutex<StdRng>,
    armed: Arc<AtomicBool>,
    injected: Arc<Injected>,
}

impl Faulty {
    fn draw(&self, request: &Request<'_>) -> Option<Fault> {
        if !self.armed.load(Ordering::SeqCst) {
            return None;
        }
        let fault = match self.rng.lock().unwrap().gen_range(0u32..100) {
            0..=14 => Fault::IoBefore,
            15..=29 => Fault::LostAnswer,
            30..=39 if matches!(request, Request::Screen(_) | Request::Retest(_)) => Fault::UnknownGolden,
            40..=44 => Fault::Delay,
            _ => return None,
        };
        self.injected.0[fault as usize].fetch_add(1, Ordering::Relaxed);
        Some(fault)
    }
}

fn link_error(what: &str) -> ServeError {
    ServeError::Io(std::io::Error::new(std::io::ErrorKind::ConnectionReset, what))
}

impl Service for Faulty {
    fn call(&self, request: Request<'_>) -> Result<Response> {
        match self.draw(&request) {
            None => self.inner.call(request),
            Some(Fault::IoBefore) => Err(link_error("injected: link down before the call")),
            Some(Fault::LostAnswer) => {
                let _ = self.inner.call(request);
                Err(link_error("injected: the answer was lost"))
            }
            Some(Fault::UnknownGolden) => Err(ServeError::UnknownGolden(request.golden_key().unwrap_or_default())),
            Some(Fault::Delay) => {
                std::thread::sleep(Duration::from_micros(200));
                self.inner.call(request)
            }
        }
    }
}

/// A router over `BACKENDS` faulty in-process backends, the lot's golden
/// characterized into it before the links are armed.
fn faulty_router(seed: u64, injected: &Arc<Injected>) -> (RouterHandle, u64, Arc<AtomicBool>) {
    let lot = lot();
    let armed = Arc::new(AtomicBool::new(false));
    let backends = (0..BACKENDS)
        .map(|id| {
            let link = Faulty {
                inner: ServeHandle::spawn(Arc::new(GoldenStore::new()), ServeConfig::with_shards(1)),
                rng: Mutex::new(StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ id)),
                armed: Arc::clone(&armed),
                injected: Arc::clone(injected),
            };
            Backend::new(id, format!("local-{id}"), Arc::new(link))
        })
        .collect();
    let config = RouterConfig {
        replicas: 2,
        // A backoff that saturates at the second consecutive failure, so
        // replica healing triggers under the fault rate.
        health: HealthConfig {
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
        },
    };
    let router = RouterHandle::with_backends(backends, RouterStore::new(), config).unwrap();
    let key = router.characterize(&lot.setup, &lot.reference, lot.band).unwrap();
    (router, key, armed)
}

/// Local scoring of one signature against the lot's golden.
fn local_score(observed: &Signature) -> ScoreResult {
    let lot = lot();
    let (ndf, peak_hamming) = ndf_and_peak(&lot.golden, observed).unwrap();
    ScoreResult {
        ndf,
        peak_hamming,
        outcome: lot.band.decide(ndf),
    }
}

/// Local scoring of one retest device: the policy's escalation walk over
/// the locally scored single shot and repeats.
fn local_retest(item: &RetestItem) -> RetestScore {
    let lot = lot();
    let initial = local_score(&item.initial);
    let repeats: Vec<ScoreResult> = item.repeats.iter().map(local_score).collect();
    let ndfs: Vec<f64> = repeats.iter().map(|score| score.ndf).collect();
    let verdict = lot.policy.escalate(&lot.band, initial.ndf, &ndfs);
    let used = verdict.repeats_used as usize;
    RetestScore {
        score: ScoreResult {
            ndf: verdict.ndf,
            peak_hamming: repeats[..used]
                .iter()
                .fold(initial.peak_hamming, |peak, score| peak.max(score.peak_hamming)),
            outcome: verdict.outcome,
        },
        marginal: verdict.marginal,
        flipped: verdict.flipped,
        repeats_used: verdict.repeats_used,
    }
}

fn same_score(a: &ScoreResult, b: &ScoreResult) -> bool {
    a.ndf.to_bits() == b.ndf.to_bits() && a.peak_hamming == b.peak_hamming && a.outcome == b.outcome
}

fn same_retest(a: &RetestScore, b: &RetestScore) -> bool {
    same_score(&a.score, &b.score) && (a.marginal, a.flipped, a.repeats_used) == (b.marginal, b.flipped, b.repeats_used)
}

/// A failure must be explicit: every backend of the chain failed.
fn assert_explicit(err: &ServeError, key: u64, seed: u64, what: &str) {
    match err {
        ServeError::AllBackendsFailed { key: failed, .. } => assert_eq!(*failed, key, "seed {seed} {what}"),
        other => panic!("seed {seed} {what}: expected an all-backends-failed error, got {other:?}"),
    }
}

/// The sum of `router.backend.<label>.<what>` over the fleet.
fn per_backend(snapshot: &MetricsSnapshot, what: &str) -> u64 {
    (0..BACKENDS)
        .map(|id| {
            snapshot
                .counter(&format!("router.backend.local-{id}.{what}"))
                .unwrap_or(0)
        })
        .sum()
}

/// Outcomes of one seed's run.
#[derive(Default)]
struct Tally {
    answered: usize,
    failed: usize,
    marginal: usize,
    healed: usize,
}

/// Replica heals logged since the last call. The event ring is bounded, so
/// it is drained after every request.
fn heals() -> usize {
    Registry::global()
        .events()
        .drain()
        .iter()
        .filter(|event| event.name == "replica.healed")
        .count()
}

fn run_seed(seed: u64, injected: &Arc<Injected>) -> Tally {
    let lot = lot();
    let (router, key, armed) = faulty_router(seed, injected);
    armed.store(true, Ordering::SeqCst);
    let mut tally = Tally::default();

    for (batch, chunk) in lot.signatures.chunks(SCREEN_BATCH).enumerate() {
        match router.screen(key, chunk) {
            Ok(scores) => {
                tally.answered += 1;
                assert_eq!(scores.len(), chunk.len(), "seed {seed} screen batch {batch}");
                for (at, (score, observed)) in scores.iter().zip(chunk).enumerate() {
                    assert!(
                        same_score(score, &local_score(observed)),
                        "seed {seed} screen batch {batch} signature {at}: routed {score:?} differs from local scoring"
                    );
                }
            }
            Err(err) => {
                tally.failed += 1;
                assert_explicit(&err, key, seed, &format!("screen batch {batch}"));
            }
        }
        tally.healed += heals();
    }

    let items: Vec<RetestItem> = (0..DEVICES)
        .map(|device| RetestItem {
            initial: lot.signatures[device].clone(),
            repeats: (1..=REPEATS)
                .map(|k| lot.signatures[(device + k) % DEVICES].clone())
                .collect(),
        })
        .collect();
    for (batch, chunk) in items.chunks(RETEST_BATCH).enumerate() {
        let request = RetestRequest {
            golden_key: key,
            policy: lot.policy.clone(),
            items: chunk.to_vec(),
        };
        match router.screen_retest(&request) {
            Ok(scores) => {
                tally.answered += 1;
                assert_eq!(scores.len(), chunk.len(), "seed {seed} retest batch {batch}");
                for (at, (score, item)) in scores.iter().zip(chunk).enumerate() {
                    assert!(
                        same_retest(score, &local_retest(item)),
                        "seed {seed} retest batch {batch} device {at}: routed {score:?} differs from local scoring"
                    );
                    tally.marginal += usize::from(score.marginal);
                }
            }
            Err(err) => {
                tally.failed += 1;
                assert_explicit(&err, key, seed, &format!("retest batch {batch}"));
            }
        }
        tally.healed += heals();
    }
    tally
}

#[test]
fn seeded_link_faults_never_change_a_routed_verdict() {
    let lot = lot();
    assert!(
        lot.signatures
            .iter()
            .map(local_score)
            .any(|s| s.outcome == TestOutcome::Fail),
        "the lot must straddle the threshold"
    );
    let injected = Arc::new(Injected::default());
    let before = Registry::global().snapshot();
    let (mut marginal, mut healed) = (0, 0);
    for seed in SEEDS {
        let tally = run_seed(seed, &injected);
        assert!(
            tally.answered > tally.failed,
            "seed {seed}: {} of {} requests failed",
            tally.failed,
            tally.answered + tally.failed
        );
        marginal += tally.marginal;
        healed += tally.healed;
    }
    let after = Registry::global().snapshot();

    // The faults, and the router's answers to them, actually happened.
    let counts: Vec<usize> = injected.0.iter().map(|count| count.load(Ordering::Relaxed)).collect();
    assert!(
        counts.iter().all(|&count| count > 0),
        "every fault kind must fire: {counts:?}"
    );
    let delta = |name: &str| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
    assert!(
        per_backend(&after, "failovers") > per_backend(&before, "failovers"),
        "faults must force failovers"
    );
    assert!(
        delta("router.refresh_on_miss") >= 1,
        "a spurious miss must be refreshed"
    );
    assert!(healed >= 1, "a saturated failure streak must heal replicas");
    assert!(marginal > 0, "some retest devices must be marginal");
}
