//! The scoring seam and the one production scorer.
//!
//! [`screen`] scores signatures against a `(golden, band)` pair, and
//! [`retest`] re-decides an adaptive-retest request against the same pair.
//! They are the verdict of the paper: the NDF of Eq. 2, decided by the
//! acceptance band, with the escalation walk of
//! [`RetestPolicy::escalate`] on top. Every production verdict comes from
//! them: the campaign runner's local target and the serving tier's
//! `dsig_serve::ServeHandle` both call them, so a local and a served
//! verdict are one computation. `dsig_core::TestFlow` and the reference
//! `ndf` and `peak_hamming_distance` stay apart from them, as the
//! independent reference the tests check every path against.
//!
//! The engine cannot depend on `dsig-serve` or `dsig-router` (they depend on
//! the engine), so the seam is a trait: anything that can score a batch of
//! signatures against a persisted golden fingerprint implements
//! [`RemoteScorer`], and [`crate::CampaignRunner::run_with_target`] accepts a
//! [`ScoreTarget`] selecting the local path or a remote implementation.
//! The runner resolves the local path to a private in-process
//! implementation over its cached golden, so it scores through the seam
//! either way.
//! `dsig_serve::ServeHandle`, `dsig_serve::PipelinedClient` and
//! `dsig_router::RouterHandle` implement the trait, which is what makes
//! multi-process campaign sharding real: the capture side fans out over the
//! runner's worker pool while every verdict comes from the serving tier.
//!
//! The types of the seam ([`ScoreResult`], [`RetestItem`],
//! [`RetestRequest`], [`RetestScore`]) are also the serving protocol's:
//! `dsig_serve::proto` re-exports them, so the runner hands a tier its
//! adaptive-retest request as the tier encodes it, and a tier answers the
//! runner with its wire scores as they are.
//!
//! Because signature scoring is a pure function of `(golden, observed)` and
//! the acceptance band, a remote target whose golden was characterized from
//! the same `(setup, reference, band)` produces reports **bit-identical** to
//! local scoring — the loopback tests enforce this through both the serve and
//! router tiers.

use dsig_core::{ndf_and_peak, AcceptanceBand, Result, RetestPolicy, Signature, TestOutcome};

/// The score of one signature against a golden: what a serving tier
/// answers per signature, and what a remote scoring target returns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoreResult {
    /// Normalized discrepancy factor (Eq. 2 of the paper).
    pub ndf: f64,
    /// Peak instantaneous Hamming distance over the period.
    pub peak_hamming: u32,
    /// PASS/FAIL decision of the golden's acceptance band.
    pub outcome: TestOutcome,
}

/// One device of an adaptive-retest batch: the single-shot signature plus
/// the measurement repeats captured so far, which the scoring tier may
/// consume if the single shot turns out marginal.
#[derive(Debug, Clone, PartialEq)]
pub struct RetestItem {
    /// The single-shot observed signature.
    pub initial: Signature,
    /// Measurement repeats of the same device (independent noise
    /// realisations), in capture order: any prefix of the escalation, at
    /// most the policy's cap. The campaign runner sends a schedule step's
    /// count; the walk clamps to what is sent.
    pub repeats: Vec<Signature>,
}

/// An adaptive-retest screening request (`DSRT`): score each device's
/// single shot against the golden under `golden_key`, and re-decide marginal
/// ones from averaged repeats through the carried [`RetestPolicy`] —
/// **server-side**, before any verdict is answered. Each device carries the
/// repeats captured so far, a prefix of the schedule; the walk stops early
/// where they run out ([`RetestPolicy::escalate`] clamps), so the campaign
/// runner sends one request per schedule step, each with the devices whose
/// walk is still open.
#[derive(Debug, Clone, PartialEq)]
pub struct RetestRequest {
    /// Fingerprint of the golden to score against.
    pub golden_key: u64,
    /// The guard band and escalation schedule applied to every device.
    pub policy: RetestPolicy,
    /// The devices, in request order.
    pub items: Vec<RetestItem>,
}

impl RetestRequest {
    /// The signatures the request carries: each device's single shot plus
    /// its repeats.
    pub fn signature_count(&self) -> usize {
        self.items.iter().map(|item| 1 + item.repeats.len()).sum()
    }
}

/// A borrowed-or-owned request equals an owned one with the same contents,
/// as `Cow<str>` equals `String`: serving requests carry a retest batch as
/// `Cow`.
impl PartialEq<RetestRequest> for std::borrow::Cow<'_, RetestRequest> {
    fn eq(&self, other: &RetestRequest) -> bool {
        **self == *other
    }
}

/// The adaptive-retest score of one device: the final (possibly averaged)
/// score plus the retest metadata of the escalation walk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetestScore {
    /// The deciding score: single-shot for non-marginal devices, with the
    /// NDF averaged and the peak Hamming distance folded over the consumed
    /// repeats otherwise.
    pub score: ScoreResult,
    /// Whether the single-shot NDF fell inside the guard band.
    pub marginal: bool,
    /// Whether the averaged verdict differs from the single-shot one.
    pub flipped: bool,
    /// Measurement repeats consumed by the escalation walk.
    pub repeats_used: u32,
}

/// A scoring backend the campaign runner can send observed signatures to.
///
/// Implementations must be usable from several worker threads at once
/// (`Sync`) and must return exactly one score per signature, in input order.
pub trait RemoteScorer: Sync {
    /// Scores `signatures` against the golden stored under `golden_key`
    /// (see [`crate::golden_fingerprint`]), one score per signature in order.
    ///
    /// # Errors
    /// Returns [`dsig_core::DsigError::Remote`] (or a decoded scoring error)
    /// when the backend cannot answer.
    fn screen_remote(&self, golden_key: u64, signatures: &[Signature]) -> Result<Vec<ScoreResult>>;

    /// Screens an adaptive-retest batch (`DSRT`): each device's single shot
    /// plus the measurement repeats captured so far, re-decided remotely
    /// through the request's policy against the golden stored under its
    /// `golden_key`; the walk clamps to the repeats sent. The request is
    /// borrowed, so an implementation that encodes or scores it needs no
    /// copy of its signatures. Returns one score per device, in request
    /// order.
    ///
    /// # Errors
    /// Returns [`dsig_core::DsigError::Remote`] (or a decoded scoring error)
    /// when the backend cannot answer.
    fn retest_remote(&self, request: &RetestRequest) -> Result<Vec<RetestScore>>;
}

/// Where a campaign's observed signatures are scored.
#[derive(Clone, Copy)]
pub enum ScoreTarget<'a> {
    /// Score in-process against the runner's cached golden signature, under
    /// the campaign's band, with the same [`screen`] and [`retest`] a serving
    /// tier runs — the default path of [`crate::CampaignRunner::run`].
    Local,
    /// Ship observed signatures to a remote scoring tier (a serve handle, a
    /// router handle, or anything else implementing [`RemoteScorer`]),
    /// addressed by the campaign's [`crate::golden_fingerprint`].
    Remote(&'a dyn RemoteScorer),
}

impl std::fmt::Debug for ScoreTarget<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScoreTarget::Local => f.write_str("ScoreTarget::Local"),
            ScoreTarget::Remote(_) => f.write_str("ScoreTarget::Remote(..)"),
        }
    }
}

/// Scores `signatures` against `golden`, one [`ScoreResult`] per signature
/// in order, each NDF decided by `band`.
///
/// # Errors
/// Propagates [`ndf_and_peak`] errors: an empty signature, or a signature
/// whose unit differs from the golden's.
pub fn screen(golden: &Signature, band: &AcceptanceBand, signatures: &[Signature]) -> Result<Vec<ScoreResult>> {
    score_each(golden, band, signatures.iter(), signatures.len())
}

/// Re-decides an adaptive-retest request against `golden` and `band`, one
/// [`RetestScore`] per device in request order.
///
/// Every initial signature and every repeat is scored before any walk, so
/// one signature that fails to score fails the whole request. Each device
/// then walks the request policy's escalation
/// ([`RetestPolicy::escalate`]) over its repeats' NDFs, and its peak Hamming
/// distance folds the initial capture with the consumed repeats: the
/// deciding score [`dsig_core::TestFlow::evaluate_with_retest`] computes.
/// The request's golden key is not read.
///
/// # Errors
/// As for [`screen`].
pub fn retest(golden: &Signature, band: &AcceptanceBand, request: &RetestRequest) -> Result<Vec<RetestScore>> {
    let signatures = request
        .items
        .iter()
        .flat_map(|item| std::iter::once(&item.initial).chain(&item.repeats));
    let scores = score_each(golden, band, signatures, request.signature_count())?;
    let mut rest = scores.as_slice();
    // One buffer of repeat NDFs serves every device's walk, so the walks
    // allocate nothing per device.
    let mut repeat_ndfs = Vec::new();
    Ok(request
        .items
        .iter()
        .map(|item| {
            let (initial, tail) = rest.split_first().expect("one score per initial signature");
            let (repeats, tail) = tail.split_at(item.repeats.len());
            rest = tail;
            repeat_ndfs.clear();
            repeat_ndfs.extend(repeats.iter().map(|s| s.ndf));
            let verdict = request.policy.escalate(band, initial.ndf, &repeat_ndfs);
            RetestScore {
                score: ScoreResult {
                    ndf: verdict.ndf,
                    peak_hamming: repeats[..verdict.repeats_used as usize]
                        .iter()
                        .fold(initial.peak_hamming, |peak, s| peak.max(s.peak_hamming)),
                    outcome: verdict.outcome,
                },
                marginal: verdict.marginal,
                flipped: verdict.flipped,
                repeats_used: verdict.repeats_used,
            }
        })
        .collect())
}

/// Scores `count` signatures into a list sized for exactly that many.
fn score_each<'a>(
    golden: &Signature,
    band: &AcceptanceBand,
    signatures: impl Iterator<Item = &'a Signature>,
    count: usize,
) -> Result<Vec<ScoreResult>> {
    let mut scores = Vec::with_capacity(count);
    for observed in signatures {
        let (ndf, peak_hamming) = ndf_and_peak(golden, observed)?;
        scores.push(ScoreResult {
            ndf,
            peak_hamming,
            outcome: band.decide(ndf),
        });
    }
    Ok(scores)
}

dsig_core::wire_fields!(ScoreResult {
    ndf,
    peak_hamming,
    outcome
});
dsig_core::wire_fields!(RetestItem { initial, repeats });
dsig_core::wire_fields!(RetestRequest {
    golden_key,
    policy,
    items
});
dsig_core::wire_fields!(RetestScore {
    score,
    marginal,
    flipped,
    repeats_used
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_scorer_reproduces_the_reference_flow() {
        use cut_filters::BiquadParams;
        use dsig_core::{ndf, peak_hamming_distance, retest_seed, TestFlow, TestSetup};

        let setup = TestSetup::paper_default()
            .unwrap()
            .with_sample_rate(1e6)
            .unwrap()
            .with_noise(sim_signal::NoiseModel::paper_default());
        let flow = TestFlow::new(setup.clone(), BiquadParams::paper_default()).unwrap();
        let band = AcceptanceBand::new(0.03).unwrap();
        let policy = RetestPolicy::new(0.015, vec![2, 4]).unwrap();
        let cuts: Vec<BiquadParams> = [-8.0, -3.0, -1.0, 0.0, 2.0, 3.5, 5.0, 12.0]
            .iter()
            .map(|&d| BiquadParams::paper_default().with_f0_shift_pct(d))
            .collect();
        let observed: Vec<Signature> = (0..)
            .zip(&cuts)
            .map(|(seed, cut)| setup.signature_of(cut, seed).unwrap())
            .collect();

        let scores = screen(flow.golden(), &band, &observed).unwrap();
        assert_eq!(scores.len(), cuts.len());
        for (score, observed) in scores.iter().zip(&observed) {
            let ndf = ndf(flow.golden(), observed).unwrap();
            assert_eq!(score.ndf.to_bits(), ndf.to_bits());
            assert_eq!(
                score.peak_hamming,
                peak_hamming_distance(flow.golden(), observed).unwrap()
            );
            assert_eq!(score.outcome, band.decide(ndf));
        }

        // Every device carries the whole cap of repeats, captured as
        // `evaluate_with_retest` captures them.
        let request = RetestRequest {
            golden_key: 0,
            policy: policy.clone(),
            items: (0..)
                .zip(&cuts)
                .zip(observed)
                .map(|((seed, cut), initial)| RetestItem {
                    initial,
                    repeats: setup
                        .signatures_of_repeats(cut, policy.repeat_cap() as usize, retest_seed(seed))
                        .unwrap(),
                })
                .collect(),
        };
        let scores = retest(flow.golden(), &band, &request).unwrap();
        assert_eq!(scores.len(), cuts.len());
        let mut marginal = 0;
        for ((seed, cut), score) in (0..).zip(&cuts).zip(&scores) {
            let reference = flow.evaluate_with_retest(cut, &band, &policy, seed).unwrap();
            assert_eq!(
                score.score.ndf.to_bits(),
                reference.report.ndf.to_bits(),
                "device {seed}"
            );
            assert_eq!(score.score.peak_hamming, reference.report.peak_hamming, "device {seed}");
            assert_eq!(score.score.outcome, reference.verdict.outcome, "device {seed}");
            assert_eq!(
                (score.marginal, score.flipped, score.repeats_used),
                (
                    reference.verdict.marginal,
                    reference.verdict.flipped,
                    reference.verdict.repeats_used
                ),
                "device {seed}"
            );
            marginal += usize::from(score.marginal);
        }
        assert!(0 < marginal && marginal < cuts.len(), "{marginal} marginal devices");
    }

    #[test]
    fn score_target_debug_is_stable() {
        assert_eq!(format!("{:?}", ScoreTarget::Local), "ScoreTarget::Local");
        struct Null;
        impl RemoteScorer for Null {
            fn screen_remote(&self, _key: u64, signatures: &[Signature]) -> Result<Vec<ScoreResult>> {
                Ok(signatures
                    .iter()
                    .map(|_| ScoreResult {
                        ndf: 0.0,
                        peak_hamming: 0,
                        outcome: TestOutcome::Pass,
                    })
                    .collect())
            }

            fn retest_remote(&self, _request: &RetestRequest) -> Result<Vec<RetestScore>> {
                Err(dsig_core::DsigError::Remote("no adaptive retest".into()))
            }
        }
        let null = Null;
        assert_eq!(format!("{:?}", ScoreTarget::Remote(&null)), "ScoreTarget::Remote(..)");
        assert!(null.screen_remote(1, &[]).unwrap().is_empty());
    }
}
