//! Remote scoring targets: let a campaign ship its observed signatures to a
//! serving or routing tier instead of scoring them against the locally
//! characterized golden.
//!
//! The engine cannot depend on `dsig-serve` or `dsig-router` (they depend on
//! the engine), so the seam is a trait: anything that can score a batch of
//! signatures against a persisted golden fingerprint implements
//! [`RemoteScorer`], and [`crate::CampaignRunner::run_with_target`] accepts a
//! [`ScoreTarget`] selecting the local path or a remote implementation.
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

use dsig_core::{Result, RetestPolicy, Signature, TestOutcome};

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
/// the pre-captured measurement repeats the scoring tier may consume if the
/// single shot turns out marginal.
#[derive(Debug, Clone, PartialEq)]
pub struct RetestItem {
    /// The single-shot observed signature.
    pub initial: Signature,
    /// Measurement repeats of the same device (independent noise
    /// realisations), at most the policy's escalation cap.
    pub repeats: Vec<Signature>,
}

/// An adaptive-retest screening request (`DSRT`): score each device's
/// single shot against the golden under `golden_key`, and re-decide marginal
/// ones from averaged repeats through the carried [`RetestPolicy`] —
/// **server-side**, before any verdict is answered.
#[derive(Debug, Clone, PartialEq)]
pub struct RetestRequest {
    /// Fingerprint of the golden to score against.
    pub golden_key: u64,
    /// The guard band and escalation schedule applied to every device.
    pub policy: RetestPolicy,
    /// The devices, in request order.
    pub items: Vec<RetestItem>,
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
    /// plus its measurement repeats, re-decided remotely through the
    /// request's policy against the golden stored under its `golden_key`.
    /// The request is borrowed, so an implementation that encodes or scores
    /// it needs no copy of its signatures. Returns one score per device, in
    /// request order.
    ///
    /// # Errors
    /// Returns [`dsig_core::DsigError::Remote`] (or a decoded scoring error)
    /// when the backend cannot answer.
    fn retest_remote(&self, request: &RetestRequest) -> Result<Vec<RetestScore>>;
}

/// Where a campaign's observed signatures are scored.
#[derive(Clone, Copy)]
pub enum ScoreTarget<'a> {
    /// Score locally against the cached golden signature — the default path
    /// of [`crate::CampaignRunner::run`].
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
