//! The campaign runner: fans device evaluations across a scoped worker pool,
//! reusing one cached golden signature — and, on the batched fast path, one
//! shared stimulus — for the whole population.

use std::sync::Arc;
use std::time::Instant;

use dsig_core::{
    capture_signatures_batch, retest_seed, AcceptanceBand, BatchDevice, Result, RetestPolicy, SharedStimulus,
    Signature, StimulusBank, TestFlow,
};
use dsig_obs::trace::{self, TraceContext, Tracer};
use dsig_obs::{Counter, Gauge, Histogram, Registry, Span};

use crate::cache::{golden_fingerprint, GoldenCache};
use crate::campaign::{Campaign, DevicePopulation, DeviceSpec};
use crate::codec::SignatureLog;
use crate::pool::{available_threads, parallel_map_indexed, DEFAULT_CHUNK};
use crate::report::{CampaignReport, CapturePath, DeviceResult, DeviceRetest, DwellStats};
use crate::score::{self, RemoteScorer, RetestItem, RetestRequest, RetestScore, ScoreResult, ScoreTarget};

/// Executes campaigns over a worker pool with a shared golden-signature cache
/// and a shared-stimulus bank for the batched capture fast path.
pub struct CampaignRunner {
    threads: usize,
    chunk: usize,
    batching: bool,
    tracing: bool,
    retest: Option<RetestPolicy>,
    cache: GoldenCache,
    bank: StimulusBank,
    tracer: Tracer,
    metrics: EngineMetrics,
}

/// The engine's metric handles, resolved once per runner so workers only
/// touch lock-free atomics. Everything here is observational: no metric
/// feeds back into seeding, scheduling order or scoring, so instrumented
/// reports stay bit-identical to uninstrumented ones.
struct EngineMetrics {
    /// `engine.capture_us` — one sample per captured chunk.
    capture_us: Arc<Histogram>,
    /// `engine.score_us` — one sample per scored chunk (local or remote).
    score_us: Arc<Histogram>,
    /// `engine.retest_us` — one sample per chunk walked under a retest
    /// policy (marginal scan, repeat capture and escalation).
    retest_us: Arc<Histogram>,
    /// `engine.devices_per_s` — population throughput of the last campaign.
    devices_per_s: Arc<Gauge>,
    /// `engine.bank.hits` / `.misses` / `.evictions` / `.exact_syntheses` —
    /// the runner's stimulus bank counters, mirrored as gauges after each
    /// campaign. The last counts the batched devices and retest repeats,
    /// noiseless or noisy, that were captured on the exact path rather than
    /// the certified one ([`StimulusBank::exact_syntheses`]).
    bank_hits: Arc<Gauge>,
    bank_misses: Arc<Gauge>,
    bank_evictions: Arc<Gauge>,
    bank_exact_syntheses: Arc<Gauge>,
    /// `engine.queue_depth` — chunks still queued (this one included) when a
    /// worker claims a chunk.
    queue_depth: Arc<Histogram>,
    /// `engine.fallback.per_device` — campaigns that fell back to the
    /// per-device capture path instead of the batched fast path.
    fallback_per_device: Arc<Counter>,
}

impl EngineMetrics {
    fn new(registry: &Registry) -> EngineMetrics {
        EngineMetrics {
            capture_us: registry.histogram("engine.capture_us"),
            score_us: registry.histogram("engine.score_us"),
            retest_us: registry.histogram("engine.retest_us"),
            devices_per_s: registry.gauge("engine.devices_per_s"),
            bank_hits: registry.gauge("engine.bank.hits"),
            bank_misses: registry.gauge("engine.bank.misses"),
            bank_evictions: registry.gauge("engine.bank.evictions"),
            bank_exact_syntheses: registry.gauge("engine.bank.exact_syntheses"),
            queue_depth: registry.histogram("engine.queue_depth"),
            fallback_per_device: registry.counter("engine.fallback.per_device"),
        }
    }
}

/// What one worker produces per device: the result row, the observed
/// signature (for logging/replay) and its dwell statistics.
struct DeviceOutcome {
    result: DeviceResult,
    dwell: DwellStats,
    observed: Signature,
}

impl CampaignRunner {
    /// A runner using every available hardware thread.
    pub fn new() -> Self {
        Self::with_threads(available_threads())
    }

    /// A runner with an explicit worker count (1 = serial reference path).
    pub fn with_threads(threads: usize) -> Self {
        let registry = Registry::global();
        CampaignRunner {
            threads: threads.max(1),
            chunk: DEFAULT_CHUNK,
            batching: true,
            tracing: true,
            retest: None,
            cache: GoldenCache::new(),
            bank: StimulusBank::new(),
            tracer: registry.tracer().clone(),
            metrics: EngineMetrics::new(&registry),
        }
    }

    /// Returns a copy with the given work-queue chunk size. On the batched
    /// fast path the chunk is also the capture batch size handed to each
    /// worker; results are bit-identical for every chunk size.
    pub fn with_chunk_size(mut self, chunk: usize) -> Self {
        self.chunk = chunk.max(1);
        self
    }

    /// Returns a copy with the shared-stimulus batched capture fast path
    /// enabled or disabled. Batching is on by default and bit-identical to
    /// the per-device path; disabling it gives the per-device reference that
    /// tests and perfbench's lot audits compare the fast path against.
    pub fn with_batching(mut self, batching: bool) -> Self {
        self.batching = batching;
        self
    }

    /// Returns a copy with distributed tracing enabled or disabled. When on
    /// (the default), every chunk opens a sampled root `engine.chunk` span
    /// whose context propagates through remote [`ScoreTarget`]s to the
    /// routing and serving tiers. Tracing is purely observational — traced
    /// reports are bit-identical to untraced ones — so disabling it only
    /// serves as the untraced baseline for overhead measurement.
    pub fn with_tracing(mut self, tracing: bool) -> Self {
        self.tracing = tracing;
        self
    }

    /// Returns a copy with an adaptive retest policy: devices whose
    /// single-shot NDF falls inside the policy's guard band around the
    /// campaign band are re-measured with averaged repeats and re-decided by
    /// the policy's escalation walk. On the batched path, a chunk's repeats
    /// are entries of one [`capture_signatures_batch`] call, one per repeat
    /// seed (derived by [`dsig_core::retest_seed`]); the per-device path
    /// captures them with [`dsig_core::TestSetup::signatures_of_repeats`], and both give
    /// the same signatures, bit for bit. A chunk's marginal devices go to the
    /// [`ScoreTarget`] in one [`RetestRequest`]: a remote target ships it to
    /// the **serving tier**, which verdicts; the local target re-decides it
    /// in-process with [`score::retest`], the function a serving tier runs,
    /// so the reports are bit-identical.
    pub fn with_retest(mut self, policy: RetestPolicy) -> Self {
        self.retest = Some(policy);
        self
    }

    /// The worker count this runner fans out to.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The golden-signature cache (shared across every campaign this runner
    /// executes).
    pub fn cache(&self) -> &GoldenCache {
        &self.cache
    }

    /// The shared-stimulus bank of the batched fast path (shared across
    /// every campaign this runner executes).
    pub fn stimulus_bank(&self) -> &StimulusBank {
        &self.bank
    }

    /// Runs a campaign and aggregates a [`CampaignReport`].
    ///
    /// The golden signature is characterized (or fetched from the cache)
    /// once; device evaluations are distributed over the worker pool. Because
    /// every per-device seed derives only from the campaign seed and the
    /// device index, the report is bit-identical for every thread count.
    ///
    /// # Errors
    /// Propagates setup, capture and comparison errors; the first failing
    /// device (in index order) wins.
    pub fn run(&self, campaign: &Campaign) -> Result<CampaignReport> {
        Ok(self.run_internal(campaign, false, ScoreTarget::Local)?.0)
    }

    /// Runs a campaign scoring through the given [`ScoreTarget`]: captures
    /// stay on the runner's worker pool, while verdicts come from the target
    /// — [`ScoreTarget::Local`] scores against the cached golden exactly like
    /// [`CampaignRunner::run`]; [`ScoreTarget::Remote`] ships each captured
    /// chunk to a serving or routing tier addressed by the campaign's
    /// [`golden_fingerprint`]. This is how a campaign shards its scoring
    /// across processes or hosts.
    ///
    /// Remote reports are bit-identical to local ones when the remote golden
    /// was characterized from the same `(setup, reference)` with the same
    /// acceptance band, because scoring is a pure function of
    /// `(golden, observed, band)`.
    ///
    /// # Errors
    /// As for [`CampaignRunner::run`], plus remote scoring errors
    /// ([`dsig_core::DsigError::Remote`]).
    pub fn run_with_target(&self, campaign: &Campaign, target: ScoreTarget<'_>) -> Result<CampaignReport> {
        Ok(self.run_internal(campaign, false, target)?.0)
    }

    /// Like [`CampaignRunner::run`], additionally returning the log of every
    /// observed signature for storage and offline replay.
    ///
    /// # Errors
    /// Propagates setup, capture and comparison errors.
    pub fn run_logged(&self, campaign: &Campaign) -> Result<(CampaignReport, SignatureLog)> {
        self.run_internal(campaign, true, ScoreTarget::Local)
    }

    fn run_internal(
        &self,
        campaign: &Campaign,
        keep_signatures: bool,
        target: ScoreTarget<'_>,
    ) -> Result<(CampaignReport, SignatureLog)> {
        // The local target scores against the cached golden; a remote
        // target never characterizes locally — its store holds the golden,
        // addressed by the campaign's fingerprint.
        let local;
        let (scorer, key): (&dyn RemoteScorer, u64) = match target {
            ScoreTarget::Local => {
                local = LocalScorer {
                    flow: self.cache.flow_for(&campaign.setup, &campaign.reference)?,
                    band: campaign.band,
                };
                (&local, 0)
            }
            ScoreTarget::Remote(remote) => (remote, golden_fingerprint(&campaign.setup, &campaign.reference)),
        };
        let devices = campaign.device_count();

        // The batched fast path shares one stimulus (and its precomputed
        // monitor terms) across the whole population; the per-device path
        // is the reference it is tested against. Both are bit-identical.
        let use_batch = self.batching;
        let retest = self.retest.as_ref();
        let metrics = &self.metrics;
        let tracer = &self.tracer;
        let tracing = self.tracing;
        let started = Instant::now();
        let shared = if use_batch {
            Some(self.bank.shared_for(&campaign.setup)?)
        } else {
            self.metrics.fallback_per_device.inc();
            None
        };
        let shared = shared.as_deref();
        // Both capture paths work in chunks, so remote scoring ships one
        // request per chunk instead of one per device.
        let chunks = devices.div_ceil(self.chunk);
        let per_chunk = parallel_map_indexed(chunks, self.threads, 1, |chunk_index| {
            // Chunks are claimed in index order, so the pending depth at
            // claim time is everything at or past this index.
            metrics.queue_depth.record_us((chunks - chunk_index) as u64);
            let start = chunk_index * self.chunk;
            let end = (start + self.chunk).min(devices);
            // Each chunk is its own trace: one sampled root span whose
            // context flows through the capture/score/retest children
            // and, via the ambient context, across the wire.
            let root = if tracing {
                tracer.start_trace()
            } else {
                TraceContext::NONE
            };
            let mut chunk_span = tracer.span("engine.chunk", "engine", root);
            chunk_span.annotate("chunk", chunk_index);
            chunk_span.annotate("devices", end - start);
            let ctx = chunk_span.context();
            evaluate_chunk(campaign, scorer, key, retest, metrics, tracer, ctx, shared, start, end)
        });
        let mut outcomes: Vec<Result<DeviceOutcome>> = Vec::with_capacity(devices);
        for chunk in per_chunk {
            match chunk {
                Ok(scored) => outcomes.extend(scored.into_iter().map(Ok)),
                Err(e) => outcomes.push(Err(e)),
            }
        }
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed > 0.0 {
            self.metrics.devices_per_s.set(devices as f64 / elapsed);
        }
        self.metrics.bank_hits.set(self.bank.hits() as f64);
        self.metrics.bank_misses.set(self.bank.misses() as f64);
        self.metrics.bank_evictions.set(self.bank.evictions() as f64);
        self.metrics
            .bank_exact_syntheses
            .set(self.bank.exact_syntheses() as f64);

        let track_coverage = matches!(campaign.population, DevicePopulation::FaultGrid(_));
        let mut report = CampaignReport::new();
        // Record the capture path so a silent fall-back to the several times
        // slower per-device path is diagnosable from the report alone.
        report.capture = if use_batch {
            CapturePath::Batched
        } else {
            CapturePath::PerDevice {
                reason: "batching disabled on this runner".into(),
            }
        };
        let mut log = SignatureLog::new();
        for outcome in outcomes {
            let outcome = outcome?;
            if keep_signatures {
                log.push(outcome.result.index as u32, outcome.observed);
            }
            report.record(outcome.result, &outcome.dwell, campaign.tolerance_pct, track_coverage);
        }
        Ok((report, log))
    }
}

impl Default for CampaignRunner {
    fn default() -> Self {
        Self::new()
    }
}

/// The local score target: the runner's cached golden under the campaign's
/// band, scored in-process by [`score::screen`] and [`score::retest`]. It
/// holds one golden, so it ignores the key.
struct LocalScorer {
    flow: Arc<TestFlow>,
    band: AcceptanceBand,
}

impl RemoteScorer for LocalScorer {
    fn screen_remote(&self, _golden_key: u64, signatures: &[Signature]) -> Result<Vec<ScoreResult>> {
        score::screen(self.flow.golden(), &self.band, signatures)
    }

    fn retest_remote(&self, request: &RetestRequest) -> Result<Vec<RetestScore>> {
        score::retest(self.flow.golden(), &self.band, request)
    }
}

/// Evaluates one chunk of the population: capture its signatures — against
/// the shared stimulus on the batched fast path (`shared` present), or one
/// device at a time — then score the chunk in one request to `scorer` under
/// the golden `key` and retest its marginal devices. Scratch buffers live per
/// chunk, not per device.
fn evaluate_chunk(
    campaign: &Campaign,
    scorer: &dyn RemoteScorer,
    key: u64,
    retest: Option<&RetestPolicy>,
    metrics: &EngineMetrics,
    tracer: &Tracer,
    ctx: TraceContext,
    shared: Option<&SharedStimulus>,
    start: usize,
    end: usize,
) -> Result<Vec<DeviceOutcome>> {
    let specs: Vec<DeviceSpec> = (start..end).map(|i| campaign.device(i)).collect::<Result<_>>()?;
    let observed: Vec<Signature> = {
        let _capture_span = tracer.span("engine.capture", "engine", ctx);
        let _capture = Span::enter(&metrics.capture_us);
        match shared {
            Some(shared) => {
                let batch: Vec<BatchDevice> = specs.iter().map(|s| BatchDevice::new(s.cut, s.noise_seed)).collect();
                capture_signatures_batch(&campaign.setup, shared, &batch)?
            }
            None => specs
                .iter()
                .map(|spec| campaign.setup.signature_of(&spec.cut, spec.noise_seed))
                .collect::<Result<_>>()?,
        }
    };
    let mut outcomes = {
        let score_span = tracer.span("engine.score", "engine", ctx);
        // The score span is the ambient context, so a remote score target
        // injects it into outgoing frames and the tiers parent under it.
        let _ambient = trace::with_context(score_span.context());
        let _score = Span::enter(&metrics.score_us);
        score_batch(scorer, key, specs, observed)?
    };
    apply_retest(
        campaign,
        scorer,
        key,
        retest,
        metrics,
        tracer,
        ctx,
        shared,
        &mut outcomes,
    )?;
    Ok(outcomes)
}

/// Re-decides the marginal devices of one scored chunk under the campaign's
/// retest policy: capture the repeat measurements (seeded by
/// [`retest_seed`], so every score target sees the same bytes), then send
/// the chunk's marginal devices to `scorer` in one `DSRT` batch.
fn apply_retest(
    campaign: &Campaign,
    scorer: &dyn RemoteScorer,
    key: u64,
    retest: Option<&RetestPolicy>,
    metrics: &EngineMetrics,
    tracer: &Tracer,
    ctx: TraceContext,
    shared: Option<&SharedStimulus>,
    outcomes: &mut [DeviceOutcome],
) -> Result<()> {
    let Some(policy) = retest else {
        return Ok(());
    };
    let mut retest_span = tracer.span("engine.retest", "engine", ctx);
    // The retest span is the ambient context, so remote `DSRT` batches carry
    // it and the tiers parent their spans under it.
    let _ambient = trace::with_context(retest_span.context());
    let _retest = Span::enter(&metrics.retest_us);
    let marginal: Vec<usize> = outcomes
        .iter()
        .enumerate()
        .filter(|(_, o)| policy.is_marginal(&campaign.band, o.result.ndf))
        .map(|(at, _)| at)
        .collect();
    retest_span.annotate("marginal", marginal.len());
    if marginal.is_empty() {
        return Ok(());
    }
    // Capture the repeat budget of every marginal device up to the
    // escalation cap. On the batched path every repeat of the chunk is one
    // entry of a single `capture_signatures_batch` call, seeded as
    // `signatures_of_repeats` seeds it. The per-device path keeps
    // `signatures_of_repeats`, which synthesizes the stimulus and response
    // once per device.
    let cap = policy.repeat_cap() as usize;
    let specs: Vec<DeviceSpec> = marginal
        .iter()
        .map(|&at| campaign.device(outcomes[at].result.index))
        .collect::<Result<_>>()?;
    let repeats: Vec<Vec<Signature>> = match shared {
        Some(shared) => {
            let batch: Vec<BatchDevice> = specs
                .iter()
                .flat_map(|spec| {
                    let seed = retest_seed(spec.noise_seed);
                    (0..cap as u64).map(move |i| BatchDevice::new(spec.cut, seed.wrapping_add(i)))
                })
                .collect();
            let mut captured = capture_signatures_batch(&campaign.setup, shared, &batch)?.into_iter();
            (0..specs.len())
                .map(|_| captured.by_ref().take(cap).collect())
                .collect()
        }
        None => specs
            .iter()
            .map(|spec| {
                campaign
                    .setup
                    .signatures_of_repeats(&spec.cut, cap, retest_seed(spec.noise_seed))
            })
            .collect::<Result<_>>()?,
    };
    // The repeats move into the request; only the initial signature is
    // copied, because the outcome keeps it for the signature log.
    let request = RetestRequest {
        golden_key: key,
        policy: policy.clone(),
        items: marginal
            .iter()
            .zip(repeats)
            .map(|(&at, repeats)| RetestItem {
                initial: outcomes[at].observed.clone(),
                repeats,
            })
            .collect(),
    };
    let scores = scorer.retest_remote(&request)?;
    if scores.len() != request.items.len() {
        return Err(dsig_core::DsigError::Remote(format!(
            "remote target returned {} retest scores for {} devices",
            scores.len(),
            request.items.len()
        )));
    }
    for ((&at, item), remote_score) in marginal.iter().zip(&request.items).zip(scores) {
        let outcome = &mut outcomes[at];
        let verdict = dsig_core::RetestVerdict {
            ndf: remote_score.score.ndf,
            outcome: remote_score.score.outcome,
            marginal: remote_score.marginal,
            flipped: remote_score.flipped,
            repeats_used: remote_score.repeats_used,
        };
        let used = remote_score.repeats_used as usize;
        if used > item.repeats.len() {
            return Err(dsig_core::DsigError::Remote(format!(
                "remote target used {used} retest repeats of device {} but was sent {}",
                outcome.result.index,
                item.repeats.len()
            )));
        }
        note_cap_hit(policy, &verdict, outcome.result.index);
        // The target already folded the peak Hamming distance over the
        // initial capture and the consumed repeats.
        finish_retest(outcome, verdict, remote_score.score.peak_hamming, &item.repeats[..used]);
    }
    Ok(())
}

/// Logs an event for a device whose escalation walk consumed the policy's
/// whole schedule, whether or not its last average cleared the guard band —
/// the population the repeat cap is sized against. (`verdict.marginal` is
/// the single-shot flag every escalated device carries.) Observational only:
/// the verdict itself is untouched.
fn note_cap_hit(policy: &RetestPolicy, verdict: &dsig_core::RetestVerdict, device: impl std::fmt::Display) {
    if verdict.marginal && verdict.repeats_used >= policy.repeat_cap() {
        dsig_obs::Registry::global().events().emit(
            dsig_obs::EventLevel::Warn,
            "engine",
            "retest.cap_hit",
            "marginal device consumed the full escalation schedule",
            &[
                ("device", &device.to_string()),
                ("repeats_used", &verdict.repeats_used.to_string()),
            ],
        );
    }
}

/// Rewrites one device outcome with its retest verdict. The observed zone
/// count is folded client-side (the wire score does not carry it); the
/// logged signature and the dwell statistics stay those of the single-shot
/// capture.
fn finish_retest(
    outcome: &mut DeviceOutcome,
    verdict: dsig_core::RetestVerdict,
    peak_hamming: u32,
    consumed_repeats: &[Signature],
) {
    if !verdict.marginal {
        // A remote band that disagrees with the campaign band can judge the
        // device non-marginal; its single-shot score then stands untouched.
        return;
    }
    outcome.result.retest = Some(DeviceRetest {
        initial_ndf: outcome.result.ndf,
        repeats_used: verdict.repeats_used,
        flipped: verdict.flipped,
    });
    outcome.result.ndf = verdict.ndf;
    outcome.result.outcome = verdict.outcome;
    outcome.result.peak_hamming = peak_hamming;
    outcome.result.observed_zones = consumed_repeats
        .iter()
        .fold(outcome.result.observed_zones, |zones, s| zones.max(s.len()));
}

/// Scores one captured chunk in one screening request to `scorer`. Dwell
/// statistics always come from the local capture.
fn score_batch(
    scorer: &dyn RemoteScorer,
    key: u64,
    specs: Vec<DeviceSpec>,
    observed: Vec<Signature>,
) -> Result<Vec<DeviceOutcome>> {
    let scores = scorer.screen_remote(key, &observed)?;
    if scores.len() != observed.len() {
        return Err(dsig_core::DsigError::Remote(format!(
            "remote target returned {} scores for {} signatures",
            scores.len(),
            observed.len()
        )));
    }
    Ok(specs
        .into_iter()
        .zip(observed)
        .zip(scores)
        .map(|((spec, observed), score)| device_outcome(spec, observed, score))
        .collect())
}

/// Assembles one device's outcome row from its score.
fn device_outcome(spec: DeviceSpec, observed: Signature, score: ScoreResult) -> DeviceOutcome {
    let mut dwell = DwellStats::new();
    for entry in observed.entries() {
        dwell.record(f64::from(entry.count) * observed.unit());
    }
    let result = DeviceResult {
        index: spec.index,
        label: spec.label,
        true_deviation_pct: spec.true_deviation_pct,
        ndf: score.ndf,
        peak_hamming: score.peak_hamming,
        observed_zones: observed.len(),
        outcome: score.outcome,
        retest: None,
    };
    DeviceOutcome {
        result,
        dwell,
        observed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::DevicePopulation;
    use cut_filters::{BiquadParams, ComponentRef, Fault};
    use dsig_core::{ndf, peak_hamming_distance, AcceptanceBand, TestSetup};
    use xy_monitor::ZonePartition;

    fn campaign(population: DevicePopulation) -> Campaign {
        let setup = TestSetup::paper_default().unwrap().with_sample_rate(1e6).unwrap();
        Campaign::new(
            setup,
            BiquadParams::paper_default(),
            population,
            AcceptanceBand::new(0.03).unwrap(),
            3.0,
        )
        .unwrap()
        .with_seed(11)
    }

    #[test]
    fn fault_grid_campaign_reports_coverage() {
        let c = campaign(DevicePopulation::FaultGrid(vec![
            Fault::F0ShiftPct(0.0),
            Fault::F0ShiftPct(10.0),
            Fault::Open(ComponentRef::R1),
            Fault::Short(ComponentRef::C1),
        ]));
        let report = CampaignRunner::with_threads(2).run(&c).unwrap();
        assert_eq!(report.devices(), 4);
        assert_eq!(report.coverage.len(), 4);
        // The nominal device is in tolerance and passes; the gross faults fail.
        assert!(!report.coverage[0].detected);
        assert!(report.coverage[1].detected);
        assert!(report.coverage[2].detected);
        assert!((report.fault_coverage().unwrap() - 0.75).abs() < 1e-12);
        assert_eq!(report.screening.escapes, 0);
    }

    #[test]
    fn monte_carlo_campaign_is_thread_count_invariant() {
        let c = campaign(DevicePopulation::MonteCarlo {
            devices: 24,
            sigma_pct: 4.0,
        });
        let serial = CampaignRunner::with_threads(1).run(&c).unwrap();
        let parallel = CampaignRunner::with_threads(4).with_chunk_size(5).run(&c).unwrap();
        assert_eq!(serial, parallel, "parallel campaign must be bit-identical to serial");
        assert_eq!(serial.devices(), 24);
    }

    #[test]
    fn golden_cache_is_reused_across_campaigns() {
        let runner = CampaignRunner::with_threads(2);
        let a = campaign(DevicePopulation::F0Sweep(vec![-5.0, 0.0, 5.0]));
        let b = campaign(DevicePopulation::MonteCarlo {
            devices: 4,
            sigma_pct: 1.0,
        });
        runner.run(&a).unwrap();
        runner.run(&b).unwrap();
        assert_eq!(runner.cache().len(), 1, "same setup/reference must share one golden");
    }

    #[test]
    fn logged_run_replays_to_the_same_ndfs() {
        let c = campaign(DevicePopulation::F0Sweep(vec![0.0, 5.0, 10.0, 15.0]));
        let runner = CampaignRunner::with_threads(2);
        let (report, log) = runner.run_logged(&c).unwrap();
        assert_eq!(log.len(), 4);
        let decoded = SignatureLog::from_bytes(&log.to_bytes()).unwrap();
        let golden = runner.cache().flow_for(&c.setup, &c.reference).unwrap();
        let replayed = decoded.replay(golden.golden()).unwrap();
        for ((index, replayed_ndf), result) in replayed.iter().zip(&report.results) {
            assert_eq!(*index as usize, result.index);
            assert_eq!(
                *replayed_ndf, result.ndf,
                "replayed NDF must match the live run bit-for-bit"
            );
        }
    }

    #[test]
    fn batched_path_is_bit_identical_to_per_device_path() {
        let c = campaign(DevicePopulation::MonteCarlo {
            devices: 30,
            sigma_pct: 4.0,
        });
        let per_device = CampaignRunner::with_threads(2).with_batching(false).run(&c).unwrap();
        for chunk in [1, 7, 64] {
            let batched = CampaignRunner::with_threads(2).with_chunk_size(chunk).run(&c).unwrap();
            assert_eq!(batched, per_device, "batched chunk {chunk} diverged");
        }
    }

    #[test]
    fn batched_path_matches_per_device_under_noise() {
        let mut c = campaign(DevicePopulation::MonteCarlo {
            devices: 12,
            sigma_pct: 3.0,
        });
        c.setup = c.setup.clone().with_noise(sim_signal::NoiseModel::paper_default());
        let per_device = CampaignRunner::with_threads(1).with_batching(false).run(&c).unwrap();
        let batched = CampaignRunner::with_threads(4).with_chunk_size(5).run(&c).unwrap();
        assert_eq!(batched, per_device, "noisy batched campaign diverged");
    }

    #[test]
    fn stimulus_bank_is_shared_across_campaigns() {
        let runner = CampaignRunner::with_threads(2);
        let a = campaign(DevicePopulation::F0Sweep(vec![-5.0, 0.0, 5.0]));
        let b = campaign(DevicePopulation::MonteCarlo {
            devices: 4,
            sigma_pct: 1.0,
        });
        runner.run(&a).unwrap();
        runner.run(&b).unwrap();
        assert_eq!(runner.stimulus_bank().len(), 1, "same setup must share one stimulus");
        assert_eq!(runner.stimulus_bank().misses(), 1);
        assert_eq!(runner.stimulus_bank().hits(), 1);
    }

    #[test]
    fn remote_score_target_is_bit_identical_to_local_scoring() {
        use crate::score::{RemoteScorer, ScoreResult, ScoreTarget};

        // A stand-in serving tier: scores against its own characterization of
        // the same (setup, reference, band) — exactly what a golden store
        // holds after `characterize`.
        struct FlowScorer {
            flow: TestFlow,
            band: AcceptanceBand,
        }
        impl RemoteScorer for FlowScorer {
            fn screen_remote(&self, _key: u64, signatures: &[Signature]) -> Result<Vec<ScoreResult>> {
                signatures
                    .iter()
                    .map(|observed| {
                        let ndf_value = ndf(self.flow.golden(), observed)?;
                        Ok(ScoreResult {
                            ndf: ndf_value,
                            peak_hamming: peak_hamming_distance(self.flow.golden(), observed)?,
                            outcome: self.band.decide(ndf_value),
                        })
                    })
                    .collect()
            }

            fn retest_remote(&self, _request: &RetestRequest) -> Result<Vec<crate::RetestScore>> {
                Err(dsig_core::DsigError::Remote("no adaptive retest".into()))
            }
        }

        let c = campaign(DevicePopulation::MonteCarlo {
            devices: 24,
            sigma_pct: 4.0,
        });
        let scorer = FlowScorer {
            flow: TestFlow::new(c.setup.clone(), c.reference).unwrap(),
            band: c.band,
        };
        let local = CampaignRunner::with_threads(2).run(&c).unwrap();
        for threads in [1usize, 4] {
            let remote = CampaignRunner::with_threads(threads)
                .run_with_target(&c, ScoreTarget::Remote(&scorer))
                .unwrap();
            assert_eq!(remote, local, "remote-scored report diverged at {threads} threads");
        }
        // Failures of the remote scorer surface as remote errors.
        struct Failing;
        impl RemoteScorer for Failing {
            fn screen_remote(&self, _key: u64, _signatures: &[Signature]) -> Result<Vec<ScoreResult>> {
                Err(dsig_core::DsigError::Remote("backend gone".into()))
            }

            fn retest_remote(&self, _request: &RetestRequest) -> Result<Vec<crate::RetestScore>> {
                Err(dsig_core::DsigError::Remote("backend gone".into()))
            }
        }
        let err = CampaignRunner::with_threads(1)
            .run_with_target(&c, ScoreTarget::Remote(&Failing))
            .unwrap_err();
        assert!(matches!(err, dsig_core::DsigError::Remote(_)));
    }

    #[test]
    fn capture_path_is_recorded_with_the_fallback_reason() {
        use crate::report::CapturePath;
        let c = campaign(DevicePopulation::MonteCarlo {
            devices: 4,
            sigma_pct: 1.0,
        });
        let batched = CampaignRunner::with_threads(1).run(&c).unwrap();
        assert_eq!(batched.capture, CapturePath::Batched);
        let disabled = CampaignRunner::with_threads(1).with_batching(false).run(&c).unwrap();
        assert!(
            matches!(&disabled.capture, CapturePath::PerDevice { reason } if reason.contains("disabled")),
            "{:?}",
            disabled.capture
        );
        assert!(disabled.summary().contains("capture path: per-device"));
    }

    #[test]
    fn retest_policy_flips_marginal_devices_and_stays_thread_invariant() {
        use dsig_core::RetestPolicy;

        // A noisy campaign whose band sits in the populated part of the NDF
        // range, with a guard band wide enough to catch devices near it.
        let mut c = campaign(DevicePopulation::MonteCarlo {
            devices: 40,
            sigma_pct: 4.0,
        });
        c.setup = c.setup.clone().with_noise(sim_signal::NoiseModel::paper_default());
        let policy = RetestPolicy::new(0.015, vec![4, 8]).unwrap();

        let baseline = CampaignRunner::with_threads(2).run(&c).unwrap();
        assert_eq!(baseline.retest.marginal, 0, "no policy, no retest metadata");

        let retested = CampaignRunner::with_threads(2)
            .with_retest(policy.clone())
            .run(&c)
            .unwrap();
        assert!(
            retested.retest.marginal > 0,
            "the guard band must catch some of the noisy lot"
        );
        assert_eq!(
            retested.retest.marginal,
            retested.results.iter().filter(|r| r.retest.is_some()).count()
        );
        // Retested devices carry their single-shot NDF and the averaged one.
        for result in retested.results.iter().filter(|r| r.retest.is_some()) {
            let meta = result.retest.unwrap();
            assert!(policy.is_marginal(&c.band, meta.initial_ndf));
            assert_eq!(
                meta.flipped,
                c.band.decide(meta.initial_ndf) != result.outcome,
                "flip flag must match the outcome transition"
            );
        }
        // Bit-identical across thread counts, chunk sizes and capture paths.
        for (threads, chunk) in [(1usize, 7usize), (4, 5), (8, 64)] {
            let again = CampaignRunner::with_threads(threads)
                .with_chunk_size(chunk)
                .with_retest(policy.clone())
                .run(&c)
                .unwrap();
            assert_eq!(again, retested, "threads {threads} chunk {chunk} diverged");
        }
        let per_device = CampaignRunner::with_threads(2)
            .with_batching(false)
            .with_retest(policy.clone())
            .run(&c)
            .unwrap();
        assert_eq!(per_device, retested, "per-device retest diverged");
    }

    #[test]
    fn remote_retest_scoring_is_bit_identical_to_local_retest() {
        use crate::score::{RemoteScorer, RetestRequest, RetestScore, ScoreResult, ScoreTarget};
        use dsig_core::RetestPolicy;

        // A stand-in remote tier that escalates with the same pure walk the
        // serving tier uses, against its own characterization.
        struct RetestingScorer {
            flow: TestFlow,
            band: AcceptanceBand,
        }
        impl RemoteScorer for RetestingScorer {
            fn screen_remote(&self, _key: u64, signatures: &[Signature]) -> Result<Vec<ScoreResult>> {
                signatures
                    .iter()
                    .map(|observed| {
                        let ndf_value = ndf(self.flow.golden(), observed)?;
                        Ok(ScoreResult {
                            ndf: ndf_value,
                            peak_hamming: peak_hamming_distance(self.flow.golden(), observed)?,
                            outcome: self.band.decide(ndf_value),
                        })
                    })
                    .collect()
            }
            fn retest_remote(&self, request: &RetestRequest) -> Result<Vec<RetestScore>> {
                request
                    .items
                    .iter()
                    .map(|device| {
                        let golden = self.flow.golden();
                        let initial_ndf = ndf(golden, &device.initial)?;
                        let initial_peak = peak_hamming_distance(golden, &device.initial)?;
                        let mut repeat_ndfs = Vec::new();
                        let mut repeat_peaks = Vec::new();
                        for repeat in &device.repeats {
                            repeat_ndfs.push(ndf(golden, repeat)?);
                            repeat_peaks.push(peak_hamming_distance(golden, repeat)?);
                        }
                        let verdict = request.policy.escalate(&self.band, initial_ndf, &repeat_ndfs);
                        Ok(RetestScore {
                            score: ScoreResult {
                                ndf: verdict.ndf,
                                peak_hamming: repeat_peaks[..verdict.repeats_used as usize]
                                    .iter()
                                    .fold(initial_peak, |peak, &p| peak.max(p)),
                                outcome: verdict.outcome,
                            },
                            marginal: verdict.marginal,
                            flipped: verdict.flipped,
                            repeats_used: verdict.repeats_used,
                        })
                    })
                    .collect()
            }
        }

        let mut c = campaign(DevicePopulation::MonteCarlo {
            devices: 30,
            sigma_pct: 4.0,
        });
        c.setup = c.setup.clone().with_noise(sim_signal::NoiseModel::paper_default());
        let policy = RetestPolicy::new(0.015, vec![4]).unwrap();
        let scorer = RetestingScorer {
            flow: TestFlow::new(c.setup.clone(), c.reference).unwrap(),
            band: c.band,
        };
        let local = CampaignRunner::with_threads(2)
            .with_retest(policy.clone())
            .run(&c)
            .unwrap();
        assert!(local.retest.marginal > 0);
        let remote = CampaignRunner::with_threads(3)
            .with_retest(policy.clone())
            .run_with_target(&c, ScoreTarget::Remote(&scorer))
            .unwrap();
        assert_eq!(remote, local, "remote retest must reproduce the local report");

        // A target without retest support surfaces a remote error.
        struct NoRetest;
        impl RemoteScorer for NoRetest {
            fn screen_remote(&self, _key: u64, signatures: &[Signature]) -> Result<Vec<ScoreResult>> {
                Ok(signatures
                    .iter()
                    .map(|_| ScoreResult {
                        ndf: 0.03,
                        peak_hamming: 0,
                        outcome: dsig_core::TestOutcome::Pass,
                    })
                    .collect())
            }

            fn retest_remote(&self, _request: &RetestRequest) -> Result<Vec<RetestScore>> {
                Err(dsig_core::DsigError::Remote(
                    "this scoring target does not support adaptive retest".into(),
                ))
            }
        }
        let err = CampaignRunner::with_threads(1)
            .with_retest(policy)
            .run_with_target(&c, ScoreTarget::Remote(&NoRetest))
            .unwrap_err();
        assert!(matches!(err, dsig_core::DsigError::Remote(_)));
    }

    #[test]
    fn remote_retest_claiming_more_repeats_than_sent_is_an_error() {
        use crate::score::{RemoteScorer, RetestRequest, RetestScore, ScoreResult, ScoreTarget};
        use dsig_core::{RetestPolicy, TestOutcome};

        // A faulty tier: every device sits on the band threshold, and the
        // retest answer claims one repeat more than the device was sent.
        struct Overreaching;
        const ON_THRESHOLD: ScoreResult = ScoreResult {
            ndf: 0.03,
            peak_hamming: 0,
            outcome: TestOutcome::Pass,
        };
        impl RemoteScorer for Overreaching {
            fn screen_remote(&self, _key: u64, signatures: &[Signature]) -> Result<Vec<ScoreResult>> {
                Ok(vec![ON_THRESHOLD; signatures.len()])
            }
            fn retest_remote(&self, request: &RetestRequest) -> Result<Vec<RetestScore>> {
                Ok(request
                    .items
                    .iter()
                    .map(|device| RetestScore {
                        score: ON_THRESHOLD,
                        marginal: true,
                        flipped: false,
                        repeats_used: device.repeats.len() as u32 + 1,
                    })
                    .collect())
            }
        }

        let mut c = campaign(DevicePopulation::MonteCarlo {
            devices: 4,
            sigma_pct: 1.0,
        });
        c.setup = c.setup.clone().with_noise(sim_signal::NoiseModel::paper_default());
        let policy = RetestPolicy::new(0.015, vec![2, 4]).unwrap();
        assert!(policy.is_marginal(&c.band, ON_THRESHOLD.ndf));
        let err = CampaignRunner::with_threads(1)
            .with_retest(policy)
            .run_with_target(&c, ScoreTarget::Remote(&Overreaching))
            .unwrap_err();
        assert!(
            matches!(&err, dsig_core::DsigError::Remote(message) if message.contains("used 5 retest repeats of device")),
            "{err}"
        );
    }

    #[test]
    fn runs_record_engine_metrics_without_changing_reports() {
        let registry = Registry::global();
        let c = campaign(DevicePopulation::MonteCarlo {
            devices: 8,
            sigma_pct: 2.0,
        });
        // The registry is process-global (other tests run campaigns too), so
        // everything is asserted as before/after deltas.
        let count = |s: &dsig_obs::MetricsSnapshot, name: &str| s.histogram(name).map_or(0, |h| h.count);
        let before = registry.snapshot();
        let plain = CampaignRunner::with_threads(2).run(&c).unwrap();
        let after = registry.snapshot();
        assert!(count(&after, "engine.capture_us") > count(&before, "engine.capture_us"));
        assert!(count(&after, "engine.score_us") > count(&before, "engine.score_us"));
        assert!(count(&after, "engine.queue_depth") > count(&before, "engine.queue_depth"));
        assert!(after.gauge("engine.devices_per_s").is_some());
        assert!(after.gauge("engine.bank.misses").is_some());
        assert!(after.gauge("engine.bank.exact_syntheses").is_some());

        let fallbacks = after.counter("engine.fallback.per_device").unwrap_or(0);
        CampaignRunner::with_threads(1).with_batching(false).run(&c).unwrap();
        let fell_back = registry.snapshot();
        assert!(
            fell_back.counter("engine.fallback.per_device").unwrap() > fallbacks,
            "a per-device run must count a fallback"
        );
        // Instrumentation is observational: the report stays bit-identical.
        assert_eq!(CampaignRunner::with_threads(2).run(&c).unwrap(), plain);
    }

    #[test]
    fn the_bank_counts_devices_captured_on_the_exact_synthesis() {
        // A Table I lot is decided by the certified synthesis. Adding a
        // monitor with a Y input on both branches (which has no threshold
        // table) sends every device of the same lot to the exact one.
        let c = campaign(DevicePopulation::MonteCarlo {
            devices: 10,
            sigma_pct: 3.0,
        });
        let runner = CampaignRunner::with_threads(2).with_chunk_size(4);
        runner.run(&c).unwrap();
        assert_eq!(runner.stimulus_bank().exact_syntheses(), 0);

        let nmos = xy_monitor::MosParams::nmos_65nm(1.8e-6, 180e-9);
        let both_y = xy_monitor::CurrentComparator::new(
            "both-y",
            [nmos.with_width(3e-6), nmos, nmos.with_width(1e-6), nmos],
            [
                xy_monitor::MonitorInput::YAxis,
                xy_monitor::MonitorInput::XAxis,
                xy_monitor::MonitorInput::YAxis,
                xy_monitor::MonitorInput::Dc(0.5),
            ],
            1.2,
        )
        .unwrap();
        let mut monitors = c.setup.partition.monitors().to_vec();
        monitors.push(both_y);
        let mut untabulated = c.clone();
        untabulated.setup.partition = ZonePartition::new(monitors).unwrap();
        let runner = CampaignRunner::with_threads(2).with_chunk_size(4);
        let report = runner.run(&untabulated).unwrap();
        assert_eq!(runner.stimulus_bank().exact_syntheses(), 10);
        // Both paths are the same capture: batching on or off agrees.
        assert_eq!(
            report,
            CampaignRunner::with_threads(1)
                .with_batching(false)
                .run(&untabulated)
                .unwrap()
        );
    }

    #[test]
    fn sweep_campaign_ndf_grows_with_deviation() {
        let c = campaign(DevicePopulation::F0Sweep(vec![0.0, 5.0, 10.0, 20.0]));
        let report = CampaignRunner::new().run(&c).unwrap();
        let ndfs: Vec<f64> = report.results.iter().map(|r| r.ndf).collect();
        assert!(ndfs.windows(2).all(|w| w[1] >= w[0] - 1e-9), "NDFs {ndfs:?}");
        assert!(ndfs[3] > 0.05);
    }
}
