//! The campaign runner: fans device evaluations across a scoped worker pool,
//! reusing one cached golden signature — and, on the batched fast path, one
//! shared stimulus — for the whole population.

use std::sync::Arc;
use std::time::Instant;

use dsig_core::{
    capture_signatures_batch, retest_seed, AcceptanceBand, BatchDevice, DsigError, Result, RetestPolicy,
    SharedStimulus, Signature, StimulusBank, TestFlow,
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
    /// the policy's escalation walk, one schedule step at a time. At each
    /// step, a chunk's still-open devices get their repeats up to that
    /// step's count and go to the [`ScoreTarget`] in one [`RetestRequest`]
    /// carrying every repeat captured so far, a prefix of the schedule: a
    /// remote target ships it to the **serving tier**, which verdicts; the
    /// local target re-decides it in-process with [`score::retest`], the
    /// function a serving tier runs, so the reports are bit-identical. A
    /// device stays open only while its walk used every repeat it was sent,
    /// below the cap, and its average is still marginal, so a repeat is
    /// captured only when the walk reaches its step. On the batched path, a
    /// step's repeats are entries of one [`capture_signatures_batch`] call,
    /// one per repeat seed (derived by [`dsig_core::retest_seed`]); the
    /// per-device path captures them with
    /// [`dsig_core::TestSetup::signatures_of_repeats`], and both give the
    /// same signatures, bit for bit.
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
        score_batch(scorer, key, &campaign.band, specs, observed)?
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
/// retest policy, walking the schedule one step at a time. At each step the
/// still-open devices get their repeats up to the step's count (seeded by
/// [`retest_seed`], so every score target sees the same bytes) and go to
/// `scorer` in one `DSRT` batch, each with every repeat captured so far. The
/// served walk clamps to the repeats it is sent, so a device stays open only
/// when its answer used all of them, that count is below the cap, and its
/// average is still inside the guard band of `campaign.band`; every other
/// device takes its answer as its verdict. The walk is a strict prefix walk
/// and a repeat's seed does not depend on the step that captures it, so the
/// verdicts are those of one batch carrying the whole cap.
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
    let mut open: Vec<OpenDevice> = outcomes
        .iter()
        .enumerate()
        .filter(|(_, o)| policy.is_marginal(&campaign.band, o.result.ndf))
        .map(|(at, o)| {
            Ok(OpenDevice {
                at,
                spec: campaign.device(o.result.index)?,
                used: 0,
            })
        })
        .collect::<Result<_>>()?;
    retest_span.annotate("marginal", open.len());
    // Only the initial signature is copied, because the outcome keeps it for
    // the signature log; repeats are captured into the items, which move
    // into each step's request and back out of it.
    let mut items: Vec<RetestItem> = open
        .iter()
        .map(|device| RetestItem {
            initial: outcomes[device.at].observed.clone(),
            repeats: Vec::new(),
        })
        .collect();
    let mut captured = 0;
    for &step in &policy.schedule {
        if open.is_empty() {
            break;
        }
        capture_repeats(campaign, shared, &open, captured..step, &mut items)?;
        captured = step;
        let request = RetestRequest {
            golden_key: key,
            policy: policy.clone(),
            items,
        };
        let scores = scorer.retest_remote(&request)?;
        if scores.len() != request.items.len() {
            return Err(DsigError::Remote(format!(
                "remote target returned {} retest scores for {} devices",
                scores.len(),
                request.items.len()
            )));
        }
        items = Vec::new();
        let mut still_open = Vec::new();
        for ((mut device, item), answer) in open.into_iter().zip(request.items).zip(scores) {
            let outcome = &mut outcomes[device.at];
            check_retest_answer(&campaign.band, &device, &item, &answer, outcome.result.index)?;
            let used = answer.repeats_used;
            if used as usize == item.repeats.len()
                && used < policy.repeat_cap()
                && policy.is_marginal(&campaign.band, answer.score.ndf)
            {
                device.used = used;
                still_open.push(device);
                items.push(item);
                continue;
            }
            note_cap_hit(policy, used, outcome.result.index);
            finish_retest(outcome, &answer, &item.repeats[..used as usize]);
        }
        open = still_open;
    }
    Ok(())
}

/// A marginal device whose escalation walk is still open: its row in the
/// chunk's outcomes, its spec (for capturing repeats) and the repeats its
/// last answer used.
struct OpenDevice {
    at: usize,
    spec: DeviceSpec,
    used: u32,
}

/// Appends repeats `range` of every open device to its item. On the batched
/// path they are the entries of one [`capture_signatures_batch`] call; the
/// per-device path keeps `signatures_of_repeats`, which synthesizes the
/// stimulus and response once per device. Either way repeat `i` of a device
/// is seeded `retest_seed(noise_seed) + i`, whichever step captures it.
fn capture_repeats(
    campaign: &Campaign,
    shared: Option<&SharedStimulus>,
    open: &[OpenDevice],
    range: std::ops::Range<u32>,
    items: &mut [RetestItem],
) -> Result<()> {
    let count = range.len();
    match shared {
        Some(shared) => {
            let batch: Vec<BatchDevice> = open
                .iter()
                .flat_map(|device| {
                    let seed = retest_seed(device.spec.noise_seed);
                    let cut = device.spec.cut;
                    range
                        .clone()
                        .map(move |i| BatchDevice::new(cut, seed.wrapping_add(u64::from(i))))
                })
                .collect();
            let mut captured = capture_signatures_batch(&campaign.setup, shared, &batch)?.into_iter();
            for item in items {
                item.repeats.extend(captured.by_ref().take(count));
            }
        }
        None => {
            for (device, item) in open.iter().zip(items) {
                let seed = retest_seed(device.spec.noise_seed).wrapping_add(u64::from(range.start));
                item.repeats
                    .extend(campaign.setup.signatures_of_repeats(&device.spec.cut, count, seed)?);
            }
        }
    }
    Ok(())
}

/// Checks one device's retest answer against what the engine sent: the
/// engine decides from `band` whether a walk goes on, so an answer that used
/// repeats it was not sent, unmarked a device the engine sent as marginal,
/// decided its NDF under another band, or used fewer repeats than the
/// device's previous answer is an error naming the device.
fn check_retest_answer(
    band: &AcceptanceBand,
    device: &OpenDevice,
    item: &RetestItem,
    answer: &RetestScore,
    index: usize,
) -> Result<()> {
    let (used, sent) = (answer.repeats_used, item.repeats.len());
    if used as usize > sent {
        return Err(DsigError::Remote(format!(
            "remote target used {used} retest repeats of device {index} but was sent {sent}"
        )));
    }
    if !answer.marginal {
        return Err(DsigError::Remote(format!(
            "remote target judged device {index} not marginal, but the campaign band makes it marginal"
        )));
    }
    check_band(band, &answer.score, index)?;
    if used < device.used {
        return Err(DsigError::Remote(format!(
            "remote target used {used} retest repeats of device {index}, fewer than the {} of its previous answer",
            device.used
        )));
    }
    Ok(())
}

/// Checks that a served score decides its NDF as the campaign band does, so
/// a target holding another band fails the campaign instead of mixing two
/// bands in one report.
fn check_band(band: &AcceptanceBand, score: &ScoreResult, index: usize) -> Result<()> {
    let expected = band.decide(score.ndf);
    if score.outcome != expected {
        return Err(DsigError::Remote(format!(
            "remote target decided device {index} {} at NDF {}, but the campaign band decides {expected}",
            score.outcome, score.ndf
        )));
    }
    Ok(())
}

/// Logs an event for a retested device whose escalation walk consumed the
/// policy's whole schedule, whether or not its last average cleared the
/// guard band — the population the repeat cap is sized against.
/// Observational only: the verdict itself is untouched.
fn note_cap_hit(policy: &RetestPolicy, repeats_used: u32, device: usize) {
    if repeats_used >= policy.repeat_cap() {
        dsig_obs::Registry::global().events().emit(
            dsig_obs::EventLevel::Warn,
            "engine",
            "retest.cap_hit",
            "marginal device consumed the full escalation schedule",
            &[
                ("device", &device.to_string()),
                ("repeats_used", &repeats_used.to_string()),
            ],
        );
    }
}

/// Rewrites one device outcome with its retest answer. The target already
/// folded the peak Hamming distance over the initial capture and the
/// consumed repeats; the observed zone count is folded client-side (the
/// wire score does not carry it). The logged signature and the dwell
/// statistics stay those of the single-shot capture.
fn finish_retest(outcome: &mut DeviceOutcome, answer: &RetestScore, consumed_repeats: &[Signature]) {
    outcome.result.retest = Some(DeviceRetest {
        initial_ndf: outcome.result.ndf,
        repeats_used: answer.repeats_used,
        flipped: answer.flipped,
    });
    outcome.result.ndf = answer.score.ndf;
    outcome.result.outcome = answer.score.outcome;
    outcome.result.peak_hamming = answer.score.peak_hamming;
    outcome.result.observed_zones = consumed_repeats
        .iter()
        .fold(outcome.result.observed_zones, |zones, s| zones.max(s.len()));
}

/// Scores one captured chunk in one screening request to `scorer`, each
/// answer decided by `band`. Dwell statistics always come from the local
/// capture.
fn score_batch(
    scorer: &dyn RemoteScorer,
    key: u64,
    band: &AcceptanceBand,
    specs: Vec<DeviceSpec>,
    observed: Vec<Signature>,
) -> Result<Vec<DeviceOutcome>> {
    let scores = scorer.screen_remote(key, &observed)?;
    if scores.len() != observed.len() {
        return Err(DsigError::Remote(format!(
            "remote target returned {} scores for {} signatures",
            scores.len(),
            observed.len()
        )));
    }
    specs
        .into_iter()
        .zip(observed)
        .zip(scores)
        .map(|((spec, observed), score)| {
            check_band(band, &score, spec.index)?;
            Ok(device_outcome(spec, observed, score))
        })
        .collect()
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
    use dsig_core::{ndf, peak_hamming_distance, AcceptanceBand, RetestPolicy, TestSetup};
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

    /// A stand-in remote tier that escalates with the same pure walk the
    /// serving tier uses, against its own characterization under `band`,
    /// and logs every retest request it answers.
    struct RetestingScorer {
        flow: TestFlow,
        band: AcceptanceBand,
        requests: std::sync::Mutex<Vec<RetestRequest>>,
    }

    impl RetestingScorer {
        fn new(c: &Campaign, band: AcceptanceBand) -> RetestingScorer {
            RetestingScorer {
                flow: TestFlow::new(c.setup.clone(), c.reference).unwrap(),
                band,
                requests: std::sync::Mutex::new(Vec::new()),
            }
        }
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
            self.requests.lock().unwrap().push(request.clone());
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

    /// The noisy 30-device lot the remote retest tests walk.
    fn noisy_campaign() -> Campaign {
        let mut c = campaign(DevicePopulation::MonteCarlo {
            devices: 30,
            sigma_pct: 4.0,
        });
        c.setup = c.setup.clone().with_noise(sim_signal::NoiseModel::paper_default());
        c
    }

    #[test]
    fn remote_retest_scoring_is_bit_identical_to_local_retest() {
        let c = noisy_campaign();
        let policy = RetestPolicy::new(0.015, vec![4]).unwrap();
        let scorer = RetestingScorer::new(&c, c.band);
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
    fn remote_retest_requests_carry_only_the_repeats_the_walk_reaches() {
        let c = noisy_campaign();
        let policy = RetestPolicy::new(0.015, vec![2, 6]).unwrap();
        let scorer = RetestingScorer::new(&c, c.band);
        // One chunk on one thread: the log holds step 1, then step 2.
        let runner = CampaignRunner::with_threads(1)
            .with_chunk_size(c.device_count())
            .with_retest(policy.clone());
        let (local, log) = runner.run_logged(&c).unwrap();
        let remote = runner.run_with_target(&c, ScoreTarget::Remote(&scorer)).unwrap();
        assert_eq!(remote, local, "the stepped remote walk must reproduce the local report");

        let requests = scorer.requests.into_inner().unwrap();
        assert_eq!(requests.len(), 2, "one chunk walks two steps");
        let (first, second) = (&requests[0], &requests[1]);
        // Step 1 carries every marginal device with the first step's repeats.
        assert_eq!(first.items.len(), local.retest.marginal);
        assert!(first.items.iter().all(|item| item.repeats.len() == 2));
        // Step 2 carries only the devices whose 2-repeat average was still
        // marginal, in order, each with the cap's repeats, the first two
        // unchanged.
        let golden = scorer.flow.golden();
        let still_marginal: Vec<&RetestItem> = first
            .items
            .iter()
            .filter(|item| {
                let average = (ndf(golden, &item.repeats[0]).unwrap() + ndf(golden, &item.repeats[1]).unwrap()) / 2.0;
                policy.is_marginal(&c.band, average)
            })
            .collect();
        assert!(
            !still_marginal.is_empty() && still_marginal.len() < first.items.len(),
            "{} of {} devices escalate: the lot must exercise both steps",
            still_marginal.len(),
            first.items.len()
        );
        assert_eq!(second.items.len(), still_marginal.len());
        for (open, item) in still_marginal.iter().zip(&second.items) {
            assert_eq!(item.initial, open.initial);
            assert_eq!(item.repeats.len(), 6);
            assert_eq!(item.repeats[..2], open.repeats[..]);
        }
        // No retested device was sent a repeat its walk did not use.
        for result in local.results.iter().filter(|r| r.retest.is_some()) {
            let (_, initial) = log.entries().iter().find(|(i, _)| *i as usize == result.index).unwrap();
            let most_sent = requests
                .iter()
                .flat_map(|request| &request.items)
                .filter(|item| item.initial == *initial)
                .map(|item| item.repeats.len())
                .max()
                .unwrap();
            assert_eq!(
                most_sent as u32,
                result.retest.unwrap().repeats_used,
                "device {}",
                result.index
            );
        }
    }

    #[test]
    fn a_remote_band_other_than_the_campaign_band_fails_the_campaign() {
        // The engine decides from the campaign band whether a walk goes on,
        // so a tier scoring under another band must not slip into the report.
        let c = noisy_campaign();
        let policy = RetestPolicy::new(0.015, vec![2, 6]).unwrap();
        let shifted = AcceptanceBand::new(c.band.ndf_threshold + 2.0 * policy.guard_band).unwrap();
        let err = CampaignRunner::with_threads(1)
            .with_retest(policy)
            .run_with_target(&c, ScoreTarget::Remote(&RetestingScorer::new(&c, shifted)))
            .unwrap_err();
        assert!(
            matches!(&err, dsig_core::DsigError::Remote(message) if message.contains("device ")),
            "{err}"
        );
    }

    /// A faulty tier: every device sits on the band threshold, so it stays
    /// marginal at every step, and each retest answer claims `used(sent)`
    /// repeats of the `sent` it carries, flagged `marginal`.
    struct OnThreshold {
        used: fn(u32) -> u32,
        marginal: bool,
    }

    const ON_THRESHOLD: ScoreResult = ScoreResult {
        ndf: 0.03,
        peak_hamming: 0,
        outcome: dsig_core::TestOutcome::Pass,
    };

    impl RemoteScorer for OnThreshold {
        fn screen_remote(&self, _key: u64, signatures: &[Signature]) -> Result<Vec<ScoreResult>> {
            Ok(vec![ON_THRESHOLD; signatures.len()])
        }

        fn retest_remote(&self, request: &RetestRequest) -> Result<Vec<RetestScore>> {
            Ok(request
                .items
                .iter()
                .map(|device| RetestScore {
                    score: ON_THRESHOLD,
                    marginal: self.marginal,
                    flipped: false,
                    repeats_used: (self.used)(device.repeats.len() as u32),
                })
                .collect())
        }
    }

    /// The remote error an [`OnThreshold`] tier fails a small noisy
    /// campaign with under the schedule `[2, 4]`.
    fn on_threshold_error(tier: &OnThreshold) -> String {
        let mut c = campaign(DevicePopulation::MonteCarlo {
            devices: 4,
            sigma_pct: 1.0,
        });
        c.setup = c.setup.clone().with_noise(sim_signal::NoiseModel::paper_default());
        let policy = RetestPolicy::new(0.015, vec![2, 4]).unwrap();
        assert!(policy.is_marginal(&c.band, ON_THRESHOLD.ndf));
        match CampaignRunner::with_threads(1)
            .with_retest(policy)
            .run_with_target(&c, ScoreTarget::Remote(tier))
        {
            Err(dsig_core::DsigError::Remote(message)) => message,
            other => panic!("expected a remote error, got {other:?}"),
        }
    }

    #[test]
    fn remote_retest_claiming_more_repeats_than_sent_is_an_error() {
        // Overreaching at step 1: 3 repeats claimed, 2 sent.
        let message = on_threshold_error(&OnThreshold {
            used: |sent| sent + 1,
            marginal: true,
        });
        assert!(message.contains("used 3 retest repeats of device"), "{message}");
        // Honest at step 1, overreaching at step 2: 5 claimed, 4 sent.
        let message = on_threshold_error(&OnThreshold {
            used: |sent| if sent < 4 { sent } else { sent + 1 },
            marginal: true,
        });
        assert!(
            message.contains("used 5 retest repeats of device") && message.contains("but was sent 4"),
            "{message}"
        );
    }

    #[test]
    fn remote_retest_answers_that_contradict_the_walk_are_errors() {
        // A device sent as marginal must come back marginal.
        let message = on_threshold_error(&OnThreshold {
            used: |sent| sent,
            marginal: false,
        });
        assert!(message.contains("not marginal"), "{message}");
        // A later step may not use fewer repeats than the step before.
        let message = on_threshold_error(&OnThreshold {
            used: |sent| if sent < 4 { sent } else { 1 },
            marginal: true,
        });
        assert!(
            message.contains("used 1 retest repeats of device") && message.contains("fewer than the 2"),
            "{message}"
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
