//! The traced run: the same workload and seed, re-driven through each
//! layer's public calls under the benchmark's own spans, reported as a
//! per-layer ledger.
//!
//! * Set-up calls (golden, band calibration, shared stimulus, stimulus
//!   synthesis) and the capture chain's links (response, noise, low-pass,
//!   zone encoding, run-length encoding, repeats, escalation) are timed in
//!   isolation on this workload's own inputs.
//! * Each timed op is run for real under a root span, then re-driven
//!   through the calls its path makes. Lots: `Campaign::device`,
//!   `capture_signatures_batch`, `ndf`/`decide`, repeats and the remote
//!   client calls. Screens: the client call, `RouterHandle::screen`, the
//!   owner's `ServeHandle::screen` and the wire codecs. Re-driven spans are
//!   children of the span whose work they explain.
//! * Every re-driven verdict must equal the op's own verdicts, and the op's
//!   verdicts must equal the untraced pass's.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use dsig_core::TestOutcome;
use dsig_core::{
    capture_signatures_batch, ndf, peak_hamming_distance, retest_seed, signature_from_codes, BatchDevice,
    SharedStimulus, Signature, TestFlow,
};
use dsig_engine::{Campaign, CampaignReport, CampaignRunner, DeviceResult, DeviceRetest, DeviceSpec, DEFAULT_CHUNK};
use dsig_router::{PipelinedRouterClient, RouterHandle};
use dsig_serve::proto::{
    decode_request, decode_response, decode_retest_request, decode_retest_response, encode_request, encode_response,
    encode_retest_request, encode_retest_response,
};
use dsig_serve::{RetestItem, RetestRequest, RetestResponse, RetestScore, ScoreResult, ScreenResponse, ServeHandle};
use sim_signal::{lowpass_in_place, NoiseModel};
use sim_spice::devices::saturation_current;
use xy_monitor::MonitorInput;

use crate::json::{Metric, RunResult};
use crate::spans::{SpanId, SpanLog};
use crate::stats::median;
use crate::system::{
    fig8_sweep, reports_identical, results_identical, score_mismatches, scores_identical, BenchResult, Fleet, Lot,
    Product, Screens, System, WastedWork, Workload, REMOTE_CHUNK, TOLERANCE_PCT,
};

/// Every per-layer metric the traced run prints, in order, with its unit.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("signal.stimulus_us", "us"),
    ("signal.lowpass_us", "us"),
    ("signal.noise_us", "us"),
    ("filters.response_us", "us"),
    ("spice.saturation_current_ns", "ns"),
    ("monitor.zone_code_ns", "ns"),
    ("core.golden_ms", "ms"),
    ("core.calibrate_band_ms", "ms"),
    ("core.shared_stimulus_ms", "ms"),
    ("core.capture_us", "us"),
    ("core.rle_us", "us"),
    ("core.encode_us", "us"),
    ("core.repeat_capture_us", "us"),
    ("core.ndf_us", "us"),
    ("core.escalate_us", "us"),
    ("core.signature_entries", "count"),
    ("engine.tray_us", "us"),
    ("engine.device_spec_us", "us"),
    ("engine.self_us", "us"),
    ("engine.bank_hit_ratio", "ratio"),
    ("engine.marginal_share", "ratio"),
    ("engine.repeat_use_ratio", "ratio"),
    ("obs.engine_tracing_us", "us"),
    ("serve.encode_request_us", "us"),
    ("serve.decode_request_us", "us"),
    ("serve.encode_response_us", "us"),
    ("serve.decode_response_us", "us"),
    ("serve.request_bytes", "count"),
    ("serve.response_bytes", "count"),
    ("serve.handle_us", "us"),
    ("serve.shard_fanout_us", "us"),
    ("router.handle_us", "us"),
    ("router.self_us", "us"),
    ("serve.tcp_us", "us"),
    ("router.failovers", "count"),
    ("router.refresh_on_miss", "count"),
    ("serve.errors", "count"),
    ("obs.bench_trace_overhead_pct", "%"),
    ("ledger.explained_share", "ratio"),
];

/// Below this share of op time explained by layer spans the ledger warns.
pub const EXPLAINED_SHARE_FLOOR: f64 = 0.9;
/// Share of the run spent on the untraced reference pass.
const UNTRACED_SHARE: f64 = 0.25;
/// Devices the isolated capture-chain ledger samples.
const LEDGER_DEVICES: usize = 64;
/// Devices whose retest repeats the isolated ledger captures.
const LEDGER_REPEAT_DEVICES: usize = 8;
/// Calls per timed loop for the nanosecond-scale links.
const ESCALATE_CALLS: u64 = 2000;
/// Repetitions of each set-up call.
const SETUP_CALLS: usize = 3;
/// Stimulus syntheses timed.
const STIMULUS_CALLS: usize = 32;
/// Spans written to the span file at exit (the ledger uses all of them).
const SPAN_FILE_LIMIT: usize = 200_000;
/// Op ids from here on belong to set-up work re-driven off the op path.
const SETUP_OPS: u64 = 1 << 32;
/// Traced ops after the first cycle stop here, bounding the span log.
const MAX_TRACED_OPS: usize = 20_000;

/// Counts that must repeat exactly for one seed: computed over the first
/// cycle of distinct ops, once from the untraced pass and once from the
/// traced pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Counts {
    devices: u64,
    marginal: u64,
    repeats_spent: u64,
    repeats_budget: u64,
    zones: u64,
    signatures: u64,
    request_bytes: u64,
    response_bytes: u64,
    frames: u64,
}

impl Counts {
    fn add_report(&mut self, report: &CampaignReport, repeat_cap: u32) {
        self.devices += report.devices() as u64;
        self.marginal += report.retest.marginal as u64;
        self.repeats_spent += report.retest.repeats_spent;
        self.repeats_budget += report.retest.marginal as u64 * u64::from(repeat_cap);
        self.zones += report.results.iter().map(|r| r.observed_zones as u64).sum::<u64>();
    }

    fn add_frames<'s>(
        &mut self,
        signatures: impl IntoIterator<Item = &'s Signature>,
        request_bytes: usize,
        response_bytes: usize,
    ) {
        for signature in signatures {
            self.signatures += 1;
            self.zones += signature.len() as u64;
        }
        self.request_bytes += request_bytes as u64;
        self.response_bytes += response_bytes as u64;
        self.frames += 1;
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The serving path of one remote call, re-driven layer by layer: the
/// router's in-process handle, the owner backend's handle and the codecs.
struct Remote<'a> {
    router: RouterHandle,
    owner: &'a ServeHandle,
    key: u64,
    product: &'a Product,
}

impl<'a> Remote<'a> {
    fn new(fleet: &'a Fleet, product: &'a Product) -> BenchResult<Remote<'a>> {
        Ok(Remote {
            router: fleet.router.handle(),
            owner: fleet.owner()?,
            key: fleet.key,
            product,
        })
    }

    /// Times `call` (the real client round trip) as a `serve.client` span and
    /// re-drives its layers as children. Returns the client's scores and
    /// whether every re-driven layer agreed with them bit for bit.
    fn screen(
        &self,
        log: &mut SpanLog,
        parent: Option<SpanId>,
        op: u64,
        signatures: &[Signature],
        counts: Option<&mut Counts>,
        call: impl FnOnce() -> BenchResult<Vec<ScoreResult>>,
    ) -> BenchResult<(Vec<ScoreResult>, bool)> {
        let (client, scores) = log.time("serve.client", parent, op, 1, call);
        let scores = scores?;
        let n = signatures.len() as u64;
        let (_, frame) = log.time("serve.encode_request", Some(client), op, 1, || {
            encode_request(self.key, signatures)
        });
        let (_, decoded) = log.time("serve.decode_request", Some(client), op, 1, || decode_request(&frame));
        let (router_span, routed) = log.time("router.handle", Some(client), op, 1, || {
            self.router.screen(self.key, signatures)
        });
        let (serve_span, served) = log.time("serve.handle", Some(router_span), op, 1, || {
            self.owner.screen(self.key, signatures)
        });
        let golden = self.product.flow.golden();
        let (_, ndfs) = log.time("core.ndf", Some(serve_span), op, n, || {
            signatures
                .iter()
                .map(|s| ndf(golden, s))
                .collect::<Result<Vec<f64>, _>>()
        });
        let response = ScreenResponse::Results(scores.clone());
        let (_, response_frame) = log.time("serve.encode_response", Some(client), op, 1, || {
            encode_response(&response)
        });
        let (_, response_back) = log.time("serve.decode_response", Some(client), op, 1, || {
            decode_response(&response_frame)
        });
        if let Some(counts) = counts {
            counts.add_frames(signatures, frame.len(), response_frame.len());
        }
        let same = |other: &[ScoreResult]| {
            other.len() == scores.len() && other.iter().zip(&scores).all(|(a, b)| scores_identical(a, b))
        };
        let agree = decoded.map(|d| d.signatures == signatures).unwrap_or(false)
            && routed.map(|r| same(&r)).unwrap_or(false)
            && served.map(|s| same(&s)).unwrap_or(false)
            && ndfs
                .map(|v| v.iter().zip(&scores).all(|(a, s)| a.to_bits() == s.ndf.to_bits()))
                .unwrap_or(false)
            && response_back.map(|r| r == response).unwrap_or(false);
        Ok((scores, agree))
    }

    /// [`Remote::screen`] for an adaptive-retest (`DSRT`) request.
    fn retest(
        &self,
        log: &mut SpanLog,
        parent: Option<SpanId>,
        op: u64,
        request: &RetestRequest,
        counts: Option<&mut Counts>,
        call: impl FnOnce() -> BenchResult<Vec<RetestScore>>,
    ) -> BenchResult<(Vec<RetestScore>, bool)> {
        let (client, scores) = log.time("serve.client", parent, op, 1, call);
        let scores = scores?;
        let (_, frame) = log.time("serve.encode_retest_request", Some(client), op, 1, || {
            encode_retest_request(request)
        });
        let (_, decoded) = log.time("serve.decode_retest_request", Some(client), op, 1, || {
            decode_retest_request(&frame)
        });
        let (router_span, routed) = log.time("router.handle", Some(client), op, 1, || {
            self.router.screen_retest(request)
        });
        let (serve_span, served) = log.time("serve.handle", Some(router_span), op, 1, || {
            self.owner.screen_retest(request)
        });
        let golden = self.product.flow.golden();
        let flat: Vec<&Signature> = request
            .items
            .iter()
            .flat_map(|item| std::iter::once(&item.initial).chain(&item.repeats))
            .collect();
        let (_, ndfs) = log.time("core.ndf", Some(serve_span), op, flat.len() as u64, || {
            flat.iter().map(|s| ndf(golden, s)).collect::<Result<Vec<f64>, _>>()
        });
        let band = self.product.band;
        let escalated = ndfs.as_ref().ok().map(|ndfs| {
            let mut at = 0;
            let items = request.items.len() as u64;
            log.time("serve.escalate", Some(serve_span), op, items, || {
                request
                    .items
                    .iter()
                    .map(|item| {
                        let initial = ndfs[at];
                        let repeats = &ndfs[at + 1..at + 1 + item.repeats.len()];
                        at += 1 + item.repeats.len();
                        request.policy.escalate(&band, initial, repeats)
                    })
                    .collect::<Vec<_>>()
            })
            .1
        });
        let response = RetestResponse::Results(scores.clone());
        let (_, response_frame) = log.time("serve.encode_retest_response", Some(client), op, 1, || {
            encode_retest_response(&response)
        });
        let (_, response_back) = log.time("serve.decode_retest_response", Some(client), op, 1, || {
            decode_retest_response(&response_frame)
        });
        if let Some(counts) = counts {
            counts.add_frames(flat.iter().copied(), frame.len(), response_frame.len());
        }
        let same = |other: &[RetestScore]| {
            other.len() == scores.len()
                && other.iter().zip(&scores).all(|(a, b)| {
                    scores_identical(&a.score, &b.score)
                        && (a.marginal, a.flipped, a.repeats_used) == (b.marginal, b.flipped, b.repeats_used)
                })
        };
        let agree = decoded.map(|d| d == *request).unwrap_or(false)
            && routed.map(|r| same(&r)).unwrap_or(false)
            && served.map(|s| same(&s)).unwrap_or(false)
            && escalated
                .map(|verdicts| {
                    verdicts.iter().zip(&scores).all(|(v, s)| {
                        v.ndf.to_bits() == s.score.ndf.to_bits()
                            && v.outcome == s.score.outcome
                            && v.marginal == s.marginal
                            && v.repeats_used == s.repeats_used
                    })
                })
                .unwrap_or(false)
            && response_back.map(|r| r == response).unwrap_or(false);
        Ok((scores, agree))
    }
}

/// How a re-driven tray reaches its verdicts.
enum Scoring<'r, 'a> {
    /// Against the local golden, like `CampaignRunner::run`. With a mirror,
    /// each chunk is also screened through the fleet as an isolated
    /// measurement of the serving path (root `serve.client` spans, off the
    /// op's path), and the remote scores must equal the local ones.
    Local(Option<(&'r Remote<'a>, &'r PipelinedRouterClient)>),
    /// Through the router fleet with adaptive retest, like `run_with_target`.
    Remote(&'r Remote<'a>, &'r PipelinedRouterClient),
}

/// Re-drives one tray through the public calls the runner makes, as
/// children of `tray_span`, and checks the re-driven verdicts against the
/// runner's report.
fn redrive_tray(
    log: &mut SpanLog,
    tray_span: SpanId,
    op: u64,
    product: &Product,
    shared: &SharedStimulus,
    campaign: &Campaign,
    report: &CampaignReport,
    scoring: &Scoring<'_, '_>,
    mut counts: Option<&mut Counts>,
) -> BenchResult<bool> {
    let mut specs = Vec::with_capacity(campaign.device_count());
    for index in 0..campaign.device_count() {
        let (_, spec) = log.time("engine.device_spec", Some(tray_span), op, 1, || campaign.device(index));
        specs.push(spec?);
    }
    let golden = product.flow.golden();
    let band = product.band;
    let policy = &product.policy;
    let cap = policy.repeat_cap() as usize;
    let mut agree = true;
    // The re-driven result of every device, in index order.
    let mut rows: Vec<DeviceResult> = Vec::with_capacity(specs.len());
    let row = |spec: &DeviceSpec, ndf: f64, peak_hamming: u32, outcome: TestOutcome, zones: usize| DeviceResult {
        index: spec.index,
        label: spec.label.clone(),
        true_deviation_pct: spec.true_deviation_pct,
        ndf,
        peak_hamming,
        observed_zones: zones,
        outcome,
        retest: None,
    };
    let chunk = match scoring {
        Scoring::Local(_) => DEFAULT_CHUNK,
        Scoring::Remote(..) => REMOTE_CHUNK,
    };
    for chunk_specs in specs.chunks(chunk) {
        let batch: Vec<BatchDevice> = chunk_specs
            .iter()
            .map(|s| BatchDevice::new(s.cut, s.noise_seed))
            .collect();
        let (_, signatures) = log.time("core.capture", Some(tray_span), op, batch.len() as u64, || {
            capture_signatures_batch(&product.setup, shared, &batch)
        });
        let signatures = signatures?;
        match scoring {
            Scoring::Local(mirror) => {
                let (_, ndfs) = log.time("core.ndf", Some(tray_span), op, signatures.len() as u64, || {
                    signatures
                        .iter()
                        .map(|s| ndf(golden, s))
                        .collect::<Result<Vec<f64>, _>>()
                });
                let ndfs = ndfs?;
                let (_, decided) = log.time("core.decide", Some(tray_span), op, signatures.len() as u64, || {
                    signatures
                        .iter()
                        .zip(&ndfs)
                        .map(|(s, &v)| Ok((peak_hamming_distance(golden, s)?, band.decide(v))))
                        .collect::<Result<Vec<_>, dsig_core::DsigError>>()
                });
                let start = rows.len();
                for (((spec, s), &v), (peak, outcome)) in chunk_specs.iter().zip(&signatures).zip(&ndfs).zip(decided?) {
                    rows.push(row(spec, v, peak, outcome, s.len()));
                }
                if let Some((remote, client)) = mirror {
                    let (scores, same) = remote.screen(log, None, op, &signatures, counts.as_deref_mut(), || {
                        Ok(client.screen(remote.key, &signatures)?)
                    })?;
                    agree &= same
                        && scores.len() == signatures.len()
                        && scores.iter().zip(&rows[start..]).all(|(score, row)| {
                            score.ndf.to_bits() == row.ndf.to_bits()
                                && score.peak_hamming == row.peak_hamming
                                && score.outcome == row.outcome
                        });
                }
            }
            Scoring::Remote(remote, client) => {
                // Frame counts on this path come from the retest frames.
                let (scores, same) = remote.screen(log, Some(tray_span), op, &signatures, None, || {
                    Ok(client.screen(remote.key, &signatures)?)
                })?;
                agree &= same;
                let start = rows.len();
                for ((spec, s), score) in chunk_specs.iter().zip(&signatures).zip(&scores) {
                    rows.push(row(spec, score.ndf, score.peak_hamming, score.outcome, s.len()));
                }
                let marginal: Vec<usize> = (0..signatures.len())
                    .filter(|&i| policy.is_marginal(&band, scores[i].ndf))
                    .collect();
                if marginal.is_empty() {
                    continue;
                }
                let mut items = Vec::with_capacity(marginal.len());
                for &i in &marginal {
                    let spec = &chunk_specs[i];
                    let (_, repeats) = log.time("core.repeat_capture", Some(tray_span), op, cap as u64, || {
                        product
                            .setup
                            .signatures_of_repeats(&spec.cut, cap, retest_seed(spec.noise_seed))
                    });
                    items.push(RetestItem {
                        initial: signatures[i].clone(),
                        repeats: repeats?,
                    });
                }
                let request = RetestRequest {
                    golden_key: remote.key,
                    policy: policy.clone(),
                    items,
                };
                let (retested, same) =
                    remote.retest(log, Some(tray_span), op, &request, counts.as_deref_mut(), || {
                        Ok(client.screen_retest(&request)?)
                    })?;
                agree &= same;
                for ((&i, item), score) in marginal.iter().zip(&request.items).zip(&retested) {
                    if !score.marginal {
                        continue;
                    }
                    let row = &mut rows[start + i];
                    let used = score.repeats_used as usize;
                    row.retest = Some(DeviceRetest {
                        initial_ndf: row.ndf,
                        repeats_used: score.repeats_used,
                        flipped: score.flipped,
                    });
                    row.ndf = score.score.ndf;
                    row.peak_hamming = score.score.peak_hamming;
                    row.outcome = score.score.outcome;
                    row.observed_zones = item.repeats[..used]
                        .iter()
                        .fold(row.observed_zones, |zones, s| zones.max(s.len()));
                }
            }
        }
    }
    Ok(agree && results_identical(&rows, &report.results))
}

/// Times the set-up calls of the product's bring-up.
fn setup_ledger(log: &mut SpanLog, product: &Product) -> BenchResult<()> {
    let setup = &product.setup;
    let reference = *product.flow.reference();
    for _ in 0..SETUP_CALLS {
        let (_, flow) = log.time("core.golden", None, 0, 1, || TestFlow::new(setup.clone(), reference));
        let flow = flow?;
        let (_, band) = log.time("core.calibrate_band", None, 0, 1, || {
            flow.calibrate_band(&fig8_sweep(), TOLERANCE_PCT)
        });
        if band? != product.band {
            return Err("band calibration is not deterministic".into());
        }
        let (_, shared) = log.time("core.shared_stimulus", None, 0, 1, || SharedStimulus::new(setup));
        shared?;
    }
    for _ in 0..STIMULUS_CALLS {
        let (_, x) = log.time("signal.stimulus", None, 0, 1, || {
            setup.stimulus.sample(1, setup.sample_rate)
        });
        black_box(x);
    }
    Ok(())
}

/// Times each link of the per-device capture chain in isolation on the
/// workload's own devices. Returns the number of devices whose isolated
/// chain did not reproduce the batched capture.
fn capture_ledger(
    log: &mut SpanLog,
    product: &Product,
    trays: &[Campaign],
    shared: &SharedStimulus,
) -> BenchResult<u64> {
    let setup = &product.setup;
    let golden = product.flow.golden();
    // Noiseless workloads never add noise; the link is still timed on their
    // streams with the paper's noise model so every workload reports it.
    let noise = if setup.noise.is_none() {
        NoiseModel::paper_default()
    } else {
        setup.noise
    };
    let bandwidth = setup
        .monitor_bandwidth_hz
        .ok_or("the paper setup has a front-end bandwidth")?;
    let y_gate = setup
        .partition
        .monitors()
        .iter()
        .find_map(|m| {
            (0..4)
                .find(|&i| m.inputs[i] == MonitorInput::YAxis)
                .map(|i| m.transistors[i])
        })
        .ok_or("no monitor has a Y-driven input")?;
    let devices: Vec<BatchDevice> = trays
        .iter()
        .flat_map(|campaign| (0..campaign.device_count()).map(move |i| campaign.device(i)))
        .take(LEDGER_DEVICES)
        .map(|spec| spec.map(|s| BatchDevice::new(s.cut, s.noise_seed)))
        .collect::<Result<_, _>>()?;
    let batched = capture_signatures_batch(setup, shared, &devices)?;
    let mut y = Vec::new();
    let mut codes = Vec::new();
    let mut differing = 0;
    for (k, (device, expected)) in devices.iter().zip(&batched).enumerate() {
        let (_, ()) = log.time("filters.response", None, 0, 1, || {
            device
                .cut
                .steady_state_response_into(&setup.stimulus, 1, setup.sample_rate, &mut y)
        });
        let dt = 1.0 / setup.sample_rate;
        let mut noisy = y.clone();
        let (_, ()) = log.time("signal.noise", None, 0, 1, || {
            noise.apply_in_place(&mut noisy, device.noise_seed.wrapping_mul(2).wrapping_add(1))
        });
        black_box(&noisy);
        let (_, ()) = log.time("signal.lowpass", None, 0, 1, || lowpass_in_place(&mut y, dt, bandwidth));
        // The observed pair exactly as the per-device path sees it.
        let (x_obs, y_obs) = setup.observe(&device.cut, device.noise_seed);
        let (xs, ys) = (x_obs.samples(), y_obs.samples());
        codes.clear();
        let (_, ()) = log.time("monitor.zone_code", None, 0, xs.len() as u64, || {
            codes.extend(xs.iter().zip(ys).map(|(&x, &y)| setup.partition.zone_code(x, y)))
        });
        let (_, current) = log.time("spice.saturation_current", None, 0, ys.len() as u64, || {
            ys.iter().map(|&v| saturation_current(&y_gate, v)).sum::<f64>()
        });
        black_box(current);
        let (_, signature) = log.time("core.rle", None, 0, 1, || {
            signature_from_codes(codes.iter().copied(), x_obs.dt(), setup.clock.as_ref())
                .map(|raw| raw.deglitched(setup.transition_min_dwell))
        });
        if signature? != *expected {
            differing += 1;
        }
        let cap = product.policy.repeat_cap() as usize;
        if k < LEDGER_REPEAT_DEVICES {
            let (_, repeats) = log.time("core.repeat_capture", None, 0, cap as u64, || {
                setup.signatures_of_repeats(&device.cut, cap, retest_seed(device.noise_seed))
            });
            let repeat_ndfs = repeats?
                .iter()
                .map(|s| ndf(golden, s))
                .collect::<Result<Vec<f64>, _>>()?;
            // Start the walk at the band threshold so the device is marginal:
            // the link is timed as a marginal device pays it.
            let initial = product.band.ndf_threshold;
            let (_, verdict) = log.time("core.escalate", None, 0, ESCALATE_CALLS, || {
                let mut last = None;
                for _ in 0..ESCALATE_CALLS {
                    last = Some(
                        product
                            .policy
                            .escalate(&product.band, black_box(initial), black_box(&repeat_ndfs)),
                    );
                }
                last
            });
            black_box(verdict);
        }
    }
    Ok(differing)
}

/// What the op loops of a traced run produce besides spans.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// Untraced op durations, µs.
    untraced_us: Vec<f64>,
    /// Name of the op's root span.
    op_root: &'static str,
    /// Report counts of the first cycle: untraced pass, traced pass.
    reports: (Counts, Counts),
    /// Frame counts of the first cycle: untraced pass, traced pass.
    frames: (Counts, Counts),
    bank_hit_ratio: f64,
    wasted: WastedWork,
    /// Whether the serving path's codecs are the retest (`DSRT`/`DSRR`) ones.
    retest_codecs: bool,
}

impl Tally {
    fn fail(&mut self, what: impl std::fmt::Display) {
        self.failed += 1;
        println!("traced: {what}");
    }
}

fn deadline(seconds: f64) -> Instant {
    Instant::now() + Duration::from_secs_f64(seconds)
}

/// A runner configured like the lot's, with engine tracing off.
fn quiet_runner(lot_retest: bool, product: &Product) -> CampaignRunner {
    let runner = CampaignRunner::with_threads(1).with_tracing(false);
    if lot_retest {
        runner.with_retest(product.policy.clone()).with_chunk_size(REMOTE_CHUNK)
    } else {
        runner
    }
}

/// Runs one tray on the op's runner under an `engine.tray` root span and on
/// the untraced-engine runner under an `engine.tray_untraced` root, in
/// alternating order, and checks the two reports agree.
fn paired_tray(
    log: &mut SpanLog,
    op: u64,
    tally: &mut Tally,
    run: impl FnOnce() -> BenchResult<CampaignReport>,
    run_quiet: impl FnOnce() -> BenchResult<CampaignReport>,
) -> BenchResult<(SpanId, CampaignReport)> {
    let quiet_first = op % 2 == 1;
    let mut quiet = None;
    let mut run_quiet = Some(run_quiet);
    let mut quiet_pass = |log: &mut SpanLog| {
        let run_quiet = run_quiet.take().expect("run once");
        quiet = Some(log.time("engine.tray_untraced", None, op, 1, run_quiet).1);
    };
    if quiet_first {
        quiet_pass(log);
    }
    let (span, report) = log.time("engine.tray", None, op, 1, run);
    if !quiet_first {
        quiet_pass(log);
    }
    let report = report?;
    let quiet = quiet.expect("quiet run happened")?;
    if !reports_identical(&report, &quiet) {
        tally.fail(format_args!("op {op}: engine tracing changed a tray report"));
    }
    Ok((span, report))
}

fn run_lot(
    log: &mut SpanLog,
    lot: &mut Lot,
    shared: &SharedStimulus,
    seconds: f64,
    tally: &mut Tally,
) -> BenchResult<()> {
    tally.op_root = "engine.tray";
    let cap = lot.product.policy.repeat_cap();
    // The locally scored lot gets a fleet of its own so the serving path is
    // still measured (isolated, off the op's path) on its signatures.
    let own_fleet = match lot.fleet {
        Some(_) => None,
        None => Some(Fleet::spawn(&lot.product)?),
    };
    let fleet = lot.fleet.as_ref().or(own_fleet.as_ref()).expect("a fleet exists");
    let client = match &lot.client {
        Some(client) => client.clone(),
        None => PipelinedRouterClient::connect(fleet.router.local_addr())?,
    };
    tally.retest_codecs = lot.retest;
    let remote = Remote::new(fleet, &lot.product)?;
    let quiet = quiet_runner(lot.retest, &lot.product);
    let quiet_client = lot.client.clone();
    let run_quiet = |campaign: &Campaign| -> BenchResult<CampaignReport> {
        Ok(match &quiet_client {
            Some(c) => quiet.run_with_target(campaign, dsig_engine::ScoreTarget::Remote(c))?,
            None => quiet.run(campaign)?,
        })
    };
    run_quiet(&lot.trays[0])?;

    let cycle = lot.trays.len();
    let until = deadline(seconds * UNTRACED_SHARE);
    let mut op = 0usize;
    while op < cycle || Instant::now() < until {
        let started = Instant::now();
        let report = lot.run_op(op)?;
        tally.untraced_us.push(started.elapsed().as_secs_f64() * 1e6);
        if op < cycle {
            tally.reports.0.add_report(&report, cap);
        }
        if !lot.first.check(op, report) {
            tally.fail(format_args!("untraced op {op}: tray report changed between runs"));
        }
        tally.attempted += 1;
        op += 1;
    }

    let before = fleet.wasted_work();
    let until = deadline(seconds * (1.0 - UNTRACED_SHARE));
    let mut op = 0usize;
    while op < cycle || (op < MAX_TRACED_OPS && Instant::now() < until) {
        let tray = op % cycle;
        let campaign = &lot.trays[tray];
        let (span, report) = paired_tray(log, op as u64, tally, || lot.run_tray(tray), || run_quiet(campaign))?;
        let scoring = if lot.retest {
            Scoring::Remote(&remote, &client)
        } else {
            Scoring::Local(Some((&remote, &client)))
        };
        let first_cycle = op < cycle;
        let frames = first_cycle.then_some(&mut tally.frames.1);
        if !redrive_tray(
            log,
            span,
            op as u64,
            &lot.product,
            shared,
            campaign,
            &report,
            &scoring,
            frames,
        )? {
            tally.fail(format_args!("op {op}: re-driven layers disagree with the tray report"));
        }
        if first_cycle {
            tally.reports.1.add_report(&report, cap);
        }
        if !lot.first.check(op, report) {
            tally.fail(format_args!(
                "traced op {op}: tray report differs from the untraced run"
            ));
        }
        tally.attempted += 1;
        op += 1;
    }
    tally.wasted = fleet.wasted_work().since(before);
    let bank = lot.runner.stimulus_bank();
    tally.bank_hit_ratio = ratio(bank.hits(), bank.hits() + bank.misses());
    let (checked, mismatched) = lot.audit()?;
    println!("audit: {checked} trays checked against the per-device local reference, {mismatched} differ");
    tally.failed += mismatched as u64;
    Ok(())
}

fn run_screens(
    log: &mut SpanLog,
    screens: &mut Screens,
    shared: &SharedStimulus,
    seconds: f64,
    tally: &mut Tally,
) -> BenchResult<()> {
    tally.op_root = "serve.client";
    let Screens {
        product,
        fleet,
        client,
        pool_trays,
        requests,
        expected,
    } = screens;
    // The pool capture of set-up, re-driven tray by tray (off the op path).
    let runner = CampaignRunner::with_threads(1);
    let quiet = quiet_runner(false, product);
    runner.run(&pool_trays[0])?;
    quiet.run(&pool_trays[0])?;
    for (t, campaign) in pool_trays.iter().enumerate() {
        let op = SETUP_OPS + t as u64;
        let (span, report) = paired_tray(
            log,
            op,
            tally,
            || Ok(runner.run(campaign)?),
            || Ok(quiet.run(campaign)?),
        )?;
        if !redrive_tray(
            log,
            span,
            op,
            product,
            shared,
            campaign,
            &report,
            &Scoring::Local(None),
            None,
        )? {
            tally.fail(format_args!(
                "pool tray {t}: re-driven layers disagree with the tray report"
            ));
        }
    }
    let bank = runner.stimulus_bank();
    tally.bank_hit_ratio = ratio(bank.hits(), bank.hits() + bank.misses());

    let key = fleet.key;
    let cycle = requests.len();
    let wrong = |at: usize, scores: &[ScoreResult]| score_mismatches(&expected[at], scores) > 0;
    let until = deadline(seconds * UNTRACED_SHARE);
    let mut op = 0usize;
    while op < cycle || Instant::now() < until {
        let at = op % cycle;
        let started = Instant::now();
        let scores = client.screen(key, &requests[at])?;
        tally.untraced_us.push(started.elapsed().as_secs_f64() * 1e6);
        if wrong(at, &scores) {
            tally.fail(format_args!("untraced op {op}: a score differs from local scoring"));
        }
        if op < cycle {
            let response = ScreenResponse::Results(scores);
            tally.frames.0.add_frames(
                &requests[at],
                encode_request(key, &requests[at]).len(),
                encode_response(&response).len(),
            );
        }
        tally.attempted += 1;
        op += 1;
    }

    let remote = Remote::new(fleet, product)?;
    let before = fleet.wasted_work();
    let until = deadline(seconds * (1.0 - UNTRACED_SHARE));
    let mut op = 0usize;
    while op < cycle || (op < MAX_TRACED_OPS && Instant::now() < until) {
        let at = op % cycle;
        let frames = (op < cycle).then_some(&mut tally.frames.1);
        let (scores, agree) = remote.screen(log, None, op as u64, &requests[at], frames, || {
            Ok(client.screen(key, &requests[at])?)
        })?;
        if wrong(at, &scores) || !agree {
            tally.fail(format_args!(
                "traced op {op}: a score differs from local scoring or a re-driven layer"
            ));
        }
        tally.attempted += 1;
        op += 1;
    }
    tally.wasted = fleet.wasted_work().since(before);
    Ok(())
}

/// Median per-unit duration (µs) of the spans named `name`, 0 when absent.
fn med(log: &SpanLog, name: &str) -> f64 {
    median(&log.per_unit_us(name)).unwrap_or(0.0)
}

/// Runs the traced run of `workload` and returns the per-layer ledger.
pub fn run(workload: Workload, seed: u64, seconds: f64) -> BenchResult<RunResult> {
    let mut system = System::bring_up(workload, seed)?;
    let mut log = SpanLog::new();
    let mut tally = Tally::default();
    let shared = SharedStimulus::new(&system.product().setup)?;
    setup_ledger(&mut log, system.product())?;
    let ledger_trays = match &system {
        System::Lot(lot) => lot.trays[..2].to_vec(),
        System::Screens(screens) => screens.pool_trays[..2].to_vec(),
    };
    let differing = capture_ledger(&mut log, system.product(), &ledger_trays, &shared)?;
    if differing > 0 {
        tally.fail(format_args!(
            "{differing} isolated capture chains differ from the batched capture"
        ));
    }
    match &mut system {
        System::Lot(lot) => run_lot(&mut log, lot, &shared, seconds, &mut tally)?,
        System::Screens(screens) => run_screens(&mut log, screens, &shared, seconds, &mut tally)?,
    }
    let (reports, frames) = (tally.reports, tally.frames);
    if reports.0 != reports.1 {
        tally.fail(format_args!(
            "report counts differ between untraced and traced passes: {:?} vs {:?}",
            reports.0, reports.1
        ));
    }
    if !workload.is_lot() && frames.0 != frames.1 {
        tally.fail(format_args!(
            "frame counts differ between untraced and traced passes: {:?} vs {:?}",
            frames.0, frames.1
        ));
    }
    if tally.wasted.total() > 0 {
        println!("traced: wasted work during the traced phase: {:?}", tally.wasted);
        tally.failed += tally.wasted.total();
    }

    let product = system.product();
    let noisy = !product.setup.noise.is_none();
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    values.insert("signal.stimulus_us", med(&log, "signal.stimulus"));
    values.insert("signal.lowpass_us", med(&log, "signal.lowpass"));
    values.insert("signal.noise_us", med(&log, "signal.noise"));
    values.insert("filters.response_us", med(&log, "filters.response"));
    values.insert(
        "spice.saturation_current_ns",
        med(&log, "spice.saturation_current") * 1e3,
    );
    values.insert("monitor.zone_code_ns", med(&log, "monitor.zone_code") * 1e3);
    values.insert("core.golden_ms", med(&log, "core.golden") / 1e3);
    values.insert("core.calibrate_band_ms", med(&log, "core.calibrate_band") / 1e3);
    values.insert("core.shared_stimulus_ms", med(&log, "core.shared_stimulus") / 1e3);
    let capture = med(&log, "core.capture");
    values.insert("core.capture_us", capture);
    values.insert("core.rle_us", med(&log, "core.rle"));
    // Per device the batched capture synthesizes the response, filters y
    // (and x, when noise makes x per-device), adds noise to both streams on a
    // noisy setup, zone-encodes and run-length encodes; encoding is the rest.
    let (filtered, noised) = if noisy { (2.0, 2.0) } else { (1.0, 0.0) };
    values.insert(
        "core.encode_us",
        capture
            - med(&log, "filters.response")
            - filtered * med(&log, "signal.lowpass")
            - noised * med(&log, "signal.noise")
            - med(&log, "core.rle"),
    );
    values.insert("core.repeat_capture_us", med(&log, "core.repeat_capture"));
    values.insert("core.ndf_us", med(&log, "core.ndf"));
    values.insert("core.escalate_us", med(&log, "core.escalate"));
    let (reports, frames) = (reports.1, frames.1);
    values.insert(
        "core.signature_entries",
        if workload.is_lot() {
            ratio(reports.zones, reports.devices)
        } else {
            ratio(frames.zones, frames.signatures)
        },
    );
    values.insert("engine.tray_us", med(&log, "engine.tray"));
    values.insert("engine.device_spec_us", med(&log, "engine.device_spec"));
    values.insert("engine.self_us", median(&log.self_us("engine.tray")).unwrap_or(0.0));
    values.insert("engine.bank_hit_ratio", tally.bank_hit_ratio);
    values.insert("engine.marginal_share", ratio(reports.marginal, reports.devices));
    values.insert(
        "engine.repeat_use_ratio",
        ratio(reports.repeats_spent, reports.repeats_budget),
    );
    values.insert(
        "obs.engine_tracing_us",
        med(&log, "engine.tray") - med(&log, "engine.tray_untraced"),
    );
    let codec = |verb: &str, what: &str| {
        let name = if tally.retest_codecs {
            format!("serve.{verb}_retest_{what}")
        } else {
            format!("serve.{verb}_{what}")
        };
        median(&log.per_unit_us(&name)).unwrap_or(0.0)
    };
    values.insert("serve.encode_request_us", codec("encode", "request"));
    values.insert("serve.decode_request_us", codec("decode", "request"));
    values.insert("serve.encode_response_us", codec("encode", "response"));
    values.insert("serve.decode_response_us", codec("decode", "response"));
    values.insert("serve.request_bytes", ratio(frames.request_bytes, frames.frames));
    values.insert("serve.response_bytes", ratio(frames.response_bytes, frames.frames));
    values.insert("serve.handle_us", med(&log, "serve.handle"));
    values.insert(
        "serve.shard_fanout_us",
        median(&log.self_us("serve.handle")).unwrap_or(0.0),
    );
    values.insert("router.handle_us", med(&log, "router.handle"));
    values.insert("router.self_us", median(&log.self_us("router.handle")).unwrap_or(0.0));
    let router_in_client = log.child_named_us("router.handle");
    let tcp: Vec<f64> = log
        .spans()
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "serve.client")
        .map(|(i, s)| s.duration_us() - router_in_client[i])
        .collect();
    values.insert("serve.tcp_us", median(&tcp).unwrap_or(0.0));
    values.insert("router.failovers", tally.wasted.failovers as f64);
    values.insert("router.refresh_on_miss", tally.wasted.refresh_on_miss as f64);
    values.insert("serve.errors", tally.wasted.serve_errors as f64);
    // Op roots: the op's own root spans (parentless, named like the op).
    let children = log.child_durations_us();
    let (mut root_total, mut explained, mut traced_ops) = (0.0, 0.0, Vec::new());
    for (i, span) in log.spans().iter().enumerate() {
        if span.name == tally.op_root && span.parent.is_none() && span.op < SETUP_OPS {
            root_total += span.duration_us();
            explained += children[i];
            traced_ops.push(span.duration_us());
        }
    }
    let untraced_op = median(&tally.untraced_us).unwrap_or(0.0);
    let traced_op = median(&traced_ops).unwrap_or(0.0);
    values.insert(
        "obs.bench_trace_overhead_pct",
        if untraced_op > 0.0 {
            (traced_op / untraced_op - 1.0) * 100.0
        } else {
            0.0
        },
    );
    let share = if root_total > 0.0 { explained / root_total } else { 0.0 };
    values.insert("ledger.explained_share", share);

    println!(
        "traced {}: {} ops ({} spans), untraced op p50 {untraced_op:.1} us, traced op p50 {traced_op:.1} us",
        workload.name(),
        tally.attempted,
        log.spans().len()
    );
    println!(
        "counts: devices {} marginal {} repeats {}/{} zones {} | frames {} signatures {} request bytes {} response bytes {}",
        reports.devices,
        reports.marginal,
        reports.repeats_spent,
        reports.repeats_budget,
        reports.zones,
        frames.frames,
        frames.signatures,
        frames.request_bytes,
        frames.response_bytes
    );
    if share < EXPLAINED_SHARE_FLOOR {
        println!(
            "warning: layer spans explain {:.1}% of {} time (below {:.0}%); the rest is unattributed",
            share * 100.0,
            tally.op_root,
            EXPLAINED_SHARE_FLOOR * 100.0
        );
    }
    let path = std::path::PathBuf::from(format!(".bench_spans/{}-seed{seed}.tsv", workload.name()));
    match log.write_tsv(&path, SPAN_FILE_LIMIT) {
        Ok(()) => println!("spans: {}", path.display()),
        Err(e) => println!("spans: could not write {}: {e}", path.display()),
    }
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name: name.to_string(),
            value: values[name],
            unit,
        })
        .collect::<Vec<_>>();
    for metric in &metrics {
        println!("  {:<30} {:>14.4} {}", metric.name, metric.value, metric.unit);
    }
    Ok(RunResult {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Count metrics: exact for one seed by construction.
    const EXACT: [&str; 5] = [
        "core.signature_entries",
        "engine.marginal_share",
        "engine.repeat_use_ratio",
        "serve.request_bytes",
        "serve.response_bytes",
    ];

    fn value(result: &RunResult, name: &str) -> f64 {
        result.metrics.iter().find(|m| m.name == name).unwrap().value
    }

    #[test]
    fn traced_runs_print_the_ledger_and_repeat_counts_exactly() {
        for workload in [Workload::LotNoisyRetest, Workload::ScreenBulk] {
            // The shortest run still covers one full cycle of distinct ops.
            let first = run(workload, 31, 0.01).unwrap();
            let second = run(workload, 31, 0.01).unwrap();
            for result in [&first, &second] {
                assert!(result.correct && result.failed == 0, "{}", workload.name());
                let names: Vec<&str> = result.metrics.iter().map(|m| m.name.as_str()).collect();
                let expected: Vec<&str> = PER_LAYER.iter().map(|&(n, _)| n).collect();
                assert_eq!(names, expected);
                assert!(result.metrics.iter().all(|m| m.value.is_finite()));
            }
            for name in EXACT {
                assert_eq!(
                    value(&first, name).to_bits(),
                    value(&second, name).to_bits(),
                    "{} {name}",
                    workload.name()
                );
            }
            assert!(value(&first, "serve.request_bytes") > 0.0, "{}", workload.name());
        }
    }

    #[test]
    fn the_guard_band_keeps_the_noisy_lot_marginal_share_in_range() {
        // A seed the guard band was not tuned on.
        let result = run(Workload::LotNoisyRetest, 977, 0.01).unwrap();
        let share = value(&result, "engine.marginal_share");
        assert!((0.05..=0.10).contains(&share), "marginal share {share}");
    }
}
