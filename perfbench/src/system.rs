//! Product bring-up and the four workloads' systems: the calibrated test
//! program, the serving fleet, and the closed-loop operations each workload
//! times.

use std::sync::Arc;

use cut_filters::BiquadParams;
use dsig_core::{ndf, peak_hamming_distance, AcceptanceBand, DsigError, RetestPolicy, Signature, TestFlow, TestSetup};
use dsig_engine::{
    golden_fingerprint, mix_seed, Campaign, CampaignReport, CampaignRunner, DevicePopulation, DeviceResult, ScoreTarget,
};
use dsig_router::{Backend, PipelinedRouterClient, Router, RouterClient, RouterConfig, RouterStore};
use dsig_serve::{GoldenStore, ScoreResult, ServeConfig, ServeHandle};
use repro_bench::REPRO_SAMPLE_RATE;
use sim_signal::NoiseModel;

pub type BenchResult<T> = Result<T, Box<dyn std::error::Error>>;

/// Devices per tray: one `CampaignRunner::run` per tray is one lot op.
pub const TRAY_DEVICES: usize = 32;
/// Distinct trays `lot_noiseless` cycles through; every tray's verdicts are
/// audited against the per-device reference after the timed phase.
pub const TRAY_CYCLE: usize = 64;
/// Distinct trays `lot_noisy_retest` cycles through: more than the noiseless
/// lot, because tray latency there depends on how many of a tray's devices
/// are marginal, and the latency tail should not hinge on a handful of trays.
pub const RETEST_TRAY_CYCLE: usize = 256;
/// Runner chunk on the remotely scored lot: one `DSRQ` (and, when a chunk
/// has marginal devices, one `DSRT`) per chunk.
pub const REMOTE_CHUNK: usize = 16;
/// Monte-Carlo sigma of the f0 deviation, percent.
pub const SIGMA_PCT: f64 = 3.0;
/// Devices within this f0 deviation (percent) are good; the acceptance band
/// is calibrated so they pass.
pub const TOLERANCE_PCT: f64 = 3.0;
/// Retest guard band around the calibrated NDF threshold, fixed so that
/// 5-10 % of the noisy lot is marginal.
pub const GUARD_BAND: f64 = 0.004;
/// Retest escalation schedule (cumulative repeats per step).
pub const RETEST_SCHEDULE: [u32; 2] = [2, 6];
/// Screening pool: trays of the pool captured at set-up.
pub const POOL_TRAYS: usize = 32;
/// Signatures per request on `screen_bulk`: four of the server's 64-signature
/// shard chunks.
pub const BULK_BATCH: usize = 256;
/// In-process backends behind the TCP router.
pub const BACKENDS: usize = 2;
/// Scoring shards per backend (fixed, so the fleet does not depend on the
/// machine's core count).
pub const SHARDS_PER_BACKEND: usize = 2;
/// Ops run (and checked) at the end of set-up, before timing starts.
pub const WARMUP_OPS: usize = 16;

/// The Fig. 8 f0 sweep the acceptance band is calibrated on: -20 % to +20 %
/// in 1 % steps.
pub fn fig8_sweep() -> Vec<f64> {
    (-20..=20).map(f64::from).collect()
}

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    LotNoiseless,
    LotNoisyRetest,
    ScreenOne,
    ScreenBulk,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::LotNoiseless,
        Workload::LotNoisyRetest,
        Workload::ScreenOne,
        Workload::ScreenBulk,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LotNoiseless => "lot_noiseless",
            Workload::LotNoisyRetest => "lot_noisy_retest",
            Workload::ScreenOne => "screen_one",
            Workload::ScreenBulk => "screen_bulk",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_lot(self) -> bool {
        matches!(self, Workload::LotNoiseless | Workload::LotNoisyRetest)
    }
}

/// The calibrated test program: setup, golden (inside the flow), acceptance
/// band and retest policy.
pub struct Product {
    pub setup: TestSetup,
    pub flow: TestFlow,
    pub band: AcceptanceBand,
    pub policy: RetestPolicy,
}

impl Product {
    /// Golden characterization plus band calibration over the Fig. 8 sweep.
    pub fn bring_up(noisy: bool) -> BenchResult<Product> {
        let mut setup = TestSetup::paper_default()?.with_sample_rate(REPRO_SAMPLE_RATE)?;
        if noisy {
            setup = setup.with_noise(NoiseModel::paper_default());
        }
        let flow = TestFlow::new(setup.clone(), BiquadParams::paper_default())?;
        let band = flow.calibrate_band(&fig8_sweep(), TOLERANCE_PCT)?;
        let policy = RetestPolicy::new(GUARD_BAND, RETEST_SCHEDULE.to_vec())?;
        Ok(Product {
            setup,
            flow,
            band,
            policy,
        })
    }

    /// Tray `tray` of a lot: a 32-device Monte-Carlo campaign seeded with
    /// `mix_seed(seed, tray)`.
    pub fn tray(&self, seed: u64, tray: usize) -> BenchResult<Campaign> {
        Ok(Campaign::new(
            self.setup.clone(),
            *self.flow.reference(),
            DevicePopulation::MonteCarlo {
                devices: TRAY_DEVICES,
                sigma_pct: SIGMA_PCT,
            },
            self.band,
            TOLERANCE_PCT,
        )?
        .with_seed(mix_seed(seed, tray as u64)))
    }

    /// Local `TestFlow` scoring of one signature: the bit-identity reference.
    pub fn score(&self, observed: &Signature) -> Result<ScoreResult, DsigError> {
        let golden = self.flow.golden();
        let value = ndf(golden, observed)?;
        Ok(ScoreResult {
            ndf: value,
            peak_hamming: peak_hamming_distance(golden, observed)?,
            outcome: self.band.decide(value),
        })
    }
}

/// A TCP router fronting in-process backends, with the product's golden
/// characterized into it.
pub struct Fleet {
    pub router: Router,
    pub backends: Vec<ServeHandle>,
    pub key: u64,
}

impl Fleet {
    pub fn spawn(product: &Product) -> BenchResult<Fleet> {
        let backends: Vec<ServeHandle> = (0..BACKENDS)
            .map(|_| {
                ServeHandle::spawn(
                    Arc::new(GoldenStore::new()),
                    ServeConfig::with_shards(SHARDS_PER_BACKEND),
                )
            })
            .collect();
        let members = backends
            .iter()
            .enumerate()
            .map(|(id, handle)| Backend::local(id as u64, handle.clone()))
            .collect();
        let router = Router::bind("127.0.0.1:0", members, RouterStore::new(), RouterConfig::default())?;
        let key = router
            .handle()
            .characterize(&product.setup, product.flow.reference(), product.band)?;
        if key != golden_fingerprint(&product.setup, product.flow.reference()) {
            return Err("router fingerprint differs from the engine's golden fingerprint".into());
        }
        Ok(Fleet { router, backends, key })
    }

    /// The in-process handle of the backend that owns the golden.
    pub fn owner(&self) -> BenchResult<&ServeHandle> {
        let label = self
            .router
            .handle()
            .rank_labels(self.key)
            .into_iter()
            .next()
            .ok_or("the fleet ranks no backend for the golden")?;
        let index: usize = label
            .strip_prefix("local-")
            .and_then(|id| id.parse().ok())
            .ok_or_else(|| format!("unexpected backend label {label}"))?;
        Ok(&self.backends[index])
    }

    /// Wasted-work counters from a public metrics scrape: router failovers
    /// (summed over backends), refreshes on miss, and serving errors (summed
    /// over request families).
    pub fn wasted_work(&self) -> WastedWork {
        WastedWork::scrape(&self.router.handle().metrics())
    }
}

/// Counters that must not move while a workload runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WastedWork {
    pub failovers: u64,
    pub refresh_on_miss: u64,
    pub serve_errors: u64,
}

impl WastedWork {
    pub fn scrape(snapshot: &dsig_obs::MetricsSnapshot) -> WastedWork {
        let mut wasted = WastedWork::default();
        for (name, value) in &snapshot.metrics {
            let dsig_obs::MetricValue::Counter(count) = value else {
                continue;
            };
            if name.starts_with("router.backend.") && name.ends_with(".failovers") {
                wasted.failovers += count;
            } else if name == "router.refresh_on_miss" {
                wasted.refresh_on_miss += count;
            } else if name.starts_with("serve.errors.") {
                wasted.serve_errors += count;
            }
        }
        wasted
    }

    pub fn since(self, earlier: WastedWork) -> WastedWork {
        WastedWork {
            failovers: self.failovers.saturating_sub(earlier.failovers),
            refresh_on_miss: self.refresh_on_miss.saturating_sub(earlier.refresh_on_miss),
            serve_errors: self.serve_errors.saturating_sub(earlier.serve_errors),
        }
    }

    pub fn total(self) -> u64 {
        self.failovers + self.refresh_on_miss + self.serve_errors
    }
}

/// A lot workload: trays of 32 devices through a 1-worker campaign runner,
/// scored locally (`lot_noiseless`) or through the router fleet with
/// adaptive retest (`lot_noisy_retest`).
pub struct Lot {
    pub product: Product,
    pub trays: Vec<Campaign>,
    pub runner: CampaignRunner,
    pub retest: bool,
    pub fleet: Option<Fleet>,
    pub client: Option<PipelinedRouterClient>,
    /// First report seen per tray; every later run of the tray must equal it.
    pub first: FirstReports,
}

/// The first report of every tray of a lot's cycle.
pub struct FirstReports(Vec<Option<CampaignReport>>);

impl FirstReports {
    /// Records the first report of op `op`'s tray and checks later runs of
    /// the tray against it.
    pub fn check(&mut self, op: usize, report: CampaignReport) -> bool {
        let cycle = self.0.len();
        let slot = &mut self.0[op % cycle];
        match slot {
            Some(first) => reports_identical(first, &report),
            None => {
                *slot = Some(report);
                true
            }
        }
    }
}

impl Lot {
    pub fn bring_up(workload: Workload, seed: u64) -> BenchResult<Lot> {
        let retest = workload == Workload::LotNoisyRetest;
        let product = Product::bring_up(retest)?;
        let cycle = if retest { RETEST_TRAY_CYCLE } else { TRAY_CYCLE };
        let trays = (0..cycle)
            .map(|t| product.tray(seed, t))
            .collect::<BenchResult<Vec<_>>>()?;
        let mut runner = CampaignRunner::with_threads(1);
        let (fleet, client) = if retest {
            runner = runner.with_retest(product.policy.clone()).with_chunk_size(REMOTE_CHUNK);
            let fleet = Fleet::spawn(&product)?;
            let client = PipelinedRouterClient::connect(fleet.router.local_addr())?;
            (Some(fleet), Some(client))
        } else {
            (None, None)
        };
        let mut lot = Lot {
            product,
            trays,
            runner,
            retest,
            fleet,
            client,
            first: FirstReports(vec![None; cycle]),
        };
        for op in 0..WARMUP_OPS {
            let report = lot.run_op(op)?;
            if !lot.first.check(op, report) {
                return Err(format!("warm-up tray {op} diverged from its first run").into());
            }
        }
        Ok(lot)
    }

    /// Op `op`: the next tray of the cycle.
    pub fn run_op(&self, op: usize) -> BenchResult<CampaignReport> {
        self.run_tray(op % self.trays.len())
    }

    /// Runs tray `tray` through the runner.
    pub fn run_tray(&self, tray: usize) -> BenchResult<CampaignReport> {
        let campaign = &self.trays[tray];
        Ok(match &self.client {
            Some(client) => self.runner.run_with_target(campaign, ScoreTarget::Remote(client))?,
            None => self.runner.run(campaign)?,
        })
    }

    /// Audits every tray seen against a 1-worker per-device local reference
    /// (`with_batching(false)`, same retest policy). Returns the number of
    /// trays whose report differs.
    pub fn audit(&self) -> BenchResult<(usize, usize)> {
        let mut reference = CampaignRunner::with_threads(1).with_batching(false);
        if self.retest {
            reference = reference.with_retest(self.product.policy.clone());
        }
        let mut checked = 0;
        let mut mismatched = 0;
        for (tray, first) in self.first.0.iter().enumerate() {
            let Some(first) = first else { continue };
            checked += 1;
            if !reports_identical(first, &reference.run(&self.trays[tray])?) {
                mismatched += 1;
                println!("audit: tray {tray} differs from the per-device local reference");
            }
        }
        Ok((checked, mismatched))
    }

    pub fn wasted_work(&self) -> WastedWork {
        match &self.fleet {
            Some(fleet) => fleet.wasted_work(),
            None => WastedWork::scrape(&dsig_obs::Registry::global().snapshot()),
        }
    }
}

/// Report equality with every NDF compared bit for bit.
pub fn reports_identical(a: &CampaignReport, b: &CampaignReport) -> bool {
    a == b && results_identical(&a.results, &b.results)
}

/// Per-device result equality with every NDF compared bit for bit.
pub fn results_identical(a: &[DeviceResult], b: &[DeviceResult]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x == y
                && x.ndf.to_bits() == y.ndf.to_bits()
                && x.retest.map(|r| r.initial_ndf.to_bits()) == y.retest.map(|r| r.initial_ndf.to_bits())
        })
}

/// A screening workload: one blocking TCP connection to the router fleet,
/// one request in flight, requests cut from a signature pool captured at
/// set-up with its expected scores.
pub struct Screens {
    pub product: Product,
    pub fleet: Fleet,
    pub client: RouterClient,
    pub pool_trays: Vec<Campaign>,
    pub requests: Vec<Vec<Signature>>,
    pub expected: Vec<Vec<ScoreResult>>,
}

impl Screens {
    pub fn bring_up(workload: Workload, seed: u64) -> BenchResult<Screens> {
        let batch = if workload == Workload::ScreenBulk {
            BULK_BATCH
        } else {
            1
        };
        let product = Product::bring_up(false)?;
        let fleet = Fleet::spawn(&product)?;
        // Pool capture through the engine, tray by tray, on one worker.
        let pool_runner = CampaignRunner::with_threads(1);
        let mut pool_trays = Vec::with_capacity(POOL_TRAYS);
        let mut pool = Vec::with_capacity(POOL_TRAYS * TRAY_DEVICES);
        for tray in 0..POOL_TRAYS {
            let campaign = product.tray(seed, tray)?;
            let (_, log) = pool_runner.run_logged(&campaign)?;
            pool.extend(log.entries().iter().map(|(_, signature)| signature.clone()));
            pool_trays.push(campaign);
        }
        let requests: Vec<Vec<Signature>> = pool.chunks(batch).map(<[Signature]>::to_vec).collect();
        let expected = requests
            .iter()
            .map(|request| request.iter().map(|s| product.score(s)).collect::<Result<Vec<_>, _>>())
            .collect::<Result<Vec<_>, _>>()?;
        let client = RouterClient::connect(fleet.router.local_addr())?;
        let mut screens = Screens {
            product,
            fleet,
            client,
            pool_trays,
            requests,
            expected,
        };
        for op in 0..WARMUP_OPS {
            let scores = screens.call(op)?;
            if screens.mismatches(op, &scores) > 0 {
                return Err(format!("warm-up request {op} diverged from local scoring").into());
            }
        }
        Ok(screens)
    }

    pub fn request_index(&self, op: usize) -> usize {
        op % self.requests.len()
    }

    /// One op: screen request `op` over the blocking TCP connection.
    pub fn call(&mut self, op: usize) -> BenchResult<Vec<ScoreResult>> {
        let at = self.request_index(op);
        Ok(self.client.screen(self.fleet.key, &self.requests[at])?)
    }

    /// Scores of op `op` that differ from local scoring.
    pub fn mismatches(&self, op: usize, scores: &[ScoreResult]) -> usize {
        score_mismatches(&self.expected[self.request_index(op)], scores)
    }
}

/// Scores that differ from the expected ones (NDF bits, peak Hamming
/// distance or outcome); a wrong result count counts every expected score.
pub fn score_mismatches(expected: &[ScoreResult], scores: &[ScoreResult]) -> usize {
    if scores.len() != expected.len() {
        return expected.len().max(1);
    }
    scores
        .iter()
        .zip(expected)
        .filter(|(a, b)| !scores_identical(a, b))
        .count()
}

pub fn scores_identical(a: &ScoreResult, b: &ScoreResult) -> bool {
    a.ndf.to_bits() == b.ndf.to_bits() && a.peak_hamming == b.peak_hamming && a.outcome == b.outcome
}

/// A brought-up workload.
pub enum System {
    Lot(Box<Lot>),
    Screens(Box<Screens>),
}

impl System {
    pub fn bring_up(workload: Workload, seed: u64) -> BenchResult<System> {
        Ok(if workload.is_lot() {
            System::Lot(Box::new(Lot::bring_up(workload, seed)?))
        } else {
            System::Screens(Box::new(Screens::bring_up(workload, seed)?))
        })
    }

    pub fn product(&self) -> &Product {
        match self {
            System::Lot(lot) => &lot.product,
            System::Screens(screens) => &screens.product,
        }
    }

    pub fn wasted_work(&self) -> WastedWork {
        match self {
            System::Lot(lot) => lot.wasted_work(),
            System::Screens(screens) => screens.fleet.wasted_work(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brings a workload up (which runs and checks the warm-up ops) and runs
    /// a few more ops through the same checks the timed phase uses.
    fn tiny_run(workload: Workload, seed: u64) -> System {
        let mut system = System::bring_up(workload, seed).unwrap();
        for op in WARMUP_OPS..WARMUP_OPS + 4 {
            match &mut system {
                System::Lot(lot) => {
                    let report = lot.run_op(op).unwrap();
                    assert!(lot.first.check(op, report), "{} op {op}", workload.name());
                }
                System::Screens(screens) => {
                    let scores = screens.call(op).unwrap();
                    assert_eq!(screens.mismatches(op, &scores), 0, "{} op {op}", workload.name());
                }
            }
        }
        system
    }

    #[test]
    fn every_workload_passes_its_verdict_audit() {
        for workload in Workload::ALL {
            let system = tiny_run(workload, 5);
            if let System::Lot(lot) = &system {
                let (checked, mismatched) = lot.audit().unwrap();
                assert_eq!(checked, (WARMUP_OPS + 4).min(lot.trays.len()), "{}", workload.name());
                assert_eq!(mismatched, 0, "{}", workload.name());
            }
            assert_eq!(system.wasted_work().total(), 0, "{}", workload.name());
        }
    }

    #[test]
    fn the_audit_catches_a_changed_verdict() {
        let System::Lot(mut lot) = tiny_run(Workload::LotNoiseless, 6) else {
            unreachable!("a lot workload brings up a lot")
        };
        let report = lot.first.0[0].as_mut().unwrap();
        report.results[0].ndf = f64::from_bits(report.results[0].ndf.to_bits() ^ 1);
        assert_eq!(lot.audit().unwrap().1, 1, "a one-ulp NDF change must fail the audit");
        // A later run of that tray no longer matches its (tampered) first run.
        let again = lot.run_tray(0).unwrap();
        assert!(!lot.first.check(TRAY_CYCLE, again));
    }

    #[test]
    fn the_screen_check_catches_a_changed_score() {
        let System::Screens(mut screens) = tiny_run(Workload::ScreenOne, 7) else {
            unreachable!("a screen workload brings up screens")
        };
        let mut scores = screens.call(0).unwrap();
        assert_eq!(screens.mismatches(0, &scores), 0);
        scores[0].ndf = f64::from_bits(scores[0].ndf.to_bits() ^ 1);
        assert_eq!(screens.mismatches(0, &scores), 1);
        assert_eq!(screens.mismatches(0, &[]), 1, "a missing score is a mismatch");
    }

    #[test]
    fn workload_inputs_come_from_the_seed_only() {
        let product = Product::bring_up(false).unwrap();
        let a = product.tray(9, 3).unwrap();
        let b = product.tray(9, 3).unwrap();
        assert_eq!(a.base_seed, mix_seed(9, 3));
        assert_eq!(a.device(5).unwrap(), b.device(5).unwrap());
        assert_ne!(a.device(5).unwrap(), product.tray(10, 3).unwrap().device(5).unwrap());
        for workload in Workload::ALL {
            assert_eq!(Workload::parse(workload.name()), Some(workload));
        }
        assert_eq!(Workload::parse("lot"), None);
    }

    #[test]
    fn wasted_work_sums_the_named_counters() {
        let snapshot = dsig_obs::MetricsSnapshot {
            metrics: vec![
                (
                    "router.backend.local-0.failovers".into(),
                    dsig_obs::MetricValue::Counter(2),
                ),
                (
                    "router.backend.local-1.failovers".into(),
                    dsig_obs::MetricValue::Counter(3),
                ),
                (
                    "router.backend.local-1.forwards".into(),
                    dsig_obs::MetricValue::Counter(99),
                ),
                ("router.refresh_on_miss".into(), dsig_obs::MetricValue::Counter(1)),
                ("serve.errors.dsrq".into(), dsig_obs::MetricValue::Counter(4)),
                ("serve.errors.decode".into(), dsig_obs::MetricValue::Counter(1)),
                ("serve.requests.dsrq".into(), dsig_obs::MetricValue::Counter(50)),
            ],
        };
        let wasted = WastedWork::scrape(&snapshot);
        assert_eq!(
            wasted,
            WastedWork {
                failovers: 5,
                refresh_on_miss: 1,
                serve_errors: 5
            }
        );
        assert_eq!(wasted.since(WastedWork::default()).total(), 11);
        assert_eq!(wasted.since(wasted).total(), 0);
    }
}
