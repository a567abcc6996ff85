//! `dsig_top` — a live fleet console over the observability frames: polls a
//! serving or routing tier's aggregated metrics (`DSFM`) and health verdict
//! (`DSHC`) on an interval and renders a plain-text per-backend table of
//! request and error rates, latency quantiles, queue depth, and the
//! PASS/DEGRADED/FAIL verdict.
//!
//! Two ways to point it at a fleet:
//!
//! - `--addr HOST:PORT` attaches to any running `dsig-serve` or
//!   `dsig-router` process (the console only reads idempotent frames, so it
//!   never perturbs the tier it watches beyond the scrape itself).
//! - `--spawn N` stands up a self-contained demo: a loopback router over
//!   `N` in-process backends, a characterized golden, and a screening load
//!   driven between samples — and, in `--once` mode, a kill of the golden's
//!   owner backend mid-interval so the capture shows the failover seams:
//!   a DEGRADED verdict, a backed-off backend, and the structured events
//!   the transitions emit.
//!
//! `--once` takes exactly two samples, renders one table, and exits — the
//! shape CI uses to capture a `TOP_*.txt` artifact. Screens that fail after
//! the demo kill are part of the demo: they are counted, and the table shows
//! them (with one backend, the kill takes the whole fleet down and the
//! verdict is FAIL). `--out <path>` writes the final table and
//! `--events <path>` drains the fleet's structured event log (`DSEX`) to a
//! file on exit; both create missing parent directories.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cut_filters::BiquadParams;
use dsig_core::{AcceptanceBand, Signature, TestSetup};
use dsig_engine::{Campaign, CampaignRunner, DevicePopulation};
use dsig_obs::{HealthReport, MetricsSnapshot};
use dsig_router::{Backend, Router, RouterConfig, RouterStore};
use dsig_serve::{GoldenStore, ServeClient, ServeConfig, ServeError, Server};
use repro_bench::top::render_fleet_table;

/// Screening requests the demo fleet drives per console sample.
const DEMO_REQUESTS: usize = 6;

const USAGE: &str = "usage: dsig_top (--addr HOST:PORT | --spawn N) \
                     [--interval-ms N] [--once] [--out PATH] [--events PATH]";

struct Args {
    addr: Option<String>,
    spawn: Option<usize>,
    interval_ms: u64,
    once: bool,
    out: Option<PathBuf>,
    events: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: None,
        spawn: None,
        interval_ms: 1000,
        once: false,
        out: None,
        events: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--addr" => args.addr = Some(it.next().ok_or("--addr needs HOST:PORT")?),
            "--spawn" => {
                let n = it.next().ok_or("--spawn needs a backend count")?;
                args.spawn = Some(n.parse().map_err(|e| format!("--spawn {n:?}: {e}"))?);
            }
            "--interval-ms" => {
                let ms = it.next().ok_or("--interval-ms needs a number")?;
                args.interval_ms = ms.parse().map_err(|e| format!("--interval-ms {ms:?}: {e}"))?;
            }
            "--once" => args.once = true,
            "--out" => args.out = Some(PathBuf::from(it.next().ok_or("--out needs a path")?)),
            "--events" => args.events = Some(PathBuf::from(it.next().ok_or("--events needs a path")?)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    match (&args.addr, &args.spawn) {
        (None, None) => Err("pass --addr HOST:PORT or --spawn N".to_string()),
        (Some(_), Some(_)) => Err("--addr and --spawn are mutually exclusive".to_string()),
        _ => Ok(args),
    }
}

/// The self-contained `--spawn` fleet: a loopback router fronting real TCP
/// backend servers (each with its own metrics registry, so every `DSFM`
/// scrape shows genuinely per-backend counters), one characterized golden,
/// and a signature pool to screen.
struct DemoFleet {
    router: Router,
    /// The backend servers, in backend-index order; kept alive for the
    /// console's lifetime, and individually shut down to demo a failure.
    servers: Vec<Server>,
    pool: Vec<Signature>,
    key: u64,
    /// The golden's owner backend label (its `host:port`) — the one a
    /// `--once` capture kills so the table and event log show the failover
    /// machinery.
    owner: String,
}

impl DemoFleet {
    fn spawn(backends: usize) -> Result<DemoFleet, Box<dyn std::error::Error>> {
        let setup = TestSetup::paper_default()?.with_sample_rate(repro_bench::REPRO_SAMPLE_RATE)?;
        let reference = BiquadParams::paper_default();
        let band = AcceptanceBand::new(0.03)?;
        // A small Monte-Carlo lot gives the load realistic, distinct
        // signatures without the cost of a full campaign.
        let campaign = Campaign::new(
            setup.clone(),
            reference,
            DevicePopulation::MonteCarlo {
                devices: 24,
                sigma_pct: 3.0,
            },
            band,
            3.0,
        )?
        .with_seed(7);
        let (_, log) = CampaignRunner::new().run_logged(&campaign)?;
        let pool: Vec<Signature> = log.entries().iter().map(|(_, s)| s.clone()).collect();
        let servers: Vec<Server> = (0..backends.max(1))
            .map(|_| {
                Server::bind_in(
                    "127.0.0.1:0",
                    Arc::new(GoldenStore::new()),
                    ServeConfig::with_shards(2),
                    dsig_obs::Registry::new(),
                )
            })
            .collect::<Result<_, _>>()?;
        let fleet: Vec<Backend> = servers.iter().map(|server| Backend::tcp(server.local_addr())).collect();
        let router = Router::bind("127.0.0.1:0", fleet, RouterStore::new(), RouterConfig::default())?;
        let key = router.handle().characterize(&setup, &reference, band)?;
        let owner = router.handle().rank_labels(key)[0].clone();
        Ok(DemoFleet {
            router,
            servers,
            pool,
            key,
            owner,
        })
    }

    /// Screens the `request`-th small batch of the pool, so the next sample
    /// has rates to show.
    fn screen(&self, client: &ServeClient, request: usize) -> Result<(), ServeError> {
        let batch: Vec<Signature> = (0..8)
            .map(|k| self.pool[(request * 8 + k) % self.pool.len()].clone())
            .collect();
        client.screen(self.key, &batch).map(drop)
    }

    /// Takes the golden's owner backend down for real: stop its listener
    /// (so a fresh dial is refused), then kill the member at the router,
    /// which refuses its work until a revive — the server keeps serving the
    /// connection the router already holds — so the failover machinery
    /// engages.
    fn kill_owner(&mut self) {
        if let Some(server) = self
            .servers
            .iter_mut()
            .find(|server| server.local_addr().to_string() == self.owner)
        {
            server.shutdown();
        }
        self.router
            .handle()
            .kill(&self.owner)
            .expect("the owner label came from the live membership");
    }
}

/// Writes `text` to `path`, creating missing parent directories.
fn save_text(path: &std::path::Path, text: &str) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, text)
}

/// One console sample: the aggregated fleet scrape plus the health verdict
/// (which carries the membership epoch). Serve and router answer both
/// alike, so either tier can sit behind the console.
fn sample(client: &ServeClient) -> Result<(MetricsSnapshot, HealthReport), ServeError> {
    Ok((client.fleet_metrics()?, client.health()?))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = parse_args().unwrap_or_else(|err| {
        eprintln!("dsig_top: {err}\n{USAGE}");
        std::process::exit(2);
    });
    let mut demo = match args.spawn {
        Some(backends) => Some(DemoFleet::spawn(backends)?),
        None => None,
    };
    let addr: std::net::SocketAddr = match (&demo, &args.addr) {
        (Some(demo), _) => demo.router.local_addr(),
        (None, Some(addr)) => addr.parse()?,
        (None, None) => unreachable!("parse_args enforces one of --addr/--spawn"),
    };
    let client = ServeClient::connect(addr)?;

    let mut prev = sample(&client)?.0;
    let mut prev_at = Instant::now();
    let mut tick = 0u64;
    let mut last_table;
    let mut demo_note = String::new();
    loop {
        tick += 1;
        if let Some(demo) = demo.as_mut() {
            for request in 0..DEMO_REQUESTS {
                demo.screen(&client, request)?;
            }
            if args.once {
                // Make a single capture interesting: kill the golden's
                // owner and screen through the failover path, so the table
                // shows a backed-off backend and a degraded verdict, and
                // the event log records the transitions. A screen the kill
                // fails is part of the demo, not a console error.
                demo.kill_owner();
                let failed = (0..DEMO_REQUESTS)
                    .filter(|&request| demo.screen(&client, request).is_err())
                    .count();
                demo_note = format!(
                    "demo: killed {}; {failed} of {DEMO_REQUESTS} screens failed after the kill\n",
                    demo.owner
                );
            }
        }
        std::thread::sleep(Duration::from_millis(args.interval_ms));
        let (curr, health) = sample(&client)?;
        let now = Instant::now();
        let dt = now.duration_since(prev_at).as_secs_f64();
        last_table = render_fleet_table(&prev, &curr, dt, &health) + &demo_note;
        println!("-- dsig_top {addr} tick {tick} (dt {dt:.2}s)");
        println!("{last_table}");
        prev = curr;
        prev_at = now;
        if args.once {
            break;
        }
    }

    if let Some(demo) = &demo {
        // Lift the demo kill and clear its failure record (the listener
        // itself stays down; the console exits right after), so the drained
        // event log also carries the operator-recovery edge.
        demo.router.handle().revive(&demo.owner)?;
    }
    if let Some(path) = &args.events {
        let log = client.events()?;
        save_text(path, &log.render())?;
        println!("wrote {} ({} events)", path.display(), log.events.len());
    }
    if let Some(path) = &args.out {
        save_text(path, &last_table)?;
        println!("wrote {}", path.display());
    }
    Ok(())
}
