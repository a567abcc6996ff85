//! Serving-layer load generator: hammers a loopback `dsig-serve` server with
//! concurrent clients at several batch sizes and reports request throughput,
//! signature throughput and p50/p95/p99 latency, for both the TCP path and
//! the in-process `ServeHandle` path.
//!
//! Run with `cargo run --release -p repro-bench --bin serve_throughput`
//! (append `-- --smoke` for the abbreviated CI run, `--json <path>` to
//! write the machine-readable `BENCH_serve_throughput.json` artifact,
//! `--metrics <path>` to scrape the server's metrics over TCP (`DSMX`)
//! after the load and write the rendered snapshot, and `--trace <path>` to
//! drive a short sampled load, scrape the server's spans over `DSTX` and
//! write the rendered span trees).

use std::sync::Arc;
use std::time::{Duration, Instant};

use cut_filters::BiquadParams;
use dsig_core::{AcceptanceBand, Signature, TestSetup};
use dsig_engine::{available_threads, Campaign, CampaignRunner, DevicePopulation};
use dsig_obs::trace::{self, Tracer};
use dsig_obs::TraceTree;
use dsig_serve::{GoldenStore, ServeClient, ServeConfig, Server};
use repro_bench::banner;
use repro_bench::smoke::{report, run_mux_shape, BenchOutput, Load, MUX_MIN_SPEEDUP};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let smoke = std::env::args().any(|arg| arg == "--smoke");
    banner(
        "serve_throughput",
        "loopback scoring service: concurrent clients, batched screening requests",
    );
    let load = Load::for_mode(smoke);

    // Characterize one golden and capture a pool of realistic signatures via
    // a small Monte-Carlo campaign (the capture cost stays out of the timed
    // region — production testers upload already-captured signatures).
    let setup = TestSetup::paper_default()?.with_sample_rate(repro_bench::REPRO_SAMPLE_RATE)?;
    let reference = BiquadParams::paper_default();
    let band = AcceptanceBand::new(0.03)?;
    let store = Arc::new(GoldenStore::new());
    let key = store.characterize(&setup, &reference, band)?;
    let campaign = Campaign::new(
        setup,
        reference,
        DevicePopulation::MonteCarlo {
            devices: load.signatures,
            sigma_pct: 3.0,
        },
        band,
        3.0,
    )?
    .with_seed(7);
    let (_, log) = CampaignRunner::new().run_logged(&campaign)?;
    let pool: Arc<Vec<Signature>> = Arc::new(log.entries().iter().map(|(_, s)| s.clone()).collect());

    let shards = available_threads();
    let server = Server::bind("127.0.0.1:0", Arc::clone(&store), ServeConfig::with_shards(shards))?;
    let addr = server.local_addr();
    println!(
        "{} distinct signatures, {} shards, {} clients x {} requests per batch size\n",
        pool.len(),
        shards,
        load.clients,
        load.requests_per_client
    );
    let mut output = BenchOutput::new("serve_throughput", smoke);
    output.config("signatures", pool.len());
    output.config("shards", shards);
    output.config("clients", load.clients);
    output.config("requests_per_client", load.requests_per_client);

    for batch in [1usize, 8, 64] {
        // TCP path: each client owns one connection and issues batched
        // requests drawn round-robin from the signature pool.
        let start = Instant::now();
        let latencies: Vec<Duration> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..load.clients)
                .map(|client_index| {
                    let pool = Arc::clone(&pool);
                    let load = &load;
                    scope.spawn(move || -> Result<Vec<Duration>, dsig_serve::ServeError> {
                        let client = ServeClient::connect(addr)?;
                        let mut times = Vec::with_capacity(load.requests_per_client);
                        for request in 0..load.requests_per_client {
                            let at = (client_index + request * load.clients) % pool.len();
                            let mut slice: Vec<Signature> = Vec::with_capacity(batch);
                            for k in 0..batch {
                                slice.push(pool[(at + k) % pool.len()].clone());
                            }
                            let sent = Instant::now();
                            let results = client.screen(key, &slice)?;
                            times.push(sent.elapsed());
                            assert_eq!(results.len(), batch);
                        }
                        Ok(times)
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|worker| worker.join().expect("client thread panicked").expect("client failed"))
                .collect()
        });
        output.paths.push(report("tcp", batch, latencies, start.elapsed()));

        // In-process path: same shards, no sockets or framing.
        let handle = server.handle();
        let start = Instant::now();
        let latencies: Vec<Duration> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..load.clients)
                .map(|client_index| {
                    let pool = Arc::clone(&pool);
                    let handle = handle.clone();
                    let load = &load;
                    scope.spawn(move || -> Result<Vec<Duration>, dsig_serve::ServeError> {
                        let mut times = Vec::with_capacity(load.requests_per_client);
                        for request in 0..load.requests_per_client {
                            let at = (client_index + request * load.clients) % pool.len();
                            let mut slice: Vec<Signature> = Vec::with_capacity(batch);
                            for k in 0..batch {
                                slice.push(pool[(at + k) % pool.len()].clone());
                            }
                            let sent = Instant::now();
                            let results = handle.screen(key, &slice)?;
                            times.push(sent.elapsed());
                            assert_eq!(results.len(), batch);
                        }
                        Ok(times)
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|worker| worker.join().expect("handle thread panicked").expect("handle failed"))
                .collect()
        });
        output
            .paths
            .push(report("in-process", batch, latencies, start.elapsed()));
    }

    // The many-tester single-connection shape: the same server, one TCP
    // connection, the pipelined multiplexed client vs the blocking
    // one-in-flight client — the speedup the smoke gate asserts below.
    let mux_speedup = run_mux_shape(addr, key, &pool, smoke, &mut output);

    println!("\nserver scored {} signatures total", server.signatures_scored());
    if let Some(path) = repro_bench::smoke::json_path_from_args() {
        output.save(&path)?;
        println!("wrote {}", path.display());
    }
    // Scrape the server's metrics over TCP (`DSMX`) after the load — the
    // second artifact CI uploads next to the JSON.
    if let Some(path) = repro_bench::smoke::metrics_path_from_args() {
        let snapshot = ServeClient::connect(addr)?.metrics()?;
        repro_bench::smoke::save_text(&path, &snapshot.render())?;
        println!("wrote {}", path.display());
    }
    // A short sampled load (outside every timed region — the throughput runs
    // above carry no trace context), then scrape the server's spans over TCP
    // (`DSTX`) and write the rendered trees — the third artifact CI uploads.
    if let Some(path) = repro_bench::smoke::trace_path_from_args() {
        let tracer = Tracer::default();
        let client = ServeClient::connect(addr)?;
        client.traces()?; // discard the spans left by the pool-capture campaign
        for request in 0..3usize {
            let slice: Vec<Signature> = (0..64).map(|k| pool[(request * 64 + k) % pool.len()].clone()).collect();
            let _sampled = trace::with_context(tracer.start_trace());
            client.screen(key, &slice)?;
        }
        let log = client.traces()?;
        let trees = TraceTree::build(&log.spans);
        let mut text = format!(
            "{} spans in {} traces scraped over DSTX after a sampled 3x64 load\n",
            log.spans.len(),
            trees.len()
        );
        for tree in &trees {
            text.push('\n');
            text.push_str(&tree.render());
        }
        repro_bench::smoke::save_text(&path, &text)?;
        println!("wrote {}", path.display());
    }
    if smoke {
        // CI gate: multiplexing must hide the per-request round trip — the
        // pipelined client beats the blocking one on the same connection.
        assert!(
            mux_speedup >= MUX_MIN_SPEEDUP,
            "multiplexed single-connection throughput ({mux_speedup:.2}x) fell below \
             the {MUX_MIN_SPEEDUP}x gate over the blocking path"
        );
        println!("--smoke gate: multiplexed >= {MUX_MIN_SPEEDUP}x blocking on one connection: OK");
    }
    Ok(())
}
