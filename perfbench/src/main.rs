//! End-to-end benchmark of the capture-to-verdict chain.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the workload is brought up (several times; set-up time
//! is their median), driven closed-loop from one process for `--seconds`,
//! audited bit for bit against local `TestFlow` scoring, and its end-to-end
//! metrics are printed. With `--trace 1` the same workload and seed are
//! re-driven through each layer's public calls and the per-layer ledger is
//! printed instead. The last line of standard output is the JSON result.

mod json;
mod probe;
mod procfs;
mod spans;
mod stats;
mod system;
mod traced;

use std::time::{Duration, Instant};

use json::{Metric, RunResult};
use probe::SpeedProbe;
use stats::{median, relative_spread, LatencyHistogram, WindowRates};
use system::{BenchResult, System, Workload, WARMUP_OPS};

/// Full bring-ups per untraced run: the one the timed phase runs on, and
/// the rest after it (tearing each down again); `setup_s` is their median.
const SETUPS: usize = 9;
/// Windows the timed phase is split into; `verdicts_per_s` is the median
/// window rate.
const RATE_WINDOWS: usize = 20;

/// The end-to-end metrics the untraced run prints, in order, with units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("verdicts_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p95_us", "us"),
    ("cpu_us_per_verdict", "us"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?} (known: {})", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed {value:?}: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The closed-loop timed phase: ops back to back until `seconds` elapse,
/// with the speed probe run between ops. Everything it keeps has fixed size,
/// so the phase's own memory does not depend on how many ops it makes.
struct Phase {
    /// Op latencies at the reference machine speed.
    latency_us: LatencyHistogram,
    /// Op latencies as measured.
    raw_latency_us: LatencyHistogram,
    windows: WindowRates,
    ops: u64,
    verdicts: u64,
    failed: u64,
    cpu_s: f64,
    wall_s: f64,
    /// Machine slowness factor over the phase: the median window's.
    factor: f64,
}

fn timed_phase(system: &mut System, seconds: f64, probe: &mut SpeedProbe) -> Phase {
    let mut phase = Phase {
        latency_us: LatencyHistogram::new(),
        raw_latency_us: LatencyHistogram::new(),
        windows: WindowRates::new(seconds, RATE_WINDOWS),
        ops: 0,
        verdicts: 0,
        failed: 0,
        cpu_s: 0.0,
        wall_s: 0.0,
        factor: 1.0,
    };
    probe.settle();
    let cpu_start = procfs::cpu_seconds();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut op = WARMUP_OPS;
    loop {
        let sent = Instant::now();
        if sent >= deadline {
            break;
        }
        // The op runs between the two timestamps; its check runs after.
        let (done, verdicts) = match system {
            System::Lot(lot) => {
                let report = lot.run_op(op);
                let done = Instant::now();
                let verdicts = match report {
                    Ok(report) => {
                        let devices = report.devices() as u64;
                        if lot.first.check(op, report) {
                            devices
                        } else {
                            println!("op {op}: tray report differs from the tray's first run");
                            0
                        }
                    }
                    Err(e) => {
                        println!("op {op}: {e}");
                        0
                    }
                };
                (done, verdicts)
            }
            System::Screens(screens) => {
                let scores = screens.call(op);
                let done = Instant::now();
                let verdicts = match scores {
                    Ok(scores) if screens.mismatches(op, &scores) == 0 => scores.len() as u64,
                    Ok(_) => {
                        println!("op {op}: a score differs from local scoring");
                        0
                    }
                    Err(e) => {
                        println!("op {op}: {e}");
                        0
                    }
                };
                (done, verdicts)
            }
        };
        if verdicts == 0 {
            phase.failed += 1;
        }
        let (from, to) = ((sent - start).as_secs_f64(), (done - start).as_secs_f64());
        let factor = probe.factor();
        phase.raw_latency_us.record((to - from) * 1e6);
        phase.latency_us.record((to - from) * 1e6 / factor);
        phase.windows.add(from, to, verdicts);
        phase.windows.add_factor(to, factor);
        // Between ops, outside their timing.
        probe.sample_if_due();
        phase.ops += 1;
        phase.verdicts += verdicts;
        phase.wall_s = to;
        op += 1;
    }
    phase.cpu_s = procfs::cpu_seconds() - cpu_start;
    phase.factor = median(&phase.windows.factors()).unwrap_or(1.0);
    phase
}

/// Brings the workload up once. Returns the system with its set-up time as
/// measured and at the reference machine speed (the probe runs just before
/// and just after the bring-up).
fn timed_bring_up(workload: Workload, seed: u64, probe: &mut SpeedProbe) -> BenchResult<(System, f64, f64)> {
    probe.settle();
    let before = probe.factor();
    let started = Instant::now();
    let system = System::bring_up(workload, seed)?;
    let took = started.elapsed().as_secs_f64();
    probe.settle();
    let factor = (before + probe.factor()) / 2.0;
    Ok((system, took, took / factor))
}

/// The untraced run: set-up, timed phase, audit, more set-ups.
fn run_untraced(workload: Workload, seed: u64, seconds: f64) -> BenchResult<RunResult> {
    let mut probe = SpeedProbe::new();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut raw_setups = Vec::with_capacity(SETUPS);
    let (mut system, took, reference) = timed_bring_up(workload, seed, &mut probe)?;
    raw_setups.push(took);
    setups.push(reference);
    let wasted_before = system.wasted_work();
    let phase = timed_phase(&mut system, seconds, &mut probe);
    let wasted = system.wasted_work().since(wasted_before);

    let mut failed = phase.failed;
    if wasted.total() > 0 {
        println!("wasted work during the timed phase: {wasted:?}");
        failed += wasted.total();
    }
    if let System::Lot(lot) = &system {
        let (checked, mismatched) = lot.audit()?;
        println!("audit: {checked} trays checked against the per-device local reference, {mismatched} differ");
        failed += mismatched as u64;
    }
    // Peak memory of one system's whole life: bring-up, timed phase, audit.
    let peak_rss = procfs::peak_rss_mib();
    drop(system);
    for _ in 1..SETUPS {
        let (_, took, reference) = timed_bring_up(workload, seed, &mut probe)?;
        raw_setups.push(took);
        setups.push(reference);
    }

    // Every time and rate below is at the reference machine speed; the raw
    // figures are printed alongside.
    let rates = phase.windows.reference_rates();
    let cpu_per_verdict = if phase.verdicts > 0 {
        phase.cpu_s * 1e6 / phase.verdicts as f64
    } else {
        0.0
    };
    let values = [
        median(&rates).unwrap_or(0.0),
        phase.latency_us.percentile(50.0).unwrap_or(0.0),
        phase.latency_us.percentile(95.0).unwrap_or(0.0),
        cpu_per_verdict / phase.factor,
        peak_rss,
        median(&setups).unwrap_or(0.0),
    ];
    println!(
        "{}: {} ops, {} verdicts in {:.3} s ({:.1}/s overall), cpu {:.3} s",
        workload.name(),
        phase.ops,
        phase.verdicts,
        phase.wall_s,
        phase.verdicts as f64 / phase.wall_s.max(f64::MIN_POSITIVE),
        phase.cpu_s
    );
    println!(
        "machine: slowness factor {:.4} over the phase (median window; probe time / {} us)",
        phase.factor,
        probe::REFERENCE_PROBE_US
    );
    println!(
        "latency: p50 {:.1} us, p95 {:.1} us over {} samples ({} beyond p95); as measured p50 {:.1} us, p95 {:.1} us",
        values[1],
        values[2],
        phase.latency_us.count(),
        phase.latency_us.count_beyond(95.0),
        phase.raw_latency_us.percentile(50.0).unwrap_or(0.0),
        phase.raw_latency_us.percentile(95.0).unwrap_or(0.0)
    );
    let raw_rates = phase.windows.rates();
    println!(
        "rate: median of {RATE_WINDOWS} windows {:.1}/s (as measured {:.1}/s), window spread (IQR/median) {:.4}",
        values[0],
        median(&raw_rates).unwrap_or(0.0),
        relative_spread(&rates).unwrap_or(0.0)
    );
    println!("cpu: {cpu_per_verdict:.3} us per verdict as measured");
    let setup_list: Vec<String> = raw_setups.iter().map(|s| format!("{s:.4}")).collect();
    println!("set-up as measured: {} s", setup_list.join(" "));
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric {
            name: name.to_string(),
            value,
            unit,
        })
        .collect();
    Ok(RunResult {
        correct: failed == 0,
        attempted: phase.ops,
        failed,
        metrics,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let result = if args.trace {
        traced::run(args.workload, args.seed, args.seconds)
    } else {
        run_untraced(args.workload, args.seed, args.seconds)
    };
    match result {
        Ok(result) => println!("{}", result.to_json()),
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn arguments_parse_and_validate() {
        let args = parse_args(&strings(&[
            "--workload",
            "screen_bulk",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            args,
            Args {
                workload: Workload::ScreenBulk,
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
        assert!(parse_args(&strings(&["--workload", "nope", "--seed", "1", "--seconds", "1"])).is_err());
        assert!(parse_args(&strings(&["--workload", "screen_one", "--seed", "1"])).is_err());
        assert!(parse_args(&strings(&["--workload", "screen_one", "--seed", "1", "--seconds", "0"])).is_err());
        assert!(parse_args(&strings(&["--workload", "screen_one", "--seed", "x", "--seconds", "1"])).is_err());
        assert!(parse_args(&strings(&["--workload"])).is_err());
    }

    /// `BENCHMARK.json` at the repository root must name exactly the
    /// workloads this program runs and the metrics it prints, with their units.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).unwrap();
        let spec = json::parse(&text).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(json::Value::as_array)
                .unwrap()
                .iter()
                .map(|entry| {
                    let name = entry.get("name").and_then(json::Value::as_str).unwrap().to_string();
                    let unit = entry
                        .get("unit")
                        .and_then(json::Value::as_str)
                        .unwrap_or("")
                        .to_string();
                    (name, unit)
                })
                .collect()
        };
        let workloads: Vec<String> = names("workloads").into_iter().map(|(name, _)| name).collect();
        let expected: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, expected);
        let pairs = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(names("end_to_end"), pairs(&END_TO_END));
        assert_eq!(names("per_layer"), pairs(&traced::PER_LAYER));
    }
}
