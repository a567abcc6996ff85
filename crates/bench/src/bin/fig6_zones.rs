//! Fig. 6 reproduction: zone codification of the X-Y plane by the six
//! monitors, and the zone sequences traversed by the golden and +10 % f0
//! Lissajous compositions.
//!
//! Run with: `cargo run -p repro-bench --bin fig6_zones`

use cut_filters::BiquadParams;
use dsig_core::{capture_signature, CaptureClock};
use repro_bench::{banner, REPRO_SAMPLE_RATE};
use sim_signal::MultitoneSpec;
use xy_monitor::ZonePartition;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    banner(
        "Fig. 6 — zone codification and the golden / +10% f0 Lissajous traversals",
        "Zone codes are 6-bit words, one bit per Table I monitor; neighbouring zones differ in one bit.",
    );

    let partition = ZonePartition::paper_default()?;

    // Zone map of the observation window.
    println!("\nZone code map (decimal) on a 13 x 13 grid of the [0,1]x[0,1] V window:");
    print!("{:>6}", "y\\x");
    for i in 0..13 {
        print!("{:>5.2}", i as f64 / 12.0);
    }
    println!();
    for j in (0..13).rev() {
        let y = j as f64 / 12.0;
        print!("{y:>6.2}");
        for i in 0..13 {
            let x = i as f64 / 12.0;
            print!("{:>5}", partition.zone_code(x, y));
        }
        println!();
    }
    println!(
        "\ndistinct zones on a 60x60 grid: {}",
        partition.distinct_zones_on_grid(60)
    );

    // Zone sequences of the golden and defective trajectories.
    let stimulus = MultitoneSpec::paper_default();
    let golden_params = BiquadParams::paper_default();
    let defective_params = golden_params.with_f0_shift_pct(10.0);
    let clock = CaptureClock::paper_default();

    for (name, params) in [("golden", golden_params), ("+10% f0", defective_params)] {
        let x = stimulus.sample(1, REPRO_SAMPLE_RATE);
        let y = params.steady_state_response(&stimulus, 1, REPRO_SAMPLE_RATE);
        let signature = capture_signature(&partition, &x, &y, Some(&clock))?;
        println!(
            "\n{name} trajectory: {} zone traversals, {} distinct zones",
            signature.len(),
            signature.distinct_zones()
        );
        println!(
            "{:>4} {:>10} {:>10} {:>12}",
            "#", "code (bin)", "code (dec)", "dwell (us)"
        );
        for (k, entry) in signature.entries().iter().enumerate() {
            println!(
                "{:>4} {:>10} {:>10} {:>12.2}",
                k + 1,
                entry.code.to_binary_string(partition.bits()),
                entry.code.value(),
                f64::from(entry.count) * signature.unit() * 1e6
            );
        }
    }
    Ok(())
}
