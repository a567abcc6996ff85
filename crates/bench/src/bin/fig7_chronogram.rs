//! Fig. 7 reproduction: chronograms of the golden and +10 % f0 digital
//! signatures (decimal-coded zone value vs time) and the Hamming-distance
//! chronogram, together with the resulting NDF.
//!
//! The paper reports NDF = 0.1021 for this experiment.
//!
//! Run with: `cargo run -p repro-bench --bin fig7_chronogram`

use cut_filters::Fault;
use dsig_core::{hamming_chronogram, ndf};
use repro_bench::{banner, paper_flow};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    banner(
        "Fig. 7 — signature chronograms and Hamming distance for a +10% f0 shift",
        "Paper reference value: NDF = 0.1021.",
    );

    let flow = paper_flow()?;
    let golden = flow.golden().clone();
    let defective_params = Fault::F0ShiftPct(10.0).apply_to_params(flow.reference())?;
    let observed = flow.setup().signature_of(&defective_params, 7)?;

    println!(
        "\nGolden signature   : {} zone traversals over {:.1} us",
        golden.len(),
        golden.total_duration() * 1e6
    );
    println!(
        "Defective signature: {} zone traversals over {:.1} us",
        observed.len(),
        observed.total_duration() * 1e6
    );

    println!("\nChronogram (decimal coded zone value, sampled every 4 us):");
    println!("{:>10} {:>10} {:>10} {:>10}", "t (us)", "golden", "defect", "dH");
    // Counts of the capture clock's tick, converted to microseconds to print.
    let us = |count: u32| f64::from(count) * golden.unit() * 1e6;
    let samples = 50;
    for k in 0..samples {
        let at = (u64::from(golden.total_count()) * k / samples) as u32;
        let g = golden.code_at(at);
        let o = observed.code_at(at);
        println!(
            "{:>10.1} {:>10} {:>10} {:>10}",
            us(at),
            g.value(),
            o.value(),
            g.hamming_distance(o)
        );
    }

    let segments = hamming_chronogram(&golden, &observed)?;
    let nonzero: Vec<_> = segments.iter().filter(|s| s.distance > 0).collect();
    println!("\nHamming-distance segments with non-zero distance:");
    println!("{:>12} {:>12} {:>10}", "from (us)", "to (us)", "distance");
    for s in &nonzero {
        println!("{:>12.2} {:>12.2} {:>10}", us(s.start), us(s.end), s.distance);
    }

    let value = ndf(&golden, &observed)?;
    let peak = segments.iter().map(|s| s.distance).max().unwrap_or(0);
    println!("\nNDF (this reproduction)  = {value:.4}");
    println!("NDF (paper, Fig. 7)      = 0.1021");
    println!("peak Hamming distance    = {peak} (the paper observes a peak of 2)");
    Ok(())
}
