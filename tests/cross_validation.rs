//! Cross-validation between the abstraction levels: analytic transfer
//! function, RK4 state-space model, Tow-Thomas op-amp netlist on the MNA
//! simulator, and behavioural vs transistor-level monitors.

use analog_signature::filters::{BiquadParams, StateSpaceSim, TowThomasDesign};
use analog_signature::monitor::{boundary_y_at, netlist, table1_comparators, Window};
use analog_signature::signal::{tone_amplitude_projection, MultitoneSpec, Waveform};
use analog_signature::spice::{ac_sweep, transient, SourceWaveform, Tone, TransientConfig};

#[test]
fn tow_thomas_ac_response_matches_analytic_across_the_band() {
    let params = BiquadParams::paper_default();
    let design = TowThomasDesign::from_params(&params).expect("design");
    let built = design
        .build_netlist(SourceWaveform::Sine {
            offset: 0.0,
            amplitude: 1.0,
            frequency_hz: 1e3,
            phase_rad: 0.0,
        })
        .expect("netlist");
    let freqs = analog_signature::spice::log_frequency_grid(100.0, 1e6, 25);
    let res = ac_sweep(&built.circuit, &freqs).expect("ac");
    for (i, &f) in freqs.iter().enumerate() {
        let circuit = res.phasor(i, built.lowpass).abs();
        let analytic = params.magnitude(f);
        assert!(
            (circuit - analytic).abs() <= 0.02 * analytic.max(1e-3),
            "at {f} Hz: circuit {circuit} vs analytic {analytic}"
        );
    }
}

#[test]
fn tow_thomas_transient_attenuates_tones_like_the_transfer_function() {
    // Drive the op-amp netlist with the paper's multitone stimulus and check
    // the per-tone amplitudes at the low-pass output against |H(jw)|.
    let params = BiquadParams::paper_default();
    let stimulus = MultitoneSpec::paper_default();
    let design = TowThomasDesign::from_params(&params).expect("design");
    let src = SourceWaveform::Multitone {
        offset: stimulus.offset(),
        tones: stimulus
            .tones()
            .iter()
            .map(|t| Tone {
                amplitude: t.amplitude,
                frequency_hz: stimulus.fundamental_hz() * t.harmonic as f64,
                phase_rad: t.phase_rad,
            })
            .collect(),
    };
    let built = design.build_netlist(src).expect("netlist");
    // Simulate 3 periods, keep the last one (settled).
    let period = stimulus.period();
    let config = TransientConfig::new(3.0 * period, period / 2000.0).with_record_from(2.0 * period);
    let result = transient(&built.circuit, &config).expect("transient");
    let out = Waveform::from_samples(result.times(), result.voltage(built.lowpass)).expect("waveform");

    for tone in stimulus.tones() {
        let f = stimulus.fundamental_hz() * tone.harmonic as f64;
        let expected = tone.amplitude * params.magnitude(f);
        let measured = tone_amplitude_projection(&out, f).expect("spectrum");
        assert!(
            (measured - expected).abs() < 0.05 * expected + 0.01,
            "tone at {f} Hz: measured {measured} vs expected {expected}"
        );
    }
}

#[test]
fn rk4_and_analytic_agree_on_the_paper_stimulus() {
    let params = BiquadParams::paper_default();
    let stimulus = MultitoneSpec::paper_default();
    let sim = StateSpaceSim::new(params, 5e-8).expect("sim");
    let simulated = sim.simulate_multitone(&stimulus, 8, 1);
    let analytic = params.steady_state_response(&stimulus, 1, simulated.sample_rate());
    let n = analytic.len().min(simulated.len());
    let mut max_err = 0.0_f64;
    for k in 0..n {
        max_err = max_err.max((analytic.samples()[k] - simulated.samples()[k]).abs());
    }
    assert!(max_err < 0.01, "max deviation between RK4 and analytic: {max_err} V");
}

#[test]
fn behavioural_and_transistor_level_monitors_agree_on_boundaries() {
    let comparators = table1_comparators().expect("table 1");
    let window = Window::unit();
    // Check a few abscissas on two representative curves (one negative-slope
    // arc and the diagonal).
    for (idx, xs) in [(2usize, vec![0.35, 0.5, 0.6]), (5usize, vec![0.4, 0.6, 0.8])] {
        let m = &comparators[idx];
        for x in xs {
            let behavioural = boundary_y_at(m, x, &window).expect("behavioural boundary");
            let circuit = netlist::netlist_boundary_y_at(m, x, &window).expect("netlist boundary");
            assert!(
                (behavioural - circuit).abs() < 0.08,
                "curve {} at x = {x}: behavioural {behavioural} vs netlist {circuit}",
                idx + 1
            );
        }
    }
}

#[test]
fn filter_output_stays_inside_the_monitor_observation_window() {
    // The whole method relies on the Lissajous staying inside [0,1]x[0,1] V.
    let stimulus = MultitoneSpec::paper_default();
    for shift in [-20.0, -10.0, 0.0, 10.0, 20.0] {
        let params = BiquadParams::paper_default().with_f0_shift_pct(shift);
        let y = params.steady_state_response(&stimulus, 1, 1e6);
        assert!(
            y.min() >= 0.0 && y.max() <= 1.0,
            "shift {shift}%: range [{}, {}]",
            y.min(),
            y.max()
        );
    }
}
