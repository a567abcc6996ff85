//! Time-domain waveforms for independent voltage sources.

/// One sinusoidal component of a multitone source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tone {
    /// Peak amplitude in volts.
    pub amplitude: f64,
    /// Frequency in hertz.
    pub frequency_hz: f64,
    /// Initial phase in radians.
    pub phase_rad: f64,
}

impl Tone {
    /// Instantaneous value of the tone at time `t` (seconds).
    pub fn value(&self, t: f64) -> f64 {
        self.amplitude * (2.0 * std::f64::consts::PI * self.frequency_hz * t + self.phase_rad).sin()
    }
}

/// The waveform driven by an independent source.
#[derive(Debug, Clone, PartialEq)]
pub enum SourceWaveform {
    /// Constant value.
    Dc(f64),
    /// `offset + amplitude * sin(2*pi*f*t + phase)`.
    Sine {
        /// DC offset.
        offset: f64,
        /// Peak amplitude.
        amplitude: f64,
        /// Frequency in hertz.
        frequency_hz: f64,
        /// Initial phase in radians.
        phase_rad: f64,
    },
    /// A DC offset plus a sum of sinusoidal tones (the paper's multitone stimulus).
    Multitone {
        /// DC offset.
        offset: f64,
        /// Tone list.
        tones: Vec<Tone>,
    },
    /// A trapezoidal pulse train.
    Pulse {
        /// Value before the pulse and after the period wraps.
        low: f64,
        /// Value during the pulse.
        high: f64,
        /// Delay before the first rising edge, seconds.
        delay: f64,
        /// Rise time, seconds.
        rise: f64,
        /// Fall time, seconds.
        fall: f64,
        /// Pulse width (time spent at `high`), seconds.
        width: f64,
        /// Repetition period, seconds.
        period: f64,
    },
    /// Piece-wise linear waveform given as `(time, value)` breakpoints.
    ///
    /// Values before the first breakpoint hold the first value; values after
    /// the last breakpoint hold the last value.
    Pwl(Vec<(f64, f64)>),
}

impl SourceWaveform {
    /// Evaluates the waveform at time `t` seconds.
    pub fn value(&self, t: f64) -> f64 {
        match self {
            SourceWaveform::Dc(v) => *v,
            SourceWaveform::Sine {
                offset,
                amplitude,
                frequency_hz,
                phase_rad,
            } => offset + amplitude * (2.0 * std::f64::consts::PI * frequency_hz * t + phase_rad).sin(),
            SourceWaveform::Multitone { offset, tones } => offset + tones.iter().map(|tone| tone.value(t)).sum::<f64>(),
            SourceWaveform::Pulse {
                low,
                high,
                delay,
                rise,
                fall,
                width,
                period,
            } => {
                if t < *delay {
                    return *low;
                }
                let tau = (t - delay) % period.max(f64::MIN_POSITIVE);
                if tau < *rise {
                    low + (high - low) * tau / rise.max(f64::MIN_POSITIVE)
                } else if tau < rise + width {
                    *high
                } else if tau < rise + width + fall {
                    high - (high - low) * (tau - rise - width) / fall.max(f64::MIN_POSITIVE)
                } else {
                    *low
                }
            }
            SourceWaveform::Pwl(points) => {
                if points.is_empty() {
                    return 0.0;
                }
                if t <= points[0].0 {
                    return points[0].1;
                }
                for pair in points.windows(2) {
                    let (t0, v0) = pair[0];
                    let (t1, v1) = pair[1];
                    if t <= t1 {
                        if t1 - t0 <= 0.0 {
                            return v1;
                        }
                        return v0 + (v1 - v0) * (t - t0) / (t1 - t0);
                    }
                }
                points[points.len() - 1].1
            }
        }
    }

    /// The DC (t = 0, transient-free) value used by operating-point analysis.
    ///
    /// Sinusoidal and multitone sources contribute only their offset; pulse
    /// sources contribute their `low` level; PWL sources their first value.
    pub fn dc_value(&self) -> f64 {
        match self {
            SourceWaveform::Dc(v) => *v,
            SourceWaveform::Sine { offset, .. } => *offset,
            SourceWaveform::Multitone { offset, .. } => *offset,
            SourceWaveform::Pulse { low, .. } => *low,
            SourceWaveform::Pwl(points) => points.first().map(|p| p.1).unwrap_or(0.0),
        }
    }

    /// AC small-signal magnitude used by AC analysis (1.0 for every
    /// non-DC source, 0.0 for DC sources).
    pub fn ac_magnitude(&self) -> f64 {
        match self {
            SourceWaveform::Dc(_) => 0.0,
            _ => 1.0,
        }
    }
}

impl From<f64> for SourceWaveform {
    fn from(v: f64) -> Self {
        SourceWaveform::Dc(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dc_is_constant() {
        let w = SourceWaveform::Dc(1.8);
        assert_eq!(w.value(0.0), 1.8);
        assert_eq!(w.value(1.0), 1.8);
        assert_eq!(w.dc_value(), 1.8);
        assert_eq!(w.ac_magnitude(), 0.0);
    }

    #[test]
    fn sine_hits_peak_at_quarter_period() {
        let w = SourceWaveform::Sine {
            offset: 0.5,
            amplitude: 0.4,
            frequency_hz: 1000.0,
            phase_rad: 0.0,
        };
        let quarter = 1.0 / 1000.0 / 4.0;
        assert!((w.value(quarter) - 0.9).abs() < 1e-9);
        assert!((w.value(0.0) - 0.5).abs() < 1e-12);
        assert_eq!(w.dc_value(), 0.5);
    }

    #[test]
    fn multitone_sums_components() {
        let w = SourceWaveform::Multitone {
            offset: 0.5,
            tones: [(0.1, 1000.0), (0.2, 3000.0)]
                .map(|(amplitude, frequency_hz)| Tone {
                    amplitude,
                    frequency_hz,
                    phase_rad: 0.0,
                })
                .to_vec(),
        };
        // At t=0 all sines are zero.
        assert!((w.value(0.0) - 0.5).abs() < 1e-12);
        // Periodic with the fundamental (1 kHz here).
        assert!((w.value(1e-3 + 1.234e-4) - w.value(1.234e-4)).abs() < 1e-9);
    }

    #[test]
    fn pulse_levels() {
        let w = SourceWaveform::Pulse {
            low: 0.0,
            high: 1.0,
            delay: 1e-6,
            rise: 1e-9,
            fall: 1e-9,
            width: 1e-6,
            period: 4e-6,
        };
        assert_eq!(w.value(0.0), 0.0);
        assert!((w.value(1.5e-6) - 1.0).abs() < 1e-12);
        assert!((w.value(3.5e-6) - 0.0).abs() < 1e-12);
        // Second period behaves like the first.
        assert!((w.value(5.5e-6) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pwl_interpolates() {
        let w = SourceWaveform::Pwl(vec![(0.0, 0.0), (1.0, 2.0), (2.0, 2.0)]);
        assert_eq!(w.value(-1.0), 0.0);
        assert!((w.value(0.5) - 1.0).abs() < 1e-12);
        assert_eq!(w.value(1.5), 2.0);
        assert_eq!(w.value(10.0), 2.0);
    }

    #[test]
    fn pwl_empty_is_zero() {
        let w = SourceWaveform::Pwl(vec![]);
        assert_eq!(w.value(1.0), 0.0);
        assert_eq!(w.dc_value(), 0.0);
    }

    #[test]
    fn from_f64_builds_dc() {
        let w: SourceWaveform = 3.3.into();
        assert_eq!(w, SourceWaveform::Dc(3.3));
    }

    #[test]
    fn tone_value_is_sine() {
        let tone = Tone {
            amplitude: 2.0,
            frequency_hz: 10.0,
            phase_rad: std::f64::consts::FRAC_PI_2,
        };
        assert!((tone.value(0.0) - 2.0).abs() < 1e-12);
    }
}
