//! Campaign descriptions: *what* population of devices to screen, against
//! which golden setup, with which acceptance band.

use cut_filters::{BiquadParams, Fault};
use dsig_core::{AcceptanceBand, DsigError, Result, TestSetup};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// SplitMix64 finalizer used to derive independent per-device seeds from the
/// campaign seed and the device index. Seeding depends only on `(seed, index)`
/// — never on evaluation order — which is what makes parallel campaign
/// results bit-identical to serial ones.
pub fn mix_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The population of devices a campaign evaluates.
#[derive(Debug, Clone, PartialEq)]
pub enum DevicePopulation {
    /// One device per fault of a fault dictionary (coverage campaigns).
    FaultGrid(Vec<Fault>),
    /// A synthetic production lot: `devices` instances whose `f0` deviation
    /// is Gaussian with the given sigma (percent) — the Table 1 style
    /// Monte-Carlo screening workload.
    MonteCarlo {
        /// Number of devices in the lot.
        devices: usize,
        /// Standard deviation of the `f0` deviation, percent.
        sigma_pct: f64,
    },
    /// One device per listed `f0` deviation (the Fig. 8 sweep as a campaign).
    F0Sweep(Vec<f64>),
}

impl DevicePopulation {
    /// Number of devices in the population.
    pub fn len(&self) -> usize {
        match self {
            DevicePopulation::FaultGrid(faults) => faults.len(),
            DevicePopulation::MonteCarlo { devices, .. } => *devices,
            DevicePopulation::F0Sweep(deviations) => deviations.len(),
        }
    }

    /// Whether the population has no devices.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One concrete device instance of a campaign population, fully determined by
/// the campaign description and the device index.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Index of the device within the campaign.
    pub index: usize,
    /// The (possibly faulty) CUT parameters of this instance.
    pub cut: BiquadParams,
    /// The true `f0` deviation of the instance, percent.
    pub true_deviation_pct: f64,
    /// Human-readable label (fault name, deviation, or device number).
    pub label: String,
    /// Seed for the measurement-noise realisation of this device.
    pub noise_seed: u64,
}

/// A population-scale screening campaign: one golden setup, one reference
/// device, many devices-under-test.
///
/// # Examples
///
/// A fault-coverage campaign over a small dictionary:
///
/// ```
/// use cut_filters::{BiquadParams, ComponentRef, Fault};
/// use dsig_core::{AcceptanceBand, TestSetup};
/// use dsig_engine::{Campaign, CampaignRunner, DevicePopulation};
///
/// # fn main() -> Result<(), dsig_core::DsigError> {
/// let campaign = Campaign::new(
///     TestSetup::paper_default()?.with_sample_rate(1e6)?,
///     BiquadParams::paper_default(),
///     DevicePopulation::FaultGrid(vec![Fault::F0ShiftPct(10.0), Fault::Open(ComponentRef::R1)]),
///     AcceptanceBand::new(0.03)?,
///     3.0,
/// )?;
/// let report = CampaignRunner::with_threads(2).run(&campaign)?;
/// assert_eq!(report.devices(), 2);
/// // Both gross faults are detected.
/// assert_eq!(report.fault_coverage(), Some(1.0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Campaign {
    /// The observation setup shared by every device of the campaign.
    pub setup: TestSetup,
    /// The reference (nominal) CUT the golden signature is captured from.
    pub reference: BiquadParams,
    /// The device population.
    pub population: DevicePopulation,
    /// The PASS/FAIL acceptance band applied to every device NDF.
    pub band: AcceptanceBand,
    /// Devices whose true `f0` deviation is within this tolerance (percent)
    /// are counted as truly good for escape / yield-loss bookkeeping.
    pub tolerance_pct: f64,
    /// Base seed of the campaign; all per-device seeds derive from it.
    pub base_seed: u64,
}

impl Campaign {
    /// Creates a campaign with an explicit acceptance band.
    ///
    /// # Errors
    /// Returns [`DsigError::InvalidConfig`] for an empty population or a
    /// non-finite tolerance.
    pub fn new(
        setup: TestSetup,
        reference: BiquadParams,
        population: DevicePopulation,
        band: AcceptanceBand,
        tolerance_pct: f64,
    ) -> Result<Self> {
        if population.is_empty() {
            return Err(DsigError::InvalidConfig("a campaign needs at least one device".into()));
        }
        if !tolerance_pct.is_finite() || tolerance_pct < 0.0 {
            return Err(DsigError::InvalidConfig(format!(
                "tolerance must be a non-negative percentage (got {tolerance_pct})"
            )));
        }
        Ok(Campaign {
            setup,
            reference,
            population,
            band,
            tolerance_pct,
            base_seed: 0,
        })
    }

    /// Returns a copy with the given base seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Number of devices in the campaign.
    pub fn device_count(&self) -> usize {
        self.population.len()
    }

    /// Materializes device `index` of the population. Deterministic: the
    /// result depends only on the campaign description and the index.
    ///
    /// # Errors
    /// Returns [`DsigError::InvalidConfig`] for an out-of-range index and
    /// propagates fault-application errors for fault-grid populations.
    pub fn device(&self, index: usize) -> Result<DeviceSpec> {
        let count = self.device_count();
        if index >= count {
            return Err(DsigError::InvalidConfig(format!(
                "device index {index} out of range for a {count}-device campaign"
            )));
        }
        // Two decorrelated seed streams per device: parameter draw and
        // measurement noise.
        let param_seed = mix_seed(self.base_seed, index as u64);
        let noise_seed = mix_seed(self.base_seed ^ 0x6e6f_6973_655f_7364, index as u64);

        let (cut, label) = match &self.population {
            DevicePopulation::FaultGrid(faults) => {
                let fault = &faults[index];
                (fault.apply_to_params(&self.reference)?, fault.to_string())
            }
            DevicePopulation::MonteCarlo { sigma_pct, .. } => {
                let mut rng = StdRng::seed_from_u64(param_seed);
                let deviation = sigma_pct * sim_signal::standard_normal(&mut rng);
                (self.reference.with_f0_shift_pct(deviation), format!("mc-{index}"))
            }
            DevicePopulation::F0Sweep(deviations) => {
                let dev = deviations[index];
                (self.reference.with_f0_shift_pct(dev), format!("f0{dev:+.2}%"))
            }
        };
        let true_deviation_pct = cut.f0_deviation_pct(&self.reference);
        Ok(DeviceSpec {
            index,
            cut,
            true_deviation_pct,
            label,
            noise_seed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cut_filters::ComponentRef;

    fn base_campaign(population: DevicePopulation) -> Campaign {
        let setup = TestSetup::paper_default().unwrap();
        Campaign::new(
            setup,
            BiquadParams::paper_default(),
            population,
            AcceptanceBand::new(0.03).unwrap(),
            3.0,
        )
        .unwrap()
    }

    #[test]
    fn population_lengths() {
        assert_eq!(DevicePopulation::FaultGrid(vec![Fault::F0ShiftPct(1.0)]).len(), 1);
        assert_eq!(
            DevicePopulation::MonteCarlo {
                devices: 7,
                sigma_pct: 2.0
            }
            .len(),
            7
        );
        assert_eq!(DevicePopulation::F0Sweep(vec![-1.0, 0.0, 1.0]).len(), 3);
        assert!(DevicePopulation::F0Sweep(vec![]).is_empty());
    }

    #[test]
    fn empty_population_rejected() {
        let setup = TestSetup::paper_default().unwrap();
        assert!(Campaign::new(
            setup,
            BiquadParams::paper_default(),
            DevicePopulation::F0Sweep(vec![]),
            AcceptanceBand::new(0.03).unwrap(),
            3.0,
        )
        .is_err());
    }

    #[test]
    fn invalid_tolerance_rejected() {
        let setup = TestSetup::paper_default().unwrap();
        assert!(Campaign::new(
            setup,
            BiquadParams::paper_default(),
            DevicePopulation::MonteCarlo {
                devices: 1,
                sigma_pct: 1.0
            },
            AcceptanceBand::new(0.03).unwrap(),
            f64::NAN,
        )
        .is_err());
    }

    #[test]
    fn device_specs_are_deterministic_and_indexed() {
        let c = base_campaign(DevicePopulation::MonteCarlo {
            devices: 16,
            sigma_pct: 3.0,
        })
        .with_seed(7);
        let a = c.device(5).unwrap();
        let b = c.device(5).unwrap();
        assert_eq!(a, b);
        let other = c.device(6).unwrap();
        assert_ne!(a.cut, other.cut, "adjacent devices must draw independent parameters");
        assert_ne!(a.noise_seed, other.noise_seed);
        assert!(c.device(16).is_err());
    }

    #[test]
    fn seed_changes_the_monte_carlo_lot() {
        let c7 = base_campaign(DevicePopulation::MonteCarlo {
            devices: 4,
            sigma_pct: 3.0,
        })
        .with_seed(7);
        let c8 = base_campaign(DevicePopulation::MonteCarlo {
            devices: 4,
            sigma_pct: 3.0,
        })
        .with_seed(8);
        assert_ne!(c7.device(0).unwrap().cut, c8.device(0).unwrap().cut);
    }

    #[test]
    fn fault_grid_devices_carry_fault_labels() {
        let c = base_campaign(DevicePopulation::FaultGrid(vec![
            Fault::F0ShiftPct(10.0),
            Fault::Open(ComponentRef::R1),
        ]));
        assert_eq!(c.device(0).unwrap().label, "f0 +10.0%");
        assert_eq!(c.device(1).unwrap().label, "R1 open");
        assert!((c.device(0).unwrap().true_deviation_pct - 10.0).abs() < 1e-9);
    }

    #[test]
    fn sweep_devices_follow_the_listed_deviations() {
        let c = base_campaign(DevicePopulation::F0Sweep(vec![-5.0, 0.0, 5.0]));
        for (i, expected) in [(0usize, -5.0), (1, 0.0), (2, 5.0)] {
            let d = c.device(i).unwrap();
            assert!((d.true_deviation_pct - expected).abs() < 1e-9, "{:?}", d);
        }
    }

    #[test]
    fn mix_seed_decorrelates_indices_and_seeds() {
        let a = mix_seed(1, 0);
        let b = mix_seed(1, 1);
        let c = mix_seed(2, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(mix_seed(1, 0), a);
    }
}
