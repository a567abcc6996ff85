//! Zone partitions: a bank of monitors that maps every `(x, y)` point to an
//! n-bit digital zone code (Fig. 6 of the paper).

use crate::comparator::CurrentComparator;
use crate::error::{MonitorError, Result};
use crate::table1::table1_comparators;

/// A bank of monitors dividing the X-Y plane into zones.
///
/// Monitor `i` contributes bit `i` of the zone code; crossing a single
/// boundary flips a single monitor, so neighbouring zones always differ in
/// exactly one bit — the property that makes the Hamming distance a natural
/// discrepancy measure (§IV-B).
#[derive(Debug, Clone, PartialEq)]
pub struct ZonePartition {
    monitors: Vec<CurrentComparator>,
}

impl ZonePartition {
    /// Creates a partition from a bank of monitors.
    ///
    /// # Errors
    /// Returns [`MonitorError::InvalidConfig`] for an empty bank or for more
    /// than 32 monitors (zone codes are stored in a `u32`).
    pub fn new(monitors: Vec<CurrentComparator>) -> Result<Self> {
        if monitors.is_empty() {
            return Err(MonitorError::InvalidConfig(
                "a zone partition needs at least one monitor".into(),
            ));
        }
        if monitors.len() > 32 {
            return Err(MonitorError::InvalidConfig(format!(
                "at most 32 monitors are supported (got {})",
                monitors.len()
            )));
        }
        Ok(ZonePartition { monitors })
    }

    /// The six-monitor partition of Table I / Fig. 6 — the configuration used
    /// by all the paper's signature experiments.
    ///
    /// # Errors
    /// Propagates monitor construction errors (none occur for the published values).
    pub fn paper_default() -> Result<Self> {
        Self::new(table1_comparators()?)
    }

    /// Number of monitors (bits in the zone code).
    pub fn bits(&self) -> usize {
        self.monitors.len()
    }

    /// The monitors of the partition.
    pub fn monitors(&self) -> &[CurrentComparator] {
        &self.monitors
    }

    /// The zone code of an `(x, y)` observation point: bit `i` is the digital
    /// output of monitor `i`.
    pub fn zone_code(&self, x: f64, y: f64) -> u32 {
        let mut code = 0u32;
        for (i, monitor) in self.monitors.iter().enumerate() {
            if monitor.output(x, y) {
                code |= 1 << i;
            }
        }
        code
    }

    /// Number of *distinct* zone codes observed on a uniform `grid x grid`
    /// sampling of the window. This is a lower bound on the number of zones
    /// the partition creates.
    pub fn distinct_zones_on_grid(&self, grid: usize) -> usize {
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..grid {
            for j in 0..grid {
                let x = i as f64 / (grid.max(2) - 1) as f64;
                let y = j as f64 / (grid.max(2) - 1) as f64;
                seen.insert(self.zone_code(x, y));
            }
        }
        seen.len()
    }

    /// Checks the Gray-code adjacency property along a straight segment: the
    /// maximum Hamming distance between consecutive sample codes. With a
    /// sufficiently fine sampling this should be 1 (a segment cannot cross two
    /// boundaries between consecutive samples unless they intersect).
    pub fn max_adjacent_hamming(&self, from: (f64, f64), to: (f64, f64), samples: usize) -> u32 {
        let mut max_d = 0;
        let mut prev = None;
        for i in 0..samples {
            let t = i as f64 / (samples.max(2) - 1) as f64;
            let x = from.0 + (to.0 - from.0) * t;
            let y = from.1 + (to.1 - from.1) * t;
            let code = self.zone_code(x, y);
            if let Some(p) = prev {
                let d = hamming_distance(p, code);
                if d > max_d {
                    max_d = d;
                }
            }
            prev = Some(code);
        }
        max_d
    }
}

/// Hamming distance between two zone codes.
pub fn hamming_distance(a: u32, b: u32) -> u32 {
    (a ^ b).count_ones()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comparator::{CurrentComparator, MonitorInput};
    use sim_spice::devices::MosParams;

    fn paper() -> ZonePartition {
        ZonePartition::paper_default().unwrap()
    }

    #[test]
    fn hamming_distance_basics() {
        assert_eq!(hamming_distance(0, 0), 0);
        assert_eq!(hamming_distance(0b101, 0b100), 1);
        assert_eq!(hamming_distance(0b111111, 0), 6);
    }

    #[test]
    fn empty_partition_rejected() {
        assert!(ZonePartition::new(vec![]).is_err());
    }

    #[test]
    fn paper_partition_has_six_bits() {
        let p = paper();
        assert_eq!(p.bits(), 6);
        assert_eq!(p.monitors().len(), 6);
    }

    #[test]
    fn zone_codes_fit_in_six_bits() {
        let p = paper();
        for i in 0..20 {
            for j in 0..20 {
                let code = p.zone_code(i as f64 / 19.0, j as f64 / 19.0);
                assert!(code < 64, "code {code} exceeds 6 bits");
            }
        }
    }

    #[test]
    fn partition_creates_many_zones() {
        let p = paper();
        let zones = p.distinct_zones_on_grid(60);
        // Fig. 6 shows on the order of 16 labelled zones; the partition must
        // create a rich set of zones, not collapse to a couple of codes.
        assert!(zones >= 10, "only {zones} distinct zones");
    }

    #[test]
    fn different_corners_get_different_codes() {
        let p = paper();
        let c00 = p.zone_code(0.05, 0.05);
        let c11 = p.zone_code(0.95, 0.95);
        assert_ne!(c00, c11);
    }

    #[test]
    fn adjacent_samples_differ_by_at_most_one_bit() {
        let p = paper();
        // A fine diagonal sweep should never jump by more than 1 bit between
        // consecutive samples unless two boundaries cross exactly between them.
        let d = p.max_adjacent_hamming((0.05, 0.1), (0.95, 0.9), 4000);
        assert!(d <= 2, "adjacent Hamming distance {d}");
    }

    #[test]
    fn single_monitor_partition_has_two_zones() {
        let m = CurrentComparator::with_widths(
            "solo",
            MosParams::nmos_65nm(1.8e-6, 180e-9),
            [1.8e-6; 4],
            [
                MonitorInput::YAxis,
                MonitorInput::XAxis,
                MonitorInput::Dc(0.55),
                MonitorInput::Dc(0.55),
            ],
            1.2,
        )
        .unwrap();
        let p = ZonePartition::new(vec![m]).unwrap();
        assert_eq!(p.bits(), 1);
        assert_eq!(p.distinct_zones_on_grid(40), 2);
    }
}
