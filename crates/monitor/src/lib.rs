//! # xy-monitor
//!
//! The on-chip X-Y zoning monitor of *"Analog Circuit Test Based on a Digital
//! Signature"* (DATE 2010), reproduced at two abstraction levels:
//!
//! * a **behavioural model** ([`CurrentComparator`]) based on the square-law
//!   current balance of the four input transistors, used for fast boundary
//!   tracing and signature generation;
//! * a **transistor-level netlist** ([`netlist`]) of the Fig. 2 differential
//!   structure solved with the `sim-spice` MNA engine, used to cross-validate
//!   the behavioural boundaries.
//!
//! On top of the single monitor the crate provides the six Table I
//! configurations ([`table1`]), boundary-curve extraction ([`boundary`]),
//! multi-monitor zone partitions ([`ZonePartition`]), the process/mismatch
//! Monte Carlo model used for the Fig. 4 envelope ([`variation`]) and a
//! first-order layout area model ([`area`]).
//!
//! # Examples
//!
//! ```
//! use xy_monitor::ZonePartition;
//!
//! # fn main() -> Result<(), xy_monitor::MonitorError> {
//! // The six-monitor partition of Table I / Fig. 6.
//! let partition = ZonePartition::paper_default()?;
//! assert_eq!(partition.bits(), 6);
//! // Every (x, y) point maps to a 6-bit zone code.
//! let code = partition.zone_code(0.4, 0.7);
//! assert!(code < 64);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod area;
pub mod boundary;
pub mod comparator;
pub mod error;
pub mod netlist;
pub mod table1;
pub mod variation;
pub mod zoner;

pub use area::AreaModel;
pub use boundary::{boundary_y_at, trace_boundary, BoundaryCurve, Window};
pub use comparator::{CurrentComparator, MonitorInput};
pub use error::{MonitorError, Result};
pub use table1::{comparator_for_row, table1_comparators, table1_rows, Table1Row, MONITOR_VDD};
pub use variation::{monte_carlo_envelope, BoundaryEnvelope, ProcessVariation};
pub use zoner::{hamming_distance, ZonePartition};

// The comparator's public `transistors` field is made of `MosParams`, so the
// transistor model (and the current law the boundaries derive from) is part
// of this crate's API surface; re-export both so downstream crates don't need
// a direct `sim-spice` dependency to evaluate monitor branch currents (the
// drive/gain split and the thermal voltage its exponentials divide by
// included).
pub use sim_spice::devices::{saturation_current, GateDrive, GateGain, MosParams, MosPolarity, THERMAL_VOLTAGE};
