//! Circuit analyses: DC operating point, transient and AC small-signal.

mod ac;
mod dc;
mod stamp;
mod transient;

pub use ac::{ac_sweep, ac_sweep_at, log_frequency_grid, AcResult};
pub use dc::{dc_operating_point, dc_operating_point_at_time, NewtonOptions, OperatingPoint};
pub use stamp::ReactiveState;
pub use transient::{transient, TransientConfig, TransientResult};
