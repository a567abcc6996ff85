//! Error type for the monitor crate.

use std::fmt;

use sim_spice::SpiceError;

/// Errors produced while configuring or evaluating X-Y zoning monitors.
#[derive(Debug, Clone, PartialEq)]
pub enum MonitorError {
    /// A monitor configuration is invalid (wrong widths, empty partition, ...).
    InvalidConfig(String),
    /// No boundary crossing was found inside the observation window for a
    /// given abscissa.
    BoundaryNotFound {
        /// The x value for which no boundary crossing exists in the window.
        x: f64,
    },
    /// An underlying circuit simulation failed.
    Spice(SpiceError),
}

impl fmt::Display for MonitorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MonitorError::InvalidConfig(msg) => write!(f, "invalid monitor configuration: {msg}"),
            MonitorError::BoundaryNotFound { x } => {
                write!(f, "no zone boundary crossing found at x = {x}")
            }
            MonitorError::Spice(err) => write!(f, "circuit simulation failed: {err}"),
        }
    }
}

impl std::error::Error for MonitorError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MonitorError::Spice(err) => Some(err),
            _ => None,
        }
    }
}

impl From<SpiceError> for MonitorError {
    fn from(err: SpiceError) -> Self {
        MonitorError::Spice(err)
    }
}

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, MonitorError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(MonitorError::InvalidConfig("x".into()).to_string().contains("x"));
        assert!(MonitorError::BoundaryNotFound { x: 0.5 }.to_string().contains("0.5"));
        let spice = MonitorError::from(SpiceError::InvalidAnalysis("out".into()));
        assert!(spice.to_string().contains("out"));
    }

    #[test]
    fn source_is_exposed_for_spice_errors() {
        use std::error::Error;
        let err = MonitorError::from(SpiceError::SingularMatrix { row: 1 });
        assert!(err.source().is_some());
        assert!(MonitorError::InvalidConfig("x".into()).source().is_none());
    }
}
