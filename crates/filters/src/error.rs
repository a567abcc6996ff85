//! Error type for the CUT (filter) crate.

use std::fmt;

use sim_signal::SignalError;
use sim_spice::SpiceError;

/// Errors produced while building or simulating circuits under test.
#[derive(Debug, Clone, PartialEq)]
pub enum FilterError {
    /// An invalid filter parameter (non-positive f0, Q, gain, ...).
    InvalidParameter(String),
    /// An underlying circuit simulation failed.
    Spice(SpiceError),
    /// A signal-processing operation failed.
    Signal(SignalError),
}

impl fmt::Display for FilterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FilterError::InvalidParameter(msg) => write!(f, "invalid filter parameter: {msg}"),
            FilterError::Spice(err) => write!(f, "circuit simulation failed: {err}"),
            FilterError::Signal(err) => write!(f, "signal processing failed: {err}"),
        }
    }
}

impl std::error::Error for FilterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FilterError::Spice(err) => Some(err),
            FilterError::Signal(err) => Some(err),
            FilterError::InvalidParameter(_) => None,
        }
    }
}

impl From<SpiceError> for FilterError {
    fn from(err: SpiceError) -> Self {
        FilterError::Spice(err)
    }
}

impl From<SignalError> for FilterError {
    fn from(err: SignalError) -> Self {
        FilterError::Signal(err)
    }
}

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, FilterError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        use std::error::Error;
        let e = FilterError::InvalidParameter("bad".into());
        assert!(e.to_string().contains("bad"));
        assert!(e.source().is_none());
        let e = FilterError::from(SpiceError::InvalidAnalysis("x".into()));
        assert!(e.source().is_some());
        let e = FilterError::from(SignalError::TooShort { len: 0, needed: 2 });
        assert!(e.to_string().contains("signal"));
    }
}
