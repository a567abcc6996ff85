//! Error types for the circuit simulator.

use std::fmt;

/// Errors produced while building or simulating a circuit.
#[derive(Debug, Clone, PartialEq)]
pub enum SpiceError {
    /// A matrix operation failed because the system is singular
    /// (e.g. a floating node or a loop of ideal voltage sources).
    SingularMatrix {
        /// Row index at which elimination failed.
        row: usize,
    },
    /// Newton-Raphson iteration did not converge within the iteration limit.
    ConvergenceFailure {
        /// The analysis that failed ("dc", "transient", ...).
        analysis: &'static str,
        /// Number of iterations attempted.
        iterations: usize,
        /// Residual norm at the last iteration.
        residual: f64,
    },
    /// A device was declared with an invalid parameter (negative resistance
    /// magnitude of zero, non-positive W or L, ...).
    InvalidParameter {
        /// Device or parameter name.
        what: String,
        /// Human readable explanation.
        message: String,
    },
    /// An analysis was requested with an invalid configuration
    /// (e.g. a non-positive time step or an empty frequency list).
    InvalidAnalysis(String),
}

impl fmt::Display for SpiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpiceError::SingularMatrix { row } => {
                write!(f, "singular MNA matrix at row {row} (floating node or source loop)")
            }
            SpiceError::ConvergenceFailure {
                analysis,
                iterations,
                residual,
            } => write!(
                f,
                "{analysis} analysis failed to converge after {iterations} iterations (residual {residual:.3e})"
            ),
            SpiceError::InvalidParameter { what, message } => {
                write!(f, "invalid parameter for {what}: {message}")
            }
            SpiceError::InvalidAnalysis(msg) => write!(f, "invalid analysis setup: {msg}"),
        }
    }
}

impl std::error::Error for SpiceError {}

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, SpiceError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_singular() {
        let e = SpiceError::SingularMatrix { row: 3 };
        assert!(e.to_string().contains("row 3"));
    }

    #[test]
    fn display_convergence() {
        let e = SpiceError::ConvergenceFailure {
            analysis: "dc",
            iterations: 100,
            residual: 1e-3,
        };
        let s = e.to_string();
        assert!(s.contains("dc"));
        assert!(s.contains("100"));
    }

    #[test]
    fn display_invalid_parameter() {
        let e = SpiceError::InvalidParameter {
            what: "R1".into(),
            message: "resistance must be finite".into(),
        };
        assert!(e.to_string().contains("R1"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error + Send + Sync>() {}
        assert_err::<SpiceError>();
    }
}
