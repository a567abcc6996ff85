//! Error type of the routing tier.

use std::fmt;

use dsig_core::DsigError;
use dsig_serve::ServeError;

/// Errors produced by the router and its backends.
#[derive(Debug)]
pub enum RouterError {
    /// The router was built with an empty backend set.
    NoBackends,
    /// No backend (and not the router's own store) holds the fingerprint.
    UnknownGolden(u64),
    /// Every backend in the rendezvous ranking failed the request. Carries
    /// the per-backend failure summary in rank order.
    AllBackendsFailed {
        /// The golden fingerprint being routed.
        key: u64,
        /// One rendered failure per attempted backend, rank order.
        detail: String,
    },
    /// A backend (or the router's listener) reported a serving-layer error.
    Serve(ServeError),
    /// Local characterization or scoring failed.
    Dsig(DsigError),
    /// A socket operation failed.
    Io(std::io::Error),
}

impl RouterError {
    /// Collapses this error into the core error vocabulary, for code that
    /// speaks [`dsig_core::Result`] (the engine's remote scoring target).
    pub fn into_dsig(self) -> DsigError {
        match self {
            RouterError::Dsig(err) => err,
            RouterError::Serve(err) => err.into_dsig(),
            other => DsigError::Remote(other.to_string()),
        }
    }
}

impl fmt::Display for RouterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouterError::NoBackends => write!(f, "the router has no backends"),
            RouterError::UnknownGolden(key) => {
                write!(f, "no golden signature stored under fingerprint {key:#018x}")
            }
            RouterError::AllBackendsFailed { key, detail } => {
                write!(f, "every backend failed for fingerprint {key:#018x}: {detail}")
            }
            RouterError::Serve(err) => write!(f, "backend error: {err}"),
            RouterError::Dsig(err) => write!(f, "scoring failed: {err}"),
            RouterError::Io(err) => write!(f, "i/o failed: {err}"),
        }
    }
}

impl std::error::Error for RouterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RouterError::Serve(err) => Some(err),
            RouterError::Dsig(err) => Some(err),
            RouterError::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<ServeError> for RouterError {
    fn from(err: ServeError) -> Self {
        match err {
            ServeError::UnknownGolden(key) => RouterError::UnknownGolden(key),
            other => RouterError::Serve(other),
        }
    }
}

impl From<DsigError> for RouterError {
    fn from(err: DsigError) -> Self {
        RouterError::Dsig(err)
    }
}

impl From<std::io::Error> for RouterError {
    fn from(err: std::io::Error) -> Self {
        RouterError::Io(err)
    }
}

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, RouterError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_sources_and_conversions() {
        use std::error::Error;
        assert!(RouterError::NoBackends.to_string().contains("no backends"));
        assert!(RouterError::NoBackends.source().is_none());
        assert!(RouterError::UnknownGolden(0xAB)
            .to_string()
            .contains("0x00000000000000ab"));
        let all = RouterError::AllBackendsFailed {
            key: 1,
            detail: "b0: closed; b1: closed".into(),
        };
        assert!(all.to_string().contains("every backend failed"));
        let e: RouterError = ServeError::Closed.into();
        assert!(e.to_string().contains("backend error"));
        assert!(e.source().is_some());
        // Serve-side unknown goldens normalize onto the router's own variant.
        let e: RouterError = ServeError::UnknownGolden(9).into();
        assert!(matches!(e, RouterError::UnknownGolden(9)));
        let e: RouterError = DsigError::InvalidConfig("x".into()).into();
        assert!(matches!(e.into_dsig(), DsigError::InvalidConfig(_)));
        let e: RouterError = std::io::Error::new(std::io::ErrorKind::ConnectionRefused, "refused").into();
        assert!(matches!(e.into_dsig(), DsigError::Remote(msg) if msg.contains("refused")));
    }
}
