//! Error type of both serving tiers.

use std::fmt;

use dsig_core::DsigError;

use crate::proto::ErrorCode;

/// Errors produced by the golden store, the wire protocol, the server, the
/// client and the routing tier.
#[derive(Debug)]
pub enum ServeError {
    /// A socket or filesystem operation failed.
    Io(std::io::Error),
    /// Signature capture, decoding or comparison failed.
    Dsig(DsigError),
    /// A request referenced a golden fingerprint the store does not hold.
    UnknownGolden(u64),
    /// A peer violated the wire protocol (bad frame, oversized payload,
    /// unexpected response kind).
    Protocol(String),
    /// The server reported an error for a request (the rendered remote
    /// message, as received over the wire).
    Remote(String),
    /// The backend has shut down (a killed backend) and can no longer
    /// accept work.
    Closed,
    /// Every backend in a routing tier's rendezvous ranking failed the
    /// request.
    AllBackendsFailed {
        /// The golden fingerprint being routed.
        key: u64,
        /// One rendered failure per attempted backend, rank order.
        detail: String,
    },
}

impl ServeError {
    /// Collapses this error into the core error vocabulary — how serving-tier
    /// failures surface from code that speaks [`dsig_core::Result`], like the
    /// engine's remote scoring target ([`dsig_engine::RemoteScorer`]).
    /// Scoring errors unwrap to their inner [`DsigError`]; everything else
    /// (transport, protocol, unknown goldens) becomes [`DsigError::Remote`]
    /// with the rendered message.
    pub fn into_dsig(self) -> DsigError {
        match self {
            ServeError::Dsig(err) => err,
            other => DsigError::Remote(other.to_string()),
        }
    }

    /// The wire code this error travels as in an error reply: an unknown
    /// golden as `UnknownGolden`, an invalid request or configuration (an
    /// admin verb a peer rejects) as `BadRequest`, the rest as `Internal`.
    pub fn code(&self) -> ErrorCode {
        match self {
            ServeError::UnknownGolden(_) => ErrorCode::UnknownGolden,
            ServeError::Dsig(DsigError::InvalidConfig(_)) => ErrorCode::BadRequest,
            _ => ErrorCode::Internal,
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(err) => write!(f, "i/o failed: {err}"),
            ServeError::Dsig(err) => write!(f, "scoring failed: {err}"),
            ServeError::UnknownGolden(key) => {
                write!(f, "no golden signature stored under fingerprint {key:#018x}")
            }
            ServeError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            ServeError::Remote(msg) => write!(f, "server reported an error: {msg}"),
            ServeError::Closed => write!(f, "the scoring backend has shut down"),
            ServeError::AllBackendsFailed { key, detail } => {
                write!(f, "every backend failed for fingerprint {key:#018x}: {detail}")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(err) => Some(err),
            ServeError::Dsig(err) => Some(err),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(err: std::io::Error) -> Self {
        ServeError::Io(err)
    }
}

impl From<DsigError> for ServeError {
    fn from(err: DsigError) -> Self {
        ServeError::Dsig(err)
    }
}

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, ServeError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_sources() {
        use std::error::Error;
        let e: ServeError = std::io::Error::new(std::io::ErrorKind::ConnectionReset, "reset").into();
        assert!(e.to_string().contains("reset"));
        assert!(e.source().is_some());
        let e: ServeError = DsigError::InvalidSignature("empty".into()).into();
        assert!(e.to_string().contains("empty"));
        assert!(e.source().is_some());
        assert!(ServeError::UnknownGolden(0xABCD)
            .to_string()
            .contains("0x000000000000abcd"));
        assert!(ServeError::Protocol("bad frame".into())
            .to_string()
            .contains("bad frame"));
        assert!(ServeError::Remote("boom".into()).to_string().contains("boom"));
        assert!(ServeError::Closed.to_string().contains("shut down"));
        assert!(ServeError::Closed.source().is_none());
    }

    /// The routing tier's failures and the one map from errors to wire
    /// codes.
    #[test]
    fn display_sources_and_conversions() {
        use std::error::Error;
        let all = ServeError::AllBackendsFailed {
            key: 1,
            detail: "b0: closed; b1: closed".into(),
        };
        assert!(all.to_string().contains("every backend failed"), "{all}");
        assert!(all.to_string().contains("b0: closed; b1: closed"), "{all}");
        assert!(all.source().is_none());
        assert_eq!(all.code(), ErrorCode::Internal);
        assert!(matches!(all.into_dsig(), DsigError::Remote(msg) if msg.contains("every backend failed")));
        assert_eq!(ServeError::UnknownGolden(9).code(), ErrorCode::UnknownGolden);
        assert_eq!(ServeError::Closed.code(), ErrorCode::Internal);
        let rejected: ServeError = DsigError::InvalidConfig("unknown backend".into()).into();
        assert_eq!(
            rejected.code(),
            ErrorCode::BadRequest,
            "a rejected admin verb is the caller's fault"
        );
        assert!(matches!(rejected.into_dsig(), DsigError::InvalidConfig(_)));
        let e: ServeError = std::io::Error::new(std::io::ErrorKind::ConnectionRefused, "refused").into();
        assert_eq!(e.code(), ErrorCode::Internal);
        assert!(matches!(e.into_dsig(), DsigError::Remote(msg) if msg.contains("refused")));
    }

    #[test]
    fn into_dsig_unwraps_scoring_errors_and_wraps_the_rest() {
        let inner = DsigError::InvalidSignature("empty".into());
        assert_eq!(ServeError::Dsig(inner.clone()).into_dsig(), inner);
        match ServeError::UnknownGolden(7).into_dsig() {
            DsigError::Remote(msg) => assert!(msg.contains("0x0000000000000007"), "{msg}"),
            other => panic!("expected Remote, got {other:?}"),
        }
        assert!(matches!(ServeError::Closed.into_dsig(), DsigError::Remote(_)));
    }
}
