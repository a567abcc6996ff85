//! Campaign output storage: a compact binary log of observed signatures that
//! can be replayed (re-scored against any golden signature) without rerunning
//! the simulation or touching the tester hardware again.
//!
//! The per-signature encoding lives in `dsig-core`
//! ([`Signature::to_bytes`] / [`Signature::from_bytes`]); this module frames
//! many of them into one buffer with their device indices.

use dsig_core::{ndf_and_peak, wire, Result, Signature};

/// An ordered log of `(device index, observed signature)` pairs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SignatureLog {
    entries: Vec<(u32, Signature)>,
}

impl SignatureLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one observed signature.
    pub fn push(&mut self, device_index: u32, signature: Signature) {
        self.entries.push((device_index, signature));
    }

    /// The logged `(device index, signature)` pairs in insertion order.
    pub fn entries(&self) -> &[(u32, Signature)] {
        &self.entries
    }

    /// Number of logged signatures.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Serializes the log: `DSGL`, a little-endian `u32` count, then per
    /// entry the device index (`u32`), the signature byte length (`u32`) and
    /// the signature bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        wire::to_bytes(self)
    }

    /// Decodes a log produced by [`SignatureLog::to_bytes`].
    ///
    /// Decoding never panics on malformed input: truncation reports
    /// [`dsig_core::DsigError::Truncated`]; a bad magic, an impossible count or trailing
    /// bytes report [`dsig_core::DsigError::Corrupt`]; and embedded-signature errors are
    /// propagated from [`Signature::from_bytes`].
    ///
    /// # Errors
    /// See above.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        wire::from_bytes(bytes)
    }

    /// Replays the log against a golden signature: recomputes the NDF of
    /// every stored signature, returning `(device index, ndf)` pairs. This is
    /// the offline path for re-scoring a stored campaign with a new golden
    /// reference or acceptance band.
    ///
    /// # Errors
    /// Propagates NDF comparison errors.
    pub fn replay(&self, golden: &Signature) -> Result<Vec<(u32, f64)>> {
        self.entries
            .iter()
            .map(|(index, signature)| Ok((*index, ndf_and_peak(golden, signature)?.0)))
            .collect()
    }
}

dsig_core::wire_fields!(SignatureLog { entries }, file: *b"DSGL", None, "signature log");

#[cfg(test)]
mod tests {
    use super::*;
    use dsig_core::{SignatureEntry, ZoneCode};

    /// A signature of 0.1 µs ticks.
    fn sig(codes: &[(u32, u32)]) -> Signature {
        Signature::new(
            1e-7,
            codes
                .iter()
                .map(|&(c, n)| SignatureEntry {
                    code: ZoneCode(c),
                    count: n,
                })
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn log_round_trips_bit_exact() {
        let mut log = SignatureLog::new();
        log.push(0, sig(&[(1, 100), (3, 200)]));
        log.push(7, sig(&[(2, 1_000_000), (6, 1), (2, 30_000_000)]));
        let bytes = log.to_bytes();
        let decoded = SignatureLog::from_bytes(&bytes).unwrap();
        assert_eq!(decoded, log);
        assert_eq!(decoded.len(), 2);
        assert!(!decoded.is_empty());
    }

    #[test]
    fn empty_log_round_trips() {
        let log = SignatureLog::new();
        let decoded = SignatureLog::from_bytes(&log.to_bytes()).unwrap();
        assert!(decoded.is_empty());
    }

    #[test]
    fn corrupted_logs_are_rejected() {
        let mut log = SignatureLog::new();
        log.push(1, sig(&[(1, 10)]));
        let bytes = log.to_bytes();
        assert!(SignatureLog::from_bytes(&bytes[..6]).is_err(), "truncated header");
        assert!(
            SignatureLog::from_bytes(&bytes[..bytes.len() - 2]).is_err(),
            "truncated payload"
        );
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(SignatureLog::from_bytes(&bad_magic).is_err());
        // A corrupted count field must be rejected before any allocation.
        let mut huge_count = bytes.clone();
        huge_count[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(SignatureLog::from_bytes(&huge_count).is_err(), "absurd count");
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(SignatureLog::from_bytes(&trailing).is_err());
    }

    #[test]
    fn replay_recomputes_ndfs() {
        let golden = sig(&[(1, 1000), (3, 1000)]);
        let mut log = SignatureLog::new();
        log.push(0, golden.clone());
        log.push(1, sig(&[(1, 1000), (7, 1000)]));
        let replayed = log.replay(&golden).unwrap();
        assert_eq!(replayed.len(), 2);
        assert_eq!(replayed[0].0, 0);
        assert_eq!(replayed[0].1, 0.0, "golden vs itself");
        assert!(replayed[1].1 > 0.0);
    }
}
