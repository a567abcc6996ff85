//! The persistent golden store: golden signatures characterized once per
//! `(setup, reference)` fingerprint, kept in memory for scoring and saved to
//! disk in a versioned binary format (`DSGS` v1, see the crate docs for the
//! byte layout).
//!
//! Records are keyed by [`dsig_engine::golden_fingerprint`], which is stable
//! across runs and platforms (see its stability contract), so a store written
//! by a characterization campaign can be loaded by any number of serving
//! processes later. If the `golden_key` layout ever changes, every
//! fingerprint changes with it — bump [`STORE_VERSION`] in that case so stale
//! stores are rejected at load time instead of missing every lookup.

use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, RwLock};

use cut_filters::BiquadParams;
use dsig_core::wire::{self, ByteReader, Format, Wire};
use dsig_core::{recover, AcceptanceBand, Signature, TestFlow, TestSetup};
use dsig_engine::golden_fingerprint;

use crate::error::Result;

/// Magic prefix of the persisted golden-store format.
pub const STORE_MAGIC: [u8; 4] = *b"DSGS";
/// Current golden-store format version. Bump when the record layout *or* the
/// `golden_key` layout behind the fingerprints changes.
pub const STORE_VERSION: u16 = 1;

/// One stored golden: the characterized signature and the acceptance band
/// that turns an NDF into a PASS/FAIL decision for devices screened against
/// it.
#[derive(Debug, Clone, PartialEq)]
pub struct GoldenRecord {
    /// The golden (reference) signature.
    pub golden: Signature,
    /// The acceptance band applied to NDFs scored against this golden.
    pub band: AcceptanceBand,
}

/// A thread-safe map of golden fingerprints to [`GoldenRecord`]s with
/// versioned disk persistence.
///
/// Lookups hand out `Arc`s, so a request being scored holds its golden
/// without blocking writers that characterize new goldens concurrently.
#[derive(Debug, Default)]
pub struct GoldenStore {
    records: RwLock<HashMap<u64, Arc<GoldenRecord>>>,
}

impl GoldenStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts (or replaces) a golden under an explicit fingerprint and
    /// returns the previous record, if any.
    pub fn insert(&self, key: u64, golden: Signature, band: AcceptanceBand) -> Option<Arc<GoldenRecord>> {
        recover(self.records.write()).insert(key, Arc::new(GoldenRecord { golden, band }))
    }

    /// Characterizes the golden signature of `(setup, reference)` — the
    /// expensive step, done once — and stores it under the pair's
    /// [`golden_fingerprint`]. Returns the fingerprint, which is what clients
    /// put in their requests.
    ///
    /// The stored golden is [`TestFlow::new`]'s, the one the engine's
    /// `GoldenCache` holds: a noiseless capture regardless of the setup's
    /// noise model, because a golden signature is a characterization-time
    /// artifact, not a production measurement.
    ///
    /// Re-characterizing an already-stored fingerprint skips the capture (the
    /// golden is deterministic) but always adopts the caller's band, so
    /// tightening a threshold takes effect instead of silently keeping the
    /// old one.
    ///
    /// # Errors
    /// Propagates golden-capture errors.
    pub fn characterize(&self, setup: &TestSetup, reference: &BiquadParams, band: AcceptanceBand) -> Result<u64> {
        let key = golden_fingerprint(setup, reference);
        let golden = match self.get(key) {
            Some(record) if record.band == band => return Ok(key),
            Some(record) => record.golden.clone(),
            None => TestFlow::new(setup.clone(), *reference)?.golden().clone(),
        };
        self.insert(key, golden, band);
        Ok(key)
    }

    /// Looks up a golden by fingerprint.
    pub fn get(&self, key: u64) -> Option<Arc<GoldenRecord>> {
        recover(self.records.read()).get(&key).cloned()
    }

    /// The stored fingerprints, ascending.
    pub fn keys(&self) -> Vec<u64> {
        let mut keys: Vec<u64> = recover(self.records.read()).keys().copied().collect();
        keys.sort_unstable();
        keys
    }

    /// Number of stored goldens.
    pub fn len(&self) -> usize {
        recover(self.records.read()).len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serializes every record into the versioned `DSGS` binary format.
    /// Records are written in ascending fingerprint order, so equal stores
    /// produce identical bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        wire::to_bytes(self)
    }

    /// Decodes a store produced by [`GoldenStore::to_bytes`], at exactly
    /// the current version. Never panics on malformed input.
    ///
    /// # Errors
    /// Returns [`dsig_core::DsigError::Truncated`] /
    /// [`dsig_core::DsigError::Corrupt`] wrapped in
    /// [`crate::ServeError::Dsig`] on malformed bytes, including duplicate
    /// fingerprints and invalid acceptance bands.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        Ok(wire::from_bytes(bytes)?)
    }

    /// Writes the serialized store to a file.
    ///
    /// # Errors
    /// Returns [`dsig_core::DsigError::Io`] (wrapped in [`crate::ServeError::Dsig`]) on
    /// filesystem errors, naming the path.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        wire::save_bytes(path.as_ref(), &self.to_bytes(), "golden store")?;
        Ok(())
    }

    /// Reads a store previously written with [`GoldenStore::save`].
    ///
    /// # Errors
    /// Returns [`dsig_core::DsigError::Io`] (wrapped in [`crate::ServeError::Dsig`]) on
    /// filesystem errors and decoding errors as in
    /// [`GoldenStore::from_bytes`].
    pub fn load(path: impl AsRef<Path>) -> Result<Self> {
        Self::from_bytes(&wire::load_bytes(path.as_ref(), "golden store")?)
    }
}

dsig_core::wire_fields!(GoldenRecord { band, golden });

/// The `DSGS` body: `(fingerprint, record)` rows in ascending fingerprint
/// order; a decoded store must not repeat a fingerprint.
impl Format for GoldenStore {
    const MAGIC: [u8; 4] = STORE_MAGIC;
    const VERSION: Option<u16> = Some(STORE_VERSION);
    const CONTEXT: &'static str = "golden store";
    const MIN_BODY: usize = 4;

    fn put_body(&self, out: &mut Vec<u8>) {
        let mut rows: Vec<(u64, Arc<GoldenRecord>)> = recover(self.records.read())
            .iter()
            .map(|(&key, record)| (key, Arc::clone(record)))
            .collect();
        rows.sort_unstable_by_key(|&(key, _)| key);
        rows.put(out);
    }

    fn get_body(r: &mut ByteReader<'_>) -> dsig_core::Result<Self> {
        let rows: Vec<(u64, Arc<GoldenRecord>)> = Wire::get(r)?;
        let mut records = HashMap::with_capacity(rows.len());
        for (key, record) in rows {
            if records.insert(key, record).is_some() {
                return Err(r.corrupt(format!("duplicate fingerprint {key:#018x}")));
            }
        }
        Ok(GoldenStore {
            records: RwLock::new(records),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsig_core::{DsigError, SignatureEntry, ZoneCode};

    /// A signature of 1 µs counts.
    fn sig(codes: &[(u32, u32)]) -> Signature {
        Signature::new(
            1e-6,
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

    fn band(threshold: f64) -> AcceptanceBand {
        AcceptanceBand::new(threshold).unwrap()
    }

    #[test]
    fn insert_get_and_keys() {
        let store = GoldenStore::new();
        assert!(store.is_empty());
        assert!(store.get(1).is_none());
        store.insert(7, sig(&[(1, 1_000_000)]), band(0.03));
        store.insert(3, sig(&[(2, 2_000_000)]), band(0.05));
        assert_eq!(store.len(), 2);
        assert_eq!(store.keys(), vec![3, 7]);
        assert_eq!(store.get(7).unwrap().band.ndf_threshold, 0.03);
        let replaced = store.insert(7, sig(&[(9, 1_000_000)]), band(0.10));
        assert_eq!(replaced.unwrap().band.ndf_threshold, 0.03);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn characterize_is_idempotent_and_noise_blind() {
        let setup = TestSetup::paper_default().unwrap().with_sample_rate(1e6).unwrap();
        let reference = BiquadParams::paper_default();
        let store = GoldenStore::new();
        let key = store.characterize(&setup, &reference, band(0.03)).unwrap();
        assert_eq!(store.len(), 1);
        let again = store.characterize(&setup, &reference, band(0.03)).unwrap();
        assert_eq!(key, again);
        assert_eq!(store.len(), 1, "re-characterization must hit the store");
        // A re-characterization with a tighter band must take effect without
        // a fresh capture.
        store.characterize(&setup, &reference, band(0.01)).unwrap();
        assert_eq!(store.get(key).unwrap().band.ndf_threshold, 0.01);
        store.characterize(&setup, &reference, band(0.03)).unwrap();
        // The fingerprint ignores measurement noise, like the engine cache.
        let noisy = setup.clone().with_noise(sim_signal::NoiseModel::paper_default());
        assert_eq!(store.characterize(&noisy, &reference, band(0.03)).unwrap(), key);
        // The stored golden is `TestFlow::new`'s, for a noisy setup too.
        let fresh = GoldenStore::new();
        fresh.characterize(&noisy, &reference, band(0.03)).unwrap();
        for (store, setup) in [(&store, &setup), (&fresh, &noisy)] {
            let flow = TestFlow::new(setup.clone(), reference).unwrap();
            assert_eq!(store.get(key).unwrap().golden, *flow.golden());
        }
        // A different reference is a different golden.
        let shifted = reference.with_f0_shift_pct(5.0);
        let other = store.characterize(&setup, &shifted, band(0.03)).unwrap();
        assert_ne!(other, key);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn store_round_trips_through_bytes_and_disk() {
        let store = GoldenStore::new();
        store.insert(42, sig(&[(1, 10), (3, 20)]), band(0.03));
        store.insert(7, sig(&[(5, 1_500_000)]), band(0.08));
        let bytes = store.to_bytes();
        assert_eq!(bytes, store.to_bytes(), "serialization must be deterministic");
        let decoded = GoldenStore::from_bytes(&bytes).unwrap();
        assert_eq!(decoded.keys(), store.keys());
        for key in store.keys() {
            assert_eq!(*decoded.get(key).unwrap(), *store.get(key).unwrap());
        }
        let path = std::env::temp_dir().join(format!("dsig-store-{}-{:p}.bin", std::process::id(), &store));
        store.save(&path).unwrap();
        let loaded = GoldenStore::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.keys(), store.keys());
        assert!(matches!(
            GoldenStore::load(path.with_extension("missing")),
            Err(crate::ServeError::Dsig(DsigError::Io(_)))
        ));
    }

    #[test]
    fn corrupted_stores_are_rejected_without_panicking() {
        let store = GoldenStore::new();
        store.insert(1, sig(&[(1, 1_000_000)]), band(0.03));
        let bytes = store.to_bytes();
        assert!(GoldenStore::from_bytes(&bytes[..5]).is_err(), "truncated header");
        assert!(
            GoldenStore::from_bytes(&bytes[..bytes.len() - 3]).is_err(),
            "truncated record"
        );
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(GoldenStore::from_bytes(&bad_magic).is_err());
        let mut future = bytes.clone();
        future[4..6].copy_from_slice(&99u16.to_le_bytes());
        assert!(GoldenStore::from_bytes(&future).is_err(), "future version");
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(GoldenStore::from_bytes(&trailing).is_err());
        // A NaN threshold is caught by AcceptanceBand validation.
        let mut nan = bytes;
        nan[18..26].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        assert!(GoldenStore::from_bytes(&nan).is_err(), "NaN threshold");
    }

    #[test]
    fn duplicate_fingerprints_are_corrupt() {
        let store = GoldenStore::new();
        store.insert(5, sig(&[(1, 1_000_000)]), band(0.03));
        let mut bytes = store.to_bytes();
        // Append a second copy of the single record and fix the count.
        let record = bytes[10..].to_vec();
        bytes.extend_from_slice(&record);
        bytes[6..10].copy_from_slice(&2u32.to_le_bytes());
        assert!(matches!(
            GoldenStore::from_bytes(&bytes),
            Err(crate::ServeError::Dsig(DsigError::Corrupt { .. }))
        ));
    }
}
