//! Shared little-endian binary framing helpers.
//!
//! Every persistent format and wire frame of the workspace — the signature
//! codec (`DSG1`), the engine's signature logs (`DSGL`) and campaign reports
//! (`DSGR`), the serving layer's golden stores (`DSGS`) and its
//! request/response frames (`DSRQ`/`DSRS`) — follows one convention:
//!
//! * a 4-byte ASCII **magic** identifying the format,
//! * for versioned formats, a little-endian `u16` **format version**
//!   immediately after the magic (legacy formats whose magic ends in a digit,
//!   like `DSG1`, carry the version in the magic itself),
//! * for the serving protocol's wire frames, a little-endian `u64` request
//!   id at bytes `6..14` ([`put_tagged_header`]),
//! * a little-endian payload of fixed-width integers, bit-exact `f64`s
//!   (`f64::to_bits`) and `u32`-length-prefixed byte strings.
//!
//! Persisted formats keep decoding every older version ([`ByteReader::header`]
//! accepts `1..=max_version`); wire frames are never persisted and are read
//! at exactly their current version ([`ByteReader::tagged_header`]).
//!
//! Decoding goes through [`ByteReader`], which never panics on malformed
//! input: every read is bounds-checked and reports
//! [`DsigError::Truncated`] with the failing offset, and structural
//! inconsistencies (wrong magic, unsupported version, impossible counts,
//! trailing garbage) report [`DsigError::Corrupt`].

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::decision::TestOutcome;
use crate::error::{DsigError, Result};

/// Appends a little-endian `u16`.
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` bit-exactly (via [`f64::to_bits`]).
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Appends a `u32`-length-prefixed byte string.
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}

/// Appends a `u32`-length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// Appends a 4-byte magic followed by a `u16` format version — the header of
/// every versioned format.
pub fn put_header(out: &mut Vec<u8>, magic: [u8; 4], version: u16) {
    out.extend_from_slice(&magic);
    put_u16(out, version);
}

/// Appends a tagged frame header: magic, `u16` version, `u64` request id.
///
/// The request id is the multiplexing correlator of the serving protocol —
/// it always sits at bytes `6..14` of a tagged frame, immediately after the
/// magic and version, so encoders can emit a placeholder id and transports
/// can stamp the real one in place without re-encoding the body.
pub fn put_tagged_header(out: &mut Vec<u8>, magic: [u8; 4], version: u16, request_id: u64) {
    put_header(out, magic, version);
    put_u64(out, request_id);
}

/// Appends a PASS/FAIL outcome as its stable wire tag (0 = PASS, 1 = FAIL).
/// The single definition shared by every format that carries outcomes (the
/// campaign-report file and the serving protocol), so the tag mapping cannot
/// drift between them.
pub fn put_outcome(out: &mut Vec<u8>, outcome: TestOutcome) {
    out.push(match outcome {
        TestOutcome::Pass => 0,
        TestOutcome::Fail => 1,
    });
}

/// Writes serialized bytes to a file durably, naming the artifact and path
/// in the error.
///
/// The bytes go to a temporary sibling file first, which is synced and then
/// renamed over `path`, and the parent directory is synced after the
/// rename. A crash or error mid-save therefore leaves either the previous
/// file or the new one, never a truncated mix, and a failed save removes
/// its temporary file.
///
/// # Errors
/// Returns [`DsigError::Io`] on filesystem errors.
pub fn save_bytes(path: &Path, bytes: &[u8], what: &str) -> Result<()> {
    replace_file(path, |file| file.write_all(bytes))
        .map_err(|e| DsigError::Io(format!("writing {what} {}: {e}", path.display())))
}

/// Replaces `path` with the contents `fill` writes, through a synced
/// temporary sibling and a rename (see [`save_bytes`]).
fn replace_file(path: &Path, fill: impl FnOnce(&mut File) -> io::Result<()>) -> io::Result<()> {
    // A per-process, per-save suffix keeps concurrent saves of one path apart.
    static SAVES: AtomicU64 = AtomicU64::new(0);
    let mut temp = path.as_os_str().to_owned();
    temp.push(format!(
        ".{}.{}.tmp",
        std::process::id(),
        SAVES.fetch_add(1, Ordering::Relaxed)
    ));
    let temp = PathBuf::from(temp);
    let written = File::create(&temp).and_then(|mut file| {
        fill(&mut file)?;
        file.sync_all()?;
        drop(file);
        fs::rename(&temp, path)
    });
    if let Err(e) = written {
        let _ = fs::remove_file(&temp);
        return Err(e);
    }
    sync_parent(path)
}

/// Syncs the directory holding `path`, so a completed rename survives a
/// crash.
#[cfg(unix)]
fn sync_parent(path: &Path) -> io::Result<()> {
    let parent = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    File::open(parent)?.sync_all()
}

/// Directories cannot be opened for syncing on this platform; the rename
/// itself is the commit point.
#[cfg(not(unix))]
fn sync_parent(_path: &Path) -> io::Result<()> {
    Ok(())
}

/// Reads a file written with [`save_bytes`], naming the artifact and path in
/// the error.
///
/// # Errors
/// Returns [`DsigError::Io`] on filesystem errors.
pub fn load_bytes(path: &Path, what: &str) -> Result<Vec<u8>> {
    std::fs::read(path).map_err(|e| DsigError::Io(format!("reading {what} {}: {e}", path.display())))
}

/// A bounds-checked little-endian reader over a byte buffer.
///
/// The `context` string names the structure being decoded and is included in
/// every error, so a failure inside a nested format (a signature inside a
/// log inside a store) still says what was being read.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    at: usize,
    context: &'static str,
}

impl<'a> ByteReader<'a> {
    /// Creates a reader over `buf` decoding the named structure.
    pub fn new(buf: &'a [u8], context: &'static str) -> Self {
        ByteReader { buf, at: 0, context }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }

    /// Takes the next `len` raw bytes.
    ///
    /// # Errors
    /// Returns [`DsigError::Truncated`] if fewer than `len` bytes remain.
    pub fn take(&mut self, len: usize) -> Result<&'a [u8]> {
        if self.remaining() < len {
            return Err(DsigError::Truncated {
                context: self.context,
                needed: len,
                available: self.remaining(),
            });
        }
        let out = &self.buf[self.at..self.at + len];
        self.at += len;
        Ok(out)
    }

    /// Reads one byte.
    ///
    /// # Errors
    /// Returns [`DsigError::Truncated`] on an exhausted buffer.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    ///
    /// # Errors
    /// Returns [`DsigError::Truncated`] on an exhausted buffer.
    pub fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    /// Returns [`DsigError::Truncated`] on an exhausted buffer.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    /// Returns [`DsigError::Truncated`] on an exhausted buffer.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Reads an `f64` bit-exactly (via [`f64::from_bits`]).
    ///
    /// # Errors
    /// Returns [`DsigError::Truncated`] on an exhausted buffer.
    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `u32`-length-prefixed byte string.
    ///
    /// # Errors
    /// Returns [`DsigError::Truncated`] if the prefix or payload is cut off.
    pub fn bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Reads a `u32`-length-prefixed UTF-8 string.
    ///
    /// # Errors
    /// Returns [`DsigError::Truncated`] on a cut-off payload and
    /// [`DsigError::Corrupt`] on invalid UTF-8.
    pub fn string(&mut self) -> Result<String> {
        let context = self.context;
        let bytes = self.bytes()?;
        String::from_utf8(bytes.to_vec()).map_err(|e| DsigError::Corrupt {
            context,
            detail: format!("string field is not UTF-8: {e}"),
        })
    }

    /// Reads a PASS/FAIL outcome tag written by [`put_outcome`].
    ///
    /// # Errors
    /// Returns [`DsigError::Corrupt`] on an unknown tag.
    pub fn outcome(&mut self) -> Result<TestOutcome> {
        match self.u8()? {
            0 => Ok(TestOutcome::Pass),
            1 => Ok(TestOutcome::Fail),
            other => Err(DsigError::Corrupt {
                context: self.context,
                detail: format!("invalid outcome tag {other}"),
            }),
        }
    }

    /// Consumes and checks a 4-byte magic.
    ///
    /// # Errors
    /// Returns [`DsigError::Truncated`] on a short buffer and
    /// [`DsigError::Corrupt`] on a mismatch.
    pub fn magic(&mut self, expected: [u8; 4]) -> Result<()> {
        let context = self.context;
        let got = self.take(4)?;
        if got != expected {
            return Err(DsigError::Corrupt {
                context,
                detail: format!(
                    "bad magic {:?} (expected {:?})",
                    String::from_utf8_lossy(got),
                    String::from_utf8_lossy(&expected)
                ),
            });
        }
        Ok(())
    }

    /// Consumes a versioned header (magic + `u16` version) and checks that
    /// the version does not exceed `max_version`, returning the version read.
    ///
    /// # Errors
    /// Returns [`DsigError::Corrupt`] on a magic mismatch or a version newer
    /// than this reader understands.
    pub fn header(&mut self, magic: [u8; 4], max_version: u16) -> Result<u16> {
        self.magic(magic)?;
        let version = self.u16()?;
        if version == 0 || version > max_version {
            return Err(DsigError::Corrupt {
                context: self.context,
                detail: format!("unsupported format version {version} (this build reads 1..={max_version})"),
            });
        }
        Ok(version)
    }

    /// Consumes a tagged frame header — magic, `u16` version, `u64` request
    /// id — and returns the request id. Wire frames are never persisted, so
    /// a tagged header is read at exactly one `version`: an older or newer
    /// frame is rejected like any other malformed one.
    ///
    /// # Errors
    /// Returns [`DsigError::Corrupt`] on a magic or version mismatch, and
    /// [`DsigError::Truncated`] on a cut-off header.
    pub fn tagged_header(&mut self, magic: [u8; 4], version: u16) -> Result<u64> {
        self.magic(magic)?;
        let got = self.u16()?;
        if got != version {
            return Err(DsigError::Corrupt {
                context: self.context,
                detail: format!("unsupported frame version {got} (this build speaks version {version})"),
            });
        }
        self.u64()
    }

    /// Checks that `count` items of at least `min_item_bytes` each can fit in
    /// the remaining buffer — the guard that keeps a corrupted count field
    /// from triggering a huge allocation.
    ///
    /// # Errors
    /// Returns [`DsigError::Corrupt`] for an impossible count.
    pub fn check_count(&self, count: usize, min_item_bytes: usize) -> Result<()> {
        if count > self.remaining() / min_item_bytes.max(1) {
            return Err(DsigError::Corrupt {
                context: self.context,
                detail: format!(
                    "claims {count} entries but only {} payload bytes follow",
                    self.remaining()
                ),
            });
        }
        Ok(())
    }

    /// Asserts the buffer has been fully consumed.
    ///
    /// # Errors
    /// Returns [`DsigError::Corrupt`] if trailing bytes remain.
    pub fn finish(self) -> Result<()> {
        if self.at != self.buf.len() {
            return Err(DsigError::Corrupt {
                context: self.context,
                detail: format!("{} trailing bytes after the payload", self.remaining()),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        let mut out = Vec::new();
        put_header(&mut out, *b"TEST", 1);
        put_u16(&mut out, 7);
        put_u32(&mut out, 0xDEAD_BEEF);
        put_u64(&mut out, u64::MAX - 1);
        put_f64(&mut out, -0.0);
        put_str(&mut out, "zone");
        put_bytes(&mut out, &[1, 2, 3]);

        let mut r = ByteReader::new(&out, "test");
        assert_eq!(r.header(*b"TEST", 3).unwrap(), 1);
        assert_eq!(r.u16().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.string().unwrap(), "zone");
        assert_eq!(r.bytes().unwrap(), &[1, 2, 3]);
        r.finish().unwrap();
    }

    #[test]
    fn truncation_reports_context_and_counts() {
        let mut r = ByteReader::new(&[1, 2], "widget");
        match r.u32() {
            Err(DsigError::Truncated {
                context,
                needed,
                available,
            }) => {
                assert_eq!(context, "widget");
                assert_eq!(needed, 4);
                assert_eq!(available, 2);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_and_version_are_corrupt() {
        let mut out = Vec::new();
        put_header(&mut out, *b"GOOD", 9);
        let mut r = ByteReader::new(&out, "hdr");
        assert!(matches!(r.header(*b"EVIL", 9), Err(DsigError::Corrupt { .. })));
        let mut r = ByteReader::new(&out, "hdr");
        assert!(
            matches!(r.header(*b"GOOD", 2), Err(DsigError::Corrupt { .. })),
            "version 9 must be rejected by a max_version 2 reader"
        );
        let mut zero = Vec::new();
        put_header(&mut zero, *b"GOOD", 0);
        let mut r = ByteReader::new(&zero, "hdr");
        assert!(matches!(r.header(*b"GOOD", 2), Err(DsigError::Corrupt { .. })));
    }

    #[test]
    fn tagged_headers_round_trip_and_other_versions_are_rejected() {
        let mut out = Vec::new();
        put_tagged_header(&mut out, *b"TAGD", 3, 0xDEAD_BEEF_CAFE);
        assert_eq!(&out[6..14], &0xDEAD_BEEF_CAFEu64.to_le_bytes());
        let mut r = ByteReader::new(&out, "tagged");
        assert_eq!(r.tagged_header(*b"TAGD", 3).unwrap(), 0xDEAD_BEEF_CAFE);
        r.finish().unwrap();

        // Any other version of the same family — older or newer — is
        // corrupt, whatever follows the version field.
        for version in [0, 1, 2, 4] {
            let mut other = Vec::new();
            put_tagged_header(&mut other, *b"TAGD", version, 7);
            let mut r = ByteReader::new(&other, "tagged");
            assert!(
                matches!(r.tagged_header(*b"TAGD", 3), Err(DsigError::Corrupt { .. })),
                "version {version}"
            );
        }

        // A tagged frame cut off inside the id is truncated.
        let mut r = ByteReader::new(&out[..10], "tagged");
        assert!(matches!(r.tagged_header(*b"TAGD", 3), Err(DsigError::Truncated { .. })));
        // The wrong magic is corrupt.
        let mut r = ByteReader::new(&out, "tagged");
        assert!(matches!(r.tagged_header(*b"EVIL", 3), Err(DsigError::Corrupt { .. })));
    }

    #[test]
    fn impossible_counts_and_trailing_bytes_are_corrupt() {
        let buf = [0u8; 10];
        let r = ByteReader::new(&buf, "count");
        assert!(r.check_count(2, 5).is_ok());
        assert!(matches!(r.check_count(3, 5), Err(DsigError::Corrupt { .. })));
        let mut r = ByteReader::new(&buf, "tail");
        let _ = r.u64().unwrap();
        assert!(matches!(r.finish(), Err(DsigError::Corrupt { .. })));
    }

    #[test]
    fn outcomes_round_trip_and_reject_unknown_tags() {
        let mut out = Vec::new();
        put_outcome(&mut out, TestOutcome::Pass);
        put_outcome(&mut out, TestOutcome::Fail);
        out.push(7);
        let mut r = ByteReader::new(&out, "outcome");
        assert_eq!(r.outcome().unwrap(), TestOutcome::Pass);
        assert_eq!(r.outcome().unwrap(), TestOutcome::Fail);
        assert!(matches!(r.outcome(), Err(DsigError::Corrupt { .. })));
    }

    #[test]
    fn save_and_load_name_the_artifact_in_errors() {
        let path = std::env::temp_dir().join(format!("dsig-wire-{}.bin", std::process::id()));
        save_bytes(&path, &[1, 2, 3], "test artifact").unwrap();
        assert_eq!(load_bytes(&path, "test artifact").unwrap(), vec![1, 2, 3]);
        std::fs::remove_file(&path).ok();
        let missing = load_bytes(&path, "test artifact");
        match missing {
            Err(DsigError::Io(msg)) => {
                assert!(msg.contains("test artifact"), "{msg}");
                assert!(msg.contains("dsig-wire"), "error must name the path: {msg}");
            }
            other => panic!("expected Io, got {other:?}"),
        }
    }

    /// A fresh, empty directory for one save test.
    fn save_dir(test: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dsig-wire-{test}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn dir_entries(dir: &Path) -> Vec<std::ffi::OsString> {
        let mut names: Vec<_> = fs::read_dir(dir).unwrap().map(|e| e.unwrap().file_name()).collect();
        names.sort();
        names
    }

    #[test]
    fn saves_replace_the_previous_file_and_leave_no_temp_file() {
        let dir = save_dir("replace");
        let path = dir.join("store.dsgs");
        save_bytes(&path, &[1, 2, 3, 4], "golden store").unwrap();
        save_bytes(&path, &[9, 8], "golden store").unwrap();
        assert_eq!(load_bytes(&path, "golden store").unwrap(), vec![9, 8]);
        assert_eq!(dir_entries(&dir), vec![std::ffi::OsString::from("store.dsgs")]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_failed_save_keeps_the_previous_file_byte_identical() {
        let dir = save_dir("torn");
        let path = dir.join("store.dsgs");
        let previous: Vec<u8> = (0..=255).collect();
        save_bytes(&path, &previous, "golden store").unwrap();

        // The writer dies half-way through the new contents.
        let torn = replace_file(&path, |file| {
            file.write_all(&[0xEE; 100])?;
            Err(io::Error::other("simulated crash mid-save"))
        });
        assert!(torn.is_err());
        assert_eq!(fs::read(&path).unwrap(), previous);
        assert_eq!(dir_entries(&dir), vec![std::ffi::OsString::from("store.dsgs")]);

        // The rename itself fails: the target is a directory.
        let blocked = dir.join("blocked");
        fs::create_dir(&blocked).unwrap();
        fs::write(blocked.join("inside"), b"x").unwrap();
        assert!(matches!(
            save_bytes(&blocked, &[1], "golden store"),
            Err(DsigError::Io(_))
        ));
        assert_eq!(
            dir_entries(&dir),
            vec![
                std::ffi::OsString::from("blocked"),
                std::ffi::OsString::from("store.dsgs")
            ]
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn invalid_utf8_is_corrupt() {
        let mut out = Vec::new();
        put_bytes(&mut out, &[0xFF, 0xFE]);
        let mut r = ByteReader::new(&out, "text");
        assert!(matches!(r.string(), Err(DsigError::Corrupt { .. })));
    }
}
