//! The one binary codec: every persisted format and wire frame of the
//! workspace is declared through the [`Wire`] trait.
//!
//! A value's encoding is written once, as its [`Wire`] impl, and every frame
//! and file that carries the value reuses it. Plain structs list their fields
//! once, in wire order, with [`wire_fields!`](crate::wire_fields); tag enums
//! list their variants and tags once with [`wire_tags!`](crate::wire_tags).
//! Types that validate on decode (a signature, an acceptance band, a retest
//! policy, …) write their impl by hand and decode through their
//! constructors.
//!
//! The encodings follow one convention:
//!
//! * fixed-width little-endian integers, bit-exact `f64`s
//!   ([`f64::to_bits`]), strict `bool`s (0 or 1) and `u32`-length-prefixed
//!   UTF-8 strings;
//! * a list is a `u32` count followed by its items ([`Vec`] is the only
//!   place that writes a count and checks one);
//! * the one variable-width encoding, the LEB128 varint ([`put_varint`]),
//!   is the signature codec's own: a signature's counter words are small;
//! * a standalone [`Format`] — a persisted file such as the signature codec
//!   (`DSG2`), a signature log (`DSGL`) or a golden store (`DSGS`) —
//!   starts with a 4-byte ASCII **magic**, then a
//!   little-endian `u16` **format version** for the versioned formats
//!   (those whose magic ends in a digit carry the version in the magic);
//!   nested inside another body, a format travels behind its `u32` byte
//!   length;
//! * the serving protocol's wire frames carry a little-endian `u64` request
//!   id at bytes `6..14` ([`put_tagged_header`]).
//!
//! Every format and frame is read at exactly its current version: an older
//! or newer one is rejected like any other malformed input. A version bump
//! is a declared break.
//!
//! Decoding goes through [`ByteReader`], which never panics on malformed
//! input: every read is bounds-checked and reports
//! [`DsigError::Truncated`] with the failing offset, and structural
//! inconsistencies (wrong magic, unsupported version, invalid tags,
//! impossible counts, trailing garbage) report [`DsigError::Corrupt`].

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::error::{DsigError, Result};

/// A value with one little-endian encoding, shared by every frame and file
/// that carries it.
pub trait Wire: Sized {
    /// The fewest bytes an encoded value takes. A list's decoder checks its
    /// count against this before allocating, so a corrupt count cannot
    /// demand gigabytes.
    const MIN_BYTES: usize;

    /// Appends the encoding of `self`.
    fn put(&self, out: &mut Vec<u8>);

    /// Reads one value. Never panics on malformed input.
    ///
    /// # Errors
    /// Returns [`DsigError::Truncated`] when the buffer runs out and
    /// [`DsigError::Corrupt`] (or the type's own validation error) on an
    /// invalid value.
    fn get(r: &mut ByteReader<'_>) -> Result<Self>;
}

macro_rules! int_wire {
    ($($int:ty),*) => {$(
        impl Wire for $int {
            const MIN_BYTES: usize = std::mem::size_of::<$int>();

            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            fn get(r: &mut ByteReader<'_>) -> Result<Self> {
                Ok(<$int>::from_le_bytes(r.take(Self::MIN_BYTES)?.try_into().expect("sized read")))
            }
        }
    )*};
}

int_wire!(u8, u16, u32, u64);

/// A `usize` travels as a `u64`; a value this platform cannot hold is
/// corrupt.
impl Wire for usize {
    const MIN_BYTES: usize = 8;

    fn put(&self, out: &mut Vec<u8>) {
        (*self as u64).put(out);
    }

    fn get(r: &mut ByteReader<'_>) -> Result<Self> {
        let value = u64::get(r)?;
        usize::try_from(value).map_err(|_| r.corrupt(format!("{value} does not fit a usize")))
    }
}

/// Bit-exact, through [`f64::to_bits`].
impl Wire for f64 {
    const MIN_BYTES: usize = 8;

    fn put(&self, out: &mut Vec<u8>) {
        self.to_bits().put(out);
    }

    fn get(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(f64::from_bits(u64::get(r)?))
    }
}

/// One byte, 0 or 1; any other byte is corrupt.
impl Wire for bool {
    const MIN_BYTES: usize = 1;

    fn put(&self, out: &mut Vec<u8>) {
        u8::from(*self).put(out);
    }

    fn get(r: &mut ByteReader<'_>) -> Result<Self> {
        match u8::get(r)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(r.corrupt(format!("invalid bool byte {other}"))),
        }
    }
}

/// A `u32` byte length, then UTF-8.
impl Wire for String {
    const MIN_BYTES: usize = 4;

    fn put(&self, out: &mut Vec<u8>) {
        put_len(out, self.len());
        out.extend_from_slice(self.as_bytes());
    }

    fn get(r: &mut ByteReader<'_>) -> Result<Self> {
        let bytes = r.bytes()?;
        String::from_utf8(bytes.to_vec()).map_err(|e| r.corrupt(format!("string field is not UTF-8: {e}")))
    }
}

/// A `u32` count, then the items. The only encoding that writes a count.
impl<T: Wire> Wire for Vec<T> {
    const MIN_BYTES: usize = 4;

    fn put(&self, out: &mut Vec<u8>) {
        put_slice(self, out);
    }

    fn get(r: &mut ByteReader<'_>) -> Result<Self> {
        let count = u32::get(r)? as usize;
        r.check_count(count, T::MIN_BYTES)?;
        let mut items = Vec::with_capacity(count);
        for _ in 0..count {
            items.push(T::get(r)?);
        }
        Ok(items)
    }
}

/// Appends a borrowed list in [`Vec`]'s encoding. It first reserves the
/// count and [`Wire::MIN_BYTES`] per item: the exact size of a list of
/// fixed-size items, such as a reply's scores, and a floor for the others.
///
/// # Panics
/// Panics on more than `u32::MAX` items, which no frame can carry.
pub fn put_slice<T: Wire>(items: &[T], out: &mut Vec<u8>) {
    out.reserve(4 + items.len() * T::MIN_BYTES);
    put_len(out, items.len());
    for item in items {
        item.put(out);
    }
}

/// A presence byte (0 or 1), then the value when present.
impl<T: Wire> Wire for Option<T> {
    const MIN_BYTES: usize = 1;

    fn put(&self, out: &mut Vec<u8>) {
        self.is_some().put(out);
        if let Some(value) = self {
            value.put(out);
        }
    }

    fn get(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(if bool::get(r)? { Some(T::get(r)?) } else { None })
    }
}

/// An `Arc` travels as the value it shares.
impl<T: Wire> Wire for Arc<T> {
    const MIN_BYTES: usize = T::MIN_BYTES;

    fn put(&self, out: &mut Vec<u8>) {
        T::put(self, out);
    }

    fn get(r: &mut ByteReader<'_>) -> Result<Self> {
        T::get(r).map(Arc::new)
    }
}

macro_rules! tuple_wire {
    ($($index:tt $name:ident),+) => {
        /// The fields in order.
        impl<$($name: Wire),+> Wire for ($($name,)+) {
            const MIN_BYTES: usize = 0 $(+ $name::MIN_BYTES)+;

            fn put(&self, out: &mut Vec<u8>) {
                $(self.$index.put(out);)+
            }

            fn get(r: &mut ByteReader<'_>) -> Result<Self> {
                Ok(($($name::get(r)?,)+))
            }
        }
    };
}

tuple_wire!(0 A, 1 B);
tuple_wire!(0 A, 1 B, 2 C);
tuple_wire!(0 A, 1 B, 2 C, 3 D);

/// Appends `value` as an unsigned LEB128 varint: seven bits per byte, the
/// low group first, and the high bit set on every byte but the last. A
/// value below 128 takes one byte, one below 16,384 two, and any `u32` at
/// most five; each value has exactly one encoding ([`ByteReader::varint`]).
pub fn put_varint(out: &mut Vec<u8>, mut value: u32) {
    while value >= 0x80 {
        out.push(value as u8 | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

/// Writes a `u32` length or count.
///
/// # Panics
/// Panics past `u32::MAX`: no frame or file can carry that much.
fn put_len(out: &mut Vec<u8>, len: usize) {
    u32::try_from(len).expect("a wire length fits a u32").put(out);
}

/// A standalone format: a 4-byte magic, the `u16` version of a versioned
/// format, then the body. Written whole by [`to_bytes`] and read whole by
/// [`from_bytes`]; as a [`Wire`] value nested in another body, a format
/// travels behind its `u32` byte length.
pub trait Format: Sized {
    /// The format's magic.
    const MAGIC: [u8; 4];
    /// The version after the magic; `None` for the formats whose magic
    /// carries it.
    const VERSION: Option<u16>;
    /// What decode errors name.
    const CONTEXT: &'static str;
    /// The fewest bytes of a body.
    const MIN_BODY: usize;

    /// Appends the body.
    fn put_body(&self, out: &mut Vec<u8>);

    /// Reads the body.
    ///
    /// # Errors
    /// As for [`Wire::get`].
    fn get_body(r: &mut ByteReader<'_>) -> Result<Self>;
}

/// A format nested in another body: its `u32` byte length, then the whole
/// format.
impl<T: Format> Wire for T {
    const MIN_BYTES: usize = 4 + 4 + if T::VERSION.is_some() { 2 } else { 0 } + T::MIN_BODY;

    fn put(&self, out: &mut Vec<u8>) {
        let at = out.len();
        out.extend_from_slice(&[0; 4]);
        put_format(self, out);
        let len = out.len() - at - 4;
        out[at..at + 4].copy_from_slice(&u32::try_from(len).expect("a wire length fits a u32").to_le_bytes());
    }

    fn get(r: &mut ByteReader<'_>) -> Result<Self> {
        from_bytes(r.bytes()?)
    }
}

fn put_format<T: Format>(value: &T, out: &mut Vec<u8>) {
    match T::VERSION {
        Some(version) => put_header(out, T::MAGIC, version),
        None => out.extend_from_slice(&T::MAGIC),
    }
    value.put_body(out);
}

/// Encodes a standalone format: magic, version, body.
pub fn to_bytes<T: Format>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    put_format(value, &mut out);
    out
}

/// Decodes a standalone format written by [`to_bytes`], at exactly its
/// current version. Never panics on malformed input.
///
/// # Errors
/// Returns [`DsigError::Truncated`] on a cut-off buffer,
/// [`DsigError::Corrupt`] on a wrong magic, another version, a malformed
/// body or trailing bytes, and the format's own validation errors.
pub fn from_bytes<T: Format>(bytes: &[u8]) -> Result<T> {
    let mut r = ByteReader::new(bytes, T::CONTEXT);
    match T::VERSION {
        Some(version) => r.header(T::MAGIC, version)?,
        None => r.magic(T::MAGIC)?,
    }
    let value = T::get_body(&mut r)?;
    r.finish()?;
    Ok(value)
}

/// The [`Wire::MIN_BYTES`] of the field `field` selects: how
/// [`wire_fields!`](crate::wire_fields) sums a struct's minimum size from
/// field names alone.
pub const fn min_bytes_of<S, T: Wire>(_field: fn(&S) -> &T) -> usize {
    T::MIN_BYTES
}

/// The smallest of `sizes`: how [`wire_tags!`](crate::wire_tags) takes a
/// tag enum's minimum size over its variants.
pub const fn min_of(sizes: &[usize]) -> usize {
    let mut min = usize::MAX;
    let mut i = 0;
    while i < sizes.len() {
        if sizes[i] < min {
            min = sizes[i];
        }
        i += 1;
    }
    min
}

/// Declares a struct's encoding by listing its fields once, in wire order;
/// each field travels through its own [`Wire`] impl.
///
/// `wire_fields!(Type { a, b })` implements [`Wire`] for `Type`.
/// `wire_fields!(Type { a, b }, file: MAGIC, VERSION, "context")`
/// implements [`Format`] instead, with these fields as the body.
///
/// ```
/// use dsig_core::wire::{ByteReader, Wire};
///
/// #[derive(Debug, PartialEq)]
/// struct Reading {
///     volts: f64,
///     channel: u32,
/// }
/// // The channel goes first on the wire.
/// dsig_core::wire_fields!(Reading { channel, volts });
///
/// let mut out = Vec::new();
/// Reading { volts: 1.5, channel: 3 }.put(&mut out);
/// assert_eq!(out[..4], 3u32.to_le_bytes());
/// assert_eq!(out.len(), Reading::MIN_BYTES);
/// let back = Reading::get(&mut ByteReader::new(&out, "reading")).unwrap();
/// assert_eq!(back, Reading { volts: 1.5, channel: 3 });
/// ```
#[macro_export]
macro_rules! wire_fields {
    ($ty:ident { $($field:tt),* $(,)? }) => {
        impl $crate::wire::Wire for $ty {
            const MIN_BYTES: usize = 0 $(+ $crate::wire::min_bytes_of(|v: &$ty| &v.$field))*;

            fn put(&self, out: &mut Vec<u8>) {
                $($crate::wire::Wire::put(&self.$field, out);)*
            }

            fn get(r: &mut $crate::wire::ByteReader<'_>) -> $crate::Result<Self> {
                Ok($ty { $($field: $crate::wire::Wire::get(r)?),* })
            }
        }
    };
    ($ty:ident { $($field:tt),* $(,)? }, file: $magic:expr, $version:expr, $context:expr) => {
        impl $crate::wire::Format for $ty {
            const MAGIC: [u8; 4] = $magic;
            const VERSION: Option<u16> = $version;
            const CONTEXT: &'static str = $context;
            const MIN_BODY: usize = 0 $(+ $crate::wire::min_bytes_of(|v: &$ty| &v.$field))*;

            fn put_body(&self, out: &mut Vec<u8>) {
                $($crate::wire::Wire::put(&self.$field, out);)*
            }

            fn get_body(r: &mut $crate::wire::ByteReader<'_>) -> $crate::Result<Self> {
                Ok($ty { $($field: $crate::wire::Wire::get(r)?),* })
            }
        }
    };
}

/// Declares a tag enum's encoding by listing its variants and tags once:
/// the tag as `repr`, then a newtype variant's payload through its own
/// [`Wire`] impl. An unknown tag is [`DsigError::Corrupt`].
///
/// ```
/// use dsig_core::wire::{ByteReader, Wire};
///
/// #[derive(Debug, PartialEq)]
/// enum Reading {
///     Idle,
///     Volts(f64),
/// }
/// dsig_core::wire_tags!(Reading: u8 { Idle = 0, Volts(f64) = 7 });
///
/// let mut out = Vec::new();
/// Reading::Volts(1.5).put(&mut out);
/// assert_eq!(out[0], 7);
/// let back = Reading::get(&mut ByteReader::new(&out, "reading")).unwrap();
/// assert_eq!(back, Reading::Volts(1.5));
/// assert!(Reading::get(&mut ByteReader::new(&[9], "reading")).is_err());
/// ```
#[macro_export]
macro_rules! wire_tags {
    ($ty:ident: $repr:ty { $($variant:ident $(($payload:ty))? = $tag:literal),+ $(,)? }) => {
        impl $crate::wire::Wire for $ty {
            const MIN_BYTES: usize = <$repr as $crate::wire::Wire>::MIN_BYTES
                + $crate::wire::min_of(&[$(0 $(+ <$payload as $crate::wire::Wire>::MIN_BYTES)?),+]);

            fn put(&self, out: &mut Vec<u8>) {
                match self {
                    $($ty::$variant $(($crate::__wire_bind!($payload, payload)))? => {
                        <$repr as $crate::wire::Wire>::put(&$tag, out);
                        $($crate::wire::Wire::put($crate::__wire_bind!($payload, payload), out);)?
                    })+
                }
            }

            fn get(r: &mut $crate::wire::ByteReader<'_>) -> $crate::Result<Self> {
                match <$repr as $crate::wire::Wire>::get(r)? {
                    $($tag => Ok($ty::$variant $((<$payload as $crate::wire::Wire>::get(r)?))?),)+
                    other => Err(r.corrupt(format!(concat!("invalid ", stringify!($ty), " tag {}"), other))),
                }
            }
        }
    };
}

/// Names a newtype variant's payload inside [`wire_tags!`](crate::wire_tags).
#[doc(hidden)]
#[macro_export]
macro_rules! __wire_bind {
    ($payload:ty, $name:ident) => {
        $name
    };
}

/// Appends a 4-byte magic followed by a `u16` format version — the header of
/// every versioned format.
pub fn put_header(out: &mut Vec<u8>, magic: [u8; 4], version: u16) {
    out.extend_from_slice(&magic);
    version.put(out);
}

/// Appends a tagged frame header: magic, `u16` version, `u64` request id.
///
/// The request id is the multiplexing correlator of the serving protocol —
/// it always sits at bytes `6..14` of a tagged frame, immediately after the
/// magic and version, so encoders can emit a placeholder id and transports
/// can stamp the real one in place without re-encoding the body.
pub fn put_tagged_header(out: &mut Vec<u8>, magic: [u8; 4], version: u16, request_id: u64) {
    put_header(out, magic, version);
    request_id.put(out);
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

    /// The next byte, without consuming it; `None` at the end.
    pub fn peek(&self) -> Option<u8> {
        self.buf.get(self.at).copied()
    }

    /// A [`DsigError::Corrupt`] naming this reader's structure.
    pub fn corrupt(&self, detail: impl Into<String>) -> DsigError {
        DsigError::Corrupt {
            context: self.context,
            detail: detail.into(),
        }
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

    /// Reads a varint written by [`put_varint`].
    ///
    /// # Errors
    /// Returns [`DsigError::Truncated`] when the buffer ends inside it and
    /// [`DsigError::Corrupt`] when it exceeds a `u32` or ends in a redundant
    /// zero group (an overlong encoding).
    #[inline]
    pub fn varint(&mut self) -> Result<u32> {
        // The common widths first, small enough to inline where a
        // signature's entries are read: one byte below 128, two below
        // 16,384, which covers every Table I code and count. A zero second
        // byte is overlong and falls through.
        match self.buf[self.at..] {
            [low, ..] if low < 0x80 => {
                self.at += 1;
                Ok(u32::from(low))
            }
            [low, high @ 1..=0x7f, ..] => {
                self.at += 2;
                Ok(u32::from(low & 0x7f) | u32::from(high) << 7)
            }
            _ => self.any_varint(),
        }
    }

    /// [`ByteReader::varint`] at any width: every encoding of three bytes
    /// or more, and every malformed or truncated one.
    fn any_varint(&mut self) -> Result<u32> {
        let rest = &self.buf[self.at..];
        let mut value = 0u32;
        for (i, &byte) in rest.iter().take(5).enumerate() {
            if i == 4 && byte > 0x0f {
                return Err(self.corrupt("varint exceeds a u32"));
            }
            value |= u32::from(byte & 0x7f) << (7 * i);
            if byte < 0x80 {
                if byte == 0 && i > 0 {
                    return Err(self.corrupt("overlong varint"));
                }
                self.at += i + 1;
                return Ok(value);
            }
        }
        // Every byte left continues the varint, and there are fewer than
        // five (a fifth with its high bit set exceeds a u32 above).
        Err(DsigError::Truncated {
            context: self.context,
            needed: rest.len() + 1,
            available: rest.len(),
        })
    }

    /// Reads a `u32`-length-prefixed byte string.
    ///
    /// # Errors
    /// Returns [`DsigError::Truncated`] if the prefix or payload is cut off.
    pub fn bytes(&mut self) -> Result<&'a [u8]> {
        let len = u32::get(self)? as usize;
        self.take(len)
    }

    /// Consumes and checks a 4-byte magic.
    ///
    /// # Errors
    /// Returns [`DsigError::Truncated`] on a short buffer and
    /// [`DsigError::Corrupt`] on a mismatch.
    pub fn magic(&mut self, expected: [u8; 4]) -> Result<()> {
        let got = self.take(4)?;
        if got != expected {
            return Err(self.corrupt(format!(
                "bad magic {:?} (expected {:?})",
                String::from_utf8_lossy(got),
                String::from_utf8_lossy(&expected)
            )));
        }
        Ok(())
    }

    /// Consumes a versioned header (magic + `u16` version) written at
    /// exactly `version`.
    ///
    /// # Errors
    /// Returns [`DsigError::Truncated`] on a cut-off header and
    /// [`DsigError::Corrupt`] on a magic mismatch or any other version.
    pub fn header(&mut self, magic: [u8; 4], version: u16) -> Result<()> {
        self.magic(magic)?;
        let got = u16::get(self)?;
        if got != version {
            return Err(self.corrupt(format!(
                "unsupported version {got} (this build reads version {version})"
            )));
        }
        Ok(())
    }

    /// Consumes a tagged frame header — magic, `u16` version, `u64` request
    /// id — and returns the request id.
    ///
    /// # Errors
    /// Returns [`DsigError::Corrupt`] on a magic or version mismatch, and
    /// [`DsigError::Truncated`] on a cut-off header.
    pub fn tagged_header(&mut self, magic: [u8; 4], version: u16) -> Result<u64> {
        self.header(magic, version)?;
        u64::get(self)
    }

    /// Checks that `count` items of at least `min_item_bytes` each can fit in
    /// the remaining buffer — the guard that keeps a corrupted count field
    /// from triggering a huge allocation.
    ///
    /// # Errors
    /// Returns [`DsigError::Corrupt`] for an impossible count.
    pub fn check_count(&self, count: usize, min_item_bytes: usize) -> Result<()> {
        if count > self.remaining() / min_item_bytes.max(1) {
            return Err(self.corrupt(format!(
                "claims {count} entries but only {} payload bytes follow",
                self.remaining()
            )));
        }
        Ok(())
    }

    /// Asserts the buffer has been fully consumed.
    ///
    /// # Errors
    /// Returns [`DsigError::Corrupt`] if trailing bytes remain.
    pub fn finish(self) -> Result<()> {
        if self.at != self.buf.len() {
            return Err(self.corrupt(format!("{} trailing bytes after the payload", self.remaining())));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Encodes one value on its own.
    fn encode<T: Wire>(value: &T) -> Vec<u8> {
        let mut out = Vec::new();
        value.put(&mut out);
        out
    }

    /// Decodes one value that must fill `bytes` exactly.
    fn decode<T: Wire>(bytes: &[u8]) -> Result<T> {
        let mut r = ByteReader::new(bytes, "test");
        let value = T::get(&mut r)?;
        r.finish()?;
        Ok(value)
    }

    #[test]
    fn scalars_round_trip() {
        let mut out = Vec::new();
        put_header(&mut out, *b"TEST", 1);
        7u16.put(&mut out);
        0xDEAD_BEEFu32.put(&mut out);
        (u64::MAX - 1).put(&mut out);
        (-0.0f64).put(&mut out);
        String::from("zone").put(&mut out);
        vec![1u8, 2, 3].put(&mut out);
        (12usize, true).put(&mut out);

        let mut r = ByteReader::new(&out, "test");
        r.header(*b"TEST", 1).unwrap();
        assert_eq!(u16::get(&mut r).unwrap(), 7);
        assert_eq!(u32::get(&mut r).unwrap(), 0xDEAD_BEEF);
        assert_eq!(u64::get(&mut r).unwrap(), u64::MAX - 1);
        assert_eq!(f64::get(&mut r).unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(String::get(&mut r).unwrap(), "zone");
        assert_eq!(r.bytes().unwrap(), &[1, 2, 3]);
        assert_eq!(<(usize, bool)>::get(&mut r).unwrap(), (12, true));
        r.finish().unwrap();
    }

    #[test]
    fn truncation_reports_context_and_counts() {
        let mut r = ByteReader::new(&[1, 2], "widget");
        match u32::get(&mut r) {
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
        put_header(&mut out, *b"GOOD", 2);
        let mut r = ByteReader::new(&out, "hdr");
        assert!(matches!(r.header(*b"EVIL", 2), Err(DsigError::Corrupt { .. })));
        // Older, newer and zero versions are all rejected.
        for version in [0, 1, 3, 9] {
            let mut r = ByteReader::new(&out, "hdr");
            assert!(
                matches!(r.header(*b"GOOD", version), Err(DsigError::Corrupt { .. })),
                "a version-2 header read as version {version}"
            );
        }
        let mut r = ByteReader::new(&out, "hdr");
        r.header(*b"GOOD", 2).unwrap();
        r.finish().unwrap();
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
        let _ = u64::get(&mut r).unwrap();
        assert!(matches!(r.finish(), Err(DsigError::Corrupt { .. })));
        // A list claiming more items than the buffer can hold is corrupt
        // before anything is allocated.
        let mut huge = encode(&vec![7u64]);
        huge[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode::<Vec<u64>>(&huge), Err(DsigError::Corrupt { .. })));
    }

    #[test]
    fn outcomes_round_trip_and_reject_unknown_tags() {
        use crate::decision::TestOutcome;
        let mut out = Vec::new();
        TestOutcome::Pass.put(&mut out);
        TestOutcome::Fail.put(&mut out);
        out.push(7);
        let mut r = ByteReader::new(&out, "outcome");
        assert_eq!(TestOutcome::get(&mut r).unwrap(), TestOutcome::Pass);
        assert_eq!(TestOutcome::get(&mut r).unwrap(), TestOutcome::Fail);
        assert!(matches!(TestOutcome::get(&mut r), Err(DsigError::Corrupt { .. })));
    }

    #[test]
    fn bools_and_presence_tags_are_strict() {
        assert!(!decode::<bool>(&[0]).unwrap());
        assert!(decode::<bool>(&[1]).unwrap());
        for byte in [2u8, 7, 255] {
            assert!(matches!(decode::<bool>(&[byte]), Err(DsigError::Corrupt { .. })));
            assert!(matches!(
                decode::<Option<u8>>(&[byte, 0]),
                Err(DsigError::Corrupt { .. })
            ));
        }
        for value in [None, Some(0xABCDu32)] {
            assert_eq!(decode::<Option<u32>>(&encode(&value)).unwrap(), value);
        }
        assert_eq!(<Option<u64>>::MIN_BYTES, 1);
    }

    #[derive(Debug, Clone, PartialEq)]
    struct Row {
        label: String,
        value: f64,
        flags: Vec<bool>,
    }
    crate::wire_fields!(Row { value, label, flags });

    #[derive(Debug, Clone, PartialEq)]
    enum Tagged {
        Empty,
        Row(Row),
        Count(u64),
    }
    crate::wire_tags!(Tagged: u16 { Empty = 4, Row(Row) = 5, Count(u64) = 9 });

    #[test]
    fn declared_fields_and_tags_round_trip_in_declared_order() {
        let row = Row {
            label: "zone".into(),
            value: 1.25,
            flags: vec![true, false],
        };
        let bytes = encode(&row);
        // The listed order, not the struct's, is the wire order.
        assert_eq!(bytes[..8], 1.25f64.to_bits().to_le_bytes());
        assert_eq!(decode::<Row>(&bytes).unwrap(), row);
        assert_eq!(Row::MIN_BYTES, 8 + 4 + 4);

        for tagged in [Tagged::Empty, Tagged::Row(row), Tagged::Count(3)] {
            let bytes = encode(&tagged);
            assert_eq!(decode::<Tagged>(&bytes).unwrap(), tagged);
        }
        assert_eq!(encode(&Tagged::Empty), 4u16.to_le_bytes());
        assert_eq!(Tagged::MIN_BYTES, 2, "the smallest variant carries no payload");
        assert!(matches!(decode::<Tagged>(&[6, 0]), Err(DsigError::Corrupt { .. })));
    }

    #[derive(Debug, PartialEq)]
    struct Doc {
        rows: Vec<(u32, String)>,
    }
    crate::wire_fields!(Doc { rows }, file: *b"DOC1", Some(3), "doc");

    #[test]
    fn formats_stand_alone_and_nest_behind_their_length() {
        let doc = Doc {
            rows: vec![(1, "a".into()), (2, String::new())],
        };
        let bytes = to_bytes(&doc);
        assert_eq!(&bytes[..6], b"DOC1\x03\x00");
        assert_eq!(from_bytes::<Doc>(&bytes).unwrap(), doc);
        // Another version of the same magic is corrupt.
        let mut other = bytes.clone();
        other[4] = 2;
        assert!(matches!(from_bytes::<Doc>(&other), Err(DsigError::Corrupt { .. })));
        // Nested, the format travels behind its byte length.
        let nested = encode(&doc);
        assert_eq!(nested[..4], (bytes.len() as u32).to_le_bytes());
        assert_eq!(nested[4..], bytes[..]);
        assert_eq!(decode::<Doc>(&nested).unwrap(), doc);
        assert_eq!(Doc::MIN_BYTES, 4 + 4 + 2 + 4);
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
    fn varints_round_trip_at_every_width_and_reject_malformed_encodings() {
        for (value, len) in [
            (0, 1),
            (127, 1),
            (128, 2),
            (16_383, 2),
            (16_384, 3),
            (1 << 28, 5),
            (u32::MAX, 5),
        ] {
            let mut out = Vec::new();
            put_varint(&mut out, value);
            assert_eq!(out.len(), len, "{value}");
            let mut r = ByteReader::new(&out, "varint");
            assert_eq!(r.varint().unwrap(), value);
            r.finish().unwrap();
        }
        let read = |bytes: &[u8]| ByteReader::new(bytes, "varint").varint();
        assert_eq!(read(&[0x86, 0x03]).unwrap(), 390);
        assert!(matches!(read(&[0x86]), Err(DsigError::Truncated { .. })));
        for malformed in [&[0x80, 0x00][..], &[0xff, 0x80, 0x00], &[0xff, 0xff, 0xff, 0xff, 0x10]] {
            assert!(
                matches!(read(malformed), Err(DsigError::Corrupt { .. })),
                "{malformed:x?}"
            );
        }
        assert!(matches!(
            read(&[0xff, 0xff, 0xff, 0xff, 0x8f, 0x01]),
            Err(DsigError::Corrupt { .. })
        ));
    }

    #[test]
    fn invalid_utf8_is_corrupt() {
        let mut out = Vec::new();
        put_len(&mut out, 2);
        out.extend_from_slice(&[0xFF, 0xFE]);
        assert!(matches!(decode::<String>(&out), Err(DsigError::Corrupt { .. })));
    }
}
