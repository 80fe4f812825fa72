//! A minimal little-endian byte codec for checkpoint blobs.
//!
//! The checkpoint subsystem (docs/CHECKPOINT.md) serializes machine and
//! outcome state into self-describing binary sections. This module is the
//! shared vocabulary: a [`Writer`] appending fixed-width little-endian
//! primitives to a growable buffer, a [`Reader`] consuming them with
//! checked bounds (truncated or ill-formed input surfaces as a
//! [`CodecError`], never a panic), and the FNV-1a 64 hash used to
//! fingerprint configurations and programs in snapshot headers.
//!
//! The encoding is deliberately dumb: no varints, no alignment, no
//! endianness negotiation. Determinism and auditability beat density —
//! a snapshot must hash identically across hosts and releases of the
//! same format version.

use std::fmt;

/// Decoding failures. Encoding is infallible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the requested primitive.
    Truncated,
    /// A value was structurally invalid (bad tag, oversized length, ...).
    Invalid(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "input truncated"),
            CodecError::Invalid(what) => write!(f, "invalid encoding: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Appends little-endian primitives to an owned byte buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// Consumes the writer into its buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `bool` as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Writes a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `i64`, little-endian two's complement.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f64` as its IEEE-754 bit pattern (NaN payloads and
    /// signed zeros survive the round trip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes `Some(v)`/`None` as a one-byte tag plus the value.
    pub fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            None => self.u8(0),
            Some(v) => {
                self.u8(1);
                self.u64(v);
            }
        }
    }

    /// Writes a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Appends raw bytes with no length prefix (headers, magic numbers).
    pub fn raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
}

/// Consumes primitives written by [`Writer`], with checked bounds.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`, starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] at end of input.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `bool` (rejecting anything but 0 or 1).
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncation or a non-boolean byte.
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Invalid("bool")),
        }
    }

    /// Reads a `u32`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] at end of input.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Reads a `u64`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] at end of input.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Reads an `i64`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] at end of input.
    pub fn i64(&mut self) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Reads an `f64` from its bit pattern.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] at end of input.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `usize` (written as `u64`), rejecting values that do not
    /// fit the host or exceed the remaining input when used as a length.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncation or overflow.
    pub fn usize(&mut self) -> Result<usize, CodecError> {
        usize::try_from(self.u64()?).map_err(|_| CodecError::Invalid("usize overflow"))
    }

    /// Reads an optional `u64` written by [`Writer::opt_u64`].
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncation or a bad tag.
    pub fn opt_u64(&mut self) -> Result<Option<u64>, CodecError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            _ => Err(CodecError::Invalid("option tag")),
        }
    }

    /// Reads a length-prefixed byte string. The length is validated
    /// against the remaining input before any allocation.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] when the prefix exceeds what is left.
    pub fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let n = self.usize()?;
        if n > self.remaining() {
            return Err(CodecError::Truncated);
        }
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncation or invalid UTF-8.
    pub fn str(&mut self) -> Result<&'a str, CodecError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| CodecError::Invalid("utf-8"))
    }

    /// Reads exactly `n` raw bytes (no length prefix).
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] at end of input.
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        self.take(n)
    }
}

/// 64-bit FNV-1a over `bytes` — the hash behind snapshot config/program
/// fingerprints and the serve-layer `cache_key`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

/// Streaming FNV-1a 64: feed byte slices and words, read the digest out.
/// Used where hashing a structure incrementally avoids materializing its
/// canonical byte form (e.g. the per-build program fingerprint).
#[derive(Debug, Clone, Copy)]
pub struct Fnv64 {
    state: u64,
}

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A hasher at the FNV-1a offset basis.
    pub fn new() -> Fnv64 {
        Fnv64 { state: Self::OFFSET }
    }

    /// Feeds a byte slice.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(Self::PRIME);
        }
    }

    /// Feeds a `u64` as its 8 little-endian bytes.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Feeds a `u64` as one FNV step on the whole word: an eighth of
    /// [`Fnv64::write_u64`]'s work, and a different digest. Each step is
    /// a bijection of the state, so two inputs that differ in one word
    /// always hash apart.
    pub fn write_word(&mut self, v: u64) {
        self.state ^= v;
        self.state = self.state.wrapping_mul(Self::PRIME);
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.u8(7);
        w.bool(true);
        w.bool(false);
        w.u32(0xdead_beef);
        w.u64(u64::MAX - 3);
        w.i64(-42);
        w.f64(-0.0);
        w.f64(f64::NAN);
        w.usize(123);
        w.opt_u64(None);
        w.opt_u64(Some(9));
        w.bytes(b"hello");
        w.str("caps\u{00fc}le");
        w.raw(b"XY");
        let buf = w.into_bytes();

        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.i64().unwrap(), -42);
        let z = r.f64().unwrap();
        assert_eq!(z.to_bits(), (-0.0f64).to_bits());
        assert!(r.f64().unwrap().is_nan());
        assert_eq!(r.usize().unwrap(), 123);
        assert_eq!(r.opt_u64().unwrap(), None);
        assert_eq!(r.opt_u64().unwrap(), Some(9));
        assert_eq!(r.bytes().unwrap(), b"hello");
        assert_eq!(r.str().unwrap(), "caps\u{00fc}le");
        assert_eq!(r.raw(2).unwrap(), b"XY");
        assert!(r.is_empty());
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = Writer::new();
        w.u64(1);
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf[..5]);
        assert_eq!(r.u64(), Err(CodecError::Truncated));
        // A lying length prefix is caught before allocation.
        let mut w = Writer::new();
        w.usize(1 << 40);
        let buf = w.into_bytes();
        assert_eq!(Reader::new(&buf).bytes(), Err(CodecError::Truncated));
    }

    #[test]
    fn bad_tags_rejected() {
        assert_eq!(Reader::new(&[2]).bool(), Err(CodecError::Invalid("bool")));
        assert_eq!(Reader::new(&[7]).opt_u64(), Err(CodecError::Invalid("option tag")));
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut w = Writer::new();
        w.bytes(&[0xff, 0xfe]);
        let buf = w.into_bytes();
        assert_eq!(Reader::new(&buf).str(), Err(CodecError::Invalid("utf-8")));
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        // Streaming agrees with one-shot.
        let mut h = Fnv64::new();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv1a64(b"foobar"));
    }
}
