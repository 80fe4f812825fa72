//! `capsule-serve/2` wire framing: length-prefixed binary frames with a
//! versioned magic preamble, built on [`capsule_core::codec`].
//!
//! The v2 framing exists to make per-job protocol overhead cheap — the
//! serving-layer analogue of the paper's handful-of-cycles probe/grant
//! dispatch. A connection is negotiated once (five preamble bytes each
//! way) and then carries many concurrent requests: each frame is tagged
//! with a client-chosen request id, responses may arrive out of order,
//! and the server's per-connection writer ([`crate::shell`]) serializes
//! completions as workers finish.
//!
//! Wire grammar (all integers little-endian):
//!
//! ```text
//! preamble  = "CAPS" version:u8            # both directions, once
//! frame     = len:u32 id:u64 tag:u8 payload # len counts id+tag+payload
//! payload   = the same JSON object a v1 line carries (no newline)
//! ```
//!
//! `len` is capped at [`MAX_FRAME_LEN`]; an oversized prefix is rejected
//! *without* reading the body (a bounded read), and answered with a
//! structured `bad-frame` error frame instead of a dropped connection.
//! Response objects still carry `"schema":"capsule-serve/1"` — the frame
//! layer is versioned independently of the JSON schema precisely so that
//! v1 and v2 responses stay byte-identical.

use std::io::{ErrorKind, Read, Write};

use capsule_core::codec::Writer;

/// The four magic bytes opening every v2 connection. The first byte
/// (`C`) can never open a v1 request line (those start with `{` or
/// whitespace), which is what lets a listener negotiate the protocol
/// from the first byte on the wire.
pub const MAGIC: [u8; 4] = *b"CAPS";

/// The framing version this module speaks.
pub const VERSION: u8 = 2;

/// Hard cap on the frame length prefix: 64 MiB, comfortably above the
/// largest checkpoint-put payload and far below anything a well-formed
/// client sends by accident.
pub const MAX_FRAME_LEN: u32 = 64 << 20;

/// Bytes of frame header counted inside `len` (id + tag).
pub const FRAME_HEADER_LEN: usize = 9;

/// Initial body buffer of [`read_frame`]; larger bodies grow it as they
/// arrive.
const BODY_CHUNK: usize = 64 << 10;

/// Op tags, one per `capsule-serve/1` op. Tag 0 is reserved for
/// responses to requests whose frame could not be interpreted.
pub mod tag {
    /// Response-only: the request frame itself was malformed.
    pub const ERROR: u8 = 0;
    /// `run`
    pub const RUN: u8 = 1;
    /// `stats`
    pub const STATS: u8 = 2;
    /// `list`
    pub const LIST: u8 = 3;
    /// `cancel`
    pub const CANCEL: u8 = 4;
    /// `shutdown`
    pub const SHUTDOWN: u8 = 5;
    /// `trace`
    pub const TRACE: u8 = 6;
    /// `metrics`
    pub const METRICS: u8 = 7;
    /// `preempt`
    pub const PREEMPT: u8 = 8;
    /// `checkpoint-fetch`
    pub const CHECKPOINT_FETCH: u8 = 9;
    /// `checkpoint-put`
    pub const CHECKPOINT_PUT: u8 = 10;
    /// `health`
    pub const HEALTH: u8 = 11;
    /// `dump`
    pub const DUMP: u8 = 12;
}

/// The op name for a request tag, `None` for unknown tags (including
/// the response-only [`tag::ERROR`]).
pub fn tag_op(t: u8) -> Option<&'static str> {
    Some(match t {
        tag::RUN => "run",
        tag::STATS => "stats",
        tag::LIST => "list",
        tag::CANCEL => "cancel",
        tag::SHUTDOWN => "shutdown",
        tag::TRACE => "trace",
        tag::METRICS => "metrics",
        tag::PREEMPT => "preempt",
        tag::CHECKPOINT_FETCH => "checkpoint-fetch",
        tag::CHECKPOINT_PUT => "checkpoint-put",
        tag::HEALTH => "health",
        tag::DUMP => "dump",
        _ => return None,
    })
}

/// The frame tag for an op name, `None` for unknown ops.
pub fn op_tag(op: &str) -> Option<u8> {
    Some(match op {
        "run" => tag::RUN,
        "stats" => tag::STATS,
        "list" => tag::LIST,
        "cancel" => tag::CANCEL,
        "shutdown" => tag::SHUTDOWN,
        "trace" => tag::TRACE,
        "metrics" => tag::METRICS,
        "preempt" => tag::PREEMPT,
        "checkpoint-fetch" => tag::CHECKPOINT_FETCH,
        "checkpoint-put" => tag::CHECKPOINT_PUT,
        "health" => tag::HEALTH,
        "dump" => tag::DUMP,
        _ => return None,
    })
}

/// One decoded frame: a request id chosen by the sender, the op tag,
/// and the JSON payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Sender-chosen request id; responses echo it.
    pub id: u64,
    /// Op tag ([`tag`]); responses echo the request tag, or
    /// [`tag::ERROR`] when the request frame could not be interpreted.
    pub tag: u8,
    /// JSON payload bytes (a `capsule-serve/1` object, no newline).
    pub payload: Vec<u8>,
}

/// Why reading from a v2 stream failed.
#[derive(Debug)]
pub enum FrameError {
    /// Transport fault (includes mid-frame EOF).
    Io(std::io::Error),
    /// Clean EOF on a frame boundary: the peer is done.
    Eof,
    /// The length prefix exceeds [`MAX_FRAME_LEN`]; the body was *not*
    /// read, so the stream cannot be resynchronized.
    Oversized(u32),
    /// The length prefix is shorter than the id+tag header; the bogus
    /// body was consumed, so the stream is still in sync.
    Truncated(u32),
    /// The preamble did not open with [`MAGIC`].
    BadMagic([u8; 4]),
    /// Magic matched but the version byte is not [`VERSION`].
    BadVersion(u8),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame io: {e}"),
            FrameError::Eof => f.write_str("end of stream"),
            FrameError::Oversized(len) => {
                write!(f, "frame length {len} exceeds the {MAX_FRAME_LEN}-byte cap")
            }
            FrameError::Truncated(len) => {
                write!(f, "frame length {len} is shorter than the {FRAME_HEADER_LEN}-byte header")
            }
            FrameError::BadMagic(m) => write!(f, "bad magic {m:02x?}"),
            FrameError::BadVersion(v) => write!(f, "unsupported framing version {v}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Writes the five-byte `CAPS` + version preamble.
///
/// # Errors
///
/// Propagates the underlying write error.
pub fn write_preamble(w: &mut impl Write) -> std::io::Result<()> {
    let mut bytes = [0u8; 5];
    bytes[..4].copy_from_slice(&MAGIC);
    bytes[4] = VERSION;
    w.write_all(&bytes)
}

/// Reads and validates the peer's preamble.
///
/// # Errors
///
/// [`FrameError::BadMagic`] / [`FrameError::BadVersion`] on a preamble
/// mismatch, [`FrameError::Io`] on transport faults.
pub fn read_preamble(r: &mut impl Read) -> Result<(), FrameError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic).map_err(FrameError::Io)?;
    if magic != MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    let mut version = [0u8; 1];
    r.read_exact(&mut version).map_err(FrameError::Io)?;
    if version[0] != VERSION {
        return Err(FrameError::BadVersion(version[0]));
    }
    Ok(())
}

/// Encodes one frame (length prefix, id, tag, payload) into bytes.
#[must_use]
pub fn encode_frame(id: u64, t: u8, payload: &[u8]) -> Vec<u8> {
    let mut w = Writer::new();
    w.u32((FRAME_HEADER_LEN + payload.len()) as u32);
    w.u64(id);
    w.u8(t);
    w.raw(payload);
    w.into_bytes()
}

/// Writes one frame.
///
/// # Errors
///
/// `InvalidInput` when the payload would exceed [`MAX_FRAME_LEN`];
/// otherwise the underlying write error.
pub fn write_frame(w: &mut impl Write, id: u64, t: u8, payload: &[u8]) -> std::io::Result<()> {
    if FRAME_HEADER_LEN + payload.len() > MAX_FRAME_LEN as usize {
        return Err(std::io::Error::new(
            ErrorKind::InvalidInput,
            format!("payload of {} bytes exceeds the frame cap", payload.len()),
        ));
    }
    w.write_all(&encode_frame(id, t, payload))
}

/// Reads one frame, enforcing the length cap *before* reading the body.
///
/// # Errors
///
/// [`FrameError::Eof`] on a clean close between frames; see
/// [`FrameError`] for the rest.
pub fn read_frame(r: &mut impl Read) -> Result<Frame, FrameError> {
    let mut len_buf = [0u8; 4];
    // The first byte distinguishes a clean close from a torn frame.
    loop {
        match r.read(&mut len_buf[..1]) {
            Ok(0) => return Err(FrameError::Eof),
            Ok(_) => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    r.read_exact(&mut len_buf[1..]).map_err(FrameError::Io)?;
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Oversized(len));
    }
    // At most `BODY_CHUNK` is reserved up front; beyond it the buffer
    // grows only as body bytes arrive, so a prefix that declares a large
    // frame and then stalls or hangs up costs what was sent, not what
    // was declared.
    let mut body = Vec::with_capacity((len as usize).min(BODY_CHUNK));
    r.by_ref().take(u64::from(len)).read_to_end(&mut body).map_err(FrameError::Io)?;
    if body.len() < len as usize {
        return Err(FrameError::Io(ErrorKind::UnexpectedEof.into()));
    }
    if body.len() < FRAME_HEADER_LEN {
        // The body (if any) was consumed: the caller may keep reading.
        return Err(FrameError::Truncated(len));
    }
    let id = u64::from_le_bytes(body[..8].try_into().expect("8-byte id"));
    let t = body[8];
    body.drain(..FRAME_HEADER_LEN);
    Ok(Frame { id, tag: t, payload: body })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let payload = br#"{"op":"stats"}"#;
        let bytes = encode_frame(42, tag::STATS, payload);
        assert_eq!(bytes.len(), 4 + FRAME_HEADER_LEN + payload.len());
        let frame = read_frame(&mut &bytes[..]).expect("decode");
        assert_eq!(frame, Frame { id: 42, tag: tag::STATS, payload: payload.to_vec() });
        // An empty payload is legal framing (the handler rejects it as
        // a bad request, not a bad frame).
        let empty = encode_frame(7, tag::RUN, b"");
        let frame = read_frame(&mut &empty[..]).expect("decode empty");
        assert_eq!(frame.id, 7);
        assert!(frame.payload.is_empty());
    }

    #[test]
    fn a_dribbled_frame_decodes_identically() {
        // read_frame must tolerate arbitrary segmentation: a reader
        // that returns one byte at a time is the worst case.
        struct OneByte<'a>(&'a [u8]);
        impl Read for OneByte<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.0.is_empty() {
                    return Ok(0);
                }
                buf[0] = self.0[0];
                self.0 = &self.0[1..];
                Ok(1)
            }
        }
        let payload = br#"{"op":"run","scenario":"table1_config","scale":"smoke"}"#;
        let bytes = encode_frame(9, tag::RUN, payload);
        let frame = read_frame(&mut OneByte(&bytes)).expect("decode dribbled");
        assert_eq!(frame, Frame { id: 9, tag: tag::RUN, payload: payload.to_vec() });
    }

    #[test]
    fn an_oversized_length_prefix_is_rejected_without_reading_the_body() {
        let mut bytes = (MAX_FRAME_LEN + 1).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 16]);
        let mut cursor = &bytes[..];
        match read_frame(&mut cursor) {
            Err(FrameError::Oversized(len)) => assert_eq!(len, MAX_FRAME_LEN + 1),
            other => panic!("expected Oversized, got {other:?}"),
        }
        // The bounded read stopped at the prefix: the body is unread.
        assert_eq!(cursor.len(), 16);
        // And the writer refuses to produce such a frame in the first
        // place.
        let huge = vec![0u8; MAX_FRAME_LEN as usize];
        let err = write_frame(&mut Vec::new(), 0, tag::RUN, &huge).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidInput);
    }

    #[test]
    fn a_short_length_prefix_is_truncated_but_resyncs() {
        // len = 4 < header: the 4 junk bytes are consumed, and the next
        // frame on the stream still decodes.
        let mut bytes = 4u32.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef]);
        bytes.extend_from_slice(&encode_frame(3, tag::LIST, b"{}"));
        let mut cursor = &bytes[..];
        match read_frame(&mut cursor) {
            Err(FrameError::Truncated(len)) => assert_eq!(len, 4),
            other => panic!("expected Truncated, got {other:?}"),
        }
        let next = read_frame(&mut cursor).expect("resynced frame");
        assert_eq!(next.id, 3);
        assert_eq!(next.tag, tag::LIST);
    }

    #[test]
    fn a_large_prefix_with_a_short_body_is_io_and_consumes_the_body() {
        let mut bytes = MAX_FRAME_LEN.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[7u8; 10]);
        let mut cursor = &bytes[..];
        assert!(matches!(read_frame(&mut cursor), Err(FrameError::Io(_))));
        assert!(cursor.is_empty(), "the 10 body bytes that arrived were read");
    }

    #[test]
    fn eof_between_frames_is_clean_but_mid_frame_is_io() {
        assert!(matches!(read_frame(&mut &[][..]), Err(FrameError::Eof)));
        let bytes = encode_frame(1, tag::STATS, b"{}");
        let torn = &bytes[..bytes.len() - 1];
        assert!(matches!(read_frame(&mut &torn[..]), Err(FrameError::Io(_))));
    }

    #[test]
    fn preamble_round_trips_and_rejects_mismatches() {
        let mut buf = Vec::new();
        write_preamble(&mut buf).unwrap();
        assert_eq!(buf, b"CAPS\x02");
        read_preamble(&mut &buf[..]).expect("valid preamble");

        let wrong_magic = b"CAPX\x02";
        match read_preamble(&mut &wrong_magic[..]) {
            Err(FrameError::BadMagic(m)) => assert_eq!(&m, b"CAPX"),
            other => panic!("expected BadMagic, got {other:?}"),
        }
        let wrong_version = b"CAPS\x07";
        match read_preamble(&mut &wrong_version[..]) {
            Err(FrameError::BadVersion(v)) => assert_eq!(v, 7),
            other => panic!("expected BadVersion, got {other:?}"),
        }
    }

    #[test]
    fn op_tags_and_names_are_a_bijection() {
        let ops = [
            "run",
            "stats",
            "list",
            "cancel",
            "shutdown",
            "trace",
            "metrics",
            "preempt",
            "checkpoint-fetch",
            "checkpoint-put",
            "health",
            "dump",
        ];
        for op in ops {
            let t = op_tag(op).expect(op);
            assert_eq!(tag_op(t), Some(op));
            assert_ne!(t, tag::ERROR, "{op} must not collide with the error tag");
        }
        assert_eq!(op_tag("frobnicate"), None);
        assert_eq!(tag_op(tag::ERROR), None);
        assert_eq!(tag_op(200), None);
    }
}
