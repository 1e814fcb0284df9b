//! The length-prefixed frame codec beneath the wire protocol.
//!
//! Every message on a connection — in either direction — is one frame:
//! a 4-byte big-endian unsigned length `N` followed by exactly `N` bytes
//! of UTF-8 JSON. The length counts the body only, never the prefix. A
//! zero-length frame is malformed (no message serializes to nothing), and
//! frames above the negotiated maximum are rejected *before* the body is
//! read, so a corrupt length prefix cannot make a peer allocate
//! gigabytes. `PROTOCOL.md` §2 is the normative description.

use std::fmt;
use std::io::{self, Read, Write};

/// Hard ceiling on frame bodies: 16 MiB. Both ends enforce it; the server
/// advertises it in the hello frame (`max_frame`) so clients need not
/// hard-code it.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Frame length prefix width in bytes.
pub const LEN_PREFIX: usize = 4;

/// Why a frame could not be read or written. Every variant is
/// **connection-fatal**: after a frame error the stream position is
/// unknown (or the peer is gone), so the connection must be closed — the
/// kind strings below are what the server's final error frame carries
/// (see [`FrameError::kind_str`]).
#[derive(Debug)]
pub enum FrameError {
    /// The length prefix exceeds the enforced maximum. Read before the
    /// body, so an oversize (or corrupt) prefix costs nothing.
    Oversize {
        /// The advertised body length.
        len: usize,
        /// The maximum this end enforces.
        max: usize,
    },
    /// The stream ended mid-frame: inside the length prefix or before
    /// `expected` body bytes arrived. A clean EOF *between* frames is not
    /// an error (reads report it as `Ok(None)`).
    Truncated {
        /// Bytes the frame still owed.
        expected: usize,
        /// Bytes actually read before EOF.
        got: usize,
    },
    /// The body was read in full but is not a well-formed message: not
    /// UTF-8, not JSON, or JSON of the wrong shape. The offending detail
    /// is carried verbatim.
    Malformed(String),
    /// The underlying transport failed.
    Io(io::Error),
}

impl FrameError {
    /// The stable wire kind string for this error — the `err.kind` field
    /// of the server's final error frame before it drops a misbehaving
    /// connection. These strings are part of the protocol (`PROTOCOL.md`
    /// §6) and are all connection-fatal and non-retryable on the same
    /// connection.
    pub fn kind_str(&self) -> &'static str {
        match self {
            FrameError::Oversize { .. } => "frame_oversize",
            FrameError::Truncated { .. } => "frame_truncated",
            FrameError::Malformed(_) => "frame_malformed",
            FrameError::Io(_) => "io",
        }
    }
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Oversize { len, max } => {
                write!(
                    f,
                    "frame body of {len} bytes exceeds the {max}-byte maximum"
                )
            }
            FrameError::Truncated { expected, got } => {
                write!(f, "stream ended mid-frame: got {got} of {expected} bytes")
            }
            FrameError::Malformed(detail) => write!(f, "malformed frame body: {detail}"),
            FrameError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Reads one frame body. `Ok(None)` is a clean EOF at a frame boundary
/// (the peer closed the connection between messages); everything else
/// that is not a complete, in-bounds frame is a [`FrameError`].
///
/// # Errors
///
/// [`FrameError::Oversize`] for a length prefix above `max` (body
/// unread), [`FrameError::Truncated`] for EOF inside a frame,
/// [`FrameError::Malformed`] for a zero-length frame, [`FrameError::Io`]
/// for transport failures.
pub fn read_frame(r: &mut impl Read, max: usize) -> Result<Option<Vec<u8>>, FrameError> {
    let mut prefix = [0u8; LEN_PREFIX];
    match read_exact_or_eof(r, &mut prefix)? {
        0 => return Ok(None), // clean EOF between frames
        n if n < LEN_PREFIX => {
            return Err(FrameError::Truncated {
                expected: LEN_PREFIX,
                got: n,
            })
        }
        _ => {}
    }
    let len = u32::from_be_bytes(prefix) as usize;
    if len == 0 {
        return Err(FrameError::Malformed("zero-length frame".into()));
    }
    if len > max {
        return Err(FrameError::Oversize { len, max });
    }
    let mut body = vec![0u8; len];
    let got = read_exact_or_eof(r, &mut body)?;
    if got < len {
        return Err(FrameError::Truncated { expected: len, got });
    }
    Ok(Some(body))
}

/// Writes one frame (prefix + body) in a single `write_all`, then
/// flushes. One write per frame keeps a TCP peer from holding the body
/// back behind the unacknowledged 4-byte prefix.
///
/// # Errors
///
/// [`FrameError::Oversize`] if `body` exceeds `max` (nothing is written
/// — a partial frame would poison the stream), [`FrameError::Malformed`]
/// for an empty body, [`FrameError::Io`] for transport failures.
pub fn write_frame(w: &mut impl Write, body: &[u8], max: usize) -> Result<(), FrameError> {
    if body.is_empty() {
        return Err(FrameError::Malformed("zero-length frame".into()));
    }
    if body.len() > max {
        return Err(FrameError::Oversize {
            len: body.len(),
            max,
        });
    }
    let mut frame = Vec::with_capacity(LEN_PREFIX + body.len());
    frame.extend_from_slice(&(body.len() as u32).to_be_bytes());
    frame.extend_from_slice(body);
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// `read_exact`, except a clean EOF reports how many bytes arrived
/// instead of failing — the caller distinguishes "no frame" from "half a
/// frame".
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> Result<usize, FrameError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(filled)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(body: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, body, MAX_FRAME).unwrap();
        let mut cursor = &out[..];
        read_frame(&mut cursor, MAX_FRAME).unwrap().unwrap()
    }

    #[test]
    fn frames_round_trip() {
        assert_eq!(round_trip(b"{}"), b"{}");
        let big = vec![b'x'; 100_000];
        assert_eq!(round_trip(&big), big);
    }

    #[test]
    fn clean_eof_is_none_truncation_is_error() {
        let mut empty: &[u8] = &[];
        assert!(read_frame(&mut empty, MAX_FRAME).unwrap().is_none());

        // EOF inside the prefix.
        let mut partial: &[u8] = &[0, 0];
        assert!(matches!(
            read_frame(&mut partial, MAX_FRAME),
            Err(FrameError::Truncated {
                expected: 4,
                got: 2
            })
        ));

        // EOF inside the body.
        let mut encoded = Vec::new();
        write_frame(&mut encoded, b"hello", MAX_FRAME).unwrap();
        encoded.truncate(6); // prefix + 2 of 5 body bytes
        let mut cursor = &encoded[..];
        assert!(matches!(
            read_frame(&mut cursor, MAX_FRAME),
            Err(FrameError::Truncated {
                expected: 5,
                got: 2
            })
        ));
    }

    #[test]
    fn each_frame_is_one_write() {
        /// Accepts every byte and counts the `write` calls.
        struct CountingWriter {
            writes: usize,
            bytes: Vec<u8>,
        }
        impl Write for CountingWriter {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.writes += 1;
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut w = CountingWriter {
            writes: 0,
            bytes: Vec::new(),
        };
        let bodies: [&[u8]; 3] = [b"{}", b"[1,2,3]", &[b'x'; 70_000]];
        for (i, body) in bodies.iter().enumerate() {
            write_frame(&mut w, body, MAX_FRAME).unwrap();
            assert_eq!(w.writes, i + 1, "frame {i} took more than one write");
        }
        let mut cursor = &w.bytes[..];
        for body in bodies {
            assert_eq!(read_frame(&mut cursor, MAX_FRAME).unwrap().unwrap(), body);
        }
        assert!(cursor.is_empty());
    }

    #[test]
    fn oversize_rejected_before_body_read() {
        let mut prefix_only: &[u8] = &u32::MAX.to_be_bytes();
        match read_frame(&mut prefix_only, 1024) {
            Err(FrameError::Oversize { len, max }) => {
                assert_eq!(len, u32::MAX as usize);
                assert_eq!(max, 1024);
            }
            other => panic!("expected Oversize, got {other:?}"),
        }
        // Writing oversize is refused with nothing on the wire.
        let mut out = Vec::new();
        assert!(matches!(
            write_frame(&mut out, &[0u8; 2048], 1024),
            Err(FrameError::Oversize { .. })
        ));
        assert!(out.is_empty());
    }

    #[test]
    fn zero_length_frames_rejected_both_ways() {
        let mut zero: &[u8] = &[0, 0, 0, 0];
        assert!(matches!(
            read_frame(&mut zero, MAX_FRAME),
            Err(FrameError::Malformed(_))
        ));
        assert!(matches!(
            write_frame(&mut Vec::new(), &[], MAX_FRAME),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn kind_strings_are_connection_fatal_vocabulary() {
        assert_eq!(
            FrameError::Oversize { len: 9, max: 1 }.kind_str(),
            "frame_oversize"
        );
        assert_eq!(
            FrameError::Truncated {
                expected: 4,
                got: 0
            }
            .kind_str(),
            "frame_truncated"
        );
        assert_eq!(
            FrameError::Malformed("x".into()).kind_str(),
            "frame_malformed"
        );
        assert_eq!(FrameError::Io(io::Error::other("x")).kind_str(), "io");
    }
}
