//! Length-prefixed framing over a byte stream (DESIGN.md §12.3).
//!
//! Every message on the wire is `u32` big-endian payload length followed
//! by that many payload bytes (UTF-8 JSON at the layer above, but this
//! module is content-agnostic). The length is validated against
//! [`MAX_FRAME`] **before any allocation**, so a hostile peer declaring
//! a 4 GiB frame costs the server one 4-byte read, not an OOM.
//!
//! A clean EOF at a frame boundary reads as `Ok(None)` — the peer hung
//! up between messages, which is normal. An EOF anywhere inside a frame
//! (mid-prefix or mid-payload) is `ErrorKind::UnexpectedEof`: the peer
//! died mid-message and the frame must not be trusted.

use std::io::{self, Read, Write};

/// Hard ceiling on a single frame's payload, checked before allocating.
/// Generous for this protocol — the largest legitimate response (a full
/// round-sweep report) is a few kilobytes.
pub const MAX_FRAME: u32 = 8 * 1024 * 1024;

/// Write one frame: length prefix and payload in one buffer and one
/// `write_all`, then flush. On a socket that is one `write` call for
/// any frame the peer's buffer holds.
///
/// # Errors
///
/// `ErrorKind::InvalidInput` if the payload exceeds [`MAX_FRAME`]; any
/// underlying I/O error otherwise.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&l| l <= MAX_FRAME)
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("frame payload of {} bytes exceeds MAX_FRAME", payload.len()),
            )
        })?;
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Read one frame. `Ok(None)` on a clean EOF at a frame boundary.
///
/// # Errors
///
/// `ErrorKind::UnexpectedEof` for an EOF inside a frame;
/// `ErrorKind::InvalidData` for a declared length beyond [`MAX_FRAME`]
/// (rejected before any buffer is allocated); any underlying I/O error
/// otherwise.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    let mut prefix = [0u8; 4];
    let mut filled = 0;
    while filled < prefix.len() {
        let n = r.read(&mut prefix[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed inside a frame length prefix",
            ));
        }
        filled += n;
    }
    let len = u32::from_be_bytes(prefix);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("declared frame length {len} exceeds MAX_FRAME ({MAX_FRAME})"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed inside a frame payload",
            )
        } else {
            e
        }
    })?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn round_trips_including_empty() {
        for payload in [&b""[..], b"x", b"{\"query\":\"ping\"}"] {
            let mut buf = Vec::new();
            write_frame(&mut buf, payload).unwrap();
            let mut cursor = Cursor::new(buf);
            assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), payload);
            assert!(read_frame(&mut cursor).unwrap().is_none());
        }
    }

    #[test]
    fn several_frames_back_to_back() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"one").unwrap();
        write_frame(&mut buf, b"two").unwrap();
        let mut cursor = Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"one");
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"two");
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn clean_eof_is_none_torn_prefix_is_error() {
        let mut empty = Cursor::new(Vec::new());
        assert!(read_frame(&mut empty).unwrap().is_none());
        // Two of the four prefix bytes, then EOF.
        let mut torn = Cursor::new(vec![0u8, 0]);
        let err = read_frame(&mut torn).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn torn_payload_is_unexpected_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        buf.truncate(4 + 2); // prefix + 2 of 5 payload bytes
        let err = read_frame(&mut Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn absurd_declared_length_rejected_before_allocation() {
        let mut buf = u32::MAX.to_be_bytes().to_vec();
        buf.extend_from_slice(b"junk");
        let err = read_frame(&mut Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Just over the limit is rejected too; just under is a normal
        // (if short) read that fails only on the missing payload.
        let over = (MAX_FRAME + 1).to_be_bytes().to_vec();
        let err = read_frame(&mut Cursor::new(over)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn one_write_call_per_frame() {
        /// Accepts every byte and counts the `write` calls.
        #[derive(Default)]
        struct CountingSink {
            writes: usize,
            bytes: Vec<u8>,
        }
        impl Write for CountingSink {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.writes += 1;
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        for (i, payload) in [&b""[..], b"x", b"{\"query\":\"ping\"}"].iter().enumerate() {
            let mut sink = CountingSink::default();
            write_frame(&mut sink, payload).unwrap();
            assert_eq!(sink.writes, 1, "payload #{i}");
            assert_eq!(sink.bytes[..4], (payload.len() as u32).to_be_bytes());
            assert_eq!(&sink.bytes[4..], *payload);
        }
    }

    #[test]
    fn oversize_writes_are_refused() {
        let big = vec![0u8; MAX_FRAME as usize + 1];
        let mut sink = Vec::new();
        let err = write_frame(&mut sink, &big).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(sink.is_empty(), "nothing written for a refused frame");
    }
}
