//! Length-prefixed frames over byte streams.
//!
//! Each frame is `[u32 little-endian payload length][payload]`. A maximum
//! frame size guards against corrupt prefixes. Used by the TCP transport;
//! the in-process transports exchange `Bytes` directly.
//!
//! Reading goes through a [`FrameBuf`] that belongs to the stream's one
//! reader: whatever a `read` returns is kept there until a whole frame can
//! be handed out, so an error from the stream — a receive timeout above
//! all — never loses bytes that were already taken off it.

use bytes::Bytes;
use displaydb_common::{DbError, DbResult};
use std::io::{Read, Write};

/// Frames larger than this are rejected as corrupt.
pub const MAX_FRAME_LEN: usize = 128 * 1024 * 1024;

/// Bytes of length prefix in front of every payload.
const PREFIX_LEN: usize = 4;

/// Size a [`FrameBuf`] starts at and shrinks back to: many times the
/// protocol's usual frame (tens to hundreds of bytes), so one `read`
/// takes in every frame the peer has sent so far.
const READ_CHUNK: usize = 8 * 1024;

/// Write one frame to `w` (buffering is the caller's concern).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> DbResult<()> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(DbError::Protocol(format!(
            "frame of {} bytes exceeds maximum",
            payload.len()
        )));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Receive buffer of one byte stream: the bytes read off the stream that
/// have not been handed out as frames yet (`buf[start..end]`).
#[derive(Debug, Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl FrameBuf {
    /// An empty buffer; storage is allocated by the first read.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes the frame at the front occupies, prefix included, as far as
    /// the pending bytes can tell: just the prefix while that is
    /// incomplete.
    fn front_len(&self) -> DbResult<usize> {
        let Some(prefix) = self.buf[self.start..self.end].get(..PREFIX_LEN) else {
            return Ok(PREFIX_LEN);
        };
        let len = u32::from_le_bytes(prefix.try_into().expect("prefix is 4 bytes")) as usize;
        if len > MAX_FRAME_LEN {
            return Err(DbError::Corrupt(format!("frame length {len} exceeds cap")));
        }
        Ok(PREFIX_LEN + len)
    }

    /// Hand out the frame at the front, all `total` bytes of which have
    /// arrived.
    fn pop_front(&mut self, total: usize) -> Bytes {
        let frame = Bytes::copy_from_slice(&self.buf[self.start + PREFIX_LEN..self.start + total]);
        self.start += total;
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
            if self.buf.len() > READ_CHUNK {
                // A large frame passed through; do not keep its storage.
                self.buf = Vec::new();
            }
        }
        frame
    }

    /// Make free space behind `end` for a read towards a frame of
    /// `total` bytes: move the pending bytes to the front when the frame
    /// would not fit behind `start`, and grow — geometrically, so a
    /// prefix announcing a huge frame costs memory only as its bytes
    /// really arrive — when the storage is full.
    fn make_room(&mut self, total: usize) {
        if self.buf.len() - self.start < total {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.end == self.buf.len() {
            let grown = (self.buf.len() * 2).clamp(READ_CHUNK, total.max(READ_CHUNK));
            self.buf.resize(grown, 0);
        }
    }
}

/// Read one frame from `r` through its receive buffer `buf`.
///
/// A frame already complete in `buf` is returned without touching `r`;
/// otherwise each `read` takes in as much as the stream has, and frames
/// beyond the first stay buffered for the next calls. Returns
/// [`DbError::Disconnected`] on clean EOF at a frame boundary and
/// [`DbError::Corrupt`] on EOF inside a payload. Any other error from `r`
/// is passed on with `buf` untouched, so after a timeout the next call
/// resumes the same frame.
pub fn read_frame(r: &mut impl Read, buf: &mut FrameBuf) -> DbResult<Bytes> {
    loop {
        let total = buf.front_len()?;
        if buf.end - buf.start >= total {
            return Ok(buf.pop_front(total));
        }
        buf.make_room(total);
        match r.read(&mut buf.buf[buf.end..]) {
            Ok(0) if total == PREFIX_LEN => return Err(DbError::Disconnected),
            Ok(0) => return Err(DbError::Corrupt("truncated frame payload".into())),
            Ok(n) => buf.end += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn roundtrip_frames() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        write_frame(&mut wire, &[7u8; 1000]).unwrap();
        let mut cur = Cursor::new(wire);
        let mut buf = FrameBuf::new();
        assert_eq!(&read_frame(&mut cur, &mut buf).unwrap()[..], b"hello");
        // One read took in all three frames.
        assert_eq!(cur.position(), cur.get_ref().len() as u64);
        assert_eq!(read_frame(&mut cur, &mut buf).unwrap().len(), 0);
        assert_eq!(read_frame(&mut cur, &mut buf).unwrap().len(), 1000);
        assert!(matches!(
            read_frame(&mut cur, &mut buf),
            Err(DbError::Disconnected)
        ));
    }

    #[test]
    fn truncated_payload_is_corrupt() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        wire.truncate(6); // keep length prefix + 2 payload bytes
        let mut cur = Cursor::new(wire);
        assert!(matches!(
            read_frame(&mut cur, &mut FrameBuf::new()),
            Err(DbError::Corrupt(_))
        ));
    }

    #[test]
    fn oversized_length_prefix_rejected() {
        let wire = (u32::MAX).to_le_bytes().to_vec();
        let mut cur = Cursor::new(wire);
        assert!(matches!(
            read_frame(&mut cur, &mut FrameBuf::new()),
            Err(DbError::Corrupt(_))
        ));
    }

    #[test]
    fn partial_length_prefix_is_disconnect() {
        // EOF mid-prefix: treated as disconnect (peer went away between
        // frames from our perspective).
        let mut cur = Cursor::new(vec![1u8, 0]);
        assert!(matches!(
            read_frame(&mut cur, &mut FrameBuf::new()),
            Err(DbError::Disconnected)
        ));
    }

    /// A stream that hands out its script one piece per `read`, failing
    /// with `WouldBlock` at each `None` — a socket whose receive timeout
    /// expires between the pieces.
    struct Pieces(std::collections::VecDeque<Option<Vec<u8>>>);

    impl Read for Pieces {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            match self.0.pop_front() {
                Some(Some(piece)) => {
                    assert!(piece.len() <= out.len(), "test pieces fit the free space");
                    out[..piece.len()].copy_from_slice(&piece);
                    Ok(piece.len())
                }
                Some(None) => Err(std::io::ErrorKind::WouldBlock.into()),
                None => Ok(0),
            }
        }
    }

    #[test]
    fn an_error_mid_frame_keeps_the_bytes_already_read() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &[9u8; 100]).unwrap();
        write_frame(&mut wire, b"next").unwrap();
        // Timeouts inside the prefix, inside the payload, and between
        // the frames.
        let mut stream = Pieces(
            [
                Some(wire[..2].to_vec()),
                None,
                Some(wire[2..50].to_vec()),
                None,
                Some(wire[50..].to_vec()),
            ]
            .into(),
        );
        let mut buf = FrameBuf::new();
        for _ in 0..2 {
            assert!(matches!(
                read_frame(&mut stream, &mut buf),
                Err(DbError::Io(_))
            ));
        }
        assert_eq!(&read_frame(&mut stream, &mut buf).unwrap()[..], &[9u8; 100]);
        assert_eq!(&read_frame(&mut stream, &mut buf).unwrap()[..], b"next");
        assert!(matches!(
            read_frame(&mut stream, &mut buf),
            Err(DbError::Disconnected)
        ));
    }

    #[test]
    fn frames_larger_than_the_buffer_grow_it_and_give_it_back() {
        let big = vec![3u8; 5 * READ_CHUNK + 17];
        let mut wire = Vec::new();
        write_frame(&mut wire, b"small").unwrap();
        write_frame(&mut wire, &big).unwrap();
        write_frame(&mut wire, b"after").unwrap();
        let mut cur = Cursor::new(wire);
        let mut buf = FrameBuf::new();
        assert_eq!(&read_frame(&mut cur, &mut buf).unwrap()[..], b"small");
        assert_eq!(&read_frame(&mut cur, &mut buf).unwrap()[..], &big[..]);
        assert_eq!(&read_frame(&mut cur, &mut buf).unwrap()[..], b"after");
        assert!(buf.buf.len() <= READ_CHUNK);
    }
}
