//! Length-prefixed batch framing.
//!
//! A *frame* is the unit a [`crate::Transport`] carries: one or more opaque
//! payloads (encoded `pgrid-net` messages) batched together with a
//! self-delimiting length prefix, so that a byte stream (TCP) can be cut
//! back into frames without inspecting the payloads.
//!
//! Wire layout, all integers big-endian:
//!
//! ```text
//! [u32 payload_len]                  length of everything after this field
//!   [u32 count]                      number of batched payloads
//!   count × ( [u32 len] [len bytes] )
//! ```
//!
//! The same bytes travel over every backend: the loopback transport hands
//! the frame over verbatim, the TCP backend writes it to the socket and
//! reassembles it on the other side with a [`FrameReader`] (which copes
//! with frames split across arbitrary read boundaries).

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Upper bound on the encoded size of one frame (sanity check against
/// corrupted length prefixes).
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Upper bound on the number of payloads batched into one frame.
pub const MAX_BATCH_LEN: usize = 1 << 20;

/// Why a byte sequence could not be parsed as a frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The length prefix exceeds [`MAX_FRAME_BYTES`] (or the batch count
    /// exceeds [`MAX_BATCH_LEN`]); the stream is corrupt.
    Oversized(usize),
    /// The frame's internal structure is inconsistent with its length
    /// prefix.
    Malformed(&'static str),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversized(n) => write!(f, "frame of {n} bytes exceeds the size bound"),
            FrameError::Malformed(what) => write!(f, "malformed frame: {what}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Encodes a batch of payloads into one self-delimiting frame.
///
/// # Panics
///
/// Panics if the batch violates the bounds the receiving side enforces
/// ([`MAX_FRAME_BYTES`] / [`MAX_BATCH_LEN`]) — encoding such a frame would
/// only get it rejected (or, past 4 GiB, silently corrupt the `u32` length
/// prefix) at the other end.  Callers with unbounded batches must split
/// them first, as the deployment runtime does.
pub fn encode_frame(payloads: &[Bytes]) -> Bytes {
    assert!(
        payloads.len() <= MAX_BATCH_LEN,
        "frame batch of {} payloads exceeds MAX_BATCH_LEN",
        payloads.len()
    );
    let body_len: usize = 4 + payloads.iter().map(|p| 4 + p.len()).sum::<usize>();
    assert!(
        body_len <= MAX_FRAME_BYTES,
        "frame body of {body_len} bytes exceeds MAX_FRAME_BYTES"
    );
    let mut buf = BytesMut::with_capacity(4 + body_len);
    buf.put_u32(body_len as u32);
    buf.put_u32(payloads.len() as u32);
    for payload in payloads {
        buf.put_u32(payload.len() as u32);
        buf.put_slice(payload.as_slice());
    }
    buf.freeze()
}

/// Decodes one complete frame (as produced by [`encode_frame`]) back into
/// its payloads.
pub fn decode_frame(frame: &Bytes) -> Result<Vec<Bytes>, FrameError> {
    let mut data = frame.clone();
    if data.remaining() < 4 {
        return Err(FrameError::Malformed("missing length prefix"));
    }
    let body_len = data.get_u32() as usize;
    if body_len > MAX_FRAME_BYTES {
        return Err(FrameError::Oversized(body_len));
    }
    if data.remaining() != body_len {
        return Err(FrameError::Malformed(
            "length prefix disagrees with frame size",
        ));
    }
    if body_len < 4 {
        return Err(FrameError::Malformed("missing batch count"));
    }
    let count = data.get_u32() as usize;
    if count > MAX_BATCH_LEN {
        return Err(FrameError::Oversized(count));
    }
    let mut payloads = Vec::with_capacity(count.min(4096));
    for _ in 0..count {
        if data.remaining() < 4 {
            return Err(FrameError::Malformed("truncated payload length"));
        }
        let len = data.get_u32() as usize;
        if data.remaining() < len {
            return Err(FrameError::Malformed("truncated payload"));
        }
        // Zero-copy: the payload is a bounded view into the frame bytes.
        payloads.push(data.split_to(len));
    }
    if data.remaining() != 0 {
        return Err(FrameError::Malformed("trailing bytes after last payload"));
    }
    Ok(payloads)
}

/// Incremental frame reassembly over a byte stream.
///
/// Feed arbitrary chunks with [`FrameReader::extend`]; [`FrameReader::next_frame`]
/// yields each complete frame verbatim (length prefix included, ready for
/// [`decode_frame`]) as soon as all its bytes have arrived.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
}

impl FrameReader {
    /// Creates an empty reader.
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// Appends freshly received bytes.
    pub fn extend(&mut self, chunk: &[u8]) {
        self.buf.extend_from_slice(chunk);
    }

    /// Number of buffered, not yet consumed bytes.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Returns the next complete frame, `None` when more bytes are needed,
    /// or an error when the buffered prefix cannot be a valid frame (the
    /// stream should then be dropped).
    pub fn next_frame(&mut self) -> Result<Option<Bytes>, FrameError> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let body_len =
            u32::from_be_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]) as usize;
        if body_len > MAX_FRAME_BYTES {
            return Err(FrameError::Oversized(body_len));
        }
        let total = 4 + body_len;
        if self.buf.len() < total {
            return Ok(None);
        }
        let rest = self.buf.split_off(total);
        let frame = Bytes::from(std::mem::replace(&mut self.buf, rest));
        Ok(Some(frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payloads(sizes: &[usize]) -> Vec<Bytes> {
        sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| Bytes::from(vec![i as u8; n]))
            .collect()
    }

    #[test]
    fn frames_roundtrip() {
        for sizes in [vec![], vec![0], vec![1, 2, 3], vec![100, 0, 7]] {
            let batch = payloads(&sizes);
            let frame = encode_frame(&batch);
            assert_eq!(decode_frame(&frame).unwrap(), batch);
        }
    }

    #[test]
    fn reader_reassembles_split_frames() {
        let frames: Vec<Bytes> = (1..5)
            .map(|i| encode_frame(&payloads(&vec![i; i])))
            .collect();
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend_from_slice(f.as_slice());
        }
        for chunk_size in [1usize, 2, 3, 7, 64, stream.len()] {
            let mut reader = FrameReader::new();
            let mut got = Vec::new();
            for chunk in stream.chunks(chunk_size) {
                reader.extend(chunk);
                while let Some(frame) = reader.next_frame().unwrap() {
                    got.push(frame);
                }
            }
            assert_eq!(got, frames, "chunk size {chunk_size}");
            assert_eq!(reader.buffered(), 0);
        }
    }

    #[test]
    fn truncated_frames_wait_for_more_bytes() {
        let frame = encode_frame(&payloads(&[10, 20]));
        let mut reader = FrameReader::new();
        reader.extend(&frame.as_slice()[..frame.len() - 1]);
        assert_eq!(reader.next_frame().unwrap(), None);
        reader.extend(&frame.as_slice()[frame.len() - 1..]);
        assert_eq!(reader.next_frame().unwrap(), Some(frame));
    }

    #[test]
    fn corrupt_prefixes_are_rejected() {
        let mut reader = FrameReader::new();
        reader.extend(&u32::MAX.to_be_bytes());
        assert!(matches!(reader.next_frame(), Err(FrameError::Oversized(_))));
        // decode_frame checks internal consistency too
        let frame = encode_frame(&payloads(&[4]));
        let mut bytes = frame.as_slice().to_vec();
        bytes.pop();
        let short = Bytes::from(bytes);
        assert!(decode_frame(&short).is_err());
    }
}
