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
//! the frame over verbatim, the reactor carries it as the body of one mux
//! record, and the cluster's control channel reassembles frames from its
//! TCP stream with a [`FrameReader`] (which copes with frames split across
//! arbitrary read boundaries).
//!
//! The layout is written in one place and checked in one place.
//! [`write_frame`] appends a frame to a caller-owned `Vec<u8>` from
//! borrowed payload slices (nothing is collected, the buffer can be
//! reused); [`payload_slices`] validates a whole frame and only then hands
//! out its payloads as slices of the input — *validate, then yield*, so no
//! caller can act on the head of a frame whose tail is corrupt.
//! [`encode_frame`] / [`decode_frame`] are the owned-[`Bytes`] wrappers of
//! those two.

use bytes::Bytes;
use pgrid_core::wire::{Be, Order, Sink};

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

/// Appends one self-delimiting frame holding `payloads` to `out` — the one
/// place the layout above is written.  The two length fields are patched in
/// after the payloads, so the batch is walked once and never collected.
///
/// # Panics
///
/// Panics if the batch violates the bounds the receiving side enforces
/// ([`MAX_FRAME_BYTES`] / [`MAX_BATCH_LEN`]) — encoding such a frame would
/// only get it rejected (or, past 4 GiB, silently corrupt the `u32` length
/// prefix) at the other end.  Callers with unbounded batches must split
/// them first, as the deployment runtime does.
pub fn write_frame<'a>(out: &mut Vec<u8>, payloads: impl Iterator<Item = &'a [u8]>) {
    let start = out.len();
    out.extend_from_slice(&[0; 8]);
    let mut count = 0usize;
    for payload in payloads {
        count += 1;
        Be::put_count(out, payload.len());
        out.put(payload);
    }
    assert!(
        count <= MAX_BATCH_LEN,
        "frame batch of {count} payloads exceeds MAX_BATCH_LEN"
    );
    let body_len = out.len() - start - 4;
    assert!(
        body_len <= MAX_FRAME_BYTES,
        "frame body of {body_len} bytes exceeds MAX_FRAME_BYTES"
    );
    out[start..start + 4].copy_from_slice(&(body_len as u32).to_be_bytes());
    out[start + 4..start + 8].copy_from_slice(&(count as u32).to_be_bytes());
}

/// Encodes a batch of payloads into one self-delimiting frame
/// ([`write_frame`] into a fresh buffer).
///
/// # Panics
///
/// As [`write_frame`].
pub fn encode_frame(payloads: &[Bytes]) -> Bytes {
    let body_len: usize = 4 + payloads.iter().map(|p| 4 + p.len()).sum::<usize>();
    let mut out = Vec::with_capacity(4 + body_len);
    write_frame(&mut out, payloads.iter().map(Bytes::as_slice));
    Bytes::from(out)
}

/// The payloads of one validated frame, borrowed from its bytes.
///
/// Only [`payload_slices`] creates one, after the whole frame has passed
/// every structural check — iterating cannot fail and yields exactly
/// [`ExactSizeIterator::len`] slices.
#[derive(Clone, Debug)]
pub struct PayloadSlices<'a> {
    /// The not yet yielded `[u32 len][len bytes]` records.
    rest: &'a [u8],
    remaining: usize,
}

impl<'a> Iterator for PayloadSlices<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let len = length(&mut self.rest)?;
        let payload = Be::bytes(&mut self.rest, len)?;
        self.remaining -= 1;
        Some(payload)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for PayloadSlices<'_> {}

/// Reads one of the layout's `u32` length or count fields.
fn length(data: &mut &[u8]) -> Option<usize> {
    Be::u32(data).map(|n| n as usize)
}

/// Validates one complete frame (as produced by [`write_frame`]) and
/// returns its payloads as slices of `frame` — the one place the layout is
/// checked.  Validate, then yield: the length prefix, [`MAX_FRAME_BYTES`],
/// the batch count, every payload length and the absence of trailing bytes
/// are all checked *before* the first slice is handed out, so a caller
/// never acts on the head of a frame whose tail is corrupt.
pub fn payload_slices(frame: &[u8]) -> Result<PayloadSlices<'_>, FrameError> {
    let mut body = frame;
    let Some(body_len) = length(&mut body) else {
        return Err(FrameError::Malformed("missing length prefix"));
    };
    if body_len > MAX_FRAME_BYTES {
        return Err(FrameError::Oversized(body_len));
    }
    if body.len() != body_len {
        return Err(FrameError::Malformed(
            "length prefix disagrees with frame size",
        ));
    }
    let mut records = body;
    let Some(count) = length(&mut records) else {
        return Err(FrameError::Malformed("missing batch count"));
    };
    if count > MAX_BATCH_LEN {
        return Err(FrameError::Oversized(count));
    }
    let mut rest = records;
    for _ in 0..count {
        let Some(len) = length(&mut rest) else {
            return Err(FrameError::Malformed("truncated payload length"));
        };
        if Be::bytes(&mut rest, len).is_none() {
            return Err(FrameError::Malformed("truncated payload"));
        }
    }
    if !rest.is_empty() {
        return Err(FrameError::Malformed("trailing bytes after last payload"));
    }
    Ok(PayloadSlices {
        rest: records,
        remaining: count,
    })
}

/// Decodes one complete frame (as produced by [`encode_frame`]) back into
/// its payloads: [`payload_slices`] with each slice turned into a zero-copy
/// view sharing the frame's allocation.
pub fn decode_frame(frame: &Bytes) -> Result<Vec<Bytes>, FrameError> {
    Ok(payload_slices(frame.as_slice())?
        .map(|payload| frame.slice_ref(payload))
        .collect())
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
        let Some(body_len) = length(&mut self.buf.as_slice()) else {
            return Ok(None);
        };
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
    fn writer_appends_and_slices_borrow() {
        let batch = payloads(&[3, 0, 5]);
        let mut out = vec![0xEE];
        write_frame(&mut out, batch.iter().map(Bytes::as_slice));
        assert_eq!(&out[1..], encode_frame(&batch).as_slice());
        let slices = payload_slices(&out[1..]).unwrap();
        assert_eq!(slices.len(), 3);
        let got: Vec<&[u8]> = slices.collect();
        assert_eq!(got, [&[0u8; 3][..], &[], &[2; 5]]);
    }

    #[test]
    fn every_structural_check_runs_before_the_first_payload() {
        /// `body` behind an honest length prefix.
        fn framed(body: &[u8]) -> Vec<u8> {
            [&(body.len() as u32).to_be_bytes()[..], body].concat()
        }
        // Count 2, payloads [1] and [2, 3].
        let body = [0, 0, 0, 2, 0, 0, 0, 1, 1, 0, 0, 0, 2, 2, 3];
        assert_eq!(payload_slices(&framed(&body)).unwrap().count(), 2);
        let mut long_prefix = framed(&body);
        long_prefix[3] += 1;
        let malformed = FrameError::Malformed;
        let cases = [
            (vec![0, 0, 0], malformed("missing length prefix")),
            (vec![0x7F, 0, 0, 0], FrameError::Oversized(0x7F00_0000)),
            (
                long_prefix,
                malformed("length prefix disagrees with frame size"),
            ),
            (framed(&body[..2]), malformed("missing batch count")),
            (framed(&[1, 0, 0, 2]), FrameError::Oversized(0x0100_0002)),
            (framed(&body[..11]), malformed("truncated payload length")),
            // The *second* payload is cut short: the intact first one is
            // not handed out either.
            (framed(&body[..14]), malformed("truncated payload")),
            (
                framed(&[&body[..], &[0]].concat()),
                malformed("trailing bytes after last payload"),
            ),
        ];
        for (bytes, error) in cases {
            assert_eq!(payload_slices(&bytes).map(|_| ()), Err(error.clone()));
            assert_eq!(decode_frame(&Bytes::from(bytes)).map(|_| ()), Err(error));
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
