//! Multiplexed wire records.
//!
//! The reactor hosts *all* local peers behind **one** listening socket, so
//! the stream between two processes carries frames for many destination
//! peers.  Each frame travels as one record:
//!
//! ```text
//! [u8 kind] [u64 dest_peer] [u32 len] [len bytes]     (big-endian)
//! ```
//!
//! `kind` 0 ([`KIND_RAW`]) is a frame exactly as
//! [`pgrid_transport::frame::encode_frame`] produced it; it is the only
//! kind, and any other value is rejected as [`MuxError::BadKind`].
//!
//! Every connection opens with a 6-byte hello in each direction:
//!
//! ```text
//! [b"PGRX"] [u8 version] [u8 flags]      flags: reserved, sent as 0
//! ```

use bytes::Bytes;
use pgrid_core::wire::{Be, Order, Sink};
use pgrid_transport::frame::MAX_FRAME_BYTES;

/// First four bytes of every connection, both directions.
pub const MUX_MAGIC: [u8; 4] = *b"PGRX";

/// Mux wire version.
pub const MUX_VERSION: u8 = 1;

/// Hello length in bytes.
pub const HELLO_LEN: usize = 6;

/// Record kind: raw frame bytes.
pub const KIND_RAW: u8 = 0;

/// Fixed record header length (`kind + dest + len`).
pub const RECORD_HEADER: usize = 1 + 8 + 4;

/// Why a byte stream could not be parsed as mux records.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MuxError {
    /// The hello did not start with [`MUX_MAGIC`].
    BadMagic,
    /// The hello carried an unknown [`MUX_VERSION`].
    BadVersion(u8),
    /// A record declared an unknown kind byte.
    BadKind(u8),
    /// A record length exceeds the frame size bound; the stream is corrupt.
    Oversized(usize),
}

impl std::fmt::Display for MuxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MuxError::BadMagic => write!(f, "mux hello magic mismatch"),
            MuxError::BadVersion(v) => write!(f, "unsupported mux version {v}"),
            MuxError::BadKind(k) => write!(f, "unknown mux record kind {k}"),
            MuxError::Oversized(n) => write!(f, "mux record of {n} bytes exceeds the bound"),
        }
    }
}

impl std::error::Error for MuxError {}

/// Builds the connection-opening hello (flags byte reserved, `0`).
pub fn hello() -> [u8; HELLO_LEN] {
    [
        MUX_MAGIC[0],
        MUX_MAGIC[1],
        MUX_MAGIC[2],
        MUX_MAGIC[3],
        MUX_VERSION,
        0,
    ]
}

/// Validates a received hello, returning its (reserved) flags byte.
pub fn parse_hello(bytes: &[u8]) -> Result<u8, MuxError> {
    debug_assert_eq!(bytes.len(), HELLO_LEN);
    if bytes[..4] != MUX_MAGIC {
        return Err(MuxError::BadMagic);
    }
    if bytes[4] != MUX_VERSION {
        return Err(MuxError::BadVersion(bytes[4]));
    }
    Ok(bytes[5])
}

/// Appends one record to `out`.
pub fn encode_record(out: &mut Vec<u8>, kind: u8, dest: u64, payload: &[u8]) {
    out.reserve(RECORD_HEADER + payload.len());
    Be::put_u8(out, kind);
    Be::put_u64(out, dest);
    Be::put_count(out, payload.len());
    out.put(payload);
}

/// Reads one record header: kind, destination peer, payload length.
fn record_header(data: &mut &[u8]) -> Option<(u8, u64, usize)> {
    Some((Be::u8(data)?, Be::u64(data)?, Be::u32(data)? as usize))
}

/// One parsed record: kind, destination peer, payload bytes.
pub type Record = (u8, u64, Bytes);

/// Incremental record reassembly over a byte stream, including the hello.
///
/// Feed received chunks with [`MuxReader::extend`]; call
/// [`MuxReader::take_hello`] until it yields the peer's flags, then
/// [`MuxReader::next_record`] for each complete record.
#[derive(Debug, Default)]
pub struct MuxReader {
    buf: Vec<u8>,
    /// Read cursor: `buf[..pos]` is consumed and dropped by the next
    /// [`MuxReader::extend`], so parsing a chunk never moves its tail.
    pos: usize,
}

impl MuxReader {
    /// Creates an empty reader.
    pub fn new() -> MuxReader {
        MuxReader::default()
    }

    /// Appends freshly received bytes.
    pub fn extend(&mut self, chunk: &[u8]) {
        self.buf.drain(..self.pos);
        self.pos = 0;
        self.buf.extend_from_slice(chunk);
    }

    /// Number of buffered, not yet consumed bytes.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consumes the peer hello once its 6 bytes are buffered, returning the
    /// flags byte; `None` while incomplete.
    pub fn take_hello(&mut self) -> Result<Option<u8>, MuxError> {
        let Some(hello) = self.buf[self.pos..].get(..HELLO_LEN) else {
            return Ok(None);
        };
        let flags = parse_hello(hello)?;
        self.pos += HELLO_LEN;
        Ok(Some(flags))
    }

    /// Returns the next complete record, `None` when more bytes are needed.
    ///
    /// The payload is copied out once: a frame the caller holds on to must
    /// not pin the whole read chunk it arrived in.
    pub fn next_record(&mut self) -> Result<Option<Record>, MuxError> {
        let mut data = &self.buf[self.pos..];
        let Some((kind, dest, len)) = record_header(&mut data) else {
            return Ok(None);
        };
        if kind != KIND_RAW {
            return Err(MuxError::BadKind(kind));
        }
        // A whole frame: its body bound plus the 4-byte length prefix.
        if len > MAX_FRAME_BYTES + 4 {
            return Err(MuxError::Oversized(len));
        }
        let Some(payload) = Be::bytes(&mut data, len) else {
            return Ok(None);
        };
        let payload = Bytes::from(payload);
        self.pos += RECORD_HEADER + len;
        Ok(Some((kind, dest, payload)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_roundtrips_and_rejects_garbage() {
        assert_eq!(hello().len(), HELLO_LEN);
        assert_eq!(parse_hello(&hello()), Ok(0));
        assert_eq!(parse_hello(b"PGRY\x01\x00"), Err(MuxError::BadMagic));
        assert_eq!(
            parse_hello(b"PGRX\x63\x00"),
            Err(MuxError::BadVersion(0x63))
        );
    }

    #[test]
    fn records_reassemble_at_every_chunk_size() {
        let payloads: Vec<(u8, u64, Vec<u8>)> = vec![
            (KIND_RAW, 0, vec![]),
            (KIND_RAW, 42, vec![7u8; 300]),
            (KIND_RAW, u64::MAX, (0..=255u8).collect()),
        ];
        let mut stream: Vec<u8> = hello().to_vec();
        for (kind, dest, payload) in &payloads {
            encode_record(&mut stream, *kind, *dest, payload);
        }
        for chunk_size in [1usize, 2, 5, 13, 64, stream.len()] {
            let mut reader = MuxReader::new();
            let mut hello_flags = None;
            let mut got = Vec::new();
            for chunk in stream.chunks(chunk_size) {
                reader.extend(chunk);
                if hello_flags.is_none() {
                    hello_flags = reader.take_hello().unwrap();
                    if hello_flags.is_none() {
                        continue;
                    }
                }
                while let Some(record) = reader.next_record().unwrap() {
                    got.push(record);
                }
            }
            assert_eq!(hello_flags, Some(0), "chunks of {chunk_size}");
            assert_eq!(got.len(), payloads.len());
            for ((kind, dest, payload), (got_kind, got_dest, got_payload)) in
                payloads.iter().zip(&got)
            {
                assert_eq!(kind, got_kind);
                assert_eq!(dest, got_dest);
                assert_eq!(payload.as_slice(), got_payload.as_slice());
            }
            assert_eq!(reader.buffered(), 0);
        }
    }

    #[test]
    fn corrupt_records_are_rejected() {
        let mut reader = MuxReader::new();
        reader.extend(&[9u8; RECORD_HEADER]);
        assert!(matches!(reader.next_record(), Err(MuxError::BadKind(9))));
        // Kind 1 is unassigned, like every other non-zero kind.
        let mut reader = MuxReader::new();
        let mut kind_one = Vec::new();
        encode_record(&mut kind_one, 1, 7, b"payload");
        reader.extend(&kind_one);
        assert_eq!(reader.next_record(), Err(MuxError::BadKind(1)));
        let mut reader = MuxReader::new();
        let mut huge = vec![KIND_RAW];
        huge.extend_from_slice(&0u64.to_be_bytes());
        huge.extend_from_slice(&u32::MAX.to_be_bytes());
        reader.extend(&huge);
        assert!(matches!(reader.next_record(), Err(MuxError::Oversized(_))));
    }
}
