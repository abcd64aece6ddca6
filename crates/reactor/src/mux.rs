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

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing,
        clippy::arithmetic_side_effects
    )
)]

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
    /// A hello shorter than [`HELLO_LEN`] bytes.
    ShortHello(usize),
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
            MuxError::ShortHello(n) => write!(f, "mux hello of {n} bytes is too short"),
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
    let &[m0, m1, m2, m3, version, flags, ..] = bytes else {
        return Err(MuxError::ShortHello(bytes.len()));
    };
    if [m0, m1, m2, m3] != MUX_MAGIC {
        return Err(MuxError::BadMagic);
    }
    if version != MUX_VERSION {
        return Err(MuxError::BadVersion(version));
    }
    Ok(flags)
}

/// Appends one record to `out`.
pub fn encode_record(out: &mut Vec<u8>, kind: u8, dest: u64, payload: &[u8]) {
    out.reserve(RECORD_HEADER.saturating_add(payload.len()));
    Be::put_u8(out, kind);
    Be::put_u64(out, dest);
    Be::put_count(out, payload.len());
    out.put(payload);
}

/// Reads the record at the head of `data` without copying: its destination
/// peer and its payload, which ends the record.  `Ok(None)` while `data`
/// holds less than one whole record.
fn split_record(data: &[u8]) -> Result<Option<(u64, &[u8])>, MuxError> {
    let mut rest = data;
    let header = (Be::u8(&mut rest), Be::u64(&mut rest), Be::u32(&mut rest));
    let (Some(kind), Some(dest), Some(len)) = header else {
        return Ok(None);
    };
    let len = len as usize;
    if kind != KIND_RAW {
        return Err(MuxError::BadKind(kind));
    }
    // A whole frame: its body bound plus the 4-byte length prefix.
    if len > MAX_FRAME_BYTES + 4 {
        return Err(MuxError::Oversized(len));
    }
    Ok(Be::bytes(&mut rest, len).map(|payload| (dest, payload)))
}

/// The whole records at the head of `data`, in order, as
/// `(destination, payload)`; stops at the first incomplete or corrupt one.
pub fn records(mut data: &[u8]) -> impl Iterator<Item = (u64, &[u8])> {
    std::iter::from_fn(move || {
        let (dest, payload) = split_record(data).ok()??;
        data = data.get(RECORD_HEADER.saturating_add(payload.len())..)?;
        Some((dest, payload))
    })
}

/// One parsed record: kind, destination peer, payload bytes.
pub type Record = (u8, u64, Bytes);

/// Incremental record reassembly over a byte stream, including the hello.
///
/// Feed received chunks with [`MuxReader::extend`]; call
/// [`MuxReader::take_hello`] until it yields the peer's flags, then
/// [`MuxReader::next_borrowed`] (or [`MuxReader::next_record`], which
/// copies) for each complete record.
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
        self.unread().len()
    }

    /// The buffered bytes behind the cursor.
    fn unread(&self) -> &[u8] {
        self.buf.get(self.pos..).unwrap_or_default()
    }

    /// Once every buffered byte is consumed, gives back the capacity past
    /// `retain` bytes that a large record grew.
    pub(crate) fn release(&mut self, retain: usize) {
        if self.pos == self.buf.len() && self.buf.capacity() > retain {
            self.buf.clear();
            self.pos = 0;
            self.buf.shrink_to(retain);
        }
    }

    /// Consumes the peer hello once its 6 bytes are buffered, returning the
    /// flags byte; `None` while incomplete.
    pub fn take_hello(&mut self) -> Result<Option<u8>, MuxError> {
        let Some(hello) = self.unread().get(..HELLO_LEN) else {
            return Ok(None);
        };
        let flags = parse_hello(hello)?;
        self.pos = self.pos.saturating_add(HELLO_LEN);
        Ok(Some(flags))
    }

    /// Consumes the next complete record and lends out its destination and
    /// payload, which stay in the reader's buffer until the next
    /// [`MuxReader::extend`]; `None` when more bytes are needed.
    pub fn next_borrowed(&mut self) -> Result<Option<(u64, &[u8])>, MuxError> {
        let unread = self.buf.get(self.pos..).unwrap_or_default();
        let Some((dest, payload)) = split_record(unread)? else {
            return Ok(None);
        };
        self.pos = (self.pos.saturating_add(RECORD_HEADER)).saturating_add(payload.len());
        Ok(Some((dest, payload)))
    }

    /// [`MuxReader::next_borrowed`] with the payload copied out: a frame the
    /// caller holds on to must not pin the whole read chunk it arrived in.
    pub fn next_record(&mut self) -> Result<Option<Record>, MuxError> {
        let record = self.next_borrowed()?;
        Ok(record.map(|(dest, payload)| (KIND_RAW, dest, Bytes::from(payload))))
    }
}
