//! Logical journal records and their wire codec.
//!
//! Each record is one self-delimiting payload of a log segment (the
//! checksum lives in the segment framing, not here).  Replay is
//! last-writer-wins per component, which is what makes compaction and
//! torn-tail truncation safe: a full image can always be re-applied, a
//! delta applies on top of whatever image replay has built so far.
//!
//! The codec is little-endian and written with [`pgrid_core::wire`]: the
//! metadata, an image and its parts are one [`wire_codec!`] listing each.
//! A delta's flag-bits header and the borrowed encoders the store journals
//! live state with are written by hand.

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

use pgrid_core::key::DataEntry;
use pgrid_core::path::Path;
use pgrid_core::wire::{Le, Order, Wire};
use pgrid_core::wire_codec;

/// Worker-level metadata: which shard this log belongs to and how far
/// the run had progressed at the last sync.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetaImage {
    /// First hosted peer index.
    pub shard_start: u32,
    /// Number of hosted peers.
    pub shard_len: u32,
    /// Control-plane membership epoch at the last sync.
    pub epoch: u64,
    /// Last phase barrier this worker passed.
    pub phase: u8,
    /// Virtual time at the last sync, in milliseconds.
    pub now_ms: u64,
    /// Seed of the deployment config (guards against replaying a log
    /// into a different run).
    pub seed: u64,
}

/// A full per-peer image: path, entries, routing references, replicas.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PeerImage {
    /// The peer's trie path.
    pub path: Path,
    /// Every stored entry.
    pub entries: Vec<DataEntry>,
    /// Routing references as `(level, peer, path)`.
    pub routing: Vec<(u8, u64, Path)>,
    /// Replica peers of this peer's partition.
    pub replicas: Vec<u64>,
}

/// The parts of a peer's state that changed since its last journaled
/// image; `None` components are unchanged.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PeerDelta {
    /// New path, if it changed.
    pub path: Option<Path>,
    /// Entries added to the store.
    pub added: Vec<DataEntry>,
    /// Entries removed from the store (split handovers, drains).
    pub removed: Vec<DataEntry>,
    /// Full routing image, if any reference changed.
    pub routing: Option<Vec<(u8, u64, Path)>>,
    /// Full replica set, if it changed.
    pub replicas: Option<Vec<u64>>,
}

impl PeerDelta {
    /// Whether the delta carries no change at all.
    pub fn is_empty(&self) -> bool {
        self.path.is_none()
            && self.added.is_empty()
            && self.removed.is_empty()
            && self.routing.is_none()
            && self.replicas.is_none()
    }
}

/// One journal record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Record {
    /// Worker metadata (shard identity, run progress).
    Meta(MetaImage),
    /// A full image of one peer on one index — written the first time a
    /// peer is observed and by every compaction checkpoint.
    Image {
        /// Index id.
        index: u32,
        /// Peer index.
        peer: u32,
        /// The image.
        image: PeerImage,
    },
    /// A delta against the peer's last journaled state.  One `observe`
    /// emits at most one delta, so every record boundary is a consistent
    /// cut of that peer's state.
    Delta {
        /// Index id.
        index: u32,
        /// Peer index.
        peer: u32,
        /// The changes.
        delta: PeerDelta,
    },
}

const TAG_META: u8 = 1;
const TAG_IMAGE: u8 = 2;
const TAG_DELTA: u8 = 3;

const DELTA_PATH: u8 = 1;
const DELTA_ROUTING: u8 = 2;
const DELTA_REPLICAS: u8 = 4;

wire_codec! {
    struct MetaImage in Le { shard_start, shard_len, epoch, phase, now_ms, seed }

    struct PeerImage in Le { path, entries, routing, replicas }

    enum Record in Le except Delta {
        TAG_META => Meta(meta),
        TAG_IMAGE => Image { index, peer, image },
    }
}

impl Record {
    /// Encodes the record as one segment payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64);
        self.encode_into(&mut buf);
        buf
    }

    /// Appends the record's payload encoding to `buf`: an image or a delta
    /// through its borrowed encoder, the metadata through the listing.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            Record::Image { index, peer, image } => encode_image_into(
                *index,
                *peer,
                &image.path,
                &image.entries,
                &image.routing,
                &image.replicas,
                buf,
            ),
            Record::Delta { index, peer, delta } => encode_delta_into(*index, *peer, delta, buf),
            meta => meta.put_listed(buf),
        }
    }

    /// Decodes one segment payload.  The payload passed its checksum, so
    /// a decode failure means a format mismatch, not crash damage.
    pub fn decode(buf: &[u8]) -> Result<Record, String> {
        let mut data = buf;
        let record = Record::decode_from(&mut data).ok_or_else(|| {
            let (len, tag) = (buf.len(), buf.first());
            format!("record of {len} bytes (tag {tag:?}) is truncated, malformed or of unknown tag")
        })?;
        if !data.is_empty() {
            return Err(format!("{} trailing bytes after record", data.len()));
        }
        Ok(record)
    }

    /// Decodes one record from the front of `data`: a delta by its flag
    /// bits, which must name only its three optional parts, and every
    /// other record through the listing.
    fn decode_from(data: &mut &[u8]) -> Option<Record> {
        let tag = Le::u8(data)?;
        if tag != TAG_DELTA {
            return Record::get_listed(tag, data);
        }
        let index = Le::u32(data)?;
        let peer = Le::u32(data)?;
        let flags = Le::u8(data)?;
        if flags & !(DELTA_PATH | DELTA_ROUTING | DELTA_REPLICAS) != 0 {
            return None;
        }
        let delta = PeerDelta {
            path: optional(flags & DELTA_PATH != 0, data)?,
            added: Le::get(data)?,
            removed: Le::get(data)?,
            routing: optional(flags & DELTA_ROUTING != 0, data)?,
            replicas: optional(flags & DELTA_REPLICAS != 0, data)?,
        };
        Some(Record::Delta { index, peer, delta })
    }
}

/// Reads a delta's optional part: the value when its flag bit is `set`,
/// nothing otherwise.
fn optional<'a, T: Wire<'a, Le>>(set: bool, data: &mut &'a [u8]) -> Option<Option<T>> {
    if set {
        Le::get(data).map(Some)
    } else {
        Some(None)
    }
}

/// Appends the payload of a [`Record::Image`] built from borrowed parts
/// (`entries` in store order), so a live store is journaled without a copy.
pub(crate) fn encode_image_into(
    index: u32,
    peer: u32,
    path: &Path,
    entries: &[DataEntry],
    routing: &[(u8, u64, Path)],
    replicas: &[u64],
    buf: &mut Vec<u8>,
) {
    Le::put_u8(buf, TAG_IMAGE);
    Le::put_u32(buf, index);
    Le::put_u32(buf, peer);
    Le::put(buf, path);
    <DataEntry as Wire<Le>>::put_list(entries, buf);
    <(u8, u64, Path) as Wire<Le>>::put_list(routing, buf);
    <u64 as Wire<Le>>::put_list(replicas, buf);
}

/// Appends the payload of a [`Record::Delta`] built from a borrowed delta:
/// tag, index, peer, a flag bit per optional part present, then the parts.
pub(crate) fn encode_delta_into(index: u32, peer: u32, delta: &PeerDelta, buf: &mut Vec<u8>) {
    Le::put_u8(buf, TAG_DELTA);
    Le::put_u32(buf, index);
    Le::put_u32(buf, peer);
    let flag = |set: bool, bit: u8| if set { bit } else { 0 };
    Le::put_u8(
        buf,
        flag(delta.path.is_some(), DELTA_PATH)
            | flag(delta.routing.is_some(), DELTA_ROUTING)
            | flag(delta.replicas.is_some(), DELTA_REPLICAS),
    );
    if let Some(path) = &delta.path {
        Le::put(buf, path);
    }
    Le::put(buf, &delta.added);
    Le::put(buf, &delta.removed);
    if let Some(routing) = &delta.routing {
        Le::put(buf, routing);
    }
    if let Some(replicas) = &delta.replicas {
        Le::put(buf, replicas);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgrid_core::key::{DataId, Key};

    fn sample_records() -> Vec<Record> {
        vec![
            Record::Meta(MetaImage {
                shard_start: 10,
                shard_len: 11,
                epoch: 3,
                phase: 2,
                now_ms: 600_000,
                seed: 0xBEEF,
            }),
            Record::Image {
                index: 0,
                peer: 12,
                image: PeerImage {
                    path: Path::parse("0110"),
                    entries: vec![
                        DataEntry {
                            key: Key(42),
                            id: DataId(7),
                        },
                        DataEntry {
                            key: Key(u64::MAX),
                            id: DataId(0),
                        },
                    ],
                    routing: vec![(0, 3, Path::parse("1")), (1, 5, Path::parse("00"))],
                    replicas: vec![3, 9],
                },
            },
            Record::Delta {
                index: 1,
                peer: 12,
                delta: PeerDelta {
                    path: Some(Path::parse("01101")),
                    added: vec![DataEntry {
                        key: Key(1),
                        id: DataId(2),
                    }],
                    removed: vec![],
                    routing: None,
                    replicas: Some(vec![4]),
                },
            },
            Record::Delta {
                index: 0,
                peer: 0,
                delta: PeerDelta::default(),
            },
        ]
    }

    #[test]
    fn records_round_trip() {
        for record in sample_records() {
            let decoded = Record::decode(&record.encode()).unwrap();
            assert_eq!(decoded, record);
        }
    }

    #[test]
    fn payloads_the_parent_commit_wrote_still_decode() {
        // An image and a delta as the codec wrote them before it moved
        // onto the kit: a log of either build replays at the other.
        let image = Record::Image {
            index: 1,
            peer: 0x0A0B,
            image: PeerImage {
                path: Path::parse("0110"),
                entries: vec![DataEntry {
                    key: Key(0x0102_0304_0506_0708),
                    id: DataId(9),
                }],
                routing: vec![(1, 0x0A0B, Path::parse("00"))],
                replicas: vec![5, 0xFFFF_FFFF_FFFF_FFFE],
            },
        };
        let image_wire = [
            2, 1, 0, 0, 0, 11, 10, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 96, 1, 0, 0, 0, 8, 7, 6, 5, 4, 3,
            2, 1, 9, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 11, 10, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0,
            0, 0, 0, 0, 2, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 254, 255, 255, 255, 255, 255, 255, 255,
        ];
        let delta = Record::Delta {
            index: 2,
            peer: 3,
            delta: PeerDelta {
                path: Some(Path::parse("1")),
                added: vec![],
                removed: vec![DataEntry {
                    key: Key(7),
                    id: DataId(8),
                }],
                routing: None,
                replicas: Some(vec![4]),
            },
        };
        let delta_wire = [
            3, 2, 0, 0, 0, 3, 0, 0, 0, 5, 1, 0, 0, 0, 0, 0, 0, 0, 128, 0, 0, 0, 0, 1, 0, 0, 0, 7,
            0, 0, 0, 0, 0, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0,
        ];
        for (record, wire) in [(image, &image_wire[..]), (delta, &delta_wire[..])] {
            assert_eq!(record.encode(), wire);
            assert_eq!(Record::decode(wire), Ok(record));
        }
    }

    #[test]
    fn a_claimed_count_is_refused_before_anything_is_reserved() {
        // An image of the root path claiming `u32::MAX` entries, routing
        // references or replicas, with nothing behind the claim.
        for lists_before in 0..3 {
            let mut wire = vec![TAG_IMAGE, 0, 0, 0, 0, 0, 0, 0, 0];
            wire.extend([0; 9]);
            wire.extend(vec![0; 4 * lists_before]);
            wire.extend([0xFF; 4]);
            assert!(Record::decode(&wire).is_err(), "list {lists_before}");
        }
    }

    #[test]
    fn a_delta_flag_bit_outside_its_three_parts_is_refused() {
        let mut wire = Record::Delta {
            index: 0,
            peer: 0,
            delta: PeerDelta::default(),
        }
        .encode();
        assert!(Record::decode(&wire).is_ok());
        for bit in [8, 16, 32, 64, 128] {
            wire[9] = bit;
            assert!(Record::decode(&wire).is_err(), "flag bit {bit}");
        }
    }

    #[test]
    fn truncated_and_trailing_payloads_are_rejected() {
        for record in sample_records() {
            let wire = record.encode();
            for cut in 0..wire.len() {
                assert!(
                    Record::decode(&wire[..cut]).is_err(),
                    "prefix of length {cut} decoded"
                );
            }
            let mut extra = wire.clone();
            extra.push(0);
            assert!(Record::decode(&extra).is_err());
        }
    }
}
