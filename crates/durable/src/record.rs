//! Logical journal records and their wire codec.
//!
//! Each record is one self-delimiting payload of a log segment (the
//! checksum lives in the segment framing, not here).  Replay is
//! last-writer-wins per component, which is what makes compaction and
//! torn-tail truncation safe: a full image can always be re-applied, a
//! delta applies on top of whatever image replay has built so far.

use pgrid_core::key::{DataEntry, DataId, Key};
use pgrid_core::path::Path;

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

impl Record {
    /// Encodes the record as one segment payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64);
        self.encode_into(&mut buf);
        buf
    }

    /// Appends the record's payload encoding to `buf`.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            Record::Meta(meta) => {
                buf.push(TAG_META);
                put_u32(buf, meta.shard_start);
                put_u32(buf, meta.shard_len);
                put_u64(buf, meta.epoch);
                buf.push(meta.phase);
                put_u64(buf, meta.now_ms);
                put_u64(buf, meta.seed);
            }
            Record::Image { index, peer, image } => encode_image_into(
                *index,
                *peer,
                &image.path,
                image.entries.iter(),
                &image.routing,
                &image.replicas,
                buf,
            ),
            Record::Delta { index, peer, delta } => encode_delta_into(*index, *peer, delta, buf),
        }
    }

    /// Decodes one segment payload.  The payload passed its checksum, so
    /// a decode failure means a format mismatch, not crash damage.
    pub fn decode(buf: &[u8]) -> Result<Record, String> {
        let mut at = 0usize;
        let record = match get_u8(buf, &mut at)? {
            TAG_META => Record::Meta(MetaImage {
                shard_start: get_u32(buf, &mut at)?,
                shard_len: get_u32(buf, &mut at)?,
                epoch: get_u64(buf, &mut at)?,
                phase: get_u8(buf, &mut at)?,
                now_ms: get_u64(buf, &mut at)?,
                seed: get_u64(buf, &mut at)?,
            }),
            TAG_IMAGE => Record::Image {
                index: get_u32(buf, &mut at)?,
                peer: get_u32(buf, &mut at)?,
                image: PeerImage {
                    path: get_path(buf, &mut at)?,
                    entries: get_entries(buf, &mut at)?,
                    routing: get_routing(buf, &mut at)?,
                    replicas: get_peers(buf, &mut at)?,
                },
            },
            TAG_DELTA => {
                let index = get_u32(buf, &mut at)?;
                let peer = get_u32(buf, &mut at)?;
                let flags = get_u8(buf, &mut at)?;
                Record::Delta {
                    index,
                    peer,
                    delta: PeerDelta {
                        path: if flags & DELTA_PATH != 0 {
                            Some(get_path(buf, &mut at)?)
                        } else {
                            None
                        },
                        added: get_entries(buf, &mut at)?,
                        removed: get_entries(buf, &mut at)?,
                        routing: if flags & DELTA_ROUTING != 0 {
                            Some(get_routing(buf, &mut at)?)
                        } else {
                            None
                        },
                        replicas: if flags & DELTA_REPLICAS != 0 {
                            Some(get_peers(buf, &mut at)?)
                        } else {
                            None
                        },
                    },
                }
            }
            tag => return Err(format!("unknown record tag {tag}")),
        };
        if at != buf.len() {
            return Err(format!("{} trailing bytes after record", buf.len() - at));
        }
        Ok(record)
    }
}

/// Appends the payload of a [`Record::Image`] built from borrowed parts
/// (`entries` in store order), so a live store is journaled without a copy.
pub(crate) fn encode_image_into<'a>(
    index: u32,
    peer: u32,
    path: &Path,
    entries: impl Iterator<Item = &'a DataEntry>,
    routing: &[(u8, u64, Path)],
    replicas: &[u64],
    buf: &mut Vec<u8>,
) {
    buf.push(TAG_IMAGE);
    put_u32(buf, index);
    put_u32(buf, peer);
    put_path(buf, path);
    put_entries(buf, entries);
    put_routing(buf, routing);
    put_peers(buf, replicas);
}

/// Appends the payload of a [`Record::Delta`] built from a borrowed delta.
pub(crate) fn encode_delta_into(index: u32, peer: u32, delta: &PeerDelta, buf: &mut Vec<u8>) {
    buf.push(TAG_DELTA);
    put_u32(buf, index);
    put_u32(buf, peer);
    let flag = |set: bool, bit: u8| if set { bit } else { 0 };
    buf.push(
        flag(delta.path.is_some(), DELTA_PATH)
            | flag(delta.routing.is_some(), DELTA_ROUTING)
            | flag(delta.replicas.is_some(), DELTA_REPLICAS),
    );
    if let Some(path) = &delta.path {
        put_path(buf, path);
    }
    put_entries(buf, delta.added.iter());
    put_entries(buf, delta.removed.iter());
    if let Some(routing) = &delta.routing {
        put_routing(buf, routing);
    }
    if let Some(replicas) = &delta.replicas {
        put_peers(buf, replicas);
    }
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_path(buf: &mut Vec<u8>, path: &Path) {
    let (len, bits) = path.wire_parts();
    buf.push(len);
    put_u64(buf, bits);
}

/// The count is back-patched: the iterator need not know its length.
fn put_entries<'a>(buf: &mut Vec<u8>, entries: impl Iterator<Item = &'a DataEntry>) {
    let count_at = buf.len();
    put_u32(buf, 0);
    let mut count = 0u32;
    for e in entries {
        put_u64(buf, e.key.0);
        put_u64(buf, e.id.0);
        count += 1;
    }
    buf[count_at..count_at + 4].copy_from_slice(&count.to_le_bytes());
}

fn put_routing(buf: &mut Vec<u8>, routing: &[(u8, u64, Path)]) {
    put_u32(buf, routing.len() as u32);
    for (level, peer, path) in routing {
        buf.push(*level);
        put_u64(buf, *peer);
        put_path(buf, path);
    }
}

fn put_peers(buf: &mut Vec<u8>, peers: &[u64]) {
    put_u32(buf, peers.len() as u32);
    for p in peers {
        put_u64(buf, *p);
    }
}

fn get_u8(buf: &[u8], at: &mut usize) -> Result<u8, String> {
    let v = *buf.get(*at).ok_or("record truncated (u8)")?;
    *at += 1;
    Ok(v)
}

fn get_u32(buf: &[u8], at: &mut usize) -> Result<u32, String> {
    let bytes = buf.get(*at..*at + 4).ok_or("record truncated (u32)")?;
    *at += 4;
    Ok(u32::from_le_bytes(bytes.try_into().unwrap()))
}

fn get_u64(buf: &[u8], at: &mut usize) -> Result<u64, String> {
    let bytes = buf.get(*at..*at + 8).ok_or("record truncated (u64)")?;
    *at += 8;
    Ok(u64::from_le_bytes(bytes.try_into().unwrap()))
}

fn get_path(buf: &[u8], at: &mut usize) -> Result<Path, String> {
    let len = get_u8(buf, at)?;
    let bits = get_u64(buf, at)?;
    Path::from_wire_parts(len, bits)
        .ok_or_else(|| format!("path length {len} exceeds MAX_PATH_LEN"))
}

fn get_entries(buf: &[u8], at: &mut usize) -> Result<Vec<DataEntry>, String> {
    let n = get_u32(buf, at)? as usize;
    let mut entries = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        entries.push(DataEntry {
            key: Key(get_u64(buf, at)?),
            id: DataId(get_u64(buf, at)?),
        });
    }
    Ok(entries)
}

fn get_routing(buf: &[u8], at: &mut usize) -> Result<Vec<(u8, u64, Path)>, String> {
    let n = get_u32(buf, at)? as usize;
    let mut routing = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let level = get_u8(buf, at)?;
        let peer = get_u64(buf, at)?;
        let path = get_path(buf, at)?;
        routing.push((level, peer, path));
    }
    Ok(routing)
}

fn get_peers(buf: &[u8], at: &mut usize) -> Result<Vec<u64>, String> {
    let n = get_u32(buf, at)? as usize;
    let mut peers = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        peers.push(get_u64(buf, at)?);
    }
    Ok(peers)
}

#[cfg(test)]
mod tests {
    use super::*;

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
