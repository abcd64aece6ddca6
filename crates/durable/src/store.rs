//! [`DurableStore`]: the journal a cluster worker writes its shard
//! through.
//!
//! The store keeps an in-memory **mirror** of the last journaled image
//! of every `(index, peer)` it has observed.  `observe` diffs the live
//! state against the mirror and appends at most one [`Record`] per
//! call, so every record boundary in the log is a consistent cut of one
//! peer's state — replay after a crash reconstructs exactly the mirror
//! as of the last acknowledged (synced) record, never a hybrid.
//!
//! The mirror's entry set is a copy-on-write handle on the live
//! [`KeyStore`] it last journaled: an untouched store is recognised by
//! pointer, and a peer pays for the sharing only when it next mutates.
//! Appended records wait in the log's buffer until [`DurableStore::sync`]
//! (or a full buffer) writes them out, so an appended but never synced
//! record no longer survives a mere process kill in the page cache;
//! nothing acknowledged is affected.

use crate::record::{
    encode_delta_into, encode_image_into, MetaImage, PeerDelta, PeerImage, Record,
};
use crate::segment::{Log, LogOptions};
use pgrid_core::histogram::LogHistogram;
use pgrid_core::path::Path as TriePath;
use pgrid_core::store::{KeyStore, StoreRead};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::time::Duration;

/// Durability counters and the fsync latency distribution, exported
/// into the worker's metrics registry.
#[derive(Clone, Debug, Default)]
pub struct DurableStats {
    /// Records appended this session.
    pub appended_records: u64,
    /// Frame bytes appended this session.
    pub appended_bytes: u64,
    /// Fsync calls this session.
    pub syncs: u64,
    /// Fsync latency distribution, in microseconds.
    pub fsync_micros: LogHistogram,
    /// Records replayed at open.
    pub replayed_records: u64,
    /// Torn segment tails truncated at open.
    pub torn_truncations: u64,
    /// Headerless segment files deleted at open.
    pub deleted_segments: u64,
    /// Compaction runs this session.
    pub compactions: u64,
    /// Bytes reclaimed by compaction this session.
    pub compacted_bytes: u64,
}

/// The mirror image of one peer: what the log last said about it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MirrorImage {
    /// The peer's trie path.
    pub path: TriePath,
    /// Every stored entry: a handle sharing the live store's storage
    /// until that store next mutates.
    pub entries: KeyStore,
    /// Routing references as `(level, peer, path)`.
    pub routing: Vec<(u8, u64, TriePath)>,
    /// Replica peers of this peer's partition.
    pub replicas: Vec<u64>,
}

/// Replay only: `observe` journals from the live state and keeps its handle.
impl MirrorImage {
    fn from_image(image: PeerImage) -> MirrorImage {
        MirrorImage {
            path: image.path,
            entries: KeyStore::from_entries(image.entries),
            routing: image.routing,
            replicas: image.replicas,
        }
    }

    fn apply(&mut self, delta: PeerDelta) {
        if let Some(path) = delta.path {
            self.path = path;
        }
        // One walk each, however large the delta (a split removes half a
        // store): `entries \ removed`, then one merge of `added`.
        if !delta.removed.is_empty() {
            let removed = KeyStore::from_entries(delta.removed);
            self.entries = KeyStore::from_entries(self.entries.missing_in(&removed));
        }
        self.entries.merge_batch(delta.added);
        if let Some(routing) = delta.routing {
            self.routing = routing;
        }
        if let Some(replicas) = delta.replicas {
            self.replicas = replicas;
        }
    }
}

/// Compact once the log grows past this floor…
const COMPACT_MIN_BYTES: u64 = 256 << 10;
/// …and past this multiple of the last checkpoint's size.
const COMPACT_GROWTH_FACTOR: u64 = 4;

/// A journaled view of a worker's shard, layered over [`Log`].
pub struct DurableStore {
    log: Log,
    mirror: BTreeMap<(u32, u32), MirrorImage>,
    meta: Option<MetaImage>,
    stats: DurableStats,
    last_checkpoint_bytes: u64,
}

impl DurableStore {
    /// Opens the journal in `dir`, replaying whatever survived — an
    /// empty or missing directory yields a fresh, unrecovered store.
    pub fn open(dir: &Path, options: LogOptions) -> io::Result<DurableStore> {
        let mut mirror: BTreeMap<(u32, u32), MirrorImage> = BTreeMap::new();
        let mut meta = None;
        let (log, outcome) = Log::open(dir, options, |payload| {
            match Record::decode(payload)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?
            {
                Record::Meta(image) => meta = Some(image),
                Record::Image { index, peer, image } => {
                    mirror.insert((index, peer), MirrorImage::from_image(image));
                }
                Record::Delta { index, peer, delta } => {
                    mirror.entry((index, peer)).or_default().apply(delta);
                }
            }
            Ok(())
        })?;
        Ok(DurableStore {
            log,
            mirror,
            meta,
            stats: DurableStats {
                replayed_records: outcome.records as u64,
                torn_truncations: outcome.torn_truncations as u64,
                deleted_segments: outcome.deleted_segments as u64,
                ..DurableStats::default()
            },
            last_checkpoint_bytes: 0,
        })
    }

    /// Whether the log held any prior state.
    pub fn recovered(&self) -> bool {
        self.meta.is_some() || !self.mirror.is_empty()
    }

    /// The last journaled worker metadata.
    pub fn meta(&self) -> Option<&MetaImage> {
        self.meta.as_ref()
    }

    /// Journals new worker metadata (no-op when unchanged).
    pub fn set_meta(&mut self, meta: MetaImage) -> io::Result<bool> {
        if self.meta.as_ref() == Some(&meta) {
            return Ok(false);
        }
        append(&mut self.log, &mut self.stats, |buf| {
            Record::Meta(meta.clone()).encode_into(buf)
        })?;
        self.meta = Some(meta);
        Ok(true)
    }

    /// The recovered per-peer images, keyed by `(index, peer)`.
    pub fn images(&self) -> impl Iterator<Item = (&(u32, u32), &MirrorImage)> {
        self.mirror.iter()
    }

    /// Number of mirrored peers.
    pub fn peer_count(&self) -> usize {
        self.mirror.len()
    }

    /// Journals the difference between the live state of `(index, peer)`
    /// and its mirror: a full image for a first observation, at most one
    /// delta record otherwise.  Returns whether anything was appended.
    pub fn observe(
        &mut self,
        index: u32,
        peer: u32,
        path: TriePath,
        store: &KeyStore,
        routing: &[(u8, u64, TriePath)],
        replicas: &[u64],
    ) -> io::Result<bool> {
        let Some(mirror) = self.mirror.get_mut(&(index, peer)) else {
            append(&mut self.log, &mut self.stats, |buf| {
                encode_image_into(index, peer, &path, store.as_slice(), routing, replicas, buf)
            })?;
            let image = MirrorImage {
                path,
                entries: store.clone(),
                routing: routing.to_vec(),
                replicas: replicas.to_vec(),
            };
            self.mirror.insert((index, peer), image);
            return Ok(true);
        };

        // Shared storage means the store was not touched since its last
        // observation; only a store that was copied needs the walk.
        let (added, removed) = if store.shares_storage_with(&mirror.entries) {
            (Vec::new(), Vec::new())
        } else {
            (
                store.missing_in(&mirror.entries),
                mirror.entries.missing_in(store),
            )
        };
        let delta = PeerDelta {
            path: (mirror.path != path).then_some(path),
            added,
            removed,
            routing: (mirror.routing.as_slice() != routing).then(|| routing.to_vec()),
            replicas: (mirror.replicas.as_slice() != replicas).then(|| replicas.to_vec()),
        };
        let dirty = !delta.is_empty();
        if dirty {
            append(&mut self.log, &mut self.stats, |buf| {
                encode_delta_into(index, peer, &delta, buf)
            })?;
        }
        // The log now says what the store holds: (re-)share its storage.
        mirror.entries = store.clone();
        mirror.path = path;
        if let Some(routing) = delta.routing {
            mirror.routing = routing;
        }
        if let Some(replicas) = delta.replicas {
            mirror.replicas = replicas;
        }
        Ok(dirty)
    }

    /// Writes the buffered records out and fsyncs the journal; the fsync
    /// latency alone is returned and lands in the stats histogram.  A
    /// record is only *acknowledged* — guaranteed to survive a crash —
    /// once a sync after it returned.
    pub fn sync(&mut self) -> io::Result<Duration> {
        let elapsed = self.log.sync()?;
        self.stats.syncs += 1;
        self.stats
            .fsync_micros
            .record(elapsed.as_micros().min(u128::from(u64::MAX)) as u64);
        Ok(elapsed)
    }

    /// Compacts the log into one checkpoint of the mirror when it has
    /// grown past both the size floor and a multiple of the previous
    /// checkpoint.  Returns whether a compaction ran.
    pub fn maybe_compact(&mut self) -> io::Result<bool> {
        let total = self.log.total_bytes();
        if total < COMPACT_MIN_BYTES.max(self.last_checkpoint_bytes * COMPACT_GROWTH_FACTOR) {
            return Ok(false);
        }
        self.compact()?;
        Ok(true)
    }

    /// Unconditionally rewrites the log as one checkpoint of the mirror,
    /// each image encoded straight from its store into the checkpoint.
    pub fn compact(&mut self) -> io::Result<()> {
        let outcome = self.log.compact(|checkpoint| {
            if let Some(meta) = &self.meta {
                checkpoint.append(|buf| Record::Meta(meta.clone()).encode_into(buf))?;
            }
            for (&(index, peer), m) in &self.mirror {
                checkpoint.append(|buf| {
                    let entries = m.entries.as_slice();
                    encode_image_into(index, peer, &m.path, entries, &m.routing, &m.replicas, buf)
                })?;
            }
            Ok(())
        })?;
        self.stats.compactions += 1;
        self.stats.compacted_bytes += outcome.reclaimed_bytes;
        self.last_checkpoint_bytes = outcome.checkpoint_bytes;
        Ok(())
    }

    /// Durability counters for the metrics registry.
    pub fn stats(&self) -> &DurableStats {
        &self.stats
    }

    /// Number of segment files (sealed + active).
    pub fn segment_count(&self) -> usize {
        self.log.segment_count()
    }

    /// Total bytes across all segments.
    pub fn total_bytes(&self) -> u64 {
        self.log.total_bytes()
    }
}

/// Appends one record to `log`, counting it in `stats`.
fn append(
    log: &mut Log,
    stats: &mut DurableStats,
    encode: impl FnOnce(&mut Vec<u8>),
) -> io::Result<()> {
    stats.appended_bytes += log.append(encode)?;
    stats.appended_records += 1;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgrid_core::key::{DataEntry, DataId, Key};
    use std::collections::BTreeSet;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pgrid-dstore-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn entry(key: u64, id: u64) -> DataEntry {
        DataEntry {
            key: Key(key),
            id: DataId(id),
        }
    }

    #[test]
    fn observe_then_reopen_round_trips_the_mirror() {
        let dir = temp_dir("roundtrip");
        let mut store = DurableStore::open(&dir, LogOptions::default()).unwrap();
        assert!(!store.recovered());

        let mut ks = KeyStore::new();
        ks.insert(entry(1, 1));
        ks.insert(entry(2, 2));
        let routing = vec![(0u8, 7u64, TriePath::parse("1"))];
        assert!(store
            .observe(0, 3, TriePath::parse("0"), &ks, &routing, &[5])
            .unwrap());
        // Unchanged state appends nothing.
        assert!(!store
            .observe(0, 3, TriePath::parse("0"), &ks, &routing, &[5])
            .unwrap());
        // A mutation appends a delta.
        ks.insert(entry(9, 9));
        ks.remove(&entry(1, 1));
        assert!(store
            .observe(0, 3, TriePath::parse("01"), &ks, &routing, &[5, 6])
            .unwrap());
        store
            .set_meta(MetaImage {
                shard_start: 3,
                shard_len: 1,
                epoch: 0,
                phase: 1,
                now_ms: 60_000,
                seed: 42,
            })
            .unwrap();
        store.sync().unwrap();
        drop(store);

        let reopened = DurableStore::open(&dir, LogOptions::default()).unwrap();
        assert!(reopened.recovered());
        assert_eq!(reopened.meta().unwrap().seed, 42);
        let (&key, image) = reopened.images().next().unwrap();
        assert_eq!(key, (0, 3));
        assert_eq!(image.path, TriePath::parse("01"));
        assert_eq!(
            image.entries.iter().copied().collect::<Vec<_>>(),
            vec![entry(2, 2), entry(9, 9)]
        );
        assert_eq!(image.replicas, vec![5, 6]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_preserves_the_mirror_and_shrinks_the_log() {
        let dir = temp_dir("compact");
        let mut store = DurableStore::open(&dir, LogOptions { segment_bytes: 512 }).unwrap();
        let mut ks = KeyStore::new();
        for i in 0..200u64 {
            ks.insert(entry(i, i));
            store
                .observe(0, 1, TriePath::root(), &ks, &[], &[])
                .unwrap();
        }
        store.sync().unwrap();
        let before = store.total_bytes();
        store.compact().unwrap();
        assert!(store.total_bytes() < before);
        drop(store);
        let reopened = DurableStore::open(&dir, LogOptions::default()).unwrap();
        assert_eq!(reopened.images().next().unwrap().1.entries.len(), 200);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_untouched_store_is_recognised_by_its_storage_and_appends_nothing() {
        let dir = temp_dir("untouched");
        let mut store = DurableStore::open(&dir, LogOptions::default()).unwrap();
        let mut live: KeyStore = (0..50).map(|i| entry(i, i)).collect();
        let path = TriePath::parse("01");
        let shared = |store: &DurableStore, live: &KeyStore| {
            let mirror = store.images().next().unwrap().1;
            mirror.entries.shares_storage_with(live)
        };
        let observe = |store: &mut DurableStore, live: &KeyStore| {
            let before = store.stats().appended_bytes;
            let appended = store.observe(0, 7, path, live, &[], &[9]).unwrap();
            assert_eq!(appended, store.stats().appended_bytes > before);
            assert!(shared(store, live));
            appended
        };
        assert!(observe(&mut store, &live), "first observation");
        assert!(!observe(&mut store, &live), "untouched");

        // Mutate and revert: the store was copied, its content is the
        // mirror's again — nothing to journal, and the two re-share.
        live.insert(entry(99, 99));
        live.remove(&entry(99, 99));
        assert!(!shared(&store, &live));
        assert!(!observe(&mut store, &live), "mutated and reverted");
        assert!(!observe(&mut store, &live.deep_clone()), "deep clone");

        // A reconcile with an equal replica only swaps the handle: the
        // store now shares the replica's run instead of the mirror's.
        let mut replica = live.deep_clone();
        pgrid_core::replication::reconcile(&mut replica, &mut live);
        assert!(live.shares_storage_with(&replica) && !shared(&store, &live));
        assert!(!observe(&mut store, &live), "re-shared by a reconcile");

        live.insert(entry(99, 99));
        assert!(observe(&mut store, &live), "a real mutation");
        assert_eq!(store.stats().appended_records, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replay_applies_a_large_delta_and_ends_equal_to_the_model() {
        let dir = temp_dir("large-delta");
        let mut store = DurableStore::open(&dir, LogOptions::default()).unwrap();
        // 20 000 entries spread over the key space, half under each root bit.
        let spread = |i: u64, id: u64| entry(i * ((1 << 63) / 10_000 + 1), id);
        let mut model: BTreeSet<DataEntry> = (0..20_000).map(|i| spread(i, i)).collect();
        let mut live: KeyStore = model.iter().copied().collect();
        store
            .observe(0, 1, TriePath::root(), &live, &[], &[])
            .unwrap();

        // One delta the shape of a split: half the image goes, a third of
        // it arrives (interleaved with what stays, new ids).
        let upper = TriePath::parse("1");
        let given = live.split_retain(&upper);
        assert_eq!(given.len(), 10_000);
        model.retain(|e| upper.covers(e.key));
        let arrived: Vec<DataEntry> = (0..6_667).map(|i| spread(10_000 + i, 20_000 + i)).collect();
        assert_eq!(live.merge_batch(arrived.clone()), 6_667);
        model.extend(arrived);
        store.observe(0, 1, upper, &live, &[], &[]).unwrap();
        store.sync().unwrap();
        drop(store);

        let reopened = DurableStore::open(&dir, LogOptions::default()).unwrap();
        assert_eq!(reopened.stats().replayed_records, 2, "image + one delta");
        let image = reopened.images().next().unwrap().1;
        assert_eq!(image.path, upper);
        assert!(image.entries.iter().eq(model.iter()));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sync_after_a_failed_append_leaves_a_replayable_prefix() {
        let dir = temp_dir("failed-append");
        let moved = temp_dir("failed-append-moved");
        // One record fills a segment, so every further append rotates.
        let mut store = DurableStore::open(&dir, LogOptions { segment_bytes: 16 }).unwrap();
        let live: KeyStore = (0..4).map(|i| entry(i, i)).collect();
        let observe = |store: &mut DurableStore, peer| {
            store.observe(0, peer, TriePath::root(), &live, &[], &[])
        };
        assert!(observe(&mut store, 0).unwrap());
        assert!(observe(&mut store, 1).unwrap());
        // Mid-cut the directory goes away: the open segment stays
        // writable, the next one cannot be created.
        std::fs::rename(&dir, &moved).unwrap();
        assert!(observe(&mut store, 2).is_err());
        assert_eq!(store.peer_count(), 2, "a failed append is not mirrored");
        assert_eq!(store.stats().appended_records, 2);
        // What was appended before the failure can still be acknowledged.
        store.sync().unwrap();
        std::mem::forget(store);

        let reopened = DurableStore::open(&moved, LogOptions::default()).unwrap();
        let peers: Vec<u32> = reopened.images().map(|(key, _)| key.1).collect();
        assert_eq!(peers, vec![0, 1]);
        assert!(reopened.images().all(|(_, image)| image.entries == live));
        std::fs::remove_dir_all(&moved).unwrap();
    }
}
