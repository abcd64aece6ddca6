//! Crash-safety properties of the durable log.
//!
//! Four layers of the same guarantee:
//!
//! * the record codec round-trips arbitrary records, rejects every strict
//!   prefix, is total on bit flips and arbitrary bytes, consumes an
//!   accepted payload exactly and never lets a claimed count outrun the
//!   input; a segment scan over a valid header and arbitrary bytes stays
//!   inside the file and surfaces only checksum-valid records (property
//!   tests);
//! * the segment layer, truncated at **every** byte offset — the crash
//!   matrix a torn write can produce — recovers exactly the records whose
//!   frames fit below the cut (exhaustive);
//! * the [`DurableStore`] mirror, rebuilt from a log killed at randomized
//!   byte offsets, always equals the in-memory reference state after some
//!   prefix of the appended records — one `observe` is one record, so
//!   every record boundary is a consistent cut;
//! * appends are buffered until `sync`: a process killed with unsynced
//!   appends replays to exactly its last synced state, and a reopen after
//!   any `sync` equals the live peers whatever mix of untouched, copied,
//!   split and compacted stores led there.

use pgrid_core::key::{DataEntry, DataId, Key};
use pgrid_core::path::Path;
use pgrid_core::store::KeyStore;
use pgrid_core::wire::{ENTRY_BYTES, PATH_BYTES, ROUTING_REF_BYTES};
use pgrid_durable::{
    crc32, segment, DurableStore, Log, LogOptions, MetaImage, MirrorImage, PeerDelta, PeerImage,
    Record, ReplayOutcome,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Bytes before the first record frame of a segment file (magic,
/// format version, sequence number).
const SEGMENT_HEADER_LEN: u64 = 14;
/// Bytes of one record frame header (length + crc32).
const RECORD_HEADER_LEN: u64 = 8;

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("pgrid-durable-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Opens the log, collecting a copy of every replayed payload.
fn open_log(dir: &std::path::Path, options: LogOptions) -> (Log, Vec<Vec<u8>>, ReplayOutcome) {
    let mut payloads = Vec::new();
    let (log, outcome) = Log::open(dir, options, |payload| {
        payloads.push(payload.to_vec());
        Ok(())
    })
    .unwrap();
    (log, payloads, outcome)
}

/// Appends `payload` as one record.
fn put(log: &mut Log, payload: &[u8]) {
    log.append(|buf| buf.extend_from_slice(payload)).unwrap();
}

fn entry(key: u64, id: u64) -> DataEntry {
    DataEntry {
        key: Key(key),
        id: DataId(id),
    }
}

fn arbitrary_path(rng: &mut StdRng) -> Path {
    let len = rng.gen_range(0..=12);
    let mut path = Path::root();
    for _ in 0..len {
        path = path.child(rng.gen_bool(0.5));
    }
    path
}

fn arbitrary_entries(rng: &mut StdRng, max: usize) -> Vec<DataEntry> {
    (0..rng.gen_range(0..=max))
        .map(|_| entry(rng.gen(), rng.gen()))
        .collect()
}

fn arbitrary_routing(rng: &mut StdRng) -> Vec<(u8, u64, Path)> {
    (0..rng.gen_range(0..=8))
        .map(|_| (rng.gen_range(0..16), rng.gen(), arbitrary_path(rng)))
        .collect()
}

/// One random journal record; `variant` cycles so every shape is hit no
/// matter what the seed draws.
fn arbitrary_record(variant: u8, rng: &mut StdRng) -> Record {
    match variant % 3 {
        0 => Record::Meta(MetaImage {
            shard_start: rng.gen(),
            shard_len: rng.gen(),
            epoch: rng.gen(),
            phase: rng.gen(),
            now_ms: rng.gen(),
            seed: rng.gen(),
        }),
        1 => Record::Image {
            index: rng.gen(),
            peer: rng.gen(),
            image: PeerImage {
                path: arbitrary_path(rng),
                entries: arbitrary_entries(rng, 16),
                routing: arbitrary_routing(rng),
                replicas: (0..rng.gen_range(0..8)).map(|_| rng.gen()).collect(),
            },
        },
        _ => Record::Delta {
            index: rng.gen(),
            peer: rng.gen(),
            delta: PeerDelta {
                path: rng.gen_bool(0.5).then(|| arbitrary_path(rng)),
                added: arbitrary_entries(rng, 8),
                removed: arbitrary_entries(rng, 8),
                routing: rng.gen_bool(0.5).then(|| arbitrary_routing(rng)),
                replicas: rng
                    .gen_bool(0.5)
                    .then(|| (0..rng.gen_range(0..8)).map(|_| rng.gen()).collect()),
            },
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn records_roundtrip(seed in any::<u64>(), variant in 0u8..3) {
        let mut rng = StdRng::seed_from_u64(seed);
        let record = arbitrary_record(variant, &mut rng);
        let decoded = Record::decode(&record.encode());
        prop_assert_eq!(decoded.ok(), Some(record));
    }

    #[test]
    fn record_prefixes_are_rejected(seed in any::<u64>(), variant in 0u8..3, cut in 0usize..8192) {
        let mut rng = StdRng::seed_from_u64(seed);
        let wire = arbitrary_record(variant, &mut rng).encode();
        let cut = cut % wire.len();
        prop_assert!(Record::decode(&wire[..cut]).is_err(), "prefix of length {} decoded", cut);
    }

    #[test]
    fn single_bit_flips_never_panic_and_never_leave_bytes_over(
        seed in any::<u64>(),
        variant in 0u8..3,
        bit in 0usize..1 << 20,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut wire = arbitrary_record(variant, &mut rng).encode();
        let bit = bit % (wire.len() * 8);
        wire[bit / 8] ^= 1 << (bit % 8);
        assert_decode_is_exact(&wire)?;
    }

    #[test]
    fn arbitrary_bytes_never_panic_and_never_leave_bytes_over(
        tag in 0u8..5,
        body in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        // A plausible tag in front, so the garbage reaches the field
        // decoders instead of dying at the first byte.
        let mut wire = vec![tag];
        wire.extend(body);
        assert_decode_is_exact(&wire)?;
    }

    #[test]
    fn a_claimed_count_never_outruns_the_input(
        seed in any::<u64>(),
        list in 0usize..3,
        claimed in 1u32..=u32::MAX,
    ) {
        // An image is a fixed head (tag, index, peer, path) and three
        // counted lists.  Claim `claimed` more elements than one of them
        // holds and append nothing: the decoder must refuse — before
        // reserving room for the claim, which the kit's own unit test of
        // `count` pins.
        let mut rng = StdRng::seed_from_u64(seed);
        let record = arbitrary_record(1, &mut rng);
        let mut wire = record.encode();
        let Record::Image { image, .. } = record else {
            unreachable!("variant 1 is an image");
        };
        let entries_at = 1 + 4 + 4 + PATH_BYTES;
        let routing_at = entries_at + 4 + ENTRY_BYTES * image.entries.len();
        let replicas_at = routing_at + 4 + ROUTING_REF_BYTES * image.routing.len();
        let count_at = [entries_at, routing_at, replicas_at][list];
        let field: [u8; 4] = wire[count_at..count_at + 4].try_into().unwrap();
        let Some(inflated) = u32::from_le_bytes(field).checked_add(claimed) else {
            return Ok(());
        };
        wire[count_at..count_at + 4].copy_from_slice(&inflated.to_le_bytes());
        prop_assert!(Record::decode(&wire).is_err());
    }

    #[test]
    fn a_segment_scan_surfaces_only_checksummed_records_and_stays_inside_the_file(
        seed in any::<u64>(),
        tail in proptest::collection::vec(any::<u8>(), 0..96),
    ) {
        // A valid header, a few honest frames (of arbitrary payload bytes),
        // then arbitrary bytes — a torn or scribbled-over tail.
        let mut rng = StdRng::seed_from_u64(seed);
        let payloads: Vec<Vec<u8>> = (0..rng.gen_range(0..4))
            .map(|_| (0..rng.gen_range(0..40)).map(|_| rng.gen()).collect())
            .collect();
        let mut file = segment::MAGIC.to_vec();
        file.extend(segment::FORMAT_VERSION.to_le_bytes());
        file.extend(rng.gen::<u64>().to_le_bytes());
        for payload in &payloads {
            file.extend((payload.len() as u32).to_le_bytes());
            file.extend(crc32(payload).to_le_bytes());
            file.extend(payload);
        }
        let honest = file.len() as u64;
        file.extend(&tail);
        let dir = temp_dir(&format!("scan-{seed:x}-{}", tail.len()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("seg-0000000001.log");
        std::fs::write(&path, &file).unwrap();
        let mut surfaced = Vec::new();
        let scan = segment::read_segment(path, |payload| {
            surfaced.push(payload.to_vec());
            Ok(())
        });
        let _ = std::fs::remove_dir_all(&dir);
        let (info, file_len) = scan.unwrap();
        prop_assert_eq!(file_len, file.len() as u64);
        prop_assert!(honest <= info.bytes && info.bytes <= file_len);
        prop_assert_eq!(info.records, surfaced.len() as u64);
        prop_assert_eq!(&surfaced[..payloads.len()], &payloads[..]);
        // Whatever else surfaced lies in the file, frame after frame, under
        // a checksum that matches.
        let mut at = SEGMENT_HEADER_LEN as usize;
        for payload in &surfaced {
            let header = &file[at..at + RECORD_HEADER_LEN as usize];
            prop_assert_eq!(&header[..4], &(payload.len() as u32).to_le_bytes()[..]);
            prop_assert_eq!(&header[4..], &crc32(payload).to_le_bytes()[..]);
            at += RECORD_HEADER_LEN as usize + payload.len();
            prop_assert_eq!(&file[at - payload.len()..at], &payload[..]);
        }
        prop_assert_eq!(at as u64, info.bytes);
    }
}

/// What every decode must satisfy, whatever the input: no panic (running
/// this is the check), and an accepted payload was consumed to its last
/// byte — one more byte, or one fewer, is no longer a record.
fn assert_decode_is_exact(wire: &[u8]) -> Result<(), TestCaseError> {
    if Record::decode(wire).is_err() {
        return Ok(());
    }
    let longer = [wire, &[0]].concat();
    prop_assert!(Record::decode(&longer).is_err(), "trailing byte accepted");
    prop_assert!(
        Record::decode(&wire[..wire.len() - 1]).is_err(),
        "an accepted record had a byte to spare"
    );
    Ok(())
}

/// Truncating one segment at *every* byte offset must recover exactly the
/// records whose frames lie wholly below the cut — never an error, never a
/// partial record, and reopening after recovery is idempotent.
#[test]
fn torn_tail_at_every_byte_offset_recovers_the_valid_prefix() {
    let source = temp_dir("torn-src");
    // Varied payload sizes so cuts land in headers, payloads and on
    // frame boundaries alike.
    let payloads: Vec<Vec<u8>> = (0u8..10)
        .map(|i| (0..=i).map(|j| i * 16 + j).collect())
        .collect();
    let (mut log, replayed, _) = open_log(&source, LogOptions::default());
    assert!(replayed.is_empty());
    let mut boundaries = vec![SEGMENT_HEADER_LEN];
    for payload in &payloads {
        put(&mut log, payload);
        boundaries.push(boundaries.last().unwrap() + RECORD_HEADER_LEN + payload.len() as u64);
    }
    log.sync().unwrap();
    drop(log);

    let segment = source.join("seg-0000000001.log");
    let bytes = std::fs::read(&segment).unwrap();
    assert_eq!(bytes.len() as u64, *boundaries.last().unwrap());

    let work = temp_dir("torn-cut");
    for cut in 0..=bytes.len() {
        let _ = std::fs::remove_dir_all(&work);
        std::fs::create_dir_all(&work).unwrap();
        std::fs::write(work.join("seg-0000000001.log"), &bytes[..cut]).unwrap();
        let expected = boundaries
            .iter()
            .filter(|&&b| b <= cut as u64)
            .count()
            .saturating_sub(1);
        let (log, recovered, outcome) = open_log(&work, LogOptions::default());
        assert_eq!(
            recovered,
            payloads[..expected].to_vec(),
            "cut at byte {cut}"
        );
        if (cut as u64) < SEGMENT_HEADER_LEN {
            assert_eq!(outcome.deleted_segments, 1, "cut at byte {cut}");
        } else if cut < bytes.len() && boundaries[expected] < cut as u64 {
            assert_eq!(outcome.torn_truncations, 1, "cut at byte {cut}");
        }
        drop(log);
        // Recovery truncated the tail on disk: a second open replays the
        // same prefix without finding anything more to repair.
        let (_, again, outcome) = open_log(&work, LogOptions::default());
        assert_eq!(again, recovered, "reopen after cut at byte {cut}");
        assert_eq!(
            outcome.torn_truncations, 0,
            "reopen after cut at byte {cut}"
        );
    }
    let _ = std::fs::remove_dir_all(&source);
    let _ = std::fs::remove_dir_all(&work);
}

/// Reference state of the crash matrix: the mirror the store must hold
/// after replaying some prefix of the appended records.
type Snapshot = (Option<MetaImage>, BTreeMap<(u32, u32), MirrorImage>);

fn snapshot(store: &DurableStore) -> Snapshot {
    (
        store.meta().cloned(),
        store
            .images()
            .map(|(&key, image)| (key, image.clone()))
            .collect(),
    )
}

/// Builds a multi-peer journal one record at a time, remembering the
/// mirror after every append and the byte boundary each record ends at
/// (the boundaries are file offsets only while the log fits one segment).
fn build_reference(
    dir: &std::path::Path,
    seed: u64,
    options: LogOptions,
) -> (DurableStore, Vec<u64>, Vec<Snapshot>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut store = DurableStore::open(dir, options).unwrap();
    let mut stores: BTreeMap<u32, (KeyStore, Path)> = (0..3u32)
        .map(|p| (p, (KeyStore::new(), Path::root())))
        .collect();
    let mut boundaries = vec![SEGMENT_HEADER_LEN];
    let mut snapshots = vec![snapshot(&store)];
    for step in 0..40u64 {
        let appended = if step % 7 == 6 {
            store
                .set_meta(MetaImage {
                    shard_start: 0,
                    shard_len: 3,
                    epoch: step / 7,
                    phase: (step / 7) as u8,
                    now_ms: step * 1_000,
                    seed,
                })
                .unwrap()
        } else {
            let peer = rng.gen_range(0..3u32);
            let (ks, path) = stores.get_mut(&peer).unwrap();
            for _ in 0..rng.gen_range(1..4) {
                ks.insert(entry(rng.gen(), rng.gen()));
            }
            if rng.gen_bool(0.3) {
                let victim = ks.iter().next().copied();
                if let Some(victim) = victim {
                    ks.remove(&victim);
                }
            }
            if rng.gen_bool(0.3) {
                *path = path.child(rng.gen_bool(0.5));
            }
            let routing = vec![(0u8, u64::from(peer) + 10, *path)];
            store
                .observe(0, peer, *path, ks, &routing, &[u64::from(peer) + 20])
                .unwrap()
        };
        if appended {
            boundaries.push(SEGMENT_HEADER_LEN + store.stats().appended_bytes);
            snapshots.push(snapshot(&store));
        }
    }
    store.sync().unwrap();
    (store, boundaries, snapshots)
}

/// `(file name, length, crc32 of the whole file)` of every segment in
/// `dir`, in sequence order.
fn segment_fingerprints(dir: &std::path::Path) -> Vec<(String, u64, u32)> {
    let mut files: Vec<(String, u64, u32)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let entry = entry.unwrap();
            let bytes = std::fs::read(entry.path()).unwrap();
            (
                entry.file_name().into_string().unwrap(),
                bytes.len() as u64,
                crc32(&bytes),
            )
        })
        .collect();
    files.sort();
    files
}

/// The log's bytes are a contract with every log already on disk: the
/// same seeded 3-peer journal, rotated through tiny segments and then
/// compacted once, must keep producing exactly the files it produced when
/// these constants were recorded (format version 1, before the writer
/// learnt to buffer and frame in place).
#[test]
fn log_bytes_are_pinned() {
    let dir = temp_dir("bytes-pin");
    let (mut store, _, _) = build_reference(&dir, 0xD15C, LogOptions { segment_bytes: 512 });
    let name = |seq: u64| format!("seg-{seq:010}.log");
    assert_eq!(
        segment_fingerprints(&dir),
        vec![
            (name(1), 517, 3_400_326_994),
            (name(2), 529, 521_033_830),
            (name(3), 520, 3_358_628_413),
            (name(4), 567, 3_959_153_881),
            (name(5), 529, 1_939_815_408),
            (name(6), 56, 2_319_624_165),
        ],
        "segments after the journaled sequence"
    );
    store.compact().unwrap();
    assert_eq!(
        segment_fingerprints(&dir),
        vec![
            (name(7), 1_240, 3_027_430_345),
            (name(8), 14, 3_848_163_973)
        ],
        "segments after one compaction"
    );
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A process killed (no `Drop`, no sync) after appending past its last
/// sync loses exactly the unsynced appends: they never left its memory.
#[test]
fn unsynced_appends_die_with_the_process() {
    let dir = temp_dir("forgotten");
    let (mut store, _, _) = build_reference(&dir, 0xF0, LogOptions::default());
    let synced = snapshot(&store);
    let synced_records = store.stats().appended_records;

    let ks: KeyStore = (0..20).map(|i| entry(i, i)).collect();
    for peer in 10..15u32 {
        assert!(store.observe(0, peer, Path::root(), &ks, &[], &[]).unwrap());
    }
    assert_eq!(store.stats().appended_records, synced_records + 5);
    assert_ne!(snapshot(&store), synced);
    std::mem::forget(store);

    let reopened = DurableStore::open(&dir, LogOptions::default()).unwrap();
    assert_eq!(reopened.stats().replayed_records, synced_records);
    assert_eq!(reopened.stats().torn_truncations, 0);
    assert_eq!(snapshot(&reopened), synced);
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // Random insert / remove / split / mutate-and-revert / untouched
    // sequences over three peers, one cut after each round, a compaction
    // now and then: after every sync a reopen of the files on disk must
    // equal both the writer's mirror and the live peers.
    #[test]
    fn reopen_after_every_sync_equals_the_live_peers(seed in any::<u64>()) {
        let dir = temp_dir("cow-src");
        let work = temp_dir("cow-reopen");
        let mut rng = StdRng::seed_from_u64(seed);
        let options = LogOptions { segment_bytes: 2_048 };
        let mut store = DurableStore::open(&dir, options).unwrap();
        let mut live: Vec<(KeyStore, Path)> = vec![(KeyStore::new(), Path::root()); 3];
        for cut in 0..12 {
            for (ks, path) in &mut live {
                match rng.gen_range(0..5) {
                    0 => {}
                    1 => {
                        for _ in 0..rng.gen_range(1..20) {
                            ks.insert(entry(rng.gen(), rng.gen()));
                        }
                    }
                    2 => {
                        let victims: Vec<DataEntry> =
                            ks.iter().take(rng.gen_range(1..4)).copied().collect();
                        for victim in &victims {
                            ks.remove(victim);
                        }
                    }
                    3 => {
                        *path = path.child(rng.gen_bool(0.5));
                        ks.split_retain(path);
                    }
                    _ => {
                        let probe = entry(rng.gen(), rng.gen());
                        ks.insert(probe);
                        ks.remove(&probe);
                    }
                }
            }
            for (peer, (ks, path)) in live.iter().enumerate() {
                let peer = peer as u32;
                store.observe(0, peer, *path, ks, &[(0, 1, *path)], &[u64::from(peer)]).unwrap();
            }
            store.sync().unwrap();
            if rng.gen_bool(0.2) {
                store.compact().unwrap();
            }

            let _ = std::fs::remove_dir_all(&work);
            std::fs::create_dir_all(&work).unwrap();
            for file in std::fs::read_dir(&dir).unwrap() {
                let file = file.unwrap();
                std::fs::copy(file.path(), work.join(file.file_name())).unwrap();
            }
            let reopened = DurableStore::open(&work, options).unwrap();
            prop_assert_eq!(reopened.peer_count(), live.len());
            for ((replayed, mirrored), (ks, path)) in
                reopened.images().zip(store.images()).zip(&live)
            {
                prop_assert!(replayed == mirrored, "replay != mirror at cut {}", cut);
                prop_assert!(
                    mirrored.1.path == *path && mirrored.1.entries.shares_storage_with(ks),
                    "mirror of peer {} is not the live peer at cut {}",
                    mirrored.0 .1,
                    cut
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&work);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Kill the writer at a random byte offset: the recovered mirror must
    // equal the in-memory reference after the longest record prefix below
    // the cut — a state the live store actually passed through.
    #[test]
    fn killed_writer_replays_to_a_consistent_cut(cut_seed in any::<u64>()) {
        let source = temp_dir("matrix-src");
        let (store, boundaries, snapshots) =
            build_reference(&source, 0xD15C, LogOptions::default());
        prop_assert!(store.segment_count() == 1, "matrix must fit one segment");
        drop(store);
        let bytes = std::fs::read(source.join("seg-0000000001.log")).unwrap();
        prop_assert_eq!(bytes.len() as u64, *boundaries.last().unwrap());

        let cut = StdRng::seed_from_u64(cut_seed).gen_range(0..=bytes.len());
        let work = temp_dir("matrix-cut");
        std::fs::create_dir_all(&work).unwrap();
        std::fs::write(work.join("seg-0000000001.log"), &bytes[..cut]).unwrap();

        let prefix = boundaries
            .iter()
            .filter(|&&b| b <= cut as u64)
            .count()
            .saturating_sub(1);
        let recovered = DurableStore::open(&work, LogOptions::default()).unwrap();
        let (meta, images) = snapshot(&recovered);
        let (ref expected_meta, ref expected_images) = snapshots[prefix];
        prop_assert!(
            &meta == expected_meta,
            "meta after cut at byte {}: {:?} != {:?}",
            cut,
            meta,
            expected_meta
        );
        prop_assert!(
            &images == expected_images,
            "mirror after cut at byte {}",
            cut
        );

        let _ = std::fs::remove_dir_all(&source);
        let _ = std::fs::remove_dir_all(&work);
    }
}
