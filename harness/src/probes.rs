//! Replay probes: after a traced window, the overlay the run left behind
//! and the frames the transport wrapper sampled are fed back through the
//! public store, engine and codec functions, and each is timed per call.
//! They attribute cost to `core` and to the codecs, which run deep inside
//! `sim`/`net` where harness spans cannot reach.

use crate::catalogue::LayerMetrics;
use crate::overlay::PathIndex;
use bytes::Bytes;
use pgrid_core::balance::compare_to_reference;
use pgrid_core::exchange::ExchangeEngine;
use pgrid_core::key::{DataEntry, Key};
use pgrid_core::peer::PeerState;
use pgrid_core::reference::{BalanceParams, ReferencePartitioning};
use pgrid_net::message::Message;
use pgrid_reactor::mux::{encode_record, MuxReader, KIND_RAW};
use pgrid_transport::frame::{decode_frame, encode_frame};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// Peer pairs the assessment probe replays.
const ASSESS_PAIRS: usize = 10_000;
/// Stores the merge and range probes replay.
const STORE_SAMPLES: usize = 256;
/// Point look-ups the contains probe replays.
const CONTAINS_SAMPLES: usize = 100_000;

fn ns_per(elapsed: std::time::Duration, calls: usize) -> f64 {
    elapsed.as_nanos() as f64 / calls.max(1) as f64
}

/// Shape of the final overlay and the per-call cost of the `core`
/// functions construction and queries lean on.
pub fn core(
    peers: &[&PeerState],
    originals: &[DataEntry],
    params: BalanceParams,
    seed: u64,
    layer: &mut LayerMetrics,
) {
    let n = peers.len();
    let index = PathIndex::of(peers);
    let mut rng = StdRng::seed_from_u64(seed);

    let entries: usize = peers.iter().map(|p| p.store.len()).sum();
    layer.set("core.entries_per_peer_mean", entries as f64 / n as f64);
    layer.set(
        "core.replication_factor_mean",
        n as f64 / index.distinct_paths() as f64,
    );
    let path_len: usize = peers.iter().map(|p| p.path.len()).sum();
    layer.set("core.path_len_mean", path_len as f64 / n as f64);
    let keys: Vec<Key> = originals.iter().map(|e| e.key).collect();
    let reference = ReferencePartitioning::compute(&keys, n, params);
    let paths: Vec<_> = peers.iter().map(|p| p.path).collect();
    layer.set(
        "core.balance_deviation",
        compare_to_reference(&reference, &paths).deviation,
    );

    // Assessment, the way both engines call it: two peers that share a
    // partition (a replica when the peer has one), each store viewed
    // through the shallower peer's path.
    let pairs: Vec<(usize, usize)> = (0..ASSESS_PAIRS)
        .map(|_| {
            let a = rng.gen_range(0..n);
            let replicas = index.replicas_of(&peers[a].path);
            let b = replicas[rng.gen_range(0..replicas.len())];
            if b == a {
                (a, rng.gen_range(0..n))
            } else {
                (a, b)
            }
        })
        .collect();
    let engine = ExchangeEngine::new(params);
    let start = Instant::now();
    for &(a, b) in &pairs {
        let (lagging, ahead) = if peers[a].path.len() <= peers[b].path.len() {
            (peers[a], peers[b])
        } else {
            (peers[b], peers[a])
        };
        let partition = lagging.path;
        black_box(engine.assess(
            &lagging.store.restricted(&partition),
            &ahead.store.restricted(&partition),
            &partition,
        ));
    }
    layer.set(
        "core.exchange.assess_ns",
        ns_per(start.elapsed(), pairs.len()),
    );

    // Bulk merge of one peer's entries into a private copy of another's.
    let mut merged_entries = 0usize;
    let mut merge_time = std::time::Duration::ZERO;
    for _ in 0..STORE_SAMPLES {
        let mut target = peers[rng.gen_range(0..n)].store.deep_clone();
        let batch: Vec<DataEntry> = peers[rng.gen_range(0..n)].store.iter().copied().collect();
        merged_entries += batch.len();
        let start = Instant::now();
        black_box(target.merge_batch(batch));
        merge_time += start.elapsed();
    }
    layer.set(
        "core.store.merge_batch_ns_per_entry",
        ns_per(merge_time, merged_entries),
    );

    // Point membership at the first peer whose path covers the key.
    let lookups: Vec<(usize, Key)> = (0..CONTAINS_SAMPLES)
        .filter_map(|_| {
            let key = originals[rng.gen_range(0..originals.len())].key;
            let peer = index.covering(key).next()?;
            Some((peer, key))
        })
        .collect();
    let start = Instant::now();
    for &(peer, key) in &lookups {
        black_box(peers[peer].store.contains_key(key));
    }
    layer.set(
        "core.store.contains_ns",
        ns_per(start.elapsed(), lookups.len()),
    );

    // Range scan over a peer's whole partition.
    let mut scanned = 0usize;
    let start = Instant::now();
    for _ in 0..STORE_SAMPLES {
        let peer = peers[rng.gen_range(0..n)];
        scanned += peer
            .store
            .range(peer.path.lower_key(), peer.path.upper_key())
            .map(black_box)
            .count();
    }
    layer.set(
        "core.store.range_ns_per_entry",
        ns_per(start.elapsed(), scanned),
    );
}

/// Per-call cost of the frame codec and the message codec over frames
/// sampled from the run.
pub fn codecs(frames: &[Bytes], layer: &mut LayerMetrics) {
    if frames.is_empty() {
        return;
    }
    let start = Instant::now();
    let payloads: Vec<Vec<Bytes>> = frames
        .iter()
        .map(|f| decode_frame(f).expect("a frame the runtime sent decodes"))
        .collect();
    layer.set(
        "transport.frame.decode_ns",
        ns_per(start.elapsed(), frames.len()),
    );

    let n_payloads: usize = payloads.iter().map(Vec::len).sum();
    let start = Instant::now();
    let messages: Vec<Message> = payloads
        .iter()
        .flatten()
        .map(|p| Message::decode(p.clone()).expect("a message the runtime sent decodes"))
        .collect();
    layer.set("net.message.decode_ns", ns_per(start.elapsed(), n_payloads));

    let start = Instant::now();
    for message in &messages {
        black_box(message.encode());
    }
    layer.set(
        "net.message.encode_ns",
        ns_per(start.elapsed(), messages.len()),
    );

    let start = Instant::now();
    for batch in &payloads {
        black_box(encode_frame(batch));
    }
    layer.set(
        "transport.frame.encode_ns",
        ns_per(start.elapsed(), frames.len()),
    );
}

/// Per-record cost of the reactor's mux framing over the same frames.
pub fn mux(frames: &[Bytes], layer: &mut LayerMetrics) {
    if frames.is_empty() {
        return;
    }
    let mut wire = Vec::new();
    let start = Instant::now();
    for (dest, frame) in frames.iter().enumerate() {
        encode_record(&mut wire, KIND_RAW, dest as u64, frame.as_slice());
    }
    layer.set(
        "reactor.mux.encode_ns",
        ns_per(start.elapsed(), frames.len()),
    );

    // Parse in socket-sized chunks, as an event thread reads them.
    let mut reader = MuxReader::new();
    let mut parsed = 0usize;
    let start = Instant::now();
    for chunk in wire.chunks(64 << 10) {
        reader.extend(chunk);
        while let Some(record) = reader.next_record().expect("records just encoded parse") {
            black_box(record);
            parsed += 1;
        }
    }
    let elapsed = start.elapsed();
    assert_eq!(parsed, frames.len(), "mux replay lost records");
    layer.set("reactor.mux.parse_ns", ns_per(elapsed, parsed));
}
