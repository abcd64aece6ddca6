//! Pins the exact outcome of two seeded simulator constructions.
//!
//! `construction_parallel.rs` pins thread-count *parity* (1, 2 and 8 workers
//! agree with each other); `crates/net/tests/trajectory_pin.rs` pins the
//! absolute trajectory of the message runtime.  This file pins the absolute
//! outcome of `pgrid_sim::construct` — every peer's path, store content in
//! iteration order, replica list and routing levels, plus every
//! `ConstructionMetrics` field by value — against constants recorded once,
//! so a change to `core::store`, `core::exchange` or the simulator that is
//! meant to be behaviour-preserving shows up here as a diff instead of as a
//! shifted statistic somewhere else.

use pgrid::prelude::*;

/// Everything the pin compares, in one `Debug`-printable value.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// FNV-1a over every peer's `(path, store entries in iteration order,
    /// replicas, routing levels)`, in peer order.
    peers_digest: u64,
    /// `[interactions, fruitless_interactions, refer_hops, splits,
    /// replications, replication_keys_moved, construction_keys_moved,
    /// rounds]`
    counts: [usize; 8],
    /// FNV-1a over `per_peer_interactions`.
    per_peer_digest: u64,
    /// Total entries held at quiescence (a readable companion of the digest).
    stored_entries: usize,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(hash: &mut u64, value: u64) {
    for byte in value.to_le_bytes() {
        *hash = (*hash ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
    }
}

fn fnv_path(hash: &mut u64, path: &Path) {
    let (len, bits) = path.wire_parts();
    fnv(hash, len as u64);
    fnv(hash, bits);
}

fn run(n_peers: usize, distribution: Distribution, seed: u64) -> Outcome {
    let overlay = construct(&SimConfig {
        n_peers,
        distribution,
        seed,
        n_threads: 2,
        ..SimConfig::default()
    });

    let mut peers_digest = FNV_OFFSET;
    for peer in &overlay.peers {
        fnv(&mut peers_digest, peer.id.0);
        fnv_path(&mut peers_digest, &peer.path);
        fnv(&mut peers_digest, peer.store.len() as u64);
        for entry in peer.store.iter() {
            fnv(&mut peers_digest, entry.key.0);
            fnv(&mut peers_digest, entry.id.0);
        }
        fnv(&mut peers_digest, peer.replicas.len() as u64);
        for replica in &peer.replicas {
            fnv(&mut peers_digest, replica.0);
        }
        fnv(&mut peers_digest, peer.routing.num_levels() as u64);
        for level in 0..peer.routing.num_levels() {
            let references = peer.routing.level(level);
            fnv(&mut peers_digest, references.len() as u64);
            for reference in references {
                fnv(&mut peers_digest, reference.peer.0);
                fnv_path(&mut peers_digest, &reference.path);
            }
        }
    }

    let m = &overlay.metrics;
    let mut per_peer_digest = FNV_OFFSET;
    for &count in &m.per_peer_interactions {
        fnv(&mut per_peer_digest, count as u64);
    }
    Outcome {
        peers_digest,
        counts: [
            m.interactions,
            m.fruitless_interactions,
            m.refer_hops,
            m.splits,
            m.replications,
            m.replication_keys_moved,
            m.construction_keys_moved,
            m.rounds,
        ],
        per_peer_digest,
        stored_entries: overlay.peers.iter().map(|p| p.store.len()).sum(),
    }
}

#[test]
fn skewed_construction_matches_the_recorded_constants() {
    let skewed = Distribution::Normal {
        mean: 0.5,
        std_dev: 0.05,
    };
    let expected = Outcome {
        peers_digest: 1_006_251_951_223_540_145,
        counts: [7_529, 1_773, 4_049, 1_875, 752, 12_800, 546_737, 21],
        per_peer_digest: 12_268_063_996_166_165_000,
        stored_entries: 80_499,
    };
    assert_eq!(run(256, skewed, 7), expected);
}

#[test]
fn uniform_construction_matches_the_recorded_constants() {
    let expected = Outcome {
        peers_digest: 10_665_374_515_775_359_864,
        counts: [3_546, 430, 2_284, 958, 568, 9_600, 79_784, 9],
        per_peer_digest: 10_600_396_949_429_544_975,
        stored_entries: 27_421,
    };
    assert_eq!(run(192, Distribution::Uniform, 42), expected);
}
