//! The recall of range walks over many seeds, beside the single-seed bar
//! of `runtime::tests::range_queries_match_brute_force_on_loopback`.
//!
//! That test asserts ≥ 95 % recall on four ranges of one 48-peer overlay
//! (seed 3).  Whether one seed clears such a bar depends on its
//! trajectory; this twin runs the same overlay and ranges on 20 seeds and
//! bounds the recall of all of them together, so a change that makes the
//! overlay worse at returning ranges shows up here even when seed 3 still
//! passes.  A peer that answers a slice from a partial store — one on a
//! proper prefix of other peers' paths, or a replica that never met the
//! rest of its partition — is what costs recall.

use pgrid_core::index::IndexId;
use pgrid_core::key::Key;
use pgrid_net::runtime::{NetConfig, Runtime};

/// The ranges of the single-seed test, as key-space fractions.
const RANGES: [(f64, f64); 4] = [(0.1, 0.3), (0.4, 0.45), (0.0, 0.9), (0.7, 0.71)];

/// `(returned, in range)` distinct corpus keys over [`RANGES`] on the
/// 48-peer overlay of `seed`, built as the single-seed test builds it.
fn recall_counts(seed: u64) -> (usize, usize) {
    let mut rt = Runtime::new(NetConfig {
        n_peers: 48,
        seed,
        ..NetConfig::default()
    });
    for peer in 0..48 {
        rt.join_peer(peer, 4);
    }
    rt.replication_phase();
    rt.run_until(10_000);
    rt.start_construction();
    rt.run_until(400_000);
    let mut corpus: Vec<Key> = rt
        .original_entries_of(IndexId::PRIMARY)
        .iter()
        .map(|e| e.key)
        .collect();
    corpus.sort_unstable();
    corpus.dedup();
    let (mut returned, mut in_range) = (0, 0);
    for (lo, hi) in RANGES {
        let (lo, hi) = (Key::from_fraction(lo), Key::from_fraction(hi));
        let id = rt
            .issue_range_query_on(IndexId::PRIMARY, lo, hi)
            .expect("peers online");
        rt.run_until(rt.now() + rt.config.query_timeout_ms + 60_000);
        let sample = rt.metrics.range_samples.iter().find(|s| s.id == id);
        let mut got: Vec<Key> = sample
            .expect("range resolved")
            .entries
            .iter()
            .map(|e| e.key)
            .collect();
        got.sort_unstable();
        got.dedup();
        returned += got
            .iter()
            .filter(|k| corpus.binary_search(k).is_ok())
            .count();
        in_range += corpus.iter().filter(|k| (lo..=hi).contains(k)).count();
    }
    (returned, in_range)
}

#[test]
fn range_walks_return_nearly_every_key_over_twenty_seeds() {
    let (returned, in_range) = (0..20)
        .map(recall_counts)
        .fold((0, 0), |(r, n), (dr, dn)| (r + dr, n + dn));
    // 11 059 of 11 089 keys (0.997) come back; without the referrals an
    // initiator follows into its own partition, 10 450 (0.942) did.
    let recall = returned as f64 / in_range as f64;
    assert!(recall >= 0.99, "recall {returned}/{in_range} = {recall:.4}");
}
