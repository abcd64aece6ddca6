//! Prefix-routing search on the distributed trie.
//!
//! Search resolves a requested key bit by bit (Section 2.1): a peer that
//! cannot resolve the next bit locally forwards the request to a randomly
//! chosen routing reference for the complementary subtree at the level of
//! the first mismatching bit.  Because references are chosen uniformly at
//! random from the complementary subtree, the expected cost is
//! `O(log |leaves|)` messages irrespective of the trie shape.
//!
//! The search logic is written against the [`NetworkView`] trait so that the
//! same code drives the deterministic simulator, the threaded deployment
//! runtime and the unit tests.

use crate::key::{DataEntry, Key};
use crate::path::Path;
use crate::routing::PeerId;
use crate::store::KeyStore;
use rand::Rng;

/// Read access to the state of the peers reachable from a search.
///
/// Implementations decide how state is actually stored (a simulator array, a
/// map guarded by a lock, ...).  Offline peers must return `false` from
/// [`NetworkView::is_online`]; their state may still be inspected for test
/// oracles but the router will refuse to hop to them.
pub trait NetworkView {
    /// The peer's current path, or `None` if the peer is unknown.
    fn path_of(&self, peer: PeerId) -> Option<Path>;
    /// Routing references of the peer at the given level.
    fn routing_refs(&self, peer: PeerId, level: usize) -> Vec<(PeerId, Path)>;
    /// Whether the peer is currently reachable.
    fn is_online(&self, peer: PeerId) -> bool;
    /// The peer's locally stored entries (used to answer queries).
    fn store_of(&self, peer: PeerId) -> Option<&KeyStore>;
}

/// Why a lookup terminated.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LookupStatus {
    /// The responsible peer was reached.
    Found {
        /// The peer whose path covers the requested key.
        responsible: PeerId,
    },
    /// Routing got stuck: no online reference for the required level.
    NoRoute {
        /// The last peer reached before routing failed.
        stuck_at: PeerId,
        /// The path level for which no online reference existed.
        level: usize,
    },
    /// The hop limit was exceeded (indicates an inconsistent overlay).
    HopLimit,
}

/// Result of a key lookup.
#[derive(Clone, Debug)]
pub struct LookupResult {
    /// Termination status.
    pub status: LookupStatus,
    /// Number of forwarding hops (0 if the start peer was responsible).
    pub hops: usize,
    /// The peers visited, starting peer first.
    pub visited: Vec<PeerId>,
    /// Entries with exactly the requested key found at the responsible peer.
    pub entries: Vec<DataEntry>,
}

impl LookupResult {
    /// Whether the lookup reached a responsible peer.
    pub fn is_success(&self) -> bool {
        matches!(self.status, LookupStatus::Found { .. })
    }
}

/// Result of a range query.
#[derive(Clone, Debug, Default)]
pub struct RangeResult {
    /// All matching entries found (deduplicated).
    pub entries: Vec<DataEntry>,
    /// Total number of forwarding hops across the traversal.
    pub hops: usize,
    /// Number of distinct partitions (responsible peers) visited.
    pub partitions_visited: usize,
    /// Whether every sub-interval of the range could be resolved.
    pub complete: bool,
}

/// Hard bound on hops; a consistent overlay of any realistic size stays far
/// below this.
pub const MAX_HOPS: usize = 128;

/// Performs a prefix-routing lookup for `key`, starting at `start`.
pub fn lookup<N: NetworkView, R: Rng + ?Sized>(
    net: &N,
    start: PeerId,
    key: Key,
    rng: &mut R,
) -> LookupResult {
    let mut current = start;
    let mut visited = vec![start];
    let mut hops = 0;

    loop {
        let path = match net.path_of(current) {
            Some(p) => p,
            None => {
                return LookupResult {
                    status: LookupStatus::NoRoute {
                        stuck_at: current,
                        level: 0,
                    },
                    hops,
                    visited,
                    entries: Vec::new(),
                }
            }
        };

        // Find the first bit of the peer's path that disagrees with the key.
        let mismatch = path.first_mismatch(key);
        match mismatch {
            None => {
                // The peer's path is a prefix of the key: responsible peer.
                let entries = net
                    .store_of(current)
                    .map(|s| s.range(key, key).copied().collect())
                    .unwrap_or_default();
                return LookupResult {
                    status: LookupStatus::Found {
                        responsible: current,
                    },
                    hops,
                    visited,
                    entries,
                };
            }
            Some(level) => {
                // Forward to a random online reference for the complementary
                // subtree at `level`; fall back to any alternative reference
                // at that level before giving up.
                let mut refs = net.routing_refs(current, level);
                // Randomise the preference order.
                for i in (1..refs.len()).rev() {
                    refs.swap(i, rng.gen_range(0..=i));
                }
                let next = refs.into_iter().find(|(p, _)| net.is_online(*p));
                match next {
                    Some((peer, _)) => {
                        hops += 1;
                        if hops > MAX_HOPS {
                            return LookupResult {
                                status: LookupStatus::HopLimit,
                                hops,
                                visited,
                                entries: Vec::new(),
                            };
                        }
                        visited.push(peer);
                        current = peer;
                    }
                    None => {
                        return LookupResult {
                            status: LookupStatus::NoRoute {
                                stuck_at: current,
                                level,
                            },
                            hops,
                            visited,
                            entries: Vec::new(),
                        }
                    }
                }
            }
        }
    }
}

/// Performs an order-preserving range query for keys in `[lo, hi]`.
///
/// The range is resolved by a sequential min-to-max traversal: route to the
/// partition containing `lo`, collect its matching entries, then route to
/// the partition containing the smallest key above the current partition's
/// upper bound, and so on until the partition containing `hi` has been
/// visited.  This is possible precisely because the overlay preserves key
/// order (the motivation for data-oriented overlays in the paper's
/// introduction); on a uniformly hashed DHT the same query would need to
/// contact every node.
pub fn range_query<N: NetworkView, R: Rng + ?Sized>(
    net: &N,
    start: PeerId,
    lo: Key,
    hi: Key,
    rng: &mut R,
) -> RangeResult {
    assert!(lo <= hi, "invalid range");
    let mut result = RangeResult {
        complete: true,
        ..RangeResult::default()
    };
    let mut cursor = lo;
    let mut from = start;
    let mut seen = std::collections::BTreeSet::new();

    loop {
        let lookup_res = lookup(net, from, cursor, rng);
        result.hops += lookup_res.hops;
        let responsible = match lookup_res.status {
            LookupStatus::Found { responsible } => responsible,
            _ => {
                result.complete = false;
                return result;
            }
        };
        result.partitions_visited += 1;
        let path = net
            .path_of(responsible)
            .expect("responsible peer must have a path");
        if let Some(store) = net.store_of(responsible) {
            for e in store.range(cursor.max(lo), hi.min(path.upper_key())) {
                if seen.insert(*e) {
                    result.entries.push(*e);
                }
            }
        }
        // Continue from the next key after this partition.
        let upper = path.upper_key();
        if upper >= hi || upper == Key::MAX {
            return result;
        }
        cursor = Key(upper.0 + 1);
        from = responsible;
        if result.partitions_visited > 4096 {
            // Safety net against inconsistent overlays.
            result.complete = false;
            return result;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::DataId;
    use crate::peer::PeerState;
    use crate::routing::RoutingEntry;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    /// A tiny in-memory network for unit tests.
    struct TestNet {
        peers: HashMap<PeerId, PeerState>,
    }

    impl NetworkView for TestNet {
        fn path_of(&self, peer: PeerId) -> Option<Path> {
            self.peers.get(&peer).map(|p| p.path)
        }
        fn routing_refs(&self, peer: PeerId, level: usize) -> Vec<(PeerId, Path)> {
            self.peers
                .get(&peer)
                .map(|p| {
                    p.routing
                        .level(level)
                        .iter()
                        .map(|e| (e.peer, e.path))
                        .collect()
                })
                .unwrap_or_default()
        }
        fn is_online(&self, peer: PeerId) -> bool {
            self.peers.get(&peer).map(|p| p.online).unwrap_or(false)
        }
        fn store_of(&self, peer: PeerId) -> Option<&KeyStore> {
            self.peers.get(&peer).map(|p| &p.store)
        }
    }

    /// Builds a fully consistent 4-partition overlay: paths 00, 01, 10, 11,
    /// one peer each, with complete routing tables, and one entry per
    /// partition midpoint.
    fn four_partition_net() -> TestNet {
        let paths = ["00", "01", "10", "11"];
        let mut rng = StdRng::seed_from_u64(9);
        let mut peers = HashMap::new();
        for (i, p) in paths.iter().enumerate() {
            let id = PeerId(i as u64);
            let path = Path::parse(p);
            let (lo, hi) = path.interval();
            let mid = (lo + hi) / 2.0;
            let mut state = PeerState::with_entries(
                id,
                0,
                vec![DataEntry::new(Key::from_fraction(mid), DataId(i as u64))],
            );
            state.path = path;
            peers.insert(id, state);
        }
        // complete routing tables
        let ids: Vec<PeerId> = peers.keys().copied().collect();
        let snapshot: Vec<(PeerId, Path)> = peers.values().map(|p| (p.id, p.path)).collect();
        for id in ids {
            let own_path = peers[&id].path;
            for &(other, opath) in &snapshot {
                if other == id {
                    continue;
                }
                let cpl = own_path.common_prefix_len(&opath);
                if cpl < own_path.len() && cpl < opath.len() {
                    let peer = peers.get_mut(&id).unwrap();
                    peer.routing.add(
                        cpl,
                        RoutingEntry {
                            peer: other,
                            path: opath,
                        },
                        &mut rng,
                    );
                }
            }
        }
        TestNet { peers }
    }

    #[test]
    fn lookup_reaches_responsible_peer_from_anywhere() {
        let net = four_partition_net();
        let mut rng = StdRng::seed_from_u64(1);
        for start in 0..4u64 {
            for (frac, expected) in [(0.1, 0), (0.3, 1), (0.6, 2), (0.9, 3)] {
                let res = lookup(&net, PeerId(start), Key::from_fraction(frac), &mut rng);
                assert!(res.is_success(), "start {start} frac {frac}");
                assert_eq!(
                    res.status,
                    LookupStatus::Found {
                        responsible: PeerId(expected)
                    }
                );
                assert!(res.hops <= 2);
            }
        }
    }

    #[test]
    fn lookup_finds_stored_entries() {
        let net = four_partition_net();
        let mut rng = StdRng::seed_from_u64(2);
        let res = lookup(&net, PeerId(0), Key::from_fraction(0.375), &mut rng);
        assert!(res.is_success());
        assert_eq!(res.entries.len(), 1);
        assert_eq!(res.entries[0].id, DataId(1));
    }

    #[test]
    fn lookup_fails_cleanly_when_route_is_down() {
        let mut net = four_partition_net();
        // take down both peers of the right half reachable from peer 0
        net.peers.get_mut(&PeerId(2)).unwrap().online = false;
        net.peers.get_mut(&PeerId(3)).unwrap().online = false;
        let mut rng = StdRng::seed_from_u64(3);
        let res = lookup(&net, PeerId(0), Key::from_fraction(0.9), &mut rng);
        assert!(!res.is_success());
        assert!(matches!(res.status, LookupStatus::NoRoute { .. }));
    }

    #[test]
    fn range_query_collects_all_partitions() {
        let net = four_partition_net();
        let mut rng = StdRng::seed_from_u64(4);
        let res = range_query(
            &net,
            PeerId(0),
            Key::from_fraction(0.0),
            Key::from_fraction(0.999),
            &mut rng,
        );
        assert!(res.complete);
        assert_eq!(res.partitions_visited, 4);
        assert_eq!(res.entries.len(), 4);
        // entries come back in key order
        assert!(res.entries.windows(2).all(|w| w[0].key <= w[1].key));
    }

    #[test]
    fn range_query_respects_bounds() {
        let net = four_partition_net();
        let mut rng = StdRng::seed_from_u64(5);
        let res = range_query(
            &net,
            PeerId(3),
            Key::from_fraction(0.3),
            Key::from_fraction(0.7),
            &mut rng,
        );
        assert!(res.complete);
        // partitions 01 and 10 contain the midpoints 0.375 and 0.625
        assert_eq!(res.entries.len(), 2);
        assert!(res
            .entries
            .iter()
            .all(|e| (0.3..=0.7).contains(&e.key.as_fraction())));
    }

    #[test]
    fn unknown_start_peer_reports_no_route() {
        let net = four_partition_net();
        let mut rng = StdRng::seed_from_u64(6);
        let res = lookup(&net, PeerId(99), Key::from_fraction(0.5), &mut rng);
        assert!(!res.is_success());
    }

    /// Builds a fully consistent balanced trie of the given depth: one peer
    /// per leaf path, complete routing tables, every corpus entry stored at
    /// the covering leaf.  On such an overlay a range scan has an exact
    /// oracle: the brute-force filter of the corpus.
    fn consistent_net(depth: usize, corpus: &[Key]) -> TestNet {
        let mut rng = StdRng::seed_from_u64(depth as u64);
        let mut peers = HashMap::new();
        for leaf in 0..(1usize << depth) {
            let id = PeerId(leaf as u64);
            let bits: String = (0..depth)
                .map(|b| {
                    if leaf >> (depth - 1 - b) & 1 == 1 {
                        '1'
                    } else {
                        '0'
                    }
                })
                .collect();
            let path = Path::parse(&bits);
            let entries: Vec<DataEntry> = corpus
                .iter()
                .enumerate()
                .filter(|(_, &k)| path.covers(k))
                .map(|(i, &k)| DataEntry::new(k, DataId(i as u64)))
                .collect();
            let mut state = PeerState::with_entries(id, 0, entries);
            state.path = path;
            peers.insert(id, state);
        }
        let ids: Vec<PeerId> = peers.keys().copied().collect();
        let snapshot: Vec<(PeerId, Path)> = peers.values().map(|p| (p.id, p.path)).collect();
        for id in ids {
            let own_path = peers[&id].path;
            for &(other, opath) in &snapshot {
                if other == id {
                    continue;
                }
                let cpl = own_path.common_prefix_len(&opath);
                if cpl < own_path.len() && cpl < opath.len() {
                    let peer = peers.get_mut(&id).unwrap();
                    peer.routing.add(
                        cpl,
                        RoutingEntry {
                            peer: other,
                            path: opath,
                        },
                        &mut rng,
                    );
                }
            }
        }
        TestNet { peers }
    }

    mod range_parity {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            // A trie range scan over a random corpus returns exactly the
            // brute-force key-filter set, regardless of trie depth, range
            // bounds, or starting peer.
            #[test]
            fn prop_range_scan_equals_brute_force(
                depth in 1usize..=4,
                raw_keys in proptest::collection::vec(any::<u64>(), 0..48),
                a in any::<u64>(),
                b in any::<u64>(),
                start_raw in any::<u64>(),
                rng_seed in any::<u64>(),
            ) {
                let corpus: Vec<Key> = raw_keys.iter().map(|&v| Key(v)).collect();
                let (lo, hi) = (Key(a.min(b)), Key(a.max(b)));
                let net = consistent_net(depth, &corpus);
                let start = PeerId(start_raw % (1u64 << depth));
                let mut rng = StdRng::seed_from_u64(rng_seed);
                let res = range_query(&net, start, lo, hi, &mut rng);
                prop_assert!(res.complete, "consistent overlay must complete");
                let mut expected: Vec<DataEntry> = corpus
                    .iter()
                    .enumerate()
                    .filter(|(_, &k)| lo <= k && k <= hi)
                    .map(|(i, &k)| DataEntry::new(k, DataId(i as u64)))
                    .collect();
                expected.sort();
                prop_assert_eq!(res.entries, expected);
            }

            // A lookup on the consistent trie finds every entry stored
            // under the requested key.
            #[test]
            fn prop_lookup_finds_every_stored_key(
                depth in 1usize..=4,
                raw_keys in proptest::collection::vec(any::<u64>(), 1..32),
                rng_seed in any::<u64>(),
            ) {
                let corpus: Vec<Key> = raw_keys.iter().map(|&v| Key(v)).collect();
                let net = consistent_net(depth, &corpus);
                let mut rng = StdRng::seed_from_u64(rng_seed);
                for (i, &key) in corpus.iter().enumerate() {
                    let start = PeerId((i as u64) % (1u64 << depth));
                    let res = lookup(&net, start, key, &mut rng);
                    prop_assert!(res.is_success());
                    prop_assert!(res.entries.iter().any(|e| e.key == key));
                }
            }
        }
    }
}
