//! Prefix-routing search on the distributed trie, driven over a slice of
//! peer states: the simulator's engine for [`crate::route`].
//!
//! Search resolves a requested key bit by bit (Section 2.1): a peer that
//! cannot resolve the next bit locally forwards the request to a randomly
//! chosen routing reference for the complementary subtree at the level of
//! the first mismatching bit.  Because references are chosen uniformly at
//! random from the complementary subtree, the expected cost is
//! `O(log |leaves|)` messages irrespective of the trie shape.
//!
//! The loops here take each peer's decision from [`route::step`] and
//! [`route::range_step`], which the deployment runtime encodes as messages,
//! so both engines run one algorithm.  Peer `i` of the slice is
//! `PeerId(i)`; a peer is reachable while its `online` flag is set.

use crate::key::{DataEntry, Key};
use crate::peer::PeerState;
use crate::route::{self, RangeStep, Reason, Step};
use crate::routing::PeerId;
use rand::Rng;

/// Result of a key lookup.
#[derive(Clone, Debug)]
pub struct LookupResult {
    /// Why the lookup ended without entries; `None` when it found some.
    pub dead_end: Option<Reason>,
    /// Number of forwarding hops (0 if the start peer answered).
    pub hops: usize,
    /// Entries with exactly the requested key, from the peer that answered.
    pub entries: Vec<DataEntry>,
}

impl LookupResult {
    /// Whether entries came back.
    pub fn is_success(&self) -> bool {
        self.dead_end.is_none()
    }
}

/// Result of a range query.
#[derive(Clone, Debug, Default)]
pub struct RangeResult {
    /// All matching entries found, in key order.
    pub entries: Vec<DataEntry>,
    /// Hops the walk had taken when it answered its last slice.
    pub hops: usize,
    /// Number of slices (partitions) answered.
    pub partitions_visited: usize,
    /// Whether the slices cover the whole range.
    pub complete: bool,
}

/// Performs a prefix-routing lookup for `key`, starting at `start`.
pub fn lookup<R: Rng + ?Sized>(
    peers: &[PeerState],
    start: PeerId,
    key: Key,
    rng: &mut R,
) -> LookupResult {
    lookup_framed(peers, start, key, rng, |_, _| {})
}

/// [`lookup`] with a hook for the network between two turns:
/// `shipped(rng, frames)` runs after each turn that sends the lookup on.
/// The simulator's network does nothing there; the deployment runtime draws
/// a loss sample per frame from its RNG, so a walk that draws them too
/// follows the deployment's trajectory exactly.
pub fn lookup_framed<R: Rng + ?Sized>(
    peers: &[PeerState],
    start: PeerId,
    key: Key,
    rng: &mut R,
    mut shipped: impl FnMut(&mut R, usize),
) -> LookupResult {
    let reachable = |p: PeerId| peers.get(p.0 as usize).is_some_and(|s| s.online);
    let mut scratch = Vec::new();
    let (mut at, mut hops) = (start, 0u32);
    loop {
        let ended = |dead_end, entries| LookupResult {
            dead_end,
            hops: hops as usize,
            entries,
        };
        let Some(state) = peers.get(at.0 as usize) else {
            return ended(Some(Reason::Unreachable), Vec::new());
        };
        at = match route::step(state, key, hops, reachable, rng, &mut scratch) {
            Step::Answer(entries) => return ended(None, entries),
            Step::DeadEnd(reason) => return ended(Some(reason), Vec::new()),
            Step::Forward { peer, .. } | Step::ToReplica(peer) => peer,
        };
        shipped(rng, 1);
        hops += 1;
    }
}

/// Performs an order-preserving range query for keys in `[lo, hi]`.
///
/// The walk routes to the partition holding `lo`, takes that peer's slice
/// and moves on rightwards partition by partition, each partition reached
/// by prefix routing from the previous one.  A routing dead end detours
/// through a random online peer.  This is possible precisely because the
/// overlay preserves key order (the motivation for data-oriented overlays
/// in the paper's introduction); on a uniformly hashed DHT the same query
/// would need to contact every node.  An empty range (`lo > hi`) completes
/// at once.
pub fn range_query<R: Rng + ?Sized>(
    peers: &[PeerState],
    start: PeerId,
    lo: Key,
    hi: Key,
    rng: &mut R,
) -> RangeResult {
    range_query_framed(peers, start, lo, hi, rng, |_, _| {})
}

/// [`range_query`] with the network hook of [`lookup_framed`].  A turn
/// sends its slice to `start` and the walk to the next peer: one frame
/// each, or one when both go to `start`.
pub fn range_query_framed<R: Rng + ?Sized>(
    peers: &[PeerState],
    start: PeerId,
    lo: Key,
    hi: Key,
    rng: &mut R,
    mut shipped: impl FnMut(&mut R, usize),
) -> RangeResult {
    let mut result = RangeResult {
        complete: lo > hi,
        ..RangeResult::default()
    };
    let reachable = |p: PeerId| peers.get(p.0 as usize).is_some_and(|s| s.online);
    let online = (0..peers.len()).filter(|&i| peers[i].online);
    let mut scratch = Vec::new();
    let (mut at, mut cursor, mut hops) = (start.0 as usize, lo, 0u32);
    while let (false, Some(state)) = (result.complete, peers.get(at)) {
        let mut answered = false;
        let next = loop {
            let pick = |_, refs: &[_]| route::pick_reference(refs, reachable, rng, &mut scratch);
            match route::range_step(state, hi, cursor, hops, pick) {
                RangeStep::Slice { entries, next, .. } => {
                    result.entries.extend(entries);
                    result.partitions_visited += 1;
                    result.hops = hops as usize;
                    answered = true;
                    let Some(next) = next else {
                        result.complete = true;
                        break None;
                    };
                    cursor = next;
                }
                RangeStep::Forward { peer, .. } => break Some(peer.0 as usize),
                RangeStep::DeadEnd(Reason::HopLimit) => break None,
                RangeStep::DeadEnd(_) => break route::pick_other(online.clone(), at, rng),
            }
        };
        let apart = next.is_some_and(|p| !answered || p != start.0 as usize);
        shipped(rng, usize::from(answered) + usize::from(apart));
        let Some(next) = next else { break };
        (at, hops) = (next, hops + 1);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::DataId;
    use crate::path::Path;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A fully consistent 4-partition overlay: paths 00, 01, 10, 11, one
    /// peer each, with complete routing tables, and one entry per partition
    /// midpoint.
    fn four_partition_net() -> Vec<PeerState> {
        let midpoints = [0.125, 0.375, 0.625, 0.875].map(Key::from_fraction);
        consistent_net(2, &midpoints)
    }

    #[test]
    fn lookup_reaches_responsible_peer_from_anywhere() {
        let net = four_partition_net();
        let mut rng = StdRng::seed_from_u64(1);
        for start in 0..4u64 {
            for (frac, expected) in [(0.125, 0), (0.375, 1), (0.625, 2), (0.875, 3)] {
                let res = lookup(&net, PeerId(start), Key::from_fraction(frac), &mut rng);
                assert!(res.is_success(), "start {start} frac {frac}");
                assert_eq!(res.entries[0].id, DataId(expected));
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
        net[2].online = false;
        net[3].online = false;
        let mut rng = StdRng::seed_from_u64(3);
        let res = lookup(&net, PeerId(0), Key::from_fraction(0.9), &mut rng);
        assert_eq!(res.dead_end, Some(Reason::Unreachable));
    }

    #[test]
    fn range_query_collects_all_partitions() {
        let net = four_partition_net();
        let mut rng = StdRng::seed_from_u64(4);
        let (lo, hi) = (Key::from_fraction(0.0), Key::from_fraction(0.999));
        let res = range_query(&net, PeerId(0), lo, hi, &mut rng);
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
        let (lo, hi) = (Key::from_fraction(0.3), Key::from_fraction(0.7));
        let res = range_query(&net, PeerId(3), lo, hi, &mut rng);
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
    fn consistent_net(depth: usize, corpus: &[Key]) -> Vec<PeerState> {
        let mut peers: Vec<PeerState> = (0..1usize << depth)
            .map(|leaf| {
                let bits: Vec<bool> = (0..depth)
                    .map(|b| leaf >> (depth - 1 - b) & 1 == 1)
                    .collect();
                let path = Path::from_bits(&bits);
                let held = corpus.iter().enumerate().filter(|(_, &k)| path.covers(k));
                let entries = held.map(|(i, &k)| DataEntry::new(k, DataId(i as u64)));
                let mut state = PeerState::with_entries(PeerId(leaf as u64), 0, entries);
                state.path = path;
                state
            })
            .collect();
        let snapshot: Vec<(PeerId, Path)> = peers.iter().map(|p| (p.id, p.path)).collect();
        let mut rng = StdRng::seed_from_u64(depth as u64);
        for peer in &mut peers {
            for &(other, path) in &snapshot {
                peer.learn_reference(other, path, &mut rng);
            }
        }
        peers
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
