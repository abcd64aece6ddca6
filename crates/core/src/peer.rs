//! Peer state: everything a single participant of the overlay stores
//! locally (its path, data, routing table and replica list).

use crate::key::DataEntry;
use crate::path::Path;
use crate::routing::{PeerId, RoutingEntry, RoutingTable};
use crate::store::{KeyStore, StoreRead};
use rand::Rng;

/// Complete local state of one peer.
///
/// This struct is deliberately free of any networking concerns so that it
/// can be driven either by the deterministic simulator (`pgrid-sim`) or by
/// the threaded in-process deployment runtime (`pgrid-net`).
#[derive(Clone, Debug)]
pub struct PeerState {
    /// This peer's identifier.
    pub id: PeerId,
    /// The peer's current path, i.e. the key space partition it is
    /// responsible for.  During construction the path grows bit by bit.
    pub path: Path,
    /// The locally stored index entries.
    pub store: KeyStore,
    /// The prefix-routing table.
    pub routing: RoutingTable,
    /// Known replicas: peers believed to be responsible for the same
    /// partition (structural replication, Section 2.1).
    pub replicas: Vec<PeerId>,
    /// Whether this peer is currently online (used by churn models).
    pub online: bool,
}

impl PeerState {
    /// Creates a fresh peer at the root path with an empty store.
    pub fn new(id: PeerId, routing_fanout: usize) -> PeerState {
        PeerState {
            id,
            path: Path::root(),
            store: KeyStore::new(),
            routing: RoutingTable::new(routing_fanout),
            replicas: Vec::new(),
            online: true,
        }
    }

    /// Creates a peer pre-loaded with initial data entries.
    pub fn with_entries<I: IntoIterator<Item = DataEntry>>(
        id: PeerId,
        routing_fanout: usize,
        entries: I,
    ) -> PeerState {
        let mut p = PeerState::new(id, routing_fanout);
        p.store = KeyStore::from_entries(entries);
        p
    }

    /// Current trie depth of the peer.
    pub fn depth(&self) -> usize {
        self.path.len()
    }

    /// Number of locally stored entries that actually belong to the peer's
    /// current partition (two binary searches).
    pub fn responsible_load(&self) -> usize {
        self.store.count_in(&self.path)
    }

    /// Extends the peer's path by one bit, records a routing reference to
    /// `other` (which took the opposite bit), and drops the entries that now
    /// belong to the other side, returning them so the caller can ship them
    /// to `other`.
    ///
    /// This is "possibility 1" of Figure 2: exchange content, split the key
    /// space, update the routing table.
    pub fn split_towards<R: Rng + ?Sized>(
        &mut self,
        bit: bool,
        other: RoutingEntry,
        rng: &mut R,
    ) -> Vec<DataEntry> {
        let level = self.path.len();
        self.path = self.path.child(bit);
        self.routing.add(level, other, rng);
        // Replica relationships do not survive a split: the former replicas
        // may end up on either side.  They will be re-discovered during the
        // next interactions at the new level.
        self.replicas.clear();
        self.store.split_retain(&self.path)
    }

    /// Adds a routing reference at the level where `other_path` diverges
    /// from this peer's path.  Returns `true` if a reference could be placed
    /// (i.e. the paths actually diverge within this peer's path length).
    pub fn learn_reference<R: Rng + ?Sized>(
        &mut self,
        other: PeerId,
        other_path: Path,
        rng: &mut R,
    ) -> bool {
        let cpl = self.path.common_prefix_len(&other_path);
        if cpl >= self.path.len() || cpl >= other_path.len() {
            return false;
        }
        self.routing.add(
            cpl,
            RoutingEntry {
                peer: other,
                path: other_path,
            },
            rng,
        );
        true
    }

    /// Whether two peers currently belong to the same partition, or one's
    /// path is a prefix of the other's (the condition under which the
    /// divide/replicate interactions of Figure 2 are possible).
    pub fn shares_partition_with(&self, other_path: &Path) -> bool {
        self.path.is_prefix_of(other_path) || other_path.is_prefix_of(&self.path)
    }

    /// Structural sanity check used by tests: the routing table must be
    /// consistent with the current path and all stored entries that the peer
    /// is responsible for must be covered by the path.
    pub fn invariants_hold(&self) -> bool {
        self.routing.is_consistent_with(&self.path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::{DataId, Key};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn entries(fracs: &[f64]) -> Vec<DataEntry> {
        fracs
            .iter()
            .enumerate()
            .map(|(i, &x)| DataEntry::new(Key::from_fraction(x), DataId(i as u64)))
            .collect()
    }

    #[test]
    fn new_peer_is_at_root() {
        let p = PeerState::new(PeerId(1), 3);
        assert_eq!(p.path, Path::root());
        assert_eq!(p.depth(), 0);
        assert!(p.online);
        assert!(p.invariants_hold());
    }

    #[test]
    fn split_moves_entries_and_adds_reference() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut p = PeerState::with_entries(PeerId(1), 3, entries(&[0.1, 0.2, 0.6, 0.9]));
        let other = RoutingEntry {
            peer: PeerId(2),
            path: Path::parse("1"),
        };
        let shipped = p.split_towards(false, other, &mut rng);
        assert_eq!(p.path, Path::parse("0"));
        assert_eq!(p.store.len(), 2);
        assert_eq!(shipped.len(), 2);
        assert!(shipped.iter().all(|e| e.key.as_fraction() >= 0.5));
        assert_eq!(p.routing.level(0)[0].peer, PeerId(2));
        assert!(p.invariants_hold());
    }

    #[test]
    fn learn_reference_places_entry_at_divergence_level() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut p = PeerState::new(PeerId(1), 3);
        p.path = Path::parse("010");
        assert!(p.learn_reference(PeerId(2), Path::parse("011"), &mut rng));
        assert_eq!(p.routing.level(2)[0].peer, PeerId(2));
        // same partition: nothing to learn
        assert!(!p.learn_reference(PeerId(3), Path::parse("010"), &mut rng));
        // prefix of us: nothing to learn either
        assert!(!p.learn_reference(PeerId(4), Path::parse("01"), &mut rng));
        assert!(p.invariants_hold());
    }

    #[test]
    fn shares_partition_semantics() {
        let mut p = PeerState::new(PeerId(1), 3);
        p.path = Path::parse("01");
        assert!(p.shares_partition_with(&Path::parse("01")));
        assert!(p.shares_partition_with(&Path::parse("011")));
        assert!(p.shares_partition_with(&Path::parse("0")));
        assert!(!p.shares_partition_with(&Path::parse("00")));
        assert!(!p.shares_partition_with(&Path::parse("1")));
    }
}
