//! Oracle views over a constructed overlay, built only from the peers'
//! public state: which peers' paths cover a key, whether the paths leave a
//! hole in the key space, and which stored keys every covering peer holds.

use pgrid_core::key::{DataEntry, Key};
use pgrid_core::path::Path;
use pgrid_core::peer::PeerState;
use std::collections::BTreeMap;

/// Peers grouped by path.
pub struct PathIndex {
    by_path: BTreeMap<Path, Vec<usize>>,
    max_len: usize,
    n_peers: usize,
}

impl PathIndex {
    pub fn new(paths: impl IntoIterator<Item = Path>) -> PathIndex {
        let mut by_path: BTreeMap<Path, Vec<usize>> = BTreeMap::new();
        let mut n_peers = 0;
        for (peer, path) in paths.into_iter().enumerate() {
            by_path.entry(path).or_default().push(peer);
            n_peers += 1;
        }
        let max_len = by_path.keys().map(|p| p.len()).max().unwrap_or(0);
        PathIndex {
            by_path,
            max_len,
            n_peers,
        }
    }

    pub fn of(peers: &[&PeerState]) -> PathIndex {
        PathIndex::new(peers.iter().map(|p| p.path))
    }

    /// Every peer whose path is a prefix of `key`, shallowest first.
    pub fn covering(&self, key: Key) -> impl Iterator<Item = usize> + '_ {
        let mut prefix = Path::root();
        (0..=self.max_len)
            .filter_map(move |len| {
                let peers = self.by_path.get(&prefix);
                if len < self.max_len {
                    prefix = prefix.child(key.bit(len));
                }
                peers
            })
            .flatten()
            .copied()
    }

    /// Peers sharing `path` exactly (the replicas of one partition).
    pub fn replicas_of(&self, path: &Path) -> &[usize] {
        self.by_path.get(path).map_or(&[], Vec::as_slice)
    }

    /// Number of distinct paths.
    pub fn distinct_paths(&self) -> usize {
        self.by_path.len()
    }

    fn proper_prefixes(path: Path) -> impl Iterator<Item = Path> {
        (0..path.len()).map(move |len| path.prefix(len))
    }

    /// Whether the peer paths cover the whole key space: the paths no
    /// other peer path is a proper prefix of are prefix-free by choice,
    /// and they must add up to width 1.  (At quiescence some peers sit on
    /// a proper prefix of other peers' paths, so the full path set is not
    /// prefix-free; a hole would make keys unroutable, nesting does not.)
    pub fn cover_is_complete(&self) -> bool {
        let total: u128 = self
            .by_path
            .keys()
            .filter(|p| !Self::proper_prefixes(**p).any(|q| self.by_path.contains_key(&q)))
            .map(|p| 1u128 << (64 - p.len()))
            .sum();
        total == 1u128 << 64
    }

    /// Share of peers whose path is a proper prefix of another peer's.
    pub fn nested_path_ratio(&self) -> f64 {
        let mut nested: BTreeMap<Path, usize> = BTreeMap::new();
        for path in self.by_path.keys() {
            for prefix in Self::proper_prefixes(*path) {
                if let Some(peers) = self.by_path.get(&prefix) {
                    nested.insert(prefix, peers.len());
                }
            }
        }
        nested.values().sum::<usize>() as f64 / self.n_peers.max(1) as f64
    }
}

/// How well the overlay holds the keys it was given.
pub struct Holdings {
    /// Original keys held by at least one covering peer.
    pub held_by_any: usize,
    /// Original entries held by *every* covering peer: a lookup for one of
    /// these finds it whichever replica the route ends at.
    pub findable: Vec<DataEntry>,
}

pub fn holdings(index: &PathIndex, peers: &[&PeerState], originals: &[DataEntry]) -> Holdings {
    let mut held_by_any = 0;
    let mut findable = Vec::new();
    for entry in originals {
        let (mut any, mut all) = (false, true);
        for peer in index.covering(entry.key) {
            if peers[peer].store.contains(entry) {
                any = true;
            } else {
                all = false;
            }
        }
        held_by_any += usize::from(any);
        if any && all {
            findable.push(*entry);
        }
    }
    Holdings {
        held_by_any,
        findable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgrid_core::key::DataId;
    use pgrid_core::routing::PeerId;

    fn peer(id: u64, path: &str, keys: &[f64]) -> PeerState {
        let mut state = PeerState::with_entries(
            PeerId(id),
            2,
            keys.iter()
                .map(|&k| DataEntry::new(Key::from_fraction(k), DataId((k * 100.0) as u64))),
        );
        state.path = Path::parse(path);
        state
    }

    #[test]
    fn covering_walks_the_prefixes_of_a_key() {
        let index = PathIndex::new(["0", "01", "1", "011", "01"].map(Path::parse));
        // 0.3 = 0.01001…: covered by "0" and both "01" peers.
        let peers: Vec<usize> = index.covering(Key::from_fraction(0.3)).collect();
        assert_eq!(peers, vec![0, 1, 4]);
        let peers: Vec<usize> = index.covering(Key::from_fraction(0.9)).collect();
        assert_eq!(peers, vec![2]);
        assert_eq!(index.replicas_of(&Path::parse("01")), &[1, 4]);
        assert_eq!(index.distinct_paths(), 4);
    }

    #[test]
    fn a_hole_in_the_key_space_is_detected_and_nesting_is_not_a_hole() {
        assert!(PathIndex::new(["0", "1"].map(Path::parse)).cover_is_complete());
        assert!(PathIndex::new(["0", "10", "11", "110"].map(Path::parse)).cover_is_complete());
        assert!(PathIndex::new([Path::root()]).cover_is_complete());
        // Nothing covers "11".
        assert!(!PathIndex::new(["0", "10", "0"].map(Path::parse)).cover_is_complete());
        assert!(!PathIndex::new(["00", "1"].map(Path::parse)).cover_is_complete());
        let nested = PathIndex::new(["0", "10", "11", "110"].map(Path::parse));
        assert_eq!(nested.nested_path_ratio(), 0.25);
    }

    #[test]
    fn a_key_no_covering_peer_holds_is_counted_lost() {
        let a = peer(0, "0", &[0.1, 0.3]);
        let b = peer(1, "0", &[0.1]);
        // 0.7 belongs under "1" but only the "0" peer `d` stores it.
        let c = peer(2, "1", &[0.9]);
        let d = peer(3, "0", &[0.7]);
        let peers = [&a, &b, &c, &d];
        let originals: Vec<DataEntry> = [0.1, 0.3, 0.7, 0.9]
            .iter()
            .map(|&k| DataEntry::new(Key::from_fraction(k), DataId((k * 100.0) as u64)))
            .collect();
        let holdings = holdings(&PathIndex::of(&peers), &peers, &originals);
        assert_eq!(holdings.held_by_any, 3);
        // 0.1 misses on `d`, 0.3 on `b` and `d`; only 0.9 is on every
        // covering peer.
        assert_eq!(holdings.findable, vec![originals[3]]);
    }
}
