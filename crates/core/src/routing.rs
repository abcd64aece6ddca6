//! Distributed prefix-routing tables.
//!
//! Each peer maintains, for every bit position of its path, one or more
//! randomly selected references to peers whose path has the *opposite* bit
//! at that position (Section 2.1).  The union of all routing tables
//! represents the trie in a distributed fashion; keeping several references
//! per level provides alternative access paths when peers fail.

use crate::path::Path;
use rand::Rng;
use std::fmt;

/// Maximum number of routing references kept per level by both engines.
pub const FANOUT: usize = 5;

/// Identifier of a peer.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PeerId(pub u64);

impl fmt::Debug for PeerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl fmt::Display for PeerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl From<u64> for PeerId {
    fn from(id: u64) -> PeerId {
        PeerId(id)
    }
}

impl From<PeerId> for u64 {
    fn from(peer: PeerId) -> u64 {
        peer.0
    }
}

/// A single routing reference: a peer believed to be responsible for the
/// complementary subtree at some level.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct RoutingEntry {
    /// The referenced peer.
    pub peer: PeerId,
    /// The path the referenced peer had when the reference was learned.
    /// Routing only requires that this path starts with the complementary
    /// prefix of the owner's path at the entry's level; it may be stale with
    /// respect to the peer's current (longer) path, which is harmless for
    /// prefix routing.
    pub path: Path,
}

/// Routing table of a peer: `levels[i]` holds references to peers whose
/// path agrees with the owner's path on the first `i` bits and has the
/// opposite bit at position `i`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RoutingTable {
    levels: Vec<Vec<RoutingEntry>>,
    /// Maximum number of references kept per level (`0` = unbounded).
    fanout: usize,
}

impl RoutingTable {
    /// Creates an empty routing table with at most `fanout` references per
    /// level (`fanout == 0` keeps every reference ever learned).
    pub fn new(fanout: usize) -> RoutingTable {
        RoutingTable {
            levels: Vec::new(),
            fanout,
        }
    }

    /// Number of levels currently present.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// The configured per-level fanout bound (`0` = unbounded).
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// References stored at `level`, or an empty slice.
    pub fn level(&self, level: usize) -> &[RoutingEntry] {
        self.levels.get(level).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Adds a reference at the given level.  Duplicate peer ids at the same
    /// level are ignored; if the level is full, a random existing entry is
    /// replaced (reference refresh keeps the table randomised, which the
    /// paper relies on for uniform load on the complementary subtree).
    pub fn add<R: Rng + ?Sized>(&mut self, level: usize, entry: RoutingEntry, rng: &mut R) {
        while self.levels.len() <= level {
            self.levels.push(Vec::new());
        }
        let slot = &mut self.levels[level];
        if slot.iter().any(|e| e.peer == entry.peer) {
            return;
        }
        if self.fanout > 0 && slot.len() >= self.fanout {
            let victim = rng.gen_range(0..slot.len());
            slot[victim] = entry;
        } else {
            slot.push(entry);
        }
    }

    /// Iterator over `(level, entry)` pairs.
    pub fn entries(&self) -> impl Iterator<Item = (usize, &RoutingEntry)> {
        self.levels
            .iter()
            .enumerate()
            .flat_map(|(lvl, entries)| entries.iter().map(move |e| (lvl, e)))
    }

    /// Checks the structural routing invariant against the owner's path:
    /// every entry at level `i` must reference a path that shares the first
    /// `i` bits with `own_path` and differs at bit `i`.
    pub fn is_consistent_with(&self, own_path: &Path) -> bool {
        for (level, entry) in self.entries() {
            if level >= own_path.len() {
                return false;
            }
            if entry.path.len() <= level {
                return false;
            }
            if entry.path.common_prefix_len(own_path) < level {
                return false;
            }
            if entry.path.bit(level) == own_path.bit(level) {
                return false;
            }
        }
        true
    }

    /// Truncates the table to the first `levels` levels (used when a peer
    /// shortens its path, e.g. when re-balancing).
    pub fn truncate(&mut self, levels: usize) {
        self.levels.truncate(levels);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn entry(id: u64, path: &str) -> RoutingEntry {
        RoutingEntry {
            peer: PeerId(id),
            path: Path::parse(path),
        }
    }

    #[test]
    fn add_and_lookup() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut rt = RoutingTable::new(2);
        rt.add(0, entry(1, "1"), &mut rng);
        rt.add(1, entry(2, "01"), &mut rng);
        assert_eq!(rt.num_levels(), 2);
        assert_eq!(rt.entries().count(), 2);
        assert_eq!(rt.level(0)[0].peer, PeerId(1));
        assert_eq!(rt.level(5), &[]);
    }

    #[test]
    fn duplicates_ignored_and_fanout_respected() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut rt = RoutingTable::new(2);
        rt.add(0, entry(1, "1"), &mut rng);
        rt.add(0, entry(1, "1"), &mut rng);
        assert_eq!(rt.entries().count(), 1);
        rt.add(0, entry(2, "1"), &mut rng);
        rt.add(0, entry(3, "11"), &mut rng);
        // fanout 2: still two entries, one of which was replaced
        assert_eq!(rt.level(0).len(), 2);
        // unbounded table keeps everything
        let mut unbounded = RoutingTable::new(0);
        for i in 0..10 {
            unbounded.add(0, entry(i, "1"), &mut rng);
        }
        assert_eq!(unbounded.entries().count(), 10);
    }

    #[test]
    fn consistency_invariant() {
        let mut rng = StdRng::seed_from_u64(4);
        let own = Path::parse("010");
        let mut rt = RoutingTable::new(0);
        rt.add(0, entry(1, "1"), &mut rng);
        rt.add(1, entry(2, "00"), &mut rng);
        rt.add(2, entry(3, "0111"), &mut rng);
        assert!(rt.is_consistent_with(&own));
        // wrong bit at level 1
        let mut bad = RoutingTable::new(0);
        bad.add(1, entry(4, "01"), &mut rng);
        assert!(!bad.is_consistent_with(&own));
        // level beyond own path length
        let mut too_deep = RoutingTable::new(0);
        too_deep.add(3, entry(5, "0101"), &mut rng);
        assert!(!too_deep.is_consistent_with(&own));
    }

    #[test]
    fn truncate_drops_deep_levels() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut rt = RoutingTable::new(0);
        rt.add(0, entry(1, "1"), &mut rng);
        rt.add(1, entry(2, "01"), &mut rng);
        rt.truncate(1);
        assert_eq!(rt.num_levels(), 1);
        assert_eq!(rt.entries().count(), 1);
    }
}
