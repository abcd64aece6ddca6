//! Distributed prefix-routing tables.
//!
//! Each peer maintains, for every bit position of its path, one or more
//! randomly selected references to peers whose path has the *opposite* bit
//! at that position (Section 2.1).  The union of all routing tables
//! represents the trie in a distributed fashion; keeping several references
//! per level provides alternative access paths when peers fail.
//!
//! A [`RoutingTable`] keeps at most [`FANOUT`] references per level, in
//! fixed slots: its levels are one `Vec` of 128-byte records (a count and
//! `FANOUT` slots), so the whole table is one allocation and reading any
//! level is one dependent load from the peer's state.

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

const _: () = assert!(std::mem::size_of::<Level>() == 128);

/// One level of a [`RoutingTable`]: up to [`FANOUT`] references in fixed
/// slots, of which the first `len` are in use.  128 bytes, so reading a
/// level is one load from the table's single allocation.
#[derive(Copy, Clone)]
struct Level {
    len: u8,
    refs: [RoutingEntry; FANOUT],
}

impl Level {
    const EMPTY: Level = Level {
        len: 0,
        refs: [RoutingEntry {
            peer: PeerId(0),
            path: Path::ROOT,
        }; FANOUT],
    };

    fn refs(&self) -> &[RoutingEntry] {
        &self.refs[..usize::from(self.len)]
    }
}

/// Routing table of a peer: level `i` holds references to peers whose path
/// agrees with the owner's path on the first `i` bits and has the opposite
/// bit at position `i`.
#[derive(Clone)]
pub struct RoutingTable {
    levels: Vec<Level>,
    /// Maximum number of references kept per level, `1..=FANOUT`.
    fanout: usize,
}

impl RoutingTable {
    /// Creates an empty routing table with at most `fanout` references per
    /// level.
    ///
    /// # Panics
    ///
    /// If `fanout` is not in `1..=FANOUT`.
    pub fn new(fanout: usize) -> RoutingTable {
        assert!(
            (1..=FANOUT).contains(&fanout),
            "routing fanout {fanout} outside 1..={FANOUT}"
        );
        RoutingTable {
            levels: Vec::new(),
            fanout,
        }
    }

    /// Number of levels currently present.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// References stored at `level`, or an empty slice.
    pub fn level(&self, level: usize) -> &[RoutingEntry] {
        self.levels.get(level).map_or(&[], Level::refs)
    }

    /// Adds a reference at the given level.  Duplicate peer ids at the same
    /// level are ignored; if the level is full, a random existing entry is
    /// replaced (reference refresh keeps the table randomised, which the
    /// paper relies on for uniform load on the complementary subtree).
    pub fn add<R: Rng + ?Sized>(&mut self, level: usize, entry: RoutingEntry, rng: &mut R) {
        if self.levels.len() <= level {
            self.levels.resize(level + 1, Level::EMPTY);
        }
        let slot = &mut self.levels[level];
        if slot.refs().iter().any(|e| e.peer == entry.peer) {
            return;
        }
        let len = usize::from(slot.len);
        if len >= self.fanout {
            let victim = rng.gen_range(0..len);
            slot.refs[victim] = entry;
        } else {
            slot.refs[len] = entry;
            slot.len += 1;
        }
    }

    /// Iterator over `(level, entry)` pairs, level by level.  It knows its
    /// length, so a `collect` allocates once, at the right size.
    pub fn entries(&self) -> impl ExactSizeIterator<Item = (usize, &RoutingEntry)> {
        let len = self.levels.iter().map(|level| usize::from(level.len)).sum();
        let mut walk = (self.levels.iter().enumerate())
            .flat_map(|(lvl, level)| level.refs().iter().map(move |e| (lvl, e)));
        // `len` counts every reference the walk yields.
        (0..len).map(move |_| walk.next().expect("a reference for every one counted"))
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
}

impl Default for RoutingTable {
    fn default() -> RoutingTable {
        RoutingTable::new(FANOUT)
    }
}

/// Equal fanout and equal references, level by level; unused slots never
/// take part.
impl PartialEq for RoutingTable {
    fn eq(&self, other: &RoutingTable) -> bool {
        self.fanout == other.fanout
            && self
                .levels
                .iter()
                .map(Level::refs)
                .eq(other.levels.iter().map(Level::refs))
    }
}

impl fmt::Debug for RoutingTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let levels: Vec<&[RoutingEntry]> = self.levels.iter().map(Level::refs).collect();
        f.debug_struct("RoutingTable")
            .field("levels", &levels)
            .field("fanout", &self.fanout)
            .finish()
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
    }

    #[test]
    #[should_panic(expected = "routing fanout 0 outside")]
    fn fanout_zero_is_rejected() {
        RoutingTable::new(0);
    }

    #[test]
    fn consistency_invariant() {
        let mut rng = StdRng::seed_from_u64(4);
        let own = Path::parse("010");
        let mut rt = RoutingTable::new(FANOUT);
        rt.add(0, entry(1, "1"), &mut rng);
        rt.add(1, entry(2, "00"), &mut rng);
        rt.add(2, entry(3, "0111"), &mut rng);
        assert!(rt.is_consistent_with(&own));
        // wrong bit at level 1
        let mut bad = RoutingTable::new(FANOUT);
        bad.add(1, entry(4, "01"), &mut rng);
        assert!(!bad.is_consistent_with(&own));
        // level beyond own path length
        let mut too_deep = RoutingTable::new(FANOUT);
        too_deep.add(3, entry(5, "0101"), &mut rng);
        assert!(!too_deep.is_consistent_with(&own));
    }
}
