//! Explicit representation of the canonical trie induced by key space
//! bisection.
//!
//! The overlay itself is *distributed*: the trie only exists implicitly in
//! the union of the peers' paths and routing tables.  For analysis (load
//! balance metrics, reference partitioning, test oracles) it is convenient
//! to materialise the trie explicitly.

use crate::path::Path;
use std::collections::BTreeMap;

/// A materialised trie over partition paths, mapping each leaf partition to
/// an associated value (e.g. the number of peers or the data load).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PartitionTrie<T> {
    leaves: BTreeMap<Path, T>,
}

impl<T> PartitionTrie<T> {
    /// Creates an empty trie (no leaves at all).
    pub fn new() -> Self {
        PartitionTrie {
            leaves: BTreeMap::new(),
        }
    }

    /// Inserts (or replaces) a leaf.
    ///
    /// Callers are responsible for keeping the leaf set prefix-free; this is
    /// validated by [`PartitionTrie::is_prefix_free`].
    pub fn insert(&mut self, path: Path, value: T) -> Option<T> {
        self.leaves.insert(path, value)
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.leaves.len()
    }

    /// Whether the trie has no leaves.
    pub fn is_empty(&self) -> bool {
        self.leaves.is_empty()
    }

    /// Iterator over `(path, value)` leaves in canonical (key space) order.
    pub fn iter(&self) -> impl Iterator<Item = (&Path, &T)> {
        self.leaves.iter()
    }

    /// Returns the value stored for an exact leaf path.
    pub fn get(&self, path: &Path) -> Option<&T> {
        self.leaves.get(path)
    }

    /// The set of leaf paths.
    pub fn paths(&self) -> Vec<Path> {
        self.leaves.keys().copied().collect()
    }

    /// Whether no leaf is a prefix of another (a valid partition of the key
    /// space never has nested leaves).
    pub fn is_prefix_free(&self) -> bool {
        let paths: Vec<&Path> = self.leaves.keys().collect();
        for (i, a) in paths.iter().enumerate() {
            for b in paths.iter().skip(i + 1) {
                if a.is_prefix_of(b) || b.is_prefix_of(a) {
                    return false;
                }
            }
        }
        true
    }

    /// Whether the leaves exactly cover the whole key space, i.e. the total
    /// width of all leaves is 1 and they are prefix-free.
    pub fn is_complete_partition(&self) -> bool {
        if !self.is_prefix_free() {
            return false;
        }
        let total: f64 = self.leaves.keys().map(|p| p.width()).sum();
        (total - 1.0).abs() < 1e-9
    }

    /// Maximum leaf depth.
    pub fn depth(&self) -> usize {
        self.leaves.keys().map(|p| p.len()).max().unwrap_or(0)
    }

    /// Mean leaf depth (the expected search path length if leaves were
    /// addressed uniformly).
    pub fn mean_depth(&self) -> f64 {
        if self.leaves.is_empty() {
            return 0.0;
        }
        self.leaves.keys().map(|p| p.len() as f64).sum::<f64>() / self.leaves.len() as f64
    }
}

/// Builds a histogram trie from a list of peer paths: each distinct path
/// becomes a leaf whose value is the number of peers with that path.
pub fn peer_count_trie<'a, I: IntoIterator<Item = &'a Path>>(paths: I) -> PartitionTrie<usize> {
    let mut trie = PartitionTrie::new();
    for p in paths {
        match trie.leaves.get_mut(p) {
            Some(n) => *n += 1,
            None => {
                trie.insert(*p, 1);
            }
        }
    }
    trie
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trie_of(paths: &[&str]) -> PartitionTrie<usize> {
        let mut t = PartitionTrie::new();
        for (i, p) in paths.iter().enumerate() {
            t.insert(Path::parse(p), i);
        }
        t
    }

    #[test]
    fn prefix_freedom_detection() {
        assert!(trie_of(&["00", "01", "1"]).is_prefix_free());
        assert!(!trie_of(&["0", "01", "1"]).is_prefix_free());
    }

    #[test]
    fn complete_partition_detection() {
        assert!(trie_of(&["00", "01", "1"]).is_complete_partition());
        assert!(!trie_of(&["00", "1"]).is_complete_partition());
        assert!(!trie_of(&["0", "01", "1"]).is_complete_partition());
    }

    #[test]
    fn depth_statistics() {
        let t = trie_of(&["00", "01", "1"]);
        assert_eq!(t.depth(), 2);
        assert!((t.mean_depth() - 5.0 / 3.0).abs() < 1e-12);
        let empty: PartitionTrie<usize> = PartitionTrie::new();
        assert_eq!(empty.depth(), 0);
        assert_eq!(empty.mean_depth(), 0.0);
    }

    #[test]
    fn peer_count_histogram() {
        let paths = [
            Path::parse("00"),
            Path::parse("00"),
            Path::parse("01"),
            Path::parse("1"),
            Path::parse("1"),
            Path::parse("1"),
        ];
        let t = peer_count_trie(paths.iter());
        assert_eq!(t.get(&Path::parse("00")), Some(&2));
        assert_eq!(t.get(&Path::parse("01")), Some(&1));
        assert_eq!(t.get(&Path::parse("1")), Some(&3));
        assert_eq!(t.len(), 3);
    }
}
