//! Local key store of a peer.
//!
//! Every peer locally stores the `(key, data-id)` entries it is responsible
//! for (and, before and during overlay construction, the entries it happens
//! to hold).  Construction decisions in the paper are driven entirely by the
//! locally stored keys — the fraction of keys falling into the two halves of
//! the current partition is the estimator `p̂` of the data skew `p` — so the
//! store is the inner loop of every interaction.
//!
//! # Representation
//!
//! A store is **one sorted run**: an `Arc<Vec<DataEntry>>` whose entries are
//! strictly ascending by `(key, id)` (sorted, no duplicates).  Everything
//! the exchange path asks of it is a binary search or a single merge walk
//! over that run (`k` = entries stored, `b` = batch size):
//!
//! | operation | cost |
//! |---|---|
//! | `len`, `iter`, `clone`, `shares_storage_with` | O(1) |
//! | `contains`, `contains_key`, `range`, `restricted`, `count_in`, `key_span_in` | O(log k) |
//! | `intersection_size_with`, `missing_in`, content `==` | one walk, O(k₁ + k₂) compares |
//! | `merge_batch` | sort of the batch + one counting walk; one merge into a new run iff something is new |
//! | `split_retain` | O(log k) + two `memcpy`s |
//! | `from_entries` | sort + dedup, O(k log k) (O(k) on sorted input) |
//! | `insert`, `remove` | binary search + shift, **O(k)** — population and tests only |
//! | first mutation of a shared run | one `memcpy` of the run |
//!
//! The run is copy-on-write: [`Clone`] shares it, and so do two replicas
//! after [`crate::replication::reconcile`]; whoever mutates first writes a
//! new run and leaves the other handle untouched.

use crate::key::{DataEntry, Key};
use crate::path::Path;
use std::cmp::Ordering;
use std::ops::Range;
use std::sync::Arc;

/// Index bounds of the entries of the ascending `run` whose key lies in the
/// **inclusive** range `[lo, hi]` (empty when `lo > hi`).
fn key_bounds(run: &[DataEntry], lo: Key, hi: Key) -> Range<usize> {
    let start = run.partition_point(|e| e.key < lo);
    let end = start + run[start..].partition_point(|e| e.key <= hi);
    start..end
}

/// The entries of the ascending `run` covered by `path`.
fn covered<'a>(run: &'a [DataEntry], path: &Path) -> &'a [DataEntry] {
    &run[key_bounds(run, path.lower_key(), path.upper_key())]
}

/// An entry's place in the `(key, id)` order as one integer.
fn rank(entry: &DataEntry) -> u128 {
    (u128::from(entry.key.0) << 64) | u128::from(entry.id.0)
}

/// Number of entries two ascending runs have in common: one merge walk, or
/// no walk at all when both are the same piece of one shared run (two
/// reconciled replicas assessing each other again).
///
/// The walk advances both cursors by comparison results instead of
/// branching on them: whether `a` or `b` holds the smaller entry is a coin
/// flip the branch predictor loses about half the time.
fn common_len(a: &[DataEntry], b: &[DataEntry]) -> usize {
    if std::ptr::eq(a, b) {
        return a.len();
    }
    let (mut i, mut j, mut common) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (rank(&a[i]), rank(&b[j]));
        i += usize::from(x <= y);
        j += usize::from(y <= x);
        common += usize::from(x == y);
    }
    common
}

/// Read-only access to a set of entries held as one ascending run,
/// implemented both by the owning [`KeyStore`] and by the borrowed
/// [`RestrictedView`].
///
/// The exchange engine's partition assessment only ever *reads* the two
/// interacting stores, so it is written against this trait.  The run is the
/// only thing an implementor supplies; every query is derived from it.
pub trait StoreRead {
    /// The entries, strictly ascending by `(key, id)`.
    fn as_slice(&self) -> &[DataEntry];

    /// Number of entries.
    fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether there are no entries.
    fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// Whether the given entry is present.
    fn contains(&self, entry: &DataEntry) -> bool {
        self.as_slice().binary_search(entry).is_ok()
    }

    /// Iterator over all entries in key order.
    fn entries(&self) -> std::slice::Iter<'_, DataEntry> {
        self.as_slice().iter()
    }

    /// Number of entries covered by the given partition path.
    fn count_in(&self, path: &Path) -> usize {
        covered(self.as_slice(), path).len()
    }

    /// The smallest and largest key stored within `path`, if any.
    ///
    /// A partition whose span is a single point (all stored entries share one
    /// key, e.g. the postings of one very popular index term) cannot be
    /// balanced by bisection; callers use this to detect that case.
    fn key_span_in(&self, path: &Path) -> Option<(Key, Key)> {
        let run = covered(self.as_slice(), path);
        Some((run.first()?.key, run.last()?.key))
    }

    /// Size of the set intersection with another readable store (number of
    /// common entries).
    fn intersection_size_with(&self, other: &impl StoreRead) -> usize {
        common_len(self.as_slice(), other.as_slice())
    }

    /// Entries of `self` that are missing in `target` (what anti-entropy
    /// would push from here to there), ascending.
    fn missing_in(&self, target: &impl StoreRead) -> Vec<DataEntry> {
        let theirs = target.as_slice();
        let mut missing = Vec::new();
        let mut j = 0;
        for entry in self.as_slice() {
            while j < theirs.len() && theirs[j] < *entry {
                j += 1;
            }
            if theirs.get(j) != Some(entry) {
                missing.push(*entry);
            }
        }
        missing
    }
}

/// Ordered local store of indexed entries: one sorted, deduplicated run
/// behind a copy-on-write [`Arc`] (see the module documentation for the
/// cost of each operation).
///
/// [`Clone`] is an O(1) snapshot sharing the run, and a mutator that
/// changes the content writes a new run instead of touching the shared one,
/// so a snapshot — a durable-journal mirror, a reconciled replica — never
/// observes a later mutation.  A mutator that turns out to change nothing
/// (an all-duplicate batch, a split that gives nothing away) keeps the
/// handle, and with it the sharing.  Use [`KeyStore::shares_storage_with`]
/// to assert sharing and [`KeyStore::deep_clone`] when an eager private copy
/// is wanted.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KeyStore {
    /// Invariant: strictly ascending by `(key, id)`.
    entries: Arc<Vec<DataEntry>>,
}

impl KeyStore {
    /// Creates an empty store.
    pub fn new() -> KeyStore {
        KeyStore::default()
    }

    /// Builds a store from an iterator of entries in any order, duplicates
    /// tolerated (caller and wire order are never trusted).
    pub fn from_entries<I: IntoIterator<Item = DataEntry>>(entries: I) -> KeyStore {
        let mut run: Vec<DataEntry> = entries.into_iter().collect();
        run.sort_unstable();
        run.dedup();
        KeyStore {
            entries: Arc::new(run),
        }
    }

    /// Inserts an entry; returns `true` if it was not present before.
    ///
    /// O(k): binary search plus a shift of the tail (and a copy of the run
    /// when it is shared).  Meant for population and tests; anything that
    /// adds more than a few entries goes through [`KeyStore::merge_batch`].
    pub fn insert(&mut self, entry: DataEntry) -> bool {
        match self.entries.binary_search(&entry) {
            Ok(_) => false,
            Err(at) => {
                Arc::make_mut(&mut self.entries).insert(at, entry);
                true
            }
        }
    }

    /// Removes an entry; returns `true` if it was present.  O(k), like
    /// [`KeyStore::insert`].
    pub fn remove(&mut self, entry: &DataEntry) -> bool {
        match self.entries.binary_search(entry) {
            Ok(at) => {
                Arc::make_mut(&mut self.entries).remove(at);
                true
            }
            Err(_) => false,
        }
    }

    /// An eager private copy that shares no storage with `self`.
    pub fn deep_clone(&self) -> KeyStore {
        KeyStore {
            entries: Arc::new((*self.entries).clone()),
        }
    }

    /// Whether this store and `other` currently share one underlying run
    /// (true right after a [`Clone`] or a
    /// [`crate::replication::reconcile`], false once either side's content
    /// changed or after [`KeyStore::deep_clone`]).
    pub fn shares_storage_with(&self, other: &KeyStore) -> bool {
        Arc::ptr_eq(&self.entries, &other.entries)
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the given entry is stored.
    pub fn contains(&self, entry: &DataEntry) -> bool {
        StoreRead::contains(self, entry)
    }

    /// Whether any entry with the given key is stored.
    pub fn contains_key(&self, key: Key) -> bool {
        !key_bounds(&self.entries, key, key).is_empty()
    }

    /// Iterator over all entries in key order.
    pub fn iter(&self) -> std::slice::Iter<'_, DataEntry> {
        self.entries.iter()
    }

    /// Iterator over entries whose key lies in the **inclusive** range
    /// `[lo, hi]`, i.e. from `(lo, DataId(0))` to `(hi, DataId(u64::MAX))`.
    ///
    /// The upper bound is found by galloping from the lower one — probes
    /// 1, 2, 4, … entries on, then one search inside the last doubling — so
    /// a point probe (`lo == hi`, the lookup path) touches only the cache
    /// lines next to its first hit, and a wide range pays at most one extra
    /// search.
    pub fn range(&self, lo: Key, hi: Key) -> std::slice::Iter<'_, DataEntry> {
        let run = self.entries.as_slice();
        let from = &run[run.partition_point(|e| e.key < lo)..];
        // `from[..within]` is known to be in range.
        let (mut within, mut step) = (0, 1);
        while within + step <= from.len() && from[within + step - 1].key <= hi {
            within += step;
            step *= 2;
        }
        let last_doubling = &from[within..from.len().min(within + step - 1)];
        let end = within + last_doubling.partition_point(|e| e.key <= hi);
        from[..end].iter()
    }

    /// Splits off and returns all entries **not** covered by `path`
    /// (ascending), retaining only the covered ones.
    ///
    /// This is the "split the key space and exchange content" interaction of
    /// Figure 2: after two peers agree to extend their paths with opposite
    /// bits, each keeps the entries of its new partition and hands the rest
    /// to the other peer.  The covered entries are one contiguous piece of
    /// the run, so the split is two searches and two copies.
    pub fn split_retain(&mut self, path: &Path) -> Vec<DataEntry> {
        let run = self.entries.as_slice();
        let keep = key_bounds(run, path.lower_key(), path.upper_key());
        if keep.len() == run.len() {
            return Vec::new();
        }
        let mut given = Vec::with_capacity(run.len() - keep.len());
        given.extend_from_slice(&run[..keep.start]);
        given.extend_from_slice(&run[keep.end..]);
        self.entries = Arc::new(run[keep].to_vec());
        given
    }

    /// Merges a whole batch of entries at once (split handover, replication
    /// push, forwarded complement keys), returning the number of entries
    /// that were actually new.
    ///
    /// The batch may arrive in any order; duplicates inside it and entries
    /// already stored are tolerated and not counted.  When nothing is new
    /// the handle (and any sharing) is left alone.
    pub fn merge_batch(&mut self, mut entries: Vec<DataEntry>) -> usize {
        entries.sort_unstable();
        entries.dedup();
        let new = entries.len() - common_len(&self.entries, &entries);
        self.merge_run(&entries, new);
        new
    }

    /// Merges a strictly ascending `run`, `new` of whose entries are not
    /// stored yet, into the store: the union is written once, at its exact
    /// size, unless there is nothing to add.
    pub(crate) fn merge_run(&mut self, run: &[DataEntry], new: usize) {
        if new == 0 {
            return;
        }
        let old = self.entries.as_slice();
        let mut union = Vec::with_capacity(old.len() + new);
        let (mut i, mut j) = (0, 0);
        while i < old.len() && j < run.len() {
            match old[i].cmp(&run[j]) {
                Ordering::Less => {
                    union.push(old[i]);
                    i += 1;
                }
                Ordering::Greater => {
                    union.push(run[j]);
                    j += 1;
                }
                Ordering::Equal => {
                    union.push(old[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        union.extend_from_slice(&old[i..]);
        union.extend_from_slice(&run[j..]);
        debug_assert_eq!(union.len(), old.len() + new);
        self.entries = Arc::new(union);
    }

    /// A borrowed view of this store restricted to the entries covered by
    /// `path`: the sub-slice of the run, located by two binary searches.
    pub fn restricted(&self, path: &Path) -> RestrictedView<'_> {
        RestrictedView {
            run: covered(&self.entries, path),
        }
    }

    /// Removes and returns all entries (ascending), leaving the store empty.
    pub fn drain(&mut self) -> Vec<DataEntry> {
        // A snapshot that still shares the run keeps it; we take a copy.
        Arc::try_unwrap(std::mem::take(&mut self.entries)).unwrap_or_else(|run| (*run).clone())
    }
}

impl StoreRead for KeyStore {
    fn as_slice(&self) -> &[DataEntry] {
        &self.entries
    }
}

/// A zero-copy view of a [`KeyStore`] restricted to one partition's key
/// range, created by [`KeyStore::restricted`]: the sub-slice of the store's
/// run that the partition covers.
///
/// Nested queries (`count_in`/`key_span_in` for child partitions) search
/// inside the sub-slice, so they are clamped to the view by construction.
#[derive(Copy, Clone, Debug)]
pub struct RestrictedView<'a> {
    run: &'a [DataEntry],
}

impl StoreRead for RestrictedView<'_> {
    fn as_slice(&self) -> &[DataEntry] {
        self.run
    }
}

impl FromIterator<DataEntry> for KeyStore {
    fn from_iter<T: IntoIterator<Item = DataEntry>>(iter: T) -> Self {
        KeyStore::from_entries(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::DataId;

    fn entry(x: f64, id: u64) -> DataEntry {
        DataEntry::new(Key::from_fraction(x), DataId(id))
    }

    fn store_with(fracs: &[f64]) -> KeyStore {
        fracs
            .iter()
            .enumerate()
            .map(|(i, &x)| entry(x, i as u64))
            .collect()
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = KeyStore::new();
        assert!(s.insert(entry(0.3, 1)));
        assert!(!s.insert(entry(0.3, 1)));
        assert!(s.contains(&entry(0.3, 1)));
        assert!(s.contains_key(Key::from_fraction(0.3)));
        assert!(!s.contains_key(Key::from_fraction(0.31)));
        assert!(s.remove(&entry(0.3, 1)));
        assert!(!s.remove(&entry(0.3, 1)));
        assert!(s.is_empty());
    }

    #[test]
    fn range_is_inclusive_and_ordered() {
        let s = store_with(&[0.1, 0.2, 0.3, 0.4, 0.5]);
        let got: Vec<f64> = s
            .range(Key::from_fraction(0.2), Key::from_fraction(0.4))
            .map(|e| e.key.as_fraction())
            .collect();
        assert_eq!(got.len(), 3);
        assert!(got.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn covered_is_the_run_filtered_by_the_path() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        for case in 0..200 {
            // Runs of 0..300 entries over all keys or over a thousand of
            // them (so keys repeat); paths along stored and random keys.
            let len = rng.gen_range(0..300usize);
            let mask = if case % 2 == 0 {
                u64::MAX
            } else {
                0xFF00_0000_0000_0003
            };
            let run: KeyStore = (0..len)
                .map(|i| DataEntry::new(Key(rng.gen::<u64>() & mask), DataId(i as u64 % 3)))
                .collect();
            for _ in 0..8 {
                let along = match run.as_slice().get(rng.gen_range(0..len.max(1))) {
                    Some(entry) if rng.gen_bool(0.5) => entry.key,
                    _ => Key(rng.gen()),
                };
                let depth = rng.gen_range(0..=crate::path::MAX_PATH_LEN.min(12));
                let path = (0..depth).fold(Path::root(), |p, i| p.child(along.bit(i)));
                let expected: Vec<DataEntry> =
                    run.iter().copied().filter(|e| path.covers(e.key)).collect();
                assert_eq!(covered(run.as_slice(), &path), expected, "{path}");
                assert_eq!(run.count_in(&path), expected.len(), "{path}");
            }
        }
    }

    #[test]
    fn count_in_partition() {
        let s = store_with(&[0.1, 0.2, 0.3, 0.6, 0.7, 0.9]);
        assert_eq!(s.count_in(&Path::root()), 6);
        assert_eq!(s.count_in(&Path::parse("0")), 3);
        assert_eq!(s.count_in(&Path::parse("1")), 3);
        assert_eq!(s.count_in(&Path::parse("11")), 1);
    }

    #[test]
    fn split_retain_partitions_entries() {
        let mut s = store_with(&[0.1, 0.2, 0.3, 0.6, 0.7, 0.9]);
        let given = s.split_retain(&Path::parse("0"));
        assert_eq!(s.len(), 3);
        assert_eq!(given.len(), 3);
        assert!(s.iter().all(|e| e.key.as_fraction() < 0.5));
        assert!(given.iter().all(|e| e.key.as_fraction() >= 0.5));
    }

    #[test]
    fn merge_counts_new_entries() {
        let mut a = store_with(&[0.1, 0.2]);
        let b = store_with(&[0.2, 0.3]);
        // ids differ per store_with, so construct explicit overlap
        let mut a2 = KeyStore::new();
        a2.insert(entry(0.1, 1));
        a2.insert(entry(0.2, 2));
        // Unsorted, with an in-batch duplicate and an entry already stored.
        let added = a2.merge_batch(vec![entry(0.3, 3), entry(0.2, 2), entry(0.3, 3)]);
        assert_eq!(added, 1);
        assert_eq!(a2.len(), 3);
        assert!(a2.iter().is_sorted());
        // A batch with nothing new leaves the handle (and its sharing) alone.
        let snapshot = a2.clone();
        assert_eq!(a2.merge_batch(vec![entry(0.2, 2), entry(0.1, 1)]), 0);
        assert!(a2.shares_storage_with(&snapshot));
        // also exercise missing_in
        let missing = b.missing_in(&a);
        assert_eq!(missing.len(), 2);
        a.merge_batch(missing);
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn overlap_statistics() {
        let mut a = KeyStore::new();
        let mut b = KeyStore::new();
        for i in 0..10 {
            a.insert(entry(i as f64 / 20.0, i));
        }
        for i in 5..15 {
            b.insert(entry(i as f64 / 20.0, i));
        }
        assert_eq!(a.intersection_size_with(&b), 5);
        assert_eq!(b.intersection_size_with(&a), 5);
        assert_eq!(a.intersection_size_with(&KeyStore::new()), 0);
        assert_eq!(a.missing_in(&b).len() + b.len(), 15, "size of the union");
    }

    #[test]
    fn cow_snapshot_shares_until_mutation() {
        let mut live = store_with(&[0.1, 0.2, 0.3]);
        let snapshot = live.clone();
        // The O(1) snapshot shares storage — zero entries were copied.
        assert!(snapshot.shares_storage_with(&live));
        assert!(!live.deep_clone().shares_storage_with(&live));

        // First mutation diverges the live store; the snapshot is frozen.
        live.insert(entry(0.9, 42));
        assert!(!snapshot.shares_storage_with(&live));
        assert_eq!(snapshot.len(), 3);
        assert_eq!(live.len(), 4);

        // Draining a shared store leaves the snapshot's copy intact.
        let snapshot2 = live.clone();
        let drained = live.drain();
        assert_eq!(drained.len(), 4);
        assert!(live.is_empty());
        assert_eq!(snapshot2.len(), 4);

        // Further mutations while unshared stay in place (no re-copy).
        let mut solo = store_with(&[0.4]);
        let before = solo.clone();
        drop(before);
        solo.insert(entry(0.5, 7));
        assert_eq!(solo.len(), 2);
    }

    #[test]
    fn split_retain_does_not_disturb_snapshots() {
        let mut live = store_with(&[0.1, 0.2, 0.6, 0.7]);
        let snapshot = live.clone();
        let given = live.split_retain(&Path::parse("0"));
        assert_eq!(given.len(), 2);
        assert_eq!(live.len(), 2);
        assert_eq!(
            snapshot.len(),
            4,
            "the snapshot must keep the pre-split set"
        );
    }

    #[test]
    fn drain_empties_store() {
        let mut s = store_with(&[0.1, 0.9]);
        let all = s.drain();
        assert_eq!(all.len(), 2);
        assert!(s.is_empty());
    }

    #[test]
    fn restricted_view_matches_owned_restriction() {
        let s = store_with(&[0.05, 0.1, 0.2, 0.3, 0.45, 0.6, 0.7, 0.9]);
        for path in ["", "0", "1", "01", "00", "111", "0000"] {
            let path = Path::parse(path);
            let view = s.restricted(&path);
            let owned = KeyStore::from_entries(s.iter().copied().filter(|e| path.covers(e.key)));
            assert_eq!(view.len(), owned.len(), "{path}");
            assert_eq!(view.as_slice(), owned.as_slice(), "{path}");
            for child in [path.child(false), path.child(true)] {
                assert_eq!(view.count_in(&child), owned.count_in(&child));
                assert_eq!(view.key_span_in(&child), owned.key_span_in(&child));
            }
        }
    }

    #[test]
    fn restricted_view_set_operations_match_key_store() {
        let a = store_with(&[0.1, 0.2, 0.3, 0.6, 0.7]);
        let b = store_with(&[0.2, 0.3, 0.4, 0.8]);
        let path = Path::root();
        let view_a = a.restricted(&path);
        assert_eq!(
            view_a.intersection_size_with(&b),
            a.intersection_size_with(&b),
            "view intersection must match the owned store's"
        );
        assert_eq!(view_a.missing_in(&b), a.missing_in(&b));
        // A view only sees entries inside its bounds.
        let lower = a.restricted(&Path::parse("0"));
        assert_eq!(lower.len(), 3);
        assert!(!lower.contains(&entry(0.6, 3)));
    }
}
