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
//! A store is **one sorted run** behind an `Arc`: a `Vec<DataEntry>`
//! strictly ascending by `(key, id)` (sorted, no duplicates), and beside
//! the `Vec`'s header, in the `Arc`'s allocation, 15 **splitters** — the
//! keys at 15 evenly spaced positions of the run.  The one load that
//! reaches the run's header brings the splitters with it; a key search
//! reads them first, then binary-searches only the window of about
//! `k / 16` entries between two of them, instead of probing the whole run
//! cold.  Splitters are written only when a new run is (`from_entries`, a
//! merge, `split_retain`, `insert`, `remove`); a run of at most 30 entries
//! has none and is searched directly.
//! Everything the exchange path asks of the store is such a search or a
//! single merge walk over the run (`k` = entries stored, `b` = batch
//! size):
//!
//! | operation | cost |
//! |---|---|
//! | `len`, `iter`, `clone`, `shares_storage_with` | O(1) |
//! | `contains`, `contains_key`, the lower bound of `range`, `restricted`, `count_in`, `key_span_in` | a search of the 15 splitters + O(log(k / 16)) in one window |
//! | the upper bound of `range` | a gallop from the lower bound, O(log r) for `r` entries in range |
//! | `intersection_size_with`, `differences`, content `==` | one walk, O(k₁ + k₂) compares, the first in two lanes; the first two none on one piece of a shared run |
//! | `digest` | one walk, O(k), two multiply chains side by side |
//! | `summary` kept in a [`SummaryMemo`] of this run and path | O(1), a pointer comparison |
//! | `summary` under another path, or of another run | a search and the `digest` walk of what the path covers |
//! | `merge_batch` | sort of the batch + one counting walk in two lanes; iff something is new, one writing walk in two lanes into a new run of the union's exact size (and its splitters) |
//! | `split_retain` | two splitter searches + two `memcpy`s |
//! | `from_entries` | sort + dedup, O(k log k) (O(k) on sorted input) |
//! | `insert`, `remove` | binary search + shift, **O(k)** — population and tests only |
//! | first mutation of a shared run | one `memcpy` of the run |
//!
//! A merge walk (`intersection_size_with`, `merge_batch`, `reconcile`) is
//! a chain of steps each waiting for the compare before it to move the
//! cursors, so it runs in two lanes that share no entry — the longer run
//! cut at its middle entry, the other where that entry falls in the
//! `(key, id)` order — stepped in one loop: the CPU overlaps the two chains.
//! Runs of fewer than 32 entries stay one lane.
//!
//! A [`RestrictedView`] is a plain sub-slice of the run: its searches are
//! ordinary binary searches over the few entries of one partition.
//!
//! The run is copy-on-write: [`Clone`] shares it, and so do two replicas
//! after [`crate::replication::reconcile`]; whoever mutates first writes a
//! new run and leaves the other handle untouched.

use crate::key::{DataEntry, DataId, Key};
use crate::path::Path;
use std::cmp::Ordering;
use std::fmt;
use std::ops::Range;
use std::sync::{Arc, Weak};

/// The entries of the ascending `run` covered by `path`.
fn covered<'a>(run: &'a [DataEntry], path: &Path) -> &'a [DataEntry] {
    let (lo, hi) = (path.lower_key(), path.upper_key());
    let from = &run[run.partition_point(|e| e.key < lo)..];
    &from[..from.partition_point(|e| e.key <= hi)]
}

/// An entry's place in the `(key, id)` order as one integer.
fn rank(entry: &DataEntry) -> u128 {
    (u128::from(entry.key.0) << 64) | u128::from(entry.id.0)
}

/// Below this many entries in the longer run a merge walk runs in one lane.
const LANE_MIN: usize = 32;

/// The pieces of two ascending runs that each lane of a merge walk takes.
type Lanes<'a> = [(&'a [DataEntry], &'a [DataEntry]); 2];

/// A merge walk over two lanes that share no entry; returns each lane's
/// entries in common and, with `WRITE`, writes each lane's piece of the
/// union into its `out`.  Both lanes step in one loop, so their two chains
/// of dependent loads and compares overlap; then each runs to its end.
///
/// A step advances the cursors by comparison results instead of branching
/// on them: which piece holds the smaller entry is a coin flip the branch
/// predictor loses about half the time.  A step takes one entry of the
/// union, so `k` steps that read `i + j` entries met `i + j - k` in common.
fn walk<const WRITE: bool>(lanes: Lanes<'_>, mut out: [&mut [DataEntry]; 2]) -> [usize; 2] {
    let (mut i, mut j, mut k) = ([0; 2], [0; 2], [0; 2]);
    let mut step = |l: usize| {
        let (Some(x), Some(y)) = (lanes[l].0.get(i[l]), lanes[l].1.get(j[l])) else {
            return false;
        };
        let (rx, ry) = (rank(x), rank(y));
        if WRITE {
            out[l][k[l]] = if rx <= ry { *x } else { *y };
        }
        i[l] += usize::from(rx <= ry);
        j[l] += usize::from(ry <= rx);
        k[l] += 1;
        true
    };
    while step(0) & step(1) {}
    while step(0) {}
    while step(1) {}
    for (l, out) in out.iter_mut().enumerate().filter(|_| WRITE) {
        // One of the lane's pieces is used up; the other's rest ends it.
        let (a, b) = (&lanes[l].0[i[l]..], &lanes[l].1[j[l]..]);
        out[k[l]..].copy_from_slice(if a.is_empty() { b } else { a });
    }
    [0, 1].map(|l| i[l] + j[l] - k[l])
}

/// The count pass of a merge walk over two ascending runs, kept for the
/// write pass.  The walk runs in two lanes that share no entry: the longer
/// run cut at its middle entry, the other where that entry falls in the
/// `(key, id)` order.
pub(crate) struct Overlap<'a> {
    lanes: Lanes<'a>,
    common: [usize; 2],
}

impl<'a> Overlap<'a> {
    /// Counts what `a` and `b` have in common: no walk at all when both
    /// are the same piece of one shared run (two reconciled replicas
    /// assessing each other again).
    pub(crate) fn of(a: &'a [DataEntry], b: &'a [DataEntry]) -> Overlap<'a> {
        let (a, b) = if a.len() < b.len() { (b, a) } else { (a, b) };
        let (m, n) = match a.get(a.len() / 2) {
            Some(middle) if a.len() >= LANE_MIN => (a.len() / 2, b.partition_point(|e| e < middle)),
            _ => (a.len(), b.len()),
        };
        let lanes = [(&a[..m], &b[..n]), (&a[m..], &b[n..])];
        let common = if std::ptr::eq(a, b) {
            lanes.map(|(a, _)| a.len())
        } else {
            walk::<false>(lanes, [&mut [], &mut []])
        };
        Overlap { lanes, common }
    }

    /// Number of entries in common.
    pub(crate) fn common(&self) -> usize {
        self.common[0] + self.common[1]
    }

    /// A store of the union, written once at its exact size: the second
    /// lane from where the first lane's piece ends.
    pub(crate) fn union(&self) -> KeyStore {
        let [size, rest] =
            [0, 1].map(|l| self.lanes[l].0.len() + self.lanes[l].1.len() - self.common[l]);
        let mut union = vec![DataEntry::new(Key::MIN, DataId(0)); size + rest];
        let (first, second) = union.split_at_mut(size);
        walk::<true>(self.lanes, [first, second]);
        KeyStore::of_run(union)
    }
}

/// Starting states of [`StoreRead::digest`]'s two lanes (the first
/// sixteen bytes of π's fraction).
const DIGEST_SEEDS: [u64; 2] = [0x243F_6A88_85A3_08D3, 0x1319_8A2E_0370_7344];

/// Odd multiplier of [`StoreRead::digest`]'s mixing step (2⁶⁴ / φ).
const DIGEST_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// The digest of an ascending run: keys and ids in two independent lanes,
/// each word folded in by `(h ^ word) · DIGEST_MUL`, rotated.  Every step
/// is a bijection of the lane for a fixed word and of the word for a fixed
/// lane, so two runs of one length that differ only in one key, or only in
/// one id, never share a digest.
fn digest(run: &[DataEntry]) -> u64 {
    let [mut keys, mut ids] = DIGEST_SEEDS;
    keys ^= run.len() as u64;
    for entry in run {
        keys = (keys ^ entry.key.0)
            .wrapping_mul(DIGEST_MUL)
            .rotate_left(31);
        ids = (ids ^ entry.id.0).wrapping_mul(DIGEST_MUL).rotate_left(31);
    }
    keys ^ ids.rotate_left(32)
}

/// The count and [`StoreRead::digest`] of a store's entries under one path
/// (what an exchange offers), and their smallest and largest key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Summary {
    /// Number of entries under the path.
    pub count: usize,
    /// Their digest.
    pub digest: u64,
    /// Their smallest and largest key; `None` when there are none.
    pub span: Option<(Key, Key)>,
}

impl Summary {
    fn of(run: &[DataEntry]) -> Summary {
        Summary {
            count: run.len(),
            digest: digest(run),
            span: run.first().zip(run.last()).map(|(lo, hi)| (lo.key, hi.key)),
        }
    }
}

/// A [`Summary`], the path it was taken under and a weak handle on the run
/// it was taken of, kept by a caller that asks again (a peer, each tick).
/// While the handle lives the run keeps its entries: `Arc::make_mut` moves
/// a run with weak handles rather than change it in place, every other
/// mutator writes a new run, and the allocation is not reused.
#[derive(Default)]
pub struct SummaryMemo {
    taken: Option<(Weak<Run>, Path, Summary)>,
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

    /// The entries covered by the given partition path.
    fn covered(&self, path: &Path) -> &[DataEntry] {
        covered(self.as_slice(), path)
    }

    /// Number of entries covered by the given partition path.
    fn count_in(&self, path: &Path) -> usize {
        self.covered(path).len()
    }

    /// The smallest and largest key stored within `path`, if any.
    ///
    /// A partition whose span is a single point (all stored entries share one
    /// key, e.g. the postings of one very popular index term) cannot be
    /// balanced by bisection; callers use this to detect that case.
    fn key_span_in(&self, path: &Path) -> Option<(Key, Key)> {
        let run = self.covered(path);
        Some((run.first()?.key, run.last()?.key))
    }

    /// Size of the set intersection with another readable store (number of
    /// common entries).
    fn intersection_size_with(&self, other: &impl StoreRead) -> usize {
        Overlap::of(self.as_slice(), other.as_slice()).common()
    }

    /// A 64-bit digest of the entries, word at a time and with no state
    /// beyond the run: equal runs have equal digests on every host and in
    /// every build, and different runs differ but for a 2⁻⁶⁴ chance.  With
    /// [`StoreRead::len`] it is the summary an exchange offers before any
    /// entry is sent.
    fn digest(&self) -> u64 {
        digest(self.as_slice())
    }

    /// Entries of `self` missing in `other`, and of `other` missing in
    /// `self` (what anti-entropy would push each way), both ascending, from
    /// one walk: none, and no walk, when both are the same piece of one
    /// shared run.
    fn differences(&self, other: &impl StoreRead) -> (Vec<DataEntry>, Vec<DataEntry>) {
        let (ours, theirs) = (self.as_slice(), other.as_slice());
        let (mut only_ours, mut only_theirs) = (Vec::new(), Vec::new());
        if std::ptr::eq(ours, theirs) {
            return (only_ours, only_theirs);
        }
        let (mut i, mut j) = (0, 0);
        while let (Some(x), Some(y)) = (ours.get(i), theirs.get(j)) {
            match x.cmp(y) {
                Ordering::Less => only_ours.push(*x),
                Ordering::Greater => only_theirs.push(*y),
                Ordering::Equal => {}
            }
            i += usize::from(x <= y);
            j += usize::from(y <= x);
        }
        only_ours.extend_from_slice(&ours[i..]);
        only_theirs.extend_from_slice(&theirs[j..]);
        (only_ours, only_theirs)
    }
}

/// Number of splitter keys a [`Run`] keeps beside its entries.
const SPLITTERS: usize = 15;

/// Position of splitter `i` in a run of `len` entries: the run cut into
/// `SPLITTERS + 1` windows of (nearly) equal length.  `splitter_at(SPLITTERS,
/// len)` is `len`, the end of the last window.
fn splitter_at(i: usize, len: usize) -> usize {
    (i + 1) * len / (SPLITTERS + 1)
}

/// A sorted run and its splitters, held in the allocation an [`Arc`]
/// handle points at: a search reads the splitters and the entries' header
/// from one place, then binary-searches only the window between two
/// splitters.
#[derive(Clone, Default)]
struct Run {
    /// `splitters[i]` is the key of entry `splitter_at(i, len)`; unused in
    /// a run of at most `2 * SPLITTERS` entries, which is searched
    /// directly.
    splitters: [Key; SPLITTERS],
    /// Invariant: strictly ascending by `(key, id)`.
    entries: Vec<DataEntry>,
}

impl Run {
    fn new(entries: Vec<DataEntry>) -> Run {
        let mut run = Run {
            splitters: [Key::MIN; SPLITTERS],
            entries,
        };
        run.split();
        run
    }

    /// Recomputes the splitters after the entries changed.
    fn split(&mut self) {
        let len = self.entries.len();
        if len > 2 * SPLITTERS {
            for (i, splitter) in self.splitters.iter_mut().enumerate() {
                *splitter = self.entries[splitter_at(i, len)].key;
            }
        }
    }

    /// The window between two neighbouring splitters in which `before`, a
    /// predicate that holds on a prefix of the ascending keys, turns false:
    /// every entry ahead of it satisfies `before`, the entry right after it
    /// does not.  The whole run when it has no splitters.
    fn window(&self, before: impl Fn(Key) -> bool) -> Range<usize> {
        let len = self.entries.len();
        if len <= 2 * SPLITTERS {
            return 0..len;
        }
        let j = self.splitters.partition_point(|&s| before(s));
        let from = j.checked_sub(1).map_or(0, |i| splitter_at(i, len) + 1);
        from..splitter_at(j, len)
    }

    /// The number of leading entries whose key satisfies `before` (what
    /// `partition_point` returns over the whole run).
    fn key_point(&self, before: impl Fn(Key) -> bool) -> usize {
        let window = self.window(&before);
        window.start + self.entries[window].partition_point(|e| before(e.key))
    }

    /// Index bounds of the entries covered by `path`.
    fn path_bounds(&self, path: &Path) -> Range<usize> {
        let (lo, hi) = (path.lower_key(), path.upper_key());
        self.key_point(|k| k < lo)..self.key_point(|k| k <= hi)
    }

    /// The entries covered by `path`.
    fn covered(&self, path: &Path) -> &[DataEntry] {
        &self.entries[self.path_bounds(path)]
    }
}

/// Ordered local store of indexed entries: one sorted, deduplicated run
/// and its splitters behind a copy-on-write [`Arc`] (see the module
/// documentation for the cost of each operation).
///
/// [`Clone`] is an O(1) snapshot sharing the run, and a mutator that
/// changes the content writes a new run instead of touching the shared one,
/// so a snapshot — a durable-journal mirror, a reconciled replica — never
/// observes a later mutation.  A mutator that turns out to change nothing
/// (an all-duplicate batch, a split that gives nothing away) keeps the
/// handle, and with it the sharing.  Use [`KeyStore::shares_storage_with`]
/// to assert sharing and [`KeyStore::deep_clone`] when an eager private copy
/// is wanted.
#[derive(Clone, Default)]
pub struct KeyStore {
    run: Arc<Run>,
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
        KeyStore::of_run(run)
    }

    /// A store holding the strictly ascending `run`.
    fn of_run(run: Vec<DataEntry>) -> KeyStore {
        KeyStore {
            run: Arc::new(Run::new(run)),
        }
    }

    /// Inserts an entry; returns `true` if it was not present before.
    ///
    /// O(k): binary search plus a shift of the tail (and a copy of the run
    /// when it is shared).  Meant for population and tests; anything that
    /// adds more than a few entries goes through [`KeyStore::merge_batch`].
    pub fn insert(&mut self, entry: DataEntry) -> bool {
        match self.run.entries.binary_search(&entry) {
            Ok(_) => false,
            Err(at) => {
                let run = Arc::make_mut(&mut self.run);
                run.entries.insert(at, entry);
                run.split();
                true
            }
        }
    }

    /// Removes an entry; returns `true` if it was present.  O(k), like
    /// [`KeyStore::insert`].
    pub fn remove(&mut self, entry: &DataEntry) -> bool {
        match self.run.entries.binary_search(entry) {
            Ok(at) => {
                let run = Arc::make_mut(&mut self.run);
                run.entries.remove(at);
                run.split();
                true
            }
            Err(_) => false,
        }
    }

    /// An eager private copy that shares no storage with `self`.
    pub fn deep_clone(&self) -> KeyStore {
        KeyStore {
            run: Arc::new((*self.run).clone()),
        }
    }

    /// Whether this store and `other` currently share one underlying run
    /// (true right after a [`Clone`] or a
    /// [`crate::replication::reconcile`], false once either side's content
    /// changed or after [`KeyStore::deep_clone`]).
    pub fn shares_storage_with(&self, other: &KeyStore) -> bool {
        Arc::ptr_eq(&self.run, &other.run)
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.run.entries.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.run.entries.is_empty()
    }

    /// Whether the given entry is stored.
    pub fn contains(&self, entry: &DataEntry) -> bool {
        StoreRead::contains(self, entry)
    }

    /// Whether any entry with the given key is stored.
    pub fn contains_key(&self, key: Key) -> bool {
        let at = self.run.key_point(|k| k < key);
        self.run.entries.get(at).is_some_and(|e| e.key == key)
    }

    /// Iterator over all entries in key order.
    pub fn iter(&self) -> std::slice::Iter<'_, DataEntry> {
        self.run.entries.iter()
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
        let from = &self.run.entries[self.run.key_point(|k| k < lo)..];
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
        let run = self.run.entries.as_slice();
        let keep = self.run.path_bounds(path);
        if keep.len() == run.len() {
            return Vec::new();
        }
        let mut given = Vec::with_capacity(run.len() - keep.len());
        given.extend_from_slice(&run[..keep.start]);
        given.extend_from_slice(&run[keep.end..]);
        *self = KeyStore::of_run(run[keep].to_vec());
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
        let overlap = Overlap::of(&self.run.entries, &entries);
        let new = entries.len() - overlap.common();
        if new > 0 {
            *self = overlap.union();
        }
        new
    }

    /// A borrowed view of this store restricted to the entries covered by
    /// `path`: the sub-slice of the run, located through the splitters.
    pub fn restricted(&self, path: &Path) -> RestrictedView<'_> {
        RestrictedView {
            run: self.covered(path),
        }
    }

    /// The [`Summary`] of the entries covered by `path`: from `memo` if it
    /// was taken of this run under this path (the run is not read), else
    /// walked (the `true`) and kept in `memo`.
    pub fn summary(&self, path: &Path, memo: &mut SummaryMemo) -> (Summary, bool) {
        if let Some((run, at, summary)) = &memo.taken {
            if at == path && std::ptr::eq(run.as_ptr(), Arc::as_ptr(&self.run)) {
                return (*summary, false);
            }
        }
        let summary = Summary::of(self.run.covered(path));
        memo.taken = Some((Arc::downgrade(&self.run), *path, summary));
        (summary, true)
    }

    /// Removes and returns all entries (ascending), leaving the store empty.
    pub fn drain(&mut self) -> Vec<DataEntry> {
        // A snapshot that still shares the run keeps it; we take a copy.
        match Arc::try_unwrap(std::mem::take(&mut self.run)) {
            Ok(run) => run.entries,
            Err(run) => run.entries.clone(),
        }
    }
}

/// Content equality: the splitters follow from the entries.
impl PartialEq for KeyStore {
    fn eq(&self, other: &KeyStore) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for KeyStore {}

impl fmt::Debug for KeyStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KeyStore")
            .field("entries", &self.run.entries)
            .finish()
    }
}

/// The searches go through the run's splitters.
impl StoreRead for KeyStore {
    fn as_slice(&self) -> &[DataEntry] {
        &self.run.entries
    }

    fn contains(&self, entry: &DataEntry) -> bool {
        // Every entry under `entry.key` lies between the two windows.
        let from = self.run.window(|k| k < entry.key).start;
        let to = self.run.window(|k| k <= entry.key).end;
        self.run.entries[from..to].binary_search(entry).is_ok()
    }

    fn covered(&self, path: &Path) -> &[DataEntry] {
        self.run.covered(path)
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
        // also exercise differences
        let missing = b.differences(&a).0;
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
        assert_eq!(a.differences(&b).0.len() + b.len(), 15, "size of the union");
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
        assert_eq!(view_a.differences(&b), a.differences(&b));
        // A view only sees entries inside its bounds.
        let lower = a.restricted(&Path::parse("0"));
        assert_eq!(lower.len(), 3);
        assert!(!lower.contains(&entry(0.6, 3)));
    }
}
