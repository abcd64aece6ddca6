//! Oracle test of `KeyStore`: random operation sequences applied to the
//! sorted-run store and to a `BTreeSet<DataEntry>` model must agree on every
//! query, every return value and every order, after every step — and every
//! snapshot taken along the way must stay what it was when taken.
//!
//! The model answers range and partition queries by filtering on
//! `Path::covers` / key comparisons, so it shares no search logic with the
//! store.  Keys and ids come from small pools, so equal keys with different
//! ids, `Key::MIN`/`Key::MAX`, `DataId(0)`/`DataId(u64::MAX)` (the range
//! sentinels), duplicates and empty stores all occur constantly.
//!
//! The summary an exchange offers — the count and digest of a store's
//! entries under a path — is checked here too: equal exactly when those
//! entries are, blind to everything outside the path, and a recorded
//! constant for a fixed run.  A summary a `SummaryMemo` keeps is checked
//! against a fresh walk after every kind of mutation, and so is the
//! overload test that reads it.
//!
//! The merge walks run in two lanes from 32 entries on; they are checked
//! on runs either side of that threshold, with the second run wholly below
//! or above the first's middle entry, and across one key with many ids.

use pgrid_core::exchange::ExchangeEngine;
use pgrid_core::key::{DataEntry, DataId, Key};
use pgrid_core::path::{Path, MAX_PATH_LEN};
use pgrid_core::peer::PeerState;
use pgrid_core::reference::BalanceParams;
use pgrid_core::replication::reconcile;
use pgrid_core::routing::PeerId;
use pgrid_core::store::{KeyStore, StoreRead, SummaryMemo};
use proptest::prelude::*;
use std::collections::BTreeSet;

type Model = BTreeSet<DataEntry>;

const KEYS: [Key; 12] = [
    Key::MIN,
    Key(1),
    Key(0x2aaa_aaaa_aaaa_aaaa),
    Key(0x3fff_ffff_ffff_ffff),
    Key(0x4000_0000_0000_0000),
    Key(0x7fff_ffff_ffff_ffff),
    Key(0x8000_0000_0000_0000),
    Key(0x8000_0000_0000_0001),
    Key(0xa5a5_a5a5_a5a5_a5a5),
    Key(0xc000_0000_0000_0000),
    Key(0xffff_ffff_ffff_fffe),
    Key::MAX,
];

const IDS: [DataId; 5] = [
    DataId(0),
    DataId(1),
    DataId(7),
    DataId(u64::MAX - 1),
    DataId(u64::MAX),
];

fn key_of(word: u64) -> Key {
    KEYS[(word % KEYS.len() as u64) as usize]
}

fn entry_of(word: u64) -> DataEntry {
    DataEntry::new(
        key_of(word),
        IDS[((word >> 32) % IDS.len() as u64) as usize],
    )
}

/// A path along one of the pool keys: the root, a depth-64 path, or a short
/// one.
fn path_of(word: u64) -> Path {
    let len = match (word >> 8) % 4 {
        0 => 0,
        1 => MAX_PATH_LEN,
        _ => 1 + ((word >> 10) % 6) as usize,
    };
    let key = key_of(word);
    (0..len).fold(Path::root(), |path, i| path.child(key.bit(i)))
}

fn in_path(model: &Model, path: &Path) -> Vec<DataEntry> {
    model
        .iter()
        .copied()
        .filter(|e| path.covers(e.key))
        .collect()
}

fn span(entries: &[DataEntry]) -> Option<(Key, Key)> {
    Some((entries.first()?.key, entries.last()?.key))
}

/// Every read of `store` agrees with `model`; `probe` picks the keys, paths
/// and the second store the binary queries run against.
fn check_agrees(store: &KeyStore, model: &Model, probe: u64, other: &KeyStore) -> TestCaseResult {
    let all: Vec<DataEntry> = model.iter().copied().collect();
    prop_assert_eq!(store.iter().copied().collect::<Vec<_>>(), all.clone());
    prop_assert_eq!(store.as_slice(), all.as_slice());
    prop_assert_eq!(store.len(), model.len());
    prop_assert_eq!(store.is_empty(), model.is_empty());

    let entry = entry_of(probe);
    prop_assert_eq!(store.contains(&entry), model.contains(&entry));
    prop_assert_eq!(
        store.contains_key(entry.key),
        model.iter().any(|e| e.key == entry.key)
    );

    // Inclusive key ranges, including inverted ones (empty).
    let (lo, hi) = (key_of(probe >> 4), key_of(probe >> 12));
    let expected: Vec<DataEntry> = all
        .iter()
        .copied()
        .filter(|e| lo <= e.key && e.key <= hi)
        .collect();
    prop_assert_eq!(store.range(lo, hi).copied().collect::<Vec<_>>(), expected);

    let path = path_of(probe >> 16);
    let covered = in_path(model, &path);
    prop_assert_eq!(store.count_in(&path), covered.len());
    prop_assert_eq!(store.key_span_in(&path), span(&covered));

    // The view is the covered entries, and nested queries stay inside it
    // whether the inner path is below, above or beside the view's.
    let view = store.restricted(&path);
    prop_assert_eq!(view.len(), covered.len());
    prop_assert_eq!(view.entries().copied().collect::<Vec<_>>(), covered.clone());
    prop_assert_eq!(view.contains(&entry), covered.contains(&entry));
    let mut inners = vec![path_of(probe >> 24)];
    if path.len() < MAX_PATH_LEN {
        inners.extend([path.child(false), path.child(true)]);
    }
    for inner in inners {
        let nested: Vec<DataEntry> = covered
            .iter()
            .copied()
            .filter(|e| inner.covers(e.key))
            .collect();
        prop_assert_eq!(view.count_in(&inner), nested.len());
        prop_assert_eq!(view.key_span_in(&inner), span(&nested));
    }

    // Set operations against another store, both ways, whole and viewed.
    let theirs: Model = other.iter().copied().collect();
    let missing: Vec<DataEntry> = model.difference(&theirs).copied().collect();
    let wanted: Vec<DataEntry> = theirs.difference(model).copied().collect();
    prop_assert_eq!(store.differences(other), (missing.clone(), wanted.clone()));
    prop_assert_eq!(other.differences(store), (wanted, missing));
    let common = model.intersection(&theirs).count();
    prop_assert_eq!(store.intersection_size_with(other), common);
    prop_assert_eq!(other.intersection_size_with(store), common);
    let common_in_view = covered.iter().filter(|e| theirs.contains(e)).count();
    prop_assert_eq!(view.intersection_size_with(other), common_in_view);
    let (only_view, only_other) = view.differences(other);
    prop_assert_eq!(only_view.len(), covered.len() - common_in_view);
    prop_assert_eq!(only_other.len(), other.len() - common_in_view);
    Ok(())
}

/// Applies one operation decoded from `words` to both sides and checks
/// every return value.
fn step(
    store: &mut KeyStore,
    model: &mut Model,
    snapshots: &mut Vec<(KeyStore, Model)>,
    words: &mut impl Iterator<Item = u64>,
    op: u64,
) -> TestCaseResult {
    let mut word = || words.next().unwrap_or(0);
    match op % 8 {
        0 => {
            let entry = entry_of(word());
            prop_assert_eq!(store.insert(entry), model.insert(entry));
        }
        1 => {
            let entry = entry_of(word());
            prop_assert_eq!(store.remove(&entry), model.remove(&entry));
        }
        2 => {
            // An unsorted batch with in-batch duplicates and entries that
            // are already stored.
            let mut batch: Vec<DataEntry> = (0..word() % 10).map(|_| entry_of(word())).collect();
            if let Some(&again) = batch.first() {
                batch.push(again);
            }
            batch.extend(model.iter().copied().step_by(3));
            let before = model.len();
            model.extend(batch.iter().copied());
            let shared = store.clone();
            prop_assert_eq!(store.merge_batch(batch), model.len() - before);
            // Nothing new: the handle, and with it the sharing, is kept.
            prop_assert_eq!(store.shares_storage_with(&shared), model.len() == before);
        }
        3 => {
            let path = path_of(word());
            let given: Vec<DataEntry> = model
                .iter()
                .copied()
                .filter(|e| !path.covers(e.key))
                .collect();
            model.retain(|e| path.covers(e.key));
            prop_assert_eq!(store.split_retain(&path), given);
        }
        4 => {
            let all: Vec<DataEntry> = std::mem::take(model).into_iter().collect();
            prop_assert_eq!(store.drain(), all);
        }
        5 => {
            // Clone-then-mutate: every later step runs against a shared run.
            let snapshot = store.clone();
            prop_assert!(snapshot.shares_storage_with(store));
            prop_assert!(!store.deep_clone().shares_storage_with(store));
            snapshots.push((snapshot, model.clone()));
        }
        6 => {
            // Reconcile with a replica built from fresh entries plus part
            // of the store: both end on the union and share it.
            let mut theirs: Model = (0..word() % 8).map(|_| entry_of(word())).collect();
            theirs.extend(model.iter().copied().step_by(2));
            let mut replica: KeyStore = theirs.iter().rev().copied().collect();
            let outcome = reconcile(store, &mut replica);
            prop_assert_eq!(outcome.a_to_b, model.difference(&theirs).count());
            prop_assert_eq!(outcome.b_to_a, theirs.difference(model).count());
            model.extend(theirs);
            prop_assert!(store.shares_storage_with(&replica));
            snapshots.push((replica, model.clone()));
        }
        _ => {
            // Rebuild from unsorted input with duplicates.
            let mut input: Vec<DataEntry> = model.iter().rev().copied().collect();
            input.extend(model.iter().copied().step_by(2));
            prop_assert_eq!(&KeyStore::from_entries(input), &*store);
        }
    }
    Ok(())
}

/// `store`'s summary under `path`, as `memo` keeps it, is the one a fresh
/// walk of the covered entries gives, and a second call takes it from the
/// memo; the overload test on it agrees with
/// `ExchangeEngine::locally_overloaded` on a peer holding `store` at
/// `path`.
fn check_summary(store: &KeyStore, path: &Path, memo: &mut SummaryMemo) -> TestCaseResult {
    let view = store.restricted(path);
    let fresh = (view.len(), view.digest(), store.key_span_in(path));
    let (summary, _) = store.summary(path, memo);
    prop_assert_eq!(
        (path, summary.count, summary.digest, summary.span),
        (path, fresh.0, fresh.1, fresh.2)
    );
    let (again, walked) = store.summary(path, memo);
    prop_assert_eq!(again, summary);
    prop_assert!(
        !walked,
        "an unchanged run under an unchanged path was walked again"
    );
    // Two entries make a partition overloaded, so both answers occur.
    let engine = ExchangeEngine::new(BalanceParams::new(1, 1));
    let peer = PeerState {
        path: *path,
        store: store.clone(),
        ..PeerState::new(PeerId(0), 1)
    };
    prop_assert_eq!(
        engine.overloaded(summary.count, summary.span),
        engine.locally_overloaded(&peer)
    );
    Ok(())
}

/// The number of splitter keys a `KeyStore` run keeps beside its entries;
/// runs of at most twice as many entries are searched without them.
const SPLITTERS: usize = 15;

/// Every keyed query of `store` at `key`, and every partition query along
/// it down to `depth` bits, agrees with `model` — `split_retain` included,
/// on a copy.
fn check_searches(store: &KeyStore, model: &Model, key: Key, depth: usize) -> TestCaseResult {
    prop_assert_eq!(
        (key, store.contains_key(key)),
        (key, model.iter().any(|e| e.key == key))
    );
    let ids = model.iter().filter(|e| e.key == key).map(|e| e.id.0);
    for id in [0, 1, ids.max().unwrap_or(0), u64::MAX] {
        let entry = DataEntry::new(key, DataId(id));
        prop_assert_eq!(
            (entry, store.contains(&entry)),
            (entry, model.contains(&entry))
        );
    }
    check_range(store, model, key, key)?;
    check_range(store, model, Key::MIN, key)?;
    check_range(store, model, key, Key::MAX)?;
    let path = (0..depth).fold(Path::root(), |path, i| path.child(key.bit(i)));
    let covered = in_path(model, &path);
    prop_assert_eq!((path, store.count_in(&path)), (path, covered.len()));
    prop_assert_eq!((path, store.key_span_in(&path)), (path, span(&covered)));
    let view = store.restricted(&path);
    prop_assert_eq!(view.as_slice(), covered.as_slice());
    let mut split = store.clone();
    let given: Vec<DataEntry> = model
        .iter()
        .copied()
        .filter(|e| !path.covers(e.key))
        .collect();
    prop_assert_eq!((path, split.split_retain(&path)), (path, given));
    prop_assert_eq!(split.as_slice(), covered.as_slice());
    Ok(())
}

/// `store.range(lo, hi)` is the model filtered by key, in order.
fn check_range(store: &KeyStore, model: &Model, lo: Key, hi: Key) -> TestCaseResult {
    let expected: Vec<DataEntry> = model
        .iter()
        .copied()
        .filter(|e| lo <= e.key && e.key <= hi)
        .collect();
    let got: Vec<DataEntry> = store.range(lo, hi).copied().collect();
    prop_assert!(
        got == expected,
        "range({lo:?}, {hi:?}) of {} entries",
        model.len()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 96 } else { 2048 }))]

    // `range` on stores the pool above never builds: hundreds of distinct
    // keys (so a bound lies many entries from where a search starts),
    // several ids under one key, empty and one-entry stores — probed with
    // point ranges on present and absent keys, the first and the last key,
    // narrow, full-width and inverted ranges.
    #[test]
    fn range_agrees_with_a_filter_over_the_model(
        shape in any::<u64>(),
        words in proptest::collection::vec(any::<u64>(), 0..48),
    ) {
        let size = match shape % 8 {
            0 => 0,
            1 => 1,
            _ => (shape >> 8) as usize % 700,
        };
        // Fewer distinct keys than entries: up to five ids share a key.
        let n_keys = 1 + (shape >> 24) % (size as u64 / 2 + 1);
        let key_at = |j: u64| match j % n_keys {
            0 if shape & 8 == 0 => Key::MIN,
            1 if shape & 16 == 0 => Key::MAX,
            j => Key(j.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        };
        let model: Model = (0..size as u64)
            .map(|i| {
                let w = (shape ^ i).wrapping_mul(0xD6E8_FEB8_6659_FD93).rotate_left(29);
                DataEntry::new(key_at(w), IDS[((w >> 32) % IDS.len() as u64) as usize])
            })
            .collect();
        let store: KeyStore = model.iter().rev().copied().collect();
        let keys: Vec<Key> = model.iter().map(|e| e.key).collect();

        check_range(&store, &model, Key::MIN, Key::MAX)?;
        check_range(&store, &model, Key::MAX, Key::MIN)?;
        for edge in [keys.first(), keys.last()].into_iter().flatten() {
            check_range(&store, &model, *edge, *edge)?;
            check_range(&store, &model, Key::MIN, *edge)?;
            check_range(&store, &model, *edge, Key::MAX)?;
        }
        for w in words {
            // A stored key (when there is one) and whatever lies next to it.
            let at = keys.get(w as usize % keys.len().max(1)).copied().unwrap_or(Key(w));
            let near = Key(at.0.wrapping_add((w >> 20) % 3).wrapping_sub(1));
            check_range(&store, &model, at, at)?;
            check_range(&store, &model, near, near)?;
            check_range(&store, &model, Key(w), Key(w))?;
            // From it to a key a few entries on, and to anywhere at all.
            let on = keys.get(w as usize % keys.len().max(1) + (w >> 40) as usize % 9);
            let on = on.copied().unwrap_or(Key::MAX);
            check_range(&store, &model, at, on)?;
            check_range(&store, &model, near, on)?;
            check_range(&store, &model, on, at)?;
            check_range(&store, &model, at.min(Key(w)), at.max(Key(w)))?;
        }
    }

    // Every search on runs from empty to 8x the splitter count, so both
    // the direct search and the splitter windows are taken, over wide keys
    // with one key repeated for up to the whole run: splitters then equal
    // one another and the probe key.  Probes are every stored key and its
    // neighbours, the repeated key and random keys; partition paths run
    // along each of them down to every depth, 64 bits included.
    #[test]
    fn searches_agree_with_the_model_across_the_splitter_threshold(
        shape in any::<u64>(),
        probes in proptest::collection::vec(any::<u64>(), 0..16),
    ) {
        let size = (shape % (8 * SPLITTERS as u64 + 1)) as usize;
        let repeated = match (shape >> 8) % 4 {
            0 => Key::MIN,
            1 => Key::MAX,
            _ => Key(shape.rotate_left(17)),
        };
        let copies = (shape >> 12) as usize % (size + 1);
        let model: Model = (0..size as u64)
            .map(|i| {
                let w = (shape ^ i).wrapping_mul(0xD6E8_FEB8_6659_FD93).rotate_left(29);
                let key = if (i as usize) < copies { repeated } else { Key(w) };
                DataEntry::new(key, DataId(if w & 3 == 0 { 0 } else { i }))
            })
            .collect();
        let store: KeyStore = model.iter().rev().copied().collect();
        let depth_of = |w: u64| match w % 4 {
            0 => 0,
            1 => MAX_PATH_LEN,
            _ => (w >> 2) as usize % (MAX_PATH_LEN + 1),
        };

        let stored: BTreeSet<Key> = model.iter().map(|e| e.key).collect();
        for (i, &key) in stored.iter().enumerate() {
            let w = shape.rotate_left(i as u32);
            for near in [key.0.wrapping_sub(1), key.0, key.0.wrapping_add(1)] {
                check_searches(&store, &model, Key(near), depth_of(w))?;
            }
        }
        check_searches(&store, &model, repeated, MAX_PATH_LEN)?;
        for w in probes {
            check_searches(&store, &model, Key(w), depth_of(w))?;
            check_searches(&store, &model, repeated, depth_of(w))?;
        }
    }

    // The summary an exchange offers — count and digest of the entries
    // under a path — is equal for two stores exactly when their entries
    // under that path are, whatever either holds outside it.  Small pools
    // make equal windows (empty ones, and ones the two draws share) as
    // common as different ones.
    #[test]
    fn summaries_are_equal_iff_the_restricted_windows_are(
        a in proptest::collection::vec(any::<u64>(), 0..40),
        b in proptest::collection::vec(any::<u64>(), 0..40),
        outside in proptest::collection::vec(any::<u64>(), 0..12),
        probe in any::<u64>(),
    ) {
        let path = path_of(probe);
        let store_a: KeyStore = a.iter().map(|&w| entry_of(w)).collect();
        let shared = (probe >> 40) as usize % (b.len() + 1);
        let store_b: KeyStore = a.iter().take(shared).chain(&b).map(|&w| entry_of(w)).collect();
        let summary = |store: &KeyStore| {
            let window = store.restricted(&path);
            (window.len(), window.digest())
        };
        let (view_a, view_b) = (store_a.restricted(&path), store_b.restricted(&path));
        prop_assert_eq!(
            summary(&store_a) == summary(&store_b),
            view_a.as_slice() == view_b.as_slice()
        );
        // The view's digest is the digest of a store of its entries alone.
        let alone = KeyStore::from_entries(view_a.as_slice().to_vec());
        prop_assert_eq!(view_a.digest(), alone.digest());
        prop_assert_eq!(alone.restricted(&path).digest(), alone.digest());
        // Entries outside the path leave the summary where it was.
        let mut widened = store_a.clone();
        widened.merge_batch(
            outside
                .iter()
                .map(|&w| entry_of(w))
                .filter(|e| !path.covers(e.key))
                .collect(),
        );
        prop_assert_eq!(summary(&widened), summary(&store_a));
    }

    #[test]
    fn key_store_agrees_with_a_btree_set_model(
        words in proptest::collection::vec(any::<u64>(), 0..160),
    ) {
        let mut store = KeyStore::new();
        let mut model = Model::new();
        let mut snapshots: Vec<(KeyStore, Model)> = Vec::new();
        check_agrees(&store, &model, 0, &KeyStore::new())?;

        let mut words = words.into_iter();
        while let Some(op) = words.next() {
            step(&mut store, &mut model, &mut snapshots, &mut words, op)?;
            let probe = op >> 3;
            let other = match snapshots.last() {
                Some((snapshot, _)) if probe % 2 == 0 => snapshot.clone(),
                _ => (0..probe % 6).map(|i| entry_of(probe.rotate_left(7 * i as u32))).collect(),
            };
            check_agrees(&store, &model, probe, &other)?;
            for (snapshot, frozen) in &snapshots {
                prop_assert!(snapshot.iter().eq(frozen.iter()), "a snapshot changed");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 96 } else { 2048 }))]

    // The model test's operation script — inserts and removes with and
    // without a live snapshot, merges, splits, drains, reconciliations that
    // leave two stores on one run — runs between summaries a memo keeps;
    // the path moves now and then over a run that did not change.  After
    // every step the store's memo and each snapshot's own memo hold a fresh
    // walk's summary.
    #[test]
    fn a_memoised_summary_is_the_summary_of_a_fresh_walk(
        words in proptest::collection::vec(any::<u64>(), 0..160),
    ) {
        let mut store = KeyStore::new();
        let mut model = Model::new();
        let mut snapshots: Vec<(KeyStore, Model)> = Vec::new();
        let mut memos: Vec<SummaryMemo> = Vec::new();
        let mut memo = SummaryMemo::default();
        let mut path = Path::root();
        let mut words = words.into_iter();
        while let Some(op) = words.next() {
            store.summary(&path, &mut memo);
            match op >> 3 & 7 {
                0 => path = path_of(op >> 6),
                // Later in-place mutations find the run unshared again.
                1 => snapshots.clear(),
                _ => {}
            }
            step(&mut store, &mut model, &mut snapshots, &mut words, op)?;
            check_summary(&store, &path, &mut memo)?;
            memos.resize_with(snapshots.len(), SummaryMemo::default);
            for ((snapshot, _), memo) in snapshots.iter().zip(&mut memos) {
                check_summary(snapshot, &path, memo)?;
            }
        }
    }
}

/// The digest is a function of the entries alone, the same on every host
/// and in every build: two cluster workers compare digests they computed
/// apart.
#[test]
fn the_digest_of_a_fixed_run_is_a_recorded_constant() {
    let run: KeyStore = (0..100u64)
        .map(|i| DataEntry::new(Key(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)), DataId(i)))
        .collect();
    assert_eq!(KeyStore::new().digest(), 2_832_511_057_132_159_741);
    assert_eq!(run.digest(), 15_231_554_653_249_240_117);
    let lower = Path::root().child(false);
    assert_eq!(run.restricted(&lower).len(), 51);
    assert_eq!(run.restricted(&lower).digest(), 4_400_146_484_834_906_285);
}

/// Below this many entries in the longer run a merge walk runs in one lane;
/// from it on, the walk cuts the longer run at its middle entry.
const LANE_MIN: usize = 32;

/// Two sets of up to `8 * LANE_MIN` entries each, of the shape `shape`
/// picks: overlapping; all of `b` below `a`'s middle entry, or all of it at
/// or above (`a` the longer, so that entry is where the walk cuts);
/// identical; disjoint but interleaved; or nearly all under one key with
/// different ids.
fn lane_case(shape: u64, words: &[u64]) -> (Model, Model) {
    let spread = |w: u64, ids: u64| {
        DataEntry::new(
            Key((w % 4096).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            DataId(w >> 48 & ids),
        )
    };
    let (len_a, len_b) = (
        (shape >> 8) as usize % (8 * LANE_MIN + 1),
        (shape >> 20) as usize % (8 * LANE_MIN + 1),
    );
    let (left, right) = words.split_at(words.len() / 2);
    let a: Model = left.iter().take(len_a).map(|&w| spread(w, 3)).collect();
    let b: Model = right.iter().take(len_b).map(|&w| spread(w, 3)).collect();
    let middle = a.iter().nth(a.len() / 2).copied();
    let below = |e: &DataEntry| middle.is_some_and(|m| *e < m);
    match shape % 6 {
        0 => {
            let shared = a.iter().step_by(1 + (shape >> 32) as usize % 4).copied();
            (a.clone(), b.into_iter().chain(shared).collect())
        }
        kind @ (1 | 2) => {
            // `b` is no longer than `a`, so the walk cuts at `a`'s middle.
            let side: Model = a
                .iter()
                .chain(&b)
                .filter(|e| below(e) == (kind == 1))
                .copied()
                .collect();
            let b = side.into_iter().step_by(2).take(a.len()).collect();
            (a, b)
        }
        3 => (a.clone(), a),
        4 => {
            let odd = |w: u64| DataEntry::new(Key((w % 64) << 58), DataId(2 * (w >> 48) + 1));
            let even = |w: u64| DataEntry::new(Key((w % 64) << 58), DataId(2 * (w >> 48)));
            (
                left.iter().take(len_a).map(|&w| even(w)).collect(),
                right.iter().take(len_b).map(|&w| odd(w)).collect(),
            )
        }
        _ => {
            // Ids under one key, so the cut falls inside it; a few other keys.
            let one_key = |w: u64| match w % 16 {
                0 => spread(w, 3),
                _ => DataEntry::new(Key(0x8000_0000_0000_0000), DataId(w >> 32 & 0x1ff)),
            };
            (
                left.iter().take(len_a).map(|&w| one_key(w)).collect(),
                right.iter().take(len_b).map(|&w| one_key(w)).collect(),
            )
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 96 } else { 2048 }))]

    // The two-lane merge walks — the count behind `intersection_size_with`,
    // `merge_batch`'s and `reconcile`'s returned counts, and the union they
    // write — against the model, both ways round, on runs from empty to 8x
    // the lane threshold; and the sharing `reconcile` leaves behind.
    #[test]
    fn merge_walks_agree_with_the_model_across_the_lane_cut(
        shape in any::<u64>(),
        words in proptest::collection::vec(any::<u64>(), 0..16 * LANE_MIN + 2),
    ) {
        let (a, b) = lane_case(shape, &words);
        for (x, y) in [(&a, &b), (&b, &a)] {
            let union: Vec<DataEntry> = x.union(y).copied().collect();
            let (only_x, only_y) = (x.difference(y).count(), y.difference(x).count());
            let common = x.intersection(y).count();
            let store_x: KeyStore = x.iter().copied().collect();
            let store_y: KeyStore = y.iter().rev().copied().collect();
            prop_assert_eq!(store_x.intersection_size_with(&store_y), common);
            prop_assert_eq!(store_x.restricted(&Path::root()).intersection_size_with(&store_y), common);

            // The batch unsorted and with duplicates, as it arrives.
            let mut merged = store_x.clone();
            let batch = y.iter().rev().chain(y.iter().step_by(3)).copied().collect();
            prop_assert_eq!(merged.merge_batch(batch), only_y);
            prop_assert_eq!(merged.as_slice(), union.as_slice());
            prop_assert_eq!(merged.shares_storage_with(&store_x), only_y == 0);

            let (mut first, mut second) = (store_x.clone(), store_y.clone());
            let outcome = reconcile(&mut first, &mut second);
            prop_assert_eq!((outcome.a_to_b, outcome.b_to_a), (only_x, only_y));
            prop_assert_eq!(first.as_slice(), union.as_slice());
            prop_assert!(first.shares_storage_with(&second));
            // A side that missed nothing kept its run; only when both
            // missed something is a new run written.
            prop_assert_eq!(first.shares_storage_with(&store_x), only_y == 0);
            prop_assert_eq!(second.shares_storage_with(&store_y), only_x == 0 && only_y > 0);
            // Reconciled again, the shared run has nothing to move.
            prop_assert_eq!(reconcile(&mut first, &mut second).total_transferred(), 0);
            prop_assert_eq!(first.intersection_size_with(&second), union.len());
        }
    }
}
