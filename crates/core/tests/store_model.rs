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

use pgrid_core::key::{DataEntry, DataId, Key};
use pgrid_core::path::{Path, MAX_PATH_LEN};
use pgrid_core::replication::reconcile;
use pgrid_core::store::{KeyStore, StoreRead};
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
    prop_assert_eq!(store.missing_in(other), missing);
    let wanted: Vec<DataEntry> = theirs.difference(model).copied().collect();
    prop_assert_eq!(other.missing_in(store), wanted);
    let common = model.intersection(&theirs).count();
    prop_assert_eq!(store.intersection_size_with(other), common);
    prop_assert_eq!(other.intersection_size_with(store), common);
    let common_in_view = covered.iter().filter(|e| theirs.contains(e)).count();
    prop_assert_eq!(view.intersection_size_with(other), common_in_view);
    prop_assert_eq!(view.missing_in(other).len(), covered.len() - common_in_view);
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
