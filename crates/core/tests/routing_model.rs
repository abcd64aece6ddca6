//! Oracle test of `RoutingTable`: random `add` scripts replayed on the
//! fixed-slot table and on a `Vec<Vec<RoutingEntry>>` reference (the table
//! as it was kept before the levels moved into fixed slots) must agree on
//! every level, on the iteration order and the length the iteration
//! reports, on the number of levels and on the random stream, after every
//! step.
//!
//! Levels 0–12 are drawn with a bias towards the first three, and peers
//! come from a pool of nine, so duplicate references, full levels (and
//! with them victim draws) and jumps to a deeper level all occur
//! constantly.

use pgrid_core::path::Path;
use pgrid_core::routing::{PeerId, RoutingEntry, RoutingTable, FANOUT};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The reference table: one `Vec` per level, with the `add` the fixed-slot
/// table replaced.
struct Reference {
    levels: Vec<Vec<RoutingEntry>>,
    fanout: usize,
}

impl Reference {
    fn add<R: Rng + ?Sized>(&mut self, level: usize, entry: RoutingEntry, rng: &mut R) {
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
}

/// The level and reference one script word adds: a path one bit deeper
/// than the level, its bits taken from the word.
fn decode(word: u64) -> (usize, RoutingEntry) {
    let level = if word & 1 == 0 {
        (word >> 1) as usize % 3
    } else {
        (word >> 1) as usize % 13
    };
    let path = (0..=level).fold(Path::root(), |p, i| p.child(word >> (20 + i) & 1 == 1));
    let entry = RoutingEntry {
        peer: PeerId((word >> 8) % 9),
        path,
    };
    (level, entry)
}

/// Both tables hold the same references in the same places, and both
/// random streams are at the same point.
fn check_agrees(
    table: &RoutingTable,
    reference: &Reference,
    table_rng: &StdRng,
    reference_rng: &StdRng,
) -> TestCaseResult {
    prop_assert_eq!(table.num_levels(), reference.levels.len());
    for level in 0..14 {
        let expected = reference.levels.get(level).map_or(&[][..], Vec::as_slice);
        prop_assert_eq!((level, table.level(level)), (level, expected));
    }
    let got: Vec<(usize, RoutingEntry)> = table.entries().map(|(l, e)| (l, *e)).collect();
    let expected: Vec<(usize, RoutingEntry)> = reference
        .levels
        .iter()
        .enumerate()
        .flat_map(|(l, refs)| refs.iter().map(move |e| (l, *e)))
        .collect();
    // The walk knows how many references it has left, at every step.
    let mut walk = table.entries();
    for left in (0..=expected.len()).rev() {
        prop_assert_eq!(walk.len(), left);
        prop_assert_eq!(walk.next().is_some(), left > 0);
    }
    prop_assert_eq!(got, expected);
    prop_assert_eq!(
        table_rng.clone().gen::<u64>(),
        reference_rng.clone().gen::<u64>()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 96 } else { 2048 }))]

    #[test]
    fn routing_table_agrees_with_a_vec_of_vecs_reference(
        seed in any::<u64>(),
        words in proptest::collection::vec(any::<u64>(), 0..200),
    ) {
        let fanout = 1 + (seed % FANOUT as u64) as usize;
        let mut table = RoutingTable::new(fanout);
        let mut reference = Reference { levels: Vec::new(), fanout };
        let mut table_rng = StdRng::seed_from_u64(seed);
        let mut reference_rng = StdRng::seed_from_u64(seed);
        check_agrees(&table, &reference, &table_rng, &reference_rng)?;
        for word in words {
            let (level, entry) = decode(word);
            table.add(level, entry, &mut table_rng);
            reference.add(level, entry, &mut reference_rng);
            check_agrees(&table, &reference, &table_rng, &reference_rng)?;
        }
        prop_assert_eq!(&table.clone(), &table);
    }
}
