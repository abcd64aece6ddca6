//! Structural replication support: reconciling replica contents.
//!
//! During construction peers must estimate how many peers are currently
//! associated with their partition in order to decide whether a further
//! split is justified (Algorithm 1 needs both the data load and the peer
//! count).  That estimate lives in
//! [`ExchangeEngine::assess`](crate::exchange::ExchangeEngine::assess)
//! (`m̂ = n_min · D̂ / delta_max`); this module keeps [`reconcile`], the
//! anti-entropy exchange between two replicas of one partition.
//!
//! Reconciled replicas hold the same set, so [`reconcile`] leaves them
//! holding the same *storage*: a counting walk over the two sorted runs
//! says what each side misses, a writing walk makes the union at most
//! once (both in two lanes, see [`crate::store`]), and both
//! [`KeyStore`]s end up as copy-on-write handles on it.  A partition
//! replicated `m` times therefore costs one run, not `m`, until a replica's
//! content next changes — and that replica then writes its own new run,
//! leaving the others' untouched.

use crate::store::{KeyStore, Overlap, StoreRead};

/// Outcome of an anti-entropy exchange between two replicas.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReconcileOutcome {
    /// Entries shipped from the first to the second peer.
    pub a_to_b: usize,
    /// Entries shipped from the second to the first peer.
    pub b_to_a: usize,
}

impl ReconcileOutcome {
    /// Total entries moved over the network.
    pub fn total_transferred(&self) -> usize {
        self.a_to_b + self.b_to_a
    }
}

/// Performs a symmetric anti-entropy reconciliation between two replica
/// stores ("possibility 2" of Figure 2): afterwards both stores hold the
/// union of the two original key sets.  Returns how many entries travelled
/// in each direction, which the simulators account as bandwidth.
///
/// Afterwards `a.shares_storage_with(b)`: a side that missed nothing keeps
/// its run and the other side takes a handle on it; only when both miss
/// something is a new run (the union) written, once.
pub fn reconcile(a: &mut KeyStore, b: &mut KeyStore) -> ReconcileOutcome {
    let overlap = Overlap::of(a.as_slice(), b.as_slice());
    let outcome = ReconcileOutcome {
        a_to_b: a.len() - overlap.common(),
        b_to_a: b.len() - overlap.common(),
    };
    if outcome.b_to_a > 0 {
        *a = if outcome.a_to_b == 0 {
            b.clone()
        } else {
            overlap.union()
        };
    }
    *b = a.clone();
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::{DataEntry, DataId, Key};

    fn entry(i: u64) -> DataEntry {
        DataEntry::new(Key::from_fraction(i as f64 / 1000.0), DataId(i))
    }

    fn store(range: std::ops::Range<u64>) -> KeyStore {
        range.map(entry).collect()
    }

    #[test]
    fn reconcile_unions_both_stores() {
        let mut a = store(0..60);
        let mut b = store(40..100);
        let out = reconcile(&mut a, &mut b);
        assert_eq!(out.a_to_b, 40); // entries 0..40
        assert_eq!(out.b_to_a, 40); // entries 60..100
        assert_eq!(out.total_transferred(), 80);
        assert_eq!(a.len(), 100);
        assert_eq!(b.len(), 100);
        assert_eq!(a, b);
        // reconciling again moves nothing
        let out2 = reconcile(&mut a, &mut b);
        assert_eq!(out2.total_transferred(), 0);
    }

    #[test]
    fn reconciled_replicas_share_one_run_in_every_case() {
        // (a, b, a_to_b, b_to_a): equal / a ⊇ b / a ⊆ b / both miss something.
        for (range_a, range_b, a_to_b, b_to_a) in [
            (0..50, 0..50, 0, 0),
            (0..50, 10..30, 30, 0),
            (10..30, 0..50, 0, 30),
            (0..60, 40..100, 40, 40),
        ] {
            let (mut a, mut b) = (store(range_a.clone()), store(range_b.clone()));
            let (before_a, before_b) = (a.clone(), b.clone());
            let union: KeyStore = range_a.clone().chain(range_b.clone()).map(entry).collect();
            assert!(!a.shares_storage_with(&b));

            let out = reconcile(&mut a, &mut b);
            assert_eq!(out, ReconcileOutcome { a_to_b, b_to_a });
            assert!(a.shares_storage_with(&b), "{range_a:?} / {range_b:?}");
            assert_eq!(a, union);
            // A side that missed nothing kept its run.
            assert_eq!(a.shares_storage_with(&before_a), b_to_a == 0);
            assert_eq!(b.shares_storage_with(&before_b), a_to_b == 0 && b_to_a > 0);

            // Mutating one replica afterwards leaves the other untouched.
            assert!(a.insert(entry(500)));
            assert!(!a.shares_storage_with(&b));
            assert_eq!(b, union);
            let given = b.split_retain(&crate::path::Path::parse("1"));
            assert_eq!(given.len(), union.len());
            assert_eq!(a.len(), union.len() + 1);
        }
    }
}
