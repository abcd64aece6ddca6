//! Structural replication support: estimating the number of replicas of a
//! partition from key-set overlap and reconciling replica contents.
//!
//! During construction peers must estimate how many peers are currently
//! associated with their partition in order to decide whether a further
//! split is justified (Algorithm 1 needs both the data load and the peer
//! count).  Learning the exact replica set would serialise the process, so
//! the paper instead estimates the replica count from the overlap of the key
//! sets of two interacting peers (Section 4.2): initially every key is
//! replicated `n_min` times, so sparse overlap between two random replicas
//! indicates that the partition's keys are spread over many peers.
//!
//! Reconciled replicas hold the same set, so [`reconcile`] leaves them
//! holding the same *storage*: one walk over the two sorted runs says what
//! each side misses, the union is written at most once, and both
//! [`KeyStore`]s end up as copy-on-write handles on it.  A partition
//! replicated `m` times therefore costs one run, not `m`, until a replica's
//! content next changes — and that replica then writes its own new run,
//! leaving the others' untouched.

use crate::store::{KeyStore, StoreRead};

/// Estimates the number of peers associated with the current partition from
/// the key sets of two interacting peers.
///
/// Model: the partition holds `D` distinct entries, each replicated
/// `replication` times over `m` peers, so a peer holds on average
/// `D * replication / m` entries and two random peers share
/// `|K1| * |K2| / D` entries in expectation.  Solving for `m` with
/// `D = |K1| * |K2| / |K1 ∩ K2|` and the average peer holding
/// `(|K1| + |K2|) / 2` entries gives
///
/// ```text
/// m ≈ 2 * replication * |K1| * |K2| / (|K1 ∩ K2| * (|K1| + |K2|))
/// ```
///
/// Sanity check (the example given in the paper): for two exact replicas
/// (`K1 == K2`) the estimate is exactly `replication`, as desired.  A
/// disjoint pair yields `+∞` (the overlap carries no evidence of a small
/// replica group), which callers should clamp.
///
/// Returns `None` when either store is empty (no information).
pub fn estimate_replica_count(a: &KeyStore, b: &KeyStore, replication: usize) -> Option<f64> {
    if a.is_empty() || b.is_empty() {
        return None;
    }
    let overlap = a.intersection_size_with(b);
    let (ka, kb) = (a.len() as f64, b.len() as f64);
    if overlap == 0 {
        return Some(f64::INFINITY);
    }
    Some(2.0 * replication as f64 * ka * kb / (overlap as f64 * (ka + kb)))
}

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
    let common = a.intersection_size_with(b);
    let outcome = ReconcileOutcome {
        a_to_b: a.len() - common,
        b_to_a: b.len() - common,
    };
    if outcome.b_to_a > 0 {
        if outcome.a_to_b == 0 {
            *a = b.clone();
        } else {
            a.merge_run(b.as_slice(), outcome.b_to_a);
        }
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
    fn identical_replicas_estimate_exactly_replication() {
        let a = store(0..50);
        let b = store(0..50);
        let est = estimate_replica_count(&a, &b, 5).unwrap();
        assert!((est - 5.0).abs() < 1e-9);
    }

    #[test]
    fn half_overlap_estimates_more_peers() {
        let a = store(0..100);
        let b = store(50..150);
        let est = estimate_replica_count(&a, &b, 5).unwrap();
        assert!(
            est > 5.0,
            "estimate {est} should exceed the replication factor"
        );
        assert!(est.is_finite());
    }

    #[test]
    fn disjoint_stores_yield_infinite_estimate() {
        let a = store(0..50);
        let b = store(500..550);
        assert_eq!(estimate_replica_count(&a, &b, 5), Some(f64::INFINITY));
    }

    #[test]
    fn empty_store_gives_no_estimate() {
        let a = KeyStore::new();
        let b = store(0..10);
        assert_eq!(estimate_replica_count(&a, &b, 5), None);
        assert_eq!(estimate_replica_count(&b, &a, 5), None);
    }

    #[test]
    fn estimate_scales_inversely_with_overlap() {
        // Fixed store sizes, shrinking overlap => growing estimate.
        let a = store(0..100);
        let mut last = 0.0;
        for shift in [0u64, 20, 40, 60, 80] {
            let b = store(shift..shift + 100);
            let est = estimate_replica_count(&a, &b, 5).unwrap();
            assert!(est >= last, "estimate must grow as overlap shrinks");
            last = est;
        }
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
