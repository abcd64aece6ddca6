//! Query evaluation on a constructed overlay, with the deployment's routing
//! step (`pgrid_core::route`) driven by `pgrid_core::search`.
//!
//! Used for the search-performance statistics of Section 5.2: number of
//! query hops (≈ half the mean path length), success rate (95–100% even
//! under churn), and range-query behaviour.

use crate::construction::ConstructedOverlay;
use pgrid_core::histogram::LogHistogram;
use pgrid_core::routing::PeerId;
use pgrid_core::search::{lookup, range_query};
use pgrid_workload::queries::Query;
use rand::Rng;

/// Aggregated statistics of a query batch.  Hops go into a fixed-memory
/// [`LogHistogram`], so arbitrarily large batches cannot grow the stats
/// without bound.
#[derive(Clone, Debug, Default)]
pub struct QueryStats {
    /// Queries issued.
    pub issued: usize,
    /// Lookups that returned entries and range queries that completed.
    pub successful: usize,
    /// Hop distribution over all queries.
    pub hops: LogHistogram,
}

impl QueryStats {
    /// Fraction of successful queries.
    pub fn success_rate(&self) -> f64 {
        if self.issued == 0 {
            return 0.0;
        }
        self.successful as f64 / self.issued as f64
    }
}

/// The online peers of the overlay, ascending.
fn online_peers(overlay: &ConstructedOverlay) -> Vec<usize> {
    (0..overlay.peers.len())
        .filter(|&i| overlay.peers[i].online)
        .collect()
}

/// Runs a batch of queries against the overlay, each starting from a random
/// online peer.  A lookup counts as successful when entries come back; a
/// range query when the traversal completes.
pub fn run_queries<R: Rng + ?Sized>(
    overlay: &ConstructedOverlay,
    queries: &[Query],
    rng: &mut R,
) -> QueryStats {
    let online = online_peers(overlay);
    let mut stats = QueryStats::default();
    if online.is_empty() {
        stats.issued = queries.len();
        return stats;
    }
    for query in queries {
        let start = PeerId(online[rng.gen_range(0..online.len())] as u64);
        stats.issued += 1;
        let (hops, success) = match query {
            Query::Lookup(key) => {
                let res = lookup(&overlay.peers, start, *key, rng);
                (res.hops, res.is_success())
            }
            Query::Range(lo, hi) => {
                let res = range_query(&overlay.peers, start, *lo, *hi, rng);
                (res.hops, res.complete)
            }
        };
        stats.hops.record(hops as u64);
        stats.successful += usize::from(success);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::construction::construct;
    use pgrid_workload::queries::{generate_queries, QueryWorkloadConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn overlay() -> ConstructedOverlay {
        construct(&SimConfig {
            n_peers: 128,
            seed: 11,
            ..SimConfig::default()
        })
    }

    /// `count` lookups of keys the overlay stores.
    fn stored_lookups(overlay: &ConstructedOverlay, count: usize, rng: &mut StdRng) -> Vec<Query> {
        let keys: Vec<_> = overlay.original_entries.iter().map(|e| e.key).collect();
        let config = QueryWorkloadConfig {
            count,
            range_fraction: 0.0,
            existing_fraction: 1.0,
            ..QueryWorkloadConfig::default()
        };
        generate_queries(&config, &keys, rng)
    }

    #[test]
    fn lookups_succeed_on_a_healthy_overlay() {
        let overlay = overlay();
        let mut rng = StdRng::seed_from_u64(1);
        let queries = stored_lookups(&overlay, 300, &mut rng);
        let stats = run_queries(&overlay, &queries, &mut rng);
        assert_eq!(stats.issued, 300);
        assert!(
            stats.success_rate() > 0.95,
            "success {}",
            stats.success_rate()
        );
        assert!(stats.hops.mean() <= overlay.mean_depth() + 1.0);
    }

    #[test]
    fn mean_hops_is_about_half_the_mean_path_length() {
        // Section 5.2: "the number of query hops per query is approx. half
        // of the mean path length".
        let overlay = overlay();
        let mut rng = StdRng::seed_from_u64(2);
        let queries = stored_lookups(&overlay, 500, &mut rng);
        let stats = run_queries(&overlay, &queries, &mut rng);
        let ratio = stats.hops.mean() / overlay.mean_depth().max(1e-9);
        assert!(
            ratio > 0.25 && ratio < 0.95,
            "hops/path ratio {ratio} outside the expected band"
        );
    }

    #[test]
    fn range_queries_collect_entries_in_order() {
        let overlay = overlay();
        let mut rng = StdRng::seed_from_u64(3);
        let queries = vec![Query::Range(
            pgrid_core::key::Key::from_fraction(0.2),
            pgrid_core::key::Key::from_fraction(0.4),
        )];
        let stats = run_queries(&overlay, &queries, &mut rng);
        assert_eq!(stats.issued, 1);
        assert!(stats.successful == 1, "range query should complete");
    }

    #[test]
    fn hop_accounting_is_bounded() {
        let overlay = overlay();
        let mut rng = StdRng::seed_from_u64(7);
        let queries = stored_lookups(&overlay, 356, &mut rng);
        let stats = run_queries(&overlay, &queries, &mut rng);
        assert_eq!(stats.issued, 356);
        // The fixed-memory histogram sees every query.
        assert_eq!(stats.hops.total() as usize, stats.issued);
        assert!(stats.hops.mean() <= stats.hops.max() as f64);
    }

    mod range_parity {
        use super::*;
        use pgrid_core::key::Key;
        use proptest::prelude::*;
        use std::sync::OnceLock;

        /// One shared overlay for all proptest cases (construction is the
        /// expensive part; the properties only read it).
        fn shared_overlay() -> &'static ConstructedOverlay {
            static OVERLAY: OnceLock<ConstructedOverlay> = OnceLock::new();
            OVERLAY.get_or_init(|| {
                construct(&SimConfig {
                    n_peers: 128,
                    seed: 11,
                    ..SimConfig::default()
                })
            })
        }

        /// The corpus keys in `[lo, hi]` that *every* online covering
        /// replica stores.  On an emergent overlay replicas may diverge, so
        /// this — not the full corpus slice — is the provable completeness
        /// bound of a single-replica-per-partition range walk.
        fn certainly_stored(overlay: &ConstructedOverlay, lo: Key, hi: Key) -> Vec<Key> {
            overlay
                .original_entries
                .iter()
                .map(|e| e.key)
                .filter(|&k| lo <= k && k <= hi)
                .filter(|&k| {
                    overlay
                        .peers
                        .iter()
                        .filter(|p| p.online && p.path.covers(k))
                        .all(|p| p.store.contains_key(k))
                })
                .collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            // Parity against brute force on the emergent overlay: sound
            // (nothing outside the corpus slice) and complete up to the
            // certainty bound (every key all covering replicas hold).
            #[test]
            fn prop_sim_range_matches_brute_force(
                a in 0.0f64..1.0,
                b in 0.0f64..1.0,
                start in 0usize..128,
                rng_seed in any::<u64>(),
            ) {
                let overlay = shared_overlay();
                let (lo, hi) = (
                    Key::from_fraction(a.min(b)),
                    Key::from_fraction(a.max(b)),
                );
                let mut rng = StdRng::seed_from_u64(rng_seed);
                let res = range_query(&overlay.peers, PeerId(start as u64), lo, hi, &mut rng);
                prop_assert!(res.complete, "healthy overlay walk must complete");
                // Soundness: every returned entry is a corpus entry inside
                // the requested bounds, in key order without duplicates.
                let corpus: std::collections::BTreeSet<_> =
                    overlay.original_entries.iter().copied().collect();
                for entry in &res.entries {
                    prop_assert!(lo <= entry.key && entry.key <= hi);
                    prop_assert!(corpus.contains(entry), "unknown entry {entry:?}");
                }
                prop_assert!(res.entries.windows(2).all(|w| w[0] < w[1]));
                // Completeness: certainly-stored keys must all be returned.
                let got: std::collections::BTreeSet<Key> =
                    res.entries.iter().map(|e| e.key).collect();
                for key in certainly_stored(overlay, lo, hi) {
                    prop_assert!(got.contains(&key), "missing certain key {key:?}");
                }
            }
        }
    }

    #[test]
    fn churn_degrades_gracefully() {
        let mut overlay = overlay();
        let mut rng = StdRng::seed_from_u64(5);
        // Take 25% of the peers offline.
        for (i, peer) in overlay.peers.iter_mut().enumerate() {
            if i % 4 == 0 {
                peer.online = false;
            }
        }
        let queries = stored_lookups(&overlay, 300, &mut rng);
        let stats = run_queries(&overlay, &queries, &mut rng);
        // With n_min ≈ 5 replicas per partition and multiple routing
        // references, a quarter of the peers failing should barely dent the
        // success rate (the paper reports 95–100% under churn).
        assert!(
            stats.success_rate() > 0.85,
            "success {}",
            stats.success_rate()
        );
    }
}
