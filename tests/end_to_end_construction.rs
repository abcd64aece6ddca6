//! Integration tests spanning `pgrid-workload`, `pgrid-sim` and
//! `pgrid-core`: the decentralized construction must produce an overlay
//! that is consistent, balanced and queryable for every workload of the
//! paper's evaluation.

use pgrid::prelude::*;
use pgrid::workload::queries::{generate_queries, QueryWorkloadConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn build(dist: Distribution, n_peers: usize, seed: u64) -> ConstructedOverlay {
    construct(&SimConfig {
        n_peers,
        keys_per_peer: 10,
        n_min: 5,
        distribution: dist,
        seed,
        ..SimConfig::default()
    })
}

#[test]
fn every_paper_workload_yields_a_consistent_queryable_overlay() {
    for dist in Distribution::paper_suite() {
        let overlay = build(dist, 96, 11);
        // structural consistency
        for peer in &overlay.peers {
            assert!(peer.invariants_hold(), "{dist}: inconsistent routing table");
            for level in 0..peer.path.len() {
                assert!(
                    !peer.routing.level(level).is_empty(),
                    "{dist}: missing reference at level {level}"
                );
            }
        }
        // the overlay must actually partition the key space
        assert!(
            overlay.max_depth() >= 2,
            "{dist}: overlay did not specialise"
        );
        // load balance within a loose factor of the optimum
        let keys: Vec<Key> = overlay.original_entries.iter().map(|e| e.key).collect();
        let reference = ReferencePartitioning::compute(&keys, 96, overlay.params);
        let report = compare_to_reference(&reference, &overlay.peer_paths());
        assert!(
            report.deviation < 1.5,
            "{dist}: deviation {}",
            report.deviation
        );
        // queries on existing keys succeed
        let mut rng = StdRng::seed_from_u64(5);
        let queries = generate_queries(
            &QueryWorkloadConfig {
                count: 150,
                range_fraction: 0.1,
                existing_fraction: 1.0,
                ..QueryWorkloadConfig::default()
            },
            &keys,
            &mut rng,
        );
        let stats = run_queries(&overlay, &queries, &mut rng);
        assert!(
            stats.success_rate() > 0.9,
            "{dist}: query success rate {}",
            stats.success_rate()
        );
    }
}

#[test]
fn deviation_is_stable_across_population_sizes() {
    // Figure 6a's main observation: the quality of load balancing does not
    // degrade with the population size.
    let small = build(Distribution::Pareto { shape: 1.0 }, 64, 3);
    let large = build(Distribution::Pareto { shape: 1.0 }, 256, 3);
    let dev = |overlay: &ConstructedOverlay, n: usize| {
        let keys: Vec<Key> = overlay.original_entries.iter().map(|e| e.key).collect();
        let reference = ReferencePartitioning::compute(&keys, n, overlay.params);
        compare_to_reference(&reference, &overlay.peer_paths()).deviation
    };
    let d_small = dev(&small, 64);
    let d_large = dev(&large, 256);
    assert!(
        (d_small - d_large).abs() < 0.6,
        "deviation should not explode with population size: {d_small} vs {d_large}"
    );
}

#[test]
fn parallel_construction_has_sublinear_latency_in_rounds() {
    // Section 4.3: the parallel construction needs O(log^2) rounds while the
    // sequential model needs O(N) serialised joins.
    let config = |n| SimConfig {
        n_peers: n,
        distribution: Distribution::Uniform,
        seed: 9,
        ..SimConfig::default()
    };
    let parallel_small = construct(&config(64));
    let parallel_large = construct(&config(256));
    // Quadrupling the network size should not quadruple the parallel rounds.
    assert!(
        (parallel_large.metrics.rounds as f64) < 2.5 * parallel_small.metrics.rounds as f64,
        "parallel rounds should grow sub-linearly: {} -> {}",
        parallel_small.metrics.rounds,
        parallel_large.metrics.rounds
    );
    let sequential_small = construct_sequentially(&config(64));
    let sequential_large = construct_sequentially(&config(256));
    assert!(
        sequential_large.latency > 3 * sequential_small.latency,
        "sequential latency should grow ~linearly: {} -> {}",
        sequential_small.latency,
        sequential_large.latency
    );
    // and for the larger network the parallel construction must be far faster
    assert!(
        parallel_large.metrics.rounds * 10 < sequential_large.latency,
        "parallel ({} rounds) should beat sequential ({} steps) by a wide margin",
        parallel_large.metrics.rounds,
        sequential_large.latency
    );
}

#[test]
fn range_queries_return_exactly_the_keys_in_range() {
    let overlay = build(Distribution::Uniform, 96, 21);
    let mut rng = StdRng::seed_from_u64(2);
    let lo = Key::from_fraction(0.30);
    let hi = Key::from_fraction(0.45);
    let result = range_query(&overlay.peers, PeerId(1), lo, hi, &mut rng);
    assert!(result.complete);
    // every returned entry is in range
    assert!(result.entries.iter().all(|e| e.key >= lo && e.key <= hi));
    // and (almost) every original entry in range is returned: entries still
    // "in transit" at non-responsible peers may be missed, everything else
    // must be found.
    let expected: Vec<_> = overlay
        .original_entries
        .iter()
        .filter(|e| e.key >= lo && e.key <= hi)
        .collect();
    assert!(
        result.entries.len() * 100 >= expected.len() * 90,
        "range query returned {} of {} expected entries",
        result.entries.len(),
        expected.len()
    );
}

#[test]
fn replication_factors_track_n_min() {
    let overlay = build(Distribution::Uniform, 256, 5);
    let factors = overlay.replication_factors();
    let mean = factors.iter().sum::<usize>() as f64 / factors.len() as f64;
    // Section 2.2: with proper parameters every partition ends up with
    // between n_min and about 2 n_min peers.
    assert!(
        mean >= 2.5 && mean <= 4.0 * overlay.params.n_min as f64,
        "mean replication {mean} outside the expected band (n_min = {})",
        overlay.params.n_min
    );
}
