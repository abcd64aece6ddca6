//! Quickstart: build a data-oriented overlay from scratch and query it.
//!
//! ```text
//! cargo run -p pgrid --example quickstart
//! ```
//!
//! The example constructs a 128-peer overlay over a skewed (Pareto) key set
//! using the decentralized parallel construction of the paper, then runs
//! exact-key lookups and an order-preserving range query — the operation
//! that uniform-hashing DHTs cannot support efficiently and that motivates
//! data-oriented overlays in the first place.

use pgrid::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // 1. Configure and run the decentralized construction.
    let config = SimConfig {
        n_peers: 128,
        keys_per_peer: 10,
        n_min: 5,
        distribution: Distribution::Pareto { shape: 1.0 },
        seed: 42,
        ..SimConfig::default()
    };
    println!(
        "constructing a {}-peer overlay ({} keys, n_min = {}) ...",
        config.n_peers,
        config.total_keys(),
        config.n_min
    );
    let overlay = construct(&config);
    println!(
        "  finished in {} rounds, {} interactions ({:.1} per peer), {} keys moved",
        overlay.metrics.rounds,
        overlay.metrics.interactions,
        overlay.metrics.interactions_per_peer(),
        overlay.metrics.total_keys_moved(),
    );
    println!(
        "  trie depth: max {}, mean {:.2}; distinct partitions: {}",
        overlay.max_depth(),
        overlay.mean_depth(),
        overlay.replication_factors().len(),
    );

    // 2. Compare the load balance against the optimal (global-knowledge)
    //    reference partitioning of Algorithm 1.
    let keys: Vec<Key> = overlay.original_entries.iter().map(|e| e.key).collect();
    let reference = ReferencePartitioning::compute(&keys, config.n_peers, overlay.params);
    let report = compare_to_reference(&reference, &overlay.peer_paths());
    println!(
        "  load-balance deviation from the reference partitioning: {:.3}",
        report.deviation
    );

    // 3. Exact-key lookups.
    let mut rng = StdRng::seed_from_u64(7);
    let probe = overlay.original_entries[17];
    let result = lookup(&overlay.peers, PeerId(0), probe.key, &mut rng);
    println!(
        "lookup({}) -> {} entries in {} hops (success: {})",
        probe.key,
        result.entries.len(),
        result.hops,
        result.is_success()
    );

    // 4. An order-preserving range query over 5% of the key space.
    let lo = Key::from_fraction(0.02);
    let hi = Key::from_fraction(0.07);
    let range = range_query(&overlay.peers, PeerId(0), lo, hi, &mut rng);
    println!(
        "range [{lo}, {hi}] -> {} entries from {} partitions in {} hops (complete: {})",
        range.entries.len(),
        range.partitions_visited,
        range.hops,
        range.complete
    );
}
