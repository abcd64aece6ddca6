//! Re-indexing: a distribution shift rebuilds the overlay, driven by the
//! Scenario API.
//!
//! ```text
//! cargo run -p pgrid --example reindexing
//! cargo run -p pgrid --example reindexing -- smoke   # small & fast, as `cargo test` runs it
//! ```
//!
//! The paper's motivation: when the indexing method changes (new key
//! extraction, new term selection), the existing overlay becomes useless
//! and a new one has to be constructed.  This example drives the
//! message-level runtime (loopback, virtual time) through one scenario:
//! construct under uniform keys, snapshot, *shift* the key distribution to
//! a skewed extraction function (Pareto) with [`Phase::ShiftDistribution`],
//! re-construct, snapshot — showing the dynamic re-balancing.  It then
//! builds the shifted workload from scratch in the simulator, once with the
//! parallel construction and once with the sequential join-based
//! maintenance model, and compares their latency.
//!
//! [`Phase::ShiftDistribution`]: pgrid::scenario::Phase::ShiftDistribution

use pgrid::prelude::*;

/// Upper bound on each construction phase, in minutes of virtual time.
const CONSTRUCT_MAX_MIN: u64 = 120;

#[cfg_attr(test, allow(dead_code))]
fn main() {
    run(std::env::args().any(|a| a == "smoke"));
}

/// Runs the example; `smoke` picks the small, fast size its test runs.
fn run(smoke: bool) {
    let populations: &[usize] = if smoke { &[64] } else { &[128, 256, 512] };
    let shifted = Distribution::Pareto { shape: 1.0 };

    for &n_peers in populations {
        let config = NetConfig {
            n_peers,
            keys_per_peer: 10,
            n_min: 5,
            distribution: Distribution::Uniform,
            seed: 7,
            ..NetConfig::default()
        };

        // One scenario: build the uniform index, then shift the extraction
        // function to Pareto and let the network re-balance.
        let settle = Phase::ConstructUntilQuiescent {
            check_every_min: 1,
            max_min: CONSTRUCT_MAX_MIN,
        };
        let scenario = Scenario::new(
            config.seed,
            vec![
                Phase::JoinWave {
                    until_min: 3,
                    fanout: 6,
                },
                Phase::Replicate { until_min: 5 },
                Phase::StartConstruction,
                settle.clone(),
                Phase::Snapshot {
                    label: "uniform index".into(),
                },
                Phase::ShiftDistribution {
                    distribution: shifted,
                    keys_per_peer: config.keys_per_peer,
                },
                settle,
                Phase::Snapshot {
                    label: "after shift".into(),
                },
            ],
        );
        let mut overlay = Runtime::new(config.clone());
        let report = pgrid::scenario::run(&mut overlay, &scenario);

        println!("== {n_peers} peers ==");
        for label in ["uniform index", "after shift"] {
            let snapshot = report.snapshot(label).expect("snapshot taken");
            println!(
                "  {label:<14} @ minute {:>3}: mean depth {:.2}, deviation {:.3}, replication {:.2}",
                snapshot.at_min,
                snapshot.mean_path_length,
                snapshot.balance_deviation,
                snapshot.mean_replication
            );
        }

        // The shifted workload built from scratch in the simulator: the
        // parallel construction against the standard maintenance model
        // (sequential joins), for the latency comparison of the paper.
        let sim_config = SimConfig {
            n_peers,
            keys_per_peer: config.keys_per_peer,
            n_min: config.n_min,
            distribution: shifted,
            seed: config.seed,
            ..SimConfig::default()
        };
        let parallel = construct(&sim_config);
        let keys: Vec<Key> = parallel.original_entries.iter().map(|e| e.key).collect();
        let quality = measure_overlay(&keys, n_peers, parallel.params, &parallel.peer_paths());
        let rounds = parallel.metrics.rounds;
        let sequential = construct_sequentially(&sim_config);
        println!(
            "  simulator, from scratch: mean depth {:.2}, deviation {:.3}, replication {:.2}",
            quality.mean_path_length, quality.deviation, quality.mean_replication
        );
        println!(
            "  parallel:   {:>6} interactions, {:>4} rounds of latency",
            parallel.metrics.interactions, rounds
        );
        println!(
            "  sequential: {:>6} messages,     {:>6} serial steps of latency",
            sequential.messages, sequential.latency
        );
        println!(
            "  latency advantage of the parallel construction: {:.1}x",
            sequential.latency as f64 / rounds.max(1) as f64
        );
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn smoke() {
        super::run(true);
    }
}
