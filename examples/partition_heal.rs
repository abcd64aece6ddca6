//! A network partition that heals: queries degrade inside the split and
//! recover after it.
//!
//! ```text
//! cargo run -p pgrid --example partition_heal
//! cargo run -p pgrid --example partition_heal -- smoke   # small & fast, as `cargo test` runs it
//! ```
//!
//! The overlay is constructed on a healthy network, then the loopback
//! transport drops every frame crossing a two-halves split for a few
//! minutes of the query load ([`Phase::Partition`] —
//! seeded fault injection, so the run is reproducible).  Queries whose key
//! lives on the issuing side still succeed; cross-partition lookups fail
//! until the window closes, after which the same load converges again —
//! the paper's replication keeps both halves serving their share of the
//! keyspace meanwhile.

use pgrid::prelude::*;

fn scenario(seed: u64, n_peers: usize) -> Scenario {
    // Two contiguous halves: with peers assigned to trie paths by their
    // keys (not their ids), each half holds a mix of partitions plus
    // replicas — exactly the regime the paper's availability argument
    // assumes.
    let halves = vec![
        (0..n_peers / 2).collect::<Vec<_>>(),
        (n_peers / 2..n_peers).collect::<Vec<_>>(),
    ];
    Scenario::new(
        seed,
        vec![
            Phase::JoinWave {
                until_min: 3,
                fanout: 6,
            },
            Phase::Replicate { until_min: 5 },
            Phase::StartConstruction,
            Phase::RunUntil { until_min: 16 },
            Phase::Snapshot {
                label: "constructed".into(),
            },
            // The split is armed now and the transport enforces the window:
            // every frame crossing the halves between minutes 17 and 20 is
            // dropped, then the network heals on its own.
            Phase::Partition {
                groups: halves,
                from_min: 17,
                until_min: 20,
            },
            Phase::QueryLoad {
                until_min: 20,
                issuers: 0,
            },
            Phase::Snapshot {
                label: "partitioned".into(),
            },
            Phase::QueryLoad {
                until_min: 24,
                issuers: 0,
            },
            Phase::Snapshot {
                label: "healed".into(),
            },
            Phase::Drain,
        ],
    )
}

#[cfg_attr(test, allow(dead_code))]
fn main() {
    run(std::env::args().any(|a| a == "smoke"));
}

/// Runs the example; `smoke` picks the small, fast size its test runs.
fn run(smoke: bool) {
    let n_peers = if smoke { 24 } else { 64 };
    let config = NetConfig {
        n_peers,
        keys_per_peer: 10,
        n_min: 5,
        distribution: Distribution::Uniform,
        seed: 42,
        ..NetConfig::default()
    };
    let scenario = scenario(config.seed, n_peers);

    println!(
        "partition-and-heal: {n_peers} peers, two halves split during minutes 17-20 of the query load"
    );
    let mut overlay = Runtime::new(config);
    let report = pgrid::scenario::run(&mut overlay, &scenario);

    // Query counters are cumulative; the per-window rates are the deltas
    // between consecutive snapshots.
    let mut last = (0usize, 0usize);
    for snapshot in &report.snapshots {
        let issued = snapshot.queries_issued - last.0;
        let succeeded = snapshot.queries_succeeded - last.1;
        last = (snapshot.queries_issued, snapshot.queries_succeeded);
        let rate = if issued == 0 {
            100.0
        } else {
            100.0 * succeeded as f64 / issued as f64
        };
        println!(
            "  {:<12} @ minute {:>3}: {:>3} online, mean depth {:.2}, deviation {:.3}, \
             {:>4} queries this window ({rate:.0}% ok)",
            snapshot.label,
            snapshot.at_min,
            snapshot.online,
            snapshot.mean_path_length,
            snapshot.balance_deviation,
            issued,
        );
    }

    let by_label = |label: &str| {
        report
            .snapshots
            .iter()
            .find(|s| s.label == label)
            .expect("labelled snapshot")
    };
    let partitioned = by_label("partitioned");
    let healed = by_label("healed");
    let healed_issued = healed.queries_issued - partitioned.queries_issued;
    let healed_ok = healed.queries_succeeded - partitioned.queries_succeeded;
    assert!(healed_issued > 0, "the healed window issued no queries");
    assert!(
        healed_ok as f64 >= 0.8 * healed_issued as f64,
        "queries did not recover after the partition healed: {healed_ok}/{healed_issued}"
    );
    println!("after the window closed, the same load converges again: the partition healed");
}

#[cfg(test)]
mod tests {
    #[test]
    fn smoke() {
        super::run(true);
    }
}
