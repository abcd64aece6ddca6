//! Churn-heavy construction: joins and leaves interleaved with
//! partitioning.
//!
//! ```text
//! cargo run -p pgrid --example churn_construction
//! cargo run -p pgrid --example churn_construction -- smoke   # small & fast, as `cargo test` runs it
//! ```
//!
//! The paper constructs the overlay on a stable population and only churns
//! afterwards; this ROADMAP workload overlaps the two regimes.  The
//! scenario starts churn *while* the trie is still partitioning: every
//! peer repeatedly drops off mid-construction, so exchanges hit offline
//! partners, replicas bridge the gaps, and the trie must converge anyway.

use pgrid::prelude::*;

const MINUTE: u64 = 60_000;

fn scenario(seed: u64) -> Scenario {
    Scenario::builder(seed)
        .join_wave(3, 6)
        .replicate(5)
        .start_construction()
        // Churn during construction: drops of 1–2 minutes with 2–4 minute
        // gaps, starting while partitioning is in full swing.
        .churn(
            20,
            3 * MINUTE,
            (MINUTE, 2 * MINUTE),
            (2 * MINUTE, 4 * MINUTE),
            None,
        )
        .snapshot("churned construction")
        // Re-arm tick chains that died while their peer was offline, so
        // the survivors finish partitioning before the query load.
        .start_construction()
        .run_until(23)
        .snapshot("recovered")
        .query_load(27)
        .drain()
        .build()
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
        seed: 71,
        ..NetConfig::default()
    };
    let scenario = scenario(config.seed);

    println!(
        "churn-heavy construction: {n_peers} peers, churn overlaps partitioning from minute 5"
    );
    println!("running over loopback (emulated WAN, virtual time) ...");
    let mut overlay = Runtime::new(config);
    let report = pgrid::scenario::run(&mut overlay, &scenario);
    for snapshot in &report.snapshots {
        println!(
            "  {:<20} @ minute {:>3}: {:>3} online, mean depth {:.2}, deviation {:.3}, \
             {} queries ({:.0}% ok)",
            snapshot.label,
            snapshot.at_min,
            snapshot.online,
            snapshot.mean_path_length,
            snapshot.balance_deviation,
            snapshot.queries_issued,
            100.0 * snapshot.query_success_rate()
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
