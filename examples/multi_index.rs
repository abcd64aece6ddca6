//! Multi-index overlay: two key distributions share one peer population.
//!
//! ```text
//! cargo run -p pgrid --example multi_index
//! cargo run -p pgrid --example multi_index -- smoke   # small & fast, as `cargo test` runs it
//! ```
//!
//! Heterogeneous peer-database work (e.g. HepToX) argues for one peer
//! population serving several indexes behind a common access API.  Here
//! the same peers host a uniform index *and* a skewed (Pareto) one: each
//! index builds its own trie, routing tables and replica sets, while the
//! transport endpoints, bootstrap neighbours and liveness are shared.
//! Secondary-index traffic rides the same frames, enveloped per message.

use pgrid::prelude::*;

const SECONDARY: IndexId = IndexId(1);

fn scenario(seed: u64) -> Scenario {
    Scenario::builder(seed)
        .join_wave(3, 6)
        .replicate(IndexId::PRIMARY, 5)
        .replicate(SECONDARY, 7)
        .start_construction(IndexId::PRIMARY)
        .start_construction(SECONDARY)
        .run_until(22)
        .snapshot("constructed")
        .query_load(IndexId::PRIMARY, 25)
        .query_load(SECONDARY, 28)
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
        seed: 23,
        ..NetConfig::default()
    };
    let scenario = scenario(config.seed);

    println!(
        "multi-index overlay: {n_peers} peers hosting a uniform and a Pareto index side by side"
    );
    println!("running over loopback (emulated WAN, virtual time) ...");
    let mut overlay = Runtime::new(config);
    overlay.register_index(SECONDARY, &Distribution::Pareto { shape: 1.0 });
    let report = pgrid::scenario::run(&mut overlay, &scenario);
    let fin = report.final_snapshot();
    println!("\n  index     | mean depth | deviation | replication | queries (ok)");
    println!("  --------- | ---------- | --------- | ----------- | ------------");
    for idx in &fin.indexes {
        println!(
            "  {:<9} | {:>10.2} | {:>9.3} | {:>11.2} | {:>4} ({:.0}%)",
            idx.index.to_string(),
            idx.mean_path_length,
            idx.balance_deviation,
            idx.mean_replication,
            idx.queries_issued,
            100.0 * idx.query_success_rate()
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
