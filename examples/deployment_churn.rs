//! Message-level deployment with churn, written against the Scenario API.
//!
//! ```text
//! cargo run -p pgrid --example deployment_churn
//! cargo run -p pgrid --example deployment_churn -- smoke   # small & fast, as `cargo test` runs it
//! ```
//!
//! Builds the paper's Section-5 timeline — join, replicate, construct,
//! query, churn — as an explicit [`Scenario`] program, runs it through the
//! scenario executor on the emulated wide-area network, and prints the
//! labelled snapshots plus the per-minute time series behind Figures 7, 8
//! and 9 and the summary statistics of Section 5.2.

use pgrid::net::experiment::{assemble_report, ReportInputs, Timeline};
use pgrid::prelude::*;

const MINUTE: u64 = 60_000;

#[cfg_attr(test, allow(dead_code))]
fn main() {
    run(std::env::args().any(|a| a == "smoke"));
}

/// Runs the example; `smoke` picks the small, fast size its test runs.
fn run(smoke: bool) {
    let (n_peers, timeline) = if smoke {
        (
            32,
            Timeline {
                join_end_min: 3,
                replicate_end_min: 5,
                construct_end_min: 18,
                range_end_min: 0,
                query_end_min: 22,
                end_min: 25,
            },
        )
    } else {
        (96, Timeline::default())
    };
    let config = NetConfig {
        n_peers,
        keys_per_peer: 10,
        n_min: 5,
        latency_min_ms: 20,
        latency_max_ms: 250,
        loss_probability: 0.01,
        seed: 4,
        ..NetConfig::default()
    };

    // The Section-5 timeline, spelled out with the scenario builder (the
    // canned `Scenario::from_timeline` builds the same program), plus two
    // snapshots.
    let scenario = Scenario::builder(config.seed)
        .join_wave(timeline.join_end_min, 6)
        .replicate(IndexId::PRIMARY, timeline.replicate_end_min)
        .start_construction(IndexId::PRIMARY)
        .run_until(timeline.construct_end_min)
        .snapshot("constructed")
        .query_load(IndexId::PRIMARY, timeline.query_end_min)
        .churn(
            timeline.end_min,
            5 * MINUTE,
            (MINUTE, 5 * MINUTE),
            (5 * MINUTE, 10 * MINUTE),
            Some(QuerySpec {
                index: IndexId::PRIMARY,
                issuers: 0,
            }),
        )
        .drain()
        .build();

    println!(
        "running the deployment scenario: {} peers, {} phases, phases join<{} replicate<{} construct<{} query<{} churn<{} (minutes)",
        config.n_peers,
        scenario.phases.len(),
        timeline.join_end_min,
        timeline.replicate_end_min,
        timeline.construct_end_min,
        timeline.query_end_min,
        timeline.end_min
    );

    let mut overlay = Runtime::new(config.clone());
    let scenario_report = pgrid::scenario::run(&mut overlay, &scenario);
    let report = assemble_report(&ReportInputs::from_runtime(&overlay), &timeline);

    println!("\nscenario snapshots:");
    for snapshot in &scenario_report.snapshots {
        let primary = snapshot.index(IndexId::PRIMARY).expect("primary index");
        println!(
            "  {:<12} @ minute {:>3}: {:>3} online, mean depth {:.2}, deviation {:.3}, {} queries ({:.0}% ok)",
            snapshot.label,
            snapshot.at_min,
            snapshot.online,
            primary.mean_path_length,
            primary.balance_deviation,
            primary.queries_issued,
            100.0 * primary.query_success_rate()
        );
    }

    println!("\n minute | online | maint B/s | query B/s | latency s (std)");
    println!(" ------ | ------ | --------- | --------- | ---------------");
    for sample in report.timeline.iter().step_by(5) {
        println!(
            " {:>6} | {:>6} | {:>9.1} | {:>9.1} | {:>6.2} ({:.2})",
            sample.minute,
            sample.peers_online,
            sample.maintenance_bps,
            sample.query_bps,
            sample.query_latency_mean_s,
            sample.query_latency_std_s
        );
    }

    println!("\nsummary (compare with Section 5.2 of the paper):");
    println!("  load-balance deviation : {:.3}", report.balance_deviation);
    println!("  mean path length       : {:.2}", report.mean_path_length);
    println!("  mean query hops        : {:.2}", report.mean_query_hops);
    println!(
        "  query success rate     : {:.1}%",
        100.0 * report.query_success_rate
    );
    println!("  mean replication       : {:.2}", report.mean_replication);
    println!(
        "  total bandwidth        : {} maintenance bytes, {} query bytes",
        report.total_maintenance_bytes, report.total_query_bytes
    );
}

#[cfg(test)]
mod tests {
    #[test]
    fn smoke() {
        super::run(true);
    }
}
