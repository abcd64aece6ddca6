//! Pins the executor's exact trajectory: one 32-peer loopback scenario
//! that uses every phase kind, and the canned Section-5 deployment, each
//! compared against recorded constants.  A refactor of the executor that
//! is meant to issue the same `Runtime` calls in the same order, with the
//! same control-RNG draws, must leave this file green without touching its
//! constants.

use pgrid_core::routing::PeerId;
use pgrid_net::experiment::Timeline;
use pgrid_net::runtime::{NetConfig, Runtime};
use pgrid_scenario::prelude::*;
use pgrid_workload::distributions::Distribution;

const MINUTE: u64 = 60_000;

/// `(at_min, online, mean_path_length, balance_deviation, queries_issued,
/// queries_succeeded, ranges_issued, ranges_complete, latency_p50_ms)` of
/// one snapshot.
type Row = (
    u64,
    usize,
    f64,
    f64,
    usize,
    usize,
    usize,
    usize,
    Option<u64>,
);

/// JoinWave, JoinSchedule, Replicate, StartConstruction, RunUntil,
/// ConstructUntilQuiescent, QueryLoad, RangeLoad, Partition, Churn,
/// ChurnSchedule, ShiftDistribution, Snapshot and Drain, in one program.
fn every_phase(seed: u64, n_peers: usize) -> Scenario {
    let halves = vec![
        (0..n_peers / 2).collect::<Vec<_>>(),
        (n_peers / 2..n_peers).collect::<Vec<_>>(),
    ];
    let query_spec = |issuers| Some(QuerySpec { issuers });
    Scenario::builder(seed)
        .join_wave(2, 6)
        // Two peers re-join with fixed contacts, as a cluster join plan
        // would hand them.
        .join_schedule(
            3,
            vec![
                JoinEvent {
                    at: 2 * MINUTE + 30_000,
                    peer: 3,
                    neighbours: vec![PeerId(0), PeerId(1)],
                },
                JoinEvent {
                    at: 2 * MINUTE + 50_000,
                    peer: 30,
                    neighbours: vec![PeerId(4), PeerId(5), PeerId(6)],
                },
            ],
        )
        .replicate(5)
        .snapshot("replicated")
        .start_construction()
        .run_until(12)
        .construct_until_quiescent(1, 10)
        .snapshot("constructed")
        .query_load(24)
        .range_load(26, 0, 0.1)
        .snapshot("queried")
        .partition(halves, 27, 29)
        .churn(
            32,
            2 * MINUTE,
            (MINUTE, 2 * MINUTE),
            (2 * MINUTE, 4 * MINUTE),
            query_spec(0),
        )
        .snapshot("churned")
        .churn_schedule(
            35,
            vec![
                ChurnEvent {
                    peer: 7,
                    at: 33 * MINUTE,
                    downtime: MINUTE,
                },
                ChurnEvent {
                    peer: 19,
                    at: 33 * MINUTE + 20_000,
                    downtime: 90_000,
                },
            ],
            query_spec(n_peers / 2),
        )
        .shift_distribution(Distribution::Pareto { shape: 1.0 }, 5)
        .run_until(40)
        .snapshot("shifted")
        .drain()
        .build()
}

fn rows(report: &ScenarioReport) -> Vec<Row> {
    report
        .snapshots
        .iter()
        .map(|s| {
            (
                s.at_min,
                s.online,
                s.mean_path_length,
                s.balance_deviation,
                s.queries_issued,
                s.queries_succeeded,
                s.ranges_issued,
                s.ranges_complete,
                s.latency_p50_ms,
            )
        })
        .collect()
}

const EVERY_PHASE: [Row; 6] = [
    (5, 32, 0.0, 0.11215224028078977, 0, 0, 0, 0, None),
    (14, 32, 2.0625, 0.3558660211371689, 0, 0, 0, 0, None),
    (
        26,
        32,
        2.0625,
        0.3558660211371689,
        425,
        415,
        85,
        84,
        Some(255),
    ),
    (
        32,
        10,
        2.0625,
        0.3558660211371689,
        677,
        616,
        85,
        85,
        Some(255),
    ),
    (
        40,
        32,
        2.34375,
        0.22246351916912377,
        742,
        676,
        85,
        85,
        Some(255),
    ),
    (
        40,
        32,
        2.34375,
        0.22246351916912377,
        742,
        676,
        85,
        85,
        Some(255),
    ),
];

#[test]
fn every_phase_kind_on_loopback_matches_the_recorded_trajectory() {
    let config = NetConfig {
        n_peers: 32,
        keys_per_peer: 10,
        n_min: 5,
        distribution: Distribution::Uniform,
        seed: 17,
        ..NetConfig::default()
    };
    let scenario = every_phase(config.seed, config.n_peers);
    let mut runtime = Runtime::new(config);
    let report = pgrid_scenario::run(&mut runtime, &scenario);
    assert_eq!(report.phases_run, scenario.phases.len());
    let labels: Vec<&str> = report.snapshots.iter().map(|s| s.label.as_str()).collect();
    assert_eq!(
        labels,
        [
            "replicated",
            "constructed",
            "queried",
            "churned",
            "shifted",
            "final"
        ]
    );
    assert_eq!(rows(&report), EVERY_PHASE);
}

#[test]
fn the_section_5_deployment_matches_the_recorded_summary() {
    let config = NetConfig {
        n_peers: 32,
        seed: 5,
        ..NetConfig::default()
    };
    let report = pgrid_scenario::deployment::run_deployment(&config, &Timeline::default());
    let summary = (
        report.balance_deviation,
        report.mean_path_length,
        report.mean_query_hops,
        report.query_success_rate,
        report.mean_replication,
        report.total_maintenance_bytes,
        report.total_query_bytes,
        report.timeline.len(),
        report.query_latency.p50(),
    );
    assert_eq!(
        summary,
        (
            0.20468153617266022,
            2.25,
            1.155994222436206,
            0.9701074264362447,
            6.4,
            2_284_479,
            143_424,
            111,
            Some(287)
        )
    );
}
