//! Pins the executor's exact trajectory: one 32-peer loopback scenario
//! that uses every phase kind, and the canned Section-5 deployment, each
//! compared against recorded constants.  A refactor of the executor that
//! is meant to issue the same `Runtime` calls in the same order, with the
//! same control-RNG draws, must leave this file green without touching its
//! constants.

use pgrid_core::routing::PeerId;
use pgrid_net::runtime::{NetConfig, Runtime};
use pgrid_scenario::deployment::Timeline;
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
    let snapshot = |label: &str| Phase::Snapshot {
        label: label.to_string(),
    };
    Scenario::new(
        seed,
        vec![
            Phase::JoinWave {
                until_min: 2,
                fanout: 6,
            },
            // Two peers re-join with fixed contacts, as a cluster join plan
            // would hand them.
            Phase::JoinSchedule {
                until_min: 3,
                events: vec![
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
            },
            Phase::Replicate { until_min: 5 },
            snapshot("replicated"),
            Phase::StartConstruction,
            Phase::RunUntil { until_min: 12 },
            Phase::ConstructUntilQuiescent {
                check_every_min: 1,
                max_min: 10,
            },
            snapshot("constructed"),
            Phase::QueryLoad {
                until_min: 24,
                issuers: 0,
            },
            Phase::RangeLoad {
                until_min: 26,
                issuers: 0,
                width: 0.1,
            },
            snapshot("queried"),
            Phase::Partition {
                groups: halves,
                from_min: 27,
                until_min: 29,
            },
            Phase::Churn {
                until_min: 32,
                lead_ms: 2 * MINUTE,
                downtime_ms: (MINUTE, 2 * MINUTE),
                gap_ms: (2 * MINUTE, 4 * MINUTE),
                queries: query_spec(0),
            },
            snapshot("churned"),
            Phase::ChurnSchedule {
                until_min: 35,
                events: vec![
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
                queries: query_spec(n_peers / 2),
            },
            Phase::ShiftDistribution {
                distribution: Distribution::Pareto { shape: 1.0 },
                keys_per_peer: 5,
            },
            Phase::RunUntil { until_min: 40 },
            snapshot("shifted"),
            Phase::Drain,
        ],
    )
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
    (12, 32, 2.125, 0.2824280881923751, 0, 0, 0, 0, None),
    (
        26,
        32,
        2.125,
        0.2824280881923751,
        510,
        492,
        85,
        83,
        Some(287),
    ),
    (
        32,
        14,
        2.125,
        0.2824280881923751,
        765,
        696,
        85,
        85,
        Some(255),
    ),
    (
        40,
        32,
        2.34375,
        0.34054694569504257,
        831,
        760,
        85,
        85,
        Some(255),
    ),
    (
        40,
        32,
        2.34375,
        0.34054694569504257,
        831,
        760,
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
            0.4527476877356746,
            2.46875,
            1.0733812949640287,
            0.9738439981317142,
            6.4,
            368_560,
            138_350,
            111,
            Some(287)
        )
    );
}
