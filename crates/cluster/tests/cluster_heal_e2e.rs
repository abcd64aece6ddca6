//! Self-healing end-to-end: a worker process dies mid-construction and the
//! cluster survives.
//!
//! Three real worker processes host the deployment; one of them kills its
//! own process (fault injection scheduled through the coordinator's
//! `Welcome`) halfway through the construction phase.  The coordinator must
//! detect the death, reassign the orphaned shard onto the two survivors,
//! and the survivors must take over the endpoints and rebuild the lost
//! peers' state from live P-Grid replicas — the paper's own replication
//! doubling as the recovery mechanism.  The merged report still has to
//! satisfy the reference balance envelope.
//!
//! A second test exercises the degraded path: with healing disabled the
//! same death must *not* abort the run — the coordinator records the
//! failure, dumps the flight recorder, and assembles a partial report from
//! the survivor.

#![cfg(target_os = "linux")]

use pgrid_cluster::coordinator::{HealConfig, KillPlan};
use pgrid_cluster::local::{run_local_observed, LocalOptions};
use pgrid_net::runtime::NetConfig;
use pgrid_scenario::deployment::Timeline;
use pgrid_workload::distributions::Distribution;
use std::path::PathBuf;

fn config() -> NetConfig {
    NetConfig {
        n_peers: 32,
        keys_per_peer: 10,
        n_min: 5,
        distribution: Distribution::Uniform,
        seed: 12,
        ..NetConfig::default()
    }
}

/// The compressed smoke timeline also used by `pgrid-cluster local --smoke`.
fn short_timeline() -> Timeline {
    Timeline {
        join_end_min: 3,
        replicate_end_min: 5,
        construct_end_min: 18,
        range_end_min: 0,
        query_end_min: 22,
        end_min: 25,
    }
}

fn local_options(workers: usize, heal: HealConfig) -> LocalOptions {
    LocalOptions {
        workers,
        worker_exe: Some(PathBuf::from(env!("CARGO_BIN_EXE_pgrid-cluster"))),
        inherit_stderr: true,
        heal,
        ..LocalOptions::default()
    }
}

#[test]
fn killed_worker_is_healed_and_the_run_converges() {
    let config = config();
    let timeline = short_timeline();
    // Kill the last worker at virtual minute 10 — mid-construction, between
    // the replicate barrier (5) and the construct barrier (18).
    let heal = HealConfig {
        heartbeat_ms: 200,
        failure_timeout_ms: 8_000,
        heal: true,
        rejoin_grace_ms: 0,
        kill: Some(KillPlan {
            worker: 2,
            at_min: 10,
        }),
    };
    let (report, observed) = run_local_observed(&config, &timeline, &local_options(3, heal))
        .expect("the healed cluster run must complete");

    // Exactly one failure, attributed to the killed worker, and healed.
    assert_eq!(observed.failures.len(), 1, "{:?}", observed.failures);
    let failure = &observed.failures[0];
    assert_eq!(failure.worker, 2);
    assert!(failure.healed, "the shard was not reassigned: {failure:?}");

    // Every orphaned peer was rebuilt on a survivor, and the paper's
    // replication actually drove the recovery: with a mean replication
    // factor well above 1, live replicas must exist for at least part of
    // the dead shard (the seeded local fallback is for the remainder).
    assert_eq!(
        failure.recovered_replica + failure.recovered_local,
        failure.shard_len,
        "recovered-peer coverage: {failure:?}"
    );
    assert!(
        failure.recovered_replica >= 1,
        "no peer recovered from a replica despite mean replication {:.2}: {failure:?}",
        report.mean_replication
    );
    assert!(report.mean_replication >= 1.0);

    // The run converged inside the reference envelope regardless of the
    // mid-run death.
    assert_eq!(report.timeline.len() as u64, timeline.end_min + 1);
    assert!(
        report.balance_deviation < 1.5,
        "balance deviation {} after healing",
        report.balance_deviation
    );
    assert!(
        report.mean_path_length >= 1.5,
        "mean path length {:.2}: the shards never mixed",
        report.mean_path_length
    );
    // The healing window may cost some in-flight lookups, but the healed
    // overlay must answer the query phase.
    assert!(
        report.query_success_rate > 0.7,
        "query success rate {} after healing",
        report.query_success_rate
    );
}

#[test]
fn heal_disabled_still_produces_a_partial_report() {
    let config = config();
    let timeline = short_timeline();
    let dump = std::env::temp_dir().join(format!(
        "pgrid-heal-off-flight-{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&dump);
    let heal = HealConfig {
        heartbeat_ms: 200,
        failure_timeout_ms: 8_000,
        heal: false,
        rejoin_grace_ms: 0,
        kill: Some(KillPlan {
            worker: 1,
            at_min: 10,
        }),
    };
    let mut options = local_options(2, heal);
    options.obs.flight_dump = Some(dump.clone());
    let (report, observed) = run_local_observed(&config, &timeline, &options)
        .expect("a worker crash with healing disabled must degrade, not abort");

    // The failure was recorded but not healed, and the flight recorder
    // dumped the control-plane history at detection time.
    assert_eq!(observed.failures.len(), 1, "{:?}", observed.failures);
    let failure = &observed.failures[0];
    assert_eq!(failure.worker, 1);
    assert!(!failure.healed);
    assert_eq!(failure.recovered_replica + failure.recovered_local, 0);
    let dumped = std::fs::read_to_string(&dump).expect("flight dump must exist");
    assert!(
        dumped.contains("worker_failed"),
        "flight dump does not mention the failure: {dumped}"
    );
    let _ = std::fs::remove_file(&dump);

    // The partial report still covers the whole timeline, with the
    // survivor's shard intact: structured degradation, not a panic.
    assert_eq!(report.timeline.len() as u64, timeline.end_min + 1);
    assert!(report.total_maintenance_bytes > 0);
    assert!(
        report.query_success_rate > 0.0,
        "the survivor answered no queries at all"
    );
}
