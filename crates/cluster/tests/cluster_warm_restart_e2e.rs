//! Warm-restart end-to-end: a killed worker relaunches with the same
//! `--data-dir`, replays its durable log, and rejoins the run.
//!
//! The same fault is injected twice.  The **cold** run heals the PR-8 way:
//! the orphaned shard is reassigned round-robin onto the survivors and
//! every peer is rebuilt from live P-Grid replicas.  The **warm** run keeps
//! the shard where it was: the relaunch monitor respawns the killed
//! process with identical arguments, the worker replays its log, announces
//! itself with `Rejoin` inside the coordinator's grace window, reclaims its
//! own shard, and reconciles the crash window against live replicas with
//! an anti-entropy diff.  Warm recovery must be attributed as a rejoin,
//! cover the whole shard from the log, converge inside the reference
//! envelope — and its healing round must beat the cold rebuild (or stay
//! sub-second when a lucky cold round dodges the pull-retry race).

#![cfg(target_os = "linux")]

use pgrid_cluster::coordinator::{HealConfig, KillPlan, ObsReport};
use pgrid_cluster::local::{run_local_observed, LocalOptions};
use pgrid_net::runtime::NetConfig;
use pgrid_scenario::deployment::{DeploymentReport, Timeline};
use pgrid_workload::distributions::Distribution;
use std::path::{Path, PathBuf};

/// Heavier per-peer data than the heal e2e: the cold rebuild ships every
/// orphan's entries over the data plane, the warm rejoin replays them from
/// local disk, so the volume is what separates the two recovery times.
fn config() -> NetConfig {
    NetConfig {
        n_peers: 32,
        keys_per_peer: 100,
        n_min: 5,
        distribution: Distribution::Uniform,
        seed: 12,
        ..NetConfig::default()
    }
}

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

/// One killed-worker run over three workers, journaling into `data_dir`.
/// `warm` enables the relaunch monitor and the coordinator's rejoin grace
/// window; off, the kill heals through the cold reassignment path.
fn run_killed(warm: bool, data_dir: &Path) -> (DeploymentReport, ObsReport) {
    let options = LocalOptions {
        workers: 3,
        worker_exe: Some(PathBuf::from(env!("CARGO_BIN_EXE_pgrid-cluster"))),
        inherit_stderr: true,
        heal: HealConfig {
            heartbeat_ms: 200,
            failure_timeout_ms: 8_000,
            heal: true,
            rejoin_grace_ms: if warm { 30_000 } else { 0 },
            kill: Some(KillPlan {
                worker: 2,
                at_min: 10,
            }),
        },
        data_dir: Some(data_dir.to_path_buf()),
        relaunch: warm,
        ..LocalOptions::default()
    };
    run_local_observed(&config(), &short_timeline(), &options)
        .expect("the killed-worker run must complete")
}

#[test]
fn killed_worker_warm_rejoins_from_its_durable_log() {
    let base = std::env::temp_dir().join(format!("pgrid-warm-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    let (_cold_report, cold_observed) = run_killed(false, &base.join("cold"));
    let (report, observed) = run_killed(true, &base.join("warm"));

    // Cold control: healed through reassignment, not a rejoin.
    assert_eq!(
        cold_observed.failures.len(),
        1,
        "{:?}",
        cold_observed.failures
    );
    let cold = &cold_observed.failures[0];
    assert!(cold.healed && !cold.rejoined, "{cold:?}");
    assert_eq!(
        cold.recovered_replica + cold.recovered_local,
        cold.shard_len
    );

    // Warm: the relaunched worker reclaimed its own shard from the log.
    assert_eq!(observed.failures.len(), 1, "{:?}", observed.failures);
    let failure = &observed.failures[0];
    assert_eq!(failure.worker, 2);
    assert!(failure.healed, "not healed: {failure:?}");
    assert!(
        failure.rejoined,
        "healed cold instead of rejoining: {failure:?}"
    );
    assert_eq!(
        failure.recovered_warm, failure.shard_len,
        "the log did not cover the whole shard: {failure:?}"
    );
    assert_eq!(
        failure.recovered_replica + failure.recovered_local,
        0,
        "a rejoin must not also reassign: {failure:?}"
    );

    // Replaying a local log beats rebuilding the shard from replicas.
    // The cold healing round is bimodal: when a `ReplicaPull` races the
    // re-broadcast `AddressBook` it pays the multi-second retry tick,
    // otherwise it finishes in milliseconds — so a strict comparison
    // against a lucky cold round would be a coin flip.  The warm round is
    // handshake plus an in-memory replay and can never hit that race
    // (diff reconciliation completes after `RecoveryDone`), so it must
    // either beat the cold round outright or stay under an absolute bound
    // far below cold's race path.
    assert!(
        failure.recovery_ms < cold.recovery_ms || failure.recovery_ms < 1_000,
        "warm recovery ({}ms) neither faster than cold ({}ms) nor sub-second",
        failure.recovery_ms,
        cold.recovery_ms
    );

    // The relaunched worker actually wrote segments before dying.
    let killed_dir = base.join("warm").join("worker-2");
    let segments = std::fs::read_dir(&killed_dir)
        .expect("killed worker's data dir must exist")
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with("seg-"))
        .count();
    assert!(segments >= 1, "no segments under {killed_dir:?}");

    // The rejoined run converges inside the reference envelope.
    assert_eq!(report.timeline.len() as u64, short_timeline().end_min + 1);
    assert!(
        report.balance_deviation < 1.5,
        "balance deviation {} after warm rejoin",
        report.balance_deviation
    );
    assert!(
        report.query_success_rate > 0.7,
        "query success rate {} after warm rejoin",
        report.query_success_rate
    );

    let _ = std::fs::remove_dir_all(&base);
}
