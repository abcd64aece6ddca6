//! Multi-process end-to-end: the full Section-5 timeline across real OS
//! process boundaries.
//!
//! The test runs the same configuration twice — once in-process over the
//! deterministic loopback transport (`run_deployment`, the reference) and
//! once as a coordinator plus **two real worker processes** spawned from
//! the `pgrid-cluster` binary, each hosting half the peers behind the one
//! listener of its `ReactorTransport` and reaching the other half through
//! remote registrations.  The merged cluster report must satisfy the same
//! balance/replication invariants as the single-process run: protocol
//! state genuinely crossed the process boundary, or the trie could never
//! have mixed the two shards.

#![cfg(target_os = "linux")]

use pgrid_cluster::local::{run_local, LocalOptions};
use pgrid_net::experiment::Timeline;
use pgrid_net::runtime::NetConfig;
use pgrid_scenario::deployment::run_deployment;
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

#[test]
fn two_worker_processes_converge_like_the_single_process_run() {
    let config = config();
    let timeline = short_timeline();

    let single = run_deployment(&config, &timeline);
    let cluster = run_local(
        &config,
        &timeline,
        &LocalOptions {
            workers: 2,
            worker_exe: Some(PathBuf::from(env!("CARGO_BIN_EXE_pgrid-cluster"))),
            inherit_stderr: true,
            ..LocalOptions::default()
        },
    )
    .expect("the 2-process cluster run must complete");

    // The merged timeline covers every minute of the run.
    assert_eq!(cluster.timeline.len() as u64, timeline.end_min + 1);

    // Both runs build a balanced overlay ...
    assert!(
        single.balance_deviation < 1.5,
        "single-process deviation {}",
        single.balance_deviation
    );
    assert!(
        cluster.balance_deviation < 1.5,
        "cluster deviation {}",
        cluster.balance_deviation
    );
    // ... and agree on the balance statistics (same bound as the
    // reactor-vs-loopback parity test).
    assert!(
        (single.balance_deviation - cluster.balance_deviation).abs() < 0.75,
        "deployment modes disagree on balance: single {:.3} vs cluster {:.3}",
        single.balance_deviation,
        cluster.balance_deviation
    );
    assert!(
        (single.mean_path_length - cluster.mean_path_length).abs() < 1.5,
        "deployment modes disagree on trie depth: single {:.2} vs cluster {:.2}",
        single.mean_path_length,
        cluster.mean_path_length
    );

    // The trie actually partitioned (a shard that never talked to the other
    // one would stay at the root) and replicas formed at the paper's scale.
    assert!(
        cluster.mean_path_length >= 1.5,
        "mean path length {:.2}: the shards never mixed",
        cluster.mean_path_length
    );
    assert!(
        cluster.mean_replication >= 1.0,
        "mean replication {:.2}",
        cluster.mean_replication
    );

    // Queries issued in one process were answered across the wire.
    assert!(
        cluster.query_success_rate > 0.8,
        "cluster query success rate {}",
        cluster.query_success_rate
    );
    assert!(!cluster.timeline.iter().all(|s| s.query_bps == 0.0));
    assert!(cluster.total_maintenance_bytes > 0);
    assert!(cluster.total_query_bytes > 0);

    // Frame counters are summed across both workers, and (nearly)
    // everything sent was delivered — only the emulated per-frame loss and
    // churn-window connection failures drop frames.
    assert!(
        cluster.transport.frames_sent > 500,
        "{:?}",
        cluster.transport
    );
    assert!(
        cluster.transport.frames_delivered >= cluster.transport.frames_sent * 9 / 10,
        "{:?}",
        cluster.transport
    );
    // Per-peer link stats crossed the control plane and were merged: every
    // peer saw traffic, and cluster-wide sends match cluster-wide receives.
    assert_eq!(
        cluster.transport.per_peer.len(),
        config.n_peers,
        "every peer should have link stats in the merged report"
    );
    let link_sent: u64 = cluster
        .transport
        .per_peer
        .values()
        .map(|l| l.frames_sent)
        .sum();
    let link_received: u64 = cluster
        .transport
        .per_peer
        .values()
        .map(|l| l.frames_received)
        .sum();
    assert_eq!(link_sent, cluster.transport.frames_sent);
    assert_eq!(link_received, cluster.transport.frames_delivered);
}

#[test]
fn two_worker_processes_resolve_range_queries_across_shards() {
    // The optional range window on a sharded deployment: range walks hop
    // across the process boundary (a shard rarely hosts every partition of
    // a slice), the per-shard aggregates are merged by the coordinator,
    // and every issued range must achieve full interval coverage.
    let config = config();
    let timeline = Timeline {
        join_end_min: 3,
        replicate_end_min: 5,
        construct_end_min: 18,
        range_end_min: 20,
        query_end_min: 22,
        end_min: 25,
    };
    let cluster = run_local(
        &config,
        &timeline,
        &LocalOptions {
            workers: 2,
            worker_exe: Some(PathBuf::from(env!("CARGO_BIN_EXE_pgrid-cluster"))),
            inherit_stderr: true,
            ..LocalOptions::default()
        },
    )
    .expect("the 2-process range run must complete");
    assert!(
        cluster.ranges_issued > 0,
        "the range window issued no ranges"
    );
    assert_eq!(
        cluster.ranges_complete, cluster.ranges_issued,
        "{}/{} cluster ranges complete",
        cluster.ranges_complete, cluster.ranges_issued
    );
    // The ordinary lookup plane must be unaffected by the extra phase.
    assert!(
        cluster.query_success_rate > 0.8,
        "query success rate {}",
        cluster.query_success_rate
    );
}

#[test]
fn two_reactor_worker_processes_complete_the_timeline() {
    // The two-process smoke run seen from the reactor: every worker hosts
    // its shard behind one epoll reactor, so frames of all 16 peers per
    // process share one multiplexed connection pair instead of 16x16
    // links, and both shards' reactor stats merge at the coordinator.
    let config = config();
    let timeline = short_timeline();
    let cluster = run_local(
        &config,
        &timeline,
        &LocalOptions {
            workers: 2,
            worker_exe: Some(PathBuf::from(env!("CARGO_BIN_EXE_pgrid-cluster"))),
            inherit_stderr: true,
            ..LocalOptions::default()
        },
    )
    .expect("the 2-process reactor run must complete");
    assert!(
        cluster.balance_deviation < 1.5,
        "deviation {}",
        cluster.balance_deviation
    );
    assert!(
        cluster.mean_path_length >= 1.5,
        "mean path length {:.2}: the shards never mixed",
        cluster.mean_path_length
    );
    assert!(
        cluster.query_success_rate > 0.8,
        "query success rate {}",
        cluster.query_success_rate
    );
    assert!(
        cluster.transport.frames_sent > 500,
        "{:?}",
        cluster.transport
    );
    let stats = cluster
        .transport
        .reactor
        .expect("reactor workers report reactor stats in the merged view");
    assert_eq!(
        stats.registered_peers, config.n_peers as u64,
        "both shards' registrations must merge: {stats:?}"
    );
    assert!(
        stats.registered_fds < 32,
        "fds must not scale with peers: {stats:?}"
    );
}

#[test]
fn four_worker_processes_also_complete_the_timeline() {
    // A denser process split of the same deployment: four shards of eight
    // peers each still have to produce a working overlay.
    let config = config();
    let timeline = short_timeline();
    let cluster = run_local(
        &config,
        &timeline,
        &LocalOptions {
            workers: 4,
            worker_exe: Some(PathBuf::from(env!("CARGO_BIN_EXE_pgrid-cluster"))),
            inherit_stderr: true,
            ..LocalOptions::default()
        },
    )
    .expect("the 4-process cluster run must complete");
    assert!(
        cluster.balance_deviation < 1.5,
        "deviation {}",
        cluster.balance_deviation
    );
    assert!(
        cluster.query_success_rate > 0.8,
        "query success rate {}",
        cluster.query_success_rate
    );
    assert!(cluster.mean_replication >= 1.0);
}
