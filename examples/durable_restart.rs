//! Warm worker restart from a durable log.
//!
//! ```text
//! cargo run --release -p pgrid --example durable_restart
//! cargo run --release -p pgrid --example durable_restart -- smoke   # small & fast, for CI
//! ```
//!
//! Runs the multi-process deployment twice, killing the same worker
//! mid-construction both times (fault injection scheduled through the
//! coordinator's `Welcome`):
//!
//! * **cold** — the PR-8 healing path: the orphaned shard is reassigned
//!   onto the survivors and every peer is rebuilt from live P-Grid
//!   replicas over the data plane;
//! * **warm** — every worker journals its shard with `--data-dir`; the
//!   killed process is relaunched with identical arguments, replays its
//!   log, rejoins inside the coordinator's grace window, reclaims its own
//!   shard, and reconciles the crash window against live replicas with an
//!   anti-entropy diff.
//!
//! The example prints both recovery paths side by side: what was rebuilt,
//! from where, and how long the healing round took.
//!
//! The spawned workers are copies of this example binary re-invoked with
//! a `worker` argument, dispatching straight into the cluster worker
//! runtime — the same code `pgrid-cluster worker` runs.

use pgrid::cluster::coordinator::{HealConfig, KillPlan, WorkerFailure};
use pgrid::cluster::local::{run_local_observed, LocalOptions};
use pgrid::cluster::worker::{run_worker, WorkerOptions};
use pgrid::prelude::*;
use std::path::PathBuf;

/// The re-exec entry: `durable_restart worker --connect ADDR [--data-dir D]`.
fn worker_main(args: &[String]) -> ! {
    let option = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|at| args.get(at + 1))
            .cloned()
    };
    let addr = option("--connect")
        .expect("worker mode needs --connect")
        .parse()
        .expect("bad --connect address");
    let options = WorkerOptions {
        metrics_addr: None,
        flight_dump: None,
        data_dir: option("--data-dir").map(PathBuf::from),
        ..WorkerOptions::default()
    };
    match run_worker(addr, &options) {
        Ok(()) => std::process::exit(0),
        Err(e) => {
            eprintln!("worker failed: {e}");
            std::process::exit(1);
        }
    }
}

fn run_killed(
    config: &NetConfig,
    timeline: &Timeline,
    warm: bool,
    data_dir: &std::path::Path,
) -> WorkerFailure {
    let options = LocalOptions {
        workers: 3,
        worker_exe: None, // re-exec this example binary; main() dispatches
        inherit_stderr: false,
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
    let (report, observed) =
        run_local_observed(config, timeline, &options).expect("killed-worker run must complete");
    assert!(
        report.balance_deviation < 1.5,
        "run did not converge: deviation {}",
        report.balance_deviation
    );
    let failure = observed
        .failures
        .first()
        .expect("the injected kill must be observed")
        .clone();
    assert!(failure.healed, "the failure was not healed: {failure:?}");
    failure
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("worker") {
        worker_main(&args);
    }
    let smoke = args.iter().any(|a| a == "smoke");
    let (n_peers, timeline) = if smoke {
        (24, Timeline::SMOKE)
    } else {
        (48, Timeline::default())
    };
    let config = NetConfig {
        n_peers,
        keys_per_peer: 100,
        n_min: 5,
        distribution: Distribution::Uniform,
        seed: 12,
        ..NetConfig::default()
    };
    let base = std::env::temp_dir().join(format!("pgrid-durable-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    println!(
        "killing worker 2 of 3 at virtual minute 10, twice: cold heal vs warm restart \
         ({n_peers} peers, {} keys)\n",
        n_peers * config.keys_per_peer
    );
    println!("cold: shard reassigned, peers rebuilt from live replicas over the data plane ...");
    let cold = run_killed(&config, &timeline, false, &base.join("cold"));
    println!("warm: worker relaunched with its --data-dir, log replayed, shard reclaimed ...");
    let warm = run_killed(&config, &timeline, true, &base.join("warm"));

    println!("\n                        |      cold |      warm");
    println!(" ---------------------- | --------- | ---------");
    let row = |name: &str, a: u64, b: u64| println!(" {name:<22} | {a:>9} | {b:>9}");
    row(
        "detected after (ms)",
        cold.detected_after_ms,
        warm.detected_after_ms,
    );
    row("healing round (ms)", cold.recovery_ms, warm.recovery_ms);
    row(
        "rebuilt from replicas",
        cold.recovered_replica,
        warm.recovered_replica,
    );
    row(
        "rebuilt locally",
        cold.recovered_local,
        warm.recovered_local,
    );
    row(
        "replayed from log",
        cold.recovered_warm,
        warm.recovered_warm,
    );

    assert!(
        warm.rejoined && !cold.rejoined,
        "attribution mismatch: cold {cold:?}, warm {warm:?}"
    );
    assert_eq!(
        warm.recovered_warm, warm.shard_len,
        "the log did not cover the whole shard: {warm:?}"
    );
    println!(
        "\nok: the warm restart replayed all {} peers from its own log ({}ms healing round \
         vs {}ms rebuilding from replicas).",
        warm.recovered_warm, warm.recovery_ms, cold.recovery_ms
    );
    let _ = std::fs::remove_dir_all(&base);
}
