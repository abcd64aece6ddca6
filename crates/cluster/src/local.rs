//! Local cluster mode: coordinator in-process, workers as real child
//! processes.
//!
//! This is the zero-setup way to cross a process boundary — used by the
//! multi-process e2e test and the `pgrid-cluster local` subcommand.  The
//! coordinator binds an ephemeral loopback socket, spawns N copies of the
//! worker binary pointed at it, and runs the rendezvous exactly as it would
//! for workers started by hand on other machines.

use crate::coordinator::{
    run_coordinator_observed, ClusterConfig, HealConfig, ObsOptions, ObsReport,
};
use crate::worker::KILL_EXIT_CODE;
use pgrid_net::experiment::{DeploymentReport, Timeline};
use pgrid_net::runtime::NetConfig;
use std::io::{Error, Result};
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Options of a local (self-spawned) cluster run.
#[derive(Clone, Debug)]
pub struct LocalOptions {
    /// Number of worker processes to spawn.
    pub workers: usize,
    /// Path of the worker executable; `None` uses the current executable
    /// (correct when the caller *is* the `pgrid-cluster` binary — tests
    /// pass their `CARGO_BIN_EXE_pgrid-cluster` instead).
    pub worker_exe: Option<PathBuf>,
    /// Whether worker stderr is passed through (stdout is always null —
    /// workers print nothing on success).
    pub inherit_stderr: bool,
    /// Coordinator-side observability (tracing, merged scrape state,
    /// trace/metrics files, flight dump).
    pub obs: ObsOptions,
    /// Spawn every worker with `--metrics-addr 127.0.0.1:0`, so each one
    /// serves a live `/metrics` endpoint the coordinator probes mid-run.
    pub worker_metrics: bool,
    /// Directory the workers write their flight-recorder dumps into
    /// (`worker-<index>.jsonl`).
    pub worker_flight_dir: Option<PathBuf>,
    /// Failure detection and self-healing parameters (including the
    /// optional kill-worker fault injection).
    pub heal: HealConfig,
    /// Base directory for per-worker durable logs: worker `i` is spawned
    /// with `--data-dir <base>/worker-<i>`.  `None` runs without
    /// persistence (the pre-v6 behaviour).
    pub data_dir: Option<PathBuf>,
    /// Respawn a worker that exits with [`KILL_EXIT_CODE`] (fault
    /// injection) with identical arguments, so it can warm-rejoin from its
    /// durable log.  Requires `data_dir` to be useful and a
    /// `heal.rejoin_grace_ms > 0` coordinator to be accepted.
    pub relaunch: bool,
    /// Reactor event threads per worker (0 = one per core); forwarded as
    /// `--event-threads` when non-zero.
    pub n_event_threads: usize,
}

impl Default for LocalOptions {
    fn default() -> LocalOptions {
        LocalOptions {
            workers: 2,
            worker_exe: None,
            inherit_stderr: true,
            obs: ObsOptions::default(),
            worker_metrics: false,
            worker_flight_dir: None,
            heal: HealConfig::default(),
            data_dir: None,
            relaunch: false,
            n_event_threads: 0,
        }
    }
}

/// Kills whatever children are still running when the coordinator bails
/// out, so a failed run never leaks worker processes.
struct Reaper {
    children: Vec<Child>,
}

impl Drop for Reaper {
    fn drop(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Runs a full deployment as one coordinator (this process) plus
/// `options.workers` spawned worker processes, and returns the merged
/// report.
pub fn run_local(
    config: &NetConfig,
    timeline: &Timeline,
    options: &LocalOptions,
) -> Result<DeploymentReport> {
    run_local_observed(config, timeline, options).map(|(report, _)| report)
}

/// [`run_local`] returning the coordinator's observability report (merged
/// registry, trace events, worker scrape endpoints) alongside the
/// deployment report.
pub fn run_local_observed(
    config: &NetConfig,
    timeline: &Timeline,
    options: &LocalOptions,
) -> Result<(DeploymentReport, ObsReport)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let exe = match &options.worker_exe {
        Some(path) => path.clone(),
        None => std::env::current_exe()?,
    };

    let spawn = |index: usize| -> Result<Child> {
        let mut command = Command::new(&exe);
        command.arg("worker").arg("--connect").arg(addr.to_string());
        if options.worker_metrics {
            command.arg("--metrics-addr").arg("127.0.0.1:0");
        }
        if let Some(dir) = &options.worker_flight_dir {
            command
                .arg("--flight-dump")
                .arg(dir.join(format!("worker-{index}.jsonl")));
        }
        if let Some(dir) = &options.data_dir {
            command
                .arg("--data-dir")
                .arg(dir.join(format!("worker-{index}")));
        }
        if options.n_event_threads > 0 {
            command
                .arg("--event-threads")
                .arg(options.n_event_threads.to_string());
        }
        command
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(if options.inherit_stderr {
                Stdio::inherit()
            } else {
                Stdio::null()
            })
            .spawn()
    };

    let mut reaper = Reaper {
        children: Vec::with_capacity(options.workers),
    };
    for index in 0..options.workers {
        reaper.children.push(spawn(index)?);
    }

    let cluster = ClusterConfig {
        n_workers: options.workers,
        net: config.clone(),
        timeline: *timeline,
        heal: options.heal.clone(),
    };
    let result = if options.relaunch {
        // Hand the children to a monitor thread that respawns any worker
        // exiting with the fault-injection code — with identical arguments,
        // so it finds its durable log and warm-rejoins.  The slot index IS
        // the spawn index (a replacement takes its predecessor's slot).
        let stop = AtomicBool::new(false);
        let children = std::mem::take(&mut reaper.children);
        let monitor_loop = |mut children: Vec<Child>| -> Vec<Child> {
            while !stop.load(Ordering::SeqCst) {
                for (index, child) in children.iter_mut().enumerate() {
                    let Ok(Some(status)) = child.try_wait() else {
                        continue;
                    };
                    if status.code() != Some(KILL_EXIT_CODE) {
                        continue;
                    }
                    match spawn(index) {
                        Ok(replacement) => {
                            pgrid_obs::info!(
                                "cluster::local",
                                "worker process in slot {index} exited with the kill code; \
                                 relaunching it with the same arguments"
                            );
                            *child = replacement;
                        }
                        Err(e) => {
                            pgrid_obs::warn!(
                                "cluster::local",
                                "relaunch of worker process in slot {index} failed: {e}"
                            );
                        }
                    }
                }
                std::thread::sleep(Duration::from_millis(50));
            }
            children
        };
        std::thread::scope(|scope| {
            let monitor = scope.spawn(|| monitor_loop(children));
            let result = run_coordinator_observed(listener, &cluster, &options.obs);
            stop.store(true, Ordering::SeqCst);
            reaper.children = monitor.join().expect("relaunch monitor panicked");
            result
        })
    } else {
        run_coordinator_observed(listener, &cluster, &options.obs)
    };
    let (report, observed) = result?;

    // A clean run means every worker exits on its own with status 0 —
    // except the workers the coordinator itself watched die (injected
    // kills, real crashes): each observed failure excuses exactly one
    // non-success child exit.
    let mut failures_budget = observed.failures.len();
    let children = std::mem::take(&mut reaper.children);
    drop(reaper);
    for mut child in children {
        let status = child.wait()?;
        if !status.success() {
            if failures_budget > 0 {
                failures_budget -= 1;
                pgrid_obs::info!(
                    "cluster::local",
                    "worker process exited with {status} (coordinator-observed failure)"
                );
            } else {
                return Err(Error::other(format!("worker process exited with {status}")));
            }
        }
    }
    Ok((report, observed))
}
