//! `pgrid-cluster` — run the Section-5 deployment across real OS processes.
//!
//! ```text
//! pgrid-cluster local --workers 2 [--peers 48] [--seed 7] [--smoke]
//! pgrid-cluster coordinator --listen 127.0.0.1:7071 --workers 2 [--peers 48]
//! pgrid-cluster worker --connect 127.0.0.1:7071
//! ```
//!
//! `local` spawns the workers itself (child processes of this binary) and
//! is what CI exercises; `coordinator`/`worker` are the same roles started
//! by hand, e.g. on separate machines.  On success the coordinator prints
//! the merged per-minute series tail and the Section 5.2 summary.
//!
//! Observability flags (all optional):
//!
//! * `--metrics-addr ADDR` — serve a live `/metrics` + `/trace` HTTP
//!   endpoint (coordinator: the merged cluster view; worker: its own
//!   registry, refreshed at every phase barrier);
//! * `--trace` / `--trace-out PATH` — enable per-query structured tracing
//!   across all worker processes; `--trace-out` also writes the
//!   reassembled hop chains as JSONL on exit (and implies `--trace`);
//! * `--flight-dump PATH` — dump the flight recorder's ring as JSONL on
//!   panic, query timeout, or coordinator-observed worker failure;
//! * `--worker-metrics` (local mode) — spawn every worker with an
//!   ephemeral `--metrics-addr` of its own;
//! * `--metrics-out PATH` — write the merged Prometheus text dump, now
//!   re-flushed at every phase barrier rather than only at exit.
//!
//! Progress and error reporting goes through the `pgrid-obs` leveled
//! logger (filter with `PGRID_LOG`, e.g. `PGRID_LOG=debug`); the report
//! tables on stdout are program output and stay `println!`.

use pgrid_cluster::coordinator::{
    run_coordinator_observed, ClusterConfig, HealConfig, KillPlan, ObsOptions, ObsReport,
};
use pgrid_cluster::local::{run_local_observed, LocalOptions};
use pgrid_cluster::worker::{run_worker, TransportChoice, WorkerOptions};
use pgrid_net::experiment::{DeploymentReport, Timeline};
use pgrid_net::runtime::NetConfig;
use pgrid_obs::scrape::{ScrapeServer, ScrapeState};
use pgrid_workload::distributions::Distribution;
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

fn usage() -> ExitCode {
    eprintln!(
        "usage: pgrid-cluster local --workers N [--peers N] [--seed S] [--n-min N] [--smoke] [--data-dir DIR] [--relaunch] [--transport tcp|reactor] [--event-threads N] [HEAL] [OBS]\n\
         \x20      pgrid-cluster coordinator --listen ADDR --workers N [--peers N] [--seed S] [--n-min N] [--smoke] [HEAL] [OBS]\n\
         \x20      pgrid-cluster worker --connect ADDR [--metrics-addr ADDR] [--flight-dump PATH] [--data-dir DIR] [--transport tcp|reactor] [--event-threads N]\n\
         \x20      HEAL: [--heartbeat-ms MS] [--failure-timeout-ms MS] [--no-heal]\n\
         \x20            [--rejoin-grace-ms MS] [--kill-worker INDEX [--kill-at-min MIN]]\n\
         \x20      OBS: [--metrics-out PATH] [--metrics-addr ADDR] [--trace] [--trace-out PATH]\n\
         \x20           [--flight-dump PATH] [--worker-metrics (local only)]"
    );
    ExitCode::from(2)
}

fn option(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|at| args.get(at + 1))
        .cloned()
}

/// The `--transport` / `--event-threads` pair shared by `local` and
/// `worker`.
fn transport_config(args: &[String]) -> (TransportChoice, usize) {
    let choice = option(args, "--transport")
        .map(|v| v.parse().unwrap_or_else(|e| panic!("{e}")))
        .unwrap_or_default();
    let threads = option(args, "--event-threads")
        .map(|v| v.parse().expect("--event-threads takes an integer"))
        .unwrap_or(0);
    (choice, threads)
}

/// The run configuration of the coordinator-side subcommands.
fn run_config(args: &[String]) -> (NetConfig, Timeline) {
    let smoke = args.iter().any(|a| a == "--smoke");
    let timeline = if smoke {
        Timeline {
            join_end_min: 3,
            replicate_end_min: 5,
            construct_end_min: 18,
            range_end_min: 0,
            query_end_min: 22,
            end_min: 25,
        }
    } else {
        Timeline::default()
    };
    let n_peers = option(args, "--peers")
        .map(|v| v.parse().expect("--peers takes an integer"))
        .unwrap_or(if smoke { 32 } else { 64 });
    let seed = option(args, "--seed")
        .map(|v| v.parse().expect("--seed takes an integer"))
        .unwrap_or(12);
    let n_min = option(args, "--n-min")
        .map(|v| v.parse().expect("--n-min takes an integer"))
        .unwrap_or(5);
    let config = NetConfig {
        n_peers,
        keys_per_peer: 10,
        n_min,
        distribution: Distribution::Uniform,
        seed,
        ..NetConfig::default()
    };
    (config, timeline)
}

/// Failure-detection, healing and fault-injection flags of the
/// coordinator-side subcommands.
fn heal_config(args: &[String]) -> HealConfig {
    let mut heal = HealConfig::default();
    if let Some(v) = option(args, "--heartbeat-ms") {
        heal.heartbeat_ms = v.parse().expect("--heartbeat-ms takes milliseconds");
    }
    if let Some(v) = option(args, "--failure-timeout-ms") {
        heal.failure_timeout_ms = v.parse().expect("--failure-timeout-ms takes milliseconds");
    }
    if args.iter().any(|a| a == "--no-heal") {
        heal.heal = false;
    }
    if let Some(v) = option(args, "--rejoin-grace-ms") {
        heal.rejoin_grace_ms = v.parse().expect("--rejoin-grace-ms takes milliseconds");
    }
    if let Some(v) = option(args, "--kill-worker") {
        heal.kill = Some(KillPlan {
            worker: v.parse().expect("--kill-worker takes a worker index"),
            at_min: option(args, "--kill-at-min")
                .map(|v| v.parse().expect("--kill-at-min takes a minute"))
                .unwrap_or(10),
        });
    }
    heal
}

/// Coordinator-side observability options from the command line.  Binds
/// the scrape server here (before the blocking run starts) so the
/// endpoint is live for the whole deployment; the server handle rides
/// along to keep it alive.
fn obs_config(args: &[String]) -> std::io::Result<(ObsOptions, Option<ScrapeServer>)> {
    let trace_out = option(args, "--trace-out").map(PathBuf::from);
    let mut obs = ObsOptions {
        tracing: args.iter().any(|a| a == "--trace") || trace_out.is_some(),
        scrape: None,
        trace_out,
        flight_dump: option(args, "--flight-dump").map(PathBuf::from),
        metrics_out: option(args, "--metrics-out").map(PathBuf::from),
    };
    let mut server = None;
    if let Some(addr) = option(args, "--metrics-addr") {
        let state = Arc::new(ScrapeState::default());
        let bound = ScrapeServer::serve(
            addr.parse()
                .map_err(|e| std::io::Error::other(format!("bad --metrics-addr {addr}: {e}")))?,
            Arc::clone(&state),
        )?;
        pgrid_obs::info!(
            "cluster::main",
            "coordinator /metrics endpoint on http://{}",
            bound.addr()
        );
        obs.scrape = Some(state);
        server = Some(bound);
    }
    Ok((obs, server))
}

fn print_failures(observed: &ObsReport) {
    for f in &observed.failures {
        println!(
            "  worker {} failure: shard {}+{} detected after {}ms, {}",
            f.worker,
            f.shard_start,
            f.shard_len,
            f.detected_after_ms,
            if f.rejoined {
                format!(
                    "warm-rejoined in {}ms ({} peers replayed from the durable log)",
                    f.recovery_ms, f.recovered_warm
                )
            } else if f.healed {
                format!(
                    "healed in {}ms ({} peers from replicas, {} locally)",
                    f.recovery_ms, f.recovered_replica, f.recovered_local
                )
            } else {
                "not healed (partial report)".to_string()
            }
        );
    }
}

fn print_report(report: &DeploymentReport, workers: usize) {
    println!("\nmerged per-minute series (tail):");
    println!(
        "{:>7} {:>7} {:>12} {:>12} {:>11}",
        "minute", "peers", "maint B/s", "query B/s", "lat mean s"
    );
    for sample in report.timeline.iter().rev().take(8).rev() {
        println!(
            "{:>7} {:>7} {:>12.1} {:>12.1} {:>11.3}",
            sample.minute,
            sample.peers_online,
            sample.maintenance_bps,
            sample.query_bps,
            sample.query_latency_mean_s
        );
    }
    println!("\ncluster summary ({workers} worker processes):");
    println!("  balance_deviation  = {:.3}", report.balance_deviation);
    println!("  mean_path_length   = {:.2}", report.mean_path_length);
    println!("  mean_query_hops    = {:.2}", report.mean_query_hops);
    println!("  query_success_rate = {:.3}", report.query_success_rate);
    println!("  mean_replication   = {:.2}", report.mean_replication);
    println!(
        "  frames sent/delivered = {}/{}  ({} bytes on the wire)",
        report.transport.frames_sent,
        report.transport.frames_delivered,
        report.transport.bytes_sent
    );
    if let Some(reactor) = &report.transport.reactor {
        println!(
            "  reactor: {} peers on {} fds, {} epoll wakeups ({:.4}/frame), \
             {} partial writes, {} reconnects, {} dropped",
            reactor.registered_peers,
            reactor.registered_fds,
            reactor.epoll_wakeups,
            reactor.epoll_wakeups as f64 / report.transport.frames_delivered.max(1) as f64,
            reactor.partial_writes,
            reactor.reconnects,
            reactor.dropped_frames
        );
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(mode) = args.first().map(String::as_str) else {
        return usage();
    };
    match mode {
        "local" => {
            let workers = option(&args, "--workers")
                .map(|v| v.parse().expect("--workers takes an integer"))
                .unwrap_or(2);
            let (config, timeline) = run_config(&args);
            let (obs, _scrape_server) = match obs_config(&args) {
                Ok(pair) => pair,
                Err(e) => {
                    pgrid_obs::error!("cluster::main", "{e}");
                    return ExitCode::FAILURE;
                }
            };
            pgrid_obs::info!(
                "cluster::main",
                "local cluster: {workers} worker processes hosting {} peers (seed {})",
                config.n_peers,
                config.seed
            );
            let (transport, n_event_threads) = transport_config(&args);
            let options = LocalOptions {
                workers,
                worker_exe: None,
                inherit_stderr: true,
                obs,
                worker_metrics: args.iter().any(|a| a == "--worker-metrics"),
                worker_flight_dir: None,
                heal: heal_config(&args),
                data_dir: option(&args, "--data-dir").map(PathBuf::from),
                relaunch: args.iter().any(|a| a == "--relaunch"),
                transport,
                n_event_threads,
            };
            match run_local_observed(&config, &timeline, &options) {
                Ok((report, observed)) => {
                    print_report(&report, workers);
                    print_failures(&observed);
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    pgrid_obs::error!("cluster::main", "local cluster failed: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "coordinator" => {
            let Some(listen) = option(&args, "--listen") else {
                return usage();
            };
            let workers = option(&args, "--workers")
                .map(|v| v.parse().expect("--workers takes an integer"))
                .unwrap_or(2);
            let (config, timeline) = run_config(&args);
            let (obs, _scrape_server) = match obs_config(&args) {
                Ok(pair) => pair,
                Err(e) => {
                    pgrid_obs::error!("cluster::main", "{e}");
                    return ExitCode::FAILURE;
                }
            };
            let listener = match TcpListener::bind(&listen) {
                Ok(l) => l,
                Err(e) => {
                    pgrid_obs::error!("cluster::main", "cannot listen on {listen}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            pgrid_obs::info!(
                "cluster::main",
                "coordinator on {listen}: waiting for {workers} workers ({} peers, seed {})",
                config.n_peers,
                config.seed
            );
            let cluster = ClusterConfig {
                n_workers: workers,
                net: config,
                timeline,
                heal: heal_config(&args),
            };
            match run_coordinator_observed(listener, &cluster, &obs) {
                Ok((report, observed)) => {
                    print_report(&report, workers);
                    print_failures(&observed);
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    pgrid_obs::error!("cluster::main", "coordinator failed: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "worker" => {
            let Some(connect) = option(&args, "--connect") else {
                return usage();
            };
            let addr = match connect.parse() {
                Ok(addr) => addr,
                Err(e) => {
                    pgrid_obs::error!("cluster::main", "bad --connect address {connect}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let (transport, n_event_threads) = transport_config(&args);
            let options = WorkerOptions {
                metrics_addr: option(&args, "--metrics-addr").map(|a| {
                    a.parse()
                        .expect("--metrics-addr takes a socket address like 127.0.0.1:0")
                }),
                flight_dump: option(&args, "--flight-dump").map(PathBuf::from),
                data_dir: option(&args, "--data-dir").map(PathBuf::from),
                transport,
                n_event_threads,
            };
            match run_worker(addr, &options) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    pgrid_obs::error!("cluster::main", "worker failed: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => usage(),
    }
}
