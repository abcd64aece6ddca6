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
use pgrid_cluster::worker::{run_worker, WorkerOptions};
use pgrid_net::runtime::NetConfig;
use pgrid_obs::scrape::{ScrapeServer, ScrapeState};
use pgrid_scenario::deployment::{DeploymentReport, Timeline};
use pgrid_workload::distributions::Distribution;
use std::fmt::Display;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;

const USAGE: &str = "\
usage: pgrid-cluster local --workers N [--peers N] [--seed S] [--n-min N] [--smoke] [--data-dir DIR] [--relaunch] [--event-threads N] [HEAL] [OBS]
       pgrid-cluster coordinator --listen ADDR --workers N [--peers N] [--seed S] [--n-min N] [--smoke] [HEAL] [OBS]
       pgrid-cluster worker --connect ADDR [--metrics-addr ADDR] [--flight-dump PATH] [--data-dir DIR] [--event-threads N]
       HEAL: [--heartbeat-ms MS] [--failure-timeout-ms MS] [--no-heal]
             [--rejoin-grace-ms MS] [--kill-worker INDEX [--kill-at-min MIN]]
       OBS: [--metrics-out PATH] [--metrics-addr ADDR] [--trace] [--trace-out PATH]
            [--flight-dump PATH] [--worker-metrics (local only)]";

/// Every flag: the subcommands that know it (`l`ocal, `c`oordinator,
/// `w`orker) and whether a value follows it.
const FLAGS: &[(&str, &str, bool)] = &[
    ("--workers", "lc", true),
    ("--peers", "lc", true),
    ("--seed", "lc", true),
    ("--n-min", "lc", true),
    ("--smoke", "lc", false),
    ("--listen", "c", true),
    ("--connect", "w", true),
    ("--data-dir", "lw", true),
    ("--relaunch", "l", false),
    ("--event-threads", "lw", true),
    ("--heartbeat-ms", "lc", true),
    ("--failure-timeout-ms", "lc", true),
    ("--no-heal", "lc", false),
    ("--rejoin-grace-ms", "lc", true),
    ("--kill-worker", "lc", true),
    ("--kill-at-min", "lc", true),
    ("--metrics-out", "lc", true),
    ("--metrics-addr", "lcw", true),
    ("--trace", "lc", false),
    ("--trace-out", "lc", true),
    ("--flight-dump", "lcw", true),
    ("--worker-metrics", "l", false),
];

/// Checks the arguments after subcommand `mode` against [`FLAGS`]: each
/// must be a flag `mode` knows, followed by its value if it takes one (a
/// value never starts with `--`, so a missing one is not mistaken for the
/// next flag).
fn check_flags(mode: &str, args: &[String]) -> Result<(), String> {
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        let known = FLAGS
            .iter()
            .find(|(name, modes, _)| name == arg && modes.contains(&mode[..1]));
        match known {
            None => return Err(format!("unknown {mode} argument {arg}")),
            Some((_, _, true)) if !rest.next().is_some_and(|v| !v.starts_with("--")) => {
                return Err(format!("{arg} needs a value"))
            }
            Some(_) => {}
        }
    }
    Ok(())
}

/// The parsed value of flag `name`; `None` when the flag is absent.
fn parsed<T: FromStr>(args: &[String], name: &str) -> Result<Option<T>, String>
where
    T::Err: Display,
{
    let Some(at) = args.iter().position(|arg| arg == name) else {
        return Ok(None);
    };
    let value = args
        .get(at + 1)
        .ok_or_else(|| format!("{name} needs a value"))?;
    match value.parse() {
        Ok(value) => Ok(Some(value)),
        Err(e) => Err(format!("bad {name} value {value:?}: {e}")),
    }
}

fn switch(args: &[String], name: &str) -> bool {
    args.iter().any(|arg| arg == name)
}

/// A fully parsed command line: everything `main` needs, nothing started.
#[derive(Debug)]
enum Invocation {
    Local {
        config: NetConfig,
        timeline: Timeline,
        options: LocalOptions,
        metrics_addr: Option<SocketAddr>,
    },
    Coordinator {
        listen: String,
        cluster: ClusterConfig,
        obs: ObsOptions,
        metrics_addr: Option<SocketAddr>,
    },
    Worker {
        connect: SocketAddr,
        options: WorkerOptions,
    },
}

fn parse(args: &[String]) -> Result<Invocation, String> {
    let (mode, args) = args.split_first().ok_or("no subcommand")?;
    if !["local", "coordinator", "worker"].contains(&mode.as_str()) {
        return Err(format!("unknown subcommand {mode}"));
    }
    check_flags(mode, args)?;
    match mode.as_str() {
        "local" => {
            let (config, timeline) = run_config(args)?;
            Ok(Invocation::Local {
                config,
                timeline,
                options: LocalOptions {
                    workers: parsed(args, "--workers")?.unwrap_or(2),
                    obs: obs_config(args)?,
                    worker_metrics: switch(args, "--worker-metrics"),
                    heal: heal_config(args)?,
                    data_dir: parsed(args, "--data-dir")?,
                    relaunch: switch(args, "--relaunch"),
                    n_event_threads: parsed(args, "--event-threads")?.unwrap_or(0),
                    ..LocalOptions::default()
                },
                metrics_addr: parsed(args, "--metrics-addr")?,
            })
        }
        "coordinator" => {
            let (net, timeline) = run_config(args)?;
            Ok(Invocation::Coordinator {
                listen: parsed(args, "--listen")?.ok_or("coordinator needs --listen ADDR")?,
                cluster: ClusterConfig {
                    n_workers: parsed(args, "--workers")?.unwrap_or(2),
                    net,
                    timeline,
                    heal: heal_config(args)?,
                },
                obs: obs_config(args)?,
                metrics_addr: parsed(args, "--metrics-addr")?,
            })
        }
        _ => Ok(Invocation::Worker {
            connect: parsed(args, "--connect")?.ok_or("worker needs --connect ADDR")?,
            options: WorkerOptions {
                metrics_addr: parsed(args, "--metrics-addr")?,
                flight_dump: parsed(args, "--flight-dump")?,
                data_dir: parsed(args, "--data-dir")?,
                n_event_threads: parsed(args, "--event-threads")?.unwrap_or(0),
            },
        }),
    }
}

/// The run configuration of the coordinator-side subcommands.
fn run_config(args: &[String]) -> Result<(NetConfig, Timeline), String> {
    let smoke = switch(args, "--smoke");
    let timeline = if smoke {
        Timeline::SMOKE
    } else {
        Timeline::default()
    };
    let config = NetConfig {
        n_peers: parsed(args, "--peers")?.unwrap_or(if smoke { 32 } else { 64 }),
        keys_per_peer: 10,
        n_min: parsed(args, "--n-min")?.unwrap_or(5),
        distribution: Distribution::Uniform,
        seed: parsed(args, "--seed")?.unwrap_or(12),
        ..NetConfig::default()
    };
    Ok((config, timeline))
}

/// Failure-detection, healing and fault-injection flags of the
/// coordinator-side subcommands.
fn heal_config(args: &[String]) -> Result<HealConfig, String> {
    let default = HealConfig::default();
    Ok(HealConfig {
        heartbeat_ms: parsed(args, "--heartbeat-ms")?.unwrap_or(default.heartbeat_ms),
        failure_timeout_ms: parsed(args, "--failure-timeout-ms")?
            .unwrap_or(default.failure_timeout_ms),
        heal: !switch(args, "--no-heal"),
        rejoin_grace_ms: parsed(args, "--rejoin-grace-ms")?.unwrap_or(default.rejoin_grace_ms),
        kill: match parsed(args, "--kill-worker")? {
            Some(worker) => Some(KillPlan {
                worker,
                at_min: parsed(args, "--kill-at-min")?.unwrap_or(10),
            }),
            None => None,
        },
    })
}

/// Coordinator-side observability options from the command line (the
/// scrape endpoint of `--metrics-addr` is bound by [`serve_scrape`]).
fn obs_config(args: &[String]) -> Result<ObsOptions, String> {
    let trace_out: Option<PathBuf> = parsed(args, "--trace-out")?;
    Ok(ObsOptions {
        tracing: switch(args, "--trace") || trace_out.is_some(),
        scrape: None,
        trace_out,
        flight_dump: parsed(args, "--flight-dump")?,
        metrics_out: parsed(args, "--metrics-out")?,
    })
}

/// Binds the coordinator's scrape server before the blocking run starts,
/// so the endpoint is live for the whole deployment; the returned handle
/// keeps it alive.
fn serve_scrape(
    obs: &mut ObsOptions,
    addr: Option<SocketAddr>,
) -> std::io::Result<Option<ScrapeServer>> {
    let Some(addr) = addr else { return Ok(None) };
    let state = Arc::new(ScrapeState::default());
    let server = ScrapeServer::serve(addr, Arc::clone(&state))?;
    pgrid_obs::info!(
        "cluster::main",
        "coordinator /metrics endpoint on http://{}",
        server.addr()
    );
    obs.scrape = Some(state);
    Ok(Some(server))
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

fn run(invocation: Invocation) -> std::io::Result<()> {
    let (report, observed, workers) = match invocation {
        Invocation::Local {
            config,
            timeline,
            mut options,
            metrics_addr,
        } => {
            let _scrape_server = serve_scrape(&mut options.obs, metrics_addr)?;
            pgrid_obs::info!(
                "cluster::main",
                "local cluster: {} worker processes hosting {} peers (seed {})",
                options.workers,
                config.n_peers,
                config.seed
            );
            let (report, observed) = run_local_observed(&config, &timeline, &options)?;
            (report, observed, options.workers)
        }
        Invocation::Coordinator {
            listen,
            cluster,
            mut obs,
            metrics_addr,
        } => {
            let _scrape_server = serve_scrape(&mut obs, metrics_addr)?;
            let listener = TcpListener::bind(&listen).map_err(|e| {
                std::io::Error::new(e.kind(), format!("cannot listen on {listen}: {e}"))
            })?;
            pgrid_obs::info!(
                "cluster::main",
                "coordinator on {listen}: waiting for {} workers ({} peers, seed {})",
                cluster.n_workers,
                cluster.net.n_peers,
                cluster.net.seed
            );
            let (report, observed) = run_coordinator_observed(listener, &cluster, &obs)?;
            (report, observed, cluster.n_workers)
        }
        Invocation::Worker { connect, options } => return run_worker(connect, &options),
    };
    print_report(&report, workers);
    print_failures(&observed);
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let invocation = match parse(&args) {
        Ok(invocation) => invocation,
        Err(problem) => {
            eprintln!("pgrid-cluster: {problem}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(invocation) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            pgrid_obs::error!("cluster::main", "{} failed: {e}", args[0]);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_line(line: &str) -> Result<Invocation, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&args)
    }

    #[test]
    fn a_misspelt_flag_is_refused_not_ignored() {
        let problem = parse_line("local --worker 3").unwrap_err();
        assert_eq!(problem, "unknown local argument --worker");
        // Known to another subcommand is still unknown to this one.
        assert!(parse_line("worker --connect 127.0.0.1:7071 --workers 2").is_err());
        assert!(parse_line("coordinator --listen 127.0.0.1:7071 --worker-metrics").is_err());
        assert!(parse_line("local 3").is_err(), "a stray positional");
        assert!(parse_line("locale --workers 2").is_err());
        assert!(parse_line("").is_err());
    }

    #[test]
    fn a_missing_value_is_refused_not_borrowed_from_the_next_flag() {
        assert_eq!(
            parse_line("local --peers").unwrap_err(),
            "--peers needs a value"
        );
        assert_eq!(
            parse_line("local --peers --smoke").unwrap_err(),
            "--peers needs a value"
        );
        assert!(parse_line("worker --connect").is_err());
    }

    #[test]
    fn a_bad_value_is_an_error_not_a_panic() {
        for line in [
            "local --peers x",
            "local --workers -1",
            "local --kill-worker 1 --kill-at-min soon",
            "coordinator --listen 127.0.0.1:7071 --metrics-addr nowhere",
            "worker --connect localhost",
            "worker --connect 127.0.0.1:7071 --event-threads many",
        ] {
            let problem = parse_line(line).unwrap_err();
            assert!(problem.starts_with("bad --"), "{line}: {problem}");
        }
        assert!(
            parse_line("coordinator --workers 2").is_err(),
            "no --listen"
        );
        assert!(parse_line("worker").is_err(), "no --connect");
    }

    #[test]
    fn a_full_local_line_lands_in_the_options() {
        let line = "local --workers 3 --peers 48 --seed 7 --n-min 4 --smoke --data-dir logs \
                    --relaunch --event-threads 2 --heartbeat-ms 200 \
                    --failure-timeout-ms 8000 --rejoin-grace-ms 30000 --kill-worker 2 \
                    --trace-out t.jsonl --metrics-addr 127.0.0.1:0 --worker-metrics";
        let Invocation::Local {
            config,
            timeline,
            options,
            metrics_addr,
        } = parse_line(line).unwrap()
        else {
            panic!("not a local invocation");
        };
        assert_eq!((config.n_peers, config.seed, config.n_min), (48, 7, 4));
        assert_eq!((timeline.construct_end_min, timeline.end_min), (18, 25));
        assert_eq!(options.workers, 3);
        assert_eq!(options.data_dir, Some(PathBuf::from("logs")));
        assert!(options.relaunch && options.worker_metrics && options.inherit_stderr);
        assert_eq!(options.n_event_threads, 2);
        let heal = &options.heal;
        assert_eq!(
            (
                heal.heartbeat_ms,
                heal.failure_timeout_ms,
                heal.rejoin_grace_ms
            ),
            (200, 8_000, 30_000)
        );
        let kill = heal.kill.expect("--kill-worker");
        assert_eq!((kill.worker, kill.at_min), (2, 10));
        assert!(heal.heal);
        assert!(options.obs.tracing, "--trace-out implies --trace");
        assert_eq!(metrics_addr, Some("127.0.0.1:0".parse().unwrap()));
    }

    #[test]
    fn defaults_and_the_other_subcommands_parse() {
        let Invocation::Local {
            config, options, ..
        } = parse_line("local").unwrap()
        else {
            panic!("not a local invocation");
        };
        assert_eq!((options.workers, config.n_peers, config.seed), (2, 64, 12));
        assert!(options.heal.kill.is_none() && !options.obs.tracing);

        let Invocation::Coordinator {
            listen, cluster, ..
        } = parse_line("coordinator --listen 0.0.0.0:7071 --workers 4 --no-heal --smoke").unwrap()
        else {
            panic!("not a coordinator invocation");
        };
        assert_eq!((listen.as_str(), cluster.n_workers), ("0.0.0.0:7071", 4));
        assert!(!cluster.heal.heal);
        assert_eq!(cluster.net.n_peers, 32);

        let Invocation::Worker { connect, options } =
            parse_line("worker --connect 127.0.0.1:7071 --flight-dump w.jsonl").unwrap()
        else {
            panic!("not a worker invocation");
        };
        assert_eq!(connect.port(), 7071);
        assert_eq!(options.flight_dump, Some(PathBuf::from("w.jsonl")));
        assert_eq!(options.n_event_threads, 0, "one event thread per core");
    }
}
