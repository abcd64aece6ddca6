//! Observability end-to-end: structured tracing across real process
//! boundaries plus the live HTTP scrape plane.
//!
//! The run is the same 32-peer / 2-worker smoke deployment as
//! `cluster_e2e`, but with tracing enabled and every process serving
//! `/metrics`: the workers ship their per-query trace events and registry
//! snapshots to the coordinator at each phase barrier, the coordinator
//! probes the workers' endpoints over real HTTP mid-run and publishes the
//! merged cluster view on its own endpoint.  The assertions close the
//! loop: a lookup issued in one worker process must reassemble into a
//! complete hop chain whose events span peers of *both* shards.

#![cfg(target_os = "linux")]

use pgrid_cluster::coordinator::ObsOptions;
use pgrid_cluster::local::{run_local_observed, LocalOptions};
use pgrid_net::runtime::NetConfig;
use pgrid_obs::scrape::{http_get, ScrapeServer, ScrapeState};
use pgrid_obs::trace::assemble;
use pgrid_scenario::deployment::Timeline;
use pgrid_workload::distributions::Distribution;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

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

/// Pulls `metric{... worker="N" ...} value` series out of a Prometheus
/// text body.
fn series_values(body: &str, metric: &str) -> Vec<(String, f64)> {
    body.lines()
        .filter(|line| line.starts_with(metric))
        .filter_map(|line| {
            let worker = line.split("worker=\"").nth(1)?.split('"').next()?;
            let value = line.rsplit(' ').next()?.parse().ok()?;
            Some((worker.to_string(), value))
        })
        .collect()
}

#[test]
fn tracing_cluster_reassembles_cross_process_hop_chains_and_serves_metrics() {
    let dir = std::env::temp_dir().join(format!("pgrid-obs-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace_out = dir.join("trace.jsonl");
    let metrics_out = dir.join("metrics.prom");

    // The test owns the coordinator's scrape endpoint, so its address is
    // known before the blocking run starts.
    let state = ScrapeState::new();
    let server = ScrapeServer::serve(
        "127.0.0.1:0".parse().unwrap(),
        std::sync::Arc::clone(&state),
    )
    .expect("bind coordinator scrape endpoint");
    let coordinator_scrape = server.addr();

    let options = LocalOptions {
        workers: 2,
        worker_exe: Some(PathBuf::from(env!("CARGO_BIN_EXE_pgrid-cluster"))),
        inherit_stderr: true,
        obs: ObsOptions {
            tracing: true,
            scrape: Some(state),
            trace_out: Some(trace_out.clone()),
            flight_dump: None,
            metrics_out: Some(metrics_out.clone()),
        },
        worker_metrics: true,
        heal: Default::default(),
        ..LocalOptions::default()
    };
    let (config, timeline) = (config(), short_timeline());
    let run = std::thread::spawn(move || run_local_observed(&config, &timeline, &options));

    // While the deployment is in flight, discover a worker's ephemeral
    // /metrics port from the coordinator's merged view and scrape the
    // worker directly over HTTP.  Best effort under load — the coordinator
    // itself probes every worker at every barrier, which the final
    // registry assertions below pin down deterministically.
    let mut worker_scrape_body: Option<String> = None;
    let deadline = Instant::now() + Duration::from_secs(120);
    while !run.is_finished() && Instant::now() < deadline {
        if let Ok(body) = http_get(coordinator_scrape, "/metrics") {
            for (_, port) in series_values(&body, "pgrid_cluster_worker_metrics_port") {
                let addr: SocketAddr = format!("127.0.0.1:{}", port as u16).parse().unwrap();
                if let Ok(worker_body) = http_get(addr, "/metrics") {
                    worker_scrape_body = Some(worker_body);
                }
            }
            if worker_scrape_body.is_some() {
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(2));
    }

    let (report, observed) = run
        .join()
        .expect("run thread")
        .expect("the traced 2-process cluster run must complete");
    assert!(report.query_success_rate > 0.8);

    // A mid-run direct worker scrape returns that worker's own registry.
    if let Some(body) = &worker_scrape_body {
        assert!(
            body.contains("pgrid_cluster_worker_index")
                && body.contains("pgrid_transport_frames_sent_total"),
            "worker /metrics body lacks its registry:\n{body}"
        );
    }

    // The coordinator's endpoint still serves the final merged view over
    // real HTTP, with both workers' series labelled apart and at least one
    // successful coordinator-side HTTP probe of each worker's endpoint.
    let merged = http_get(coordinator_scrape, "/metrics").expect("coordinator /metrics");
    for worker in ["0", "1"] {
        assert!(
            merged.contains(&format!("worker=\"{worker}\"")),
            "no worker=\"{worker}\" series in the merged registry:\n{merged}"
        );
    }
    let probes = series_values(&merged, "pgrid_cluster_worker_scrape_ok_total");
    assert_eq!(probes.len(), 2, "expected 2 probe counters: {probes:?}");
    for (worker, ok) in &probes {
        assert!(
            *ok >= 1.0,
            "coordinator never scraped worker {worker} mid-run"
        );
    }
    // The per-barrier metrics file got its final flush too.
    let file = std::fs::read_to_string(&metrics_out).expect("metrics-out file");
    assert!(file.contains("pgrid_cluster_metrics_flushes_total"));

    // Trace events crossed the control plane from both ID spaces (worker
    // bases 1 and 2 tag the high bits).
    assert!(
        !observed.trace_events.is_empty(),
        "no trace events reached the coordinator"
    );
    let chains = assemble(&observed.trace_events);
    let bases: std::collections::BTreeSet<u64> = chains.keys().map(|id| id >> 40).collect();
    assert!(
        bases.len() >= 2,
        "trace IDs from one worker only (bases {bases:?})"
    );

    // At least one complete cross-process chain: issued, then answered on
    // a peer of the *other* shard, then resolved back at the issuer.
    let shard_of = |peer: u64| peer / 16;
    let complete_cross_process = chains.values().any(|chain| {
        let issued = chain.first().is_some_and(|e| e.kind == "query_issued");
        let resolved = chain.last().is_some_and(|e| e.kind == "query_resolved");
        let answered = chain.iter().any(|e| e.kind == "query_answered");
        let shards: std::collections::BTreeSet<u64> =
            chain.iter().map(|e| shard_of(e.peer)).collect();
        issued && answered && resolved && shards.len() == 2
    });
    assert!(
        complete_cross_process,
        "no complete hop chain spans both shards ({} chains)",
        chains.len()
    );
    // And every lookup chain that was issued, answered and resolved across
    // both shards reads in causal order, whatever each worker's virtual
    // clock stamped.
    for (id, chain) in &chains {
        let has = |kind: &str| chain.iter().any(|e| e.kind == kind);
        let shards: std::collections::BTreeSet<u64> =
            chain.iter().map(|e| shard_of(e.peer)).collect();
        if !(has("query_issued") && has("query_answered") && has("query_resolved"))
            || shards.len() != 2
        {
            continue;
        }
        let kinds: Vec<&str> = chain.iter().map(|e| e.kind).collect();
        assert!(
            kinds.first() == Some(&"query_issued") && kinds.last() == Some(&"query_resolved"),
            "chain {id:#x} out of causal order: {kinds:?}"
        );
    }

    // The merged trace also landed on disk as JSONL.
    let jsonl = std::fs::read_to_string(&trace_out).expect("trace-out file");
    assert!(jsonl.lines().count() >= observed.trace_events.len());
    assert!(jsonl
        .lines()
        .all(|l| l.starts_with('{') && l.ends_with('}')));

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn coordinator_dumps_flight_recorder_when_a_worker_fails() {
    use pgrid_cluster::coordinator::{run_coordinator_observed, ClusterConfig};
    use std::net::{TcpListener, TcpStream};

    let dir = std::env::temp_dir().join(format!("pgrid-obs-flight-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let dump = dir.join("coordinator-flight.jsonl");

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    // A "worker" that connects and immediately hangs up: the rendezvous
    // dies waiting for its Hello.
    let saboteur = std::thread::spawn(move || {
        let stream = TcpStream::connect(addr).expect("connect");
        drop(stream);
    });

    let cluster = ClusterConfig {
        n_workers: 1,
        net: config(),
        timeline: short_timeline(),
        heal: Default::default(),
    };
    let obs = ObsOptions {
        flight_dump: Some(dump.clone()),
        ..ObsOptions::default()
    };
    let result = run_coordinator_observed(listener, &cluster, &obs);
    saboteur.join().unwrap();
    assert!(result.is_err(), "the rendezvous must fail");

    let jsonl = std::fs::read_to_string(&dump).expect("flight dump written");
    assert!(
        jsonl.contains("worker failure"),
        "dump lacks the failure reason:\n{jsonl}"
    );
    assert!(
        jsonl.contains("worker_failure"),
        "dump lacks the recorded failure note:\n{jsonl}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
