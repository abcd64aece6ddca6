//! The rendezvous coordinator: one socket, N workers, one merged report.
//!
//! The coordinator owns no peers.  It assigns contiguous shards in accept
//! order, relays the address book so every worker can wire every foreign
//! peer as a transport remote, releases the phase barriers once all workers
//! reached them, and merges the streamed per-minute samples plus the final
//! shard reports into a single [`DeploymentReport`] through the same
//! [`assemble_report`] pipeline the single-process driver uses.
//!
//! Since proto v5 the coordinator is also the cluster's failure detector
//! and healer: it polls every worker's control channel (instead of blocking
//! on one at a time), tracks liveness through heartbeats, and when a worker
//! dies mid-run it reassigns the orphaned shard onto the survivors at the
//! next barrier — who take over the endpoints and rebuild the lost peers'
//! state from live P-Grid replicas (see [`crate::worker`]).  With healing
//! disabled a failure degrades the run instead of aborting it: the dead
//! shard goes dark, the flight recorder dumps, and the final report is
//! assembled from whatever the survivors deliver.

use crate::plan::shard_assignment;
use crate::proto::{
    ClusterMsg, ControlChannel, ReassignMove, ShardReport, PHASE_DONE, PHASE_WIRED,
};
use pgrid_core::path::Path;
use pgrid_net::experiment::{assemble_report, DeploymentReport, ReportInputs, Timeline};
use pgrid_net::runtime::{generate_peers, BandwidthSample, NetConfig};
use pgrid_obs::recorder::FlightRecorder;
use pgrid_obs::registry::MetricsRegistry;
use pgrid_obs::scrape::{http_get, ScrapeState};
use pgrid_obs::trace::{assemble, TraceEvent};
use pgrid_transport::TransportStats;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeSet, HashMap};
use std::io::{Error, ErrorKind, Result, Write as _};
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long the coordinator waits for all workers to connect.
const ACCEPT_TIMEOUT: Duration = Duration::from_secs(120);

/// How long the coordinator waits for one worker to finish a phase.
const PHASE_TIMEOUT: Duration = Duration::from_secs(600);

/// How long the coordinator waits for a recovery step (endpoint takeover,
/// replica rebuild) of one healing round.
const RECOVERY_TIMEOUT: Duration = Duration::from_secs(120);

/// A cluster run description.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of worker processes that will connect.
    pub n_workers: usize,
    /// The deployment configuration every worker receives.
    pub net: NetConfig,
    /// The phase timeline every worker receives.
    pub timeline: Timeline,
    /// Failure detection and self-healing parameters.
    pub heal: HealConfig,
}

/// Failure-detection and healing parameters of a cluster run.
#[derive(Clone, Debug)]
pub struct HealConfig {
    /// Wall-clock interval between worker heartbeats (milliseconds; `0`
    /// disables heartbeat-based detection, leaving only EOF detection).
    pub heartbeat_ms: u64,
    /// Wall-clock silence after which a worker is declared dead
    /// (milliseconds; only meaningful with heartbeats enabled).
    pub failure_timeout_ms: u64,
    /// Whether a dead worker's shard is reassigned onto the survivors
    /// (`false` records the failure and degrades the run instead).
    pub heal: bool,
    /// Wall-clock window after a failure during which a relaunched worker
    /// may reconnect and reclaim its own shard from its durable log
    /// (milliseconds; `0` disables warm rejoin and always reassigns).
    pub rejoin_grace_ms: u64,
    /// Fault injection: make one worker kill its own process at a virtual
    /// minute of the timeline.
    pub kill: Option<KillPlan>,
}

impl Default for HealConfig {
    fn default() -> HealConfig {
        HealConfig {
            heartbeat_ms: 500,
            failure_timeout_ms: 10_000,
            heal: true,
            rejoin_grace_ms: 0,
            kill: None,
        }
    }
}

/// Fault injection: one worker kills its own process mid-run.
#[derive(Clone, Copy, Debug)]
pub struct KillPlan {
    /// Index of the worker to kill (in accept order).
    pub worker: u32,
    /// Virtual minute at which the worker exits.
    pub at_min: u64,
}

/// Observability options of a coordinator run.
#[derive(Clone, Debug, Default)]
pub struct ObsOptions {
    /// Enable structured tracing on every worker; the coordinator merges
    /// the shipped batches into cluster-wide hop chains.
    pub tracing: bool,
    /// A caller-owned scrape state the coordinator publishes the merged
    /// registry and traces into at every phase barrier (the caller binds
    /// the [`pgrid_obs::scrape::ScrapeServer`] itself, so it knows the
    /// address up front).
    pub scrape: Option<Arc<ScrapeState>>,
    /// Where the merged trace is written as JSONL when the run finishes.
    pub trace_out: Option<PathBuf>,
    /// Where the coordinator's flight recorder dumps when a worker fails.
    pub flight_dump: Option<PathBuf>,
    /// Where the merged Prometheus text is flushed at every phase barrier
    /// (and once more with the final report).
    pub metrics_out: Option<PathBuf>,
}

/// What the coordinator observed beyond the deployment report.
#[derive(Debug, Default)]
pub struct ObsReport {
    /// The merged registry at the end of the run (worker series labelled
    /// `worker="<index>"`).
    pub registry: MetricsRegistry,
    /// Every trace event shipped by any worker, in arrival order.
    pub trace_events: Vec<TraceEvent>,
    /// Scrape endpoint of each worker, in shard order (when serving).
    pub worker_metrics_addrs: Vec<Option<SocketAddr>>,
    /// Every worker failure the coordinator detected, in detection order.
    pub failures: Vec<WorkerFailure>,
}

/// One worker death as the coordinator observed (and possibly healed) it.
#[derive(Clone, Debug)]
pub struct WorkerFailure {
    /// Index of the dead worker.
    pub worker: u32,
    /// First peer id of the orphaned shard.
    pub shard_start: u64,
    /// Number of orphaned peers.
    pub shard_len: u64,
    /// Wall-clock milliseconds between the worker's last sign of life and
    /// the coordinator declaring it dead (the detection latency).
    pub detected_after_ms: u64,
    /// Whether the shard was reassigned onto survivors.
    pub healed: bool,
    /// Wall-clock milliseconds the healing round took (reassignment,
    /// endpoint takeovers, replica rebuilds); `0` when not healed.
    pub recovery_ms: u64,
    /// Orphans whose state was rebuilt from a live replica.
    pub recovered_replica: u64,
    /// Orphans restored from the seeded local regeneration (no reachable
    /// replica).
    pub recovered_local: u64,
    /// Whether the dead worker itself reconnected and reclaimed the shard
    /// from its durable log (a warm restart) instead of being reassigned.
    pub rejoined: bool,
    /// Orphans replayed from the rejoining worker's durable log.
    pub recovered_warm: u64,
}

fn protocol_error(what: &str, got: &ClusterMsg) -> Error {
    Error::new(
        ErrorKind::InvalidData,
        format!("expected {what}, got {got:?}"),
    )
}

/// Coordinator-side observability merge state, rebuilt into one registry
/// at each phase barrier.
struct ObsMerge {
    /// Latest registry snapshot streamed by each worker.
    worker_regs: Vec<Option<MetricsRegistry>>,
    /// Successful mid-run `/metrics` probes of each worker so far.
    scrape_ok: Vec<u64>,
    /// Body size of each worker's most recent successful probe.
    scrape_bytes: Vec<u64>,
    /// Merged publications performed (one per barrier plus the final one).
    flushes: u64,
    /// Trace events already pushed to the scrape state.
    published_events: usize,
}

impl ObsMerge {
    fn new(n_workers: usize) -> ObsMerge {
        ObsMerge {
            worker_regs: vec![None; n_workers],
            scrape_ok: vec![0; n_workers],
            scrape_bytes: vec![0; n_workers],
            flushes: 0,
            published_events: 0,
        }
    }

    /// Probes every announced worker scrape endpoint over real HTTP,
    /// rebuilds the cluster-wide registry (worker series labelled
    /// `worker="<index>"`), publishes it to the scrape state and the
    /// per-barrier metrics file, and returns it.
    fn barrier_publish(
        &mut self,
        phase: u8,
        cluster: &ClusterConfig,
        obs: &ObsOptions,
        observed: &ObsReport,
    ) -> MetricsRegistry {
        for (index, addr) in observed.worker_metrics_addrs.iter().enumerate() {
            let Some(addr) = addr else { continue };
            if let Ok(body) = http_get(*addr, "/metrics") {
                self.scrape_ok[index] += 1;
                self.scrape_bytes[index] = body.len() as u64;
            }
        }
        self.flushes += 1;
        let mut merged = MetricsRegistry::new();
        merged.gauge(
            "pgrid_cluster_workers",
            "Number of worker processes in the cluster.",
            &[],
            cluster.n_workers as f64,
        );
        merged.gauge(
            "pgrid_cluster_phase",
            "Latest phase barrier the whole cluster reached.",
            &[],
            phase as f64,
        );
        merged.counter(
            "pgrid_cluster_metrics_flushes_total",
            "Merged metrics publications (one per phase barrier).",
            &[],
            self.flushes,
        );
        merged.counter(
            "pgrid_cluster_worker_failures_total",
            "Worker deaths the coordinator has detected.",
            &[],
            observed.failures.len() as u64,
        );
        merged.counter(
            "pgrid_cluster_peers_recovered_total",
            "Orphaned peers rebuilt on survivors (replica pulls plus the \
             seeded local fallback).",
            &[],
            observed
                .failures
                .iter()
                .map(|f| f.recovered_replica + f.recovered_local)
                .sum(),
        );
        merged.counter(
            "pgrid_cluster_peers_recovered_warm_total",
            "Orphaned peers restored by their own relaunched worker replaying \
             its durable log (warm rejoins).",
            &[],
            observed.failures.iter().map(|f| f.recovered_warm).sum(),
        );
        for (index, registry) in self.worker_regs.iter().enumerate() {
            let worker = index.to_string();
            if let Some(registry) = registry {
                merged.absorb(registry, Some(("worker", &worker)));
            }
            if let Some(Some(addr)) = observed.worker_metrics_addrs.get(index) {
                merged.gauge(
                    "pgrid_cluster_worker_metrics_port",
                    "Bound /metrics port of a worker scrape endpoint.",
                    &[("worker", &worker)],
                    addr.port() as f64,
                );
                merged.counter(
                    "pgrid_cluster_worker_scrape_ok_total",
                    "Successful mid-run HTTP scrapes of a worker's /metrics.",
                    &[("worker", &worker)],
                    self.scrape_ok[index],
                );
                merged.gauge(
                    "pgrid_cluster_worker_scrape_bytes",
                    "Body size of the latest successful worker scrape.",
                    &[("worker", &worker)],
                    self.scrape_bytes[index] as f64,
                );
            }
        }
        let text = merged.encode();
        if let Some(state) = &obs.scrape {
            state.publish_metrics(text.clone());
            if observed.trace_events.len() > self.published_events {
                state.publish_trace_events(&observed.trace_events[self.published_events..]);
                self.published_events = observed.trace_events.len();
            }
        }
        if let Some(path) = &obs.metrics_out {
            let _ = std::fs::write(path, &text);
        }
        merged
    }
}

/// Accepts `cluster.n_workers` workers on `listener`, runs the rendezvous
/// and the barrier protocol to completion, and returns the merged report.
pub fn run_coordinator(listener: TcpListener, cluster: &ClusterConfig) -> Result<DeploymentReport> {
    run_coordinator_observed(listener, cluster, &ObsOptions::default()).map(|(report, _)| report)
}

/// [`run_coordinator`] with observability: merged metrics/trace publishing
/// at every barrier, worker `/metrics` probing, and a flight-recorder dump
/// when a worker fails mid-run.
pub fn run_coordinator_observed(
    listener: TcpListener,
    cluster: &ClusterConfig,
    obs: &ObsOptions,
) -> Result<(DeploymentReport, ObsReport)> {
    let mut recorder = FlightRecorder::default();
    let mut observed = ObsReport::default();
    match coordinate(listener, cluster, obs, &mut recorder, &mut observed) {
        Ok(report) => Ok((report, observed)),
        Err(e) => {
            recorder.note(0, "worker_failure", e.to_string());
            if let Some(path) = &obs.flight_dump {
                let _ = recorder.dump_to(path, "worker failure");
            }
            pgrid_obs::error!("cluster::coordinator", "cluster run failed: {e}");
            Err(e)
        }
    }
}

/// One worker's coordinator-side control state.
struct Slot {
    ctl: ControlChannel,
    /// `false` once the coordinator declared this worker dead.
    alive: bool,
    /// Whether the worker reached the barrier currently being collected.
    done: bool,
    /// Last time any control message arrived from this worker.
    last_seen: Instant,
}

/// Everything the failure detector and healer track across barriers.
struct Membership {
    /// Original `(start, len)` shard of each worker.
    shards: Vec<(usize, usize)>,
    /// Current host worker of every peer (updated on adoption).
    host_of: Vec<usize>,
    /// Last path each peer reported at a barrier (via `ShardPaths`), the
    /// raw material of replica hints and partial reports.
    last_paths: Vec<Path>,
    /// Monotonic membership epoch, bumped per healing round.
    epoch: u64,
    /// The current address book, re-broadcast after endpoint takeovers.
    book: Vec<(u64, SocketAddr)>,
}

/// Drains one worker's channel: routine traffic (minutes, traces, metrics,
/// heartbeats, shard paths) is absorbed in place, anything else is handed
/// to the caller.  `Ok(None)` means the channel is quiet right now.
#[allow(clippy::too_many_arguments)]
fn poll_routine(
    index: usize,
    slot: &mut Slot,
    merge: &mut ObsMerge,
    observed: &mut ObsReport,
    bandwidth: &mut HashMap<u64, BandwidthSample>,
    membership: &mut Membership,
) -> Result<Option<ClusterMsg>> {
    loop {
        let Some(msg) = slot.ctl.try_recv()? else {
            return Ok(None);
        };
        slot.last_seen = Instant::now();
        match msg {
            ClusterMsg::Minutes { samples } => {
                for (minute, maintenance, query) in samples {
                    let entry = bandwidth.entry(minute).or_default();
                    entry.maintenance_bytes += maintenance as usize;
                    entry.query_bytes += query as usize;
                }
            }
            ClusterMsg::TraceBatch { events } => observed.trace_events.extend(events),
            ClusterMsg::MetricsSnapshot { registry } => {
                merge.worker_regs[index] = Some(
                    MetricsRegistry::decode_wire(&registry)
                        .map_err(|e| Error::new(ErrorKind::InvalidData, e))?,
                );
            }
            ClusterMsg::Heartbeat { .. } => {}
            ClusterMsg::ShardPaths { shard_start, paths } => {
                for (offset, path) in paths.iter().enumerate() {
                    let peer = shard_start as usize + offset;
                    if peer < membership.last_paths.len() {
                        membership.last_paths[peer] = *path;
                    }
                }
            }
            other => return Ok(Some(other)),
        }
    }
}

fn coordinate(
    listener: TcpListener,
    cluster: &ClusterConfig,
    obs: &ObsOptions,
    recorder: &mut FlightRecorder,
    observed: &mut ObsReport,
) -> Result<DeploymentReport> {
    assert!(
        cluster.n_workers >= 1,
        "a cluster needs at least one worker"
    );
    let shards = shard_assignment(cluster.net.n_peers, cluster.n_workers);
    let mut merge = ObsMerge::new(cluster.n_workers);

    // --- accept and assign --------------------------------------------------
    listener.set_nonblocking(true)?;
    let accept_deadline = Instant::now() + ACCEPT_TIMEOUT;
    let mut workers: Vec<ControlChannel> = Vec::with_capacity(cluster.n_workers);
    while workers.len() < cluster.n_workers {
        match listener.accept() {
            Ok((stream, _)) => workers.push(ControlChannel::new(stream)?),
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if Instant::now() >= accept_deadline {
                    return Err(Error::new(
                        ErrorKind::TimedOut,
                        format!(
                            "only {}/{} workers connected",
                            workers.len(),
                            cluster.n_workers
                        ),
                    ));
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => return Err(e),
        }
    }
    recorder.note(
        0,
        "accepted",
        format!("{} workers connected", workers.len()),
    );
    pgrid_obs::info!(
        "cluster::coordinator",
        "{} workers connected, assigning shards",
        workers.len()
    );
    for (index, worker) in workers.iter_mut().enumerate() {
        let (start, len) = shards[index];
        let kill_at_min = cluster
            .heal
            .kill
            .filter(|plan| plan.worker as usize == index)
            .map(|plan| plan.at_min);
        worker.send(&ClusterMsg::Welcome {
            worker_index: index as u32,
            n_workers: cluster.n_workers as u32,
            shard_start: start as u64,
            shard_len: len as u64,
            config: cluster.net.clone(),
            timeline: cluster.timeline,
            tracing: obs.tracing,
            heartbeat_ms: cluster.heal.heartbeat_ms,
            failure_timeout_ms: cluster.heal.failure_timeout_ms,
            heal: cluster.heal.heal,
            kill_at_min,
        })?;
    }

    // --- gather endpoints, broadcast the address book -----------------------
    let mut book: Vec<(u64, SocketAddr)> = Vec::with_capacity(cluster.net.n_peers);
    for (index, worker) in workers.iter_mut().enumerate() {
        let hello = worker.recv_timeout(PHASE_TIMEOUT)?;
        let ClusterMsg::Hello {
            shard_start,
            peer_addrs,
            metrics_addr,
        } = hello
        else {
            return Err(protocol_error("Hello", &hello));
        };
        observed.worker_metrics_addrs.push(metrics_addr);
        recorder.note(
            0,
            "hello",
            format!("worker={index} shard={shard_start} metrics={metrics_addr:?}"),
        );
        let (start, len) = shards[index];
        if shard_start as usize != start || peer_addrs.len() != len {
            return Err(Error::new(
                ErrorKind::InvalidData,
                format!(
                    "worker {index} announced shard {shard_start}+{} instead of {start}+{len}",
                    peer_addrs.len()
                ),
            ));
        }
        book.extend(peer_addrs);
    }
    book.sort_unstable_by_key(|&(peer, _)| peer);
    for worker in &mut workers {
        worker.send(&ClusterMsg::AddressBook {
            peer_addrs: book.clone(),
        })?;
    }

    // --- barriers with failure detection and healing ------------------------
    let mut slots: Vec<Slot> = workers
        .into_iter()
        .map(|ctl| Slot {
            ctl,
            alive: true,
            done: false,
            last_seen: Instant::now(),
        })
        .collect();
    let mut host_of = vec![0usize; cluster.net.n_peers];
    for (index, &(start, len)) in shards.iter().enumerate() {
        for host in &mut host_of[start..start + len] {
            *host = index;
        }
    }
    let mut membership = Membership {
        shards: shards.clone(),
        host_of,
        last_paths: vec![Path::root(); cluster.net.n_peers],
        epoch: 0,
        book,
    };
    let mut bandwidth: HashMap<u64, BandwidthSample> = HashMap::new();

    for phase in PHASE_WIRED..=PHASE_DONE {
        let newly_failed = collect_barrier(
            &mut slots,
            phase,
            cluster,
            &mut merge,
            observed,
            &mut bandwidth,
            &mut membership,
            recorder,
            obs,
        )?;
        if !newly_failed.is_empty() && cluster.heal.heal {
            heal_round(
                &mut slots,
                &listener,
                &newly_failed,
                phase,
                cluster,
                obs,
                &mut merge,
                observed,
                &mut bandwidth,
                &mut membership,
                recorder,
            )?;
        }
        // Every surviving worker reached the barrier (and any orphaned
        // shard was reassigned): refresh the merged live view before
        // releasing them into the next phase.
        merge.barrier_publish(phase, cluster, obs, observed);
        recorder.note(0, "barrier", format!("phase={phase} released"));
        pgrid_obs::debug!("cluster::coordinator", "phase {phase} barrier released");
        for slot in slots.iter_mut().filter(|s| s.alive) {
            slot.ctl.send(&ClusterMsg::Proceed { phase })?;
        }
    }

    // --- final reports -------------------------------------------------------
    let mut reports: Vec<ShardReport> = Vec::with_capacity(cluster.n_workers);
    for index in 0..slots.len() {
        if !slots[index].alive {
            continue;
        }
        let deadline = Instant::now() + PHASE_TIMEOUT;
        loop {
            match poll_routine(
                index,
                &mut slots[index],
                &mut merge,
                observed,
                &mut bandwidth,
                &mut membership,
            ) {
                Ok(None) => {
                    if Instant::now() >= deadline {
                        return Err(Error::new(
                            ErrorKind::TimedOut,
                            format!("worker {index} never sent its report"),
                        ));
                    }
                }
                Ok(Some(ClusterMsg::Report(report))) => {
                    reports.push(report);
                    break;
                }
                Ok(Some(other)) => return Err(protocol_error("Report", &other)),
                Err(e) => {
                    // A worker dying after its last barrier can no longer
                    // be healed (the run is over); record the failure and
                    // assemble a partial report.
                    mark_failed(&mut slots, index, cluster, observed, recorder, obs, &e);
                    break;
                }
            }
        }
    }

    observed.registry = merge.barrier_publish(PHASE_DONE, cluster, obs, observed);
    if let Some(path) = &obs.trace_out {
        let mut file = std::fs::File::create(path)?;
        for chain in assemble(&observed.trace_events).values() {
            for event in chain {
                writeln!(file, "{}", event.to_json())?;
            }
        }
        pgrid_obs::info!(
            "cluster::coordinator",
            "merged trace ({} events) written to {}",
            observed.trace_events.len(),
            path.display()
        );
    }
    Ok(merge_reports(
        cluster,
        &membership.shards,
        &membership.last_paths,
        bandwidth,
        reports,
    ))
}

/// Declares worker `index` dead: stops polling it, records the failure in
/// the observability report, and dumps the flight recorder.
fn mark_failed(
    slots: &mut [Slot],
    index: usize,
    cluster: &ClusterConfig,
    observed: &mut ObsReport,
    recorder: &mut FlightRecorder,
    obs: &ObsOptions,
    error: &Error,
) {
    if !slots[index].alive {
        return;
    }
    slots[index].alive = false;
    let detected_after_ms = slots[index].last_seen.elapsed().as_millis() as u64;
    let shards = shard_assignment(cluster.net.n_peers, cluster.n_workers);
    let (start, len) = shards[index];
    recorder.note(
        0,
        "worker_failed",
        format!("worker={index} shard={start}+{len} after_ms={detected_after_ms} error={error}"),
    );
    if let Some(path) = &obs.flight_dump {
        let _ = recorder.dump_to(path, "worker failure");
    }
    pgrid_obs::error!(
        "cluster::coordinator",
        "worker {index} (shard {start}+{len}) died: {error} \
         (detected after {detected_after_ms}ms)"
    );
    observed.failures.push(WorkerFailure {
        worker: index as u32,
        shard_start: start as u64,
        shard_len: len as u64,
        detected_after_ms,
        healed: false,
        recovery_ms: 0,
        recovered_replica: 0,
        recovered_local: 0,
        rejoined: false,
        recovered_warm: 0,
    });
}

/// Collects `PhaseDone(phase)` from every live worker, detecting failures
/// along the way (connection EOF, heartbeat silence).  Returns the indices
/// of workers that died during this barrier.
#[allow(clippy::too_many_arguments)]
fn collect_barrier(
    slots: &mut [Slot],
    phase: u8,
    cluster: &ClusterConfig,
    merge: &mut ObsMerge,
    observed: &mut ObsReport,
    bandwidth: &mut HashMap<u64, BandwidthSample>,
    membership: &mut Membership,
    recorder: &mut FlightRecorder,
    obs: &ObsOptions,
) -> Result<Vec<usize>> {
    for slot in slots.iter_mut() {
        slot.done = false;
        // Liveness clocks restart per barrier: a worker is only expected
        // to be silent for as long as its phase lasts minus heartbeats.
        slot.last_seen = Instant::now();
    }
    let heartbeats = cluster.heal.heartbeat_ms > 0;
    let failure_timeout = Duration::from_millis(cluster.heal.failure_timeout_ms.max(1));
    let deadline = Instant::now() + PHASE_TIMEOUT;
    let mut newly_failed = Vec::new();
    while slots.iter().any(|s| s.alive && !s.done) {
        for index in 0..slots.len() {
            if !slots[index].alive || slots[index].done {
                continue;
            }
            match poll_routine(
                index,
                &mut slots[index],
                merge,
                observed,
                bandwidth,
                membership,
            ) {
                Ok(None) => {}
                Ok(Some(ClusterMsg::PhaseDone { phase: p })) if p == phase => {
                    slots[index].done = true;
                }
                Ok(Some(other)) => {
                    return Err(Error::new(
                        ErrorKind::InvalidData,
                        format!("worker {index}: expected PhaseDone({phase}), got {other:?}"),
                    ))
                }
                Err(e) => {
                    mark_failed(slots, index, cluster, observed, recorder, obs, &e);
                    newly_failed.push(index);
                    continue;
                }
            }
            if heartbeats && slots[index].last_seen.elapsed() > failure_timeout {
                let e = Error::new(
                    ErrorKind::TimedOut,
                    format!(
                        "no heartbeat for {}ms",
                        slots[index].last_seen.elapsed().as_millis()
                    ),
                );
                mark_failed(slots, index, cluster, observed, recorder, obs, &e);
                newly_failed.push(index);
            }
        }
        if Instant::now() >= deadline {
            return Err(Error::new(
                ErrorKind::TimedOut,
                format!("phase {phase} barrier never completed"),
            ));
        }
    }
    Ok(newly_failed)
}

/// Polls the rendezvous listener for up to `rejoin_grace_ms` for the
/// relaunched worker `failed` to reconnect with a matching [`Rejoin`]
/// (same shard, same seed — a durable log from another run is rejected),
/// replays the initial handshake against it (Welcome, Hello, AddressBook
/// with the re-bound endpoints), tells it which phase to resume at, and
/// waits for its local log replay to finish.  Returns the number of peers
/// it restored, or `None` when no valid rejoin arrived in time and the
/// caller must fall back to reassignment.
///
/// [`Rejoin`]: ClusterMsg::Rejoin
#[allow(clippy::too_many_arguments)]
fn try_rejoin(
    slots: &mut [Slot],
    listener: &TcpListener,
    failed: usize,
    phase: u8,
    epoch: u64,
    cluster: &ClusterConfig,
    obs: &ObsOptions,
    merge: &mut ObsMerge,
    observed: &mut ObsReport,
    bandwidth: &mut HashMap<u64, BandwidthSample>,
    membership: &mut Membership,
    recorder: &mut FlightRecorder,
) -> Result<Option<u64>> {
    let (start, len) = membership.shards[failed];
    let deadline = Instant::now() + Duration::from_millis(cluster.heal.rejoin_grace_ms);
    let mut ctl = loop {
        match listener.accept() {
            Ok((stream, _)) => {
                let mut candidate = ControlChannel::new(stream)?;
                match candidate.recv_timeout(RECOVERY_TIMEOUT) {
                    Ok(ClusterMsg::Rejoin {
                        shard_start,
                        shard_len,
                        epoch: log_epoch,
                        phase: log_phase,
                        now_ms,
                        seed,
                    }) if shard_start as usize == start
                        && shard_len as usize == len
                        && seed == cluster.net.seed =>
                    {
                        recorder.note(
                            0,
                            "rejoin",
                            format!(
                                "worker={failed} shard={start}+{len} log_epoch={log_epoch} \
                                 log_phase={log_phase} log_ms={now_ms}"
                            ),
                        );
                        break candidate;
                    }
                    Ok(other) => {
                        pgrid_obs::warn!(
                            "cluster::coordinator",
                            "rejected rejoin connection for worker {failed}: {other:?}"
                        );
                    }
                    Err(e) => {
                        pgrid_obs::warn!(
                            "cluster::coordinator",
                            "rejoin connection for worker {failed} died during handshake: {e}"
                        );
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    return Ok(None);
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => return Err(e),
        }
    };

    // The initial handshake, replayed: the rejoiner re-binds its shard
    // endpoints at fresh ports, everyone learns the new address book, and
    // the rejoiner is told which phase the cluster is parked at.  No kill
    // plan the second time around.
    ctl.send(&ClusterMsg::Welcome {
        worker_index: failed as u32,
        n_workers: cluster.n_workers as u32,
        shard_start: start as u64,
        shard_len: len as u64,
        config: cluster.net.clone(),
        timeline: cluster.timeline,
        tracing: obs.tracing,
        heartbeat_ms: cluster.heal.heartbeat_ms,
        failure_timeout_ms: cluster.heal.failure_timeout_ms,
        heal: cluster.heal.heal,
        kill_at_min: None,
    })?;
    let hello = ctl.recv_timeout(RECOVERY_TIMEOUT)?;
    let ClusterMsg::Hello {
        shard_start,
        peer_addrs,
        metrics_addr,
    } = hello
    else {
        return Err(protocol_error("Hello", &hello));
    };
    if shard_start as usize != start || peer_addrs.len() != len {
        return Err(Error::new(
            ErrorKind::InvalidData,
            format!(
                "rejoined worker {failed} announced shard {shard_start}+{} instead of \
                 {start}+{len}",
                peer_addrs.len()
            ),
        ));
    }
    for (peer, addr) in peer_addrs {
        match membership.book.iter_mut().find(|(p, _)| *p == peer) {
            Some(entry) => entry.1 = addr,
            None => membership.book.push((peer, addr)),
        }
    }
    membership.book.sort_unstable_by_key(|&(peer, _)| peer);
    if let Some(slot_addr) = observed.worker_metrics_addrs.get_mut(failed) {
        *slot_addr = metrics_addr;
    }
    ctl.send(&ClusterMsg::AddressBook {
        peer_addrs: membership.book.clone(),
    })?;
    for slot in slots.iter_mut().filter(|slot| slot.alive) {
        slot.ctl.send(&ClusterMsg::AddressBook {
            peer_addrs: membership.book.clone(),
        })?;
    }
    ctl.send(&ClusterMsg::Resume { epoch, phase })?;
    // The barrier for `phase` was already collected without this worker:
    // it re-enters the protocol parked (`done`), waiting for Proceed.
    slots[failed] = Slot {
        ctl,
        alive: true,
        done: true,
        last_seen: Instant::now(),
    };

    let deadline = Instant::now() + RECOVERY_TIMEOUT;
    loop {
        match poll_routine(
            failed,
            &mut slots[failed],
            merge,
            observed,
            bandwidth,
            membership,
        )? {
            None => {
                if Instant::now() >= deadline {
                    return Err(Error::new(
                        ErrorKind::TimedOut,
                        format!("rejoined worker {failed} never sent RecoveryDone"),
                    ));
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Some(ClusterMsg::RecoveryDone {
                epoch: e,
                recovered,
            }) if e == epoch => {
                let warm = recovered.len() as u64;
                for (peer, _) in recovered {
                    if (peer as usize) < membership.host_of.len() {
                        membership.host_of[peer as usize] = failed;
                    }
                }
                recorder.note(0, "rejoin_done", format!("worker={failed} warm={warm}"));
                pgrid_obs::info!(
                    "cluster::coordinator",
                    "epoch {epoch}: worker {failed} rejoined warm, replayed {warm} peers \
                     from its durable log"
                );
                return Ok(Some(warm));
            }
            Some(other) => return Err(protocol_error("RecoveryDone", &other)),
        }
    }
}

/// One healing round: announce the new epoch, give each dead worker's
/// relaunched process a chance to reclaim its own shard from its durable
/// log (warm rejoin), reassign the remaining orphans onto the survivors,
/// collect the takeover addresses, re-broadcast the address book, and wait
/// for the replica rebuilds to finish.
#[allow(clippy::too_many_arguments)]
fn heal_round(
    slots: &mut [Slot],
    listener: &TcpListener,
    newly_failed: &[usize],
    phase: u8,
    cluster: &ClusterConfig,
    obs: &ObsOptions,
    merge: &mut ObsMerge,
    observed: &mut ObsReport,
    bandwidth: &mut HashMap<u64, BandwidthSample>,
    membership: &mut Membership,
    recorder: &mut FlightRecorder,
) -> Result<()> {
    if slots.iter().all(|s| !s.alive) && cluster.heal.rejoin_grace_ms == 0 {
        pgrid_obs::error!(
            "cluster::coordinator",
            "no survivors left to heal onto; degrading"
        );
        return Ok(());
    }
    let heal_started = Instant::now();
    membership.epoch += 1;
    let epoch = membership.epoch;

    // Warm rejoin first: a relaunched worker holding the shard's durable
    // log replays it locally, which beats rebuilding every orphan over the
    // data plane from replicas.
    let mut remaining: Vec<usize> = Vec::new();
    for &failed in newly_failed {
        let warm = if cluster.heal.rejoin_grace_ms > 0 {
            try_rejoin(
                slots, listener, failed, phase, epoch, cluster, obs, merge, observed, bandwidth,
                membership, recorder,
            )?
        } else {
            None
        };
        match warm {
            Some(recovered_warm) => {
                let recovery_ms = heal_started.elapsed().as_millis() as u64;
                if let Some(failure) = observed
                    .failures
                    .iter_mut()
                    .rev()
                    .find(|f| f.worker as usize == failed && !f.healed)
                {
                    failure.healed = true;
                    failure.rejoined = true;
                    failure.recovery_ms = recovery_ms;
                    failure.recovered_warm = recovered_warm;
                }
            }
            None => remaining.push(failed),
        }
    }
    if remaining.is_empty() {
        return Ok(());
    }
    // Rejoined workers count as survivors for the remaining orphans: they
    // are parked at the barrier and absorb reassignments like anyone else.
    let survivors: Vec<usize> = (0..slots.len()).filter(|&i| slots[i].alive).collect();
    if survivors.is_empty() {
        pgrid_obs::error!(
            "cluster::coordinator",
            "no survivors left to heal onto; degrading"
        );
        return Ok(());
    }
    let newly_failed: &[usize] = &remaining;
    for &failed in newly_failed {
        let (start, len) = membership.shards[failed];
        for &index in &survivors {
            slots[index].ctl.send(&ClusterMsg::WorkerFailed {
                epoch,
                worker_index: failed as u32,
                shard_start: start as u64,
                shard_len: len as u64,
            })?;
        }
    }

    // Map every orphan onto a survivor (round robin keeps the adopted load
    // even) with a replica hint: the live peer whose last barrier path
    // shares the longest prefix with the orphan's — an exact match *is* a
    // replica of the orphan's partition.
    let failed_set: BTreeSet<usize> = newly_failed.iter().copied().collect();
    let dead_workers: BTreeSet<usize> = (0..slots.len()).filter(|&i| !slots[i].alive).collect();
    let mut moves: Vec<ReassignMove> = Vec::new();
    let mut rr = 0usize;
    for &failed in &failed_set {
        let (start, len) = membership.shards[failed];
        for peer in start..start + len {
            if membership.host_of[peer] != failed {
                continue; // previously adopted elsewhere
            }
            let to_worker = survivors[rr % survivors.len()];
            rr += 1;
            let path = membership.last_paths[peer];
            // Prefer true replicas (identical path) over mere prefix
            // neighbours ...
            let score = |p: usize| {
                let lcp = path.common_prefix_len(&membership.last_paths[p]);
                (usize::from(membership.last_paths[p] == path), lcp)
            };
            let candidates: Vec<usize> = (0..cluster.net.n_peers)
                .filter(|&p| p != peer && !dead_workers.contains(&membership.host_of[p]))
                .collect();
            let source = match candidates.iter().copied().map(score).max() {
                // ... and rotate through equally-good sources, so a batch
                // of orphans does not pile its rebuilt state onto one
                // replica's partition.
                Some(best) => {
                    let tied: Vec<usize> = candidates
                        .into_iter()
                        .filter(|&p| score(p) == best)
                        .collect();
                    tied[peer % tied.len()]
                }
                None => peer,
            };
            moves.push(ReassignMove {
                peer: peer as u64,
                to_worker: to_worker as u32,
                source_peer: source as u64,
                path,
            });
        }
    }
    recorder.note(
        0,
        "shard_reassign",
        format!("epoch={epoch} moves={}", moves.len()),
    );
    for &index in &survivors {
        slots[index].ctl.send(&ClusterMsg::ShardReassign {
            epoch,
            moves: moves.clone(),
        })?;
    }

    // Endpoint takeovers: every adopter re-binds the orphaned endpoints
    // locally and reports the fresh addresses.
    let adopters: BTreeSet<usize> = moves.iter().map(|m| m.to_worker as usize).collect();
    let mut new_addrs: Vec<(u64, SocketAddr)> = Vec::new();
    for &index in &adopters {
        let deadline = Instant::now() + RECOVERY_TIMEOUT;
        loop {
            match poll_routine(
                index,
                &mut slots[index],
                merge,
                observed,
                bandwidth,
                membership,
            )? {
                None => {
                    if Instant::now() >= deadline {
                        return Err(Error::new(
                            ErrorKind::TimedOut,
                            format!("worker {index} never sent RecoveryAddrs"),
                        ));
                    }
                }
                Some(ClusterMsg::RecoveryAddrs {
                    epoch: e,
                    peer_addrs,
                }) if e == epoch => {
                    new_addrs.extend(peer_addrs);
                    break;
                }
                Some(other) => return Err(protocol_error("RecoveryAddrs", &other)),
            }
        }
    }
    for (peer, addr) in &new_addrs {
        match membership.book.iter_mut().find(|(p, _)| p == peer) {
            Some(entry) => entry.1 = *addr,
            None => membership.book.push((*peer, *addr)),
        }
    }
    membership.book.sort_unstable_by_key(|&(peer, _)| peer);
    for &index in &survivors {
        slots[index].ctl.send(&ClusterMsg::AddressBook {
            peer_addrs: membership.book.clone(),
        })?;
    }

    // Replica rebuilds: each adopter pulls the orphans' state from live
    // replicas over the data plane (local seeded fallback guarantees
    // termination) and acknowledges.
    let mut recovered_replica = 0u64;
    let mut recovered_local = 0u64;
    for &index in &adopters {
        let deadline = Instant::now() + RECOVERY_TIMEOUT;
        loop {
            match poll_routine(
                index,
                &mut slots[index],
                merge,
                observed,
                bandwidth,
                membership,
            )? {
                None => {
                    if Instant::now() >= deadline {
                        return Err(Error::new(
                            ErrorKind::TimedOut,
                            format!("worker {index} never sent RecoveryDone"),
                        ));
                    }
                }
                Some(ClusterMsg::RecoveryDone {
                    epoch: e,
                    recovered,
                }) if e == epoch => {
                    for (peer, via_replica) in recovered {
                        membership.host_of[peer as usize] = index;
                        if via_replica {
                            recovered_replica += 1;
                        } else {
                            recovered_local += 1;
                        }
                    }
                    break;
                }
                Some(other) => return Err(protocol_error("RecoveryDone", &other)),
            }
        }
    }
    recorder.note(
        0,
        "recovery_done",
        format!("epoch={epoch} replica={recovered_replica} local={recovered_local}"),
    );
    pgrid_obs::info!(
        "cluster::coordinator",
        "epoch {epoch}: healed {} orphans ({recovered_replica} from replicas, \
         {recovered_local} locally)",
        recovered_replica + recovered_local
    );
    // Attribute the recovery to the failures healed this round.
    let per_failure = newly_failed.len().max(1) as u64;
    let recovery_ms = heal_started.elapsed().as_millis() as u64;
    for failure in observed.failures.iter_mut().rev() {
        if failed_set.contains(&(failure.worker as usize)) && !failure.healed {
            failure.healed = true;
            failure.recovery_ms = recovery_ms;
            failure.recovered_replica = recovered_replica / per_failure;
            failure.recovered_local = recovered_local / per_failure;
        }
    }
    Ok(())
}

/// Merges the shard reports into the single-process report shape: paths at
/// their global indices, query aggregates folded, counters summed.
///
/// `last_paths` seeds the path vector so peers of a dead, unhealed shard
/// keep their last barrier-observed path in the partial report; live
/// shards and adopted peers overwrite their entries.
fn merge_reports(
    cluster: &ClusterConfig,
    shards: &[(usize, usize)],
    last_paths: &[Path],
    bandwidth: HashMap<u64, BandwidthSample>,
    reports: Vec<ShardReport>,
) -> DeploymentReport {
    // The ground-truth data assignment is a function of the seed; the
    // coordinator reproduces it exactly as every worker's runtime did.
    let mut rng = StdRng::seed_from_u64(cluster.net.seed);
    let (_, original_entries) = generate_peers(&cluster.net, &mut rng);

    let mut paths = last_paths.to_vec();
    paths.resize(cluster.net.n_peers, Path::root());
    let mut queries = pgrid_net::runtime::QueryAggregates::default();
    let mut online_at_end = 0usize;
    let mut transport = TransportStats::default();
    for report in &reports {
        let start = report.shard_start as usize;
        debug_assert!(shards
            .iter()
            .any(|&(s, l)| s == start && l == report.paths.len()));
        for (offset, path) in report.paths.iter().enumerate() {
            paths[start + offset] = *path;
        }
        for (peer, path) in &report.extra_paths {
            if (*peer as usize) < paths.len() {
                paths[*peer as usize] = *path;
            }
        }
        // Histograms, counters and per-minute buckets all merge by
        // addition, so the fold is order-independent across shards.
        for (_, stats) in &report.query_stats {
            queries.merge(stats);
        }
        online_at_end += report.online_at_end as usize;
        // Sums the global counters and folds the per-peer link maps: a
        // peer's entry ends up holding the cluster-wide traffic concerning
        // it (frames sent *to* it by any shard, frames received *for* it by
        // its host).
        transport.merge(&report.transport);
    }

    let inputs = ReportInputs {
        n_peers: cluster.net.n_peers,
        params: cluster.net.balance_params(),
        original_keys: original_entries.iter().map(|e| e.key).collect(),
        paths,
        queries,
        bandwidth_per_minute: bandwidth,
        online_at_end,
        transport,
    };
    assemble_report(&inputs, &cluster.timeline)
}
