//! The rendezvous coordinator: one socket, N workers, one merged report.
//!
//! The coordinator owns no peers.  It assigns contiguous shards in accept
//! order, relays the address book so every worker can wire every foreign
//! peer as a transport remote, releases the phase barriers once all workers
//! reached them, and merges the streamed per-minute samples plus the final
//! shard reports into a single [`DeploymentReport`] through the same
//! [`assemble_report`] pipeline the single-process driver uses.
//!
//! It is also the cluster's failure detector and healer: it polls every
//! worker's control channel (instead of blocking on one at a time), tracks
//! liveness through heartbeats, and at the barrier after a death either
//! takes the relaunched worker back or reassigns the orphaned shard onto
//! the survivors (the message orders are in the [crate docs](crate)).  With
//! healing disabled a failure degrades the run instead of aborting it: the
//! dead shard goes dark, the flight recorder dumps, and the final report is
//! assembled from whatever the survivors deliver.

use crate::proto::{
    protocol_error, ClusterMsg, ControlChannel, ReassignMove, ShardReport, PHASE_DONE, PHASE_WIRED,
};
use pgrid_core::path::Path;
use pgrid_net::runtime::{generate_peers, BandwidthSample, NetConfig};
use pgrid_obs::recorder::FlightRecorder;
use pgrid_obs::registry::MetricsRegistry;
use pgrid_obs::scrape::{http_get, ScrapeState};
use pgrid_obs::trace::{assemble, TraceEvent};
use pgrid_scenario::deployment::{assemble_report, DeploymentReport, ReportInputs, Timeline};
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
#[derive(Clone, Debug, Default)]
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
                if let Err(error) = merged.absorb(registry, Some(("worker", &worker))) {
                    pgrid_obs::warn!(
                        "cluster::coordinator",
                        "left worker {worker}'s metrics snapshot out of the merge: {error}"
                    );
                }
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
/// and the barrier protocol to completion, and returns the merged report
/// with what the coordinator observed: merged metrics/trace publishing at
/// every barrier, worker `/metrics` probing, and a flight-recorder dump
/// when a worker fails mid-run.
pub fn run_coordinator_observed(
    listener: TcpListener,
    cluster: &ClusterConfig,
    obs: &ObsOptions,
) -> Result<(DeploymentReport, ObsReport)> {
    let mut coordinator = Coordinator::new(listener, cluster, obs);
    match coordinator.coordinate() {
        Ok(report) => Ok((report, coordinator.observed)),
        Err(e) => {
            coordinator.note("worker_failure", e.to_string());
            if let Some(path) = &obs.flight_dump {
                let _ = coordinator.recorder.dump_to(path, "worker failure");
            }
            pgrid_obs::error!("cluster::coordinator", "cluster run failed: {e}");
            Err(e)
        }
    }
}

/// One worker's coordinator-side control state.
struct Slot {
    ctl: ControlChannel,
    /// The worker's one listen address, from its `Hello`: every peer it
    /// hosts is reached there.
    listen: SocketAddr,
    /// `false` once the coordinator declared this worker dead.
    alive: bool,
    /// Last time any control message arrived from this worker.
    last_seen: Instant,
}

impl Slot {
    fn new(ctl: ControlChannel, listen: SocketAddr) -> Slot {
        Slot {
            ctl,
            listen,
            alive: true,
            last_seen: Instant::now(),
        }
    }
}

/// What [`Coordinator::collect`] gathered: the picked values, and the
/// workers that failed instead, with why.
type Collected<T> = (Vec<T>, Vec<(usize, Error)>);

/// The `pick` of a wait for `RecoveryDone` of `epoch`.
fn recovery_done(
    epoch: u64,
) -> impl Fn(ClusterMsg) -> std::result::Result<Vec<(u64, bool)>, Box<ClusterMsg>> {
    move |msg| match msg {
        ClusterMsg::RecoveryDone {
            epoch: e,
            recovered,
        } if e == epoch => Ok(recovered),
        other => Err(other.into()),
    }
}

/// Everything the failure detector and healer track across barriers.
struct Membership {
    /// Original `(start, len)` shard of each worker.
    shards: Vec<(usize, usize)>,
    /// Current host worker of every peer (updated on reassignment): with
    /// the hosts' listen addresses, the address book.
    host_of: Vec<usize>,
    /// Last path each peer reported at a barrier (via `ShardPaths`), the
    /// raw material of replica hints and partial reports.
    last_paths: Vec<Path>,
    /// Monotonic membership epoch, bumped per healing round.
    epoch: u64,
}

/// The control plane's state in one place: every protocol step below is a
/// method over it.
struct Coordinator<'a> {
    cluster: &'a ClusterConfig,
    obs: &'a ObsOptions,
    /// The rendezvous socket: polled for the initial connections, and
    /// again during a healing round for a relaunched worker.
    listener: TcpListener,
    /// One control slot per worker, in accept (= shard) order.
    slots: Vec<Slot>,
    membership: Membership,
    merge: ObsMerge,
    observed: ObsReport,
    /// Per-minute bandwidth, summed over every worker's `Minutes`.
    bandwidth: HashMap<u64, BandwidthSample>,
    recorder: FlightRecorder,
}

impl<'a> Coordinator<'a> {
    fn new(
        listener: TcpListener,
        cluster: &'a ClusterConfig,
        obs: &'a ObsOptions,
    ) -> Coordinator<'a> {
        let n_peers = cluster.net.n_peers;
        let shards = shard_assignment(n_peers, cluster.n_workers);
        let mut host_of = vec![0usize; n_peers];
        for (index, &(start, len)) in shards.iter().enumerate() {
            host_of[start..start + len].fill(index);
        }
        Coordinator {
            cluster,
            obs,
            listener,
            slots: Vec::with_capacity(cluster.n_workers),
            membership: Membership {
                shards,
                host_of,
                last_paths: vec![Path::root(); n_peers],
                epoch: 0,
            },
            merge: ObsMerge::new(cluster.n_workers),
            observed: ObsReport {
                worker_metrics_addrs: vec![None; cluster.n_workers],
                ..ObsReport::default()
            },
            bandwidth: HashMap::new(),
            recorder: FlightRecorder::default(),
        }
    }

    /// A flight-recorder note; the coordinator has no virtual clock, so
    /// every note carries virtual time 0.
    fn note(&mut self, kind: &'static str, detail: String) {
        self.recorder.note(0, kind, detail);
    }

    /// The next connection on the rendezvous socket, or `None` once
    /// `deadline` passed without one.
    fn accept_until(&self, deadline: Instant) -> Result<Option<ControlChannel>> {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => return ControlChannel::new(stream).map(Some),
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Ok(None);
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// The rendezvous with one worker, fresh or rejoining: assigns shard
    /// `index` with a `Welcome`, awaits the `Hello`, checks that it
    /// announces exactly that shard, records the worker's scrape endpoint,
    /// and returns the worker's listen address.
    ///
    /// The wait is bounded by [`RECOVERY_TIMEOUT`] on both paths: during a
    /// healing round the survivors are parked on their own barrier
    /// time-out while this runs.
    fn handshake(
        &mut self,
        ctl: &mut ControlChannel,
        index: usize,
        kill_at_min: Option<u64>,
    ) -> Result<SocketAddr> {
        let (start, len) = self.membership.shards[index];
        ctl.send(&ClusterMsg::Welcome {
            worker_index: index as u32,
            shard_start: start as u64,
            shard_len: len as u64,
            config: self.cluster.net.clone(),
            timeline: self.cluster.timeline,
            tracing: self.obs.tracing,
            heartbeat_ms: self.cluster.heal.heartbeat_ms,
            kill_at_min,
        })?;
        let hello = ctl.recv_timeout(RECOVERY_TIMEOUT)?;
        hello.check_ranges(self.cluster.net.n_peers)?;
        let ClusterMsg::Hello {
            shard_start,
            shard_len,
            listen,
            metrics_addr,
        } = hello
        else {
            return Err(protocol_error("Hello", &hello));
        };
        if (shard_start, shard_len) != (start as u64, len as u64) {
            return Err(Error::new(
                ErrorKind::InvalidData,
                format!(
                    "worker {index} announced shard {shard_start}+{shard_len} \
                     instead of {start}+{len}"
                ),
            ));
        }
        self.observed.worker_metrics_addrs[index] = metrics_addr;
        self.note(
            "hello",
            format!("worker={index} shard={shard_start} listen={listen} metrics={metrics_addr:?}"),
        );
        Ok(listen)
    }

    /// Sends `msg` to every live worker, in slot order.
    fn broadcast(&mut self, msg: &ClusterMsg) -> Result<()> {
        for slot in self.slots.iter_mut().filter(|slot| slot.alive) {
            slot.ctl.send(msg)?;
        }
        Ok(())
    }

    /// The address book: each peer at the listen address of the worker
    /// hosting it, in peer order.
    fn book(&self) -> Vec<(u64, SocketAddr)> {
        (self.membership.host_of.iter().enumerate())
            .map(|(peer, &host)| (peer as u64, self.slots[host].listen))
            .collect()
    }

    fn broadcast_book(&mut self) -> Result<()> {
        let peer_addrs = self.book();
        self.broadcast(&ClusterMsg::AddressBook { peer_addrs })
    }

    /// Drains worker `index`'s channel: routine traffic (minutes, traces,
    /// metrics, heartbeats, shard paths) is absorbed in place, anything
    /// else is handed to the caller.  `Ok(None)` means the channel is quiet
    /// right now.  Every message is range-checked before it is looked at.
    fn poll_routine(&mut self, index: usize) -> Result<Option<ClusterMsg>> {
        loop {
            let slot = &mut self.slots[index];
            let Some(msg) = slot.ctl.try_recv()? else {
                return Ok(None);
            };
            slot.last_seen = Instant::now();
            msg.check_ranges(self.cluster.net.n_peers)?;
            match msg {
                ClusterMsg::Minutes { samples } => {
                    for (minute, maintenance, query) in samples {
                        let entry = self.bandwidth.entry(minute).or_default();
                        entry.maintenance_bytes =
                            entry.maintenance_bytes.saturating_add(maintenance as usize);
                        entry.query_bytes = entry.query_bytes.saturating_add(query as usize);
                    }
                }
                ClusterMsg::TraceBatch { events } => self.observed.trace_events.extend(events),
                ClusterMsg::MetricsSnapshot { registry } => {
                    self.merge.worker_regs[index] = Some(
                        MetricsRegistry::decode_wire(&registry)
                            .map_err(|e| Error::new(ErrorKind::InvalidData, e))?,
                    );
                }
                ClusterMsg::Heartbeat => {}
                ClusterMsg::ShardPaths { shard_start, paths } => {
                    let start = shard_start as usize;
                    self.membership.last_paths[start..start + paths.len()].copy_from_slice(&paths);
                }
                other => return Ok(Some(other)),
            }
        }
    }

    /// The one wait of the control plane: polls each of `workers`,
    /// absorbing routine traffic, until `pick` accepts one message from it
    /// or it fails.  Returns the picked values and the failed workers with
    /// why; what to do about a failure is the caller's policy.  A worker
    /// fails — and is marked failed — on EOF, on a message that fails its
    /// range check, or after `failure_timeout_ms` of silence when heartbeats
    /// are on.  Any message `pick` refuses is a protocol error naming
    /// `what`, and a worker still owing it after `timeout` is `TimedOut`.
    fn collect<T>(
        &mut self,
        workers: &[usize],
        what: &str,
        timeout: Duration,
        pick: impl Fn(ClusterMsg) -> std::result::Result<T, Box<ClusterMsg>>,
    ) -> Result<Collected<T>> {
        let heartbeats = self.cluster.heal.heartbeat_ms > 0;
        let failure_timeout = Duration::from_millis(self.cluster.heal.failure_timeout_ms.max(1));
        let deadline = Instant::now() + timeout;
        for &index in workers {
            // Liveness clocks restart per wait: a worker is only expected
            // to be silent for as long as the awaited step lasts minus
            // heartbeats.
            self.slots[index].last_seen = Instant::now();
        }
        let (mut pending, mut picked, mut failed) = (workers.to_vec(), Vec::new(), Vec::new());
        while !pending.is_empty() {
            for index in std::mem::take(&mut pending) {
                let failure = match self.poll_routine(index) {
                    Ok(Some(msg)) => {
                        let refused = |other: Box<ClusterMsg>| {
                            protocol_error(&format!("{what} from worker {index}"), &other)
                        };
                        picked.push(pick(msg).map_err(refused)?);
                        continue;
                    }
                    Ok(None) => match self.slots[index].last_seen.elapsed() {
                        silence if heartbeats && silence > failure_timeout => Error::new(
                            ErrorKind::TimedOut,
                            format!("no heartbeat for {}ms", silence.as_millis()),
                        ),
                        _ => {
                            pending.push(index);
                            continue;
                        }
                    },
                    Err(e) => e,
                };
                self.mark_failed(index, &failure);
                failed.push((index, failure));
            }
            if let Some(index) = pending.first().filter(|_| Instant::now() >= deadline) {
                let why = format!("worker {index} never sent {what}");
                return Err(Error::new(ErrorKind::TimedOut, why));
            }
        }
        Ok((picked, failed))
    }

    /// The workers not declared dead, in slot order.
    fn alive(&self) -> Vec<usize> {
        (0..self.slots.len())
            .filter(|&index| self.slots[index].alive)
            .collect()
    }

    fn coordinate(&mut self) -> Result<DeploymentReport> {
        let cluster = self.cluster;

        // --- accept, assign, gather endpoints, broadcast the address book ---
        self.listener.set_nonblocking(true)?;
        let accept_deadline = Instant::now() + ACCEPT_TIMEOUT;
        for index in 0..cluster.n_workers {
            let Some(mut ctl) = self.accept_until(accept_deadline)? else {
                return Err(Error::new(
                    ErrorKind::TimedOut,
                    format!("only {index}/{} workers connected", cluster.n_workers),
                ));
            };
            let kill_at_min = cluster
                .heal
                .kill
                .filter(|plan| plan.worker as usize == index)
                .map(|plan| plan.at_min);
            let listen = self.handshake(&mut ctl, index, kill_at_min)?;
            self.slots.push(Slot::new(ctl, listen));
        }
        self.note(
            "accepted",
            format!("{} workers connected", cluster.n_workers),
        );
        pgrid_obs::info!(
            "cluster::coordinator",
            "{} workers connected, shards assigned",
            cluster.n_workers
        );
        self.broadcast_book()?;

        // --- barriers with failure detection and healing ---------------------
        for phase in PHASE_WIRED..=PHASE_DONE {
            let what = format!("PhaseDone({phase})");
            let (_, failed) =
                self.collect(&self.alive(), &what, PHASE_TIMEOUT, |msg| match msg {
                    ClusterMsg::PhaseDone { phase: p } if p == phase => Ok(()),
                    other => Err(other.into()),
                })?;
            let newly_failed: Vec<usize> = failed.iter().map(|&(index, _)| index).collect();
            if !newly_failed.is_empty() && cluster.heal.heal {
                self.heal_round(&newly_failed, phase)?;
            }
            // Every surviving worker reached the barrier (and any orphaned
            // shard was reassigned): refresh the merged live view before
            // releasing them into the next phase.
            self.merge
                .barrier_publish(phase, cluster, self.obs, &self.observed);
            self.note("barrier", format!("phase={phase} released"));
            pgrid_obs::debug!("cluster::coordinator", "phase {phase} barrier released");
            self.broadcast(&ClusterMsg::Proceed { phase })?;
        }

        // --- final reports ---------------------------------------------------
        let (reports, failed) =
            self.collect(&self.alive(), "Report", PHASE_TIMEOUT, |msg| match msg {
                ClusterMsg::Report(report) => Ok(report),
                other => Err(other.into()),
            })?;
        // An out-of-range report or silence is a broken run, but a worker
        // dying after its last barrier can no longer be healed (the run is
        // over): its failure is recorded, and the report assembled without
        // it.
        let broken = |e: &Error| matches!(e.kind(), ErrorKind::InvalidData | ErrorKind::TimedOut);
        if let Some((_, e)) = failed.into_iter().find(|(_, e)| broken(e)) {
            return Err(e);
        }

        self.observed.registry =
            self.merge
                .barrier_publish(PHASE_DONE, cluster, self.obs, &self.observed);
        if let Some(path) = &self.obs.trace_out {
            let mut file = std::fs::File::create(path)?;
            for chain in assemble(&self.observed.trace_events).values() {
                for event in chain {
                    writeln!(file, "{}", event.to_json())?;
                }
            }
            pgrid_obs::info!(
                "cluster::coordinator",
                "merged trace ({} events) written to {}",
                self.observed.trace_events.len(),
                path.display()
            );
        }
        let inputs = merge_reports(
            cluster,
            &self.membership.last_paths,
            std::mem::take(&mut self.bandwidth),
            reports,
        );
        Ok(assemble_report(&inputs, &cluster.timeline))
    }

    /// Declares worker `index` dead: stops polling it and probing its
    /// scrape endpoint (a rejoin's [`Coordinator::handshake`] announces it
    /// again), records the failure in the observability report, and dumps
    /// the flight recorder.
    fn mark_failed(&mut self, index: usize, error: &Error) {
        let slot = &mut self.slots[index];
        if !slot.alive {
            return;
        }
        slot.alive = false;
        self.observed.worker_metrics_addrs[index] = None;
        let detected_after_ms = slot.last_seen.elapsed().as_millis() as u64;
        let (start, len) = self.membership.shards[index];
        self.note(
            "worker_failed",
            format!(
                "worker={index} shard={start}+{len} after_ms={detected_after_ms} error={error}"
            ),
        );
        if let Some(path) = &self.obs.flight_dump {
            let _ = self.recorder.dump_to(path, "worker failure");
        }
        pgrid_obs::error!(
            "cluster::coordinator",
            "worker {index} (shard {start}+{len}) died: {error} \
             (detected after {detected_after_ms}ms)"
        );
        self.observed.failures.push(WorkerFailure {
            worker: index as u32,
            shard_start: start as u64,
            shard_len: len as u64,
            detected_after_ms,
            ..WorkerFailure::default()
        });
    }

    /// Polls the rendezvous listener for up to `rejoin_grace_ms` for the
    /// relaunched worker `failed` to reconnect with a matching [`Rejoin`]
    /// (same shard, same seed — a durable log from another run is
    /// rejected).  Every connection accepted inside that window is polled
    /// beside the listener, so one that never speaks holds up nobody; the
    /// first matching `Rejoin` wins.  Then it runs the [`handshake`]
    /// against the rejoiner, tells everyone the
    /// re-bound endpoints and the rejoiner which phase to resume at, and
    /// waits for its local log replay to finish.  Returns the number of
    /// peers it restored, or `None` when no valid rejoin arrived in time
    /// and the caller must fall back to reassignment.
    ///
    /// [`Rejoin`]: ClusterMsg::Rejoin
    /// [`handshake`]: Coordinator::handshake
    fn try_rejoin(&mut self, failed: usize, phase: u8, epoch: u64) -> Result<Option<u64>> {
        let grace = self.cluster.heal.rejoin_grace_ms;
        if grace == 0 {
            return Ok(None);
        }
        let (start, len) = self.membership.shards[failed];
        let deadline = Instant::now() + Duration::from_millis(grace);
        let mut candidates: Vec<ControlChannel> = Vec::new();
        let mut ctl = 'found: loop {
            let mut i = 0;
            while i < candidates.len() {
                match candidates[i].try_recv() {
                    Ok(None) => i += 1,
                    Ok(Some(
                        rejoin @ ClusterMsg::Rejoin {
                            shard_start,
                            shard_len,
                            seed,
                            ..
                        },
                    )) if shard_start as usize == start
                        && shard_len as usize == len
                        && seed == self.cluster.net.seed =>
                    {
                        self.note("rejoin", format!("worker={failed} {rejoin:?}"));
                        break 'found candidates.swap_remove(i);
                    }
                    other => {
                        pgrid_obs::warn!(
                            "cluster::coordinator",
                            "rejected rejoin connection for worker {failed}: {other:?}"
                        );
                        candidates.swap_remove(i);
                    }
                }
            }
            // With candidates to poll, only look at the listener once;
            // their polls pace the loop.
            let wait = if candidates.is_empty() {
                deadline
            } else {
                Instant::now()
            };
            match self.accept_until(wait)? {
                Some(candidate) => candidates.push(candidate),
                None if Instant::now() >= deadline => return Ok(None),
                None => {}
            }
        };

        // The rejoiner re-binds its shard endpoints at fresh ports.  No
        // kill plan the second time around.
        let listen = self.handshake(&mut ctl, failed, None)?;
        // The barrier for `phase` was already collected without this
        // worker: it re-enters the protocol parked, waiting for Proceed —
        // after the address book everyone gets, and the phase the cluster
        // is parked at.
        self.slots[failed] = Slot::new(ctl, listen);
        self.broadcast_book()?;
        self.slots[failed]
            .ctl
            .send(&ClusterMsg::Resume { epoch, phase })?;

        let (done, lost) = self.collect(
            &[failed],
            "RecoveryDone",
            RECOVERY_TIMEOUT,
            recovery_done(epoch),
        )?;
        if let Some((_, e)) = lost.into_iter().next() {
            return Err(e);
        }
        let warm = done.concat().len() as u64;
        self.note("rejoin_done", format!("worker={failed} warm={warm}"));
        pgrid_obs::info!(
            "cluster::coordinator",
            "epoch {epoch}: worker {failed} rejoined warm, replayed {warm} peers \
             from its durable log"
        );
        Ok(Some(warm))
    }

    /// One healing round: a new epoch; each dead worker's relaunched
    /// process gets a chance to reclaim its own shard from its durable log
    /// (warm rejoin); the remaining orphans are reassigned onto the
    /// survivors, the address book re-broadcast with each orphan at its
    /// adopter's listen address, and the replica rebuilds awaited.  The
    /// round aborts the run if an adopter fails.
    fn heal_round(&mut self, newly_failed: &[usize], phase: u8) -> Result<()> {
        let heal_started = Instant::now();
        self.membership.epoch += 1;
        let epoch = self.membership.epoch;

        // Warm rejoin first: a relaunched worker holding the shard's durable
        // log replays it locally, which beats rebuilding every orphan over
        // the data plane from replicas.
        let mut failed: Vec<usize> = Vec::new();
        for &worker in newly_failed {
            let Some(recovered_warm) = self.try_rejoin(worker, phase, epoch)? else {
                failed.push(worker);
                continue;
            };
            for failure in &mut self.observed.failures {
                if failure.worker as usize == worker && !failure.healed {
                    failure.healed = true;
                    failure.rejoined = true;
                    failure.recovery_ms = heal_started.elapsed().as_millis() as u64;
                    failure.recovered_warm = recovered_warm;
                }
            }
        }
        if failed.is_empty() {
            return Ok(());
        }
        // Rejoined workers count as survivors for the remaining orphans:
        // they are parked at the barrier and absorb reassignments like
        // anyone else.
        let alive: Vec<bool> = self.slots.iter().map(|slot| slot.alive).collect();
        if !alive.contains(&true) {
            pgrid_obs::error!(
                "cluster::coordinator",
                "no survivors left to heal onto; degrading"
            );
            return Ok(());
        }
        let moves = plan_reassignment(&self.membership, &failed, &alive);
        self.note(
            "shard_reassign",
            format!("epoch={epoch} moves={}", moves.len()),
        );
        for m in &moves {
            self.membership.host_of[m.peer as usize] = m.to_worker as usize;
        }
        let adopters: BTreeSet<usize> = moves.iter().map(|m| m.to_worker as usize).collect();
        let adopters: Vec<usize> = adopters.into_iter().collect();
        // Every adopter takes the orphaned endpoints in behind its one
        // listener on the reassignment; the book that follows points
        // everyone there and starts the rebuilds.
        self.broadcast(&ClusterMsg::ShardReassign { epoch, moves })?;
        self.broadcast_book()?;

        // Replica rebuilds: each adopter pulls the orphans' state from live
        // replicas over the data plane (local seeded fallback guarantees
        // termination) and acknowledges.
        let (done, lost) = self.collect(
            &adopters,
            "RecoveryDone",
            RECOVERY_TIMEOUT,
            recovery_done(epoch),
        )?;
        if let Some((_, e)) = lost.into_iter().next() {
            return Err(e);
        }
        let recovered = done.concat();
        let recovered_replica = recovered.iter().filter(|&&(_, replica)| replica).count();
        let recovered_local = recovered.len() - recovered_replica;
        self.note(
            "recovery_done",
            format!("epoch={epoch} replica={recovered_replica} local={recovered_local}"),
        );
        pgrid_obs::info!(
            "cluster::coordinator",
            "epoch {epoch}: healed {} orphans ({recovered_replica} from replicas, \
             {recovered_local} locally)",
            recovered_replica + recovered_local
        );
        let recovery_ms = heal_started.elapsed().as_millis() as u64;
        record_healed(
            &mut self.observed.failures,
            &failed,
            &recovered,
            recovery_ms,
        );
        Ok(())
    }
}

/// Marks the failures of the `failed` workers healed after `recovery_ms`,
/// counting each `(peer, via_replica)` of `recovered` against the failure
/// whose shard holds the peer.
fn record_healed(
    failures: &mut [WorkerFailure],
    failed: &[usize],
    recovered: &[(u64, bool)],
    recovery_ms: u64,
) {
    let healed_now = |f: &WorkerFailure| !f.healed && failed.contains(&(f.worker as usize));
    for failure in failures.iter_mut().filter(|f| healed_now(f)) {
        failure.healed = true;
        failure.recovery_ms = recovery_ms;
        let shard = failure.shard_start..failure.shard_start + failure.shard_len;
        for &(_, via_replica) in recovered.iter().filter(|(peer, _)| shard.contains(peer)) {
            if via_replica {
                failure.recovered_replica += 1;
            } else {
                failure.recovered_local += 1;
            }
        }
    }
}

/// Maps every orphan of the `failed` workers onto a live worker (`alive`
/// is indexed by worker; round robin keeps the adopted load even) with a
/// replica hint: the live peer whose last barrier path shares the longest
/// prefix with the orphan's — an exact match *is* a replica of the orphan's
/// partition.  A peer an earlier round already moved elsewhere is skipped.
fn plan_reassignment(
    membership: &Membership,
    failed: &[usize],
    alive: &[bool],
) -> Vec<ReassignMove> {
    let survivors: Vec<usize> = (0..alive.len()).filter(|&worker| alive[worker]).collect();
    // Peers a live worker hosts: the only admissible sources.
    let live: Vec<usize> = (0..membership.host_of.len())
        .filter(|&peer| alive[membership.host_of[peer]])
        .collect();
    let failed: BTreeSet<usize> = failed.iter().copied().collect();
    let mut moves: Vec<ReassignMove> = Vec::new();
    for &worker in &failed {
        let (start, len) = membership.shards[worker];
        for peer in start..start + len {
            if membership.host_of[peer] != worker {
                continue; // previously adopted elsewhere
            }
            let to_worker = survivors[moves.len() % survivors.len()];
            let path = membership.last_paths[peer];
            // Prefer true replicas (identical path) over mere prefix
            // neighbours ...
            let score = |p: usize| {
                let other = membership.last_paths[p];
                (other == path, path.common_prefix_len(&other))
            };
            let source = match live.iter().map(|&p| score(p)).max() {
                // ... and rotate through equally-good sources, so a batch
                // of orphans does not pile its rebuilt state onto one
                // replica's partition.
                Some(best) => {
                    let tied: Vec<usize> =
                        live.iter().copied().filter(|&p| score(p) == best).collect();
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
    moves
}

/// Splits `n_peers` into `n_workers` contiguous shards, as even as
/// possible: the first `n_peers % n_workers` shards get one extra peer.
/// Returns `(start, len)` per worker.
fn shard_assignment(n_peers: usize, n_workers: usize) -> Vec<(usize, usize)> {
    assert!(
        (1..=n_peers).contains(&n_workers),
        "cannot split {n_peers} peers across {n_workers} workers"
    );
    let (base, extra) = (n_peers / n_workers, n_peers % n_workers);
    (0..n_workers)
        .map(|w| (w * base + w.min(extra), base + usize::from(w < extra)))
        .collect()
}

/// Merges the shard reports into the single-process report inputs: paths at
/// their global indices, query aggregates folded, counters summed.
///
/// `last_paths` seeds the path vector so peers of a dead, unhealed shard
/// keep their last barrier-observed path in the partial report; live
/// shards and adopted peers overwrite their entries.
fn merge_reports(
    cluster: &ClusterConfig,
    last_paths: &[Path],
    bandwidth: HashMap<u64, BandwidthSample>,
    reports: Vec<ShardReport>,
) -> ReportInputs {
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
        // Both ranges passed `check_ranges` when the report arrived.
        let start = report.shard_start as usize;
        paths[start..start + report.paths.len()].copy_from_slice(&report.paths);
        for &(peer, path) in &report.extra_paths {
            paths[peer as usize] = path;
        }
        // Histograms, counters and per-minute buckets all merge by
        // addition, so the fold is order-independent across shards.
        queries.merge(&report.query_stats);
        online_at_end += report.online_at_end as usize;
        transport.merge(&report.transport);
    }

    ReportInputs {
        n_peers: cluster.net.n_peers,
        params: cluster.net.balance_params(),
        original_keys: original_entries.iter().map(|e| e.key).collect(),
        paths,
        queries,
        bandwidth_per_minute: bandwidth,
        online_at_end,
        transport,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::PHASE_CONSTRUCTED;
    use pgrid_net::runtime::QueryAggregates;
    use pgrid_transport::ReactorStats;
    use std::net::TcpStream;

    fn cluster(n_peers: usize, n_workers: usize, rejoin_grace_ms: u64) -> ClusterConfig {
        ClusterConfig {
            n_workers,
            net: NetConfig {
                n_peers,
                seed: 12,
                ..NetConfig::default()
            },
            timeline: Timeline::default(),
            heal: HealConfig {
                rejoin_grace_ms,
                ..HealConfig::default()
            },
        }
    }

    /// A coordinator on a fresh loopback socket, polled like a real one.
    fn coordinator<'a>(cluster: &'a ClusterConfig, obs: &'a ObsOptions) -> Coordinator<'a> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        Coordinator::new(listener, cluster, obs)
    }

    /// Runs `script` as the worker end of a fresh control connection.
    fn scripted_worker(
        coordinator: &Coordinator<'_>,
        script: impl FnOnce(ControlChannel) + Send + 'static,
    ) -> std::thread::JoinHandle<()> {
        let addr = coordinator.listener.local_addr().unwrap();
        std::thread::spawn(move || {
            script(ControlChannel::new(TcpStream::connect(addr).unwrap()).unwrap())
        })
    }

    fn accept(coordinator: &Coordinator<'_>) -> ControlChannel {
        coordinator
            .accept_until(Instant::now() + Duration::from_secs(5))
            .unwrap()
            .expect("the scripted worker connects")
    }

    fn addr(port: u16) -> SocketAddr {
        SocketAddr::from(([127, 0, 0, 1], port))
    }

    /// Answers a `Welcome` with a `Hello` for the shard `shard_start+len`.
    fn answer_welcome(ctl: &mut ControlChannel, shard_start: u64, len: u64) {
        let welcome = ctl.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(matches!(welcome, ClusterMsg::Welcome { .. }), "{welcome:?}");
        ctl.send(&ClusterMsg::Hello {
            shard_start,
            shard_len: len,
            listen: addr(4000 + shard_start as u16),
            metrics_addr: Some(addr(9100)),
        })
        .unwrap();
    }

    #[test]
    fn shards_are_contiguous_and_exhaustive() {
        for (n_peers, n_workers) in [(10, 3), (64, 2), (7, 7), (100, 8)] {
            let shards = shard_assignment(n_peers, n_workers);
            assert_eq!(shards.len(), n_workers);
            let mut next = 0;
            for (start, len) in shards {
                assert_eq!(start, next);
                assert!(len >= 1);
                next = start + len;
            }
            assert_eq!(next, n_peers);
        }
    }

    #[test]
    fn handshake_assigns_the_shard_and_returns_its_endpoints() {
        let (cluster, obs) = (cluster(8, 2, 0), ObsOptions::default());
        let mut coordinator = coordinator(&cluster, &obs);
        let worker = scripted_worker(&coordinator, |mut ctl| {
            let welcome = ctl.recv_timeout(Duration::from_secs(5)).unwrap();
            let ClusterMsg::Welcome {
                worker_index,
                shard_start,
                shard_len,
                kill_at_min,
                ..
            } = welcome
            else {
                panic!("expected Welcome, got {welcome:?}");
            };
            assert_eq!((worker_index, shard_start, shard_len), (1, 4, 4));
            assert_eq!(kill_at_min, Some(7));
            ctl.send(&ClusterMsg::Hello {
                shard_start,
                shard_len,
                listen: addr(4004),
                metrics_addr: Some(addr(9100)),
            })
            .unwrap();
        });
        let mut ctl = accept(&coordinator);
        let listen = coordinator.handshake(&mut ctl, 1, Some(7)).unwrap();
        worker.join().unwrap();
        assert_eq!(listen, addr(4004));
        assert_eq!(
            coordinator.observed.worker_metrics_addrs,
            [None, Some(addr(9100))]
        );
        // The book puts every peer at its host's listen address, in peer
        // order; a reassigned peer's endpoint moves to its adopter.
        let first = scripted_worker(&coordinator, drop);
        coordinator
            .slots
            .push(Slot::new(accept(&coordinator), addr(4000)));
        first.join().unwrap();
        coordinator.slots.push(Slot::new(ctl, listen));
        coordinator.membership.host_of[5] = 0;
        let hosts = [0, 0, 0, 0, 1, 0, 1, 1];
        let expect: Vec<(u64, SocketAddr)> = (0..8)
            .map(|peer| (peer, [addr(4000), listen][hosts[peer as usize]]))
            .collect();
        assert_eq!(coordinator.book(), expect);
    }

    #[test]
    fn hello_for_the_wrong_shard_is_invalid_data_on_both_paths() {
        let (cluster, obs) = (cluster(8, 2, 5_000), ObsOptions::default());
        let mut coordinator = coordinator(&cluster, &obs);

        // Initial rendezvous: worker 1 is assigned 4+4 and announces 0+4.
        let worker = scripted_worker(&coordinator, |mut ctl| answer_welcome(&mut ctl, 0, 4));
        let mut ctl = accept(&coordinator);
        let initial = coordinator.handshake(&mut ctl, 1, None).unwrap_err();
        worker.join().unwrap();

        // Warm rejoin: the log matches shard 4+4, the Hello after it does
        // not.
        let worker = scripted_worker(&coordinator, |mut ctl| {
            ctl.send(&ClusterMsg::Rejoin {
                shard_start: 4,
                shard_len: 4,
                epoch: 0,
                phase: PHASE_CONSTRUCTED,
                now_ms: 600_000,
                seed: 12,
            })
            .unwrap();
            answer_welcome(&mut ctl, 0, 4);
        });
        let rejoin = coordinator.try_rejoin(1, PHASE_CONSTRUCTED, 1).unwrap_err();
        worker.join().unwrap();

        for error in [initial, rejoin] {
            assert_eq!(error.kind(), ErrorKind::InvalidData);
            assert_eq!(
                error.to_string(),
                "worker 1 announced shard 0+4 instead of 4+4"
            );
        }
    }

    #[test]
    fn a_silent_connection_does_not_stall_the_rejoin_window() {
        let (cluster, obs) = (cluster(4, 1, 5_000), ObsOptions::default());
        // Worker 0 died; its slot waits for the rejoiner.
        let (mut coordinator, dead) = with_worker(&cluster, &obs, drop);
        dead.join().unwrap();
        coordinator.slots[0].alive = false;
        let addr = coordinator.listener.local_addr().unwrap();

        // A stray connection that never speaks, held open until the
        // rejoin is over (or for 10 s).
        let (connected, is_connected) = std::sync::mpsc::channel();
        let (release, released) = std::sync::mpsc::channel::<()>();
        let stray = std::thread::spawn(move || {
            let _silent = TcpStream::connect(addr).unwrap();
            connected.send(()).unwrap();
            let _ = released.recv_timeout(Duration::from_secs(10));
        });
        is_connected.recv().unwrap();
        // The real rejoiner connects after it.
        let rejoiner = scripted_worker(&coordinator, |mut ctl| {
            ctl.send(&ClusterMsg::Rejoin {
                shard_start: 0,
                shard_len: 4,
                epoch: 0,
                phase: PHASE_CONSTRUCTED,
                now_ms: 600_000,
                seed: 12,
            })
            .unwrap();
            answer_welcome(&mut ctl, 0, 4);
            let book = ctl.recv_timeout(Duration::from_secs(5)).unwrap();
            assert!(matches!(book, ClusterMsg::AddressBook { .. }), "{book:?}");
            let resume = ctl.recv_timeout(Duration::from_secs(5)).unwrap();
            assert!(
                matches!(resume, ClusterMsg::Resume { epoch: 1, phase } if phase == PHASE_CONSTRUCTED),
                "{resume:?}"
            );
            ctl.send(&ClusterMsg::RecoveryDone {
                epoch: 1,
                recovered: vec![(0, true), (1, true)],
            })
            .unwrap();
        });

        let started = Instant::now();
        let warm = coordinator.try_rejoin(0, PHASE_CONSTRUCTED, 1).unwrap();
        let took = started.elapsed();
        release.send(()).unwrap();
        rejoiner.join().unwrap();
        stray.join().unwrap();
        assert_eq!(warm, Some(2));
        assert!(
            took < Duration::from_secs(5),
            "the rejoin waited {took:?} behind a silent connection"
        );
    }

    /// A coordinator whose worker 0 is played by `script`.
    fn with_worker<'a>(
        cluster: &'a ClusterConfig,
        obs: &'a ObsOptions,
        script: impl FnOnce(ControlChannel) + Send + 'static,
    ) -> (Coordinator<'a>, std::thread::JoinHandle<()>) {
        let mut coordinator = coordinator(cluster, obs);
        let worker = scripted_worker(&coordinator, script);
        let ctl = accept(&coordinator);
        coordinator.slots.push(Slot::new(ctl, addr(4000)));
        (coordinator, worker)
    }

    #[test]
    fn collect_absorbs_routine_traffic_until_the_awaited_message() {
        let (cluster, obs) = (cluster(8, 1, 0), ObsOptions::default());
        let (mut coordinator, worker) = with_worker(&cluster, &obs, |mut ctl| {
            for msg in [
                ClusterMsg::Heartbeat,
                ClusterMsg::Minutes {
                    samples: vec![(3, 10, 20)],
                },
                // A worker's counters come off the wire: they saturate.
                ClusterMsg::Minutes {
                    samples: vec![(4, u64::MAX, u64::MAX), (4, u64::MAX, 1)],
                },
                ClusterMsg::ShardPaths {
                    shard_start: 2,
                    paths: vec![Path::parse("01"), Path::parse("1")],
                },
                ClusterMsg::RecoveryDone {
                    epoch: 1,
                    recovered: vec![(5, true)],
                },
            ] {
                ctl.send(&msg).unwrap();
            }
            // Hold the connection open until the coordinator has read it.
            let _ = ctl.recv_timeout(Duration::from_secs(5));
        });
        let (done, failed) = coordinator
            .collect(
                &[0],
                "RecoveryDone",
                Duration::from_secs(5),
                recovery_done(1),
            )
            .unwrap();
        assert_eq!(done, [[(5, true)]]);
        assert!(failed.is_empty(), "{failed:?}");
        assert_eq!(coordinator.bandwidth[&3].maintenance_bytes, 10);
        assert_eq!(coordinator.bandwidth[&3].query_bytes, 20);
        assert_eq!(coordinator.bandwidth[&4].maintenance_bytes, usize::MAX);
        assert_eq!(coordinator.bandwidth[&4].query_bytes, usize::MAX);
        assert_eq!(coordinator.membership.last_paths[2], Path::parse("01"));
        assert_eq!(coordinator.membership.last_paths[3], Path::parse("1"));
        drop(coordinator);
        worker.join().unwrap();
    }

    #[test]
    fn a_failed_worker_is_neither_probed_nor_published() {
        let (cluster, obs) = (cluster(8, 1, 0), ObsOptions::default());
        let (mut coordinator, worker) = with_worker(&cluster, &obs, |mut ctl| {
            let _ = ctl.recv_timeout(Duration::from_secs(5));
        });
        // A stopped worker's scrape socket takes connections and never
        // answers: each probe would wait out the 2 s read timeout.
        let silent = TcpListener::bind("127.0.0.1:0").unwrap();
        coordinator.observed.worker_metrics_addrs[0] = Some(silent.local_addr().unwrap());
        coordinator.mark_failed(0, &Error::new(ErrorKind::TimedOut, "no heartbeat"));
        let started = Instant::now();
        let merged = coordinator.merge.barrier_publish(
            PHASE_CONSTRUCTED,
            &cluster,
            &obs,
            &coordinator.observed,
        );
        let took = started.elapsed();
        assert!(
            took < Duration::from_millis(500),
            "the barrier took {took:?}"
        );
        let text = merged.encode();
        assert!(
            !text.contains("pgrid_cluster_worker_metrics_port"),
            "{text}"
        );
        drop(coordinator);
        worker.join().unwrap();
    }

    #[test]
    fn collect_rejects_the_wrong_message_and_names_what_it_awaited() {
        let (cluster, obs) = (cluster(8, 1, 0), ObsOptions::default());
        let (mut coordinator, worker) = with_worker(&cluster, &obs, |mut ctl| {
            ctl.send(&ClusterMsg::PhaseDone { phase: 2 }).unwrap();
            let _ = ctl.recv_timeout(Duration::from_secs(5));
        });
        let wrong = coordinator
            .collect(
                &[0],
                "RecoveryDone",
                Duration::from_secs(5),
                recovery_done(1),
            )
            .unwrap_err();
        assert_eq!(wrong.kind(), ErrorKind::InvalidData);
        assert!(
            wrong
                .to_string()
                .starts_with("expected RecoveryDone from worker 0, got"),
            "{wrong}"
        );
        // Nothing else arrives: silence past the deadline is a time-out
        // that says what was awaited, from whom.
        let silence = coordinator
            .collect(
                &[0],
                "RecoveryDone",
                Duration::from_millis(50),
                recovery_done(1),
            )
            .unwrap_err();
        assert_eq!(silence.kind(), ErrorKind::TimedOut);
        assert_eq!(silence.to_string(), "worker 0 never sent RecoveryDone");
        drop(coordinator);
        worker.join().unwrap();
    }

    /// `n_workers` equal shards of `per_worker` peers, every peer at `path`.
    fn membership(n_workers: usize, per_worker: usize, path: &str) -> Membership {
        let n_peers = n_workers * per_worker;
        Membership {
            shards: shard_assignment(n_peers, n_workers),
            host_of: (0..n_peers).map(|peer| peer / per_worker).collect(),
            last_paths: vec![Path::parse(path); n_peers],
            epoch: 0,
        }
    }

    #[test]
    fn reassignment_spreads_the_orphans_evenly_over_the_survivors() {
        let membership = membership(5, 7, "01");
        let alive = [true, false, true, true, false];
        let moves = plan_reassignment(&membership, &[4, 1], &alive);
        assert_eq!(moves.len(), 14, "every orphan of both shards moves");
        let mut load = [0usize; 5];
        for m in &moves {
            assert!(alive[m.to_worker as usize], "adopter {m:?} is dead");
            assert_ne!(m.source_peer, m.peer, "a candidate existed for {m:?}");
            load[m.to_worker as usize] += 1;
        }
        let adopted: Vec<usize> = [0, 2, 3].iter().map(|&worker| load[worker]).collect();
        let (min, max) = (adopted.iter().min().unwrap(), adopted.iter().max().unwrap());
        assert!(max - min <= 1, "adopted load {adopted:?}");
    }

    #[test]
    fn reassignment_prefers_a_true_replica_and_never_a_dead_workers_peer() {
        // Worker 2 (peers 8..12) dies; worker 1 (peers 4..8) died earlier
        // and was never healed.
        let mut membership = membership(3, 4, "1");
        let orphan = Path::parse("010");
        membership.last_paths[8..12].fill(orphan);
        membership.last_paths[0] = Path::parse("0101"); // prefix neighbour
        membership.last_paths[3] = orphan; // identical path: a replica
        membership.last_paths[5] = orphan; // a replica too, on a dead worker
        let moves = plan_reassignment(&membership, &[2], &[true, false, false]);
        assert_eq!(moves.len(), 4);
        for m in &moves {
            assert_eq!(m.source_peer, 3, "{m:?}");
            assert_eq!((m.to_worker, m.path), (0, orphan));
        }
    }

    #[test]
    fn equally_good_sources_rotate_with_the_orphan_id() {
        let mut membership = membership(2, 4, "1");
        let orphan = Path::parse("00");
        membership.last_paths[4..8].fill(orphan);
        membership.last_paths[1] = orphan;
        membership.last_paths[2] = orphan;
        let moves = plan_reassignment(&membership, &[1], &[true, false]);
        let sources: Vec<u64> = moves.iter().map(|m| m.source_peer).collect();
        // Orphans 4, 5, 6, 7 over the tied sources [1, 2].
        assert_eq!(sources, [1, 2, 1, 2]);
    }

    #[test]
    fn a_peer_already_adopted_elsewhere_is_skipped() {
        let mut membership = membership(3, 4, "0");
        // An earlier round moved peers 8 and 10 of worker 2 onto worker 0.
        membership.host_of[8] = 0;
        membership.host_of[10] = 0;
        let moves = plan_reassignment(&membership, &[2], &[true, true, false]);
        let moved: Vec<u64> = moves.iter().map(|m| m.peer).collect();
        assert_eq!(moved, [9, 11]);
    }

    #[test]
    fn each_recovered_peer_counts_against_the_failure_whose_shard_held_it() {
        // Workers 1 (peers 10..20) and 2 (peers 20..31) died in one round;
        // worker 0's earlier failure was healed before.
        let failure = |worker, shard_start, shard_len, healed| WorkerFailure {
            worker,
            shard_start,
            shard_len,
            healed,
            ..WorkerFailure::default()
        };
        let mut failures = [
            failure(0, 0, 10, true),
            failure(1, 10, 10, false),
            failure(2, 20, 11, false),
        ];
        // Every orphan from a replica but peers 12 and 30.
        let recovered: Vec<(u64, bool)> = (10..31).map(|peer| (peer, peer % 18 != 12)).collect();
        record_healed(&mut failures, &[2, 1], &recovered, 40);
        let counts: Vec<(bool, u64, u64, u64)> = failures
            .iter()
            .map(|f| {
                (
                    f.healed,
                    f.recovery_ms,
                    f.recovered_replica,
                    f.recovered_local,
                )
            })
            .collect();
        assert_eq!(
            counts,
            [(true, 0, 0, 0), (true, 40, 9, 1), (true, 40, 10, 1)]
        );
    }

    #[test]
    fn merge_reports_places_paths_and_sums_what_the_shards_report() {
        // Three workers of three peers each; worker 2 died, and worker 0
        // adopted its peer 7.
        let cluster = cluster(9, 3, 0);
        let last_paths: Vec<Path> = (0..9).map(|_| Path::parse("111")).collect();
        let stats = |issued, latency_ms, minute| {
            let mut stats = QueryAggregates {
                issued,
                succeeded: issued - 1,
                ..QueryAggregates::default()
            };
            stats.latency.record(latency_ms);
            stats.per_minute.entry(minute).or_default().record(0.5);
            stats
        };
        let transport = |frames, reconnects| TransportStats {
            frames_sent: frames,
            frames_delivered: frames - 1,
            bytes_sent: 100 * frames,
            bytes_delivered: 100 * (frames - 1),
            reactor: Some(ReactorStats {
                registered_peers: 3,
                reconnects,
                ..ReactorStats::default()
            }),
        };
        let shard = |start, path, extra_paths, issued, minute, frames| ShardReport {
            shard_start: start,
            paths: vec![Path::parse(path); 3],
            query_stats: stats(issued, 40 * issued, minute),
            online_at_end: 3,
            transport: transport(frames, frames / 10),
            extra_paths,
        };
        let reports = vec![
            shard(0, "0", vec![(7, Path::parse("10"))], 10, 2, 50),
            shard(3, "01", Vec::new(), 20, 3, 70),
        ];
        let inputs = merge_reports(&cluster, &last_paths, HashMap::new(), reports);

        let expect: Vec<Path> = ["0", "0", "0", "01", "01", "01", "111", "10", "111"]
            .into_iter()
            .map(Path::parse)
            .collect();
        assert_eq!(inputs.paths, expect);
        assert_eq!(inputs.online_at_end, 6);
        assert_eq!(
            inputs.original_keys.len(),
            inputs.n_peers * cluster.net.keys_per_peer
        );
        assert_eq!((inputs.queries.issued, inputs.queries.succeeded), (30, 28));
        assert_eq!(inputs.queries.latency.total(), 2);
        let minutes: Vec<(u64, u64)> = inputs
            .queries
            .per_minute
            .iter()
            .map(|(&m, bucket)| (m, bucket.count))
            .collect();
        assert_eq!(minutes, [(2, 1), (3, 1)]);
        assert_eq!(
            inputs.transport,
            TransportStats {
                frames_sent: 120,
                frames_delivered: 118,
                bytes_sent: 12_000,
                bytes_delivered: 11_800,
                reactor: Some(ReactorStats {
                    registered_peers: 6,
                    reconnects: 12,
                    ..ReactorStats::default()
                }),
            }
        );
    }
}
