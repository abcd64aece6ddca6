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

use crate::plan::shard_assignment;
use crate::proto::{
    protocol_error, ClusterMsg, ControlChannel, ReassignMove, ShardReport, PHASE_DONE, PHASE_WIRED,
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
    /// `false` once the coordinator declared this worker dead.
    alive: bool,
    /// Whether the worker reached the barrier currently being collected.
    done: bool,
    /// Last time any control message arrived from this worker.
    last_seen: Instant,
}

impl Slot {
    fn new(ctl: ControlChannel, done: bool) -> Slot {
        Slot {
            ctl,
            alive: true,
            done,
            last_seen: Instant::now(),
        }
    }
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
    /// The current address book (sorted by peer id), re-broadcast after
    /// endpoint takeovers.
    book: Vec<(u64, SocketAddr)>,
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
                book: Vec::with_capacity(n_peers),
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
    /// and returns the listen addresses of its peers.
    ///
    /// The wait is bounded by [`RECOVERY_TIMEOUT`] on both paths: during a
    /// healing round the survivors are parked on their own barrier
    /// time-out while this runs.
    fn handshake(
        &mut self,
        ctl: &mut ControlChannel,
        index: usize,
        kill_at_min: Option<u64>,
    ) -> Result<Vec<(u64, SocketAddr)>> {
        let (start, len) = self.membership.shards[index];
        ctl.send(&ClusterMsg::Welcome {
            worker_index: index as u32,
            n_workers: self.cluster.n_workers as u32,
            shard_start: start as u64,
            shard_len: len as u64,
            config: self.cluster.net.clone(),
            timeline: self.cluster.timeline,
            tracing: self.obs.tracing,
            heartbeat_ms: self.cluster.heal.heartbeat_ms,
            failure_timeout_ms: self.cluster.heal.failure_timeout_ms,
            heal: self.cluster.heal.heal,
            kill_at_min,
        })?;
        let hello = ctl.recv_timeout(RECOVERY_TIMEOUT)?;
        hello.check_ranges(self.cluster.net.n_peers)?;
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
                    "worker {index} announced shard {shard_start}+{} instead of {start}+{len}",
                    peer_addrs.len()
                ),
            ));
        }
        self.observed.worker_metrics_addrs[index] = metrics_addr;
        self.note(
            "hello",
            format!("worker={index} shard={shard_start} metrics={metrics_addr:?}"),
        );
        Ok(peer_addrs)
    }

    /// Folds fresh `(peer, address)` pairs into the address book: a known
    /// peer's endpoint moves, an unknown one is inserted in id order.
    fn merge_book(&mut self, addrs: Vec<(u64, SocketAddr)>) {
        let book = &mut self.membership.book;
        for (peer, addr) in addrs {
            match book.binary_search_by_key(&peer, |&(p, _)| p) {
                Ok(at) => book[at].1 = addr,
                Err(at) => book.insert(at, (peer, addr)),
            }
        }
    }

    /// Sends `msg` to every live worker, in slot order.
    fn broadcast(&mut self, msg: &ClusterMsg) -> Result<()> {
        for slot in self.slots.iter_mut().filter(|slot| slot.alive) {
            slot.ctl.send(msg)?;
        }
        Ok(())
    }

    fn broadcast_book(&mut self) -> Result<()> {
        let book = ClusterMsg::AddressBook {
            peer_addrs: self.membership.book.clone(),
        };
        self.broadcast(&book)
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
                ClusterMsg::Heartbeat { .. } => {}
                ClusterMsg::ShardPaths { shard_start, paths } => {
                    let start = shard_start as usize;
                    self.membership.last_paths[start..start + paths.len()].copy_from_slice(&paths);
                }
                other => return Ok(Some(other)),
            }
        }
    }

    /// The one wait of the control plane: absorbs routine traffic from
    /// `worker` until `pick` accepts a message.  Any other message is a
    /// protocol error naming `what`; silence past `timeout` is `TimedOut`
    /// naming `what`.
    fn expect_from<T>(
        &mut self,
        worker: usize,
        what: &str,
        timeout: Duration,
        pick: impl Fn(ClusterMsg) -> std::result::Result<T, Box<ClusterMsg>>,
    ) -> Result<T> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(msg) = self.poll_routine(worker)? {
                return pick(msg).map_err(|other| protocol_error(what, &other));
            }
            if Instant::now() >= deadline {
                return Err(Error::new(
                    ErrorKind::TimedOut,
                    format!("worker {worker} never sent {what}"),
                ));
            }
        }
    }

    /// Awaits `worker`'s `RecoveryDone` for `epoch` and records it as the
    /// host of every peer it lists.
    fn expect_recovery_done(&mut self, worker: usize, epoch: u64) -> Result<Vec<(u64, bool)>> {
        let recovered =
            self.expect_from(worker, "RecoveryDone", RECOVERY_TIMEOUT, |msg| match msg {
                ClusterMsg::RecoveryDone {
                    epoch: e,
                    recovered,
                } if e == epoch => Ok(recovered),
                other => Err(other.into()),
            })?;
        for &(peer, _) in &recovered {
            self.membership.host_of[peer as usize] = worker;
        }
        Ok(recovered)
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
            let addrs = self.handshake(&mut ctl, index, kill_at_min)?;
            self.merge_book(addrs);
            self.slots.push(Slot::new(ctl, false));
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
            let newly_failed = self.collect_barrier(phase)?;
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
        let mut reports: Vec<ShardReport> = Vec::with_capacity(cluster.n_workers);
        for index in 0..self.slots.len() {
            if !self.slots[index].alive {
                continue;
            }
            let report = self.expect_from(index, "Report", PHASE_TIMEOUT, |msg| match msg {
                ClusterMsg::Report(report) => Ok(report),
                other => Err(other.into()),
            });
            match report {
                Ok(report) => reports.push(report),
                // A wrong message or silence is a broken run ...
                Err(e) if matches!(e.kind(), ErrorKind::InvalidData | ErrorKind::TimedOut) => {
                    return Err(e)
                }
                // ... but a worker dying after its last barrier can no
                // longer be healed (the run is over); record the failure
                // and assemble a partial report.
                Err(e) => self.mark_failed(index, &e),
            }
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
        Ok(merge_reports(
            cluster,
            &self.membership.last_paths,
            std::mem::take(&mut self.bandwidth),
            reports,
        ))
    }

    /// Declares worker `index` dead: stops polling it, records the failure
    /// in the observability report, and dumps the flight recorder.
    fn mark_failed(&mut self, index: usize, error: &Error) {
        let slot = &mut self.slots[index];
        if !slot.alive {
            return;
        }
        slot.alive = false;
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
            healed: false,
            recovery_ms: 0,
            recovered_replica: 0,
            recovered_local: 0,
            rejoined: false,
            recovered_warm: 0,
        });
    }

    /// Collects `PhaseDone(phase)` from every live worker, detecting
    /// failures along the way (connection EOF, heartbeat silence, a message
    /// that fails its range check).  Returns the indices of workers that
    /// died during this barrier.
    fn collect_barrier(&mut self, phase: u8) -> Result<Vec<usize>> {
        for slot in self.slots.iter_mut() {
            slot.done = false;
            // Liveness clocks restart per barrier: a worker is only expected
            // to be silent for as long as its phase lasts minus heartbeats.
            slot.last_seen = Instant::now();
        }
        let heartbeats = self.cluster.heal.heartbeat_ms > 0;
        let failure_timeout = Duration::from_millis(self.cluster.heal.failure_timeout_ms.max(1));
        let deadline = Instant::now() + PHASE_TIMEOUT;
        let mut newly_failed = Vec::new();
        while self.slots.iter().any(|s| s.alive && !s.done) {
            for index in 0..self.slots.len() {
                if !self.slots[index].alive || self.slots[index].done {
                    continue;
                }
                let polled = self.poll_routine(index);
                let silence = self.slots[index].last_seen.elapsed();
                let failure = match polled {
                    Ok(Some(ClusterMsg::PhaseDone { phase: p })) if p == phase => {
                        self.slots[index].done = true;
                        None
                    }
                    Ok(Some(other)) => {
                        let what = format!("PhaseDone({phase}) from worker {index}");
                        return Err(protocol_error(&what, &other));
                    }
                    Ok(None) if heartbeats && silence > failure_timeout => Some(Error::new(
                        ErrorKind::TimedOut,
                        format!("no heartbeat for {}ms", silence.as_millis()),
                    )),
                    Ok(None) => None,
                    Err(e) => Some(e),
                };
                if let Some(e) = failure {
                    self.mark_failed(index, &e);
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
    /// (same shard, same seed — a durable log from another run is
    /// rejected), runs the [`handshake`] against it, tells everyone the
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
        let mut ctl = loop {
            let Some(mut candidate) = self.accept_until(deadline)? else {
                return Ok(None);
            };
            match candidate.recv_timeout(RECOVERY_TIMEOUT) {
                Ok(
                    rejoin @ ClusterMsg::Rejoin {
                        shard_start,
                        shard_len,
                        seed,
                        ..
                    },
                ) if shard_start as usize == start
                    && shard_len as usize == len
                    && seed == self.cluster.net.seed =>
                {
                    self.note("rejoin", format!("worker={failed} {rejoin:?}"));
                    break candidate;
                }
                other => {
                    pgrid_obs::warn!(
                        "cluster::coordinator",
                        "rejected rejoin connection for worker {failed}: {other:?}"
                    );
                }
            }
        };

        // The rejoiner re-binds its shard endpoints at fresh ports.  No
        // kill plan the second time around.
        let addrs = self.handshake(&mut ctl, failed, None)?;
        self.merge_book(addrs);
        // The barrier for `phase` was already collected without this
        // worker: it re-enters the protocol parked (`done`), waiting for
        // Proceed — after the address book everyone gets, and the phase the
        // cluster is parked at.
        self.slots[failed] = Slot::new(ctl, true);
        self.broadcast_book()?;
        self.slots[failed]
            .ctl
            .send(&ClusterMsg::Resume { epoch, phase })?;

        let warm = self.expect_recovery_done(failed, epoch)?.len() as u64;
        self.note("rejoin_done", format!("worker={failed} warm={warm}"));
        pgrid_obs::info!(
            "cluster::coordinator",
            "epoch {epoch}: worker {failed} rejoined warm, replayed {warm} peers \
             from its durable log"
        );
        Ok(Some(warm))
    }

    /// One healing round: announce the new epoch, give each dead worker's
    /// relaunched process a chance to reclaim its own shard from its
    /// durable log (warm rejoin), reassign the remaining orphans onto the
    /// survivors, collect the takeover addresses, re-broadcast the address
    /// book, and wait for the replica rebuilds to finish.
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
        for &worker in &failed {
            let (start, len) = self.membership.shards[worker];
            self.broadcast(&ClusterMsg::WorkerFailed {
                epoch,
                worker_index: worker as u32,
                shard_start: start as u64,
                shard_len: len as u64,
            })?;
        }

        let moves = plan_reassignment(&self.membership, &failed, &alive);
        self.note(
            "shard_reassign",
            format!("epoch={epoch} moves={}", moves.len()),
        );
        let adopters: BTreeSet<usize> = moves.iter().map(|m| m.to_worker as usize).collect();
        self.broadcast(&ClusterMsg::ShardReassign { epoch, moves })?;

        // Endpoint takeovers: every adopter re-binds the orphaned endpoints
        // locally and reports the fresh addresses.
        for &index in &adopters {
            let addrs =
                self.expect_from(index, "RecoveryAddrs", RECOVERY_TIMEOUT, |msg| match msg {
                    ClusterMsg::RecoveryAddrs {
                        epoch: e,
                        peer_addrs,
                    } if e == epoch => Ok(peer_addrs),
                    other => Err(other.into()),
                })?;
            self.merge_book(addrs);
        }
        self.broadcast_book()?;

        // Replica rebuilds: each adopter pulls the orphans' state from live
        // replicas over the data plane (local seeded fallback guarantees
        // termination) and acknowledges.
        let mut recovered_replica = 0u64;
        let mut recovered_local = 0u64;
        for &index in &adopters {
            for (_, via_replica) in self.expect_recovery_done(index, epoch)? {
                if via_replica {
                    recovered_replica += 1;
                } else {
                    recovered_local += 1;
                }
            }
        }
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
        // Attribute the recovery to the failures healed this round.
        let per_failure = failed.len() as u64;
        let recovery_ms = heal_started.elapsed().as_millis() as u64;
        for failure in &mut self.observed.failures {
            if failed.contains(&(failure.worker as usize)) && !failure.healed {
                failure.healed = true;
                failure.recovery_ms = recovery_ms;
                failure.recovered_replica = recovered_replica / per_failure;
                failure.recovered_local = recovered_local / per_failure;
            }
        }
        Ok(())
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

/// Merges the shard reports into the single-process report shape: paths at
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
        // Both ranges passed `check_ranges` when the report arrived.
        let start = report.shard_start as usize;
        paths[start..start + report.paths.len()].copy_from_slice(&report.paths);
        for &(peer, path) in &report.extra_paths {
            paths[peer as usize] = path;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::PHASE_CONSTRUCTED;
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

    /// Answers a `Welcome` with a `Hello` for `shard_start` carrying `len`
    /// endpoints.
    fn answer_welcome(ctl: &mut ControlChannel, shard_start: u64, len: u64) {
        let welcome = ctl.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(matches!(welcome, ClusterMsg::Welcome { .. }), "{welcome:?}");
        ctl.send(&ClusterMsg::Hello {
            shard_start,
            peer_addrs: (shard_start..shard_start + len)
                .map(|peer| (peer, addr(4000 + peer as u16)))
                .collect(),
            metrics_addr: Some(addr(9100)),
        })
        .unwrap();
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
                peer_addrs: (4..8)
                    .map(|peer| (peer, addr(4000 + peer as u16)))
                    .collect(),
                metrics_addr: Some(addr(9100)),
            })
            .unwrap();
        });
        let mut ctl = accept(&coordinator);
        let addrs = coordinator.handshake(&mut ctl, 1, Some(7)).unwrap();
        worker.join().unwrap();
        assert_eq!(addrs.len(), 4);
        assert_eq!(
            coordinator.observed.worker_metrics_addrs,
            [None, Some(addr(9100))]
        );
        // Merged out of order, the book still ends up sorted by peer id.
        coordinator.merge_book(addrs);
        coordinator.merge_book(vec![(1, addr(4001)), (5, addr(5005))]);
        let book = &coordinator.membership.book;
        assert_eq!(
            book.iter().map(|&(peer, _)| peer).collect::<Vec<_>>(),
            [1, 4, 5, 6, 7]
        );
        assert_eq!(book[2], (5, addr(5005)), "a known peer's endpoint moves");
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

    /// A coordinator whose worker 0 is played by `script`.
    fn with_worker<'a>(
        cluster: &'a ClusterConfig,
        obs: &'a ObsOptions,
        script: impl FnOnce(ControlChannel) + Send + 'static,
    ) -> (Coordinator<'a>, std::thread::JoinHandle<()>) {
        let mut coordinator = coordinator(cluster, obs);
        let worker = scripted_worker(&coordinator, script);
        let ctl = accept(&coordinator);
        coordinator.slots.push(Slot::new(ctl, false));
        (coordinator, worker)
    }

    fn pick_recovery_addrs(
        msg: ClusterMsg,
    ) -> std::result::Result<Vec<(u64, SocketAddr)>, Box<ClusterMsg>> {
        match msg {
            ClusterMsg::RecoveryAddrs { peer_addrs, .. } => Ok(peer_addrs),
            other => Err(other.into()),
        }
    }

    #[test]
    fn expect_from_absorbs_routine_traffic_until_the_awaited_message() {
        let (cluster, obs) = (cluster(8, 1, 0), ObsOptions::default());
        let (mut coordinator, worker) = with_worker(&cluster, &obs, |mut ctl| {
            for msg in [
                ClusterMsg::Heartbeat { epoch: 1 },
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
                ClusterMsg::RecoveryAddrs {
                    epoch: 1,
                    peer_addrs: vec![(5, addr(4005))],
                },
            ] {
                ctl.send(&msg).unwrap();
            }
            // Hold the connection open until the coordinator has read it.
            let _ = ctl.recv_timeout(Duration::from_secs(5));
        });
        let addrs = coordinator
            .expect_from(
                0,
                "RecoveryAddrs",
                Duration::from_secs(5),
                pick_recovery_addrs,
            )
            .unwrap();
        assert_eq!(addrs, [(5, addr(4005))]);
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
    fn expect_from_rejects_the_wrong_message_and_names_what_it_awaited() {
        let (cluster, obs) = (cluster(8, 1, 0), ObsOptions::default());
        let (mut coordinator, worker) = with_worker(&cluster, &obs, |mut ctl| {
            ctl.send(&ClusterMsg::PhaseDone { phase: 2 }).unwrap();
            let _ = ctl.recv_timeout(Duration::from_secs(5));
        });
        let wrong = coordinator
            .expect_from(
                0,
                "RecoveryAddrs",
                Duration::from_secs(5),
                pick_recovery_addrs,
            )
            .unwrap_err();
        assert_eq!(wrong.kind(), ErrorKind::InvalidData);
        assert!(
            wrong.to_string().starts_with("expected RecoveryAddrs, got"),
            "{wrong}"
        );
        // Nothing else arrives: silence past the deadline is a time-out
        // that says what was awaited, from whom.
        let silence = coordinator
            .expect_from(
                0,
                "RecoveryDone",
                Duration::from_millis(50),
                pick_recovery_addrs,
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
            book: Vec::new(),
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
}
