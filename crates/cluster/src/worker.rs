//! The worker runtime: hosts one shard of peers across a real process
//! boundary.
//!
//! A worker connects to the coordinator, receives its shard assignment and
//! the run configuration, registers every hosted peer behind the one
//! listener of its [`ReactorTransport`], publishes that address, wires
//! every *other* peer as a remote via
//! [`SocketTransport::register_remote`], and then drives the Section-5
//! timeline over its shard **through the scenario executor**: the phases
//! are the same [`pgrid_scenario::Scenario`] program the single-process
//! driver runs, with the deterministic join/churn plans substituted for
//! the random draws ([`Phase::JoinSchedule`] / [`Phase::ChurnSchedule`])
//! and the query rate scaled to the shard.  [`ShardOverlay`], the
//! executor's [`RuntimeHost`], adds waiting for the wire, and it waits in
//! **one pump**: every pass services the data transport (so peers of
//! slower shards get their exchanges answered), heartbeats the control
//! channel and — parked at a barrier — handles the coordinator's next
//! message; only a pass that handled nothing sleeps.  Three waits use it:
//!
//! * **settle** — [`RuntimeHost::advance_to`] runs 2 s virtual slices and
//!   pumps after each until the first quiet pass past 700 µs, so replies
//!   from other processes are handled within roughly one construct
//!   interval of the tick that triggered them;
//! * **drain** — before a barrier, until 20 ms of quiet or 400 ms;
//! * **park** — after `PhaseDone`, until the coordinator's `Proceed`.
//!
//! The worker is also one node of the self-healing loop (message orders in
//! the [crate docs](crate)): parked, it takes over the endpoints a dead
//! worker's shard is reassigned with ([`SocketTransport::register_takeover`])
//! and adopts the peers; the address book that follows starts a recovery
//! round the park's passes drive, rebuilding their state from live P-Grid
//! replicas with the seeded local regeneration as the guaranteed-termination
//! fallback.  Given `--data-dir` it journals its shard through
//! [`pgrid_durable::DurableStore`] (one observation per pacing slice, one
//! fsync per slice that changed anything), and a relaunch over a matching
//! log warm-restarts: it replays the log, reconciles each replayed peer
//! against a live remote replica with an anti-entropy diff
//! ([`Runtime::begin_replica_diff`]) instead of a cold full pull, catches
//! up to the barrier the cluster is parked at and parks there too.
//!
//! [`Phase::JoinSchedule`]: pgrid_scenario::Phase::JoinSchedule
//! [`Phase::ChurnSchedule`]: pgrid_scenario::Phase::ChurnSchedule

use crate::plan::{churn_plan, join_plan, MINUTE_MS};
use crate::proto::{
    protocol_error, ClusterMsg, ControlChannel, ShardReport, PHASE_CONSTRUCTED, PHASE_DONE,
    PHASE_JOINED, PHASE_QUERIED, PHASE_REPLICATED, PHASE_WIRED,
};
use pgrid_core::index::IndexId;
use pgrid_core::path::Path;
use pgrid_core::routing::PeerId;
use pgrid_durable::{DurableStore, LogOptions, MetaImage};
use pgrid_net::experiment::Timeline;
use pgrid_net::runtime::{Millis, NetConfig, Runtime};
use pgrid_obs::recorder::{install_panic_dump, shared, SharedRecorder};
use pgrid_obs::registry::MetricsRegistry;
use pgrid_obs::scrape::{ScrapeServer, ScrapeState};
use pgrid_reactor::{ReactorConfig, ReactorTransport};
use pgrid_scenario::scenario::CONTROL_SEED_SALT;
use pgrid_scenario::{Phase, QuerySpec, RuntimeHost, Scenario};
use pgrid_transport::{PeerAddr, SocketTransport, Transport};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{Error, ErrorKind, Result};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a worker waits for handshake messages.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(60);

/// Virtual-time slice between wire settles.
const PACE_SLICE_MS: Millis = 2_000;

/// Real time the worker lets the wire settle after each virtual slice.
const SETTLE: Duration = Duration::from_micros(700);

/// How long a pump pass that handled nothing sleeps.
const IDLE: Duration = Duration::from_micros(100);

/// Maximum real time a worker parks at one barrier before giving up.
const BARRIER_TIMEOUT: Duration = Duration::from_secs(600);

/// Rendezvous connect attempts before giving up (capped exponential
/// backoff with deterministic jitter between attempts).
const CONNECT_ATTEMPTS: u32 = 6;

/// First rendezvous retry delay; doubles per attempt up to
/// [`CONNECT_BACKOFF_CAP`].
const CONNECT_BACKOFF: Duration = Duration::from_millis(100);

/// Ceiling of the rendezvous retry delay.
const CONNECT_BACKOFF_CAP: Duration = Duration::from_secs(2);

/// Wall-clock budget for one replica-rebuild round before the seeded
/// local fallback kicks in for the stragglers.
const RECOVERY_SETTLE: Duration = Duration::from_secs(10);

/// First re-issue delay of an unanswered recovery `ReplicaPull`; each retry
/// doubles it up to [`RECOVERY_RETRY_CAP`], so a large shard recovering many
/// peers does not stampede its replica sources.
const RECOVERY_RETRY: Duration = Duration::from_secs(2);

/// Ceiling of the recovery re-issue delay.
const RECOVERY_RETRY_CAP: Duration = Duration::from_secs(16);

/// How much virtual time a recovery round may consume driving the data
/// plane (pulls and pushes ride scheduled messages like all traffic).
const RECOVERY_VIRTUAL_MS: Millis = 5_000;

/// How long a rejoining worker waits for the coordinator's `Welcome`: the
/// rendezvous listener is only polled during a healing round, which starts
/// at the next phase barrier — potentially several real minutes after the
/// relaunch.
const REJOIN_WELCOME_TIMEOUT: Duration = Duration::from_secs(600);

/// Exit code of a worker that killed itself on schedule (fault
/// injection); [`crate::local`] tolerates this many non-success children
/// as the coordinator observed failures.
pub const KILL_EXIT_CODE: i32 = 113;

/// Largest trace batch shipped in one control frame; bigger drains are
/// split.
const TRACE_BATCH_MAX: usize = 4_096;

/// Options of one worker process.
#[derive(Clone, Debug, Default)]
pub struct WorkerOptions {
    /// Bind address of the worker's `/metrics`+`/trace` scrape endpoint
    /// (port 0 picks a free port; the bound address is announced to the
    /// coordinator in `Hello`).
    pub metrics_addr: Option<SocketAddr>,
    /// Where the flight recorder dumps on a panic or a query/range
    /// timeout.
    pub flight_dump: Option<PathBuf>,
    /// Directory of the worker's durable log.  When set, the shard is
    /// journaled through [`DurableStore`]; when the directory already
    /// holds a matching log at startup, the worker attempts a warm rejoin
    /// instead of a fresh rendezvous.
    pub data_dir: Option<PathBuf>,
    /// Event threads of the worker's reactor transport (0 = one per core).
    pub n_event_threads: usize,
}

/// Observability state threaded through the worker's barriers.
struct WorkerObs {
    /// The local scrape endpoint, when serving.
    scrape: Option<(ScrapeServer, Arc<ScrapeState>)>,
    /// Control-plane flight notes (rendezvous, barriers) shared with the
    /// panic hook.
    control: SharedRecorder,
    worker_index: u32,
    shard_start: u64,
    shard_len: u64,
}

impl WorkerObs {
    /// Renders the worker's current metrics registry: the runtime's
    /// network counters, the transport link stats, the shard assignment,
    /// and — when journaling — the durability counters.
    fn registry(
        &self,
        runtime: &Runtime<ReactorTransport>,
        durable: Option<&DurableStore>,
    ) -> MetricsRegistry {
        let mut registry = MetricsRegistry::new();
        runtime.metrics.to_registry(&mut registry);
        runtime.transport_stats().to_registry(&mut registry);
        if let Some(durable) = durable {
            let stats = durable.stats();
            registry.counter(
                "pgrid_durable_appended_records_total",
                "Journal records appended this session.",
                &[],
                stats.appended_records,
            );
            registry.counter(
                "pgrid_durable_appended_bytes_total",
                "Journal frame bytes appended this session.",
                &[],
                stats.appended_bytes,
            );
            registry.counter(
                "pgrid_durable_syncs_total",
                "Journal fsync calls this session.",
                &[],
                stats.syncs,
            );
            registry.histogram(
                "pgrid_durable_fsync_micros",
                "Journal fsync latency distribution, in microseconds.",
                &[],
                &stats.fsync_micros,
            );
            registry.counter(
                "pgrid_durable_replayed_records_total",
                "Journal records replayed at open (warm restarts).",
                &[],
                stats.replayed_records,
            );
            registry.counter(
                "pgrid_durable_compactions_total",
                "Journal compaction runs this session.",
                &[],
                stats.compactions,
            );
            registry.counter(
                "pgrid_durable_compacted_bytes_total",
                "Journal bytes reclaimed by compaction this session.",
                &[],
                stats.compacted_bytes,
            );
            registry.gauge(
                "pgrid_durable_segments",
                "Journal segment files (sealed plus active).",
                &[],
                durable.segment_count() as f64,
            );
            registry.gauge(
                "pgrid_durable_log_bytes",
                "Total bytes across all journal segments.",
                &[],
                durable.total_bytes() as f64,
            );
        }
        registry.gauge(
            "pgrid_cluster_shard_start",
            "First peer id hosted by this worker.",
            &[],
            self.shard_start as f64,
        );
        registry.gauge(
            "pgrid_cluster_shard_len",
            "Number of peers hosted by this worker.",
            &[],
            self.shard_len as f64,
        );
        registry.gauge(
            "pgrid_cluster_worker_index",
            "Index of this worker in the cluster.",
            &[],
            self.worker_index as f64,
        );
        registry
    }

    /// Publishes the current registry and any freshly drained trace
    /// events locally, and streams both to the coordinator.
    fn publish(
        &mut self,
        ctl: &mut ControlChannel,
        runtime: &mut Runtime<ReactorTransport>,
        durable: Option<&DurableStore>,
        phase: u8,
    ) -> Result<()> {
        let registry = self.registry(runtime, durable);
        if let Some((_, state)) = &self.scrape {
            state.publish_metrics(registry.encode());
        }
        ctl.send(&ClusterMsg::MetricsSnapshot {
            registry: registry.encode_wire(),
        })?;
        let events = runtime.tracer.drain();
        if !events.is_empty() {
            if let Some((_, state)) = &self.scrape {
                state.publish_trace_events(&events);
            }
            for chunk in events.chunks(TRACE_BATCH_MAX) {
                ctl.send(&ClusterMsg::TraceBatch {
                    events: chunk.to_vec(),
                })?;
            }
        }
        self.control.lock().unwrap().note(
            runtime.now(),
            "barrier",
            format!("phase={phase} worker={}", self.worker_index),
        );
        Ok(())
    }
}

/// Liveness and healing state of one worker.
struct HealState {
    /// Whether the coordinator reassigns dead shards (from `Welcome`).
    heal: bool,
    /// Wall-clock heartbeat interval (0 disables).
    heartbeat_ms: u64,
    /// Last heartbeat actually sent.
    last_heartbeat: Instant,
    /// Latest membership epoch announced by the coordinator.
    epoch: u64,
    /// Fault injection: kill the process once the virtual clock reaches
    /// this instant.
    kill_at: Option<Millis>,
    /// Adoptions announced by `ShardReassign` and not yet rebuilding:
    /// peer → (replica source hint, last observed path).
    pending: BTreeMap<usize, (Option<usize>, Path)>,
    /// The recovery round the park is driving, if any.
    round: Option<RecoveryRound>,
    worker_index: u32,
}

/// A replica-rebuild round, started by the `AddressBook` that follows a
/// reassignment and advanced by every pass of the park it arrived in.
struct RecoveryRound {
    epoch: u64,
    /// The adoptions being rebuilt, keyed as [`HealState::pending`].
    adoptions: BTreeMap<usize, (Option<usize>, Path)>,
    /// Adoptions regenerated locally instead of pulled from a replica.
    local: BTreeSet<usize>,
    /// When the stragglers fall back to the local regeneration.
    fallback_at: Instant,
    /// How far the round may move the virtual clock.
    virtual_cap: Millis,
    /// Re-issue delay of unanswered pulls, and when it next elapses.
    retry_delay: Duration,
    next_retry: Instant,
}

/// The worker's shard as the scenario executor's [`RuntimeHost`]: the
/// executor drives the sharded [`Runtime`] directly, except that advancing
/// virtual time is paced against the wire (see the module docs), honours a
/// scheduled self-kill, and that boundary phases park at the coordinator's
/// barriers.
pub struct ShardOverlay {
    /// The sharded runtime this worker hosts.
    pub runtime: Runtime<ReactorTransport>,
    ctl: ControlChannel,
    heal: HealState,
    /// The shard's durable journal, when `--data-dir` was given.
    durable: Option<DurableStore>,
    /// Last phase barrier this worker passed, journaled in the log's
    /// metadata so a relaunch knows where the run stood.
    durable_phase: u8,
    /// Bandwidth minutes already streamed to the coordinator.
    streamed: BTreeSet<u64>,
    obs: WorkerObs,
    /// The barrier each phase index parks at, precomputed by
    /// [`barrier_plan`] so a barrier class spanning several phases (range
    /// load followed by lookup load) reports exactly once.
    barriers: Vec<Option<u8>>,
}

impl ShardOverlay {
    /// The worker's one wait.  Every pass services the data plane and
    /// heartbeats.  A worker `parked` at a phase's barrier also advances
    /// the recovery round in flight or, with none, handles the next control
    /// message ([`ShardOverlay::on_parked`]): the coordinator says nothing
    /// to an adopter between the `AddressBook` and its `RecoveryDone`.
    /// Only a pass that handled nothing sleeps.  The wait ends at
    /// `Proceed`, or at the first pass `done` — told whether the pass
    /// handled anything — accepts; for a parked worker that is `TimedOut`.
    fn pump(&mut self, parked: Option<u8>, mut done: impl FnMut(bool) -> bool) -> Result<()> {
        loop {
            let mut busy = self.runtime.service_network() > 0;
            self.maybe_heartbeat();
            if let Some(phase) = parked {
                if self.heal.round.is_some() {
                    self.step_recovery()?;
                } else if let Some(msg) = self.ctl.try_recv()? {
                    if self.on_parked(msg, phase)? {
                        return Ok(());
                    }
                    busy = true;
                }
            }
            if done(busy) {
                return match parked {
                    Some(phase) => Err(Error::new(
                        ErrorKind::TimedOut,
                        format!("barrier for phase {phase} never released"),
                    )),
                    None => Ok(()),
                };
            }
            if !busy {
                std::thread::sleep(IDLE);
            }
        }
    }

    /// Parks at `phase`'s barrier until the coordinator releases it,
    /// serving the healing protocol meanwhile.
    fn park(&mut self, phase: u8) -> Result<()> {
        let deadline = Instant::now() + BARRIER_TIMEOUT;
        self.pump(Some(phase), |busy| !busy && Instant::now() >= deadline)
    }

    /// One control message at a worker parked at `phase`'s barrier:
    /// `Ok(true)` for `Proceed(phase)`.  Until then the healing protocol is
    /// served from here — a new epoch is noted, a reassignment adopts its
    /// orphans, a fresh address book re-points the remotes and starts the
    /// rebuilds — and anything else is a protocol error.  Every message is
    /// range-checked before it is looked at.
    fn on_parked(&mut self, msg: ClusterMsg, phase: u8) -> Result<bool> {
        msg.check_ranges(self.runtime.config.n_peers)?;
        match msg {
            ClusterMsg::Proceed { phase: p } if p == phase => return Ok(true),
            ClusterMsg::WorkerFailed {
                epoch,
                worker_index,
                shard_start,
                shard_len,
            } => {
                self.heal.epoch = self.heal.epoch.max(epoch);
                pgrid_obs::info!(
                    "cluster::worker",
                    "worker {}: told worker {worker_index} died \
                     (shard {shard_start}+{shard_len}, epoch {epoch})",
                    self.heal.worker_index
                );
            }
            ClusterMsg::ShardReassign { epoch, moves } => {
                // Take over the endpoints of every orphan reassigned here,
                // adopt the peers, and report where they are reachable now:
                // the reactor's one listener.  The rebuild waits for the
                // address book.
                self.heal.epoch = self.heal.epoch.max(epoch);
                let mut adopted: Vec<u64> = Vec::new();
                for m in moves
                    .iter()
                    .filter(|m| m.to_worker == self.heal.worker_index)
                {
                    let peer = m.peer as usize;
                    self.runtime
                        .transport_mut()
                        .register_takeover(PeerId(m.peer))
                        .map_err(|e| Error::other(e.to_string()))?;
                    self.runtime.adopt_peer(peer);
                    // A hint naming the orphan itself: no candidate known.
                    let hint = (m.source_peer != m.peer).then_some(m.source_peer as usize);
                    self.heal.pending.insert(peer, (hint, m.path));
                    adopted.push(m.peer);
                    let note = format!("epoch={epoch} adopting peer {peer} (source hint {hint:?})");
                    self.note_recovery(note);
                }
                // No adoption, nothing to announce.
                let listen = self.runtime.transport_mut().listen_addr();
                if let Some(listen) = listen.filter(|_| !adopted.is_empty()) {
                    let peer_addrs = adopted.into_iter().map(|peer| (peer, listen)).collect();
                    self.ctl
                        .send(&ClusterMsg::RecoveryAddrs { epoch, peer_addrs })?;
                }
            }
            ClusterMsg::AddressBook { peer_addrs } => {
                // Re-point every remote at its (possibly moved) endpoint: a
                // peer unreachable since its worker died is reachable again
                // once a survivor re-hosts it.  An entry the transport never
                // spoke to is no reason to fail recovery.
                for (peer, addr) in peer_addrs {
                    if !self.runtime.hosted(peer as usize) {
                        let _ = self
                            .runtime
                            .transport_mut()
                            .update_remote(PeerId(peer), addr);
                        self.runtime
                            .set_peer_addr(peer as usize, PeerAddr::Socket(addr));
                    }
                }
                self.start_recovery();
            }
            other => return Err(protocol_error("Proceed", &other)),
        }
        Ok(false)
    }

    /// Starts rebuilding every pending adoption: a replica pull over the
    /// data plane, or the seeded local regeneration when no replica source
    /// is known.
    fn start_recovery(&mut self) {
        if self.heal.pending.is_empty() {
            return;
        }
        let adoptions = std::mem::take(&mut self.heal.pending);
        let mut local = BTreeSet::new();
        for (&peer, &(hint, path)) in &adoptions {
            // The cheapest source is a local replica, then the hint.
            match self.runtime.find_replica_source(peer).or(hint) {
                Some(source) => self.runtime.begin_replica_pull(peer, source),
                None => {
                    self.runtime.recover_locally(peer, path);
                    local.insert(peer);
                }
            }
        }
        self.heal.round = Some(RecoveryRound {
            epoch: self.heal.epoch,
            adoptions,
            local,
            fallback_at: Instant::now() + RECOVERY_SETTLE,
            virtual_cap: self.runtime.now() + RECOVERY_VIRTUAL_MS,
            retry_delay: RECOVERY_RETRY,
            next_retry: Instant::now() + RECOVERY_RETRY,
        });
    }

    /// One pass of the recovery round in flight.  Pulls ride scheduled messages like
    /// all traffic, so the virtual clock inches forward, 10 ms a pass up to
    /// [`RECOVERY_VIRTUAL_MS`] (the next phase re-synchronises at its
    /// barrier); unanswered pulls are re-issued with back-off in case the
    /// first one raced the address-book update on the source's side.  Once
    /// every pull is answered, or at [`RECOVERY_SETTLE`] with the
    /// stragglers regenerated locally, the round ends with `RecoveryDone`.
    fn step_recovery(&mut self) -> Result<()> {
        let round = self.heal.round.as_mut().expect("a round is in flight");
        if self.runtime.pending_recoveries() > 0 && Instant::now() < round.fallback_at {
            let now = self.runtime.now();
            if now < round.virtual_cap {
                self.runtime.run_until(now + 10);
            }
            if Instant::now() >= round.next_retry {
                for peer in self.runtime.recovering_peers() {
                    let hint = round.adoptions.get(&peer).and_then(|&(hint, _)| hint);
                    if let Some(source) = self.runtime.find_replica_source(peer).or(hint) {
                        self.runtime.begin_replica_pull(peer, source);
                    }
                }
                round.retry_delay = (round.retry_delay * 2).min(RECOVERY_RETRY_CAP);
                round.next_retry = Instant::now() + round.retry_delay;
            }
            return Ok(());
        }
        let mut round = self.heal.round.take().expect("checked above");
        for peer in self.runtime.recovering_peers() {
            let path = round
                .adoptions
                .get(&peer)
                .map_or_else(Path::root, |&(_, path)| path);
            self.runtime.recover_locally(peer, path);
            round.local.insert(peer);
        }
        let epoch = round.epoch;
        let recovered: Vec<(u64, bool)> = round
            .adoptions
            .keys()
            .map(|&peer| (peer as u64, !round.local.contains(&peer)))
            .collect();
        let summary = format!(
            "epoch={epoch} rebuilt {} adopted peers ({} locally)",
            recovered.len(),
            round.local.len()
        );
        pgrid_obs::info!(
            "cluster::worker",
            "worker {}: {summary}",
            self.heal.worker_index
        );
        self.note_recovery(summary);
        self.ctl
            .send(&ClusterMsg::RecoveryDone { epoch, recovered })
    }

    /// Notes a recovery step in the control flight recorder.
    fn note_recovery(&self, detail: String) {
        let now = self.runtime.now();
        self.obs
            .control
            .lock()
            .unwrap()
            .note(now, "recovery", detail);
    }

    /// Sends a heartbeat if the interval elapsed; send errors are ignored
    /// here (a dead coordinator surfaces at the next barrier anyway).
    fn maybe_heartbeat(&mut self) {
        if self.heal.heartbeat_ms == 0 {
            return;
        }
        if self.heal.last_heartbeat.elapsed() < Duration::from_millis(self.heal.heartbeat_ms) {
            return;
        }
        self.heal.last_heartbeat = Instant::now();
        let epoch = self.heal.epoch;
        let _ = self.ctl.send(&ClusterMsg::Heartbeat { epoch });
    }

    /// Journals every hosted peer whose state changed since the last
    /// observation, plus the run metadata, and fsyncs when anything was
    /// appended (at most one sync per pacing slice).  Write errors are
    /// logged, not fatal: a full disk degrades durability, not the run —
    /// a failed observation ends the cut early, and what the cut had
    /// appended until then is still synced.
    fn persist(&mut self) {
        let Some(durable) = self.durable.as_mut() else {
            return;
        };
        let mut dirty = false;
        let hosted: Vec<usize> = self
            .runtime
            .shard()
            .chain(self.runtime.adopted_peers())
            .collect();
        for peer in hosted {
            let state = self.runtime.peer_state(IndexId::PRIMARY, peer);
            let routing: Vec<(u8, u64, Path)> = state
                .routing
                .entries()
                .map(|(level, e)| (level as u8, e.peer.0, e.path))
                .collect();
            let replicas: Vec<u64> = state.replicas.iter().map(|p| p.0).collect();
            match durable.observe(
                0,
                peer as u32,
                state.path,
                &state.store,
                &routing,
                &replicas,
            ) {
                Ok(appended) => dirty |= appended,
                Err(e) => {
                    pgrid_obs::warn!("cluster::worker", "durable observe of peer {peer}: {e}");
                    break;
                }
            }
        }
        let shard = self.runtime.shard();
        let meta = MetaImage {
            shard_start: shard.start as u32,
            shard_len: shard.len() as u32,
            epoch: self.heal.epoch,
            phase: self.durable_phase,
            now_ms: self.runtime.now(),
            seed: self.runtime.config.seed,
        };
        dirty |= durable.set_meta(meta).unwrap_or(false);
        if dirty {
            if let Err(e) = durable.sync() {
                pgrid_obs::warn!("cluster::worker", "durable sync failed: {e}");
            }
            let _ = durable.maybe_compact();
        }
    }
}

impl RuntimeHost for ShardOverlay {
    type Transport = ReactorTransport;
    type Error = Error;

    fn runtime(&mut self) -> &mut Runtime<ReactorTransport> {
        &mut self.runtime
    }

    fn advance_to(&mut self, until: Millis) {
        // Short virtual slices with real-time settles, so cross-process
        // replies interleave with local ticks instead of piling up at the
        // phase boundary.
        while self.runtime.now() < until {
            let next = (self.runtime.now() + PACE_SLICE_MS).min(until);
            if let Some(kill_at) = self.heal.kill_at {
                if kill_at <= next {
                    // Unplanned death, as far as the rest of the cluster is
                    // concerned: advance to the instant and exit without a
                    // word on any channel.
                    self.runtime.run_until(kill_at);
                    pgrid_obs::info!(
                        "cluster::worker",
                        "worker {}: fault injection — dying at virtual minute {}",
                        self.heal.worker_index,
                        kill_at / MINUTE_MS
                    );
                    std::process::exit(KILL_EXIT_CODE);
                }
            }
            self.runtime.run_until(next);
            let deadline = Instant::now() + SETTLE;
            // Not parked, the pump cannot fail.
            let _ = self.pump(None, |busy| !busy && Instant::now() >= deadline);
            // One journal cut per settled slice: every record boundary is
            // a consistent observation of the shard.
            self.persist();
        }
    }

    /// After each boundary phase, streams the completed bandwidth minutes
    /// and parks at the coordinator's barrier.
    fn after_phase(&mut self, index: usize, _phase: &Phase) -> Result<()> {
        match self.barriers.get(index).copied().flatten() {
            Some(phase) => barrier(self, phase),
            None => Ok(()),
        }
    }
}

/// The barrier class a scenario phase completes (`None` for phases that
/// only arm something: start-construction, churn windows).
fn barrier_class(phase: &Phase) -> Option<u8> {
    match phase {
        Phase::JoinSchedule { .. } | Phase::JoinWave { .. } => Some(PHASE_JOINED),
        Phase::Replicate { .. } => Some(PHASE_REPLICATED),
        Phase::RunUntil { .. } | Phase::ConstructUntilQuiescent { .. } => Some(PHASE_CONSTRUCTED),
        Phase::QueryLoad { .. } | Phase::RangeLoad { .. } => Some(PHASE_QUERIED),
        Phase::Drain => Some(PHASE_DONE),
        _ => None,
    }
}

/// The barrier class of each scenario phase, keeping only the *last* phase
/// of each class: the coordinator releases every barrier exactly once, so
/// back-to-back query-plane phases must park together at their end.
fn barrier_plan(scenario: &Scenario) -> Vec<Option<u8>> {
    let mut plan: Vec<Option<u8>> = scenario.phases.iter().map(barrier_class).collect();
    let mut seen = BTreeSet::new();
    for slot in plan.iter_mut().rev() {
        if let Some(class) = *slot {
            if !seen.insert(class) {
                *slot = None;
            }
        }
    }
    plan
}

/// Connects to the coordinator with capped exponential backoff and
/// deterministic jitter, so workers racing a slow-to-bind rendezvous (or a
/// supervisor restart) converge instead of failing on the first refusal.
fn connect_with_retry(coordinator: SocketAddr) -> Result<TcpStream> {
    let mut delay = CONNECT_BACKOFF;
    let mut last = None;
    for attempt in 0..CONNECT_ATTEMPTS {
        match TcpStream::connect(coordinator) {
            Ok(stream) => return Ok(stream),
            Err(e) => {
                pgrid_obs::debug!(
                    "cluster::worker",
                    "rendezvous connect attempt {} failed: {e}",
                    attempt + 1
                );
                last = Some(e);
            }
        }
        if attempt + 1 < CONNECT_ATTEMPTS {
            // Plain xorshift off the port and attempt number: enough to
            // decorrelate workers without touching any experiment RNG.
            let mut x =
                (coordinator.port() as u64 + 1) ^ ((attempt as u64 + 1) * 0x9E37_79B9_7F4A_7C15);
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let jitter = x % (delay.as_millis() as u64 / 2 + 1);
            std::thread::sleep(delay + Duration::from_millis(jitter));
            delay = (delay * 2).min(CONNECT_BACKOFF_CAP);
        }
    }
    Err(last.unwrap_or_else(|| Error::new(ErrorKind::ConnectionRefused, "no connect attempt ran")))
}

/// Builds the worker's observability state: the optional scrape endpoint
/// and the control-plane flight recorder (wired into the panic hook).
fn worker_obs(
    options: &WorkerOptions,
    worker_index: u32,
    shard_start: u64,
    shard_len: u64,
) -> Result<WorkerObs> {
    let scrape = match options.metrics_addr {
        Some(addr) => {
            let state = ScrapeState::new();
            let server = ScrapeServer::serve(addr, Arc::clone(&state))?;
            pgrid_obs::info!(
                "cluster::worker",
                "worker {worker_index}: serving /metrics on {}",
                server.addr()
            );
            Some((server, state))
        }
        None => None,
    };
    let control = shared(pgrid_obs::recorder::DEFAULT_CAPACITY);
    if let Some(path) = &options.flight_dump {
        install_panic_dump(Arc::clone(&control), path.clone());
    }
    Ok(WorkerObs {
        scrape,
        control,
        worker_index,
        shard_start,
        shard_len,
    })
}

/// Registers every hosted peer and returns the announced `(peer, address)`
/// pairs.  The reactor has one listener, so every hosted peer is announced
/// at its [`ReactorTransport::listen_addr`], bound by the first
/// registration.
fn register_shard(
    transport: &mut ReactorTransport,
    shard: &std::ops::Range<usize>,
) -> Result<Vec<(u64, SocketAddr)>> {
    for peer in shard.clone() {
        transport
            .register(PeerId(peer as u64))
            .map_err(|e| Error::other(e.to_string()))?;
    }
    let Some(listen) = transport.listen_addr() else {
        return Ok(Vec::new()); // an empty shard binds nothing
    };
    Ok(shard.clone().map(|peer| (peer as u64, listen)).collect())
}

/// Current path of every originally hosted peer, in shard order.
fn shard_paths(runtime: &Runtime<ReactorTransport>) -> Vec<Path> {
    runtime
        .shard()
        .map(|peer| runtime.peer_state(IndexId::PRIMARY, peer).path)
        .collect()
}

/// Streams the remaining bandwidth minutes and sends the final
/// [`ShardReport`].
fn send_report(overlay: &mut ShardOverlay) -> Result<()> {
    stream_minutes(overlay, u64::MAX)?;
    let runtime = &overlay.runtime;
    let report = ClusterMsg::Report(ShardReport {
        shard_start: runtime.shard().start as u64,
        paths: shard_paths(runtime),
        query_stats: runtime.metrics.query_stats.clone(),
        online_at_end: runtime.hosted_online_count() as u64,
        transport: runtime.transport_stats(),
        messages_delivered: runtime.metrics.messages_delivered as u64,
        messages_lost: runtime.metrics.messages_lost as u64,
        extra_paths: runtime
            .adopted_peers()
            .into_iter()
            .map(|peer| (peer as u64, runtime.peer_state(IndexId::PRIMARY, peer).path))
            .collect(),
    });
    overlay.ctl.send(&report)
}

/// Connects to the coordinator at `coordinator` and runs one worker to
/// completion: rendezvous, the full sharded timeline, and the final shard
/// report.  The shard is hosted on a [`ReactorTransport`]; on a platform
/// without epoll ([`pgrid_reactor::supported`] is `false`) the worker
/// refuses to start with `ErrorKind::Unsupported`.
///
/// With a `data_dir`, the shard is journaled along the way.  A fresh
/// worker waits silently for `Welcome`, parks at the [`PHASE_WIRED`]
/// barrier and runs the whole phase program.  A worker
/// whose `data_dir` already holds a matching log **warm-restarts** through
/// the same rendezvous — the rejoiner speaks first, with
/// [`ClusterMsg::Rejoin`] — and, once the coordinator's healing round
/// accepts it, re-enters the run at the barrier the cluster is parked at:
///
/// 1. replay the journal into the sharded runtime (`replay_log`), which
///    also starts an anti-entropy diff of every replayed peer against a
///    live remote replica,
/// 2. acknowledge with `RecoveryDone` (the diffs settle while pacing),
/// 3. advance to the parked barrier's boundary minute, wait for `Proceed`
///    *without* re-reporting `PhaseDone` (the coordinator collected that
///    barrier without us), and
/// 4. run the remaining suffix of the phase program.
pub fn run_worker(coordinator: SocketAddr, options: &WorkerOptions) -> Result<()> {
    if !pgrid_reactor::supported() {
        return Err(Error::new(
            ErrorKind::Unsupported,
            "the cluster worker's data plane is the reactor transport, which needs Linux epoll",
        ));
    }
    let mut transport = ReactorTransport::with_config(ReactorConfig {
        n_event_threads: options.n_event_threads,
        ..ReactorConfig::default()
    });
    let durable = match &options.data_dir {
        Some(dir) => Some(DurableStore::open(dir, LogOptions::default())?),
        None => None,
    };
    // What a recovered, non-empty log says about the run it belongs to.
    let log_meta: Option<MetaImage> = durable
        .as_ref()
        .filter(|store| store.recovered() && store.peer_count() > 0)
        .and_then(|store| store.meta().cloned());
    let stream = connect_with_retry(coordinator)?;
    let mut ctl = ControlChannel::new(stream)?;

    // --- rendezvous: assignment, endpoints, address book -------------------
    let mut welcome_timeout = HANDSHAKE_TIMEOUT;
    if let Some(meta) = &log_meta {
        pgrid_obs::info!(
            "cluster::worker",
            "durable log holds shard {}+{} at phase {} (virtual minute {}): attempting warm rejoin",
            meta.shard_start,
            meta.shard_len,
            meta.phase,
            meta.now_ms / MINUTE_MS
        );
        ctl.send(&ClusterMsg::Rejoin {
            shard_start: meta.shard_start as u64,
            shard_len: meta.shard_len as u64,
            epoch: meta.epoch,
            phase: meta.phase,
            now_ms: meta.now_ms,
            seed: meta.seed,
        })?;
        welcome_timeout = REJOIN_WELCOME_TIMEOUT;
    }
    let welcome = ctl.recv_timeout(welcome_timeout)?;
    // A `Welcome` is checked against the population its own config names.
    welcome.check_ranges(usize::MAX)?;
    let ClusterMsg::Welcome {
        worker_index,
        shard_start,
        shard_len,
        config,
        timeline,
        tracing,
        heartbeat_ms,
        heal,
        kill_at_min,
        ..
    } = welcome
    else {
        return Err(protocol_error("Welcome", &welcome));
    };
    if let Some(meta) = &log_meta {
        if shard_start != meta.shard_start as u64
            || shard_len != meta.shard_len as u64
            || config.seed != meta.seed
        {
            return Err(Error::new(
                ErrorKind::InvalidData,
                format!(
                    "rejoin mismatch: log holds shard {}+{} of seed {}, coordinator assigned \
                     {shard_start}+{shard_len} of seed {}",
                    meta.shard_start, meta.shard_len, meta.seed, config.seed
                ),
            ));
        }
    }
    let shard = shard_start as usize..(shard_start + shard_len) as usize;
    pgrid_obs::info!(
        "cluster::worker",
        "worker {worker_index}: shard {shard_start}+{shard_len}, tracing {}, \
         heartbeat {heartbeat_ms}ms, heal {}",
        if tracing { "on" } else { "off" },
        if heal { "on" } else { "off" }
    );

    let obs = worker_obs(options, worker_index, shard_start, shard_len)?;
    let peer_addrs = register_shard(&mut transport, &shard)?;
    ctl.send(&ClusterMsg::Hello {
        shard_start,
        peer_addrs,
        metrics_addr: obs.scrape.as_ref().map(|(server, _)| server.addr()),
    })?;

    let book = ctl.recv_timeout(HANDSHAKE_TIMEOUT)?;
    book.check_ranges(config.n_peers)?;
    let ClusterMsg::AddressBook { peer_addrs: book } = book else {
        return Err(protocol_error("AddressBook", &book));
    };
    for (peer, addr) in book {
        if !shard.contains(&(peer as usize)) {
            transport
                .register_remote(PeerId(peer), addr)
                .map_err(|e| Error::other(e.to_string()))?;
        }
    }

    let mut runtime = Runtime::with_transport_sharded(config.clone(), transport, shard.clone())
        .map_err(|e| Error::other(e.to_string()))?;
    if tracing {
        // Worker index + 1 as the base keeps every worker's trace IDs in
        // a disjoint, recognisably-tagged space after the merge.
        runtime.enable_tracing_with_base(worker_index as u64 + 1);
    }
    runtime.flight_dump = options.flight_dump.clone();

    let mut overlay = ShardOverlay {
        runtime,
        ctl,
        heal: HealState {
            heal,
            heartbeat_ms,
            last_heartbeat: Instant::now(),
            epoch: 0,
            // The coordinator sends no kill plan with a rejoin's Welcome.
            kill_at: kill_at_min.map(|m| m * MINUTE_MS),
            pending: BTreeMap::new(),
            round: None,
            worker_index,
        },
        durable,
        durable_phase: PHASE_WIRED,
        streamed: BTreeSet::new(),
        obs,
        barriers: Vec::new(),
    };

    // --- the timeline as a scenario ------------------------------------------
    // Same phase program as the single-process Section-5 scenario, with the
    // deterministic plans substituted for the random draws (all workers
    // agree on joins/churn of peers they do not host) and the query rate
    // scaled to the shard; the worker index decorrelates the query streams.
    let mut scenario = worker_scenario(&config, &timeline, worker_index, shard.len());
    match &log_meta {
        None => barrier(&mut overlay, PHASE_WIRED)?,
        Some(meta) => {
            // A rejoiner is told which barrier the cluster is parked at,
            // and replays its log up to there.
            let msg = overlay.ctl.recv_timeout(HANDSHAKE_TIMEOUT)?;
            let ClusterMsg::Resume { epoch, phase } = msg else {
                return Err(protocol_error("Resume", &msg));
            };
            overlay.heal.epoch = epoch;
            overlay.durable_phase = phase;
            let durable = overlay
                .durable
                .as_ref()
                .expect("the log the meta came from");
            let recovered = replay_log(&mut overlay.runtime, durable, meta, phase);
            let summary = format!(
                "warm rejoin: {} peers replayed from the log, resume phase {phase} epoch {epoch}",
                recovered.len()
            );
            pgrid_obs::info!("cluster::worker", "worker {worker_index}: {summary}");
            overlay.note_recovery(summary);
            overlay
                .ctl
                .send(&ClusterMsg::RecoveryDone { epoch, recovered })?;
            // Catch up to the parked barrier's boundary minute (peers
            // exchange on the way — the survivors answer from their parks),
            // then wait for the release without re-reporting PhaseDone.
            overlay.advance_to(phase_boundary_min(&timeline, phase) * MINUTE_MS);
            overlay.park(phase)?;
            scenario = resume_scenario(scenario, phase);
        }
    }
    overlay.barriers = barrier_plan(&scenario);
    pgrid_scenario::run_hosted(&mut overlay, &scenario)?;

    // --- final report --------------------------------------------------------
    send_report(&mut overlay)?;
    pgrid_obs::info!(
        "cluster::worker",
        "worker {worker_index}: shard report sent, exiting"
    );
    if let Some((server, _)) = overlay.obs.scrape.take() {
        server.shutdown();
    }
    Ok(())
}

/// Replays the durable log into a freshly built runtime: jumps the clock
/// to the journaled instant (no peer has joined yet, so only time moves),
/// grafts every mirrored peer state on top ([`Runtime::restore_peer`]),
/// then starts an anti-entropy diff against a live remote replica for each
/// ([`Runtime::begin_replica_diff`]) — the crash window's lost mutations
/// flow back as a merge, not a full rebuild.  Returns the `RecoveryDone`
/// list: every replayed peer, marked as recovered from a replica.
fn replay_log(
    runtime: &mut Runtime<ReactorTransport>,
    durable: &DurableStore,
    meta: &MetaImage,
    resume_phase: u8,
) -> Vec<(u64, bool)> {
    runtime.run_until(meta.now_ms);
    let constructing = resume_phase >= PHASE_CONSTRUCTED;
    let images: Vec<(usize, &pgrid_durable::MirrorImage)> = durable
        .images()
        .filter(|(key, _)| key.0 == 0)
        .map(|(key, image)| (key.1 as usize, image))
        .collect();
    for &(peer, image) in &images {
        let routing: Vec<(u8, PeerId, Path)> = image
            .routing
            .iter()
            .map(|&(level, peer, path)| (level, PeerId(peer), path))
            .collect();
        let replicas: Vec<PeerId> = image.replicas.iter().map(|&p| PeerId(p)).collect();
        runtime.restore_peer(
            peer,
            image.path,
            image.entries.iter().copied().collect(),
            routing,
            replicas,
            constructing,
        );
    }
    for &(peer, image) in &images {
        let source = image
            .replicas
            .iter()
            .map(|&p| p as usize)
            .find(|&p| !runtime.hosted(p));
        if let Some(source) = source {
            runtime.begin_replica_diff(peer, source);
        }
    }
    images
        .iter()
        .map(|&(peer, _)| (peer as u64, true))
        .collect()
}

/// The timeline minute a barrier class completes at: where a rejoining
/// worker must advance to before waiting for that barrier's release.
fn phase_boundary_min(timeline: &Timeline, phase: u8) -> u64 {
    match phase {
        PHASE_JOINED => timeline.join_end_min,
        PHASE_REPLICATED => timeline.replicate_end_min,
        PHASE_CONSTRUCTED => timeline.construct_end_min,
        PHASE_QUERIED => timeline.query_end_min,
        PHASE_DONE => timeline.end_min,
        _ => 0,
    }
}

/// Drops every phase already covered by the barrier class the cluster is
/// parked at: a rejoining worker replays its log instead of re-running
/// them.  Classless phases (start-construction, churn windows) inherit the
/// class of the *next* classed phase, so construction arming is skipped on
/// a resume past the construct barrier while the churn window survives a
/// resume past the query barrier.
fn resume_scenario(mut scenario: Scenario, resume_phase: u8) -> Scenario {
    let mut next = PHASE_DONE;
    let mut keep: Vec<bool> = scenario
        .phases
        .iter()
        .rev()
        .map(|phase| {
            next = barrier_class(phase).unwrap_or(next);
            next > resume_phase
        })
        .collect();
    scenario
        .phases
        .retain(|_| keep.pop().expect("one flag per phase"));
    scenario
}

/// The worker's phase program for one Section-5 timeline.
///
/// Query windows follow the executor's unified pacing semantics: the
/// virtual clock may overshoot a window boundary by up to one inter-query
/// step (exactly as the single-process driver does).  That is safe here
/// because phase boundaries are hard-synchronised at the coordinator
/// barriers anyway, every plan event falls strictly inside its window, and
/// workers' virtual clocks are only loosely coupled between barriers by
/// construction.
pub fn worker_scenario(
    config: &NetConfig,
    timeline: &Timeline,
    worker_index: u32,
    shard_len: usize,
) -> Scenario {
    let mut builder = Scenario::builder(config.seed)
        .raw_control_seed(config.seed ^ CONTROL_SEED_SALT ^ ((worker_index as u64) << 32))
        .join_schedule(timeline.join_end_min, join_plan(config, timeline))
        .replicate(timeline.replicate_end_min)
        .start_construction()
        .run_until(timeline.construct_end_min);
    // The optional range window between construction and the lookup load,
    // with the same bounds-width the single-process driver uses.
    if timeline.range_end_min > timeline.construct_end_min {
        builder = builder.range_load(
            timeline.range_end_min,
            shard_len,
            pgrid_scenario::RANGE_LOAD_WIDTH,
        );
    }
    builder
        .query_load_from(timeline.query_end_min, shard_len)
        .churn_schedule(
            timeline.end_min,
            churn_plan(config, timeline),
            Some(QuerySpec { issuers: shard_len }),
        )
        .drain()
        .build()
}

/// Streams every completed, not-yet-reported bandwidth minute below
/// `before` to the coordinator.
fn stream_minutes(overlay: &mut ShardOverlay, before: u64) -> Result<()> {
    let mut samples: Vec<(u64, u64, u64)> = overlay
        .runtime
        .metrics
        .bandwidth_per_minute
        .iter()
        .filter(|(&minute, _)| minute < before && !overlay.streamed.contains(&minute))
        .map(|(&minute, bw)| (minute, bw.maintenance_bytes as u64, bw.query_bytes as u64))
        .collect();
    samples.sort_unstable();
    if samples.is_empty() {
        return Ok(());
    }
    overlay
        .streamed
        .extend(samples.iter().map(|&(minute, _, _)| minute));
    overlay.ctl.send(&ClusterMsg::Minutes { samples })
}

/// Reports the end of `phase` and parks until the coordinator releases the
/// barrier: drain, journal and publish, `PhaseDone`, park.
fn barrier(overlay: &mut ShardOverlay, phase: u8) -> Result<()> {
    // Let stragglers from faster shards drain before declaring the phase
    // over: keep answering until the wire stays quiet for a moment.
    let mut quiet_since = Instant::now();
    let grace_cap = quiet_since + Duration::from_millis(400);
    overlay.pump(None, |busy| {
        if busy {
            quiet_since = Instant::now();
        }
        !busy && (quiet_since.elapsed() >= Duration::from_millis(20) || Instant::now() >= grace_cap)
    })?;
    // The phase is complete: journal it (and the settled shard state)
    // before telling the coordinator, so a crash while parked replays to
    // exactly this barrier.
    overlay.durable_phase = phase;
    overlay.persist();
    // Buckets below the current minute can no longer grow in this phase.
    stream_minutes(overlay, overlay.runtime.now() / MINUTE_MS)?;
    // Fresh registry snapshot and drained trace events ride along with
    // every barrier, so the coordinator's merged view stays current.
    overlay.obs.publish(
        &mut overlay.ctl,
        &mut overlay.runtime,
        overlay.durable.as_ref(),
        phase,
    )?;
    if overlay.heal.heal {
        // The coordinator keeps every peer's last barrier path: the raw
        // material of replica hints and of partial reports for unhealed
        // shards.
        overlay.ctl.send(&ClusterMsg::ShardPaths {
            shard_start: overlay.runtime.shard().start as u64,
            paths: shard_paths(&overlay.runtime),
        })?;
    }
    pgrid_obs::debug!(
        "cluster::worker",
        "worker {}: phase {phase} done at virtual minute {}",
        overlay.heal.worker_index,
        overlay.runtime.now() / MINUTE_MS
    );
    overlay.ctl.send(&ClusterMsg::PhaseDone { phase })?;
    overlay.park(phase)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgrid_core::key::{DataEntry, DataId, Key};

    const SMOKE: Timeline = Timeline {
        join_end_min: 3,
        replicate_end_min: 5,
        construct_end_min: 18,
        range_end_min: 0,
        query_end_min: 22,
        end_min: 25,
    };

    /// The default and the smoke timeline, plus one with a range window
    /// (two back-to-back phases of the query class).
    fn timelines() -> [Timeline; 3] {
        let with_ranges = Timeline {
            range_end_min: 70,
            ..Timeline::default()
        };
        [Timeline::default(), SMOKE, with_ranges]
    }

    fn scenario(timeline: &Timeline) -> Scenario {
        let config = NetConfig {
            n_peers: 16,
            ..NetConfig::default()
        };
        worker_scenario(&config, timeline, 1, 8)
    }

    const CLASSES: [u8; 5] = [
        PHASE_JOINED,
        PHASE_REPLICATED,
        PHASE_CONSTRUCTED,
        PHASE_QUERIED,
        PHASE_DONE,
    ];

    #[test]
    fn every_barrier_class_reports_exactly_once_and_in_order() {
        for timeline in timelines() {
            let scenario = scenario(&timeline);
            let plan = barrier_plan(&scenario);
            assert_eq!(plan.len(), scenario.phases.len());
            let reported: Vec<u8> = plan.iter().copied().flatten().collect();
            assert_eq!(reported, CLASSES, "{timeline:?}");
            // A class spanning several phases parks at its last one.
            for (index, class) in plan.iter().enumerate() {
                let Some(class) = class else { continue };
                let later = &scenario.phases[index + 1..];
                assert!(
                    later
                        .iter()
                        .all(|phase| barrier_class(phase) != Some(*class)),
                    "class {class} parks before its last phase ({timeline:?})"
                );
            }
        }
    }

    #[test]
    fn resuming_at_a_phase_keeps_exactly_the_suffix_behind_its_barrier() {
        for timeline in timelines() {
            let full = scenario(&timeline);
            let plan = barrier_plan(&full);
            assert_eq!(resume_scenario(full.clone(), PHASE_WIRED), full);
            for resume_phase in CLASSES {
                let parked_at = plan
                    .iter()
                    .position(|&class| class == Some(resume_phase))
                    .expect("every class parks somewhere");
                let resumed = resume_scenario(full.clone(), resume_phase);
                // Construction is armed before the construct barrier, the
                // churn window opens after the query barrier: a classless
                // phase goes with the classed phase that follows it.
                assert_eq!(
                    resumed.phases,
                    full.phases[parked_at + 1..],
                    "resume at {resume_phase}"
                );
                assert_eq!(resumed.control_seed, full.control_seed);
                assert_eq!(
                    barrier_plan(&resumed).iter().flatten().count(),
                    CLASSES.iter().filter(|&&c| c > resume_phase).count()
                );
            }
        }
    }

    #[test]
    fn phase_boundaries_are_the_timelines_minutes() {
        for timeline in timelines() {
            let boundaries: Vec<u64> = (PHASE_WIRED..=PHASE_DONE)
                .map(|phase| phase_boundary_min(&timeline, phase))
                .collect();
            assert_eq!(
                boundaries,
                [
                    0,
                    timeline.join_end_min,
                    timeline.replicate_end_min,
                    timeline.construct_end_min,
                    timeline.query_end_min,
                    timeline.end_min
                ]
            );
            assert!(boundaries.windows(2).all(|pair| pair[0] <= pair[1]));
        }
    }

    /// The orphan of [`parked_worker`]'s shard reassignment.
    #[cfg(target_os = "linux")]
    const ORPHAN: u64 = 5;

    /// Runs `script` as the coordinator of one worker, on its own thread.
    #[cfg(target_os = "linux")]
    fn scripted_coordinator<T: Send + 'static>(
        script: impl FnOnce(ControlChannel) -> T + Send + 'static,
    ) -> (SocketAddr, std::thread::JoinHandle<T>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let coordinator = std::thread::spawn(move || {
            script(ControlChannel::new(listener.accept().unwrap().0).unwrap())
        });
        (addr, coordinator)
    }

    /// A healing worker hosting peers `0..4` of eight (the other four wired
    /// to a closed port), connected to `coordinator`; hosted peer 1 is
    /// restored as a replica of [`ORPHAN`].
    #[cfg(target_os = "linux")]
    fn parked_worker(coordinator: SocketAddr) -> ShardOverlay {
        let config = NetConfig {
            n_peers: 8,
            loss_probability: 0.0,
            ..NetConfig::default()
        };
        let shard = 0..4;
        let mut transport = ReactorTransport::with_config(ReactorConfig {
            n_event_threads: 1,
            ..ReactorConfig::default()
        });
        register_shard(&mut transport, &shard).unwrap();
        for peer in 4..8 {
            let nowhere = SocketAddr::from(([127, 0, 0, 1], 9));
            transport.register_remote(PeerId(peer), nowhere).unwrap();
        }
        let mut runtime = Runtime::with_transport_sharded(config, transport, shard).unwrap();
        let entries = (0..3u64)
            .map(|i| DataEntry::new(Key(i << 60), DataId(i)))
            .collect();
        let replicas = vec![PeerId(ORPHAN)];
        runtime.restore_peer(1, Path::root(), entries, Vec::new(), replicas, false);
        ShardOverlay {
            runtime,
            ctl: ControlChannel::new(TcpStream::connect(coordinator).unwrap()).unwrap(),
            heal: HealState {
                heal: true,
                heartbeat_ms: 0,
                last_heartbeat: Instant::now(),
                epoch: 0,
                kill_at: None,
                pending: BTreeMap::new(),
                round: None,
                worker_index: 0,
            },
            durable: None,
            durable_phase: PHASE_WIRED,
            streamed: BTreeSet::new(),
            obs: worker_obs(&WorkerOptions::default(), 0, 0, 4).unwrap(),
            barriers: Vec::new(),
        }
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn a_parked_worker_rebuilds_its_adoption_before_the_barrier_releases() {
        let (addr, coordinator) = scripted_coordinator(|mut ctl| {
            let wait = Duration::from_secs(5);
            ctl.send(&ClusterMsg::WorkerFailed {
                epoch: 1,
                worker_index: 1,
                shard_start: 4,
                shard_len: 4,
            })
            .unwrap();
            let moves = vec![crate::proto::ReassignMove {
                peer: ORPHAN,
                to_worker: 0,
                source_peer: ORPHAN,
                path: Path::root(),
            }];
            ctl.send(&ClusterMsg::ShardReassign { epoch: 1, moves })
                .unwrap();
            let takeover = ctl.recv_timeout(wait).unwrap();
            let ClusterMsg::RecoveryAddrs { peer_addrs, .. } = &takeover else {
                panic!("expected RecoveryAddrs, got {takeover:?}");
            };
            let peer_addrs = peer_addrs.clone();
            ctl.send(&ClusterMsg::AddressBook { peer_addrs }).unwrap();
            // Released before the rebuild is acknowledged: the park still
            // finishes the round first.
            ctl.send(&ClusterMsg::Proceed {
                phase: PHASE_CONSTRUCTED,
            })
            .unwrap();
            // Everything else the worker says until it hangs up.
            let mut heard = vec![takeover];
            while let Ok(msg) = ctl.recv_timeout(wait) {
                heard.push(msg);
            }
            heard
        });
        let mut overlay = parked_worker(addr);
        let listen = overlay.runtime.transport_mut().listen_addr().unwrap();
        let started = Instant::now();
        overlay.park(PHASE_CONSTRUCTED).unwrap();
        let parked_for = started.elapsed();
        // Rebuilt from the hosted replica, not regenerated locally.
        let orphan = overlay
            .runtime
            .peer_state(IndexId::PRIMARY, ORPHAN as usize);
        assert_eq!(orphan.store.len(), 3);
        assert_eq!(overlay.runtime.metrics.peers_recovered_replica, 1);
        drop(overlay);
        assert_eq!(
            coordinator.join().unwrap(),
            [
                ClusterMsg::RecoveryAddrs {
                    epoch: 1,
                    peer_addrs: vec![(ORPHAN, listen)],
                },
                ClusterMsg::RecoveryDone {
                    epoch: 1,
                    recovered: vec![(ORPHAN, true)],
                },
            ]
        );
        assert!(
            parked_for < RECOVERY_SETTLE / 4,
            "parked for {parked_for:?}"
        );
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn a_parked_worker_rejects_any_other_message_as_invalid_data() {
        let others = [
            ClusterMsg::Proceed {
                phase: PHASE_QUERIED,
            },
            ClusterMsg::Resume {
                epoch: 1,
                phase: PHASE_CONSTRUCTED,
            },
            ClusterMsg::PhaseDone {
                phase: PHASE_CONSTRUCTED,
            },
            ClusterMsg::Heartbeat { epoch: 1 },
        ];
        let script = others.clone();
        let (addr, coordinator) = scripted_coordinator(move |mut ctl| {
            for msg in &script {
                ctl.send(msg).unwrap();
            }
            // Hold the channel open until the worker hangs up.
            while ctl.recv_timeout(Duration::from_secs(5)).is_ok() {}
        });
        let mut overlay = parked_worker(addr);
        for other in others {
            let error = overlay.park(PHASE_CONSTRUCTED).unwrap_err();
            assert_eq!(error.kind(), ErrorKind::InvalidData, "{other:?}: {error}");
        }
        drop(overlay);
        coordinator.join().unwrap();
    }
}
