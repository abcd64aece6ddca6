//! Event-driven deployment runtime over a pluggable [`Transport`].
//!
//! Every peer is an isolated state machine that communicates exclusively
//! through encoded [`Message`](crate::message::Message)s carried as framed
//! batches by a [`pgrid_transport::Transport`] backend.  With the
//! deterministic loopback backend this replaces the paper's PlanetLab
//! testbed (seeded latency and jitter, emulated loss, reproducible
//! experiments); with the socket backend (`pgrid-reactor`) the very same
//! protocol code paths run over real sockets.  Messages sent to the same
//! destination while one event is processed are batched into a single frame
//! (the per-tick batching of exchange messages).
//!
//! The runtime is split along its seams, one module each; a seam's private
//! state lives in one struct the module owns, and whatever needs the whole
//! runtime is an `impl Runtime` block in the seam's file:
//!
//! - this module — [`NetConfig`], the peer population ([`Node`]), the
//!   overlay state of its one index (`Overlay`), constructors and
//!   accessors;
//! - `clock` — virtual time and the timer queue; [`Runtime::run_until`],
//!   [`Runtime::service_network`], [`Runtime::schedule_churn`];
//! - `links` — the staging arena (messages encoded once, at `send`, into
//!   the bytes their frame is cut from), the transport, link health
//!   ([`LinkHealth`]); `send`, frame shipping and in-place delivery,
//!   message dispatch;
//! - `lookup` — outstanding lookups and range walks, their timeout queues
//!   and the route cache; [`Runtime::issue_query_batch_on`],
//!   [`Runtime::issue_range_query_on`], the one `next_hop` decision;
//! - `construct` — join, replication and the exchange protocol;
//!   [`Runtime::join_peer`], [`Runtime::replication_phase`],
//!   [`Runtime::start_construction`];
//! - `recovery` — adopted / recovering / reconciling peer sets;
//!   [`Runtime::adopt_peer`], [`Runtime::begin_replica_pull`],
//!   [`Runtime::begin_replica_diff`], [`Runtime::restore_peer`];
//! - `metrics` — [`NetMetrics`], [`QueryAggregates`] and the sample rings.
//!
//! A runtime hosts one index.  The accessors the benchmark harness calls
//! still take an [`IndexId`], which must be [`IndexId::PRIMARY`]: any other
//! value panics with "unregistered index".

mod clock;
mod construct;
mod links;
mod lookup;
mod metrics;
mod recovery;
#[cfg(test)]
mod tests;

pub use links::LinkHealth;
pub use metrics::{
    BandwidthSample, MinuteLatency, NetMetrics, QueryAggregates, QueryRecord, RangeSample,
    DEFAULT_QUERY_SAMPLE_CAP,
};

use clock::Clock;
use links::Links;
use lookup::Lookups;
use pgrid_core::exchange::ExchangeEngine;
use pgrid_core::index::IndexId;
use pgrid_core::key::{DataEntry, DataId, Key};
use pgrid_core::peer::PeerState;
use pgrid_core::reference::BalanceParams;
use pgrid_core::routing::{self, PeerId};
use pgrid_obs::recorder::FlightRecorder;
use pgrid_obs::trace::{Tracer, NO_TRACE};
use pgrid_transport::loopback::{LoopbackConfig, LoopbackTransport};
use pgrid_transport::{Transport, TransportError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use recovery::Recovery;

/// Milliseconds of virtual time.
pub type Millis = u64;

/// Configuration of the emulated network and protocol constants.
#[derive(Clone, Debug, PartialEq)]
pub struct NetConfig {
    /// Number of peers.
    pub n_peers: usize,
    /// Keys initially held per peer.
    pub keys_per_peer: usize,
    /// Minimum replication factor.
    pub n_min: usize,
    /// Storage bound; `None` uses `keys_per_peer * n_min`.
    pub delta_max: Option<usize>,
    /// Minimum one-way message latency in milliseconds.
    pub latency_min_ms: u64,
    /// Maximum one-way message latency in milliseconds.
    pub latency_max_ms: u64,
    /// Probability that a message is lost in transit.
    pub loss_probability: f64,
    /// Query timeout (a query unanswered for this long counts as failed).
    pub query_timeout_ms: u64,
    /// Random seed.
    pub seed: u64,
    /// The key distribution.
    pub distribution: pgrid_workload::distributions::Distribution,
    /// Whether peers memoise their prefix-routing resolution per mismatch
    /// level on the query hot path.  Off by default: the cache skips the
    /// per-hop random reference shuffle, which changes the deployment's
    /// random trajectory (the Section-5 reference figures are pinned to
    /// the uncached path).  The query bench reports the
    /// before/after delta.
    pub route_cache: bool,
    /// How many resolved query/range records are retained verbatim for
    /// debugging, per runtime.  Query statistics are always aggregated into
    /// [`QueryAggregates`] (bounded memory at any rate); the sample rings
    /// only keep the most recent `query_sample_cap` records.
    pub query_sample_cap: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            n_peers: 128,
            keys_per_peer: 10,
            n_min: 5,
            delta_max: None,
            latency_min_ms: 20,
            latency_max_ms: 250,
            loss_probability: 0.01,
            query_timeout_ms: 20_000,
            seed: 0xBEEF,
            distribution: pgrid_workload::distributions::Distribution::Text {
                vocabulary: 5_000,
                exponent: 1.0,
            },
            route_cache: false,
            query_sample_cap: DEFAULT_QUERY_SAMPLE_CAP,
        }
    }
}

impl NetConfig {
    /// Effective balance parameters.
    pub fn balance_params(&self) -> BalanceParams {
        match self.delta_max {
            Some(d) => BalanceParams::new(d, self.n_min),
            None => BalanceParams::recommended(self.keys_per_peer as f64, self.n_min),
        }
    }
}

/// The per-peer facts outside the overlay: liveness and the unstructured
/// bootstrap overlay.  Overlay state (path, store, routing table, replica
/// list) is in [`Runtime::peer_state`].
#[derive(Clone, Debug, Default)]
pub struct Node {
    /// Whether the peer is currently online (the failure detector; the
    /// `online` flag inside [`PeerState`] is not used by the runtime).
    pub online: bool,
    /// Whether the peer has joined the network at all.
    pub joined: bool,
    /// Unstructured-overlay neighbours (bootstrap contacts).
    pub neighbours: Vec<PeerId>,
}

impl Node {
    /// Joined and currently online.
    fn is_up(&self) -> bool {
        self.joined && self.online
    }
}

/// Overlay state of the peer population: per-peer protocol state (path,
/// store, routing table, replica list), construction bookkeeping and the
/// ground-truth data assignment.
#[derive(Clone, Debug)]
struct Overlay {
    /// Per-peer overlay state (index = peer id).
    states: Vec<PeerState>,
    /// The ground-truth data assignment.
    original_entries: Vec<DataEntry>,
    /// Whether each peer participates in construction ticks.
    constructing: Vec<bool>,
    /// Whether each peer's construction tick is currently scheduled.  A
    /// tick firing while the peer is offline ends the chain (the flag drops
    /// to `false`, matching the paper's reference run, where a returning
    /// peer does not restart maintenance by itself); a later
    /// [`Runtime::start_construction`] re-arms dead chains.
    tick_armed: Vec<bool>,
    /// Consecutive fruitless exchanges per peer.
    fruitless: Vec<u32>,
}

/// Panics unless `index` is the one index a runtime hosts.
fn check_index(index: IndexId) {
    assert!(index == IndexId::PRIMARY, "unregistered index");
}

/// The deployment runtime: peers, a frame transport and the virtual clock.
///
/// Generic over the [`Transport`] backend; [`Runtime::new`] builds the
/// deterministic loopback deployment (the emulated wide-area network of the
/// paper's experiments), [`Runtime::with_transport`] accepts any backend —
/// in particular a [`pgrid_transport::SocketTransport`] (the reactor of
/// `pgrid-reactor`) for runs over real sockets.
///
/// A runtime normally hosts every peer of the deployment, but it can also
/// host only a contiguous *shard* of them
/// ([`Runtime::with_transport_sharded`]): peers outside the shard exist as
/// bookkeeping stubs (identity, data assignment, scheduled liveness) whose
/// protocol state lives in another process, reachable through the
/// transport's remote registrations.  That is the substrate of the
/// `pgrid-cluster` multi-process deployment.
pub struct Runtime<T: Transport = LoopbackTransport> {
    /// Configuration.
    pub config: NetConfig,
    /// All peers (index = peer id).
    pub nodes: Vec<Node>,
    /// Collected metrics.
    pub metrics: NetMetrics,
    overlay: Overlay,
    engine: ExchangeEngine,
    clock: Clock,
    links: Links<T>,
    lookups: Lookups,
    recovery: Recovery,
    /// The contiguous range of peer ids this runtime hosts (all peers in
    /// single-process mode).
    shard: std::ops::Range<usize>,
    /// Hosted peers that are joined and online, ascending — the exact
    /// content the query issue path used to recompute per query.  Rebuilt on
    /// join and liveness changes so the origin draw consumes the RNG
    /// identically to the uncached code.
    online_hosted: Vec<usize>,
    /// Structured tracing sink — disabled by default (enable with
    /// [`Runtime::enable_tracing`]).  Recording never consumes the RNG,
    /// and a disabled tracer hands out no trace IDs, so pinned seeds and
    /// wire bytes are bit-identical with tracing off.
    pub tracer: Tracer,
    /// Always-on bounded ring of coarse events (phase starts, timeouts,
    /// churn), dumped as JSONL when something goes wrong.
    pub recorder: FlightRecorder,
    /// When set, a query timeout or an incomplete range walk dumps the
    /// flight-recorder ring to this path.
    pub flight_dump: Option<std::path::PathBuf>,
    /// Trace context of the message currently being handled
    /// ([`NO_TRACE`] outside traced handling) — what `send` stamps onto
    /// outgoing query traffic.
    current_trace: u64,
    rng: StdRng,
}

impl Runtime<LoopbackTransport> {
    /// Creates a runtime over the deterministic loopback transport, with
    /// `n_peers` peers, each pre-loaded with `keys_per_peer` keys from the
    /// configured distribution.  Peers start offline/not-joined; the
    /// experiment driver joins them over time.
    pub fn new(config: NetConfig) -> Runtime<LoopbackTransport> {
        let transport = LoopbackTransport::new(LoopbackConfig {
            latency_min_ms: config.latency_min_ms,
            latency_max_ms: config.latency_max_ms,
            seed: config.seed ^ 0x7A4E,
        });
        Runtime::with_transport(config, transport).expect("loopback registration cannot fail")
    }
}

/// Generates every peer's initial overlay state and the ground-truth entry
/// list.
///
/// This is the exact RNG consumption [`Runtime::with_transport`] performs
/// during construction (`keys_per_peer` draws per peer, in peer order), so
/// any component that needs the deployment's data assignment without a
/// runtime — the cluster coordinator assembling a merged report, every
/// cluster worker building the same stub population — reproduces it by
/// seeding a [`StdRng`] with `config.seed` and calling this.
pub fn generate_peers(config: &NetConfig, rng: &mut StdRng) -> (Vec<PeerState>, Vec<DataEntry>) {
    let mut states = Vec::with_capacity(config.n_peers);
    let mut original_entries = Vec::with_capacity(config.n_peers * config.keys_per_peer);
    for i in 0..config.n_peers {
        let mut state = PeerState::new(PeerId(i as u64), routing::FANOUT);
        for j in 0..config.keys_per_peer {
            let entry = DataEntry::new(
                config.distribution.sample(rng),
                DataId((i * config.keys_per_peer + j) as u64),
            );
            state.store.insert(entry);
            original_entries.push(entry);
        }
        states.push(state);
    }
    (states, original_entries)
}

impl<T: Transport> Runtime<T> {
    /// Creates a runtime over the given transport backend, registering an
    /// endpoint for every peer.
    pub fn with_transport(config: NetConfig, transport: T) -> Result<Runtime<T>, TransportError> {
        let n_peers = config.n_peers;
        Runtime::with_transport_sharded(config, transport, 0..n_peers)
    }

    /// Creates a runtime that hosts only the peers in `shard`.
    ///
    /// Hosted peers get a transport endpoint registered here; every peer
    /// outside the shard must already be reachable through the transport
    /// (e.g. via [`pgrid_transport::SocketTransport::register_remote`]) —
    /// otherwise this fails with [`TransportError::UnknownPeer`].  All peers
    /// are generated (same seed, same data assignment in every process);
    /// non-hosted ones stay local stubs that only track identity, neighbour
    /// links and scheduled liveness for routing decisions, while their
    /// protocol state lives in the process that hosts them.
    pub fn with_transport_sharded(
        config: NetConfig,
        mut transport: T,
        shard: std::ops::Range<usize>,
    ) -> Result<Runtime<T>, TransportError> {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let params = config.balance_params();
        let (states, original_entries) = generate_peers(&config, &mut rng);
        let mut addrs = Vec::with_capacity(config.n_peers);
        for i in 0..config.n_peers {
            let peer = PeerId(i as u64);
            if let Some(addr) = transport.addr_of(peer) {
                // Already wired: a hosted endpoint the caller registered up
                // front (to publish its address during rendezvous) or a
                // remote registration.
                addrs.push(addr);
            } else if shard.contains(&i) {
                addrs.push(transport.register(peer)?);
            } else {
                return Err(TransportError::UnknownPeer(peer));
            }
        }
        let metrics = NetMetrics {
            sample_cap: config.query_sample_cap,
            ..NetMetrics::default()
        };
        let n = config.n_peers;
        Ok(Runtime {
            nodes: vec![Node::default(); n],
            config,
            metrics,
            overlay: Overlay {
                states,
                original_entries,
                constructing: vec![false; n],
                tick_armed: vec![false; n],
                fruitless: vec![0; n],
            },
            engine: ExchangeEngine::new(params),
            clock: Clock::default(),
            links: Links::new(transport, addrs),
            lookups: Lookups::default(),
            recovery: Recovery::default(),
            shard,
            online_hosted: Vec::new(),
            tracer: Tracer::disabled(),
            recorder: FlightRecorder::default(),
            flight_dump: None,
            current_trace: NO_TRACE,
            rng,
        })
    }

    /// Enables structured tracing with the default buffer capacity.
    pub fn enable_tracing(&mut self) {
        self.tracer = Tracer::enabled();
    }

    /// Enables structured tracing and gives this runtime's trace IDs a
    /// disjoint `base` ID space (cluster workers pass their shard index
    /// so merged trace IDs never collide across processes).
    pub fn enable_tracing_with_base(&mut self, base: u64) {
        let mut tracer = Tracer::enabled();
        tracer.set_id_base(base);
        self.tracer = tracer;
    }

    /// Dumps the flight-recorder ring to the configured
    /// [`Runtime::flight_dump`] path (a no-op without one).
    fn dump_flight(&self, reason: &str) {
        if let Some(path) = &self.flight_dump {
            let _ = self.recorder.dump_to(path, reason);
        }
    }

    /// Balance parameters the exchange engine decides with (derived from
    /// the configuration; the engine owns the single copy).
    pub fn params(&self) -> BalanceParams {
        *self.engine.params()
    }

    // ----- the overlay -------------------------------------------------------

    /// The ground-truth data assignment; `index` must be
    /// [`IndexId::PRIMARY`].
    pub fn original_entries_of(&self, index: IndexId) -> &[DataEntry] {
        check_index(index);
        &self.overlay.original_entries
    }

    /// The overlay state of `peer`; `index` must be [`IndexId::PRIMARY`].
    pub fn peer_state(&self, index: IndexId, peer: usize) -> &PeerState {
        check_index(index);
        &self.overlay.states[peer]
    }

    /// Assigns fresh `keys` to `peer`: the entries extend the ground truth
    /// (continuing its `DataId` numbering) and, when the peer is hosted
    /// here, its local store.  Construction anti-entropy spreads them to
    /// replicas from there (the re-indexing / distribution shift
    /// workload).  A hosted peer's fruitless-exchange count restarts at
    /// zero, so fresh data takes it out of back-off and
    /// [`Runtime::construction_quiescent`] waits for it again.
    pub fn insert_entries(&mut self, peer: usize, keys: Vec<Key>) {
        let hosted = self.hosted(peer);
        let overlay = &mut self.overlay;
        for key in keys {
            let entry = DataEntry::new(key, DataId(overlay.original_entries.len() as u64));
            overlay.original_entries.push(entry);
            if hosted {
                overlay.states[peer].store.insert(entry);
            }
        }
        if hosted {
            overlay.fruitless[peer] = 0;
        }
    }

    // ----- the peer population -------------------------------------------------

    /// Number of peers currently online.
    pub fn online_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_up()).count()
    }

    /// The contiguous range of peer ids hosted by this runtime.
    pub fn shard(&self) -> std::ops::Range<usize> {
        self.shard.clone()
    }

    /// Whether `peer`'s protocol state lives in this runtime (as opposed to
    /// a remote process reachable through the transport): part of the
    /// contiguous shard, or adopted from a failed worker.
    pub fn hosted(&self, peer: usize) -> bool {
        self.shard.contains(&peer) || self.recovery.adopted.contains(&peer)
    }

    /// Every peer hosted by this runtime: the contiguous shard plus any
    /// adopted peers (ascending within each group; adopted peers always
    /// come from other shards, so there are no duplicates).
    fn hosted_peers(&self) -> impl Iterator<Item = usize> + '_ {
        self.shard
            .clone()
            .chain(self.recovery.adopted.iter().copied())
    }

    /// Number of hosted peers currently online.
    pub fn hosted_online_count(&self) -> usize {
        self.hosted_peers()
            .filter(|&i| self.nodes[i].is_up())
            .count()
    }

    /// Recomputes the cached list of hosted online peers (ascending, the
    /// exact filter the per-query scan used to apply).  Adopted peers sort
    /// into place; without adoptions the shard range is already ascending
    /// and the sort is a no-op, so the origin draws are unchanged.
    fn rebuild_online_cache(&mut self) {
        self.online_hosted = self
            .hosted_peers()
            .filter(|&i| self.nodes[i].is_up())
            .collect();
        self.online_hosted.sort_unstable();
    }

    /// Approximates a uniform random peer sample by a short random walk over
    /// the unstructured neighbour lists.
    fn random_contact(&mut self, from: usize) -> Option<usize> {
        let mut current = from;
        for _ in 0..6 {
            let neighbours = &self.nodes[current].neighbours;
            if neighbours.is_empty() {
                break;
            }
            let pick = neighbours[self.rng.gen_range(0..neighbours.len())].0 as usize;
            current = pick;
        }
        if current == from {
            // Fall back to a direct neighbour.
            let neighbours = &self.nodes[from].neighbours;
            if neighbours.is_empty() {
                return None;
            }
            current = neighbours[self.rng.gen_range(0..neighbours.len())].0 as usize;
        }
        (current != from).then_some(current)
    }
}
