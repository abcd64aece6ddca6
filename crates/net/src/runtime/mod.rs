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
//! - this module — [`NetConfig`], the peer population (`Peer`: one
//!   peer's overlay state, bootstrap contacts and construction
//!   bookkeeping), constructors, accessors and the population scans;
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
//! A step that touches one peer only is an `impl Peer` method in its
//! seam's file: it takes what it reads besides the peer (the exchange
//! engine, the RNG) and returns what must be sent.  Reads across peers
//! stay on the runtime: routing reachability, `random_contact`, the join,
//! the replica-source search and the population scans.
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
use pgrid_core::store::SummaryMemo;
use pgrid_obs::recorder::FlightRecorder;
use pgrid_obs::trace::{Tracer, NO_TRACE};
use pgrid_transport::loopback::{LoopbackConfig, LoopbackTransport};
use pgrid_transport::{Transport, TransportError};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
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

/// One peer: overlay state, bootstrap contacts and construction
/// bookkeeping.  `state.online` is the runtime's one liveness flag, only
/// ever set together with `joined`.
struct Peer {
    /// Path, store, routing table, replica list and liveness.
    state: PeerState,
    /// Whether the peer ever joined; churn brings back no other peer.
    joined: bool,
    /// Unstructured-overlay neighbours (bootstrap contacts).
    neighbours: Vec<PeerId>,
    /// Whether the construction tick is scheduled.  A tick firing while
    /// the peer is offline ends the chain, as in the paper's reference run
    /// (a returning peer does not restart maintenance by itself);
    /// [`Runtime::start_construction`] re-arms it.
    tick_armed: bool,
    /// Consecutive fruitless exchanges.
    fruitless: u32,
    /// Referrals followed since the last tick.
    referrals: u8,
    /// The summary of its own partition the peer last took.
    summary: SummaryMemo,
}

/// A flat copy of the neighbour lists, which `random_contact` walks: peer
/// `i`'s are `ids[offsets[i]..offsets[i + 1]]`, in `Peer::neighbours`
/// order, so a draw picks the same peer.  A join empties it; the next walk
/// rebuilds it.
#[derive(Default)]
struct Contacts {
    offsets: Vec<u32>,
    ids: Vec<u32>,
}

impl Contacts {
    fn rebuild(&mut self, peers: &[Peer]) {
        let narrow = |n: u64| u32::try_from(n).expect("fewer than 2^32 peers and links");
        self.ids.clear();
        self.offsets.clear();
        self.offsets.push(0);
        for peer in peers {
            self.ids.extend(peer.neighbours.iter().map(|n| narrow(n.0)));
            self.offsets.push(narrow(self.ids.len() as u64));
        }
    }

    /// The neighbours of `peer`.
    fn of(&self, peer: usize) -> &[u32] {
        &self.ids[self.offsets[peer] as usize..self.offsets[peer + 1] as usize]
    }
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
    /// Collected metrics.
    pub metrics: NetMetrics,
    /// All peers (index = peer id).
    peers: Vec<Peer>,
    /// The neighbour lists, flat.
    contacts: Contacts,
    /// The ground-truth data assignment.
    original_entries: Vec<DataEntry>,
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
        let own: Vec<DataEntry> = (0..config.keys_per_peer)
            .map(|j| {
                DataEntry::new(
                    config.distribution.sample(rng),
                    DataId((i * config.keys_per_peer + j) as u64),
                )
            })
            .collect();
        original_entries.extend_from_slice(&own);
        states.push(PeerState::with_entries(
            PeerId(i as u64),
            routing::FANOUT,
            own,
        ));
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
        for i in 0..config.n_peers {
            let peer = PeerId(i as u64);
            if transport.addr_of(peer).is_some() {
                // Already wired: a hosted endpoint the caller registered up
                // front (to publish its address during rendezvous) or a
                // remote registration.
            } else if shard.contains(&i) {
                transport.register(peer)?;
            } else {
                return Err(TransportError::UnknownPeer(peer));
            }
        }
        let metrics = NetMetrics {
            sample_cap: config.query_sample_cap,
            ..NetMetrics::default()
        };
        Ok(Runtime {
            config,
            metrics,
            peers: states
                .into_iter()
                .map(|state| Peer {
                    state: PeerState {
                        online: false,
                        ..state
                    },
                    joined: false,
                    neighbours: Vec::new(),
                    tick_armed: false,
                    fruitless: 0,
                    referrals: 0,
                    summary: SummaryMemo::default(),
                })
                .collect(),
            contacts: Contacts::default(),
            original_entries,
            engine: ExchangeEngine::new(params),
            clock: Clock::default(),
            links: Links::new(transport),
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
        &self.original_entries
    }

    /// The overlay state of `peer`; `index` must be [`IndexId::PRIMARY`].
    pub fn peer_state(&self, index: IndexId, peer: usize) -> &PeerState {
        check_index(index);
        &self.peers[peer].state
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
        for key in keys {
            let entry = DataEntry::new(key, DataId(self.original_entries.len() as u64));
            self.original_entries.push(entry);
            if hosted {
                self.peers[peer].state.store.insert(entry);
            }
        }
        if hosted {
            self.peers[peer].fruitless = 0;
        }
    }

    // ----- the peer population -------------------------------------------------

    /// Number of peers currently online.
    pub fn online_count(&self) -> usize {
        self.peers.iter().filter(|p| p.state.online).count()
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
        self.online_hosted.len()
    }

    /// Recomputes the cached list of hosted online peers (ascending, the
    /// exact filter the per-query scan used to apply).  Adopted peers sort
    /// into place; without adoptions the shard range is already ascending
    /// and the sort is a no-op, so the origin draws are unchanged.
    fn rebuild_online_cache(&mut self) {
        self.online_hosted = self
            .hosted_peers()
            .filter(|&i| self.peers[i].state.online)
            .collect();
        self.online_hosted.sort_unstable();
    }

    /// Approximates a uniform random peer sample by a short random walk over
    /// the unstructured neighbour lists.
    fn random_contact(&mut self, from: usize) -> Option<usize> {
        if self.contacts.offsets.is_empty() {
            self.contacts.rebuild(&self.peers);
        }
        let contacts = &self.contacts;
        let mut current = from;
        for _ in 0..6 {
            match contacts.of(current).choose(&mut self.rng) {
                Some(&pick) => current = pick as usize,
                None => break,
            }
        }
        if current == from {
            // Fall back to a direct neighbour.
            current = *contacts.of(from).choose(&mut self.rng)? as usize;
        }
        (current != from).then_some(current)
    }
}
