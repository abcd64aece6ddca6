//! The [`Overlay`] trait: what every engine of the reproduction can do.

use pgrid_core::index::IndexId;
use pgrid_core::key::Key;
use pgrid_core::routing::PeerId;

/// Milliseconds of virtual time (the shared clock of all engines).
pub type Millis = u64;

/// Milliseconds per minute of virtual time.
pub const MINUTE_MS: Millis = 60_000;

/// A message-level overlay engine a [`crate::Scenario`] can be executed
/// against.
///
/// Implementations: [`pgrid_net::runtime::Runtime`] over any transport
/// (see [`crate::net`]) and the cluster worker's paced shard wrapper
/// (`ShardOverlay` in `pgrid-cluster`).  The round-based simulator is not
/// one: `pgrid_sim::construction` drives it directly.
///
/// Indexes: every engine hosts the implicit primary index
/// ([`IndexId::PRIMARY`]); engines that support multiple indexes over one
/// peer population answer [`Overlay::has_index`] for the secondary ids
/// they registered.  Index-qualified operations on an unhosted index
/// panic — scenarios must only reference indexes the overlay was set up
/// with.
pub trait Overlay {
    /// Number of peers in the population.
    fn n_peers(&self) -> usize;

    /// Current virtual time.
    fn now(&self) -> Millis;

    /// Advances virtual time to `until`, processing whatever the engine
    /// processes (timer events, frame deliveries, construction rounds).
    fn advance_to(&mut self, until: Millis);

    /// Brings `peer` online, bootstrapping it with `fanout` contacts drawn
    /// by the engine.
    fn join(&mut self, peer: usize, fanout: usize);

    /// Brings `peer` online with a pre-computed contact list (deterministic
    /// join plans of the cluster).
    fn join_with_neighbours(&mut self, peer: usize, neighbours: Vec<PeerId>);

    /// Schedules `peer` to go offline at `at` and return `downtime` later.
    fn schedule_leave(&mut self, peer: usize, at: Millis, downtime: Millis);

    /// Pushes every online peer's original entries of `index` to random
    /// contacts (the replication phase).
    fn begin_replication(&mut self, index: IndexId);

    /// Switches on construction for `index` (periodic exchange ticks /
    /// rounds); also used to re-engage peers after a distribution shift.
    fn begin_construction(&mut self, index: IndexId);

    /// Whether construction has settled: no peer is actively driving
    /// partitioning work any more.
    fn quiescent(&self) -> bool;

    /// Whether `index` is hosted by this overlay.
    fn has_index(&self, index: IndexId) -> bool;

    /// Assigns fresh `keys` to `peer` on `index` (ground truth + local
    /// store), as a distribution shift or re-indexing does.
    fn insert(&mut self, index: IndexId, peer: usize, keys: Vec<Key>);

    /// Issues one lookup for `key` against `index` from an engine-chosen
    /// online peer.
    fn issue_query(&mut self, index: IndexId, key: Key);

    /// Issues one order-preserving range query for `[lo, hi]` against
    /// `index` from an engine-chosen online peer.
    fn issue_range_query(&mut self, index: IndexId, lo: Key, hi: Key);

    /// The keys of the ground-truth data assignment of `index` (the query
    /// workload draws from these).
    fn query_keys(&self, index: IndexId) -> Vec<Key>;

    /// How long an unanswered query may stay outstanding (0 for engines
    /// that answer synchronously).
    fn query_timeout_ms(&self) -> Millis;

    /// A labelled measurement of the overlay's current quality and query
    /// statistics, one entry per hosted index.
    fn snapshot(&self, label: &str) -> OverlaySnapshot;

    /// Requests that the hosting process die abruptly once virtual time
    /// reaches `at` (the cluster's unplanned-worker-death fault injection;
    /// the worker overlay exits the process mid-run).  Engines without a
    /// process boundary ignore it.
    fn schedule_kill(&mut self, _at: Millis) {}

    /// Injects a healing network partition: peers in different `groups`
    /// cannot exchange frames while `from <= now < until`.  Returns whether
    /// the engine's transport supports partition faults (`false` means the
    /// fault was ignored).
    fn inject_partition(&mut self, _groups: &[Vec<usize>], _from: Millis, _until: Millis) -> bool {
        false
    }

    /// Captures the primary-index key stores of the peers this engine
    /// hosts, as `(peer, store)` pairs.  Engines with copy-on-write
    /// stores return O(1) handles that share storage with the live peers
    /// until either side mutates; the default returns nothing.  Only
    /// called when [`crate::Scenario::capture_stores`] opted in.
    fn capture_stores(&self) -> Vec<(usize, pgrid_core::store::KeyStore)> {
        Vec::new()
    }
}

/// One labelled measurement of an overlay, taken by [`Phase::Snapshot`]
/// (and automatically at the end of every run).
///
/// [`Phase::Snapshot`]: crate::Phase::Snapshot
#[derive(Clone, Debug, PartialEq)]
pub struct OverlaySnapshot {
    /// The label the scenario gave this snapshot (`"final"` for the
    /// automatic end-of-run one).
    pub label: String,
    /// Virtual time of the measurement, in minutes.
    pub at_min: u64,
    /// Peers online at the time of the measurement.
    pub online: usize,
    /// Per-index overlay quality, primary index first.
    pub indexes: Vec<IndexSnapshot>,
}

impl OverlaySnapshot {
    /// The measurement of one index, if hosted.
    pub fn index(&self, index: IndexId) -> Option<&IndexSnapshot> {
        self.indexes.iter().find(|s| s.index == index)
    }
}

/// Overlay quality and query statistics of one index.
#[derive(Clone, Debug, PartialEq)]
pub struct IndexSnapshot {
    /// Which index.
    pub index: IndexId,
    /// Mean trie depth of the index's peer paths.
    pub mean_path_length: f64,
    /// Load-balance deviation from the index's reference partitioning.
    pub balance_deviation: f64,
    /// Mean number of peers per distinct leaf partition.
    pub mean_replication: f64,
    /// Queries issued against this index so far.
    pub queries_issued: usize,
    /// Of those, queries answered successfully.
    pub queries_succeeded: usize,
    /// Range queries issued against this index so far.
    pub ranges_issued: usize,
    /// Of those, range queries whose slices covered the whole range.
    pub ranges_complete: usize,
    /// Median lookup latency in milliseconds (`None` for engines that
    /// answer synchronously or before any query was answered).
    pub latency_p50_ms: Option<u64>,
    /// 99th-percentile lookup latency in milliseconds.
    pub latency_p99_ms: Option<u64>,
    /// 99.9th-percentile lookup latency in milliseconds.
    pub latency_p999_ms: Option<u64>,
}

impl IndexSnapshot {
    /// Fraction of issued queries that succeeded (0 when none were issued).
    pub fn query_success_rate(&self) -> f64 {
        if self.queries_issued == 0 {
            0.0
        } else {
            self.queries_succeeded as f64 / self.queries_issued as f64
        }
    }
}
