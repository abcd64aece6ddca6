//! Event-driven deployment runtime over a pluggable [`Transport`].
//!
//! Every peer is an isolated state machine that communicates exclusively
//! through encoded [`Message`]s carried as framed batches by a
//! [`pgrid_transport::Transport`] backend.  With the deterministic loopback
//! backend this replaces the paper's PlanetLab testbed (seeded latency and
//! jitter, emulated loss, reproducible experiments); with the TCP backend
//! the very same protocol code paths run over real sockets.  Messages sent
//! to the same destination while one event is processed are batched into a
//! single frame (the per-tick batching of exchange messages).

use crate::message::{ExchangeOutcome, Message};
use bytes::Bytes;
use pgrid_core::exchange::{ExchangeDecision, ExchangeEngine};
use pgrid_core::histogram::LogHistogram;
use pgrid_core::index::IndexId;
use pgrid_core::key::{DataEntry, DataId, Key};
use pgrid_core::path::Path;
use pgrid_core::peer::PeerState;
use pgrid_core::reference::BalanceParams;
use pgrid_core::routing::{PeerId, RoutingEntry};
use pgrid_core::store::{KeyStore, StoreRead};
use pgrid_obs::recorder::FlightRecorder;
use pgrid_obs::trace::{Tracer, AMBIENT_TRACE, NO_TRACE};
use pgrid_transport::frame;
use pgrid_transport::loopback::{LoopbackConfig, LoopbackTransport};
use pgrid_transport::{LinkFault, PeerAddr, Transport, TransportError, TransportStats};
use pgrid_workload::distributions::Distribution;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap, VecDeque};

/// Milliseconds of virtual time.
pub type Millis = u64;

/// How many consecutive empty polls a real-time transport may stall the
/// virtual clock while frames are in flight (at 200µs each) before the
/// runtime proceeds anyway.
const MAX_REALTIME_STALLS: u32 = 500;

/// Per-frame payload budget, well below [`frame::MAX_FRAME_BYTES`]: batches
/// whose encoded size would exceed it are split across frames instead of
/// producing a frame the receiver rejects.
const MAX_FRAME_PAYLOAD_BYTES: usize = frame::MAX_FRAME_BYTES / 4;

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
    /// Interval between construction ticks of a peer.
    pub construct_interval_ms: u64,
    /// Query timeout (a query unanswered for this long counts as failed).
    pub query_timeout_ms: u64,
    /// Routing table fanout.
    pub routing_fanout: usize,
    /// Random seed.
    pub seed: u64,
    /// The key distribution.
    pub distribution: pgrid_workload::distributions::Distribution,
    /// Whether peers memoise their prefix-routing resolution per
    /// `(index, mismatch level)` on the query hot path.  Off by default:
    /// the cache skips the per-hop random reference shuffle, which changes
    /// the deployment's random trajectory (the Section-5 reference figures
    /// are pinned to the uncached path).  The query bench reports the
    /// before/after delta.
    pub route_cache: bool,
    /// How many resolved query/range records are retained verbatim for
    /// debugging, per runtime.  Query statistics are always aggregated into
    /// [`QueryAggregates`] (bounded memory at any rate); the sample rings
    /// only keep the most recent `query_sample_cap` records.
    pub query_sample_cap: usize,
    /// Base interval between re-issues of an unanswered recovery
    /// `ReplicaPull`, in virtual milliseconds.  Each retry doubles the
    /// wait (capped by [`NetConfig::recovery_retry_max_ms`]), so a large
    /// shard recovering many peers does not stampede its replica sources.
    pub recovery_retry_ms: u64,
    /// Upper bound of the recovery re-issue backoff.
    pub recovery_retry_max_ms: u64,
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
            construct_interval_ms: 5_000,
            query_timeout_ms: 20_000,
            routing_fanout: 5,
            seed: 0xBEEF,
            distribution: pgrid_workload::distributions::Distribution::Text {
                vocabulary: 5_000,
                exponent: 1.0,
            },
            route_cache: false,
            query_sample_cap: DEFAULT_QUERY_SAMPLE_CAP,
            recovery_retry_ms: 2_000,
            recovery_retry_max_ms: 16_000,
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

/// One peer of the deployment.
#[derive(Clone, Debug)]
pub struct Node {
    /// Overlay state (path, store, routing table, replica list).
    pub state: PeerState,
    /// Unstructured-overlay neighbours (bootstrap contacts).
    pub neighbours: Vec<PeerId>,
    /// Whether the peer participates in construction ticks.
    pub constructing: bool,
    /// Whether a construction tick is currently scheduled.  A tick firing
    /// while the peer is offline ends the chain (`tick_armed` drops to
    /// `false`, matching the paper's reference run, where a returning peer
    /// does not restart maintenance by itself); a later
    /// [`Runtime::start_construction_on`] re-arms dead chains.
    pub tick_armed: bool,
    /// Consecutive fruitless exchanges.
    pub fruitless: u32,
    /// Whether the peer has joined the network at all.
    pub joined: bool,
}

/// Classified bandwidth counters for one time bucket.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BandwidthSample {
    /// Bytes of maintenance traffic (join, replicate, exchange).
    pub maintenance_bytes: usize,
    /// Bytes of query traffic.
    pub query_bytes: usize,
}

/// Default capacity of the debug sample rings (see
/// [`NetConfig::query_sample_cap`]).
pub const DEFAULT_QUERY_SAMPLE_CAP: usize = 256;

/// Record of one *resolved* query (answered or timed out), kept in the
/// capped debug sample ring.  All statistics live in [`QueryAggregates`];
/// these records exist only to inspect recent individual queries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueryRecord {
    /// The index the query ran against ([`IndexId::PRIMARY`] unless the
    /// deployment hosts secondary indexes).
    pub index: IndexId,
    /// Virtual time the query was issued.
    pub issued_at: Millis,
    /// Latency in milliseconds (`None` for a timeout).
    pub latency_ms: Option<Millis>,
    /// Hops reported by the response.
    pub hops: u32,
    /// Whether the query succeeded.
    pub success: bool,
}

/// Record of one resolved range query, kept in the capped debug sample
/// ring; correctness tests read the collected entries from here.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RangeSample {
    /// The index the range query ran against.
    pub index: IndexId,
    /// The query identifier [`Runtime::issue_range_query_on`] returned.
    pub id: u64,
    /// Inclusive lower bound of the requested range.
    pub lo: Key,
    /// Inclusive upper bound of the requested range.
    pub hi: Key,
    /// Virtual time the range query was issued.
    pub issued_at: Millis,
    /// Latency in milliseconds (`None` for a timeout).
    pub latency_ms: Option<Millis>,
    /// Whether the returned slices covered the whole range.
    pub complete: bool,
    /// Largest hop count reported by any slice of the walk.
    pub hops: u32,
    /// The merged, deduplicated entries collected from all slices.
    pub entries: Vec<DataEntry>,
}

/// Latency aggregate of one minute bucket: count, sum and sum of squares
/// in seconds, keyed by the minute the query was *issued* in.  Mean and
/// standard deviation per minute derive from these three numbers, which is
/// what lets the runtime drop the per-query records.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MinuteLatency {
    /// Queries answered whose issue time fell into this minute.
    pub count: u64,
    /// Sum of their latencies in seconds.
    pub sum_s: f64,
    /// Sum of their squared latencies in seconds².
    pub sum_sq_s: f64,
}

impl MinuteLatency {
    /// Folds one latency observation (in seconds) into the bucket.
    pub fn record(&mut self, latency_s: f64) {
        self.count += 1;
        self.sum_s += latency_s;
        self.sum_sq_s += latency_s * latency_s;
    }

    /// Adds another bucket into this one (shard merge).
    pub fn merge(&mut self, other: &MinuteLatency) {
        self.count += other.count;
        self.sum_s += other.sum_s;
        self.sum_sq_s += other.sum_sq_s;
    }

    /// Mean latency in seconds (0.0 when empty).
    pub fn mean_s(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_s / self.count as f64
        }
    }

    /// Population standard deviation in seconds (0.0 when empty).
    pub fn std_s(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let mean = self.mean_s();
        (self.sum_sq_s / self.count as f64 - mean * mean)
            .max(0.0)
            .sqrt()
    }
}

/// Bounded-memory query statistics of one index.
///
/// Every counter is monotone and every component merges by addition, so
/// sharded cluster workers ship these aggregates instead of raw query
/// records and the coordinator folds them with [`QueryAggregates::merge`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QueryAggregates {
    /// Lookups issued.
    pub issued: u64,
    /// Lookups answered before their timeout.
    pub answered: u64,
    /// Of those, lookups answered successfully.
    pub succeeded: u64,
    /// Lookups that expired unanswered.
    pub timed_out: u64,
    /// Responses that arrived after their query had already timed out
    /// (counted here, never as a success — the timeout verdict is final).
    pub late_responses: u64,
    /// Total hops over all successful lookups.
    pub hops_sum_successful: u64,
    /// Latency distribution of answered lookups, in milliseconds.
    pub latency: LogHistogram,
    /// Range queries issued.
    pub ranges_issued: u64,
    /// Range queries whose slices covered the whole requested range.
    pub ranges_complete: u64,
    /// Latency distribution of completed range queries, in milliseconds.
    pub range_latency: LogHistogram,
    /// Per-minute latency aggregates of answered lookups, keyed by the
    /// minute the query was issued in (the Section-5 latency timeline).
    pub per_minute: BTreeMap<u64, MinuteLatency>,
}

impl QueryAggregates {
    /// Fraction of issued lookups that succeeded (0.0 when none issued).
    pub fn success_rate(&self) -> f64 {
        if self.issued == 0 {
            0.0
        } else {
            self.succeeded as f64 / self.issued as f64
        }
    }

    /// Mean hops over successful lookups (0.0 when none succeeded).
    pub fn mean_hops_successful(&self) -> f64 {
        if self.succeeded == 0 {
            0.0
        } else {
            self.hops_sum_successful as f64 / self.succeeded as f64
        }
    }

    /// Adds another shard's aggregates into this one.
    pub fn merge(&mut self, other: &QueryAggregates) {
        self.issued += other.issued;
        self.answered += other.answered;
        self.succeeded += other.succeeded;
        self.timed_out += other.timed_out;
        self.late_responses += other.late_responses;
        self.hops_sum_successful += other.hops_sum_successful;
        self.latency.merge(&other.latency);
        self.ranges_issued += other.ranges_issued;
        self.ranges_complete += other.ranges_complete;
        self.range_latency.merge(&other.range_latency);
        for (minute, bucket) in &other.per_minute {
            self.per_minute.entry(*minute).or_default().merge(bucket);
        }
    }
}

/// Aggregate statistics collected by the runtime.
#[derive(Clone, Debug)]
pub struct NetMetrics {
    /// Bandwidth per one-minute bucket of virtual time.
    pub bandwidth_per_minute: HashMap<u64, BandwidthSample>,
    /// Bounded per-index query statistics (entries appear once an index
    /// sees its first query).
    pub query_stats: BTreeMap<IndexId, QueryAggregates>,
    /// The most recent resolved lookups, capped at
    /// [`NetMetrics::sample_cap`].
    pub query_samples: VecDeque<QueryRecord>,
    /// The most recent resolved range queries, capped at
    /// [`NetMetrics::sample_cap`].
    pub range_samples: VecDeque<RangeSample>,
    /// Capacity of the two sample rings (from
    /// [`NetConfig::query_sample_cap`]).
    pub sample_cap: usize,
    /// Messages lost in transit.
    pub messages_lost: usize,
    /// Messages delivered.
    pub messages_delivered: usize,
    /// Messages dropped because the destination was offline.
    pub messages_to_offline: usize,
    /// Frames or messages that arrived but could not be decoded (wire
    /// corruption or version skew with a remote peer); distinguishes a
    /// broken stream from ordinary loss.
    pub decode_failures: usize,
    /// Frames that carried more than one message (the per-tick batching at
    /// work).
    pub multi_message_frames: usize,
    /// Links that entered the Suspect state (a send to the peer failed and
    /// the link backed off); always zero on virtual-time transports.
    pub links_suspected: usize,
    /// Links declared Dead after repeated send failures.
    pub links_dead: usize,
    /// Peers adopted from a failed worker's shard.
    pub peers_adopted: usize,
    /// Adopted peers whose state was rebuilt from a live P-Grid replica.
    pub peers_recovered_replica: usize,
    /// Adopted peers rebuilt from the locally regenerated data assignment
    /// (no live replica answered in time).
    pub peers_recovered_local: usize,
    /// Peers restored from a local durability log (warm restart) instead
    /// of a replica pull or the regenerated assignment.
    pub peers_recovered_warm: usize,
    /// Warm-restored peers that finished an anti-entropy reconciliation
    /// with a live replica after replay.
    pub peers_reconciled: usize,
    /// Entries merged into warm-restored peers by reconciliation (what
    /// the log had missed since its last sync).
    pub reconciled_entries: usize,
}

impl Default for NetMetrics {
    fn default() -> Self {
        NetMetrics {
            bandwidth_per_minute: HashMap::new(),
            query_stats: BTreeMap::new(),
            query_samples: VecDeque::new(),
            range_samples: VecDeque::new(),
            sample_cap: DEFAULT_QUERY_SAMPLE_CAP,
            messages_lost: 0,
            messages_delivered: 0,
            messages_to_offline: 0,
            decode_failures: 0,
            multi_message_frames: 0,
            links_suspected: 0,
            links_dead: 0,
            peers_adopted: 0,
            peers_recovered_replica: 0,
            peers_recovered_local: 0,
            peers_recovered_warm: 0,
            peers_reconciled: 0,
            reconciled_entries: 0,
        }
    }
}

impl NetMetrics {
    /// The aggregates of one index (a default/empty one when the index has
    /// not seen queries yet).
    pub fn stats(&self, index: IndexId) -> QueryAggregates {
        self.query_stats.get(&index).cloned().unwrap_or_default()
    }

    /// Mutable aggregates of one index, created on first use.
    pub fn stats_mut(&mut self, index: IndexId) -> &mut QueryAggregates {
        self.query_stats.entry(index).or_default()
    }

    /// All indexes' aggregates merged into one (what the totals of the
    /// Prometheus exposition report).
    pub fn merged_stats(&self) -> QueryAggregates {
        let mut merged = QueryAggregates::default();
        for agg in self.query_stats.values() {
            merged.merge(agg);
        }
        merged
    }

    fn push_query_sample(&mut self, record: QueryRecord) {
        if self.sample_cap == 0 {
            return;
        }
        if self.query_samples.len() == self.sample_cap {
            self.query_samples.pop_front();
        }
        self.query_samples.push_back(record);
    }

    fn push_range_sample(&mut self, sample: RangeSample) {
        if self.sample_cap == 0 {
            return;
        }
        if self.range_samples.len() == self.sample_cap {
            self.range_samples.pop_front();
        }
        self.range_samples.push_back(sample);
    }

    /// Populates `registry` with the runtime counters — message-level
    /// totals, merged query aggregates (plus per-index attribution when
    /// secondary indexes saw traffic), latency percentile gauges and the
    /// full latency histogram.  The one producer the text renderer and
    /// the live scrape endpoint share.
    pub fn to_registry(&self, registry: &mut pgrid_obs::registry::MetricsRegistry) {
        let totals = self.merged_stats();
        let queries_answered = totals.answered as usize;
        let queries_succeeded = totals.succeeded as usize;
        for (name, help, value) in [
            (
                "pgrid_net_messages_delivered_total",
                "Protocol messages delivered to peers.",
                self.messages_delivered,
            ),
            (
                "pgrid_net_messages_lost_total",
                "Protocol messages lost in transit.",
                self.messages_lost,
            ),
            (
                "pgrid_net_messages_to_offline_total",
                "Messages dropped because the destination was offline.",
                self.messages_to_offline,
            ),
            (
                "pgrid_net_decode_failures_total",
                "Frames or messages that arrived but could not be decoded.",
                self.decode_failures,
            ),
            (
                "pgrid_net_multi_message_frames_total",
                "Frames that carried more than one message.",
                self.multi_message_frames,
            ),
            (
                "pgrid_net_links_suspected_total",
                "Links that entered the Suspect state after a send failure.",
                self.links_suspected,
            ),
            (
                "pgrid_net_links_dead_total",
                "Links declared Dead after repeated send failures.",
                self.links_dead,
            ),
            (
                "pgrid_net_peers_adopted_total",
                "Peers adopted from a failed worker's shard.",
                self.peers_adopted,
            ),
            (
                "pgrid_net_peers_recovered_replica_total",
                "Adopted peers rebuilt from a live P-Grid replica.",
                self.peers_recovered_replica,
            ),
            (
                "pgrid_net_peers_recovered_local_total",
                "Adopted peers rebuilt from the regenerated data assignment.",
                self.peers_recovered_local,
            ),
            (
                "pgrid_net_peers_recovered_warm_total",
                "Peers restored from a local durability log (warm restart).",
                self.peers_recovered_warm,
            ),
            (
                "pgrid_net_peers_reconciled_total",
                "Warm-restored peers reconciled with a live replica.",
                self.peers_reconciled,
            ),
            (
                "pgrid_net_reconciled_entries_total",
                "Entries merged into warm-restored peers by reconciliation.",
                self.reconciled_entries,
            ),
            (
                "pgrid_net_queries_issued_total",
                "Queries issued.",
                totals.issued as usize,
            ),
            (
                "pgrid_net_queries_answered_total",
                "Queries answered before their timeout.",
                queries_answered,
            ),
            (
                "pgrid_net_queries_succeeded_total",
                "Queries answered successfully.",
                queries_succeeded,
            ),
            (
                "pgrid_net_queries_timed_out_total",
                "Queries that expired unanswered.",
                totals.timed_out as usize,
            ),
            (
                "pgrid_net_query_late_responses_total",
                "Responses that arrived after their query timed out.",
                totals.late_responses as usize,
            ),
            (
                "pgrid_net_range_queries_issued_total",
                "Range queries issued.",
                totals.ranges_issued as usize,
            ),
            (
                "pgrid_net_range_queries_complete_total",
                "Range queries that covered their whole requested range.",
                totals.ranges_complete as usize,
            ),
            (
                "pgrid_net_maintenance_bytes_total",
                "Bytes of maintenance traffic (join, replicate, exchange).",
                self.bandwidth_per_minute
                    .values()
                    .map(|b| b.maintenance_bytes)
                    .sum(),
            ),
            (
                "pgrid_net_query_bytes_total",
                "Bytes of query traffic.",
                self.bandwidth_per_minute
                    .values()
                    .map(|b| b.query_bytes)
                    .sum(),
            ),
        ] {
            registry.counter(name, help, &[], value as u64);
        }
        for (name, help, value) in [
            (
                "pgrid_net_query_latency_p50_ms",
                "Median lookup latency in milliseconds.",
                totals.latency.p50().unwrap_or(0),
            ),
            (
                "pgrid_net_query_latency_p99_ms",
                "99th-percentile lookup latency in milliseconds.",
                totals.latency.p99().unwrap_or(0),
            ),
            (
                "pgrid_net_query_latency_p999_ms",
                "99.9th-percentile lookup latency in milliseconds.",
                totals.latency.p999().unwrap_or(0),
            ),
        ] {
            registry.gauge(name, help, &[], value as f64);
        }
        registry.histogram(
            "pgrid_net_query_latency_ms",
            "Latency distribution of answered lookups in virtual milliseconds.",
            &[],
            &totals.latency,
        );
        // Per-index attribution, only once secondary indexes exist (a
        // single-index exposition stays exactly the totals above).
        if self.query_stats.len() > 1 {
            for (index, agg) in &self.query_stats {
                let idx = index.0.to_string();
                let labels = [("index", idx.as_str())];
                registry.counter(
                    "pgrid_net_index_queries_issued_total",
                    "Queries issued on this index.",
                    &labels,
                    agg.issued,
                );
                registry.counter(
                    "pgrid_net_index_queries_succeeded_total",
                    "Queries answered successfully on this index.",
                    &labels,
                    agg.succeeded,
                );
                registry.counter(
                    "pgrid_net_index_queries_timed_out_total",
                    "Queries that expired unanswered on this index.",
                    &labels,
                    agg.timed_out,
                );
                registry.histogram(
                    "pgrid_net_index_query_latency_ms",
                    "Latency distribution of answered lookups per index.",
                    &labels,
                    &agg.latency,
                );
            }
        }
    }

    /// Renders the runtime counters in the Prometheus text exposition
    /// format through the shared [`pgrid_obs::registry::MetricsRegistry`]
    /// encoder (companion to
    /// [`pgrid_transport::TransportStats::metrics_text`]), including the
    /// query latency histogram and its p50/p99/p999 gauges.
    pub fn metrics_text(&self) -> String {
        let mut registry = pgrid_obs::registry::MetricsRegistry::new();
        self.to_registry(&mut registry);
        registry.encode()
    }

    fn account(&mut self, now: Millis, message: &Message) {
        let bucket = now / 60_000;
        let entry = self.bandwidth_per_minute.entry(bucket).or_default();
        let size = message.wire_size();
        if message.is_query_traffic() {
            entry.query_bytes += size;
        } else {
            entry.maintenance_bytes += size;
        }
    }
}

#[derive(Debug)]
enum EventKind {
    ConstructTick { index: IndexId, peer: usize },
    GoOffline { peer: usize },
    GoOnline { peer: usize },
}

/// Origin-side bookkeeping of one outstanding lookup.
#[derive(Clone, Copy, Debug)]
struct PendingQuery {
    index: IndexId,
    issued_at: Millis,
    /// Trace of this lookup ([`NO_TRACE`] when tracing is off).
    trace_id: u64,
}

/// A set of merged, disjoint key intervals — the origin-side coverage
/// accounting of a range query.  Slices may arrive out of order (network
/// reordering) or not at all (loss), so completion is only declared when
/// the union of received intervals covers the whole requested range.
#[derive(Clone, Debug, Default)]
struct Coverage {
    /// Sorted, disjoint, non-adjacent inclusive intervals.
    intervals: Vec<(Key, Key)>,
}

impl Coverage {
    /// Merges the inclusive interval `[from, upto]` into the set.
    fn add(&mut self, from: Key, upto: Key) {
        if from > upto {
            return;
        }
        self.intervals.push((from, upto));
        self.intervals.sort_unstable();
        let mut merged: Vec<(Key, Key)> = Vec::with_capacity(self.intervals.len());
        for &(a, b) in &self.intervals {
            match merged.last_mut() {
                // Merge overlapping or adjacent intervals ([x, k] and
                // [k+1, y] are contiguous key ranges).
                Some(last) if a.0 <= last.1 .0.saturating_add(1) => {
                    last.1 = last.1.max(b);
                }
                _ => merged.push((a, b)),
            }
        }
        self.intervals = merged;
    }

    /// Whether one merged interval covers all of `[lo, hi]`.
    fn covers(&self, lo: Key, hi: Key) -> bool {
        self.intervals.iter().any(|&(a, b)| a <= lo && b >= hi)
    }

    /// The smallest key of `[lo, hi]` not yet covered, if any — where a
    /// stalled walk must resume.
    fn first_uncovered(&self, lo: Key, hi: Key) -> Option<Key> {
        let mut cursor = lo;
        for &(a, b) in &self.intervals {
            if a > cursor {
                break;
            }
            if b >= cursor {
                if b >= hi {
                    return None;
                }
                cursor = Key(b.0.saturating_add(1));
            }
        }
        (cursor <= hi).then_some(cursor)
    }
}

/// Origin-side bookkeeping of one outstanding range query.
#[derive(Clone, Debug)]
struct RangeState {
    index: IndexId,
    issued_at: Millis,
    lo: Key,
    hi: Key,
    coverage: Coverage,
    entries: Vec<DataEntry>,
    hops: u32,
    /// Current expiry: extended by a full timeout window on every partial
    /// response, so a walk only expires after a window *without progress*
    /// (a long walk over many partitions is not a failure).
    deadline: Millis,
    /// Stall recoveries performed so far (bounded by
    /// [`MAX_RANGE_RETRIES`]): a walk killed by frame loss is restarted
    /// from the first uncovered key instead of giving up.
    retries: u32,
    /// Trace of this range walk ([`NO_TRACE`] when tracing is off).
    trace_id: u64,
}

/// How often a stalled range walk is restarted before the origin reports
/// the range incomplete.
const MAX_RANGE_RETRIES: u32 = 3;

/// Overlay state of one *secondary* index hosted by the peer population.
///
/// The peer population, its liveness, its unstructured bootstrap overlay
/// and its transport endpoints are owned by the primary index (the
/// [`Node`] vector); a secondary index only adds the per-peer protocol
/// state that is index-specific — path, store, routing table, replica
/// list — plus its own construction bookkeeping and ground-truth data
/// assignment.
#[derive(Clone, Debug)]
pub struct SecondaryIndex {
    /// The index identifier (never [`IndexId::PRIMARY`]).
    pub id: IndexId,
    /// Per-peer overlay state of this index (index = peer id).  The
    /// `online` flag of these states is unused: liveness is shared and
    /// owned by the primary [`Node`]s.
    pub states: Vec<PeerState>,
    /// The ground-truth data assignment of this index.
    pub original_entries: Vec<DataEntry>,
    /// Whether each peer participates in construction ticks of this index.
    constructing: Vec<bool>,
    /// Whether each peer's tick chain is currently scheduled (see
    /// [`Node::tick_armed`]).
    tick_armed: Vec<bool>,
    /// Consecutive fruitless exchanges per peer on this index.
    fruitless: Vec<u32>,
}

/// Resolves the per-index peer state through disjoint field borrows, so a
/// caller can mutate it while also holding `&mut rng` (the same split the
/// single-index code achieved by naming `self.nodes[..]` directly).
fn index_state_mut<'a>(
    nodes: &'a mut [Node],
    secondary: &'a mut [SecondaryIndex],
    index: IndexId,
    peer: usize,
) -> &'a mut PeerState {
    if index.is_primary() {
        &mut nodes[peer].state
    } else {
        let slot = secondary
            .iter_mut()
            .find(|s| s.id == index)
            .expect("unregistered index");
        &mut slot.states[peer]
    }
}

/// Immutable counterpart of [`index_state_mut`].
fn index_state<'a>(
    nodes: &'a [Node],
    secondary: &'a [SecondaryIndex],
    index: IndexId,
    peer: usize,
) -> &'a PeerState {
    if index.is_primary() {
        &nodes[peer].state
    } else {
        let slot = secondary
            .iter()
            .find(|s| s.id == index)
            .expect("unregistered index");
        &slot.states[peer]
    }
}

/// Per-index fruitless-exchange counter of a peer.
fn index_fruitless_mut<'a>(
    nodes: &'a mut [Node],
    secondary: &'a mut [SecondaryIndex],
    index: IndexId,
    peer: usize,
) -> &'a mut u32 {
    if index.is_primary() {
        &mut nodes[peer].fruitless
    } else {
        let slot = secondary
            .iter_mut()
            .find(|s| s.id == index)
            .expect("unregistered index");
        &mut slot.fruitless[peer]
    }
}

/// Read-only counterpart of [`index_fruitless_mut`].
fn index_fruitless(
    nodes: &[Node],
    secondary: &[SecondaryIndex],
    index: IndexId,
    peer: usize,
) -> u32 {
    if index.is_primary() {
        nodes[peer].fruitless
    } else {
        let slot = secondary
            .iter()
            .find(|s| s.id == index)
            .expect("unregistered index");
        slot.fruitless[peer]
    }
}

/// Per-index constructing flag of a peer.
fn index_constructing_mut<'a>(
    nodes: &'a mut [Node],
    secondary: &'a mut [SecondaryIndex],
    index: IndexId,
    peer: usize,
) -> &'a mut bool {
    if index.is_primary() {
        &mut nodes[peer].constructing
    } else {
        let slot = secondary
            .iter_mut()
            .find(|s| s.id == index)
            .expect("unregistered index");
        &mut slot.constructing[peer]
    }
}

/// Read-only counterpart of [`index_constructing_mut`].
fn index_constructing(
    nodes: &[Node],
    secondary: &[SecondaryIndex],
    index: IndexId,
    peer: usize,
) -> bool {
    if index.is_primary() {
        nodes[peer].constructing
    } else {
        let slot = secondary
            .iter()
            .find(|s| s.id == index)
            .expect("unregistered index");
        slot.constructing[peer]
    }
}

/// Per-index tick-armed flag of a peer (see [`Node::tick_armed`]).
fn index_tick_armed_mut<'a>(
    nodes: &'a mut [Node],
    secondary: &'a mut [SecondaryIndex],
    index: IndexId,
    peer: usize,
) -> &'a mut bool {
    if index.is_primary() {
        &mut nodes[peer].tick_armed
    } else {
        let slot = secondary
            .iter_mut()
            .find(|s| s.id == index)
            .expect("unregistered index");
        &mut slot.tick_armed[peer]
    }
}

/// Read-only counterpart of [`index_tick_armed_mut`].
fn index_tick_armed(
    nodes: &[Node],
    secondary: &[SecondaryIndex],
    index: IndexId,
    peer: usize,
) -> bool {
    if index.is_primary() {
        nodes[peer].tick_armed
    } else {
        let slot = secondary
            .iter()
            .find(|s| s.id == index)
            .expect("unregistered index");
        slot.tick_armed[peer]
    }
}

struct Event {
    time: Millis,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// First backoff window after a send failure marks a link Suspect;
/// doubles per further failure, capped at [`LINK_BACKOFF_CAP_MS`].
const LINK_SUSPECT_BACKOFF_MS: Millis = 250;

/// Upper bound of the Suspect retry backoff.
const LINK_BACKOFF_CAP_MS: Millis = 2_000;

/// Consecutive send failures after which a link is declared Dead.
const LINK_DEAD_AFTER: u32 = 3;

/// Life-cycle of the link to one (remote) peer, driven by transport send
/// failures.  Virtual-time transports never fail a send, so every link
/// stays `Connected` in single-process runs; over TCP a dead worker's
/// endpoints walk Connected → Suspect → Dead, and the data plane keeps
/// advancing — sends to a suppressed link count as loss instead of
/// stalling the virtual clock on connect timeouts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkHealth {
    /// Sends flow normally.
    Connected,
    /// A recent send failed; further sends are dropped (as loss) until
    /// `retry_at`, with exponential backoff per consecutive failure.
    Suspect {
        /// Virtual time at which the next send may be attempted.
        retry_at: Millis,
        /// Consecutive failures so far.
        failures: u32,
    },
    /// Too many consecutive failures: sends are suppressed and the peer is
    /// skipped as a query-forwarding candidate until the link is revived
    /// by recovery ([`Runtime::revive_link`]).
    Dead,
}

/// The deployment runtime: peers, a frame transport and the virtual clock.
///
/// Generic over the [`Transport`] backend; [`Runtime::new`] builds the
/// deterministic loopback deployment (the emulated wide-area network of the
/// paper's experiments), [`Runtime::with_transport`] accepts any backend —
/// in particular [`pgrid_transport::tcp::TcpTransport`] for runs over real
/// sockets.
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
    /// The original entries assigned to peers (ground truth for queries).
    pub original_entries: Vec<DataEntry>,
    /// Secondary indexes hosted by the same peer population (empty unless
    /// [`Runtime::register_index`] was called).
    pub secondary: Vec<SecondaryIndex>,
    engine: ExchangeEngine,
    transport: T,
    addrs: Vec<PeerAddr>,
    /// The contiguous range of peer ids this runtime hosts (all peers in
    /// single-process mode).
    shard: std::ops::Range<usize>,
    /// Peers adopted from a failed worker's shard, hosted here beyond
    /// `shard`.  Empty in single-process runs and in healthy clusters.
    adopted: BTreeSet<usize>,
    /// Adopted peers whose replica pull is still outstanding.
    recovering: BTreeSet<usize>,
    /// Warm-restored peers whose anti-entropy reconciliation with a live
    /// replica is still outstanding.  Unlike `recovering`, these peers
    /// are already online serving their replayed state; a replica's
    /// answer is *merged into* it instead of replacing it.
    reconciling: BTreeSet<usize>,
    /// Link life-cycle per destination peer (absent = Connected).  Only
    /// ever populated by transport send failures, which virtual-time
    /// backends never produce.
    link_health: HashMap<usize, LinkHealth>,
    /// Per-destination batch buffer, flushed as one frame per destination
    /// after every processed event (BTreeMap so the flush order — and with
    /// it the loss and latency draws — is deterministic).
    pending: BTreeMap<usize, Vec<Message>>,
    /// First sending peer of each pending per-destination batch — the
    /// sender identity a frame is stamped with so link-level faults
    /// (partitions) can tell which side of a split it crosses.
    pending_from: HashMap<usize, usize>,
    /// The peer whose handler/event is currently executing (the `from` of
    /// anything it sends).
    current_actor: usize,
    queue: BinaryHeap<Reverse<Event>>,
    now: Millis,
    seq: u64,
    next_query_id: u64,
    outstanding_queries: HashMap<u64, PendingQuery>,
    outstanding_ranges: HashMap<u64, RangeState>,
    /// Expiry deadlines of outstanding queries in issue order.  The
    /// timeout is a constant, so the queue is naturally sorted and expiry
    /// is a lazy front-sweep instead of one heap event per query (the
    /// per-query event heap was the old accounting's hot-path cost).
    timeout_queue: VecDeque<(Millis, u64)>,
    /// Expiry deadlines of outstanding *range* queries.  Kept separate
    /// from `timeout_queue` because range deadlines extend on progress: a
    /// new entry is pushed per extension (keeping the queue sorted) and
    /// stale entries are skipped against [`RangeState::deadline`].
    range_timeout_queue: VecDeque<(Millis, u64)>,
    /// Hosted peers that are joined and online, ascending — the exact
    /// content `issue_query_on` used to recompute per query.  Rebuilt on
    /// join and liveness changes so the origin draw consumes the RNG
    /// identically to the uncached code.
    online_hosted: Vec<usize>,
    /// Memoised prefix-routing resolution per `(peer, index, mismatch
    /// level)`; only consulted with [`NetConfig::route_cache`] on, and
    /// invalidated whenever a peer's path or routing table changes.
    route_cache: HashMap<(usize, IndexId, usize), PeerId>,
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
    /// ([`NO_TRACE`] outside traced handling) — what [`Runtime::send`]
    /// stamps onto outgoing query traffic.
    current_trace: u64,
    /// Frames shipped while tracing is enabled (drives the 1-in-64
    /// sampling of ambient frame-send trace events).
    frames_traced: u64,
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

/// Generates every peer's initial state and the ground-truth entry list.
///
/// This is the exact RNG consumption [`Runtime::with_transport`] performs
/// during construction (`keys_per_peer` draws per peer, in peer order), so
/// any component that needs the deployment's data assignment without a
/// runtime — the cluster coordinator assembling a merged report, every
/// cluster worker building the same stub population — reproduces it by
/// seeding a [`StdRng`] with `config.seed` and calling this.
pub fn generate_peers(config: &NetConfig, rng: &mut StdRng) -> (Vec<Node>, Vec<DataEntry>) {
    let mut nodes = Vec::with_capacity(config.n_peers);
    let mut original_entries = Vec::new();
    for i in 0..config.n_peers {
        let mut state = PeerState::new(PeerId(i as u64), config.routing_fanout);
        for j in 0..config.keys_per_peer {
            let entry = DataEntry::new(
                config.distribution.sample(rng),
                pgrid_core::key::DataId((i * config.keys_per_peer + j) as u64),
            );
            state.store.insert(entry);
            original_entries.push(entry);
        }
        state.online = false;
        nodes.push(Node {
            state,
            neighbours: Vec::new(),
            constructing: false,
            tick_armed: false,
            fruitless: 0,
            joined: false,
        });
    }
    (nodes, original_entries)
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
    /// (e.g. via [`pgrid_transport::tcp::TcpTransport::register_remote`]) —
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
        let (nodes, original_entries) = generate_peers(&config, &mut rng);
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
        Ok(Runtime {
            config,
            nodes,
            metrics,
            original_entries,
            secondary: Vec::new(),
            engine: ExchangeEngine::new(params),
            transport,
            addrs,
            shard,
            adopted: BTreeSet::new(),
            recovering: BTreeSet::new(),
            reconciling: BTreeSet::new(),
            link_health: HashMap::new(),
            pending: BTreeMap::new(),
            pending_from: HashMap::new(),
            current_actor: 0,
            queue: BinaryHeap::new(),
            now: 0,
            seq: 0,
            next_query_id: 0,
            outstanding_queries: HashMap::new(),
            outstanding_ranges: HashMap::new(),
            timeout_queue: VecDeque::new(),
            range_timeout_queue: VecDeque::new(),
            online_hosted: Vec::new(),
            route_cache: HashMap::new(),
            tracer: Tracer::disabled(),
            recorder: FlightRecorder::default(),
            flight_dump: None,
            current_trace: NO_TRACE,
            frames_traced: 0,
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

    // ----- multi-index management --------------------------------------------

    /// Registers a *secondary* index over the same peer population: every
    /// peer receives `keys_per_peer` fresh keys drawn from `distribution`
    /// into a dedicated per-index overlay state (path, store, routing
    /// table), while liveness, bootstrap neighbours and the transport are
    /// shared with the primary index.
    ///
    /// The assignment is drawn from a dedicated RNG stream derived from
    /// the seed and the index id, so registering an index never perturbs
    /// the primary index's random trajectory, and sharded runtimes of the
    /// same deployment reproduce an identical assignment in every process.
    ///
    /// # Panics
    ///
    /// Panics when `id` is the (implicit) primary index or already
    /// registered.
    pub fn register_index(&mut self, id: IndexId, distribution: &Distribution) {
        assert!(
            !id.is_primary(),
            "the primary index is implicit and cannot be registered"
        );
        assert!(!self.has_index_state(id), "{id} is already registered");
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0x1DE0 ^ ((id.0 as u64) << 20));
        let n = self.config.n_peers;
        let mut states = Vec::with_capacity(n);
        let mut original_entries = Vec::with_capacity(n * self.config.keys_per_peer);
        for i in 0..n {
            let mut state = PeerState::new(PeerId(i as u64), self.config.routing_fanout);
            for j in 0..self.config.keys_per_peer {
                let entry = DataEntry::new(
                    distribution.sample(&mut rng),
                    DataId((i * self.config.keys_per_peer + j) as u64),
                );
                state.store.insert(entry);
                original_entries.push(entry);
            }
            states.push(state);
        }
        self.secondary.push(SecondaryIndex {
            id,
            states,
            original_entries,
            constructing: vec![false; n],
            tick_armed: vec![false; n],
            fruitless: vec![0; n],
        });
    }

    /// Whether `index` is hosted by this runtime (the primary index always
    /// is).
    pub fn has_index_state(&self, index: IndexId) -> bool {
        index.is_primary() || self.secondary.iter().any(|s| s.id == index)
    }

    /// All hosted index ids, primary first.
    pub fn index_ids(&self) -> Vec<IndexId> {
        let mut ids = vec![IndexId::PRIMARY];
        ids.extend(self.secondary.iter().map(|s| s.id));
        ids
    }

    /// The ground-truth data assignment of an index.
    pub fn original_entries_of(&self, index: IndexId) -> &[DataEntry] {
        if index.is_primary() {
            &self.original_entries
        } else {
            let slot = self
                .secondary
                .iter()
                .find(|s| s.id == index)
                .expect("unregistered index");
            &slot.original_entries
        }
    }

    /// The overlay state of `peer` on `index`.
    pub fn peer_state(&self, index: IndexId, peer: usize) -> &PeerState {
        index_state(&self.nodes, &self.secondary, index, peer)
    }

    /// Assigns fresh `keys` to `peer` on `index`: the entries extend the
    /// index's ground truth (continuing its `DataId` numbering) and, when
    /// the peer is hosted here, its local store.  Construction anti-entropy
    /// spreads them to replicas from there (the re-indexing / distribution
    /// shift workload).
    pub fn insert_entries(&mut self, index: IndexId, peer: usize, keys: Vec<Key>) {
        let hosted = self.hosted(peer);
        for key in keys {
            let entry = {
                let originals = if index.is_primary() {
                    &mut self.original_entries
                } else {
                    let slot = self
                        .secondary
                        .iter_mut()
                        .find(|s| s.id == index)
                        .expect("unregistered index");
                    &mut slot.original_entries
                };
                let entry = DataEntry::new(key, DataId(originals.len() as u64));
                originals.push(entry);
                entry
            };
            if hosted {
                index_state_mut(&mut self.nodes, &mut self.secondary, index, peer)
                    .store
                    .insert(entry);
            }
        }
    }

    /// Whether construction has settled: every hosted, online peer whose
    /// tick chain is still live (on any index) has reached the back-off
    /// regime — repeated fruitless exchanges and no local evidence that
    /// its partition still needs splitting.  Dead tick chains (a tick
    /// fired while the peer was offline) do not block quiescence: they do
    /// nothing until re-armed.  `true` when no peer is constructing at
    /// all.
    pub fn construction_quiescent(&self) -> bool {
        for index in self.index_ids() {
            for peer in self.hosted_peers() {
                if !self.nodes[peer].joined || !self.nodes[peer].state.online {
                    continue;
                }
                if !index_constructing(&self.nodes, &self.secondary, index, peer)
                    || !index_tick_armed(&self.nodes, &self.secondary, index, peer)
                {
                    continue;
                }
                let fruitless = index_fruitless(&self.nodes, &self.secondary, index, peer);
                let state = index_state(&self.nodes, &self.secondary, index, peer);
                if fruitless < 4 || self.engine.locally_overloaded(state) {
                    return false;
                }
            }
        }
        true
    }

    /// Current virtual time in milliseconds.
    pub fn now(&self) -> Millis {
        self.now
    }

    /// Number of peers currently online.
    pub fn online_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.joined && n.state.online)
            .count()
    }

    /// The transport address of a peer.
    pub fn peer_addr(&self, peer: usize) -> PeerAddr {
        self.addrs[peer]
    }

    /// The contiguous range of peer ids hosted by this runtime.
    pub fn shard(&self) -> std::ops::Range<usize> {
        self.shard.clone()
    }

    /// Whether `peer`'s protocol state lives in this runtime (as opposed to
    /// a remote process reachable through the transport): part of the
    /// contiguous shard, or adopted from a failed worker.
    pub fn hosted(&self, peer: usize) -> bool {
        self.shard.contains(&peer) || self.adopted.contains(&peer)
    }

    /// Every peer hosted by this runtime: the contiguous shard plus any
    /// adopted peers (ascending within each group; adopted peers always
    /// come from other shards, so there are no duplicates).
    fn hosted_peers(&self) -> impl Iterator<Item = usize> + '_ {
        self.shard.clone().chain(self.adopted.iter().copied())
    }

    /// Number of hosted peers currently online.
    pub fn hosted_online_count(&self) -> usize {
        self.hosted_peers()
            .filter(|&i| self.nodes[i].joined && self.nodes[i].state.online)
            .count()
    }

    /// Drains whatever the transport has produced *right now*, handles the
    /// frames and flushes any responses, without advancing the virtual
    /// clock.  Returns the number of frames handled.
    ///
    /// Real-time backends only need this outside [`Runtime::run_until`]: a
    /// cluster worker parked at a phase barrier keeps calling it so
    /// cross-shard exchanges initiated by slower processes are still
    /// answered while the local timeline waits.
    pub fn service_network(&mut self) -> usize {
        let frames = self.transport.poll(self.now);
        let handled = frames.len();
        for (to, frame_bytes) in frames {
            self.deliver_frame(to, frame_bytes);
        }
        self.flush_pending();
        handled
    }

    /// Frame-level counters of the underlying transport.
    pub fn transport_stats(&self) -> TransportStats {
        self.transport.stats()
    }

    /// The transport backend, mutable — cluster shard reassignment uses
    /// this to take over a dead worker's endpoints
    /// ([`pgrid_transport::tcp::TcpTransport::register_takeover`]) and
    /// re-point moved ones.
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }

    /// Injects a link-level fault into the transport (per-link jitter, a
    /// healing partition window); returns whether the backend emulates it.
    pub fn inject_link_fault(&mut self, fault: LinkFault) -> bool {
        self.transport.inject_fault(fault)
    }

    /// Replaces the cached address of `peer` after its endpoint moved
    /// during recovery, and clears any Suspect/Dead link state towards it.
    pub fn set_peer_addr(&mut self, peer: usize, addr: PeerAddr) {
        self.addrs[peer] = addr;
        self.revive_link(peer);
    }

    /// Clears the link life-cycle state towards `peer` (its endpoint came
    /// back or moved to a live process).
    pub fn revive_link(&mut self, peer: usize) {
        self.link_health.remove(&peer);
    }

    // ----- shard reassignment & replica-driven recovery ---------------------

    /// Adopts a peer from a failed worker's shard: this runtime becomes the
    /// host of its protocol state.  The peer starts offline — its state is
    /// a stub until [`Runtime::begin_replica_pull`] rebuilds it from a live
    /// replica (or [`Runtime::recover_locally`] falls back to the
    /// regenerated data assignment) — so queries do not route into a
    /// hollow shell meanwhile.
    pub fn adopt_peer(&mut self, peer: usize) {
        if self.shard.contains(&peer) || !self.adopted.insert(peer) {
            return;
        }
        self.metrics.peers_adopted += 1;
        self.link_health.remove(&peer);
        self.nodes[peer].state.online = false;
        self.nodes[peer].tick_armed = false;
        self.rebuild_online_cache();
        self.recorder
            .note(self.now, "recovery", format!("adopted peer {peer}"));
    }

    /// Peers adopted from failed workers, ascending.
    pub fn adopted_peers(&self) -> Vec<usize> {
        self.adopted.iter().copied().collect()
    }

    /// Asks the live peer `source` for a replica snapshot on behalf of the
    /// adopted peer `peer`.  The answer (a [`Message::ReplicaPush`])
    /// rebuilds the peer's exact `KeyStore`, path and routing table and
    /// brings it back online.
    pub fn begin_replica_pull(&mut self, peer: usize, source: usize) {
        debug_assert!(self.hosted(peer), "only hosted peers recover here");
        self.recovering.insert(peer);
        self.current_actor = peer;
        self.tracer.record(
            AMBIENT_TRACE,
            "recovery_pull",
            peer as u64,
            self.now,
            || format!("source={source}"),
        );
        self.send(
            source,
            Message::ReplicaPull {
                origin: PeerId(peer as u64),
            },
        );
        self.flush_pending();
    }

    /// Number of adopted peers whose replica snapshot has not arrived yet.
    pub fn pending_recoveries(&self) -> usize {
        self.recovering.len()
    }

    /// Restores a hosted peer from a durability-log image (the warm
    /// restart path): exact path, entries, routing references and replica
    /// set, brought online immediately — no replica pull.  With
    /// `constructing` the peer's maintenance tick chain is re-armed, as
    /// [`Runtime::start_construction_on`] would.
    #[allow(clippy::too_many_arguments)]
    pub fn restore_peer(
        &mut self,
        index: IndexId,
        peer: usize,
        path: Path,
        entries: Vec<DataEntry>,
        routing: Vec<(u8, PeerId, Path)>,
        replicas: Vec<PeerId>,
        constructing: bool,
    ) {
        debug_assert!(self.hosted(peer), "only hosted peers are restored here");
        let fanout = self.config.routing_fanout;
        let mut table = pgrid_core::routing::RoutingTable::new(fanout);
        for (level, rpeer, rpath) in routing {
            table.add(
                level as usize,
                RoutingEntry {
                    peer: rpeer,
                    path: rpath,
                },
                &mut self.rng,
            );
        }
        let path_len = path.len();
        let state = index_state_mut(&mut self.nodes, &mut self.secondary, index, peer);
        state.path = path;
        state.store = KeyStore::from_entries(entries);
        state.routing = table;
        state.replicas = replicas;
        state.replicas.retain(|p| p.0 as usize != peer);
        if index.is_primary() {
            self.nodes[peer].joined = true;
            self.nodes[peer].state.online = true;
            self.rebuild_online_cache();
        }
        self.invalidate_route_cache(peer, index);
        self.metrics.peers_recovered_warm += 1;
        if constructing && !self.nodes[peer].tick_armed {
            self.nodes[peer].tick_armed = true;
            self.nodes[peer].constructing = true;
            let jitter = self
                .rng
                .gen_range(0..self.config.construct_interval_ms.max(1));
            self.schedule(
                self.now + jitter,
                EventKind::ConstructTick {
                    index: IndexId::PRIMARY,
                    peer,
                },
            );
        }
        self.recorder.note(
            self.now,
            "recovery",
            format!("peer {peer} restored from durability log (path len {path_len})"),
        );
    }

    /// Asks the live peer `source` for a replica snapshot to *reconcile*
    /// the warm-restored peer `peer` with (anti-entropy): the answer is
    /// merged into the replayed state instead of replacing it, closing
    /// whatever gap the log's last sync left.  The peer keeps serving
    /// meanwhile — this is strictly background traffic.
    pub fn begin_replica_diff(&mut self, peer: usize, source: usize) {
        debug_assert!(self.hosted(peer), "only hosted peers reconcile here");
        self.reconciling.insert(peer);
        self.current_actor = peer;
        self.tracer.record(
            AMBIENT_TRACE,
            "recovery_diff",
            peer as u64,
            self.now,
            || format!("source={source}"),
        );
        self.send(
            source,
            Message::ReplicaPull {
                origin: PeerId(peer as u64),
            },
        );
        self.flush_pending();
    }

    /// Number of warm-restored peers whose reconciliation answer has not
    /// arrived yet.
    pub fn pending_reconciliations(&self) -> usize {
        self.reconciling.len()
    }

    /// Peers whose reconciliation is still outstanding, ascending.
    pub fn reconciling_peers(&self) -> Vec<usize> {
        self.reconciling.iter().copied().collect()
    }

    /// Copy-on-write snapshots of the hosted peers' primary stores, as
    /// `(peer, store)` pairs ascending by peer.  Each handle shares
    /// storage with the live peer (`Arc`-backed) until either side
    /// mutates, so this is O(1) per peer, not O(entries).
    pub fn capture_primary_stores(&self) -> Vec<(usize, KeyStore)> {
        let mut out: Vec<(usize, KeyStore)> = self
            .shard
            .clone()
            .map(|p| (p, self.nodes[p].state.store.clone()))
            .collect();
        out.extend(
            self.adopted
                .iter()
                .map(|&p| (p, self.nodes[p].state.store.clone())),
        );
        out.sort_unstable_by_key(|&(p, _)| p);
        out.dedup_by_key(|&mut (p, _)| p);
        out
    }

    /// Number of adopted peers rebuilt from a live replica so far.
    pub fn replica_recovered_count(&self) -> usize {
        self.metrics.peers_recovered_replica
    }

    /// Peers whose replica pull is still outstanding, ascending.
    pub fn recovering_peers(&self) -> Vec<usize> {
        self.recovering.iter().copied().collect()
    }

    /// A live hosted peer that lists `peer` as a replica, if any — the
    /// cheapest replica source for a pull, since the snapshot never leaves
    /// the process.
    pub fn find_replica_source(&self, peer: usize) -> Option<usize> {
        let target = PeerId(peer as u64);
        self.hosted_peers()
            .filter(|&p| p != peer && self.nodes[p].joined && self.nodes[p].state.online)
            .find(|&p| self.nodes[p].state.replicas.contains(&target))
    }

    /// Fallback recovery without a live replica: the peer keeps its
    /// regenerated original entries (every process derives the full data
    /// assignment from the seed) and adopts `path` — its last path known
    /// to the coordinator — then rejoins.  Used when no replica answers
    /// the pull within the healing window, so recovery always terminates.
    pub fn recover_locally(&mut self, peer: usize, path: Path) {
        self.recovering.remove(&peer);
        self.metrics.peers_recovered_local += 1;
        self.nodes[peer].state.path = path;
        self.recorder.note(
            self.now,
            "recovery",
            format!(
                "peer {peer} recovered locally (path len {})",
                self.nodes[peer].state.path.len()
            ),
        );
        self.finish_recovery(peer);
    }

    fn schedule(&mut self, time: Millis, kind: EventKind) {
        self.seq += 1;
        self.queue.push(Reverse(Event {
            time,
            seq: self.seq,
            kind,
        }));
    }

    /// [`Runtime::send`] qualified by an index: primary-index messages go
    /// out unchanged (the single-index wire format), secondary-index ones
    /// are enveloped in [`Message::ForIndex`].
    fn send_on(&mut self, index: IndexId, to: usize, message: Message) {
        if index.is_primary() {
            self.send(to, message);
        } else {
            self.send(
                to,
                Message::ForIndex {
                    index: index.0,
                    inner: Box::new(message),
                },
            );
        }
    }

    /// Queues a message for the next frame to `to`: accounts its bandwidth
    /// and batches it until the current event finishes.
    ///
    /// Query traffic sent while handling a traced lookup is wrapped in a
    /// [`Message::Traced`] envelope carrying the trace ID to the next
    /// peer (and, through the transport, to the next worker process).
    /// With tracing disabled `current_trace` is always [`NO_TRACE`], so
    /// no envelope — and no extra wire byte — ever exists.
    fn send(&mut self, to: usize, message: Message) {
        let message = if self.current_trace != NO_TRACE && message.is_query_traffic() {
            Message::Traced {
                trace_id: self.current_trace,
                inner: Box::new(message),
            }
        } else {
            message
        };
        self.metrics.account(self.now, &message);
        self.pending.entry(to).or_default().push(message);
        self.pending_from.entry(to).or_insert(self.current_actor);
    }

    /// Flushes every per-destination batch as one frame each.
    fn flush_pending(&mut self) {
        for (to, messages) in std::mem::take(&mut self.pending) {
            let from = self.pending_from.remove(&to).unwrap_or(to);
            self.flush_frame(from, to, messages);
        }
        self.pending_from.clear();
    }

    /// Encodes `messages` into frames for `to` and hands them to the
    /// transport.  A batch normally fits one frame; batches that would
    /// exceed the framing bounds (which the receiver rejects as corrupt)
    /// are split across several frames.
    fn flush_frame(&mut self, from: usize, to: usize, messages: Vec<Message>) {
        let mut chunk: Vec<Bytes> = Vec::with_capacity(messages.len());
        let mut chunk_bytes = 0usize;
        for message in &messages {
            let payload = message.encode();
            if !chunk.is_empty()
                && (chunk.len() >= frame::MAX_BATCH_LEN
                    || chunk_bytes + payload.len() + 4 > MAX_FRAME_PAYLOAD_BYTES)
            {
                let full = std::mem::take(&mut chunk);
                chunk_bytes = 0;
                self.ship_frame(from, to, full);
            }
            chunk_bytes += payload.len() + 4;
            chunk.push(payload);
        }
        if !chunk.is_empty() {
            self.ship_frame(from, to, chunk);
        }
    }

    /// Puts one frame on the wire, applying the emulated frame loss and the
    /// link life-cycle: frames to a Suspect link in its backoff window or
    /// to a Dead link are dropped as loss instead of hitting the transport,
    /// so a dead worker's endpoints cannot stall the clock on every send.
    fn ship_frame(&mut self, from: usize, to: usize, payloads: Vec<Bytes>) {
        if self
            .rng
            .gen_bool(self.config.loss_probability.clamp(0.0, 1.0))
        {
            self.metrics.messages_lost += payloads.len();
            return;
        }
        match self.link_health.get(&to) {
            Some(LinkHealth::Dead) => {
                self.metrics.messages_lost += payloads.len();
                return;
            }
            Some(LinkHealth::Suspect { retry_at, .. }) if self.now < *retry_at => {
                self.metrics.messages_lost += payloads.len();
                return;
            }
            _ => {}
        }
        if payloads.len() > 1 {
            self.metrics.multi_message_frames += 1;
        }
        // Frame-level tracing is sampled (1 in 64) so an enabled tracer's
        // buffer is not drowned in construction-phase frames.
        if self.tracer.is_enabled() {
            self.frames_traced += 1;
            if self.frames_traced % 64 == 1 {
                let n = payloads.len();
                self.tracer
                    .record(AMBIENT_TRACE, "frame_sent", to as u64, self.now, || {
                        format!("messages={n} sample=1/64")
                    });
            }
        }
        let frame = frame::encode_frame(&payloads);
        if self
            .transport
            .send_from(self.now, PeerId(from as u64), PeerId(to as u64), frame)
            .is_err()
        {
            // A broken connection behaves like loss on the wire — and
            // escalates the link's life-cycle state.
            self.metrics.messages_lost += payloads.len();
            self.record_link_failure(to);
        } else if self.link_health.contains_key(&to) {
            // A successful retry heals the link.
            self.link_health.remove(&to);
        }
    }

    /// Escalates the link to `to` after a transport send failure:
    /// Connected → Suspect (with exponential backoff per consecutive
    /// failure) → Dead after [`LINK_DEAD_AFTER`] failures.
    fn record_link_failure(&mut self, to: usize) {
        let failures = match self.link_health.get(&to) {
            Some(LinkHealth::Suspect { failures, .. }) => failures + 1,
            Some(LinkHealth::Dead) => return,
            _ => 1,
        };
        if failures >= LINK_DEAD_AFTER {
            self.metrics.links_dead += 1;
            self.link_health.insert(to, LinkHealth::Dead);
            self.recorder.note(
                self.now,
                "link_dead",
                format!("link to peer {to} declared dead after {failures} send failures"),
            );
        } else {
            if failures == 1 {
                self.metrics.links_suspected += 1;
            }
            let backoff = (LINK_SUSPECT_BACKOFF_MS << (failures - 1)).min(LINK_BACKOFF_CAP_MS);
            self.link_health.insert(
                to,
                LinkHealth::Suspect {
                    retry_at: self.now + backoff,
                    failures,
                },
            );
        }
    }

    /// The link life-cycle state towards `to` (Connected when no failure
    /// was ever recorded).
    pub fn link_health(&self, to: usize) -> LinkHealth {
        self.link_health
            .get(&to)
            .copied()
            .unwrap_or(LinkHealth::Connected)
    }

    /// Whether the link to `peer` is usable as a forwarding target (hosted
    /// peers always are; remote ones unless their link is Dead).
    fn link_ok(&self, peer: usize) -> bool {
        !matches!(self.link_health.get(&peer), Some(LinkHealth::Dead))
    }

    /// Decodes an arrived frame and handles its messages.
    fn deliver_frame(&mut self, to: PeerId, frame_bytes: Bytes) {
        let to = to.0 as usize;
        // A frame for a peer this runtime does not host can only come from
        // a mis-wired address book — or from a sender that has not yet
        // learnt about a shard reassignment; never apply it to a stub.
        if !self.hosted(to) {
            self.metrics.decode_failures += 1;
            return;
        }
        let Ok(payloads) = frame::decode_frame(&frame_bytes) else {
            self.metrics.decode_failures += 1;
            self.recorder.note(
                self.now,
                "decode_failure",
                format!(
                    "undecodable frame of {} bytes for peer {to}",
                    frame_bytes.len()
                ),
            );
            return;
        };
        if self.tracer.is_enabled() && self.frames_traced % 64 == 1 {
            let n = payloads.len();
            self.tracer
                .record(AMBIENT_TRACE, "frame_received", to as u64, self.now, || {
                    format!("messages={n} sample=1/64")
                });
        }
        for payload in payloads {
            let Some(message) = Message::decode(payload) else {
                self.metrics.decode_failures += 1;
                continue;
            };
            // A replica snapshot is what brings a recovering peer back
            // online, so it must reach the peer while it is still offline.
            if !self.nodes[to].state.online && !matches!(message, Message::ReplicaPush { .. }) {
                self.metrics.messages_to_offline += 1;
                continue;
            }
            self.metrics.messages_delivered += 1;
            self.current_actor = to;
            self.handle_message(to, message);
        }
    }

    // ----- experiment-facing control actions --------------------------------

    /// Brings a peer online and connects it to `fanout` random already-online
    /// peers (its unstructured-overlay neighbours), as the bootstrap phase of
    /// Section 5.1 does.
    pub fn join_peer(&mut self, peer: usize, fanout: usize) {
        let online: Vec<PeerId> = self
            .nodes
            .iter()
            .filter(|n| n.joined && n.state.online)
            .map(|n| n.state.id)
            .collect();
        let node = &mut self.nodes[peer];
        node.joined = true;
        node.state.online = true;
        let mut neighbours = online;
        neighbours.shuffle(&mut self.rng);
        neighbours.truncate(fanout);
        // Simulate the join handshake traffic.
        if let Some(first) = neighbours.first() {
            let join = Message::Join {
                peer: PeerId(peer as u64),
            };
            self.metrics.account(self.now, &join);
            let ack = Message::JoinAck {
                neighbours: neighbours.clone(),
            };
            self.metrics.account(self.now, &ack);
            let _ = first;
        }
        self.nodes[peer].neighbours = neighbours;
        // Symmetric neighbour links keep the unstructured overlay connected.
        for n in self.nodes[peer].neighbours.clone() {
            let other = n.0 as usize;
            if !self.nodes[other].neighbours.contains(&PeerId(peer as u64)) {
                self.nodes[other].neighbours.push(PeerId(peer as u64));
            }
        }
        self.rebuild_online_cache();
    }

    /// Brings a peer online with a pre-computed neighbour list instead of a
    /// locally drawn one.
    ///
    /// This is [`Runtime::join_peer`] minus the random selection: the
    /// cluster's join plan fixes every peer's bootstrap contacts up front
    /// (deterministically from the seed) so that all worker processes agree
    /// on the unstructured overlay — including the adjacency of peers they
    /// do not host, which the random-walk contact sampling and query
    /// routing read.  Join handshake bandwidth is only accounted by the
    /// process hosting the joiner.
    pub fn join_peer_with_neighbours(&mut self, peer: usize, neighbours: Vec<PeerId>) {
        let node = &mut self.nodes[peer];
        node.joined = true;
        node.state.online = true;
        if self.hosted(peer) && !neighbours.is_empty() {
            let join = Message::Join {
                peer: PeerId(peer as u64),
            };
            self.metrics.account(self.now, &join);
            let ack = Message::JoinAck {
                neighbours: neighbours.clone(),
            };
            self.metrics.account(self.now, &ack);
        }
        self.nodes[peer].neighbours = neighbours;
        // The same symmetric backlinks as `join_peer`: applied identically
        // in every process, they keep the replicated adjacency consistent.
        for n in self.nodes[peer].neighbours.clone() {
            let other = n.0 as usize;
            if !self.nodes[other].neighbours.contains(&PeerId(peer as u64)) {
                self.nodes[other].neighbours.push(PeerId(peer as u64));
            }
        }
        self.rebuild_online_cache();
    }

    /// Replicates every online peer's original entries to `n_min` random
    /// neighbours-of-neighbours (the replication phase of the primary
    /// index).
    pub fn replication_phase(&mut self) {
        self.replication_phase_on(IndexId::PRIMARY);
    }

    /// The replication phase of one index.
    pub fn replication_phase_on(&mut self, index: IndexId) {
        self.recorder.note(
            self.now,
            "phase",
            format!("replication phase started on index {}", index.0),
        );
        let n_min = self.config.n_min;
        let hosted: Vec<usize> = self.hosted_peers().collect();
        for peer in hosted {
            if !self.nodes[peer].state.online {
                continue;
            }
            self.current_actor = peer;
            let entries: Vec<DataEntry> = index_state(&self.nodes, &self.secondary, index, peer)
                .store
                .iter()
                .copied()
                .collect();
            for _ in 0..n_min {
                if let Some(target) = self.random_contact(peer) {
                    self.send_on(
                        index,
                        target,
                        Message::Replicate {
                            entries: entries.clone(),
                        },
                    );
                }
            }
            // Flush per source peer: each peer's replica pushes form one
            // frame per destination, so a loss draw drops one source's
            // copies, not a destination's entire replication phase.
            self.flush_pending();
        }
    }

    /// Starts periodic construction ticks on every hosted online peer (the
    /// primary index).
    pub fn start_construction(&mut self) {
        self.start_construction_on(IndexId::PRIMARY);
    }

    /// Starts periodic construction ticks of one index on every hosted
    /// online peer.  Peers whose tick chain is still scheduled are left
    /// alone (re-arming would double their tick rate); peers whose chain
    /// died — a tick fired while they were offline during churn — are
    /// re-armed, so a scenario can re-engage construction after a churn
    /// window (or after [`Runtime::insert_entries`] shifted the data).
    pub fn start_construction_on(&mut self, index: IndexId) {
        self.recorder.note(
            self.now,
            "phase",
            format!("construction started on index {}", index.0),
        );
        let hosted: Vec<usize> = self.hosted_peers().collect();
        for peer in hosted {
            if self.nodes[peer].state.online {
                let armed = index_tick_armed_mut(&mut self.nodes, &mut self.secondary, index, peer);
                if *armed {
                    continue;
                }
                *armed = true;
                *index_constructing_mut(&mut self.nodes, &mut self.secondary, index, peer) = true;
                let jitter = self
                    .rng
                    .gen_range(0..self.config.construct_interval_ms.max(1));
                self.schedule(self.now + jitter, EventKind::ConstructTick { index, peer });
            }
        }
    }

    /// Issues a lookup for `key` from a random hosted online peer (the
    /// primary index); the result is folded into
    /// [`NetMetrics::query_stats`].
    pub fn issue_query(&mut self, key: Key) {
        self.issue_query_on(IndexId::PRIMARY, key);
    }

    /// Issues a lookup for `key` against `index` from a random hosted
    /// online peer.
    pub fn issue_query_on(&mut self, index: IndexId, key: Key) {
        if self.online_hosted.is_empty() {
            return;
        }
        self.issue_one_query(index, key);
        self.flush_pending();
    }

    /// Issues a whole batch of lookups against `index`, flushing outgoing
    /// frames once for the entire batch instead of once per query.  This is
    /// the high-throughput issue path of the query bench: first-hop
    /// forwards to the same destination share frames, and the per-query
    /// flush disappears from the hot path.
    pub fn issue_query_batch_on(&mut self, index: IndexId, keys: &[Key]) {
        if self.online_hosted.is_empty() {
            return;
        }
        for &key in keys {
            self.issue_one_query(index, key);
        }
        self.flush_pending();
    }

    /// Shared issue path: draws the origin, registers the outstanding
    /// query and its lazy timeout, and lets the origin handle the query
    /// locally first (it might be responsible itself).  Does not flush.
    fn issue_one_query(&mut self, index: IndexId, key: Key) {
        let origin = self.online_hosted[self.rng.gen_range(0..self.online_hosted.len())];
        let id = self.next_query_id;
        self.next_query_id += 1;
        self.metrics.stats_mut(index).issued += 1;
        let trace_id = self.tracer.new_trace();
        self.tracer
            .record(trace_id, "query_issued", origin as u64, self.now, || {
                format!("id={id} index={} key={}", index.0, key.0)
            });
        self.outstanding_queries.insert(
            id,
            PendingQuery {
                index,
                issued_at: self.now,
                trace_id,
            },
        );
        self.timeout_queue
            .push_back((self.now + self.config.query_timeout_ms, id));
        let message = Message::Query {
            origin: PeerId(origin as u64),
            id,
            key,
            hops: 0,
        };
        // Handle locally under the lookup's trace context, so everything
        // the origin sends on (a forward or its own response) carries it.
        let previous = self.current_trace;
        self.current_trace = trace_id;
        self.current_actor = origin;
        self.handle_message_on(origin, index, message);
        self.current_trace = previous;
    }

    /// Issues a range query for `[lo, hi]` (inclusive) from a random hosted
    /// online peer on the primary index; returns the query id, or `None`
    /// when no hosted peer is online.
    pub fn issue_range_query(&mut self, lo: Key, hi: Key) -> Option<u64> {
        self.issue_range_query_on(IndexId::PRIMARY, lo, hi)
    }

    /// Issues a range query for `[lo, hi]` (inclusive) against `index`.
    ///
    /// The walk is the message-based counterpart of
    /// [`pgrid_core::search::range_query`]: it routes to the partition
    /// holding `lo`, collects that peer's slice, and follows the trie
    /// rightwards partition by partition; each responsible peer answers
    /// its slice straight to the origin.  Completion (the slices covering
    /// the whole range) and the collected entries are recorded in
    /// [`NetMetrics::query_stats`] / [`NetMetrics::range_samples`].  An
    /// empty range (`lo > hi`) completes immediately with no entries.  A
    /// walk expires incomplete only after [`NetConfig::query_timeout_ms`]
    /// *without progress* — every partial response extends the deadline,
    /// so wide ranges spanning many partitions are not penalised.
    pub fn issue_range_query_on(&mut self, index: IndexId, lo: Key, hi: Key) -> Option<u64> {
        if self.online_hosted.is_empty() {
            return None;
        }
        let origin = self.online_hosted[self.rng.gen_range(0..self.online_hosted.len())];
        let id = self.next_query_id;
        self.next_query_id += 1;
        let agg = self.metrics.stats_mut(index);
        agg.ranges_issued += 1;
        if lo > hi {
            agg.ranges_complete += 1;
            agg.range_latency.record(0);
            self.metrics.push_range_sample(RangeSample {
                index,
                id,
                lo,
                hi,
                issued_at: self.now,
                latency_ms: Some(0),
                complete: true,
                hops: 0,
                entries: Vec::new(),
            });
            return Some(id);
        }
        let deadline = self.now + self.config.query_timeout_ms;
        let trace_id = self.tracer.new_trace();
        self.tracer
            .record(trace_id, "range_issued", origin as u64, self.now, || {
                format!("id={id} index={} lo={} hi={}", index.0, lo.0, hi.0)
            });
        self.outstanding_ranges.insert(
            id,
            RangeState {
                index,
                issued_at: self.now,
                lo,
                hi,
                coverage: Coverage::default(),
                entries: Vec::new(),
                hops: 0,
                deadline,
                retries: 0,
                trace_id,
            },
        );
        self.range_timeout_queue.push_back((deadline, id));
        let previous = self.current_trace;
        self.current_trace = trace_id;
        self.current_actor = origin;
        self.handle_range_message(index, origin, PeerId(origin as u64), id, lo, hi, lo, 0);
        self.current_trace = previous;
        self.flush_pending();
        Some(id)
    }

    /// Takes a peer offline at `at` and brings it back `downtime` later
    /// (the churn pattern of the final experiment phase).
    pub fn schedule_churn(&mut self, peer: usize, at: Millis, downtime: Millis) {
        self.schedule(at, EventKind::GoOffline { peer });
        self.schedule(at + downtime, EventKind::GoOnline { peer });
    }

    /// Advances virtual time to `until`, processing timer events and frame
    /// deliveries in order.
    ///
    /// With a virtual-time transport (loopback) frame arrivals are merged
    /// deterministically with the timer queue.  With a real-time transport
    /// (TCP) arrived frames are always drained first, and while frames are
    /// still in flight the virtual clock briefly waits for the wire instead
    /// of racing ahead (bounded by [`MAX_REALTIME_STALLS`]).
    pub fn run_until(&mut self, until: Millis) {
        self.flush_pending();
        let mut stalls = 0u32;
        loop {
            if self.transport.is_realtime() {
                // Expire overdue queries *before* draining the wire: a
                // response that arrives after its deadline must count as a
                // late response, never as a success (the timeout verdict
                // is final — see `expire_timeouts`).
                self.expire_timeouts(self.now, false);
                let frames = self.transport.poll(self.now);
                if !frames.is_empty() {
                    stalls = 0;
                    for (to, frame_bytes) in frames {
                        self.deliver_frame(to, frame_bytes);
                    }
                    self.flush_pending();
                    continue;
                }
                if self.transport.in_flight() > 0 && stalls < MAX_REALTIME_STALLS {
                    stalls += 1;
                    std::thread::sleep(std::time::Duration::from_micros(200));
                    continue;
                }
            }
            let frame_due = self.transport.next_due().filter(|&t| t <= until);
            let timer_due = self
                .queue
                .peek()
                .map(|Reverse(e)| e.time)
                .filter(|&t| t <= until);
            match (frame_due, timer_due) {
                (Some(f), t) if t.map_or(true, |t| f <= t) => {
                    self.now = self.now.max(f);
                    // Deadlines strictly before this instant have expired;
                    // a response arriving at exactly its deadline still
                    // counts (frames win ties, as with the old per-query
                    // timeout events).
                    self.expire_timeouts(self.now, false);
                    for (to, frame_bytes) in self.transport.poll(self.now) {
                        self.deliver_frame(to, frame_bytes);
                    }
                    self.flush_pending();
                }
                (_, Some(_)) => {
                    let Reverse(event) = self.queue.pop().expect("peeked above");
                    self.now = event.time.max(self.now);
                    self.expire_timeouts(self.now, false);
                    self.dispatch(event.kind);
                    self.flush_pending();
                }
                (_, None) => break,
            }
        }
        self.now = self.now.max(until);
        // End-of-window sweep: deadlines at or before `until` have fired
        // (as the per-query heap events would have by now).
        self.expire_timeouts(self.now, true);
    }

    // ----- event dispatch ----------------------------------------------------

    fn dispatch(&mut self, kind: EventKind) {
        match kind {
            EventKind::ConstructTick { index, peer } => self.construct_tick(index, peer),
            EventKind::GoOffline { peer } => {
                self.nodes[peer].state.online = false;
                self.recorder
                    .note(self.now, "churn", format!("peer {peer} went offline"));
                self.rebuild_online_cache();
            }
            EventKind::GoOnline { peer } => {
                if self.nodes[peer].joined {
                    self.nodes[peer].state.online = true;
                }
                self.recorder
                    .note(self.now, "churn", format!("peer {peer} came back online"));
                self.rebuild_online_cache();
            }
        }
    }

    /// Recomputes the cached list of hosted online peers (ascending, the
    /// exact filter the per-query scan used to apply).  Adopted peers sort
    /// into place; without adoptions the shard range is already ascending
    /// and the sort is a no-op, so the origin draws are unchanged.
    fn rebuild_online_cache(&mut self) {
        self.online_hosted = self
            .hosted_peers()
            .filter(|&i| self.nodes[i].joined && self.nodes[i].state.online)
            .collect();
        self.online_hosted.sort_unstable();
    }

    /// Expires every queued deadline up to `cutoff` (strictly below it
    /// unless `inclusive`): outstanding lookups count as timed out,
    /// outstanding range queries resolve incomplete.  Deadlines of queries
    /// that were answered in time are simply discarded.  The queue is in
    /// issue order and the timeout is constant, so this is a front sweep.
    fn expire_timeouts(&mut self, cutoff: Millis, inclusive: bool) {
        while let Some(&(deadline, id)) = self.timeout_queue.front() {
            let due = if inclusive {
                deadline <= cutoff
            } else {
                deadline < cutoff
            };
            if !due {
                break;
            }
            self.timeout_queue.pop_front();
            if let Some(pending) = self.outstanding_queries.remove(&id) {
                self.metrics.stats_mut(pending.index).timed_out += 1;
                self.tracer.record(
                    pending.trace_id,
                    "query_timeout",
                    u64::MAX,
                    self.now,
                    || format!("id={id} issued_at={}", pending.issued_at),
                );
                self.recorder.note(
                    self.now,
                    "query_timeout",
                    format!(
                        "query {id} on index {} issued at {} expired unanswered",
                        pending.index.0, pending.issued_at
                    ),
                );
                self.dump_flight("query timeout");
                self.metrics.push_query_sample(QueryRecord {
                    index: pending.index,
                    issued_at: pending.issued_at,
                    latency_ms: None,
                    hops: 0,
                    success: false,
                });
            }
        }
        while let Some(&(deadline, id)) = self.range_timeout_queue.front() {
            let due = if inclusive {
                deadline <= cutoff
            } else {
                deadline < cutoff
            };
            if !due {
                break;
            }
            self.range_timeout_queue.pop_front();
            // A later entry supersedes this one: the walk made progress
            // and its deadline was extended.
            if self
                .outstanding_ranges
                .get(&id)
                .is_some_and(|state| state.deadline > deadline)
            {
                continue;
            }
            // A stalled walk (typically killed by frame loss) is restarted
            // from the first uncovered key before the origin gives up.
            let restart = self
                .outstanding_ranges
                .get(&id)
                .filter(|state| state.retries < MAX_RANGE_RETRIES)
                .map(|state| {
                    let cursor = state
                        .coverage
                        .first_uncovered(state.lo, state.hi)
                        .expect("an uncovering walk always has a gap");
                    (
                        state.index,
                        state.lo,
                        state.hi,
                        cursor,
                        state.hops,
                        state.trace_id,
                    )
                });
            if let Some((index, lo, hi, cursor, hops, trace_id)) = restart {
                if !self.online_hosted.is_empty() {
                    let peer = self.online_hosted[self.rng.gen_range(0..self.online_hosted.len())];
                    let state = self.outstanding_ranges.get_mut(&id).expect("checked above");
                    state.retries += 1;
                    state.deadline = self.now + self.config.query_timeout_ms;
                    let new_deadline = state.deadline;
                    self.range_timeout_queue.push_back((new_deadline, id));
                    self.tracer
                        .record(trace_id, "range_retry", peer as u64, self.now, || {
                            format!("id={id} cursor={} hops={hops}", cursor.0)
                        });
                    let previous = self.current_trace;
                    self.current_trace = trace_id;
                    self.current_actor = peer;
                    self.handle_range_message(
                        index,
                        peer,
                        PeerId(peer as u64),
                        id,
                        lo,
                        hi,
                        cursor,
                        hops,
                    );
                    self.current_trace = previous;
                    continue;
                }
            }
            if let Some(mut state) = self.outstanding_ranges.remove(&id) {
                state.entries.sort_unstable();
                state.entries.dedup();
                self.tracer.record(
                    state.trace_id,
                    "range_incomplete",
                    u64::MAX,
                    self.now,
                    || format!("id={id} hops={} retries={}", state.hops, state.retries),
                );
                self.recorder.note(
                    self.now,
                    "range_timeout",
                    format!(
                        "range {id} on index {} gave up after {} retries",
                        state.index.0, state.retries
                    ),
                );
                self.dump_flight("range timeout");
                self.metrics.push_range_sample(RangeSample {
                    index: state.index,
                    id,
                    lo: state.lo,
                    hi: state.hi,
                    issued_at: state.issued_at,
                    latency_ms: None,
                    complete: false,
                    hops: state.hops,
                    entries: state.entries,
                });
            }
        }
    }

    fn handle_message(&mut self, to: usize, message: Message) {
        match message {
            Message::ForIndex { index, inner } => {
                let index = IndexId(index);
                if !self.has_index_state(index) {
                    // An envelope for an index this runtime never
                    // registered: version skew, not ordinary traffic.
                    self.metrics.decode_failures += 1;
                    return;
                }
                self.handle_message_on(to, index, *inner);
            }
            Message::Traced { trace_id, inner } => {
                // Adopt the sender's trace context for the inner message:
                // everything it triggers (forwards, responses) carries the
                // same trace ID onwards.
                let previous = self.current_trace;
                self.current_trace = trace_id;
                self.handle_message(to, *inner);
                self.current_trace = previous;
            }
            other => self.handle_message_on(to, IndexId::PRIMARY, other),
        }
    }

    fn handle_message_on(&mut self, to: usize, index: IndexId, message: Message) {
        match message {
            Message::Join { .. } | Message::JoinAck { .. } => {
                // Join traffic is handled synchronously in `join_peer`; these
                // messages only exist for bandwidth accounting.
            }
            Message::Replicate { entries } => {
                index_state_mut(&mut self.nodes, &mut self.secondary, index, to)
                    .store
                    .merge_from(entries);
            }
            Message::Exchange {
                from,
                path,
                entries,
            } => {
                let reply = self.decide_exchange(index, to, from, path, &entries);
                if self.tracer.is_enabled() {
                    let outcome = match &reply {
                        ExchangeOutcome::Split { .. } => "split",
                        ExchangeOutcome::Replicate { .. } => "replicate",
                        ExchangeOutcome::Refer { .. } => "refer",
                        ExchangeOutcome::Nothing => "nothing",
                    };
                    self.tracer.record(
                        AMBIENT_TRACE,
                        "exchange_decision",
                        to as u64,
                        self.now,
                        || format!("from={} index={} outcome={outcome}", from.0, index.0),
                    );
                }
                let responder_path = self.peer_state(index, to).path;
                self.send_on(
                    index,
                    from.0 as usize,
                    Message::ExchangeReply {
                        from: PeerId(to as u64),
                        path: responder_path,
                        outcome: reply,
                    },
                );
                // An exchange may have changed this peer's path or routing
                // table; drop its memoised routing resolutions.
                self.invalidate_route_cache(to, index);
            }
            Message::ExchangeReply {
                from,
                path,
                outcome,
            } => {
                self.apply_exchange_reply(index, to, from, path, outcome);
                self.invalidate_route_cache(to, index);
            }
            Message::Query {
                origin,
                id,
                key,
                hops,
            } => {
                self.handle_query_message(index, to, origin, id, key, hops);
            }
            Message::QueryResponse {
                id,
                entries,
                hops,
                found,
            } => {
                if let Some(pending) = self.outstanding_queries.remove(&id) {
                    let latency = self.now - pending.issued_at;
                    let success = found && !entries.is_empty();
                    self.tracer.record(
                        pending.trace_id,
                        "query_resolved",
                        to as u64,
                        self.now,
                        || format!("id={id} hops={hops} latency_ms={latency} success={success}"),
                    );
                    let agg = self.metrics.stats_mut(pending.index);
                    agg.answered += 1;
                    if success {
                        agg.succeeded += 1;
                        agg.hops_sum_successful += hops as u64;
                    }
                    agg.latency.record(latency);
                    agg.per_minute
                        .entry(pending.issued_at / 60_000)
                        .or_default()
                        .record(latency as f64 / 1000.0);
                    self.metrics.push_query_sample(QueryRecord {
                        index: pending.index,
                        issued_at: pending.issued_at,
                        latency_ms: Some(latency),
                        hops,
                        success,
                    });
                } else {
                    // The query already timed out (or was never issued
                    // here): count the late response, never the success.
                    self.metrics.stats_mut(index).late_responses += 1;
                }
                let _ = to;
            }
            Message::RangeQuery {
                origin,
                id,
                lo,
                hi,
                cursor,
                hops,
            } => {
                self.handle_range_message(index, to, origin, id, lo, hi, cursor, hops);
            }
            Message::RangeResponse {
                id,
                from,
                upto,
                entries,
                hops,
            } => {
                let deadline = self.now + self.config.query_timeout_ms;
                let slice = if let Some(state) = self.outstanding_ranges.get_mut(&id) {
                    state.coverage.add(from, upto);
                    state.entries.extend(entries);
                    state.hops = state.hops.max(hops);
                    // Progress resets the clock: the walk may legitimately
                    // cross many partitions, it just must not stall.
                    state.deadline = deadline;
                    Some((state.trace_id, state.coverage.covers(state.lo, state.hi)))
                } else {
                    self.metrics.stats_mut(index).late_responses += 1;
                    None
                };
                if let Some((trace_id, covered)) = slice {
                    self.tracer
                        .record(trace_id, "range_slice", to as u64, self.now, || {
                            format!(
                                "id={id} from={} upto={} hops={hops} complete={covered}",
                                from.0, upto.0
                            )
                        });
                }
                let finished = slice.is_some_and(|(_, covered)| covered);
                if self.outstanding_ranges.contains_key(&id) && !finished {
                    self.range_timeout_queue.push_back((deadline, id));
                }
                if finished {
                    let mut state = self
                        .outstanding_ranges
                        .remove(&id)
                        .expect("checked just above");
                    let latency = self.now - state.issued_at;
                    state.entries.sort_unstable();
                    state.entries.dedup();
                    let agg = self.metrics.stats_mut(state.index);
                    agg.ranges_complete += 1;
                    agg.range_latency.record(latency);
                    self.metrics.push_range_sample(RangeSample {
                        index: state.index,
                        id,
                        lo: state.lo,
                        hi: state.hi,
                        issued_at: state.issued_at,
                        latency_ms: Some(latency),
                        complete: true,
                        hops: state.hops,
                        entries: state.entries,
                    });
                }
                let _ = to;
            }
            Message::ReplicaPull { origin } => {
                // Snapshot this peer's partition for the recovering peer:
                // path, every stored entry, the routing table, and the
                // replica set — the paper's replication factor is exactly
                // what makes this answer possible.
                let state = index_state(&self.nodes, &self.secondary, index, to);
                let path = state.path;
                let entries: Vec<DataEntry> = state.store.iter().copied().collect();
                let routing: Vec<(u8, PeerId, Path)> = state
                    .routing
                    .entries()
                    .map(|(level, entry)| (level as u8, entry.peer, entry.path))
                    .collect();
                let mut replicas: Vec<PeerId> = state.replicas.clone();
                replicas.retain(|p| *p != origin);
                replicas.push(PeerId(to as u64));
                // The recovering peer becomes another replica of this
                // partition.
                let state = index_state_mut(&mut self.nodes, &mut self.secondary, index, to);
                if !state.replicas.contains(&origin) {
                    state.replicas.push(origin);
                }
                self.tracer
                    .record(AMBIENT_TRACE, "replica_pull", to as u64, self.now, || {
                        format!("origin={} index={}", origin.0, index.0)
                    });
                self.send_on(
                    index,
                    origin.0 as usize,
                    Message::ReplicaPush {
                        path,
                        entries,
                        routing,
                        replicas,
                    },
                );
            }
            Message::ReplicaPush {
                path,
                entries,
                routing,
                replicas,
            } => {
                self.apply_replica_push(index, to, path, entries, routing, replicas);
            }
            Message::ForIndex { .. } | Message::Traced { .. } => {
                // Nested envelopes are rejected at decode time; reaching
                // one here means a hand-crafted message — drop it.
                self.metrics.decode_failures += 1;
            }
        }
    }

    /// Rebuilds a recovering peer's state from a replica snapshot: exact
    /// key store, the replica's path, its routing references and replica
    /// set.  A snapshot for a peer that already finished recovering (a
    /// second replica answered late) is ignored.
    fn apply_replica_push(
        &mut self,
        index: IndexId,
        to: usize,
        path: Path,
        entries: Vec<DataEntry>,
        routing: Vec<(u8, PeerId, Path)>,
        replicas: Vec<PeerId>,
    ) {
        if self.reconciling.contains(&to) {
            self.apply_replica_diff(index, to, path, entries, routing, replicas);
            return;
        }
        if !self.recovering.contains(&to) {
            return;
        }
        let fanout = self.config.routing_fanout;
        let mut table = pgrid_core::routing::RoutingTable::new(fanout);
        for (level, peer, rpath) in routing {
            table.add(
                level as usize,
                RoutingEntry { peer, path: rpath },
                &mut self.rng,
            );
        }
        let state = index_state_mut(&mut self.nodes, &mut self.secondary, index, to);
        state.path = path;
        state.store = KeyStore::from_entries(entries);
        state.routing = table;
        state.replicas = replicas;
        state.replicas.retain(|p| p.0 as usize != to);
        self.recovering.remove(&to);
        self.metrics.peers_recovered_replica += 1;
        self.tracer.record(
            AMBIENT_TRACE,
            "replica_recovered",
            to as u64,
            self.now,
            || format!("index={} path_len={}", index.0, path.len()),
        );
        self.recorder.note(
            self.now,
            "recovery",
            format!(
                "peer {to} rebuilt from a live replica (path len {})",
                path.len()
            ),
        );
        self.finish_recovery(to);
    }

    /// Merges a replica's answer into a warm-restored peer (anti-entropy
    /// reconciliation).  Unlike the cold path above, the replayed state is
    /// the baseline: same partition path → union of entries, replicas and
    /// routing references; diverged path (the partition split or moved
    /// while the peer was down) → adopt the replica's identity wholesale
    /// and keep only the replayed entries it still covers.
    fn apply_replica_diff(
        &mut self,
        index: IndexId,
        to: usize,
        path: Path,
        entries: Vec<DataEntry>,
        routing: Vec<(u8, PeerId, Path)>,
        replicas: Vec<PeerId>,
    ) {
        let fanout = self.config.routing_fanout;
        let own_path = index_state(&self.nodes, &self.secondary, index, to).path;
        let merged = if own_path == path {
            let mut table = std::mem::replace(
                &mut index_state_mut(&mut self.nodes, &mut self.secondary, index, to).routing,
                pgrid_core::routing::RoutingTable::new(fanout),
            );
            for (level, peer, rpath) in routing {
                let level = level as usize;
                if !table.level(level).iter().any(|e| e.peer == peer) {
                    table.add(level, RoutingEntry { peer, path: rpath }, &mut self.rng);
                }
            }
            let state = index_state_mut(&mut self.nodes, &mut self.secondary, index, to);
            state.routing = table;
            for r in replicas {
                if r.0 as usize != to && !state.replicas.contains(&r) {
                    state.replicas.push(r);
                }
            }
            state.store.merge_batch(entries)
        } else {
            let mut table = pgrid_core::routing::RoutingTable::new(fanout);
            for (level, peer, rpath) in routing {
                table.add(
                    level as usize,
                    RoutingEntry { peer, path: rpath },
                    &mut self.rng,
                );
            }
            let state = index_state_mut(&mut self.nodes, &mut self.secondary, index, to);
            let old = state.store.drain();
            state.path = path;
            state.routing = table;
            state.store = KeyStore::from_entries(entries);
            state.replicas = replicas;
            state.replicas.retain(|p| p.0 as usize != to);
            let covered: Vec<DataEntry> = old.into_iter().filter(|e| path.covers(e.key)).collect();
            state.store.merge_batch(covered)
        };
        self.reconciling.remove(&to);
        self.metrics.peers_reconciled += 1;
        self.metrics.reconciled_entries += merged;
        self.invalidate_route_cache(to, index);
        self.tracer.record(
            AMBIENT_TRACE,
            "replica_reconciled",
            to as u64,
            self.now,
            || format!("index={} merged={merged}", index.0),
        );
        self.recorder.note(
            self.now,
            "recovery",
            format!("peer {to} reconciled with a live replica ({merged} entries merged)"),
        );
    }

    /// Brings a recovered peer back into service: joined + online, cache
    /// rebuilt, route-cache entries invalidated, and — when construction
    /// is still running on this index population — a re-armed tick chain
    /// so the peer keeps participating in the exchange protocol.
    fn finish_recovery(&mut self, peer: usize) {
        self.nodes[peer].joined = true;
        self.nodes[peer].state.online = true;
        self.rebuild_online_cache();
        self.invalidate_route_cache(peer, IndexId::PRIMARY);
        let construction_live = self
            .shard
            .clone()
            .any(|p| self.nodes[p].constructing && self.nodes[p].tick_armed);
        if construction_live && !self.nodes[peer].tick_armed {
            self.nodes[peer].tick_armed = true;
            self.nodes[peer].constructing = true;
            let jitter = self
                .rng
                .gen_range(0..self.config.construct_interval_ms.max(1));
            self.schedule(
                self.now + jitter,
                EventKind::ConstructTick {
                    index: IndexId::PRIMARY,
                    peer,
                },
            );
        }
    }

    // ----- construction protocol ---------------------------------------------

    fn construct_tick(&mut self, index: IndexId, peer: usize) {
        self.current_actor = peer;
        let constructing = index_constructing(&self.nodes, &self.secondary, index, peer);
        if !self.nodes[peer].state.online || !constructing {
            // The chain ends here (no reschedule, as in the paper's
            // reference run); `start_construction_on` can re-arm it.
            *index_tick_armed_mut(&mut self.nodes, &mut self.secondary, index, peer) = false;
            return;
        }
        // Back off after repeated fruitless exchanges unless the local store
        // clearly indicates an overloaded, still splittable partition.  A
        // backed-off peer does not stop entirely: it keeps exchanging at a
        // much lower rate, which provides the background anti-entropy that
        // keeps replicas converged during the operational phase (and shows
        // up as the residual maintenance bandwidth of Figure 8).
        let backing_off = {
            let fruitless = index_fruitless(&self.nodes, &self.secondary, index, peer);
            let state = index_state(&self.nodes, &self.secondary, index, peer);
            fruitless >= 4 && !self.engine.locally_overloaded(state)
        };
        if let Some(target) = self.random_contact(peer) {
            let state = index_state(&self.nodes, &self.secondary, index, peer);
            let entries: Vec<DataEntry> = state
                .store
                .restricted(&state.path)
                .entries()
                .copied()
                .collect();
            let message = Message::Exchange {
                from: PeerId(peer as u64),
                path: state.path,
                entries,
            };
            self.send_on(index, target, message);
        }
        let interval = if backing_off {
            self.config.construct_interval_ms * 10
        } else {
            self.config.construct_interval_ms
        };
        let jitter = self.rng.gen_range(0..interval.max(1));
        self.schedule(
            self.now + interval + jitter,
            EventKind::ConstructTick { index, peer },
        );
    }

    /// The contacted peer's local decision for an exchange (Figure 2).
    ///
    /// The protocol decision — assessment, probabilities and the random
    /// draw — is delegated to the shared [`pgrid_core::exchange`] engine;
    /// this method only translates the resulting [`ExchangeDecision`] into
    /// the wire protocol's [`ExchangeOutcome`] and the responder-side state
    /// transition.
    fn decide_exchange(
        &mut self,
        index: IndexId,
        responder: usize,
        initiator: PeerId,
        initiator_path: Path,
        initiator_entries: &[DataEntry],
    ) -> ExchangeOutcome {
        let responder_path = self.peer_state(index, responder).path;

        if ExchangeEngine::refer_level(&responder_path, &initiator_path).is_some() {
            // Refer the initiator to a peer for its own side, and learn a
            // reference ourselves.
            let level = responder_path.common_prefix_len(&initiator_path);
            index_state_mut(&mut self.nodes, &mut self.secondary, index, responder)
                .learn_reference(initiator, initiator_path, &mut self.rng);
            let referred = {
                let state = index_state(&self.nodes, &self.secondary, index, responder);
                state
                    .routing
                    .level(level)
                    .iter()
                    .map(|e| (e.peer, e.path))
                    .collect::<Vec<_>>()
            };
            return match referred.choose(&mut self.rng) {
                Some(&(peer, path)) if peer != initiator => ExchangeOutcome::Refer { peer, path },
                _ => ExchangeOutcome::Nothing,
            };
        }

        // Work on the shallower of the two paths; the engine decides on
        // behalf of the shallower ("lagging") peer.
        let partition = if responder_path.len() <= initiator_path.len() {
            responder_path
        } else {
            initiator_path
        };
        let initiator_store = KeyStore::from_entries(
            initiator_entries
                .iter()
                .copied()
                .filter(|e| partition.covers(e.key)),
        );
        // Zero-copy view of the responder's partition entries; everything
        // derived from it is computed before the responder's state is
        // mutated.
        let responder_store = index_state(&self.nodes, &self.secondary, index, responder)
            .store
            .restricted(&partition);
        let assessment = self
            .engine
            .assess(&initiator_store, &responder_store, &partition);

        if responder_path.len() == initiator_path.len() {
            // Two undecided peers at the same level.
            let decision =
                self.engine
                    .decide(initiator_path, responder_path, &assessment, &mut self.rng);
            return match decision {
                ExchangeDecision::Replicate => {
                    // Become replicas: hand over what the initiator is
                    // missing, pull what the responder is missing (it
                    // arrived with the request).
                    let to_initiator = responder_store.missing_in(&initiator_store);
                    let to_responder = initiator_store.missing_in(&responder_store);
                    let state =
                        index_state_mut(&mut self.nodes, &mut self.secondary, index, responder);
                    if !state.replicas.contains(&initiator) {
                        state.replicas.push(initiator);
                    }
                    state.store.merge_from(to_responder);
                    ExchangeOutcome::Replicate {
                        entries: to_initiator,
                    }
                }
                ExchangeDecision::Split {
                    bit: initiator_bit,
                    balanced: true,
                    ..
                } => {
                    // The responder extends its own path with the
                    // complementary bit and hands over the initiator's side.
                    let responder_bit = !initiator_bit;
                    let handover =
                        index_state_mut(&mut self.nodes, &mut self.secondary, index, responder)
                            .split_towards(
                                responder_bit,
                                RoutingEntry {
                                    peer: initiator,
                                    path: partition.child(initiator_bit),
                                },
                                &mut self.rng,
                            );
                    // Keep the initiator's entries that belong to our new
                    // side.
                    let state =
                        index_state_mut(&mut self.nodes, &mut self.secondary, index, responder);
                    let own_path = state.path;
                    state.store.merge_from(
                        initiator_entries
                            .iter()
                            .copied()
                            .filter(|e| own_path.covers(e.key)),
                    );
                    ExchangeOutcome::Split {
                        partition,
                        initiator_bit,
                        entries: handover,
                        complement: None,
                    }
                }
                _ => ExchangeOutcome::Nothing,
            };
        }

        if responder_path.len() > initiator_path.len() {
            // The initiator lags behind a peer (us) that has already decided
            // at this level: the engine applies the decided-peer rules
            // (cases 3/4) on its behalf; we ship the entries of its new side.
            let decision =
                self.engine
                    .decide(initiator_path, responder_path, &assessment, &mut self.rng);
            let ExchangeDecision::Split {
                bit: initiator_bit,
                balanced: false,
                ..
            } = decision
            else {
                return ExchangeOutcome::Nothing;
            };
            let responder_bit = responder_path.bit(partition.len());
            // When the initiator joins the responder's own side it needs a
            // reference to the complementary subtree, which the responder has
            // in its routing table for this level.
            let complement = if initiator_bit == responder_bit {
                let refs = index_state(&self.nodes, &self.secondary, index, responder)
                    .routing
                    .level(partition.len());
                match refs.choose(&mut self.rng) {
                    Some(entry) => Some((entry.peer, entry.path)),
                    None => return ExchangeOutcome::Nothing,
                }
            } else {
                None
            };
            let initiator_new_path = partition.child(initiator_bit);
            let handover: Vec<DataEntry> = responder_store
                .entries()
                .copied()
                .filter(|e| initiator_new_path.covers(e.key))
                .collect();
            return ExchangeOutcome::Split {
                partition,
                initiator_bit,
                entries: handover,
                complement,
            };
        }

        // The responder itself lags behind the initiator: catch up locally
        // using the initiator as the already-decided peer.  Only the
        // opposite-side decision can be completed here (it yields the
        // initiator as the routing reference); for the same-side decision we
        // would need one of the initiator's references, so we simply wait for
        // a later exchange.
        let decision =
            self.engine
                .decide(responder_path, initiator_path, &assessment, &mut self.rng);
        let ahead_bit = initiator_path.bit(partition.len());
        match decision {
            ExchangeDecision::Split {
                bit,
                balanced: false,
                ..
            } if bit != ahead_bit => {
                let shipped =
                    index_state_mut(&mut self.nodes, &mut self.secondary, index, responder)
                        .split_towards(
                            bit,
                            RoutingEntry {
                                peer: initiator,
                                path: initiator_path,
                            },
                            &mut self.rng,
                        );
                // The shipped entries belong to the initiator's half of the
                // partition; hand them over with the reply.
                ExchangeOutcome::Replicate { entries: shipped }
            }
            _ => ExchangeOutcome::Nothing,
        }
    }

    /// The initiator applies the responder's decision.
    fn apply_exchange_reply(
        &mut self,
        index: IndexId,
        initiator: usize,
        responder: PeerId,
        responder_path: Path,
        outcome: ExchangeOutcome,
    ) {
        // Always learn a routing reference from the encounter if possible.
        index_state_mut(&mut self.nodes, &mut self.secondary, index, initiator).learn_reference(
            responder,
            responder_path,
            &mut self.rng,
        );
        match outcome {
            ExchangeOutcome::Nothing => {
                *index_fruitless_mut(&mut self.nodes, &mut self.secondary, index, initiator) += 1;
            }
            ExchangeOutcome::Refer { peer, path } => {
                index_state_mut(&mut self.nodes, &mut self.secondary, index, initiator)
                    .learn_reference(peer, path, &mut self.rng);
                *index_fruitless_mut(&mut self.nodes, &mut self.secondary, index, initiator) += 1;
            }
            ExchangeOutcome::Replicate { entries } => {
                let added = {
                    let state =
                        index_state_mut(&mut self.nodes, &mut self.secondary, index, initiator);
                    let added = state.store.merge_from(entries);
                    if !state.replicas.contains(&responder) {
                        state.replicas.push(responder);
                    }
                    added
                };
                let fruitless =
                    index_fruitless_mut(&mut self.nodes, &mut self.secondary, index, initiator);
                if added == 0 {
                    *fruitless += 1;
                } else {
                    *fruitless = 0;
                }
            }
            ExchangeOutcome::Split {
                partition,
                initiator_bit,
                entries,
                complement,
            } => {
                let node_path = self.peer_state(index, initiator).path;
                // The decision applies to the partition the responder saw in
                // the request; if the initiator has moved on in the meantime
                // (a concurrent exchange extended its path) the reply is
                // stale and must be ignored.
                if node_path == partition {
                    // Reference for the complementary subtree: the responder
                    // itself when we took the opposite side, otherwise the
                    // complement peer it referred us to.
                    let reference = match complement {
                        Some((peer, path)) => RoutingEntry { peer, path },
                        None => RoutingEntry {
                            peer: responder,
                            path: if responder_path.len() > node_path.len() {
                                responder_path
                            } else {
                                node_path.child(!initiator_bit)
                            },
                        },
                    };
                    let shipped =
                        index_state_mut(&mut self.nodes, &mut self.secondary, index, initiator)
                            .split_towards(initiator_bit, reference, &mut self.rng);
                    index_state_mut(&mut self.nodes, &mut self.secondary, index, initiator)
                        .store
                        .merge_from(entries);
                    // Hand the entries of the other side back to the
                    // responder (content exchange).
                    if !shipped.is_empty() {
                        self.send_on(
                            index,
                            responder.0 as usize,
                            Message::Replicate { entries: shipped },
                        );
                    }
                    *index_fruitless_mut(&mut self.nodes, &mut self.secondary, index, initiator) =
                        0;
                } else {
                    *index_fruitless_mut(&mut self.nodes, &mut self.secondary, index, initiator) +=
                        1;
                }
            }
        }
    }

    // ----- query routing -------------------------------------------------------

    fn handle_query_message(
        &mut self,
        index: IndexId,
        at: usize,
        origin: PeerId,
        id: u64,
        key: Key,
        hops: u32,
    ) {
        let trace = self.current_trace;
        let path = self.peer_state(index, at).path;
        let mismatch = (0..path.len()).find(|&i| path.bit(i) != key.bit(i));
        match mismatch {
            None => {
                // Responsible peer: answer directly to the origin.  If this
                // replica happens to miss the entry (it may still be in
                // transit from the construction phase), try an online
                // replica of the same partition before giving up — that is
                // exactly what the structural replication is for.
                let entries: Vec<DataEntry> = self
                    .peer_state(index, at)
                    .store
                    .range(key, key)
                    .copied()
                    .collect();
                if entries.is_empty() && (hops as usize) < pgrid_core::search::MAX_HOPS {
                    // Liveness is shared across indexes: the primary node
                    // state is the failure detector for all of them.
                    let replicas: Vec<PeerId> = self.peer_state(index, at).replicas.clone();
                    let next = replicas.iter().copied().find(|p| {
                        p.0 as usize != at
                            && self.nodes[p.0 as usize].state.online
                            && self.link_ok(p.0 as usize)
                    });
                    if let Some(peer) = next {
                        self.tracer.record(
                            trace,
                            "query_replica_forward",
                            at as u64,
                            self.now,
                            || format!("id={id} to={} hop={}", peer.0, hops + 1),
                        );
                        self.send_on(
                            index,
                            peer.0 as usize,
                            Message::Query {
                                origin,
                                id,
                                key,
                                hops: hops + 1,
                            },
                        );
                        return;
                    }
                }
                let found = !entries.is_empty();
                self.tracer
                    .record(trace, "query_answered", at as u64, self.now, || {
                        format!("id={id} found={found} hops={hops} path={path}")
                    });
                self.send_on(
                    index,
                    origin.0 as usize,
                    Message::QueryResponse {
                        id,
                        entries,
                        hops,
                        found,
                    },
                );
            }
            Some(level) => {
                // Hot path: with the route cache on, a repeated prefix
                // resolution at this peer/level skips the reference
                // shuffle entirely (an offline cached target falls back to
                // the full resolution below and is evicted).
                if self.config.route_cache {
                    if let Some(&peer) = self.route_cache.get(&(at, index, level)) {
                        if self.nodes[peer.0 as usize].state.online && self.link_ok(peer.0 as usize)
                        {
                            if hops as usize > pgrid_core::search::MAX_HOPS {
                                self.tracer.record(
                                    trace,
                                    "query_dead_end",
                                    at as u64,
                                    self.now,
                                    || format!("id={id} hops={hops} reason=hop_budget"),
                                );
                                self.send_on(
                                    index,
                                    origin.0 as usize,
                                    Message::QueryResponse {
                                        id,
                                        entries: Vec::new(),
                                        hops,
                                        found: false,
                                    },
                                );
                                return;
                            }
                            self.tracer
                                .record(trace, "query_hop", at as u64, self.now, || {
                                    format!(
                                        "id={id} level={level} to={} hop={} cached=true",
                                        peer.0,
                                        hops + 1
                                    )
                                });
                            self.send_on(
                                index,
                                peer.0 as usize,
                                Message::Query {
                                    origin,
                                    id,
                                    key,
                                    hops: hops + 1,
                                },
                            );
                            return;
                        }
                        self.route_cache.remove(&(at, index, level));
                    }
                }
                // Forward to an online reference at the mismatch level;
                // offline targets are detected (failed connection) and an
                // alternative is tried, as a socket implementation would.
                let mut refs: Vec<PeerId> = self
                    .peer_state(index, at)
                    .routing
                    .level(level)
                    .iter()
                    .map(|e| e.peer)
                    .collect();
                refs.shuffle(&mut self.rng);
                let next = refs
                    .into_iter()
                    .find(|p| self.nodes[p.0 as usize].state.online && self.link_ok(p.0 as usize));
                match next {
                    Some(peer) => {
                        if hops as usize > pgrid_core::search::MAX_HOPS {
                            self.tracer.record(
                                trace,
                                "query_dead_end",
                                at as u64,
                                self.now,
                                || format!("id={id} hops={hops} reason=hop_budget"),
                            );
                            self.send_on(
                                index,
                                origin.0 as usize,
                                Message::QueryResponse {
                                    id,
                                    entries: Vec::new(),
                                    hops,
                                    found: false,
                                },
                            );
                            return;
                        }
                        if self.config.route_cache {
                            self.route_cache.insert((at, index, level), peer);
                        }
                        self.tracer
                            .record(trace, "query_hop", at as u64, self.now, || {
                                format!(
                                    "id={id} level={level} to={} hop={} cached=false",
                                    peer.0,
                                    hops + 1
                                )
                            });
                        self.send_on(
                            index,
                            peer.0 as usize,
                            Message::Query {
                                origin,
                                id,
                                key,
                                hops: hops + 1,
                            },
                        );
                    }
                    None => {
                        self.tracer
                            .record(trace, "query_dead_end", at as u64, self.now, || {
                                format!("id={id} hops={hops} reason=no_online_reference")
                            });
                        self.send_on(
                            index,
                            origin.0 as usize,
                            Message::QueryResponse {
                                id,
                                entries: Vec::new(),
                                hops,
                                found: false,
                            },
                        );
                    }
                }
            }
        }
    }

    /// One step of the range-query trie walk at peer `at` (see
    /// [`Runtime::issue_range_query_on`] for the protocol).
    #[allow(clippy::too_many_arguments)]
    fn handle_range_message(
        &mut self,
        index: IndexId,
        at: usize,
        origin: PeerId,
        id: u64,
        lo: Key,
        hi: Key,
        cursor: Key,
        hops: u32,
    ) {
        // A range walk visits one partition per slice, so its hop budget
        // scales with the partition safety net of the core traversal, not
        // with a single lookup's.
        const RANGE_HOP_BUDGET: u32 = (pgrid_core::search::MAX_HOPS * 32) as u32;
        let trace = self.current_trace;
        let path = self.peer_state(index, at).path;
        let mismatch = (0..path.len()).find(|&i| path.bit(i) != cursor.bit(i));
        match mismatch {
            None => {
                // Responsible for the cursor's partition: answer the slice
                // this partition covers straight to the origin, then walk
                // on to the next partition if the range extends past it.
                let upper = path.upper_key();
                let upto = upper.min(hi);
                let entries: Vec<DataEntry> = self
                    .peer_state(index, at)
                    .store
                    .range(cursor, upto)
                    .copied()
                    .collect();
                self.tracer
                    .record(trace, "range_answered", at as u64, self.now, || {
                        format!(
                            "id={id} from={} upto={} entries={} hops={hops}",
                            cursor.0,
                            upto.0,
                            entries.len()
                        )
                    });
                self.send_on(
                    index,
                    origin.0 as usize,
                    Message::RangeResponse {
                        id,
                        from: cursor,
                        upto,
                        entries,
                        hops,
                    },
                );
                if upper < hi && upper < Key::MAX && hops < RANGE_HOP_BUDGET {
                    let next_cursor = Key(upper.0 + 1);
                    self.handle_range_message(index, at, origin, id, lo, hi, next_cursor, hops);
                }
            }
            Some(level) => {
                if hops >= RANGE_HOP_BUDGET {
                    // Runaway walk: stop forwarding; the origin times out
                    // and reports the range incomplete.
                    return;
                }
                if self.config.route_cache {
                    if let Some(&peer) = self.route_cache.get(&(at, index, level)) {
                        if self.nodes[peer.0 as usize].state.online && self.link_ok(peer.0 as usize)
                        {
                            self.tracer
                                .record(trace, "range_hop", at as u64, self.now, || {
                                    format!(
                                        "id={id} level={level} to={} hop={} cached=true",
                                        peer.0,
                                        hops + 1
                                    )
                                });
                            self.send_on(
                                index,
                                peer.0 as usize,
                                Message::RangeQuery {
                                    origin,
                                    id,
                                    lo,
                                    hi,
                                    cursor,
                                    hops: hops + 1,
                                },
                            );
                            return;
                        }
                        self.route_cache.remove(&(at, index, level));
                    }
                }
                let mut refs: Vec<PeerId> = self
                    .peer_state(index, at)
                    .routing
                    .level(level)
                    .iter()
                    .map(|e| e.peer)
                    .collect();
                refs.shuffle(&mut self.rng);
                let next = refs
                    .into_iter()
                    .find(|p| self.nodes[p.0 as usize].state.online && self.link_ok(p.0 as usize));
                if let Some(peer) = next {
                    if self.config.route_cache {
                        self.route_cache.insert((at, index, level), peer);
                    }
                    self.tracer
                        .record(trace, "range_hop", at as u64, self.now, || {
                            format!(
                                "id={id} level={level} to={} hop={} cached=false",
                                peer.0,
                                hops + 1
                            )
                        });
                    self.send_on(
                        index,
                        peer.0 as usize,
                        Message::RangeQuery {
                            origin,
                            id,
                            lo,
                            hi,
                            cursor,
                            hops: hops + 1,
                        },
                    );
                    return;
                }
                // No online reference at the required level (a routing-table
                // gap of the emergent overlay).  A lookup would fail here;
                // the range walk instead detours through a random online
                // peer and restarts prefix routing from there, spending a
                // hop against the budget.  Only when the whole population
                // is unreachable does the walk die and the origin time out
                // with whatever slices already arrived.
                let detour: Vec<usize> = self
                    .online_hosted
                    .iter()
                    .copied()
                    .filter(|&p| p != at)
                    .collect();
                if !detour.is_empty() {
                    let peer = detour[self.rng.gen_range(0..detour.len())];
                    self.tracer
                        .record(trace, "range_detour", at as u64, self.now, || {
                            format!("id={id} to={peer} hop={}", hops + 1)
                        });
                    self.send_on(
                        index,
                        peer,
                        Message::RangeQuery {
                            origin,
                            id,
                            lo,
                            hi,
                            cursor,
                            hops: hops + 1,
                        },
                    );
                }
            }
        }
    }

    /// Drops every memoised routing resolution of `peer` on `index`
    /// (no-op while the cache is disabled and therefore empty).
    fn invalidate_route_cache(&mut self, peer: usize, index: IndexId) {
        if self.route_cache.is_empty() {
            return;
        }
        self.route_cache
            .retain(|&(p, idx, _), _| p != peer || idx != index);
    }

    // ----- helpers ---------------------------------------------------------------

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

#[cfg(test)]
mod tests {
    use super::*;

    fn small_runtime() -> Runtime {
        Runtime::new(NetConfig {
            n_peers: 48,
            seed: 3,
            ..NetConfig::default()
        })
    }

    #[test]
    fn peers_join_and_form_an_unstructured_overlay() {
        let mut rt = small_runtime();
        for i in 0..48 {
            rt.join_peer(i, 4);
        }
        assert_eq!(rt.online_count(), 48);
        // every peer except the very first has neighbours
        let lonely = rt.nodes.iter().filter(|n| n.neighbours.is_empty()).count();
        assert!(lonely <= 1, "{lonely} peers without neighbours");
    }

    #[test]
    fn construction_builds_a_trie_over_messages() {
        let mut rt = small_runtime();
        for i in 0..48 {
            rt.join_peer(i, 4);
        }
        rt.replication_phase();
        rt.run_until(10_000);
        rt.start_construction();
        rt.run_until(400_000);
        let max_depth = rt.nodes.iter().map(|n| n.state.path.len()).max().unwrap();
        assert!(max_depth >= 2, "max depth {max_depth}");
        // routing tables stay consistent with paths
        for node in &rt.nodes {
            assert!(node.state.invariants_hold());
        }
        assert!(rt.metrics.messages_delivered > 100);
    }

    #[test]
    fn queries_succeed_after_construction() {
        let mut rt = small_runtime();
        for i in 0..48 {
            rt.join_peer(i, 4);
        }
        rt.replication_phase();
        rt.run_until(10_000);
        rt.start_construction();
        rt.run_until(400_000);
        // query for existing keys
        let keys: Vec<_> = rt.original_entries.iter().map(|e| e.key).collect();
        for i in 0..100 {
            rt.issue_query(keys[i * 3 % keys.len()]);
            rt.run_until(rt.now() + 2_000);
        }
        rt.run_until(rt.now() + 30_000);
        let stats = rt.metrics.stats(IndexId::PRIMARY);
        assert_eq!(stats.issued, 100);
        assert_eq!(stats.answered + stats.timed_out, 100);
        assert!(
            stats.succeeded >= 85,
            "only {}/100 queries succeeded",
            stats.succeeded
        );
        assert!(
            stats.answered >= 90,
            "only {}/100 queries answered",
            stats.answered
        );
        assert_eq!(stats.latency.total(), stats.answered);
        assert!(stats.latency.p99().is_some());
        // the debug sample ring kept (at most a cap of) resolved queries
        assert_eq!(
            rt.metrics.query_samples.len(),
            100.min(rt.metrics.sample_cap)
        );
    }

    #[test]
    fn sample_ring_is_capped_and_can_be_disabled() {
        let mut rt = Runtime::new(NetConfig {
            n_peers: 16,
            seed: 9,
            query_sample_cap: 8,
            ..NetConfig::default()
        });
        for i in 0..16 {
            rt.join_peer(i, 4);
        }
        rt.replication_phase();
        rt.run_until(10_000);
        rt.start_construction();
        rt.run_until(200_000);
        let keys: Vec<_> = rt.original_entries.iter().map(|e| e.key).collect();
        for i in 0..40 {
            rt.issue_query(keys[i % keys.len()]);
            rt.run_until(rt.now() + 2_000);
        }
        rt.run_until(rt.now() + 30_000);
        assert_eq!(rt.metrics.stats(IndexId::PRIMARY).issued, 40);
        assert_eq!(rt.metrics.query_samples.len(), 8);

        let mut quiet = Runtime::new(NetConfig {
            n_peers: 16,
            seed: 9,
            query_sample_cap: 0,
            ..NetConfig::default()
        });
        for i in 0..16 {
            quiet.join_peer(i, 4);
        }
        quiet.replication_phase();
        quiet.run_until(10_000);
        quiet.start_construction();
        quiet.run_until(200_000);
        let keys: Vec<_> = quiet.original_entries.iter().map(|e| e.key).collect();
        quiet.issue_query(keys[0]);
        quiet.run_until(quiet.now() + 30_000);
        assert_eq!(quiet.metrics.stats(IndexId::PRIMARY).issued, 1);
        assert!(quiet.metrics.query_samples.is_empty());
    }

    #[test]
    fn late_responses_never_flip_a_timeout_verdict() {
        // A 1ms timeout with a 50ms network guarantees every response
        // arrives after its query expired: the timeout verdict must stand
        // and the late response must be counted separately, exactly once.
        let mut rt = Runtime::new(NetConfig {
            n_peers: 2,
            seed: 5,
            query_timeout_ms: 1,
            latency_min_ms: 50,
            latency_max_ms: 60,
            ..NetConfig::default()
        });
        for i in 0..2 {
            rt.join_peer(i, 2);
        }
        rt.replication_phase();
        rt.run_until(5_000);
        rt.start_construction();
        rt.run_until(100_000);
        let key = rt.original_entries[0].key;
        rt.issue_query(key);
        rt.run_until(rt.now() + 10_000);
        let stats = rt.metrics.stats(IndexId::PRIMARY);
        assert_eq!(stats.issued, 1);
        assert_eq!(stats.timed_out, 1, "query must expire before any response");
        assert_eq!(stats.answered, 0);
        assert_eq!(stats.succeeded, 0);
        assert!(
            stats.late_responses >= 1,
            "the post-timeout response must be counted as late"
        );
        assert_eq!(stats.latency.total(), 0);
    }

    #[test]
    fn empty_and_whole_keyspace_ranges_resolve() {
        let mut rt = small_runtime();
        for i in 0..48 {
            rt.join_peer(i, 4);
        }
        rt.replication_phase();
        rt.run_until(10_000);
        rt.start_construction();
        rt.run_until(400_000);

        // lo > hi: resolves immediately as complete and empty
        let id = rt
            .issue_range_query(Key::MAX, Key::MIN)
            .expect("peers online");
        let empty = rt
            .metrics
            .range_samples
            .iter()
            .find(|s| s.id == id)
            .expect("empty range resolved synchronously");
        assert!(empty.complete);
        assert!(empty.entries.is_empty());

        // whole keyspace: must return every stored key
        let id = rt
            .issue_range_query(Key::MIN, Key::MAX)
            .expect("peers online");
        rt.run_until(rt.now() + rt.config.query_timeout_ms + 60_000);
        let whole = rt
            .metrics
            .range_samples
            .iter()
            .find(|s| s.id == id)
            .expect("whole-keyspace range resolved");
        assert!(whole.complete, "whole-keyspace walk did not cover [0, MAX]");
        let got: Vec<Key> = whole.entries.iter().map(|e| e.key).collect();
        // Completeness guarantee of a replicated overlay: a key that every
        // online replica of its partition stores must be returned (one of
        // those replicas answered its slice).
        for key in certainly_stored_keys(&rt, Key::MIN, Key::MAX) {
            assert!(got.contains(&key), "missing key {key:?}");
        }
        let stats = rt.metrics.stats(IndexId::PRIMARY);
        assert_eq!(stats.ranges_issued, 2);
        assert_eq!(stats.ranges_complete, 2);
    }

    /// Keys of the ground-truth corpus in `[lo, hi]` that *every* online
    /// replica of their partition stores — the set a single-replica-per-slice
    /// range walk is guaranteed to return regardless of which replica
    /// answers each slice.
    fn certainly_stored_keys(rt: &Runtime, lo: Key, hi: Key) -> Vec<Key> {
        let mut keys: Vec<Key> = rt
            .original_entries
            .iter()
            .map(|e| e.key)
            .filter(|k| *k >= lo && *k <= hi)
            .collect();
        keys.sort_unstable();
        keys.dedup();
        keys.retain(|&key| {
            let holders: Vec<_> = rt
                .nodes
                .iter()
                .filter(|n| n.joined && n.state.online && n.state.path.covers(key))
                .collect();
            !holders.is_empty() && holders.iter().all(|n| n.state.store.contains_key(key))
        });
        keys
    }

    mod range_parity {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(6))]

            // Parity against brute force on randomly seeded overlays and
            // random bounds: sound (corpus keys inside the range only) and
            // complete up to the certainty bound (keys every online
            // covering replica stores at issue time).
            #[test]
            fn prop_net_range_matches_brute_force(
                seed in 0u64..1000,
                a in 0.0f64..1.0,
                b in 0.0f64..1.0,
            ) {
                let mut rt = Runtime::new(NetConfig {
                    n_peers: 24,
                    seed,
                    ..NetConfig::default()
                });
                for i in 0..24 {
                    rt.join_peer(i, 4);
                }
                rt.replication_phase();
                rt.run_until(10_000);
                rt.start_construction();
                rt.run_until(250_000);
                let (lo, hi) = (
                    Key::from_fraction(a.min(b)),
                    Key::from_fraction(a.max(b)),
                );
                let certain_pre = certainly_stored_keys(&rt, lo, hi);
                let id = rt.issue_range_query(lo, hi).expect("peers online");
                rt.run_until(rt.now() + rt.config.query_timeout_ms + 60_000);
                let sample = rt
                    .metrics
                    .range_samples
                    .iter()
                    .find(|s| s.id == id)
                    .expect("range resolved");
                prop_assert!(sample.complete, "seed {seed} range incomplete");
                let mut corpus: Vec<Key> =
                    rt.original_entries.iter().map(|e| e.key).collect();
                corpus.sort_unstable();
                corpus.dedup();
                let got: Vec<Key> = sample.entries.iter().map(|e| e.key).collect();
                for key in &got {
                    prop_assert!(*key >= lo && *key <= hi, "{key:?} outside range");
                    prop_assert!(corpus.binary_search(key).is_ok(), "fabricated {key:?}");
                }
                let certain_post = certainly_stored_keys(&rt, lo, hi);
                for key in certain_pre.iter().filter(|k| certain_post.contains(k)) {
                    prop_assert!(got.contains(key), "seed {seed} missing {key:?}");
                }
            }
        }
    }

    #[test]
    fn range_queries_match_brute_force_on_loopback() {
        let mut rt = small_runtime();
        for i in 0..48 {
            rt.join_peer(i, 4);
        }
        rt.replication_phase();
        rt.run_until(10_000);
        rt.start_construction();
        rt.run_until(400_000);
        let mut corpus: Vec<Key> = rt.original_entries.iter().map(|e| e.key).collect();
        corpus.sort_unstable();
        corpus.dedup();
        for (frac_lo, frac_hi) in [(0.1, 0.3), (0.4, 0.45), (0.0, 0.9), (0.7, 0.71)] {
            let lo = Key::from_fraction(frac_lo);
            let hi = Key::from_fraction(frac_hi);
            // Background anti-entropy keeps mutating stores, so evaluate the
            // completeness oracle at issue time (the state the walk reads)
            // and keep only keys still certain after it resolved.
            let certain_pre = certainly_stored_keys(&rt, lo, hi);
            let id = rt.issue_range_query(lo, hi).expect("peers online");
            rt.run_until(rt.now() + rt.config.query_timeout_ms + 60_000);
            let sample = rt
                .metrics
                .range_samples
                .iter()
                .find(|s| s.id == id)
                .expect("range resolved");
            assert!(sample.complete, "range [{frac_lo}, {frac_hi}] incomplete");
            let got: Vec<Key> = sample.entries.iter().map(|e| e.key).collect();
            // Soundness: every returned key is a corpus key inside the range.
            for key in &got {
                assert!(*key >= lo && *key <= hi, "key {key:?} outside range");
                assert!(corpus.binary_search(key).is_ok(), "fabricated key {key:?}");
            }
            // Completeness: every key all replicas agree on must be present.
            let certain_post = certainly_stored_keys(&rt, lo, hi);
            let certain: Vec<Key> = certain_pre
                .into_iter()
                .filter(|k| certain_post.contains(k))
                .collect();
            for key in &certain {
                assert!(
                    got.contains(key),
                    "range [{frac_lo}, {frac_hi}] missing {key:?}"
                );
            }
            // The walk should not be systematically lossy either: nearly the
            // whole brute-force corpus slice comes back.
            let in_range = corpus.iter().filter(|k| **k >= lo && **k <= hi).count();
            assert!(
                got.len() * 100 >= in_range * 95,
                "range [{frac_lo}, {frac_hi}] returned {}/{in_range}",
                got.len()
            );
        }
    }

    #[test]
    fn route_cache_returns_the_same_results() {
        let run = |route_cache: bool| {
            let mut rt = Runtime::new(NetConfig {
                n_peers: 48,
                seed: 3,
                route_cache,
                ..NetConfig::default()
            });
            for i in 0..48 {
                rt.join_peer(i, 4);
            }
            rt.replication_phase();
            rt.run_until(10_000);
            rt.start_construction();
            rt.run_until(400_000);
            let keys: Vec<_> = rt.original_entries.iter().map(|e| e.key).collect();
            for i in 0..100 {
                rt.issue_query(keys[i * 3 % keys.len()]);
                rt.run_until(rt.now() + 2_000);
            }
            rt.run_until(rt.now() + 30_000);
            rt.metrics.stats(IndexId::PRIMARY)
        };
        let cold = run(false);
        let warm = run(true);
        assert_eq!(cold.issued, warm.issued);
        // The cache changes routing trajectories (no per-hop shuffle), not
        // outcomes: success counts must stay in the same band.
        assert!(
            warm.succeeded >= cold.succeeded.saturating_sub(5),
            "cache degraded success rate: {} vs {}",
            warm.succeeded,
            cold.succeeded
        );
    }

    #[test]
    fn bandwidth_is_accounted_per_class() {
        let mut rt = small_runtime();
        for i in 0..48 {
            rt.join_peer(i, 4);
        }
        rt.replication_phase();
        rt.run_until(20_000);
        let maintenance: usize = rt
            .metrics
            .bandwidth_per_minute
            .values()
            .map(|b| b.maintenance_bytes)
            .sum();
        assert!(maintenance > 1_000);
        let query: usize = rt
            .metrics
            .bandwidth_per_minute
            .values()
            .map(|b| b.query_bytes)
            .sum();
        assert_eq!(query, 0);
    }

    #[test]
    fn churn_takes_peers_offline_and_back() {
        let mut rt = small_runtime();
        for i in 0..48 {
            rt.join_peer(i, 4);
        }
        rt.schedule_churn(0, 1_000, 5_000);
        rt.schedule_churn(1, 1_000, 5_000);
        rt.run_until(2_000);
        assert_eq!(rt.online_count(), 46);
        rt.run_until(10_000);
        assert_eq!(rt.online_count(), 48);
    }

    #[test]
    fn lost_messages_are_counted() {
        let mut rt = Runtime::new(NetConfig {
            n_peers: 16,
            loss_probability: 1.0,
            ..NetConfig::default()
        });
        for i in 0..16 {
            rt.join_peer(i, 4);
        }
        rt.replication_phase();
        rt.run_until(5_000);
        assert!(rt.metrics.messages_lost > 0);
        assert_eq!(rt.metrics.messages_delivered, 0);
    }

    /// Builds a sharded loopback runtime hosting peers `0..n-1` with the
    /// final peer pre-registered (an endpoint a "dead" worker used to own).
    fn sharded_with_spare(n: usize, seed: u64) -> Runtime {
        let config = NetConfig {
            n_peers: n,
            seed,
            ..NetConfig::default()
        };
        let mut transport = LoopbackTransport::new(LoopbackConfig {
            latency_min_ms: config.latency_min_ms,
            latency_max_ms: config.latency_max_ms,
            seed: config.seed ^ 0x7A4E,
        });
        transport
            .register(PeerId((n - 1) as u64))
            .expect("spare endpoint");
        Runtime::with_transport_sharded(config, transport, 0..n - 1).expect("sharded runtime")
    }

    #[test]
    fn replica_rebuild_restores_exact_keystore() {
        let mut rt = sharded_with_spare(24, 7);
        for i in 0..23 {
            rt.join_peer(i, 4);
        }
        rt.replication_phase();
        rt.run_until(10_000);
        rt.start_construction();
        rt.run_until(400_000);

        // Snapshot the live source peer 23 will be rebuilt from.
        let source = 0;
        let want_path = rt.nodes[source].state.path;
        let want_entries: Vec<DataEntry> = rt.nodes[source].state.store.iter().copied().collect();
        let mut want_routing: Vec<(usize, PeerId)> = rt.nodes[source]
            .state
            .routing
            .entries()
            .map(|(level, e)| (level, e.peer))
            .collect();
        want_routing.sort_unstable();
        assert!(!want_entries.is_empty(), "source must hold data");

        rt.adopt_peer(23);
        assert_eq!(rt.adopted_peers(), vec![23]);
        assert!(!rt.nodes[23].state.online, "adopted peer starts offline");
        rt.begin_replica_pull(23, source);
        assert_eq!(rt.pending_recoveries(), 1);
        let deadline = rt.now() + 30_000;
        while rt.pending_recoveries() > 0 && rt.now() < deadline {
            let next = rt.now() + 50;
            rt.run_until(next);
        }
        assert_eq!(rt.pending_recoveries(), 0, "pull must complete");
        assert_eq!(rt.replica_recovered_count(), 1);

        // Exact rebuild: path, every key, and the routing topology match
        // the replica snapshot bit-for-bit.
        let got = &rt.nodes[23].state;
        assert!(got.online);
        assert_eq!(got.path, want_path);
        let got_entries: Vec<DataEntry> = got.store.iter().copied().collect();
        assert_eq!(got_entries, want_entries);
        let mut got_routing: Vec<(usize, PeerId)> = got
            .routing
            .entries()
            .map(|(level, e)| (level, e.peer))
            .collect();
        got_routing.sort_unstable();
        assert_eq!(got_routing, want_routing);
        assert!(
            got.replicas.contains(&PeerId(source as u64)),
            "recovered peer must list its source as a replica"
        );
        assert!(!got.replicas.contains(&PeerId(23)));
        assert!(
            rt.nodes[source].state.replicas.contains(&PeerId(23)),
            "source must adopt the recovered peer as a replica"
        );
        assert_eq!(rt.metrics.peers_adopted, 1);
        assert_eq!(rt.metrics.peers_recovered_replica, 1);
    }

    #[test]
    fn local_recovery_fallback_restores_original_entries() {
        let mut rt = sharded_with_spare(16, 11);
        for i in 0..15 {
            rt.join_peer(i, 4);
        }
        rt.replication_phase();
        rt.run_until(10_000);

        // No live replica reachable: fall back to the seeded regeneration
        // every process holds (same seed => same original entries).
        let want: Vec<DataEntry> = rt.nodes[15].state.store.iter().copied().collect();
        assert!(!want.is_empty());
        rt.adopt_peer(15);
        let path = rt.nodes[15].state.path;
        rt.recover_locally(15, path);
        assert_eq!(rt.pending_recoveries(), 0);
        assert!(rt.nodes[15].state.online);
        let got: Vec<DataEntry> = rt.nodes[15].state.store.iter().copied().collect();
        assert_eq!(got, want);
        assert_eq!(rt.metrics.peers_recovered_local, 1);
    }

    /// Runs a converged construction and returns (runtime, peer, replica)
    /// where `peer` holds at least two entries and lists `replica`.
    fn converged_with_replica(seed: u64) -> (Runtime, usize, usize) {
        let mut rt = Runtime::new(NetConfig {
            n_peers: 16,
            seed,
            ..NetConfig::default()
        });
        for i in 0..16 {
            rt.join_peer(i, 4);
        }
        rt.replication_phase();
        rt.run_until(10_000);
        rt.start_construction();
        rt.run_until(400_000);
        for a in 0..16 {
            let state = &rt.nodes[a].state;
            if state.store.len() >= 2 && !state.path.is_empty() {
                if let Some(r) = state.replicas.first() {
                    let r = r.0 as usize;
                    return (rt, a, r);
                }
            }
        }
        panic!("no converged peer with data and a replica");
    }

    #[test]
    fn warm_restore_then_reconcile_merges_missing_entries() {
        let (mut rt, a, r) = converged_with_replica(9);
        let path = rt.nodes[a].state.path;
        let full: Vec<DataEntry> = rt.nodes[a].state.store.iter().copied().collect();
        let replica_set: std::collections::BTreeSet<DataEntry> =
            rt.nodes[r].state.store.iter().copied().collect();
        // Drop an entry the replica also holds: a stale journal image.
        let dropped = *full
            .iter()
            .find(|e| replica_set.contains(e))
            .expect("replica shares at least one entry");
        let stale: Vec<DataEntry> = full.iter().copied().filter(|e| *e != dropped).collect();
        let routing: Vec<(u8, PeerId, Path)> = rt.nodes[a]
            .state
            .routing
            .entries()
            .map(|(level, e)| (level as u8, e.peer, e.path))
            .collect();
        let replicas = rt.nodes[a].state.replicas.clone();

        rt.restore_peer(
            IndexId::PRIMARY,
            a,
            path,
            stale.clone(),
            routing,
            replicas,
            false,
        );
        assert_eq!(rt.metrics.peers_recovered_warm, 1);
        assert_eq!(rt.nodes[a].state.store.len(), full.len() - 1);
        assert!(rt.nodes[a].state.online);

        rt.begin_replica_diff(a, r);
        assert_eq!(rt.pending_reconciliations(), 1);
        assert_eq!(rt.reconciling_peers(), vec![a]);
        let deadline = rt.now() + 30_000;
        while rt.pending_reconciliations() > 0 && rt.now() < deadline {
            let next = rt.now() + 50;
            rt.run_until(next);
        }
        assert_eq!(rt.pending_reconciliations(), 0, "diff must complete");
        assert_eq!(rt.metrics.peers_reconciled, 1);
        assert!(rt.metrics.reconciled_entries >= 1);
        // Same partition: the replica's answer is merged, not adopted —
        // the dropped entry is back and nothing replayed was lost.
        let got: std::collections::BTreeSet<DataEntry> =
            rt.nodes[a].state.store.iter().copied().collect();
        assert_eq!(rt.nodes[a].state.path, path);
        assert!(got.contains(&dropped), "reconciliation restores the gap");
        for e in &stale {
            assert!(got.contains(e), "merge must not lose replayed entries");
        }
    }

    #[test]
    fn reconcile_adopts_diverged_partition_path() {
        let (mut rt, a, r) = converged_with_replica(13);
        let path = rt.nodes[a].state.path;
        let full: Vec<DataEntry> = rt.nodes[a].state.store.iter().copied().collect();
        let replicas = rt.nodes[a].state.replicas.clone();
        // Journal image from before the partition's last split: one bit
        // shorter than the live replicas' path.
        let mut parent = Path::ROOT;
        for i in 0..path.len() - 1 {
            parent = parent.child(path.bit(i));
        }
        rt.restore_peer(
            IndexId::PRIMARY,
            a,
            parent,
            full.clone(),
            Vec::new(),
            replicas,
            false,
        );
        assert_eq!(rt.nodes[a].state.path, parent);

        rt.begin_replica_diff(a, r);
        let deadline = rt.now() + 30_000;
        while rt.pending_reconciliations() > 0 && rt.now() < deadline {
            let next = rt.now() + 50;
            rt.run_until(next);
        }
        assert_eq!(rt.pending_reconciliations(), 0, "diff must complete");
        assert_eq!(rt.metrics.peers_reconciled, 1);
        // Diverged path: the replica's identity wins; replayed entries it
        // still covers are kept.
        let live_path = rt.nodes[a].state.path;
        assert_eq!(live_path, rt.nodes[r].state.path);
        let got: std::collections::BTreeSet<DataEntry> =
            rt.nodes[a].state.store.iter().copied().collect();
        for e in full.iter().filter(|e| live_path.covers(e.key)) {
            assert!(got.contains(e), "covered replayed entries survive adoption");
        }
    }

    #[test]
    fn link_failures_back_off_then_die_and_revive() {
        let mut rt = small_runtime();
        assert_eq!(rt.link_health(3), LinkHealth::Connected);
        assert!(rt.link_ok(3));

        rt.record_link_failure(3);
        match rt.link_health(3) {
            LinkHealth::Suspect { retry_at, failures } => {
                assert_eq!(failures, 1);
                assert_eq!(retry_at, rt.now() + LINK_SUSPECT_BACKOFF_MS);
            }
            other => panic!("expected Suspect, got {other:?}"),
        }
        assert!(rt.link_ok(3), "suspect links stay query candidates");

        rt.record_link_failure(3);
        match rt.link_health(3) {
            LinkHealth::Suspect { retry_at, failures } => {
                assert_eq!(failures, 2);
                // backoff doubles per consecutive failure
                assert_eq!(retry_at, rt.now() + 2 * LINK_SUSPECT_BACKOFF_MS);
            }
            other => panic!("expected Suspect, got {other:?}"),
        }

        rt.record_link_failure(3);
        assert_eq!(rt.link_health(3), LinkHealth::Dead);
        assert!(!rt.link_ok(3), "dead links are skipped as candidates");
        assert_eq!(rt.metrics.links_suspected, 1);
        assert_eq!(rt.metrics.links_dead, 1);

        rt.revive_link(3);
        assert_eq!(rt.link_health(3), LinkHealth::Connected);
        assert!(rt.link_ok(3));
    }
}
