//! What the runtime measures: per-class bandwidth, message and recovery
//! counters, bounded query aggregates and the capped debug sample rings.
//! Owns no protocol state — the other seams only write into it; entry
//! points are [`NetMetrics::stats`] and [`NetMetrics::to_registry`].

use super::{check_index, Millis};
use pgrid_core::histogram::LogHistogram;
use pgrid_core::index::IndexId;
use pgrid_core::key::{DataEntry, Key};
use std::collections::{BTreeMap, VecDeque};

/// Classified bandwidth counters for one time bucket.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BandwidthSample {
    /// Bytes of maintenance traffic (join, replicate, exchange).
    pub maintenance_bytes: usize,
    /// Bytes of query traffic.
    pub query_bytes: usize,
}

/// Default capacity of the debug sample rings (see
/// [`NetConfig::query_sample_cap`](super::NetConfig::query_sample_cap)).
pub const DEFAULT_QUERY_SAMPLE_CAP: usize = 256;

/// Record of one *resolved* query (answered or timed out), kept in the
/// capped debug sample ring.  All statistics live in [`QueryAggregates`];
/// these records exist only to inspect recent individual queries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueryRecord {
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
    /// Always [`IndexId::PRIMARY`], the one index a runtime hosts.
    pub index: IndexId,
    /// The query identifier [`Runtime::issue_range_query_on`](super::Runtime::issue_range_query_on) returned.
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

    /// Adds another bucket into this one (shard merge; the count saturates,
    /// since a worker's bucket arrives decoded from the wire).
    pub fn merge(&mut self, other: &MinuteLatency) {
        self.count = self.count.saturating_add(other.count);
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

/// Bounded-memory query statistics.
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

    /// Adds another shard's aggregates into this one.  Counters saturate:
    /// a worker's aggregates arrive decoded from the wire.
    pub fn merge(&mut self, other: &QueryAggregates) {
        self.issued = self.issued.saturating_add(other.issued);
        self.answered = self.answered.saturating_add(other.answered);
        self.succeeded = self.succeeded.saturating_add(other.succeeded);
        self.timed_out = self.timed_out.saturating_add(other.timed_out);
        self.late_responses = self.late_responses.saturating_add(other.late_responses);
        self.hops_sum_successful = self
            .hops_sum_successful
            .saturating_add(other.hops_sum_successful);
        self.latency.merge(&other.latency);
        self.ranges_issued = self.ranges_issued.saturating_add(other.ranges_issued);
        self.ranges_complete = self.ranges_complete.saturating_add(other.ranges_complete);
        self.range_latency.merge(&other.range_latency);
        for (minute, bucket) in &other.per_minute {
            self.per_minute.entry(*minute).or_default().merge(bucket);
        }
    }
}

/// Aggregate statistics collected by the runtime.
#[derive(Clone, Debug, Default)]
pub struct NetMetrics {
    /// Bandwidth per one-minute bucket of virtual time.
    pub bandwidth_per_minute: BTreeMap<u64, BandwidthSample>,
    /// Bounded query statistics.
    pub query_stats: QueryAggregates,
    /// The most recent resolved lookups, capped at
    /// [`NetMetrics::sample_cap`].
    pub query_samples: VecDeque<QueryRecord>,
    /// The most recent resolved range queries, capped at
    /// [`NetMetrics::sample_cap`].
    pub range_samples: VecDeque<RangeSample>,
    /// Capacity of the two sample rings: the runtime sets it from
    /// [`NetConfig::query_sample_cap`](super::NetConfig::query_sample_cap);
    /// `0` (the derived default) keeps no samples.
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
    /// Entries walked to digest a partition, for an offer or a responder's
    /// check of one (a memoised summary walks none).
    pub digested_entries: usize,
}

/// Appends to a sample ring holding at most `cap` items, dropping the
/// oldest.
fn push_capped<S>(ring: &mut VecDeque<S>, cap: usize, sample: S) {
    if cap == 0 {
        return;
    }
    if ring.len() == cap {
        ring.pop_front();
    }
    ring.push_back(sample);
}

impl NetMetrics {
    /// A copy of [`NetMetrics::query_stats`]; `index` must be
    /// [`IndexId::PRIMARY`].
    pub fn stats(&self, index: IndexId) -> QueryAggregates {
        check_index(index);
        self.query_stats.clone()
    }

    pub(super) fn push_query_sample(&mut self, record: QueryRecord) {
        push_capped(&mut self.query_samples, self.sample_cap, record);
    }

    pub(super) fn push_range_sample(&mut self, sample: RangeSample) {
        push_capped(&mut self.range_samples, self.sample_cap, sample);
    }

    /// Populates `registry` with the runtime counters — message-level
    /// totals, query aggregates, latency percentile gauges and the full
    /// latency histogram.  The one producer the text renderer and the live
    /// scrape endpoint share.
    pub fn to_registry(&self, registry: &mut pgrid_obs::registry::MetricsRegistry) {
        let totals = &self.query_stats;
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
    }

    /// Renders the runtime counters in the Prometheus text exposition
    /// format through the shared [`pgrid_obs::registry::MetricsRegistry`]
    /// encoder, including the query latency histogram and its
    /// p50/p99/p999 gauges.
    pub fn metrics_text(&self) -> String {
        let mut registry = pgrid_obs::registry::MetricsRegistry::new();
        self.to_registry(&mut registry);
        registry.encode()
    }

    /// Charges `size` wire bytes sent at `now` to the query or the
    /// maintenance class of that minute's bucket.
    pub(super) fn account(&mut self, now: Millis, size: usize, query_traffic: bool) {
        let minute = now / 60_000;
        // Time only moves forward: the bucket is the last one or a new one.
        let bucket = match self.bandwidth_per_minute.last_entry() {
            Some(last) if *last.key() == minute => last.into_mut(),
            _ => self.bandwidth_per_minute.entry(minute).or_default(),
        };
        if query_traffic {
            bucket.query_bytes += size;
        } else {
            bucket.maintenance_bytes += size;
        }
    }
}
