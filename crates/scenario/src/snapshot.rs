//! Labelled measurements of a [`Runtime`]'s overlay quality and query
//! statistics.

use crate::scenario::MINUTE_MS;
use pgrid_core::balance::measure_overlay;
use pgrid_core::index::IndexId;
use pgrid_core::key::Key;
use pgrid_net::runtime::Runtime;
use pgrid_transport::Transport;

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
    /// Measures every index `runtime` hosts, under `label`.
    pub fn of<T: Transport>(runtime: &Runtime<T>, label: &str) -> OverlaySnapshot {
        let n_peers = runtime.config.n_peers;
        let indexes = runtime
            .index_ids()
            .into_iter()
            .map(|index| {
                let paths: Vec<_> = (0..n_peers)
                    .map(|peer| runtime.peer_state(index, peer).path)
                    .collect();
                let keys = query_keys(runtime, index);
                let quality = measure_overlay(&keys, n_peers, runtime.params(), &paths);
                let stats = runtime.metrics.stats(index);
                IndexSnapshot {
                    index,
                    mean_path_length: quality.mean_path_length,
                    balance_deviation: quality.deviation,
                    mean_replication: quality.mean_replication,
                    queries_issued: stats.issued as usize,
                    queries_succeeded: stats.succeeded as usize,
                    ranges_issued: stats.ranges_issued as usize,
                    ranges_complete: stats.ranges_complete as usize,
                    latency_p50_ms: stats.latency.p50(),
                    latency_p99_ms: stats.latency.p99(),
                    latency_p999_ms: stats.latency.p999(),
                }
            })
            .collect();
        OverlaySnapshot {
            label: label.to_string(),
            at_min: runtime.now() / MINUTE_MS,
            online: runtime.online_count(),
            indexes,
        }
    }

    /// The measurement of one index, if hosted.
    pub fn index(&self, index: IndexId) -> Option<&IndexSnapshot> {
        self.indexes.iter().find(|s| s.index == index)
    }
}

/// The keys of the ground-truth data assignment of `index` (the query
/// workload draws from these).
pub(crate) fn query_keys<T: Transport>(runtime: &Runtime<T>, index: IndexId) -> Vec<Key> {
    runtime
        .original_entries_of(index)
        .iter()
        .map(|e| e.key)
        .collect()
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
    /// Median lookup latency in milliseconds (`None` before any query was
    /// answered).
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
