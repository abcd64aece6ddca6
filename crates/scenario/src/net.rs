//! [`Overlay`] for the message-level deployment runtime (any transport).

use crate::overlay::{IndexSnapshot, Millis, Overlay, OverlaySnapshot, MINUTE_MS};
use pgrid_core::balance::measure_overlay;
use pgrid_core::index::IndexId;
use pgrid_core::key::Key;
use pgrid_core::routing::PeerId;
use pgrid_net::runtime::Runtime;
use pgrid_transport::Transport;

impl<T: Transport> Overlay for Runtime<T> {
    fn n_peers(&self) -> usize {
        self.config.n_peers
    }

    fn now(&self) -> Millis {
        Runtime::now(self)
    }

    fn advance_to(&mut self, until: Millis) {
        self.run_until(until);
    }

    fn join(&mut self, peer: usize, fanout: usize) {
        self.join_peer(peer, fanout);
    }

    fn join_with_neighbours(&mut self, peer: usize, neighbours: Vec<PeerId>) {
        self.join_peer_with_neighbours(peer, neighbours);
    }

    fn schedule_leave(&mut self, peer: usize, at: Millis, downtime: Millis) {
        self.schedule_churn(peer, at, downtime);
    }

    fn begin_replication(&mut self, index: IndexId) {
        self.replication_phase_on(index);
    }

    fn begin_construction(&mut self, index: IndexId) {
        self.start_construction_on(index);
    }

    fn quiescent(&self) -> bool {
        self.construction_quiescent()
    }

    fn has_index(&self, index: IndexId) -> bool {
        self.has_index_state(index)
    }

    fn insert(&mut self, index: IndexId, peer: usize, keys: Vec<Key>) {
        self.insert_entries(index, peer, keys);
    }

    fn issue_query(&mut self, index: IndexId, key: Key) {
        self.issue_query_on(index, key);
    }

    fn issue_range_query(&mut self, index: IndexId, lo: Key, hi: Key) {
        self.issue_range_query_on(index, lo, hi);
    }

    fn query_keys(&self, index: IndexId) -> Vec<Key> {
        self.original_entries_of(index)
            .iter()
            .map(|e| e.key)
            .collect()
    }

    fn query_timeout_ms(&self) -> Millis {
        self.config.query_timeout_ms
    }

    fn capture_stores(&self) -> Vec<(usize, pgrid_core::store::KeyStore)> {
        self.capture_primary_stores()
    }

    fn inject_partition(&mut self, groups: &[Vec<usize>], from: Millis, until: Millis) -> bool {
        let groups = groups
            .iter()
            .map(|g| g.iter().map(|&p| PeerId(p as u64)).collect())
            .collect();
        self.inject_link_fault(pgrid_transport::LinkFault::Partition {
            groups,
            from,
            until,
        })
    }

    fn snapshot(&self, label: &str) -> OverlaySnapshot {
        let online = self.online_count();
        let indexes = self
            .index_ids()
            .into_iter()
            .map(|index| {
                let paths: Vec<_> = (0..self.config.n_peers)
                    .map(|peer| self.peer_state(index, peer).path)
                    .collect();
                let keys = self.query_keys(index);
                let quality = measure_overlay(&keys, self.config.n_peers, self.params(), &paths);
                let stats = self.metrics.stats(index);
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
            at_min: Runtime::now(self) / MINUTE_MS,
            online,
            indexes,
        }
    }
}
