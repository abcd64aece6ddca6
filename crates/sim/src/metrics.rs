//! Metrics collected by the construction simulator.

/// Counters accumulated while constructing the overlay.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ConstructionMetrics {
    /// Interactions initiated (one per contacted peer, including refer hops).
    pub interactions: usize,
    /// Interactions that resulted in no state change.
    pub fruitless_interactions: usize,
    /// Number of refer hops performed.
    pub refer_hops: usize,
    /// Number of balanced or unbalanced splits performed (path extensions).
    pub splits: usize,
    /// Number of replicate/reconcile interactions.
    pub replications: usize,
    /// Data keys moved over the network during the replication phase.
    pub replication_keys_moved: usize,
    /// Data keys moved during construction (splits and reconciliation).
    pub construction_keys_moved: usize,
    /// Number of parallel rounds until quiescence (the latency proxy).
    pub rounds: usize,
    /// Per-peer count of interactions initiated.
    pub per_peer_interactions: Vec<usize>,
}

impl ConstructionMetrics {
    /// Creates counters for `n` peers.
    pub fn new(n: usize) -> Self {
        ConstructionMetrics {
            per_peer_interactions: vec![0; n],
            ..ConstructionMetrics::default()
        }
    }

    /// Total keys moved (replication plus construction).
    pub fn total_keys_moved(&self) -> usize {
        self.replication_keys_moved + self.construction_keys_moved
    }

    /// Mean interactions initiated per peer.
    pub fn interactions_per_peer(&self) -> f64 {
        if self.per_peer_interactions.is_empty() {
            return 0.0;
        }
        self.interactions as f64 / self.per_peer_interactions.len() as f64
    }

    /// Mean keys moved per peer.
    pub fn keys_moved_per_peer(&self) -> f64 {
        if self.per_peer_interactions.is_empty() {
            return 0.0;
        }
        self.total_keys_moved() as f64 / self.per_peer_interactions.len() as f64
    }

    /// Adds one executor delta to the totals.
    pub fn absorb(&mut self, delta: &MetricsDelta) {
        self.interactions += delta.interactions;
        self.fruitless_interactions += delta.fruitless_interactions;
        self.refer_hops += delta.refer_hops;
        self.splits += delta.splits;
        self.replications += delta.replications;
        self.construction_keys_moved += delta.keys_moved;
        for &(initiator, contacts) in &delta.per_initiator {
            self.per_peer_interactions[initiator] += contacts;
        }
    }
}

/// Metric increments accumulated by one executor worker over its share of a
/// batch of interactions.
///
/// Every field is a plain sum (the per-initiator pairs are disjoint because
/// each peer initiates at most once per round), so merging worker deltas in
/// any grouping produces the same totals — the property that makes the
/// parallel constructor's metrics independent of the thread count.
#[derive(Clone, Debug, Default)]
pub struct MetricsDelta {
    /// Interactions initiated (one per contacted peer, including refer hops).
    pub interactions: usize,
    /// Interactions that resulted in no state change.
    pub fruitless_interactions: usize,
    /// Refer hops performed.
    pub refer_hops: usize,
    /// Path extensions of the applied exchanges.
    pub splits: usize,
    /// Replication relationships the applied exchanges established or
    /// refreshed.
    pub replications: usize,
    /// Data entries the applied exchanges moved between peers.
    pub keys_moved: usize,
    /// `(initiator, contacts)` pairs feeding the per-peer counters.
    pub per_initiator: Vec<(usize, usize)>,
}

impl MetricsDelta {
    /// Adds another worker's delta to this one.
    pub fn merge(&mut self, other: &MetricsDelta) {
        self.interactions += other.interactions;
        self.fruitless_interactions += other.fruitless_interactions;
        self.refer_hops += other.refer_hops;
        self.splits += other.splits;
        self.replications += other.replications;
        self.keys_moved += other.keys_moved;
        self.per_initiator.extend_from_slice(&other.per_initiator);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_peer_averages() {
        let mut m = ConstructionMetrics::new(4);
        m.interactions = 8;
        m.replication_keys_moved = 20;
        m.construction_keys_moved = 12;
        assert_eq!(m.total_keys_moved(), 32);
        assert!((m.interactions_per_peer() - 2.0).abs() < 1e-12);
        assert!((m.keys_moved_per_peer() - 8.0).abs() < 1e-12);
        let empty = ConstructionMetrics::default();
        assert_eq!(empty.interactions_per_peer(), 0.0);
    }

    #[test]
    fn deltas_merge_and_absorb() {
        let mut a = MetricsDelta {
            interactions: 3,
            fruitless_interactions: 1,
            refer_hops: 2,
            splits: 1,
            keys_moved: 7,
            per_initiator: vec![(0, 3)],
            ..MetricsDelta::default()
        };
        let b = MetricsDelta {
            interactions: 2,
            replications: 1,
            per_initiator: vec![(2, 2)],
            ..MetricsDelta::default()
        };
        a.merge(&b);
        let mut m = ConstructionMetrics::new(4);
        m.absorb(&a);
        assert_eq!(m.interactions, 5);
        assert_eq!(m.fruitless_interactions, 1);
        assert_eq!(m.refer_hops, 2);
        assert_eq!(m.splits, 1);
        assert_eq!(m.replications, 1);
        assert_eq!(m.construction_keys_moved, 7);
        assert_eq!(m.per_peer_interactions, vec![3, 0, 2, 0]);
    }
}
