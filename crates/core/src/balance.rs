//! Load-balance quality metric.
//!
//! Section 4.4 evaluates the decentralized construction by comparing the
//! resulting distribution of peers over key space partitions
//! `(π'_i, n'_i)` with the distribution `(π_i, n_i)` produced by the global
//! reference partitioner (Algorithm 1), which is treated as optimal.  The
//! metric is the root-mean-square difference of per-partition peer counts,
//! normalised by the average reference replication, so a value of e.g. `0.4`
//! means the typical partition deviates from its optimal replica count by
//! 40% of the average replication factor.
//!
//! The decentralized trie does not necessarily have the same leaves as the
//! reference trie, so peer counts are compared *on the reference leaves*:
//! a peer whose path is deeper than a reference leaf counts fully towards
//! the leaf that covers it; a peer whose path is shorter (it is responsible
//! for a super-partition) contributes to each covered reference leaf in
//! proportion to the leaf's share of the peer's partition.

use crate::key::Key;
use crate::path::Path;
use crate::reference::{BalanceParams, ReferencePartitioning};

/// Per-leaf comparison between the reference partitioning and an observed
/// peer placement.
#[derive(Clone, Debug)]
pub struct LeafComparison {
    /// Reference leaf path.
    pub path: Path,
    /// Peers the reference assigns to this leaf (fractional).
    pub reference_peers: f64,
    /// Peers the observed placement effectively assigns to this leaf.
    pub observed_peers: f64,
}

/// Result of comparing an observed peer placement against the reference.
#[derive(Clone, Debug)]
pub struct BalanceReport {
    /// Per-leaf details (in canonical key order).
    pub leaves: Vec<LeafComparison>,
    /// Normalised RMS deviation (the paper's load-balance quality measure;
    /// lower is better, `0` is a perfect match).
    pub deviation: f64,
    /// Mean reference replication factor used for normalisation.
    pub mean_replication: f64,
}

/// Computes the observed peer count on each reference leaf and the
/// normalised RMS deviation.
///
/// `peer_paths` are the final paths of all peers produced by the
/// decentralized construction.
pub fn compare_to_reference(
    reference: &ReferencePartitioning,
    peer_paths: &[Path],
) -> BalanceReport {
    let mut leaves: Vec<LeafComparison> = reference
        .leaves
        .iter()
        .map(|l| LeafComparison {
            path: l.path,
            reference_peers: l.peers,
            observed_peers: 0.0,
        })
        .collect();

    for peer in peer_paths {
        for leaf in leaves.iter_mut() {
            if leaf.path.is_prefix_of(peer) {
                // Peer is at or below the reference leaf: full contribution.
                leaf.observed_peers += 1.0;
            } else if peer.is_prefix_of(&leaf.path) {
                // Peer is responsible for a super-partition of the leaf: its
                // capacity is spread uniformly over the leaf's share.
                leaf.observed_peers += 2f64.powi(-((leaf.path.len() - peer.len()) as i32));
            }
        }
    }

    let k = leaves.len().max(1) as f64;
    let mean_replication = reference.total_peers() / k;
    let ssq: f64 = leaves
        .iter()
        .map(|l| (l.reference_peers - l.observed_peers).powi(2))
        .sum();
    let deviation = if mean_replication > 0.0 {
        (ssq / k).sqrt() / mean_replication
    } else {
        0.0
    };

    BalanceReport {
        leaves,
        deviation,
        mean_replication,
    }
}

/// The overlay-quality numbers every engine reports about a peer placement.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct OverlayQuality {
    /// Load-balance deviation from the reference partitioning (see
    /// [`compare_to_reference`]).
    pub deviation: f64,
    /// Mean trie depth of the peer paths (≈ mean search path length).
    pub mean_path_length: f64,
    /// Mean number of peers per distinct leaf partition of the observed
    /// trie (not the reference's).
    pub mean_replication: f64,
}

/// Measures a peer placement: computes the reference partitioning of
/// `keys` over `n_peers` peers under `params`, compares `peer_paths` with
/// it, and averages depth and replication over the observed trie.
pub fn measure_overlay(
    keys: &[Key],
    n_peers: usize,
    params: BalanceParams,
    peer_paths: &[Path],
) -> OverlayQuality {
    let reference = ReferencePartitioning::compute(keys, n_peers, params);
    let deviation = compare_to_reference(&reference, peer_paths).deviation;
    let mean_path_length =
        peer_paths.iter().map(|p| p.len() as f64).sum::<f64>() / peer_paths.len().max(1) as f64;
    let replication = crate::trie::peer_count_trie(peer_paths);
    let mean_replication = if replication.is_empty() {
        0.0
    } else {
        replication.iter().map(|(_, &n)| n as f64).sum::<f64>() / replication.len() as f64
    };
    OverlayQuality {
        deviation,
        mean_path_length,
        mean_replication,
    }
}

/// Storage-balance statistics over a set of peers: per-peer responsible
/// load, useful for checking the `delta_max` criterion directly.
#[derive(Clone, Debug, Default)]
pub struct StorageStats {
    /// Minimum per-peer load.
    pub min: usize,
    /// Maximum per-peer load.
    pub max: usize,
    /// Mean per-peer load.
    pub mean: f64,
    /// Coefficient of variation (std/mean) of per-peer load.
    pub cv: f64,
}

/// Computes storage statistics from per-peer responsible loads.
pub fn storage_stats(loads: &[usize]) -> StorageStats {
    if loads.is_empty() {
        return StorageStats::default();
    }
    let n = loads.len() as f64;
    let mean = loads.iter().sum::<usize>() as f64 / n;
    let var = loads
        .iter()
        .map(|&l| (l as f64 - mean).powi(2))
        .sum::<f64>()
        / n;
    StorageStats {
        min: *loads.iter().min().unwrap(),
        max: *loads.iter().max().unwrap(),
        mean,
        cv: if mean > 0.0 { var.sqrt() / mean } else { 0.0 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_reference(n_keys: usize, n_peers: usize) -> ReferencePartitioning {
        let keys: Vec<Key> = (0..n_keys)
            .map(|i| Key::from_fraction((i as f64 + 0.5) / n_keys as f64))
            .collect();
        ReferencePartitioning::compute(&keys, n_peers, BalanceParams::new(n_keys / 4, 2))
    }

    #[test]
    fn perfect_placement_has_zero_deviation() {
        let reference = uniform_reference(400, 16);
        // Place exactly the reference number of peers (they are integral for
        // a perfectly uniform distribution) on every leaf.
        let mut peers = Vec::new();
        for leaf in &reference.leaves {
            for _ in 0..leaf.peers.round() as usize {
                peers.push(leaf.path);
            }
        }
        let report = compare_to_reference(&reference, &peers);
        assert!(report.deviation < 1e-9, "deviation {}", report.deviation);
    }

    #[test]
    fn missing_peers_increase_deviation() {
        let reference = uniform_reference(400, 16);
        // Pile every peer onto the first leaf.
        let first = reference.leaves[0].path;
        let peers = vec![first; 16];
        let report = compare_to_reference(&reference, &peers);
        assert!(report.deviation > 0.5, "deviation {}", report.deviation);
    }

    #[test]
    fn shallow_peers_contribute_fractionally() {
        let reference = uniform_reference(400, 16);
        // All peers still at the root: each contributes 1/K to every leaf.
        let peers = vec![Path::root(); 16];
        let report = compare_to_reference(&reference, &peers);
        let k = reference.leaves.len() as f64;
        for leaf in &report.leaves {
            assert!((leaf.observed_peers - 16.0 / k).abs() < 1e-9);
        }
        // Uniform reference assigns 16/K per leaf as well, so deviation is 0:
        // the root placement covers uniform data perfectly (it just has not
        // specialised yet).
        assert!(report.deviation < 1e-9);
    }

    #[test]
    fn deviation_is_scale_free_in_replication() {
        // Doubling both the reference peers and the observed peers should
        // leave the normalised deviation unchanged.
        let reference_small = uniform_reference(400, 16);
        let reference_big = uniform_reference(400, 32);
        let peers_small = vec![reference_small.leaves[0].path; 16];
        let peers_big = vec![reference_big.leaves[0].path; 32];
        let d_small = compare_to_reference(&reference_small, &peers_small).deviation;
        let d_big = compare_to_reference(&reference_big, &peers_big).deviation;
        assert!((d_small - d_big).abs() < 0.05);
    }

    #[test]
    fn storage_stats_basics() {
        let stats = storage_stats(&[10, 10, 10, 10]);
        assert_eq!(stats.min, 10);
        assert_eq!(stats.max, 10);
        assert!((stats.mean - 10.0).abs() < 1e-12);
        assert!(stats.cv.abs() < 1e-12);
        let skewed = storage_stats(&[0, 0, 0, 40]);
        assert!(skewed.cv > 1.0);
        let empty = storage_stats(&[]);
        assert_eq!(empty.max, 0);
    }
}
