//! The global reference partitioner (`Partition(P, n, d)`, Algorithm 1).
//!
//! The paper uses this algorithm — which assumes *global knowledge* of the
//! key distribution and the peer population — to define what an *optimal*
//! load-balanced partitioning looks like.  The decentralized construction is
//! then evaluated by its deviation from this reference (Section 4.4).
//!
//! Given a partition holding `d` data keys and `n` associated peers the
//! algorithm bisects the partition at its binary midpoint into sub-partitions
//! holding `d_l` and `d_r` keys and assigns peers proportionally to the data
//! load (`n_l = n * d_l / d`), subject to two load-balancing criteria:
//!
//! 1. **maximum storage load** `delta_max`: a partition is only split while
//!    it holds more than `delta_max` keys;
//! 2. **minimum replication factor** `n_min`: every partition keeps at least
//!    `n_min` peers, so a split only happens if both sides can be given at
//!    least `n_min` peers; when the proportional share of one side would
//!    drop below `n_min`, that side is topped up to exactly `n_min`.

use crate::key::Key;
use crate::path::{Path, MAX_PATH_LEN};
use crate::trie::PartitionTrie;

/// Load-balancing parameters of the reference partitioner (and of the
/// decentralized construction, which receives the same parameters from the
/// initiation phase, Section 4.1/4.2).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct BalanceParams {
    /// Maximum number of data keys a partition may hold before it must be
    /// split (`delta_max` in the paper).
    pub delta_max: usize,
    /// Minimum number of replica peers per partition (`n_min`).
    pub n_min: usize,
}

impl BalanceParams {
    /// Creates a parameter set.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is zero.
    pub fn new(delta_max: usize, n_min: usize) -> Self {
        assert!(delta_max > 0, "delta_max must be positive");
        assert!(n_min > 0, "n_min must be positive");
        BalanceParams { delta_max, n_min }
    }

    /// The parameter choice used by the paper's experiments (Section 4.4
    /// uses `delta_max = 10 * n_min` with 10 keys per peer):
    /// `delta_max = d_avg * n_min`, where `d_avg` is the average number of
    /// data keys per peer before replication.  This is exactly the perfect
    /// load-balance condition `d_total * n_min = N * delta_max` of
    /// Section 2.2.
    pub fn recommended(avg_keys_per_peer: f64, n_min: usize) -> Self {
        let delta_max = (avg_keys_per_peer * n_min as f64).ceil().max(1.0) as usize;
        BalanceParams::new(delta_max, n_min)
    }
}

/// One leaf of the reference partitioning.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct ReferenceLeaf {
    /// The partition path.
    pub path: Path,
    /// Number of peers the reference assigns to this partition (fractional:
    /// the proportional assignment does not round).
    pub peers: f64,
    /// Number of data keys in this partition.
    pub load: usize,
}

/// Result of running the global reference partitioner.
#[derive(Clone, Debug, Default)]
pub struct ReferencePartitioning {
    /// Leaves in canonical key-space order.
    pub leaves: Vec<ReferenceLeaf>,
}

impl ReferencePartitioning {
    /// Computes the reference partitioning for the (global multiset of) data
    /// keys and `n_peers` peers.
    ///
    /// The key slice does not need to be sorted; it is sorted internally.
    pub fn compute(keys: &[Key], n_peers: usize, params: BalanceParams) -> ReferencePartitioning {
        let mut sorted: Vec<Key> = keys.to_vec();
        sorted.sort_unstable();
        let mut leaves = Vec::new();
        partition_rec(&sorted, n_peers as f64, Path::root(), params, &mut leaves);
        leaves.sort_by_key(|l| l.path);
        ReferencePartitioning { leaves }
    }

    /// Number of leaf partitions.
    pub fn num_partitions(&self) -> usize {
        self.leaves.len()
    }

    /// Total (fractional) peers across leaves — equals the input peer count
    /// up to floating point error.
    pub fn total_peers(&self) -> f64 {
        self.leaves.iter().map(|l| l.peers).sum()
    }

    /// Maximum leaf depth of the reference trie.
    pub fn depth(&self) -> usize {
        self.leaves.iter().map(|l| l.path.len()).max().unwrap_or(0)
    }

    /// Mean leaf depth of the reference trie.
    pub fn mean_depth(&self) -> f64 {
        if self.leaves.is_empty() {
            return 0.0;
        }
        self.leaves.iter().map(|l| l.path.len() as f64).sum::<f64>() / self.leaves.len() as f64
    }

    /// Returns the reference load as a trie keyed by path.
    pub fn load_trie(&self) -> PartitionTrie<usize> {
        let mut trie = PartitionTrie::new();
        for leaf in &self.leaves {
            trie.insert(leaf.path, leaf.load);
        }
        trie
    }
}

/// Recursive bisection following Algorithm 1.
///
/// `keys` must be sorted and contain exactly the keys of the current
/// partition `path`; `n` is the (fractional) number of peers assigned to it.
fn partition_rec(
    keys: &[Key],
    n: f64,
    path: Path,
    params: BalanceParams,
    out: &mut Vec<ReferenceLeaf>,
) {
    let d = keys.len();
    let overloaded = d > params.delta_max;
    let splittable = n >= 2.0 * params.n_min as f64 && path.len() < MAX_PATH_LEN;
    if !(overloaded && splittable) {
        out.push(ReferenceLeaf {
            path,
            peers: n,
            load: d,
        });
        return;
    }

    // Bisect at the binary midpoint of the partition's interval.
    let left_path = path.child(false);
    let right_path = path.child(true);
    let mid = left_path.upper_key();
    // `keys` is sorted, so the split point is found by partition_point.
    let split = keys.partition_point(|&k| k <= mid);
    let (left_keys, right_keys) = keys.split_at(split);
    let (dl, dr) = (left_keys.len() as f64, right_keys.len() as f64);

    // Proportional peer assignment (lines 3/7 of Algorithm 1), floored at
    // n_min on the lighter side when necessary.
    let n_min = params.n_min as f64;
    let (nl, nr) = if dl + dr == 0.0 {
        (n / 2.0, n / 2.0)
    } else {
        let prop_l = n * dl / (dl + dr);
        let prop_r = n - prop_l;
        if prop_l >= n_min && prop_r >= n_min {
            (prop_l, prop_r)
        } else if prop_l < prop_r {
            (n_min, n - n_min)
        } else {
            (n - n_min, n_min)
        }
    };

    partition_rec(left_keys, nl, left_path, params, out);
    partition_rec(right_keys, nr, right_path, params, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_keys(n: usize) -> Vec<Key> {
        (0..n)
            .map(|i| Key::from_fraction((i as f64 + 0.5) / n as f64))
            .collect()
    }

    fn skewed_keys(n: usize) -> Vec<Key> {
        // concentrate 80% of keys in [0, 0.1)
        (0..n)
            .map(|i| {
                let x = i as f64 / n as f64;
                if i % 5 != 0 {
                    Key::from_fraction(x * 0.1)
                } else {
                    Key::from_fraction(0.1 + x * 0.9)
                }
            })
            .collect()
    }

    #[test]
    fn no_split_when_underloaded() {
        let keys = uniform_keys(10);
        let r = ReferencePartitioning::compute(&keys, 100, BalanceParams::new(100, 5));
        assert_eq!(r.num_partitions(), 1);
        assert_eq!(r.leaves[0].path, Path::root());
        assert_eq!(r.leaves[0].load, 10);
        assert!((r.leaves[0].peers - 100.0).abs() < 1e-9);
    }

    #[test]
    fn no_split_when_too_few_peers() {
        let keys = uniform_keys(1000);
        let r = ReferencePartitioning::compute(&keys, 8, BalanceParams::new(10, 5));
        // 8 peers < 2 * n_min = 10, cannot split even though overloaded.
        assert_eq!(r.num_partitions(), 1);
    }

    #[test]
    fn balanced_split_for_uniform_keys() {
        let keys = uniform_keys(1024);
        let params = BalanceParams::new(64, 4);
        let r = ReferencePartitioning::compute(&keys, 128, params);
        assert!(r.num_partitions() > 1);
        // conservation of peers and load
        assert!((r.total_peers() - 128.0).abs() < 1e-6);
        assert_eq!(r.leaves.iter().map(|l| l.load).sum::<usize>(), 1024);
        // every leaf respects the storage bound or could not be split further
        for leaf in &r.leaves {
            assert!(leaf.load <= params.delta_max || leaf.peers < 2.0 * params.n_min as f64);
            assert!(leaf.peers >= params.n_min as f64 - 1e-9);
        }
        // uniform keys should give a (nearly) balanced trie
        let depths: Vec<usize> = r.leaves.iter().map(|l| l.path.len()).collect();
        let min = *depths.iter().min().unwrap();
        let max = *depths.iter().max().unwrap();
        assert!(
            max - min <= 1,
            "uniform trie should be balanced: {min}..{max}"
        );
    }

    #[test]
    fn skewed_keys_make_deeper_partitions_where_dense() {
        let keys = skewed_keys(2000);
        let params = BalanceParams::new(50, 5);
        let r = ReferencePartitioning::compute(&keys, 400, params);
        assert!(r.num_partitions() > 2);
        // the dense region [0, 0.1) must be covered by deeper leaves than the
        // sparse region around 0.9
        let leaf_for = |x| {
            let key = Key::from_fraction(x);
            r.leaves.iter().find(|l| l.path.covers(key)).unwrap()
        };
        let dense = leaf_for(0.05);
        let sparse = leaf_for(0.9);
        assert!(dense.path.len() > sparse.path.len());
        // peers follow load: per-key replication should be roughly constant
        let dense_rep = dense.peers / dense.load.max(1) as f64;
        let sparse_rep = sparse.peers / sparse.load.max(1) as f64;
        assert!(dense_rep > 0.0 && sparse_rep > 0.0);
    }

    #[test]
    fn leaves_form_complete_prefix_free_partition() {
        let keys = skewed_keys(3000);
        let r = ReferencePartitioning::compute(&keys, 300, BalanceParams::new(40, 5));
        let trie = r.load_trie();
        assert!(trie.is_prefix_free());
        assert!(trie.is_complete_partition());
    }

    #[test]
    fn leaf_for_finds_covering_partition() {
        let keys = uniform_keys(512);
        let r = ReferencePartitioning::compute(&keys, 64, BalanceParams::new(32, 4));
        for &x in &[0.01, 0.3, 0.55, 0.99] {
            let k = Key::from_fraction(x);
            assert_eq!(r.leaves.iter().filter(|l| l.path.covers(k)).count(), 1);
        }
    }

    #[test]
    fn recommended_params() {
        let p = BalanceParams::recommended(10.0, 5);
        assert_eq!(p.delta_max, 50);
        assert_eq!(p.n_min, 5);
    }

    #[test]
    #[should_panic]
    fn zero_nmin_rejected() {
        BalanceParams::new(10, 0);
    }
}
