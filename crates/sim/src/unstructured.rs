//! The pre-existing unstructured overlay network.
//!
//! The paper assumes a generic unstructured overlay (a random graph) over
//! which peers can perform random walks to sample interaction partners
//! uniformly and pick random peers for the initial replication phase.

use rand::seq::SliceRandom;
use rand::Rng;

/// A random-graph unstructured overlay over `n` peers.
#[derive(Clone, Debug)]
pub struct UnstructuredOverlay {
    adjacency: Vec<Vec<usize>>,
}

impl UnstructuredOverlay {
    /// Builds a connected random graph where every peer knows roughly
    /// `degree` neighbours: a ring (for guaranteed connectivity) plus random
    /// extra edges.
    pub fn random<R: Rng + ?Sized>(n: usize, degree: usize, rng: &mut R) -> UnstructuredOverlay {
        assert!(n >= 2, "need at least two peers");
        let mut adjacency = vec![Vec::new(); n];
        // Ring backbone guarantees connectivity.
        for i in 0..n {
            let next = (i + 1) % n;
            adjacency[i].push(next);
            adjacency[next].push(i);
        }
        // Random shortcuts up to the requested degree.
        let extra = degree.saturating_sub(2);
        for i in 0..n {
            for _ in 0..extra {
                let j = rng.gen_range(0..n);
                if j != i && !adjacency[i].contains(&j) {
                    adjacency[i].push(j);
                    adjacency[j].push(i);
                }
            }
        }
        UnstructuredOverlay { adjacency }
    }

    /// Number of peers.
    pub fn len(&self) -> usize {
        self.adjacency.len()
    }

    /// Whether the overlay is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.adjacency.is_empty()
    }

    /// Neighbours of a peer.
    pub fn neighbours(&self, peer: usize) -> &[usize] {
        &self.adjacency[peer]
    }

    /// Performs a random walk of the given length starting at `from` and
    /// returns the terminal peer.  A sufficiently long walk on the random
    /// graph approximates a uniform sample of the peer population, which is
    /// how peers realise the "select a peer uniformly at random" primitive
    /// of the partitioning algorithm without global knowledge.
    pub fn random_walk<R: Rng + ?Sized>(&self, from: usize, steps: usize, rng: &mut R) -> usize {
        let mut current = from;
        for _ in 0..steps {
            current = *self.adjacency[current]
                .choose(rng)
                .expect("graph has no isolated peers");
        }
        current
    }

    /// Samples a peer different from `from` via a random walk, retrying a
    /// few times if the walk happens to end at the starting peer.
    pub fn sample_other<R: Rng + ?Sized>(&self, from: usize, rng: &mut R) -> usize {
        for _ in 0..8 {
            let peer = self.random_walk(from, 6, rng);
            if peer != from {
                return peer;
            }
        }
        // Extremely unlikely fall-back: pick any other peer directly.
        let mut peer = rng.gen_range(0..self.len() - 1);
        if peer >= from {
            peer += 1;
        }
        peer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_graph_is_connected() {
        let mut rng = StdRng::seed_from_u64(1);
        let overlay = UnstructuredOverlay::random(100, 6, &mut rng);
        // Breadth-first search from peer 0 over `neighbours`.
        let mut distance = vec![usize::MAX; overlay.len()];
        let mut queue = std::collections::VecDeque::from([0]);
        distance[0] = 0;
        while let Some(peer) = queue.pop_front() {
            for &next in overlay.neighbours(peer) {
                if distance[next] == usize::MAX {
                    distance[next] = distance[peer] + 1;
                    queue.push_back(next);
                }
            }
        }
        assert!(distance.iter().all(|&d| d != usize::MAX));
        assert!(distance.iter().max().unwrap() < &60);
    }

    #[test]
    fn degree_is_roughly_as_requested() {
        let mut rng = StdRng::seed_from_u64(2);
        let overlay = UnstructuredOverlay::random(200, 8, &mut rng);
        let avg: f64 = (0..200)
            .map(|i| overlay.neighbours(i).len() as f64)
            .sum::<f64>()
            / 200.0;
        assert!((6.0..=16.0).contains(&avg), "avg degree {avg}");
    }

    #[test]
    fn random_walks_mix_over_the_population() {
        let mut rng = StdRng::seed_from_u64(3);
        let overlay = UnstructuredOverlay::random(50, 8, &mut rng);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..500 {
            seen.insert(overlay.sample_other(0, &mut rng));
        }
        // A uniform-ish sampler should touch most of the population.
        assert!(seen.len() > 35, "only reached {} peers", seen.len());
        assert!(!seen.contains(&0));
    }

    #[test]
    #[should_panic]
    fn single_peer_overlay_rejected() {
        let mut rng = StdRng::seed_from_u64(5);
        UnstructuredOverlay::random(1, 4, &mut rng);
    }
}
