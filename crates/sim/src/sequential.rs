//! Sequential-join baseline constructor.
//!
//! The paper contrasts its parallel construction with the standard overlay
//! maintenance model in which peers join one at a time (Section 1 and the
//! complexity discussion of Section 4.3): each join routes through the
//! existing overlay to the partition the joining peer should serve and then
//! either splits that partition or replicates it.  The total message count
//! is comparable (`O(N log N)`), but because joins are serialised the
//! construction latency is `O(N log N)` instead of the parallel
//! `O(log^2 N)` rounds.

use pgrid_core::key::DataEntry;
use pgrid_core::path::Path;
use pgrid_core::peer::PeerState;
use pgrid_core::routing::{self, PeerId, RoutingEntry};
use pgrid_core::store::StoreRead;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::SimConfig;

/// Result of the sequential baseline construction.
#[derive(Clone, Debug)]
pub struct SequentialOutcome {
    /// Final peer states.
    pub peers: Vec<PeerState>,
    /// Total messages spent (routing hops plus join handshakes).
    pub messages: usize,
    /// Serialised latency: the sum over joins of the per-join latency in
    /// message round-trips (joins cannot overlap in the standard model).
    pub latency: usize,
    /// Keys moved between peers during joins.
    pub keys_moved: usize,
}

impl SequentialOutcome {
    /// Final path of every peer.
    pub fn peer_paths(&self) -> Vec<Path> {
        self.peers.iter().map(|p| p.path).collect()
    }
}

/// Builds the overlay by sequential joins: the first peer owns the whole key
/// space; every subsequent peer routes to the partition covering a random
/// one of its keys and splits it if overloaded (otherwise replicates).
pub fn construct_sequentially(config: &SimConfig) -> SequentialOutcome {
    let mut rng = StdRng::seed_from_u64(config.seed ^ SEQ_MARKER);
    construct_sequentially_with_rng(config, &mut rng)
}

/// Decorrelates the sequential baseline from the parallel run that uses the
/// same configuration seed.
const SEQ_MARKER: u64 = 0x5E9_0000_0000;

fn construct_sequentially_with_rng<R: Rng + ?Sized>(
    config: &SimConfig,
    rng: &mut R,
) -> SequentialOutcome {
    let params = config.balance_params();
    let mut messages = 0usize;
    let mut latency = 0usize;
    let mut keys_moved = 0usize;

    // Pre-draw every peer's data.
    let all_data: Vec<Vec<DataEntry>> = (0..config.n_peers)
        .map(|i| {
            (0..config.keys_per_peer)
                .map(|j| {
                    DataEntry::new(
                        config.distribution.sample(rng),
                        pgrid_core::key::DataId((i * config.keys_per_peer + j) as u64),
                    )
                })
                .collect()
        })
        .collect();

    let mut peers: Vec<PeerState> = Vec::with_capacity(config.n_peers);
    let mut first = PeerState::new(PeerId(0), routing::FANOUT);
    for e in &all_data[0] {
        first.store.insert(*e);
    }
    peers.push(first);

    for (i, data) in all_data.iter().enumerate().skip(1) {
        let mut joiner = PeerState::new(PeerId(i as u64), routing::FANOUT);
        for e in data {
            joiner.store.insert(*e);
        }
        // Route from a random bootstrap peer to the partition covering one of
        // the joiner's keys (or a random key if it has none).
        let target_key = data
            .first()
            .map(|e| e.key)
            .unwrap_or_else(|| pgrid_core::key::Key::from_fraction(rng.gen::<f64>()));
        let mut current = rng.gen_range(0..peers.len());
        let mut hops = 0usize;
        while !peers[current].path.covers(target_key) && hops < 64 {
            // greedy prefix routing over the already-built overlay
            let path = peers[current].path;
            let level = path.first_mismatch(target_key).unwrap_or(path.len());
            let next = peers[current]
                .routing
                .level(level)
                .iter()
                .map(|e| e.peer.0 as usize)
                .find(|&p| p < peers.len());
            match next {
                Some(p) => {
                    current = p;
                    hops += 1;
                }
                None => break,
            }
        }
        messages += hops + 2; // routing plus the join handshake
        latency += hops + 2; // joins are serialised: latency accumulates

        // Split or replicate the host's partition.  The storage criterion
        // drives the decision; the replication criterion is maintained
        // implicitly because `delta_max` is chosen as `keys_per_peer * n_min`
        // (one partition's worth of data corresponds to `n_min` peers' worth
        // of keys).
        let host_load = peers[current].responsible_load();
        if host_load > params.delta_max {
            // Split: joiner takes the half of the host partition where the
            // host holds fewer keys (a greedy local load-balance decision).
            let host_path = peers[current].path;
            let lower = host_path.child(false);
            let lower_count = peers[current].store.count_in(&lower);
            let upper_count = host_load - lower_count;
            let joiner_bit = lower_count > upper_count; // joiner takes lighter side
            let host_bit = !joiner_bit;

            let host_id = peers[current].id;
            let joiner_id = joiner.id;
            let host_new_path = host_path.child(host_bit);
            let joiner_new_path = host_path.child(joiner_bit);

            // The joiner inherits the host's routing references for the
            // levels above the split so it can route for the whole prefix.
            let inherited: Vec<(usize, RoutingEntry)> = peers[current]
                .routing
                .entries()
                .map(|(l, e)| (l, *e))
                .collect();
            for (level, entry) in inherited {
                joiner.routing.add(level, entry, rng);
            }

            let to_joiner = peers[current].split_towards(
                host_bit,
                RoutingEntry {
                    peer: joiner_id,
                    path: joiner_new_path,
                },
                rng,
            );
            keys_moved += to_joiner.len();
            let from_joiner = {
                joiner.path = host_path;
                joiner.split_towards(
                    joiner_bit,
                    RoutingEntry {
                        peer: host_id,
                        path: host_new_path,
                    },
                    rng,
                )
            };
            keys_moved += from_joiner.len();
            joiner.store.merge_batch(to_joiner);
            peers[current].store.merge_batch(from_joiner);
        } else {
            // Replicate the host partition.
            joiner.path = peers[current].path;
            // Copy the host's routing table (one entry per level).
            let host_entries: Vec<(usize, RoutingEntry)> = peers[current]
                .routing
                .entries()
                .map(|(l, e)| (l, *e))
                .collect();
            for (level, entry) in host_entries {
                joiner.routing.add(level, entry, rng);
            }
            // Full anti-entropy reconciliation between host and joiner, so
            // that the host's view of the partition load grows with the data
            // brought in by joining peers (this is what eventually triggers
            // splits in the sequential model).
            let outcome =
                pgrid_core::replication::reconcile(&mut peers[current].store, &mut joiner.store);
            keys_moved += outcome.total_transferred();
            let host_idx = current;
            let joiner_id = joiner.id;
            peers[host_idx].replicas.push(joiner_id);
            joiner.replicas.push(peers[host_idx].id);
        }
        peers.push(joiner);
    }

    // Final shuffle-free sanity: ensure ids line up with indices.
    for (i, p) in peers.iter().enumerate() {
        debug_assert_eq!(p.id.0 as usize, i);
    }

    SequentialOutcome {
        peers,
        messages,
        latency,
        keys_moved,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgrid_workload::distributions::Distribution;

    fn config() -> SimConfig {
        SimConfig {
            n_peers: 200,
            keys_per_peer: 10,
            n_min: 5,
            distribution: Distribution::Uniform,
            seed: 3,
            ..SimConfig::default()
        }
    }

    #[test]
    fn sequential_construction_builds_a_trie() {
        let out = construct_sequentially(&config());
        assert_eq!(out.peers.len(), 200);
        let max_depth = out.peers.iter().map(|p| p.path.len()).max().unwrap();
        assert!(max_depth >= 2, "depth {max_depth}");
        assert!(out.messages > 200);
        assert!(out.keys_moved > 0);
    }

    #[test]
    fn latency_grows_linearly_with_population() {
        let small = construct_sequentially(&SimConfig {
            n_peers: 100,
            ..config()
        });
        let large = construct_sequentially(&SimConfig {
            n_peers: 400,
            ..config()
        });
        assert!(
            large.latency as f64 > 3.0 * small.latency as f64,
            "sequential latency must grow ~linearly: {} vs {}",
            small.latency,
            large.latency
        );
    }

    #[test]
    fn replication_keeps_minimum_peers_per_partition() {
        let out = construct_sequentially(&config());
        let trie = pgrid_core::trie::peer_count_trie(out.peers.iter().map(|p| &p.path));
        for (path, &count) in trie.iter() {
            // every partition that was actually split off must retain at
            // least one peer; most have close to n_min
            assert!(count >= 1, "partition {path} has no peers");
        }
    }
}
