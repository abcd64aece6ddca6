//! Decentralized construction of the overlay network (Sections 2.2 and 4).
//!
//! The simulator executes the paper's construction protocol in synchronous
//! rounds.  In every round each *active* peer initiates one interaction with
//! a peer sampled (approximately uniformly) through a random walk on the
//! pre-existing unstructured overlay:
//!
//! * if the two peers belong to the **same partition** (equal paths, or one
//!   path a prefix of the other) they locally decide to either *split* the
//!   partition — when it is overloaded according to the estimated data load
//!   and replica count — using the AEP decision probabilities, or to become
//!   *replicas* and reconcile their contents (the interactions of Figure 2);
//! * if they belong to **different partitions** the contacted peer *refers*
//!   the initiator to a peer from its routing table at the divergence level
//!   (and both learn a routing reference from the encounter);
//! * peers that experience a configurable number of consecutive fruitless
//!   interactions back off and only wake up when contacted again, which both
//!   synchronises fast peers with slow ones and eventually terminates the
//!   process (Section 4.2).
//!
//! The initial replication phase (each peer copies its keys to `n_min`
//! random peers) precedes the partitioning, exactly as in the deployment
//! timeline of Section 5.1.
//!
//! Since the exchange engine is stateless and every interaction touches
//! only the peers in its claim set, the rounds are executed as conflict-free
//! interaction batches spread across worker threads: `crate::schedule`
//! plans each round's interactions and partitions them into batches with
//! pairwise disjoint claim sets, `crate::parallel` executes a batch with
//! exclusive `&mut PeerState` access per interaction and merges the metric
//! deltas afterwards.  Randomness comes from per-peer counter-derived
//! streams, so the result is bit-identical for every
//! [`SimConfig::n_threads`] value, including `1`.

use crate::config::SimConfig;
use crate::metrics::ConstructionMetrics;
use crate::parallel::Executor;
use crate::schedule::{stream_rng, GenerationSet, Scheduler, STREAM_SHUFFLE};
use crate::unstructured::UnstructuredOverlay;
use pgrid_core::exchange::ExchangeEngine;
use pgrid_core::key::DataEntry;
use pgrid_core::path::Path;
use pgrid_core::peer::PeerState;
use pgrid_core::reference::BalanceParams;
use pgrid_core::routing::PeerId;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// How many times the normal fruitless budget a locally-overloaded peer may
/// keep initiating before it, too, backs off and waits to be contacted.
const OVERLOADED_PATIENCE: u32 = 8;

/// The constructed overlay network: all peer states plus the metrics of the
/// construction run.
#[derive(Clone, Debug)]
pub struct ConstructedOverlay {
    /// Final state of every peer.
    pub peers: Vec<PeerState>,
    /// Construction metrics.
    pub metrics: ConstructionMetrics,
    /// The balance parameters used.
    pub params: BalanceParams,
    /// The distinct data keys that were indexed (before replication).
    pub original_entries: Vec<DataEntry>,
}

impl ConstructedOverlay {
    /// The final path of every peer.
    pub fn peer_paths(&self) -> Vec<Path> {
        self.peers.iter().map(|p| p.path).collect()
    }

    /// Per-peer number of entries the peer is responsible for.
    pub fn responsible_loads(&self) -> Vec<usize> {
        self.peers.iter().map(|p| p.responsible_load()).collect()
    }

    /// Maximum trie depth reached.
    pub fn max_depth(&self) -> usize {
        self.peers.iter().map(|p| p.path.len()).max().unwrap_or(0)
    }

    /// Mean trie depth (≈ mean search path length).
    pub fn mean_depth(&self) -> f64 {
        if self.peers.is_empty() {
            return 0.0;
        }
        self.peers.iter().map(|p| p.path.len() as f64).sum::<f64>() / self.peers.len() as f64
    }

    /// Number of peers per distinct leaf partition (replication factors).
    pub fn replication_factors(&self) -> Vec<usize> {
        let trie = pgrid_core::trie::peer_count_trie(self.peers.iter().map(|p| &p.path));
        trie.iter().map(|(_, &n)| n).collect()
    }
}

/// The construction process as an incrementally steppable state machine.
///
/// [`construct`] drives it straight through (replication, then rounds
/// until quiescence) and reproduces the historical monolithic constructor
/// bit for bit; a caller that steps it itself (the benchmark harness) can
/// instead interleave rounds with churn, data insertion or measurements
/// between any two steps.
pub struct SimNetwork {
    config: SimConfig,
    engine: ExchangeEngine,
    /// Current state of every peer.
    pub peers: Vec<PeerState>,
    /// Construction metrics accumulated so far.
    pub metrics: ConstructionMetrics,
    /// The distinct data keys indexed so far (before replication).
    pub original_entries: Vec<DataEntry>,
    overlay_graph: UnstructuredOverlay,
    per_peer_originals: Vec<Vec<DataEntry>>,
    active: Vec<bool>,
    fruitless: Vec<u32>,
    scheduler: Scheduler,
    executor: Executor,
    round: usize,
    /// Continuation of the setup RNG stream: replication samples its
    /// targets from it, exactly as the historical monolithic constructor
    /// did.
    rng: StdRng,
}

impl SimNetwork {
    /// Creates the peer population with its initial data assignment and
    /// unstructured bootstrap overlay (the exact RNG consumption of the
    /// historical constructor).
    pub fn new(config: &SimConfig) -> SimNetwork {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let params = config.balance_params();
        let engine = ExchangeEngine::with_strategy(params, config.strategy);

        // --- Initial data assignment -----------------------------------------
        let mut peers: Vec<PeerState> = (0..config.n_peers)
            .map(|i| PeerState::new(PeerId(i as u64), config.routing_fanout))
            .collect();
        let mut original_entries = Vec::with_capacity(config.total_keys());
        let mut per_peer_originals: Vec<Vec<DataEntry>> = Vec::with_capacity(config.n_peers);
        for (i, peer) in peers.iter_mut().enumerate() {
            let mut own = Vec::with_capacity(config.keys_per_peer);
            for j in 0..config.keys_per_peer {
                let key = config.distribution.sample(&mut rng);
                let entry = DataEntry::new(
                    key,
                    pgrid_core::key::DataId((i * config.keys_per_peer + j) as u64),
                );
                peer.store.insert(entry);
                original_entries.push(entry);
                own.push(entry);
            }
            per_peer_originals.push(own);
        }

        let overlay_graph = UnstructuredOverlay::random(config.n_peers, 8, &mut rng);
        let metrics = ConstructionMetrics::new(config.n_peers);
        SimNetwork {
            engine,
            peers,
            metrics,
            original_entries,
            overlay_graph,
            per_peer_originals,
            active: vec![true; config.n_peers],
            fruitless: vec![0u32; config.n_peers],
            scheduler: Scheduler::new(config.n_peers),
            executor: Executor::new(config.n_peers, config.effective_threads()),
            round: 0,
            config: config.clone(),
            rng,
        }
    }

    /// The configuration the network was built from.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The balance parameters in effect.
    pub fn params(&self) -> BalanceParams {
        *self.engine.params()
    }

    /// Construction rounds executed so far.
    pub fn round(&self) -> usize {
        self.round
    }

    /// Whether the construction has terminated: no peer is active any
    /// more.
    pub fn quiescent(&self) -> bool {
        !self.active.iter().any(|&a| a)
    }

    /// The replication phase: every peer copies its *own* keys to `n_min`
    /// random peers so that every key exists `n_min + 1` times in the
    /// network before partitioning starts (Section 4.2).  Only the original
    /// entries are forwarded; entries received from other peers are not
    /// re-replicated.  The transfers are batched: targets are deduplicated
    /// through a constant-time generation set and every target receives one
    /// bulk merge over all its sources (one buffer reservation per target)
    /// instead of `n_min` separate per-entry merges.  A population of at
    /// most `n_min` peers copies to every other peer.
    pub fn replicate(&mut self) {
        let config = &self.config;
        let targets = config.n_min.min(config.n_peers - 1);
        let mut seen_targets = GenerationSet::new(config.n_peers);
        let mut inbound: Vec<Vec<DataEntry>> = vec![Vec::new(); config.n_peers];
        for (i, entries) in self.per_peer_originals.iter().enumerate() {
            seen_targets.clear();
            let mut picked = 0;
            while picked < targets {
                let t = self.overlay_graph.sample_other(i, &mut self.rng);
                if seen_targets.insert(t) {
                    picked += 1;
                    let bucket = &mut inbound[t];
                    if bucket.is_empty() {
                        bucket.reserve(config.keys_per_peer * config.n_min);
                    }
                    bucket.extend_from_slice(entries);
                }
            }
        }
        for (t, batch) in inbound.into_iter().enumerate() {
            self.metrics.replication_keys_moved += self.peers[t].store.merge_batch(batch);
        }
    }

    /// One synchronous construction round: the shuffled active initiators
    /// are planned into conflict-free batches and executed across the
    /// configured worker threads; per-script outcomes drive the back-off
    /// bookkeeping in batch order, so every thread count reproduces the
    /// same overlay.  Returns `false` once no peer is active any more
    /// (quiescence).
    pub fn run_round(&mut self) -> bool {
        let config = &self.config;
        self.round += 1;
        let round = self.round;
        let mut pending: Vec<usize> = (0..config.n_peers)
            .filter(|&i| self.active[i] && self.peers[i].online)
            .collect();
        if pending.is_empty() {
            // Nothing to do right now: do not charge a round (the
            // historical constructor never executed empty rounds).  Active
            // peers that are merely offline keep the construction pending.
            self.round -= 1;
            return self.active.iter().any(|&a| a);
        }
        self.metrics.rounds = round;
        pending.shuffle(&mut stream_rng(
            config.seed,
            round as u64,
            0,
            STREAM_SHUFFLE,
        ));
        while !pending.is_empty() {
            let (mut batch, deferred) = self.scheduler.plan_batch(
                &pending,
                &self.peers,
                &self.overlay_graph,
                config,
                round,
            );
            let (delta, outcomes) =
                self.executor
                    .execute_batch(&mut batch, &mut self.peers, &self.engine);
            self.metrics.absorb(&delta);
            for outcome in &outcomes {
                let i = outcome.initiator;
                if outcome.useful {
                    self.fruitless[i] = 0;
                    if let Some((a, b)) = outcome.activate {
                        self.active[a] = true;
                        self.active[b] = true;
                    }
                } else {
                    self.fruitless[i] += 1;
                    // A peer defers its back-off while it has local evidence
                    // that its partition still needs splitting: as long as
                    // its own store holds clearly more keys than the storage
                    // bound (and those keys are actually separable by a
                    // bisection) it keeps initiating interactions — but only
                    // up to `OVERLOADED_PATIENCE` times the normal budget.
                    // Under heavy skew the pairwise capture–recapture
                    // assessment can veto the split such a peer is pushing
                    // for indefinitely; without the cap one stubborn peer
                    // keeps the whole network spinning to `max_rounds`
                    // (Section 4.2's contract is that *every* peer
                    // eventually goes dormant and wakes when contacted).
                    let patience = if self.engine.locally_overloaded(&self.peers[i]) {
                        config
                            .max_fruitless_attempts
                            .saturating_mul(OVERLOADED_PATIENCE)
                    } else {
                        config.max_fruitless_attempts
                    };
                    if self.fruitless[i] >= patience {
                        self.active[i] = false;
                    }
                }
            }
            pending = deferred;
        }
        self.active.iter().any(|&a| a)
    }

    /// Finishes the run, yielding the constructed overlay.
    pub fn into_overlay(self) -> ConstructedOverlay {
        ConstructedOverlay {
            params: *self.engine.params(),
            peers: self.peers,
            metrics: self.metrics,
            original_entries: self.original_entries,
        }
    }
}

/// Runs the complete construction process for the given configuration.
pub fn construct(config: &SimConfig) -> ConstructedOverlay {
    let mut network = SimNetwork::new(config);
    network.replicate();
    while network.round() < config.max_rounds {
        if !network.run_round() {
            break;
        }
    }
    network.into_overlay()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgrid_core::balance::measure_overlay;
    use pgrid_workload::distributions::Distribution;

    fn small_config() -> SimConfig {
        SimConfig {
            n_peers: 128,
            keys_per_peer: 10,
            n_min: 5,
            seed: 7,
            ..SimConfig::default()
        }
    }

    #[test]
    fn construction_terminates_and_splits_the_key_space() {
        let overlay = construct(&small_config());
        assert!(overlay.metrics.rounds < small_config().max_rounds);
        assert!(overlay.max_depth() >= 2, "depth {}", overlay.max_depth());
        assert!(overlay.metrics.splits > 0);
        assert!(overlay.metrics.interactions > 0);
    }

    #[test]
    fn no_key_is_dropped_and_almost_all_are_reachable() {
        let overlay = construct(&small_config());
        let mut reachable = 0usize;
        for entry in &overlay.original_entries {
            // No entry may be dropped from the network entirely.
            let held_somewhere = overlay.peers.iter().any(|p| p.store.contains(entry));
            assert!(
                held_somewhere,
                "entry {entry:?} vanished during construction"
            );
            // Almost every entry must be stored at a peer responsible for it
            // (the paper reports 95–100% query success; the residual misses
            // are keys still "in transit" at non-responsible replicas).
            if overlay
                .peers
                .iter()
                .any(|p| p.path.covers(entry.key) && p.store.contains(entry))
            {
                reachable += 1;
            }
        }
        let fraction = reachable as f64 / overlay.original_entries.len() as f64;
        assert!(fraction > 0.95, "only {fraction:.3} of entries reachable");
    }

    #[test]
    fn routing_tables_are_consistent_with_paths() {
        let overlay = construct(&small_config());
        for peer in &overlay.peers {
            assert!(
                peer.invariants_hold(),
                "peer {:?} has an inconsistent routing table",
                peer.id
            );
        }
    }

    #[test]
    fn every_extended_peer_has_references_for_each_level() {
        let overlay = construct(&small_config());
        for peer in &overlay.peers {
            for level in 0..peer.path.len() {
                assert!(
                    !peer.routing.level(level).is_empty(),
                    "peer {:?} (path {}) lacks a reference at level {level}",
                    peer.id,
                    peer.path
                );
            }
        }
    }

    #[test]
    fn storage_load_is_bounded_for_uniform_keys() {
        let overlay = construct(&SimConfig {
            n_peers: 256,
            ..small_config()
        });
        let loads = overlay.responsible_loads();
        let max = *loads.iter().max().unwrap();
        // The storage criterion (delta_max = 25) should roughly cap the
        // per-partition load; allow some slack for estimation noise.
        assert!(max <= 4 * overlay.params.delta_max, "max load {max}");
    }

    #[test]
    fn balance_deviation_is_reasonable_for_uniform_and_skewed_keys() {
        for dist in [Distribution::Uniform, Distribution::Pareto { shape: 1.0 }] {
            let config = SimConfig {
                distribution: dist,
                n_peers: 128,
                ..small_config()
            };
            let overlay = construct(&config);
            let keys: Vec<_> = overlay.original_entries.iter().map(|e| e.key).collect();
            let paths = overlay.peer_paths();
            let deviation =
                measure_overlay(&keys, config.n_peers, overlay.params, &paths).deviation;
            assert!(deviation < 1.5, "{dist}: deviation {deviation} too large");
        }
    }

    #[test]
    fn deterministic_for_a_fixed_seed() {
        let a = construct(&small_config());
        let b = construct(&small_config());
        assert_eq!(a.peer_paths(), b.peer_paths());
        assert_eq!(a.metrics.interactions, b.metrics.interactions);
    }

    #[test]
    fn thread_count_does_not_change_the_result() {
        let single = construct(&SimConfig {
            n_threads: 1,
            ..small_config()
        });
        for n_threads in [2, 4] {
            let multi = construct(&SimConfig {
                n_threads,
                ..small_config()
            });
            assert_eq!(
                single.peer_paths(),
                multi.peer_paths(),
                "{n_threads} threads"
            );
            assert_eq!(single.metrics, multi.metrics, "{n_threads} threads");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = construct(&small_config());
        let b = construct(&SimConfig {
            seed: 8,
            ..small_config()
        });
        assert_ne!(a.metrics.interactions, b.metrics.interactions);
    }

    #[test]
    fn populations_of_at_most_n_min_peers_replicate_to_every_other_peer() {
        for n_peers in [2, 4, 6] {
            let config = SimConfig {
                n_peers,
                ..small_config()
            };
            let mut network = SimNetwork::new(&config);
            network.replicate();
            let copies = 1 + config.n_min.min(n_peers - 1);
            for entry in &network.original_entries {
                let holders = network
                    .peers
                    .iter()
                    .filter(|p| p.store.contains(entry))
                    .count();
                assert_eq!(holders, copies, "{n_peers} peers, {entry:?}");
            }
            let overlay = construct(&config);
            assert!(
                overlay.metrics.rounds < config.max_rounds,
                "{n_peers} peers never went quiescent"
            );
        }
    }

    #[test]
    fn replication_phase_moves_keys() {
        let overlay = construct(&small_config());
        assert!(overlay.metrics.replication_keys_moved >= small_config().n_peers * 10 * 4);
    }
}
