//! Conflict-free interaction scheduling for the parallel constructor.
//!
//! Each construction round is executed as a sequence of *batches*.  A batch
//! is built by a greedy matcher: initiators are considered in the round's
//! shuffled order and each one's prospective interaction is *planned*
//! read-only against the current network state — the random-walk partner
//! sample, the refer-hop chain through routing tables, and (for a local
//! endpoint) the complementary-subtree reference a same-side catch-up split
//! would forward keys to.  The plan yields the interaction's **claim set**:
//! the initiator, every peer contacted along the refer chain, and the
//! complement-forward recipient.  Claims are granted greedily — an
//! interaction whose claims are disjoint from everything already granted in
//! this batch joins it; a conflicting initiator is deferred to the next
//! batch of the same round, where it re-plans against the post-batch state.
//! Within a batch all claim sets are pairwise disjoint, so the batch's
//! interactions execute on worker threads with exclusive `&mut PeerState`
//! access (see [`crate::parallel`]) and **any** thread count — including
//! one — produces bit-identical results.
//!
//! Determinism across thread counts additionally requires that no random
//! draw depends on execution order.  Every interaction therefore consumes
//! two private counter-derived streams seeded from `(seed, round,
//! initiator)` — one for the planner (partner sampling, refer-hop choices,
//! complement selection) and one carried into the executor (routing-table
//! eviction, the split/replicate decision and its application) — instead of
//! the shared round RNG of the earlier sequential implementation.  The
//! executor never re-reads routing tables to follow the chain: the plan
//! records the hops and the pre-drawn complement, so planner and executor
//! cannot diverge even though the executor mutates state as it goes.
//!
//! The partner walk is drawn **once per (round, initiator)**, at the start
//! of the round ([`Scheduler::draw_walks`]), not once per plan attempt.
//! That is exact: the walk reads only the unstructured overlay, which never
//! changes after the network is built, and the plan stream it consumes is a
//! function of `(seed, round, initiator)` alone.  So every attempt of one
//! round would draw the same walk and leave the stream in the same state.
//! The scheduler stores the walk's first target and the stream right after
//! the walk; a deferred initiator re-plans only the chain after the walk —
//! the refer hops, the endpoint and the complement, which do read the
//! post-batch peer states — from a copy of that stream.

use crate::config::SimConfig;
use crate::unstructured::UnstructuredOverlay;
use pgrid_core::exchange::MAX_REFER_HOPS;
use pgrid_core::peer::PeerState;
use pgrid_core::route;
use pgrid_core::routing::RoutingEntry;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Stream tag for the per-round initiator shuffle.
pub(crate) const STREAM_SHUFFLE: u64 = 0;
/// Stream tag for an interaction's planning draws.
pub(crate) const STREAM_PLAN: u64 = 1;
/// Stream tag for an interaction's execution draws.
pub(crate) const STREAM_EXEC: u64 = 2;

/// SplitMix64 finaliser: disperses one absorbed word.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A counter-derived RNG stream for `(seed, round, peer, stream)`.
///
/// Each interaction owns its streams outright, so the draws it consumes are
/// a pure function of the configuration seed, the round number and the
/// initiating peer — independent of scheduling order and thread count.
pub(crate) fn stream_rng(seed: u64, round: u64, peer: u64, stream: u64) -> StdRng {
    let mut h = seed;
    for word in [round, peer, stream] {
        h = mix64(h ^ word.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    }
    StdRng::seed_from_u64(h)
}

/// A fixed-capacity index set with O(1) insert/contains/clear.
///
/// One `u32` generation stamp per possible index; clearing bumps the
/// generation instead of touching the array, so the single allocation made
/// at construction time is reused for the whole run.  Used both for the
/// scheduler's granted-claim marks (cleared once per batch) and for the
/// replication phase's duplicate-target checks (cleared once per source
/// peer), replacing the former O(n_min²) `Vec::contains` scans.
pub(crate) struct GenerationSet {
    stamp: Vec<u32>,
    generation: u32,
}

impl GenerationSet {
    /// A set over indices `0..capacity`, initially empty (the stamps start
    /// one generation behind).
    pub(crate) fn new(capacity: usize) -> GenerationSet {
        GenerationSet {
            stamp: vec![0; capacity],
            generation: 1,
        }
    }

    /// Empties the set (O(1); restamps lazily on wrap-around).
    pub(crate) fn clear(&mut self) {
        if self.generation == u32::MAX {
            self.stamp.fill(0);
            self.generation = 0;
        }
        self.generation += 1;
    }

    /// Whether `index` is in the set.
    pub(crate) fn contains(&self, index: usize) -> bool {
        self.stamp[index] == self.generation
    }

    /// Inserts `index`; returns `true` if it was not present before.
    pub(crate) fn insert(&mut self, index: usize) -> bool {
        if self.contains(index) {
            false
        } else {
            self.stamp[index] = self.generation;
            true
        }
    }
}

/// How a planned interaction chain ends.
#[derive(Copy, Clone, Debug)]
pub(crate) enum Endpoint {
    /// The chain ended without a local interaction: the walk sampled the
    /// initiator itself, a refer hop dead-ended, or the hop budget ran out.
    Fruitless,
    /// The chain reached a peer of the initiator's partition; the executor
    /// runs the bilateral exchange against `partner`, using the pre-drawn
    /// `complement` reference if the decision is a same-side catch-up split.
    Local {
        /// Index of the partner peer (the last peer contacted).
        partner: usize,
        /// Reference to the complementary subtree, drawn at plan time from
        /// the ahead peer's routing table at the partition's level.
        complement: Option<RoutingEntry>,
    },
}

/// A fully planned interaction: the recorded refer chain, the endpoint, the
/// claim set and the private execution RNG stream.
pub(crate) struct InteractionScript {
    /// The initiating peer.
    pub(crate) initiator: usize,
    /// Peers contacted (refer hops plus a local endpoint, if any); feeds the
    /// `interactions` and `per_peer_interactions` metrics.
    pub(crate) contacts: usize,
    /// Peers that referred the initiator onward; the executor applies the
    /// mutual `learn_reference` of each such encounter.
    pub(crate) refer_targets: Vec<usize>,
    /// How the chain ends.
    pub(crate) endpoint: Endpoint,
    /// Every peer this interaction may read or mutate (deduplicated).
    pub(crate) claims: Vec<usize>,
    /// The interaction's execution stream (eviction, decision, application).
    pub(crate) exec_rng: StdRng,
}

/// The greedy conflict-free batch matcher.
pub(crate) struct Scheduler {
    claimed: GenerationSet,
    /// The claims of the plan in progress.  Most plans end in a conflict, so
    /// they are gathered here and copied into a script only once granted.
    claims: Vec<usize>,
    /// The refer hops of the plan in progress (same reuse as `claims`).
    refer_targets: Vec<usize>,
    /// This round's walk of each pending initiator, indexed by peer; sized
    /// on the first round.
    walks: Vec<Option<Walk>>,
}

/// A partner walk drawn once for one (round, initiator).
#[derive(Clone)]
struct Walk {
    /// The peer the walk ended at: the chain's first contact.
    first: usize,
    /// The initiator's plan stream right after the walk.
    rng: StdRng,
}

/// A required peer is already claimed: the initiator retries in the next
/// batch.
struct Conflict;

/// The referral a contacted peer hands out: a uniformly drawn reference of
/// `refs` other than `initiator` ([`route::pick_other`]).
fn pick_referral(refs: &[RoutingEntry], initiator: usize, rng: &mut StdRng) -> Option<usize> {
    route::pick_other(refs.iter().map(|e| e.peer.0 as usize), initiator, rng)
}

impl Scheduler {
    /// A scheduler for `n_peers` peers.
    pub(crate) fn new(n_peers: usize) -> Scheduler {
        Scheduler {
            claimed: GenerationSet::new(n_peers),
            claims: Vec::new(),
            refer_targets: Vec::new(),
            walks: Vec::new(),
        }
    }

    /// Draws the partner walk of every initiator in `pending` (the round's
    /// shuffled order) on its plan stream for `round`, once for the whole
    /// round: every plan attempt of the round starts from a copy.
    pub(crate) fn draw_walks(
        &mut self,
        pending: &[usize],
        overlay: &UnstructuredOverlay,
        config: &SimConfig,
        round: usize,
    ) {
        if self.walks.is_empty() {
            self.walks.resize(overlay.len(), None);
        }
        for &initiator in pending {
            let mut rng = stream_rng(config.seed, round as u64, initiator as u64, STREAM_PLAN);
            let first = overlay.sample_other(initiator, &mut rng);
            self.walks[initiator] = Some(Walk { first, rng });
        }
    }

    /// Plans one batch: walks `pending` in order, granting every initiator
    /// whose claim set is disjoint from the claims granted so far and
    /// deferring the rest.  Returns the batch plus the deferred initiators
    /// (in their original order).  The first pending initiator always plans
    /// against an empty claim table, so every call grants at least one
    /// interaction and the per-round batch loop terminates.  Every initiator
    /// in `pending` must have had its walk drawn by [`Self::draw_walks`]
    /// for this `round`.
    pub(crate) fn plan_batch(
        &mut self,
        pending: &[usize],
        peers: &[PeerState],
        config: &SimConfig,
        round: usize,
    ) -> (Vec<InteractionScript>, Vec<usize>) {
        self.claimed.clear();
        let mut batch = Vec::with_capacity(pending.len());
        let mut deferred = Vec::new();
        for &initiator in pending {
            match self.plan_one(initiator, peers) {
                Ok(plan) => batch.push(self.grant(initiator, plan, config, round)),
                Err(Conflict) => deferred.push(initiator),
            }
        }
        (batch, deferred)
    }

    /// Marks the claims of the plan in progress as granted and packs the
    /// plan into a script.
    fn grant(
        &mut self,
        initiator: usize,
        (contacts, endpoint): (usize, Endpoint),
        config: &SimConfig,
        round: usize,
    ) -> InteractionScript {
        for &claim in &self.claims {
            self.claimed.insert(claim);
        }
        InteractionScript {
            initiator,
            contacts,
            refer_targets: self.refer_targets.clone(),
            endpoint,
            claims: self.claims.clone(),
            exec_rng: stream_rng(config.seed, round as u64, initiator as u64, STREAM_EXEC),
        }
    }

    /// Plans the interaction of one initiator read-only against the current
    /// peer states, starting from its stored walk.
    fn plan_one(
        &mut self,
        initiator: usize,
        peers: &[PeerState],
    ) -> Result<(usize, Endpoint), Conflict> {
        if self.claimed.contains(initiator) {
            return Err(Conflict);
        }
        let walk = self.walks[initiator]
            .clone()
            .expect("the initiator's walk is drawn at the start of the round");
        self.plan_chain(initiator, walk, peers)
    }

    /// Plans the chain after the walk into `self.claims` and
    /// `self.refer_targets`, returning the contact count and the endpoint,
    /// or [`Conflict`] as soon as the chain touches an already-claimed peer.
    fn plan_chain(
        &mut self,
        initiator: usize,
        Walk { first, mut rng }: Walk,
        peers: &[PeerState],
    ) -> Result<(usize, Endpoint), Conflict> {
        let (claims, refer_targets) = (&mut self.claims, &mut self.refer_targets);
        claims.clear();
        claims.push(initiator);
        refer_targets.clear();
        let mut contacts = 0usize;

        let mut target = first;
        for hop in 0..MAX_REFER_HOPS {
            contacts += 1;
            if target == initiator {
                return Ok((contacts, Endpoint::Fruitless));
            }
            if !claims.contains(&target) {
                if self.claimed.contains(target) {
                    return Err(Conflict);
                }
                claims.push(target);
            }
            if peers[initiator].shares_partition_with(&peers[target].path) {
                // Local endpoint.  The complement reference a same-side
                // catch-up would need is drawn now, from the ahead peer's
                // routing table at the partition's level, and claimed
                // conservatively: whether the decision actually uses it is
                // only known at execution time.
                let (lagging, ahead) = if peers[initiator].path.len() <= peers[target].path.len() {
                    (initiator, target)
                } else {
                    (target, initiator)
                };
                let partition = peers[lagging].path;
                let complement = peers[ahead]
                    .routing
                    .level(partition.len())
                    .choose(&mut rng)
                    .copied();
                if let Some(entry) = complement {
                    let recipient = entry.peer.0 as usize;
                    if recipient < peers.len() && !claims.contains(&recipient) {
                        if self.claimed.contains(recipient) {
                            return Err(Conflict);
                        }
                        claims.push(recipient);
                    }
                }
                return Ok((
                    contacts,
                    Endpoint::Local {
                        partner: target,
                        complement,
                    },
                ));
            }
            // Refer hop: the executor will apply the mutual learn_reference;
            // the planner only records the chain.  The candidate set is read
            // from the pre-interaction routing table, which the executor
            // never re-reads, so plan and execution cannot diverge.
            refer_targets.push(target);
            let level = peers[initiator].path.common_prefix_len(&peers[target].path);
            let refs = peers[target].routing.level(level);
            match pick_referral(refs, initiator, &mut rng) {
                Some(next) if hop + 1 < MAX_REFER_HOPS => target = next,
                _ => return Ok((contacts, Endpoint::Fruitless)),
            }
        }
        Ok((contacts, Endpoint::Fruitless))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgrid_core::routing::{PeerId, FANOUT};
    use rand::Rng;

    #[test]
    fn stream_rngs_are_deterministic_and_distinct() {
        let mut a = stream_rng(7, 3, 11, STREAM_PLAN);
        let mut b = stream_rng(7, 3, 11, STREAM_PLAN);
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        let mut exec = stream_rng(7, 3, 11, STREAM_EXEC);
        let mut other_peer = stream_rng(7, 3, 12, STREAM_PLAN);
        let mut other_round = stream_rng(7, 4, 11, STREAM_PLAN);
        let mut other_seed = stream_rng(8, 3, 11, STREAM_PLAN);
        let reference = stream_rng(7, 3, 11, STREAM_PLAN).gen::<u64>();
        assert_ne!(reference, exec.gen::<u64>());
        assert_ne!(reference, other_peer.gen::<u64>());
        assert_ne!(reference, other_round.gen::<u64>());
        assert_ne!(reference, other_seed.gen::<u64>());
    }

    #[test]
    fn generation_set_insert_contains_clear() {
        let mut set = GenerationSet::new(8);
        assert!(!set.contains(3), "a fresh set must be empty");
        assert!(set.insert(3));
        assert!(!set.insert(3));
        assert!(set.contains(3));
        assert!(!set.contains(4));
        set.clear();
        assert!(!set.contains(3));
        assert!(set.insert(3));
    }

    #[test]
    fn referral_pick_equals_choose_over_the_filtered_list() {
        let mut tables = StdRng::seed_from_u64(11);
        for case in 0..4_000u64 {
            let initiator = tables.gen_range(0..6usize);
            let refs: Vec<RoutingEntry> = (0..tables.gen_range(0..12usize))
                .map(|_| RoutingEntry {
                    peer: pgrid_core::routing::PeerId(tables.gen_range(0..6u64)),
                    path: pgrid_core::path::Path::ROOT,
                })
                .collect();
            let filtered: Vec<usize> = refs
                .iter()
                .map(|e| e.peer.0 as usize)
                .filter(|&p| p != initiator)
                .collect();
            let mut picked = stream_rng(case, 1, initiator as u64, STREAM_PLAN);
            let mut chosen = picked.clone();
            assert_eq!(
                pick_referral(&refs, initiator, &mut picked),
                filtered.choose(&mut chosen).copied(),
                "case {case}"
            );
            assert_eq!(
                picked.gen::<u64>(),
                chosen.gen::<u64>(),
                "case {case}: both consumed the same draws"
            );
        }
    }

    #[test]
    fn batches_claim_disjoint_peer_sets() {
        let config = SimConfig {
            n_peers: 64,
            seed: 5,
            ..SimConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(config.seed);
        let peers: Vec<PeerState> = (0..config.n_peers)
            .map(|i| PeerState::new(PeerId(i as u64), FANOUT))
            .collect();
        let overlay = UnstructuredOverlay::random(config.n_peers, 8, &mut rng);
        let mut scheduler = Scheduler::new(config.n_peers);
        let pending: Vec<usize> = (0..config.n_peers).collect();
        scheduler.draw_walks(&pending, &overlay, &config, 1);
        let (batch, deferred) = scheduler.plan_batch(&pending, &peers, &config, 1);
        assert!(!batch.is_empty());
        assert_eq!(batch.len() + deferred.len(), config.n_peers);
        let mut seen = std::collections::HashSet::new();
        for script in &batch {
            for &claim in &script.claims {
                assert!(seen.insert(claim), "claim {claim} granted twice");
            }
        }
    }

    /// The planner as it was before the walk was memoised, kept as the
    /// oracle: every attempt draws the walk afresh on a new plan stream.
    fn redrawn_plan_batch(
        scheduler: &mut Scheduler,
        pending: &[usize],
        peers: &[PeerState],
        overlay: &UnstructuredOverlay,
        config: &SimConfig,
        round: usize,
    ) -> (Vec<InteractionScript>, Vec<usize>) {
        scheduler.claimed.clear();
        let (mut batch, mut deferred) = (Vec::new(), Vec::new());
        for &initiator in pending {
            let plan = if scheduler.claimed.contains(initiator) {
                Err(Conflict)
            } else {
                let mut rng = stream_rng(config.seed, round as u64, initiator as u64, STREAM_PLAN);
                let first = overlay.sample_other(initiator, &mut rng);
                scheduler.plan_chain(initiator, Walk { first, rng }, peers)
            };
            match plan {
                Ok(plan) => batch.push(scheduler.grant(initiator, plan, config, round)),
                Err(Conflict) => deferred.push(initiator),
            }
        }
        (batch, deferred)
    }

    /// Everything a script carries, with the first draw of its exec stream.
    fn fingerprint(s: &InteractionScript) -> String {
        let exec: u64 = s.exec_rng.clone().gen();
        let chain = (&s.refer_targets, s.endpoint, &s.claims);
        format!("{} {} {chain:?} {exec}", s.initiator, s.contacts)
    }

    #[test]
    fn memoised_walks_plan_the_scripts_of_the_redrawing_planner() {
        use crate::construction::SimNetwork;
        use crate::parallel::Executor;
        use pgrid_core::exchange::ExchangeEngine;
        use pgrid_workload::distributions::Distribution;

        let skew = Distribution::Normal {
            mean: 0.5,
            std_dev: 0.05,
        };
        for distribution in [Distribution::Uniform, skew] {
            let config = SimConfig {
                n_peers: 256,
                distribution,
                seed: 3,
                ..SimConfig::default()
            };
            let mut network = SimNetwork::new(&config);
            network.replicate();
            let mut peers = network.peers;
            let overlay =
                UnstructuredOverlay::random(config.n_peers, 8, &mut StdRng::seed_from_u64(9));
            let engine = ExchangeEngine::with_strategy(config.balance_params(), config.strategy);
            let mut executor = Executor::new(config.n_peers, 1);
            let (mut memoised, mut oracle) = (
                Scheduler::new(config.n_peers),
                Scheduler::new(config.n_peers),
            );
            let (mut batches, mut most_attempts) = (0, 0);
            // Every peer initiates in every round, so that conflicts (and
            // with them re-plans) stay frequent as the trie deepens.
            for round in 1..=5 {
                let mut pending: Vec<usize> = (0..config.n_peers).collect();
                pending.shuffle(&mut stream_rng(config.seed, round, 0, STREAM_SHUFFLE));
                let round = round as usize;
                memoised.draw_walks(&pending, &overlay, &config, round);
                let mut attempts = vec![0; config.n_peers];
                while !pending.is_empty() {
                    for &initiator in &pending {
                        attempts[initiator] += 1;
                    }
                    let (mut batch, deferred) =
                        memoised.plan_batch(&pending, &peers, &config, round);
                    let (expected, expected_deferred) =
                        redrawn_plan_batch(&mut oracle, &pending, &peers, &overlay, &config, round);
                    let context = format!("{distribution}, round {round}, batch {batches}");
                    assert_eq!(deferred, expected_deferred, "{context}");
                    assert_eq!(
                        batch.iter().map(fingerprint).collect::<Vec<_>>(),
                        expected.iter().map(fingerprint).collect::<Vec<_>>(),
                        "{context}"
                    );
                    executor.execute_batch(&mut batch, &mut peers, &engine);
                    pending = deferred;
                    batches += 1;
                }
                most_attempts = most_attempts.max(*attempts.iter().max().unwrap());
            }
            assert!(
                most_attempts >= 4,
                "{distribution}: no initiator re-planned three times ({most_attempts} attempts at most)"
            );
        }
    }
}
