//! The bilateral split/replicate/refer exchange engine (Figure 2 +
//! Section 4.2).
//!
//! Both execution models of this repository — the whole-system simulator
//! (`pgrid-sim`) and the message-level deployment runtime (`pgrid-net`) —
//! run the *same* construction protocol: when two peers meet, they locally
//! assess their shared partition from their stores alone, derive the
//! adaptive decision probabilities of Section 3 from that assessment, and
//! then either **split** the partition, become **replicas**, **refer** the
//! initiator to a better-matching peer, or do **nothing**.  This module is
//! the single implementation of that protocol core; the two runtimes only
//! differ in transport (direct state access versus encoded messages over an
//! emulated wide-area network).
//!
//! The pipeline is:
//!
//! 1. [`ExchangeEngine::assess`] — capture–recapture estimation of the
//!    partition's distinct keys, replica count and lower-half load ratio
//!    from the two peers' partition-restricted stores;
//! 2. [`ExchangeEngine::probabilities`] — the strategy's effective decision
//!    probabilities evaluated at the assessed ratio (with the balanced-split
//!    floor [`MIN_BALANCED_SPLIT_PROBABILITY`] applied);
//! 3. [`ExchangeEngine::decide`] — one random draw turning assessment and
//!    probabilities into an [`ExchangeDecision`];
//! 4. [`apply_decision`] — the state transition of that decision on two
//!    [`PeerState`]s (the simulator applies it directly; the deployment
//!    runtime serialises the equivalent transition into its wire protocol).

use crate::key::{DataEntry, Key};
use crate::path::{Path, MAX_PATH_LEN};
use crate::peer::PeerState;
use crate::reference::BalanceParams;
use crate::routing::RoutingEntry;
use crate::store::StoreRead;
use pgrid_partition::probabilities::{effective_probabilities, heuristic_effective};
use rand::Rng;

/// Lower bound on the balanced-split probability.
///
/// For extremely skewed partitions the theoretical balanced-split
/// probability becomes vanishingly small and the first split of a partition
/// would take an unbounded number of encounters.  Both runtimes floor it at
/// this constant; the resulting slight over-provisioning of nearly empty
/// partitions is the "dispersion" effect the paper acknowledges for very
/// skewed distributions (Section 2.2).
pub const MIN_BALANCED_SPLIT_PROBABILITY: f64 = 0.02;

/// Peers one initiated interaction may contact, referrals included: the
/// simulator follows at most this many refer hops, the message runtime at
/// most `MAX_REFER_HOPS - 1` referrals between two ticks of a peer.
pub const MAX_REFER_HOPS: usize = 6;

/// Which probability functions the construction uses for its split
/// decisions — the knob behind the "theory vs. heuristics" experiment
/// (Figure 6d).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ProbabilityStrategy {
    /// Exact AEP probabilities.
    Aep,
    /// The heuristic probability functions of Figure 6d.
    Heuristic,
}

/// Local estimate of a partition's state, computed from the two interacting
/// peers' stores only (Section 4.2).
///
/// The number of distinct keys in the partition is estimated by
/// capture–recapture over the two stores: if the partition holds `D` keys
/// and the peers hold `|K1|` and `|K2|` of them, the expected overlap is
/// `|K1| |K2| / D`, so `D̂ = |K1| |K2| / |K1 ∩ K2|` (never below the
/// observed union).  The equivalent replica-count estimate is
/// `m̂ = n_min D̂ / delta_max` — the paper's worked example ("two identical
/// stores of size delta_max imply n_min replicas") — and the partition is
/// split while `D̂ > delta_max` and `m̂ >= 2 n_min`, mirroring lines 1–2 of
/// the global `Partition` algorithm.  Unlike a naive overlap-only replica
/// count, this estimate is robust against the store growth caused by
/// anti-entropy reconciliation and key shipments during construction.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Assessment {
    /// Whether the partition must be split (storage bound exceeded, enough
    /// replicas, and actually splittable by bisection).
    pub overloaded: bool,
    /// Whether a bisection can separate the observed keys at all.  A
    /// partition whose observed entries all share a single key value (e.g.
    /// the postings of one very popular index term) can never be balanced by
    /// bisection at any depth, so it is left alone regardless of its size.
    pub splittable: bool,
    /// Capture–recapture estimate of the distinct keys in the partition.
    pub estimated_keys: f64,
    /// Estimated fraction of the partition's load in its lower half
    /// (the `p̂` of Section 3.2).
    pub p_lower: f64,
}

/// Effective decision probabilities for one encounter, evaluated at the
/// assessed load ratio.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct DecisionProbabilities {
    /// Probability of a balanced split when two undecided peers meet
    /// (already floored at [`MIN_BALANCED_SPLIT_PROBABILITY`]).
    pub alpha: f64,
    /// Probability of deciding for side `0` when meeting a peer decided for
    /// side `1`.
    pub q0: f64,
    /// Probability of deciding for side `1` when meeting a peer decided for
    /// side `0`.
    pub q1: f64,
}

/// The outcome of the bilateral decision of Figure 2.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ExchangeDecision {
    /// Extend paths at `partition`: the undecided (lagging) peer takes
    /// `bit`.  When `balanced`, two peers of the same level split together
    /// and the partner simultaneously takes `!bit`; otherwise the lagging
    /// peer catches up with a partner that already decided at this level.
    Split {
        /// The partition being split (the lagging peer's current path).
        partition: Path,
        /// The side the lagging peer takes.
        bit: bool,
        /// Whether this is a balanced two-peer split (as opposed to a
        /// one-sided catch-up).
        balanced: bool,
    },
    /// Same partition, not overloaded: become mutual replicas and reconcile
    /// contents.
    Replicate,
    /// The peers belong to different partitions: refer the initiator to a
    /// routing reference at the divergence level.
    Refer {
        /// The level (common prefix length) at which the paths diverge.
        level: usize,
    },
    /// No state change (e.g. an overloaded partition whose balanced-split
    /// roll failed — the fruitless interaction of Section 4.2).
    Nothing,
}

/// What [`apply_decision`] did to the two peers.
#[derive(Clone, Debug, Default)]
pub struct ApplyOutcome {
    /// Data entries moved between peers (split handovers + reconciliation).
    pub keys_moved: usize,
    /// Path extensions performed (2 for a balanced split, 1 for a catch-up).
    pub splits: usize,
    /// Replication relationships established or refreshed.
    pub replications: usize,
    /// Whether anything useful happened (the progress signal that resets
    /// the fruitless-interaction back-off of Section 4.2).
    pub useful: bool,
    /// Entries that must be delivered to a third peer: in a same-side
    /// catch-up the keys of the complementary subtree belong to the routing
    /// reference, not to either interacting peer.
    pub forwarded: Option<(RoutingEntry, Vec<DataEntry>)>,
}

/// The shared protocol core: balance parameters plus probability strategy.
///
/// The engine itself is stateless — randomness is injected per call — so a
/// single instance can serve any number of concurrent encounters.
#[derive(Copy, Clone, Debug)]
pub struct ExchangeEngine {
    params: BalanceParams,
    strategy: ProbabilityStrategy,
}

impl ExchangeEngine {
    /// An engine using the exact AEP probabilities.
    pub fn new(params: BalanceParams) -> ExchangeEngine {
        ExchangeEngine::with_strategy(params, ProbabilityStrategy::Aep)
    }

    /// An engine using the given probability strategy.
    pub fn with_strategy(params: BalanceParams, strategy: ProbabilityStrategy) -> ExchangeEngine {
        ExchangeEngine { params, strategy }
    }

    /// The balance parameters in effect.
    pub fn params(&self) -> &BalanceParams {
        &self.params
    }

    /// The probability strategy in effect.
    pub fn strategy(&self) -> ProbabilityStrategy {
        self.strategy
    }

    /// `Some(level)` when the two paths belong to different partitions, so
    /// the encounter can only be a referral at `level`; `None` when the
    /// bilateral decision of [`ExchangeEngine::decide`] applies.
    pub fn refer_level(path_a: &Path, path_b: &Path) -> Option<usize> {
        if path_a.is_prefix_of(path_b) || path_b.is_prefix_of(path_a) {
            None
        } else {
            Some(path_a.common_prefix_len(path_b))
        }
    }

    /// Assesses the shared `partition` from the two peers' stores, which
    /// must already be restricted to `partition` (see
    /// [`crate::store::KeyStore::restricted`]).
    ///
    /// Accepts any [`StoreRead`] — an owned `KeyStore` or the zero-copy
    /// [`crate::store::RestrictedView`] both runtimes assess through — and
    /// produces identical numbers for identical entry sets either way.
    pub fn assess(&self, a: &impl StoreRead, b: &impl StoreRead, partition: &Path) -> Assessment {
        let count_a = a.len();
        let count_b = b.len();
        let overlap = a.intersection_size_with(b);
        let union = count_a + count_b - overlap;

        // Capture–recapture estimate of the distinct keys in the partition.
        let estimated_keys = if count_a == 0 || count_b == 0 {
            union as f64
        } else if overlap == 0 {
            // No overlap carries no upper bound on D; treat as "much larger
            // than what we can see".
            (union as f64) * 4.0
        } else {
            ((count_a as f64 * count_b as f64) / overlap as f64).max(union as f64)
        };
        let estimated_replicas =
            self.params.n_min as f64 * estimated_keys / self.params.delta_max as f64;

        // Load ratio of the lower half, estimated from the union of both
        // stores restricted to the partition (the "sample" of Section 3.2 —
        // its size is bounded by delta_max via the storage balancing itself).
        let lower = partition.child(false);
        let in_lower = a.count_in(&lower) + b.count_in(&lower);
        let total = count_a + count_b;
        let p_lower = if total == 0 {
            0.5
        } else {
            (in_lower as f64 / total as f64).clamp(1e-3, 1.0 - 1e-3)
        };

        let splittable = match (a.key_span_in(partition), b.key_span_in(partition)) {
            (Some((lo_a, hi_a)), Some((lo_b, hi_b))) => lo_a.min(lo_b) != hi_a.max(hi_b),
            (Some((lo, hi)), None) | (None, Some((lo, hi))) => lo != hi,
            (None, None) => false,
        };

        Assessment {
            overloaded: splittable
                && estimated_keys > self.params.delta_max as f64
                && estimated_replicas >= 2.0 * self.params.n_min as f64,
            splittable,
            estimated_keys,
            p_lower,
        }
    }

    /// The strategy's effective decision probabilities at the assessed load
    /// ratio, with the balanced-split floor applied to `alpha`.
    pub fn probabilities(&self, assessment: &Assessment) -> DecisionProbabilities {
        let (alpha, q0, q1) = match self.strategy {
            ProbabilityStrategy::Aep => effective_probabilities(assessment.p_lower),
            ProbabilityStrategy::Heuristic => heuristic_effective(assessment.p_lower),
        };
        DecisionProbabilities {
            alpha: alpha.max(MIN_BALANCED_SPLIT_PROBABILITY),
            q0,
            q1,
        }
    }

    /// Whether a peer's own store alone gives it reason to keep pushing for
    /// a split of its partition: clearly more keys than the storage bound,
    /// spread over both halves.  Used by the back-off rules of both
    /// runtimes (a peer with local evidence never goes dormant).
    pub fn locally_overloaded(&self, peer: &PeerState) -> bool {
        let own = peer.store.covered(&peer.path);
        let span = own.first().zip(own.last()).map(|(lo, hi)| (lo.key, hi.key));
        self.overloaded(own.len(), span)
    }

    /// [`ExchangeEngine::locally_overloaded`] on the numbers a
    /// [`Summary`](crate::store::Summary) of the peer's partition carries:
    /// `count` entries whose keys span `span`.
    pub fn overloaded(&self, count: usize, span: Option<(Key, Key)>) -> bool {
        count >= 2 * self.params.delta_max && matches!(span, Some((lo, hi)) if lo != hi)
    }

    /// The bilateral decision of Figure 2 for one encounter.
    ///
    /// `lagging_path` is the path of the peer the decision is *for* — the
    /// one whose path is no longer than the partner's (`ahead_path`).  The
    /// `assessment` must come from [`ExchangeEngine::assess`] over the
    /// partition `lagging_path`.  One encounter consumes at most two random
    /// draws from `rng`.
    pub fn decide<R: Rng + ?Sized>(
        &self,
        lagging_path: Path,
        ahead_path: Path,
        assessment: &Assessment,
        rng: &mut R,
    ) -> ExchangeDecision {
        if let Some(level) = ExchangeEngine::refer_level(&lagging_path, &ahead_path) {
            return ExchangeDecision::Refer { level };
        }
        debug_assert!(
            lagging_path.len() <= ahead_path.len(),
            "decide() must be called with the shallower path first"
        );
        let partition = lagging_path;

        if lagging_path == ahead_path {
            // Two undecided peers of the same partition: balanced split with
            // the (floored) probability alpha, replicas otherwise.
            if assessment.overloaded && partition.len() < MAX_PATH_LEN {
                let probabilities = self.probabilities(assessment);
                if rng.gen_bool(probabilities.alpha.clamp(0.0, 1.0)) {
                    // One peer takes each side, uniformly at random, as the
                    // analysis of Section 3 assumes.
                    let bit = rng.gen_bool(0.5);
                    return ExchangeDecision::Split {
                        partition,
                        bit,
                        balanced: true,
                    };
                }
                return ExchangeDecision::Nothing;
            }
            return ExchangeDecision::Replicate;
        }

        // The lagging peer meets a peer that has already decided at the
        // lagging peer's level: the AEP decided-peer rules (cases 3/4 of the
        // algorithm in Section 3.1).  The partition was split by others, so
        // it must have been overloaded; still verify from local information
        // to avoid splitting partitions that were split by mistake and to
        // keep the storage criterion in charge.
        if !assessment.overloaded {
            return ExchangeDecision::Nothing;
        }
        let probabilities = self.probabilities(assessment);
        let ahead_bit = ahead_path.bit(partition.len());
        let opposite_probability = if ahead_bit {
            probabilities.q0
        } else {
            probabilities.q1
        };
        let bit = if rng.gen_bool(opposite_probability.clamp(0.0, 1.0)) {
            !ahead_bit
        } else {
            ahead_bit
        };
        ExchangeDecision::Split {
            partition,
            bit,
            balanced: false,
        }
    }
}

/// Applies `decision` to the two peers of a local interaction.
///
/// `peer` is the peer the decision was made for (the lagging/undecided
/// one), `partner` the other party.  A same-side catch-up split needs a
/// routing reference to the complementary subtree, supplied as `complement`
/// (typically drawn from the partner's routing table at the partition's
/// level); without one the split cannot be completed and the interaction is
/// reported as fruitless, exactly as in both original engines.
///
/// [`ExchangeDecision::Refer`] is transport-specific (who is referred to
/// whom depends on the runtime's routing tables and messaging) and is a
/// no-op here.
pub fn apply_decision<R: Rng + ?Sized>(
    decision: &ExchangeDecision,
    peer: &mut PeerState,
    partner: &mut PeerState,
    complement: Option<RoutingEntry>,
    rng: &mut R,
) -> ApplyOutcome {
    let mut outcome = ApplyOutcome::default();
    match *decision {
        ExchangeDecision::Nothing | ExchangeDecision::Refer { .. } => {}
        ExchangeDecision::Replicate => {
            let reconciled = crate::replication::reconcile(&mut peer.store, &mut partner.store);
            outcome.keys_moved += reconciled.total_transferred();
            outcome.replications = 1;
            if !peer.replicas.contains(&partner.id) {
                peer.replicas.push(partner.id);
            }
            if !partner.replicas.contains(&peer.id) {
                partner.replicas.push(peer.id);
            }
            // Fully synchronised copies teach nothing — the termination
            // signal of Section 4.2.
            outcome.useful = outcome.keys_moved > 0;
        }
        ExchangeDecision::Split {
            partition,
            bit,
            balanced: true,
        } => {
            let peer_id = peer.id;
            let partner_id = partner.id;
            let shipped_to_partner = peer.split_towards(
                bit,
                RoutingEntry {
                    peer: partner_id,
                    path: partition.child(!bit),
                },
                rng,
            );
            let shipped_to_peer = partner.split_towards(
                !bit,
                RoutingEntry {
                    peer: peer_id,
                    path: partition.child(bit),
                },
                rng,
            );
            outcome.keys_moved += shipped_to_partner.len() + shipped_to_peer.len();
            partner.store.merge_batch(shipped_to_partner);
            peer.store.merge_batch(shipped_to_peer);
            outcome.splits = 2;
            outcome.useful = true;
        }
        ExchangeDecision::Split {
            partition,
            bit,
            balanced: false,
        } => {
            let ahead_bit = partner.path.bit(partition.len());
            let reference = if bit != ahead_bit {
                // Taking the opposite side: the partner itself is the
                // reference for the complementary subtree.
                RoutingEntry {
                    peer: partner.id,
                    path: partner.path,
                }
            } else {
                match complement {
                    Some(reference) => reference,
                    // No reference for the complementary side available:
                    // the split cannot be completed (fruitless).
                    None => return outcome,
                }
            };
            let shipped = peer.split_towards(bit, reference, rng);
            outcome.splits = 1;
            outcome.keys_moved += shipped.len();
            if reference.peer == partner.id {
                partner.store.merge_batch(shipped);
            } else {
                outcome.forwarded = Some((reference, shipped));
            }
            // Joining the partner's side: reconcile so replicas converge
            // quickly.
            if bit == ahead_bit && peer.path == partner.path {
                let reconciled = crate::replication::reconcile(&mut peer.store, &mut partner.store);
                outcome.keys_moved += reconciled.total_transferred();
                if !peer.replicas.contains(&partner.id) {
                    peer.replicas.push(partner.id);
                }
                if !partner.replicas.contains(&peer.id) {
                    partner.replicas.push(peer.id);
                }
            }
            outcome.useful = true;
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::{DataId, Key};
    use crate::routing::PeerId;
    use crate::store::KeyStore;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn store(fracs: &[f64], id_base: u64) -> KeyStore {
        KeyStore::from_entries(
            fracs
                .iter()
                .enumerate()
                .map(|(i, &x)| DataEntry::new(Key::from_fraction(x), DataId(id_base + i as u64))),
        )
    }

    fn peer_with(id: u64, path: &str, fracs: &[f64], id_base: u64) -> PeerState {
        let mut p = PeerState::with_entries(
            PeerId(id),
            4,
            fracs
                .iter()
                .enumerate()
                .map(|(i, &x)| DataEntry::new(Key::from_fraction(x), DataId(id_base + i as u64))),
        );
        p.path = Path::parse(path);
        p
    }

    fn engine() -> ExchangeEngine {
        ExchangeEngine::new(BalanceParams::new(4, 2))
    }

    #[test]
    fn refer_level_detects_diverging_partitions() {
        assert_eq!(
            ExchangeEngine::refer_level(&Path::parse("01"), &Path::parse("00")),
            Some(1)
        );
        assert_eq!(
            ExchangeEngine::refer_level(&Path::parse("0"), &Path::parse("01")),
            None
        );
        assert_eq!(
            ExchangeEngine::refer_level(&Path::root(), &Path::parse("1")),
            None
        );
    }

    #[test]
    fn assessment_flags_an_overloaded_partition() {
        let e = engine();
        // Two disjoint-id, overlapping-key stores well above delta_max = 4.
        let shared: Vec<f64> = (0..10).map(|i| i as f64 / 10.0).collect();
        let a = store(&shared, 0);
        let b = store(&shared, 0); // identical ids: full overlap
        let assessment = e.assess(&a, &b, &Path::root());
        assert!(assessment.splittable);
        assert!(assessment.overloaded);
        assert!(assessment.estimated_keys >= 10.0);
        assert!((assessment.p_lower - 0.5).abs() < 0.01);
    }

    #[test]
    fn single_point_partitions_are_never_split() {
        let e = engine();
        let a = store(&[0.25; 20], 0);
        let b = store(&[0.25; 20], 100);
        let assessment = e.assess(&a, &b, &Path::root());
        assert!(!assessment.splittable);
        assert!(!assessment.overloaded);
    }

    #[test]
    fn empty_stores_assess_as_balanced_and_harmless() {
        let e = engine();
        let empty = KeyStore::new();
        let assessment = e.assess(&empty, &empty, &Path::root());
        assert!(!assessment.overloaded);
        assert_eq!(assessment.p_lower, 0.5);
    }

    #[test]
    fn probabilities_are_floored_and_in_range() {
        let e = engine();
        // Extremely skewed partition: theoretical alpha underflows the floor.
        let fracs: Vec<f64> = (0..40).map(|i| 0.9 + i as f64 / 400.0).collect();
        let a = store(&fracs, 0);
        let b = store(&fracs, 0);
        let assessment = e.assess(&a, &b, &Path::root());
        let probabilities = e.probabilities(&assessment);
        assert!(probabilities.alpha >= MIN_BALANCED_SPLIT_PROBABILITY);
        assert!((0.0..=1.0).contains(&probabilities.q0));
        assert!((0.0..=1.0).contains(&probabilities.q1));
    }

    #[test]
    fn decide_replicates_when_not_overloaded() {
        let e = engine();
        let mut rng = StdRng::seed_from_u64(1);
        let a = store(&[0.1, 0.6], 0);
        let b = store(&[0.1, 0.6], 0);
        let assessment = e.assess(&a, &b, &Path::root());
        assert_eq!(
            e.decide(Path::root(), Path::root(), &assessment, &mut rng),
            ExchangeDecision::Replicate
        );
    }

    #[test]
    fn decide_refers_across_partitions() {
        let e = engine();
        let mut rng = StdRng::seed_from_u64(1);
        let assessment = e.assess(&KeyStore::new(), &KeyStore::new(), &Path::root());
        assert_eq!(
            e.decide(Path::parse("10"), Path::parse("11"), &assessment, &mut rng),
            ExchangeDecision::Refer { level: 1 }
        );
    }

    #[test]
    fn decide_eventually_splits_an_overloaded_partition() {
        let e = engine();
        let mut rng = StdRng::seed_from_u64(2);
        let shared: Vec<f64> = (0..12).map(|i| i as f64 / 12.0).collect();
        let a = store(&shared, 0);
        let b = store(&shared, 0);
        let assessment = e.assess(&a, &b, &Path::root());
        assert!(assessment.overloaded);
        let mut split_seen = false;
        for _ in 0..64 {
            match e.decide(Path::root(), Path::root(), &assessment, &mut rng) {
                ExchangeDecision::Split {
                    partition,
                    balanced,
                    ..
                } => {
                    assert_eq!(partition, Path::root());
                    assert!(balanced);
                    split_seen = true;
                }
                ExchangeDecision::Nothing => {}
                other => panic!("unexpected decision {other:?}"),
            }
        }
        assert!(split_seen, "a balanced 50/50 partition must split quickly");
    }

    #[test]
    fn catch_up_takes_some_side_of_an_overloaded_partition() {
        let e = engine();
        let mut rng = StdRng::seed_from_u64(3);
        let shared: Vec<f64> = (0..12).map(|i| i as f64 / 12.0).collect();
        let a = store(&shared, 0);
        let b = store(&shared, 0);
        let assessment = e.assess(&a, &b, &Path::root());
        let decision = e.decide(Path::root(), Path::parse("0"), &assessment, &mut rng);
        match decision {
            ExchangeDecision::Split {
                partition,
                balanced,
                ..
            } => {
                assert_eq!(partition, Path::root());
                assert!(!balanced);
            }
            other => panic!("unexpected decision {other:?}"),
        }
    }

    #[test]
    fn apply_balanced_split_partitions_the_data() {
        let mut rng = StdRng::seed_from_u64(4);
        let fracs: Vec<f64> = (0..8).map(|i| i as f64 / 8.0).collect();
        let mut a = peer_with(1, "", &fracs, 0);
        let mut b = peer_with(2, "", &fracs, 0);
        let decision = ExchangeDecision::Split {
            partition: Path::root(),
            bit: false,
            balanced: true,
        };
        let outcome = apply_decision(&decision, &mut a, &mut b, None, &mut rng);
        assert!(outcome.useful);
        assert_eq!(outcome.splits, 2);
        assert_eq!(a.path, Path::parse("0"));
        assert_eq!(b.path, Path::parse("1"));
        assert!(a.store.iter().all(|e| a.path.covers(e.key)));
        assert!(b.store.iter().all(|e| b.path.covers(e.key)));
        assert!(a.invariants_hold() && b.invariants_hold());
    }

    #[test]
    fn apply_replicate_reconciles_and_registers_replicas() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut a = peer_with(1, "", &[0.1, 0.2], 0);
        let mut b = peer_with(2, "", &[0.3, 0.4], 100);
        let outcome = apply_decision(&ExchangeDecision::Replicate, &mut a, &mut b, None, &mut rng);
        assert!(outcome.useful);
        assert_eq!(outcome.replications, 1);
        assert_eq!(a.store.len(), 4);
        assert_eq!(b.store.len(), 4);
        assert!(a.replicas.contains(&b.id));
        assert!(b.replicas.contains(&a.id));
        // A second application transfers nothing and is fruitless.
        let again = apply_decision(&ExchangeDecision::Replicate, &mut a, &mut b, None, &mut rng);
        assert!(!again.useful);
    }

    #[test]
    fn apply_opposite_catch_up_ships_keys_to_the_partner() {
        let mut rng = StdRng::seed_from_u64(6);
        let fracs: Vec<f64> = (0..8).map(|i| i as f64 / 8.0).collect();
        let mut lagging = peer_with(1, "", &fracs, 0);
        let mut ahead = peer_with(2, "0", &fracs[..4], 100);
        // Partner decided for side 0; the lagging peer takes the opposite.
        let decision = ExchangeDecision::Split {
            partition: Path::root(),
            bit: true,
            balanced: false,
        };
        let outcome = apply_decision(&decision, &mut lagging, &mut ahead, None, &mut rng);
        assert!(outcome.useful);
        assert_eq!(outcome.splits, 1);
        assert!(outcome.forwarded.is_none());
        assert_eq!(lagging.path, Path::parse("1"));
        // The lower-half keys were handed to the ahead peer directly.
        assert!(lagging.store.iter().all(|e| lagging.path.covers(e.key)));
    }

    #[test]
    fn apply_same_side_catch_up_requires_and_uses_the_complement() {
        let mut rng = StdRng::seed_from_u64(7);
        let fracs: Vec<f64> = (0..8).map(|i| i as f64 / 8.0).collect();
        let decision = ExchangeDecision::Split {
            partition: Path::root(),
            bit: false,
            balanced: false,
        };

        // Without a complement reference the split cannot complete.
        let mut lagging = peer_with(1, "", &fracs, 0);
        let mut ahead = peer_with(2, "0", &fracs[..4], 100);
        let outcome = apply_decision(&decision, &mut lagging, &mut ahead, None, &mut rng);
        assert!(!outcome.useful);
        assert_eq!(lagging.path, Path::root(), "no split without a reference");

        // With one, the other side's keys are forwarded to the reference.
        let complement = RoutingEntry {
            peer: PeerId(9),
            path: Path::parse("1"),
        };
        let outcome = apply_decision(
            &decision,
            &mut lagging,
            &mut ahead,
            Some(complement),
            &mut rng,
        );
        assert!(outcome.useful);
        assert_eq!(lagging.path, Path::parse("0"));
        let (reference, entries) = outcome.forwarded.expect("keys go to the third peer");
        assert_eq!(reference.peer, PeerId(9));
        assert!(entries.iter().all(|e| Path::parse("1").covers(e.key)));
        // Same partition now: the peers reconciled and know each other.
        assert!(lagging.replicas.contains(&ahead.id));
        assert!(ahead.replicas.contains(&lagging.id));
    }
}
