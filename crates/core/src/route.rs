//! The routing step: what one peer does with a lookup or a range walk that
//! reaches it (Section 2.1).  It does no I/O: it reads one [`PeerState`]
//! and returns a decision, which the deployment runtime encodes as a
//! message and [`crate::search`] drives over a slice of peer states for the
//! simulator, so both engines route with this one function.

use crate::key::{DataEntry, Key};
use crate::peer::PeerState;
use crate::routing::{PeerId, RoutingEntry};
use rand::seq::SliceRandom;
use rand::Rng;

/// Hops a lookup may be forwarded over.  The limit is checked after the
/// next hop is picked, so a lookup can still be answered at hop
/// `MAX_HOPS + 1`.
const MAX_HOPS: u32 = 128;

/// Hops a whole range walk may take: a walk visits one partition per
/// slice, so its budget scales with a lookup's.
const RANGE_HOP_BUDGET: u32 = MAX_HOPS * 32;

/// Why a walk ended without entries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reason {
    /// The peer has no reference at the mismatch level.
    NoReference,
    /// No reference at the mismatch level is reachable.
    Unreachable,
    /// The hop budget is spent.
    HopLimit,
    /// The covering peer lacks the key and has no replica left to try.
    Absent,
}

/// What a peer does with a lookup.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Step {
    /// It covers the key and answers with these entries (never empty).
    Answer(Vec<DataEntry>),
    /// It forwards to `peer`, a reference for the complementary subtree at
    /// `level`.
    Forward {
        /// The next hop.
        peer: PeerId,
        /// The first level at which the peer's path disagrees with the key.
        level: usize,
    },
    /// It covers the key but lacks it, and forwards to this replica.
    ToReplica(PeerId),
    /// The lookup ends here without entries.
    DeadEnd(Reason),
}

/// What a peer does with the cursor of a range walk.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RangeStep {
    /// It covers the cursor and answers the slice `[cursor, upto]`; the
    /// walk goes on from `next` at the same peer, or is done at `None`.
    Slice {
        /// The slice's last key: the partition's upper bound or `hi`.
        upto: Key,
        /// The peer's entries in the slice.
        entries: Vec<DataEntry>,
        /// The next cursor, `upto + 1`, while `upto < hi`.
        next: Option<Key>,
    },
    /// It forwards the walk to `peer`, as [`Step::Forward`].
    Forward {
        /// The next hop.
        peer: PeerId,
        /// The first level at which the peer's path disagrees with the
        /// cursor.
        level: usize,
    },
    /// It cannot forward.  On [`Reason::HopLimit`] the walk ends; otherwise
    /// the caller may detour through [`pick_other`].
    DeadEnd(Reason),
}

/// The reference pick: shuffles the peers of `refs` into `scratch` and
/// takes the first reachable one.
pub fn pick_reference<R: Rng + ?Sized>(
    refs: &[RoutingEntry],
    reachable: impl Fn(PeerId) -> bool,
    rng: &mut R,
    scratch: &mut Vec<PeerId>,
) -> Option<PeerId> {
    scratch.clear();
    scratch.extend(refs.iter().map(|e| e.peer));
    scratch.shuffle(rng);
    scratch.iter().copied().find(|&p| reachable(p))
}

/// The lookup step of `state` for `key`, which has come `hops` hops so
/// far, forwarding with [`pick_reference`].
pub fn step<R: Rng + ?Sized>(
    state: &PeerState,
    key: Key,
    hops: u32,
    reachable: impl Fn(PeerId) -> bool,
    rng: &mut R,
    scratch: &mut Vec<PeerId>,
) -> Step {
    step_with(state, key, hops, &reachable, |_, refs| {
        pick_reference(refs, &reachable, rng, scratch)
    })
}

/// [`step`] with the reference pick supplied by the caller: `pick` gets the
/// mismatch level and its references, so a caller can keep a memo in front
/// of [`pick_reference`].
pub fn step_with(
    state: &PeerState,
    key: Key,
    hops: u32,
    reachable: impl Fn(PeerId) -> bool,
    pick: impl FnOnce(usize, &[RoutingEntry]) -> Option<PeerId>,
) -> Step {
    let Some(level) = state.path.first_mismatch(key) else {
        let entries: Vec<DataEntry> = state.store.range(key, key).copied().collect();
        if !entries.is_empty() {
            return Step::Answer(entries);
        }
        if hops >= MAX_HOPS {
            return Step::DeadEnd(Reason::HopLimit);
        }
        // The entry may still be in transit to this replica: try another
        // replica of the partition, which is what structural replication
        // is for.
        let mut replicas = state.replicas.iter().copied();
        let replica = replicas.find(|&p| p != state.id && reachable(p));
        return replica.map_or(Step::DeadEnd(Reason::Absent), Step::ToReplica);
    };
    match forward(state, level, pick) {
        Err(reason) => Step::DeadEnd(reason),
        Ok(_) if hops > MAX_HOPS => Step::DeadEnd(Reason::HopLimit),
        Ok(peer) => Step::Forward { peer, level },
    }
}

/// The range-walk step of `state` at `cursor`, for a walk up to `hi` that
/// has come `hops` hops so far; `pick` is the reference pick, as in
/// [`step_with`].
pub fn range_step(
    state: &PeerState,
    hi: Key,
    cursor: Key,
    hops: u32,
    pick: impl FnOnce(usize, &[RoutingEntry]) -> Option<PeerId>,
) -> RangeStep {
    let Some(level) = state.path.first_mismatch(cursor) else {
        let upto = state.path.upper_key().min(hi);
        return RangeStep::Slice {
            upto,
            entries: state.store.range(cursor, upto).copied().collect(),
            next: (upto < hi).then(|| Key(upto.0 + 1)),
        };
    };
    if hops >= RANGE_HOP_BUDGET {
        return RangeStep::DeadEnd(Reason::HopLimit);
    }
    match forward(state, level, pick) {
        Ok(peer) => RangeStep::Forward { peer, level },
        Err(reason) => RangeStep::DeadEnd(reason),
    }
}

/// Picks the next hop among the references at `level`.
fn forward(
    state: &PeerState,
    level: usize,
    pick: impl FnOnce(usize, &[RoutingEntry]) -> Option<PeerId>,
) -> Result<PeerId, Reason> {
    let refs = state.routing.level(level);
    pick(level, refs).ok_or(if refs.is_empty() {
        Reason::NoReference
    } else {
        Reason::Unreachable
    })
}

/// A uniform draw among `peers` other than `except`: a range walk's
/// detour out of a dead end, and the simulator's referral.  It makes
/// exactly the draw `SliceRandom::choose` makes over that filtered list
/// (none when it is empty, `gen_range(0..n)` otherwise) without collecting
/// it.
pub fn pick_other<R: Rng + ?Sized>(
    peers: impl Iterator<Item = usize> + Clone,
    except: usize,
    rng: &mut R,
) -> Option<usize> {
    let mut others = peers.filter(move |&p| p != except);
    let n = others.clone().count();
    if n == 0 {
        return None;
    }
    others.nth(rng.gen_range(0..n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::DataId;
    use crate::path::Path;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const KEY: Key = Key(3 << 62);

    fn held() -> Vec<DataEntry> {
        vec![DataEntry::new(KEY, DataId(9))]
    }

    /// Peer 0 on `path`, holding [`held`] when `holds`; it lists itself and
    /// peers 3 and 4 as replicas and, on a path below 0, knows peers 1 and
    /// 2 (on 1) at level 0.
    fn peer(path: &str, holds: bool) -> PeerState {
        let entries = if holds { held() } else { Vec::new() };
        let mut state = PeerState::with_entries(PeerId(0), 0, entries);
        state.path = Path::parse(path);
        for p in [1, 2] {
            state.learn_reference(PeerId(p), Path::parse("1"), &mut StdRng::seed_from_u64(1));
        }
        state.replicas = vec![PeerId(0), PeerId(3), PeerId(4)];
        state
    }

    /// The lookup step for [`KEY`] with the peers in `down` unreachable.
    fn run(state: &PeerState, hops: u32, down: &[u64]) -> Step {
        let reachable = |p: PeerId| !down.contains(&p.0);
        let mut rng = StdRng::seed_from_u64(7);
        step(state, KEY, hops, reachable, &mut rng, &mut Vec::new())
    }

    #[test]
    fn a_covering_peer_answers_with_its_entries() {
        assert_eq!(run(&peer("11", true), 0, &[]), Step::Answer(held()));
    }

    #[test]
    fn a_mismatch_forwards_to_the_first_reachable_shuffled_reference() {
        let mut shuffled = [1, 2];
        shuffled.shuffle(&mut StdRng::seed_from_u64(7));
        for (down, peer) in [(&[][..], shuffled[0]), (&[shuffled[0]], shuffled[1])] {
            let forward = Step::Forward {
                peer: PeerId(peer),
                level: 0,
            };
            assert_eq!(run(&self::peer("0", false), 0, down), forward);
        }
    }

    #[test]
    fn a_covering_peer_without_the_key_tries_a_reachable_replica() {
        // Itself and the unreachable replica 3 are skipped.
        assert_eq!(run(&peer("11", false), 0, &[3]), Step::ToReplica(PeerId(4)));
    }

    #[test]
    fn a_key_absent_with_no_replica_left_is_a_dead_end() {
        let step = run(&peer("11", false), 0, &[3, 4]);
        assert_eq!(step, Step::DeadEnd(Reason::Absent));
    }

    #[test]
    fn a_level_without_references_is_a_dead_end() {
        let step = run(&peer("10", false), 0, &[]);
        assert_eq!(step, Step::DeadEnd(Reason::NoReference));
    }

    #[test]
    fn a_level_of_unreachable_references_is_a_dead_end() {
        let step = run(&peer("0", false), 0, &[1, 2]);
        assert_eq!(step, Step::DeadEnd(Reason::Unreachable));
    }

    #[test]
    fn the_hop_limit_binds_after_the_pick() {
        let state = peer("0", false);
        assert!(matches!(run(&state, 128, &[]), Step::Forward { .. }));
        assert_eq!(run(&state, 129, &[]), Step::DeadEnd(Reason::HopLimit));
        // The limited hop drew its pick all the same.
        let next_draw = |hops| {
            let mut rng = StdRng::seed_from_u64(7);
            step(&state, KEY, hops, |_| true, &mut rng, &mut Vec::new());
            rng.gen::<u64>()
        };
        assert_eq!(next_draw(128), next_draw(129));
        // A covering peer hands a missing key on only below the limit, and
        // answers a key it holds at any hop count.
        let covering = peer("11", false);
        assert_eq!(run(&covering, 127, &[]), Step::ToReplica(PeerId(3)));
        assert_eq!(run(&covering, 128, &[]), Step::DeadEnd(Reason::HopLimit));
        assert_eq!(run(&peer("11", true), 129, &[]), Step::Answer(held()));
    }

    #[test]
    fn a_range_step_answers_its_slice_or_forwards() {
        let walk = |path, cursor, hops| {
            let pick = |_, refs: &[RoutingEntry]| refs.first().map(|e| e.peer);
            range_step(&peer(path, true), Key::MAX, cursor, hops, pick)
        };
        let slice = |upto, entries, next| RangeStep::Slice {
            upto,
            entries,
            next,
        };
        // "10" ends just below KEY: its slice is empty and the walk goes on
        // at KEY, past "10", where it has no reference at level 1.
        let upto = Path::parse("10").upper_key();
        assert_eq!(
            walk("10", Key(1 << 63), 0),
            slice(upto, Vec::new(), Some(KEY))
        );
        assert_eq!(walk("10", KEY, 0), RangeStep::DeadEnd(Reason::NoReference));
        // "11" reaches the end of the key space: the walk is done.
        assert_eq!(walk("11", KEY, 0), slice(Key::MAX, held(), None));
        // The range budget binds before the pick.
        let forward = RangeStep::Forward {
            peer: PeerId(1),
            level: 0,
        };
        assert_eq!(walk("0", KEY, RANGE_HOP_BUDGET - 1), forward);
        let spent = RangeStep::DeadEnd(Reason::HopLimit);
        assert_eq!(walk("0", KEY, RANGE_HOP_BUDGET), spent);
    }

    #[test]
    fn an_empty_range_completes_at_once() {
        let mut rng = StdRng::seed_from_u64(4);
        let result =
            crate::search::range_query(&[peer("", true)], PeerId(0), KEY, Key(0), &mut rng);
        assert!(result.complete && result.entries.is_empty() && result.partitions_visited == 0);
    }

    #[test]
    fn detour_pick_equals_choose_over_the_filtered_list() {
        let mut lists = StdRng::seed_from_u64(11);
        for case in 0..4_000u64 {
            let at = lists.gen_range(0..8usize);
            let online: Vec<usize> = (0..8).filter(|_| lists.gen_bool(0.5)).collect();
            let others: Vec<usize> = online.iter().copied().filter(|&p| p != at).collect();
            let mut picked = StdRng::seed_from_u64(case);
            let mut chosen = picked.clone();
            assert_eq!(
                pick_other(online.iter().copied(), at, &mut picked),
                others.choose(&mut chosen).copied(),
                "case {case}"
            );
            assert_eq!(picked.gen::<u64>(), chosen.gen::<u64>(), "case {case}");
        }
    }
}
