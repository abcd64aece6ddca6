//! Parallel execution of conflict-free interaction batches.
//!
//! The executor receives a batch of [`crate::schedule::InteractionScript`]s
//! whose claim sets are pairwise disjoint.  It distributes exclusive
//! `&mut PeerState` handles to each script in one pass over the peer slice
//! (safe Rust — no peer is handed out twice because the scheduler
//! guarantees disjointness, and the ownership map enforces it), then runs
//! the scripts either inline or in chunks that the calling thread and its
//! `std::thread::scope` helpers take from a shared cursor.  Each chunk
//! accumulates a [`crate::metrics::MetricsDelta`]; deltas are merged in
//! chunk order and per-script outcomes are applied in batch order
//! afterwards, so the result is bit-identical for every thread count.
//!
//! A script's execution touches only its claimed peers: the refer chain's
//! mutual `learn_reference` calls (initiator + contacted peer), the local
//! exchange (the two interacting peers) and the complement forward (the
//! recipient recorded — and claimed — at plan time).  All random draws come
//! from the script's private execution stream.

use crate::metrics::MetricsDelta;
use crate::schedule::{Endpoint, InteractionScript};
use pgrid_core::exchange::{self, ExchangeEngine};
use pgrid_core::peer::PeerState;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Batches smaller than this run inline even when more threads are
/// configured: distributing a handful of interactions costs more in thread
/// hand-off than it saves.  Timed per batch-size bucket, one thread against
/// two on a 2 vCPU Xeon @ 2.10 GHz (EXPERIMENTS.md, "a construction
/// interaction pays for its exchange"), the speed-up of two threads was
/// 0.80× at 8–15 scripts and 1.10× at 16–31 on uniform keys, 0.82× at 4–7
/// and 1.12× at 8–15 on skewed keys.
const MIN_PARALLEL_BATCH: usize = 16;

/// Scripts a thread takes from a batch at a time.
const CHUNK: usize = 8;

/// What the post-batch bookkeeping needs to know about one interaction.
pub(crate) struct ScriptOutcome {
    /// The initiating peer (drives the fruitless/back-off counters).
    pub(crate) initiator: usize,
    /// Whether the interaction made useful progress.
    pub(crate) useful: bool,
    /// Peers to re-activate (the two parties of a useful local exchange).
    pub(crate) activate: Option<(usize, usize)>,
}

/// Exclusive handles to the peers claimed by one interaction.
struct ClaimSlots<'s, 'a> {
    slots: &'s mut [(usize, &'a mut PeerState)],
}

impl ClaimSlots<'_, '_> {
    fn position(&self, index: usize) -> usize {
        self.slots
            .iter()
            .position(|(p, _)| *p == index)
            .expect("peer accessed without a claim")
    }

    /// The claimed peer at `index`.
    fn get(&mut self, index: usize) -> &mut PeerState {
        let at = self.position(index);
        &mut *self.slots[at].1
    }

    /// Two distinct claimed peers at once.
    fn pair(&mut self, a: usize, b: usize) -> (&mut PeerState, &mut PeerState) {
        assert_ne!(a, b, "an interaction pairs two distinct peers");
        let (pa, pb) = (self.position(a), self.position(b));
        if pa < pb {
            let (left, right) = self.slots.split_at_mut(pb);
            (&mut *left[pa].1, &mut *right[0].1)
        } else {
            let (left, right) = self.slots.split_at_mut(pa);
            (&mut *right[0].1, &mut *left[pb].1)
        }
    }
}

/// Marks a peer no script of the current batch claimed.
const UNCLAIMED: u32 = u32::MAX;

/// Runs batches of conflict-free interactions on the configured threads.
pub(crate) struct Executor {
    /// Per peer, the slot its handle takes in the current batch's claim
    /// order (`UNCLAIMED` outside a batch); kept for the whole run.
    slot_of: Vec<u32>,
    threads: usize,
}

impl Executor {
    /// An executor for `n_peers` peers on `threads` threads.
    pub(crate) fn new(n_peers: usize, threads: usize) -> Executor {
        Executor {
            slot_of: vec![UNCLAIMED; n_peers],
            threads,
        }
    }

    /// Executes one batch of conflict-free interactions, returning the
    /// merged metrics delta and the per-script outcomes in batch order.
    pub(crate) fn execute_batch(
        &mut self,
        batch: &mut [InteractionScript],
        peers: &mut [PeerState],
        engine: &ExchangeEngine,
    ) -> (MetricsDelta, Vec<ScriptOutcome>) {
        let n_peers = peers.len();
        if batch.is_empty() {
            return (MetricsDelta::default(), Vec::new());
        }

        // Hand out exclusive peer handles: every claim gets a slot, script
        // after script, and one pass over the peer slice puts each claimed
        // `&mut PeerState` into its slot (and clears the map behind it).
        let mut claimed = 0;
        for script in batch.iter() {
            for &claim in &script.claims {
                debug_assert_eq!(
                    self.slot_of[claim], UNCLAIMED,
                    "claim sets must be disjoint"
                );
                self.slot_of[claim] = claimed as u32;
                claimed += 1;
            }
        }
        let mut slots: Vec<Option<(usize, &mut PeerState)>> =
            std::iter::repeat_with(|| None).take(claimed).collect();
        for (index, peer) in peers.iter_mut().enumerate() {
            let slot = std::mem::replace(&mut self.slot_of[index], UNCLAIMED);
            if slot != UNCLAIMED {
                slots[slot as usize] = Some((index, peer));
            }
        }
        let mut handles: Vec<(usize, &mut PeerState)> = slots
            .into_iter()
            .map(|slot| slot.expect("every claim names a peer"))
            .collect();
        let mut rest = handles.as_mut_slice();
        let mut work: Vec<WorkItem<'_, '_, '_>> = Vec::with_capacity(batch.len());
        for script in batch.iter_mut() {
            let (slots, tail) = std::mem::take(&mut rest).split_at_mut(script.claims.len());
            rest = tail;
            work.push((script, ClaimSlots { slots }));
        }

        if self.threads <= 1 || work.len() < MIN_PARALLEL_BATCH {
            return run_chunk(&mut work, engine, n_peers);
        }

        // Chunks of `CHUNK` scripts go to whichever thread asks next, the
        // calling thread included, so a thread that drew cheap scripts takes
        // more of them; each chunk's results carry its index and are put
        // back in chunk order.  The cursor publishes nothing but itself (a
        // chunk's contents pass through its mutex), hence `Relaxed`.
        let batch_len = work.len();
        let chunks: Vec<Mutex<&mut [WorkItem<'_, '_, '_>]>> =
            work.chunks_mut(CHUNK).map(Mutex::new).collect();
        let cursor = AtomicUsize::new(0);
        let drain = || {
            let mut done = Vec::new();
            loop {
                let index = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(chunk) = chunks.get(index) else {
                    return done;
                };
                let mut chunk = chunk.lock().expect("each chunk is taken once");
                done.push((index, run_chunk(&mut chunk, engine, n_peers)));
            }
        };
        let mut results = std::thread::scope(|scope| {
            let helpers: Vec<_> = (1..self.threads).map(|_| scope.spawn(drain)).collect();
            let mut results = drain();
            for helper in helpers {
                results.extend(helper.join().expect("batch worker must not panic"));
            }
            results
        });
        results.sort_unstable_by_key(|&(index, _)| index);
        let mut delta = MetricsDelta::default();
        let mut outcomes = Vec::with_capacity(batch_len);
        for (_, (chunk_delta, chunk_outcomes)) in results {
            delta.merge(&chunk_delta);
            outcomes.extend(chunk_outcomes);
        }
        (delta, outcomes)
    }
}

/// One script of a batch with the handles to the peers it claimed.
type WorkItem<'w, 's, 'a> = (&'w mut InteractionScript, ClaimSlots<'s, 'a>);

/// Runs a contiguous chunk of scripts on the current thread.
fn run_chunk(
    chunk: &mut [WorkItem<'_, '_, '_>],
    engine: &ExchangeEngine,
    n_peers: usize,
) -> (MetricsDelta, Vec<ScriptOutcome>) {
    let mut delta = MetricsDelta::default();
    let mut outcomes = Vec::with_capacity(chunk.len());
    for (script, slots) in chunk {
        outcomes.push(execute_script(script, slots, engine, n_peers, &mut delta));
    }
    (delta, outcomes)
}

/// Executes one interaction script against its claimed peers.
fn execute_script(
    script: &mut InteractionScript,
    slots: &mut ClaimSlots<'_, '_>,
    engine: &ExchangeEngine,
    n_peers: usize,
    delta: &mut MetricsDelta,
) -> ScriptOutcome {
    let initiator = script.initiator;
    let rng = &mut script.exec_rng;
    delta.interactions += script.contacts;
    delta.refer_hops += script.refer_targets.len();
    if script.contacts > 0 {
        delta.per_initiator.push((initiator, script.contacts));
    }

    // Replay the refer chain: both parties of every hop learn a routing
    // reference at the divergence level (the chain itself was fixed at plan
    // time, so only the state transition happens here).
    for &target in &script.refer_targets {
        let (peer_i, peer_t) = slots.pair(initiator, target);
        let (id_i, path_i) = (peer_i.id, peer_i.path);
        let (id_t, path_t) = (peer_t.id, peer_t.path);
        peer_i.learn_reference(id_t, path_t, rng);
        peer_t.learn_reference(id_i, path_i, rng);
    }

    match script.endpoint {
        Endpoint::Fruitless => {
            if script.contacts > 0 {
                delta.fruitless_interactions += 1;
            }
            ScriptOutcome {
                initiator,
                useful: false,
                activate: None,
            }
        }
        Endpoint::Local {
            partner,
            complement,
        } => {
            // Work on the shallower peer's partition: if one peer has
            // already extended its path beyond the other, the shallower one
            // is the one with a decision to make.
            let (lagging, ahead) = {
                let len_i = slots.get(initiator).path.len();
                let len_p = slots.get(partner).path.len();
                if len_i <= len_p {
                    (initiator, partner)
                } else {
                    (partner, initiator)
                }
            };
            let (peer_lagging, peer_ahead) = slots.pair(lagging, ahead);
            let partition = peer_lagging.path;
            let assessment = {
                let store_lagging = peer_lagging.store.restricted(&partition);
                let store_ahead = peer_ahead.store.restricted(&partition);
                engine.assess(&store_lagging, &store_ahead, &partition)
            };
            let decision = engine.decide(peer_lagging.path, peer_ahead.path, &assessment, rng);
            let outcome =
                exchange::apply_decision(&decision, peer_lagging, peer_ahead, complement, rng);
            delta.tally.record(&outcome);
            // Keys of a same-side catch-up belong to the complementary
            // subtree's reference peer (content exchange of Figure 2); the
            // recipient was claimed at plan time.
            if let Some((reference, entries)) = outcome.forwarded {
                let recipient = reference.peer.0 as usize;
                if recipient < n_peers {
                    slots.get(recipient).store.merge_batch(entries);
                }
            }
            if outcome.useful {
                ScriptOutcome {
                    initiator,
                    useful: true,
                    activate: Some((lagging, ahead)),
                }
            } else {
                delta.fruitless_interactions += 1;
                ScriptOutcome {
                    initiator,
                    useful: false,
                    activate: None,
                }
            }
        }
    }
}
