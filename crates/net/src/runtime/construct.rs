//! Overlay construction: the join handshake, the replication phase and the
//! exchange protocol of Figure 2 driven by per-peer, per-index tick chains.
//! State lives in the index-slot table (`constructing`, `tick_armed`,
//! `fruitless` next to each peer's overlay state); entry points are
//! [`Runtime::join_peer`], [`Runtime::replication_phase_on`],
//! [`Runtime::start_construction_on`] and
//! [`Runtime::construction_quiescent`].

use super::clock::EventKind;
use super::Runtime;
use crate::message::{ExchangeOutcome, Message};
use pgrid_core::exchange::{ExchangeDecision, ExchangeEngine};
use pgrid_core::index::IndexId;
use pgrid_core::key::DataEntry;
use pgrid_core::path::Path;
use pgrid_core::routing::{PeerId, RoutingEntry};
use pgrid_core::store::{KeyStore, StoreRead};
use pgrid_obs::trace::AMBIENT_TRACE;
use pgrid_transport::Transport;
use rand::seq::SliceRandom;
use rand::Rng;

impl<T: Transport> Runtime<T> {
    /// Brings a peer online and connects it to `fanout` random already-online
    /// peers (its unstructured-overlay neighbours), as the bootstrap phase of
    /// Section 5.1 does.
    pub fn join_peer(&mut self, peer: usize, fanout: usize) {
        let mut neighbours: Vec<PeerId> = (0..self.nodes.len())
            .filter(|&i| self.nodes[i].is_up())
            .map(|i| PeerId(i as u64))
            .collect();
        neighbours.shuffle(&mut self.rng);
        neighbours.truncate(fanout);
        self.finish_join(peer, neighbours, true);
    }

    /// Brings a peer online with a pre-computed neighbour list instead of a
    /// locally drawn one.
    ///
    /// This is [`Runtime::join_peer`] minus the random selection: the
    /// cluster's join plan fixes every peer's bootstrap contacts up front
    /// (deterministically from the seed) so that all worker processes agree
    /// on the unstructured overlay — including the adjacency of peers they
    /// do not host, which the random-walk contact sampling and query
    /// routing read.  Join handshake bandwidth is only accounted by the
    /// process hosting the joiner.
    pub fn join_peer_with_neighbours(&mut self, peer: usize, neighbours: Vec<PeerId>) {
        self.finish_join(peer, neighbours, self.hosted(peer));
    }

    fn finish_join(&mut self, peer: usize, neighbours: Vec<PeerId>, account: bool) {
        let me = PeerId(peer as u64);
        self.nodes[peer].joined = true;
        self.nodes[peer].online = true;
        // The join handshake is applied synchronously; its two messages
        // only exist for bandwidth accounting.
        if account && !neighbours.is_empty() {
            let now = self.clock.now;
            let join = Message::Join { peer: me };
            let ack = Message::JoinAck {
                neighbours: neighbours.clone(),
            };
            for message in [join, ack] {
                self.metrics
                    .account(now, message.wire_size(), message.is_query_traffic());
            }
        }
        // Symmetric neighbour links keep the unstructured overlay
        // connected; applied identically in every process, they keep the
        // replicated adjacency consistent.
        for n in &neighbours {
            let other = &mut self.nodes[n.0 as usize].neighbours;
            if !other.contains(&me) {
                other.push(me);
            }
        }
        self.nodes[peer].neighbours = neighbours;
        self.rebuild_online_cache();
    }

    /// Replicates every online peer's original entries to `n_min` random
    /// neighbours-of-neighbours (the replication phase of the primary
    /// index).
    pub fn replication_phase(&mut self) {
        self.replication_phase_on(IndexId::PRIMARY);
    }

    /// The replication phase of one index.
    pub fn replication_phase_on(&mut self, index: IndexId) {
        self.recorder.note(
            self.clock.now,
            "phase",
            format!("replication phase started on index {}", index.0),
        );
        let n_min = self.config.n_min;
        let hosted: Vec<usize> = self.hosted_peers().collect();
        for peer in hosted {
            if !self.nodes[peer].online {
                continue;
            }
            self.links.actor = peer;
            let entries: Vec<DataEntry> = self
                .indexes
                .state(index, peer)
                .store
                .iter()
                .copied()
                .collect();
            for _ in 0..n_min {
                if let Some(target) = self.random_contact(peer) {
                    self.send_on(
                        index,
                        target,
                        Message::Replicate {
                            entries: entries.clone(),
                        },
                    );
                }
            }
            // Flush per source peer: each peer's replica pushes form one
            // frame per destination, so a loss draw drops one source's
            // copies, not a destination's entire replication phase.
            self.flush_pending();
        }
    }

    /// Starts periodic construction ticks on every hosted online peer (the
    /// primary index).
    pub fn start_construction(&mut self) {
        self.start_construction_on(IndexId::PRIMARY);
    }

    /// Starts periodic construction ticks of one index on every hosted
    /// online peer.  Peers whose tick chain is still scheduled are left
    /// alone (re-arming would double their tick rate); peers whose chain
    /// died — a tick fired while they were offline during churn — are
    /// re-armed, so a scenario can re-engage construction after a churn
    /// window (or after [`Runtime::insert_entries`] shifted the data).
    pub fn start_construction_on(&mut self, index: IndexId) {
        self.recorder.note(
            self.clock.now,
            "phase",
            format!("construction started on index {}", index.0),
        );
        let hosted: Vec<usize> = self.hosted_peers().collect();
        for peer in hosted {
            if self.nodes[peer].online {
                self.arm_tick(index, peer);
            }
        }
    }

    /// Arms `peer`'s construction tick chain on `index` with a jittered
    /// first tick; a chain that is still scheduled is left alone.
    pub(super) fn arm_tick(&mut self, index: IndexId, peer: usize) {
        let slot = self.indexes.slot_mut(index);
        if slot.tick_armed[peer] {
            return;
        }
        slot.tick_armed[peer] = true;
        slot.constructing[peer] = true;
        let jitter = self
            .rng
            .gen_range(0..self.config.construct_interval_ms.max(1));
        self.clock.schedule(
            self.clock.now + jitter,
            EventKind::ConstructTick { index, peer },
        );
    }

    /// Whether construction has settled: every hosted, online peer whose
    /// tick chain is still live (on any index) has reached the back-off
    /// regime — repeated fruitless exchanges and no local evidence that
    /// its partition still needs splitting.  Dead tick chains (a tick
    /// fired while the peer was offline) do not block quiescence: they do
    /// nothing until re-armed.  `true` when no peer is constructing at
    /// all.
    pub fn construction_quiescent(&self) -> bool {
        self.indexes.0.iter().all(|slot| {
            self.hosted_peers()
                .filter(|&p| self.nodes[p].is_up() && slot.constructing[p] && slot.tick_armed[p])
                .all(|p| slot.fruitless[p] >= 4 && !self.engine.locally_overloaded(&slot.states[p]))
        })
    }

    pub(super) fn construct_tick(&mut self, index: IndexId, peer: usize) {
        self.links.actor = peer;
        let slot = self.indexes.slot_mut(index);
        if !self.nodes[peer].online || !slot.constructing[peer] {
            // The chain ends here (no reschedule, as in the paper's
            // reference run); `start_construction_on` can re-arm it.
            slot.tick_armed[peer] = false;
            return;
        }
        // Back off after repeated fruitless exchanges unless the local store
        // clearly indicates an overloaded, still splittable partition.  A
        // backed-off peer does not stop entirely: it keeps exchanging at a
        // much lower rate, which provides the background anti-entropy that
        // keeps replicas converged during the operational phase (and shows
        // up as the residual maintenance bandwidth of Figure 8).
        let backing_off =
            slot.fruitless[peer] >= 4 && !self.engine.locally_overloaded(&slot.states[peer]);
        if let Some(target) = self.random_contact(peer) {
            let state = self.indexes.state(index, peer);
            let entries = state.store.restricted(&state.path).as_slice().to_vec();
            let message = Message::Exchange {
                from: PeerId(peer as u64),
                path: state.path,
                entries,
            };
            self.send_on(index, target, message);
        }
        let interval = if backing_off {
            self.config.construct_interval_ms * 10
        } else {
            self.config.construct_interval_ms
        };
        let jitter = self.rng.gen_range(0..interval.max(1));
        self.clock.schedule(
            self.clock.now + interval + jitter,
            EventKind::ConstructTick { index, peer },
        );
    }

    /// An `Exchange` request reached `responder`: decide, reply, and drop
    /// the responder's memoised routing resolutions (the exchange may have
    /// changed its path or routing table).
    pub(super) fn handle_exchange(
        &mut self,
        index: IndexId,
        responder: usize,
        from: PeerId,
        path: Path,
        entries: &[DataEntry],
    ) {
        let outcome = self.decide_exchange(index, responder, from, path, entries);
        if self.tracer.is_enabled() {
            let label = match &outcome {
                ExchangeOutcome::Split { .. } => "split",
                ExchangeOutcome::Replicate { .. } => "replicate",
                ExchangeOutcome::Refer { .. } => "refer",
                ExchangeOutcome::Nothing => "nothing",
            };
            self.tracer.record(
                AMBIENT_TRACE,
                "exchange_decision",
                responder as u64,
                self.clock.now,
                || format!("from={} index={} outcome={label}", from.0, index.0),
            );
        }
        let reply = Message::ExchangeReply {
            from: PeerId(responder as u64),
            path: self.indexes.state(index, responder).path,
            outcome,
        };
        self.send_on(index, from.0 as usize, reply);
        self.lookups.invalidate_routes(responder, index);
    }

    /// The contacted peer's local decision for an exchange (Figure 2).
    ///
    /// The protocol decision — assessment, probabilities and the random
    /// draw — is delegated to the shared [`pgrid_core::exchange`] engine;
    /// this method only translates the resulting [`ExchangeDecision`] into
    /// the wire protocol's [`ExchangeOutcome`] and the responder-side state
    /// transition.
    fn decide_exchange(
        &mut self,
        index: IndexId,
        responder: usize,
        initiator: PeerId,
        initiator_path: Path,
        initiator_entries: &[DataEntry],
    ) -> ExchangeOutcome {
        let responder_path = self.indexes.state(index, responder).path;

        if ExchangeEngine::refer_level(&responder_path, &initiator_path).is_some() {
            // Refer the initiator to a peer for its own side, and learn a
            // reference ourselves.
            let level = responder_path.common_prefix_len(&initiator_path);
            let state = self.indexes.state_mut(index, responder);
            state.learn_reference(initiator, initiator_path, &mut self.rng);
            return match state.routing.level(level).choose(&mut self.rng) {
                Some(entry) if entry.peer != initiator => ExchangeOutcome::Refer {
                    peer: entry.peer,
                    path: entry.path,
                },
                _ => ExchangeOutcome::Nothing,
            };
        }

        // Work on the shallower of the two paths; the engine decides on
        // behalf of the shallower ("lagging") peer.
        let partition = if responder_path.len() <= initiator_path.len() {
            responder_path
        } else {
            initiator_path
        };
        let initiator_store = KeyStore::from_entries(
            initiator_entries
                .iter()
                .copied()
                .filter(|e| partition.covers(e.key)),
        );
        // Zero-copy view of the responder's partition entries; everything
        // derived from it is computed before the responder's state is
        // mutated.
        let responder_store = self
            .indexes
            .state(index, responder)
            .store
            .restricted(&partition);
        let assessment = self
            .engine
            .assess(&initiator_store, &responder_store, &partition);

        if responder_path.len() == initiator_path.len() {
            // Two undecided peers at the same level.
            let decision =
                self.engine
                    .decide(initiator_path, responder_path, &assessment, &mut self.rng);
            return match decision {
                ExchangeDecision::Replicate => {
                    // Become replicas: hand over what the initiator is
                    // missing, pull what the responder is missing (it
                    // arrived with the request).
                    let to_initiator = responder_store.missing_in(&initiator_store);
                    let to_responder = initiator_store.missing_in(&responder_store);
                    let state = self.indexes.state_mut(index, responder);
                    if !state.replicas.contains(&initiator) {
                        state.replicas.push(initiator);
                    }
                    state.store.merge_batch(to_responder);
                    ExchangeOutcome::Replicate {
                        entries: to_initiator,
                    }
                }
                ExchangeDecision::Split {
                    bit: initiator_bit,
                    balanced: true,
                    ..
                } => {
                    // The responder extends its own path with the
                    // complementary bit and hands over the initiator's side.
                    let state = self.indexes.state_mut(index, responder);
                    let handover = state.split_towards(
                        !initiator_bit,
                        RoutingEntry {
                            peer: initiator,
                            path: partition.child(initiator_bit),
                        },
                        &mut self.rng,
                    );
                    // Keep the initiator's entries that belong to our new
                    // side.
                    let own_path = state.path;
                    state
                        .store
                        .merge_batch(initiator_store.restricted(&own_path).as_slice().to_vec());
                    ExchangeOutcome::Split {
                        partition,
                        initiator_bit,
                        entries: handover,
                        complement: None,
                    }
                }
                _ => ExchangeOutcome::Nothing,
            };
        }

        if responder_path.len() > initiator_path.len() {
            // The initiator lags behind a peer (us) that has already decided
            // at this level: the engine applies the decided-peer rules
            // (cases 3/4) on its behalf; we ship the entries of its new side.
            let decision =
                self.engine
                    .decide(initiator_path, responder_path, &assessment, &mut self.rng);
            let ExchangeDecision::Split {
                bit: initiator_bit,
                balanced: false,
                ..
            } = decision
            else {
                return ExchangeOutcome::Nothing;
            };
            let responder_bit = responder_path.bit(partition.len());
            // When the initiator joins the responder's own side it needs a
            // reference to the complementary subtree, which the responder has
            // in its routing table for this level.
            let complement = if initiator_bit == responder_bit {
                let refs = self
                    .indexes
                    .state(index, responder)
                    .routing
                    .level(partition.len());
                match refs.choose(&mut self.rng) {
                    Some(entry) => Some((entry.peer, entry.path)),
                    None => return ExchangeOutcome::Nothing,
                }
            } else {
                None
            };
            let initiator_new_path = partition.child(initiator_bit);
            let handover = self
                .indexes
                .state(index, responder)
                .store
                .restricted(&initiator_new_path)
                .as_slice()
                .to_vec();
            return ExchangeOutcome::Split {
                partition,
                initiator_bit,
                entries: handover,
                complement,
            };
        }

        // The responder itself lags behind the initiator: catch up locally
        // using the initiator as the already-decided peer.  Only the
        // opposite-side decision can be completed here (it yields the
        // initiator as the routing reference); for the same-side decision we
        // would need one of the initiator's references, so we simply wait for
        // a later exchange.
        let decision =
            self.engine
                .decide(responder_path, initiator_path, &assessment, &mut self.rng);
        let ahead_bit = initiator_path.bit(partition.len());
        match decision {
            ExchangeDecision::Split {
                bit,
                balanced: false,
                ..
            } if bit != ahead_bit => {
                let shipped = self.indexes.state_mut(index, responder).split_towards(
                    bit,
                    RoutingEntry {
                        peer: initiator,
                        path: initiator_path,
                    },
                    &mut self.rng,
                );
                // The shipped entries belong to the initiator's half of the
                // partition; hand them over with the reply.
                ExchangeOutcome::Replicate { entries: shipped }
            }
            _ => ExchangeOutcome::Nothing,
        }
    }

    /// The initiator applies the responder's decision (which may change
    /// its path or routing table, so its memoised routing resolutions go).
    pub(super) fn apply_exchange_reply(
        &mut self,
        index: IndexId,
        initiator: usize,
        responder: PeerId,
        responder_path: Path,
        outcome: ExchangeOutcome,
    ) {
        let slot = self.indexes.slot_mut(index);
        let state = &mut slot.states[initiator];
        // Always learn a routing reference from the encounter if possible.
        state.learn_reference(responder, responder_path, &mut self.rng);
        let fruitful = match outcome {
            ExchangeOutcome::Nothing => false,
            ExchangeOutcome::Refer { peer, path } => {
                state.learn_reference(peer, path, &mut self.rng);
                false
            }
            ExchangeOutcome::Replicate { entries } => {
                let added = state.store.merge_batch(entries);
                if !state.replicas.contains(&responder) {
                    state.replicas.push(responder);
                }
                added != 0
            }
            ExchangeOutcome::Split {
                partition,
                initiator_bit,
                entries,
                complement,
            } => {
                let node_path = state.path;
                // The decision applies to the partition the responder saw in
                // the request; if the initiator has moved on in the meantime
                // (a concurrent exchange extended its path) the reply is
                // stale and must be ignored.
                if node_path == partition {
                    // Reference for the complementary subtree: the responder
                    // itself when we took the opposite side, otherwise the
                    // complement peer it referred us to.
                    let reference = match complement {
                        Some((peer, path)) => RoutingEntry { peer, path },
                        None => RoutingEntry {
                            peer: responder,
                            path: if responder_path.len() > node_path.len() {
                                responder_path
                            } else {
                                node_path.child(!initiator_bit)
                            },
                        },
                    };
                    let shipped = state.split_towards(initiator_bit, reference, &mut self.rng);
                    state.store.merge_batch(entries);
                    // Hand the entries of the other side back to the
                    // responder (content exchange).
                    if !shipped.is_empty() {
                        self.send_on(
                            index,
                            responder.0 as usize,
                            Message::Replicate { entries: shipped },
                        );
                    }
                }
                node_path == partition
            }
        };
        let fruitless = &mut self.indexes.slot_mut(index).fruitless[initiator];
        *fruitless = if fruitful { 0 } else { *fruitless + 1 };
        self.lookups.invalidate_routes(initiator, index);
    }
}
