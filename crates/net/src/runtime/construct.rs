//! Overlay construction: the join handshake, the replication phase and the
//! exchange protocol of Figure 2 driven by per-peer tick chains.  A
//! peer's tick chain, fruitless count and referral budget live in its
//! `Peer` next to its overlay state, and the exchange steps one peer takes
//! alone are `impl Peer` methods here; entry points are
//! [`Runtime::join_peer`], [`Runtime::replication_phase`],
//! [`Runtime::start_construction`] and [`Runtime::construction_quiescent`].
//!
//! An exchange compares paths before any entry moves.  A tick sends an
//! `Offer` — the peer's path and the count and digest of its entries
//! there — to a random contact, which answers:
//!
//! - `Refer` / `Nothing` when the paths diverge, as nearly every backed-off
//!   exchange does;
//! - a decision at once when its own entries under the offered path have
//!   the offered summary (it already holds the initiator's entries);
//! - `Want` otherwise.  The initiator answers with the `Exchange` body,
//!   encoded from its run, if its path is still the one it offered, and
//!   with a fresh `Offer` if it has moved.  The body is decided on as it
//!   arrives, so a responder that has moved meanwhile refers it.
//!
//! A `Want` leaves `fruitless` alone; only a decision counts.  A `Refer`
//! into the initiator's own partition opens an exchange with the referred
//! peer at once, at most `MAX_REFER_HOPS - 1` times between two ticks.

use super::clock::EventKind;
use super::{Millis, NetMetrics, Peer, Runtime};
use crate::message::{ExchangeOutcome, Message};
use pgrid_core::exchange::{ExchangeDecision, ExchangeEngine, MAX_REFER_HOPS};
use pgrid_core::key::DataEntry;
use pgrid_core::path::Path;
use pgrid_core::routing::{PeerId, RoutingEntry};
use pgrid_core::store::{KeyStore, StoreRead, Summary};
use pgrid_core::wire::{Be, Entries};
use pgrid_obs::trace::AMBIENT_TRACE;
use pgrid_transport::Transport;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use std::cmp::min_by_key;

/// Interval between construction ticks of a peer, in virtual milliseconds;
/// a backed-off peer ticks ten times less often.
const CONSTRUCT_INTERVAL_MS: Millis = 5_000;

impl<T: Transport> Runtime<T> {
    /// Brings a peer online and connects it to `fanout` random already-online
    /// peers (its unstructured-overlay neighbours), as the bootstrap phase of
    /// Section 5.1 does.
    pub fn join_peer(&mut self, peer: usize, fanout: usize) {
        let online = self.peers.iter().filter(|p| p.state.online);
        let mut neighbours: Vec<PeerId> = online.map(|p| p.state.id).collect();
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
        let joiner = &mut self.peers[peer];
        joiner.joined = true;
        joiner.state.online = true;
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
            let other = &mut self.peers[n.0 as usize].neighbours;
            if !other.contains(&me) {
                other.push(me);
            }
        }
        self.peers[peer].neighbours = neighbours;
        self.contacts.offsets.clear();
        self.rebuild_online_cache();
    }

    /// Replicates every online peer's original entries to `n_min` random
    /// neighbours-of-neighbours (the replication phase).
    pub fn replication_phase(&mut self) {
        let now = self.clock.now;
        let started = "replication phase started".to_string();
        self.recorder.note(now, "phase", started);
        let n_min = self.config.n_min;
        let hosted: Vec<usize> = self.hosted_peers().collect();
        for peer in hosted {
            let state = &self.peers[peer].state;
            if !state.online {
                continue;
            }
            self.links.actor = peer;
            let entries: Vec<DataEntry> = state.store.iter().copied().collect();
            for _ in 0..n_min {
                if let Some(target) = self.random_contact(peer) {
                    self.send(
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

    /// Starts periodic construction ticks on every hosted online peer.
    /// Peers whose tick chain is still scheduled are left alone (re-arming
    /// would double their tick rate); peers whose chain died — a tick fired
    /// while they were offline during churn — are re-armed, so a scenario
    /// can re-engage construction after a churn window (or after
    /// [`Runtime::insert_entries`] shifted the data).
    pub fn start_construction(&mut self) {
        self.recorder
            .note(self.clock.now, "phase", "construction started".to_string());
        let hosted: Vec<usize> = self.hosted_peers().collect();
        for peer in hosted {
            self.arm_tick(peer);
        }
    }

    /// Arms `peer`'s construction tick chain with a jittered first tick; a
    /// chain that is still scheduled, or an offline peer, is left alone.
    pub(super) fn arm_tick(&mut self, peer: usize) {
        let armed = &mut self.peers[peer];
        if armed.tick_armed || !armed.state.online {
            return;
        }
        armed.tick_armed = true;
        let jitter = self.rng.gen_range(0..CONSTRUCT_INTERVAL_MS);
        self.clock
            .schedule(self.clock.now + jitter, EventKind::ConstructTick { peer });
    }

    /// Whether construction has settled: every hosted, online peer whose
    /// tick chain is still live has reached the back-off regime — repeated
    /// fruitless exchanges and no local evidence that its partition still
    /// needs splitting.  Dead tick chains (a tick fired while the peer was
    /// offline) do not block quiescence: they do nothing until re-armed.
    /// `true` when no tick chain is live at all.
    pub fn construction_quiescent(&self) -> bool {
        self.hosted_peers()
            .map(|p| &self.peers[p])
            .filter(|p| p.state.online && p.tick_armed)
            .all(|p| p.backing_off(self.engine.locally_overloaded(&p.state)))
    }

    pub(super) fn construct_tick(&mut self, peer: usize) {
        self.links.actor = peer;
        let ticking = &mut self.peers[peer];
        if !ticking.state.online {
            // The chain ends here (no reschedule, as in the paper's
            // reference run); `start_construction` can re-arm it.
            ticking.tick_armed = false;
            return;
        }
        // A backed-off peer does not stop entirely: it keeps exchanging at
        // a much lower rate, which provides the background anti-entropy
        // that keeps replicas converged during the operational phase (and
        // shows up as the residual maintenance bandwidth of Figure 8).
        let own = ticking.own_summary(&mut self.metrics);
        let backing_off = ticking.backing_off(self.engine.overloaded(own.count, own.span));
        ticking.referrals = 0;
        if let Some(target) = self.random_contact(peer) {
            let offer = self.peers[peer].offer(&mut self.metrics);
            self.send(target, offer);
        }
        let interval = CONSTRUCT_INTERVAL_MS * if backing_off { 10 } else { 1 };
        let jitter = self.rng.gen_range(0..interval);
        self.clock.schedule(
            self.clock.now + interval + jitter,
            EventKind::ConstructTick { peer },
        );
    }

    /// An `Offer` reached `responder`.  Diverging paths are referred as
    /// ever.  When the paths meet, the responder's own entries under the
    /// initiator's path are the initiator's entries if their count and
    /// digest are the offered ones: it decides on them at once.  Otherwise
    /// it asks for the entries with a `Want`.
    pub(super) fn handle_offer(
        &mut self,
        responder: usize,
        from: PeerId,
        path: Path,
        count: u32,
        digest: u64,
    ) {
        let me = &mut self.peers[responder];
        if let Some(referral) = me.refer(from, path, &mut self.rng) {
            return self.reply_exchange(responder, from, referral, false);
        }
        // A handle on the run, not a copy: the decision below may replace
        // the responder's run, never change it in place.
        let own = me.state.store.clone();
        let known = own.restricted(&path);
        let same = known.len() == count as usize
            && digest
                == if path == me.state.path {
                    me.own_summary(&mut self.metrics).digest
                } else {
                    self.metrics.digested_entries += known.len();
                    known.digest()
                };
        if same {
            let outcome = me.decide_exchange(&self.engine, from, path, &known, &mut self.rng);
            self.reply_exchange(responder, from, outcome, true);
        } else {
            self.reply_exchange(responder, from, ExchangeOutcome::Want { path }, false);
        }
    }

    /// An `Exchange` body reached `responder`: refer if the paths have
    /// diverged since the offer, decide otherwise.  `entries` are still in
    /// the arrived frame and are read only once the partitions meet.
    pub(super) fn handle_exchange(
        &mut self,
        responder: usize,
        from: PeerId,
        path: Path,
        entries: Entries<'_, Be>,
    ) {
        let me = &mut self.peers[responder];
        let outcome = match me.refer(from, path, &mut self.rng) {
            Some(referral) => referral,
            None => {
                // One pass from the frame into the store's run.
                let partition = min_by_key(me.state.path, path, Path::len);
                let mut covered = Vec::with_capacity(entries.len());
                covered.extend(entries.iter().filter(|entry| partition.covers(entry.key)));
                let shipped = KeyStore::from_entries(covered);
                me.decide_exchange(&self.engine, from, path, &shipped, &mut self.rng)
            }
        };
        self.reply_exchange(responder, from, outcome, false);
    }

    /// Sends the responder's `outcome` to the initiator and drops the
    /// responder's memoised routing resolutions (the exchange may have
    /// changed its path or routing table).  `known`: the decision was taken
    /// on the responder's copy of the offered entries.
    fn reply_exchange(
        &mut self,
        responder: usize,
        initiator: PeerId,
        outcome: ExchangeOutcome,
        known: bool,
    ) {
        let (now, known) = (self.clock.now, if known { " known" } else { "" });
        let kind = "exchange_decision";
        self.tracer
            .record(AMBIENT_TRACE, kind, responder as u64, now, || {
                let label = match &outcome {
                    ExchangeOutcome::Split { .. } => "split",
                    ExchangeOutcome::Replicate { .. } => "replicate",
                    ExchangeOutcome::Refer { .. } => "refer",
                    ExchangeOutcome::Nothing => "nothing",
                    ExchangeOutcome::Want { .. } => "want",
                };
                format!("from={} outcome={label}{known}", initiator.0)
            });
        let reply = Message::ExchangeReply {
            from: PeerId(responder as u64),
            path: self.peers[responder].state.path,
            outcome,
        };
        self.send(initiator.0 as usize, reply);
        self.lookups.invalidate_routes(responder);
    }

    /// The initiator applies the responder's decision (which may change
    /// its path or routing table, so its memoised routing resolutions go),
    /// or answers its `Want`.
    pub(super) fn apply_exchange_reply(
        &mut self,
        initiator: usize,
        responder: PeerId,
        responder_path: Path,
        outcome: ExchangeOutcome,
    ) {
        let me = &mut self.peers[initiator];
        // Always learn a routing reference from the encounter if possible.
        me.state
            .learn_reference(responder, responder_path, &mut self.rng);
        if let ExchangeOutcome::Want { path } = outcome {
            self.answer_want(initiator, responder.0 as usize, path);
        } else if let Some((to, message)) = me.apply_decision(
            responder,
            responder_path,
            outcome,
            &mut self.rng,
            &mut self.metrics,
        ) {
            self.send(to.0 as usize, message);
        }
        self.lookups.invalidate_routes(initiator);
    }

    /// The responder asked for the entries `initiator` offered under
    /// `path`.  They go from the run straight into the staging arena while
    /// the initiator's path is still `path`; a path that has moved is
    /// offered afresh, so no decision is taken on a stale one.
    fn answer_want(&mut self, initiator: usize, responder: usize, path: Path) {
        let me = &mut self.peers[initiator];
        if me.state.path != path {
            let offer = me.offer(&mut self.metrics);
            return self.send(responder, offer);
        }
        let run = me.state.store.restricted(&path);
        let bytes = self.links.stage(responder, |buf| {
            Message::encode_exchange(buf, me.state.id, &path, run.as_slice())
        });
        self.metrics.account(self.clock.now, bytes, false);
    }
}

impl Peer {
    /// Whether the peer ticks at the slow rate: after repeated fruitless
    /// exchanges, unless its store clearly indicates an overloaded, still
    /// splittable partition ([`ExchangeEngine::overloaded`]).
    fn backing_off(&self, overloaded: bool) -> bool {
        self.fruitless >= 4 && !overloaded
    }

    /// The summary of the peer's own partition, from its memo while path
    /// and run are unchanged; a walk is counted in
    /// [`NetMetrics::digested_entries`].
    fn own_summary(&mut self, metrics: &mut NetMetrics) -> Summary {
        let state = &self.state;
        let (summary, walked) = state.store.summary(&state.path, &mut self.summary);
        if walked {
            metrics.digested_entries += summary.count;
        }
        summary
    }

    /// The `Offer` that opens an exchange: the peer's path and the count
    /// and digest of its entries there.  It is maintenance traffic and
    /// never enveloped.
    fn offer(&mut self, metrics: &mut NetMetrics) -> Message {
        let summary = self.own_summary(metrics);
        Message::Offer {
            from: self.state.id,
            path: self.state.path,
            count: u32::try_from(summary.count).unwrap_or(u32::MAX),
            digest: summary.digest,
        }
    }

    /// The referral of an exchange whose paths diverge, `None` when they
    /// meet: the responder refers the initiator to a peer for its own side
    /// and learns a reference itself.
    fn refer(
        &mut self,
        initiator: PeerId,
        initiator_path: Path,
        rng: &mut StdRng,
    ) -> Option<ExchangeOutcome> {
        let state = &mut self.state;
        let level = ExchangeEngine::refer_level(&state.path, &initiator_path)?;
        state.learn_reference(initiator, initiator_path, rng);
        Some(match state.routing.level(level).choose(rng) {
            Some(entry) if entry.peer != initiator => ExchangeOutcome::Refer {
                peer: entry.peer,
                path: entry.path,
            },
            _ => ExchangeOutcome::Nothing,
        })
    }

    /// The contacted peer's local decision for an exchange whose partitions
    /// meet (Figure 2), on the initiator's entries within the shallower of
    /// the two paths.
    ///
    /// The protocol decision — assessment, probabilities and the random
    /// draw — is delegated to the shared [`pgrid_core::exchange`] engine;
    /// this method only translates the resulting [`ExchangeDecision`] into
    /// the wire protocol's [`ExchangeOutcome`] and the responder-side state
    /// transition.
    fn decide_exchange(
        &mut self,
        engine: &ExchangeEngine,
        initiator: PeerId,
        initiator_path: Path,
        initiator_store: &impl StoreRead,
        rng: &mut StdRng,
    ) -> ExchangeOutcome {
        let responder_path = self.state.path;
        // The engine decides on behalf of the shallower ("lagging") peer.
        let partition = min_by_key(responder_path, initiator_path, Path::len);
        // Zero-copy view of the responder's partition entries; everything
        // derived from it is computed before the responder's state is
        // mutated.
        let responder_store = self.state.store.restricted(&partition);
        let assessment = engine.assess(initiator_store, &responder_store, &partition);

        if responder_path.len() == initiator_path.len() {
            // Two undecided peers at the same level.
            let decision = engine.decide(initiator_path, responder_path, &assessment, rng);
            return match decision {
                ExchangeDecision::Replicate => {
                    // Become replicas: hand over what the initiator is
                    // missing, pull what the responder is missing (it
                    // arrived with the request).
                    let (to_initiator, to_responder) = responder_store.differences(initiator_store);
                    let state = &mut self.state;
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
                    let state = &mut self.state;
                    let handover = state.split_towards(
                        !initiator_bit,
                        RoutingEntry {
                            peer: initiator,
                            path: partition.child(initiator_bit),
                        },
                        rng,
                    );
                    // Keep the initiator's entries that belong to our new
                    // side.
                    let own_path = state.path;
                    state
                        .store
                        .merge_batch(initiator_store.covered(&own_path).to_vec());
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
            let decision = engine.decide(initiator_path, responder_path, &assessment, rng);
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
                match self.state.routing.level(partition.len()).choose(rng) {
                    Some(entry) => Some((entry.peer, entry.path)),
                    None => return ExchangeOutcome::Nothing,
                }
            } else {
                None
            };
            let side = partition.child(initiator_bit);
            let handover = self.state.store.restricted(&side).as_slice().to_vec();
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
        let decision = engine.decide(responder_path, initiator_path, &assessment, rng);
        let ahead_bit = initiator_path.bit(partition.len());
        match decision {
            ExchangeDecision::Split {
                bit,
                balanced: false,
                ..
            } if bit != ahead_bit => {
                let shipped = self.state.split_towards(
                    bit,
                    RoutingEntry {
                        peer: initiator,
                        path: initiator_path,
                    },
                    rng,
                );
                // The shipped entries belong to the initiator's half of the
                // partition; hand them over with the reply.
                ExchangeOutcome::Replicate { entries: shipped }
            }
            _ => ExchangeOutcome::Nothing,
        }
    }

    /// The initiator applies the responder's decision — any outcome but a
    /// `Want`, which the runtime answers — and counts it fruitful or not.
    /// Returns what it sends on: the `Offer` of a referral it follows, or
    /// the entries of its new other side back to the responder.
    fn apply_decision(
        &mut self,
        responder: PeerId,
        responder_path: Path,
        outcome: ExchangeOutcome,
        rng: &mut StdRng,
        metrics: &mut NetMetrics,
    ) -> Option<(PeerId, Message)> {
        let state = &mut self.state;
        let mut send = None;
        let fruitful = match outcome {
            ExchangeOutcome::Nothing | ExchangeOutcome::Want { .. } => false,
            ExchangeOutcome::Refer { peer, path } => {
                state.learn_reference(peer, path, rng);
                // A referral into the initiator's own partition is
                // followed at once, as the simulator follows its refer
                // chains; peers of a partition seldom meet otherwise, and
                // their stores never converge.
                if state.shares_partition_with(&path)
                    && usize::from(self.referrals) + 1 < MAX_REFER_HOPS
                {
                    self.referrals += 1;
                    send = Some((peer, self.offer(metrics)));
                }
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
                    let shipped = state.split_towards(initiator_bit, reference, rng);
                    state.store.merge_batch(entries);
                    // Hand the entries of the other side back to the
                    // responder (content exchange).
                    if !shipped.is_empty() {
                        send = Some((responder, Message::Replicate { entries: shipped }));
                    }
                }
                node_path == partition
            }
        };
        self.fruitless = if fruitful { 0 } else { self.fruitless + 1 };
        send
    }
}
