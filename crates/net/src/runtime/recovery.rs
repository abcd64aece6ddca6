//! Shard reassignment and state recovery.  [`Recovery`] owns the adopted /
//! recovering / reconciling peer sets; entry points are
//! [`Runtime::adopt_peer`], [`Runtime::begin_replica_pull`] (cold: the
//! replica's snapshot replaces the stub), [`Runtime::restore_peer`] +
//! [`Runtime::begin_replica_diff`] (warm: the snapshot is merged into the
//! replayed state) and [`Runtime::recover_locally`] (no replica answered).

use super::Runtime;
use crate::message::Message;
use pgrid_core::key::DataEntry;
use pgrid_core::path::Path;
use pgrid_core::routing::{self, PeerId, RoutingEntry, RoutingTable};
use pgrid_core::store::KeyStore;
use pgrid_obs::trace::AMBIENT_TRACE;
use pgrid_transport::Transport;
use std::collections::BTreeSet;

/// Which hosted peers are in which stage of recovery.
#[derive(Default)]
pub(super) struct Recovery {
    /// Peers adopted from a failed worker's shard, hosted here beyond
    /// `shard`.  Empty in single-process runs and in healthy clusters.
    pub(super) adopted: BTreeSet<usize>,
    /// Adopted peers whose replica pull is still outstanding.
    recovering: BTreeSet<usize>,
    /// Warm-restored peers whose anti-entropy reconciliation with a live
    /// replica is still outstanding.  Unlike `recovering`, these peers
    /// are already online serving their replayed state; a replica's
    /// answer is *merged into* it instead of replacing it.
    pub(super) reconciling: BTreeSet<usize>,
}

impl<T: Transport> Runtime<T> {
    /// Adopts a peer from a failed worker's shard: this runtime becomes the
    /// host of its protocol state.  The peer starts offline — its state is
    /// a stub until [`Runtime::begin_replica_pull`] rebuilds it from a live
    /// replica (or [`Runtime::recover_locally`] falls back to the
    /// regenerated data assignment) — so queries do not route into a
    /// hollow shell meanwhile.
    pub fn adopt_peer(&mut self, peer: usize) {
        if self.shard.contains(&peer) || !self.recovery.adopted.insert(peer) {
            return;
        }
        self.metrics.peers_adopted += 1;
        self.revive_link(peer);
        self.nodes[peer].online = false;
        self.overlay.tick_armed[peer] = false;
        self.rebuild_online_cache();
        self.recorder
            .note(self.clock.now, "recovery", format!("adopted peer {peer}"));
    }

    /// Peers adopted from failed workers, ascending.
    pub fn adopted_peers(&self) -> Vec<usize> {
        self.recovery.adopted.iter().copied().collect()
    }

    /// Asks the live peer `source` for a replica snapshot on behalf of the
    /// adopted peer `peer`.  The answer (a [`Message::ReplicaPush`])
    /// rebuilds the peer's exact `KeyStore`, path and routing table and
    /// brings it back online.
    pub fn begin_replica_pull(&mut self, peer: usize, source: usize) {
        self.recovery.recovering.insert(peer);
        self.request_snapshot("recovery_pull", peer, source);
    }

    /// Asks the live peer `source` for a replica snapshot to *reconcile*
    /// the warm-restored peer `peer` with (anti-entropy): the answer is
    /// merged into the replayed state instead of replacing it, closing
    /// whatever gap the log's last sync left.  The peer keeps serving
    /// meanwhile — this is strictly background traffic.
    pub fn begin_replica_diff(&mut self, peer: usize, source: usize) {
        self.recovery.reconciling.insert(peer);
        self.request_snapshot("recovery_diff", peer, source);
    }

    /// Sends `source` a `ReplicaPull` on behalf of the hosted `peer`.
    fn request_snapshot(&mut self, trace_kind: &'static str, peer: usize, source: usize) {
        debug_assert!(self.hosted(peer), "only hosted peers recover here");
        self.links.actor = peer;
        self.tracer.record(
            AMBIENT_TRACE,
            trace_kind,
            peer as u64,
            self.clock.now,
            || format!("source={source}"),
        );
        self.send(
            source,
            Message::ReplicaPull {
                origin: PeerId(peer as u64),
            },
        );
        self.flush_pending();
    }

    /// Number of adopted peers whose replica snapshot has not arrived yet.
    pub fn pending_recoveries(&self) -> usize {
        self.recovery.recovering.len()
    }

    /// Peers whose replica pull is still outstanding, ascending.
    pub fn recovering_peers(&self) -> Vec<usize> {
        self.recovery.recovering.iter().copied().collect()
    }

    /// Number of warm-restored peers whose reconciliation answer has not
    /// arrived yet.
    pub fn pending_reconciliations(&self) -> usize {
        self.recovery.reconciling.len()
    }

    /// A live hosted peer that lists `peer` as a replica, if any — the
    /// cheapest replica source for a pull, since the snapshot never leaves
    /// the process.
    pub fn find_replica_source(&self, peer: usize) -> Option<usize> {
        let target = PeerId(peer as u64);
        self.hosted_peers()
            .filter(|&p| p != peer && self.nodes[p].is_up())
            .find(|&p| self.overlay.states[p].replicas.contains(&target))
    }

    /// Installs a snapshot as `peer`'s state: exact key store, path,
    /// routing references and replica set (minus the peer itself).
    fn install_snapshot(
        &mut self,
        peer: usize,
        path: Path,
        entries: Vec<DataEntry>,
        routing: Vec<(u8, PeerId, Path)>,
        replicas: Vec<PeerId>,
    ) {
        let mut table = RoutingTable::new(routing::FANOUT);
        for (level, rpeer, rpath) in routing {
            let entry = RoutingEntry {
                peer: rpeer,
                path: rpath,
            };
            table.add(level as usize, entry, &mut self.rng);
        }
        let state = &mut self.overlay.states[peer];
        state.path = path;
        state.store = KeyStore::from_entries(entries);
        state.routing = table;
        state.replicas = replicas;
        state.replicas.retain(|p| p.0 as usize != peer);
    }

    /// Brings a recovered peer (back) into service: joined + online, the
    /// online cache rebuilt and its memoised routing resolutions dropped.
    fn bring_online(&mut self, peer: usize) {
        self.nodes[peer].joined = true;
        self.nodes[peer].online = true;
        self.rebuild_online_cache();
        self.lookups.invalidate_routes(peer);
    }

    /// Restores a hosted peer from a durability-log image (the warm
    /// restart path): exact path, entries, routing references and replica
    /// set, brought online immediately — no replica pull.  With
    /// `constructing` the peer's maintenance tick chain is re-armed, as
    /// [`Runtime::start_construction`] would.
    pub fn restore_peer(
        &mut self,
        peer: usize,
        path: Path,
        entries: Vec<DataEntry>,
        routing: Vec<(u8, PeerId, Path)>,
        replicas: Vec<PeerId>,
        constructing: bool,
    ) {
        debug_assert!(self.hosted(peer), "only hosted peers are restored here");
        self.install_snapshot(peer, path, entries, routing, replicas);
        self.bring_online(peer);
        self.metrics.peers_recovered_warm += 1;
        if constructing {
            self.arm_tick(peer);
        }
        self.recorder.note(
            self.clock.now,
            "recovery",
            format!(
                "peer {peer} restored from durability log (path len {})",
                path.len()
            ),
        );
    }

    /// Fallback recovery without a live replica: the peer keeps its
    /// regenerated original entries (every process derives the full data
    /// assignment from the seed) and adopts `path` — its last path known
    /// to the coordinator — then rejoins.  Used when no replica answers
    /// the pull within the healing window, so recovery always terminates.
    pub fn recover_locally(&mut self, peer: usize, path: Path) {
        self.recovery.recovering.remove(&peer);
        self.metrics.peers_recovered_local += 1;
        self.overlay.states[peer].path = path;
        self.recorder.note(
            self.clock.now,
            "recovery",
            format!("peer {peer} recovered locally (path len {})", path.len()),
        );
        self.finish_recovery(peer);
    }

    /// Brings a recovered peer back into service and — when construction
    /// is still running in this shard — re-arms its tick chain so the peer
    /// keeps participating in the exchange protocol.
    fn finish_recovery(&mut self, peer: usize) {
        self.bring_online(peer);
        let overlay = &self.overlay;
        if self
            .shard
            .clone()
            .any(|p| overlay.constructing[p] && overlay.tick_armed[p])
        {
            self.arm_tick(peer);
        }
    }

    /// A `ReplicaPull` reached `at`: snapshot this peer's partition for the
    /// recovering peer `origin` — path, every stored entry, the routing
    /// table, and the replica set (the paper's replication factor is
    /// exactly what makes this answer possible) — and list `origin` as one
    /// more replica of it.
    pub(super) fn answer_replica_pull(&mut self, at: usize, origin: PeerId) {
        let state = &mut self.overlay.states[at];
        let mut replicas: Vec<PeerId> = state.replicas.clone();
        replicas.retain(|p| *p != origin);
        replicas.push(PeerId(at as u64));
        if !state.replicas.contains(&origin) {
            state.replicas.push(origin);
        }
        let push = Message::ReplicaPush {
            path: state.path,
            entries: state.store.iter().copied().collect(),
            routing: state
                .routing
                .entries()
                .map(|(level, entry)| (level as u8, entry.peer, entry.path))
                .collect(),
            replicas,
        };
        self.tracer.record(
            AMBIENT_TRACE,
            "replica_pull",
            at as u64,
            self.clock.now,
            || format!("origin={}", origin.0),
        );
        self.send(origin.0 as usize, push);
    }

    /// A `ReplicaPush` reached `to`.  A recovering peer is rebuilt from it
    /// (exact key store, the replica's path, its routing references and
    /// replica set); a reconciling peer merges it
    /// ([`Runtime::apply_replica_diff`]); a snapshot for a peer that
    /// already finished (a second replica answered late) is ignored.
    pub(super) fn apply_replica_push(
        &mut self,
        to: usize,
        path: Path,
        entries: Vec<DataEntry>,
        routing: Vec<(u8, PeerId, Path)>,
        replicas: Vec<PeerId>,
    ) {
        if self.recovery.reconciling.remove(&to) {
            self.apply_replica_diff(to, path, entries, routing, replicas);
            return;
        }
        if !self.recovery.recovering.remove(&to) {
            return;
        }
        self.install_snapshot(to, path, entries, routing, replicas);
        self.metrics.peers_recovered_replica += 1;
        self.tracer.record(
            AMBIENT_TRACE,
            "replica_recovered",
            to as u64,
            self.clock.now,
            || format!("path_len={}", path.len()),
        );
        self.recorder.note(
            self.clock.now,
            "recovery",
            format!(
                "peer {to} rebuilt from a live replica (path len {})",
                path.len()
            ),
        );
        self.finish_recovery(to);
    }

    /// Merges a replica's answer into a warm-restored peer (anti-entropy
    /// reconciliation).  Unlike the cold path above, the replayed state is
    /// the baseline: same partition path → union of entries, replicas and
    /// routing references; diverged path (the partition split or moved
    /// while the peer was down) → adopt the replica's identity wholesale
    /// and keep only the replayed entries it still covers.
    fn apply_replica_diff(
        &mut self,
        to: usize,
        path: Path,
        entries: Vec<DataEntry>,
        routing: Vec<(u8, PeerId, Path)>,
        replicas: Vec<PeerId>,
    ) {
        let state = &mut self.overlay.states[to];
        let merged = if state.path == path {
            for (level, peer, rpath) in routing {
                let level = level as usize;
                if !state.routing.level(level).iter().any(|e| e.peer == peer) {
                    let entry = RoutingEntry { peer, path: rpath };
                    state.routing.add(level, entry, &mut self.rng);
                }
            }
            for r in replicas {
                if r.0 as usize != to && !state.replicas.contains(&r) {
                    state.replicas.push(r);
                }
            }
            state.store.merge_batch(entries)
        } else {
            let old = state.store.drain();
            self.install_snapshot(to, path, entries, routing, replicas);
            let covered: Vec<DataEntry> = old.into_iter().filter(|e| path.covers(e.key)).collect();
            self.overlay.states[to].store.merge_batch(covered)
        };
        self.metrics.peers_reconciled += 1;
        self.metrics.reconciled_entries += merged;
        self.lookups.invalidate_routes(to);
        self.tracer.record(
            AMBIENT_TRACE,
            "replica_reconciled",
            to as u64,
            self.clock.now,
            || format!("merged={merged}"),
        );
        self.recorder.note(
            self.clock.now,
            "recovery",
            format!("peer {to} reconciled with a live replica ({merged} entries merged)"),
        );
    }
}
