//! The wire side of the runtime: the staging arena, the transport and the
//! link life-cycle ([`Links`]); `send` encodes a message into the arena, `flush_pending` ships what is staged as one frame per
//! destination, `deliver_frame` validates an arrived frame and dispatches
//! its messages to the planes.
//!
//! **A message is encoded once.**  `send` writes it straight into
//! `Links::staged`, one byte vector shared by everything the current event
//! sends, and notes `(to, from, byte range)` in `Links::staged_index`; the
//! length of that range is what the bandwidth accounting is charged.  No
//! `Message` is kept, nothing is allocated per message, and both buffers
//! are reused from one flush to the next.
//!
//! **Ordering contract of a flush** (what the seeded trajectories are
//! pinned to): frames leave in ascending destination order; inside a frame
//! the payloads keep their send order; a frame is stamped with the *first*
//! sender of its destination's run; a run is cut before the payload that
//! would make it `MAX_BATCH_LEN` payloads or `MAX_FRAME_PAYLOAD_BYTES`
//! long, every piece carrying the same sender; and each frame costs one
//! loss draw from the runtime's RNG, taken before the link-health check
//! and before the transport draws its latency.
//!
//! **Arrival** is the mirror image: a poll's frames land in `Links::inbox`
//! (kept, like the arena, from one poll to the next),
//! [`frame::payload_slices`] validates the whole frame before the first
//! message is dispatched, and each payload is decoded in place from its
//! borrowed slice.

use super::{Millis, Runtime};
use crate::message::Message;
use bytes::Bytes;
use pgrid_core::routing::PeerId;
use pgrid_obs::trace::{AMBIENT_TRACE, NO_TRACE};
use pgrid_transport::frame;
use pgrid_transport::{LinkFault, PeerAddr, Transport, TransportStats};
use rand::Rng;
use std::collections::HashMap;

/// Per-frame payload budget, well below [`frame::MAX_FRAME_BYTES`]: batches
/// whose encoded size would exceed it are split across frames instead of
/// producing a frame the receiver rejects.
const MAX_FRAME_PAYLOAD_BYTES: usize = frame::MAX_FRAME_BYTES / 4;

/// Staging and frame-buffer capacity kept from one flush to the next; what
/// a larger batch (a 16 MiB `ReplicaPush`) grew beyond it is released as
/// soon as that batch has been shipped.
pub(super) const STAGING_RETAIN_BYTES: usize = 1 << 20;

/// First backoff window after a send failure marks a link Suspect;
/// doubles per further failure, capped at [`LINK_BACKOFF_CAP_MS`].
pub(super) const LINK_SUSPECT_BACKOFF_MS: Millis = 250;

/// Upper bound of the Suspect retry backoff.
const LINK_BACKOFF_CAP_MS: Millis = 2_000;

/// Consecutive send failures after which a link is declared Dead.
const LINK_DEAD_AFTER: u32 = 3;

/// Life-cycle of the link to one (remote) peer, driven by transport send
/// failures.  Virtual-time transports never fail a send, so every link
/// stays `Connected` in single-process runs; over sockets a dead worker's
/// endpoints walk Connected → Suspect → Dead, and the data plane keeps
/// advancing — sends to a suppressed link count as loss instead of
/// stalling the virtual clock on connect timeouts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkHealth {
    /// Sends flow normally.
    Connected,
    /// A recent send failed; further sends are dropped (as loss) until
    /// `retry_at`, with exponential backoff per consecutive failure.
    Suspect {
        /// Virtual time at which the next send may be attempted.
        retry_at: Millis,
        /// Consecutive failures so far.
        failures: u32,
    },
    /// Too many consecutive failures: sends are suppressed and the peer is
    /// skipped as a query-forwarding candidate until the link is revived
    /// by recovery ([`Runtime::revive_link`]).
    Dead,
}

/// Where one staged message lies in [`Links::staged`], whom it is for and
/// who sent it — the sender identity a frame is stamped with so link-level
/// faults (partitions) can tell which side of a split it crosses.
struct Staged {
    to: usize,
    from: usize,
    start: usize,
    end: usize,
}

/// Empties `buf` for reuse, giving back whatever it grew beyond
/// [`STAGING_RETAIN_BYTES`].
pub(super) fn recycle<E>(buf: &mut Vec<E>) {
    buf.clear();
    buf.shrink_to(STAGING_RETAIN_BYTES / std::mem::size_of::<E>());
}

/// The transport and everything queued towards it.
pub(super) struct Links<T> {
    pub(super) transport: T,
    addrs: Vec<PeerAddr>,
    /// Link life-cycle per destination peer (absent = Connected).  Only
    /// ever populated by transport send failures, which virtual-time
    /// backends never produce.
    health: HashMap<usize, LinkHealth>,
    /// The encoded bytes of every message sent since the last flush, back
    /// to back in send order.
    staged: Vec<u8>,
    /// One entry per staged message, in send order.
    staged_index: Vec<Staged>,
    /// Scratch the frame being shipped is laid out in.
    frame_buf: Vec<u8>,
    /// The frames one poll handed over, kept (empty) from poll to poll.
    pub(super) inbox: Vec<(PeerId, Bytes)>,
    /// The peer whose handler/event is currently executing (the `from` of
    /// anything it sends).
    pub(super) actor: usize,
    /// Frames shipped while tracing is enabled (drives the 1-in-64
    /// sampling of ambient frame-send trace events).
    frames_traced: u64,
}

impl<T> Links<T> {
    pub(super) fn new(transport: T, addrs: Vec<PeerAddr>) -> Links<T> {
        Links {
            transport,
            addrs,
            health: HashMap::new(),
            staged: Vec::new(),
            staged_index: Vec::new(),
            frame_buf: Vec::new(),
            inbox: Vec::new(),
            actor: 0,
            frames_traced: 0,
        }
    }

    /// Bytes the staging arena, the frame scratch and the inbox currently
    /// hold on to.
    #[cfg(test)]
    pub(super) fn retained_bytes(&self) -> usize {
        self.staged.capacity()
            + self.frame_buf.capacity()
            + self.inbox.capacity() * std::mem::size_of::<(PeerId, Bytes)>()
    }

    /// Whether the link to `peer` is usable as a forwarding target (hosted
    /// peers always are; remote ones unless their link is Dead).
    pub(super) fn ok(&self, peer: usize) -> bool {
        !matches!(self.health.get(&peer), Some(LinkHealth::Dead))
    }
}

impl<T: Transport> Runtime<T> {
    /// The transport address of a peer.
    pub fn peer_addr(&self, peer: usize) -> PeerAddr {
        self.links.addrs[peer]
    }

    /// Frame-level counters of the underlying transport.
    pub fn transport_stats(&self) -> TransportStats {
        self.links.transport.stats()
    }

    /// The transport backend, mutable — cluster shard reassignment uses
    /// this to take over a dead worker's endpoints
    /// ([`pgrid_transport::SocketTransport::register_takeover`]) and
    /// re-point moved ones.
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.links.transport
    }

    /// Injects a link-level fault into the transport (per-link jitter, a
    /// healing partition window); returns whether the backend emulates it.
    pub fn inject_link_fault(&mut self, fault: LinkFault) -> bool {
        self.links.transport.inject_fault(fault)
    }

    /// Replaces the cached address of `peer` after its endpoint moved
    /// during recovery, and clears any Suspect/Dead link state towards it.
    pub fn set_peer_addr(&mut self, peer: usize, addr: PeerAddr) {
        self.links.addrs[peer] = addr;
        self.revive_link(peer);
    }

    /// Clears the link life-cycle state towards `peer` (its endpoint came
    /// back or moved to a live process).
    pub fn revive_link(&mut self, peer: usize) {
        self.links.health.remove(&peer);
    }

    /// The link life-cycle state towards `to` (Connected when no failure
    /// was ever recorded).
    pub fn link_health(&self, to: usize) -> LinkHealth {
        self.links
            .health
            .get(&to)
            .copied()
            .unwrap_or(LinkHealth::Connected)
    }

    /// Stages a message for the next frame to `to`: encodes it into the
    /// arena and charges the bytes it took to the bandwidth accounting.
    ///
    /// Query traffic sent while handling a traced lookup is wrapped in a
    /// [`Message::Traced`] envelope carrying the trace ID to the next
    /// peer (and, through the transport, to the next worker process).
    /// With tracing disabled `current_trace` is always [`NO_TRACE`], so
    /// no envelope — and no extra wire byte — ever exists.
    pub(super) fn send(&mut self, to: usize, message: Message) {
        let message = if self.current_trace != NO_TRACE && message.is_query_traffic() {
            Message::Traced {
                trace_id: self.current_trace,
                inner: Box::new(message),
            }
        } else {
            message
        };
        let links = &mut self.links;
        let start = links.staged.len();
        message.encode_into(&mut links.staged);
        let end = links.staged.len();
        links.staged_index.push(Staged {
            to,
            from: links.actor,
            start,
            end,
        });
        self.metrics
            .account(self.clock.now, end - start, message.is_query_traffic());
    }

    /// Ships everything staged, one frame per destination (see the module
    /// docs for the order).  A run that would exceed the framing bounds
    /// (which the receiver rejects as corrupt) is split across several
    /// frames.
    pub(super) fn flush_pending(&mut self) {
        if self.links.staged_index.is_empty() {
            return;
        }
        // Nothing below sends, so the arena can be lent out for the flush.
        let mut staged = std::mem::take(&mut self.links.staged);
        let mut index = std::mem::take(&mut self.links.staged_index);
        // Stable: send order survives inside a destination.
        index.sort_by_key(|s| s.to);
        let mut rest = index.as_slice();
        while let Some(first) = rest.first() {
            let (from, to) = (first.from, first.to);
            let run_len = rest.iter().take_while(|s| s.to == to).count();
            let (run, tail) = rest.split_at(run_len);
            rest = tail;
            let mut chunk_start = 0;
            let mut chunk_bytes = 0usize;
            for (i, s) in run.iter().enumerate() {
                let len = s.end - s.start;
                if i > chunk_start
                    && (i - chunk_start >= frame::MAX_BATCH_LEN
                        || chunk_bytes + len + 4 > MAX_FRAME_PAYLOAD_BYTES)
                {
                    self.ship_frame(from, to, &staged, &run[chunk_start..i]);
                    chunk_start = i;
                    chunk_bytes = 0;
                }
                chunk_bytes += len + 4;
            }
            self.ship_frame(from, to, &staged, &run[chunk_start..]);
        }
        recycle(&mut staged);
        recycle(&mut index);
        recycle(&mut self.links.frame_buf);
        self.links.staged = staged;
        self.links.staged_index = index;
    }

    /// Puts one frame — the `payloads` ranges of `staged` — on the wire,
    /// applying the emulated frame loss and the link life-cycle: frames to
    /// a Suspect link in its backoff window or to a Dead link are dropped
    /// as loss instead of hitting the transport, so a dead worker's
    /// endpoints cannot stall the clock on every send.
    fn ship_frame(&mut self, from: usize, to: usize, staged: &[u8], payloads: &[Staged]) {
        let now = self.clock.now;
        let lost = self
            .rng
            .gen_bool(self.config.loss_probability.clamp(0.0, 1.0));
        let suppressed = match self.links.health.get(&to) {
            Some(LinkHealth::Dead) => true,
            Some(LinkHealth::Suspect { retry_at, .. }) => now < *retry_at,
            _ => false,
        };
        if lost || suppressed {
            self.metrics.messages_lost += payloads.len();
            return;
        }
        if payloads.len() > 1 {
            self.metrics.multi_message_frames += 1;
        }
        // Frame-level tracing is sampled (1 in 64) so an enabled tracer's
        // buffer is not drowned in construction-phase frames.
        if self.tracer.is_enabled() {
            self.links.frames_traced += 1;
            if self.links.frames_traced % 64 == 1 {
                let n = payloads.len();
                self.tracer
                    .record(AMBIENT_TRACE, "frame_sent", to as u64, now, || {
                        format!("messages={n} sample=1/64")
                    });
            }
        }
        let links = &mut self.links;
        links.frame_buf.clear();
        frame::write_frame(
            &mut links.frame_buf,
            payloads.iter().map(|s| &staged[s.start..s.end]),
        );
        let frame = Bytes::copy_from_slice(&links.frame_buf);
        if links
            .transport
            .send_from(now, PeerId(from as u64), PeerId(to as u64), frame)
            .is_err()
        {
            // A broken connection behaves like loss on the wire — and
            // escalates the link's life-cycle state.
            self.metrics.messages_lost += payloads.len();
            self.record_link_failure(to);
        } else {
            // A successful retry heals the link.
            self.links.health.remove(&to);
        }
    }

    /// Escalates the link to `to` after a transport send failure:
    /// Connected → Suspect (with exponential backoff per consecutive
    /// failure) → Dead after [`LINK_DEAD_AFTER`] failures.
    pub(super) fn record_link_failure(&mut self, to: usize) {
        let now = self.clock.now;
        let failures = match self.links.health.get(&to) {
            Some(LinkHealth::Suspect { failures, .. }) => failures + 1,
            Some(LinkHealth::Dead) => return,
            _ => 1,
        };
        if failures >= LINK_DEAD_AFTER {
            self.metrics.links_dead += 1;
            self.links.health.insert(to, LinkHealth::Dead);
            self.recorder.note(
                now,
                "link_dead",
                format!("link to peer {to} declared dead after {failures} send failures"),
            );
        } else {
            if failures == 1 {
                self.metrics.links_suspected += 1;
            }
            let backoff = (LINK_SUSPECT_BACKOFF_MS << (failures - 1)).min(LINK_BACKOFF_CAP_MS);
            self.links.health.insert(
                to,
                LinkHealth::Suspect {
                    retry_at: now + backoff,
                    failures,
                },
            );
        }
    }

    /// Validates an arrived frame — all of it, before anything is
    /// dispatched — and handles its messages, each decoded in place.
    pub(super) fn deliver_frame(&mut self, to: PeerId, frame_bytes: Bytes) {
        let to = to.0 as usize;
        // A frame for a peer this runtime does not host can only come from
        // a mis-wired address book — or from a sender that has not yet
        // learnt about a shard reassignment; never apply it to a stub.
        if !self.hosted(to) {
            self.metrics.decode_failures += 1;
            return;
        }
        let Ok(payloads) = frame::payload_slices(frame_bytes.as_slice()) else {
            self.metrics.decode_failures += 1;
            self.recorder.note(
                self.clock.now,
                "decode_failure",
                format!(
                    "undecodable frame of {} bytes for peer {to}",
                    frame_bytes.len()
                ),
            );
            return;
        };
        if self.tracer.is_enabled() && self.links.frames_traced % 64 == 1 {
            let n = payloads.len();
            self.tracer.record(
                AMBIENT_TRACE,
                "frame_received",
                to as u64,
                self.clock.now,
                || format!("messages={n} sample=1/64"),
            );
        }
        for payload in payloads {
            let Some(message) = Message::decode_slice(payload) else {
                self.metrics.decode_failures += 1;
                continue;
            };
            // A replica snapshot is what brings a recovering peer back
            // online, so it must reach the peer while it is still offline.
            if !self.nodes[to].online && !matches!(message, Message::ReplicaPush { .. }) {
                self.metrics.messages_to_offline += 1;
                continue;
            }
            self.metrics.messages_delivered += 1;
            self.links.actor = to;
            self.handle_message(to, message);
        }
    }

    /// Runs `handle` as peer `actor` under trace context `trace_id`, so
    /// everything it triggers (forwards, responses) carries the same trace
    /// ID onwards.
    pub(super) fn with_trace(
        &mut self,
        actor: usize,
        trace_id: u64,
        handle: impl FnOnce(&mut Self),
    ) {
        let previous = std::mem::replace(&mut self.current_trace, trace_id);
        self.links.actor = actor;
        handle(self);
        self.current_trace = previous;
    }

    /// Hands one message for peer `to` to the plane it belongs to.
    pub(super) fn handle_message(&mut self, to: usize, message: Message) {
        match message {
            Message::Join { .. } | Message::JoinAck { .. } => {
                // Join traffic is handled synchronously in `join_peer`; these
                // messages only exist for bandwidth accounting.
            }
            Message::Replicate { entries } => {
                self.overlay.states[to].store.merge_batch(entries);
            }
            Message::Exchange {
                from,
                path,
                entries,
            } => self.handle_exchange(to, from, path, &entries),
            Message::ExchangeReply {
                from,
                path,
                outcome,
            } => self.apply_exchange_reply(to, from, path, outcome),
            Message::Query {
                origin,
                id,
                key,
                hops,
            } => self.handle_query_message(to, origin, id, key, hops),
            Message::QueryResponse {
                id,
                entries,
                hops,
                found,
            } => self.resolve_query(to, id, found && !entries.is_empty(), hops),
            Message::RangeQuery {
                origin,
                id,
                lo,
                hi,
                cursor,
                hops,
            } => self.handle_range_message(to, origin, id, lo, hi, cursor, hops),
            Message::RangeResponse {
                id,
                from,
                upto,
                entries,
                hops,
            } => self.absorb_range_slice(to, id, from, upto, entries, hops),
            Message::ReplicaPull { origin } => self.answer_replica_pull(to, origin),
            Message::ReplicaPush {
                path,
                entries,
                routing,
                replicas,
            } => self.apply_replica_push(to, path, entries, routing, replicas),
            // Adopt the sender's trace context for the inner message.
            // Nested envelopes are rejected at decode time.
            Message::Traced { trace_id, inner } => {
                self.with_trace(to, trace_id, |rt| rt.handle_message(to, *inner))
            }
        }
    }
}
