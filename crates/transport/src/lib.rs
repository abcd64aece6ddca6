//! # pgrid-transport
//!
//! Pluggable message transport of the P-Grid deployment runtime.
//!
//! The paper distinguishes the simulated construction from the *deployed*
//! one, where peers only interact through messages on a real network.  This
//! crate supplies that wire layer as a small trait, the frame format, and
//! the in-memory backend:
//!
//! * [`loopback::LoopbackTransport`] delivers frames in **virtual time**
//!   with deterministic, seeded latency.  Tests and parity checks run on
//!   it: same seed, same delivery order, every time.
//! * The one socket backend is `pgrid_reactor::ReactorTransport`: every
//!   hosted peer behind one listener, served by a pool of epoll threads.
//!   It lives in its own crate and implements [`SocketTransport`].
//!
//! Both carry the same bytes: frames laid out by [`frame::write_frame`],
//! batching any number of encoded protocol messages into one length-prefixed
//! unit (the per-tick batching of exchange messages).  The runtime encodes
//! and decodes messages; the transport never looks inside a payload.
//!
//! A frame crosses the trait in one of two forms.  The runtime lends it as
//! a slice ([`Transport::send_slice`]) and collects arrivals in
//! [`Frames`], one reused byte buffer ([`Transport::poll_frames`]), so a
//! frame costs it no heap block; the `Bytes` methods stay for callers that
//! keep a frame, and each form defaults to the other, so a backend that
//! only knows `Bytes` sees every frame.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod frame;
pub mod loopback;

use bytes::Bytes;
use pgrid_core::routing::PeerId;
use pgrid_core::wire::{Be, Order};

/// Milliseconds of virtual time (the deployment runtime's clock).
pub type Millis = u64;

/// Where a registered peer can be reached.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum PeerAddr {
    /// An in-process endpoint of the loopback backend.
    Local(PeerId),
    /// A socket address of a [`SocketTransport`] (the reactor's listener).
    Socket(std::net::SocketAddr),
}

impl std::fmt::Display for PeerAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PeerAddr::Local(peer) => write!(f, "local:{}", peer.0),
            PeerAddr::Socket(addr) => write!(f, "{addr}"),
        }
    }
}

/// A fault injected into a transport's link layer.
///
/// Virtual-time backends (loopback) accept these and emulate the fault
/// deterministically; real-time backends ignore them (their faults are
/// real).  [`Transport::inject_fault`] reports whether the fault was
/// accepted.
#[derive(Clone, Debug)]
pub enum LinkFault {
    /// Adds a stable per-directed-link latency offset, drawn once per link
    /// in `0..=max_ms` from a seeded RNG, on top of the base latency model.
    Jitter {
        /// Upper bound of the per-link offset in milliseconds.
        max_ms: u64,
    },
    /// Drops every frame crossing a group boundary while
    /// `from <= now < until`, then heals: the network splits into the
    /// given groups for the window and reunites afterwards.
    Partition {
        /// The peer groups; frames between peers of different groups are
        /// dropped during the window.  Peers in no group are unaffected.
        groups: Vec<Vec<PeerId>>,
        /// Virtual time at which the partition starts.
        from: Millis,
        /// Virtual time at which the partition heals.
        until: Millis,
    },
}

/// Transport failure.
#[derive(Debug)]
pub enum TransportError {
    /// The destination peer was never registered.
    UnknownPeer(PeerId),
    /// The peer is already registered.
    AlreadyRegistered(PeerId),
    /// An I/O error of the underlying socket machinery.
    Io(std::io::Error),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::UnknownPeer(peer) => write!(f, "unknown peer {}", peer.0),
            TransportError::AlreadyRegistered(peer) => {
                write!(f, "peer {} already registered", peer.0)
            }
            TransportError::Io(e) => write!(f, "transport i/o error: {e}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> TransportError {
        TransportError::Io(e)
    }
}

/// Event-loop gauges of the reactor backend (`pgrid-reactor`).
///
/// Carried inside [`TransportStats`] so the existing report/metrics plumbing
/// (worker `/metrics`, coordinator merge) surfaces them without new wiring.
/// Depth/bytes fields are point-in-time gauges; the rest are counters.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ReactorStats {
    /// Peers hosted by this transport (they share the one mux listener).
    pub registered_peers: u64,
    /// File descriptors registered with the event loops (listener,
    /// eventfds, live connections).
    pub registered_fds: u64,
    /// Times an event thread returned from `epoll_wait` with work.
    pub epoll_wakeups: u64,
    /// Frames currently parked in per-link write queues.
    pub write_queue_frames: u64,
    /// Bytes currently parked in per-link write queues.
    pub write_queue_bytes: u64,
    /// Writes that moved only part of the queue front and resumed later.
    pub partial_writes: u64,
    /// Connections re-dialled after an error or peer close.
    pub reconnects: u64,
    /// Frames dropped when a link died with its queue non-empty.
    pub dropped_frames: u64,
}

impl ReactorStats {
    /// Folds another snapshot into this one (sums everything; gauges sum
    /// too, which is what the coordinator wants when it merges workers).
    pub fn merge(&mut self, other: &ReactorStats) {
        add(&mut self.registered_peers, other.registered_peers);
        add(&mut self.registered_fds, other.registered_fds);
        add(&mut self.epoll_wakeups, other.epoll_wakeups);
        add(&mut self.write_queue_frames, other.write_queue_frames);
        add(&mut self.write_queue_bytes, other.write_queue_bytes);
        add(&mut self.partial_writes, other.partial_writes);
        add(&mut self.reconnects, other.reconnects);
        add(&mut self.dropped_frames, other.dropped_frames);
    }
}

/// `*sum += value`, saturating: the merged counters were decoded from
/// workers' reports, so any `u64` may arrive.
fn add(sum: &mut u64, value: u64) {
    *sum = sum.saturating_add(value);
}

/// Counters every backend maintains.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Frames handed to the transport for delivery.
    pub frames_sent: u64,
    /// Frames handed out by the polls ([`Transport::poll_frames`] too).
    pub frames_delivered: u64,
    /// Total frame bytes sent.
    pub bytes_sent: u64,
    /// Total frame bytes handed out by the polls.
    pub bytes_delivered: u64,
    /// Event-loop gauges of the reactor backend; `None` elsewhere.
    pub reactor: Option<ReactorStats>,
}

impl TransportStats {
    /// Populates `registry` with the transport counters — the one producer
    /// every renderer and the live scrape endpoint share.
    pub fn to_registry(&self, registry: &mut pgrid_obs::registry::MetricsRegistry) {
        for (name, help, value) in [
            (
                "pgrid_transport_frames_sent_total",
                "Frames handed to the transport for delivery.",
                self.frames_sent,
            ),
            (
                "pgrid_transport_frames_delivered_total",
                "Frames handed out by transport polling.",
                self.frames_delivered,
            ),
            (
                "pgrid_transport_bytes_sent_total",
                "Total frame bytes sent.",
                self.bytes_sent,
            ),
            (
                "pgrid_transport_bytes_delivered_total",
                "Total frame bytes delivered.",
                self.bytes_delivered,
            ),
        ] {
            registry.counter(name, help, &[], value);
        }
        if let Some(reactor) = &self.reactor {
            for (name, help, value) in [
                (
                    "pgrid_reactor_epoll_wakeups_total",
                    "Times an event thread returned from epoll_wait with work.",
                    reactor.epoll_wakeups,
                ),
                (
                    "pgrid_reactor_partial_writes_total",
                    "Writes that moved only part of a queue front.",
                    reactor.partial_writes,
                ),
                (
                    "pgrid_reactor_reconnects_total",
                    "Connections re-dialled after an error or peer close.",
                    reactor.reconnects,
                ),
                (
                    "pgrid_reactor_dropped_frames_total",
                    "Frames dropped when a link died with a non-empty queue.",
                    reactor.dropped_frames,
                ),
            ] {
                registry.counter(name, help, &[], value);
            }
            for (name, help, value) in [
                (
                    "pgrid_reactor_registered_peers",
                    "Peers hosted by the reactor transport.",
                    reactor.registered_peers,
                ),
                (
                    "pgrid_reactor_registered_fds",
                    "File descriptors registered with the event loops.",
                    reactor.registered_fds,
                ),
                (
                    "pgrid_reactor_write_queue_frames",
                    "Frames currently parked in per-link write queues.",
                    reactor.write_queue_frames,
                ),
                (
                    "pgrid_reactor_write_queue_bytes",
                    "Bytes currently parked in per-link write queues.",
                    reactor.write_queue_bytes,
                ),
            ] {
                registry.gauge(name, help, &[], value as f64);
            }
        }
    }

    /// Folds another stats snapshot into this one (summing the counters and
    /// the reactor block), as the cluster coordinator does when it combines
    /// the reports of several worker processes.
    pub fn merge(&mut self, other: &TransportStats) {
        add(&mut self.frames_sent, other.frames_sent);
        add(&mut self.frames_delivered, other.frames_delivered);
        add(&mut self.bytes_sent, other.bytes_sent);
        add(&mut self.bytes_delivered, other.bytes_delivered);
        if let Some(other_reactor) = &other.reactor {
            self.reactor
                .get_or_insert_with(ReactorStats::default)
                .merge(other_reactor);
        }
    }
}

/// Frames back to back in one reused byte buffer, each behind its
/// destination and its length (8 bytes each): the arrivals of
/// [`Transport::poll_frames`], and a loopback calendar bucket.
/// [`Frames::recycle`] keeps at most [`Frames::RETAIN_BYTES`] of capacity.
#[derive(Debug, Default)]
pub struct Frames {
    bytes: Vec<u8>,
    len: usize,
}

/// Bytes stored ahead of each frame in a [`Frames`] buffer.
const FRAME_HEADER: usize = 16;

impl Frames {
    /// Capacity an emptied buffer keeps; what a burst grew it past that
    /// is given back.
    pub const RETAIN_BYTES: usize = 384;

    /// Appends a copy of `frame`, for `to`.
    pub fn push(&mut self, to: PeerId, frame: &[u8]) {
        Be::put_u64(&mut self.bytes, to.0);
        Be::put_u64(&mut self.bytes, frame.len() as u64);
        self.bytes.extend_from_slice(frame);
        self.len += 1;
    }

    /// Moves every frame of `other` behind this buffer's and recycles
    /// `other`.  Into an empty buffer the two swap storage, copying nothing.
    pub fn append(&mut self, other: &mut Frames) {
        if self.len == 0 {
            std::mem::swap(self, other);
        } else {
            self.bytes.extend_from_slice(&other.bytes);
            self.len += other.len;
        }
        other.recycle();
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer holds no frame.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes of all frames together, headers not counted.
    pub fn byte_len(&self) -> usize {
        self.bytes.len() - FRAME_HEADER * self.len
    }

    /// Heap bytes the buffer holds on to.
    pub fn capacity(&self) -> usize {
        self.bytes.capacity()
    }

    /// The frames in order, each with its destination.
    pub fn iter(&self) -> impl Iterator<Item = (PeerId, &[u8])> + '_ {
        frames_in(&self.bytes)
    }

    /// Empties the buffer for reuse, keeping at most
    /// [`Frames::RETAIN_BYTES`] of capacity.
    pub fn recycle(&mut self) {
        self.bytes.clear();
        self.bytes.shrink_to(Self::RETAIN_BYTES);
        self.len = 0;
    }
}

/// The frames [`Frames::push`] laid out in `bytes`, in order.
fn frames_in(mut bytes: &[u8]) -> impl Iterator<Item = (PeerId, &[u8])> {
    std::iter::from_fn(move || {
        let to = Be::u64(&mut bytes)?;
        let len = Be::u64(&mut bytes)?;
        Some((PeerId(to), Be::bytes(&mut bytes, len as usize)?))
    })
}

/// A frame carrier between registered peers.
///
/// The caller owns time: virtual-time backends (loopback) stamp deliveries
/// on the virtual clock passed to [`Transport::send`] and release them from
/// [`Transport::poll`] once `now` has caught up; real-time backends (the
/// reactor) ignore the virtual clock and deliver whatever the wire has produced.
pub trait Transport {
    /// Registers a peer endpoint and returns its address.
    fn register(&mut self, peer: PeerId) -> Result<PeerAddr, TransportError>;

    /// Sends one frame to a registered peer.  `now` is the sender's current
    /// virtual time (ignored by real-time backends).
    fn send(&mut self, now: Millis, to: PeerId, frame: Bytes) -> Result<(), TransportError>;

    /// [`Transport::send`] with the sending peer identified, so link-level
    /// faults (partitions, per-link jitter) can be applied.  Backends
    /// without link faults ignore `from`.
    fn send_from(
        &mut self,
        now: Millis,
        from: PeerId,
        to: PeerId,
        frame: Bytes,
    ) -> Result<(), TransportError> {
        let _ = from;
        self.send(now, to, frame)
    }

    /// Injects a link-level fault; returns whether the backend emulates it
    /// (real-time backends return `false` and do nothing).
    fn inject_fault(&mut self, fault: LinkFault) -> bool {
        let _ = fault;
        false
    }

    /// [`Transport::send_from`] of a frame the caller keeps: the backend
    /// copies what it needs.  The default copies it into a `Bytes`.
    fn send_slice(
        &mut self,
        now: Millis,
        from: PeerId,
        to: PeerId,
        frame: &[u8],
    ) -> Result<(), TransportError> {
        self.send_from(now, from, to, Bytes::copy_from_slice(frame))
    }

    /// Returns the frames that have arrived for delivery by virtual time
    /// `now`, in arrival order, as `(destination, frame)` pairs.  A backend
    /// implements this or [`Transport::poll_into`]; each defaults to the
    /// other.
    fn poll(&mut self, now: Millis) -> Vec<(PeerId, Bytes)> {
        let mut out = Vec::new();
        self.poll_into(now, &mut out);
        out
    }

    /// [`Transport::poll`] into a buffer the caller keeps: appends what has
    /// arrived to `out` instead of returning a fresh vector per call.
    fn poll_into(&mut self, now: Millis, out: &mut Vec<(PeerId, Bytes)>) {
        out.extend(self.poll(now));
    }

    /// [`Transport::poll_into`] into a byte buffer the caller keeps:
    /// appends a copy of each arrived frame to `out`.  The default copies
    /// what `poll_into` hands out.
    fn poll_frames(&mut self, now: Millis, out: &mut Frames) {
        let mut arrived = Vec::new();
        self.poll_into(now, &mut arrived);
        for (to, frame) in &arrived {
            out.push(*to, frame.as_slice());
        }
    }

    /// Virtual time at which the next queued frame becomes deliverable.
    /// `None` for real-time backends (and when nothing is queued).
    fn next_due(&self) -> Option<Millis>;

    /// Whether frames travel in real time (sockets) rather than virtual
    /// time — real-time callers must keep polling while frames are
    /// [`Transport::in_flight`].
    fn is_realtime(&self) -> bool;

    /// Number of frames sent but not yet handed out by [`Transport::poll`].
    fn in_flight(&self) -> usize;

    /// Counters.
    fn stats(&self) -> TransportStats;

    /// Address of a registered peer.
    fn addr_of(&self, peer: PeerId) -> Option<PeerAddr>;
}

/// A socket-addressed backend the cluster worker can drive.
///
/// Beyond plain frame carriage, a multi-process deployment needs to amend
/// the address book mid-run: peers hosted by *other* processes are
/// registered by socket address, re-pointed when a shard moves, and adopted
/// locally when their host dies.
///
/// `pgrid_reactor::ReactorTransport` is the one implementor.  The trait
/// stays because the benchmark harness (`harness/src/workloads/wire.rs`)
/// imports it and calls `register_remote` through it, and `pgrid-net`
/// documents the address-book verbs here without depending on the reactor.
pub trait SocketTransport: Transport {
    /// Registers a peer that listens in *another* process at `addr`;
    /// frames can be sent to it but its inbound traffic is handled by that
    /// process's own transport.
    fn register_remote(
        &mut self,
        peer: PeerId,
        addr: std::net::SocketAddr,
    ) -> Result<PeerAddr, TransportError>;

    /// Re-points an already known *remote* peer at a new address — it moved
    /// to another process during shard reassignment — invalidating any
    /// cached route to the old endpoint.
    fn update_remote(
        &mut self,
        peer: PeerId,
        addr: std::net::SocketAddr,
    ) -> Result<(), TransportError>;

    /// Takes over hosting of a peer previously registered as remote: the
    /// peer becomes locally reachable and the returned address is what the
    /// coordinator redistributes.  Used by a survivor worker adopting a
    /// failed worker's peers.
    fn register_takeover(&mut self, peer: PeerId) -> Result<PeerAddr, TransportError>;
}

/// Convenient re-exports of the most frequently used items.
pub mod prelude {
    pub use crate::frame::{decode_frame, encode_frame, FrameReader};
    pub use crate::loopback::{LoopbackConfig, LoopbackTransport};
    pub use crate::{
        LinkFault, PeerAddr, ReactorStats, SocketTransport, Transport, TransportError,
        TransportStats,
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_text_is_prometheus_shaped() {
        let stats = TransportStats {
            frames_sent: 10,
            frames_delivered: 9,
            bytes_sent: 1000,
            bytes_delivered: 900,
            reactor: Some(ReactorStats {
                registered_peers: 2,
                epoll_wakeups: 7,
                ..ReactorStats::default()
            }),
        };
        let mut registry = pgrid_obs::registry::MetricsRegistry::new();
        stats.to_registry(&mut registry);
        let text = registry.encode();
        assert!(text.contains("# TYPE pgrid_transport_frames_sent_total counter"));
        assert!(text.contains("pgrid_transport_frames_sent_total 10"));
        assert!(text.contains("# TYPE pgrid_reactor_registered_peers gauge"));
        assert!(text.contains("pgrid_reactor_epoll_wakeups_total 7"));
        // Every series line is `name[{labels}] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert_eq!(
                line.split_whitespace().count(),
                2,
                "bad series line: {line}"
            );
        }
    }

    #[test]
    fn transport_stats_merge_saturates_on_wire_maxima() {
        // Reports are decoded from arbitrary `u64`s: no panic, no wrap.
        let report = TransportStats {
            frames_sent: u64::MAX,
            frames_delivered: u64::MAX,
            bytes_sent: u64::MAX,
            bytes_delivered: u64::MAX,
            reactor: None,
        };
        let mut merged = TransportStats::default();
        merged.merge(&report);
        merged.merge(&report);
        assert_eq!(merged, report);
    }

    #[test]
    fn reactor_stats_merge_saturates_on_wire_maxima() {
        let report = ReactorStats {
            registered_peers: u64::MAX,
            registered_fds: u64::MAX,
            epoll_wakeups: u64::MAX,
            write_queue_frames: u64::MAX,
            write_queue_bytes: u64::MAX,
            partial_writes: u64::MAX,
            reconnects: u64::MAX,
            dropped_frames: u64::MAX,
        };
        let mut merged = ReactorStats::default();
        merged.merge(&report);
        merged.merge(&report);
        assert_eq!(merged, report);
    }
}
