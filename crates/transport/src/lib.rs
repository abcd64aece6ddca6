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

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod frame;
pub mod loopback;

use bytes::Bytes;
use pgrid_core::routing::PeerId;

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

/// Per-peer link counters of a socket backend.
///
/// The reactor keeps one entry per peer it has exchanged frames with: the
/// send side is keyed by the destination peer, the receive side by the
/// local peer a frame was addressed to.  Virtual-time backends (loopback)
/// have no connections and leave the map empty.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Frames sent to this peer.
    pub frames_sent: u64,
    /// Frame bytes sent to this peer.
    pub bytes_sent: u64,
    /// Frames received for this (locally hosted) peer.
    pub frames_received: u64,
    /// Frame bytes received for this (locally hosted) peer.
    pub bytes_received: u64,
    /// Times the cached outbound connection was dropped and re-established.
    pub reconnects: u64,
    /// Sends that failed even after a reconnect attempt.
    pub send_failures: u64,
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
    /// Frames handed out by [`Transport::poll`].
    pub frames_delivered: u64,
    /// Total frame bytes sent.
    pub bytes_sent: u64,
    /// Total frame bytes handed out by [`Transport::poll`].
    pub bytes_delivered: u64,
    /// Per-peer connection counters (socket backends only; empty on
    /// loopback).
    pub per_peer: std::collections::BTreeMap<u64, LinkStats>,
    /// Event-loop gauges of the reactor backend; `None` elsewhere.
    pub reactor: Option<ReactorStats>,
}

impl TransportStats {
    /// Populates `registry` with the transport counters (per-peer link
    /// counters as `peer`-labelled series) — the one producer every
    /// renderer and the live scrape endpoint share.
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
        for (name, help, get) in [
            (
                "pgrid_transport_peer_frames_sent_total",
                "Frames sent to this peer.",
                (|l: &LinkStats| l.frames_sent) as fn(&LinkStats) -> u64,
            ),
            (
                "pgrid_transport_peer_bytes_sent_total",
                "Frame bytes sent to this peer.",
                |l| l.bytes_sent,
            ),
            (
                "pgrid_transport_peer_frames_received_total",
                "Frames received for this peer.",
                |l| l.frames_received,
            ),
            (
                "pgrid_transport_peer_bytes_received_total",
                "Frame bytes received for this peer.",
                |l| l.bytes_received,
            ),
            (
                "pgrid_transport_peer_reconnects_total",
                "Times the cached outbound connection was re-established.",
                |l| l.reconnects,
            ),
            (
                "pgrid_transport_peer_send_failures_total",
                "Sends that failed even after a reconnect attempt.",
                |l| l.send_failures,
            ),
        ] {
            for (peer, link) in &self.per_peer {
                registry.counter(name, help, &[("peer", &peer.to_string())], get(link));
            }
        }
    }

    /// Renders the counters in the Prometheus text exposition format
    /// through the shared [`pgrid_obs::registry::MetricsRegistry`]
    /// encoder, so a run's transport state can be dumped somewhere
    /// scrapeable.
    pub fn metrics_text(&self) -> String {
        let mut registry = pgrid_obs::registry::MetricsRegistry::new();
        self.to_registry(&mut registry);
        registry.encode()
    }

    /// Folds another stats snapshot into this one (summing the global
    /// counters and merging the per-peer maps), as the cluster coordinator
    /// does when it combines the reports of several worker processes.
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
        for (&peer, link) in &other.per_peer {
            let entry = self.per_peer.entry(peer).or_default();
            add(&mut entry.frames_sent, link.frames_sent);
            add(&mut entry.bytes_sent, link.bytes_sent);
            add(&mut entry.frames_received, link.frames_received);
            add(&mut entry.bytes_received, link.bytes_received);
            add(&mut entry.reconnects, link.reconnects);
            add(&mut entry.send_failures, link.send_failures);
        }
    }
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

    /// Returns the frames that have arrived for delivery by virtual time
    /// `now`, in arrival order, as `(destination, frame)` pairs.
    fn poll(&mut self, now: Millis) -> Vec<(PeerId, Bytes)>;

    /// [`Transport::poll`] into a buffer the caller keeps: appends what has
    /// arrived to `out` instead of returning a fresh vector per call.
    fn poll_into(&mut self, now: Millis, out: &mut Vec<(PeerId, Bytes)>) {
        out.extend(self.poll(now));
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
        LinkFault, LinkStats, PeerAddr, ReactorStats, SocketTransport, Transport, TransportError,
        TransportStats,
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_text_is_prometheus_shaped() {
        let mut stats = TransportStats {
            frames_sent: 10,
            frames_delivered: 9,
            bytes_sent: 1000,
            bytes_delivered: 900,
            ..TransportStats::default()
        };
        stats.reactor = Some(ReactorStats {
            registered_peers: 2,
            epoll_wakeups: 7,
            ..ReactorStats::default()
        });
        stats.per_peer.insert(
            3,
            LinkStats {
                frames_sent: 4,
                bytes_sent: 400,
                frames_received: 5,
                bytes_received: 500,
                reconnects: 1,
                send_failures: 0,
            },
        );
        let text = stats.metrics_text();
        assert!(text.contains("# TYPE pgrid_transport_frames_sent_total counter"));
        assert!(text.contains("pgrid_transport_frames_sent_total 10"));
        assert!(text.contains("pgrid_transport_peer_frames_sent_total{peer=\"3\"} 4"));
        assert!(text.contains("pgrid_transport_peer_reconnects_total{peer=\"3\"} 1"));
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
        let link = LinkStats {
            frames_sent: u64::MAX,
            bytes_sent: u64::MAX,
            frames_received: u64::MAX,
            bytes_received: u64::MAX,
            reconnects: u64::MAX,
            send_failures: u64::MAX,
        };
        let report = TransportStats {
            frames_sent: u64::MAX,
            frames_delivered: u64::MAX,
            bytes_sent: u64::MAX,
            bytes_delivered: u64::MAX,
            per_peer: [(3, link)].into(),
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
