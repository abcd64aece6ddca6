//! Rendezvous wire protocol between the coordinator and its workers.
//!
//! The control plane is deliberately tiny: one TCP connection per worker,
//! carrying [`ClusterMsg`]s as single-payload frames (the same
//! length-prefixed framing the data plane uses, so both sides reuse
//! [`pgrid_transport::frame::FrameReader`] for reassembly).  The order the
//! messages travel in is in the [crate docs](crate).
//!
//! Like the peer protocol, the codec is a hand-rolled big-endian binary
//! format over [`bytes`]: no registry dependencies, self-describing enough
//! for round-trip tests, and versioned by a leading magic/version pair so a
//! stale worker fails loudly instead of mis-parsing.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use pgrid_core::histogram::LogHistogram;
use pgrid_core::index::IndexId;
use pgrid_core::path::Path;
use pgrid_net::experiment::Timeline;
use pgrid_net::runtime::{MinuteLatency, NetConfig, QueryAggregates};
use pgrid_transport::frame::{decode_frame, encode_frame, FrameReader};
use pgrid_transport::{LinkStats, ReactorStats, TransportStats};
use pgrid_workload::distributions::Distribution;
use std::io::{ErrorKind, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Protocol magic, checked on every message.
const MAGIC: u16 = 0x5047; // "PG"
/// Protocol version; bump on any wire-format change (one binary speaks
/// exactly one version).
const VERSION: u8 = 8;

/// Phases of the Section-5 timeline the cluster barriers on, in order.
pub const PHASE_WIRED: u8 = 0;
/// All peers joined the unstructured overlay.
pub const PHASE_JOINED: u8 = 1;
/// Replication pushes flushed.
pub const PHASE_REPLICATED: u8 = 2;
/// Construction window over.
pub const PHASE_CONSTRUCTED: u8 = 3;
/// Query window over.
pub const PHASE_QUERIED: u8 = 4;
/// Churn window over and outstanding queries drained.
pub const PHASE_DONE: u8 = 5;

/// One worker shard's final contribution to the merged report.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardReport {
    /// First peer id of the shard.
    pub shard_start: u64,
    /// Final path of every hosted peer, in shard order.
    pub paths: Vec<Path>,
    /// Per-index query aggregates of the shard (bounded-size histograms
    /// instead of raw per-query records; the coordinator folds them with
    /// [`QueryAggregates::merge`]).
    pub query_stats: Vec<(IndexId, QueryAggregates)>,
    /// Hosted peers online when the run ended.
    pub online_at_end: u64,
    /// The worker's transport counters, including its per-peer link stats
    /// (send side keyed by destination, receive side by hosted peer); the
    /// coordinator folds the shards together with
    /// [`TransportStats::merge`].
    pub transport: TransportStats,
    /// Protocol messages delivered to hosted peers.
    pub messages_delivered: u64,
    /// Protocol messages lost (emulated loss + broken connections).
    pub messages_lost: u64,
    /// Final `(peer id, path)` of peers this worker *adopted* from a dead
    /// worker during recovery (empty on a healthy run); the coordinator
    /// merges them at their global indices like the shard paths.
    pub extra_paths: Vec<(u64, Path)>,
}

/// One peer being moved off a dead worker during recovery.
#[derive(Clone, Debug, PartialEq)]
pub struct ReassignMove {
    /// The orphaned peer.
    pub peer: u64,
    /// Index of the surviving (or replacement) worker that adopts it.
    pub to_worker: u32,
    /// A live peer believed to replicate the orphan's partition (the
    /// coordinator's longest-common-prefix hint); equal to `peer` when no
    /// candidate is known, in which case the adopter recovers locally from
    /// the seeded regeneration.
    pub source_peer: u64,
    /// The orphan's last path the coordinator observed at a barrier (the
    /// local-recovery fallback path).
    pub path: Path,
}

/// A control-plane message.
#[derive(Clone, Debug, PartialEq)]
pub enum ClusterMsg {
    /// Coordinator → worker: shard assignment and the run configuration.
    Welcome {
        /// Index of this worker (0-based, in accept order).
        worker_index: u32,
        /// Total number of workers in the cluster.
        n_workers: u32,
        /// First peer id of the assigned shard.
        shard_start: u64,
        /// Number of peers in the assigned shard.
        shard_len: u64,
        /// Deployment configuration (identical for every worker).
        config: NetConfig,
        /// Phase boundaries of the timeline.
        timeline: Timeline,
        /// Whether the worker must enable structured tracing (with its
        /// worker index as the trace-ID base, so merged IDs never
        /// collide).
        tracing: bool,
        /// Wall-clock interval between worker liveness heartbeats
        /// (milliseconds; `0` disables heartbeats).
        heartbeat_ms: u64,
        /// Wall-clock silence after which the coordinator declares this
        /// worker dead (milliseconds).
        failure_timeout_ms: u64,
        /// Whether the coordinator heals worker failures (reassigns the
        /// dead shard to survivors) instead of merely recording them.
        heal: bool,
        /// Fault injection: virtual minute at which this worker must kill
        /// its own process (`None` for all workers of a healthy run).
        kill_at_min: Option<u64>,
    },
    /// Worker → coordinator: listen addresses of the hosted peers.
    Hello {
        /// First peer id of the shard (echo of the assignment).
        shard_start: u64,
        /// `(peer id, socket address)` of every hosted peer.
        peer_addrs: Vec<(u64, SocketAddr)>,
        /// Address of the worker's `/metrics` scrape endpoint, when one
        /// is serving.
        metrics_addr: Option<SocketAddr>,
    },
    /// Coordinator → worker: the address book of the whole cluster.
    AddressBook {
        /// `(peer id, socket address)` of every peer of every shard.
        peer_addrs: Vec<(u64, SocketAddr)>,
    },
    /// Worker → coordinator: the local timeline reached the end of `phase`.
    PhaseDone {
        /// One of the `PHASE_*` constants.
        phase: u8,
    },
    /// Coordinator → worker: every worker finished `phase`; continue.
    Proceed {
        /// One of the `PHASE_*` constants.
        phase: u8,
    },
    /// Worker → coordinator: freshly completed per-minute bandwidth
    /// buckets, streamed at each barrier (and once more with the final
    /// report).
    Minutes {
        /// `(minute bucket, maintenance bytes, query bytes)` triples.
        samples: Vec<(u64, u64, u64)>,
    },
    /// Worker → coordinator: trace events drained at a phase barrier.
    /// Only sent while tracing is enabled; the coordinator merges the
    /// batches into cluster-wide hop chains.
    TraceBatch {
        /// The drained events, in recording order.
        events: Vec<pgrid_obs::trace::TraceEvent>,
    },
    /// Worker → coordinator: the worker's current metrics registry
    /// (encoded with [`pgrid_obs::registry::MetricsRegistry::encode_wire`]),
    /// streamed at each phase barrier so the coordinator's merged
    /// `/metrics` view stays fresh mid-run.
    MetricsSnapshot {
        /// The wire-encoded registry snapshot.
        registry: Vec<u8>,
    },
    /// Worker → coordinator: the shard's final report.
    Report(ShardReport),
    /// Worker → coordinator: periodic liveness signal, carrying the
    /// membership epoch the worker currently believes in.
    Heartbeat {
        /// The worker's current membership epoch.
        epoch: u64,
    },
    /// Worker → coordinator: current paths of the originally assigned
    /// shard, sent at every barrier while healing is enabled — the
    /// coordinator's raw material for replica hints and partial reports.
    ShardPaths {
        /// First peer id of the shard.
        shard_start: u64,
        /// Current path of every originally hosted peer, in shard order.
        paths: Vec<Path>,
    },
    /// Coordinator → workers: a worker died; a new membership epoch
    /// begins.
    WorkerFailed {
        /// The new membership epoch.
        epoch: u64,
        /// Index of the dead worker.
        worker_index: u32,
        /// First peer id of the orphaned shard.
        shard_start: u64,
        /// Number of orphaned peers.
        shard_len: u64,
    },
    /// Coordinator → workers: how the orphaned peers are redistributed.
    /// Every worker receives the full move list; each adopts the moves
    /// targeting its own index and learns which endpoints will re-appear
    /// elsewhere.
    ShardReassign {
        /// The membership epoch these moves belong to.
        epoch: u64,
        /// One entry per orphaned peer.
        moves: Vec<ReassignMove>,
    },
    /// Worker → coordinator: the listen addresses of the endpoints this
    /// worker just took over, to be folded into a fresh address book.
    RecoveryAddrs {
        /// The membership epoch of the takeover.
        epoch: u64,
        /// `(peer id, socket address)` of every adopted endpoint.
        peer_addrs: Vec<(u64, SocketAddr)>,
    },
    /// Worker → coordinator: state rebuild of the adopted peers finished;
    /// the barrier may release.
    RecoveryDone {
        /// The membership epoch of the recovery.
        epoch: u64,
        /// `(peer id, via_replica)` per recovered peer: `true` when the
        /// state was pulled from a live replica, `false` for the seeded
        /// local fallback.
        recovered: Vec<(u64, bool)>,
    },
    /// Relaunched worker → coordinator: the first message of a warm
    /// restart.  A fresh worker waits silently for a `Welcome`; a worker
    /// relaunched over a durability log speaks first and offers its
    /// retained shard back, so the coordinator can prefer it over
    /// round-robin reassignment during a healing round.
    Rejoin {
        /// First peer id of the shard the durability log holds.
        shard_start: u64,
        /// Number of peers in that shard.
        shard_len: u64,
        /// The membership epoch the log last recorded.
        epoch: u64,
        /// The `PHASE_*` barrier class the log last recorded.
        phase: u8,
        /// Virtual time the log last recorded, in milliseconds.
        now_ms: u64,
        /// The run seed the log belongs to (the coordinator rejects a
        /// rejoin from a different run).
        seed: u64,
    },
    /// Coordinator → relaunched worker: accepts the rejoin (follows the
    /// `Welcome` that re-assigns the retained shard) and tells the worker
    /// which barrier class the run is currently in, so it can pace its
    /// replayed runtime forward and skip the already-executed phases.
    Resume {
        /// The current membership epoch.
        epoch: u64,
        /// The `PHASE_*` class the cluster is currently executing.
        phase: u8,
    },
}

impl ClusterMsg {
    /// Encodes the message (including the magic/version header).
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(64);
        buf.put_u16(MAGIC);
        buf.put_u8(VERSION);
        match self {
            ClusterMsg::Welcome {
                worker_index,
                n_workers,
                shard_start,
                shard_len,
                config,
                timeline,
                tracing,
                heartbeat_ms,
                failure_timeout_ms,
                heal,
                kill_at_min,
            } => {
                buf.put_u8(0);
                buf.put_u32(*worker_index);
                buf.put_u32(*n_workers);
                buf.put_u64(*shard_start);
                buf.put_u64(*shard_len);
                put_config(&mut buf, config);
                put_timeline(&mut buf, timeline);
                buf.put_u8(*tracing as u8);
                buf.put_u64(*heartbeat_ms);
                buf.put_u64(*failure_timeout_ms);
                buf.put_u8(*heal as u8);
                match kill_at_min {
                    Some(at) => {
                        buf.put_u8(1);
                        buf.put_u64(*at);
                    }
                    None => buf.put_u8(0),
                }
            }
            ClusterMsg::Hello {
                shard_start,
                peer_addrs,
                metrics_addr,
            } => {
                buf.put_u8(1);
                buf.put_u64(*shard_start);
                put_addrs(&mut buf, peer_addrs);
                match metrics_addr {
                    Some(addr) => {
                        buf.put_u8(1);
                        put_addr(&mut buf, addr);
                    }
                    None => buf.put_u8(0),
                }
            }
            ClusterMsg::AddressBook { peer_addrs } => {
                buf.put_u8(2);
                put_addrs(&mut buf, peer_addrs);
            }
            ClusterMsg::PhaseDone { phase } => {
                buf.put_u8(3);
                buf.put_u8(*phase);
            }
            ClusterMsg::Proceed { phase } => {
                buf.put_u8(4);
                buf.put_u8(*phase);
            }
            ClusterMsg::Minutes { samples } => {
                buf.put_u8(5);
                buf.put_u32(samples.len() as u32);
                for (minute, maintenance, query) in samples {
                    buf.put_u64(*minute);
                    buf.put_u64(*maintenance);
                    buf.put_u64(*query);
                }
            }
            ClusterMsg::TraceBatch { events } => {
                buf.put_u8(7);
                buf.put_u32(events.len() as u32);
                for event in events {
                    buf.put_u64(event.trace_id);
                    put_str(&mut buf, event.kind);
                    buf.put_u64(event.peer);
                    buf.put_u64(event.virtual_ms);
                    buf.put_u64(event.wall_micros);
                    put_str(&mut buf, &event.detail);
                }
            }
            ClusterMsg::MetricsSnapshot { registry } => {
                buf.put_u8(8);
                buf.put_u32(registry.len() as u32);
                buf.put_slice(registry);
            }
            ClusterMsg::Report(report) => {
                buf.put_u8(6);
                buf.put_u64(report.shard_start);
                buf.put_u32(report.paths.len() as u32);
                for path in &report.paths {
                    put_path(&mut buf, path);
                }
                buf.put_u32(report.query_stats.len() as u32);
                for (index, stats) in &report.query_stats {
                    buf.put_u16(index.0);
                    put_aggregates(&mut buf, stats);
                }
                buf.put_u64(report.online_at_end);
                buf.put_u64(report.transport.frames_sent);
                buf.put_u64(report.transport.frames_delivered);
                buf.put_u64(report.transport.bytes_sent);
                buf.put_u64(report.transport.bytes_delivered);
                buf.put_u32(report.transport.per_peer.len() as u32);
                for (&peer, link) in &report.transport.per_peer {
                    buf.put_u64(peer);
                    buf.put_u64(link.frames_sent);
                    buf.put_u64(link.bytes_sent);
                    buf.put_u64(link.frames_received);
                    buf.put_u64(link.bytes_received);
                    buf.put_u64(link.reconnects);
                    buf.put_u64(link.send_failures);
                }
                // The optional reactor block: flag byte, then the eight
                // reactor fields.
                match &report.transport.reactor {
                    Some(reactor) => {
                        buf.put_u8(1);
                        buf.put_u64(reactor.registered_peers);
                        buf.put_u64(reactor.registered_fds);
                        buf.put_u64(reactor.epoll_wakeups);
                        buf.put_u64(reactor.write_queue_frames);
                        buf.put_u64(reactor.write_queue_bytes);
                        buf.put_u64(reactor.partial_writes);
                        buf.put_u64(reactor.reconnects);
                        buf.put_u64(reactor.dropped_frames);
                    }
                    None => buf.put_u8(0),
                }
                buf.put_u64(report.messages_delivered);
                buf.put_u64(report.messages_lost);
                buf.put_u32(report.extra_paths.len() as u32);
                for (peer, path) in &report.extra_paths {
                    buf.put_u64(*peer);
                    put_path(&mut buf, path);
                }
            }
            ClusterMsg::Heartbeat { epoch } => {
                buf.put_u8(9);
                buf.put_u64(*epoch);
            }
            ClusterMsg::ShardPaths { shard_start, paths } => {
                buf.put_u8(10);
                buf.put_u64(*shard_start);
                buf.put_u32(paths.len() as u32);
                for path in paths {
                    put_path(&mut buf, path);
                }
            }
            ClusterMsg::WorkerFailed {
                epoch,
                worker_index,
                shard_start,
                shard_len,
            } => {
                buf.put_u8(11);
                buf.put_u64(*epoch);
                buf.put_u32(*worker_index);
                buf.put_u64(*shard_start);
                buf.put_u64(*shard_len);
            }
            ClusterMsg::ShardReassign { epoch, moves } => {
                buf.put_u8(12);
                buf.put_u64(*epoch);
                buf.put_u32(moves.len() as u32);
                for m in moves {
                    buf.put_u64(m.peer);
                    buf.put_u32(m.to_worker);
                    buf.put_u64(m.source_peer);
                    put_path(&mut buf, &m.path);
                }
            }
            ClusterMsg::RecoveryAddrs { epoch, peer_addrs } => {
                buf.put_u8(13);
                buf.put_u64(*epoch);
                put_addrs(&mut buf, peer_addrs);
            }
            ClusterMsg::RecoveryDone { epoch, recovered } => {
                buf.put_u8(14);
                buf.put_u64(*epoch);
                buf.put_u32(recovered.len() as u32);
                for (peer, via_replica) in recovered {
                    buf.put_u64(*peer);
                    buf.put_u8(*via_replica as u8);
                }
            }
            ClusterMsg::Rejoin {
                shard_start,
                shard_len,
                epoch,
                phase,
                now_ms,
                seed,
            } => {
                buf.put_u8(15);
                buf.put_u64(*shard_start);
                buf.put_u64(*shard_len);
                buf.put_u64(*epoch);
                buf.put_u8(*phase);
                buf.put_u64(*now_ms);
                buf.put_u64(*seed);
            }
            ClusterMsg::Resume { epoch, phase } => {
                buf.put_u8(16);
                buf.put_u64(*epoch);
                buf.put_u8(*phase);
            }
        }
        buf.freeze()
    }

    /// Decodes a message previously produced by [`ClusterMsg::encode`];
    /// `None` for malformed input, a version mismatch, or bytes left over
    /// after the message.
    pub fn decode(mut data: Bytes) -> Option<ClusterMsg> {
        if get_u16(&mut data)? != MAGIC || get_u8(&mut data)? != VERSION {
            return None;
        }
        let msg = match get_u8(&mut data)? {
            0 => ClusterMsg::Welcome {
                worker_index: get_u32(&mut data)?,
                n_workers: get_u32(&mut data)?,
                shard_start: get_u64(&mut data)?,
                shard_len: get_u64(&mut data)?,
                config: get_config(&mut data)?,
                timeline: get_timeline(&mut data)?,
                tracing: get_u8(&mut data)? != 0,
                heartbeat_ms: get_u64(&mut data)?,
                failure_timeout_ms: get_u64(&mut data)?,
                heal: get_u8(&mut data)? != 0,
                kill_at_min: match get_u8(&mut data)? {
                    0 => None,
                    1 => Some(get_u64(&mut data)?),
                    _ => return None,
                },
            },
            1 => ClusterMsg::Hello {
                shard_start: get_u64(&mut data)?,
                peer_addrs: get_addrs(&mut data)?,
                metrics_addr: match get_u8(&mut data)? {
                    0 => None,
                    1 => Some(get_addr(&mut data)?),
                    _ => return None,
                },
            },
            2 => ClusterMsg::AddressBook {
                peer_addrs: get_addrs(&mut data)?,
            },
            3 => ClusterMsg::PhaseDone {
                phase: get_u8(&mut data)?,
            },
            4 => ClusterMsg::Proceed {
                phase: get_u8(&mut data)?,
            },
            5 => {
                let n = get_count(&mut data, 1 << 20, 24)?;
                let mut samples = Vec::with_capacity(n);
                for _ in 0..n {
                    samples.push((
                        get_u64(&mut data)?,
                        get_u64(&mut data)?,
                        get_u64(&mut data)?,
                    ));
                }
                ClusterMsg::Minutes { samples }
            }
            7 => {
                let n = get_count(&mut data, 1 << 20, TRACE_EVENT_MIN_BYTES)?;
                let mut events = Vec::with_capacity(n);
                for _ in 0..n {
                    let trace_id = get_u64(&mut data)?;
                    let kind = pgrid_obs::trace::intern_kind(&get_string(&mut data)?);
                    events.push(pgrid_obs::trace::TraceEvent {
                        trace_id,
                        kind,
                        peer: get_u64(&mut data)?,
                        virtual_ms: get_u64(&mut data)?,
                        wall_micros: get_u64(&mut data)?,
                        detail: get_string(&mut data)?,
                    });
                }
                ClusterMsg::TraceBatch { events }
            }
            8 => {
                let len = get_count(&mut data, 1 << 26, 1)?;
                let registry = data.split_to(len).as_slice().to_vec();
                ClusterMsg::MetricsSnapshot { registry }
            }
            6 => {
                let shard_start = get_u64(&mut data)?;
                let paths = get_paths(&mut data)?;
                let n_indexes = get_count(&mut data, 1 << 16, 2 + AGGREGATES_MIN_BYTES)?;
                let mut query_stats = Vec::with_capacity(n_indexes);
                for _ in 0..n_indexes {
                    let index = IndexId(get_u16(&mut data)?);
                    query_stats.push((index, get_aggregates(&mut data)?));
                }
                let online_at_end = get_u64(&mut data)?;
                let mut transport = TransportStats {
                    frames_sent: get_u64(&mut data)?,
                    frames_delivered: get_u64(&mut data)?,
                    bytes_sent: get_u64(&mut data)?,
                    bytes_delivered: get_u64(&mut data)?,
                    ..TransportStats::default()
                };
                let n_links = get_count(&mut data, 1 << 24, 56)?;
                for _ in 0..n_links {
                    let peer = get_u64(&mut data)?;
                    let link = LinkStats {
                        frames_sent: get_u64(&mut data)?,
                        bytes_sent: get_u64(&mut data)?,
                        frames_received: get_u64(&mut data)?,
                        bytes_received: get_u64(&mut data)?,
                        reconnects: get_u64(&mut data)?,
                        send_failures: get_u64(&mut data)?,
                    };
                    transport.per_peer.insert(peer, link);
                }
                if get_u8(&mut data)? != 0 {
                    transport.reactor = Some(ReactorStats {
                        registered_peers: get_u64(&mut data)?,
                        registered_fds: get_u64(&mut data)?,
                        epoll_wakeups: get_u64(&mut data)?,
                        write_queue_frames: get_u64(&mut data)?,
                        write_queue_bytes: get_u64(&mut data)?,
                        partial_writes: get_u64(&mut data)?,
                        reconnects: get_u64(&mut data)?,
                        dropped_frames: get_u64(&mut data)?,
                    });
                }
                let messages_delivered = get_u64(&mut data)?;
                let messages_lost = get_u64(&mut data)?;
                let n_extra = get_count(&mut data, 1 << 24, 8 + PATH_BYTES)?;
                let mut extra_paths = Vec::with_capacity(n_extra);
                for _ in 0..n_extra {
                    let peer = get_u64(&mut data)?;
                    extra_paths.push((peer, get_path(&mut data)?));
                }
                ClusterMsg::Report(ShardReport {
                    shard_start,
                    paths,
                    query_stats,
                    online_at_end,
                    transport,
                    messages_delivered,
                    messages_lost,
                    extra_paths,
                })
            }
            9 => ClusterMsg::Heartbeat {
                epoch: get_u64(&mut data)?,
            },
            10 => ClusterMsg::ShardPaths {
                shard_start: get_u64(&mut data)?,
                paths: get_paths(&mut data)?,
            },
            11 => ClusterMsg::WorkerFailed {
                epoch: get_u64(&mut data)?,
                worker_index: get_u32(&mut data)?,
                shard_start: get_u64(&mut data)?,
                shard_len: get_u64(&mut data)?,
            },
            12 => {
                let epoch = get_u64(&mut data)?;
                let n = get_count(&mut data, 1 << 24, 20 + PATH_BYTES)?;
                let mut moves = Vec::with_capacity(n);
                for _ in 0..n {
                    moves.push(ReassignMove {
                        peer: get_u64(&mut data)?,
                        to_worker: get_u32(&mut data)?,
                        source_peer: get_u64(&mut data)?,
                        path: get_path(&mut data)?,
                    });
                }
                ClusterMsg::ShardReassign { epoch, moves }
            }
            13 => ClusterMsg::RecoveryAddrs {
                epoch: get_u64(&mut data)?,
                peer_addrs: get_addrs(&mut data)?,
            },
            14 => {
                let epoch = get_u64(&mut data)?;
                let n = get_count(&mut data, 1 << 24, 9)?;
                let mut recovered = Vec::with_capacity(n);
                for _ in 0..n {
                    let peer = get_u64(&mut data)?;
                    recovered.push((peer, get_u8(&mut data)? != 0));
                }
                ClusterMsg::RecoveryDone { epoch, recovered }
            }
            15 => ClusterMsg::Rejoin {
                shard_start: get_u64(&mut data)?,
                shard_len: get_u64(&mut data)?,
                epoch: get_u64(&mut data)?,
                phase: get_u8(&mut data)?,
                now_ms: get_u64(&mut data)?,
                seed: get_u64(&mut data)?,
            },
            16 => ClusterMsg::Resume {
                epoch: get_u64(&mut data)?,
                phase: get_u8(&mut data)?,
            },
            _ => return None,
        };
        data.is_empty().then_some(msg)
    }

    /// Checks every peer id and shard range the message carries against
    /// the run's population.  Both sides index per-peer tables with these
    /// values, so the receive paths call this before acting on a message;
    /// a violation is `InvalidData`, never a panic.
    pub fn check_ranges(&self, n_peers: usize) -> std::io::Result<()> {
        let n = n_peers as u64;
        let shard = |start: u64, len: u64| start.checked_add(len).is_some_and(|end| end <= n);
        let addrs = |addrs: &[(u64, SocketAddr)]| addrs.iter().all(|&(peer, _)| peer < n);
        let ok = match self {
            ClusterMsg::Hello {
                shard_start,
                peer_addrs,
                ..
            } => shard(*shard_start, peer_addrs.len() as u64) && addrs(peer_addrs),
            ClusterMsg::AddressBook { peer_addrs }
            | ClusterMsg::RecoveryAddrs { peer_addrs, .. } => addrs(peer_addrs),
            ClusterMsg::Report(report) => {
                shard(report.shard_start, report.paths.len() as u64)
                    && report.extra_paths.iter().all(|&(peer, _)| peer < n)
            }
            ClusterMsg::ShardPaths { shard_start, paths } => {
                shard(*shard_start, paths.len() as u64)
            }
            ClusterMsg::WorkerFailed {
                shard_start,
                shard_len,
                ..
            }
            | ClusterMsg::Rejoin {
                shard_start,
                shard_len,
                ..
            } => shard(*shard_start, *shard_len),
            ClusterMsg::ShardReassign { moves, .. } => {
                moves.iter().all(|m| m.peer < n && m.source_peer < n)
            }
            ClusterMsg::RecoveryDone { recovered, .. } => {
                recovered.iter().all(|&(peer, _)| peer < n)
            }
            _ => true,
        };
        if ok {
            return Ok(());
        }
        Err(std::io::Error::new(
            ErrorKind::InvalidData,
            format!("peer id or shard range outside the {n_peers}-peer population: {self:?}"),
        ))
    }
}

/// The error for a control message that is valid but not the one the
/// protocol allows at this point.
pub(crate) fn protocol_error(what: &str, got: &ClusterMsg) -> std::io::Error {
    std::io::Error::new(
        ErrorKind::InvalidData,
        format!("expected {what}, got {got:?}"),
    )
}

// ----- field codecs ----------------------------------------------------------

/// Encoded size of a [`Path`]: length byte plus the bit word.
const PATH_BYTES: usize = 9;
/// Shortest encoded trace event: four words and two empty strings.
const TRACE_EVENT_MIN_BYTES: usize = 4 * 8 + 2 * 4;
/// Shortest encoded [`QueryAggregates`]: eight counters, two empty
/// histograms (count, sum, max) and an empty per-minute map.
const AGGREGATES_MIN_BYTES: usize = 8 * 8 + 2 * 20 + 4;

fn put_config(buf: &mut BytesMut, config: &NetConfig) {
    buf.put_u64(config.n_peers as u64);
    buf.put_u64(config.keys_per_peer as u64);
    buf.put_u64(config.n_min as u64);
    match config.delta_max {
        Some(d) => {
            buf.put_u8(1);
            buf.put_u64(d as u64);
        }
        None => buf.put_u8(0),
    }
    buf.put_u64(config.latency_min_ms);
    buf.put_u64(config.latency_max_ms);
    buf.put_f64(config.loss_probability);
    buf.put_u64(config.construct_interval_ms);
    buf.put_u64(config.query_timeout_ms);
    buf.put_u64(config.routing_fanout as u64);
    buf.put_u64(config.seed);
    match config.distribution {
        Distribution::Uniform => buf.put_u8(0),
        Distribution::Pareto { shape } => {
            buf.put_u8(1);
            buf.put_f64(shape);
        }
        Distribution::Normal { mean, std_dev } => {
            buf.put_u8(2);
            buf.put_f64(mean);
            buf.put_f64(std_dev);
        }
        Distribution::Text {
            vocabulary,
            exponent,
        } => {
            buf.put_u8(3);
            buf.put_u64(vocabulary as u64);
            buf.put_f64(exponent);
        }
    }
    buf.put_u8(config.route_cache as u8);
    buf.put_u64(config.query_sample_cap as u64);
    buf.put_u64(config.recovery_retry_ms);
    buf.put_u64(config.recovery_retry_max_ms);
}

fn get_config(data: &mut Bytes) -> Option<NetConfig> {
    let n_peers = get_u64(data)? as usize;
    let keys_per_peer = get_u64(data)? as usize;
    let n_min = get_u64(data)? as usize;
    let delta_max = if get_u8(data)? != 0 {
        Some(get_u64(data)? as usize)
    } else {
        None
    };
    let latency_min_ms = get_u64(data)?;
    let latency_max_ms = get_u64(data)?;
    let loss_probability = get_f64(data)?;
    let construct_interval_ms = get_u64(data)?;
    let query_timeout_ms = get_u64(data)?;
    let routing_fanout = get_u64(data)? as usize;
    let seed = get_u64(data)?;
    let distribution = match get_u8(data)? {
        0 => Distribution::Uniform,
        1 => Distribution::Pareto {
            shape: get_f64(data)?,
        },
        2 => Distribution::Normal {
            mean: get_f64(data)?,
            std_dev: get_f64(data)?,
        },
        3 => Distribution::Text {
            vocabulary: get_u64(data)? as usize,
            exponent: get_f64(data)?,
        },
        _ => return None,
    };
    let route_cache = get_u8(data)? != 0;
    let query_sample_cap = get_u64(data)? as usize;
    let recovery_retry_ms = get_u64(data)?;
    let recovery_retry_max_ms = get_u64(data)?;
    Some(NetConfig {
        n_peers,
        keys_per_peer,
        n_min,
        delta_max,
        latency_min_ms,
        latency_max_ms,
        loss_probability,
        construct_interval_ms,
        query_timeout_ms,
        routing_fanout,
        seed,
        distribution,
        route_cache,
        query_sample_cap,
        recovery_retry_ms,
        recovery_retry_max_ms,
    })
}

fn put_histogram(buf: &mut BytesMut, histogram: &LogHistogram) {
    let sparse = histogram.sparse_buckets();
    buf.put_u32(sparse.len() as u32);
    for (bucket, count) in sparse {
        buf.put_u16(bucket);
        buf.put_u64(count);
    }
    buf.put_u64(histogram.sum());
    buf.put_u64(histogram.max());
}

fn get_histogram(data: &mut Bytes) -> Option<LogHistogram> {
    let n = get_count(data, pgrid_core::histogram::NUM_BUCKETS, 10)?;
    let mut sparse = Vec::with_capacity(n);
    for _ in 0..n {
        sparse.push((get_u16(data)?, get_u64(data)?));
    }
    let sum = get_u64(data)?;
    let max = get_u64(data)?;
    Some(LogHistogram::from_sparse(&sparse, sum, max))
}

fn put_aggregates(buf: &mut BytesMut, stats: &QueryAggregates) {
    buf.put_u64(stats.issued);
    buf.put_u64(stats.answered);
    buf.put_u64(stats.succeeded);
    buf.put_u64(stats.timed_out);
    buf.put_u64(stats.late_responses);
    buf.put_u64(stats.hops_sum_successful);
    put_histogram(buf, &stats.latency);
    buf.put_u64(stats.ranges_issued);
    buf.put_u64(stats.ranges_complete);
    put_histogram(buf, &stats.range_latency);
    buf.put_u32(stats.per_minute.len() as u32);
    for (minute, bucket) in &stats.per_minute {
        buf.put_u64(*minute);
        buf.put_u64(bucket.count);
        buf.put_f64(bucket.sum_s);
        buf.put_f64(bucket.sum_sq_s);
    }
}

fn get_aggregates(data: &mut Bytes) -> Option<QueryAggregates> {
    let issued = get_u64(data)?;
    let answered = get_u64(data)?;
    let succeeded = get_u64(data)?;
    let timed_out = get_u64(data)?;
    let late_responses = get_u64(data)?;
    let hops_sum_successful = get_u64(data)?;
    let latency = get_histogram(data)?;
    let ranges_issued = get_u64(data)?;
    let ranges_complete = get_u64(data)?;
    let range_latency = get_histogram(data)?;
    let n_minutes = get_count(data, 1 << 24, 32)?;
    let mut per_minute = std::collections::BTreeMap::new();
    for _ in 0..n_minutes {
        let minute = get_u64(data)?;
        per_minute.insert(
            minute,
            MinuteLatency {
                count: get_u64(data)?,
                sum_s: get_f64(data)?,
                sum_sq_s: get_f64(data)?,
            },
        );
    }
    Some(QueryAggregates {
        issued,
        answered,
        succeeded,
        timed_out,
        late_responses,
        hops_sum_successful,
        latency,
        ranges_issued,
        ranges_complete,
        range_latency,
        per_minute,
    })
}

fn put_timeline(buf: &mut BytesMut, timeline: &Timeline) {
    buf.put_u64(timeline.join_end_min);
    buf.put_u64(timeline.replicate_end_min);
    buf.put_u64(timeline.construct_end_min);
    buf.put_u64(timeline.range_end_min);
    buf.put_u64(timeline.query_end_min);
    buf.put_u64(timeline.end_min);
}

fn get_timeline(data: &mut Bytes) -> Option<Timeline> {
    Some(Timeline {
        join_end_min: get_u64(data)?,
        replicate_end_min: get_u64(data)?,
        construct_end_min: get_u64(data)?,
        range_end_min: get_u64(data)?,
        query_end_min: get_u64(data)?,
        end_min: get_u64(data)?,
    })
}

fn put_addr(buf: &mut BytesMut, addr: &SocketAddr) {
    match addr.ip() {
        IpAddr::V4(ip) => {
            buf.put_u8(4);
            buf.put_slice(&ip.octets());
        }
        IpAddr::V6(ip) => {
            buf.put_u8(6);
            buf.put_slice(&ip.octets());
        }
    }
    buf.put_u16(addr.port());
}

fn get_addr(data: &mut Bytes) -> Option<SocketAddr> {
    let ip: IpAddr = match get_u8(data)? {
        4 => {
            let mut octets = [0u8; 4];
            get_bytes(data, &mut octets)?;
            Ipv4Addr::from(octets).into()
        }
        6 => {
            let mut octets = [0u8; 16];
            get_bytes(data, &mut octets)?;
            Ipv6Addr::from(octets).into()
        }
        _ => return None,
    };
    let port = get_u16(data)?;
    Some(SocketAddr::new(ip, port))
}

fn put_addrs(buf: &mut BytesMut, addrs: &[(u64, SocketAddr)]) {
    buf.put_u32(addrs.len() as u32);
    for (peer, addr) in addrs {
        buf.put_u64(*peer);
        put_addr(buf, addr);
    }
}

fn get_addrs(data: &mut Bytes) -> Option<Vec<(u64, SocketAddr)>> {
    // The shortest entry is a peer id plus an IPv4 address.
    let n = get_count(data, 1 << 24, 8 + 1 + 4 + 2)?;
    let mut addrs = Vec::with_capacity(n);
    for _ in 0..n {
        let peer = get_u64(data)?;
        addrs.push((peer, get_addr(data)?));
    }
    Some(addrs)
}

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn get_string(data: &mut Bytes) -> Option<String> {
    let len = get_count(data, 1 << 16, 1)?;
    String::from_utf8(data.split_to(len).as_slice().to_vec()).ok()
}

fn put_path(buf: &mut BytesMut, path: &Path) {
    let (len, bits) = path.wire_parts();
    buf.put_u8(len);
    buf.put_u64(bits);
}

fn get_path(data: &mut Bytes) -> Option<Path> {
    let len = get_u8(data)?;
    Path::from_wire_parts(len, get_u64(data)?)
}

fn get_paths(data: &mut Bytes) -> Option<Vec<Path>> {
    let n = get_count(data, 1 << 24, PATH_BYTES)?;
    let mut paths = Vec::with_capacity(n);
    for _ in 0..n {
        paths.push(get_path(data)?);
    }
    Some(paths)
}

/// Reads a `u32` element count and accepts it only if it is at most `cap`
/// and `n` elements of at least `element_bytes` each can still follow in
/// `data` — so the decoder never reserves more than the input could hold.
fn get_count(data: &mut Bytes, cap: usize, element_bytes: usize) -> Option<usize> {
    let n = get_u32(data)? as usize;
    (n <= cap && n.checked_mul(element_bytes)? <= data.remaining()).then_some(n)
}

fn get_u8(data: &mut Bytes) -> Option<u8> {
    (data.remaining() >= 1).then(|| data.get_u8())
}

fn get_u16(data: &mut Bytes) -> Option<u16> {
    (data.remaining() >= 2).then(|| data.get_u16())
}

fn get_u32(data: &mut Bytes) -> Option<u32> {
    (data.remaining() >= 4).then(|| data.get_u32())
}

fn get_u64(data: &mut Bytes) -> Option<u64> {
    (data.remaining() >= 8).then(|| data.get_u64())
}

fn get_f64(data: &mut Bytes) -> Option<f64> {
    get_u64(data).map(f64::from_bits)
}

fn get_bytes(data: &mut Bytes, out: &mut [u8]) -> Option<()> {
    if data.remaining() < out.len() {
        return None;
    }
    for byte in out.iter_mut() {
        *byte = data.get_u8();
    }
    Some(())
}

// ----- control channel -------------------------------------------------------

/// A framed, bidirectional control connection.
///
/// Sends are synchronous writes of one single-payload frame; receives
/// reassemble frames from the stream with a short socket read timeout so
/// [`ControlChannel::try_recv`] never parks the caller — a worker waiting at
/// a barrier must keep servicing its *data* transport while it waits for the
/// coordinator.
pub struct ControlChannel {
    stream: TcpStream,
    reader: FrameReader,
}

/// Socket read timeout of the control channel; bounds how long `try_recv`
/// can block.
const POLL_TIMEOUT: Duration = Duration::from_millis(2);

impl ControlChannel {
    /// Wraps a connected control stream.
    pub fn new(stream: TcpStream) -> std::io::Result<ControlChannel> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(POLL_TIMEOUT))?;
        Ok(ControlChannel {
            stream,
            reader: FrameReader::new(),
        })
    }

    /// The remote end of the channel.
    pub fn peer_addr(&self) -> std::io::Result<SocketAddr> {
        self.stream.peer_addr()
    }

    /// Sends one message.
    pub fn send(&mut self, msg: &ClusterMsg) -> std::io::Result<()> {
        let frame = encode_frame(&[msg.encode()]);
        self.stream.write_all(frame.as_slice())
    }

    /// Returns the next message if one is available within the short poll
    /// timeout, `None` otherwise.
    pub fn try_recv(&mut self) -> std::io::Result<Option<ClusterMsg>> {
        if let Some(msg) = self.pop_frame()? {
            return Ok(Some(msg));
        }
        let mut buf = [0u8; 16 * 1024];
        match self.stream.read(&mut buf) {
            Ok(0) => Err(std::io::Error::new(
                ErrorKind::UnexpectedEof,
                "control connection closed",
            )),
            Ok(n) => {
                self.reader.extend(&buf[..n]);
                self.pop_frame()
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    /// Waits up to `timeout` for the next message.
    pub fn recv_timeout(&mut self, timeout: Duration) -> std::io::Result<ClusterMsg> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(msg) = self.try_recv()? {
                return Ok(msg);
            }
            if Instant::now() >= deadline {
                return Err(std::io::Error::new(
                    ErrorKind::TimedOut,
                    "timed out waiting for a control message",
                ));
            }
        }
    }

    fn pop_frame(&mut self) -> std::io::Result<Option<ClusterMsg>> {
        let frame = self
            .reader
            .next_frame()
            .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e.to_string()))?;
        let Some(frame) = frame else { return Ok(None) };
        let payloads = decode_frame(&frame)
            .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e.to_string()))?;
        let [payload] = payloads.as_slice() else {
            return Err(std::io::Error::new(
                ErrorKind::InvalidData,
                "control frames carry exactly one message",
            ));
        };
        ClusterMsg::decode(payload.clone())
            .map(Some)
            .ok_or_else(|| std::io::Error::new(ErrorKind::InvalidData, "malformed control message"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: ClusterMsg) {
        let encoded = msg.encode();
        let decoded = ClusterMsg::decode(encoded).expect("decode");
        assert_eq!(decoded, msg);
    }

    #[test]
    fn all_message_kinds_roundtrip() {
        roundtrip(ClusterMsg::Welcome {
            worker_index: 1,
            n_workers: 4,
            shard_start: 16,
            shard_len: 16,
            config: NetConfig {
                n_peers: 64,
                delta_max: Some(50),
                loss_probability: 0.0125,
                distribution: Distribution::Pareto { shape: 1.0 },
                ..NetConfig::default()
            },
            timeline: Timeline::default(),
            tracing: true,
            heartbeat_ms: 500,
            failure_timeout_ms: 10_000,
            heal: true,
            kill_at_min: Some(10),
        });
        roundtrip(ClusterMsg::Hello {
            shard_start: 0,
            peer_addrs: vec![
                (0, "127.0.0.1:4000".parse().unwrap()),
                (1, "[::1]:4001".parse().unwrap()),
            ],
            metrics_addr: Some("127.0.0.1:9100".parse().unwrap()),
        });
        roundtrip(ClusterMsg::Hello {
            shard_start: 16,
            peer_addrs: vec![(16, "127.0.0.1:4016".parse().unwrap())],
            metrics_addr: None,
        });
        roundtrip(ClusterMsg::AddressBook {
            peer_addrs: (0..32u64)
                .map(|i| (i, format!("127.0.0.1:{}", 5000 + i).parse().unwrap()))
                .collect(),
        });
        roundtrip(ClusterMsg::PhaseDone {
            phase: PHASE_CONSTRUCTED,
        });
        roundtrip(ClusterMsg::Proceed { phase: PHASE_DONE });
        roundtrip(ClusterMsg::Minutes {
            samples: vec![(0, 1200, 0), (1, 900, 30), (7, 0, 4096)],
        });
        roundtrip(ClusterMsg::TraceBatch {
            events: vec![
                pgrid_obs::trace::TraceEvent {
                    trace_id: (1 << 40) | 3,
                    kind: pgrid_obs::trace::intern_kind("query_issued"),
                    peer: 17,
                    virtual_ms: 120_000,
                    wall_micros: 1_700_000_000_000_000,
                    detail: "id=3 index=0 key=0.25".to_string(),
                },
                pgrid_obs::trace::TraceEvent {
                    trace_id: (1 << 40) | 3,
                    kind: pgrid_obs::trace::intern_kind("query_hop"),
                    peer: 4,
                    virtual_ms: 120_040,
                    wall_micros: 1_700_000_000_000_900,
                    detail: "path=\"01\" cached=false".to_string(),
                },
            ],
        });
        let mut registry = pgrid_obs::registry::MetricsRegistry::new();
        registry.counter("pgrid_net_messages_delivered_total", "m", &[], 42);
        roundtrip(ClusterMsg::MetricsSnapshot {
            registry: registry.encode_wire(),
        });
        let mut primary = QueryAggregates {
            issued: 120,
            answered: 110,
            succeeded: 104,
            timed_out: 10,
            late_responses: 3,
            hops_sum_successful: 312,
            ranges_issued: 7,
            ranges_complete: 6,
            ..QueryAggregates::default()
        };
        for latency in [12u64, 80, 80, 412, 3_000] {
            primary.latency.record(latency);
        }
        primary.range_latency.record(950);
        primary.per_minute.entry(61).or_default().record(0.412);
        let secondary = QueryAggregates {
            issued: 4,
            timed_out: 4,
            ..QueryAggregates::default()
        };
        roundtrip(ClusterMsg::Report(ShardReport {
            shard_start: 32,
            paths: vec![Path::root(), Path::parse("0110"), Path::parse("1")],
            query_stats: vec![(IndexId::PRIMARY, primary), (IndexId(2), secondary)],
            online_at_end: 14,
            transport: TransportStats {
                frames_sent: 1000,
                frames_delivered: 990,
                bytes_sent: 123_456,
                bytes_delivered: 120_000,
                per_peer: [
                    (
                        32,
                        LinkStats {
                            frames_sent: 40,
                            bytes_sent: 5_000,
                            frames_received: 41,
                            bytes_received: 5_100,
                            reconnects: 1,
                            send_failures: 0,
                        },
                    ),
                    (
                        7,
                        LinkStats {
                            frames_received: 9,
                            bytes_received: 900,
                            ..LinkStats::default()
                        },
                    ),
                ]
                .into_iter()
                .collect(),
                reactor: Some(ReactorStats {
                    registered_peers: 32,
                    registered_fds: 3,
                    epoll_wakeups: 777,
                    write_queue_frames: 2,
                    write_queue_bytes: 512,
                    partial_writes: 5,
                    reconnects: 1,
                    dropped_frames: 0,
                }),
            },
            messages_delivered: 2048,
            messages_lost: 17,
            extra_paths: vec![(3, Path::parse("011")), (9, Path::root())],
        }));
        roundtrip(ClusterMsg::Heartbeat { epoch: 2 });
        roundtrip(ClusterMsg::ShardPaths {
            shard_start: 16,
            paths: vec![Path::parse("01"), Path::root(), Path::parse("110")],
        });
        roundtrip(ClusterMsg::WorkerFailed {
            epoch: 1,
            worker_index: 2,
            shard_start: 22,
            shard_len: 10,
        });
        roundtrip(ClusterMsg::ShardReassign {
            epoch: 1,
            moves: vec![
                ReassignMove {
                    peer: 22,
                    to_worker: 0,
                    source_peer: 4,
                    path: Path::parse("010"),
                },
                ReassignMove {
                    peer: 23,
                    to_worker: 1,
                    source_peer: 23,
                    path: Path::root(),
                },
            ],
        });
        roundtrip(ClusterMsg::RecoveryAddrs {
            epoch: 1,
            peer_addrs: vec![
                (22, "127.0.0.1:6022".parse().unwrap()),
                (23, "[::1]:6023".parse().unwrap()),
            ],
        });
        roundtrip(ClusterMsg::RecoveryDone {
            epoch: 1,
            recovered: vec![(22, true), (23, false)],
        });
        roundtrip(ClusterMsg::Rejoin {
            shard_start: 16,
            shard_len: 8,
            epoch: 2,
            phase: PHASE_CONSTRUCTED,
            now_ms: 1_380_000,
            seed: 12,
        });
        roundtrip(ClusterMsg::Resume {
            epoch: 3,
            phase: PHASE_QUERIED,
        });
    }

    #[test]
    fn config_retry_pacing_survives_the_codec() {
        roundtrip(ClusterMsg::Welcome {
            worker_index: 0,
            n_workers: 1,
            shard_start: 0,
            shard_len: 8,
            config: NetConfig {
                recovery_retry_ms: 500,
                recovery_retry_max_ms: 7_000,
                ..NetConfig::default()
            },
            timeline: Timeline::default(),
            tracing: false,
            heartbeat_ms: 0,
            failure_timeout_ms: 0,
            heal: false,
            kill_at_min: None,
        });
    }

    #[test]
    fn every_distribution_variant_survives_the_config_codec() {
        for distribution in Distribution::paper_suite() {
            roundtrip(ClusterMsg::Welcome {
                worker_index: 0,
                n_workers: 1,
                shard_start: 0,
                shard_len: 8,
                config: NetConfig {
                    distribution,
                    ..NetConfig::default()
                },
                timeline: Timeline::default(),
                tracing: false,
                heartbeat_ms: 0,
                failure_timeout_ms: 0,
                heal: false,
                kill_at_min: None,
            });
        }
    }

    #[test]
    fn malformed_and_mismatched_input_is_rejected() {
        assert!(ClusterMsg::decode(Bytes::from_static(&[])).is_none());
        assert!(ClusterMsg::decode(Bytes::from_static(&[0x50, 0x47])).is_none());
        // wrong version
        assert!(ClusterMsg::decode(Bytes::from_static(&[0x50, 0x47, 99, 3, 1])).is_none());
        // truncated Welcome
        let mut good = ClusterMsg::PhaseDone { phase: 2 }
            .encode()
            .as_slice()
            .to_vec();
        good.pop();
        assert!(ClusterMsg::decode(Bytes::from(good)).is_none());
        // unknown tag
        assert!(ClusterMsg::decode(Bytes::from_static(&[0x50, 0x47, 1, 200])).is_none());
    }

    #[test]
    fn trailing_bytes_after_a_message_are_rejected() {
        let mut bytes = ClusterMsg::Proceed { phase: 3 }
            .encode()
            .as_slice()
            .to_vec();
        assert!(ClusterMsg::decode(Bytes::from(bytes.clone())).is_some());
        bytes.push(0);
        assert!(ClusterMsg::decode(Bytes::from(bytes)).is_none());
    }

    #[test]
    fn a_claimed_count_is_checked_against_what_follows_before_reserving() {
        // 2^24 paths claimed, nine bytes behind the count: one path's worth.
        let mut data = Bytes::from([&[1u8, 0, 0, 0][..], &[0u8; 9][..]].concat());
        assert_eq!(get_count(&mut data, 1 << 24, PATH_BYTES), None);
        let mut data = Bytes::from([&[0u8, 0, 0, 1][..], &[0u8; 9][..]].concat());
        assert_eq!(get_count(&mut data, 1 << 24, PATH_BYTES), Some(1));
        let mut data = Bytes::from([&[0u8, 0, 0, 2][..], &[0u8; 9][..]].concat());
        assert_eq!(get_count(&mut data, 1, PATH_BYTES), None, "over the cap");
    }

    #[test]
    fn ids_and_ranges_outside_the_population_are_invalid_data() {
        let addr: SocketAddr = "127.0.0.1:4000".parse().unwrap();
        let report = |shard_start, n_paths, extra| {
            ClusterMsg::Report(ShardReport {
                shard_start,
                paths: vec![Path::root(); n_paths],
                query_stats: Vec::new(),
                online_at_end: 0,
                transport: TransportStats::default(),
                messages_delivered: 0,
                messages_lost: 0,
                extra_paths: vec![(extra, Path::root())],
            })
        };
        let reassign = |peer, source_peer| ClusterMsg::ShardReassign {
            epoch: 1,
            moves: vec![ReassignMove {
                peer,
                to_worker: 0,
                source_peer,
                path: Path::root(),
            }],
        };
        let cases = [
            (
                ClusterMsg::RecoveryDone {
                    epoch: 1,
                    recovered: vec![(7, true)],
                },
                ClusterMsg::RecoveryDone {
                    epoch: 1,
                    recovered: vec![(7, true), (8, false)],
                },
            ),
            (report(4, 4, 0), report(5, 4, 0)),
            (report(4, 4, 7), report(4, 4, 8)),
            (report(0, 8, 0), report(u64::MAX, 2, 0)),
            (reassign(7, 0), reassign(8, 0)),
            (reassign(7, 7), reassign(7, 8)),
            (
                ClusterMsg::ShardPaths {
                    shard_start: 6,
                    paths: vec![Path::root(); 2],
                },
                ClusterMsg::ShardPaths {
                    shard_start: 7,
                    paths: vec![Path::root(); 2],
                },
            ),
            (
                ClusterMsg::AddressBook {
                    peer_addrs: vec![(7, addr)],
                },
                ClusterMsg::AddressBook {
                    peer_addrs: vec![(8, addr)],
                },
            ),
        ];
        for (inside, outside) in cases {
            assert!(inside.check_ranges(8).is_ok(), "{inside:?}");
            let error = outside.check_ranges(8).unwrap_err();
            assert_eq!(error.kind(), ErrorKind::InvalidData, "{outside:?}");
        }
        assert!(ClusterMsg::Heartbeat { epoch: 9 }.check_ranges(0).is_ok());
    }

    #[test]
    fn control_channel_carries_framed_messages_both_ways() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut ctl = ControlChannel::new(TcpStream::connect(addr).unwrap()).unwrap();
            ctl.send(&ClusterMsg::PhaseDone { phase: 1 }).unwrap();
            let reply = ctl.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(reply, ClusterMsg::Proceed { phase: 1 });
        });
        let (stream, _) = listener.accept().unwrap();
        let mut ctl = ControlChannel::new(stream).unwrap();
        let msg = ctl.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(msg, ClusterMsg::PhaseDone { phase: 1 });
        ctl.send(&ClusterMsg::Proceed { phase: 1 }).unwrap();
        client.join().unwrap();
    }
}
