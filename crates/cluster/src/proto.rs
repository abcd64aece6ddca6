//! Rendezvous wire protocol between the coordinator and its workers.
//!
//! The control plane is deliberately tiny: one TCP connection per worker,
//! carrying [`ClusterMsg`]s as single-payload frames (the same
//! length-prefixed framing the data plane uses, so both sides reuse
//! [`pgrid_transport::frame::FrameReader`] for reassembly).  The order the
//! messages travel in is in the [crate docs](crate).
//!
//! Like the peer protocol, the codec is a hand-rolled big-endian binary
//! format built from the workspace's one codec kit ([`pgrid_core::wire`]):
//! no registry dependencies, self-describing enough for round-trip tests,
//! and versioned by a leading magic/version pair so a stale worker fails
//! loudly instead of mis-parsing.

use crate::plan::MINUTE_MS;
use bytes::Bytes;
use pgrid_core::path::Path;
use pgrid_core::wire::{Be, Order, Sink, PATH_BYTES};
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
const VERSION: u8 = 11;

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
    /// Query aggregates of the shard (bounded-size histograms instead of
    /// raw per-query records; the coordinator folds them with
    /// [`QueryAggregates::merge`]).
    pub query_stats: QueryAggregates,
    /// Hosted peers online when the run ended: at most one per entry of
    /// `paths` and `extra_paths` ([`ClusterMsg::check_ranges`]).
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
        let mut buf = Vec::with_capacity(64);
        Be::put_u16(&mut buf, MAGIC);
        Be::put_u8(&mut buf, VERSION);
        match self {
            ClusterMsg::Welcome {
                worker_index,
                shard_start,
                shard_len,
                config,
                timeline,
                tracing,
                heartbeat_ms,
                heal,
                kill_at_min,
            } => {
                Be::put_u8(&mut buf, 0);
                Be::put_u32(&mut buf, *worker_index);
                Be::put_u64(&mut buf, *shard_start);
                Be::put_u64(&mut buf, *shard_len);
                put_config(&mut buf, config);
                put_timeline(&mut buf, timeline);
                Be::put_u8(&mut buf, *tracing as u8);
                Be::put_u64(&mut buf, *heartbeat_ms);
                Be::put_u8(&mut buf, *heal as u8);
                match kill_at_min {
                    Some(at) => {
                        Be::put_u8(&mut buf, 1);
                        Be::put_u64(&mut buf, *at);
                    }
                    None => Be::put_u8(&mut buf, 0),
                }
            }
            ClusterMsg::Hello {
                shard_start,
                peer_addrs,
                metrics_addr,
            } => {
                Be::put_u8(&mut buf, 1);
                Be::put_u64(&mut buf, *shard_start);
                put_addrs(&mut buf, peer_addrs);
                match metrics_addr {
                    Some(addr) => {
                        Be::put_u8(&mut buf, 1);
                        put_addr(&mut buf, addr);
                    }
                    None => Be::put_u8(&mut buf, 0),
                }
            }
            ClusterMsg::AddressBook { peer_addrs } => {
                Be::put_u8(&mut buf, 2);
                put_addrs(&mut buf, peer_addrs);
            }
            ClusterMsg::PhaseDone { phase } => {
                Be::put_u8(&mut buf, 3);
                Be::put_u8(&mut buf, *phase);
            }
            ClusterMsg::Proceed { phase } => {
                Be::put_u8(&mut buf, 4);
                Be::put_u8(&mut buf, *phase);
            }
            ClusterMsg::Minutes { samples } => {
                Be::put_u8(&mut buf, 5);
                Be::put_count(&mut buf, samples.len());
                for (minute, maintenance, query) in samples {
                    Be::put_u64(&mut buf, *minute);
                    Be::put_u64(&mut buf, *maintenance);
                    Be::put_u64(&mut buf, *query);
                }
            }
            ClusterMsg::TraceBatch { events } => {
                Be::put_u8(&mut buf, 7);
                Be::put_count(&mut buf, events.len());
                for event in events {
                    Be::put_u64(&mut buf, event.trace_id);
                    Be::put_str(&mut buf, event.kind);
                    Be::put_u64(&mut buf, event.peer);
                    Be::put_u64(&mut buf, event.virtual_ms);
                    Be::put_u64(&mut buf, event.wall_micros);
                    Be::put_str(&mut buf, &event.detail);
                }
            }
            ClusterMsg::MetricsSnapshot { registry } => {
                Be::put_u8(&mut buf, 8);
                Be::put_count(&mut buf, registry.len());
                buf.put(registry);
            }
            ClusterMsg::Report(report) => {
                Be::put_u8(&mut buf, 6);
                Be::put_u64(&mut buf, report.shard_start);
                Be::put_paths(&mut buf, &report.paths);
                put_aggregates(&mut buf, &report.query_stats);
                Be::put_u64(&mut buf, report.online_at_end);
                Be::put_u64(&mut buf, report.transport.frames_sent);
                Be::put_u64(&mut buf, report.transport.frames_delivered);
                Be::put_u64(&mut buf, report.transport.bytes_sent);
                Be::put_u64(&mut buf, report.transport.bytes_delivered);
                Be::put_count(&mut buf, report.transport.per_peer.len());
                for (&peer, link) in &report.transport.per_peer {
                    Be::put_u64(&mut buf, peer);
                    Be::put_u64(&mut buf, link.frames_sent);
                    Be::put_u64(&mut buf, link.bytes_sent);
                    Be::put_u64(&mut buf, link.frames_received);
                    Be::put_u64(&mut buf, link.bytes_received);
                    Be::put_u64(&mut buf, link.reconnects);
                    Be::put_u64(&mut buf, link.send_failures);
                }
                // The optional reactor block: flag byte, then the eight
                // reactor fields.
                match &report.transport.reactor {
                    Some(reactor) => {
                        Be::put_u8(&mut buf, 1);
                        Be::put_u64(&mut buf, reactor.registered_peers);
                        Be::put_u64(&mut buf, reactor.registered_fds);
                        Be::put_u64(&mut buf, reactor.epoll_wakeups);
                        Be::put_u64(&mut buf, reactor.write_queue_frames);
                        Be::put_u64(&mut buf, reactor.write_queue_bytes);
                        Be::put_u64(&mut buf, reactor.partial_writes);
                        Be::put_u64(&mut buf, reactor.reconnects);
                        Be::put_u64(&mut buf, reactor.dropped_frames);
                    }
                    None => Be::put_u8(&mut buf, 0),
                }
                Be::put_u64(&mut buf, report.messages_delivered);
                Be::put_u64(&mut buf, report.messages_lost);
                Be::put_count(&mut buf, report.extra_paths.len());
                for (peer, path) in &report.extra_paths {
                    Be::put_u64(&mut buf, *peer);
                    Be::put_path(&mut buf, path);
                }
            }
            ClusterMsg::Heartbeat { epoch } => {
                Be::put_u8(&mut buf, 9);
                Be::put_u64(&mut buf, *epoch);
            }
            ClusterMsg::ShardPaths { shard_start, paths } => {
                Be::put_u8(&mut buf, 10);
                Be::put_u64(&mut buf, *shard_start);
                Be::put_paths(&mut buf, paths);
            }
            ClusterMsg::WorkerFailed {
                epoch,
                worker_index,
                shard_start,
                shard_len,
            } => {
                Be::put_u8(&mut buf, 11);
                Be::put_u64(&mut buf, *epoch);
                Be::put_u32(&mut buf, *worker_index);
                Be::put_u64(&mut buf, *shard_start);
                Be::put_u64(&mut buf, *shard_len);
            }
            ClusterMsg::ShardReassign { epoch, moves } => {
                Be::put_u8(&mut buf, 12);
                Be::put_u64(&mut buf, *epoch);
                Be::put_count(&mut buf, moves.len());
                for m in moves {
                    Be::put_u64(&mut buf, m.peer);
                    Be::put_u32(&mut buf, m.to_worker);
                    Be::put_u64(&mut buf, m.source_peer);
                    Be::put_path(&mut buf, &m.path);
                }
            }
            ClusterMsg::RecoveryAddrs { epoch, peer_addrs } => {
                Be::put_u8(&mut buf, 13);
                Be::put_u64(&mut buf, *epoch);
                put_addrs(&mut buf, peer_addrs);
            }
            ClusterMsg::RecoveryDone { epoch, recovered } => {
                Be::put_u8(&mut buf, 14);
                Be::put_u64(&mut buf, *epoch);
                Be::put_count(&mut buf, recovered.len());
                for (peer, via_replica) in recovered {
                    Be::put_u64(&mut buf, *peer);
                    Be::put_u8(&mut buf, *via_replica as u8);
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
                Be::put_u8(&mut buf, 15);
                Be::put_u64(&mut buf, *shard_start);
                Be::put_u64(&mut buf, *shard_len);
                Be::put_u64(&mut buf, *epoch);
                Be::put_u8(&mut buf, *phase);
                Be::put_u64(&mut buf, *now_ms);
                Be::put_u64(&mut buf, *seed);
            }
            ClusterMsg::Resume { epoch, phase } => {
                Be::put_u8(&mut buf, 16);
                Be::put_u64(&mut buf, *epoch);
                Be::put_u8(&mut buf, *phase);
            }
        }
        Bytes::from(buf)
    }

    /// Decodes a message previously produced by [`ClusterMsg::encode`];
    /// `None` for malformed input, a version mismatch, or bytes left over
    /// after the message.
    pub fn decode(data: Bytes) -> Option<ClusterMsg> {
        let mut data = data.as_slice();
        if Be::u16(&mut data)? != MAGIC || Be::u8(&mut data)? != VERSION {
            return None;
        }
        let msg = match Be::u8(&mut data)? {
            0 => ClusterMsg::Welcome {
                worker_index: Be::u32(&mut data)?,
                shard_start: Be::u64(&mut data)?,
                shard_len: Be::u64(&mut data)?,
                config: get_config(&mut data)?,
                timeline: get_timeline(&mut data)?,
                tracing: Be::u8(&mut data)? != 0,
                heartbeat_ms: Be::u64(&mut data)?,
                heal: Be::u8(&mut data)? != 0,
                kill_at_min: match Be::u8(&mut data)? {
                    0 => None,
                    1 => Some(Be::u64(&mut data)?),
                    _ => return None,
                },
            },
            1 => ClusterMsg::Hello {
                shard_start: Be::u64(&mut data)?,
                peer_addrs: get_addrs(&mut data)?,
                metrics_addr: match Be::u8(&mut data)? {
                    0 => None,
                    1 => Some(get_addr(&mut data)?),
                    _ => return None,
                },
            },
            2 => ClusterMsg::AddressBook {
                peer_addrs: get_addrs(&mut data)?,
            },
            3 => ClusterMsg::PhaseDone {
                phase: Be::u8(&mut data)?,
            },
            4 => ClusterMsg::Proceed {
                phase: Be::u8(&mut data)?,
            },
            5 => ClusterMsg::Minutes {
                samples: Be::list(&mut data, 1 << 20, 24, |data| {
                    Some((Be::u64(data)?, Be::u64(data)?, Be::u64(data)?))
                })?,
            },
            7 => ClusterMsg::TraceBatch {
                events: Be::list(&mut data, 1 << 20, TRACE_EVENT_MIN_BYTES, |data| {
                    let trace_id = Be::u64(data)?;
                    let kind = pgrid_obs::trace::intern_kind(&Be::string(data, MAX_STR)?);
                    Some(pgrid_obs::trace::TraceEvent {
                        trace_id,
                        kind,
                        peer: Be::u64(data)?,
                        virtual_ms: Be::u64(data)?,
                        wall_micros: Be::u64(data)?,
                        detail: Be::string(data, MAX_STR)?,
                    })
                })?,
            },
            8 => {
                let len = Be::count(&mut data, 1 << 26, 1)?;
                let registry = Be::bytes(&mut data, len)?.to_vec();
                ClusterMsg::MetricsSnapshot { registry }
            }
            6 => {
                let shard_start = Be::u64(&mut data)?;
                let paths = Be::paths(&mut data, MAX_LIST)?;
                let query_stats = get_aggregates(&mut data)?;
                let online_at_end = Be::u64(&mut data)?;
                let mut transport = TransportStats {
                    frames_sent: Be::u64(&mut data)?,
                    frames_delivered: Be::u64(&mut data)?,
                    bytes_sent: Be::u64(&mut data)?,
                    bytes_delivered: Be::u64(&mut data)?,
                    ..TransportStats::default()
                };
                let n_links = Be::count(&mut data, MAX_LIST, 56)?;
                for _ in 0..n_links {
                    let peer = Be::u64(&mut data)?;
                    let link = LinkStats {
                        frames_sent: Be::u64(&mut data)?,
                        bytes_sent: Be::u64(&mut data)?,
                        frames_received: Be::u64(&mut data)?,
                        bytes_received: Be::u64(&mut data)?,
                        reconnects: Be::u64(&mut data)?,
                        send_failures: Be::u64(&mut data)?,
                    };
                    transport.per_peer.insert(peer, link);
                }
                if Be::u8(&mut data)? != 0 {
                    transport.reactor = Some(ReactorStats {
                        registered_peers: Be::u64(&mut data)?,
                        registered_fds: Be::u64(&mut data)?,
                        epoll_wakeups: Be::u64(&mut data)?,
                        write_queue_frames: Be::u64(&mut data)?,
                        write_queue_bytes: Be::u64(&mut data)?,
                        partial_writes: Be::u64(&mut data)?,
                        reconnects: Be::u64(&mut data)?,
                        dropped_frames: Be::u64(&mut data)?,
                    });
                }
                let messages_delivered = Be::u64(&mut data)?;
                let messages_lost = Be::u64(&mut data)?;
                let extra_paths = Be::list(&mut data, MAX_LIST, 8 + PATH_BYTES, |data| {
                    Some((Be::u64(data)?, Be::path(data)?))
                })?;
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
                epoch: Be::u64(&mut data)?,
            },
            10 => ClusterMsg::ShardPaths {
                shard_start: Be::u64(&mut data)?,
                paths: Be::paths(&mut data, MAX_LIST)?,
            },
            11 => ClusterMsg::WorkerFailed {
                epoch: Be::u64(&mut data)?,
                worker_index: Be::u32(&mut data)?,
                shard_start: Be::u64(&mut data)?,
                shard_len: Be::u64(&mut data)?,
            },
            12 => ClusterMsg::ShardReassign {
                epoch: Be::u64(&mut data)?,
                moves: Be::list(&mut data, MAX_LIST, 20 + PATH_BYTES, |data| {
                    Some(ReassignMove {
                        peer: Be::u64(data)?,
                        to_worker: Be::u32(data)?,
                        source_peer: Be::u64(data)?,
                        path: Be::path(data)?,
                    })
                })?,
            },
            13 => ClusterMsg::RecoveryAddrs {
                epoch: Be::u64(&mut data)?,
                peer_addrs: get_addrs(&mut data)?,
            },
            14 => ClusterMsg::RecoveryDone {
                epoch: Be::u64(&mut data)?,
                recovered: Be::list(&mut data, MAX_LIST, 9, |data| {
                    Some((Be::u64(data)?, Be::u8(data)? != 0))
                })?,
            },
            15 => ClusterMsg::Rejoin {
                shard_start: Be::u64(&mut data)?,
                shard_len: Be::u64(&mut data)?,
                epoch: Be::u64(&mut data)?,
                phase: Be::u8(&mut data)?,
                now_ms: Be::u64(&mut data)?,
                seed: Be::u64(&mut data)?,
            },
            16 => ClusterMsg::Resume {
                epoch: Be::u64(&mut data)?,
                phase: Be::u8(&mut data)?,
            },
            _ => return None,
        };
        data.is_empty().then_some(msg)
    }

    /// Checks every peer id and shard range the message carries against
    /// the run's population.  Both sides index per-peer tables with these
    /// values, so the receive paths call this before acting on a message;
    /// a violation is `InvalidData`, never a panic.
    ///
    /// A `Welcome` is checked against the population its own `config`
    /// names (the worker receiving it knows no other, so `n_peers` is not
    /// read): a shard inside it, at most `MAX_LIST` peers holding at most
    /// `16 × MAX_LIST` keys in all, `1 ≤ n_min ≤ n_peers`, a positive
    /// storage bound, a loss probability in `[0, 1]`, a kill minute and
    /// timeline minutes that still fit in milliseconds, and a query
    /// timeout that still fits past the last of them.
    pub fn check_ranges(&self, n_peers: usize) -> std::io::Result<()> {
        let n = n_peers as u64;
        let shard = |start: u64, len: u64| start.checked_add(len).is_some_and(|end| end <= n);
        let addrs = |addrs: &[(u64, SocketAddr)]| addrs.iter().all(|&(peer, _)| peer < n);
        let ok = match self {
            ClusterMsg::Welcome {
                shard_start,
                shard_len,
                config,
                timeline,
                kill_at_min,
                ..
            } => {
                let minutes = [
                    timeline.join_end_min,
                    timeline.replicate_end_min,
                    timeline.construct_end_min,
                    timeline.range_end_min,
                    timeline.query_end_min,
                    timeline.end_min,
                ];
                let last_ms = minutes.iter().max().and_then(|m| m.checked_mul(MINUTE_MS));
                config.n_peers <= MAX_LIST
                    && config
                        .n_peers
                        .checked_mul(config.keys_per_peer)
                        .is_some_and(|keys| keys <= 16 * MAX_LIST)
                    && (1..=config.n_peers).contains(&config.n_min)
                    && config.delta_max != Some(0)
                    && (0.0..=1.0).contains(&config.loss_probability)
                    && shard_start
                        .checked_add(*shard_len)
                        .is_some_and(|end| end <= config.n_peers as u64)
                    && kill_at_min
                        .iter()
                        .chain(&minutes)
                        .all(|&m| m <= u64::MAX / MINUTE_MS)
                    && last_ms.is_some_and(|ms| ms.checked_add(config.query_timeout_ms).is_some())
            }
            ClusterMsg::Hello {
                shard_start,
                peer_addrs,
                ..
            } => shard(*shard_start, peer_addrs.len() as u64) && addrs(peer_addrs),
            ClusterMsg::AddressBook { peer_addrs }
            | ClusterMsg::RecoveryAddrs { peer_addrs, .. } => addrs(peer_addrs),
            ClusterMsg::Report(report) => {
                let hosted = report.paths.len() + report.extra_paths.len();
                shard(report.shard_start, report.paths.len() as u64)
                    && report.extra_paths.iter().all(|&(peer, _)| peer < n)
                    && report.online_at_end <= hosted as u64
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

/// Most elements a per-peer list (paths, addresses, moves) may claim.
const MAX_LIST: usize = 1 << 24;
/// Longest string (a trace event's kind or detail) in bytes.
const MAX_STR: usize = 1 << 16;
/// Shortest encoded trace event: four words and two empty strings.
const TRACE_EVENT_MIN_BYTES: usize = 4 * 8 + 2 * 4;

fn put_config(buf: &mut Vec<u8>, config: &NetConfig) {
    Be::put_u64(buf, config.n_peers as u64);
    Be::put_u64(buf, config.keys_per_peer as u64);
    Be::put_u64(buf, config.n_min as u64);
    match config.delta_max {
        Some(d) => {
            Be::put_u8(buf, 1);
            Be::put_u64(buf, d as u64);
        }
        None => Be::put_u8(buf, 0),
    }
    Be::put_u64(buf, config.latency_min_ms);
    Be::put_u64(buf, config.latency_max_ms);
    Be::put_f64(buf, config.loss_probability);
    Be::put_u64(buf, config.query_timeout_ms);
    Be::put_u64(buf, config.seed);
    match config.distribution {
        Distribution::Uniform => Be::put_u8(buf, 0),
        Distribution::Pareto { shape } => {
            Be::put_u8(buf, 1);
            Be::put_f64(buf, shape);
        }
        Distribution::Normal { mean, std_dev } => {
            Be::put_u8(buf, 2);
            Be::put_f64(buf, mean);
            Be::put_f64(buf, std_dev);
        }
        Distribution::Text {
            vocabulary,
            exponent,
        } => {
            Be::put_u8(buf, 3);
            Be::put_u64(buf, vocabulary as u64);
            Be::put_f64(buf, exponent);
        }
    }
    Be::put_u8(buf, config.route_cache as u8);
    Be::put_u64(buf, config.query_sample_cap as u64);
}

fn get_config(data: &mut &[u8]) -> Option<NetConfig> {
    let n_peers = Be::u64(data)? as usize;
    let keys_per_peer = Be::u64(data)? as usize;
    let n_min = Be::u64(data)? as usize;
    let delta_max = if Be::u8(data)? != 0 {
        Some(Be::u64(data)? as usize)
    } else {
        None
    };
    let latency_min_ms = Be::u64(data)?;
    let latency_max_ms = Be::u64(data)?;
    let loss_probability = Be::f64(data)?;
    let query_timeout_ms = Be::u64(data)?;
    let seed = Be::u64(data)?;
    let distribution = match Be::u8(data)? {
        0 => Distribution::Uniform,
        1 => Distribution::Pareto {
            shape: Be::f64(data)?,
        },
        2 => Distribution::Normal {
            mean: Be::f64(data)?,
            std_dev: Be::f64(data)?,
        },
        3 => Distribution::Text {
            vocabulary: Be::u64(data)? as usize,
            exponent: Be::f64(data)?,
        },
        _ => return None,
    };
    let route_cache = Be::u8(data)? != 0;
    let query_sample_cap = Be::u64(data)? as usize;
    Some(NetConfig {
        n_peers,
        keys_per_peer,
        n_min,
        delta_max,
        latency_min_ms,
        latency_max_ms,
        loss_probability,
        query_timeout_ms,
        seed,
        distribution,
        route_cache,
        query_sample_cap,
    })
}

fn put_aggregates(buf: &mut Vec<u8>, stats: &QueryAggregates) {
    Be::put_u64(buf, stats.issued);
    Be::put_u64(buf, stats.answered);
    Be::put_u64(buf, stats.succeeded);
    Be::put_u64(buf, stats.timed_out);
    Be::put_u64(buf, stats.late_responses);
    Be::put_u64(buf, stats.hops_sum_successful);
    Be::put_histogram(buf, &stats.latency);
    Be::put_u64(buf, stats.ranges_issued);
    Be::put_u64(buf, stats.ranges_complete);
    Be::put_histogram(buf, &stats.range_latency);
    Be::put_count(buf, stats.per_minute.len());
    for (minute, bucket) in &stats.per_minute {
        Be::put_u64(buf, *minute);
        Be::put_u64(buf, bucket.count);
        Be::put_f64(buf, bucket.sum_s);
        Be::put_f64(buf, bucket.sum_sq_s);
    }
}

fn get_aggregates(data: &mut &[u8]) -> Option<QueryAggregates> {
    let issued = Be::u64(data)?;
    let answered = Be::u64(data)?;
    let succeeded = Be::u64(data)?;
    let timed_out = Be::u64(data)?;
    let late_responses = Be::u64(data)?;
    let hops_sum_successful = Be::u64(data)?;
    let latency = Be::histogram(data)?;
    let ranges_issued = Be::u64(data)?;
    let ranges_complete = Be::u64(data)?;
    let range_latency = Be::histogram(data)?;
    let n_minutes = Be::count(data, MAX_LIST, 32)?;
    let mut per_minute = std::collections::BTreeMap::new();
    for _ in 0..n_minutes {
        let minute = Be::u64(data)?;
        per_minute.insert(
            minute,
            MinuteLatency {
                count: Be::u64(data)?,
                sum_s: Be::f64(data)?,
                sum_sq_s: Be::f64(data)?,
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

fn put_timeline(buf: &mut Vec<u8>, timeline: &Timeline) {
    Be::put_u64(buf, timeline.join_end_min);
    Be::put_u64(buf, timeline.replicate_end_min);
    Be::put_u64(buf, timeline.construct_end_min);
    Be::put_u64(buf, timeline.range_end_min);
    Be::put_u64(buf, timeline.query_end_min);
    Be::put_u64(buf, timeline.end_min);
}

fn get_timeline(data: &mut &[u8]) -> Option<Timeline> {
    Some(Timeline {
        join_end_min: Be::u64(data)?,
        replicate_end_min: Be::u64(data)?,
        construct_end_min: Be::u64(data)?,
        range_end_min: Be::u64(data)?,
        query_end_min: Be::u64(data)?,
        end_min: Be::u64(data)?,
    })
}

fn put_addr(buf: &mut Vec<u8>, addr: &SocketAddr) {
    match addr.ip() {
        IpAddr::V4(ip) => {
            Be::put_u8(buf, 4);
            buf.put(&ip.octets());
        }
        IpAddr::V6(ip) => {
            Be::put_u8(buf, 6);
            buf.put(&ip.octets());
        }
    }
    Be::put_u16(buf, addr.port());
}

fn get_addr(data: &mut &[u8]) -> Option<SocketAddr> {
    let ip: IpAddr = match Be::u8(data)? {
        4 => Ipv4Addr::from(<[u8; 4]>::try_from(Be::bytes(data, 4)?).ok()?).into(),
        6 => Ipv6Addr::from(<[u8; 16]>::try_from(Be::bytes(data, 16)?).ok()?).into(),
        _ => return None,
    };
    let port = Be::u16(data)?;
    Some(SocketAddr::new(ip, port))
}

fn put_addrs(buf: &mut Vec<u8>, addrs: &[(u64, SocketAddr)]) {
    Be::put_count(buf, addrs.len());
    for (peer, addr) in addrs {
        Be::put_u64(buf, *peer);
        put_addr(buf, addr);
    }
}

fn get_addrs(data: &mut &[u8]) -> Option<Vec<(u64, SocketAddr)>> {
    // The shortest entry is a peer id plus an IPv4 address.
    Be::list(data, MAX_LIST, 8 + 1 + 4 + 2, |data| {
        Some((Be::u64(data)?, get_addr(data)?))
    })
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
        roundtrip(ClusterMsg::Report(ShardReport {
            shard_start: 32,
            paths: vec![Path::root(), Path::parse("0110"), Path::parse("1")],
            query_stats: primary,
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
    fn every_distribution_variant_survives_the_config_codec() {
        for distribution in Distribution::paper_suite() {
            roundtrip(ClusterMsg::Welcome {
                worker_index: 0,
                shard_start: 0,
                shard_len: 8,
                config: NetConfig {
                    distribution,
                    ..NetConfig::default()
                },
                timeline: Timeline::default(),
                tracing: false,
                heartbeat_ms: 0,
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
        let data = [&[1u8, 0, 0, 0][..], &[0u8; 9][..]].concat();
        assert_eq!(Be::count(&mut &data[..], 1 << 24, PATH_BYTES), None);
        let data = [&[0u8, 0, 0, 1][..], &[0u8; 9][..]].concat();
        assert_eq!(Be::count(&mut &data[..], 1 << 24, PATH_BYTES), Some(1));
        let data = [&[0u8, 0, 0, 2][..], &[0u8; 9][..]].concat();
        assert_eq!(
            Be::count(&mut &data[..], 1, PATH_BYTES),
            None,
            "over the cap"
        );
    }

    #[test]
    fn a_report_histogram_of_full_buckets_decodes_and_merges_without_overflow() {
        let report = ClusterMsg::Report(ShardReport {
            shard_start: 0,
            paths: Vec::new(),
            query_stats: QueryAggregates::default(),
            online_at_end: 0,
            transport: TransportStats::default(),
            messages_delivered: 0,
            messages_lost: 0,
            extra_paths: Vec::new(),
        });
        // The latency histogram sits behind the header (4), the shard start,
        // the path count and six counters; give it two buckets of
        // `u64::MAX`, which nothing in the format forbids.
        let mut bytes = report.encode().as_slice().to_vec();
        let at = 4 + 8 + 4 + 6 * 8;
        assert_eq!(bytes[at..at + 4], [0, 0, 0, 0]);
        bytes[at + 3] = 2;
        let buckets = [[0, 3], [0, 9]].map(|bucket| [&bucket[..], &[0xFF; 8]].concat());
        bytes.splice(at + 4..at + 4, buckets.concat());
        let Some(ClusterMsg::Report(decoded)) = ClusterMsg::decode(Bytes::from(bytes)) else {
            panic!("the hostile report is well-formed");
        };
        let mut merged = decoded.query_stats.clone();
        merged.merge(&decoded.query_stats);
        assert_eq!(merged.latency.total(), u64::MAX);
        assert!(format!("{merged:?}").contains("p99"));
    }

    #[test]
    fn ids_and_ranges_outside_the_population_are_invalid_data() {
        let addr: SocketAddr = "127.0.0.1:4000".parse().unwrap();
        let report = |shard_start, n_paths, extra| {
            ClusterMsg::Report(ShardReport {
                shard_start,
                paths: vec![Path::root(); n_paths],
                query_stats: QueryAggregates::default(),
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
        let welcome_with = |shard_start, config, kill_at_min, end_min| ClusterMsg::Welcome {
            worker_index: 0,
            shard_start,
            shard_len: 4,
            config,
            timeline: Timeline {
                end_min,
                ..Timeline::default()
            },
            tracing: false,
            heartbeat_ms: 0,
            heal: false,
            kill_at_min,
        };
        let welcome = |shard_start, n_peers, kill_at_min, end_min| {
            let config = NetConfig {
                n_peers,
                ..NetConfig::default()
            };
            welcome_with(shard_start, config, kill_at_min, end_min)
        };
        // An 8-peer config, checked at shard 4 and a 120-minute timeline
        // unless `end_min` says otherwise.
        let config = |keys_per_peer, n_min, query_timeout_ms| NetConfig {
            n_peers: 8,
            keys_per_peer,
            n_min,
            query_timeout_ms,
            ..NetConfig::default()
        };
        let with_config = |config| welcome_with(4, config, None, 120);
        let last_minute = u64::MAX / MINUTE_MS;
        let timeout_fits = u64::MAX - last_minute * MINUTE_MS;
        let cases = [
            // A Welcome is checked against its own `config.n_peers`.
            (welcome(4, 8, None, 120), welcome(5, 8, None, 120)),
            (welcome(4, 8, None, 120), welcome(u64::MAX, 8, None, 120)),
            (
                welcome(0, MAX_LIST, None, 120),
                welcome(0, MAX_LIST + 1, None, 120),
            ),
            (
                welcome(4, 8, Some(last_minute), 120),
                welcome(4, 8, Some(last_minute + 1), 120),
            ),
            (
                welcome(4, 8, None, last_minute),
                welcome(4, 8, None, last_minute + 1),
            ),
            // The rest of a Welcome's config: the key total, the
            // replication factor, the storage bound, the loss probability
            // and the query timeout past the last timeline minute.
            (
                with_config(config(2 * MAX_LIST, 5, 0)),
                with_config(config(2 * MAX_LIST + 1, 5, 0)),
            ),
            (
                with_config(config(10, 5, 0)),
                with_config(config(usize::MAX, 5, 0)),
            ),
            (with_config(config(10, 8, 0)), with_config(config(10, 9, 0))),
            (with_config(config(10, 1, 0)), with_config(config(10, 0, 0))),
            (
                with_config(NetConfig {
                    delta_max: Some(1),
                    ..config(10, 5, 0)
                }),
                with_config(NetConfig {
                    delta_max: Some(0),
                    ..config(10, 5, 0)
                }),
            ),
            (
                with_config(NetConfig {
                    loss_probability: 1.0,
                    ..config(10, 5, 0)
                }),
                with_config(NetConfig {
                    loss_probability: f64::NAN,
                    ..config(10, 5, 0)
                }),
            ),
            (
                welcome_with(4, config(10, 5, timeout_fits), None, last_minute),
                welcome_with(4, config(10, 5, timeout_fits + 1), None, last_minute),
            ),
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
