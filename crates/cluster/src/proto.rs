//! Rendezvous wire protocol between the coordinator and its workers.
//!
//! The control plane is deliberately tiny: one TCP connection per worker,
//! carrying [`ClusterMsg`]s as single-payload frames (the same
//! length-prefixed framing the data plane uses, so both sides reuse
//! [`pgrid_transport::frame::FrameReader`] for reassembly).  The order the
//! messages travel in is in the [crate docs](crate).
//!
//! Like the peer protocol, the format is big-endian and written with the
//! workspace's one codec kit ([`pgrid_core::wire`]): one listing per
//! message, struct and enum names its fields once, in wire order, and
//! [`pgrid_core::wire_codec!`] writes the encoder and the decoder from it.
//! The listings of the types other crates own (the run configuration, the
//! reports' statistics, trace events) live here too, under this module's
//! [`Control`] order.  Only [`ClusterMsg::check_ranges`], the semantic
//! bounds, is written by hand.  A leading magic/version pair makes a stale
//! worker fail loudly instead of mis-parsing.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing,
        clippy::arithmetic_side_effects
    )
)]

use bytes::Bytes;
use pgrid_core::path::Path;
use pgrid_core::wire::{Be, Capped, Order, Sink, Wire, UNCAPPED};
use pgrid_core::wire_codec;
use pgrid_net::runtime::{MinuteLatency, NetConfig, QueryAggregates};
use pgrid_obs::trace::{intern_kind, TraceEvent};
use pgrid_scenario::deployment::Timeline;
use pgrid_scenario::scenario::MINUTE_MS;
use pgrid_transport::frame::{decode_frame, encode_frame, FrameReader};
use pgrid_transport::{ReactorStats, TransportStats};
use pgrid_workload::distributions::Distribution;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Protocol magic, checked on every message.
const MAGIC: u16 = 0x5047; // "PG"
/// Protocol version; bump on any wire-format change (one binary speaks
/// exactly one version).
const VERSION: u8 = 13;

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
    /// The worker's transport counters and reactor block; the coordinator
    /// folds the shards together with [`TransportStats::merge`].
    pub transport: TransportStats,
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
        /// Fault injection: virtual minute at which this worker must kill
        /// its own process (`None` for all workers of a healthy run).
        kill_at_min: Option<u64>,
    },
    /// Worker → coordinator: where the shard's peers are reachable.
    Hello {
        /// First peer id of the shard (echo of the assignment).
        shard_start: u64,
        /// Number of peers in the shard (echo of the assignment).
        shard_len: u64,
        /// The one listen address every hosted peer is reached at; the
        /// coordinator expands it into the per-peer address book.
        listen: SocketAddr,
        /// Address of the worker's `/metrics` scrape endpoint, when one
        /// is serving.
        metrics_addr: Option<SocketAddr>,
    },
    /// Coordinator → worker: the address book of the whole cluster, sent
    /// after the rendezvous and again after every change of host.
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
        events: Vec<TraceEvent>,
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
    /// Worker → coordinator: periodic liveness signal.
    Heartbeat,
    /// Worker → coordinator: current paths of the originally assigned
    /// shard, sent at every barrier — the coordinator's raw material for
    /// replica hints and partial reports.
    ShardPaths {
        /// First peer id of the shard.
        shard_start: u64,
        /// Current path of every originally hosted peer, in shard order.
        paths: Vec<Path>,
    },
    /// Coordinator → workers: a new membership epoch and how the orphaned
    /// peers of the dead workers are redistributed.  Every worker receives
    /// the full move list and adopts the moves targeting its own index; the
    /// `AddressBook` that follows says where the adopted peers are
    /// reachable now.
    ShardReassign {
        /// The membership epoch these moves belong to.
        epoch: u64,
        /// One entry per orphaned peer.
        moves: Vec<ReassignMove>,
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
        Control::put_u16(&mut buf, MAGIC);
        Control::put_u8(&mut buf, VERSION);
        Control::put(&mut buf, self);
        Bytes::from(buf)
    }

    /// Decodes a message previously produced by [`ClusterMsg::encode`];
    /// `None` for malformed input, a version mismatch, or bytes left over
    /// after the message.
    pub fn decode(data: Bytes) -> Option<ClusterMsg> {
        let mut data = data.as_slice();
        if Control::u16(&mut data)? != MAGIC || Control::u8(&mut data)? != VERSION {
            return None;
        }
        let msg = Control::get(&mut data)?;
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
            ClusterMsg::AddressBook { peer_addrs } => peer_addrs.iter().all(|&(peer, _)| peer < n),
            ClusterMsg::Report(report) => {
                let hosted = report.paths.len().saturating_add(report.extra_paths.len());
                shard(report.shard_start, report.paths.len() as u64)
                    && report.extra_paths.iter().all(|&(peer, _)| peer < n)
                    && report.online_at_end <= hosted as u64
            }
            ClusterMsg::ShardPaths { shard_start, paths } => {
                shard(*shard_start, paths.len() as u64)
            }
            ClusterMsg::Hello {
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

/// The control protocol's byte order: big-endian like [`Be`], but a type
/// of this crate, so the codecs of the types other crates own (the run
/// configuration, the reports' statistics, trace events) live here, next
/// to the messages that carry them.
#[derive(Clone, Copy)]
pub enum Control {}

impl Order for Control {
    const BIG_ENDIAN: bool = Be::BIG_ENDIAN;
}

wire_codec! {
    enum ClusterMsg in Control {
        0 => Welcome {
            worker_index, shard_start, shard_len, config, timeline, tracing,
            heartbeat_ms, kill_at_min,
        },
        1 => Hello { shard_start, shard_len, listen, metrics_addr },
        2 => AddressBook { peer_addrs [MAX_LIST] },
        3 => PhaseDone { phase },
        4 => Proceed { phase },
        5 => Minutes { samples [1 << 20] },
        6 => Report(report),
        7 => TraceBatch { events [1 << 20] },
        8 => MetricsSnapshot { registry [1 << 26] },
        9 => Heartbeat,
        10 => ShardPaths { shard_start, paths [MAX_LIST] },
        11 => ShardReassign { epoch, moves [MAX_LIST] },
        12 => RecoveryDone { epoch, recovered [MAX_LIST] },
        13 => Rejoin { shard_start, shard_len, epoch, phase, now_ms, seed },
        14 => Resume { epoch, phase },
    }

    struct ShardReport in Control {
        shard_start, paths [MAX_LIST], query_stats, online_at_end, transport,
        extra_paths [MAX_LIST],
    }

    struct ReassignMove in Control { peer, to_worker, source_peer, path }

    struct NetConfig in Control {
        n_peers, keys_per_peer, n_min, delta_max, latency_min_ms, latency_max_ms,
        loss_probability, query_timeout_ms, seed, distribution, route_cache,
        query_sample_cap,
    }

    enum Distribution in Control {
        0 => Uniform,
        1 => Pareto { shape },
        2 => Normal { mean, std_dev },
        3 => Text { vocabulary, exponent },
    }

    struct Timeline in Control {
        join_end_min, replicate_end_min, construct_end_min, range_end_min,
        query_end_min, end_min,
    }

    struct QueryAggregates in Control {
        issued, answered, succeeded, timed_out, late_responses, hops_sum_successful,
        latency, ranges_issued, ranges_complete, range_latency, per_minute [MAX_LIST],
    }

    struct MinuteLatency in Control { count, sum_s, sum_sq_s }

    struct TransportStats in Control {
        frames_sent, frames_delivered, bytes_sent, bytes_delivered, reactor,
    }

    struct ReactorStats in Control {
        registered_peers, registered_fds, epoll_wakeups, write_queue_frames,
        write_queue_bytes, partial_writes, reconnects, dropped_frames,
    }

    struct TraceEvent in Control {
        trace_id, kind [MAX_STR], peer, virtual_ms, wall_micros, detail [MAX_STR],
    }
}

/// A trace event's kind: a string on the wire, interned on arrival.
impl<'a> Wire<'a, Control> for &'static str {
    const MIN_BYTES: usize = <String as Wire<'a, Control>>::MIN_BYTES;
    fn put<S: Sink>(&self, sink: &mut S) {
        Control::put_count(sink, self.len());
        sink.put(self.as_bytes());
    }
    fn get(data: &mut &'a [u8]) -> Option<Self> {
        Self::get_capped(data, UNCAPPED)
    }
}

impl<'a> Capped<'a, Control> for &'static str {
    fn get_capped(data: &mut &'a [u8], cap: usize) -> Option<Self> {
        let kind: String = Control::get_capped(data, cap)?;
        Some(intern_kind(&kind))
    }
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
                self.reader.extend(buf.get(..n).unwrap_or_default());
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
        // A timeout past the clock's range never expires.
        let deadline = Instant::now().checked_add(timeout);
        loop {
            if let Some(msg) = self.try_recv()? {
                return Ok(msg);
            }
            if deadline.is_some_and(|deadline| Instant::now() >= deadline) {
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
    use pgrid_core::key::DataEntry;
    use pgrid_core::routing::PeerId;
    use pgrid_core::wire::PATH_BYTES;

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
            kill_at_min: Some(10),
        });
        roundtrip(ClusterMsg::Hello {
            shard_start: 0,
            shard_len: 16,
            listen: "127.0.0.1:4000".parse().unwrap(),
            metrics_addr: Some("127.0.0.1:9100".parse().unwrap()),
        });
        roundtrip(ClusterMsg::Hello {
            shard_start: 16,
            shard_len: 16,
            listen: "[::1]:4016".parse().unwrap(),
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
            extra_paths: vec![(3, Path::parse("011")), (9, Path::root())],
        }));
        roundtrip(ClusterMsg::Heartbeat);
        roundtrip(ClusterMsg::ShardPaths {
            shard_start: 16,
            paths: vec![Path::parse("01"), Path::root(), Path::parse("110")],
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
    fn a_flag_byte_other_than_zero_or_one_is_refused() {
        let config = |delta_max, route_cache| NetConfig {
            delta_max,
            route_cache,
            ..NetConfig::default()
        };
        let welcome = |config, tracing, kill_at_min| ClusterMsg::Welcome {
            worker_index: 0,
            shard_start: 0,
            shard_len: 8,
            config,
            timeline: Timeline::default(),
            tracing,
            heartbeat_ms: 0,
            kill_at_min,
        };
        let hello = |metrics_addr| ClusterMsg::Hello {
            shard_start: 0,
            shard_len: 8,
            listen: "127.0.0.1:4000".parse().unwrap(),
            metrics_addr,
        };
        let recovered = |via_replica| ClusterMsg::RecoveryDone {
            epoch: 1,
            recovered: vec![(2, via_replica)],
        };
        let report = |reactor| {
            ClusterMsg::Report(ShardReport {
                shard_start: 0,
                paths: Vec::new(),
                query_stats: QueryAggregates::default(),
                online_at_end: 0,
                transport: TransportStats {
                    reactor,
                    ..TransportStats::default()
                },
                extra_paths: Vec::new(),
            })
        };
        let on = || config(Some(50), true);
        // Each pair differs in one flag, set in the first: `delta_max`,
        // `route_cache`, `tracing`, `kill_at_min`, the metrics address,
        // `via_replica` and the report's reactor block.
        let pairs = [
            (
                welcome(on(), true, Some(3)),
                welcome(config(None, true), true, Some(3)),
            ),
            (
                welcome(on(), true, Some(3)),
                welcome(config(Some(50), false), true, Some(3)),
            ),
            (welcome(on(), true, Some(3)), welcome(on(), false, Some(3))),
            (welcome(on(), true, Some(3)), welcome(on(), true, None)),
            (hello(Some("127.0.0.1:9100".parse().unwrap())), hello(None)),
            (recovered(true), recovered(false)),
            (report(Some(ReactorStats::default())), report(None)),
        ];
        for (set, clear) in pairs {
            let (mut bytes, clear) = (set.encode().as_slice().to_vec(), clear.encode());
            let at = bytes.iter().zip(clear.as_slice()).position(|(a, b)| a != b);
            let at = at.unwrap();
            assert_eq!(bytes[at], 1, "{set:?}");
            bytes[at] = 2;
            assert!(ClusterMsg::decode(Bytes::from(bytes)).is_none(), "{set:?}");
        }
    }

    #[test]
    fn every_list_charges_the_element_minimum_it_charged_before() {
        fn min<T: for<'a> Wire<'a, Control>>() -> usize {
            <T as Wire<'_, Control>>::MIN_BYTES
        }
        let minimums = [
            ("path", min::<Path>(), 9),
            ("entry", min::<DataEntry>(), 16),
            ("routing reference", min::<(u8, PeerId, Path)>(), 18),
            ("journal routing reference", min::<(u8, u64, Path)>(), 18),
            ("peer", min::<PeerId>(), 8),
            ("journal peer", min::<u64>(), 8),
            ("address entry", min::<(u64, SocketAddr)>(), 15),
            ("reassign move", min::<ReassignMove>(), 29),
            ("recovered pair", min::<(u64, bool)>(), 9),
            ("minute sample", min::<(u64, u64, u64)>(), 24),
            ("per-minute latency", min::<(u64, MinuteLatency)>(), 32),
            ("trace event", min::<TraceEvent>(), 40),
            ("histogram bucket", min::<(u16, u64)>(), 10),
        ];
        for (list, got, before) in minimums {
            assert_eq!(got, before, "{list}");
        }
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
        let hello = |shard_start, shard_len| ClusterMsg::Hello {
            shard_start,
            shard_len,
            listen: addr,
            metrics_addr: None,
        };
        let report = |shard_start, n_paths, extra| {
            ClusterMsg::Report(ShardReport {
                shard_start,
                paths: vec![Path::root(); n_paths],
                query_stats: QueryAggregates::default(),
                online_at_end: 0,
                transport: TransportStats::default(),
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
            (hello(4, 4), hello(5, 4)),
            (hello(0, 8), hello(u64::MAX, 2)),
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
        assert!(ClusterMsg::Heartbeat.check_ranges(0).is_ok());
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
