//! Property tests for the control codec, over every [`ClusterMsg`] variant
//! the wire carries: encode → decode is the identity; truncated,
//! version-flipped, bit-flipped and arbitrary input is rejected or parsed
//! without a panic; a claimed element count never outruns the bytes behind
//! it; and a successful decode consumed its input exactly.

use bytes::Bytes;
use pgrid_cluster::proto::{ClusterMsg, ReassignMove, ShardReport};
use pgrid_core::path::Path;
use pgrid_net::experiment::Timeline;
use pgrid_net::runtime::{NetConfig, QueryAggregates};
use pgrid_obs::trace::{intern_kind, TraceEvent};
use pgrid_transport::{LinkStats, ReactorStats, TransportStats};
use pgrid_workload::distributions::Distribution;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr};

/// Number of [`ClusterMsg`] variants (wire tags 0..=16).
const VARIANTS: u8 = 17;

fn arbitrary_path(rng: &mut StdRng) -> Path {
    let len = rng.gen_range(0..=12);
    let mut path = Path::root();
    for _ in 0..len {
        path = path.child(rng.gen_bool(0.5));
    }
    path
}

fn arbitrary_addr(rng: &mut StdRng) -> SocketAddr {
    let ip = if rng.gen_bool(0.5) {
        let mut segments = [0u16; 8];
        for segment in &mut segments {
            *segment = rng.gen();
        }
        IpAddr::V6(Ipv6Addr::from(segments))
    } else {
        let mut octets = [0u8; 4];
        for octet in &mut octets {
            *octet = rng.gen();
        }
        IpAddr::V4(Ipv4Addr::from(octets))
    };
    SocketAddr::new(ip, rng.gen())
}

fn arbitrary_move(rng: &mut StdRng) -> ReassignMove {
    ReassignMove {
        peer: rng.gen(),
        to_worker: rng.gen(),
        source_peer: rng.gen(),
        path: arbitrary_path(rng),
    }
}

fn arbitrary_addrs(rng: &mut StdRng) -> Vec<(u64, SocketAddr)> {
    (0..rng.gen_range(0..16))
        .map(|_| (rng.gen(), arbitrary_addr(rng)))
        .collect()
}

fn arbitrary_paths(rng: &mut StdRng) -> Vec<Path> {
    (0..rng.gen_range(0..32))
        .map(|_| arbitrary_path(rng))
        .collect()
}

fn arbitrary_text(rng: &mut StdRng) -> String {
    (0..rng.gen_range(0..24))
        .map(|_| char::from(rng.gen_range(b' '..=b'~')))
        .collect()
}

fn arbitrary_config(rng: &mut StdRng) -> NetConfig {
    let suite = Distribution::paper_suite();
    NetConfig {
        n_peers: rng.gen_range(1..100_000),
        keys_per_peer: rng.gen_range(0..1_000),
        n_min: rng.gen_range(1..64),
        delta_max: rng.gen_bool(0.5).then(|| rng.gen_range(0..1_000)),
        latency_min_ms: rng.gen(),
        latency_max_ms: rng.gen(),
        loss_probability: rng.gen(),
        query_timeout_ms: rng.gen(),
        seed: rng.gen(),
        distribution: suite[rng.gen_range(0..suite.len())],
        route_cache: rng.gen_bool(0.5),
        query_sample_cap: rng.gen_range(0..1 << 20),
    }
}

fn arbitrary_aggregates(rng: &mut StdRng) -> QueryAggregates {
    let mut stats = QueryAggregates {
        issued: rng.gen(),
        answered: rng.gen(),
        succeeded: rng.gen(),
        timed_out: rng.gen(),
        late_responses: rng.gen(),
        hops_sum_successful: rng.gen(),
        ranges_issued: rng.gen(),
        ranges_complete: rng.gen(),
        ..QueryAggregates::default()
    };
    for _ in 0..rng.gen_range(0..8) {
        stats.latency.record(rng.gen_range(0..1 << 40));
        stats.range_latency.record(rng.gen_range(0..1 << 20));
        stats
            .per_minute
            .entry(rng.gen_range(0..500))
            .or_default()
            .record(rng.gen());
    }
    stats
}

fn arbitrary_report(rng: &mut StdRng) -> ShardReport {
    let link = |rng: &mut StdRng| LinkStats {
        frames_sent: rng.gen(),
        bytes_sent: rng.gen(),
        frames_received: rng.gen(),
        bytes_received: rng.gen(),
        reconnects: rng.gen(),
        send_failures: rng.gen(),
    };
    ShardReport {
        shard_start: rng.gen(),
        paths: arbitrary_paths(rng),
        query_stats: arbitrary_aggregates(rng),
        online_at_end: rng.gen(),
        transport: TransportStats {
            frames_sent: rng.gen(),
            frames_delivered: rng.gen(),
            bytes_sent: rng.gen(),
            bytes_delivered: rng.gen(),
            per_peer: (0..rng.gen_range(0..8))
                .map(|_| (rng.gen(), link(rng)))
                .collect(),
            reactor: rng.gen_bool(0.5).then(|| ReactorStats {
                registered_peers: rng.gen(),
                registered_fds: rng.gen(),
                epoll_wakeups: rng.gen(),
                write_queue_frames: rng.gen(),
                write_queue_bytes: rng.gen(),
                partial_writes: rng.gen(),
                reconnects: rng.gen(),
                dropped_frames: rng.gen(),
            }),
        },
        messages_delivered: rng.gen(),
        messages_lost: rng.gen(),
        extra_paths: (0..rng.gen_range(0..8))
            .map(|_| (rng.gen(), arbitrary_path(rng)))
            .collect(),
    }
}

/// One random control message; `variant` cycles so every shape is
/// exercised no matter what the seed draws.
fn arbitrary_message(variant: u8, rng: &mut StdRng) -> ClusterMsg {
    match variant % VARIANTS {
        0 => ClusterMsg::Welcome {
            worker_index: rng.gen(),
            shard_start: rng.gen(),
            shard_len: rng.gen(),
            config: arbitrary_config(rng),
            timeline: Timeline {
                join_end_min: rng.gen(),
                replicate_end_min: rng.gen(),
                construct_end_min: rng.gen(),
                range_end_min: rng.gen(),
                query_end_min: rng.gen(),
                end_min: rng.gen(),
            },
            tracing: rng.gen_bool(0.5),
            heartbeat_ms: rng.gen(),
            heal: rng.gen_bool(0.5),
            kill_at_min: rng.gen_bool(0.5).then(|| rng.gen()),
        },
        1 => ClusterMsg::Hello {
            shard_start: rng.gen(),
            peer_addrs: arbitrary_addrs(rng),
            metrics_addr: rng.gen_bool(0.5).then(|| arbitrary_addr(rng)),
        },
        2 => ClusterMsg::AddressBook {
            peer_addrs: arbitrary_addrs(rng),
        },
        3 => ClusterMsg::PhaseDone { phase: rng.gen() },
        4 => ClusterMsg::Proceed { phase: rng.gen() },
        5 => ClusterMsg::Minutes {
            samples: (0..rng.gen_range(0..32))
                .map(|_| (rng.gen(), rng.gen(), rng.gen()))
                .collect(),
        },
        6 => ClusterMsg::Report(arbitrary_report(rng)),
        7 => ClusterMsg::TraceBatch {
            events: (0..rng.gen_range(0..8))
                .map(|_| TraceEvent {
                    trace_id: rng.gen(),
                    kind: intern_kind(
                        ["query_issued", "query_hop", "range_slice"][rng.gen_range(0..3usize)],
                    ),
                    peer: rng.gen(),
                    virtual_ms: rng.gen(),
                    wall_micros: rng.gen(),
                    detail: arbitrary_text(rng),
                })
                .collect(),
        },
        8 => ClusterMsg::MetricsSnapshot {
            registry: (0..rng.gen_range(0..64)).map(|_| rng.gen()).collect(),
        },
        9 => ClusterMsg::Heartbeat { epoch: rng.gen() },
        10 => ClusterMsg::ShardPaths {
            shard_start: rng.gen(),
            paths: arbitrary_paths(rng),
        },
        11 => ClusterMsg::WorkerFailed {
            epoch: rng.gen(),
            worker_index: rng.gen(),
            shard_start: rng.gen(),
            shard_len: rng.gen(),
        },
        12 => ClusterMsg::ShardReassign {
            epoch: rng.gen(),
            moves: (0..rng.gen_range(0..16))
                .map(|_| arbitrary_move(rng))
                .collect(),
        },
        13 => ClusterMsg::RecoveryAddrs {
            epoch: rng.gen(),
            peer_addrs: arbitrary_addrs(rng),
        },
        14 => ClusterMsg::RecoveryDone {
            epoch: rng.gen(),
            recovered: (0..rng.gen_range(0..32))
                .map(|_| (rng.gen(), rng.gen_bool(0.5)))
                .collect(),
        },
        15 => ClusterMsg::Rejoin {
            shard_start: rng.gen(),
            shard_len: rng.gen(),
            epoch: rng.gen(),
            phase: rng.gen(),
            now_ms: rng.gen(),
            seed: rng.gen(),
        },
        _ => ClusterMsg::Resume {
            epoch: rng.gen(),
            phase: rng.gen(),
        },
    }
}

/// What every decode must satisfy, whatever the input: no panic (running
/// this is the check), and an accepted input was consumed to its last byte
/// — one more byte, or one fewer, is no longer a message.
fn assert_decode_is_exact(bytes: &[u8]) -> Result<(), TestCaseError> {
    if ClusterMsg::decode(Bytes::from(bytes.to_vec())).is_none() {
        return Ok(());
    }
    let mut longer = bytes.to_vec();
    longer.push(0);
    prop_assert!(
        ClusterMsg::decode(Bytes::from(longer)).is_none(),
        "trailing byte accepted"
    );
    let shorter = bytes[..bytes.len() - 1].to_vec();
    prop_assert!(
        ClusterMsg::decode(Bytes::from(shorter)).is_none(),
        "an accepted message had a byte to spare"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_message_variant_roundtrips(seed in any::<u64>(), variant in 0u8..VARIANTS) {
        let mut rng = StdRng::seed_from_u64(seed);
        let msg = arbitrary_message(variant, &mut rng);
        let encoded = msg.encode();
        let decoded = ClusterMsg::decode(encoded.clone());
        prop_assert_eq!(decoded.as_ref(), Some(&msg));
        assert_decode_is_exact(encoded.as_slice())?;
    }

    #[test]
    fn truncated_frames_are_rejected(
        seed in any::<u64>(),
        variant in 0u8..VARIANTS,
        cut in 0usize..1 << 20,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let msg = arbitrary_message(variant, &mut rng);
        let encoded = msg.encode();
        // Truncation anywhere strictly inside the frame must fail cleanly:
        // every strict prefix is missing at least its trailing field.
        let cut = cut % encoded.len();
        let prefix = Bytes::from(&encoded.as_slice()[..cut]);
        prop_assert!(ClusterMsg::decode(prefix).is_none());
    }

    #[test]
    fn flipped_version_is_rejected(
        seed in any::<u64>(),
        variant in 0u8..VARIANTS,
        version in 0u8..=255,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let msg = arbitrary_message(variant, &mut rng);
        let mut bytes = msg.encode().as_slice().to_vec();
        // Byte 2 is the version (after the u16 magic); any other value
        // must be rejected up front.
        if version == bytes[2] {
            return Ok(());
        }
        bytes[2] = version;
        prop_assert!(ClusterMsg::decode(Bytes::from(bytes)).is_none());
    }

    #[test]
    fn single_bit_flips_never_panic_and_never_leave_bytes_over(
        seed in any::<u64>(),
        variant in 0u8..VARIANTS,
        bit in 0usize..1 << 24,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bytes = arbitrary_message(variant, &mut rng).encode().as_slice().to_vec();
        let bit = bit % (bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        assert_decode_is_exact(&bytes)?;
    }

    #[test]
    fn arbitrary_bytes_never_panic_and_never_leave_bytes_over(
        tag in 0u8..VARIANTS + 2,
        body in proptest::collection::vec(any::<u8>(), 0..256),
        with_header in any::<bool>(),
    ) {
        // Half the cases get a valid header and a plausible tag, so the
        // garbage reaches the field decoders instead of dying at the magic.
        let version = ClusterMsg::Heartbeat { epoch: 0 }.encode().as_slice()[2];
        let mut bytes = if with_header { vec![0x50, 0x47, version, tag] } else { Vec::new() };
        bytes.extend(body);
        assert_decode_is_exact(&bytes)?;
    }

    #[test]
    fn a_claimed_count_never_outruns_the_input(
        seed in any::<u64>(),
        variant in 0u8..VARIANTS,
        claimed in 1u32..=u32::MAX,
    ) {
        // Every message that leads with an element count (after an
        // optional u64): claim `claimed` more elements than were encoded
        // and append nothing.  The decoder must refuse it — before
        // reserving room for the claim, which `proto`'s own unit test of
        // the count reader pins.
        let mut rng = StdRng::seed_from_u64(seed);
        let msg = arbitrary_message(variant, &mut rng);
        let count_at = match msg {
            ClusterMsg::AddressBook { .. }
            | ClusterMsg::Minutes { .. }
            | ClusterMsg::TraceBatch { .. }
            | ClusterMsg::MetricsSnapshot { .. } => 4,
            ClusterMsg::Hello { .. }
            | ClusterMsg::Report(_)
            | ClusterMsg::ShardPaths { .. }
            | ClusterMsg::ShardReassign { .. }
            | ClusterMsg::RecoveryAddrs { .. }
            | ClusterMsg::RecoveryDone { .. } => 12,
            _ => return Ok(()),
        };
        let mut bytes = msg.encode().as_slice().to_vec();
        let field: [u8; 4] = bytes[count_at..count_at + 4].try_into().unwrap();
        let Some(inflated) = u32::from_be_bytes(field).checked_add(claimed) else {
            return Ok(());
        };
        bytes[count_at..count_at + 4].copy_from_slice(&inflated.to_be_bytes());
        prop_assert!(ClusterMsg::decode(Bytes::from(bytes)).is_none());
    }
}

/// The wire bytes of a fixed, seeded sample of every variant, folded into
/// one FNV-1a hash: a refactor of the control plane must leave `encode`
/// byte-identical, and a deliberate wire change (with its `VERSION` bump)
/// re-records the constant.
#[test]
fn encoded_bytes_are_pinned() {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for seed in 0..8 {
        for variant in 0..VARIANTS {
            let mut rng = StdRng::seed_from_u64(seed);
            for &byte in arbitrary_message(variant, &mut rng).encode().as_slice() {
                hash = (hash ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    assert_eq!(
        hash, 14_581_903_957_675_428_075,
        "control wire bytes changed"
    );
}
