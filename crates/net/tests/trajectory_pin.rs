//! Pins the exact random trajectory of a loopback deployment.
//!
//! The other runtime tests assert thresholds (success rates, depth); this
//! one asserts *equality* with constants recorded once, so a refactor of
//! the runtime that moves a single RNG draw, a flush boundary or an
//! accounting line — with the route cache off or on — shows up as a diff
//! here instead of as a shifted statistic somewhere else.

use pgrid_core::index::IndexId;
use pgrid_core::key::Key;
use pgrid_net::runtime::{NetConfig, QueryAggregates, Runtime};

const PRIMARY: IndexId = IndexId::PRIMARY;

/// Everything the pin compares, in one `Debug`-printable value.
#[derive(Debug, PartialEq)]
struct Trajectory {
    messages_delivered: usize,
    messages_lost: usize,
    maintenance_bytes: usize,
    query_bytes: usize,
    /// Every peer's final path, comma-joined in peer order.
    paths: String,
    stats: Stats,
}

/// The run's [`QueryAggregates`]: its scalar counters plus a digest of the
/// two histograms and the per-minute buckets.
#[derive(Debug, PartialEq)]
struct Stats {
    /// `[issued, answered, succeeded, timed_out, late_responses,
    /// hops_sum_successful, latency sum, ranges_issued, ranges_complete,
    /// range latency sum]`
    counts: [u64; 10],
    digest: u64,
}

fn fnv(hash: &mut u64, value: u64) {
    for byte in value.to_le_bytes() {
        *hash = (*hash ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
    }
}

fn stats(agg: &QueryAggregates) -> Stats {
    let mut digest = 0xcbf2_9ce4_8422_2325;
    for histogram in [&agg.latency, &agg.range_latency] {
        for (bucket, count) in histogram.sparse_buckets() {
            fnv(&mut digest, bucket as u64);
            fnv(&mut digest, count);
        }
        fnv(&mut digest, histogram.max());
    }
    for (minute, bucket) in &agg.per_minute {
        fnv(&mut digest, *minute);
        fnv(&mut digest, bucket.count);
        fnv(&mut digest, bucket.sum_s.to_bits());
        fnv(&mut digest, bucket.sum_sq_s.to_bits());
    }
    let counts = [
        agg.issued,
        agg.answered,
        agg.succeeded,
        agg.timed_out,
        agg.late_responses,
        agg.hops_sum_successful,
        agg.latency.sum(),
        agg.ranges_issued,
        agg.ranges_complete,
        agg.range_latency.sum(),
    ];
    Stats { counts, digest }
}

/// join → replicate → construct → point lookups and 1 % ranges.
fn run(route_cache: bool) -> Trajectory {
    let mut rt = Runtime::new(NetConfig {
        n_peers: 48,
        seed: 17,
        route_cache,
        ..NetConfig::default()
    });
    for peer in 0..48 {
        rt.join_peer(peer, 4);
    }
    rt.replication_phase();
    rt.run_until(10_000);
    rt.start_construction();
    rt.run_until(400_000);

    let keys: Vec<Key> = rt
        .original_entries_of(PRIMARY)
        .iter()
        .map(|e| e.key)
        .collect();
    for i in 0..60 {
        rt.issue_query_batch_on(PRIMARY, &[keys[i * 7 % keys.len()]]);
        rt.run_until(rt.now() + 1_000);
    }
    for i in 0..12 {
        let lo = i as f64 / 12.5;
        rt.issue_range_query_on(
            PRIMARY,
            Key::from_fraction(lo),
            Key::from_fraction(lo + 0.01),
        )
        .expect("peers online");
        rt.run_until(rt.now() + 3_000);
    }
    rt.run_until(rt.now() + rt.config.query_timeout_ms * 5);

    let bandwidth = rt.metrics.bandwidth_per_minute.values();
    Trajectory {
        messages_delivered: rt.metrics.messages_delivered,
        messages_lost: rt.metrics.messages_lost,
        maintenance_bytes: bandwidth.clone().map(|b| b.maintenance_bytes).sum(),
        query_bytes: bandwidth.map(|b| b.query_bytes).sum(),
        paths: (0..rt.config.n_peers)
            .map(|peer| rt.peer_state(PRIMARY, peer).path.to_string())
            .collect::<Vec<_>>()
            .join(","),
        stats: stats(&rt.metrics.stats(PRIMARY)),
    }
}

#[test]
fn uncached_trajectory_matches_the_recorded_constants() {
    let expected = Trajectory {
        messages_delivered: 2_122,
        messages_lost: 18,
        maintenance_bytes: 1_149_889,
        query_bytes: 5_955,
        paths: "11,01,11,111,001,01,000,001,01,101,001,11,000,100,101,000,100,001,000,01,001,01,101,000,000,01,110,01,11,101,110,001,001,101,001,01,000,100,001,10,101,000,01,001,11,000,101,101"
            .into(),
        stats: Stats {
            counts: [60, 58, 52, 2, 0, 69, 20_366, 12, 12, 4_101],
            digest: 15_555_886_661_211_162_473,
        },
    };
    assert_eq!(run(false), expected);
}

#[test]
fn route_cached_trajectory_matches_the_recorded_constants() {
    let expected = Trajectory {
        messages_delivered: 2_117,
        messages_lost: 23,
        maintenance_bytes: 1_153_995,
        query_bytes: 5_921,
        paths: "11,01,11,111,001,01,000,001,01,101,001,11,000,100,101,000,100,001,000,01,001,01,101,000,000,01,110,01,110,10,110,001,001,101,001,01,000,100,001,101,101,000,01,001,11,000,101,101"
            .into(),
        stats: Stats {
            counts: [60, 57, 52, 3, 0, 59, 18_525, 12, 12, 4_018],
            digest: 7_993_781_468_759_680_013,
        },
    };
    assert_eq!(run(true), expected);
}
