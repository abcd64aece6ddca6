//! Pins the exact random trajectory of a two-index loopback deployment.
//!
//! The other multi-index tests assert thresholds (success rates, depth);
//! this one asserts *equality* with constants recorded once, so a refactor
//! of the runtime that moves a single RNG draw, a flush boundary or an
//! accounting line on either index — with the route cache off or on —
//! shows up as a diff here instead of as a shifted statistic somewhere
//! else.  Only the `IndexId`-qualified public API is used.

use pgrid_core::index::IndexId;
use pgrid_core::key::Key;
use pgrid_net::runtime::{NetConfig, QueryAggregates, Runtime};
use pgrid_workload::distributions::Distribution;

const SECONDARY: IndexId = IndexId(1);

/// Everything the pin compares, in one `Debug`-printable value.
#[derive(Debug, PartialEq)]
struct Trajectory {
    messages_delivered: usize,
    messages_lost: usize,
    maintenance_bytes: usize,
    query_bytes: usize,
    /// Every peer's final path, comma-joined in peer order.
    primary_paths: String,
    secondary_paths: String,
    primary_stats: Stats,
    secondary_stats: Stats,
}

/// One index's [`QueryAggregates`]: its scalar counters plus a digest of
/// the two histograms and the per-minute buckets.
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

fn paths(rt: &Runtime, index: IndexId) -> String {
    (0..rt.config.n_peers)
        .map(|peer| rt.peer_state(index, peer).path.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

/// join → replicate → construct both indexes → point lookups and 1 %
/// ranges on both.
fn run(route_cache: bool) -> Trajectory {
    let mut rt = Runtime::new(NetConfig {
        n_peers: 48,
        seed: 17,
        route_cache,
        ..NetConfig::default()
    });
    rt.register_index(SECONDARY, &Distribution::Uniform);
    for peer in 0..48 {
        rt.join_peer(peer, 4);
    }
    for index in [IndexId::PRIMARY, SECONDARY] {
        rt.replication_phase_on(index);
    }
    rt.run_until(10_000);
    for index in [IndexId::PRIMARY, SECONDARY] {
        rt.start_construction_on(index);
    }
    rt.run_until(400_000);

    for index in [IndexId::PRIMARY, SECONDARY] {
        let keys: Vec<Key> = rt
            .original_entries_of(index)
            .iter()
            .map(|e| e.key)
            .collect();
        for i in 0..60 {
            rt.issue_query_on(index, keys[i * 7 % keys.len()]);
            rt.run_until(rt.now() + 1_000);
        }
        for i in 0..12 {
            let lo = i as f64 / 12.5;
            rt.issue_range_query_on(index, Key::from_fraction(lo), Key::from_fraction(lo + 0.01))
                .expect("peers online");
            rt.run_until(rt.now() + 3_000);
        }
    }
    rt.run_until(rt.now() + rt.config.query_timeout_ms * 5);

    let bandwidth = rt.metrics.bandwidth_per_minute.values();
    Trajectory {
        messages_delivered: rt.metrics.messages_delivered,
        messages_lost: rt.metrics.messages_lost,
        maintenance_bytes: bandwidth.clone().map(|b| b.maintenance_bytes).sum(),
        query_bytes: bandwidth.map(|b| b.query_bytes).sum(),
        primary_paths: paths(&rt, IndexId::PRIMARY),
        secondary_paths: paths(&rt, SECONDARY),
        primary_stats: stats(&rt.metrics.stats(IndexId::PRIMARY)),
        secondary_stats: stats(&rt.metrics.stats(SECONDARY)),
    }
}

#[test]
fn uncached_trajectory_matches_the_recorded_constants() {
    let expected = Trajectory {
        messages_delivered: 4_526,
        messages_lost: 50,
        maintenance_bytes: 2_341_254,
        query_bytes: 13_948,
        primary_paths: "000,110,000,001,111,110,100,101,101,101,110,101,000,100,01,101,001,100,110,101,101,000,001,01,100,01,01,101,01,01,111,100,100,101,000,110,001,110,01,100,000,100,100,000,01,101,001,111"
            .into(),
        secondary_paths: "101,101,011,110,010,110,001,100,101,111,110,100,111,111,100,000,100,010,011,00,111,101,111,000,011,110,010,100,011,110,101,000,101,010,110,100,00,001,110,000,011,010,101,011,010,011,101,001"
            .into(),
        primary_stats: Stats {
            counts: [60, 60, 59, 0, 0, 81, 20_145, 12, 12, 24_266],
            digest: 7_916_621_807_456_592_890,
        },
        secondary_stats: Stats {
            counts: [60, 58, 56, 2, 0, 96, 22_323, 12, 12, 3_758],
            digest: 13_669_033_832_855_757_301,
        },
    };
    assert_eq!(run(false), expected);
}

#[test]
fn route_cached_trajectory_matches_the_recorded_constants() {
    let expected = Trajectory {
        messages_delivered: 4_650,
        messages_lost: 53,
        maintenance_bytes: 2_350_379,
        query_bytes: 17_452,
        primary_paths: "000,110,000,001,111,11,100,101,101,101,110,101,000,100,01,101,001,100,110,101,101,000,001,01,100,01,01,101,01,01,111,100,100,101,000,11,001,110,01,100,000,100,100,000,01,101,001,110"
            .into(),
        secondary_paths: "101,101,011,110,010,110,001,100,10,111,110,100,111,111,100,000,100,010,011,00,111,101,111,000,011,110,010,100,011,110,101,000,101,010,110,100,00,001,110,000,011,010,101,011,010,011,101,001"
            .into(),
        primary_stats: Stats {
            counts: [60, 57, 56, 3, 0, 71, 35_255, 12, 12, 24_073],
            digest: 15_563_961_005_411_584_083,
        },
        secondary_stats: Stats {
            counts: [60, 58, 57, 2, 0, 80, 19_675, 12, 12, 4_300],
            digest: 11_343_501_374_693_053_569,
        },
    };
    assert_eq!(run(true), expected);
}
