//! The paper's Section-5 experiment, in one place: its [`Timeline`] and
//! settings, the single-process run ([`Scenario::from_timeline`],
//! [`run_deployment`]), the schedules every `pgrid-cluster` process derives
//! from the shared seed ([`join_plan`], [`churn_plan`]) and the program a
//! worker runs over its shard ([`worker_scenario`]), and the report behind
//! Figures 7–9 and the Section 5.2 summary ([`assemble_report`]), which
//! the single-process run and the merged cluster share.

use crate::exec;
use crate::scenario::{
    churn_events, join_time, timeline_phases, ChurnEvent, JoinEvent, Phase, QuerySpec, Scenario,
    MINUTE_MS,
};
use pgrid_core::balance::measure_overlay;
use pgrid_core::histogram::LogHistogram;
use pgrid_core::index::IndexId;
use pgrid_core::key::Key;
use pgrid_core::path::Path;
use pgrid_core::reference::BalanceParams;
use pgrid_core::routing::PeerId;
use pgrid_net::runtime::{BandwidthSample, Millis, NetConfig, QueryAggregates, Runtime};
use pgrid_transport::{Transport, TransportError, TransportStats};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashMap;

/// Bootstrap contacts of a joining peer.
pub const JOIN_FANOUT: usize = 6;
/// A peer's first offline interval starts within this long of the churn.
pub const CHURN_LEAD_MS: Millis = 5 * MINUTE_MS;
/// Inclusive range of a peer's offline durations (1–5 minutes).
pub const CHURN_DOWNTIME_MS: (Millis, Millis) = (MINUTE_MS, 5 * MINUTE_MS);
/// Inclusive range of the online gaps between them (5–10 minutes).
pub const CHURN_GAP_MS: (Millis, Millis) = (5 * MINUTE_MS, 10 * MINUTE_MS);

/// Phase boundaries of the experiment, in minutes of virtual time (the
/// paper's experiment runs for 500 minutes with the same phase structure).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Timeline {
    /// Peers join between time 0 and this minute.
    pub join_end_min: u64,
    /// Replication happens between `join_end_min` and this minute.
    pub replicate_end_min: u64,
    /// Construction runs until this minute.
    pub construct_end_min: u64,
    /// Range queries run between `construct_end_min` and this minute; any
    /// value at or below `construct_end_min` (the reference timelines use
    /// `0`) disables the range window entirely.
    pub range_end_min: u64,
    /// Queries run until this minute.
    pub query_end_min: u64,
    /// Churn (with continuing queries) runs until this minute.
    pub end_min: u64,
}

impl Default for Timeline {
    fn default() -> Self {
        // A scaled-down version of the paper's 500-minute timeline that keeps
        // the phase proportions (100 / 100 / 200 / 130 / 70 minutes in the
        // paper) but compresses construction, which in virtual time needs far
        // fewer rounds than wall-clock PlanetLab minutes.
        Timeline {
            join_end_min: 20,
            replicate_end_min: 25,
            construct_end_min: 60,
            range_end_min: 0,
            query_end_min: 90,
            end_min: 110,
        }
    }
}

impl Timeline {
    /// Every phase in 25 minutes, for smoke runs (`pgrid-cluster --smoke`, the examples).
    pub const SMOKE: Timeline = Timeline {
        join_end_min: 3,
        replicate_end_min: 5,
        construct_end_min: 18,
        range_end_min: 0,
        query_end_min: 22,
        end_min: 25,
    };
}

/// One sample of the per-minute time series.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct MinuteSample {
    /// Minute of virtual time.
    pub minute: u64,
    /// Number of peers online at the end of the minute (Figure 7).
    pub peers_online: usize,
    /// Aggregate maintenance bandwidth in bytes per second (Figure 8).
    pub maintenance_bps: f64,
    /// Aggregate query bandwidth in bytes per second (Figure 8).
    pub query_bps: f64,
    /// Mean query latency in seconds over queries issued this minute
    /// (Figure 9); `0` if none.
    pub query_latency_mean_s: f64,
    /// Standard deviation of the query latency (Figure 9).
    pub query_latency_std_s: f64,
}

/// Result of the deployment experiment.
#[derive(Clone, Debug, PartialEq)]
pub struct DeploymentReport {
    /// Per-minute time series.
    pub timeline: Vec<MinuteSample>,
    /// Load-balance deviation of the final overlay from the reference
    /// partitioning (the quantity the paper reports as 0.38–0.39).
    pub balance_deviation: f64,
    /// Mean trie depth (the paper reports a mean path length slightly
    /// below 6 for ~300 peers).
    pub mean_path_length: f64,
    /// Mean hops of successful queries (the paper reports ≈ 3, about half
    /// the mean path length).
    pub mean_query_hops: f64,
    /// Query success rate over the whole query+churn period (the paper
    /// reports 95–100%).
    pub query_success_rate: f64,
    /// Mean number of replicas per leaf partition (the paper reports ≈ 5).
    pub mean_replication: f64,
    /// Latency distribution of answered lookups, in milliseconds
    /// (p50/p99/p999 and the Prometheus histogram derive from this).
    pub query_latency: LogHistogram,
    /// Range queries issued during the optional range window.
    pub ranges_issued: u64,
    /// Range queries whose responses covered their whole `[lo, hi]` span.
    pub ranges_complete: u64,
    /// Total maintenance bytes sent.
    pub total_maintenance_bytes: usize,
    /// Total query bytes sent.
    pub total_query_bytes: usize,
    /// Frame-level counters of the transport the experiment ran over.
    pub transport: TransportStats,
}

/// The raw material a [`DeploymentReport`] is computed from.
///
/// A single-process run fills this straight from its [`Runtime`]
/// ([`ReportInputs::from_runtime`]); the cluster coordinator assembles the
/// same structure by merging what its worker processes streamed back
/// (summing bandwidth buckets, folding query aggregates, placing each
/// shard's final paths at their global indices) and then calls
/// [`assemble_report`], so both deployment modes share one statistics
/// pipeline.
#[derive(Clone, Debug)]
pub struct ReportInputs {
    /// Number of peers of the deployment.
    pub n_peers: usize,
    /// Balance parameters of the exchange engine.
    pub params: BalanceParams,
    /// Keys of the ground-truth data assignment, in entry order.
    pub original_keys: Vec<Key>,
    /// Final path of every peer (index = peer id).
    pub paths: Vec<Path>,
    /// Query statistics, merged across shards.
    pub queries: QueryAggregates,
    /// Classified bandwidth per one-minute bucket of virtual time.
    pub bandwidth_per_minute: HashMap<u64, BandwidthSample>,
    /// Peers online when the run ended.
    pub online_at_end: usize,
    /// Frame-level transport counters (summed across processes).
    pub transport: TransportStats,
}

impl ReportInputs {
    /// Collects the inputs of a single-process run.
    pub fn from_runtime<T: Transport>(runtime: &Runtime<T>) -> ReportInputs {
        ReportInputs {
            n_peers: runtime.config.n_peers,
            params: runtime.params(),
            original_keys: runtime
                .original_entries_of(IndexId::PRIMARY)
                .iter()
                .map(|e| e.key)
                .collect(),
            paths: (0..runtime.config.n_peers)
                .map(|peer| runtime.peer_state(IndexId::PRIMARY, peer).path)
                .collect(),
            queries: runtime.metrics.query_stats.clone(),
            bandwidth_per_minute: HashMap::from_iter(runtime.metrics.bandwidth_per_minute.clone()),
            online_at_end: runtime.online_count(),
            transport: runtime.transport_stats(),
        }
    }
}

/// Computes the per-minute time series and the Section 5.2 summary
/// statistics from collected run data.
pub fn assemble_report(inputs: &ReportInputs, timeline: &Timeline) -> DeploymentReport {
    let mut samples = Vec::new();
    // Reconstructing the peers-online series from the churn/queries records
    // is not possible after the fact, so sample bandwidth and latency per
    // minute; the peers-online series is approximated from the join ramp and
    // the churn phase bounds plus the live count at the end.
    for m in 0..=timeline.end_min {
        let bw = inputs
            .bandwidth_per_minute
            .get(&m)
            .copied()
            .unwrap_or_default();
        let (mean, std) = match inputs.queries.per_minute.get(&m) {
            Some(bucket) if bucket.count > 0 => (bucket.mean_s(), bucket.std_s()),
            _ => (0.0, 0.0),
        };
        let peers_online = if m < timeline.join_end_min {
            (inputs.n_peers as u64 * m / timeline.join_end_min.max(1)) as usize
        } else if m < timeline.query_end_min {
            inputs.n_peers
        } else {
            inputs.online_at_end
        };
        samples.push(MinuteSample {
            minute: m,
            peers_online,
            maintenance_bps: bw.maintenance_bytes as f64 / 60.0,
            query_bps: bw.query_bytes as f64 / 60.0,
            query_latency_mean_s: mean,
            query_latency_std_s: std,
        });
    }

    // Final overlay quality.
    let quality = measure_overlay(
        &inputs.original_keys,
        inputs.n_peers,
        inputs.params,
        &inputs.paths,
    );

    DeploymentReport {
        timeline: samples,
        balance_deviation: quality.deviation,
        mean_path_length: quality.mean_path_length,
        mean_query_hops: inputs.queries.mean_hops_successful(),
        query_success_rate: inputs.queries.success_rate(),
        mean_replication: quality.mean_replication,
        query_latency: inputs.queries.latency.clone(),
        ranges_issued: inputs.queries.ranges_issued,
        ranges_complete: inputs.queries.ranges_complete,
        total_maintenance_bytes: inputs
            .bandwidth_per_minute
            .values()
            .map(|b| b.maintenance_bytes)
            .sum(),
        total_query_bytes: inputs
            .bandwidth_per_minute
            .values()
            .map(|b| b.query_bytes)
            .sum(),
        transport: inputs.transport.clone(),
    }
}

/// Runs the full deployment experiment over the deterministic loopback
/// transport, driven by the scenario executor.
pub fn run_deployment(config: &NetConfig, timeline: &Timeline) -> DeploymentReport {
    drive(&mut Runtime::new(config.clone()), timeline)
}

/// Runs the full deployment experiment over the given transport backend,
/// driven by the scenario executor.
pub fn run_deployment_with<T: Transport>(
    config: &NetConfig,
    timeline: &Timeline,
    transport: T,
) -> Result<DeploymentReport, TransportError> {
    Ok(drive(
        &mut Runtime::with_transport(config.clone(), transport)?,
        timeline,
    ))
}

fn drive<T: Transport>(runtime: &mut Runtime<T>, timeline: &Timeline) -> DeploymentReport {
    let scenario = Scenario::from_timeline(runtime.config.seed, timeline);
    let _ = exec::run(runtime, &scenario);
    assemble_report(&ReportInputs::from_runtime(runtime), timeline)
}

/// The join plan of a sharded run: peer `i` joins on the ramp of
/// [`crate::Phase::JoinWave`] with up to [`JOIN_FANOUT`] contacts drawn
/// uniformly from the already-joined population, from a stream of its own
/// (a shard's runtime cannot draw contacts for peers it does not host).
pub fn join_plan(config: &NetConfig, timeline: &Timeline) -> Vec<JoinEvent> {
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x4A01_4E5F);
    let join_end = timeline.join_end_min * MINUTE_MS;
    (0..config.n_peers)
        .map(|peer| {
            let mut neighbours: Vec<PeerId> = (0..peer as u64).map(PeerId).collect();
            neighbours.shuffle(&mut rng);
            neighbours.truncate(JOIN_FANOUT);
            let at = join_time(peer, config.n_peers, join_end);
            JoinEvent {
                at,
                peer,
                neighbours,
            }
        })
        .collect()
}

/// The churn plan of a sharded run: the churn model of
/// [`Scenario::from_timeline`] between the query and the end boundary,
/// drawn from a stream of its own, so every worker knows when every remote
/// peer is offline (routing reads that liveness as its failure detector).
pub fn churn_plan(config: &NetConfig, timeline: &Timeline) -> Vec<ChurnEvent> {
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0xC4_5211);
    churn_events(
        &mut rng,
        config.n_peers,
        timeline.query_end_min * MINUTE_MS,
        timeline.end_min * MINUTE_MS,
        CHURN_LEAD_MS,
        CHURN_DOWNTIME_MS,
        CHURN_GAP_MS,
    )
}

/// The phase program a `pgrid-cluster` worker runs over its shard of
/// `shard_len` peers: the program of [`Scenario::from_timeline`] with the
/// seed-derived plans in place of the runtime draws, the query rate scaled
/// to the shard, and the worker index folded into the control seed to
/// decorrelate the workers' query streams.  A query window may overshoot
/// its boundary by one inter-query step, as in one process; the
/// coordinator's barriers resynchronise the workers' clocks.
pub fn worker_scenario(
    config: &NetConfig,
    timeline: &Timeline,
    worker_index: u32,
    shard_len: usize,
) -> Scenario {
    let join = Phase::JoinSchedule {
        until_min: timeline.join_end_min,
        events: join_plan(config, timeline),
    };
    let churn = Phase::ChurnSchedule {
        until_min: timeline.end_min,
        events: churn_plan(config, timeline),
        queries: Some(QuerySpec { issuers: shard_len }),
    };
    let phases = timeline_phases(timeline, join, shard_len, churn);
    let mut scenario = Scenario::new(config.seed, phases);
    scenario.control_seed ^= (worker_index as u64) << 32;
    scenario
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(n_peers: usize) -> NetConfig {
        NetConfig {
            n_peers,
            seed: 99,
            ..NetConfig::default()
        }
    }

    #[test]
    fn plans_are_reproducible_and_seed_sensitive() {
        let timeline = Timeline::default();
        let a = join_plan(&config(64), &timeline);
        let b = join_plan(&config(64), &timeline);
        assert_eq!(a, b, "same seed, same plan");
        let other = join_plan(
            &NetConfig {
                seed: 100,
                ..config(64)
            },
            &timeline,
        );
        assert_ne!(a, other, "the plan must depend on the seed");
        assert_eq!(
            churn_plan(&config(64), &timeline),
            churn_plan(&config(64), &timeline)
        );
    }

    #[test]
    fn join_plan_covers_every_peer_within_the_join_phase() {
        let timeline = Timeline::default();
        let plan = join_plan(&config(48), &timeline);
        assert_eq!(plan.len(), 48);
        for (i, event) in plan.iter().enumerate() {
            assert_eq!(event.peer, i);
            assert!(event.at < timeline.join_end_min * MINUTE_MS);
            assert!(event.neighbours.len() <= JOIN_FANOUT);
            // contacts are always peers that joined earlier
            for n in &event.neighbours {
                assert!((n.0 as usize) < i);
            }
        }
        // everyone after the bootstrap founders has contacts
        assert!(plan[7].neighbours.len() >= 3);
    }

    #[test]
    fn churn_plan_stays_inside_the_churn_window() {
        let timeline = Timeline::default();
        let plan = churn_plan(&config(32), &timeline);
        assert!(!plan.is_empty());
        for event in &plan {
            assert!(event.at >= timeline.query_end_min * MINUTE_MS);
            assert!(event.at < timeline.end_min * MINUTE_MS);
            assert!((MINUTE_MS..=5 * MINUTE_MS).contains(&event.downtime));
        }
    }
}
