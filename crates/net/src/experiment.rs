//! Timeline and report of the PlanetLab-style deployment experiment
//! (Section 5).
//!
//! The timeline follows the paper's Section 5.1: peers join the network and
//! form an unstructured overlay, replicate their data, construct the
//! structured overlay, answer queries, and finally experience churn (each
//! peer repeatedly goes offline for 1–5 minutes every 5–10 minutes).  The
//! run itself is driven by `pgrid_scenario::deployment` (one process) or the
//! `pgrid-cluster` coordinator (many); both hand what they collected to
//! [`assemble_report`], which computes the time series reported in Figures
//! 7–9: the number of online peers, the aggregate bandwidth split into
//! maintenance and query traffic, and the query latency.

use crate::runtime::{BandwidthSample, QueryAggregates, Runtime};
use pgrid_core::balance::measure_overlay;
use pgrid_core::histogram::LogHistogram;
use pgrid_core::index::IndexId;
use pgrid_core::key::Key;
use pgrid_core::path::Path;
use pgrid_core::reference::BalanceParams;
use pgrid_transport::{Transport, TransportStats};
use std::collections::HashMap;

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
            bandwidth_per_minute: runtime.metrics.bandwidth_per_minute.clone(),
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
