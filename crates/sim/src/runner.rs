//! Experiment runner for the whole-system simulation study (Figure 6).
//!
//! Section 4.4 evaluates the construction over six key distributions,
//! several population sizes, replication factors and sample sizes, always
//! reporting the deviation of the resulting peer placement from the optimal
//! placement computed by the global `Partition` algorithm, plus the
//! per-peer interaction and bandwidth cost.  Every experiment is repeated
//! (the paper uses 10 repetitions) and averaged.

use crate::config::SimConfig;
use crate::construction::construct;
use pgrid_core::balance::measure_overlay;

/// Aggregated result of repeated construction runs for one configuration.
#[derive(Clone, Debug)]
pub struct ConstructionResult {
    /// The key distribution label (`U`, `P0.5`, …).
    pub distribution: String,
    /// Number of peers.
    pub n_peers: usize,
    /// Replication factor `n_min`.
    pub n_min: usize,
    /// Storage bound `delta_max`.
    pub delta_max: usize,
    /// Mean load-balance deviation from the reference partitioning
    /// (Figure 6a–d).
    pub deviation: f64,
    /// Standard deviation of the balance deviation across repetitions.
    pub deviation_std: f64,
    /// Mean interactions initiated per peer (Figure 6e).
    pub interactions_per_peer: f64,
    /// Mean data keys moved per peer, replication phase included
    /// (Figure 6f).
    pub keys_moved_per_peer: f64,
    /// Mean construction rounds until quiescence (the latency proxy of the
    /// complexity discussion in Section 4.3).
    pub rounds: f64,
    /// Mean trie depth of the resulting overlay.
    pub mean_depth: f64,
}

/// Runs `repetitions` constructions of the given configuration (varying the
/// seed) and aggregates the figure metrics.
pub fn run_repeated(config: &SimConfig, repetitions: usize) -> ConstructionResult {
    assert!(repetitions > 0);
    let params = config.balance_params();
    let mut deviations = Vec::with_capacity(repetitions);
    let mut interactions = Vec::with_capacity(repetitions);
    let mut keys_moved = Vec::with_capacity(repetitions);
    let mut rounds = Vec::with_capacity(repetitions);
    let mut depths = Vec::with_capacity(repetitions);

    for rep in 0..repetitions {
        let run_config = SimConfig {
            seed: config.seed.wrapping_add(rep as u64 * 7919),
            ..config.clone()
        };
        let overlay = construct(&run_config);
        let keys: Vec<_> = overlay.original_entries.iter().map(|e| e.key).collect();
        let quality = measure_overlay(&keys, run_config.n_peers, params, &overlay.peer_paths());
        deviations.push(quality.deviation);
        interactions.push(overlay.metrics.interactions_per_peer());
        keys_moved.push(overlay.metrics.keys_moved_per_peer());
        rounds.push(overlay.metrics.rounds as f64);
        depths.push(quality.mean_path_length);
    }

    ConstructionResult {
        distribution: config.distribution.label(),
        n_peers: config.n_peers,
        n_min: config.n_min,
        delta_max: params.delta_max,
        deviation: mean(&deviations),
        deviation_std: std_dev(&deviations),
        interactions_per_peer: mean(&interactions),
        keys_moved_per_peer: mean(&keys_moved),
        rounds: mean(&rounds),
        mean_depth: mean(&depths),
    }
}

/// Mean of a slice (0 for an empty slice).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Sample standard deviation of a slice (0 for fewer than two values).
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (xs.len() - 1) as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ConstructionStrategy;
    use pgrid_workload::distributions::Distribution;

    #[test]
    fn run_repeated_aggregates_sane_metrics() {
        let config = SimConfig {
            n_peers: 96,
            seed: 5,
            ..SimConfig::default()
        };
        let result = run_repeated(&config, 3);
        assert_eq!(result.n_peers, 96);
        assert!(result.deviation >= 0.0 && result.deviation < 2.0);
        assert!(result.interactions_per_peer > 0.0);
        assert!(result.keys_moved_per_peer > 0.0);
        assert!(result.rounds >= 1.0);
        assert!(result.mean_depth > 0.5);
    }

    #[test]
    fn theory_and_heuristic_strategies_both_complete() {
        // Both sides of the Figure 6d comparison must produce a valid
        // overlay; the quantitative comparison itself is produced by the
        // figures binary with the full repetition count (a couple of
        // repetitions at this size are dominated by run-to-run noise).
        for distribution in Distribution::paper_suite() {
            for strategy in [ConstructionStrategy::Aep, ConstructionStrategy::Heuristic] {
                let config = SimConfig {
                    n_peers: 96,
                    n_min: 5,
                    distribution,
                    strategy,
                    seed: 21,
                    ..SimConfig::default()
                };
                let result = run_repeated(&config, 1);
                assert!(result.deviation >= 0.0 && result.deviation.is_finite());
                assert!(result.interactions_per_peer > 0.0);
            }
        }
    }
}
