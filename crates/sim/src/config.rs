//! Simulation configuration.

use pgrid_core::reference::BalanceParams;
use pgrid_workload::distributions::Distribution;

/// Which probability functions the construction uses for its split
/// decisions — the knob behind the "theory vs. heuristics" experiment
/// (Figure 6d).
///
/// This is the shared [`pgrid_core::exchange::ProbabilityStrategy`] under
/// its historical simulator name.
pub use pgrid_core::exchange::ProbabilityStrategy as ConstructionStrategy;

/// Configuration of a whole-system construction simulation.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Number of peers in the network.
    pub n_peers: usize,
    /// Number of data keys initially assigned to every peer (the paper uses
    /// 10 in both the simulation study and the PlanetLab deployment).
    pub keys_per_peer: usize,
    /// Minimum replication factor `n_min`.
    pub n_min: usize,
    /// Maximum storage load `delta_max`; `None` derives the paper's
    /// experimental choice `keys_per_peer * n_min` (Figure 6 uses
    /// `delta_max = 10 * n_min` with 10 keys per peer).
    pub delta_max: Option<usize>,
    /// The key distribution of the workload.
    pub distribution: Distribution,
    /// Probability functions used for split decisions.
    pub strategy: ConstructionStrategy,
    /// Hard bound on construction rounds (safety net; the process terminates
    /// by itself long before this for sane configurations).
    pub max_rounds: usize,
    /// Random seed.
    pub seed: u64,
    /// Worker threads executing each round's conflict-free interaction
    /// batches (`0` = one worker per available CPU).  The construction is
    /// bit-identical for every thread count — per-peer counter-derived RNG
    /// streams and the claim partition make scheduling order irrelevant —
    /// so this knob only trades wall-clock time.
    pub n_threads: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            n_peers: 256,
            keys_per_peer: 10,
            n_min: 5,
            delta_max: None,
            distribution: Distribution::Uniform,
            strategy: ConstructionStrategy::Aep,
            max_rounds: 400,
            seed: 0xC0FFEE,
            n_threads: 0,
        }
    }
}

impl SimConfig {
    /// The balance parameters (`delta_max`, `n_min`) in effect for this
    /// configuration, deriving `delta_max` from the paper's recommendation
    /// when not set explicitly.
    pub fn balance_params(&self) -> BalanceParams {
        match self.delta_max {
            Some(d) => BalanceParams::new(d, self.n_min),
            None => BalanceParams::recommended(self.keys_per_peer as f64, self.n_min),
        }
    }

    /// Total number of distinct data keys in the network before replication.
    pub fn total_keys(&self) -> usize {
        self.n_peers * self.keys_per_peer
    }

    /// The number of executor threads this configuration resolves to:
    /// `n_threads`, or the available CPU parallelism when it is `0`.
    pub fn effective_threads(&self) -> usize {
        match self.n_threads {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            n => n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_derives_paper_parameters() {
        let config = SimConfig::default();
        let params = config.balance_params();
        assert_eq!(params.n_min, 5);
        assert_eq!(params.delta_max, 50); // 10 keys/peer * n_min, as in Figure 6
        assert_eq!(config.total_keys(), 2560);
    }

    #[test]
    fn explicit_delta_max_wins() {
        let config = SimConfig {
            delta_max: Some(100),
            ..SimConfig::default()
        };
        assert_eq!(config.balance_params().delta_max, 100);
    }

    #[test]
    fn thread_count_resolution() {
        let auto = SimConfig::default();
        assert_eq!(auto.n_threads, 0);
        assert!(auto.effective_threads() >= 1);
        let pinned = SimConfig {
            n_threads: 3,
            ..SimConfig::default()
        };
        assert_eq!(pinned.effective_threads(), 3);
    }
}
