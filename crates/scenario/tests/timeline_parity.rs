//! Pins the executor's determinism: the Section-5 timeline driven through
//! the `Scenario` executor yields an equal `DeploymentReport` for an equal
//! seed (every minute sample, every summary statistic, every transport
//! counter), and the scenario-driven simulator construction equals the
//! monolithic constructor state for state.

use pgrid_net::experiment::Timeline;
use pgrid_net::runtime::NetConfig;
use pgrid_sim::config::SimConfig;
use pgrid_sim::construction::construct;
use pgrid_workload::distributions::Distribution;

#[test]
fn scenario_deployment_is_reproducible() {
    let config = NetConfig {
        n_peers: 32,
        seed: 5,
        ..NetConfig::default()
    };
    let timeline = Timeline::default();
    let a = pgrid_scenario::deployment::run_deployment(&config, &timeline);
    let b = pgrid_scenario::deployment::run_deployment(&config, &timeline);
    assert_eq!(a, b);
}

#[test]
fn scenario_construction_reproduces_the_monolithic_constructor() {
    for distribution in [Distribution::Uniform, Distribution::Pareto { shape: 1.0 }] {
        let config = SimConfig {
            n_peers: 96,
            seed: 13,
            distribution,
            ..SimConfig::default()
        };
        let direct = construct(&config);
        let scenario = pgrid_scenario::sweeps::construct_scenario(&config);
        assert_eq!(
            direct.peer_paths(),
            scenario.peer_paths(),
            "{distribution}: peer placement diverged"
        );
        assert_eq!(direct.metrics, scenario.metrics, "{distribution}");
        assert_eq!(direct.original_entries, scenario.original_entries);
        for (a, b) in direct.peers.iter().zip(&scenario.peers) {
            assert_eq!(a.store.len(), b.store.len());
            assert_eq!(a.replicas, b.replicas);
        }
    }
}
