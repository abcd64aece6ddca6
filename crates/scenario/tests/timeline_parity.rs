//! Pins the executor's determinism: the Section-5 timeline driven through
//! the `Scenario` executor yields an equal `DeploymentReport` for an equal
//! seed (every minute sample, every summary statistic, every transport
//! counter).

use pgrid_net::experiment::Timeline;
use pgrid_net::runtime::NetConfig;

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
