//! The Section-5 deployment as a canned scenario.
//!
//! [`Scenario::from_timeline`] turns a [`Timeline`] into the join →
//! replicate → construct → query → churn program, [`crate::exec::run`]
//! drives a [`Runtime`] through it, and `pgrid_net::experiment` computes the
//! [`DeploymentReport`] — so anything the scenario API can express (extra
//! churn windows, distribution shifts, snapshots) composes with the canned
//! timeline.

use crate::exec;
use crate::scenario::Scenario;
use pgrid_net::experiment::{assemble_report, DeploymentReport, ReportInputs, Timeline};
use pgrid_net::runtime::{NetConfig, Runtime};
use pgrid_transport::{Transport, TransportError};

/// Runs the full deployment experiment over the deterministic loopback
/// transport, driven by the scenario executor.
pub fn run_deployment(config: &NetConfig, timeline: &Timeline) -> DeploymentReport {
    let mut runtime = Runtime::new(config.clone());
    drive(&mut runtime, config, timeline)
}

/// Runs the full deployment experiment over the given transport backend,
/// driven by the scenario executor.
pub fn run_deployment_with<T: Transport>(
    config: &NetConfig,
    timeline: &Timeline,
    transport: T,
) -> Result<DeploymentReport, TransportError> {
    let mut runtime = Runtime::with_transport(config.clone(), transport)?;
    Ok(drive(&mut runtime, config, timeline))
}

fn drive<T: Transport>(
    runtime: &mut Runtime<T>,
    config: &NetConfig,
    timeline: &Timeline,
) -> DeploymentReport {
    let scenario = Scenario::from_timeline(config.seed, timeline);
    let _ = exec::run(runtime, &scenario);
    assemble_report(&ReportInputs::from_runtime(runtime), timeline)
}
