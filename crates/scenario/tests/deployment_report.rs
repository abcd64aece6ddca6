//! Shape of the `DeploymentReport` a Section-5 run produces: a complete
//! per-minute series, maintenance traffic peaking during construction, and
//! a well-formed Prometheus rendering.  (Overlay quality and query success
//! are asserted by the workspace-level `deployment_and_protocol` tests.)

use pgrid_net::experiment::{DeploymentReport, Timeline};
use pgrid_net::runtime::NetConfig;
use pgrid_scenario::deployment::run_deployment;

fn small_report() -> DeploymentReport {
    let config = NetConfig {
        n_peers: 64,
        seed: 11,
        ..NetConfig::default()
    };
    run_deployment(&config, &Timeline::default())
}

#[test]
fn deployment_produces_a_complete_timeline() {
    let report = small_report();
    let timeline = Timeline::default();
    assert_eq!(report.timeline.len() as u64, timeline.end_min + 1);
    // peers ramp up during the join phase and are all online afterwards
    assert!(report.timeline[2].peers_online < 64);
    assert!(report.timeline[timeline.join_end_min as usize + 1].peers_online == 64);
}

#[test]
fn construction_phase_dominates_maintenance_bandwidth() {
    let report = small_report();
    let timeline = Timeline::default();
    let construction_bw: f64 = report
        .timeline
        .iter()
        .filter(|s| s.minute > timeline.replicate_end_min && s.minute <= timeline.construct_end_min)
        .map(|s| s.maintenance_bps)
        .sum();
    let query_phase_maintenance: f64 = report
        .timeline
        .iter()
        .filter(|s| s.minute > timeline.construct_end_min + 5 && s.minute <= timeline.query_end_min)
        .map(|s| s.maintenance_bps)
        .sum();
    assert!(
        construction_bw > query_phase_maintenance,
        "maintenance bandwidth should peak during construction: {construction_bw} vs {query_phase_maintenance}"
    );
    assert!(report.total_maintenance_bytes > 0);
    assert!(report.total_query_bytes > 0);
}

#[test]
fn report_metrics_text_carries_summary_and_transport_series() {
    let report = small_report();
    let text = report.metrics_text();
    assert!(text.contains("# TYPE pgrid_deployment_balance_deviation gauge"));
    assert!(text.contains("pgrid_deployment_query_success_rate "));
    assert!(text.contains("pgrid_transport_frames_sent_total "));
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        assert_eq!(
            line.split_whitespace().count(),
            2,
            "bad series line: {line}"
        );
    }
}
