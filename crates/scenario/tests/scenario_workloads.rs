//! Workloads opened by the scenario API, end-to-end on both transports
//! (loopback in virtual time, the reactor in real time — the `*_on_tcp`
//! runs drive the runtime's real-time clock path): churn-heavy
//! construction, where joins and leaves interleave with partitioning and
//! churn windows overlap the construction phase instead of following it,
//! and range load.

use pgrid_core::index::IndexId;
use pgrid_net::runtime::{NetConfig, Runtime};
use pgrid_reactor::ReactorTransport;
use pgrid_scenario::prelude::*;
use pgrid_workload::distributions::Distribution;

const MINUTE: u64 = 60_000;

/// A runtime hosting every peer on the reactor; `None` (skip) off Linux.
fn on_reactor(config: &NetConfig) -> Option<Runtime<ReactorTransport>> {
    if !pgrid_reactor::supported() {
        eprintln!("skipping: the reactor transport needs Linux epoll");
        return None;
    }
    Some(Runtime::with_transport(config.clone(), ReactorTransport::new()).expect("register"))
}

fn config(n_peers: usize, seed: u64) -> NetConfig {
    NetConfig {
        n_peers,
        keys_per_peer: 10,
        n_min: 5,
        distribution: Distribution::Uniform,
        seed,
        ..NetConfig::default()
    }
}

/// Churn-heavy construction: peers start leaving while the trie is still
/// being partitioned.
fn churn_heavy_scenario(seed: u64) -> Scenario {
    Scenario::builder(seed)
        .join_wave(3, 6)
        .replicate(5)
        .start_construction()
        // Churn *during* construction: every peer repeatedly drops for
        // 1–2 minutes with 2–4 minute gaps while partitioning runs.
        .churn(
            20,
            3 * MINUTE,
            (MINUTE, 2 * MINUTE),
            (2 * MINUTE, 4 * MINUTE),
            None,
        )
        .snapshot("churned-construction")
        // Re-arm tick chains that died while their peer was offline (the
        // churn window kills chains whose tick fires during a downtime),
        // then let the survivors finish partitioning.
        .start_construction()
        .run_until(23)
        .snapshot("recovered")
        .query_load(27)
        .drain()
        .build()
}

fn assert_churn_heavy(report: &ScenarioReport, n_peers: usize) {
    let churned = report.snapshot("churned-construction").unwrap();
    assert!(
        churned.online < n_peers,
        "churn must have peers offline mid-construction ({} online)",
        churned.online
    );
    // Re-engaging construction after the churn window must not lose depth.
    let recovered = report.snapshot("recovered").unwrap();
    assert!(
        recovered.mean_path_length >= churned.mean_path_length,
        "re-engaged construction went backwards"
    );
    let fin = report.final_snapshot();
    assert!(
        fin.mean_path_length >= 1.5,
        "the trie must partition despite churn (mean depth {:.2})",
        fin.mean_path_length
    );
    assert!(
        fin.balance_deviation < 1.5,
        "balance deviation {:.3}",
        fin.balance_deviation
    );
    assert!(fin.queries_issued > 0);
    assert!(
        fin.query_success_rate() > 0.6,
        "query success rate {:.2} under churn-heavy construction",
        fin.query_success_rate()
    );
}

#[test]
fn churn_heavy_construction_on_loopback() {
    let config = config(48, 71);
    let mut overlay = Runtime::new(config.clone());
    let report = pgrid_scenario::run(&mut overlay, &churn_heavy_scenario(config.seed));
    assert_churn_heavy(&report, config.n_peers);
}

#[test]
fn churn_heavy_construction_on_tcp() {
    let config = config(16, 71);
    let Some(mut overlay) = on_reactor(&config) else {
        return;
    };
    let report = pgrid_scenario::run(&mut overlay, &churn_heavy_scenario(config.seed));
    let fin = report.final_snapshot();
    assert!(fin.mean_path_length >= 1.0, "{:.2}", fin.mean_path_length);
    assert!(fin.queries_issued > 0);
    assert!(
        fin.query_success_rate() > 0.5,
        "{:.2}",
        fin.query_success_rate()
    );
}

/// Mixed lookup + range load after construction: every issued range must
/// resolve with full interval coverage of its `[lo, hi]` bounds.
fn range_load_scenario(seed: u64) -> Scenario {
    Scenario::builder(seed)
        .join_wave(3, 6)
        .replicate(5)
        .start_construction()
        .run_until(22)
        .snapshot("constructed")
        .query_load(24)
        .range_load(26, 8, 0.2)
        .drain()
        .build()
}

fn assert_range_load(report: &ScenarioReport) {
    let fin = report.final_snapshot();
    assert!(fin.queries_issued > 0);
    assert!(fin.ranges_issued > 0, "range phase issued nothing");
    assert_eq!(
        fin.ranges_complete, fin.ranges_issued,
        "{}/{} ranges resolved with complete coverage",
        fin.ranges_complete, fin.ranges_issued
    );
}

#[test]
fn range_load_completes_on_loopback() {
    let config = config(48, 73);
    let mut overlay = Runtime::new(config.clone());
    let report = pgrid_scenario::run(&mut overlay, &range_load_scenario(config.seed));
    assert_range_load(&report);
    let fin = report.final_snapshot();
    assert!(
        fin.latency_p50_ms.is_some() && fin.latency_p999_ms.is_some(),
        "query load must fill the latency histogram"
    );
}

#[test]
fn range_load_completes_on_tcp() {
    let config = config(16, 73);
    let Some(mut overlay) = on_reactor(&config) else {
        return;
    };
    let report = pgrid_scenario::run(&mut overlay, &range_load_scenario(config.seed));
    assert_range_load(&report);
}

#[test]
fn dead_tick_chains_rearm_and_quiescence_is_reachable_after_churn() {
    // Churn during construction kills the tick chain of any peer whose
    // tick fires while it is offline (matching the paper's reference run,
    // where returning peers do not restart maintenance by themselves).  A
    // second `start_construction` re-arms the dead chains, and the overlay
    // must then actually reach quiescence — dead chains and backed-off
    // peers must not wedge `ConstructUntilQuiescent`.
    let config = config(32, 5);
    let mut overlay = Runtime::new(config.clone());
    let scenario = Scenario::builder(config.seed)
        .join_wave(2, 6)
        .replicate(4)
        .start_construction()
        .churn(
            15,
            2 * MINUTE,
            (MINUTE, 2 * MINUTE),
            (MINUTE, 2 * MINUTE),
            None,
        )
        .snapshot("after-churn")
        .start_construction()
        .construct_until_quiescent(1, 60)
        .build();
    let report = pgrid_scenario::run(&mut overlay, &scenario);
    assert!(
        overlay.construction_quiescent(),
        "construction must settle after the churn window"
    );
    let after_churn = report.snapshot("after-churn").unwrap();
    let fin = report.final_snapshot();
    assert!(
        fin.mean_path_length >= after_churn.mean_path_length,
        "re-armed construction lost progress"
    );
}

#[test]
fn a_distribution_shift_re_engages_construction_on_loopback() {
    // Fresh keys take every peer out of back-off: construction must run
    // again after the shift instead of reporting quiescence at once.
    let config = config(48, 7);
    let mut overlay = Runtime::new(config.clone());
    let scenario = Scenario::builder(config.seed)
        .join_wave(3, 6)
        .replicate(5)
        .start_construction()
        .construct_until_quiescent(1, 60)
        .snapshot("constructed")
        .shift_distribution(Distribution::Pareto { shape: 1.0 }, config.keys_per_peer)
        .snapshot("shifted")
        .construct_until_quiescent(1, 60)
        .snapshot("rebuilt")
        .build();
    let keys_before = overlay.original_entries_of(IndexId::PRIMARY).len();
    let report = pgrid_scenario::run(&mut overlay, &scenario);
    assert_eq!(
        overlay.original_entries_of(IndexId::PRIMARY).len(),
        keys_before + config.n_peers * config.keys_per_peer
    );
    let shifted = report.snapshot("shifted").unwrap();
    let rebuilt = report.snapshot("rebuilt").unwrap();
    assert!(
        rebuilt.at_min > shifted.at_min,
        "construction did not re-engage after the shift (minute {} -> {})",
        shifted.at_min,
        rebuilt.at_min
    );
}
