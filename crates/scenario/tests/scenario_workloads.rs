//! The two ROADMAP workloads opened by the scenario API, end-to-end on
//! both transports (loopback in virtual time, the reactor in real time —
//! the `*_on_tcp` runs drive the runtime's real-time clock path):
//!
//! * **churn-heavy construction** — joins and leaves interleaved with
//!   partitioning: churn windows overlap the construction phase instead of
//!   following it;
//! * **multi-index overlay** — two key distributions share one peer
//!   population through the `IndexId` dimension: each index builds its own
//!   trie over the same peers, transport and liveness.

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
        .replicate(IndexId::PRIMARY, 5)
        .start_construction(IndexId::PRIMARY)
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
        .start_construction(IndexId::PRIMARY)
        .run_until(23)
        .snapshot("recovered")
        .query_load(IndexId::PRIMARY, 27)
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
        recovered.index(IndexId::PRIMARY).unwrap().mean_path_length
            >= churned.index(IndexId::PRIMARY).unwrap().mean_path_length,
        "re-engaged construction went backwards"
    );
    let fin = report.final_snapshot().index(IndexId::PRIMARY).unwrap();
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
    let fin = report.final_snapshot().index(IndexId::PRIMARY).unwrap();
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
        .replicate(IndexId::PRIMARY, 5)
        .start_construction(IndexId::PRIMARY)
        .run_until(22)
        .snapshot("constructed")
        .query_load(IndexId::PRIMARY, 24)
        .range_load(IndexId::PRIMARY, 26, 8, 0.2)
        .drain()
        .build()
}

fn assert_range_load(report: &ScenarioReport) {
    let fin = report.final_snapshot().index(IndexId::PRIMARY).unwrap();
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
    let fin = report.final_snapshot().index(IndexId::PRIMARY).unwrap();
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

/// Two indexes over one peer population: uniform keys on the primary,
/// Pareto keys on the secondary.
fn multi_index_scenario(seed: u64) -> Scenario {
    let secondary = IndexId(1);
    Scenario::builder(seed)
        .join_wave(3, 6)
        .replicate(IndexId::PRIMARY, 5)
        .replicate(secondary, 7)
        .start_construction(IndexId::PRIMARY)
        .start_construction(secondary)
        .run_until(22)
        .snapshot("constructed")
        .query_load(IndexId::PRIMARY, 25)
        .query_load_from(secondary, 28, 0)
        .drain()
        .build()
}

fn assert_multi_index(report: &ScenarioReport) {
    let fin = report.final_snapshot();
    let primary = fin.index(IndexId::PRIMARY).unwrap();
    let secondary = fin.index(IndexId(1)).unwrap();
    for (name, idx) in [("primary", primary), ("secondary", secondary)] {
        assert!(
            idx.mean_path_length >= 1.5,
            "{name} index must build a trie (mean depth {:.2})",
            idx.mean_path_length
        );
        assert!(idx.queries_issued > 0, "{name} index saw no queries");
        assert!(
            idx.query_success_rate() > 0.6,
            "{name} index success rate {:.2}",
            idx.query_success_rate()
        );
    }
    // The two indexes partition *differently* (different distributions),
    // while sharing the population.
    assert_ne!(
        (primary.mean_path_length * 1000.0) as i64,
        (secondary.mean_path_length * 1000.0) as i64,
        "independent distributions should not produce identical tries"
    );
}

#[test]
fn multi_index_overlay_on_loopback() {
    let config = config(48, 23);
    let mut overlay = Runtime::new(config.clone());
    overlay.register_index(IndexId(1), &Distribution::Pareto { shape: 1.0 });
    let report = pgrid_scenario::run(&mut overlay, &multi_index_scenario(config.seed));
    assert_multi_index(&report);
}

#[test]
fn multi_index_overlay_on_tcp() {
    let config = config(16, 23);
    let Some(mut overlay) = on_reactor(&config) else {
        return;
    };
    overlay.register_index(IndexId(1), &Distribution::Pareto { shape: 1.0 });
    let report = pgrid_scenario::run(&mut overlay, &multi_index_scenario(config.seed));
    let fin = report.final_snapshot();
    for index in [IndexId::PRIMARY, IndexId(1)] {
        let idx = fin.index(index).unwrap();
        assert!(
            idx.mean_path_length >= 1.0,
            "{index}: {:.2}",
            idx.mean_path_length
        );
        assert!(idx.queries_issued > 0, "{index} saw no queries");
    }
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
        .replicate(IndexId::PRIMARY, 4)
        .start_construction(IndexId::PRIMARY)
        .churn(
            15,
            2 * MINUTE,
            (MINUTE, 2 * MINUTE),
            (MINUTE, 2 * MINUTE),
            None,
        )
        .snapshot("after-churn")
        .start_construction(IndexId::PRIMARY)
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
        fin.index(IndexId::PRIMARY).unwrap().mean_path_length
            >= after_churn
                .index(IndexId::PRIMARY)
                .unwrap()
                .mean_path_length,
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
        .replicate(IndexId::PRIMARY, 5)
        .start_construction(IndexId::PRIMARY)
        .construct_until_quiescent(1, 60)
        .snapshot("constructed")
        .shift_distribution(
            IndexId::PRIMARY,
            Distribution::Pareto { shape: 1.0 },
            config.keys_per_peer,
        )
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

#[test]
fn secondary_index_does_not_perturb_the_primary_trajectory() {
    // Registering (but never exercising) a secondary index must leave the
    // primary index's deployment byte-identical: the assignment comes from
    // a dedicated RNG stream and secondary traffic only exists once the
    // scenario references the index.
    let config = config(32, 9);
    let timeline = pgrid_net::experiment::Timeline::default();
    let plain = pgrid_scenario::deployment::run_deployment(&config, &timeline);

    let mut overlay = Runtime::new(config.clone());
    overlay.register_index(IndexId(1), &Distribution::Pareto { shape: 1.0 });
    let scenario = Scenario::from_timeline(config.seed, &timeline);
    let _ = pgrid_scenario::run(&mut overlay, &scenario);
    let with_idle_index = pgrid_net::experiment::assemble_report(
        &pgrid_net::experiment::ReportInputs::from_runtime(&overlay),
        &timeline,
    );
    assert_eq!(plain, with_idle_index);
}
