//! Scenario-executor unit tests: event ordering under identical virtual
//! timestamps, phase-boundary bookkeeping, and determinism.

use pgrid_core::index::IndexId;
use pgrid_net::runtime::{NetConfig, Runtime};
use pgrid_scenario::prelude::*;
use pgrid_scenario::{ChurnEvent, RuntimeHost};

fn runtime(n_peers: usize, seed: u64) -> Runtime {
    Runtime::new(NetConfig {
        n_peers,
        seed,
        loss_probability: 0.0,
        ..NetConfig::default()
    })
}

#[test]
fn identical_timestamps_resolve_in_schedule_order() {
    // Two liveness flips of the same peer collide at t = 3000ms: the
    // GoOnline of the first interval was scheduled before the GoOffline of
    // the second, so FIFO order at the identical timestamp means the peer
    // must end up *offline* after the collision and online again only when
    // the second interval ends at t = 4000ms.
    let mut overlay = runtime(8, 3);
    for peer in 0..8 {
        overlay.join_peer(peer, 3);
    }
    let scenario = Scenario::builder(3)
        .churn_schedule(
            1,
            vec![
                ChurnEvent {
                    peer: 0,
                    at: 1_000,
                    downtime: 2_000, // back online at 3000
                },
                ChurnEvent {
                    peer: 0,
                    at: 3_000, // goes offline again at the same instant
                    downtime: 1_000,
                },
            ],
            None,
        )
        .build();

    // Drive manually to observe the intermediate states.
    let mut probe = runtime(8, 3);
    for peer in 0..8 {
        probe.join_peer(peer, 3);
    }
    probe.schedule_churn(0, 1_000, 2_000);
    probe.schedule_churn(0, 3_000, 1_000);
    probe.run_until(3_500);
    assert_eq!(probe.online_count(), 7, "peer 0 must be offline at 3500ms");
    probe.run_until(4_001);
    assert_eq!(probe.online_count(), 8, "peer 0 must be back at 4001ms");

    // The executor-driven run ends with everyone online again.
    let report = pgrid_scenario::run(&mut overlay, &scenario);
    assert_eq!(report.final_snapshot().online, 8);
}

#[test]
fn runs_are_deterministic_and_phase_order_is_declaration_order() {
    let scenario = Scenario::builder(21)
        .join_wave(2, 4)
        .replicate(IndexId::PRIMARY, 3)
        .snapshot("replicated")
        .start_construction(IndexId::PRIMARY)
        .run_until(10)
        .snapshot("constructed")
        .query_load(IndexId::PRIMARY, 12)
        .drain()
        .build();

    let run = |seed| {
        let mut overlay = runtime(24, seed);
        pgrid_scenario::run(&mut overlay, &scenario)
    };
    let a = run(21);
    let b = run(21);
    assert_eq!(a, b, "same seed, same report");

    // Snapshots appear in declaration order with the boundary minutes the
    // phases established.
    assert_eq!(a.snapshots.len(), 3);
    assert_eq!(a.snapshots[0].label, "replicated");
    assert_eq!(a.snapshots[0].at_min, 3);
    assert_eq!(a.snapshots[1].label, "constructed");
    assert_eq!(a.snapshots[1].at_min, 10);
    assert_eq!(a.snapshots[2].label, "final");
    assert!(a.snapshots[2].at_min >= 12);

    // Construction happened between the two snapshots.
    let before = a.snapshots[0].index(IndexId::PRIMARY).unwrap();
    let after = a.snapshots[1].index(IndexId::PRIMARY).unwrap();
    assert!(after.mean_path_length > before.mean_path_length);
    // Queries were issued and (mostly) answered.
    let fin = a.snapshots[2].index(IndexId::PRIMARY).unwrap();
    assert!(fin.queries_issued > 0);
    assert!(fin.query_success_rate() > 0.5);

    let c = run(22);
    assert_ne!(
        a.final_snapshot(),
        c.final_snapshot(),
        "different seeds must diverge"
    );
}

#[test]
fn hooks_observe_every_phase_in_order() {
    struct Recorder(Runtime, Vec<usize>);
    impl RuntimeHost for Recorder {
        type Transport = pgrid_transport::loopback::LoopbackTransport;
        type Error = std::convert::Infallible;
        fn runtime(&mut self) -> &mut Runtime {
            &mut self.0
        }
        fn after_phase(&mut self, phase_index: usize, _: &Phase) -> Result<(), Self::Error> {
            self.1.push(phase_index);
            Ok(())
        }
    }
    let scenario = Scenario::builder(1)
        .join_wave(1, 3)
        .run_until(2)
        .drain()
        .build();
    let mut recorder = Recorder(runtime(8, 1), Vec::new());
    pgrid_scenario::run_hosted(&mut recorder, &scenario).unwrap();
    assert_eq!(recorder.1, vec![0, 1, 2]);
}
