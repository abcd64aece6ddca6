//! End-to-end transport parity: a full construction run over the epoll
//! reactor must converge to the same balance/decision statistics as the
//! deterministic loopback backend.
//!
//! The two backends carry identical frame bytes (the batched exchange
//! framing of `pgrid-transport`), but loopback delivers them in seeded
//! virtual time while the reactor hands them over in real time.  The
//! protocol — engine decisions included — must not care.  Cross-process
//! socket traffic is checked in `crates/cluster/tests/cluster_e2e.rs`.

use pgrid::prelude::*;

fn config(seed: u64) -> NetConfig {
    NetConfig {
        n_peers: 36,
        keys_per_peer: 10,
        n_min: 5,
        distribution: Distribution::Uniform,
        seed,
        ..NetConfig::default()
    }
}

/// A compressed Section 5 timeline: enough construction ticks to converge,
/// short enough for a socket-backed run in a test suite.
fn short_timeline() -> Timeline {
    Timeline {
        join_end_min: 5,
        replicate_end_min: 8,
        construct_end_min: 28,
        range_end_min: 0,
        query_end_min: 34,
        end_min: 38,
    }
}

#[test]
fn reactor_and_loopback_deployments_agree() {
    // Two backends, one seed: the deterministic loopback and the epoll
    // reactor (every peer behind one multiplexed listener).  The protocol
    // statistics must not care which one carried the frames.
    if !pgrid::reactor::supported() {
        eprintln!("skipping: the reactor transport needs Linux epoll");
        return;
    }
    let config = config(21);
    let timeline = short_timeline();

    let loopback = run_deployment(&config, &timeline);
    let reactor = run_deployment_with(&config, &timeline, ReactorTransport::new())
        .expect("reactor endpoints must register");

    for (name, report) in [("loopback", &loopback), ("reactor", &reactor)] {
        assert!(
            report.balance_deviation < 1.5,
            "{name} deviation {}",
            report.balance_deviation
        );
    }
    assert!(
        (loopback.balance_deviation - reactor.balance_deviation).abs() < 0.75,
        "reactor disagrees on balance: loopback {:.3} vs reactor {:.3}",
        loopback.balance_deviation,
        reactor.balance_deviation
    );
    assert!(
        (loopback.mean_path_length - reactor.mean_path_length).abs() < 1.5,
        "reactor disagrees on trie depth: loopback {:.2} vs reactor {:.2}",
        loopback.mean_path_length,
        reactor.mean_path_length
    );
    assert!(
        reactor.query_success_rate > 0.8,
        "reactor query success rate {}",
        reactor.query_success_rate
    );

    // The reactor actually moved the frames (single-process, so they ride
    // the local fast path) and hosted the whole population on a handful of
    // descriptors.
    assert!(
        reactor.transport.frames_sent > 500,
        "{:?}",
        reactor.transport
    );
    assert_eq!(
        reactor.transport.frames_delivered, reactor.transport.frames_sent,
        "local reactor delivery is lossless: {:?}",
        reactor.transport
    );
    let stats = reactor
        .transport
        .reactor
        .expect("reactor runs report reactor stats");
    assert_eq!(stats.registered_peers, config.n_peers as u64);
    assert!(
        stats.registered_fds < 16,
        "fds must not scale with peers: {stats:?}"
    );
}

#[test]
fn per_tick_batching_packs_messages_into_shared_frames() {
    let mut rt = Runtime::new(config(33));
    for peer in 0..36 {
        rt.join_peer(peer, 4);
    }
    rt.replication_phase();
    rt.run_until(30_000);
    rt.start_construction();
    rt.run_until(600_000);

    assert!(
        rt.metrics.multi_message_frames > 0,
        "every frame carried a single message"
    );
    // Batching strictly packs: fewer frames than messages on the wire.
    let stats = rt.transport_stats();
    assert!(
        (stats.frames_delivered as usize)
            < rt.metrics.messages_delivered + rt.metrics.messages_to_offline,
        "{stats:?} vs {} delivered messages",
        rt.metrics.messages_delivered
    );
    let max_depth = (0..rt.config.n_peers)
        .map(|peer| rt.peer_state(IndexId::PRIMARY, peer).path.len())
        .max()
        .unwrap();
    assert!(max_depth >= 2, "max depth {max_depth}");
}
