//! Observability integration of the deployment runtime: query outcomes
//! are bit-identical with tracing on or off (the envelope never perturbs
//! the RNG or the protocol), an enabled tracer reassembles complete hop
//! chains with frame events sampled at 1 in 64 and labels every exchange
//! decision with its outcome, and a forced query
//! timeout leaves a flight-recorder dump.

use pgrid_core::index::IndexId;
use pgrid_core::key::Key;
use pgrid_net::runtime::{NetConfig, Runtime};
use pgrid_obs::trace::{assemble, AMBIENT_TRACE};
use pgrid_workload::distributions::Distribution;

fn config(seed: u64) -> NetConfig {
    NetConfig {
        n_peers: 48,
        keys_per_peer: 8,
        n_min: 4,
        distribution: Distribution::Uniform,
        seed,
        ..NetConfig::default()
    }
}

/// Joins and constructs a small overlay, optionally with tracing on.
fn built(tracing: bool) -> Runtime {
    let mut rt = Runtime::new(config(21));
    if tracing {
        rt.enable_tracing();
    }
    for peer in 0..rt.config.n_peers {
        rt.join_peer(peer, 4);
    }
    rt.replication_phase();
    rt.run_until(10_000);
    rt.start_construction();
    rt.run_until(300_000);
    rt
}

/// Issues the same deterministic lookup load against a built runtime.
fn run_load(rt: &mut Runtime) {
    let keys: Vec<Key> = rt
        .original_entries_of(IndexId::PRIMARY)
        .iter()
        .map(|e| e.key)
        .collect();
    for chunk in keys.chunks(32).take(8) {
        rt.issue_query_batch_on(IndexId::PRIMARY, chunk);
        let now = rt.now();
        rt.run_until(now + 5_000);
    }
    let drain = rt.now() + rt.config.query_timeout_ms + 1;
    rt.run_until(drain);
}

#[test]
fn query_outcomes_are_identical_with_tracing_on_or_off() {
    let mut plain = built(false);
    let mut traced = built(true);
    run_load(&mut plain);
    run_load(&mut traced);

    // Same final overlay: tracing never consumed the RNG.
    for peer in 0..plain.config.n_peers {
        assert_eq!(
            plain.peer_state(IndexId::PRIMARY, peer).path,
            traced.peer_state(IndexId::PRIMARY, peer).path,
            "tracing changed the construction trajectory of peer {peer}"
        );
    }
    // Same query outcomes, hop counts and latency distribution.
    let a = plain.metrics.stats(IndexId::PRIMARY);
    let b = traced.metrics.stats(IndexId::PRIMARY);
    assert_eq!(a.issued, b.issued);
    assert_eq!(a.answered, b.answered);
    assert_eq!(a.succeeded, b.succeeded);
    assert_eq!(a.timed_out, b.timed_out);
    assert_eq!(a.hops_sum_successful, b.hops_sum_successful);
    assert_eq!(a.latency.sparse_buckets(), b.latency.sparse_buckets());

    // The tracing-disabled runtime recorded no trace events at all.
    assert!(plain.tracer.events().is_empty());
    assert!(!plain.tracer.is_enabled());
}

#[test]
fn enabled_tracing_reassembles_complete_hop_chains() {
    let mut rt = built(true);
    run_load(&mut rt);
    let chains = assemble(rt.tracer.events());

    // Ambient events: exchange decisions and sampled frames.
    let ambient = chains.get(&AMBIENT_TRACE).expect("ambient events recorded");
    assert!(ambient.iter().any(|e| e.kind == "frame_sent"));
    // Each decision names its outcome, so a trace shows which exchanges
    // shipped entries: a referral never does, a want is answered with them.
    let decided = |outcome: &str| {
        ambient
            .iter()
            .any(|e| e.kind == "exchange_decision" && e.detail.split(' ').any(|f| f == outcome))
    };
    assert!(decided("outcome=refer"), "no referral was traced");
    assert!(decided("outcome=want"), "no want was traced");
    // Arrivals are sampled on their own count: one `frame_received` event
    // per 64 frames delivered, whatever the sends in between.
    assert_eq!(rt.tracer.dropped(), 0);
    let received = ambient
        .iter()
        .filter(|e| e.kind == "frame_received")
        .count() as u64;
    let delivered = rt.transport_stats().frames_delivered;
    assert!(
        received.abs_diff(delivered / 64) <= 1,
        "{received} frame_received events for {delivered} frames delivered"
    );

    // At least one lookup chain runs issue → (hops) → answer → resolve,
    // in virtual-time order.
    let complete = chains
        .iter()
        .filter(|(&id, _)| id != AMBIENT_TRACE)
        .filter(|(_, chain)| {
            chain.first().is_some_and(|e| e.kind == "query_issued")
                && chain.iter().any(|e| e.kind == "query_answered")
                && chain.last().is_some_and(|e| e.kind == "query_resolved")
        })
        .count();
    assert!(
        complete > 0,
        "no complete hop chain among {} traces",
        chains.len()
    );
    // Multi-hop lookups exist in a 48-peer trie.
    assert!(
        chains
            .iter()
            .any(|(_, chain)| chain.iter().any(|e| e.kind == "query_hop")),
        "no forwarded lookup was traced"
    );
    // Every trace event of a lookup chain renders as one JSON line.
    for chain in chains.values() {
        for event in chain {
            assert!(event.to_json().starts_with("{\"trace_id\": "));
        }
    }
}

#[test]
fn forced_query_timeout_dumps_the_flight_recorder() {
    let dir = std::env::temp_dir().join("pgrid_net_flight_dump_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("flight.jsonl");
    let _ = std::fs::remove_file(&path);

    let mut rt = built(false);
    rt.flight_dump = Some(path.clone());
    // Sever the network: every frame from now on is lost, so every lookup
    // must expire unanswered and trigger the dump.
    rt.config.loss_probability = 1.0;
    let keys: Vec<Key> = rt
        .original_entries_of(IndexId::PRIMARY)
        .iter()
        .take(4)
        .map(|e| e.key)
        .collect();
    rt.issue_query_batch_on(IndexId::PRIMARY, &keys);
    let deadline = rt.now() + rt.config.query_timeout_ms + 1;
    rt.run_until(deadline);

    assert_eq!(rt.metrics.stats(IndexId::PRIMARY).timed_out, 4);
    let dump = std::fs::read_to_string(&path).expect("flight dump written");
    let lines: Vec<&str> = dump.lines().collect();
    assert!(lines.len() >= 2, "dump has a header plus notes: {dump}");
    assert!(lines[0].contains("\"reason\": \"query timeout\""));
    assert!(dump.contains("\"kind\": \"query_timeout\""));
    std::fs::remove_dir_all(&dir).ok();
}
