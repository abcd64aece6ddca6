use super::links::{LINK_SUSPECT_BACKOFF_MS, STAGING_RETAIN_BYTES};
use super::*;
use crate::message::Message;
use bytes::Bytes;
use pgrid_core::path::Path;
use pgrid_core::routing::{RoutingEntry, RoutingTable};
use pgrid_core::search;
use pgrid_transport::frame::{self, encode_frame, payload_slices};
use pgrid_transport::LinkFault;
use rand::Rng;

/// The overlay state of `peer`.
fn primary(rt: &Runtime, peer: usize) -> &PeerState {
    rt.peer_state(IndexId::PRIMARY, peer)
}

/// The ground-truth keys.
fn primary_keys(rt: &Runtime) -> Vec<Key> {
    rt.original_entries_of(IndexId::PRIMARY)
        .iter()
        .map(|e| e.key)
        .collect()
}

/// Joins peers `0..n`, runs the replication phase and constructs the
/// overlay until virtual time `until`.
fn construct(rt: &mut Runtime, n: usize, until: Millis) {
    for i in 0..n {
        rt.join_peer(i, 4);
    }
    rt.replication_phase();
    rt.run_until(10_000);
    rt.start_construction();
    rt.run_until(until);
}

fn small_runtime() -> Runtime {
    Runtime::new(NetConfig {
        n_peers: 48,
        seed: 3,
        ..NetConfig::default()
    })
}

#[test]
fn peers_join_and_form_an_unstructured_overlay() {
    let mut rt = small_runtime();
    for i in 0..48 {
        rt.join_peer(i, 4);
    }
    assert_eq!(rt.online_count(), 48);
    // every peer except the very first has neighbours
    let lonely = rt.peers.iter().filter(|p| p.neighbours.is_empty()).count();
    assert!(lonely <= 1, "{lonely} peers without neighbours");
}

#[test]
fn construction_builds_a_trie_over_messages() {
    let mut rt = small_runtime();
    construct(&mut rt, 48, 400_000);
    let max_depth = (0..48).map(|p| primary(&rt, p).path.len()).max().unwrap();
    assert!(max_depth >= 2, "max depth {max_depth}");
    // routing tables stay consistent with paths
    for peer in 0..48 {
        assert!(primary(&rt, peer).invariants_hold());
    }
    assert!(rt.metrics.messages_delivered > 100);
}

#[test]
fn queries_succeed_after_construction() {
    let mut rt = small_runtime();
    construct(&mut rt, 48, 400_000);
    // query for existing keys
    let keys = primary_keys(&rt);
    for i in 0..100 {
        rt.issue_query_batch_on(IndexId::PRIMARY, &[keys[i * 3 % keys.len()]]);
        rt.run_until(rt.now() + 2_000);
    }
    rt.run_until(rt.now() + 30_000);
    let stats = rt.metrics.stats(IndexId::PRIMARY);
    assert_eq!(stats.issued, 100);
    assert_eq!(stats.answered + stats.timed_out, 100);
    assert!(
        stats.succeeded >= 85,
        "only {}/100 queries succeeded",
        stats.succeeded
    );
    assert!(
        stats.answered >= 90,
        "only {}/100 queries answered",
        stats.answered
    );
    assert_eq!(stats.latency.total(), stats.answered);
    assert!(stats.latency.p99().is_some());
    // the debug sample ring kept (at most a cap of) resolved queries
    assert_eq!(
        rt.metrics.query_samples.len(),
        100.min(rt.metrics.sample_cap)
    );
}

#[test]
fn sample_ring_is_capped_and_can_be_disabled() {
    let mut rt = Runtime::new(NetConfig {
        n_peers: 16,
        seed: 9,
        query_sample_cap: 8,
        ..NetConfig::default()
    });
    construct(&mut rt, 16, 200_000);
    let keys = primary_keys(&rt);
    for i in 0..40 {
        rt.issue_query_batch_on(IndexId::PRIMARY, &[keys[i % keys.len()]]);
        rt.run_until(rt.now() + 2_000);
    }
    rt.run_until(rt.now() + 30_000);
    assert_eq!(rt.metrics.stats(IndexId::PRIMARY).issued, 40);
    assert_eq!(rt.metrics.query_samples.len(), 8);

    let mut quiet = Runtime::new(NetConfig {
        n_peers: 16,
        seed: 9,
        query_sample_cap: 0,
        ..NetConfig::default()
    });
    construct(&mut quiet, 16, 200_000);
    let keys = primary_keys(&quiet);
    quiet.issue_query_batch_on(IndexId::PRIMARY, &[keys[0]]);
    quiet.run_until(quiet.now() + 30_000);
    assert_eq!(quiet.metrics.stats(IndexId::PRIMARY).issued, 1);
    assert!(quiet.metrics.query_samples.is_empty());
}

#[test]
fn late_responses_never_flip_a_timeout_verdict() {
    // A 1ms timeout with a 50ms network guarantees every response
    // arrives after its query expired: the timeout verdict must stand
    // and the late response must be counted separately, exactly once.
    let mut rt = Runtime::new(NetConfig {
        n_peers: 2,
        seed: 5,
        query_timeout_ms: 1,
        latency_min_ms: 50,
        latency_max_ms: 60,
        ..NetConfig::default()
    });
    for i in 0..2 {
        rt.join_peer(i, 2);
    }
    rt.replication_phase();
    rt.run_until(5_000);
    rt.start_construction();
    rt.run_until(100_000);
    let key = primary_keys(&rt)[0];
    rt.issue_query_batch_on(IndexId::PRIMARY, &[key]);
    rt.run_until(rt.now() + 10_000);
    let stats = rt.metrics.stats(IndexId::PRIMARY);
    assert_eq!(stats.issued, 1);
    assert_eq!(stats.timed_out, 1, "query must expire before any response");
    assert_eq!(stats.answered, 0);
    assert_eq!(stats.succeeded, 0);
    assert!(
        stats.late_responses >= 1,
        "the post-timeout response must be counted as late"
    );
    assert_eq!(stats.latency.total(), 0);
}

#[test]
fn empty_and_whole_keyspace_ranges_resolve() {
    let mut rt = small_runtime();
    construct(&mut rt, 48, 400_000);

    // lo > hi: resolves immediately as complete and empty
    let id = rt
        .issue_range_query_on(IndexId::PRIMARY, Key::MAX, Key::MIN)
        .expect("peers online");
    let empty = rt
        .metrics
        .range_samples
        .iter()
        .find(|s| s.id == id)
        .expect("empty range resolved synchronously");
    assert!(empty.complete);
    assert!(empty.entries.is_empty());

    // whole keyspace: must return every stored key
    let id = rt
        .issue_range_query_on(IndexId::PRIMARY, Key::MIN, Key::MAX)
        .expect("peers online");
    rt.run_until(rt.now() + rt.config.query_timeout_ms + 60_000);
    let whole = rt
        .metrics
        .range_samples
        .iter()
        .find(|s| s.id == id)
        .expect("whole-keyspace range resolved");
    assert!(whole.complete, "whole-keyspace walk did not cover [0, MAX]");
    let got: Vec<Key> = whole.entries.iter().map(|e| e.key).collect();
    // Completeness guarantee of a replicated overlay: a key that every
    // online replica of its partition stores must be returned (one of
    // those replicas answered its slice).
    for key in certainly_stored_keys(&rt, Key::MIN, Key::MAX) {
        assert!(got.contains(&key), "missing key {key:?}");
    }
    let stats = rt.metrics.stats(IndexId::PRIMARY);
    assert_eq!(stats.ranges_issued, 2);
    assert_eq!(stats.ranges_complete, 2);
}

/// Keys of the ground-truth corpus in `[lo, hi]` that *every* online
/// replica of their partition stores — the set a single-replica-per-slice
/// range walk is guaranteed to return regardless of which replica
/// answers each slice.
fn certainly_stored_keys(rt: &Runtime, lo: Key, hi: Key) -> Vec<Key> {
    let mut keys = primary_keys(rt);
    keys.retain(|k| *k >= lo && *k <= hi);
    keys.sort_unstable();
    keys.dedup();
    keys.retain(|&key| {
        let holders: Vec<&PeerState> = rt
            .peers
            .iter()
            .map(|p| &p.state)
            .filter(|state| state.online && state.path.covers(key))
            .collect();
        !holders.is_empty() && holders.iter().all(|state| state.store.contains_key(key))
    });
    keys
}

/// Issues `[lo, hi]`, lets it resolve and checks the result against brute
/// force: complete, sound (only corpus keys inside the range) and complete
/// up to the certainty bound.  Background anti-entropy keeps mutating
/// stores, so the completeness oracle is evaluated at issue time (the state
/// the walk reads) and only keys still certain after it resolved count.
/// Returns the keys that came back.
fn range_against_brute_force(rt: &mut Runtime, lo: Key, hi: Key) -> Result<Vec<Key>, String> {
    let certain_pre = certainly_stored_keys(rt, lo, hi);
    let id = rt
        .issue_range_query_on(IndexId::PRIMARY, lo, hi)
        .expect("peers online");
    rt.run_until(rt.now() + rt.config.query_timeout_ms + 60_000);
    let sample = rt.metrics.range_samples.iter().find(|s| s.id == id);
    let sample = sample.expect("range resolved");
    if !sample.complete {
        return Err("incomplete".into());
    }
    let got: Vec<Key> = sample.entries.iter().map(|e| e.key).collect();
    let corpus = primary_keys(rt);
    if let Some(key) = got.iter().find(|k| **k < lo || **k > hi) {
        return Err(format!("{key:?} outside range"));
    }
    if let Some(key) = got.iter().find(|k| !corpus.contains(k)) {
        return Err(format!("fabricated {key:?}"));
    }
    let certain_post = certainly_stored_keys(rt, lo, hi);
    let mut certain = certain_pre.iter().filter(|k| certain_post.contains(k));
    match certain.find(|k| !got.contains(k)) {
        Some(key) => Err(format!("missing {key:?}")),
        None => Ok(got),
    }
}

mod range_parity {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        // Parity against brute force on randomly seeded overlays and
        // random bounds.
        #[test]
        fn prop_net_range_matches_brute_force(
            seed in 0u64..1000,
            a in 0.0f64..1.0,
            b in 0.0f64..1.0,
        ) {
            let mut rt = Runtime::new(NetConfig {
                n_peers: 24,
                seed,
                ..NetConfig::default()
            });
            construct(&mut rt, 24, 250_000);
            let (lo, hi) = (
                Key::from_fraction(a.min(b)),
                Key::from_fraction(a.max(b)),
            );
            let got = range_against_brute_force(&mut rt, lo, hi);
            prop_assert!(got.is_ok(), "seed {seed}: {got:?}");
        }
    }
}

#[test]
fn range_queries_match_brute_force_on_loopback() {
    let mut rt = small_runtime();
    construct(&mut rt, 48, 400_000);
    let mut corpus = primary_keys(&rt);
    corpus.sort_unstable();
    corpus.dedup();
    for (frac_lo, frac_hi) in [(0.1, 0.3), (0.4, 0.45), (0.0, 0.9), (0.7, 0.71)] {
        let lo = Key::from_fraction(frac_lo);
        let hi = Key::from_fraction(frac_hi);
        let got = range_against_brute_force(&mut rt, lo, hi)
            .unwrap_or_else(|e| panic!("range [{frac_lo}, {frac_hi}]: {e}"));
        // The walk should not be systematically lossy either: nearly the
        // whole brute-force corpus slice comes back.
        let in_range = corpus.iter().filter(|k| **k >= lo && **k <= hi).count();
        assert!(
            got.len() * 100 >= in_range * 95,
            "range [{frac_lo}, {frac_hi}] returned {}/{in_range}",
            got.len()
        );
    }
}

#[test]
fn route_cache_returns_the_same_results() {
    let run = |route_cache: bool| {
        let mut rt = Runtime::new(NetConfig {
            n_peers: 48,
            seed: 3,
            route_cache,
            ..NetConfig::default()
        });
        construct(&mut rt, 48, 400_000);
        let keys = primary_keys(&rt);
        for i in 0..100 {
            rt.issue_query_batch_on(IndexId::PRIMARY, &[keys[i * 3 % keys.len()]]);
            rt.run_until(rt.now() + 2_000);
        }
        rt.run_until(rt.now() + 30_000);
        rt.metrics.stats(IndexId::PRIMARY)
    };
    let cold = run(false);
    let warm = run(true);
    assert_eq!(cold.issued, warm.issued);
    // The cache changes routing trajectories (no per-hop shuffle), not
    // outcomes: success counts must stay in the same band.
    assert!(
        warm.succeeded >= cold.succeeded.saturating_sub(5),
        "cache degraded success rate: {} vs {}",
        warm.succeeded,
        cold.succeeded
    );
}

#[test]
fn bandwidth_is_accounted_per_class() {
    let mut rt = small_runtime();
    for i in 0..48 {
        rt.join_peer(i, 4);
    }
    rt.replication_phase();
    rt.run_until(20_000);
    let maintenance: usize = rt
        .metrics
        .bandwidth_per_minute
        .values()
        .map(|b| b.maintenance_bytes)
        .sum();
    assert!(maintenance > 1_000);
    let query: usize = rt
        .metrics
        .bandwidth_per_minute
        .values()
        .map(|b| b.query_bytes)
        .sum();
    assert_eq!(query, 0);
}

#[test]
fn churn_takes_peers_offline_and_back() {
    let mut rt = small_runtime();
    for i in 0..48 {
        rt.join_peer(i, 4);
    }
    rt.schedule_churn(0, 1_000, 5_000);
    rt.schedule_churn(1, 1_000, 5_000);
    rt.run_until(2_000);
    assert_eq!(rt.online_count(), 46);
    rt.run_until(10_000);
    assert_eq!(rt.online_count(), 48);
}

#[test]
fn lost_messages_are_counted() {
    let mut rt = Runtime::new(NetConfig {
        n_peers: 16,
        loss_probability: 1.0,
        ..NetConfig::default()
    });
    for i in 0..16 {
        rt.join_peer(i, 4);
    }
    rt.replication_phase();
    rt.run_until(5_000);
    assert!(rt.metrics.messages_lost > 0);
    assert_eq!(rt.metrics.messages_delivered, 0);
}

/// Builds a sharded loopback runtime hosting peers `0..n-1` with the
/// final peer pre-registered (an endpoint a "dead" worker used to own).
fn sharded_with_spare(n: usize, seed: u64) -> Runtime {
    let config = NetConfig {
        n_peers: n,
        seed,
        ..NetConfig::default()
    };
    let mut transport = LoopbackTransport::new(LoopbackConfig {
        latency_min_ms: config.latency_min_ms,
        latency_max_ms: config.latency_max_ms,
        seed: config.seed ^ 0x7A4E,
    });
    transport
        .register(PeerId((n - 1) as u64))
        .expect("spare endpoint");
    Runtime::with_transport_sharded(config, transport, 0..n - 1).expect("sharded runtime")
}

#[test]
fn replica_rebuild_restores_exact_keystore() {
    let mut rt = sharded_with_spare(24, 7);
    construct(&mut rt, 23, 400_000);

    // Snapshot the live source peer 23 will be rebuilt from.
    let source = 0;
    let want_path = primary(&rt, source).path;
    let want_entries: Vec<DataEntry> = primary(&rt, source).store.iter().copied().collect();
    let mut want_routing: Vec<(usize, PeerId)> = primary(&rt, source)
        .routing
        .entries()
        .map(|(level, e)| (level, e.peer))
        .collect();
    want_routing.sort_unstable();
    assert!(!want_entries.is_empty(), "source must hold data");

    rt.adopt_peer(23);
    assert_eq!(rt.adopted_peers(), vec![23]);
    assert!(!rt.peers[23].state.online, "adopted peer starts offline");
    rt.begin_replica_pull(23, source);
    assert_eq!(rt.pending_recoveries(), 1);
    let deadline = rt.now() + 30_000;
    while rt.pending_recoveries() > 0 && rt.now() < deadline {
        let next = rt.now() + 50;
        rt.run_until(next);
    }
    assert_eq!(rt.pending_recoveries(), 0, "pull must complete");
    assert_eq!(rt.metrics.peers_recovered_replica, 1);

    // Exact rebuild: path, every key, and the routing topology match
    // the replica snapshot bit-for-bit.
    let got = primary(&rt, 23);
    assert!(rt.peers[23].state.online);
    assert_eq!(got.path, want_path);
    let got_entries: Vec<DataEntry> = got.store.iter().copied().collect();
    assert_eq!(got_entries, want_entries);
    let mut got_routing: Vec<(usize, PeerId)> = got
        .routing
        .entries()
        .map(|(level, e)| (level, e.peer))
        .collect();
    got_routing.sort_unstable();
    assert_eq!(got_routing, want_routing);
    assert!(
        got.replicas.contains(&PeerId(source as u64)),
        "recovered peer must list its source as a replica"
    );
    assert!(!got.replicas.contains(&PeerId(23)));
    assert!(
        primary(&rt, source).replicas.contains(&PeerId(23)),
        "source must adopt the recovered peer as a replica"
    );
    assert_eq!(rt.metrics.peers_adopted, 1);
    assert_eq!(rt.metrics.peers_recovered_replica, 1);
}

#[test]
fn local_recovery_fallback_restores_original_entries() {
    let mut rt = sharded_with_spare(16, 11);
    for i in 0..15 {
        rt.join_peer(i, 4);
    }
    rt.replication_phase();
    rt.run_until(10_000);

    // No live replica reachable: fall back to the seeded regeneration
    // every process holds (same seed => same original entries).
    let want: Vec<DataEntry> = primary(&rt, 15).store.iter().copied().collect();
    assert!(!want.is_empty());
    rt.adopt_peer(15);
    let path = primary(&rt, 15).path;
    rt.recover_locally(15, path);
    assert_eq!(rt.pending_recoveries(), 0);
    assert!(rt.peers[15].state.online);
    let got: Vec<DataEntry> = primary(&rt, 15).store.iter().copied().collect();
    assert_eq!(got, want);
    assert_eq!(rt.metrics.peers_recovered_local, 1);
}

/// Runs a converged construction and returns (runtime, peer, replica)
/// where `peer` holds at least two entries and lists `replica`.
fn converged_with_replica(seed: u64) -> (Runtime, usize, usize) {
    let mut rt = Runtime::new(NetConfig {
        n_peers: 16,
        seed,
        ..NetConfig::default()
    });
    construct(&mut rt, 16, 400_000);
    for a in 0..16 {
        let state = primary(&rt, a);
        if state.store.len() >= 2 && !state.path.is_empty() {
            if let Some(r) = state.replicas.first() {
                let r = r.0 as usize;
                return (rt, a, r);
            }
        }
    }
    panic!("no converged peer with data and a replica");
}

#[test]
fn warm_restore_then_reconcile_merges_missing_entries() {
    let (mut rt, a, r) = converged_with_replica(9);
    let path = primary(&rt, a).path;
    let full: Vec<DataEntry> = primary(&rt, a).store.iter().copied().collect();
    let replica_set: std::collections::BTreeSet<DataEntry> =
        primary(&rt, r).store.iter().copied().collect();
    // Drop an entry the replica also holds: a stale journal image.
    let dropped = *full
        .iter()
        .find(|e| replica_set.contains(e))
        .expect("replica shares at least one entry");
    let stale: Vec<DataEntry> = full.iter().copied().filter(|e| *e != dropped).collect();
    let routing: Vec<(u8, PeerId, Path)> = primary(&rt, a)
        .routing
        .entries()
        .map(|(level, e)| (level as u8, e.peer, e.path))
        .collect();
    let replicas = primary(&rt, a).replicas.clone();

    rt.restore_peer(a, path, stale.clone(), routing, replicas, false);
    assert_eq!(rt.metrics.peers_recovered_warm, 1);
    assert_eq!(primary(&rt, a).store.len(), full.len() - 1);
    assert!(rt.peers[a].state.online);

    rt.begin_replica_diff(a, r);
    assert_eq!(rt.pending_reconciliations(), 1);
    assert!(rt.recovery.reconciling.iter().eq([&a]));
    let deadline = rt.now() + 30_000;
    while rt.pending_reconciliations() > 0 && rt.now() < deadline {
        let next = rt.now() + 50;
        rt.run_until(next);
    }
    assert_eq!(rt.pending_reconciliations(), 0, "diff must complete");
    assert_eq!(rt.metrics.peers_reconciled, 1);
    assert!(rt.metrics.reconciled_entries >= 1);
    // Same partition: the replica's answer is merged, not adopted —
    // the dropped entry is back and nothing replayed was lost.
    let got: std::collections::BTreeSet<DataEntry> =
        primary(&rt, a).store.iter().copied().collect();
    assert_eq!(primary(&rt, a).path, path);
    assert!(got.contains(&dropped), "reconciliation restores the gap");
    for e in &stale {
        assert!(got.contains(e), "merge must not lose replayed entries");
    }
}

#[test]
fn reconcile_adopts_diverged_partition_path() {
    let (mut rt, a, r) = converged_with_replica(13);
    let path = primary(&rt, a).path;
    let full: Vec<DataEntry> = primary(&rt, a).store.iter().copied().collect();
    let replicas = primary(&rt, a).replicas.clone();
    // Journal image from before the partition's last split: one bit
    // shorter than the live replicas' path.
    let mut parent = Path::ROOT;
    for i in 0..path.len() - 1 {
        parent = parent.child(path.bit(i));
    }
    rt.restore_peer(a, parent, full.clone(), Vec::new(), replicas, false);
    assert_eq!(primary(&rt, a).path, parent);

    rt.begin_replica_diff(a, r);
    let deadline = rt.now() + 30_000;
    while rt.pending_reconciliations() > 0 && rt.now() < deadline {
        let next = rt.now() + 50;
        rt.run_until(next);
    }
    assert_eq!(rt.pending_reconciliations(), 0, "diff must complete");
    assert_eq!(rt.metrics.peers_reconciled, 1);
    // Diverged path: the replica's identity wins; replayed entries it
    // still covers are kept.
    let live_path = primary(&rt, a).path;
    assert_eq!(live_path, primary(&rt, r).path);
    let got: std::collections::BTreeSet<DataEntry> =
        primary(&rt, a).store.iter().copied().collect();
    for e in full.iter().filter(|e| live_path.covers(e.key)) {
        assert!(got.contains(e), "covered replayed entries survive adoption");
    }
}

#[test]
fn link_failures_back_off_then_die_and_revive() {
    let mut rt = small_runtime();
    assert_eq!(rt.link_health(3), LinkHealth::Connected);
    assert!(rt.links.ok(3));

    rt.record_link_failure(3);
    match rt.link_health(3) {
        LinkHealth::Suspect { retry_at, failures } => {
            assert_eq!(failures, 1);
            assert_eq!(retry_at, rt.now() + LINK_SUSPECT_BACKOFF_MS);
        }
        other => panic!("expected Suspect, got {other:?}"),
    }
    assert!(rt.links.ok(3), "suspect links stay query candidates");

    rt.record_link_failure(3);
    match rt.link_health(3) {
        LinkHealth::Suspect { retry_at, failures } => {
            assert_eq!(failures, 2);
            // backoff doubles per consecutive failure
            assert_eq!(retry_at, rt.now() + 2 * LINK_SUSPECT_BACKOFF_MS);
        }
        other => panic!("expected Suspect, got {other:?}"),
    }

    rt.record_link_failure(3);
    assert_eq!(rt.link_health(3), LinkHealth::Dead);
    assert!(!rt.links.ok(3), "dead links are skipped as candidates");
    assert_eq!(rt.metrics.links_suspected, 1);
    assert_eq!(rt.metrics.links_dead, 1);

    rt.revive_link(3);
    assert_eq!(rt.link_health(3), LinkHealth::Connected);
    assert!(rt.links.ok(3));
}

/// Runs core's reference pick as peer 0 at level 0 through the runtime's
/// route cache: the hop and whether the memo answered.
fn pick_at_level_zero(rt: &mut Runtime) -> (Option<PeerId>, bool) {
    rt.routed(0, |state, _, pick| pick(0, state.routing.level(0)))
}

#[test]
fn the_route_cache_is_a_memo_in_front_of_the_reference_pick() {
    // Peer 0 references peers 1..=3 at level 0 and has peer 2 memoised;
    // the `down` peers are offline, the `dead` ones behind a Dead link.
    // Returns the hop, whether the memo answered, whether the RNG was
    // drawn, and the memo afterwards.
    let pick = |down: &[usize], dead: &[usize]| {
        let mut rt = Runtime::new(NetConfig {
            n_peers: 4,
            route_cache: true,
            ..NetConfig::default()
        });
        for peer in 0..4 {
            rt.join_peer(peer, 3);
        }
        for peer in 1..4 {
            let entry = RoutingEntry {
                peer: PeerId(peer),
                path: Path::parse("1"),
            };
            let table = &mut rt.peers[0].state.routing;
            table.add(0, entry, &mut rt.rng);
        }
        let memo = (0, 0);
        rt.lookups.route_cache.insert(memo, PeerId(2));
        down.iter().for_each(|&p| rt.peers[p].state.online = false);
        dead.iter()
            .for_each(|&p| (0..3).for_each(|_| rt.record_link_failure(p)));
        let next_draw = |rt: &Runtime| rt.rng.clone().gen::<u64>();
        let before = next_draw(&rt);
        let (hop, cached) = pick_at_level_zero(&mut rt);
        let drew = next_draw(&rt) != before;
        let memo = rt.lookups.route_cache.get(&memo).copied();
        (hop, cached, drew, memo)
    };
    // A reachable memo answers without a draw.
    let hit = Some(PeerId(2));
    assert_eq!(pick(&[], &[]), (hit, true, false, hit));
    // An offline or link-dead memo is evicted; core's shuffle picks anew
    // and its pick is memoised.
    for (down, dead) in [(&[2][..], &[][..]), (&[], &[2])] {
        let (hop, cached, drew, memo) = pick(down, dead);
        assert!(matches!(hop, Some(PeerId(1 | 3))), "{hop:?}");
        assert_eq!((cached, drew, memo), (false, true, hop));
    }
    // Nothing reachable: no hop, and no memo left.
    let (hop, _, _, memo) = pick(&[1, 2], &[3]);
    assert_eq!((hop, memo), (None, None));
}

#[test]
fn core_routing_reproduces_the_runtime_lookups_and_ranges() {
    // Lossless, constant latency, construction stopped and every tick
    // chain ended: from here on only queries draw from the runtime's RNG,
    // one origin draw per query, core's picks and detours, and one loss
    // draw per frame — the draw `loss` adds to core's walk.
    let mut rt = Runtime::new(NetConfig {
        n_peers: 48,
        seed: 3,
        loss_probability: 0.0,
        latency_min_ms: 10,
        latency_max_ms: 10,
        ..NetConfig::default()
    });
    construct(&mut rt, 48, 400_000);
    // Every peer is down for 300 s: each chain's next tick finds its peer
    // offline and ends the chain.
    let now = rt.now();
    (0..48).for_each(|peer| rt.schedule_churn(peer, now, 300_000));
    rt.run_until(now + 300_000);
    // Every sixth peer forgets its references: lookups through it dead-end
    // and range walks detour.
    assert!(rt.peers.iter().all(|p| !p.tick_armed));
    (0..48)
        .step_by(6)
        .for_each(|p| rt.peers[p].state.routing = RoutingTable::new(5));
    let peers: Vec<PeerState> = rt.peers.iter().map(|p| p.state.clone()).collect();
    let loss = |rng: &mut StdRng, frames: usize| {
        (0..frames).for_each(|_| assert!(!rng.gen_bool(0.0)));
    };
    let origin = |rt: &Runtime, rng: &mut StdRng| {
        PeerId(rt.online_hosted[rng.gen_range(0..rt.online_hosted.len())] as u64)
    };

    let keys = primary_keys(&rt);
    let (mut found, mut relayed) = (0, 0);
    for i in 0..240 {
        // Even queries ask for a stored key, odd ones almost surely for an
        // absent one.
        let key = match i % 2 {
            0 => keys[i * 7 % keys.len()],
            _ => Key((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        };
        let mut rng = rt.rng.clone();
        let start = origin(&rt, &mut rng);
        let want = search::lookup_framed(&peers, start, key, &mut rng, loss);
        rt.issue_query_batch_on(IndexId::PRIMARY, &[key]);
        rt.run_until(rt.now() + 5_000);
        let got = rt.metrics.query_samples.back().expect("lookup resolved");
        assert_eq!(
            (got.success, got.hops as usize),
            (want.is_success(), want.hops),
            "lookup {i} ({:?})",
            want.dead_end
        );
        found += usize::from(want.is_success());
        relayed += usize::from(want.hops > 0);
    }
    assert!(found >= 80 && relayed >= 100, "{found}, {relayed}");

    for i in 0..24 {
        let lo = Key::from_fraction(i as f64 / 24.0);
        let hi = Key::from_fraction(i as f64 / 24.0 + 0.08);
        let mut rng = rt.rng.clone();
        let start = origin(&rt, &mut rng);
        let want = search::range_query_framed(&peers, start, lo, hi, &mut rng, loss);
        let id = rt
            .issue_range_query_on(IndexId::PRIMARY, lo, hi)
            .expect("peers online");
        rt.run_until(rt.now() + 5_000);
        let got = rt.metrics.range_samples.iter().find(|s| s.id == id);
        let got = got.expect("range resolved");
        assert!(got.complete, "range {i}");
        assert_eq!(
            (&got.entries, got.complete, got.hops as usize),
            (&want.entries, want.complete, want.hops),
            "range {i}"
        );
    }
}

/// A lossless runtime whose loopback latency is constant, so
/// `transport.poll` hands frames back in the order they were shipped.
fn fixed_latency_runtime() -> Runtime {
    let mut rt = Runtime::new(NetConfig {
        n_peers: 8,
        loss_probability: 0.0,
        latency_min_ms: 10,
        latency_max_ms: 10,
        ..NetConfig::default()
    });
    for peer in 0..8 {
        rt.join_peer(peer, 3);
    }
    rt
}

/// Everything the transport has in flight, in shipping order.
fn shipped_frames(rt: &mut Runtime) -> Vec<(usize, Bytes)> {
    let frames = rt.links.transport.poll(rt.now() + 10);
    frames
        .into_iter()
        .map(|(to, frame)| (to.0 as usize, frame))
        .collect()
}

fn replicate_of(n: usize) -> Message {
    Message::Replicate {
        entries: vec![DataEntry::new(Key(7), DataId(7)); n],
    }
}

#[test]
fn a_flush_ships_one_frame_per_destination_in_order() {
    let query = |id| Message::Query {
        origin: PeerId(1),
        id,
        key: Key(id << 40),
        hops: id as u32,
    };
    // (actor, destination, message): three destinations, interleaved, from
    // two actors; destination 5 hears from 2 first, destination 3 from 1.
    let sends = [
        (2, 5, query(0)),
        (1, 3, Message::Join { peer: PeerId(1) }),
        (2, 3, query(2)),
        (1, 5, replicate_of(3)),
        (2, 4, query(4)),
        (2, 5, query(5)),
        (1, 3, query(6)),
    ];
    let expected = |to: usize| {
        let batch: Vec<Bytes> = sends
            .iter()
            .filter(|(_, dest, _)| *dest == to)
            .map(|(_, _, message)| message.encode())
            .collect();
        (to, encode_frame(&batch))
    };
    let stage = |rt: &mut Runtime| {
        for (actor, to, message) in &sends {
            rt.links.actor = *actor;
            rt.send(*to, message.clone());
        }
        rt.flush_pending();
    };

    let charged = |rt: &Runtime| -> usize {
        let buckets = rt.metrics.bandwidth_per_minute.values();
        buckets.map(|b| b.maintenance_bytes + b.query_bytes).sum()
    };

    let mut rt = fixed_latency_runtime();
    let charged_before = charged(&rt);
    stage(&mut rt);
    // Ascending destination, send order inside a frame, the bytes of
    // `encode_frame` over the individually encoded messages.
    assert_eq!(
        shipped_frames(&mut rt),
        vec![expected(3), expected(4), expected(5)]
    );
    assert_eq!(rt.metrics.multi_message_frames, 2);
    // What was charged is what was sent.
    let sent: usize = sends.iter().map(|(_, _, m)| m.encode().len()).sum();
    assert_eq!(charged(&rt) - charged_before, sent);

    // A frame is stamped with the *first* sender of its batch: with peer 1
    // split off, only the frame to 3 (first heard from 1) is dropped — the
    // frame to 5 also carries a message of 1 but was opened by 2.
    let now = rt.now();
    assert!(rt.inject_link_fault(LinkFault::Partition {
        groups: vec![vec![PeerId(1)], (2..8).map(PeerId).collect()],
        from: now,
        until: now + 1_000,
    }));
    stage(&mut rt);
    assert_eq!(shipped_frames(&mut rt), vec![expected(4), expected(5)]);
    assert_eq!(rt.links.transport.frames_dropped(), 1);
    // Nothing stays behind: an empty flush ships nothing.
    rt.flush_pending();
    assert!(shipped_frames(&mut rt).is_empty());
}

#[test]
fn an_oversized_batch_splits_before_the_message_that_crosses_the_budget() {
    // The budget (16 MiB) counts every payload plus its 4-byte length.  A
    // `Replicate` of n entries is 5 + 16n bytes, so two of them holding
    // 1 048 574 entries come to 16 MiB − 14: a 9-byte `Join` behind them
    // still fits (one byte to spare), a 13-byte `JoinAck` does not, and
    // with one entry more the second `Replicate` itself crosses the line.
    let budget = frame::MAX_FRAME_BYTES / 4;
    let join = Message::Join { peer: PeerId(2) };
    let ack = Message::JoinAck {
        neighbours: vec![PeerId(2)],
    };
    let cases: [(usize, &Message, &[usize]); 3] = [
        (48_574, &join, &[3]),
        (48_574, &ack, &[2, 1]),
        (48_575, &join, &[1, 2]),
    ];
    let mut rt = fixed_latency_runtime();
    for (second, third, frames) in cases {
        let batch = [replicate_of(1_000_000), replicate_of(second), third.clone()];
        let lens: Vec<usize> = batch.iter().map(Message::wire_size).collect();
        // The expectation, re-derived from the rule itself.
        let mut want: Vec<Vec<usize>> = vec![Vec::new()];
        for &len in &lens {
            let open: usize = want.last().unwrap().iter().map(|l| l + 4).sum();
            if open > 0 && open + len + 4 > budget {
                want.push(Vec::new());
            }
            want.last_mut().unwrap().push(len);
        }
        let counts: Vec<usize> = want.iter().map(Vec::len).collect();
        assert_eq!(counts, frames, "the case straddles the budget as described");

        rt.links.actor = 2;
        for message in batch {
            rt.send(6, message);
        }
        rt.flush_pending();
        let got: Vec<Vec<usize>> = shipped_frames(&mut rt)
            .iter()
            .map(|(to, frame)| {
                assert_eq!(*to, 6);
                let payloads = payload_slices(frame.as_slice()).expect("valid frame");
                payloads.map(<[u8]>::len).collect()
            })
            .collect();
        assert_eq!(got, want, "second message of {second} entries");
    }
}

#[test]
fn a_corrupt_frame_delivers_nothing_and_a_corrupt_payload_only_itself() {
    let mut rt = fixed_latency_runtime();
    let join = Message::Join { peer: PeerId(1) }.encode();
    let counters = |rt: &Runtime| (rt.metrics.messages_delivered, rt.metrics.decode_failures);

    // Control: the intact frame delivers both messages.
    let intact = encode_frame(&[join.clone(), join.clone()]);
    rt.deliver_frame(PeerId(3), intact.as_slice());
    assert_eq!(counters(&rt), (2, 0));

    // The second payload claims more bytes than the frame holds (the
    // outer length prefix is consistent): the first, perfectly valid
    // message must not be delivered either.
    let mut bytes = intact.as_slice().to_vec();
    bytes.pop();
    let body_len = (bytes.len() - 4) as u32;
    bytes[..4].copy_from_slice(&body_len.to_be_bytes());
    rt.deliver_frame(PeerId(3), &bytes);
    assert_eq!(counters(&rt), (2, 1));

    // A well-formed frame around an undecodable payload: that payload is
    // one failure, its neighbours are delivered.  A payload with bytes
    // after its message is such a payload.
    let mut padded = join.as_slice().to_vec();
    padded.push(0);
    let mixed = encode_frame(&[
        join.clone(),
        Bytes::from_static(&[99]),
        Bytes::from(padded),
        join,
    ]);
    rt.deliver_frame(PeerId(3), mixed.as_slice());
    assert_eq!(counters(&rt), (4, 3));
}

#[test]
fn an_exchange_in_a_trace_envelope_is_answered_like_a_bare_one() {
    // Two undecided peers at the root: the responder reads the entries,
    // decides with the RNG and replies.  The envelope changes nothing.
    let exchange = Message::Exchange {
        from: PeerId(1),
        path: Path::root(),
        entries: (0..40)
            .map(|i| DataEntry::new(Key(i << 56), DataId(100 + i)))
            .collect(),
    };
    let traced = Message::Traced {
        trace_id: 5,
        inner: Box::new(exchange.clone()),
    };
    let answer = |message: &Message| {
        let mut rt = fixed_latency_runtime();
        rt.deliver_frame(PeerId(3), encode_frame(&[message.encode()]).as_slice());
        assert_eq!(rt.metrics.messages_delivered, 1);
        rt.flush_pending();
        (shipped_frames(&mut rt), primary(&rt, 3).clone())
    };
    let (bare_frames, bare_state) = answer(&exchange);
    let (traced_frames, traced_state) = answer(&traced);
    assert_eq!(bare_frames.len(), 1, "one reply, to the initiator");
    assert_eq!(bare_frames, traced_frames);
    assert_eq!(bare_state.path, traced_state.path);
    assert_eq!(bare_state.store, traced_state.store);
}

#[test]
fn frames_due_in_one_millisecond_reach_their_handlers_in_send_order() {
    // Four queries that all fall due in the same millisecond.  The first
    // travels a link whose jitter offset is far beyond anything a bounded
    // delivery horizon covers; the other three are sent that much later,
    // jitter off, and travel the plain 10 ms.  Every handler answers the
    // same origin, so the one response frame lists them in handling order.
    let query = |id| Message::Query {
        origin: PeerId(1),
        id,
        key: Key(id << 40),
        hops: 0,
    };
    let mut rt = fixed_latency_runtime();
    let ship = |rt: &mut Runtime, actor: usize, to: usize, id: u64| {
        rt.links.actor = actor;
        rt.send(to, query(id));
        rt.flush_pending();
    };
    assert!(rt.inject_link_fault(LinkFault::Jitter { max_ms: 1_000_000 }));
    ship(&mut rt, 2, 6, 0);
    let due = rt.links.transport.next_due().expect("one frame in flight");
    assert!(due > 10 + 8_192, "the offset drawn for 2 → 6: {}", due - 10);
    rt.run_until(due - 10);
    assert_eq!((rt.now(), rt.links.transport.in_flight()), (due - 10, 1));
    assert!(rt.inject_link_fault(LinkFault::Jitter { max_ms: 0 }));
    ship(&mut rt, 3, 6, 1);
    ship(&mut rt, 4, 5, 2);
    ship(&mut rt, 2, 6, 3);
    assert_eq!(rt.links.transport.in_flight(), 4);
    assert_eq!(rt.links.transport.next_due(), Some(due));

    rt.run_until(due);
    let responses = shipped_frames(&mut rt);
    assert_eq!(responses.len(), 1, "one frame, to the origin");
    let (to, frame) = &responses[0];
    let answered: Vec<u64> = payload_slices(frame.as_slice())
        .expect("valid frame")
        .map(|payload| match Message::decode_slice(payload) {
            Some(Message::QueryResponse { id, found, .. }) => {
                assert!(!found, "the stores are empty");
                id
            }
            other => panic!("unexpected payload {other:?}"),
        })
        .collect();
    assert_eq!((*to, answered), (1, vec![0, 1, 2, 3]));
    let stats = rt.transport_stats();
    assert_eq!((stats.frames_sent, stats.frames_delivered), (5, 5));
    let m = &rt.metrics;
    assert_eq!(
        (
            m.messages_delivered,
            m.multi_message_frames,
            m.messages_lost,
            m.messages_to_offline,
            m.decode_failures,
        ),
        (4, 1, 0, 0, 0)
    );
}

#[test]
fn staging_capacity_is_released_after_a_large_message() {
    let mut rt = fixed_latency_runtime();
    rt.links.actor = 2;
    rt.send(6, Message::Join { peer: PeerId(2) });
    rt.flush_pending();
    assert!(rt.links.retained_bytes() > 0, "small buffers are kept");
    assert!(rt.links.retained_bytes() <= 2 * STAGING_RETAIN_BYTES);

    let large = replicate_of(3 * STAGING_RETAIN_BYTES / 16);
    assert!(large.wire_size() > 3 * STAGING_RETAIN_BYTES);
    rt.send(6, large.clone());
    rt.flush_pending();
    assert!(
        rt.links.retained_bytes() <= 2 * STAGING_RETAIN_BYTES,
        "{} bytes retained",
        rt.links.retained_bytes()
    );
    let frames = shipped_frames(&mut rt);
    assert_eq!(frames[1], (6, encode_frame(&[large.encode()])));

    // The inbox follows the same rule: a poll that handed over 100 000
    // frames (4 MB of handles) does not pin their vector.
    let join = encode_frame(&[Message::Join { peer: PeerId(2) }.encode()]);
    let now = rt.now();
    for _ in 0..100_000 {
        let sent = rt.links.transport.send(now, PeerId(6), join.clone());
        sent.expect("peer 6 is registered");
    }
    rt.run_until(now + 10);
    assert_eq!(rt.metrics.messages_delivered, 100_000);
    assert!(rt.links.inbox.capacity() > 0, "a small inbox is kept");
    assert!(
        rt.links.retained_bytes() <= 3 * STAGING_RETAIN_BYTES,
        "{} bytes retained",
        rt.links.retained_bytes()
    );

    // And so does the scratch core's reference pick shuffles in.
    rt.lookups.hop_scratch.reserve(STAGING_RETAIN_BYTES);
    assert_eq!(pick_at_level_zero(&mut rt), (None, false));
    let kept = rt.lookups.hop_scratch.capacity() * std::mem::size_of::<PeerId>();
    assert!(kept <= STAGING_RETAIN_BYTES, "{kept} bytes retained");
}

#[test]
fn a_minute_bucket_of_full_counts_merges_without_overflow() {
    let full = MinuteLatency {
        count: u64::MAX,
        sum_s: 1.0,
        sum_sq_s: 1.0,
    };
    let mut merged = MinuteLatency::default();
    merged.merge(&full);
    merged.merge(&full);
    assert_eq!(merged.count, u64::MAX);
    assert_eq!(merged.sum_s, 2.0);
}

#[test]
fn query_aggregates_of_full_counters_merge_without_overflow() {
    let full = QueryAggregates {
        issued: u64::MAX,
        answered: u64::MAX,
        succeeded: u64::MAX,
        timed_out: u64::MAX,
        late_responses: u64::MAX,
        hops_sum_successful: u64::MAX,
        ranges_issued: u64::MAX,
        ranges_complete: u64::MAX,
        ..QueryAggregates::default()
    };
    let mut merged = QueryAggregates::default();
    merged.merge(&full);
    merged.merge(&full);
    assert_eq!(merged, full);
}

#[test]
fn offers_from_unknown_peers_never_reach_the_routing_table() {
    // Forty offers from the other side of peer 0's first bit, sent by
    // peers that do not exist: were they referred, peer 0 would learn
    // them as level-0 references and the next lookup through it would
    // index past the population.
    let mut rt = Runtime::new(NetConfig {
        n_peers: 16,
        ..NetConfig::default()
    });
    construct(&mut rt, 16, 200_000);
    let path = Path::root().child(!primary(&rt, 0).path.bit(0));
    let offers: Vec<Bytes> = (1000..1040)
        .map(|from| Message::Offer {
            from: PeerId(from),
            path,
            count: 0,
            digest: 0,
        })
        .map(|offer| offer.encode())
        .collect();
    let failures = rt.metrics.decode_failures;
    rt.deliver_frame(PeerId(0), encode_frame(&offers).as_slice());
    assert_eq!(rt.metrics.decode_failures, failures + 40);
    assert!(primary(&rt, 0)
        .routing
        .entries()
        .all(|(_, e)| e.peer.0 < 16));
    rt.issue_query_batch_on(IndexId::PRIMARY, &primary_keys(&rt));
    rt.run_until(rt.now() + 30_000);
}

#[test]
fn churn_never_brings_up_a_peer_that_has_not_joined() {
    let mut rt = small_runtime();
    for peer in 0..47 {
        rt.join_peer(peer, 4);
    }
    let online = rt.online_count();
    rt.schedule_churn(47, 1_000, 1_000);
    rt.run_until(5_000);
    assert_eq!(rt.online_count(), online);
    assert!(!rt.online_hosted.contains(&47));
    let reachable = rt.routed(0, |_, reachable, _| reachable(PeerId(47))).0;
    assert!(!reachable, "a routing candidate");
}
