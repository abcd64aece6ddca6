//! The contact walk after a late join.
//!
//! `random_contact` walks a flat copy of the peers' neighbour lists, built
//! at the first walk.  A join changes the lists — the joiner's own and
//! those of the neighbours it links to — so a peer that joins after
//! construction has started must find contacts, and be found, by the
//! walks that follow: the copy is rebuilt after every join.

use pgrid_net::runtime::{NetConfig, Runtime};

/// Peers that join before construction starts.
const EARLY: usize = 32;

#[test]
fn a_peer_that_joins_after_construction_started_is_reached_by_the_walk() {
    let mut rt = Runtime::new(NetConfig {
        n_peers: EARLY + 1,
        keys_per_peer: 10,
        loss_probability: 0.0,
        seed: 11,
        ..NetConfig::default()
    });
    rt.enable_tracing();
    for peer in 0..EARLY {
        rt.join_peer(peer, 4);
    }
    rt.replication_phase();
    rt.start_construction();
    rt.run_until(60_000);

    let late = EARLY;
    rt.join_peer(late, 4);
    rt.start_construction();
    let joined_at = rt.now();
    rt.run_until(joined_at + 10 * 60_000);

    // Every exchange a responder decides is traced on the responder, with
    // the initiator in its detail.
    let decisions: Vec<_> = rt
        .tracer
        .events()
        .iter()
        .filter(|e| e.kind == "exchange_decision" && e.virtual_ms >= joined_at)
        .collect();
    let answered = decisions.iter().filter(|e| e.peer == late as u64).count();
    let from_late = format!("from={late} ");
    let opened = decisions
        .iter()
        .filter(|e| e.detail.starts_with(&from_late))
        .count();
    assert!(answered > 0, "no walk reached the late peer");
    assert!(opened > 0, "the late peer's walks found no contact");
}
