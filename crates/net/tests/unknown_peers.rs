//! A payload that names a peer outside the population is refused on
//! arrival, counted as a decode failure: the runtime indexes its peers by
//! the ids a message carries, so one such id from the network could
//! otherwise panic routing.  Every field that carries a peer id is tried
//! once with the first id past the population, and once with the last id
//! inside it.

use bytes::Bytes;
use pgrid_core::key::Key;
use pgrid_core::path::Path;
use pgrid_core::routing::PeerId;
use pgrid_net::message::{ExchangeOutcome, Message};
use pgrid_net::runtime::{NetConfig, Runtime};
use pgrid_transport::frame::encode_frame;
use pgrid_transport::Transport;

/// Peers of the deployment; `PeerId(N)` is the first unknown id.
const N: usize = 8;

/// One message per field that names a peer, each naming `peer` there.
fn naming(peer: PeerId) -> Vec<Message> {
    let (path, key, from) = (Path::parse("0"), Key(0), PeerId(1));
    let reply = |from, outcome| Message::ExchangeReply {
        from,
        path,
        outcome,
    };
    let split = ExchangeOutcome::Split {
        partition: path,
        initiator_bit: true,
        entries: Vec::new(),
        complement: Some((peer, path)),
    };
    let push = |routing, replicas| Message::ReplicaPush {
        path,
        entries: Vec::new(),
        routing,
        replicas,
    };
    let query = Message::Query {
        origin: peer,
        id: 0,
        key,
        hops: 0,
    };
    vec![
        Message::Offer {
            from: peer,
            path,
            count: 0,
            digest: 0,
        },
        Message::Exchange {
            from: peer,
            path,
            entries: Vec::new(),
        },
        reply(peer, ExchangeOutcome::Nothing),
        reply(from, ExchangeOutcome::Refer { peer, path }),
        reply(from, split),
        Message::Traced {
            trace_id: 1,
            inner: Box::new(query.clone()),
        },
        query,
        Message::RangeQuery {
            origin: peer,
            id: 0,
            lo: key,
            hi: key,
            cursor: key,
            hops: 0,
        },
        Message::ReplicaPull { origin: peer },
        push(vec![(0, peer, path)], Vec::new()),
        push(Vec::new(), vec![peer]),
    ]
}

/// Sends `message` to peer 3 in a frame of its own and runs until it
/// arrived; returns how many payloads were refused and how many delivered.
fn deliver(rt: &mut Runtime, message: &Message) -> (usize, usize) {
    let before = (rt.metrics.decode_failures, rt.metrics.messages_delivered);
    let frame: Bytes = encode_frame(&[message.encode()]);
    let now = rt.now();
    rt.transport_mut()
        .send_from(now, PeerId(2), PeerId(3), frame)
        .expect("loopback accepts every frame");
    rt.run_until(now + 10);
    let after = (rt.metrics.decode_failures, rt.metrics.messages_delivered);
    (after.0 - before.0, after.1 - before.1)
}

#[test]
fn every_field_that_names_a_peer_is_checked() {
    let mut rt = Runtime::new(NetConfig {
        n_peers: N,
        loss_probability: 0.0,
        latency_min_ms: 10,
        latency_max_ms: 10,
        ..NetConfig::default()
    });
    (0..N).for_each(|peer| rt.join_peer(peer, 3));
    for message in naming(PeerId(N as u64)) {
        assert_eq!(deliver(&mut rt, &message), (1, 0), "{message:?}");
    }
    // What a known peer answers may arrive in the same window.
    for message in naming(PeerId(N as u64 - 1)) {
        let (refused, delivered) = deliver(&mut rt, &message);
        assert!(refused == 0 && delivered >= 1, "{message:?}");
    }
}
