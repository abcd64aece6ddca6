//! The offer-first exchange, seen from the wire.
//!
//! An exchange opens with an `Offer`: the initiator's path and the count
//! and digest of its entries there.  The responder refers it when the
//! paths diverge, decides at once when it already holds the offered
//! entries, and otherwise answers `Want`, to which the initiator answers
//! with the `Exchange` body.  These tests drive a loopback runtime whose
//! transport records every frame, inject the messages an initiator or a
//! responder would send, and compare what crosses the wire — and where the
//! two peers end up — with the one-shot exchange the body alone triggers.
//! A referral into the initiator's own partition opens a new exchange with
//! the referred peer, a bounded number of times between two ticks.

use bytes::Bytes;
use pgrid_core::index::IndexId;
use pgrid_core::key::{DataEntry, DataId, Key};
use pgrid_core::path::Path;
use pgrid_core::peer::PeerState;
use pgrid_core::routing::PeerId;
use pgrid_core::store::StoreRead;
use pgrid_net::message::{ExchangeOutcome, Message};
use pgrid_net::runtime::{Millis, NetConfig, Runtime};
use pgrid_transport::frame::{encode_frame, payload_slices};
use pgrid_transport::loopback::{LoopbackConfig, LoopbackTransport};
use pgrid_transport::{PeerAddr, Transport, TransportError, TransportStats};

/// The initiator of every exchange below.
const I: usize = 0;

/// The responder of every exchange below.
const R: usize = 1;

/// One-way latency of every frame, in virtual milliseconds.
const LATENCY: Millis = 10;

/// A loopback transport that keeps a copy of every frame the runtime
/// sends, with its sender and destination.
struct Recording {
    inner: LoopbackTransport,
    sent: Vec<(usize, usize, Bytes)>,
}

impl Transport for Recording {
    fn register(&mut self, peer: PeerId) -> Result<PeerAddr, TransportError> {
        self.inner.register(peer)
    }

    fn send(&mut self, now: Millis, to: PeerId, frame: Bytes) -> Result<(), TransportError> {
        self.send_from(now, PeerId(u64::MAX), to, frame)
    }

    fn send_from(
        &mut self,
        now: Millis,
        from: PeerId,
        to: PeerId,
        frame: Bytes,
    ) -> Result<(), TransportError> {
        self.sent
            .push((from.0 as usize, to.0 as usize, frame.clone()));
        self.inner.send_from(now, from, to, frame)
    }

    fn poll(&mut self, now: Millis) -> Vec<(PeerId, Bytes)> {
        self.inner.poll(now)
    }

    fn poll_into(&mut self, now: Millis, out: &mut Vec<(PeerId, Bytes)>) {
        self.inner.poll_into(now, out)
    }

    fn next_due(&self) -> Option<Millis> {
        self.inner.next_due()
    }

    fn in_flight(&self) -> usize {
        self.inner.in_flight()
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }

    fn addr_of(&self, peer: PeerId) -> Option<PeerAddr> {
        self.inner.addr_of(peer)
    }
}

/// Four joined peers on a lossless, fixed-latency loopback; no peer
/// ticks, so only what a test injects moves.
fn runtime() -> Runtime<Recording> {
    let config = NetConfig {
        n_peers: 4,
        keys_per_peer: 0,
        delta_max: Some(20),
        loss_probability: 0.0,
        latency_min_ms: LATENCY,
        latency_max_ms: LATENCY,
        seed: 41,
        ..NetConfig::default()
    };
    let inner = LoopbackTransport::new(LoopbackConfig {
        latency_min_ms: LATENCY,
        latency_max_ms: LATENCY,
        seed: 41,
    });
    let transport = Recording {
        inner,
        sent: Vec::new(),
    };
    let mut rt = Runtime::with_transport(config, transport).expect("loopback registers");
    for peer in 0..4 {
        rt.join_peer(peer, 3);
    }
    rt
}

/// `n` entries spread evenly over `path`'s partition, ids from `id`.
fn entries(path: &str, n: u64, id: u64) -> Vec<DataEntry> {
    let path = Path::parse(path);
    let width = path.upper_key().0 - path.lower_key().0;
    (0..n)
        .map(|i| {
            let key = Key(path.lower_key().0 + width / n.max(1) * i);
            DataEntry::new(key, DataId(id + i))
        })
        .collect()
}

/// Gives `peer` a path, a store and one routing reference per level, to
/// peer 2 or 3, on the side the path does not take.
fn place(rt: &mut Runtime<Recording>, peer: usize, path: &str, store: Vec<DataEntry>) {
    let path = Path::parse(path);
    let routing = (0..path.len())
        .map(|level| {
            let prefix = (0..level).fold(Path::root(), |p, i| p.child(path.bit(i)));
            let other = 2 + level % 2;
            (
                level as u8,
                PeerId(other as u64),
                prefix.child(!path.bit(level)),
            )
        })
        .collect();
    rt.restore_peer(peer, path, store, routing, Vec::new(), false);
}

fn state(rt: &Runtime<Recording>, peer: usize) -> &PeerState {
    rt.peer_state(IndexId::PRIMARY, peer)
}

/// Puts `message` on the wire from `from` to `to`, unrecorded.
fn inject(rt: &mut Runtime<Recording>, from: usize, to: usize, message: &Message) {
    let now = rt.now();
    let frame = encode_frame(&[message.encode()]);
    rt.transport_mut()
        .inner
        .send_from(now, PeerId(from as u64), PeerId(to as u64), frame)
        .expect("loopback delivers");
}

/// The offer `peer` would make: its path and its entries' summary there.
fn offer_of(rt: &Runtime<Recording>, peer: usize) -> Message {
    let state = state(rt, peer);
    let run = state.store.restricted(&state.path);
    Message::Offer {
        from: PeerId(peer as u64),
        path: state.path,
        count: run.len() as u32,
        digest: run.digest(),
    }
}

/// The body `peer` would ship: its path and its entries there.
fn body_of(rt: &Runtime<Recording>, peer: usize) -> Message {
    let state = state(rt, peer);
    Message::Exchange {
        from: PeerId(peer as u64),
        path: state.path,
        entries: state.store.restricted(&state.path).as_slice().to_vec(),
    }
}

/// Every message the runtime sent since the last call, in send order, as
/// `(from, to, message, encoded length)`.
fn drain(rt: &mut Runtime<Recording>) -> Vec<(usize, usize, Message, usize)> {
    let sent = std::mem::take(&mut rt.transport_mut().sent);
    let mut messages = Vec::new();
    for (from, to, frame) in sent {
        for payload in payload_slices(frame.as_slice()).expect("a valid frame") {
            let message = Message::decode_slice(payload).expect("a valid message");
            messages.push((from, to, message, payload.len()));
        }
    }
    messages
}

/// The outcomes `R` sent to `I`, in order.
fn replies(messages: &[(usize, usize, Message, usize)]) -> Vec<ExchangeOutcome> {
    messages
        .iter()
        .filter_map(|(from, to, message, _)| match message {
            Message::ExchangeReply { outcome, .. } if (*from, *to) == (R, I) => {
                Some(outcome.clone())
            }
            _ => None,
        })
        .collect()
}

fn is_body(message: &Message) -> bool {
    matches!(message, Message::Exchange { .. })
}

/// Runs the exchange `opening` starts (an offer or a body from `I`) to
/// its end.
fn exchange(rt: &mut Runtime<Recording>, opening: &Message) -> Vec<(usize, usize, Message, usize)> {
    inject(rt, I, R, opening);
    let end = rt.now() + 20 * LATENCY;
    rt.run_until(end);
    drain(rt)
}

/// What an exchange leaves behind on one peer.
fn outcome_of(state: &PeerState) -> (Path, Vec<DataEntry>, Vec<PeerId>) {
    (
        state.path,
        state.store.iter().copied().collect(),
        state.replicas.clone(),
    )
}

#[test]
fn the_request_does_not_grow_with_the_store() {
    for n in [0u64, 1, 64, 5_000] {
        let mut rt = runtime();
        rt.restore_peer(
            I,
            Path::root(),
            entries("", n, 0),
            Vec::new(),
            Vec::new(),
            true,
        );
        // The first tick falls within one construction interval.
        rt.run_until(5_000);
        let sent = drain(&mut rt);
        let (_, _, request, len) = sent
            .iter()
            .find(|(from, ..)| *from == I)
            .expect("the initiator ticked");
        match request {
            Message::Offer { count, .. } => assert_eq!(*count as u64, n),
            other => panic!("the request is {other:?}"),
        }
        assert_eq!(*len, 30, "an offer of {n} entries");
    }
}

#[test]
fn a_matching_summary_decides_at_once_as_the_body_would() {
    // Two undecided peers of one partition, the responder holding exactly
    // the initiator's entries there (and more outside it).  Small stores
    // replicate; an overloaded partition draws a split from the RNG.
    for (n, overloaded) in [(8, false), (60, true)] {
        let shared = entries("0", n, 0);
        let mut outside = entries("1", 5, 500);
        outside.extend(&shared);
        let setup = || {
            let mut rt = runtime();
            place(&mut rt, I, "0", shared.clone());
            place(&mut rt, R, "0", outside.clone());
            rt
        };
        let mut offered = setup();
        let offer = offer_of(&offered, I);
        let by_offer = exchange(&mut offered, &offer);
        let mut shipped = setup();
        let body = body_of(&shipped, I);
        let by_body = exchange(&mut shipped, &body);

        assert!(
            !by_offer.iter().any(|(_, _, m, _)| is_body(m)),
            "no body crosses when the summary matches"
        );
        let outcome = replies(&by_offer);
        assert_eq!(outcome.len(), 1, "one reply: {outcome:?}");
        assert_eq!(outcome, replies(&by_body));
        for peer in [I, R] {
            assert_eq!(
                outcome_of(state(&offered, peer)),
                outcome_of(state(&shipped, peer)),
                "peer {peer}"
            );
        }
        if !overloaded {
            assert_eq!(outcome[0], ExchangeOutcome::Replicate { entries: vec![] });
            assert_eq!(state(&offered, R).replicas, vec![PeerId(I as u64)]);
            assert_eq!(state(&offered, I).replicas, vec![PeerId(R as u64)]);
        }
    }
}

#[test]
fn a_differing_summary_ships_the_body_after_want() {
    // Replicas of one partition that each hold entries the other lacks.
    let mut mine = entries("0", 8, 0);
    let theirs: Vec<DataEntry> = entries("0", 8, 100)
        .into_iter()
        .chain(mine.iter().copied().take(3))
        .collect();
    mine.push(DataEntry::new(Key(1), DataId(77)));
    let setup = || {
        let mut rt = runtime();
        place(&mut rt, I, "0", mine.clone());
        place(&mut rt, R, "0", theirs.clone());
        rt
    };
    let mut offered = setup();
    let offer = offer_of(&offered, I);
    let sent = exchange(&mut offered, &offer);
    let mut shipped = setup();
    let body = body_of(&shipped, I);
    let one_shot = exchange(&mut shipped, &body);

    // Want, then the body from the run, then the decision.
    let outcomes = replies(&sent);
    assert_eq!(outcomes.len(), 2, "{outcomes:?}");
    assert_eq!(
        outcomes[0],
        ExchangeOutcome::Want {
            path: Path::parse("0")
        }
    );
    let bodies: Vec<&Message> = sent
        .iter()
        .filter(|(from, to, m, _)| (*from, *to) == (I, R) && is_body(m))
        .map(|(_, _, m, _)| m)
        .collect();
    assert_eq!(bodies, vec![&body]);
    assert_eq!(outcomes[1..], replies(&one_shot)[..]);
    assert!(matches!(outcomes[1], ExchangeOutcome::Replicate { .. }));
    for peer in [I, R] {
        assert_eq!(
            outcome_of(state(&offered, peer)),
            outcome_of(state(&shipped, peer)),
            "peer {peer}"
        );
    }
    let union: Vec<DataEntry> = state(&offered, R).store.iter().copied().collect();
    assert_eq!(
        state(&offered, I).store.iter().copied().collect::<Vec<_>>(),
        union
    );
}

#[test]
fn an_initiator_whose_path_moved_offers_again() {
    let mut rt = runtime();
    place(&mut rt, I, "01", entries("01", 6, 0));
    place(&mut rt, R, "0", entries("0", 4, 100));
    // A want for the path the initiator had when it offered.
    let want = Message::ExchangeReply {
        from: PeerId(R as u64),
        path: Path::parse("0"),
        outcome: ExchangeOutcome::Want {
            path: Path::parse("0"),
        },
    };
    inject(&mut rt, R, I, &want);
    let end = rt.now() + 20 * LATENCY;
    rt.run_until(end);
    let sent = drain(&mut rt);
    let (from, to, first, _) = sent.first().expect("the initiator answered");
    assert_eq!((*from, *to), (I, R));
    let fresh = offer_of(&rt, I);
    assert_eq!(first, &fresh, "a fresh offer of the current path");
    for (from, _, message, _) in &sent {
        if let (I, Message::Exchange { path, .. }) = (*from, message) {
            assert_eq!(*path, Path::parse("01"), "a body for a stale path");
        }
    }
}

#[test]
fn a_responder_whose_path_diverged_refers_the_body() {
    let mut rt = runtime();
    place(&mut rt, I, "0", entries("0", 6, 0));
    place(&mut rt, R, "0", entries("0", 6, 100));
    let offer = offer_of(&rt, I);
    inject(&mut rt, I, R, &offer);
    // Offer at +10, want at +20: the body is on the wire at +25.
    let start = rt.now();
    rt.run_until(start + 2 * LATENCY + LATENCY / 2);
    let sent = drain(&mut rt);
    assert!(sent
        .iter()
        .any(|(from, to, m, _)| (*from, *to) == (I, R) && is_body(m)));
    // Before it lands, the responder moves to the other side.
    let moved = entries("1", 4, 200);
    place(&mut rt, R, "1", moved.clone());
    rt.run_until(start + 20 * LATENCY);
    let outcomes = replies(&drain(&mut rt));
    assert_eq!(outcomes.len(), 1, "{outcomes:?}");
    assert!(
        matches!(
            outcomes[0],
            ExchangeOutcome::Refer { .. } | ExchangeOutcome::Nothing
        ),
        "{outcomes:?}"
    );
    // A referral, not a decision: the responder keeps its side and its
    // store, and learns the initiator as a reference for the other side.
    let responder = state(&rt, R);
    assert_eq!(responder.path, Path::parse("1"));
    assert_eq!(responder.store.iter().copied().collect::<Vec<_>>(), moved);
    assert!(responder
        .routing
        .level(0)
        .iter()
        .any(|entry| entry.peer == PeerId(I as u64)));
}

#[test]
fn a_referral_into_the_initiators_partition_is_followed_up_to_five_times() {
    let mut rt = runtime();
    place(&mut rt, I, "0", entries("0", 6, 0));
    let refer = |peer: usize, path: &str| Message::ExchangeReply {
        from: PeerId(R as u64),
        path: Path::parse("1"),
        outcome: ExchangeOutcome::Refer {
            peer: PeerId(peer as u64),
            path: Path::parse(path),
        },
    };
    // Replies land at +10; what they trigger leaves then, and answers to
    // it cannot land before +20.
    let settle = |rt: &mut Runtime<Recording>| {
        let end = rt.now() + LATENCY + LATENCY / 2;
        rt.run_until(end);
        drain(rt)
    };
    // A referral outside the initiator's partition is only learnt.
    inject(&mut rt, R, I, &refer(2, "10"));
    assert_eq!(settle(&mut rt), vec![]);
    assert!(state(&rt, I)
        .routing
        .level(0)
        .iter()
        .any(|entry| entry.peer == PeerId(2)));
    // Referrals into it are followed with the initiator's offer, at most
    // five between two ticks (no peer ticks here).
    for _ in 0..7 {
        inject(&mut rt, R, I, &refer(3, "01"));
    }
    let offer = offer_of(&rt, I);
    let sent = settle(&mut rt);
    assert_eq!(sent.len(), 5, "{sent:?}");
    for (from, to, message, _) in &sent {
        assert_eq!((*from, *to, message), (I, 3, &offer));
    }
}
