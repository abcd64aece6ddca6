//! End-to-end tests of the reactor transport over real sockets.
//!
//! Everything here is Linux-only (epoll); the suite is a no-op elsewhere.

#![cfg(target_os = "linux")]

use bytes::Bytes;
use pgrid_core::routing::PeerId;
use pgrid_reactor::{ReactorConfig, ReactorTransport};
use pgrid_transport::frame::{decode_frame, encode_frame};
use pgrid_transport::{Frames, PeerAddr, SocketTransport, Transport, TransportError};
use std::time::{Duration, Instant};

fn payload(tag: u8, len: usize) -> Bytes {
    Bytes::from(vec![tag; len])
}

/// Polls until `count` frames arrived or a real-time deadline passes.
fn poll_n(t: &mut ReactorTransport, count: usize) -> Vec<(PeerId, Bytes)> {
    let mut out = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(10);
    while out.len() < count && Instant::now() < deadline {
        out.extend(t.poll(0));
        if out.len() < count {
            std::thread::sleep(Duration::from_micros(500));
        }
    }
    out
}

fn socket_addr(addr: PeerAddr) -> std::net::SocketAddr {
    match addr {
        PeerAddr::Socket(addr) => addr,
        PeerAddr::Local(_) => panic!("reactor registers socket addrs"),
    }
}

#[test]
fn local_peers_share_one_listener_and_frames_flow() {
    let mut t = ReactorTransport::new();
    let a = socket_addr(t.register(PeerId(1)).unwrap());
    let b = socket_addr(t.register(PeerId(2)).unwrap());
    assert_eq!(a, b, "all local peers share the mux listener");
    let batch = vec![payload(7, 100), payload(8, 0), payload(9, 3000)];
    let frame = encode_frame(&batch);
    t.send(0, PeerId(2), frame.clone()).unwrap();
    let got = poll_n(&mut t, 1);
    assert_eq!(got.len(), 1);
    assert_eq!(got[0].0, PeerId(2));
    assert_eq!(decode_frame(&got[0].1).unwrap(), batch);
    assert_eq!(t.in_flight(), 0);
    let stats = t.stats();
    let reactor = stats.reactor.expect("reactor stats present");
    assert_eq!(reactor.registered_peers, 2);
    assert!(reactor.registered_fds >= 1);
}

#[test]
fn frames_cross_processes_in_order_over_one_connection() {
    // Two transports = two "processes".  Many peers on each side, one
    // socket pair between them.
    let mut host = ReactorTransport::new();
    let mut sender = ReactorTransport::new();
    let n_peers = 50u64;
    for peer in 0..n_peers {
        let addr = socket_addr(host.register(PeerId(peer)).unwrap());
        sender.register_remote(PeerId(peer), addr).unwrap();
    }
    let frames: Vec<(PeerId, Bytes)> = (0..200u64)
        .map(|i| {
            (
                PeerId(i % n_peers),
                encode_frame(&[payload(i as u8, 64 + (i as usize % 91))]),
            )
        })
        .collect();
    for (to, frame) in &frames {
        sender.send(0, *to, frame.clone()).unwrap();
    }
    assert_eq!(sender.in_flight(), 0, "remote frames are not local");
    let got = poll_n(&mut host, frames.len());
    assert_eq!(got.len(), frames.len());
    // One connection, one stream: global send order is preserved.
    for (received, sent) in got.iter().zip(&frames) {
        assert_eq!(received.0, sent.0);
        assert_eq!(received.1, sent.1);
    }
    let reactor = host.stats().reactor.expect("reactor stats");
    assert!(reactor.epoll_wakeups > 0, "wire traffic wakes the loop");
}

#[test]
fn frame_counters_agree_across_a_real_socket() {
    // What one process counts as sent to a remote peer, the process hosting
    // it counts as delivered: frame for frame, byte for byte.
    let mut host = ReactorTransport::new();
    let mut sender = ReactorTransport::new();
    let peer = PeerId(11);
    let addr = socket_addr(host.register(peer).unwrap());
    sender.register_remote(peer, addr).unwrap();
    let frame = encode_frame(&[payload(1, 100)]);
    sender.send(0, peer, frame.clone()).unwrap();
    sender.send(0, peer, frame.clone()).unwrap();
    assert_eq!(poll_n(&mut host, 2).len(), 2);
    let (sent, received) = (sender.stats(), host.stats());
    let bytes = 2 * frame.len() as u64;
    assert_eq!((sent.frames_sent, sent.bytes_sent), (2, bytes));
    assert_eq!(
        (received.frames_delivered, received.bytes_delivered),
        (sent.frames_sent, sent.bytes_sent)
    );
}

#[test]
fn takeover_adopts_a_remote_peer_without_new_sockets() {
    let peer = PeerId(21);
    let mut dead_host = ReactorTransport::new();
    let old_addr = socket_addr(dead_host.register(peer).unwrap());
    let mut survivor = ReactorTransport::new();
    survivor.register(PeerId(99)).unwrap(); // the survivor's own shard
    survivor.register_remote(peer, old_addr).unwrap();
    drop(dead_host); // the hosting process dies
    let new_addr = socket_addr(survivor.register_takeover(peer).unwrap());
    assert_eq!(
        Some(new_addr),
        survivor.listen_addr(),
        "adopted peers join the shared listener"
    );
    // A third process is re-pointed at the survivor.
    let mut other = ReactorTransport::new();
    other.register_remote(peer, old_addr).unwrap();
    other.update_remote(peer, new_addr).unwrap();
    let frame = encode_frame(&[payload(5, 48)]);
    other.send(0, peer, frame.clone()).unwrap();
    let got = poll_n(&mut survivor, 1);
    assert_eq!(got.len(), 1);
    assert_eq!(got[0].0, peer);
    assert_eq!(got[0].1, frame);
    assert!(matches!(
        survivor.register_takeover(peer),
        Err(TransportError::AlreadyRegistered(_))
    ));
}

#[test]
fn bounded_inbox_backpressure_loses_nothing() {
    // Wire-side inbox far below the frame count: the reactor must pause
    // reading (not drop) and every frame must still arrive.
    let mut host = ReactorTransport::with_config(ReactorConfig {
        inbox_capacity: 4,
        ..ReactorConfig::default()
    });
    let mut sender = ReactorTransport::new();
    let addr = socket_addr(host.register(PeerId(3)).unwrap());
    sender.register_remote(PeerId(3), addr).unwrap();
    let frames: Vec<Bytes> = (0..64u8)
        .map(|i| encode_frame(&[payload(i, 256)]))
        .collect();
    for frame in &frames {
        sender.send(0, PeerId(3), frame.clone()).unwrap();
    }
    // Wire deliveries only (nothing is sent to a peer `host` could deliver
    // locally), so no poll may ever see more than the bound.
    let mut got = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(10);
    while got.len() < frames.len() && Instant::now() < deadline {
        let batch = host.poll(0);
        assert!(batch.len() <= 4, "a poll returned {} frames", batch.len());
        if batch.is_empty() {
            std::thread::sleep(Duration::from_micros(500));
        }
        got.extend(batch);
    }
    assert_eq!(got.len(), frames.len());
    for (received, sent) in got.iter().zip(&frames) {
        assert_eq!(&received.1, sent);
    }
}

#[test]
fn a_parked_event_thread_never_misses_a_send() {
    // Strict ping-pong: one frame in flight, so each side's event thread
    // has nothing to do — and parks — between two sends.  A send that
    // fails to wake it is only rescued by the 500 ms idle timeout.
    let mut a = ReactorTransport::new();
    let mut b = ReactorTransport::new();
    let addr_a = socket_addr(a.register(PeerId(1)).unwrap());
    let addr_b = socket_addr(b.register(PeerId(2)).unwrap());
    a.register_remote(PeerId(2), addr_b).unwrap();
    b.register_remote(PeerId(1), addr_a).unwrap();
    let start = Instant::now();
    let one_way = |from: &mut ReactorTransport, to: &mut ReactorTransport, dest, round: u32| {
        let frame = encode_frame(&[Bytes::from(round.to_be_bytes().to_vec())]);
        from.send(0, dest, frame.clone()).unwrap();
        let got = loop {
            let got = to.poll(0);
            if !got.is_empty() {
                break got;
            }
            assert!(
                start.elapsed() < Duration::from_secs(5),
                "round {round}: wake-ups are being lost"
            );
            std::thread::sleep(Duration::from_micros(50));
        };
        assert_eq!(got, [(dest, frame)]);
    };
    for round in 0..2000 {
        one_way(&mut a, &mut b, PeerId(2), round);
        one_way(&mut b, &mut a, PeerId(1), round);
    }
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "2 000 round trips took {:?}: wake-ups are being lost",
        start.elapsed()
    );
}

#[test]
fn batch_edges_deliver_the_multiset_sent_in_per_destination_order() {
    // The write path hands the whole queue to `write` and the read path
    // asks for 64 KiB at a time, so reads cut the stream anywhere: sizes
    // that end a record (header + frame) just under, at and just over
    // 64 KiB, far over it, and the degenerate small ones, interleaved
    // over three destinations.  What must hold is the admissible outcome
    // — every frame once, FIFO per destination — not where the reads
    // happened to cut.
    const BATCH: usize = 64 * 1024;
    const HEADER: usize = pgrid_reactor::mux::RECORD_HEADER;
    let sizes = [
        0,
        1,
        BATCH - HEADER - 1,
        BATCH - HEADER,
        BATCH - HEADER + 1,
        3 * BATCH,
        1 << 20,
        // Small records first, so the edge record ends a batch already begun.
        100,
        BATCH - 2 * HEADER - 100 - 1,
        100,
        BATCH - 2 * HEADER - 100,
        100,
        BATCH - 2 * HEADER - 100 + 1,
    ];
    let mut host = ReactorTransport::new();
    let mut sender = ReactorTransport::new();
    for peer in 0..3 {
        let addr = socket_addr(host.register(PeerId(peer)).unwrap());
        sender.register_remote(PeerId(peer), addr).unwrap();
    }
    // Raw bytes, not `encode_frame`: the mux carries them opaquely.
    let sent: Vec<(PeerId, Bytes)> = (0..3 * sizes.len())
        .map(|i| {
            let mut body = vec![i as u8; sizes[i % sizes.len()]];
            if let Some(first) = body.first_mut() {
                *first = (i / sizes.len()) as u8;
            }
            (PeerId((i % 3) as u64), Bytes::from(body))
        })
        .collect();
    for (to, frame) in &sent {
        sender.send(0, *to, frame.clone()).unwrap();
    }
    let got = poll_n(&mut host, sent.len());
    assert_eq!(got.len(), sent.len());
    for peer in 0..3 {
        let of = |frames: &[(PeerId, Bytes)]| -> Vec<Bytes> {
            let to_peer = frames.iter().filter(|(to, _)| *to == PeerId(peer));
            to_peer.map(|(_, frame)| frame.clone()).collect()
        };
        let (got, sent) = (of(&got), of(&sent));
        assert_eq!(got.len(), sent.len(), "peer {peer}");
        for (i, (got, sent)) in got.iter().zip(&sent).enumerate() {
            assert!(got == sent, "peer {peer}, frame {i}: {} B", sent.len());
        }
    }
}

#[test]
fn dead_endpoints_surface_as_send_errors_not_hangs() {
    let mut t = ReactorTransport::with_config(ReactorConfig {
        send_timeout: Duration::from_millis(4000),
        ..ReactorConfig::default()
    });
    // An address nobody listens on: reserve a port, then close it.
    let doomed = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = doomed.local_addr().unwrap();
    drop(doomed);
    t.register_remote(PeerId(7), addr).unwrap();
    let frame = encode_frame(&[payload(1, 32)]);
    // First send enqueues fine (failure is asynchronous)...
    t.send(0, PeerId(7), frame.clone()).unwrap();
    // ...and once the reconnect budget is burned, a send reports it.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        std::thread::sleep(Duration::from_millis(20));
        match t.send(0, PeerId(7), frame.clone()) {
            Err(TransportError::Io(_)) => break,
            Ok(()) => assert!(Instant::now() < deadline, "link failure never surfaced"),
            Err(other) => panic!("unexpected error {other}"),
        }
    }
    let stats = t.stats();
    assert!(stats.reactor.unwrap().dropped_frames > 0);
    // The link recovers when a listener appears at the address.
    let revived = std::net::TcpListener::bind(addr);
    if let Ok(listener) = revived {
        let mut host = ReactorTransport::new();
        // Adopt the reserved address as the host's listener? Not possible —
        // instead point the peer at the host's real listener.
        drop(listener);
        let new_addr = socket_addr(host.register(PeerId(7)).unwrap());
        t.update_remote(PeerId(7), new_addr).unwrap();
        // The failed flag was consumed; the next send re-dials.
        let mut sent = false;
        for _ in 0..50 {
            if t.send(0, PeerId(7), frame.clone()).is_ok() {
                sent = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(sent, "link never recovered after update_remote");
        let got = poll_n(&mut host, 1);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1, frame);
    }
}

#[test]
fn sending_to_unregistered_peers_fails() {
    let mut t = ReactorTransport::new();
    assert!(matches!(
        t.send(0, PeerId(9), encode_frame(&[])),
        Err(TransportError::UnknownPeer(PeerId(9)))
    ));
}

#[test]
fn fifty_thousand_peers_register_on_a_handful_of_fds() {
    let mut t = ReactorTransport::with_config(ReactorConfig {
        n_event_threads: 1,
        ..ReactorConfig::default()
    });
    for peer in 0..50_000u64 {
        t.register(PeerId(peer)).unwrap();
    }
    let reactor = t.stats().reactor.expect("reactor stats");
    assert_eq!(reactor.registered_peers, 50_000);
    assert!(
        reactor.registered_fds < 16,
        "hosting must not scale fds with peers (got {})",
        reactor.registered_fds
    );
    // And the whole population exchanges frames without sockets.
    let frame = encode_frame(&[payload(1, 64)]);
    for peer in (0..50_000u64).step_by(499) {
        t.send(0, PeerId(peer), frame.clone()).unwrap();
    }
    let expected = (0..50_000u64).step_by(499).count();
    let got = poll_n(&mut t, expected);
    assert_eq!(got.len(), expected);
}

#[test]
fn in_flight_counts_a_local_frame_after_wire_deliveries() {
    // Frames that arrived over the wire were never sent locally: they must
    // not cancel out a local frame still waiting for its poll.
    let mut host = ReactorTransport::new();
    let mut sender = ReactorTransport::new();
    let addr = socket_addr(host.register(PeerId(1)).unwrap());
    sender.register_remote(PeerId(1), addr).unwrap();
    let frame = encode_frame(&[payload(4, 40)]);
    for _ in 0..3 {
        sender.send(0, PeerId(1), frame.clone()).unwrap();
    }
    assert_eq!(poll_n(&mut host, 3).len(), 3);
    host.send(0, PeerId(1), frame.clone()).unwrap();
    assert_eq!(host.in_flight(), 1, "the local frame is still in flight");
    assert_eq!(host.poll(0), [(PeerId(1), frame)]);
    assert_eq!(host.in_flight(), 0);
}

#[test]
fn next_due_says_due_now_exactly_while_a_poll_would_hand_out_a_frame() {
    // The runtime's one event loop polls whenever `next_due` says so and
    // never waits for the wire, so the answer must track what a poll finds.
    let mut host = ReactorTransport::new();
    let addr = socket_addr(host.register(PeerId(1)).unwrap());
    assert_eq!(host.next_due(), None, "an idle transport holds nothing");

    let frame = encode_frame(&[payload(6, 24)]);
    host.send(0, PeerId(1), frame.clone()).unwrap();
    assert_eq!(host.next_due(), Some(0), "a local frame is due now");
    assert_eq!(host.poll(0), [(PeerId(1), frame.clone())]);
    assert_eq!(host.next_due(), None);

    let mut sender = ReactorTransport::new();
    sender.register_remote(PeerId(1), addr).unwrap();
    sender.send(0, PeerId(1), frame.clone()).unwrap();
    assert_eq!(sender.next_due(), None, "a remote frame is its host's");
    let deadline = Instant::now() + Duration::from_secs(10);
    while host.next_due().is_none() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_micros(500));
    }
    assert_eq!(host.next_due(), Some(0), "a wire frame is due now");
    let mut frames = Frames::default();
    host.poll_frames(0, &mut frames);
    let got: Vec<_> = frames.iter().collect();
    assert_eq!(got, [(PeerId(1), frame.as_slice())]);
    assert_eq!(host.next_due(), None, "the poll took every frame");
}
