//! A control message naming a peer or a shard outside the population, a
//! report counting more online peers than it carries, or a `Welcome` whose
//! minutes or key total overflow, is an `InvalidData` error at the process
//! that receives it, never a panic: one test per message that used to
//! index a per-peer table (or feed a sum or a product) unchecked, each
//! driving the public entry point against a scripted counterpart.

#![cfg(target_os = "linux")]

use pgrid_cluster::coordinator::{run_coordinator, ClusterConfig, HealConfig};
use pgrid_cluster::plan::MINUTE_MS;
use pgrid_cluster::proto::{ClusterMsg, ControlChannel, ReassignMove, ShardReport, PHASE_DONE};
use pgrid_cluster::worker::{run_worker, WorkerOptions};
use pgrid_core::path::Path;
use pgrid_net::experiment::Timeline;
use pgrid_net::runtime::NetConfig;
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

const N_PEERS: usize = 8;
const WAIT: Duration = Duration::from_secs(20);

fn cluster(n_workers: usize) -> ClusterConfig {
    ClusterConfig {
        n_workers,
        net: NetConfig {
            n_peers: N_PEERS,
            keys_per_peer: 4,
            seed: 12,
            ..NetConfig::default()
        },
        timeline: Timeline::default(),
        heal: HealConfig::default(),
    }
}

/// Connects as a worker and answers the rendezvous honestly (the
/// announced endpoints are never dialled).  Returns the channel and the
/// assigned `(worker_index, shard_start, shard_len)`.
fn rendezvous(coordinator: SocketAddr) -> (ControlChannel, u32, u64, u64) {
    let mut ctl = ControlChannel::new(TcpStream::connect(coordinator).unwrap()).unwrap();
    let welcome = ctl.recv_timeout(WAIT).unwrap();
    let ClusterMsg::Welcome {
        worker_index,
        shard_start,
        shard_len,
        ..
    } = welcome
    else {
        panic!("expected Welcome, got {welcome:?}");
    };
    ctl.send(&ClusterMsg::Hello {
        shard_start,
        peer_addrs: (shard_start..shard_start + shard_len)
            .map(|peer| (peer, SocketAddr::from(([127, 0, 0, 1], 4000 + peer as u16))))
            .collect(),
        metrics_addr: None,
    })
    .unwrap();
    let book = ctl.recv_timeout(WAIT).unwrap();
    assert!(matches!(book, ClusterMsg::AddressBook { .. }), "{book:?}");
    (ctl, worker_index, shard_start, shard_len)
}

/// Reads until the coordinator hangs up, so the script outlives its last
/// message.
fn drain(mut ctl: ControlChannel) {
    while ctl.recv_timeout(WAIT).is_ok() {}
}

/// A script passes every barrier honestly, then reports `make(shard_start,
/// shard_len)`: the coordinator must refuse it as `InvalidData`.
fn report_is_invalid_data(make: fn(u64, u64) -> ShardReport) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let worker = std::thread::spawn(move || {
        let (mut ctl, _, shard_start, shard_len) = rendezvous(addr);
        for phase in 0..=PHASE_DONE {
            ctl.send(&ClusterMsg::PhaseDone { phase }).unwrap();
            assert_eq!(
                ctl.recv_timeout(WAIT).unwrap(),
                ClusterMsg::Proceed { phase }
            );
        }
        ctl.send(&ClusterMsg::Report(make(shard_start, shard_len)))
            .unwrap();
        drain(ctl);
    });
    let error = run_coordinator(listener, &cluster(1)).expect_err("the report is out of range");
    assert_eq!(error.kind(), ErrorKind::InvalidData, "{error}");
    worker.join().unwrap();
}

fn report(shard_start: u64, shard_len: u64, online_at_end: u64) -> ShardReport {
    ShardReport {
        shard_start,
        paths: vec![Path::root(); shard_len as usize],
        query_stats: Default::default(),
        online_at_end,
        transport: Default::default(),
        messages_delivered: 0,
        messages_lost: 0,
        extra_paths: Vec::new(),
    }
}

#[test]
fn a_report_for_a_shard_outside_the_population_is_invalid_data() {
    report_is_invalid_data(|_, shard_len| report(1 << 40, shard_len, 0));
}

#[test]
fn a_report_with_more_peers_online_than_it_hosts_is_invalid_data() {
    // The coordinator sums these claims into the run's online count; one
    // past the peers the report carries was accepted before.
    report_is_invalid_data(|shard_start, shard_len| report(shard_start, shard_len, shard_len + 1));
}

#[test]
fn a_recovery_done_for_a_peer_outside_the_population_is_invalid_data() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    // One worker dies right after the rendezvous ...
    let victim = std::thread::spawn(move || drop(rendezvous(addr)));
    // ... and the survivor adopts its shard, then acknowledges a peer
    // nobody has.
    let survivor = std::thread::spawn(move || {
        let (mut ctl, worker_index, _, _) = rendezvous(addr);
        ctl.send(&ClusterMsg::PhaseDone { phase: 0 }).unwrap();
        loop {
            match ctl.recv_timeout(WAIT).unwrap() {
                ClusterMsg::WorkerFailed { .. } => {}
                ClusterMsg::ShardReassign { epoch, moves } => {
                    let peer_addrs = moves
                        .iter()
                        .filter(|m| m.to_worker == worker_index)
                        .map(|m| (m.peer, SocketAddr::from(([127, 0, 0, 1], 5000))))
                        .collect();
                    ctl.send(&ClusterMsg::RecoveryAddrs { epoch, peer_addrs })
                        .unwrap();
                }
                ClusterMsg::AddressBook { .. } => {
                    ctl.send(&ClusterMsg::RecoveryDone {
                        epoch: 1,
                        recovered: vec![(N_PEERS as u64, true)],
                    })
                    .unwrap();
                    break;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        drain(ctl);
    });
    let error = run_coordinator(listener, &cluster(2)).expect_err("the peer does not exist");
    assert_eq!(error.kind(), ErrorKind::InvalidData, "{error}");
    victim.join().unwrap();
    survivor.join().unwrap();
}

fn welcome(shard_start: u64, n_peers: usize, kill_at_min: Option<u64>, end_min: u64) -> ClusterMsg {
    ClusterMsg::Welcome {
        worker_index: 0,
        shard_start,
        shard_len: 4,
        config: NetConfig {
            n_peers,
            ..cluster(1).net
        },
        timeline: Timeline {
            end_min,
            ..Timeline::default()
        },
        tracing: false,
        heartbeat_ms: 0,
        heal: false,
        kill_at_min,
    }
}

#[test]
fn a_welcome_outside_its_own_population_or_past_the_clock_is_invalid_data() {
    let end_min = Timeline::default().end_min;
    let past_the_clock = u64::MAX / MINUTE_MS + 1;
    // The worker sizes its ground-truth entry list by `n_peers *
    // keys_per_peer`; here that product wraps a `usize`.
    let mut too_many_keys = welcome(0, N_PEERS, None, end_min);
    if let ClusterMsg::Welcome { config, .. } = &mut too_many_keys {
        config.keys_per_peer = usize::MAX / 4;
    }
    for bad in [
        welcome(u64::MAX, N_PEERS, None, end_min),
        welcome(N_PEERS as u64 - 2, N_PEERS, None, end_min),
        welcome(0, (1 << 24) + 1, None, end_min),
        welcome(0, N_PEERS, Some(past_the_clock), end_min),
        welcome(0, N_PEERS, None, past_the_clock),
        too_many_keys,
    ] {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let worker = std::thread::spawn(move || run_worker(addr, &WorkerOptions::default()));
        let mut ctl = ControlChannel::new(listener.accept().unwrap().0).unwrap();
        ctl.send(&bad).unwrap();
        // Answer the rendezvous honestly, so a worker that takes the bad
        // fields any further meets them; hang up once it stops talking.
        while let Ok(msg) = ctl.recv_timeout(WAIT) {
            if let ClusterMsg::Hello { peer_addrs, .. } = msg {
                let _ = ctl.send(&ClusterMsg::AddressBook { peer_addrs });
            }
        }
        drop(ctl);
        let error = worker
            .join()
            .expect("the worker must not panic")
            .expect_err("the Welcome is out of range");
        assert_eq!(error.kind(), ErrorKind::InvalidData, "{bad:?}: {error}");
    }
}

#[test]
fn a_reassignment_of_a_peer_outside_the_population_is_invalid_data() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let worker = std::thread::spawn(move || run_worker(addr, &WorkerOptions::default()));

    let cluster = cluster(1);
    let mut ctl = ControlChannel::new(listener.accept().unwrap().0).unwrap();
    ctl.send(&ClusterMsg::Welcome {
        worker_index: 0,
        shard_start: 0,
        shard_len: N_PEERS as u64,
        config: cluster.net.clone(),
        timeline: cluster.timeline,
        tracing: false,
        heartbeat_ms: 0,
        heal: true,
        kill_at_min: None,
    })
    .unwrap();
    let hello = ctl.recv_timeout(WAIT).unwrap();
    let ClusterMsg::Hello { peer_addrs, .. } = hello else {
        panic!("expected Hello, got {hello:?}");
    };
    ctl.send(&ClusterMsg::AddressBook { peer_addrs }).unwrap();
    // The worker parks at the first barrier; a healing round then hands it
    // a peer that does not exist.
    while ctl.recv_timeout(WAIT).unwrap() != (ClusterMsg::PhaseDone { phase: 0 }) {}
    ctl.send(&ClusterMsg::ShardReassign {
        epoch: 1,
        moves: vec![ReassignMove {
            peer: N_PEERS as u64 + 91,
            to_worker: 0,
            source_peer: 0,
            path: Path::root(),
        }],
    })
    .unwrap();

    let error = worker
        .join()
        .expect("the worker must not panic")
        .expect_err("the move is out of range");
    assert_eq!(error.kind(), ErrorKind::InvalidData, "{error}");
}
