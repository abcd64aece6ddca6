//! Oracle test of `LoopbackTransport`'s delivery schedule: random scripts
//! of `register`, `send`, `send_from`, fault injections and `poll`s are
//! applied to the transport and to a reference model — one plain
//! `BinaryHeap` ordered by `(due, seq)`, fed the same latency draws — and
//! after every step the delivered `(to, frame)` sequence, `next_due()`,
//! `in_flight()`, `frames_dropped()` and `stats()` must be equal.
//!
//! The model shares no queue logic with the transport, so whatever the
//! transport keeps its frames in, the order it hands them out in is *the*
//! `(due, seq)` order for any call sequence the trait allows: `now` moving
//! forward by a millisecond or by minutes, standing still, going backwards,
//! sitting a few milliseconds before `u64::MAX`, `poll(u64::MAX)`, per-link
//! jitter of a few milliseconds or of far more than any latency, partition
//! windows, unknown and doubly registered peers.

use bytes::Bytes;
use pgrid_core::routing::PeerId;
use pgrid_transport::loopback::{LoopbackConfig, LoopbackTransport};
use pgrid_transport::{LinkFault, Millis, Transport, TransportError, TransportStats};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap};

/// The transport's jitter-stream salt (`loopback.rs`), pinned here too: the
/// jitter draws are part of the schedule.
const JITTER_SEED_SALT: u64 = 0x4A17;

/// Peer ids the scripts draw from; the last one is registered late or never.
const PEERS: [u64; 6] = [0, 1, 2, 3, 7, 40];

/// Per-link jitter bounds: off, inside any latency range, and far beyond
/// whatever horizon a bounded queue could cover.
const JITTERS: [u64; 5] = [0, 3, 40, 5_000, 1_000_000];

struct Partition {
    groups: Vec<Vec<u64>>,
    from: Millis,
    until: Millis,
}

/// A frame in flight, ordered as the schedule is: `(due, seq)` first (and
/// `seq` is unique).
type InFlight = Reverse<(Millis, u64, u64, Vec<u8>)>;

/// What `LoopbackTransport` is specified to do, written the obvious way.
struct Model {
    config: LoopbackConfig,
    rng: StdRng,
    jitter_rng: StdRng,
    jitter_max_ms: u64,
    link_jitter: HashMap<(u64, u64), u64>,
    partitions: Vec<Partition>,
    registered: BTreeSet<u64>,
    queue: BinaryHeap<InFlight>,
    seq: u64,
    stats: TransportStats,
    dropped: u64,
}

/// Outcome of a send, comparable across both sides.
#[derive(Debug, PartialEq, Eq)]
enum Sent {
    Ok,
    Unknown(u64),
}

impl Model {
    fn new(config: LoopbackConfig) -> Model {
        Model {
            config,
            rng: StdRng::seed_from_u64(config.seed),
            jitter_rng: StdRng::seed_from_u64(config.seed ^ JITTER_SEED_SALT),
            jitter_max_ms: 0,
            link_jitter: HashMap::new(),
            partitions: Vec::new(),
            registered: BTreeSet::new(),
            queue: BinaryHeap::new(),
            seq: 0,
            stats: TransportStats::default(),
            dropped: 0,
        }
    }

    fn enqueue(&mut self, now: Millis, to: u64, extra: u64, frame: &[u8]) {
        let (min, max) = (self.config.latency_min_ms, self.config.latency_max_ms);
        let latency = self.rng.gen_range(min..=max.max(min));
        self.seq += 1;
        self.stats.frames_sent += 1;
        self.stats.bytes_sent += frame.len() as u64;
        let due = now.saturating_add(latency).saturating_add(extra);
        self.queue
            .push(Reverse((due, self.seq, to, frame.to_vec())));
    }

    fn send(&mut self, now: Millis, to: u64, frame: &[u8]) -> Sent {
        if !self.registered.contains(&to) {
            return Sent::Unknown(to);
        }
        self.enqueue(now, to, 0, frame);
        Sent::Ok
    }

    fn send_from(&mut self, now: Millis, from: u64, to: u64, frame: &[u8]) -> Sent {
        if !self.registered.contains(&to) {
            return Sent::Unknown(to);
        }
        let group = |p: &Partition, peer| p.groups.iter().position(|g| g.contains(&peer));
        let split = self.partitions.iter().any(|p| {
            now >= p.from
                && now < p.until
                && matches!((group(p, from), group(p, to)), (Some(a), Some(b)) if a != b)
        });
        if split {
            self.dropped += 1;
            return Sent::Ok;
        }
        let extra = if self.jitter_max_ms == 0 {
            0
        } else {
            let (rng, max) = (&mut self.jitter_rng, self.jitter_max_ms);
            *self
                .link_jitter
                .entry((from, to))
                .or_insert_with(|| rng.gen_range(0..=max))
        };
        self.enqueue(now, to, extra, frame);
        Sent::Ok
    }

    fn poll(&mut self, now: Millis) -> Vec<(u64, Vec<u8>)> {
        let mut out = Vec::new();
        while self.queue.peek().is_some_and(|Reverse(q)| q.0 <= now) {
            let Reverse((_, _, to, frame)) = self.queue.pop().expect("peeked above");
            self.stats.frames_delivered += 1;
            self.stats.bytes_delivered += frame.len() as u64;
            out.push((to, frame));
        }
        out
    }

    fn next_due(&self) -> Option<Millis> {
        self.queue.peek().map(|Reverse(q)| q.0)
    }
}

fn sent(result: Result<(), TransportError>) -> Sent {
    match result {
        Ok(()) => Sent::Ok,
        Err(TransportError::UnknownPeer(peer)) => Sent::Unknown(peer.0),
        Err(other) => panic!("loopback cannot fail with {other}"),
    }
}

fn delivered(frames: Vec<(PeerId, Bytes)>) -> Vec<(u64, Vec<u8>)> {
    frames
        .into_iter()
        .map(|(to, frame)| (to.0, frame.as_slice().to_vec()))
        .collect()
}

/// The latency models the scripts run on: the default WAN model, zero
/// latency, a range far wider than the default, and a constant (every frame
/// of one instant shares a due time, so `seq` alone orders them).
fn config_of(which: usize, seed: u64) -> LoopbackConfig {
    let (latency_min_ms, latency_max_ms) = match which {
        0 => {
            let default = LoopbackConfig::default();
            (default.latency_min_ms, default.latency_max_ms)
        }
        1 => (0, 0),
        2 => (5, 5_000),
        _ => (10, 10),
    };
    LoopbackConfig {
        latency_min_ms,
        latency_max_ms,
        seed,
    }
}

/// Both sides after one step.
fn check_agrees(transport: &LoopbackTransport, model: &Model) -> TestCaseResult {
    prop_assert_eq!(transport.next_due(), model.next_due());
    prop_assert_eq!(transport.in_flight(), model.queue.len());
    prop_assert_eq!(transport.frames_dropped(), model.dropped);
    prop_assert_eq!(transport.stats(), model.stats.clone());
    Ok(())
}

/// Applies one step decoded from `words` to both sides.
fn step(
    transport: &mut LoopbackTransport,
    model: &mut Model,
    now: &mut Millis,
    tag: &mut u64,
    words: &mut impl Iterator<Item = u64>,
    op: u64,
) -> TestCaseResult {
    let mut word = || words.next().unwrap_or(0);
    let peer = |w: u64| PEERS[(w % PEERS.len() as u64) as usize];
    let mut frame = || {
        *tag += 1;
        // A few lengths, so the byte counters are exercised too.
        let mut bytes = tag.to_be_bytes().to_vec();
        bytes.resize(8 + (*tag % 5) as usize, 0xAB);
        bytes
    };
    match op % 16 {
        0 => {
            let id = peer(word());
            let fresh = model.registered.insert(id);
            match transport.register(PeerId(id)) {
                Ok(_) => prop_assert!(fresh, "peer {} registered twice", id),
                Err(TransportError::AlreadyRegistered(p)) => {
                    prop_assert!(!fresh && p.0 == id, "peer {} refused", id)
                }
                Err(other) => panic!("loopback cannot fail with {other}"),
            }
            prop_assert_eq!(
                transport.addr_of(PeerId(id)).is_some(),
                model.registered.contains(&id)
            );
        }
        1..=3 => {
            let (to, bytes) = (peer(word()), frame());
            prop_assert_eq!(
                sent(transport.send(*now, PeerId(to), Bytes::from(bytes.clone()))),
                model.send(*now, to, &bytes)
            );
        }
        4..=6 => {
            let (from, to, bytes) = (peer(word()), peer(word()), frame());
            prop_assert_eq!(
                sent(transport.send_from(
                    *now,
                    PeerId(from),
                    PeerId(to),
                    Bytes::from(bytes.clone())
                )),
                model.send_from(*now, from, to, &bytes)
            );
        }
        7 => {
            // A burst at one instant: many frames per millisecond bucket.
            let (from, to) = (peer(word()), peer(word()));
            for _ in 0..word() % 24 {
                let bytes = frame();
                prop_assert_eq!(
                    sent(transport.send_from(
                        *now,
                        PeerId(from),
                        PeerId(to),
                        Bytes::from(bytes.clone())
                    )),
                    model.send_from(*now, from, to, &bytes)
                );
            }
        }
        8 => {
            let max_ms = JITTERS[(word() % JITTERS.len() as u64) as usize];
            prop_assert!(transport.inject_fault(LinkFault::Jitter { max_ms }));
            model.jitter_max_ms = max_ms;
        }
        9 => {
            // A window around `now`, over two groups cut from the pool.
            let cut = 1 + (word() % (PEERS.len() as u64 - 1)) as usize;
            let groups = vec![PEERS[..cut].to_vec(), PEERS[cut..].to_vec()];
            let from = now.saturating_sub(word() % 50);
            let until = now.saturating_add(word() % 500);
            prop_assert!(transport.inject_fault(LinkFault::Partition {
                groups: groups
                    .iter()
                    .map(|g| g.iter().copied().map(PeerId).collect())
                    .collect(),
                from,
                until,
            }));
            model.partitions.push(Partition {
                groups,
                from,
                until,
            });
        }
        // Time: a millisecond or two, a latency's worth, minutes, backwards,
        // to the end of time (where a due time saturates) and back.
        10 => *now = now.saturating_add(word() % 3),
        11 => *now = now.saturating_add(word() % 400),
        12 => *now = now.saturating_add(100_000 + word() % 1_000_000),
        13 => *now = now.saturating_sub(word() % 2_000),
        15 if word() % 4 == 0 => {
            *now = match word() % 3 {
                0 => word() % 1_000,
                _ => u64::MAX - word() % 300,
            }
        }
        14 => {
            // Everything still in flight, whenever it is due.
            prop_assert_eq!(delivered(transport.poll(u64::MAX)), model.poll(u64::MAX));
        }
        _ => {}
    }
    // Most steps end in a poll at the script's clock, which may have stood
    // still or gone backwards since the last one.
    if op % 16 != 14 && (op >> 4) % 4 != 0 {
        prop_assert_eq!(delivered(transport.poll(*now)), model.poll(*now));
    }
    check_agrees(transport, model)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 96 } else { 2048 }))]

    #[test]
    fn loopback_delivers_in_due_then_send_order(
        which in 0usize..4,
        seed in any::<u64>(),
        words in proptest::collection::vec(any::<u64>(), 0..240),
    ) {
        let config = config_of(which, seed);
        let mut transport = if which == 1 {
            LoopbackTransport::instant()
        } else {
            LoopbackTransport::new(config)
        };
        let mut model = Model::new(if which == 1 { config_of(1, 0) } else { config });
        // Most scripts start with a few peers up, so sends are not refused.
        for &id in &PEERS[..(seed % 5) as usize] {
            transport.register(PeerId(id)).expect("fresh peer");
            model.registered.insert(id);
        }
        check_agrees(&transport, &model)?;

        let (mut now, mut tag) = (seed % 1_000, 0u64);
        let mut words = words.into_iter();
        while let Some(op) = words.next() {
            step(&mut transport, &mut model, &mut now, &mut tag, &mut words, op)?;
        }
        // Nothing is lost: the rest comes out, in order, and nothing stays.
        prop_assert_eq!(delivered(transport.poll(u64::MAX)), model.poll(u64::MAX));
        check_agrees(&transport, &model)?;
        prop_assert_eq!(transport.in_flight(), 0);
        prop_assert_eq!(transport.stats().frames_delivered, transport.stats().frames_sent);
    }
}
