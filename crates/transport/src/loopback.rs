//! Deterministic in-memory transport.
//!
//! Frames are queued with a seeded, uniformly drawn latency and released by
//! [`Transport::poll`] once the caller's virtual clock has passed their due
//! time.  With a fixed seed the delivery order is identical across runs,
//! which is what the cross-backend parity tests build on: loopback stands in
//! for the emulated wide-area network of the deployment experiments, while
//! carrying the exact same frame bytes as the reactor's sockets.
//!
//! # Ordering contract
//!
//! Every accepted frame gets a due time (`now` + latency draw + per-link
//! jitter, saturating) and a sequence number (its rank among accepted
//! frames).  Frames leave in ascending `(due, seq)` order, for **any** call
//! sequence the trait allows — `now` may stand still, jump, go backwards or
//! be `u64::MAX`; `crates/transport/tests/loopback_schedule.rs` holds the
//! transport to a plain `(due, seq)` heap on random scripts.
//!
//! # The queue
//!
//! The traffic is monotone with a bounded horizon — a frame is due at most
//! `latency_max_ms` after the instant it was sent at — so frames wait in a
//! **calendar**: a ring of one FIFO bucket per millisecond covering
//! `[base, base + slots)`, with an occupancy bitmap that finds the next
//! non-empty millisecond in a word read or two however many empty ones lie
//! before it.  `slots` is the power of two above `2 × latency_max_ms`,
//! clamped to `MIN_SLOTS..=MAX_SLOTS` (64 … 4 096): a caller that polls
//! whenever [`Transport::next_due`] says so — the runtime's event loop —
//! sends at most one latency past `base` and so lands at most two latencies
//! past it.  `base` follows `poll`'s `now`, and is reset to the sender's
//! `now` whenever the ring is empty, so neither `poll(u64::MAX)` nor a clock
//! that went backwards strands it.
//!
//! Whatever is not due inside the ring's window goes to an **overflow
//! heap** in `(due, seq)` order: per-link jitter beyond the horizon, a
//! latency model wider than `MAX_SLOTS`, a send stamped earlier than
//! `base`.  Both structures are consulted on every release, and of two
//! frames due in one millisecond the overflowed one is always the earlier
//! send (see `Calendar::release`), so where a frame waited never shows in
//! the order it leaves in.
//!
//! A bucket is a [`Frames`]: its frames' bytes back to back in one buffer,
//! copied in from the sender's slice, so a frame in flight costs no heap
//! block of its own (an overflowed frame keeps an owned copy).  A bucket
//! released into an empty [`Transport::poll_frames`] buffer swaps storage
//! with it instead of being copied, and an emptied bucket keeps at most
//! [`Frames::RETAIN_BYTES`], so the empty calendar holds at most `slots`
//! times that however large a frame or a burst was.

use crate::{Frames, LinkFault, Millis, PeerAddr, Transport, TransportError, TransportStats};
use bytes::Bytes;
use pgrid_core::routing::PeerId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};

/// Seed salt of the per-link jitter RNG, so enabling jitter never perturbs
/// the base latency stream (which parity tests pin bit-exactly).
const JITTER_SEED_SALT: u64 = 0x4A17;

/// Smallest ring: one bitmap word.
const MIN_SLOTS: u64 = 64;

/// Largest ring (a 2 s latency model); a wider model spills its far frames
/// to the overflow heap instead of growing the ring with it.
const MAX_SLOTS: u64 = 4_096;

/// Latency model and seed of the loopback backend.
#[derive(Copy, Clone, Debug)]
pub struct LoopbackConfig {
    /// Minimum one-way frame latency in milliseconds of virtual time.
    pub latency_min_ms: u64,
    /// Maximum one-way frame latency in milliseconds of virtual time.
    pub latency_max_ms: u64,
    /// Seed of the latency draws.
    pub seed: u64,
}

impl Default for LoopbackConfig {
    fn default() -> Self {
        LoopbackConfig {
            latency_min_ms: 20,
            latency_max_ms: 250,
            seed: 0x10C4,
        }
    }
}

/// A frame in the overflow heap: `(due, seq, to, frame)`, and `seq` is
/// unique, so the order never looks past it.
type Queued = Reverse<(Millis, u64, PeerId, Box<[u8]>)>;

/// The frames in flight (see the module documentation).
///
/// Invariants: a ring frame due at `d` sits in `buckets[d & mask]`, behind
/// the frames sent before it, with `base <= d < base + slots`; bit `i` of
/// `occupied` is set iff `buckets[i]` is non-empty; `ring_len` is the number
/// of ring frames.  While the ring holds a frame, `base` only moves forward
/// and never past the earliest one.
struct Calendar {
    buckets: Vec<Frames>,
    occupied: Vec<u64>,
    mask: u64,
    base: Millis,
    ring_len: usize,
    overflow: BinaryHeap<Queued>,
}

impl Calendar {
    /// A calendar whose ring covers two of the given latencies.
    fn new(latency_max_ms: u64) -> Calendar {
        let slots = latency_max_ms
            .saturating_mul(2)
            .saturating_add(1)
            .min(MAX_SLOTS)
            .next_power_of_two()
            .max(MIN_SLOTS);
        Calendar {
            buckets: (0..slots).map(|_| Frames::default()).collect(),
            occupied: vec![0; (slots / 64) as usize],
            mask: slots - 1,
            base: 0,
            ring_len: 0,
            overflow: BinaryHeap::new(),
        }
    }

    fn len(&self) -> usize {
        self.ring_len + self.overflow.len()
    }

    fn push(&mut self, now: Millis, due: Millis, seq: u64, to: PeerId, frame: &[u8]) {
        if self.ring_len == 0 {
            // Nothing holds the window in place: open it where the sender
            // is, wherever an earlier `poll` left it.
            self.base = now;
        }
        if due >= self.base && due - self.base <= self.mask {
            let index = (due & self.mask) as usize;
            self.buckets[index].push(to, frame);
            self.occupied[index / 64] |= 1 << (index % 64);
            self.ring_len += 1;
        } else {
            self.overflow.push(Reverse((due, seq, to, frame.into())));
        }
    }

    /// Due time of the first non-empty bucket.
    fn ring_next_due(&self) -> Option<Millis> {
        if self.ring_len == 0 {
            return None;
        }
        let start = (self.base & self.mask) as usize;
        // The bits from `start` up in its word, then word after word around
        // the ring; back at the first word its low bits are all that is
        // left.  `ring_len > 0` says some bit is set.
        let mut at = start / 64;
        let mut word = self.occupied[at] & (u64::MAX << (start % 64));
        while word == 0 {
            at = (at + 1) % self.occupied.len();
            word = self.occupied[at];
        }
        let index = at * 64 + word.trailing_zeros() as usize;
        let ahead = index.wrapping_sub(start) as u64 & self.mask;
        Some(self.base + ahead)
    }

    fn overflow_next_due(&self) -> Option<Millis> {
        self.overflow.peek().map(|Reverse(queued)| queued.0)
    }

    fn next_due(&self) -> Option<Millis> {
        match (self.ring_next_due(), self.overflow_next_due()) {
            (Some(ring), Some(heap)) => Some(ring.min(heap)),
            (ring, heap) => ring.or(heap),
        }
    }

    /// Appends every frame due by `now` to `out`, in `(due, seq)` order.
    ///
    /// A millisecond's overflow frames go before its bucket: a frame
    /// overflows only while its millisecond lies outside the window, and
    /// the window never moves off a millisecond that holds a ring frame, so
    /// all of them were sent before anything in the bucket.
    fn release(&mut self, now: Millis, out: &mut Frames) {
        loop {
            let ring_due = self.ring_next_due().filter(|&due| due <= now);
            let heap_due = self.overflow_next_due().filter(|&due| due <= now);
            match (ring_due, heap_due) {
                (ring_due, Some(due)) if ring_due.map_or(true, |ring| due <= ring) => {
                    let Reverse((_, _, to, frame)) = self.overflow.pop().expect("peeked above");
                    out.push(to, &frame);
                }
                (Some(due), _) => {
                    let index = (due & self.mask) as usize;
                    let bucket = &mut self.buckets[index];
                    self.ring_len -= bucket.len();
                    out.append(bucket);
                    self.occupied[index / 64] &= !(1 << (index % 64));
                    self.base = due;
                }
                (None, _) => break,
            }
        }
        // Every ring frame left is due after `now`.
        self.base = self.base.max(now);
        if self.overflow.is_empty() {
            // A burst through the heap gives back all but `MIN_SLOTS` slots.
            self.overflow.shrink_to(MIN_SLOTS as usize);
        }
    }
}

/// A window-scoped network split: frames between different groups are
/// dropped while the window is open, then the network heals.
struct Partition {
    group_of: BTreeMap<PeerId, usize>,
    from: Millis,
    until: Millis,
}

/// The in-memory virtual-time backend.
pub struct LoopbackTransport {
    config: LoopbackConfig,
    rng: StdRng,
    queue: Calendar,
    /// Whether peer `i` is registered.  Peer ids are dense (`0..n_peers`
    /// everywhere in the workspace), so the table is indexed by id.
    registered: Vec<bool>,
    /// The `Bytes` polls' staging, kept so the buckets it swaps with keep
    /// their retained capacity.
    arrived: Frames,
    seq: u64,
    stats: TransportStats,
    /// Injected faults.  All empty/zero by default, in which case the
    /// fault paths draw nothing from any RNG and the delivery schedule is
    /// bit-identical to a fault-free transport.
    jitter_max_ms: u64,
    jitter_rng: StdRng,
    link_jitter: HashMap<(PeerId, PeerId), u64>,
    partitions: Vec<Partition>,
    /// Frames dropped by an active partition window.
    frames_dropped: u64,
}

impl LoopbackTransport {
    /// Creates a loopback transport with the given latency model.
    pub fn new(config: LoopbackConfig) -> LoopbackTransport {
        LoopbackTransport {
            rng: StdRng::seed_from_u64(config.seed),
            jitter_rng: StdRng::seed_from_u64(config.seed ^ JITTER_SEED_SALT),
            config,
            queue: Calendar::new(config.latency_max_ms.max(config.latency_min_ms)),
            registered: Vec::new(),
            arrived: Frames::default(),
            seq: 0,
            stats: TransportStats::default(),
            jitter_max_ms: 0,
            link_jitter: HashMap::new(),
            partitions: Vec::new(),
            frames_dropped: 0,
        }
    }

    /// Frames dropped so far by partition windows.
    pub fn frames_dropped(&self) -> u64 {
        self.frames_dropped
    }

    fn is_registered(&self, peer: PeerId) -> bool {
        usize::try_from(peer.0).is_ok_and(|index| self.registered.get(index) == Some(&true))
    }

    /// Whether an active partition window separates `from` and `to` at
    /// virtual time `now`.
    fn partitioned(&self, now: Millis, from: PeerId, to: PeerId) -> bool {
        self.partitions.iter().any(|p| {
            now >= p.from
                && now < p.until
                && matches!(
                    (p.group_of.get(&from), p.group_of.get(&to)),
                    (Some(a), Some(b)) if a != b
                )
        })
    }

    /// Stable per-directed-link latency offset, drawn lazily on first use.
    fn link_jitter_for(&mut self, from: PeerId, to: PeerId) -> u64 {
        let (rng, max) = (&mut self.jitter_rng, self.jitter_max_ms);
        if max == 0 {
            return 0;
        }
        *self
            .link_jitter
            .entry((from, to))
            .or_insert_with(|| rng.gen_range(0..=max))
    }

    fn enqueue(&mut self, now: Millis, to: PeerId, extra_latency: Millis, frame: &[u8]) {
        let latency = self.rng.gen_range(
            self.config.latency_min_ms..=self.config.latency_max_ms.max(self.config.latency_min_ms),
        );
        self.seq += 1;
        self.stats.frames_sent += 1;
        self.stats.bytes_sent += frame.len() as u64;
        // Saturating: a frame sent at the end of time is due at the end of
        // time, not at its beginning.
        let due = now.saturating_add(latency).saturating_add(extra_latency);
        self.queue.push(now, due, self.seq, to, frame);
    }

    /// A loopback transport that delivers every frame instantly (zero
    /// latency), useful for throughput benchmarks.
    pub fn instant() -> LoopbackTransport {
        LoopbackTransport::new(LoopbackConfig {
            latency_min_ms: 0,
            latency_max_ms: 0,
            seed: 0,
        })
    }
}

impl Transport for LoopbackTransport {
    fn register(&mut self, peer: PeerId) -> Result<PeerAddr, TransportError> {
        let index = usize::try_from(peer.0).expect("peer ids are dense and fit a usize");
        if index >= self.registered.len() {
            self.registered.resize(index + 1, false);
        }
        if std::mem::replace(&mut self.registered[index], true) {
            return Err(TransportError::AlreadyRegistered(peer));
        }
        Ok(PeerAddr::Local(peer))
    }

    fn send(&mut self, now: Millis, to: PeerId, frame: Bytes) -> Result<(), TransportError> {
        if !self.is_registered(to) {
            return Err(TransportError::UnknownPeer(to));
        }
        self.enqueue(now, to, 0, frame.as_slice());
        Ok(())
    }

    fn send_from(
        &mut self,
        now: Millis,
        from: PeerId,
        to: PeerId,
        frame: Bytes,
    ) -> Result<(), TransportError> {
        self.send_slice(now, from, to, frame.as_slice())
    }

    fn send_slice(
        &mut self,
        now: Millis,
        from: PeerId,
        to: PeerId,
        frame: &[u8],
    ) -> Result<(), TransportError> {
        if !self.is_registered(to) {
            return Err(TransportError::UnknownPeer(to));
        }
        if self.partitioned(now, from, to) {
            // Partitioned frames vanish on the wire (like loss); the
            // sender sees no error, queries time out and retry.
            self.frames_dropped += 1;
            return Ok(());
        }
        let extra = self.link_jitter_for(from, to);
        self.enqueue(now, to, extra, frame);
        Ok(())
    }

    fn inject_fault(&mut self, fault: LinkFault) -> bool {
        match fault {
            LinkFault::Jitter { max_ms } => self.jitter_max_ms = max_ms,
            LinkFault::Partition {
                groups,
                from,
                until,
            } => {
                let mut group_of = BTreeMap::new();
                for (group, members) in groups.iter().enumerate() {
                    for &peer in members {
                        group_of.insert(peer, group);
                    }
                }
                self.partitions.push(Partition {
                    group_of,
                    from,
                    until,
                });
            }
        }
        true
    }

    fn poll_into(&mut self, now: Millis, out: &mut Vec<(PeerId, Bytes)>) {
        // One block per poll; each frame is a view of it.
        let mut arrived = std::mem::take(&mut self.arrived);
        self.poll_frames(now, &mut arrived);
        if !arrived.is_empty() {
            let block = Bytes::copy_from_slice(&arrived.bytes);
            let frames = crate::frames_in(block.as_slice());
            out.extend(frames.map(|(to, frame)| (to, block.slice_ref(frame))));
        }
        arrived.recycle();
        self.arrived = arrived;
    }

    fn poll_frames(&mut self, now: Millis, out: &mut Frames) {
        let (frames, bytes) = (out.len(), out.byte_len());
        self.queue.release(now, out);
        self.stats.frames_delivered += (out.len() - frames) as u64;
        self.stats.bytes_delivered += (out.byte_len() - bytes) as u64;
    }

    fn next_due(&self) -> Option<Millis> {
        self.queue.next_due()
    }

    fn in_flight(&self) -> usize {
        self.queue.len()
    }

    fn stats(&self) -> TransportStats {
        self.stats.clone()
    }

    fn addr_of(&self, peer: PeerId) -> Option<PeerAddr> {
        self.is_registered(peer).then_some(PeerAddr::Local(peer))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(tag: u8) -> Bytes {
        crate::frame::encode_frame(&[Bytes::from(vec![tag; 4])])
    }

    #[test]
    fn frames_are_released_in_due_order() {
        let mut t = LoopbackTransport::new(LoopbackConfig {
            latency_min_ms: 10,
            latency_max_ms: 100,
            seed: 1,
        });
        let a = PeerId(0);
        t.register(a).unwrap();
        for i in 0..20 {
            t.send(0, a, frame(i)).unwrap();
        }
        assert_eq!(t.in_flight(), 20);
        assert!(t.poll(9).is_empty());
        let due = t.next_due().unwrap();
        assert!((10..=100).contains(&due));
        let delivered = t.poll(100);
        assert_eq!(delivered.len(), 20);
        assert_eq!(t.in_flight(), 0);
        assert_eq!(t.stats().frames_delivered, 20);
    }

    #[test]
    fn delivery_order_is_deterministic_per_seed() {
        let run = |seed| {
            let mut t = LoopbackTransport::new(LoopbackConfig {
                latency_min_ms: 5,
                latency_max_ms: 500,
                seed,
            });
            t.register(PeerId(0)).unwrap();
            for i in 0..32 {
                t.send(0, PeerId(0), frame(i)).unwrap();
            }
            t.poll(1_000)
                .into_iter()
                .map(|(_, f)| f.as_slice().to_vec())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn send_from_without_faults_matches_send_exactly() {
        let config = LoopbackConfig {
            latency_min_ms: 5,
            latency_max_ms: 500,
            seed: 42,
        };
        let run = |use_from: bool| {
            let mut t = LoopbackTransport::new(config);
            t.register(PeerId(0)).unwrap();
            t.register(PeerId(1)).unwrap();
            for i in 0..32 {
                if use_from {
                    t.send_from(0, PeerId(0), PeerId(1), frame(i)).unwrap();
                } else {
                    t.send(0, PeerId(1), frame(i)).unwrap();
                }
            }
            t.poll(10_000)
                .into_iter()
                .map(|(_, f)| f.as_slice().to_vec())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn partition_window_drops_cross_group_frames_then_heals() {
        let mut t = LoopbackTransport::instant();
        let (a, b) = (PeerId(0), PeerId(1));
        t.register(a).unwrap();
        t.register(b).unwrap();
        assert!(t.inject_fault(LinkFault::Partition {
            groups: vec![vec![a], vec![b]],
            from: 100,
            until: 200,
        }));
        // Before the window: delivered.
        t.send_from(50, a, b, frame(1)).unwrap();
        assert_eq!(t.poll(60).len(), 1);
        // Inside the window: cross-group dropped, same-group unaffected.
        t.send_from(150, a, b, frame(2)).unwrap();
        t.send_from(150, b, a, frame(3)).unwrap();
        t.send_from(150, a, a, frame(4)).unwrap();
        assert_eq!(t.poll(160).len(), 1);
        assert_eq!(t.frames_dropped(), 2);
        // After the window: healed.
        t.send_from(200, a, b, frame(5)).unwrap();
        assert_eq!(t.poll(210).len(), 1);
    }

    #[test]
    fn per_link_jitter_is_stable_and_seeded() {
        let due_times = |seed| {
            let mut t = LoopbackTransport::new(LoopbackConfig {
                latency_min_ms: 10,
                latency_max_ms: 10,
                seed,
            });
            t.register(PeerId(0)).unwrap();
            t.register(PeerId(1)).unwrap();
            assert!(t.inject_fault(LinkFault::Jitter { max_ms: 500 }));
            t.send_from(0, PeerId(0), PeerId(1), frame(1)).unwrap();
            t.send_from(0, PeerId(0), PeerId(1), frame(2)).unwrap();
            t.send_from(0, PeerId(1), PeerId(0), frame(3)).unwrap();
            let mut dues = Vec::new();
            while let Some(due) = t.next_due() {
                dues.push(due);
                t.poll(due);
            }
            dues
        };
        let dues = due_times(7);
        // Same link, same offset: both frames share a due time.
        assert_eq!(dues.len(), 2, "two distinct link offsets: {dues:?}");
        assert_eq!(due_times(7), due_times(7));
        assert_ne!(due_times(7), due_times(8));
    }

    /// The tags of the frames `poll(now)` hands out, in order.
    fn tags(t: &mut LoopbackTransport, now: Millis) -> Vec<u8> {
        let frames = t.poll(now).into_iter();
        frames.map(|(_, f)| f.as_slice()[f.len() - 1]).collect()
    }

    #[test]
    fn a_send_at_the_end_of_time_is_due_at_the_end_of_time() {
        let mut t = LoopbackTransport::new(LoopbackConfig {
            latency_min_ms: 10,
            latency_max_ms: 100,
            seed: 1,
        });
        t.register(PeerId(0)).unwrap();
        t.send(u64::MAX - 5, PeerId(0), frame(1)).unwrap();
        t.inject_fault(LinkFault::Jitter { max_ms: u64::MAX });
        t.link_jitter.insert((PeerId(0), PeerId(0)), u64::MAX);
        t.send_from(7, PeerId(0), PeerId(0), frame(2)).unwrap();
        t.send(u64::MAX, PeerId(0), frame(3)).unwrap();
        assert_eq!(t.next_due(), Some(u64::MAX));
        assert!(t.poll(u64::MAX - 1).is_empty());
        assert_eq!(tags(&mut t, u64::MAX), [1, 2, 3]);
        assert_eq!(t.in_flight(), 0);
    }

    #[test]
    fn the_ring_is_rebased_once_it_is_empty() {
        let mut t = LoopbackTransport::new(LoopbackConfig {
            latency_min_ms: 10,
            latency_max_ms: 10,
            seed: 1,
        });
        let me = PeerId(0);
        t.register(me).unwrap();
        let slots = t.queue.buckets.len() as u64;
        assert_eq!(slots, MIN_SLOTS);
        let waiting = |t: &LoopbackTransport| (t.queue.ring_len, t.queue.overflow.len());

        // `poll(u64::MAX)` leaves the window at the end of time; the next
        // send finds the ring empty and opens it where the sender is.
        t.send(0, me, frame(1)).unwrap();
        assert_eq!(tags(&mut t, u64::MAX), [1]);
        t.send(1_000, me, frame(2)).unwrap();
        assert_eq!(waiting(&t), (1, 0));

        // While that frame holds the window at 1 000, a sender whose clock
        // went backwards and a frame due exactly one ring on (it would land
        // in 1 000's bucket) both overflow.
        t.send(900, me, frame(3)).unwrap();
        t.inject_fault(LinkFault::Jitter { max_ms: slots });
        t.link_jitter.insert((me, me), slots - 10);
        t.send_from(1_000, me, me, frame(4)).unwrap();
        t.inject_fault(LinkFault::Jitter { max_ms: 0 });
        assert_eq!(waiting(&t), (1, 2));
        assert_eq!(t.next_due(), Some(910));
        assert_eq!(tags(&mut t, 1_009), [3]);
        assert_eq!(tags(&mut t, 1_010), [2]);

        // The ring is empty and re-opens at 1 054; its frames fall due in
        // the overflowed frame's millisecond and leave behind it.
        t.send(1_054, me, frame(5)).unwrap();
        t.send(1_054, me, frame(6)).unwrap();
        assert_eq!(waiting(&t), (2, 1));
        assert!(t.poll(1_000 + slots - 1).is_empty());
        assert_eq!(tags(&mut t, 1_000 + slots), [4, 5, 6]);

        // Empty again: an earlier clock is back on the ring.
        t.send(50, me, frame(7)).unwrap();
        assert_eq!(waiting(&t), (1, 0));
        assert_eq!(tags(&mut t, 60), [7]);
    }

    #[test]
    fn unknown_peers_are_rejected() {
        let mut t = LoopbackTransport::instant();
        assert!(matches!(
            t.send(0, PeerId(3), frame(0)),
            Err(TransportError::UnknownPeer(PeerId(3)))
        ));
        t.register(PeerId(3)).unwrap();
        assert!(matches!(
            t.register(PeerId(3)),
            Err(TransportError::AlreadyRegistered(PeerId(3)))
        ));
        assert_eq!(t.addr_of(PeerId(3)), Some(PeerAddr::Local(PeerId(3))));
        assert_eq!(t.addr_of(PeerId(4)), None);
    }
}
