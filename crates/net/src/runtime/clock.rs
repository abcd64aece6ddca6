//! The event clock: virtual time, the timer queue ([`Clock`]) and the loop
//! that merges timer events with frame arrivals ([`Runtime::run_until`]).

use super::links::recycle;
use super::{Millis, Runtime};
use pgrid_transport::Transport;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// How many consecutive empty polls a real-time transport may stall the
/// virtual clock while frames are in flight (at 200µs each) before the
/// runtime proceeds anyway.
const MAX_REALTIME_STALLS: u32 = 500;

/// A timer event.  The derived order is never consulted: the queue orders
/// by `(time, seq)` first and `seq` is unique.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(super) enum EventKind {
    ConstructTick { peer: usize },
    GoOffline { peer: usize },
    GoOnline { peer: usize },
}

/// Virtual time and the timer events scheduled against it, fired in
/// `(time, scheduling order)` order.
#[derive(Default)]
pub(super) struct Clock {
    /// Current virtual time.
    pub(super) now: Millis,
    queue: BinaryHeap<Reverse<(Millis, u64, EventKind)>>,
    seq: u64,
}

impl Clock {
    pub(super) fn schedule(&mut self, time: Millis, kind: EventKind) {
        self.seq += 1;
        self.queue.push(Reverse((time, self.seq, kind)));
    }
}

impl<T: Transport> Runtime<T> {
    /// Current virtual time in milliseconds.
    pub fn now(&self) -> Millis {
        self.clock.now
    }

    /// Takes a peer offline at `at` and brings it back `downtime` later
    /// (the churn pattern of the final experiment phase).
    pub fn schedule_churn(&mut self, peer: usize, at: Millis, downtime: Millis) {
        self.clock.schedule(at, EventKind::GoOffline { peer });
        self.clock
            .schedule(at + downtime, EventKind::GoOnline { peer });
    }

    /// Drains whatever the transport has produced *right now*, handles the
    /// frames and flushes any responses, without advancing the virtual
    /// clock.  Returns the number of frames handled.
    ///
    /// Real-time backends only need this outside [`Runtime::run_until`]: a
    /// cluster worker parked at a phase barrier keeps calling it so
    /// cross-shard exchanges initiated by slower processes are still
    /// answered while the local timeline waits.
    pub fn service_network(&mut self) -> usize {
        // No handler polls, so the inbox can be lent out for the loop.
        let mut inbox = std::mem::take(&mut self.links.inbox);
        self.links.transport.poll_into(self.clock.now, &mut inbox);
        let handled = inbox.len();
        for (to, frame_bytes) in inbox.drain(..) {
            self.deliver_frame(to, frame_bytes);
        }
        recycle(&mut inbox);
        self.links.inbox = inbox;
        self.flush_pending();
        handled
    }

    /// Advances virtual time to `until`, processing timer events and frame
    /// deliveries in order.
    ///
    /// With a virtual-time transport (loopback) frame arrivals are merged
    /// deterministically with the timer queue.  With a real-time transport
    /// (the reactor) arrived frames are always drained first, and while frames are
    /// still in flight the virtual clock briefly waits for the wire instead
    /// of racing ahead (for a bounded number of polls, `MAX_REALTIME_STALLS`).
    pub fn run_until(&mut self, until: Millis) {
        self.flush_pending();
        let mut stalls = 0u32;
        loop {
            if self.links.transport.is_realtime() {
                // Expire overdue queries *before* draining the wire: a
                // response that arrives after its deadline must count as a
                // late response, never as a success (the timeout verdict
                // is final — see `expire_timeouts`).
                self.expire_timeouts(self.clock.now, false);
                if self.service_network() > 0 {
                    stalls = 0;
                    continue;
                }
                if self.links.transport.in_flight() > 0 && stalls < MAX_REALTIME_STALLS {
                    stalls += 1;
                    std::thread::sleep(std::time::Duration::from_micros(200));
                    continue;
                }
            }
            let frame_due = self.links.transport.next_due().filter(|&t| t <= until);
            let timer_due = self
                .clock
                .queue
                .peek()
                .map(|Reverse(event)| event.0)
                .filter(|&t| t <= until);
            match (frame_due, timer_due) {
                (Some(f), t) if t.map_or(true, |t| f <= t) => {
                    self.clock.now = self.clock.now.max(f);
                    // Deadlines strictly before this instant have expired;
                    // a response arriving at exactly its deadline still
                    // counts (frames win ties, as with the old per-query
                    // timeout events).
                    self.expire_timeouts(self.clock.now, false);
                    self.service_network();
                }
                (_, Some(_)) => {
                    let Reverse((time, _, kind)) = self.clock.queue.pop().expect("peeked above");
                    self.clock.now = time.max(self.clock.now);
                    self.expire_timeouts(self.clock.now, false);
                    self.dispatch(kind);
                    self.flush_pending();
                }
                (_, None) => break,
            }
        }
        self.clock.now = self.clock.now.max(until);
        // End-of-window sweep: deadlines at or before `until` have fired
        // (as the per-query heap events would have by now).
        self.expire_timeouts(self.clock.now, true);
    }

    fn dispatch(&mut self, kind: EventKind) {
        match kind {
            EventKind::ConstructTick { peer } => self.construct_tick(peer),
            EventKind::GoOffline { peer } => {
                self.nodes[peer].online = false;
                self.recorder
                    .note(self.clock.now, "churn", format!("peer {peer} went offline"));
                self.rebuild_online_cache();
            }
            EventKind::GoOnline { peer } => {
                if self.nodes[peer].joined {
                    self.nodes[peer].online = true;
                }
                self.recorder.note(
                    self.clock.now,
                    "churn",
                    format!("peer {peer} came back online"),
                );
                self.rebuild_online_cache();
            }
        }
    }
}
