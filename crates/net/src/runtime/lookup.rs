//! The query plane: point lookups and range walks.  [`Lookups`] owns the
//! origin-side bookkeeping (outstanding queries, their lazy timeout
//! queues) and the route cache; entry points are
//! [`Runtime::issue_query_batch_on`] and [`Runtime::issue_range_query_on`].  Both planes decide with core's
//! routing step ([`pgrid_core::route`]) and encode its decision as a
//! message; the route cache is a memo in front of its reference pick.

use super::links::recycle;
use super::{check_index, Millis, QueryRecord, RangeSample, Runtime};
use crate::message::Message;
use pgrid_core::index::IndexId;
use pgrid_core::key::{DataEntry, Key};
use pgrid_core::peer::PeerState;
use pgrid_core::route::{self, RangeStep, Reason, Step};
use pgrid_core::routing::{PeerId, RoutingEntry};
use pgrid_obs::trace::NO_TRACE;
use pgrid_transport::Transport;
use rand::Rng;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

/// How often a stalled range walk is restarted before the origin reports
/// the range incomplete.
const MAX_RANGE_RETRIES: u32 = 3;

/// The reference pick a routing step is handed: the mismatch level and its
/// references in, the next hop out.
pub(super) type Pick<'a> = dyn FnMut(usize, &[RoutingEntry]) -> Option<PeerId> + 'a;

/// Origin-side bookkeeping of one outstanding lookup.
#[derive(Clone, Copy, Debug)]
struct PendingQuery {
    issued_at: Millis,
    /// Trace of this lookup (`NO_TRACE` when tracing is off).
    trace_id: u64,
}

/// A set of merged, disjoint key intervals — the origin-side coverage
/// accounting of a range query.  Slices may arrive out of order (network
/// reordering) or not at all (loss), so completion is only declared when
/// the union of received intervals covers the whole requested range.
#[derive(Clone, Debug, Default)]
struct Coverage {
    /// Sorted, disjoint, non-adjacent inclusive intervals.
    intervals: Vec<(Key, Key)>,
}

impl Coverage {
    /// Merges the inclusive interval `[from, upto]` into the set.
    fn add(&mut self, from: Key, upto: Key) {
        if from > upto {
            return;
        }
        self.intervals.push((from, upto));
        self.intervals.sort_unstable();
        // Merge overlapping or adjacent intervals ([x, k] and [k+1, y] are
        // contiguous key ranges) in place.
        self.intervals.dedup_by(|(a, b), last| {
            let joins = a.0 <= last.1 .0.saturating_add(1);
            if joins {
                last.1 = last.1.max(*b);
            }
            joins
        });
    }

    /// Whether one merged interval covers all of `[lo, hi]`.
    fn covers(&self, lo: Key, hi: Key) -> bool {
        self.intervals.iter().any(|&(a, b)| a <= lo && b >= hi)
    }

    /// The smallest key of `[lo, hi]` not yet covered, if any — where a
    /// stalled walk must resume.
    fn first_uncovered(&self, lo: Key, hi: Key) -> Option<Key> {
        let mut cursor = lo;
        for &(a, b) in &self.intervals {
            if a > cursor {
                break;
            }
            if b >= cursor {
                if b >= hi {
                    return None;
                }
                cursor = Key(b.0.saturating_add(1));
            }
        }
        (cursor <= hi).then_some(cursor)
    }
}

/// Origin-side bookkeeping of one outstanding range query.
#[derive(Clone, Debug)]
struct RangeState {
    issued_at: Millis,
    lo: Key,
    hi: Key,
    coverage: Coverage,
    entries: Vec<DataEntry>,
    hops: u32,
    /// Current expiry: extended by a full timeout window on every partial
    /// response, so a walk only expires after a window *without progress*
    /// (a long walk over many partitions is not a failure).
    deadline: Millis,
    /// Stall recoveries performed so far (bounded by
    /// [`MAX_RANGE_RETRIES`]): a walk killed by frame loss is restarted
    /// from the first uncovered key instead of giving up.
    retries: u32,
    /// Trace of this range walk (`NO_TRACE` when tracing is off).
    trace_id: u64,
}

impl RangeState {
    /// The resolved walk as a debug sample: merged, deduplicated entries;
    /// `latency_ms` is `None` for a walk that expired incomplete.
    fn into_sample(mut self, id: u64, latency_ms: Option<Millis>) -> RangeSample {
        self.entries.sort_unstable();
        self.entries.dedup();
        RangeSample {
            index: IndexId::PRIMARY,
            id,
            lo: self.lo,
            hi: self.hi,
            issued_at: self.issued_at,
            latency_ms,
            complete: latency_ms.is_some(),
            hops: self.hops,
            entries: self.entries,
        }
    }
}

/// Hashes a query id with one multiply by 2⁶⁴ / φ, which varies both the
/// low bits a table indexes by and the high bits it tags slots with.  The
/// runtime issues the ids itself, so none needs SipHash's defence against
/// crafted collisions.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("an id hashes as one u64")
    }

    fn write_u64(&mut self, id: u64) {
        self.0 = id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Outstanding queries by the id the runtime issued them under.
type ById<V> = HashMap<u64, V, BuildHasherDefault<IdHasher>>;

/// Origin-side query state and the routing memo.
#[derive(Default)]
pub(super) struct Lookups {
    next_id: u64,
    queries: ById<PendingQuery>,
    ranges: ById<RangeState>,
    /// Expiry deadlines of outstanding queries in issue order.  The
    /// timeout is a constant, so the queue is naturally sorted and expiry
    /// is a lazy front-sweep instead of one heap event per query (the
    /// per-query event heap was the old accounting's hot-path cost).
    timeouts: VecDeque<(Millis, u64)>,
    /// Expiry deadlines of outstanding *range* queries.  Kept separate
    /// from `timeouts` because range deadlines extend on progress: a new
    /// entry is pushed per extension (keeping the queue sorted) and stale
    /// entries are skipped against [`RangeState::deadline`].
    range_timeouts: VecDeque<(Millis, u64)>,
    /// Memoised prefix-routing resolution per `(peer, mismatch level)`;
    /// only consulted with `NetConfig::route_cache` on, and invalidated
    /// whenever a peer's path or routing table changes.
    pub(super) route_cache: HashMap<(usize, usize), PeerId>,
    /// Where core's reference pick shuffles a level's references, kept
    /// (empty) from hop to hop.
    pub(super) hop_scratch: Vec<PeerId>,
}

impl Lookups {
    fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id - 1
    }

    /// Drops every memoised routing resolution of `peer` (no-op while the
    /// cache is disabled and therefore empty).
    pub(super) fn invalidate_routes(&mut self, peer: usize) {
        if !self.route_cache.is_empty() {
            self.route_cache.retain(|&(p, _), _| p != peer);
        }
    }
}

/// Pops the front of a deadline queue if it is due at `cutoff` (strictly
/// before it unless `inclusive`).
fn pop_due(
    queue: &mut VecDeque<(Millis, u64)>,
    cutoff: Millis,
    inclusive: bool,
) -> Option<(Millis, u64)> {
    let &(deadline, _) = queue.front()?;
    let due = deadline < cutoff || (inclusive && deadline == cutoff);
    if due {
        queue.pop_front()
    } else {
        None
    }
}

impl<T: Transport> Runtime<T> {
    /// Issues a batch of lookups, each from a random hosted online peer,
    /// flushing outgoing frames once for the entire batch; the results are
    /// folded into [`NetMetrics::query_stats`](super::NetMetrics::query_stats).
    /// First-hop forwards to the same destination share frames.  `index`
    /// must be [`IndexId::PRIMARY`].
    pub fn issue_query_batch_on(&mut self, index: IndexId, keys: &[Key]) {
        check_index(index);
        if self.online_hosted.is_empty() {
            return;
        }
        for &key in keys {
            self.issue_one_query(key);
        }
        self.flush_pending();
    }

    /// Shared issue path: draws the origin, registers the outstanding
    /// query and its lazy timeout, and lets the origin handle the query
    /// locally first (it might be responsible itself).  Does not flush.
    fn issue_one_query(&mut self, key: Key) {
        let now = self.clock.now;
        let origin = self.online_hosted[self.rng.gen_range(0..self.online_hosted.len())];
        let id = self.lookups.fresh_id();
        self.metrics.query_stats.issued += 1;
        let trace_id = self.tracer.new_trace();
        self.tracer
            .record(trace_id, "query_issued", origin as u64, now, || {
                format!("id={id} key={}", key.0)
            });
        self.lookups.queries.insert(
            id,
            PendingQuery {
                issued_at: now,
                trace_id,
            },
        );
        self.lookups
            .timeouts
            .push_back((now + self.config.query_timeout_ms, id));
        let message = Message::Query {
            origin: PeerId(origin as u64),
            id,
            key,
            hops: 0,
        };
        self.with_trace(origin, trace_id, |rt| rt.handle_message(origin, message));
    }

    /// Issues a range query for `[lo, hi]` (inclusive) from a random hosted
    /// online peer; returns the query id, or `None` when no hosted peer is
    /// online.  `index` must be [`IndexId::PRIMARY`].
    ///
    /// Each peer's turn is [`pgrid_core::route::range_step`], the step
    /// [`pgrid_core::search::range_query`] drives for the simulator: the
    /// walk routes to the partition holding `lo`, collects that peer's
    /// slice, and follows the trie rightwards partition by partition; each
    /// responsible peer answers its slice straight to the origin.
    /// Completion (the slices covering the whole range) and the collected
    /// entries are recorded in
    /// [`NetMetrics::query_stats`](super::NetMetrics::query_stats) /
    /// [`NetMetrics::range_samples`](super::NetMetrics::range_samples).  An
    /// empty range (`lo > hi`) completes immediately with no entries.  A
    /// walk expires incomplete only after
    /// [`NetConfig::query_timeout_ms`](super::NetConfig::query_timeout_ms)
    /// *without progress* — every partial response extends the deadline,
    /// so wide ranges spanning many partitions are not penalised.
    pub fn issue_range_query_on(&mut self, index: IndexId, lo: Key, hi: Key) -> Option<u64> {
        check_index(index);
        if self.online_hosted.is_empty() {
            return None;
        }
        let now = self.clock.now;
        let origin = self.online_hosted[self.rng.gen_range(0..self.online_hosted.len())];
        let id = self.lookups.fresh_id();
        self.metrics.query_stats.ranges_issued += 1;
        let deadline = now + self.config.query_timeout_ms;
        let mut state = RangeState {
            issued_at: now,
            lo,
            hi,
            coverage: Coverage::default(),
            entries: Vec::new(),
            hops: 0,
            deadline,
            retries: 0,
            trace_id: NO_TRACE,
        };
        if lo > hi {
            self.finish_range(id, state);
            return Some(id);
        }
        state.trace_id = self.tracer.new_trace();
        let trace_id = state.trace_id;
        self.tracer
            .record(trace_id, "range_issued", origin as u64, now, || {
                format!("id={id} lo={} hi={}", lo.0, hi.0)
            });
        self.lookups.ranges.insert(id, state);
        self.lookups.range_timeouts.push_back((deadline, id));
        self.with_trace(origin, trace_id, |rt| {
            rt.handle_range_message(origin, PeerId(origin as u64), id, lo, hi, lo, 0)
        });
        self.flush_pending();
        Some(id)
    }

    /// Records a range walk whose slices covered the whole range.
    fn finish_range(&mut self, id: u64, state: RangeState) {
        let latency = self.clock.now - state.issued_at;
        let agg = &mut self.metrics.query_stats;
        agg.ranges_complete += 1;
        agg.range_latency.record(latency);
        self.metrics
            .push_range_sample(state.into_sample(id, Some(latency)));
    }

    /// Expires every queued deadline up to `cutoff` (strictly below it
    /// unless `inclusive`): outstanding lookups count as timed out,
    /// outstanding range queries resolve incomplete.  Deadlines of queries
    /// that were answered in time are simply discarded.  The queue is in
    /// issue order and the timeout is constant, so this is a front sweep.
    pub(super) fn expire_timeouts(&mut self, cutoff: Millis, inclusive: bool) {
        let now = self.clock.now;
        while let Some((_, id)) = pop_due(&mut self.lookups.timeouts, cutoff, inclusive) {
            if let Some(pending) = self.lookups.queries.remove(&id) {
                self.metrics.query_stats.timed_out += 1;
                self.tracer
                    .record(pending.trace_id, "query_timeout", u64::MAX, now, || {
                        format!("id={id} issued_at={}", pending.issued_at)
                    });
                self.recorder.note(
                    now,
                    "query_timeout",
                    format!(
                        "query {id} issued at {} expired unanswered",
                        pending.issued_at
                    ),
                );
                self.dump_flight("query timeout");
                self.metrics.push_query_sample(QueryRecord {
                    issued_at: pending.issued_at,
                    latency_ms: None,
                    hops: 0,
                    success: false,
                });
            }
        }
        while let Some((deadline, id)) =
            pop_due(&mut self.lookups.range_timeouts, cutoff, inclusive)
        {
            let Some(state) = self.lookups.ranges.get_mut(&id) else {
                continue;
            };
            // A later entry supersedes this one: the walk made progress
            // and its deadline was extended.
            if state.deadline > deadline {
                continue;
            }
            // A stalled walk (typically killed by frame loss) is restarted
            // from the first uncovered key before the origin gives up.
            if state.retries < MAX_RANGE_RETRIES && !self.online_hosted.is_empty() {
                let cursor = state
                    .coverage
                    .first_uncovered(state.lo, state.hi)
                    .expect("an uncovering walk always has a gap");
                let peer = self.online_hosted[self.rng.gen_range(0..self.online_hosted.len())];
                state.retries += 1;
                state.deadline = now + self.config.query_timeout_ms;
                self.lookups.range_timeouts.push_back((state.deadline, id));
                let (lo, hi, hops, trace_id) = (state.lo, state.hi, state.hops, state.trace_id);
                self.tracer
                    .record(trace_id, "range_retry", peer as u64, now, || {
                        format!("id={id} cursor={} hops={hops}", cursor.0)
                    });
                self.with_trace(peer, trace_id, |rt| {
                    rt.handle_range_message(peer, PeerId(peer as u64), id, lo, hi, cursor, hops)
                });
                continue;
            }
            let state = self.lookups.ranges.remove(&id).expect("looked up above");
            self.tracer
                .record(state.trace_id, "range_incomplete", u64::MAX, now, || {
                    format!("id={id} hops={} retries={}", state.hops, state.retries)
                });
            self.recorder.note(
                now,
                "range_timeout",
                format!("range {id} gave up after {} retries", state.retries),
            );
            self.dump_flight("range timeout");
            self.metrics.push_range_sample(state.into_sample(id, None));
        }
    }

    /// A `QueryResponse` reached the origin `at`.
    pub(super) fn resolve_query(&mut self, at: usize, id: u64, success: bool, hops: u32) {
        let now = self.clock.now;
        let Some(pending) = self.lookups.queries.remove(&id) else {
            // The query already timed out (or was never issued here):
            // count the late response, never the success.
            self.metrics.query_stats.late_responses += 1;
            return;
        };
        let latency = now - pending.issued_at;
        self.tracer
            .record(pending.trace_id, "query_resolved", at as u64, now, || {
                format!("id={id} hops={hops} latency_ms={latency} success={success}")
            });
        let agg = &mut self.metrics.query_stats;
        agg.answered += 1;
        if success {
            agg.succeeded += 1;
            agg.hops_sum_successful += hops as u64;
        }
        agg.latency.record(latency);
        agg.per_minute
            .entry(pending.issued_at / 60_000)
            .or_default()
            .record(latency as f64 / 1000.0);
        self.metrics.push_query_sample(QueryRecord {
            issued_at: pending.issued_at,
            latency_ms: Some(latency),
            hops,
            success,
        });
    }

    /// A `RangeResponse` slice `[from, upto]` reached the origin `at`.
    pub(super) fn absorb_range_slice(
        &mut self,
        at: usize,
        id: u64,
        from: Key,
        upto: Key,
        entries: Vec<DataEntry>,
        hops: u32,
    ) {
        let now = self.clock.now;
        let Some(state) = self.lookups.ranges.get_mut(&id) else {
            self.metrics.query_stats.late_responses += 1;
            return;
        };
        state.coverage.add(from, upto);
        state.entries.extend(entries);
        state.hops = state.hops.max(hops);
        // Progress resets the clock: the walk may legitimately cross many
        // partitions, it just must not stall.
        state.deadline = now + self.config.query_timeout_ms;
        let covered = state.coverage.covers(state.lo, state.hi);
        self.tracer
            .record(state.trace_id, "range_slice", at as u64, now, || {
                format!(
                    "id={id} from={} upto={} hops={hops} complete={covered}",
                    from.0, upto.0
                )
            });
        if covered {
            let state = self.lookups.ranges.remove(&id).expect("looked up above");
            self.finish_range(id, state);
        } else {
            self.lookups.range_timeouts.push_back((state.deadline, id));
        }
    }

    /// Runs `decide`, one of core's routing steps, on `at`'s state, with
    /// reachability (online, link not Dead) and the reference pick.  With
    /// `NetConfig::route_cache` on, a reachable memo of `(at, level)` skips
    /// core's shuffle and its RNG draw; a stale one is evicted.  Also
    /// returns whether the memo answered.
    pub(super) fn routed<S>(
        &mut self,
        at: usize,
        decide: impl FnOnce(&PeerState, &dyn Fn(PeerId) -> bool, &mut Pick<'_>) -> S,
    ) -> (S, bool) {
        let reachable =
            |p: PeerId| self.peers[p.0 as usize].state.online && self.links.ok(p.0 as usize);
        let (memo_on, lookups) = (self.config.route_cache, &mut self.lookups);
        let mut cached = false;
        let mut pick = |level, refs: &[RoutingEntry]| {
            let memo = (at, level);
            if let Some(&peer) = memo_on.then(|| lookups.route_cache.get(&memo)).flatten() {
                if reachable(peer) {
                    cached = true;
                    return Some(peer);
                }
                lookups.route_cache.remove(&memo);
            }
            let peer =
                route::pick_reference(refs, reachable, &mut self.rng, &mut lookups.hop_scratch);
            recycle(&mut lookups.hop_scratch);
            if memo_on {
                lookups.route_cache.extend(peer.map(|peer| (memo, peer)));
            }
            peer
        };
        let step = decide(&self.peers[at].state, &reachable, &mut pick);
        (step, cached)
    }

    /// A `Query` reached `at`: core's routing step, sent on as a `Query` or
    /// answered to the origin.
    pub(super) fn handle_query_message(
        &mut self,
        at: usize,
        origin: PeerId,
        id: u64,
        key: Key,
        hops: u32,
    ) {
        let (step, cached) = self.routed(at, |state, reachable, pick| {
            route::step_with(state, key, hops, reachable, pick)
        });
        let kind = match step {
            Step::Forward { .. } => "query_hop",
            Step::ToReplica(_) => "query_replica_forward",
            Step::Answer(_) => "query_answered",
            Step::DeadEnd(_) => "query_dead_end",
        };
        let (trace, now) = (self.current_trace, self.clock.now);
        self.tracer.record(trace, kind, at as u64, now, || {
            format!("id={id} hops={hops} cached={cached} {step:?}")
        });
        let answer = |entries: Vec<DataEntry>| Message::QueryResponse {
            id,
            found: !entries.is_empty(),
            entries,
            hops,
        };
        let query = Message::Query {
            origin,
            id,
            key,
            hops: hops + 1,
        };
        let (to, message) = match step {
            Step::Forward { peer, .. } | Step::ToReplica(peer) => (peer, query),
            Step::Answer(entries) => (origin, answer(entries)),
            Step::DeadEnd(_) => (origin, answer(Vec::new())),
        };
        self.send(to.0 as usize, message);
    }

    /// A `RangeQuery` reached `at`: core's range step, answered as a slice
    /// to the origin, sent on, or detoured (see
    /// [`Runtime::issue_range_query_on`] for the protocol).
    #[allow(clippy::too_many_arguments)]
    pub(super) fn handle_range_message(
        &mut self,
        at: usize,
        origin: PeerId,
        id: u64,
        lo: Key,
        hi: Key,
        cursor: Key,
        hops: u32,
    ) {
        let (step, cached) = self.routed(at, |state, _, pick| {
            route::range_step(state, hi, cursor, hops, pick)
        });
        let (trace, now) = (self.current_trace, self.clock.now);
        let to = match step {
            RangeStep::Slice {
                upto,
                entries,
                next,
            } => {
                self.tracer
                    .record(trace, "range_answered", at as u64, now, || {
                        let n = entries.len();
                        format!(
                            "id={id} from={} upto={} entries={n} hops={hops}",
                            cursor.0, upto.0
                        )
                    });
                let from = cursor;
                let slice = Message::RangeResponse {
                    id,
                    from,
                    upto,
                    entries,
                    hops,
                };
                self.send(origin.0 as usize, slice);
                if let Some(next) = next {
                    self.handle_range_message(at, origin, id, lo, hi, next, hops);
                }
                return;
            }
            RangeStep::Forward { peer, .. } => Some(peer.0 as usize),
            RangeStep::DeadEnd(Reason::HopLimit) => None,
            // A routing-table gap of the emergent overlay.  A lookup would
            // fail here; the walk instead detours through a random online
            // peer and restarts prefix routing from there, spending a hop.
            RangeStep::DeadEnd(_) => {
                let online = self.online_hosted.iter().copied();
                route::pick_other(online, at, &mut self.rng)
            }
        };
        let kind = match (&step, to) {
            (RangeStep::Forward { .. }, _) => "range_hop",
            (_, Some(_)) => "range_detour",
            // The walk ends; the origin times out with the slices it has.
            (_, None) => "range_dead_end",
        };
        self.tracer.record(trace, kind, at as u64, now, || {
            format!("id={id} hops={hops} to={to:?} cached={cached} {step:?}")
        });
        if let Some(to) = to {
            let hops = hops + 1;
            let forward = Message::RangeQuery {
                origin,
                id,
                lo,
                hi,
                cursor,
                hops,
            };
            self.send(to, forward);
        }
    }
}
