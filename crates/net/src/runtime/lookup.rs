//! The query plane: point lookups and range walks.  [`Lookups`] owns the
//! origin-side bookkeeping (outstanding queries, their lazy timeout
//! queues) and the route cache; entry points are
//! [`Runtime::issue_query_on`], [`Runtime::issue_query_batch_on`] and
//! [`Runtime::issue_range_query_on`].  Both planes decide with core's
//! routing step ([`pgrid_core::route`]) and encode its decision as a
//! message; the route cache is a memo in front of its reference pick.

use super::links::recycle;
use super::{Millis, QueryRecord, RangeSample, Runtime};
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

/// How often a stalled range walk is restarted before the origin reports
/// the range incomplete.
const MAX_RANGE_RETRIES: u32 = 3;

/// The reference pick a routing step is handed: the mismatch level and its
/// references in, the next hop out.
pub(super) type Pick<'a> = dyn FnMut(usize, &[RoutingEntry]) -> Option<PeerId> + 'a;

/// Origin-side bookkeeping of one outstanding lookup.
#[derive(Clone, Copy, Debug)]
struct PendingQuery {
    index: IndexId,
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
        let mut merged: Vec<(Key, Key)> = Vec::with_capacity(self.intervals.len());
        for &(a, b) in &self.intervals {
            match merged.last_mut() {
                // Merge overlapping or adjacent intervals ([x, k] and
                // [k+1, y] are contiguous key ranges).
                Some(last) if a.0 <= last.1 .0.saturating_add(1) => {
                    last.1 = last.1.max(b);
                }
                _ => merged.push((a, b)),
            }
        }
        self.intervals = merged;
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
    index: IndexId,
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
            index: self.index,
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

/// Origin-side query state and the routing memo.
#[derive(Default)]
pub(super) struct Lookups {
    next_id: u64,
    queries: HashMap<u64, PendingQuery>,
    ranges: HashMap<u64, RangeState>,
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
    /// Memoised prefix-routing resolution per `(peer, index, mismatch
    /// level)`; only consulted with `NetConfig::route_cache` on, and
    /// invalidated whenever a peer's path or routing table changes.
    pub(super) route_cache: HashMap<(usize, IndexId, usize), PeerId>,
    /// Where core's reference pick shuffles a level's references, kept
    /// (empty) from hop to hop.
    pub(super) hop_scratch: Vec<PeerId>,
}

impl Lookups {
    fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id - 1
    }

    /// Drops every memoised routing resolution of `peer` on `index`
    /// (no-op while the cache is disabled and therefore empty).
    pub(super) fn invalidate_routes(&mut self, peer: usize, index: IndexId) {
        if !self.route_cache.is_empty() {
            self.route_cache
                .retain(|&(p, idx, _), _| p != peer || idx != index);
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
    /// Issues a lookup for `key` from a random hosted online peer (the
    /// primary index); the result is folded into
    /// [`NetMetrics::query_stats`](super::NetMetrics::query_stats).
    pub fn issue_query(&mut self, key: Key) {
        self.issue_query_on(IndexId::PRIMARY, key);
    }

    /// Issues a lookup for `key` against `index` from a random hosted
    /// online peer.
    pub fn issue_query_on(&mut self, index: IndexId, key: Key) {
        self.issue_query_batch_on(index, &[key]);
    }

    /// Issues a whole batch of lookups against `index`, flushing outgoing
    /// frames once for the entire batch instead of once per query.  This is
    /// the high-throughput issue path of the query bench: first-hop
    /// forwards to the same destination share frames, and the per-query
    /// flush disappears from the hot path.
    pub fn issue_query_batch_on(&mut self, index: IndexId, keys: &[Key]) {
        if self.online_hosted.is_empty() {
            return;
        }
        for &key in keys {
            self.issue_one_query(index, key);
        }
        self.flush_pending();
    }

    /// Shared issue path: draws the origin, registers the outstanding
    /// query and its lazy timeout, and lets the origin handle the query
    /// locally first (it might be responsible itself).  Does not flush.
    fn issue_one_query(&mut self, index: IndexId, key: Key) {
        let now = self.clock.now;
        let origin = self.online_hosted[self.rng.gen_range(0..self.online_hosted.len())];
        let id = self.lookups.fresh_id();
        self.metrics.stats_mut(index).issued += 1;
        let trace_id = self.tracer.new_trace();
        self.tracer
            .record(trace_id, "query_issued", origin as u64, now, || {
                format!("id={id} index={} key={}", index.0, key.0)
            });
        self.lookups.queries.insert(
            id,
            PendingQuery {
                index,
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
        self.with_trace(origin, trace_id, |rt| {
            rt.handle_message_on(origin, index, message)
        });
    }

    /// Issues a range query for `[lo, hi]` (inclusive) from a random hosted
    /// online peer on the primary index; returns the query id, or `None`
    /// when no hosted peer is online.
    pub fn issue_range_query(&mut self, lo: Key, hi: Key) -> Option<u64> {
        self.issue_range_query_on(IndexId::PRIMARY, lo, hi)
    }

    /// Issues a range query for `[lo, hi]` (inclusive) against `index`.
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
        if self.online_hosted.is_empty() {
            return None;
        }
        let now = self.clock.now;
        let origin = self.online_hosted[self.rng.gen_range(0..self.online_hosted.len())];
        let id = self.lookups.fresh_id();
        self.metrics.stats_mut(index).ranges_issued += 1;
        let deadline = now + self.config.query_timeout_ms;
        let mut state = RangeState {
            index,
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
                format!("id={id} index={} lo={} hi={}", index.0, lo.0, hi.0)
            });
        self.lookups.ranges.insert(id, state);
        self.lookups.range_timeouts.push_back((deadline, id));
        self.with_trace(origin, trace_id, |rt| {
            rt.handle_range_message(index, origin, PeerId(origin as u64), id, lo, hi, lo, 0)
        });
        self.flush_pending();
        Some(id)
    }

    /// Records a range walk whose slices covered the whole range.
    fn finish_range(&mut self, id: u64, state: RangeState) {
        let latency = self.clock.now - state.issued_at;
        let agg = self.metrics.stats_mut(state.index);
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
                self.metrics.stats_mut(pending.index).timed_out += 1;
                self.tracer
                    .record(pending.trace_id, "query_timeout", u64::MAX, now, || {
                        format!("id={id} issued_at={}", pending.issued_at)
                    });
                self.recorder.note(
                    now,
                    "query_timeout",
                    format!(
                        "query {id} on index {} issued at {} expired unanswered",
                        pending.index.0, pending.issued_at
                    ),
                );
                self.dump_flight("query timeout");
                self.metrics.push_query_sample(QueryRecord {
                    index: pending.index,
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
                let (index, lo, hi, hops, trace_id) =
                    (state.index, state.lo, state.hi, state.hops, state.trace_id);
                self.tracer
                    .record(trace_id, "range_retry", peer as u64, now, || {
                        format!("id={id} cursor={} hops={hops}", cursor.0)
                    });
                self.with_trace(peer, trace_id, |rt| {
                    rt.handle_range_message(
                        index,
                        peer,
                        PeerId(peer as u64),
                        id,
                        lo,
                        hi,
                        cursor,
                        hops,
                    )
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
                format!(
                    "range {id} on index {} gave up after {} retries",
                    state.index.0, state.retries
                ),
            );
            self.dump_flight("range timeout");
            self.metrics.push_range_sample(state.into_sample(id, None));
        }
    }

    /// A `QueryResponse` reached the origin `at`.
    pub(super) fn resolve_query(
        &mut self,
        index: IndexId,
        at: usize,
        id: u64,
        success: bool,
        hops: u32,
    ) {
        let now = self.clock.now;
        let Some(pending) = self.lookups.queries.remove(&id) else {
            // The query already timed out (or was never issued here):
            // count the late response, never the success.
            self.metrics.stats_mut(index).late_responses += 1;
            return;
        };
        let latency = now - pending.issued_at;
        self.tracer
            .record(pending.trace_id, "query_resolved", at as u64, now, || {
                format!("id={id} hops={hops} latency_ms={latency} success={success}")
            });
        let agg = self.metrics.stats_mut(pending.index);
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
            index: pending.index,
            issued_at: pending.issued_at,
            latency_ms: Some(latency),
            hops,
            success,
        });
    }

    /// A `RangeResponse` slice `[from, upto]` reached the origin `at`.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn absorb_range_slice(
        &mut self,
        index: IndexId,
        at: usize,
        id: u64,
        from: Key,
        upto: Key,
        entries: Vec<DataEntry>,
        hops: u32,
    ) {
        let now = self.clock.now;
        let Some(state) = self.lookups.ranges.get_mut(&id) else {
            self.metrics.stats_mut(index).late_responses += 1;
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

    /// Runs `decide`, one of core's routing steps, on `at`'s state of
    /// `index`, with reachability (online, link not Dead) and the reference
    /// pick.  With `NetConfig::route_cache` on, a reachable memo of `(at,
    /// index, level)` skips core's shuffle and its RNG draw; a stale one is
    /// evicted.  Also returns whether the memo answered.
    pub(super) fn routed<S>(
        &mut self,
        index: IndexId,
        at: usize,
        decide: impl FnOnce(&PeerState, &dyn Fn(PeerId) -> bool, &mut Pick<'_>) -> S,
    ) -> (S, bool) {
        let reachable = |p: PeerId| self.nodes[p.0 as usize].online && self.links.ok(p.0 as usize);
        let (memo_on, lookups) = (self.config.route_cache, &mut self.lookups);
        let mut cached = false;
        let mut pick = |level, refs: &[RoutingEntry]| {
            let memo = (at, index, level);
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
        let step = decide(self.indexes.state(index, at), &reachable, &mut pick);
        (step, cached)
    }

    /// A `Query` reached `at`: core's routing step, sent on as a `Query` or
    /// answered to the origin.
    pub(super) fn handle_query_message(
        &mut self,
        index: IndexId,
        at: usize,
        origin: PeerId,
        id: u64,
        key: Key,
        hops: u32,
    ) {
        let (step, cached) = self.routed(index, at, |state, reachable, pick| {
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
        self.send_on(index, to.0 as usize, message);
    }

    /// A `RangeQuery` reached `at`: core's range step, answered as a slice
    /// to the origin, sent on, or detoured (see
    /// [`Runtime::issue_range_query_on`] for the protocol).
    #[allow(clippy::too_many_arguments)]
    pub(super) fn handle_range_message(
        &mut self,
        index: IndexId,
        at: usize,
        origin: PeerId,
        id: u64,
        lo: Key,
        hi: Key,
        cursor: Key,
        hops: u32,
    ) {
        let (step, cached) = self.routed(index, at, |state, _, pick| {
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
                self.send_on(index, origin.0 as usize, slice);
                if let Some(next) = next {
                    self.handle_range_message(index, at, origin, id, lo, hi, next, hops);
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
            self.send_on(index, to, forward);
        }
    }
}
