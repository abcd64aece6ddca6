//! `lookup` / `range`: `net::Runtime` on the virtual-time loopback
//! transport.  Set-up builds the overlay until `construction_quiescent()`;
//! the timed window issues batches of queries in a closed loop, one batch
//! outstanding, each drained with `run_until` before the next is issued.

use super::{check, derive, stream, CheckFailed, Context, RunConfig, UnitClock, Window};
use crate::host::calibrate_ns;
use crate::overlay::{holdings, PathIndex};
use crate::probes;
use crate::span::{self, Tracer};

use crate::traced::TracedTransport;
use pgrid_core::index::IndexId;
use pgrid_core::key::{DataEntry, Key};
use pgrid_core::peer::PeerState;
use pgrid_net::runtime::{NetConfig, RangeSample, Runtime};
use pgrid_transport::loopback::{LoopbackConfig, LoopbackTransport};
use pgrid_transport::Transport;
use pgrid_workload::distributions::Distribution;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Instant;

const PRIMARY: IndexId = IndexId::PRIMARY;
/// Virtual slice between two quiescence checks while the overlay builds.
const BUILD_SLICE_MS: u64 = 10_000;
/// Slices after which a build that has not settled fails the run.
const BUILD_SLICE_CAP: usize = 2_000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Lookup,
    Range,
}

pub struct Sizes {
    pub kind: Kind,
    pub peers: usize,
    pub keys_per_peer: usize,
    /// Queries issued together; also the closed-loop window.
    pub batch: usize,
    pub batches: usize,
    /// Batches timed together as one unit (≈10 ms of work): long enough
    /// to even out which keys a batch drew, short against the seconds a
    /// host disturbance lasts.
    pub batches_per_unit: usize,
    /// Virtual drain after each batch.
    pub drain_ms: u64,
    /// Entries a range query spans (1 % of the corpus).
    pub range_span: usize,
    /// Overlay builds in the untraced run (their median is `setup_s`); a
    /// build takes 3 s, so there are only two.
    pub setups: usize,
}

impl Sizes {
    pub fn new(config: &RunConfig, kind: Kind) -> Sizes {
        let peers = if config.quick { 128 } else { 1_024 };
        let keys_per_peer = 10;
        // ≈185 k lookups/s and ≈18.5 k ranges/s on the reference host.
        let (batch, batches_per_second, batches_per_unit, drain_ms) = match kind {
            Kind::Lookup => (512, 392, 4, 2_000),
            Kind::Range => (16, 1_152, 8, 5_000),
        };
        Sizes {
            kind,
            peers,
            keys_per_peer,
            batch,
            batches: config.seconds as usize * batches_per_second,
            batches_per_unit,
            drain_ms,
            range_span: (peers * keys_per_peer / 100).max(2),
            setups: if config.quick { 1 } else { 2 },
        }
    }

    pub fn describe(&self) -> String {
        let what = match self.kind {
            Kind::Lookup => "point lookups over the findable stored keys".to_string(),
            Kind::Range => format!("range queries spanning {} entries", self.range_span),
        };
        format!(
            "{} peers x {} uniform keys, loss 0, route cache off; {} batches of {} {}, \
             run_until(now+{}) per batch",
            self.peers, self.keys_per_peer, self.batches, self.batch, what, self.drain_ms
        )
    }

    fn net_config(&self, seed: u64) -> NetConfig {
        NetConfig {
            n_peers: self.peers,
            keys_per_peer: self.keys_per_peer,
            n_min: 5,
            loss_probability: 0.0,
            distribution: Distribution::Uniform,
            route_cache: false,
            seed,
            // Every range of a batch must still be in the sample ring when
            // the batch has drained.
            query_sample_cap: 4 * self.batch.max(64),
            ..NetConfig::default()
        }
    }
}

/// The loopback backend `Runtime::new` would build for `config`.
pub fn loopback_for(config: &NetConfig) -> LoopbackTransport {
    LoopbackTransport::new(LoopbackConfig {
        latency_min_ms: config.latency_min_ms,
        latency_max_ms: config.latency_max_ms,
        seed: derive(config.seed, stream::OVERLAY + 1),
    })
}

/// Joins every peer and runs replication (the population half of set-up).
pub fn populate<T: Transport>(rt: &mut Runtime<T>) {
    for peer in 0..rt.config.n_peers {
        rt.join_peer(peer, 4);
    }
    rt.replication_phase();
    rt.run_until(rt.now() + BUILD_SLICE_MS);
}

/// Builds the overlay to quiescence; returns the virtual minutes it took.
fn build<T: Transport>(rt: &mut Runtime<T>) -> Result<f64, CheckFailed> {
    populate(rt);
    rt.start_construction();
    let mut slices = 0;
    while !rt.construction_quiescent() {
        check(slices < BUILD_SLICE_CAP, || {
            format!("overlay construction not quiescent after {slices} slices")
        })?;
        rt.run_until(rt.now() + BUILD_SLICE_MS);
        slices += 1;
    }
    Ok(rt.now() as f64 / 60_000.0)
}

/// All hosted peers' primary-index state.
pub fn peer_states<T: Transport>(rt: &Runtime<T>) -> Vec<&PeerState> {
    (0..rt.config.n_peers)
        .map(|p| rt.peer_state(PRIMARY, p))
        .collect()
}

/// What the window adds to the runtime's cumulative counters.
struct Counters {
    frames_sent: u64,
    bytes_sent: u64,
    messages_delivered: usize,
}

impl Counters {
    fn read<T: Transport>(rt: &Runtime<T>) -> Counters {
        let stats = rt.transport_stats();
        Counters {
            frames_sent: stats.frames_sent,
            bytes_sent: stats.bytes_sent,
            messages_delivered: rt.metrics.messages_delivered,
        }
    }
}

/// Range queries in flight and the oracle they are checked against.
struct RangeOracle {
    /// Every original entry, ascending by `(key, id)`.
    sorted: Vec<DataEntry>,
    /// Issued and not yet resolved: id → `(lo, hi)`.
    outstanding: HashMap<u64, (Key, Key)>,
    resolved: u64,
    incomplete: u64,
    returned_in_oracle: u64,
    oracle_entries: u64,
}

impl RangeOracle {
    fn new(originals: &[DataEntry]) -> RangeOracle {
        let mut sorted = originals.to_vec();
        sorted.sort_unstable();
        RangeOracle {
            sorted,
            outstanding: HashMap::new(),
            resolved: 0,
            incomplete: 0,
            returned_in_oracle: 0,
            oracle_entries: 0,
        }
    }

    /// The brute-force answer: every original entry with key in `[lo, hi]`.
    fn expected(&self, lo: Key, hi: Key) -> &[DataEntry] {
        let from = self.sorted.partition_point(|e| e.key < lo);
        let to = self.sorted.partition_point(|e| e.key <= hi);
        &self.sorted[from..to]
    }

    /// Scores one resolved range query against the oracle.
    fn resolve(&mut self, mut sample: RangeSample) -> Result<(), CheckFailed> {
        let Some((lo, hi)) = self.outstanding.remove(&sample.id) else {
            return Ok(());
        };
        if !sample.complete {
            // Only a completed walk merges its slices; order a partial
            // answer the same way before scoring it.
            sample.entries.sort_unstable();
            sample.entries.dedup();
        }
        check((sample.lo, sample.hi) == (lo, hi), || {
            format!(
                "range {} resolved with bounds it was not issued with",
                sample.id
            )
        })?;
        let expected = self.expected(lo, hi);
        // Both sides ascend by (key, id): one merge walk counts the hits.
        let mut hits = 0u64;
        let mut want = expected.iter().peekable();
        for got in &sample.entries {
            while want.next_if(|w| *w < got).is_some() {}
            check(want.next_if_eq(&got).is_some(), || {
                format!(
                    "range {} returned entry {got:?}, which is not an original entry in \
                     [{lo:?}, {hi:?}] (or the answer is not sorted and deduplicated)",
                    sample.id
                )
            })?;
            hits += 1;
        }
        let expected = expected.len() as u64;
        self.resolved += 1;
        self.incomplete += u64::from(!sample.complete);
        self.returned_in_oracle += hits;
        self.oracle_entries += expected;
        Ok(())
    }
}

/// The timed window over a built overlay.
fn window<T: Transport>(
    rt: &mut Runtime<T>,
    sizes: &Sizes,
    seed: u64,
    tracer: &Tracer,
) -> Result<Outcome, CheckFailed> {
    let peers = peer_states(rt);
    let originals = rt.original_entries_of(PRIMARY).to_vec();
    let held = holdings(&PathIndex::of(&peers), &peers, &originals);
    drop(peers);
    let corpus: Vec<Key> = held.findable.iter().map(|e| e.key).collect();
    check(!corpus.is_empty(), || {
        "no stored key is held by every peer covering it".to_string()
    })?;
    let findable_ratio = corpus.len() as f64 / originals.len() as f64;
    let mut oracle = RangeOracle::new(&originals);
    let mut rng = StdRng::seed_from_u64(derive(seed, stream::QUERY_KEYS));
    // Only the calls into the runtime are on the clock: drawing keys and
    // checking answers is the harness's own work.
    let mut clock = UnitClock::default();
    let mut keys: Vec<Key> = Vec::with_capacity(sizes.batch);

    let stats_before = rt.metrics.stats(PRIMARY);
    let counters_before = Counters::read(rt);
    let calib_ns_before = calibrate_ns();
    let start = Instant::now();
    tracer.span(span::WINDOW, || -> Result<(), CheckFailed> {
        for batch in 0..sizes.batches {
            tracer.set_op(batch as u64);
            match sizes.kind {
                Kind::Lookup => {
                    keys.clear();
                    keys.extend((0..sizes.batch).map(|_| corpus[rng.gen_range(0..corpus.len())]));
                    clock.time(|| {
                        tracer.span("net.issue", || rt.issue_query_batch_on(PRIMARY, &keys));
                        tracer.span("net.drain", || rt.run_until(rt.now() + sizes.drain_ms));
                    });
                }
                Kind::Range => {
                    let bounds: Vec<(Key, Key)> = (0..sizes.batch)
                        .map(|_| {
                            let at = rng.gen_range(0..=oracle.sorted.len() - sizes.range_span);
                            let slice = &oracle.sorted[at..at + sizes.range_span];
                            (slice[0].key, slice[slice.len() - 1].key)
                        })
                        .collect();
                    let ids: Vec<Option<u64>> = clock.time(|| {
                        let ids = tracer.span("net.issue", || {
                            bounds
                                .iter()
                                .map(|&(lo, hi)| rt.issue_range_query_on(PRIMARY, lo, hi))
                                .collect()
                        });
                        tracer.span("net.drain", || rt.run_until(rt.now() + sizes.drain_ms));
                        ids
                    });
                    for (id, bounds) in ids.into_iter().zip(bounds) {
                        let id = id.ok_or_else(|| {
                            CheckFailed("a range query could not be issued".to_string())
                        })?;
                        oracle.outstanding.insert(id, bounds);
                    }
                    for sample in std::mem::take(&mut rt.metrics.range_samples) {
                        oracle.resolve(sample)?;
                    }
                }
            }
            if (batch + 1) % sizes.batches_per_unit == 0 {
                clock.close_unit((sizes.batches_per_unit * sizes.batch) as u64);
            }
        }
        // Stragglers resolve or time out before the counters are read.
        tracer.span("net.drain", || {
            rt.run_until(rt.now() + rt.config.query_timeout_ms + 10_000)
        });
        for sample in std::mem::take(&mut rt.metrics.range_samples) {
            oracle.resolve(sample)?;
        }
        Ok(())
    })?;
    let elapsed_s = start.elapsed().as_secs_f64();
    let calib_ns_after = calibrate_ns();
    let timed = clock.quiet();

    let stats = rt.metrics.stats(PRIMARY);
    let counters = Counters::read(rt);
    let ops = (sizes.batches * sizes.batch) as u64;
    let frames = counters.frames_sent - counters_before.frames_sent;
    let bytes = counters.bytes_sent - counters_before.bytes_sent;
    let messages = (counters.messages_delivered - counters_before.messages_delivered) as u64;
    let mut outcome = Outcome {
        window: Window {
            setups_s: Vec::new(),
            elapsed_s,
            wall_s: timed.wall_s,
            cpu_s: timed.cpu_s,
            ops_attempted: ops,
            ops_failed: 0,
            ops_timed: timed.ops,
            unit_us: timed.unit_us,
            bytes_per_op: bytes as f64 / ops as f64,
            flushes: 0,
            calib_ns_before,
            calib_ns_after,
        },
        findable_ratio,
        median_unit_slowdown: timed.median_unit_slowdown,
        frames,
        bytes,
        messages,
        hops_mean: 0.0,
        timed_out: 0,
        not_found: 0,
        range_recall: 0.0,
        virtual_p50_ms: 0.0,
        virtual_p99_ms: 0.0,
    };
    match sizes.kind {
        Kind::Lookup => {
            let issued = stats.issued - stats_before.issued;
            let answered = stats.answered - stats_before.answered;
            let succeeded = stats.succeeded - stats_before.succeeded;
            let timed_out = stats.timed_out - stats_before.timed_out;
            check(issued == ops, || {
                format!("{issued} lookups issued by the runtime, {ops} by the harness")
            })?;
            check(answered + timed_out == issued, || {
                format!(
                    "{} lookups neither answered nor timed out after the final drain",
                    issued - answered - timed_out
                )
            })?;
            // Every looked-up key is held by every peer covering it, so a
            // lookup that does not succeed is a failure of the read path.
            outcome.window.ops_failed = issued - succeeded;
            outcome.timed_out = timed_out;
            outcome.not_found = answered - succeeded;
            outcome.hops_mean = (stats.hops_sum_successful - stats_before.hops_sum_successful)
                as f64
                / succeeded.max(1) as f64;
            outcome.virtual_p50_ms = stats.latency.quantile(0.50).unwrap_or(0) as f64;
            outcome.virtual_p99_ms = stats.latency.quantile(0.99).unwrap_or(0) as f64;
        }
        Kind::Range => {
            check(oracle.outstanding.is_empty(), || {
                format!(
                    "{} range queries never resolved (or left the sample ring unseen)",
                    oracle.outstanding.len()
                )
            })?;
            check(oracle.resolved == ops, || {
                format!("{} range queries resolved, {ops} issued", oracle.resolved)
            })?;
            let complete = stats.ranges_complete - stats_before.ranges_complete;
            check(complete == ops - oracle.incomplete, || {
                "the runtime's complete-range count disagrees with the resolved samples".to_string()
            })?;
            outcome.window.ops_failed = oracle.incomplete;
            outcome.timed_out = oracle.incomplete;
            outcome.range_recall =
                oracle.returned_in_oracle as f64 / oracle.oracle_entries.max(1) as f64;
            outcome.virtual_p50_ms = stats.range_latency.quantile(0.50).unwrap_or(0) as f64;
            outcome.virtual_p99_ms = stats.range_latency.quantile(0.99).unwrap_or(0) as f64;
        }
    }
    Ok(outcome)
}

struct Outcome {
    window: Window,
    findable_ratio: f64,
    median_unit_slowdown: f64,
    frames: u64,
    bytes: u64,
    messages: u64,
    hops_mean: f64,
    timed_out: u64,
    not_found: u64,
    range_recall: f64,
    virtual_p50_ms: f64,
    virtual_p99_ms: f64,
}

pub fn run(ctx: &mut Context<'_>, kind: Kind) -> Result<Window, CheckFailed> {
    let sizes = Sizes::new(ctx.config, kind);
    let config = sizes.net_config(derive(ctx.config.seed, stream::OVERLAY));

    if !ctx.traced() {
        // Same seed, same overlay every time: the repeats time identical
        // work and the last build is the one queried.
        let mut setups_s = Vec::with_capacity(sizes.setups);
        let mut built = None;
        for _ in 0..sizes.setups {
            drop(built.take());
            let start = Instant::now();
            let mut rt = Runtime::with_transport(config.clone(), loopback_for(&config))
                .expect("loopback registration cannot fail");
            let virtual_min = build(&mut rt)?;
            setups_s.push(start.elapsed().as_secs_f64());
            built = Some((rt, virtual_min));
        }
        let (mut rt, virtual_min) = built.expect("at least one set-up ran");
        let mut outcome = window(&mut rt, &sizes, ctx.config.seed, ctx.tracer)?;
        outcome.window.setups_s = setups_s;
        report(ctx, &sizes, &outcome, virtual_min);
        return Ok(outcome.window);
    }

    let tracer: Rc<Tracer> = ctx.tracer.clone();
    let transport = TracedTransport::new(loopback_for(&config), tracer.clone());
    let start = Instant::now();
    let mut rt =
        Runtime::with_transport(config, transport).expect("loopback registration cannot fail");
    let virtual_min = tracer.span("net.build", || build(&mut rt))?;
    let setup_s = start.elapsed().as_secs_f64();
    rt.transport_mut().clear_sample();
    let mut outcome = window(&mut rt, &sizes, ctx.config.seed, &tracer)?;
    outcome.window.setups_s = vec![setup_s];
    report(ctx, &sizes, &outcome, virtual_min);

    let spans = span::in_window(&tracer.spans());
    let table = span::layer_table(&spans);
    ctx.layer
        .set("net.issue_busy_s", span::busy_s(&spans, "net.issue"));
    ctx.layer
        .set("net.drain_busy_s", span::busy_s(&spans, "net.drain"));
    ctx.layer.set("net.self_s", table["net"].self_s);
    ctx.layer.set(
        "transport.send_busy_s",
        span::busy_s(&spans, "transport.send"),
    );
    ctx.layer.set(
        "transport.poll_busy_s",
        span::busy_s(&spans, "transport.poll"),
    );
    let frames = rt.transport_mut().take_sample();
    probes::codecs(&frames, ctx.layer);
    let originals = rt.original_entries_of(PRIMARY).to_vec();
    probes::core(
        &peer_states(&rt),
        &originals,
        rt.params(),
        derive(ctx.config.seed, stream::PROBES),
        ctx.layer,
    );
    Ok(outcome.window)
}

/// The per-layer values both the traced and the untraced run can fill
/// from counters.
fn report(ctx: &mut Context<'_>, sizes: &Sizes, outcome: &Outcome, virtual_min: f64) {
    let ops = outcome.window.ops_attempted as f64;
    let layer = &mut *ctx.layer;
    layer.set("net.setup_virtual_min", virtual_min);
    layer.set("net.findable_key_ratio", outcome.findable_ratio);
    layer.set("host.median_unit_slowdown", outcome.median_unit_slowdown);
    layer.set("net.hops_mean", outcome.hops_mean);
    layer.set("net.msgs_per_op", outcome.messages as f64 / ops);
    layer.set("net.frames_per_op", outcome.frames as f64 / ops);
    layer.set(
        "net.msgs_per_frame",
        outcome.messages as f64 / outcome.frames.max(1) as f64,
    );
    layer.set("net.timed_out", outcome.timed_out as f64);
    layer.set("net.not_found", outcome.not_found as f64);
    if sizes.kind == Kind::Range {
        layer.set("net.range_recall", outcome.range_recall);
    }
    layer.set("net.virtual_p50_ms", outcome.virtual_p50_ms);
    layer.set("net.virtual_p99_ms", outcome.virtual_p99_ms);
    layer.set("transport.frames", outcome.frames as f64);
    layer.set("transport.bytes", outcome.bytes as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgrid_core::key::DataId;

    fn entry(key: u64, id: u64) -> DataEntry {
        DataEntry::new(Key(key), DataId(id))
    }

    fn sample(id: u64, lo: u64, hi: u64, complete: bool, entries: Vec<DataEntry>) -> RangeSample {
        RangeSample {
            index: PRIMARY,
            id,
            lo: Key(lo),
            hi: Key(hi),
            issued_at: 0,
            latency_ms: complete.then_some(1),
            complete,
            hops: 1,
            entries,
        }
    }

    fn oracle() -> RangeOracle {
        let originals: Vec<DataEntry> = (0..10).map(|i| entry(i * 10, i)).collect();
        let mut oracle = RangeOracle::new(&originals);
        for id in 0..4 {
            oracle.outstanding.insert(id, (Key(20), Key(50)));
        }
        oracle
    }

    #[test]
    fn a_full_answer_scores_recall_one_and_a_partial_one_less() {
        let mut oracle = oracle();
        let all = vec![entry(20, 2), entry(30, 3), entry(40, 4), entry(50, 5)];
        oracle.resolve(sample(0, 20, 50, true, all)).unwrap();
        assert_eq!((oracle.returned_in_oracle, oracle.oracle_entries), (4, 4));
        // A replica that misses an entry lowers recall, not completeness.
        let partial = vec![entry(20, 2), entry(50, 5)];
        oracle.resolve(sample(1, 20, 50, true, partial)).unwrap();
        assert_eq!((oracle.returned_in_oracle, oracle.oracle_entries), (6, 8));
        assert_eq!((oracle.resolved, oracle.incomplete), (2, 0));
    }

    #[test]
    fn an_incomplete_walk_is_counted_failed_never_dropped() {
        let mut oracle = oracle();
        // Unmerged slices: out of order, with a duplicate.
        let slices = vec![entry(40, 4), entry(20, 2), entry(40, 4)];
        oracle.resolve(sample(2, 20, 50, false, slices)).unwrap();
        assert_eq!((oracle.resolved, oracle.incomplete), (1, 1));
        assert_eq!(oracle.returned_in_oracle, 2);
        assert_eq!(oracle.outstanding.len(), 3);
    }

    #[test]
    fn an_entry_outside_the_oracle_fails_the_run() {
        let mut oracle = oracle();
        let foreign = vec![entry(20, 2), entry(35, 99)];
        assert!(oracle.resolve(sample(3, 20, 50, true, foreign)).is_err());
        let mut oracle = self::oracle();
        let outside = vec![entry(10, 1), entry(20, 2)];
        assert!(oracle.resolve(sample(0, 20, 50, true, outside)).is_err());
        let mut oracle = self::oracle();
        assert!(oracle.resolve(sample(0, 20, 60, true, Vec::new())).is_err());
    }
}
