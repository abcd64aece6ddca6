//! `journal`: construction traffic mutating 1 024 peers' stores on
//! loopback (three repeats of the same first virtual minutes, each on a
//! fresh runtime and log) while, after every 2 000 ms virtual slice, the
//! harness runs the exact sequence `cluster::worker::persist` runs:
//! collect each peer's routing and replica lists, `DurableStore::observe`
//! it, `set_meta`, `sync` when anything was appended, `maybe_compact`.
//! The op is one journal cut.

use super::queries::{loopback_for, peer_states, populate};
use super::{check, derive, stream, CheckFailed, Context, RunConfig, UnitClock, Window};
use crate::host::{self, calibrate_ns};
use crate::probes;
use crate::span::{self, Tracer};
use crate::stats::Samples;
use crate::traced::TracedTransport;
use pgrid_core::index::IndexId;
use pgrid_core::path::Path;
use pgrid_core::peer::PeerState;
use pgrid_durable::{DurableStats, DurableStore, LogOptions, MetaImage, PeerImage, Record};
use pgrid_net::runtime::{NetConfig, Runtime};
use pgrid_transport::Transport;
use pgrid_workload::distributions::Distribution;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

const PRIMARY: IndexId = IndexId::PRIMARY;
/// `[len | crc32]` framing the segment log adds to every record.
const RECORD_FRAMING_BYTES: usize = 8;

pub struct Sizes {
    pub peers: usize,
    /// Virtual time between two journal cuts.
    pub slice_ms: u64,
    /// Cuts per repeat.
    pub cuts: usize,
    /// How often the journaled construction is repeated.
    pub repeats: usize,
}

/// Set-ups timed on top of the one per repeat.
const EXTRA_SETUPS: usize = 6;

impl Sizes {
    pub fn new(config: &RunConfig) -> Sizes {
        Sizes {
            peers: if config.quick { 128 } else { 1_024 },
            slice_ms: 2_000,
            // 1.2 virtual minutes of construction per requested second and
            // repeat: the first 12 virtual minutes, where most splits and
            // so most journal traffic happen, take ≈4.5 s on the reference
            // host; three repeats fill a 10 s run's window.
            cuts: config.seconds as usize * 36,
            repeats: 3,
        }
    }

    pub fn describe(&self) -> String {
        format!(
            "{} peers x 10 uniform keys constructing from t=0 for {} virtual min in {} ms \
             slices, one journal cut per slice, repeated {} times",
            self.peers,
            self.cuts as u64 * self.slice_ms / 60_000,
            self.slice_ms,
            self.repeats
        )
    }

    fn net_config(&self, seed: u64) -> NetConfig {
        NetConfig {
            n_peers: self.peers,
            keys_per_peer: 10,
            n_min: 5,
            loss_probability: 0.0,
            distribution: Distribution::Uniform,
            seed,
            ..NetConfig::default()
        }
    }
}

/// What `worker::persist` hands to `observe` for one peer.
type Collected = (Vec<(u8, u64, Path)>, Vec<u64>);

/// The routing/replica `Vec` building copied from `worker::persist`.
fn collect(state: &PeerState) -> Collected {
    let routing = state
        .routing
        .entries()
        .map(|(level, e)| (level as u8, e.peer.0, e.path))
        .collect();
    let replicas = state.replicas.iter().map(|p| p.0).collect();
    (routing, replicas)
}

/// What one journal cut cost beyond CPU.
#[derive(Default)]
struct CutCost {
    /// Bytes a compaction checkpoint wrote (0 when none ran).
    checkpoint_bytes: u64,
    /// Time inside `fsync`, as the log itself measured it.
    sync: Duration,
}

/// One journal cut.
fn persist<T: Transport>(
    rt: &Runtime<T>,
    durable: &mut DurableStore,
    tracer: &Tracer,
) -> std::io::Result<CutCost> {
    let mut dirty = false;
    for peer in rt.shard() {
        let state = rt.peer_state(PRIMARY, peer);
        let (routing, replicas) = tracer.fold("cluster.persist_collect", || collect(state));
        dirty |= tracer.fold("durable.observe", || {
            durable.observe(
                0,
                peer as u32,
                state.path,
                &state.store,
                &routing,
                &replicas,
            )
        })?;
    }
    let shard = rt.shard();
    let meta = MetaImage {
        shard_start: shard.start as u32,
        shard_len: shard.len() as u32,
        epoch: 0,
        phase: 0,
        now_ms: rt.now(),
        seed: rt.config.seed,
    };
    dirty |= tracer.span("durable.set_meta", || durable.set_meta(meta))?;
    let mut cost = CutCost::default();
    if dirty {
        cost.sync = tracer.span("durable.sync", || durable.sync())?;
        if tracer.span("durable.compact", || durable.maybe_compact())? {
            cost.checkpoint_bytes = durable.total_bytes();
        }
    }
    Ok(cost)
}

/// A journal directory that is removed again when the run is over.
struct JournalDir(PathBuf);

impl JournalDir {
    /// Where journals go: `--data-dir`, or the package's output directory.
    fn base(config: &RunConfig) -> PathBuf {
        config.data_dir.clone().unwrap_or_else(host::out_dir)
    }

    /// A directory no other journal of this process (concurrent unit
    /// tests included) or of another process uses.
    fn fresh(config: &RunConfig) -> JournalDir {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = Self::base(config).join(format!(
            "journal-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        // A left-over directory of a killed run would be replayed.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("journal directory must be creatable");
        JournalDir(dir)
    }
}

impl Drop for JournalDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Bytes the final mirror would take as one checkpoint.
fn mirror_bytes(durable: &DurableStore) -> u64 {
    durable
        .images()
        .map(|(&(index, peer), image)| {
            let record = Record::Image {
                index,
                peer,
                image: PeerImage {
                    path: image.path,
                    entries: image.entries.iter().copied().collect(),
                    routing: image.routing.clone(),
                    replicas: image.replicas.clone(),
                },
            };
            (record.encode().len() + RECORD_FRAMING_BYTES) as u64
        })
        .sum()
}

/// Drops the store, reopens the log and compares the replayed mirror with
/// the live state of every peer.  Returns `(replay seconds, records)`.
fn check_replay<T: Transport>(
    rt: &Runtime<T>,
    durable: DurableStore,
    dir: &std::path::Path,
) -> Result<(f64, u64), CheckFailed> {
    drop(durable);
    let start = Instant::now();
    let reopened = DurableStore::open(dir, LogOptions::default())
        .map_err(|e| CheckFailed(format!("journal does not reopen: {e}")))?;
    let replay_s = start.elapsed().as_secs_f64();
    check(reopened.peer_count() == rt.config.n_peers, || {
        format!(
            "replay restored {} peers, {} are live",
            reopened.peer_count(),
            rt.config.n_peers
        )
    })?;
    for (&(index, peer), mirror) in reopened.images() {
        let state = rt.peer_state(PRIMARY, peer as usize);
        let (routing, replicas) = collect(state);
        let same = index == 0
            && mirror.path == state.path
            && mirror.entries.iter().eq(state.store.iter())
            && mirror.routing == routing
            && mirror.replicas == replicas;
        check(same, || {
            format!("replayed image of peer {peer} differs from its live state")
        })?;
    }
    Ok((replay_s, reopened.stats().replayed_records))
}

struct SetUp<T: Transport> {
    rt: Runtime<T>,
    durable: DurableStore,
    dir: JournalDir,
}

fn set_up<T: Transport>(config: &RunConfig, net: &NetConfig, transport: T) -> SetUp<T> {
    let mut rt =
        Runtime::with_transport(net.clone(), transport).expect("loopback registration cannot fail");
    populate(&mut rt);
    let dir = JournalDir::fresh(config);
    let durable = DurableStore::open(&dir.0, LogOptions::default())
        .expect("a fresh journal directory must open");
    SetUp { rt, durable, dir }
}

/// What one repeat of the journaled construction leaves behind.
struct Repeat {
    /// Microseconds each cut took.
    cut_us: Vec<f64>,
    failed: u64,
    stats: DurableStats,
    /// Bytes compaction checkpoints wrote.
    checkpoint_bytes: u64,
    mirror_bytes: u64,
    replay_s: f64,
    replay_records: u64,
}

/// One repeat: the timed cuts (on `clock`, as one unit), then the replay
/// check.  Hands the runtime back for the probes.
fn repeat<T: Transport>(
    sizes: &Sizes,
    set_up: SetUp<T>,
    tracer: &Tracer,
    clock: &mut UnitClock,
) -> Result<(Repeat, Runtime<T>), CheckFailed> {
    let SetUp {
        mut rt,
        mut durable,
        dir,
    } = set_up;
    let mut cut_us = Vec::with_capacity(sizes.cuts);
    let mut failed = 0u64;
    let mut checkpoint_bytes = 0u64;
    let mut sync_ns = 0u64;
    clock.time(|| {
        tracer.span(span::WINDOW, || {
            rt.start_construction();
            for cut in 0..sizes.cuts {
                tracer.set_op(cut as u64);
                let unit = Instant::now();
                tracer.span("net.construct", || rt.run_until(rt.now() + sizes.slice_ms));
                let mut cut_sync_ns = 0;
                match tracer.span("cluster.persist", || persist(&rt, &mut durable, tracer)) {
                    Ok(cost) => {
                        checkpoint_bytes += cost.checkpoint_bytes;
                        cut_sync_ns = cost.sync.as_nanos() as u64;
                    }
                    // As in the worker, a write error degrades durability,
                    // not the run; here it also counts the cut as failed.
                    Err(_) => failed += 1,
                }
                sync_ns += cut_sync_ns;
                cut_us.push((unit.elapsed().as_nanos() as u64 - cut_sync_ns) as f64 / 1e3);
            }
        })
    });
    // The log lives on the checkout's disk, which other tenants share: a
    // sync took 0.5 ms in one hour and 5 ms in the next.  The window
    // leaves the time inside fsync out; `flushes_per_kop` counts the
    // syncs and `durable.sync_*` report what they cost here.
    clock.discount_wall(sync_ns);
    clock.close_unit(sizes.cuts as u64);
    let stats = durable.stats().clone();
    let mirror_bytes = mirror_bytes(&durable);
    let (replay_s, replay_records) = check_replay(&rt, durable, &dir.0)?;
    let done = Repeat {
        cut_us,
        failed,
        stats,
        checkpoint_bytes,
        mirror_bytes,
        replay_s,
        replay_records,
    };
    Ok((done, rt))
}

/// Set-ups, repeats and the counters both runs report; hands back the
/// last repeat's runtime for the traced run's probes.
fn run_repeats<T: Transport>(
    ctx: &mut Context<'_>,
    sizes: &Sizes,
    net: &NetConfig,
    transport: impl Fn() -> T,
) -> Result<(Window, Runtime<T>), CheckFailed> {
    let tracer = ctx.tracer.clone();
    // A set-up takes ≈25 ms: besides the one each repeat needs, the
    // untraced run repeats it some more for a steady median.
    let extras = if ctx.traced() { 0 } else { EXTRA_SETUPS };
    let mut setups_s = Vec::with_capacity(sizes.repeats + extras);
    for _ in 0..extras {
        let start = Instant::now();
        drop(set_up(ctx.config, net, transport()));
        setups_s.push(start.elapsed().as_secs_f64());
    }

    let mut clock = UnitClock::default();
    let mut repeats: Vec<Repeat> = Vec::with_capacity(sizes.repeats);
    let mut last_rt = None;
    let calib_ns_before = calibrate_ns();
    let start = Instant::now();
    for index in 0..sizes.repeats {
        // One runtime at a time: the previous repeat's goes first.
        drop(last_rt.take());
        let setup_start = Instant::now();
        let ready = tracer.span("net.populate", || set_up(ctx.config, net, transport()));
        setups_s.push(setup_start.elapsed().as_secs_f64());
        let (done, rt) = repeat(sizes, ready, &tracer, &mut clock)?;
        // Same input, same journal: the run is deterministic.
        if let Some(first) = repeats.first() {
            check(
                done.stats.appended_bytes == first.stats.appended_bytes
                    && done.stats.syncs == first.stats.syncs,
                || format!("repeat {index} of the same run journaled something else"),
            )?;
        }
        repeats.push(done);
        last_rt = Some(rt);
    }
    let elapsed_s = start.elapsed().as_secs_f64();
    let calib_ns_after = calibrate_ns();

    // The repeats do identical work, so the timed window is the quiet one
    // among them (see `stats::QUIET_SHARE`).
    let timed = clock.quiet();
    let quiet = timed.is_quiet.iter().position(|q| *q).unwrap_or(0);
    let cut_us = std::mem::take(&mut repeats[quiet].cut_us);
    let failed: u64 = repeats.iter().map(|r| r.failed).sum();
    let first = &repeats[0];

    let observe_calls = (sizes.cuts * sizes.peers) as f64;
    let layer = &mut *ctx.layer;
    layer.set("host.median_unit_slowdown", timed.median_unit_slowdown);
    layer.set("durable.observe_calls", observe_calls);
    layer.set(
        "durable.observe_dirty_ratio",
        first.stats.appended_records as f64 / observe_calls,
    );
    layer.set("durable.syncs", first.stats.syncs as f64);
    layer.set("durable.compactions", first.stats.compactions as f64);
    layer.set(
        "durable.write_amp",
        (first.stats.appended_bytes + first.checkpoint_bytes) as f64
            / first.mirror_bytes.max(1) as f64,
    );
    layer.set("durable.replay_s", first.replay_s);
    layer.set("durable.replay_records", first.replay_records as f64);

    let window = Window {
        setups_s,
        elapsed_s,
        wall_s: timed.wall_s,
        cpu_s: timed.cpu_s,
        ops_attempted: (sizes.repeats * sizes.cuts) as u64,
        ops_failed: failed,
        ops_timed: timed.ops,
        unit_us: Samples::from(cut_us),
        bytes_per_op: first.stats.appended_bytes as f64 / sizes.cuts as f64,
        flushes: first.stats.syncs * sizes.repeats as u64,
        calib_ns_before,
        calib_ns_after,
    };
    Ok((window, last_rt.expect("at least one repeat ran")))
}

pub fn run(ctx: &mut Context<'_>) -> Result<Window, CheckFailed> {
    let sizes = Sizes::new(ctx.config);
    let net = sizes.net_config(derive(ctx.config.seed, stream::JOURNAL));
    let base = JournalDir::base(ctx.config);
    println!(
        "journal_fs: {} ({})",
        host::fs_type_of(&base),
        base.display()
    );

    if !ctx.traced() {
        let (window, _) = run_repeats(ctx, &sizes, &net, || loopback_for(&net))?;
        return Ok(window);
    }

    let tracer = ctx.tracer.clone();
    let (window, mut rt) = run_repeats(ctx, &sizes, &net, || {
        TracedTransport::new(loopback_for(&net), tracer.clone())
    })?;
    let spans = span::in_window(&tracer.spans());
    let busy = |name: &str| span::busy_s(&spans, name);
    let layer = &mut *ctx.layer;
    layer.set("net.construct_busy_s", busy("net.construct"));
    layer.set("net.self_s", span::layer_table(&spans)["net"].self_s);
    layer.set("transport.send_busy_s", busy("transport.send"));
    layer.set("transport.poll_busy_s", busy("transport.poll"));
    layer.set(
        "cluster.persist_collect_busy_s",
        busy("cluster.persist_collect"),
    );
    layer.set("durable.observe_busy_s", busy("durable.observe"));
    layer.set("durable.sync_busy_s", busy("durable.sync"));
    layer.set("durable.compact_busy_s", busy("durable.compact"));
    let mut syncs = Samples::default();
    let mut compact_max_ns = 0;
    for s in &spans {
        match s.name {
            "durable.sync" => syncs.push(s.duration_ns() as f64 / 1e3),
            "durable.compact" => compact_max_ns = compact_max_ns.max(s.duration_ns()),
            _ => {}
        }
    }
    if syncs.len() > 0 {
        layer.set("durable.sync_p50_us", syncs.median());
        layer.set("durable.sync_p99_us", syncs.percentile(99.0));
    }
    layer.set("durable.compact_stall_max_ms", compact_max_ns as f64 / 1e6);
    let stats = rt.transport_stats();
    layer.set("transport.frames", stats.frames_sent as f64);
    layer.set("transport.bytes", stats.bytes_sent as f64);
    probes::codecs(&rt.transport_mut().take_sample(), layer);
    let originals = rt.original_entries_of(PRIMARY).to_vec();
    probes::core(
        &peer_states(&rt),
        &originals,
        rt.params(),
        derive(ctx.config.seed, stream::PROBES),
        layer,
    );
    Ok(window)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalogue::LayerMetrics;
    use std::rc::Rc;

    fn tiny() -> (RunConfig, Sizes) {
        let config = RunConfig {
            seed: 5,
            seconds: 1,
            quick: true,
            data_dir: None,
        };
        let sizes = Sizes {
            peers: 32,
            slice_ms: 2_000,
            cuts: 20,
            repeats: 2,
        };
        (config, sizes)
    }

    #[test]
    fn the_replayed_mirror_equals_the_live_peers_on_every_repeat() {
        let (config, sizes) = tiny();
        let net = sizes.net_config(derive(config.seed, stream::JOURNAL));
        let mut ctx = Context {
            config: &config,
            tracer: &Rc::new(Tracer::disabled()),
            layer: &mut LayerMetrics::default(),
        };
        let (window, _) = run_repeats(&mut ctx, &sizes, &net, || loopback_for(&net)).unwrap();
        assert_eq!((window.ops_attempted, window.ops_failed), (40, 0));
        assert_eq!((window.ops_timed, window.flushes), (20, 40));
        assert_eq!(window.unit_us.len(), 20);
        assert!(ctx.layer.get("durable.replay_records") > 0.0);
    }

    #[test]
    fn state_that_never_reached_the_journal_fails_the_replay_check() {
        let (config, sizes) = tiny();
        let net = sizes.net_config(derive(config.seed, stream::JOURNAL));
        let SetUp {
            mut rt,
            mut durable,
            dir,
        } = set_up(&config, &net, loopback_for(&net));
        rt.start_construction();
        rt.run_until(rt.now() + 60_000);
        persist(&rt, &mut durable, &Tracer::disabled()).unwrap();
        // Construction moves on; nothing journals it.
        rt.run_until(rt.now() + 600_000);
        let failed = check_replay(&rt, durable, &dir.0).unwrap_err();
        assert!(failed.0.contains("differs from its live state"), "{failed}");
    }
}
