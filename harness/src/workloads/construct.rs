//! `construct-uniform` / `construct-skew`: `SimNetwork` new → replicate →
//! `run_round` to quiescence.  A run repeats one construction (one derived
//! seed) a few times; the op is one peer brought to quiescence, the timed
//! window the round loop of the quiet repeat.

use super::{check, derive, stream, CheckFailed, Context, RunConfig, UnitClock, Window};
use crate::host::calibrate_ns;
use crate::overlay::{holdings, PathIndex};
use crate::probes;
use crate::span::{self, Tracer};
use crate::stats::Samples;
use pgrid_core::key::DataEntry;
use pgrid_core::peer::PeerState;
use pgrid_sim::config::SimConfig;
use pgrid_sim::construction::{ConstructedOverlay, SimNetwork};
use pgrid_workload::distributions::Distribution;
use std::time::Instant;

/// Share of the original keys some covering peer must still hold once the
/// overlay is quiescent.  Construction loses a key now and then (1 in
/// 40 960 on some seeds at the defining commit); this floor fails a change
/// that loses them wholesale.
const MIN_KEY_AVAILABILITY: f64 = 0.999;
/// Set-ups timed on top of the one per repeat.
const EXTRA_SETUPS: usize = 8;

pub struct Sizes {
    pub peers: usize,
    pub keys_per_peer: usize,
    pub n_min: usize,
    pub distribution: Distribution,
    pub threads: usize,
    /// How often the construction is repeated.
    pub repeats: usize,
}

impl Sizes {
    pub fn new(config: &RunConfig, skew: bool) -> Sizes {
        // One construction takes ≈3.4 s (uniform, 4 096 peers) and ≈2.1 s
        // (skew, 1 024 peers) on the 2-core reference host; see README.
        let (peers, per_ten_seconds) = match (skew, config.quick) {
            (false, false) => (4_096, 3),
            (true, false) => (1_024, 5),
            (false, true) => (512, 30),
            (true, true) => (256, 30),
        };
        Sizes {
            peers,
            keys_per_peer: 10,
            n_min: 5,
            distribution: if skew {
                Distribution::Normal {
                    mean: 0.5,
                    std_dev: 0.05,
                }
            } else {
                Distribution::Uniform
            },
            threads: 2,
            repeats: (config.seconds as usize * per_ten_seconds)
                .div_ceil(10)
                .max(1),
        }
    }

    pub fn describe(&self) -> String {
        format!(
            "{} peers x {} keys, n_min {}, {}, n_threads {}, one construction repeated {} times",
            self.peers,
            self.keys_per_peer,
            self.n_min,
            self.distribution.label(),
            self.threads,
            self.repeats
        )
    }

    fn sim_config(&self, seed: u64, threads: usize) -> SimConfig {
        SimConfig {
            n_peers: self.peers,
            keys_per_peer: self.keys_per_peer,
            n_min: self.n_min,
            distribution: self.distribution,
            seed,
            n_threads: threads,
            ..SimConfig::default()
        }
    }
}

/// Runs the round loop to quiescence (or `max_rounds`), one span a round.
fn run_rounds(network: &mut SimNetwork, tracer: &Tracer) {
    let max_rounds = network.config().max_rounds;
    while network.round() < max_rounds {
        if !tracer.span("sim.run_round", || network.run_round()) {
            break;
        }
    }
}

/// The overlay invariants a quiescent construction must satisfy.
fn check_overlay(peers: &[PeerState], originals: &[DataEntry]) -> Result<(f64, f64), CheckFailed> {
    let refs: Vec<&PeerState> = peers.iter().collect();
    let index = PathIndex::of(&refs);
    check(index.cover_is_complete(), || {
        "peer paths leave part of the key space uncovered".to_string()
    })?;
    let held = holdings(&index, &refs, originals).held_by_any;
    let availability = held as f64 / originals.len() as f64;
    check(availability >= MIN_KEY_AVAILABILITY, || {
        format!(
            "only {held} of {} original keys are held by a peer whose path covers them",
            originals.len()
        )
    })?;
    Ok((availability, index.nested_path_ratio()))
}

pub fn run(ctx: &mut Context<'_>, skew: bool) -> Result<Window, CheckFailed> {
    let sizes = Sizes::new(ctx.config, skew);
    let seed = derive(ctx.config.seed, stream::CONSTRUCTION);
    let config = sizes.sim_config(seed, sizes.threads);
    let mut setups_s = Vec::with_capacity(sizes.repeats + EXTRA_SETUPS);
    let mut clock = UnitClock::default();
    let mut elapsed_s = 0.0;
    let mut failed_peers = 0u64;
    let mut first: Option<ConstructedOverlay> = None;

    // A set-up takes 7–30 ms: besides the one each repeat needs, it is
    // repeated some more so that the median is a steady one.
    for _ in 0..EXTRA_SETUPS {
        let start = Instant::now();
        let mut network = SimNetwork::new(&config);
        network.replicate();
        setups_s.push(start.elapsed().as_secs_f64());
    }

    let calib_ns_before = calibrate_ns();
    for repeat in 0..sizes.repeats {
        ctx.tracer.set_op(repeat as u64);
        let setup_start = Instant::now();
        let mut network = ctx.tracer.span("sim.new", || SimNetwork::new(&config));
        ctx.tracer.span("sim.replicate", || network.replicate());
        setups_s.push(setup_start.elapsed().as_secs_f64());

        let start = Instant::now();
        clock.time(|| {
            ctx.tracer
                .span(span::WINDOW, || run_rounds(&mut network, ctx.tracer))
        });
        elapsed_s += start.elapsed().as_secs_f64();
        clock.close_unit(sizes.peers as u64);

        if !network.quiescent() {
            // Which peers are still active is private to the simulator;
            // the whole construction counts as failed.
            failed_peers += sizes.peers as u64;
        }
        let overlay = network.into_overlay();
        match &first {
            None => {
                let (availability, nested) =
                    check_overlay(&overlay.peers, &overlay.original_entries)?;
                ctx.layer.set("core.key_availability", availability);
                ctx.layer.set("core.nested_path_ratio", nested);
                first = Some(overlay);
            }
            // Same input, same construction: the simulator is deterministic.
            Some(first) => check(
                overlay.peer_paths() == first.peer_paths() && overlay.metrics == first.metrics,
                || format!("repeat {repeat} of the same construction produced another overlay"),
            )?,
        }
    }
    let calib_ns_after = calibrate_ns();

    // The repeats do identical work, so the timed window is the quiet one
    // among them (see `stats::QUIET_SHARE`).
    let timed = clock.quiet();
    let construction_s = timed.wall_s * sizes.peers as f64 / timed.ops as f64;
    let overlay = first.expect("at least one construction ran");
    let m = &overlay.metrics;
    ctx.layer
        .set("host.median_unit_slowdown", timed.median_unit_slowdown);
    ctx.layer.set("sim.rounds", m.rounds as f64);
    ctx.layer.set(
        "sim.interactions_per_s",
        m.interactions as f64 / construction_s,
    );
    ctx.layer
        .set("sim.interactions_per_peer", m.interactions_per_peer());
    ctx.layer.set(
        "sim.fruitless_ratio",
        m.fruitless_interactions as f64 / m.interactions as f64,
    );
    ctx.layer.set(
        "sim.keys_moved_per_interaction",
        m.total_keys_moved() as f64 / m.interactions as f64,
    );

    if ctx.traced() {
        let spans = ctx.tracer.spans();
        let repeats = sizes.repeats as f64;
        ctx.layer
            .set("sim.new_s", span::busy_s(&spans, "sim.new") / repeats);
        ctx.layer.set(
            "sim.replicate_s",
            span::busy_s(&spans, "sim.replicate") / repeats,
        );
        ctx.layer.set(
            "sim.run_round_busy_s",
            span::busy_s(&spans, "sim.run_round"),
        );
        let mut rounds = Samples::default();
        for s in spans.iter().filter(|s| s.name == "sim.run_round") {
            rounds.push(s.duration_ns() as f64 / 1e3);
        }
        ctx.layer.set("sim.round_p90_us", rounds.percentile(90.0));

        // Thread parity and the 2-thread speed-up: the construction again
        // on one thread must reproduce paths and metrics exactly.
        let mut network = SimNetwork::new(&sizes.sim_config(seed, 1));
        network.replicate();
        let start = Instant::now();
        run_rounds(&mut network, &Tracer::disabled());
        let one_thread_s = start.elapsed().as_secs_f64();
        let single = network.into_overlay();
        check(single.peer_paths() == overlay.peer_paths(), || {
            "n_threads = 1 produced different peer paths than n_threads = 2".to_string()
        })?;
        check(single.metrics == overlay.metrics, || {
            "n_threads = 1 produced different construction metrics than n_threads = 2".to_string()
        })?;
        ctx.layer
            .set("sim.parallel_speedup_2t", one_thread_s / construction_s);

        let peers: Vec<&PeerState> = overlay.peers.iter().collect();
        probes::core(
            &peers,
            &overlay.original_entries,
            overlay.params,
            derive(ctx.config.seed, stream::PROBES),
            ctx.layer,
        );
    }

    Ok(Window {
        setups_s,
        elapsed_s,
        wall_s: timed.wall_s,
        cpu_s: timed.cpu_s,
        ops_attempted: (sizes.repeats * sizes.peers) as u64,
        ops_failed: failed_peers,
        ops_timed: timed.ops,
        unit_us: timed.unit_us,
        bytes_per_op: (m.total_keys_moved() * std::mem::size_of::<DataEntry>()) as f64
            / sizes.peers as f64,
        flushes: 0,
        calib_ns_before,
        calib_ns_after,
    })
}
