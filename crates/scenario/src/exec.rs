//! The scenario executor: one driver over [`Runtime`].

use crate::scenario::{Phase, QuerySpec, Scenario, MINUTE_MS};
use crate::snapshot::{query_keys, OverlaySnapshot};
use pgrid_core::index::IndexId;
use pgrid_core::key::Key;
use pgrid_core::routing::PeerId;
use pgrid_net::runtime::{Millis, Runtime};
use pgrid_transport::{LinkFault, Transport};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The unified result of a scenario run.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioReport {
    /// Every [`Phase::Snapshot`] measurement, in order, plus an automatic
    /// `"final"` snapshot at the end of the run.
    pub snapshots: Vec<OverlaySnapshot>,
    /// Number of phases executed.
    pub phases_run: usize,
    /// Virtual time at the end of the run, in minutes.
    pub end_min: u64,
}

impl ScenarioReport {
    /// The snapshot with the given label, if taken.
    pub fn snapshot(&self, label: &str) -> Option<&OverlaySnapshot> {
        self.snapshots.iter().find(|s| s.label == label)
    }

    /// The automatic end-of-run snapshot.
    pub fn final_snapshot(&self) -> &OverlaySnapshot {
        self.snapshots.last().expect("every run takes one")
    }
}

/// What [`run_hosted`] drives: a [`Runtime`], how virtual time advances on
/// it, and what happens between phases.
///
/// A plain [`Runtime`] is its own host.  The cluster worker's shard is the
/// other one: it paces time against the wire and parks at the
/// coordinator's barriers after each phase.
pub trait RuntimeHost {
    /// The transport of the hosted runtime.
    type Transport: Transport;
    /// Error [`RuntimeHost::after_phase`] can fail with (aborts the run).
    type Error;

    /// The hosted runtime.
    fn runtime(&mut self) -> &mut Runtime<Self::Transport>;

    /// Advances virtual time to `until`.
    fn advance_to(&mut self, until: Millis) {
        self.runtime().run_until(until);
    }

    /// Called after phase `index` finished executing.
    fn after_phase(&mut self, _index: usize, _phase: &Phase) -> Result<(), Self::Error> {
        Ok(())
    }
}

impl<T: Transport> RuntimeHost for Runtime<T> {
    type Transport = T;
    type Error = std::convert::Infallible;

    fn runtime(&mut self) -> &mut Runtime<T> {
        self
    }
}

/// Executes `scenario` against `runtime` and reports the snapshots.
pub fn run<T: Transport>(runtime: &mut Runtime<T>, scenario: &Scenario) -> ScenarioReport {
    match run_hosted(runtime, scenario) {
        Ok(report) => report,
        Err(infallible) => match infallible {},
    }
}

/// Executes `scenario` against the runtime of `host`, calling
/// [`RuntimeHost::after_phase`] after every phase.  An error there aborts
/// the run.
pub fn run_hosted<H: RuntimeHost>(
    host: &mut H,
    scenario: &Scenario,
) -> Result<ScenarioReport, H::Error> {
    let mut ctx = Context {
        rng: StdRng::seed_from_u64(scenario.control_seed),
        boundary_min: 0,
        next_query: None,
        snapshots: Vec::new(),
    };
    for (i, phase) in scenario.phases.iter().enumerate() {
        execute_phase(host, &mut ctx, phase);
        pgrid_obs::debug!(
            "scenario::exec",
            "phase {i} ({}) done at minute {}",
            phase_kind(phase),
            host.runtime().now() / MINUTE_MS
        );
        host.after_phase(i, phase)?;
    }
    let runtime = host.runtime();
    ctx.snapshots.push(OverlaySnapshot::of(runtime, "final"));
    Ok(ScenarioReport {
        snapshots: ctx.snapshots,
        phases_run: scenario.phases.len(),
        end_min: runtime.now() / MINUTE_MS,
    })
}

/// Executor state threaded through the phases.
///
/// `next_query` is the query pacing clock: a [`Phase::QueryLoad`] resets it
/// to the phase start, a churn phase with queries *continues* it — the
/// Section-5 reference figures in `EXPERIMENTS.md` are pinned to exactly
/// this bookkeeping.
struct Context {
    rng: StdRng,
    boundary_min: u64,
    next_query: Option<Millis>,
    snapshots: Vec<OverlaySnapshot>,
}

/// Stable phase label of the executor's progress logs.
fn phase_kind(phase: &Phase) -> &'static str {
    match phase {
        Phase::JoinWave { .. } => "join_wave",
        Phase::JoinSchedule { .. } => "join_schedule",
        Phase::Replicate { .. } => "replicate",
        Phase::StartConstruction => "start_construction",
        Phase::RunUntil { .. } => "run_until",
        Phase::ConstructUntilQuiescent { .. } => "construct_until_quiescent",
        Phase::QueryLoad { .. } => "query_load",
        Phase::RangeLoad { .. } => "range_load",
        Phase::Churn { .. } => "churn",
        Phase::ChurnSchedule { .. } => "churn_schedule",
        Phase::ShiftDistribution { .. } => "shift_distribution",
        Phase::Partition { .. } => "partition",
        Phase::Snapshot { .. } => "snapshot",
        Phase::Drain => "drain",
    }
}

fn execute_phase<H: RuntimeHost>(host: &mut H, ctx: &mut Context, phase: &Phase) {
    match phase {
        Phase::JoinWave { until_min, fanout } => {
            let end = until_min * MINUTE_MS;
            let n = host.runtime().config.n_peers;
            for peer in 0..n {
                let at = (peer as u64 * end) / n as u64;
                host.advance_to(at);
                host.runtime().join_peer(peer, *fanout);
            }
            host.advance_to(end);
            ctx.boundary_min = *until_min;
        }
        Phase::JoinSchedule { until_min, events } => {
            for event in events {
                host.advance_to(event.at);
                host.runtime()
                    .join_peer_with_neighbours(event.peer, event.neighbours.clone());
            }
            host.advance_to(until_min * MINUTE_MS);
            ctx.boundary_min = *until_min;
        }
        Phase::Replicate { until_min } => {
            host.runtime().replication_phase();
            host.advance_to(until_min * MINUTE_MS);
            ctx.boundary_min = *until_min;
        }
        Phase::StartConstruction => host.runtime().start_construction(),
        Phase::RunUntil { until_min } => {
            host.advance_to(until_min * MINUTE_MS);
            ctx.boundary_min = *until_min;
        }
        Phase::ConstructUntilQuiescent {
            check_every_min,
            max_min,
        } => {
            let deadline = host.runtime().now() + max_min * MINUTE_MS;
            loop {
                let runtime = host.runtime();
                let now = runtime.now();
                if runtime.construction_quiescent() || now >= deadline {
                    break;
                }
                host.advance_to((now + (*check_every_min).max(1) * MINUTE_MS).min(deadline));
            }
            ctx.boundary_min = host.runtime().now() / MINUTE_MS;
        }
        Phase::QueryLoad { until_min, issuers } => {
            let end = until_min * MINUTE_MS;
            let keys = query_keys(host.runtime());
            let issuers = effective_issuers(host.runtime(), *issuers);
            // The pacing clock restarts at the phase start (a fresh query
            // window).
            let mut next_query = host.runtime().now();
            if keys.is_empty() {
                host.advance_to(end);
            } else {
                while host.runtime().now() < end {
                    next_query += pacing_step(&mut ctx.rng, issuers);
                    host.advance_to(next_query);
                    let key = keys[ctx.rng.gen_range(0..keys.len())];
                    host.runtime()
                        .issue_query_batch_on(IndexId::PRIMARY, &[key]);
                }
            }
            ctx.next_query = Some(next_query);
            ctx.boundary_min = *until_min;
        }
        Phase::RangeLoad {
            until_min,
            issuers,
            width,
        } => {
            let end = until_min * MINUTE_MS;
            let issuers = effective_issuers(host.runtime(), *issuers);
            let width = width.clamp(f64::EPSILON, 1.0);
            // Range load paces like query load but draws `[lo, hi]` bounds
            // from the control RNG instead of corpus keys.
            let mut next_query = host.runtime().now();
            while host.runtime().now() < end {
                next_query += pacing_step(&mut ctx.rng, issuers);
                host.advance_to(next_query);
                let start = ctx.rng.gen_range(0.0..(1.0 - width).max(f64::EPSILON));
                let lo = Key::from_fraction(start);
                let hi = Key::from_fraction((start + width).min(1.0 - f64::EPSILON));
                host.runtime()
                    .issue_range_query_on(IndexId::PRIMARY, lo, hi.max(lo));
            }
            ctx.next_query = Some(next_query);
            ctx.boundary_min = *until_min;
        }
        Phase::Churn {
            until_min,
            lead_ms,
            downtime_ms,
            gap_ms,
            queries,
        } => {
            let end = until_min * MINUTE_MS;
            let base = ctx.boundary_min * MINUTE_MS;
            let runtime = host.runtime();
            for peer in 0..runtime.config.n_peers {
                let mut at = base
                    + if *lead_ms == 0 {
                        0
                    } else {
                        ctx.rng.gen_range(0..*lead_ms)
                    };
                while at < end {
                    let downtime = ctx.rng.gen_range(downtime_ms.0..=downtime_ms.1);
                    runtime.schedule_churn(peer, at, downtime);
                    at += downtime + ctx.rng.gen_range(gap_ms.0..=gap_ms.1);
                }
            }
            churn_window(host, ctx, end, queries);
            ctx.boundary_min = *until_min;
        }
        Phase::ChurnSchedule {
            until_min,
            events,
            queries,
        } => {
            let runtime = host.runtime();
            for event in events {
                runtime.schedule_churn(event.peer, event.at, event.downtime);
            }
            churn_window(host, ctx, until_min * MINUTE_MS, queries);
            ctx.boundary_min = *until_min;
        }
        Phase::ShiftDistribution {
            distribution,
            keys_per_peer,
        } => {
            let runtime = host.runtime();
            for peer in 0..runtime.config.n_peers {
                let keys = (0..*keys_per_peer)
                    .map(|_| distribution.sample(&mut ctx.rng))
                    .collect();
                runtime.insert_entries(peer, keys);
            }
            // Fresh data re-opens the partitioning question.
            runtime.start_construction();
        }
        Phase::Partition {
            groups,
            from_min,
            until_min,
        } => {
            let groups = groups
                .iter()
                .map(|g| g.iter().map(|&p| PeerId(p as u64)).collect())
                .collect();
            let supported = host.runtime().inject_link_fault(LinkFault::Partition {
                groups,
                from: from_min * MINUTE_MS,
                until: until_min * MINUTE_MS,
            });
            if !supported {
                pgrid_obs::debug!(
                    "scenario::exec",
                    "partition fault ignored: transport has no fault hooks"
                );
            }
        }
        Phase::Snapshot { label } => {
            ctx.snapshots
                .push(OverlaySnapshot::of(host.runtime(), label));
        }
        Phase::Drain => {
            let timeout = host.runtime().config.query_timeout_ms;
            host.advance_to(ctx.boundary_min * MINUTE_MS + timeout);
        }
    }
}

/// The query/advance loop shared by both churn phases: the pacing clock
/// *continues* from the preceding query phase, advances are clamped to the
/// window, and no query is issued at or past the boundary.
fn churn_window<H: RuntimeHost>(
    host: &mut H,
    ctx: &mut Context,
    end: Millis,
    queries: &Option<QuerySpec>,
) {
    let Some(spec) = queries else {
        host.advance_to(end);
        return;
    };
    let keys = query_keys(host.runtime());
    let issuers = effective_issuers(host.runtime(), spec.issuers);
    let mut next_query = ctx.next_query.unwrap_or_else(|| host.runtime().now());
    if keys.is_empty() {
        host.advance_to(end);
        return;
    }
    while host.runtime().now() < end {
        next_query += pacing_step(&mut ctx.rng, issuers);
        host.advance_to(next_query.min(end));
        if host.runtime().now() >= end {
            break;
        }
        let key = keys[ctx.rng.gen_range(0..keys.len())];
        host.runtime()
            .issue_query_batch_on(IndexId::PRIMARY, &[key]);
    }
    ctx.next_query = Some(next_query);
}

/// The gap to the next query of `issuers` notional issuers, drawn from the
/// control RNG.
fn pacing_step(rng: &mut StdRng, issuers: u64) -> Millis {
    rng.gen_range(MINUTE_MS / issuers / 2..=MINUTE_MS / issuers)
        .max(1)
}

fn effective_issuers<T: Transport>(runtime: &Runtime<T>, issuers: usize) -> u64 {
    let n = if issuers == 0 {
        runtime.config.n_peers
    } else {
        issuers
    };
    (n as u64).max(1)
}
