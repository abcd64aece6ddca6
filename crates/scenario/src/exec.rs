//! The scenario executor: one driver for every [`Overlay`] engine.

use crate::overlay::{Millis, Overlay, OverlaySnapshot, MINUTE_MS};
use crate::scenario::{Phase, QuerySpec, Scenario};
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
    /// Opt-in store captures, one per [`Phase::Snapshot`]; empty unless
    /// [`Scenario::capture_stores`] is set (the default takes none and
    /// allocates nothing).
    pub store_captures: Vec<StoreCapture>,
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

    /// The store capture with the given label, if taken.
    pub fn store_capture(&self, label: &str) -> Option<&StoreCapture> {
        self.store_captures.iter().find(|c| c.label == label)
    }
}

/// The key stores of the hosted peers at one [`Phase::Snapshot`], captured
/// through [`Overlay::capture_stores`].  On copy-on-write engines every
/// handle shares storage with the live peer until either side mutates, so
/// a capture is O(1) per peer, not O(entries).
#[derive(Clone, Debug, PartialEq)]
pub struct StoreCapture {
    /// The label of the snapshot phase that took this capture.
    pub label: String,
    /// Virtual time of the capture, in minutes.
    pub at_min: u64,
    /// `(peer, store)` pairs, one per hosted peer.
    pub stores: Vec<(usize, pgrid_core::store::KeyStore)>,
}

/// Hooks called between phases — the cluster worker uses them to report
/// phase completion and park at coordinator barriers while keeping its
/// data plane serviced.
pub trait ScenarioHooks<O: Overlay + ?Sized> {
    /// Error the hook can fail with (aborts the run).
    type Error;

    /// Called after each phase finished executing.
    fn after_phase(
        &mut self,
        overlay: &mut O,
        phase_index: usize,
        phase: &Phase,
    ) -> Result<(), Self::Error>;
}

/// The no-op hooks of a plain [`run`].
pub struct NoHooks;

impl<O: Overlay + ?Sized> ScenarioHooks<O> for NoHooks {
    type Error = std::convert::Infallible;

    fn after_phase(&mut self, _: &mut O, _: usize, _: &Phase) -> Result<(), Self::Error> {
        Ok(())
    }
}

/// Executes `scenario` against `overlay` and reports the snapshots.
pub fn run<O: Overlay + ?Sized>(overlay: &mut O, scenario: &Scenario) -> ScenarioReport {
    match run_with_hooks(overlay, scenario, &mut NoHooks) {
        Ok(report) => report,
        Err(infallible) => match infallible {},
    }
}

/// Executes `scenario` against `overlay`, calling `hooks` after every
/// phase.  A hook error aborts the run.
pub fn run_with_hooks<O, H>(
    overlay: &mut O,
    scenario: &Scenario,
    hooks: &mut H,
) -> Result<ScenarioReport, H::Error>
where
    O: Overlay + ?Sized,
    H: ScenarioHooks<O>,
{
    let mut ctx = Context {
        rng: StdRng::seed_from_u64(scenario.control_seed),
        boundary_min: 0,
        next_query: None,
        snapshots: Vec::new(),
        capture_stores: scenario.capture_stores,
        store_captures: Vec::new(),
    };
    for (i, phase) in scenario.phases.iter().enumerate() {
        execute_phase(overlay, &mut ctx, phase);
        pgrid_obs::debug!(
            "scenario::exec",
            "phase {i} ({}) done at minute {}",
            phase_kind(phase),
            overlay.now() / MINUTE_MS
        );
        hooks.after_phase(overlay, i, phase)?;
    }
    ctx.snapshots.push(overlay.snapshot("final"));
    Ok(ScenarioReport {
        snapshots: ctx.snapshots,
        phases_run: scenario.phases.len(),
        end_min: overlay.now() / MINUTE_MS,
        store_captures: ctx.store_captures,
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
    capture_stores: bool,
    store_captures: Vec<StoreCapture>,
}

/// Stable phase label of the executor's progress logs.
fn phase_kind(phase: &Phase) -> &'static str {
    match phase {
        Phase::JoinWave { .. } => "join_wave",
        Phase::JoinSchedule { .. } => "join_schedule",
        Phase::Replicate { .. } => "replicate",
        Phase::StartConstruction { .. } => "start_construction",
        Phase::RunUntil { .. } => "run_until",
        Phase::ConstructUntilQuiescent { .. } => "construct_until_quiescent",
        Phase::QueryLoad { .. } => "query_load",
        Phase::RangeLoad { .. } => "range_load",
        Phase::Churn { .. } => "churn",
        Phase::ChurnSchedule { .. } => "churn_schedule",
        Phase::ShiftDistribution { .. } => "shift_distribution",
        Phase::KillWorker { .. } => "kill_worker",
        Phase::Partition { .. } => "partition",
        Phase::Snapshot { .. } => "snapshot",
        Phase::Drain => "drain",
    }
}

fn execute_phase<O: Overlay + ?Sized>(overlay: &mut O, ctx: &mut Context, phase: &Phase) {
    match phase {
        Phase::JoinWave { until_min, fanout } => {
            let end = until_min * MINUTE_MS;
            let n = overlay.n_peers();
            for peer in 0..n {
                let at = (peer as u64 * end) / n as u64;
                overlay.advance_to(at);
                overlay.join(peer, *fanout);
            }
            overlay.advance_to(end);
            ctx.boundary_min = *until_min;
        }
        Phase::JoinSchedule { until_min, events } => {
            for event in events {
                overlay.advance_to(event.at);
                overlay.join_with_neighbours(event.peer, event.neighbours.clone());
            }
            overlay.advance_to(until_min * MINUTE_MS);
            ctx.boundary_min = *until_min;
        }
        Phase::Replicate { index, until_min } => {
            assert!(overlay.has_index(*index), "{index} is not hosted");
            overlay.begin_replication(*index);
            overlay.advance_to(until_min * MINUTE_MS);
            ctx.boundary_min = *until_min;
        }
        Phase::StartConstruction { index } => {
            assert!(overlay.has_index(*index), "{index} is not hosted");
            overlay.begin_construction(*index);
        }
        Phase::RunUntil { until_min } => {
            overlay.advance_to(until_min * MINUTE_MS);
            ctx.boundary_min = *until_min;
        }
        Phase::ConstructUntilQuiescent {
            check_every_min,
            max_min,
        } => {
            let deadline = overlay.now() + max_min * MINUTE_MS;
            while !overlay.quiescent() && overlay.now() < deadline {
                let next = (overlay.now() + (*check_every_min).max(1) * MINUTE_MS).min(deadline);
                overlay.advance_to(next);
            }
            ctx.boundary_min = overlay.now() / MINUTE_MS;
        }
        Phase::QueryLoad {
            index,
            until_min,
            issuers,
        } => {
            assert!(overlay.has_index(*index), "{index} is not hosted");
            let end = until_min * MINUTE_MS;
            let keys = overlay.query_keys(*index);
            let issuers = effective_issuers(overlay, *issuers);
            // The pacing clock restarts at the phase start (a fresh query
            // window).
            let mut next_query = overlay.now();
            if keys.is_empty() {
                overlay.advance_to(end);
            } else {
                while overlay.now() < end {
                    let step = ctx
                        .rng
                        .gen_range(MINUTE_MS / issuers / 2..=MINUTE_MS / issuers);
                    next_query += step.max(1);
                    overlay.advance_to(next_query);
                    let key = keys[ctx.rng.gen_range(0..keys.len())];
                    overlay.issue_query(*index, key);
                }
            }
            ctx.next_query = Some(next_query);
            ctx.boundary_min = *until_min;
        }
        Phase::RangeLoad {
            index,
            until_min,
            issuers,
            width,
        } => {
            assert!(overlay.has_index(*index), "{index} is not hosted");
            let end = until_min * MINUTE_MS;
            let issuers = effective_issuers(overlay, *issuers);
            let width = width.clamp(f64::EPSILON, 1.0);
            // Range load paces like query load but draws `[lo, hi]` bounds
            // from the control RNG instead of corpus keys.
            let mut next_query = overlay.now();
            while overlay.now() < end {
                let step = ctx
                    .rng
                    .gen_range(MINUTE_MS / issuers / 2..=MINUTE_MS / issuers);
                next_query += step.max(1);
                overlay.advance_to(next_query);
                let start = ctx.rng.gen_range(0.0..(1.0 - width).max(f64::EPSILON));
                let lo = pgrid_core::key::Key::from_fraction(start);
                let hi =
                    pgrid_core::key::Key::from_fraction((start + width).min(1.0 - f64::EPSILON));
                overlay.issue_range_query(*index, lo, hi.max(lo));
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
            for peer in 0..overlay.n_peers() {
                let mut at = base
                    + if *lead_ms == 0 {
                        0
                    } else {
                        ctx.rng.gen_range(0..*lead_ms)
                    };
                while at < end {
                    let downtime = ctx.rng.gen_range(downtime_ms.0..=downtime_ms.1);
                    overlay.schedule_leave(peer, at, downtime);
                    at += downtime + ctx.rng.gen_range(gap_ms.0..=gap_ms.1);
                }
            }
            churn_window(overlay, ctx, end, queries);
            ctx.boundary_min = *until_min;
        }
        Phase::ChurnSchedule {
            until_min,
            events,
            queries,
        } => {
            for event in events {
                overlay.schedule_leave(event.peer, event.at, event.downtime);
            }
            churn_window(overlay, ctx, until_min * MINUTE_MS, queries);
            ctx.boundary_min = *until_min;
        }
        Phase::ShiftDistribution {
            index,
            distribution,
            keys_per_peer,
        } => {
            assert!(overlay.has_index(*index), "{index} is not hosted");
            for peer in 0..overlay.n_peers() {
                let keys = (0..*keys_per_peer)
                    .map(|_| distribution.sample(&mut ctx.rng))
                    .collect();
                overlay.insert(*index, peer, keys);
            }
            // Fresh data re-opens the partitioning question.
            overlay.begin_construction(*index);
        }
        Phase::KillWorker { at_min } => {
            overlay.schedule_kill(at_min * MINUTE_MS);
        }
        Phase::Partition {
            groups,
            from_min,
            until_min,
        } => {
            let supported =
                overlay.inject_partition(groups, from_min * MINUTE_MS, until_min * MINUTE_MS);
            if !supported {
                pgrid_obs::debug!(
                    "scenario::exec",
                    "partition fault ignored: transport has no fault hooks"
                );
            }
        }
        Phase::Snapshot { label } => {
            let snapshot = overlay.snapshot(label);
            ctx.snapshots.push(snapshot);
            if ctx.capture_stores {
                ctx.store_captures.push(StoreCapture {
                    label: label.clone(),
                    at_min: overlay.now() / MINUTE_MS,
                    stores: overlay.capture_stores(),
                });
            }
        }
        Phase::Drain => {
            overlay.advance_to(ctx.boundary_min * MINUTE_MS + overlay.query_timeout_ms());
        }
    }
}

/// The query/advance loop shared by both churn phases: the pacing clock
/// *continues* from the preceding query phase, advances are clamped to the
/// window, and no query is issued at or past the boundary.
fn churn_window<O: Overlay + ?Sized>(
    overlay: &mut O,
    ctx: &mut Context,
    end: Millis,
    queries: &Option<QuerySpec>,
) {
    let Some(spec) = queries else {
        overlay.advance_to(end);
        return;
    };
    let keys = overlay.query_keys(spec.index);
    let issuers = effective_issuers(overlay, spec.issuers);
    let mut next_query = ctx.next_query.unwrap_or_else(|| overlay.now());
    if keys.is_empty() {
        overlay.advance_to(end);
        return;
    }
    while overlay.now() < end {
        let step = ctx
            .rng
            .gen_range(MINUTE_MS / issuers / 2..=MINUTE_MS / issuers);
        next_query += step.max(1);
        overlay.advance_to(next_query.min(end));
        if overlay.now() >= end {
            break;
        }
        let key = keys[ctx.rng.gen_range(0..keys.len())];
        overlay.issue_query(spec.index, key);
    }
    ctx.next_query = Some(next_query);
}

fn effective_issuers<O: Overlay + ?Sized>(overlay: &O, issuers: usize) -> u64 {
    let n = if issuers == 0 {
        overlay.n_peers()
    } else {
        issuers
    };
    (n as u64).max(1)
}
