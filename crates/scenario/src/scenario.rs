//! Declarative scenario programs: ordered phases with seed-derived event
//! schedules.

use crate::deployment::{Timeline, CHURN_DOWNTIME_MS, CHURN_GAP_MS, CHURN_LEAD_MS, JOIN_FANOUT};
use pgrid_core::routing::PeerId;
use pgrid_net::runtime::Millis;
use pgrid_workload::distributions::Distribution;
use rand::Rng;

/// Milliseconds per minute of virtual time.
pub const MINUTE_MS: Millis = 60_000;

/// Salt folded into the seed for the executor's control RNG (query pacing,
/// churn schedules, workload key draws).  The Section-5 reference figures
/// in `EXPERIMENTS.md` are pinned to this stream.
pub const CONTROL_SEED_SALT: u64 = 0xD13;

/// How a query-issuing phase paces its load.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct QuerySpec {
    /// How many peers are notionally issuing (each peer queries every 1–2
    /// minutes, so the aggregate rate is `issuers` per 1–2 minutes).
    /// `0` means the whole population; the cluster worker passes its shard
    /// size so the aggregate across workers matches.
    pub issuers: usize,
}

/// One peer joining with a pre-computed contact list (deterministic join
/// plans of the cluster).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JoinEvent {
    /// Virtual time of the join.
    pub at: Millis,
    /// The joining peer.
    pub peer: usize,
    /// Its bootstrap contacts (already-joined peers).
    pub neighbours: Vec<PeerId>,
}

/// When peer `peer` of `n_peers` joins on the ramp spreading joins over `[0, end)`.
pub fn join_time(peer: usize, n_peers: usize, end: Millis) -> Millis {
    (peer as u64 * end) / n_peers as u64
}

/// One explicit offline interval (deterministic churn plans of the
/// cluster).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChurnEvent {
    /// The churning peer.
    pub peer: usize,
    /// Virtual time the peer goes offline.
    pub at: Millis,
    /// How long it stays offline.
    pub downtime: Millis,
}

/// Every peer's offline intervals starting in `[from, until)`, peer by peer:
/// the first within `[0, lead)` of `from`, each lasting a `downtime` draw and
/// followed by a `gap` draw (both ranges inclusive).
pub fn churn_events(
    rng: &mut impl Rng,
    n_peers: usize,
    from: Millis,
    until: Millis,
    lead: Millis,
    downtime: (Millis, Millis),
    gap: (Millis, Millis),
) -> Vec<ChurnEvent> {
    let mut events = Vec::new();
    for peer in 0..n_peers {
        let mut at = from + if lead == 0 { 0 } else { rng.gen_range(0..lead) };
        while at < until {
            let downtime = rng.gen_range(downtime.0..=downtime.1);
            events.push(ChurnEvent { peer, at, downtime });
            at += downtime + rng.gen_range(gap.0..=gap.1);
        }
    }
    events
}

/// One phase of a [`Scenario`].
///
/// Phases with an `until_min` advance virtual time to that minute boundary
/// and establish it as the base the next phase's schedules are derived
/// from; the others act instantaneously.
#[derive(Clone, Debug, PartialEq)]
pub enum Phase {
    /// Ramp-join peers `0..n` evenly across the window, each bootstrapped
    /// with `fanout` runtime-drawn contacts (the Section-5.1 join phase).
    JoinWave {
        /// End of the join window, in minutes.
        until_min: u64,
        /// Bootstrap contacts per joining peer.
        fanout: usize,
    },
    /// Apply an explicit join schedule (cluster join plans).
    JoinSchedule {
        /// End of the join window, in minutes.
        until_min: u64,
        /// The joins, in time order.
        events: Vec<JoinEvent>,
    },
    /// Run the replication phase, then let the pushes settle until the
    /// boundary.
    Replicate {
        /// End of the replication window, in minutes.
        until_min: u64,
    },
    /// Switch on construction (instantaneous; combine with
    /// [`Phase::RunUntil`], [`Phase::ConstructUntilQuiescent`] or a churn
    /// window to give it time).
    StartConstruction,
    /// Let virtual time pass to the boundary.
    RunUntil {
        /// Target minute.
        until_min: u64,
    },
    /// Advance in `check_every_min` slices until the overlay reports
    /// quiescence, but at most `max_min` minutes.
    ConstructUntilQuiescent {
        /// Quiescence poll interval, in minutes.
        check_every_min: u64,
        /// Hard bound on the phase duration, in minutes.
        max_min: u64,
    },
    /// Issue queries at the paper's rate (each issuer queries every 1–2
    /// minutes) until the boundary.
    QueryLoad {
        /// End of the query window, in minutes.
        until_min: u64,
        /// Notional number of issuing peers (`0` = whole population).
        issuers: usize,
    },
    /// Issue order-preserving range queries (each issuer queries every 1–2
    /// minutes, like [`Phase::QueryLoad`]) until the boundary.  Range
    /// bounds are drawn from the control RNG: a uniform start with a
    /// keyspace-fraction width of `width`.
    RangeLoad {
        /// End of the range-load window, in minutes.
        until_min: u64,
        /// Notional number of issuing peers (`0` = whole population).
        issuers: usize,
        /// Width of each range as a fraction of the keyspace, in `(0, 1]`.
        width: f64,
    },
    /// Random churn: every peer independently leaves and returns on a
    /// schedule [`churn_events`] draws from the control RNG; optionally with
    /// concurrent query load (the Section-5.1 churn phase).
    Churn {
        /// End of the churn window, in minutes.
        until_min: u64,
        /// Each peer's first offline interval starts within `[0, lead_ms)`
        /// of the phase base.
        lead_ms: Millis,
        /// Inclusive range of offline durations.
        downtime_ms: (Millis, Millis),
        /// Inclusive range of online gaps between offline intervals.
        gap_ms: (Millis, Millis),
        /// Concurrent query load, if any.
        queries: Option<QuerySpec>,
    },
    /// Apply an explicit churn schedule (cluster churn plans), optionally
    /// with concurrent query load.
    ChurnSchedule {
        /// End of the churn window, in minutes.
        until_min: u64,
        /// The offline intervals.
        events: Vec<ChurnEvent>,
        /// Concurrent query load, if any.
        queries: Option<QuerySpec>,
    },
    /// Assign every peer `keys_per_peer` fresh keys drawn from
    /// `distribution` and re-engage construction (the re-indexing /
    /// dynamic re-balancing workload).
    ShiftDistribution {
        /// The new key distribution.
        distribution: Distribution,
        /// Fresh keys per peer.
        keys_per_peer: usize,
    },
    /// Inject a healing network partition: peers in different `groups`
    /// cannot exchange frames during `[from_min, until_min)`.
    /// Instantaneous: the phase schedules the window, the partition plays
    /// out (and heals) while later phases advance time.  Ignored by
    /// transports without fault hooks.
    Partition {
        /// The isolated peer groups (peer indices; peers in different
        /// groups lose all frames between them).
        groups: Vec<Vec<usize>>,
        /// Minute the partition starts.
        from_min: u64,
        /// Minute the partition heals.
        until_min: u64,
    },
    /// Record a labelled metric snapshot.
    Snapshot {
        /// Label of the snapshot in the report.
        label: String,
    },
    /// Let outstanding queries time out (advances by the overlay's query
    /// timeout past the current boundary).
    Drain,
}

/// Keyspace fraction each range query of a timeline-derived range window
/// spans ([`Scenario::from_timeline`] and the cluster worker use the same
/// width, so single-process and sharded range loads are comparable).
pub const RANGE_LOAD_WIDTH: f64 = 0.15;

/// An ordered program of [`Phase`]s plus the seed its event schedules and
/// query workload derive from.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Seed of the executor's control RNG, used verbatim ([`Scenario::new`]
    /// salts the engine seed with [`CONTROL_SEED_SALT`]; the cluster worker
    /// assigns its own per-worker seed).
    pub control_seed: u64,
    /// The phases, executed in order.
    pub phases: Vec<Phase>,
}

impl Scenario {
    /// The program `phases` with a control RNG derived from `seed` (the
    /// engine seed, salted with [`CONTROL_SEED_SALT`]).
    pub fn new(seed: u64, phases: Vec<Phase>) -> Scenario {
        Scenario {
            control_seed: seed ^ CONTROL_SEED_SALT,
            phases,
        }
    }

    /// The Section-5 deployment timeline as a canned scenario: join wave,
    /// replication, construction, query load, churn with queries, drain.
    ///
    /// Executed against a [`pgrid_net::runtime::Runtime`] built from a
    /// config with the same `seed`, this is the run `figures --
    /// --assert-reference` checks against `EXPERIMENTS.md`.
    pub fn from_timeline(seed: u64, timeline: &Timeline) -> Scenario {
        let join = Phase::JoinWave {
            until_min: timeline.join_end_min,
            fanout: JOIN_FANOUT,
        };
        let churn = Phase::Churn {
            until_min: timeline.end_min,
            lead_ms: CHURN_LEAD_MS,
            downtime_ms: CHURN_DOWNTIME_MS,
            gap_ms: CHURN_GAP_MS,
            queries: Some(QuerySpec { issuers: 0 }),
        };
        Scenario::new(seed, timeline_phases(timeline, join, 0, churn))
    }
}

/// The Section-5 timeline around its `join` and `churn` phases:
/// replication, construction, the optional range window, the lookup load
/// from `issuers` issuers, `churn` and the drain.  The range window sits
/// between construction and the lookup load; the reference timelines leave
/// it disabled (`range_end_min: 0`), so it draws nothing from the control
/// RNG.
pub(crate) fn timeline_phases(
    timeline: &Timeline,
    join: Phase,
    issuers: usize,
    churn: Phase,
) -> Vec<Phase> {
    let mut phases = vec![
        join,
        Phase::Replicate {
            until_min: timeline.replicate_end_min,
        },
        Phase::StartConstruction,
        Phase::RunUntil {
            until_min: timeline.construct_end_min,
        },
    ];
    if timeline.range_end_min > timeline.construct_end_min {
        phases.push(Phase::RangeLoad {
            until_min: timeline.range_end_min,
            issuers,
            width: RANGE_LOAD_WIDTH,
        });
    }
    phases.extend([
        Phase::QueryLoad {
            until_min: timeline.query_end_min,
            issuers,
        },
        churn,
        Phase::Drain,
    ]);
    phases
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_timeline_mirrors_the_section_5_phases() {
        let timeline = Timeline::default();
        let scenario = Scenario::from_timeline(7, &timeline);
        assert_eq!(scenario.control_seed, 7 ^ CONTROL_SEED_SALT);
        assert_eq!(scenario.phases.len(), 7);
        assert!(matches!(
            scenario.phases[0],
            Phase::JoinWave { until_min, fanout: JOIN_FANOUT } if until_min == timeline.join_end_min
        ));
        assert!(matches!(scenario.phases[2], Phase::StartConstruction));
        assert!(matches!(
            scenario.phases[5],
            Phase::Churn { until_min, queries: Some(_), .. } if until_min == timeline.end_min
        ));
        assert!(matches!(scenario.phases[6], Phase::Drain));
    }

    #[test]
    fn from_timeline_inserts_the_optional_range_window() {
        let timeline = Timeline {
            range_end_min: 70,
            ..Timeline::default()
        };
        let scenario = Scenario::from_timeline(7, &timeline);
        assert_eq!(scenario.phases.len(), 8);
        assert!(matches!(
            scenario.phases[4],
            Phase::RangeLoad { until_min: 70, issuers: 0, width, .. }
                if width == RANGE_LOAD_WIDTH
        ));
        assert!(matches!(
            scenario.phases[5],
            Phase::QueryLoad { until_min, .. } if until_min == timeline.query_end_min
        ));
    }
}
