//! Declarative scenario programs: ordered phases with seed-derived event
//! schedules.

use pgrid_core::index::IndexId;
use pgrid_core::routing::PeerId;
use pgrid_net::experiment::Timeline;
use pgrid_net::runtime::Millis;
use pgrid_workload::distributions::Distribution;

/// Milliseconds per minute of virtual time.
pub const MINUTE_MS: Millis = 60_000;

/// Salt folded into the seed for the executor's control RNG (query pacing,
/// churn schedules, workload key draws).  The Section-5 reference figures
/// in `EXPERIMENTS.md` are pinned to this stream.
pub const CONTROL_SEED_SALT: u64 = 0xD13;

/// How a query-issuing phase paces its load.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct QuerySpec {
    /// The index the queries run against.
    pub index: IndexId,
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
    /// Run the replication phase of an index, then let the pushes settle
    /// until the boundary.
    Replicate {
        /// The index to replicate.
        index: IndexId,
        /// End of the replication window, in minutes.
        until_min: u64,
    },
    /// Switch on construction for an index (instantaneous; combine with
    /// [`Phase::RunUntil`], [`Phase::ConstructUntilQuiescent`] or a churn
    /// window to give it time).
    StartConstruction {
        /// The index to construct.
        index: IndexId,
    },
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
        /// The index the queries run against.
        index: IndexId,
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
        /// The index the range queries run against.
        index: IndexId,
        /// End of the range-load window, in minutes.
        until_min: u64,
        /// Notional number of issuing peers (`0` = whole population).
        issuers: usize,
        /// Width of each range as a fraction of the keyspace, in `(0, 1]`.
        width: f64,
    },
    /// Random churn: every peer independently leaves and returns, with the
    /// schedule drawn from the control RNG; optionally with concurrent
    /// query load (the Section-5.1 churn phase).
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
    /// `distribution` on `index` and re-engage construction (the
    /// re-indexing / dynamic re-balancing workload).
    ShiftDistribution {
        /// The index whose data shifts.
        index: IndexId,
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
    /// Seed of the executor's control RNG (already salted; see
    /// [`Scenario::builder`] and [`ScenarioBuilder::raw_control_seed`]).
    pub control_seed: u64,
    /// The phases, executed in order.
    pub phases: Vec<Phase>,
}

impl Scenario {
    /// Starts building a scenario whose control RNG derives from `seed`
    /// (the engine seed; the builder salts it with [`CONTROL_SEED_SALT`]).
    pub fn builder(seed: u64) -> ScenarioBuilder {
        ScenarioBuilder {
            control_seed: seed ^ CONTROL_SEED_SALT,
            phases: Vec::new(),
        }
    }

    /// The Section-5 deployment timeline as a canned scenario: join wave,
    /// replication, construction, query load, churn with queries, drain.
    ///
    /// Executed against a [`pgrid_net::runtime::Runtime`] built from a
    /// config with the same `seed`, this is the run `figures --
    /// --assert-reference` checks against `EXPERIMENTS.md`.
    pub fn from_timeline(seed: u64, timeline: &Timeline) -> Scenario {
        let mut builder = Scenario::builder(seed)
            .join_wave(timeline.join_end_min, 6)
            .replicate(IndexId::PRIMARY, timeline.replicate_end_min)
            .start_construction(IndexId::PRIMARY)
            .run_until(timeline.construct_end_min);
        // The optional range window sits between construction and the
        // lookup load; the reference timelines leave it disabled
        // (`range_end_min: 0`), so it draws nothing from the control RNG.
        if timeline.range_end_min > timeline.construct_end_min {
            builder = builder.range_load(
                IndexId::PRIMARY,
                timeline.range_end_min,
                0,
                RANGE_LOAD_WIDTH,
            );
        }
        builder
            .query_load(IndexId::PRIMARY, timeline.query_end_min)
            .churn(
                timeline.end_min,
                5 * MINUTE_MS,
                (MINUTE_MS, 5 * MINUTE_MS),
                (5 * MINUTE_MS, 10 * MINUTE_MS),
                Some(QuerySpec {
                    index: IndexId::PRIMARY,
                    issuers: 0,
                }),
            )
            .drain()
            .build()
    }
}

/// Fluent builder of [`Scenario`]s.
#[derive(Clone, Debug)]
pub struct ScenarioBuilder {
    control_seed: u64,
    phases: Vec<Phase>,
}

impl ScenarioBuilder {
    /// Overrides the (already salted) control seed verbatim — the cluster
    /// worker uses this to decorrelate per-worker query streams.
    pub fn raw_control_seed(mut self, control_seed: u64) -> ScenarioBuilder {
        self.control_seed = control_seed;
        self
    }

    /// Appends an arbitrary phase.
    pub fn phase(mut self, phase: Phase) -> ScenarioBuilder {
        self.phases.push(phase);
        self
    }

    /// Appends a [`Phase::JoinWave`].
    pub fn join_wave(self, until_min: u64, fanout: usize) -> ScenarioBuilder {
        self.phase(Phase::JoinWave { until_min, fanout })
    }

    /// Appends a [`Phase::JoinSchedule`].
    pub fn join_schedule(self, until_min: u64, events: Vec<JoinEvent>) -> ScenarioBuilder {
        self.phase(Phase::JoinSchedule { until_min, events })
    }

    /// Appends a [`Phase::Replicate`].
    pub fn replicate(self, index: IndexId, until_min: u64) -> ScenarioBuilder {
        self.phase(Phase::Replicate { index, until_min })
    }

    /// Appends a [`Phase::StartConstruction`].
    pub fn start_construction(self, index: IndexId) -> ScenarioBuilder {
        self.phase(Phase::StartConstruction { index })
    }

    /// Appends a [`Phase::RunUntil`].
    pub fn run_until(self, until_min: u64) -> ScenarioBuilder {
        self.phase(Phase::RunUntil { until_min })
    }

    /// Appends a [`Phase::ConstructUntilQuiescent`].
    pub fn construct_until_quiescent(self, check_every_min: u64, max_min: u64) -> ScenarioBuilder {
        self.phase(Phase::ConstructUntilQuiescent {
            check_every_min,
            max_min,
        })
    }

    /// Appends a [`Phase::QueryLoad`] issued by the whole population.
    pub fn query_load(self, index: IndexId, until_min: u64) -> ScenarioBuilder {
        self.phase(Phase::QueryLoad {
            index,
            until_min,
            issuers: 0,
        })
    }

    /// Appends a [`Phase::QueryLoad`] with an explicit issuer count.
    pub fn query_load_from(
        self,
        index: IndexId,
        until_min: u64,
        issuers: usize,
    ) -> ScenarioBuilder {
        self.phase(Phase::QueryLoad {
            index,
            until_min,
            issuers,
        })
    }

    /// Appends a [`Phase::RangeLoad`].
    pub fn range_load(
        self,
        index: IndexId,
        until_min: u64,
        issuers: usize,
        width: f64,
    ) -> ScenarioBuilder {
        self.phase(Phase::RangeLoad {
            index,
            until_min,
            issuers,
            width,
        })
    }

    /// Appends a [`Phase::Churn`].
    pub fn churn(
        self,
        until_min: u64,
        lead_ms: Millis,
        downtime_ms: (Millis, Millis),
        gap_ms: (Millis, Millis),
        queries: Option<QuerySpec>,
    ) -> ScenarioBuilder {
        self.phase(Phase::Churn {
            until_min,
            lead_ms,
            downtime_ms,
            gap_ms,
            queries,
        })
    }

    /// Appends a [`Phase::ChurnSchedule`].
    pub fn churn_schedule(
        self,
        until_min: u64,
        events: Vec<ChurnEvent>,
        queries: Option<QuerySpec>,
    ) -> ScenarioBuilder {
        self.phase(Phase::ChurnSchedule {
            until_min,
            events,
            queries,
        })
    }

    /// Appends a [`Phase::ShiftDistribution`].
    pub fn shift_distribution(
        self,
        index: IndexId,
        distribution: Distribution,
        keys_per_peer: usize,
    ) -> ScenarioBuilder {
        self.phase(Phase::ShiftDistribution {
            index,
            distribution,
            keys_per_peer,
        })
    }

    /// Appends a [`Phase::Partition`].
    pub fn partition(
        self,
        groups: Vec<Vec<usize>>,
        from_min: u64,
        until_min: u64,
    ) -> ScenarioBuilder {
        self.phase(Phase::Partition {
            groups,
            from_min,
            until_min,
        })
    }

    /// Appends a [`Phase::Snapshot`].
    pub fn snapshot(self, label: &str) -> ScenarioBuilder {
        self.phase(Phase::Snapshot {
            label: label.to_string(),
        })
    }

    /// Appends a [`Phase::Drain`].
    pub fn drain(self) -> ScenarioBuilder {
        self.phase(Phase::Drain)
    }

    /// Finishes the program.
    pub fn build(self) -> Scenario {
        Scenario {
            control_seed: self.control_seed,
            phases: self.phases,
        }
    }
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
            Phase::JoinWave { until_min, fanout: 6 } if until_min == timeline.join_end_min
        ));
        assert!(
            matches!(scenario.phases[2], Phase::StartConstruction { index } if index.is_primary())
        );
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

    #[test]
    fn builder_keeps_declaration_order() {
        let scenario = Scenario::builder(1)
            .snapshot("a")
            .run_until(5)
            .snapshot("b")
            .build();
        assert!(matches!(&scenario.phases[0], Phase::Snapshot { label } if label == "a"));
        assert!(matches!(
            scenario.phases[1],
            Phase::RunUntil { until_min: 5 }
        ));
        assert!(matches!(&scenario.phases[2], Phase::Snapshot { label } if label == "b"));
    }
}
