//! Pins the Section-5 schedules every process derives from the seed.
//!
//! The cluster's join and churn plans and the two phase programs built from
//! a `Timeline` (the single-process `Scenario::from_timeline` and the
//! per-shard `worker_scenario`) are reproduced independently by every
//! process, so a refactor that moves one draw or one bound splits the
//! cluster silently.  This file folds every event's fields and every
//! phase's kind, bound minutes and parameters into FNV-1a digests and
//! compares them with constants recorded once, in the style of
//! `tests/construction_pin.rs`.

use pgrid_net::runtime::NetConfig;
use pgrid_scenario::deployment::{churn_plan, join_plan, worker_scenario, Timeline};
use pgrid_scenario::{ChurnEvent, JoinEvent, Phase, Scenario};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(hash: &mut u64, value: u64) {
    for byte in value.to_le_bytes() {
        *hash = (*hash ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
    }
}

fn fnv_joins(hash: &mut u64, events: &[JoinEvent]) {
    fnv(hash, events.len() as u64);
    for event in events {
        fnv(hash, event.at);
        fnv(hash, event.peer as u64);
        fnv(hash, event.neighbours.len() as u64);
        for neighbour in &event.neighbours {
            fnv(hash, neighbour.0);
        }
    }
}

fn fnv_churn(hash: &mut u64, events: &[ChurnEvent]) {
    fnv(hash, events.len() as u64);
    for event in events {
        fnv(hash, event.peer as u64);
        fnv(hash, event.at);
        fnv(hash, event.downtime);
    }
}

fn fnv_issuers(hash: &mut u64, issuers: Option<usize>) {
    fnv(hash, issuers.map_or(u64::MAX, |n| n as u64));
}

/// Kind tag, bound minutes and parameters of one phase.
fn fnv_phase(hash: &mut u64, phase: &Phase) {
    match phase {
        Phase::JoinWave { until_min, fanout } => {
            fnv(hash, 1);
            fnv(hash, *until_min);
            fnv(hash, *fanout as u64);
        }
        Phase::JoinSchedule { until_min, events } => {
            fnv(hash, 2);
            fnv(hash, *until_min);
            fnv_joins(hash, events);
        }
        Phase::Replicate { until_min } => {
            fnv(hash, 3);
            fnv(hash, *until_min);
        }
        Phase::StartConstruction => fnv(hash, 4),
        Phase::RunUntil { until_min } => {
            fnv(hash, 5);
            fnv(hash, *until_min);
        }
        Phase::QueryLoad { until_min, issuers } => {
            fnv(hash, 6);
            fnv(hash, *until_min);
            fnv(hash, *issuers as u64);
        }
        Phase::RangeLoad {
            until_min,
            issuers,
            width,
        } => {
            fnv(hash, 7);
            fnv(hash, *until_min);
            fnv(hash, *issuers as u64);
            fnv(hash, width.to_bits());
        }
        Phase::Churn {
            until_min,
            lead_ms,
            downtime_ms,
            gap_ms,
            queries,
        } => {
            fnv(hash, 8);
            fnv(hash, *until_min);
            fnv(hash, *lead_ms);
            fnv(hash, downtime_ms.0);
            fnv(hash, downtime_ms.1);
            fnv(hash, gap_ms.0);
            fnv(hash, gap_ms.1);
            fnv_issuers(hash, queries.map(|q| q.issuers));
        }
        Phase::ChurnSchedule {
            until_min,
            events,
            queries,
        } => {
            fnv(hash, 9);
            fnv(hash, *until_min);
            fnv_churn(hash, events);
            fnv_issuers(hash, queries.map(|q| q.issuers));
        }
        Phase::Drain => fnv(hash, 10),
        other => panic!("no Section-5 program has a {other:?} phase"),
    }
}

/// `(control seed, phase count, digest over every phase)`.
fn program(scenario: &Scenario) -> (u64, usize, u64) {
    let mut hash = FNV_OFFSET;
    for phase in &scenario.phases {
        fnv_phase(&mut hash, phase);
    }
    (scenario.control_seed, scenario.phases.len(), hash)
}

/// The `pgrid-cluster --smoke` timeline.
const SMOKE: Timeline = Timeline {
    join_end_min: 3,
    replicate_end_min: 5,
    construct_end_min: 18,
    range_end_min: 0,
    query_end_min: 22,
    end_min: 25,
};

/// The default timeline with a range window, so `RangeLoad` is pinned too.
fn with_ranges() -> Timeline {
    Timeline {
        range_end_min: 70,
        ..Timeline::default()
    }
}

fn config(n_peers: usize, seed: u64) -> NetConfig {
    NetConfig {
        n_peers,
        seed,
        ..NetConfig::default()
    }
}

/// `(join events, join digest, churn events, churn digest)`.
fn plans(config: &NetConfig, timeline: &Timeline) -> (usize, u64, usize, u64) {
    let joins = join_plan(config, timeline);
    let churn = churn_plan(config, timeline);
    let (mut join_digest, mut churn_digest) = (FNV_OFFSET, FNV_OFFSET);
    fnv_joins(&mut join_digest, &joins);
    fnv_churn(&mut churn_digest, &churn);
    (joins.len(), join_digest, churn.len(), churn_digest)
}

#[test]
fn the_join_and_churn_plans_match_the_recorded_constants() {
    assert_eq!(
        plans(&config(64, 12), &Timeline::default()),
        (
            64,
            11_355_083_287_368_519_685,
            140,
            11_528_356_862_985_506_001
        )
    );
    assert_eq!(
        plans(&config(32, 7), &SMOKE),
        (
            32,
            12_438_719_099_411_470_176,
            18,
            5_348_237_122_211_931_968
        )
    );
}

#[test]
fn the_single_process_programs_match_the_recorded_constants() {
    let programs: Vec<(u64, usize, u64)> =
        [(12, Timeline::default()), (7, SMOKE), (12, with_ranges())]
            .iter()
            .map(|(seed, timeline)| program(&Scenario::from_timeline(*seed, timeline)))
            .collect();
    let expected = [
        (3359, 7, 17_366_925_720_714_168_642),
        (3348, 7, 14_837_917_967_777_225_116),
        (3359, 8, 16_475_001_364_282_210_651),
    ];
    assert_eq!(programs, expected);
}

#[test]
fn the_worker_programs_match_the_recorded_constants() {
    let mut programs = Vec::new();
    for (config, timeline) in [
        (config(64, 12), Timeline::default()),
        (config(32, 7), SMOKE),
        (config(64, 12), with_ranges()),
    ] {
        // Two workers split the population evenly.
        let shard_len = config.n_peers / 2;
        for worker in 0..2 {
            programs.push(program(&worker_scenario(
                &config, &timeline, worker, shard_len,
            )));
        }
    }
    let expected = [
        (3359, 7, 4_768_384_912_430_248_609),
        (4_294_970_655, 7, 4_768_384_912_430_248_609),
        (3348, 7, 14_049_972_662_333_280_439),
        (4_294_970_644, 7, 14_049_972_662_333_280_439),
        (3359, 8, 1_008_281_645_548_091_692),
        (4_294_970_655, 8, 1_008_281_645_548_091_692),
    ];
    assert_eq!(programs, expected);
}
