//! # pgrid-scenario
//!
//! Composable experiment API of the P-Grid reproduction.
//!
//! The paper's evaluation (Sections 4–5) is *one* apparatus exercised under
//! many regimes — construction, replication, churn, query load.  This crate
//! drives the message-level runtime ([`pgrid_net::runtime::Runtime`], over
//! any transport) through it with three pieces:
//!
//! * the declarative [`Scenario`] ([`scenario`]) — an ordered program of
//!   phases ([`Phase`]: join waves, replication, construction, churn
//!   windows, query load, distribution shifts, partitions, snapshots) whose
//!   event schedules derive deterministically from a seed;
//! * one executor ([`exec::run`]) that calls the `Runtime` directly and
//!   produces a unified [`ScenarioReport`];
//! * labelled measurements ([`OverlaySnapshot`], [`snapshot`]) of the
//!   overlay's quality and query statistics.
//!
//! The paper's experiments are thin adapters on top: the Section-5
//! [`pgrid_net::experiment::Timeline`] is a canned scenario
//! ([`Scenario::from_timeline`], run by [`deployment`]), and the
//! `pgrid-cluster` worker runs its shard through [`exec::run_hosted`]: its
//! [`RuntimeHost`] paces virtual time against the wire and parks at the
//! coordinator's barriers between phases.  The round-based whole-system
//! simulator (`pgrid-sim`, Figure 6) has its own driver and sweeps and does
//! not go through this crate.
//!
//! ```
//! use pgrid_scenario::prelude::*;
//! use pgrid_net::runtime::{NetConfig, Runtime};
//!
//! let config = NetConfig { n_peers: 16, seed: 9, ..NetConfig::default() };
//! let scenario = Scenario::builder(config.seed)
//!     .join_wave(2, 4)
//!     .replicate(IndexId::PRIMARY, 3)
//!     .start_construction(IndexId::PRIMARY)
//!     .run_until(8)
//!     .query_load(IndexId::PRIMARY, 10)
//!     .drain()
//!     .build();
//! let mut overlay = Runtime::new(config);
//! let report = pgrid_scenario::exec::run(&mut overlay, &scenario);
//! assert!(report.end_min >= 10);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod deployment;
pub mod exec;
pub mod scenario;
pub mod snapshot;

pub use exec::{run, run_hosted, RuntimeHost, ScenarioReport};
pub use scenario::{
    ChurnEvent, JoinEvent, Phase, QuerySpec, Scenario, ScenarioBuilder, RANGE_LOAD_WIDTH,
};
pub use snapshot::{IndexSnapshot, OverlaySnapshot};

/// Convenient re-exports of the most frequently used items.
pub mod prelude {
    pub use crate::deployment::{run_deployment, run_deployment_with};
    pub use crate::exec::{run, ScenarioReport};
    pub use crate::scenario::{
        ChurnEvent, JoinEvent, Phase, QuerySpec, Scenario, ScenarioBuilder, RANGE_LOAD_WIDTH,
    };
    pub use crate::snapshot::{IndexSnapshot, OverlaySnapshot};
    pub use pgrid_core::index::IndexId;
}
