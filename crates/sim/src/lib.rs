//! # pgrid-sim
//!
//! Whole-system simulator of the decentralized P-Grid construction process
//! of *"Indexing data-oriented overlay networks"* (VLDB 2005).
//!
//! The simulator drives [`pgrid_core`] peer states through the paper's
//! construction protocol — unstructured-overlay bootstrap, replication
//! phase, recursive adaptive-eager partitioning with split/replicate/refer
//! interactions, and back-off based termination — and measures the
//! quantities reported in the paper's Figure 6: load-balance deviation from
//! the optimal (reference) partitioning, interactions per peer and data keys
//! moved per peer.
//!
//! Construction rounds execute as conflict-free interaction batches across
//! worker threads ([`config::SimConfig::n_threads`]); per-peer
//! counter-derived RNG streams make the result bit-identical for every
//! thread count.  A sequential-join baseline constructor serves the
//! complexity comparison of Section 4.3; query evaluation reproduces the
//! search statistics of Section 5.2 with the deployment's routing step
//! (`pgrid_core::route`).
//!
//! [`construction::construct`] is the simulator's one driver: the Figure-6
//! rows of [`runner::run_repeated`], the examples and the benchmark harness
//! all run [`construction::SimNetwork`]'s round loop through it or directly,
//! never through the scenario executor of `pgrid-scenario` (which drives the
//! message-level engines only).
//!
//! ```
//! use pgrid_sim::prelude::*;
//!
//! let overlay = construct(&SimConfig { n_peers: 64, seed: 1, ..SimConfig::default() });
//! assert!(overlay.max_depth() >= 1);
//! assert!(overlay.metrics.interactions > 0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod construction;
pub mod metrics;
mod parallel;
pub mod query;
pub mod runner;
mod schedule;
pub mod sequential;
pub mod unstructured;

/// Convenient re-exports of the most frequently used items.
pub mod prelude {
    pub use crate::config::{ConstructionStrategy, SimConfig};
    pub use crate::construction::{construct, ConstructedOverlay, SimNetwork};
    pub use crate::metrics::{ConstructionMetrics, MetricsDelta};
    pub use crate::query::{data_availability, run_queries, QueryStats};
    pub use crate::runner::{run_repeated, ConstructionResult};
    pub use crate::sequential::{construct_sequentially, SequentialOutcome};
    pub use crate::unstructured::UnstructuredOverlay;
}
