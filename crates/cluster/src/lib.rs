//! # pgrid-cluster
//!
//! Multi-process deployment runtime of the P-Grid reproduction.
//!
//! The paper's Section-5 deployment runs peers that only interact through
//! messages; `pgrid-net` reproduces that inside one process, and this crate
//! stretches the very same protocol code across real OS processes:
//!
//! * a **coordinator** ([`coordinator`]) accepts worker connections on one
//!   socket, assigns each a contiguous shard of the peer population, relays
//!   the merged address book, releases the phase barriers, detects worker
//!   death (EOF or heartbeat silence) and heals it, and folds the workers'
//!   streamed samples and final shard reports into one
//!   [`pgrid_scenario::deployment::DeploymentReport`];
//! * a **worker** ([`worker`]) hosts its shard on the epoll reactor
//!   (`pgrid_reactor::ReactorTransport`), wires every foreign peer as a
//!   transport remote, and drives the join → replicate → construct → query
//!   → churn timeline over the shard, whose join and churn plans every
//!   process derives from the shared seed, journaling it when given a data
//!   directory;
//! * the **control protocol** ([`proto`]) frames [`proto::ClusterMsg`]s with
//!   the data plane's length-prefixed framing;
//! * **local mode** ([`local`]) self-spawns N worker child processes for
//!   tests, CI and quick demos (`pgrid-cluster local --workers 2`).
//!
//! ## The two message orders
//!
//! A control connection carries one of two sequences.  Routine traffic
//! (`Minutes`, `TraceBatch`, `MetricsSnapshot`, `Heartbeat`, `ShardPaths`)
//! may precede any worker → coordinator message and is absorbed where it
//! arrives.
//!
//! ```text
//! fresh start                      warm rejoin (relaunched over its log)
//! worker          coordinator      worker          coordinator
//!   | <--- Welcome ---- |            | ---- Rejoin ----> |  the rejoiner speaks first
//!   | ---- Hello -----> |            | <--- Welcome ---- |  during a healing round
//!   | <- AddressBook -- |            | ---- Hello -----> |
//!   | - PhaseDone(p) -> |  p = 0..=5 | <- AddressBook -- |  and to every live worker
//!   | <- Proceed(p) --- |            | <-- Resume(p) --- |  the barrier everyone is parked at
//!   | ---- Report ----> |            | - RecoveryDone -> |  log replayed
//!                                    | <- Proceed(p) --- |  no second PhaseDone(p)
//!                                    |  then PhaseDone / Proceed for p+1..=5, Report
//! ```
//!
//! The `Hello` names the worker's one listen address; the coordinator
//! expands it into the per-peer `AddressBook`.  A worker parked between
//! `PhaseDone(p)` and `Proceed(p)` also serves the healing round of a
//! worker that died and did not rejoin: `ShardReassign` opens a new epoch,
//! and each worker takes the orphans moved to it in behind its listener.
//! The fresh `AddressBook` right behind it points every worker there and
//! starts the rebuilds: an adopter rebuilds its peers from live P-Grid
//! replicas — the paper's own replication doubling as the recovery
//! mechanism — and acknowledges with `RecoveryDone`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod coordinator;
pub mod local;
pub mod proto;
pub mod worker;

/// Convenient re-exports of the most frequently used items.
pub mod prelude {
    pub use crate::coordinator::{
        run_coordinator_observed, ClusterConfig, HealConfig, KillPlan, ObsOptions, ObsReport,
        WorkerFailure,
    };
    pub use crate::local::{run_local_observed, LocalOptions};
    pub use crate::proto::{ClusterMsg, ControlChannel, ReassignMove, ShardReport};
    pub use crate::worker::{run_worker, ShardOverlay, WorkerOptions};
}
