//! # pgrid-net
//!
//! Message-level deployment runtime for the reproduction of *"Indexing
//! data-oriented overlay networks"* (VLDB 2005).
//!
//! Whereas `pgrid-sim` drives peer state directly (for fast, large
//! parameter sweeps), this crate makes peers communicate exclusively through
//! an encoded wire protocol carried by a pluggable [`pgrid_transport`]
//! backend: the deterministic loopback transport emulates the wide-area
//! network (latency, jitter, frame loss) as a substitute for the paper's
//! PlanetLab deployment, while the socket backend (`pgrid-reactor`) runs the
//! same protocol over real sockets.  The [`experiment`] module defines the timeline of
//! Section 5 (join → replicate → construct → query → churn) and computes the
//! time series behind Figures 7, 8 and 9 plus the summary statistics of
//! Section 5.2 from a finished run.
//!
//! ```
//! use pgrid_net::prelude::*;
//!
//! let mut runtime = Runtime::new(NetConfig { n_peers: 16, ..NetConfig::default() });
//! for peer in 0..16 {
//!     runtime.join_peer(peer, 4);
//! }
//! assert_eq!(runtime.online_count(), 16);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiment;
pub mod message;
pub mod runtime;

/// Convenient re-exports of the most frequently used items.
///
/// The deployment drivers (`run_deployment`, `run_deployment_with`) live in
/// `pgrid_scenario::deployment` and are re-exported by its prelude.
pub mod prelude {
    pub use crate::experiment::{
        assemble_report, DeploymentReport, MinuteSample, ReportInputs, Timeline,
    };
    pub use crate::message::{ExchangeOutcome, Message};
    pub use crate::runtime::{BandwidthSample, NetConfig, NetMetrics, QueryRecord, Runtime};
}
