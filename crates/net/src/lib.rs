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
//! same protocol over real sockets.  The Section-5 experiment that drives it
//! (its timeline, schedules and report) lives in `pgrid_scenario::deployment`.
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

pub mod message;
pub mod runtime;

/// Convenient re-exports of the most frequently used items.
pub mod prelude {
    pub use crate::message::{ExchangeOutcome, Message};
    pub use crate::runtime::{BandwidthSample, NetConfig, NetMetrics, QueryRecord, Runtime};
}
