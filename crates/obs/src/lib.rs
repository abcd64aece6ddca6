//! # pgrid-obs
//!
//! The observability layer of the P-Grid reproduction.  Zero external
//! dependencies (only `pgrid-core` for the log-scale histogram); every
//! other crate in the workspace can thread it through without pulling in
//! a metrics framework.
//!
//! Four pillars:
//!
//! * [`registry::MetricsRegistry`] — counters, gauges and
//!   `LogHistogram`-backed histograms with label sets, one validated
//!   Prometheus text encoder, and a compact wire codec so sharded worker
//!   processes can stream registry snapshots to the coordinator for a
//!   merged cluster-wide view.
//! * [`mod@trace`] — cheap structured `TraceEvent` records (virtual-time plus
//!   wall-time stamps) on the hot paths, keyed by a per-query trace ID
//!   that the message envelope propagates across process boundaries.
//!   Tracing is **off by default**: a disabled [`trace::Tracer`] records
//!   nothing, builds no strings, and call sites add zero wire bytes.
//! * [`recorder::FlightRecorder`] — a bounded ring of recent coarse
//!   events, dumped as JSONL on panic, query/range timeout, or
//!   coordinator-observed worker failure.
//! * [`scrape`] — a tiny hand-rolled HTTP/1.1 responder serving
//!   `/metrics` (Prometheus text) and `/trace?id=` (JSON) from a shared
//!   [`scrape::ScrapeState`] that the runtime republishes into.
//!
//! Plus a leveled [`log`]ger (`PGRID_LOG=level[,target=level]` filter)
//! replacing the ad-hoc `eprintln!` progress lines of the cluster binary.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
// Scrape requests and registry snapshots are bytes from outside the process.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing,
        clippy::arithmetic_side_effects
    )
)]

pub mod json;
pub mod log;
pub mod recorder;
pub mod registry;
pub mod scrape;
pub mod trace;

/// Convenient re-exports of the most frequently used items.
pub mod prelude {
    pub use crate::log::Level;
    pub use crate::recorder::FlightRecorder;
    pub use crate::registry::{MetricKind, MetricsRegistry};
    pub use crate::scrape::{ScrapeServer, ScrapeState};
    pub use crate::trace::{TraceEvent, Tracer};
}
