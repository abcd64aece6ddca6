//! # pgrid-reactor
//!
//! Poll-driven multiplexed transport: tens of thousands of P-Grid peers
//! per process on a handful of file descriptors.  It is the one socket
//! backend of the repository and the data plane of every `pgrid-cluster`
//! worker.
//!
//! A hand-rolled **epoll** (Linux) event loop — no external dependencies,
//! raw FFI against the C library `std` already links:
//!
//! * **one** listening socket serves *all* locally hosted peers; each wire
//!   record carries its destination peer id (see [`mux`]),
//! * **one** connection per remote process, shared by every peer pair
//!   crossing it, with a bounded per-link write queue, edge-triggered
//!   readiness, and partial-write resume,
//! * a fixed pool of `n_event_threads` event threads multiplexes every
//!   socket; a failed dial is retried with capped exponential backoff plus
//!   deterministic jitter.
//!
//! [`ReactorTransport`] implements `Transport` *and* `SocketTransport`, so
//! `net::Runtime<T>`, the scenario executor, and the cluster worker drive
//! it through the same traits as the loopback backend.  On non-Linux
//! platforms the type exists but refuses to start ([`supported`] returns
//! `false`); the `pgrid-cluster` worker refuses to start too, and such
//! builds keep the loopback transport and the simulator.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod mux;

#[cfg(target_os = "linux")]
mod event;
#[cfg(target_os = "linux")]
mod linux;
#[cfg(target_os = "linux")]
pub mod sys;

#[cfg(target_os = "linux")]
pub use linux::ReactorTransport;

#[cfg(not(target_os = "linux"))]
mod stub;
#[cfg(not(target_os = "linux"))]
pub use stub::ReactorTransport;

use std::time::Duration;

/// Whether this platform can run the reactor (epoll is Linux-only).
///
/// When this is `false`, callers that need real sockets (the cluster
/// worker) refuse to start with `ErrorKind::Unsupported`; there is no
/// second socket backend to fall back to.
pub fn supported() -> bool {
    cfg!(target_os = "linux")
}

/// Reactor tuning knobs.
#[derive(Copy, Clone, Debug)]
pub struct ReactorConfig {
    /// Event threads multiplexing all sockets; `0` means one per available
    /// core.
    pub n_event_threads: usize,
    /// Wire-side inbox bound in frames: event threads pause reading (TCP
    /// flow control pushes back on the remote) rather than buffer past it,
    /// so a slow shard surfaces as wire backpressure, not as unbounded
    /// memory growth in the receiving process.
    pub inbox_capacity: usize,
    /// Per-link write queue bound in bytes; a full queue makes `send` wait
    /// up to [`ReactorConfig::send_timeout`] before reporting failure.
    pub write_queue_bytes: usize,
    /// How long a send may wait for write-queue space before it errors
    /// (feeding the runtime's Suspect/Dead link life-cycle).
    pub send_timeout: Duration,
}

impl Default for ReactorConfig {
    fn default() -> ReactorConfig {
        ReactorConfig {
            n_event_threads: 0,
            inbox_capacity: 4096,
            write_queue_bytes: 8 << 20,
            send_timeout: Duration::from_secs(2),
        }
    }
}

/// Convenient re-exports of the most frequently used items.
pub mod prelude {
    pub use crate::{supported, ReactorConfig, ReactorTransport};
}
