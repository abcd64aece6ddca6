//! Non-Linux stand-in: the type exists so callers compile everywhere, but
//! every operation that would need epoll reports `Unsupported`.  Callers
//! check [`crate::supported`] and refuse to start (the cluster worker
//! returns `ErrorKind::Unsupported`); loopback and the simulator remain.

use crate::ReactorConfig;
use bytes::Bytes;
use pgrid_core::routing::PeerId;
use pgrid_transport::{
    Millis, PeerAddr, SocketTransport, Transport, TransportError, TransportStats,
};
use std::net::SocketAddr;

/// The poll-driven multiplexed transport (unavailable on this platform).
pub struct ReactorTransport;

impl Default for ReactorTransport {
    fn default() -> ReactorTransport {
        ReactorTransport::new()
    }
}

impl ReactorTransport {
    /// Creates the stub; any registration or send will fail.
    pub fn new() -> ReactorTransport {
        ReactorTransport
    }

    /// Creates the stub; the configuration is ignored.
    pub fn with_config(_config: ReactorConfig) -> ReactorTransport {
        ReactorTransport
    }

    /// Always `None` on this platform.
    pub fn listen_addr(&self) -> Option<SocketAddr> {
        None
    }
}

fn unsupported() -> TransportError {
    TransportError::Io(std::io::Error::new(
        std::io::ErrorKind::Unsupported,
        "the reactor transport requires Linux epoll",
    ))
}

impl Transport for ReactorTransport {
    fn register(&mut self, _peer: PeerId) -> Result<PeerAddr, TransportError> {
        Err(unsupported())
    }

    fn send(&mut self, _now: Millis, _to: PeerId, _frame: Bytes) -> Result<(), TransportError> {
        Err(unsupported())
    }

    fn poll(&mut self, _now: Millis) -> Vec<(PeerId, Bytes)> {
        Vec::new()
    }

    fn next_due(&self) -> Option<Millis> {
        None
    }

    fn is_realtime(&self) -> bool {
        true
    }

    fn in_flight(&self) -> usize {
        0
    }

    fn stats(&self) -> TransportStats {
        TransportStats::default()
    }

    fn addr_of(&self, _peer: PeerId) -> Option<PeerAddr> {
        None
    }
}

impl SocketTransport for ReactorTransport {
    fn register_remote(
        &mut self,
        _peer: PeerId,
        _addr: SocketAddr,
    ) -> Result<PeerAddr, TransportError> {
        Err(unsupported())
    }

    fn update_remote(&mut self, _peer: PeerId, _addr: SocketAddr) -> Result<(), TransportError> {
        Err(unsupported())
    }

    fn register_takeover(&mut self, _peer: PeerId) -> Result<PeerAddr, TransportError> {
        Err(unsupported())
    }
}
