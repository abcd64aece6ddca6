//! `TracedTransport`: the transport handed to `Runtime::with_transport` in
//! the traced run.  It forwards every call to the real backend, folds the
//! time of `send` and `poll` into child spans of whatever `run_until` span
//! is open (so `net` self time = span − children), and keeps a bounded
//! sample of the frames that crossed it for the codec replay probes.

use crate::span::Tracer;
use bytes::Bytes;
use pgrid_core::routing::PeerId;
use pgrid_transport::{LinkFault, Millis, PeerAddr, Transport, TransportError, TransportStats};
use std::rc::Rc;

/// Frames kept for replay, at most.
const SAMPLE_CAP: usize = 64 << 10;
/// One frame in this many is kept, so the sample spans the window instead
/// of its first seconds.
const SAMPLE_STRIDE: u64 = 16;

pub struct TracedTransport<T: Transport> {
    inner: T,
    tracer: Rc<Tracer>,
    /// The sampled frames back to back, and where each one ends.  Copies
    /// in one buffer rather than clones of the `Bytes`: a kept clone pins
    /// its allocation, and tens of thousands of pinned blocks scattered
    /// through the heap slowed the traced lookup window by 8 %.
    sampled_bytes: Vec<u8>,
    sampled_ends: Vec<usize>,
    seen: u64,
}

impl<T: Transport> TracedTransport<T> {
    pub fn new(inner: T, tracer: Rc<Tracer>) -> TracedTransport<T> {
        TracedTransport {
            inner,
            tracer,
            sampled_bytes: Vec::new(),
            sampled_ends: Vec::new(),
            seen: 0,
        }
    }

    /// Drops the frames sampled so far (set-up traffic) so the sample
    /// covers the timed window only.
    pub fn clear_sample(&mut self) {
        self.sampled_bytes.clear();
        self.sampled_ends.clear();
        self.seen = 0;
    }

    /// The sampled frames, oldest first.
    pub fn take_sample(&mut self) -> Vec<Bytes> {
        let bytes = std::mem::take(&mut self.sampled_bytes);
        let mut start = 0;
        std::mem::take(&mut self.sampled_ends)
            .into_iter()
            .map(|end| {
                let frame = Bytes::from(&bytes[start..end]);
                start = end;
                frame
            })
            .collect()
    }

    fn sample(&mut self, frame: &Bytes) {
        if self.seen % SAMPLE_STRIDE == 0 && self.sampled_ends.len() < SAMPLE_CAP {
            self.sampled_bytes.extend_from_slice(frame.as_slice());
            self.sampled_ends.push(self.sampled_bytes.len());
        }
        self.seen += 1;
    }
}

impl<T: Transport> Transport for TracedTransport<T> {
    fn register(&mut self, peer: PeerId) -> Result<PeerAddr, TransportError> {
        self.inner.register(peer)
    }

    fn send(&mut self, now: Millis, to: PeerId, frame: Bytes) -> Result<(), TransportError> {
        self.sample(&frame);
        let inner = &mut self.inner;
        self.tracer
            .fold("transport.send", || inner.send(now, to, frame))
    }

    fn send_from(
        &mut self,
        now: Millis,
        from: PeerId,
        to: PeerId,
        frame: Bytes,
    ) -> Result<(), TransportError> {
        self.sample(&frame);
        let inner = &mut self.inner;
        self.tracer
            .fold("transport.send", || inner.send_from(now, from, to, frame))
    }

    fn inject_fault(&mut self, fault: LinkFault) -> bool {
        self.inner.inject_fault(fault)
    }

    fn poll(&mut self, now: Millis) -> Vec<(PeerId, Bytes)> {
        let inner = &mut self.inner;
        self.tracer.fold("transport.poll", || inner.poll(now))
    }

    fn next_due(&self) -> Option<Millis> {
        self.inner.next_due()
    }

    fn is_realtime(&self) -> bool {
        self.inner.is_realtime()
    }

    fn in_flight(&self) -> usize {
        self.inner.in_flight()
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }

    fn addr_of(&self, peer: PeerId) -> Option<PeerAddr> {
        self.inner.addr_of(peer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span;
    use pgrid_transport::loopback::LoopbackTransport;

    #[test]
    fn send_and_poll_become_folded_children_of_the_open_span() {
        let tracer = Rc::new(Tracer::enabled());
        let mut transport = TracedTransport::new(LoopbackTransport::instant(), tracer.clone());
        transport.register(PeerId(0)).unwrap();
        transport.register(PeerId(1)).unwrap();
        let delivered = tracer.span("net.drain", || {
            for i in 0..40u8 {
                transport
                    .send(0, PeerId(1), Bytes::from(vec![i; 8]))
                    .unwrap();
            }
            transport.poll(u64::MAX).len()
        });
        assert_eq!(delivered, 40);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(span::calls(&spans, "transport.send"), 40);
        assert_eq!(span::calls(&spans, "transport.poll"), 1);
        assert!(spans[1..].iter().all(|s| s.parent == spans[0].id));
        // Every sixteenth frame is kept for the replay probes.
        let sample = transport.take_sample();
        assert_eq!(sample.len(), 3);
        assert_eq!(sample[1].as_slice(), &[16u8; 8]);
        assert_eq!(transport.stats().frames_sent, 40);
    }
}
