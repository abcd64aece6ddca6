//! Allocation guard for the reactor's two thread crossings.
//!
//! A sent frame is encoded into its link's byte write queue on the
//! caller's thread, and an event thread swaps the whole queue out for its
//! drained buffer; a received record is copied into the byte inbox, and
//! `poll` copies the inbox once into the block its frames view.  So a
//! frame costs no allocation of its own on either side: a run pays one
//! block per non-empty poll plus a constant.  This binary counts every
//! allocation of the process with a counting global allocator while one
//! reactor sends to peers another one hosts, and checks that the buffers
//! a large frame grew are given back.
//!
//! Everything here is Linux-only (epoll); the suite is a no-op elsewhere.

#![cfg(target_os = "linux")]

use bytes::Bytes;
use pgrid_core::routing::PeerId;
use pgrid_reactor::{ReactorConfig, ReactorTransport};
use pgrid_transport::frame::encode_frame;
use pgrid_transport::{PeerAddr, SocketTransport, Transport};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Counts allocations (growing and shrinking reallocations included) and
/// the live heap bytes of the whole process.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The counters are process-wide: one test at a time.
static SERIAL: Mutex<()> = Mutex::new(());

/// Peers the host reactor hosts.
const PEERS: u64 = 16;

/// Frames sent before each poll loop.
const BURST: usize = 256;

/// Frames of the measured run.
const FRAMES: usize = 4096;

/// A host reactor and a sender that knows every hosted peer by address,
/// one event thread each.
fn pair() -> (ReactorTransport, ReactorTransport) {
    let config = ReactorConfig {
        n_event_threads: 1,
        ..ReactorConfig::default()
    };
    let (mut host, mut sender) = (
        ReactorTransport::with_config(config),
        ReactorTransport::with_config(config),
    );
    for peer in 0..PEERS {
        let PeerAddr::Socket(addr) = host.register(PeerId(peer)).unwrap() else {
            panic!("the reactor registers socket addresses");
        };
        sender.register_remote(PeerId(peer), addr).unwrap();
    }
    (host, sender)
}

/// Sends `count` clones of `frame` round-robin to the hosted peers and
/// polls them all out of `host` into `out`, dropping each poll's frames.
/// Allocates nothing of its own once `out` holds `count` frames.
fn burst(
    sender: &mut ReactorTransport,
    host: &mut ReactorTransport,
    frame: &Bytes,
    count: usize,
    out: &mut Vec<(PeerId, Bytes)>,
) {
    for i in 0..count {
        sender
            .send(0, PeerId(i as u64 % PEERS), frame.clone())
            .unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut arrived = 0;
    while arrived < count {
        host.poll_into(0, out);
        if out.is_empty() {
            assert!(Instant::now() < deadline, "frames never arrived");
            std::thread::sleep(Duration::from_micros(100));
        }
        arrived += out.len();
        out.clear();
    }
    assert_eq!(arrived, count);
}

/// A warmed-up pair, the frame its bursts send, and a poll buffer that
/// holds a whole burst.
fn warm_pair() -> (
    ReactorTransport,
    ReactorTransport,
    Bytes,
    Vec<(PeerId, Bytes)>,
) {
    let (mut host, mut sender) = pair();
    let frame = encode_frame(&[Bytes::from(vec![0xC3; 190])]);
    let mut out = Vec::with_capacity(BURST);
    for _ in 0..8 {
        burst(&mut sender, &mut host, &frame, BURST, &mut out);
    }
    (host, sender, frame, out)
}

#[test]
fn a_frame_costs_no_allocation_on_either_side() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (mut host, mut sender, frame, mut out) = warm_pair();
    let delivered_before = host.stats().frames_delivered;
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..FRAMES / BURST {
        burst(&mut sender, &mut host, &frame, BURST, &mut out);
    }
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let delivered = host.stats().frames_delivered - delivered_before;
    assert_eq!(delivered, FRAMES as u64);
    let per_frame = allocations as f64 / delivered as f64;
    assert!(
        per_frame < 0.25,
        "{allocations} allocations for {delivered} frames ({per_frame:.3} per frame)"
    );
}

#[test]
fn a_large_frame_leaves_no_grown_buffer_behind() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (mut host, mut sender, frame, mut out) = warm_pair();
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    let large = Bytes::from(vec![0x5A; 4 << 20]);
    burst(&mut sender, &mut host, &large, 1, &mut out);
    drop(large);
    // One more ordinary burst cycles every buffer the large frame passed.
    burst(&mut sender, &mut host, &frame, BURST, &mut out);
    let grown = LIVE_BYTES.load(Ordering::Relaxed) - before;
    assert!(
        grown.abs() <= 256 << 10,
        "live heap moved by {grown} bytes across one 4 MiB frame"
    );
}
