//! The loopback calendar gives back what a large frame or a burst grew it
//! to.  An emptied bucket keeps at most `Frames::RETAIN_BYTES` of its
//! byte buffer, so once everything has been delivered the calendar holds
//! at most its ring's bucket count times that, however large a frame or a
//! burst was.  This binary counts the process's live heap bytes with a
//! counting global allocator around one 4 MiB frame and two 100 000-frame
//! bursts, delivered through a reused `Frames` inbox: as the runtime polls
//! (one millisecond's bucket at a time, each swapped into the emptied
//! inbox), and in one poll at the end of time (the first bucket swapped,
//! every later one copied behind it).

use pgrid_core::routing::PeerId;
use pgrid_transport::loopback::{LoopbackConfig, LoopbackTransport};
use pgrid_transport::{Frames, Transport};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

/// Counts the live heap bytes of the whole process.
struct Counting;

static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
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

fn live() -> i64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// Polls whenever a frame falls due until nothing is in flight, the way
/// the runtime's event loop does, or once at the end of time; returns the
/// frames and bytes delivered.
fn deliver_all(t: &mut LoopbackTransport, inbox: &mut Frames, at_once: bool) -> (usize, usize) {
    let (mut frames, mut bytes) = (0, 0);
    while let Some(due) = t.next_due() {
        t.poll_frames(if at_once { u64::MAX } else { due }, inbox);
        frames += inbox.len();
        bytes += inbox.byte_len();
        inbox.recycle();
    }
    (frames, bytes)
}

#[test]
fn a_large_frame_and_a_burst_leave_only_the_retained_bucket_bytes() {
    let config = LoopbackConfig::default();
    // The ring covers two latencies: the power of two above 2 × 250 ms.
    let slots = (2 * config.latency_max_ms as usize + 1).next_power_of_two();
    let bound = (slots * Frames::RETAIN_BYTES) as i64;

    let mut t = LoopbackTransport::new(config);
    let (a, b) = (PeerId(0), PeerId(1));
    t.register(a).unwrap();
    t.register(b).unwrap();
    let mut inbox = Frames::default();
    let base = live();

    let large = vec![7u8; 4 << 20];
    t.send_slice(0, a, b, &large).unwrap();
    drop(large);
    assert_eq!(deliver_all(&mut t, &mut inbox, false), (1, 4 << 20));
    let after_large = live() - base;
    assert!(
        after_large <= bound,
        "{after_large} bytes kept after a 4 MiB frame (bound {bound})"
    );

    for at_once in [false, true] {
        let frame = [3u8; 40];
        let now = t.next_due().unwrap_or(1_000);
        for i in 0..100_000u64 {
            t.send_slice(now, PeerId(i % 2), PeerId(1 - i % 2), &frame)
                .unwrap();
        }
        assert!(
            live() - base > 4_000_000,
            "the burst is held while in flight"
        );
        let delivered = deliver_all(&mut t, &mut inbox, at_once);
        assert_eq!(delivered, (100_000, 4_000_000));
        let after_burst = live() - base;
        assert!(
            after_burst <= bound,
            "{after_burst} bytes kept after a 100 000-frame burst delivered \
             {} (bound {bound})",
            if at_once {
                "in one poll"
            } else {
                "bucket by bucket"
            }
        );
    }
    assert_eq!(t.in_flight(), 0);
}
