//! Allocation counter for the runtime's frames on the loopback.
//!
//! A frame is laid out in the runtime's reused frame buffer, lent to the
//! transport as a slice, copied into the calendar bucket of the
//! millisecond it is due in, and handed back as bytes in the runtime's
//! reused inbox: no step allocates a block of its own per frame.  This
//! binary counts every allocation of the process with a counting global
//! allocator while a constructed 256-peer overlay runs maintenance only,
//! then lookup batches, then range queries.  It checks the first two
//! against their bounds and that the counts repeat exactly.  A block per
//! frame would read about 1 per maintenance frame and 6.4 per lookup (4.4
//! frames each); what a lookup still allocates is its answer's entry
//! list, built at the responder and decoded at the origin.

use pgrid_core::index::IndexId;
use pgrid_core::key::Key;
use pgrid_net::runtime::{NetConfig, Runtime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts allocations, growing and shrinking reallocations included.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const PRIMARY: IndexId = IndexId::PRIMARY;

/// Peers of the overlay.
const PEERS: usize = 256;

/// Virtual length of the maintenance-only window.
const MAINTENANCE_MS: u64 = 10 * 60_000;

/// Lookups issued together, and the batches of a window.
const BATCH: usize = 64;
const BATCHES: usize = 8;

/// Range queries of a window, each over 2 % of the key space.
const RANGES: usize = 32;

/// Virtual drain after each batch: every lookup and range resolves.
const DRAIN_MS: u64 = 5_000;

/// Blocks allocated in one window, and what the window did.
#[derive(Debug, PartialEq, Eq)]
struct Window {
    blocks: u64,
    frames: u64,
    ops: u64,
}

impl Window {
    fn per_frame(&self) -> f64 {
        self.blocks as f64 / self.frames as f64
    }

    fn per_op(&self) -> f64 {
        self.blocks as f64 / self.ops as f64
    }
}

/// Runs `work` on `rt` and counts the blocks it allocated and the frames
/// it sent; `ops` is what it reports it did.
fn window(rt: &mut Runtime, work: impl FnOnce(&mut Runtime) -> u64) -> Window {
    let frames = rt.transport_stats().frames_sent;
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let ops = work(rt);
    let blocks = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let frames = rt.transport_stats().frames_sent - frames;
    Window {
        blocks,
        frames,
        ops,
    }
}

fn lookups(rt: &mut Runtime, keys: &[Key]) -> u64 {
    for batch in keys.chunks(BATCH).take(BATCHES) {
        rt.issue_query_batch_on(PRIMARY, batch);
        rt.run_until(rt.now() + DRAIN_MS);
    }
    (BATCH * BATCHES) as u64
}

fn ranges(rt: &mut Runtime, keys: &[Key]) -> u64 {
    let span = u64::MAX / 50;
    for key in keys.iter().take(RANGES) {
        let lo = Key(key.0.min(u64::MAX - span));
        rt.issue_range_query_on(PRIMARY, lo, Key(lo.0 + span));
        rt.run_until(rt.now() + DRAIN_MS);
    }
    RANGES as u64
}

/// A constructed overlay, then a maintenance window, lookup batches and
/// range queries; each measured after a first window of its kind has
/// brought the buffers it uses to their working size.
fn run() -> [Window; 3] {
    let mut rt = Runtime::new(NetConfig {
        n_peers: PEERS,
        keys_per_peer: 10,
        n_min: 5,
        loss_probability: 0.0,
        route_cache: false,
        seed: 7,
        ..NetConfig::default()
    });
    for peer in 0..PEERS {
        rt.join_peer(peer, 4);
    }
    rt.replication_phase();
    rt.start_construction();
    while !rt.construction_quiescent() {
        rt.run_until(rt.now() + 10_000);
    }
    let keys: Vec<Key> = rt
        .original_entries_of(PRIMARY)
        .iter()
        .map(|entry| entry.key)
        .collect();
    let idle = |rt: &mut Runtime| {
        rt.run_until(rt.now() + MAINTENANCE_MS);
        0
    };
    window(&mut rt, idle);
    let maintenance = window(&mut rt, idle);
    window(&mut rt, |rt| lookups(rt, &keys));
    let lookup = window(&mut rt, |rt| lookups(rt, &keys[BATCH * BATCHES..]));
    window(&mut rt, |rt| ranges(rt, &keys));
    let range = window(&mut rt, |rt| ranges(rt, &keys[RANGES..]));
    let stats = rt.metrics.stats(PRIMARY);
    assert_eq!(stats.answered, stats.issued, "every lookup resolved");
    [maintenance, lookup, range]
}

#[test]
fn a_frame_costs_no_block_of_its_own() {
    let [maintenance, lookup, range] = run();
    println!(
        "maintenance {:.3} blocks/frame ({} frames), lookup {:.2} blocks/op \
         ({:.2} frames/op), range {:.2} blocks/op ({:.2} frames/op)",
        maintenance.per_frame(),
        maintenance.frames,
        lookup.per_op(),
        lookup.frames as f64 / lookup.ops as f64,
        range.per_op(),
        range.frames as f64 / range.ops as f64,
    );
    assert!(maintenance.frames > 500, "{maintenance:?}");
    assert!(
        maintenance.per_frame() < 0.05,
        "{maintenance:?}: maintenance frames allocate again"
    );
    assert!(
        lookup.per_op() <= 2.5,
        "{lookup:?}: a lookup's frames allocate again"
    );
    assert_eq!(run(), [maintenance, lookup, range], "the counts repeat");
}
