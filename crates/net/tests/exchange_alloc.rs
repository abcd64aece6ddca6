//! Allocation guard for the maintenance exchange.
//!
//! A backed-off peer keeps opening exchanges with random contacts, and
//! almost every one of them is answered with a referral.  The request is
//! an `Offer` — the peer's path and the count and digest of its entries
//! there — so a referred exchange never puts an entry on the wire: its
//! request and its reply are a few dozen bytes each, and neither side
//! allocates a block as large as the peer's entry list.  This binary
//! counts the blocks of a quiescent 64-peer loopback overlay with a
//! counting global allocator, and fails if one comes back on either side.
//!
//! When the overlay holds two replicas per partition, some exchanges meet
//! a replica with the same entries, which decides on its own copy of them.
//! Neither side walks its entries again for that: a peer keeps the summary
//! of its partition from one tick to the next while its path and its run
//! stay what they were (`NetMetrics::digested_entries` does not move).

use pgrid_core::index::IndexId;
use pgrid_core::key::{DataEntry, DataId, Key};
use pgrid_core::path::Path;
use pgrid_core::routing::PeerId;
use pgrid_core::wire::ENTRY_BYTES;
use pgrid_net::runtime::{NetConfig, Runtime};
use pgrid_transport::Transport;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Counts the allocations (and growing reallocations) of an entry-sized
/// block — at least [`THRESHOLD`] bytes and less than twice that — while
/// the threshold is non-zero.
struct Counting;

static THRESHOLD: AtomicUsize = AtomicUsize::new(0);
static ENTRY_SIZED: AtomicUsize = AtomicUsize::new(0);

fn note(size: usize) {
    let threshold = THRESHOLD.load(Ordering::Relaxed);
    if threshold != 0 && (threshold..2 * threshold).contains(&size) {
        ENTRY_SIZED.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            note(new_size);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Held by each test for its whole run: the counters are global, so the
/// tests take turns.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Peers of the overlay.
const PEERS: usize = 64;

/// Entries of every peer, all inside its own partition.
const ENTRIES: usize = 40;

/// Virtual length of the measured window: about a thousand backed-off
/// exchanges.
const WINDOW_MS: u64 = 20 * 60_000;

/// The path of leaf `leaf` of a complete trie `depth` bits deep.
fn leaf_path(leaf: usize, depth: usize) -> Path {
    (0..depth).fold(Path::root(), |path, level| {
        path.child(leaf >> (depth - 1 - level) & 1 == 1)
    })
}

/// A settled overlay: `replicas` peers on each leaf of a complete trie
/// over [`PEERS`] peers.  Each peer holds the [`ENTRIES`] entries of its
/// leaf — the same ones as the other replicas there, whom it knows — and
/// one routing reference per level, and its maintenance tick chain is
/// armed.  With one replica per leaf no two peers' partitions meet, and
/// every exchange is a referral.
fn settled_overlay(replicas: usize) -> Runtime {
    let depth = (PEERS / replicas).trailing_zeros() as usize;
    let mut rt = Runtime::new(NetConfig {
        n_peers: PEERS,
        keys_per_peer: ENTRIES,
        delta_max: Some(4 * ENTRIES),
        loss_probability: 0.0,
        seed: 40,
        ..NetConfig::default()
    });
    for peer in 0..PEERS {
        rt.join_peer(peer, 4);
    }
    for peer in 0..PEERS {
        let leaf = peer / replicas;
        let path = leaf_path(leaf, depth);
        let entries = (0..ENTRIES)
            .map(|j| {
                let key = Key(path.lower_key().0 + ((j as u64) << 40));
                DataEntry::new(key, DataId((leaf * ENTRIES + j) as u64))
            })
            .collect();
        let routing = (0..depth)
            .map(|level| {
                let other = leaf ^ (1 << (depth - 1 - level));
                let reference = PeerId((other * replicas) as u64);
                (level as u8, reference, leaf_path(other, depth))
            })
            .collect();
        let others = (leaf * replicas..(leaf + 1) * replicas)
            .filter(|&other| other != peer)
            .map(|other| PeerId(other as u64))
            .collect();
        rt.restore_peer(peer, path, entries, routing, others, true);
    }
    rt
}

#[test]
fn a_referred_exchange_allocates_only_its_frame() {
    let _serial = serial();
    let mut rt = settled_overlay(1);
    // Every peer backs off after four fruitless exchanges; the first
    // window also brings the event queue, the staging arena, the inbox
    // and the bandwidth buckets to their working size.
    rt.run_until(WINDOW_MS);
    assert!(rt.construction_quiescent(), "every peer backed off");

    let frames = rt.transport_stats().frames_sent;
    THRESHOLD.store(ENTRIES * ENTRY_BYTES, Ordering::Relaxed);
    rt.run_until(2 * WINDOW_MS);
    THRESHOLD.store(0, Ordering::Relaxed);
    let blocks = ENTRY_SIZED.load(Ordering::Relaxed);
    let frames = rt.transport_stats().frames_sent - frames;
    let in_flight = rt.transport_mut().in_flight();

    // A referred exchange is an offer frame and a reply frame.  Every
    // offer sent in the window was answered in it unless it was still in
    // flight at its end.
    let exchanges = (frames as usize + in_flight) / 2;
    assert!(exchanges > 500, "{exchanges} exchanges in the window");
    assert_eq!(
        blocks, 0,
        "{blocks} entry-sized blocks for {exchanges} referred exchanges: \
         the entry list is back on the wire or copied beside it"
    );
    for peer in 0..PEERS {
        let path = rt.peer_state(IndexId::PRIMARY, peer).path;
        assert_eq!(path, leaf_path(peer, 6));
    }
}

#[test]
fn a_backed_off_tick_among_replicas_walks_no_entry_and_allocates_no_entry_sized_block() {
    let _serial = serial();
    let mut rt = settled_overlay(2);
    // The first window backs every peer off and has each take the summary
    // of its partition once.
    rt.run_until(WINDOW_MS);
    assert!(rt.construction_quiescent(), "every peer backed off");
    assert!(rt.metrics.digested_entries > 0, "the first offers walk");

    let digested = rt.metrics.digested_entries;
    let frames = rt.transport_stats().frames_sent;
    THRESHOLD.store(ENTRIES * ENTRY_BYTES, Ordering::Relaxed);
    rt.run_until(2 * WINDOW_MS);
    THRESHOLD.store(0, Ordering::Relaxed);
    let blocks = ENTRY_SIZED.load(Ordering::Relaxed);
    let frames = rt.transport_stats().frames_sent - frames;

    assert!(frames > 1_000, "{frames} frames in the window");
    assert_eq!(
        rt.metrics.digested_entries - digested,
        0,
        "an unchanged partition was walked again for its summary"
    );
    assert_eq!(
        blocks, 0,
        "{blocks} entry-sized blocks in {frames} frames of backed-off exchanges"
    );

    // The same run, traced (tracing draws nothing from the runtime's
    // random stream): exchanges of the window met a replica and were
    // decided on the responder's summary of its own entries.
    let mut traced = settled_overlay(2);
    traced.enable_tracing();
    traced.run_until(2 * WINDOW_MS);
    assert_eq!(traced.metrics.digested_entries, rt.metrics.digested_entries);
    let met = traced
        .tracer
        .events()
        .iter()
        .filter(|e| e.virtual_ms >= WINDOW_MS && e.kind == "exchange_decision")
        .filter(|e| e.detail.ends_with(" known"))
        .count();
    assert!(met > 0, "no exchange of the window met a replica");
}
