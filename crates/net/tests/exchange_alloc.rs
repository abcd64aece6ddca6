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

use pgrid_core::index::IndexId;
use pgrid_core::key::{DataEntry, DataId, Key};
use pgrid_core::path::Path;
use pgrid_core::routing::PeerId;
use pgrid_core::wire::ENTRY_BYTES;
use pgrid_net::runtime::{NetConfig, Runtime};
use pgrid_transport::Transport;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

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

/// Peers of the overlay: every path of [`DEPTH`] bits, one peer each.
const PEERS: usize = 64;

/// Path length of every peer.
const DEPTH: usize = 6;

/// Entries of every peer, all inside its own partition.
const ENTRIES: usize = 40;

/// Virtual length of the measured window: about a thousand backed-off
/// exchanges.
const WINDOW_MS: u64 = 20 * 60_000;

/// The path of peer `peer`: its index in [`DEPTH`] bits.
fn path_of(peer: usize) -> Path {
    (0..DEPTH).fold(Path::root(), |path, level| {
        path.child(peer >> (DEPTH - 1 - level) & 1 == 1)
    })
}

/// A settled overlay in which every exchange is a referral: each peer
/// owns one leaf of a complete trie of depth [`DEPTH`], so no two peers'
/// partitions meet.  Each peer holds [`ENTRIES`] entries of its partition
/// and one routing reference per level, and its maintenance tick chain is
/// armed.
fn referral_overlay() -> Runtime {
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
        let path = path_of(peer);
        let entries = (0..ENTRIES)
            .map(|j| {
                let key = Key(path.lower_key().0 + ((j as u64) << 40));
                DataEntry::new(key, DataId((peer * ENTRIES + j) as u64))
            })
            .collect();
        let routing = (0..DEPTH)
            .map(|level| {
                let other = peer ^ (1 << (DEPTH - 1 - level));
                (level as u8, PeerId(other as u64), path_of(other))
            })
            .collect();
        rt.restore_peer(peer, path, entries, routing, Vec::new(), true);
    }
    rt
}

#[test]
fn a_referred_exchange_allocates_only_its_frame() {
    let mut rt = referral_overlay();
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
        assert_eq!(rt.peer_state(IndexId::PRIMARY, peer).path, path_of(peer));
    }
}
