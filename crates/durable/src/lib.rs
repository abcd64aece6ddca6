//! Log-structured persistence for P-Grid shards.
//!
//! Zero-dependency (pgrid-core only) durability layer: append-only
//! checksummed segment files ([`segment`]), a logical journal record
//! codec ([`record`]), and the [`DurableStore`] wrapper the cluster
//! worker threads its `KeyStore` mutations, routing-table updates and
//! peer identity changes through.
//!
//! Design in one paragraph: the worker observes its hosted peers after
//! each pacing slice and at every phase barrier; `DurableStore` diffs
//! each peer against an in-memory mirror of the last journaled image
//! (sharing the live store's storage, so an untouched peer costs a
//! pointer compare) and appends one delta record per changed peer,
//! buffered until the slice's one `sync`.  Records are framed
//! `[len | crc32 | payload]` inside `seg-<seq>.log` files; recovery
//! scans segments in sequence order, truncates the first torn tail,
//! and rebuilds the mirror by last-writer-wins replay.  Compaction
//! rewrites the mirror as one checkpoint segment and deletes the
//! history — safe without a manifest file because full images are
//! idempotent under replay.  A relaunched worker turns the mirror back
//! into live peers (the warm-restart path) and reconciles with live
//! replicas instead of pulling full snapshots.

pub mod record;
pub mod segment;
pub mod store;

pub use record::{MetaImage, PeerDelta, PeerImage, Record};
pub use segment::{crc32, Log, LogOptions, ReplayOutcome, SegmentWriter};
pub use store::{DurableStats, DurableStore, MirrorImage};
