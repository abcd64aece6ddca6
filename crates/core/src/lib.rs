//! # pgrid-core
//!
//! Core primitives of a data-oriented, trie-structured overlay network
//! (P-Grid), as described in *"Indexing data-oriented overlay networks"*
//! (Aberer, Datta, Hauswirth, Schmidt — VLDB 2005).
//!
//! The crate provides the building blocks that both the deterministic
//! simulator (`pgrid-sim`) and the threaded in-process deployment runtime
//! (`pgrid-net`) are built from:
//!
//! * [`key`] — data keys in the key space `[0, 1)` and order-preserving
//!   mappings from application identifiers (e.g. index terms) into it;
//! * [`path`] — trie paths / key space partitions induced by recursive
//!   binary bisection;
//! * [`store`] — the local key store of a peer: one sorted copy-on-write
//!   run that partition counts, overlaps, splits and merges are read off;
//! * [`routing`] — distributed prefix-routing tables;
//! * [`peer`] — the complete local state of one peer and the local
//!   interactions of Figure 2 (split / replicate / refer);
//! * [`route`] — the routing step: what one peer does with a lookup or a
//!   range walk, the one forwarding decision of both runtimes;
//! * [`search`] — prefix-routing lookups and order-preserving range queries,
//!   [`route`]'s steps driven over a slice of peer states;
//! * [`mod@reference`] — the global reference partitioner (Algorithm 1) that
//!   defines optimal load balancing;
//! * [`exchange`] — the shared split/replicate/refer exchange engine of
//!   Figure 2: partition assessment, adaptive decision probabilities and
//!   decision application, used identically by both runtimes;
//! * [`index`] — the identifier of the one index a deployment hosts, kept
//!   as the benchmark harness's name for it;
//! * [`balance`] — the load-balance deviation metric of Section 4.4;
//! * [`histogram`] — fixed-bucket log-scale histograms for latency
//!   accounting at production query rates;
//! * [`replication`] — replica-count estimation from key-set overlap and
//!   anti-entropy reconciliation;
//! * [`trie`] — an explicit trie representation used by analyses and tests;
//! * [`wire`] — the one codec kit every wire and log format of the workspace
//!   is written with: checked integer reads, counts, paths, entry lists,
//!   routing references, strings and histograms, in either byte order.
//!
//! # Quick example
//!
//! ```
//! use pgrid_core::prelude::*;
//!
//! // Keys live in [0, 1); partitions are binary prefixes of the key space.
//! let key = Key::from_fraction(0.7);
//! let partition = Path::parse("10");
//! assert!(partition.covers(key));
//!
//! // The global reference partitioner defines optimal load balancing.
//! let keys: Vec<Key> = (0..1000).map(|i| Key::from_fraction(i as f64 / 1000.0)).collect();
//! let reference = ReferencePartitioning::compute(&keys, 64, BalanceParams::new(50, 4));
//! assert!(reference.leaves.len() > 1);
//! assert!(reference.load_trie().is_complete_partition());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod balance;
pub mod error;
pub mod exchange;
pub mod histogram;
pub mod index;
pub mod key;
pub mod path;
pub mod peer;
pub mod reference;
pub mod replication;
pub mod route;
pub mod routing;
pub mod search;
pub mod store;
pub mod trie;
pub mod wire;

/// Convenient re-exports of the most frequently used types.
pub mod prelude {
    pub use crate::balance::{
        compare_to_reference, measure_overlay, BalanceReport, OverlayQuality,
    };
    pub use crate::error::OverlayError;
    pub use crate::exchange::{Assessment, ExchangeDecision, ExchangeEngine, ProbabilityStrategy};
    pub use crate::histogram::LogHistogram;
    pub use crate::key::{DataEntry, DataId, Key};
    pub use crate::path::Path;
    pub use crate::peer::PeerState;
    pub use crate::reference::{BalanceParams, ReferencePartitioning};
    pub use crate::replication::reconcile;
    pub use crate::routing::{PeerId, RoutingEntry, RoutingTable};
    pub use crate::search::{lookup, range_query, LookupResult, RangeResult};
    pub use crate::store::{KeyStore, RestrictedView, StoreRead};
    pub use crate::trie::PartitionTrie;
}
