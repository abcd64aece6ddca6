//! # pgrid
//!
//! Umbrella crate of the Rust reproduction of *"Indexing data-oriented
//! overlay networks"* (Aberer, Datta, Hauswirth, Schmidt — VLDB 2005).
//!
//! The repository implements the paper's trie-structured, order-preserving
//! overlay network (P-Grid), its decentralized parallel construction via
//! adaptive eager partitioning, and the evaluation apparatus needed to
//! regenerate every figure of the paper.  This crate simply re-exports the
//! individual building blocks so that applications can depend on a single
//! crate:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `pgrid-core` | keys, paths, routing tables, peer state, search, reference partitioner, balance metric, and the shared split/replicate/refer exchange engine ([`core::exchange`]) both runtimes delegate to |
//! | [`partition`] | `pgrid-partition` | AEP decision probabilities, mean-value models, discrete split simulation |
//! | [`workload`] | `pgrid-workload` | key distributions, synthetic corpus, query workloads |
//! | [`sim`] | `pgrid-sim` | whole-system construction simulator (its own round driver), Figure-6 sweeps, sequential baseline, query evaluation |
//! | [`transport`] | `pgrid-transport` | pluggable frame transport: batch framing, deterministic loopback, the `SocketTransport` trait |
//! | [`reactor`] | `pgrid-reactor` | the one socket backend: every hosted peer behind one listener, epoll event threads (Linux) |
//! | [`net`] | `pgrid-net` | message-level deployment runtime (generic over the transport) and the PlanetLab-style experiment |
//! | [`scenario`] | `pgrid-scenario` | the composable experiment API: declarative `Scenario` programs and one executor that drives the message-level runtime |
//! | [`cluster`] | `pgrid-cluster` | multi-process deployment: rendezvous coordinator, sharded peer-hosting workers, merged reports |
//!
//! See the repository-level `examples/` directory for runnable end-to-end
//! scenarios (`cargo run -p pgrid --example quickstart`).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use pgrid_cluster as cluster;
pub use pgrid_core as core;
pub use pgrid_net as net;
pub use pgrid_partition as partition;
pub use pgrid_reactor as reactor;
pub use pgrid_scenario as scenario;
pub use pgrid_sim as sim;
pub use pgrid_transport as transport;
pub use pgrid_workload as workload;

/// One-stop prelude re-exporting the preludes of all member crates.
pub mod prelude {
    pub use pgrid_cluster::prelude::*;
    pub use pgrid_core::prelude::*;
    pub use pgrid_net::prelude::*;
    pub use pgrid_partition::prelude::*;
    pub use pgrid_reactor::prelude::*;
    pub use pgrid_scenario::prelude::*;
    pub use pgrid_sim::prelude::*;
    pub use pgrid_transport::prelude::*;
    pub use pgrid_workload::prelude::*;
}
