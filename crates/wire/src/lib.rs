//! Serving subsystem: page-cache snapshot opens, an epoch hot-swap store,
//! a multi-threaded batched query engine, fault injection and query
//! workloads.
//!
//! The paper's whole point is that *after* preprocessing, routing decisions
//! are made from compact local tables and `o(n)`-size labels (Table 1,
//! Theorem 7, the `4k−5` refinement of \[TZ01\]). The scheme itself — the
//! validated v3 snapshot that assembly writes, its reader and its
//! forwarding kernel — lives in [`en_routing::snapshot`] and
//! [`en_routing::access`]. This crate gives the serving side a production
//! shape around it:
//!
//! * [`serialize`] hands out a copy of a built scheme's snapshot bytes, to
//!   write to a file or publish into a store.
//! * [`QueryEngine`] answers `find_tree` / `route` batches directly off the
//!   flat columns, sharding batches through `en_graph::run_parts`. There is
//!   no forwarding loop in this crate: the engine calls the kernel in
//!   [`en_routing::access`], the same one
//!   [`RoutingScheme::route`](en_routing::RoutingScheme::route) runs.
//! * [`mmap::MappedSnapshot`] opens a committed snapshot file straight out
//!   of the kernel page cache — an O(header) length check, then `mmap` —
//!   instead of copying hundreds of megabytes per open, with a
//!   read-into-heap fallback for non-Linux targets and shape-invalid files
//!   (see that module's SIGBUS-safety argument); [`SnapshotSource`] lets
//!   [`SchemeStore`] epochs serve owned and mapped buffers alike.
//! * [`workload::generate_pairs`] produces uniform, Zipf-hotspot, and
//!   near-vs-far query workloads for the benches.
//!
//! # Fault tolerance
//!
//! Serving is hardened end to end (see `tests/integration_fault_tolerance.rs`
//! and the `fault_drill` harness bin):
//!
//! * **Snapshot integrity** — the v3 header carries a per-section FNV-1a
//!   checksum plus a whole-header checksum; [`FlatScheme::from_bytes`]
//!   verifies them once at load, so corruption is a structured
//!   [`WireError`](en_routing::snapshot::WireError), never a wrong answer,
//!   and the per-query hot path stays checksum-free.
//! * **Epoch hot swap** — [`SchemeStore`] validates candidate snapshots
//!   *before* atomically swapping them in; a failed publish leaves the
//!   current epoch serving (rollback by default) and readers pin whole
//!   epochs, so a swap never tears a batch.
//! * **Validate once** — an epoch holds a
//!   [`en_routing::RoutingScheme`], which can only be built
//!   through the full validation, so the query engine never re-checks per
//!   query and cannot meet corrupt bytes.
//! * **Deterministic fault injection** — [`faultsim`] builds seeded fault
//!   plans (boundary truncations, bit flips, offset scrambles) and drills
//!   the load path, asserting every fault is rejected with a structured
//!   error.
//!
//! # Example
//!
//! ```
//! use en_graph::generators::{erdos_renyi_connected, GeneratorConfig};
//! use en_routing::construction::{build_routing_scheme, ConstructionConfig};
//! use en_wire::{QueryEngine, SchemeStore};
//!
//! let g = erdos_renyi_connected(&GeneratorConfig::new(64, 5), 0.1);
//! let built = build_routing_scheme(&g, &ConstructionConfig::new(2, 42)).unwrap();
//!
//! // Publish the snapshot bytes, then serve the pinned epoch zero-copy.
//! let store = SchemeStore::new(en_wire::serialize(&built.scheme)).expect("snapshot validates");
//! let epoch = store.current();
//! let engine = QueryEngine::new(epoch.scheme(), &g).expect("sizes match");
//!
//! let outcome = engine.route(3, 60).expect("delivery succeeds");
//! assert_eq!(outcome.path.nodes().first(), Some(&3));
//! assert_eq!(outcome.path.nodes().last(), Some(&60));
//! assert!(outcome.path.is_valid_in(&g));
//! ```

// `deny`, not `forbid`: the `mmap` module carries the crate's single
// scoped `allow` for its raw-syscall wrapper; every other module is
// checked Rust.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod faultsim;
pub mod mmap;
pub mod store;
pub mod workload;

pub use en_routing::snapshot::{checksum, FlatScheme};
pub use engine::{BatchOutcome, BatchStats, QueryEngine};
pub use mmap::MappedSnapshot;
pub use store::{SchemeStore, SnapshotEpoch, SnapshotSource, StoreStats};
pub use workload::{generate_pairs, PairWorkload};

use en_routing::RoutingScheme;

/// A copy of `scheme`'s snapshot bytes: assembly already wrote and
/// validated them, so this is a plain buffer copy.
pub fn serialize(scheme: &RoutingScheme) -> Vec<u8> {
    scheme.bytes().to_vec()
}
