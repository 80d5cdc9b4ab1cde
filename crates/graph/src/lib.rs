//! Topology substrate for cliff-edge consensus.
//!
//! The paper models a distributed system as a finite undirected graph
//! `G = (Π, E)` capturing *which nodes know each other* (§2.2). Everything
//! the protocol reasons about is derived from this graph:
//!
//! - the **border** of a node or a node set ([`Graph::neighbors`],
//!   [`Graph::border_of`]),
//! - **regions** — connected subgraphs, canonically represented by
//!   [`Region`],
//! - **connected components** of a crashed node set
//!   ([`connected_components`]),
//! - the strict total **ranking** `≻` between regions used by the
//!   arbitration mechanism ([`rank_cmp`], defined once by
//!   [`rank_cmp_keyed`]).
//!
//! The set algebra reads only the CSR adjacency rows and is priced by the
//! set it is asked about, never by `n`: one border kernel sorts the
//! members' gathered neighbours and drops the members by merge
//! ([`Graph::border_of`], the memo's miss path and
//! [`Topology::border_region`]), and one breadth-first search over a
//! sorted member slice answers [`connected_components`],
//! [`is_connected_subset`], [`reachable_within`] and
//! [`Graph::is_connected`]. Region borders are memoized across the whole
//! system ([`Graph::border_of_region_cached`]). The original `BTreeSet`
//! implementations are retained as a test-only module of `components.rs`,
//! the executable specification for its differential property tests.
//! [`NodeSet`], a dense word-array bitset, serves callers that keep
//! id-indexed sets of their own.
//!
//! The crate also provides the topology *generators* used by the
//! experiment workloads (rings, grids, tori, random geometric graphs,
//! Erdős–Rényi, Barabási–Albert, Watts–Strogatz, trees), [`TopologySpec`],
//! the one string grammar that names a generated or mapped graph, and a
//! small [`Topology`] abstraction so protocol code can query `G` on
//! demand — the paper's "underlying topology service" — without owning it.
//!
//! # Example
//!
//! ```
//! use precipice_graph::{Graph, NodeId, Region};
//!
//! // A 4-cycle: 0 - 1 - 2 - 3 - 0
//! let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]);
//! let region = Region::from_iter([NodeId(1)]);
//! let border = g.border_of(region.iter());
//! assert_eq!(border, vec![NodeId(0), NodeId(2)]);
//! ```

// deny (not forbid) so the one mmap module can scope-allow its bindings;
// see crate::mmap for the safety argument.
#![deny(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub(crate) mod components;
mod dot;
mod generators;
mod graph;
mod mmap;
mod node;
mod nodeset;
mod rank;
mod region;
pub mod rng;
mod spec;
mod store;
mod topology;

pub use components::{connected_components, is_connected_subset, reachable_within};
pub use dot::to_dot;
pub use generators::{
    barabasi_albert, complete, erdos_renyi_connected, grid, path, random_geometric_connected,
    random_tree, ring, star, stream_torus, torus, watts_strogatz, GridDims,
};
pub use graph::{Graph, GraphBuilder};
pub use node::NodeId;
pub use nodeset::NodeSet;
pub use rank::{rank_cmp, rank_cmp_keyed};
pub use region::Region;
pub use spec::TopologySpec;
pub use store::{FileId, GraphStore, MappedGraph, StoreError, StoreSummary};
pub use topology::Topology;
