//! # precipice — Cliff-Edge Consensus
//!
//! A production-quality Rust reproduction of *"Cliff-Edge Consensus:
//! Agreeing on the Precipice"* (Taïani, Porter, Coulson, Raynal, PaCT
//! 2013): a **local** form of consensus in which the nodes bordering a
//! crashed region of an arbitrarily large network agree on the region's
//! extent and on a common recovery decision — touching only nodes in the
//! region's vicinity, never the whole system.
//!
//! This umbrella crate re-exports the workspace's public API:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`graph`] | `precipice-graph` | knowledge graphs, regions, borders, ranking, topology generators |
//! | [`sim`] | `precipice-sim` | deterministic discrete-event simulator, FIFO channels, perfect failure detector |
//! | [`consensus`] | `precipice-core` | the cliff-edge consensus state machine (paper Algorithm 1) |
//! | [`runtime`] | `precipice-runtime` | scenario runner and the CD1–CD7 specification checker |
//! | [`baseline`] | `precipice-baseline` | global flooding consensus, gossip dissemination, no-arbitration ablation |
//! | [`net`] | `precipice-net` | sharded live event-loop runtime, `precipice serve` sessions, gated live schedule exploration |
//! | [`workload`] | `precipice-workload` | failure-pattern generators, figure scenarios, sweeps, result tables |
//!
//! # Quickstart
//!
//! ```
//! use precipice::graph::{torus, GridDims, NodeId};
//! use precipice::runtime::{check_spec, Exec, Scenario};
//! use precipice::sim::SimTime;
//!
//! // An 8x8 torus in which a 2-node region crashes.
//! let scenario = Scenario::builder(torus(GridDims::square(8)))
//!     .crash(NodeId(9), SimTime::from_millis(1))
//!     .crash(NodeId(10), SimTime::from_millis(3))
//!     .seed(1)
//!     .build();
//! let report = scenario.exec(Exec::new()).report;
//!
//! // The border of the crashed region agreed on its extent...
//! assert!(!report.decisions.is_empty());
//! // ...and the run satisfies the paper's whole specification.
//! assert!(check_spec(&report).is_empty());
//! ```
//!
//! See the `examples/` directory for richer scenarios (the paper's
//! Figure-1 cities network, overlay repair, cascade storms, and the live
//! sharded runtime).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use precipice_baseline as baseline;
pub use precipice_core as consensus;
pub use precipice_graph as graph;
pub use precipice_net as net;
pub use precipice_runtime as runtime;
pub use precipice_sim as sim;
pub use precipice_workload as workload;
