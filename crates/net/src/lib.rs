//! The live runtime for cliff-edge consensus: a sharded event loop over
//! one shared topology.
//!
//! It runs the exact same sans-io
//! [`CliffEdgeNode`](precipice_core::CliffEdgeNode) state machine as the
//! simulator, under genuine concurrency and nondeterministic scheduling
//! (experiment E8) — demonstrating that the protocol core is
//! transport-agnostic. The transport is implemented independently of
//! the simulator's, which is why the simulator serves as this runtime's
//! differential reference: the two must report equal decisions,
//! protocol counters and killed sets on schedule-independent scenarios,
//! and on any one schedule once [`gated_run`] picks it through the
//! simulator's explorer (`tests/net_backend.rs`). The failure-detector
//! *policy* is not duplicated: both engines drive
//! [`precipice_core::FailureDetector`], which its own tests pin against
//! a brute-force model.
//!
//! [`ShardedCluster`] — one agreement *instance*: `W` shards own
//! disjoint ranges of one shared topology (owned or mapped `.pcsr`),
//! activate nodes on demand, and exchange events over bounded MPSC
//! [`ring`]s. An instance owns no thread: it is a tenant of one
//! process-wide pool of long-lived shard workers, where worker `i` runs
//! shard `i` of whichever instance has events queued, so starting and
//! shutting down an instance spawns and joins nothing, and a panic in
//! one instance's policy fails that instance alone
//! ([`ShardedCluster::failure`]). It is behind `Engine::Live`,
//! `precipice serve` ([`ServeSession`]) and live schedule exploration
//! ([`gated_run`]). Footprint is proportional to the *touched* nodes,
//! so one process hosts 10⁶-node topologies, and many of them.
//!
//! The paper's perfect failure detector is a **kill-switch oracle**:
//! crashes are always *induced* (via `kill`), so the runtime knows the
//! ground truth and can notify observers without ever suspecting a live
//! node — the only way to realize a perfect FD in an asynchronous
//! system. Observers are resolved from the shared graph (neighbours are
//! implicitly subscribed, so passive nodes are never woken just to
//! subscribe) by the same graph-backed detector the simulator uses. A
//! killed node stops processing immediately — queued and in-flight
//! events addressed to it are dropped — while messages it sent earlier
//! remain deliverable, matching the paper's reliable-channel model.
//!
//! Quiescence is detected exactly: every event is charged to one
//! outstanding-event counter before it is enqueued and discharged only
//! after its handler — and every post that handler made — is done, so
//! the counter reads zero only when nothing is queued or running.
//! `await_quiescence(timeout)` sleeps until the discharge that reaches
//! zero wakes it. Retirement is exact in the same way — a worker's turn
//! on an instance is charged to that counter too, so when `shutdown()`
//! returns no pool thread still holds the instance. Both invariants,
//! and the pool's scheduling protocol, are spelt out in the `shard`
//! module docs.
//!
//! # Example
//!
//! ```
//! use precipice_graph::{torus, GridDims, NodeId};
//! use precipice_net::ShardedCluster;
//! use std::time::Duration;
//!
//! let mut cluster = ShardedCluster::start(torus(GridDims::square(4)), Default::default(), 2);
//! cluster.kill(NodeId(9));
//! // Returns the moment the last handler does: the outstanding-event
//! // counter is exact, so there is no settling window to sit out.
//! assert!(cluster.await_quiescence(Duration::from_secs(10)));
//! assert_eq!(cluster.pending(), 0);
//! // Only the 4 border nodes ever materialized.
//! assert_eq!(cluster.activated(), 4);
//! let report = cluster.shutdown();
//! assert_eq!(report.decisions.len(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod cluster;
mod gate;
mod quiesce;
pub mod ring;
mod serve;
mod shard;

pub use cluster::{LiveReport, ShardedCluster};
pub use gate::{gated_run, live_consistent, GatedOutcome};
pub use serve::ServeSession;
pub use shard::RouterCounters;
