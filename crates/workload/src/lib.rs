//! Workloads, figure scenarios, sweeps and result tables for the
//! cliff-edge consensus experiments.
//!
//! The paper evaluates nothing quantitatively — its figures are
//! illustrative scenarios and its claims are qualitative (locality,
//! convergence). This crate turns both into executable material:
//!
//! - [`patterns`] — correlated-failure generators (BFS balls, blobs,
//!   line-shaped regions, scattered singletons, multi-region patterns)
//!   and crash-timing schedules (simultaneous, cascades, random spread);
//! - [`RegionSpec`] / [`TimingSpec`] — the spec grammars that name a
//!   crashed region and its crash timing, as
//!   [`TopologySpec`](precipice_graph::TopologySpec) names a graph;
//! - [`figures`] — faithful reconstructions of the paper's Figure 1
//!   (cities network with conflicting views), Figure 2 (cluster of
//!   adjacent faulty domains) and Figure 3 (overlap adversary);
//! - [`sweep`] — the deterministic parallel sweep engine that shards
//!   experiment jobs across worker threads with byte-identical output
//!   for any `--jobs` count;
//! - [`explore`] — the adversarial schedule explorer: fans a schedule
//!   budget across the sweep workers, checks CD1–CD7 on every probe,
//!   and shrinks violations to minimal replayable counterexamples;
//! - [`stats`] / [`table`] — summary statistics and markdown/CSV tables
//!   used by the `report` binary of `precipice-bench`.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod explore;
pub mod figures;
mod grammar;
pub mod patterns;
pub mod stats;
pub mod sweep;
pub mod table;

pub use grammar::{RegionSpec, TimingSpec};
