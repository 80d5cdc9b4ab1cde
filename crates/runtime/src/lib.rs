//! Glue between the sans-io cliff-edge consensus core and the
//! deterministic simulator, plus a mechanized checker for the paper's
//! seven-property specification (CD1–CD7).
//!
//! - [`ProtocolProcess`] adapts a [`CliffEdgeNode`](precipice_core::CliffEdgeNode)
//!   to the simulator's [`Process`](precipice_sim::Process) interface.
//! - [`Scenario`] seals a complete experiment description (topology,
//!   crash schedule, latency models, protocol configuration, seed), so a
//!   run is reproducible from the scenario value alone.
//! - [`Scenario::exec`] executes it under [`Exec`] options (decision
//!   policy × scheduling policy × [`Engine`]: the simulator or the live
//!   runtime); [`BatchRunner`] drives whole seed sweeps and fuzz
//!   budgets through the simulator's batch driver, reusing one slot's
//!   arenas, with identical per-run results.
//! - [`Engine::Live`](exec::Engine::Live) targets the sharded live
//!   runtime (`precipice-net`) through the same `exec` call, and
//!   [`probe_live`] explores deterministic *gated* schedules on that
//!   backend — the engine behind `precipice check --backend live`.
//! - [`RunReport`] collects decisions, metrics and per-node statistics.
//! - [`check_spec`] verifies every CD property against a report and
//!   returns the violations (an empty list on a correct run). This turns
//!   the paper's Theorems 1–4 into an executable oracle used by the
//!   property-test suite.
//!
//! # Example
//!
//! ```
//! use precipice_graph::{grid, GridDims, NodeId};
//! use precipice_runtime::{check_spec, Exec, Scenario};
//! use precipice_sim::SimTime;
//!
//! let scenario = Scenario::builder(grid(GridDims::square(4)))
//!     .crash(NodeId(5), SimTime::from_millis(1))
//!     .crash(NodeId(6), SimTime::from_millis(2))
//!     .seed(42)
//!     .build();
//! let report = scenario.exec(Exec::new()).report;
//! assert!(check_spec(&report).is_empty(), "all CD properties hold");
//! // Both crashed nodes form one region; its border must agree on it.
//! assert!(!report.decisions.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod adapter;
mod batch;
mod checker;
mod domains;
pub mod exec;
pub mod explore;
mod live;
mod predicate;
mod report;
mod scenario;

pub use adapter::{MulticastMode, ProtoMsg, ProtocolProcess};
pub use batch::{BatchJob, BatchRunner};
pub use checker::{branch, check_spec, check_spec_coverage, Violation};
pub use domains::{faulty_clusters, faulty_domains};
pub use exec::{Engine, Exec, ExecOutcome};
pub use explore::{
    probe, probe_coverage, probe_on, render_violations, shrink_schedule, shrink_schedule_on,
    Artifact, Counterexample, ScheduleProbe,
};
pub use live::probe_live;
pub use predicate::{PredicateScenario, PredicateScenarioBuilder};
pub use report::{Decision, RunDigest, RunReport};
pub use scenario::{Scenario, ScenarioBuilder};
