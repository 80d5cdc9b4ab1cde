//! Deterministic discrete-event simulator for asynchronous message-passing
//! protocols, with the substrate the cliff-edge consensus paper assumes
//! (§2.2, §3.1):
//!
//! - **asynchronous, reliable, FIFO channels** between any two nodes, with
//!   pluggable [`LatencyModel`]s,
//! - a **perfect failure detector** offered as a subscription service
//!   (`monitorCrash`), satisfying strong accuracy and strong completeness
//!   by construction — the policy is
//!   [`precipice_core::FailureDetector`], the one the live runtime
//!   drives too; the run slot only schedules its notifications,
//! - **crash scheduling** for driving correlated-failure scenarios,
//! - exact **accounting** of messages, bytes and deliveries per node
//!   ([`Metrics`]), and an optional structured [`Trace`] whose running
//!   hash makes determinism testable.
//!
//! The simulator is generic over a [`Process`] implementation; protocol
//! crates adapt their sans-io state machines to it. All randomness flows
//! from the seed in [`SimConfig`], and event ties are broken by a monotone
//! sequence number, so a run is a pure function of `(processes, config,
//! crash schedule)`.
//!
//! There is **one event loop** — the run slot (`slot.rs`) — and two
//! drivers over it: [`Simulation`] owns one slot for one run, started
//! eagerly (all `n` processes up front, `on_start` at time zero) or
//! lazily (processes spawned at their first event, cost proportional
//! to the run's footprint); [`BatchSim`] runs variant after variant
//! over a shared graph on one slot, reusing its arenas. A
//! [`SchedulePolicy`] turns the loop from latency order into a pick
//! over the enabled events ([`explore`]). What the loop must compute is
//! pinned by a small, deliberately naive test-only interpreter
//! (`reference.rs`) that the slot is differentially tested against.
//!
//! # Example
//!
//! ```
//! use precipice_graph::NodeId;
//! use precipice_sim::{
//!     Context, MessageSize, Process, SimConfig, SimTime, Simulation,
//! };
//!
//! #[derive(Clone, Debug)]
//! struct Ping(u32);
//! impl MessageSize for Ping {
//!     fn size_bytes(&self) -> usize { 4 }
//! }
//!
//! /// Forwards a token `limit` times between two nodes.
//! struct Relay { limit: u32, seen: u32 }
//! impl Process for Relay {
//!     type Msg = Ping;
//!     fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
//!         if ctx.me() == NodeId(0) {
//!             ctx.send(NodeId(1), Ping(0));
//!         }
//!     }
//!     fn on_message(&mut self, from: NodeId, msg: Ping, ctx: &mut Context<'_, Ping>) {
//!         self.seen += 1;
//!         if msg.0 < self.limit {
//!             ctx.send(from, Ping(msg.0 + 1));
//!         }
//!     }
//!     fn on_crash_notification(&mut self, _: NodeId, _: &mut Context<'_, Ping>) {}
//! }
//!
//! let mut sim = Simulation::new(
//!     SimConfig::default(),
//!     vec![Relay { limit: 3, seen: 0 }, Relay { limit: 3, seen: 0 }],
//! );
//! let outcome = sim.run();
//! assert!(outcome.is_quiescent());
//! assert_eq!(sim.metrics().messages_sent(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod batch;
pub mod explore;
mod latency;
mod metrics;
mod process;
#[cfg(test)]
mod reference;
mod sim;
mod slot;
mod time;
mod trace;

pub use batch::{BatchRun, BatchSim, BatchVariant};
pub use explore::{
    race_pairs_of, CoverageMap, Deviation, EventKey, Explorer, FrontierEntry, GuidedSpec,
    ProbeCoverage, Schedule, SchedulePolicy,
};
pub use latency::LatencyModel;
pub use metrics::{Metrics, NodeMetrics};
pub use process::{Command, Context, MessageSize, Process};
pub use sim::{RunOutcome, SimConfig, Simulation};
pub use slot::MiniMap;
pub use time::SimTime;
pub use trace::{Trace, TraceEntry};
