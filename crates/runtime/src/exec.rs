//! The unified scenario execution API: [`Exec`] options in,
//! [`ExecOutcome`] out.
//!
//! [`Scenario::exec`](crate::Scenario::exec) is the single entry point
//! for every backend: one call taking an [`Exec`] options value
//! (decision-policy factory, [`SchedulePolicy`], [`Engine`]) and always
//! returning the report together with the recorded schedule.
//!
//! # The simulator
//!
//! [`Engine::Sim`] (the default) is the deterministic simulator: one
//! `exec` is a one-job [`BatchRunner`](crate::BatchRunner) wave over
//! [`precipice_sim`]'s slot engine, with processes spawned lazily at
//! their first event, so a run's cost follows the crashed region's
//! footprint rather than `n`. Budgeted drivers (seed sweeps, schedule
//! fuzzing) hold on to a `BatchRunner` instead and reuse its slot
//! arenas across thousands of runs; per run the two are bit-identical
//! — same [`RunReport`] (trace hash, metrics, decisions, stats) and
//! same recorded [`Schedule`] — which the `batched ≡ scalar`
//! differential tests pin.
//!
//! # The live engine
//!
//! [`Engine::Live`] steps outside the simulation: the scenario runs on
//! the sharded event-loop runtime (`precipice-net`) with real threads
//! and real queues. Under [`SchedulePolicy::Fifo`] it runs free, and
//! the schedule is whatever the OS produced: decisions, views and stats
//! still match the simulator's where they do not depend on it, but
//! timing fields are coarse logical stamps, the trace hash is zero and
//! `message_pairs` absent. Any other policy runs *gated*: events are
//! released one at a time, each picked by the simulator's own explorer,
//! so the run is deterministic, its [`Schedule`] replays it on either
//! engine, and timing fields are release steps (the gate's own FIFO
//! order is `Replay(Schedule::fifo())`). Latencies never apply, and
//! [`MulticastMode::Sequential`](crate::MulticastMode::Sequential)
//! multicasts atomically: the live runtime has no chain for it yet.

use precipice_core::{DecisionPolicy, NodeIdValuePolicy};
use precipice_graph::NodeId;
use precipice_sim::{Schedule, SchedulePolicy, Trace};

use crate::report::RunReport;

/// Which execution engine [`Scenario::exec`](crate::Scenario::exec)
/// drives (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The deterministic simulator (the default): footprint-proportional,
    /// processes spawn lazily at their first event.
    Sim,
    /// The sharded live backend (`precipice-net`): real worker threads
    /// own disjoint node ranges and exchange events over bounded MPSC
    /// rings; free-running under FIFO, gated under any other policy, and
    /// atomic for `Sequential` multicasts (see the [module docs](self)).
    Live {
        /// Worker shard count (clamped to at least 1).
        shards: usize,
    },
}

/// Builder-style options for [`Scenario::exec`](crate::Scenario::exec):
/// a decision-policy factory, a [`SchedulePolicy`], and an [`Engine`].
///
/// `Exec::new()` is the classic run: [`NodeIdValuePolicy`] decisions,
/// FIFO scheduling, simulated.
///
/// ```
/// use precipice_graph::{path, NodeId};
/// use precipice_runtime::{Exec, Scenario};
/// use precipice_sim::{SchedulePolicy, SimTime};
///
/// let scenario = Scenario::builder(path(3))
///     .crash(NodeId(1), SimTime::from_millis(1))
///     .build();
/// let classic = scenario.exec(Exec::new());
/// let fuzzed = scenario.exec(Exec::new().schedule(SchedulePolicy::Random(7)));
/// assert!(classic.schedule.is_empty(), "FIFO records no deviations");
/// assert_eq!(classic.report.decisions.len(), 2);
/// assert!(fuzzed.report.outcome.is_quiescent());
/// ```
pub struct Exec<P = NodeIdValuePolicy, F = fn(NodeId) -> NodeIdValuePolicy> {
    pub(crate) make_policy: F,
    pub(crate) schedule: SchedulePolicy,
    pub(crate) engine: Engine,
    pub(crate) _marker: std::marker::PhantomData<fn() -> P>,
}

impl Exec {
    /// The classic run: [`NodeIdValuePolicy`] decisions (border
    /// coordinator election), FIFO scheduling, simulated.
    pub fn new() -> Self {
        Exec {
            make_policy: |_me| NodeIdValuePolicy,
            schedule: SchedulePolicy::Fifo,
            engine: Engine::Sim,
            _marker: std::marker::PhantomData,
        }
    }
}

impl Default for Exec {
    fn default() -> Self {
        Exec::new()
    }
}

impl<P, F> Exec<P, F>
where
    P: DecisionPolicy,
    F: FnMut(NodeId) -> P,
{
    /// Replaces the decision-policy factory: `make_policy(node)` builds
    /// the policy each node decides with (called lazily, at the node's
    /// activation).
    pub fn decide_with<P2, F2>(self, make_policy: F2) -> Exec<P2, F2>
    where
        P2: DecisionPolicy,
        F2: FnMut(NodeId) -> P2,
    {
        Exec {
            make_policy,
            schedule: self.schedule,
            engine: self.engine,
            _marker: std::marker::PhantomData,
        }
    }

    /// Sets the event-scheduling policy (FIFO, random/PCR fuzzing, or
    /// schedule replay).
    pub fn schedule(mut self, schedule: SchedulePolicy) -> Self {
        self.schedule = schedule;
        self
    }

    /// Selects the execution engine.
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }
}

impl<P, F> std::fmt::Debug for Exec<P, F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Exec")
            .field("schedule", &self.schedule)
            .field("engine", &self.engine)
            .finish()
    }
}

/// What an execution produced: the full [`RunReport`] plus the recorded
/// [`Schedule`] — **always** present ([`Schedule::fifo`] when the run
/// never deviated from latency order), unlike the historical
/// `Option<Schedule>` returns.
#[derive(Debug, Clone)]
pub struct ExecOutcome<V> {
    /// Decisions, metrics, stats, trace fingerprint.
    pub report: RunReport<V>,
    /// The scheduling deviations actually taken (replayable; empty for
    /// a pure-FIFO execution).
    pub schedule: Schedule,
    /// The run's trace, moved out of the finished simulation (entries
    /// present iff the scenario recorded them). `None` on the live
    /// engine, whose schedules the OS owns. Coverage extraction
    /// ([`precipice_sim::race_pairs_of`]) consumes the entries without
    /// a per-run clone.
    pub trace: Option<Trace>,
}
