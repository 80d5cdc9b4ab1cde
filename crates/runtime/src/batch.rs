//! Budgeted batch execution: many scenario variants through one
//! lockstep [`BatchSim`], amortizing slot arenas, the shared
//! [`Graph`](precipice_graph::Graph), and process allocations across
//! the whole budget.
//!
//! A [`BatchRunner`] is built once per scenario shape (graph + crash
//! schedule + protocol + latency model) and then fed [`BatchJob`]s —
//! the two axes the experiment drivers vary:
//!
//! - **seed sweeps** (figure 2's latency-seed replication): same
//!   policy, varying `seed`;
//! - **fuzz budgets** (schedule exploration): same `seed`, varying
//!   [`SchedulePolicy`] (one probe per budget index).
//!
//! Jobs are chunked into waves of `k` run slots; each wave executes in
//! lockstep over the shared graph and results come back in job order.
//! Every run is bit-identical to the same job executed alone through
//! [`Scenario::exec`] — which is itself a one-job wave of a fresh
//! runner — whatever the wave width, the job's position in the wave or
//! the runs its slot hosted before.

use std::sync::Arc;

use precipice_core::{CliffEdgeNode, DecisionPolicy, NodeIdValuePolicy};
use precipice_graph::NodeId;
use precipice_sim::{BatchSim, BatchVariant, SchedulePolicy, SimConfig};

use crate::adapter::ProtocolProcess;
use crate::exec::ExecOutcome;
use crate::scenario::{assemble, Scenario};

/// One run variant in a batch: the latency/RNG seed and the scheduling
/// policy. Everything else — graph, crash schedule, protocol and
/// latency configuration — comes from the [`Scenario`] the runner was
/// built on.
#[derive(Debug, Clone)]
pub struct BatchJob {
    /// RNG seed for this run (latency sampling).
    pub seed: u64,
    /// Event-scheduling policy for this run.
    pub policy: SchedulePolicy,
}

type Spawn<P> = Box<dyn FnMut(usize, NodeId) -> ProtocolProcess<P>>;

/// Reusable batch executor for one scenario shape. See the
/// [module docs](self).
pub struct BatchRunner<P: DecisionPolicy> {
    scenario: Scenario,
    wave: usize,
    sim: BatchSim<ProtocolProcess<P>, Spawn<P>>,
}

impl BatchRunner<NodeIdValuePolicy> {
    /// Runner with the default [`NodeIdValuePolicy`] decisions
    /// (border-coordinator election) — the batch analogue of
    /// [`Exec::new`](crate::Exec::new).
    pub fn with_default_policy(scenario: &Scenario, wave: usize) -> Self {
        BatchRunner::new(scenario, wave, |_me| NodeIdValuePolicy)
    }
}

impl<P: DecisionPolicy> BatchRunner<P> {
    /// Builds a runner over `scenario` with waves of `wave` run slots
    /// (clamped to at least 1). `make_policy` constructs each node's
    /// decision policy, called lazily at the node's activation.
    pub fn new<F>(scenario: &Scenario, wave: usize, mut make_policy: F) -> Self
    where
        F: FnMut(NodeId) -> P + 'static,
    {
        let graph = Arc::clone(&scenario.graph);
        let protocol = scenario.protocol;
        let multicast = scenario.multicast;
        let spawn_graph = Arc::clone(&graph);
        let spawn: Spawn<P> = Box::new(move |_run, me| {
            ProtocolProcess::with_multicast_mode(
                CliffEdgeNode::new(me, Arc::clone(&spawn_graph), make_policy(me), protocol),
                multicast,
            )
        });
        BatchRunner {
            scenario: scenario.clone(),
            wave: wave.max(1),
            sim: BatchSim::new(graph, spawn),
        }
    }

    /// Executes `jobs`, chunked into lockstep waves, returning one
    /// [`ExecOutcome`] per job in job order. Slot arenas are reused
    /// across waves *and* across `run` calls.
    pub fn run(&mut self, jobs: &[BatchJob]) -> Vec<ExecOutcome<P::Value>> {
        let mut out = Vec::with_capacity(jobs.len());
        for chunk in jobs.chunks(self.wave) {
            let variants: Vec<BatchVariant> = chunk
                .iter()
                .map(|job| BatchVariant {
                    config: SimConfig {
                        seed: job.seed,
                        ..self.scenario.sim
                    },
                    policy: job.policy.clone(),
                    crashes: self.scenario.crashes.clone(),
                })
                .collect();
            for run in self.sim.run(&variants) {
                let report = assemble(
                    &self.scenario,
                    run.processes.iter().map(|(id, p)| (*id, p)),
                    run.metrics,
                    &run.trace,
                    run.outcome,
                );
                out.push(ExecOutcome {
                    report,
                    schedule: run.schedule.unwrap_or_default(),
                    // The run owns its trace — moving it out is free.
                    trace: Some(run.trace),
                });
            }
        }
        out
    }
}

impl<P: DecisionPolicy> std::fmt::Debug for BatchRunner<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchRunner")
            .field("scenario", &self.scenario.name)
            .field("wave", &self.wave)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Exec;
    use precipice_core::NodeIdValuePolicy;
    use precipice_graph::NodeId;
    use precipice_sim::SimTime;

    fn scenario() -> Scenario {
        Scenario::builder(precipice_graph::ring(10))
            .crash(NodeId(2), SimTime::from_millis(1))
            .crash(NodeId(3), SimTime::from_millis(2))
            .crash(NodeId(7), SimTime::from_millis(5))
            .build()
    }

    /// "Scalar" in these two names is a fresh one-slot `exec` per job;
    /// the runner under test reuses four slots across ragged waves.
    #[test]
    fn seed_sweep_matches_scalar_per_seed() {
        let s = scenario();
        let jobs: Vec<BatchJob> = (0..9)
            .map(|seed| BatchJob {
                seed,
                policy: SchedulePolicy::Fifo,
            })
            .collect();
        // Wave of 4 over 9 jobs: exercises full waves, a ragged tail,
        // and slot reuse across waves.
        let mut runner = BatchRunner::new(&s, 4, |_me| NodeIdValuePolicy);
        let outcomes = runner.run(&jobs);
        assert_eq!(outcomes.len(), jobs.len());
        for (job, got) in jobs.iter().zip(&outcomes) {
            let mut variant = s.clone();
            variant.sim.seed = job.seed;
            let want = variant.exec(Exec::new());
            assert_eq!(got.report.trace_hash, want.report.trace_hash);
            assert_eq!(got.report.metrics, want.report.metrics);
            assert_eq!(got.report.decisions, want.report.decisions);
            assert_eq!(got.schedule, want.schedule);
        }
    }

    #[test]
    fn fuzz_budget_matches_scalar_per_policy() {
        let s = scenario();
        let jobs: Vec<BatchJob> = (0..6)
            .map(|i| BatchJob {
                seed: s.sim.seed,
                policy: if i % 2 == 0 {
                    SchedulePolicy::Random(100 + i)
                } else {
                    SchedulePolicy::Pcr(200 + i)
                },
            })
            .collect();
        let mut runner = BatchRunner::new(&s, 4, |_me| NodeIdValuePolicy);
        let outcomes = runner.run(&jobs);
        for (job, got) in jobs.iter().zip(&outcomes) {
            let want = s.exec(Exec::new().schedule(job.policy.clone()));
            assert_eq!(got.report.trace_hash, want.report.trace_hash);
            assert_eq!(got.report.metrics, want.report.metrics);
            assert_eq!(got.schedule, want.schedule);
        }
        // Runner reuse: a second budget over the same slots still agrees.
        let again = runner.run(&jobs[..3]);
        for (got, want) in again.iter().zip(&outcomes[..3]) {
            assert_eq!(got.report.trace_hash, want.report.trace_hash);
        }
    }
}
