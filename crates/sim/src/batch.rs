//! The lockstep multi-run driver, [`BatchSim`]: K scenario variants
//! (seed sweeps, schedule-fuzz budgets) against one shared [`Graph`]
//! topology, one run slot each (`slot.rs`, the simulator's one event
//! loop), the K slots advancing in lockstep and reused from wave to wave.

use std::sync::Arc;

use precipice_core::FailureDetector;
use precipice_graph::{Graph, NodeId};

use crate::explore::{Schedule, SchedulePolicy};
use crate::process::Process;
use crate::sim::SimConfig;
use crate::slot::Slot;
use crate::{Metrics, RunOutcome, SimTime, Trace};

/// One scenario variant to execute in a batch: the simulator config
/// (seed, latencies, trace recording, event cap), the scheduling
/// policy, and the crash schedule.
#[derive(Debug, Clone)]
pub struct BatchVariant {
    /// Simulator configuration for this run.
    pub config: SimConfig,
    /// Event-scheduling policy for this run.
    pub policy: SchedulePolicy,
    /// Crash schedule, in scheduling order.
    pub crashes: Vec<(NodeId, SimTime)>,
}

/// Everything a finished run exposes, collected for one batched run.
pub struct BatchRun<P> {
    /// How the run ended.
    pub outcome: RunOutcome,
    /// Aggregate and per-node accounting.
    pub metrics: Metrics,
    /// The run's trace (hash always; entries iff `record_trace`).
    pub trace: Trace,
    /// Recorded scheduling deviations; `None` under [`SchedulePolicy::Fifo`].
    pub schedule: Option<Schedule>,
    /// Activated processes in ascending node order (the lazy-activation
    /// footprint).
    pub processes: Vec<(NodeId, P)>,
}

impl<P> std::fmt::Debug for BatchRun<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchRun")
            .field("outcome", &self.outcome)
            .field("trace_hash", &self.trace.hash())
            .field("processes", &self.processes.len())
            .finish()
    }
}

/// The lockstep batch driver: runs waves of scenario variants over one
/// shared graph, reusing per-slot arenas across waves (what a slot keeps
/// between runs is in `slot.rs`'s module docs).
///
/// `spawn(run, node)` constructs the process for `node` in the wave's
/// `run`-th variant; it is called lazily, at the node's first event,
/// and the failure detector resolves crash observers from the graph
/// ([`FailureDetector::with_static_graph`]) — exactly like
/// [`Simulation::lazy_with_policy`](crate::Simulation::lazy_with_policy).
pub struct BatchSim<P: Process, F> {
    graph: Arc<Graph>,
    spawn: F,
    slots: Vec<Slot<P>>,
}

impl<P: Process, F> std::fmt::Debug for BatchSim<P, F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchSim")
            .field("nodes", &self.graph.len())
            .field("slots", &self.slots.len())
            .finish()
    }
}

impl<P: Process, F: FnMut(usize, NodeId) -> P> BatchSim<P, F> {
    /// Creates a driver over `graph` with the lazy process factory
    /// `spawn`.
    pub fn new(graph: Arc<Graph>, spawn: F) -> Self {
        BatchSim {
            graph,
            spawn,
            slots: Vec::new(),
        }
    }

    /// Executes one wave: every variant runs to completion (quiescence
    /// or its event cap), K-at-a-time in lockstep, and the results come
    /// back in variant order. Calling `run` again reuses the slots'
    /// allocations — drivers feed large budgets through repeated waves.
    pub fn run(&mut self, variants: &[BatchVariant]) -> Vec<BatchRun<P>> {
        let k = variants.len();
        while self.slots.len() < k {
            self.slots.push(Slot::new());
        }
        let spawn = &mut self.spawn;
        let slots = &mut self.slots[..k];
        for (slot, variant) in slots.iter_mut().zip(variants) {
            slot.reset(
                variant.config,
                self.graph.len(),
                variant.policy.clone(),
                FailureDetector::with_static_graph(Arc::clone(&self.graph)),
            );
            for &(node, at) in &variant.crashes {
                slot.schedule_crash(node, at);
            }
            slot.commit_crashes();
        }
        let mut outcomes: Vec<Option<RunOutcome>> = vec![None; k];
        let mut remaining = k;
        while remaining > 0 {
            for (i, outcome) in outcomes.iter_mut().enumerate() {
                if outcome.is_none() {
                    *outcome = slots[i].step_chunk(spawn, i);
                    remaining -= usize::from(outcome.is_some());
                }
            }
        }
        slots
            .iter_mut()
            .zip(outcomes)
            .map(|(slot, outcome)| slot.collect(outcome.expect("every run finished")))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::tests::{assert_oracle_agrees, jittery as config, Gossip};
    use crate::slot::MiniMap;

    fn variants_for(graph: &Arc<Graph>) -> Vec<BatchVariant> {
        let crash = NodeId((graph.len() / 2) as u32);
        let crashes = vec![(crash, SimTime::from_millis(1))];
        let mut vs = Vec::new();
        for seed in 0..4u64 {
            for policy in [
                SchedulePolicy::Fifo,
                SchedulePolicy::Random(seed * 7 + 1),
                SchedulePolicy::Pcr(seed * 13 + 5),
            ] {
                vs.push(BatchVariant {
                    config: config(seed),
                    policy,
                    crashes: crashes.clone(),
                });
            }
        }
        vs
    }

    /// The "scalar" arm is the naive oracle (`reference.rs`) since the
    /// slot became the only event loop: FIFO variants run there as is,
    /// exploring ones as a replay of the schedule the slot recorded.
    fn assert_batch_matches_scalar(graph: Arc<Graph>) {
        let variants = variants_for(&graph);
        let g = Arc::clone(&graph);
        let mut batch = BatchSim::new(Arc::clone(&graph), move |_, me| Gossip::spawn(&g, me));
        // Two waves over the same variants: the second exercises arena
        // reuse and must be bit-identical to the first.
        for wave in 0..2 {
            let runs = batch.run(&variants);
            assert_eq!(runs.len(), variants.len());
            for (v, r) in variants.iter().zip(&runs) {
                let tag = format!("wave {wave}, {:?} seed {}", v.policy.tag(), v.config.seed);
                assert_oracle_agrees(&graph, v, r, &tag);
            }
        }
    }

    #[test]
    fn batched_matches_scalar_on_a_path() {
        assert_batch_matches_scalar(Arc::new(precipice_graph::path(8)));
    }

    #[test]
    fn batched_matches_scalar_on_a_ring() {
        assert_batch_matches_scalar(Arc::new(precipice_graph::ring(10)));
    }

    /// Slot hygiene: a slot that hosted a long run and then a short one
    /// reports the short one exactly as a fresh slot does — nothing of
    /// the 400-odd events (slab tombstones, channel counts, frontier,
    /// node slots, trace) survives the reset.
    #[test]
    fn reused_slot_equals_fresh_slot() {
        let graph = Arc::new(precipice_graph::torus(precipice_graph::GridDims::square(4)));
        let spawn = |graph: &Arc<Graph>| {
            let g = Arc::clone(graph);
            move |_: usize, me: NodeId| Gossip::spawn(&g, me)
        };
        let long = BatchVariant {
            config: config(9),
            policy: SchedulePolicy::Random(4),
            crashes: vec![
                (NodeId(2), SimTime::from_millis(1)),
                (NodeId(7), SimTime::from_millis(2)),
            ],
        };
        for policy in [SchedulePolicy::Fifo, SchedulePolicy::Pcr(8)] {
            let short = BatchVariant {
                config: SimConfig {
                    max_events: Some(10),
                    ..config(3)
                },
                policy,
                crashes: vec![(NodeId(5), SimTime::from_millis(1))],
            };
            let mut reused = BatchSim::new(Arc::clone(&graph), spawn(&graph));
            let first = &reused.run(std::slice::from_ref(&long))[0];
            assert!(first.outcome.events() >= 400, "{:?}", first.outcome);
            let second = &reused.run(std::slice::from_ref(&short))[0];
            assert_eq!(second.outcome.events(), 10);
            let mut unused = BatchSim::new(Arc::clone(&graph), spawn(&graph));
            let fresh = &unused.run(std::slice::from_ref(&short))[0];
            assert_eq!(second.outcome, fresh.outcome);
            assert_eq!(second.metrics, fresh.metrics);
            assert_eq!(second.trace.hash(), fresh.trace.hash());
            assert_eq!(second.trace.entries(), fresh.trace.entries());
            assert_eq!(second.schedule, fresh.schedule);
            assert_oracle_agrees(&graph, &short, second, "reused slot");
        }
    }

    #[test]
    fn batched_replay_of_batched_schedule_reproduces_the_run() {
        let graph = Arc::new(precipice_graph::ring(8));
        let g = Arc::clone(&graph);
        let mut batch = BatchSim::new(Arc::clone(&graph), move |_, me| Gossip::spawn(&g, me));
        let fuzz = BatchVariant {
            config: config(3),
            policy: SchedulePolicy::Random(42),
            crashes: vec![(NodeId(4), SimTime::from_millis(1))],
        };
        let first = &batch.run(std::slice::from_ref(&fuzz))[0];
        let schedule = first.schedule.clone().expect("exploring policy records");
        let hash = first.trace.hash();
        assert!(!schedule.is_empty(), "random run deviates somewhere");
        let replay = BatchVariant {
            policy: SchedulePolicy::Replay(schedule.clone()),
            ..fuzz
        };
        let second = &batch.run(std::slice::from_ref(&replay))[0];
        assert_eq!(second.trace.hash(), hash, "replay must be bit-identical");
        assert_eq!(second.schedule.as_ref(), Some(&schedule));
    }

    #[test]
    fn event_cap_is_honored() {
        let graph = Arc::new(precipice_graph::ring(6));
        let g = Arc::clone(&graph);
        let mut batch = BatchSim::new(Arc::clone(&graph), move |_, me| Gossip::spawn(&g, me));
        let mut cfg = config(1);
        cfg.max_events = Some(5);
        let v = BatchVariant {
            config: cfg,
            policy: SchedulePolicy::Fifo,
            crashes: vec![(NodeId(0), SimTime::from_millis(1))],
        };
        let r = &batch.run(std::slice::from_ref(&v))[0];
        assert!(!r.outcome.is_quiescent());
        assert_eq!(r.outcome.events(), 5);
        assert_oracle_agrees(&graph, &v, r, "capped");
    }

    #[test]
    fn empty_wave_and_empty_variant() {
        let graph = Arc::new(precipice_graph::path(3));
        let g = Arc::clone(&graph);
        let mut batch = BatchSim::new(Arc::clone(&graph), move |_, me| Gossip::spawn(&g, me));
        assert!(batch.run(&[]).is_empty());
        let idle = BatchVariant {
            config: SimConfig::default(),
            policy: SchedulePolicy::Fifo,
            crashes: vec![],
        };
        let r = &batch.run(std::slice::from_ref(&idle))[0];
        assert_eq!(
            r.outcome,
            RunOutcome::Quiescent {
                events: 0,
                at: SimTime::ZERO
            }
        );
        assert!(r.processes.is_empty());
    }

    #[test]
    fn minimap_survives_growth_and_clear() {
        let mut m = MiniMap::new();
        for i in 0..500u64 {
            m.insert(i * 0x1_0001, i as u32);
        }
        for i in 0..500u64 {
            assert_eq!(m.get(i * 0x1_0001), Some(i as u32));
        }
        assert_eq!(m.get(0xdead_beef_dead_beef), None);
        m.clear();
        assert_eq!(m.get(0), None);
        m.insert(7, 9);
        assert_eq!(m.get(7), Some(9));
    }
}
