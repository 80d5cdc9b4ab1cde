use std::collections::BTreeMap;
use std::sync::Arc;

use precipice_core::{DecisionPolicy, ProtocolConfig};
use precipice_graph::{Graph, NodeId};
use precipice_sim::{Metrics, RunOutcome, SimConfig, SimTime, Trace, TraceEntry};

use crate::adapter::{MulticastMode, ProtocolProcess};
use crate::batch::{BatchJob, BatchRunner};
use crate::exec::{Engine, Exec, ExecOutcome};
use crate::report::{Decision, RunReport};

/// A sealed, reproducible experiment description: topology, crash
/// schedule, network/latency configuration and protocol configuration.
///
/// Build with [`Scenario::builder`]; execute with [`Scenario::exec`],
/// which takes an [`Exec`] options value (decision policy × scheduling
/// policy × engine) and always returns the report together with the
/// recorded schedule. Two simulated runs of an identical scenario
/// produce bit-identical reports (same trace hash); see the
/// [`exec`](crate::exec) module docs for what the live engine keeps.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Human-readable label (used by experiment tables).
    pub name: String,
    /// The knowledge graph.
    pub graph: Arc<Graph>,
    /// Crash schedule: `(node, time)` pairs. [`ScenarioBuilder::build`]
    /// guarantees at most one entry per node.
    pub crashes: Vec<(NodeId, SimTime)>,
    /// Simulator configuration (latencies, seed, tracing).
    pub sim: SimConfig,
    /// Protocol configuration (optimization flags).
    pub protocol: ProtocolConfig,
    /// How multicasts are realized (atomic loop, or the paper's
    /// crash-interruptible sequential loop).
    pub multicast: MulticastMode,
}

impl Scenario {
    /// Starts building a scenario on `graph`.
    pub fn builder(graph: Graph) -> ScenarioBuilder {
        ScenarioBuilder::new(graph)
    }

    /// Executes the scenario under the given [`Exec`] options and
    /// returns the report plus the recorded schedule.
    ///
    /// On the default [`Engine::Sim`] this is a one-job [`BatchRunner`]
    /// wave: nodes are spawned **lazily**, with `make_policy` and the
    /// node constructor running on demand immediately before a node's
    /// first event, and the failure detector resolving crash observers
    /// straight from the graph (the paper's §3.1
    /// `monitorCrash(border(p))`, resolved at crash time). Per-run setup
    /// cost and memory are therefore proportional to the crashed
    /// region's footprint, not to `n` — the implementation-level form of
    /// the paper's headline locality claim. Stats and decisions are
    /// collected from activated nodes only; non-activated nodes have
    /// default stats and no decision, so every derived table is
    /// unchanged.
    pub fn exec<P, F>(&self, options: Exec<P, F>) -> ExecOutcome<P::Value>
    where
        P: DecisionPolicy + Send + 'static,
        P::Value: Send + Sync,
        F: FnMut(NodeId) -> P + Send + 'static,
    {
        let Exec {
            make_policy,
            schedule,
            engine,
            ..
        } = options;
        match engine {
            Engine::Sim => BatchRunner::new(self, 1, make_policy)
                .run(&[BatchJob {
                    seed: self.sim.seed,
                    policy: schedule,
                }])
                .pop()
                .expect("one job in, one outcome out"),
            Engine::Live { shards } => crate::live::exec_live(self, shards, schedule, make_policy),
        }
    }
}

/// Assembles a [`RunReport`] from one finished
/// [`BatchRun`](precipice_sim::BatchRun)'s observables.
pub(crate) fn assemble<'a, P>(
    scenario: &Scenario,
    procs: impl Iterator<Item = (NodeId, &'a ProtocolProcess<P>)>,
    metrics: Metrics,
    trace: &Trace,
    outcome: RunOutcome,
) -> RunReport<P::Value>
where
    P: DecisionPolicy + 'a,
{
    let crashed: BTreeMap<NodeId, SimTime> = scenario.crashes.iter().copied().collect();

    let mut decisions = BTreeMap::new();
    let mut stats = BTreeMap::new();
    for (id, proc) in procs {
        // Zeroed stats carry no information; skipping them makes the
        // report independent of which bystanders happened to be
        // activated (a never-activated node trivially has default
        // stats) and leaves every aggregate (sums, maxes) unchanged.
        if *proc.node().stats() != Default::default() {
            stats.insert(id, *proc.node().stats());
        }
        if let Some((view, value, at)) = proc.decision() {
            decisions.insert(
                id,
                Decision {
                    view: view.clone(),
                    value: value.clone(),
                    at: *at,
                },
            );
        }
    }

    let message_pairs = trace.entries().map(|entries| {
        entries
            .iter()
            .filter_map(|e| match *e {
                TraceEntry::Send { from, to, .. } => Some((from, to)),
                _ => None,
            })
            .collect()
    });

    RunReport {
        graph: Arc::clone(&scenario.graph),
        crashed,
        decisions,
        metrics,
        stats,
        message_pairs,
        trace_hash: trace.hash(),
        outcome,
    }
}

/// Builder for [`Scenario`].
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    name: String,
    graph: Arc<Graph>,
    crashes: Vec<(NodeId, SimTime)>,
    sim: SimConfig,
    protocol: ProtocolConfig,
    multicast: MulticastMode,
}

impl ScenarioBuilder {
    fn new(graph: Graph) -> Self {
        ScenarioBuilder {
            name: "unnamed".to_owned(),
            graph: Arc::new(graph),
            crashes: Vec::new(),
            // Record traces by default: scenarios are the unit of
            // correctness checking. Benches override for speed.
            sim: SimConfig::default().with_trace(),
            protocol: ProtocolConfig::default(),
            multicast: MulticastMode::Atomic,
        }
    }

    /// Names the scenario.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Schedules `node` to crash at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not in the graph.
    pub fn crash(mut self, node: NodeId, at: SimTime) -> Self {
        assert!(
            self.graph.contains(node),
            "crash target {node} not in graph"
        );
        self.crashes.push((node, at));
        self
    }

    /// Schedules a batch of crashes.
    pub fn crashes<I: IntoIterator<Item = (NodeId, SimTime)>>(mut self, crashes: I) -> Self {
        for (node, at) in crashes {
            self = self.crash(node, at);
        }
        self
    }

    /// Sets the random seed (latency sampling).
    pub fn seed(mut self, seed: u64) -> Self {
        self.sim.seed = seed;
        self
    }

    /// Replaces the whole simulator configuration.
    pub fn sim_config(mut self, sim: SimConfig) -> Self {
        self.sim = sim;
        self
    }

    /// Sets the protocol configuration.
    pub fn protocol(mut self, protocol: ProtocolConfig) -> Self {
        self.protocol = protocol;
        self
    }

    /// Sets the multicast realization (see [`MulticastMode`]).
    pub fn multicast(mut self, multicast: MulticastMode) -> Self {
        self.multicast = multicast;
        self
    }

    /// Finalizes the scenario.
    ///
    /// Duplicate crash entries for the same node are folded here to a
    /// single entry at the **earliest** scheduled time, keeping
    /// first-occurrence order. The simulator and the report historically
    /// disagreed on duplicates (the event queue kept both crash events
    /// while `RunReport::crashed` folded to the earliest); deduplicating
    /// at the seal point makes every consumer — event queue, failure
    /// detector, reports, batch variants — see the same schedule.
    pub fn build(self) -> Scenario {
        let mut crashes: Vec<(NodeId, SimTime)> = Vec::with_capacity(self.crashes.len());
        let mut index: BTreeMap<NodeId, usize> = BTreeMap::new();
        for (node, at) in self.crashes {
            match index.get(&node) {
                Some(&i) => crashes[i].1 = crashes[i].1.min(at),
                None => {
                    index.insert(node, crashes.len());
                    crashes.push((node, at));
                }
            }
        }
        Scenario {
            name: self.name,
            graph: self.graph,
            crashes,
            sim: self.sim,
            protocol: self.protocol,
            multicast: self.multicast,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use precipice_graph::path;

    #[test]
    fn path_scenario_decides() {
        let scenario = Scenario::builder(path(3))
            .name("path3")
            .crash(NodeId(1), SimTime::from_millis(1))
            .build();
        let report = scenario.exec(Exec::new()).report;
        assert!(report.outcome.is_quiescent());
        assert_eq!(report.decisions.len(), 2);
        let d0 = &report.decisions[&NodeId(0)];
        let d2 = &report.decisions[&NodeId(2)];
        assert_eq!(d0.view, d2.view);
        assert_eq!(d0.value, d2.value);
        assert_eq!(d0.value, NodeId(0));
    }

    #[test]
    fn same_scenario_same_trace_hash() {
        use precipice_sim::{LatencyModel, SimConfig};
        let build = || {
            // Jittery latencies so the seed actually shapes the schedule.
            let sim = SimConfig {
                latency: LatencyModel::lan_like(),
                fd_latency: LatencyModel::Uniform {
                    min: SimTime::from_millis(1),
                    max: SimTime::from_millis(20),
                },
                ..SimConfig::default().with_trace()
            };
            Scenario::builder(precipice_graph::ring(8))
                .crash(NodeId(2), SimTime::from_millis(1))
                .crash(NodeId(3), SimTime::from_millis(4))
                .sim_config(sim)
                .seed(7)
                .build()
        };
        let r1 = build().exec(Exec::new()).report;
        let r2 = build().exec(Exec::new()).report;
        assert_eq!(r1.trace_hash, r2.trace_hash);
        assert_eq!(r1.metrics.messages_sent(), r2.metrics.messages_sent());
        let r3 = {
            let mut s = build();
            s.sim.seed = 8;
            s.exec(Exec::new()).report
        };
        assert_ne!(r1.trace_hash, r3.trace_hash);
    }

    #[test]
    fn report_accessors() {
        let scenario = Scenario::builder(path(4))
            .crash(NodeId(1), SimTime::from_millis(1))
            .crash(NodeId(2), SimTime::from_millis(2))
            .build();
        let report = scenario.exec(Exec::new()).report;
        assert!(report.is_faulty(NodeId(1)));
        assert!(!report.is_faulty(NodeId(0)));
        assert_eq!(report.correct_nodes().count(), 2);
        assert!(report.total_messages() > 0);
        assert!(report.last_decision_at().is_some());
        assert_eq!(report.decided_regions().len(), 1);
        assert!(report.message_pairs.is_some());
    }

    #[test]
    #[should_panic(expected = "not in graph")]
    fn crash_target_must_exist() {
        let _ = Scenario::builder(path(2)).crash(NodeId(9), SimTime::ZERO);
    }

    #[test]
    fn duplicate_crashes_fold_to_earliest_at_build_time() {
        let once = Scenario::builder(path(4))
            .crash(NodeId(2), SimTime::from_millis(2))
            .crash(NodeId(1), SimTime::from_millis(7))
            .build();
        let twice = Scenario::builder(path(4))
            .crash(NodeId(2), SimTime::from_millis(5))
            .crash(NodeId(1), SimTime::from_millis(7))
            .crash(NodeId(2), SimTime::from_millis(2))
            .crash(NodeId(2), SimTime::from_millis(9))
            .build();
        // First-occurrence order, earliest time per node.
        assert_eq!(twice.crashes, once.crashes);
        // And the runs agree on every observable.
        let a = once.exec(Exec::new());
        let b = twice.exec(Exec::new());
        assert_eq!(a.report.trace_hash, b.report.trace_hash);
        assert_eq!(a.report.crashed, b.report.crashed);
        assert_eq!(a.report.metrics, b.report.metrics);
    }

    /// One engine, two ways in: the "lazy" arm is a fresh one-slot
    /// `exec`, the "batched" arm the same job in the last slot of a
    /// reused four-slot runner — arena reuse and lockstep interleaving
    /// must leak nothing into it.
    #[test]
    fn batched_engine_matches_lazy_engine() {
        use precipice_sim::SchedulePolicy;
        let scenario = Scenario::builder(precipice_graph::ring(8))
            .crash(NodeId(2), SimTime::from_millis(1))
            .crash(NodeId(3), SimTime::from_millis(4))
            .seed(7)
            .build();
        let mut runner = BatchRunner::with_default_policy(&scenario, 4);
        for policy in [
            SchedulePolicy::Fifo,
            SchedulePolicy::Random(5),
            SchedulePolicy::Pcr(9),
        ] {
            let lazy = scenario.exec(Exec::new().schedule(policy.clone()));
            let mut jobs: Vec<BatchJob> = (0..3)
                .map(|i| BatchJob {
                    seed: 100 + i,
                    policy: SchedulePolicy::Random(i),
                })
                .collect();
            jobs.push(BatchJob {
                seed: scenario.sim.seed,
                policy,
            });
            let batched = runner.run(&jobs).pop().expect("four jobs in");
            assert_eq!(lazy.report.trace_hash, batched.report.trace_hash);
            assert_eq!(lazy.report.metrics, batched.report.metrics);
            assert_eq!(lazy.report.decisions, batched.report.decisions);
            assert_eq!(lazy.report.stats, batched.report.stats);
            assert_eq!(lazy.report.message_pairs, batched.report.message_pairs);
            assert_eq!(lazy.schedule, batched.schedule);
        }
    }
}
