//! Differential tests: the lazy, footprint-proportional start that
//! [`Scenario::exec`] runs on (spawn-on-demand processes, graph-backed
//! failure detection) must be **byte-identical** to an eager start
//! (all `n` processes pre-built, `on_start` at time zero, explicit
//! subscriptions) on every observable: trace hash, metrics, decisions,
//! per-node stats, and the recorded schedule, across seeds ×
//! topologies × [`SchedulePolicy`]s.
//!
//! There is no eager *engine* any more — eager is just how
//! [`Simulation::with_policy`] starts the one slot engine — so the
//! eager arm is assembled here from public pieces: a
//! [`ProtocolProcess`] over a [`CliffEdgeNode`] for every node of the
//! scenario's graph, and the scenario's crash schedule.
//!
//! This is the executable form of the equivalence argument: cliff-edge
//! `on_start` only monitors `border(me)`, which the graph-backed
//! detector resolves structurally at crash time, so deferring a node's
//! construction to its first event changes nothing the run can observe.

use std::sync::Arc;

use precipice_core::{CliffEdgeNode, NodeIdValuePolicy};
use precipice_graph::rng::cases;
use precipice_graph::{random_geometric_connected, ring, torus, Graph, GridDims, NodeId};
use precipice_runtime::{Exec, ExecOutcome, ProtocolProcess, Scenario};
use precipice_sim::{SchedulePolicy, SimTime, Simulation};

#[derive(Debug, Clone, Copy)]
enum Topo {
    Torus,
    Ring,
    Geometric,
}

/// A connected blob of `k` nodes grown breadth-first from `seed_node`
/// (the workload crate's `blob_of_size`, inlined — runtime sits below
/// workload in the dependency order).
fn blob_of_size(graph: &Graph, seed_node: NodeId, k: usize) -> Vec<NodeId> {
    let mut blob = vec![seed_node];
    let mut cursor = 0;
    while blob.len() < k && cursor < blob.len() {
        let p = blob[cursor];
        cursor += 1;
        for &q in graph.neighbors(p) {
            if blob.len() >= k {
                break;
            }
            if !blob.contains(&q) {
                blob.push(q);
            }
        }
    }
    blob.sort_unstable();
    blob
}

fn build_graph(topo: Topo, n: usize) -> Graph {
    match topo {
        Topo::Torus => {
            let side = (n as f64).sqrt().ceil().max(3.0) as usize;
            torus(GridDims::square(side))
        }
        Topo::Ring => ring(n.max(4)),
        Topo::Geometric => random_geometric_connected(n.max(8), 0.35, 42),
    }
}

fn build_scenario(topo: Topo, n: usize, k: usize, gap_ms: u64, seed: u64) -> Scenario {
    let graph = build_graph(topo, n);
    let center = NodeId((graph.len() / 2) as u32);
    let region = blob_of_size(&graph, center, k.min(graph.len() / 3).max(1));
    let crashes: Vec<(NodeId, SimTime)> = region
        .iter()
        .enumerate()
        .map(|(i, &p)| (p, SimTime::from_millis(1 + gap_ms * i as u64)))
        .collect();
    Scenario::builder(graph)
        .name("lazy-vs-eager")
        .crashes(crashes)
        .seed(seed)
        .sim_config(precipice_sim::SimConfig {
            seed,
            latency: precipice_sim::LatencyModel::Uniform {
                min: SimTime::from_micros(200),
                max: SimTime::from_millis(2),
            },
            fd_latency: precipice_sim::LatencyModel::Uniform {
                min: SimTime::from_millis(1),
                max: SimTime::from_millis(5),
            },
            record_trace: true,
            max_events: Some(5_000_000),
        })
        .build()
}

/// Runs `scenario` under `policy` with an eager start — every process
/// built up front — and requires `lazy`, an `exec` outcome of the same
/// scenario, to agree with it on everything both expose.
fn assert_matches_eager(scenario: &Scenario, policy: SchedulePolicy, lazy: &ExecOutcome<NodeId>) {
    let processes: Vec<ProtocolProcess<NodeIdValuePolicy>> = scenario
        .graph
        .nodes()
        .map(|me| {
            let graph = Arc::clone(&scenario.graph);
            let node = CliffEdgeNode::new(me, graph, NodeIdValuePolicy, scenario.protocol);
            ProtocolProcess::with_multicast_mode(node, scenario.multicast)
        })
        .collect();
    let mut eager = Simulation::with_policy(scenario.sim, processes, policy);
    for &(node, at) in &scenario.crashes {
        eager.schedule_crash(node, at);
    }
    assert_eq!(lazy.report.outcome, eager.run());
    assert_eq!(eager.processes().count(), scenario.graph.len());
    assert_eq!(
        lazy.report.trace_hash,
        eager.trace().hash(),
        "trace diverged"
    );
    assert_eq!(&lazy.report.metrics, eager.metrics());
    let recorded = eager.recorded_schedule().unwrap_or_default();
    assert_eq!(&lazy.schedule, &recorded, "recorded schedules diverged");
    for (id, p) in eager.processes() {
        let decision = p.decision().map(|(view, value, at)| (view, value, at));
        let lazy_decision = lazy.report.decisions.get(&id);
        assert_eq!(
            decision,
            lazy_decision.map(|d| (&d.view, &d.value, &d.at)),
            "{}",
            id
        );
        // Reports keep non-default stats only.
        let lazy_stats = lazy.report.stats.get(&id).copied().unwrap_or_default();
        assert_eq!(*p.node().stats(), lazy_stats, "{}", id);
    }
}

#[test]
fn lazy_runs_are_byte_identical_to_eager() {
    cases("lazy_runs_are_byte_identical_to_eager", 32, |rng| {
        let topo = [Topo::Torus, Topo::Ring, Topo::Geometric][rng.gen_range(0..3usize)];
        let n = rng.gen_range(9..64);
        let k = rng.gen_range(1..6);
        let gap_ms = [0, 2, 30][rng.gen_range(0..3usize)];
        let seed = rng.next_u64();
        let policy_seed = rng.next_u64();
        let policy = match rng.gen_range(0..3usize) {
            0 => SchedulePolicy::Fifo,
            1 => SchedulePolicy::Random(policy_seed),
            _ => SchedulePolicy::Pcr(policy_seed),
        };
        let scenario = build_scenario(topo, n, k, gap_ms, seed);
        let lazy = scenario.exec(Exec::new().schedule(policy.clone()));
        assert_matches_eager(&scenario, policy, &lazy);
    });
}

/// Replaying a lazily-recorded schedule through an eager start
/// reproduces the run — recorded schedules are
/// representation-independent.
#[test]
fn recorded_schedules_replay_across_runners() {
    cases("recorded_schedules_replay_across_runners", 32, |rng| {
        let n = rng.gen_range(9..36);
        let k = rng.gen_range(1..4);
        let seed = rng.next_u64();
        let policy_seed = rng.next_u64();
        let scenario = build_scenario(Topo::Torus, n, k, 2, seed);
        let lazy = scenario.exec(Exec::new().schedule(SchedulePolicy::Random(policy_seed)));
        let replay = SchedulePolicy::Replay(lazy.schedule.clone());
        assert_matches_eager(&scenario, replay.clone(), &lazy);
        let lazy_replay = scenario.exec(Exec::new().schedule(replay));
        assert_eq!(lazy_replay.report.trace_hash, lazy.report.trace_hash);
        assert_eq!(lazy_replay.schedule, lazy.schedule);
    });
}

/// A border node that never sends or receives a protocol message before
/// the crash — i.e. is never activated until its notification arrives —
/// still observes the crash exactly once, and its stats say so.
#[test]
fn never_activated_border_node_gets_exactly_one_notification() {
    let graph = ring(12);
    let scenario = Scenario::builder(graph)
        .name("fd-static")
        .crash(NodeId(6), SimTime::from_millis(1))
        .build();
    let report = scenario.exec(Exec::new()).report;
    assert!(report.outcome.is_quiescent());
    for border in [NodeId(5), NodeId(7)] {
        let stats = report.stats[&border];
        assert_eq!(
            stats.crashes_detected, 1,
            "{border} must see the crash exactly once"
        );
    }
    // Nodes away from the crash never activated: no stats entries.
    assert!(!report.stats.contains_key(&NodeId(0)));
    assert!(!report.stats.contains_key(&NodeId(11)));
    // And the run decided on the crashed region.
    assert_eq!(report.decisions.len(), 2);
}
