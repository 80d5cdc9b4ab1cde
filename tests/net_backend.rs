//! Integration tests of the live runtime (E8): the same sans-io core
//! under genuine concurrency still honors the specification, reports
//! exactly what the simulator reports on schedule-independent
//! scenarios, and — gated — runs the schedules the simulator runs,
//! order-dependent ones included, to the same observables.

use std::time::Duration;

use precipice::consensus::{ProtocolConfig, ProtocolStats, View};
use precipice::graph::rng::SplitMix;
use precipice::graph::{
    is_connected_subset, path, random_tree, ring, torus, Graph, GridDims, NodeId, Region,
};
use precipice::net::{live_consistent, LiveReport, ShardedCluster};
use precipice::runtime::{Engine, Exec, ExecOutcome, RunReport, Scenario};
use precipice::sim::SimTime;
use precipice::sim::{EventKey, GuidedSpec, LatencyModel, Schedule, SchedulePolicy, SimConfig};

// Generous: live tests share the machine with whatever else is running
// (e.g. the other test binaries in CI).
const TIMEOUT: Duration = Duration::from_secs(120);

/// Runs `kills` on the sharded runtime to quiescence.
fn run_live(graph: &Graph, config: ProtocolConfig, kills: &[NodeId], shards: usize) -> LiveReport {
    let mut cluster = ShardedCluster::start(graph.clone(), config, shards);
    for &k in kills {
        cluster.kill(k);
    }
    assert!(cluster.await_quiescence(TIMEOUT));
    cluster.shutdown()
}

/// Runs `kills` on the simulator and re-expresses its report in the
/// live runtime's shape.
fn run_sim(graph: &Graph, config: ProtocolConfig, kills: &[NodeId]) -> LiveReport {
    let report = Scenario::builder(graph.clone())
        .crashes(kills.iter().map(|&k| (k, SimTime::from_millis(1))))
        .protocol(config)
        .build()
        .exec(Exec::new())
        .report;
    assert!(report.outcome.is_quiescent());
    LiveReport {
        decisions: report
            .decisions
            .into_iter()
            .map(|(node, d)| (node, (d.view, d.value)))
            .collect(),
        stats: report.stats,
        killed: report.crashed.into_keys().collect(),
    }
}

/// Spec check for live reports (no trace is available, so CD3 is out of
/// scope; CD2/CD5/CD6 are checkable from decisions alone).
fn assert_live_consistent(report: &LiveReport, graph: &Graph, killed: &[NodeId]) {
    assert_eq!(report.killed, killed.iter().copied().collect());
    assert!(live_consistent(report, graph), "{report:?}");
    for (node, (view, _)) in &report.decisions {
        assert!(
            is_connected_subset(graph, view.region()),
            "{node} decided a disconnected region"
        );
    }
}

#[test]
fn live_single_region_deterministic_outcome() {
    let graph = torus(GridDims::square(4));
    let report = run_live(&graph, ProtocolConfig::default(), &[NodeId(9)], 3);
    assert_live_consistent(&report, &graph, &[NodeId(9)]);
    let region: Region = [NodeId(9)].into_iter().collect();
    let border = graph.border_of(region.iter());
    assert_eq!(report.decisions.len(), border.len(), "whole border decides");
    for b in border {
        assert_eq!(report.decisions[&b].0.region(), &region);
    }
}

#[test]
fn live_two_disjoint_regions() {
    let graph = path(9);
    let kills = [NodeId(2), NodeId(6)];
    let report = run_live(&graph, ProtocolConfig::default(), &kills, 3);
    assert_live_consistent(&report, &graph, &kills);
    assert_eq!(report.decisions.len(), 4, "both borders decide");
}

#[test]
fn live_adjacent_kills_under_optimized_config() {
    let graph = torus(GridDims::square(5));
    let killed = [NodeId(7), NodeId(8), NodeId(12)];
    let report = run_live(&graph, ProtocolConfig::optimized(), &killed, 4);
    assert_live_consistent(&report, &graph, &killed);
    assert!(!report.decisions.is_empty(), "cluster-level progress");
}

#[test]
fn live_repeated_runs_stay_consistent() {
    // Thread scheduling differs run to run; the spec may not.
    for round in 0..3 {
        let graph = torus(GridDims::square(4));
        let killed = [NodeId(5), NodeId(6)];
        let report = run_live(&graph, ProtocolConfig::default(), &killed, 2 + round);
        assert_live_consistent(&report, &graph, &killed);
        assert!(!report.decisions.is_empty(), "round {round}");
    }
}

#[test]
fn live_kill_before_any_subscription_settles() {
    // Kill two neighbours back to back, before anything ran: each is
    // an implicit observer of the other, and whoever learns of the
    // first crash and then monitors the second must still be told.
    let graph = path(4);
    let kills = [NodeId(1), NodeId(2)];
    let report = run_live(&graph, ProtocolConfig::default(), &kills, 1);
    assert_live_consistent(&report, &graph, &kills);
    assert!(!report.decisions.is_empty());
}

#[test]
fn sharded_single_region_deterministic_outcome() {
    let graph = torus(GridDims::square(4));
    let report = run_live(&graph, ProtocolConfig::default(), &[NodeId(9)], 2);
    assert_live_consistent(&report, &graph, &[NodeId(9)]);
    let region: Region = [NodeId(9)].into_iter().collect();
    let border = graph.border_of(region.iter());
    assert_eq!(report.decisions.len(), border.len(), "whole border decides");
}

/// The name is historical: the reference was a thread-per-node backend,
/// now retired. The reference is the simulator, which shares the sans-io
/// `CliffEdgeNode` and the failure-detector policy
/// (`precipice_core::FailureDetector`, pinned by its own model-checked
/// tests) with the sharded runtime; the transport is implemented
/// independently on the two sides. On
/// schedule-independent scenarios decisions, values, `ProtocolStats`
/// and the killed set must be equal, under both configs, at 1 and 4
/// shards.
#[test]
fn sharded_matches_threaded_on_single_kill() {
    let cases: [(Graph, &[NodeId]); 2] = [
        (torus(GridDims::square(4)), &[NodeId(9)]),
        (path(9), &[NodeId(2), NodeId(6)]),
    ];
    for (graph, kills) in &cases {
        for config in [ProtocolConfig::faithful(), ProtocolConfig::optimized()] {
            let reference = run_sim(graph, config, kills);
            assert_eq!(reference.decisions.len(), 4, "whole border decides");
            for shards in [1, 4] {
                assert_eq!(
                    reference,
                    run_live(graph, config, kills, shards),
                    "{kills:?}, {shards} shards, {config:?}"
                );
            }
        }
    }
}

#[test]
fn live_engine_exec_report_is_checkable() {
    use precipice::runtime::check_spec;
    use precipice::runtime::exec::Engine;

    let scenario = Scenario::builder(torus(GridDims::square(4)))
        .crash(NodeId(9), SimTime::from_millis(1))
        .build();
    let report = scenario
        .exec(Exec::new().engine(Engine::Live { shards: 2 }))
        .report;
    assert!(report.outcome.is_quiescent());
    assert_eq!(report.decisions.len(), 4);
    assert!(check_spec(&report).is_empty());
}

/// The gated live engine, as `check --backend live` runs it.
const GATED: Engine = Engine::Live { shards: 2 };

/// What two engines must agree on after one schedule: each surviving
/// node's decision and `ProtocolStats`, and the messages sent. (The live
/// runtime reports surviving nodes only, where the simulator also keeps
/// the nodes that crashed after acting, so those are left out.)
type Observables = (
    Vec<(NodeId, View, NodeId)>,
    Vec<(NodeId, ProtocolStats)>,
    u64,
);

fn observables(report: &RunReport<NodeId>) -> Observables {
    let alive = |node: &NodeId| !report.crashed.contains_key(node);
    let decisions = report.decisions.iter().filter(|(n, _)| alive(n));
    let stats = report.stats.iter().filter(|(n, _)| alive(n));
    (
        decisions
            .map(|(&n, d)| (n, d.view.clone(), d.value))
            .collect(),
        stats.map(|(&n, &s)| (n, s)).collect(),
        report.metrics.messages_sent(),
    )
}

/// One run of `scenario` under `policy` on `engine`.
fn run(scenario: &Scenario, policy: SchedulePolicy, engine: Engine) -> ExecOutcome<NodeId> {
    scenario.exec(Exec::new().schedule(policy).engine(engine))
}

/// sim ≡ gated live on schedules that depend on order. Under
/// `Random(s)` both engines draw one stream over the same seq-sorted
/// frontier — the crash injections first, then every post in the order
/// it was made — so they run the same events in the same order whatever
/// the crash times and latencies, and must end alike.
#[test]
fn random_schedules_agree_across_engines() {
    let mut rng = SplitMix::new(30);
    for seed in 0..256u64 {
        let graph = match seed % 5 {
            0 => path(9),
            1 => ring(10),
            2 => torus(GridDims::square(4)),
            3 => torus(GridDims::square(5)),
            _ => random_tree(16, seed),
        };
        let n = graph.len();
        let crashes: Vec<(NodeId, SimTime)> = (0..1 + rng.below(3))
            .map(|_| {
                let at = SimTime::from_micros(rng.below(4000) as u64);
                (NodeId(rng.below(n) as u32), at)
            })
            .collect();
        let scenario = Scenario::builder(graph).crashes(crashes).seed(seed).build();
        let sim = run(&scenario, SchedulePolicy::Random(seed), Engine::Sim);
        let live = run(&scenario, SchedulePolicy::Random(seed), GATED);
        assert_eq!(
            observables(&sim.report),
            observables(&live.report),
            "seed {seed}, crashes {:?}",
            scenario.crashes
        );
    }
}

/// With zero message and detector latency and simultaneous crashes,
/// every event the simulator holds is due at one instant, so its FIFO
/// choice — the `(at, seq)` minimum — is its earliest enabled event,
/// as the gate's is. Then every policy records the same schedule on
/// both engines, and a schedule recorded on either replays on the
/// other to the same observables.
#[test]
fn zero_latency_schedules_are_engine_independent() {
    let instant = SimConfig {
        latency: LatencyModel::Constant(SimTime::ZERO),
        fd_latency: LatencyModel::Constant(SimTime::ZERO),
        ..SimConfig::default().with_trace()
    };
    let cases: [(Graph, &[u32]); 4] = [
        (path(9), &[3, 4]),
        (ring(10), &[2, 3, 7]),
        (torus(GridDims::square(4)), &[5, 6]),
        (torus(GridDims::square(5)), &[6, 7, 12]),
    ];
    for (graph, kills) in cases {
        let scenario = Scenario::builder(graph)
            .crashes(kills.iter().map(|&k| (NodeId(k), SimTime::ZERO)))
            .sim_config(instant)
            .build();
        let (first, last) = (kills[0], kills[kills.len() - 1]);
        for seed in 0..6 {
            let recorded = run(&scenario, SchedulePolicy::Random(seed), Engine::Sim).schedule;
            let half = recorded.deviations[..recorded.len() / 2].to_vec();
            let guided = GuidedSpec {
                base: Schedule::new(half),
                seed,
                flip: Some((
                    EventKey::Crash {
                        node: NodeId(first),
                    },
                    EventKey::Crash { node: NodeId(last) },
                )),
            };
            for policy in [
                SchedulePolicy::Random(seed),
                SchedulePolicy::Pcr(seed),
                SchedulePolicy::Replay(recorded.clone()),
                SchedulePolicy::Guided(guided),
            ] {
                let what = format!("kills {kills:?} under {policy:?}");
                let sim = run(&scenario, policy.clone(), Engine::Sim);
                let live = run(&scenario, policy, GATED);
                assert_eq!(sim.schedule, live.schedule, "{what}");
                assert_eq!(
                    observables(&sim.report),
                    observables(&live.report),
                    "{what}"
                );
                // Each engine's recording replays on the other.
                for (recorded, engine, want) in [
                    (&sim.schedule, GATED, &sim.report),
                    (&live.schedule, Engine::Sim, &live.report),
                ] {
                    let replayed = run(&scenario, SchedulePolicy::Replay(recorded.clone()), engine);
                    assert_eq!(&replayed.schedule, recorded, "{what}, replayed");
                    assert_eq!(
                        observables(&replayed.report),
                        observables(want),
                        "{what}, replayed on {engine:?}"
                    );
                }
            }
        }
    }
}
