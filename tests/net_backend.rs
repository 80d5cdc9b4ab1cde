//! Integration tests of the live backends (E8): the same sans-io core
//! under genuine concurrency still honors the specification — on the
//! thread-per-node reference and on the sharded event-loop runtime,
//! which must agree with each other on schedule-independent scenarios.

use std::time::Duration;

use precipice::consensus::ProtocolConfig;
use precipice::graph::{path, torus, GridDims, NodeId, Region};
use precipice::net::LiveCluster;

// Generous: live tests share the machine with whatever else is running
// (e.g. `cargo bench` in CI).
const TIMEOUT: Duration = Duration::from_secs(120);

/// Mini spec-checker for live reports (no trace is available, so CD3 is
/// out of scope; CD2/CD5/CD6 are checkable from decisions alone).
fn assert_live_consistent(
    report: &precipice::net::LiveReport,
    graph: &precipice::graph::Graph,
    killed: &[NodeId],
) {
    for (node, (view, _)) in &report.decisions {
        // CD2: only killed nodes in views; decider on the border.
        for m in view.region().iter() {
            assert!(killed.contains(&m), "{node} decided live node {m}");
        }
        assert!(view.border().contains(*node));
        assert!(precipice::graph::is_connected_subset(graph, view.region()));
    }
    let ds: Vec<_> = report.decisions.iter().collect();
    for (i, (p, (vp, dp))) in ds.iter().enumerate() {
        for (q, (vq, dq)) in ds.iter().skip(i + 1) {
            if vp.region() == vq.region() {
                assert_eq!(vp, vq, "{p}/{q} same region, different borders");
                assert_eq!(dp, dq, "{p}/{q} CD5 violation");
            } else {
                assert!(
                    !vp.region().intersects(vq.region()),
                    "{p}/{q} CD6 violation"
                );
            }
        }
    }
}

#[test]
fn live_single_region_deterministic_outcome() {
    let graph = torus(GridDims::square(4));
    let mut cluster = LiveCluster::start(graph.clone(), ProtocolConfig::default());
    cluster.kill(NodeId(9));
    assert!(cluster.await_quiescence(TIMEOUT));
    let report = cluster.shutdown();
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
    let mut cluster = LiveCluster::start(graph.clone(), ProtocolConfig::default());
    cluster.kill(NodeId(2));
    cluster.kill(NodeId(6));
    assert!(cluster.await_quiescence(TIMEOUT));
    let report = cluster.shutdown();
    assert_live_consistent(&report, &graph, &[NodeId(2), NodeId(6)]);
    assert_eq!(report.decisions.len(), 4, "both borders decide");
}

#[test]
fn live_adjacent_kills_under_optimized_config() {
    let graph = torus(GridDims::square(5));
    let killed = [NodeId(7), NodeId(8), NodeId(12)];
    let mut cluster = LiveCluster::start(graph.clone(), ProtocolConfig::optimized());
    for k in killed {
        cluster.kill(k);
    }
    assert!(cluster.await_quiescence(TIMEOUT));
    let report = cluster.shutdown();
    assert_live_consistent(&report, &graph, &killed);
    assert!(!report.decisions.is_empty(), "cluster-level progress");
}

#[test]
fn live_repeated_runs_stay_consistent() {
    // Thread scheduling differs run to run; the spec may not.
    for round in 0..3 {
        let graph = torus(GridDims::square(4));
        let killed = [NodeId(5), NodeId(6)];
        let mut cluster = LiveCluster::start(graph.clone(), ProtocolConfig::default());
        for k in killed {
            cluster.kill(k);
        }
        assert!(cluster.await_quiescence(TIMEOUT), "round {round}");
        let report = cluster.shutdown();
        assert_live_consistent(&report, &graph, &killed);
        assert!(!report.decisions.is_empty(), "round {round}");
    }
}

#[test]
fn live_kill_before_any_subscription_settles() {
    // Kill immediately after start: the detector's
    // subscribe-after-crash path must still deliver notifications.
    let graph = path(4);
    let mut cluster = LiveCluster::start(graph.clone(), ProtocolConfig::default());
    cluster.kill(NodeId(1));
    cluster.kill(NodeId(2));
    assert!(cluster.await_quiescence(TIMEOUT));
    let report = cluster.shutdown();
    assert_live_consistent(&report, &graph, &[NodeId(1), NodeId(2)]);
    assert!(!report.decisions.is_empty());
}

#[test]
fn sharded_single_region_deterministic_outcome() {
    let graph = torus(GridDims::square(4));
    let mut cluster =
        precipice::net::ShardedCluster::start(graph.clone(), ProtocolConfig::default(), 2);
    cluster.kill(NodeId(9));
    assert!(cluster.await_quiescence(TIMEOUT));
    let report = cluster.shutdown();
    assert_live_consistent(&report, &graph, &[NodeId(9)]);
    assert!(precipice::net::live_consistent(&report, &graph));
    let region: Region = [NodeId(9)].into_iter().collect();
    let border = graph.border_of(region.iter());
    assert_eq!(report.decisions.len(), border.len(), "whole border decides");
}

#[test]
fn sharded_matches_threaded_on_single_kill() {
    let run_threaded = || {
        let mut c = LiveCluster::start(torus(GridDims::square(4)), ProtocolConfig::default());
        c.kill(NodeId(9));
        assert!(c.await_quiescence(TIMEOUT));
        c.shutdown()
    };
    let run_sharded = |shards| {
        let mut c = precipice::net::ShardedCluster::start(
            torus(GridDims::square(4)),
            ProtocolConfig::default(),
            shards,
        );
        c.kill(NodeId(9));
        assert!(c.await_quiescence(TIMEOUT));
        c.shutdown()
    };
    let reference = run_threaded();
    assert_eq!(reference, run_sharded(1));
    assert_eq!(reference, run_sharded(3));
}

#[test]
fn live_engine_exec_report_is_checkable() {
    use precipice::runtime::exec::Engine;
    use precipice::runtime::{check_spec, Exec, Scenario};
    use precipice::sim::SimTime;

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
