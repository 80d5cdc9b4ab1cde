use std::collections::{BTreeMap, BTreeSet};

use precipice_core::{ProtocolStats, View};
use precipice_graph::NodeId;

/// Final state of a live run, collected by
/// [`ShardedCluster::shutdown`](crate::ShardedCluster::shutdown).
///
/// Generic over the decision value so exec-API policies carry over; the
/// default is the coordinator-election policy's [`NodeId`]. Decisions
/// and protocol counters are reported for surviving nodes that did
/// protocol work (untouched nodes contribute nothing) — the same shape
/// the simulator's report has, which is what the differential suites
/// compare field for field.
#[derive(Debug, PartialEq, Eq)]
pub struct LiveReport<V = NodeId> {
    /// Decisions per deciding node (view and agreed value).
    pub decisions: BTreeMap<NodeId, (View, V)>,
    /// Protocol counters per surviving node that did any protocol work.
    pub stats: BTreeMap<NodeId, ProtocolStats>,
    /// Nodes killed during the run.
    pub killed: BTreeSet<NodeId>,
}

#[cfg(test)]
mod tests {
    use std::time::{Duration, Instant};

    use precipice_core::ProtocolConfig;
    use precipice_graph::{path, torus, Graph, GridDims, NodeId, Region};

    use crate::{live_consistent, ShardedCluster};

    const TIMEOUT: Duration = Duration::from_secs(20);

    fn start(graph: Graph, config: ProtocolConfig) -> ShardedCluster {
        ShardedCluster::start(graph, config, 3)
    }

    #[test]
    fn live_path_agreement() {
        let mut cluster = start(path(3), ProtocolConfig::default());
        cluster.kill(NodeId(1));
        assert!(
            cluster.await_quiescence(TIMEOUT),
            "cluster must go quiescent"
        );
        let report = cluster.shutdown();
        assert_eq!(report.decisions.len(), 2);
        let d0 = &report.decisions[&NodeId(0)];
        let d2 = &report.decisions[&NodeId(2)];
        assert_eq!(d0, d2);
        assert_eq!(d0.0.region(), &Region::from_iter([NodeId(1)]));
        assert_eq!(d0.1, NodeId(0));
    }

    #[test]
    fn live_single_region_full_border_agreement() {
        // A single kill is schedule-independent: the whole border of {5}
        // must decide on exactly {5} with the same value.
        let mut cluster = start(torus(GridDims::square(4)), ProtocolConfig::default());
        cluster.kill(NodeId(5));
        assert!(cluster.await_quiescence(TIMEOUT));
        let report = cluster.shutdown();
        let region = Region::from_iter([NodeId(5)]);
        let first = report
            .decisions
            .values()
            .next()
            .expect("someone decided")
            .clone();
        assert_eq!(first.0.region(), &region);
        for (node, d) in &report.decisions {
            assert_eq!(d, &first, "{node} disagrees");
        }
        for b in first.0.border().iter() {
            assert!(
                report.decisions.contains_key(&b),
                "border node {b} must decide"
            );
        }
    }

    /// Two concurrent kills of adjacent nodes: the outcome is
    /// schedule-dependent (the border of {5} may agree before 6's crash
    /// is detectable — the paper's weak Progress explicitly allows the
    /// grown region to then starve), so assert the *specification*, not
    /// one outcome: accuracy, uniform agreement, convergence, progress.
    #[test]
    fn live_adjacent_kills_satisfy_spec() {
        let graph = torus(GridDims::square(4));
        let mut cluster = start(graph.clone(), ProtocolConfig::default());
        cluster.kill(NodeId(5));
        cluster.kill(NodeId(6));
        assert!(cluster.await_quiescence(TIMEOUT));
        assert_eq!(cluster.pending(), 0);
        let report = cluster.shutdown();

        // CD7 (cluster-level progress): at least one correct node decided.
        assert!(!report.decisions.is_empty(), "nobody decided");
        // CD2, CD5, CD6 from the decisions alone.
        assert!(live_consistent(&report, &graph), "{report:?}");
    }

    #[test]
    fn distant_regions_decide_independently() {
        // {1} and {5} on a 7-path have disjoint borders: both
        // agreements must complete regardless of interleaving.
        let mut cluster = start(path(7), ProtocolConfig::optimized());
        cluster.kill(NodeId(1));
        cluster.kill(NodeId(5));
        assert!(cluster.await_quiescence(TIMEOUT));
        let report = cluster.shutdown();
        let r1 = Region::from_iter([NodeId(1)]);
        let r5 = Region::from_iter([NodeId(5)]);
        assert_eq!(report.decisions[&NodeId(0)].0.region(), &r1);
        assert_eq!(report.decisions[&NodeId(2)].0.region(), &r1);
        assert_eq!(report.decisions[&NodeId(4)].0.region(), &r5);
        assert_eq!(report.decisions[&NodeId(6)].0.region(), &r5);
        assert_eq!(report.decisions[&NodeId(0)].1, NodeId(0));
        assert_eq!(report.decisions[&NodeId(4)].1, NodeId(4));
    }

    /// A kill issued immediately after start races the shard threads'
    /// start-up (some may not have been scheduled at all yet). Its
    /// notifications are charged and queued in the rings all the same,
    /// so the counter cannot reach zero — and quiescence cannot be
    /// declared — with agreements still ahead.
    #[test]
    fn kill_racing_startup_still_reaches_full_agreement() {
        let mut cluster = start(torus(GridDims::square(4)), ProtocolConfig::default());
        // No sleep: the kill lands before most shard threads ran.
        cluster.kill(NodeId(5));
        assert!(cluster.await_quiescence(TIMEOUT));
        assert_eq!(cluster.pending(), 0);
        let report = cluster.shutdown();
        let region = Region::from_iter([NodeId(5)]);
        assert_eq!(report.decisions.len(), 4, "whole border must decide");
        for (node, (view, _)) in &report.decisions {
            assert_eq!(view.region(), &region, "{node} decided a wrong region");
        }
    }

    /// Guards against a pending-counter leak: events already queued for
    /// a node when it is killed are never handled, and each must still
    /// be discharged — otherwise the counter never returns to zero and
    /// `await_quiescence` can only burn its full timeout.
    #[test]
    fn kill_under_load_quiesces_without_pending_leak() {
        // A connected 6-node blob crashes at once on an 8x8 torus; its
        // ~12-node border immediately floods agreement traffic. Node 26
        // sits on that border: killing it a moment later drops it with
        // proposals still queued for (and in flight toward) it.
        let graph = torus(GridDims::square(8));
        let blob = [19u32, 20, 27, 28, 35, 36].map(NodeId);
        let x = NodeId(26);
        let mut cluster = start(graph, ProtocolConfig::default());
        for p in blob {
            cluster.kill(p);
        }
        // Let the border agreement get into full flight before the kill.
        std::thread::sleep(Duration::from_millis(1));
        cluster.kill(x);
        let started = Instant::now();
        assert!(
            cluster.await_quiescence(TIMEOUT),
            "cluster must settle after a kill under load"
        );
        assert!(
            started.elapsed() < TIMEOUT / 2,
            "quiescence took {:?} — pending-counter leak?",
            started.elapsed()
        );
        assert_eq!(cluster.pending(), 0);
        let report = cluster.shutdown();
        assert_eq!(report.killed.len(), blob.len() + 1);
        for (node, (view, _)) in &report.decisions {
            for member in view.region().iter() {
                assert!(
                    member == x || blob.contains(&member),
                    "{node} decided live node {member}"
                );
            }
        }
    }

    #[test]
    fn shutdown_without_kills_is_clean() {
        let cluster = start(path(4), ProtocolConfig::default());
        assert!(cluster.await_quiescence(TIMEOUT));
        let report = cluster.shutdown();
        assert!(report.decisions.is_empty());
        assert!(report.killed.is_empty());
        // Nobody did protocol work, so nobody contributes stats.
        assert!(report.stats.is_empty());
    }
}
