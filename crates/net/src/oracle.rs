//! The kill-switch perfect failure detector's policy, without threads.
//!
//! Crashes are always *induced* (via `kill`), so the runtime knows the
//! ground truth: only killed nodes are ever reported (strong accuracy)
//! and every observer of a killed node is told exactly once — at once
//! if it starts monitoring after the kill (strong completeness).
//! Observers are resolved from the shared graph, like the sim's
//! `FailureDetector::with_static_graph`: every node implicitly monitors
//! its graph neighbours, so only non-neighbour monitors are stored.
//!
//! [`FdState`] decides *who* is notified; the `Router` in
//! [`shard`](crate::shard) keeps it behind one mutex and does the
//! routing, so a kill cannot slip between a liveness check and an
//! enqueue.

use std::collections::{BTreeMap, BTreeSet};

use precipice_graph::{Graph, NodeId};

/// Failure-detector bookkeeping for one cluster.
#[derive(Debug, Default)]
pub(crate) struct FdState {
    /// Nodes killed so far.
    crashed: BTreeSet<NodeId>,
    /// Dynamic (non-neighbour) subscriptions: target → observers.
    dynamic: BTreeMap<NodeId, BTreeSet<NodeId>>,
    /// (observer, target) pairs already notified — exactly-once guard.
    notified: BTreeSet<(NodeId, NodeId)>,
}

impl FdState {
    /// `true` if `node` was killed.
    pub(crate) fn is_crashed(&self, node: NodeId) -> bool {
        self.crashed.contains(&node)
    }

    /// `observer` asks to monitor `target`. Returns `true` when
    /// `observer` must be notified now: `target` is already dead and
    /// this pair was never notified. Graph neighbours are implicitly
    /// covered and recorded nowhere; a live non-neighbour is stored.
    pub(crate) fn monitor(&mut self, graph: &Graph, observer: NodeId, target: NodeId) -> bool {
        if self.crashed.contains(&target) {
            return self.notified.insert((observer, target));
        }
        if !graph.has_edge(observer, target) {
            self.dynamic.entry(target).or_default().insert(observer);
        }
        false
    }

    /// Marks `q` crashed and returns the observers to notify —
    /// `neighbours(q) ∪ dynamic(q)`, ascending, each (observer, `q`)
    /// pair at most once ever. Empty if `q` was already dead. Observers
    /// that are themselves dead are included: their notification is
    /// dropped at delivery, mirroring the sim.
    pub(crate) fn kill(&mut self, graph: &Graph, q: NodeId) -> Vec<NodeId> {
        if !self.crashed.insert(q) {
            return Vec::new();
        }
        let dynamic = self.dynamic.remove(&q).unwrap_or_default();
        let mut observers: Vec<NodeId> =
            graph.neighbors(q).iter().copied().chain(dynamic).collect();
        observers.sort_unstable();
        observers.dedup();
        observers.retain(|&obs| self.notified.insert((obs, q)));
        observers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShardedCluster;
    use precipice_core::ProtocolConfig;
    use precipice_graph::path;
    use std::time::Duration;

    #[test]
    fn subscribe_then_kill_notifies_once() {
        let graph = path(9);
        let mut fd = FdState::default();
        // 0 monitors the non-neighbour 5 twice; 4 and 6 are implicit.
        assert!(!fd.monitor(&graph, NodeId(0), NodeId(5)));
        assert!(!fd.monitor(&graph, NodeId(0), NodeId(5)));
        // A neighbour's explicit monitor adds nothing to the implicit one.
        assert!(!fd.monitor(&graph, NodeId(4), NodeId(5)));
        assert_eq!(
            fd.kill(&graph, NodeId(5)),
            vec![NodeId(0), NodeId(4), NodeId(6)],
            "ascending, each observer once"
        );
        for observer in [0, 4, 6].map(NodeId) {
            assert!(
                !fd.monitor(&graph, observer, NodeId(5)),
                "{observer} notified twice"
            );
        }
    }

    #[test]
    fn late_subscription_fires_immediately() {
        let graph = path(12);
        let mut fd = FdState::default();
        fd.kill(&graph, NodeId(9));
        assert!(fd.is_crashed(NodeId(9)));
        assert!(!fd.is_crashed(NodeId(1)));
        assert!(fd.monitor(&graph, NodeId(1), NodeId(9)), "fires now");
        assert!(!fd.monitor(&graph, NodeId(1), NodeId(9)), "and only once");
    }

    #[test]
    fn double_kill_is_noop() {
        let graph = path(5);
        let mut fd = FdState::default();
        fd.monitor(&graph, NodeId(0), NodeId(2));
        assert_eq!(fd.kill(&graph, NodeId(2)).len(), 3);
        assert!(fd.kill(&graph, NodeId(2)).is_empty());
        assert!(fd.is_crashed(NodeId(2)));
    }

    /// The one detector behaviour that needs the router: an event
    /// addressed to a dead node is dropped — counted, discharged and
    /// never handled, so the node is not even activated.
    #[test]
    fn posts_to_killed_nodes_are_dropped() {
        let timeout = Duration::from_secs(20);
        let mut cluster = ShardedCluster::start(path(3), ProtocolConfig::default(), 2);
        cluster.kill(NodeId(0));
        assert!(cluster.await_quiescence(timeout));
        let before = cluster.counters().dropped;
        // 1's crash is reported to both neighbours; 0 is dead.
        cluster.kill(NodeId(1));
        assert!(cluster.await_quiescence(timeout));
        assert_eq!(cluster.pending(), 0, "a dropped event stayed charged");
        assert!(cluster.counters().dropped > before);
        assert_eq!(cluster.activated(), 2, "dead node 0 must not activate");
        let report = cluster.shutdown();
        assert_eq!(
            report.stats.keys().copied().collect::<Vec<_>>(),
            [NodeId(2)]
        );
    }
}
