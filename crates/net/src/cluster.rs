use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError};
use precipice_core::{
    Action, CliffEdgeNode, Event, Message, NodeIdValuePolicy, ProtocolConfig, ProtocolStats, View,
};
use precipice_graph::{Graph, NodeId};

use crate::oracle::{Inbox, Oracle};

type LiveMsg = Message<NodeId>;
type LiveNode = CliffEdgeNode<Arc<Graph>, NodeIdValuePolicy>;
/// What a node thread hands back on join: its id, final state, decision.
type WorkerResult = (NodeId, LiveNode, Option<(View, NodeId)>);

/// Final state of a live run, collected by [`LiveCluster::shutdown`] or
/// [`ShardedCluster::shutdown`](crate::ShardedCluster::shutdown).
///
/// Generic over the decision value so exec-API policies carry over; the
/// default is the coordinator-election policy's [`NodeId`]. Both live
/// backends produce the same shape with the same semantics — decisions
/// and protocol counters for surviving nodes that did protocol work
/// (untouched nodes contribute nothing) — which is what the
/// sharded-vs-threaded differential suite compares byte for byte.
#[derive(Debug, PartialEq, Eq)]
pub struct LiveReport<V = NodeId> {
    /// Decisions per deciding node (view and agreed value).
    pub decisions: BTreeMap<NodeId, (View, V)>,
    /// Protocol counters per surviving node that did any protocol work.
    pub stats: BTreeMap<NodeId, ProtocolStats>,
    /// Nodes killed during the run.
    pub killed: BTreeSet<NodeId>,
}

struct Worker {
    handle: JoinHandle<WorkerResult>,
    kill_flag: Arc<AtomicBool>,
}

/// A running cluster of one protocol thread per graph node.
///
/// See the [crate docs](crate) for the failure-detection model and an
/// end-to-end example.
pub struct LiveCluster {
    graph: Arc<Graph>,
    oracle: Arc<Oracle<LiveMsg>>,
    workers: BTreeMap<NodeId, Worker>,
    killed: BTreeSet<NodeId>,
}

impl std::fmt::Debug for LiveCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveCluster")
            .field("nodes", &self.graph.len())
            .field("killed", &self.killed)
            .finish()
    }
}

impl LiveCluster {
    /// Spawns one thread per node of `graph` and starts the protocol
    /// (every node subscribes to its neighbours' crashes).
    pub fn start(graph: Graph, config: ProtocolConfig) -> Self {
        let graph = Arc::new(graph);
        let oracle: Arc<Oracle<LiveMsg>> = Oracle::new();

        // Register all inboxes before any thread runs so no early send
        // can miss a peer.
        let mut receivers: BTreeMap<NodeId, Receiver<Inbox<LiveMsg>>> = BTreeMap::new();
        for me in graph.nodes() {
            let (tx, rx) = unbounded();
            oracle.register(me, tx);
            receivers.insert(me, rx);
        }

        let mut workers = BTreeMap::new();
        for (me, inbox) in receivers {
            let kill_flag = Arc::new(AtomicBool::new(false));
            let node = CliffEdgeNode::new(me, Arc::clone(&graph), NodeIdValuePolicy, config);
            let oracle_ref = Arc::clone(&oracle);
            let flag_ref = Arc::clone(&kill_flag);
            // Charge the node's Init handler before its thread exists:
            // quiescence must not be declarable while a spawned-but-not-
            // yet-scheduled node still has subscriptions (and possibly
            // an immediate crash notification) ahead of it.
            oracle.charge();
            let handle = std::thread::Builder::new()
                .name(format!("precipice-{me}"))
                .spawn(move || node_main(me, node, inbox, oracle_ref, flag_ref))
                .expect("spawn node thread");
            workers.insert(me, Worker { handle, kill_flag });
        }
        LiveCluster {
            graph,
            oracle,
            workers,
            killed: BTreeSet::new(),
        }
    }

    /// The shared failure-detector oracle (for inspection).
    pub fn oracle(&self) -> &Oracle<LiveMsg> {
        &self.oracle
    }

    /// Induces the crash of `node`: it stops processing immediately, its
    /// queued inbox is lost, and subscribers are notified.
    pub fn kill(&mut self, node: NodeId) {
        if !self.killed.insert(node) {
            return;
        }
        if let Some(worker) = self.workers.get(&node) {
            worker.kill_flag.store(true, Ordering::SeqCst);
        }
        self.oracle.kill(node);
    }

    /// Blocks until no event is outstanding, or until `timeout`
    /// elapses. Returns `true` on quiescence, at once if already idle.
    ///
    /// Quiescence here means: every posted message/notification has been
    /// fully processed and no handler is mid-flight — with an event-driven
    /// protocol nothing can happen afterwards without external input.
    /// The oracle's counter makes that exact: every `Init` is charged at
    /// spawn, every event is charged before it is sent and acknowledged
    /// only after its handler (and the posts it made) finished, a killed
    /// node's inbox is drained event by event, and new work can only
    /// come from handlers or from kills, which need `&mut self`. So the
    /// waiter sleeps until the acknowledgement that reaches zero, and
    /// that zero is final.
    pub fn await_quiescence(&self, timeout: Duration) -> bool {
        self.oracle.await_zero(timeout)
    }

    /// Stops all threads (orderly for survivors) and collects the final
    /// report.
    pub fn shutdown(mut self) -> LiveReport {
        for &id in self.workers.keys() {
            // Survivors get an orderly shutdown; killed nodes already
            // stopped via their flag (their inboxes were unregistered by
            // the kill, so this post is a no-op for them).
            self.oracle.post(id, Inbox::Shutdown);
        }
        let mut decisions = BTreeMap::new();
        let mut stats = BTreeMap::new();
        for (id, worker) in std::mem::take(&mut self.workers) {
            // A killed node's thread exits on its own: `kill` raised its
            // flag before returning, so the join below cannot hang.
            let (node_id, node, decision) = worker.handle.join().expect("node thread panicked");
            debug_assert_eq!(node_id, id);
            if !self.killed.contains(&id) {
                // Nodes that never did protocol work are omitted, like
                // the sim's report assembly and the sharded backend
                // (which never materializes them in the first place).
                if *node.stats() != ProtocolStats::default() {
                    stats.insert(id, *node.stats());
                }
                if let Some(d) = decision {
                    decisions.insert(id, d);
                }
            }
        }
        LiveReport {
            decisions,
            stats,
            killed: self.killed,
        }
    }
}

fn node_main(
    me: NodeId,
    mut node: LiveNode,
    inbox: Receiver<Inbox<LiveMsg>>,
    oracle: Arc<Oracle<LiveMsg>>,
    kill_flag: Arc<AtomicBool>,
) -> WorkerResult {
    let mut decision: Option<(View, NodeId)> = None;
    let actions = node.handle(Event::Init);
    execute(me, actions, &oracle, &mut decision);
    // Acknowledge the Init charge taken at spawn — only now may the
    // cluster count this node as idle.
    oracle.done();

    loop {
        if kill_flag.load(Ordering::SeqCst) {
            drain_killed_inbox(&inbox, &oracle);
            break;
        }
        match inbox.recv_timeout(Duration::from_millis(10)) {
            Ok(event) => {
                // Check the flag again after potentially waiting: a
                // crashed node must not process queued traffic.
                if kill_flag.load(Ordering::SeqCst) {
                    oracle.done();
                    drain_killed_inbox(&inbox, &oracle);
                    break;
                }
                let done = matches!(event, Inbox::Shutdown);
                match event {
                    Inbox::Proto { from, message } => {
                        let actions = node.handle(Event::Deliver { from, message });
                        execute(me, actions, &oracle, &mut decision);
                    }
                    Inbox::Crash(q) => {
                        let actions = node.handle(Event::Crash(q));
                        execute(me, actions, &oracle, &mut decision);
                    }
                    Inbox::Shutdown => {}
                }
                oracle.done();
                if done {
                    break;
                }
            }
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    (me, node, decision)
}

/// Drains a killed node's inbox, acknowledging every dropped event.
///
/// Every queued event was counted by `Oracle::post`, so exiting without
/// draining would leave `Oracle::pending` above zero forever and
/// [`LiveCluster::await_quiescence`] could only burn its timeout. The
/// kill-flag store precedes [`Oracle::kill`], which removes this node's
/// only sender under the oracle's state lock (`post` sends under the
/// same lock, so nothing can enqueue after the removal): once the
/// channel reports disconnection the queue is empty for good.
fn drain_killed_inbox<M>(inbox: &Receiver<Inbox<M>>, oracle: &Oracle<M>) {
    loop {
        match inbox.recv_timeout(Duration::from_millis(1)) {
            Ok(_) => oracle.done(),
            // Sender not removed yet (the kill is mid-flight): wait.
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
}

fn execute(
    me: NodeId,
    actions: Vec<Action<NodeId>>,
    oracle: &Oracle<LiveMsg>,
    decision: &mut Option<(View, NodeId)>,
) {
    for action in actions {
        match action {
            Action::Monitor(targets) => {
                for t in targets {
                    oracle.subscribe(me, t);
                }
            }
            Action::Multicast {
                recipients,
                message,
            } => {
                for to in recipients {
                    oracle.post(
                        to,
                        Inbox::Proto {
                            from: me,
                            message: message.clone(),
                        },
                    );
                }
            }
            Action::Decide { view, value } => {
                debug_assert!(decision.is_none(), "{me} decided twice");
                *decision = Some((view, value));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use precipice_graph::{path, torus, GridDims, Region};
    use std::time::Instant;

    const TIMEOUT: Duration = Duration::from_secs(20);

    #[test]
    fn live_path_agreement() {
        let mut cluster = LiveCluster::start(path(3), ProtocolConfig::default());
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
        let mut cluster = LiveCluster::start(torus(GridDims::square(4)), ProtocolConfig::default());
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
        let killed = [NodeId(5), NodeId(6)];
        let mut cluster = LiveCluster::start(torus(GridDims::square(4)), ProtocolConfig::default());
        for k in killed {
            cluster.kill(k);
        }
        assert!(cluster.await_quiescence(TIMEOUT));
        assert_eq!(cluster.oracle().pending(), 0);
        let report = cluster.shutdown();

        // CD7 (cluster-level progress): at least one correct node decided.
        assert!(!report.decisions.is_empty(), "nobody decided");
        let decisions: Vec<_> = report.decisions.iter().collect();
        for (node, (view, _)) in &decisions {
            // CD2: decided views contain only killed nodes and include
            // the decider in their border.
            for member in view.region().iter() {
                assert!(
                    killed.contains(&member),
                    "{node} decided live node {member}"
                );
            }
            assert!(
                view.border().contains(**node),
                "{node} not on its view's border"
            );
        }
        // CD5 + CD6 over all pairs.
        for (i, (p, (vp, dp))) in decisions.iter().enumerate() {
            for (q, (vq, dq)) in decisions.iter().skip(i + 1) {
                if vp.region() == vq.region() {
                    assert_eq!(dp, dq, "{p} and {q} picked different values");
                } else {
                    assert!(
                        !vp.region().intersects(vq.region()),
                        "{p} ({vp}) and {q} ({vq}) hold partially overlapping views"
                    );
                }
            }
        }
    }

    #[test]
    fn distant_regions_decide_independently() {
        // {1} and {5} on a 7-path have disjoint borders: both
        // agreements must complete regardless of interleaving.
        let mut cluster = LiveCluster::start(path(7), ProtocolConfig::optimized());
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

    /// Kills issued immediately after start race the node threads'
    /// `Init` handlers (some may not have been scheduled at all yet).
    /// Each Init is charged to the pending counter at spawn, so the
    /// counter cannot reach zero until every subscription — and any
    /// crash notification it immediately triggers — has landed;
    /// otherwise quiescence could be declared with agreements still
    /// ahead.
    #[test]
    fn kill_racing_startup_still_reaches_full_agreement() {
        let mut cluster = LiveCluster::start(torus(GridDims::square(4)), ProtocolConfig::default());
        // No sleep: the kill lands before most threads ran Init.
        cluster.kill(NodeId(5));
        assert!(cluster.await_quiescence(TIMEOUT));
        assert_eq!(cluster.oracle().pending(), 0);
        let report = cluster.shutdown();
        let region = Region::from_iter([NodeId(5)]);
        assert_eq!(report.decisions.len(), 4, "whole border must decide");
        for (node, (view, _)) in &report.decisions {
            assert_eq!(view.region(), &region, "{node} decided a wrong region");
        }
    }

    /// Regression test for the pending-counter leak: events posted to a
    /// node before its kill used to die unacknowledged with the killed
    /// thread, so `Oracle::pending` never returned to zero and
    /// `await_quiescence` could only burn its full timeout.
    #[test]
    fn kill_under_load_quiesces_without_pending_leak() {
        // A connected 6-node blob crashes at once on an 8x8 torus; its
        // ~12-node border immediately floods agreement traffic. Node 26
        // sits on that border: killing it a moment later drops it with
        // proposals still queued in (and in flight toward) its inbox.
        let graph = torus(GridDims::square(8));
        let blob = [19u32, 20, 27, 28, 35, 36].map(NodeId);
        let x = NodeId(26);
        let mut cluster = LiveCluster::start(graph, ProtocolConfig::default());
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
        assert_eq!(cluster.oracle().pending(), 0);
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
        let cluster = LiveCluster::start(path(4), ProtocolConfig::default());
        assert!(cluster.await_quiescence(TIMEOUT));
        let report = cluster.shutdown();
        assert!(report.decisions.is_empty());
        assert!(report.killed.is_empty());
        // Nobody did protocol work, so nobody contributes stats — same
        // report a sharded run (which never even activates them) gives.
        assert!(report.stats.is_empty());
    }
}
