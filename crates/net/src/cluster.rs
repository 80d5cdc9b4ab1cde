//! [`ShardedCluster`], one agreement instance on the resident shard
//! pool, and the [`LiveReport`] it shuts down into. The pool, router and
//! instance machinery behind it live in `shard.rs`.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use precipice_core::{DecisionPolicy, NodeIdValuePolicy, ProtocolConfig, ProtocolStats, View};
use precipice_graph::{Graph, NodeId};

use crate::gate::Gate;
use crate::ring::Ring;
use crate::shard::{lock, resident, Instance, Pool, RouterCounters};

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

/// A running sharded cluster over one shared topology: one instance on
/// the resident worker pool.
///
/// Generic over the [`DecisionPolicy`] so the runtime crate's
/// `Scenario::exec` policies carry over; plain
/// [`ShardedCluster::start`] gives the default coordinator-election
/// policy. See `shard.rs`'s module docs for the design and the
/// [crate docs](crate) for an end-to-end example.
///
/// Dropping a cluster without [`shutdown`](Self::shutdown) retires it
/// all the same: its rings close, what is queued drains, and nothing of
/// it outlives the last event.
pub struct ShardedCluster<P: DecisionPolicy = NodeIdValuePolicy> {
    pub(crate) instance: Arc<Instance<P>>,
    /// Keeps the workers alive; the instance itself holds only their
    /// token rings, so a pool is never dropped from one of its own
    /// threads.
    _pool: Arc<Pool>,
    killed: BTreeSet<NodeId>,
}

impl<P: DecisionPolicy> std::fmt::Debug for ShardedCluster<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCluster")
            .field("nodes", &self.instance.router.graph().len())
            .field("shards", &self.instance.router.shards)
            .field("killed", &self.killed)
            .finish()
    }
}

impl<P: DecisionPolicy> Drop for ShardedCluster<P> {
    fn drop(&mut self) {
        self.instance.router.close();
    }
}

impl ShardedCluster<NodeIdValuePolicy> {
    /// Starts an instance of `shards` shards over `graph` with the
    /// default coordinator-election policy. No node state is allocated
    /// until a node first receives an event, and no thread is spawned
    /// unless the pool has fewer than `shards` workers yet.
    ///
    /// # Panics
    ///
    /// Like every `start*`: if the pool has to grow and the operating
    /// system refuses the thread.
    pub fn start(graph: Graph, config: ProtocolConfig, shards: usize) -> Self {
        Self::start_shared(Arc::new(graph), config, shards)
    }

    /// [`start`](Self::start) over an already-shared topology — the
    /// entry point for mapped `.pcsr` graphs, where cloning the `Arc`
    /// is the whole point.
    pub fn start_shared(graph: Arc<Graph>, config: ProtocolConfig, shards: usize) -> Self {
        Self::start_with(graph, config, shards, |_me| NodeIdValuePolicy)
    }
}

impl<P> ShardedCluster<P>
where
    P: DecisionPolicy + Send + 'static,
    P::Value: Send + Sync,
{
    /// Starts the instance with a per-node policy factory (the exec
    /// API's `decide_with` hook). The factory runs on pool workers,
    /// serialized by a lock, the first time each node activates.
    pub fn start_with<F>(
        graph: Arc<Graph>,
        config: ProtocolConfig,
        shards: usize,
        factory: F,
    ) -> Self
    where
        F: FnMut(NodeId) -> P + Send + 'static,
    {
        Self::launch(resident(), graph, config, shards, factory, None).expect("spawn shard worker")
    }

    /// Makes an instance of `shards` shards (at least one) a tenant of
    /// `pool`, growing the pool to that many workers first; the only
    /// failure is that growth.
    pub(crate) fn launch<F>(
        pool: Arc<Pool>,
        graph: Arc<Graph>,
        config: ProtocolConfig,
        shards: usize,
        factory: F,
        gate: Option<Arc<Gate<P::Value>>>,
    ) -> std::io::Result<Self>
    where
        F: FnMut(NodeId) -> P + Send + 'static,
    {
        let workers = pool.tokens(shards.max(1))?;
        Ok(ShardedCluster {
            instance: Instance::new(graph, config, factory, gate, workers),
            _pool: pool,
            killed: BTreeSet::new(),
        })
    }

    /// The shared topology.
    pub fn graph(&self) -> &Arc<Graph> {
        self.instance.router.graph()
    }

    /// Shard count of this instance (the pool may have more workers).
    pub fn shards(&self) -> usize {
        self.instance.router.shards
    }

    /// Induces the crash of `node`: queued and future events addressed
    /// to it are dropped, and its observers are notified.
    pub fn kill(&mut self, node: NodeId) {
        if self.killed.insert(node) {
            self.instance.router.kill(node);
        }
    }

    /// Nodes killed so far.
    pub fn killed(&self) -> &BTreeSet<NodeId> {
        &self.killed
    }

    /// Outstanding work: events posted but not yet fully handled, plus
    /// the worker turns scheduled to handle them.
    pub fn pending(&self) -> u64 {
        self.instance.router.outstanding.get()
    }

    /// Why this instance stopped handling events, if a handler of its
    /// own panicked. A failed instance still goes quiescent (what was
    /// queued is discharged unhandled) and still shuts down; its
    /// decisions are whatever was reached before the panic.
    pub fn failure(&self) -> Option<&str> {
        self.instance.failed.get().map(String::as_str)
    }

    /// Nodes activated on demand so far — the live analogue of the
    /// sim's footprint metric. Never-activated nodes hold no state.
    pub fn activated(&self) -> u64 {
        let counters = &self.instance.router.counters;
        counters.activations.load(Ordering::Relaxed)
    }

    /// Events pushed onto a shard ring already at its capacity.
    pub fn spilled(&self) -> u64 {
        self.instance.router.rings.iter().map(Ring::spilled).sum()
    }

    /// Transport accounting so far.
    pub fn counters(&self) -> RouterCounters {
        self.instance.router.snapshot()
    }

    /// The decision of `node`, if it has decided (live read — valid
    /// mid-run, used by `precipice serve`'s `read` command).
    pub fn decision_of(&self, node: NodeId) -> Option<(View, P::Value)> {
        lock(&self.instance.decisions)
            .get(&node)
            .map(|(view, value, _)| (view.clone(), value.clone()))
    }

    /// Snapshot of all decisions so far (killed nodes excluded).
    pub fn decisions_snapshot(&self) -> BTreeMap<NodeId, (View, P::Value)> {
        lock(&self.instance.decisions)
            .iter()
            .filter(|(node, _)| !self.killed.contains(node))
            .map(|(node, (view, value, _))| (*node, (view.clone(), value.clone())))
            .collect()
    }

    /// How many nodes have decided so far (killed nodes excluded):
    /// `decisions_snapshot().len()` without cloning a single view.
    pub fn decision_count(&self) -> usize {
        lock(&self.instance.decisions)
            .keys()
            .filter(|node| !self.killed.contains(node))
            .count()
    }

    /// Release-clock stamps of all decisions so far (killed excluded).
    pub(crate) fn decision_steps(&self) -> BTreeMap<NodeId, u64> {
        lock(&self.instance.decisions)
            .iter()
            .filter(|(node, _)| !self.killed.contains(node))
            .map(|(node, (_, _, step))| (*node, *step))
            .collect()
    }

    /// Blocks until nothing is outstanding, or until `timeout`
    /// elapses. Returns `true` on quiescence; returns at once when the
    /// cluster is already idle or `timeout` is zero.
    ///
    /// Exact, not heuristic: an event is charged to the outstanding
    /// counter before it is pushed and discharged only after its
    /// handler — and every post that handler made — is done, so the
    /// counter reads zero only when no event is queued and no handler
    /// is running, and with `&self` borrowed here no kill can
    /// start new work — so the waiter sleeps until the discharge that
    /// reaches zero wakes it, and that zero is final.
    pub fn await_quiescence(&self, timeout: Duration) -> bool {
        self.instance.router.outstanding.wait_zero(timeout)
    }

    /// Retires the instance and collects the final report: closes the
    /// rings, waits until what was queued has drained and no worker
    /// holds the instance, reads the node tables. Killed nodes and
    /// never-touched nodes contribute no stats; killed nodes' decisions
    /// are dropped with them.
    pub fn shutdown(self) -> LiveReport<P::Value> {
        self.retire().0
    }

    /// [`shutdown`](Self::shutdown), plus the [`failure`](Self::failure)
    /// as it stands once the last queued event has been handled.
    pub(crate) fn retire(mut self) -> (LiveReport<P::Value>, Option<String>) {
        let instance = &self.instance;
        instance.router.close();
        instance.router.outstanding.wait_zero(Duration::MAX);
        let killed = std::mem::take(&mut self.killed);
        let mut stats = BTreeMap::new();
        for table in &instance.nodes {
            for slot in &lock(table).slots {
                let Some(node) = slot.node.as_ref().filter(|_| !killed.contains(&slot.id)) else {
                    continue;
                };
                if *node.stats() != ProtocolStats::default() {
                    stats.insert(slot.id, *node.stats());
                }
            }
        }
        // Nobody else is left to read them: taken, not cloned.
        let decisions = std::mem::take(&mut *lock(&instance.decisions))
            .into_iter()
            .filter(|(node, _)| !killed.contains(node))
            .map(|(node, (view, value, _))| (node, (view, value)))
            .collect();
        let report = LiveReport {
            decisions,
            stats,
            killed,
        };
        (report, instance.failed.get().cloned())
    }
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
