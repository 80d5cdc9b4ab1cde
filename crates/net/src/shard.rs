//! The sharded event-loop runtime: `W` worker shards over one shared
//! topology.
//!
//! The paper's point is that agreeing on a crashed region costs what
//! the region's border costs, so nothing here is paid per node up
//! front — no thread, no channel, no protocol state. The design is the
//! one the sim side has used since the footprint-proportional rework:
//!
//! - **Disjoint node ranges.** The id space of one shared
//!   [`Arc<Graph>`] (owned or mapped `.pcsr`) is cut into `W` contiguous
//!   ranges; shard `i` owns range `i` and is the only thread that ever
//!   holds protocol state for those nodes.
//! - **Lazy activation.** A node materializes (policy built, `Init`
//!   run) the first time an event addressed to it is popped — exactly
//!   like the sim's lazy process table. A 10⁶-node topology with one
//!   crashed node allocates state for the border only.
//! - **Bounded MPSC rings.** Cross-shard traffic flows over one
//!   [`Ring`] per shard (see [`ring`](crate::ring)).
//! - **One outstanding-event counter.** The kill-switch quiescence
//!   oracle is one atomic shared by all shards (see *Quiescence*
//!   below): zero ⇒ quiescent, exactly, and
//!   [`ShardedCluster::await_quiescence`] sleeps on the 1 → 0
//!   transition instead of polling.
//!
//! Failure detection keeps the graph-backed semantics of the sim's
//! `FailureDetector::with_static_graph`: every node is implicitly
//! subscribed to its graph neighbours (so `Init`'s monitor of the
//! neighbourhood is a no-op and never forces activation), dynamic
//! monitors are recorded only for non-neighbours, and a kill notifies
//! `neighbours(q) ∪ dynamic(q)` exactly once per (observer, target)
//! pair, in ascending node order. That policy is [`FdState`]; the
//! [`Router`] here holds it behind one lock and routes what it decides.
//!
//! # Quiescence
//!
//! The paper's event model (§2.3) lets a node act only on a delivery
//! or a crash notification, so the cluster is quiescent exactly when no
//! such event is queued and no handler is running. One counter tracks
//! that, under this invariant:
//!
//! - an event is **charged before it is pushed** to a ring, so it is
//!   counted before any consumer can see it;
//! - it is **discharged only after its handler has returned**, and
//!   every post that handler made has itself been charged — the count
//!   cannot dip to zero between a handler's outputs and its
//!   acknowledgement;
//! - a push **refused by a closed ring** is discharged on the spot
//!   (nobody will ever handle it);
//! - the only source of events besides handlers is
//!   [`ShardedCluster::kill`], which needs `&mut self` — so while a
//!   waiter holds `&self`, **a zero is final**.
//!
//! A single counter rather than one per shard: a reader summing
//! per-shard counters one after another can see each at zero while an
//! event hops between them, and every `deliver` already serialises on
//! the failure-detector lock, so the shared cache line costs nothing
//! new. Gated runs park posts in the gate *uncharged*; there zero means
//! "the one released event has been handled".

use std::collections::{btree_map, BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use precipice_core::{
    Action, CliffEdgeNode, DecisionPolicy, Event, Message, NodeIdValuePolicy, ProtocolConfig,
    ProtocolStats, View,
};
use precipice_graph::{Graph, NodeId};

use crate::cluster::LiveReport;
use crate::gate::Gate;
use crate::oracle::FdState;
use crate::quiesce::Outstanding;
use crate::ring::{Pop, Ring};

/// Capacity of each shard's bounded ring; bursts beyond it spill (see
/// [`ring`](crate::ring)).
const RING_CAPACITY: usize = 1024;

/// How long an idle shard sleeps in `pop` before re-checking its ring.
const IDLE_TICK: Duration = Duration::from_millis(10);

/// An event in flight towards the node that must handle it.
#[derive(Debug)]
pub(crate) enum ShardEvent<V> {
    /// A protocol message from `from` to `to`.
    Deliver {
        /// Destination node.
        to: NodeId,
        /// Sending node.
        from: NodeId,
        /// The protocol message.
        message: Message<V>,
    },
    /// The failure detector tells `to` that `crashed` crashed.
    Notify {
        /// Destination node.
        to: NodeId,
        /// The crashed node being reported.
        crashed: NodeId,
    },
}

impl<V> ShardEvent<V> {
    pub(crate) fn to(&self) -> NodeId {
        match self {
            ShardEvent::Deliver { to, .. } | ShardEvent::Notify { to, .. } => *to,
        }
    }
}

/// Transport counters, kept as atomics and snapshotted on demand.
#[derive(Debug, Default)]
struct Counters {
    messages_sent: AtomicU64,
    bytes_sent: AtomicU64,
    delivered: AtomicU64,
    dropped: AtomicU64,
    notifications: AtomicU64,
    activations: AtomicU64,
    events: AtomicU64,
}

/// A plain snapshot of the router's transport accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterCounters {
    /// Protocol messages accepted for delivery.
    pub messages_sent: u64,
    /// Serialized bytes of those messages.
    pub bytes_sent: u64,
    /// Protocol messages actually handled by a live node.
    pub delivered: u64,
    /// Events dropped because their target was crashed.
    pub dropped: u64,
    /// Crash notifications issued.
    pub notifications: u64,
    /// Nodes activated on demand.
    pub activations: u64,
    /// Total events handled by shard loops.
    pub events: u64,
}

/// The shared heart of the sharded runtime: ring addressing, quiescence
/// accounting and graph-backed failure detection.
///
/// Lock ordering: `fd` before the gate's queue lock; ring mutexes are
/// leaves. Nothing ever takes `fd` while holding a ring or gate lock.
#[derive(Debug)]
pub(crate) struct Router<V> {
    graph: Arc<Graph>,
    shards: usize,
    /// Nodes per shard range (last shard takes the remainder).
    range: usize,
    rings: Vec<Arc<Ring<ShardEvent<V>>>>,
    /// Events charged and not yet discharged, across all shards.
    outstanding: Outstanding,
    /// Failure-detector bookkeeping, shared by all shards.
    fd: Mutex<FdState>,
    /// When set, posts are parked here instead of entering the rings —
    /// the delivery gate for schedule exploration.
    gate: Option<Arc<Gate<V>>>,
    /// Logical release clock; only advanced by a gate controller.
    step: AtomicU64,
    counters: Counters,
}

impl<V: precipice_core::WireSize> Router<V> {
    fn new(graph: Arc<Graph>, shards: usize, gate: Option<Arc<Gate<V>>>) -> Arc<Self> {
        let shards = shards.max(1);
        let range = graph.len().div_ceil(shards).max(1);
        Arc::new(Router {
            graph,
            shards,
            range,
            rings: (0..shards)
                .map(|_| Arc::new(Ring::new(RING_CAPACITY)))
                .collect(),
            outstanding: Outstanding::default(),
            fd: Mutex::new(FdState::default()),
            gate,
            step: AtomicU64::new(0),
            counters: Counters::default(),
        })
    }

    pub(crate) fn graph(&self) -> &Arc<Graph> {
        &self.graph
    }

    /// Which shard owns `node`: contiguous ranges of the id space.
    pub(crate) fn shard_of(&self, node: NodeId) -> usize {
        ((node.0 as usize) / self.range).min(self.shards - 1)
    }

    pub(crate) fn is_crashed(&self, node: NodeId) -> bool {
        self.fd.lock().expect("fd lock").is_crashed(node)
    }

    /// Routes `event` towards its owner: charges and enqueues it, or
    /// parks it in the gate when one is installed. Called
    /// with the fd lock held, so a concurrent kill cannot slip between
    /// the liveness check and the enqueue.
    fn route(&self, event: ShardEvent<V>) {
        if let Some(gate) = &self.gate {
            gate.park(event);
        } else {
            self.release(event);
        }
    }

    /// Sends `event` into its owner's ring for real, charging it first
    /// (quiescence must never observe the window between enqueue and
    /// charge). A ring closed by shutdown refuses the push; nobody will
    /// handle that event, so it is discharged here.
    pub(crate) fn release(&self, event: ShardEvent<V>) {
        self.outstanding.charge();
        if !self.rings[self.shard_of(event.to())].push(event) {
            self.outstanding.done();
        }
    }

    /// A protocol message from `from` to `to`; dropped if `to` is dead.
    fn deliver(&self, from: NodeId, to: NodeId, message: Message<V>) {
        let fd = self.fd.lock().expect("fd lock");
        if fd.is_crashed(to) {
            self.counters.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.counters.messages_sent.fetch_add(1, Ordering::Relaxed);
        self.counters
            .bytes_sent
            .fetch_add(message.wire_size() as u64, Ordering::Relaxed);
        self.route(ShardEvent::Deliver { to, from, message });
        drop(fd);
    }

    /// `observer` asks to monitor `target` (a dynamic `Monitor`
    /// action); if `target` is already dead the notification fires now.
    fn monitor(&self, observer: NodeId, target: NodeId) {
        let mut fd = self.fd.lock().expect("fd lock");
        if fd.monitor(&self.graph, observer, target) {
            self.notify(observer, target);
        }
    }

    /// Marks `q` crashed and notifies its observers (see
    /// [`FdState::kill`]); a no-op if `q` was already dead.
    pub(crate) fn kill(&self, q: NodeId) {
        let mut fd = self.fd.lock().expect("fd lock");
        for observer in fd.kill(&self.graph, q) {
            self.notify(observer, q);
        }
    }

    /// Routes one crash notification. Called with the fd lock held.
    fn notify(&self, to: NodeId, crashed: NodeId) {
        self.counters.notifications.fetch_add(1, Ordering::Relaxed);
        self.route(ShardEvent::Notify { to, crashed });
    }

    /// The logical release clock (0 outside gated runs).
    fn step(&self) -> u64 {
        self.step.load(Ordering::SeqCst)
    }

    /// Advances the release clock (gate controller only).
    pub(crate) fn bump_step(&self) -> u64 {
        self.step.fetch_add(1, Ordering::SeqCst) + 1
    }

    fn snapshot(&self) -> RouterCounters {
        RouterCounters {
            messages_sent: self.counters.messages_sent.load(Ordering::Relaxed),
            bytes_sent: self.counters.bytes_sent.load(Ordering::Relaxed),
            delivered: self.counters.delivered.load(Ordering::Relaxed),
            dropped: self.counters.dropped.load(Ordering::Relaxed),
            notifications: self.counters.notifications.load(Ordering::Relaxed),
            activations: self.counters.activations.load(Ordering::Relaxed),
            events: self.counters.events.load(Ordering::Relaxed),
        }
    }
}

/// A decision as the shards record it: view, value, release step.
type DecisionCell<V> = BTreeMap<NodeId, (View, V, u64)>;

/// A running sharded cluster over one shared topology.
///
/// Generic over the [`DecisionPolicy`] so the runtime crate's
/// `Scenario::exec` policies carry over; plain
/// [`ShardedCluster::start`] gives the default coordinator-election
/// policy. See the [module docs](self) for the design and the
/// [crate docs](crate) for an end-to-end example.
pub struct ShardedCluster<P: DecisionPolicy = NodeIdValuePolicy> {
    router: Arc<Router<P::Value>>,
    handles: Vec<JoinHandle<ShardNodes<P>>>,
    decisions: Arc<Mutex<DecisionCell<P::Value>>>,
    killed: BTreeSet<NodeId>,
}

type ShardNodes<P> = BTreeMap<NodeId, CliffEdgeNode<Arc<Graph>, P>>;

impl<P: DecisionPolicy> std::fmt::Debug for ShardedCluster<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCluster")
            .field("nodes", &self.router.graph.len())
            .field("shards", &self.router.shards)
            .field("killed", &self.killed)
            .finish()
    }
}

impl ShardedCluster<NodeIdValuePolicy> {
    /// Starts `shards` worker shards over `graph` with the default
    /// coordinator-election policy. No node state is allocated until a
    /// node first receives an event.
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
    /// Starts the cluster with a per-node policy factory (the exec
    /// API's `decide_with` hook). The factory runs on shard threads,
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
        Self::launch(graph, config, shards, factory, None)
    }

    pub(crate) fn launch<F>(
        graph: Arc<Graph>,
        config: ProtocolConfig,
        shards: usize,
        factory: F,
        gate: Option<Arc<Gate<P::Value>>>,
    ) -> Self
    where
        F: FnMut(NodeId) -> P + Send + 'static,
    {
        let router = Router::new(graph, shards, gate);
        let decisions: Arc<Mutex<DecisionCell<P::Value>>> = Arc::new(Mutex::new(BTreeMap::new()));
        let factory = Arc::new(Mutex::new(factory));
        let handles = (0..router.shards)
            .map(|shard| {
                let router = Arc::clone(&router);
                let factory = Arc::clone(&factory);
                let decisions = Arc::clone(&decisions);
                std::thread::Builder::new()
                    .name(format!("precipice-shard-{shard}"))
                    .spawn(move || shard_main(shard, router, factory, config, decisions))
                    .expect("spawn shard thread")
            })
            .collect();
        ShardedCluster {
            router,
            handles,
            decisions,
            killed: BTreeSet::new(),
        }
    }

    /// The shared topology.
    pub fn graph(&self) -> &Arc<Graph> {
        self.router.graph()
    }

    /// Worker shard count.
    pub fn shards(&self) -> usize {
        self.router.shards
    }

    /// Induces the crash of `node`: queued and future events addressed
    /// to it are dropped, and its observers are notified.
    pub fn kill(&mut self, node: NodeId) {
        if self.killed.insert(node) {
            self.router.kill(node);
        }
    }

    /// Nodes killed so far.
    pub fn killed(&self) -> &BTreeSet<NodeId> {
        &self.killed
    }

    /// Outstanding (posted but not yet fully handled) events.
    pub fn pending(&self) -> u64 {
        self.router.outstanding.get()
    }

    /// Nodes activated on demand so far — the live analogue of the
    /// sim's footprint metric. Never-activated nodes hold no state.
    pub fn activated(&self) -> u64 {
        self.router.counters.activations.load(Ordering::Relaxed)
    }

    /// Events that overflowed a shard ring into its spill lane.
    pub fn spilled(&self) -> u64 {
        self.router.rings.iter().map(|r| r.spilled()).sum()
    }

    /// Transport accounting so far.
    pub fn counters(&self) -> RouterCounters {
        self.router.snapshot()
    }

    /// The decision of `node`, if it has decided (live read — valid
    /// mid-run, used by `precipice serve`'s `read` command).
    pub fn decision_of(&self, node: NodeId) -> Option<(View, P::Value)> {
        self.decisions
            .lock()
            .expect("decisions lock")
            .get(&node)
            .map(|(view, value, _)| (view.clone(), value.clone()))
    }

    /// Snapshot of all decisions so far (killed nodes excluded).
    pub fn decisions_snapshot(&self) -> BTreeMap<NodeId, (View, P::Value)> {
        self.decisions
            .lock()
            .expect("decisions lock")
            .iter()
            .filter(|(node, _)| !self.killed.contains(node))
            .map(|(node, (view, value, _))| (*node, (view.clone(), value.clone())))
            .collect()
    }

    /// How many nodes have decided so far (killed nodes excluded):
    /// `decisions_snapshot().len()` without cloning a single view.
    pub fn decision_count(&self) -> usize {
        self.decisions
            .lock()
            .expect("decisions lock")
            .keys()
            .filter(|node| !self.killed.contains(node))
            .count()
    }

    /// Advances the gated release clock (gate controller only).
    pub(crate) fn bump_step(&self) -> u64 {
        self.router.bump_step()
    }

    /// Releases one parked event into the real rings (gate controller
    /// only).
    pub(crate) fn release_gated(&self, event: ShardEvent<P::Value>) {
        self.router.release(event);
    }

    /// Release-clock stamps of all decisions so far (killed excluded).
    pub(crate) fn decision_steps(&self) -> BTreeMap<NodeId, u64> {
        self.decisions
            .lock()
            .expect("decisions lock")
            .iter()
            .filter(|(node, _)| !self.killed.contains(node))
            .map(|(node, (_, _, step))| (*node, *step))
            .collect()
    }

    /// Blocks until no event is outstanding, or until `timeout`
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
        self.router.outstanding.wait_zero(timeout)
    }

    /// Stops all shards (draining their rings first) and collects the
    /// final report. Killed nodes and never-touched nodes contribute no
    /// stats; killed nodes' decisions are dropped with them.
    pub fn shutdown(mut self) -> LiveReport<P::Value> {
        for ring in &self.router.rings {
            ring.close();
        }
        let mut stats = BTreeMap::new();
        for handle in self.handles.drain(..) {
            for (id, node) in handle.join().expect("shard thread panicked") {
                if !self.killed.contains(&id) && *node.stats() != ProtocolStats::default() {
                    stats.insert(id, *node.stats());
                }
            }
        }
        let decisions = self
            .decisions
            .lock()
            .expect("decisions lock")
            .iter()
            .filter(|(node, _)| !self.killed.contains(node))
            .map(|(node, (view, value, _))| (*node, (view.clone(), value.clone())))
            .collect();
        LiveReport {
            decisions,
            stats,
            killed: self.killed,
        }
    }
}

/// One shard's event loop: pop, activate on demand, handle, execute the
/// resulting actions, acknowledge.
fn shard_main<P, F>(
    shard: usize,
    router: Arc<Router<P::Value>>,
    factory: Arc<Mutex<F>>,
    config: ProtocolConfig,
    decisions: Arc<Mutex<DecisionCell<P::Value>>>,
) -> ShardNodes<P>
where
    P: DecisionPolicy,
    F: FnMut(NodeId) -> P,
{
    let ring = Arc::clone(&router.rings[shard]);
    let mut nodes: ShardNodes<P> = BTreeMap::new();
    loop {
        match ring.pop(IDLE_TICK) {
            Pop::Item(event) => {
                handle_event(event, &router, &factory, config, &decisions, &mut nodes);
                router.outstanding.done();
            }
            Pop::TimedOut => continue,
            Pop::Closed => break,
        }
    }
    nodes
}

fn handle_event<P, F>(
    event: ShardEvent<P::Value>,
    router: &Router<P::Value>,
    factory: &Mutex<F>,
    config: ProtocolConfig,
    decisions: &Mutex<DecisionCell<P::Value>>,
    nodes: &mut ShardNodes<P>,
) where
    P: DecisionPolicy,
    F: FnMut(NodeId) -> P,
{
    let to = event.to();
    router.counters.events.fetch_add(1, Ordering::Relaxed);
    if router.is_crashed(to) {
        router.counters.dropped.fetch_add(1, Ordering::Relaxed);
        return;
    }
    let node = match nodes.entry(to) {
        btree_map::Entry::Occupied(entry) => entry.into_mut(),
        btree_map::Entry::Vacant(entry) => {
            // First event for this node: build it and run Init before
            // the event itself — the protocol requires Init first, and
            // its neighbourhood monitor is free under graph-backed FD.
            router.counters.activations.fetch_add(1, Ordering::Relaxed);
            let policy = (factory.lock().expect("policy factory lock"))(to);
            let mut node = CliffEdgeNode::new(to, Arc::clone(router.graph()), policy, config);
            let init_actions = node.handle(Event::Init);
            let node = entry.insert(node);
            execute(to, init_actions, router, decisions);
            node
        }
    };
    let actions = match event {
        ShardEvent::Deliver { from, message, .. } => {
            router.counters.delivered.fetch_add(1, Ordering::Relaxed);
            node.handle(Event::Deliver { from, message })
        }
        ShardEvent::Notify { crashed, .. } => node.handle(Event::Crash(crashed)),
    };
    execute(to, actions, router, decisions);
}

fn execute<V: Clone + precipice_core::WireSize>(
    me: NodeId,
    actions: Vec<Action<V>>,
    router: &Router<V>,
    decisions: &Mutex<DecisionCell<V>>,
) {
    for action in actions {
        match action {
            Action::Monitor(targets) => {
                for target in targets {
                    router.monitor(me, target);
                }
            }
            Action::Multicast {
                recipients,
                message,
            } => {
                for to in recipients {
                    router.deliver(me, to, message.clone());
                }
            }
            Action::Decide { view, value } => {
                let step = router.step();
                let previous = decisions
                    .lock()
                    .expect("decisions lock")
                    .insert(me, (view, value, step));
                debug_assert!(previous.is_none(), "{me} decided twice");
            }
        }
    }
}

/// A cluster a test can hold busy: its policy factory reports on the
/// first channel that a handler has entered it, then blocks until the
/// returned sender is dropped. The factory runs inside an event
/// handler, so while it blocks at least one event is outstanding.
#[cfg(test)]
pub(crate) fn held_cluster(
    graph: Graph,
    shards: usize,
) -> (
    ShardedCluster,
    std::sync::mpsc::Receiver<()>,
    std::sync::mpsc::Sender<()>,
) {
    let (entered_tx, entered_rx) = std::sync::mpsc::channel();
    let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
    let cluster = ShardedCluster::start_with(
        Arc::new(graph),
        ProtocolConfig::default(),
        shards,
        move |_me| {
            let _ = entered_tx.send(());
            let _ = release_rx.recv();
            NodeIdValuePolicy
        },
    );
    (cluster, entered_rx, release_tx)
}

/// Asserts that `op` can complete in under 5 ms — fastest of five
/// tries, so one descheduling on a loaded test host does not read as a
/// sleep. (The polled quiet window this guards against took ≥ 100 ms
/// every time.)
#[cfg(test)]
pub(crate) fn assert_does_not_sleep(what: &str, mut op: impl FnMut()) {
    let fastest = (0..5)
        .map(|_| {
            let started = std::time::Instant::now();
            op();
            started.elapsed()
        })
        .min()
        .expect("five tries");
    assert!(
        fastest < Duration::from_millis(5),
        "{what} took {fastest:?}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use precipice_graph::{path, torus, GridDims, Region};

    const TIMEOUT: Duration = Duration::from_secs(20);

    fn run_one(graph: Graph, shards: usize, kills: &[NodeId]) -> (LiveReport, u64) {
        let mut cluster = ShardedCluster::start(graph, ProtocolConfig::default(), shards);
        for &k in kills {
            cluster.kill(k);
        }
        assert!(cluster.await_quiescence(TIMEOUT), "must go quiescent");
        assert_eq!(cluster.pending(), 0);
        let activated = cluster.activated();
        (cluster.shutdown(), activated)
    }

    #[test]
    fn path_agreement_single_shard() {
        let (report, _) = run_one(path(3), 1, &[NodeId(1)]);
        assert_eq!(report.decisions.len(), 2);
        let region: Region = [NodeId(1)].into_iter().collect();
        for d in report.decisions.values() {
            assert_eq!(d.0.region(), &region);
            assert_eq!(d.1, NodeId(0), "smallest border id elected");
        }
    }

    #[test]
    fn torus_agreement_many_shards() {
        let (report, activated) = run_one(torus(GridDims::square(4)), 4, &[NodeId(9)]);
        let region: Region = [NodeId(9)].into_iter().collect();
        let border = report.decisions.keys().copied().collect::<Vec<_>>();
        assert_eq!(border.len(), 4, "whole border decides");
        for d in report.decisions.values() {
            assert_eq!(d.0.region(), &region);
        }
        // Only the border ever saw an event.
        assert_eq!(activated, 4);
        assert_eq!(report.stats.len(), 4);
    }

    #[test]
    fn never_activated_nodes_allocate_no_state() {
        // The spawn-on-demand regression: a 1024-node torus with one
        // kill must only materialize the 4 border nodes — state for
        // the other 1019 is never allocated anywhere.
        let mut cluster =
            ShardedCluster::start(torus(GridDims::square(32)), ProtocolConfig::default(), 3);
        assert_eq!(cluster.activated(), 0, "startup activates nothing");
        assert_eq!(cluster.pending(), 0, "startup posts nothing");
        cluster.kill(NodeId(100));
        assert!(cluster.await_quiescence(TIMEOUT));
        assert_eq!(cluster.activated(), 4);
        let report = cluster.shutdown();
        assert_eq!(report.stats.len(), 4, "stats only for touched nodes");
        assert_eq!(report.decisions.len(), 4);
    }

    #[test]
    fn quiescent_immediately_without_kills() {
        let cluster =
            ShardedCluster::start(torus(GridDims::square(5)), ProtocolConfig::default(), 2);
        assert_does_not_sleep("an idle await", || {
            assert!(cluster.await_quiescence(TIMEOUT));
        });
        let report = cluster.shutdown();
        assert!(report.decisions.is_empty());
        assert!(report.stats.is_empty());
    }

    #[test]
    fn waiter_is_woken_by_the_last_done_and_not_before() {
        let (mut cluster, entered, release) = held_cluster(torus(GridDims::square(4)), 4);
        cluster.kill(NodeId(9));
        entered.recv().expect("a handler is running");
        // Busy for certain: a handler sits inside the policy factory.
        assert!(cluster.pending() > 0);
        assert_does_not_sleep("a zero-timeout await on a busy cluster", || {
            assert!(!cluster.await_quiescence(Duration::ZERO));
        });
        let (woke_tx, woke_rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            let cluster = &cluster;
            s.spawn(move || {
                let quiescent = cluster.await_quiescence(TIMEOUT);
                woke_tx
                    .send((quiescent, cluster.pending(), cluster.decision_count()))
                    .expect("report wake-up");
            });
            assert!(
                woke_rx.recv_timeout(Duration::from_millis(50)).is_err(),
                "waiter returned while a handler was still running"
            );
            drop(release);
            // Woken by the discharge that reached zero: nothing is
            // outstanding and the whole border has decided.
            assert_eq!(woke_rx.recv_timeout(TIMEOUT), Ok((true, 0, 4)));
        });
        assert_eq!(cluster.shutdown().decisions.len(), 4);
    }

    #[test]
    fn push_refused_by_a_closed_ring_is_discharged() {
        let router: Arc<Router<NodeId>> = Router::new(Arc::new(path(4)), 2, None);
        router.rings[1].close();
        router.release(ShardEvent::Notify {
            to: NodeId(3),
            crashed: NodeId(2),
        });
        assert_eq!(router.outstanding.get(), 0, "refused push left a charge");
        router.release(ShardEvent::Notify {
            to: NodeId(0),
            crashed: NodeId(1),
        });
        assert_eq!(router.outstanding.get(), 1, "accepted push stays charged");
    }

    #[test]
    fn decision_count_matches_snapshot_and_excludes_killed() {
        let mut cluster = ShardedCluster::start(path(5), ProtocolConfig::default(), 2);
        cluster.kill(NodeId(2));
        assert!(cluster.await_quiescence(TIMEOUT));
        assert_eq!(cluster.decision_count(), 2);
        // Node 1 decided; once killed it no longer counts.
        cluster.kill(NodeId(1));
        assert!(cluster.await_quiescence(TIMEOUT));
        assert_eq!(cluster.decision_count(), cluster.decisions_snapshot().len());
        assert!(!cluster.decisions_snapshot().contains_key(&NodeId(1)));
    }

    #[test]
    fn adjacent_kills_converge_to_merged_region() {
        let (report, _) = run_one(torus(GridDims::square(5)), 2, &[NodeId(12), NodeId(13)]);
        // Every decision must be internally consistent: decider on the
        // border of its region, region within the killed set.
        let killed: Region = [NodeId(12), NodeId(13)].into_iter().collect();
        assert!(!report.decisions.is_empty());
        for (n, (view, _)) in &report.decisions {
            assert!(view.region().iter().all(|q| killed.contains(q)));
            assert!(view.border().contains(*n), "decider {n} on its border");
        }
    }

    #[test]
    fn distant_regions_decide_independently() {
        let (report, _) = run_one(path(9), 4, &[NodeId(2), NodeId(6)]);
        assert_eq!(report.decisions.len(), 4);
        let r2: Region = [NodeId(2)].into_iter().collect();
        let r6: Region = [NodeId(6)].into_iter().collect();
        assert_eq!(report.decisions[&NodeId(1)].0.region(), &r2);
        assert_eq!(report.decisions[&NodeId(3)].0.region(), &r2);
        assert_eq!(report.decisions[&NodeId(5)].0.region(), &r6);
        assert_eq!(report.decisions[&NodeId(7)].0.region(), &r6);
    }

    #[test]
    fn custom_policy_runs_through_factory() {
        use precipice_core::ConstPolicy;
        let mut cluster =
            ShardedCluster::start_with(Arc::new(path(3)), ProtocolConfig::default(), 2, |_me| {
                ConstPolicy(7u32)
            });
        cluster.kill(NodeId(1));
        assert!(cluster.await_quiescence(TIMEOUT));
        let report = cluster.shutdown();
        assert_eq!(report.decisions.len(), 2);
        for (_, value) in report.decisions.values() {
            assert_eq!(*value, 7);
        }
    }

    #[test]
    fn kill_of_never_activated_node_still_notifies_border() {
        // Killing a node that never ran: its neighbours still learn of
        // it (graph-backed FD resolves observers from the topology, not
        // from subscriptions).
        let (report, _) = run_one(torus(GridDims::square(6)), 6, &[NodeId(14)]);
        assert_eq!(report.decisions.len(), 4);
    }

    #[test]
    fn shards_clamped_to_at_least_one() {
        let (report, _) = run_one(path(3), 0, &[NodeId(1)]);
        assert_eq!(report.decisions.len(), 2);
    }
}
