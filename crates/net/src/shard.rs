//! The sharded event-loop runtime: instances of `W` shards over one
//! shared topology each, run by one resident pool of worker threads.
//!
//! The paper's point is that agreeing on a crashed region costs what
//! the region's border costs, so nothing here is paid per node up
//! front — no thread, no channel, no protocol state — and nothing is
//! paid per *instance* beyond its own tables: opening one spawns
//! nothing, closing one joins nothing. The design is the one the sim
//! side has used since the footprint-proportional rework:
//!
//! - **Disjoint node ranges.** The id space of one shared
//!   [`Arc<Graph>`] (owned or mapped `.pcsr`) is cut into `W` contiguous
//!   ranges; shard `i` owns range `i`, and only one thread at a time
//!   ever touches protocol state for those nodes.
//! - **Lazy activation.** A node materializes (policy built, `Init`
//!   run) the first time an event addressed to it is popped — exactly
//!   like the sim's lazy process table. A 10⁶-node topology with one
//!   crashed node allocates state for the border only.
//! - **Node slots.** A shard keeps the nodes it has touched as the
//!   simulator's run slot does: a [`MiniMap`] from node id into a slab
//!   of slots, each holding the node (once activated) and a `crashed`
//!   flag. A node killed before it ever activated gets a tombstone slot.
//! - **Local queue, MPSC rings.** An event a handler addresses to a
//!   node of its own shard goes on that shard's local queue, beside the
//!   node table; cross-shard traffic and the control thread's kills flow
//!   over one [`Ring`] per shard (see [`ring`](crate::ring)).
//! - **One outstanding-event counter.** The kill-switch quiescence
//!   oracle is one atomic shared by all shards (see *Quiescence*
//!   below): zero ⇒ quiescent, exactly, and
//!   [`ShardedCluster::await_quiescence`](crate::ShardedCluster::await_quiescence)
//!   sleeps on the 1 → 0 transition instead of polling.
//! - **Tenancy.** An instance owns no thread. It is a tenant of the
//!   process-wide worker pool (see *The pool* below).
//!
//! Failure detection is the simulator's own policy: the one
//! [`FailureDetector`] of `precipice-core`, built
//! [`with_static_graph`](FailureDetector::with_static_graph) over the
//! instance's topology. Every node is implicitly subscribed to its graph
//! neighbours (so `Init`'s monitor of the neighbourhood is a no-op and
//! never forces activation), dynamic monitors are recorded only for
//! non-neighbours, and a kill notifies `neighbours(q) ∪ dynamic(q)`
//! exactly once per (observer, target) pair, in ascending node order.
//! The [`Router`] here holds the detector behind one lock, beside a
//! crash log of every kill in kill order, and routes what it decides.
//! Handling an event takes that lock only when the log has grown since
//! the shard last looked (an atomic holds its length): the shard then
//! copies its own new crashes into its slots. A multicast does not
//! consult the detector: every copy is routed, and one addressed to a
//! dead node is dropped where it is handled, as the simulator drops it
//! at delivery. Nor does a monitor of graph neighbours only — `Init`'s
//! — which the static rule already covers.
//!
//! # The pool
//!
//! One pool of long-lived workers serves every instance in the process.
//! Worker `i` sleeps on its own **token ring** and runs shard `i` of
//! whichever instance a token names. The pool grows to the largest
//! shard count any instance has asked for and never shrinks; an
//! instance with `W` shards is served by workers `0..W`.
//!
//! An instance keeps everything that is its own — [`Router`], per-shard
//! event rings, failure detector, outstanding counter, decisions — plus,
//! per shard, a node table behind a lock and a `scheduled` flag. The
//! flag says *a token for this shard is queued or running*:
//!
//! - A producer ([`Router::release`]) pushes the event, then swaps the
//!   flag to `true`; if it was `false`, that producer hands worker `i`
//!   one token (`Arc<dyn Tenant>`, shard).
//! - The worker holding a token pops the shard's local queue, and when
//!   that is empty its ring, without blocking. After [`DRAIN_BATCH`]
//!   events it puts the token at the back of its token ring, so a storm
//!   on one instance delays a neighbour by a batch, not by the storm.
//!   With both empty it stores `false`, looks at the ring once more, and
//!   retires the token unless the ring is non-empty *and* it wins the
//!   flag back.
//!
//! No event is stranded: every flag access is `SeqCst` and the ring's
//! mutex orders the push against the second look. A producer that read
//! `true` either read it before the worker's store — then its push
//! precedes the worker's second look, which sees it — or read a `true`
//! that a later producer or the worker itself wrote after winning
//! `false → true`, and the winner owns a token. Only the winner of that
//! edge makes a token, and all tokens for shard `i` go to worker `i`,
//! so a shard has one consumer at a time and its node-table lock is
//! never contended. Nor is a local event stranded: only a handler of
//! the shard, inside a turn, pushes one, and a turn ends either with
//! the local queue empty or at the batch bound, with its token queued
//! again and the local queue kept in the node table for the next turn.
//!
//! A handler runs under `catch_unwind`. A panic — a policy's, in
//! practice — fails *that instance*: the message is kept for
//! [`ShardedCluster::failure`](crate::ShardedCluster::failure), the
//! instance's rings are closed so later posts are refused, and what is
//! still queued — the outputs the handler routed before it panicked
//! among them — is discharged unhandled, so a waiter wakes. The shard's
//! local queue is cleared on the spot: its events were never charged,
//! and the token that covers them is discharged as usual. The worker
//! and its other tenants carry on. The panic is caught inside the
//! node-table guard's scope, so that lock is not poisoned; the locks a
//! handler takes further in can be, and every lock of an instance is
//! therefore taken through [`lock`], which reads through poison: a
//! failed instance handles nothing more, and what is read afterwards
//! (decisions, stats, the crashed set) is only ever updated one whole
//! entry at a time.
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
//! - a **local event is covered by the token's charge** instead: it is
//!   pushed by a handler inside a turn, whose token is charged, and the
//!   worker discharges that token only once both the ring and the local
//!   queue are empty (or carries it over, local queue and all, at the
//!   batch bound);
//! - it is **discharged only after its handler has returned**, and
//!   every post that handler made has itself been charged — the count
//!   cannot dip to zero between a handler's outputs and its
//!   acknowledgement;
//! - a push **refused by a closed ring** is discharged on the spot
//!   (nobody will ever handle it);
//! - the only source of events besides handlers is
//!   [`ShardedCluster::kill`](crate::ShardedCluster::kill), which needs
//!   `&mut self` — so while a waiter holds `&self`, **a zero is final**.
//!
//! A single counter rather than one per shard: a reader summing
//! per-shard counters one after another can see each at zero while an
//! event hops between them. Same-shard events do not touch it at all,
//! so the shared cache line is paid per cross-shard event and per turn.
//! Gated runs park posts in the gate *uncharged* — a gated handler's
//! outputs never take the local queue — and there zero means "the one
//! released event has been handled".
//!
//! # Retirement
//!
//! Closing an instance must be as exact as its quiescence: when
//! [`ShardedCluster::shutdown`](crate::ShardedCluster::shutdown)
//! returns, no pool thread holds the instance. Otherwise a descheduled
//! worker keeps the last `Arc` — graph mapping and all — alive beside
//! the next instance's. So **a token is charged to the same counter**
//! as the events it will drain:
//!
//! - charged by the producer that won the flag, before the token is
//!   pushed (the event that caused it is still charged, so the count
//!   does not touch zero in between);
//! - carried over, not re-charged, when a turn ends at the batch bound
//!   and the token goes to the back of the ring;
//! - **discharged by the worker only after `drain` has returned and the
//!   worker has dropped its handle** — which is why the counter sits in
//!   its own `Arc`, cloned before the turn.
//!
//! Zero therefore means *nothing queued, nothing running, nobody
//! holding*, and `shutdown` is: close the rings, wait for zero, read
//! the node tables. A [`ShardedCluster`](crate::ShardedCluster) dropped
//! without `shutdown` closes its rings too; what is queued drains, and
//! the instance goes with whichever handle — the caller's or a worker's
//! — is dropped
//! last.
//!
//! # Lock order
//!
//! A shard's node-table lock (held for a whole turn; it also guards the
//! local queue), then `fd` (the router's [`FailureDetector`] and crash
//! log mutex: taken by a kill, which appends to the log; by a handler
//! that finds the log grown, to copy its shard's new crashes; and by a
//! monitor of a non-neighbour — a multicast takes none), then the
//! gate's lock (also taken by a decision, to read the release clock);
//! the policy-factory and decisions locks are taken under the
//! node-table lock and hold nothing; ring mutexes — event rings and
//! token rings alike — and the pool's worker list are leaves. Nothing
//! takes `fd` while holding a ring or gate lock, and the detector
//! itself calls back into nothing.

use std::any::Any;
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

use precipice_core::{
    CliffEdgeNode, DecisionPolicy, Event, FailureDetector, Host, Message, ProtocolConfig, View,
};
use precipice_graph::{Graph, NodeId};
use precipice_sim::MiniMap;

use crate::gate::Gate;
use crate::quiesce::Outstanding;
use crate::ring::{Pop, Ring};

/// Capacity of each shard's ring; bursts beyond it spill (see
/// [`ring`](crate::ring)).
const RING_CAPACITY: usize = 1024;

/// Capacity of a worker's token ring. A shard has at most one token
/// queued, so a worker spills only past this many busy instances.
const TOKEN_CAPACITY: usize = 64;

/// Events a worker handles for one instance before the token goes to
/// the back of its ring: what a storm can cost a neighbouring tenant
/// per turn.
const DRAIN_BATCH: usize = 64;

/// Locks one of an instance's mutexes, reading through poison (see *The
/// pool* in the [module docs](self) for why that is sound here).
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What a pool worker knows of an instance, whatever its policy type.
trait Tenant: Send + Sync {
    /// Runs one turn of `shard`: handles up to [`DRAIN_BATCH`] queued
    /// events. `true` if the turn ended at that bound — the shard is
    /// still scheduled and its token must be queued again.
    fn drain(&self, shard: usize) -> bool;

    /// The instance's counter, in an `Arc` of its own so that a worker
    /// can discharge a token after letting go of the instance.
    fn outstanding(&self) -> Arc<Outstanding>;
}

/// One turn for shard `shard` of `tenant`, queued on worker `shard`.
pub(crate) struct Token {
    tenant: Arc<dyn Tenant>,
    shard: usize,
}

/// A pool worker: run the turn each token names, retire the token.
fn worker_main(tokens: &Ring<Token>) {
    while let Pop::Item(Token { tenant, shard }) = tokens.pop(Duration::MAX) {
        let outstanding = tenant.outstanding();
        let retired = if tenant.drain(shard) {
            // Refused only while the pool is being dropped, which needs
            // every cluster on it gone: nobody waits for this instance.
            !tokens.push(Token { tenant, shard })
        } else {
            drop(tenant);
            true
        };
        // Last, and without the instance in hand: see *Retirement*.
        if retired {
            outstanding.done();
        }
    }
}

struct Worker {
    tokens: Arc<Ring<Token>>,
    thread: JoinHandle<()>,
}

/// Long-lived shard workers; see *The pool* in the [module docs](self).
/// Production code uses the one [`resident`] pool; dropping a pool
/// stops and joins its workers once their token rings are drained.
pub(crate) struct Pool {
    workers: Mutex<Vec<Worker>>,
}

impl Pool {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Pool {
            workers: Mutex::new(Vec::new()),
        })
    }

    /// The token rings of workers `0..shards`, spawning the ones that
    /// are not running yet.
    pub(crate) fn tokens(&self, shards: usize) -> std::io::Result<Vec<Arc<Ring<Token>>>> {
        let mut workers = self.workers.lock().expect("pool lock");
        while workers.len() < shards {
            let tokens = Arc::new(Ring::new(TOKEN_CAPACITY));
            let thread = std::thread::Builder::new()
                .name(format!("precipice-shard-{}", workers.len()))
                .spawn({
                    let tokens = Arc::clone(&tokens);
                    move || worker_main(&tokens)
                })?;
            workers.push(Worker { tokens, thread });
        }
        Ok(workers[..shards]
            .iter()
            .map(|w| Arc::clone(&w.tokens))
            .collect())
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        let workers = std::mem::take(
            self.workers
                .get_mut()
                .unwrap_or_else(PoisonError::into_inner),
        );
        for worker in &workers {
            worker.tokens.close();
        }
        for worker in workers {
            // A worker cannot panic (handlers are caught), and a `Drop`
            // has nobody to report to.
            let _ = worker.thread.join();
        }
    }
}

/// The process-wide pool every `start*`, gated run and `precipice
/// serve` instance runs on.
pub(crate) fn resident() -> Arc<Pool> {
    static POOL: OnceLock<Arc<Pool>> = OnceLock::new();
    Arc::clone(POOL.get_or_init(Pool::new))
}

/// An event in flight towards the node that must handle it.
#[derive(Debug)]
pub(crate) enum ShardEvent<V> {
    /// A protocol message from `from` to `to`.
    Deliver {
        /// Destination node.
        to: NodeId,
        /// Sending node.
        from: NodeId,
        /// The protocol message, shared by every copy of its multicast.
        message: Arc<Message<V>>,
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
pub(crate) struct Counters {
    messages_sent: AtomicU64,
    bytes_sent: AtomicU64,
    delivered: AtomicU64,
    dropped: AtomicU64,
    notifications: AtomicU64,
    pub(crate) activations: AtomicU64,
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

/// The shared heart of an instance: ring addressing, worker
/// scheduling, quiescence accounting and graph-backed failure
/// detection. Lock order is in the [module docs](self).
pub(crate) struct Router<V> {
    graph: Arc<Graph>,
    pub(crate) shards: usize,
    /// Nodes per shard range (last shard takes the remainder).
    range: usize,
    pub(crate) rings: Vec<Ring<ShardEvent<V>>>,
    /// Per shard: a token for it is queued or running.
    scheduled: Vec<AtomicBool>,
    /// Token ring of the worker serving each shard.
    workers: Vec<Arc<Ring<Token>>>,
    /// The instance this router is part of, as tokens name it.
    tenant: Weak<dyn Tenant>,
    /// Events and tokens charged and not yet discharged, across all
    /// shards.
    pub(crate) outstanding: Arc<Outstanding>,
    /// The failure detector, graph-backed over `graph`, and the kills in
    /// kill order, shared by all shards.
    fd: Mutex<Detector>,
    /// The length of `fd`'s crash log, stored (`Release`) after each
    /// append and loaded (`Acquire`) by every handled event: a handler
    /// that finds it unchanged takes no lock.
    crashes: AtomicUsize,
    /// When set, posts are parked here instead of entering the rings —
    /// the delivery gate for schedule exploration.
    gate: Option<Arc<Gate<V>>>,
    pub(crate) counters: Counters,
}

impl<V: Clone + precipice_core::WireSize> Router<V> {
    /// A router with one shard per worker token ring.
    fn new(
        graph: Arc<Graph>,
        workers: Vec<Arc<Ring<Token>>>,
        tenant: Weak<dyn Tenant>,
        gate: Option<Arc<Gate<V>>>,
    ) -> Self {
        let shards = workers.len();
        let range = graph.len().div_ceil(shards).max(1);
        Router {
            fd: Mutex::new(Detector {
                fd: FailureDetector::with_static_graph(Arc::clone(&graph)),
                log: Vec::new(),
            }),
            crashes: AtomicUsize::new(0),
            graph,
            shards,
            range,
            rings: (0..shards).map(|_| Ring::new(RING_CAPACITY)).collect(),
            scheduled: (0..shards).map(|_| AtomicBool::new(false)).collect(),
            workers,
            tenant,
            outstanding: Arc::default(),
            gate,
            counters: Counters::default(),
        }
    }

    pub(crate) fn graph(&self) -> &Arc<Graph> {
        &self.graph
    }

    /// Which shard owns `node`: contiguous ranges of the id space.
    pub(crate) fn shard_of(&self, node: NodeId) -> usize {
        ((node.0 as usize) / self.range).min(self.shards - 1)
    }

    /// Routes `event` towards its owner: parks it in the gate when one is
    /// installed, queues it on `local` when that is its owner's queue,
    /// and otherwise charges and enqueues it on its owner's ring.
    fn route(&self, event: ShardEvent<V>, local: Option<&mut Local<'_, V>>) {
        if let Some(gate) = &self.gate {
            gate.park(event);
        } else if let Some(local) = local.filter(|l| self.shard_of(event.to()) == l.shard) {
            local.queue.push_back(event);
        } else {
            self.release(event);
        }
    }

    /// Sends `event` into its owner's ring for real, charging it first
    /// (quiescence must never observe the window between enqueue and
    /// charge), and schedules the shard if no token is out for it. A
    /// ring closed by shutdown refuses the push; nobody will handle
    /// that event, so it is discharged here.
    pub(crate) fn release(&self, event: ShardEvent<V>) {
        self.outstanding.charge();
        let shard = self.shard_of(event.to());
        if !self.rings[shard].push(event) {
            self.outstanding.done();
        } else if !self.scheduled[shard].swap(true, Ordering::SeqCst) {
            // Only a handler or the owning cluster releases, and either
            // holds the instance.
            let tenant = self.tenant.upgrade().expect("released by a live instance");
            self.outstanding.charge();
            if !self.workers[shard].push(Token { tenant, shard }) {
                self.outstanding.done();
            }
        }
    }

    /// Closes every ring: queued events still drain, later posts are
    /// refused and discharged on the spot. A handler's same-shard
    /// outputs take no ring, so they drain with the turn that made them.
    pub(crate) fn close(&self) {
        for ring in &self.rings {
            ring.close();
        }
    }

    /// One protocol multicast from `from`: every copy is routed, in
    /// `recipients` order, each a clone of the one `Arc` and the last
    /// taking `message` itself. A copy for a dead recipient is dropped
    /// where it is handled, as the simulator drops it at delivery, so no
    /// detector lock is taken here.
    fn multicast(
        &self,
        from: NodeId,
        recipients: &[NodeId],
        message: Arc<Message<V>>,
        mut local: Option<&mut Local<'_, V>>,
    ) {
        let size = message.wire_size() as u64;
        let Some((&last, rest)) = recipients.split_last() else {
            return;
        };
        for &to in rest {
            let message = Arc::clone(&message);
            let copy = ShardEvent::Deliver { to, from, message };
            self.route(copy, local.as_deref_mut());
        }
        let copy = ShardEvent::Deliver {
            to: last,
            from,
            message,
        };
        self.route(copy, local);
        let sent = recipients.len() as u64;
        let counters = &self.counters;
        counters.messages_sent.fetch_add(sent, Ordering::Relaxed);
        counters
            .bytes_sent
            .fetch_add(sent * size, Ordering::Relaxed);
    }

    /// `observer` asks to monitor `targets`, under one fd lock; each
    /// target already dead is notified now, in `targets` order. Targets
    /// that are all graph neighbours of `observer` — `Init`'s monitor —
    /// take no lock: the detector covers them statically, and
    /// subscribing to a covered pair is a no-op before and after the
    /// crash (see [`FailureDetector::subscribe`]).
    fn monitor(&self, observer: NodeId, targets: &[NodeId], mut local: Option<&mut Local<'_, V>>) {
        let row = self.graph.neighbors(observer);
        if targets.iter().all(|t| row.binary_search(t).is_ok()) {
            return;
        }
        let mut detector = lock(&self.fd);
        for &target in targets {
            if detector.fd.subscribe(observer, target) {
                self.notify(observer, target, local.as_deref_mut());
            }
        }
    }

    /// Marks `q` crashed, appends it to the crash log and notifies its
    /// observers (see [`FailureDetector::record_crash`]); a no-op if `q`
    /// was already dead. The log's new length is published before any
    /// notification is routed, so every handler that an event caused by
    /// this kill reaches sees `q` dead.
    pub(crate) fn kill(&self, q: NodeId) {
        let mut detector = lock(&self.fd);
        let Detector { fd, log } = &mut *detector;
        if fd.is_crashed(q) {
            return;
        }
        let observers = fd.record_crash(q);
        log.push(q);
        self.crashes.store(log.len(), Ordering::Release);
        for observer in observers {
            self.notify(observer, q, None);
        }
    }

    /// Routes one crash notification. Called with the fd lock held.
    fn notify(&self, to: NodeId, crashed: NodeId, local: Option<&mut Local<'_, V>>) {
        self.counters.notifications.fetch_add(1, Ordering::Relaxed);
        self.route(ShardEvent::Notify { to, crashed }, local);
    }

    /// The gate's release clock (0 outside gated runs).
    fn step(&self) -> u64 {
        self.gate.as_ref().map_or(0, |gate| gate.released())
    }

    pub(crate) fn snapshot(&self) -> RouterCounters {
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

/// The router's failure detector and its crash log: every kill, in kill
/// order, for the shards to copy into their node slots.
struct Detector {
    fd: FailureDetector,
    log: Vec<NodeId>,
}

/// Where a handler's same-shard outputs go: the shard being drained and
/// its local queue.
struct Local<'a, V> {
    shard: usize,
    queue: &'a mut VecDeque<ShardEvent<V>>,
}

/// One node a shard has touched, as the simulator's run slot keeps it.
pub(crate) struct NodeSlot<P: DecisionPolicy> {
    pub(crate) id: NodeId,
    /// `None` for a tombstone: a node killed before it was activated.
    pub(crate) node: Option<CliffEdgeNode<Arc<Graph>, P>>,
    crashed: bool,
}

/// What one shard owns, behind its lock: the slots of the nodes it has
/// touched, the events its own handlers addressed to it, and how much of
/// the router's crash log it has copied into its slots.
pub(crate) struct ShardTable<P: DecisionPolicy> {
    /// Node id → index into `slots`.
    index: MiniMap,
    pub(crate) slots: Vec<NodeSlot<P>>,
    /// Same-shard events, uncharged: the turn's token covers them (see
    /// *Quiescence* in the [module docs](self)).
    local: VecDeque<ShardEvent<P::Value>>,
    crashes_seen: usize,
}

impl<P: DecisionPolicy> Default for ShardTable<P> {
    fn default() -> Self {
        ShardTable {
            index: MiniMap::new(),
            slots: Vec::new(),
            local: VecDeque::new(),
            crashes_seen: 0,
        }
    }
}

impl<P: DecisionPolicy> ShardTable<P> {
    /// Copies the crash log's new entries that `shard` owns into slots:
    /// a touched node's slot is flagged, an untouched one gets a
    /// tombstone.
    fn take_crashes(&mut self, router: &Router<P::Value>, shard: usize) {
        let detector = lock(&router.fd);
        for &q in &detector.log[self.crashes_seen..] {
            if router.shard_of(q) != shard {
                continue;
            }
            match self.index.get(u64::from(q.0)) {
                Some(i) => self.slots[i as usize].crashed = true,
                None => {
                    self.index.insert(u64::from(q.0), self.slots.len() as u32);
                    self.slots.push(NodeSlot {
                        id: q,
                        node: None,
                        crashed: true,
                    });
                }
            }
        }
        self.crashes_seen = detector.log.len();
    }
}

/// One agreement instance: everything a tenant of the pool owns.
pub(crate) struct Instance<P: DecisionPolicy> {
    pub(crate) router: Router<P::Value>,
    config: ProtocolConfig,
    /// Builds a node's policy the first time the node activates.
    factory: Mutex<Box<dyn FnMut(NodeId) -> P + Send>>,
    pub(crate) decisions: Mutex<DecisionCell<P::Value>>,
    /// Per-shard node tables. Worker `i` holds lock `i` for a turn and
    /// `shutdown` reads it after retirement; it is never contended.
    pub(crate) nodes: Vec<Mutex<ShardTable<P>>>,
    /// The first handler panic's message; set once, then nothing more
    /// is handled.
    pub(crate) failed: OnceLock<String>,
}

impl<P> Instance<P>
where
    P: DecisionPolicy + Send + 'static,
    P::Value: Send + Sync,
{
    /// An idle instance with one shard per worker token ring.
    pub(crate) fn new(
        graph: Arc<Graph>,
        config: ProtocolConfig,
        factory: impl FnMut(NodeId) -> P + Send + 'static,
        gate: Option<Arc<Gate<P::Value>>>,
        workers: Vec<Arc<Ring<Token>>>,
    ) -> Arc<Self> {
        Arc::new_cyclic(|me: &Weak<Self>| Instance {
            nodes: workers.iter().map(|_| Mutex::default()).collect(),
            router: Router::new(graph, workers, me.clone(), gate),
            config,
            factory: Mutex::new(Box::new(factory)),
            decisions: Mutex::default(),
            failed: OnceLock::new(),
        })
    }

    /// Pop-side of the event loop for one event of `shard`: drop it if
    /// its target is dead, activate the target on demand, then drive it
    /// with the live runtime as its host.
    fn handle(&self, shard: usize, event: ShardEvent<P::Value>, table: &mut ShardTable<P>) {
        let router = &self.router;
        let to = event.to();
        router.counters.events.fetch_add(1, Ordering::Relaxed);
        if router.crashes.load(Ordering::Acquire) != table.crashes_seen {
            table.take_crashes(router, shard);
        }
        let ShardTable {
            index,
            slots,
            local,
            ..
        } = table;
        let mut host = LiveHost {
            me: to,
            router,
            local: Local {
                shard,
                queue: local,
            },
            decisions: &self.decisions,
        };
        let key = u64::from(to.0);
        let slot = match index.get(key) {
            // Every dead node of this shard has a slot by now.
            Some(i) if slots[i as usize].crashed => {
                router.counters.dropped.fetch_add(1, Ordering::Relaxed);
                return;
            }
            Some(i) => i as usize,
            None => {
                // First event for this node: build it and run Init before
                // the event itself — the protocol requires Init first, and
                // its neighbourhood monitor is free under graph-backed FD.
                router.counters.activations.fetch_add(1, Ordering::Relaxed);
                let policy = (lock(&self.factory))(to);
                let mut node =
                    CliffEdgeNode::new(to, Arc::clone(router.graph()), policy, self.config);
                node.drive(Event::Init, &mut host);
                index.insert(key, slots.len() as u32);
                slots.push(NodeSlot {
                    id: to,
                    node: Some(node),
                    crashed: false,
                });
                slots.len() - 1
            }
        };
        let node = slots[slot]
            .node
            .as_mut()
            .expect("a live slot holds its node");
        match event {
            ShardEvent::Deliver { from, message, .. } => {
                router.counters.delivered.fetch_add(1, Ordering::Relaxed);
                node.drive(Event::Deliver { from, message }, &mut host);
            }
            ShardEvent::Notify { crashed, .. } => node.drive(Event::Crash(crashed), &mut host),
        }
    }

    /// Marks the instance failed by a handler's panic and closes its
    /// rings, so posts from now on are refused and what is queued is
    /// discharged unhandled as the scheduled turns reach it.
    fn fail(&self, panic: Box<dyn Any + Send>) {
        let message = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or("a handler panicked");
        let _ = self.failed.set(message.to_owned());
        self.router.close();
    }
}

impl<P> Tenant for Instance<P>
where
    P: DecisionPolicy + Send + 'static,
    P::Value: Send + Sync,
{
    fn drain(&self, shard: usize) -> bool {
        let router = &self.router;
        let (ring, scheduled) = (&router.rings[shard], &router.scheduled[shard]);
        let mut table = lock(&self.nodes[shard]);
        for _ in 0..DRAIN_BATCH {
            // Local events first; only a ring event was charged.
            let (event, charged) = match table.local.pop_front() {
                Some(event) => (event, false),
                None => match ring.try_pop() {
                    Some(event) => (event, true),
                    None => {
                        // Give the flag up, then look once more: a producer
                        // that pushed since the pop read `true` and
                        // scheduled nothing.
                        scheduled.store(false, Ordering::SeqCst);
                        if ring.queued() == 0 || scheduled.swap(true, Ordering::SeqCst) {
                            return false;
                        }
                        continue;
                    }
                },
            };
            if self.failed.get().is_none() {
                // Caught below the guard on `table`, which stays clean.
                let handled =
                    catch_unwind(AssertUnwindSafe(|| self.handle(shard, event, &mut table)));
                if let Err(panic) = handled {
                    self.fail(panic);
                    // Uncharged, and never to be handled.
                    table.local.clear();
                }
            }
            if charged {
                router.outstanding.done();
            }
        }
        true
    }

    fn outstanding(&self) -> Arc<Outstanding> {
        Arc::clone(&self.router.outstanding)
    }
}

/// The live runtime as a [`Host`], for one handled event of node `me`.
struct LiveHost<'a, V> {
    me: NodeId,
    router: &'a Router<V>,
    local: Local<'a, V>,
    decisions: &'a Mutex<DecisionCell<V>>,
}

impl<V: Clone + precipice_core::WireSize> Host<V> for LiveHost<'_, V> {
    fn monitor(&mut self, targets: &[NodeId]) {
        self.router.monitor(self.me, targets, Some(&mut self.local));
    }

    fn multicast(&mut self, recipients: &[NodeId], message: Arc<Message<V>>) {
        let local = Some(&mut self.local);
        self.router.multicast(self.me, recipients, message, local);
    }

    fn decide(&mut self, view: &View, value: &V) {
        let decision = (view.clone(), value.clone(), self.router.step());
        let previous = lock(self.decisions).insert(self.me, decision);
        debug_assert!(previous.is_none(), "{} decided twice", self.me);
    }
}

/// A cluster a test can hold busy: its policy factory reports on the
/// first channel that a handler has entered it, then blocks until the
/// returned sender is dropped. The factory runs inside an event
/// handler, so while it blocks at least one event is outstanding — and
/// a worker is parked, which is why the cluster gets a pool of its own
/// rather than stalling every test on the resident one.
#[cfg(test)]
pub(crate) fn held_cluster(
    graph: Graph,
    shards: usize,
) -> (
    crate::ShardedCluster,
    std::sync::mpsc::Receiver<()>,
    std::sync::mpsc::Sender<()>,
) {
    let (entered_tx, entered_rx) = std::sync::mpsc::channel();
    let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
    let cluster = crate::ShardedCluster::launch(
        Pool::new(),
        Arc::new(graph),
        ProtocolConfig::default(),
        shards,
        move |_me| {
            let _ = entered_tx.send(());
            let _ = release_rx.recv();
            precipice_core::NodeIdValuePolicy
        },
        None,
    )
    .expect("spawn shard worker");
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
    use crate::{LiveReport, ShardedCluster};
    use precipice_core::NodeIdValuePolicy;
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
        // Token rings nobody serves: what is scheduled stays put.
        let workers: Vec<_> = (0..2).map(|_| Arc::new(Ring::new(4))).collect();
        let instance = Instance::new(
            Arc::new(path(4)),
            ProtocolConfig::default(),
            |_me| NodeIdValuePolicy,
            None,
            workers.clone(),
        );
        let router = &instance.router;
        router.rings[1].close();
        router.release(ShardEvent::Notify {
            to: NodeId(3),
            crashed: NodeId(2),
        });
        assert_eq!(router.outstanding.get(), 0, "refused push left a charge");
        assert_eq!(workers[1].queued(), 0, "refused push scheduled a turn");
        for _ in 0..2 {
            router.release(ShardEvent::Notify {
                to: NodeId(0),
                crashed: NodeId(1),
            });
        }
        // Two accepted events and the one token their shard needs.
        assert_eq!(router.outstanding.get(), 3, "accepted pushes stay charged");
        assert_eq!(workers[0].queued(), 1, "one token per false -> true edge");
    }

    /// A multicast routes every copy in recipient order — the simulator
    /// sends to dead recipients too — and `messages_sent` counts them
    /// all. A copy for a dead node is dropped where it is handled:
    /// counted once in `dropped`, discharged, never activating the node.
    #[test]
    fn multicast_drops_dead_copies_and_routes_live_ones_in_order() {
        // One token ring nobody serves: everything routed stays queued
        // until the test takes the shard's turn itself.
        let workers = vec![Arc::new(Ring::new(4))];
        let instance = Instance::new(
            Arc::new(path(6)),
            ProtocolConfig::default(),
            |_me| NodeIdValuePolicy,
            None,
            workers.clone(),
        );
        let router = &instance.router;
        router.kill(NodeId(2));
        router.kill(NodeId(4));
        let mut opinions = precipice_core::OpinionVector::new();
        opinions.insert(NodeId(1), precipice_core::Opinion::Accept(NodeId(1)));
        let message = Message {
            round: 1,
            view: [NodeId(2)].into_iter().collect(),
            border: [NodeId(1), NodeId(3)].into_iter().collect(),
            opinions: Arc::new(opinions),
        };
        // 4 (round) + 8 (view) + 12 (border) + 4 + 9 (one accept).
        assert_eq!(message.wire_size(), 37);
        // One allocation per multicast, which every copy shares.
        let sent = [Arc::new(message.clone()), Arc::new(message.clone())];
        let recipients = [1, 2, 3, 4, 5].map(NodeId);
        // From outside a handler, so every copy takes the ring.
        router.multicast(NodeId(0), &recipients, Arc::clone(&sent[0]), None);
        // The last recipient is dead: the moved message is routed too.
        let last_dead = [NodeId(3), NodeId(4)];
        router.multicast(NodeId(1), &last_dead, Arc::clone(&sent[1]), None);

        let counters = router.snapshot();
        assert_eq!(counters.dropped, 0, "nothing handled yet");
        assert_eq!(counters.messages_sent, 7);
        assert_eq!(counters.bytes_sent, 7 * 37);
        assert_eq!(counters.notifications, 4);
        // Eleven events and the one token their shard needs.
        assert_eq!(router.outstanding.get(), 12);
        assert_eq!(workers[0].queued(), 1);
        let queued: Vec<_> = std::iter::from_fn(|| router.rings[0].try_pop()).collect();
        let labels: Vec<_> = queued
            .iter()
            .map(|event| match event {
                ShardEvent::Notify { to, crashed } => ('n', crashed.0, to.0),
                ShardEvent::Deliver {
                    to,
                    from,
                    message: m,
                } => {
                    assert_eq!(**m, message);
                    assert!(Arc::ptr_eq(m, &sent[from.index()]), "a copy was cloned");
                    ('d', from.0, to.0)
                }
            })
            .collect();
        assert_eq!(
            labels,
            [
                ('n', 2, 1),
                ('n', 2, 3),
                ('n', 4, 3),
                ('n', 4, 5),
                ('d', 0, 1),
                ('d', 0, 2),
                ('d', 0, 3),
                ('d', 0, 4),
                ('d', 0, 5),
                ('d', 1, 3),
                ('d', 1, 4),
            ]
        );

        // Queue the dead copies again, discharge the rest unhandled, and
        // take the shard's turn as its worker would.
        for event in queued {
            if [NodeId(2), NodeId(4)].contains(&event.to()) {
                assert!(router.rings[0].push(event));
            } else {
                router.outstanding.done();
            }
        }
        assert!(!instance.drain(0), "three drops fit in one turn");
        drop(workers[0].try_pop().expect("the shard's token"));
        router.outstanding.done();
        let counters = router.snapshot();
        assert_eq!(counters.dropped, 3, "0 -> 2, 0 -> 4 and 1 -> 4, once each");
        assert_eq!(counters.events, 3);
        assert_eq!((counters.delivered, counters.activations), (0, 0));
        assert_eq!(router.outstanding.get(), 0, "a dropped copy stayed charged");
    }

    /// On one shard every protocol copy is a same-shard event, so the
    /// ring carries only the kills' 1024 notifications and never holds
    /// more than its capacity; and the 256 tombstones of killed nodes
    /// are not activations.
    #[test]
    fn a_one_shard_storm_never_spills() {
        let lattice =
            (0..16u32).flat_map(|r| (0..16).map(move |c| NodeId((4 * r + 1) * 64 + 4 * c + 1)));
        let mut cluster =
            ShardedCluster::start(torus(GridDims::square(64)), ProtocolConfig::default(), 1);
        for q in lattice {
            cluster.kill(q);
        }
        assert!(cluster.await_quiescence(TIMEOUT));
        assert_eq!(cluster.spilled(), 0);
        assert_eq!(cluster.decision_count(), 1024);
        assert_eq!(cluster.activated(), 1024);
        assert_eq!(cluster.shutdown().decisions.len(), 1024);
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

    /// The one detector behaviour that needs the router: an event
    /// addressed to a dead node is dropped — counted, discharged and
    /// never handled, so the node is not even activated.
    #[test]
    fn posts_to_killed_nodes_are_dropped() {
        let mut cluster = ShardedCluster::start(path(3), ProtocolConfig::default(), 2);
        cluster.kill(NodeId(0));
        assert!(cluster.await_quiescence(TIMEOUT));
        let before = cluster.counters().dropped;
        // 1's crash is reported to both neighbours; 0 is dead.
        cluster.kill(NodeId(1));
        assert!(cluster.await_quiescence(TIMEOUT));
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
