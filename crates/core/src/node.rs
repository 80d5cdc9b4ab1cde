use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

use precipice_graph::{NodeId, Region, Topology};

use crate::instance::Instance;
use crate::message::{initial_accept_vector, rejection_vector, Message};
use crate::{DecisionPolicy, ProtocolConfig, ProtocolStats, View};

/// An input to the protocol state machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event<D> {
    /// Protocol start (the paper's `⟨init⟩`). Must be the first event.
    Init,
    /// The failure detector reports a monitored node crashed
    /// (`⟨crash | q⟩`).
    Crash(NodeId),
    /// A protocol message was delivered (`⟨mDeliver | p, [m]⟩`).
    Deliver {
        /// The sender.
        from: NodeId,
        /// The message: the one allocation every copy of its multicast
        /// shares.
        message: Arc<Message<D>>,
    },
}

/// One [`Host`] output of the protocol state machine, as the recording
/// host behind [`CliffEdgeNode::handle`] stores it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action<D> {
    /// Subscribe to crash notifications for these nodes
    /// (`⟨monitorCrash | S⟩`).
    Monitor(Vec<NodeId>),
    /// Send `message` to every recipient (the paper's best-effort
    /// `⟨multicast | R, [m]⟩`; recipients include the sender itself,
    /// whose copy loops back through the normal channel).
    Multicast {
        /// Destination nodes, in sorted order.
        recipients: Vec<NodeId>,
        /// The message to send to each: one allocation, which every
        /// copy shares.
        message: Arc<Message<D>>,
    },
    /// The node decided: it agreed on `view` as a crashed region, with
    /// the common decision value `value` (`⟨decide | S, d⟩`). Emitted at
    /// most once per node.
    Decide {
        /// The agreed crashed region (with its border).
        view: View,
        /// The agreed decision value.
        value: D,
    },
}

/// The engine a node runs on: Algorithm 1's three outputs (§3.1),
/// performed in the order the node issues them.
pub trait Host<D> {
    /// `⟨monitorCrash | S⟩`: subscribe to the crashes of `targets`.
    fn monitor(&mut self, targets: &[NodeId]);
    /// `⟨multicast | R, [m]⟩`: send `message` to each recipient in order
    /// (see [`Action::Multicast`]). Every copy is a clone of the one
    /// `Arc`, and the last recipient's can be `message` itself.
    fn multicast(&mut self, recipients: &[NodeId], message: Arc<Message<D>>);
    /// `⟨decide | S, d⟩`: the node agreed on `view` with value `value`.
    /// Called at most once per node.
    fn decide(&mut self, view: &View, value: &D);
}

/// The recording host: each output becomes one [`Action`].
impl<D: Clone> Host<D> for Vec<Action<D>> {
    fn monitor(&mut self, targets: &[NodeId]) {
        self.push(Action::Monitor(targets.to_vec()));
    }

    fn multicast(&mut self, recipients: &[NodeId], message: Arc<Message<D>>) {
        let recipients = recipients.to_vec();
        self.push(Action::Multicast {
            recipients,
            message,
        });
    }

    fn decide(&mut self, view: &View, value: &D) {
        let (view, value) = (view.clone(), value.clone());
        self.push(Action::Decide { view, value });
    }
}

/// The cliff-edge consensus state machine for one node (paper
/// Algorithm 1).
///
/// Feed it [`Event`]s with [`drive`](CliffEdgeNode::drive) and the
/// [`Host`] it runs on, or with [`handle`](CliffEdgeNode::handle). See the
/// [crate documentation](crate) for an example and
/// `precipice-runtime`/`precipice-net` for the two engine hosts.
///
/// `T` supplies on-demand topology queries (the paper's topology
/// service); `P` supplies application decision values.
pub struct CliffEdgeNode<T, P: DecisionPolicy> {
    me: NodeId,
    topology: T,
    policy: P,
    config: ProtocolConfig,
    /// `locallyCrashed`: crashes reported by the failure detector.
    locally_crashed: BTreeSet<NodeId>,
    /// The connected components of `locallyCrashed`, each with its
    /// border, in no particular order. A crash only ever extends them
    /// (lines 5–11 add one node), so [`on_crash`](Self::on_crash) merges
    /// in place instead of recomputing.
    components: Vec<View>,
    /// `maxView`: highest-ranked crashed region known (line 10).
    max_view: Option<View>,
    /// `candidateView`: pending proposal, consumed by line 13.
    candidate_view: Option<View>,
    /// `proposed`: the value proposed for the active instance; `None`
    /// when no instance is active (line 37 reset). Never cleared after a
    /// decision.
    proposed: Option<P::Value>,
    /// `Vp`: the last proposed view. Outlives instance failure and even
    /// the decision — the rejection guard (line 26) keeps comparing
    /// against it, which is what lets decided/stalled nodes fail
    /// lower-ranked latecomers (needed for Progress, Theorem 4 case C2).
    current_view: Option<View>,
    /// `r`: current round of the active instance.
    round: u32,
    /// `received` ∪ the `opinions`/`waiting` state, keyed by view.
    received: BTreeMap<Region, Instance<P::Value>>,
    /// Views this node rejected; their messages are ignored (line 18).
    /// Disjoint from `received`: a view leaves it before it enters here.
    rejected: BTreeSet<Region>,
    /// A view entered `received` or `Vp` moved since the line-26 guard
    /// last found nothing to reject; the guard is a pure predicate of
    /// the two, so until then it cannot fire.
    rescan: bool,
    decided: Option<(View, P::Value)>,
    stats: ProtocolStats,
}

impl<T, P> fmt::Debug for CliffEdgeNode<T, P>
where
    P: DecisionPolicy,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CliffEdgeNode")
            .field("me", &self.me)
            .field(
                "decided",
                &self.decided.as_ref().map(|(v, d)| (v.region().clone(), d)),
            )
            .field(
                "active",
                &(self.proposed.is_some() && self.decided.is_none()),
            )
            .field(
                "current_view",
                &self.current_view.as_ref().map(View::region),
            )
            .field("round", &self.round)
            .field("locally_crashed", &self.locally_crashed)
            .finish()
    }
}

impl<T, P> CliffEdgeNode<T, P>
where
    T: Topology,
    P: DecisionPolicy,
{
    /// Creates the state machine for node `me`.
    pub fn new(me: NodeId, topology: T, policy: P, config: ProtocolConfig) -> Self {
        CliffEdgeNode {
            me,
            topology,
            policy,
            config,
            locally_crashed: BTreeSet::new(),
            components: Vec::new(),
            max_view: None,
            candidate_view: None,
            proposed: None,
            current_view: None,
            round: 0,
            received: BTreeMap::new(),
            rejected: BTreeSet::new(),
            rescan: false,
            decided: None,
            stats: ProtocolStats::default(),
        }
    }

    /// This node's id.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// The decision, if this node has decided.
    pub fn decision(&self) -> Option<(&View, &P::Value)> {
        self.decided.as_ref().map(|(v, d)| (v, d))
    }

    /// `true` once the node has decided.
    pub fn has_decided(&self) -> bool {
        self.decided.is_some()
    }

    /// `true` while a consensus instance is active (proposed and neither
    /// completed nor failed).
    pub fn is_active(&self) -> bool {
        self.proposed.is_some() && self.decided.is_none()
    }

    /// Crashes reported to this node so far.
    pub fn locally_crashed(&self) -> &BTreeSet<NodeId> {
        &self.locally_crashed
    }

    /// Protocol counters.
    pub fn stats(&self) -> &ProtocolStats {
        &self.stats
    }

    /// The protocol configuration in force.
    pub fn config(&self) -> ProtocolConfig {
        self.config
    }

    /// Feeds one event and performs its outputs on `host`, in order.
    ///
    /// This runs the triggering handler and then re-evaluates the
    /// algorithm's state guards (lines 12, 26, 32) to a fixpoint, since
    /// several `upon` clauses of Algorithm 1 are pure state predicates.
    pub fn drive(&mut self, event: Event<P::Value>, host: &mut impl Host<P::Value>) {
        match event {
            Event::Init => self.on_init(host),
            Event::Crash(q) => self.on_crash(q, host),
            Event::Deliver { from, message } => self.on_deliver(from, message),
        }
        self.run_guards(host);
    }

    /// Feeds one event and returns its outputs as [`Action`]s, in order:
    /// [`drive`](Self::drive) into the recording host.
    pub fn handle(&mut self, event: Event<P::Value>) -> Vec<Action<P::Value>> {
        let mut actions = Vec::new();
        self.drive(event, &mut actions);
        actions
    }

    /// Line 4: subscribe to the crashes of our direct neighbours.
    fn on_init(&mut self, host: &mut impl Host<P::Value>) {
        let border = self.topology.neighbors_of(self.me);
        if !border.is_empty() {
            host.monitor(&border);
        }
    }

    /// Lines 5–11: extend `locallyCrashed`, monitor the crashed node's
    /// own border (view construction floods outward through the crashed
    /// region), and refresh `maxView`/`candidateView`.
    fn on_crash(&mut self, q: NodeId, host: &mut impl Host<P::Value>) {
        debug_assert!(
            !self.locally_crashed.contains(&q),
            "perfect FD must notify at most once (got {q} twice)"
        );
        self.stats.crashes_detected += 1;
        self.locally_crashed.insert(q);

        // N(q) grows the component first, then becomes line 7's targets.
        let mut targets = self.topology.neighbors_of(q);
        let grown = self.absorb(q, &targets);

        // Line 7: monitorCrash(border(q) \ locallyCrashed). We also drop
        // ourselves: self-monitoring can never fire.
        targets.retain(|n| *n != self.me && !self.locally_crashed.contains(n));
        if !targets.is_empty() {
            host.monitor(&targets);
        }

        // Lines 8–11. Every other component was ranked against `maxView`
        // when it last grew, and `≻` ranks a strict superset higher, so
        // `maxView` stays the maxRankedRegion of the components by
        // ranking the grown one alone.
        let grew = self
            .max_view
            .as_ref()
            .is_none_or(|mv| grown.rank_cmp(mv) == Ordering::Greater);
        if grew {
            self.max_view = Some(grown.clone());
            self.candidate_view = Some(grown);
        }
    }

    /// Merges the newly crashed `q` (with neighbours `neighbors`) into
    /// the components it borders and returns the grown component.
    ///
    /// The merged border is (their borders ∪ N(q)) \ the merged region:
    /// no other component touches `q`, so none touches the result.
    fn absorb(&mut self, q: NodeId, neighbors: &[NodeId]) -> View {
        let (mut size, mut border_size) = (1, neighbors.len());
        for c in self.components.iter().filter(|c| c.border().contains(q)) {
            size += c.region().len();
            border_size += c.border().len();
        }
        let mut region = Vec::with_capacity(size);
        let mut border = Vec::with_capacity(border_size);
        region.push(q);
        border.extend_from_slice(neighbors);
        for c in self.components.extract_if(.., |c| c.border().contains(q)) {
            region.extend_from_slice(c.region().as_slice());
            border.extend_from_slice(c.border().as_slice());
        }
        region.sort_unstable();
        border.sort_unstable();
        border.dedup();
        border.retain(|n| region.binary_search(n).is_err());
        let grown = View::from_parts(
            Region::from_sorted_vec(region),
            Region::from_sorted_vec(border),
        );
        debug_assert!(
            self.topology.is_border_of(grown.region(), grown.border()),
            "{}: merged border of {} drifted from the topology's",
            self.me,
            grown
        );
        self.components.push(grown.clone());
        grown
    }

    /// Lines 18–25: route the message to its (possibly new) instance.
    fn on_deliver(&mut self, from: NodeId, message: Arc<Message<P::Value>>) {
        // A known instance is the common case; a rejected view is never
        // in `received`, so only a miss needs the second search.
        if let Some(instance) = self.received.get_mut(&message.view) {
            instance.merge(from, &message);
            return;
        }
        if self.rejected.contains(&message.view) {
            self.stats.ignored_messages += 1;
            return;
        }
        self.stats.views_seen += 1;
        let mut instance = Instance::new(View::from_parts(
            message.view.clone(),
            message.border.clone(),
        ));
        instance.merge(from, &message);
        self.received.insert(message.view.clone(), instance);
        self.rescan = true;
    }

    /// Re-evaluates the state guards of Algorithm 1 until none fires.
    ///
    /// Every firing strictly advances monotone state (views move from
    /// `received` to `rejected`; proposals are rank-increasing; rounds
    /// advance; at most one fast abort per instance), so the loop
    /// terminates.
    fn run_guards(&mut self, host: &mut impl Host<P::Value>) {
        loop {
            // Guard line 26: some received view ranks strictly below our
            // (last) proposal — reject it. Lowest-ranked first, for
            // determinism.
            if self.rescan {
                if let Some(low) = self.doomed_view() {
                    let instance = self
                        .received
                        .remove(&low)
                        .expect("target came from received");
                    self.do_reject(instance.into_view(), host);
                    continue;
                }
                self.rescan = false;
            }

            if !self.is_active() {
                // Guard line 12: no active instance and a candidate is
                // pending — propose it.
                if self.proposed.is_none() && self.candidate_view.is_some() {
                    self.do_propose(host);
                    continue;
                }
                break;
            }

            // An active instance can only abort (the fast-abort
            // optimization: a known rejecter dooms it, so skip the
            // remaining rounds) or complete its current round (guard
            // line 32); one lookup serves both.
            let Some(instance) = self.active_instance() else {
                break;
            };
            if self.config.fast_abort_on_reject && instance.has_rejectors() {
                self.proposed = None;
                self.stats.aborted_instances += 1;
                continue;
            }
            if instance.round_complete(self.round, &self.locally_crashed) {
                self.complete_round(host);
                continue;
            }
            break;
        }
    }

    /// Guard line 26's target: the lowest-ranked received view that
    /// ranks strictly below `Vp`, if any. (Never one under the
    /// no-arbitration ablation.)
    fn doomed_view(&self) -> Option<Region> {
        let vp = self
            .current_view
            .as_ref()
            .filter(|_| self.config.arbitration)?;
        // The planted `invert_arbitration` bug (test-only, for the
        // schedule explorer) rejects views ranked *above* the proposal
        // instead of below.
        let doomed = if self.config.invert_arbitration {
            Ordering::Greater
        } else {
            Ordering::Less
        };
        self.received
            .values()
            .filter(|inst| inst.view().rank_cmp(vp) == doomed)
            .min_by(|a, b| a.view().rank_cmp(b.view()))
            .map(|inst| inst.view().region().clone())
    }

    fn active_instance(&self) -> Option<&Instance<P::Value>> {
        let vp = self.current_view.as_ref()?;
        self.received.get(vp.region())
    }

    /// Lines 26–31: reject `low` (already removed from `received`),
    /// notify its border, and ignore it from now on.
    fn do_reject(&mut self, low: View, host: &mut impl Host<P::Value>) {
        debug_assert!(
            self.config.invert_arbitration
                || self
                    .current_view
                    .as_ref()
                    .is_some_and(|vp| low.rank_cmp(vp) == Ordering::Less),
            "only strictly lower-ranked views are rejected"
        );
        self.stats.rejects_sent += 1;
        self.rejected.insert(low.region().clone());
        let message = Message {
            round: 1,
            view: low.region().clone(),
            border: low.border().clone(),
            opinions: rejection_vector(self.me),
        };
        host.multicast(low.border().as_slice(), Arc::new(message));
    }

    /// Lines 12–17: start the consensus instance for the candidate view.
    fn do_propose(&mut self, host: &mut impl Host<P::Value>) {
        let view = self
            .candidate_view
            .take()
            .expect("guard checked candidate_view");
        // Lemma 2 invariants: proposals are strictly rank-monotonic and a
        // rejected view is never proposed.
        debug_assert!(
            self.current_view
                .as_ref()
                .is_none_or(|old| view.rank_cmp(old) == Ordering::Greater),
            "{}: proposal {} does not outrank previous {:?}",
            self.me,
            view,
            self.current_view
        );
        debug_assert!(
            self.config.invert_arbitration || !self.rejected.contains(view.region()),
            "{}: proposing previously rejected view {}",
            self.me,
            view
        );
        debug_assert!(
            view.border().contains(self.me),
            "{}: proposing a view we do not border: {}",
            self.me,
            view
        );

        let value = self.policy.propose(self.me, &view);
        self.proposed = Some(value.clone());
        self.current_view = Some(view.clone());
        self.rescan = true;
        self.round = 1;
        self.stats.proposals += 1;
        self.stats.max_round = self.stats.max_round.max(1);
        let message = Message {
            round: 1,
            view: view.region().clone(),
            border: view.border().clone(),
            opinions: initial_accept_vector(self.me, value),
        };
        host.multicast(view.border().as_slice(), Arc::new(message));
    }

    /// Lines 32–40: the current round of the active instance completed.
    fn complete_round(&mut self, host: &mut impl Host<P::Value>) {
        let vp = self
            .current_view
            .clone()
            .expect("active instance has a view");
        let total = vp.total_rounds();
        let r = self.round;
        let instance = self
            .received
            .get(vp.region())
            .expect("guard checked membership");

        if r >= total {
            self.finalize(&vp, r, host);
            return;
        }

        if self.config.early_termination && r >= 2 && instance.vector_complete(r) {
            // Footnote-6 early termination: everyone we still wait for is
            // represented in a ⊥-free vector. Flood one closing round so
            // laggards inherit the complete vector, then finalize.
            let message = Message {
                round: r + 1,
                view: vp.region().clone(),
                border: vp.border().clone(),
                opinions: instance.vector_arc(r),
            };
            self.stats.round_messages += 1;
            host.multicast(vp.border().as_slice(), Arc::new(message));
            self.finalize(&vp, r, host);
            return;
        }

        // Line 39–40: next round, forwarding the vector of the round that
        // just completed.
        self.round = r + 1;
        self.stats.max_round = self.stats.max_round.max(self.round);
        self.stats.round_messages += 1;
        let message = Message {
            round: r + 1,
            view: vp.region().clone(),
            border: vp.border().clone(),
            opinions: instance.vector_arc(r),
        };
        host.multicast(vp.border().as_slice(), Arc::new(message));
    }

    /// Lines 33–37: evaluate the completed instance.
    fn finalize(&mut self, vp: &View, round: u32, host: &mut impl Host<P::Value>) {
        let instance = self.received.get(vp.region()).expect("instance exists");
        match instance.all_accept_values(round) {
            Some(values) => {
                let value = self.policy.pick(&values);
                debug_assert!(self.decided.is_none(), "{}: second decision", self.me);
                self.stats.decided_instances += 1;
                let (view, value) = self.decided.insert((vp.clone(), value));
                host.decide(view, value);
            }
            None => {
                // Line 37: the attempt failed; proposed resets so the
                // next candidate (if any) starts a new instance.
                self.proposed = None;
                self.stats.failed_instances += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Opinion;
    use crate::NodeIdValuePolicy;
    use precipice_graph::{connected_components, rng, Graph, TopologySpec};
    use std::collections::VecDeque;
    use std::sync::Arc;

    type Node = CliffEdgeNode<Arc<Graph>, NodeIdValuePolicy>;

    /// Lines 8–11 as the node once ran them on every crash: every
    /// component of `locallyCrashed` from scratch, and the
    /// highest-ranked one.
    fn max_ranked_component(graph: &Graph, crashed: &BTreeSet<NodeId>) -> Option<View> {
        connected_components(graph, crashed)
            .into_iter()
            .map(|region| View::new(graph, region))
            .max_by(|a, b| a.rank_cmp(b))
    }

    impl<T: Topology, P: DecisionPolicy> CliffEdgeNode<T, P> {
        /// The state the incremental paths keep, against a rebuild from
        /// `graph`: the components partition `locallyCrashed` exactly as
        /// [`connected_components`] does, each with its true border;
        /// `maxView` is the from-scratch maxRankedRegion of them; and
        /// the line-26 guard, whose scan the node skips while nothing
        /// changed, has nothing left to reject.
        fn check_state(&self, graph: &Graph) {
            let mut held: Vec<&Region> = self.components.iter().map(View::region).collect();
            held.sort();
            let mut expected = connected_components(graph, &self.locally_crashed);
            expected.sort();
            assert_eq!(
                held,
                expected.iter().collect::<Vec<_>>(),
                "{}: components of {:?}",
                self.me,
                self.locally_crashed
            );
            for c in &self.components {
                assert_eq!(
                    c.border().as_slice(),
                    graph.border_of(c.region().iter()),
                    "{}: border of {}",
                    self.me,
                    c
                );
            }
            assert_eq!(
                self.max_view,
                max_ranked_component(graph, &self.locally_crashed),
                "{}: maxView",
                self.me
            );
            assert_eq!(
                self.doomed_view(),
                None,
                "{}: a received view outlived the line-26 guard",
                self.me
            );
        }
    }

    /// Minimal deterministic synchronous harness: a global FIFO queue
    /// (which preserves per-channel FIFO), staged crash injection, and
    /// recording of decisions/monitors. The full-featured version lives
    /// in `precipice-runtime`; this one keeps core tests dependency-free.
    ///
    /// Crash visibility is two-phase to model detection latency: a node
    /// listed as non-live (or killed by [`notify_one`](Net::notify_one))
    /// is *crashed but suppressed* — only once [`release`](Net::release)d
    /// does the failure detector start telling subscribers (current ones
    /// at once, later ones on subscription, exactly once each).
    struct Net {
        graph: Arc<Graph>,
        nodes: BTreeMap<NodeId, Node>,
        queue: VecDeque<(NodeId, NodeId, Arc<Message<NodeId>>)>,
        crashed: BTreeSet<NodeId>,
        /// Crashes visible to the failure detector.
        released: BTreeSet<NodeId>,
        monitors: BTreeMap<NodeId, BTreeSet<NodeId>>,
        /// (observer, target) pairs already notified — exactly-once.
        notified: BTreeSet<(NodeId, NodeId)>,
        decisions: BTreeMap<NodeId, (View, NodeId)>,
    }

    impl Net {
        fn new(graph: &Arc<Graph>, live: impl IntoIterator<Item = u32>) -> Self {
            let mut net = Net {
                graph: graph.clone(),
                nodes: BTreeMap::new(),
                queue: VecDeque::new(),
                crashed: BTreeSet::new(),
                released: BTreeSet::new(),
                monitors: BTreeMap::new(),
                notified: BTreeSet::new(),
                decisions: BTreeMap::new(),
            };
            let mut dead: BTreeSet<u32> = (0..graph.len() as u32).collect();
            for id in live {
                dead.remove(&id);
                let id = NodeId(id);
                net.nodes.insert(
                    id,
                    Node::new(
                        id,
                        graph.clone(),
                        NodeIdValuePolicy,
                        ProtocolConfig::default(),
                    ),
                );
            }
            // Everyone not live is crashed from the start, suppressed.
            net.crashed.extend(dead.into_iter().map(NodeId));
            let ids: Vec<NodeId> = net.nodes.keys().copied().collect();
            for id in ids {
                net.dispatch(id, Event::Init);
            }
            net
        }

        fn with_config(mut self, config: ProtocolConfig) -> Self {
            for node in self.nodes.values_mut() {
                node.config = config;
            }
            self
        }

        fn dispatch(&mut self, id: NodeId, event: Event<NodeId>) {
            let mut pending: VecDeque<(NodeId, Event<NodeId>)> = VecDeque::from([(id, event)]);
            while let Some((id, event)) = pending.pop_front() {
                if !self.nodes.contains_key(&id) {
                    continue;
                }
                let node = self.nodes.get_mut(&id).expect("checked");
                let actions = node.handle(event);
                node.check_state(&self.graph);
                for action in actions {
                    match action {
                        Action::Monitor(targets) => {
                            for t in targets {
                                self.monitors.entry(id).or_default().insert(t);
                                // Strong completeness: subscribing to a
                                // visibly-crashed target reports it right
                                // away.
                                if self.released.contains(&t) && self.notified.insert((id, t)) {
                                    pending.push_back((id, Event::Crash(t)));
                                }
                            }
                        }
                        Action::Multicast {
                            recipients,
                            message,
                        } => {
                            for to in recipients {
                                self.queue.push_back((id, to, message.clone()));
                            }
                        }
                        Action::Decide { view, value } => {
                            let prior = self.decisions.insert(id, (view, value));
                            assert!(prior.is_none(), "{id} decided twice");
                        }
                    }
                }
            }
        }

        /// Crashes `q` (if still alive) and makes the crash visible:
        /// notifies all current live subscribers, in id order; future
        /// subscribers are notified on subscription.
        fn release(&mut self, q: u32) {
            let q = NodeId(q);
            self.crashed.insert(q);
            self.released.insert(q);
            self.nodes.remove(&q);
            let observers: Vec<NodeId> = self
                .monitors
                .iter()
                .filter(|(obs, targets)| self.nodes.contains_key(obs) && targets.contains(&q))
                .map(|(&obs, _)| obs)
                .collect();
            for obs in observers {
                if self.notified.insert((obs, q)) {
                    self.dispatch(obs, Event::Crash(q));
                }
            }
        }

        /// Crashes `q` but notifies only `observer`, modelling detection
        /// skew; the crash stays suppressed for everyone else until
        /// [`release`](Net::release)d.
        fn notify_one(&mut self, observer: u32, q: u32) {
            let (observer, q) = (NodeId(observer), NodeId(q));
            assert!(self.monitors.get(&observer).is_some_and(|t| t.contains(&q)));
            self.crashed.insert(q);
            self.nodes.remove(&q);
            if self.notified.insert((observer, q)) {
                self.dispatch(observer, Event::Crash(q));
            }
        }

        fn pump(&mut self) {
            self.pump_some(usize::MAX);
        }

        /// Delivers up to `count` queued messages, oldest first.
        fn pump_some(&mut self, count: usize) {
            for _ in 0..count {
                let Some((from, to, message)) = self.queue.pop_front() else {
                    return;
                };
                if self.nodes.contains_key(&to) {
                    self.dispatch(to, Event::Deliver { from, message });
                }
            }
        }

        fn decision_of(&self, id: u32) -> Option<&(View, NodeId)> {
            self.decisions.get(&NodeId(id))
        }

        fn total_rejects(&self) -> u64 {
            self.nodes.values().map(|n| n.stats().rejects_sent).sum()
        }
    }

    fn region(ids: &[u32]) -> Region {
        ids.iter().map(|&i| NodeId(i)).collect()
    }

    #[test]
    fn init_monitors_neighbors() {
        let g = Arc::new(Graph::from_edges(3, [(0, 1), (1, 2)]));
        let mut n = Node::new(NodeId(1), g, NodeIdValuePolicy, ProtocolConfig::default());
        let actions = n.handle(Event::Init);
        assert_eq!(actions, vec![Action::Monitor(vec![NodeId(0), NodeId(2)])]);
        assert!(!n.has_decided());
        assert!(!n.is_active());
    }

    #[test]
    fn crash_starts_instance_and_transitive_monitoring() {
        // 0 - 1 - 2 - 3 path; node 0 learns 1 crashed.
        let g = Arc::new(Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]));
        let mut n = Node::new(NodeId(0), g, NodeIdValuePolicy, ProtocolConfig::default());
        n.handle(Event::Init);
        let actions = n.handle(Event::Crash(NodeId(1)));
        // Must now monitor 1's other neighbour (2) and propose {1} to
        // border {0, 2}.
        assert!(actions.contains(&Action::Monitor(vec![NodeId(2)])));
        let Some(Action::Multicast {
            recipients,
            message,
        }) = actions
            .iter()
            .find(|a| matches!(a, Action::Multicast { .. }))
        else {
            panic!("expected a proposal multicast, got {actions:?}")
        };
        assert_eq!(recipients, &vec![NodeId(0), NodeId(2)]);
        assert_eq!(message.round, 1);
        assert_eq!(message.view, region(&[1]));
        assert_eq!(message.border, region(&[0, 2]));
        assert!(n.is_active());
        assert_eq!(n.stats().proposals, 1);
    }

    #[test]
    fn two_border_nodes_agree_on_path() {
        let g = Arc::new(Graph::from_edges(3, [(0, 1), (1, 2)]));
        let mut net = Net::new(&g, [0, 2]);
        net.release(1);
        net.pump();
        let d0 = net.decision_of(0).expect("n0 decides");
        let d2 = net.decision_of(2).expect("n2 decides");
        assert_eq!(d0, d2);
        assert_eq!(d0.0.region(), &region(&[1]));
        assert_eq!(d0.1, NodeId(0), "min border id elected");
    }

    #[test]
    fn singleton_border_decides_alone() {
        let g = Arc::new(Graph::from_edges(2, [(0, 1)]));
        let mut net = Net::new(&g, [0]);
        net.release(1);
        net.pump();
        let d = net.decision_of(0).expect("lone border node decides");
        assert_eq!(d.0.region(), &region(&[1]));
        assert_eq!(d.0.border().as_slice(), &[NodeId(0)]);
    }

    #[test]
    fn cascading_growth_converges_to_full_region() {
        // 0 - 1 - 2 - 3 - 4; nodes 1, 2, 3 crash one after another while
        // node 0 keeps retrying with growing views.
        let g = Arc::new(Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]));
        let mut net = Net::new(&g, [0, 4]);
        net.release(1);
        net.pump();
        assert!(
            net.decision_of(0).is_none(),
            "instance on {{1}} must fail: 2 is dead"
        );
        net.release(2);
        net.pump();
        assert!(
            net.decision_of(0).is_none(),
            "instance on {{1,2}} must fail: 3 is dead"
        );
        net.release(3);
        net.pump();
        let d0 = net.decision_of(0).expect("n0 decides eventually");
        let d4 = net.decision_of(4).expect("n4 decides eventually");
        assert_eq!(d0, d4);
        assert_eq!(d0.0.region(), &region(&[1, 2, 3]));
        assert_eq!(d0.0.border(), &region(&[0, 4]));
        assert_eq!(d0.1, NodeId(0));
    }

    /// Rejection scenario mirroring Fig. 1(b): a node championing a grown
    /// region rejects stale lower-ranked views — including its own former
    /// proposal — and everyone converges on the full region.
    #[test]
    fn stale_view_is_rejected_then_converges() {
        // Path 0 - 1 - 2 - 3; nodes 1 and 2 crash. Node 0 detects both
        // crashes quickly; node 3 lags behind.
        let g = Arc::new(Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]));
        let mut net = Net::new(&g, [0, 3]);

        // n0 alone learns of 1's crash -> proposes {1} to border {0,2}.
        net.notify_one(0, 1);
        net.pump();
        assert!(net.decision_of(0).is_none());
        assert_eq!(net.nodes[&NodeId(0)].stats().proposals, 1);

        // n0 learns of 2's crash: the {1} instance completes with a ⊥
        // for 2 and fails; n0 proposes {1,2} and — now championing a
        // higher view — rejects its own stale {1} instance.
        net.notify_one(0, 2);
        let s0 = net.nodes[&NodeId(0)].stats();
        assert_eq!(s0.proposals, 2);
        assert_eq!(s0.failed_instances, 1);
        assert_eq!(s0.rejects_sent, 1, "stale {{1}} must be rejected");
        net.pump();
        assert!(
            net.decision_of(0).is_none(),
            "n3 has not detected anything yet"
        );

        // n3's detector catches up (1 first, then 2): it proposes the
        // stale {2}, fails it, proposes {1,2}, and both decide.
        net.release(1);
        net.release(2);
        net.pump();

        let expected = region(&[1, 2]);
        for id in [0u32, 3] {
            let d = net
                .decision_of(id)
                .unwrap_or_else(|| panic!("n{id} must decide"));
            assert_eq!(d.0.region(), &expected, "n{id} decided {}", d.0);
            assert_eq!(d.0.border(), &region(&[0, 3]));
            assert_eq!(d.1, NodeId(0));
        }
        // n0 rejected {1} and n3's stale {2}; n3 rejected its own {2}
        // after re-proposing (exact splits depend on interleaving).
        assert!(
            net.total_rejects() >= 2,
            "got {} rejects",
            net.total_rejects()
        );
    }

    #[test]
    fn rejected_view_messages_are_ignored() {
        let g = Arc::new(Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]));
        let mut net = Net::new(&g, [0, 3]);
        net.notify_one(0, 1);
        net.pump();
        net.notify_one(0, 2);
        net.pump();
        assert_eq!(net.nodes[&NodeId(0)].stats().rejects_sent, 1);
        // n0 rejected {1}; feed it another {1} message — ignored.
        let stale = Message {
            round: 1,
            view: region(&[1]),
            border: region(&[0, 2]),
            opinions: initial_accept_vector(NodeId(2), NodeId(2)),
        };
        let before = net.nodes[&NodeId(0)].stats().ignored_messages;
        net.dispatch(
            NodeId(0),
            Event::Deliver {
                from: NodeId(2),
                message: stale.into(),
            },
        );
        assert_eq!(net.nodes[&NodeId(0)].stats().ignored_messages, before + 1);
    }

    #[test]
    fn star_hub_crash_all_leaves_agree() {
        // Star with hub 0 and 5 leaves: border({0}) is all leaves, who
        // are *not* adjacent to each other — a 5-participant instance.
        let g = Arc::new(precipice_graph::star(6));
        let mut net = Net::new(&g, [1, 2, 3, 4, 5]);
        net.release(0);
        net.pump();
        let first = net.decision_of(1).expect("leaf 1 decides").clone();
        assert_eq!(first.0.region(), &region(&[0]));
        assert_eq!(first.1, NodeId(1));
        for leaf in 2..=5u32 {
            assert_eq!(net.decision_of(leaf), Some(&first), "leaf {leaf} agrees");
        }
        // |B| = 5 participants -> 4 rounds in the faithful protocol.
        assert_eq!(net.nodes[&NodeId(1)].stats().max_round, 4);
    }

    #[test]
    fn early_termination_reaches_same_decision_in_fewer_rounds() {
        let g = Arc::new(precipice_graph::star(6));
        let mut net = Net::new(&g, [1, 2, 3, 4, 5])
            .with_config(ProtocolConfig::faithful().with_early_termination(true));
        net.release(0);
        net.pump();
        let first = net.decision_of(1).expect("decides").clone();
        for leaf in 2..=5u32 {
            assert_eq!(net.decision_of(leaf), Some(&first));
        }
        assert!(
            net.nodes[&NodeId(1)].stats().max_round < 4,
            "early termination should cut rounds, got {}",
            net.nodes[&NodeId(1)].stats().max_round
        );
    }

    #[test]
    fn fast_abort_skips_doomed_rounds() {
        // Star: hub 0 crashes; leaf 1 proposes {0} (a 3-participant
        // instance, 2 rounds) and then receives a rejection from leaf 2.
        let g = Arc::new(precipice_graph::star(4));
        let build = |config: ProtocolConfig| {
            let mut n = Node::new(NodeId(1), g.clone(), NodeIdValuePolicy, config);
            n.handle(Event::Init);
            let actions = n.handle(Event::Crash(NodeId(0)));
            let Some(Action::Multicast { message, .. }) = actions
                .iter()
                .find(|a| matches!(a, Action::Multicast { .. }))
            else {
                panic!("no proposal")
            };
            let own = message.clone();
            // Self-delivery of the proposal.
            n.handle(Event::Deliver {
                from: NodeId(1),
                message: own,
            });
            assert!(n.is_active());
            n
        };
        let reject = Message {
            round: 1,
            view: region(&[0]),
            border: region(&[1, 2, 3]),
            opinions: rejection_vector(NodeId(2)),
        };

        // With fast abort: the instance dies on the spot.
        let mut fast = build(ProtocolConfig::faithful().with_fast_abort(true));
        fast.handle(Event::Deliver {
            from: NodeId(2),
            message: reject.clone().into(),
        });
        assert!(!fast.is_active());
        assert_eq!(fast.stats().aborted_instances, 1);
        assert_eq!(fast.stats().failed_instances, 0);

        // Faithful: the instance stays active, still waiting for leaf
        // 3's round-1 message (doomed, but run to completion).
        let mut faithful = build(ProtocolConfig::faithful());
        faithful.handle(Event::Deliver {
            from: NodeId(2),
            message: reject.into(),
        });
        assert!(faithful.is_active());
        assert_eq!(faithful.stats().aborted_instances, 0);
    }

    #[test]
    fn decided_node_still_rejects_lower_views() {
        // Path 0-1-2 decides on {1}; then a disjoint region near node 0
        // appears: 0 must reject it (stale Vp guard), not join it.
        let g = Arc::new(Graph::from_edges(5, [(0, 1), (1, 2), (0, 3), (3, 4)]));
        let mut net = Net::new(&g, [0, 2, 4]);
        net.release(1);
        net.pump();
        assert!(net.decision_of(0).is_some());
        let rejects_before = net.nodes[&NodeId(0)].stats().rejects_sent;
        // Node 3 crashes; node 4 proposes {3} (border {0,4}); {3} ranks
        // below {1}? Same size 1; border({3}) = {0,4}, border({1}) =
        // {0,2}: same size 2 -> lex tiebreak {3} > {1}... so {3} outranks
        // {1} and is NOT rejected; 0 simply never joins (proposed is
        // still set after deciding).
        net.release(3);
        net.pump();
        assert_eq!(net.nodes[&NodeId(0)].stats().rejects_sent, rejects_before);
        assert!(
            net.decision_of(4).is_none(),
            "n4 stalls: weak progress (documented)"
        );
        // CD7 still holds: the cluster of {1} has a decided border node
        // (n0 decided), and {3} is adjacent to {1}'s border via node 0.
    }

    #[test]
    fn stats_track_views_and_rounds() {
        let g = Arc::new(Graph::from_edges(3, [(0, 1), (1, 2)]));
        let mut net = Net::new(&g, [0, 2]);
        net.release(1);
        net.pump();
        let s = net.nodes[&NodeId(0)].stats();
        assert_eq!(s.proposals, 1);
        assert_eq!(s.decided_instances, 1);
        assert_eq!(s.failed_instances, 0);
        assert_eq!(s.views_seen, 1);
        assert_eq!(s.crashes_detected, 1);
    }

    /// Lemma 2: the views a node proposes are strictly rank-monotonic,
    /// and a rejected view is never proposed. (Also enforced by debug
    /// assertions inside `do_propose`; this exercises them end-to-end.)
    #[test]
    fn lemma2_proposals_strictly_rank_monotonic() {
        let g = Arc::new(Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]));
        let mut n = Node::new(
            NodeId(0),
            g.clone(),
            NodeIdValuePolicy,
            ProtocolConfig::default(),
        );
        n.handle(Event::Init);
        // Ordered log of round-1 multicasts: proposals (self-accept) and
        // rejections (self-reject).
        #[derive(Debug, PartialEq)]
        enum Step {
            Proposed(View),
            Rejected(Region),
        }
        let mut steps: Vec<Step> = Vec::new();
        let mut capture = |actions: Vec<Action<NodeId>>, me: NodeId| {
            for a in actions {
                if let Action::Multicast { message, .. } = a {
                    if message.round != 1 {
                        continue;
                    }
                    match message.opinions.get(&me) {
                        Some(Opinion::Accept(_)) => steps.push(Step::Proposed(View::from_parts(
                            message.view.clone(),
                            message.border.clone(),
                        ))),
                        Some(Opinion::Reject) => steps.push(Step::Rejected(message.view.clone())),
                        None => {}
                    }
                }
            }
        };
        // Crashes 1, 2, 3 arrive one by one; each failed instance is
        // followed by a strictly larger proposal.
        capture(n.handle(Event::Crash(NodeId(1))), NodeId(0));
        // Self-deliver the proposal so the instance can fail on ⊥.
        let own = Message {
            round: 1,
            view: region(&[1]),
            border: region(&[0, 2]),
            opinions: initial_accept_vector(NodeId(0), NodeId(0)),
        };
        capture(
            n.handle(Event::Deliver {
                from: NodeId(0),
                message: own.into(),
            }),
            NodeId(0),
        );
        capture(n.handle(Event::Crash(NodeId(2))), NodeId(0));
        capture(n.handle(Event::Crash(NodeId(3))), NodeId(0));
        let proposals: Vec<&View> = steps
            .iter()
            .filter_map(|s| match s {
                Step::Proposed(v) => Some(v),
                Step::Rejected(_) => None,
            })
            .collect();
        assert!(
            proposals.len() >= 2,
            "expected several proposals: {steps:?}"
        );
        for w in proposals.windows(2) {
            assert_eq!(
                w[1].rank_cmp(w[0]),
                std::cmp::Ordering::Greater,
                "{} must outrank {}",
                w[1],
                w[0]
            );
        }
        // Never propose a view rejected *earlier* (rejecting one's own
        // stale proposal afterwards is legal and expected).
        for (i, step) in steps.iter().enumerate() {
            if let Step::Proposed(v) = step {
                let rejected_before = steps[..i]
                    .iter()
                    .any(|s| matches!(s, Step::Rejected(r) if r == v.region()));
                assert!(!rejected_before, "proposed previously rejected view {v}");
            }
        }
        // The stale {1} did get rejected after the bigger proposal.
        assert!(steps.contains(&Step::Rejected(region(&[1]))), "{steps:?}");
    }

    /// Lemma 3: all nodes completing a consensus instance on the same
    /// view hold identical opinion vectors (here read out of the final
    /// round's slot after a full agreement).
    #[test]
    fn lemma3_completing_nodes_hold_identical_vectors() {
        let g = Arc::new(precipice_graph::star(5));
        let mut net = Net::new(&g, [1, 2, 3, 4]);
        net.release(0);
        net.pump();
        let view = region(&[0]);
        let final_round = 3; // |B| = 4 participants
        let mut vectors = Vec::new();
        for (id, node) in &net.nodes {
            let inst = node.received.get(&view).expect("participated");
            vectors.push((id, inst.vector(final_round).clone()));
        }
        assert_eq!(vectors.len(), 4);
        let (first_id, first) = &vectors[0];
        let _ = first_id;
        for (id, v) in &vectors[1..] {
            assert_eq!(v, first, "{id} diverged from {first_id}");
        }
        // ... and the common vector is all-accept over the full border.
        assert_eq!(first.len(), 4);
        assert!(first.values().all(Opinion::is_accept));
    }

    /// Lemma 1 (cross-node form): for any view, each participant has at
    /// most one accept *value* across every vector of every node — an
    /// accept entry can only originate from the unique proposal event of
    /// that participant (line 16).
    #[test]
    fn lemma1_accept_values_are_unique_per_node_and_view() {
        use std::collections::BTreeMap;
        let g = Arc::new(Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]));
        let mut net = Net::new(&g, [0, 3]);
        net.notify_one(0, 1);
        net.pump();
        net.notify_one(0, 2);
        net.pump();
        net.release(1);
        net.release(2);
        net.pump();
        // Collect every (view, participant) -> set of accept values seen
        // anywhere in the system.
        let mut values: BTreeMap<(Region, NodeId), BTreeSet<NodeId>> = BTreeMap::new();
        for node in net.nodes.values() {
            for (view_region, inst) in &node.received {
                let rounds = inst.view().total_rounds();
                for r in 1..=rounds {
                    for (pk, op) in inst.vector(r) {
                        if let Opinion::Accept(v) = op {
                            values
                                .entry((view_region.clone(), *pk))
                                .or_default()
                                .insert(*v);
                        }
                    }
                }
            }
        }
        assert!(!values.is_empty());
        for ((view, pk), vs) in values {
            assert_eq!(
                vs.len(),
                1,
                "{pk} has several accept values for {view}: {vs:?}"
            );
        }
    }

    /// The incremental components and the skipped line-26 scans against
    /// [`check_state`](CliffEdgeNode::check_state) after every event of
    /// every node: random `er`/`geometric`/`tree`/`torus` graphs of 2–40
    /// nodes, random crash sets, and random notification orders with
    /// detection skew and deliveries interleaved.
    #[test]
    fn incremental_state_matches_a_rebuild_under_random_crashes() {
        rng::cases("node-incremental-state", 100, |rng| {
            let n = rng.gen_range(2..=40usize);
            let spec = match rng.gen_range(0..4usize) {
                0 => TopologySpec::Er(n, 0.15 + 0.45 * rng.gen_f64()),
                1 => TopologySpec::Geometric(n, 0.35 + 0.35 * rng.gen_f64()),
                2 => TopologySpec::Tree(n),
                _ => TopologySpec::Torus(rng.gen_range(3..=6usize)),
            };
            let graph = Arc::new(spec.build(rng.next_u64()).expect("connected sample"));
            let n = graph.len() as u32;
            let share = 0.2 + 0.5 * rng.gen_f64();
            let mut order: Vec<u32> = (0..n).filter(|_| rng.gen_bool(share)).collect();
            if order.is_empty() {
                order.push(rng.gen_range(0..n as usize) as u32);
            }
            if order.len() == n as usize {
                order.pop();
            }
            rng.shuffle(&mut order);
            let live: Vec<u32> = (0..n).filter(|p| !order.contains(p)).collect();
            let config = ProtocolConfig::faithful()
                .with_fast_abort(rng.gen_bool(0.5))
                .with_early_termination(rng.gen_bool(0.5))
                .with_inverted_arbitration(rng.gen_bool(0.1));
            let mut net = Net::new(&graph, live).with_config(config);
            for q in order {
                net.pump_some(rng.gen_range(0..8usize));
                // Detection skew: some subscribers hear of `q` before
                // the rest.
                let early: Vec<u32> = net
                    .monitors
                    .iter()
                    .filter(|(obs, targets)| {
                        net.nodes.contains_key(obs) && targets.contains(&NodeId(q))
                    })
                    .map(|(obs, _)| obs.0)
                    .collect();
                for obs in early {
                    if rng.gen_bool(0.3) {
                        net.notify_one(obs, q);
                    }
                }
                net.release(q);
            }
            net.pump();
        });
    }

    #[test]
    fn no_event_no_action() {
        // A node with no crashed neighbours stays silent forever: feed
        // it a foreign message and it only records state (CD3 locality is
        // enforced by never *initiating* anything).
        let g = Arc::new(Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]));
        let mut n = Node::new(NodeId(3), g, NodeIdValuePolicy, ProtocolConfig::default());
        n.handle(Event::Init);
        let msg = Message {
            round: 1,
            view: region(&[1]),
            border: region(&[0, 2]),
            opinions: initial_accept_vector(NodeId(0), NodeId(0)),
        };
        let actions = n.handle(Event::Deliver {
            from: NodeId(0),
            message: msg.into(),
        });
        assert!(
            actions.is_empty(),
            "non-border node never responds: {actions:?}"
        );
    }
}
