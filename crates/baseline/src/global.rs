//! Global flooding uniform consensus over the entire system.
//!
//! One epoch of flooding consensus among **all** `N` nodes, triggered by
//! the first crash detection, agreeing on the set of crashed nodes. Every
//! participant multicasts its accumulated proposal vector to everyone
//! each round — `O(N²)` messages per round — and every node monitors
//! every other node (`O(N²)` failure-detector subscriptions): exactly the
//! global entanglement the cliff-edge protocol avoids.
//!
//! The implementation uses the early-termination rule (decide at the end
//! of round `r ≥ 2` once the vector covers every non-crashed node), since
//! the faithful `N−1` rounds are infeasible to simulate at interesting
//! sizes — this *under-states* the baseline's cost, biasing the
//! comparison against cliff-edge, which is the conservative direction.
//!
//! Scope: per-node entries are grow-only crash sets merged by union, and
//! a node that detects a new crash before deciding updates its entry and
//! re-floods its current round. The epoch therefore agrees on the union
//! of everything detected before the epoch's last round closes; crashes
//! landing later can yield different unions at different deciders
//! (production systems re-run epochs). The comparison experiments (E4)
//! schedule all crashes before the epoch completes, where the decision is
//! unique (asserted in tests).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use precipice_graph::{Graph, NodeId, NodeSet, Region};
use precipice_sim::{
    Context, MessageSize, Metrics, Process, RunOutcome, SimConfig, SimTime, Simulation,
};

/// One round's flooding message: the sender's accumulated vector of
/// per-node crash-set proposals.
#[derive(Debug, Clone)]
pub struct GlobalMsg {
    /// Round number (1-based).
    pub round: u32,
    /// Accumulated proposals: `node -> crash set it proposed`.
    /// `Arc`-shared: flooding to `N` recipients snapshots the vector
    /// once; byte accounting still charges the full vector per message.
    pub vector: Arc<BTreeMap<NodeId, BTreeSet<NodeId>>>,
    /// Wire size of `vector` under the baseline's encoding, computed
    /// once at snapshot time: `size_bytes` used to re-walk the whole
    /// O(N) vector for **each** of the N recipients, an O(N²)-per-flood
    /// accounting cost that dwarfed the protocol itself at E4 sizes.
    wire_bytes: usize,
}

impl MessageSize for GlobalMsg {
    fn size_bytes(&self) -> usize {
        self.wire_bytes
    }
}

/// A participant in the global epoch.
///
/// Internal state is index-addressed (`Vec` entries, [`NodeSet`] word
/// masks) so the per-delivery work is an entry-length scan plus a few
/// word-parallel coverage checks; the previous `BTreeMap`/`BTreeSet`
/// representation cost O(N log N) tree probes per delivery — ~280 s for
/// one n = 576 run, which was 90 % of the whole E4 sweep. The *message
/// flow* (who floods what, when, at which accounted size) is
/// bit-identical: E4's global columns don't move.
#[derive(Debug)]
pub struct GlobalProcess {
    me: NodeId,
    n: usize,
    joined: bool,
    round: u32,
    detected: BTreeSet<NodeId>,
    /// Word-mask mirror of `detected` for the coverage checks.
    detected_mask: NodeSet,
    /// Per-node proposal entries, indexed by node id (`None` = no entry
    /// yet — distinct from an empty entry, which counts as contributed).
    vector: Vec<Option<BTreeSet<NodeId>>>,
    /// Nodes with a `Some` entry in `vector`, as a word mask.
    have_entry: NodeSet,
    /// Senders heard from, per round.
    heard: BTreeMap<u32, NodeSet>,
    decision: Option<(BTreeSet<NodeId>, SimTime)>,
}

impl GlobalProcess {
    /// Creates the participant for node `me` in a system of `n` nodes.
    pub fn new(me: NodeId, n: usize) -> Self {
        GlobalProcess {
            me,
            n,
            joined: false,
            round: 0,
            detected: BTreeSet::new(),
            detected_mask: NodeSet::with_capacity(n),
            vector: vec![None; n],
            have_entry: NodeSet::with_capacity(n),
            decision: None,
            heard: BTreeMap::new(),
        }
    }

    /// The decided crash set and decision time, if this node decided.
    pub fn decision(&self) -> Option<&(BTreeSet<NodeId>, SimTime)> {
        self.decision.as_ref()
    }

    fn everyone(&self) -> impl Iterator<Item = NodeId> {
        (0..self.n).map(NodeId::from_index)
    }

    /// `true` when `a ∪ detected` covers all `n` nodes (word-parallel).
    fn covers_everyone(&self, a: &NodeSet) -> bool {
        let (wa, wd) = (a.words(), self.detected_mask.words());
        let mut covered = 0usize;
        for i in 0..wa.len().max(wd.len()) {
            let w = wa.get(i).copied().unwrap_or(0) | wd.get(i).copied().unwrap_or(0);
            covered += w.count_ones() as usize;
        }
        covered == self.n
    }

    fn set_entry_bit(&mut self, node: NodeId) {
        self.have_entry.insert(node);
    }

    fn join(&mut self, ctx: &mut Context<'_, GlobalMsg>) {
        if self.joined {
            return;
        }
        self.joined = true;
        self.round = 1;
        self.vector[self.me.index()] = Some(self.detected.clone());
        self.set_entry_bit(self.me);
        self.flood(ctx);
    }

    fn flood(&mut self, ctx: &mut Context<'_, GlobalMsg>) {
        // Snapshot the index-addressed entries into the wire-format map
        // (ascending node order, exactly the order `BTreeMap` iteration
        // always produced) and price it once.
        let vector: BTreeMap<NodeId, BTreeSet<NodeId>> = self
            .vector
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.as_ref().map(|set| (NodeId::from_index(i), set.clone())))
            .collect();
        let wire_bytes = 4 + vector
            .values()
            .map(|set| 4 + 4 + 4 * set.len())
            .sum::<usize>();
        let msg = GlobalMsg {
            round: self.round,
            vector: Arc::new(vector),
            wire_bytes,
        };
        for to in self.everyone() {
            ctx.send(to, msg.clone());
        }
    }

    /// `true` when everyone not known-crashed has contributed an entry.
    fn vector_complete(&self) -> bool {
        self.covers_everyone(&self.have_entry)
    }

    /// `true` when every non-crashed node's round-`r` message arrived.
    fn round_complete(&self, r: u32) -> bool {
        match self.heard.get(&r) {
            Some(h) => self.covers_everyone(h),
            // No round-r message yet: complete only if every node is
            // known-crashed (impossible while we are alive — mirrors the
            // old per-node scan).
            None => self.covers_everyone(&NodeSet::new()),
        }
    }

    fn decide_on_union(&mut self, now: SimTime) {
        let union: BTreeSet<NodeId> = self
            .vector
            .iter()
            .flatten()
            .flat_map(|s| s.iter().copied())
            .collect();
        self.decision = Some((union, now));
    }

    fn advance(&mut self, ctx: &mut Context<'_, GlobalMsg>) {
        while self.decision.is_none() && self.joined && self.round_complete(self.round) {
            // Early-termination condition (see module docs): two rounds
            // minimum, vector covering all live nodes.
            if self.round >= 2 && self.vector_complete() {
                self.decide_on_union(ctx.now());
                return;
            }
            if self.round as usize >= self.n.saturating_sub(1).max(2) {
                // Faithful bound reached: decide on what we have.
                self.decide_on_union(ctx.now());
                return;
            }
            self.round += 1;
            self.flood(ctx);
        }
    }
}

impl Process for GlobalProcess {
    type Msg = GlobalMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, GlobalMsg>) {
        // Global consensus with a perfect FD: everyone monitors everyone.
        for p in self.everyone() {
            if p != self.me {
                ctx.monitor(p);
            }
        }
    }

    fn on_message(&mut self, from: NodeId, msg: GlobalMsg, ctx: &mut Context<'_, GlobalMsg>) {
        if !self.joined {
            self.join(ctx);
        }
        for (node, proposal) in msg.vector.iter() {
            // Entries are grow-only snapshots of their owner's detection
            // set, so any two in-flight versions are subset-comparable
            // and a length check decides whether the incoming one adds
            // anything. (Union semantics preserved: extending with a
            // longer snapshot is exactly the union of nested sets.)
            match &mut self.vector[node.index()] {
                slot @ None => {
                    *slot = Some(proposal.clone());
                    self.have_entry.insert(*node);
                }
                Some(s) if s.len() < proposal.len() => {
                    s.extend(proposal.iter().copied());
                }
                Some(s) => {
                    debug_assert!(
                        proposal.is_subset(s),
                        "per-node entries must be subset-comparable"
                    );
                }
            }
        }
        self.heard.entry(msg.round).or_default().insert(from);
        self.advance(ctx);
    }

    fn on_crash_notification(&mut self, crashed: NodeId, ctx: &mut Context<'_, GlobalMsg>) {
        self.detected.insert(crashed);
        self.detected_mask.insert(crashed);
        if !self.joined {
            self.join(ctx);
        } else if self.decision.is_none() {
            // Late detection: grow our own entry and re-flood the
            // current round so the new knowledge reaches everyone.
            self.vector[self.me.index()]
                .get_or_insert_default()
                .insert(crashed);
            self.set_entry_bit(self.me);
            self.flood(ctx);
        }
        self.advance(ctx);
    }
}

/// Outcome of a global-consensus run: what each live node decided, plus
/// transport accounting for the cost comparison.
#[derive(Debug)]
pub struct GlobalReport {
    /// Decisions (crash-set unions) per deciding node.
    pub decisions: BTreeMap<NodeId, (BTreeSet<NodeId>, SimTime)>,
    /// Transport accounting.
    pub metrics: Metrics,
    /// How the run ended.
    pub outcome: RunOutcome,
}

impl GlobalReport {
    /// The decided crashed regions (connected components of the union),
    /// from an arbitrary decider (asserting they all agree is the
    /// caller's job where applicable).
    pub fn decided_regions(&self, graph: &Graph) -> Vec<Region> {
        match self.decisions.values().next() {
            Some((union, _)) => precipice_graph::connected_components(graph, union),
            None => Vec::new(),
        }
    }
}

/// Runs the global baseline on `graph` with the given crash schedule.
pub fn run_global(
    graph: &Graph,
    crashes: &[(NodeId, SimTime)],
    sim_config: SimConfig,
) -> GlobalReport {
    let n = graph.len();
    let processes: Vec<GlobalProcess> = (0..n)
        .map(|i| GlobalProcess::new(NodeId::from_index(i), n))
        .collect();
    let mut sim = Simulation::new(sim_config, processes);
    for &(node, at) in crashes {
        sim.schedule_crash(node, at);
    }
    let outcome = sim.run();
    let mut decisions = BTreeMap::new();
    for (id, proc) in sim.processes() {
        if let Some(d) = proc.decision() {
            decisions.insert(id, d.clone());
        }
    }
    GlobalReport {
        decisions,
        metrics: sim.metrics().clone(),
        outcome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use precipice_graph::{ring, torus, GridDims};

    fn quiet_sim() -> SimConfig {
        SimConfig::default()
    }

    #[test]
    fn all_live_nodes_agree_on_the_crash_set() {
        let g = ring(10);
        let crashes = vec![(NodeId(3), SimTime::from_millis(1))];
        let report = run_global(&g, &crashes, quiet_sim());
        assert!(report.outcome.is_quiescent());
        assert_eq!(report.decisions.len(), 9, "all survivors decide");
        let expected: BTreeSet<NodeId> = [NodeId(3)].into();
        for (node, (union, _)) in &report.decisions {
            assert_eq!(union, &expected, "{node} decided {union:?}");
        }
    }

    #[test]
    fn decided_regions_match_components() {
        let g = torus(GridDims::square(4));
        let crashes = vec![
            (NodeId(0), SimTime::from_millis(1)),
            (NodeId(1), SimTime::from_millis(1)),
            (NodeId(10), SimTime::from_millis(1)),
        ];
        let report = run_global(&g, &crashes, quiet_sim());
        let regions = report.decided_regions(&g);
        assert_eq!(regions.len(), 2);
    }

    #[test]
    fn cost_grows_with_system_size() {
        let crashes = |_g: &Graph| vec![(NodeId(1), SimTime::from_millis(1))];
        let small = {
            let g = ring(8);
            run_global(&g, &crashes(&g), quiet_sim())
        };
        let large = {
            let g = ring(32);
            run_global(&g, &crashes(&g), quiet_sim())
        };
        assert!(
            large.metrics.messages_sent() >= 8 * small.metrics.messages_sent(),
            "global consensus must scale ~quadratically: {} vs {}",
            small.metrics.messages_sent(),
            large.metrics.messages_sent()
        );
    }

    #[test]
    fn every_node_participates_even_far_from_the_crash() {
        let g = ring(12);
        let report = run_global(&g, &[(NodeId(0), SimTime::from_millis(1))], quiet_sim());
        // The node diametrically opposite the crash still sent messages —
        // the anti-locality the paper criticizes.
        let far = NodeId(6);
        assert!(report.metrics.node(far).sent > 0);
    }
}
