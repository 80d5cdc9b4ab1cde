use std::collections::BTreeSet;
use std::sync::Arc;

use precipice_graph::{NodeId, NodeSet};

use crate::message::{Message, Opinion, OpinionVector};
use crate::View;

/// Book-keeping for one superposed consensus instance, indexed by its
/// proposed view (the `opinions[V][·][·]` and `waiting[V][·]` state of
/// Algorithm 1, lines 20–22).
///
/// Per-participant membership (who are we waiting for, who rejected, who
/// has a non-`⊥` entry) is tracked in sorted sets sized by the *border*,
/// never by node-id magnitude: a border of `b` nodes costs O(`b`) per
/// instance and O(log `b`) per guard probe, even when the ids involved
/// sit near the top of a multi-million-node id space. (A dense bitset
/// here would be zeroed and scanned out to the highest border id — an
/// O(`n`/64) tax on every delivery that dominated large lazy runs.)
///
/// One clarification over the literal pseudocode:
/// nodes known to have **rejected** the view are excluded from the wait
/// set of *every* round, not just the round their rejection message was
/// tagged with — a rejecter sends nothing further for this view, and the
/// Progress proof (case C1) relies on its rejection unblocking proposers
/// in whatever round they currently are.
#[derive(Debug, Clone)]
pub(crate) struct Instance<D> {
    view: View,
    /// `opinions[V][r][·]`, index `r − 1`; absent key = `⊥`. Each round
    /// vector is `Arc`-shared with the messages that forward it
    /// (copy-on-write: a merge after a forward clones once).
    opinions: Vec<Arc<OpinionVector<D>>>,
    /// Border nodes with a non-`⊥` entry in `opinions[r]`, index `r − 1`
    /// (mirror of the vector's key set, for O(1) completeness checks).
    answered: Vec<BTreeSet<NodeId>>,
    /// `waiting[V][r]`, index `r − 1`: border nodes whose round-`r`
    /// message has not arrived.
    waiting: Vec<BTreeSet<NodeId>>,
    /// Border nodes known (from any received vector) to have rejected.
    rejectors: BTreeSet<NodeId>,
}

impl<D: Clone> Instance<D> {
    /// Initializes the per-round state for `view`
    /// (rounds `1 ..= view.total_rounds()`).
    pub fn new(view: View) -> Self {
        let rounds = view.total_rounds() as usize;
        let waiting: BTreeSet<NodeId> = view.border().iter().collect();
        Instance {
            opinions: (0..rounds)
                .map(|_| Arc::new(OpinionVector::new()))
                .collect(),
            answered: vec![BTreeSet::new(); rounds],
            waiting: vec![waiting; rounds],
            rejectors: BTreeSet::new(),
            view,
        }
    }

    /// The view this instance decides on.
    pub fn view(&self) -> &View {
        &self.view
    }

    /// Consumes the instance, yielding its view without cloning.
    pub fn into_view(self) -> View {
        self.view
    }

    /// Known rejectors of this view.
    pub fn rejectors(&self) -> &BTreeSet<NodeId> {
        &self.rejectors
    }

    /// Merges a received message (Algorithm 1, lines 23–25): fills `⊥`
    /// entries of the message's round slot, removes the sender from that
    /// round's wait set, and registers any rejectors carried by the
    /// vector.
    pub fn merge(&mut self, from: NodeId, msg: &Message<D>) {
        debug_assert_eq!(
            &msg.view,
            self.view.region(),
            "message routed to wrong instance"
        );
        debug_assert_eq!(
            &msg.border,
            self.view.border(),
            "border mismatch for view {}",
            self.view
        );
        let slot = (msg.round as usize).saturating_sub(1);
        debug_assert!(
            slot < self.opinions.len(),
            "round {} out of range",
            msg.round
        );
        let Some(vector) = self.opinions.get_mut(slot) else {
            return;
        };
        let vector = Arc::make_mut(vector);
        let answered = &mut self.answered[slot];
        let border = self.view.border();
        for (&pk, op) in msg.opinions.iter() {
            vector.entry(pk).or_insert_with(|| {
                if border.contains(pk) {
                    answered.insert(pk);
                }
                op.clone()
            });
        }
        if let Some(w) = self.waiting.get_mut(slot) {
            w.remove(&from);
        }
        // Only border members can reject (they are the only recipients),
        // and only they matter to the round guards (`waiting ⊆ border`).
        // Filtering also keeps a malformed id in a received vector from
        // bloating the rejecter set beyond the border.
        self.rejectors
            .extend(msg.rejectors().filter(|r| border.contains(*r)));
    }

    /// `true` if round `round` can complete: every border node has either
    /// sent its round-`round` message, is a known rejecter, or is known
    /// crashed (the `waiting[Vp][r] \ locallyCrashed = ∅` guard of line
    /// 32, extended with rejectors per the struct docs).
    ///
    /// O(|waiting|) probes — the wait set only ever shrinks, so this is
    /// border-sized at worst and usually near-empty by the time it fires.
    pub fn round_complete(&self, round: u32, locally_crashed: &NodeSet) -> bool {
        let Some(w) = self.waiting.get((round as usize) - 1) else {
            return false;
        };
        w.iter()
            .all(|&p| locally_crashed.contains(p) || self.rejectors.contains(&p))
    }

    /// `true` if the round-`round` vector has an entry (no `⊥`) for every
    /// border node — the footnote-6 early-termination condition. O(1) via
    /// the `answered` cardinality.
    pub fn vector_complete(&self, round: u32) -> bool {
        self.answered
            .get((round as usize) - 1)
            .is_some_and(|a| a.len() == self.view.border().len())
    }

    /// The round-`round` opinion vector.
    pub fn vector(&self, round: u32) -> &OpinionVector<D> {
        &self.opinions[(round as usize) - 1]
    }

    /// The round-`round` opinion vector, `Arc`-shared for forwarding in
    /// the next round's multicast without a deep copy.
    pub fn vector_arc(&self, round: u32) -> Arc<OpinionVector<D>> {
        Arc::clone(&self.opinions[(round as usize) - 1])
    }

    /// If the round-`round` vector is all-accept over the full border
    /// (line 34), returns the accepted values in border order.
    pub fn all_accept_values(&self, round: u32) -> Option<Vec<D>> {
        if round == 0 || round as usize > self.opinions.len() {
            return None;
        }
        let vector = self.vector(round);
        let mut values = Vec::with_capacity(self.view.border().len());
        for p in self.view.border().iter() {
            match vector.get(&p) {
                Some(Opinion::Accept(v)) => values.push(v.clone()),
                _ => return None,
            }
        }
        Some(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{initial_accept_vector, rejection_vector};
    use precipice_graph::{Graph, Region};

    fn star_view() -> View {
        // Hub 0 with leaves 1..=3; region {0} has border {1,2,3}.
        let g = precipice_graph::star(4);
        View::new(&g, Region::from_iter([NodeId(0)]))
    }

    fn msg(round: u32, view: &View, op: std::sync::Arc<OpinionVector<u32>>) -> Message<u32> {
        Message {
            round,
            view: view.region().clone(),
            border: view.border().clone(),
            opinions: op,
        }
    }

    #[test]
    fn new_instance_waits_for_everyone() {
        let inst: Instance<u32> = Instance::new(star_view());
        assert_eq!(inst.view().total_rounds(), 2);
        assert!(!inst.round_complete(1, &NodeSet::new()));
        assert!(!inst.vector_complete(1));
        assert!(inst.all_accept_values(1).is_none());
    }

    #[test]
    fn merge_fills_bottoms_only() {
        let view = star_view();
        let mut inst: Instance<u32> = Instance::new(view.clone());
        inst.merge(
            NodeId(1),
            &msg(1, &view, initial_accept_vector(NodeId(1), 11)),
        );
        // A later vector claiming a different value for n1 must not
        // overwrite (line 24 only updates ⊥ entries).
        let mut conflicting = (*initial_accept_vector(NodeId(1), 99)).clone();
        conflicting.insert(NodeId(2), Opinion::Accept(22));
        inst.merge(NodeId(2), &msg(1, &view, std::sync::Arc::new(conflicting)));
        let v = inst.vector(1);
        assert_eq!(v[&NodeId(1)], Opinion::Accept(11));
        assert_eq!(v[&NodeId(2)], Opinion::Accept(22));
    }

    #[test]
    fn round_completes_when_all_heard() {
        let view = star_view();
        let mut inst: Instance<u32> = Instance::new(view.clone());
        for n in [1u32, 2, 3] {
            inst.merge(
                NodeId(n),
                &msg(1, &view, initial_accept_vector(NodeId(n), n)),
            );
        }
        assert!(inst.round_complete(1, &NodeSet::new()));
        assert!(inst.vector_complete(1));
        assert_eq!(inst.all_accept_values(1), Some(vec![1, 2, 3]));
        // Round 2 untouched.
        assert!(!inst.round_complete(2, &NodeSet::new()));
    }

    #[test]
    fn crashed_nodes_unblock_waiting() {
        let view = star_view();
        let mut inst: Instance<u32> = Instance::new(view.clone());
        inst.merge(
            NodeId(1),
            &msg(1, &view, initial_accept_vector(NodeId(1), 1)),
        );
        let crashed: NodeSet = [NodeId(2), NodeId(3)].into_iter().collect();
        assert!(inst.round_complete(1, &crashed));
        // But the all-accept check still fails: 2 and 3 are ⊥.
        assert!(inst.all_accept_values(1).is_none());
    }

    #[test]
    fn rejectors_unblock_every_round() {
        let view = star_view();
        let mut inst: Instance<u32> = Instance::new(view.clone());
        inst.merge(
            NodeId(1),
            &msg(1, &view, initial_accept_vector(NodeId(1), 1)),
        );
        inst.merge(
            NodeId(3),
            &msg(1, &view, initial_accept_vector(NodeId(3), 3)),
        );
        // n2 rejects (tagged round 1) — it must unblock round 2 as well.
        inst.merge(NodeId(2), &msg(1, &view, rejection_vector(NodeId(2))));
        assert!(inst.round_complete(1, &NodeSet::new()));
        assert_eq!(
            inst.rejectors().iter().copied().collect::<Vec<_>>(),
            vec![NodeId(2)]
        );
        // Round 2: only 1 and 3 need to speak.
        inst.merge(
            NodeId(1),
            &msg(2, &view, std::sync::Arc::new(inst.vector(1).clone())),
        );
        inst.merge(
            NodeId(3),
            &msg(2, &view, std::sync::Arc::new(inst.vector(1).clone())),
        );
        assert!(inst.round_complete(2, &NodeSet::new()));
        // Reject propagated into round 2 via the forwarded vectors.
        assert!(inst.all_accept_values(2).is_none());
    }

    #[test]
    fn reject_does_not_overwrite_prior_accept() {
        // FIFO scenario of Lemma 3: accept seen before reject keeps the
        // accept.
        let view = star_view();
        let mut inst: Instance<u32> = Instance::new(view.clone());
        inst.merge(
            NodeId(1),
            &msg(1, &view, initial_accept_vector(NodeId(1), 1)),
        );
        inst.merge(NodeId(1), &msg(1, &view, rejection_vector(NodeId(1))));
        assert_eq!(inst.vector(1)[&NodeId(1)], Opinion::Accept(1));
        // ... but the node is still recorded as a rejecter for waiting.
        assert!(inst.rejectors().contains(&NodeId(1)));
    }

    #[test]
    fn foreign_opinion_entries_do_not_complete_vectors() {
        // A vector carrying an entry for a non-border node must not count
        // toward the completeness cardinality.
        let view = star_view();
        let mut inst: Instance<u32> = Instance::new(view.clone());
        let mut op = OpinionVector::new();
        op.insert(NodeId(1), Opinion::Accept(1));
        op.insert(NodeId(2), Opinion::Accept(2));
        op.insert(NodeId(99), Opinion::Accept(99));
        inst.merge(NodeId(1), &msg(1, &view, std::sync::Arc::new(op)));
        assert!(!inst.vector_complete(1));
        inst.merge(
            NodeId(3),
            &msg(1, &view, initial_accept_vector(NodeId(3), 3)),
        );
        assert!(inst.vector_complete(1));
    }

    #[test]
    fn singleton_border_instance() {
        // Path 0-1: region {0} has border {1} only.
        let g = Graph::from_edges(2, [(0, 1)]);
        let view = View::new(&g, Region::from_iter([NodeId(0)]));
        assert_eq!(view.total_rounds(), 1);
        let mut inst: Instance<u32> = Instance::new(view.clone());
        inst.merge(
            NodeId(1),
            &msg(1, &view, initial_accept_vector(NodeId(1), 5)),
        );
        assert!(inst.round_complete(1, &NodeSet::new()));
        assert_eq!(inst.all_accept_values(1), Some(vec![5]));
    }
}
