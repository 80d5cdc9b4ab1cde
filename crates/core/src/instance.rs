use std::collections::BTreeSet;
use std::sync::Arc;

use precipice_graph::NodeId;

use crate::message::{Message, Opinion, OpinionVector};
use crate::View;

/// Book-keeping for one superposed consensus instance, indexed by its
/// proposed view (the `opinions[V][·][·]` and `waiting[V][·]` state of
/// Algorithm 1, lines 20–22).
///
/// # Layout
///
/// Everything per participant is indexed by the participant's
/// *position in the view's sorted border*, never by its node id and
/// never in a tree:
///
/// - `waiting[V][r]` and the rejecter set are bit-words over border
///   positions, `⌈|B|/64⌉` words a row, all rows in one vector. A round
///   guard is `waiting & !rejectors` per word, then one probe of
///   `locallyCrashed` per bit that survives.
/// - `opinions[V][r]` is a node-sorted array behind an `Arc`, and
///   `answered[r]` counts its entries.
///
/// An instance on a border of `b` nodes is therefore four allocations —
/// `b` `Arc` handles, `b` counts, `b · ⌈b/64⌉` bit-words and the shared
/// all-`⊥` vector — however high the ids sit in a multi-million-node id
/// space. Indexing the bits by node id instead would zero and scan out
/// to the highest border id — O(`n`/64) on every delivery — and sets
/// or maps per round cost O(`b`) tree nodes per round, `b` rounds an
/// instance, and a tree descent per participant per delivery.
///
/// # Adopting vectors
///
/// A merge fills the `⊥` entries of the message's round slot from the
/// message's vector (line 24). It first walks both sorted arrays without
/// writing. If the slot already *is* the message's vector (`Arc::ptr_eq`)
/// or lacks none of its entries, nothing is written. If the slot is
/// still all-`⊥` — the first message of every round — the result of the
/// merge is the message's vector itself, and the slot takes a reference
/// to it: in a faithful run every round-`r ≥ 2` vector is the complete
/// round-`r − 1` vector, so whole rounds pass without a copy. Only a
/// slot that holds some entries and lacks others is written, through
/// [`Arc::make_mut`]: an adopted vector is shared with the messages
/// still in flight and with the sender's own slot, none of which may
/// see the fill, and `make_mut` copies exactly when someone else still
/// holds a reference.
///
/// A vector may carry entries for nodes outside the border (a malformed
/// peer); they are kept in the slot like any other entry, as line 24
/// says, but `answered` counts border members only, so they can never
/// complete a vector, and they have no position, so they can never
/// reject.
///
/// # Rejecters
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
    /// `opinions[V][r][·]`, index `r − 1`; no entry = `⊥`. Each round
    /// vector is `Arc`-shared with the messages that carried or forward
    /// it; the all-`⊥` vector is one allocation shared by every round.
    opinions: Vec<Arc<OpinionVector<D>>>,
    /// Border nodes with a non-`⊥` entry in `opinions[r]`, index `r − 1`.
    answered: Vec<u32>,
    /// Bit `p` of a row stands for the border's `p`-th node. Row 0: the
    /// border nodes known (from any received vector) to have rejected.
    /// Row `r`: `waiting[V][r]`, the border nodes whose round-`r` message
    /// has not arrived.
    bits: Vec<u64>,
}

/// Words in one row of [`Instance::bits`].
fn row_words(view: &View) -> usize {
    view.border().len().div_ceil(64)
}

impl<D: Clone> Instance<D> {
    /// Initializes the per-round state for `view`
    /// (rounds `1 ..= view.total_rounds()`).
    pub fn new(view: View) -> Self {
        let rounds = view.total_rounds() as usize;
        let members = view.border().len();
        let words = row_words(&view);
        let mut bits = vec![u64::MAX; (rounds + 1) * words];
        bits[..words].fill(0);
        if !members.is_multiple_of(64) {
            for row in bits.chunks_exact_mut(words).skip(1) {
                row[words - 1] = (1 << (members % 64)) - 1;
            }
        }
        // One all-`⊥` vector, shared by every round until its first merge.
        let bottom = Arc::new(OpinionVector::new());
        Instance {
            opinions: vec![bottom; rounds],
            answered: vec![0; rounds],
            bits,
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

    /// `true` once some border node is known to have rejected this view.
    pub fn has_rejectors(&self) -> bool {
        self.bits[..row_words(&self.view)].iter().any(|&w| w != 0)
    }

    /// Known rejectors of this view, in border order.
    #[cfg(test)]
    pub fn rejectors(&self) -> Vec<NodeId> {
        let border = self.view.border().as_slice();
        (0..border.len())
            .filter(|p| self.bits[p / 64] & (1 << (p % 64)) != 0)
            .map(|p| border[p])
            .collect()
    }

    /// Merges a received message (Algorithm 1, lines 23–25): fills `⊥`
    /// entries of the message's round slot, removes the sender from that
    /// round's wait set, and registers any rejectors carried by the
    /// vector. See the struct docs for when the slot adopts the
    /// message's vector instead of copying from it.
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
        let Some(mine) = self.opinions.get_mut(slot) else {
            return;
        };
        let border = self.view.border().as_slice();
        let words = row_words(&self.view);
        let (rejectors, waiting) = self.bits.split_at_mut(words);
        if let Ok(p) = border.binary_search(&from) {
            waiting[slot * words + p / 64] &= !(1 << (p % 64));
        }
        // A slot only ever holds entries of vectors that went through
        // the pass below, rejecters included, so the slot's own vector
        // has nothing to add.
        if Arc::ptr_eq(mine, &msg.opinions) {
            return;
        }

        // Join `theirs` against the border (positions, for the rejecter
        // bits and the `answered` count) and against `mine` (what is
        // missing), reading only. Only border members can reject (they
        // are the only recipients) and only they matter to the round
        // guards; a foreign id has no position to set.
        let theirs = msg.opinions.as_slice();
        let held = mine.as_slice();
        let (mut b, mut h) = (0, 0);
        let (mut missing, mut missing_members) = (0, 0);
        for (node, opinion) in theirs {
            while border.get(b).is_some_and(|p| p < node) {
                b += 1;
            }
            let member = border.get(b) == Some(node);
            if member && matches!(opinion, Opinion::Reject) {
                rejectors[b / 64] |= 1 << (b % 64);
            }
            while held.get(h).is_some_and(|(p, _)| p < node) {
                h += 1;
            }
            if held.get(h).is_none_or(|(p, _)| p != node) {
                missing += 1;
                missing_members += u32::from(member);
            }
        }
        if missing == 0 {
            return;
        }
        self.answered[slot] += missing_members;
        if held.is_empty() {
            *mine = Arc::clone(&msg.opinions);
        } else {
            Arc::make_mut(mine).fill_bottoms(theirs, missing);
        }
    }

    /// `true` if round `round` can complete: every border node has either
    /// sent its round-`round` message, is a known rejecter, or is known
    /// crashed (the `waiting[Vp][r] \ locallyCrashed = ∅` guard of line
    /// 32, extended with rejectors per the struct docs).
    ///
    /// One AND-NOT per word, then a probe of `locally_crashed` per node
    /// still waited on — the wait set only ever shrinks, so this is
    /// border-sized at worst and usually near-empty by the time it fires.
    pub fn round_complete(&self, round: u32, locally_crashed: &BTreeSet<NodeId>) -> bool {
        let round = round as usize;
        if round == 0 || round > self.opinions.len() {
            return false;
        }
        let border = self.view.border().as_slice();
        let words = row_words(&self.view);
        let rejectors = &self.bits[..words];
        let waiting = &self.bits[round * words..][..words];
        waiting
            .iter()
            .zip(rejectors)
            .enumerate()
            .all(|(w, (wait, rejected))| {
                let mut left = wait & !rejected;
                while left != 0 {
                    let p = w * 64 + left.trailing_zeros() as usize;
                    if !locally_crashed.contains(&border[p]) {
                        return false;
                    }
                    left &= left - 1;
                }
                true
            })
    }

    /// `true` if the round-`round` vector has an entry (no `⊥`) for every
    /// border node — the footnote-6 early-termination condition. O(1) via
    /// the `answered` count.
    pub fn vector_complete(&self, round: u32) -> bool {
        self.answered
            .get((round as usize) - 1)
            .is_some_and(|&a| a as usize == self.view.border().len())
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
        if round == 0 || round as usize > self.opinions.len() || !self.vector_complete(round) {
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
    use precipice_graph::{rng::SplitMix, Graph, Region};
    use std::collections::BTreeMap;

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
        assert!(!inst.round_complete(1, &BTreeSet::new()));
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
        assert!(inst.round_complete(1, &BTreeSet::new()));
        assert!(inst.vector_complete(1));
        assert_eq!(inst.all_accept_values(1), Some(vec![1, 2, 3]));
        // Round 2 untouched.
        assert!(!inst.round_complete(2, &BTreeSet::new()));
    }

    #[test]
    fn crashed_nodes_unblock_waiting() {
        let view = star_view();
        let mut inst: Instance<u32> = Instance::new(view.clone());
        inst.merge(
            NodeId(1),
            &msg(1, &view, initial_accept_vector(NodeId(1), 1)),
        );
        let crashed: BTreeSet<NodeId> = [NodeId(2), NodeId(3)].into_iter().collect();
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
        assert!(inst.round_complete(1, &BTreeSet::new()));
        assert_eq!(inst.rejectors(), vec![NodeId(2)]);
        // Round 2: only 1 and 3 need to speak.
        inst.merge(
            NodeId(1),
            &msg(2, &view, std::sync::Arc::new(inst.vector(1).clone())),
        );
        inst.merge(
            NodeId(3),
            &msg(2, &view, std::sync::Arc::new(inst.vector(1).clone())),
        );
        assert!(inst.round_complete(2, &BTreeSet::new()));
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
        assert!(inst.round_complete(1, &BTreeSet::new()));
        assert_eq!(inst.all_accept_values(1), Some(vec![5]));
    }

    #[test]
    fn filling_an_adopted_vector_leaves_the_message_untouched() {
        let view = star_view();
        let mut inst: Instance<u32> = Instance::new(view.clone());
        let in_flight = msg(1, &view, initial_accept_vector(NodeId(1), 11));
        inst.merge(NodeId(1), &in_flight);
        // The all-⊥ slot took the sender's vector by reference ...
        assert!(Arc::ptr_eq(&inst.vector_arc(1), &in_flight.opinions));
        inst.merge(
            NodeId(2),
            &msg(1, &view, initial_accept_vector(NodeId(2), 22)),
        );
        assert_eq!(inst.vector(1).len(), 2);
        // ... and the fill copied it first: the message, which other
        // recipients have yet to receive, still says what n1 wrote.
        assert!(!Arc::ptr_eq(&inst.vector_arc(1), &in_flight.opinions));
        assert_eq!(in_flight.opinions, initial_accept_vector(NodeId(1), 11));
    }

    /// The instance this module held until its state moved to border
    /// positions — a map per round vector, a set per wait set — kept as
    /// the oracle of [`matches_the_tree_instance`]. It shares nothing:
    /// every merge copies values, so it cannot have an aliasing bug.
    struct TreeInstance {
        view: View,
        opinions: Vec<BTreeMap<NodeId, Opinion<u32>>>,
        answered: Vec<BTreeSet<NodeId>>,
        waiting: Vec<BTreeSet<NodeId>>,
        rejectors: BTreeSet<NodeId>,
    }

    impl TreeInstance {
        fn new(view: View) -> Self {
            let rounds = view.total_rounds() as usize;
            let waiting: BTreeSet<NodeId> = view.border().iter().collect();
            TreeInstance {
                opinions: vec![BTreeMap::new(); rounds],
                answered: vec![BTreeSet::new(); rounds],
                waiting: vec![waiting; rounds],
                rejectors: BTreeSet::new(),
                view,
            }
        }

        fn merge(&mut self, from: NodeId, msg: &Message<u32>) {
            let slot = msg.round as usize - 1;
            let border = self.view.border();
            for (&pk, op) in msg.opinions.iter() {
                self.opinions[slot].entry(pk).or_insert_with(|| {
                    if border.contains(pk) {
                        self.answered[slot].insert(pk);
                    }
                    op.clone()
                });
            }
            self.waiting[slot].remove(&from);
            self.rejectors
                .extend(msg.rejectors().filter(|r| border.contains(*r)));
        }

        fn round_complete(&self, round: u32, locally_crashed: &BTreeSet<NodeId>) -> bool {
            self.waiting[round as usize - 1]
                .iter()
                .all(|p| locally_crashed.contains(p) || self.rejectors.contains(p))
        }

        fn vector_complete(&self, round: u32) -> bool {
            self.answered[round as usize - 1].len() == self.view.border().len()
        }

        fn all_accept_values(&self, round: u32) -> Option<Vec<u32>> {
            self.view
                .border()
                .iter()
                .map(|p| match self.opinions[round as usize - 1].get(&p) {
                    Some(Opinion::Accept(v)) => Some(*v),
                    _ => None,
                })
                .collect()
        }
    }

    /// The differential's draws: a [`SplitMix`] stream plus domain
    /// helpers.
    struct Rng(SplitMix);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0.below(n)
        }

        fn chance(&mut self, percent: usize) -> bool {
            self.below(100) < percent
        }

        fn opinion(&mut self) -> Opinion<u32> {
            if self.chance(12) {
                Opinion::Reject
            } else {
                Opinion::Accept(self.below(1000) as u32)
            }
        }

        /// A border member or, one time in eight, the id just above it
        /// (never a member: border ids are at least two apart).
        fn node(&mut self, border: &[NodeId]) -> NodeId {
            let member = border[self.below(border.len())];
            if self.chance(12) {
                NodeId(member.0 + 1)
            } else {
                member
            }
        }
    }

    /// A message of the differential with what its vector said when it
    /// was sent.
    struct Sent {
        from: NodeId,
        message: Message<u32>,
        said: Vec<(NodeId, Opinion<u32>)>,
    }

    fn entries(vector: &OpinionVector<u32>) -> Vec<(NodeId, Opinion<u32>)> {
        vector.iter().map(|(n, op)| (*n, op.clone())).collect()
    }

    fn assert_vectors_match(fast: &Instance<u32>, tree: &TreeInstance, round: u32) {
        let expected: Vec<_> = tree.opinions[round as usize - 1]
            .iter()
            .map(|(n, op)| (*n, op.clone()))
            .collect();
        assert_eq!(entries(fast.vector(round)), expected, "round {round}");
        assert_eq!(
            fast.all_accept_values(round),
            tree.all_accept_values(round),
            "round {round}"
        );
    }

    /// `sequences` random merge sequences over a border of `members`
    /// nodes with ids above 2²⁰: two instances of one view (so vectors
    /// travel between slots by `Arc`) and their two oracles take the
    /// same messages and must answer every query alike after each one.
    fn run_differential(members: usize, sequences: usize, seed: u64) {
        const PEERS: usize = 2;
        let mut rng = Rng(SplitMix::new(seed));
        for sequence in 0..sequences {
            let mut id = 1 << 20;
            let border: Vec<NodeId> = (0..members)
                .map(|_| {
                    id += 2 + rng.below(5000) as u32;
                    NodeId(id)
                })
                .collect();
            let view = View::from_parts(
                Region::from_iter([NodeId(3)]),
                border.iter().copied().collect(),
            );
            let rounds = view.total_rounds();
            let mut fast: Vec<Instance<u32>> =
                (0..PEERS).map(|_| Instance::new(view.clone())).collect();
            let mut tree: Vec<TreeInstance> = (0..PEERS)
                .map(|_| TreeInstance::new(view.clone()))
                .collect();
            // Every message sent so far — they stay "in flight" to the
            // end, for duplicates and late deliveries — with what its
            // vector said when it was sent.
            let mut sent: Vec<Sent> = Vec::new();

            for step in 0..4 + rng.below(28) {
                let to = rng.below(PEERS);
                // Mostly the first few rounds, so slots see several
                // messages; sometimes any round, in any order.
                let round = 1 + if rng.chance(85) {
                    rng.below(rounds.min(3) as usize)
                } else {
                    rng.below(rounds as usize)
                } as u32;
                let from = rng.node(&border);
                let (from, message) = match rng.below(10) {
                    0..=2 => (
                        from,
                        msg(
                            round,
                            &view,
                            initial_accept_vector(from, rng.0.next_u64() as u32),
                        ),
                    ),
                    3 => (from, msg(round, &view, rejection_vector(from))),
                    4 | 5 => {
                        let density = [10, 50, 100][rng.below(3)];
                        let mut vector = OpinionVector::new();
                        for _ in 0..members {
                            if rng.chance(density) {
                                vector.insert(rng.node(&border), rng.opinion());
                            }
                        }
                        (from, msg(round, &view, Arc::new(vector)))
                    }
                    6..=8 => {
                        let forwarded = fast[rng.below(PEERS)]
                            .vector_arc(1 + rng.below(rounds as usize) as u32);
                        (from, msg(round, &view, forwarded))
                    }
                    _ => match sent.get(rng.below(sent.len().max(1))) {
                        Some(sent) => (sent.from, sent.message.clone()),
                        None => (from, msg(round, &view, rejection_vector(from))),
                    },
                };
                sent.push(Sent {
                    from,
                    message: message.clone(),
                    said: entries(&message.opinions),
                });
                fast[to].merge(from, &message);
                tree[to].merge(from, &message);

                let context = (members, sequence, step);
                let (fast, tree) = (&fast[to], &tree[to]);
                assert_eq!(
                    fast.rejectors(),
                    tree.rejectors.iter().copied().collect::<Vec<_>>(),
                    "{context:?}"
                );
                assert_eq!(
                    fast.has_rejectors(),
                    !tree.rejectors.is_empty(),
                    "{context:?}"
                );
                // A sparse random crashed set against every round; then
                // two that put the guard on both sides of the line —
                // everyone but a few, and exactly whom the touched round
                // still waits on, less one node half of the time —
                // against that round, a random one and the last one.
                let mut sparse = BTreeSet::new();
                for _ in 0..members {
                    if rng.chance(5) {
                        sparse.insert(rng.node(&border));
                    }
                }
                let mut most: BTreeSet<NodeId> = border.iter().copied().collect();
                for _ in 0..rng.below(3) {
                    most.remove(&rng.node(&border));
                }
                let mut tight = tree.waiting[message.round as usize - 1].clone();
                if rng.chance(50) {
                    tight.remove(&rng.node(&border));
                }
                let anywhere = 1 + rng.below(rounds as usize) as u32;
                let guards = (1..=rounds)
                    .map(|r| (r, &sparse))
                    .chain([message.round, anywhere, rounds].map(|r| (r, &most)))
                    .chain([message.round, anywhere, rounds].map(|r| (r, &tight)));
                for (r, crashed) in guards {
                    assert_eq!(
                        fast.round_complete(r, crashed),
                        tree.round_complete(r, crashed),
                        "{context:?}, round {r}, crashed {crashed:?}"
                    );
                }
                for r in 1..=rounds {
                    assert_eq!(
                        fast.vector_complete(r),
                        tree.vector_complete(r),
                        "{context:?}, round {r}"
                    );
                }
                assert_vectors_match(fast, tree, message.round);
            }

            // No merge wrote through a shared vector: every slot of
            // every peer and every message still hold what they should.
            for (fast, tree) in fast.iter().zip(&tree) {
                for r in 1..=rounds {
                    assert_vectors_match(fast, tree, r);
                }
            }
            for sent in &sent {
                assert_eq!(
                    entries(&sent.message.opinions),
                    sent.said,
                    "|B| = {members}"
                );
            }
        }
    }

    #[test]
    fn matches_the_tree_instance() {
        // Tail-word masks (63, 64, 65), multi-word guards (65, 130), the
        // one-round degenerate borders (1, 2): 10 000 sequences.
        for (members, sequences) in [
            (1, 2500),
            (2, 3500),
            (16, 3000),
            (63, 300),
            (64, 300),
            (65, 300),
            (130, 100),
        ] {
            run_differential(members, sequences, 0xc11f_fed6 ^ members as u64);
        }
    }
}
