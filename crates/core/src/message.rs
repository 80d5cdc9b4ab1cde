use std::cmp::Ordering;
use std::fmt::Debug;
use std::ops::Index;
use std::sync::Arc;

use precipice_graph::{NodeId, Region};

use crate::WireSize;

/// A participant's stance on a proposed view.
///
/// The paper's opinion vectors hold `⊥`, `(accept, v)` or `reject`
/// (Algorithm 1, lines 15–16 and 29–30). `⊥` is represented by *absence*
/// from the [`OpinionVector`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Opinion<D> {
    /// The node proposed the view, with its suggested decision value.
    Accept(D),
    /// The node rejected the view (it champions a higher-ranked one).
    Reject,
}

impl<D> Opinion<D> {
    /// `true` for `Accept`.
    pub fn is_accept(&self) -> bool {
        matches!(self, Opinion::Accept(_))
    }

    /// The accepted value, if any.
    pub fn accepted_value(&self) -> Option<&D> {
        match self {
            Opinion::Accept(v) => Some(v),
            Opinion::Reject => None,
        }
    }
}

/// A (partial) opinion vector: known opinions per border node; nodes
/// without an entry are at `⊥`.
///
/// A node-sorted array with the surface of a map. Vectors are at most
/// border-sized, are merged far more often than they are probed, and
/// travel by `Arc` between the instances of every participant, so the
/// representation is the one a merge wants: two sorted slices join in
/// one linear pass, and a vector that needs nothing from the join is
/// shared as it is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpinionVector<D>(Vec<(NodeId, Opinion<D>)>);

impl<D> Default for OpinionVector<D> {
    fn default() -> Self {
        OpinionVector(Vec::new())
    }
}

impl<D> OpinionVector<D> {
    /// The all-`⊥` vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets `node`'s opinion, returning the one it replaces (as
    /// `BTreeMap::insert` does).
    pub fn insert(&mut self, node: NodeId, opinion: Opinion<D>) -> Option<Opinion<D>> {
        match self.0.binary_search_by_key(&node, |&(n, _)| n) {
            Ok(i) => Some(std::mem::replace(&mut self.0[i].1, opinion)),
            Err(i) => {
                self.0.insert(i, (node, opinion));
                None
            }
        }
    }

    /// `node`'s opinion, or `None` for `⊥`.
    pub fn get(&self, node: &NodeId) -> Option<&Opinion<D>> {
        self.0
            .binary_search_by_key(node, |&(n, _)| n)
            .ok()
            .map(|i| &self.0[i].1)
    }

    /// Number of non-`⊥` entries.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` for the all-`⊥` vector.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The non-`⊥` entries, in ascending node order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&NodeId, &Opinion<D>)> + '_ {
        self.into_iter()
    }

    /// The non-`⊥` opinions, in ascending node order.
    pub fn values(&self) -> impl ExactSizeIterator<Item = &Opinion<D>> + '_ {
        self.0.iter().map(|(_, op)| op)
    }

    /// The entries as the sorted slice they are (merge-joins).
    pub(crate) fn as_slice(&self) -> &[(NodeId, Opinion<D>)] {
        &self.0
    }
}

impl<D: Clone> OpinionVector<D> {
    /// Algorithm 1 line 24: copies from `theirs` (sorted by node) every
    /// entry this vector holds `⊥` for and keeps its own everywhere
    /// else. `missing` is the number of such entries, which the caller's
    /// read-only pass has counted. One backward merge in place: each
    /// element moves at most once, and nothing is allocated while the
    /// capacity lasts.
    pub(crate) fn fill_bottoms(&mut self, theirs: &[(NodeId, Opinion<D>)], missing: usize) {
        let mut mine = self.0.len();
        let mut write = mine + missing;
        let mut read = theirs.len();
        self.0.resize(write, (NodeId(0), Opinion::Reject));
        // `write - mine` entries of `theirs[..read]` are still to place.
        while write > mine {
            let (node, opinion) = &theirs[read - 1];
            match (mine > 0).then(|| self.0[mine - 1].0.cmp(node)) {
                Some(Ordering::Greater) => {
                    mine -= 1;
                    write -= 1;
                    self.0.swap(mine, write);
                }
                Some(Ordering::Equal) => read -= 1,
                _ => {
                    read -= 1;
                    write -= 1;
                    self.0[write] = (*node, opinion.clone());
                }
            }
        }
        debug_assert!(
            self.0.windows(2).all(|w| w[0].0 < w[1].0),
            "`missing` miscounted or `theirs` unsorted"
        );
    }
}

impl<D> Index<&NodeId> for OpinionVector<D> {
    type Output = Opinion<D>;

    /// Panics if `node` is at `⊥`.
    fn index(&self, node: &NodeId) -> &Opinion<D> {
        self.get(node).expect("no opinion recorded for this node")
    }
}

impl<'a, D> IntoIterator for &'a OpinionVector<D> {
    type Item = (&'a NodeId, &'a Opinion<D>);
    type IntoIter = std::iter::Map<
        std::slice::Iter<'a, (NodeId, Opinion<D>)>,
        fn(&'a (NodeId, Opinion<D>)) -> (&'a NodeId, &'a Opinion<D>),
    >;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter().map(|(n, op)| (n, op))
    }
}

/// The single message type of Algorithm 1: `[r, V, border(V), op]`.
///
/// Sent by line 17 (round 1, proposing), line 31 (round 1, rejecting) and
/// line 40 (round `r`, forwarding the accumulated vector of round `r−1`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message<D> {
    /// The round this message belongs to (1-based).
    pub round: u32,
    /// The proposed view `V` the instance is indexed by.
    pub view: Region,
    /// `border(V)` — the instance's participants. Redundant with `view`
    /// given the shared knowledge graph, but carried on the wire exactly
    /// as in the paper (receivers use it to initialize instance state
    /// without a topology lookup).
    pub border: Region,
    /// The sender's known opinions (absent = `⊥`).
    ///
    /// `Arc`-shared so that multicasting to `|B|` recipients costs one
    /// vector snapshot, not `|B|` deep clones; wire-size accounting still
    /// counts the full vector per message, as a real network would.
    pub opinions: Arc<OpinionVector<D>>,
}

impl<D: WireSize> Message<D> {
    /// Approximate encoded size: round tag + region + border + one
    /// `(node, tag, value?)` entry per known opinion.
    pub fn wire_size(&self) -> usize {
        let opinions: usize = self
            .opinions
            .values()
            .map(|op| {
                4 + 1
                    + match op {
                        Opinion::Accept(v) => v.wire_size(),
                        Opinion::Reject => 0,
                    }
            })
            .sum();
        4 + self.view.wire_size() + self.border.wire_size() + 4 + opinions
    }
}

impl<D> Message<D> {
    /// Nodes whose opinion in this message is `Reject` — receivers strike
    /// them from every wait set (they will never participate in this
    /// instance again).
    pub fn rejectors(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.opinions
            .iter()
            .filter(|(_, op)| matches!(op, Opinion::Reject))
            .map(|(&n, _)| n)
    }
}

/// Builds the initial accept vector of a proposer (Algorithm 1 lines
/// 15–16): everything `⊥` except the proposer's own `(accept, value)`.
pub fn initial_accept_vector<D>(proposer: NodeId, value: D) -> Arc<OpinionVector<D>> {
    Arc::new(OpinionVector(vec![(proposer, Opinion::Accept(value))]))
}

/// Builds a rejection vector (Algorithm 1 lines 29–30): everything `⊥`
/// except the rejecter's `reject`.
pub fn rejection_vector<D>(rejecter: NodeId) -> Arc<OpinionVector<D>> {
    Arc::new(OpinionVector(vec![(rejecter, Opinion::Reject)]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region(ids: &[u32]) -> Region {
        ids.iter().map(|&i| NodeId(i)).collect()
    }

    #[test]
    fn opinion_accessors() {
        let a: Opinion<u32> = Opinion::Accept(7);
        let r: Opinion<u32> = Opinion::Reject;
        assert!(a.is_accept());
        assert!(!r.is_accept());
        assert_eq!(a.accepted_value(), Some(&7));
        assert_eq!(r.accepted_value(), None);
    }

    #[test]
    fn vectors_start_singleton() {
        let acc = initial_accept_vector(NodeId(3), 42u32);
        assert_eq!(acc.len(), 1);
        assert_eq!(acc[&NodeId(3)], Opinion::Accept(42));
        let rej = rejection_vector::<u32>(NodeId(5));
        assert_eq!(rej.len(), 1);
        assert_eq!(rej[&NodeId(5)], Opinion::Reject);
    }

    #[test]
    fn rejectors_lists_only_rejects() {
        let mut op: OpinionVector<u32> = OpinionVector::new();
        op.insert(NodeId(1), Opinion::Accept(1));
        op.insert(NodeId(2), Opinion::Reject);
        op.insert(NodeId(4), Opinion::Reject);
        let msg = Message {
            round: 2,
            view: region(&[9]),
            border: region(&[1, 2, 4]),
            opinions: Arc::new(op),
        };
        let rejectors: Vec<NodeId> = msg.rejectors().collect();
        assert_eq!(rejectors, vec![NodeId(2), NodeId(4)]);
    }

    #[test]
    fn wire_size_counts_components() {
        let msg: Message<u32> = Message {
            round: 1,
            view: region(&[9]),                            // 4 + 4
            border: region(&[1, 2]),                       // 4 + 8
            opinions: initial_accept_vector(NodeId(1), 7), // 4 + (4 + 1 + 4)
        };
        assert_eq!(msg.wire_size(), 4 + 8 + 12 + 4 + 9);
        let empty: Message<u32> = Message {
            round: 1,
            view: region(&[9]),
            border: region(&[1, 2]),
            opinions: Arc::new(OpinionVector::new()),
        };
        assert_eq!(empty.wire_size(), 4 + 8 + 12 + 4);
    }
}
