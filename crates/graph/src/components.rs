//! Reachability and connected components over induced subgraphs.
//!
//! Two implementations live here. The **bitset path** (everything
//! public) runs breadth-first search word-parallel over the graph's
//! neighbor-mask table: each frontier expansion is
//! `mask(p) & set & !seen` per word, so a whole 64-node block is examined
//! in three ALU ops. The test-only **`reference` module** retains the
//! original `BTreeSet` implementations verbatim; they are the executable
//! specification that the differential tests at the bottom of this file
//! compare against byte-for-byte.

use std::collections::BTreeSet;

use crate::{Graph, NodeId, NodeSet, Region};

/// Reusable scratch state for repeated BFS queries: the `seen` bitset and
/// the frontier stack survive across calls, so a query sequence (for
/// example the component peeling loop of [`connected_components_set`])
/// allocates once.
#[derive(Debug, Clone, Default)]
pub struct BfsScratch {
    seen: NodeSet,
    frontier: Vec<NodeId>,
}

impl BfsScratch {
    /// Fresh scratch, pre-sized for graphs of `n` nodes.
    pub fn with_capacity(n: usize) -> Self {
        BfsScratch {
            seen: NodeSet::with_capacity(n),
            frontier: Vec::new(),
        }
    }

    /// The nodes reached by the most recent query.
    pub fn seen(&self) -> &NodeSet {
        &self.seen
    }

    /// Runs the BFS of [`reachable_within_set`] into this scratch,
    /// leaving the result in [`seen`](Self::seen).
    pub fn reach(&mut self, g: &Graph, start: NodeId, set: &NodeSet) {
        // `seen ⊆ set` always, so the scratch only needs `set`'s occupied
        // word extent — never the graph's full ⌈n/64⌉ words. This keeps a
        // footprint-sized query footprint-priced on arbitrarily large
        // graphs (the lazy-run scaling contract).
        let words = set.words().len();
        let seen_words = self.seen.words_mut();
        seen_words.clear();
        seen_words.resize(words, 0);
        self.frontier.clear();
        if !set.contains(start) {
            self.seen.recount();
            return;
        }
        self.seen.insert(start);
        self.frontier.push(start);
        let set_words = set.words();
        while let Some(p) = self.frontier.pop() {
            let seen_words = self.seen.words_mut();
            // Hybrid expansion: a whole mask row costs ⌈n/64⌉ word ops
            // and examines 64 candidates per op — worth it only when the
            // node's degree exceeds the row length, which is exactly when
            // the graph caches a dense row. Sparse nodes instead probe
            // each neighbor with O(1) bit tests.
            if let Some(row) = g.dense_row(p) {
                // Row words beyond `set`'s extent can contribute nothing
                // (`set_word` would be 0), so the pass stops at `words`.
                for (i, &m) in row.iter().enumerate().take(words) {
                    let set_word = set_words.get(i).copied().unwrap_or(0);
                    let mut fresh = m & set_word & !seen_words[i];
                    if fresh == 0 {
                        continue;
                    }
                    seen_words[i] |= fresh;
                    while fresh != 0 {
                        let bit = fresh.trailing_zeros() as usize;
                        fresh &= fresh - 1;
                        self.frontier.push(NodeId::from_index(i * 64 + bit));
                    }
                }
            } else {
                for &q in g.neighbors(p) {
                    let (wi, bit) = (q.index() / 64, 1u64 << (q.index() % 64));
                    if set_words.get(wi).copied().unwrap_or(0) & bit != 0
                        && seen_words[wi] & bit == 0
                    {
                        seen_words[wi] |= bit;
                        self.frontier.push(q);
                    }
                }
            }
        }
        self.seen.recount();
    }
}

/// Bitset form of [`reachable_within`]: nodes of `set` reachable from
/// `start` through edges of `g` whose both endpoints lie in `set`.
///
/// Returns the empty set if `start ∉ set`.
///
/// # Example
///
/// ```
/// use precipice_graph::{reachable_within_set, Graph, NodeId, NodeSet};
///
/// let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
/// let set: NodeSet = [NodeId(0), NodeId(1), NodeId(3)].into_iter().collect();
/// let reached = reachable_within_set(&g, NodeId(0), &set);
/// // n3 is in the set but unreachable without n2.
/// assert_eq!(reached.iter().collect::<Vec<_>>(), vec![NodeId(0), NodeId(1)]);
/// ```
pub fn reachable_within_set(g: &Graph, start: NodeId, set: &NodeSet) -> NodeSet {
    // `reach` sizes the scratch to `set`'s extent, so pre-sizing for the
    // whole graph here would just re-introduce an O(n/64) zeroing pass.
    let mut scratch = BfsScratch::default();
    scratch.reach(g, start, set);
    scratch.seen
}

/// Nodes of `set` reachable from `start` through edges of `g` whose both
/// endpoints lie in `set` (breadth-first).
///
/// Returns the empty set if `start ∉ set`.
///
/// # Example
///
/// ```
/// use precipice_graph::{reachable_within, Graph, NodeId};
/// use std::collections::BTreeSet;
///
/// let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
/// let set: BTreeSet<_> = [NodeId(0), NodeId(1), NodeId(3)].into();
/// let reached = reachable_within(&g, NodeId(0), &set);
/// // n3 is in the set but unreachable without n2.
/// assert_eq!(reached, [NodeId(0), NodeId(1)].into());
/// ```
pub fn reachable_within(g: &Graph, start: NodeId, set: &BTreeSet<NodeId>) -> BTreeSet<NodeId> {
    reachable_within_set(g, start, &NodeSet::from(set)).to_btree_set()
}

/// Bitset form of [`connected_components`]: the maximal regions of `set`,
/// in increasing order of their smallest node.
///
/// One scratch bitset and one frontier stack are reused across all
/// components; each peel is a word-parallel BFS followed by a
/// word-parallel subtraction from the remainder.
pub fn connected_components_set(g: &Graph, set: &NodeSet) -> Vec<Region> {
    if crate::nodeset::sparse_wins(set.len(), g.mask_words()) {
        return components_sparse(g, set);
    }
    let mut remaining = set.clone();
    let mut scratch = BfsScratch::default();
    let mut components = Vec::new();
    while let Some(seed) = remaining.min() {
        scratch.reach(g, seed, &remaining);
        remaining.difference_with(&scratch.seen);
        components.push(scratch.seen.to_region());
    }
    components
}

/// Per-member peeling for protocol-sized sets: O(|S|·deg·log|S|) with no
/// bitset passes at all, so the cost is independent of both `n` and the
/// magnitude of the member ids. Produces byte-identical output to the
/// bitset path — components in increasing order of their smallest node,
/// each sorted — which the cross-threshold tests below pin down.
fn components_sparse(g: &Graph, set: &NodeSet) -> Vec<Region> {
    let mut remaining: BTreeSet<NodeId> = set.iter().collect();
    let mut components = Vec::new();
    while let Some(&seed) = remaining.iter().next() {
        let mut comp = BTreeSet::new();
        comp.insert(seed);
        let mut frontier = vec![seed];
        while let Some(p) = frontier.pop() {
            for &q in g.neighbors(p) {
                if remaining.contains(&q) && comp.insert(q) {
                    frontier.push(q);
                }
            }
        }
        for p in &comp {
            remaining.remove(p);
        }
        components.push(comp.into_iter().collect());
    }
    components
}

/// The paper's `connectedComponents(S)` (§3.1): the maximal regions of `S`,
/// i.e. the vertex sets of the connected components of the induced subgraph
/// `G[S]`, in increasing order of their smallest node.
///
/// # Example
///
/// ```
/// use precipice_graph::{connected_components, Graph, NodeId, Region};
/// use std::collections::BTreeSet;
///
/// let g = Graph::from_edges(5, [(0, 1), (1, 2), (3, 4)]);
/// let crashed: BTreeSet<_> = [NodeId(0), NodeId(1), NodeId(4)].into();
/// let comps = connected_components(&g, &crashed);
/// assert_eq!(comps.len(), 2);
/// assert_eq!(comps[0], Region::from_iter([NodeId(0), NodeId(1)]));
/// assert_eq!(comps[1], Region::from_iter([NodeId(4)]));
/// ```
pub fn connected_components(g: &Graph, set: &BTreeSet<NodeId>) -> Vec<Region> {
    if crate::nodeset::sparse_wins(set.len(), g.mask_words()) {
        // Peel straight off the sorted set — converting to a bitset first
        // would cost O(max-id/64) before the footprint-sized work starts.
        let mut remaining = set.clone();
        let mut components = Vec::new();
        while let Some(&seed) = remaining.iter().next() {
            let mut comp = BTreeSet::new();
            comp.insert(seed);
            let mut frontier = vec![seed];
            while let Some(p) = frontier.pop() {
                for &q in g.neighbors(p) {
                    if remaining.contains(&q) && comp.insert(q) {
                        frontier.push(q);
                    }
                }
            }
            for p in &comp {
                remaining.remove(p);
            }
            components.push(comp.into_iter().collect());
        }
        return components;
    }
    connected_components_set(g, &NodeSet::from(set))
}

/// `true` if `region` is a *region* of `g` in the paper's sense: a
/// non-empty connected subgraph (§2.2).
///
/// # Example
///
/// ```
/// use precipice_graph::{is_connected_subset, Graph, Region, NodeId};
///
/// let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
/// assert!(is_connected_subset(&g, &Region::from_iter([NodeId(1), NodeId(2)])));
/// assert!(!is_connected_subset(&g, &Region::from_iter([NodeId(0), NodeId(3)])));
/// assert!(!is_connected_subset(&g, &Region::empty()));
/// ```
pub fn is_connected_subset(g: &Graph, region: &Region) -> bool {
    let Some(seed) = region.iter().next() else {
        return false;
    };
    if crate::nodeset::sparse_wins(region.len(), g.mask_words()) {
        // Membership by binary search on the sorted region: no bitset is
        // ever materialized, so small-region checks cost O(|R|·deg·log|R|)
        // regardless of n or the ids involved.
        let mut seen: BTreeSet<NodeId> = BTreeSet::new();
        seen.insert(seed);
        let mut frontier = vec![seed];
        while let Some(p) = frontier.pop() {
            for &q in g.neighbors(p) {
                if region.contains(q) && seen.insert(q) {
                    frontier.push(q);
                }
            }
        }
        return seen.len() == region.len();
    }
    reachable_within_set(g, seed, &NodeSet::from(region)).len() == region.len()
}

#[cfg(test)]
mod reference {
    //! The original `BTreeSet`-based implementations, retained verbatim as
    //! the executable specification for the bitset path: the differential
    //! tests below assert the optimized implementations match these
    //! byte-for-byte on random graphs and subsets.

    use std::collections::BTreeSet;

    use crate::{Graph, NodeId, Region};

    /// Reference implementation of [`reachable_within`](crate::reachable_within).
    pub fn reachable_within(g: &Graph, start: NodeId, set: &BTreeSet<NodeId>) -> BTreeSet<NodeId> {
        let mut seen = BTreeSet::new();
        if !set.contains(&start) {
            return seen;
        }
        let mut frontier = vec![start];
        seen.insert(start);
        while let Some(p) = frontier.pop() {
            for &q in g.neighbors(p) {
                if set.contains(&q) && seen.insert(q) {
                    frontier.push(q);
                }
            }
        }
        seen
    }

    /// Reference implementation of
    /// [`connected_components`](crate::connected_components).
    pub fn connected_components(g: &Graph, set: &BTreeSet<NodeId>) -> Vec<Region> {
        let mut remaining: BTreeSet<NodeId> = set.clone();
        let mut components = Vec::new();
        while let Some(&seed) = remaining.iter().next() {
            let comp = reachable_within(g, seed, &remaining);
            for p in &comp {
                remaining.remove(p);
            }
            components.push(comp.into_iter().collect());
        }
        components
    }

    /// Reference implementation of [`Graph::border_of`].
    pub fn border_of<I>(g: &Graph, set: I) -> Vec<NodeId>
    where
        I: IntoIterator<Item = NodeId>,
    {
        let members: BTreeSet<NodeId> = set.into_iter().collect();
        let mut border = BTreeSet::new();
        for &p in &members {
            for &q in g.neighbors(p) {
                if !members.contains(&q) {
                    border.insert(q);
                }
            }
        }
        border.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{cases, Rng};
    use crate::{grid, random_tree, ring, GridDims};

    fn set(ids: &[u32]) -> BTreeSet<NodeId> {
        ids.iter().map(|&i| NodeId(i)).collect()
    }

    #[test]
    fn empty_set_has_no_components() {
        let g = ring(5);
        assert!(connected_components(&g, &BTreeSet::new()).is_empty());
    }

    #[test]
    fn singletons_are_their_own_components() {
        let g = Graph::from_edges(3, []);
        let comps = connected_components(&g, &set(&[0, 2]));
        assert_eq!(comps.len(), 2);
        assert!(comps.iter().all(|c| c.len() == 1));
    }

    #[test]
    fn components_partition_the_set() {
        let g = grid(GridDims {
            width: 4,
            height: 4,
        });
        let crashed = set(&[0, 1, 2, 10, 11, 15]);
        let comps = connected_components(&g, &crashed);
        let union: BTreeSet<NodeId> = comps.iter().flat_map(Region::iter).collect();
        assert_eq!(union, crashed);
        // Pairwise disjoint.
        for (i, a) in comps.iter().enumerate() {
            for b in comps.iter().skip(i + 1) {
                assert!(!a.intersects(b), "{a} overlaps {b}");
            }
        }
        // Each component is connected and maximal.
        for c in &comps {
            assert!(is_connected_subset(&g, c));
            let grown: BTreeSet<NodeId> = c
                .iter()
                .chain(
                    g.border_of(c.iter())
                        .into_iter()
                        .filter(|q| crashed.contains(q)),
                )
                .collect();
            assert_eq!(grown.len(), c.len(), "component {c} is not maximal");
        }
    }

    #[test]
    fn whole_connected_set_is_one_component() {
        let g = ring(6);
        let comps = connected_components(&g, &set(&[0, 1, 2]));
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].len(), 3);
    }

    #[test]
    fn ring_wraparound_components_merge() {
        let g = ring(6);
        // 5 - 0 are adjacent across the wrap.
        let comps = connected_components(&g, &set(&[5, 0]));
        assert_eq!(comps.len(), 1);
    }

    #[test]
    fn reachability_respects_subset_constraint() {
        let g = ring(6);
        let reached = reachable_within(&g, NodeId(0), &set(&[0, 2, 3]));
        assert_eq!(reached, set(&[0]));
        assert!(reachable_within(&g, NodeId(1), &set(&[0])).is_empty());
    }

    #[test]
    fn scratch_is_reusable_across_queries() {
        let g = ring(8);
        let mut scratch = BfsScratch::with_capacity(g.len());
        let a: NodeSet = [NodeId(0), NodeId(1)].into_iter().collect();
        scratch.reach(&g, NodeId(0), &a);
        assert_eq!(scratch.seen().len(), 2);
        let b: NodeSet = [NodeId(4)].into_iter().collect();
        scratch.reach(&g, NodeId(4), &b);
        assert_eq!(scratch.seen().iter().collect::<Vec<_>>(), vec![NodeId(4)]);
        scratch.reach(&g, NodeId(0), &b);
        assert!(scratch.seen().is_empty());
    }

    #[test]
    fn bitset_matches_reference_on_fixed_cases() {
        let g = grid(GridDims {
            width: 5,
            height: 5,
        });
        for s in [
            set(&[]),
            set(&[3]),
            set(&[0, 1, 2, 5, 6, 20, 24]),
            (0..25u32).map(NodeId).collect(),
        ] {
            assert_eq!(
                connected_components(&g, &s),
                reference::connected_components(&g, &s)
            );
            assert_eq!(
                g.border_of(s.iter().copied()),
                reference::border_of(&g, s.iter().copied())
            );
            for &p in &s {
                assert_eq!(
                    reachable_within(&g, p, &s),
                    reference::reachable_within(&g, p, &s)
                );
            }
        }
    }

    /// An arbitrary connected graph: random tree plus random extra edges
    /// (the generator of `tests/properties.rs`).
    fn arb_graph(rng: &mut Rng) -> Graph {
        let n = rng.gen_range(3..40);
        let tree = random_tree(n, rng.next_u64());
        let mut edges: Vec<(u32, u32)> = tree.edges().map(|(u, v)| (u.0, v.0)).collect();
        for _ in 0..rng.gen_range(0..60usize) {
            let (a, b) = (rng.next_u64() as u32, rng.next_u64() as u32);
            edges.push((a % n as u32, b % n as u32));
        }
        Graph::from_edges(n, edges)
    }

    /// A subset of `g`'s nodes: a drawn target size, bounded retries.
    fn arb_subset(rng: &mut Rng, g: &Graph) -> BTreeSet<NodeId> {
        let len = rng.gen_range(0..=g.len());
        let mut set = BTreeSet::new();
        for _ in 0..len * 10 + 16 {
            if set.len() == len {
                break;
            }
            set.insert(NodeId(rng.gen_range(0..g.len()) as u32));
        }
        set
    }

    /// Differential: the bitset implementations must match the retained
    /// `BTreeSet` reference implementations byte-for-byte — same
    /// components in the same order, same sorted borders, same reach
    /// sets — on arbitrary graphs and subsets.
    #[test]
    fn bitset_algorithms_match_reference() {
        cases("bitset_algorithms_match_reference", 64, |rng| {
            let g = arb_graph(rng);
            let set = arb_subset(rng, &g);
            assert_eq!(
                connected_components(&g, &set),
                reference::connected_components(&g, &set)
            );
            let ns = NodeSet::from(&set);
            assert_eq!(
                connected_components_set(&g, &ns),
                reference::connected_components(&g, &set)
            );
            assert_eq!(
                g.border_of(set.iter().copied()),
                reference::border_of(&g, set.iter().copied())
            );
            let region: Region = set.iter().copied().collect();
            assert_eq!(
                g.border_of_region_cached(&region).as_slice().to_vec(),
                reference::border_of(&g, set.iter().copied())
            );
            for &start in &set {
                assert_eq!(
                    reachable_within(&g, start, &set),
                    reference::reachable_within(&g, start, &set)
                );
                assert_eq!(
                    reachable_within_set(&g, start, &ns).to_btree_set(),
                    reference::reachable_within(&g, start, &set)
                );
            }
            // A start outside the set reaches nothing, both ways.
            let outside = g.nodes().find(|p| !set.contains(p));
            if let Some(outside) = outside {
                assert!(reachable_within(&g, outside, &set).is_empty());
                assert!(reachable_within_set(&g, outside, &ns).is_empty());
            }
        });
    }
}
