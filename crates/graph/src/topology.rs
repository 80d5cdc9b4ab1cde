use std::collections::BTreeSet;
use std::sync::Arc;

use crate::{Graph, NodeId, Region};

/// On-demand access to the knowledge graph `G` — the paper's "underlying
/// topology service" (§2.2).
///
/// Protocol code only ever *queries* topology (neighbours of live or
/// crashed nodes, borders); it never mutates it. Abstracting the access
/// behind a trait lets the same protocol core run against a shared
/// in-memory [`Graph`] (simulator), an `Arc<Graph>` handed to every node
/// thread (live backend), or any future distributed lookup service.
///
/// The provided methods have generic `neighbors_of`-based defaults so any
/// lookup service works out of the box; [`Graph`] and `Arc<Graph>`
/// override them with the word-parallel bitset kernels and the shared
/// border memo (see [`Graph::border_into`] and
/// [`Graph::border_of_region_cached`]).
///
/// # Example
///
/// ```
/// use precipice_graph::{Graph, NodeId, Topology};
///
/// let g = Graph::from_edges(3, [(0, 1), (1, 2)]);
/// fn degree_of<T: Topology>(t: &T, p: NodeId) -> usize {
///     t.neighbors_of(p).len()
/// }
/// assert_eq!(degree_of(&g, NodeId(1)), 2);
/// ```
pub trait Topology {
    /// Sorted neighbours of `p` (the paper's `border(p)`), whether or not
    /// `p` has crashed.
    fn neighbors_of(&self, p: NodeId) -> Vec<NodeId>;

    /// Total number of nodes in the system.
    ///
    /// Note that the *protocol* never needs this (locality!); it is used
    /// by checkers and baselines.
    fn node_count(&self) -> usize;

    /// The border of a node set: members' neighbours that are not
    /// themselves members, sorted.
    fn border_of_set(&self, set: &BTreeSet<NodeId>) -> Vec<NodeId> {
        let mut border = BTreeSet::new();
        for &p in set {
            for q in self.neighbors_of(p) {
                if !set.contains(&q) {
                    border.insert(q);
                }
            }
        }
        border.into_iter().collect()
    }

    /// The border of a [`Region`], sorted.
    fn border_of_region(&self, region: &Region) -> Vec<NodeId> {
        self.border_of_set(&region.iter().collect())
    }

    /// The border of a [`Region`], as a [`Region`].
    ///
    /// This is the form a view wants (it carries its border as a
    /// region); [`Graph`] overrides it to return the `Arc`-shared memo
    /// entry, so repeated queries for the same region are zero-copy.
    fn border_region(&self, region: &Region) -> Region {
        self.border_of_region(region).into_iter().collect()
    }
}

impl Topology for Graph {
    fn neighbors_of(&self, p: NodeId) -> Vec<NodeId> {
        self.neighbors(p).to_vec()
    }

    fn node_count(&self) -> usize {
        self.len()
    }

    fn border_of_set(&self, set: &BTreeSet<NodeId>) -> Vec<NodeId> {
        self.border_of(set.iter().copied())
    }

    fn border_of_region(&self, region: &Region) -> Vec<NodeId> {
        self.border_of_region_cached(region).iter().collect()
    }

    fn border_region(&self, region: &Region) -> Region {
        self.border_of_region_cached(region)
    }
}

impl Topology for Arc<Graph> {
    fn neighbors_of(&self, p: NodeId) -> Vec<NodeId> {
        self.as_ref().neighbors_of(p)
    }

    fn node_count(&self) -> usize {
        self.as_ref().node_count()
    }

    fn border_of_set(&self, set: &BTreeSet<NodeId>) -> Vec<NodeId> {
        self.as_ref().border_of_set(set)
    }

    fn border_of_region(&self, region: &Region) -> Vec<NodeId> {
        self.as_ref().border_of_region(region)
    }

    fn border_region(&self, region: &Region) -> Region {
        self.as_ref().border_region(region)
    }
}

impl<T: Topology + ?Sized> Topology for &T {
    fn neighbors_of(&self, p: NodeId) -> Vec<NodeId> {
        (**self).neighbors_of(p)
    }

    fn node_count(&self) -> usize {
        (**self).node_count()
    }

    fn border_of_set(&self, set: &BTreeSet<NodeId>) -> Vec<NodeId> {
        (**self).border_of_set(set)
    }

    fn border_of_region(&self, region: &Region) -> Vec<NodeId> {
        (**self).border_of_region(region)
    }

    fn border_region(&self, region: &Region) -> Region {
        (**self).border_region(region)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[u32]) -> BTreeSet<NodeId> {
        ids.iter().map(|&i| NodeId(i)).collect()
    }

    /// A deliberately naive topology that only knows `neighbors_of`, to
    /// exercise the generic defaults.
    struct NeighborOnly(Graph);

    impl Topology for NeighborOnly {
        fn neighbors_of(&self, p: NodeId) -> Vec<NodeId> {
            self.0.neighbors(p).to_vec()
        }
        fn node_count(&self) -> usize {
            self.0.len()
        }
    }

    #[test]
    fn trait_border_matches_inherent() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]);
        let s = set(&[1, 2]);
        assert_eq!(g.border_of_set(&s), g.border_of(s.iter().copied()));
        // The generic default agrees with the bitset override.
        let naive = NeighborOnly(g.clone());
        assert_eq!(naive.border_of_set(&s), g.border_of_set(&s));
    }

    #[test]
    fn arc_and_ref_impls_delegate() {
        let g = Arc::new(Graph::from_edges(3, [(0, 1), (1, 2)]));
        assert_eq!(g.neighbors_of(NodeId(1)), vec![NodeId(0), NodeId(2)]);
        assert_eq!(g.node_count(), 3);
        let r: &Graph = &g;
        assert_eq!(r.neighbors_of(NodeId(0)), vec![NodeId(1)]);
        assert_eq!(Topology::node_count(&r), 3);
    }

    #[test]
    fn border_of_region_matches_set_form() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]);
        let region: Region = [NodeId(2), NodeId(3)].into_iter().collect();
        assert_eq!(g.border_of_region(&region), vec![NodeId(1), NodeId(4)]);
        let expected: Region = [NodeId(1), NodeId(4)].into_iter().collect();
        assert_eq!(g.border_region(&region), expected);
        let naive = NeighborOnly(g.clone());
        assert_eq!(naive.border_region(&region), expected);
    }
}
