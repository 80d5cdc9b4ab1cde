use std::sync::Arc;

use crate::graph::border_kernel;
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
/// A lookup service implements `neighbors_of` and `node_count`; the
/// provided [`border_region`](Topology::border_region) runs the crate's
/// one border kernel over `neighbors_of`, and the provided
/// [`is_border_of`](Topology::is_border_of) compares against it.
/// [`Graph`] and `Arc<Graph>` answer `is_border_of` without allocating
/// ([`Graph::is_border_of`]).
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

    /// The border of a [`Region`] — its members' neighbours that are not
    /// themselves members — as a [`Region`], the form a view carries.
    fn border_region(&self, region: &Region) -> Region {
        Region::from_sorted_vec(border_kernel(region.as_slice(), 0, |p, out| {
            out.extend(self.neighbors_of(p));
        }))
    }

    /// `true` if `border` is the border of `region`.
    fn is_border_of(&self, region: &Region, border: &Region) -> bool {
        self.border_region(region) == *border
    }
}

impl Topology for Graph {
    fn neighbors_of(&self, p: NodeId) -> Vec<NodeId> {
        self.neighbors(p).to_vec()
    }

    fn node_count(&self) -> usize {
        self.len()
    }

    fn is_border_of(&self, region: &Region, border: &Region) -> bool {
        Graph::is_border_of(self, region, border)
    }
}

impl Topology for Arc<Graph> {
    fn neighbors_of(&self, p: NodeId) -> Vec<NodeId> {
        self.as_ref().neighbors_of(p)
    }

    fn node_count(&self) -> usize {
        self.as_ref().node_count()
    }

    fn is_border_of(&self, region: &Region, border: &Region) -> bool {
        Graph::is_border_of(self, region, border)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A deliberately naive topology that only knows `neighbors_of`, to
    /// exercise the provided methods.
    pub(crate) struct NeighborOnly(pub(crate) Graph);

    impl Topology for NeighborOnly {
        fn neighbors_of(&self, p: NodeId) -> Vec<NodeId> {
            self.0.neighbors(p).to_vec()
        }
        fn node_count(&self) -> usize {
            self.0.len()
        }
    }

    fn region(ids: &[u32]) -> Region {
        ids.iter().map(|&i| NodeId(i)).collect()
    }

    #[test]
    fn trait_border_matches_inherent() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]);
        let s = region(&[1, 2]);
        let inherent: Region = g.border_of(s.iter()).into_iter().collect();
        assert_eq!(g.border_region(&s), inherent);
        // The provided method over `neighbors_of` agrees.
        let naive = NeighborOnly(g.clone());
        assert_eq!(naive.border_region(&s), inherent);
    }

    #[test]
    fn arc_and_ref_impls_delegate() {
        let g = Arc::new(Graph::from_edges(3, [(0, 1), (1, 2)]));
        assert_eq!(g.neighbors_of(NodeId(1)), vec![NodeId(0), NodeId(2)]);
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.border_region(&region(&[0])), region(&[1]));
        let r: &Graph = &g;
        assert_eq!(r.neighbors_of(NodeId(0)), vec![NodeId(1)]);
        assert_eq!(Topology::node_count(r), 3);
    }

    #[test]
    fn border_of_region_matches_set_form() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]);
        let s = region(&[2, 3]);
        assert_eq!(g.border_of(s.iter()), vec![NodeId(1), NodeId(4)]);
        let expected = region(&[1, 4]);
        assert_eq!(g.border_region(&s), expected);
        let naive = NeighborOnly(g.clone());
        assert_eq!(naive.border_region(&s), expected);
        // Members out of order in the set form give the same border.
        assert_eq!(
            g.border_of([NodeId(3), NodeId(2), NodeId(3)]),
            vec![NodeId(1), NodeId(4)]
        );
    }
}
