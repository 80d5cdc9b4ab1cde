//! Reachability and connected components over induced subgraphs.
//!
//! Every query here is one breadth-first search, [`search`], over a
//! sorted member slice: a node is marked visited by its position in the
//! slice, and a neighbour's position is found by binary search, so a
//! query costs O(|S|·deg·log|S|) whatever `n` or the magnitude of the
//! ids. [`Graph::is_connected`] runs the same search with the id itself
//! as the position. The test-only **`reference` module** keeps the
//! original `BTreeSet` implementations; they are the executable
//! specification that the differential tests at the bottom of this file
//! compare against byte-for-byte.

use std::collections::BTreeSet;

use crate::{Graph, NodeId, Region};

/// Breadth-first search from `start` through the induced subgraph whose
/// members `position` numbers: each member reached and not yet marked in
/// `seen` is marked and appended to `reached`, which doubles as the
/// queue. Reaches nothing if `start` is not a member.
pub(crate) fn search(
    g: &Graph,
    start: NodeId,
    position: impl Fn(NodeId) -> Option<usize>,
    seen: &mut [bool],
    reached: &mut Vec<NodeId>,
) {
    let Some(i) = position(start) else {
        return;
    };
    seen[i] = true;
    let mut next = reached.len();
    reached.push(start);
    while let Some(&p) = reached.get(next) {
        next += 1;
        for &q in g.neighbors(p) {
            if let Some(j) = position(q) {
                if !seen[j] {
                    seen[j] = true;
                    reached.push(q);
                }
            }
        }
    }
}

/// Positions in a sorted member slice, by binary search.
fn position_in(members: &[NodeId]) -> impl Fn(NodeId) -> Option<usize> + '_ {
    move |q| members.binary_search(&q).ok()
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
    let members: Vec<NodeId> = set.iter().copied().collect();
    let mut seen = vec![false; members.len()];
    let mut reached = Vec::new();
    search(g, start, position_in(&members), &mut seen, &mut reached);
    reached.into_iter().collect()
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
    let members: Vec<NodeId> = set.iter().copied().collect();
    let mut seen = vec![false; members.len()];
    let mut components = Vec::new();
    // The first unseen member is the smallest node of what remains, so
    // components come out in increasing order of their smallest node.
    for (i, &seed) in members.iter().enumerate() {
        if seen[i] {
            continue;
        }
        let mut component = Vec::new();
        search(g, seed, position_in(&members), &mut seen, &mut component);
        component.sort_unstable();
        components.push(Region::from_sorted_vec(component));
    }
    components
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
    let members = region.as_slice();
    let Some(&seed) = members.first() else {
        return false;
    };
    let mut seen = vec![false; members.len()];
    let mut reached = Vec::with_capacity(members.len());
    search(g, seed, position_in(members), &mut seen, &mut reached);
    reached.len() == members.len()
}

#[cfg(test)]
mod reference {
    //! The original `BTreeSet`-based implementations, retained verbatim as
    //! the executable specification for the slice search and the border
    //! kernel: the differential tests below assert those match these
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
    use crate::topology::tests::NeighborOnly;
    use crate::{grid, random_tree, ring, GridDims, Topology};

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

    /// Differential: the slice search and the border kernel must match the
    /// retained `BTreeSet` reference implementations byte-for-byte — same
    /// components in the same order, same sorted borders, same reach
    /// sets, connectivity exactly when there is one component — on
    /// arbitrary graphs and subsets.
    #[test]
    fn bitset_algorithms_match_reference() {
        cases("bitset_algorithms_match_reference", 64, |rng| {
            let g = arb_graph(rng);
            let set = arb_subset(rng, &g);
            assert_eq!(
                connected_components(&g, &set),
                reference::connected_components(&g, &set)
            );
            assert_eq!(
                g.border_of(set.iter().copied()),
                reference::border_of(&g, set.iter().copied())
            );
            let region: Region = set.iter().copied().collect();
            let border: Region = reference::border_of(&g, set.iter().copied())
                .into_iter()
                .collect();
            assert_eq!(g.border_of(region.iter()), border.as_slice());
            // `is_border_of` holds for the true border and fails for one
            // member dropped, one non-member node added, or one region
            // member added; the provided trait method agrees every time.
            let naive = NeighborOnly(g.clone());
            let check = |b: &Region| {
                let fast = g.is_border_of(&region, b);
                assert_eq!(fast, naive.is_border_of(&region, b));
                fast
            };
            let with = |q: NodeId| border.iter().chain([q]).collect::<Region>();
            assert!(check(&border));
            for q in border.iter() {
                assert!(!check(&border.iter().filter(|&p| p != q).collect()));
            }
            let outsider = g.nodes().find(|p| !set.contains(p) && !border.contains(*p));
            if let Some(outsider) = outsider {
                assert!(!check(&with(outsider)));
            }
            if let Some(&member) = set.first() {
                assert!(!check(&with(member)));
            }
            assert_eq!(
                is_connected_subset(&g, &region),
                reference::connected_components(&g, &set).len() == 1
            );
            for &start in &set {
                assert_eq!(
                    reachable_within(&g, start, &set),
                    reference::reachable_within(&g, start, &set)
                );
            }
            // A start outside the set reaches nothing.
            let outside = g.nodes().find(|p| !set.contains(p));
            if let Some(outside) = outside {
                assert!(reachable_within(&g, outside, &set).is_empty());
            }
        });
    }
}
