use std::cmp::Ordering;
use std::fmt;

use precipice_graph::{rank_cmp_keyed, Region, Topology};

/// A proposed view: a candidate crashed [`Region`] together with its
/// (cached) border.
///
/// The border is what makes a view actionable: it is both the
/// *constituency* that must agree on the view (the participants of the
/// consensus instance indexed by it) and a component of the ranking
/// relation `≻` used for arbitration. Both are pure functions of the
/// region and the knowledge graph, so every node derives the same border
/// for the same region — views can be shipped as regions and re-derived,
/// but caching avoids recomputing borders on every comparison.
///
/// # Example
///
/// ```
/// use precipice_core::View;
/// use precipice_graph::{Graph, NodeId, Region};
///
/// let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
/// let v = View::new(&g, Region::from_iter([NodeId(1), NodeId(2)]));
/// assert_eq!(v.border().as_slice(), &[NodeId(0), NodeId(3)]);
/// assert_eq!(v.participants(), 2);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct View {
    region: Region,
    border: Region,
}

impl View {
    /// Builds the view for `region`, deriving its border from `topology`.
    ///
    /// Tests build views this way; the protocol node does not, since it
    /// grows each border as its crashed region grows (see
    /// [`CliffEdgeNode`](crate::CliffEdgeNode)).
    pub fn new<T: Topology>(topology: &T, region: Region) -> Self {
        let border = topology.border_region(&region);
        View { region, border }
    }

    /// Reassembles a view from a region and an externally supplied border
    /// (e.g. from a received [`Message`](crate::Message)).
    ///
    /// The caller asserts that `border = border(region)` on the system's
    /// knowledge graph; all nodes share that graph, so a well-formed peer
    /// can only send the correct border.
    pub fn from_parts(region: Region, border: Region) -> Self {
        View { region, border }
    }

    /// The crashed region this view claims.
    pub fn region(&self) -> &Region {
        &self.region
    }

    /// The border of the region — the instance's participants.
    pub fn border(&self) -> &Region {
        &self.border
    }

    /// Number of participants `|border(V)|`.
    pub fn participants(&self) -> usize {
        self.border.len()
    }

    /// Number of communication rounds the flooding instance for this view
    /// runs: `max(1, |border(V)| − 1)`.
    ///
    /// The paper's Algorithm 1 uses `|B| − 1` rounds; the `max(1, …)`
    /// clamp covers the degenerate single-participant border, where the
    /// lone node completes one self-round and decides (see the
    /// [`crate::instance`] notes on deviations from the pseudocode).
    pub fn total_rounds(&self) -> u32 {
        (self.border.len().saturating_sub(1)).max(1) as u32
    }

    /// Ranking comparison `self ≻ other` ⇔ `Ordering::Greater`
    /// (paper §3.1), using the cached borders.
    pub fn rank_cmp(&self, other: &View) -> Ordering {
        rank_cmp_keyed(
            &self.region,
            self.border.len(),
            &other.region,
            other.border.len(),
        )
    }
}

impl fmt::Debug for View {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "View({} ⊣ {})", self.region, self.border)
    }
}

impl fmt::Display for View {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.region)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use precipice_graph::{Graph, NodeId};

    fn g() -> Graph {
        // 0 - 1 - 2 - 3 - 4 path
        Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    }

    fn region(ids: &[u32]) -> Region {
        ids.iter().map(|&i| NodeId(i)).collect()
    }

    #[test]
    fn border_is_derived() {
        let v = View::new(&g(), region(&[2]));
        assert_eq!(v.border(), &region(&[1, 3]));
        assert_eq!(v.participants(), 2);
    }

    #[test]
    fn total_rounds_formula() {
        let graph = g();
        assert_eq!(View::new(&graph, region(&[2])).total_rounds(), 1); // |B|=2
        assert_eq!(View::new(&graph, region(&[1, 2, 3])).total_rounds(), 1); // |B|=2
        assert_eq!(View::new(&graph, region(&[0])).total_rounds(), 1); // |B|=1 clamp
        let star = precipice_graph::star(5);
        assert_eq!(View::new(&star, region(&[0])).total_rounds(), 3); // |B|=4
    }

    #[test]
    fn rank_cmp_matches_graph_ranking() {
        let graph = g();
        let small = View::new(&graph, region(&[1]));
        let big = View::new(&graph, region(&[1, 2]));
        assert_eq!(big.rank_cmp(&small), Ordering::Greater);
        assert_eq!(small.rank_cmp(&big), Ordering::Less);
        assert_eq!(small.rank_cmp(&small.clone()), Ordering::Equal);
    }

    #[test]
    fn from_parts_round_trips() {
        let graph = g();
        let v = View::new(&graph, region(&[1, 2]));
        let rebuilt = View::from_parts(v.region().clone(), v.border().clone());
        assert_eq!(v, rebuilt);
    }

    #[test]
    fn debug_and_display() {
        let v = View::new(&g(), region(&[2]));
        assert_eq!(v.to_string(), "{n2}");
        assert!(format!("{v:?}").contains("⊣"));
    }
}
