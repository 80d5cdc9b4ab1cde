use std::cmp::Ordering;

use crate::{Graph, Region};

/// The paper's ranking relation `≻` between regions (§3.1).
///
/// `R ≻ S` iff
/// 1. `|R| > |S|`, or
/// 2. `|R| = |S|` and `|border(R)| > |border(S)|`, or
/// 3. both sizes tie and `R` is greater according to a strict total order
///    on node sets (here: lexicographic order on the sorted node ids —
///    the paper notes "the actual ordering relation on node sets does not
///    matter", only that it is strict and total).
///
/// Returns `Ordering::Greater` when `a ≻ b`. This is a strict total order
/// on regions and it *subsumes strict set inclusion* (`R ⊋ S ⇒ R ≻ S`),
/// which the Progress proof (Theorem 4) relies on.
///
/// # Example
///
/// ```
/// use precipice_graph::{rank_cmp, Graph, NodeId, Region};
/// use std::cmp::Ordering;
///
/// let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
/// let small = Region::from_iter([NodeId(1)]);
/// let big = Region::from_iter([NodeId(1), NodeId(2)]);
/// assert_eq!(rank_cmp(&g, &big, &small), Ordering::Greater);
/// ```
pub fn rank_cmp(g: &Graph, a: &Region, b: &Region) -> Ordering {
    let border_size = |r: &Region| g.border_of(r.iter()).len();
    rank_cmp_keyed(a, border_size(a), b, border_size(b))
}

/// The ranking `≻` itself, over regions whose border sizes are already
/// known: the single definition that [`rank_cmp`] and the protocol's
/// views, which carry their borders, both compare through.
pub fn rank_cmp_keyed(
    a: &Region,
    a_border_size: usize,
    b: &Region,
    b_border_size: usize,
) -> Ordering {
    (a.len(), a_border_size, a.as_slice()).cmp(&(b.len(), b_border_size, b.as_slice()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{grid, GridDims, NodeId};

    fn r(ids: &[u32]) -> Region {
        ids.iter().map(|&i| NodeId(i)).collect()
    }

    #[test]
    fn size_dominates() {
        let g = grid(GridDims {
            width: 3,
            height: 3,
        });
        assert_eq!(rank_cmp(&g, &r(&[0, 1]), &r(&[4])), Ordering::Greater);
        assert_eq!(rank_cmp(&g, &r(&[4]), &r(&[0, 1])), Ordering::Less);
    }

    #[test]
    fn border_breaks_size_ties() {
        let g = grid(GridDims {
            width: 3,
            height: 3,
        });
        // Center of a 3x3 grid (node 4) has border 4; corner (node 0) has 2.
        assert_eq!(rank_cmp(&g, &r(&[4]), &r(&[0])), Ordering::Greater);
    }

    #[test]
    fn lex_breaks_full_ties() {
        let g = grid(GridDims {
            width: 3,
            height: 3,
        });
        // Two opposite corners have identical size and border size.
        assert_eq!(rank_cmp(&g, &r(&[8]), &r(&[0])), Ordering::Greater);
        assert_eq!(rank_cmp(&g, &r(&[0]), &r(&[8])), Ordering::Less);
    }

    #[test]
    fn reflexive_equality() {
        let g = grid(GridDims {
            width: 3,
            height: 3,
        });
        assert_eq!(rank_cmp(&g, &r(&[1, 2]), &r(&[1, 2])), Ordering::Equal);
    }

    #[test]
    fn subsumes_strict_inclusion() {
        let g = grid(GridDims {
            width: 4,
            height: 4,
        });
        let small = r(&[5, 6]);
        let big = r(&[5, 6, 7]);
        assert_eq!(rank_cmp(&g, &big, &small), Ordering::Greater);
    }

    #[test]
    fn max_ranked_region_picks_highest() {
        let g = grid(GridDims {
            width: 3,
            height: 3,
        });
        // The paper's maxRankedRegion (§3.1): size first, then border.
        let regions = [r(&[0]), r(&[4]), r(&[0, 1])];
        let best = regions.iter().max_by(|a, b| rank_cmp(&g, a, b));
        assert_eq!(best, Some(&r(&[0, 1])));
        let best = regions[..2].iter().max_by(|a, b| rank_cmp(&g, a, b));
        assert_eq!(best, Some(&r(&[4])));
    }

    #[test]
    fn keyed_matches_unkeyed() {
        let g = grid(GridDims {
            width: 4,
            height: 4,
        });
        let regions = [r(&[0]), r(&[5]), r(&[0, 1]), r(&[1, 5]), r(&[14, 15])];
        for a in &regions {
            for b in &regions {
                let ka = g.border_of(a.iter()).len();
                let kb = g.border_of(b.iter()).len();
                assert_eq!(rank_cmp(&g, a, b), rank_cmp_keyed(a, ka, b, kb));
            }
        }
    }
}
