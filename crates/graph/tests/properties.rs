//! Property-based tests for the topology substrate.
//!
//! These check the algebraic laws the protocol's correctness proofs lean
//! on: the ranking relation is a strict total order that subsumes strict
//! set inclusion (used by Theorem 4 / Progress), connected components
//! partition their input (used by view construction), and borders are
//! disjoint from their sets (used by View Accuracy).

use std::cmp::Ordering;
use std::collections::BTreeSet;

use precipice_graph::rng::{cases, Rng, SampleRange};
use precipice_graph::{
    connected_components, is_connected_subset, max_ranked_region, random_tree, rank_cmp, ring,
    torus, Graph, GridDims, NodeId, NodeSet, Region,
};

/// An arbitrary connected graph: random tree plus random extra edges.
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

/// Distinct ids below `bound`, aiming for a count drawn from `lens`
/// with bounded retries (a crowded range yields fewer).
fn ids(rng: &mut Rng, bound: usize, lens: impl SampleRange<usize>) -> BTreeSet<NodeId> {
    let len = rng.gen_range(lens);
    let mut set = BTreeSet::new();
    for _ in 0..len * 10 + 16 {
        if set.len() == len {
            break;
        }
        set.insert(NodeId(rng.gen_range(0..bound) as u32));
    }
    set
}

#[test]
fn components_partition_input() {
    cases("components_partition_input", 64, |rng| {
        let g = arb_graph(rng);
        let set = ids(rng, g.len(), 0..=g.len());
        let comps = connected_components(&g, &set);
        // Union equals the input set.
        let union: BTreeSet<NodeId> = comps.iter().flat_map(Region::iter).collect();
        assert_eq!(&union, &set);
        // Pairwise disjoint and each connected.
        for (i, a) in comps.iter().enumerate() {
            assert!(is_connected_subset(&g, a));
            for b in comps.iter().skip(i + 1) {
                assert!(!a.intersects(b));
            }
        }
        // Maximality: no edge of G joins two distinct components.
        for (i, a) in comps.iter().enumerate() {
            for b in comps.iter().skip(i + 1) {
                for p in a.iter() {
                    for &q in g.neighbors(p) {
                        assert!(!b.contains(q), "edge {}-{} crosses components", p, q);
                    }
                }
            }
        }
    });
}

#[test]
fn border_is_disjoint_and_adjacent() {
    cases("border_is_disjoint_and_adjacent", 64, |rng| {
        let g = arb_graph(rng);
        let set = ids(rng, g.len(), 0..=g.len());
        let border = g.border_of(set.iter().copied());
        for q in &border {
            assert!(!set.contains(q));
            assert!(g.neighbors(*q).iter().any(|p| set.contains(p)));
        }
        // Completeness: any non-member adjacent to a member is in the border.
        for p in g.nodes() {
            if !set.contains(&p) && g.neighbors(p).iter().any(|q| set.contains(q)) {
                assert!(border.contains(&p));
            }
        }
    });
}

#[test]
fn ranking_is_a_strict_total_order() {
    cases("ranking_is_a_strict_total_order", 64, |rng| {
        let g = arb_graph(rng);
        let regions: Vec<Region> = (0..3)
            .map(|_| ids(rng, g.len(), 0..=g.len()).into_iter().collect())
            .collect();
        let (a, b, c) = (&regions[0], &regions[1], &regions[2]);
        // Antisymmetry: cmp(a,b) is the reverse of cmp(b,a).
        assert_eq!(rank_cmp(&g, a, b), rank_cmp(&g, b, a).reverse());
        // Equality only for equal regions (strictness/totality).
        if rank_cmp(&g, a, b) == Ordering::Equal {
            assert_eq!(a, b);
        }
        // Transitivity over the sampled triple.
        if rank_cmp(&g, a, b) != Ordering::Greater && rank_cmp(&g, b, c) != Ordering::Greater {
            assert_ne!(rank_cmp(&g, a, c), Ordering::Greater);
        }
    });
}

#[test]
fn ranking_subsumes_strict_inclusion() {
    cases("ranking_subsumes_strict_inclusion", 64, |rng| {
        // Draw until the set is non-empty, so every case checks.
        let (g, set, drop_idx) = loop {
            let g = arb_graph(rng);
            let set: Vec<NodeId> = ids(rng, g.len(), 0..=g.len()).into_iter().collect();
            let drop_idx = rng.next_u64();
            if !set.is_empty() {
                break (g, set, drop_idx);
            }
        };
        let big: Region = set.iter().copied().collect();
        let drop = set[(drop_idx % set.len() as u64) as usize];
        let small: Region = set.iter().copied().filter(|&p| p != drop).collect();
        assert_eq!(rank_cmp(&g, &big, &small), Ordering::Greater);
    });
}

#[test]
fn max_ranked_region_is_maximum() {
    cases("max_ranked_region_is_maximum", 64, |rng| {
        let g = arb_graph(rng);
        let regions: Vec<Region> = (0..rng.gen_range(1..6usize))
            .map(|_| ids(rng, g.len(), 0..=g.len()).into_iter().collect())
            .collect();
        let best = max_ranked_region(&g, regions.clone()).unwrap();
        for r in &regions {
            assert_ne!(rank_cmp(&g, r, &best), Ordering::Greater);
        }
    });
}

/// NodeSet is a faithful set: against a `BTreeSet` model, an
/// arbitrary interleaving of inserts and removes leaves both with the
/// same members, cardinality, and iteration order.
#[test]
fn nodeset_matches_btreeset_model() {
    cases("nodeset_matches_btreeset_model", 64, |rng| {
        let mut model = BTreeSet::new();
        let mut set = NodeSet::new();
        for _ in 0..rng.gen_range(0..120usize) {
            let insert = rng.next_u64() & 1 == 1;
            let p = NodeId(rng.gen_range(0..300usize) as u32);
            if insert {
                assert_eq!(set.insert(p), model.insert(p));
            } else {
                assert_eq!(set.remove(p), model.remove(&p));
            }
        }
        assert_eq!(set.len(), model.len());
        assert_eq!(
            set.iter().collect::<Vec<_>>(),
            model.iter().copied().collect::<Vec<_>>()
        );
        assert_eq!(set.min(), model.first().copied());
        for id in 0..300u32 {
            assert_eq!(set.contains(NodeId(id)), model.contains(&NodeId(id)));
        }
    });
}

/// NodeSet bulk word operations agree with element-wise set algebra.
#[test]
fn nodeset_bulk_ops_match_setwise() {
    cases("nodeset_bulk_ops_match_setwise", 64, |rng| {
        let a = ids(rng, 200, 0..40);
        let b = ids(rng, 200, 0..40);
        let (na, nb) = (NodeSet::from(&a), NodeSet::from(&b));

        let mut u = na.clone();
        u.union_with(&nb);
        assert_eq!(
            u.to_btree_set(),
            a.union(&b).copied().collect::<BTreeSet<_>>()
        );
        let mut i = na.clone();
        i.intersect_with(&nb);
        assert_eq!(
            i.to_btree_set(),
            a.intersection(&b).copied().collect::<BTreeSet<_>>()
        );
        let mut d = na.clone();
        d.difference_with(&nb);
        assert_eq!(
            d.to_btree_set(),
            a.difference(&b).copied().collect::<BTreeSet<_>>()
        );
        assert_eq!(na.intersects(&nb), !i.is_empty());
        assert_eq!(na.is_subset_of(&nb), a.is_subset(&b));
    });
}

#[test]
fn region_set_operations_behave() {
    cases("region_set_operations_behave", 64, |rng| {
        let a: Region = ids(rng, 64, 0..20).into_iter().collect();
        let b: Region = ids(rng, 64, 0..20).into_iter().collect();
        let inter = a.intersection(&b);
        let union = a.union(&b);
        assert_eq!(a.intersects(&b), !inter.is_empty());
        assert!(inter.is_subset_of(&a) && inter.is_subset_of(&b));
        assert!(a.is_subset_of(&union) && b.is_subset_of(&union));
        assert_eq!(union.len() + inter.len(), a.len() + b.len());
    });
}

#[test]
fn torus_region_borders_are_connectivity_consistent() {
    let g = torus(GridDims::square(6));
    for seed in 0..6u32 {
        let mut set = BTreeSet::new();
        set.insert(NodeId(seed));
        for q in g.neighbors(NodeId(seed)) {
            set.insert(*q);
        }
        let comps = connected_components(&g, &set);
        assert_eq!(comps.len(), 1, "ball around {seed} must be connected");
    }
}

#[test]
fn ring_components_wrap() {
    let g = ring(8);
    let set: BTreeSet<NodeId> = [7u32, 0, 1].into_iter().map(NodeId).collect();
    let comps = connected_components(&g, &set);
    assert_eq!(comps.len(), 1);
    assert_eq!(comps[0].len(), 3);
}

/// Footprint-proportional graphs at the north-star scale: a 2²⁰-node
/// torus (the E4 mega size) builds in O(E), costs O(E) memory, and
/// answers border/adjacency/BFS queries — the exact operations the
/// protocol issues — without any O(n²) structure. A ~4 ms debug-mode
/// guard keeps this in the tier-1 suite (the CSR build is a counting
/// sort, ~350 ms unoptimized).
#[test]
fn mega_torus_builds_and_answers_border_queries() {
    let side = 1 << 10;
    let g = torus(GridDims::square(side));
    assert_eq!(g.len(), 1 << 20);
    assert_eq!(g.edge_count(), 2 << 20);
    // CSR + offsets ≈ 20 MB; the old dense mask table would have been
    // n²/8 = 128 GB. Generous 64 MB ceiling so allocator slack never
    // flakes the bound.
    assert!(
        g.memory_bytes() < 64 << 20,
        "2^20 torus must stay O(E): {} bytes",
        g.memory_bytes()
    );
    // Border of an interior node: its four torus neighbours.
    let center = NodeId((g.len() / 2) as u32);
    let border = g.border_of([center]);
    assert_eq!(border.len(), 4);
    for q in &border {
        assert!(g.has_edge(center, *q));
        assert!(g.has_edge(*q, center));
    }
    // A small crashed blob's border and components behave at scale.
    let blob: BTreeSet<NodeId> = [center, border[0], border[1]].into_iter().collect();
    let comps = connected_components(&g, &blob);
    assert_eq!(comps.len(), 1, "blob around the center is connected");
    let blob_border = g.border_of(blob.iter().copied());
    assert!(blob_border.len() >= 6 && blob_border.len() <= 9);
    assert!(blob_border.iter().all(|q| !blob.contains(q)));
}
