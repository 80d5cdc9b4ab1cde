//! Topology generators for experiment workloads.
//!
//! All random generators are deterministic functions of their `seed`
//! parameter (an [`Rng`] stream), so every experiment is reproducible
//! from its scenario description alone. Generators that cannot guarantee
//! connectivity by construction (`erdos_renyi_connected`,
//! `random_geometric_connected`) retry with a derived seed until the graph
//! is connected — crashed-region semantics are only interesting on
//! connected systems.
//!
//! The closed-form topologies (ring, path, grid, torus) are defined by
//! *row functions* — the sorted adjacency of node `p` as a pure function
//! of `p` — and built in one pass with no intermediate edge list. The
//! same row functions drive [`stream_torus`] and
//! [`TopologySpec::write_pcsr`](crate::TopologySpec::write_pcsr), which
//! write a [`.pcsr` file](crate::GraphStore) directly: a 10⁸-node torus
//! streams to disk through a fixed-size buffer, never holding O(E) in
//! memory.

use crate::rng::Rng;
use crate::store::{GraphStore, StoreError, StoreSummary};
use crate::{Graph, GraphBuilder, NodeId};

/// Dimensions of a [`grid`] or [`torus`] topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GridDims {
    /// Number of columns.
    pub width: usize,
    /// Number of rows.
    pub height: usize,
}

impl GridDims {
    /// A square `side × side` grid.
    pub fn square(side: usize) -> Self {
        GridDims {
            width: side,
            height: side,
        }
    }

    /// Total node count.
    pub fn len(self) -> usize {
        self.width * self.height
    }

    /// `true` if either dimension is zero.
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }
}

/// Sorted adjacency row of node `p` in an `n`-ring (`n ≥ 3`).
pub(crate) fn ring_row(n: usize, p: usize, out: &mut Vec<NodeId>) {
    out.extend([
        NodeId::from_index((p + n - 1) % n),
        NodeId::from_index((p + 1) % n),
    ]);
    out.sort_unstable();
}

/// Sorted adjacency row of node `p` in an `n`-path.
pub(crate) fn path_row(n: usize, p: usize, out: &mut Vec<NodeId>) {
    if p > 0 {
        out.push(NodeId::from_index(p - 1));
    }
    if p + 1 < n {
        out.push(NodeId::from_index(p + 1));
    }
}

/// Sorted adjacency row of node `p` in a `dims` grid (no wraparound).
/// Emitted in ascending id order by construction: north, west, east,
/// south.
pub(crate) fn grid_row(dims: GridDims, p: usize, out: &mut Vec<NodeId>) {
    let (w, h) = (dims.width, dims.height);
    let (x, y) = (p % w, p / w);
    if y > 0 {
        out.push(NodeId::from_index((y - 1) * w + x));
    }
    if x > 0 {
        out.push(NodeId::from_index(y * w + x - 1));
    }
    if x + 1 < w {
        out.push(NodeId::from_index(y * w + x + 1));
    }
    if y + 1 < h {
        out.push(NodeId::from_index((y + 1) * w + x));
    }
}

/// Sorted adjacency row of node `p` in a `dims` torus (both dims ≥ 3, so
/// the four wrapped neighbors are distinct).
fn torus_row(dims: GridDims, p: usize, out: &mut Vec<NodeId>) {
    let (w, h) = (dims.width, dims.height);
    let (x, y) = (p % w, p / w);
    out.extend([
        NodeId::from_index(((y + h - 1) % h) * w + x),
        NodeId::from_index(y * w + (x + w - 1) % w),
        NodeId::from_index(y * w + (x + 1) % w),
        NodeId::from_index(((y + 1) % h) * w + x),
    ]);
    out.sort_unstable();
}

/// A cycle of `n` nodes: `0 - 1 - … - (n-1) - 0`.
///
/// # Panics
///
/// Panics if `n < 3` (a cycle needs at least three nodes).
pub fn ring(n: usize) -> Graph {
    assert!(n >= 3, "a ring needs at least 3 nodes, got {n}");
    Graph::from_sorted_rows(n, |p, out| ring_row(n, p, out))
}

/// A path (line) of `n` nodes: `0 - 1 - … - (n-1)`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn path(n: usize) -> Graph {
    assert!(n > 0, "a path needs at least 1 node");
    Graph::from_sorted_rows(n, |p, out| path_row(n, p, out))
}

/// The complete graph `K_n`.
pub fn complete(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            b.add_edge(NodeId::from_index(u), NodeId::from_index(v));
        }
    }
    b.build()
}

/// A star: node `0` is the hub connected to every other node.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn star(n: usize) -> Graph {
    assert!(n >= 2, "a star needs at least 2 nodes, got {n}");
    Graph::from_edges(n, (1..n).map(|i| (0, i as u32)))
}

/// A `width × height` 4-neighbour mesh without wraparound.
///
/// Node `(x, y)` has index `y * width + x`.
///
/// # Panics
///
/// Panics if either dimension is zero.
pub fn grid(dims: GridDims) -> Graph {
    assert!(
        !dims.is_empty(),
        "grid dimensions must be non-zero: {dims:?}"
    );
    Graph::from_sorted_rows(dims.len(), |p, out| grid_row(dims, p, out))
}

/// A `width × height` 4-neighbour mesh **with** wraparound — the classic
/// DHT-like topology in which correlated regional failures are most
/// naturally studied (every node has degree 4, no boundary effects).
///
/// # Panics
///
/// Panics if either dimension is `< 3` (wraparound would create duplicate
/// or self edges).
pub fn torus(dims: GridDims) -> Graph {
    assert!(
        dims.width >= 3 && dims.height >= 3,
        "torus dimensions must be at least 3x3: {dims:?}"
    );
    Graph::from_sorted_rows(dims.len(), |p, out| torus_row(dims, p, out))
}

/// Streams a `dims` torus to `path` as a `.pcsr` file without building
/// it in memory; see [`torus`] for the topology. This is the 10⁸-node
/// workhorse: two row-function passes through a fixed buffer, ~20 bytes
/// of file per node, no O(E) allocation anywhere.
///
/// # Panics
///
/// Panics if either dimension is `< 3`.
pub fn stream_torus(
    dims: GridDims,
    path: impl AsRef<std::path::Path>,
) -> Result<StoreSummary, StoreError> {
    assert!(
        dims.width >= 3 && dims.height >= 3,
        "torus dimensions must be at least 3x3: {dims:?}"
    );
    GraphStore::write_rows(path, dims.len(), |p, out| torus_row(dims, p, out))
}

/// A uniformly random labelled tree on `n` nodes (random Prüfer sequence).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn random_tree(n: usize, seed: u64) -> Graph {
    assert!(n > 0, "a tree needs at least 1 node");
    if n == 1 {
        return Graph::from_edges(1, []);
    }
    if n == 2 {
        return Graph::from_edges(2, [(0, 1)]);
    }
    let mut rng = Rng::seed_from_u64(seed);
    let prufer: Vec<usize> = (0..n - 2).map(|_| rng.gen_range(0..n)).collect();
    let mut degree = vec![1usize; n];
    for &p in &prufer {
        degree[p] += 1;
    }
    let mut b = GraphBuilder::new(n);
    let mut leaves: std::collections::BinaryHeap<std::cmp::Reverse<usize>> = (0..n)
        .filter(|&i| degree[i] == 1)
        .map(std::cmp::Reverse)
        .collect();
    let mut deg = degree;
    for &p in &prufer {
        let std::cmp::Reverse(leaf) = leaves
            .pop()
            .expect("prufer invariant: a leaf always exists");
        b.add_edge(NodeId::from_index(leaf), NodeId::from_index(p));
        deg[p] -= 1;
        if deg[p] == 1 {
            leaves.push(std::cmp::Reverse(p));
        }
    }
    let std::cmp::Reverse(u) = leaves.pop().expect("two leaves remain");
    let std::cmp::Reverse(v) = leaves.pop().expect("two leaves remain");
    b.add_edge(NodeId::from_index(u), NodeId::from_index(v));
    b.build()
}

/// A connected Erdős–Rényi graph `G(n, p)`.
///
/// Samples `G(n, p)` and retries (with a seed derived from `seed`) until
/// the result is connected.
///
/// # Errors
///
/// Returns an error if no connected sample is found after 64 attempts
/// (`p` too small for `n`).
///
/// # Panics
///
/// Panics if `n == 0` or if `p` is not in `[0, 1]`.
pub fn erdos_renyi_connected(n: usize, p: f64, seed: u64) -> Result<Graph, String> {
    assert!(n > 0, "graph needs at least 1 node");
    assert!(
        (0.0..=1.0).contains(&p),
        "edge probability must be in [0,1], got {p}"
    );
    for attempt in 0..64u64 {
        let mut rng =
            Rng::seed_from_u64(seed.wrapping_add(attempt.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        let mut b = GraphBuilder::new(n);
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.gen_bool(p) {
                    b.add_edge(NodeId::from_index(u), NodeId::from_index(v));
                }
            }
        }
        let g = b.build();
        if g.is_connected() {
            return Ok(g);
        }
    }
    Err(format!(
        "no connected G({n}, {p}) sample after 64 attempts; increase p"
    ))
}

/// A connected random geometric graph: `n` points uniform in the unit
/// square, nodes within Euclidean distance `radius` connected.
///
/// This is the topology whose "network topology mirrors physical
/// proximity" (§2.1) — correlated regional failures are geometric balls.
/// Retries with derived seeds until connected.
///
/// # Errors
///
/// Returns an error if no connected sample is found after 64 attempts
/// (`radius` too small for `n`).
///
/// # Panics
///
/// Panics if `n == 0` or `radius <= 0`.
pub fn random_geometric_connected(n: usize, radius: f64, seed: u64) -> Result<Graph, String> {
    assert!(n > 0, "graph needs at least 1 node");
    assert!(radius > 0.0, "radius must be positive, got {radius}");
    let r2 = radius * radius;
    for attempt in 0..64u64 {
        let mut rng =
            Rng::seed_from_u64(seed.wrapping_add(attempt.wrapping_mul(0xD134_2543_DE82_EF95)));
        let pts: Vec<(f64, f64)> = (0..n).map(|_| (rng.gen_f64(), rng.gen_f64())).collect();
        let mut b = GraphBuilder::new(n);
        for u in 0..n {
            for v in (u + 1)..n {
                let (dx, dy) = (pts[u].0 - pts[v].0, pts[u].1 - pts[v].1);
                if dx * dx + dy * dy <= r2 {
                    b.add_edge(NodeId::from_index(u), NodeId::from_index(v));
                }
            }
        }
        let g = b.build();
        if g.is_connected() {
            return Ok(g);
        }
    }
    Err(format!(
        "no connected geometric graph (n={n}, radius={radius}) after 64 attempts; increase the radius"
    ))
}

/// A Barabási–Albert preferential-attachment graph: starts from a clique
/// of `m` nodes, then each new node attaches to `m` distinct existing
/// nodes with probability proportional to their degree.
///
/// # Panics
///
/// Panics if `m == 0` or `n < m + 1`.
pub fn barabasi_albert(n: usize, m: usize, seed: u64) -> Graph {
    assert!(m > 0, "attachment count m must be positive");
    assert!(n > m, "need n > m (got n={n}, m={m})");
    let mut rng = Rng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    // Repeated-endpoint list: sampling uniformly from it is sampling
    // proportional to degree.
    let mut endpoints: Vec<usize> = Vec::new();
    for u in 0..m {
        for v in (u + 1)..m {
            b.add_edge(NodeId::from_index(u), NodeId::from_index(v));
            endpoints.push(u);
            endpoints.push(v);
        }
    }
    if m == 1 {
        // Degenerate seed clique: a single node with no edges yet.
        endpoints.push(0);
    }
    for new in m..n {
        let mut targets = std::collections::BTreeSet::new();
        while targets.len() < m {
            let &t = rng.choose(&endpoints).expect("endpoint list non-empty");
            if t != new {
                targets.insert(t);
            }
        }
        for t in targets {
            b.add_edge(NodeId::from_index(new), NodeId::from_index(t));
            endpoints.push(new);
            endpoints.push(t);
        }
    }
    b.build()
}

/// A Watts–Strogatz small-world graph: a ring lattice where each node is
/// connected to its `k` nearest neighbours (`k/2` each side), with each
/// edge rewired with probability `beta` to a uniform random endpoint.
///
/// Rewiring never disconnects deliberately; the function retries until the
/// sample is connected.
///
/// # Errors
///
/// Returns an error if no connected sample is found after 64 attempts.
///
/// # Panics
///
/// Panics if `k` is odd or zero, `n <= k`, or `beta ∉ [0,1]`.
pub fn watts_strogatz(n: usize, k: usize, beta: f64, seed: u64) -> Result<Graph, String> {
    assert!(
        k > 0 && k.is_multiple_of(2),
        "k must be positive and even, got {k}"
    );
    assert!(n > k, "need n > k (got n={n}, k={k})");
    assert!(
        (0.0..=1.0).contains(&beta),
        "beta must be in [0,1], got {beta}"
    );
    for attempt in 0..64u64 {
        let mut rng =
            Rng::seed_from_u64(seed.wrapping_add(attempt.wrapping_mul(0xA24B_AED4_963E_E407)));
        let mut b = GraphBuilder::new(n);
        for u in 0..n {
            for off in 1..=(k / 2) {
                let v = (u + off) % n;
                if rng.gen_bool(beta) {
                    // Rewire: pick a random target distinct from u.
                    let mut t = rng.gen_range(0..n);
                    while t == u {
                        t = rng.gen_range(0..n);
                    }
                    b.add_edge(NodeId::from_index(u), NodeId::from_index(t));
                } else {
                    b.add_edge(NodeId::from_index(u), NodeId::from_index(v));
                }
            }
        }
        let g = b.build();
        if g.is_connected() {
            return Ok(g);
        }
    }
    Err(format!(
        "no connected Watts-Strogatz sample (n={n}, k={k}, beta={beta}) after 64 attempts"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_degrees_and_connectivity() {
        let g = ring(7);
        assert_eq!(g.len(), 7);
        assert_eq!(g.edge_count(), 7);
        assert!(g.nodes().all(|p| g.degree(p) == 2));
        assert!(g.is_connected());
    }

    #[test]
    fn path_shape() {
        let g = path(5);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.degree(NodeId(0)), 1);
        assert_eq!(g.degree(NodeId(2)), 2);
        let single = path(1);
        assert_eq!(single.len(), 1);
        assert_eq!(single.edge_count(), 0);
    }

    #[test]
    fn complete_graph_edges() {
        let g = complete(6);
        assert_eq!(g.edge_count(), 15);
        assert!(g.nodes().all(|p| g.degree(p) == 5));
    }

    #[test]
    fn star_shape() {
        let g = star(5);
        assert_eq!(g.degree(NodeId(0)), 4);
        assert!(g.nodes().skip(1).all(|p| g.degree(p) == 1));
    }

    #[test]
    fn grid_degrees() {
        let g = grid(GridDims {
            width: 3,
            height: 4,
        });
        assert_eq!(g.len(), 12);
        // Corner, edge, interior degrees.
        assert_eq!(g.degree(NodeId(0)), 2);
        assert_eq!(g.degree(NodeId(1)), 3);
        assert_eq!(g.degree(NodeId(4)), 4);
        assert!(g.is_connected());
    }

    #[test]
    fn torus_is_4_regular() {
        let g = torus(GridDims::square(4));
        assert!(g.nodes().all(|p| g.degree(p) == 4));
        assert_eq!(g.edge_count(), 2 * 16);
        assert!(g.is_connected());
    }

    #[test]
    fn random_tree_has_n_minus_1_edges_and_is_connected() {
        for n in [1usize, 2, 3, 10, 57] {
            let g = random_tree(n, 42);
            assert_eq!(g.edge_count(), n - 1, "n={n}");
            assert!(g.is_connected(), "n={n}");
        }
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(random_tree(20, 7), random_tree(20, 7));
        assert_eq!(
            erdos_renyi_connected(30, 0.2, 3).expect("connected"),
            erdos_renyi_connected(30, 0.2, 3).expect("connected")
        );
        assert_eq!(barabasi_albert(30, 2, 5), barabasi_albert(30, 2, 5));
        assert_eq!(
            random_geometric_connected(30, 0.35, 9).expect("connected"),
            random_geometric_connected(30, 0.35, 9).expect("connected")
        );
        assert_eq!(
            watts_strogatz(30, 4, 0.1, 11).expect("connected"),
            watts_strogatz(30, 4, 0.1, 11).expect("connected")
        );
    }

    #[test]
    fn seeds_change_the_sample() {
        assert_ne!(random_tree(20, 1), random_tree(20, 2));
    }

    #[test]
    fn a_sparse_sample_is_an_error_not_a_panic() {
        let err = erdos_renyi_connected(40, 0.001, 1).unwrap_err();
        assert!(err.contains("G(40, 0.001)"), "{err}");
        assert!(random_geometric_connected(40, 0.01, 1).is_err());
    }

    #[test]
    fn erdos_renyi_connected_is_connected() {
        let g = erdos_renyi_connected(40, 0.15, 13).expect("connected");
        assert!(g.is_connected());
    }

    #[test]
    fn geometric_connected_is_connected() {
        let g = random_geometric_connected(50, 0.3, 17).expect("connected");
        assert!(g.is_connected());
    }

    #[test]
    fn barabasi_albert_edge_count() {
        let (n, m) = (25, 3);
        let g = barabasi_albert(n, m, 23);
        // Seed clique C(m,2) plus m edges per subsequent node.
        assert_eq!(g.edge_count(), m * (m - 1) / 2 + (n - m) * m);
        assert!(g.is_connected());
    }

    #[test]
    fn watts_strogatz_connected_and_sized() {
        let g = watts_strogatz(40, 4, 0.2, 29).expect("connected");
        assert!(g.is_connected());
        assert_eq!(g.len(), 40);
        // Rewiring may merge duplicate edges, so edge count is at most n*k/2.
        assert!(g.edge_count() <= 40 * 2);
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn tiny_ring_panics() {
        let _ = ring(2);
    }
}
