//! Correlated-failure pattern generators and crash-timing schedules.

use std::collections::BTreeSet;

use precipice_graph::{rng::Rng, Graph, NodeId, Region};
use precipice_sim::SimTime;

/// The BFS ball of the given hop `radius` around `center` (inclusive).
///
/// This is the canonical *correlated regional failure*: everything within
/// a physical/topological distance of an incident (paper §2.1 — networks
/// whose topology mirrors physical proximity).
///
/// # Example
///
/// ```
/// use precipice_graph::{path, NodeId};
/// use precipice_workload::patterns::bfs_ball;
///
/// let g = path(7);
/// let ball = bfs_ball(&g, NodeId(3), 1);
/// assert_eq!(ball.as_slice(), &[NodeId(2), NodeId(3), NodeId(4)]);
/// ```
pub fn bfs_ball(graph: &Graph, center: NodeId, radius: usize) -> Region {
    let mut ball: BTreeSet<NodeId> = [center].into();
    let mut frontier = vec![center];
    for _ in 0..radius {
        if frontier.is_empty() {
            break;
        }
        let mut next = Vec::new();
        for &p in &frontier {
            for &q in graph.neighbors(p) {
                if ball.insert(q) {
                    next.push(q);
                }
            }
        }
        frontier = next;
    }
    ball.into_iter().collect()
}

/// A connected blob of exactly `k` nodes grown breadth-first from
/// `seed_node` (clamped to the component size).
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn blob_of_size(graph: &Graph, seed_node: NodeId, k: usize) -> Region {
    assert!(k > 0, "blob size must be positive");
    let mut blob: Vec<NodeId> = vec![seed_node];
    let mut in_blob: BTreeSet<NodeId> = [seed_node].into();
    let mut cursor = 0;
    while blob.len() < k && cursor < blob.len() {
        let p = blob[cursor];
        cursor += 1;
        for &q in graph.neighbors(p) {
            if blob.len() >= k {
                break;
            }
            if in_blob.insert(q) {
                blob.push(q);
            }
        }
    }
    blob.into_iter().collect()
}

/// A line-shaped (path) region of up to `k` nodes starting at `start`:
/// a greedy walk that always extends from the most recently added node.
/// Maximizes border-to-size ratio — the adversarial *shape* for the E5
/// experiment.
pub fn line_region(graph: &Graph, start: NodeId, k: usize) -> Region {
    assert!(k > 0, "line length must be positive");
    let mut line = vec![start];
    let mut used: BTreeSet<NodeId> = [start].into();
    let mut tip = start;
    while line.len() < k {
        let Some(&next) = graph.neighbors(tip).iter().find(|q| !used.contains(q)) else {
            break;
        };
        line.push(next);
        used.insert(next);
        tip = next;
    }
    line.into_iter().collect()
}

/// Up to `count` pairwise non-adjacent singleton failures, uniformly
/// sampled. Singletons are kept at graph distance ≥ 3 from each other so
/// their borders stay disjoint (separate faulty clusters).
pub fn scattered_singletons(graph: &Graph, count: usize, seed: u64) -> Vec<NodeId> {
    let mut candidates: Vec<NodeId> = graph.nodes().collect();
    Rng::seed_from_u64(seed).shuffle(&mut candidates);
    let mut chosen: Vec<NodeId> = Vec::new();
    let mut blocked: BTreeSet<NodeId> = BTreeSet::new();
    for c in candidates {
        if chosen.len() >= count {
            break;
        }
        if blocked.contains(&c) {
            continue;
        }
        chosen.push(c);
        // Block everything within 2 hops.
        for &n1 in graph.neighbors(c) {
            blocked.insert(n1);
            for &n2 in graph.neighbors(n1) {
                blocked.insert(n2);
            }
        }
        blocked.insert(c);
    }
    chosen.sort_unstable();
    chosen
}

/// Up to `count` disjoint, non-adjacent blobs of `size` nodes each.
///
/// Blob borders are kept disjoint (distance ≥ 3 between blobs), so each
/// blob is its own faulty cluster.
pub fn multi_blob(graph: &Graph, count: usize, size: usize, seed: u64) -> Vec<Region> {
    let mut seeds: Vec<NodeId> = graph.nodes().collect();
    Rng::seed_from_u64(seed).shuffle(&mut seeds);
    let mut blobs: Vec<Region> = Vec::new();
    let mut blocked: BTreeSet<NodeId> = BTreeSet::new();
    for s in seeds {
        if blobs.len() >= count {
            break;
        }
        if blocked.contains(&s) {
            continue;
        }
        let blob = blob_of_size(graph, s, size);
        if blob.len() < size || blob.iter().any(|p| blocked.contains(&p)) {
            continue;
        }
        // Block the blob plus a 2-hop moat.
        let mut moat: BTreeSet<NodeId> = blob.iter().collect();
        for _ in 0..2 {
            let frontier: Vec<NodeId> = moat.iter().copied().collect();
            for p in frontier {
                moat.extend(graph.neighbors(p).iter().copied());
            }
        }
        blocked.extend(moat);
        blobs.push(blob);
    }
    blobs
}

/// When the nodes of a failure pattern go down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashTiming {
    /// Everyone crashes at the same instant.
    Simultaneous(SimTime),
    /// Nodes crash one after another, `step` apart, starting at `start`
    /// (region growth racing the protocol — Figure 1(b)'s generalized
    /// form).
    Cascade {
        /// First crash time.
        start: SimTime,
        /// Delay between consecutive crashes.
        step: SimTime,
    },
    /// Crash times drawn uniformly from `[start, start + window]`.
    Spread {
        /// Window start.
        start: SimTime,
        /// Window length.
        window: SimTime,
        /// RNG seed.
        seed: u64,
    },
}

/// Materializes a crash schedule for `nodes` under `timing`.
///
/// # Example
///
/// ```
/// use precipice_graph::NodeId;
/// use precipice_sim::SimTime;
/// use precipice_workload::patterns::{schedule, CrashTiming};
///
/// let plan = schedule(
///     [NodeId(1), NodeId(2)],
///     CrashTiming::Cascade { start: SimTime::from_millis(1), step: SimTime::from_millis(10) },
/// );
/// assert_eq!(plan[0].1, SimTime::from_millis(1));
/// assert_eq!(plan[1].1, SimTime::from_millis(11));
/// ```
pub fn schedule<I>(nodes: I, timing: CrashTiming) -> Vec<(NodeId, SimTime)>
where
    I: IntoIterator<Item = NodeId>,
{
    match timing {
        CrashTiming::Simultaneous(at) => nodes.into_iter().map(|n| (n, at)).collect(),
        // Each time is the previous one plus `step`, taken only when a
        // node needs it: no step past the last crash can overflow.
        CrashTiming::Cascade { start, step } => nodes
            .into_iter()
            .scan(None, |prev: &mut Option<SimTime>, n| {
                let at = prev.map_or(start, |p| p + step);
                *prev = Some(at);
                Some((n, at))
            })
            .collect(),
        CrashTiming::Spread {
            start,
            window,
            seed,
        } => {
            let mut rng = Rng::seed_from_u64(seed);
            nodes
                .into_iter()
                .map(|n| {
                    let offset = if window == SimTime::ZERO {
                        0
                    } else {
                        rng.gen_range(0..=window.as_nanos())
                    };
                    (n, start + SimTime::from_nanos(offset))
                })
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use precipice_graph::{is_connected_subset, torus, GridDims};

    #[test]
    fn ball_radius_zero_is_center() {
        let g = torus(GridDims::square(5));
        assert_eq!(bfs_ball(&g, NodeId(7), 0).as_slice(), &[NodeId(7)]);
    }

    #[test]
    fn ball_radius_one_on_torus_has_five_nodes() {
        let g = torus(GridDims::square(5));
        assert_eq!(bfs_ball(&g, NodeId(12), 1).len(), 5);
    }

    #[test]
    fn blob_has_exact_size_and_is_connected() {
        let g = torus(GridDims::square(6));
        for k in [1usize, 2, 5, 9, 17] {
            let blob = blob_of_size(&g, NodeId(14), k);
            assert_eq!(blob.len(), k);
            assert!(is_connected_subset(&g, &blob), "k={k}");
        }
    }

    #[test]
    fn line_region_is_connected_and_thin() {
        let g = torus(GridDims::square(6));
        let line = line_region(&g, NodeId(0), 6);
        assert_eq!(line.len(), 6);
        assert!(is_connected_subset(&g, &line));
        // A line's border is strictly larger than a ball's of equal size.
        let blob = blob_of_size(&g, NodeId(0), 6);
        assert!(g.border_of(line.iter()).len() >= g.border_of(blob.iter()).len());
    }

    #[test]
    fn scattered_singletons_are_far_apart() {
        let g = torus(GridDims::square(8));
        let singles = scattered_singletons(&g, 4, 9);
        assert!(!singles.is_empty());
        for (i, &a) in singles.iter().enumerate() {
            for &b in singles.iter().skip(i + 1) {
                assert!(!g.has_edge(a, b));
                let ball_a: BTreeSet<NodeId> = bfs_ball(&g, a, 1).iter().collect();
                let ball_b: BTreeSet<NodeId> = bfs_ball(&g, b, 1).iter().collect();
                assert!(ball_a.is_disjoint(&ball_b), "{a} and {b} too close");
            }
        }
    }

    #[test]
    fn multi_blob_blobs_are_disjoint_and_separated() {
        let g = torus(GridDims::square(10));
        let blobs = multi_blob(&g, 3, 4, 5);
        assert!(!blobs.is_empty());
        for (i, a) in blobs.iter().enumerate() {
            assert_eq!(a.len(), 4);
            for b in blobs.iter().skip(i + 1) {
                assert!(!a.intersects(b));
                let border_a: BTreeSet<NodeId> = g.border_of(a.iter()).into_iter().collect();
                let border_b: BTreeSet<NodeId> = g.border_of(b.iter()).into_iter().collect();
                assert!(border_a.is_disjoint(&border_b), "borders must not touch");
            }
        }
    }

    #[test]
    fn schedules_are_deterministic() {
        let nodes = [NodeId(1), NodeId(2), NodeId(3)];
        let t = CrashTiming::Spread {
            start: SimTime::from_millis(1),
            window: SimTime::from_millis(50),
            seed: 3,
        };
        assert_eq!(schedule(nodes, t), schedule(nodes, t));
        let sim = schedule(nodes, CrashTiming::Simultaneous(SimTime::from_millis(2)));
        assert!(sim.iter().all(|&(_, at)| at == SimTime::from_millis(2)));
    }
}
