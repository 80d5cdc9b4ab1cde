//! Input generation: everything a workload feeds the program is made
//! here from the `--seed` argument, with the benchmark's own generator
//! (so the inputs do not move when the program's RNG does).

use precipice_sim::{LatencyModel, SimConfig, SimTime};

/// splitmix64: a stateless-to-seed, well-mixed 64-bit stream.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream for `(seed, stream)`: distinct streams for distinct
    /// operations of one run.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut s = SplitMix(seed ^ stream.wrapping_mul(0x2545_f491_4f6c_dd1d));
        s.next();
        s
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias at these sizes is
    /// below 2⁻⁴⁰ and irrelevant to input variety).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next()) * u128::from(n)) >> 64) as u64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Node id of `(row, col)` on a `side × side` torus, row-major — the
/// numbering of `precipice_graph::torus`.
pub fn torus_node(side: usize, row: usize, col: usize) -> u32 {
    ((row % side) * side + col % side) as u32
}

/// The four torus neighbours of `node`, sorted ascending. Computed by
/// arithmetic, not through the graph crate: it is the independent
/// reference the serve replies are checked against.
pub fn torus_neighbours(side: usize, node: u32) -> [u32; 4] {
    let (row, col) = (node as usize / side, node as usize % side);
    let mut out = [
        torus_node(side, row + side - 1, col),
        torus_node(side, row + 1, col),
        torus_node(side, row, col + side - 1),
        torus_node(side, row, col + 1),
    ];
    out.sort_unstable();
    out
}

/// The storm lattice: every node with `row ≡ col ≡ 1 (mod 4)` of a
/// `side × side` torus (`side` a multiple of 4), in seeded order. Any
/// two are at least four hops apart, so the borders of the singleton
/// cliffs are disjoint and no border node touches two cliffs: each of
/// the `4 · (side/4)²` border nodes decides exactly its own cliff, on
/// every thread schedule.
pub fn storm_lattice(side: usize, seed: u64) -> Vec<u32> {
    assert!(
        side >= 8 && side.is_multiple_of(4),
        "lattice needs a side that is a multiple of 4"
    );
    let mut nodes: Vec<u32> = (1..side)
        .step_by(4)
        .flat_map(|row| (1..side).step_by(4).map(move |col| (row, col)))
        .map(|(row, col)| torus_node(side, row, col))
        .collect();
    SplitMix::new(seed, 0x5707).shuffle(&mut nodes);
    nodes
}

/// The simulator's conditions of measurement: uniform 0.2–2 ms message
/// delay, uniform 1–5 ms failure-detector delay, a livelock cap far
/// above any run here.
pub fn sim_config(seed: u64, record_trace: bool) -> SimConfig {
    SimConfig {
        seed,
        latency: LatencyModel::Uniform {
            min: SimTime::from_micros(200),
            max: SimTime::from_millis(2),
        },
        fd_latency: LatencyModel::Uniform {
            min: SimTime::from_millis(1),
            max: SimTime::from_millis(5),
        },
        record_trace,
        max_events: Some(200_000_000),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use precipice_graph::{torus, GridDims, NodeId};

    /// Hop distance between two nodes of a `side × side` torus.
    fn torus_distance(side: usize, a: u32, b: u32) -> usize {
        let axis = |x: usize, y: usize| {
            let d = x.abs_diff(y);
            d.min(side - d)
        };
        let (a, b) = (a as usize, b as usize);
        axis(a / side, b / side) + axis(a % side, b % side)
    }

    #[test]
    fn lattice_points_are_four_apart_and_complete() {
        for side in [8, 16, 64] {
            let lattice = storm_lattice(side, 3);
            assert_eq!(lattice.len(), (side / 4) * (side / 4));
            for (i, &a) in lattice.iter().enumerate() {
                for &b in &lattice[i + 1..] {
                    assert!(
                        torus_distance(side, a, b) >= 4,
                        "{a} and {b} on side {side}"
                    );
                }
            }
            // Disjoint borders, and no border node adjacent to a
            // second cliff.
            let mut border: Vec<u32> = lattice
                .iter()
                .flat_map(|&q| torus_neighbours(side, q))
                .collect();
            border.sort_unstable();
            border.dedup();
            assert_eq!(border.len(), 4 * lattice.len());
            for &b in &border {
                let touching = torus_neighbours(side, b)
                    .iter()
                    .filter(|n| lattice.contains(n))
                    .count();
                assert_eq!(touching, 1);
            }
        }
    }

    #[test]
    fn lattice_order_follows_the_seed() {
        let a = storm_lattice(64, 1);
        assert_eq!(a, storm_lattice(64, 1));
        assert_ne!(a, storm_lattice(64, 2));
        let mut sorted_a = a.clone();
        let mut sorted_b = storm_lattice(64, 2);
        sorted_a.sort_unstable();
        sorted_b.sort_unstable();
        assert_eq!(sorted_a, sorted_b, "the seed permutes, never selects");
    }

    #[test]
    fn arithmetic_neighbours_match_the_generator() {
        let side = 8;
        let g = torus(GridDims::square(side));
        for node in 0..(side * side) as u32 {
            let ours: Vec<NodeId> = torus_neighbours(side, node).map(NodeId).to_vec();
            assert_eq!(g.neighbors(NodeId(node)), ours.as_slice());
        }
    }

    #[test]
    fn below_stays_in_range_and_streams_differ() {
        let mut a = SplitMix::new(1, 0);
        let mut b = SplitMix::new(1, 1);
        assert_ne!(a.next(), b.next());
        assert!((0..1000).all(|_| a.below(7) < 7));
    }
}
