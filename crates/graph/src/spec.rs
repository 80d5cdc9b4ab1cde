//! The topology spec grammar: one string names one graph, wherever a
//! graph is asked for.

use std::fmt;
use std::path::{Path, PathBuf};
use std::str::FromStr;

use crate::generators::{grid_row, path_row, ring_row};
use crate::{
    erdos_renyi_connected, grid, path, random_geometric_connected, random_tree, ring, star,
    stream_torus, torus, Graph, GraphStore, GridDims, NodeId, StoreError, StoreSummary,
};

/// A topology spec, the one grammar in which `--topology`, `graph
/// build`, counterexample artifacts and serve's `open` name a graph:
///
/// | spec | graph | sizes | [`write_pcsr`](Self::write_pcsr) |
/// |------|-------|-------|-------------|
/// | `torus:<side>` | `side × side` torus | side ≥ 3 | streams |
/// | `grid:<w>x<h>`, `grid:<side>` | `w × h` mesh | w, h ≥ 1 | streams |
/// | `ring:<n>` | `n`-cycle | n ≥ 3 | streams |
/// | `path:<n>` | `n`-path | n ≥ 1 | streams |
/// | `star:<n>` | hub `0` and `n − 1` leaves | n ≥ 2 | materializes |
/// | `geometric:<n>:<radius>` | connected random geometric graph, radius > 0 | n ≥ 1 | materializes |
/// | `er:<n>:<p>` | connected Erdős–Rényi `G(n, p)`, p ∈ [0, 1] | n ≥ 1 | materializes |
/// | `tree:<n>` | uniform random tree | n ≥ 1 | materializes |
/// | `pcsr:<file>` | a mapped [`.pcsr` file](crate::GraphStore) | | materializes |
///
/// No graph may have more than `u32::MAX` nodes, the node id space, and
/// no torus, grid, ring, path, star or tree more than `u32::MAX`
/// adjacency entries (two per edge), the most a CSR offset can index
/// (`torus:32768`, `ring:3000000000`). [`FromStr`] checks all of the
/// table, so building a parsed spec never trips a generator's
/// assertion. A spec inside both limits can still need more memory
/// than the host has (`torus:32767` asks for about 20 GB), and then the
/// build aborts on the failed allocation as any other would.
/// [`Display`](fmt::Display) prints the canonical form (`grid:<side>`
/// prints as `grid:<side>x<side>`), which parses back to the same spec.
///
/// ```
/// use precipice_graph::TopologySpec;
///
/// let spec: TopologySpec = "grid:3".parse().unwrap();
/// assert_eq!(spec.to_string(), "grid:3x3");
/// assert_eq!(spec.to_string().parse(), Ok(spec.clone()));
/// assert_eq!(spec.build(0).unwrap().len(), 9);
/// assert!("torus:65536".parse::<TopologySpec>().is_err());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum TopologySpec {
    /// `torus:<side>`.
    Torus(usize),
    /// `grid:<w>x<h>` or `grid:<side>`.
    Grid(GridDims),
    /// `ring:<n>`.
    Ring(usize),
    /// `path:<n>`.
    Path(usize),
    /// `star:<n>`.
    Star(usize),
    /// `geometric:<n>:<radius>`: node count, connection radius in the
    /// unit square.
    Geometric(usize, f64),
    /// `er:<n>:<p>`: node count, edge probability.
    Er(usize, f64),
    /// `tree:<n>`.
    Tree(usize),
    /// `pcsr:<file>`, matched before the colon split: paths may contain
    /// colons.
    Pcsr(PathBuf),
}

impl TopologySpec {
    /// Builds the graph; the random families draw from `seed`.
    ///
    /// # Errors
    ///
    /// A hand-built spec outside the grammar's bounds, a random family
    /// with no connected sample in 64 attempts (the message names the
    /// spec), or a `.pcsr` file that does not open.
    pub fn build(&self, seed: u64) -> Result<Graph, String> {
        self.validate()?;
        let sampled = |g: Result<Graph, String>| g.map_err(|e| format!("topology \"{self}\": {e}"));
        Ok(match *self {
            Self::Torus(side) => torus(GridDims::square(side)),
            Self::Grid(dims) => grid(dims),
            Self::Ring(n) => ring(n),
            Self::Path(n) => path(n),
            Self::Star(n) => star(n),
            Self::Geometric(n, radius) => sampled(random_geometric_connected(n, radius, seed))?,
            Self::Er(n, p) => sampled(erdos_renyi_connected(n, p, seed))?,
            Self::Tree(n) => random_tree(n, seed),
            Self::Pcsr(ref file) => {
                Graph::open_pcsr(file).map_err(|e| format!("cannot open {file:?}: {e}"))?
            }
        })
    }

    /// Writes the graph to `out` as a `.pcsr` file and returns the write
    /// summary and whether it streamed. Torus, grid, ring and path stream
    /// through their row functions without building the graph, so they
    /// reach sizes far beyond a resident build; every other family is
    /// built with `seed` and written.
    ///
    /// # Errors
    ///
    /// Whatever [`build`](Self::build) reports, or a failed write.
    pub fn write_pcsr(
        &self,
        out: impl AsRef<Path>,
        seed: u64,
    ) -> Result<(StoreSummary, bool), String> {
        self.validate()?;
        let out = out.as_ref();
        let cannot = |e: StoreError| format!("cannot write {out:?}: {e}");
        let streamed = match *self {
            Self::Torus(side) => stream_torus(GridDims::square(side), out),
            Self::Grid(d) => GraphStore::write_rows(out, d.len(), |p, r| grid_row(d, p, r)),
            Self::Ring(n) => GraphStore::write_rows(out, n, |p, r| ring_row(n, p, r)),
            Self::Path(n) => GraphStore::write_rows(out, n, |p, r| path_row(n, p, r)),
            _ => return Ok((self.build(seed)?.write_pcsr(out).map_err(cannot)?, false)),
        };
        Ok((streamed.map_err(cannot)?, true))
    }

    /// The smaller specs a scenario shrinker tries, most aggressive
    /// first: the halved size (floored at the family minimum), then the
    /// decremented one. Only tori and rings shrink, since only their
    /// crashes [`remap`](Self::remap); every other family yields none.
    pub fn shrink(&self) -> Vec<TopologySpec> {
        let (size, at): (usize, fn(usize) -> TopologySpec) = match *self {
            Self::Torus(side) => (side, Self::Torus),
            Self::Ring(n) => (n, Self::Ring),
            _ => return Vec::new(),
        };
        let min = self.minimum();
        let mut ladder = vec![(size / 2).max(min), size.saturating_sub(1)];
        ladder.dedup();
        ladder.retain(|&s| s >= min && s < size);
        ladder.into_iter().map(at).collect()
    }

    /// Where node `id` of this graph lands on `to`, one of its
    /// [`shrink`](Self::shrink) steps: torus node `(r, c)` goes to
    /// `(r mod s', c mod s')`, ring node `id` to `id mod n'`.
    ///
    /// # Panics
    ///
    /// Panics unless `self` and `to` are both tori or both rings.
    pub fn remap(&self, to: &TopologySpec, id: NodeId) -> NodeId {
        let p = id.index();
        match (self, to) {
            (&Self::Torus(side), &Self::Torus(s)) => {
                NodeId::from_index((p / side % s) * s + p % side % s)
            }
            (Self::Ring(_), &Self::Ring(n)) => NodeId::from_index(p % n),
            _ => panic!("{self} does not shrink to {to}"),
        }
    }

    /// The smallest value each size of the family may take. A torus or
    /// ring below 3 would wrap into duplicate or self edges, and a star
    /// needs its hub and one leaf.
    fn minimum(&self) -> usize {
        match self {
            Self::Torus(_) | Self::Ring(_) => 3,
            Self::Star(_) => 2,
            _ => 1,
        }
    }

    /// Checks every size against the family [`minimum`](Self::minimum),
    /// the random families' parameters, the node count against the `u32`
    /// id space, and the adjacency entry count of the families whose
    /// edge count is closed form against the `u32` CSR offsets.
    fn validate(&self) -> Result<(), String> {
        let min = self.minimum();
        let sized = |size: usize| {
            let small =
                || format!("topology \"{self}\": size {size} is below the minimum of {min}");
            (size >= min).then_some(size).ok_or_else(small)
        };
        let nodes = match *self {
            Self::Torus(side) => sized(side)?.checked_mul(side),
            Self::Grid(dims) => sized(dims.width)?.checked_mul(sized(dims.height)?),
            Self::Ring(n) | Self::Path(n) | Self::Star(n) | Self::Tree(n) => Some(sized(n)?),
            Self::Geometric(_, radius) if radius.is_nan() || radius <= 0.0 => {
                return Err(format!("topology \"{self}\": the radius must be positive"));
            }
            Self::Er(_, p) if !(0.0..=1.0).contains(&p) => {
                return Err(format!("topology \"{self}\": p must be in [0, 1]"));
            }
            Self::Geometric(n, _) | Self::Er(n, _) => Some(sized(n)?),
            Self::Pcsr(_) => return Ok(()),
        };
        let nodes = match nodes {
            Some(n) if n <= u32::MAX as usize => n as u64,
            _ => {
                return Err(format!(
                    "topology \"{self}\" has more than {} nodes, the most a node id can name",
                    u32::MAX
                ))
            }
        };
        // Two entries per edge; no product below overflows, as `nodes`
        // fits in 32 bits.
        let entries = match *self {
            Self::Torus(_) => 4 * nodes,
            Self::Grid(dims) => {
                let (w, h) = (dims.width as u64, dims.height as u64);
                2 * (w * (h - 1) + (w - 1) * h)
            }
            Self::Ring(_) => 2 * nodes,
            Self::Path(_) | Self::Star(_) | Self::Tree(_) => 2 * (nodes - 1),
            _ => 0,
        };
        if entries > u64::from(u32::MAX) {
            return Err(format!(
                "topology \"{self}\" has {entries} adjacency entries, more than the {} \
                 a CSR offset can index",
                u32::MAX
            ));
        }
        Ok(())
    }
}

impl FromStr for TopologySpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        if let Some(file) = s.strip_prefix("pcsr:") {
            return Ok(Self::Pcsr(file.into()));
        }
        let (family, args) = s
            .split_once(':')
            .ok_or_else(|| format!("malformed topology spec {s:?}"))?;
        let bad =
            |arg: &str, e: &dyn fmt::Display| format!("topology {s:?}: bad number {arg:?}: {e}");
        let size = |arg: &str| arg.parse::<usize>().map_err(|e| bad(arg, &e));
        let real = |arg: &str| arg.parse::<f64>().map_err(|e| bad(arg, &e));
        let spec = match (family, args.split(':').collect::<Vec<_>>().as_slice()) {
            ("torus", [side]) => Self::Torus(size(side)?),
            ("grid", [dims]) => Self::Grid(match dims.split_once('x') {
                Some((w, h)) => GridDims {
                    width: size(w)?,
                    height: size(h)?,
                },
                None => GridDims::square(size(dims)?),
            }),
            ("ring", [n]) => Self::Ring(size(n)?),
            ("path", [n]) => Self::Path(size(n)?),
            ("star", [n]) => Self::Star(size(n)?),
            ("geometric", [n, radius]) => Self::Geometric(size(n)?, real(radius)?),
            ("er", [n, p]) => Self::Er(size(n)?, real(p)?),
            ("tree", [n]) => Self::Tree(size(n)?),
            _ => return Err(format!("unknown topology spec {s:?}")),
        };
        spec.validate()?;
        Ok(spec)
    }
}

impl fmt::Display for TopologySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Torus(side) => write!(f, "torus:{side}"),
            Self::Grid(dims) => write!(f, "grid:{}x{}", dims.width, dims.height),
            Self::Ring(n) => write!(f, "ring:{n}"),
            Self::Path(n) => write!(f, "path:{n}"),
            Self::Star(n) => write!(f, "star:{n}"),
            Self::Geometric(n, radius) => write!(f, "geometric:{n}:{radius}"),
            Self::Er(n, p) => write!(f, "er:{n}:{p}"),
            Self::Tree(n) => write!(f, "tree:{n}"),
            Self::Pcsr(file) => write!(f, "pcsr:{}", file.display()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng;

    #[test]
    fn grammar_table() {
        // Every good spec, its canonical form and its node count.
        for (input, canonical, nodes) in [
            ("torus:4", "torus:4", 16),
            ("grid:3x5", "grid:3x5", 15),
            // The square form, which serve always took and the CLI once
            // refused.
            ("grid:3", "grid:3x3", 9),
            ("grid:1", "grid:1x1", 1),
            ("ring:7", "ring:7", 7),
            ("path:7", "path:7", 7),
            ("star:7", "star:7", 7),
            ("tree:9", "tree:9", 9),
            ("geometric:30:0.4", "geometric:30:0.4", 30),
            ("er:30:0.3", "er:30:0.3", 30),
        ] {
            let spec: TopologySpec = input.parse().unwrap_or_else(|e| panic!("{input}: {e}"));
            assert_eq!(spec.to_string(), canonical);
            assert_eq!(canonical.parse(), Ok(spec.clone()));
            let g = spec.build(1).unwrap();
            assert_eq!(g.len(), nodes, "{input}");
            assert!(g.is_connected(), "{input}");
        }
        // Every bad spec is refused by the parse alone, with a message
        // that says why; the oversized ones would not fit a u32 node id.
        for (bad, why) in [
            ("moebius:4", "unknown topology"),
            ("torus", "malformed"),
            ("torus:3:4", "unknown topology"),
            ("torus:x", "bad number"),
            ("er:30:1.5", "p must be"),
            ("er:30:nan", "p must be"),
            ("geometric:30:0", "radius"),
            ("tree:0", "minimum"),
            ("torus:2", "minimum"),
            ("grid:0x3", "minimum"),
            ("grid:0", "minimum"),
            ("ring:2", "minimum"),
            ("star:1", "minimum"),
            ("path:0", "minimum"),
            ("torus:4294967296", "torus:4294967296"),
            ("torus:65536", "torus:65536"),
            ("grid:4294967296x4294967296", "grid:4294967296x4294967296"),
            // Inside the id space, but past the u32 CSR offsets: a build
            // died on its allocation or on the CSR offset assertion.
            ("torus:65535", "torus:65535"),
            ("torus:32768", "torus:32768"),
            ("ring:3000000000", "ring:3000000000"),
            ("grid:65536x65535", "adjacency entries"),
        ] {
            let err = bad.parse::<TopologySpec>().expect_err(bad);
            assert!(err.contains(why), "{bad}: {err}");
        }
        // A random family too sparse to sample connected fails its build,
        // naming the spec.
        let sparse: TopologySpec = "er:40:0.001".parse().unwrap();
        assert!(sparse.build(0).unwrap_err().contains("er:40:0.001"));
    }

    #[test]
    fn shrink_ladders_and_remaps() {
        let torus5 = TopologySpec::Torus(5);
        assert_eq!(
            torus5.shrink(),
            [TopologySpec::Torus(3), TopologySpec::Torus(4)]
        );
        assert_eq!(torus5.remap(&TopologySpec::Torus(3), NodeId(24)), NodeId(4));
        assert_eq!(
            TopologySpec::Ring(6).shrink(),
            [TopologySpec::Ring(3), TopologySpec::Ring(5)]
        );
        assert_eq!(TopologySpec::Ring(4).shrink(), [TopologySpec::Ring(3)]);
        assert!(TopologySpec::Ring(3).shrink().is_empty());
        assert_eq!(
            TopologySpec::Ring(9).remap(&TopologySpec::Ring(4), NodeId(7)),
            NodeId(3)
        );
        assert!(TopologySpec::Path(9).shrink().is_empty());
    }

    #[test]
    fn parse_never_panics_and_every_ok_round_trips() {
        const FAMILIES: [&str; 9] = [
            "torus",
            "grid",
            "ring",
            "path",
            "star",
            "geometric",
            "er",
            "tree",
            "pcsr",
        ];
        const TOKENS: [&str; 16] = [
            "0",
            "1",
            "2",
            "3",
            "7",
            "65536",
            "4294967296",
            ":",
            "x",
            ".",
            "-",
            "e",
            "nan",
            "inf",
            "torus",
            "er",
        ];
        let mut parsed = 0;
        rng::cases("topology_spec_fuzz", 20_000, |rng| {
            let mut s = String::new();
            if rng.gen_bool(0.9) {
                s.push_str(rng.choose(&FAMILIES).unwrap());
                s.push(':');
            }
            for _ in 0..rng.gen_range(0..=6usize) {
                s.push_str(rng.choose(&TOKENS).unwrap());
            }
            if let Ok(spec) = s.parse::<TopologySpec>() {
                parsed += 1;
                let shown = spec.to_string();
                assert_eq!(shown.parse(), Ok(spec), "{s:?} shows as {shown:?}");
                assert_eq!(shown.parse::<TopologySpec>().unwrap().to_string(), shown);
            }
        });
        assert!(parsed > 1_000, "the fuzz reached only {parsed} valid specs");
    }
}
