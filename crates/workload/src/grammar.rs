//! The region and timing spec grammars. With
//! [`TopologySpec`](precipice_graph::TopologySpec) they name a
//! scenario's three axes wherever one is asked for: the CLI's flags,
//! counterexample artifacts and the experiment tables.

use std::fmt;
use std::str::FromStr;

use precipice_graph::{Graph, NodeId, Region};
use precipice_sim::SimTime;

use crate::patterns::{bfs_ball, blob_of_size, line_region, schedule, CrashTiming};

/// A crashed-region spec, carved around a centre node:
///
/// | spec | region | sizes |
/// |------|--------|-------|
/// | `blob:<k>` | a connected blob of `k` nodes grown breadth-first ([`blob_of_size`]) | k ≥ 1 |
/// | `line:<k>` | a greedy path of up to `k` nodes ([`line_region`]) | k ≥ 1 |
/// | `ball:<r>` | every node within `r` hops ([`bfs_ball`]) | r ≥ 0 |
/// | `nodes:<id,…>` | exactly these nodes | one id or more |
///
/// [`FromStr`] refuses every spec outside the table, naming it, and
/// [`Display`](fmt::Display) prints the canonical form (ids sorted and
/// deduplicated), which parses back to the same spec.
///
/// ```
/// use precipice_graph::{torus, GridDims};
/// use precipice_workload::RegionSpec;
///
/// let spec: RegionSpec = "nodes:5,1,5".parse().unwrap();
/// assert_eq!(spec.to_string(), "nodes:1,5");
/// let blob: RegionSpec = "blob:5".parse().unwrap();
/// assert_eq!(blob.carve(&torus(GridDims::square(6)), None).unwrap().len(), 5);
/// assert!("blob:0".parse::<RegionSpec>().is_err());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegionSpec {
    /// `blob:<k>`.
    Blob(usize),
    /// `line:<k>`.
    Line(usize),
    /// `ball:<r>`.
    Ball(usize),
    /// `nodes:<id,…>`.
    Nodes(Region),
}

impl RegionSpec {
    /// Carves the region on `graph` around `at`, or around the middle
    /// node id when `at` is `None`.
    ///
    /// # Errors
    ///
    /// A hand-built spec outside the grammar, or a centre or listed node
    /// that is not in `graph`.
    pub fn carve(&self, graph: &Graph, at: Option<NodeId>) -> Result<Region, String> {
        self.validate()?;
        let n = graph.len();
        let centre = at.unwrap_or(NodeId((n / 2) as u32));
        let absent = |p: NodeId| format!("region \"{self}\": node {p} is not in the graph (n={n})");
        if !graph.contains(centre) {
            return Err(absent(centre));
        }
        Ok(match self {
            Self::Blob(k) => blob_of_size(graph, centre, *k),
            Self::Line(k) => line_region(graph, centre, *k),
            Self::Ball(r) => bfs_ball(graph, centre, *r),
            Self::Nodes(region) => match region.iter().find(|&p| !graph.contains(p)) {
                Some(p) => return Err(absent(p)),
                None => region.clone(),
            },
        })
    }

    fn validate(&self) -> Result<(), String> {
        match self {
            Self::Blob(0) | Self::Line(0) => {
                Err(format!("region \"{self}\": the size must be positive"))
            }
            Self::Nodes(region) if region.is_empty() => Err(format!("region \"{self}\" is empty")),
            _ => Ok(()),
        }
    }
}

impl FromStr for RegionSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let bad =
            |arg: &str, e: &dyn fmt::Display| format!("region {s:?}: bad number {arg:?}: {e}");
        let size = |arg: &str| arg.parse::<usize>().map_err(|e| bad(arg, &e));
        let spec = match s.split_once(':') {
            Some(("blob", k)) => Self::Blob(size(k)?),
            Some(("line", k)) => Self::Line(size(k)?),
            Some(("ball", r)) => Self::Ball(size(r)?),
            Some(("nodes", ids)) => Self::Nodes(
                ids.split(',')
                    .map(|id| id.parse().map(NodeId).map_err(|e| bad(id, &e)))
                    .collect::<Result<_, _>>()?,
            ),
            _ => return Err(format!("unknown region spec {s:?}")),
        };
        spec.validate()?;
        Ok(spec)
    }
}

impl fmt::Display for RegionSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Blob(k) => write!(f, "blob:{k}"),
            Self::Line(k) => write!(f, "line:{k}"),
            Self::Ball(r) => write!(f, "ball:{r}"),
            Self::Nodes(region) => {
                let ids: Vec<String> = region.iter().map(|p| p.0.to_string()).collect();
                write!(f, "nodes:{}", ids.join(","))
            }
        }
    }
}

/// A crash-timing spec: when the nodes of a crashed region go down, in
/// the region's order, the first at [`START`](Self::START):
///
/// | spec | crash times |
/// |------|-------------|
/// | `simultaneous` | all at once |
/// | `cascade:<dur>` | one after another, `dur` apart (Fig. 1(b)'s growth racing the protocol) |
/// | `spread:<dur>` | uniform over a window `dur` long, drawn from the scenario's seed |
///
/// A duration is a whole number of `ns`, `us` (or `µs`), `ms` or `s`; a
/// bare number means ms. [`FromStr`] refuses a malformed duration or one
/// past `u64` nanoseconds, naming the spec; [`Display`](fmt::Display)
/// prints the largest unit that divides it (`4000us` prints as `4ms`).
///
/// ```
/// use precipice_graph::{NodeId, Region};
/// use precipice_sim::SimTime;
/// use precipice_workload::TimingSpec;
///
/// let spec: TimingSpec = "cascade:4000us".parse().unwrap();
/// assert_eq!(spec.to_string(), "cascade:4ms");
/// let region: Region = [NodeId(3), NodeId(4)].into_iter().collect();
/// assert_eq!(spec.crashes(&region, 0).unwrap()[1], (NodeId(4), SimTime::from_millis(5)));
/// assert!("cascade:99999999999s".parse::<TimingSpec>().is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimingSpec {
    /// `simultaneous`.
    Simultaneous,
    /// `cascade:<dur>`, the step between crashes.
    Cascade(SimTime),
    /// `spread:<dur>`, the window's length.
    Spread(SimTime),
}

/// The duration units, largest first, as `Display` picks them.
const UNITS: [(&str, u64); 4] = [
    ("s", 1_000_000_000),
    ("ms", 1_000_000),
    ("us", 1_000),
    ("ns", 1),
];

impl TimingSpec {
    /// When the first crash lands.
    pub const START: SimTime = SimTime::from_millis(1);

    /// The latest a crash may land: half the simulated clock's range
    /// (about 292 years), leaving the other half to the run after it.
    pub const HORIZON: SimTime = SimTime::from_nanos(u64::MAX / 2);

    /// The crash schedule of `region`; a spread draws from `seed`.
    ///
    /// # Errors
    ///
    /// The last crash lands past [`HORIZON`](Self::HORIZON).
    pub fn crashes(&self, region: &Region, seed: u64) -> Result<Vec<(NodeId, SimTime)>, String> {
        let (start, k) = (Self::START, region.len() as u64);
        let (span, timing) = match *self {
            Self::Simultaneous => (Some(0), CrashTiming::Simultaneous(start)),
            Self::Cascade(step) => (
                step.as_nanos().checked_mul(k.saturating_sub(1)),
                CrashTiming::Cascade { start, step },
            ),
            Self::Spread(window) => (
                Some(window.as_nanos()),
                CrashTiming::Spread {
                    start,
                    window,
                    seed,
                },
            ),
        };
        let last = span.and_then(|span| span.checked_add(start.as_nanos()));
        if last.is_none_or(|last| last > Self::HORIZON.as_nanos()) {
            return Err(format!(
                "timing \"{self}\": the last of {k} crashes lands past the simulated clock's \
                 horizon (about 292 years)"
            ));
        }
        Ok(schedule(region.iter(), timing))
    }
}

impl FromStr for TimingSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let duration = |d: &str| {
            let (digits, unit) =
                d.split_at(d.find(|c: char| !c.is_ascii_digit()).unwrap_or(d.len()));
            let unit = match unit {
                "" => "ms",
                "µs" => "us",
                unit => unit,
            };
            let bad = |why: String| format!("timing {s:?}: {why}");
            let (_, scale) = UNITS
                .iter()
                .find(|(name, _)| *name == unit)
                .ok_or_else(|| bad(format!("bad duration unit {unit:?}")))?;
            let n: u64 = digits
                .parse()
                .map_err(|e| bad(format!("bad duration {d:?}: {e}")))?;
            n.checked_mul(*scale)
                .map(SimTime::from_nanos)
                .ok_or_else(|| bad(format!("{d} overflows the simulated clock")))
        };
        match s.split_once(':') {
            None if s == "simultaneous" => Ok(Self::Simultaneous),
            Some(("cascade", d)) => Ok(Self::Cascade(duration(d)?)),
            Some(("spread", d)) => Ok(Self::Spread(duration(d)?)),
            _ => Err(format!("unknown timing spec {s:?}")),
        }
    }
}

impl fmt::Display for TimingSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (family, d) = match self {
            Self::Simultaneous => return f.write_str("simultaneous"),
            Self::Cascade(step) => ("cascade", step.as_nanos()),
            Self::Spread(window) => ("spread", window.as_nanos()),
        };
        let (unit, scale) = UNITS
            .iter()
            .find(|(_, scale)| d % scale == 0)
            .expect("ns divides all");
        write!(f, "{family}:{}{unit}", d / scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use precipice_graph::{rng, TopologySpec};

    #[test]
    fn grammar_table() {
        let g = "torus:6".parse::<TopologySpec>().unwrap().build(0).unwrap();
        // Every good region spec, its canonical form, its centre and the
        // size of what it carves there.
        for (input, canonical, at, size) in [
            ("blob:5", "blob:5", None, 5),
            ("blob:05", "blob:5", None, 5),
            // Clamped to the component.
            ("blob:99999", "blob:99999", None, 36),
            ("line:4", "line:4", Some(0), 4),
            ("ball:1", "ball:1", Some(7), 5),
            ("ball:0", "ball:0", None, 1),
            ("ball:99999999999", "ball:99999999999", None, 36),
            ("nodes:1,3,5", "nodes:1,3,5", None, 3),
            ("nodes:5,1,5", "nodes:1,5", Some(35), 2),
        ] {
            let spec: RegionSpec = input.parse().unwrap_or_else(|e| panic!("{input}: {e}"));
            assert_eq!(spec.to_string(), canonical);
            assert_eq!(canonical.parse(), Ok(spec.clone()));
            let region = spec.carve(&g, at.map(NodeId)).unwrap();
            assert_eq!(region.len(), size, "{input}");
        }
        let explicit: RegionSpec = "nodes:1,3,5".parse().unwrap();
        assert_eq!(
            explicit.carve(&g, None).unwrap().as_slice(),
            &[NodeId(1), NodeId(3), NodeId(5)]
        );
        // Every bad region spec and why: by the parse alone, or by the
        // carve for nodes the graph lacks.
        for (bad, why) in [
            ("blob:0", "positive"),
            ("line:0", "positive"),
            ("blob", "unknown region"),
            ("blob:x", "bad number"),
            ("blob:-1", "bad number"),
            ("ball:1:2", "bad number"),
            ("nodes:", "bad number"),
            ("nodes:1,,2", "bad number"),
            ("nodes:4294967296", "bad number"),
            ("ring:3", "unknown region"),
        ] {
            let err = bad.parse::<RegionSpec>().expect_err(bad);
            assert!(err.contains(why) && err.contains(bad), "{bad}: {err}");
        }
        for (spec, at) in [
            ("nodes:999", None),
            ("blob:3", Some(999)),
            ("nodes:1", Some(36)),
        ] {
            let err = spec
                .parse::<RegionSpec>()
                .unwrap()
                .carve(&g, at.map(NodeId));
            assert!(err.expect_err(spec).contains("not in the graph"), "{spec}");
        }
        assert!(RegionSpec::Blob(0).carve(&g, None).is_err(), "hand-built");

        // Every good timing spec, its canonical form and the crash times
        // it gives three nodes, in whole µs.
        let three: Region = [NodeId(1), NodeId(2), NodeId(3)].into_iter().collect();
        for (input, canonical, times) in [
            ("simultaneous", "simultaneous", [1000, 1000, 1000]),
            ("cascade:2ms", "cascade:2ms", [1000, 3000, 5000]),
            ("cascade:250us", "cascade:250us", [1000, 1250, 1500]),
            ("cascade:250µs", "cascade:250us", [1000, 1250, 1500]),
            ("cascade:4000us", "cascade:4ms", [1000, 5000, 9000]),
            ("cascade:7", "cascade:7ms", [1000, 8000, 15000]),
            ("cascade:1s", "cascade:1s", [1000, 1_001_000, 2_001_000]),
            ("cascade:1000ms", "cascade:1s", [1000, 1_001_000, 2_001_000]),
            ("cascade:0ms", "cascade:0s", [1000, 1000, 1000]),
            ("cascade:3000ns", "cascade:3us", [1000, 1003, 1006]),
            ("cascade:1500ns", "cascade:1500ns", [1000, 1001, 1003]),
            ("spread:0ms", "spread:0s", [1000, 1000, 1000]),
        ] {
            let spec: TimingSpec = input.parse().unwrap_or_else(|e| panic!("{input}: {e}"));
            assert_eq!(spec.to_string(), canonical);
            assert_eq!(canonical.parse(), Ok(spec));
            let crashes = spec.crashes(&three, 0).unwrap();
            let got: Vec<u64> = crashes.iter().map(|c| c.1.as_nanos() / 1000).collect();
            assert_eq!(got, times, "{input}");
        }
        // A spread stays in its window and is a function of the seed.
        let spread: TimingSpec = "spread:50ms".parse().unwrap();
        let drawn = spread.crashes(&three, 3).unwrap();
        assert_eq!(drawn, spread.crashes(&three, 3).unwrap());
        assert!(drawn
            .iter()
            .all(|c| (1.0..=51.0).contains(&c.1.as_millis_f64())));
        // Every bad timing spec and why.
        for (bad, why) in [
            ("sometimes", "unknown timing"),
            ("simultaneous:1ms", "unknown timing"),
            ("cascade", "unknown timing"),
            ("cascade:4lightyears", "unit"),
            ("cascade:ms", "bad duration"),
            ("cascade:-1ms", "bad duration"),
            ("cascade:1.5ms", "unit"),
            ("spread:99999999999999999999", "bad duration"),
            // Once a panic (cascade) or a silent wrap (spread).
            ("cascade:99999999999s", "overflows"),
            ("spread:99999999999s", "overflows"),
        ] {
            let err = bad.parse::<TimingSpec>().expect_err(bad);
            assert!(err.contains(why) && err.contains(bad), "{bad}: {err}");
        }
        // A timing whose last crash lands past the horizon is refused
        // when the crashes are scheduled, and only then: the region's
        // size decides.
        let long: TimingSpec = "cascade:6000000000s".parse().unwrap();
        let one: Region = [NodeId(1)].into_iter().collect();
        assert!(long.crashes(&one, 0).is_ok());
        let err = long.crashes(&three, 0).unwrap_err();
        assert!(
            err.contains("cascade:6000000000s") && err.contains("horizon"),
            "{err}"
        );
        let wide = TimingSpec::Spread(TimingSpec::HORIZON);
        assert!(wide.crashes(&one, 0).unwrap_err().contains("horizon"));
    }

    #[test]
    fn parse_never_panics_and_every_ok_round_trips() {
        const HEADS: [&str; 8] = [
            "blob:",
            "line:",
            "ball:",
            "nodes:",
            "cascade:",
            "spread:",
            "simultaneous",
            "",
        ];
        const NUMBERS: [&str; 7] = [
            "0",
            "1",
            "7",
            "36",
            "4294967296",
            "99999999999",
            "18446744073709551616",
        ];
        const TOKENS: [&str; 11] = [",", ":", "-", ".", "ns", "us", "µs", "ms", "s", "x", "blob"];
        let g = "torus:6".parse::<TopologySpec>().unwrap().build(0).unwrap();
        let (mut regions, mut timings) = (0, 0);
        rng::cases("scenario_spec_fuzz", 20_000, |rng| {
            let mut s = rng.choose(&HEADS).unwrap().to_string();
            for _ in 0..rng.gen_range(0..=4usize) {
                let pool: &[&str] = if rng.gen_bool(0.6) { &NUMBERS } else { &TOKENS };
                s.push_str(rng.choose(pool).unwrap());
            }
            if let Ok(spec) = s.parse::<RegionSpec>() {
                regions += 1;
                let shown = spec.to_string();
                assert_eq!(shown.parse(), Ok(spec.clone()), "{s:?} shows as {shown:?}");
                let _ = spec.carve(&g, None);
            }
            if let Ok(spec) = s.parse::<TimingSpec>() {
                timings += 1;
                let shown = spec.to_string();
                assert_eq!(shown.parse(), Ok(spec), "{s:?} shows as {shown:?}");
                let _ = spec.crashes(&g.nodes().collect(), 1);
            }
        });
        assert!(
            regions > 1_000 && timings > 1_000,
            "{regions} regions, {timings} timings"
        );
    }
}
