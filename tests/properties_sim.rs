//! The central correctness suite: the paper's Theorems 1–4 as executable
//! properties.
//!
//! Random topologies × random correlated-failure patterns × random crash
//! timing (including crashes landing mid-protocol) × jittery latencies ×
//! every protocol configuration — after quiescence, every run must
//! satisfy CD1–CD7 exactly as specified in §2.3 of the paper
//! ([`check_spec`] returns no violations).

use std::collections::BTreeSet;

use precipice::consensus::ProtocolConfig;
use precipice::graph::rng::{cases, Rng};
use precipice::graph::{
    erdos_renyi_connected, random_geometric_connected, random_tree, ring, torus, Graph, GridDims,
    NodeId,
};
use precipice::runtime::{check_spec, Exec, MulticastMode, Scenario};
use precipice::sim::{LatencyModel, SimConfig, SimTime};

/// A reproducible scenario recipe; everything derives from these knobs.
#[derive(Debug, Clone)]
struct Recipe {
    topology: TopologyKind,
    n: usize,
    /// Seeds for graph generation and the simulator schedule.
    seed: u64,
    /// Number of crash "balls" (correlated regions).
    regions: usize,
    /// Radius (in BFS hops) of each crashed ball.
    radius: usize,
    /// Spread of crash times: 0 = simultaneous, otherwise crashes land
    /// uniformly across this many milliseconds (racing the protocol).
    spread_ms: u64,
    config: ProtocolConfig,
    /// Atomic multicasts, or the paper's crash-interruptible loop
    /// (partial multicasts under cascading crashes).
    multicast: MulticastMode,
}

#[derive(Debug, Clone, Copy)]
enum TopologyKind {
    Ring,
    Torus,
    Geometric,
    ErdosRenyi,
    TreePlus,
}

fn build_graph(recipe: &Recipe) -> Graph {
    match recipe.topology {
        TopologyKind::Ring => ring(recipe.n.max(3)),
        TopologyKind::Torus => {
            let side = (recipe.n as f64).sqrt().ceil().max(3.0) as usize;
            torus(GridDims::square(side))
        }
        TopologyKind::Geometric => {
            random_geometric_connected(recipe.n.max(8), 0.35, recipe.seed).expect("connected")
        }
        TopologyKind::ErdosRenyi => {
            erdos_renyi_connected(recipe.n.max(8), 0.25, recipe.seed).expect("connected")
        }
        TopologyKind::TreePlus => {
            // A tree plus a few chords: sparse, high-diameter.
            let tree = random_tree(recipe.n.max(4), recipe.seed);
            let n = tree.len() as u64;
            let mut edges: Vec<(u32, u32)> = tree.edges().map(|(u, v)| (u.0, v.0)).collect();
            let mut rng = Rng::seed_from_u64(recipe.seed ^ 0x9E37_79B9_7F4A_7C15);
            for _ in 0..(recipe.n / 4) {
                edges.push((rng.gen_range(0..n) as u32, rng.gen_range(0..n) as u32));
            }
            Graph::from_edges(tree.len(), edges)
        }
    }
}

/// Picks `regions` BFS balls of radius `radius` as the crash set, leaving
/// at least a third of the system alive.
fn pick_crash_set(graph: &Graph, recipe: &Recipe) -> BTreeSet<NodeId> {
    let n = graph.len();
    let mut crashed = BTreeSet::new();
    let mut rng = Rng::seed_from_u64(recipe.seed ^ 0x5851_F42D_4C95_7F2D);
    for _ in 0..recipe.regions {
        let seed_node = NodeId(rng.gen_range(0..n) as u32);
        let mut ball = vec![seed_node];
        let mut frontier = vec![seed_node];
        for _ in 0..recipe.radius {
            let mut next = Vec::new();
            for &p in &frontier {
                for &q in graph.neighbors(p) {
                    if !ball.contains(&q) {
                        ball.push(q);
                        next.push(q);
                    }
                }
            }
            frontier = next;
        }
        for p in ball {
            if crashed.len() < (2 * n) / 3 {
                crashed.insert(p);
            }
        }
    }
    // Never crash everyone: guarantee at least one correct node per
    // domain border by capping at 2n/3 above.
    crashed
}

fn run_recipe(recipe: &Recipe) -> (usize, Vec<String>) {
    let graph = build_graph(recipe);
    let crashed = pick_crash_set(&graph, recipe);
    let mut builder = Scenario::builder(graph)
        .name(format!("{recipe:?}"))
        .seed(recipe.seed)
        .protocol(recipe.config)
        .multicast(recipe.multicast)
        .sim_config(SimConfig {
            seed: recipe.seed,
            latency: LatencyModel::Uniform {
                min: SimTime::from_micros(100),
                max: SimTime::from_millis(12),
            },
            fd_latency: LatencyModel::Uniform {
                min: SimTime::from_millis(1),
                max: SimTime::from_millis(25),
            },
            record_trace: true,
            max_events: Some(20_000_000),
        });
    let mut rng = Rng::seed_from_u64(recipe.seed ^ 0xABCD_EF01_2345_6789);
    for &node in &crashed {
        let at = if recipe.spread_ms == 0 {
            SimTime::from_millis(1)
        } else {
            SimTime::from_micros(1 + rng.gen_range(0..recipe.spread_ms * 1000))
        };
        builder = builder.crash(node, at);
    }
    let report = builder.build().exec(Exec::new()).report;
    let violations = check_spec(&report);
    (
        report.decisions.len(),
        violations.iter().map(|v| v.to_string()).collect(),
    )
}

fn arb_config(rng: &mut Rng) -> ProtocolConfig {
    let early = rng.next_u64() & 1 == 1;
    let fast = rng.next_u64() & 1 == 1;
    ProtocolConfig::faithful()
        .with_early_termination(early)
        .with_fast_abort(fast)
}

fn arb_topology(rng: &mut Rng) -> TopologyKind {
    *rng.choose(&[
        TopologyKind::Ring,
        TopologyKind::Torus,
        TopologyKind::Geometric,
        TopologyKind::ErdosRenyi,
        TopologyKind::TreePlus,
    ])
    .unwrap()
}

/// The flagship property: an arbitrary correlated-failure scenario
/// satisfies the complete CD1–CD7 specification at quiescence.
#[test]
fn spec_holds_on_random_scenarios() {
    cases("spec_holds_on_random_scenarios", 48, |rng| {
        let recipe = Recipe {
            topology: arb_topology(rng),
            n: rng.gen_range(9..40),
            seed: rng.next_u64(),
            regions: rng.gen_range(1..4),
            radius: rng.gen_range(0..3),
            spread_ms: [0, 5, 60][rng.gen_range(0..3usize)],
            config: arb_config(rng),
            multicast: [MulticastMode::Atomic, MulticastMode::Sequential][rng.gen_range(0..2usize)],
        };
        let (_, violations) = run_recipe(&recipe);
        assert!(
            violations.is_empty(),
            "violations: {violations:#?} for {recipe:?}"
        );
    });
}

/// Simultaneous mass failure of a large ball — the hardest locality
/// shape — still satisfies the spec, and someone decides.
#[test]
fn big_ball_failures_decide() {
    cases("big_ball_failures_decide", 48, |rng| {
        let recipe = Recipe {
            topology: TopologyKind::Torus,
            n: 49,
            seed: rng.next_u64(),
            regions: 1,
            radius: 2,
            spread_ms: 0,
            config: arb_config(rng),
            multicast: MulticastMode::Atomic,
        };
        let (decisions, violations) = run_recipe(&recipe);
        assert!(violations.is_empty(), "violations: {violations:#?}");
        assert!(decisions > 0, "nobody decided on a torus ball failure");
    });
}

/// Crashes drizzling in over a long window (every crash races the
/// ongoing agreement) keep all properties intact.
#[test]
fn slow_cascade_converges() {
    cases("slow_cascade_converges", 48, |rng| {
        let recipe = Recipe {
            seed: rng.next_u64(),
            topology: arb_topology(rng),
            config: arb_config(rng),
            n: 25,
            regions: 2,
            radius: 1,
            spread_ms: 250,
            multicast: MulticastMode::Atomic,
        };
        let (_, violations) = run_recipe(&recipe);
        assert!(violations.is_empty(), "violations: {violations:#?}");
    });
}

/// The paper's multicast is a *plain loop* a crash can interrupt:
/// cascading crashes now leave partial multicasts behind, the exact
/// adversary of Lemma 3's cascading-crashes argument. The spec must
/// still hold.
#[test]
fn spec_holds_under_partial_multicasts() {
    cases("spec_holds_under_partial_multicasts", 48, |rng| {
        let recipe = Recipe {
            seed: rng.next_u64(),
            topology: arb_topology(rng),
            config: arb_config(rng),
            spread_ms: [3, 30][rng.gen_range(0..2usize)],
            n: 25,
            regions: 2,
            radius: 1,
            multicast: MulticastMode::Sequential,
        };
        let (_, violations) = run_recipe(&recipe);
        assert!(
            violations.is_empty(),
            "violations: {violations:#?} for {recipe:?}"
        );
    });
}

/// Deterministic regression corpus: one fixed recipe per topology kind,
/// checked exhaustively.
#[test]
fn fixed_corpus_satisfies_spec() {
    let kinds = [
        TopologyKind::Ring,
        TopologyKind::Torus,
        TopologyKind::Geometric,
        TopologyKind::ErdosRenyi,
        TopologyKind::TreePlus,
    ];
    for (i, &topology) in kinds.iter().enumerate() {
        for spread_ms in [0u64, 40] {
            for config in [ProtocolConfig::faithful(), ProtocolConfig::optimized()] {
                for multicast in [MulticastMode::Atomic, MulticastMode::Sequential] {
                    let recipe = Recipe {
                        topology,
                        n: 24,
                        seed: 1000 + i as u64,
                        regions: 2,
                        radius: 1,
                        spread_ms,
                        config,
                        multicast,
                    };
                    let (decisions, violations) = run_recipe(&recipe);
                    assert!(violations.is_empty(), "{recipe:?}: {violations:#?}");
                    assert!(decisions > 0, "{recipe:?}: nobody decided");
                }
            }
        }
    }
}
