//! Test coverage for the §5 predicate-region extension
//! (`runtime/src/predicate.rs`), mirroring `tests/properties_sim.rs`:
//! random afflicted-region scenarios must satisfy CD1–CD7 under
//! [`check_spec`] — both on the plain latency-ordered run and under at
//! least one adversarially explored (`Random`) schedule, since the
//! crashed-region ⇄ condition-region isomorphism must hold for *every*
//! delivery order, not just the one the latency sample happens to pick.

use precipice_graph::rng::cases;
use precipice_graph::{ring, torus, GridDims, NodeId};
use precipice_runtime::explore::probe;
use precipice_runtime::{check_spec, PredicateScenario};
use precipice_sim::{SchedulePolicy, SimTime};

#[derive(Debug, Clone, Copy)]
enum Topo {
    Torus,
    Ring,
}

/// An afflicted ball: `count` adjacent nodes start satisfying the
/// stable predicate, `gap_ms` apart (0 = simultaneously).
fn build(
    topo: Topo,
    n: usize,
    start: u32,
    count: usize,
    gap_ms: u64,
    seed: u64,
) -> PredicateScenario {
    let graph = match topo {
        Topo::Torus => {
            let side = (n as f64).sqrt().ceil().max(3.0) as usize;
            torus(GridDims::square(side))
        }
        Topo::Ring => ring(n.max(4)),
    };
    let total = graph.len() as u32;
    let mut builder = PredicateScenario::builder(graph.clone());
    // Spread the affliction along a BFS walk from the start node so the
    // zone is connected (adjacent affliction, like an infection).
    let mut zone = vec![NodeId(start % total)];
    let mut cursor = 0;
    while zone.len() < count && cursor < zone.len() {
        let here = zone[cursor];
        for &q in graph.neighbors(here) {
            if zone.len() < count && !zone.contains(&q) {
                zone.push(q);
            }
        }
        cursor += 1;
    }
    for (i, &node) in zone.iter().enumerate() {
        let at = SimTime::from_millis(1 + gap_ms * i as u64);
        builder = builder.afflict(node, at);
    }
    builder.seed(seed).build()
}

/// Afflicted-region scenarios satisfy the full specification on the
/// latency-ordered run AND under an adversarially explored random
/// schedule derived from the same seed.
#[test]
fn predicate_regions_satisfy_spec_under_exploration() {
    cases(
        "predicate_regions_satisfy_spec_under_exploration",
        24,
        |rng| {
            let topo = [Topo::Torus, Topo::Ring][rng.gen_range(0..2usize)];
            let n = rng.gen_range(9..36);
            let start = rng.next_u64() as u32;
            let count = rng.gen_range(1..5);
            let gap_ms = [0, 4, 40][rng.gen_range(0..3usize)];
            let seed = rng.next_u64();
            let scenario = build(topo, n, start, count, gap_ms, seed);

            // Plain run: the isomorphism carries CD1–CD7 over verbatim.
            let report = scenario.run();
            let violations = check_spec(&report);
            assert!(violations.is_empty(), "plain run: {violations:?}");
            assert!(!report.decisions.is_empty(), "someone agreed on the zone");

            // Explored run: same scenario, adversarial delivery/affliction
            // order. Must stay clean and must replay bit-for-bit.
            let explored = probe(
                scenario.as_scenario(),
                SchedulePolicy::Random(seed ^ 0xa11e),
            );
            assert!(
                explored.violations.is_empty(),
                "explored schedule: {:?} (schedule {})",
                explored.violations,
                explored.schedule
            );
            let replayed = probe(
                scenario.as_scenario(),
                SchedulePolicy::Replay(explored.schedule.clone()),
            );
            assert_eq!(replayed.report.trace_hash, explored.report.trace_hash);
        },
    );
}

/// Deterministic smoke corpus: one fixed case
/// per topology × timing, explored under both fuzzing policies.
#[test]
fn fixed_predicate_corpus_is_clean_under_both_policies() {
    for (topo, gap) in [(Topo::Torus, 0), (Topo::Torus, 5), (Topo::Ring, 3)] {
        let scenario = build(topo, 25, 7, 3, gap, 1000 + gap);
        assert!(check_spec(&scenario.run()).is_empty());
        for policy in [SchedulePolicy::Random(9), SchedulePolicy::Pcr(9)] {
            let p = probe(scenario.as_scenario(), policy.clone());
            assert!(
                p.violations.is_empty(),
                "{topo:?}/gap{gap} under {policy:?}: {:?}",
                p.violations
            );
        }
    }
}
