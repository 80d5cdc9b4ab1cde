//! Regression guard for the footprint-proportional execution contract:
//! a lazy (activation-gated) run's wall time must not scale with N when
//! the crashed region — and therefore the active footprint — is fixed.
//!
//! Before the lazy-run fix the per-run cost hid an O(N) term (per-run
//! allocation and scanning of full-size node tables), and the measured
//! 2¹⁰ → 2²⁰ per-run ratio was ~44×. No per-run O(N) term is left: the
//! simulator's slot tables are sized by the run's footprint, and a
//! border node's protocol state by its border, not by the magnitude of
//! the ids around it (`tests/alloc_budget.rs` pins the latter in
//! bytes). The bound here is deliberately loose (CI machines jitter,
//! debug builds shift constants) but far below the broken regime: a
//! reintroduced O(N) scan shows up as a 40×+ ratio and fails loudly.
//!
//! Beside the wall-time ratio sits the exact half of the same claim: the
//! run's cost is not merely flat across N, it is the same numbers.

use precipice_bench::{measure_cliff_edge, torus_of};
use precipice_core::ProtocolConfig;
use precipice_workload::RegionSpec;
use std::time::Instant;

/// Median-of-3 per-run wall time (seconds) for a fixed 8-node blob crash
/// on a torus of `n` nodes. The graph is built once outside the timed
/// region — this test is about per-run cost, not build cost.
fn lazy_run_seconds(n: usize) -> f64 {
    let graph = torus_of(n);
    let region = RegionSpec::Blob(8).carve(&graph, None).unwrap();
    let mut times: Vec<f64> = (0..3)
        .map(|seed| {
            let started = Instant::now();
            let (cost, _) =
                measure_cliff_edge(graph.clone(), &region, ProtocolConfig::default(), seed);
            assert!(cost.decisions > 0, "run at n={n} seed={seed} undecided");
            started.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    times[1]
}

#[test]
fn lazy_run_time_stays_flat_as_n_grows_1024x() {
    let small = lazy_run_seconds(1 << 10);
    let large = lazy_run_seconds(1 << 20);
    // Floor the denominator so a sub-millisecond small-N measurement
    // (release builds) doesn't turn scheduler noise into a huge ratio.
    let ratio = large / small.max(0.005);
    assert!(
        ratio < 15.0,
        "lazy per-run time scaled with N: {:.2} ms at 2^10 vs {:.2} ms at 2^20 \
         ({ratio:.1}x; was ~44x before the footprint-proportional fix)",
        small * 1000.0,
        large * 1000.0,
    );
}

/// The paper's headline as an equation: for a fixed crashed region the
/// agreement's cost — messages, bytes, nodes involved, deciders, rounds —
/// is identical on a 64-node and on a million-node torus.
#[test]
fn run_cost_is_identical_from_64_to_a_million_nodes() {
    let costs_at = |n: usize| {
        let graph = torus_of(n);
        let region = RegionSpec::Blob(8).carve(&graph, None).unwrap();
        [1, 2, 3].map(|seed| {
            let (c, _) =
                measure_cliff_edge(graph.clone(), &region, ProtocolConfig::default(), seed);
            assert!(c.decisions > 0, "run at n={n} seed={seed} undecided");
            (
                c.messages,
                c.bytes,
                c.active_nodes,
                c.decisions,
                c.max_round,
            )
        })
    };
    let smallest = costs_at(1 << 6);
    for exp in [10, 16, 20] {
        assert_eq!(costs_at(1 << exp), smallest, "cost moved at N = 2^{exp}");
    }
}
