//! Golden trace hashes for the paper's figure scenarios.
//!
//! The simulator is bit-deterministic: a sealed scenario must always
//! produce the same FNV-1a trace hash, on every platform and after every
//! refactor of the transport internals. These values were captured before
//! the `fifo_last` flat-table optimization and pin the schedule exactly —
//! if one of them moves, a perf change has altered observable behavior.

use std::sync::Arc;

use precipice_bench::{
    mapped_torus_of, measure_cliff_edge, pinned_figure_scenarios, torus_of, trace_hash_of,
};
use precipice_core::ProtocolConfig;
use precipice_graph::{torus, Graph, GridDims, NodeId, Region};
use precipice_runtime::{Exec, MulticastMode, Scenario};
use precipice_sim::{LatencyModel, SchedulePolicy, SimConfig, SimTime};
use precipice_workload::patterns::{blob_of_size, schedule, CrashTiming};
use precipice_workload::RegionSpec;

const GOLDEN: [(&str, u64); 5] = [
    ("fig1a_seed0", 0x503e1af1edce1c88),
    ("fig1a_seed1", 0x35707be0a5ddeea1),
    ("fig1b_seed0_delay6ms", 0xf9f8f6cbe6d16e46),
    ("fig2_k3_size2_seed17", 0x781e66bca38f1ec2),
    ("fig3_growth3_delay4ms_seed5", 0x156eb98711807bd8),
];

#[test]
fn figure_scenario_trace_hashes_are_stable() {
    let scenarios = pinned_figure_scenarios();
    assert_eq!(scenarios.len(), GOLDEN.len(), "scenario set changed");
    let mut failures = Vec::new();
    for ((name, scenario), (want_name, want)) in scenarios.into_iter().zip(GOLDEN) {
        assert_eq!(name, want_name, "scenario order changed");
        let got = trace_hash_of(scenario);
        println!("GOLDEN {name}: {got:#018x}");
        if got != want {
            failures.push(format!("{name}: got {got:#018x}, want {want:#018x}"));
        }
    }
    assert!(failures.is_empty(), "trace hashes changed:\n{failures:?}");
}

/// The zero-copy differential: every figure scenario re-run with its
/// topology served from a mapped `.pcsr` file must reproduce the exact
/// golden hash. This is the end-to-end proof that mapped-CSR kernels are
/// bit-identical to the owned build — not just per-query (the graph
/// crate's differential tests) but across a full protocol execution,
/// message schedule and all.
#[test]
fn figure_scenario_hashes_survive_mapped_topology() {
    let dir = std::env::temp_dir().join("precipice-trace-golden");
    std::fs::create_dir_all(&dir).unwrap();
    for ((name, mut scenario), (_, want)) in pinned_figure_scenarios().into_iter().zip(GOLDEN) {
        let file = dir.join(format!("{name}.pcsr"));
        scenario.graph.write_pcsr(&file).unwrap();
        let mapped = Graph::open_pcsr(&file).unwrap();
        // Labels aren't persisted (fig1a is the labeled cities graph),
        // so compare the adjacency itself rather than `==`.
        assert_eq!(mapped.len(), scenario.graph.len(), "{name}");
        for p in scenario.graph.nodes() {
            assert_eq!(
                mapped.neighbors(p),
                scenario.graph.neighbors(p),
                "{name}: adjacency drifted at {p}"
            );
        }
        scenario.graph = Arc::new(mapped);
        let got = trace_hash_of(scenario);
        assert_eq!(
            got, want,
            "{name}: mapped topology changed the trace ({got:#018x} vs {want:#018x})"
        );
    }
}

/// The same differential up the torus ladder: the E4 configuration (fixed
/// 8-node blob) on `torus_of(n)` and on the identical torus served from
/// the `.pcsr` cache must agree on schedule, traffic and decisions at
/// every size and seed.
#[test]
fn torus_ladder_runs_survive_mapped_topology() {
    for n in [64, 576, 1024, 4096] {
        let owned = torus_of(n);
        let mapped = mapped_torus_of(n);
        assert_eq!(mapped.len(), owned.len());
        let region = RegionSpec::Blob(8).carve(&owned, None).unwrap();
        for seed in 1..=3 {
            let run = |graph: &Graph| {
                let protocol = ProtocolConfig::default();
                measure_cliff_edge(graph.clone(), &region, protocol, seed)
            };
            let (owned_cost, owned_report) = run(&owned);
            let (mapped_cost, mapped_report) = run(&mapped);
            assert!(owned_cost.decisions > 0, "n={n} seed={seed} undecided");
            assert_eq!(
                mapped_report.trace_hash, owned_report.trace_hash,
                "mapped and owned runs diverged at n={n} seed={seed}"
            );
            assert_eq!(
                mapped_cost.messages, owned_cost.messages,
                "n={n} seed={seed}"
            );
            assert_eq!(
                mapped_report.decisions, owned_report.decisions,
                "n={n} seed={seed}"
            );
        }
    }
}

/// `MulticastMode::Sequential` serves one recipient per self-addressed
/// chain hop, so a crash can cut a multicast short; every pin above runs
/// `Atomic`. This pins the CLI's `--topology torus:8 --region blob:4
/// --timing cascade:2ms --seed 3 --sequential-multicast` run, FIFO and
/// under one `Random` exploration: trace hash, messages sent, deciders
/// and the one `(region, value)` they all decided.
#[test]
fn sequential_multicast_runs_are_stable() {
    const DECIDERS: [u32; 8] = [16, 25, 31, 34, 38, 40, 41, 47];
    const PINS: [(SchedulePolicy, u64, u64); 2] = [
        (SchedulePolicy::Fifo, 0x23740ec08db3ceda, 1084),
        (SchedulePolicy::Random(3), 0x80cd89069756e424, 1080),
    ];
    let graph = torus(GridDims::square(8));
    let region = blob_of_size(&graph, NodeId(32), 4);
    let timing = CrashTiming::Cascade {
        start: SimTime::from_millis(1),
        step: SimTime::from_millis(2),
    };
    let scenario = Scenario::builder(graph)
        .crashes(schedule(region.iter(), timing))
        .protocol(ProtocolConfig::faithful())
        .multicast(MulticastMode::Sequential)
        .sim_config(SimConfig {
            seed: 3,
            latency: LatencyModel::Uniform {
                min: SimTime::from_micros(200),
                max: SimTime::from_millis(2),
            },
            fd_latency: LatencyModel::Uniform {
                min: SimTime::from_millis(1),
                max: SimTime::from_millis(5),
            },
            record_trace: true,
            max_events: Some(100_000_000),
        })
        .build();
    let agreed: Region = [24, 32, 33, 39].into_iter().map(NodeId).collect();
    for (policy, hash, messages) in PINS {
        let label = format!("{policy:?}");
        let report = scenario.exec(Exec::new().schedule(policy)).report;
        let got = report.trace_hash;
        assert_eq!(got, hash, "{label}: trace hash {got:#018x}");
        assert_eq!(report.metrics.messages_sent(), messages, "{label}");
        let deciders: Vec<u32> = report.decisions.keys().map(|n| n.0).collect();
        assert_eq!(deciders, DECIDERS, "{label}");
        for decision in report.decisions.values() {
            assert_eq!(decision.view.region(), &agreed, "{label}");
            assert_eq!(decision.value, NodeId(16), "{label}");
        }
    }
}
