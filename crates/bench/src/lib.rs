//! The E1–E9 experiment library. See the [`experiments`] module docs for
//! the experiment index; the `report` binary regenerates each table, and
//! the tests under `tests/` carry the checks that are exact (golden trace
//! hashes, mapped ≡ owned, `--jobs` determinism, cost identical across
//! N). Timings live in the repository's `benchmark/` package, not here.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod experiments;

use precipice_core::ProtocolConfig;
use precipice_graph::{torus, Graph, GridDims, NodeId, Region};
use precipice_runtime::{Exec, RunReport, Scenario, ScenarioBuilder};
use precipice_sim::{LatencyModel, SimConfig, SimTime};
use precipice_workload::{RegionSpec, TimingSpec};

/// Concatenated markdown of the non-volatile tables — the byte string
/// the sweep determinism contract is checked against (volatile tables
/// carry wall-clock or thread-scheduling observations and are exempt;
/// see [`Table::is_volatile`](precipice_workload::table::Table::is_volatile)).
pub fn deterministic_markdown(tables: &[precipice_workload::table::Table]) -> String {
    tables
        .iter()
        .filter(|t| !t.is_volatile())
        .map(precipice_workload::table::Table::to_markdown)
        .collect::<Vec<_>>()
        .join("\n")
}

/// Latency/FD configuration shared by all experiments: mild jitter so
/// rounds overlap realistically, deterministic under the seed.
pub fn experiment_sim(seed: u64, record_trace: bool) -> SimConfig {
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

/// An experiment's scenario on `graph`, traced: `region` carved around
/// the centre, crashing under `timing`, and simulated by
/// [`experiment_sim`] with `seed`, which a spread draws from too.
///
/// # Panics
///
/// Panics if the region does not carve or its crashes overrun the
/// clock; an experiment's inputs are fixed, so either is its bug.
pub fn experiment_scenario(
    graph: &Graph,
    region: RegionSpec,
    timing: TimingSpec,
    seed: u64,
) -> ScenarioBuilder {
    let region = region.carve(graph, None).expect("the region carves");
    Scenario::builder(graph.clone())
        .crashes(
            timing
                .crashes(&region, seed)
                .expect("the crashes are in time"),
        )
        .sim_config(experiment_sim(seed, true))
}

/// A torus whose side is `ceil(sqrt(n))`, the standard experiment
/// substrate (4-regular, no boundary artifacts).
pub fn torus_of(n: usize) -> Graph {
    let side = (n as f64).sqrt().ceil().max(3.0) as usize;
    torus(GridDims::square(side))
}

/// Path of the cached `.pcsr` file for the [`torus_of`] topology of at
/// least `n` nodes, streaming it to disk on first use.
///
/// The cache lives under the system temp dir and is validated on every
/// call (a corrupt or truncated file is rebuilt, not trusted), so
/// experiment rows at sizes where an in-memory build would dominate —
/// the 10⁸-node E4 row — pay the two-pass streaming build exactly once
/// per machine and microseconds per subsequent open.
pub fn cached_torus_pcsr(n: usize) -> std::path::PathBuf {
    let side = (n as f64).sqrt().ceil().max(3.0) as usize;
    let dir = std::env::temp_dir().join("precipice-pcsr-cache");
    std::fs::create_dir_all(&dir).expect("create .pcsr cache dir");
    let file = dir.join(format!("torus-{side}x{side}.pcsr"));
    let usable = precipice_graph::MappedGraph::open(&file)
        .and_then(|m| m.verify())
        .is_ok();
    if !usable {
        precipice_graph::stream_torus(GridDims::square(side), &file)
            .unwrap_or_else(|e| panic!("cannot stream torus cache {}: {e}", file.display()));
    }
    file
}

/// The [`torus_of`] topology served zero-copy from the `.pcsr` cache
/// ([`cached_torus_pcsr`]); adjacency is bit-identical to `torus_of(n)`.
pub fn mapped_torus_of(n: usize) -> Graph {
    let file = cached_torus_pcsr(n);
    Graph::open_pcsr(&file)
        .unwrap_or_else(|e| panic!("cannot open torus cache {}: {e}", file.display()))
}

/// Cost observations extracted from one cliff-edge run.
#[derive(Debug, Clone, Copy)]
pub struct RunCost {
    /// System size.
    pub n: usize,
    /// Crashed region size.
    pub region: usize,
    /// Border (participant) count of the crashed region.
    pub border: usize,
    /// Total protocol messages sent.
    pub messages: u64,
    /// Total protocol bytes sent.
    pub bytes: u64,
    /// Nodes that sent at least one message (the locality footprint).
    pub active_nodes: usize,
    /// Number of deciders.
    pub decisions: usize,
    /// Highest round any node reached.
    pub max_round: u32,
    /// Virtual time of the last decision (ms), 0 if none.
    pub decision_ms: f64,
}

/// Runs cliff-edge consensus on `graph` with `region` crashing
/// simultaneously, and extracts the cost observations.
pub fn measure_cliff_edge(
    graph: Graph,
    region: &Region,
    protocol: ProtocolConfig,
    seed: u64,
) -> (RunCost, RunReport<NodeId>) {
    let border = graph.border_of(region.iter()).len();
    let n = graph.len();
    let crashes = TimingSpec::Simultaneous.crashes(region, seed);
    let scenario = Scenario::builder(graph)
        .crashes(crashes.expect("simultaneous crashes land at the start"))
        .protocol(protocol)
        .sim_config(experiment_sim(seed, false))
        .build();
    let report = scenario.exec(Exec::new()).report;
    let cost = RunCost {
        n,
        region: region.len(),
        border,
        messages: report.metrics.messages_sent(),
        bytes: report.metrics.bytes_sent(),
        active_nodes: report.metrics.nodes_with_traffic().len(),
        decisions: report.decisions.len(),
        max_round: report
            .stats
            .values()
            .map(|s| s.max_round)
            .max()
            .unwrap_or(0),
        decision_ms: report.last_decision_at().map_or(0.0, |t| t.as_millis_f64()),
    };
    (cost, report)
}

/// The figure scenarios whose simulator trace hashes
/// `crates/bench/tests/trace_golden.rs` pins against goldens.
pub fn pinned_figure_scenarios() -> Vec<(&'static str, Scenario)> {
    use precipice_workload::figures::{figure3_scenario, Figure1, Figure2};
    use precipice_workload::patterns::CrashTiming;

    let fig1 = Figure1::new();
    vec![
        ("fig1a_seed0", fig1.scenario_a(0)),
        ("fig1a_seed1", fig1.scenario_a(1)),
        (
            "fig1b_seed0_delay6ms",
            fig1.scenario_b(0, SimTime::from_millis(6)),
        ),
        (
            "fig2_k3_size2_seed17",
            Figure2::new(3, 2).scenario(17, CrashTiming::Simultaneous(SimTime::from_millis(1))),
        ),
        (
            "fig3_growth3_delay4ms_seed5",
            figure3_scenario(6, 3, SimTime::from_millis(4), 5).0,
        ),
    ]
}

/// Runs `scenario` with tracing forced on and returns its trace hash.
pub fn trace_hash_of(mut scenario: Scenario) -> u64 {
    scenario.sim.record_trace = true;
    scenario.exec(Exec::new()).report.trace_hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use precipice_workload::RegionSpec;

    #[test]
    fn torus_of_rounds_up() {
        assert_eq!(torus_of(64).len(), 64);
        assert_eq!(torus_of(60).len(), 64);
        assert_eq!(torus_of(5).len(), 9);
    }

    #[test]
    fn carve_region_shapes() {
        let g = torus_of(100);
        let blob = RegionSpec::Blob(9).carve(&g, None).unwrap();
        let line = RegionSpec::Line(9).carve(&g, None).unwrap();
        assert_eq!(blob.len(), 9);
        assert_eq!(line.len(), 9);
        assert!(g.border_of(line.iter()).len() >= g.border_of(blob.iter()).len());
    }

    #[test]
    fn measure_extracts_consistent_cost() {
        let g = torus_of(64);
        let region = RegionSpec::Blob(4).carve(&g, None).unwrap();
        let (cost, report) = measure_cliff_edge(g, &region, ProtocolConfig::default(), 3);
        assert_eq!(cost.n, 64);
        assert_eq!(cost.region, 4);
        assert!(cost.decisions > 0);
        assert_eq!(cost.messages, report.metrics.messages_sent());
        assert!(cost.active_nodes <= cost.border + cost.region);
    }
}
