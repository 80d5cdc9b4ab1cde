//! Report binary: per-run cost of cliff-edge consensus vs system size N
//! — the implementation-level measurement of the paper's headline claim
//! that cost depends on the crashed region's footprint, not on N.
//!
//! For each torus size the binary measures the one-time graph build and
//! the per-run cost of [`Scenario::exec`] (spawn-on-demand processes,
//! graph-backed failure detection). The eager "before" arm this report
//! was introduced with — all N nodes built and started per run — went
//! with the eager engine; the committed `BENCH_locality.json` keeps its
//! last measurements.
//!
//! Each size additionally gets a **mapped** row: the identical torus
//! served zero-copy from the streamed `.pcsr` cache
//! ([`precipice_bench::cached_torus_pcsr`]). Its `build_ms` is the
//! `mmap` open (microseconds, size-independent), its `graph_bytes` is 0
//! (the page cache owns the sections), and its per-seed trace hashes are
//! asserted identical to the owned runs — the ladder doubles as a
//! differential test at every size.
//!
//! It also times the full E4 sweep serially and compares it against the
//! committed `BENCH_sweep.json` baseline (359.6 s on the reference
//! 1-CPU host) — the several-fold drop is the tentpole acceptance
//! number.
//!
//! Usage:
//! `cargo run --release -p precipice-bench --bin bench_locality -- \
//!     [--test] [--json PATH] [--skip-e4] [--mega-smoke [CAP_SECONDS]]`
//!
//! - `--test`: tiny sizes, no E4 sweep — CI smoke mode.
//! - `--skip-e4`: full size ladder but no E4 sweep timing.
//! - `--mega-smoke [cap]`: run ONLY one N = 1,048,576 cliff-edge
//!   scenario (fixed 8-node crashed region) to quiescence and exit
//!   non-zero if it misses the wall-clock cap (default 300 s) or fails
//!   to decide — the CI guard that keeps the footprint-proportional
//!   path from silently regressing.
//!
//! Writes `BENCH_locality.json` by default.

use std::fmt::Write as _;
use std::time::Instant;

use precipice_bench::{
    cached_torus_pcsr, carve_region, experiment_sim, experiments, torus_of, RegionShape,
};
use precipice_core::ProtocolConfig;
use precipice_graph::Graph;
use precipice_runtime::{Exec, Scenario};
use precipice_workload::patterns::schedule;
use precipice_workload::sweep::Jobs;

/// E4 serial wall-clock of the committed pre-locality baseline
/// (`BENCH_sweep.json`, 1-CPU reference host).
const E4_BASELINE_SECONDS: f64 = 359.6;

struct SizeRow {
    n: usize,
    /// "owned" (in-memory build) or "mapped" (`.pcsr` zero-copy open).
    storage: &'static str,
    /// Owned: the in-memory graph build. Mapped: the `mmap` open —
    /// effectively zero once the file exists.
    build_ms: f64,
    graph_bytes: usize,
    lazy_run_ms: f64,
    active_nodes: usize,
    messages: u64,
}

fn scenario_for(graph: precipice_graph::Graph, seed: u64) -> Scenario {
    let region = carve_region(&graph, RegionShape::Blob, 8);
    Scenario::builder(graph)
        .name("locality")
        .crashes(schedule(
            region.iter(),
            precipice_workload::patterns::CrashTiming::Simultaneous(
                precipice_sim::SimTime::from_millis(1),
            ),
        ))
        .protocol(ProtocolConfig::default())
        .sim_config(experiment_sim(seed, false))
        .build()
}

fn mega_smoke(cap_seconds: f64) -> ! {
    let n = 1 << 20;
    let started = Instant::now();
    let build_started = Instant::now();
    let graph = torus_of(n);
    let build_s = build_started.elapsed().as_secs_f64();
    assert_eq!(graph.len(), n);
    let graph_mb = graph.memory_bytes() as f64 / (1 << 20) as f64;
    let scenario = scenario_for(graph, 1);
    let run_started = Instant::now();
    let report = scenario.exec(Exec::new()).report;
    let run_s = run_started.elapsed().as_secs_f64();
    let total = started.elapsed().as_secs_f64();
    println!(
        "mega-smoke: N=2^20 torus, graph build {build_s:.2}s ({graph_mb:.1} MB), \
         run {run_s:.3}s, total {total:.2}s"
    );
    println!(
        "  quiescent={}, deciders={}, messages={}, active={}",
        report.outcome.is_quiescent(),
        report.decisions.len(),
        report.metrics.messages_sent(),
        report.metrics.nodes_with_traffic().len(),
    );
    if !report.outcome.is_quiescent() || report.decisions.is_empty() {
        eprintln!("mega-smoke FAILED: run did not quiesce with decisions");
        std::process::exit(1);
    }
    if total > cap_seconds {
        eprintln!("mega-smoke FAILED: {total:.1}s exceeds the {cap_seconds:.0}s cap");
        std::process::exit(1);
    }
    std::process::exit(0);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let has = |flag: &str| args.iter().any(|a| a == flag);
    let value_of = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .filter(|v| !v.starts_with("--"))
            .cloned()
    };
    if has("--mega-smoke") {
        let cap = value_of("--mega-smoke")
            .map(|v| v.parse::<f64>().expect("--mega-smoke wants seconds"))
            .unwrap_or(300.0);
        mega_smoke(cap);
    }
    let test_mode = has("--test");
    let json_path = value_of("--json").unwrap_or_else(|| "BENCH_locality.json".to_owned());

    let (sizes, seeds): (Vec<usize>, Vec<u64>) = if test_mode {
        (vec![64, 576], vec![1, 2])
    } else {
        (
            vec![1024, 4096, 16384, 32768, 262_144, 1 << 20],
            vec![1, 2, 3],
        )
    };
    let mut rows: Vec<SizeRow> = Vec::new();
    println!(
        "{:>9} {:>7} {:>10} {:>11} {:>13} {:>8} {:>9}",
        "N", "storage", "build ms", "graph MB", "lazy run ms", "active", "messages"
    );
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    let print_row = |row: &SizeRow| {
        println!(
            "{:>9} {:>7} {:>10.2} {:>11.2} {:>13.2} {:>8} {:>9}",
            row.n,
            row.storage,
            row.build_ms,
            row.graph_bytes as f64 / (1 << 20) as f64,
            row.lazy_run_ms,
            row.active_nodes,
            row.messages
        );
    };
    for &n in &sizes {
        let build_started = Instant::now();
        let graph = torus_of(n);
        let build_ms = build_started.elapsed().as_secs_f64() * 1000.0;
        let graph_bytes = graph.memory_bytes();

        let mut lazy_ms: Vec<f64> = Vec::new();
        let mut lazy_hashes: Vec<u64> = Vec::new();
        let mut active_per_seed: Vec<usize> = Vec::new();
        let mut messages_per_seed: Vec<u64> = Vec::new();
        for &seed in &seeds {
            let scenario = scenario_for(graph.clone(), seed);
            let lazy_started = Instant::now();
            let lazy = scenario.exec(Exec::new()).report;
            lazy_ms.push(lazy_started.elapsed().as_secs_f64() * 1000.0);
            lazy_hashes.push(lazy.trace_hash);
            active_per_seed.push(lazy.metrics.nodes_with_traffic().len());
            messages_per_seed.push(lazy.metrics.messages_sent());
        }
        // Run times are seed-averaged, so the footprint columns must be
        // too (latency sampling is seed-dependent; pairing a mean time
        // with one seed's message count would misrepresent the row).
        let row = SizeRow {
            n: graph.len(),
            storage: "owned",
            build_ms,
            graph_bytes,
            lazy_run_ms: mean(&lazy_ms),
            active_nodes: mean(
                &active_per_seed
                    .iter()
                    .map(|&a| a as f64)
                    .collect::<Vec<_>>(),
            )
            .round() as usize,
            messages: mean(
                &messages_per_seed
                    .iter()
                    .map(|&m| m as f64)
                    .collect::<Vec<_>>(),
            )
            .round() as u64,
        };
        print_row(&row);
        rows.push(row);

        // The mapped arm: same torus served zero-copy from the `.pcsr`
        // cache. The one-time streaming build is reported on stdout but
        // deliberately NOT charged to build_ms — the whole point of the
        // format is that it is paid once per machine, not per process.
        // Each seed's trace hash must match the owned run bit for bit.
        let stream_started = Instant::now();
        let file = cached_torus_pcsr(n);
        let stream_ms = stream_started.elapsed().as_secs_f64() * 1000.0;
        let open_started = Instant::now();
        let mapped = Graph::open_pcsr(&file).expect("open cached torus");
        let open_ms = open_started.elapsed().as_secs_f64() * 1000.0;
        assert_eq!(mapped.len(), graph.len());
        if stream_ms > 1.0 {
            println!(
                "{:>9} {:>7} (one-time stream build: {stream_ms:.1} ms)",
                mapped.len(),
                "cache"
            );
        }
        let mut mapped_ms: Vec<f64> = Vec::new();
        let mut mapped_active: Vec<f64> = Vec::new();
        let mut mapped_msgs: Vec<f64> = Vec::new();
        for (&seed, &owned_hash) in seeds.iter().zip(&lazy_hashes) {
            let scenario = scenario_for(mapped.clone(), seed);
            let started = Instant::now();
            let report = scenario.exec(Exec::new()).report;
            mapped_ms.push(started.elapsed().as_secs_f64() * 1000.0);
            assert_eq!(
                report.trace_hash, owned_hash,
                "mapped and owned runs diverged at n={n} seed={seed}"
            );
            mapped_active.push(report.metrics.nodes_with_traffic().len() as f64);
            mapped_msgs.push(report.metrics.messages_sent() as f64);
        }
        let row = SizeRow {
            n: mapped.len(),
            storage: "mapped",
            build_ms: open_ms,
            graph_bytes: mapped.memory_bytes(),
            lazy_run_ms: mean(&mapped_ms),
            active_nodes: mean(&mapped_active).round() as usize,
            messages: mean(&mapped_msgs).round() as u64,
        };
        print_row(&row);
        rows.push(row);
    }

    // E4 serial wall-clock vs the committed baseline.
    let e4_serial_s = if test_mode || has("--skip-e4") {
        None
    } else {
        println!("\ntiming the full E4 sweep at --jobs 1 ...");
        let started = Instant::now();
        let tables = experiments::e4_locality_scaling(Jobs::serial());
        let secs = started.elapsed().as_secs_f64();
        for t in &tables {
            println!("{t}");
        }
        println!(
            "E4 serial: {secs:.1}s (baseline {E4_BASELINE_SECONDS}s, {:.1}x)",
            E4_BASELINE_SECONDS / secs
        );
        Some(secs)
    };

    let mut json = String::new();
    json.push_str("{\n  \"schema\": \"precipice-bench-locality/3\",\n");
    let _ = writeln!(json, "  \"host_cpus\": {},", Jobs::available().get());
    let _ = writeln!(json, "  \"test_mode\": {test_mode},");
    json.push_str("  \"per_run\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"n\": {}, \"storage\": \"{}\", \"build_ms\": {:.2}, \"graph_bytes\": {}, \
             \"lazy_run_ms\": {:.2}, \"active_nodes\": {}, \"messages\": {}}}",
            r.n, r.storage, r.build_ms, r.graph_bytes, r.lazy_run_ms, r.active_nodes, r.messages
        );
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    match e4_serial_s {
        Some(secs) => {
            let _ = writeln!(
                json,
                "  \"e4_serial_seconds\": {secs:.1},\n  \"e4_baseline_seconds\": \
                 {E4_BASELINE_SECONDS},\n  \"e4_speedup\": {:.2}",
                E4_BASELINE_SECONDS / secs
            );
        }
        None => {
            json.push_str("  \"e4_serial_seconds\": null\n");
        }
    }
    json.push_str("}\n");
    std::fs::write(&json_path, json).expect("write JSON report");
    println!("\nwrote {json_path}");
}
