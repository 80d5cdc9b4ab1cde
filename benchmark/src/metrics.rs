//! The metric registry: every name the benchmark reports, with its
//! unit and direction. `BENCHMARK.json` lists exactly these (a unit
//! test holds the two together), and a run refuses to print a result
//! that lacks one of them.

use precipice_core::json::Json;

use crate::probes::Values;
use crate::spans::{shares, Tracer, OP_SPAN};
use crate::stats::peak_rss_mb;
use crate::workload::RunStats;

/// One metric: name, unit, and whether higher is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: true,
    }
}

/// What a user of the system waits on or pays, per workload. Printed
/// by an untraced run (`--trace 0`). The latency tail is not among
/// them: on the CPU-bound workloads its run-to-run spread (10–20 %) is
/// host noise, so it is reported (`op.latency_ms_tail`, the report, the
/// `--out` record) but gates nothing.
pub const END_TO_END: &[Metric] = &[
    higher("throughput_per_s", "1/s"),
    lower("latency_ms_p50", "ms"),
    lower("peak_rss_mb", "MB"),
    lower("setup_s", "s"),
];

/// Every span a traced operation can record, in the order of the
/// `share.*` metrics. A span that a workload never records has share 0.
pub const SPANS: [&str; 16] = [
    OP_SPAN,
    "open",
    "crash",
    "poll",
    "await",
    "read",
    "status",
    "close",
    "graph_open",
    "scenario_build",
    "exec",
    "digest",
    "explore",
    "decomposed",
    "batch_run",
    "check_spec",
];

/// Single layers, from the traced run (`--trace 1`): the named
/// workload's span shares and counts, then every layer probe.
pub const PER_LAYER: &[Metric] = &[
    lower("share.driver", "share"),
    lower("share.open", "share"),
    lower("share.crash", "share"),
    lower("share.poll", "share"),
    lower("share.await", "share"),
    lower("share.read", "share"),
    lower("share.status", "share"),
    lower("share.close", "share"),
    lower("share.graph_open", "share"),
    lower("share.scenario_build", "share"),
    lower("share.exec", "share"),
    lower("share.digest", "share"),
    lower("share.explore", "share"),
    lower("share.decomposed", "share"),
    lower("share.batch_run", "share"),
    lower("share.check_spec", "share"),
    lower("trace.overhead_share", "share"),
    higher("trace.ops", "count"),
    lower("trace.spans_dropped", "count"),
    lower("op.latency_ms_p50", "ms"),
    lower("op.latency_ms_tail", "ms"),
    lower("count.events_per_op", "count"),
    lower("count.messages_per_op", "count"),
    lower("count.deviations_per_op", "count"),
    lower("count.decisions_per_op", "count"),
    lower("count.result_hash32", "count"),
    lower("graph.border_of_ns", "ns"),
    lower("graph.border_cached_ns", "ns"),
    lower("graph.rank_cmp_ns", "ns"),
    lower("graph.components_ns", "ns"),
    lower("graph.is_connected_subset_ns", "ns"),
    lower("graph.nodeset_union_ns", "ns"),
    lower("graph.torus_build_ms", "ms"),
    lower("graph.pcsr_stream_ms", "ms"),
    lower("graph.pcsr_open_us", "us"),
    lower("graph.mapped_border_of_ns", "ns"),
    lower("core.handle_event_ns.r1", "ns"),
    lower("core.handle_event_ns.r8", "ns"),
    lower("core.handle_event_ns.r16", "ns"),
    lower("core.handle_event_ns.r64", "ns"),
    lower("core.actions_per_event", "count"),
    lower("core.view_new_ns", "ns"),
    lower("core.view_rank_cmp_ns", "ns"),
    lower("core.json_parse_ns", "ns"),
    lower("core.json_to_line_ns", "ns"),
    higher("sim.engine_events_per_s", "1/s"),
    higher("sim.engine_events_per_s.random", "1/s"),
    higher("sim.batch_events_per_s", "1/s"),
    higher("sim.batch_events_per_s.random", "1/s"),
    lower("sim.trace_record_share", "share"),
    lower("sim.race_pairs_us", "us"),
    lower("runtime.exec_ms.cliff", "ms"),
    lower("runtime.exec_ms.blob64", "ms"),
    lower("runtime.exec_ms.cascade", "ms"),
    lower("runtime.ns_per_event.cliff", "ns"),
    lower("runtime.ns_per_event.blob64", "ns"),
    lower("runtime.ns_per_event.cascade", "ns"),
    lower("runtime.scenario_build_us", "us"),
    lower("runtime.digest_us", "us"),
    lower("runtime.check_spec_us", "us"),
    lower("runtime.batch_run_ms", "ms"),
    lower("runtime.batch_ns_per_event", "ns"),
    lower("runtime.probe_ms", "ms"),
    lower("runtime.shrink_schedule_ms", "ms"),
    lower("net.ring_push_pop_ns", "ns"),
    lower("net.ring_hop_us", "us"),
    lower("net.cluster_start_us", "us"),
    lower("net.cluster_shutdown_us", "us"),
    lower("net.await_idle_ms", "ms"),
    lower("net.cliff_decide_us.p50", "us"),
    lower("net.storm_decide_ms.p50", "ms"),
    lower("net.storm_decide_ms.p95", "ms"),
    higher("net.storm_events_per_s", "1/s"),
    higher("net.storm_events_per_s.s2", "1/s"),
    lower("net.storm_us_per_cliff", "us"),
    lower("net.spilled", "count"),
    lower("net.msgs_per_cliff", "count"),
    lower("net.gated_probe_ms", "ms"),
    lower("serve.open_us", "us"),
    lower("serve.crash_us", "us"),
    lower("serve.await_ms", "ms"),
    lower("serve.read_us", "us"),
    lower("serve.status_us", "us"),
    lower("serve.close_us", "us"),
    higher("workload.explore_schedules_per_s.random", "1/s"),
    higher("workload.explore_schedules_per_s.pcr", "1/s"),
    lower("workload.explore_ns_per_event", "ns"),
    lower("workload.sweepspec_overhead_us", "us"),
    lower("workload.blob_of_size_us", "us"),
    lower("budget.cliff.engine_share", "share"),
    lower("budget.cliff.core_share", "share"),
    lower("budget.cliff.residual_share", "share"),
    lower("budget.blob64.engine_share", "share"),
    lower("budget.blob64.core_share", "share"),
    lower("budget.blob64.residual_share", "share"),
    lower("budget.cascade.engine_share", "share"),
    lower("budget.cascade.core_share", "share"),
    lower("budget.cascade.residual_share", "share"),
    lower("budget.check_fuzz.engine_share", "share"),
    lower("budget.check_fuzz.core_share", "share"),
    lower("budget.check_fuzz.residual_share", "share"),
];

/// The end-to-end values of a run, keyed by [`END_TO_END`] name.
pub fn end_to_end(stats: &RunStats) -> Values {
    let mut v = Values::new();
    v.insert("throughput_per_s".to_owned(), stats.throughput_per_s);
    v.insert("latency_ms_p50".to_owned(), stats.latency_ms_p50);
    v.insert("setup_s".to_owned(), stats.setup_s);
    if let Some(mb) = peak_rss_mb() {
        v.insert("peak_rss_mb".to_owned(), mb);
    }
    v
}

/// The traced workload's own per-layer values: span shares, tracing
/// overhead, the latency percentiles, and operation 0's counts.
pub fn traced(stats: &RunStats, tracer: &Tracer) -> Values {
    let mut v = Values::new();
    let measured = shares(tracer.spans());
    for span in SPANS {
        let share = measured.get(span).copied().unwrap_or(0.0);
        v.insert(format!("share.{span}"), share);
    }
    if let Some(share) = stats.trace_overhead_share() {
        v.insert("trace.overhead_share".to_owned(), share);
    }
    v.insert("trace.ops".to_owned(), stats.traced_ops as f64);
    v.insert("trace.spans_dropped".to_owned(), tracer.dropped() as f64);
    v.insert("op.latency_ms_p50".to_owned(), stats.latency_ms_p50);
    v.insert("op.latency_ms_tail".to_owned(), stats.latency_ms_tail);
    let first = &stats.first;
    v.insert("count.events_per_op".to_owned(), first.events as f64);
    v.insert("count.messages_per_op".to_owned(), first.messages as f64);
    v.insert(
        "count.deviations_per_op".to_owned(),
        first.deviations as f64,
    );
    v.insert("count.decisions_per_op".to_owned(), first.decisions as f64);
    v.insert(
        "count.result_hash32".to_owned(),
        (first.hash & 0xffff_ffff) as f64,
    );
    v
}

/// Builds the `metrics` object of the result line: exactly the metrics
/// of `registry`, each with its value and unit. A missing or
/// non-finite value is an error: the benchmark does not print a result
/// it did not measure.
pub fn metrics_json(registry: &[Metric], values: &Values) -> Result<Json, String> {
    let mut pairs = Vec::with_capacity(registry.len());
    for metric in registry {
        let value = values
            .get(metric.name)
            .copied()
            .filter(|x| x.is_finite())
            .ok_or_else(|| format!("metric {} was not measured", metric.name))?;
        pairs.push((
            metric.name,
            Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::from(metric.unit)),
            ]),
        ));
    }
    Ok(Json::obj(pairs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn spec() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn listed(spec: &Json, key: &str) -> Vec<(String, String, String)> {
        let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap().to_owned();
        spec.get(key)
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect()
    }

    fn ours(registry: &[Metric]) -> Vec<(String, String, String)> {
        registry
            .iter()
            .map(|m| {
                let better = if m.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                (m.name.to_owned(), m.unit.to_owned(), better.to_owned())
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_registry() {
        let spec = spec();
        assert_eq!(listed(&spec, "end_to_end"), ours(END_TO_END));
        assert_eq!(listed(&spec, "per_layer"), ours(PER_LAYER));
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, crate::workload::WORKLOADS);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(m.name), "{} listed twice", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(m.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && !m.higher_is_better));
    }

    #[test]
    fn every_span_has_a_share_metric() {
        for span in SPANS {
            let name = format!("share.{span}");
            assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
        }
    }

    #[test]
    fn a_result_with_a_hole_is_refused() {
        let mut values = Values::new();
        values.insert("throughput_per_s".to_owned(), 9.5);
        let err = metrics_json(END_TO_END, &values).unwrap_err();
        assert!(err.contains("latency_ms_p50"));
        values.insert("latency_ms_p50".to_owned(), f64::NAN);
        assert!(metrics_json(END_TO_END, &values).is_err());
        let one = [END_TO_END[0]];
        let json = metrics_json(&one, &values).unwrap();
        assert_eq!(
            json.to_line(),
            r#"{"throughput_per_s":{"value":9.5,"unit":"1/s"}}"#
        );
    }
}
