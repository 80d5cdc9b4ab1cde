//! The live-backend execution adapter: runs a [`Scenario`] on the
//! sharded event-loop runtime ([`precipice_net::ShardedCluster`]) and
//! re-expresses the outcome as the same [`RunReport`] every other
//! engine produces — free-running under [`SchedulePolicy::Fifo`], gated
//! ([`precipice_net::gated_run`]) under any other policy. The
//! [`exec`](crate::exec) module docs say what each run keeps.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use precipice_core::DecisionPolicy;
use precipice_graph::NodeId;
use precipice_net::{gated_run, RouterCounters, ShardedCluster};
use precipice_sim::{Metrics, RunOutcome, Schedule, SchedulePolicy, SimTime};

use crate::exec::{Engine, Exec, ExecOutcome};
use crate::report::{Decision, RunReport};
use crate::scenario::Scenario;

/// Hard wall-clock cap on a free-running live execution.
const TIMEOUT: Duration = Duration::from_secs(120);

/// Runs `scenario` on the sharded live backend with `shards` worker
/// threads: the [`Engine::Live`](crate::Engine::Live) arm of
/// [`Scenario::exec`]. A gated run's timestamps are its release steps
/// in microseconds, so a crash is always stamped before the decisions
/// that react to it.
pub(crate) fn exec_live<P, F>(
    scenario: &Scenario,
    shards: usize,
    policy: SchedulePolicy,
    make_policy: F,
) -> ExecOutcome<P::Value>
where
    P: DecisionPolicy + Send + 'static,
    P::Value: Send + Sync,
    F: FnMut(NodeId) -> P + Send + 'static,
{
    if policy == SchedulePolicy::Fifo {
        return free_running(scenario, shards, make_policy);
    }
    let kills: Vec<NodeId> = scenario.crashes.iter().map(|&(node, _)| node).collect();
    let graph = Arc::clone(&scenario.graph);
    let run = gated_run(
        graph,
        scenario.protocol,
        shards,
        &kills,
        policy,
        make_policy,
    );
    let at = SimTime::from_micros;
    let mut decisions = BTreeMap::new();
    for (node, (view, value)) in run.report.decisions {
        let at = at(run.decision_steps.get(&node).copied().unwrap_or(0));
        decisions.insert(node, Decision { view, value, at });
    }
    let last = decisions.values().map(|d| d.at).max();
    let report = RunReport {
        graph: Arc::clone(&scenario.graph),
        crashed: run
            .crash_steps
            .iter()
            .map(|&(q, step)| (q, at(step)))
            .collect(),
        decisions,
        metrics: metrics_of(run.counters),
        stats: run.report.stats,
        message_pairs: Some(run.message_pairs),
        trace_hash: run.order_hash,
        outcome: RunOutcome::Quiescent {
            events: run.released,
            at: last.unwrap_or(SimTime::ZERO),
        },
    };
    let schedule = run.schedule;
    ExecOutcome {
        report,
        schedule,
        trace: None,
    }
}

/// The live runtime's transport totals as the simulator's [`Metrics`].
fn metrics_of(counters: RouterCounters) -> Metrics {
    let mut metrics = Metrics::default();
    let RouterCounters {
        messages_sent,
        bytes_sent,
        delivered,
        dropped,
        notifications,
        events,
        ..
    } = counters;
    metrics.record_backend_totals(
        messages_sent,
        bytes_sent,
        delivered,
        dropped,
        notifications,
        events,
    );
    metrics
}

/// The free-running arm of [`exec_live`]: the OS scheduler provides the
/// nondeterminism, so only the scenario's graph, protocol config and
/// crash *order* (by scheduled time, ties by node id) carry over.
/// Decisions are stamped at one tick past the latest scheduled crash
/// time, which keeps the agreement- and timing-properties of
/// [`check_spec`](crate::check_spec) meaningful on the resulting report.
fn free_running<P, F>(scenario: &Scenario, shards: usize, make_policy: F) -> ExecOutcome<P::Value>
where
    P: DecisionPolicy + Send + 'static,
    P::Value: Send + Sync,
    F: FnMut(NodeId) -> P + Send + 'static,
{
    let graph = Arc::clone(&scenario.graph);
    let mut cluster =
        ShardedCluster::start_with(Arc::clone(&graph), scenario.protocol, shards, make_policy);

    let mut kills = scenario.crashes.clone();
    kills.sort_by_key(|&(node, at)| (at, node));
    for &(node, _) in &kills {
        cluster.kill(node);
    }
    let quiescent = cluster.await_quiescence(TIMEOUT);

    let counters = cluster.counters();
    let report = cluster.shutdown();

    let crashed: BTreeMap<NodeId, SimTime> = scenario.crashes.iter().copied().collect();
    // Every decision reacts to at least one induced crash, so stamping
    // all of them one tick after the last scheduled crash preserves
    // "crash before decision" (CD2) without pretending the live run
    // had simulated latencies.
    let decided_at =
        crashed.values().copied().max().unwrap_or(SimTime::ZERO) + SimTime::from_micros(1);
    let decisions = report
        .decisions
        .into_iter()
        .map(|(node, (view, value))| {
            (
                node,
                Decision {
                    view,
                    value,
                    at: decided_at,
                },
            )
        })
        .collect();

    let outcome = if quiescent {
        RunOutcome::Quiescent {
            events: counters.events,
            at: decided_at,
        }
    } else {
        RunOutcome::LimitReached {
            events: counters.events,
            at: decided_at,
        }
    };

    ExecOutcome {
        report: RunReport {
            graph,
            crashed,
            decisions,
            metrics: metrics_of(counters),
            stats: report.stats,
            message_pairs: None,
            trace_hash: 0,
            outcome,
        },
        schedule: Schedule::default(),
        trace: None,
    }
}

/// Explores one gated schedule of `scenario` on the live backend and
/// returns a fully-checkable [`RunReport`]: the
/// [`Engine::Live`](crate::Engine::Live) run under
/// [`SchedulePolicy::Random`]`(seed)`, deterministic in `(scenario,
/// seed)` and independent of `shards`. Its `trace_hash` is the order
/// hash: two probes collide iff they explored the same release sequence.
pub fn probe_live(scenario: &Scenario, shards: usize, seed: u64) -> RunReport<NodeId> {
    let exec = Exec::new().schedule(SchedulePolicy::Random(seed));
    scenario.exec(exec.engine(Engine::Live { shards })).report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_spec;
    use crate::exec::{Engine, Exec};
    use precipice_graph::{path, torus, GridDims};

    fn torus_scenario() -> Scenario {
        Scenario::builder(torus(GridDims::square(4)))
            .crash(NodeId(9), SimTime::from_millis(1))
            .build()
    }

    #[test]
    fn live_engine_produces_checkable_report() {
        let scenario = torus_scenario();
        let out = scenario.exec(Exec::new().engine(Engine::Live { shards: 2 }));
        assert!(out.report.outcome.is_quiescent());
        assert_eq!(out.report.decisions.len(), 4);
        for d in out.report.decisions.values() {
            assert_eq!(d.value, NodeId(5));
        }
        assert!(out.report.total_messages() > 0);
        assert!(check_spec(&out.report).is_empty());
    }

    /// The simulator is the sharded runtime's differential reference:
    /// the two share only `CliffEdgeNode`, so on schedule-independent
    /// scenarios every protocol observable must come out equal —
    /// under both configs, at 1 and 4 shards.
    #[test]
    fn live_engine_matches_sim_decisions() {
        use precipice_core::ProtocolConfig;
        let cases = [
            (torus(GridDims::square(4)), vec![NodeId(9)]),
            (path(9), vec![NodeId(2), NodeId(6)]),
        ];
        let observables = |r: &RunReport<NodeId>| {
            let decisions: Vec<_> = r
                .decisions
                .iter()
                .map(|(&node, d)| (node, d.view.clone(), d.value))
                .collect();
            let killed: Vec<NodeId> = r.crashed.keys().copied().collect();
            (decisions, r.stats.clone(), killed)
        };
        for (graph, kills) in &cases {
            for config in [ProtocolConfig::faithful(), ProtocolConfig::optimized()] {
                let scenario = Scenario::builder(graph.clone())
                    .crashes(kills.iter().map(|&k| (k, SimTime::from_millis(1))))
                    .protocol(config)
                    .build();
                let sim = scenario.exec(Exec::new()).report;
                assert_eq!(sim.decisions.len(), 4, "whole border decides");
                for shards in [1, 4] {
                    let live = scenario
                        .exec(Exec::new().engine(Engine::Live { shards }))
                        .report;
                    let what = format!("{kills:?}, {shards} shards, {config:?}");
                    assert!(live.outcome.is_quiescent(), "{what}");
                    assert_eq!(observables(&sim), observables(&live), "{what}");
                }
            }
        }
    }

    #[test]
    fn probe_is_deterministic_and_shard_independent() {
        let scenario = torus_scenario();
        let a = probe_live(&scenario, 1, 7);
        let b = probe_live(&scenario, 4, 7);
        assert_eq!(a.trace_hash, b.trace_hash);
        assert_eq!(a.decisions, b.decisions);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.message_pairs, b.message_pairs);
        let c = probe_live(&scenario, 1, 8);
        // A different seed explores a different schedule (hash differs
        // with overwhelming likelihood on this scenario).
        assert_ne!(a.trace_hash, c.trace_hash);
    }

    #[test]
    fn probe_reports_pass_the_checker() {
        let scenario = Scenario::builder(path(9))
            .crash(NodeId(2), SimTime::from_millis(1))
            .crash(NodeId(6), SimTime::from_millis(2))
            .build();
        for seed in 0..8 {
            let report = probe_live(&scenario, 2, seed);
            let violations = check_spec(&report);
            assert!(violations.is_empty(), "seed {seed}: {violations:?}");
        }
    }

    #[test]
    fn probe_catches_inverted_arbitration() {
        use precipice_core::ProtocolConfig;
        // Adjacent kills force view arbitration; inverting it breaks
        // agreement in at least one explored schedule.
        let scenario = Scenario::builder(path(9))
            .crash(NodeId(3), SimTime::from_millis(1))
            .crash(NodeId(4), SimTime::from_millis(2))
            .protocol(ProtocolConfig {
                invert_arbitration: true,
                ..ProtocolConfig::default()
            })
            .build();
        let caught = (0..32).any(|seed| !check_spec(&probe_live(&scenario, 2, seed)).is_empty());
        assert!(caught, "inverted arbitration survived 32 live schedules");
    }
}
