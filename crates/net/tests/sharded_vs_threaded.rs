//! Differential suite of the sharded event-loop runtime.
//!
//! The file name is historical: the reference used to be a
//! thread-per-node backend, retired once the sharded runtime was the
//! proven default. On scenarios whose observables are
//! schedule-independent (single kills, disjoint distant kills) the final
//! [`LiveReport`]s — decisions, stats, killed set — must be **equal**
//! however the node ranges are cut. The reference arm here is the
//! 1-shard run, where every event crosses one ring in one thread; this
//! crate cannot see the simulator, so the simulator-reference half of
//! the matrix lives in the umbrella crate's `tests/net_backend.rs` and
//! in the runtime crate's `live` tests.
//!
//! The suite also hosts the footprint headline: a 10⁶-node mapped torus
//! served by one process, answering a full crash → agreement → read
//! round-trip while activating only the four border nodes.

use std::time::{Duration, Instant};

use precipice_core::{NodeIdValuePolicy, ProtocolConfig};
use precipice_graph::{path, stream_torus, torus, Graph, GridDims, NodeId};
use precipice_net::{gated_run, LiveReport, ServeSession, ShardedCluster};
use precipice_sim::SchedulePolicy;

// Generous: these tests share the machine with the rest of the suite.
const TIMEOUT: Duration = Duration::from_secs(120);

/// Runs the scenario on the sharded runtime with `shards` workers.
fn sharded(graph: Graph, config: ProtocolConfig, kills: &[NodeId], shards: usize) -> LiveReport {
    let mut cluster = ShardedCluster::start(graph, config, shards);
    for &k in kills {
        cluster.kill(k);
    }
    assert!(cluster.await_quiescence(TIMEOUT), "sharded drain");
    cluster.shutdown()
}

/// Asserts that the report is the same at 1 shard (the reference), 2
/// and 4, under both protocol configs, and that both scenarios' four
/// border nodes decide.
fn assert_shard_count_independent(graph: &Graph, kills: &[NodeId]) {
    for config in [ProtocolConfig::faithful(), ProtocolConfig::optimized()] {
        let reference = sharded(graph.clone(), config, kills, 1);
        assert_eq!(reference.decisions.len(), 4, "({config:?})");
        assert_eq!(
            reference.killed.iter().copied().collect::<Vec<_>>(),
            kills.to_vec()
        );
        for shards in [2, 4] {
            let report = sharded(graph.clone(), config, kills, shards);
            assert_eq!(reference, report, "1 vs {shards} shards ({config:?})");
        }
    }
}

/// Single kill on a torus: the canonical schedule-independent scenario.
/// Decisions, stats and the killed set must agree field for field
/// between the 1-shard reference run and the runtime at 2 and 4 shards.
#[test]
fn single_kill_reports_are_identical_across_backends() {
    assert_shard_count_independent(&torus(GridDims::square(4)), &[NodeId(9)]);
}

/// Two distant kills on a path: two independent agreement instances,
/// still schedule-independent in every observable.
#[test]
fn distant_kills_reports_are_identical_across_backends() {
    assert_shard_count_independent(&path(9), &[NodeId(2), NodeId(6)]);
}

/// Adjacent kills race region merging, so free-running stats may differ
/// — but the *gated* runs are bit-deterministic in (scenario, seed) and
/// shard-count independent, which is what `check --backend live` rests
/// on.
#[test]
fn gated_adjacent_kills_are_shard_count_independent() {
    let kills = [NodeId(5), NodeId(6)];
    for seed in [0, 1, 7] {
        let gated = |shards| {
            gated_run(
                std::sync::Arc::new(torus(GridDims::square(4))),
                ProtocolConfig::faithful(),
                shards,
                &kills,
                SchedulePolicy::Random(seed),
                |_me| NodeIdValuePolicy,
            )
        };
        let (a, b) = (gated(1), gated(4));
        assert_eq!(a.report, b.report, "seed {seed}");
        assert_eq!(a.order_hash, b.order_hash, "seed {seed}");
        assert_eq!(a.message_pairs, b.message_pairs, "seed {seed}");
        assert_eq!(a.crash_steps, b.crash_steps, "seed {seed}");
        assert_eq!(a.decision_steps, b.decision_steps, "seed {seed}");
    }
}

/// The serve headline: one process hosts a 10⁶-node torus from a mapped
/// `.pcsr` store and answers a full crash → agreement → read round-trip,
/// activating only the crashed node's border. Wall-capped: the whole
/// round-trip (including the streamed graph build) must finish well
/// inside the suite budget.
#[test]
fn serve_hosts_a_million_node_mapped_torus() {
    let dir = std::env::temp_dir().join("precipice-serve-smoke");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let pcsr = dir.join("torus-1m.pcsr");
    let t0 = Instant::now();
    stream_torus(
        GridDims {
            width: 1000,
            height: 1000,
        },
        &pcsr,
    )
    .expect("stream 10^6-node torus");

    let mut session = ServeSession::new(2);
    let open = session.handle_line(&format!(
        "{{\"cmd\":\"open\",\"id\":\"big\",\"topology\":\"pcsr:{}\"}}",
        pcsr.display()
    ));
    assert!(open.contains("\"ok\":true"), "open: {open}");
    assert!(open.contains("\"nodes\":1000000"), "open: {open}");

    // Kill the center node (500, 500); its torus border is the 4
    // neighbours.
    let crash = session.handle_line("{\"cmd\":\"crash\",\"id\":\"big\",\"node\":500500}");
    assert!(crash.contains("\"ok\":true"), "crash: {crash}");
    let awaited = session.handle_line("{\"cmd\":\"await\",\"id\":\"big\",\"timeout_ms\":60000}");
    assert!(awaited.contains("\"quiescent\":true"), "await: {awaited}");

    let read = session.handle_line("{\"cmd\":\"read\",\"id\":\"big\",\"node\":499500}");
    assert!(read.contains("\"decided\":true"), "read: {read}");
    assert!(read.contains("\"region\":[500500]"), "read: {read}");
    assert!(read.contains("\"value\":499500"), "read: {read}");

    // Footprint: of 10^6 logical nodes, only the 4 border nodes ever
    // materialized.
    let status = session.handle_line("{\"cmd\":\"status\",\"id\":\"big\"}");
    assert!(status.contains("\"activated\":4"), "status: {status}");

    let bye = session.handle_line("{\"cmd\":\"shutdown\"}");
    assert!(bye.contains("\"consistent\":true"), "shutdown: {bye}");
    assert!(session.finished());

    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_secs(90),
        "round-trip took {elapsed:?}; footprint-proportional serving must not scale with n"
    );
    let _ = std::fs::remove_file(&pcsr);
}
