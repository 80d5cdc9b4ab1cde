//! Stress for the exactness of `await_quiescence`: whenever it returns
//! `true`, nothing may happen afterwards.
//!
//! The sharded runtime detects quiescence from one outstanding-event
//! counter (invariant in the `shard` module docs). A counter that could
//! read zero with an event queued or a handler running — a charge after
//! the push, an acknowledgement before the handler's own posts are
//! charged, a sum over per-shard counters read one after another —
//! would let `await_quiescence` return early; the run would then keep
//! deciding behind the caller's back. Every round here pins what the
//! caller saw at wake-up against what the cluster holds 50 ms later and
//! against the final `shutdown()` report. The topologies put every
//! border across a shard-range boundary, so each agreement hops between
//! shards.

use std::time::Duration;

use precipice_core::ProtocolConfig;
use precipice_graph::{ring, torus, Graph, GridDims, NodeId};
use precipice_net::ShardedCluster;

const TIMEOUT: Duration = Duration::from_secs(120);
const ROUNDS: usize = 70;

/// One round: kill, await, then demand that the wake-up was final.
fn round(graph: Graph, shards: usize, kills: &[NodeId], label: &str) {
    let mut cluster = ShardedCluster::start(graph, ProtocolConfig::default(), shards);
    for &k in kills {
        cluster.kill(k);
    }
    assert!(cluster.await_quiescence(TIMEOUT), "{label}: drain");
    assert_eq!(cluster.pending(), 0, "{label}: woken with work outstanding");
    let decisions = cluster.decisions_snapshot();
    let counters = cluster.counters();
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(cluster.pending(), 0, "{label}: work appeared after wake-up");
    assert_eq!(
        cluster.counters(),
        counters,
        "{label}: a handler ran after wake-up"
    );
    assert_eq!(
        cluster.decisions_snapshot(),
        decisions,
        "{label}: decided after wake-up"
    );
    assert!(!decisions.is_empty(), "{label}: nobody decided");
    assert_eq!(cluster.shutdown().decisions, decisions, "{label}: report");
}

/// `ROUNDS` rounds cycling 2, 3 and 4 shards; `kills(r)` picks the
/// round's victims.
fn stress(name: &str, graph: impl Fn() -> Graph, kills: impl Fn(u32) -> [NodeId; 3]) {
    for r in 0..ROUNDS {
        let shards = 2 + r % 3;
        let victims = kills(r as u32);
        let label = format!("{name} round {r}, {shards} shards, kills {victims:?}");
        round(graph(), shards, &victims, &label);
    }
}

/// ring:12 — shard ranges of 6, 4 and 3 nodes; an adjacent pair walks
/// round the ring (crossing every range boundary, and the 11 → 0 wrap
/// between the last and first shard) with a third kill opposite it.
#[test]
fn ring_borders_straddle_every_shard_boundary() {
    stress(
        "ring:12",
        || ring(12),
        |r| [r % 12, (r + 1) % 12, (r + 6) % 12].map(NodeId),
    );
}

/// torus:4 — at 4 shards each row is a shard, so every kill's vertical
/// neighbours live on two other shards.
#[test]
fn torus_rows_are_shards() {
    stress(
        "torus:4",
        || torus(GridDims::square(4)),
        |r| [r % 16, (r + 1) % 16, (r + 10) % 16].map(NodeId),
    );
}

/// torus:6, kills in row 0 — their upward neighbours wrap to row 5, in
/// the last shard, while the row itself sits in the first; a third kill
/// in row 3 decides independently in between.
#[test]
fn torus_wrap_row_spans_first_and_last_shard() {
    stress(
        "torus:6 wrap row",
        || torus(GridDims::square(6)),
        |r| [r % 6, (r + 1) % 6, 18 + r % 6].map(NodeId),
    );
}
