//! Tenancy: many instances on one resident pool of shard workers.
//!
//! An instance owns no thread — worker `i` of the process-wide pool
//! runs shard `i` of whichever instance a token names (protocol in the
//! `shard` module docs). These tests pin what that sharing must not
//! change or leak: a tenant reports what it would report alone; an
//! instance is gone, exactly, when `shutdown()` returns; opening and
//! closing never changes the thread count; one tenant's storm or panic
//! is its own.
//!
//! Every test here shares the pool with the others, as instances in one
//! `precipice serve` process do. No test uses more than four shards.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use precipice_core::{NodeIdValuePolicy, ProtocolConfig};
use precipice_graph::{path, ring, torus, Graph, GridDims, NodeId};
use precipice_net::{live_consistent, LiveReport, ShardedCluster};

const TIMEOUT: Duration = Duration::from_secs(120);

/// Side of the storm torus and its 256 pairwise-distant crash sites:
/// every border is disjoint from every other, so each of the 1024
/// border nodes decides on its own single-node region.
const STORM_SIDE: usize = 64;

fn storm_lattice() -> Vec<NodeId> {
    let at = |row: usize, col: usize| NodeId((row * STORM_SIDE + col) as u32);
    (1..STORM_SIDE)
        .step_by(4)
        .flat_map(|row| (1..STORM_SIDE).step_by(4).map(move |col| at(row, col)))
        .collect()
}

/// Scenario `i` of the tenant ≡ solo matrix: a topology, kills whose
/// outcome no schedule can change (one kill, or two far apart), and a
/// shard count from 1 to 4.
fn scenario(i: usize) -> (Graph, Vec<NodeId>, usize) {
    let node = |n: usize| NodeId(n as u32);
    let shards = 1 + i % 4;
    match i % 3 {
        0 => (torus(GridDims::square(6)), vec![node(i * 5 % 36)], shards),
        1 => (ring(12), vec![node(i % 12), node((i + 6) % 12)], shards),
        _ => (path(9), vec![node(2), node(6)], shards),
    }
}

fn started(i: usize) -> ShardedCluster {
    let (graph, kills, shards) = scenario(i);
    let mut cluster = ShardedCluster::start(graph, ProtocolConfig::default(), shards);
    for k in kills {
        cluster.kill(k);
    }
    cluster
}

fn finished(cluster: ShardedCluster) -> LiveReport {
    assert!(cluster.await_quiescence(TIMEOUT), "drain");
    cluster.shutdown()
}

#[test]
fn tenants_report_what_they_report_alone() {
    const INSTANCES: usize = 16;
    // Up to five instances alive at once, opened and closed in a
    // rolling window so lifetimes overlap at both ends.
    let mut live = VecDeque::new();
    let mut together = Vec::new();
    for i in 0..INSTANCES {
        live.push_back(started(i));
        if live.len() == 5 {
            together.push(finished(live.pop_front().expect("five live")));
        }
    }
    together.extend(live.into_iter().map(finished));

    for (i, report) in together.iter().enumerate() {
        let solo = finished(started(i));
        assert!(!solo.decisions.is_empty(), "scenario {i} decides");
        assert_eq!(*report, solo, "scenario {i}: tenant vs solo");
    }
}

#[test]
fn shutdown_returns_with_the_instance_gone() {
    // The caller's `Arc` is the only one left the moment `shutdown()`
    // returns: no worker still holds the instance (and, in `precipice
    // serve`, a mapped million-node graph with it) while the next one
    // opens. Sporadic under a design where the worker's token is what
    // keeps the instance alive, hence the thousand lifecycles.
    let graph = Arc::new(torus(GridDims::square(32)));
    for lifecycle in 0..1000u32 {
        let mut cluster =
            ShardedCluster::start_shared(Arc::clone(&graph), ProtocolConfig::default(), 2);
        cluster.kill(NodeId(lifecycle * 37 % 1024));
        assert!(cluster.await_quiescence(TIMEOUT));
        let report = cluster.shutdown();
        assert_eq!(
            Arc::strong_count(&graph),
            1,
            "lifecycle {lifecycle}: a worker outlived shutdown()"
        );
        assert_eq!(report.decisions.len(), 4);
    }
}

/// Live pool workers, counted by thread name: `Threads:` in
/// `/proc/self/status` also counts the test harness's own threads,
/// which come and go as the other tests in this file do.
#[cfg(target_os = "linux")]
fn pool_workers() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("task list")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        // The kernel keeps 15 bytes of "precipice-shard-<i>".
        .filter(|comm| comm.starts_with("precipice-shard"))
        .count()
}

#[cfg(target_os = "linux")]
#[test]
fn thread_count_is_constant_across_lifecycles_and_drops() {
    let graph = Arc::new(torus(GridDims::square(STORM_SIDE)));
    let open =
        |shards| ShardedCluster::start_shared(Arc::clone(&graph), Default::default(), shards);
    // The widest instance any test here opens: the pool is full-grown.
    open(4).shutdown();
    assert_eq!(pool_workers(), 4);

    for cycle in 0..10_000u32 {
        let mut cluster = open(1 + cycle as usize % 4);
        if cycle % 100 == 0 {
            cluster.kill(NodeId(cycle % 4096));
            assert!(cluster.await_quiescence(TIMEOUT));
        }
        cluster.shutdown();
    }
    assert_eq!(pool_workers(), 4, "open/close changed the thread count");

    // Dropped mid-storm, never shut down: the queue drains on the
    // resident workers and the instance goes with its last event.
    let mut storm = open(1);
    for q in storm_lattice() {
        storm.kill(q);
    }
    drop(storm);
    let dropped = Instant::now();
    while Arc::strong_count(&graph) != 1 {
        assert!(
            dropped.elapsed() < TIMEOUT,
            "a dropped cluster never retired"
        );
        std::thread::yield_now();
    }
    assert_eq!(pool_workers(), 4, "a dropped cluster left a thread behind");
}

#[test]
fn a_storm_does_not_starve_a_neighbour_on_the_same_worker() {
    // A and B have one shard each, so worker 0 runs both. A's policy
    // factory stops the worker at A's first activation until `go`, and
    // again at its 1000th until `finish`: B's cliff is queued strictly
    // behind a storm that cannot finish before the test says so. A
    // worker that drained A until empty would sit in that second stop
    // with B untouched.
    let (entered_tx, entered_rx) = mpsc::channel();
    let (go_tx, go_rx) = mpsc::channel::<()>();
    let (finish_tx, finish_rx) = mpsc::channel::<()>();
    let mut activations = 0;
    let mut a = ShardedCluster::start_with(
        Arc::new(torus(GridDims::square(STORM_SIDE))),
        ProtocolConfig::default(),
        1,
        move |_me| {
            activations += 1;
            if activations == 1 {
                entered_tx.send(()).expect("test is listening");
                let _ = go_rx.recv();
            } else if activations == 1000 {
                let _ = finish_rx.recv();
            }
            NodeIdValuePolicy
        },
    );
    let mut b = ShardedCluster::start(torus(GridDims::square(8)), ProtocolConfig::default(), 1);

    let lattice = storm_lattice();
    for &q in &lattice {
        a.kill(q);
    }
    entered_rx
        .recv_timeout(TIMEOUT)
        .expect("A's storm is running");
    b.kill(NodeId(27));
    drop(go_tx);

    assert!(
        b.await_quiescence(Duration::from_secs(20)),
        "B waited for A's whole storm"
    );
    assert_eq!(b.decision_count(), 4);
    assert!(a.pending() > 0, "A's storm is still in flight");
    assert!(a.decision_count() < 4 * lattice.len());

    drop(finish_tx);
    assert!(a.await_quiescence(TIMEOUT));
    assert_eq!(a.shutdown().decisions.len(), 4 * lattice.len());
    assert_eq!(b.shutdown().decisions.len(), 4);
}

#[test]
fn a_panicking_policy_fails_its_own_instance_only() {
    // Same worker again: A's 500th activation panics in the middle of
    // its storm while B's identical storm is interleaved with it.
    let graph = Arc::new(torus(GridDims::square(STORM_SIDE)));
    let activations = AtomicUsize::new(0);
    let mut a = ShardedCluster::start_with(
        Arc::clone(&graph),
        ProtocolConfig::default(),
        1,
        move |_me| {
            if activations.fetch_add(1, Ordering::Relaxed) == 499 {
                panic!("policy exploded at activation 500");
            }
            NodeIdValuePolicy
        },
    );
    let mut b = ShardedCluster::start_shared(Arc::clone(&graph), ProtocolConfig::default(), 1);
    let lattice = storm_lattice();
    for &q in &lattice {
        a.kill(q);
        b.kill(q);
    }

    // A's queued events were discharged, not left for a timeout.
    assert!(
        a.await_quiescence(TIMEOUT),
        "a failed instance still drains"
    );
    assert_eq!(a.pending(), 0);
    assert_eq!(a.failure(), Some("policy exploded at activation 500"));
    assert!(a.decision_count() < 4 * lattice.len());
    // More work for a failed instance is refused, not queued.
    a.kill(NodeId(0));
    assert_eq!(a.pending(), 0);
    a.shutdown();

    assert!(b.await_quiescence(TIMEOUT));
    assert_eq!(b.failure(), None);
    for &q in &lattice {
        for border in graph.neighbors(q) {
            let (view, _) = b.decision_of(*border).expect("B's border decided");
            assert!(view.region().iter().eq([q]), "{border} decided on {q}");
        }
    }
    let report = b.shutdown();
    assert_eq!(report.decisions.len(), 4 * lattice.len());
    assert!(live_consistent(&report, &graph));
}
