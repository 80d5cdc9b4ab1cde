//! The same protocol, live: worker shards on real threads exchanging
//! events over bounded rings, and a kill-switch failure detector — no
//! simulator involved. Only the nodes a crash touches ever materialize.
//!
//! ```text
//! cargo run --example live_threads
//! ```

use std::time::Duration;

use precipice::consensus::ProtocolConfig;
use precipice::graph::{torus, GridDims, NodeId};
use precipice::net::{live_consistent, ShardedCluster};

fn main() {
    let graph = torus(GridDims::square(5));
    let shards = 2;
    println!("starting {shards} shards over {} nodes...", graph.len());
    let mut cluster = ShardedCluster::start(graph.clone(), ProtocolConfig::optimized(), shards);

    // Kill two adjacent nodes, a beat apart.
    println!("killing n12...");
    cluster.kill(NodeId(12));
    std::thread::sleep(Duration::from_millis(30));
    println!("killing n13...");
    cluster.kill(NodeId(13));

    let quiescent = cluster.await_quiescence(Duration::from_secs(20));
    println!("quiescent: {quiescent}");
    println!("activated {} of {} nodes", cluster.activated(), graph.len());

    let report = cluster.shutdown();
    println!("\ndecisions ({}):", report.decisions.len());
    for (node, (view, coordinator)) in &report.decisions {
        println!(
            "  {node} decided {} (border {}) -> coordinator {coordinator}",
            view.region(),
            view.border()
        );
    }

    // Sanity: equal regions -> equal values; distinct regions disjoint.
    assert!(
        live_consistent(&report, &graph),
        "uniform agreement & view convergence"
    );
    println!("\nuniform agreement & view convergence hold across threads ✓");
}
