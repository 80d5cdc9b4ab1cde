//! The same protocol, live: one OS thread per node, crossbeam FIFO
//! channels, and a kill-switch failure detector — no simulator involved.
//!
//! ```text
//! cargo run --example live_threads
//! ```

use std::time::Duration;

use precipice::consensus::ProtocolConfig;
use precipice::graph::{torus, GridDims, NodeId};
use precipice::net::LiveCluster;

fn main() {
    let graph = torus(GridDims::square(5));
    println!("starting {} node threads...", graph.len());
    let mut cluster = LiveCluster::start(graph, ProtocolConfig::optimized());

    // Kill two adjacent nodes, a beat apart.
    println!("killing n12...");
    cluster.kill(NodeId(12));
    std::thread::sleep(Duration::from_millis(30));
    println!("killing n13...");
    cluster.kill(NodeId(13));

    let quiescent = cluster.await_quiescence(Duration::from_secs(20));
    println!("quiescent: {quiescent}");

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
    let ds: Vec<_> = report.decisions.values().collect();
    for (i, (va, da)) in ds.iter().enumerate() {
        for (vb, db) in ds.iter().skip(i + 1) {
            if va.region() == vb.region() {
                assert_eq!(da, db, "uniform agreement");
            } else {
                assert!(!va.region().intersects(vb.region()), "view convergence");
            }
        }
    }
    println!("\nuniform agreement & view convergence hold across threads ✓");
}
