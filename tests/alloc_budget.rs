//! Allocation pins for the protocol hot path, counted rather than
//! timed: a counting `#[global_allocator]` (which is why this is its own
//! test binary) and thread-local counters, so the harness's other
//! threads never show up in a measurement.
//!
//! Two pins on the protocol, both of which the tree-per-round
//! `Instance` and the id-indexed crashed-set mirror of `CliffEdgeNode`
//! exceeded:
//!
//! - allocations per simulated event of one `Scenario::exec` on the
//!   shape the `check_fuzz` benchmark workload explores;
//! - bytes one border node of a 2²⁰-node torus allocates to learn of a
//!   crash and take a neighbour's proposal — O(border), whatever the
//!   magnitude of the ids.
//!
//! Two on the graph's set kernels: a border, the components of a set and
//! a connectivity check allocate the same on a small torus and a
//! million-node one, and checking a border allocates nothing on either.
//!
//! And two on what an explored schedule costs after it has run:
//!
//! - folding a probe's coverage in again allocates nothing;
//! - `check_spec_coverage` allocates the same on a report whatever
//!   number of channels its messages used.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;
use std::sync::Arc;

use precipice_core::{
    CliffEdgeNode, Event, Message, NodeIdValuePolicy, Opinion, OpinionVector, ProtocolConfig,
};
use precipice_graph::{
    connected_components, is_connected_subset, torus, GridDims, NodeId, Region, Topology,
};
use precipice_runtime::{check_spec_coverage, probe_coverage, Exec, Scenario};
use precipice_sim::{CoverageMap, LatencyModel, SchedulePolicy, SimConfig, SimTime};
use precipice_workload::patterns::{blob_of_size, schedule, CrashTiming};
use precipice_workload::RegionSpec;

struct Counting;

thread_local! {
    /// `(allocations, bytes)` requested by this thread; reallocations
    /// count as one allocation of the new size.
    static ALLOCATED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn count(bytes: usize) {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = ALLOCATED.try_with(|c| {
        let (allocations, total) = c.get();
        c.set((allocations + 1, total + bytes as u64));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one the caller upholds; counting touches only a
// `Cell` in thread-local storage and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `(allocations, bytes)` this thread requested while `work` ran.
fn allocated_by<R>(work: impl FnOnce() -> R) -> (R, u64, u64) {
    let (allocations, bytes) = ALLOCATED.get();
    let result = work();
    let (allocations_after, bytes_after) = ALLOCATED.get();
    (result, allocations_after - allocations, bytes_after - bytes)
}

/// The `check_fuzz` shape: a `blob:16` at the centre of a 12×12 torus
/// crashing at once at 1 ms, trace recorded, faithful protocol,
/// latencies as the benchmark draws them.
fn fuzz_shape() -> Scenario {
    let side = 12;
    let graph = torus(GridDims::square(side));
    let centre = NodeId((side / 2 * side + side / 2) as u32);
    let region = blob_of_size(&graph, centre, 16);
    let crashes = schedule(
        region.iter(),
        CrashTiming::Simultaneous(SimTime::from_millis(1)),
    );
    Scenario::builder(graph)
        .name("alloc-budget")
        .crashes(crashes)
        .sim_config(SimConfig {
            seed: 1,
            latency: LatencyModel::Uniform {
                min: SimTime::from_micros(200),
                max: SimTime::from_millis(2),
            },
            fd_latency: LatencyModel::Uniform {
                min: SimTime::from_millis(1),
                max: SimTime::from_millis(5),
            },
            record_trace: true,
            max_events: Some(200_000_000),
        })
        .build()
}

/// Ceiling on allocations per event of one cold `exec` — slot arenas
/// growing from empty included — just above the worst of the three
/// policies below: 0.526 / 0.605 / 0.563 in a release build and in a
/// debug one, whose check of each merged border against the topology
/// allocates nothing (0.578 / 0.673 / 0.610 while that check built a
/// second border per crash, 0.630 / 0.742 / 0.658 while that border went
/// through bitsets). Those include the one `Arc<Message>` each multicast
/// shares among its copies, and the growth of the slot's per-target
/// dependent index. Recomputing every component of the crashed set and
/// reading its border from a shared memo on each crash took 0.747 /
/// 0.917 / 0.818; the tree-per-round instance state took 2.3–2.5, and a
/// `Vec` of actions plus a recipient `Vec` per multicast, built for every
/// event and unpacked by the engine, took 0.85–1.04.
const ALLOCATIONS_PER_EVENT: f64 = if cfg!(debug_assertions) { 0.68 } else { 0.61 };

#[test]
fn an_explored_schedule_stays_within_its_allocation_budget() {
    let scenario = fuzz_shape();
    for policy in [
        SchedulePolicy::Fifo,
        SchedulePolicy::Random(1),
        SchedulePolicy::Pcr(2),
    ] {
        let label = format!("{policy:?}");
        let (outcome, allocations, bytes) =
            allocated_by(|| scenario.exec(Exec::new().schedule(policy)));
        let events = outcome.report.outcome.events();
        let per_event = allocations as f64 / events as f64;
        println!(
            "alloc_budget: {label}: {allocations} allocations, {bytes} bytes, \
             {events} events, {per_event:.3} allocations per event"
        );
        assert!(events > 1000, "{label}: the blob must be agreed on");
        assert!(
            per_event <= ALLOCATIONS_PER_EVENT,
            "{label}: {per_event:.3} allocations per event, \
             budget {ALLOCATIONS_PER_EVENT}"
        );
    }
}

/// A `side × side` torus answering neighbour queries from arithmetic, so
/// a million-node topology costs the test nothing to build.
struct ImplicitTorus {
    side: u32,
}

impl ImplicitTorus {
    fn node(&self, x: u32, y: u32) -> NodeId {
        NodeId((y % self.side) * self.side + x % self.side)
    }
}

impl Topology for ImplicitTorus {
    fn neighbors_of(&self, p: NodeId) -> Vec<NodeId> {
        let (x, y) = (p.0 % self.side, p.0 / self.side);
        let mut neighbors = vec![
            self.node(x + 1, y),
            self.node(x + self.side - 1, y),
            self.node(x, y + 1),
            self.node(x, y + self.side - 1),
        ];
        neighbors.sort_unstable();
        neighbors
    }

    fn node_count(&self) -> usize {
        (self.side * self.side) as usize
    }
}

/// Ceiling on the bytes below, just above what they measure: 2216 in a
/// release build, 2280 in a debug one (its merged-border check; 2468
/// while the topology's border went through two `BTreeSet`s). The
/// from-scratch components took 2548 in either.
const BORDER_NODE_BYTES: u64 = 2304;

#[test]
fn a_border_node_of_a_million_node_torus_allocates_by_border_not_by_id() {
    let topology = ImplicitTorus { side: 1024 };
    let centre = topology.node(512, 512);
    let me = topology.node(513, 512);
    let neighbour = topology.node(511, 512);
    let view = Region::from_iter([centre]);
    let border: Region = topology.neighbors_of(centre).into_iter().collect();
    let mut opinions = OpinionVector::new();
    opinions.insert(neighbour, Opinion::Accept(neighbour));
    let proposal = Arc::new(Message {
        round: 1,
        view,
        border,
        opinions: Arc::new(opinions),
    });

    let mut node = CliffEdgeNode::new(me, topology, NodeIdValuePolicy, ProtocolConfig::faithful());
    // Through the recording host, which copies each node list it is
    // handed into an `Action` (two monitor target lists and one recipient
    // list here); an engine host copies none.
    let (actions, allocations, bytes) = allocated_by(|| {
        let mut actions = node.handle(Event::Init);
        actions.extend(node.handle(Event::Crash(centre)));
        actions.extend(node.handle(Event::Deliver {
            from: neighbour,
            message: proposal,
        }));
        actions
    });
    println!("alloc_budget: border node at 2^20: {allocations} allocations, {bytes} bytes");
    assert!(node.is_active(), "the crash must start an instance");
    assert_eq!(actions.len(), 3, "monitor, monitor, propose: {actions:?}");
    assert!(
        bytes <= BORDER_NODE_BYTES,
        "{bytes} bytes for one crash and one proposal at ids near 2^19, \
         budget {BORDER_NODE_BYTES}"
    );
}

/// `border_of`, `connected_components` and `is_connected_subset` are
/// priced by the set they are asked about: a `blob:8` carved at the
/// centre of a 32×32 torus and of a 1024×1024 one costs each of them the
/// same allocations and the same bytes, whatever `n` or the magnitude of
/// the ids. A kernel that sized anything by `n` — a bitset over the id
/// range, a visited array per node — would differ.
#[test]
fn the_set_kernels_allocate_by_the_set_not_by_the_graph() {
    let blob: RegionSpec = "blob:8".parse().unwrap();
    let costs: Vec<_> = [32u32, 1024]
        .into_iter()
        .map(|side| {
            let graph = torus(GridDims::square(side as usize));
            let centre = NodeId(side / 2 * side + side / 2);
            let region = blob.carve(&graph, Some(centre)).unwrap();
            let members: BTreeSet<NodeId> = region.iter().collect();
            let (border, border_allocations, border_bytes) =
                allocated_by(|| graph.border_of(region.iter()));
            let (components, components_allocations, components_bytes) =
                allocated_by(|| connected_components(&graph, &members));
            let (connected, connected_allocations, connected_bytes) =
                allocated_by(|| is_connected_subset(&graph, &region));
            println!(
                "alloc_budget: blob:8 on torus:{side}: border_of {border_allocations} / \
                 {border_bytes} B, connected_components {components_allocations} / \
                 {components_bytes} B, is_connected_subset {connected_allocations} / \
                 {connected_bytes} B"
            );
            assert_eq!(region.len(), 8);
            assert!(!border.is_empty() && connected && components.len() == 1);
            [
                (border_allocations, border_bytes),
                (components_allocations, components_bytes),
                (connected_allocations, connected_bytes),
            ]
        })
        .collect();
    assert_eq!(costs[0], costs[1], "torus:32 against torus:1024");
}

/// `is_border_of`, the node's debug check of each border it grows, is
/// binary searches over sorted rows: on a `blob:8` it allocates nothing,
/// on a small torus or a million-node one.
#[test]
fn checking_a_border_allocates_nothing() {
    let blob: RegionSpec = "blob:8".parse().unwrap();
    for side in [32u32, 1024] {
        let graph = torus(GridDims::square(side as usize));
        let centre = NodeId(side / 2 * side + side / 2);
        let region = blob.carve(&graph, Some(centre)).unwrap();
        let border: Region = graph.border_of(region.iter()).into_iter().collect();
        let (holds, allocations, bytes) = allocated_by(|| graph.is_border_of(&region, &border));
        println!("alloc_budget: blob:8 on torus:{side}: is_border_of {allocations} / {bytes} B");
        assert!(holds, "torus:{side}");
        assert_eq!((allocations, bytes), (0, 0), "torus:{side}");
    }
}

/// Every probe of an exploration is folded into its coverage map, and
/// most of what a late probe carries is already there. Folding a probe
/// in again finds nothing new and allocates nothing: its keys are
/// interned, its pairs are in the table, and the fold's scratch buffer
/// is the one the first fold sized.
#[test]
fn refolding_a_probe_allocates_nothing() {
    let scenario = fuzz_shape();
    let outcome = scenario.exec(Exec::new().schedule(SchedulePolicy::Pcr(2)));
    let (violations, probe) = probe_coverage(&outcome);
    assert!(violations.is_empty());
    let mut coverage = CoverageMap::new();
    assert!(coverage.observe(&probe));
    let (novel, allocations, bytes) = allocated_by(|| coverage.observe(&probe));
    println!(
        "alloc_budget: refold of {} race pairs: {allocations} allocations, {bytes} bytes",
        probe.pairs.len()
    );
    assert!(!novel, "a probe folded twice is not novel the second time");
    assert!(probe.pairs.len() > 1000);
    assert_eq!((allocations, bytes), (0, 0));
}

/// Allocations of one `check_spec_coverage` of the traced FIFO run on
/// the `check_fuzz` shape, 6456 messages over 399 channels: 129 in a
/// release build and in a debug one. CD2's border and connectivity
/// checks of each decided view through bitsets took 241; deduplicating
/// the channels in a `BTreeSet` took 296, and 257 with the messages cut
/// down to a quarter of the channels — one more B-tree node every few
/// channels.
const CHECK_SPEC_ALLOCATIONS: u64 = 129;

/// CD3 deduplicates the report's messages by channel in one flat set,
/// sized by the message count, so the checker's allocations do not grow
/// with the channels: the full report, and the same report cut down to
/// its first messages over a quarter of its channels, cost the same.
#[test]
fn checking_a_report_allocates_the_same_whatever_its_channels() {
    let report = fuzz_shape().exec(Exec::new()).report;
    let pairs = report
        .message_pairs
        .as_ref()
        .expect("the shape records a trace");
    let mut channels = BTreeSet::new();
    for &pair in pairs {
        channels.insert(pair);
    }
    let all = channels.len();
    channels.clear();
    let kept = pairs
        .iter()
        .position(|&pair| channels.insert(pair) && channels.len() > all / 4)
        .expect("a quarter of the channels is reached");
    let mut head = report.clone();
    head.message_pairs.as_mut().unwrap().truncate(kept);
    let mut counts = Vec::new();
    for report in [&report, &head] {
        let ((violations, _), allocations, bytes) = allocated_by(|| check_spec_coverage(report));
        let messages = report.message_pairs.as_ref().unwrap().len();
        println!(
            "alloc_budget: check_spec_coverage of {messages} messages: \
             {allocations} allocations, {bytes} bytes"
        );
        assert!(violations.is_empty());
        counts.push(allocations);
    }
    assert_eq!(counts[0], counts[1], "{all} channels against {}", all / 4);
    assert!(
        counts[0] <= CHECK_SPEC_ALLOCATIONS,
        "{} allocations, budget {CHECK_SPEC_ALLOCATIONS}",
        counts[0]
    );
}
