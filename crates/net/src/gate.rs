//! Delivery gating: the simulator's schedule explorer, driving the
//! *real* sharded backend. With a gate installed the router parks every
//! would-be post here instead of in the shard rings, and [`gated_run`]
//! releases one event at a time, waiting for the shards to go idle in
//! between: the run exercises the real machinery — pool workers, rings,
//! lazy activation, pending counters, the graph-backed FD — but the next
//! event is picked by the simulator's own [`Explorer`], so every
//! [`SchedulePolicy`], recorded [`Schedule`], replay and shrink carries
//! over between the engines.
//!
//! The gate is a frontier in the simulator's sense, kept seq-sorted: the
//! crash injections (parked first, in the order given, as the run slot
//! commits a scenario's crashes), every parked notification, and per
//! `(from, to)` channel only the earliest parked delivery. Entries are
//! named by [`EventKey`]s, a delivery's `nth` being the count released
//! on its channel before it. Every `at` is zero, so the simulator's FIFO
//! choice, the `(at, seq)` minimum, is the earliest parked event. One
//! release is one tick of the logical clock that stamps crash
//! injections and decisions, which is what lets the runtime's checker
//! replay its timing-sensitive properties (CD2) against a live run.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use precipice_core::{DecisionPolicy, Message, ProtocolConfig, View};
use precipice_graph::{rng::mix64, Graph, NodeId};
use precipice_sim::{EventKey, Explorer, FrontierEntry, Schedule, SchedulePolicy, SimTime};

use crate::cluster::{LiveReport, ShardedCluster};
use crate::shard::{lock, resident, RouterCounters, ShardEvent};

/// Where the router parks events while a gate controller is driving.
#[derive(Debug)]
pub(crate) struct Gate<V> {
    parked: Mutex<Parked<V>>,
}

/// The enabled events in seq order — what a policy picks from — with
/// their keys (`keys[i]` names `frontier[i]`), the next sequence number,
/// the events released so far (the logical clock), and per channel the deliveries released so far and those parked, the
/// front one on the frontier.
#[derive(Debug)]
struct Parked<V> {
    frontier: Vec<FrontierEntry>,
    keys: Vec<EventKey>,
    next_seq: u64,
    released: u64,
    channels: BTreeMap<(NodeId, NodeId), Channel<V>>,
}

type Release<V> = (u64, EventKey, Option<ShardEvent<V>>);
type Channel<V> = (u32, VecDeque<(u64, Arc<Message<V>>)>);

impl<V> Parked<V> {
    /// Puts `key`, parked as `seq`, on the frontier at its place in seq
    /// order: an append, unless a delivery is unblocked behind later ones.
    fn enable(&mut self, seq: u64, key: EventKey) {
        let target = match key {
            EventKey::Crash { node } => node,
            EventKey::Notify { observer, .. } => observer,
            EventKey::Deliver { to, .. } => to,
        };
        let (idx, at) = (0, SimTime::ZERO);
        let i = self.frontier.partition_point(|e| e.seq < seq);
        let entry = FrontierEntry {
            idx,
            seq,
            at,
            target,
        };
        self.frontier.insert(i, entry);
        self.keys.insert(i, key);
    }
}

impl<V> Gate<V> {
    /// A gate holding the crash injections of `kills`, in that order.
    pub(crate) fn new(kills: &[NodeId]) -> Arc<Self> {
        let mut parked = Parked {
            frontier: Vec::new(),
            keys: Vec::new(),
            next_seq: kills.len() as u64,
            released: 0,
            channels: BTreeMap::new(),
        };
        for (seq, &node) in (0..).zip(kills) {
            parked.enable(seq, EventKey::Crash { node });
        }
        Arc::new(Gate {
            parked: Mutex::new(parked),
        })
    }

    /// Events released so far: the clock decisions are stamped with.
    pub(crate) fn released(&self) -> u64 {
        lock(&self.parked).released
    }

    /// Parks `event`: a notification goes straight onto the frontier, a
    /// delivery behind whatever its channel still holds.
    pub(crate) fn park(&self, event: ShardEvent<V>) {
        let parked = &mut *lock(&self.parked);
        let seq = parked.next_seq;
        parked.next_seq += 1;
        match event {
            ShardEvent::Notify { to, crashed } => {
                parked.enable(
                    seq,
                    EventKey::Notify {
                        observer: to,
                        crashed,
                    },
                );
            }
            ShardEvent::Deliver { to, from, message } => {
                let (released, queue) = parked.channels.entry((from, to)).or_default();
                queue.push_back((seq, message));
                if queue.len() == 1 {
                    let nth = *released;
                    parked.enable(seq, EventKey::Deliver { from, to, nth });
                }
            }
        }
    }

    /// Lets `explorer` pick an enabled event (index 0, the earliest
    /// parked, is the FIFO choice) and takes it off the frontier,
    /// enabling the next delivery on its channel; with the release's clock
    /// tick, and no post for a crash injection. `None` once nothing is
    /// parked.
    fn release(&self, explorer: &mut Explorer) -> Option<Release<V>> {
        let parked = &mut *lock(&self.parked);
        if parked.frontier.is_empty() {
            return None;
        }
        let (frontier, keys) = (&parked.frontier, &parked.keys);
        // The FIFO choice's dependents, by a filter: the gate is not hot.
        let target = frontier[0].target;
        let dependents: Vec<u64> = frontier
            .iter()
            .filter(|f| f.target == target)
            .map(|f| f.seq)
            .collect();
        let pick = explorer.choose(frontier, 0, || dependents.into_iter(), |i| keys[i]);
        parked.frontier.remove(pick);
        let key = parked.keys.remove(pick);
        parked.released += 1;
        let post = match key {
            EventKey::Crash { .. } => None,
            EventKey::Notify { observer, crashed } => Some(ShardEvent::Notify {
                to: observer,
                crashed,
            }),
            EventKey::Deliver { from, to, .. } => {
                let (released, queue) = parked.channels.get_mut(&(from, to)).expect("parked");
                let (_, message) = queue.pop_front().expect("an enabled delivery is queued");
                *released += 1;
                if let Some((seq, nth)) = queue.front().map(|&(seq, _)| (seq, *released)) {
                    parked.enable(seq, EventKey::Deliver { from, to, nth });
                }
                Some(ShardEvent::Deliver { to, from, message })
            }
        };
        Some((parked.released, key, post))
    }
}

/// Everything a gated run observed, in logical-clock terms.
///
/// `crash_steps` / `decision_steps` are release-clock stamps: a node's
/// decision step is always greater than the steps of the crashes it
/// reacted to, which is what the runtime checker's timing-sensitive
/// properties need.
#[derive(Debug)]
pub struct GatedOutcome<V = NodeId> {
    /// Final report, same shape as a free-running shutdown.
    pub report: LiveReport<V>,
    /// Every `(from, to)` protocol message released, in release order
    /// (copies to a dead node included; they are dropped where handled).
    pub message_pairs: Vec<(NodeId, NodeId)>,
    /// Release step at which each node was crash-injected.
    pub crash_steps: Vec<(NodeId, u64)>,
    /// Release step at which each node decided.
    pub decision_steps: BTreeMap<NodeId, u64>,
    /// Total events released (the run's logical length).
    pub released: u64,
    /// Hash of the release sequence — two gated runs explored
    /// the same schedule iff their order hashes match.
    pub order_hash: u64,
    /// The policy's deviations from the gate's FIFO order, replayable.
    pub schedule: Schedule,
    /// Transport accounting at the end of the run.
    pub counters: RouterCounters,
}

/// Runs one fully-gated schedule of the sharded backend: crash-injects
/// `kills` and drives every post one release at a time, each picked by
/// `policy` through the simulator's [`Explorer`] ([`SchedulePolicy::Fifo`]:
/// earliest parked first). `factory` builds each node's decision policy.
///
/// Deterministic: the outcome is a pure function of `(graph, config,
/// kills, policy)` — independent of `shards`, wall-clock speed, and
/// thread scheduling — and replaying its
/// [`schedule`](GatedOutcome::schedule) reproduces it.
///
/// # Panics
///
/// Panics if the shards fail to drain a released event within 30 s,
/// or if the worker pool has to grow and the operating system refuses
/// the thread.
pub fn gated_run<P, F>(
    graph: Arc<Graph>,
    config: ProtocolConfig,
    shards: usize,
    kills: &[NodeId],
    policy: SchedulePolicy,
    factory: F,
) -> GatedOutcome<P::Value>
where
    P: DecisionPolicy + Send + 'static,
    P::Value: Send + Sync,
    F: FnMut(NodeId) -> P + Send + 'static,
{
    let gate = Gate::new(kills);
    let gated = Some(Arc::clone(&gate));
    let mut cluster = ShardedCluster::launch(resident(), graph, config, shards, factory, gated)
        .expect("spawn shard worker");
    let mut explorer = Explorer::new(policy)
        .or_else(|| Explorer::new(SchedulePolicy::Replay(Schedule::fifo())))
        .expect("a replay explores");
    let mut pairs = Vec::new();
    let mut crash_steps = Vec::new();
    let mut hash = 0u64;

    while let Some((step, key, post)) = gate.release(&mut explorer) {
        let (tag, a, b) = match key {
            EventKey::Crash { node } => (1, node, NodeId(0)),
            EventKey::Deliver { from, to, .. } => (2, from, to),
            EventKey::Notify { observer, crashed } => (3, observer, crashed),
        };
        let words = [tag, u64::from(a.0), u64::from(b.0), step];
        hash = words.iter().fold(hash, |hash, &word| mix64(hash ^ word));
        let Some(post) = post else {
            // A crash injection: its notifications park in the gate, so
            // there is nothing to wait for.
            crash_steps.push((a, step));
            cluster.kill(a);
            continue;
        };
        if matches!(key, EventKey::Deliver { .. }) {
            pairs.push((a, b));
        }
        cluster.instance.router.release(post);
        // Handler outputs go back to the gate uncharged, so the counter
        // returns to zero after exactly one handler invocation.
        assert!(
            cluster.await_quiescence(Duration::from_secs(30)),
            "shard failed to drain a gated release"
        );
    }

    let decision_steps = cluster.decision_steps();
    let counters = cluster.counters();
    GatedOutcome {
        report: cluster.shutdown(),
        message_pairs: pairs,
        crash_steps,
        decision_steps,
        released: explorer.steps(),
        order_hash: hash,
        schedule: explorer.take_recorded(),
        counters,
    }
}

/// Sanity verdict over a gated (or free-running) live report: every
/// decision internally consistent and all pairs in agreement. This is
/// the cheap live-side check; the full CD1–CD7 oracle lives in the
/// runtime crate and runs over an assembled `RunReport`.
pub fn live_consistent(report: &LiveReport, graph: &Graph) -> bool {
    for (node, (view, _)) in &report.decisions {
        if !view.region().iter().all(|q| report.killed.contains(&q)) {
            return false;
        }
        if !view.border().contains(*node) {
            return false;
        }
        if graph.border_of(view.region().iter()) != view.border().as_slice() {
            return false;
        }
    }
    let decisions: Vec<&(View, NodeId)> = report.decisions.values().collect();
    pairs_agree(&decisions)
}

/// `true` if any two decisions whose regions overlap are the same
/// `(view, value)`. Two overlapping regions share a crashed node, so
/// this is "every crashed node is claimed by one `(view, value)`": one
/// pass over the regions with a map from node to its first claimant,
/// instead of a comparison per pair of decisions.
fn pairs_agree(decisions: &[&(View, NodeId)]) -> bool {
    let mut claimant: BTreeMap<NodeId, usize> = BTreeMap::new();
    for (mine, decision) in decisions.iter().enumerate() {
        // The last claimant this decision was found equal to: a region
        // shared whole with an earlier decision costs one comparison.
        let mut equal_to = mine;
        for q in decision.0.region().iter() {
            let first = *claimant.entry(q).or_insert(mine);
            if first != mine && first != equal_to {
                if decisions[first] != *decision {
                    return false;
                }
                equal_to = first;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use precipice_core::NodeIdValuePolicy;
    use precipice_graph::{path, ring, rng::SplitMix, torus, GridDims, Region};
    use std::collections::BTreeSet;

    /// One gated run under the default config and decision policy.
    fn run(
        graph: &Arc<Graph>,
        shards: usize,
        kills: &[NodeId],
        policy: SchedulePolicy,
    ) -> GatedOutcome {
        let config = ProtocolConfig::default();
        gated_run(Arc::clone(graph), config, shards, kills, policy, |_me| {
            NodeIdValuePolicy
        })
    }

    /// Asserts that two gated runs are the same run.
    fn assert_same(a: &GatedOutcome, b: &GatedOutcome, what: &str) {
        assert_eq!(a.order_hash, b.order_hash, "{what}");
        assert_eq!(a.report, b.report, "{what}");
        assert_eq!(a.message_pairs, b.message_pairs, "{what}");
        assert_eq!(a.decision_steps, b.decision_steps, "{what}");
        assert_eq!(a.crash_steps, b.crash_steps, "{what}");
        assert_eq!(a.released, b.released, "{what}");
        assert_eq!(a.schedule, b.schedule, "{what}");
    }

    /// The definition [`pairs_agree`] replaced, kept as its oracle:
    /// compare every pair of decisions.
    fn pairs_agree_pairwise(decisions: &[&(View, NodeId)]) -> bool {
        decisions.iter().enumerate().all(|(i, a)| {
            decisions[i + 1..]
                .iter()
                .all(|b| !a.0.region().intersects(b.0.region()) || a == b)
        })
    }

    #[test]
    fn one_pass_agreement_matches_the_pairwise_oracle() {
        // Random decision sets over a few regions of a 5x5 torus that
        // nest, partially overlap and sit apart, each held by zero to
        // three deciders with values that mostly, not always, match.
        let graph = torus(GridDims::square(5));
        let regions: Vec<Region> = [
            &[6][..],
            &[6, 7],
            &[7, 8],
            &[6, 7, 8],
            &[12],
            &[12, 13, 17],
            &[17, 18],
            &[21],
        ]
        .iter()
        .map(|nodes| nodes.iter().copied().map(NodeId).collect())
        .collect();
        let views: Vec<View> = regions
            .iter()
            .map(|r| View::new(&graph, r.clone()))
            .collect();
        let overlapping = |a: &View, b: &View| a.region().intersects(b.region());

        let (mut clean, mut partial_overlap, mut value_only) = (0, 0, 0);
        for seed in 0..4000u64 {
            let mut rng = SplitMix::new(seed);
            let mut picked = Vec::new();
            for view in &views {
                let deciders = rng.next_u64() % 4;
                let shared = NodeId((rng.next_u64() % 2) as u32);
                for _ in 0..deciders.saturating_sub(1) {
                    let stray = rng.next_u64().is_multiple_of(8);
                    let value = if stray { NodeId(2) } else { shared };
                    picked.push((view.clone(), value));
                }
            }
            // Deciders arrive in no particular order.
            for i in (1..picked.len()).rev() {
                picked.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
            }
            let decisions: Vec<&(View, NodeId)> = picked.iter().collect();
            let verdict = pairs_agree(&decisions);
            assert_eq!(verdict, pairs_agree_pairwise(&decisions), "seed {seed}");

            let pairs = || {
                decisions
                    .iter()
                    .enumerate()
                    .flat_map(|(i, a)| decisions[i + 1..].iter().map(move |b| (*a, *b)))
            };
            if verdict {
                clean += 1;
            } else if pairs().any(|(a, b)| a.0 != b.0 && overlapping(&a.0, &b.0)) {
                partial_overlap += 1;
            } else {
                assert!(
                    pairs().any(|(a, b)| a.0 == b.0 && a.1 != b.1),
                    "seed {seed}"
                );
                value_only += 1;
            }
        }
        // Every kind of verdict was exercised, not just the easy one.
        assert!(clean > 50, "{clean} agreeing sets");
        assert!(partial_overlap > 50, "{partial_overlap} partial overlaps");
        assert!(value_only > 50, "{value_only} value disagreements");
    }

    #[test]
    fn gated_run_is_deterministic_per_seed() {
        let graph = Arc::new(torus(GridDims::square(4)));
        let a = run(&graph, 1, &[NodeId(9)], SchedulePolicy::Random(7));
        let b = run(&graph, 1, &[NodeId(9)], SchedulePolicy::Random(7));
        assert_same(&a, &b, "Random(7) twice");
    }

    #[test]
    fn gated_run_is_shard_count_independent() {
        let graph = Arc::new(torus(GridDims::square(4)));
        let one = run(&graph, 1, &[NodeId(5)], SchedulePolicy::Random(3));
        let four = run(&graph, 4, &[NodeId(5)], SchedulePolicy::Random(3));
        assert_same(&one, &four, "1 vs 4 shards");
    }

    #[test]
    fn seed_sweep_is_shard_count_independent() {
        // Every release waits on the zero-transition waiter, so a wake-up
        // that came early (a handler still posting) or late would shift
        // the frontier and with it the order hash, the decisions or their
        // steps. Each schedule — under `Random`, `Pcr` and the gate's FIFO
        // order, the streams `check --backend live`'s mixed policy draws
        // on — is recorded at one shard, run again at four, and replayed
        // through the gate at one and four: all four are the same run.
        let cases: [(Graph, &[u32]); 6] = [
            (path(9), &[3, 4]),
            (path(9), &[2, 6]),
            (ring(10), &[2, 3, 4]),
            (ring(10), &[0, 9, 5]),
            (torus(GridDims::square(4)), &[5, 6, 15]),
            (torus(GridDims::square(4)), &[5, 6, 10]),
        ];
        for (graph, kills) in cases {
            let graph = Arc::new(graph);
            let kills: Vec<NodeId> = kills.iter().copied().map(NodeId).collect();
            let policies = (0..4)
                .flat_map(|seed| [SchedulePolicy::Random(seed), SchedulePolicy::Pcr(seed)])
                .chain([SchedulePolicy::Fifo]);
            for policy in policies {
                let what = format!("kills {kills:?} under {policy:?}");
                let recorded = run(&graph, 1, &kills, policy.clone());
                assert_same(&recorded, &run(&graph, 4, &kills, policy), &what);
                for shards in [1, 4] {
                    let replay = SchedulePolicy::Replay(recorded.schedule.clone());
                    let replayed = run(&graph, shards, &kills, replay);
                    let what = format!("{what}, replayed at {shards} shards");
                    assert_same(&recorded, &replayed, &what);
                }
            }
        }
    }

    #[test]
    fn fifo_releases_the_crashes_first_and_records_no_deviation() {
        // Crash injections are parked ahead of everything, so the gate's
        // FIFO order kills them all, in the order given, before any
        // notification goes out.
        let graph = Arc::new(torus(GridDims::square(4)));
        let fifo = run(&graph, 2, &[NodeId(6), NodeId(5)], SchedulePolicy::Fifo);
        assert_eq!(fifo.crash_steps, [(NodeId(6), 1), (NodeId(5), 2)]);
        assert!(fifo.schedule.is_empty());
        assert!(live_consistent(&fifo.report, &graph));
    }

    #[test]
    fn different_seeds_explore_different_orders() {
        let graph = Arc::new(torus(GridDims::square(4)));
        let hashes: BTreeSet<u64> = (0..6)
            .map(|seed| {
                let kills = [NodeId(5), NodeId(6)];
                run(&graph, 2, &kills, SchedulePolicy::Random(seed)).order_hash
            })
            .collect();
        assert!(hashes.len() > 1, "six seeds must not all collapse");
    }

    #[test]
    fn gated_agreement_matches_protocol_on_path() {
        let graph = Arc::new(path(5));
        let outcome = run(&graph, 2, &[NodeId(2)], SchedulePolicy::Random(11));
        assert_eq!(outcome.report.decisions.len(), 2);
        assert!(live_consistent(&outcome.report, &path(5)));
        // Decisions happen strictly after the crash they react to.
        let crash_step = outcome.crash_steps[0].1;
        for &at in outcome.decision_steps.values() {
            assert!(at > crash_step);
        }
    }

    /// The verdict recomputes each border, so it refuses a wrong one.
    #[test]
    fn the_verdict_refuses_a_wrong_border_without_the_memo() {
        let graph = torus(GridDims::square(4));
        let region = Region::from_iter([NodeId(9)]);
        let border = Region::from_iter(graph.border_of(region.iter()));
        let report = |border: &Region| LiveReport {
            decisions: border
                .iter()
                .map(|p| {
                    (
                        p,
                        (View::from_parts(region.clone(), border.clone()), NodeId(5)),
                    )
                })
                .collect(),
            stats: BTreeMap::new(),
            killed: BTreeSet::from([NodeId(9)]),
        };
        assert!(live_consistent(&report(&border), &graph));
        let short = Region::from_iter(border.iter().skip(1));
        assert!(!live_consistent(&report(&short), &graph));
    }
}
