//! Delivery gating: deterministic schedule exploration on the *real*
//! sharded backend.
//!
//! The sim side explores adversarial schedules by replacing its event
//! queue's ordering (`SchedulePolicy`). The live backend has no queue
//! to reorder — events race through rings — so this module ports the
//! idea as a **gate**: with a gate installed, the router parks every
//! would-be post (protocol message or crash notification) in a central
//! table instead of the shard rings, and a controller releases exactly
//! one event at a time, waiting for the shards to go idle between
//! releases. The run still exercises the real machinery — pool
//! workers, rings, lazy activation, pending counters, the graph-backed
//! FD — but its interleaving becomes a pure function of the
//! controller's random seed.
//!
//! The enabled set mirrors the sim explorer's frontier: every pending
//! crash *injection*, every parked crash *notification*, and — per
//! `(from, to)` channel — only the **earliest** parked delivery (live
//! channels are FIFO, so later messages on a channel cannot overtake).
//!
//! One release is one tick of a logical clock; crash injections and
//! decisions are stamped with it, which is what lets the runtime's
//! checker replay its timing-sensitive properties (CD2) against a live
//! run.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use precipice_core::{ProtocolConfig, View};
use precipice_graph::{rng::SplitMix, Graph, NodeId};

use crate::cluster::{LiveReport, ShardedCluster};
use crate::shard::{lock, resident, ShardEvent};

/// Where the router parks events while a gate controller is driving.
#[derive(Debug)]
pub(crate) struct Gate<V> {
    parked: Mutex<Parked<V>>,
}

/// The next sequence number, beside the events parked so far in
/// sequence order: one lock, so numbering and queueing never interleave.
type Parked<V> = (u64, VecDeque<(u64, ShardEvent<V>)>);

impl<V> Gate<V> {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Gate {
            parked: Mutex::new((0, VecDeque::new())),
        })
    }

    /// Parks `event`, preserving global arrival order via a sequence
    /// number (channel FIFO needs it).
    pub(crate) fn park(&self, event: ShardEvent<V>) {
        let (next_seq, queue) = &mut *lock(&self.parked);
        queue.push_back((*next_seq, event));
        *next_seq += 1;
    }

    /// Removes and returns the parked event with sequence `seq`.
    fn take(&self, seq: u64) -> Option<ShardEvent<V>> {
        let queue = &mut lock(&self.parked).1;
        let at = queue.iter().position(|(s, _)| *s == seq)?;
        queue.remove(at).map(|(_, ev)| ev)
    }

    /// The current frontier: all parked notifications plus, per
    /// `(from, to)` channel, the earliest parked delivery. Returned as
    /// `(seq, label)` in sequence order.
    fn enabled(&self) -> Vec<(u64, EventLabel)> {
        let (_, parked) = &*lock(&self.parked);
        let mut earliest: BTreeMap<(NodeId, NodeId), u64> = BTreeMap::new();
        let mut out = Vec::new();
        for (seq, ev) in parked {
            match ev {
                ShardEvent::Notify { to, crashed } => {
                    out.push((
                        *seq,
                        EventLabel::Notify {
                            to: *to,
                            crashed: *crashed,
                        },
                    ));
                }
                ShardEvent::Deliver { to, from, .. } => {
                    earliest.entry((*from, *to)).or_insert(*seq);
                }
            }
        }
        for ((from, to), seq) in earliest {
            out.push((seq, EventLabel::Deliver { from, to }));
        }
        out.sort_by_key(|(seq, _)| *seq);
        out
    }
}

/// What a released event was, for hashing and message-pair recording.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventLabel {
    /// A crash notification to `to` about `crashed`.
    Notify {
        /// Observer being notified.
        to: NodeId,
        /// The crashed node.
        crashed: NodeId,
    },
    /// A protocol message on channel `(from, to)`.
    Deliver {
        /// Sender.
        from: NodeId,
        /// Receiver.
        to: NodeId,
    },
}

/// Everything a gated run observed, in logical-clock terms.
///
/// `crash_steps` / `decision_steps` are release-clock stamps: a node's
/// decision step is always greater than the steps of the crashes it
/// reacted to, which is what the runtime checker's timing-sensitive
/// properties need.
#[derive(Debug)]
pub struct GatedOutcome {
    /// Final report, same shape as a free-running shutdown.
    pub report: LiveReport,
    /// Every `(from, to)` protocol delivery, in release order.
    pub message_pairs: Vec<(NodeId, NodeId)>,
    /// Release step at which each node was crash-injected.
    pub crash_steps: Vec<(NodeId, u64)>,
    /// Release step at which each node decided.
    pub decision_steps: BTreeMap<NodeId, u64>,
    /// Total events released (the run's logical length).
    pub released: u64,
    /// FNV-1a hash of the release sequence — two gated runs explored
    /// the same schedule iff their order hashes match.
    pub order_hash: u64,
}

/// Runs one fully-gated schedule of the sharded backend: crash `kills`
/// (in the given order preference; the seed decides actual placement)
/// on `graph` and drive every delivery one release at a time.
///
/// Deterministic: the outcome is a pure function of
/// `(graph, config, kills, seed)` — independent of `shards`, wall-clock
/// speed, and thread scheduling. Exercised by the differential tests
/// and `precipice check --backend live`.
///
/// # Panics
///
/// Panics if the shards fail to drain a released event within 30 s,
/// or if the worker pool has to grow and the operating system refuses
/// the thread.
pub fn gated_run(
    graph: Arc<Graph>,
    config: ProtocolConfig,
    shards: usize,
    kills: &[NodeId],
    seed: u64,
) -> GatedOutcome {
    let gate = Gate::new();
    let mut cluster = ShardedCluster::launch(
        resident(),
        Arc::clone(&graph),
        config,
        shards,
        |_me| precipice_core::NodeIdValuePolicy,
        Some(Arc::clone(&gate)),
    )
    .expect("spawn shard worker");

    let mut rng = SplitMix::new(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut injections: VecDeque<NodeId> = kills.iter().copied().collect();
    let mut pairs = Vec::new();
    let mut crash_steps = Vec::new();
    let mut released = 0u64;
    let mut hash = 0xcbf2_9ce4_8422_2325u64; // FNV offset basis

    loop {
        // Frontier: all remaining injections + the gate's enabled set.
        let parked = gate.enabled();
        let choices = injections.len() + parked.len();
        if choices == 0 {
            break;
        }
        let pick = (rng.next_u64() % choices as u64) as usize;
        let step = cluster.bump_step();
        released += 1;
        if pick < injections.len() {
            let victim = injections.remove(pick).expect("index in range");
            crash_steps.push((victim, step));
            hash = fnv(hash, &[1, victim.0 as u64, 0, step]);
            cluster.kill(victim);
            // A kill's notifications park in the gate; nothing to wait
            // for.
            continue;
        }
        let (seq, label) = parked[pick - injections.len()];
        let event = gate.take(seq).expect("enabled event still parked");
        match label {
            EventLabel::Deliver { from, to } => {
                pairs.push((from, to));
                hash = fnv(hash, &[2, from.0 as u64, to.0 as u64, step]);
            }
            EventLabel::Notify { to, crashed } => {
                hash = fnv(hash, &[3, to.0 as u64, crashed.0 as u64, step]);
            }
        }
        cluster.release_gated(event);
        // Handler outputs go back to the gate uncharged, so the counter
        // returns to zero after exactly one handler invocation.
        assert!(
            cluster.await_quiescence(Duration::from_secs(30)),
            "shard failed to drain a gated release"
        );
    }

    let decision_steps = cluster.decision_steps();
    let report = cluster.shutdown();
    GatedOutcome {
        report,
        message_pairs: pairs,
        crash_steps,
        decision_steps,
        released,
        order_hash: hash,
    }
}

/// FNV-1a over a few words.
fn fnv(mut hash: u64, words: &[u64]) -> u64 {
    for w in words {
        for byte in w.to_le_bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x1000_0000_01b3);
        }
    }
    hash
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
        if View::new(graph, view.region().clone()).border() != view.border() {
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
    use precipice_graph::{path, torus, GridDims, Region};
    use std::collections::BTreeSet;

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
        let a = gated_run(
            Arc::clone(&graph),
            ProtocolConfig::default(),
            1,
            &[NodeId(9)],
            7,
        );
        let b = gated_run(
            Arc::clone(&graph),
            ProtocolConfig::default(),
            1,
            &[NodeId(9)],
            7,
        );
        assert_eq!(a.order_hash, b.order_hash);
        assert_eq!(a.report, b.report);
        assert_eq!(a.message_pairs, b.message_pairs);
        assert_eq!(a.decision_steps, b.decision_steps);
    }

    #[test]
    fn gated_run_is_shard_count_independent() {
        let graph = Arc::new(torus(GridDims::square(4)));
        let one = gated_run(
            Arc::clone(&graph),
            ProtocolConfig::default(),
            1,
            &[NodeId(5)],
            3,
        );
        let four = gated_run(
            Arc::clone(&graph),
            ProtocolConfig::default(),
            4,
            &[NodeId(5)],
            3,
        );
        assert_eq!(one.order_hash, four.order_hash);
        assert_eq!(one.report, four.report);
    }

    #[test]
    fn seed_sweep_is_shard_count_independent() {
        // 32 seeds x adjacent + distant kills: every release waits on
        // the zero-transition waiter, so a wake-up that came early (a
        // handler still posting) or late would shift the parked set and
        // with it the order hash, the decisions or their steps.
        let graph = Arc::new(torus(GridDims::square(4)));
        let kills = [NodeId(5), NodeId(6), NodeId(15)];
        for seed in 0..32 {
            let run = |shards| {
                gated_run(
                    Arc::clone(&graph),
                    ProtocolConfig::default(),
                    shards,
                    &kills,
                    seed,
                )
            };
            let (one, four) = (run(1), run(4));
            assert_eq!(one.order_hash, four.order_hash, "seed {seed}");
            assert_eq!(one.report, four.report, "seed {seed}");
            assert_eq!(one.decision_steps, four.decision_steps, "seed {seed}");
            assert_eq!(one.crash_steps, four.crash_steps, "seed {seed}");
            assert_eq!(one.released, four.released, "seed {seed}");
        }
    }

    #[test]
    fn different_seeds_explore_different_orders() {
        let graph = Arc::new(torus(GridDims::square(4)));
        let hashes: BTreeSet<u64> = (0..6)
            .map(|seed| {
                gated_run(
                    Arc::clone(&graph),
                    ProtocolConfig::default(),
                    2,
                    &[NodeId(5), NodeId(6)],
                    seed,
                )
                .order_hash
            })
            .collect();
        assert!(hashes.len() > 1, "six seeds must not all collapse");
    }

    #[test]
    fn gated_agreement_matches_protocol_on_path() {
        let outcome = gated_run(
            Arc::new(path(5)),
            ProtocolConfig::default(),
            2,
            &[NodeId(2)],
            11,
        );
        assert_eq!(outcome.report.decisions.len(), 2);
        assert!(live_consistent(&outcome.report, &path(5)));
        // Decisions happen strictly after the crash they react to.
        let crash_step = outcome.crash_steps[0].1;
        for &at in outcome.decision_steps.values() {
            assert!(at > crash_step);
        }
    }
}
