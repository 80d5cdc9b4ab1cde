//! The perfect failure detector's policy (paper §3.1), shared by the
//! simulator and the live runtime.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use precipice_graph::{Graph, NodeId};

/// State of the perfect failure detector service (paper §3.1).
///
/// The detector is *subscription-based*: node `p` asks to be notified of
/// the crash of `q` (`⟨monitorCrash | {q}⟩`); when `q` crashes, every
/// subscriber eventually receives exactly one `⟨crash | q⟩` notification.
/// Subscribing to an already-crashed node triggers an immediate (delayed
/// by the detection latency) notification — required for strong
/// completeness when detection races with subscription.
///
/// # Graph-backed static monitoring
///
/// Every cliff-edge node's first act is `monitorCrash(border(me))`
/// (Algorithm 1, line 4) — under an eager start that costs O(|E|)
/// subscription bookkeeping before the first event fires. A detector
/// built with [`with_static_graph`](FailureDetector::with_static_graph)
/// instead treats the neighbourhood rule as *structural*: every node is
/// considered subscribed to each of its graph neighbours from time zero,
/// and a crashed node's observers are resolved **at crash time** as
/// `neighbors(q) ∪ dynamic subscribers`, in ascending id order — the
/// same set, in the same order, that explicit init-time subscriptions
/// would have produced, so notification scheduling (and hence every RNG
/// draw and trace entry downstream) is bit-identical to the eager
/// detector. Only subscriptions *beyond* the subscriber's own
/// neighbourhood (line 7's `monitorCrash(border(q))` for a crashed `q`)
/// are recorded dynamically. This is semantically the paper's
/// `monitorCrash(border(p))`, resolved lazily.
///
/// The detector is *perfect* because both engines drive it from the
/// authoritative crash schedule — the simulator's scheduled crashes, the
/// live runtime's induced kills: it never suspects a live node (strong
/// accuracy) and never misses a crashed one (strong completeness).
///
/// This type only decides *who* is notified; delivering the notification
/// is the engine's job (the simulator's run slot schedules it after a
/// detection latency, the live runtime's router posts it to the
/// observer's shard).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FailureDetector {
    /// When set, `neighbors(q)` are implicit subscribers of `q` (see the
    /// type docs); `subscribers` then only holds out-of-neighbourhood
    /// dynamic subscriptions.
    static_graph: Option<Arc<Graph>>,
    /// target -> set of subscribed observers not yet notified.
    subscribers: BTreeMap<NodeId, BTreeSet<NodeId>>,
    /// (observer, target) pairs already notified or with a notification
    /// in flight — guards the exactly-once contract.
    notified: BTreeSet<(NodeId, NodeId)>,
    /// Crashed nodes.
    crashed: BTreeSet<NodeId>,
}

impl FailureDetector {
    /// A detector with no subscriptions and no crashes.
    pub fn new() -> Self {
        FailureDetector::default()
    }

    /// A detector whose static monitoring rule is `graph`: every node
    /// implicitly monitors its neighbours from time zero (see the type
    /// docs). Subscriptions covered by the rule become no-ops; everything
    /// else behaves exactly like [`new`](FailureDetector::new).
    pub fn with_static_graph(graph: Arc<Graph>) -> Self {
        FailureDetector {
            static_graph: Some(graph),
            ..FailureDetector::default()
        }
    }

    /// `true` if `node` has crashed.
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.crashed.contains(&node)
    }

    /// The set of crashed nodes.
    pub fn crashed(&self) -> &BTreeSet<NodeId> {
        &self.crashed
    }

    /// Records that `observer` monitors `target`.
    ///
    /// Returns `true` if a notification must be scheduled *now* because
    /// `target` already crashed (and `observer` was not yet notified).
    #[must_use]
    pub fn subscribe(&mut self, observer: NodeId, target: NodeId) -> bool {
        // A statically covered pair needs no bookkeeping, before or after
        // the crash: the crash of `target` resolves `observer` from the
        // graph and marks the pair notified then.
        let covered = self
            .static_graph
            .as_ref()
            .is_some_and(|g| g.has_edge(observer, target));
        if covered {
            return false;
        }
        if self.crashed.contains(&target) {
            return self.notified.insert((observer, target));
        }
        self.subscribers.entry(target).or_default().insert(observer);
        false
    }

    /// Records the crash of `node` and returns the observers that must be
    /// notified (each at most once, ever), in ascending id order. Empty if
    /// `node` had already crashed. Observers that have crashed themselves
    /// are included; the engines drop their notifications at delivery.
    pub fn record_crash(&mut self, node: NodeId) -> Vec<NodeId> {
        if !self.crashed.insert(node) {
            return Vec::new();
        }
        let dynamic = self.subscribers.remove(&node).unwrap_or_default();
        let neighbours = self
            .static_graph
            .as_ref()
            .map_or(&[][..], |g| g.neighbors(node));
        let mut observers: Vec<NodeId> = neighbours.iter().copied().chain(dynamic).collect();
        observers.sort_unstable();
        observers.dedup();
        observers.retain(|&obs| self.notified.insert((obs, node)));
        observers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use precipice_graph::path;
    use precipice_graph::rng::SplitMix;

    #[test]
    fn subscribe_then_crash_notifies_once() {
        let mut fd = FailureDetector::new();
        assert!(!fd.subscribe(NodeId(1), NodeId(9)));
        assert!(!fd.subscribe(NodeId(2), NodeId(9)));
        // Duplicate subscription is idempotent.
        assert!(!fd.subscribe(NodeId(1), NodeId(9)));
        let notified = fd.record_crash(NodeId(9));
        assert_eq!(notified, vec![NodeId(1), NodeId(2)]);
        // Re-subscribing after notification stays silent.
        assert!(!fd.subscribe(NodeId(1), NodeId(9)));
    }

    #[test]
    fn subscribe_after_crash_fires_immediately() {
        let mut fd = FailureDetector::new();
        assert!(fd.record_crash(NodeId(4)).is_empty());
        assert!(fd.subscribe(NodeId(0), NodeId(4)));
        // Exactly once.
        assert!(!fd.subscribe(NodeId(0), NodeId(4)));
        assert!(fd.is_crashed(NodeId(4)));
        assert!(!fd.is_crashed(NodeId(0)));
    }

    #[test]
    fn unsubscribed_observers_not_notified() {
        let mut fd = FailureDetector::new();
        assert!(!fd.subscribe(NodeId(1), NodeId(5)));
        let notified = fd.record_crash(NodeId(6));
        assert!(notified.is_empty(), "nobody subscribed to n6");
    }

    /// Fan-out order is part of the determinism contract: observers are
    /// notified in ascending node-id order, no matter the order in which
    /// they subscribed (the subscriber set is a `BTreeSet`, not an
    /// insertion log). The simulator then stamps each notification with
    /// its own detection latency, so the *wire* order may differ — but
    /// the scheduling order (and hence the seq tie-break) is pinned.
    #[test]
    fn fanout_order_is_ascending_regardless_of_subscription_order() {
        let mut fd = FailureDetector::new();
        for obs in [7, 2, 9, 4, 0] {
            assert!(!fd.subscribe(NodeId(obs), NodeId(5)));
        }
        let notified = fd.record_crash(NodeId(5));
        assert_eq!(
            notified,
            vec![NodeId(0), NodeId(2), NodeId(4), NodeId(7), NodeId(9)],
            "fan-out must be ascending by observer id"
        );
    }

    /// Duplicate subscriptions collapse: however many times an observer
    /// re-subscribes before the crash, the crash yields one notification
    /// and later re-subscriptions stay silent forever.
    #[test]
    fn duplicate_subscriptions_collapse_to_one_notification() {
        let mut fd = FailureDetector::new();
        for _ in 0..5 {
            assert!(!fd.subscribe(NodeId(3), NodeId(8)));
        }
        assert_eq!(fd.record_crash(NodeId(8)), vec![NodeId(3)]);
        for _ in 0..5 {
            assert!(
                !fd.subscribe(NodeId(3), NodeId(8)),
                "notified pairs never fire again"
            );
        }
    }

    /// Crash-before-subscribe is tracked per (observer, target) pair:
    /// each late subscriber gets its own immediate notification exactly
    /// once, and pairs on other targets are unaffected.
    #[test]
    fn crash_before_subscribe_is_per_pair() {
        let mut fd = FailureDetector::new();
        assert!(fd.record_crash(NodeId(1)).is_empty());
        // Two late observers: both fire, independently.
        assert!(fd.subscribe(NodeId(4), NodeId(1)));
        assert!(fd.subscribe(NodeId(5), NodeId(1)));
        assert!(!fd.subscribe(NodeId(4), NodeId(1)), "exactly once each");
        // The same observers' subscriptions to a live node stay pending
        // and fire through the normal path later.
        assert!(!fd.subscribe(NodeId(4), NodeId(2)));
        assert_eq!(fd.record_crash(NodeId(2)), vec![NodeId(4)]);
    }

    #[test]
    fn crashed_set_tracks_all_crashes() {
        let mut fd = FailureDetector::new();
        fd.record_crash(NodeId(1));
        fd.record_crash(NodeId(3));
        assert_eq!(
            fd.crashed().iter().copied().collect::<Vec<_>>(),
            vec![NodeId(1), NodeId(3)]
        );
    }

    /// Graph-backed rule: crash resolution covers all graph neighbours
    /// (whether or not any of them ever subscribed) merged in ascending
    /// order with out-of-neighbourhood dynamic subscribers — exactly the
    /// observer set explicit init-time subscriptions would produce.
    #[test]
    fn static_graph_resolves_neighbors_at_crash_time() {
        // Star around node 2: neighbors(2) = {0, 1, 3, 4}.
        let g = Arc::new(Graph::from_edges(
            6,
            [(2, 0), (2, 1), (2, 3), (2, 4), (4, 5)],
        ));
        let mut fd = FailureDetector::with_static_graph(Arc::clone(&g));
        // n5 is not adjacent to n2 — a genuinely dynamic subscription.
        assert!(!fd.subscribe(NodeId(5), NodeId(2)));
        // A statically covered subscription is a silent no-op.
        assert!(!fd.subscribe(NodeId(1), NodeId(2)));
        let notified = fd.record_crash(NodeId(2));
        assert_eq!(
            notified,
            vec![NodeId(0), NodeId(1), NodeId(3), NodeId(4), NodeId(5)],
            "neighbors ∪ dynamic subscribers, ascending"
        );
        // Exactly-once holds for static pairs too.
        assert!(!fd.subscribe(NodeId(0), NodeId(2)));
        assert!(!fd.subscribe(NodeId(5), NodeId(2)));
    }

    /// Subscribing to an already-crashed node fires immediately exactly
    /// when the pair was not statically resolved at crash time.
    #[test]
    fn static_graph_late_subscription_semantics() {
        let g = Arc::new(Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]));
        let mut fd = FailureDetector::with_static_graph(g);
        assert_eq!(fd.record_crash(NodeId(1)), vec![NodeId(0), NodeId(2)]);
        // Static neighbours were notified at crash time: silent.
        assert!(!fd.subscribe(NodeId(0), NodeId(1)));
        // n3 is two hops away: a late dynamic subscription fires now,
        // exactly once.
        assert!(fd.subscribe(NodeId(3), NodeId(1)));
        assert!(!fd.subscribe(NodeId(3), NodeId(1)));
    }

    #[test]
    fn subscribe_then_kill_notifies_once() {
        let mut fd = FailureDetector::with_static_graph(Arc::new(path(9)));
        // 0 monitors the non-neighbour 5 twice; 4 and 6 are implicit.
        assert!(!fd.subscribe(NodeId(0), NodeId(5)));
        assert!(!fd.subscribe(NodeId(0), NodeId(5)));
        // A neighbour's explicit monitor adds nothing to the implicit one.
        assert!(!fd.subscribe(NodeId(4), NodeId(5)));
        assert_eq!(
            fd.record_crash(NodeId(5)),
            vec![NodeId(0), NodeId(4), NodeId(6)],
            "ascending, each observer once"
        );
        for observer in [0, 4, 6].map(NodeId) {
            assert!(
                !fd.subscribe(observer, NodeId(5)),
                "{observer} notified twice"
            );
        }
    }

    #[test]
    fn late_subscription_fires_immediately() {
        let mut fd = FailureDetector::with_static_graph(Arc::new(path(12)));
        fd.record_crash(NodeId(9));
        assert!(fd.is_crashed(NodeId(9)));
        assert!(!fd.is_crashed(NodeId(1)));
        assert!(fd.subscribe(NodeId(1), NodeId(9)), "fires now");
        assert!(!fd.subscribe(NodeId(1), NodeId(9)), "and only once");
    }

    #[test]
    fn double_kill_is_noop() {
        let mut fd = FailureDetector::with_static_graph(Arc::new(path(5)));
        let _ = fd.subscribe(NodeId(0), NodeId(2));
        assert_eq!(fd.record_crash(NodeId(2)).len(), 3);
        assert!(fd.record_crash(NodeId(2)).is_empty());
        assert!(fd.is_crashed(NodeId(2)));
    }

    /// What lets the live router skip its detector lock for `Init`'s
    /// monitor: under the graph-backed rule, subscribing along any edge
    /// returns `false` and leaves the detector as it was — before the
    /// target's crash and after it. Random graphs and crash orders, each
    /// edge probed in both directions after every crash.
    #[test]
    fn a_covered_subscription_changes_nothing() {
        precipice_graph::rng::cases("a_covered_subscription_changes_nothing", 200, |rng| {
            let n = rng.gen_range(2..16u64) as u32;
            let edges: Vec<(u32, u32)> = (0..n)
                .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
                .filter(|_| rng.gen_bool(0.3))
                .collect();
            let graph = Arc::new(Graph::from_edges(n as usize, edges.iter().copied()));
            let mut fd = FailureDetector::with_static_graph(graph);
            let mut order: Vec<NodeId> = (0..n).map(NodeId).collect();
            rng.shuffle(&mut order);
            let crashes = rng.gen_range(0..=order.len());
            for step in 0..=crashes {
                for &(u, v) in &edges {
                    for (p, t) in [(u, v), (v, u)].map(|(p, t)| (NodeId(p), NodeId(t))) {
                        let before = fd.clone();
                        assert!(!fd.subscribe(p, t), "{p} -> {t} after {step} crashes");
                        assert_eq!(fd, before, "{p} -> {t} after {step} crashes");
                    }
                }
                let Some(&q) = order.get(step).filter(|_| step < crashes) else {
                    break;
                };
                // Some dynamic state beside the static rule, then the crash.
                let stranger = order[rng.gen_range(0..order.len())];
                let _ = fd.subscribe(stranger, q);
                let _ = fd.record_crash(q);
            }
        });
    }

    /// The whole policy against a brute-force model: a pair is notified
    /// exactly once iff it is monitored — statically (graph neighbours,
    /// in static mode) or by a `subscribe` — and its target crashed; the
    /// notification comes from `subscribe` iff the pair was monitored
    /// after the crash, from `record_crash` (ascending) otherwise. Random
    /// graphs, crash orders and monitor calls — neighbours, strangers,
    /// crashed targets, repeats, dead observers — in both modes.
    #[test]
    fn matches_a_brute_force_model() {
        for seed in 0..2000u64 {
            let mut rng = SplitMix::new(seed);
            let n = 2 + rng.below(14) as u32;
            let mut edges = Vec::new();
            for u in 0..n {
                for v in u + 1..n {
                    if rng.below(4) == 0 {
                        edges.push((u, v));
                    }
                }
            }
            let graph = Arc::new(Graph::from_edges(n as usize, edges.iter().copied()));
            let is_static = seed % 2 == 0;
            let (mut fd, mut monitored) = if is_static {
                let pairs = edges
                    .iter()
                    .flat_map(|&(u, v)| [(NodeId(u), NodeId(v)), (NodeId(v), NodeId(u))]);
                (
                    FailureDetector::with_static_graph(Arc::clone(&graph)),
                    pairs.collect(),
                )
            } else {
                (FailureDetector::new(), BTreeSet::new())
            };
            let mut notified: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();
            let mut crashed: BTreeSet<NodeId> = BTreeSet::new();
            for step in 0..48 {
                let ctx = format!("seed {seed} step {step}");
                let a = NodeId(rng.below(n as usize) as u32);
                if rng.below(3) == 0 {
                    let expected: Vec<NodeId> = if crashed.insert(a) {
                        let fire: Vec<NodeId> = monitored
                            .iter()
                            .filter(|&&(o, t)| t == a && !notified.contains(&(o, t)))
                            .map(|&(o, _)| o)
                            .collect();
                        notified.extend(fire.iter().map(|&o| (o, a)));
                        fire
                    } else {
                        Vec::new()
                    };
                    assert_eq!(fd.record_crash(a), expected, "{ctx}: crash {a}");
                } else {
                    let target = NodeId(rng.below(n as usize) as u32);
                    monitored.insert((a, target));
                    let now = crashed.contains(&target) && notified.insert((a, target));
                    assert_eq!(fd.subscribe(a, target), now, "{ctx}: {a} monitors {target}");
                }
                assert_eq!(fd.crashed(), &crashed, "{ctx}");
            }
            let due: BTreeSet<_> = monitored
                .into_iter()
                .filter(|(_, t)| crashed.contains(t))
                .collect();
            assert_eq!(
                notified, due,
                "seed {seed}: notified iff monitored and crashed"
            );
        }
    }
}
