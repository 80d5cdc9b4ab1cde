//! The differential oracle: a deliberately naive, test-only interpreter
//! of the simulator's substrate (§2.2, §3.1 — FIFO channels, perfect
//! failure detector, scheduled crashes). One `Vec` of pending events in
//! push order, a linear scan per step for the enabled set and its
//! earliest member, B-trees for everything keyed; nothing shared with
//! the slot engine or its explorer beyond the value types.
//!
//! It runs FIFO or replays a [`Schedule`], nothing else: exploring
//! policies are checked record-then-replay (replay here what the slot
//! recorded and require the same run), which fails if the slot's
//! frontier ever offers a disabled event or misses an enabled one.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use precipice_core::FailureDetector;
use precipice_graph::{rng::Rng, Graph, NodeId};

use crate::explore::{Deviation, EventKey, Schedule};
use crate::process::{Command, Context, MessageSize, Process};
use crate::trace::TraceEntry;
use crate::{Metrics, RunOutcome, SimConfig, SimTime, Trace};

enum Kind<M> {
    Deliver { from: NodeId, to: NodeId, msg: M },
    Notify { observer: NodeId, crashed: NodeId },
    Crash { node: NodeId },
}

/// A lazy-start run, observable through its public fields afterwards.
pub(crate) struct Reference<P: Process> {
    config: SimConfig,
    spawn: Box<dyn FnMut(NodeId) -> P>,
    /// Deviations still to honor, by decision step; `None` under FIFO.
    replay: Option<BTreeMap<u64, EventKey>>,
    /// Pending events in push order (of equal times, the first was scheduled first).
    pending: Vec<(SimTime, Kind<P::Msg>)>,
    /// Per channel: last scheduled delivery time (the FIFO clamp), executed deliveries.
    channels: BTreeMap<(NodeId, NodeId), (SimTime, u32)>,
    fd: FailureDetector,
    rng: Rng,
    now: SimTime,
    steps: u64,
    pub(crate) nodes: BTreeMap<NodeId, P>,
    pub(crate) metrics: Metrics,
    pub(crate) trace: Trace,
    pub(crate) honored: Vec<Deviation>,
}

impl<P: Process> Reference<P> {
    /// A run of `crashes` over `graph`: FIFO, or a replay of `replay`.
    /// A node listed twice crashes once, at the earliest time listed,
    /// in the place of its first listing.
    pub(crate) fn new(
        config: SimConfig,
        graph: &Arc<Graph>,
        spawn: impl FnMut(NodeId) -> P + 'static,
        replay: Option<&Schedule>,
        crashes: &[(NodeId, SimTime)],
    ) -> Self {
        let mut pending: Vec<(SimTime, Kind<P::Msg>)> = Vec::new();
        for &(node, at) in crashes {
            let listed = pending
                .iter_mut()
                .find(|(_, kind)| matches!(kind, Kind::Crash { node: seen } if *seen == node));
            match listed {
                Some((earliest, _)) => *earliest = at.min(*earliest),
                None => pending.push((at, Kind::Crash { node })),
            }
        }
        Reference {
            config,
            spawn: Box::new(spawn),
            replay: replay.map(|s| s.deviations.iter().map(|d| (d.step, d.key)).collect()),
            pending,
            channels: BTreeMap::new(),
            fd: FailureDetector::with_static_graph(Arc::clone(graph)),
            rng: Rng::seed_from_u64(config.seed),
            now: SimTime::ZERO,
            steps: 0,
            nodes: BTreeMap::new(),
            metrics: Metrics::default(),
            trace: Trace::new(config.record_trace),
            honored: Vec::new(),
        }
    }

    pub(crate) fn run(&mut self) -> RunOutcome {
        while !self.pending.is_empty() && self.config.max_events.is_none_or(|c| self.steps < c) {
            let next = self.pick();
            let (at, kind) = self.pending.remove(next);
            self.steps += 1;
            self.now = self.now.max(at);
            self.dispatch(kind);
        }
        self.metrics.finished_at = self.now;
        let (events, at) = (self.steps, self.now);
        match self.pending.is_empty() {
            true => RunOutcome::Quiescent { events, at },
            false => RunOutcome::LimitReached { events, at },
        }
    }

    /// The stable name of pending event `i`, valid while it is enabled.
    fn key(&self, i: usize) -> EventKey {
        match self.pending[i].1 {
            Kind::Deliver { from, to, .. } => {
                let nth = self.channels.get(&(from, to)).map_or(0, |ch| ch.1);
                EventKey::Deliver { from, to, nth }
            }
            Kind::Notify { observer, crashed } => EventKey::Notify { observer, crashed },
            Kind::Crash { node } => EventKey::Crash { node },
        }
    }

    /// Index of the event to execute: the earliest enabled one (enabled:
    /// the first pending delivery per channel, every crash and notify)
    /// unless the schedule names another for this step (stale names don't).
    fn pick(&mut self) -> usize {
        let mut seen = BTreeSet::new();
        let enabled: Vec<usize> = (0..self.pending.len())
            .filter(|&i| match self.pending[i].1 {
                Kind::Deliver { from, to, .. } => seen.insert((from, to)),
                _ => true,
            })
            .collect();
        let fifo = *enabled.iter().min_by_key(|&&i| self.pending[i].0).unwrap();
        let step = self.steps;
        let named = self.replay.as_mut().and_then(|devs| devs.remove(&step));
        let find = |key| enabled.iter().copied().find(|&i| self.key(i) == key);
        let choice = named.and_then(find).unwrap_or(fifo);
        if choice != fifo {
            let key = self.key(choice);
            self.honored.push(Deviation { step, key });
        }
        if let Kind::Deliver { from, to, .. } = self.pending[choice].1 {
            self.channels.entry((from, to)).or_default().1 += 1;
        }
        choice
    }

    fn notify(&mut self, observer: NodeId, crashed: NodeId) {
        let at = self.now + self.config.fd_latency.sample(&mut self.rng);
        self.pending.push((at, Kind::Notify { observer, crashed }));
    }

    fn dispatch(&mut self, kind: Kind<P::Msg>) {
        let at = self.now;
        match kind {
            Kind::Crash { node } if self.fd.is_crashed(node) => {}
            Kind::Crash { node } => {
                self.trace.record(TraceEntry::Crash { at, node });
                let observers = self.fd.record_crash(node);
                observers.into_iter().for_each(|o| self.notify(o, node));
            }
            Kind::Deliver { to, .. } if self.fd.is_crashed(to) => self.metrics.record_drop(),
            Kind::Deliver { from, to, msg } => {
                self.activate(to);
                self.metrics.record_delivery(to);
                self.trace.record(TraceEntry::Deliver { at, from, to });
                self.handle(to, |p, ctx| p.on_message(from, msg, ctx));
            }
            Kind::Notify { observer, .. } if self.fd.is_crashed(observer) => {}
            Kind::Notify { observer, crashed } => {
                self.activate(observer);
                self.metrics.record_crash_notification();
                let entry = TraceEntry::Notify {
                    at,
                    observer,
                    crashed,
                };
                self.trace.record(entry);
                self.handle(observer, |p, ctx| p.on_crash_notification(crashed, ctx));
            }
        }
    }

    /// Counts a handler activation of `node`, spawned and started at its first event.
    fn activate(&mut self, node: NodeId) {
        if !self.nodes.contains_key(&node) {
            let process = (self.spawn)(node);
            self.nodes.insert(node, process);
            self.handle(node, |p, ctx| p.on_start(ctx));
        }
        self.metrics.record_activation(node);
    }

    /// Runs one handler of `me` and carries out what it asked for.
    fn handle(&mut self, me: NodeId, handler: impl FnOnce(&mut P, &mut Context<'_, P::Msg>)) {
        let mut commands = Vec::new();
        let process = self.nodes.get_mut(&me).expect("activated");
        handler(process, &mut Context::new(me, self.now, &mut commands));
        for command in commands {
            match command {
                Command::Send { to, msg } => {
                    self.metrics.record_send(me, msg.size_bytes());
                    let (at, from) = (self.now, me);
                    self.trace.record(TraceEntry::Send { at, from, to });
                    let arrival = self.now + self.config.latency.sample(&mut self.rng);
                    let ch = self.channels.entry((me, to)).or_default();
                    ch.0 = arrival.max(ch.0);
                    self.pending.push((ch.0, Kind::Deliver { from, to, msg }));
                }
                // Monitoring a node that already crashed notifies right away.
                Command::Monitor { target: q } if self.fd.subscribe(me, q) => self.notify(me, q),
                Command::Monitor { .. } => {}
            }
        }
    }
}

/// The slot engine against the oracle. `Gossip`, `jittery` and
/// `assert_oracle_agrees` are shared with the `batch` test module.
pub(crate) mod tests {
    use precipice_graph::rng::cases;

    use super::*;
    use crate::{BatchRun, BatchSim, BatchVariant, GuidedSpec, LatencyModel, SchedulePolicy};

    #[derive(Clone, Debug)]
    pub(crate) struct Blob(Vec<u8>);
    impl MessageSize for Blob {
        fn size_bytes(&self) -> usize {
            self.0.len()
        }
    }

    /// Gossiping test process. On start it monitors its graph
    /// neighbours *and* the stranger half-way round the id space, and
    /// sends that stranger a hello (so activations cascade and the
    /// failure detector sees subscriptions the static rule does not
    /// cover). On a crash notification it floods its neighbours with a
    /// couple of rounds of payloads, so runs exercise channels,
    /// clamping, drops at crashed receivers and multi-hop causality.
    pub(crate) struct Gossip {
        graph: Arc<Graph>,
        me: NodeId,
        rounds: u8,
        received: Vec<(SimTime, NodeId, u8)>,
        notified: Vec<(SimTime, NodeId)>,
    }

    impl Gossip {
        pub(crate) fn spawn(graph: &Arc<Graph>, me: NodeId) -> Self {
            Gossip {
                graph: Arc::clone(graph),
                me,
                rounds: 0,
                received: Vec::new(),
                notified: Vec::new(),
            }
        }

        fn flood(&self, ttl: u8, ctx: &mut Context<'_, Blob>) {
            for &n in self.graph.neighbors(self.me) {
                ctx.send(n, Blob(vec![ttl, self.me.0 as u8]));
            }
        }
    }

    impl Process for Gossip {
        type Msg = Blob;
        fn on_start(&mut self, ctx: &mut Context<'_, Blob>) {
            let n = self.graph.len();
            let stranger = NodeId::from_index((self.me.index() + n / 2) % n);
            for &q in self.graph.neighbors(self.me) {
                ctx.monitor(q);
            }
            ctx.monitor(stranger);
            ctx.send(stranger, Blob(vec![0]));
        }
        fn on_message(&mut self, from: NodeId, msg: Blob, ctx: &mut Context<'_, Blob>) {
            self.received.push((ctx.now(), from, msg.0[0]));
            if msg.0[0] > 0 {
                self.flood(msg.0[0] - 1, ctx);
            }
        }
        fn on_crash_notification(&mut self, crashed: NodeId, ctx: &mut Context<'_, Blob>) {
            self.notified.push((ctx.now(), crashed));
            if self.rounds < 2 {
                self.rounds += 1;
                self.flood(2, ctx);
            }
        }
    }

    pub(crate) fn jittery(seed: u64) -> SimConfig {
        SimConfig {
            seed,
            latency: LatencyModel::Uniform {
                min: SimTime::from_micros(200),
                max: SimTime::from_millis(2),
            },
            fd_latency: LatencyModel::Uniform {
                min: SimTime::from_millis(1),
                max: SimTime::from_millis(5),
            },
            record_trace: true,
            max_events: None,
        }
    }

    /// Re-executes `variant` on the oracle — as is under `Fifo` and
    /// `Replay`, as a replay of the schedule `run` recorded under an
    /// exploring policy — and requires equality with the slot's `run`
    /// on every observable: outcome, metrics, trace hash and entries,
    /// honored schedule, and the final state of every activated node.
    pub(crate) fn assert_oracle_agrees(
        graph: &Arc<Graph>,
        variant: &BatchVariant,
        run: &BatchRun<Gossip>,
        tag: &str,
    ) {
        let replay = match &variant.policy {
            SchedulePolicy::Fifo => None,
            SchedulePolicy::Replay(schedule) => Some(schedule),
            _ => Some(run.schedule.as_ref().expect("exploring runs record")),
        };
        let g = Arc::clone(graph);
        let spawn = move |me| Gossip::spawn(&g, me);
        let mut oracle = Reference::new(variant.config, graph, spawn, replay, &variant.crashes);
        assert_eq!(run.outcome, oracle.run(), "outcome diverged: {tag}");
        assert_eq!(run.metrics, oracle.metrics, "metrics diverged: {tag}");
        assert_eq!(run.trace.hash(), oracle.trace.hash(), "trace hash: {tag}");
        assert_eq!(run.trace.entries(), oracle.trace.entries(), "trace: {tag}");
        let deviations = oracle.honored.clone();
        let honored = replay.map(|_| Schedule { deviations });
        assert_eq!(run.schedule, honored, "honored schedule diverged: {tag}");
        let seen = |id: &NodeId, p: &Gossip| (*id, p.received.clone(), p.notified.clone());
        let slot_nodes: Vec<_> = run.processes.iter().map(|(id, p)| seen(id, p)).collect();
        let oracle_nodes: Vec<_> = oracle.nodes.iter().map(|(id, p)| seen(id, p)).collect();
        assert_eq!(slot_nodes, oracle_nodes, "process states diverged: {tag}");
    }

    /// Runs `variants` through one batch and checks each against the
    /// oracle; returns the runs for follow-up (guided / replay) batches.
    fn check(graph: &Arc<Graph>, variants: &[BatchVariant]) -> Vec<BatchRun<Gossip>> {
        let g = Arc::clone(graph);
        let mut batch = BatchSim::new(Arc::clone(graph), move |_, me| Gossip::spawn(&g, me));
        let runs = batch.run(variants);
        for (v, r) in variants.iter().zip(&runs) {
            let tag = format!("{} seed {}", v.policy.tag(), v.config.seed);
            assert_oracle_agrees(graph, v, r, &tag);
        }
        runs
    }

    /// The exploring path replaying the empty schedule picks the FIFO
    /// event on every step, so the slot forgets its cached FIFO minimum
    /// and rescans for it each time; it must run exactly as the heap
    /// path does, and record no deviation.
    fn assert_fifo_replay_matches_heap(
        fifo: &BatchRun<Gossip>,
        replayed: &BatchRun<Gossip>,
        tag: &str,
    ) {
        assert_eq!(replayed.outcome, fifo.outcome, "outcome: {tag}");
        assert_eq!(replayed.metrics, fifo.metrics, "metrics: {tag}");
        assert_eq!(
            replayed.trace.hash(),
            fifo.trace.hash(),
            "trace hash: {tag}"
        );
        assert_eq!(
            replayed.trace.entries(),
            fifo.trace.entries(),
            "trace: {tag}"
        );
        assert_eq!(replayed.schedule, Some(Schedule::fifo()), "deviated: {tag}");
        let seen = |(id, p): &(NodeId, Gossip)| (*id, p.received.clone(), p.notified.clone());
        let states = |run: &BatchRun<Gossip>| run.processes.iter().map(seen).collect::<Vec<_>>();
        assert_eq!(states(replayed), states(fifo), "process states: {tag}");
    }

    /// FIFO, the exploring path replaying FIFO, both blind exploring
    /// policies, then — from what `Random` recorded — a guided mutant
    /// (flipping the first recorded pick against the last), a replay,
    /// and a replay whose tail is stale. Returns the FIFO run.
    fn check_every_policy(
        graph: &Arc<Graph>,
        config: SimConfig,
        crashes: &[(NodeId, SimTime)],
    ) -> BatchRun<Gossip> {
        let crashes = crashes.to_vec();
        let variant = |policy| BatchVariant {
            config,
            policy,
            crashes: crashes.clone(),
        };
        let mut runs = check(
            graph,
            &[
                variant(SchedulePolicy::Fifo),
                variant(SchedulePolicy::Random(config.seed ^ 0xabcd)),
                variant(SchedulePolicy::Pcr(config.seed ^ 0x1234)),
                variant(SchedulePolicy::Replay(Schedule::fifo())),
            ],
        );
        let tag = format!("fifo replay seed {}", config.seed);
        assert_fifo_replay_matches_heap(&runs[0], &runs[3], &tag);
        let base = runs[1].schedule.clone().expect("random records");
        let flip = match base.deviations[..] {
            [first, .., last] => Some((first.key, last.key)),
            _ => None,
        };
        let mut stale = base.clone();
        for dev in stale.deviations.iter_mut().skip(3) {
            dev.step += 1; // now names events that are mostly not enabled
        }
        let seed = config.seed;
        let guided = GuidedSpec {
            base: base.clone(),
            seed,
            flip,
        };
        check(
            graph,
            &[
                variant(SchedulePolicy::Guided(guided)),
                variant(SchedulePolicy::Replay(base)),
                variant(SchedulePolicy::Replay(stale)),
            ],
        );
        runs.swap_remove(0)
    }

    fn ms(t: u64) -> SimTime {
        SimTime::from_millis(t)
    }

    #[test]
    fn oracle_agrees_on_a_path_with_a_crash_mid_flood() {
        let graph = Arc::new(precipice_graph::path(9));
        // Node 5 dies while the flood node 4's crash set off is in the air.
        let crashes = [(NodeId(4), ms(1)), (NodeId(5), ms(4))];
        for seed in 0..4 {
            check_every_policy(&graph, jittery(seed), &crashes);
        }
    }

    /// A crash scheduled twice is one pending crash, at the earlier
    /// time (see [`Simulation::schedule_crash`](crate::Simulation::schedule_crash)):
    /// the doubled schedule runs, under every policy, exactly as the
    /// folded one does.
    #[test]
    fn oracle_agrees_on_a_ring_with_a_crash_scheduled_twice() {
        let graph = Arc::new(precipice_graph::ring(10));
        let once = [(NodeId(3), ms(1)), (NodeId(8), ms(2))];
        let twice = [(NodeId(3), ms(2)), (NodeId(3), ms(1)), (NodeId(8), ms(2))];
        for seed in 0..4 {
            let folded = check_every_policy(&graph, jittery(seed), &once);
            let fifo = check_every_policy(&graph, jittery(seed), &twice);
            assert_eq!(fifo.outcome, folded.outcome);
            assert_eq!(fifo.trace.hash(), folded.trace.hash());
            assert_eq!(
                fifo.metrics.crash_notifications(),
                4,
                "once per border node"
            );
        }
    }

    #[test]
    fn oracle_agrees_on_a_torus_with_sends_to_crashed_nodes() {
        let graph = Arc::new(precipice_graph::torus(precipice_graph::GridDims::square(5)));
        let crashes = [(NodeId(12), ms(1)), (NodeId(13), ms(1)), (NodeId(7), ms(3))];
        for seed in 0..3 {
            let fifo = check_every_policy(&graph, jittery(seed), &crashes);
            assert!(fifo.metrics.messages_dropped() > 0, "floods reach the dead");
        }
    }

    #[test]
    fn oracle_agrees_at_the_event_cap() {
        let graph = Arc::new(precipice_graph::ring(8));
        for cap in [0, 1, 7, 40] {
            let config = SimConfig {
                max_events: Some(cap),
                ..jittery(cap)
            };
            let fifo = check_every_policy(&graph, config, &[(NodeId(2), ms(1))]);
            assert_eq!(
                (fifo.outcome.is_quiescent(), fifo.outcome.events()),
                (false, cap)
            );
        }
    }

    /// Random connected graphs × crash sets × latency jitter × event
    /// cap, each under every policy kind.
    #[test]
    fn oracle_agrees_on_random_scenarios() {
        cases("oracle_agrees_on_random_scenarios", 24, |rng| {
            let n = rng.gen_range(6..24);
            let graph = Arc::new(precipice_graph::barabasi_albert(n, 2, rng.next_u64()));
            // A node picked twice is scheduled twice: both sides fold it.
            let crashes: Vec<(NodeId, SimTime)> = (0..rng.gen_range(1..5usize))
                .map(|_| {
                    let pick = rng.next_u64() as u32 % n as u32;
                    (NodeId(pick), ms(1 + rng.gen_range(0..6u64)))
                })
                .collect();
            let jitter_us = [0, 300, 5_000][rng.gen_range(0..3usize)];
            let seed = rng.next_u64();
            let max_events = [None, Some(60)][rng.gen_range(0..2usize)];
            let min = SimTime::from_micros(500);
            let max = min + SimTime::from_micros(jitter_us);
            let latency = LatencyModel::Uniform { min, max };
            let config = SimConfig {
                latency,
                max_events,
                ..jittery(seed)
            };
            check_every_policy(&graph, config, &crashes);
        });
    }
}
