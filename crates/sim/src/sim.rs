use std::sync::Arc;

use precipice_core::FailureDetector;
use precipice_graph::{Graph, NodeId};

use crate::explore::{Explorer, Schedule, SchedulePolicy};
use crate::process::Process;
use crate::slot::Slot;
use crate::trace::Trace;
use crate::{LatencyModel, Metrics, SimTime};

/// Configuration of a [`Simulation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Seed for all randomness (latency sampling). Two runs with the same
    /// processes, config and crash schedule are bit-identical.
    pub seed: u64,
    /// Message latency distribution.
    pub latency: LatencyModel,
    /// Failure-detector detection latency distribution.
    pub fd_latency: LatencyModel,
    /// Store full [`Trace`] entries (the running hash is kept either way).
    pub record_trace: bool,
    /// Hard cap on processed events; `None` runs to quiescence.
    pub max_events: Option<u64>,
}

impl Default for SimConfig {
    /// 1ms constant message latency, 5ms constant detection latency,
    /// no stored trace, no event cap, seed 0.
    fn default() -> Self {
        SimConfig {
            seed: 0,
            latency: LatencyModel::default(),
            fd_latency: LatencyModel::Constant(SimTime::from_millis(5)),
            record_trace: false,
            max_events: None,
        }
    }
}

impl SimConfig {
    /// Returns this config with trace storage enabled.
    pub fn with_trace(mut self) -> Self {
        self.record_trace = true;
        self
    }
}

/// How a [`Simulation::run`] ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained: nothing can ever happen again.
    Quiescent {
        /// Events processed in total.
        events: u64,
        /// Virtual time of the last event.
        at: SimTime,
    },
    /// The configured `max_events` cap was hit (likely a livelock bug).
    LimitReached {
        /// Events processed in total.
        events: u64,
        /// Virtual time when the cap was hit.
        at: SimTime,
    },
}

impl RunOutcome {
    /// `true` if the run drained to quiescence.
    pub fn is_quiescent(&self) -> bool {
        matches!(self, RunOutcome::Quiescent { .. })
    }

    /// Events processed.
    pub fn events(&self) -> u64 {
        match *self {
            RunOutcome::Quiescent { events, .. } | RunOutcome::LimitReached { events, .. } => {
                events
            }
        }
    }
}

/// Deterministic discrete-event simulator over a set of [`Process`]es:
/// the single-run driver of the run slot, the simulator's one event loop
/// (`slot.rs`; [`batch`](crate::batch) is the multi-run driver).
///
/// Nodes are identified by their index in the process vector (or by
/// `NodeId(0)..NodeId(n)` under a [lazy start](Simulation::lazy_with_policy)).
/// See the [crate docs](crate) for an end-to-end example.
pub struct Simulation<P: Process> {
    slot: Slot<P>,
    /// Lazy start: spawns a node's process at its first event. Never
    /// called after an eager start, where every process is installed.
    spawn: Box<dyn FnMut(NodeId) -> P>,
    /// Eager start: the installed processes' `on_start` has yet to run.
    start_pending: bool,
    /// Accounting as of the last [`run`](Simulation::run) return.
    metrics: Metrics,
}

impl<P: Process> std::fmt::Debug for Simulation<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("nodes", &self.slot.n)
            .field("time", &self.slot.time)
            .field("queued", &self.slot.queued())
            .field("events_processed", &self.slot.events_processed)
            .finish()
    }
}

impl<P: Process> Simulation<P> {
    /// Creates a simulation over `processes`; the process at index `i`
    /// is node `NodeId(i)`. Events execute in latency order
    /// ([`SchedulePolicy::Fifo`]).
    pub fn new(config: SimConfig, processes: Vec<P>) -> Self {
        Simulation::with_policy(config, processes, SchedulePolicy::Fifo)
    }

    /// Creates a simulation whose event order is chosen by `policy` (see
    /// [`explore`](crate::explore)). With [`SchedulePolicy::Fifo`] this
    /// is exactly [`Simulation::new`].
    ///
    /// This is the **eager start**: all `n` processes exist up front
    /// and their `on_start` runs — sends and monitors included — at time
    /// zero, in id order, when [`run`](Simulation::run) is first called.
    pub fn with_policy(config: SimConfig, processes: Vec<P>, policy: SchedulePolicy) -> Self {
        let mut slot = Slot::new();
        slot.reset(config, processes.len(), policy, FailureDetector::new());
        slot.install(processes);
        Simulation {
            slot,
            spawn: Box::new(|node| unreachable!("node {node} was installed at construction")),
            start_pending: true,
            metrics: Metrics::default(),
        }
    }

    /// Creates a **lazy** simulation over the `graph.len()` nodes of
    /// `graph`: processes are spawned by `factory` on demand, immediately
    /// before their first event, and the failure detector resolves a
    /// crashed node's observers from the graph
    /// ([`FailureDetector::with_static_graph`]). Per-run setup cost and
    /// memory are proportional to the *activated footprint*, not to `n`.
    ///
    /// # Equivalence contract
    ///
    /// A lazy run is bit-identical (trace hash, metrics, recorded
    /// schedules) to an eager run of the same processes **provided**
    /// every process's `on_start` does nothing but `monitor` nodes
    /// covered by the static rule (its graph neighbours) — the cliff-edge
    /// protocol's line 4. An `on_start` that sends messages or monitors
    /// strangers still executes faithfully, but at first-event time
    /// rather than time zero, which is a different (still legal) async
    /// execution.
    pub fn lazy(
        config: SimConfig,
        graph: &Arc<Graph>,
        factory: impl FnMut(NodeId) -> P + 'static,
    ) -> Self {
        Simulation::lazy_with_policy(config, graph, factory, SchedulePolicy::Fifo)
    }

    /// [`lazy`](Simulation::lazy) with an exploring [`SchedulePolicy`].
    pub fn lazy_with_policy(
        config: SimConfig,
        graph: &Arc<Graph>,
        factory: impl FnMut(NodeId) -> P + 'static,
        policy: SchedulePolicy,
    ) -> Self {
        let mut slot = Slot::new();
        let fd = FailureDetector::with_static_graph(Arc::clone(graph));
        slot.reset(config, graph.len(), policy, fd);
        Simulation {
            slot,
            spawn: Box::new(factory),
            start_pending: false,
            metrics: Metrics::default(),
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.slot.n
    }

    /// `true` if the simulation has no nodes.
    pub fn is_empty(&self) -> bool {
        self.slot.n == 0
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.slot.time
    }

    /// Schedules `node` to crash at time `at`.
    ///
    /// Crashing an already-crashed node is a no-op at processing time.
    /// Must be called before the crash time is reached; scheduling in the
    /// past (relative to [`now`](Self::now)) panics.
    ///
    /// Scheduling one node's crash again before the next
    /// [`run`](Self::run) keeps a single pending crash, at the earliest
    /// of the times asked for and in the position of the first call —
    /// the rule `ScenarioBuilder::build` in the runtime crate applies —
    /// so every pending event has its own [`EventKey`](crate::EventKey)
    /// and a recorded schedule replays bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or `at` is in the past.
    pub fn schedule_crash(&mut self, node: NodeId, at: SimTime) {
        self.slot.schedule_crash(node, at);
    }

    /// Runs until quiescence or until the configured event cap. Running
    /// a finished simulation again is a no-op that returns the same
    /// outcome (the cap cannot be raised, and a quiescent run only has
    /// more to do if a crash was scheduled in between).
    ///
    /// # Event ordering
    ///
    /// Under the default [`SchedulePolicy::Fifo`], events pop in strict
    /// `(time, seq)` order, where `seq` is the monotone sequence number
    /// assigned at scheduling time — events carrying **equal
    /// timestamps** therefore execute in the order they were scheduled,
    /// independent of binary-heap internals (the heap's comparator is
    /// total over `(time, seq)`, so there are no ties for it to break
    /// arbitrarily). Under an exploring policy the scheduler picks among
    /// all enabled events; virtual time is then the running maximum of
    /// the executed events' scheduled times (it never runs backwards).
    pub fn run(&mut self) -> RunOutcome {
        self.slot.commit_crashes();
        if std::mem::take(&mut self.start_pending) {
            self.slot.start_installed();
        }
        let outcome = self.slot.run(&mut self.spawn);
        self.metrics = self.slot.metrics();
        outcome
    }

    /// The scheduling deviations the installed exploring policy actually
    /// took so far, as a replayable [`Schedule`]; `None` under the
    /// default FIFO policy. After a [`SchedulePolicy::Replay`] run this
    /// returns the deviations that were *honored* (stale ones dropped),
    /// which is what the shrinker starts from.
    pub fn recorded_schedule(&self) -> Option<Schedule> {
        self.slot.explorer.as_ref().map(Explorer::recorded)
    }

    /// `true` if `node` has crashed (per the authoritative schedule, as of
    /// virtual now).
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.slot.node(node).is_some_and(|ns| ns.crashed)
    }

    /// Node ids that never crashed.
    pub fn correct_nodes(&self) -> Vec<NodeId> {
        (0..self.slot.n)
            .map(NodeId::from_index)
            .filter(|&node| !self.is_crashed(node))
            .collect()
    }

    /// Immutable access to a node's process (e.g. to read decisions after
    /// the run).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range, or (after a lazy start) was
    /// never activated — see [`try_process`](Simulation::try_process).
    pub fn process(&self, node: NodeId) -> &P {
        self.try_process(node)
            .unwrap_or_else(|| panic!("node {node} not activated"))
    }

    /// Immutable access to a node's process, `None` if the node was never
    /// activated (lazy start) or is out of range.
    pub fn try_process(&self, node: NodeId) -> Option<&P> {
        self.slot.node(node)?.proc.as_ref()
    }

    /// Iterates `(id, process)` pairs in ascending id order. After a
    /// lazy start only *activated* nodes appear (everything observable —
    /// stats, decisions — lives on activated nodes).
    pub fn processes(&self) -> Box<dyn Iterator<Item = (NodeId, &P)> + '_> {
        let mut procs: Vec<(NodeId, &P)> = self
            .slot
            .nodes
            .iter()
            .filter_map(|ns| Some((ns.id, ns.proc.as_ref()?)))
            .collect();
        procs.sort_unstable_by_key(|&(id, _)| id);
        Box::new(procs.into_iter())
    }

    /// Consumes the simulation, returning the processes (after a lazy
    /// start, the activated ones) in ascending id order.
    pub fn into_processes(mut self) -> Vec<P> {
        let processes = self.slot.take_processes();
        processes.into_iter().map(|(_, p)| p).collect()
    }

    /// Accounting for the run, as of the last [`run`](Simulation::run)
    /// return.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Trace of the run so far.
    pub fn trace(&self) -> &Trace {
        &self.slot.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Context, MessageSize, TraceEntry};

    #[derive(Clone, Debug)]
    struct Blob(Vec<u8>);
    impl MessageSize for Blob {
        fn size_bytes(&self) -> usize {
            self.0.len()
        }
    }

    /// Test process: records every delivery and notification with its
    /// virtual timestamp; can be told to echo or to flood on start.
    struct Recorder {
        sends_on_start: Vec<(NodeId, Blob)>,
        monitors_on_start: Vec<NodeId>,
        received: Vec<(SimTime, NodeId, Vec<u8>)>,
        notified: Vec<(SimTime, NodeId)>,
    }

    impl Recorder {
        fn quiet() -> Self {
            Recorder {
                sends_on_start: vec![],
                monitors_on_start: vec![],
                received: vec![],
                notified: vec![],
            }
        }
    }

    impl Process for Recorder {
        type Msg = Blob;
        fn on_start(&mut self, ctx: &mut Context<'_, Blob>) {
            for (to, msg) in self.sends_on_start.clone() {
                ctx.send(to, msg);
            }
            for t in self.monitors_on_start.clone() {
                ctx.monitor(t);
            }
        }
        fn on_message(&mut self, from: NodeId, msg: Blob, ctx: &mut Context<'_, Blob>) {
            self.received.push((ctx.now(), from, msg.0));
        }
        fn on_crash_notification(&mut self, crashed: NodeId, ctx: &mut Context<'_, Blob>) {
            self.notified.push((ctx.now(), crashed));
        }
    }

    fn jittery_config(seed: u64) -> SimConfig {
        SimConfig {
            seed,
            latency: LatencyModel::Uniform {
                min: SimTime::from_micros(100),
                max: SimTime::from_millis(20),
            },
            fd_latency: LatencyModel::Uniform {
                min: SimTime::from_millis(1),
                max: SimTime::from_millis(8),
            },
            record_trace: true,
            max_events: None,
        }
    }

    #[test]
    fn fifo_order_is_preserved_under_jitter() {
        let mut sender = Recorder::quiet();
        sender.sends_on_start = (0..50u8).map(|i| (NodeId(1), Blob(vec![i]))).collect();
        let mut sim = Simulation::new(jittery_config(99), vec![sender, Recorder::quiet()]);
        assert!(sim.run().is_quiescent());
        let received: Vec<u8> = sim
            .process(NodeId(1))
            .received
            .iter()
            .map(|(_, _, m)| m[0])
            .collect();
        assert_eq!(received, (0..50u8).collect::<Vec<_>>(), "FIFO violated");
        // Delivery timestamps must be non-decreasing.
        let times: Vec<SimTime> = sim
            .process(NodeId(1))
            .received
            .iter()
            .map(|(t, _, _)| *t)
            .collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    /// The FIFO clamp lives on footprint-sized channel slots; the clamp
    /// semantics must survive many sparse high-id senders interleaving
    /// traffic to shared receivers under heavy jitter (the access pattern
    /// a dense per-sender row would make trivially correct).
    #[test]
    fn fifo_clamp_holds_across_many_sparse_senders() {
        let n = 512usize;
        let senders = [490u32, 501, 510, 3];
        let receivers = [NodeId(0), NodeId(511)];
        let mut procs: Vec<Recorder> = (0..n).map(|_| Recorder::quiet()).collect();
        for (k, &s) in senders.iter().enumerate() {
            // Interleave the two receivers so each channel's sends are
            // non-contiguous, forcing repeated clamp lookups per row.
            procs[s as usize].sends_on_start = (0..20u8)
                .map(|i| (receivers[(i as usize + k) % 2], Blob(vec![i])))
                .collect();
        }
        let mut sim = Simulation::new(jittery_config(1234), procs);
        assert!(sim.run().is_quiescent());
        for &r in &receivers {
            for &s in &senders {
                let per_channel: Vec<(SimTime, u8)> = sim
                    .process(r)
                    .received
                    .iter()
                    .filter(|(_, from, _)| *from == NodeId(s))
                    .map(|(t, _, m)| (*t, m[0]))
                    .collect();
                // Payloads in send order, timestamps non-decreasing.
                assert!(
                    per_channel.windows(2).all(|w| w[0].1 < w[1].1),
                    "channel {s}->{r} out of order: {per_channel:?}"
                );
                assert!(
                    per_channel.windows(2).all(|w| w[0].0 <= w[1].0),
                    "channel {s}->{r} time ran backwards: {per_channel:?}"
                );
            }
        }
    }

    #[test]
    fn same_seed_same_trace_hash() {
        let build = || {
            let mut a = Recorder::quiet();
            a.sends_on_start = (0..20u8).map(|i| (NodeId(1), Blob(vec![i]))).collect();
            let mut b = Recorder::quiet();
            b.sends_on_start = (0..20u8).map(|i| (NodeId(0), Blob(vec![i]))).collect();
            vec![a, b]
        };
        let mut s1 = Simulation::new(jittery_config(7), build());
        let mut s2 = Simulation::new(jittery_config(7), build());
        s1.run();
        s2.run();
        assert_eq!(s1.trace().hash(), s2.trace().hash());
        assert_eq!(s1.metrics().messages_sent(), s2.metrics().messages_sent());

        let mut s3 = Simulation::new(jittery_config(8), build());
        s3.run();
        assert_ne!(
            s1.trace().hash(),
            s3.trace().hash(),
            "different seed, different schedule"
        );
    }

    #[test]
    fn crash_notification_reaches_subscribers() {
        let mut obs = Recorder::quiet();
        obs.monitors_on_start = vec![NodeId(1)];
        let mut sim = Simulation::new(SimConfig::default(), vec![obs, Recorder::quiet()]);
        sim.schedule_crash(NodeId(1), SimTime::from_millis(3));
        assert!(sim.run().is_quiescent());
        let notified = &sim.process(NodeId(0)).notified;
        assert_eq!(notified.len(), 1);
        assert_eq!(notified[0].1, NodeId(1));
        // Detection latency (5ms default) after the crash instant.
        assert_eq!(notified[0].0, SimTime::from_millis(8));
        assert!(sim.is_crashed(NodeId(1)));
        assert_eq!(sim.correct_nodes(), vec![NodeId(0)]);
    }

    #[test]
    fn subscribing_to_already_crashed_node_notifies() {
        // Node 0 sends to itself; upon that message it monitors node 1,
        // which crashed long before.
        struct LateMonitor {
            notified: Vec<NodeId>,
        }
        impl Process for LateMonitor {
            type Msg = Blob;
            fn on_start(&mut self, ctx: &mut Context<'_, Blob>) {
                if ctx.me() == NodeId(0) {
                    ctx.send(NodeId(0), Blob(vec![]));
                }
            }
            fn on_message(&mut self, _: NodeId, _: Blob, ctx: &mut Context<'_, Blob>) {
                ctx.monitor(NodeId(1));
            }
            fn on_crash_notification(&mut self, crashed: NodeId, _: &mut Context<'_, Blob>) {
                self.notified.push(crashed);
            }
        }
        let mut sim = Simulation::new(
            SimConfig::default(),
            vec![
                LateMonitor { notified: vec![] },
                LateMonitor { notified: vec![] },
            ],
        );
        sim.schedule_crash(NodeId(1), SimTime::ZERO);
        assert!(sim.run().is_quiescent());
        assert_eq!(sim.process(NodeId(0)).notified, vec![NodeId(1)]);
    }

    #[test]
    fn messages_to_crashed_nodes_are_dropped() {
        let mut sender = Recorder::quiet();
        sender.sends_on_start = vec![(NodeId(1), Blob(vec![1, 2, 3]))];
        let mut sim = Simulation::new(SimConfig::default(), vec![sender, Recorder::quiet()]);
        sim.schedule_crash(NodeId(1), SimTime::ZERO);
        assert!(sim.run().is_quiescent());
        assert_eq!(sim.metrics().messages_dropped(), 1);
        assert_eq!(sim.metrics().messages_delivered(), 0);
        assert!(sim.process(NodeId(1)).received.is_empty());
    }

    #[test]
    fn byte_accounting_uses_message_size() {
        let mut sender = Recorder::quiet();
        sender.sends_on_start = vec![
            (NodeId(1), Blob(vec![0; 10])),
            (NodeId(1), Blob(vec![0; 32])),
        ];
        let mut sim = Simulation::new(SimConfig::default(), vec![sender, Recorder::quiet()]);
        sim.run();
        assert_eq!(sim.metrics().bytes_sent(), 42);
        assert_eq!(sim.metrics().node(NodeId(0)).sent_bytes, 42);
    }

    #[test]
    fn event_cap_stops_infinite_pingpong() {
        struct PingPong;
        impl Process for PingPong {
            type Msg = Blob;
            fn on_start(&mut self, ctx: &mut Context<'_, Blob>) {
                if ctx.me() == NodeId(0) {
                    ctx.send(NodeId(1), Blob(vec![]));
                }
            }
            fn on_message(&mut self, from: NodeId, _: Blob, ctx: &mut Context<'_, Blob>) {
                ctx.send(from, Blob(vec![]));
            }
            fn on_crash_notification(&mut self, _: NodeId, _: &mut Context<'_, Blob>) {}
        }
        let config = SimConfig {
            max_events: Some(100),
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(config, vec![PingPong, PingPong]);
        let outcome = sim.run();
        assert!(!outcome.is_quiescent());
        assert_eq!(outcome.events(), 100);
    }

    #[test]
    fn self_sends_are_delivered() {
        let mut solo = Recorder::quiet();
        solo.sends_on_start = vec![(NodeId(0), Blob(vec![9]))];
        let mut sim = Simulation::new(SimConfig::default(), vec![solo]);
        assert!(sim.run().is_quiescent());
        assert_eq!(sim.process(NodeId(0)).received.len(), 1);
        assert_eq!(sim.process(NodeId(0)).received[0].1, NodeId(0));
    }

    #[test]
    fn double_crash_is_a_noop() {
        let mut obs = Recorder::quiet();
        obs.monitors_on_start = vec![NodeId(1)];
        let mut sim = Simulation::new(SimConfig::default(), vec![obs, Recorder::quiet()]);
        sim.schedule_crash(NodeId(1), SimTime::from_millis(1));
        sim.schedule_crash(NodeId(1), SimTime::from_millis(2));
        assert!(sim.run().is_quiescent());
        assert_eq!(
            sim.process(NodeId(0)).notified.len(),
            1,
            "exactly one notification"
        );
    }

    /// A crash scheduled twice is one pending event at the earlier
    /// time, so `C1` names one event and whatever an exploring policy
    /// recorded replays bit-for-bit. (Two pending events under the one
    /// name used to replay as the earlier-scheduled of them, whichever
    /// the recording had picked.)
    #[test]
    fn double_scheduled_crash_records_and_replays_bit_for_bit() {
        use crate::explore::SchedulePolicy;
        let run = |policy: SchedulePolicy, crashes: &[u64]| {
            let mut procs: Vec<Recorder> = (0..4).map(|_| Recorder::quiet()).collect();
            for (i, p) in procs.iter_mut().enumerate() {
                p.monitors_on_start = vec![NodeId(1)];
                p.sends_on_start = (0..6u8)
                    .map(|k| (NodeId((i as u32 + 1) % 4), Blob(vec![k])))
                    .collect();
            }
            let mut sim = Simulation::with_policy(jittery_config(3), procs, policy);
            for &at in crashes {
                sim.schedule_crash(NodeId(1), SimTime::from_millis(at));
            }
            let outcome = sim.run();
            assert!(outcome.is_quiescent());
            let schedule = sim.recorded_schedule().expect("exploring policy");
            (outcome, sim.trace().hash(), schedule)
        };
        for seed in 0..16 {
            let recorded = run(SchedulePolicy::Random(seed), &[2, 9]);
            assert!(!recorded.2.is_empty());
            let replayed = run(SchedulePolicy::Replay(recorded.2.clone()), &[2, 9]);
            assert_eq!(replayed, recorded, "seed {seed}");
            // And the doubled schedule is the folded one.
            assert_eq!(run(SchedulePolicy::Random(seed), &[2]), recorded);
        }
    }

    /// Satellite audit: events carrying the *same* timestamp must pop in
    /// a documented, heap-independent order — `(time, seq)`, i.e. the
    /// order they were scheduled. Three senders fire at start with a
    /// constant latency, so all deliveries land at exactly t=1ms; the
    /// receiver must observe them in send order.
    #[test]
    fn equal_timestamp_events_pop_in_schedule_order() {
        let mut a = Recorder::quiet();
        a.sends_on_start = vec![(NodeId(3), Blob(vec![0])), (NodeId(3), Blob(vec![1]))];
        let mut b = Recorder::quiet();
        b.sends_on_start = vec![(NodeId(3), Blob(vec![2]))];
        let mut c = Recorder::quiet();
        c.sends_on_start = vec![(NodeId(3), Blob(vec![3])), (NodeId(3), Blob(vec![4]))];
        let mut sim = Simulation::new(
            SimConfig::default(), // constant 1ms latency: all ties
            vec![a, b, c, Recorder::quiet()],
        );
        assert!(sim.run().is_quiescent());
        let got: Vec<(SimTime, u8)> = sim
            .process(NodeId(3))
            .received
            .iter()
            .map(|(t, _, m)| (*t, m[0]))
            .collect();
        // Every delivery at the same instant...
        assert!(got.iter().all(|(t, _)| *t == SimTime::from_millis(1)));
        // ...in exactly the order `on_start` scheduled the sends (node 0
        // starts before node 1 before node 2; per-node sends in order).
        assert_eq!(
            got.iter().map(|(_, v)| *v).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4],
            "same-timestamp pops must follow the (time, seq) contract"
        );
    }

    #[test]
    fn explored_random_schedule_is_deterministic_and_replayable() {
        use crate::explore::SchedulePolicy;
        let build = || {
            let mut a = Recorder::quiet();
            a.sends_on_start = (0..12u8).map(|i| (NodeId(1), Blob(vec![i]))).collect();
            let mut b = Recorder::quiet();
            b.sends_on_start = (0..12u8).map(|i| (NodeId(0), Blob(vec![i]))).collect();
            let mut c = Recorder::quiet();
            c.sends_on_start = vec![(NodeId(0), Blob(vec![99])), (NodeId(1), Blob(vec![98]))];
            vec![a, b, c]
        };
        let run = |policy: SchedulePolicy| {
            let mut sim = Simulation::with_policy(jittery_config(5), build(), policy);
            assert!(sim.run().is_quiescent());
            let sched = sim.recorded_schedule().expect("exploring policy");
            (sim.trace().hash(), sched)
        };
        // Same seed, same schedule; different seed, (almost surely)
        // different order.
        let (h1, s1) = run(SchedulePolicy::Random(7));
        let (h2, s2) = run(SchedulePolicy::Random(7));
        assert_eq!(h1, h2);
        assert_eq!(s1, s2);
        let (h3, _) = run(SchedulePolicy::Random(8));
        assert_ne!(h1, h3, "different schedule seed, different order");
        assert!(!s1.is_empty(), "a random schedule deviates somewhere");

        // Replaying the recorded deviations reproduces the run exactly.
        let (hr, sr) = run(SchedulePolicy::Replay(s1.clone()));
        assert_eq!(hr, h1, "replay must be bit-identical");
        assert_eq!(sr, s1, "all honored deviations are re-recorded");
    }

    #[test]
    fn empty_replay_matches_fifo_exactly() {
        use crate::explore::{Schedule, SchedulePolicy};
        let build = || {
            let mut a = Recorder::quiet();
            a.sends_on_start = (0..10u8).map(|i| (NodeId(1), Blob(vec![i]))).collect();
            a.monitors_on_start = vec![NodeId(1)];
            vec![a, Recorder::quiet()]
        };
        let mut fifo = Simulation::new(jittery_config(3), build());
        fifo.schedule_crash(NodeId(1), SimTime::from_millis(9));
        fifo.run();
        let mut replay = Simulation::with_policy(
            jittery_config(3),
            build(),
            SchedulePolicy::Replay(Schedule::fifo()),
        );
        replay.schedule_crash(NodeId(1), SimTime::from_millis(9));
        replay.run();
        assert_eq!(fifo.trace().hash(), replay.trace().hash());
        assert!(replay.recorded_schedule().unwrap().is_empty());
        assert!(fifo.recorded_schedule().is_none(), "fifo records nothing");
    }

    #[test]
    fn explored_fifo_channels_stay_fifo() {
        use crate::explore::SchedulePolicy;
        // Even under aggressive random scheduling, per-channel order is
        // inviolable: the receiver sees each sender's bytes in order.
        let mut a = Recorder::quiet();
        a.sends_on_start = (0..30u8).map(|i| (NodeId(2), Blob(vec![i]))).collect();
        let mut b = Recorder::quiet();
        b.sends_on_start = (100..130u8).map(|i| (NodeId(2), Blob(vec![i]))).collect();
        let mut sim = Simulation::with_policy(
            jittery_config(11),
            vec![a, b, Recorder::quiet()],
            SchedulePolicy::Random(1234),
        );
        assert!(sim.run().is_quiescent());
        let per_sender = |who: NodeId| -> Vec<u8> {
            sim.process(NodeId(2))
                .received
                .iter()
                .filter(|(_, from, _)| *from == who)
                .map(|(_, _, m)| m[0])
                .collect()
        };
        assert_eq!(per_sender(NodeId(0)), (0..30u8).collect::<Vec<_>>());
        assert_eq!(per_sender(NodeId(1)), (100..130u8).collect::<Vec<_>>());
    }

    #[test]
    fn explored_crash_can_be_delayed_past_deliveries() {
        use crate::explore::{Deviation, EventKey, Schedule, SchedulePolicy};
        // Node 0 sends one message to node 1 at t=1ms; node 1 is
        // scheduled to crash at t=0. Under FIFO the crash lands first and
        // the message is dropped. A one-deviation schedule delivers the
        // message *before* the crash — the crash/delivery race the
        // explorer exists to exercise.
        let build = || {
            let mut a = Recorder::quiet();
            a.sends_on_start = vec![(NodeId(1), Blob(vec![7]))];
            vec![a, Recorder::quiet()]
        };
        let mut fifo = Simulation::new(SimConfig::default(), build());
        fifo.schedule_crash(NodeId(1), SimTime::ZERO);
        fifo.run();
        assert_eq!(fifo.metrics().messages_dropped(), 1);

        let flip = Schedule::new(vec![Deviation {
            step: 0,
            key: EventKey::Deliver {
                from: NodeId(0),
                to: NodeId(1),
                nth: 0,
            },
        }]);
        let mut sim =
            Simulation::with_policy(SimConfig::default(), build(), SchedulePolicy::Replay(flip));
        sim.schedule_crash(NodeId(1), SimTime::ZERO);
        assert!(sim.run().is_quiescent());
        assert_eq!(sim.metrics().messages_dropped(), 0);
        assert_eq!(sim.process(NodeId(1)).received.len(), 1);
        assert!(sim.is_crashed(NodeId(1)), "the crash still happens");
        assert_eq!(sim.recorded_schedule().unwrap().len(), 1);
    }

    #[test]
    fn pcr_only_permutes_same_target_races() {
        use crate::explore::SchedulePolicy;
        // Two disjoint sender->receiver pairs: every pending event
        // targets a different node than the FIFO head, so PCR never
        // deviates and the run equals FIFO bit-for-bit.
        let build = || {
            let mut a = Recorder::quiet();
            a.sends_on_start = (0..8u8).map(|i| (NodeId(1), Blob(vec![i]))).collect();
            let mut c = Recorder::quiet();
            c.sends_on_start = (0..8u8).map(|i| (NodeId(3), Blob(vec![i]))).collect();
            vec![a, Recorder::quiet(), c, Recorder::quiet()]
        };
        let mut fifo = Simulation::new(jittery_config(2), build());
        fifo.run();
        let mut pcr = Simulation::with_policy(jittery_config(2), build(), SchedulePolicy::Pcr(999));
        pcr.run();
        assert_eq!(fifo.trace().hash(), pcr.trace().hash());
        assert!(pcr.recorded_schedule().unwrap().is_empty());
    }

    /// Slab reuse under an exploring policy (nothing is compacted; the
    /// name is pinned by the tier-1 floor): several hundred events
    /// through a slab that never holds more than the 256 initial sends,
    /// so freed indices are handed out again while channel lists and the
    /// frontier point into it — and the recorded schedule still replays
    /// bit-for-bit.
    #[test]
    fn long_explored_run_compacts_without_changing_the_schedule() {
        use crate::explore::SchedulePolicy;
        let build = || {
            // 4 senders × 64 messages, all pending at time zero.
            (0..6usize)
                .map(|i| {
                    let mut r = Recorder::quiet();
                    if i < 4 {
                        r.sends_on_start = (0..64u8)
                            .map(|k| (NodeId(4 + (k as u32 + i as u32) % 2), Blob(vec![k])))
                            .collect();
                    }
                    r
                })
                .collect::<Vec<_>>()
        };
        let mut random =
            Simulation::with_policy(jittery_config(21), build(), SchedulePolicy::Random(555));
        assert!(random.run().is_quiescent());
        let sched = random.recorded_schedule().unwrap();
        let mut replay = Simulation::with_policy(
            jittery_config(21),
            build(),
            SchedulePolicy::Replay(sched.clone()),
        );
        assert!(replay.run().is_quiescent());
        assert_eq!(replay.trace().hash(), random.trace().hash());
        assert_eq!(replay.recorded_schedule().unwrap(), sched);
    }

    #[test]
    fn trace_entries_recorded_when_enabled() {
        let mut sender = Recorder::quiet();
        sender.sends_on_start = vec![(NodeId(1), Blob(vec![]))];
        let mut sim = Simulation::new(jittery_config(1), vec![sender, Recorder::quiet()]);
        sim.run();
        let entries = sim.trace().entries().expect("trace enabled");
        assert!(entries.iter().any(|e| matches!(
            e,
            TraceEntry::Send {
                from: NodeId(0),
                to: NodeId(1),
                ..
            }
        )));
        assert!(entries.iter().any(|e| matches!(
            e,
            TraceEntry::Deliver {
                from: NodeId(0),
                to: NodeId(1),
                ..
            }
        )));
    }

    /// Lazy activation: a node is spawned (and its `on_start` run) only
    /// when its first event arrives; bystanders are never materialized.
    #[test]
    fn lazy_nodes_spawn_on_first_event_only() {
        let graph = Arc::new(precipice_graph::path(4));
        let mut sim: Simulation<Recorder> =
            Simulation::lazy(SimConfig::default(), &graph, move |me| {
                let mut r = Recorder::quiet();
                // Cliff-edge style: monitor-only on_start.
                r.monitors_on_start = vec![NodeId(me.0.wrapping_sub(1)), NodeId(me.0 + 1)]
                    .into_iter()
                    .filter(|q| q.index() < 4)
                    .collect();
                r
            });
        sim.schedule_crash(NodeId(1), SimTime::from_millis(1));
        assert!(sim.run().is_quiescent());
        // Border nodes 0 and 2 were activated by their notifications...
        assert_eq!(sim.process(NodeId(0)).notified.len(), 1);
        assert_eq!(sim.process(NodeId(2)).notified.len(), 1);
        // ...node 3 (not bordering the crash) and the crashed node 1
        // never spawned.
        assert!(sim.try_process(NodeId(3)).is_none());
        assert!(sim.try_process(NodeId(1)).is_none());
        assert_eq!(sim.processes().count(), 2);
        assert_eq!(sim.into_processes().len(), 2);
    }

    /// The graph-backed detector notifies a node that never ran (never
    /// activated, never explicitly subscribed) exactly once when a
    /// neighbour crashes — static monitoring is structural.
    #[test]
    fn lazy_never_activated_neighbor_still_notified_exactly_once() {
        let graph = Arc::new(precipice_graph::path(3));
        let mut sim: Simulation<Recorder> =
            Simulation::lazy(SimConfig::default(), &graph, |_| Recorder::quiet());
        // Crash the middle node twice (the second is a no-op): both
        // neighbours get exactly one notification each, despite nobody
        // ever calling monitor().
        sim.schedule_crash(NodeId(1), SimTime::from_millis(1));
        sim.schedule_crash(NodeId(1), SimTime::from_millis(2));
        assert!(sim.run().is_quiescent());
        assert_eq!(
            sim.process(NodeId(0)).notified,
            vec![(SimTime::from_millis(6), NodeId(1))]
        );
        assert_eq!(sim.process(NodeId(2)).notified.len(), 1);
        assert_eq!(sim.metrics().crash_notifications(), 2);
    }

    /// Eager start: every installed process is visible in id order
    /// whether or not an event ever reached it, `on_start` sends are
    /// delivered, and the processes come back out whole.
    #[test]
    fn eager_start_installs_and_starts_every_process() {
        let mut procs: Vec<Recorder> = (0..5).map(|_| Recorder::quiet()).collect();
        procs[3].sends_on_start = vec![(NodeId(1), Blob(vec![7])), (NodeId(3), Blob(vec![8]))];
        let mut sim = Simulation::new(SimConfig::default(), procs);
        assert!(sim.run().is_quiescent());
        let ids: Vec<NodeId> = sim.processes().map(|(id, _)| id).collect();
        assert_eq!(ids, (0..5).map(NodeId).collect::<Vec<_>>());
        assert_eq!(sim.process(NodeId(3)).received.len(), 1);
        assert!(sim.process(NodeId(4)).received.is_empty());
        assert_eq!(sim.metrics().messages_delivered(), 2);
        let procs = sim.into_processes();
        assert_eq!(procs.len(), 5);
        assert_eq!(procs[1].received[0].2, vec![7]);
    }

    /// The equivalence contract of [`Simulation::lazy`]: for a process
    /// whose `on_start` only monitors its graph neighbours, an eager
    /// and a lazy start agree bit-for-bit, under FIFO and under an
    /// exploring policy.
    #[test]
    fn eager_and_lazy_start_agree_for_neighbour_monitoring_processes() {
        use crate::explore::SchedulePolicy;
        let graph = Arc::new(precipice_graph::ring(9));
        let watcher = |graph: &Graph, me: NodeId| {
            let mut r = Recorder::quiet();
            r.monitors_on_start = graph.neighbors(me).to_vec();
            r
        };
        for policy in [SchedulePolicy::Fifo, SchedulePolicy::Random(17)] {
            let all = graph.nodes().map(|me| watcher(&graph, me)).collect();
            let mut eager = Simulation::with_policy(jittery_config(4), all, policy.clone());
            let g = Arc::clone(&graph);
            let spawn = move |me| watcher(&g, me);
            let mut lazy = Simulation::lazy_with_policy(jittery_config(4), &graph, spawn, policy);
            for sim in [&mut eager, &mut lazy] {
                sim.schedule_crash(NodeId(4), SimTime::from_millis(1));
                sim.schedule_crash(NodeId(5), SimTime::from_millis(3));
            }
            assert_eq!(eager.run(), lazy.run());
            assert_eq!(eager.trace().entries(), lazy.trace().entries());
            assert_eq!(eager.metrics(), lazy.metrics());
            assert_eq!(eager.recorded_schedule(), lazy.recorded_schedule());
            assert_eq!(eager.correct_nodes(), lazy.correct_nodes());
            // Nodes near the crashes were notified identically; the lazy
            // run never built the others.
            assert!(lazy.processes().count() < 5);
            for (id, p) in lazy.processes() {
                assert!(!p.notified.is_empty());
                assert_eq!(p.notified, eager.process(id).notified, "{id}");
            }
        }
    }

    /// Running a finished simulation again changes nothing: same
    /// outcome, same observables — at quiescence and at the event cap.
    #[test]
    fn running_a_finished_simulation_again_is_a_noop() {
        for cap in [None, Some(7)] {
            let mut a = Recorder::quiet();
            a.sends_on_start = (0..20u8).map(|i| (NodeId(1), Blob(vec![i]))).collect();
            let config = SimConfig {
                max_events: cap,
                ..jittery_config(6)
            };
            let mut sim = Simulation::new(config, vec![a, Recorder::quiet()]);
            sim.schedule_crash(NodeId(1), SimTime::from_millis(9));
            let first = sim.run();
            assert_eq!(first.is_quiescent(), cap.is_none());
            let (hash, metrics, now) = (sim.trace().hash(), sim.metrics().clone(), sim.now());
            assert_eq!(sim.run(), first);
            assert_eq!((sim.trace().hash(), sim.now()), (hash, now));
            assert_eq!(sim.metrics(), &metrics);
        }
    }
}
