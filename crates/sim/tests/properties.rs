//! Property-based tests of the simulator's transport guarantees: FIFO
//! channels under arbitrary jitter, exactly-once failure detection,
//! message conservation, and bit-determinism.

use precipice_graph::rng::{cases, Rng};
use precipice_graph::NodeId;
use precipice_sim::{Context, LatencyModel, MessageSize, Process, SimConfig, SimTime, Simulation};

/// A process that sends a scripted batch of tagged messages at start and
/// records everything it receives.
struct Scripted {
    script: Vec<(NodeId, u32)>,
    monitors: Vec<NodeId>,
    received: Vec<(NodeId, u32)>,
    notified: Vec<NodeId>,
}

#[derive(Clone, Debug)]
struct Tagged(u32);
impl MessageSize for Tagged {
    fn size_bytes(&self) -> usize {
        4
    }
}

impl Process for Scripted {
    type Msg = Tagged;
    fn on_start(&mut self, ctx: &mut Context<'_, Tagged>) {
        for &(to, tag) in &self.script {
            ctx.send(to, Tagged(tag));
        }
        for &t in &self.monitors {
            ctx.monitor(t);
        }
    }
    fn on_message(&mut self, from: NodeId, msg: Tagged, _ctx: &mut Context<'_, Tagged>) {
        self.received.push((from, msg.0));
    }
    fn on_crash_notification(&mut self, crashed: NodeId, _ctx: &mut Context<'_, Tagged>) {
        self.notified.push(crashed);
    }
}

fn build(n: usize, scripts: Vec<Vec<(u8, u32)>>, monitors: Vec<Vec<u8>>) -> Vec<Scripted> {
    (0..n)
        .map(|i| Scripted {
            script: scripts
                .get(i)
                .map(|s| {
                    s.iter()
                        .map(|&(to, tag)| (NodeId(u32::from(to) % n as u32), tag))
                        .collect()
                })
                .unwrap_or_default(),
            monitors: monitors
                .get(i)
                .map(|m| m.iter().map(|&t| NodeId(u32::from(t) % n as u32)).collect())
                .unwrap_or_default(),
            received: Vec::new(),
            notified: Vec::new(),
        })
        .collect()
}

fn jittery(seed: u64) -> SimConfig {
    SimConfig {
        seed,
        latency: LatencyModel::Uniform {
            min: SimTime::from_nanos(10),
            max: SimTime::from_millis(50),
        },
        fd_latency: LatencyModel::Uniform {
            min: SimTime::from_millis(1),
            max: SimTime::from_millis(30),
        },
        record_trace: false,
        max_events: None,
    }
}

/// `count` scripts (or monitor lists), each of a length drawn from
/// `len`, of items drawn by `item`.
fn lists<T>(
    rng: &mut Rng,
    count: std::ops::Range<usize>,
    len: std::ops::Range<usize>,
    item: fn(&mut Rng) -> T,
) -> Vec<Vec<T>> {
    (0..rng.gen_range(count))
        .map(|_| (0..rng.gen_range(len.clone())).map(|_| item(rng)).collect())
        .collect()
}

/// One scripted send: a destination byte and a tag.
fn send(rng: &mut Rng) -> (u8, u32) {
    (rng.next_u64() as u8, rng.next_u64() as u32)
}

/// Per-channel FIFO: each receiver sees each sender's tags in send
/// order, whatever the latency jitter does.
#[test]
fn channels_are_fifo_under_jitter() {
    cases("channels_are_fifo_under_jitter", 64, |rng| {
        let n = rng.gen_range(2..6);
        let scripts = lists(rng, 1..6, 0..30, send);
        let seed = rng.next_u64();
        let procs = build(n, scripts.clone(), vec![]);
        let mut sim = Simulation::new(jittery(seed), procs);
        assert!(sim.run().is_quiescent());
        for receiver in 0..n {
            let got = &sim.process(NodeId(receiver as u32)).received;
            for sender in 0..n {
                let sent_tags: Vec<u32> = scripts
                    .get(sender)
                    .map(|s| {
                        s.iter()
                            .filter(|&&(to, _)| (u32::from(to) % n as u32) == receiver as u32)
                            .map(|&(_, tag)| tag)
                            .collect()
                    })
                    .unwrap_or_default();
                let received_tags: Vec<u32> = got
                    .iter()
                    .filter(|(from, _)| *from == NodeId(sender as u32))
                    .map(|&(_, tag)| tag)
                    .collect();
                assert_eq!(
                    &received_tags, &sent_tags,
                    "channel {}->{} reordered",
                    sender, receiver
                );
            }
        }
    });
}

/// Conservation: sent = delivered + dropped, and with no crashes
/// nothing is dropped.
#[test]
fn message_conservation() {
    cases("message_conservation", 64, |rng| {
        let n = rng.gen_range(2..6);
        let scripts = lists(rng, 1..6, 0..20, send);
        let procs = build(n, scripts, vec![]);
        let mut sim = Simulation::new(jittery(rng.next_u64()), procs);
        sim.run();
        let m = sim.metrics();
        assert_eq!(
            m.messages_sent(),
            m.messages_delivered() + m.messages_dropped()
        );
        assert_eq!(m.messages_dropped(), 0);
    });
}

/// Determinism: the same sealed inputs give bit-identical traces;
/// different seeds (with jitter and enough traffic) differ.
#[test]
fn runs_are_deterministic() {
    cases("runs_are_deterministic", 64, |rng| {
        let scripts = lists(rng, 2..5, 5..20, send);
        let seed = rng.next_u64();
        let n = 5;
        let run = |s: u64| {
            let mut sim = Simulation::new(jittery(s), build(n, scripts.clone(), vec![]));
            sim.run();
            sim.trace().hash()
        };
        assert_eq!(run(seed), run(seed));
    });
}

/// Exactly-once detection under random monitor sets and crashes.
#[test]
fn failure_detection_exactly_once() {
    cases("failure_detection_exactly_once", 64, |rng| {
        // Draw until at least one node stays alive, so every case checks.
        let (monitors, crashed, seed) = loop {
            let monitors = lists(rng, 4..8, 0..8, |rng| rng.next_u64() as u8);
            let crash_mask = rng.next_u64() as u8;
            let seed = rng.next_u64();
            let crashed: Vec<NodeId> = (0..monitors.len())
                .filter(|i| crash_mask & (1 << (i % 8)) != 0)
                .map(|i| NodeId(i as u32))
                .collect();
            if crashed.len() < monitors.len() {
                break (monitors, crashed, seed);
            }
        };
        let n = monitors.len();
        let procs = build(n, vec![], monitors.clone());
        let mut sim = Simulation::new(jittery(seed), procs);
        for &c in &crashed {
            sim.schedule_crash(c, SimTime::from_millis(2));
        }
        assert!(sim.run().is_quiescent());
        for (i, monitor_list) in monitors.iter().enumerate() {
            let me = NodeId(i as u32);
            if crashed.contains(&me) {
                continue;
            }
            let my_monitors: std::collections::BTreeSet<NodeId> = monitor_list
                .iter()
                .map(|&t| NodeId(u32::from(t) % n as u32))
                .collect();
            let expected: std::collections::BTreeSet<NodeId> = my_monitors
                .intersection(&crashed.iter().copied().collect())
                .copied()
                .collect();
            let got = &sim.process(me).notified;
            let got_set: std::collections::BTreeSet<NodeId> = got.iter().copied().collect();
            assert_eq!(&got_set, &expected, "node {} notifications", i);
            assert_eq!(got.len(), got_set.len(), "duplicate notification at {}", i);
        }
    });
}
