//! Layer probes: every layer timed from outside, through its public
//! functions only. A traced run executes all of them after its
//! workload; none depends on which workload that was.
//!
//! README.md lists the exact public function behind each probe. A
//! change to one of those functions invalidates the probe and needs a
//! benchmark change of its own first.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use precipice_core::json::Json;
use precipice_core::{Action, CliffEdgeNode, Event, NodeIdValuePolicy, ProtocolConfig, View};
use precipice_graph::{
    connected_components, is_connected_subset, rank_cmp, torus, Graph, GridDims, NodeId, NodeSet,
    Region,
};
use precipice_net::ring::{Pop, Ring};
use precipice_net::{ServeSession, ShardedCluster};
use precipice_runtime::{
    check_spec, probe, probe_live, shrink_schedule, BatchJob, BatchRunner, Exec,
};
use precipice_sim::{
    race_pairs_of, BatchSim, BatchVariant, Context, MessageSize, Process, SchedulePolicy, SimTime,
    Simulation,
};
use precipice_workload::explore::{explore_scenario, ExploreConfig, PolicyMix};
use precipice_workload::patterns::{blob_of_size, line_region};
use precipice_workload::sweep::{Jobs, SweepSpec};

use crate::gen::{sim_config, storm_lattice, torus_neighbours, torus_node, SplitMix};
use crate::serve::ok_reply;
use crate::simwl::{centre, fuzz_config, fuzz_scenario, planted_scenario, Class, SimSweep};
use crate::spans::Tracer;
use crate::stats::{median, ms, ns_per_call, percentile};
use crate::workload::{stream_big_torus, Sizes};

/// Probe results by metric name.
pub type Values = BTreeMap<String, f64>;

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn put(v: &mut Values, name: &str, value: f64) {
    v.insert(name.to_owned(), value);
}

fn med(samples: &[f64]) -> f64 {
    median(samples).expect("a probe takes at least one sample")
}

/// Runs every probe. `seed` only picks inputs; no probe's cost depends
/// on it by design.
pub fn run_all(sizes: &Sizes, seed: u64, dir: &Path) -> Result<Values, String> {
    let mut v = Values::new();
    let big = graph_probes(sizes, dir, &mut v)?;
    core_probes(sizes, &mut v);
    sim_probes(sizes, seed, &mut v);
    runtime_probes(sizes, seed, dir, &mut v)?;
    net_probes(sizes, seed, &big, &mut v)?;
    serve_probes(sizes, &mut v)?;
    workload_probes(sizes, seed, &mut v);
    budgets(&mut v);
    Ok(v)
}

/// graph: set algebra on a 64×64 torus with 64-node regions, topology
/// builds, and the mapped big torus. Returns the mapped graph.
fn graph_probes(sizes: &Sizes, dir: &Path, v: &mut Values) -> Result<Arc<Graph>, String> {
    let t = sizes.probe;
    let g = torus(GridDims::square(64));
    let blob = blob_of_size(&g, centre(64), 64);
    let line = line_region(&g, centre(64), 64);
    put(
        v,
        "graph.border_of_ns",
        ns_per_call(t, || {
            black_box(g.border_of(black_box(&blob).iter()));
        }),
    );
    put(
        v,
        "graph.border_cached_ns",
        ns_per_call(t, || {
            black_box(g.border_of_region_cached(black_box(&blob)));
        }),
    );
    put(
        v,
        "graph.rank_cmp_ns",
        ns_per_call(t, || {
            black_box(rank_cmp(&g, black_box(&blob), black_box(&line)));
        }),
    );
    let both: BTreeSet<NodeId> = blob.iter().chain(line.iter()).collect();
    put(
        v,
        "graph.components_ns",
        ns_per_call(t, || {
            black_box(connected_components(&g, black_box(&both)));
        }),
    );
    put(
        v,
        "graph.is_connected_subset_ns",
        ns_per_call(t, || {
            black_box(is_connected_subset(&g, black_box(&blob)));
        }),
    );
    let (mut a, b) = (NodeSet::from(&blob), NodeSet::from(&line));
    put(
        v,
        "graph.nodeset_union_ns",
        ns_per_call(t, || {
            a.union_with(black_box(&b));
            black_box(&mut a);
        }),
    );
    put(
        v,
        "graph.torus_build_ms",
        ns_per_call(t, || {
            black_box(torus(GridDims::square(black_box(64))));
        }) / 1e6,
    );

    let mut streams = Vec::new();
    let mut file = None;
    for _ in 0..sizes.setup_reps {
        let started = Instant::now();
        file = Some(stream_big_torus(dir, sizes.big_side)?);
        streams.push(ms(started.elapsed()));
    }
    let file = file.expect("at least one set-up repetition");
    put(v, "graph.pcsr_stream_ms", med(&streams));
    let mut failed = None;
    put(
        v,
        "graph.pcsr_open_us",
        ns_per_call(t, || match Graph::open_pcsr(&file) {
            Ok(graph) => {
                black_box(graph);
            }
            Err(e) => failed = Some(e.to_string()),
        }) / 1e3,
    );
    if let Some(e) = failed {
        return Err(format!("open {}: {e}", file.display()));
    }
    let big = Graph::open_pcsr(&file).map_err(|e| format!("open {}: {e}", file.display()))?;
    let blob8 = blob_of_size(&big, centre(sizes.big_side), 8);
    put(
        v,
        "graph.mapped_border_of_ns",
        ns_per_call(t, || {
            black_box(big.border_of(black_box(&blob8).iter()));
        }),
    );
    Ok(Arc::new(big))
}

/// What one pump of the protocol core over a crashed region observed.
struct Pump {
    handles: u64,
    actions: u64,
    handle_ns: f64,
}

/// The benchmark's own zero-latency FIFO pump: crashes `region` all at
/// once on `graph`, feeds every border node its events in arrival
/// order, and times only the `CliffEdgeNode::handle` calls. Failure
/// detection follows the live runtime's rule: neighbours of a crashed
/// node are told at once, and a `Monitor` of an already-crashed node is
/// answered at once, each pair exactly once.
fn pump(graph: &Arc<Graph>, region: &Region, timer_ns: f64) -> Result<Pump, String> {
    type Node = CliffEdgeNode<Arc<Graph>, NodeIdValuePolicy>;
    let mut nodes: BTreeMap<NodeId, Node> = BTreeMap::new();
    let mut queue: VecDeque<(NodeId, Event<NodeId>)> = VecDeque::new();
    let mut notified: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();
    let mut decided: BTreeMap<NodeId, Region> = BTreeMap::new();
    let mut out = Pump {
        handles: 0,
        actions: 0,
        handle_ns: 0.0,
    };
    for q in region.iter() {
        for &b in graph.neighbors(q) {
            if !region.contains(b) && notified.insert((b, q)) {
                queue.push_back((b, Event::Crash(q)));
            }
        }
    }
    let timed = |node: &mut Node, event: Event<NodeId>, out: &mut Pump| {
        let started = Instant::now();
        let actions = node.handle(event);
        out.handle_ns += started.elapsed().as_nanos() as f64 - timer_ns;
        out.handles += 1;
        out.actions += actions.len() as u64;
        actions
    };
    while let Some((to, event)) = queue.pop_front() {
        let node = nodes.entry(to).or_insert_with(|| {
            let mut node = CliffEdgeNode::new(
                to,
                Arc::clone(graph),
                NodeIdValuePolicy,
                ProtocolConfig::default(),
            );
            // Init only monitors graph neighbours, which the detector
            // covers already.
            timed(&mut node, Event::Init, &mut out);
            node
        });
        for action in timed(node, event, &mut out) {
            match action {
                Action::Monitor(targets) => {
                    for target in targets {
                        if region.contains(target) && notified.insert((to, target)) {
                            queue.push_back((to, Event::Crash(target)));
                        }
                    }
                }
                Action::Multicast {
                    recipients,
                    message,
                } => {
                    for r in recipients.into_iter().filter(|r| !region.contains(*r)) {
                        queue.push_back((
                            r,
                            Event::Deliver {
                                from: to,
                                message: message.clone(),
                            },
                        ));
                    }
                }
                Action::Decide { view, .. } => {
                    decided.insert(to, view.region().clone());
                }
            }
        }
    }
    let border = graph.border_of(region.iter());
    if decided.len() != border.len() || decided.values().any(|r| r != region) {
        return Err(format!(
            "core pump: {} of {} border nodes decided the crashed region of {} nodes",
            decided.values().filter(|r| *r == region).count(),
            border.len(),
            region.len()
        ));
    }
    Ok(out)
}

/// core: ns per `handle` call for regions of 1, 8, 16 and 64 nodes,
/// view construction and ranking, and the serve JSON codec.
fn core_probes(sizes: &Sizes, v: &mut Values) {
    let t = sizes.probe;
    let graph = Arc::new(torus(GridDims::square(32)));
    let timer_ns = ns_per_call(t, || {
        black_box(black_box(Instant::now()).elapsed());
    });
    for k in [1usize, 8, 16, 64] {
        let region = blob_of_size(&graph, centre(32), k);
        let mut per_handle = Vec::new();
        let mut per_event = Vec::new();
        for _ in 0..sizes.probe_reps {
            // A failed pump is a broken probe, not a slow one: leave
            // the metric out so the run reports it missing.
            let Ok(p) = pump(&graph, &region, timer_ns) else {
                break;
            };
            per_handle.push(p.handle_ns / p.handles as f64);
            per_event.push(p.actions as f64 / p.handles as f64);
        }
        if per_handle.len() == sizes.probe_reps {
            put(v, &format!("core.handle_event_ns.r{k}"), med(&per_handle));
            if k == 16 {
                put(v, "core.actions_per_event", med(&per_event));
            }
        }
    }

    let blob = blob_of_size(&graph, centre(32), 64);
    let line = line_region(&graph, centre(32), 64);
    put(
        v,
        "core.view_new_ns",
        ns_per_call(t, || {
            black_box(View::new(&graph, black_box(&blob).clone()));
        }),
    );
    let (va, vb) = (View::new(&graph, blob), View::new(&graph, line));
    put(
        v,
        "core.view_rank_cmp_ns",
        ns_per_call(t, || {
            black_box(black_box(&va).rank_cmp(black_box(&vb)));
        }),
    );
    let crash_line = r#"{"cmd":"crash","id":"storm-17","node":524800}"#;
    put(
        v,
        "core.json_parse_ns",
        ns_per_call(t, || {
            black_box(Json::parse(black_box(crash_line)).is_ok());
        }),
    );
    let read_reply = Json::parse(
        r#"{"ok":true,"node":523776,"decided":true,"region":[524800],"border":[523776,524799,524801,525824],"value":523776}"#,
    )
    .expect("a literal read reply");
    put(
        v,
        "core.json_to_line_ns",
        ns_per_call(t, || {
            black_box(black_box(&read_reply).to_line());
        }),
    );
}

/// The engine-floor process: no protocol, only tokens walking the id
/// space. A crash notification starts a token at each neighbour of a
/// crashed node; every delivery forwards it one node on until its hops
/// run out.
struct Relay {
    side: usize,
    hops: u32,
}

#[derive(Debug, Clone)]
struct Token(u32);

impl MessageSize for Token {
    fn size_bytes(&self) -> usize {
        4
    }
}

impl Relay {
    /// The next node in id order that is not a (crashed) lattice node.
    fn next(&self, me: NodeId) -> NodeId {
        let n = (self.side * self.side) as u32;
        let mut to = (me.0 + 1) % n;
        while (to as usize / self.side) % 4 == 1 && (to as usize % self.side) % 4 == 1 {
            to = (to + 1) % n;
        }
        NodeId(to)
    }
}

impl Process for Relay {
    type Msg = Token;

    fn on_start(&mut self, _ctx: &mut Context<'_, Token>) {}

    fn on_message(&mut self, _from: NodeId, msg: Token, ctx: &mut Context<'_, Token>) {
        if msg.0 > 0 {
            ctx.send(self.next(ctx.me()), Token(msg.0 - 1));
        }
    }

    fn on_crash_notification(&mut self, _crashed: NodeId, ctx: &mut Context<'_, Token>) {
        ctx.send(self.next(ctx.me()), Token(self.hops));
    }
}

/// sim: the engine floor (events per second with no protocol) on the
/// scalar and the batch engine, under FIFO and under random
/// scheduling, the cost of keeping trace entries, and race-pair
/// extraction.
fn sim_probes(sizes: &Sizes, seed: u64, v: &mut Values) {
    const SIDE: usize = 16;
    const WAVE: u64 = 16;
    let hops = if sizes.probe_reps > 2 { 1_000 } else { 50 };
    let graph = Arc::new(torus(GridDims::square(SIDE)));
    let crashes: Vec<(NodeId, SimTime)> = storm_lattice(SIDE, seed)
        .into_iter()
        .map(|q| (NodeId(q), SimTime::from_millis(1)))
        .collect();
    let tokens = 4 * crashes.len() as u64;

    let scalar = |policy: SchedulePolicy| {
        let samples: Vec<f64> = (0..sizes.probe_reps)
            .map(|_| {
                let mut sim = Simulation::lazy_with_policy(
                    sim_config(seed, false),
                    &graph,
                    move |_me| Relay { side: SIDE, hops },
                    policy.clone(),
                );
                for &(node, at) in &crashes {
                    sim.schedule_crash(node, at);
                }
                let started = Instant::now();
                let outcome = sim.run();
                assert!(outcome.events() > tokens * u64::from(hops));
                outcome.events() as f64 / started.elapsed().as_secs_f64()
            })
            .collect();
        med(&samples)
    };
    put(v, "sim.engine_events_per_s", scalar(SchedulePolicy::Fifo));
    put(
        v,
        "sim.engine_events_per_s.random",
        scalar(SchedulePolicy::Random(seed)),
    );

    let batch = |policy: fn(u64) -> SchedulePolicy| {
        let variants: Vec<BatchVariant> = (0..WAVE)
            .map(|i| BatchVariant {
                config: sim_config(seed.wrapping_add(i), false),
                policy: policy(seed.wrapping_add(i)),
                crashes: crashes.clone(),
            })
            .collect();
        let mut engine = BatchSim::new(Arc::clone(&graph), |_run, _me| Relay { side: SIDE, hops });
        let samples: Vec<f64> = (0..sizes.probe_reps.div_ceil(4))
            .map(|_| {
                let started = Instant::now();
                let runs = engine.run(&variants);
                let events: u64 = runs.iter().map(|r| r.outcome.events()).sum();
                events as f64 / started.elapsed().as_secs_f64()
            })
            .collect();
        med(&samples)
    };
    put(v, "sim.batch_events_per_s", batch(|_| SchedulePolicy::Fifo));
    put(
        v,
        "sim.batch_events_per_s.random",
        batch(SchedulePolicy::Random),
    );

    let mut fuzz = fuzz_scenario(seed);
    let traced_ns = ns_per_call(sizes.probe, || {
        black_box(fuzz.exec(Exec::new()));
    });
    let entries = fuzz
        .exec(Exec::new())
        .trace
        .expect("the simulator returns its trace");
    let entries = entries.entries().expect("the scenario records entries");
    put(
        v,
        "sim.race_pairs_us",
        ns_per_call(sizes.probe, || {
            black_box(race_pairs_of(black_box(entries)));
        }) / 1e3,
    );
    fuzz.sim.record_trace = false;
    let untraced_ns = ns_per_call(sizes.probe, || {
        black_box(fuzz.exec(Exec::new()));
    });
    put(v, "sim.trace_record_share", 1.0 - untraced_ns / traced_ns);
}

/// runtime: each `sim_sweep` class run on its own, scenario assembly,
/// digest and checker, the batch runner, a scalar probe, and the
/// schedule shrinker on the planted bug.
fn runtime_probes(sizes: &Sizes, seed: u64, dir: &Path, v: &mut Values) -> Result<(), String> {
    let off = &mut Tracer::off();
    let sweep = SimSweep::new(sizes, seed, dir)?;
    let mut rng = SplitMix::new(seed, 0x9b0b);
    let mut blob64_report = None;
    for class in Class::ALL {
        let mut exec_ms = Vec::new();
        let mut per_event = Vec::new();
        for rep in 0..sizes.probe_reps {
            let scenario = sweep.scenario(class, &mut rng, seed.wrapping_add(rep as u64), off)?;
            let started = Instant::now();
            let report = scenario.exec(Exec::new()).report;
            let took = started.elapsed();
            exec_ms.push(ms(took));
            per_event.push(took.as_nanos() as f64 / report.outcome.events().max(1) as f64);
            if class == Class::Blob64 {
                blob64_report = Some(report);
            }
        }
        put(
            v,
            &format!("runtime.exec_ms.{}", class.name()),
            med(&exec_ms),
        );
        put(
            v,
            &format!("runtime.ns_per_event.{}", class.name()),
            med(&per_event),
        );
    }
    let mut failed = None;
    put(
        v,
        "runtime.scenario_build_us",
        ns_per_call(sizes.probe, || {
            match sweep.scenario(Class::Cliff, &mut rng, seed, &mut Tracer::off()) {
                Ok(scenario) => {
                    black_box(scenario);
                }
                Err(e) => failed = Some(e),
            }
        }) / 1e3,
    );
    if let Some(e) = failed {
        return Err(e);
    }
    let blob64_report = blob64_report.expect("every class ran");
    put(
        v,
        "runtime.digest_us",
        ns_per_call(sizes.probe, || {
            black_box(black_box(&blob64_report).digest());
        }) / 1e3,
    );

    let fuzz = fuzz_scenario(seed);
    let fuzz_report = fuzz.exec(Exec::new()).report;
    put(
        v,
        "runtime.check_spec_us",
        ns_per_call(sizes.probe, || {
            black_box(check_spec(black_box(&fuzz_report)));
        }) / 1e3,
    );
    let jobs: Vec<BatchJob> = (0..16)
        .map(|index| BatchJob {
            seed: fuzz.sim.seed,
            policy: PolicyMix::Mixed.policy_for(seed, index),
        })
        .collect();
    let mut runner = BatchRunner::with_default_policy(&fuzz, jobs.len());
    let mut wave_ms = Vec::new();
    let mut per_event = Vec::new();
    for _ in 0..sizes.probe_reps.div_ceil(2) {
        let started = Instant::now();
        let outcomes = runner.run(&jobs);
        let took = started.elapsed();
        let events: u64 = outcomes.iter().map(|o| o.report.outcome.events()).sum();
        wave_ms.push(ms(took));
        per_event.push(took.as_nanos() as f64 / events.max(1) as f64);
    }
    put(v, "runtime.batch_run_ms", med(&wave_ms));
    put(v, "runtime.batch_ns_per_event", med(&per_event));
    put(
        v,
        "runtime.probe_ms",
        ns_per_call(sizes.probe, || {
            black_box(probe(&fuzz, SchedulePolicy::Random(seed)));
        }) / 1e6,
    );

    let planted = planted_scenario();
    let hunt = ExploreConfig {
        stop_after: 1,
        shrink_runs: 0,
        ..fuzz_config(256, 1)
    };
    let found = explore_scenario(&planted, &hunt, Jobs::serial());
    let schedule = found
        .probes
        .iter()
        .find_map(|p| p.schedule.clone())
        .ok_or("the planted bug escaped 256 schedules")?;
    let shrinks: Vec<f64> = (0..sizes.probe_reps.div_ceil(5))
        .map(|_| {
            let started = Instant::now();
            let shrunk = shrink_schedule(&planted, &schedule, 400);
            assert!(!shrunk.violations.is_empty());
            ms(started.elapsed())
        })
        .collect();
    put(v, "runtime.shrink_schedule_ms", med(&shrinks));
    Ok(())
}

/// Spins (yielding) until `done()` or five seconds pass.
fn spin_until(mut done: impl FnMut() -> bool, what: &str) -> Result<(), String> {
    let started = Instant::now();
    while !done() {
        if started.elapsed() > Duration::from_secs(5) {
            return Err(format!("{what}: not done after 5 s"));
        }
        std::thread::yield_now();
    }
    Ok(())
}

/// One storm straight on a `ShardedCluster`: kill the lattice, spin
/// until nothing is pending, check the 4-per-cliff decisions.
struct Storm {
    decide: Duration,
    events: u64,
    messages: u64,
    spilled: u64,
}

fn storm(graph: &Arc<Graph>, lattice: &[u32], shards: usize) -> Result<Storm, String> {
    let mut cluster =
        ShardedCluster::start_shared(Arc::clone(graph), ProtocolConfig::default(), shards);
    let started = Instant::now();
    for &q in lattice {
        cluster.kill(NodeId(q));
    }
    let settled = spin_until(|| cluster.pending() == 0, "storm");
    let decide = started.elapsed();
    let decisions = cluster.decisions_snapshot().len();
    let counters = cluster.counters();
    let spilled = cluster.spilled();
    cluster.shutdown();
    settled?;
    if decisions != 4 * lattice.len() {
        return Err(format!(
            "storm: {decisions} decisions with nothing pending, expected {}",
            4 * lattice.len()
        ));
    }
    Ok(Storm {
        decide,
        events: counters.events,
        messages: counters.messages_sent,
        spilled,
    })
}

/// net: the ring alone and across threads, cluster start and stop, an
/// idle `await`, one cliff on the mapped torus, and the storm.
fn net_probes(sizes: &Sizes, seed: u64, big: &Arc<Graph>, v: &mut Values) -> Result<(), String> {
    let tick = Duration::from_millis(10);
    let ring: Ring<u64> = Ring::new(1024);
    put(
        v,
        "net.ring_push_pop_ns",
        ns_per_call(sizes.probe, || {
            ring.push(black_box(7));
            black_box(ring.pop(tick));
        }),
    );

    let (there, back) = (Arc::new(Ring::<u64>::new(1024)), Arc::new(Ring::new(1024)));
    let hops = 200 * sizes.probe_reps as u64;
    let echo = {
        let (there, back) = (Arc::clone(&there), Arc::clone(&back));
        std::thread::spawn(move || loop {
            match there.pop(tick) {
                Pop::Item(x) => {
                    back.push(x);
                }
                Pop::TimedOut => {}
                Pop::Closed => break,
            }
        })
    };
    let started = Instant::now();
    let mut echoed = 0;
    for i in 0..hops {
        there.push(i);
        while !matches!(back.pop(tick), Pop::Item(_)) {}
        echoed += 1;
    }
    let round_trips = started.elapsed();
    there.close();
    echo.join().map_err(|_| "ring echo thread panicked")?;
    put(v, "net.ring_hop_us", us(round_trips) / (2 * echoed) as f64);

    let storm_side = sizes.storm_side;
    let small = Arc::new(torus(GridDims::square(storm_side)));
    let (mut starts, mut stops) = (Vec::new(), Vec::new());
    for _ in 0..sizes.probe_reps {
        let started = Instant::now();
        let cluster =
            ShardedCluster::start_shared(Arc::clone(&small), ProtocolConfig::default(), 2);
        starts.push(us(started.elapsed()));
        let stopping = Instant::now();
        black_box(cluster.shutdown());
        stops.push(us(stopping.elapsed()));
    }
    put(v, "net.cluster_start_us", med(&starts));
    put(v, "net.cluster_shutdown_us", med(&stops));

    let mut session = ServeSession::default();
    let mut idle = Vec::new();
    ok_reply(&session.handle_line(r#"{"cmd":"open","topology":"torus:8"}"#))?;
    for _ in 0..sizes.probe_reps.div_ceil(5) {
        let started = Instant::now();
        ok_reply(&session.handle_line(r#"{"cmd":"await","timeout_ms":30000}"#))?;
        idle.push(ms(started.elapsed()));
    }
    ok_reply(&session.handle_line(r#"{"cmd":"close"}"#))?;
    put(v, "net.await_idle_ms", med(&idle));

    let mut rng = SplitMix::new(seed, 0xc11f);
    let mut cliff = Vec::new();
    for _ in 0..2 * sizes.probe_reps {
        let q = rng.below(big.len() as u64) as u32;
        let border = torus_neighbours(sizes.big_side, q).map(NodeId);
        let mut cluster =
            ShardedCluster::start_shared(Arc::clone(big), ProtocolConfig::default(), 2);
        let started = Instant::now();
        cluster.kill(NodeId(q));
        let decided = spin_until(
            || border.iter().all(|&b| cluster.decision_of(b).is_some()),
            "cliff",
        );
        cliff.push(us(started.elapsed()));
        cluster.shutdown();
        decided?;
    }
    put(v, "net.cliff_decide_us.p50", med(&cliff));

    let lattice = storm_lattice(storm_side, seed);
    let mut decide_ms = Vec::new();
    let mut last = None;
    for _ in 0..sizes.probe_reps {
        let s = storm(&small, &lattice, 1)?;
        decide_ms.push(ms(s.decide));
        last = Some(s);
    }
    let last = last.expect("at least one storm");
    let p50 = med(&decide_ms);
    put(v, "net.storm_decide_ms.p50", p50);
    put(
        v,
        "net.storm_decide_ms.p95",
        percentile(&decide_ms, 0.95).expect("at least one storm"),
    );
    put(
        v,
        "net.storm_events_per_s",
        last.events as f64 / (p50 / 1e3),
    );
    put(
        v,
        "net.storm_us_per_cliff",
        p50 * 1e3 / lattice.len() as f64,
    );
    put(v, "net.spilled", last.spilled as f64);
    put(
        v,
        "net.msgs_per_cliff",
        last.messages as f64 / lattice.len() as f64,
    );
    let mut two = Vec::new();
    for _ in 0..sizes.probe_reps {
        let s = storm(&small, &lattice, 2)?;
        two.push(s.events as f64 / s.decide.as_secs_f64());
    }
    put(v, "net.storm_events_per_s.s2", med(&two));

    let fuzz = fuzz_scenario(seed);
    let gated: Vec<f64> = (0..sizes.probe_reps.div_ceil(5))
        .map(|i| {
            let started = Instant::now();
            black_box(probe_live(&fuzz, 2, seed.wrapping_add(i as u64)));
            ms(started.elapsed())
        })
        .collect();
    put(v, "net.gated_probe_ms", med(&gated));
    Ok(())
}

/// serve: the p50 cost of each command over a few lifecycles of one
/// cliff on a 64×64 torus — the command path the two serve workloads
/// drive, at a size where the commands, not the topology, are timed.
fn serve_probes(sizes: &Sizes, v: &mut Values) -> Result<(), String> {
    let side = sizes.storm_side;
    let q = torus_node(side, side / 2, side / 2);
    let commands = [
        (
            "serve.open_us",
            format!(r#"{{"cmd":"open","topology":"torus:{side}"}}"#),
        ),
        ("serve.crash_us", format!(r#"{{"cmd":"crash","node":{q}}}"#)),
        (
            "serve.await_ms",
            r#"{"cmd":"await","timeout_ms":30000}"#.to_owned(),
        ),
        (
            "serve.read_us",
            format!(r#"{{"cmd":"read","node":{}}}"#, q + 1),
        ),
        ("serve.status_us", r#"{"cmd":"status"}"#.to_owned()),
        ("serve.close_us", r#"{"cmd":"close"}"#.to_owned()),
    ];
    let mut session = ServeSession::default();
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); commands.len()];
    for _ in 0..sizes.probe_reps.div_ceil(3) {
        for ((_, line), samples) in commands.iter().zip(&mut samples) {
            let started = Instant::now();
            let reply = session.handle_line(line);
            samples.push(us(started.elapsed()));
            ok_reply(&reply)?;
        }
    }
    for ((name, _), samples) in commands.iter().zip(&samples) {
        let scale = if name.ends_with("_ms") { 1e-3 } else { 1.0 };
        put(v, name, med(samples) * scale);
    }
    Ok(())
}

/// workload: the explorer under each blind policy, the sweep
/// dispatcher on jobs that do nothing, and region carving.
fn workload_probes(sizes: &Sizes, seed: u64, v: &mut Values) {
    let fuzz = fuzz_scenario(seed);
    let budget = sizes.fuzz_budget / 4;
    let explore = |policy: PolicyMix| {
        let cfg = ExploreConfig {
            budget,
            seed,
            policy,
            ..ExploreConfig::default()
        };
        let started = Instant::now();
        let outcome = explore_scenario(&fuzz, &cfg, Jobs::serial());
        let took = started.elapsed();
        let events: u64 = outcome.probes.iter().map(|p| p.events).sum();
        (
            outcome.schedules() as f64 / took.as_secs_f64(),
            took.as_nanos() as f64 / events.max(1) as f64,
        )
    };
    put(
        v,
        "workload.explore_schedules_per_s.random",
        explore(PolicyMix::Random).0,
    );
    put(
        v,
        "workload.explore_schedules_per_s.pcr",
        explore(PolicyMix::Pcr).0,
    );
    put(
        v,
        "workload.explore_ns_per_event",
        explore(PolicyMix::Mixed).1,
    );

    let inputs: Vec<u64> = (0..1024).collect();
    let spec = SweepSpec::new(Jobs::serial());
    put(
        v,
        "workload.sweepspec_overhead_us",
        ns_per_call(sizes.probe, || {
            black_box(spec.map(black_box(&inputs), |i, x| black_box(x + i as u64)));
        }) / 1e3,
    );
    let g = torus(GridDims::square(64));
    put(
        v,
        "workload.blob_of_size_us",
        ns_per_call(sizes.probe, || {
            black_box(blob_of_size(&g, centre(64), black_box(64)));
        }) / 1e3,
    );
}

/// The time budget per layer, estimated from outside: of a class's
/// measured ns per event, the share the bare engine would take
/// (`engine_share`), the share `CliffEdgeNode::handle` would take at
/// one call per event (`core_share`), and what neither explains.
fn budgets(v: &mut Values) {
    let classes = [
        (
            "cliff",
            "runtime.ns_per_event.cliff",
            "sim.engine_events_per_s",
            8,
        ),
        (
            "blob64",
            "runtime.ns_per_event.blob64",
            "sim.engine_events_per_s",
            64,
        ),
        (
            "cascade",
            "runtime.ns_per_event.cascade",
            "sim.engine_events_per_s",
            16,
        ),
        (
            "check_fuzz",
            "workload.explore_ns_per_event",
            "sim.batch_events_per_s.random",
            16,
        ),
    ];
    for (class, per_event, engine, region) in classes {
        let (Some(&per_event), Some(&engine), Some(&core)) = (
            v.get(per_event),
            v.get(engine),
            v.get(&format!("core.handle_event_ns.r{region}")),
        ) else {
            continue;
        };
        let engine_share = 1e9 / engine / per_event;
        let core_share = core / per_event;
        put(v, &format!("budget.{class}.engine_share"), engine_share);
        put(v, &format!("budget.{class}.core_share"), core_share);
        put(
            v,
            &format!("budget.{class}.residual_share"),
            1.0 - engine_share - core_share,
        );
    }
}
