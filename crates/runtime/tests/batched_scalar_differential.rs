//! Differential tests for slot reuse: a run on a [`BatchRunner`] whose
//! one slot has already hosted other runs must be **byte-identical** to
//! the same run executed alone on every observable — trace hash,
//! metrics, decisions, per-node stats, message pairs, digest, and the
//! recorded schedule — across seeds × topologies × [`SchedulePolicy`]s.
//!
//! Both arms are the simulator's one slot engine (what it must compute
//! is pinned by the naive oracle in `precipice-sim`). "Scalar" in the
//! names below is a fresh one-slot [`Scenario::exec`]; "batched" is a
//! `BatchRunner` whose slot hosted decoy runs, some of them fuzzed,
//! just before. So these pin that arena reuse leaks nothing from one
//! run into the next. Mirrors `lazy_eager_differential.rs`, which pins
//! the lazy start to the eager one.

use precipice_core::NodeIdValuePolicy;
use precipice_graph::rng::cases;
use precipice_graph::{random_geometric_connected, ring, torus, Graph, GridDims, NodeId};
use precipice_runtime::{BatchJob, BatchRunner, Exec, ExecOutcome, Scenario};
use precipice_sim::{SchedulePolicy, SimTime};

#[derive(Debug, Clone, Copy)]
enum Topo {
    Torus,
    Ring,
    Geometric,
}

/// A connected blob of `k` nodes grown breadth-first from `seed_node`
/// (the workload crate's `blob_of_size`, inlined — runtime sits below
/// workload in the dependency order).
fn blob_of_size(graph: &Graph, seed_node: NodeId, k: usize) -> Vec<NodeId> {
    let mut blob = vec![seed_node];
    let mut cursor = 0;
    while blob.len() < k && cursor < blob.len() {
        let p = blob[cursor];
        cursor += 1;
        for &q in graph.neighbors(p) {
            if blob.len() >= k {
                break;
            }
            if !blob.contains(&q) {
                blob.push(q);
            }
        }
    }
    blob.sort_unstable();
    blob
}

fn build_graph(topo: Topo, n: usize) -> Graph {
    match topo {
        Topo::Torus => {
            let side = (n as f64).sqrt().ceil().max(3.0) as usize;
            torus(GridDims::square(side))
        }
        Topo::Ring => ring(n.max(4)),
        Topo::Geometric => random_geometric_connected(n.max(8), 0.35, 42).expect("connected"),
    }
}

fn build_scenario(topo: Topo, n: usize, k: usize, gap_ms: u64, seed: u64) -> Scenario {
    let graph = build_graph(topo, n);
    let center = NodeId((graph.len() / 2) as u32);
    let region = blob_of_size(&graph, center, k.min(graph.len() / 3).max(1));
    let crashes: Vec<(NodeId, SimTime)> = region
        .iter()
        .enumerate()
        .map(|(i, &p)| (p, SimTime::from_millis(1 + gap_ms * i as u64)))
        .collect();
    Scenario::builder(graph)
        .name("batched-vs-scalar")
        .crashes(crashes)
        .seed(seed)
        .sim_config(precipice_sim::SimConfig {
            seed,
            latency: precipice_sim::LatencyModel::Uniform {
                min: SimTime::from_micros(200),
                max: SimTime::from_millis(2),
            },
            fd_latency: precipice_sim::LatencyModel::Uniform {
                min: SimTime::from_millis(1),
                max: SimTime::from_millis(5),
            },
            record_trace: true,
            max_events: Some(5_000_000),
        })
        .build()
}

/// The "batched" arm: `job` on a runner whose slot has just hosted
/// `decoys` runs of other seeds — a FIFO one, then fuzzed ones, so the
/// job follows a run that left an explorer and a recorded schedule in
/// the slot.
fn run_on_reused_slot(
    runner: &mut BatchRunner<NodeIdValuePolicy>,
    decoys: u64,
    job: BatchJob,
) -> ExecOutcome<NodeId> {
    let warm: Vec<BatchJob> = (0..decoys)
        .map(|i| BatchJob {
            seed: job.seed ^ (i + 1),
            policy: match i {
                0 => SchedulePolicy::Fifo,
                _ => SchedulePolicy::Random(job.seed ^ i),
            },
        })
        .collect();
    runner.run(&warm);
    runner.run_one(&job)
}

/// One variant on a reused slot ≡ the same variant alone, for every
/// policy kind.
#[test]
fn batched_runs_are_byte_identical_to_scalar() {
    cases("batched_runs_are_byte_identical_to_scalar", 16, |rng| {
        let topo = [Topo::Torus, Topo::Ring, Topo::Geometric][rng.gen_range(0..3usize)];
        let n = rng.gen_range(9..64);
        let k = rng.gen_range(1..6);
        let gap_ms = [0, 2, 30][rng.gen_range(0..3usize)];
        let seed = rng.next_u64();
        let policy_seed = rng.next_u64();
        let policy = match rng.gen_range(0..3usize) {
            0 => SchedulePolicy::Fifo,
            1 => SchedulePolicy::Random(policy_seed),
            _ => SchedulePolicy::Pcr(policy_seed),
        };
        let scenario = build_scenario(topo, n, k, gap_ms, seed);
        let scalar = scenario.exec(Exec::new().schedule(policy.clone()));
        let mut runner = BatchRunner::with_default_policy(&scenario, 1);
        let batched = run_on_reused_slot(&mut runner, 2, BatchJob { seed, policy });

        assert_eq!(
            scalar.report.trace_hash, batched.report.trace_hash,
            "trace diverged"
        );
        assert_eq!(&scalar.report.decisions, &batched.report.decisions);
        assert_eq!(&scalar.report.metrics, &batched.report.metrics);
        assert_eq!(&scalar.report.stats, &batched.report.stats);
        assert_eq!(&scalar.report.message_pairs, &batched.report.message_pairs);
        assert_eq!(scalar.report.outcome, batched.report.outcome);
        assert_eq!(
            &scalar.schedule, &batched.schedule,
            "recorded schedules diverged"
        );
        assert_eq!(scalar.report.digest(), batched.report.digest());
    });
}

/// A whole seed sweep through one reused `BatchRunner` — every run on
/// the slot the run before it used — matches per-seed fresh one-slot
/// execution result for result. Sweeps *across* seeds is
/// exactly the case the single-variant test above cannot cover:
/// slots must not leak any state between the runs they host.
#[test]
fn seed_sweeps_through_reused_slots_match_scalar() {
    cases("seed_sweeps_through_reused_slots_match_scalar", 16, |rng| {
        let topo = [Topo::Torus, Topo::Ring][rng.gen_range(0..2usize)];
        let n = rng.gen_range(9..49);
        let k = rng.gen_range(1..5);
        let base_seed = rng.next_u64();
        let policy_seed = rng.next_u64();
        let scenario = build_scenario(topo, n, k, 2, base_seed);
        // Mixed job kinds in one budget: seed sweep under FIFO plus a
        // fuzz probe pair, like the explorer's feed, so the slot goes
        // FIFO → Random → Pcr → FIFO and on.
        let jobs: Vec<BatchJob> = (0..9)
            .map(|i| BatchJob {
                seed: base_seed.wrapping_add(i),
                policy: match i % 3 {
                    0 => SchedulePolicy::Fifo,
                    1 => SchedulePolicy::Random(policy_seed ^ i),
                    _ => SchedulePolicy::Pcr(policy_seed ^ i),
                },
            })
            .collect();
        let mut runner = BatchRunner::with_default_policy(&scenario, 1);
        let outcomes = runner.run(&jobs);
        assert_eq!(outcomes.len(), jobs.len());
        for (job, got) in jobs.iter().zip(&outcomes) {
            let mut variant = scenario.clone();
            variant.sim.seed = job.seed;
            let want = variant.exec(Exec::new().schedule(job.policy.clone()));
            assert_eq!(
                got.report.trace_hash, want.report.trace_hash,
                "seed {} diverged",
                job.seed
            );
            assert_eq!(&got.report.decisions, &want.report.decisions);
            assert_eq!(&got.report.metrics, &want.report.metrics);
            assert_eq!(&got.report.stats, &want.report.stats);
            assert_eq!(&got.schedule, &want.schedule);
        }
    });
}

/// Schedules recorded on a reused slot replay bit-for-bit on a fresh
/// one-slot run and vice versa — a recorded schedule does not
/// depend on where it was recorded.
#[test]
fn recorded_schedules_replay_across_engines() {
    cases("recorded_schedules_replay_across_engines", 16, |rng| {
        let n = rng.gen_range(9..36);
        let k = rng.gen_range(1..4);
        let seed = rng.next_u64();
        let policy_seed = rng.next_u64();
        let scenario = build_scenario(Topo::Torus, n, k, 2, seed);
        let mut runner = BatchRunner::with_default_policy(&scenario, 1);
        let job = |policy| BatchJob { seed, policy };
        let batched = run_on_reused_slot(&mut runner, 2, job(SchedulePolicy::Random(policy_seed)));
        let scalar_replay =
            scenario.exec(Exec::new().schedule(SchedulePolicy::Replay(batched.schedule.clone())));
        assert_eq!(batched.report.trace_hash, scalar_replay.report.trace_hash);
        let replay = job(SchedulePolicy::Replay(batched.schedule.clone()));
        let batched_replay = run_on_reused_slot(&mut runner, 1, replay);
        assert_eq!(batched.report.trace_hash, batched_replay.report.trace_hash);
        assert_eq!(batched_replay.schedule, batched.schedule);
    });
}
