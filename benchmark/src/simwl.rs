//! The two simulator workloads, and the scenarios the layer probes
//! share with them.
//!
//! - `check_fuzz`: one operation is the `explore_scenario` call behind
//!   `precipice check` — 256 schedules under mixed random/PCR policies,
//!   every one of them spec-checked.
//! - `sim_sweep`: one operation is a fixed 39-run cycle of FIFO
//!   `Scenario::exec` + `digest`, the work behind the E1–E9 tables and
//!   `precipice --runs`.
//!
//! All simulator work runs on the calling thread (`Jobs::serial()`).

use std::path::{Path, PathBuf};
use std::time::Instant;

use precipice_core::ProtocolConfig;
use precipice_graph::{torus, Graph, GridDims, NodeId};
use precipice_runtime::{check_spec, BatchJob, BatchRunner, Exec, Scenario};
use precipice_sim::SimTime;
use precipice_workload::explore::{explore_scenario, ExploreConfig, ExploreOutcome, PolicyMix};
use precipice_workload::patterns::{blob_of_size, schedule, CrashTiming};
use precipice_workload::sweep::Jobs;

use crate::gen::{sim_config, torus_node, SplitMix};
use crate::spans::Tracer;
use crate::stats::Fnv;
use crate::workload::{stream_big_torus, OpResult, Sizes, Workload};

/// Schedules of a traced `check_fuzz` operation that are replayed
/// through `BatchRunner::run` → `check_spec`, one layer at a time.
const DECOMPOSED: u64 = 64;
/// Lockstep wave width of that replay — the width `explore_scenario`
/// itself uses.
const WAVE: usize = 16;

fn simultaneous() -> CrashTiming {
    CrashTiming::Simultaneous(SimTime::from_millis(1))
}

/// The node in the middle of a `side × side` torus.
pub fn centre(side: usize) -> NodeId {
    NodeId(torus_node(side, side / 2, side / 2))
}

/// The `check_fuzz` scenario: a `blob:16` crashing at once at the
/// centre of a 12×12 torus, trace recorded, clean protocol.
pub fn fuzz_scenario(seed: u64) -> Scenario {
    blob_scenario("check-fuzz", 12, 16, simultaneous(), seed, true)
}

/// A `blob:<k>` at the centre of a generated `side × side` torus.
pub fn blob_scenario(
    name: &str,
    side: usize,
    k: usize,
    timing: CrashTiming,
    seed: u64,
    record_trace: bool,
) -> Scenario {
    scenario_on(
        name,
        torus(GridDims::square(side)),
        centre(side),
        k,
        timing,
        seed,
        record_trace,
    )
}

fn scenario_on(
    name: &str,
    graph: Graph,
    at: NodeId,
    k: usize,
    timing: CrashTiming,
    seed: u64,
    record_trace: bool,
) -> Scenario {
    let region = blob_of_size(&graph, at, k);
    Scenario::builder(graph)
        .name(name)
        .crashes(schedule(region.iter(), timing))
        .sim_config(sim_config(seed, record_trace))
        .build()
}

/// The planted-bug scenario `benchmark verify` hunts: inverted
/// arbitration on an 8×8 torus where nodes 27 and 29 crash at 1 ms and
/// their shared border node 28 at 9 ms, with four far-away crashes as
/// background traffic. FIFO never lets the late crash overlap a live
/// instance, so only an explored schedule reaches the bug.
pub fn planted_scenario() -> Scenario {
    let at = SimTime::from_millis;
    Scenario::builder(torus(GridDims::square(8)))
        .name("planted-inverted-arbitration")
        .crashes([
            (NodeId(27), at(1)),
            (NodeId(29), at(1)),
            (NodeId(28), at(9)),
            (NodeId(0), at(2)),
            (NodeId(4), at(5)),
            (NodeId(40), at(8)),
            (NodeId(44), at(11)),
        ])
        .protocol(ProtocolConfig::faithful().with_inverted_arbitration(true))
        .sim_config(sim_config(7, true))
        .build()
}

/// The exploration `check_fuzz` times: `budget` schedules under the
/// mixed random/PCR policies, everything else as `precipice check`
/// defaults it.
pub fn fuzz_config(budget: u64, explore_seed: u64) -> ExploreConfig {
    ExploreConfig {
        budget,
        seed: explore_seed,
        policy: PolicyMix::Mixed,
        ..ExploreConfig::default()
    }
}

/// One `check_fuzz` operation on `scenario`: the call, its checks, and
/// its counts folded into `out`.
pub fn explore_op(
    scenario: &Scenario,
    cfg: &ExploreConfig,
    tracer: &mut Tracer,
    out: &mut OpResult,
) -> ExploreOutcome {
    let outcome = tracer.span("explore", |_| {
        explore_scenario(scenario, cfg, Jobs::serial())
    });
    out.attempted = cfg.budget;
    let explored = outcome.probes.len() as u64;
    if explored != cfg.budget && cfg.stop_after == 0 {
        out.fail(
            cfg.budget.saturating_sub(explored).max(1),
            format!("explored {explored} of {} schedules", cfg.budget),
        );
    }
    let mut hash = Fnv::new();
    for probe in &outcome.probes {
        if probe.violations > 0 {
            out.fail(
                1,
                format!(
                    "schedule {} ({}) violates the specification",
                    probe.index, probe.policy
                ),
            );
        }
        out.events += probe.events;
        out.deviations += probe.deviations as u64;
        hash.word(probe.trace_hash);
    }
    out.hash = hash.0;
    outcome
}

/// `check_fuzz`, set up.
#[derive(Debug)]
pub struct CheckFuzz {
    scenario: Scenario,
    budget: u64,
    seed: u64,
}

impl CheckFuzz {
    pub fn new(sizes: &Sizes, seed: u64) -> Self {
        CheckFuzz {
            scenario: fuzz_scenario(seed),
            budget: sizes.fuzz_budget,
            seed,
        }
    }

    /// Replays the first schedules of the operation one layer at a
    /// time, under their own spans, and checks that the replay runs the
    /// very schedules the explorer ran.
    fn decomposed(
        &self,
        explore_seed: u64,
        outcome: &ExploreOutcome,
        tracer: &mut Tracer,
        out: &mut OpResult,
    ) {
        let jobs: Vec<BatchJob> = (0..DECOMPOSED.min(self.budget))
            .map(|index| BatchJob {
                seed: self.scenario.sim.seed,
                policy: PolicyMix::Mixed.policy_for(explore_seed, index),
            })
            .collect();
        let replayed = tracer.span("batch_run", |_| {
            BatchRunner::with_default_policy(&self.scenario, WAVE).run(&jobs)
        });
        let violations: usize = tracer.span("check_spec", |_| {
            replayed.iter().map(|r| check_spec(&r.report).len()).sum()
        });
        let same = replayed
            .iter()
            .zip(&outcome.probes)
            .all(|(r, p)| r.report.trace_hash == p.trace_hash);
        if !same || violations > 0 {
            out.fail(1, "the decomposed replay diverged from the exploration");
        }
    }
}

impl Workload for CheckFuzz {
    fn warmup_ops(&self) -> u64 {
        1
    }

    /// A run yields about a dozen operations: no percentile leaves ten
    /// samples beyond it, so the tail is the upper quartile.
    fn tail_percentile(&self) -> f64 {
        0.75
    }

    fn op(&mut self, index: u64, tracer: &mut Tracer) -> OpResult {
        let mut out = OpResult::default();
        let explore_seed = self.seed.wrapping_add(index);
        let cfg = fuzz_config(self.budget, explore_seed);
        let outcome = explore_op(&self.scenario, &cfg, tracer, &mut out);
        if tracer.is_on() {
            // Trace-only work, kept out of the operation's wall time.
            let extra = Instant::now();
            tracer.span("decomposed", |t| {
                self.decomposed(explore_seed, &outcome, t, &mut out);
            });
            out.extra = extra.elapsed();
        }
        out
    }
}

/// The three run classes of a `sim_sweep` cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// `blob:8` at a seeded centre of the mapped big torus.
    Cliff,
    /// `blob:64` at the centre of a 16×16 torus.
    Blob64,
    /// `blob:16` at a seeded centre of a 32×32 torus, crashing in a
    /// cascade from 1 ms in 2 ms steps.
    Cascade,
}

impl Class {
    pub const ALL: [Class; 3] = [Class::Cliff, Class::Blob64, Class::Cascade];

    pub fn name(self) -> &'static str {
        match self {
            Class::Cliff => "cliff",
            Class::Blob64 => "blob64",
            Class::Cascade => "cascade",
        }
    }
}

/// `sim_sweep`, set up: the mapped torus file and the two generated
/// tori.
#[derive(Debug)]
pub struct SimSweep {
    big_side: usize,
    big_file: PathBuf,
    torus16: Graph,
    torus32: Graph,
    cycle: [usize; 3],
    warmup: u64,
    seed: u64,
}

impl SimSweep {
    pub fn new(sizes: &Sizes, seed: u64, dir: &Path) -> Result<Self, String> {
        Ok(SimSweep {
            big_side: sizes.big_side,
            big_file: stream_big_torus(dir, sizes.big_side)?,
            torus16: torus(GridDims::square(16)),
            torus32: torus(GridDims::square(32)),
            cycle: sizes.cycle,
            warmup: sizes.warmup_cycles,
            seed,
        })
    }

    /// Builds the scenario of run `run` of class `class`; `rng` draws
    /// its seeded centre and `sim_seed` its latencies.
    pub fn scenario(
        &self,
        class: Class,
        rng: &mut SplitMix,
        sim_seed: u64,
        tracer: &mut Tracer,
    ) -> Result<Scenario, String> {
        let seeded =
            |side: usize, rng: &mut SplitMix| NodeId(rng.below((side * side) as u64) as u32);
        match class {
            Class::Cliff => {
                // Each run opens the file afresh, as each E-table row and
                // each `precipice` process does.
                let graph = tracer
                    .span("graph_open", |_| Graph::open_pcsr(&self.big_file))
                    .map_err(|e| format!("open {}: {e}", self.big_file.display()))?;
                let at = seeded(self.big_side, rng);
                Ok(tracer.span("scenario_build", |_| {
                    scenario_on("sweep-cliff", graph, at, 8, simultaneous(), sim_seed, false)
                }))
            }
            Class::Blob64 => Ok(tracer.span("scenario_build", |_| {
                let graph = self.torus16.clone();
                scenario_on(
                    "sweep-blob64",
                    graph,
                    centre(16),
                    64,
                    simultaneous(),
                    sim_seed,
                    false,
                )
            })),
            Class::Cascade => {
                let at = seeded(32, rng);
                let timing = CrashTiming::Cascade {
                    start: SimTime::from_millis(1),
                    step: SimTime::from_millis(2),
                };
                Ok(tracer.span("scenario_build", |_| {
                    let graph = self.torus32.clone();
                    scenario_on("sweep-cascade", graph, at, 16, timing, sim_seed, false)
                }))
            }
        }
    }

    /// One run: build, execute on the default engine under FIFO,
    /// digest, check. Never names an engine.
    fn run_one(
        &self,
        class: Class,
        rng: &mut SplitMix,
        sim_seed: u64,
        tracer: &mut Tracer,
        hash: &mut Fnv,
        out: &mut OpResult,
    ) -> Result<(), String> {
        let scenario = self.scenario(class, rng, sim_seed, tracer)?;
        let report = tracer.span("exec", |_| scenario.exec(Exec::new())).report;
        let digest = tracer.span("digest", |_| report.digest());
        out.events += report.outcome.events();
        out.messages += digest.messages;
        out.decisions += digest.deciders as u64;
        hash.bytes(format!("{digest:?}").as_bytes());
        if !report.outcome.is_quiescent() {
            return Err(format!("{} run did not reach quiescence", class.name()));
        }
        if digest.violations > 0 {
            return Err(format!(
                "{} run violates the specification ({} violations)",
                class.name(),
                digest.violations
            ));
        }
        if digest.deciders == 0 {
            return Err(format!("{} run decided nothing", class.name()));
        }
        Ok(())
    }
}

impl Workload for SimSweep {
    fn warmup_ops(&self) -> u64 {
        self.warmup
    }

    fn op(&mut self, index: u64, tracer: &mut Tracer) -> OpResult {
        let mut out = OpResult::default();
        let mut hash = Fnv::new();
        let cycle_seed = self.seed.wrapping_add(index);
        let mut rng = SplitMix::new(cycle_seed, 0x5eed);
        let mut run = 0u64;
        for (class, count) in Class::ALL.into_iter().zip(self.cycle) {
            for _ in 0..count {
                out.attempted += 1;
                let sim_seed = cycle_seed.wrapping_mul(1_000).wrapping_add(run);
                run += 1;
                if let Err(why) =
                    self.run_one(class, &mut rng, sim_seed, tracer, &mut hash, &mut out)
                {
                    out.fail(1, why);
                }
            }
        }
        out.hash = hash.0;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_cycle_counts_whole_runs_and_repeats_exactly() {
        let dir =
            std::env::temp_dir().join(format!("precipice-benchmark-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut sweep = SimSweep::new(&Sizes::SMOKE, 5, &dir).unwrap();
        let a = sweep.op(0, &mut Tracer::off());
        let b = sweep.op(0, &mut Tracer::off());
        let c = sweep.op(1, &mut Tracer::off());
        std::fs::remove_dir_all(&dir).unwrap();
        // Whole-cycle accounting: one operation is exactly the cycle.
        assert_eq!(a.attempted, Sizes::SMOKE.cycle.iter().sum::<usize>() as u64);
        assert_eq!(a.failed, 0, "{:?}", a.failure);
        assert!(a.events > 0 && a.messages > 0 && a.decisions > 0);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.hash, c.hash, "the next cycle draws other inputs");
    }

    #[test]
    fn the_full_cycle_is_thirty_nine_runs() {
        assert_eq!(Sizes::FULL.cycle.iter().sum::<usize>(), 39);
    }

    #[test]
    fn an_exploration_is_checked_counted_and_repeatable() {
        let mut fuzz = CheckFuzz::new(&Sizes::SMOKE, 2);
        let a = fuzz.op(0, &mut Tracer::off());
        assert_eq!((a.attempted, a.failed), (32, 0), "{:?}", a.failure);
        assert!(a.events > 0 && a.deviations > 0);
        assert_eq!(
            a.fingerprint(),
            fuzz.op(0, &mut Tracer::off()).fingerprint()
        );
        assert_ne!(a.hash, fuzz.op(1, &mut Tracer::off()).hash);
    }

    #[test]
    fn the_traced_operation_replays_the_explored_schedules() {
        let mut fuzz = CheckFuzz::new(&Sizes::SMOKE, 2);
        let mut tracer = Tracer::with_capacity(64);
        tracer.set(true, 1);
        let traced = fuzz.op(1, &mut tracer);
        assert_eq!(traced.failed, 0, "{:?}", traced.failure);
        let names: Vec<&str> = tracer.spans().iter().map(|s| s.name).collect();
        assert_eq!(names, ["explore", "decomposed", "batch_run", "check_spec"]);
        assert!(traced.extra > std::time::Duration::ZERO);
    }

    #[test]
    fn the_planted_bug_is_caught_within_one_operation() {
        let mut out = OpResult::default();
        let hunt = ExploreConfig {
            stop_after: 1,
            shrink_runs: 0,
            ..fuzz_config(256, 1)
        };
        explore_op(&planted_scenario(), &hunt, &mut Tracer::off(), &mut out);
        assert!(out.failed > 0, "the checker being timed must be live");
        assert!(out.failure.unwrap().contains("violates"));
    }
}
