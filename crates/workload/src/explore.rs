//! The budgeted, parallel adversarial-schedule explorer: fan a schedule
//! budget across the deterministic [`sweep`](crate::sweep) workers, run
//! [`check_spec`](precipice_runtime::check_spec) on every probe, and
//! shrink violating schedules to minimal replayable counterexamples.
//!
//! This is the model-checking front end over the per-schedule
//! primitives in [`precipice_runtime::explore`]: probe `0` is always
//! the FIFO baseline, probes `1..budget` draw from the configured
//! [`PolicyMix`] with per-probe seeds derived from the exploration
//! seed. Everything — probe order, early stopping, counterexample
//! selection, shrinking — is a pure function of `(scenario, config)`,
//! so the outcome (and any table derived from it) is **byte-identical
//! for any `--jobs` worker count**.
//!
//! # Coverage-guided exploration
//!
//! Every probe also yields a [`ProbeCoverage`](precipice_sim::ProbeCoverage)
//! signal — the ordered race pairs its trace executed, the
//! view-lattice state it settled in, and the CD-checker branches its
//! report exercised (see
//! [`precipice_runtime::probe_coverage`]). The explorer folds those
//! into one [`CoverageMap`] **serially, in probe order, at fixed chunk
//! boundaries**, so the map (and every novelty verdict derived from
//! it) is identical for any worker count.
//!
//! The fold is the one place every executed event of every probe
//! passes through, so both sides of it are flat (see
//! [`precipice_sim::explore`]): workers hand back each probe's pairs
//! as a plain vector, and the map interns event keys to `u32` ids **in
//! this fold's order** and keeps a pair as one packed `u64`. Because
//! the fold is serial and in probe order, the ids are the same for any
//! worker count — and they are never observable anyway: every count,
//! verdict and flip-candidate index is defined on the key pairs, and
//! `CoverageMap` equality is set equality, so a map merged from
//! per-worker parts equals the serially folded one.
//!
//! Under [`PolicyMix::Guided`] the coverage signal feeds back into
//! schedule generation: probes whose coverage advanced the map are
//! admitted to a bounded corpus, and later probes mutate corpus
//! schedules — replay-and-extend, splice two parents, or flip a race
//! pair that has only ever been seen in one order — instead of fuzzing
//! blindly. Policies for a chunk are fixed (serially) before the chunk
//! runs, so guided generation sees the same corpus state no matter how
//! many workers execute the chunk.

use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use precipice_graph::{rng::SplitMix, Graph, NodeId, TopologySpec};
use precipice_runtime::explore as rt;
use precipice_runtime::{probe_coverage, BatchJob, BatchRunner, Counterexample, Scenario};
use precipice_sim::{
    CoverageMap, Deviation, EventKey, GuidedSpec, Schedule, SchedulePolicy, SimTime,
};

use crate::sweep::{Jobs, SweepSpec};

/// Which exploring policies the budget is spent on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PolicyMix {
    /// Uniform random schedule fuzzing only.
    Random,
    /// Commutativity-pruned (PCR) fuzzing only.
    Pcr,
    /// Alternate between random (odd probes) and PCR (even probes).
    #[default]
    Mixed,
    /// Coverage-guided mutation of coverage-advancing schedules (see
    /// the [module docs](self)); falls back to the blind mixed stream
    /// while the corpus is empty and on every 4th probe.
    Guided,
}

impl FromStr for PolicyMix {
    type Err = String;

    fn from_str(s: &str) -> Result<PolicyMix, String> {
        match s {
            "random" => Ok(PolicyMix::Random),
            "pcr" => Ok(PolicyMix::Pcr),
            "mixed" => Ok(PolicyMix::Mixed),
            "guided" => Ok(PolicyMix::Guided),
            _ => Err(format!(
                "unknown policy {s:?} (want random | pcr | mixed | guided)"
            )),
        }
    }
}

impl fmt::Display for PolicyMix {
    /// The name [`FromStr`] parses.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PolicyMix::Random => "random",
            PolicyMix::Pcr => "pcr",
            PolicyMix::Mixed => "mixed",
            PolicyMix::Guided => "guided",
        })
    }
}

impl PolicyMix {
    /// The policy of probe `index` under exploration seed `seed`
    /// (probe 0 is always the FIFO baseline).
    ///
    /// For [`PolicyMix::Guided`] this returns the blind bootstrap
    /// stream (the mixed policy): guided mutation needs the live
    /// corpus and coverage map, which only [`explore_scenario`]'s
    /// chunk loop holds — see `guided_policy` there.
    pub fn policy_for(self, seed: u64, index: u64) -> SchedulePolicy {
        if index == 0 {
            return SchedulePolicy::Fifo;
        }
        // Distinct stream per probe, decorrelated from consecutive seeds.
        let probe_seed = probe_seed(seed, index);
        match self {
            PolicyMix::Random => SchedulePolicy::Random(probe_seed),
            PolicyMix::Pcr => SchedulePolicy::Pcr(probe_seed),
            PolicyMix::Mixed | PolicyMix::Guided => {
                if index % 2 == 1 {
                    SchedulePolicy::Random(probe_seed)
                } else {
                    SchedulePolicy::Pcr(probe_seed)
                }
            }
        }
    }
}

/// Per-probe seed stream (decorrelated from consecutive seeds and
/// indices).
fn probe_seed(seed: u64, index: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(index.wrapping_mul(0x2545_f491_4f6c_dd1d))
}

/// Most coverage-advancing schedules the guided corpus retains (ring
/// replacement beyond that: newest admission evicts the oldest).
const CORPUS_CAP: usize = 64;

/// The corpus-aware policy of probe `index`: blind streams verbatim,
/// guided mutation when a corpus exists. Called serially at chunk
/// boundaries, so the `(corpus, coverage)` state it reads is a pure
/// function of the processed prefix — identical for any worker count.
/// `flips` caches the chunk's flip candidates: the map is frozen while
/// a chunk's policies are fixed, so its sorted candidate list is
/// computed by the chunk's first flip mutation and shared by the rest.
fn guided_policy(
    scenario: &Scenario,
    cfg: &ExploreConfig,
    index: u64,
    corpus: &[Schedule],
    coverage: &CoverageMap,
    flips: &OnceCell<Vec<(EventKey, EventKey)>>,
) -> SchedulePolicy {
    if cfg.policy != PolicyMix::Guided || index == 0 {
        return cfg.policy.policy_for(cfg.seed, index);
    }
    // Directed smoke pass before any random spend: pull each scheduled
    // crash (latest first — the late crashes are the ones FIFO never
    // lets overlap a live instance) to the very first schedule step and
    // run FIFO from there. One deterministic probe per crash, and the
    // cheapest way to hit the crash-order races that blind fuzzing only
    // finds by accident; the recorded pulls also seed the corpus.
    let pulls = scenario.crashes.len().min(8) as u64;
    if index <= pulls {
        let mut order = scenario.crashes.clone();
        order.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let (node, _) = order[(index - 1) as usize];
        return SchedulePolicy::Replay(Schedule::new(vec![Deviation {
            step: 0,
            key: EventKey::Crash { node },
        }]));
    }
    // Bootstrap (and every other index pair thereafter) stays on the
    // blind mixed stream: fresh randomness keeps feeding the corpus
    // starting points the mutations could never reach on their own.
    // `% 4 < 2` rather than `% 2` so the blind half covers both parities
    // and therefore both of Mixed's streams (Random on odd, Pcr on even).
    if corpus.is_empty() || index % 4 < 2 {
        return PolicyMix::Mixed.policy_for(cfg.seed, index);
    }
    // The mutation-selection stream, independent of the schedule
    // policies' private RNGs.
    let mut st = SplitMix::new(probe_seed(cfg.seed, index));
    let base = corpus[(st.next_u64() as usize) % corpus.len()].clone();
    let extend_seed = st.next_u64();
    let spec = match st.next_u64() % 4 {
        // Replay the parent and wander past its end.
        0 => GuidedSpec {
            base,
            seed: extend_seed,
            flip: None,
        },
        // Reverse a race pair seen in only one order so far.
        1 => {
            let never = flips.get_or_init(|| coverage.never_flipped());
            let flip = (!never.is_empty()).then(|| never[(st.next_u64() as usize) % never.len()]);
            GuidedSpec {
                base,
                seed: extend_seed,
                flip,
            }
        }
        // Splice: the parent's prefix up to a cut step, a second
        // parent's suffix after it (steps stay strictly increasing).
        2 => {
            let donor = &corpus[(st.next_u64() as usize) % corpus.len()];
            let cut = base.deviations[(st.next_u64() as usize) % base.deviations.len()].step;
            let mut devs: Vec<Deviation> = base
                .deviations
                .iter()
                .copied()
                .filter(|d| d.step <= cut)
                .collect();
            devs.extend(donor.deviations.iter().copied().filter(|d| d.step > cut));
            GuidedSpec {
                base: Schedule::new(devs),
                seed: extend_seed,
                flip: None,
            }
        }
        // Crash pull: force one of the scenario's crashes to fire at
        // an early schedule step and explore freely from there (the
        // guided extension takes over right after the pull). Crash
        // reordering is the protocol's deepest schedule sensitivity —
        // a late crash pulled into a live instance is what turns
        // disjoint consensus instances into arbitrating ones — and
        // plain per-event randomness rarely lands the pull *and* the
        // follow-up race in one probe. The parent is deliberately not
        // replayed past the pull: its recorded deviations reference
        // event orders the pull just invalidated.
        _ => {
            let (node, _) = scenario.crashes[(st.next_u64() as usize) % scenario.crashes.len()];
            let step = st.next_u64() % 32;
            GuidedSpec {
                base: Schedule::new(vec![Deviation {
                    step,
                    key: EventKey::Crash { node },
                }]),
                seed: extend_seed,
                flip: None,
            }
        }
    };
    SchedulePolicy::Guided(spec)
}

/// Configuration of one exploration.
#[derive(Debug, Clone, Copy)]
pub struct ExploreConfig {
    /// Number of schedules to explore (including the FIFO baseline).
    pub budget: u64,
    /// Exploration seed (drives every probe's schedule randomness).
    pub seed: u64,
    /// Which policies to spend the budget on.
    pub policy: PolicyMix,
    /// Stop the feed once this many violating schedules were found
    /// (`0` = always run the whole budget). Stopping happens on fixed
    /// chunk boundaries, so the explored prefix is worker-independent.
    pub stop_after: usize,
    /// Shrink at most this many counterexamples (the earliest probes).
    pub max_counterexamples: usize,
    /// Replay budget per shrink (ddmin iterations; `0` skips the
    /// shrink phase entirely — no replays are spent).
    pub shrink_runs: u64,
    /// Probes per serial merge chunk — the early-stop granularity and
    /// the guided feedback latency. The default [`FEED_CHUNK`]
    /// preserves the historical stop boundaries; guided runs may
    /// prefer a much smaller chunk (down to one probe) so the corpus
    /// reacts faster at the cost of narrower parallelism.
    pub chunk: usize,
}

impl Default for ExploreConfig {
    /// 1000 schedules, seed 0, mixed policies, full budget, up to 3
    /// shrunk counterexamples at 400 replays each.
    fn default() -> Self {
        ExploreConfig {
            budget: 1000,
            seed: 0,
            policy: PolicyMix::Mixed,
            stop_after: 0,
            max_counterexamples: 3,
            shrink_runs: 400,
            chunk: FEED_CHUNK,
        }
    }
}

/// Fixed chunk size of the budgeted feed (worker-independent early
/// stopping granularity).
pub const FEED_CHUNK: usize = 128;

/// Compact per-probe observation (full reports never cross the worker
/// boundary; a violating probe additionally ships its schedule for the
/// shrinker).
#[derive(Debug, Clone)]
pub struct ProbeDigest {
    /// Probe index in `0..budget` (0 = FIFO baseline).
    pub index: u64,
    /// Policy tag (`fifo`, `random`, `pcr`).
    pub policy: &'static str,
    /// Trace hash of the run (ordering fingerprint).
    pub trace_hash: u64,
    /// Deviations the scheduler took.
    pub deviations: usize,
    /// Events the run processed.
    pub events: u64,
    /// Number of CD violations found by `check_spec`.
    pub violations: usize,
    /// The recorded schedule, kept only for violating probes.
    pub schedule: Option<Schedule>,
}

/// Everything an exploration produced.
#[derive(Debug, Clone)]
pub struct ExploreOutcome {
    /// Per-probe digests, in probe order (a prefix of the budget when
    /// `stop_after` cut the feed short).
    pub probes: Vec<ProbeDigest>,
    /// Shrunk counterexamples as `(probe index, counterexample)`, for
    /// the earliest violating probes.
    pub counterexamples: Vec<(u64, Counterexample)>,
    /// Aggregate coverage over every explored probe: race pairs (and
    /// which orders were seen), distinct view-lattice states, and the
    /// CD-checker branch mask.
    pub coverage: CoverageMap,
}

impl ExploreOutcome {
    /// Schedules explored.
    pub fn schedules(&self) -> u64 {
        self.probes.len() as u64
    }

    /// Distinct event orderings observed (distinct trace hashes).
    pub fn unique_orderings(&self) -> u64 {
        let mut hashes: Vec<u64> = self.probes.iter().map(|p| p.trace_hash).collect();
        hashes.sort_unstable();
        hashes.dedup();
        hashes.len() as u64
    }

    /// Probes on which `check_spec` reported at least one violation.
    pub fn violating(&self) -> u64 {
        self.probes.iter().filter(|p| p.violations > 0).count() as u64
    }

    /// Length of the smallest shrunk counterexample, if any.
    pub fn min_counterexample_len(&self) -> Option<usize> {
        self.counterexamples
            .iter()
            .map(|(_, ce)| ce.schedule.len())
            .min()
    }

    /// Largest deviation count over all probes (how far from FIFO the
    /// exploration wandered).
    pub fn max_deviations(&self) -> usize {
        self.probes.iter().map(|p| p.deviations).max().unwrap_or(0)
    }

    /// Distinct view-lattice states per 1000 explored schedules — the
    /// coverage yield of the exploration, comparable across policies
    /// on the same scenario.
    pub fn states_per_1000(&self) -> f64 {
        if self.probes.is_empty() {
            return 0.0;
        }
        self.coverage.distinct_states() as f64 * 1000.0 / self.probes.len() as f64
    }
}

/// Explores `cfg.budget` schedules of `scenario` across `jobs` workers
/// and shrinks the earliest violating schedules into replayable
/// counterexamples. Deterministic for any worker count (see the
/// [module docs](self)).
pub fn explore_scenario(scenario: &Scenario, cfg: &ExploreConfig, jobs: Jobs) -> ExploreOutcome {
    // Streamed chunk loop: memory tracks the processed prefix, never
    // the raw budget, so `--budget 4000000000 --stop-after 1` is fine.
    // Each chunk's policies are fixed serially up front (guided
    // mutation reads the corpus/coverage state as of the chunk
    // boundary), the chunk's probes run in parallel through per-worker
    // [`BatchRunner`]s (slot arenas reused across every probe the
    // worker claims; per-probe results bit-identical to one-at-a-time
    // [`rt::probe`] runs), and the
    // results merge back serially in probe order — carrying a running
    // violating-probe count (O(1) per probe; the historical feed
    // re-scanned the whole prefix at every chunk boundary) and the
    // coverage fold. Chunk boundaries at the default [`FEED_CHUNK`]
    // land on the same probe counts as the historical per-probe feed,
    // so blind digests — and any early-stopped prefix — are
    // byte-identical to it, for any worker count.
    let budget = usize::try_from(cfg.budget.max(1)).unwrap_or(usize::MAX);
    let chunk = cfg.chunk.max(1);
    let spec = SweepSpec::new(jobs);

    let mut probes: Vec<ProbeDigest> = Vec::new();
    let mut coverage = CoverageMap::new();
    let mut corpus: Vec<Schedule> = Vec::new();
    let mut admitted: usize = 0;
    let mut violating: usize = 0;
    let mut start = 0usize;
    while start < budget {
        let end = start.saturating_add(chunk).min(budget);
        let batch: Vec<BatchJob> = {
            let flips = OnceCell::new();
            (start..end)
                .map(|index| BatchJob {
                    seed: scenario.sim.seed,
                    policy: guided_policy(scenario, cfg, index as u64, &corpus, &coverage, &flips),
                })
                .collect()
        };
        let results = spec.map_with(
            &batch,
            || BatchRunner::with_default_policy(scenario, 1),
            |runner, k, job| {
                let out = runner.run_one(job);
                let (violations, cov) = probe_coverage(&out);
                let digest = ProbeDigest {
                    index: (start + k) as u64,
                    policy: job.policy.tag(),
                    trace_hash: out.report.trace_hash,
                    deviations: out.schedule.len(),
                    events: out.report.outcome.events(),
                    violations: violations.len(),
                    schedule: None,
                };
                (digest, cov, out.schedule)
            },
        );
        for (mut digest, cov, schedule) in results {
            if digest.violations > 0 {
                digest.schedule = Some(schedule.clone());
                violating += 1;
            }
            // The serial, probe-order coverage fold: novelty verdicts
            // (and therefore corpus contents) are worker-independent.
            if coverage.observe(&cov) && !schedule.is_empty() {
                if corpus.len() < CORPUS_CAP {
                    corpus.push(schedule);
                } else {
                    corpus[admitted % CORPUS_CAP] = schedule;
                }
                admitted += 1;
            }
            probes.push(digest);
        }
        start = end;
        if cfg.stop_after > 0 && violating >= cfg.stop_after {
            break;
        }
    }

    // Shrink the earliest violating probes, serially and in probe order
    // (the parallel phase is over; shrinking is replay-bound anyway).
    // Different probes often minimize to the *same* run — report each
    // distinct minimized counterexample once. A zero replay budget
    // skips the phase outright.
    let mut counterexamples: Vec<(u64, Counterexample)> = Vec::new();
    if cfg.shrink_runs > 0 {
        // Bound the shrink work: duplicates cost replays too.
        let attempts = cfg.max_counterexamples.saturating_mul(4);
        for p in probes.iter().filter(|p| p.violations > 0).take(attempts) {
            if counterexamples.len() >= cfg.max_counterexamples {
                break;
            }
            let schedule = p
                .schedule
                .as_ref()
                .expect("violating probes keep schedules");
            let ce = rt::shrink_schedule(scenario, schedule, cfg.shrink_runs);
            if counterexamples
                .iter()
                .all(|(_, seen)| seen.trace_hash != ce.trace_hash)
            {
                counterexamples.push((p.index, ce));
            }
        }
    }

    ExploreOutcome {
        probes,
        counterexamples,
        coverage,
    }
}

// --- Scenario shrinking ------------------------------------------------

/// What [`shrink_scenario`] produced: the minimized scenario, a shrunk
/// schedule on it, and the before/after accounting.
#[derive(Debug, Clone)]
pub struct ScenarioShrink {
    /// The minimized scenario — it still violates the specification.
    pub scenario: Scenario,
    /// A shrunk violating schedule on the minimized scenario.
    pub counterexample: Counterexample,
    /// Node count of the input scenario's graph.
    pub nodes_before: usize,
    /// Node count after topology shrinking.
    pub nodes_after: usize,
    /// Crash count of the input scenario.
    pub crashes_before: usize,
    /// Crash count after crash minimization.
    pub crashes_after: usize,
    /// Exploration probes the shrinker's violation oracle spent (the
    /// final schedule shrink additionally spends up to
    /// [`ExploreConfig::shrink_runs`] replays).
    pub probes_spent: u64,
}

/// Probes the violation oracle spends per candidate scenario.
const ORACLE_PROBES: u64 = 48;

/// The shrinker's violation oracle: the first violating schedule among
/// the FIFO baseline and `probes - 1` blind mixed probes. Serial and a
/// pure function of `(scenario, seed)`, so every shrinking decision —
/// and the final result — is byte-identical at any `--jobs`.
fn violating_schedule(scenario: &Scenario, seed: u64, spent: &mut u64) -> Option<Schedule> {
    for index in 0..ORACLE_PROBES {
        *spent += 1;
        let p = rt::probe(scenario, PolicyMix::Mixed.policy_for(seed, index));
        if !p.violations.is_empty() {
            return Some(p.schedule);
        }
    }
    None
}

/// Rebuilds `scenario` with `graph` and `crashes`, folding duplicate
/// crash entries to the earliest time in first-occurrence order — the
/// same seal rule [`ScenarioBuilder::build`](precipice_runtime::ScenarioBuilder)
/// applies (remapping two crashes onto one node must not schedule it
/// twice).
fn sealed(scenario: &Scenario, graph: Arc<Graph>, crashes: Vec<(NodeId, SimTime)>) -> Scenario {
    let mut folded: Vec<(NodeId, SimTime)> = Vec::with_capacity(crashes.len());
    let mut index: BTreeMap<NodeId, usize> = BTreeMap::new();
    for (node, at) in crashes {
        match index.get(&node) {
            Some(&i) => folded[i].1 = folded[i].1.min(at),
            None => {
                index.insert(node, folded.len());
                folded.push((node, at));
            }
        }
    }
    Scenario {
        name: scenario.name.clone(),
        graph,
        crashes: folded,
        sim: scenario.sim,
        protocol: scenario.protocol,
        multicast: scenario.multicast,
    }
}

/// Greedy crash minimization: drop single crashes right-to-left while
/// the oracle still finds a violation, repeated until a full pass
/// removes nothing (dropping one crash changes every other crash's
/// context). Never drops below one crash.
fn drop_crashes(current: &mut Scenario, seed: u64, spent: &mut u64) {
    loop {
        let mut removed = false;
        let mut i = current.crashes.len();
        while i > 0 && current.crashes.len() > 1 {
            i -= 1;
            let mut crashes = current.crashes.clone();
            crashes.remove(i);
            let candidate = sealed(current, Arc::clone(&current.graph), crashes);
            if violating_schedule(&candidate, seed, spent).is_some() {
                *current = candidate;
                removed = true;
                i = i.min(current.crashes.len());
            }
        }
        if !removed {
            break;
        }
    }
}

/// Shrinks a violating **scenario**, extending ddmin beyond the
/// deviation list: greedily drops crashes, walks `topology` (the spec
/// `scenario.graph` was built from; a [`Graph`] does not remember it)
/// down its [`TopologySpec::shrink`] ladder, remapping the surviving
/// crashes onto each smaller graph, re-minimizes the crashes, and
/// finally shrinks the violating schedule itself with
/// [`rt::shrink_schedule`].
///
/// Returns `None` when the oracle finds no violation on the input
/// scenario within its probe budget (nothing to shrink). Every step is
/// serial and deterministic in `(scenario, cfg.seed)` — byte-identical
/// at any `--jobs`.
pub fn shrink_scenario(
    scenario: &Scenario,
    topology: &TopologySpec,
    cfg: &ExploreConfig,
) -> Option<ScenarioShrink> {
    let mut spent: u64 = 0;
    violating_schedule(scenario, cfg.seed, &mut spent)?;
    let nodes_before = scenario.graph.nodes().count();
    let crashes_before = scenario.crashes.len();
    let mut current = scenario.clone();

    // Fewer crashes first: a smaller fault pattern both speeds up the
    // ladder's oracle calls and remaps more cleanly.
    drop_crashes(&mut current, cfg.seed, &mut spent);

    // Topology ladder: commit the first smaller size that still
    // violates, then try to shrink further from there.
    let mut topo = topology.clone();
    loop {
        let next = topo.shrink().into_iter().find_map(|smaller| {
            let graph = smaller
                .build(0)
                .expect("a shrink step is a valid torus or ring");
            let crashes = current
                .crashes
                .iter()
                .map(|&(node, at)| (topo.remap(&smaller, node), at))
                .collect();
            let candidate = sealed(&current, Arc::new(graph), crashes);
            violating_schedule(&candidate, cfg.seed, &mut spent).map(|_| (smaller, candidate))
        });
        let Some((smaller, candidate)) = next else {
            break;
        };
        current = candidate;
        topo = smaller;
    }

    // The smaller topology may get by with fewer crashes still.
    drop_crashes(&mut current, cfg.seed, &mut spent);

    let schedule = violating_schedule(&current, cfg.seed, &mut spent)
        .expect("every committed step preserved the violation");
    let counterexample = rt::shrink_schedule(&current, &schedule, cfg.shrink_runs);
    let nodes_after = current.graph.nodes().count();
    let crashes_after = current.crashes.len();
    Some(ScenarioShrink {
        scenario: current,
        counterexample,
        nodes_before,
        nodes_after,
        crashes_before,
        crashes_after,
        probes_spent: spent,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use precipice_core::ProtocolConfig;
    use precipice_graph::{torus, GridDims, NodeId};
    use precipice_sim::SimTime;

    fn scenario(inverted: bool) -> Scenario {
        Scenario::builder(torus(GridDims::square(4)))
            .crash(NodeId(5), SimTime::from_millis(1))
            .crash(NodeId(6), SimTime::from_millis(3))
            .protocol(ProtocolConfig::faithful().with_inverted_arbitration(inverted))
            .seed(3)
            .build()
    }

    #[test]
    fn policy_mix_parses_and_assigns() {
        for (name, mix) in [
            ("random", PolicyMix::Random),
            ("pcr", PolicyMix::Pcr),
            ("mixed", PolicyMix::Mixed),
            ("guided", PolicyMix::Guided),
        ] {
            assert_eq!(name.parse(), Ok(mix));
            assert_eq!(mix.to_string(), name);
        }
        assert!("chaos".parse::<PolicyMix>().is_err());
        assert_eq!(PolicyMix::Mixed.policy_for(0, 0), SchedulePolicy::Fifo);
        assert!(matches!(
            PolicyMix::Mixed.policy_for(0, 1),
            SchedulePolicy::Random(_)
        ));
        assert!(matches!(
            PolicyMix::Mixed.policy_for(0, 2),
            SchedulePolicy::Pcr(_)
        ));
        assert!(matches!(
            PolicyMix::Random.policy_for(0, 2),
            SchedulePolicy::Random(_)
        ));
        assert!(matches!(
            PolicyMix::Pcr.policy_for(0, 1),
            SchedulePolicy::Pcr(_)
        ));
    }

    /// Blind digests depend on neither the worker count nor the chunk
    /// size: any chunk, dividing the budget or not, feeds the same
    /// probes.
    #[test]
    fn outcome_is_worker_independent() {
        let s = scenario(false);
        let fingerprint = |o: &ExploreOutcome| -> Vec<(u64, u64, usize, usize)> {
            o.probes
                .iter()
                .map(|p| (p.index, p.trace_hash, p.deviations, p.violations))
                .collect()
        };
        let mut want = None;
        for chunk in [1, 7, FEED_CHUNK] {
            let cfg = ExploreConfig {
                budget: 40,
                seed: 9,
                chunk,
                ..ExploreConfig::default()
            };
            let a = explore_scenario(&s, &cfg, Jobs::serial());
            let b = explore_scenario(&s, &cfg, Jobs::new(4));
            assert_eq!(a.schedules(), 40);
            assert_eq!(a.violating(), 0, "correct protocol stays clean");
            assert!(a.unique_orderings() > 1, "exploration found new orders");
            assert_eq!(fingerprint(&a), fingerprint(&b), "chunk {chunk}");
            let want = want.get_or_insert_with(|| fingerprint(&a));
            assert_eq!(&fingerprint(&a), want, "chunk {chunk}");
        }
    }

    /// Feeding probes through per-worker runners, each reusing one slot
    /// for probe after probe, must not change a single digest field
    /// relative to running each probe alone ("scalar" here is
    /// `rt::probe`, a fresh one-slot run per probe) — checked at the
    /// explorer's own observation granularity. 21 probes: the FIFO
    /// baseline and twenty fuzzed runs, each on a slot that hosted the
    /// one before.
    #[test]
    fn slot_reusing_feed_matches_per_probe_scalar_runs() {
        let s = scenario(false);
        let cfg = ExploreConfig {
            budget: 21,
            seed: 5,
            ..ExploreConfig::default()
        };
        let outcome = explore_scenario(&s, &cfg, Jobs::serial());
        assert_eq!(outcome.schedules(), 21);
        for p in &outcome.probes {
            let probe = rt::probe(&s, cfg.policy.policy_for(cfg.seed, p.index));
            assert_eq!(p.policy, cfg.policy.policy_for(cfg.seed, p.index).tag());
            assert_eq!(p.trace_hash, probe.report.trace_hash, "probe {}", p.index);
            assert_eq!(p.deviations, probe.schedule.len());
            assert_eq!(p.events, probe.report.outcome.events());
            assert_eq!(p.violations, probe.violations.len());
        }
    }

    #[test]
    fn guided_outcome_is_worker_independent() {
        let s = scenario(true);
        let cfg = ExploreConfig {
            budget: 96,
            seed: 4,
            policy: PolicyMix::Guided,
            chunk: 32,
            shrink_runs: 0,
            ..ExploreConfig::default()
        };
        let a = explore_scenario(&s, &cfg, Jobs::serial());
        let b = explore_scenario(&s, &cfg, Jobs::new(4));
        assert_eq!(a.schedules(), 96);
        assert!(
            a.probes.iter().any(|p| p.policy == "guided"),
            "the corpus admitted schedules and mutation kicked in"
        );
        let fingerprint = |o: &ExploreOutcome| -> Vec<(u64, &'static str, u64, usize, usize)> {
            o.probes
                .iter()
                .map(|p| (p.index, p.policy, p.trace_hash, p.deviations, p.violations))
                .collect()
        };
        assert_eq!(fingerprint(&a), fingerprint(&b));
        assert_eq!(a.coverage, b.coverage, "coverage fold is jobs-independent");
        assert!(a.coverage.distinct_states() > 1);
        assert!(a.coverage.race_pairs() > 0);
        assert!(a.states_per_1000() > 0.0);
    }

    /// "Scalar" is a fresh one-slot `exec`; "batched" is the same job
    /// third in a batch, on a runner whose slot already hosted a batch of
    /// four `Pcr` runs.
    #[test]
    fn guided_probes_replay_bit_for_bit_on_scalar_and_batched_engines() {
        use precipice_runtime::Exec;
        use precipice_sim::GuidedSpec;

        let s = scenario(false);
        // A guided mutant built the way the driver builds them: a
        // recorded schedule as base, a fresh extension seed.
        let base = rt::probe(&s, SchedulePolicy::Random(21)).schedule;
        assert!(!base.is_empty());
        let policy = SchedulePolicy::Guided(GuidedSpec {
            base,
            seed: 77,
            flip: None,
        });
        let scalar = s.exec(Exec::new().schedule(policy.clone()));
        let mut runner = BatchRunner::with_default_policy(&s, 1);
        let mut jobs: Vec<BatchJob> = (0..4)
            .map(|i| BatchJob {
                seed: s.sim.seed,
                policy: SchedulePolicy::Pcr(i),
            })
            .collect();
        runner.run(&jobs);
        jobs[2].policy = policy.clone();
        let batched = runner.run(&jobs).swap_remove(2);
        assert_eq!(scalar.report.trace_hash, batched.report.trace_hash);
        assert_eq!(scalar.schedule, batched.schedule);
        // And the recorded deviations replay the run bit-for-bit.
        let replay = s.exec(Exec::new().schedule(SchedulePolicy::Replay(scalar.schedule.clone())));
        assert_eq!(replay.report.trace_hash, scalar.report.trace_hash);
        assert_eq!(replay.schedule, scalar.schedule);
    }

    #[test]
    fn coverage_merge_is_associative_over_probe_batches() {
        use precipice_sim::CoverageMap;

        // Real per-probe coverages from real runs, merged in different
        // groupings and orders — the property the parallel fold relies
        // on.
        let s = scenario(true);
        let covs: Vec<_> = (0..12)
            .map(|i| {
                let out = s.exec(
                    precipice_runtime::Exec::new().schedule(PolicyMix::Mixed.policy_for(3, i)),
                );
                let (_, cov) = probe_coverage(&out);
                let mut m = CoverageMap::new();
                m.observe(&cov);
                m
            })
            .collect();
        let merge_all = |order: &[usize], split: usize| -> CoverageMap {
            let (lo, hi) = order.split_at(split);
            let mut left = CoverageMap::new();
            for &i in lo {
                left.merge(&covs[i]);
            }
            let mut right = CoverageMap::new();
            for &i in hi {
                right.merge(&covs[i]);
            }
            left.merge(&right);
            left
        };
        let forward: Vec<usize> = (0..covs.len()).collect();
        let backward: Vec<usize> = (0..covs.len()).rev().collect();
        let a = merge_all(&forward, 3);
        let b = merge_all(&forward, 9);
        let c = merge_all(&backward, 6);
        assert_eq!(a, b, "associative over groupings");
        assert_eq!(a, c, "commutative over orders");
    }

    #[test]
    fn guided_exploration_finds_planted_bug() {
        let s = scenario(true);
        let cfg = ExploreConfig {
            budget: 256,
            seed: 1,
            policy: PolicyMix::Guided,
            stop_after: 1,
            max_counterexamples: 1,
            chunk: 32,
            ..ExploreConfig::default()
        };
        let outcome = explore_scenario(&s, &cfg, Jobs::new(2));
        assert!(outcome.violating() > 0, "guided must catch the planted bug");
        assert!(!outcome.counterexamples.is_empty());
    }

    /// Guided against blind on two fixed scenarios, every number pinned
    /// (both arms are deterministic in the exploration seed and
    /// independent of the worker count). Clean: the E9 torus row, a 6×6
    /// torus whose 4-node centre blob crashes at once. Planted: an 8×8
    /// torus where 27 and 29 crash at 1 ms — distance 2 apart, so their
    /// instances are disjoint and never arbitrate — and their shared
    /// border node 28 crashes at 9 ms, long after both quiesced under
    /// FIFO, with four far-away crashes keeping unrelated traffic in
    /// flight. The inverted arbitration is reachable only when a schedule
    /// drags the late bridge crash into a live instance, which blind
    /// fuzzing does by accident and the guided crash-pull pass on purpose.
    #[test]
    fn guided_catches_the_bridge_bug_in_fewer_probes_than_blind() {
        use crate::patterns::{blob_of_size, schedule, CrashTiming};
        use precipice_sim::{LatencyModel, SimConfig};

        // Small enough that the guided corpus gets feedback several
        // times within the budget (blind policies never read the corpus).
        const CHUNK: usize = 4;
        const CATCH_SEEDS: [u64; 5] = [1, 2, 3, 5, 8];
        let sim = SimConfig {
            seed: 7,
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
        };

        let graph = torus(GridDims::square(6));
        let region = blob_of_size(&graph, NodeId(18), 4);
        let clean = Scenario::builder(graph)
            .name("explore-coverage")
            .crashes(schedule(
                region.iter(),
                CrashTiming::Simultaneous(SimTime::from_millis(1)),
            ))
            .sim_config(sim)
            .build();
        for policy in [PolicyMix::Mixed, PolicyMix::Guided] {
            let cfg = ExploreConfig {
                budget: 192,
                seed: 42,
                policy,
                shrink_runs: 0,
                chunk: CHUNK,
                ..ExploreConfig::default()
            };
            let out = explore_scenario(&clean, &cfg, Jobs::new(2));
            assert_eq!(out.violating(), 0, "{policy:?}: clean scenario violated");
            assert_eq!(out.probes.len(), 192);
            assert_eq!(out.coverage.distinct_states(), 5, "{policy:?}");
            assert_eq!(out.coverage.branch_count(), 9, "{policy:?}");
        }

        let planted = Scenario::builder(torus(GridDims::square(8)))
            .name("explore-planted-bug")
            .crashes(vec![
                (NodeId(27), SimTime::from_millis(1)),
                (NodeId(29), SimTime::from_millis(1)),
                (NodeId(28), SimTime::from_millis(9)),
                (NodeId(0), SimTime::from_millis(2)),
                (NodeId(4), SimTime::from_millis(5)),
                (NodeId(40), SimTime::from_millis(8)),
                (NodeId(44), SimTime::from_millis(11)),
            ])
            .protocol(ProtocolConfig::faithful().with_inverted_arbitration(true))
            .sim_config(sim)
            .build();
        // Schedules spent up to and including the first violating one.
        let catch_budget = |policy, seed, budget| {
            let cfg = ExploreConfig {
                budget,
                seed,
                policy,
                stop_after: 1,
                shrink_runs: 0,
                chunk: CHUNK,
                ..ExploreConfig::default()
            };
            explore_scenario(&planted, &cfg, Jobs::new(2))
                .probes
                .iter()
                .position(|p| p.violations > 0)
                .map(|i| i + 1)
        };
        // Guided gets half the blind budget: the claim is "less work".
        let mut blind = CATCH_SEEDS.map(|seed| catch_budget(PolicyMix::Mixed, seed, 192));
        let mut guided = CATCH_SEEDS.map(|seed| catch_budget(PolicyMix::Guided, seed, 96));
        assert_eq!(blind, [7, 6, 6, 4, 8].map(Some));
        assert_eq!(guided, [Some(2); 5], "guided must catch every seed");
        blind.sort_unstable();
        guided.sort_unstable();
        assert!(guided[2] < blind[2], "guided median must beat blind");
    }

    #[test]
    fn scenario_shrinking_reduces_nodes_and_crashes_on_planted_bug() {
        use precipice_core::ProtocolConfig as PC;
        // The runtime crate's planted-bug scenario: 5×5 torus, three
        // crashes, inverted view arbitration.
        let big = Scenario::builder(torus(GridDims::square(5)))
            .crash(NodeId(6), SimTime::from_millis(1))
            .crash(NodeId(7), SimTime::from_millis(3))
            .crash(NodeId(12), SimTime::from_millis(5))
            .protocol(PC::faithful().with_inverted_arbitration(true))
            .seed(2)
            .build();
        let cfg = ExploreConfig {
            seed: 1,
            shrink_runs: 400,
            ..ExploreConfig::default()
        };
        let shrunk = shrink_scenario(&big, &TopologySpec::Torus(5), &cfg)
            .expect("the planted bug violates, so there is something to shrink");
        assert_eq!(shrunk.nodes_before, 25);
        assert_eq!(shrunk.crashes_before, 3);
        assert!(
            shrunk.nodes_after <= 16,
            "topology must shrink to <= 4x4, got {} nodes",
            shrunk.nodes_after
        );
        assert!(
            shrunk.crashes_after <= 2,
            "crash list must shrink to <= 2, got {}",
            shrunk.crashes_after
        );
        assert!(!shrunk.counterexample.violations.is_empty());
        // The minimized scenario + shrunk schedule reproduce the
        // violation from scratch.
        let replayed = rt::probe(
            &shrunk.scenario,
            SchedulePolicy::Replay(shrunk.counterexample.schedule.clone()),
        );
        assert_eq!(replayed.report.trace_hash, shrunk.counterexample.trace_hash);
        assert!(!replayed.violations.is_empty());
        // Deterministic: a second run makes identical decisions.
        let again = shrink_scenario(&big, &TopologySpec::Torus(5), &cfg).unwrap();
        assert_eq!(again.nodes_after, shrunk.nodes_after);
        assert_eq!(again.crashes_after, shrunk.crashes_after);
        assert_eq!(again.scenario.crashes, shrunk.scenario.crashes);
        assert_eq!(
            again.counterexample.schedule,
            shrunk.counterexample.schedule
        );
        assert_eq!(again.probes_spent, shrunk.probes_spent);
    }

    #[test]
    fn scenario_shrinking_of_clean_scenario_is_none() {
        let s = scenario(false);
        let cfg = ExploreConfig::default();
        assert!(shrink_scenario(&s, &TopologySpec::Torus(4), &cfg).is_none());
    }

    #[test]
    fn fixed_topology_shrinks_crashes_and_schedule_only() {
        let s = scenario(true);
        let cfg = ExploreConfig {
            seed: 1,
            ..ExploreConfig::default()
        };
        // A mapped file's graph is opaque: no shrink ladder, so only the
        // crashes and the schedule shrink (the file is never opened).
        let opaque = TopologySpec::Pcsr("torus-4.pcsr".into());
        let shrunk = shrink_scenario(&s, &opaque, &cfg).expect("violating");
        assert_eq!(shrunk.nodes_after, shrunk.nodes_before, "graph untouched");
        assert!(shrunk.crashes_after <= shrunk.crashes_before);
        assert!(!shrunk.counterexample.violations.is_empty());
    }

    #[test]
    fn enormous_budget_with_stop_after_is_linear_in_the_prefix() {
        // The running violating-probe count makes the early-stop check
        // O(1) per probe, and the streamed chunk loop never
        // materializes the budget — so a 4-billion-probe budget with
        // `stop_after: 1` costs only the explored prefix.
        let s = scenario(true);
        let cfg = ExploreConfig {
            budget: 4_000_000_000,
            seed: 1,
            stop_after: 1,
            max_counterexamples: 1,
            shrink_runs: 0,
            ..ExploreConfig::default()
        };
        let t0 = std::time::Instant::now();
        let outcome = explore_scenario(&s, &cfg, Jobs::serial());
        assert!(outcome.violating() >= 1, "stop condition was reached");
        assert!(
            outcome.schedules() <= 2 * FEED_CHUNK as u64,
            "stopped within the first chunks, got {}",
            outcome.schedules()
        );
        assert!(
            outcome.counterexamples.is_empty(),
            "shrink_runs: 0 skips the shrink phase"
        );
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(60),
            "the feed must be linear in the explored prefix"
        );
    }

    #[test]
    fn planted_bug_yields_shrunk_counterexample() {
        let s = scenario(true);
        let cfg = ExploreConfig {
            budget: 64,
            seed: 1,
            stop_after: 1,
            max_counterexamples: 1,
            ..ExploreConfig::default()
        };
        let outcome = explore_scenario(&s, &cfg, Jobs::new(2));
        assert!(outcome.violating() > 0, "planted bug must be caught");
        let (_, ce) = outcome
            .counterexamples
            .first()
            .expect("a counterexample was shrunk");
        assert!(!ce.violations.is_empty());
        assert!(
            ce.schedule.len() <= 25,
            "shrunk to {} decisions",
            ce.schedule.len()
        );
        assert!(outcome.min_counterexample_len().unwrap() <= 25);
    }
}
