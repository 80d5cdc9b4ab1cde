//! Model-checking primitives over [`Scenario`]: explore one adversarial
//! schedule, shrink a violating schedule to a minimal counterexample,
//! and serialize counterexamples as replayable text artifacts.
//!
//! The unit of exploration is a [`ScheduleProbe`]: run the scenario
//! under an exploring [`SchedulePolicy`], collect the [`RunReport`],
//! the recorded [`Schedule`] (the compact list of deviations from FIFO
//! order) and the [`check_spec`] verdict. The parallel fan-out over
//! thousands of probes lives in `precipice-workload::explore` (the
//! sweep engine lives there); this module owns everything that runs on
//! a single schedule:
//!
//! - [`probe_on`] — run + check one schedule, on either engine;
//! - [`shrink_schedule_on`] — delta-debugging (ddmin) over the deviation
//!   list: find a locally minimal sub-schedule that still violates the
//!   specification, exploiting that every subset of a recorded schedule
//!   is itself a valid schedule (dropped deviations fall back to FIFO);
//! - [`Counterexample`] / [`Artifact`] — the shrunk schedule with its
//!   violations and a line-oriented text serialization that
//!   `precipice replay` can re-execute bit-for-bit.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use precipice_graph::NodeId;
use precipice_sim::{race_pairs_of, Deviation, ProbeCoverage, Schedule, SchedulePolicy};

use crate::checker::check_spec_coverage;
use crate::exec::ExecOutcome;
use crate::{check_spec, Engine, Exec, RunReport, Scenario, Violation};

/// One explored schedule: the run it produced, the replayable schedule
/// trace, and the specification verdict.
#[derive(Debug, Clone)]
pub struct ScheduleProbe {
    /// The full run report (trace recording per the scenario config).
    pub report: RunReport<NodeId>,
    /// The deviations the scheduler actually took (replayable).
    pub schedule: Schedule,
    /// CD1–CD7 violations found by [`check_spec`].
    pub violations: Vec<Violation>,
}

/// [`probe_on`] the simulator.
pub fn probe(scenario: &Scenario, policy: SchedulePolicy) -> ScheduleProbe {
    probe_on(scenario, policy, Engine::Sim)
}

/// Runs `scenario` under `policy` on `engine` and checks the
/// specification (on [`Engine::Live`], an exploring policy runs gated).
pub fn probe_on(scenario: &Scenario, policy: SchedulePolicy, engine: Engine) -> ScheduleProbe {
    let out = scenario.exec(Exec::new().schedule(policy).engine(engine));
    let violations = check_spec(&out.report);
    let (report, schedule) = (out.report, out.schedule);
    ScheduleProbe {
        report,
        schedule,
        violations,
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fold(mut h: u64, word: u64) -> u64 {
    for b in word.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Extracts the coverage signal of one executed probe, together with
/// its specification verdict:
///
/// - the ordered **race pairs** its trace exhibited
///   ([`race_pairs_of`]; empty when the scenario recorded no trace);
/// - a **state fingerprint** (FNV-1a over the decision pattern — each
///   decider, its view's region, its value — plus the outcome tag and
///   the checker-branch mask), identifying the point in the
///   view-lattice the run settled on;
/// - the **checker branches** the report exercised
///   ([`check_spec_coverage`]).
///
/// The signal is a pure function of the probe's observables, so it is
/// independent of slot reuse and worker count — the properties the
/// deterministic exploration sweep relies on.
pub fn probe_coverage(out: &ExecOutcome<NodeId>) -> (Vec<Violation>, ProbeCoverage) {
    let (violations, branches) = check_spec_coverage(&out.report);
    let pairs = out
        .trace
        .as_ref()
        .and_then(|t| t.entries())
        .map(race_pairs_of)
        .unwrap_or_default();
    let mut state = FNV_OFFSET;
    for (&node, d) in &out.report.decisions {
        state = fold(state, node.0 as u64);
        for m in d.view.region().iter() {
            state = fold(state, m.0 as u64);
        }
        state = fold(state, d.value.0 as u64);
    }
    state = fold(state, u64::from(!out.report.outcome.is_quiescent()));
    state = fold(state, u64::from(branches));
    (
        violations,
        ProbeCoverage {
            pairs,
            state,
            branches,
        },
    )
}

/// A shrunk, replayable specification violation.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The minimized schedule (replay it to reproduce the violation).
    pub schedule: Schedule,
    /// Violations observed when replaying [`schedule`](Self::schedule).
    pub violations: Vec<Violation>,
    /// Trace hash of the minimized run (replay fingerprint).
    pub trace_hash: u64,
    /// Deviation count before shrinking.
    pub original_len: usize,
    /// Replays spent by the shrinker.
    pub shrink_runs: u64,
}

/// [`shrink_schedule_on`] the simulator.
pub fn shrink_schedule(scenario: &Scenario, schedule: &Schedule, max_runs: u64) -> Counterexample {
    shrink_schedule_on(scenario, schedule, max_runs, Engine::Sim)
}

/// Delta-debugs `schedule` against `scenario`, replaying on `engine`,
/// down to a locally minimal deviation list that still violates the
/// specification (classic ddmin over the deviation set, plus a final
/// one-at-a-time pass), spending at most `max_runs` replays.
///
/// The caller should pass a schedule known to violate; if even the full
/// schedule replays clean (a schedule-dependent flake — possible when
/// the violating run used `Random`/`Pcr` and recording dropped nothing,
/// which cannot happen for honored replays), the returned
/// counterexample carries the clean replay's empty violation list and
/// the caller must discard it.
pub fn shrink_schedule_on(
    scenario: &Scenario,
    schedule: &Schedule,
    max_runs: u64,
    engine: Engine,
) -> Counterexample {
    let original_len = schedule.len();
    if max_runs == 0 {
        // Zero budget means "skip shrinking": echo the input untouched
        // without spending even the two bootstrap replays. The echo is
        // unverified — empty violations, zero trace hash — so callers
        // that need a verdict must grant at least one replay.
        return Counterexample {
            schedule: schedule.clone(),
            violations: Vec::new(),
            trace_hash: 0,
            original_len,
            shrink_runs: 0,
        };
    }
    let mut runs: u64 = 0;
    let replay = |devs: &[Deviation], runs: &mut u64| -> (ScheduleProbe, Schedule) {
        *runs += 1;
        let replay = SchedulePolicy::Replay(Schedule::new(devs.to_vec()));
        let p = probe_on(scenario, replay, engine);
        let honored = p.schedule.clone();
        (p, honored)
    };

    // Shortcut: if plain FIFO already violates, the minimum is empty.
    let (fifo_probe, _) = replay(&[], &mut runs);
    if !fifo_probe.violations.is_empty() {
        return Counterexample {
            schedule: Schedule::fifo(),
            violations: fifo_probe.violations,
            trace_hash: fifo_probe.report.trace_hash,
            original_len,
            shrink_runs: runs,
        };
    }

    // Start from the honored subset of the input schedule (replay drops
    // deviations that never fired).
    let (mut best_probe, honored) = replay(&schedule.deviations, &mut runs);
    let mut current: Vec<Deviation> = honored.deviations;
    if best_probe.violations.is_empty() {
        return Counterexample {
            schedule: Schedule::new(current),
            violations: Vec::new(),
            trace_hash: best_probe.report.trace_hash,
            original_len,
            shrink_runs: runs,
        };
    }

    // ddmin: remove chunks of shrinking granularity while the violation
    // persists.
    let mut n: usize = 2;
    while current.len() >= 2 && runs < max_runs {
        let chunk = current.len().div_ceil(n);
        let mut reduced = false;
        let mut start = 0;
        while start < current.len() && runs < max_runs {
            let end = (start + chunk).min(current.len());
            let candidate: Vec<Deviation> = current[..start]
                .iter()
                .chain(&current[end..])
                .copied()
                .collect();
            let (p, honored) = replay(&candidate, &mut runs);
            if !p.violations.is_empty() {
                current = honored.deviations;
                best_probe = p;
                n = n.saturating_sub(1).max(2);
                reduced = true;
                break;
            }
            start = end;
        }
        if !reduced {
            if chunk <= 1 {
                break;
            }
            n = (n * 2).min(current.len());
        }
    }

    // Final greedy passes: drop single deviations right-to-left, and
    // repeat until a full pass removes nothing. A successful removal
    // changes the replay context of every other deviation — and the
    // honored subset can collapse below the candidate, renumbering the
    // positions this pass already cleared — so a single pass proves
    // nothing about the deviations it skipped. Each repetition strictly
    // shrinks `current`, so the loop terminates; when it exits with the
    // budget unspent, the result is 1-minimal (every single-deviation
    // removal of the final schedule replayed clean).
    loop {
        let mut removed = false;
        let mut i = current.len();
        while i > 0 && runs < max_runs {
            i -= 1;
            let mut candidate = current.clone();
            candidate.remove(i);
            let (p, honored) = replay(&candidate, &mut runs);
            if !p.violations.is_empty() {
                current = honored.deviations;
                best_probe = p;
                removed = true;
                i = i.min(current.len());
            }
        }
        if !removed || runs >= max_runs {
            break;
        }
    }

    Counterexample {
        schedule: Schedule::new(current),
        violations: best_probe.violations,
        trace_hash: best_probe.report.trace_hash,
        original_len,
        shrink_runs: runs,
    }
}

/// Pretty-prints `violations` against `report` with per-property
/// context: the decisions involved, what they disagree on, and the
/// crash times that frame them — the "diff" a human needs to see why
/// the CD property failed.
pub fn render_violations(report: &RunReport<NodeId>, violations: &[Violation]) -> String {
    let mut out = String::new();
    let decision_line = |node: NodeId| -> String {
        match report.decisions.get(&node) {
            Some(d) => format!(
                "{node}: decided region={} border={} value={} at={}",
                d.view.region(),
                d.view.border(),
                d.value,
                d.at
            ),
            None => {
                if report.is_faulty(node) {
                    format!("{node}: crashed, no decision")
                } else {
                    format!("{node}: correct but NEVER DECIDED")
                }
            }
        }
    };
    for v in violations {
        let _ = writeln!(out, "- {v}");
        match v {
            Violation::UniformBorderAgreement { p, q } | Violation::ViewConvergence { p, q } => {
                let _ = writeln!(out, "    {}", decision_line(*p));
                let _ = writeln!(out, "    {}", decision_line(*q));
            }
            Violation::BorderTermination { decider, missing } => {
                let _ = writeln!(out, "    {}", decision_line(*decider));
                let _ = writeln!(out, "    {}", decision_line(*missing));
            }
            Violation::ViewAccuracyBorder { node, .. }
            | Violation::ViewAccuracyConnected { node, .. } => {
                let _ = writeln!(out, "    {}", decision_line(*node));
            }
            Violation::ViewAccuracyNotCrashed { node, member } => {
                let _ = writeln!(out, "    {}", decision_line(*node));
                let crash = report
                    .crashed
                    .get(member)
                    .map(|t| format!("crashed at {t}"))
                    .unwrap_or_else(|| "never crashed".to_owned());
                let _ = writeln!(out, "    {member}: {crash}");
            }
            Violation::Progress { cluster } => {
                for region in cluster {
                    let border = report.graph.border_of(region.iter());
                    let _ = writeln!(out, "    domain {region} border {{");
                    for b in border {
                        let _ = writeln!(out, "      {}", decision_line(b));
                    }
                    let _ = writeln!(out, "    }}");
                }
            }
            Violation::Locality { from, to } => {
                let _ = writeln!(out, "    {}", decision_line(*from));
                let _ = writeln!(out, "    {}", decision_line(*to));
            }
            Violation::NonQuiescent => {}
        }
    }
    out
}

/// A replayable counterexample artifact: an opaque scenario description
/// (the caller's key-value spec — for the CLI, its own flags), the
/// shrunk schedule, the expected trace hash and the expected violation
/// messages.
///
/// The CLI's `topology`, `region` and `timing` values are canonical spec
/// strings: the [`Display`](std::fmt::Display) forms of
/// [`TopologySpec`](precipice_graph::TopologySpec) and of
/// `precipice_workload`'s `RegionSpec` and `TimingSpec`, whose
/// [`FromStr`](std::str::FromStr) reads them back on replay.
///
/// Line-oriented text format (`render`/`parse` round-trip):
///
/// ```text
/// # precipice counterexample v1
/// spec topology = torus:6
/// spec region = blob:3
/// schedule = 12:D3>5#0 14:N2!7
/// trace-hash = 0x91f0c0ffee
/// violation = CD5: n3 and n5 share a border but decided differently
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Artifact {
    /// Caller-interpreted scenario description (e.g. CLI flag values, as
    /// canonical spec strings).
    pub spec: BTreeMap<String, String>,
    /// The shrunk schedule to replay.
    pub schedule: Schedule,
    /// Expected trace hash of the replayed run.
    pub trace_hash: u64,
    /// Expected violation messages (`Violation` display strings).
    pub violations: Vec<String>,
}

/// Magic first line of a counterexample artifact.
pub const ARTIFACT_HEADER: &str = "# precipice counterexample v1";

impl Artifact {
    /// Builds an artifact from a counterexample and a scenario spec.
    pub fn new(spec: BTreeMap<String, String>, ce: &Counterexample) -> Self {
        Artifact {
            spec,
            schedule: ce.schedule.clone(),
            trace_hash: ce.trace_hash,
            violations: ce.violations.iter().map(|v| v.to_string()).collect(),
        }
    }

    /// Serializes the artifact (see the type docs for the format).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{ARTIFACT_HEADER}");
        for (k, v) in &self.spec {
            let _ = writeln!(out, "spec {k} = {v}");
        }
        let _ = writeln!(out, "schedule = {}", self.schedule);
        let _ = writeln!(out, "trace-hash = {:#x}", self.trace_hash);
        for v in &self.violations {
            let _ = writeln!(out, "violation = {v}");
        }
        out
    }

    /// Parses an artifact rendered by [`render`](Self::render).
    pub fn parse(text: &str) -> Result<Artifact, String> {
        let mut lines = text.lines();
        match lines.next() {
            Some(first) if first.trim() == ARTIFACT_HEADER => {}
            other => {
                return Err(format!(
                    "not a counterexample artifact (expected {ARTIFACT_HEADER:?}, got {other:?})"
                ))
            }
        }
        let mut artifact = Artifact::default();
        let mut saw_schedule = false;
        for line in lines {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .map(|(k, v)| (k.trim(), v.trim()))
                .ok_or_else(|| format!("bad artifact line {line:?} (want key = value)"))?;
            if let Some(name) = key.strip_prefix("spec ") {
                artifact
                    .spec
                    .insert(name.trim().to_owned(), value.to_owned());
            } else if key == "schedule" {
                artifact.schedule = value.parse()?;
                saw_schedule = true;
            } else if key == "trace-hash" {
                let digits = value.strip_prefix("0x").unwrap_or(value);
                artifact.trace_hash = u64::from_str_radix(digits, 16)
                    .map_err(|e| format!("bad trace-hash {value:?}: {e}"))?;
            } else if key == "violation" {
                artifact.violations.push(value.to_owned());
            } else {
                return Err(format!("unknown artifact key {key:?}"));
            }
        }
        if !saw_schedule {
            return Err("artifact is missing the schedule line".to_owned());
        }
        Ok(artifact)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use precipice_core::ProtocolConfig;
    use precipice_graph::{torus, GridDims};
    use precipice_sim::SimTime;

    fn torus_scenario(inverted: bool) -> Scenario {
        let mut protocol = ProtocolConfig::faithful();
        protocol.invert_arbitration = inverted;
        Scenario::builder(torus(GridDims::square(5)))
            .crash(NodeId(6), SimTime::from_millis(1))
            .crash(NodeId(7), SimTime::from_millis(3))
            .crash(NodeId(12), SimTime::from_millis(5))
            .protocol(protocol)
            .seed(2)
            .build()
    }

    #[test]
    fn probe_clean_scenario_under_all_policies() {
        let scenario = torus_scenario(false);
        for policy in [
            SchedulePolicy::Fifo,
            SchedulePolicy::Random(3),
            SchedulePolicy::Pcr(3),
        ] {
            let p = probe(&scenario, policy.clone());
            assert!(
                p.violations.is_empty(),
                "{policy:?} found unexpected violations: {:?}",
                p.violations
            );
            assert!(p.report.outcome.is_quiescent());
        }
    }

    #[test]
    fn probe_replays_bit_identically() {
        let scenario = torus_scenario(false);
        let first = probe(&scenario, SchedulePolicy::Random(17));
        let again = probe(&scenario, SchedulePolicy::Replay(first.schedule.clone()));
        assert_eq!(first.report.trace_hash, again.report.trace_hash);
        assert_eq!(first.schedule, again.schedule);
    }

    #[test]
    fn inverted_arbitration_is_caught_and_shrinks_small() {
        let scenario = torus_scenario(true);
        // Hunt a violating schedule (FIFO may or may not break; random
        // exploration must find it quickly on this scenario).
        let mut found = None;
        for seed in 0..64 {
            let p = probe(&scenario, SchedulePolicy::Random(seed));
            if !p.violations.is_empty() {
                found = Some(p);
                break;
            }
        }
        let found = found.expect("inverted arbitration must violate within 64 schedules");
        let ce = shrink_schedule(&scenario, &found.schedule, 500);
        assert!(
            !ce.violations.is_empty(),
            "shrinking must preserve the violation"
        );
        assert!(
            ce.schedule.len() <= 25,
            "counterexample must shrink to <= 25 decisions, got {}",
            ce.schedule.len()
        );
        // The shrunk schedule replays to exactly the recorded violation.
        let replayed = probe(&scenario, SchedulePolicy::Replay(ce.schedule.clone()));
        assert_eq!(replayed.report.trace_hash, ce.trace_hash);
        assert_eq!(
            replayed.violations.len(),
            ce.violations.len(),
            "replay reproduces the counterexample"
        );
        // And the pretty-printer names the property with context.
        let rendered = render_violations(&replayed.report, &replayed.violations);
        assert!(rendered.contains("CD"), "rendered: {rendered}");
    }

    #[test]
    fn live_counterexample_shrinks_and_replays_through_the_gate() {
        // The planted bug on adjacent path crashes, found, shrunk and
        // replayed on the gated live engine alone.
        let mut protocol = ProtocolConfig::faithful();
        protocol.invert_arbitration = true;
        let scenario = Scenario::builder(precipice_graph::path(9))
            .crash(NodeId(3), SimTime::from_millis(1))
            .crash(NodeId(4), SimTime::from_millis(2))
            .protocol(protocol)
            .build();
        let live = Engine::Live { shards: 2 };
        let found = (0..32)
            .map(|seed| probe_on(&scenario, SchedulePolicy::Random(seed), live))
            .find(|p| !p.violations.is_empty())
            .expect("inverted arbitration must violate within 32 live schedules");
        let ce = shrink_schedule_on(&scenario, &found.schedule, 200, live);
        assert!(!ce.violations.is_empty(), "shrinking keeps the violation");
        assert!(ce.schedule.len() <= found.schedule.len());
        let replayed = probe_on(&scenario, SchedulePolicy::Replay(ce.schedule.clone()), live);
        assert_eq!(replayed.report.trace_hash, ce.trace_hash);
        assert_eq!(replayed.violations, ce.violations);
    }

    #[test]
    fn artifact_roundtrips() {
        let ce = Counterexample {
            schedule: "4:D1>2#0 9:C6".parse().unwrap(),
            violations: vec![Violation::NonQuiescent],
            trace_hash: 0xdead_beef,
            original_len: 12,
            shrink_runs: 30,
        };
        let mut spec = BTreeMap::new();
        spec.insert("topology".to_owned(), "torus:6".to_owned());
        spec.insert("seed".to_owned(), "7".to_owned());
        let artifact = Artifact::new(spec, &ce);
        let text = artifact.render();
        let parsed = Artifact::parse(&text).expect("parses");
        assert_eq!(parsed, artifact);
        assert_eq!(parsed.spec["topology"], "torus:6");
        assert_eq!(parsed.schedule, ce.schedule);
        assert_eq!(parsed.trace_hash, 0xdead_beef);
        assert_eq!(parsed.violations.len(), 1);

        assert!(Artifact::parse("garbage").is_err());
        assert!(Artifact::parse(ARTIFACT_HEADER).is_err(), "no schedule");
        let bad = format!("{ARTIFACT_HEADER}\nbogus-key = 1\nschedule = -\n");
        assert!(Artifact::parse(&bad).is_err());
    }

    #[test]
    fn shrink_of_clean_schedule_reports_clean() {
        let scenario = torus_scenario(false);
        let p = probe(&scenario, SchedulePolicy::Random(5));
        assert!(p.violations.is_empty());
        let ce = shrink_schedule(&scenario, &p.schedule, 50);
        assert!(ce.violations.is_empty(), "clean stays clean");
    }

    #[test]
    fn zero_budget_shrink_echoes_input_without_replays() {
        let scenario = torus_scenario(true);
        let p = probe(&scenario, SchedulePolicy::Random(0));
        let ce = shrink_schedule(&scenario, &p.schedule, 0);
        assert_eq!(ce.schedule, p.schedule, "zero budget must not shrink");
        assert_eq!(ce.shrink_runs, 0, "zero budget must not replay");
        assert!(ce.violations.is_empty(), "the echo is unverified");
        assert_eq!(ce.original_len, p.schedule.len());
    }

    #[test]
    fn greedy_pass_reaches_one_minimality() {
        // Regression for the honored-subset skip: a successful removal
        // whose honored replay collapsed below the candidate used to
        // leave earlier deviations untested. The repeated greedy pass
        // guarantees 1-minimality whenever the budget is not exhausted.
        let scenario = torus_scenario(true);
        let budget = 2000;
        let mut checked = 0;
        for seed in 0..64 {
            let p = probe(&scenario, SchedulePolicy::Random(seed));
            if p.violations.is_empty() {
                continue;
            }
            let ce = shrink_schedule(&scenario, &p.schedule, budget);
            assert!(!ce.violations.is_empty(), "shrink preserves violation");
            if ce.shrink_runs >= budget {
                continue; // budget-capped shrinks make no minimality claim
            }
            for i in 0..ce.schedule.len() {
                let mut devs = ce.schedule.deviations.clone();
                devs.remove(i);
                let again = probe(&scenario, SchedulePolicy::Replay(Schedule::new(devs)));
                assert!(
                    again.violations.is_empty(),
                    "seed {seed}: dropping deviation {i} still violates — not 1-minimal"
                );
            }
            checked += 1;
            if checked >= 2 {
                break;
            }
        }
        assert!(checked > 0, "no violating schedule found to shrink");
    }

    #[test]
    fn probe_coverage_is_deterministic_and_flags_violations() {
        let clean = torus_scenario(false);
        let out_a = clean.exec(Exec::new().schedule(SchedulePolicy::Random(9)));
        let out_b = clean.exec(Exec::new().schedule(SchedulePolicy::Random(9)));
        let (va, ca) = probe_coverage(&out_a);
        let (vb, cb) = probe_coverage(&out_b);
        assert!(va.is_empty() && vb.is_empty());
        assert_eq!(ca, cb, "coverage is a pure function of the run");
        assert!(!ca.pairs.is_empty(), "a traced run exhibits race pairs");
        assert_ne!(ca.branches, 0, "the checker exercised branches");

        // A different schedule that reaches a different decision
        // pattern fingerprints to a different state.
        let out_c = clean.exec(Exec::new().schedule(SchedulePolicy::Fifo));
        let (_, cc) = probe_coverage(&out_c);
        assert_ne!(ca.pairs, cc.pairs, "different schedules, different pairs");
    }
}
