//! Regression corpus of adversarial schedules: every schedule the
//! explorer minimized during development is checked in here as a fixed
//! `Replay` case, asserting that `check_spec` stays clean — or stays a
//! known, documented violation.
//!
//! Each case pins (a) replay *fidelity* — the recorded deviations are
//! honored bit-for-bit, twice over — and (b) the *verdict*, so neither
//! the scheduler, the protocol, nor the checker can silently drift on
//! the exact interleavings that were once interesting.

use precipice::consensus::ProtocolConfig;
use precipice::graph::{torus, GridDims, NodeId, Region};
use precipice::runtime::explore::probe;
use precipice::runtime::{Scenario, Violation};
use precipice::sim::{EventKey, LatencyModel, Schedule, SchedulePolicy, SimConfig, SimTime};
use precipice::workload::figures::Figure2;
use precipice::workload::patterns::{blob_of_size, schedule, CrashTiming};

/// Replays `sched` twice and asserts bit-identical runs with all
/// deviations honored; returns the first probe.
fn replay_pinned(scenario: &Scenario, sched: &Schedule) -> precipice::runtime::ScheduleProbe {
    let a = probe(scenario, SchedulePolicy::Replay(sched.clone()));
    let b = probe(scenario, SchedulePolicy::Replay(sched.clone()));
    assert_eq!(
        a.report.trace_hash, b.report.trace_hash,
        "replay must be deterministic"
    );
    assert_eq!(
        &a.schedule, sched,
        "every recorded deviation must be honored on replay"
    );
    a
}

/// The uniformity race the explorer found on the Figure-2 cluster the
/// first time it ever ran (probe 31 of the E9 sweep, minimized from 46
/// to 29 deviations by ddmin): `n8` completes the `{n7}` instance and
/// decides, then crashes; `n6`'s failure detector outruns `n8`'s last
/// round message, so `n6` abandons `{n7}` and decides the extended view
/// `{n7, n8}` with `n9`.
///
/// The faulty decider dies holding a subsumed view — unavoidable in an
/// asynchronous system (a node may always crash right after deciding),
/// so CD5 exempts exactly this shape while still binding same-view
/// value agreement uniformly. This replay pins both the execution and
/// the checker's verdict on it.
#[test]
fn fig2_uniformity_race_is_legal_and_stays_pinned() {
    let scenario =
        Figure2::new(3, 2).scenario(17, CrashTiming::Simultaneous(SimTime::from_millis(1)));
    let sched: Schedule = "1:C5 3:N4!5 4:N0!1 5:N3!2 6:D0>0#0 7:C7 8:N6!7 9:N8!7 10:D6>6#0 \
         12:N3!1 13:N6!5 14:D6>8#0 15:D0>2#0 16:D3>1#0 17:D3>3#0 18:N0!2 19:D0>0#1 20:D3>1#1 \
         21:D8>8#0 22:D3>3#1 23:D0>3#0 25:D0>2#1 26:D3>0#0 27:D3>3#2 29:D0>0#2 33:N6!4 \
         34:N5!4 35:D6>4#0 36:N6!8"
        .parse()
        .expect("corpus schedule parses");
    assert_eq!(sched.len(), 29);

    let p = replay_pinned(&scenario, &sched);
    assert_eq!(
        p.violations,
        Vec::new(),
        "the uniformity race is legal under the refined CD5"
    );
    // The interesting shape: the faulty n8 died holding the subsumed
    // view {n7}; the surviving border decided the extended {n7, n8}.
    let region_of = |n: u32| p.report.decisions[&NodeId(n)].view.region().clone();
    let small: Region = [NodeId(7)].into_iter().collect();
    let extended: Region = [NodeId(7), NodeId(8)].into_iter().collect();
    assert_eq!(region_of(8), small, "n8 decided {{n7}} before crashing");
    assert_eq!(region_of(6), extended);
    assert_eq!(region_of(9), extended);
    assert!(p.report.is_faulty(NodeId(8)), "n8 crashed (later)");
    // Value uniformity held throughout.
    assert!(p
        .report
        .decisions
        .values()
        .filter(|d| d.view.region().contains(NodeId(7)))
        .all(|d| d.value == NodeId(6)));
}

/// The CLI `check` scenario with the planted inverted-arbitration bug:
/// the explorer's very first probe (the FIFO baseline — the empty
/// schedule) already starves the cluster, and ddmin minimizes to zero
/// scheduling decisions. Checked in as a *known-documented violation*:
/// inverted arbitration must keep failing CD7 here, or the planted bug
/// (and with it the explorer's self-test) has silently rotted.
#[test]
fn planted_inverted_arbitration_violation_stays_documented() {
    let graph = torus(GridDims::square(6));
    let region = blob_of_size(&graph, NodeId(18), 3);
    let scenario = Scenario::builder(graph)
        .crashes(schedule(
            region.iter(),
            CrashTiming::Cascade {
                start: SimTime::from_millis(1),
                step: SimTime::from_millis(2),
            },
        ))
        .protocol(ProtocolConfig::faithful().with_inverted_arbitration(true))
        .sim_config(SimConfig {
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
            max_events: Some(100_000_000),
        })
        .build();

    let p = replay_pinned(&scenario, &Schedule::fifo());
    assert!(
        p.violations
            .iter()
            .any(|v| matches!(v, Violation::Progress { .. })),
        "inverted arbitration must starve the cluster (CD7); got {:?}",
        p.violations
    );
    // The correct protocol on the identical scenario is clean — the
    // violation is the planted bug, not the schedule.
    let mut fixed = scenario.clone();
    fixed.protocol = ProtocolConfig::faithful();
    let clean = probe(&fixed, SchedulePolicy::Replay(Schedule::fifo()));
    assert_eq!(clean.violations, Vec::new());
}

/// Byte-pins the exploring policies' random streams on the
/// `torus5-two-crashes` scenario: exact trace hash and schedule length
/// per policy, plus the full deviation string for `Pcr(11)`.
///
/// Re-pinned when `SplitMix::below` switched from modulo reduction to
/// Lemire's multiply-shift rejection sampling (removing the modulo
/// bias for non-power-of-two bounds). That change shifts every
/// `Random`/`Pcr` stream, so any golden recorded before it is void;
/// the values below are the unbiased streams. `Replay`-pinned corpus
/// entries are unaffected — they never consult the RNG.
#[test]
fn exploring_policy_streams_stay_pinned() {
    let scenario = Scenario::builder(torus(GridDims::square(5)))
        .crash(NodeId(6), SimTime::from_millis(1))
        .crash(NodeId(7), SimTime::from_millis(3))
        .seed(2)
        .build();

    let pins: [(SchedulePolicy, usize, u64); 3] = [
        (SchedulePolicy::Random(11), 261, 0x13ed843f2412c973),
        (SchedulePolicy::Random(12), 106, 0xefbb07c09ff2c162),
        (SchedulePolicy::Pcr(11), 54, 0xb46f407ba2400fcd),
    ];
    for (policy, len, hash) in pins {
        let p = probe(&scenario, policy.clone());
        assert_eq!(p.schedule.len(), len, "{policy:?} stream drifted");
        assert_eq!(
            p.report.trace_hash, hash,
            "{policy:?} stream drifted (schedule: {})",
            p.schedule
        );
    }

    // The shortest stream in full, so a drift diff is readable.
    let pcr = probe(&scenario, SchedulePolicy::Pcr(11));
    let pinned: Schedule = "1:N7!6 3:D7>1#0 5:D7>5#0 7:D7>11#0 9:D11>7#0 10:D5>7#0 12:N1!7 \
         14:D5>5#0 15:D11>5#0 17:D5>7#1 19:D5>11#0 20:N11!7 23:D5>1#1 27:D2>6#0 31:D5>5#1 \
         33:D1>11#1 34:D11>11#1 36:D11>1#1 37:D11>1#2 42:D5>7#2 44:D12>2#0 46:D12>8#0 \
         48:D12>12#0 49:D8>12#0 51:N2!6 53:D2>6#1 54:D12>6#0 56:N8!6 58:D5>5#2 59:D1>5#2 \
         62:D1>11#2 63:D5>11#2 70:D8>8#1 72:D12>12#1 75:D12>6#1 81:D8>6#2 82:D2>6#2 \
         84:D2>8#2 85:D8>8#2 88:D8>2#2 91:D2>12#3 93:D2>1#0 94:D12>1#0 97:D2>5#0 \
         100:D2>11#0 102:D12>12#3 103:D12>12#4 104:D2>12#4 106:D12>2#3 107:D2>2#3 \
         108:D12>2#4 113:D12>8#3 114:D12>8#4 117:D12>6#3"
        .parse()
        .expect("pinned Pcr(11) schedule parses");
    assert_eq!(pcr.schedule, pinned, "Pcr(11) deviation stream drifted");
}

/// Pinned exploring policies on fixed scenarios: the recorded schedule
/// of every (scenario, policy) pair below replays bit-for-bit and stays
/// violation-free. These are the "boring" corpus entries that keep the
/// scheduler's random streams, the eligibility rule, and the recorder
/// stable across refactors.
#[test]
fn pinned_exploration_schedules_stay_clean() {
    let scenarios: Vec<(&str, Scenario)> = vec![
        (
            "torus5-two-crashes",
            Scenario::builder(torus(GridDims::square(5)))
                .crash(NodeId(6), SimTime::from_millis(1))
                .crash(NodeId(7), SimTime::from_millis(3))
                .seed(2)
                .build(),
        ),
        (
            "fig2-cluster",
            Figure2::new(3, 2).scenario(17, CrashTiming::Simultaneous(SimTime::from_millis(1))),
        ),
    ];
    for (name, scenario) in &scenarios {
        for policy in [
            SchedulePolicy::Random(11),
            SchedulePolicy::Random(12),
            SchedulePolicy::Pcr(11),
        ] {
            let p = probe(scenario, policy.clone());
            assert_eq!(p.violations, Vec::new(), "{name} under {policy:?}");
            let replayed = replay_pinned(scenario, &p.schedule);
            assert_eq!(
                replayed.report.trace_hash, p.report.trace_hash,
                "{name}: replaying {policy:?}'s schedule reproduces the run"
            );
        }
    }
}

/// The coverage counters of one fixed exploration, taken on the B-tree
/// coverage map before it was replaced by the interned one: a 12×12
/// torus, `blob:16` at the centre crashing at 1 ms, 256 mixed
/// schedules, scenario and exploration seed 1 — operation 0 of the
/// benchmark's `check_fuzz` workload. Every observable of the map must
/// stay what that implementation reported, flip-candidate order
/// included (guided mutation indexes into it).
#[test]
fn check_fuzz_exploration_coverage_stays_pinned() {
    use precipice::workload::explore::{explore_scenario, ExploreConfig, PolicyMix};
    use precipice::workload::sweep::Jobs;

    let graph = torus(GridDims::square(12));
    let region = blob_of_size(&graph, NodeId(6 * 12 + 6), 16);
    let scenario = Scenario::builder(graph)
        .crashes(schedule(
            region.iter(),
            CrashTiming::Simultaneous(SimTime::from_millis(1)),
        ))
        .sim_config(SimConfig {
            seed: 1,
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
        })
        .build();
    let cfg = ExploreConfig {
        budget: 256,
        seed: 1,
        policy: PolicyMix::Mixed,
        ..ExploreConfig::default()
    };
    let outcome = explore_scenario(&scenario, &cfg, Jobs::serial());
    assert_eq!(outcome.violating(), 0);
    let events: u64 = outcome.probes.iter().map(|p| p.events).sum();
    let deviations: usize = outcome.probes.iter().map(|p| p.deviations).sum();
    assert_eq!((events, deviations), (985_996, 783_513));

    let coverage = &outcome.coverage;
    assert_eq!(coverage.race_pairs(), 301_408);
    assert_eq!(coverage.flipped_pairs(), 99_748);
    assert_eq!(coverage.distinct_states(), 17);
    assert_eq!(coverage.branches(), 0xa8555);
    let candidates = coverage.never_flipped();
    assert_eq!(candidates.len(), 301_408 - 99_748);
    let key = |s: &str| s.parse::<EventKey>().expect("event key parses");
    assert_eq!(candidates[0], (key("D30>30#0"), key("D30>30#1")));
    assert_eq!(
        candidates[candidates.len() - 1],
        (key("N114!102"), key("N114!90"))
    );
}
