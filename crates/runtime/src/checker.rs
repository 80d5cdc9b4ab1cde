use std::collections::BTreeSet;
use std::fmt::{self, Debug};

use precipice_graph::{is_connected_subset, NodeId, Region};

use crate::domains::{faulty_clusters, faulty_domains};
use crate::report::RunReport;

/// A violation of the convergent-detection specification (paper §2.3)
/// found in a run report.
///
/// `check_spec` returning an empty list certifies CD1–CD7 for that run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// CD2: the decider is not on the border of its decided view.
    ViewAccuracyBorder {
        /// The decider.
        node: NodeId,
        /// The offending view's region.
        region: Region,
    },
    /// CD2: the decided view is not a connected region.
    ViewAccuracyConnected {
        /// The decider.
        node: NodeId,
        /// The offending view's region.
        region: Region,
    },
    /// CD2: a node of the decided view had not crashed by decision time.
    ViewAccuracyNotCrashed {
        /// The decider.
        node: NodeId,
        /// The view member that was still alive.
        member: NodeId,
    },
    /// CD3: a message flowed between two nodes not joined by any faulty
    /// domain's closure.
    Locality {
        /// Sender.
        from: NodeId,
        /// Receiver.
        to: NodeId,
    },
    /// CD4: a correct border node of a decided view never decided.
    BorderTermination {
        /// The node that decided the view.
        decider: NodeId,
        /// The correct border node that never decided.
        missing: NodeId,
    },
    /// CD5: two border-sharing deciders disagreed — on the value while
    /// deciding the *same* view (the uniform case, binding faulty
    /// deciders too), or on the view itself in any shape other than the
    /// one legal race below.
    ///
    /// §2.3 states Uniform Border Agreement as: *if p and q both
    /// decide and q ∈ border(view(p)), then they decide the same view
    /// and the same value* — "uniform" because it binds faulty
    /// deciders too, unlike CD6's correct-only view convergence. The
    /// checker enforces exactly that statement, with the value half
    /// unrefined and the view half carved down by the single exemption
    /// asynchrony forces:
    ///
    /// A faulty decider holding a view *subsumed* by the other decider's
    /// (a strict subset it died on) is exempt, exactly as CD6 exempts
    /// faulty deciders from view convergence: a node
    /// may crash immediately after deciding `v`, before its last round
    /// message reaches a border neighbour whose failure detector fires
    /// first — that neighbour then extends to a larger view. No
    /// asynchronous protocol can prevent this (the classic uniformity
    /// impossibility); the adversarial schedule explorer finds the race
    /// reliably (see `tests/schedule_corpus.rs`), and it is reachable in
    /// principle under plain latency schedules with an adversarial crash
    /// timing. What *is* guaranteed uniformly — by Lemma 3's identical
    /// opinion vectors — is value agreement within an instance.
    UniformBorderAgreement {
        /// First decider.
        p: NodeId,
        /// Second decider (in `border(view(p))`).
        q: NodeId,
    },
    /// CD6: two correct deciders hold partially overlapping views.
    ViewConvergence {
        /// First decider.
        p: NodeId,
        /// Second decider.
        q: NodeId,
    },
    /// CD7: a faulty cluster where no correct border node ever decided.
    Progress {
        /// The domains of the starved cluster.
        cluster: Vec<Region>,
    },
    /// The run did not reach quiescence (event-cap hit — livelock).
    NonQuiescent,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::ViewAccuracyBorder { node, region } => {
                write!(f, "CD2: {node} decided {region} but is not on its border")
            }
            Violation::ViewAccuracyConnected { node, region } => {
                write!(f, "CD2: {node} decided disconnected set {region}")
            }
            Violation::ViewAccuracyNotCrashed { node, member } => {
                write!(
                    f,
                    "CD2: {node} decided a view containing live/late node {member}"
                )
            }
            Violation::Locality { from, to } => {
                write!(
                    f,
                    "CD3: message {from} -> {to} outside any faulty domain closure"
                )
            }
            Violation::BorderTermination { decider, missing } => {
                write!(
                    f,
                    "CD4: {decider} decided but correct border node {missing} never did"
                )
            }
            Violation::UniformBorderAgreement { p, q } => {
                write!(f, "CD5: {p} and {q} share a border but decided differently")
            }
            Violation::ViewConvergence { p, q } => {
                write!(
                    f,
                    "CD6: correct nodes {p} and {q} decided partially overlapping views"
                )
            }
            Violation::Progress { cluster } => {
                write!(
                    f,
                    "CD7: no correct border node decided in cluster {cluster:?}"
                )
            }
            Violation::NonQuiescent => write!(f, "run did not reach quiescence"),
        }
    }
}

/// Checks all seven CD properties (plus quiescence) against a run report
/// and returns every violation found.
///
/// CD1 (Integrity — no node decides twice on the same region) is
/// structurally guaranteed: the state machine asserts single decision and
/// the report holds at most one decision per node; it is nevertheless
/// re-checked here by construction of the decision map.
///
/// The checker needs `report.message_pairs` (trace recording enabled) to
/// verify CD3; without a trace, CD3 is skipped.
pub fn check_spec<D: Clone + Eq + Debug>(report: &RunReport<D>) -> Vec<Violation> {
    check_spec_coverage(report).0
}

/// Named bits of the checker-branch coverage mask returned by
/// [`check_spec_coverage`]. Each bit marks one distinct outcome of a
/// checker comparison actually reached by a run's report — a cheap
/// proxy for "how much of the specification this schedule exercised"
/// that the coverage-guided explorer folds into its
/// [`CoverageMap`](precipice_sim::CoverageMap).
pub mod branch {
    /// The run reached quiescence.
    pub const QUIESCENT: u32 = 1 << 0;
    /// The run hit the event cap (`NonQuiescent` violation).
    pub const NON_QUIESCENT: u32 = 1 << 1;
    /// CD2: a decider was on its view's border.
    pub const CD2_BORDER_OK: u32 = 1 << 2;
    /// CD2: a decider was *not* on its view's border.
    pub const CD2_BORDER_BROKE: u32 = 1 << 3;
    /// CD2: a decided region was connected.
    pub const CD2_CONNECTED_OK: u32 = 1 << 4;
    /// CD2: a decided region was disconnected.
    pub const CD2_CONNECTED_BROKE: u32 = 1 << 5;
    /// CD2: every member of a decided view had crashed in time.
    pub const CD2_CRASHED_OK: u32 = 1 << 6;
    /// CD2: a decided view contained a live/late node.
    pub const CD2_CRASHED_BROKE: u32 = 1 << 7;
    /// CD3 ran (message pairs were recorded).
    pub const CD3_CHECKED: u32 = 1 << 8;
    /// CD3: an out-of-closure message was found.
    pub const CD3_BROKE: u32 = 1 << 9;
    /// CD5: two border-sharing deciders compared on the *same* view.
    pub const CD5_SAME_VIEW: u32 = 1 << 10;
    /// CD5: same-view value disagreement.
    pub const CD5_VALUE_BROKE: u32 = 1 << 11;
    /// CD5: two border-sharing deciders compared on different views.
    pub const CD5_CROSS_VIEW: u32 = 1 << 12;
    /// CD5: the died-subsumed exemption fired (§2.3's one legal race).
    pub const CD5_DIED_SUBSUMED: u32 = 1 << 13;
    /// CD5: cross-view disagreement with no exemption.
    pub const CD5_VIEW_BROKE: u32 = 1 << 14;
    /// CD4: an undecided border peer was faulty (legal).
    pub const CD4_FAULTY_PEER: u32 = 1 << 15;
    /// CD4: a correct border peer never decided.
    pub const CD4_BROKE: u32 = 1 << 16;
    /// CD6: a pair of correct deciders was compared.
    pub const CD6_COMPARED: u32 = 1 << 17;
    /// CD6: partially overlapping views.
    pub const CD6_BROKE: u32 = 1 << 18;
    /// CD7: a faulty cluster had a decided correct border node.
    pub const CD7_OK: u32 = 1 << 19;
    /// CD7: a starved cluster.
    pub const CD7_BROKE: u32 = 1 << 20;
}

/// [`check_spec`] plus a bitmask of the checker branches the report
/// exercised (see [`branch`]). The mask is a pure function of the
/// report, so it is as deterministic and engine-independent as the
/// violation list itself.
pub fn check_spec_coverage<D: Clone + Eq + Debug>(report: &RunReport<D>) -> (Vec<Violation>, u32) {
    let mut violations = Vec::new();
    let mut branches: u32 = 0;
    let graph = report.graph.as_ref();
    let faulty: BTreeSet<NodeId> = report.crashed.keys().copied().collect();
    let domains = faulty_domains(graph, &faulty);

    if !report.outcome.is_quiescent() {
        branches |= branch::NON_QUIESCENT;
        violations.push(Violation::NonQuiescent);
    } else {
        branches |= branch::QUIESCENT;
    }

    // --- CD2: View Accuracy -------------------------------------------
    for (&p, d) in &report.decisions {
        let region = d.view.region();
        let border: BTreeSet<NodeId> = graph.border_of(region.iter()).into_iter().collect();
        if !border.contains(&p) {
            branches |= branch::CD2_BORDER_BROKE;
            violations.push(Violation::ViewAccuracyBorder {
                node: p,
                region: region.clone(),
            });
        } else {
            branches |= branch::CD2_BORDER_OK;
        }
        if !is_connected_subset(graph, region) {
            branches |= branch::CD2_CONNECTED_BROKE;
            violations.push(Violation::ViewAccuracyConnected {
                node: p,
                region: region.clone(),
            });
        } else {
            branches |= branch::CD2_CONNECTED_OK;
        }
        for member in region.iter() {
            match report.crashed.get(&member) {
                Some(&t) if t <= d.at => branches |= branch::CD2_CRASHED_OK,
                _ => {
                    branches |= branch::CD2_CRASHED_BROKE;
                    violations.push(Violation::ViewAccuracyNotCrashed { node: p, member });
                }
            }
        }
    }

    // --- CD3: Locality -------------------------------------------------
    if let Some(pairs) = &report.message_pairs {
        branches |= branch::CD3_CHECKED;
        // Each domain's closure S ∪ border(S), sorted.
        let closures: Vec<Vec<NodeId>> = domains
            .iter()
            .map(|dom| {
                let mut closure: Vec<NodeId> =
                    dom.iter().chain(graph.border_of(dom.iter())).collect();
                closure.sort_unstable();
                closure
            })
            .collect();
        // A run sends thousands of messages over a few hundred channels:
        // check each channel once, at its first send, so violations come
        // out in first-send order.
        let mut first_sends = FirstSends::new(pairs);
        for (i, &(from, to)) in pairs.iter().enumerate() {
            if !first_sends.is_first(i) {
                continue;
            }
            let ok = closures
                .iter()
                .any(|c| c.binary_search(&from).is_ok() && c.binary_search(&to).is_ok());
            if !ok {
                branches |= branch::CD3_BROKE;
                violations.push(Violation::Locality { from, to });
            }
        }
    }

    // --- CD4 + CD5: Border Termination & Uniform Border Agreement ------
    for (&p, dp) in &report.decisions {
        for q in dp.view.border().iter() {
            if q == p {
                continue;
            }
            match report.decisions.get(&q) {
                Some(dq) => {
                    // CD5. Same view: the value is uniform (binds every
                    // decider, faulty or not — Lemma 3). Different view:
                    // the only legal shape is a faulty decider that died
                    // holding a view *subsumed* by the other's (see the
                    // `UniformBorderAgreement` docs for why that one is
                    // unavoidable); anything else — including a faulty
                    // decider holding a conflicting non-subsumed view —
                    // is a violation.
                    let broke = if dq.view == dp.view {
                        branches |= branch::CD5_SAME_VIEW;
                        if dq.value != dp.value {
                            branches |= branch::CD5_VALUE_BROKE;
                            true
                        } else {
                            false
                        }
                    } else {
                        branches |= branch::CD5_CROSS_VIEW;
                        let died_subsumed =
                            |stale: &crate::Decision<D>,
                             bigger: &crate::Decision<D>,
                             stale_node: NodeId| {
                                report.is_faulty(stale_node)
                                    && stale.view.region().is_subset_of(bigger.view.region())
                            };
                        if died_subsumed(dp, dq, p) || died_subsumed(dq, dp, q) {
                            branches |= branch::CD5_DIED_SUBSUMED;
                            false
                        } else {
                            branches |= branch::CD5_VIEW_BROKE;
                            true
                        }
                    };
                    if broke {
                        violations.push(Violation::UniformBorderAgreement { p, q });
                    }
                }
                None => {
                    if !report.is_faulty(q) {
                        branches |= branch::CD4_BROKE;
                        violations.push(Violation::BorderTermination {
                            decider: p,
                            missing: q,
                        });
                    } else {
                        branches |= branch::CD4_FAULTY_PEER;
                    }
                }
            }
        }
    }

    // --- CD6: View Convergence (correct deciders only) ------------------
    let correct_deciders: Vec<NodeId> = report
        .decisions
        .keys()
        .copied()
        .filter(|n| !report.is_faulty(*n))
        .collect();
    for (i, &p) in correct_deciders.iter().enumerate() {
        for &q in &correct_deciders[i + 1..] {
            branches |= branch::CD6_COMPARED;
            let (vp, vq) = (&report.decisions[&p].view, &report.decisions[&q].view);
            if vp.region().intersects(vq.region()) && vp.region() != vq.region() {
                branches |= branch::CD6_BROKE;
                violations.push(Violation::ViewConvergence { p, q });
            }
        }
    }

    // --- CD7: Progress ---------------------------------------------------
    for cluster in faulty_clusters(graph, &domains) {
        let satisfied = cluster.iter().any(|&i| {
            graph
                .border_of(domains[i].iter())
                .into_iter()
                .any(|b| !faulty.contains(&b) && report.decisions.contains_key(&b))
        });
        if !satisfied {
            branches |= branch::CD7_BROKE;
            violations.push(Violation::Progress {
                cluster: cluster.into_iter().map(|i| domains[i].clone()).collect(),
            });
        } else {
            branches |= branch::CD7_OK;
        }
    }

    (violations, branches)
}

/// The first send on each directed channel of a message list, as an
/// open-addressed set of message indices (four bytes a slot, at a load
/// of at most 3/4 even if every message used its own channel): one
/// allocation, however many channels there are.
struct FirstSends<'a> {
    pairs: &'a [(NodeId, NodeId)],
    slots: Vec<u32>,
}

/// Empty slot of a [`FirstSends`].
const NO_SEND: u32 = u32::MAX;

impl<'a> FirstSends<'a> {
    fn new(pairs: &'a [(NodeId, NodeId)]) -> Self {
        assert!(
            pairs.len() < NO_SEND as usize,
            "message index space exhausted"
        );
        let slots = vec![NO_SEND; (pairs.len() * 4 / 3 + 1).next_power_of_two()];
        FirstSends { pairs, slots }
    }

    /// `true` if message `i` is the first on its channel; call once per
    /// message, in send order.
    fn is_first(&mut self, i: usize) -> bool {
        let (from, to) = self.pairs[i];
        let channel = u64::from(from.0) << 32 | u64::from(to.0);
        let mask = self.slots.len() - 1;
        // Fibonacci hashing: multiply by 2^64/φ, keep the high bits.
        let mut slot = (channel.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize & mask;
        loop {
            match self.slots[slot] {
                NO_SEND => {
                    self.slots[slot] = i as u32;
                    return true;
                }
                first if self.pairs[first as usize] == (from, to) => return false,
                _ => slot = (slot + 1) & mask,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Exec, Scenario};
    use precipice_core::View;
    use precipice_graph::{path, NodeId};
    use precipice_sim::SimTime;

    fn ok_report() -> RunReport<NodeId> {
        Scenario::builder(path(3))
            .crash(NodeId(1), SimTime::from_millis(1))
            .build()
            .exec(Exec::new())
            .report
    }

    #[test]
    fn clean_run_has_no_violations() {
        let report = ok_report();
        assert_eq!(check_spec(&report), Vec::new());
    }

    #[test]
    fn detects_border_termination_violation() {
        let mut report = ok_report();
        report.decisions.remove(&NodeId(2));
        let violations = check_spec(&report);
        assert!(violations.iter().any(
            |v| matches!(v, Violation::BorderTermination { missing, .. } if *missing == NodeId(2))
        ));
    }

    #[test]
    fn detects_disagreement() {
        let mut report = ok_report();
        report.decisions.get_mut(&NodeId(2)).unwrap().value = NodeId(2);
        let violations = check_spec(&report);
        assert!(violations
            .iter()
            .any(|v| matches!(v, Violation::UniformBorderAgreement { .. })));
    }

    /// The uniformity boundary the schedule explorer mapped out: a
    /// faulty node that died holding a *subsumed* view is exempt from
    /// CD5's view agreement (unavoidable — it may crash right after
    /// deciding), but value uniformity on the *same* view binds faulty
    /// deciders unconditionally.
    #[test]
    fn cd5_exempts_faulty_stale_views_but_not_values() {
        let base = || {
            Scenario::builder(path(5))
                .crash(NodeId(1), SimTime::from_millis(1))
                .crash(NodeId(2), SimTime::from_millis(2))
                .build()
                .exec(Exec::new())
                .report
        };
        // n0 and n3 decided {1,2}. Forge n2 (faulty, crashed at 2ms)
        // deciding the subsumed view {1} just before its own crash:
        // legal — no violation.
        let mut report = base();
        let small: Region = [NodeId(1)].into_iter().collect();
        let view = View::new(report.graph.as_ref(), small);
        report.decisions.insert(
            NodeId(2),
            crate::Decision {
                view,
                value: NodeId(0),
                at: SimTime::from_micros(1500),
            },
        );
        assert_eq!(
            check_spec(&report),
            Vec::new(),
            "stale faulty view is legal"
        );

        // But a faulty decider of the SAME view with a different value
        // breaks uniformity.
        let mut report = base();
        let d0 = report.decisions[&NodeId(0)].clone();
        report.decisions.insert(
            NodeId(2),
            crate::Decision {
                view: d0.view,
                value: NodeId(3),
                at: SimTime::from_micros(1500),
            },
        );
        let violations = check_spec(&report);
        assert!(
            violations
                .iter()
                .any(|v| matches!(v, Violation::UniformBorderAgreement { .. })),
            "same-view value disagreement binds faulty deciders: {violations:?}"
        );

        // A faulty decider whose view is NOT subsumed by the other's
        // (here: disjoint forged views {n1} vs {n2}) gets no exemption —
        // only the unavoidable died-on-a-subset race is legal.
        let mut report = base();
        let r1: Region = [NodeId(1)].into_iter().collect();
        let r2: Region = [NodeId(2)].into_iter().collect();
        let v1 = View::new(report.graph.as_ref(), r1);
        let v2 = View::new(report.graph.as_ref(), r2);
        report.decisions.get_mut(&NodeId(0)).unwrap().view = v1;
        report.decisions.insert(
            NodeId(2),
            crate::Decision {
                view: v2,
                value: NodeId(0),
                at: SimTime::from_millis(3),
            },
        );
        let violations = check_spec(&report);
        assert!(
            violations.iter().any(|v| matches!(
                v,
                Violation::UniformBorderAgreement { p, q }
                    if (*p, *q) == (NodeId(0), NodeId(2)) || (*p, *q) == (NodeId(2), NodeId(0))
            )),
            "non-subsumed faulty view must not be exempt: {violations:?}"
        );
    }

    #[test]
    fn detects_overlap() {
        // Forge a second decider with a partially overlapping view.
        let mut report = Scenario::builder(path(5))
            .crash(NodeId(1), SimTime::from_millis(1))
            .crash(NodeId(2), SimTime::from_millis(1))
            .build()
            .exec(Exec::new())
            .report;
        // n0 and n3 decided {1,2}. Replace n3's view with {2,3}: overlap.
        let forged_region: Region = [NodeId(2), NodeId(3)].into_iter().collect();
        let forged = View::new(report.graph.as_ref(), forged_region);
        let d3 = report.decisions.get_mut(&NodeId(3)).unwrap();
        d3.view = forged;
        let violations = check_spec(&report);
        assert!(violations
            .iter()
            .any(|v| matches!(v, Violation::ViewConvergence { .. })));
    }

    #[test]
    fn detects_view_accuracy_violations() {
        let mut report = ok_report();
        // n0 claims a view containing the live node 2.
        let bogus_region: Region = [NodeId(2)].into_iter().collect();
        let bogus = View::new(report.graph.as_ref(), bogus_region);
        report.decisions.get_mut(&NodeId(0)).unwrap().view = bogus;
        let violations = check_spec(&report);
        assert!(violations
            .iter()
            .any(|v| matches!(v, Violation::ViewAccuracyNotCrashed { member, .. } if *member == NodeId(2))));
        // n0 is not on border({2}) either ({1,3} is, 1 crashed).
        assert!(violations
            .iter()
            .any(|v| matches!(v, Violation::ViewAccuracyBorder { .. })));
    }

    #[test]
    fn detects_progress_violation() {
        let mut report = ok_report();
        report.decisions.clear();
        let violations = check_spec(&report);
        assert!(violations
            .iter()
            .any(|v| matches!(v, Violation::Progress { .. })));
    }

    #[test]
    fn detects_locality_violation() {
        // In path(3) with {1} crashed, 0 -> 2 is allowed, so forge an
        // out-of-closure message on a bigger graph.
        let mut big = Scenario::builder(path(6))
            .crash(NodeId(1), SimTime::from_millis(1))
            .build()
            .exec(Exec::new())
            .report;
        assert!(check_spec(&big).is_empty(), "clean before forgery");
        big.message_pairs
            .as_mut()
            .unwrap()
            .push((NodeId(4), NodeId(5)));
        let violations = check_spec(&big);
        assert!(violations
            .iter()
            .any(|v| matches!(v, Violation::Locality { from, to } if *from == NodeId(4) && *to == NodeId(5))));
    }

    /// CD3 checks each channel once, at its first send: repeated and
    /// interleaved out-of-closure messages, mixed with legal ones,
    /// report each offending channel once, in first-send order — not
    /// in channel order, which the second case would break.
    #[test]
    fn locality_violations_come_once_per_channel_in_first_send_order() {
        let clean = Scenario::builder(path(6))
            .crash(NodeId(1), SimTime::from_millis(1))
            .build()
            .exec(Exec::new())
            .report;
        let (four, five) = (NodeId(4), NodeId(5));
        for (a, b) in [(four, five), (five, four)] {
            let mut report = clean.clone();
            let pairs = report.message_pairs.as_mut().unwrap();
            let legal = pairs[0];
            pairs.extend([(a, b), legal, (b, a), (a, b), legal, (b, a)]);
            assert_eq!(
                check_spec(&report),
                [
                    Violation::Locality { from: a, to: b },
                    Violation::Locality { from: b, to: a },
                ]
            );
        }
    }

    #[test]
    fn violations_render() {
        let v = Violation::Locality {
            from: NodeId(1),
            to: NodeId(2),
        };
        assert!(v.to_string().contains("CD3"));
        let v = Violation::NonQuiescent;
        assert!(v.to_string().contains("quiescence"));
    }
}
