//! The sweep determinism contract, checked at the experiment level: an
//! experiment's merged tables must be byte-identical no matter how many
//! workers the sweep engine sharded the jobs across. (The engine itself
//! is unit-tested in `precipice_workload::sweep`; this exercises the
//! real job closures — per-job seeding, order-stable aggregation.)
//! Volatile tables (E8's wall-clock half) are exempt.

use precipice_bench::{deterministic_markdown, experiments};
use precipice_workload::sweep::Jobs;
use precipice_workload::table::Table;

fn assert_identical_for_1_and_4_workers(run: fn(Jobs) -> Vec<Table>) {
    let serial = deterministic_markdown(&run(Jobs::serial()));
    let parallel = deterministic_markdown(&run(Jobs::new(4)));
    assert!(!serial.is_empty());
    assert_eq!(serial, parallel);
}

#[test]
fn e1_output_identical_for_1_and_4_workers() {
    assert_identical_for_1_and_4_workers(experiments::e1_figure1);
}

#[test]
fn e2_output_identical_for_1_and_4_workers() {
    assert_identical_for_1_and_4_workers(experiments::e2_figure2);
}

#[test]
fn e3_output_identical_for_1_and_4_workers() {
    assert_identical_for_1_and_4_workers(experiments::e3_figure3);
}

#[test]
fn e8_output_identical_for_1_and_4_workers() {
    assert_identical_for_1_and_4_workers(experiments::e8_live_backend);
}
