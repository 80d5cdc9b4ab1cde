//! Report binary: E8 — simulator vs the sharded live runtime.
//!
//! Regenerates the experiment's tables (see the `precipice_bench::experiments` module
//! docs for the E1–E8 index). Run with `cargo run --release -p precipice-bench --bin e8_live_backend -- [--jobs N]`.
//! `--jobs` (default: `PRECIPICE_JOBS` or all cores) shards the sweep across
//! worker threads; the output is byte-identical for any worker count.
//!
//! `--deterministic` prints only the schedule-independent table (simulator
//! observables plus the gated live run at a fixed seed). That output is
//! byte-identical regardless of shard count, worker count, or machine —
//! CI diffs it across `PRECIPICE_SHARDS=1` and `PRECIPICE_SHARDS=2`.

fn main() {
    let deterministic = std::env::args().any(|a| a == "--deterministic");
    let jobs = precipice_bench::report_jobs();
    let tables = precipice_bench::experiments::e8_live_backend(jobs);
    if deterministic {
        print!("{}", precipice_bench::deterministic_markdown(&tables));
    } else {
        println!("# E8 — simulator vs the live runtime\n");
        precipice_bench::experiments::print_tables(&tables);
    }
}
