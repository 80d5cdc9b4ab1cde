//! Regenerates the E1–E9 result tables (see the
//! `precipice_bench::experiments` module docs for the index).
//!
//! `cargo run --release -p precipice-bench --bin report -- <key>… | all [--jobs N] [--deterministic]`
//!
//! - `<key>…`: one or more of `e1` … `e9`, each printed under its own
//!   heading; `all` runs the whole index in order.
//! - `--jobs N` (default: `PRECIPICE_JOBS` or all cores) shards each
//!   sweep across worker threads; the output is byte-identical for any
//!   worker count.
//! - `--deterministic` prints only the non-volatile tables, without
//!   headings: that output is byte-identical regardless of worker count,
//!   shard count or machine — CI diffs `report e8 --deterministic`
//!   across `PRECIPICE_SHARDS=1` and `PRECIPICE_SHARDS=2`.

use precipice_bench::deterministic_markdown;
use precipice_bench::experiments::{index, Experiment};
use precipice_workload::sweep::Jobs;

fn usage(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!("usage: report <e1..e9>… | all [--jobs N] [--deterministic]");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let jobs = Jobs::from_args(&args).unwrap_or_else(|msg| usage(&msg));
    let mut deterministic = false;
    let mut all = false;
    let mut selected: Vec<Experiment> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--jobs" => {
                it.next();
            }
            "--deterministic" => deterministic = true,
            "all" => all = true,
            a if a.starts_with("--jobs=") => {}
            key => match index().into_iter().find(|e| e.key == key) {
                Some(e) => selected.push(e),
                None => usage(&format!("unknown experiment or flag {key:?}")),
            },
        }
    }
    if all {
        selected = index();
    } else if selected.is_empty() {
        usage("no experiment selected");
    }
    for e in selected {
        let tables = (e.run)(jobs);
        if deterministic {
            print!("{}", deterministic_markdown(&tables));
            continue;
        }
        if all {
            println!("\n# {}\n", e.title);
        } else {
            println!("# {}\n", e.heading);
        }
        for t in &tables {
            println!("{t}");
        }
    }
}
