//! The one benchmark for precipice.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out FILE]
//! benchmark compare <a.jsonl> <b.jsonl> [--spec BENCHMARK.json]
//! benchmark verify [--seed <n>]
//! benchmark smoke
//! ```
//!
//! A run measures one workload in its own process and prints, as the
//! last line of its standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Everything a
//! person reads goes to standard error. README.md has the metric
//! glossary, the conditions of measurement and the probe → public
//! function map.

mod compare;
mod gen;
mod metrics;
mod probes;
mod serve;
mod simwl;
mod spans;
mod stats;
mod workload;

use std::io::Write as _;
use std::path::Path;
use std::process::ExitCode;

use precipice_core::json::Json;

use metrics::{Metric, END_TO_END, PER_LAYER};
use probes::Values;
use serve::{ok_reply, Serve};
use simwl::{explore_op, fuzz_config, planted_scenario, CheckFuzz, SimSweep};
use spans::Tracer;
use workload::{OpResult, RunStats, Sizes, Workload, WORKLOADS};

/// Spans a traced run can hold: a traced storm lifecycle records about
/// 1 300, and a run traces about a hundred of them.
const TRACE_CAPACITY: usize = 1 << 20;

const USAGE: &str = "usage:
  benchmark --workload <serve_cliff|serve_storm|check_fuzz|sim_sweep>
            [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
  benchmark compare <a.jsonl> <b.jsonl> [--spec BENCHMARK.json]
  benchmark verify [--seed N]
  benchmark smoke";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => cmd_compare(&args[1..]),
        Some("verify") => cmd_verify(&args[1..]),
        Some("smoke") => cmd_smoke(),
        Some(flag) if flag.starts_with("--") && flag != "--help" => cmd_run(&args),
        _ => Err(USAGE.to_owned()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

/// `--flag value` pairs; a flag outside `known` or without a value is
/// an error.
fn flags(args: &[String], known: &[&str]) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        if !known.contains(&flag.as_str()) {
            return Err(format!("unknown argument {flag:?}\n{USAGE}"));
        }
        let value = rest
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        out.push((flag.clone(), value.clone()));
    }
    Ok(out)
}

fn flag<T: std::str::FromStr>(
    flags: &[(String, String)],
    name: &str,
    default: T,
) -> Result<T, String> {
    match flags.iter().rev().find(|(f, _)| f == name) {
        None => Ok(default),
        Some((_, v)) => v.parse().map_err(|_| format!("bad value {v:?} for {name}")),
    }
}

/// Sets the named workload up (one set-up: input generation, no
/// warm-up).
fn build(name: &str, sizes: &Sizes, seed: u64, dir: &Path) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "serve_cliff" => Box::new(Serve::cliff(sizes, seed, dir)?),
        "serve_storm" => Box::new(Serve::storm(sizes, seed)?),
        "check_fuzz" => Box::new(CheckFuzz::new(sizes, seed)),
        "sim_sweep" => Box::new(SimSweep::new(sizes, seed, dir)?),
        other => {
            return Err(format!(
                "unknown workload {other:?} (want one of {WORKLOADS:?})"
            ))
        }
    })
}

/// Sets up and measures the named workload.
fn run_workload(
    name: &str,
    sizes: &Sizes,
    seed: u64,
    seconds: f64,
    trace: bool,
    dir: &Path,
) -> Result<(RunStats, Tracer), String> {
    let mut tracer = if trace {
        Tracer::with_capacity(TRACE_CAPACITY)
    } else {
        Tracer::off()
    };
    let stats = workload::run(sizes, seconds, &mut tracer, trace, || {
        build(name, sizes, seed, dir)
    })?;
    Ok((stats, tracer))
}

/// The report a person reads: every metric by name with its unit, and
/// the sample count behind every timing.
fn report(name: &str, stats: &RunStats, registry: &[Metric], values: &Values) {
    eprintln!(
        "{name}: {} operations, {} attempted, {} failed, set-up median of {}",
        stats.ops, stats.attempted, stats.failed, stats.setup_samples
    );
    eprintln!(
        "  latency_ms: p50 {:.3}, p{:.0} {:.3} ({} samples, {} beyond the tail{})",
        stats.latency_ms_p50,
        stats.tail_percentile * 100.0,
        stats.latency_ms_tail,
        stats.latency_samples,
        stats.tail_samples_beyond,
        if stats.tail_samples_beyond < 10 {
            ": fewer than the ten the sample-count rule wants"
        } else {
            ""
        }
    );
    if let (Some(p50), Some(p95)) = (stats.decide_ms_p50, stats.decide_ms_p95) {
        eprintln!(
            "  decide_ms: p50 {p50:.3}, p95 {p95:.3} (first crash → every border node decided)"
        );
    }
    eprintln!(
        "  result_hash {:#018x}, operation 0 {}",
        stats.first.hash,
        if stats.repeatable {
            "repeats"
        } else {
            "DOES NOT REPEAT"
        }
    );
    if let Some(why) = &stats.failure {
        eprintln!("  first failure: {why}");
    }
    for m in registry {
        match values.get(m.name) {
            Some(v) => eprintln!("  {:<44} {v:>16.4} {}", m.name, m.unit),
            None => eprintln!("  {:<44} {:>16} {}", m.name, "NOT MEASURED", m.unit),
        }
    }
}

/// The record `--out` appends: the result line plus what identifies
/// the run and what must repeat.
fn record(
    name: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    stats: &RunStats,
    metrics: &Json,
) -> Json {
    let first = &stats.first;
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let opt = |x: Option<f64>| x.map_or(Json::Null, Json::Num);
    Json::obj([
        ("workload", Json::from(name)),
        ("seed", Json::from(seed)),
        ("seconds", Json::Num(seconds)),
        ("trace", Json::from(u64::from(trace))),
        ("nproc", Json::from(nproc)),
        ("correct", Json::Bool(stats.correct())),
        ("attempted", Json::from(stats.attempted)),
        ("failed", Json::from(stats.failed)),
        ("ops", Json::from(stats.ops)),
        ("latency_samples", Json::from(stats.latency_samples)),
        ("latency_ms_tail", Json::Num(stats.latency_ms_tail)),
        ("decide_ms_p50", opt(stats.decide_ms_p50)),
        ("decide_ms_p95", opt(stats.decide_ms_p95)),
        ("result_hash", Json::from(format!("{:#018x}", first.hash))),
        (
            "counts",
            Json::obj([
                ("events", Json::from(first.events)),
                ("messages", Json::from(first.messages)),
                ("deviations", Json::from(first.deviations)),
                ("decisions", Json::from(first.decisions)),
            ]),
        ),
        ("metrics", metrics.clone()),
    ])
}

fn cmd_run(args: &[String]) -> Result<bool, String> {
    let f = flags(
        args,
        &["--workload", "--seed", "--seconds", "--trace", "--out"],
    )?;
    let name: String = flag(&f, "--workload", String::new())?;
    let seed: u64 = flag(&f, "--seed", 1)?;
    let seconds: f64 = flag(&f, "--seconds", 20.0)?;
    let trace = match flag(&f, "--trace", 0u8)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    let out: String = flag(&f, "--out", String::new())?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds takes 0 < s <= 60, not {seconds}"));
    }

    let sizes = Sizes::FULL;
    let dir = workload::out_dir().map_err(|e| format!("output directory: {e}"))?;
    let (stats, tracer) = run_workload(&name, &sizes, seed, seconds, trace, &dir)?;
    let (registry, values) = if trace {
        let file = dir.join(format!("trace-{name}.json"));
        tracer
            .write_json(&file, &name, seed)
            .map_err(|e| format!("{}: {e}", file.display()))?;
        eprintln!(
            "{name}: {} spans in {}",
            tracer.spans().len(),
            file.display()
        );
        let mut values = metrics::traced(&stats, &tracer);
        values.extend(probes::run_all(&sizes, seed, &dir)?);
        (PER_LAYER, values)
    } else {
        (END_TO_END, metrics::end_to_end(&stats))
    };
    report(&name, &stats, registry, &values);
    let metrics = metrics::metrics_json(registry, &values)?;
    if !out.is_empty() {
        let line = record(&name, seed, seconds, trace, &stats, &metrics).to_line();
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&out)
            .and_then(|mut file| writeln!(file, "{line}"))
            .map_err(|e| format!("{out}: {e}"))?;
    }
    let result = Json::obj([
        ("correct", Json::Bool(stats.correct())),
        ("attempted", Json::from(stats.attempted)),
        ("failed", Json::from(stats.failed)),
        ("metrics", metrics),
    ]);
    println!("{}", result.to_line());
    Ok(true)
}

fn cmd_compare(args: &[String]) -> Result<bool, String> {
    let [a, b, rest @ ..] = args else {
        return Err(USAGE.to_owned());
    };
    let f = flags(rest, &["--spec"])?;
    let spec: String = flag(&f, "--spec", "BENCHMARK.json".to_owned())?;
    let (table, pass) = compare::compare(&spec, a, b)?;
    print!("{table}");
    println!(
        "{}",
        if pass {
            "every row is unchanged or better"
        } else {
            "FAILED: a row is worse, unresolved or mismatched"
        }
    );
    Ok(pass)
}

/// Output-correctness gates beyond the per-workload checks.
fn cmd_verify(args: &[String]) -> Result<bool, String> {
    let f = flags(args, &["--seed"])?;
    let seed: u64 = flag(&f, "--seed", 1)?;
    let sizes = Sizes::FULL;
    let dir = workload::out_dir().map_err(|e| format!("output directory: {e}"))?;
    let mut pass = true;
    let mut gate = |name: &str, ok: bool, detail: String| {
        println!("{} {name}: {detail}", if ok { "PASS" } else { "FAIL" });
        pass &= ok;
    };

    // The checker being timed is live: the check_fuzz driver must catch
    // the planted inverted arbitration inside one operation.
    let hunt = precipice_workload::explore::ExploreConfig {
        stop_after: 1,
        shrink_runs: 0,
        ..fuzz_config(sizes.fuzz_budget, seed)
    };
    let mut out = OpResult::default();
    let found = explore_op(&planted_scenario(), &hunt, &mut Tracer::off(), &mut out);
    gate(
        "planted bug",
        out.failed > 0,
        format!(
            "{} violating schedule(s) within {} of {} schedules",
            out.failed,
            found.probes.len(),
            hunt.budget
        ),
    );

    // result_hash and every count repeat at one seed, across two
    // independent set-ups of each workload.
    for name in WORKLOADS {
        let mut runs = Vec::new();
        for _ in 0..2 {
            runs.push(build(name, &sizes, seed, &dir)?.op(0, &mut Tracer::off()));
        }
        let same = runs[0].fingerprint() == runs[1].fingerprint();
        gate(
            name,
            same && runs[0].failed == 0,
            format!(
                "operation 0 twice: hash {:#018x} / {:#018x}, {} failed{}",
                runs[0].hash,
                runs[1].hash,
                runs[0].failed + runs[1].failed,
                runs[0]
                    .failure
                    .as_ref()
                    .map_or(String::new(), |why| format!(" ({why})"))
            ),
        );
    }

    // A malformed or refused reply is an error value, never a panic.
    let mut session = precipice_net::ServeSession::default();
    let refused = [
        session.handle_line("not json"),
        session.handle_line(r#"{"cmd":"crash","node":0}"#),
        session.handle_line(r#"{"cmd":"open","topology":"moebius:3"}"#),
        "{\"ok\":tru".to_owned(),
        String::new(),
    ];
    gate(
        "bad replies",
        refused.iter().all(|line| ok_reply(line).is_err()),
        format!(
            "{} malformed or refused replies, each a failed operation",
            refused.len()
        ),
    );
    Ok(pass)
}

/// All four workloads and every probe at smoke sizes: proves each path
/// runs and each metric is measured, in well under fifteen seconds.
fn cmd_smoke() -> Result<bool, String> {
    let sizes = Sizes::SMOKE;
    let dir = workload::out_dir().map_err(|e| format!("output directory: {e}"))?;
    let probes = probes::run_all(&sizes, 1, &dir)?;
    let mut pass = true;
    for name in WORKLOADS {
        let (stats, tracer) = run_workload(name, &sizes, 1, 0.3, true, &dir)?;
        let mut values = metrics::traced(&stats, &tracer);
        values.extend(probes.clone());
        let whole = metrics::metrics_json(PER_LAYER, &values).and(metrics::metrics_json(
            END_TO_END,
            &metrics::end_to_end(&stats),
        ));
        let share_sum: f64 = values
            .iter()
            .filter(|(k, _)| k.starts_with("share."))
            .map(|(_, v)| v)
            .sum();
        let ok = stats.correct() && whole.is_ok() && (share_sum - 1.0).abs() < 0.02;
        println!(
            "{} {name}: {} operations, {} failed, shares sum to {share_sum:.3}{}{}",
            if ok { "PASS" } else { "FAIL" },
            stats.ops,
            stats.failed,
            stats
                .failure
                .as_ref()
                .map_or(String::new(), |why| format!(", {why}")),
            whole.err().map_or(String::new(), |why| format!(", {why}")),
        );
        pass &= ok;
    }
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn flags_are_pairs_of_known_names() {
        let f = flags(
            &strings(&["--seed", "7", "--trace", "1"]),
            &["--seed", "--trace"],
        )
        .unwrap();
        assert_eq!(flag(&f, "--seed", 1u64), Ok(7));
        assert_eq!(flag(&f, "--seconds", 20.0), Ok(20.0));
        assert!(flag::<u64>(&[("--seed".into(), "x".into())], "--seed", 1).is_err());
        assert!(flags(&strings(&["--sede", "7"]), &["--seed"]).is_err());
        assert!(flags(&strings(&["--seed"]), &["--seed"]).is_err());
    }

    #[test]
    fn an_unknown_workload_is_an_error_before_any_work() {
        let err = cmd_run(&strings(&["--workload", "serve_clif"])).unwrap_err();
        assert!(err.contains("unknown workload"));
        assert!(cmd_run(&strings(&["--workload", "sim_sweep", "--trace", "2"])).is_err());
        assert!(cmd_run(&strings(&["--workload", "sim_sweep", "--seconds", "0"])).is_err());
    }

    #[test]
    fn smoke_runs_every_workload_and_measures_every_metric() {
        assert_eq!(cmd_smoke(), Ok(true));
    }
}
