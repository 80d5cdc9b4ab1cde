//! `precipice` — command-line front end: describe a topology, a crashed
//! region and a crash timing; run cliff-edge consensus; get the
//! decisions, the cost and a CD1–CD7 verdict.
//!
//! ```text
//! precipice --topology torus:16 --region blob:6 --timing cascade:4ms --seed 7
//! precipice --topology ring:64 --region nodes:3,4,5 --optimized --csv
//! precipice --topology geometric:200:0.12 --region ball:2 --dot crashed.dot
//! precipice --topology torus:24 --region blob:8 --runs 32 --jobs 8
//! precipice check --topology torus:6 --region blob:3 --budget 1000 --jobs 4
//! precipice check --topology path:9 --region nodes:3,4 --backend live --shards 2
//! precipice replay counterexample.txt
//! precipice serve --shards 4 < commands.jsonl
//! ```
//!
//! With `--runs k` the same scenario is swept over `k` consecutive
//! seeds, sharded across `--jobs` worker threads by the deterministic
//! sweep engine — the output is byte-identical for any worker count.
//!
//! `precipice check` model-checks one scenario across `--budget`
//! adversarial delivery/crash schedules; on a CD violation it
//! delta-debugs the schedule to a minimal counterexample and emits a
//! replayable artifact that `precipice replay` re-executes bit-for-bit.
//!
//! Exits non-zero if the run violates the specification (it never should;
//! `--no-arbitration` and `--invert-arbitration` exist to see what
//! violations look like).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Display;
use std::process::ExitCode;
use std::str::FromStr;

use precipice::consensus::ProtocolConfig;
use precipice::graph::{to_dot, Graph, MappedGraph, NodeId, Region, TopologySpec};
use precipice::runtime::explore::{
    probe, probe_on, render_violations, shrink_schedule_on, Artifact, Counterexample,
};
use precipice::runtime::{check_spec, Engine, Exec, MulticastMode, RunDigest, RunReport, Scenario};
use precipice::sim::{LatencyModel, Schedule, SchedulePolicy, SimConfig, SimTime};
use precipice::workload::explore::{explore_scenario, shrink_scenario, ExploreConfig, PolicyMix};
use precipice::workload::stats::summarize;
use precipice::workload::sweep::{Jobs, SweepSpec};
use precipice::workload::table::{fmt_num, Table};
use precipice::workload::{RegionSpec, TimingSpec};

const USAGE: &str = "\
precipice — run cliff-edge consensus on a synthetic scenario

USAGE:
    precipice [OPTIONS]
    precipice check [OPTIONS] [CHECK OPTIONS]
    precipice replay <artifact>
    precipice serve [--shards <n>]
    precipice graph build <spec> -o <file.pcsr> [--seed <u64>]
    precipice graph info <file.pcsr>

OPTIONS:
    --topology <spec>   torus:<side> | grid:<w>x<h> | grid:<side> | ring:<n> |
                        path:<n> | star:<n> | geometric:<n>:<radius> |
                        er:<n>:<p> | tree:<n> | pcsr:<file>  [default: torus:8]
    --region <spec>     blob:<k> | line:<k> (k >= 1) | ball:<radius> |
                        nodes:<id,id,...>           [default: blob:4]
    --at <node-id>      region seed node            [default: graph center]
    --timing <spec>     simultaneous | cascade:<dur> | spread:<dur>, dur in
                        ns, us, ms or s (bare = ms) [default: simultaneous]
                        (one grammar per spec: TopologySpec, RegionSpec,
                        TimingSpec; a spec outside it exits 2, named)
    --seed <u64>        RNG seed                    [default: 0]
    --runs <k>          sweep seeds <seed>..<seed>+<k>, aggregated
                                                    [default: 1]
    --jobs <n>          sweep worker threads
                        [default: $PRECIPICE_JOBS, else all cores]
    --optimized         enable early-termination + fast-abort
    --no-arbitration    ABLATION: disable the rejection mechanism
    --invert-arbitration  FAULT INJECTION: reject higher- instead of
                        lower-ranked views (a planted bug for `check`)
    --sequential-multicast  crash-interruptible multicast loops
    --csv               print tables as CSV instead of markdown
    --dot <path>        also write the crashed topology as Graphviz DOT
    -h, --help          show this help

CHECK OPTIONS (adversarial schedule exploration):
    --budget <n>        schedules to explore        [default: 1000]
    --policy <p>        random | pcr | mixed | guided
                        (guided = coverage-guided corpus mutation,
                        sim backend only)           [default: mixed]
    --stop-after <k>    stop once k violating schedules were found
                        (0 = always spend the whole budget) [default: 0]
    --artifact <path>   write the first shrunk counterexample here
                        (default: print it inline)
    --shrink-scenario   also minimize the *scenario* of the first
                        violation: drop crashes, shrink torus/ring
                        topologies (crashes remapped), re-shrink the
                        schedule on the result (sim backend only)
    --backend <b>       sim | live — explore simulator schedules, or
                        gate the sharded live runtime and explore *real*
                        backend schedules one released event at a time
                        (live: no --sequential-multicast yet)
                                                    [default: sim]
    --shards <n>        live-backend worker shards  [default: 2]

SERVE (long-lived process, line-delimited JSON on stdin/stdout):
    serve --shards <n>  host many concurrent agreement instances
                        [default shards: 2]; commands: open, crash,
                        await, read, status, close, shutdown — see the
                        README \"Serving\" section for the protocol

GRAPH SUBCOMMANDS (on-disk topologies):
    graph build <spec> -o <file>   write <spec> (same grammar as
                        --topology) as a .pcsr file; torus/grid/ring/path
                        stream straight to disk without materializing the
                        graph, so sizes far beyond RAM-resident builds work
    graph info <file>   print the .pcsr header and verify its checksum
                        and every row
";

#[derive(Debug, Clone, PartialEq)]
struct Options {
    topology: TopologySpec,
    region: RegionSpec,
    at: Option<u32>,
    timing: TimingSpec,
    seed: u64,
    runs: u64,
    jobs: Option<usize>,
    optimized: bool,
    no_arbitration: bool,
    invert_arbitration: bool,
    sequential_multicast: bool,
    csv: bool,
    dot: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            topology: TopologySpec::Torus(8),
            region: RegionSpec::Blob(4),
            at: None,
            timing: TimingSpec::Simultaneous,
            seed: 0,
            runs: 1,
            jobs: None,
            optimized: false,
            no_arbitration: false,
            invert_arbitration: false,
            sequential_multicast: false,
            csv: false,
            dot: None,
        }
    }
}

/// The value after `flag`, parsed as a `T`. Every flag value, the three
/// scenario specs included, is parsed here, once.
fn value_of<T: FromStr>(flag: &str, args: &mut impl Iterator<Item = String>) -> Result<T, String>
where
    T::Err: Display,
{
    let value = args
        .next()
        .ok_or_else(|| format!("{flag} requires a value"))?;
    value.parse().map_err(|e| format!("{flag}: {e}"))
}

/// [`value_of`] for a count that must be positive.
fn count_of<T>(flag: &str, args: &mut impl Iterator<Item = String>) -> Result<T, String>
where
    T: FromStr + Default + PartialEq,
    T::Err: Display,
{
    let n = value_of(flag, args)?;
    if n == T::default() {
        return Err(format!("{flag} wants a positive count"));
    }
    Ok(n)
}

fn parse_args<I: Iterator<Item = String>>(mut args: I) -> Result<Options, String> {
    let mut opts = Options::default();
    while let Some(arg) = args.next() {
        let args = &mut args;
        match arg.as_str() {
            "--topology" => opts.topology = value_of(&arg, args)?,
            "--region" => opts.region = value_of(&arg, args)?,
            "--at" => opts.at = Some(value_of(&arg, args)?),
            "--timing" => opts.timing = value_of(&arg, args)?,
            "--seed" => opts.seed = value_of(&arg, args)?,
            "--runs" => opts.runs = count_of(&arg, args)?,
            "--jobs" => opts.jobs = Some(count_of(&arg, args)?),
            "--optimized" => opts.optimized = true,
            "--no-arbitration" => opts.no_arbitration = true,
            "--invert-arbitration" => opts.invert_arbitration = true,
            "--sequential-multicast" => opts.sequential_multicast = true,
            "--csv" => opts.csv = true,
            "--dot" => opts.dot = Some(value_of(&arg, args)?),
            "-h" | "--help" => return Err(USAGE.to_owned()),
            other => return Err(format!("unknown option {other:?}\n\n{USAGE}")),
        }
    }
    Ok(opts)
}

/// The protocol configuration the CLI flags describe.
fn protocol_of(opts: &Options) -> ProtocolConfig {
    let mut protocol = if opts.optimized {
        ProtocolConfig::optimized()
    } else {
        ProtocolConfig::faithful()
    };
    protocol.arbitration = !opts.no_arbitration;
    protocol.invert_arbitration = opts.invert_arbitration;
    protocol
}

/// The scenarios the flags describe, one per simulator seed in `seeds`,
/// and their crashed region: the topology is built once (a random
/// family draws from `opts.seed`) and the region carved once, and each
/// scenario's crashes are timed under its own seed, which a spread
/// draws from.
///
/// A `pcsr:` topology is verified first (checksum, then every row):
/// opening a file checks its header and offset endpoints only, and a
/// corrupt row would otherwise panic the first query that reads it.
fn scenarios_of(opts: &Options, seeds: &[u64]) -> Result<(Region, Vec<Scenario>), String> {
    if let TopologySpec::Pcsr(file) = &opts.topology {
        MappedGraph::open(file)
            .and_then(|mapped| mapped.verify())
            .map_err(|e| format!("cannot load {file:?}: {e}"))?;
    }
    let graph = opts.topology.build(opts.seed)?;
    let region = opts.region.carve(&graph, opts.at.map(NodeId))?;
    let scenario = |seed: u64| -> Result<Scenario, String> {
        Ok(Scenario::builder(graph.clone())
            .name("cli")
            .crashes(opts.timing.crashes(&region, seed)?)
            .protocol(protocol_of(opts))
            .multicast(if opts.sequential_multicast {
                MulticastMode::Sequential
            } else {
                MulticastMode::Atomic
            })
            .sim_config(SimConfig {
                seed,
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
            .build())
    };
    let scenarios = seeds
        .iter()
        .map(|&seed| scenario(seed))
        .collect::<Result<_, _>>()?;
    Ok((region, scenarios))
}

fn run(opts: &Options) -> Result<bool, String> {
    let seeds: Vec<u64> = (0..opts.runs).map(|i| opts.seed.wrapping_add(i)).collect();
    let (region, scenarios) = scenarios_of(opts, &seeds)?;
    let graph = &scenarios[0].graph;

    if let Some(path) = &opts.dot {
        let crashed: BTreeSet<NodeId> = region.iter().collect();
        std::fs::write(path, to_dot(graph, &crashed))
            .map_err(|e| format!("writing {path:?}: {e}"))?;
        eprintln!("wrote {path}");
    }

    if opts.runs > 1 {
        let jobs = opts.jobs.map(Jobs::new).unwrap_or_else(Jobs::from_env);
        let digests = SweepSpec::new(jobs).map(&scenarios, |_, scenario| {
            scenario.exec(Exec::new()).report.digest()
        });
        return Ok(print_sweep(opts, graph, &region, &seeds, &digests));
    }
    if opts.jobs.is_some() {
        // On stderr so sweep stdout stays byte-comparable across flags.
        eprintln!("note: --jobs has no effect on a single run; combine it with --runs <k>");
    }

    let report = scenarios[0].exec(Exec::new()).report;
    print_single(opts, graph, &region, &report)
}

/// Prints the sweep tables and returns the spec verdict over all runs.
fn print_sweep(
    opts: &Options,
    graph: &Graph,
    region: &Region,
    seeds: &[u64],
    digests: &[RunDigest],
) -> bool {
    let mut per_seed = Table::new(
        format!("sweep ({} runs)", seeds.len()),
        [
            "seed",
            "deciders",
            "decided regions",
            "messages",
            "KB",
            "converged (ms)",
            "violations",
        ],
    );
    for (seed, d) in seeds.iter().zip(digests) {
        per_seed.push_row([
            seed.to_string(),
            d.deciders.to_string(),
            d.decided_regions.len().to_string(),
            d.messages.to_string(),
            fmt_num(d.bytes as f64 / 1024.0),
            fmt_num(d.last_decision_ms),
            d.violations.to_string(),
        ]);
    }

    let msgs: Vec<f64> = digests.iter().map(|d| d.messages as f64).collect();
    let conv: Vec<f64> = digests.iter().map(|d| d.last_decision_ms).collect();
    let total_violations: usize = digests.iter().map(|d| d.violations).sum();
    let msgs_summary = summarize(&msgs);
    let conv_summary = summarize(&conv);
    let mut agg = Table::new("aggregate", ["metric", "value"]);
    agg.push_row([
        "topology".to_string(),
        format!("{} ({} nodes)", opts.topology, graph.len()),
    ]);
    agg.push_row(["crashed region".to_string(), region.to_string()]);
    agg.push_row(["runs".to_string(), seeds.len().to_string()]);
    agg.push_row([
        "messages (mean/min/max)".to_string(),
        format!(
            "{} / {} / {}",
            fmt_num(msgs_summary.mean),
            fmt_num(msgs_summary.min),
            fmt_num(msgs_summary.max)
        ),
    ]);
    agg.push_row([
        "converged ms (mean/max)".to_string(),
        format!(
            "{} / {}",
            fmt_num(conv_summary.mean),
            fmt_num(conv_summary.max)
        ),
    ]);
    agg.push_row(["violations".to_string(), total_violations.to_string()]);

    if opts.csv {
        print!("{}", per_seed.to_csv());
        println!();
        print!("{}", agg.to_csv());
    } else {
        println!("{per_seed}");
        println!("{agg}");
    }

    if total_violations == 0 {
        println!(
            "specification: CD1-CD7 all satisfied across {} runs ✓",
            seeds.len()
        );
        true
    } else {
        println!(
            "specification VIOLATED in sweep: {total_violations} violations across {} runs",
            seeds.len()
        );
        false
    }
}

/// Prints the single-run tables and verdict (the original CLI contract).
fn print_single(
    opts: &Options,
    graph: &Graph,
    region: &Region,
    report: &RunReport<NodeId>,
) -> Result<bool, String> {
    let mut decisions = Table::new(
        format!("decisions ({} deciders)", report.decisions.len()),
        ["node", "region", "border", "coordinator", "at"],
    );
    for (node, d) in &report.decisions {
        decisions.push_row([
            node.to_string(),
            d.view.region().to_string(),
            d.view.border().to_string(),
            d.value.to_string(),
            d.at.to_string(),
        ]);
    }

    let mut cost = Table::new("cost", ["metric", "value"]);
    cost.push_row([
        "topology".to_string(),
        format!("{} ({} nodes)", opts.topology, graph.len()),
    ]);
    cost.push_row(["crashed region".to_string(), region.to_string()]);
    cost.push_row([
        "messages".to_string(),
        report.metrics.messages_sent().to_string(),
    ]);
    cost.push_row(["bytes".to_string(), report.metrics.bytes_sent().to_string()]);
    cost.push_row([
        "nodes involved".to_string(),
        format!(
            "{} / {}",
            report.metrics.nodes_with_traffic().len(),
            graph.len()
        ),
    ]);
    cost.push_row([
        "converged at (ms)".to_string(),
        fmt_num(report.last_decision_at().map_or(0.0, |t| t.as_millis_f64())),
    ]);

    if opts.csv {
        print!("{}", decisions.to_csv());
        println!();
        print!("{}", cost.to_csv());
    } else {
        println!("{decisions}");
        println!("{cost}");
    }

    let violations = check_spec(report);
    if violations.is_empty() {
        println!("specification: CD1-CD7 all satisfied ✓");
        Ok(true)
    } else {
        println!("specification VIOLATED:");
        for v in &violations {
            println!("  - {v}");
        }
        Ok(false)
    }
}

/// Options of the `check` subcommand: the base scenario flags plus the
/// exploration knobs.
#[derive(Debug, Clone, PartialEq)]
struct CheckOptions {
    base: Options,
    budget: u64,
    policy: PolicyMix,
    stop_after: usize,
    artifact: Option<String>,
    shrink_scenario: bool,
    /// The simulator, or the sharded live runtime gated to one released
    /// event at a time.
    engine: Engine,
}

/// Parses `check` arguments: exploration flags are extracted here, the
/// remainder goes through the ordinary scenario parser.
fn parse_check_args<I: Iterator<Item = String>>(args: I) -> Result<CheckOptions, String> {
    let mut budget: u64 = 1000;
    let mut policy = PolicyMix::Mixed;
    let mut stop_after: usize = 0;
    let mut artifact: Option<String> = None;
    let mut shrink_scenario = false;
    let mut live = false;
    let mut shards: usize = 2;
    let mut rest: Vec<String> = Vec::new();
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        let args = &mut args;
        match arg.as_str() {
            "--budget" => budget = count_of(&arg, args)?,
            "--policy" => policy = value_of(&arg, args)?,
            "--stop-after" => stop_after = value_of(&arg, args)?,
            "--artifact" => artifact = Some(value_of(&arg, args)?),
            "--shrink-scenario" => shrink_scenario = true,
            "--backend" => {
                live = match value_of::<String>(&arg, args)?.as_str() {
                    "sim" => false,
                    "live" => true,
                    other => return Err(format!("--backend wants sim or live, got {other:?}")),
                }
            }
            "--shards" => shards = count_of(&arg, args)?,
            _ => rest.push(arg),
        }
    }
    let base = parse_args(rest.into_iter())?;
    if base.runs != 1 {
        return Err("--runs does not apply to `check` (one scenario, many schedules)".to_owned());
    }
    let sim_only = [
        (shrink_scenario, "--shrink-scenario", ""),
        (
            policy == PolicyMix::Guided,
            "--policy guided",
            ": it is steered by trace coverage, which gated live runs do not record",
        ),
        (
            base.sequential_multicast,
            "--sequential-multicast",
            ": the live runtime has no multicast chain yet",
        ),
    ];
    if let Some((_, flag, why)) = sim_only.iter().find(|(on, ..)| live && *on) {
        return Err(format!("{flag} applies to the sim backend only{why}"));
    }
    Ok(CheckOptions {
        base,
        budget,
        policy,
        stop_after,
        artifact,
        shrink_scenario,
        engine: if live {
            Engine::Live { shards }
        } else {
            Engine::Sim
        },
    })
}

/// The replayable scenario description embedded in a counterexample
/// artifact (mirrors [`options_from_spec`]).
fn spec_of(opts: &Options) -> BTreeMap<String, String> {
    let mut spec = BTreeMap::new();
    spec.insert("topology".to_owned(), opts.topology.to_string());
    spec.insert("region".to_owned(), opts.region.to_string());
    spec.insert("timing".to_owned(), opts.timing.to_string());
    spec.insert("seed".to_owned(), opts.seed.to_string());
    if let Some(at) = opts.at {
        spec.insert("at".to_owned(), at.to_string());
    }
    for (key, on) in [
        ("optimized", opts.optimized),
        ("no-arbitration", opts.no_arbitration),
        ("invert-arbitration", opts.invert_arbitration),
        ("sequential-multicast", opts.sequential_multicast),
    ] {
        if on {
            spec.insert(key.to_owned(), "true".to_owned());
        }
    }
    spec
}

/// Rebuilds CLI options from an artifact's spec map (inverse of
/// [`spec_of`]; unknown keys are rejected so a typo cannot silently
/// replay a different scenario).
fn options_from_spec(spec: &BTreeMap<String, String>) -> Result<Options, String> {
    let mut opts = Options::default();
    for (key, value) in spec {
        match key.as_str() {
            "topology" => opts.topology = value.parse()?,
            "region" => opts.region = value.parse()?,
            "timing" => opts.timing = value.parse()?,
            "seed" => opts.seed = value.parse().map_err(|e| format!("spec seed: {e}"))?,
            "at" => opts.at = Some(value.parse().map_err(|e| format!("spec at: {e}"))?),
            "optimized" => opts.optimized = value == "true",
            "no-arbitration" => opts.no_arbitration = value == "true",
            "invert-arbitration" => opts.invert_arbitration = value == "true",
            "sequential-multicast" => opts.sequential_multicast = value == "true",
            other => return Err(format!("unknown spec key {other:?} in artifact")),
        }
    }
    Ok(opts)
}

/// Runs the `check` subcommand. Returns `Ok(true)` when no schedule
/// violated the specification.
fn run_check(opts: CheckOptions) -> Result<bool, String> {
    let (_, scenarios) = scenarios_of(&opts.base, &[opts.base.seed])?;
    let (explored, violating) = match opts.engine {
        Engine::Sim => explore_sim(&opts, &scenarios[0])?,
        Engine::Live { shards } => explore_live(&opts, &scenarios[0], shards)?,
    };
    if violating == 0 {
        println!("specification: CD1-CD7 hold on all {explored} explored schedules ✓");
        Ok(true)
    } else {
        println!("specification VIOLATED on {violating} of {explored} explored schedules");
        Ok(false)
    }
}

/// Prints `check`'s summary table: `rows`, then the policy and seed.
fn print_summary(opts: &CheckOptions, title: &str, rows: &[(&str, &dyn Display)]) {
    let base = &opts.base;
    let title = format!("{title} ({} / {})", base.topology, base.region);
    let mut summary = Table::new(title, ["metric", "value"]);
    for (metric, value) in rows {
        summary.push_row([metric.to_string(), value.to_string()]);
    }
    summary.push_row([
        "policy / seed".to_owned(),
        format!("{} / {}", opts.policy, base.seed),
    ]);
    if base.csv {
        print!("{}", summary.to_csv());
    } else {
        println!("{summary}");
    }
}

/// `check` on the simulator: the parallel, coverage-tracking
/// exploration, its shrunk counterexamples and, if asked, the scenario
/// shrink. Returns the schedules explored and how many violated.
fn explore_sim(opts: &CheckOptions, scenario: &Scenario) -> Result<(u64, u64), String> {
    let base = &opts.base;
    let jobs = base.jobs.map(Jobs::new).unwrap_or_else(Jobs::from_env);
    let cfg = ExploreConfig {
        budget: opts.budget,
        seed: base.seed,
        policy: opts.policy,
        stop_after: opts.stop_after,
        ..ExploreConfig::default()
    };
    let outcome = explore_scenario(scenario, &cfg, jobs);
    let (o, c) = (&outcome, &outcome.coverage);
    let min = o
        .min_counterexample_len()
        .map_or("-".to_owned(), |n| n.to_string());
    let rows: [(&str, &dyn Display); 11] = [
        ("budget", &opts.budget),
        ("schedules explored", &o.schedules()),
        ("unique orderings", &o.unique_orderings()),
        ("max deviations from FIFO", &o.max_deviations()),
        ("race pairs seen", &c.race_pairs()),
        ("race pairs seen in both orders", &c.flipped_pairs()),
        ("distinct final states", &c.distinct_states()),
        ("checker branches hit", &c.branch_count()),
        ("violating schedules", &o.violating()),
        ("counterexamples shrunk", &o.counterexamples.len()),
        ("min counterexample (decisions)", &min),
    ];
    print_summary(opts, "adversarial schedule exploration", &rows);

    for (k, (probe_idx, ce)) in outcome.counterexamples.iter().enumerate() {
        print_counterexample(opts, scenario, k, *probe_idx, ce)?;
    }

    if opts.shrink_scenario && outcome.violating() > 0 {
        match shrink_scenario(scenario, &base.topology, &cfg) {
            Some(s) => {
                println!(
                    "## scenario shrink: {} -> {} nodes, {} -> {} crashes in {} oracle probes\n",
                    s.nodes_before,
                    s.nodes_after,
                    s.crashes_before,
                    s.crashes_after,
                    s.probes_spent
                );
                for &(node, at) in &s.scenario.crashes {
                    println!("crash {node} at {at}");
                }
                println!(
                    "minimized schedule ({} scheduling decisions): {}\n",
                    s.counterexample.schedule.len(),
                    s.counterexample.schedule
                );
                let replayed = probe(
                    &s.scenario,
                    SchedulePolicy::Replay(s.counterexample.schedule.clone()),
                );
                print!(
                    "{}",
                    render_violations(&replayed.report, &replayed.violations)
                );
                println!();
            }
            // The budgeted fuzz above may trip on schedules the
            // shrinker's small fixed oracle never reaches.
            None => println!("## scenario shrink: oracle found no violation within its budget\n"),
        }
    }
    Ok((outcome.schedules(), outcome.violating()))
}

/// `check --backend live`: explores `budget` gated schedules of the
/// sharded live runtime — the policy stream the simulator's exploration
/// draws, probe 0 being the gate's FIFO order. Each ran on real shard
/// threads and is a pure function of scenario × policy, independent of
/// shard count and machine speed; the first violating one is shrunk
/// through the gate into a replayable counterexample.
fn explore_live(
    opts: &CheckOptions,
    scenario: &Scenario,
    shards: usize,
) -> Result<(u64, u64), String> {
    let (mut explored, mut violating) = (0u64, 0u64);
    let mut orderings = BTreeSet::new();
    let mut first: Option<(u64, Schedule)> = None;
    for i in 0..opts.budget {
        // FIFO would run the live engine free; gated, FIFO is the empty
        // replay.
        let policy = match opts.policy.policy_for(opts.base.seed, i) {
            SchedulePolicy::Fifo => SchedulePolicy::Replay(Schedule::fifo()),
            policy => policy,
        };
        let p = probe_on(scenario, policy, opts.engine);
        explored += 1;
        orderings.insert(p.report.trace_hash);
        if !p.violations.is_empty() {
            violating += 1;
            first.get_or_insert((i, p.schedule));
            if opts.stop_after != 0 && violating as usize >= opts.stop_after {
                break;
            }
        }
    }
    let rows: [(&str, &dyn Display); 5] = [
        ("budget", &opts.budget),
        ("schedules explored", &explored),
        ("unique orderings", &orderings.len()),
        ("violating schedules", &violating),
        ("shards", &shards),
    ];
    print_summary(opts, "live-backend schedule exploration", &rows);
    if let Some((probe_idx, schedule)) = &first {
        let shrink_runs = ExploreConfig::default().shrink_runs;
        let ce = shrink_schedule_on(scenario, schedule, shrink_runs, opts.engine);
        print_counterexample(opts, scenario, 0, *probe_idx, &ce)?;
    }
    Ok((explored, violating))
}

/// Prints counterexample `k`, found at probe `probe_idx`: its shrink,
/// the offending properties of its replay, and its artifact — written to
/// `--artifact` for the first one, printed inline otherwise. A live
/// artifact carries `backend = live`, so `precipice replay` re-runs it
/// through the gate.
fn print_counterexample(
    opts: &CheckOptions,
    scenario: &Scenario,
    k: usize,
    probe_idx: u64,
    ce: &Counterexample,
) -> Result<(), String> {
    println!(
        "## counterexample {}: probe {probe_idx}, shrunk {} -> {} scheduling decisions in {} replays\n",
        k + 1,
        ce.original_len,
        ce.schedule.len(),
        ce.shrink_runs
    );
    // Replay the minimized schedule for the human-readable diff of the
    // offending properties.
    let replay = SchedulePolicy::Replay(ce.schedule.clone());
    let replayed = probe_on(scenario, replay, opts.engine);
    print!(
        "{}",
        render_violations(&replayed.report, &replayed.violations)
    );
    let mut spec = spec_of(&opts.base);
    if opts.engine != Engine::Sim {
        spec.insert("backend".to_owned(), "live".to_owned());
    }
    let artifact = Artifact::new(spec, ce);
    match (&opts.artifact, k) {
        (Some(path), 0) => {
            std::fs::write(path, artifact.render())
                .map_err(|e| format!("writing {path:?}: {e}"))?;
            // Stderr keeps stdout byte-comparable across --jobs.
            eprintln!("wrote {path}");
        }
        _ => {
            println!("\nreplayable artifact (save and `precipice replay <file>`):\n");
            print!("{}", artifact.render());
        }
    }
    println!();
    Ok(())
}

/// Runs the `serve` subcommand: a long-lived process speaking
/// line-delimited JSON on stdin/stdout (see
/// [`precipice::net::ServeSession`] for the protocol). Blank lines and
/// `#` comments are skipped, so scripted command files pipe straight
/// in. Exits cleanly on `shutdown` or stdin EOF.
fn run_serve(shards: usize) -> Result<bool, String> {
    let session = precipice::net::ServeSession::new(shards);
    serve_lines(session, std::io::stdin().lock(), std::io::stdout().lock())?;
    Ok(true)
}

/// The serve loop: one reply line on `out` per request line of `input`,
/// until `shutdown` or end of input. Blank and `#` lines get no reply; a
/// line that is not UTF-8 gets an `"ok":false` one, and the session
/// goes on.
fn serve_lines(
    mut session: precipice::net::ServeSession,
    mut input: impl std::io::BufRead,
    mut out: impl std::io::Write,
) -> Result<(), String> {
    use precipice::consensus::json::Json;
    let mut line = Vec::new();
    while !session.finished() {
        line.clear();
        let read = input
            .read_until(b'\n', &mut line)
            .map_err(|e| format!("reading stdin: {e}"))?;
        if read == 0 {
            break;
        }
        let response = match std::str::from_utf8(&line).map(str::trim) {
            Ok(request) if request.is_empty() || request.starts_with('#') => continue,
            Ok(request) => session.handle_line(request),
            Err(e) => Json::obj([
                ("ok", Json::Bool(false)),
                ("error", Json::from(format!("request is not UTF-8: {e}"))),
            ])
            .to_line(),
        };
        writeln!(out, "{response}").map_err(|e| format!("writing stdout: {e}"))?;
        out.flush().map_err(|e| format!("flushing stdout: {e}"))?;
    }
    Ok(())
}

/// Parses `serve` arguments (just `--shards`).
fn parse_serve_args<I: Iterator<Item = String>>(mut args: I) -> Result<usize, String> {
    let mut shards: usize = 2;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--shards" => shards = count_of(&arg, &mut args)?,
            "-h" | "--help" => return Err(USAGE.to_owned()),
            other => return Err(format!("unknown serve option {other:?}\n\n{USAGE}")),
        }
    }
    Ok(shards)
}

/// Runs the `replay` subcommand: re-executes a counterexample artifact
/// and verifies it reproduces. Returns `Ok(true)` on an exact
/// reproduction (same trace hash, same violation set).
fn run_replay(path: &str) -> Result<bool, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path:?}: {e}"))?;
    let artifact = Artifact::parse(&text)?;
    // A live counterexample replays through the gate, at any shard count.
    let mut spec = artifact.spec.clone();
    let engine = match spec.remove("backend").as_deref() {
        None => Engine::Sim,
        Some("live") => Engine::Live { shards: 2 },
        Some(other) => return Err(format!("unknown backend {other:?} in artifact")),
    };
    let opts = options_from_spec(&spec)?;
    let (_, scenarios) = scenarios_of(&opts, &[opts.seed])?;
    let replay = SchedulePolicy::Replay(artifact.schedule.clone());
    let replayed = probe_on(&scenarios[0], replay, engine);

    println!("# replaying {path}\n");
    println!(
        "scenario: topology={} region={} timing={} seed={}",
        opts.topology, opts.region, opts.timing, opts.seed
    );
    println!("schedule: {} scheduling decisions", artifact.schedule.len());
    let hash_ok = replayed.report.trace_hash == artifact.trace_hash;
    println!(
        "trace hash: {} (expected {:#x}, got {:#x})",
        if hash_ok { "match" } else { "MISMATCH" },
        artifact.trace_hash,
        replayed.report.trace_hash
    );
    let got: Vec<String> = replayed.violations.iter().map(|v| v.to_string()).collect();
    let violations_ok = got == artifact.violations;
    println!(
        "violations: {} ({} expected, {} observed)\n",
        if violations_ok {
            "reproduced"
        } else {
            "DIFFER"
        },
        artifact.violations.len(),
        got.len()
    );
    print!(
        "{}",
        render_violations(&replayed.report, &replayed.violations)
    );
    if hash_ok && violations_ok {
        println!("counterexample reproduced ✓");
        Ok(true)
    } else {
        println!("counterexample did NOT reproduce (artifact stale?)");
        Ok(false)
    }
}

/// `graph build <spec> -o <file> [--seed u64]` / `graph info <file>`.
///
/// `build` writes through [`TopologySpec::write_pcsr`], which streams
/// the closed-form families, so the spec can be orders of magnitude
/// larger than what a `--topology` run could build per process.
fn run_graph<I: Iterator<Item = String>>(mut args: I) -> Result<bool, String> {
    match args.next().as_deref() {
        Some("build") => {
            let mut spec: Option<TopologySpec> = None;
            let mut out: Option<String> = None;
            let mut seed: u64 = 0;
            while let Some(arg) = args.next() {
                match arg.as_str() {
                    "-o" | "--out" => out = Some(value_of(&arg, &mut args)?),
                    "--seed" => seed = value_of(&arg, &mut args)?,
                    s if spec.is_none() && !s.starts_with('-') => spec = Some(s.parse()?),
                    other => {
                        return Err(format!("unknown graph build argument {other:?}\n\n{USAGE}"))
                    }
                }
            }
            let spec =
                spec.ok_or_else(|| format!("graph build wants a topology spec\n\n{USAGE}"))?;
            let out = out.ok_or_else(|| format!("graph build wants -o <file>\n\n{USAGE}"))?;
            let t0 = std::time::Instant::now();
            let (summary, streamed) = spec.write_pcsr(&out, seed)?;
            let mode = if streamed { "streamed" } else { "materialized" };
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            println!(
                "wrote {out}: n={} edges={} bytes={} ({mode}, {ms:.1} ms)",
                fmt_num(summary.n as f64),
                fmt_num(summary.edge_count as f64),
                fmt_num(summary.file_bytes as f64),
            );
            Ok(true)
        }
        Some("info") => {
            let path = match (args.next(), args.next()) {
                (Some(p), None) if !p.starts_with('-') => p,
                (Some(_), Some(extra)) => {
                    return Err(format!("graph info takes one file (unexpected {extra:?})"))
                }
                _ => return Err(format!("graph info wants a .pcsr file\n\n{USAGE}")),
            };
            let m = precipice::graph::MappedGraph::open(&path)
                .map_err(|e| format!("cannot open {path:?}: {e}"))?;
            println!("file:       {path}");
            println!("nodes:      {}", fmt_num(m.len() as f64));
            println!("edges:      {}", fmt_num(m.edge_count() as f64));
            println!("file bytes: {}", fmt_num(m.file_bytes() as f64));
            println!("checksum:   {:#018x}", m.recorded_checksum());
            match m.verify() {
                Ok(()) => {
                    println!("verify:     ok");
                    Ok(true)
                }
                Err(e) => {
                    println!("verify:     FAILED ({e})");
                    Ok(false)
                }
            }
        }
        _ => Err(format!(
            "graph wants a subcommand: build or info\n\n{USAGE}"
        )),
    }
}

fn main() -> ExitCode {
    // Runtime failures get an `error: ` prefix; parse/usage messages
    // stay bare (the long-standing contract of the single-run path).
    let runtime_err = |e: String| format!("error: {e}");
    let mut args = std::env::args().skip(1).peekable();
    let verdict = match args.peek().map(String::as_str) {
        Some("check") => {
            args.next();
            parse_check_args(args).and_then(|opts| run_check(opts).map_err(runtime_err))
        }
        Some("graph") => {
            args.next();
            run_graph(args).map_err(|e| {
                if e.contains("cannot") {
                    runtime_err(e)
                } else {
                    e
                }
            })
        }
        Some("serve") => {
            args.next();
            parse_serve_args(args).and_then(|shards| run_serve(shards).map_err(runtime_err))
        }
        Some("replay") => {
            args.next();
            match (args.next(), args.next()) {
                (Some(path), None) if !path.starts_with('-') => {
                    run_replay(&path).map_err(runtime_err)
                }
                (Some(_), Some(extra)) => Err(format!(
                    "replay takes exactly one artifact path (unexpected {extra:?})"
                )),
                _ => Err(format!("replay wants an artifact path\n\n{USAGE}")),
            }
        }
        _ => parse_args(args).and_then(|opts| run(&opts).map_err(runtime_err)),
    };
    match verdict {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_answers_a_non_utf8_line_and_keeps_going() {
        let input: &[u8] = b"{\"cmd\":\"open\",\"topology\":\"torus:4\"}\n\
            \xff\xfe\n\
            {\"cmd\":\"crash\",\"node\":9}\n\
            {\"cmd\":\"status\"}\n\
            {\"cmd\":\"shutdown\"}\n\
            {\"cmd\":\"status\"}\n";
        let mut out = Vec::new();
        let session = precipice::net::ServeSession::new(1);
        serve_lines(session, input, &mut out).unwrap();
        let out = String::from_utf8(out).unwrap();
        let replies: Vec<&str> = out.lines().collect();
        assert_eq!(replies.len(), 5, "nothing after shutdown: {out}");
        assert!(replies[1].starts_with("{\"ok\":false"), "{}", replies[1]);
        assert!(replies[1].contains("UTF-8"), "{}", replies[1]);
        assert!(replies[2].contains("\"killed\":9"), "{}", replies[2]);
        assert!(replies[3].starts_with("{\"ok\":true"), "{}", replies[3]);
    }

    fn parse(args: &[&str]) -> Result<Options, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let opts = parse(&[]).unwrap();
        assert_eq!(opts, Options::default());
    }

    #[test]
    fn full_flag_set() {
        let opts = parse(&[
            "--topology",
            "ring:32",
            "--region",
            "nodes:1,2,3",
            "--at",
            "5",
            "--timing",
            "cascade:4ms",
            "--seed",
            "9",
            "--optimized",
            "--no-arbitration",
            "--sequential-multicast",
            "--csv",
            "--dot",
            "/tmp/x.dot",
            "--runs",
            "8",
            "--jobs",
            "3",
        ])
        .unwrap();
        assert_eq!(opts.topology, TopologySpec::Ring(32));
        let nodes: Region = [NodeId(1), NodeId(2), NodeId(3)].into_iter().collect();
        assert_eq!(opts.region, RegionSpec::Nodes(nodes));
        assert_eq!(opts.at, Some(5));
        assert_eq!(opts.timing, TimingSpec::Cascade(SimTime::from_millis(4)));
        assert_eq!(opts.seed, 9);
        assert!(opts.optimized && opts.no_arbitration && opts.sequential_multicast && opts.csv);
        assert_eq!(opts.dot.as_deref(), Some("/tmp/x.dot"));
        assert_eq!(opts.runs, 8);
        assert_eq!(opts.jobs, Some(3));
    }

    #[test]
    fn unknown_flag_is_an_error() {
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--seed"]).is_err(), "missing value");
        assert!(parse(&["--seed", "abc"]).is_err(), "bad value");
    }

    #[test]
    fn sweep_flags() {
        let opts = parse(&["--runs", "4", "--jobs", "2"]).unwrap();
        assert_eq!(opts.runs, 4);
        assert_eq!(opts.jobs, Some(2));
        assert!(parse(&["--runs", "0"]).is_err(), "zero runs");
        assert!(parse(&["--jobs", "0"]).is_err(), "zero workers");
        assert!(parse(&["--jobs", "many"]).is_err(), "bad value");
    }

    #[test]
    fn region_specs() {
        let g = "torus:6".parse::<TopologySpec>().unwrap().build(0).unwrap();
        let carve = |region: &str, at: Option<&str>| {
            let mut args = vec!["--region", region];
            args.extend(at.map(|at| ["--at", at]).into_iter().flatten());
            let opts = parse(&args)?;
            opts.region.carve(&g, opts.at.map(NodeId))
        };
        assert_eq!(carve("blob:5", None).unwrap().len(), 5);
        assert_eq!(carve("line:4", Some("0")).unwrap().len(), 4);
        assert_eq!(carve("ball:1", Some("7")).unwrap().len(), 5);
        let explicit = carve("nodes:1,3,5", None).unwrap();
        assert_eq!(explicit.as_slice(), &[NodeId(1), NodeId(3), NodeId(5)]);
        assert!(carve("nodes:999", None).is_err());
        assert!(carve("blob:x", None).is_err());
        assert!(carve("blob:3", Some("999")).is_err());
    }

    #[test]
    fn durations_and_timing() {
        let timing = |spec: &str| parse(&["--timing", spec]).map(|opts| opts.timing);
        let cascade = |d: SimTime| Ok(TimingSpec::Cascade(d));
        assert_eq!(timing("cascade:4ms"), cascade(SimTime::from_millis(4)));
        assert_eq!(timing("cascade:250us"), cascade(SimTime::from_micros(250)));
        assert_eq!(timing("cascade:1s"), cascade(SimTime::from_secs(1)));
        assert_eq!(timing("cascade:7"), cascade(SimTime::from_millis(7)));
        assert!(timing("cascade:4lightyears").is_err());
        let region: Region = (0..3).map(NodeId).collect();
        let times = |spec: &str| -> Vec<SimTime> {
            let schedule = timing(spec).unwrap().crashes(&region, 0).unwrap();
            schedule.into_iter().map(|(_, at)| at).collect()
        };
        let start = TimingSpec::START;
        assert_eq!(times("simultaneous"), [start; 3]);
        let step = SimTime::from_millis(2);
        assert_eq!(
            times("cascade:2ms"),
            [start, start + step, start + step + step]
        );
        let window = SimTime::from_millis(50);
        assert!(times("spread:50ms")
            .iter()
            .all(|&at| at >= start && at <= start + window));
        assert!(timing("sometimes").is_err());
    }

    #[test]
    fn end_to_end_run_is_clean() {
        let opts = Options {
            topology: "torus:6".parse().unwrap(),
            region: "blob:3".parse().unwrap(),
            timing: "cascade:2ms".parse().unwrap(),
            seed: 3,
            ..Options::default()
        };
        assert_eq!(run(&opts), Ok(true));
    }

    #[test]
    fn sweep_run_is_clean() {
        let opts = Options {
            topology: "torus:6".parse().unwrap(),
            region: "blob:3".parse().unwrap(),
            timing: "cascade:2ms".parse().unwrap(),
            seed: 3,
            runs: 4,
            jobs: Some(2),
            ..Options::default()
        };
        assert_eq!(run(&opts), Ok(true));
    }

    fn check_parse(args: &[&str]) -> Result<CheckOptions, String> {
        parse_check_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn check_flags_parse() {
        let opts = check_parse(&[
            "--topology",
            "ring:16",
            "--budget",
            "64",
            "--policy",
            "pcr",
            "--stop-after",
            "2",
            "--artifact",
            "/tmp/ce.txt",
            "--jobs",
            "2",
        ])
        .unwrap();
        assert_eq!(opts.base.topology, TopologySpec::Ring(16));
        assert_eq!(opts.budget, 64);
        assert_eq!(opts.policy, PolicyMix::Pcr);
        assert_eq!(opts.stop_after, 2);
        assert_eq!(opts.artifact.as_deref(), Some("/tmp/ce.txt"));
        assert_eq!(opts.base.jobs, Some(2));

        let defaults = check_parse(&[]).unwrap();
        assert_eq!(defaults.budget, 1000);
        assert_eq!(defaults.policy, PolicyMix::Mixed);
        assert_eq!(defaults.stop_after, 0);
        assert!(defaults.artifact.is_none());
        assert!(!defaults.shrink_scenario);

        assert_eq!(
            check_parse(&["--policy", "guided"]).unwrap().policy,
            PolicyMix::Guided
        );
        assert!(check_parse(&["--shrink-scenario"]).unwrap().shrink_scenario);

        assert!(check_parse(&["--budget", "0"]).is_err());
        assert!(check_parse(&["--policy", "chaos"]).is_err());
        assert!(check_parse(&["--runs", "4"]).is_err(), "runs is sweep-only");
        assert!(check_parse(&["--bogus"]).is_err());

        let live = check_parse(&["--backend", "live", "--shards", "4"]).unwrap();
        assert_eq!(live.engine, Engine::Live { shards: 4 });
        assert_eq!(check_parse(&[]).unwrap().engine, Engine::Sim);
        assert!(check_parse(&["--backend", "quantum"]).is_err());
        assert!(check_parse(&["--shards", "0"]).is_err());
        assert_eq!(
            check_parse(&["--backend", "live", "--artifact", "/tmp/x"])
                .unwrap()
                .artifact
                .as_deref(),
            Some("/tmp/x"),
            "live schedules replay from an artifact"
        );
        assert!(
            check_parse(&["--backend", "live", "--policy", "guided"]).is_err(),
            "guided is steered by trace coverage, which gated runs do not record"
        );
        assert!(
            check_parse(&["--backend", "live", "--sequential-multicast"]).is_err(),
            "the live runtime has no multicast chain yet"
        );
        assert!(
            check_parse(&["--backend", "live", "--shrink-scenario"]).is_err(),
            "scenario shrinking is a sim-backend feature"
        );
    }

    #[test]
    fn serve_args_parse() {
        let parse = |args: &[&str]| parse_serve_args(args.iter().map(|s| s.to_string()));
        assert_eq!(parse(&[]), Ok(2));
        assert_eq!(parse(&["--shards", "8"]), Ok(8));
        assert!(parse(&["--shards", "0"]).is_err());
        assert!(parse(&["--shards"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
    }

    #[test]
    fn check_clean_scenario_passes() {
        let opts = CheckOptions {
            base: Options {
                topology: "torus:5".parse().unwrap(),
                region: "blob:3".parse().unwrap(),
                timing: "cascade:2ms".parse().unwrap(),
                seed: 3,
                jobs: Some(2),
                ..Options::default()
            },
            budget: 48,
            policy: PolicyMix::Mixed,
            stop_after: 0,
            artifact: None,
            shrink_scenario: false,
            engine: Engine::Sim,
        };
        assert_eq!(run_check(opts), Ok(true));
    }

    #[test]
    fn live_check_clean_scenario_passes() {
        let opts = CheckOptions {
            base: Options {
                topology: "torus:5".parse().unwrap(),
                region: "blob:3".parse().unwrap(),
                timing: "cascade:2ms".parse().unwrap(),
                seed: 3,
                ..Options::default()
            },
            budget: 8,
            policy: PolicyMix::Mixed,
            stop_after: 0,
            artifact: None,
            shrink_scenario: false,
            engine: Engine::Live { shards: 2 },
        };
        assert_eq!(run_check(opts), Ok(true));
    }

    #[test]
    fn live_check_catches_planted_bug() {
        let dir = std::env::temp_dir().join("precipice-check-test");
        std::fs::create_dir_all(&dir).unwrap();
        let artifact_path = dir.join("live-ce.txt");
        let opts = CheckOptions {
            base: Options {
                topology: "path:9".parse().unwrap(),
                region: "nodes:3,4".parse().unwrap(),
                timing: "cascade:2ms".parse().unwrap(),
                seed: 0,
                invert_arbitration: true,
                ..Options::default()
            },
            budget: 48,
            policy: PolicyMix::Mixed,
            stop_after: 1,
            artifact: Some(artifact_path.to_string_lossy().into_owned()),
            shrink_scenario: false,
            engine: Engine::Live { shards: 2 },
        };
        assert_eq!(
            run_check(opts),
            Ok(false),
            "the planted bug must be caught on the live backend"
        );
        // Its shrunk counterexample replays through the gate.
        let text = std::fs::read_to_string(&artifact_path).expect("artifact written");
        let artifact = Artifact::parse(&text).expect("artifact parses");
        assert!(!artifact.violations.is_empty());
        assert_eq!(artifact.spec["backend"], "live");
        assert_eq!(
            run_replay(&artifact_path.to_string_lossy()),
            Ok(true),
            "replay must reproduce the live counterexample"
        );
    }

    #[test]
    fn check_catches_planted_bug_and_replay_reproduces() {
        let dir = std::env::temp_dir().join("precipice-check-test");
        std::fs::create_dir_all(&dir).unwrap();
        let artifact_path = dir.join("ce.txt");
        let opts = CheckOptions {
            base: Options {
                topology: "torus:5".parse().unwrap(),
                region: "blob:3".parse().unwrap(),
                timing: "cascade:2ms".parse().unwrap(),
                seed: 1,
                invert_arbitration: true,
                jobs: Some(1),
                ..Options::default()
            },
            budget: 64,
            policy: PolicyMix::Mixed,
            stop_after: 1,
            artifact: Some(artifact_path.to_string_lossy().into_owned()),
            shrink_scenario: false,
            engine: Engine::Sim,
        };
        assert_eq!(run_check(opts), Ok(false), "the planted bug must be caught");
        let text = std::fs::read_to_string(&artifact_path).expect("artifact written");
        let artifact = Artifact::parse(&text).expect("artifact parses");
        assert!(!artifact.violations.is_empty());
        assert!(
            artifact.schedule.len() <= 25,
            "shrunk counterexample stays small, got {}",
            artifact.schedule.len()
        );
        assert_eq!(artifact.spec["invert-arbitration"], "true");
        // And the replay subcommand reproduces it bit-for-bit.
        assert_eq!(
            run_replay(&artifact_path.to_string_lossy()),
            Ok(true),
            "replay must reproduce the counterexample"
        );
    }

    #[test]
    fn spec_map_roundtrips_options() {
        let opts = Options {
            topology: "ring:12".parse().unwrap(),
            region: "nodes:1,2".parse().unwrap(),
            timing: "cascade:1ms".parse().unwrap(),
            seed: 9,
            at: Some(4),
            optimized: true,
            invert_arbitration: true,
            ..Options::default()
        };
        let spec = spec_of(&opts);
        let back = options_from_spec(&spec).unwrap();
        assert_eq!(back, opts);
        let mut bad = spec.clone();
        bad.insert("mystery".into(), "1".into());
        assert!(options_from_spec(&bad).is_err());
    }

    #[test]
    fn ablation_run_reports_violations_somewhere() {
        // Not every seed breaks, but this pinned one produces skew; we
        // only require that the run completes with a boolean verdict.
        let opts = Options {
            topology: "torus:8".parse().unwrap(),
            region: "line:4".parse().unwrap(),
            timing: "cascade:1ms".parse().unwrap(),
            seed: 1,
            no_arbitration: true,
            ..Options::default()
        };
        let verdict = run(&opts).expect("runs");
        let _ = verdict; // spec may or may not break for this seed; both are valid runs.
    }
}
