//! What the four workloads share: their sizes, what one operation
//! reports, and the loop that sets a workload up, warms it, measures it
//! for a fixed time and checks that its outputs repeat.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use precipice_graph::{stream_torus, GridDims};

use crate::spans::{Tracer, OP_SPAN};
use crate::stats::{median, ms, percentile, samples_beyond};

/// The workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 4] = ["serve_cliff", "serve_storm", "check_fuzz", "sim_sweep"];

/// Everything that smoke mode shrinks. The full sizes are the
/// benchmark; the smoke sizes only prove that every path still runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Side of the mapped torus of `serve_cliff` and `sim_sweep`.
    pub big_side: usize,
    /// Side of the `serve_storm` torus (one cliff per 4×4 tile).
    pub storm_side: usize,
    /// Schedules per `check_fuzz` operation.
    pub fuzz_budget: u64,
    /// Runs per `sim_sweep` cycle: cliff, blob64, cascade.
    pub cycle: [usize; 3],
    /// Serve lifecycles discarded before timing.
    pub warmup_lifecycles: u64,
    /// Sweep cycles discarded before timing. Three, so that the warm-up
    /// and not the one-off file write carries `setup_s` there.
    pub warmup_cycles: u64,
    /// Fewest times the whole set-up is repeated; `setup_s` is the
    /// median of the repetitions.
    pub setup_reps: usize,
    /// A short set-up repeats beyond `setup_reps` until this much time
    /// has gone into set-ups (at most [`MAX_SETUP_REPS`] of them), so a
    /// half-second set-up gets as steady a median as a two-second one.
    pub setup_floor: Duration,
    /// Time budget of one layer probe.
    pub probe: Duration,
    /// Repetitions of a probe that times whole calls (live clusters,
    /// scenario runs).
    pub probe_reps: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        big_side: 1024,
        storm_side: 64,
        fuzz_budget: 256,
        cycle: [24, 1, 14],
        warmup_lifecycles: 10,
        warmup_cycles: 3,
        setup_reps: 3,
        setup_floor: Duration::from_secs(4),
        probe: Duration::from_millis(100),
        probe_reps: 15,
    };

    pub const SMOKE: Sizes = Sizes {
        big_side: 128,
        storm_side: 16,
        fuzz_budget: 32,
        cycle: [4, 1, 2],
        warmup_lifecycles: 1,
        warmup_cycles: 1,
        setup_reps: 1,
        setup_floor: Duration::ZERO,
        probe: Duration::from_millis(2),
        probe_reps: 2,
    };
}

/// Most set-up repetitions of one run.
pub const MAX_SETUP_REPS: usize = 9;

/// What one operation (a serve lifecycle, an `explore_scenario` call, a
/// sweep cycle) reports back to the loop.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpResult {
    /// Units of work attempted: 1 lifecycle, the schedules of one
    /// exploration, the runs of one cycle.
    pub attempted: u64,
    /// Units whose output was wrong, malformed or refused.
    pub failed: u64,
    /// What the first failure was, for the report.
    pub failure: Option<String>,
    /// The wait a user sees, in ms: first `crash` sent → `await` reply
    /// for the serve workloads; `None` where it is the whole operation.
    pub latency_ms: Option<f64>,
    /// First `crash` sent → every border node decided (serve only).
    pub decide_ms: Option<f64>,
    /// Time spent on trace-only extra work, excluded from the
    /// operation's wall time.
    pub extra: Duration,
    /// Program-made counts; they repeat exactly at one seed where the
    /// simulator makes them, and are zero where the serve protocol
    /// does not expose them.
    pub events: u64,
    pub messages: u64,
    pub deviations: u64,
    pub decisions: u64,
    /// FNV fold of the operation's outputs.
    pub hash: u64,
}

impl OpResult {
    pub fn fail(&mut self, units: u64, why: impl Into<String>) {
        self.failed += units;
        self.failure.get_or_insert_with(|| why.into());
    }

    /// The fields that must be identical whenever the same operation
    /// index runs again at the same seed.
    pub fn fingerprint(&self) -> [u64; 7] {
        [
            self.attempted,
            self.failed,
            self.events,
            self.messages,
            self.deviations,
            self.decisions,
            self.hash,
        ]
    }
}

/// One of the four workloads, set up and ready to run operations.
pub trait Workload {
    /// Operations discarded before timing starts.
    fn warmup_ops(&self) -> u64;

    /// Runs operation `index`. Calls into the program go through
    /// `tracer.span(..)`. The same `index` must produce the same
    /// outputs every time.
    fn op(&mut self, index: u64, tracer: &mut Tracer) -> OpResult;

    /// The percentile of the latency samples reported as the tail: the
    /// highest that leaves ten samples beyond it. A 20 s run yields
    /// 150–200 samples on three of the workloads, so p90.
    fn tail_percentile(&self) -> f64 {
        0.90
    }
}

impl Workload for Box<dyn Workload> {
    fn warmup_ops(&self) -> u64 {
        (**self).warmup_ops()
    }
    fn op(&mut self, index: u64, tracer: &mut Tracer) -> OpResult {
        (**self).op(index, tracer)
    }
    fn tail_percentile(&self) -> f64 {
        (**self).tail_percentile()
    }
}

/// Where a run keeps its files: next to the benchmark's own
/// executable, so inside the build directory of whatever checkout it
/// was built in.
pub fn out_dir() -> std::io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let dir = exe
        .parent()
        .ok_or_else(|| std::io::Error::other("executable has no parent directory"))?
        .join("benchmark-out");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Streams the `side × side` torus to `<dir>/torus-<side>.pcsr`,
/// replacing any earlier file, and returns its path.
pub fn stream_big_torus(dir: &Path, side: usize) -> Result<PathBuf, String> {
    let file = dir.join(format!("torus-{side}.pcsr"));
    let _ = std::fs::remove_file(&file);
    stream_torus(GridDims::square(side), &file)
        .map_err(|e| format!("stream {}: {e}", file.display()))?;
    Ok(file)
}

/// The measured outcome of one run of one workload.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    pub setup_s: f64,
    pub setup_samples: usize,
    /// Measured operations (warm-up excluded) and their units.
    pub ops: u64,
    pub attempted: u64,
    pub failed: u64,
    pub failure: Option<String>,
    /// Units per second over whole operations.
    pub throughput_per_s: f64,
    pub latency_ms_p50: f64,
    pub latency_ms_tail: f64,
    pub tail_percentile: f64,
    pub latency_samples: usize,
    pub tail_samples_beyond: usize,
    pub decide_ms_p50: Option<f64>,
    pub decide_ms_p95: Option<f64>,
    /// Operation 0's counts and hash: identical at one seed.
    pub first: OpResult,
    /// Operation 0 ran again after the measurement and matched.
    pub repeatable: bool,
    /// Mean wall ms of traced and of untraced operations (traced runs).
    pub traced_op_ms: Option<f64>,
    pub untraced_op_ms: Option<f64>,
    pub traced_ops: u64,
}

impl RunStats {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.repeatable && self.attempted > 0
    }

    /// Throughput lost to tracing, as a share of the untraced
    /// throughput.
    pub fn trace_overhead_share(&self) -> Option<f64> {
        let (traced, untraced) = (self.traced_op_ms?, self.untraced_op_ms?);
        Some(1.0 - untraced / traced)
    }
}

/// Sets `build`'s workload up `sizes.setup_reps` times or more (warm-up
/// included, since a user pays it before the first timed result),
/// measures operations for `seconds`, then checks that operation 0
/// repeats. With tracing, odd operations are traced and even ones are
/// not, so one run yields both sides of the overhead comparison.
pub fn run<W: Workload>(
    sizes: &Sizes,
    seconds: f64,
    tracer: &mut Tracer,
    trace: bool,
    mut build: impl FnMut() -> Result<W, String>,
) -> Result<RunStats, String> {
    let mut stats = RunStats::default();
    let mut setups = Vec::with_capacity(MAX_SETUP_REPS);
    let mut workload = None;
    let setting_up = Instant::now();
    while setups.len() < sizes.setup_reps.max(1)
        || (setups.len() < MAX_SETUP_REPS && setting_up.elapsed() < sizes.setup_floor)
    {
        drop(workload.take());
        let started = Instant::now();
        let mut w = build()?;
        for index in 0..w.warmup_ops() {
            let warm = w.op(index, &mut Tracer::off());
            if warm.failed > 0 {
                stats.failed += warm.failed;
                stats.failure = stats.failure.or(warm.failure);
            }
        }
        setups.push(started.elapsed().as_secs_f64());
        workload = Some(w);
    }
    let mut w = workload.expect("at least one set-up");
    stats.setup_s = median(&setups).expect("at least one set-up");
    stats.setup_samples = setups.len();

    let mut latencies = Vec::new();
    let mut decides = Vec::new();
    let mut wall = [Duration::ZERO; 2];
    let mut count = [0u64; 2];
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut index = 0u64;
    loop {
        let traced = trace && index % 2 == 1;
        tracer.set(traced, index as u32);
        let op_started = Instant::now();
        let result = tracer.span(OP_SPAN, |t| w.op(index, t));
        let op_wall = op_started.elapsed().saturating_sub(result.extra);
        wall[usize::from(traced)] += op_wall;
        count[usize::from(traced)] += 1;
        stats.attempted += result.attempted;
        stats.failed += result.failed;
        if stats.failure.is_none() {
            stats.failure.clone_from(&result.failure);
        }
        latencies.push(result.latency_ms.unwrap_or_else(|| ms(op_wall)));
        decides.extend(result.decide_ms);
        if index == 0 {
            stats.first = result;
        }
        index += 1;
        // A traced run needs one operation of each kind, however slow.
        if started.elapsed() >= budget && (!trace || index >= 2) {
            break;
        }
    }
    tracer.set(false, 0);
    stats.ops = index;
    let measured = wall[0] + wall[1];
    stats.throughput_per_s =
        (stats.attempted - stats.failed) as f64 / measured.as_secs_f64().max(f64::MIN_POSITIVE);
    stats.tail_percentile = w.tail_percentile();
    stats.latency_samples = latencies.len();
    stats.tail_samples_beyond = samples_beyond(latencies.len(), stats.tail_percentile);
    stats.latency_ms_p50 = median(&latencies).expect("at least one operation");
    stats.latency_ms_tail =
        percentile(&latencies, stats.tail_percentile).expect("at least one operation");
    stats.decide_ms_p50 = median(&decides);
    stats.decide_ms_p95 = percentile(&decides, 0.95);
    if trace {
        stats.traced_ops = count[1];
        let mean = |i: usize| (count[i] > 0).then(|| ms(wall[i]) / count[i] as f64);
        stats.untraced_op_ms = mean(0);
        stats.traced_op_ms = mean(1);
    }

    let again = w.op(0, &mut Tracer::off());
    stats.repeatable = again.fingerprint() == stats.first.fingerprint();
    if !stats.repeatable && stats.failure.is_none() {
        stats.failure = Some(format!(
            "operation 0 did not repeat: {:x?} then {:x?}",
            stats.first.fingerprint(),
            again.fingerprint()
        ));
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A workload whose operations take no time and fail on demand.
    struct Fake {
        fail_every: u64,
        drift: bool,
        calls: u64,
    }

    impl Workload for Fake {
        fn warmup_ops(&self) -> u64 {
            2
        }
        fn op(&mut self, index: u64, tracer: &mut Tracer) -> OpResult {
            self.calls += 1;
            let mut r = OpResult {
                attempted: 39,
                events: 100 + index,
                hash: if self.drift { self.calls } else { index },
                ..OpResult::default()
            };
            tracer.span("exec", |_| std::thread::sleep(Duration::from_micros(200)));
            if self.fail_every > 0 && index % self.fail_every == self.fail_every - 1 {
                r.fail(1, "planted");
            }
            r
        }
    }

    fn sizes() -> Sizes {
        Sizes {
            setup_reps: 2,
            ..Sizes::SMOKE
        }
    }

    #[test]
    fn whole_operations_are_counted_and_operation_zero_repeats() {
        let mut tracer = Tracer::off();
        let stats = run(&sizes(), 0.02, &mut tracer, false, || {
            Ok(Fake {
                fail_every: 0,
                drift: false,
                calls: 0,
            })
        })
        .unwrap();
        // Only whole operations count: attempted is a multiple of the
        // units per operation, and the warm-up is not in it.
        assert_eq!(stats.attempted, stats.ops * 39);
        assert!(stats.ops >= 2, "20 ms of 200 µs operations");
        assert_eq!(stats.setup_samples, 2);
        assert_eq!(stats.latency_samples as u64, stats.ops);
        assert_eq!(stats.first.events, 100);
        assert!(stats.correct());
        assert!(stats.throughput_per_s > 0.0);
        assert_eq!(stats.trace_overhead_share(), None);
    }

    #[test]
    fn failures_and_drift_make_the_run_incorrect() {
        let mut tracer = Tracer::off();
        let failing = run(&sizes(), 0.005, &mut tracer, false, || {
            Ok(Fake {
                fail_every: 2,
                drift: false,
                calls: 0,
            })
        })
        .unwrap();
        assert!(failing.failed > 0 && !failing.correct());
        assert_eq!(failing.failure.as_deref(), Some("planted"));

        let drifting = run(&sizes(), 0.005, &mut tracer, false, || {
            Ok(Fake {
                fail_every: 0,
                drift: true,
                calls: 0,
            })
        })
        .unwrap();
        assert_eq!(drifting.failed, 0);
        assert!(!drifting.repeatable && !drifting.correct());
    }

    #[test]
    fn traced_runs_alternate_and_report_both_sides() {
        let mut tracer = Tracer::with_capacity(4096);
        let stats = run(&sizes(), 0.02, &mut tracer, true, || {
            Ok(Fake {
                fail_every: 0,
                drift: false,
                calls: 0,
            })
        })
        .unwrap();
        assert!(stats.traced_ops >= 1);
        assert!(stats.trace_overhead_share().is_some());
        // One driver span and one exec span per traced operation, all
        // on odd operation indices.
        assert_eq!(tracer.spans().len() as u64, 2 * stats.traced_ops);
        assert!(tracer.spans().iter().all(|s| s.op % 2 == 1));
    }

    #[test]
    fn a_failed_set_up_is_an_error_not_a_result() {
        let mut tracer = Tracer::off();
        let err = run::<Fake>(&sizes(), 0.01, &mut tracer, false, || Err("no disk".into()));
        assert_eq!(err.unwrap_err(), "no disk");
    }
}
