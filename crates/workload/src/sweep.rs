//! Deterministic parallel sweep engine for the experiment harness.
//!
//! Every figure and experiment in the evaluation is a *sweep*: run one
//! crash scenario over many seeds/delays/sizes and aggregate the rows.
//! A [`SweepSpec`] shards those jobs across worker threads while
//! keeping the output bit-for-bit identical to a sequential run —
//! one budgeted spec covering every job kind:
//!
//! - [`SweepSpec::map`] — full sweep over an input slice;
//! - [`SweepSpec::map_until`] — chunked feed with early stopping;
//! - [`SweepSpec::feed`] — streamed index feed `0..budget` (memory
//!   tracks the processed prefix, never the raw budget);
//! - the `*_with` variants ([`SweepSpec::map_with`],
//!   [`SweepSpec::feed_with`]) give each worker reusable private state
//!   (e.g. a `BatchRunner` whose slot arenas persist across the jobs
//!   that worker claims).
//!
//! # Determinism contract
//!
//! The engine guarantees that for any worker count the returned vector
//! is **identical** to the sequential `(0..n).map(job).collect()`:
//!
//! - **Per-job seeding.** A job receives only its index and its input
//!   and must derive all randomness from them (each job builds and
//!   seeds its own `Simulation`); jobs must not share mutable state or
//!   consult global RNGs, clocks, or thread identity. Worker state from
//!   a `*_with` initializer may cache *allocations*, never *results*:
//!   `job(&mut state, i, x)` must return the same value regardless of
//!   which jobs the state served before.
//! - **Order-stable merge.** Workers pull job indices from a shared
//!   atomic counter and stamp each result with its index; the engine
//!   merges results back in job-index order, so aggregation code
//!   downstream sees rows in exactly the sequential order no matter
//!   which worker computed them or how the scheduler interleaved.
//! - **Worker-independent stopping.** Early stopping happens on fixed
//!   chunk boundaries that depend only on the chunk size and the
//!   budget — never on the worker count — so the processed prefix is
//!   identical for any `--jobs`.
//!
//! Under that contract, the `report` binary produces byte-identical
//! tables for `--jobs 1` and `--jobs N` — CI diffs the two outputs to
//! keep the guarantee honest.
//!
//! # Example
//!
//! ```
//! use precipice_workload::sweep::{Jobs, SweepSpec};
//!
//! let seeds: Vec<u64> = (0..32).collect();
//! let rows = SweepSpec::new(Jobs::new(4)).map(&seeds, |i, &seed| (i, seed * seed));
//! assert_eq!(
//!     rows,
//!     SweepSpec::new(Jobs::serial()).map(&seeds, |i, &seed| (i, seed * seed))
//! );
//! ```

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Worker-thread count for a sweep.
///
/// Resolution order everywhere the harness accepts a knob: an explicit
/// `--jobs N` flag, else the `PRECIPICE_JOBS` environment variable,
/// else [`std::thread::available_parallelism`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Jobs(NonZeroUsize);

/// Environment variable overriding the default worker count.
pub const JOBS_ENV: &str = "PRECIPICE_JOBS";

impl Jobs {
    /// Exactly `n` workers (`n == 0` is clamped to 1).
    pub fn new(n: usize) -> Self {
        Jobs(NonZeroUsize::new(n.max(1)).expect("max(1) is non-zero"))
    }

    /// One worker: run every job on the calling thread, in order.
    pub fn serial() -> Self {
        Jobs::new(1)
    }

    /// The hardware default: all available parallelism.
    pub fn available() -> Self {
        Jobs(std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN))
    }

    /// `PRECIPICE_JOBS` if set to a positive integer, else
    /// [`Jobs::available`]. A set-but-malformed value is reported on
    /// stderr (never silently honored as "all cores" without notice —
    /// unlike `--jobs`, an environment variable has no parse-time
    /// error path to fail on).
    pub fn from_env() -> Self {
        match std::env::var(JOBS_ENV) {
            Ok(v) => match v.parse::<usize>() {
                Ok(n) if n > 0 => Jobs::new(n),
                _ => {
                    eprintln!(
                        "warning: ignoring invalid {JOBS_ENV}={v:?} (want a positive \
                         integer); using all available cores"
                    );
                    Jobs::available()
                }
            },
            Err(_) => Jobs::available(),
        }
    }

    /// Scans command-line style arguments for `--jobs <n>` (also
    /// `--jobs=<n>`), falling back to [`Jobs::from_env`]. Returns an
    /// error message for a malformed value.
    pub fn from_args<I, S>(args: I) -> Result<Self, String>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let arg = arg.as_ref();
            let value = if arg == "--jobs" {
                match args.next() {
                    Some(v) => v.as_ref().to_owned(),
                    None => return Err("--jobs requires a value".to_owned()),
                }
            } else if let Some(v) = arg.strip_prefix("--jobs=") {
                v.to_owned()
            } else {
                continue;
            };
            return match value.parse::<usize>() {
                Ok(n) if n > 0 => Ok(Jobs::new(n)),
                _ => Err(format!("--jobs wants a positive integer, got {value:?}")),
            };
        }
        Ok(Jobs::from_env())
    }

    /// The worker count (always ≥ 1).
    pub fn get(self) -> usize {
        self.0.get()
    }
}

/// A budgeted sweep specification: worker count plus the feed's chunk
/// granularity. See the [module docs](self) for the determinism
/// contract every method upholds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepSpec {
    jobs: Jobs,
    chunk: Option<NonZeroUsize>,
}

impl SweepSpec {
    /// A spec running on `jobs` workers with no early-stopping
    /// granularity (the whole budget is one chunk).
    pub fn new(jobs: Jobs) -> Self {
        SweepSpec { jobs, chunk: None }
    }

    /// Sets the feed chunk size (`0` is clamped to 1): `stop` callbacks
    /// fire on multiples of `chunk` processed jobs, and the streamed
    /// [`feed`](Self::feed) materializes only one chunk of indices at a
    /// time.
    pub fn chunked(mut self, chunk: usize) -> Self {
        self.chunk = Some(NonZeroUsize::new(chunk.max(1)).expect("max(1) is non-zero"));
        self
    }

    /// The worker count.
    pub fn jobs(&self) -> Jobs {
        self.jobs
    }

    /// Runs `job(index, &inputs[index])` for every input, sharded
    /// across the workers, and returns the results **in input order** —
    /// byte-identical to the sequential run. Workers claim indices from
    /// an atomic counter, so long and short jobs balance without any
    /// static partitioning. A panicking job propagates to the caller.
    pub fn map<I, T, F>(&self, inputs: &[I], job: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I) -> T + Sync,
    {
        self.map_with(inputs, || (), move |(), i, x| job(i, x))
    }

    /// [`map`](Self::map) with per-worker state: each worker calls
    /// `init()` once and threads the value through every job it claims
    /// — the hook that lets a batch runner reuse its slot arenas across
    /// a whole sweep. State may cache allocations, never results (see
    /// the module docs).
    pub fn map_with<I, W, T, G, F>(&self, inputs: &[I], init: G, job: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        G: Fn() -> W + Sync,
        F: Fn(&mut W, usize, &I) -> T + Sync,
    {
        run_core(self.jobs, inputs, &init, &job)
    }

    /// Chunked feed over an input slice: runs `job` chunk by chunk,
    /// calling `stop` on the merged results after every chunk and
    /// cutting the feed short when it returns `true`. Returns the
    /// processed prefix, in input order; the prefix is identical for
    /// any worker count.
    pub fn map_until<I, T, F, S>(&self, inputs: &[I], job: F, stop: S) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I) -> T + Sync,
        S: FnMut(&[T]) -> bool,
    {
        let job = &job;
        self.feed_with(inputs.len(), || (), move |(), i| job(i, &inputs[i]), stop)
    }

    /// Streamed index feed over `0..budget`: only one chunk of indices
    /// is materialized at a time, so an enormous budget with an early
    /// `stop` costs memory proportional to the processed prefix, never
    /// to the budget.
    pub fn feed<T, F, S>(&self, budget: usize, job: F, stop: S) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
        S: FnMut(&[T]) -> bool,
    {
        let job = &job;
        self.feed_with(budget, || (), move |(), i| job(i), stop)
    }

    /// [`feed`](Self::feed) with per-worker state (see
    /// [`map_with`](Self::map_with)). Worker threads — and therefore
    /// their state — live for one chunk: state is re-initialized at
    /// every chunk boundary, which is irrelevant for correctness (state
    /// must never affect results) and amortizes fine for chunks of many
    /// jobs.
    pub fn feed_with<W, T, G, F, S>(&self, budget: usize, init: G, job: F, mut stop: S) -> Vec<T>
    where
        T: Send,
        G: Fn() -> W + Sync,
        F: Fn(&mut W, usize) -> T + Sync,
        S: FnMut(&[T]) -> bool,
    {
        let chunk = self.chunk.map_or(budget.max(1), NonZeroUsize::get);
        let mut results: Vec<T> = Vec::new();
        let mut start = 0usize;
        while start < budget {
            let end = start.saturating_add(chunk).min(budget);
            let indices: Vec<usize> = (start..end).collect();
            results.extend(run_core(self.jobs, &indices, &init, &|w, _, &i| job(w, i)));
            if stop(&results) {
                break;
            }
            start = end;
        }
        results
    }
}

/// The shared worker engine behind every [`SweepSpec`] method: shard
/// `job(state, index, &inputs[index])` across scoped threads, merge in
/// index order.
fn run_core<I, W, T, G, F>(jobs: Jobs, inputs: &[I], init: &G, job: &F) -> Vec<T>
where
    I: Sync,
    T: Send,
    G: Fn() -> W + Sync,
    F: Fn(&mut W, usize, &I) -> T + Sync,
{
    let n = inputs.len();
    let workers = jobs.get().min(n);
    if workers <= 1 {
        let mut state = init();
        return inputs
            .iter()
            .enumerate()
            .map(|(i, x)| job(&mut state, i, x))
            .collect();
    }

    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut state = init();
                    let mut produced: Vec<(usize, T)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        produced.push((i, job(&mut state, i, &inputs[i])));
                    }
                    produced
                })
            })
            .collect();
        for handle in handles {
            for (i, value) in handle.join().expect("sweep worker panicked") {
                debug_assert!(slots[i].is_none(), "job {i} produced twice");
                slots[i] = Some(value);
            }
        }
    });

    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| slot.unwrap_or_else(|| panic!("job {i} produced no result")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_clamp_and_parse() {
        assert_eq!(Jobs::new(0).get(), 1);
        assert_eq!(Jobs::serial().get(), 1);
        assert!(Jobs::available().get() >= 1);
        assert_eq!(Jobs::from_args(["--jobs", "3"]).unwrap().get(), 3);
        assert_eq!(Jobs::from_args(["--quick", "--jobs=5"]).unwrap().get(), 5);
        assert!(Jobs::from_args(["--jobs"]).is_err());
        assert!(Jobs::from_args(["--jobs", "zero"]).is_err());
        assert!(Jobs::from_args(["--jobs", "0"]).is_err());
    }

    #[test]
    fn empty_and_single_inputs() {
        let none: Vec<u32> = Vec::new();
        assert_eq!(SweepSpec::new(Jobs::new(8)).map(&none, |_, &x| x), none);
        assert_eq!(
            SweepSpec::new(Jobs::new(8)).map(&[7u32], |i, &x| (i, x)),
            vec![(0, 7)]
        );
    }

    /// The determinism contract itself: merged output is identical for
    /// one worker and four, even when job durations are wildly skewed
    /// so workers finish far out of submission order.
    #[test]
    fn parallel_output_identical_to_serial() {
        let inputs: Vec<u64> = (0..97).collect();
        let job = |i: usize, &seed: &u64| {
            // Skew: early jobs are the slowest, so with 4 workers the
            // tail of the sweep completes long before the head.
            if i < 8 {
                std::thread::sleep(std::time::Duration::from_millis(8 - i as u64));
            }
            // A deterministic per-job "simulation": splitmix over the seed.
            let z = precipice_graph::rng::SplitMix::new(seed).next_u64();
            format!("{i}:{z:x}")
        };
        let serial = SweepSpec::new(Jobs::serial()).map(&inputs, job);
        let parallel = SweepSpec::new(Jobs::new(4)).map(&inputs, job);
        assert_eq!(serial, parallel);
        // And the order is the input order, not completion order.
        for (i, row) in serial.iter().enumerate() {
            assert!(row.starts_with(&format!("{i}:")));
        }
    }

    #[test]
    fn more_workers_than_jobs() {
        let inputs: Vec<u32> = (0..3).collect();
        assert_eq!(
            SweepSpec::new(Jobs::new(64)).map(&inputs, |_, &x| x * 2),
            vec![0, 2, 4]
        );
    }

    #[test]
    fn map_until_stops_on_chunk_boundaries_deterministically() {
        let inputs: Vec<u32> = (0..100).collect();
        // Stop once any processed result exceeds 41: that happens inside
        // the 5th chunk of 10, so exactly 50 results come back — for any
        // worker count.
        let go = |jobs: Jobs| {
            SweepSpec::new(jobs).chunked(10).map_until(
                &inputs,
                |i, &x| (i as u32) * 1000 + x,
                |done| done.iter().any(|&r| r % 1000 > 41),
            )
        };
        let serial = go(Jobs::serial());
        let parallel = go(Jobs::new(4));
        assert_eq!(serial.len(), 50, "cut at the chunk boundary after 42");
        assert_eq!(serial, parallel, "prefix identical for any worker count");
        // Global job indices are preserved across chunks.
        assert_eq!(serial[37], 37 * 1000 + 37);
    }

    #[test]
    fn feed_without_stop_processes_everything() {
        let inputs: Vec<u32> = (0..23).collect();
        let spec = SweepSpec::new(Jobs::new(3)).chunked(7);
        let all = spec.map_until(&inputs, |_, &x| x, |_| false);
        assert_eq!(all, inputs);
        let none: Vec<u32> = Vec::new();
        assert_eq!(spec.map_until(&none, |_, &x| x, |_| false), none);
        // Zero chunk is clamped, not an infinite loop.
        assert_eq!(
            SweepSpec::new(Jobs::serial())
                .chunked(0)
                .map_until(&inputs, |_, &x| x, |_| false),
            inputs
        );
        // Unchunked feed runs the whole budget in one go.
        assert_eq!(
            SweepSpec::new(Jobs::new(2)).feed(5, |i| i * i, |_| true),
            vec![0, 1, 4, 9, 16],
            "stop can only fire on a chunk boundary, and the only one is the end"
        );
    }

    /// Worker state caches allocations without perturbing results: a
    /// scratch buffer reused across every job a worker claims.
    #[test]
    fn worker_state_reuses_allocations_without_changing_results() {
        let inputs: Vec<u64> = (0..41).collect();
        let go = |jobs: Jobs| {
            SweepSpec::new(jobs).map_with(&inputs, Vec::<u64>::new, |scratch, i, &seed| {
                scratch.clear();
                scratch.extend((0..=seed).map(|v| v * v));
                (i, scratch.iter().sum::<u64>())
            })
        };
        let serial = go(Jobs::serial());
        assert_eq!(serial, go(Jobs::new(4)));
        assert_eq!(serial[3], (3, 1 + 4 + 9));

        // And the chunked feed variant: state is per-worker-per-chunk.
        let fed = SweepSpec::new(Jobs::new(2)).chunked(5).feed_with(
            11,
            || 0usize,
            |count, i| {
                *count += 1;
                i * 10
            },
            |_| false,
        );
        assert_eq!(fed, (0..11).map(|i| i * 10).collect::<Vec<_>>());
    }
}
