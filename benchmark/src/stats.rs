//! Sample statistics, the FNV fold behind `result_hash`, and the
//! process's peak resident set.

use std::time::{Duration, Instant};

/// The `p`-th percentile (`0.0..=1.0`) of `samples` by the
/// nearest-rank rule: the smallest sample with at least `p` of the
/// data at or below it. `None` on an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median (nearest-rank p50). `None` on an empty slice.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of a
/// sample of size `n`. The sample-count rule: a tail percentile is
/// trusted only with at least ten samples beyond it.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p * n as f64).ceil() as usize).clamp(n.min(1), n)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes
/// them (the "exclusive" method), which is what the acceptance rule
/// for run-to-run spread uses. Needs at least two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64, f64)> {
    let n = samples.len();
    if n < 2 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        // CPython's exclusive method verbatim: position i*(n+1)/4 on a
        // 1-based scale, j clamped to 1..=n-1, linear in the remainder
        // (which extrapolates when the position falls outside).
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Inter-quartile distance as a share of the median: the run-to-run
/// spread the acceptance rule bounds. `None` below two samples or on a
/// zero median.
pub fn spread(samples: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(samples)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Running FNV-1a fold over 64-bit words and byte strings — the
/// `result_hash` of a workload's outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    pub fn word(&mut self, word: u64) {
        self.bytes(&word.to_le_bytes());
    }
}

/// Peak resident set of this process in MB (`VmHWM` of
/// `/proc/self/status`); `None` where that file has no such line.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Milliseconds in `d`, fractional.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nanoseconds per call of `f`: the batch size doubles until one batch
/// takes at least a tenth of `budget`, then the median of five batch
/// means is returned. `f`'s inputs and results must pass through
/// `std::hint::black_box` at the call site.
pub fn ns_per_call(budget: Duration, mut f: impl FnMut()) -> f64 {
    let slice = budget / 5;
    let mut iters: u64 = 1;
    loop {
        let started = Instant::now();
        for _ in 0..iters {
            f();
        }
        if started.elapsed() >= slice / 2 || iters >= 1 << 30 {
            break;
        }
        iters *= 2;
    }
    let means: Vec<f64> = (0..5)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..iters {
                f();
            }
            started.elapsed().as_secs_f64() * 1e9 / iters as f64
        })
        .collect();
    median(&means).expect("five batches")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), Some(50.0));
        assert_eq!(percentile(&xs, 0.95), Some(95.0));
        assert_eq!(percentile(&xs, 1.0), Some(100.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        // Order of the input does not matter, and one sample is every
        // percentile of itself.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), Some(2.0));
        assert_eq!(percentile(&[7.0], 0.95), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn sample_count_rule_wants_ten_beyond() {
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert_eq!(samples_beyond(199, 0.95), 9);
        assert_eq!(samples_beyond(12, 0.75), 3);
        assert_eq!(samples_beyond(1, 0.95), 0);
        assert_eq!(samples_beyond(0, 0.95), 0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 5.5, 8.25)));
        // Two samples extrapolate, as CPython does.
        assert_eq!(quartiles(&[10.0, 20.0]), Some((7.5, 15.0, 22.5)));
        assert_eq!(spread(&xs), Some(1.0));
        assert_eq!(spread(&[5.0]), None);
    }

    #[test]
    fn fnv_depends_on_order_and_content() {
        let mut a = Fnv::new();
        a.word(1);
        a.word(2);
        let mut b = Fnv::new();
        b.word(2);
        b.word(1);
        assert_ne!(a, b);
        let mut c = Fnv::new();
        c.bytes(b"a");
        assert_eq!(c.0, 0xaf63_dc4c_8601_ec8c, "FNV-1a test vector");
    }

    #[test]
    fn ns_per_call_grows_with_the_work() {
        let short = ns_per_call(Duration::from_millis(20), || {
            std::hint::black_box((0..10u64).map(std::hint::black_box).sum::<u64>());
        });
        let long = ns_per_call(Duration::from_millis(20), || {
            std::hint::black_box((0..1000u64).map(std::hint::black_box).sum::<u64>());
        });
        assert!(long > short * 10.0, "short {short} ns, long {long} ns");
    }
}
