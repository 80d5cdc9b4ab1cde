//! Seeded randomness for the whole workspace, on `std` alone.
//!
//! Two generators, each a deterministic function of one `u64` seed:
//!
//! - [`Rng`], xoshiro256++ seeded through SplitMix64. It draws the
//!   seeded topologies ([`random_tree`](crate::random_tree) and the
//!   other random generators), the simulator's latency jitter and the
//!   workload crate's failure patterns.
//! - [`SplitMix`], SplitMix64 itself: one word of state, for the
//!   schedule explorers' private streams and the tests' cheap draws.
//!
//! [`cases`] runs a seeded property test over an [`Rng`].

use std::ops::{Range, RangeInclusive};
use std::panic::{self, AssertUnwindSafe};

/// The SplitMix64 output function: a bijective 64-bit mixer. Finishes
/// every [`SplitMix`] draw, and doubles as a hash finaliser.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// SplitMix64: a Weyl sequence finished by [`mix64`].
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// The stream whose first draw mixes `seed + 0x9e37_79b9_7f4a_7c15`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// Next raw 64-bit draw.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.0)
    }

    /// Uniform draw from `0..n` (n > 0), exactly unbiased via Lemire's
    /// multiply-shift rejection: the naive `next_u64() % n` over-weights
    /// small residues whenever `n` does not divide 2^64.
    pub fn below(&mut self, n: usize) -> usize {
        let n = n as u64;
        debug_assert!(n > 0);
        let mut m = u128::from(self.next_u64()) * u128::from(n);
        if (m as u64) < n {
            // Reject the (2^64 mod n)-sized low fringe; every surviving
            // draw maps to exactly floor(2^64 / n) inputs.
            let threshold = n.wrapping_neg() % n;
            while (m as u64) < threshold {
                m = u128::from(self.next_u64()) * u128::from(n);
            }
        }
        (m >> 64) as usize
    }
}

/// xoshiro256++ seeded through SplitMix64.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Builds a generator whose stream is fully determined by `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix::new(seed);
        Rng {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// Next raw 64-bit draw; every other draw derives from it.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Draw from `range` (`a..b` or `a..=b` over `u64` or `usize`) by
    /// `next_u64() % span`. Panics on an empty range.
    pub fn gen_range<T>(&mut self, range: impl SampleRange<T>) -> T {
        range.sample(self)
    }

    /// Uniform in `[0, 1)` from the top 53 bits of one draw.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p` of `true`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "p={p} outside [0, 1]");
        self.gen_f64() < p
    }

    /// Fisher–Yates shuffle of `slice`.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            slice.swap(i, self.gen_range(0..=i));
        }
    }

    /// A uniformly drawn element of `slice`, `None` if it is empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.gen_range(0..slice.len())])
        }
    }
}

/// The ranges [`Rng::gen_range`] draws from.
pub trait SampleRange<T> {
    /// One draw from the range.
    fn sample(self, rng: &mut Rng) -> T;
}

macro_rules! sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample(self, rng: &mut Rng) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end - self.start) as u128;
                self.start + (rng.next_u64() as u128 % span) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample(self, rng: &mut Rng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample empty range");
                let span = (end - start) as u128 + 1;
                start + (rng.next_u64() as u128 % span) as $t
            }
        }
    )*};
}

sample_range!(u64, usize);

/// FNV-1a over `bytes`.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs a seeded property test: `check` runs `n` times, each case
/// drawing its inputs from one [`Rng`] seeded by a hash of `name` (the
/// test's name), so every run replays the same cases. A failing case
/// panics with `name`, the case index and the stream seed.
pub fn cases(name: &str, n: u32, mut check: impl FnMut(&mut Rng)) {
    let seed = fnv1a(name.bytes());
    let mut rng = Rng::seed_from_u64(seed);
    for case in 0..n {
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| check(&mut rng))) {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("(non-string panic)");
            panic!("property '{name}' failed at case {case} (stream seed {seed:#018x}): {msg}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        barabasi_albert, erdos_renyi_connected, random_geometric_connected, random_tree,
        watts_strogatz, Graph,
    };

    #[test]
    fn deterministic_per_seed() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        let mut c = Rng::seed_from_u64(43);
        let xs: Vec<u64> = (0..32).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..32).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..32).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = Rng::seed_from_u64(7);
        for _ in 0..1000 {
            let x: usize = rng.gen_range(3..17);
            assert!((3..17).contains(&x));
            let y: u64 = rng.gen_range(5..=5);
            assert_eq!(y, 5);
            let f: f64 = rng.gen_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = Rng::seed_from_u64(1);
        assert!((0..100).all(|_| !rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::seed_from_u64(3);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert!(rng.choose(&[1u32]) == Some(&1));
        assert!(rng.choose(&Vec::<u32>::new()).is_none());
    }

    fn hash_words(words: impl IntoIterator<Item = u64>) -> u64 {
        fnv1a(words.into_iter().flat_map(u64::to_le_bytes))
    }

    // The pins below were recorded from the vendored `rand` stub these
    // generators replaced: every seeded stream must stay the one it drew.

    #[test]
    fn first_draws_are_pinned() {
        let mut x = Rng::seed_from_u64(1);
        let xs = [x.next_u64(), x.next_u64(), x.next_u64()];
        assert_eq!(
            xs,
            [0xcfc5d07f6f03c29b, 0xbf424132963fe08d, 0x19a37d5757aaf520]
        );
        let mut s = SplitMix::new(1);
        let ss = [s.next_u64(), s.next_u64(), s.next_u64()];
        assert_eq!(
            ss,
            [0x910a2dec89025cc1, 0xbeeb8da1658eec67, 0xf893a2eefb32555e]
        );
        // `patterns::schedule`'s spread draw, then `choose`, f64, bool.
        let mut r = Rng::seed_from_u64(3);
        let spread: Vec<u64> = (0..3).map(|_| r.gen_range(0..=50_000_000)).collect();
        assert_eq!(spread, [17634165, 14407689, 39055829]);
        let mut r = Rng::seed_from_u64(4);
        let picks: Vec<usize> = (0..5)
            .map(|_| *r.choose(&[0, 1, 2, 3, 4, 5, 6]).unwrap())
            .collect();
        assert_eq!(picks, [2, 3, 0, 6, 2]);
        assert_eq!(r.gen_f64(), 0.7622470104771004);
        assert!(!r.gen_bool(0.5));
    }

    #[test]
    fn seeded_topologies_are_pinned() {
        let hash = |g: Graph| {
            hash_words(
                g.edges()
                    .map(|(u, v)| u64::from(u.0) << 32 | u64::from(v.0)),
            )
        };
        assert_eq!(hash(random_tree(20, 7)), 0x17cbb0ca67406787);
        assert_eq!(
            hash(erdos_renyi_connected(30, 0.2, 3).expect("connected")),
            0xc54ba75030ebd83c
        );
        assert_eq!(
            hash(random_geometric_connected(30, 0.35, 9).expect("connected")),
            0x5c3341cecad1daee
        );
        assert_eq!(hash(barabasi_albert(30, 2, 5)), 0x1d0ba537f85857b7);
        assert_eq!(
            hash(watts_strogatz(30, 4, 0.1, 11).expect("connected")),
            0x211ed6b3f18e153f
        );
    }

    /// The node-order shuffles of `patterns::scattered_singletons` and
    /// `patterns::multi_blob` in their tests (8×8 torus seed 9, 10×10
    /// seed 5).
    #[test]
    fn pattern_shuffles_are_pinned() {
        for (n, seed, head, hash) in [
            (64, 9, [0, 4, 2, 22, 26, 14], 0x9d556d09f8aa2cc5),
            (100, 5, [46, 97, 39, 40, 49, 92], 0x3e97be022204e7e5),
        ] {
            let mut nodes: Vec<u64> = (0..n).collect();
            Rng::seed_from_u64(seed).shuffle(&mut nodes);
            assert_eq!(nodes[..6], head);
            assert_eq!(hash_words(nodes), hash);
        }
    }

    #[test]
    fn same_name_same_cases() {
        let draws = |name| {
            let mut seen = Vec::new();
            cases(name, 8, |rng| seen.push(rng.next_u64()));
            seen
        };
        assert_eq!(draws("a::b"), draws("a::b"));
        assert_ne!(draws("a::b"), draws("a::c"));
    }

    #[test]
    fn a_failing_case_names_the_test_the_case_and_the_seed() {
        let mut run = 0;
        let payload = panic::catch_unwind(AssertUnwindSafe(|| {
            cases("doomed", 64, |_| {
                run += 1;
                assert!(run < 3, "third case fails");
            })
        }))
        .expect_err("the third case fails");
        let msg = payload.downcast_ref::<String>().expect("formatted panic");
        let seed = format!("{:#018x}", fnv1a("doomed".bytes()));
        for part in ["'doomed'", "case 2", &seed, "third case fails"] {
            assert!(msg.contains(part), "{part:?} missing from {msg:?}");
        }
    }
}
