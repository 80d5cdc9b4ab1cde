use precipice_graph::rng::Rng;

use crate::SimTime;

/// Distribution of per-message (or per-crash-detection) delays.
///
/// Channels stay FIFO regardless of the model: the simulator clamps each
/// delivery to be no earlier than the previous delivery scheduled on the
/// same directed channel, so a small sampled latency can never overtake an
/// earlier, slower message (the paper requires *ordered* channels, §2.2).
///
/// # Example
///
/// ```
/// use precipice_graph::rng::Rng;
/// use precipice_sim::{LatencyModel, SimTime};
///
/// let model = LatencyModel::Uniform {
///     min: SimTime::from_millis(1),
///     max: SimTime::from_millis(5),
/// };
/// let mut rng = Rng::seed_from_u64(7);
/// let d = model.sample(&mut rng);
/// assert!(d >= SimTime::from_millis(1) && d <= SimTime::from_millis(5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatencyModel {
    /// Every delay is exactly this long.
    Constant(SimTime),
    /// Delays are uniform in `[min, max]` (inclusive).
    Uniform {
        /// Smallest possible delay.
        min: SimTime,
        /// Largest possible delay.
        max: SimTime,
    },
}

impl LatencyModel {
    /// A commonly used default: uniform between 1ms and 10ms, i.e. an
    /// asynchronous network with an order-of-magnitude jitter.
    pub fn lan_like() -> Self {
        LatencyModel::Uniform {
            min: SimTime::from_millis(1),
            max: SimTime::from_millis(10),
        }
    }

    /// Draws one delay.
    ///
    /// # Panics
    ///
    /// Panics if a `Uniform` model has `min > max`.
    pub fn sample(&self, rng: &mut Rng) -> SimTime {
        match *self {
            LatencyModel::Constant(d) => d,
            LatencyModel::Uniform { min, max } => {
                assert!(min <= max, "uniform latency with min {min} > max {max}");
                SimTime::from_nanos(rng.gen_range(min.as_nanos()..=max.as_nanos()))
            }
        }
    }

    /// The largest delay the model can produce (used for round-trip bounds
    /// in tests and workload sizing).
    pub fn upper_bound(&self) -> SimTime {
        match *self {
            LatencyModel::Constant(d) => d,
            LatencyModel::Uniform { max, .. } => max,
        }
    }
}

impl Default for LatencyModel {
    /// Defaults to a constant 1ms delay.
    fn default() -> Self {
        LatencyModel::Constant(SimTime::from_millis(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_always_same() {
        let mut rng = Rng::seed_from_u64(1);
        let m = LatencyModel::Constant(SimTime::from_micros(30));
        for _ in 0..10 {
            assert_eq!(m.sample(&mut rng), SimTime::from_micros(30));
        }
    }

    #[test]
    fn uniform_within_bounds_and_varies() {
        let mut rng = Rng::seed_from_u64(2);
        let (min, max) = (SimTime::from_nanos(10), SimTime::from_nanos(1_000_000));
        let m = LatencyModel::Uniform { min, max };
        let samples: Vec<SimTime> = (0..100).map(|_| m.sample(&mut rng)).collect();
        assert!(samples.iter().all(|&d| d >= min && d <= max));
        assert!(samples.windows(2).any(|w| w[0] != w[1]), "expected jitter");
    }

    #[test]
    fn degenerate_uniform_is_constant() {
        let mut rng = Rng::seed_from_u64(3);
        let t = SimTime::from_millis(4);
        let m = LatencyModel::Uniform { min: t, max: t };
        assert_eq!(m.sample(&mut rng), t);
    }

    #[test]
    fn upper_bounds() {
        assert_eq!(
            LatencyModel::default().upper_bound(),
            SimTime::from_millis(1)
        );
        assert_eq!(
            LatencyModel::lan_like().upper_bound(),
            SimTime::from_millis(10)
        );
    }

    #[test]
    #[should_panic(expected = "min")]
    fn inverted_uniform_panics() {
        let mut rng = Rng::seed_from_u64(4);
        let m = LatencyModel::Uniform {
            min: SimTime::from_millis(2),
            max: SimTime::from_millis(1),
        };
        let _ = m.sample(&mut rng);
    }
}
