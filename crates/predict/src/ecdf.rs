//! Online empirical latency distributions.
//!
//! The likelihood model needs, for every (coordinator site → replica site)
//! path, an answer to "what is the probability a vote from that replica
//! arrives within *t* more microseconds?". A sliding-window empirical CDF
//! over recently observed vote round trips answers it; the window (rather
//! than an all-history distribution) is what lets predictions track load
//! spikes and regime changes, which is exactly the unpredictability PLANET
//! targets.
//!
//! Every observed vote records a sample and is followed by a query, so the
//! window is kept sorted as it slides: a sample is placed by binary search
//! and the evicted one removed the same way, one memmove of at most the
//! window between the two positions. A query is then one or two binary
//! searches; it neither sorts nor allocates.

use std::collections::VecDeque;

/// A sliding-window empirical CDF of `u64` samples (microseconds).
///
/// ```
/// use planet_predict::LatencyEcdf;
///
/// let mut ecdf = LatencyEcdf::new(128);
/// for rtt in [80_000u64, 90_000, 100_000, 110_000] {
///     ecdf.record(rtt);
/// }
/// assert_eq!(ecdf.cdf(95_000), Some(0.5));
/// // 95ms already elapsed: only the 100ms and 110ms samples remain, and
/// // one of those two lands within the next 10ms.
/// assert_eq!(ecdf.conditional_within(95_000, 10_000), Some(0.5));
/// ```
#[derive(Debug, Clone)]
pub struct LatencyEcdf {
    /// The samples in arrival order: the front is evicted next.
    window: VecDeque<u64>,
    capacity: usize,
    /// The same samples, ascending, at every moment.
    sorted: Vec<u64>,
}

impl LatencyEcdf {
    /// An empty ECDF retaining at most `capacity` recent samples.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        LatencyEcdf {
            window: VecDeque::with_capacity(capacity),
            capacity,
            sorted: Vec::with_capacity(capacity),
        }
    }

    /// Record a sample, evicting the oldest when full.
    pub fn record(&mut self, sample: u64) {
        // Past every sample ≤ the new one: ties keep their arrival order,
        // though equal values are interchangeable to every query.
        let at = self.sorted.partition_point(|&s| s <= sample);
        if self.window.len() < self.capacity {
            self.sorted.insert(at, sample);
        } else {
            let old = self.window.pop_front().expect("a full window has a front");
            // The first of the evicted value's copies; any one would do.
            let out = self.sorted.partition_point(|&s| s < old);
            // Close the gap at `out` and open one at `at` in one move.
            if out < at {
                self.sorted.copy_within(out + 1..at, out);
                self.sorted[at - 1] = sample;
            } else {
                self.sorted.copy_within(at..out, at + 1);
                self.sorted[at] = sample;
            }
        }
        self.window.push_back(sample);
    }

    /// Number of samples currently in the window.
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// True if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// Empirical `P(X <= x)`. Returns `None` when no samples exist.
    pub fn cdf(&self, x: u64) -> Option<f64> {
        if self.window.is_empty() {
            return None;
        }
        let below = self.sorted.partition_point(|&s| s <= x);
        Some(below as f64 / self.sorted.len() as f64)
    }

    /// Empirical quantile (`q` in `[0,1]`). Returns `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.window.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let idx = ((q * (self.sorted.len() - 1) as f64).round()) as usize;
        Some(self.sorted[idx] as f64)
    }

    /// Mean of the window.
    pub fn mean(&self) -> Option<f64> {
        if self.window.is_empty() {
            return None;
        }
        Some(self.window.iter().sum::<u64>() as f64 / self.window.len() as f64)
    }

    /// Conditional completion probability: given that `elapsed` µs have
    /// already passed without the event, the probability it happens within
    /// `budget` more µs — `P(X ≤ elapsed + budget | X > elapsed)`.
    ///
    /// Falls back to the unconditional CDF when the condition has no support
    /// (everything in the window is ≤ `elapsed`): the sample is then assumed
    /// stale and the answer is a deliberately pessimistic small probability,
    /// because a response later than everything we have ever seen suggests
    /// loss or a partition.
    ///
    /// A `budget` so large that `elapsed + budget` overflows (`u64::MAX`
    /// spells "no deadline") reaches past every sample.
    pub fn conditional_within(&self, elapsed: u64, budget: u64) -> Option<f64> {
        if self.window.is_empty() {
            return None;
        }
        let deadline = elapsed.saturating_add(budget);
        let n = self.sorted.len() as f64;
        let past = self.sorted.partition_point(|&s| s <= elapsed) as f64;
        let by_deadline = self.sorted.partition_point(|&s| s <= deadline) as f64;
        let survivors = n - past;
        if survivors <= 0.0 {
            // Beyond all observed samples: assume near-certain loss.
            return Some(0.05);
        }
        Some((by_deadline - past) / survivors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(samples: &[u64]) -> LatencyEcdf {
        let mut e = LatencyEcdf::new(1024);
        for &s in samples {
            e.record(s);
        }
        e
    }

    #[test]
    fn empty_returns_none() {
        let e = LatencyEcdf::new(8);
        assert!(e.is_empty());
        assert_eq!(e.cdf(100), None);
        assert_eq!(e.quantile(0.5), None);
        assert_eq!(e.mean(), None);
        assert_eq!(e.conditional_within(0, 10), None);
    }

    #[test]
    fn cdf_basic() {
        let e = filled(&[10, 20, 30, 40]);
        assert_eq!(e.cdf(5), Some(0.0));
        assert_eq!(e.cdf(10), Some(0.25));
        assert_eq!(e.cdf(25), Some(0.5));
        assert_eq!(e.cdf(100), Some(1.0));
    }

    #[test]
    fn quantile_basic() {
        let e = filled(&[10, 20, 30, 40, 50]);
        assert_eq!(e.quantile(0.0), Some(10.0));
        assert_eq!(e.quantile(0.5), Some(30.0));
        assert_eq!(e.quantile(1.0), Some(50.0));
    }

    #[test]
    fn window_evicts_oldest() {
        let mut e = LatencyEcdf::new(3);
        for s in [1, 2, 3, 100, 200, 300] {
            e.record(s);
        }
        assert_eq!(e.len(), 3);
        assert_eq!(e.cdf(50), Some(0.0), "old small samples must be gone");
        assert_eq!(e.mean(), Some(200.0));
    }

    #[test]
    fn conditional_probability_tightens_over_time() {
        // Bimodal: half fast (~10), half slow (~100). Once 50µs have passed
        // the response must be in the slow mode.
        let e = filled(&[10, 10, 10, 100, 100, 100]);
        let unconditional = e.conditional_within(0, 20).unwrap();
        assert!((unconditional - 0.5).abs() < 1e-9);
        let conditioned = e.conditional_within(50, 60).unwrap();
        assert!((conditioned - 1.0).abs() < 1e-9, "all survivors are ~100");
    }

    #[test]
    fn conditional_beyond_support_is_pessimistic() {
        let e = filled(&[10, 20, 30]);
        let p = e.conditional_within(1_000, 1_000).unwrap();
        assert!(p < 0.1, "expected pessimistic tail, got {p}");
    }

    #[test]
    fn an_unbounded_budget_reaches_every_sample() {
        let e = filled(&[10, 20, 30]);
        assert_eq!(e.conditional_within(15, u64::MAX), Some(1.0));
        assert_eq!(e.conditional_within(u64::MAX, u64::MAX), Some(0.05));
    }

    #[test]
    fn mean_tracks_window() {
        let e = filled(&[10, 20, 30]);
        assert_eq!(e.mean(), Some(20.0));
    }
}
