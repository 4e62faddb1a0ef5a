//! Measurement primitives: log-bucketed latency histograms and counters,
//! plus a registry keyed by name.
//!
//! The histogram is HDR-style: values are bucketed by (power of two ×
//! linear sub-bucket), giving a bounded-size structure with a fixed relative
//! error (≈ 1/[`Histogram::SUB_BUCKETS`]) at every magnitude — suitable for
//! latencies ranging from microseconds to minutes.

use std::collections::BTreeMap;

/// Number of linear sub-buckets per power-of-two bucket.
const SUB_BUCKETS: usize = 32;
/// Number of power-of-two major buckets; covers values up to 2^40 µs (~12 days).
const MAJOR_BUCKETS: usize = 41;

/// A log-bucketed histogram of `u64` values with ~3% relative error.
///
/// ```
/// use planet_sim::Histogram;
///
/// let mut h = Histogram::new();
/// for v in 1..=1_000u64 {
///     h.record(v * 100);
/// }
/// let p99 = h.quantile(0.99).unwrap() as f64;
/// assert!((p99 - 99_000.0).abs() / 99_000.0 < 0.05);
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Number of linear sub-buckets per major (power-of-two) bucket.
    pub const SUB_BUCKETS: usize = SUB_BUCKETS;

    /// Create an empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; MAJOR_BUCKETS * SUB_BUCKETS],
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket_index(value: u64) -> usize {
        if value < SUB_BUCKETS as u64 {
            return value as usize;
        }
        let major = 63 - value.leading_zeros() as usize; // floor(log2(value))
                                                         // Values in major bucket m span [2^m, 2^(m+1)); divide that span into
                                                         // SUB_BUCKETS linear slices.
        let shift = major.saturating_sub(SUB_BUCKETS.trailing_zeros() as usize);
        let sub = (value >> shift) as usize - SUB_BUCKETS;
        let base = (major - SUB_BUCKETS.trailing_zeros() as usize + 1) * SUB_BUCKETS;
        (base + sub).min(MAJOR_BUCKETS * SUB_BUCKETS - 1)
    }

    /// Representative (lower bound) value of a bucket.
    fn bucket_value(index: usize) -> u64 {
        let log2_sub = SUB_BUCKETS.trailing_zeros() as usize;
        if index < 2 * SUB_BUCKETS {
            return index as u64;
        }
        let major = index / SUB_BUCKETS - 1 + log2_sub;
        let sub = index % SUB_BUCKETS;
        ((SUB_BUCKETS + sub) as u64) << (major - log2_sub)
    }

    /// Record a value.
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket_index(value)] += 1;
        self.total += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Smallest recorded value, or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        (self.total > 0).then_some(self.min)
    }

    /// Largest recorded value, or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        (self.total > 0).then_some(self.max)
    }

    /// Arithmetic mean of recorded values, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        (self.total > 0).then(|| self.sum as f64 / self.total as f64)
    }

    /// Approximate value at quantile `q` in `[0, 1]`, or `None` if empty.
    /// The result is exact for values below `2 * SUB_BUCKETS` and within one
    /// sub-bucket (≈3% relative error) above.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        if rank >= self.total {
            return Some(self.max);
        }
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Self::bucket_value(i).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// A compact one-line summary: count, mean and key percentiles (values
    /// interpreted as microseconds).
    pub fn summary(&self) -> String {
        match self.mean() {
            None => "n=0".to_string(),
            Some(mean) => format!(
                "n={} mean={:.2}ms p50={:.2}ms p90={:.2}ms p99={:.2}ms max={:.2}ms",
                self.total,
                mean / 1_000.0,
                self.quantile(0.50).expect("histogram is non-empty") as f64 / 1_000.0,
                self.quantile(0.90).expect("histogram is non-empty") as f64 / 1_000.0,
                self.quantile(0.99).expect("histogram is non-empty") as f64 / 1_000.0,
                self.max as f64 / 1_000.0,
            ),
        }
    }
}

/// A monotonically increasing counter.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counter(u64);

impl Counter {
    /// Increment by one.
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Increment by `n`.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0
    }
}

/// A registry of named metrics. Names use `.`-separated paths by convention,
/// e.g. `"commit.latency.us_east"`. `BTreeMap` keeps iteration order (and
/// therefore printed reports) deterministic.
#[derive(Debug, Default)]
pub struct Metrics {
    histograms: BTreeMap<String, Histogram>,
    counters: BTreeMap<String, Counter>,
}

impl Metrics {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the histogram with the given name.
    pub fn histogram(&mut self, name: &str) -> &mut Histogram {
        get_or_create(&mut self.histograms, name)
    }

    /// Get or create the counter with the given name.
    pub fn counter(&mut self, name: &str) -> &mut Counter {
        get_or_create(&mut self.counters, name)
    }

    /// Look up an existing histogram.
    pub fn get_histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Look up an existing counter's value (0 if absent).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters.get(name).map_or(0, |c| c.get())
    }

    /// Iterate histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Iterate counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), v.get()))
    }
}

/// The entry for `name`, created on first use. Metrics are touched on every
/// message and every commit, nearly always under a name that exists, so the
/// lookup borrows `name` and only the first touch allocates its `String`.
fn get_or_create<'a, V: Default>(map: &'a mut BTreeMap<String, V>, name: &str) -> &'a mut V {
    if !map.contains_key(name) {
        map.insert(name.to_string(), V::default());
    }
    // Present: found or inserted just above.
    // check:allow(panic)
    map.get_mut(name).expect("present or just inserted")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..64 {
            h.record(v);
        }
        assert_eq!(h.count(), 64);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(63));
        // The 32nd smallest of {0..63} is 31.
        assert_eq!(h.quantile(0.5), Some(31));
    }

    #[test]
    fn quantiles_bounded_relative_error() {
        let mut h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for &(q, expect) in &[(0.5, 50_000.0), (0.9, 90_000.0), (0.99, 99_000.0)] {
            let got = h.quantile(q).unwrap() as f64;
            let rel = (got - expect).abs() / expect;
            assert!(rel < 0.05, "q={q} got={got} expect={expect} rel={rel}");
        }
    }

    #[test]
    fn empty_histogram_yields_none() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.summary(), "n=0");
    }

    #[test]
    fn mean_is_exact() {
        let mut h = Histogram::new();
        h.record(10);
        h.record(20);
        h.record(60);
        assert_eq!(h.mean(), Some(30.0));
    }

    #[test]
    fn merge_combines() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(5);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), Some(5));
        assert_eq!(a.max(), Some(1_000_000));
    }

    #[test]
    fn quantile_extremes_clamp_to_min_max() {
        let mut h = Histogram::new();
        h.record(123_456);
        h.record(789_012);
        assert_eq!(h.quantile(0.0), Some(123_456));
        assert_eq!(h.quantile(1.0), Some(789_012));
    }

    #[test]
    fn bucket_round_trip_is_close() {
        for v in [0u64, 1, 31, 32, 63, 64, 1_000, 123_456, 10_000_000, 1 << 35] {
            let idx = Histogram::bucket_index(v);
            let rep = Histogram::bucket_value(idx);
            assert!(rep <= v, "rep {rep} > v {v}");
            if v >= 64 {
                assert!((v - rep) as f64 / v as f64 <= 1.0 / 16.0, "v={v} rep={rep}");
            }
        }
    }

    #[test]
    fn counters_add_up() {
        let mut m = Metrics::new();
        m.counter("commits").inc();
        m.counter("commits").add(4);
        assert_eq!(m.counter_value("commits"), 5);
        assert_eq!(m.counter_value("absent"), 0);
    }
}
