//! The benchmark's estimators: exact percentiles over raw samples, the
//! slice cutter and its median-of-slices, the spread of the slices, and the
//! variance shares of the span tree.
//!
//! Nothing here buckets. `planet_sim::metrics::Histogram` rounds to ~6 %
//! steps, which is the same order as the bounds this benchmark enforces, so
//! every number that reaches a metric is computed from the samples
//! themselves.

/// How many equal slices (by completion count) the measured phase is cut
/// into. A rate or percentile is computed per slice and the median slice is
/// reported, so a disturbance shorter than a slice moves one slice and not
/// the run.
pub const SLICES: usize = 15;

/// The `q`-quantile (0 ≤ q ≤ 1) of `sorted` by the nearest-rank rule:
/// the smallest sample with at least `q` of the set at or below it.
/// `None` for an empty set.
pub fn percentile_sorted<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Sort `samples` in place and return its `q`-quantile.
pub fn percentile<T: Copy + Ord>(samples: &mut [T], q: f64) -> Option<T> {
    samples.sort_unstable();
    percentile_sorted(samples, q)
}

/// Median of a set of floats (mean of the middle pair for even sizes).
/// `None` for an empty set; NaNs sort last.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Interquartile range as a share of the median, with the quartiles of
/// Python's `statistics.quantiles(values, n=4)` (exclusive method), which is
/// what the driver computes over runs; here it is also applied over slices.
/// `None` below two values or for a zero median.
pub fn iqr_ratio(values: &[f64]) -> Option<f64> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quartile = |k: usize| {
        // Position k(n+1)/4 on a 1-based scale, linearly interpolated and
        // clamped to the ends.
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    let med = median(&v)?;
    if med == 0.0 {
        return None;
    }
    Some((quartile(3) - quartile(1)) / med.abs())
}

/// The completion counts at which slices end, for `total` completions cut
/// into `slices` equal parts; the last boundary is `total` itself.
pub fn slice_boundaries(total: u64, slices: usize) -> Vec<u64> {
    (1..=slices as u64)
        .map(|k| total * k / slices as u64)
        .collect()
}

/// Share of the total latency variance each span owns, following the
/// variance-tree idea of *Identifying the Major Sources of Variance in
/// Transaction Latencies*: `Var(Σ xᵢ) = Σᵢ Cov(xᵢ, Σ x)`, so span i's share
/// is `Cov(xᵢ, total) / Var(total)`. Shares sum to one when the spans add
/// up to the total, and a span that varies against the total gets a
/// negative share. Returns zeros when the total does not vary.
pub fn variance_shares(spans: &[&[f64]], total: &[f64]) -> Vec<f64> {
    let n = total.len();
    if n < 2 {
        return vec![0.0; spans.len()];
    }
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    let mt = mean(total);
    let var = total.iter().map(|t| (t - mt) * (t - mt)).sum::<f64>();
    if var == 0.0 {
        return vec![0.0; spans.len()];
    }
    spans
        .iter()
        .map(|xs| {
            let mx = mean(xs);
            let cov = xs
                .iter()
                .zip(total)
                .map(|(x, t)| (x - mx) * (t - mt))
                .sum::<f64>();
            cov / var
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_exact_on_known_sets() {
        let mut v: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 0.50), Some(50));
        assert_eq!(percentile(&mut v, 0.95), Some(95));
        assert_eq!(percentile(&mut v, 0.99), Some(99));
        assert_eq!(percentile(&mut v, 1.0), Some(100));
        assert_eq!(percentile(&mut v, 0.0), Some(1));
        // No bucketing: two samples 6 % apart stay apart.
        let mut w = vec![4096u32, 4352, 4352];
        assert_eq!(percentile(&mut w, 0.33), Some(4096));
        assert_eq!(percentile(&mut w, 0.34), Some(4352));
        let mut one = vec![7u32];
        assert_eq!(percentile(&mut one, 0.95), Some(7));
        let mut none: Vec<u32> = Vec::new();
        assert_eq!(percentile(&mut none, 0.5), None);
    }

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn slice_cut_is_even_and_ends_at_total() {
        let b = slice_boundaries(150, 15);
        assert_eq!(b.len(), 15);
        assert_eq!(b[0], 10);
        assert_eq!(b[14], 150);
        // An uneven total still ends exactly at the total, with slice sizes
        // differing by at most one.
        let b = slice_boundaries(100, 15);
        assert_eq!(*b.last().unwrap(), 100);
        let mut prev = 0;
        for &end in &b {
            let size = end - prev;
            assert!(size == 6 || size == 7, "slice of {size}");
            prev = end;
        }
    }

    #[test]
    fn median_of_slices_ignores_one_disturbed_slice() {
        // Fourteen slices at 1000 ops/s and one that a neighbour's burst
        // cut to 100: the whole-run mean moves by 6 %, the median not at all.
        let mut rates = vec![1000.0; 14];
        rates.push(100.0);
        assert_eq!(median(&rates), Some(1000.0));
        let mean = rates.iter().sum::<f64>() / rates.len() as f64;
        assert!(mean < 950.0);
    }

    #[test]
    fn iqr_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let r = iqr_ratio(&v).unwrap();
        assert!((r - (8.25 - 2.75) / 5.5).abs() < 1e-12, "{r}");
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        let r = iqr_ratio(&[10.0, 20.0, 40.0]).unwrap();
        assert!((r - 1.5).abs() < 1e-12, "{r}");
        assert_eq!(iqr_ratio(&[1.0]), None);
    }

    #[test]
    fn variance_shares_sum_to_one_and_name_the_noisy_span() {
        // total = a + b; a is constant, b carries all the variance.
        let a = [5.0, 5.0, 5.0, 5.0];
        let b = [1.0, 9.0, 2.0, 8.0];
        let total: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        let shares = variance_shares(&[&a, &b], &total);
        assert!(shares[0].abs() < 1e-12);
        assert!((shares[1] - 1.0).abs() < 1e-12);
        // Two independent-looking spans split the variance and sum to one.
        let c = [1.0, 2.0, 3.0, 4.0];
        let d = [4.0, 1.0, 3.0, 2.0];
        let total: Vec<f64> = c.iter().zip(&d).map(|(x, y)| x + y).collect();
        let shares = variance_shares(&[&c, &d], &total);
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }
}
