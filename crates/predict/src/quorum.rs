//! Quorum mathematics: the probability that enough replicas respond.
//!
//! Replica responses are independent events with heterogeneous success
//! probabilities (each path has its own latency distribution and each
//! replica its own acceptance probability), so "at least *k* of the
//! outstanding *n* succeed" is a Poisson-binomial tail, computed exactly by
//! dynamic programming in `O(n·k)`.

/// `P(at least k successes)` among independent trials with the given
/// probabilities. Exact Poisson-binomial tail via DP.
///
/// Edge cases: `k == 0` → 1; `k > probs.len()` → 0.
pub fn prob_at_least(probs: &[f64], k: usize) -> f64 {
    prob_at_least_in(probs, k, &mut Vec::new())
}

/// [`prob_at_least`] with the DP table in `dp`, the caller's to reuse: a
/// model that asks per key per progress point allocates for it once.
pub fn prob_at_least_in(probs: &[f64], k: usize, dp: &mut Vec<f64>) -> f64 {
    if k == 0 {
        return 1.0;
    }
    let n = probs.len();
    if k > n {
        return 0.0;
    }
    // dp[j] = P(exactly j successes among trials seen so far), capped at k
    // (everything ≥ k is lumped into dp[k]).
    dp.clear();
    dp.push(1.0);
    dp.resize(k + 1, 0.0);
    for &p in probs {
        let p = p.clamp(0.0, 1.0);
        // Each bucket's new value reads its own and the one below's old
        // values, so one upward pass carries the old value of the bucket
        // below.
        let mut below = None;
        for (j, cell) in dp.iter_mut().enumerate() {
            let old = *cell;
            let advance = below.map_or(0.0, |lower: f64| lower * p);
            *cell = if j == k {
                // Absorbing bucket: once at ≥k successes, stay there.
                old + advance
            } else {
                old * (1.0 - p) + advance
            };
            below = Some(old);
        }
    }
    dp.last().copied().unwrap_or(0.0)
}

/// `P(exactly j successes)` for each `j` in `0..=n` (full Poisson-binomial
/// probability mass function).
pub fn pmf(probs: &[f64]) -> Vec<f64> {
    let n = probs.len();
    let mut dp = vec![0.0f64; n + 1];
    dp[0] = 1.0;
    for (i, &p) in probs.iter().enumerate() {
        let p = p.clamp(0.0, 1.0);
        for j in (0..=i + 1).rev() {
            let advance = if j > 0 { dp[j - 1] * p } else { 0.0 };
            dp[j] = dp[j] * (1.0 - p) + advance;
        }
    }
    dp
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn degenerate_cases() {
        assert!(close(prob_at_least(&[], 0), 1.0));
        assert!(close(prob_at_least(&[], 1), 0.0));
        assert!(close(prob_at_least(&[0.3], 0), 1.0));
        assert!(close(prob_at_least(&[0.3], 2), 0.0));
    }

    #[test]
    fn certain_trials() {
        assert!(close(prob_at_least(&[1.0, 1.0, 1.0], 3), 1.0));
        assert!(close(prob_at_least(&[0.0, 0.0], 1), 0.0));
        assert!(close(prob_at_least(&[1.0, 0.0, 1.0], 2), 1.0));
        assert!(close(prob_at_least(&[1.0, 0.0, 1.0], 3), 0.0));
    }

    #[test]
    fn matches_binomial_for_equal_probs() {
        // n=5, p=0.5: P(≥3) = (10 + 5 + 1)/32 = 0.5
        let p = prob_at_least(&[0.5; 5], 3);
        assert!(close(p, 0.5), "got {p}");
        // n=4, p=0.5: P(≥2) = (6+4+1)/16 = 11/16
        assert!(close(prob_at_least(&[0.5; 4], 2), 11.0 / 16.0));
    }

    #[test]
    fn heterogeneous_hand_computed() {
        // p = [0.9, 0.5]: P(≥1) = 1 - 0.1·0.5 = 0.95; P(≥2) = 0.45.
        assert!(close(prob_at_least(&[0.9, 0.5], 1), 0.95));
        assert!(close(prob_at_least(&[0.9, 0.5], 2), 0.45));
    }

    #[test]
    fn pmf_sums_to_one_and_matches_tail() {
        let probs = [0.2, 0.7, 0.4, 0.9, 0.05];
        let pmf = pmf(&probs);
        assert!(close(pmf.iter().sum::<f64>(), 1.0));
        for k in 0..=probs.len() {
            let tail: f64 = pmf[k..].iter().sum();
            assert!(
                (tail - prob_at_least(&probs, k)).abs() < 1e-9,
                "k={k}: {tail} vs {}",
                prob_at_least(&probs, k)
            );
        }
    }

    #[test]
    fn monotone_in_k() {
        let probs = [0.3, 0.6, 0.8, 0.2];
        let mut prev = 1.0;
        for k in 0..=4 {
            let p = prob_at_least(&probs, k);
            assert!(p <= prev + 1e-12);
            prev = p;
        }
    }

    #[test]
    fn out_of_range_probs_are_clamped() {
        assert!(close(prob_at_least(&[1.5, -0.2], 1), 1.0));
    }
}
