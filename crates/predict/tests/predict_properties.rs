//! Property-based tests for the prediction machinery, driven by seeded
//! [`DetRng`] case generation (the repo builds fully offline, so no external
//! property-testing framework). Every failing case prints the case number,
//! which reproduces the inputs deterministically.

use planet_sim::DetRng;

use planet_predict::likelihood::{KeyState, LikelihoodModel, TxnSnapshot};
use planet_predict::quorum::{pmf, prob_at_least};
use planet_predict::{Calibration, LatencyEcdf};

const CASES: u64 = 256;

fn random_probs(rng: &mut DetRng) -> Vec<f64> {
    let n = rng.index(10);
    (0..n).map(|_| rng.unit_f64()).collect()
}

/// The Poisson-binomial tail is a probability and is monotone in k.
#[test]
fn tail_is_probability_and_monotone() {
    for case in 0..CASES {
        let mut rng = DetRng::new(0x9D1C_0000 + case);
        let probs = random_probs(&mut rng);
        let mut prev = 1.0f64;
        for k in 0..=probs.len() + 2 {
            let p = prob_at_least(&probs, k);
            assert!(
                (-1e-12..=1.0 + 1e-12).contains(&p),
                "case {case} k={k} p={p}"
            );
            assert!(p <= prev + 1e-9, "case {case}: tail must not rise with k");
            prev = p;
        }
    }
}

/// Raising any single success probability never lowers the tail.
#[test]
fn tail_monotone_in_each_prob() {
    for case in 0..CASES {
        let mut rng = DetRng::new(0x9D1C_1000 + case);
        let n = rng.index(7) + 1; // 1..8
        let mut probs: Vec<f64> = (0..n).map(|_| rng.unit_f64()).collect();
        let idx = rng.index(probs.len());
        let bump = rng.unit_f64();
        let k = rng.index(8);
        let before = prob_at_least(&probs, k);
        probs[idx] = (probs[idx] + bump).min(1.0);
        let after = prob_at_least(&probs, k);
        assert!(after + 1e-9 >= before, "case {case}: {after} < {before}");
    }
}

/// The PMF sums to one and agrees with the tail.
#[test]
fn pmf_consistent() {
    for case in 0..CASES {
        let mut rng = DetRng::new(0x9D1C_2000 + case);
        let probs = random_probs(&mut rng);
        let masses = pmf(&probs);
        let total: f64 = masses.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "case {case}");
        for k in 0..=probs.len() {
            let tail: f64 = masses[k..].iter().sum();
            assert!(
                (tail - prob_at_least(&probs, k)).abs() < 1e-9,
                "case {case} k={k}"
            );
        }
    }
}

/// ECDF CDF is monotone in x and bounded in [0,1].
#[test]
fn ecdf_cdf_monotone() {
    for case in 0..CASES {
        let mut rng = DetRng::new(0x9D1C_3000 + case);
        let n = rng.index(199) + 1; // 1..200
        let mut e = LatencyEcdf::new(256);
        for _ in 0..n {
            e.record(rng.range_u64(0, 1_000_000));
        }
        let mut prev = 0.0;
        for x in [0u64, 10, 1_000, 50_000, 500_000, 2_000_000] {
            let c = e.cdf(x).unwrap();
            assert!((0.0..=1.0).contains(&c), "case {case} x={x} c={c}");
            assert!(c + 1e-12 >= prev, "case {case}: CDF must be monotone");
            prev = c;
        }
    }
}

/// Likelihood is always a probability and never decreases with budget.
#[test]
fn likelihood_bounded_and_monotone_in_budget() {
    for case in 0..CASES {
        let mut rng = DetRng::new(0x9D1C_4000 + case);
        let accepts = rng.index(4);
        let rejects = rng.index(2);
        let pending = rng.index(6);
        let elapsed = rng.range_u64(0, 300_000);
        let n_votes = rng.index(100);

        let mut m = LikelihoodModel::new(5, 128);
        for _ in 0..n_votes {
            let site = rng.range_u64(0, 5) as u8;
            let rtt = rng.range_u64(50_000, 250_000);
            let ok = rng.bernoulli(0.5);
            m.observe_vote(site, rtt, ok, pending, 7);
        }
        let voted = accepts + rejects;
        let outstanding = (voted as u8..5).collect();
        let snap = TxnSnapshot {
            keys: vec![KeyState {
                accepts,
                rejects,
                outstanding,
                pending_at_read: pending,
                key_hash: 7,
                quorum: 4,
                voters: 5,
            }],
            elapsed_us: elapsed,
        };
        let mut prev = 0.0f64;
        for budget in [0u64, 10_000, 100_000, 400_000, 2_000_000] {
            let p = m.likelihood(&snap, budget);
            assert!((-1e-12..=1.0 + 1e-12).contains(&p), "case {case} p={p}");
            assert!(
                p + 1e-9 >= prev,
                "case {case}: budget monotonicity: {p} < {prev}"
            );
            prev = p;
        }
    }
}

/// Calibration bookkeeping: Brier in [0,1], ECE in [0,1], bin counts add
/// up, and the skill of a perfect predictor is 1.
#[test]
fn calibration_invariants() {
    for case in 0..CASES {
        let mut rng = DetRng::new(0x9D1C_5000 + case);
        let n = rng.index(499) + 1; // 1..500
        let pairs: Vec<(f64, bool)> = (0..n)
            .map(|_| (rng.unit_f64(), rng.bernoulli(0.5)))
            .collect();
        let mut c = Calibration::new(10);
        for &(p, y) in &pairs {
            c.record(p, y);
        }
        assert_eq!(c.count(), pairs.len() as u64, "case {case}");
        let brier = c.brier().unwrap();
        assert!((0.0..=1.0).contains(&brier), "case {case} brier={brier}");
        let ece = c.ece().unwrap();
        assert!(
            (-1e-12..=1.0 + 1e-12).contains(&ece),
            "case {case} ece={ece}"
        );
        let total: u64 = c.reliability().iter().map(|b| b.count).sum();
        assert_eq!(total, pairs.len() as u64, "case {case}");
    }
}
