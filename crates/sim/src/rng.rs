//! Deterministic randomness for the simulator.
//!
//! All stochastic behaviour in a run — network jitter, message loss, workload
//! arrivals, key choice — draws from a single [`DetRng`] seeded at
//! construction, so a run is a pure function of `(seed, config)`.
//!
//! The generator is a self-contained xoshiro256++ (public-domain algorithm by
//! Blackman & Vigna), seeded through SplitMix64 so that nearby seeds produce
//! decorrelated streams. No external crates are involved: the repository must
//! build in fully offline environments, and determinism across toolchain
//! updates matters more than having the fanciest generator. The handful of
//! distributions the simulator needs (normal, log-normal, exponential) are
//! implemented here directly.

/// A seeded deterministic random number generator with the sampling helpers
/// the simulator and workloads need.
#[derive(Debug, Clone)]
pub struct DetRng {
    state: [u64; 4],
    /// Cached second output of the Box–Muller transform.
    spare_normal: Option<f64>,
}

/// SplitMix64 step: expands a 64-bit seed into well-mixed words.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl DetRng {
    /// Create a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut state = [0u64; 4];
        for word in &mut state {
            *word = splitmix64(&mut sm);
        }
        // All-zero state is the one fixed point of xoshiro; SplitMix64 cannot
        // produce four zero outputs in a row, but guard anyway.
        if state == [0; 4] {
            state = [0x9E3779B97F4A7C15, 1, 2, 3];
        }
        DetRng {
            state,
            spare_normal: None,
        }
    }

    /// Derive an independent child generator. Used to give subsystems their
    /// own streams so adding draws in one subsystem does not perturb another.
    pub fn fork(&mut self) -> DetRng {
        DetRng::new(self.next_u64())
    }

    /// A uniform `u64` (xoshiro256++ step).
    pub fn next_u64(&mut self) -> u64 {
        let DetRng {
            state: [mut s0, mut s1, mut s2, mut s3],
            ..
        } = *self;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        s2 ^= s0;
        s3 ^= s1;
        s1 ^= s2;
        s0 ^= s3;
        s2 ^= t;
        s3 = s3.rotate_left(45);
        self.state = [s0, s1, s2, s3];
        result
    }

    /// A uniform float in the half-open interval `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        // The top 53 bits give a uniform dyadic rational in [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform integer in `[lo, hi)`. Panics if the range is empty.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        let span = hi - lo;
        // Debiased multiply-shift (Lemire). For spans that divide 2^64 the
        // fast path never loops.
        let threshold = span.wrapping_neg() % span;
        loop {
            let x = self.next_u64();
            let hi128 = ((x as u128 * span as u128) >> 64) as u64;
            let lo128 = (x as u128 * span as u128) as u64;
            if lo128 >= threshold {
                return lo + hi128;
            }
        }
    }

    /// A uniform index in `[0, n)`. Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index range must be non-empty");
        self.range_u64(0, n as u64) as usize
    }

    /// A Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    pub fn bernoulli(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit_f64() < p
        }
    }

    /// A standard normal sample via the Box–Muller transform.
    pub fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // Draw u1 in (0, 1] to keep ln(u1) finite.
        let u1 = 1.0 - self.unit_f64();
        let u2 = self.unit_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// A normal sample with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.standard_normal()
    }

    /// A log-normal sample: `exp(N(mu, sigma))`. With `mu = 0` the median is
    /// exactly 1, which makes it a convenient multiplicative jitter factor.
    pub fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// An exponential sample with the given rate `lambda` (mean `1/lambda`).
    pub fn exponential(&mut self, lambda: f64) -> f64 {
        assert!(lambda > 0.0, "exponential rate must be positive");
        let u = 1.0 - self.unit_f64(); // in (0, 1]
        -u.ln() / lambda
    }

    /// Shuffle a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(7);
        let mut b = DetRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    /// Every recorded experiment is a function of this exact stream.
    #[test]
    fn first_outputs_match_the_known_answers() {
        for (seed, words) in [
            (
                0,
                "53175D61490B23DF 61DA6F3DC380D507 5C0FDF91EC9A7BFC 02EEBF8C3BBE5E1A \
                 7ECA04EBAF4A5EEA 0543C37757F08D9A DB7490C75AB5026E D87343E6464BC959",
            ),
            (
                0xDEAD_BEEF,
                "0C520EB8FEA98EDE 2B74A6338B80E0E2 BE238770C3795322 5F235F98A244EA97 \
                 E004F0CC1514D858 436A209963FF9223 8302E81B9685B6D4 A7EEC00B77EC3019",
            ),
        ] {
            let mut rng = DetRng::new(seed);
            let got: Vec<String> = (0..8).map(|_| format!("{:016X}", rng.next_u64())).collect();
            assert_eq!(got.join(" "), words, "seed {seed:#x}");
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn unit_f64_in_range() {
        let mut rng = DetRng::new(3);
        for _ in 0..10_000 {
            let x = rng.unit_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn range_u64_covers_and_stays_inside() {
        let mut rng = DetRng::new(11);
        let mut seen = [false; 7];
        for _ in 0..10_000 {
            let x = rng.range_u64(3, 10);
            assert!((3..10).contains(&x));
            seen[(x - 3) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values in [3,10) must appear");
    }

    #[test]
    fn bernoulli_extremes() {
        let mut rng = DetRng::new(4);
        assert!(!rng.bernoulli(0.0));
        assert!(rng.bernoulli(1.0));
        assert!(!rng.bernoulli(-0.5));
        assert!(rng.bernoulli(1.5));
    }

    #[test]
    fn normal_moments_approximately_correct() {
        let mut rng = DetRng::new(5);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean was {mean}");
        assert!((var - 4.0).abs() < 0.15, "var was {var}");
    }

    #[test]
    fn log_normal_median_is_one_for_zero_mu() {
        let mut rng = DetRng::new(6);
        let n = 100_001;
        let mut samples: Vec<f64> = (0..n).map(|_| rng.log_normal(0.0, 0.5)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[n / 2];
        assert!((median - 1.0).abs() < 0.03, "median was {median}");
        assert!(samples.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn exponential_mean() {
        let mut rng = DetRng::new(8);
        let n = 100_000;
        let mean = (0..n).map(|_| rng.exponential(0.5)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean was {mean}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = DetRng::new(9);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn fork_decorrelates() {
        let mut parent = DetRng::new(10);
        let mut child = parent.fork();
        let a = parent.next_u64();
        let b = child.next_u64();
        assert_ne!(a, b);
    }
}
