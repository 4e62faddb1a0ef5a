//! Key selection: how a workload picks which records to touch.

use planet_sim::DetRng;
use planet_storage::Key;

use crate::zipf::Zipf;

/// How keys are drawn from the keyspace.
#[derive(Debug, Clone)]
pub enum KeyDistribution {
    /// Uniform over `[0, n)`.
    Uniform {
        /// Keyspace size.
        n: u64,
    },
    /// Zipfian with skew `theta` over `[0, n)`.
    Zipfian {
        /// Keyspace size.
        n: u64,
        /// Skew (0 = uniform, 0.99 = heavy YCSB skew).
        theta: f64,
    },
    /// With probability `hot_prob`, draw uniformly from the first
    /// `hot_keys`; otherwise uniformly from the rest.
    HotSpot {
        /// Keyspace size.
        n: u64,
        /// Size of the hot set.
        hot_keys: u64,
        /// Probability of hitting the hot set.
        hot_prob: f64,
    },
}

/// A [`KeyDistribution`] ready to draw from: a Zipfian one holds its
/// precomputed sampler.
#[derive(Debug, Clone)]
enum Sampler {
    Uniform {
        n: u64,
    },
    Zipfian(Zipf),
    HotSpot {
        n: u64,
        hot_keys: u64,
        hot_prob: f64,
    },
}

/// A key chooser: a distribution plus a name prefix.
#[derive(Debug, Clone)]
pub struct KeyChooser {
    prefix: String,
    sampler: Sampler,
}

impl KeyChooser {
    /// Build a chooser producing keys `"<prefix>:<index>"`.
    pub fn new(prefix: impl Into<String>, dist: KeyDistribution) -> Self {
        let sampler = match dist {
            KeyDistribution::Uniform { n } => Sampler::Uniform { n },
            KeyDistribution::Zipfian { n, theta } => Sampler::Zipfian(Zipf::new(n, theta)),
            KeyDistribution::HotSpot {
                n,
                hot_keys,
                hot_prob,
            } => Sampler::HotSpot {
                n,
                hot_keys,
                hot_prob,
            },
        };
        KeyChooser {
            prefix: prefix.into(),
            sampler,
        }
    }

    /// Keyspace size.
    pub fn keyspace(&self) -> u64 {
        match &self.sampler {
            Sampler::Uniform { n } | Sampler::HotSpot { n, .. } => *n,
            Sampler::Zipfian(zipf) => zipf.n(),
        }
    }

    /// Draw a key index.
    pub fn sample_index(&self, rng: &mut DetRng) -> u64 {
        match &self.sampler {
            Sampler::Uniform { n } => rng.range_u64(0, *n),
            Sampler::Zipfian(zipf) => zipf.sample(rng),
            Sampler::HotSpot {
                n,
                hot_keys,
                hot_prob,
            } => {
                if rng.bernoulli(*hot_prob) {
                    rng.range_u64(0, (*hot_keys).min(*n))
                } else if *hot_keys >= *n {
                    rng.range_u64(0, *n)
                } else {
                    rng.range_u64(*hot_keys, *n)
                }
            }
        }
    }

    /// Draw a key.
    pub fn sample(&self, rng: &mut DetRng) -> Key {
        self.key_at(self.sample_index(rng))
    }

    /// The key for a specific index (e.g. for preloading).
    pub fn key_at(&self, index: u64) -> Key {
        Key::from_fmt(format_args!("{}:{}", self.prefix, index))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_covers_space() {
        let c = KeyChooser::new("u", KeyDistribution::Uniform { n: 8 });
        let mut rng = DetRng::new(1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            seen.insert(c.sample_index(&mut rng));
        }
        assert_eq!(seen.len(), 8);
        assert_eq!(c.keyspace(), 8);
    }

    #[test]
    fn hotspot_favors_hot_set() {
        let c = KeyChooser::new(
            "h",
            KeyDistribution::HotSpot {
                n: 1000,
                hot_keys: 10,
                hot_prob: 0.9,
            },
        );
        let mut rng = DetRng::new(2);
        let hot = (0..10_000)
            .filter(|_| c.sample_index(&mut rng) < 10)
            .count();
        assert!((8_500..9_500).contains(&hot), "hot draws {hot}");
    }

    #[test]
    fn zipfian_skews() {
        let c = KeyChooser::new("z", KeyDistribution::Zipfian { n: 100, theta: 0.9 });
        let mut rng = DetRng::new(3);
        let top = (0..10_000).filter(|_| c.sample_index(&mut rng) < 5).count();
        assert!(top > 3_000, "top-5 draws {top}");
    }

    #[test]
    fn keys_carry_prefix() {
        let c = KeyChooser::new("stock", KeyDistribution::Uniform { n: 3 });
        assert_eq!(c.key_at(2), Key::new("stock:2"));
        let mut rng = DetRng::new(4);
        assert!(c.sample(&mut rng).as_str().starts_with("stock:"));
    }

    #[test]
    fn degenerate_hotspot_with_full_hot_set() {
        let c = KeyChooser::new(
            "h",
            KeyDistribution::HotSpot {
                n: 5,
                hot_keys: 10,
                hot_prob: 0.1,
            },
        );
        let mut rng = DetRng::new(5);
        for _ in 0..100 {
            assert!(c.sample_index(&mut rng) < 5);
        }
    }
}
