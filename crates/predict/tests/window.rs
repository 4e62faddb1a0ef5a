//! The latency window kept sorted as it slides.
//!
//! `LatencyEcdf` places each sample by binary search and removes the evicted
//! one the same way, so a query never sorts. These tests hold it to a
//! reference that copies the window and sorts it from scratch on every
//! query (the answers must be equal bit for bit), and pin the cost of one
//! vote as the client pays it: observe, then query. That cost may grow with
//! the window only as a binary search and a bounded memmove do, not as a
//! sort.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration, Instant};

use planet_predict::likelihood::{KeyState, LikelihoodModel};
use planet_predict::LatencyEcdf;
use planet_sim::DetRng;

/// The window as arrival order only; every query sorts a fresh copy.
struct Reference {
    window: VecDeque<u64>,
    capacity: usize,
}

impl Reference {
    fn record(&mut self, sample: u64) {
        if self.window.len() == self.capacity {
            self.window.pop_front();
        }
        self.window.push_back(sample);
    }

    fn sorted(&self) -> Vec<u64> {
        let mut sorted: Vec<u64> = self.window.iter().copied().collect();
        sorted.sort_unstable();
        sorted
    }

    fn cdf(&self, x: u64) -> Option<f64> {
        let sorted = self.sorted();
        if sorted.is_empty() {
            return None;
        }
        let below = sorted.iter().filter(|&&s| s <= x).count();
        Some(below as f64 / sorted.len() as f64)
    }

    fn quantile(&self, q: f64) -> Option<f64> {
        let sorted = self.sorted();
        if sorted.is_empty() {
            return None;
        }
        let idx = ((q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64).round()) as usize;
        Some(sorted[idx] as f64)
    }

    fn conditional_within(&self, elapsed: u64, budget: u64) -> Option<f64> {
        let sorted = self.sorted();
        if sorted.is_empty() {
            return None;
        }
        let n = sorted.len() as f64;
        let past = sorted.iter().filter(|&&s| s <= elapsed).count() as f64;
        let deadline = elapsed.saturating_add(budget);
        let by_deadline = sorted.iter().filter(|&&s| s <= deadline).count() as f64;
        let survivors = n - past;
        if survivors <= 0.0 {
            return Some(0.05);
        }
        Some((by_deadline - past) / survivors)
    }

    fn mean(&self) -> Option<f64> {
        if self.window.is_empty() {
            return None;
        }
        Some(self.window.iter().sum::<u64>() as f64 / self.window.len() as f64)
    }
}

fn bits(answer: Option<f64>) -> Option<u64> {
    answer.map(f64::to_bits)
}

/// A sample drawn mostly from a handful of values, so that the window holds
/// many copies of each and an eviction removes one of several equals.
fn sample(rng: &mut DetRng) -> u64 {
    if rng.bernoulli(0.8) {
        rng.range_u64(0, 6) * 10_000
    } else {
        rng.range_u64(0, 100_000)
    }
}

/// A query argument near the samples: on a value, one either side of it, or
/// anywhere, including the extremes.
fn probe(rng: &mut DetRng) -> u64 {
    match rng.index(5) {
        0 => rng.range_u64(0, 6) * 10_000,
        1 => (rng.range_u64(0, 6) * 10_000).saturating_sub(1),
        2 => rng.range_u64(0, 6) * 10_000 + 1,
        3 => rng.range_u64(0, 120_000),
        _ => [0, u64::MAX][rng.index(2)],
    }
}

#[test]
fn the_sorted_window_answers_as_a_fresh_sort_does() {
    for capacity in [1usize, 2, 7, 64, 512] {
        for seed in 0..24u64 {
            let mut rng = DetRng::new(0xECDF_0000 + seed * 1_000 + capacity as u64);
            let mut ecdf = LatencyEcdf::new(capacity);
            let mut reference = Reference {
                window: VecDeque::new(),
                capacity,
            };
            let ops = 4 * capacity + 64;
            for op in 0..ops {
                let case = format!("capacity {capacity} seed {seed} op {op}");
                match rng.index(6) {
                    0 | 1 => {
                        let s = sample(&mut rng);
                        ecdf.record(s);
                        reference.record(s);
                        assert_eq!(ecdf.len(), reference.window.len(), "{case}");
                    }
                    2 => {
                        let x = probe(&mut rng);
                        assert_eq!(bits(ecdf.cdf(x)), bits(reference.cdf(x)), "{case}");
                    }
                    3 => {
                        let q = rng.unit_f64() * 1.2 - 0.1;
                        assert_eq!(
                            bits(ecdf.quantile(q)),
                            bits(reference.quantile(q)),
                            "{case} q {q}"
                        );
                    }
                    4 => {
                        let (elapsed, budget) = (probe(&mut rng), probe(&mut rng));
                        assert_eq!(
                            bits(ecdf.conditional_within(elapsed, budget)),
                            bits(reference.conditional_within(elapsed, budget)),
                            "{case} elapsed {elapsed} budget {budget}"
                        );
                    }
                    _ => assert_eq!(bits(ecdf.mean()), bits(reference.mean()), "{case}"),
                }
            }
        }
    }
}

/// One vote as `ClientActor` handles it: learn from it, then predict.
type Vote = (u8, u64, bool, usize, u64);

fn votes(seed: u64, n: usize) -> Vec<Vote> {
    let mut rng = DetRng::new(seed);
    (0..n)
        .map(|_| {
            let site = rng.range_u64(0, 5) as u8;
            let rtt = 60_000 + rng.range_u64(0, 150_000);
            (
                site,
                rtt,
                rng.bernoulli(0.85),
                rng.index(4),
                rng.range_u64(0, 64),
            )
        })
        .collect()
}

/// Wall time of observing then querying once per vote in `measured`, on a
/// model of `window` whose paths `warm` has already filled.
fn observe_then_query(window: usize, warm: &[Vote], measured: &[Vote]) -> Duration {
    let mut model = LikelihoodModel::new(5, window);
    for &(site, rtt, accepted, pending, hash) in warm {
        model.observe_vote(site, rtt, accepted, pending, hash);
    }
    let mut key = KeyState {
        accepts: 1,
        rejects: 0,
        outstanding: (1..5).collect(),
        pending_at_read: 1,
        key_hash: 0,
        quorum: 4,
        voters: 5,
    };
    let began = Instant::now();
    for &(site, rtt, accepted, pending, hash) in measured {
        model.observe_vote(site, rtt, accepted, pending, hash);
        key.key_hash = hash;
        let p = model.likelihood_of_keys([&key], black_box(rtt), 300_000);
        black_box(p);
    }
    began.elapsed()
}

#[test]
fn a_vote_costs_a_search_not_a_sort() {
    // Every path full at both sizes (5 sites × 512 < 3 000), so every
    // measured vote evicts one sample.
    let warm = votes(17, 3_000);
    let measured = votes(18, 2_000);
    let (mut small, mut large) = (Duration::MAX, Duration::MAX);
    // Alternate the two and keep each one's best, so a burst of load on the
    // host lands on neither side alone.
    for _ in 0..5 {
        small = small.min(observe_then_query(8, &warm, &measured));
        large = large.min(observe_then_query(512, &warm, &measured));
    }
    assert!(
        large <= small * 4,
        "window 512 took {large:?} against {small:?} at window 8"
    );
}
