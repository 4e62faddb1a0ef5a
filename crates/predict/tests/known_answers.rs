//! Known answers for the commit-likelihood arithmetic: the exact bits
//! (`f64::to_bits`) that `prob_at_least_in`, `ConflictModel` and
//! `KeyedConflictModel` return on seeded inputs. Every prediction the
//! simulator makes, and so every recorded paper figure, is a function of
//! these bits; a rewrite of the loops that reorders one float operation
//! changes a digest here before it changes a figure.

use planet_predict::conflict::KeyedConflictModel;
use planet_predict::quorum::prob_at_least_in;
use planet_predict::ConflictModel;
use planet_sim::DetRng;

/// FNV-1a over the bits of every output, in order.
#[derive(Default)]
struct Digest {
    hash: u64,
    outputs: u64,
}

impl Digest {
    fn push(&mut self, x: f64) {
        if self.outputs == 0 {
            self.hash = 0xcbf2_9ce4_8422_2325;
        }
        for b in x.to_bits().to_le_bytes() {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.outputs += 1;
    }

    fn text(&self) -> String {
        format!("{:016X}/{}", self.hash, self.outputs)
    }
}

const SEEDS: [u64; 2] = [0x9E37, 0xC0FF_EE00];

/// Up to 9 trials, some outside [0, 1] (the DP clamps them), every `k` from
/// 0 to two past the trial count, one reused table.
#[test]
fn prob_at_least_in_matches_the_known_answers() {
    let mut got = Vec::new();
    for seed in SEEDS {
        let mut rng = DetRng::new(seed);
        let mut dp = Vec::new();
        let mut digest = Digest::default();
        for _ in 0..200 {
            let n = rng.index(10);
            let probs: Vec<f64> = (0..n).map(|_| rng.unit_f64() * 1.2 - 0.1).collect();
            for k in 0..=n + 2 {
                digest.push(prob_at_least_in(&probs, k, &mut dp));
            }
        }
        got.push(digest.text());
    }
    assert_eq!(got, ["E3534E63961F30A1/1500", "13D35D3A00F223CB/1518"]);
}

/// Votes at pending counts past the last bucket (clamped) and on buckets
/// that stay cold for a while (borrowed from below); the warm-up average
/// and the EWMA both run. `accept_prob` is read at every pending count
/// after each vote.
#[test]
fn conflict_model_matches_the_known_answers() {
    let mut got = Vec::new();
    for seed in SEEDS {
        let mut rng = DetRng::new(seed);
        let mut model = ConflictModel::new(6, 0.1, 0.9);
        let mut digest = Digest::default();
        for i in 0..400 {
            let pending = rng.index(3 + i / 40);
            let accepted = rng.unit_f64() < 0.9 - 0.1 * pending as f64;
            model.observe(pending, accepted);
            for pending in 0..9 {
                digest.push(model.accept_prob(pending));
            }
        }
        got.push(digest.text());
    }
    assert_eq!(got, ["58A0D2AF391B5B7B/3600", "BBBA67CF3E70DD95/3600"]);
}

/// Per-key votes over a skewed set of keys, some seen once, some hot: the
/// blend of a key's own rate with the global model's while it warms.
#[test]
fn keyed_conflict_model_matches_the_known_answers() {
    let mut got = Vec::new();
    for seed in SEEDS {
        let mut rng = DetRng::new(seed);
        let mut model = KeyedConflictModel::new();
        let keys: Vec<u64> = (0..12)
            .map(|i| KeyedConflictModel::key_hash(&format!("key-{i}")))
            .collect();
        let mut digest = Digest::default();
        for _ in 0..400 {
            let hot = 1 + rng.index(keys.len());
            let key = keys[rng.index(hot)];
            let pending = rng.index(10);
            model.observe(key, pending, rng.unit_f64() < 0.7);
            for &key in &keys {
                digest.push(model.accept_prob(key, rng.index(10)));
            }
        }
        got.push(digest.text());
    }
    assert_eq!(got, ["7F895CFD0B9355FD/4800", "027C862696172520/4800"]);
}
