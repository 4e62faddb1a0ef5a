//! Known answers for `FastHash`: the exact hashes it gives, under fixed
//! seeds, of the shapes the per-message maps hold — integers of each width,
//! a `(u8, u64)` transaction id with a `u32` key id, and strings of every
//! length across the 4-, 8- and 16-byte reads (a `Key` hashes as its `str`
//! does). A rewrite
//! that changes one output changes a digest here; a map's behaviour does
//! not depend on these bits, but the spread tests and micro rows measured
//! them, and a change to the function should be one on purpose.

use std::hash::{BuildHasher, Hash, Hasher};

use planet_sim::FastHash;

/// FNV-1a over the bytes of every output, in order.
#[derive(Default)]
struct Digest {
    hash: u64,
    outputs: u64,
}

impl Digest {
    fn push(&mut self, x: u64) {
        if self.outputs == 0 {
            self.hash = 0xcbf2_9ce4_8422_2325;
        }
        for b in x.to_le_bytes() {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.outputs += 1;
    }

    fn text(&self) -> String {
        format!("{:016X}/{}", self.hash, self.outputs)
    }
}

const SEEDS: [u64; 2] = [0, 0x9E37_79B9_7F4A_7C15];

fn digest_of<T: Hash>(values: impl Iterator<Item = T>) -> Vec<String> {
    let values: Vec<T> = values.collect();
    SEEDS
        .iter()
        .map(|&seed| {
            let hash = FastHash::with_seed(seed);
            let mut digest = Digest::default();
            for v in &values {
                digest.push(hash.hash_one(v));
            }
            digest.text()
        })
        .collect()
}

#[test]
fn single_values_of_every_width() {
    let mut got = Vec::new();
    for seed in SEEDS {
        let hash = FastHash::with_seed(seed);
        got.push(format!(
            "{:016X} {:016X} {:016X} {:016X} {:016X}",
            hash.hash_one(0u64),
            hash.hash_one(1u32),
            hash.hash_one(u64::MAX),
            hash.hash_one(7u8),
            hash.hash_one(""),
        ));
    }
    assert_eq!(
        got,
        [
            "0000000000000000 E18485764BA03644 FFFFFFFFFFFFFFFF 53FC41ADAD897A7D 4C2EF5D5CC1C9E36",
            "F89FE53F0556509B 4D8D632C49DED336 F653E4CC50CD4A0A B3BB8DB39B554E68 161AEB50E4F3C3EF",
        ]
    );
}

#[test]
fn dense_ids_match_the_known_answers() {
    assert_eq!(
        digest_of(0u32..4096),
        ["701E0DECBC0DFE78/4096", "1474625955F58D3F/4096"]
    );
    // A narrower integer is widened to one word: the same value, the same
    // hash, whatever its width.
    assert_eq!(
        digest_of(0u64..4096),
        ["701E0DECBC0DFE78/4096", "1474625955F58D3F/4096"]
    );
}

#[test]
fn transaction_and_key_ids_match_the_known_answers() {
    let pairs =
        (0u8..3).flat_map(|site| (0u64..500).map(move |seq| ((site, seq), seq as u32 % 97)));
    assert_eq!(
        digest_of(pairs),
        ["26EAF01BEB180C80/1500", "97F86616056D6A5E/1500"]
    );
}

#[test]
fn strings_around_the_word_boundary_match_the_known_answers() {
    let keys = (0..2000).map(|i| format!("order:{i}"));
    assert_eq!(
        digest_of(keys),
        ["AF9D76B937C82B61/2000", "9CD9C2020C2AE9CF/2000"]
    );
    let lengths = (0..40).map(|n| "k".repeat(n));
    assert_eq!(
        digest_of(lengths),
        ["973F6DF8E2C3E491/40", "26BDE1B816B88685/40"]
    );
}

/// `write` directly, as a `Key` does with its bytes, then its `0xff`.
#[test]
fn raw_bytes_then_terminator_match_the_known_answers() {
    let mut got = Vec::new();
    for seed in SEEDS {
        let mut digest = Digest::default();
        for n in 0..24usize {
            let bytes: Vec<u8> = (0..n as u8).collect();
            let mut h = FastHash::with_seed(seed).build_hasher();
            h.write(&bytes);
            h.write_u8(0xff);
            digest.push(h.finish());
        }
        got.push(digest.text());
    }
    assert_eq!(got, ["389B05910D0BC500/24", "A8B38294ABF3721D/24"]);
}
