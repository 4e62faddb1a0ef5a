//! A fast seeded hasher for the maps a delivered message probes.
//!
//! `std`'s default, SipHash-1-3 keyed per map, costs tens of nanoseconds
//! per probe — more than the probe itself on the small keys these maps
//! hold (a transaction id, an actor id, a key of up to 23 bytes). Every
//! protocol message probes a few of them, so [`FastHash`] replaces it
//! there: each 64-bit word is folded into the state with one full
//! 64 × 64 → 128-bit multiply whose halves are XORed together (a *folded
//! multiply*), a byte string of up to 16 bytes costs one such multiply,
//! and `finish` folds once more.
//!
//! The state starts from a seed. [`FastHash::default`] uses one seed per
//! process, drawn once from `std`'s [`RandomState`], so collisions cannot
//! be precomputed offline; within a process every map shares it.
//! [`FastHash::with_seed`] fixes it, for a test that pins the function.
//! The function is not a keyed PRF: it does not claim SipHash's resistance
//! to an adversary who adapts to observed timings (see DESIGN.md, "Hashing
//! policy").
//!
//! Hash order is nondeterministic across processes, exactly as with
//! `RandomState`: a map built with it is probed, and any walk over one is
//! sorted before it matters.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// Folded into the state with every word (the golden ratio's bits).
const MUL: u64 = 0x9E37_79B9_7F4A_7C15;
/// Folded into the state once by `finish`, and into the seed to make the
/// second key (π's bits).
const FIN: u64 = 0x243F_6A88_85A3_08D3;

/// The full product of `a` and `b`, its high half XORed onto its low half.
#[inline]
fn folded_multiply(a: u64, b: u64) -> u64 {
    let full = u128::from(a) * u128::from(b);
    (full as u64) ^ ((full >> 64) as u64)
}

/// The process's seed: drawn once, on first use.
fn process_seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| RandomState::new().hash_one(MUL))
}

/// Builds [`FastHasher`]s from one seed: spell a map
/// `HashMap<K, V, FastHash>` and build it with `HashMap::default()`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FastHash {
    seed: u64,
    /// Derived from the seed: the other factor of a byte string's last
    /// multiply, so no choice of bytes zeroes it without the seed.
    key: u64,
}

impl FastHash {
    /// Hashers that all start from `seed`: the same input hashes the same
    /// in every process.
    pub const fn with_seed(seed: u64) -> Self {
        let full = (seed as u128) * (FIN as u128);
        FastHash {
            seed,
            key: (full as u64) ^ ((full >> 64) as u64) ^ MUL,
        }
    }
}

impl Default for FastHash {
    /// Hashers seeded with the process's seed.
    fn default() -> Self {
        FastHash::with_seed(process_seed())
    }
}

impl BuildHasher for FastHash {
    type Hasher = FastHasher;

    #[inline]
    fn build_hasher(&self) -> FastHasher {
        FastHasher {
            acc: self.seed,
            key: self.key,
        }
    }
}

/// The hasher [`FastHash`] builds.
#[derive(Clone, Debug)]
pub struct FastHasher {
    acc: u64,
    key: u64,
}

impl Hasher for FastHasher {
    /// Every whole word but those of the last 16 bytes costs a multiply;
    /// the last 1 to 16 bytes are read as two words that may overlap (or,
    /// under 8 bytes, two halves, or up to three single bytes) and cost one
    /// more, with the length folded in, so "ab" and "ab\0" differ.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut rest = bytes;
        while rest.len() > 16 {
            let Some((word, tail)) = rest.split_first_chunk::<8>() else {
                break;
            };
            self.write_u64(u64::from_le_bytes(*word));
            rest = tail;
        }
        let (lo, hi) = match (rest.first_chunk::<8>(), rest.last_chunk::<8>()) {
            (Some(first), Some(last)) => (u64::from_le_bytes(*first), u64::from_le_bytes(*last)),
            _ => match (rest.first_chunk::<4>(), rest.last_chunk::<4>()) {
                (Some(first), Some(last)) => (
                    u64::from(u32::from_le_bytes(*first)),
                    u64::from(u32::from_le_bytes(*last)),
                ),
                _ => {
                    let byte = |i: usize| u64::from(rest.get(i).copied().unwrap_or(0));
                    let n = rest.len();
                    (
                        byte(0) | byte(n / 2) << 8 | byte(n.wrapping_sub(1)) << 16,
                        0,
                    )
                }
            },
        };
        self.acc = folded_multiply(lo ^ self.acc, hi ^ self.key ^ bytes.len() as u64);
    }

    #[inline]
    fn write_u8(&mut self, x: u8) {
        self.write_u64(u64::from(x));
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.acc = folded_multiply(self.acc ^ x, MUL);
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        folded_multiply(self.acc, FIN)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};

    #[test]
    fn one_process_one_seed() {
        assert_eq!(FastHash::default(), FastHash::default());
        let (a, b) = (FastHash::default(), FastHash::default());
        assert_eq!(a.hash_one("order:17"), b.hash_one("order:17"));
    }

    #[test]
    fn the_seed_changes_every_hash() {
        let (a, b) = (FastHash::with_seed(1), FastHash::with_seed(2));
        for x in 0u64..64 {
            assert_ne!(a.hash_one(x), b.hash_one(x), "{x}");
        }
    }

    #[test]
    fn a_tail_is_told_from_its_zero_padding() {
        let h = FastHash::with_seed(7);
        let hash_bytes = |b: &[u8]| {
            let mut s = h.build_hasher();
            s.write(b);
            s.finish()
        };
        assert_ne!(hash_bytes(b"ab"), hash_bytes(b"ab\0"));
        assert_ne!(hash_bytes(b""), hash_bytes(b"\0"));
        assert_ne!(hash_bytes(b"abcdefgh"), hash_bytes(b"abcdefgh\0"));
    }

    /// Dense small ids — what the maps hold — spread over both the low
    /// bits (the bucket) and the top seven (the control byte).
    #[test]
    fn dense_ids_spread_over_buckets_and_control_bytes() {
        let h = FastHash::with_seed(0);
        let n = 1u64 << 12;
        let low: HashSet<u64> = (0..n).map(|x| h.hash_one(x) & (n - 1)).collect();
        assert!(
            low.len() > (n as usize) * 6 / 10,
            "{} buckets of {n}",
            low.len()
        );
        let mut top = [0u32; 128];
        for x in 0..n {
            top[(h.hash_one(x) >> 57) as usize] += 1;
        }
        let expected = (n / 128) as u32;
        assert!(
            top.iter().all(|&c| c > expected / 3 && c < expected * 3),
            "{top:?}"
        );
    }

    /// Order keys — a common prefix, a counter behind it — spread as well.
    #[test]
    fn counted_strings_spread_over_buckets() {
        let h = FastHash::with_seed(3);
        let n = 1usize << 12;
        for width in [0, 12, 30] {
            let low: HashSet<u64> = (0..n)
                .map(|i| h.hash_one(format!("order:{i:0width$}")) & (n as u64 - 1))
                .collect();
            assert!(low.len() > n * 6 / 10, "{} buckets of {n}", low.len());
        }
    }

    #[test]
    fn a_map_keyed_by_it_finds_what_it_holds() {
        let mut map: HashMap<(u64, u32), u32, FastHash> = HashMap::default();
        for i in 0..10_000u32 {
            map.insert((u64::from(i) * 7, i), i);
        }
        assert!((0..10_000u32).all(|i| map.get(&(u64::from(i) * 7, i)) == Some(&i)));
        assert_eq!(map.get(&(1, 1)), None);
    }
}
