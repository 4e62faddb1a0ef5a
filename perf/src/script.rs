//! Generated inputs. Everything a live workload submits is drawn here, from
//! `--seed`, before the run starts: the program under test receives only
//! these operations, and the same seed gives the same operations.

use planet_sim::DetRng;
use planet_workload::Zipf;

/// Events on sale in the ticket workloads.
pub const TICKET_EVENTS: u64 = 10_000;
/// Popularity skew of the events.
pub const TICKET_THETA: f64 = 0.9;
/// Preloaded stock per event: no purchase ever meets the floor.
pub const TICKET_STOCK: i64 = 1_000_000_000;
/// Every `LOOKUP_EVERY`-th operation of a site's stream is a read-only
/// stock look-up.
pub const LOOKUP_EVERY: usize = 5;

/// Keys of the key-value workload.
pub const KV_KEYS: u64 = 100_000;
/// Skew of the key-value workload.
pub const KV_THETA: f64 = 0.8;
/// Keys (the hottest ranks) written once through the protocol at set-up.
pub const KV_PRELOADED: u64 = 10_000;

/// One operation of a live workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Compiled ticket purchase of one ticket for this event.
    Purchase(u32),
    /// Compiled read-only look-up of this event's stock.
    Lookup(u32),
    /// Interpreted read-only transaction over two keys.
    KvRead(u32, u32),
    /// Interpreted read of two keys and `Add(1)` to both.
    KvRmw(u32, u32),
}

impl Op {
    /// True for operations without a write.
    pub fn is_read_only(self) -> bool {
        matches!(self, Op::Lookup(_) | Op::KvRead(..))
    }
}

/// The operation stream of one client-facing site.
#[derive(Debug, Clone, Default)]
pub struct Script {
    /// Operations in issue order.
    pub ops: Vec<Op>,
    /// Open loop only: when each operation is due, in µs after the phase
    /// starts. Empty for a closed loop.
    pub due_us: Vec<u64>,
}

/// A per-site, per-purpose random stream derived from the run seed.
fn stream(seed: u64, site: usize, purpose: u64) -> DetRng {
    DetRng::new(seed ^ (site as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ purpose << 32)
}

/// `len` ticket operations for `site`: Zipf-popular events, every fifth a
/// look-up.
pub fn ticket_script(seed: u64, site: usize, len: usize) -> Script {
    let zipf = Zipf::new(TICKET_EVENTS, TICKET_THETA);
    let mut rng = stream(seed, site, 1);
    let ops = (0..len)
        .map(|i| {
            let event = zipf.sample(&mut rng) as u32;
            if i % LOOKUP_EVERY == LOOKUP_EVERY - 1 {
                Op::Lookup(event)
            } else {
                Op::Purchase(event)
            }
        })
        .collect();
    Script {
        ops,
        due_us: Vec::new(),
    }
}

/// `len` key-value operations for `site`, half reads and half
/// read-modify-writes over two distinct Zipf-chosen keys, due as a Poisson
/// process of `rate` operations per second.
pub fn kv_script(seed: u64, site: usize, len: usize, rate: f64) -> Script {
    let zipf = Zipf::new(KV_KEYS, KV_THETA);
    let mut rng = stream(seed, site, 2);
    let mut at_s = 0.0f64;
    let mut ops = Vec::with_capacity(len);
    let mut due_us = Vec::with_capacity(len);
    for _ in 0..len {
        let a = zipf.sample(&mut rng) as u32;
        let mut b = zipf.sample(&mut rng) as u32;
        while b == a {
            b = zipf.sample(&mut rng) as u32;
        }
        ops.push(if rng.bernoulli(0.5) {
            Op::KvRead(a, b)
        } else {
            Op::KvRmw(a, b)
        });
        at_s += rng.exponential(rate);
        due_us.push((at_s * 1e6) as u64);
    }
    Script { ops, due_us }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_sites_differ() {
        let a = ticket_script(7, 0, 1000);
        let b = ticket_script(7, 0, 1000);
        assert_eq!(a.ops, b.ops);
        assert_ne!(a.ops, ticket_script(7, 1, 1000).ops);
        assert_ne!(a.ops, ticket_script(8, 0, 1000).ops);
        let k = kv_script(7, 0, 1000, 3000.0);
        assert_eq!(k.ops, kv_script(7, 0, 1000, 3000.0).ops);
        assert_eq!(k.due_us, kv_script(7, 0, 1000, 3000.0).due_us);
    }

    #[test]
    fn ticket_mix_is_one_lookup_in_five() {
        let s = ticket_script(1, 0, 1000);
        let lookups = s.ops.iter().filter(|op| op.is_read_only()).count();
        assert_eq!(lookups, 200);
        assert!(matches!(s.ops[4], Op::Lookup(_)));
        assert!(matches!(s.ops[0], Op::Purchase(_)));
    }

    #[test]
    fn kv_schedule_is_increasing_at_the_asked_rate() {
        let s = kv_script(3, 1, 30_000, 3000.0);
        assert!(s.due_us.windows(2).all(|w| w[0] <= w[1]));
        let span_s = *s.due_us.last().unwrap() as f64 / 1e6;
        assert!(
            (span_s - 10.0).abs() < 0.3,
            "30k ops at 3k/s took {span_s}s"
        );
        let reads = s.ops.iter().filter(|op| op.is_read_only()).count();
        assert!((14_000..16_000).contains(&reads), "{reads} reads");
        assert!(s.ops.iter().all(|op| match op {
            Op::KvRead(a, b) | Op::KvRmw(a, b) => a != b,
            _ => false,
        }));
    }
}
