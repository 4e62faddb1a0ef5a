//! The conflict term of the likelihood model.
//!
//! Whether an outstanding replica will *accept* an option (as opposed to
//! merely *answer*) depends on contention: how many options were already
//! pending on the record, and how often recent proposals in the same
//! situation were accepted. This estimator maintains, per pending-count
//! bucket, an exponentially weighted acceptance rate learned from observed
//! votes — a small empirical model in the spirit of the paper's
//! "incorporates commit likelihood prediction" using runtime statistics.

/// Exponentially weighted per-contention-bucket acceptance estimator.
#[derive(Debug, Clone)]
pub struct ConflictModel {
    /// EWMA acceptance rate indexed by min(pending, buckets-1).
    rates: Vec<f64>,
    /// Observation counts per bucket (to know when a bucket is warmed up).
    counts: Vec<u64>,
    /// EWMA smoothing factor per observation.
    alpha: f64,
    /// Prior acceptance probability used before a bucket has data.
    prior: f64,
}

impl Default for ConflictModel {
    fn default() -> Self {
        Self::new(8, 0.05, 0.95)
    }
}

impl ConflictModel {
    /// `buckets` contention levels, EWMA factor `alpha`, and an optimistic
    /// `prior` for unwarmed buckets (most transactions commit when idle).
    pub fn new(buckets: usize, alpha: f64, prior: f64) -> Self {
        assert!(buckets > 0);
        assert!((0.0..=1.0).contains(&alpha));
        ConflictModel {
            rates: vec![prior; buckets],
            counts: vec![0; buckets],
            alpha,
            prior,
        }
    }

    fn bucket(&self, pending: usize) -> usize {
        pending.min(self.rates.len() - 1)
    }

    /// Record an observed vote: `pending` options were on the record when
    /// the option was proposed, and the replica either accepted or rejected.
    pub fn observe(&mut self, pending: usize, accepted: bool) {
        let b = self.bucket(pending);
        let x = if accepted { 1.0 } else { 0.0 };
        if let (Some(rate), Some(count)) = (self.rates.get_mut(b), self.counts.get_mut(b)) {
            ewma_update(rate, count, x, self.alpha);
        }
    }

    /// Estimated probability that a replica accepts an option proposed while
    /// `pending` options sat on the record.
    pub fn accept_prob(&self, pending: usize) -> f64 {
        // The bucket's own rate once it has data; before that, the nearest
        // warmed bucket below, else the prior.
        let b = self.bucket(pending);
        self.counts
            .iter()
            .zip(&self.rates)
            .take(b + 1)
            .rev()
            .find(|(count, _)| **count > 0)
            .map_or(self.prior, |(_, rate)| *rate)
    }

    /// Total observations across buckets.
    pub fn observations(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// Per-key acceptance statistics layered over the global model.
///
/// Contention is heavily skewed in real workloads: a handful of hot records
/// produce most aborts. A purely global model both *under*-estimates cold
/// keys (polluted by hot-key rejections) and *over*-estimates hot keys whose
/// competing options are still in flight (pending count reads 0 during the
/// race). Tracking an EWMA acceptance rate per key fixes both: once a key
/// has enough observations its own history dominates; unknown keys fall back
/// to the global contention-bucketed estimate.
#[derive(Debug, Clone, Default)]
pub struct KeyedConflictModel {
    global: ConflictModel,
    per_key: std::collections::HashMap<u64, KeyStats>,
    /// Transaction-level: EWMA of "did the key reach its quorum?" across all
    /// keys (diagnostics).
    global_txn: KeyStats,
    /// Transaction-level resolution rate of *fresh* keys — keys that had no
    /// prior history when resolved. This, not the all-keys mixture, is the
    /// right prior for a never-seen key: hot keys warm within a few
    /// resolutions and then speak for themselves, so the fresh-key rate
    /// isolates the uncontended population.
    fresh_txn: KeyStats,
}

#[derive(Debug, Clone, Copy)]
struct KeyStats {
    /// Vote-level acceptance EWMA.
    rate: f64,
    /// Vote-level observation count.
    count: u64,
    /// Transaction-level (quorum-resolution) acceptance EWMA. Votes within
    /// one transaction are strongly correlated — the first proposal to
    /// arrive usually wins at *every* replica — so the per-vote rate badly
    /// underestimates quorum success; this statistic measures it directly.
    txn_rate: f64,
    /// Transaction-level observation count.
    txn_count: u64,
}

impl Default for KeyStats {
    fn default() -> Self {
        KeyStats {
            rate: 0.0,
            count: 0,
            txn_rate: 0.95,
            txn_count: 0,
        }
    }
}

/// Fold observation `x` into `rate`. Warm-up: the first `1 / alpha`
/// observations are averaged rather than EWMA-ed from the prior, so early
/// data moves the estimate quickly.
fn ewma_update(rate: &mut f64, count: &mut u64, x: f64, alpha: f64) {
    *count += 1;
    let n = *count as f64;
    if n <= 1.0 / alpha {
        *rate += (x - *rate) / n;
    } else {
        *rate += alpha * (x - *rate);
    }
}

/// Observations before a key's own estimate fully replaces the global one.
const KEY_WARM: u64 = 10;
/// EWMA factor for per-key acceptance.
const KEY_ALPHA: f64 = 0.08;

impl KeyedConflictModel {
    /// A fresh model with default global parameters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stable hash for a key string (FNV-1a), exposed so callers can
    /// pre-hash once.
    pub fn key_hash(key: &str) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in key.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Record an observed vote for a key.
    pub fn observe(&mut self, key_hash: u64, pending: usize, accepted: bool) {
        self.global.observe(pending, accepted);
        let x = if accepted { 1.0 } else { 0.0 };
        let stats = self.per_key.entry(key_hash).or_default();
        ewma_update(&mut stats.rate, &mut stats.count, x, KEY_ALPHA);
    }

    /// Record a transaction-level resolution for a key: did its option reach
    /// the quorum?
    pub fn observe_resolution(&mut self, key_hash: u64, accepted: bool) {
        let x = if accepted { 1.0 } else { 0.0 };
        let stats = self.per_key.entry(key_hash).or_default();
        if stats.txn_count == 0 {
            ewma_update(
                &mut self.fresh_txn.txn_rate,
                &mut self.fresh_txn.txn_count,
                x,
                0.02,
            );
        }
        ewma_update(&mut stats.txn_rate, &mut stats.txn_count, x, KEY_ALPHA);
        ewma_update(
            &mut self.global_txn.txn_rate,
            &mut self.global_txn.txn_count,
            x,
            0.02,
        );
    }

    /// Transaction-level probability that an option on this key reaches its
    /// quorum: the key's own resolution history, blended while warming with
    /// the *fresh-key* resolution rate (see `fresh_txn`).
    pub fn txn_accept_prob(&self, key_hash: u64) -> f64 {
        // The fresh-key rate itself warms against an optimistic prior
        // (idle systems commit): a handful of early contested keys must not
        // poison predictions for every new key in the system.
        let fresh = {
            let w = (self.fresh_txn.txn_count as f64 / 20.0).min(1.0);
            w * self.fresh_txn.txn_rate + (1.0 - w) * 0.95
        };
        match self.per_key.get(&key_hash) {
            None => fresh,
            Some(stats) if stats.txn_count == 0 => fresh,
            Some(stats) => {
                let w = (stats.txn_count as f64 / KEY_WARM as f64).min(1.0);
                w * stats.txn_rate + (1.0 - w) * fresh
            }
        }
    }

    /// Estimated acceptance probability for a key at a contention level:
    /// the key's own history once warmed, blended with the global estimate
    /// while warming.
    pub fn accept_prob(&self, key_hash: u64, pending: usize) -> f64 {
        let global = self.global.accept_prob(pending);
        match self.per_key.get(&key_hash) {
            None => global,
            Some(stats) => {
                let w = (stats.count as f64 / KEY_WARM as f64).min(1.0);
                w * stats.rate + (1.0 - w) * global
            }
        }
    }

    /// Acceptance probability ignoring per-key history (global only).
    pub fn global_accept_prob(&self, pending: usize) -> f64 {
        self.global.accept_prob(pending)
    }

    /// How many votes have been observed for this specific key.
    pub fn key_observations(&self, key_hash: u64) -> u64 {
        self.per_key.get(&key_hash).map_or(0, |s| s.count)
    }

    /// How many transaction-level resolutions have been observed for this
    /// specific key.
    pub fn key_resolutions(&self, key_hash: u64) -> u64 {
        self.per_key.get(&key_hash).map_or(0, |s| s.txn_count)
    }

    /// Total observations.
    pub fn observations(&self) -> u64 {
        self.global.observations()
    }

    /// Number of keys with individual statistics.
    pub fn tracked_keys(&self) -> usize {
        self.per_key.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prior_before_data() {
        let m = ConflictModel::new(4, 0.1, 0.9);
        assert_eq!(m.accept_prob(0), 0.9);
        assert_eq!(m.accept_prob(10), 0.9);
        assert_eq!(m.observations(), 0);
    }

    #[test]
    fn learns_low_acceptance_under_contention() {
        let mut m = ConflictModel::default();
        for _ in 0..200 {
            m.observe(0, true); // idle records accept
            m.observe(5, false); // contended records reject
        }
        assert!(m.accept_prob(0) > 0.9, "idle: {}", m.accept_prob(0));
        assert!(m.accept_prob(5) < 0.1, "contended: {}", m.accept_prob(5));
    }

    #[test]
    fn pending_clamps_to_last_bucket() {
        let mut m = ConflictModel::new(3, 0.5, 0.5);
        for _ in 0..50 {
            m.observe(17, false);
        }
        assert!(m.accept_prob(2) < 0.1);
        assert!(m.accept_prob(99) < 0.1);
    }

    #[test]
    fn unwarmed_bucket_borrows_from_below() {
        let mut m = ConflictModel::new(8, 0.1, 0.95);
        for _ in 0..100 {
            m.observe(1, false);
        }
        // Bucket 3 has no data; nearest warmed bucket below is 1.
        assert!(m.accept_prob(3) < 0.1);
        // Bucket 0 has no data either and nothing below → prior.
        assert_eq!(m.accept_prob(0), 0.95);
    }

    #[test]
    fn keyed_model_separates_hot_from_cold() {
        let mut m = KeyedConflictModel::new();
        let hot = KeyedConflictModel::key_hash("hot");
        let cold = KeyedConflictModel::key_hash("cold");
        for _ in 0..100 {
            m.observe(hot, 0, false); // hot key rejects even at pending=0
            m.observe(cold, 0, true);
        }
        assert!(m.accept_prob(hot, 0) < 0.1, "hot {}", m.accept_prob(hot, 0));
        assert!(
            m.accept_prob(cold, 0) > 0.9,
            "cold {}",
            m.accept_prob(cold, 0)
        );
        // An unseen key gets the (mixed) global estimate, strictly between.
        let unseen = m.accept_prob(KeyedConflictModel::key_hash("new"), 0);
        assert!(unseen > 0.2 && unseen < 0.8, "unseen {unseen}");
        assert_eq!(m.tracked_keys(), 2);
        assert_eq!(m.observations(), 200);
    }

    #[test]
    fn keyed_model_blends_while_warming() {
        let mut m = KeyedConflictModel::new();
        // Warm the global estimate with a healthy key.
        let other = KeyedConflictModel::key_hash("other");
        for _ in 0..50 {
            m.observe(other, 0, true);
        }
        // Two rejects on a fresh key: far from warm, so the healthy global
        // estimate still carries most of the weight.
        let k = KeyedConflictModel::key_hash("k");
        m.observe(k, 0, false);
        m.observe(k, 0, false);
        let p = m.accept_prob(k, 0);
        assert!(p > 0.5 && p < 0.95, "blend expected, got {p}");
        // Twenty more rejects and the key's own history dominates.
        for _ in 0..20 {
            m.observe(k, 0, false);
        }
        assert!(
            m.accept_prob(k, 0) < 0.2,
            "warmed key: {}",
            m.accept_prob(k, 0)
        );
    }

    #[test]
    fn key_hash_is_stable() {
        assert_eq!(
            KeyedConflictModel::key_hash("stock:1"),
            KeyedConflictModel::key_hash("stock:1")
        );
        assert_ne!(
            KeyedConflictModel::key_hash("stock:1"),
            KeyedConflictModel::key_hash("stock:2")
        );
    }

    #[test]
    fn warmup_moves_fast() {
        let mut m = ConflictModel::new(2, 0.05, 0.95);
        for _ in 0..5 {
            m.observe(0, false);
        }
        assert!(
            m.accept_prob(0) < 0.2,
            "5 straight rejects must dent the prior"
        );
    }
}
