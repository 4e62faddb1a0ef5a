//! The combined commit-likelihood model — the PLANET paper's core mechanism.
//!
//! At any moment during a transaction's commit phase, the probability that
//! the transaction commits (within some remaining time budget) decomposes
//! per written key:
//!
//! * a key with a quorum of accepts is settled (`p = 1`);
//! * a key with too many rejects can never reach quorum (`p = 0`);
//! * otherwise the missing accepts must come from the outstanding replicas,
//!   each of which succeeds iff its vote **arrives in time** (path latency
//!   ECDF, conditioned on the time already elapsed) **and accepts**
//!   (contention-bucketed acceptance model). The probability that enough of
//!   them succeed is a Poisson-binomial tail.
//!
//! Keys are independent in the model (they live on distinct records), so the
//! transaction's likelihood is the product over keys. The model is learned
//! online — every observed vote updates both the path ECDF and the conflict
//! model — so predictions track latency spikes and contention shifts.
//!
//! A query allocates nothing: the per-replica probabilities and the tail's
//! DP table live in scratch the model owns, and a caller that keeps its
//! keys' states somewhere of its own passes them by reference
//! ([`LikelihoodModel::likelihood_of_keys`]) instead of building a
//! [`TxnSnapshot`].

use crate::conflict::KeyedConflictModel;
use crate::ecdf::LatencyEcdf;
use crate::quorum::prob_at_least_in;
use planet_sim::SiteMask;

/// Arrival probability assumed for a path with no observations yet.
const UNKNOWN_PATH_ARRIVAL: f64 = 0.9;

/// The voting state of one written key, as seen by the coordinator.
#[derive(Debug, Clone)]
pub struct KeyState {
    /// Sites (as indices) that accepted.
    pub accepts: usize,
    /// Sites that rejected.
    pub rejects: usize,
    /// Replica sites that have not voted yet.
    pub outstanding: SiteMask,
    /// Options pending on the record when the transaction read it — the
    /// contention signal.
    pub pending_at_read: usize,
    /// Stable hash of the key (see [`KeyedConflictModel::key_hash`]),
    /// selecting the per-record conflict history.
    pub key_hash: u64,
    /// Accepts required (protocol quorum).
    pub quorum: usize,
    /// Total replicas that will ever vote on this key.
    pub voters: usize,
}

impl KeyState {
    /// True once this key can no longer change outcome.
    pub fn settled(&self) -> Option<bool> {
        if self.accepts >= self.quorum {
            Some(true)
        } else if self.voters - self.rejects < self.quorum {
            Some(false)
        } else {
            None
        }
    }
}

/// A point-in-time view of a transaction's commit progress.
#[derive(Debug, Clone, Default)]
pub struct TxnSnapshot {
    /// One entry per written key.
    pub keys: Vec<KeyState>,
    /// Microseconds since the proposals went out.
    pub elapsed_us: u64,
}

/// The online commit-likelihood model. One instance per coordinator site
/// (path latencies are measured from that coordinator's viewpoint).
#[derive(Debug)]
pub struct LikelihoodModel {
    /// Vote round-trip ECDF per replica site.
    paths: Vec<LatencyEcdf>,
    conflict: KeyedConflictModel,
    /// Scratch of one query: a key's per-replica success probabilities.
    probs: Vec<f64>,
    /// Scratch of one query: the Poisson-binomial tail's DP table.
    dp: Vec<f64>,
}

impl LikelihoodModel {
    /// A model for a cluster of `num_sites` replicas, each path keeping a
    /// sliding window of `window` vote samples.
    pub fn new(num_sites: usize, window: usize) -> Self {
        LikelihoodModel {
            paths: (0..num_sites).map(|_| LatencyEcdf::new(window)).collect(),
            conflict: KeyedConflictModel::new(),
            probs: Vec::new(),
            dp: Vec::new(),
        }
    }

    /// Learn from one observed vote: replica `site` answered after
    /// `elapsed_us`, accepting or rejecting an option that had
    /// `pending_at_read` options already pending.
    pub fn observe_vote(
        &mut self,
        site: u8,
        elapsed_us: u64,
        accepted: bool,
        pending_at_read: usize,
        key_hash: u64,
    ) {
        if let Some(path) = self.paths.get_mut(site as usize) {
            path.record(elapsed_us);
        }
        self.conflict.observe(key_hash, pending_at_read, accepted);
    }

    /// Learn only the path latency from a vote (used for *late* votes whose
    /// transaction already finished — the conflict context is gone but the
    /// response time is exactly the signal the slow paths never otherwise
    /// produce, since quorums decide before the slowest replicas answer).
    pub fn observe_latency(&mut self, site: u8, elapsed_us: u64) {
        if let Some(path) = self.paths.get_mut(site as usize) {
            path.record(elapsed_us);
        }
    }

    /// Votes observed so far (model warm-up indicator).
    pub fn observations(&self) -> u64 {
        self.conflict.observations()
    }

    /// The learned global acceptance probability at a given contention
    /// level (ignoring per-key history).
    pub fn accept_prob(&self, pending: usize) -> f64 {
        self.conflict.global_accept_prob(pending)
    }

    /// Votes observed for a specific key (0 = the model has never seen it).
    pub fn key_observations(&self, key_hash: u64) -> u64 {
        self.conflict.key_observations(key_hash)
    }

    /// Learn a transaction-level key resolution: the key's option reached
    /// its quorum (or definitively failed).
    pub fn observe_key_resolution(&mut self, key_hash: u64, accepted: bool) {
        self.conflict.observe_resolution(key_hash, accepted);
    }

    /// Transaction-level probability that an option on this key reaches its
    /// quorum (the conflict term the pre-vote prediction and admission
    /// control use).
    pub fn txn_accept_prob(&self, key_hash: u64) -> f64 {
        self.conflict.txn_accept_prob(key_hash)
    }

    /// Transaction-level resolutions observed for a key (0 = never seen).
    pub fn key_resolutions(&self, key_hash: u64) -> u64 {
        self.conflict.key_resolutions(key_hash)
    }

    /// Probability one outstanding replica answers within `budget_us` more
    /// microseconds (regardless of verdict).
    fn arrival_prob(&self, site: u8, elapsed_us: u64, budget_us: u64) -> f64 {
        self.paths
            .get(site as usize)
            .and_then(|p| p.conditional_within(elapsed_us, budget_us))
            .unwrap_or(UNKNOWN_PATH_ARRIVAL)
    }

    /// Probability one outstanding replica both answers within `budget_us`
    /// more microseconds and accepts.
    fn success_prob(
        &self,
        site: u8,
        elapsed_us: u64,
        budget_us: u64,
        pending: usize,
        key_hash: u64,
    ) -> f64 {
        self.arrival_prob(site, elapsed_us, budget_us)
            * self.conflict.accept_prob(key_hash, pending)
    }

    /// `P(key reaches quorum within budget_us)` for one key.
    ///
    /// Two regimes:
    ///
    /// * **Pre-vote** (no accepts or rejects yet): replica verdicts on one
    ///   option are strongly *correlated* — the proposal that arrives first
    ///   usually wins at every replica — so acceptance is modelled at the
    ///   transaction level (the key's learned quorum-resolution rate) and
    ///   only the *arrival* timing uses per-replica order statistics.
    /// * **Mid-vote**: the individual votes already seen carry the
    ///   correlation information, so the remaining replicas are modelled
    ///   per-vote (arrival × vote-level acceptance), combined by the
    ///   Poisson-binomial tail.
    fn key_likelihood(&mut self, key: &KeyState, elapsed_us: u64, budget_us: u64) -> f64 {
        if let Some(settled) = key.settled() {
            return if settled { 1.0 } else { 0.0 };
        }
        let needed = key.quorum - key.accepts;
        if key.rejects == 0 {
            // No contrary evidence: the transaction-level estimate applies.
            // Accepts already in hand only *raise* the probability (verdicts
            // on one option are positively correlated), so the estimate is
            // the txn-level acceptance times the arrival-order-statistics
            // term, floored by the per-vote model (which dominates once most
            // of the quorum is in hand).
            let arrivals = self.tail(key, needed, |model, site| {
                model.arrival_prob(site, elapsed_us, budget_us)
            });
            let txn_level = arrivals * self.conflict.txn_accept_prob(key.key_hash);
            if key.accepts == 0 {
                return txn_level;
            }
            let per_vote = self.per_vote_tail(key, elapsed_us, budget_us, needed);
            return txn_level.max(per_vote);
        }
        // Rejects seen: the per-vote model carries the contention evidence.
        self.per_vote_tail(key, elapsed_us, budget_us, needed)
    }

    fn per_vote_tail(
        &mut self,
        key: &KeyState,
        elapsed_us: u64,
        budget_us: u64,
        needed: usize,
    ) -> f64 {
        self.tail(key, needed, |model, site| {
            model.success_prob(
                site,
                elapsed_us,
                budget_us,
                key.pending_at_read,
                key.key_hash,
            )
        })
    }

    /// `P(at least needed of key's outstanding replicas succeed)`, each
    /// succeeding with the probability `success` gives it.
    fn tail(
        &mut self,
        key: &KeyState,
        needed: usize,
        mut success: impl FnMut(&mut Self, u8) -> f64,
    ) -> f64 {
        let mut probs = std::mem::take(&mut self.probs);
        probs.clear();
        probs.extend(key.outstanding.sites().map(|site| success(self, site.0)));
        let tail = prob_at_least_in(&probs, needed, &mut self.dp);
        self.probs = probs;
        tail
    }

    /// The headline number: probability the transaction commits within
    /// `budget_us` more microseconds, given the snapshot.
    pub fn likelihood(&mut self, snap: &TxnSnapshot, budget_us: u64) -> f64 {
        self.likelihood_of_keys(&snap.keys, snap.elapsed_us, budget_us)
    }

    /// [`likelihood`](Self::likelihood) over key states held wherever the
    /// caller keeps them, `elapsed_us` after the proposals went out: no
    /// snapshot is built.
    pub fn likelihood_of_keys<'a>(
        &mut self,
        keys: impl IntoIterator<Item = &'a KeyState>,
        elapsed_us: u64,
        budget_us: u64,
    ) -> f64 {
        keys.into_iter()
            .map(|k| self.key_likelihood(k, elapsed_us, budget_us))
            .product()
    }

    /// The budget that stands for "no deadline": large enough that every
    /// arrival term is at its maximum.
    pub const EVENTUAL_BUDGET_US: u64 = u64::MAX / 4;

    /// Probability the transaction *eventually* commits (no deadline):
    /// time drops out; only acceptance matters.
    pub fn likelihood_eventual(&mut self, snap: &TxnSnapshot) -> f64 {
        self.likelihood(snap, Self::EVENTUAL_BUDGET_US)
    }

    /// The inverse question an application planning its UI asks (paper §3):
    /// *what is the smallest deadline for which this transaction's commit
    /// likelihood is at least `target`?* Binary search over the budget;
    /// returns `None` when even an unbounded deadline cannot reach the
    /// target (e.g. a key with a hopeless conflict history).
    ///
    /// `cap_us` bounds the search (and the answer); 30 s is a reasonable
    /// cap for interactive systems.
    pub fn suggest_budget_us(
        &mut self,
        snap: &TxnSnapshot,
        target: f64,
        cap_us: u64,
    ) -> Option<u64> {
        let target = target.clamp(0.0, 1.0);
        if self.likelihood(snap, cap_us) < target {
            return None;
        }
        let (mut lo, mut hi) = (0u64, cap_us);
        // Likelihood is monotone in the budget (property-tested), so binary
        // search converges; 40 iterations pins a microsecond within 30 s.
        for _ in 0..40 {
            if hi - lo <= 1 {
                break;
            }
            let mid = lo + (hi - lo) / 2;
            if self.likelihood(snap, mid) >= target {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        Some(hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(
        accepts: usize,
        rejects: usize,
        outstanding: impl IntoIterator<Item = u8>,
        quorum: usize,
        voters: usize,
    ) -> KeyState {
        KeyState {
            accepts,
            rejects,
            outstanding: outstanding.into_iter().collect(),
            pending_at_read: 0,
            key_hash: 0,
            quorum,
            voters,
        }
    }

    fn warmed_model() -> LikelihoodModel {
        let mut m = LikelihoodModel::new(5, 256);
        // All paths answer around 100ms; everything accepted.
        for round in 0..100u64 {
            for site in 0..5u8 {
                m.observe_vote(site, 100_000 + round * 100 + site as u64 * 500, true, 0, 1);
            }
        }
        m
    }

    /// The model's arithmetic with every intermediate in a fresh vector:
    /// what the scratch-reusing code must equal bit for bit.
    fn reference_likelihood(m: &mut LikelihoodModel, snap: &TxnSnapshot, budget_us: u64) -> f64 {
        use crate::quorum::prob_at_least;
        let elapsed_us = snap.elapsed_us;
        let per_vote = |m: &mut LikelihoodModel, k: &KeyState| {
            let probs: Vec<f64> = k
                .outstanding
                .sites()
                .map(|s| m.success_prob(s.0, elapsed_us, budget_us, k.pending_at_read, k.key_hash))
                .collect();
            prob_at_least(&probs, k.quorum - k.accepts)
        };
        snap.keys
            .iter()
            .map(|k| {
                if let Some(settled) = k.settled() {
                    return if settled { 1.0 } else { 0.0 };
                }
                if k.rejects > 0 {
                    return per_vote(m, k);
                }
                let arrivals: Vec<f64> = k
                    .outstanding
                    .sites()
                    .map(|s| m.arrival_prob(s.0, elapsed_us, budget_us))
                    .collect();
                let txn_level = prob_at_least(&arrivals, k.quorum - k.accepts)
                    * m.conflict.txn_accept_prob(k.key_hash);
                if k.accepts == 0 {
                    txn_level
                } else {
                    txn_level.max(per_vote(m, k))
                }
            })
            .product()
    }

    #[test]
    fn likelihood_of_keys_equals_likelihood_bit_for_bit() {
        use planet_sim::DetRng;
        for seed in 0..200u64 {
            let mut rng = DetRng::new(seed);
            let mut m = LikelihoodModel::new(5, 128);
            for _ in 0..rng.index(200) {
                let site = rng.range_u64(0, 5) as u8;
                let rtt = rng.range_u64(50_000, 250_000);
                let hash = rng.range_u64(0, 4);
                m.observe_vote(site, rtt, rng.bernoulli(0.7), rng.index(4), hash);
                if rng.bernoulli(0.3) {
                    m.observe_key_resolution(hash, rng.bernoulli(0.7));
                }
            }
            // Keys of every regime and of different widths side by side, so
            // a scratch buffer is reused longer, shorter and not at all.
            let keys: Vec<KeyState> = (0..rng.index(5) + 1)
                .map(|_| {
                    let voted = rng.index(5);
                    let rejects = rng.index(voted.min(2) + 1);
                    KeyState {
                        accepts: voted - rejects,
                        rejects,
                        outstanding: (voted as u8..5).collect(),
                        pending_at_read: rng.index(4),
                        key_hash: rng.range_u64(0, 4),
                        quorum: 3 + rng.index(2),
                        voters: 5,
                    }
                })
                .collect();
            let snap = TxnSnapshot {
                keys,
                elapsed_us: rng.range_u64(0, 300_000),
            };
            for budget in [0, 40_000, 150_000, LikelihoodModel::EVENTUAL_BUDGET_US] {
                let expected = reference_likelihood(&mut m, &snap, budget).to_bits();
                let by_snapshot = m.likelihood(&snap, budget).to_bits();
                // As the client holds them: beside something else, by reference.
                let held: Vec<(u8, &KeyState)> = snap.keys.iter().map(|k| (0, k)).collect();
                let by_keys = m
                    .likelihood_of_keys(held.iter().map(|&(_, k)| k), snap.elapsed_us, budget)
                    .to_bits();
                assert_eq!(by_snapshot, expected, "seed {seed} budget {budget}");
                assert_eq!(by_keys, expected, "seed {seed} budget {budget}");
            }
            let no_deadline = m.likelihood(&snap, LikelihoodModel::EVENTUAL_BUDGET_US);
            assert_eq!(
                m.likelihood_eventual(&snap).to_bits(),
                no_deadline.to_bits()
            );
        }
    }

    #[test]
    fn a_budget_of_u64_max_means_no_deadline() {
        let mut m = warmed_model();
        for _ in 0..50 {
            m.observe_key_resolution(1, true);
        }
        for (accepts, elapsed_us) in [(0, 0), (0, 50_000), (2, 101_000), (3, 400_000)] {
            let snap = TxnSnapshot {
                keys: vec![KeyState {
                    key_hash: 1,
                    ..key(accepts, 0, accepts as u8..5, 4, 5)
                }],
                elapsed_us,
            };
            let eventual = m.likelihood_eventual(&snap);
            assert!(eventual > 0.0, "elapsed {elapsed_us}: {eventual}");
            assert_eq!(
                m.likelihood(&snap, u64::MAX).to_bits(),
                eventual.to_bits(),
                "elapsed {elapsed_us}"
            );
        }
    }

    #[test]
    fn settled_keys_are_certain() {
        let mut m = warmed_model();
        let won = TxnSnapshot {
            keys: vec![key(4, 0, vec![4], 4, 5)],
            elapsed_us: 0,
        };
        assert_eq!(m.likelihood(&won, 1), 1.0);
        let lost = TxnSnapshot {
            keys: vec![key(1, 2, vec![3], 4, 5)],
            elapsed_us: 0,
        };
        assert_eq!(m.likelihood(&lost, u64::MAX / 4), 0.0);
    }

    #[test]
    fn likelihood_rises_with_budget() {
        let mut m = warmed_model();
        let snap = TxnSnapshot {
            keys: vec![key(0, 0, vec![0, 1, 2, 3, 4], 4, 5)],
            elapsed_us: 0,
        };
        // Paths answer ~100ms: a 1ms budget is hopeless, a 1s budget is not.
        let tight = m.likelihood(&snap, 1_000);
        let loose = m.likelihood(&snap, 1_000_000);
        assert!(tight < 0.05, "tight budget gave {tight}");
        assert!(loose > 0.9, "loose budget gave {loose}");
        assert!(tight <= loose);
    }

    #[test]
    fn likelihood_sharpens_as_votes_arrive() {
        let mut m = warmed_model();
        let before = TxnSnapshot {
            keys: vec![key(0, 0, vec![0, 1, 2, 3, 4], 4, 5)],
            elapsed_us: 0,
        };
        let after3 = TxnSnapshot {
            keys: vec![key(3, 0, vec![3, 4], 4, 5)],
            elapsed_us: 90_000,
        };
        // Same absolute deadline (106 ms after proposal) for both views, so
        // the only difference is the progress in hand. Votes land between
        // ~101 and ~112 ms, making the deadline genuinely uncertain.
        let p0 = m.likelihood(&before, 106_000);
        let p3 = m.likelihood(&after3, 16_000);
        assert!(
            p3 > p0,
            "3 accepts in hand should read higher: {p3} vs {p0}"
        );
        assert!(
            p0 < 0.6,
            "needing 4 arrivals by 106ms should be unlikely: {p0}"
        );
        assert!(p3 > 0.4, "needing 1 of 2 arrivals should be likelier: {p3}");
    }

    #[test]
    fn contention_lowers_likelihood() {
        let mut m = LikelihoodModel::new(5, 256);
        for _ in 0..200 {
            for site in 0..5u8 {
                m.observe_vote(site, 100_000, true, 0, 1);
                m.observe_vote(site, 100_000, false, 4, 2);
            }
            // Transaction-level resolutions drive the pre-vote conflict term.
            m.observe_key_resolution(1, true);
            m.observe_key_resolution(2, false);
        }
        let idle = TxnSnapshot {
            keys: vec![KeyState {
                pending_at_read: 0,
                key_hash: 1,
                ..key(0, 0, vec![0, 1, 2, 3, 4], 4, 5)
            }],
            elapsed_us: 0,
        };
        let hot = TxnSnapshot {
            keys: vec![KeyState {
                pending_at_read: 4,
                key_hash: 2,
                ..key(0, 0, vec![0, 1, 2, 3, 4], 4, 5)
            }],
            elapsed_us: 0,
        };
        let p_idle = m.likelihood(&idle, 1_000_000);
        let p_hot = m.likelihood(&hot, 1_000_000);
        assert!(p_idle > 0.8, "idle {p_idle}");
        assert!(p_hot < 0.05, "hot {p_hot}");
    }

    #[test]
    fn multi_key_likelihood_is_product_like() {
        let mut m = warmed_model();
        let one = TxnSnapshot {
            keys: vec![key(0, 0, vec![0, 1, 2, 3, 4], 4, 5)],
            elapsed_us: 0,
        };
        let two = TxnSnapshot {
            keys: vec![
                key(0, 0, vec![0, 1, 2, 3, 4], 4, 5),
                key(0, 0, vec![0, 1, 2, 3, 4], 4, 5),
            ],
            elapsed_us: 0,
        };
        let p1 = m.likelihood(&one, 500_000);
        let p2 = m.likelihood(&two, 500_000);
        assert!((p2 - p1 * p1).abs() < 1e-9);
    }

    #[test]
    fn unknown_paths_use_default_arrival() {
        let mut m = LikelihoodModel::new(5, 16);
        let snap = TxnSnapshot {
            keys: vec![key(0, 0, vec![0, 1, 2, 3, 4], 4, 5)],
            elapsed_us: 0,
        };
        let p = m.likelihood(&snap, 1_000);
        // 0.9 arrival × 0.95 prior acceptance per replica, need 4 of 5.
        assert!(
            p > 0.5,
            "cold-start prediction should be optimistic, got {p}"
        );
    }

    #[test]
    fn suggest_budget_brackets_the_latency_distribution() {
        let mut m = warmed_model();
        // Make the snapshot's key warmed at the txn level so acceptance ≈ 1.
        for _ in 0..50 {
            m.observe_key_resolution(1, true);
        }
        let snap = TxnSnapshot {
            keys: vec![KeyState {
                key_hash: 1,
                ..key(0, 0, vec![0, 1, 2, 3, 4], 4, 5)
            }],
            elapsed_us: 0,
        };
        // Votes land between ~100 and ~112 ms (warmed_model); the suggested
        // deadline for high confidence must sit in/above that band, and be
        // monotone in the confidence target.
        let d80 = m.suggest_budget_us(&snap, 0.80, 30_000_000).unwrap();
        let d99 = m.suggest_budget_us(&snap, 0.99, 30_000_000).unwrap();
        assert!(d80 <= d99, "{d80} > {d99}");
        assert!((90_000..=130_000).contains(&d99), "d99 = {d99}us");
        // The suggestion delivers what it promises.
        assert!(m.likelihood(&snap, d99) >= 0.99);
        assert!(m.likelihood(&snap, d99.saturating_sub(5_000)) < 0.999);
    }

    #[test]
    fn suggest_budget_refuses_hopeless_targets() {
        let mut m = warmed_model();
        // A key with a terrible resolution history cannot reach 0.9 at any
        // deadline.
        for _ in 0..100 {
            m.observe_key_resolution(66, false);
        }
        let snap = TxnSnapshot {
            keys: vec![KeyState {
                key_hash: 66,
                ..key(0, 0, vec![0, 1, 2, 3, 4], 4, 5)
            }],
            elapsed_us: 0,
        };
        assert_eq!(m.suggest_budget_us(&snap, 0.9, 30_000_000), None);
        // But a modest target is achievable... or not, depending on the
        // learned rate; either way the answer must be self-consistent.
        if let Some(budget) = m.suggest_budget_us(&snap, 0.01, 30_000_000) {
            assert!(m.likelihood(&snap, budget) >= 0.01);
        }
    }

    #[test]
    fn empty_txn_commits_certainly() {
        let mut m = warmed_model();
        assert_eq!(m.likelihood(&TxnSnapshot::default(), 0), 1.0);
    }
}
