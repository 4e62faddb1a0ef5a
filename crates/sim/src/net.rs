//! The wide-area network model.
//!
//! PLANET's whole premise is that commit latency in a geo-replicated system
//! is *unpredictable*: messages cross oceans, jitter is heavy-tailed, load
//! spikes and partial failures happen. This module models those phenomena:
//!
//! * a base one-way-delay matrix between sites (data centers),
//! * multiplicative log-normal jitter plus an occasional heavy tail,
//! * independent message loss,
//! * scheduled *spikes* (a time window during which delays on some or all
//!   paths are multiplied), and
//! * scheduled *partitions* (a time window during which a pair of sites
//!   cannot exchange messages at all).

use crate::rng::DetRng;
use crate::time::{SimDuration, SimTime};

/// Identifies a site (data center).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SiteId(pub u8);

impl std::fmt::Display for SiteId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "site{}", self.0)
    }
}

/// A set of sites packed into a 64-bit mask: bit `i` is `SiteId(i)`.
/// `ClusterConfig::new` caps a cluster at 64 sites, so one word holds any
/// set of them: building, copying and updating one allocates nothing, and a
/// membership test is a single AND. The coordinator tallies each key's votes
/// in two; the client tracks each written key's outstanding voters in one.
///
/// A site id past 63 is outside that contract; it is folded into range
/// (`& 63`) rather than shifting out of bounds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct SiteMask(u64);

impl SiteMask {
    /// True if `site` is a member.
    pub fn contains(self, site: SiteId) -> bool {
        self.0 & Self::bit(site.0) != 0
    }

    /// Add `site`.
    pub fn insert(&mut self, site: SiteId) {
        self.0 |= Self::bit(site.0);
    }

    /// Take `site` out; a non-member leaves the set as it was.
    pub fn remove(&mut self, site: SiteId) {
        self.0 &= !Self::bit(site.0);
    }

    /// Number of member sites.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// True if no site is a member.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Remove every site.
    pub fn clear(&mut self) {
        self.0 = 0;
    }

    /// Member sites in ascending id order, one bit scan per member.
    pub fn sites(self) -> impl Iterator<Item = SiteId> {
        let mut rest = self.0;
        std::iter::from_fn(move || {
            if rest == 0 {
                return None;
            }
            let site = SiteId(rest.trailing_zeros() as u8);
            rest &= rest - 1;
            Some(site)
        })
    }

    fn bit(site: u8) -> u64 {
        1u64 << (site & 63)
    }
}

/// The set of the given site ids, so `(0..n).collect()` is the first `n`
/// sites.
impl FromIterator<u8> for SiteMask {
    fn from_iter<I: IntoIterator<Item = u8>>(sites: I) -> Self {
        SiteMask(
            sites
                .into_iter()
                .fold(0, |mask, site| mask | Self::bit(site)),
        )
    }
}

/// Jitter applied multiplicatively to every base delay.
#[derive(Debug, Clone, Copy)]
pub struct JitterModel {
    /// Sigma of the log-normal multiplier (mu = 0, so the median factor is 1).
    pub sigma: f64,
    /// Probability that a message additionally lands in the heavy tail.
    pub tail_prob: f64,
    /// Multiplier applied to tail messages (on top of the log-normal factor).
    pub tail_factor: f64,
}

impl Default for JitterModel {
    fn default() -> Self {
        JitterModel {
            sigma: 0.12,
            tail_prob: 0.005,
            tail_factor: 3.0,
        }
    }
}

/// A window during which delays on matching paths are multiplied — models a
/// load spike, a congested link, or a slow replica.
#[derive(Debug, Clone, Copy)]
pub struct Spike {
    /// Start of the window (inclusive).
    pub from: SimTime,
    /// End of the window (exclusive).
    pub to: SimTime,
    /// Affected destination site, or `None` to affect every path.
    pub site: Option<SiteId>,
    /// Delay multiplier during the window (≥ 1 for a slowdown).
    pub factor: f64,
}

/// A window during which two sites cannot exchange messages in either
/// direction.
#[derive(Debug, Clone, Copy)]
pub struct Partition {
    /// Start of the window (inclusive).
    pub from: SimTime,
    /// End of the window (exclusive).
    pub to: SimTime,
    /// One side of the cut.
    pub a: SiteId,
    /// The other side of the cut.
    pub b: SiteId,
}

/// The full network model: topology plus stochastic behaviour.
#[derive(Debug, Clone)]
pub struct NetworkModel {
    /// `base_owd_us[src][dst]` = base one-way delay in microseconds.
    base_owd_us: Vec<Vec<u64>>,
    /// Jitter applied to every message.
    pub jitter: JitterModel,
    /// Independent probability that any message is lost.
    pub loss_prob: f64,
    /// Scheduled delay spikes.
    pub spikes: Vec<Spike>,
    /// Scheduled partitions.
    pub partitions: Vec<Partition>,
}

impl NetworkModel {
    /// Build a model from a symmetric round-trip-time matrix in milliseconds.
    /// The diagonal supplies intra-site RTTs.
    pub fn from_rtt_ms(rtt_ms: &[Vec<f64>]) -> Self {
        let n = rtt_ms.len();
        assert!(n > 0, "need at least one site");
        assert!(
            rtt_ms.iter().all(|row| row.len() == n),
            "matrix must be square"
        );
        let base_owd_us = rtt_ms
            .iter()
            .map(|row| {
                row.iter()
                    .map(|&rtt| (rtt * 500.0).round() as u64)
                    .collect()
            })
            .collect();
        NetworkModel {
            base_owd_us,
            jitter: JitterModel::default(),
            loss_prob: 0.0,
            spikes: Vec::new(),
            partitions: Vec::new(),
        }
    }

    /// Number of sites in the topology.
    pub fn num_sites(&self) -> usize {
        self.base_owd_us.len()
    }

    /// The base (jitter-free) one-way delay between two sites.
    pub fn base_delay(&self, src: SiteId, dst: SiteId) -> SimDuration {
        SimDuration::from_micros(self.base_owd_us[src.0 as usize][dst.0 as usize])
    }

    /// Add a scheduled spike.
    pub fn add_spike(&mut self, spike: Spike) {
        self.spikes.push(spike);
    }

    /// Add a scheduled partition.
    pub fn add_partition(&mut self, partition: Partition) {
        self.partitions.push(partition);
    }

    fn partitioned(&self, src: SiteId, dst: SiteId, now: SimTime) -> bool {
        self.partitions.iter().any(|p| {
            now >= p.from
                && now < p.to
                && ((p.a == src && p.b == dst) || (p.a == dst && p.b == src))
        })
    }

    fn spike_factor(&self, dst: SiteId, now: SimTime) -> f64 {
        self.spikes
            .iter()
            .filter(|s| now >= s.from && now < s.to && s.site.is_none_or(|x| x == dst))
            .map(|s| s.factor)
            .fold(1.0, f64::max)
    }

    /// Sample the delivery delay for a message sent now from `src` to `dst`.
    /// Returns `None` if the message is lost (dropped or partitioned).
    pub fn sample_delay(
        &self,
        src: SiteId,
        dst: SiteId,
        now: SimTime,
        rng: &mut DetRng,
    ) -> Option<SimDuration> {
        if self.partitioned(src, dst, now) {
            return None;
        }
        // Loss models WAN packet loss; intra-site hops (app server to its
        // colocated coordinator/replica — often the same process) are
        // reliable.
        if src != dst && self.loss_prob > 0.0 && rng.bernoulli(self.loss_prob) {
            return None;
        }
        let base = self.base_delay(src, dst);
        let mut factor = rng.log_normal(0.0, self.jitter.sigma);
        if self.jitter.tail_prob > 0.0 && rng.bernoulli(self.jitter.tail_prob) {
            factor *= self.jitter.tail_factor;
        }
        factor *= self.spike_factor(dst, now);
        // Never deliver instantaneously: a minimum of 50µs keeps event
        // ordering realistic even intra-site.
        Some(SimDuration::from_micros(
            base.mul_f64(factor).as_micros().max(50),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_mask_basics() {
        let mut m = SiteMask::default();
        assert!(m.is_empty());
        m.insert(SiteId(0));
        m.insert(SiteId(5));
        m.insert(SiteId(5)); // idempotent
        assert_eq!(m.len(), 2);
        assert!(m.contains(SiteId(0)));
        assert!(m.contains(SiteId(5)));
        assert!(!m.contains(SiteId(1)));
        m.remove(SiteId(1)); // not a member: nothing changes
        assert_eq!(m.len(), 2);
        m.remove(SiteId(0));
        assert!(!m.contains(SiteId(0)));
        assert_eq!(m.sites().collect::<Vec<_>>(), vec![SiteId(5)]);
        m.clear();
        assert!(m.is_empty());
        assert!(!m.contains(SiteId(5)));
    }

    #[test]
    fn site_mask_holds_sites_0_to_63_in_ascending_order() {
        let all: SiteMask = (0..64).collect();
        assert_eq!(all.len(), 64);
        assert_eq!(
            all.sites().map(|s| s.0).collect::<Vec<u8>>(),
            (0..64).collect::<Vec<u8>>()
        );
        // Collected out of order and with repeats: a set, iterated ascending.
        let some: SiteMask = [63, 0, 17, 4, 17, 62].into_iter().collect();
        assert_eq!(
            some.sites().map(|s| s.0).collect::<Vec<u8>>(),
            vec![0, 4, 17, 62, 63]
        );
        let mut rest = all;
        for site in (0..64).step_by(2) {
            rest.remove(SiteId(site));
        }
        assert!(rest.sites().map(|s| s.0).eq((1..64).step_by(2)));
        assert_eq!((0..0).collect::<SiteMask>(), SiteMask::default());
    }

    fn two_site_model() -> NetworkModel {
        NetworkModel::from_rtt_ms(&[vec![0.5, 80.0], vec![80.0, 0.5]])
    }

    #[test]
    fn base_delay_is_half_rtt() {
        let net = two_site_model();
        assert_eq!(net.base_delay(SiteId(0), SiteId(1)).as_micros(), 40_000);
        assert_eq!(net.base_delay(SiteId(0), SiteId(0)).as_micros(), 250);
    }

    #[test]
    fn sampled_delays_center_on_base() {
        let net = two_site_model();
        let mut rng = DetRng::new(1);
        let n = 20_000;
        let mean: f64 = (0..n)
            .map(|_| {
                net.sample_delay(SiteId(0), SiteId(1), SimTime::ZERO, &mut rng)
                    .unwrap()
                    .as_millis_f64()
            })
            .sum::<f64>()
            / n as f64;
        // log-normal(0, 0.12) has mean exp(sigma^2/2) ≈ 1.0072; tail adds a bit.
        assert!((mean - 40.0).abs() < 2.0, "mean delay {mean}ms");
    }

    #[test]
    fn loss_spares_intra_site_messages() {
        let mut net = two_site_model();
        net.loss_prob = 1.0;
        let mut rng = DetRng::new(7);
        for _ in 0..100 {
            assert!(net
                .sample_delay(SiteId(0), SiteId(0), SimTime::ZERO, &mut rng)
                .is_some());
            assert!(net
                .sample_delay(SiteId(0), SiteId(1), SimTime::ZERO, &mut rng)
                .is_none());
        }
    }

    #[test]
    fn loss_drops_messages() {
        let mut net = two_site_model();
        net.loss_prob = 0.5;
        let mut rng = DetRng::new(2);
        let delivered = (0..10_000)
            .filter(|_| {
                net.sample_delay(SiteId(0), SiteId(1), SimTime::ZERO, &mut rng)
                    .is_some()
            })
            .count();
        assert!((4_500..5_500).contains(&delivered), "delivered {delivered}");
    }

    #[test]
    fn partitions_cut_both_directions_within_window() {
        let mut net = two_site_model();
        net.add_partition(Partition {
            from: SimTime::from_secs(1),
            to: SimTime::from_secs(2),
            a: SiteId(0),
            b: SiteId(1),
        });
        let mut rng = DetRng::new(3);
        let inside = SimTime::from_millis(1_500);
        let outside = SimTime::from_millis(2_500);
        assert!(net
            .sample_delay(SiteId(0), SiteId(1), inside, &mut rng)
            .is_none());
        assert!(net
            .sample_delay(SiteId(1), SiteId(0), inside, &mut rng)
            .is_none());
        assert!(net
            .sample_delay(SiteId(0), SiteId(1), outside, &mut rng)
            .is_some());
    }

    #[test]
    fn spikes_multiply_delay() {
        let mut net = two_site_model();
        net.jitter = JitterModel {
            sigma: 0.0,
            tail_prob: 0.0,
            tail_factor: 1.0,
        };
        net.add_spike(Spike {
            from: SimTime::ZERO,
            to: SimTime::from_secs(10),
            site: Some(SiteId(1)),
            factor: 4.0,
        });
        let mut rng = DetRng::new(4);
        let spiked = net
            .sample_delay(SiteId(0), SiteId(1), SimTime::from_secs(1), &mut rng)
            .unwrap();
        assert_eq!(spiked.as_micros(), 160_000);
        // Path toward the unaffected site is untouched.
        let normal = net
            .sample_delay(SiteId(1), SiteId(0), SimTime::from_secs(1), &mut rng)
            .unwrap();
        assert_eq!(normal.as_micros(), 40_000);
    }

    #[test]
    fn overlapping_spikes_take_max_not_product() {
        let mut net = two_site_model();
        net.jitter = JitterModel {
            sigma: 0.0,
            tail_prob: 0.0,
            tail_factor: 1.0,
        };
        for factor in [2.0, 3.0] {
            net.add_spike(Spike {
                from: SimTime::ZERO,
                to: SimTime::from_secs(10),
                site: None,
                factor,
            });
        }
        let mut rng = DetRng::new(5);
        let d = net
            .sample_delay(SiteId(0), SiteId(1), SimTime::from_secs(1), &mut rng)
            .unwrap();
        assert_eq!(d.as_micros(), 120_000);
    }

    #[test]
    fn partition_window_is_inclusive_exclusive() {
        let mut net = two_site_model();
        net.add_partition(Partition {
            from: SimTime::from_secs(1),
            to: SimTime::from_secs(2),
            a: SiteId(0),
            b: SiteId(1),
        });
        let mut rng = DetRng::new(8);
        // The instant before the window opens, traffic still flows.
        let before = SimTime::from_micros(999_999);
        assert!(net
            .sample_delay(SiteId(0), SiteId(1), before, &mut rng)
            .is_some());
        // `from` is inclusive: the first instant of the window cuts.
        assert!(net
            .sample_delay(SiteId(0), SiteId(1), SimTime::from_secs(1), &mut rng)
            .is_none());
        // `to` is exclusive: the window's end instant is already healed.
        assert!(net
            .sample_delay(SiteId(0), SiteId(1), SimTime::from_secs(2), &mut rng)
            .is_some());
    }

    #[test]
    fn partition_cuts_only_the_named_pair() {
        let mut net = NetworkModel::from_rtt_ms(&[
            vec![0.5, 80.0, 80.0],
            vec![80.0, 0.5, 80.0],
            vec![80.0, 80.0, 0.5],
        ]);
        net.add_partition(Partition {
            from: SimTime::ZERO,
            to: SimTime::from_secs(10),
            a: SiteId(0),
            b: SiteId(1),
        });
        let mut rng = DetRng::new(9);
        let now = SimTime::from_secs(5);
        assert!(net
            .sample_delay(SiteId(0), SiteId(1), now, &mut rng)
            .is_none());
        // Both endpoints still reach the third site, and each other's
        // intra-site traffic is untouched: the cluster can route around a
        // single cut link (what makes quorum protocols interesting).
        assert!(net
            .sample_delay(SiteId(0), SiteId(2), now, &mut rng)
            .is_some());
        assert!(net
            .sample_delay(SiteId(1), SiteId(2), now, &mut rng)
            .is_some());
        assert!(net
            .sample_delay(SiteId(2), SiteId(0), now, &mut rng)
            .is_some());
        assert!(net
            .sample_delay(SiteId(0), SiteId(0), now, &mut rng)
            .is_some());
    }

    #[test]
    fn disjoint_partitions_each_cut_their_own_window() {
        let mut net = two_site_model();
        for (from_s, to_s) in [(1, 2), (4, 5)] {
            net.add_partition(Partition {
                from: SimTime::from_secs(from_s),
                to: SimTime::from_secs(to_s),
                a: SiteId(0),
                b: SiteId(1),
            });
        }
        let mut rng = DetRng::new(10);
        for (t_s, expect_cut) in [(0, false), (1, true), (3, false), (4, true), (6, false)] {
            let now = SimTime::from_millis(t_s * 1000 + 500);
            let cut = net
                .sample_delay(SiteId(0), SiteId(1), now, &mut rng)
                .is_none();
            assert_eq!(cut, expect_cut, "at {t_s}.5s");
        }
    }

    #[test]
    fn spike_window_is_inclusive_exclusive() {
        let mut net = two_site_model();
        net.jitter = JitterModel {
            sigma: 0.0,
            tail_prob: 0.0,
            tail_factor: 1.0,
        };
        net.add_spike(Spike {
            from: SimTime::from_secs(1),
            to: SimTime::from_secs(2),
            site: None,
            factor: 4.0,
        });
        let mut rng = DetRng::new(11);
        let d = |net: &NetworkModel, now, rng: &mut DetRng| {
            net.sample_delay(SiteId(0), SiteId(1), now, rng)
                .unwrap()
                .as_micros()
        };
        assert_eq!(d(&net, SimTime::from_micros(999_999), &mut rng), 40_000);
        assert_eq!(d(&net, SimTime::from_secs(1), &mut rng), 160_000);
        assert_eq!(d(&net, SimTime::from_secs(2), &mut rng), 40_000);
    }

    #[test]
    fn site_spike_hits_inbound_paths_only() {
        // A spike models an overloaded *destination*: everything flowing into
        // the slow site — including its own intra-site hops — is delayed;
        // its outbound paths toward healthy sites are not.
        let mut net = two_site_model();
        net.jitter = JitterModel {
            sigma: 0.0,
            tail_prob: 0.0,
            tail_factor: 1.0,
        };
        net.add_spike(Spike {
            from: SimTime::ZERO,
            to: SimTime::from_secs(10),
            site: Some(SiteId(1)),
            factor: 10.0,
        });
        let mut rng = DetRng::new(12);
        let now = SimTime::from_secs(1);
        let into = net
            .sample_delay(SiteId(0), SiteId(1), now, &mut rng)
            .unwrap();
        assert_eq!(into.as_micros(), 400_000);
        let within = net
            .sample_delay(SiteId(1), SiteId(1), now, &mut rng)
            .unwrap();
        assert_eq!(
            within.as_micros(),
            2_500,
            "intra-site path of the spiked site"
        );
        let out_of = net
            .sample_delay(SiteId(1), SiteId(0), now, &mut rng)
            .unwrap();
        assert_eq!(
            out_of.as_micros(),
            40_000,
            "outbound path of the spiked site"
        );
    }

    #[test]
    fn spike_never_beats_partition() {
        // A path that is both spiked and partitioned is down, not slow.
        let mut net = two_site_model();
        net.add_spike(Spike {
            from: SimTime::ZERO,
            to: SimTime::from_secs(10),
            site: None,
            factor: 2.0,
        });
        net.add_partition(Partition {
            from: SimTime::ZERO,
            to: SimTime::from_secs(10),
            a: SiteId(0),
            b: SiteId(1),
        });
        let mut rng = DetRng::new(13);
        assert!(net
            .sample_delay(SiteId(0), SiteId(1), SimTime::from_secs(5), &mut rng)
            .is_none());
    }

    #[test]
    fn minimum_delay_floor() {
        let net = NetworkModel::from_rtt_ms(&[vec![0.0]]);
        let mut rng = DetRng::new(6);
        let d = net
            .sample_delay(SiteId(0), SiteId(0), SimTime::ZERO, &mut rng)
            .unwrap();
        assert!(d.as_micros() >= 50);
    }
}
