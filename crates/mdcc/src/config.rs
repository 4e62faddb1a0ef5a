//! Protocol configuration: commit path, quorum sizes, mastership.

use planet_sim::{ActorId, SimDuration, SiteId};
use planet_storage::Key;

use crate::trace::Trace;

/// Which commit protocol the cluster runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// MDCC fast path: the coordinator proposes options directly to every
    /// replica; each replica validates independently; a *fast quorum*
    /// (⌈3N/4⌉) of accepts commits a key in a single coordinator↔replica
    /// round trip.
    Fast,
    /// MDCC classic path: the coordinator proposes to the record's master,
    /// which validates and replicates to the other replicas; replicas ack
    /// directly to the coordinator. A classic (majority) quorum commits.
    Classic,
    /// Baseline two-phase commit over primary copies: like `Classic`, but
    /// acks route back through the master, which casts a single vote to the
    /// coordinator once a majority of replicas is durable — the extra hop
    /// the MDCC paths exist to avoid.
    TwoPc,
}

impl Protocol {
    /// Short lowercase name used in metric keys and reports.
    pub fn name(&self) -> &'static str {
        match self {
            Protocol::Fast => "fast",
            Protocol::Classic => "classic",
            Protocol::TwoPc => "twopc",
        }
    }
}

impl std::fmt::Display for Protocol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Static cluster configuration shared by every actor.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of sites; one full replica lives at each.
    pub num_sites: usize,
    /// The commit path.
    pub protocol: Protocol,
    /// Hard server-side cap on a transaction's lifetime: if votes are still
    /// missing after this long the coordinator aborts.
    pub txn_timeout: SimDuration,
    /// When the fast path cannot assemble a fast quorum for a key but the
    /// key is not definitively lost (a fast-Paxos collision: votes split
    /// between competing options), retry the key once through its master —
    /// MDCC's classic-path fallback. Costs an extra round trip on collision;
    /// turns split-vote "nobody wins" outcomes into wins.
    pub fast_fallback: bool,
    /// CPU/IO cost of validating one option proposal at a replica. Proposals
    /// queue FIFO behind a single server per replica, so offered load beyond
    /// `1/validation_service` saturates the replica and queueing delay
    /// explodes — the resource dimension the admission-control experiments
    /// need. `ZERO` (the default) disables the model.
    pub validation_service: SimDuration,
    /// Number of replica shards per site. Each site's keyspace is
    /// partitioned by [`ClusterConfig::shard_of`] across `num_shards`
    /// independent replica actors (each with its own store + WAL); in live
    /// mode each shard runs on its own thread. Every key-carrying message
    /// routes to the key's shard, so per-key ordering is exactly what a
    /// single replica would produce. Default 1 (unsharded — the simulation
    /// seed experiments are bit-identical).
    pub num_shards: usize,
    /// Checkpoint a shard's WAL once its retained tail reaches this many
    /// records (0 disables). Checked on the periodic GC sweep.
    pub checkpoint_every: usize,
    /// Committed versions to keep per record when the periodic GC sweep
    /// trims version chains (0 disables trimming).
    pub gc_keep_versions: usize,
    /// Execution-trace handle for the isolation auditor (see
    /// [`crate::trace`]). Rides in the config because every actor already
    /// receives a config clone; [`Trace::off`] by default, and never part of
    /// `mck_digest` (the digests hash protocol state, not configuration), so
    /// attaching a sink is digest-neutral by construction.
    pub trace: Trace,
}

impl ClusterConfig {
    /// A configuration with the given site count and protocol and a default
    /// 10 s server-side timeout.
    pub fn new(num_sites: usize, protocol: Protocol) -> Self {
        assert!(num_sites >= 1);
        // The coordinator tallies per-key votes in a 64-bit site mask.
        assert!(num_sites <= 64, "at most 64 sites");
        ClusterConfig {
            num_sites,
            protocol,
            txn_timeout: SimDuration::from_secs(10),
            fast_fallback: false,
            validation_service: SimDuration::ZERO,
            num_shards: 1,
            checkpoint_every: 4096,
            gc_keep_versions: 64,
            trace: Trace::off(),
        }
    }

    /// Same configuration with `num_shards` replica shards per site.
    pub fn with_shards(mut self, num_shards: usize) -> Self {
        assert!(num_shards >= 1, "at least one shard per site");
        self.num_shards = num_shards;
        self
    }

    /// The actor id of replica `shard` at `site` in every assembled cluster,
    /// simulated or live: replicas come first, shard-major, so shard `s`'s
    /// replication group is the contiguous block `s*n .. s*n + n`.
    pub fn replica_id(&self, site: usize, shard: usize) -> ActorId {
        ActorId((shard * self.num_sites + site) as u32)
    }

    /// The actor id of `site`'s coordinator: coordinators follow the
    /// replicas, at `shards*n + site`.
    pub fn coordinator_id(&self, site: usize) -> ActorId {
        ActorId((self.num_shards.max(1) * self.num_sites + site) as u32)
    }

    /// Classic (majority) quorum size: ⌊N/2⌋ + 1.
    pub fn classic_quorum(&self) -> usize {
        self.num_sites / 2 + 1
    }

    /// Fast quorum size: ⌈3N/4⌉ — the smallest quorum for which any two fast
    /// quorums intersect in a classic quorum (Fast Paxos requirement).
    pub fn fast_quorum(&self) -> usize {
        (3 * self.num_sites).div_ceil(4)
    }

    /// The quorum the configured protocol needs per key.
    pub fn required_quorum(&self) -> usize {
        match self.protocol {
            Protocol::Fast => self.fast_quorum(),
            Protocol::Classic => self.classic_quorum(),
            // The master's single vote stands for a durable majority.
            Protocol::TwoPc => 1,
        }
    }

    /// The site mastering a key, assigned by stable hash so that mastership
    /// is uniform and deterministic.
    pub fn master_of(&self, key: &Key) -> SiteId {
        // FNV-1a over the key bytes; cheap, stable across runs.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in key.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        SiteId((h % self.num_sites as u64) as u8)
    }

    /// The replica shard owning a key at every site. Deterministic and
    /// decorrelated from [`ClusterConfig::master_of`] (the hash runs over
    /// the key bytes twice, so shard and mastership assignments do not
    /// align), identical across sites so a shard's peer group replicates
    /// exactly its own keyspace slice. Every key-carrying message must be
    /// routed with this — it is the per-key ordering invariant the sharded
    /// hot path rests on (planet-check FLOW005).
    pub fn shard_of(&self, key: &Key) -> usize {
        if self.num_shards == 1 {
            return 0;
        }
        // Double-rounded FNV-1a: feed the first pass's digest back through
        // so the shard index is independent of `master_of`'s residue, then
        // xor-fold — FNV's low bits alone disperse poorly under
        // power-of-two shard counts.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for _ in 0..2 {
            for b in key.as_bytes() {
                h ^= *b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h ^= h >> 32;
        (h % self.num_shards as u64) as usize
    }
}

/// The routing facts the plan specializer bakes into a
/// [`planet_plan::CompiledPlan`]: compiling against the config that every
/// actor runs makes the precomputed routes exactly the ones an ad-hoc
/// `TxnSpec` submission is given when it is lowered.
impl planet_plan::PlanEnv for ClusterConfig {
    fn num_sites(&self) -> usize {
        self.num_sites
    }

    fn shard_of(&self, key: &Key) -> usize {
        ClusterConfig::shard_of(self, key)
    }

    fn master_site_of(&self, key: &Key) -> u8 {
        ClusterConfig::master_of(self, key).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quorum_sizes_for_five() {
        let c = ClusterConfig::new(5, Protocol::Fast);
        assert_eq!(c.classic_quorum(), 3);
        assert_eq!(c.fast_quorum(), 4);
        assert_eq!(c.required_quorum(), 4);
        assert_eq!(
            ClusterConfig::new(5, Protocol::Classic).required_quorum(),
            3
        );
        assert_eq!(ClusterConfig::new(5, Protocol::TwoPc).required_quorum(), 1);
    }

    #[test]
    fn quorum_sizes_for_three() {
        let c = ClusterConfig::new(3, Protocol::Fast);
        assert_eq!(c.classic_quorum(), 2);
        assert_eq!(c.fast_quorum(), 3);
    }

    #[test]
    fn mastership_is_stable_and_in_range() {
        let c = ClusterConfig::new(5, Protocol::Fast);
        for i in 0..100 {
            let k = Key::new(format!("key:{i}"));
            let m1 = c.master_of(&k);
            let m2 = c.master_of(&k);
            assert_eq!(m1, m2);
            assert!((m1.0 as usize) < 5);
        }
    }

    #[test]
    fn mastership_spreads_over_sites() {
        let c = ClusterConfig::new(5, Protocol::Fast);
        let mut seen = std::collections::HashSet::new();
        for i in 0..200 {
            seen.insert(c.master_of(&Key::new(format!("key:{i}"))));
        }
        assert_eq!(seen.len(), 5, "200 keys should hit all 5 masters");
    }

    #[test]
    fn shard_assignment_is_stable_spread_and_in_range() {
        let c = ClusterConfig::new(3, Protocol::Fast).with_shards(4);
        let mut seen = std::collections::HashSet::new();
        for i in 0..200 {
            let k = Key::new(format!("key:{i}"));
            let s1 = c.shard_of(&k);
            assert_eq!(s1, c.shard_of(&k), "stable");
            assert!(s1 < 4);
            seen.insert(s1);
        }
        assert_eq!(seen.len(), 4, "200 keys should hit all 4 shards");
        // Unsharded config: everything lands on shard 0.
        let c1 = ClusterConfig::new(3, Protocol::Fast);
        assert_eq!(c1.num_shards, 1);
        assert_eq!(c1.shard_of(&Key::new("anything")), 0);
    }

    #[test]
    fn shard_and_mastership_do_not_align() {
        // With num_shards == num_sites a single-hash assignment would pin
        // every key's shard to its master site; the double-rounded hash
        // must decorrelate them.
        let c = ClusterConfig::new(4, Protocol::Fast).with_shards(4);
        let disagree = (0..200)
            .filter(|i| {
                let k = Key::new(format!("key:{i}"));
                c.shard_of(&k) != c.master_of(&k).0 as usize
            })
            .count();
        assert!(disagree > 100, "only {disagree}/200 keys decorrelated");
    }

    #[test]
    fn protocol_names() {
        assert_eq!(Protocol::Fast.to_string(), "fast");
        assert_eq!(Protocol::Classic.to_string(), "classic");
        assert_eq!(Protocol::TwoPc.to_string(), "twopc");
    }
}
