//! Protocol-state digests for the model checker (`planet-mck`).
//!
//! The explicit-state checker deduplicates explored states by fingerprint,
//! and applies a symmetry reduction over site ids: two global states that
//! differ only by a permutation of *free* sites (sites hosting no client and
//! mastering no workload key) are behaviourally equivalent, so they should
//! hash identically. That requires digests which can *remap* every site id
//! and actor id they encounter — a plain `Hash` impl cannot do that, hence
//! this module.
//!
//! Digests cover exactly the protocol-visible state: anything that can
//! influence a future message, timer or client-visible event. Metrics
//! counters and the WAL tail are excluded (the checker never crash-recovers
//! a replica, so the WAL only mirrors the store it would rebuild).
//!
//! Transaction ids embed the minting coordinator's site. The checker pins
//! every client-hosting site, and only pinned coordinators receive
//! submissions, so txn ids never contain a free site id and are hashed raw.

use std::hash::{Hash, Hasher};

use planet_sim::{ActorId, SiteId};
use planet_storage::RecordOption;

use crate::messages::{Msg, ProgressStage};

/// A site/actor id remapping applied while digesting. Identity maps hash
/// the true state; the checker builds one map per permutation of the free
/// sites and takes the minimum fingerprint as the canonical form.
#[derive(Debug, Clone)]
pub struct DigestMap {
    /// Canonical site id per raw site id (index = raw `SiteId.0`).
    pub sites: Vec<u8>,
    /// Canonical actor id per raw actor id (index = raw `ActorId.0`).
    pub actors: Vec<u32>,
}

impl DigestMap {
    /// The identity map over `num_sites` sites and `num_actors` actors.
    pub fn identity(num_sites: usize, num_actors: usize) -> Self {
        DigestMap {
            sites: (0..num_sites as u8).collect(),
            actors: (0..num_actors as u32).collect(),
        }
    }

    /// Canonical id for a site (ids beyond the map pass through unchanged).
    pub fn site(&self, s: SiteId) -> u8 {
        self.sites.get(s.0 as usize).copied().unwrap_or(s.0)
    }

    /// Canonical id for an actor (ids beyond the map pass through unchanged).
    pub fn actor(&self, a: ActorId) -> u32 {
        self.actors.get(a.0 as usize).copied().unwrap_or(a.0)
    }
}

/// Hash a value through its `Debug` rendering. Used for payloads that carry
/// no site/actor ids (keys, values, write ops, reject reasons): their Debug
/// form is a faithful, deterministic encoding and saves a field-by-field
/// walk that would have to chase every future payload change.
pub fn dbg_hash<T: std::fmt::Debug, H: Hasher>(t: &T, h: &mut H) {
    format!("{t:?}").hash(h);
}

/// Digest an option. Txn ids are minted by pinned coordinators (see module
/// doc), so no remapping is needed.
pub fn digest_option<H: Hasher>(o: &RecordOption, h: &mut H) {
    o.txn.hash(h);
    o.read_version.hash(h);
    dbg_hash(&o.op, h);
}

/// Digest a message, remapping every embedded site/actor id through `map`.
pub fn digest_msg<H: Hasher>(m: &Msg, map: &DigestMap, h: &mut H) {
    std::mem::discriminant(m).hash(h);
    match m {
        Msg::Submit {
            spec,
            reply_to,
            tag,
        } => {
            dbg_hash(spec, h);
            map.actor(*reply_to).hash(h);
            tag.hash(h);
        }
        Msg::RegisterPlan {
            plan,
            program,
            reply_to,
        } => {
            plan.hash(h);
            dbg_hash(program, h);
            map.actor(*reply_to).hash(h);
        }
        Msg::SubmitPlan {
            plan,
            params,
            reply_to,
            tag,
        } => {
            plan.hash(h);
            dbg_hash(params, h);
            map.actor(*reply_to).hash(h);
            tag.hash(h);
        }
        Msg::PlanReady { plan } => plan.hash(h),
        Msg::ReadReq { txn, keys } => {
            txn.hash(h);
            dbg_hash(keys, h);
        }
        Msg::FastPropose {
            txn,
            key,
            option,
            round,
        } => {
            txn.hash(h);
            key.hash(h);
            digest_option(option, h);
            round.hash(h);
        }
        Msg::Propose {
            txn,
            key,
            option,
            coordinator,
            round,
        } => {
            txn.hash(h);
            key.hash(h);
            digest_option(option, h);
            map.actor(*coordinator).hash(h);
            round.hash(h);
        }
        Msg::Replicate {
            txn,
            key,
            option,
            coordinator,
            master,
            round,
        } => {
            txn.hash(h);
            key.hash(h);
            digest_option(option, h);
            map.actor(*coordinator).hash(h);
            map.actor(*master).hash(h);
            round.hash(h);
        }
        Msg::Decide {
            txn,
            key,
            option,
            commit,
        } => {
            txn.hash(h);
            key.hash(h);
            digest_option(option, h);
            commit.hash(h);
        }
        Msg::ReadResp { txn, results } => {
            txn.hash(h);
            dbg_hash(results, h);
        }
        Msg::Vote {
            txn,
            key,
            site,
            accept,
            reason,
            round,
        } => {
            txn.hash(h);
            key.hash(h);
            map.site(*site).hash(h);
            accept.hash(h);
            dbg_hash(reason, h);
            round.hash(h);
        }
        Msg::ReplicateAck { txn, key, site } => {
            txn.hash(h);
            key.hash(h);
            map.site(*site).hash(h);
        }
        Msg::Apply {
            key,
            version,
            value,
            txn,
        } => {
            key.hash(h);
            version.hash(h);
            dbg_hash(value, h);
            txn.hash(h);
        }
        Msg::DropPending { key, txn } => {
            key.hash(h);
            txn.hash(h);
        }
        Msg::Progress { tag, txn, stage } => {
            tag.hash(h);
            txn.hash(h);
            digest_stage(stage, map, h);
        }
        Msg::TxnDone {
            tag,
            txn,
            outcome,
            stats,
        } => {
            tag.hash(h);
            txn.hash(h);
            dbg_hash(outcome, h);
            dbg_hash(stats, h);
        }
        Msg::ReplicaServiceDone => {}
        Msg::TxnTimeout { txn } => txn.hash(h),
        Msg::ClientTimer { kind, tag } => {
            kind.hash(h);
            tag.hash(h);
        }
    }
}

fn digest_stage<H: Hasher>(stage: &ProgressStage, map: &DigestMap, h: &mut H) {
    std::mem::discriminant(stage).hash(h);
    match stage {
        ProgressStage::Started => {}
        ProgressStage::ReadsDone { reads } => dbg_hash(reads, h),
        ProgressStage::Vote {
            key,
            site,
            accept,
            reason,
            elapsed_us,
        } => {
            key.hash(h);
            map.site(*site).hash(h);
            accept.hash(h);
            dbg_hash(reason, h);
            elapsed_us.hash(h);
        }
        ProgressStage::KeyFallback { key } => key.hash(h),
        ProgressStage::KeyResolved { key, accepted } => {
            key.hash(h);
            accepted.hash(h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use planet_storage::{Key, TxnId, WriteOp};
    use std::collections::hash_map::DefaultHasher;

    fn fp(f: impl Fn(&mut DefaultHasher)) -> u64 {
        let mut h = DefaultHasher::new();
        f(&mut h);
        h.finish()
    }

    #[test]
    fn identity_map_passes_through() {
        let m = DigestMap::identity(3, 6);
        assert_eq!(m.site(SiteId(2)), 2);
        assert_eq!(m.actor(ActorId(5)), 5);
        // Out of range: pass through rather than panic.
        assert_eq!(m.site(SiteId(9)), 9);
    }

    #[test]
    fn vote_digest_tracks_site_map() {
        let vote = |site| Msg::Vote {
            txn: TxnId::new(0, 1),
            key: Key::new("k"),
            site: SiteId(site),
            accept: true,
            reason: None,
            round: 0,
        };
        let ident = DigestMap::identity(3, 6);
        let mut swapped = DigestMap::identity(3, 6);
        swapped.sites.swap(1, 2);
        // A vote from site 1 under the swap hashes like a vote from site 2
        // under identity — the symmetry reduction's core property.
        assert_eq!(
            fp(|h| digest_msg(&vote(1), &swapped, h)),
            fp(|h| digest_msg(&vote(2), &ident, h))
        );
        assert_ne!(
            fp(|h| digest_msg(&vote(1), &ident, h)),
            fp(|h| digest_msg(&vote(2), &ident, h))
        );
    }

    #[test]
    fn option_digest_distinguishes_ops() {
        let o1 = RecordOption::new(TxnId::new(0, 1), 0, WriteOp::add(1));
        let o2 = RecordOption::new(TxnId::new(0, 1), 0, WriteOp::add(2));
        assert_ne!(fp(|h| digest_option(&o1, h)), fp(|h| digest_option(&o2, h)));
    }
}
