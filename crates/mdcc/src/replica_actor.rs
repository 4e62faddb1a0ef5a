//! The storage replica actor: one per site *and shard*, holding the shard's
//! slice of the keyspace.
//!
//! A site runs `config.num_shards` replica actors; [`ClusterConfig::shard_of`]
//! partitions the keyspace among them, and every key-carrying message is
//! routed to the key's shard by the sender (coordinators fan out per shard;
//! a shard's `peers` are the same-shard replicas at the other sites). Each
//! shard owns an independent [`Replica`] (store + WAL), so in live mode the
//! per-site validation hot path runs on `num_shards` threads while per-key
//! ordering stays exactly what a single replica would produce.
//!
//! Responsibilities by protocol path:
//!
//! * **Fast path** — validate `FastPropose` options against local state and
//!   vote directly to the coordinator. Conflicts surface here, at every
//!   replica independently.
//! * **Classic path** — when this replica masters the key, validate
//!   `Propose`, then fan out `Replicate`; non-master replicas make the
//!   option durable and vote straight to the coordinator.
//! * **2PC path** — like classic, but durability acks route back to the
//!   master, which casts one vote per key once a majority is durable.
//! * **Apply/convergence** — the key's master serialises every committed
//!   version and ships it by state transfer (`Apply`); replicas install
//!   whatever is newer than what they hold, so all copies converge to the
//!   master's order regardless of message timing.
//!
//! Pending options are leased: a periodic sweep drops options older than the
//! transaction timeout, so a lost `Decide`/`DropPending` cannot wedge a
//! record forever.

use std::collections::{HashMap, VecDeque};

use planet_sim::{Actor, ActorId, Context, FastHash, SimDuration, SimTime, SiteId};
use planet_storage::{Key, KeyId, KeyList, RecordOption, Replica, TxnId};

use crate::config::{ClusterConfig, Protocol};
use crate::messages::{KeyRead, Msg};

/// Pending 2PC replication state at a master: which sites have acked.
struct ReplState {
    acks: Vec<SiteId>,
    coordinator: ActorId,
    voted: bool,
}

/// The per-site, per-shard storage replica actor.
pub struct ReplicaActor {
    config: ClusterConfig,
    /// Same-shard replica actor ids indexed by site (this shard's
    /// replication group).
    peers: Vec<ActorId>,
    /// Which keyspace shard this replica owns (`config.shard_of`).
    shard: usize,
    storage: Replica,
    /// 2PC: replication ack collection per (txn, key) this site masters.
    /// Keys are interned ids — valid within this shard's store only.
    repl_state: HashMap<(TxnId, KeyId), ReplState, FastHash>,
    /// Lease bookkeeping: when each pending option was accepted.
    accepted_at: HashMap<(TxnId, KeyId), SimTime, FastHash>,
    /// How long a pending option may live before the sweep reclaims it.
    lease: SimDuration,
    /// FIFO of validation work waiting for the (single) server, used when
    /// `validation_service > 0`.
    service_queue: VecDeque<(ActorId, Msg)>,
    /// True while the validation server is occupied.
    server_busy: bool,
    /// When the lease-sweep fire this replica armed is due; a sweep fire
    /// before it is not that one, and is ignored.
    next_sweep_at: SimTime,
    /// Fault injection: while true the replica ignores all traffic.
    crashed: bool,
}

/// Timer discriminator for the pending-option sweep.
const GC_TIMER: u32 = 0xC1EA;

impl ReplicaActor {
    /// Build the `shard`-th replica of a site. `peers` are the same-shard
    /// replica actor ids at every site (indexed by site) — the group this
    /// shard replicates with.
    pub fn new(config: ClusterConfig, peers: Vec<ActorId>, shard: usize) -> Self {
        debug_assert!(shard < config.num_shards.max(1));
        let lease = config.txn_timeout;
        ReplicaActor {
            config,
            peers,
            shard,
            storage: Replica::new(),
            repl_state: HashMap::default(),
            accepted_at: HashMap::default(),
            lease,
            service_queue: VecDeque::new(),
            server_busy: false,
            next_sweep_at: SimTime::ZERO,
            crashed: false,
        }
    }

    /// True while the replica is crash-injected.
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Fault injection: crash the replica. It ignores all traffic until
    /// [`ReplicaActor::recover`]; its volatile protocol state is lost, and
    /// only the WAL (and therefore the store it reconstructs) survives.
    pub fn crash(&mut self) {
        self.crashed = true;
        self.repl_state.clear();
        self.accepted_at.clear();
        self.service_queue.clear();
        self.server_busy = false;
    }

    /// Fault injection: restart a crashed replica at `now`, rebuilding its
    /// storage by replaying the WAL. State committed cluster-wide while it
    /// was down reaches it lazily via later `Apply` state transfers. A
    /// replica that is up is left as it is.
    pub fn recover(&mut self, now: SimTime) {
        if !self.crashed {
            return;
        }
        self.crashed = false;
        // Key ids are re-issued in log order, so they need not be the ones
        // the crashed replica used: every option the log left pending gets
        // a fresh lease under its new id.
        self.storage = Replica::recover(self.storage.wal().clone());
        let pending = self.storage.store().pending_options();
        self.accepted_at = pending.map(|(id, o)| ((o.txn, id), now)).collect();
    }

    /// The keyspace shard this replica owns.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Routing invariant: every key-carrying message this replica handles
    /// must be for a key in its shard.
    fn owns(&self, key: &Key) -> bool {
        self.config.shard_of(key) == self.shard
    }

    /// Read access to the underlying storage (for tests and result harvest).
    pub fn storage(&self) -> &Replica {
        &self.storage
    }

    /// Digest every piece of protocol-visible state into `h`, remapping
    /// site/actor ids through `map` (see [`crate::digest`]). Hash-map
    /// contents are visited in sorted order so the digest is independent of
    /// insertion history; interned key ids are resolved to key names because
    /// intern order varies with message arrival order. `next_sweep_at` is
    /// left out: it is the due instant of the replica's one pending sweep
    /// timer, which the checker hashes with its timers.
    pub fn mck_digest<H: std::hash::Hasher>(&self, map: &crate::digest::DigestMap, h: &mut H) {
        use std::hash::Hash;
        self.shard.hash(h);
        self.crashed.hash(h);
        self.server_busy.hash(h);
        self.lease.hash(h);
        let store = self.storage.store();
        let mut keys: Vec<&Key> = store.keys().collect();
        keys.sort();
        for k in keys {
            k.hash(h);
            let Some(rec) = store.record(k) else { continue };
            for v in self.storage.versions(k) {
                v.version.hash(h);
                crate::digest::dbg_hash(&v.value, h);
                v.txn.hash(h);
            }
            let mut pending: Vec<&RecordOption> = rec.pending().iter().collect();
            pending.sort_by_key(|o| o.txn);
            for o in pending {
                crate::digest::digest_option(o, h);
            }
        }
        let mut repl: Vec<((TxnId, &Key), &ReplState)> = self
            .repl_state
            .iter() // check:allow(determinism): sorted by (txn, key) below
            .map(|((t, kid), st)| ((*t, store.key_name(*kid)), st))
            .collect();
        repl.sort_by_key(|(k, _)| *k);
        for ((txn, key), st) in repl {
            txn.hash(h);
            key.hash(h);
            let mut acks: Vec<u8> = st.acks.iter().map(|s| map.site(*s)).collect();
            acks.sort_unstable();
            acks.hash(h);
            map.actor(st.coordinator).hash(h);
            st.voted.hash(h);
        }
        let mut leases: Vec<((TxnId, &Key), SimTime)> = self
            .accepted_at
            .iter() // check:allow(determinism): sorted by (txn, key) below
            .map(|((t, kid), at)| ((*t, store.key_name(*kid)), *at))
            .collect();
        leases.sort_by_key(|(k, _)| *k);
        for ((txn, key), at) in leases {
            txn.hash(h);
            key.hash(h);
            at.hash(h);
        }
        self.service_queue.len().hash(h);
        for (from, msg) in &self.service_queue {
            map.actor(*from).hash(h);
            crate::digest::digest_msg(msg, map, h);
        }
    }

    fn is_master(&self, key: &Key, ctx: &Context<'_, Msg>) -> bool {
        self.config.master_of(key) == ctx.self_site()
    }

    /// The group's other replicas. Borrows only `self.peers`, so a caller
    /// sends through its context while iterating.
    fn other_peers(&self, me: ActorId) -> impl Iterator<Item = ActorId> + '_ {
        self.peers.iter().copied().filter(move |&p| p != me)
    }

    fn try_accept(
        &mut self,
        key: &Key,
        option: RecordOption,
        now: SimTime,
    ) -> Result<(), planet_storage::RejectReason> {
        debug_assert!(self.owns(key), "option for {key} routed to wrong shard");
        let txn = option.txn;
        // One string hash at the boundary; everything below runs on the id.
        let id = self.storage.intern(key);
        // Idempotent re-proposal: a later round (fast-path fallback, retry)
        // may re-present an option this replica already holds.
        if self.storage.has_pending_id(id, txn) {
            return Ok(());
        }
        match self.storage.accept_id(id, option) {
            Ok(()) => {
                self.accepted_at.insert((txn, id), now);
                Ok(())
            }
            Err(reason) => {
                self.storage.note_rejection();
                Err(reason)
            }
        }
    }

    fn handle_read(
        &mut self,
        from: ActorId,
        txn: TxnId,
        keys: KeyList,
        ctx: &mut Context<'_, Msg>,
    ) {
        let results = keys
            .iter()
            .map(|k| {
                debug_assert!(self.owns(k), "read of {k} routed to wrong shard");
                let r = self.storage.read(k);
                KeyRead {
                    key: k.clone(),
                    version: r.version,
                    value: r.value,
                    pending: r.pending,
                }
            })
            .collect();
        ctx.send(from, Msg::ReadResp { txn, results });
    }

    fn handle_fast_propose(
        &mut self,
        from: ActorId,
        txn: TxnId,
        key: Key,
        option: RecordOption,
        round: u8,
        ctx: &mut Context<'_, Msg>,
    ) {
        let result = self.try_accept(&key, option, ctx.now());
        ctx.send(
            from,
            Msg::Vote {
                txn,
                key,
                site: ctx.self_site(),
                accept: result.is_ok(),
                reason: result.err(),
                round,
            },
        );
    }

    fn handle_propose(
        &mut self,
        txn: TxnId,
        key: Key,
        option: RecordOption,
        coordinator: ActorId,
        round: u8,
        ctx: &mut Context<'_, Msg>,
    ) {
        debug_assert!(self.is_master(&key, ctx), "Propose sent to non-master");
        match self.try_accept(&key, option.clone(), ctx.now()) {
            Err(reason) => {
                // Master says no: the key cannot be accepted; no replication.
                ctx.send(
                    coordinator,
                    Msg::Vote {
                        txn,
                        key,
                        site: ctx.self_site(),
                        accept: false,
                        reason: Some(reason),
                        round,
                    },
                );
            }
            Ok(()) => {
                match self.config.protocol {
                    // Classic proper, or a fast-path collision-fallback
                    // round: master votes immediately; other replicas ack
                    // directly to the coordinator.
                    Protocol::Classic | Protocol::Fast => {
                        ctx.send(
                            coordinator,
                            Msg::Vote {
                                txn,
                                key: key.clone(),
                                site: ctx.self_site(),
                                accept: true,
                                reason: None,
                                round,
                            },
                        );
                    }
                    Protocol::TwoPc => {
                        // Collect acks here; vote once a majority (counting
                        // ourselves) is durable.
                        let id = self.storage.intern(&key);
                        self.repl_state.insert(
                            (txn, id),
                            ReplState {
                                acks: vec![ctx.self_site()],
                                coordinator,
                                voted: false,
                            },
                        );
                        self.maybe_vote_2pc(txn, id, &key, ctx);
                    }
                }
                let me = ctx.self_id();
                for peer in self.other_peers(me) {
                    ctx.send(
                        peer,
                        Msg::Replicate {
                            txn,
                            key: key.clone(),
                            option: option.clone(),
                            coordinator,
                            master: me,
                            round,
                        },
                    );
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)] // mirrors the wire message's fields
    fn handle_replicate(
        &mut self,
        txn: TxnId,
        key: Key,
        option: RecordOption,
        coordinator: ActorId,
        master: ActorId,
        round: u8,
        ctx: &mut Context<'_, Msg>,
    ) {
        // The master already validated; we store the option for durability
        // and demarcation accounting but our ack does not depend on local
        // validation succeeding (our copy may simply be stale).
        let _ = self.try_accept(&key, option, ctx.now());
        match self.config.protocol {
            // Classic proper, or a fast-path fallback round.
            Protocol::Classic | Protocol::Fast => ctx.send(
                coordinator,
                Msg::Vote {
                    txn,
                    key,
                    site: ctx.self_site(),
                    accept: true,
                    reason: None,
                    round,
                },
            ),
            Protocol::TwoPc => {
                ctx.send(
                    master,
                    Msg::ReplicateAck {
                        txn,
                        key,
                        site: ctx.self_site(),
                    },
                );
            }
        }
    }

    fn maybe_vote_2pc(&mut self, txn: TxnId, id: KeyId, key: &Key, ctx: &mut Context<'_, Msg>) {
        let quorum = self.config.classic_quorum();
        let site = ctx.self_site();
        if let Some(state) = self.repl_state.get_mut(&(txn, id)) {
            if !state.voted && state.acks.len() >= quorum {
                state.voted = true;
                let coordinator = state.coordinator;
                ctx.send(
                    coordinator,
                    Msg::Vote {
                        txn,
                        key: key.clone(),
                        site,
                        accept: true,
                        reason: None,
                        round: 0,
                    },
                );
            }
        }
    }

    fn handle_replicate_ack(
        &mut self,
        txn: TxnId,
        key: Key,
        site: SiteId,
        ctx: &mut Context<'_, Msg>,
    ) {
        let id = self.storage.intern(&key);
        if let Some(state) = self.repl_state.get_mut(&(txn, id)) {
            if !state.acks.contains(&site) {
                state.acks.push(site);
            }
        }
        self.maybe_vote_2pc(txn, id, &key, ctx);
    }

    fn handle_decide(
        &mut self,
        txn: TxnId,
        key: Key,
        option: RecordOption,
        commit: bool,
        ctx: &mut Context<'_, Msg>,
    ) {
        debug_assert!(self.is_master(&key, ctx), "Decide sent to non-master");
        debug_assert!(self.owns(&key), "Decide for {key} routed to wrong shard");
        let id = self.storage.intern(&key);
        self.accepted_at.remove(&(txn, id));
        self.repl_state.remove(&(txn, id));
        if commit {
            let new_version = match self.storage.decide_id(id, txn, true) {
                Some(v) => v,
                None => {
                    // This master never accepted the option (fast-path commit
                    // carried by other replicas): force-apply by state
                    // transfer onto the current head.
                    let cur = self.storage.read_id(id);
                    let value = option.op.apply(&cur.value);
                    let v = cur.version + 1;
                    self.storage.install_id(id, v, value, txn);
                    v
                }
            };
            let value = self.storage.read_id(id).value;
            ctx.metrics().counter("replica.versions_committed").inc();
            if self.config.trace.is_on() {
                self.config.trace.emit(crate::trace::TraceEvent::Commit {
                    txn,
                    key: key.clone(),
                    version: new_version,
                    site: ctx.self_site(),
                    shard: self.shard,
                    at: ctx.now(),
                });
            }
            for peer in self.other_peers(ctx.self_id()) {
                ctx.send(
                    peer,
                    Msg::Apply {
                        key: key.clone(),
                        version: new_version,
                        value: value.clone(),
                        txn,
                    },
                );
            }
        } else {
            self.storage.decide_id(id, txn, false);
            for peer in self.other_peers(ctx.self_id()) {
                ctx.send(
                    peer,
                    Msg::DropPending {
                        key: key.clone(),
                        txn,
                    },
                );
            }
        }
    }

    fn handle_apply(
        &mut self,
        key: Key,
        version: planet_storage::VersionNo,
        value: planet_storage::Value,
        txn: TxnId,
        ctx: &mut Context<'_, Msg>,
    ) {
        debug_assert!(self.owns(&key), "Apply for {key} routed to wrong shard");
        let id = self.storage.intern(&key);
        self.accepted_at.remove(&(txn, id));
        if self.storage.install_id(id, version, value, txn) {
            ctx.metrics().counter("replica.versions_installed").inc();
            if self.config.trace.is_on() {
                self.config.trace.emit(crate::trace::TraceEvent::Install {
                    txn,
                    key: key.clone(),
                    version,
                    site: ctx.self_site(),
                    shard: self.shard,
                    at: ctx.now(),
                });
            }
        }
    }

    fn handle_drop_pending(&mut self, key: Key, txn: TxnId) {
        debug_assert!(
            self.owns(&key),
            "DropPending for {key} routed to wrong shard"
        );
        let id = self.storage.intern(&key);
        self.accepted_at.remove(&(txn, id));
        self.storage.decide_id(id, txn, false);
    }

    fn sweep_leases(&mut self, ctx: &mut Context<'_, Msg>) {
        let now = ctx.now();
        let lease = self.lease;
        let mut expired: Vec<(TxnId, KeyId)> = self
            .accepted_at
            .iter() // check:allow(determinism): order is fixed by the sort below
            .filter(|(_, &at)| now.since(at) > lease)
            .map(|(k, _)| *k)
            .collect();
        // HashMap iteration order is nondeterministic; the decide order
        // below has observable effects, so fix it. Interned ids are
        // assigned in (deterministic) arrival order, so sorting by id is
        // as reproducible as sorting by key name.
        expired.sort();
        for (txn, id) in expired {
            self.accepted_at.remove(&(txn, id));
            self.repl_state.remove(&(txn, id));
            self.storage.decide_id(id, txn, false);
            ctx.metrics().counter("replica.leases_expired").inc();
        }
    }

    /// The lease-sweep timer. Only the fire due at `next_sweep_at` counts:
    /// it sweeps (unless down: the chain survives a crash, as a restarted
    /// process's background tasks would) and arms the next. An earlier one,
    /// such as a peer's copy, does nothing, so no frame starts a second chain.
    fn on_sweep_timer(&mut self, ctx: &mut Context<'_, Msg>) {
        if ctx.now() < self.next_sweep_at {
            return;
        }
        if !self.crashed {
            self.sweep_leases(ctx);
            self.maintain_storage(ctx);
        }
        self.arm_sweep(ctx);
    }

    /// Schedule the next lease sweep half a lease from now.
    fn arm_sweep(&mut self, ctx: &mut Context<'_, Msg>) {
        let period = SimDuration::from_micros((self.lease.as_micros() / 2).max(1));
        self.next_sweep_at = ctx.now() + period;
        ctx.schedule(
            period,
            Msg::ClientTimer {
                kind: GC_TIMER,
                tag: 0,
            },
        );
    }

    /// Periodic maintenance riding the lease-sweep timer: checkpoint the WAL
    /// once its tail has grown past the configured threshold. That keeps
    /// sustained-load memory bounded and changes no observable state
    /// (replay restarts from the checkpoint snapshot).
    fn maintain_storage(&mut self, ctx: &mut Context<'_, Msg>) {
        if self.storage.maybe_checkpoint(self.config.checkpoint_every) {
            ctx.metrics().counter("replica.checkpoints").inc();
        }
    }
}

impl ReplicaActor {
    /// True for messages that cost validation-server time.
    fn is_costly(msg: &Msg) -> bool {
        matches!(
            msg,
            Msg::FastPropose { .. } | Msg::Propose { .. } | Msg::Replicate { .. }
        )
    }

    /// Admit one unit of validation work: run it if the server is idle,
    /// otherwise queue it.
    fn enqueue_work(&mut self, from: ActorId, msg: Msg, ctx: &mut Context<'_, Msg>) {
        if self.server_busy {
            self.service_queue.push_back((from, msg));
            return;
        }
        self.server_busy = true;
        self.dispatch(from, msg, ctx);
        ctx.schedule(self.config.validation_service, Msg::ReplicaServiceDone);
    }

    fn service_done(&mut self, ctx: &mut Context<'_, Msg>) {
        match self.service_queue.pop_front() {
            Some((from, msg)) => {
                self.dispatch(from, msg, ctx);
                ctx.schedule(self.config.validation_service, Msg::ReplicaServiceDone);
            }
            None => self.server_busy = false,
        }
    }

    fn dispatch(&mut self, from: ActorId, msg: Msg, ctx: &mut Context<'_, Msg>) {
        match msg {
            Msg::ReadReq { txn, keys } => self.handle_read(from, txn, keys, ctx),
            Msg::FastPropose {
                txn,
                key,
                option,
                round,
            } => self.handle_fast_propose(from, txn, key, option, round, ctx),
            Msg::Propose {
                txn,
                key,
                option,
                coordinator,
                round,
            } => self.handle_propose(txn, key, option, coordinator, round, ctx),
            Msg::Replicate {
                txn,
                key,
                option,
                coordinator,
                master,
                round,
            } => self.handle_replicate(txn, key, option, coordinator, master, round, ctx),
            Msg::ReplicateAck { txn, key, site } => self.handle_replicate_ack(txn, key, site, ctx),
            Msg::Decide {
                txn,
                key,
                option,
                commit,
            } => self.handle_decide(txn, key, option, commit, ctx),
            Msg::Apply {
                key,
                version,
                value,
                txn,
            } => self.handle_apply(key, version, value, txn, ctx),
            Msg::DropPending { key, txn } => self.handle_drop_pending(key, txn),
            // A message for another role: a well-formed frame from a peer
            // can carry one, so it is dropped and counted, never a panic.
            _ => ctx.metrics().counter("replica.unexpected_msgs").inc(),
        }
    }
}

impl Actor<Msg> for ReplicaActor {
    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        self.arm_sweep(ctx);
    }

    fn on_message(&mut self, from: ActorId, msg: Msg, ctx: &mut Context<'_, Msg>) {
        match msg {
            Msg::ClientTimer { kind: GC_TIMER, .. } => self.on_sweep_timer(ctx),
            _ if self.crashed => { /* down: drop everything else */ }
            Msg::ReplicaServiceDone => self.service_done(ctx),
            m if self.config.validation_service > SimDuration::ZERO && Self::is_costly(&m) => {
                self.enqueue_work(from, m, ctx)
            }
            m => self.dispatch(from, m, ctx),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use planet_sim::{drive, drive_start, DetRng, Effect, Metrics, TurnInputs};

    /// A sweep fire before the one the replica armed is due, such as a
    /// peer's frame, sweeps nothing and arms nothing; the armed one re-arms.
    #[test]
    fn a_peer_sweep_fire_starts_no_second_chain() {
        let peers: Vec<ActorId> = (0..3).map(ActorId).collect();
        let config = ClusterConfig::new(3, Protocol::Fast);
        let mut replica = ReplicaActor::new(config, peers.clone(), 0);
        let (mut rng, mut metrics) = (DetRng::new(1), Metrics::new());
        let at = |now| TurnInputs {
            now,
            self_id: peers[0],
            self_site: SiteId(0),
        };
        let start = drive_start(&mut replica, at(SimTime::ZERO), &mut rng, &mut metrics);
        let [Effect::Timer { delay, .. }] = start[..] else {
            panic!("the replica arms one sweep on start: {start:?}");
        };
        let mut fire = |now, from| {
            let msg = Msg::ClientTimer {
                kind: GC_TIMER,
                tag: 0,
            };
            drive(&mut replica, at(now), from, msg, &mut rng, &mut metrics)
        };
        let due = SimTime::ZERO + delay;
        let forged = fire(SimTime::from_micros(due.as_micros() / 2), peers[1]);
        assert!(forged.is_empty(), "{forged:?}");
        let armed = fire(due, peers[0]);
        assert!(matches!(armed[..], [Effect::Timer { .. }]), "{armed:?}");
    }
}
