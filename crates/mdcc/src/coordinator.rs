//! The transaction coordinator: the app-server-side state machine that
//! executes a transaction end to end and streams progress events back to the
//! submitting client.
//!
//! Lifecycle of a transaction:
//!
//! 1. `Submit` — assign a [`TxnId`], start the server-side timeout, read all
//!    touched keys at the local replica.
//! 2. `ReadResp` — hand the read results to the client (`ReadsDone`), build
//!    one option per write, and propose them along the configured path
//!    (fast: to every replica; classic/2PC: to each key's master).
//! 3. `Vote*` — forward every vote as a `Progress` event (this is the raw
//!    signal PLANET's likelihood model feeds on), resolve keys as quorums
//!    form or become impossible, and decide the instant all keys resolve.
//! 4. Broadcast per-key `Decide` to the masters and emit `TxnDone`.
//!
//! Read-only transactions commit locally after step 2 — they never touch the
//! WAN, mirroring MDCC's local read-committed reads.
//!
//! # Compiled plans
//!
//! Next to the interpreted `Submit` path the coordinator runs a *compiled*
//! one: clients register a [`planet_plan::TxnProgram`] once (`RegisterPlan`),
//! the coordinator specializes it against its own `ClusterConfig` into a
//! [`CompiledPlan`], and every subsequent `SubmitPlan { plan, params }`
//! executes the precompiled shape — no key strings hashed (shard and master
//! routes were baked in at compile time), no `touched_keys()` dedup (the
//! slot array *is* the deduplicated key set), no per-submit `BTreeMap`s
//! (per-execution state lives in a pooled [`PlanExec`] slab slot whose
//! vectors retain their capacity across transactions). The two paths emit
//! bit-identical message sequences for equivalent inputs — that equivalence
//! is what the property tests and the model checker's digest-neutrality
//! check pin down.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use planet_plan::{CompiledPlan, KeyRoute, PlanError, PlanId, PlanParam, TxnProgram};
use planet_sim::{Actor, ActorId, Context, SimTime, SiteId};
use planet_storage::{Key, RecordOption, TxnId, WriteOp};

use crate::config::{ClusterConfig, Protocol};
use crate::messages::{KeyRead, Msg, Outcome, ProgressStage, ReadLevel, TxnSpec, TxnStats};

/// A set of sites packed into a 64-bit mask (`ClusterConfig::new` caps
/// clusters at 64 sites). Vote tallies used to be `Vec<SiteId>` pairs — two
/// heap allocations per written key per transaction; the mask makes vote
/// bookkeeping allocation-free and membership tests a single AND.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct SiteMask(u64);

impl SiteMask {
    fn contains(self, site: SiteId) -> bool {
        // `& 63` keeps the shift in range even for out-of-contract ids.
        self.0 & (1u64 << (site.0 & 63)) != 0
    }

    fn insert(&mut self, site: SiteId) {
        self.0 |= 1u64 << (site.0 & 63);
    }

    fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    fn is_empty(self) -> bool {
        self.0 == 0
    }

    fn clear(&mut self) {
        self.0 = 0;
    }

    /// Member sites in ascending id order.
    fn sites(self) -> impl Iterator<Item = SiteId> {
        (0u8..64)
            .filter(move |b| self.0 & (1u64 << b) != 0)
            .map(SiteId)
    }
}

/// Vote bookkeeping for one key. `Copy`: both tallies are site masks.
#[derive(Debug, Clone, Copy, Default)]
struct KeyVotes {
    accepts: SiteMask,
    rejects: SiteMask,
    resolved: Option<bool>,
    /// Current proposal round: 0 = first attempt; 1 = the fast path's
    /// master-routed fallback after a collision. Stale votes from earlier
    /// rounds are discarded by comparing against this.
    round: u8,
}

/// A transaction in flight at this coordinator (interpreted path).
struct TxnState {
    tag: u64,
    reply_to: ActorId,
    spec: TxnSpec,
    submitted_at: SimTime,
    proposals_sent_at: Option<SimTime>,
    // BTreeMaps: iteration order feeds message send order, which must be
    // deterministic for replays to be exact.
    options: BTreeMap<Key, RecordOption>,
    votes: BTreeMap<Key, KeyVotes>,
    votes_received: usize,
    rejections: usize,
    /// Read responses collected so far (one entry per responding replica).
    read_buffer: Vec<Vec<KeyRead>>,
    /// Responses still required per touched shard before reads complete
    /// (1 per shard for local reads, a classic quorum for quorum reads).
    reads_outstanding: BTreeMap<usize, usize>,
    /// True once reads completed and proposals went out (late `ReadResp`s
    /// are then ignored).
    reads_done: bool,
}

/// One compiled-plan execution: the flat mirror of [`TxnState`]. Every
/// collection is a plain vector indexed by the plan's slot/step numbers, and
/// the whole struct lives in a slab slot that is recycled (capacities
/// retained) when the transaction finishes — steady-state executions touch
/// the allocator only for the payloads they ship in messages.
struct PlanExec {
    plan: PlanId,
    tag: u64,
    reply_to: ActorId,
    params: Vec<PlanParam>,
    submitted_at: SimTime,
    proposals_sent_at: Option<SimTime>,
    /// Resolved key per plan slot (first-use order, exactly the order
    /// `TxnSpec::touched_keys` would produce).
    keys: Vec<Key>,
    /// Route per plan slot, parallel to `keys`.
    routes: Vec<KeyRoute>,
    /// Materialized write op per plan step (program order); turned into
    /// options once reads complete.
    ops: Vec<WriteOp>,
    /// One option per plan step, built at reads-done (empty before).
    options: Vec<RecordOption>,
    /// One tally per plan step, parallel to `options`.
    votes: Vec<KeyVotes>,
    /// Step indices in key-sorted order (the `Decide` broadcast order the
    /// interpreted path gets from its options `BTreeMap`); filled at
    /// reads-done from the plan's precomputed permutation when available.
    sorted_steps: Vec<u16>,
    votes_received: usize,
    rejections: usize,
    read_buffer: Vec<Vec<KeyRead>>,
    /// `(shard, responses still required)`, ascending by shard — the flat
    /// twin of `TxnState::reads_outstanding`.
    reads_outstanding: Vec<(u32, usize)>,
    reads_done: bool,
}

impl Default for PlanExec {
    fn default() -> Self {
        PlanExec {
            plan: 0,
            tag: 0,
            reply_to: ActorId(0),
            params: Vec::new(),
            submitted_at: SimTime::ZERO,
            proposals_sent_at: None,
            keys: Vec::new(),
            routes: Vec::new(),
            ops: Vec::new(),
            options: Vec::new(),
            votes: Vec::new(),
            sorted_steps: Vec::new(),
            votes_received: 0,
            rejections: 0,
            read_buffer: Vec::new(),
            reads_outstanding: Vec::new(),
            reads_done: false,
        }
    }
}

impl PlanExec {
    /// Reset for reuse, retaining every vector's capacity.
    fn clear(&mut self) {
        self.plan = 0;
        self.tag = 0;
        self.reply_to = ActorId(0);
        self.params.clear();
        self.submitted_at = SimTime::ZERO;
        self.proposals_sent_at = None;
        self.keys.clear();
        self.routes.clear();
        self.ops.clear();
        self.options.clear();
        self.votes.clear();
        self.sorted_steps.clear();
        self.votes_received = 0;
        self.rejections = 0;
        self.read_buffer.clear();
        self.reads_outstanding.clear();
        self.reads_done = false;
    }
}

/// Forwarding state for a decided transaction, kept until its original
/// timeout fires so that *late* votes still reach the client — the
/// likelihood model needs the slowest replicas' response times, which by
/// definition arrive after the quorum decided.
struct RecentTxn {
    tag: u64,
    reply_to: ActorId,
    proposals_sent_at: Option<SimTime>,
}

/// The coordinator actor. One per site; clients submit to their local
/// coordinator.
pub struct CoordinatorActor {
    config: ClusterConfig,
    /// Replica actor ids, shard-major: `replicas[shard * num_sites + site]`.
    /// Every key-carrying send resolves its destination through
    /// [`ClusterConfig::shard_of`] or a compiled route derived from it, so a
    /// key only ever talks to its shard.
    replicas: Vec<ActorId>,
    site: SiteId,
    next_seq: u64,
    inflight: HashMap<TxnId, TxnState>,
    recent: HashMap<TxnId, RecentTxn>,
    /// Registered plans, compiled against `config`. Excluded from
    /// `mck_digest` for the same reason `config` is: plans are registered
    /// before traffic and never mutate mid-run.
    plans: HashMap<PlanId, Arc<CompiledPlan>>,
    /// Slab of execution slots; `free_execs` holds recycled indices and
    /// `exec_of` maps an in-flight plan transaction to its slot.
    execs: Vec<PlanExec>,
    free_execs: Vec<u32>,
    exec_of: HashMap<TxnId, u32>,
    /// Recycled `TxnState::read_buffer` outer vectors (interpreted path).
    read_buffer_pool: Vec<Vec<Vec<KeyRead>>>,
    /// Scratch for the interpreted proposal round, reused across txns.
    proposal_scratch: Vec<(Key, RecordOption)>,
    names: OutcomeNames,
}

/// The per-outcome metric names. Protocol and site are fixed for an actor's
/// life, so they are spelled out once instead of on every transaction.
struct OutcomeNames {
    committed: String,
    commit_latency: String,
    commit_latency_site: String,
    aborted: String,
    timedout: String,
}

impl OutcomeNames {
    fn new(protocol: Protocol, site: SiteId) -> Self {
        let proto = protocol.name();
        OutcomeNames {
            committed: format!("txn.committed.{proto}"),
            commit_latency: format!("txn.commit_latency.{proto}"),
            commit_latency_site: format!("txn.commit_latency.{proto}.site{}", site.0),
            aborted: format!("txn.aborted.{proto}"),
            timedout: format!("txn.timedout.{proto}"),
        }
    }
}

/// Cap on pooled read buffers: enough for any realistic in-flight window,
/// bounded so a burst doesn't pin memory forever.
const READ_BUFFER_POOL_MAX: usize = 256;

impl CoordinatorActor {
    /// Build a coordinator for `site` over the given replicas, laid out
    /// shard-major (`replicas[shard * num_sites + site]`; with one shard
    /// this is simply "indexed by site").
    pub fn new(config: ClusterConfig, replicas: Vec<ActorId>, site: SiteId) -> Self {
        assert_eq!(
            replicas.len(),
            config.num_sites * config.num_shards.max(1),
            "one replica per (site, shard)"
        );
        CoordinatorActor {
            names: OutcomeNames::new(config.protocol, site),
            config,
            replicas,
            site,
            next_seq: 0,
            inflight: HashMap::new(),
            recent: HashMap::new(),
            plans: HashMap::new(),
            execs: Vec::new(),
            free_execs: Vec::new(),
            exec_of: HashMap::new(),
            read_buffer_pool: Vec::new(),
            proposal_scratch: Vec::new(),
        }
    }

    /// Number of transactions currently in flight (for tests/diagnostics),
    /// counting both interpreted and compiled executions.
    pub fn inflight_count(&self) -> usize {
        self.inflight.len() + self.exec_of.len()
    }

    /// Compile and register a plan directly (the message-free twin of
    /// `RegisterPlan`, used by harnesses that own the actor — the model
    /// checker installs plans before exploration starts so registration
    /// itself adds no interleavings).
    pub fn install_plan(&mut self, plan: PlanId, program: TxnProgram) -> Result<(), PlanError> {
        let compiled = CompiledPlan::compile(program, &self.config)?;
        self.plans.insert(plan, Arc::new(compiled));
        Ok(())
    }

    /// True if `plan` is registered and submittable.
    pub fn has_plan(&self, plan: PlanId) -> bool {
        self.plans.contains_key(&plan)
    }

    /// Digest every piece of protocol-visible state into `h`, remapping
    /// site/actor ids through `map` (see [`crate::digest`]). Hash-map
    /// contents are visited in txn-id order so the digest is independent of
    /// insertion history. Compiled executions digest *as the interpreted
    /// state they mirror* — same spec rendering, same key-sorted option and
    /// vote order — so a compiled run that tracks an interpreted run
    /// message-for-message also tracks it fingerprint-for-fingerprint.
    pub fn mck_digest<H: std::hash::Hasher>(&self, map: &crate::digest::DigestMap, h: &mut H) {
        use std::hash::Hash;
        map.site(self.site).hash(h);
        self.next_seq.hash(h);

        enum Entry<'a> {
            Spec(&'a TxnState),
            Plan(&'a PlanExec),
        }
        let mut inflight: Vec<(TxnId, Entry<'_>)> = Vec::new();
        // check:allow(determinism): sorted by txn id before hashing
        for (txn, state) in &self.inflight {
            inflight.push((*txn, Entry::Spec(state)));
        }
        // check:allow(determinism): gathered into the sorted Vec below
        for (txn, &idx) in &self.exec_of {
            if let Some(exec) = self.execs.get(idx as usize) {
                inflight.push((*txn, Entry::Plan(exec)));
            }
        }
        inflight.sort_by_key(|(t, _)| *t);
        // check:allow(determinism): iterates the sorted Vec, not the maps
        for (txn, entry) in inflight {
            txn.hash(h);
            match entry {
                Entry::Spec(st) => {
                    st.tag.hash(h);
                    map.actor(st.reply_to).hash(h);
                    crate::digest::dbg_hash(&st.spec, h);
                    st.submitted_at.hash(h);
                    st.proposals_sent_at.hash(h);
                    for (key, option) in &st.options {
                        key.hash(h);
                        crate::digest::digest_option(option, h);
                    }
                    for (key, votes) in &st.votes {
                        key.hash(h);
                        Self::digest_votes(votes, map, h);
                    }
                    st.votes_received.hash(h);
                    st.rejections.hash(h);
                    crate::digest::dbg_hash(&st.read_buffer, h);
                    for (shard, need) in &st.reads_outstanding {
                        shard.hash(h);
                        need.hash(h);
                    }
                    st.reads_done.hash(h);
                }
                Entry::Plan(exec) => {
                    exec.tag.hash(h);
                    map.actor(exec.reply_to).hash(h);
                    // Render the spec the interpreted path would have
                    // carried for the same inputs and hash that, so the
                    // two paths' states are digest-equal.
                    let plan = self.plans.get(&exec.plan);
                    let spec = plan
                        .and_then(|p| p.instantiate(&exec.params).ok())
                        .map(|inst| TxnSpec {
                            reads: inst.reads,
                            writes: inst.writes,
                            read_level: if inst.quorum_reads {
                                ReadLevel::Quorum
                            } else {
                                ReadLevel::Local
                            },
                        })
                        .unwrap_or_default();
                    crate::digest::dbg_hash(&spec, h);
                    exec.submitted_at.hash(h);
                    exec.proposals_sent_at.hash(h);
                    if let Some(plan) = plan {
                        // Options, then votes, both in key-sorted step
                        // order — the interpreted BTreeMap iteration order.
                        for &si in &exec.sorted_steps {
                            let Some(step) = plan.steps.get(si as usize) else {
                                continue;
                            };
                            let (Some(key), Some(option)) = (
                                exec.keys.get(step.slot as usize),
                                exec.options.get(si as usize),
                            ) else {
                                continue;
                            };
                            key.hash(h);
                            crate::digest::digest_option(option, h);
                        }
                        for &si in &exec.sorted_steps {
                            let Some(step) = plan.steps.get(si as usize) else {
                                continue;
                            };
                            let (Some(key), Some(votes)) = (
                                exec.keys.get(step.slot as usize),
                                exec.votes.get(si as usize),
                            ) else {
                                continue;
                            };
                            key.hash(h);
                            Self::digest_votes(votes, map, h);
                        }
                    }
                    exec.votes_received.hash(h);
                    exec.rejections.hash(h);
                    crate::digest::dbg_hash(&exec.read_buffer, h);
                    for &(shard, need) in &exec.reads_outstanding {
                        (shard as usize).hash(h);
                        need.hash(h);
                    }
                    exec.reads_done.hash(h);
                }
            }
        }
        // check:allow(determinism): sorted by txn id before hashing
        let mut recent: Vec<(&TxnId, &RecentTxn)> = self.recent.iter().collect();
        recent.sort_by_key(|(t, _)| **t);
        // check:allow(determinism): iterates the sorted Vec, not the map
        for (txn, r) in recent {
            txn.hash(h);
            r.tag.hash(h);
            map.actor(r.reply_to).hash(h);
            r.proposals_sent_at.hash(h);
        }
    }

    /// Digest one key's tally. Masks iterate ascending by raw site id, but
    /// the digest must be stable under the checker's site remapping, so the
    /// mapped ids are re-sorted — exactly what the Vec-based tally digested.
    fn digest_votes<H: std::hash::Hasher>(
        votes: &KeyVotes,
        map: &crate::digest::DigestMap,
        h: &mut H,
    ) {
        use std::hash::Hash;
        let mut accepts: Vec<u8> = votes.accepts.sites().map(|s| map.site(s)).collect();
        accepts.sort_unstable();
        accepts.hash(h);
        let mut rejects: Vec<u8> = votes.rejects.sites().map(|s| map.site(s)).collect();
        rejects.sort_unstable();
        rejects.hash(h);
        votes.resolved.hash(h);
        votes.round.hash(h);
    }

    /// The replication group of `key`'s shard: the same-shard replica at
    /// every site, indexed by site.
    fn shard_replicas(&self, key: &Key) -> &[ActorId] {
        let n = self.config.num_sites;
        let shard = self.config.shard_of(key);
        // In bounds: the constructor asserts `replicas.len() == shards * n`
        // and `shard_of` ranges over `0..shards`.
        // check:allow(panic)
        &self.replicas[shard * n..(shard + 1) * n]
    }

    /// The replica mastering `key`: the master site's member of the key's
    /// shard group.
    fn master_replica_for(&self, key: &Key) -> ActorId {
        // In bounds: the group has `num_sites` members and `master_of`
        // ranges over `0..num_sites`.
        // check:allow(panic)
        self.shard_replicas(key)[self.config.master_of(key).0 as usize]
    }

    /// The replication group of a precompiled shard route: the compiled twin
    /// of [`Self::shard_replicas`] — the shard index comes from the plan's
    /// `KeyRoute` instead of hashing the key.
    fn route_replicas(&self, shard: u32) -> &[ActorId] {
        let n = self.config.num_sites;
        let shard = shard as usize;
        // In bounds: the constructor asserts `replicas.len() == shards * n`
        // and compiled routes come from `shard_of`, ranging over `0..shards`.
        // check:allow(panic)
        &self.replicas[shard * n..(shard + 1) * n]
    }

    /// The replica mastering a routed key: the compiled twin of
    /// [`Self::master_replica_for`].
    fn route_master(&self, route: KeyRoute) -> ActorId {
        // In bounds: the group has `num_sites` members and compiled masters
        // come from `master_of`, ranging over `0..num_sites`.
        // check:allow(panic)
        self.route_replicas(route.shard)[route.master as usize]
    }

    /// How many voters will ever speak for a key under the current protocol.
    fn voters_per_key(&self) -> usize {
        match self.config.protocol {
            Protocol::Fast | Protocol::Classic => self.config.num_sites,
            Protocol::TwoPc => 1,
        }
    }

    fn progress(
        &self,
        state: &TxnState,
        txn: TxnId,
        stage: ProgressStage,
        ctx: &mut Context<'_, Msg>,
    ) {
        ctx.send(
            state.reply_to,
            Msg::Progress {
                tag: state.tag,
                txn,
                stage,
            },
        );
    }

    fn handle_submit(
        &mut self,
        spec: TxnSpec,
        reply_to: ActorId,
        tag: u64,
        ctx: &mut Context<'_, Msg>,
    ) {
        let txn = TxnId::new(self.site.0, self.next_seq);
        self.next_seq += 1;
        // Partition the touched keys by shard: one ReadReq per shard group
        // (spec order preserved within a group), since each shard's replica
        // only holds its own keyspace slice. `for_each_touched` visits the
        // deduplicated keys by reference — no intermediate key vector.
        let mut groups: BTreeMap<usize, Vec<Key>> = BTreeMap::new();
        spec.for_each_touched(|key| {
            let shard = self.config.shard_of(key);
            groups.entry(shard).or_default().push(key.clone());
        });
        let mut state = TxnState {
            tag,
            reply_to,
            spec,
            submitted_at: ctx.now(),
            proposals_sent_at: None,
            options: BTreeMap::new(),
            votes: BTreeMap::new(),
            votes_received: 0,
            rejections: 0,
            read_buffer: self.read_buffer_pool.pop().unwrap_or_default(),
            reads_outstanding: BTreeMap::new(),
            reads_done: false,
        };
        let read_level = state.spec.read_level;
        let need = match read_level {
            ReadLevel::Local => 1,
            ReadLevel::Quorum => self.config.classic_quorum(),
        };
        for &shard in groups.keys() {
            state.reads_outstanding.insert(shard, need);
        }
        self.progress(&state, txn, ProgressStage::Started, ctx);
        let timeout = self.config.txn_timeout;
        self.inflight.insert(txn, state);
        ctx.schedule(timeout, Msg::TxnTimeout { txn });

        if groups.is_empty() {
            self.finish(txn, Outcome::Committed, ctx);
            return;
        }
        let n = self.config.num_sites;
        let site = self.site.0 as usize;
        for (shard, keys) in groups {
            match read_level {
                ReadLevel::Local => {
                    // This site's member of the key group's shard (shard_of
                    // routed: the group was keyed by `shard_of` above).
                    // In bounds: constructor-asserted shard-major layout.
                    // check:allow(panic)
                    ctx.send(self.replicas[shard * n + site], Msg::ReadReq { txn, keys });
                }
                ReadLevel::Quorum => {
                    // In bounds: constructor-asserted shard-major layout.
                    // check:allow(panic)
                    for &replica in &self.replicas[shard * n..(shard + 1) * n] {
                        ctx.send(
                            replica,
                            Msg::ReadReq {
                                txn,
                                keys: keys.clone(),
                            },
                        );
                    }
                }
            }
        }
    }

    /// Compile and register a plan in response to a `RegisterPlan` message.
    /// Success is acknowledged with `PlanReady`; a program that fails to
    /// validate gets no reply (counted in `plan.register_rejected`).
    fn handle_register_plan(
        &mut self,
        plan: PlanId,
        program: TxnProgram,
        reply_to: ActorId,
        ctx: &mut Context<'_, Msg>,
    ) {
        match self.install_plan(plan, program) {
            Ok(()) => ctx.send(reply_to, Msg::PlanReady { plan }),
            Err(_) => {
                ctx.metrics().counter("plan.register_rejected").inc();
            }
        }
    }

    /// Reject a plan submission that cannot start (unknown plan, bad
    /// parameters), counted under `counter`: report `Aborted` immediately so
    /// closed-loop clients make progress instead of waiting out the
    /// server-side timeout.
    fn reject_submission(
        &mut self,
        reply_to: ActorId,
        tag: u64,
        counter: &'static str,
        ctx: &mut Context<'_, Msg>,
    ) {
        ctx.metrics().counter(counter).inc();
        let txn = TxnId::new(self.site.0, self.next_seq);
        self.next_seq += 1;
        let now = ctx.now();
        ctx.send(
            reply_to,
            Msg::TxnDone {
                tag,
                txn,
                outcome: Outcome::Aborted,
                stats: TxnStats {
                    submitted_at: now,
                    decided_at: now,
                    proposals_sent_at: SimTime::ZERO,
                    write_keys: 0,
                    votes_received: 0,
                    rejections: 0,
                },
            },
        );
    }

    /// The compiled submit path: resolve the plan's key slots (clones of
    /// interned keys plus precomputed routes — no hashing), materialize the
    /// write ops straight from the params, and issue the shard-grouped read
    /// round. Emits exactly the message sequence `handle_submit` would for
    /// the instantiated equivalent.
    fn handle_submit_plan(
        &mut self,
        plan_id: PlanId,
        params: Vec<PlanParam>,
        reply_to: ActorId,
        tag: u64,
        ctx: &mut Context<'_, Msg>,
    ) {
        let Some(plan) = self.plans.get(&plan_id).cloned() else {
            self.reject_submission(reply_to, tag, "plan.unknown", ctx);
            return;
        };
        let idx = match self.free_execs.pop() {
            Some(i) => i as usize,
            None => {
                self.execs.push(PlanExec::default());
                self.execs.len() - 1
            }
        };
        // In bounds: idx is from the free list or the push above.
        // check:allow(panic)
        let exec = &mut self.execs[idx];
        exec.clear();
        exec.plan = plan_id;
        exec.tag = tag;
        exec.reply_to = reply_to;
        exec.params = params;
        exec.submitted_at = ctx.now();
        if let Err(err) =
            plan.resolve_slots(&exec.params, &self.config, &mut exec.keys, &mut exec.routes)
        {
            let params = std::mem::take(&mut exec.params);
            exec.clear();
            self.free_execs.push(idx as u32);
            if err == PlanError::AliasedKeys {
                // Two references resolved to the same key at runtime: the
                // compiled one-slot-per-key layout no longer matches, so run
                // this execution through the interpreted path instead.
                if let Ok(inst) = plan.instantiate(&params) {
                    ctx.metrics().counter("plan.fallback_interpreted").inc();
                    let spec = TxnSpec {
                        reads: inst.reads,
                        writes: inst.writes,
                        read_level: if inst.quorum_reads {
                            ReadLevel::Quorum
                        } else {
                            ReadLevel::Local
                        },
                    };
                    self.handle_submit(spec, reply_to, tag, ctx);
                    return;
                }
            }
            self.reject_submission(reply_to, tag, "plan.bad_params", ctx);
            return;
        }
        // Devirtualized write ops: constant steps clone a prebuilt op,
        // parameterized steps read straight from the argument slice.
        for step in &plan.steps {
            match step.op.materialize(&exec.params) {
                Ok(op) => exec.ops.push(op),
                Err(_) => {
                    exec.clear();
                    self.free_execs.push(idx as u32);
                    self.reject_submission(reply_to, tag, "plan.bad_params", ctx);
                    return;
                }
            }
        }
        // One read round per touched shard group (ascending shard order,
        // like the interpreted path's BTreeMap), a classic quorum each for
        // quorum-read plans.
        let need = if plan.quorum_reads {
            self.config.classic_quorum()
        } else {
            1
        };
        let PlanExec {
            ref routes,
            ref mut reads_outstanding,
            ..
        } = *exec;
        for route in routes {
            match reads_outstanding.binary_search_by_key(&route.shard, |e| e.0) {
                Ok(_) => {}
                Err(pos) => reads_outstanding.insert(pos, (route.shard, need)),
            }
        }
        let txn = TxnId::new(self.site.0, self.next_seq);
        self.next_seq += 1;
        ctx.send(
            exec.reply_to,
            Msg::Progress {
                tag: exec.tag,
                txn,
                stage: ProgressStage::Started,
            },
        );
        let no_keys = exec.routes.is_empty();
        self.exec_of.insert(txn, idx as u32);
        ctx.schedule(self.config.txn_timeout, Msg::TxnTimeout { txn });
        if no_keys {
            self.finish_plan(txn, Outcome::Committed, ctx);
            return;
        }
        // In bounds: just filled above.
        // check:allow(panic)
        let exec = &self.execs[idx];
        let site = self.site.0 as usize;
        for &(shard, _) in &exec.reads_outstanding {
            // This shard's keys in slot order — the order `touched_keys`
            // would have produced within the group.
            let keys: Vec<Key> = exec
                .keys
                .iter()
                .zip(&exec.routes)
                .filter(|&(_, r)| r.shard == shard)
                .map(|(k, _)| k.clone())
                .collect();
            if plan.quorum_reads {
                for &replica in self.route_replicas(shard) {
                    ctx.send(
                        replica,
                        Msg::ReadReq {
                            txn,
                            keys: keys.clone(),
                        },
                    );
                }
            } else {
                // In bounds: `site < num_sites` by construction.
                // check:allow(panic)
                ctx.send(self.route_replicas(shard)[site], Msg::ReadReq { txn, keys });
            }
        }
    }

    /// Merge quorum read responses: per key, keep the freshest committed
    /// version; report the most pessimistic (largest) pending count as the
    /// contention hint.
    fn merge_reads(buffer: &[Vec<KeyRead>]) -> Vec<KeyRead> {
        let mut merged: BTreeMap<Key, KeyRead> = BTreeMap::new();
        for resp in buffer {
            for read in resp {
                merged
                    .entry(read.key.clone())
                    .and_modify(|best| {
                        if read.version > best.version {
                            best.version = read.version;
                            best.value = read.value.clone();
                        }
                        best.pending = best.pending.max(read.pending);
                    })
                    .or_insert_with(|| read.clone());
            }
        }
        merged.into_values().collect()
    }

    fn handle_read_resp(&mut self, txn: TxnId, results: Vec<KeyRead>, ctx: &mut Context<'_, Msg>) {
        // A response covers exactly one shard group (ReadReqs were
        // partitioned by `shard_of`), so its first key identifies the group.
        let Some(shard) = results.first().map(|r| self.config.shard_of(&r.key)) else {
            return;
        };
        // Phase 1: buffer the response; bail until every group's quorum is
        // satisfied.
        {
            let Some(state) = self.inflight.get_mut(&txn) else {
                return;
            };
            if state.reads_done {
                return; // late response from a quorum read already satisfied
            }
            let Some(remaining) = state.reads_outstanding.get_mut(&shard) else {
                return; // this shard group is already satisfied
            };
            state.read_buffer.push(results);
            *remaining -= 1;
            if *remaining == 0 {
                state.reads_outstanding.remove(&shard);
            }
            if !state.reads_outstanding.is_empty() {
                return; // keep waiting for the remaining groups / quorums
            }
        }
        // Phase 2: reads complete — merge, build the proposal round into the
        // reusable scratch vector, then send.
        let mut proposals = std::mem::take(&mut self.proposal_scratch);
        proposals.clear();
        let (results, writes_empty, tag, reply_to) = {
            let Some(state) = self.inflight.get_mut(&txn) else {
                self.proposal_scratch = proposals;
                return;
            };
            // Single local response: pass it through in spec order. Anything
            // buffered from several replicas or shards merges to key order.
            let results = match (state.spec.read_level, state.read_buffer.len()) {
                (ReadLevel::Local, 1) => state.read_buffer.pop().unwrap_or_default(),
                _ => Self::merge_reads(&state.read_buffer),
            };
            state.reads_done = true;
            // Borrow the writes out of the spec (restored below) so options
            // build without cloning the write list.
            let writes = std::mem::take(&mut state.spec.writes);
            let writes_empty = writes.is_empty();
            if !writes_empty {
                state.proposals_sent_at = Some(ctx.now());
                for (key, op) in &writes {
                    // Specs are small: a linear scan beats building a
                    // version map per transaction.
                    let read_version = results
                        .iter()
                        .find(|r| r.key == *key)
                        .map_or(0, |r| r.version);
                    let option = RecordOption::new(txn, read_version, op.clone());
                    state.options.insert(key.clone(), option.clone());
                    state.votes.insert(key.clone(), KeyVotes::default());
                    proposals.push((key.clone(), option));
                }
            }
            state.spec.writes = writes;
            (results, writes_empty, state.tag, state.reply_to)
        };
        if self.config.trace.is_on() {
            for r in &results {
                self.config.trace.emit(crate::trace::TraceEvent::Read {
                    txn,
                    key: r.key.clone(),
                    version: r.version,
                    site: self.site,
                    shard: self.config.shard_of(&r.key),
                    at: ctx.now(),
                });
            }
        }
        ctx.send(
            reply_to,
            Msg::Progress {
                tag,
                txn,
                stage: ProgressStage::ReadsDone { reads: results },
            },
        );
        if writes_empty {
            self.proposal_scratch = proposals;
            self.finish(txn, Outcome::Committed, ctx);
            return;
        }
        let me = ctx.self_id();
        for (key, option) in proposals.drain(..) {
            match self.config.protocol {
                Protocol::Fast => {
                    for &replica in self.shard_replicas(&key) {
                        ctx.send(
                            replica,
                            Msg::FastPropose {
                                txn,
                                key: key.clone(),
                                option: option.clone(),
                                round: 0,
                            },
                        );
                    }
                }
                Protocol::Classic | Protocol::TwoPc => {
                    let master = self.master_replica_for(&key);
                    ctx.send(
                        master,
                        Msg::Propose {
                            txn,
                            key,
                            option,
                            coordinator: me,
                            round: 0,
                        },
                    );
                }
            }
        }
        self.proposal_scratch = proposals;
    }

    /// The compiled read-completion path: slot lookups replace key hashing,
    /// options materialize from the prebuilt ops, and the decide order comes
    /// from the plan's precomputed permutation.
    fn plan_read_resp(&mut self, txn: TxnId, results: Vec<KeyRead>, ctx: &mut Context<'_, Msg>) {
        let Some(&idx) = self.exec_of.get(&txn) else {
            return;
        };
        let idx = idx as usize;
        let Some(plan) = self
            .execs
            .get(idx)
            .and_then(|e| self.plans.get(&e.plan))
            .cloned()
        else {
            return;
        };
        let (results, tag, reply_to, steps_empty) = {
            // In bounds: `exec_of` only holds live slab indices.
            // check:allow(panic)
            let exec = &mut self.execs[idx];
            if exec.reads_done {
                return; // late response from a quorum read already satisfied
            }
            let Some(first) = results.first() else {
                return;
            };
            // The response covers one shard group; its first key identifies
            // the group — found by slot scan, not by re-hashing the key.
            let Some(slot) = exec.keys.iter().position(|k| *k == first.key) else {
                return;
            };
            // In bounds: `routes` is parallel to `keys`.
            // check:allow(panic)
            let shard = exec.routes[slot].shard;
            let Some(pos) = exec.reads_outstanding.iter().position(|e| e.0 == shard) else {
                return; // this shard group is already satisfied
            };
            exec.read_buffer.push(results);
            // In bounds: `pos` came from `position` just above.
            // check:allow(panic)
            let group = &mut exec.reads_outstanding[pos];
            group.1 -= 1;
            if group.1 == 0 {
                exec.reads_outstanding.remove(pos);
            }
            if !exec.reads_outstanding.is_empty() {
                return; // keep waiting for the remaining groups / quorums
            }
            let results = if !plan.quorum_reads && exec.read_buffer.len() == 1 {
                exec.read_buffer.pop().unwrap_or_default()
            } else {
                Self::merge_reads(&exec.read_buffer)
            };
            exec.reads_done = true;
            if !plan.steps.is_empty() {
                exec.proposals_sent_at = Some(ctx.now());
            }
            let PlanExec {
                ref keys,
                ref ops,
                ref mut options,
                ref mut votes,
                ref mut sorted_steps,
                ..
            } = *exec;
            for (step, op) in plan.steps.iter().zip(ops) {
                // In bounds: `resolve_slots` filled `keys` 1:1 with the
                // plan's slots, which `step.slot` indexes.
                // check:allow(panic)
                let key = &keys[step.slot as usize];
                let version = results
                    .iter()
                    .find(|r| r.key == *key)
                    .map_or(0, |r| r.version);
                options.push(RecordOption::new(txn, version, op.clone()));
                votes.push(KeyVotes::default());
            }
            match &plan.sorted_steps {
                Some(order) => sorted_steps.extend_from_slice(order),
                None => {
                    // Some written key was parameter- or template-derived:
                    // fix the decide order now that the keys are known.
                    sorted_steps.extend(0..plan.steps.len() as u16);
                    // In bounds: step indices index `plan.steps`, slots
                    // index `keys` (as above).
                    let slot_key = |s: u16| {
                        // check:allow(panic)
                        &keys[plan.steps[s as usize].slot as usize]
                    };
                    sorted_steps.sort_by(|&a, &b| slot_key(a).cmp(slot_key(b)));
                }
            }
            (results, exec.tag, exec.reply_to, plan.steps.is_empty())
        };
        if self.config.trace.is_on() {
            // Trace-only (off on the hot path): hashing here keeps the
            // emitted shard ids identical to the interpreted path's.
            for r in &results {
                self.config.trace.emit(crate::trace::TraceEvent::Read {
                    txn,
                    key: r.key.clone(),
                    version: r.version,
                    site: self.site,
                    shard: self.config.shard_of(&r.key),
                    at: ctx.now(),
                });
            }
        }
        ctx.send(
            reply_to,
            Msg::Progress {
                tag,
                txn,
                stage: ProgressStage::ReadsDone { reads: results },
            },
        );
        if steps_empty {
            self.finish_plan(txn, Outcome::Committed, ctx);
            return;
        }
        // In bounds: checked at entry.
        // check:allow(panic)
        let exec = &self.execs[idx];
        let me = ctx.self_id();
        for (i, step) in plan.steps.iter().enumerate() {
            let slot = step.slot as usize;
            // In bounds: slots resolved 1:1 into keys/routes; options are
            // parallel to steps (built above).
            // check:allow(panic)
            let key = exec.keys[slot].clone();
            // check:allow(panic)
            let option = exec.options[i].clone();
            match self.config.protocol {
                Protocol::Fast => {
                    // check:allow(panic)
                    for &replica in self.route_replicas(exec.routes[slot].shard) {
                        ctx.send(
                            replica,
                            Msg::FastPropose {
                                txn,
                                key: key.clone(),
                                option: option.clone(),
                                round: 0,
                            },
                        );
                    }
                }
                Protocol::Classic | Protocol::TwoPc => {
                    // check:allow(panic)
                    let master = self.route_master(exec.routes[slot]);
                    ctx.send(
                        master,
                        Msg::Propose {
                            txn,
                            key,
                            option,
                            coordinator: me,
                            round: 0,
                        },
                    );
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)] // mirrors the wire message's fields
    fn handle_vote(
        &mut self,
        txn: TxnId,
        key: Key,
        site: SiteId,
        accept: bool,
        reason: Option<planet_storage::RejectReason>,
        round: u8,
        ctx: &mut Context<'_, Msg>,
    ) {
        let voters = self.voters_per_key();
        let Some(state) = self.inflight.get_mut(&txn) else {
            // Late vote for a decided transaction: still forward it so the
            // client's latency model learns the slow paths.
            if let Some(recent) = self.recent.get(&txn) {
                let elapsed_us = recent
                    .proposals_sent_at
                    .map_or(0, |at| ctx.now().since(at).as_micros());
                ctx.send(
                    recent.reply_to,
                    Msg::Progress {
                        tag: recent.tag,
                        txn,
                        stage: ProgressStage::Vote {
                            key,
                            site,
                            accept,
                            reason,
                            elapsed_us,
                        },
                    },
                );
            }
            return;
        };
        let elapsed_us = state
            .proposals_sent_at
            .map_or(0, |at| ctx.now().since(at).as_micros());
        let Some(kv) = state.votes.get_mut(&key) else {
            return;
        };
        // Stale votes from a superseded round are meaningless for the tally.
        if round != kv.round {
            return;
        }
        // Drop duplicate votes from the same site (possible under retries).
        if kv.accepts.contains(site) || kv.rejects.contains(site) {
            return;
        }
        if accept {
            kv.accepts.insert(site);
        } else {
            kv.rejects.insert(site);
            state.rejections += 1;
        }
        state.votes_received += 1;

        // Master-routed rounds — classic, 2PC, or a fast-path fallback
        // round — hear rejects only from the master, whose rejection is
        // definitive (no replication happened). Quorum size also depends on
        // the round: the fallback round needs only a classic majority.
        let master_routed = !matches!(self.config.protocol, Protocol::Fast) || kv.round > 0;
        let quorum = if kv.round > 0 {
            self.config.classic_quorum()
        } else {
            self.config.required_quorum()
        };
        let mut resolved_now = None;
        let mut fallback_now = false;
        if kv.resolved.is_none() {
            if kv.accepts.len() >= quorum {
                kv.resolved = Some(true);
                resolved_now = Some(true);
            } else if (master_routed && !kv.rejects.is_empty())
                || voters - kv.rejects.len() < quorum
            {
                if self.config.protocol == Protocol::Fast
                    && self.config.fast_fallback
                    && kv.round == 0
                    && kv.rejects.len() < self.config.classic_quorum()
                {
                    // Collision, not a definitive loss: fewer than a
                    // majority rejected, so the option may still win a
                    // classic round through the master. Reset the tally and
                    // retry once.
                    kv.round = 1;
                    kv.accepts.clear();
                    kv.rejects.clear();
                    fallback_now = true;
                } else {
                    kv.resolved = Some(false);
                    resolved_now = Some(false);
                }
            }
        }
        if fallback_now {
            // The votes entry implies the option was recorded with it; if it
            // somehow is not there, skip the retry rather than crash the
            // coordinator — the txn then resolves through the timeout path.
            if let Some(option) = state.options.get(&key).cloned() {
                let master = self.master_replica_for(&key);
                let me = ctx.self_id();
                ctx.send(
                    master,
                    Msg::Propose {
                        txn,
                        key: key.clone(),
                        option,
                        coordinator: me,
                        round: 1,
                    },
                );
                ctx.metrics().counter("txn.fast_fallbacks").inc();
                let Some(state) = self.inflight.get(&txn) else {
                    return;
                };
                self.progress(
                    state,
                    txn,
                    ProgressStage::KeyFallback { key: key.clone() },
                    ctx,
                );
            }
        }

        let Some(state) = self.inflight.get(&txn) else {
            return;
        };
        self.progress(
            state,
            txn,
            ProgressStage::Vote {
                key: key.clone(),
                site,
                accept,
                reason,
                elapsed_us,
            },
            ctx,
        );
        if let Some(ok) = resolved_now {
            self.progress(
                state,
                txn,
                ProgressStage::KeyResolved { key, accepted: ok },
                ctx,
            );
        }

        // Decide as soon as every key has resolved, or any key failed.
        let Some(state) = self.inflight.get(&txn) else {
            return;
        };
        let any_failed = state.votes.values().any(|kv| kv.resolved == Some(false));
        let all_ok = state.votes.values().all(|kv| kv.resolved == Some(true));
        if any_failed {
            self.finish(txn, Outcome::Aborted, ctx);
        } else if all_ok {
            self.finish(txn, Outcome::Committed, ctx);
        }
    }

    /// The compiled vote path: identical tally/quorum/fallback logic to
    /// [`Self::handle_vote`], over slot-indexed vectors.
    #[allow(clippy::too_many_arguments)] // mirrors the wire message's fields
    fn plan_vote(
        &mut self,
        txn: TxnId,
        key: Key,
        site: SiteId,
        accept: bool,
        reason: Option<planet_storage::RejectReason>,
        round: u8,
        ctx: &mut Context<'_, Msg>,
    ) {
        let Some(&idx) = self.exec_of.get(&txn) else {
            return;
        };
        let idx = idx as usize;
        let Some(plan) = self
            .execs
            .get(idx)
            .and_then(|e| self.plans.get(&e.plan))
            .cloned()
        else {
            return;
        };
        let voters = self.voters_per_key();
        let classic = self.config.classic_quorum();
        let round0_quorum = self.config.required_quorum();
        let protocol = self.config.protocol;
        let fast_fallback = self.config.fast_fallback;
        let (tag, reply_to, elapsed_us, resolved_now, fallback) = {
            // In bounds: `exec_of` only holds live slab indices.
            // check:allow(panic)
            let exec = &mut self.execs[idx];
            let elapsed_us = exec
                .proposals_sent_at
                .map_or(0, |at| ctx.now().since(at).as_micros());
            let Some(slot) = exec.keys.iter().position(|k| *k == key) else {
                return;
            };
            // A vote for a read-only slot has no tally — ignore it, exactly
            // as the interpreted path ignores keys absent from its votes map.
            let Some(step) = plan.slots.get(slot).and_then(|s| s.step) else {
                return;
            };
            let Some(kv) = exec.votes.get_mut(step as usize) else {
                return;
            };
            if round != kv.round {
                return;
            }
            if kv.accepts.contains(site) || kv.rejects.contains(site) {
                return;
            }
            if accept {
                kv.accepts.insert(site);
            } else {
                kv.rejects.insert(site);
                exec.rejections += 1;
            }
            exec.votes_received += 1;
            // In bounds: `get_mut` above proved `step` indexes `votes`.
            // check:allow(panic)
            let kv = &mut exec.votes[step as usize];
            let master_routed = !matches!(protocol, Protocol::Fast) || kv.round > 0;
            let quorum = if kv.round > 0 { classic } else { round0_quorum };
            let mut resolved_now = None;
            let mut fallback_now = false;
            if kv.resolved.is_none() {
                if kv.accepts.len() >= quorum {
                    kv.resolved = Some(true);
                    resolved_now = Some(true);
                } else if (master_routed && !kv.rejects.is_empty())
                    || voters - kv.rejects.len() < quorum
                {
                    if protocol == Protocol::Fast
                        && fast_fallback
                        && kv.round == 0
                        && kv.rejects.len() < classic
                    {
                        kv.round = 1;
                        kv.accepts.clear();
                        kv.rejects.clear();
                        fallback_now = true;
                    } else {
                        kv.resolved = Some(false);
                        resolved_now = Some(false);
                    }
                }
            }
            let fallback = if fallback_now {
                match (exec.options.get(step as usize), exec.routes.get(slot)) {
                    (Some(option), Some(route)) => Some((option.clone(), *route)),
                    _ => None,
                }
            } else {
                None
            };
            (exec.tag, exec.reply_to, elapsed_us, resolved_now, fallback)
        };
        if let Some((option, route)) = fallback {
            let master = self.route_master(route);
            let me = ctx.self_id();
            ctx.send(
                master,
                Msg::Propose {
                    txn,
                    key: key.clone(),
                    option,
                    coordinator: me,
                    round: 1,
                },
            );
            ctx.metrics().counter("txn.fast_fallbacks").inc();
            ctx.send(
                reply_to,
                Msg::Progress {
                    tag,
                    txn,
                    stage: ProgressStage::KeyFallback { key: key.clone() },
                },
            );
        }
        ctx.send(
            reply_to,
            Msg::Progress {
                tag,
                txn,
                stage: ProgressStage::Vote {
                    key: key.clone(),
                    site,
                    accept,
                    reason,
                    elapsed_us,
                },
            },
        );
        if let Some(ok) = resolved_now {
            ctx.send(
                reply_to,
                Msg::Progress {
                    tag,
                    txn,
                    stage: ProgressStage::KeyResolved { key, accepted: ok },
                },
            );
        }
        // In bounds: checked at entry.
        // check:allow(panic)
        let exec = &self.execs[idx];
        let any_failed = exec.votes.iter().any(|kv| kv.resolved == Some(false));
        let all_ok = exec.votes.iter().all(|kv| kv.resolved == Some(true));
        if any_failed {
            self.finish_plan(txn, Outcome::Aborted, ctx);
        } else if all_ok {
            self.finish_plan(txn, Outcome::Committed, ctx);
        }
    }

    fn handle_timeout(&mut self, txn: TxnId, ctx: &mut Context<'_, Msg>) {
        if self.inflight.contains_key(&txn) {
            self.finish(txn, Outcome::TimedOut, ctx);
            // `finish` just parked the txn in `recent` to keep the late-vote
            // forwarding window open, but the timer that expires that window
            // was consumed by this very firing — re-arm it, or the entry
            // leaks forever.
            ctx.schedule(self.config.txn_timeout, Msg::TxnTimeout { txn });
        } else if self.exec_of.contains_key(&txn) {
            self.finish_plan(txn, Outcome::TimedOut, ctx);
            ctx.schedule(self.config.txn_timeout, Msg::TxnTimeout { txn });
        } else {
            // The timeout doubles as the expiry of the late-vote forwarding
            // window.
            self.recent.remove(&txn);
        }
    }

    /// Outcome counters and commit-latency histograms, shared by the
    /// interpreted and compiled finish paths.
    /// Record the per-transaction latency-attribution span this actor owns:
    /// `span.quorum_wait_us`, proposal dispatch to decision — the slice of
    /// the commit path spent blocked on replica votes. (The other spans —
    /// queueing, WAL drive, network — are recorded by the runtime and the
    /// client, which are the actors that can observe them.)
    fn span_metrics(&self, stats: &TxnStats, ctx: &mut Context<'_, Msg>) {
        if stats.proposals_sent_at != SimTime::ZERO {
            ctx.metrics()
                .histogram("span.quorum_wait_us")
                .record(stats.quorum_wait_us());
        }
    }

    fn outcome_metrics(
        &self,
        outcome: Outcome,
        any_writes: bool,
        latency_us: u64,
        ctx: &mut Context<'_, Msg>,
    ) {
        let names = &self.names;
        match outcome {
            Outcome::Committed => {
                ctx.metrics().counter(&names.committed).inc();
                if any_writes {
                    ctx.metrics()
                        .histogram(&names.commit_latency)
                        .record(latency_us);
                    ctx.metrics()
                        .histogram(&names.commit_latency_site)
                        .record(latency_us);
                }
            }
            Outcome::Aborted => ctx.metrics().counter(&names.aborted).inc(),
            Outcome::TimedOut => ctx.metrics().counter(&names.timedout).inc(),
        }
    }

    /// Broadcast per-key decisions, emit the terminal event, drop state.
    fn finish(&mut self, txn: TxnId, outcome: Outcome, ctx: &mut Context<'_, Msg>) {
        let Some(state) = self.inflight.remove(&txn) else {
            return;
        };
        let commit = outcome.is_commit();
        for (key, option) in &state.options {
            let master = self.master_replica_for(key);
            ctx.send(
                master,
                Msg::Decide {
                    txn,
                    key: key.clone(),
                    option: option.clone(),
                    commit,
                },
            );
        }
        let stats = TxnStats {
            submitted_at: state.submitted_at,
            decided_at: ctx.now(),
            proposals_sent_at: state.proposals_sent_at.unwrap_or(SimTime::ZERO),
            write_keys: state.options.len(),
            votes_received: state.votes_received,
            rejections: state.rejections,
        };
        self.recent.insert(
            txn,
            RecentTxn {
                tag: state.tag,
                reply_to: state.reply_to,
                proposals_sent_at: state.proposals_sent_at,
            },
        );
        let latency = stats.decided_at.since(stats.submitted_at).as_micros();
        self.span_metrics(&stats, ctx);
        self.outcome_metrics(outcome, !state.options.is_empty(), latency, ctx);
        if self.config.trace.is_on() {
            self.config.trace.emit(crate::trace::TraceEvent::Finish {
                txn,
                outcome,
                at: ctx.now(),
            });
        }
        ctx.send(
            state.reply_to,
            Msg::TxnDone {
                tag: state.tag,
                txn,
                outcome,
                stats,
            },
        );
        // Recycle the read buffer's outer vector.
        let mut buf = state.read_buffer;
        if self.read_buffer_pool.len() < READ_BUFFER_POOL_MAX {
            buf.clear();
            self.read_buffer_pool.push(buf);
        }
    }

    /// The compiled finish path: decisions broadcast in precomputed
    /// key-sorted order, then the execution slot returns to the slab.
    fn finish_plan(&mut self, txn: TxnId, outcome: Outcome, ctx: &mut Context<'_, Msg>) {
        let Some(idx) = self.exec_of.remove(&txn) else {
            return;
        };
        let idx = idx as usize;
        let commit = outcome.is_commit();
        let plan = self
            .execs
            .get(idx)
            .and_then(|e| self.plans.get(&e.plan))
            .cloned();
        // In bounds: `exec_of` only holds live slab indices.
        // check:allow(panic)
        let exec = &self.execs[idx];
        if let Some(plan) = &plan {
            for &si in &exec.sorted_steps {
                let si = si as usize;
                // In bounds: `sorted_steps` indexes `plan.steps`; slots
                // resolved 1:1 into keys/routes; options parallel to steps.
                // check:allow(panic)
                let slot = plan.steps[si].slot as usize;
                // check:allow(panic)
                let master = self.route_master(exec.routes[slot]);
                ctx.send(
                    master,
                    Msg::Decide {
                        txn,
                        // check:allow(panic)
                        key: exec.keys[slot].clone(),
                        // check:allow(panic)
                        option: exec.options[si].clone(),
                        commit,
                    },
                );
            }
        }
        let stats = TxnStats {
            submitted_at: exec.submitted_at,
            decided_at: ctx.now(),
            proposals_sent_at: exec.proposals_sent_at.unwrap_or(SimTime::ZERO),
            write_keys: exec.options.len(),
            votes_received: exec.votes_received,
            rejections: exec.rejections,
        };
        let tag = exec.tag;
        let reply_to = exec.reply_to;
        let proposals_sent_at = exec.proposals_sent_at;
        let any_writes = !exec.options.is_empty();
        self.recent.insert(
            txn,
            RecentTxn {
                tag,
                reply_to,
                proposals_sent_at,
            },
        );
        let latency = stats.decided_at.since(stats.submitted_at).as_micros();
        self.span_metrics(&stats, ctx);
        self.outcome_metrics(outcome, any_writes, latency, ctx);
        if self.config.trace.is_on() {
            self.config.trace.emit(crate::trace::TraceEvent::Finish {
                txn,
                outcome,
                at: ctx.now(),
            });
        }
        ctx.send(
            reply_to,
            Msg::TxnDone {
                tag,
                txn,
                outcome,
                stats,
            },
        );
        // Return the slot to the slab, capacities intact.
        // check:allow(panic)
        let exec = &mut self.execs[idx];
        exec.clear();
        self.free_execs.push(idx as u32);
    }
}

impl Actor<Msg> for CoordinatorActor {
    fn on_message(&mut self, _from: ActorId, msg: Msg, ctx: &mut Context<'_, Msg>) {
        match msg {
            Msg::Submit {
                spec,
                reply_to,
                tag,
            } => self.handle_submit(spec, reply_to, tag, ctx),
            Msg::RegisterPlan {
                plan,
                program,
                reply_to,
            } => self.handle_register_plan(plan, program, reply_to, ctx),
            Msg::SubmitPlan {
                plan,
                params,
                reply_to,
                tag,
            } => self.handle_submit_plan(plan, params, reply_to, tag, ctx),
            Msg::ReadResp { txn, results } => {
                if self.exec_of.contains_key(&txn) {
                    self.plan_read_resp(txn, results, ctx);
                } else {
                    self.handle_read_resp(txn, results, ctx);
                }
            }
            Msg::Vote {
                txn,
                key,
                site,
                accept,
                reason,
                round,
            } => {
                if self.exec_of.contains_key(&txn) {
                    self.plan_vote(txn, key, site, accept, reason, round, ctx);
                } else {
                    self.handle_vote(txn, key, site, accept, reason, round, ctx);
                }
            }
            Msg::TxnTimeout { txn } => self.handle_timeout(txn, ctx),
            other => {
                debug_assert!(false, "coordinator received unexpected message: {other:?}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use planet_plan::{KeyRef, OpTemplate};

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
        let sites: Vec<u8> = m.sites().map(|s| s.0).collect();
        assert_eq!(sites, vec![0, 5]);
        m.clear();
        assert!(m.is_empty());
        assert!(!m.contains(SiteId(5)));
    }

    #[test]
    fn install_plan_compiles_against_the_cluster_config() {
        let config = ClusterConfig::new(3, Protocol::Fast);
        let replicas = (0..3).map(ActorId).collect();
        let mut coord = CoordinatorActor::new(config, replicas, SiteId(0));
        let mut prog = TxnProgram::new("bump");
        let k = prog.intern(Key::new("x"));
        let prog = prog.write(KeyRef::Fixed(k), OpTemplate::of(&WriteOp::add(1)));
        coord.install_plan(7, prog).expect("valid program installs");
        assert!(coord.has_plan(7));
        assert!(!coord.has_plan(8));

        // A program referencing a table entry that does not exist must be
        // rejected at registration, not at execution.
        let bad = TxnProgram::new("bad").read(KeyRef::Fixed(42));
        assert!(coord.install_plan(8, bad).is_err());
        assert!(!coord.has_plan(8));
    }
}
