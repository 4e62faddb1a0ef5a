//! The transaction coordinator: the app-server-side state machine that
//! executes a transaction end to end and streams progress events back to the
//! submitting client.
//!
//! # One machine, two lowerings
//!
//! A transaction arrives in one of two forms. `Submit` carries an ad-hoc
//! [`TxnSpec`]: key strings and write ops. `SubmitPlan` names a
//! [`planet_plan::TxnProgram`] registered earlier (`RegisterPlan`, compiled
//! once against this coordinator's `ClusterConfig` into a [`CompiledPlan`])
//! and carries only its parameters. Neither form is executed as it arrives:
//! each is *lowered* into an [`Exec`], a flat self-describing execution —
//! one slot per distinct touched key (the key, its shard and master route,
//! the write step that targets it), one step per write (its slot, its op,
//! later its option and vote tally) and the key-sorted decide order — held
//! in a slab slot whose vectors keep their capacity from one transaction to
//! the next. What is compiled is the lowering, not the machine:
//!
//! - [`Exec::lower_spec`] dedups the touched keys into slots (reads, then
//!   writes), hashes each distinct key twice for its route, moves the write
//!   ops out of the spec and sorts the decide order.
//! - [`Exec::lower_plan`] copies what `compile` worked out — interned keys
//!   with their routes, step ↔ slot links, the presorted decide order — and
//!   builds the ops from the parameters. Only derived keys are hashed, only
//!   plans whose parameters could alias two slots are checked for it, and an
//!   execution that does alias is lowered from its instantiated read/write
//!   lists by `lower_spec` instead (counted in `plan.fallback_interpreted`,
//!   a name that predates the single machine).
//!
//! Both give the same `Exec` for the same transaction — slots in
//! `TxnSpec::touched_keys` order, steps in write order — and both refuse
//! two writes to one key (a replica would take the second proposal for a
//! retry of the first and drop it): `reject_submission` answers `Aborted`
//! at once. After lowering one state machine runs, and it never looks at
//! the spec, the plan or the plan table again:
//!
//! 1. `start` — assign a [`TxnId`], start the server-side timeout, read
//!    every slot's key: one `ReadReq` per touched shard, to the local
//!    replica or (quorum reads) to the whole shard group.
//! 2. `ReadResp` — once every shard has answered, hand the read results to
//!    the client (`ReadsDone`), build one option per step, and propose them
//!    along the configured path (fast: to every replica; classic/2PC: to
//!    each key's master).
//! 3. `Vote` — forward every vote as a `Progress` event (this is the raw
//!    signal PLANET's likelihood model feeds on), resolve keys as quorums
//!    form or become impossible, and decide the instant all keys resolve.
//! 4. `finish` — broadcast per-key `Decide` to the masters in key order,
//!    emit `TxnDone`, return the slot to the slab.
//!
//! Read-only transactions commit locally after step 2 — they never touch the
//! WAN, mirroring MDCC's local read-committed reads.
//!
//! # One timeout for all transactions
//!
//! Every transaction shares `config.txn_timeout`, so deadlines come due in
//! submission order: `deadlines` is a queue with one `TxnTimeout` armed for
//! its head. A fire acts on every deadline due by then and re-arms; its
//! `txn` is not read, so a stale or forged one acts only on what is due.

use std::collections::{BTreeMap, HashMap, VecDeque};

use planet_plan::{CompiledPlan, KeyRoute, PlanError, PlanId, PlanParam, SlotFinder, TxnProgram};
use planet_sim::{Actor, ActorId, Context, SimTime, SiteId, SiteMask};
use planet_storage::{Key, KeyList, RecordOption, TxnId, VersionNo, WriteOp};

use crate::config::{ClusterConfig, Protocol};
use crate::messages::{KeyRead, Msg, Outcome, ProgressStage, ReadLevel, TxnSpec, TxnStats};

/// Vote bookkeeping for one key. `Copy`: both tallies are site masks.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct KeyVotes {
    accepts: SiteMask,
    rejects: SiteMask,
    resolved: Option<bool>,
    /// Current proposal round: 0 = first attempt; 1 = the fast path's
    /// master-routed fallback after a collision. Stale votes from earlier
    /// rounds are discarded by comparing against this.
    round: u8,
}

/// One transaction in flight: the flat form both submissions lower into
/// (see the module doc). Every collection is a plain vector indexed by slot
/// or step number, and the whole struct lives in a slab slot that is
/// recycled (capacities retained) when the transaction finishes —
/// steady-state executions touch the allocator only for the payloads they
/// ship in messages.
#[derive(Debug, Default, PartialEq)]
struct Exec {
    tag: u64,
    reply_to: ActorId,
    submitted_at: SimTime,
    proposals_sent_at: Option<SimTime>,
    /// Reads go to the whole shard group and wait for a classic quorum.
    quorum_reads: bool,
    /// Key per slot: the distinct touched keys, read keys first, then
    /// written ones (the order of `TxnSpec::touched_keys`).
    keys: Vec<Key>,
    /// Route per slot, parallel to `keys`.
    routes: Vec<KeyRoute>,
    /// Slot each step writes, in the order the writes were given.
    slot_of: Vec<u16>,
    /// Write op per step; turned into options once reads complete.
    ops: Vec<WriteOp>,
    /// One option per step, built at reads-done (empty before).
    options: Vec<RecordOption>,
    /// One tally per step, parallel to `options`.
    votes: Vec<KeyVotes>,
    /// Step indices in key order: the `Decide` broadcast order, and the
    /// index a vote's key is looked up in.
    sorted_steps: Vec<u16>,
    votes_received: usize,
    rejections: usize,
    /// Read responses collected so far (one entry per responding replica).
    read_buffer: Vec<Vec<KeyRead>>,
    /// Version read per slot, parallel to `keys`: filled when the read
    /// round completes, so each step finds its read version by slot.
    read_versions: Vec<VersionNo>,
    /// `(shard, responses still required)`, ascending by shard: 1 per
    /// touched shard for local reads, a classic quorum for quorum reads.
    reads_outstanding: Vec<(u32, usize)>,
    /// True once reads completed and proposals went out (late `ReadResp`s
    /// are then ignored).
    reads_done: bool,
}

impl Exec {
    /// Reset for reuse, retaining every vector's capacity.
    fn clear(&mut self) {
        self.tag = 0;
        self.reply_to = ActorId(0);
        self.submitted_at = SimTime::ZERO;
        self.proposals_sent_at = None;
        self.quorum_reads = false;
        self.keys.clear();
        self.routes.clear();
        self.slot_of.clear();
        self.ops.clear();
        self.options.clear();
        self.votes.clear();
        self.sorted_steps.clear();
        self.votes_received = 0;
        self.rejections = 0;
        self.read_buffer.clear();
        self.read_versions.clear();
        self.reads_outstanding.clear();
        self.reads_done = false;
    }

    /// Lower an ad-hoc spec into this (cleared) execution: one slot per
    /// distinct key, reads before writes, routed as it opens; one step per
    /// write, ops moved out of the spec; decide order sorted. Refuses more
    /// distinct keys than a `u16` slot index names and two writes to one key.
    fn lower_spec(&mut self, spec: TxnSpec, config: &ClusterConfig) -> Result<(), PlanError> {
        const MAX: usize = u16::MAX as usize;
        if spec.writes.len() > MAX {
            return Err(PlanError::TooManyOps(spec.writes.len()));
        }
        self.quorum_reads = spec.read_level == ReadLevel::Quorum;
        let mut finder = SlotFinder::default();
        let mut slot_for = |exec: &mut Exec, key: Key| {
            if let Some(slot) = finder.find(&exec.keys, &key) {
                return Ok(slot);
            }
            if exec.keys.len() == MAX {
                return Err(PlanError::TooManyOps(MAX + 1));
            }
            exec.routes.push(KeyRoute::of(config, &key));
            exec.keys.push(key);
            Ok((exec.keys.len() - 1) as u16)
        };
        for key in spec.reads {
            slot_for(self, key)?;
        }
        for (key, op) in spec.writes {
            let slot = slot_for(self, key)?;
            self.slot_of.push(slot);
            self.ops.push(op);
        }
        self.sort_steps();
        // Keys are one per slot, so two writes to one key are two steps on
        // one slot, and the key order has put them side by side.
        let mut neighbours = self
            .sorted_steps
            .iter()
            .zip(self.sorted_steps.iter().skip(1));
        if neighbours.any(|(&a, &b)| self.step_slot(a) == self.step_slot(b)) {
            return Err(PlanError::DuplicateWrite);
        }
        Ok(())
    }

    /// Lower one execution of a compiled plan into this (cleared)
    /// execution: the plan's slots resolved over `params` (clones of
    /// interned keys with their precomputed routes; only derived keys are
    /// hashed), ops built from the parameters, decide order copied when
    /// compilation could fix it. Parameters that make two slots one key
    /// break the plan's one-slot-per-reference layout; that execution is
    /// lowered from its instantiated read/write lists instead, and `true`
    /// is returned for it.
    fn lower_plan(
        &mut self,
        plan: &CompiledPlan,
        params: &[PlanParam],
        config: &ClusterConfig,
    ) -> Result<bool, PlanError> {
        match plan.resolve_slots(params, config, &mut self.keys, &mut self.routes) {
            Ok(()) => {}
            Err(PlanError::AliasedKeys) => {
                self.clear();
                self.lower_spec(plan.instantiate(params)?.into(), config)?;
                return Ok(true);
            }
            Err(err) => return Err(err),
        }
        self.quorum_reads = plan.quorum_reads;
        for step in &plan.steps {
            self.slot_of.push(step.slot);
            self.ops.push(step.op.materialize(params)?);
        }
        match &plan.sorted_steps {
            Some(order) => self.sorted_steps.extend_from_slice(order),
            // Some written key came from a parameter or a template: the
            // order can only be fixed now that the keys are known.
            None => self.sort_steps(),
        }
        Ok(false)
    }

    /// Fill `sorted_steps` with every step index, ordered by written key.
    fn sort_steps(&mut self) {
        let mut order = std::mem::take(&mut self.sorted_steps);
        // Step counts fit `u16`: both lowerings bound them.
        order.extend(0..self.slot_of.len() as u16);
        order.sort_by(|&a, &b| self.step_key(a).cmp(self.step_key(b)));
        self.sorted_steps = order;
    }

    /// The slot `step` writes.
    fn step_slot(&self, step: u16) -> usize {
        // In bounds: steps are indices into `slot_of` and the vectors
        // parallel to it, and come from nowhere else.
        // check:allow(panic)
        self.slot_of[step as usize] as usize
    }

    /// The key `step` writes.
    fn step_key(&self, step: u16) -> &Key {
        // check:allow(panic): slots index `keys`
        &self.keys[self.step_slot(step)]
    }

    /// The step writing `key`, if one does: a search of the key-ordered
    /// step index, so a vote costs a logarithm of the writes, not a scan.
    fn step_writing(&self, key: &Key) -> Option<u16> {
        let at = self
            .sorted_steps
            .binary_search_by(|&s| self.step_key(s).cmp(key))
            .ok()?;
        self.sorted_steps.get(at).copied()
    }
}

/// Forwarding state for a decided transaction, kept until its deadline
/// passes so that *late* votes still reach the client — the
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
    /// Every key-carrying send resolves its destination through a slot's
    /// [`KeyRoute`], taken from [`ClusterConfig::shard_of`] / `master_of`
    /// when the slot was lowered, so a key only ever talks to its shard.
    replicas: Vec<ActorId>,
    site: SiteId,
    next_seq: u64,
    recent: HashMap<TxnId, RecentTxn>,
    /// When each transaction in flight times out and each `recent` entry
    /// expires, in order; one `TxnTimeout` is armed for the head.
    deadlines: VecDeque<(SimTime, TxnId)>,
    /// Registered plans, compiled against `config`; read at submission
    /// only. Excluded from `mck_digest` for the same reason `config` is:
    /// plans are registered before traffic and never mutate mid-run.
    plans: HashMap<PlanId, CompiledPlan>,
    /// Slab of executions; `free_execs` holds the (cleared) recycled
    /// indices and `exec_of` maps a transaction in flight to its slot.
    execs: Vec<Exec>,
    free_execs: Vec<u32>,
    exec_of: HashMap<TxnId, u32>,
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
            recent: HashMap::new(),
            deadlines: VecDeque::new(),
            plans: HashMap::new(),
            execs: Vec::new(),
            free_execs: Vec::new(),
            exec_of: HashMap::new(),
        }
    }

    /// Number of transactions currently in flight (for tests/diagnostics).
    pub fn inflight_count(&self) -> usize {
        self.exec_of.len()
    }

    /// Compile and register a plan directly (the message-free twin of
    /// `RegisterPlan`, used by harnesses that own the actor — the model
    /// checker installs plans before exploration starts so registration
    /// itself adds no interleavings).
    pub fn install_plan(&mut self, plan: PlanId, program: TxnProgram) -> Result<(), PlanError> {
        let compiled = CompiledPlan::compile(program, &self.config)?;
        self.plans.insert(plan, compiled);
        Ok(())
    }

    /// True if `plan` is registered and submittable.
    pub fn has_plan(&self, plan: PlanId) -> bool {
        self.plans.contains_key(&plan)
    }

    /// Digest every piece of protocol-visible state into `h`, remapping
    /// site/actor ids through `map` (see [`crate::digest`]). Hash-map
    /// contents are visited in txn-id order so the digest is independent of
    /// insertion history. An execution digests as its lowered form, so the
    /// same transaction submitted as a spec and as a plan — which lower to
    /// equal `Exec`s — leaves the same fingerprint by construction.
    pub fn mck_digest<H: std::hash::Hasher>(&self, map: &crate::digest::DigestMap, h: &mut H) {
        use std::hash::Hash;
        map.site(self.site).hash(h);
        self.next_seq.hash(h);

        // check:allow(determinism): sorted by txn id before hashing
        let mut inflight: Vec<(&TxnId, &u32)> = self.exec_of.iter().collect();
        inflight.sort_by_key(|(t, _)| **t);
        // check:allow(determinism): iterates the sorted Vec, not the map
        for (txn, &idx) in inflight {
            let Some(exec) = self.execs.get(idx as usize) else {
                continue;
            };
            txn.hash(h);
            exec.tag.hash(h);
            map.actor(exec.reply_to).hash(h);
            exec.quorum_reads.hash(h);
            exec.keys.hash(h);
            exec.slot_of.hash(h);
            crate::digest::dbg_hash(&exec.ops, h);
            exec.submitted_at.hash(h);
            exec.proposals_sent_at.hash(h);
            // Options and tallies in key order, as the decision sends them
            // (both empty until reads complete).
            for &step in &exec.sorted_steps {
                let (Some(option), Some(votes)) = (
                    exec.options.get(step as usize),
                    exec.votes.get(step as usize),
                ) else {
                    continue;
                };
                crate::digest::digest_option(option, h);
                Self::digest_votes(votes, map, h);
            }
            exec.votes_received.hash(h);
            exec.rejections.hash(h);
            crate::digest::dbg_hash(&exec.read_buffer, h);
            exec.reads_outstanding.hash(h);
            exec.reads_done.hash(h);
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
        self.deadlines.hash(h);
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

    /// The replication group of a routed shard: the same-shard replica at
    /// every site, indexed by site. The shard comes from a slot's
    /// [`KeyRoute`], i.e. from `shard_of` at lowering or plan compilation.
    fn route_replicas(&self, shard: u32) -> &[ActorId] {
        let n = self.config.num_sites;
        let shard = shard as usize;
        // In bounds: the constructor asserts `replicas.len() == shards * n`
        // and routes come from `shard_of`, ranging over `0..shards`.
        // check:allow(panic)
        &self.replicas[shard * n..(shard + 1) * n]
    }

    /// The replica mastering a routed key: the master site's member of the
    /// key's shard group.
    fn route_master(&self, route: KeyRoute) -> ActorId {
        // In bounds: the group has `num_sites` members and route masters
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

    /// A cleared execution slot: recycled, or a new one at the slab's end.
    fn alloc_exec(&mut self) -> usize {
        match self.free_execs.pop() {
            Some(i) => i as usize,
            None => {
                self.execs.push(Exec::default());
                self.execs.len() - 1
            }
        }
    }

    /// Return a slot to the slab, cleared, capacities intact.
    fn release_exec(&mut self, idx: usize) {
        // In bounds: `idx` came from `alloc_exec` / `exec_of`.
        // check:allow(panic)
        self.execs[idx].clear();
        self.free_execs.push(idx as u32);
    }

    /// `Submit`: lower the spec on the spot and start the execution.
    fn handle_submit(
        &mut self,
        spec: TxnSpec,
        reply_to: ActorId,
        tag: u64,
        ctx: &mut Context<'_, Msg>,
    ) {
        let idx = self.alloc_exec();
        // check:allow(panic): `alloc_exec` returns a live slab index
        match self.execs[idx].lower_spec(spec, &self.config) {
            Ok(()) => self.start(idx, reply_to, tag, ctx),
            Err(_) => {
                self.release_exec(idx);
                self.reject_submission(reply_to, tag, "txn.bad_spec", ctx);
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
            // check:allow(flow): the benchmark's client (perf/src/generator.rs) handles it
            Ok(()) => ctx.send(reply_to, Msg::PlanReady { plan }),
            Err(_) => {
                ctx.metrics().counter("plan.register_rejected").inc();
            }
        }
    }

    /// Reject a submission that cannot start (unknown plan, bad parameters,
    /// a key written twice), counted under `counter`: report `Aborted`
    /// immediately so closed-loop clients make progress instead of waiting
    /// out the server-side timeout.
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

    /// `SubmitPlan`: lower one execution of a registered plan and start it.
    fn handle_submit_plan(
        &mut self,
        plan: PlanId,
        params: Vec<PlanParam>,
        reply_to: ActorId,
        tag: u64,
        ctx: &mut Context<'_, Msg>,
    ) {
        let idx = self.alloc_exec();
        // check:allow(panic): `alloc_exec` returns a live slab index
        let exec = &mut self.execs[idx];
        let lowered = match self.plans.get(&plan) {
            Some(plan) => exec
                .lower_plan(plan, &params, &self.config)
                .map_err(|_| "plan.bad_params"),
            None => Err("plan.unknown"),
        };
        match lowered {
            Ok(relowered) => {
                if relowered {
                    ctx.metrics().counter("plan.fallback_interpreted").inc();
                }
                self.start(idx, reply_to, tag, ctx);
            }
            Err(counter) => {
                self.release_exec(idx);
                self.reject_submission(reply_to, tag, counter, ctx);
            }
        }
    }

    /// Start a lowered execution: mint its id, queue its deadline (arming
    /// the timeout for an empty queue) and issue the read round — one
    /// `ReadReq` per touched shard in ascending shard order, its keys in
    /// slot order. A transaction that touches nothing commits on the spot.
    fn start(&mut self, idx: usize, reply_to: ActorId, tag: u64, ctx: &mut Context<'_, Msg>) {
        let txn = TxnId::new(self.site.0, self.next_seq);
        self.next_seq += 1;
        // check:allow(panic): the caller's `alloc_exec` index
        let exec = &mut self.execs[idx];
        exec.tag = tag;
        exec.reply_to = reply_to;
        exec.submitted_at = ctx.now();
        let need = if exec.quorum_reads {
            self.config.classic_quorum()
        } else {
            1
        };
        for route in &exec.routes {
            if let Err(pos) = exec
                .reads_outstanding
                .binary_search_by_key(&route.shard, |e| e.0)
            {
                exec.reads_outstanding.insert(pos, (route.shard, need));
            }
        }
        ctx.send(
            reply_to,
            Msg::Progress {
                tag,
                txn,
                stage: ProgressStage::Started,
            },
        );
        self.exec_of.insert(txn, idx as u32);
        let idle = self.deadlines.is_empty();
        self.deadlines
            .push_back((ctx.now() + self.config.txn_timeout, txn));
        if idle {
            self.arm_timeout(ctx);
        }
        // check:allow(panic): as above
        let exec = &self.execs[idx];
        if exec.keys.is_empty() {
            self.finish(txn, Outcome::Committed, ctx);
            return;
        }
        for &(shard, _) in &exec.reads_outstanding {
            let keys: KeyList = exec
                .keys
                .iter()
                .zip(&exec.routes)
                .filter(|&(_, r)| r.shard == shard)
                .map(|(k, _)| k.clone())
                .collect();
            let group = self.route_replicas(shard);
            if exec.quorum_reads {
                for &replica in group {
                    let keys = keys.clone();
                    ctx.send(replica, Msg::ReadReq { txn, keys });
                }
            } else {
                // In bounds: `site < num_sites` by construction.
                // check:allow(panic)
                ctx.send(group[self.site.0 as usize], Msg::ReadReq { txn, keys });
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
        let Some(&idx) = self.exec_of.get(&txn) else {
            return;
        };
        // In bounds: `exec_of` only holds live slab indices.
        // check:allow(panic)
        let exec = &mut self.execs[idx as usize];
        if exec.reads_done {
            return; // late response from a quorum read already satisfied
        }
        // A response covers exactly one shard group (`start` partitioned
        // the ReadReqs by route), so its first key's slot names the group;
        // a key the transaction never asked for names none.
        let Some(shard) = results
            .first()
            .and_then(|first| exec.keys.iter().position(|k| *k == first.key))
            .and_then(|slot| exec.routes.get(slot))
            .map(|route| route.shard)
        else {
            return;
        };
        let Some(pos) = exec.reads_outstanding.iter().position(|e| e.0 == shard) else {
            return; // this shard group is already satisfied
        };
        exec.read_buffer.push(results);
        // check:allow(panic): `pos` came from `position` just above
        let group = &mut exec.reads_outstanding[pos];
        group.1 -= 1;
        if group.1 == 0 {
            exec.reads_outstanding.remove(pos);
        }
        if !exec.reads_outstanding.is_empty() {
            return; // keep waiting for the remaining groups / quorums
        }
        // Reads complete. A single local response passes through in slot
        // order; anything buffered from several replicas or shards merges
        // to key order.
        let results = if !exec.quorum_reads && exec.read_buffer.len() == 1 {
            exec.read_buffer.pop().unwrap_or_default()
        } else {
            Self::merge_reads(&exec.read_buffer)
        };
        exec.reads_done = true;
        if !exec.ops.is_empty() {
            exec.proposals_sent_at = Some(ctx.now());
        }
        // Each result's version goes into the slot its key already has,
        // and each step reads its slot: linear in a transaction whose size
        // a peer chose. A key never read stays at version 0; of two results
        // for one key the first counts (hence the reverse walk).
        exec.read_versions.resize(exec.keys.len(), 0);
        let mut finder = SlotFinder::default();
        for read in results.iter().rev() {
            if let Some(slot) = finder.find(&exec.keys, &read.key) {
                // check:allow(panic): `find` returns an index into `keys`
                exec.read_versions[slot as usize] = read.version;
            }
        }
        for (step, op) in exec.ops.iter().enumerate() {
            // check:allow(panic): slots index `read_versions`, sized to `keys`
            let version = exec.read_versions[exec.step_slot(step as u16)];
            let option = RecordOption::new(txn, version, op.clone());
            exec.options.push(option);
            exec.votes.push(KeyVotes::default());
        }
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
            exec.reply_to,
            Msg::Progress {
                tag: exec.tag,
                txn,
                stage: ProgressStage::ReadsDone { reads: results },
            },
        );
        if exec.ops.is_empty() {
            self.finish(txn, Outcome::Committed, ctx);
            return;
        }
        // check:allow(panic): as at entry
        let exec = &self.execs[idx as usize];
        let me = ctx.self_id();
        for (step, option) in exec.options.iter().enumerate() {
            let slot = exec.step_slot(step as u16);
            // In bounds: slots index `keys` and `routes`, filled 1:1.
            // check:allow(panic)
            let (key, route) = (&exec.keys[slot], exec.routes[slot]);
            match self.config.protocol {
                Protocol::Fast => {
                    for &replica in self.route_replicas(route.shard) {
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
                    ctx.send(
                        self.route_master(route),
                        Msg::Propose {
                            txn,
                            key: key.clone(),
                            option: option.clone(),
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
        let now = ctx.now();
        let vote = |sent_at: Option<SimTime>| ProgressStage::Vote {
            key: key.clone(),
            site,
            accept,
            reason,
            elapsed_us: sent_at.map_or(0, |at| now.since(at).as_micros()),
        };
        let Some(&idx) = self.exec_of.get(&txn) else {
            // Late vote for a decided transaction: still forward it so the
            // client's latency model learns the slow paths.
            if let Some(recent) = self.recent.get(&txn) {
                let (tag, stage) = (recent.tag, vote(recent.proposals_sent_at));
                ctx.send(recent.reply_to, Msg::Progress { tag, txn, stage });
            }
            return;
        };
        let voters = self.voters_per_key();
        let classic = self.config.classic_quorum();
        let protocol = self.config.protocol;
        // In bounds: `exec_of` only holds live slab indices.
        // check:allow(panic)
        let exec = &mut self.execs[idx as usize];
        // A vote for a key no step writes has no tally — ignore it; so has
        // any vote that arrives before reads complete.
        let Some(step) = exec.step_writing(&key) else {
            return;
        };
        let Some(kv) = exec.votes.get_mut(step as usize) else {
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
            exec.rejections += 1;
        }
        exec.votes_received += 1;

        // Master-routed rounds — classic, 2PC, or a fast-path fallback
        // round — hear rejects only from the master, whose rejection is
        // definitive (no replication happened). Quorum size also depends on
        // the round: the fallback round needs only a classic majority.
        let master_routed = protocol != Protocol::Fast || kv.round > 0;
        let quorum = if kv.round > 0 {
            classic
        } else {
            self.config.required_quorum()
        };
        let mut resolved_now = None;
        let mut fallback = None;
        if kv.resolved.is_none() {
            if kv.accepts.len() >= quorum {
                kv.resolved = Some(true);
                resolved_now = Some(true);
            } else if (master_routed && !kv.rejects.is_empty())
                || voters - kv.rejects.len() < quorum
            {
                if protocol == Protocol::Fast
                    && self.config.fast_fallback
                    && kv.round == 0
                    && kv.rejects.len() < classic
                {
                    // Collision, not a definitive loss: fewer than a
                    // majority rejected, so the option may still win a
                    // classic round through the master. Reset the tally and
                    // retry once.
                    kv.round = 1;
                    kv.accepts.clear();
                    kv.rejects.clear();
                    // The tally implies the option was built with it; if it
                    // somehow is not there, skip the retry rather than crash
                    // the coordinator — the txn then ends by its timeout.
                    fallback = exec
                        .options
                        .get(step as usize)
                        .cloned()
                        .zip(exec.routes.get(exec.step_slot(step)).copied());
                } else {
                    kv.resolved = Some(false);
                    resolved_now = Some(false);
                }
            }
        }
        // Decide as soon as every key has resolved, or any key failed.
        let decided = if exec.votes.iter().any(|kv| kv.resolved == Some(false)) {
            Some(Outcome::Aborted)
        } else if exec.votes.iter().all(|kv| kv.resolved == Some(true)) {
            Some(Outcome::Committed)
        } else {
            None
        };
        let (tag, reply_to, sent_at) = (exec.tag, exec.reply_to, exec.proposals_sent_at);
        let progress = |stage| Msg::Progress { tag, txn, stage };
        let fell_back = fallback.is_some();
        if let Some((option, route)) = fallback {
            let me = ctx.self_id();
            ctx.send(
                self.route_master(route),
                Msg::Propose {
                    txn,
                    key: key.clone(),
                    option,
                    coordinator: me,
                    round: 1,
                },
            );
            ctx.metrics().counter("txn.fast_fallbacks").inc();
        }
        // The vote's progress goes before `KeyFallback`: the client resets
        // the key's tally on the fallback, so a round-0 vote told after it
        // would count in round 1.
        ctx.send(reply_to, progress(vote(sent_at)));
        if fell_back {
            let key = key.clone();
            ctx.send(reply_to, progress(ProgressStage::KeyFallback { key }));
        }
        if let Some(accepted) = resolved_now {
            ctx.send(
                reply_to,
                progress(ProgressStage::KeyResolved { key, accepted }),
            );
        }
        if let Some(outcome) = decided {
            self.finish(txn, outcome, ctx);
        }
    }

    /// Arm the one timeout for the earliest deadline.
    fn arm_timeout(&mut self, ctx: &mut Context<'_, Msg>) {
        if let Some(&(due, txn)) = self.deadlines.front() {
            ctx.schedule(due.since(ctx.now()), Msg::TxnTimeout { txn });
        }
    }

    /// Time out every transaction in flight whose deadline has passed and
    /// close the late-vote window of every finished one whose has, then
    /// re-arm. One that finds nothing due (early, stale or forged) does
    /// nothing: the armed one is still out.
    fn handle_timeout(&mut self, ctx: &mut Context<'_, Msg>) {
        let now = ctx.now();
        let due = self
            .deadlines
            .iter()
            .take_while(|&&(deadline, _)| deadline <= now)
            .count();
        if due == 0 {
            return;
        }
        for _ in 0..due {
            let Some((_, txn)) = self.deadlines.pop_front() else {
                break;
            };
            if self.exec_of.contains_key(&txn) {
                // `finish` parks the txn in `recent`: its late-vote window
                // closes one timeout from now, after every deadline queued.
                self.finish(txn, Outcome::TimedOut, ctx);
                self.deadlines
                    .push_back((now + self.config.txn_timeout, txn));
            } else {
                self.recent.remove(&txn);
            }
        }
        self.arm_timeout(ctx);
    }

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

    /// Outcome counters and commit-latency histograms.
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

    /// Broadcast per-key decisions in key order, emit the terminal event,
    /// return the execution's slot to the slab.
    fn finish(&mut self, txn: TxnId, outcome: Outcome, ctx: &mut Context<'_, Msg>) {
        let Some(idx) = self.exec_of.remove(&txn) else {
            return;
        };
        let idx = idx as usize;
        let commit = outcome.is_commit();
        // In bounds: `exec_of` only holds live slab indices.
        // check:allow(panic)
        let exec = &self.execs[idx];
        // A timeout that fires before reads complete has built, and
        // proposed, no option: there is nothing to decide.
        let built: &[u16] = if exec.reads_done {
            &exec.sorted_steps
        } else {
            &[]
        };
        for &step in built {
            let slot = exec.step_slot(step);
            // In bounds: options are parallel to steps once built; slots
            // index `keys` and `routes`.
            // check:allow(panic)
            let (key, route) = (exec.keys[slot].clone(), exec.routes[slot]);
            // check:allow(panic)
            let option = exec.options[step as usize].clone();
            ctx.send(
                self.route_master(route),
                Msg::Decide {
                    txn,
                    key,
                    option,
                    commit,
                },
            );
        }
        let stats = TxnStats {
            submitted_at: exec.submitted_at,
            decided_at: ctx.now(),
            proposals_sent_at: exec.proposals_sent_at.unwrap_or(SimTime::ZERO),
            write_keys: exec.options.len(),
            votes_received: exec.votes_received,
            rejections: exec.rejections,
        };
        let (tag, reply_to) = (exec.tag, exec.reply_to);
        // Leaves at its queued deadline; `handle_timeout` re-queues a
        // timed-out txn before it re-arms: check:allow(time)
        self.recent.insert(
            txn,
            RecentTxn {
                tag,
                reply_to,
                proposals_sent_at: exec.proposals_sent_at,
            },
        );
        let latency = stats.decided_at.since(stats.submitted_at).as_micros();
        self.span_metrics(&stats, ctx);
        self.outcome_metrics(outcome, !exec.options.is_empty(), latency, ctx);
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
        self.release_exec(idx);
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
            Msg::ReadResp { txn, results } => self.handle_read_resp(txn, results, ctx),
            Msg::Vote {
                txn,
                key,
                site,
                accept,
                reason,
                round,
            } => self.handle_vote(txn, key, site, accept, reason, round, ctx),
            Msg::TxnTimeout { .. } => self.handle_timeout(ctx),
            // A message for another role: a well-formed frame from a peer
            // can carry one, so it is dropped and counted, never a panic.
            _ => ctx.metrics().counter("coordinator.unexpected_msgs").inc(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use planet_plan::{KeyRef, KeyTemplate, OpTemplate};
    use planet_sim::DetRng;
    use std::collections::HashSet;

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

    /// Parameter slots of the random programs: six name table keys, six are
    /// integers (template fragments, deltas, set values).
    const KEY_PARAMS: usize = 6;
    const INT_PARAMS: usize = 6;

    /// A random valid program and arguments for it. Table keys are spelled
    /// like rendered templates (`t2:5`) and integer arguments are drawn from
    /// the same few values, so `Fixed`, `Param` and `Derived` references
    /// resolve to one key often: small tables alias in most executions,
    /// large ones in few.
    fn random_execution(rng: &mut DetRng) -> (TxnProgram, Vec<PlanParam>) {
        let mut prog = TxnProgram::new("random");
        let table = rng.index(48) + 1;
        for i in 0..table {
            prog.intern(Key::new(format!("t{}:{}", i % 4, i / 4)));
        }
        let int_param = |rng: &mut DetRng| (KEY_PARAMS + rng.index(INT_PARAMS)) as u8;
        let mut written = HashSet::new();
        for _ in 0..rng.index(56) + 1 {
            let key = match rng.index(4) {
                0 | 1 => KeyRef::Fixed(rng.index(table) as u32),
                2 => KeyRef::Param(rng.index(KEY_PARAMS) as u8),
                _ => {
                    let lit = format!("t{}:", rng.index(4));
                    KeyRef::Derived(KeyTemplate::new().lit(lit).param(int_param(rng)))
                }
            };
            // `validate` refuses two writes through one reference; two
            // references that resolve to one key are the arguments' doing.
            if rng.bernoulli(0.15) && written.insert(key.clone()) {
                let op = match rng.index(3) {
                    0 => OpTemplate::Delete,
                    1 => OpTemplate::SetParam(int_param(rng)),
                    _ => OpTemplate::of(&WriteOp::add(rng.index(9) as i64 - 4)),
                };
                prog = prog.write(key, op);
            } else {
                prog = prog.read(key);
            }
        }
        if rng.bernoulli(0.3) {
            prog = prog.quorum_reads();
        }
        let params = (0..KEY_PARAMS + INT_PARAMS)
            .map(|p| match p < KEY_PARAMS {
                true => PlanParam::Key(rng.index(table) as u32),
                false => PlanParam::Int(rng.index(12) as i64),
            })
            .collect();
        (prog, params)
    }

    /// The two lowerings are one function of the transaction: an execution
    /// of a compiled plan and the spec it instantiates to leave equal
    /// `Exec`s, slot for slot and step for step, or are refused alike.
    #[test]
    fn both_lowerings_give_the_same_execution() {
        const CASES: u64 = 600;
        let (mut scanned, mut hashed, mut relowered, mut refused) = (0, 0, 0, 0);
        for seed in 0..CASES {
            let mut rng = DetRng::new(seed);
            let mut config = ClusterConfig::new(3, Protocol::Fast);
            config.num_shards = [1, 2, 4][rng.index(3)];
            let (prog, params) = random_execution(&mut rng);
            let plan = CompiledPlan::compile(prog.clone(), &config)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            let spec: TxnSpec = prog
                .instantiate(&params)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"))
                .into();
            let touched = spec.touched_keys();
            let mut written = HashSet::new();
            let writes_twice = !spec.writes.iter().all(|(k, _)| written.insert(k));

            let (mut from_plan, mut from_spec) = (Exec::default(), Exec::default());
            let plan_result = from_plan.lower_plan(&plan, &params, &config);
            let spec_result = from_spec.lower_spec(spec, &config);
            if writes_twice {
                assert_eq!(plan_result, Err(PlanError::DuplicateWrite), "seed {seed}");
                assert_eq!(spec_result, Err(PlanError::DuplicateWrite), "seed {seed}");
                refused += 1;
                continue;
            }
            assert_eq!(spec_result, Ok(()), "seed {seed}");
            // Re-lowered exactly when two of the plan's slots were one key.
            let aliased = touched.len() < plan.slots.len();
            assert_eq!(plan_result, Ok(aliased), "seed {seed}");
            assert_eq!(from_plan, from_spec, "seed {seed}");
            assert_eq!(from_spec.keys, touched, "seed {seed}");
            assert_eq!(from_spec.keys.len(), from_spec.routes.len());
            relowered += usize::from(aliased);
            if touched.len() > SlotFinder::SCAN_SLOTS {
                hashed += 1;
            } else {
                scanned += 1;
            }
        }
        // The generator reaches every case the lowerings tell apart.
        for (what, cases) in [
            ("scanned", scanned),
            ("hashed", hashed),
            ("re-lowered", relowered),
            ("refused", refused),
            ("straight", CASES as usize - relowered - refused),
        ] {
            assert!(cases >= 20, "only {cases} {what} cases");
        }
    }
}
