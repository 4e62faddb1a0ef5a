//! # planet-mck
//!
//! A bounded explicit-state model checker for the MDCC commit protocol.
//!
//! The checker runs the *real* protocol actors ([`CoordinatorActor`],
//! [`ReplicaActor`]) through the factored step function
//! (`planet_sim::drive`), replacing the simulation engine's single
//! delay-ordered event queue with an exhaustive scheduler: at every state it
//! enumerates each non-empty point-to-point channel and branches on
//! delivering (and, within budgets, dropping or duplicating) its head
//! message. Timers fire only at network quiescence, earliest deadline first
//! — the "timeout-last" reduction: a timeout interleaved *before* pending
//! deliveries is subsumed by the run that first drains the network, because
//! timer deadlines dwarf delivery latencies in every deployed configuration.
//!
//! ## State, replay and dedup
//!
//! Actors are not cloneable (they own stores, WALs, hash maps), so a state
//! is identified with the *choice sequence* that produces it: depth-first
//! search re-executes the prefix from the initial state for every node.
//! Every reconstruction is deterministic, so this is exact, and it keeps
//! the checker entirely decoupled from actor internals. Visited states are
//! deduplicated by a 64-bit fingerprint of all protocol-visible state
//! (actor digests, channel contents, pending timers — see
//! `planet_mdcc::digest`); a revisited fingerprint prunes the subtree.
//!
//! A symmetry reduction canonicalises site identities: sites that host no
//! client and master no workload key are interchangeable, so the
//! fingerprint is the minimum over all permutations of those *free* sites
//! (applied consistently to site ids, actor ids, channel endpoints and
//! timer owners).
//!
//! ## Channel model
//!
//! Channels are per-(src, dst) FIFO — the deployed transports (simulation
//! engine, live TCP fabric) both preserve point-to-point order. Loss and
//! duplication apply only to protocol channels (replica/coordinator
//! endpoints); client↔coordinator channels are reliable, because progress
//! callbacks model an in-process callback interface at the app server, not
//! a WAN hop.
//!
//! ## Invariants
//!
//! 1. **Agreement** — within a shard's replication group, two replicas never
//!    hold different `(value, txn)` for the same committed version of a key.
//! 2. **Commit stability** — a client-visible outcome never changes, a
//!    committed version's content is never rewritten, and a replica's
//!    committed head never regresses.
//! 3. **Callback monotonicity** — per transaction, progress stages arrive in
//!    `Started ≤ ReadsDone ≤ {Vote,KeyFallback,KeyResolved} ≤ TxnDone`
//!    order; late votes after `TxnDone` are legal (the coordinator keeps a
//!    forwarding window open for the predictor's benefit).
//! 4. **Shard-routing soundness** — the set of reachable complete outcome
//!    vectors is identical with 1 and 2 shards ([`routing_check`]).
//!
//! A fifth check, **commit durability** (a committed transaction's writes
//! are present at each written key's master at every network-quiescent
//! state), runs only when the loss budget is zero: the protocol does not
//! retransmit decides, so durability under message loss is out of scope by
//! design (the deployed transports are reliable).
//!
//! Seeded mutations ([`Mutation`]) corrupt one protocol step to prove the
//! invariants can trip: `TamperApply` forges the value in the first `Apply`
//! state transfer (must violate agreement), `DropDecide` swallows the first
//! `Decide` (must violate durability).

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet, HashSet, VecDeque};
use std::hash::{Hash, Hasher};

use std::sync::Arc;

use planet_audit::audit;
use planet_mdcc::digest::{digest_msg, DigestMap};
use planet_mdcc::{
    ClusterConfig, CoordinatorActor, Msg, Outcome, ProgressStage, Protocol, ReadLevel,
    ReplicaActor, Trace, TxnSpec, VecSink,
};
use planet_plan::{PlanId, TxnProgram};
use planet_sim::{
    drive, drive_start, Actor, ActorId, Context, DetRng, Effect, Metrics, SimTime, SiteId,
    TurnInputs,
};
use planet_storage::{Key, TxnId, Value, VersionNo, WriteOp};

/// What the checker explores.
#[derive(Debug, Clone)]
pub struct MckConfig {
    /// Number of sites (one replica group member and one coordinator each).
    pub sites: usize,
    /// Number of clients; client `i` lives at site `i % sites` and submits
    /// one transaction to its site's coordinator at start.
    pub clients: usize,
    /// Replica shards per site (1 or 2; 2 exercises cross-shard routing).
    pub shards: usize,
    /// Maximum scheduler choices per path (the exploration bound).
    pub depth: usize,
    /// Message-loss budget per path (protocol channels only).
    pub drops: usize,
    /// Message-duplication budget per path (protocol channels only).
    pub dups: usize,
    /// Commit path under test.
    pub protocol: Protocol,
    /// Enable the site-symmetry reduction.
    pub symmetry: bool,
    /// Hard cap on unique states; exploration stops (and says so) beyond it.
    pub max_states: usize,
    /// Optional seeded protocol corruption.
    pub mutation: Option<Mutation>,
    /// The scripted workload shape.
    pub scenario: Scenario,
    /// Submit through compiled plans: each client's scripted `TxnSpec` is
    /// compiled to a [`TxnProgram`] installed on every coordinator before
    /// exploration, and the client submits `(PlanId, params)` instead of the
    /// spec. The coordinator lowers both submissions into the same
    /// execution and digests that, so the explored state graph must be
    /// *count-for-count* identical with this on or off
    /// (`plans_are_digest_neutral` certifies it): a cheap exploration-level
    /// check that the two lowerings agree.
    pub use_plans: bool,
    /// Record a trace per explored path and run the isolation auditor at
    /// every all-decided state, certifying which anomalies are *reachable*
    /// (as opposed to merely observed in one simulation run). Tracing rides
    /// in [`ClusterConfig`] and is never part of `mck_digest`, so the
    /// explored state graph is identical with this on or off.
    pub audit: bool,
}

/// Which scripted workload the clients submit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scenario {
    /// The original conflict workload: client 0 writes key A, client 1
    /// writes A and B, further clients alternate single-key writes.
    #[default]
    Conflict,
    /// The write-skew pair: even clients read A and write B, odd clients
    /// read B and write A. No write-write conflict exists, so every
    /// interleaving commits both — the checker certifies whether an
    /// interleaving exists in which both read the *initial* versions
    /// (the unserializable all-`rw` cycle the auditor names `write-skew`).
    WriteSkew,
}

impl MckConfig {
    /// A configuration with the given topology and bound; no loss, no
    /// duplication, fast path, symmetry on.
    pub fn new(sites: usize, clients: usize, depth: usize) -> Self {
        assert!(sites >= 1 && clients >= 1);
        MckConfig {
            sites,
            clients,
            shards: 1,
            depth,
            drops: 0,
            dups: 0,
            protocol: Protocol::Fast,
            symmetry: true,
            max_states: 250_000,
            mutation: None,
            scenario: Scenario::default(),
            use_plans: false,
            audit: false,
        }
    }
}

/// A seeded one-shot protocol corruption, applied at delivery time to the
/// first matching message on any channel. Used by regression tests to prove
/// the invariants have teeth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Forge the value carried by the first `Apply` state transfer. The
    /// receiving replica installs a version whose content differs from the
    /// master's — agreement must trip.
    TamperApply,
    /// Swallow the first `Decide`. The key's master never learns the
    /// outcome, so a committed transaction is never applied — the
    /// durability check must trip at quiescence.
    DropDecide,
}

/// One invariant violation, with the choice path that reproduces it.
#[derive(Debug, Clone)]
pub struct PathViolation {
    /// Choice indices from the initial state (replayable).
    pub path: Vec<usize>,
    /// Which invariant tripped.
    pub invariant: String,
    /// Human-readable specifics.
    pub detail: String,
}

/// What an exploration found.
#[derive(Debug, Clone)]
pub struct Report {
    /// Unique states visited (post-dedup).
    pub unique_states: u64,
    /// Total actor turns driven, including prefix replays.
    pub steps: u64,
    /// States pruned because their fingerprint was already seen.
    pub revisits: u64,
    /// Paths cut by the depth bound.
    pub truncated: u64,
    /// Paths that ran out of choices entirely (never with periodic timers).
    pub terminals: u64,
    /// Deepest path expanded.
    pub max_depth: usize,
    /// True if `max_states` stopped the exploration early.
    pub capped: bool,
    /// Per-client outcome vectors observed at any visited state
    /// (`C`ommitted / `A`borted / `T`imed out / `?` undecided).
    pub verdicts: BTreeSet<String>,
    /// Outcome vectors with every client decided.
    pub complete_verdicts: BTreeSet<String>,
    /// Invariant violations (subtrees below a violation are pruned).
    pub violations: Vec<PathViolation>,
    /// Isolation-anomaly kinds the auditor certified *reachable* (seen at
    /// some all-decided state). Empty when `audit` is off.
    pub anomalies: BTreeSet<String>,
}

impl Report {
    /// Dedup hit rate: revisits / (revisits + unique states).
    pub fn dedup_rate(&self) -> f64 {
        let total = self.revisits + self.unique_states;
        if total == 0 {
            0.0
        } else {
            self.revisits as f64 / total as f64
        }
    }

    /// Render as a JSON object (hand-rolled; the workspace takes no deps).
    pub fn to_json(&self) -> String {
        let verdicts: Vec<String> = self.verdicts.iter().map(|v| format!("\"{v}\"")).collect();
        let complete: Vec<String> = self
            .complete_verdicts
            .iter()
            .map(|v| format!("\"{v}\""))
            .collect();
        let violations: Vec<String> = self
            .violations
            .iter()
            .take(8)
            .map(|v| {
                format!(
                    "{{\"invariant\":\"{}\",\"detail\":\"{}\",\"path\":{:?}}}",
                    v.invariant,
                    v.detail.replace('\\', "\\\\").replace('"', "\\\""),
                    v.path
                )
            })
            .collect();
        let anomalies: Vec<String> = self.anomalies.iter().map(|a| format!("\"{a}\"")).collect();
        format!(
            "{{\"unique_states\":{},\"steps\":{},\"revisits\":{},\"dedup_rate\":{:.4},\
             \"truncated\":{},\"terminals\":{},\"max_depth\":{},\"capped\":{},\
             \"verdicts\":[{}],\"complete_verdicts\":[{}],\
             \"violation_count\":{},\"violations\":[{}],\"anomalies\":[{}]}}",
            self.unique_states,
            self.steps,
            self.revisits,
            self.dedup_rate(),
            self.truncated,
            self.terminals,
            self.max_depth,
            self.capped,
            verdicts.join(","),
            complete.join(","),
            self.violations.len(),
            violations.join(","),
            anomalies.join(",")
        )
    }
}

/// The two workload keys. Chosen so they land on *different* shards under a
/// two-shard layout (and therefore exercise cross-shard routing), and chosen
/// identically for every shard count so S=1 and S=2 runs are comparable.
pub fn workload_keys() -> (Key, Key) {
    let mut probe = ClusterConfig::new(2, Protocol::Fast);
    probe.num_shards = 2;
    let a = Key::new("k0");
    let sa = probe.shard_of(&a);
    for i in 1..64 {
        let b = Key::new(format!("k{i}"));
        if probe.shard_of(&b) != sa {
            return (a, b);
        }
    }
    (a, Key::new("k1"))
}

/// The scripted workload: client 0 writes key A; client 1 writes A and B
/// (write-write conflict on A plus a cross-shard transaction); further
/// clients alternate single-key writes. The write-skew scenario instead
/// mirrors read/write sets across clients (no write-write conflict at all).
fn client_specs(scenario: Scenario, clients: usize, a: &Key, b: &Key) -> Vec<TxnSpec> {
    if scenario == Scenario::WriteSkew {
        return (0..clients)
            .map(|i| {
                let (read, write) = if i % 2 == 0 { (a, b) } else { (b, a) };
                TxnSpec {
                    reads: vec![read.clone()],
                    writes: vec![(write.clone(), WriteOp::Set(Value::Int(100 + i as i64)))],
                    ..TxnSpec::default()
                }
            })
            .collect();
    }
    (0..clients)
        .map(|i| match i {
            0 if clients == 1 => TxnSpec {
                reads: Vec::new(),
                writes: vec![
                    (a.clone(), WriteOp::Set(Value::Int(10))),
                    (b.clone(), WriteOp::Set(Value::Int(20))),
                ],
                ..TxnSpec::default()
            },
            0 => TxnSpec::write_one(a.clone(), WriteOp::Set(Value::Int(10))),
            1 => TxnSpec {
                reads: Vec::new(),
                writes: vec![
                    (a.clone(), WriteOp::Set(Value::Int(11))),
                    (b.clone(), WriteOp::Set(Value::Int(21))),
                ],
                ..TxnSpec::default()
            },
            i => {
                let key = if i % 2 == 0 { a.clone() } else { b.clone() };
                TxnSpec::write_one(key, WriteOp::Set(Value::Int(10 + i as i64)))
            }
        })
        .collect()
}

/// The monitor client: submits one transaction at start, records the
/// outcome, and checks callback monotonicity and outcome stability online.
pub struct MckClient {
    coordinator: ActorId,
    spec: TxnSpec,
    /// Submit via this pre-installed plan instead of shipping the spec.
    /// The scripted specs are fully concrete, so the parameter vector is
    /// empty — the wire carries just the plan id.
    plan: Option<PlanId>,
    tag: u64,
    /// Transaction id, learned from the first coordinator reply.
    pub txn: Option<TxnId>,
    /// Terminal outcome, if seen.
    pub outcome: Option<Outcome>,
    max_stage: u8,
    /// Monotonicity/stability violations observed by this client.
    pub violations: Vec<String>,
}

impl MckClient {
    fn new(coordinator: ActorId, spec: TxnSpec, plan: Option<PlanId>, tag: u64) -> Self {
        MckClient {
            coordinator,
            spec,
            plan,
            tag,
            txn: None,
            outcome: None,
            max_stage: 0,
            violations: Vec::new(),
        }
    }

    fn stage_rank(stage: &ProgressStage) -> u8 {
        match stage {
            ProgressStage::Started => 1,
            ProgressStage::ReadsDone { .. } => 2,
            ProgressStage::Vote { .. }
            | ProgressStage::KeyFallback { .. }
            | ProgressStage::KeyResolved { .. } => 3,
        }
    }

    fn digest<H: Hasher>(&self, h: &mut H) {
        self.tag.hash(h);
        self.txn.hash(h);
        planet_mdcc::digest::dbg_hash(&self.outcome, h);
        self.max_stage.hash(h);
        self.violations.len().hash(h);
    }
}

impl Actor<Msg> for MckClient {
    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        let me = ctx.self_id();
        let msg = match self.plan {
            Some(plan) => Msg::SubmitPlan {
                plan,
                params: Vec::new(),
                reply_to: me,
                tag: self.tag,
            },
            None => Msg::Submit {
                spec: self.spec.clone(),
                reply_to: me,
                tag: self.tag,
            },
        };
        ctx.send(self.coordinator, msg);
    }

    fn on_message(&mut self, _from: ActorId, msg: Msg, _ctx: &mut Context<'_, Msg>) {
        match msg {
            Msg::Progress { txn, stage, .. } => {
                self.txn.get_or_insert(txn);
                let rank = Self::stage_rank(&stage);
                if self.outcome.is_some() {
                    // The coordinator keeps forwarding late votes after the
                    // decision (the predictor wants slow replicas' times);
                    // any *other* stage after TxnDone is a violation.
                    if rank != 3 {
                        self.violations
                            .push(format!("stage rank {rank} after TxnDone"));
                    }
                } else if rank < self.max_stage {
                    self.violations.push(format!(
                        "stage rank {rank} after rank {} for txn {txn:?}",
                        self.max_stage
                    ));
                } else {
                    self.max_stage = rank;
                }
            }
            Msg::TxnDone { txn, outcome, .. } => {
                self.txn.get_or_insert(txn);
                match self.outcome {
                    None => {
                        self.outcome = Some(outcome);
                        self.max_stage = 4;
                    }
                    Some(prev) if prev != outcome => self
                        .violations
                        .push(format!("outcome flipped {prev:?} -> {outcome:?}")),
                    Some(_) => {}
                }
            }
            _ => {}
        }
    }
}

enum Kind {
    Replica(Box<ReplicaActor>),
    Coordinator(Box<CoordinatorActor>),
    Client(MckClient),
}

impl Kind {
    fn as_actor(&mut self) -> &mut dyn Actor<Msg> {
        match self {
            Kind::Replica(a) => &mut **a,
            Kind::Coordinator(a) => &mut **a,
            Kind::Client(a) => a,
        }
    }
}

struct Slot {
    site: SiteId,
    kind: Kind,
}

/// One invariant violation inside a world (path attached by the explorer).
#[derive(Debug, Clone)]
struct Violation {
    invariant: String,
    detail: String,
}

/// One scheduler choice at a state. Enumeration order is deterministic
/// (channels are held in a BTreeMap), so a choice is replayable by index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Choice {
    /// Deliver the head message of a channel.
    Deliver {
        /// (src, dst) actor ids.
        chan: (u32, u32),
    },
    /// Discard the head message (loss budget).
    Drop {
        /// (src, dst) actor ids.
        chan: (u32, u32),
    },
    /// Deliver the head message and re-enqueue a copy at the tail.
    Dup {
        /// (src, dst) actor ids.
        chan: (u32, u32),
    },
    /// Fire the earliest pending timer (only offered at quiescence).
    Fire,
}

struct World {
    cfg: MckConfig,
    cluster: ClusterConfig,
    actors: Vec<Slot>,
    channels: BTreeMap<(u32, u32), VecDeque<Msg>>,
    /// (due µs, arm sequence) → (owner, message). The arm sequence breaks
    /// same-deadline ties exactly like the simulation engine's event order.
    timers: BTreeMap<(u64, u64), (u32, Msg)>,
    timer_seq: u64,
    now: SimTime,
    drops_left: usize,
    dups_left: usize,
    mutation_done: bool,
    /// Sites eligible for permutation under the symmetry reduction.
    free_sites: Vec<u8>,
    /// Per-(replica, key) last observed committed head (monotonicity).
    heads: BTreeMap<(usize, Key), VersionNo>,
    /// Committed-version content first observed, per (key, version) —
    /// rewriting it is a stability violation.
    committed_seen: BTreeMap<(Key, VersionNo), (TxnId, String)>,
    violations: Vec<Violation>,
    client_violations_seen: usize,
    steps: u64,
    metrics: Metrics,
    /// Captures this path's trace when `cfg.audit` is on. Deliberately not
    /// part of the fingerprint: tracing must never perturb the state graph.
    trace_sink: Option<Arc<VecSink>>,
}

impl World {
    fn build(cfg: &MckConfig) -> World {
        let n = cfg.sites;
        let shards = cfg.shards.max(1);
        let mut cluster = ClusterConfig::new(n, cfg.protocol);
        cluster.num_shards = shards;
        let trace_sink = if cfg.audit {
            let sink = Arc::new(VecSink::new());
            cluster.trace = Trace::to(sink.clone());
            Some(sink)
        } else {
            None
        };

        let (a, b) = workload_keys();
        let mut actors: Vec<Slot> = Vec::new();
        // Replicas, shard-major — the id layout every actor predicts.
        let replica_ids: Vec<ActorId> = (0..shards * n).map(|i| ActorId(i as u32)).collect();
        for shard in 0..shards {
            let peers: Vec<ActorId> = replica_ids[shard * n..(shard + 1) * n].to_vec();
            for site in 0..n {
                actors.push(Slot {
                    site: SiteId(site as u8),
                    kind: Kind::Replica(Box::new(ReplicaActor::new(
                        cluster.clone(),
                        peers.clone(),
                        shard,
                    ))),
                });
            }
        }
        for site in 0..n {
            actors.push(Slot {
                site: SiteId(site as u8),
                kind: Kind::Coordinator(Box::new(CoordinatorActor::new(
                    cluster.clone(),
                    replica_ids.clone(),
                    SiteId(site as u8),
                ))),
            });
        }
        let specs = client_specs(cfg.scenario, cfg.clients, &a, &b);
        // Plan mode: compile every scripted spec to a concrete program and
        // install it on every coordinator before the first delivery choice
        // (registration is an out-of-band setup step, exactly as the live
        // deployment installs plans once per connection — it adds no
        // messages to the explored graph).
        if cfg.use_plans {
            for (i, spec) in specs.iter().enumerate() {
                let program = TxnProgram::of_concrete(
                    format!("mck-client-{i}"),
                    &spec.reads,
                    &spec.writes,
                    spec.read_level == ReadLevel::Quorum,
                )
                .expect("scripted specs compile");
                for slot in &mut actors {
                    if let Kind::Coordinator(c) = &mut slot.kind {
                        c.install_plan(i as PlanId, program.clone())
                            .expect("plan installs");
                    }
                }
            }
        }
        let mut client_sites = Vec::new();
        for (i, spec) in specs.into_iter().enumerate() {
            let site = (i % n) as u8;
            client_sites.push(site);
            let coordinator = cluster.coordinator_id(site as usize);
            let plan = cfg.use_plans.then_some(i as PlanId);
            actors.push(Slot {
                site: SiteId(site),
                kind: Kind::Client(MckClient::new(coordinator, spec, plan, i as u64)),
            });
        }

        // A site is free (permutable) iff it hosts no client and masters no
        // workload key — it then only ever acts as an anonymous follower.
        let mut pinned: BTreeSet<u8> = client_sites.into_iter().collect();
        pinned.insert(cluster.master_of(&a).0);
        pinned.insert(cluster.master_of(&b).0);
        let free_sites: Vec<u8> = (0..n as u8).filter(|s| !pinned.contains(s)).collect();

        let mut w = World {
            cfg: cfg.clone(),
            cluster,
            actors,
            channels: BTreeMap::new(),
            timers: BTreeMap::new(),
            timer_seq: 0,
            now: SimTime::ZERO,
            drops_left: cfg.drops,
            dups_left: cfg.dups,
            mutation_done: false,
            free_sites,
            heads: BTreeMap::new(),
            committed_seen: BTreeMap::new(),
            violations: Vec::new(),
            client_violations_seen: 0,
            steps: 0,
            metrics: Metrics::new(),
            trace_sink,
        };
        for idx in 0..w.actors.len() {
            let inputs = TurnInputs {
                now: w.now,
                self_id: ActorId(idx as u32),
                self_site: w.actors[idx].site,
            };
            let mut rng = DetRng::new(0);
            let turn = drive_start(
                w.actors[idx].kind.as_actor(),
                inputs,
                &mut rng,
                &mut w.metrics,
            );
            w.steps += 1;
            w.absorb(idx as u32, turn.effects);
        }
        w.check_invariants();
        w
    }

    fn absorb(&mut self, src: u32, effects: Vec<Effect<Msg>>) {
        for eff in effects {
            match eff {
                Effect::Send { dst, msg } => {
                    self.channels
                        .entry((src, dst.0))
                        .or_default()
                        .push_back(msg);
                }
                Effect::Timer { delay, msg } => {
                    let due = (self.now + delay).as_micros();
                    let seq = self.timer_seq;
                    self.timer_seq += 1;
                    self.timers.insert((due, seq), (src, msg));
                }
                Effect::Halt => {}
            }
        }
    }

    fn drive_actor(&mut self, idx: usize, from: ActorId, msg: Msg) {
        let inputs = TurnInputs {
            now: self.now,
            self_id: ActorId(idx as u32),
            self_site: self.actors[idx].site,
        };
        let mut rng = DetRng::new(0);
        let turn = drive(
            self.actors[idx].kind.as_actor(),
            inputs,
            from,
            msg,
            &mut rng,
            &mut self.metrics,
        );
        self.steps += 1;
        self.absorb(idx as u32, turn.effects);
    }

    fn num_clients_base(&self) -> usize {
        self.cfg.shards.max(1) * self.cfg.sites + self.cfg.sites
    }

    fn is_client(&self, id: u32) -> bool {
        id as usize >= self.num_clients_base()
    }

    /// Loss/duplication applies only between protocol actors; the
    /// client↔coordinator path models an in-process callback interface.
    fn lossy(&self, chan: (u32, u32)) -> bool {
        !self.is_client(chan.0) && !self.is_client(chan.1)
    }

    fn choices(&self) -> Vec<Choice> {
        let mut out = Vec::new();
        for (&chan, q) in &self.channels {
            if q.is_empty() {
                continue;
            }
            out.push(Choice::Deliver { chan });
            if self.lossy(chan) {
                if self.drops_left > 0 {
                    out.push(Choice::Drop { chan });
                }
                if self.dups_left > 0 {
                    out.push(Choice::Dup { chan });
                }
            }
        }
        if out.is_empty() && !self.timers.is_empty() {
            out.push(Choice::Fire);
        }
        out
    }

    /// Apply the seeded mutation at delivery time. `None` swallows the
    /// message.
    fn mutate(&mut self, msg: Msg) -> Option<Msg> {
        if self.mutation_done {
            return Some(msg);
        }
        match (self.cfg.mutation, msg) {
            (
                Some(Mutation::TamperApply),
                Msg::Apply {
                    key, version, txn, ..
                },
            ) => {
                self.mutation_done = true;
                Some(Msg::Apply {
                    key,
                    version,
                    value: Value::Int(0x0BAD),
                    txn,
                })
            }
            (Some(Mutation::DropDecide), Msg::Decide { .. }) => {
                self.mutation_done = true;
                None
            }
            (_, msg) => Some(msg),
        }
    }

    fn step(&mut self, c: Choice) {
        match c {
            Choice::Deliver { chan } | Choice::Dup { chan } => {
                let Some(q) = self.channels.get_mut(&chan) else {
                    return;
                };
                let Some(msg) = q.pop_front() else { return };
                if let Choice::Dup { .. } = c {
                    q.push_back(msg.clone());
                    self.dups_left -= 1;
                }
                if let Some(msg) = self.mutate(msg) {
                    self.drive_actor(chan.1 as usize, ActorId(chan.0), msg);
                }
            }
            Choice::Drop { chan } => {
                if let Some(q) = self.channels.get_mut(&chan) {
                    q.pop_front();
                    self.drops_left -= 1;
                }
            }
            Choice::Fire => {
                let Some((&(due, seq), _)) = self.timers.iter().next() else {
                    return;
                };
                let Some((owner, msg)) = self.timers.remove(&(due, seq)) else {
                    return;
                };
                if due > self.now.as_micros() {
                    self.now = SimTime::from_micros(due);
                }
                self.drive_actor(owner as usize, ActorId(owner), msg);
            }
        }
        self.check_invariants();
    }

    fn replica(&self, idx: usize) -> Option<&ReplicaActor> {
        match &self.actors.get(idx)?.kind {
            Kind::Replica(r) => Some(r.as_ref()),
            _ => None,
        }
    }

    fn clients(&self) -> impl Iterator<Item = &MckClient> {
        self.actors.iter().filter_map(|s| match &s.kind {
            Kind::Client(c) => Some(c),
            _ => None,
        })
    }

    fn violate(&mut self, invariant: &str, detail: String) {
        self.violations.push(Violation {
            invariant: invariant.to_string(),
            detail,
        });
    }

    fn check_invariants(&mut self) {
        let n = self.cfg.sites;
        let shards = self.cfg.shards.max(1);
        let mut found: Vec<(String, String)> = Vec::new();

        // Agreement + stability over committed chains. Snapshot the chains
        // first: the store borrows would otherwise pin `self` immutably
        // while the monitor maps need updating.
        type ChainSnap = Vec<(usize, Key, VersionNo, Vec<(VersionNo, TxnId, String)>)>;
        for shard in 0..shards {
            let mut snap: ChainSnap = Vec::new();
            for site in 0..n {
                let idx = shard * n + site;
                let Some(rep) = self.replica(idx) else {
                    continue;
                };
                let store = rep.storage().store();
                let keys: Vec<Key> = store.keys().cloned().collect();
                for key in keys {
                    let Some(rec) = store.record(&key) else {
                        continue;
                    };
                    let chain = rep
                        .storage()
                        .versions(&key)
                        .into_iter()
                        .map(|v| (v.version, v.txn, format!("{:?}", v.value)))
                        .collect();
                    snap.push((idx, key, rec.current_version(), chain));
                }
            }
            let mut canonical: BTreeMap<(Key, VersionNo), (TxnId, String)> = BTreeMap::new();
            for (idx, key, head, chain) in snap {
                let prev = self.heads.get(&(idx, key.clone())).copied().unwrap_or(0);
                if head < prev {
                    found.push((
                        "commit-stability".into(),
                        format!("replica {idx} head for {key:?} regressed {prev} -> {head}"),
                    ));
                }
                self.heads.insert((idx, key.clone()), head.max(prev));
                for (version, txn, value) in chain {
                    let content = (txn, value);
                    match canonical.get(&(key.clone(), version)) {
                        None => {
                            canonical.insert((key.clone(), version), content.clone());
                        }
                        Some(seen) if *seen != content => found.push((
                            "agreement".into(),
                            format!(
                                "shard {shard} key {key:?} v{version}: {seen:?} vs {content:?} \
                                 at replica {idx}"
                            ),
                        )),
                        Some(_) => {}
                    }
                    match self.committed_seen.get(&(key.clone(), version)) {
                        None => {
                            self.committed_seen.insert((key.clone(), version), content);
                        }
                        Some(seen) if *seen != content => found.push((
                            "commit-stability".into(),
                            format!("key {key:?} v{version} rewritten: {seen:?} -> {content:?}"),
                        )),
                        Some(_) => {}
                    }
                }
            }
        }

        // Client-observed monotonicity and stability. Clients accumulate;
        // only report what appeared since the last check.
        let client_violations: Vec<String> = self
            .clients()
            .flat_map(|c| c.violations.iter().cloned())
            .skip(self.client_violations_seen)
            .collect();
        self.client_violations_seen += client_violations.len();
        for v in client_violations {
            found.push(("callback-monotonicity".into(), v));
        }

        // Durability at quiescence, only under a loss-free adversary (the
        // protocol does not retransmit decides; transports are reliable).
        if self.cfg.drops == 0 && self.channels.values().all(|q| q.is_empty()) {
            let committed: Vec<(TxnId, Vec<Key>)> = self
                .clients()
                .filter(|c| c.outcome == Some(Outcome::Committed))
                .filter_map(|c| {
                    c.txn
                        .map(|t| (t, c.spec.writes.iter().map(|(k, _)| k.clone()).collect()))
                })
                .collect();
            for (txn, keys) in committed {
                for key in keys {
                    let shard = self.cluster.shard_of(&key);
                    let master = self.cluster.master_of(&key).0 as usize;
                    let idx = shard * n + master;
                    let durable = self
                        .replica(idx)
                        .is_some_and(|r| r.storage().versions(&key).iter().any(|v| v.txn == txn));
                    if !durable {
                        found.push((
                            "durability".into(),
                            format!("committed {txn:?} missing from master of {key:?}"),
                        ));
                    }
                }
            }
        }

        for (invariant, detail) in found {
            self.violate(&invariant, detail);
        }
    }

    fn verdict(&self) -> String {
        self.clients()
            .map(|c| match c.outcome {
                Some(Outcome::Committed) => 'C',
                Some(Outcome::Aborted) => 'A',
                Some(Outcome::TimedOut) => 'T',
                None => '?',
            })
            .collect()
    }

    fn all_decided(&self) -> bool {
        self.clients().all(|c| c.outcome.is_some())
    }

    /// Build the digest map for one permutation of the free sites.
    /// `perm[i]` is the canonical site for `free_sites[i]`.
    fn digest_map(&self, perm: &[u8]) -> DigestMap {
        let n = self.cfg.sites;
        let shards = self.cfg.shards.max(1);
        let mut sites: Vec<u8> = (0..n as u8).collect();
        for (i, &from) in self.free_sites.iter().enumerate() {
            sites[from as usize] = perm[i];
        }
        let mut actors: Vec<u32> = (0..self.actors.len() as u32).collect();
        for shard in 0..shards {
            for site in 0..n {
                actors[shard * n + site] = (shard * n + sites[site] as usize) as u32;
            }
        }
        let c = &self.cluster;
        for site in 0..n {
            actors[c.coordinator_id(site).0 as usize] = c.coordinator_id(sites[site] as usize).0;
        }
        DigestMap { sites, actors }
    }

    fn fp_with(&self, map: &DigestMap) -> u64 {
        let mut h = DefaultHasher::new();
        self.now.hash(&mut h);
        self.drops_left.hash(&mut h);
        self.dups_left.hash(&mut h);
        self.mutation_done.hash(&mut h);
        // Actors in canonical position order.
        let mut inv = vec![0usize; self.actors.len()];
        for (i, &ci) in map.actors.iter().enumerate() {
            inv[ci as usize] = i;
        }
        for &oi in &inv {
            match &self.actors[oi].kind {
                Kind::Replica(r) => {
                    0u8.hash(&mut h);
                    r.mck_digest(map, &mut h);
                }
                Kind::Coordinator(c) => {
                    1u8.hash(&mut h);
                    c.mck_digest(map, &mut h);
                }
                Kind::Client(c) => {
                    2u8.hash(&mut h);
                    c.digest(&mut h);
                }
            }
        }
        // Channels, sorted by canonical endpoints.
        let mut chans: Vec<((u32, u32), u64)> = self
            .channels
            .iter()
            .filter(|(_, q)| !q.is_empty())
            .map(|(&(s, d), q)| {
                let mut hh = DefaultHasher::new();
                for m in q {
                    digest_msg(m, map, &mut hh);
                }
                ((map.actor(ActorId(s)), map.actor(ActorId(d))), hh.finish())
            })
            .collect();
        chans.sort_unstable();
        chans.hash(&mut h);
        // Timers in fire order; the raw arm sequence is path-dependent and
        // excluded, but the *order* it induces is hashed implicitly.
        for ((due, _), (owner, msg)) in &self.timers {
            due.hash(&mut h);
            map.actor(ActorId(*owner)).hash(&mut h);
            digest_msg(msg, map, &mut h);
        }
        h.finish()
    }

    fn fingerprint(&self, symmetry: bool) -> u64 {
        if !symmetry || self.free_sites.len() < 2 {
            let ident = DigestMap::identity(self.cfg.sites, self.actors.len());
            return self.fp_with(&ident);
        }
        let mut best = u64::MAX;
        for perm in permutations(&self.free_sites) {
            best = best.min(self.fp_with(&self.digest_map(&perm)));
        }
        best
    }
}

/// All permutations of a small slice (site counts are tiny).
fn permutations(items: &[u8]) -> Vec<Vec<u8>> {
    if items.len() <= 1 {
        return vec![items.to_vec()];
    }
    let mut out = Vec::new();
    for (i, &head) in items.iter().enumerate() {
        let mut rest: Vec<u8> = items.to_vec();
        rest.remove(i);
        for mut tail in permutations(&rest) {
            tail.insert(0, head);
            out.push(tail);
        }
    }
    out
}

struct Explorer {
    cfg: MckConfig,
    seen: HashSet<u64>,
    steps: u64,
    revisits: u64,
    truncated: u64,
    terminals: u64,
    max_depth: usize,
    capped: bool,
    verdicts: BTreeSet<String>,
    complete_verdicts: BTreeSet<String>,
    violations: Vec<PathViolation>,
    anomalies: BTreeSet<String>,
}

/// How many violating paths to record before stopping the exploration —
/// one is proof enough; a few help diagnosis.
const VIOLATION_CAP: usize = 16;

impl Explorer {
    fn replay(&mut self, path: &[usize]) -> World {
        let mut w = World::build(&self.cfg);
        for &c in path {
            let cs = w.choices();
            if let Some(&choice) = cs.get(c) {
                w.step(choice);
            }
        }
        w
    }

    fn dfs(&mut self, path: &mut Vec<usize>) {
        if self.capped {
            return;
        }
        let w = self.replay(path);
        self.steps += w.steps;
        let verdict = w.verdict();
        self.verdicts.insert(verdict.clone());
        if w.all_decided() {
            self.complete_verdicts.insert(verdict);
        }
        // Certify reachable anomalies: audit this path's trace at EVERY
        // state, not just all-decided ones. The fingerprint is history-blind
        // — once per-txn protocol state is cleaned up, an anomalous
        // interleaving converges with a serial one and is pruned as a
        // revisit — but commit facts in a trace prefix are stable under
        // extension, so the auditor sees the cycle at the first state where
        // it is in evidence, before the fingerprints merge.
        if let Some(sink) = &w.trace_sink {
            let events = sink.snapshot();
            if !events.is_empty() {
                for a in &audit(&events).anomalies {
                    self.anomalies.insert(a.kind.to_string());
                }
            }
        }
        if !w.violations.is_empty() {
            for v in &w.violations {
                self.violations.push(PathViolation {
                    path: path.clone(),
                    invariant: v.invariant.clone(),
                    detail: v.detail.clone(),
                });
            }
            if self.violations.len() >= VIOLATION_CAP {
                self.capped = true;
            }
            return; // prune below a violated state
        }
        let fp = w.fingerprint(self.cfg.symmetry);
        if !self.seen.insert(fp) {
            self.revisits += 1;
            return;
        }
        if self.seen.len() >= self.cfg.max_states {
            self.capped = true;
            return;
        }
        self.max_depth = self.max_depth.max(path.len());
        if path.len() >= self.cfg.depth {
            self.truncated += 1;
            return;
        }
        let n = w.choices().len();
        if n == 0 {
            self.terminals += 1;
            return;
        }
        drop(w);
        for i in 0..n {
            path.push(i);
            self.dfs(path);
            path.pop();
        }
    }
}

/// Exhaustively explore the protocol under `cfg`.
pub fn explore(cfg: &MckConfig) -> Report {
    let mut ex = Explorer {
        cfg: cfg.clone(),
        seen: HashSet::new(),
        steps: 0,
        revisits: 0,
        truncated: 0,
        terminals: 0,
        max_depth: 0,
        capped: false,
        verdicts: BTreeSet::new(),
        complete_verdicts: BTreeSet::new(),
        violations: Vec::new(),
        anomalies: BTreeSet::new(),
    };
    let mut path = Vec::new();
    ex.dfs(&mut path);
    Report {
        unique_states: ex.seen.len() as u64,
        steps: ex.steps,
        revisits: ex.revisits,
        truncated: ex.truncated,
        terminals: ex.terminals,
        max_depth: ex.max_depth,
        capped: ex.capped,
        verdicts: ex.verdicts,
        complete_verdicts: ex.complete_verdicts,
        violations: ex.violations,
        anomalies: ex.anomalies,
    }
}

/// The shard-routing soundness check: the same workload explored with one
/// and with two shards must reach the same set of complete outcome vectors
/// (sharding is a performance layout, never a semantic change). The
/// two-shard run gets 50% more depth because each transaction crosses more
/// actors; the comparison is of *reachable* complete verdicts.
pub struct RoutingReport {
    /// The single-shard exploration.
    pub s1: Report,
    /// The two-shard exploration.
    pub s2: Report,
    /// True when complete-verdict sets match and neither run violated
    /// anything.
    pub consistent: bool,
}

/// Run the shard-routing soundness check (invariant 4).
pub fn routing_check(cfg: &MckConfig) -> RoutingReport {
    let mut c1 = cfg.clone();
    c1.shards = 1;
    let mut c2 = cfg.clone();
    c2.shards = 2;
    c2.depth = cfg.depth + cfg.depth / 2;
    let s1 = explore(&c1);
    let s2 = explore(&c2);
    let consistent = s1.complete_verdicts == s2.complete_verdicts
        && s1.violations.is_empty()
        && s2.violations.is_empty();
    RoutingReport { s1, s2, consistent }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_keys_span_shards() {
        let (a, b) = workload_keys();
        let mut cfg = ClusterConfig::new(2, Protocol::Fast);
        cfg.num_shards = 2;
        assert_ne!(cfg.shard_of(&a), cfg.shard_of(&b));
    }

    #[test]
    fn permutations_enumerate() {
        let perms = permutations(&[1, 2]);
        assert_eq!(perms.len(), 2);
        assert!(perms.contains(&vec![1, 2]) && perms.contains(&vec![2, 1]));
        assert_eq!(permutations(&[1, 2, 3]).len(), 6);
    }

    #[test]
    fn initial_state_has_submit_choices() {
        let w = World::build(&MckConfig::new(2, 1, 4));
        let cs = w.choices();
        // One client at site 0 → exactly one non-empty channel
        // (client → coordinator), delivery only (client channels reliable).
        assert_eq!(cs.len(), 1);
        assert!(matches!(cs[0], Choice::Deliver { .. }));
        assert!(w.violations.is_empty());
    }

    #[test]
    fn fingerprint_is_replay_stable() {
        let cfg = MckConfig::new(2, 1, 4);
        let mut w1 = World::build(&cfg);
        let mut w2 = World::build(&cfg);
        for w in [&mut w1, &mut w2] {
            let cs = w.choices();
            let c = cs[0];
            w.step(c);
        }
        assert_eq!(w1.fingerprint(true), w2.fingerprint(true));
    }

    /// Walk one world with a fixed strategy until every client decided (or
    /// the step cap runs out); returns the world for inspection.
    fn walk(cfg: &MckConfig, pick: impl Fn(usize, usize) -> usize) -> World {
        let mut w = World::build(cfg);
        for k in 0..500 {
            let cs = w.choices();
            if cs.is_empty() || w.all_decided() {
                break;
            }
            w.step(cs[pick(k, cs.len())]);
        }
        w
    }

    #[test]
    fn write_skew_is_reachable_and_audited() {
        // Round-robin delivery interleaves the two mirrored transactions, so
        // both read the initial versions before either commits — the
        // interleaving MDCC admits and serializability would forbid. The
        // auditor must certify it from the recorded trace.
        let mut cfg = MckConfig::new(2, 2, 64);
        cfg.scenario = Scenario::WriteSkew;
        cfg.audit = true;
        let w = walk(&cfg, |k, n| k % n);
        assert!(w.all_decided(), "walk did not finish: {}", w.verdict());
        assert_eq!(w.verdict(), "CC", "no write-write conflict: both commit");
        assert!(w.violations.is_empty(), "{:?}", w.violations);
        let sink = w.trace_sink.as_ref().expect("audit is on");
        let v = audit(&sink.snapshot());
        assert!(
            v.has("write-skew"),
            "expected write-skew certificate; verdict: {}",
            v.summary()
        );
        let skew = v
            .anomalies
            .iter()
            .find(|a| a.kind == "write-skew")
            .expect("has() implies present");
        assert_eq!(skew.txns.len(), 2, "witness names both transactions");
        assert_eq!(skew.edges.len(), 2, "witness carries the rw 2-cycle");
    }

    #[test]
    fn serial_write_skew_schedule_is_clean() {
        // Greedy deliver-first runs the two transactions back-to-back: the
        // second reads the first's committed write, which is serializable —
        // the auditor must NOT cry wolf.
        let mut cfg = MckConfig::new(2, 2, 64);
        cfg.scenario = Scenario::WriteSkew;
        cfg.audit = true;
        let w = walk(&cfg, |_, _| 0);
        assert!(w.all_decided(), "walk did not finish: {}", w.verdict());
        let sink = w.trace_sink.as_ref().expect("audit is on");
        let v = audit(&sink.snapshot());
        assert!(v.clean(), "serial schedule flagged: {}", v.summary());
    }

    #[test]
    fn explore_certifies_write_skew_reachable() {
        // The real certification path: bounded exhaustive exploration over
        // the write-skew scenario must find an interleaving exhibiting the
        // anomaly and surface it in the report.
        let mut cfg = MckConfig::new(2, 2, 26);
        cfg.scenario = Scenario::WriteSkew;
        cfg.audit = true;
        cfg.max_states = 40_000;
        let rep = explore(&cfg);
        assert!(rep.violations.is_empty(), "{:?}", rep.violations);
        assert!(
            rep.anomalies.contains("write-skew"),
            "write-skew not certified reachable: anomalies {:?}, complete {:?}",
            rep.anomalies,
            rep.complete_verdicts
        );
    }

    #[test]
    fn audit_is_digest_neutral() {
        // Tracing rides in ClusterConfig and is never hashed: the explored
        // state graph with auditing on must be node-for-node identical to
        // the one with auditing off.
        let mut base = MckConfig::new(2, 2, 10);
        base.scenario = Scenario::WriteSkew;
        let mut audited = base.clone();
        audited.audit = true;
        let off = explore(&base);
        let on = explore(&audited);
        assert_eq!(off.unique_states, on.unique_states);
        assert_eq!(off.revisits, on.revisits);
        assert_eq!(off.verdicts, on.verdicts);
        assert_eq!(off.complete_verdicts, on.complete_verdicts);
        assert!(off.anomalies.is_empty(), "no auditing, no anomalies");
    }

    #[test]
    fn plans_are_digest_neutral() {
        // The compiled commit path mirrors the interpreted one message for
        // message and digests per-transaction state as the spec it
        // specializes, so switching the workload to compiled plans must not
        // move a single state count: same unique states, same revisits, same
        // replay steps, same verdict sets. Both scenarios — Conflict has
        // write-write contention, WriteSkew exercises the plan read path.
        for scenario in [Scenario::Conflict, Scenario::WriteSkew] {
            let mut base = MckConfig::new(2, 2, 10);
            base.scenario = scenario;
            let mut compiled = base.clone();
            compiled.use_plans = true;
            let off = explore(&base);
            let on = explore(&compiled);
            assert!(off.violations.is_empty(), "{:?}", off.violations);
            assert!(on.violations.is_empty(), "{:?}", on.violations);
            assert_eq!(off.unique_states, on.unique_states, "{scenario:?}");
            assert_eq!(off.revisits, on.revisits, "{scenario:?}");
            assert_eq!(off.steps, on.steps, "{scenario:?}");
            assert_eq!(off.truncated, on.truncated, "{scenario:?}");
            assert_eq!(off.terminals, on.terminals, "{scenario:?}");
            assert_eq!(off.max_depth, on.max_depth, "{scenario:?}");
            assert_eq!(off.verdicts, on.verdicts, "{scenario:?}");
            assert_eq!(off.complete_verdicts, on.complete_verdicts, "{scenario:?}");
        }
    }

    #[test]
    fn compiled_plan_commits_along_some_path() {
        // Greedy deliver-first walk of a compiled-plan world: the plan path
        // must carry a transaction to commit with no monitor violation.
        let mut cfg = MckConfig::new(2, 1, 64);
        cfg.use_plans = true;
        let mut w = World::build(&cfg);
        for _ in 0..64 {
            let cs = w.choices();
            let Some(&c) = cs.first() else { break };
            w.step(c);
            if w.all_decided() {
                break;
            }
        }
        assert!(w.violations.is_empty(), "{:?}", w.violations);
        assert_eq!(w.verdict(), "C");
    }

    #[test]
    fn single_txn_commits_along_some_path() {
        // Greedy deliver-first walk of a 2-site single-client world: the
        // protocol must commit without any violation.
        let cfg = MckConfig::new(2, 1, 64);
        let mut w = World::build(&cfg);
        for _ in 0..64 {
            let cs = w.choices();
            let Some(&c) = cs.first() else { break };
            w.step(c);
            if w.all_decided() {
                break;
            }
        }
        assert!(w.violations.is_empty(), "{:?}", w.violations);
        assert_eq!(w.verdict(), "C");
    }
}
