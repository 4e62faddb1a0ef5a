//! The wire protocol: every message exchanged between clients, transaction
//! coordinators and storage replicas, plus the progress-event vocabulary the
//! PLANET layer observes.
//!
//! The simulation engine requires a single message type per simulation, so
//! this enum is the shared vocabulary of the whole system; the variants under
//! "client-side" exist for the layers above (planet-core, planet-workload)
//! and are never interpreted by the protocol actors.

use planet_sim::{ActorId, SimTime, SiteId};
use planet_storage::{Key, KeyList, RecordOption, RejectReason, TxnId, Value, VersionNo, WriteOp};

/// Where a transaction's reads are served.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReadLevel {
    /// Read the local replica's committed state — sub-millisecond, but it
    /// may trail the masters by up to one apply propagation (~1 WAN hop).
    /// This is MDCC/PLANET's default read-committed behaviour.
    #[default]
    Local,
    /// Read a majority of replicas and take the highest committed version
    /// per key — bounded-staleness freshness at the cost of a WAN round
    /// trip to the median replica.
    Quorum,
}

/// What a transaction wants to do. The coordinator reads every key named in
/// `reads` and every key written, then proposes one option per write.
#[derive(Debug, Clone, Default)]
pub struct TxnSpec {
    /// Keys the transaction reads (beyond those it writes).
    pub reads: Vec<Key>,
    /// Writes: the coordinator turns each into an option based on the
    /// version it read.
    pub writes: Vec<(Key, WriteOp)>,
    /// Where reads are served.
    pub read_level: ReadLevel,
}

/// The spec an ad-hoc client would submit for one execution of a program.
impl From<planet_plan::InstantiatedTxn> for TxnSpec {
    fn from(inst: planet_plan::InstantiatedTxn) -> Self {
        TxnSpec {
            reads: inst.reads,
            writes: inst.writes,
            read_level: if inst.quorum_reads {
                ReadLevel::Quorum
            } else {
                ReadLevel::Local
            },
        }
    }
}

impl TxnSpec {
    /// A read-only transaction.
    pub fn read_only(keys: impl IntoIterator<Item = Key>) -> Self {
        TxnSpec {
            reads: keys.into_iter().collect(),
            writes: Vec::new(),
            read_level: ReadLevel::Local,
        }
    }

    /// A single-key blind write.
    pub fn write_one(key: Key, op: WriteOp) -> Self {
        TxnSpec {
            reads: Vec::new(),
            writes: vec![(key, op)],
            read_level: ReadLevel::Local,
        }
    }

    /// Every key the transaction touches, deduplicated, in first-use order.
    pub fn touched_keys(&self) -> Vec<Key> {
        let mut keys = Vec::with_capacity(self.reads.len() + self.writes.len());
        self.for_each_touched(|k| keys.push(k.clone()));
        keys
    }

    /// Visit every touched key once, in first-use order, without cloning.
    /// Dedup runs over borrowed keys — a linear scan for the small specs
    /// that dominate, a sorted seen-set above that — instead of the old
    /// owned-`Vec::contains` walk that paid quadratic string compares *and*
    /// cloned every key before checking it.
    pub fn for_each_touched(&self, mut f: impl FnMut(&Key)) {
        const SMALL: usize = 16;
        let total = self.reads.len() + self.writes.len();
        let iter = self.reads.iter().chain(self.writes.iter().map(|(k, _)| k));
        let mut seen: Vec<&Key> = Vec::with_capacity(total);
        if total <= SMALL {
            for k in iter {
                if !seen.contains(&k) {
                    seen.push(k);
                    f(k);
                }
            }
        } else {
            for k in iter {
                if let Err(pos) = seen.binary_search(&k) {
                    seen.insert(pos, k);
                    f(k);
                }
            }
        }
    }

    /// True if the transaction writes nothing.
    pub fn is_read_only(&self) -> bool {
        self.writes.is_empty()
    }
}

/// A single key's read result as returned to clients.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyRead {
    /// The key.
    pub key: Key,
    /// Committed version at the replica that served the read.
    pub version: VersionNo,
    /// Committed value.
    pub value: Value,
    /// Options pending on the record at read time — the contention signal
    /// the likelihood model consumes.
    pub pending: usize,
}

/// Fine-grained transaction progress, emitted by the coordinator to whoever
/// submitted the transaction. This is the PLANET paper's "internal progress
/// of the transaction" made visible.
#[derive(Debug, Clone)]
pub enum ProgressStage {
    /// The coordinator admitted the transaction and is reading.
    Started,
    /// All reads completed; option proposals are going out. Carries the read
    /// results (clients use them; the predictor uses the pending counts).
    ReadsDone {
        /// Read results for every touched key.
        reads: Vec<KeyRead>,
    },
    /// A replica voted on one key's option.
    Vote {
        /// The voted key.
        key: Key,
        /// The replica's site.
        site: SiteId,
        /// Whether the replica accepted the option.
        accept: bool,
        /// Rejection reason when `accept` is false.
        reason: Option<RejectReason>,
        /// Time from proposal send to this vote's arrival.
        elapsed_us: u64,
    },
    /// The fast round collided (split votes, no quorum possible); the key is
    /// being retried through its master. Observers should reset their
    /// per-key vote tracking for the new round.
    KeyFallback {
        /// The key being retried.
        key: Key,
    },
    /// One key reached its quorum (or failed definitively).
    KeyResolved {
        /// The resolved key.
        key: Key,
        /// Whether the key's option achieved its quorum.
        accepted: bool,
    },
}

/// The terminal outcome of a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// All options reached quorum; the transaction is durable.
    Committed,
    /// Some option was rejected or could not reach quorum.
    Aborted,
    /// The server-side timeout expired before all votes arrived.
    TimedOut,
}

impl Outcome {
    /// True for `Committed`.
    pub fn is_commit(&self) -> bool {
        matches!(self, Outcome::Committed)
    }
}

/// Summary statistics the coordinator attaches to the terminal outcome.
#[derive(Debug, Clone)]
pub struct TxnStats {
    /// When the coordinator accepted the transaction.
    pub submitted_at: SimTime,
    /// When the outcome was determined.
    pub decided_at: SimTime,
    /// When the coordinator dispatched the proposals (after reads
    /// completed); `SimTime::ZERO` if none ever went out (read-only
    /// transaction, or a timeout before reads finished). The gap to
    /// `decided_at` is the quorum wait — the span the coordinator spent
    /// blocked on replica votes.
    pub proposals_sent_at: SimTime,
    /// Number of keys written.
    pub write_keys: usize,
    /// Votes received before the decision.
    pub votes_received: usize,
    /// Rejections received before the decision.
    pub rejections: usize,
}

impl TxnStats {
    /// Microseconds the coordinator held the transaction, submit to
    /// decision.
    pub fn server_us(&self) -> u64 {
        self.decided_at.since(self.submitted_at).as_micros()
    }

    /// Microseconds spent waiting on replica votes (proposal dispatch to
    /// decision); zero if proposals never went out.
    pub fn quorum_wait_us(&self) -> u64 {
        if self.proposals_sent_at == SimTime::ZERO {
            return 0;
        }
        self.decided_at.since(self.proposals_sent_at).as_micros()
    }
}

/// Every message in the system.
#[derive(Debug, Clone)]
pub enum Msg {
    // ---- client → coordinator ----
    /// Submit a transaction; progress and the outcome flow back to `reply_to`.
    Submit {
        /// The transaction body.
        spec: TxnSpec,
        /// Actor to receive `Progress`/`TxnDone` messages.
        reply_to: ActorId,
        /// Client-chosen tag echoed back in every reply, letting a client
        /// multiplex many in-flight transactions.
        tag: u64,
    },
    /// Register a transaction program under a client-chosen plan id at a
    /// coordinator; the coordinator compiles it once against its
    /// configuration and keeps the [`planet_plan::CompiledPlan`] for the
    /// lifetime of the actor. Re-registering an id replaces the program.
    /// Acknowledged with [`Msg::PlanReady`].
    // check:allow(flow): sent over the wire by the benchmark's client (perf/src/generator.rs)
    RegisterPlan {
        /// Client-chosen plan id, scoped to the receiving coordinator.
        plan: planet_plan::PlanId,
        /// The program to compile.
        program: planet_plan::TxnProgram,
        /// Actor to receive `PlanReady`.
        reply_to: ActorId,
    },
    /// Submit one execution of a registered plan. Replaces `Submit`'s full
    /// key-string spec with `(plan, params)`; the coordinator lowers either
    /// into the same execution, so progress and the outcome flow back
    /// exactly as for `Submit`.
    SubmitPlan {
        /// The registered plan.
        plan: planet_plan::PlanId,
        /// Submit-time arguments.
        params: Vec<planet_plan::PlanParam>,
        /// Actor to receive `Progress`/`TxnDone` messages.
        reply_to: ActorId,
        /// Client-chosen tag echoed back in every reply.
        tag: u64,
    },

    // ---- coordinator → replica ----
    /// Read a batch of keys at a replica.
    ReadReq {
        /// Transaction performing the read.
        txn: TxnId,
        /// Keys to read: two inline, a vector from the third.
        keys: KeyList,
    },
    /// Fast path: propose an option directly at a replica for validation.
    FastPropose {
        /// Proposing transaction.
        txn: TxnId,
        /// Target key.
        key: Key,
        /// The conditional write.
        option: RecordOption,
        /// Per-key proposal round (0 = first attempt; bumped on fallback).
        round: u8,
    },
    /// Classic/2PC: propose an option at the key's master (also used by the
    /// fast path's collision-fallback round).
    Propose {
        /// Proposing transaction.
        txn: TxnId,
        /// Target key.
        key: Key,
        /// The conditional write.
        option: RecordOption,
        /// Coordinator to receive votes (directly on the classic path).
        coordinator: ActorId,
        /// Per-key proposal round.
        round: u8,
    },
    /// Master → other replicas: make an accepted option durable.
    Replicate {
        /// Proposing transaction.
        txn: TxnId,
        /// Target key.
        key: Key,
        /// The conditional write.
        option: RecordOption,
        /// Coordinator (classic path: replicas vote straight back to it).
        coordinator: ActorId,
        /// Master that accepted the option (2PC path: acks return here).
        master: ActorId,
        /// Per-key proposal round.
        round: u8,
    },
    /// Decision for one key, sent to the key's master (which applies and
    /// fans out `Apply`). Carries the option so the master can force-apply
    /// a commit it never validated (possible on the fast path).
    Decide {
        /// Deciding transaction.
        txn: TxnId,
        /// The key being decided.
        key: Key,
        /// The option that was voted on.
        option: RecordOption,
        /// Commit or abort.
        commit: bool,
    },

    // ---- replica → coordinator / master ----
    /// A read response.
    ReadResp {
        /// Transaction that asked.
        txn: TxnId,
        /// One entry per requested key.
        results: Vec<KeyRead>,
    },
    /// A validation vote for one key's option.
    Vote {
        /// Voting on behalf of this transaction.
        txn: TxnId,
        /// The voted key.
        key: Key,
        /// The voting replica's site.
        site: SiteId,
        /// Accept or reject.
        accept: bool,
        /// Rejection reason when `accept` is false.
        reason: Option<RejectReason>,
        /// Echo of the proposal round being voted on.
        round: u8,
    },
    /// 2PC path: a replica acknowledges durability of a replicated option to
    /// the key's master.
    ReplicateAck {
        /// Transaction whose option was made durable.
        txn: TxnId,
        /// The key.
        key: Key,
        /// The acking replica's site.
        site: SiteId,
    },

    // ---- master → other replicas ----
    /// State transfer of a newly committed version. Replicas install it if
    /// it is newer than what they have; application order is therefore the
    /// master's order and replicas converge regardless of message timing.
    Apply {
        /// The key.
        key: Key,
        /// New committed version number (master-assigned).
        version: VersionNo,
        /// New committed value.
        value: Value,
        /// Transaction that produced it.
        txn: TxnId,
    },
    /// A transaction aborted: drop its pending option (frees demarcation
    /// headroom and physical locks at fast-path validators).
    DropPending {
        /// The key.
        key: Key,
        /// The aborted transaction.
        txn: TxnId,
    },

    // ---- coordinator → client ----
    /// A progress callback event.
    Progress {
        /// Client-chosen tag from `Submit`.
        tag: u64,
        /// Transaction id assigned by the coordinator.
        txn: TxnId,
        /// What happened.
        stage: ProgressStage,
    },
    /// Terminal outcome.
    TxnDone {
        /// Client-chosen tag from `Submit`.
        tag: u64,
        /// The transaction.
        txn: TxnId,
        /// Commit / abort / timeout.
        outcome: Outcome,
        /// Summary statistics.
        stats: TxnStats,
    },
    /// Acknowledges a [`Msg::RegisterPlan`]: the plan compiled and is
    /// submittable. A malformed program gets no reply (the registering
    /// client's wait times out; `plan.register_rejected` counts it).
    // check:allow(flow): handled by the benchmark's client (perf/src/generator.rs)
    PlanReady {
        /// The registered plan id.
        plan: planet_plan::PlanId,
    },

    // ---- timers ----
    /// Replica-internal: the validation server finished one unit of work
    /// (only used when `validation_service > 0`).
    ReplicaServiceDone,
    /// Coordinator-internal per-transaction timeout.
    TxnTimeout {
        /// The transaction that may have expired.
        txn: TxnId,
    },
    /// A timer for periodic work and deadlines: the PLANET layer's client
    /// arms it, and so does the replica for its lease sweep. `kind` is
    /// chosen by the actor that arms it.
    ClientTimer {
        /// Caller-defined discriminator.
        kind: u32,
        /// Caller-defined payload (e.g. a transaction tag).
        tag: u64,
    },
}

impl Msg {
    /// `(reply_to, tag)` if this is client load — a transaction submitted in
    /// either form — and `None` for protocol traffic. Transports shed the
    /// former at a full mailbox and block on the latter.
    pub fn submission(&self) -> Option<(ActorId, u64)> {
        match self {
            Msg::Submit { reply_to, tag, .. } | Msg::SubmitPlan { reply_to, tag, .. } => {
                Some((*reply_to, *tag))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every message is moved through a mailbox, a batch and an envelope
    /// several times per hop, about twenty hops per commit, so the size of
    /// the largest variant is a cost every variant pays. Measured: a `Msg`
    /// of 136 bytes (a `TxnProgram` with its key table inline, in the
    /// once-per-run `RegisterPlan`) against 120 cost 2.3 % of
    /// `chan-ticket-sat` goodput in ten pairs of ten. Box what is rare and
    /// big instead of raising this.
    #[test]
    fn a_message_is_no_bigger_than_it_was() {
        assert!(
            std::mem::size_of::<Msg>() <= 120,
            "Msg is {} bytes",
            std::mem::size_of::<Msg>()
        );
    }

    #[test]
    fn touched_keys_dedups_preserving_order() {
        let spec = TxnSpec {
            reads: vec![Key::new("a"), Key::new("b")],
            writes: vec![
                (Key::new("b"), WriteOp::add(1)),
                (Key::new("c"), WriteOp::add(1)),
            ],
            read_level: ReadLevel::Local,
        };
        let keys = spec.touched_keys();
        assert_eq!(keys, vec![Key::new("a"), Key::new("b"), Key::new("c")]);
    }

    #[test]
    fn touched_keys_dedups_above_the_small_spec_threshold() {
        // 3 distinct keys, each repeated 8 times → 24 total, exercising the
        // sorted seen-set branch. First-use order must survive the sort.
        let reads: Vec<Key> = (0..24).map(|i| Key::new(format!("k{}", i % 3))).collect();
        let spec = TxnSpec {
            reads,
            writes: vec![(Key::new("w"), WriteOp::add(1))],
            read_level: ReadLevel::Local,
        };
        assert_eq!(
            spec.touched_keys(),
            vec![
                Key::new("k0"),
                Key::new("k1"),
                Key::new("k2"),
                Key::new("w")
            ]
        );
    }

    #[test]
    fn constructors() {
        let ro = TxnSpec::read_only([Key::new("x")]);
        assert!(ro.is_read_only());
        let w = TxnSpec::write_one(Key::new("y"), WriteOp::add(1));
        assert!(!w.is_read_only());
        assert_eq!(w.touched_keys(), vec![Key::new("y")]);
    }

    #[test]
    fn outcome_is_commit() {
        assert!(Outcome::Committed.is_commit());
        assert!(!Outcome::Aborted.is_commit());
        assert!(!Outcome::TimedOut.is_commit());
    }
}
