//! A closed-loop load-generator client for live clusters.
//!
//! One [`LoadClient`] models one virtual user: it keeps exactly one
//! transaction in flight, submitting the next the moment the previous one
//! finishes. Completions stream to the driver over a channel, so the driver
//! (the `throughput` experiment, or the `planet-load` binary) can compute
//! ops/sec and latency percentiles over a measurement window without ever
//! touching the actor.

use std::collections::HashMap;
use std::sync::mpsc::Sender;

use planet_mdcc::{Msg, Outcome, Trace, TraceEvent, TxnSpec};
use planet_plan::{PlanId, PlanParam, TxnProgram};
use planet_sim::{Actor, ActorId, Context, DetRng, SimDuration, SimTime};
use planet_storage::{Key, WriteOp};

/// `ClientTimer.kind` for the per-transaction resubmit deadline.
pub const TIMER_RESUBMIT: u32 = 1;

/// `ClientTimer.kind` for the plan-registration retry deadline.
pub const TIMER_REGISTER: u32 = 2;

/// Default per-transaction deadline before a reply is written off as lost.
/// Generous: an in-flight transaction on a healthy cluster finishes in
/// milliseconds, so this only fires when the reply (or the submit itself)
/// was genuinely dropped — e.g. shed by a full mailbox.
pub const DEFAULT_RESUBMIT_TIMEOUT: SimDuration = SimDuration::from_secs(5);

/// A pluggable transaction source for [`LoadClient`]: called with the
/// client's deterministic RNG, returns the next spec to submit.
pub type SpecSource = Box<dyn FnMut(&mut DetRng) -> TxnSpec + Send>;

/// The compiled-path twin of [`SpecSource`]: returns the next execution's
/// parameters for the client's registered plan.
pub type PlanSource = Box<dyn FnMut(&mut DetRng) -> Vec<PlanParam> + Send>;

/// Compiled-path state for a [`LoadClient`] driving `SubmitPlan` instead of
/// `Submit`: the program registers once at startup and the closed loop
/// starts when `PlanReady` lands.
struct PlanMode {
    plan: PlanId,
    program: TxnProgram,
    params: PlanSource,
    ready: bool,
}

/// One finished transaction, as reported to the driver.
#[derive(Debug, Clone, Copy)]
pub struct LoadRecord {
    /// The submitting client.
    pub client: u32,
    /// Client-local transaction tag.
    pub tag: u64,
    /// Commit / abort / timeout.
    pub outcome: Outcome,
    /// When the client sent the submit (cluster clock).
    pub submitted: SimTime,
    /// When the outcome arrived back (cluster clock).
    pub decided: SimTime,
    /// Server-side hold time the coordinator reported (its submit-to-decide
    /// interval, in µs); 0 when the reply never arrived (client timeout).
    pub server_us: u64,
    /// Of `server_us`, the µs the coordinator spent waiting on replica
    /// votes (proposal dispatch to decision).
    pub quorum_wait_us: u64,
}

impl LoadRecord {
    /// Submit-to-decision latency in microseconds.
    pub fn latency_us(&self) -> u64 {
        self.decided.since(self.submitted).as_micros()
    }

    /// Microseconds the transaction spent outside the coordinator: total
    /// client-observed latency minus the coordinator's reported hold time —
    /// the wire, the fabric's coalescing slack, and both mailboxes.
    pub fn network_us(&self) -> u64 {
        self.latency_us().saturating_sub(self.server_us)
    }
}

/// The closed-loop client actor.
pub struct LoadClient {
    coordinator: ActorId,
    keys: Vec<Key>,
    results: Sender<LoadRecord>,
    inflight: HashMap<u64, SimTime>,
    next_tag: u64,
    submitted: u64,
    /// Overrides the default single-key-increment mix when set.
    spec_source: Option<SpecSource>,
    /// Drives the compiled `SubmitPlan` path when set (wins over
    /// `spec_source`).
    plan_mode: Option<PlanMode>,
    /// Per-transaction deadline: if no `TxnDone` arrives in time, the
    /// transaction is reported as timed out and the loop moves on. Without
    /// it, one shed submit or lost reply wedges the closed loop forever.
    resubmit_timeout: SimDuration,
    /// Client-side trace: records the `Finish` the coordinator reported,
    /// stamped with the client's clock. Complements the server-side trace
    /// (which has the reads and commits); off by default.
    trace: Trace,
}

impl LoadClient {
    /// A client submitting commutative single-key increments to `coordinator`,
    /// choosing keys uniformly from `keys`, reporting completions on
    /// `results`.
    pub fn new(coordinator: ActorId, keys: Vec<Key>, results: Sender<LoadRecord>) -> Self {
        assert!(!keys.is_empty(), "load client needs at least one key");
        LoadClient {
            coordinator,
            keys,
            results,
            inflight: HashMap::new(),
            next_tag: 0,
            submitted: 0,
            spec_source: None,
            plan_mode: None,
            resubmit_timeout: DEFAULT_RESUBMIT_TIMEOUT,
            trace: Trace::off(),
        }
    }

    /// Override the per-transaction resubmit deadline.
    pub fn with_resubmit_timeout(mut self, timeout: SimDuration) -> Self {
        self.resubmit_timeout = timeout;
        self
    }

    /// Replace the default increment mix with a custom transaction source
    /// (e.g. one of `planet-workload`'s anomaly generators).
    pub fn with_spec_source(mut self, source: SpecSource) -> Self {
        self.spec_source = Some(source);
        self
    }

    /// Drive the compiled path: register `program` under `plan` at startup,
    /// then submit `(plan, params)` executions instead of full specs.
    pub fn with_plan(mut self, plan: PlanId, program: TxnProgram, params: PlanSource) -> Self {
        self.plan_mode = Some(PlanMode {
            plan,
            program,
            params,
            ready: false,
        });
        self
    }

    /// Record client-observed transaction outcomes to `trace`.
    pub fn with_trace(mut self, trace: Trace) -> Self {
        self.trace = trace;
        self
    }

    /// Transactions submitted so far.
    pub fn submitted(&self) -> u64 {
        self.submitted
    }

    /// Send (or resend) the plan registration and arm its retry timer.
    fn register_plan(&mut self, ctx: &mut Context<'_, Msg>) {
        if let Some(mode) = &self.plan_mode {
            let me = ctx.self_id();
            ctx.send(
                self.coordinator,
                Msg::RegisterPlan {
                    plan: mode.plan,
                    program: mode.program.clone(),
                    reply_to: me,
                },
            );
            ctx.schedule(
                self.resubmit_timeout,
                Msg::ClientTimer {
                    kind: TIMER_REGISTER,
                    tag: 0,
                },
            );
        }
    }

    fn submit_next(&mut self, ctx: &mut Context<'_, Msg>) {
        let tag = self.next_tag;
        self.next_tag += 1;
        self.submitted += 1;
        self.inflight.insert(tag, ctx.now());
        let me = ctx.self_id();
        match &mut self.plan_mode {
            Some(mode) => {
                let params = (mode.params)(ctx.rng());
                ctx.send(
                    self.coordinator,
                    Msg::SubmitPlan {
                        plan: mode.plan,
                        params,
                        reply_to: me,
                        tag,
                    },
                );
            }
            None => {
                let spec = match &mut self.spec_source {
                    Some(source) => source(ctx.rng()),
                    None => {
                        let key = self.keys[ctx.rng().index(self.keys.len())].clone();
                        TxnSpec::write_one(key, WriteOp::add(1))
                    }
                };
                ctx.send(
                    self.coordinator,
                    Msg::Submit {
                        spec,
                        reply_to: me,
                        tag,
                    },
                );
            }
        }
        ctx.schedule(
            self.resubmit_timeout,
            Msg::ClientTimer {
                kind: TIMER_RESUBMIT,
                tag,
            },
        );
    }

    /// Report one finished transaction to the driver, attributing its
    /// latency: the coordinator's reported spans pass through, and the
    /// remainder — client-observed latency minus server hold time — is
    /// recorded as this client's `span.network_us`.
    fn report(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        tag: u64,
        outcome: Outcome,
        submitted: SimTime,
        server_us: u64,
        quorum_wait_us: u64,
    ) {
        let record = LoadRecord {
            client: ctx.self_id().0,
            tag,
            outcome,
            submitted,
            decided: ctx.now(),
            server_us,
            quorum_wait_us,
        };
        if server_us > 0 || outcome != Outcome::TimedOut {
            ctx.metrics()
                .histogram("span.network_us")
                .record(record.network_us());
        }
        let _ = self.results.send(record);
    }
}

impl Actor<Msg> for LoadClient {
    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        if self.plan_mode.is_some() {
            self.register_plan(ctx);
        } else {
            self.submit_next(ctx);
        }
    }

    fn on_message(&mut self, _from: ActorId, msg: Msg, ctx: &mut Context<'_, Msg>) {
        match msg {
            Msg::TxnDone {
                tag,
                txn,
                outcome,
                stats,
            } => {
                if self.trace.is_on() {
                    self.trace.emit(TraceEvent::Finish {
                        txn,
                        outcome,
                        at: ctx.now(),
                    });
                }
                // Only the first resolution of a tag (reply or deadline)
                // reports and refills the loop; a straggler reply landing
                // after its deadline already moved on is dropped here.
                if let Some(submitted) = self.inflight.remove(&tag) {
                    self.report(
                        ctx,
                        tag,
                        outcome,
                        submitted,
                        stats.server_us(),
                        stats.quorum_wait_us(),
                    );
                    self.submit_next(ctx);
                }
            }
            Msg::PlanReady { plan } => {
                if let Some(mode) = &mut self.plan_mode {
                    if plan == mode.plan && !mode.ready {
                        mode.ready = true;
                        self.submit_next(ctx);
                    }
                }
            }
            Msg::ClientTimer {
                kind: TIMER_RESUBMIT,
                tag,
            } => {
                if let Some(submitted) = self.inflight.remove(&tag) {
                    self.report(ctx, tag, Outcome::TimedOut, submitted, 0, 0);
                    self.submit_next(ctx);
                }
            }
            // The registration (or its ack) was lost: try again. Once
            // `PlanReady` lands this timer becomes a no-op (guard is false).
            Msg::ClientTimer {
                kind: TIMER_REGISTER,
                ..
            } if self.plan_mode.as_ref().is_some_and(|m| !m.ready) => {
                self.register_plan(ctx);
            }
            _ => {}
        }
    }
}
