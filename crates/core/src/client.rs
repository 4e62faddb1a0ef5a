//! The PLANET client actor: the application-side runtime.
//!
//! One client actor runs at each site, colocated with its coordinator. It
//! owns the site's [`LikelihoodModel`] and [`AdmissionController`] and, for
//! every transaction it manages:
//!
//! * decides admission at submission time,
//! * observes the coordinator's raw progress stream (votes, key
//!   resolutions), feeding every vote into the likelihood model,
//! * recomputes the commit likelihood after each event and drives the
//!   application's callbacks — progress, speculative commit, deadline
//!   return, final outcome, apology,
//! * records a full prediction trace per transaction for the calibration
//!   experiments.

use std::collections::HashMap;
use std::sync::mpsc::Sender;

use planet_mdcc::{ClusterConfig, KeyRead, Msg, Outcome, ProgressStage, Protocol};
use planet_plan::{PlanId, TxnProgram};
use planet_predict::{KeyState, LikelihoodModel};
use planet_sim::{Actor, ActorId, Context, DetRng, SimDuration, SimTime, SiteMask};
use planet_storage::{Key, TxnId};

use crate::admission::{AdmissionController, AdmissionPolicy};
use crate::txn::{ChainTrigger, FinalOutcome, PlanetTxn, Stage, TxnEvent, TxnHandle};

/// Timer kind: fire a staged submission.
pub(crate) const TIMER_SUBMIT: u32 = 101;
/// Timer kind: a transaction's application deadline.
pub(crate) const TIMER_DEADLINE: u32 = 102;
/// Timer kind: next workload arrival.
pub(crate) const TIMER_ARRIVAL: u32 = 103;
/// Timer kind: cancel a staged (chained) transaction.
pub(crate) const TIMER_CANCEL: u32 = 104;
/// Timer kind: the closed loop's lost-reply guard.
const TIMER_LOST: u32 = 105;

/// What happened to a chain predecessor, for successor dispatch.
#[derive(Debug, Clone, Copy)]
enum ChainOutcome {
    Speculated,
    Committed,
    Failed,
}

/// How a [`TxnSource`] is paced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceMode {
    /// Open loop: arrivals follow the gaps the source returns, independent
    /// of completions (models external demand, e.g. web traffic).
    Open,
    /// Closed loop: `concurrency` virtual users, each submitting its next
    /// transaction only after the previous one finishes plus the returned
    /// gap (think time). Models interactive sessions / benchmark drivers.
    Closed {
        /// Number of virtual users.
        concurrency: usize,
    },
}

/// A source of transactions attached to a client (implemented by
/// `planet-workload` generators).
pub trait TxnSource: Send + 'static {
    /// Produce the next transaction and a gap. Open loop: the delay until
    /// the next arrival. Closed loop: the think time after this
    /// transaction finishes. Returning `None` ends the stream (for that
    /// virtual user, in closed loop).
    fn next_txn(&mut self, now: SimTime, rng: &mut DetRng) -> Option<(PlanetTxn, SimDuration)>;

    /// The pacing mode; defaults to open loop.
    fn mode(&self) -> SourceMode {
        SourceMode::Open
    }
}

/// One point of the per-transaction prediction trace.
#[derive(Debug, Clone, Copy)]
pub struct PredictionPoint {
    /// Microseconds since submission.
    pub elapsed_us: u64,
    /// Predicted commit likelihood at that moment.
    pub likelihood: f64,
    /// Votes that had arrived when the prediction was made.
    pub votes_seen: usize,
}

/// The harvested record of one finished transaction.
#[derive(Debug, Clone)]
pub struct TxnRecord {
    /// The transaction.
    pub handle: TxnHandle,
    /// Terminal state.
    pub outcome: FinalOutcome,
    /// Submission time.
    pub submitted_at: SimTime,
    /// Submission-to-decision latency.
    pub latency: SimDuration,
    /// Number of keys written.
    pub write_keys: usize,
    /// Elapsed time at which the speculative commit fired, if it did.
    pub speculated_at: Option<SimDuration>,
    /// Likelihood reported at the application deadline, if one fired.
    pub deadline_likelihood: Option<f64>,
    /// The full prediction trace (one point per observed event).
    pub predictions: Vec<PredictionPoint>,
    /// The transaction's read results, one per touched key, as served by
    /// the configured read level: the coordinator's `ReadsDone` vector
    /// itself, its byte values owned at rest.
    pub reads: Vec<KeyRead>,
}

impl TxnRecord {
    /// True if the transaction was speculatively reported committed but
    /// finally aborted (an apology).
    pub fn apologised(&self) -> bool {
        self.speculated_at.is_some() && !self.outcome.is_commit()
    }
}

struct LiveTxn {
    txn: PlanetTxn,
    handle: TxnHandle,
    submitted_at: SimTime,
    proposals_at: Option<SimTime>,
    keys: Vec<(Key, KeyState)>,
    speculated_at: Option<SimDuration>,
    deadline_likelihood: Option<f64>,
    predictions: Vec<PredictionPoint>,
    votes_seen: usize,
    reads: Vec<KeyRead>,
}

/// The per-site PLANET client actor.
pub struct ClientActor {
    coordinator: ActorId,
    config: ClusterConfig,
    site: u8,
    model: LikelihoodModel,
    admission: AdmissionController,
    staged: HashMap<u64, PlanetTxn>,
    live: HashMap<u64, LiveTxn>,
    records: Vec<TxnRecord>,
    next_tag: u64,
    source: Option<Box<dyn TxnSource>>,
    /// True once the arrival chain is running (guards duplicate kick-offs).
    arrivals_armed: bool,
    /// Chained submissions: (predecessor tag, trigger, staged successor tag).
    chains: Vec<(u64, ChainTrigger, u64)>,
    /// Closed-loop bookkeeping: think time per in-flight source transaction.
    source_think: HashMap<u64, SimDuration>,
    /// True while a lost-reply guard timer is pending (see
    /// [`guard_lost`](Self::guard_lost)).
    lost_guard_armed: bool,
    /// Programs installed for the compiled submission path, mirrored here so
    /// the client can instantiate each execution locally (the prediction and
    /// admission machinery needs the concrete keys the coordinator will
    /// touch).
    programs: HashMap<PlanId, TxnProgram>,
    /// Scratch of one submission: its write keys' hashes.
    key_hashes: Vec<u64>,
    /// Per-key vote state vectors of finished transactions, emptied with
    /// their capacity kept, for the next submissions to reuse.
    spare_keys: Vec<Vec<(Key, KeyState)>>,
    /// Where every staged transaction's events are also sent (a live
    /// front end's event stream).
    events: Option<Sender<TxnEvent>>,
}

impl ClientActor {
    /// Build a client for `site` submitting to `coordinator`.
    pub fn new(
        config: ClusterConfig,
        coordinator: ActorId,
        site: u8,
        admission: Option<AdmissionPolicy>,
    ) -> Self {
        let n = config.num_sites;
        ClientActor {
            coordinator,
            config,
            site,
            model: LikelihoodModel::new(n, 512),
            admission: AdmissionController::new(admission),
            staged: HashMap::new(),
            live: HashMap::new(),
            records: Vec::new(),
            next_tag: 0,
            source: None,
            arrivals_armed: false,
            chains: Vec::new(),
            source_think: HashMap::new(),
            lost_guard_armed: false,
            programs: HashMap::new(),
            key_hashes: Vec::new(),
            spare_keys: Vec::new(),
            events: None,
        }
    }

    /// Also send every event of every transaction staged from now on to
    /// `events`, after the transaction's own callbacks.
    pub fn stream_events(&mut self, events: Sender<TxnEvent>) {
        self.events = Some(events);
    }

    /// Mirror an installed program so plan-handle submissions can be
    /// instantiated locally. The facade installs the same program on the
    /// site's coordinator.
    pub fn install_program(&mut self, plan: PlanId, program: TxnProgram) {
        self.programs.insert(plan, program);
    }

    /// Attach a workload source; arrivals start when the simulation starts.
    pub fn attach_source(&mut self, source: Box<dyn TxnSource>) {
        self.source = Some(source);
    }

    /// Stage a transaction for submission; returns its handle. The facade
    /// pairs this with an injected `TIMER_SUBMIT` message.
    pub fn stage(&mut self, mut txn: PlanetTxn) -> TxnHandle {
        if let Some(events) = &self.events {
            let events = events.clone();
            txn.callbacks.push(Box::new(move |event: &TxnEvent| {
                let _ = events.send(event.clone());
            }));
        }
        let tag = self.next_tag;
        self.next_tag += 1;
        self.staged.insert(tag, txn);
        TxnHandle {
            site: self.site,
            tag,
        }
    }

    /// Stage a transaction to be submitted automatically when its
    /// predecessor reaches `trigger` (and cancelled if the predecessor
    /// fails). Returns the successor's handle.
    pub fn stage_chained(
        &mut self,
        txn: PlanetTxn,
        after_tag: u64,
        trigger: ChainTrigger,
    ) -> TxnHandle {
        let handle = self.stage(txn);
        self.chains.push((after_tag, trigger, handle.tag));
        handle
    }

    /// Fire or cancel chain successors of `tag`. `speculative_only` limits
    /// launching to `ChainTrigger::Speculative` links (used when the
    /// predecessor has speculated but not yet committed).
    fn process_chains(&mut self, tag: u64, outcome: ChainOutcome, ctx: &mut Context<'_, Msg>) {
        let links: Vec<(ChainTrigger, u64)> = self
            .chains
            .iter()
            .filter(|(after, _, _)| *after == tag)
            .map(|(_, t, n)| (*t, *n))
            .collect();
        for (trigger, next) in links {
            let launch = match (outcome, trigger) {
                (ChainOutcome::Speculated, ChainTrigger::Speculative) => Some(true),
                (ChainOutcome::Speculated, ChainTrigger::Commit) => None, // wait
                (ChainOutcome::Committed, _) => Some(true),
                (ChainOutcome::Failed, _) => Some(false),
            };
            match launch {
                None => {}
                Some(true) => {
                    self.chains.retain(|(_, _, n)| *n != next);
                    self.submit_staged(next, ctx);
                }
                Some(false) => {
                    self.chains.retain(|(_, _, n)| *n != next);
                    self.cancel_staged(next, ctx);
                }
            }
        }
    }

    /// Cancel a staged (never submitted) transaction and, recursively, its
    /// own successors.
    fn cancel_staged(&mut self, tag: u64, ctx: &mut Context<'_, Msg>) {
        let Some(mut txn) = self.staged.remove(&tag) else {
            return;
        };
        let handle = TxnHandle {
            site: self.site,
            tag,
        };
        txn.fire(&TxnEvent::Final {
            handle,
            outcome: FinalOutcome::Cancelled,
            latency: SimDuration::ZERO,
            decided_at: ctx.now(),
        });
        ctx.metrics().counter("planet.cancelled").inc();
        self.records.push(TxnRecord {
            handle,
            outcome: FinalOutcome::Cancelled,
            submitted_at: ctx.now(),
            latency: SimDuration::ZERO,
            write_keys: txn.spec.writes.len(),
            speculated_at: None,
            deadline_likelihood: None,
            predictions: Vec::new(),
            reads: Vec::new(),
        });
        self.process_chains(tag, ChainOutcome::Failed, ctx);
    }

    /// Finished-transaction records, in completion order.
    pub fn records(&self) -> &[TxnRecord] {
        &self.records
    }

    /// Remove and return the finished-transaction records: a live driver
    /// drains them as it goes, so the client holds only what finished since.
    pub fn take_records(&mut self) -> Vec<TxnRecord> {
        std::mem::take(&mut self.records)
    }

    /// The record for a specific handle, if finished.
    pub fn record(&self, handle: TxnHandle) -> Option<&TxnRecord> {
        self.records.iter().find(|r| r.handle == handle)
    }

    /// The site's likelihood model (e.g. for experiment inspection).
    pub fn model(&self) -> &LikelihoodModel {
        &self.model
    }

    /// Mutable model access (diagnostics).
    pub fn model_mut(&mut self) -> &mut LikelihoodModel {
        &mut self.model
    }

    /// Admission statistics `(admitted, refused)`.
    pub fn admission_stats(&self) -> (u64, u64) {
        self.admission.stats()
    }

    /// Transactions currently in flight.
    pub fn inflight(&self) -> usize {
        self.live.len()
    }

    /// Accepts a written key needs and replicas that vote on it, under the
    /// configured protocol.
    fn quorum_shape(&self) -> (usize, usize) {
        match self.config.protocol {
            Protocol::Fast | Protocol::Classic => {
                (self.config.required_quorum(), self.config.num_sites)
            }
            Protocol::TwoPc => (1, 1),
        }
    }

    /// The sites whose votes on `key` are awaited.
    fn voting_sites(&self, key: &Key) -> SiteMask {
        match self.config.protocol {
            Protocol::Fast | Protocol::Classic => (0..self.config.num_sites as u8).collect(),
            Protocol::TwoPc => std::iter::once(self.config.master_of(key).0).collect(),
        }
    }

    fn submit_staged(&mut self, tag: u64, ctx: &mut Context<'_, Msg>) {
        let Some(txn) = self.staged.remove(&tag) else {
            return;
        };
        self.submit_txn(tag, txn, ctx);
    }

    fn submit_txn(&mut self, tag: u64, mut txn: PlanetTxn, ctx: &mut Context<'_, Msg>) {
        let handle = TxnHandle {
            site: self.site,
            tag,
        };
        // Plan-handle submission: instantiate the program locally so the
        // prediction and admission machinery see the concrete keys this
        // execution touches (the wire still carries only `(plan, params)`).
        if let Some((plan, params)) = &txn.plan {
            match self.programs.get(plan).map(|p| p.instantiate(params)) {
                Some(Ok(inst)) => txn.spec = inst.into(),
                _ => {
                    // Unknown plan or parameters the program cannot accept:
                    // the coordinator would reject this execution anyway, so
                    // refuse it client-side with the admission outcome.
                    txn.fire(&TxnEvent::Final {
                        handle,
                        outcome: FinalOutcome::Rejected,
                        latency: SimDuration::ZERO,
                        decided_at: ctx.now(),
                    });
                    ctx.metrics().counter("planet.bad_plan").inc();
                    self.records.push(TxnRecord {
                        handle,
                        outcome: FinalOutcome::Rejected,
                        submitted_at: ctx.now(),
                        latency: SimDuration::ZERO,
                        write_keys: 0,
                        speculated_at: None,
                        deadline_likelihood: None,
                        predictions: Vec::new(),
                        reads: Vec::new(),
                    });
                    self.process_chains(tag, ChainOutcome::Failed, ctx);
                    self.source_txn_finished(tag, ctx);
                    return;
                }
            }
        }
        let write_keys = txn.spec.writes.len();
        let (quorum, voters) = if write_keys > 0 {
            self.quorum_shape()
        } else {
            (0, 0)
        };
        self.key_hashes.clear();
        self.key_hashes.extend(
            txn.spec
                .writes
                .iter()
                .map(|(k, _)| planet_predict::conflict::KeyedConflictModel::key_hash(k.as_str())),
        );

        // Admission decision.
        if self
            .admission
            .admit(
                &self.model,
                &self.key_hashes,
                self.live.len(),
                quorum.max(1),
                voters.max(1),
            )
            .is_err()
        {
            let event = TxnEvent::Final {
                handle,
                outcome: FinalOutcome::Rejected,
                latency: SimDuration::ZERO,
                decided_at: ctx.now(),
            };
            txn.fire(&event);
            ctx.metrics().counter("planet.rejected").inc();
            self.records.push(TxnRecord {
                handle,
                outcome: FinalOutcome::Rejected,
                submitted_at: ctx.now(),
                latency: SimDuration::ZERO,
                write_keys,
                speculated_at: None,
                deadline_likelihood: None,
                predictions: Vec::new(),
                reads: Vec::new(),
            });
            self.process_chains(tag, ChainOutcome::Failed, ctx);
            self.source_txn_finished(tag, ctx);
            return;
        }

        // Initialise per-key vote tracking.
        let mut keys = self.spare_keys.pop().unwrap_or_default();
        keys.extend(
            txn.spec
                .writes
                .iter()
                .zip(&self.key_hashes)
                .map(|((key, _), &key_hash)| {
                    (
                        key.clone(),
                        KeyState {
                            accepts: 0,
                            rejects: 0,
                            outstanding: self.voting_sites(key),
                            pending_at_read: 0,
                            key_hash,
                            quorum,
                            voters,
                        },
                    )
                }),
        );

        if let Some(deadline) = txn.deadline {
            ctx.schedule(
                deadline,
                Msg::ClientTimer {
                    kind: TIMER_DEADLINE,
                    tag,
                },
            );
        }
        // The request carries the spec or the plan's parameters away: after
        // submission the client reads only the deadline, the speculation
        // threshold, the compensation and the callbacks.
        let plan = txn.plan.take();
        let spec = std::mem::take(&mut txn.spec);
        // One point at submission, one when the reads are in, and per
        // written key one per vote and one at its resolution.
        let predictions = Vec::with_capacity(2 + write_keys * (voters + 1));
        self.live.insert(
            tag,
            LiveTxn {
                txn,
                handle,
                submitted_at: ctx.now(),
                proposals_at: None,
                keys,
                speculated_at: None,
                deadline_likelihood: None,
                predictions,
                votes_seen: 0,
                reads: Vec::new(),
            },
        );
        let me = ctx.self_id();
        match plan {
            Some((plan, params)) => ctx.send(
                self.coordinator,
                Msg::SubmitPlan {
                    plan,
                    params,
                    reply_to: me,
                    tag,
                },
            ),
            None => ctx.send(
                self.coordinator,
                Msg::Submit {
                    spec,
                    reply_to: me,
                    tag,
                },
            ),
        }
    }

    /// Current likelihood for a live transaction (budget-aware).
    fn likelihood_of(model: &mut LikelihoodModel, live: &LiveTxn, now: SimTime) -> f64 {
        let elapsed_proposal = live.proposals_at.map_or(0, |at| now.since(at).as_micros());
        // Past its deadline, or without one, the app cares about eventual
        // commit.
        let budget_us = live
            .txn
            .deadline
            .map(|d| d.saturating_sub(now.since(live.submitted_at)).as_micros())
            .filter(|&remaining| remaining > 0)
            .unwrap_or(LikelihoodModel::EVENTUAL_BUDGET_US);
        let keys = live.keys.iter().map(|(_, state)| state);
        model.likelihood_of_keys(keys, elapsed_proposal, budget_us)
    }

    /// Recompute likelihood, record the prediction point, emit a progress
    /// event, and fire the speculative event if the threshold was crossed.
    fn on_progress_point(&mut self, tag: u64, stage: Stage, ctx: &mut Context<'_, Msg>) {
        let now = ctx.now();
        let Some(live) = self.live.get_mut(&tag) else {
            return;
        };
        let likelihood = Self::likelihood_of(&mut self.model, live, now);
        let elapsed = now.since(live.submitted_at);
        live.predictions.push(PredictionPoint {
            elapsed_us: elapsed.as_micros(),
            likelihood,
            votes_seen: live.votes_seen,
        });
        let handle = live.handle;
        live.txn.fire(&TxnEvent::Progress {
            handle,
            stage,
            likelihood,
            elapsed,
        });
        let mut speculated_now = false;
        if let Some(threshold) = live.txn.speculation_threshold {
            if live.speculated_at.is_none() && likelihood >= threshold {
                live.speculated_at = Some(elapsed);
                live.txn.fire(&TxnEvent::Speculative {
                    handle,
                    likelihood,
                    elapsed,
                });
                ctx.metrics().counter("planet.speculated").inc();
                ctx.metrics()
                    .histogram("planet.speculative_latency")
                    .record(elapsed.as_micros());
                speculated_now = true;
            }
        }
        if speculated_now {
            self.process_chains(tag, ChainOutcome::Speculated, ctx);
        }
    }

    fn handle_progress(
        &mut self,
        tag: u64,
        _txn: TxnId,
        stage: ProgressStage,
        ctx: &mut Context<'_, Msg>,
    ) {
        match stage {
            ProgressStage::Started => self.on_progress_point(tag, Stage::Reading, ctx),
            ProgressStage::ReadsDone { reads } => {
                if let Some(live) = self.live.get_mut(&tag) {
                    live.proposals_at = Some(ctx.now());
                    for read in &reads {
                        self.admission.observe_pending(read.pending);
                        for (key, ks) in &mut live.keys {
                            if key == &read.key {
                                ks.pending_at_read = read.pending;
                            }
                        }
                    }
                    live.reads = reads;
                }
                self.on_progress_point(tag, Stage::Voting, ctx);
            }
            ProgressStage::Vote {
                key,
                site,
                accept,
                elapsed_us,
                ..
            } => {
                if !self.live.contains_key(&tag) {
                    // A late vote for a finished transaction: its conflict
                    // context is gone, but the response time still teaches
                    // the path model (this is the only way the slowest
                    // replica's latency is ever observed).
                    if elapsed_us > 0 {
                        self.model.observe_latency(site.0, elapsed_us);
                    }
                    return;
                }
                if let Some(live) = self.live.get_mut(&tag) {
                    live.votes_seen += 1;
                    let mut pending_hint = 0;
                    let mut key_hash = 0;
                    for (k, ks) in &mut live.keys {
                        if k == &key {
                            ks.outstanding.remove(site);
                            if accept {
                                ks.accepts += 1;
                            } else {
                                ks.rejects += 1;
                            }
                            pending_hint = ks.pending_at_read;
                            key_hash = ks.key_hash;
                        }
                    }
                    self.model
                        .observe_vote(site.0, elapsed_us, accept, pending_hint, key_hash);
                }
                self.on_progress_point(tag, Stage::VoteArrived, ctx);
            }
            ProgressStage::KeyFallback { key } => {
                // The fast round collided; the key is being retried through
                // its master. Reset the vote tally for the new round (a
                // classic-majority quorum this time).
                if let Some(live) = self.live.get_mut(&tag) {
                    let quorum = self.config.classic_quorum();
                    let voters = self.config.num_sites;
                    for (k, ks) in &mut live.keys {
                        if k == &key {
                            ks.accepts = 0;
                            ks.rejects = 0;
                            ks.outstanding = (0..voters as u8).collect();
                            ks.quorum = quorum;
                            ks.voters = voters;
                        }
                    }
                }
                self.on_progress_point(tag, Stage::Voting, ctx);
            }
            ProgressStage::KeyResolved { key, accepted } => {
                // Transaction-level learning: did this key's option reach its
                // quorum? This is the statistic the pre-vote conflict term
                // and admission control are built on.
                let key_hash = planet_predict::conflict::KeyedConflictModel::key_hash(key.as_str());
                self.model.observe_key_resolution(key_hash, accepted);
                self.on_progress_point(tag, Stage::KeyResolved, ctx);
            }
        }
    }

    fn handle_done(&mut self, tag: u64, outcome: Outcome, ctx: &mut Context<'_, Msg>) {
        let Some(mut live) = self.live.remove(&tag) else {
            return;
        };
        let now = ctx.now();
        let latency = now.since(live.submitted_at);
        let final_outcome = match outcome {
            Outcome::Committed => FinalOutcome::Committed,
            Outcome::Aborted => FinalOutcome::Aborted,
            Outcome::TimedOut => FinalOutcome::TimedOut,
        };
        let handle = live.handle;
        live.txn.fire(&TxnEvent::Final {
            handle,
            outcome: final_outcome,
            latency,
            decided_at: now,
        });
        if live.speculated_at.is_some() && !final_outcome.is_commit() {
            live.txn.fire(&TxnEvent::Apology { handle });
            ctx.metrics().counter("planet.apologies").inc();
            // Guess-and-apologise: launch the attached compensation, if any.
            if let Some(compensation) = live.txn.compensation.take() {
                let comp_tag = self.next_tag;
                self.next_tag += 1;
                let comp_handle = TxnHandle {
                    site: self.site,
                    tag: comp_tag,
                };
                live.txn.fire(&TxnEvent::CompensationSubmitted {
                    handle,
                    compensation: comp_handle,
                });
                ctx.metrics().counter("planet.compensations").inc();
                self.staged.insert(comp_tag, *compensation);
                ctx.schedule(
                    SimDuration::from_micros(1),
                    Msg::ClientTimer {
                        kind: TIMER_SUBMIT,
                        tag: comp_tag,
                    },
                );
            }
        }
        match final_outcome {
            FinalOutcome::Committed => {
                ctx.metrics().counter("planet.committed").inc();
                if !live.keys.is_empty() {
                    ctx.metrics()
                        .histogram("planet.commit_latency")
                        .record(latency.as_micros());
                }
            }
            FinalOutcome::Aborted => ctx.metrics().counter("planet.aborted").inc(),
            FinalOutcome::TimedOut => ctx.metrics().counter("planet.timedout").inc(),
            FinalOutcome::Rejected | FinalOutcome::Cancelled => {}
        }
        let mut keys = live.keys;
        let write_keys = keys.len();
        keys.clear();
        self.spare_keys.push(keys);
        self.records.push(TxnRecord {
            handle,
            outcome: final_outcome,
            submitted_at: live.submitted_at,
            latency,
            write_keys,
            speculated_at: live.speculated_at,
            deadline_likelihood: live.deadline_likelihood,
            predictions: live.predictions,
            reads: live.reads,
        });
        let chain_outcome = if final_outcome.is_commit() {
            ChainOutcome::Committed
        } else {
            ChainOutcome::Failed
        };
        self.process_chains(tag, chain_outcome, ctx);
        self.source_txn_finished(tag, ctx);
    }

    fn handle_deadline(&mut self, tag: u64, ctx: &mut Context<'_, Msg>) {
        let now = ctx.now();
        let Some(live) = self.live.get_mut(&tag) else {
            return;
        };
        if live.deadline_likelihood.is_some() {
            return;
        }
        let likelihood = Self::likelihood_of(&mut self.model, live, now);
        live.deadline_likelihood = Some(likelihood);
        let handle = live.handle;
        live.txn
            .fire(&TxnEvent::DeadlineExceeded { handle, likelihood });
        ctx.metrics().counter("planet.deadline_exceeded").inc();
    }

    /// Advance the arrival chain. `kickoff` messages (tag 0) only start a
    /// chain if none is running; chain continuations (tag 1) always proceed.
    /// Closed-loop sources start `concurrency` chains at kickoff and advance
    /// each only when its transaction finishes (see `source_txn_finished`).
    fn next_arrival(&mut self, kickoff: bool, ctx: &mut Context<'_, Msg>) {
        if kickoff {
            if self.arrivals_armed {
                return;
            }
            self.arrivals_armed = true;
            if let Some(source) = self.source.as_ref() {
                if let SourceMode::Closed { concurrency } = source.mode() {
                    // Launch every virtual user; each continues on completion.
                    for _ in 0..concurrency {
                        self.issue_from_source(ctx);
                    }
                    return;
                }
            }
        }
        self.issue_from_source(ctx);
    }

    /// Pull one transaction from the source and submit it; in open loop,
    /// also schedule the next arrival.
    fn issue_from_source(&mut self, ctx: &mut Context<'_, Msg>) {
        let Some(source) = self.source.as_mut() else {
            return;
        };
        let mode = source.mode();
        if let Some((txn, gap)) = source.next_txn(ctx.now(), ctx.rng()) {
            let tag = self.next_tag;
            self.next_tag += 1;
            match mode {
                SourceMode::Open => {
                    ctx.schedule(
                        gap,
                        Msg::ClientTimer {
                            kind: TIMER_ARRIVAL,
                            tag: 1,
                        },
                    );
                }
                SourceMode::Closed { .. } => {
                    self.source_think.insert(tag, gap);
                }
            }
            self.submit_txn(tag, txn, ctx);
            if matches!(mode, SourceMode::Closed { .. }) {
                self.guard_lost(false, ctx);
            }
        }
    }

    /// The closed-loop source transactions in flight: tag and submit time.
    fn closed_in_flight(&self) -> impl Iterator<Item = (u64, SimTime)> + '_ {
        let live = |tag: &u64| self.live.get(tag).map(|l| (*tag, l.submitted_at));
        self.source_think.keys().filter_map(live)
    }

    /// The lost-reply guard: a closed-loop source transaction still in
    /// flight 2 × `txn_timeout` after its submission (the coordinator's own
    /// deadline, plus the same again for the reply) finishes as `TimedOut`,
    /// so one shed submit or lost reply cannot wedge its virtual user; a
    /// straggler `TxnDone` then finds nothing live and is dropped. One timer
    /// per client, not per transaction: it is armed for the oldest such
    /// transaction, and `fired` expires the overdue ones and re-arms.
    fn guard_lost(&mut self, fired: bool, ctx: &mut Context<'_, Msg>) {
        let now = ctx.now();
        let lost_after = self.config.txn_timeout + self.config.txn_timeout;
        if fired {
            self.lost_guard_armed = false;
            let overdue = |&(_, at): &(u64, SimTime)| now.since(at) >= lost_after;
            let mut lost: Vec<u64> = self
                .closed_in_flight()
                .filter(overdue)
                .map(|(tag, _)| tag)
                .collect();
            // Map order is not deterministic; the simulation must be.
            lost.sort_unstable();
            for tag in lost {
                self.handle_done(tag, Outcome::TimedOut, ctx);
            }
        }
        if self.lost_guard_armed {
            return;
        }
        if let Some(at) = self.closed_in_flight().map(|(_, at)| at).min() {
            self.lost_guard_armed = true;
            let lost = Msg::ClientTimer {
                kind: TIMER_LOST,
                tag: 0,
            };
            ctx.schedule((at + lost_after).since(now), lost);
        }
    }

    /// Closed-loop continuation: a source transaction finished; after its
    /// think time, this virtual user submits the next one.
    fn source_txn_finished(&mut self, tag: u64, ctx: &mut Context<'_, Msg>) {
        if let Some(think) = self.source_think.remove(&tag) {
            ctx.schedule(
                think,
                Msg::ClientTimer {
                    kind: TIMER_ARRIVAL,
                    tag: 1,
                },
            );
        }
    }
}

impl Actor<Msg> for ClientActor {
    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        if self.source.is_some() {
            // First arrival fires immediately; the source paces the rest.
            ctx.schedule(
                SimDuration::from_micros(1),
                Msg::ClientTimer {
                    kind: TIMER_ARRIVAL,
                    tag: 0,
                },
            );
        }
    }

    fn on_message(&mut self, _from: ActorId, msg: Msg, ctx: &mut Context<'_, Msg>) {
        match msg {
            Msg::ClientTimer {
                kind: TIMER_SUBMIT,
                tag,
            } => self.submit_staged(tag, ctx),
            Msg::ClientTimer {
                kind: TIMER_CANCEL,
                tag,
            } => self.cancel_staged(tag, ctx),
            Msg::ClientTimer {
                kind: TIMER_DEADLINE,
                tag,
            } => self.handle_deadline(tag, ctx),
            Msg::ClientTimer {
                kind: TIMER_ARRIVAL,
                tag,
            } => self.next_arrival(tag == 0, ctx),
            Msg::Progress { tag, txn, stage } => self.handle_progress(tag, txn, stage, ctx),
            Msg::ClientTimer {
                kind: TIMER_LOST, ..
            } => self.guard_lost(true, ctx),
            Msg::TxnDone {
                tag,
                outcome,
                stats,
                ..
            } => {
                // A closed-loop transaction's latency attribution: what the
                // coordinator did not hold was the wire, the fabric and both
                // mailboxes. A timeout without server time has none.
                let server_us = stats.server_us();
                let attributed = self.source_think.contains_key(&tag)
                    && (server_us > 0 || outcome != Outcome::TimedOut);
                if let Some(live) = self.live.get(&tag).filter(|_| attributed) {
                    let latency_us = ctx.now().since(live.submitted_at).as_micros();
                    let network_us = latency_us.saturating_sub(server_us);
                    ctx.metrics()
                        .histogram("span.network_us")
                        .record(network_us);
                }
                self.handle_done(tag, outcome, ctx);
            }
            _ => {}
        }
    }
}
