//! The PLANET transaction: what an application submits.
//!
//! The programming model (paper §3) extends a plain transaction with:
//!
//! * a **deadline** after which control returns to the application with the
//!   current commit likelihood (the transaction itself keeps running);
//! * a **speculation threshold**: when the predicted commit likelihood
//!   crosses it, the application is told "treat this as committed" and can
//!   respond to its user immediately — accepting a small risk of a later
//!   **apology** if the final outcome is an abort;
//! * **callbacks** observing every stage of commit progress, each carrying
//!   the freshly predicted likelihood.

use planet_mdcc::TxnSpec;
use planet_plan::{PlanError, PlanId, PlanParam, TxnProgram};
use planet_sim::{SimDuration, SimTime};
use planet_storage::{Key, Value, WriteOp};

/// Identifies a submitted transaction: the submitting site and the client's
/// per-site sequence tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxnHandle {
    /// Site the transaction was submitted at.
    pub site: u8,
    /// Per-site submission sequence number.
    pub tag: u64,
}

impl std::fmt::Display for TxnHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "txn[{}:{}]", self.site, self.tag)
    }
}

/// Terminal state of a PLANET transaction, as the application sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FinalOutcome {
    /// Durably committed.
    Committed,
    /// Aborted (conflict or quorum failure).
    Aborted,
    /// The server-side timeout expired.
    TimedOut,
    /// Admission control refused the transaction before execution.
    Rejected,
    /// A chained transaction whose predecessor failed — it was never
    /// submitted (see [`ChainTrigger`]).
    Cancelled,
}

/// When a chained transaction (submitted with
/// [`Planet::submit_after`](crate::Planet::submit_after)) should launch —
/// the paper's "speculative chained transactions" use case: start the next
/// step of a workflow as soon as the previous one is *likely* to commit,
/// instead of waiting for its WAN round trip to finish.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainTrigger {
    /// Launch when the predecessor's speculative-commit event fires (or when
    /// it commits, if it never speculates). Earliest, with apology risk.
    Speculative,
    /// Launch only on the predecessor's durable commit. Safe but serial.
    Commit,
}

impl FinalOutcome {
    /// True for `Committed`.
    pub fn is_commit(&self) -> bool {
        matches!(self, FinalOutcome::Committed)
    }
}

/// A coarse description of where a transaction currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Admitted; reads in flight.
    Reading,
    /// Options proposed; votes arriving.
    Voting,
    /// A replica vote just arrived.
    VoteArrived,
    /// One written key resolved (reached or definitively missed quorum).
    KeyResolved,
}

/// An event delivered to the application's callbacks.
#[derive(Debug, Clone)]
pub enum TxnEvent {
    /// Commit progress advanced; `likelihood` is the freshly predicted
    /// probability of commit (within the deadline, if one was set).
    Progress {
        /// The transaction.
        handle: TxnHandle,
        /// Where it stands.
        stage: Stage,
        /// Predicted commit likelihood at this instant.
        likelihood: f64,
        /// Time since submission.
        elapsed: SimDuration,
    },
    /// The likelihood crossed the speculation threshold: the application may
    /// treat the transaction as committed now. Fired at most once.
    Speculative {
        /// The transaction.
        handle: TxnHandle,
        /// Likelihood at the moment of speculation.
        likelihood: f64,
        /// Time since submission.
        elapsed: SimDuration,
    },
    /// The application deadline passed before the final outcome; the
    /// transaction continues in the background. Carries the likelihood so
    /// the application can decide what to tell its user.
    DeadlineExceeded {
        /// The transaction.
        handle: TxnHandle,
        /// Likelihood at the deadline.
        likelihood: f64,
    },
    /// The final outcome.
    Final {
        /// The transaction.
        handle: TxnHandle,
        /// Commit, abort, timeout or rejection.
        outcome: FinalOutcome,
        /// Submission-to-decision latency.
        latency: SimDuration,
        /// Time of the decision.
        decided_at: SimTime,
    },
    /// The transaction was speculatively reported committed but finally
    /// aborted — the application must apologise to its user.
    Apology {
        /// The transaction.
        handle: TxnHandle,
    },
    /// An attached compensating transaction was submitted in response to an
    /// apology.
    CompensationSubmitted {
        /// The apologising transaction.
        handle: TxnHandle,
        /// The compensation's own handle (trackable like any other).
        compensation: TxnHandle,
    },
}

impl TxnEvent {
    /// The handle of the transaction this event belongs to.
    pub fn handle(&self) -> TxnHandle {
        match self {
            TxnEvent::Progress { handle, .. }
            | TxnEvent::Speculative { handle, .. }
            | TxnEvent::DeadlineExceeded { handle, .. }
            | TxnEvent::Final { handle, .. }
            | TxnEvent::Apology { handle }
            | TxnEvent::CompensationSubmitted { handle, .. } => *handle,
        }
    }
}

/// A callback observing transaction events.
pub type EventCallback = Box<dyn FnMut(&TxnEvent) + Send>;

/// A PLANET transaction: the specification plus the programming-model
/// extensions. Build with [`PlanetTxn::builder`]:
///
/// ```
/// use planet_core::{PlanetTxn, SimDuration, TxnEvent};
///
/// let txn = PlanetTxn::builder()
///     .read("account:info")
///     .add_with_floor("account:balance", -100, 0)
///     .deadline(SimDuration::from_millis(300))
///     .speculate_at(0.95)
///     .on_final(|outcome| println!("done: {outcome:?}"))
///     .build();
/// assert_eq!(txn.spec.writes.len(), 1);
/// ```
pub struct PlanetTxn {
    /// Reads and writes.
    pub spec: TxnSpec,
    /// Submit through an installed compiled plan instead of shipping the
    /// spec: `(plan handle, this execution's parameters)`. Set by
    /// [`TxnBuilder::via_plan`]; requires the program to be installed first
    /// (see [`Planet::install_program`](crate::Planet::install_program)).
    pub plan: Option<(PlanId, Vec<PlanParam>)>,
    /// Application deadline, if any.
    pub deadline: Option<SimDuration>,
    /// Speculative-commit threshold, if speculation is enabled.
    pub speculation_threshold: Option<f64>,
    /// A compensating transaction submitted automatically if this
    /// transaction speculated and then aborted (the "apologise" half of
    /// guess-and-apologise): e.g. credit back a balance, notify a user.
    pub(crate) compensation: Option<Box<PlanetTxn>>,
    pub(crate) callbacks: Vec<EventCallback>,
}

impl std::fmt::Debug for PlanetTxn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanetTxn")
            .field("reads", &self.spec.reads.len())
            .field("writes", &self.spec.writes.len())
            .field("deadline", &self.deadline)
            .field("speculation_threshold", &self.speculation_threshold)
            .field("compensation", &self.compensation.is_some())
            .field("callbacks", &self.callbacks.len())
            .finish()
    }
}

impl PlanetTxn {
    /// Start building a transaction.
    pub fn builder() -> TxnBuilder {
        TxnBuilder::default()
    }

    pub(crate) fn fire(&mut self, event: &TxnEvent) {
        for cb in &mut self.callbacks {
            cb(event);
        }
    }
}

/// Fluent builder for [`PlanetTxn`].
#[derive(Default)]
pub struct TxnBuilder {
    spec: TxnSpec,
    plan: Option<(PlanId, Vec<PlanParam>)>,
    deadline: Option<SimDuration>,
    speculation_threshold: Option<f64>,
    compensation: Option<Box<PlanetTxn>>,
    callbacks: Vec<EventCallback>,
}

impl TxnBuilder {
    /// Read a key.
    pub fn read(mut self, key: impl Into<Key>) -> Self {
        self.spec.reads.push(key.into());
        self
    }

    /// Write a key with an arbitrary operation.
    pub fn write(mut self, key: impl Into<Key>, op: WriteOp) -> Self {
        self.spec.writes.push((key.into(), op));
        self
    }

    /// Set a key to a value (physical write).
    pub fn set(self, key: impl Into<Key>, value: impl Into<Value>) -> Self {
        self.write(key, WriteOp::Set(value.into()))
    }

    /// Add a delta to an integer key (commutative write).
    pub fn add(self, key: impl Into<Key>, delta: i64) -> Self {
        self.write(key, WriteOp::add(delta))
    }

    /// Add a delta with a lower bound (e.g. stock that must stay ≥ 0).
    pub fn add_with_floor(self, key: impl Into<Key>, delta: i64, floor: i64) -> Self {
        self.write(key, WriteOp::add_with_floor(delta, floor))
    }

    /// Delete a key (physical write).
    pub fn delete(self, key: impl Into<Key>) -> Self {
        self.write(key, WriteOp::Delete)
    }

    /// Serve this transaction's reads from a majority of replicas (freshest
    /// version wins) instead of the local replica — bounded-staleness
    /// freshness for one extra WAN round trip. See
    /// [`planet_mdcc::ReadLevel`].
    pub fn quorum_reads(mut self) -> Self {
        self.spec.read_level = planet_mdcc::ReadLevel::Quorum;
        self
    }

    /// Submit this transaction through an installed compiled plan: the wire
    /// carries only `(plan, params)`, and the coordinator executes the
    /// pre-routed [`planet_plan::CompiledPlan`] instead of interpreting a
    /// spec. Reads/writes set on this builder are ignored in favour of the
    /// program's ops; the client instantiates the program locally so the
    /// likelihood/admission machinery sees the same keys either way.
    pub fn via_plan(mut self, plan: PlanId, params: Vec<PlanParam>) -> Self {
        self.plan = Some((plan, params));
        self
    }

    /// Compile the transaction shape built so far into a zero-parameter
    /// [`TxnProgram`] — the bridge from the ad-hoc builder API to
    /// registered plans. Install the result once (e.g. via
    /// [`Planet::install_program`](crate::Planet::install_program)), then
    /// submit executions with [`TxnBuilder::via_plan`] and empty params.
    /// Fails if two writes name the same key (no front end executes that;
    /// submitted as a spec it is answered `Aborted`).
    pub fn compile(&self, name: impl Into<String>) -> Result<TxnProgram, PlanError> {
        TxnProgram::of_concrete(
            name,
            &self.spec.reads,
            &self.spec.writes,
            self.spec.read_level == planet_mdcc::ReadLevel::Quorum,
        )
    }

    /// Application deadline: when it passes before the outcome is known, a
    /// [`TxnEvent::DeadlineExceeded`] fires and the app regains control.
    pub fn deadline(mut self, d: SimDuration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Enable speculative commits at the given likelihood threshold
    /// (`0 < threshold <= 1`).
    pub fn speculate_at(mut self, threshold: f64) -> Self {
        assert!((0.0..=1.0).contains(&threshold) && threshold > 0.0);
        self.speculation_threshold = Some(threshold);
        self
    }

    /// Attach a compensating transaction, submitted automatically when this
    /// transaction speculated and then aborted. Requires speculation to be
    /// enabled (set [`TxnBuilder::speculate_at`]); a transaction that never
    /// told its user "success" has nothing to compensate for.
    pub fn compensate_with(mut self, txn: PlanetTxn) -> Self {
        self.compensation = Some(Box::new(txn));
        self
    }

    /// Observe every event of this transaction.
    pub fn on_event(mut self, cb: impl FnMut(&TxnEvent) + Send + 'static) -> Self {
        self.callbacks.push(Box::new(cb));
        self
    }

    /// Observe progress events only (stage + likelihood).
    pub fn on_progress(self, mut cb: impl FnMut(Stage, f64) + Send + 'static) -> Self {
        self.on_event(move |e| {
            if let TxnEvent::Progress {
                stage, likelihood, ..
            } = e
            {
                cb(*stage, *likelihood);
            }
        })
    }

    /// Observe the speculative-commit event only.
    pub fn on_speculative(self, mut cb: impl FnMut(f64) + Send + 'static) -> Self {
        self.on_event(move |e| {
            if let TxnEvent::Speculative { likelihood, .. } = e {
                cb(*likelihood);
            }
        })
    }

    /// Observe the final outcome only.
    pub fn on_final(self, mut cb: impl FnMut(FinalOutcome) + Send + 'static) -> Self {
        self.on_event(move |e| {
            if let TxnEvent::Final { outcome, .. } = e {
                cb(*outcome);
            }
        })
    }

    /// Observe the apology event only (speculated, then aborted).
    pub fn on_apology(self, mut cb: impl FnMut() + Send + 'static) -> Self {
        self.on_event(move |e| {
            if let TxnEvent::Apology { .. } = e {
                cb();
            }
        })
    }

    /// Finish building.
    pub fn build(self) -> PlanetTxn {
        PlanetTxn {
            spec: self.spec,
            plan: self.plan,
            deadline: self.deadline,
            speculation_threshold: self.speculation_threshold,
            compensation: self.compensation,
            callbacks: self.callbacks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn builder_collects_spec() {
        let txn = PlanetTxn::builder()
            .read("a")
            .set("b", 5i64)
            .add("c", -2)
            .add_with_floor("d", -1, 0)
            .delete("e")
            .deadline(SimDuration::from_millis(300))
            .speculate_at(0.9)
            .build();
        assert_eq!(txn.spec.reads.len(), 1);
        assert_eq!(txn.spec.writes.len(), 4);
        assert_eq!(txn.deadline, Some(SimDuration::from_millis(300)));
        assert_eq!(txn.speculation_threshold, Some(0.9));
    }

    #[test]
    fn callbacks_fire_filtered() {
        let finals = Arc::new(AtomicUsize::new(0));
        let progresses = Arc::new(AtomicUsize::new(0));
        let f2 = finals.clone();
        let p2 = progresses.clone();
        let mut txn = PlanetTxn::builder()
            .on_final(move |_| {
                f2.fetch_add(1, Ordering::SeqCst);
            })
            .on_progress(move |_, _| {
                p2.fetch_add(1, Ordering::SeqCst);
            })
            .build();
        let handle = TxnHandle { site: 0, tag: 0 };
        txn.fire(&TxnEvent::Progress {
            handle,
            stage: Stage::Voting,
            likelihood: 0.5,
            elapsed: SimDuration::ZERO,
        });
        txn.fire(&TxnEvent::Final {
            handle,
            outcome: FinalOutcome::Committed,
            latency: SimDuration::ZERO,
            decided_at: SimTime::ZERO,
        });
        assert_eq!(finals.load(Ordering::SeqCst), 1);
        assert_eq!(progresses.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn event_handle_extraction() {
        let handle = TxnHandle { site: 2, tag: 7 };
        let e = TxnEvent::Apology { handle };
        assert_eq!(e.handle(), handle);
        assert_eq!(handle.to_string(), "txn[2:7]");
    }

    #[test]
    #[should_panic]
    fn zero_speculation_threshold_panics() {
        let _ = PlanetTxn::builder().speculate_at(0.0);
    }

    #[test]
    fn final_outcome_predicates() {
        assert!(FinalOutcome::Committed.is_commit());
        assert!(!FinalOutcome::Rejected.is_commit());
    }
}
