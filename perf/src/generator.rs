//! The benchmark's client actors: a multiplexing load generator per
//! client-facing site, and the finite preloader that seeds the keyspace at
//! set-up. Both are ordinary `planet_sim::Actor`s, so they run as members
//! of one pool task on a reactor and reach the cluster through the same
//! transport as any other client.
//!
//! `planet_cluster::LoadClient` is not used: it is one closed-loop client
//! with one plan, and the workloads here need many virtual clients behind
//! one actor, two plans per stream, an open loop timed from due times, and
//! a check of every read result.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;

use planet_mdcc::{KeyRead, Msg, Outcome, ProgressStage, ReadLevel, TxnSpec};
use planet_plan::{PlanId, PlanParam, TxnProgram};
use planet_sim::{Actor, ActorId, Context, SimDuration};
use planet_storage::{Key, WriteOp};

use crate::measure::{Class, End, Sample};
use crate::script::{Op, Script};

/// Plan id of the compiled ticket purchase at each coordinator.
pub const PLAN_PURCHASE: PlanId = 1;
/// Plan id of the compiled read-only stock look-up.
pub const PLAN_LOOKUP: PlanId = 2;

/// `ClientTimer.kind`: periodic flush, timeout sweep and stop check.
const TIMER_SWEEP: u32 = 0x5EE9;
/// `ClientTimer.kind`: the next open-loop operation is due.
const TIMER_DUE: u32 = 0xD0E;
/// `ClientTimer.kind`: begin issuing (sent by the harness).
pub const TIMER_START: u32 = 0x57A7;

/// How often a generator flushes its batch, looks for timed-out
/// operations and checks the stop flag.
const SWEEP_EVERY: SimDuration = SimDuration::from_millis(100);
/// An operation with no decision after this long is failed (lost, shed
/// without a bounce, or wedged). Healthy decisions take milliseconds.
const OP_TIMEOUT_US: u64 = 5_000_000;
/// Completions per message to the harvesting thread.
const BATCH: usize = 256;

/// One completion with the spans the coordinator reported.
#[derive(Debug, Clone, Copy)]
pub struct Done {
    /// What the recorder takes in.
    pub sample: Sample,
    /// Coordinator hold time, submit to decision, µs.
    pub server_us: u32,
    /// Of that, proposal dispatch to decision, µs.
    pub quorum_wait_us: u32,
    /// How long after its due time the operation was sent, µs (zero in a
    /// closed loop, where an operation is due when it is sent).
    pub late_us: u32,
}

/// What the actors tell the harvesting thread.
pub enum Report {
    /// The preload finished; `failed` writes did not commit.
    Preloaded {
        /// Preload writes that did not commit.
        failed: u64,
    },
    /// A generator's plans are registered and it awaits `TIMER_START`.
    Ready,
    /// Completions, in the order the generator saw them.
    Batch(Vec<Done>),
    /// The generator will issue nothing more and has nothing in flight.
    Idle,
}

/// How a generator paces its script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pace {
    /// This many virtual clients, each with one operation in flight.
    Closed {
        /// Virtual clients multiplexed by the generator.
        clients: usize,
    },
    /// Operations are sent when the script says they are due.
    Open,
}

/// The invariant every read result must satisfy; it holds exactly for
/// committed states and fails for a torn or invented one.
#[derive(Debug, Clone, Copy)]
pub enum ReadCheck {
    /// Stock starts at `stock` (version 1) and every committed purchase
    /// takes `per` tickets and adds one version.
    Ticket {
        /// Preloaded stock.
        stock: i64,
        /// Tickets per purchase.
        per: i64,
    },
    /// Every committed write adds one to value and version alike.
    Counter,
}

impl ReadCheck {
    fn holds(self, read: &KeyRead) -> bool {
        let Some(value) = read.value.as_int() else {
            return false;
        };
        match self {
            // Version 0 is the purchase's own order key, read before it is
            // first written: it must be absent.
            ReadCheck::Ticket { .. } if read.version == 0 => read.value.is_none(),
            ReadCheck::Ticket { stock, per } => value == stock - per * (read.version as i64 - 1),
            ReadCheck::Counter => value == read.version as i64,
        }
    }
}

/// Per-operation progress, indexed by script position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpState {
    /// Not sent yet.
    Unsent,
    /// Sent, no decision yet.
    InFlight,
    /// Sent; a read result broke the [`ReadCheck`].
    InFlightWrong,
    /// Decided: committed.
    Committed,
    /// Decided: aborted by the protocol.
    Aborted,
    /// Timed out, shed, or wrong.
    Failed,
}

/// The load generator of one client-facing site.
pub struct Generator {
    coordinator: ActorId,
    script: Script,
    pace: Pace,
    /// Key table of the key-value workload (`Op::Kv*` index it).
    keys: Arc<Vec<Key>>,
    /// Programs to register before the first operation.
    plans: Vec<(PlanId, TxnProgram)>,
    plans_pending: usize,
    check: ReadCheck,
    out: Sender<Report>,
    stop: Arc<AtomicBool>,
    /// Phase start on the cluster clock, µs; set by `TIMER_START`.
    epoch_us: Option<u64>,
    next: usize,
    state: Vec<OpState>,
    /// When each operation was sent, µs on the cluster clock.
    sent_us: Vec<u64>,
    inflight: usize,
    /// Every operation before this index is decided.
    oldest: usize,
    due_armed: bool,
    idle_reported: bool,
    batch: Vec<Done>,
}

impl Generator {
    /// A generator submitting `script` to `coordinator`.
    #[allow(clippy::too_many_arguments)] // the generator's full wiring
    pub fn new(
        coordinator: ActorId,
        script: Script,
        pace: Pace,
        keys: Arc<Vec<Key>>,
        plans: Vec<(PlanId, TxnProgram)>,
        check: ReadCheck,
        out: Sender<Report>,
        stop: Arc<AtomicBool>,
    ) -> Self {
        let n = script.ops.len();
        assert!(pace != Pace::Open || script.due_us.len() == n);
        Generator {
            coordinator,
            script,
            pace,
            keys,
            plans_pending: plans.len(),
            plans,
            check,
            out,
            stop,
            epoch_us: None,
            next: 0,
            state: vec![OpState::Unsent; n],
            sent_us: vec![0; n],
            inflight: 0,
            oldest: 0,
            due_armed: false,
            idle_reported: false,
            batch: Vec::with_capacity(BATCH),
        }
    }

    /// The script this generator ran.
    pub fn script(&self) -> &Script {
        &self.script
    }

    /// How each operation ended (`Unsent` past the point the run stopped).
    pub fn states(&self) -> &[OpState] {
        &self.state
    }

    fn message_for(&self, index: usize, me: ActorId) -> Msg {
        let tag = index as u64;
        match self.script.ops[index] {
            Op::Purchase(event) => Msg::SubmitPlan {
                plan: PLAN_PURCHASE,
                params: vec![
                    PlanParam::Key(event),
                    PlanParam::Int(index as i64),
                    PlanParam::Int(event as i64),
                ],
                reply_to: me,
                tag,
            },
            Op::Lookup(event) => Msg::SubmitPlan {
                plan: PLAN_LOOKUP,
                params: vec![PlanParam::Key(event)],
                reply_to: me,
                tag,
            },
            Op::KvRead(a, b) => Msg::Submit {
                spec: TxnSpec::read_only([
                    self.keys[a as usize].clone(),
                    self.keys[b as usize].clone(),
                ]),
                reply_to: me,
                tag,
            },
            Op::KvRmw(a, b) => {
                let (ka, kb) = (self.keys[a as usize].clone(), self.keys[b as usize].clone());
                Msg::Submit {
                    spec: TxnSpec {
                        reads: vec![ka.clone(), kb.clone()],
                        writes: vec![(ka, WriteOp::add(1)), (kb, WriteOp::add(1))],
                        read_level: ReadLevel::Local,
                    },
                    reply_to: me,
                    tag,
                }
            }
        }
    }

    fn issue(&mut self, now_us: u64, ctx: &mut Context<'_, Msg>) {
        let index = self.next;
        self.next += 1;
        self.state[index] = OpState::InFlight;
        self.inflight += 1;
        self.sent_us[index] = now_us;
        let msg = self.message_for(index, ctx.self_id());
        ctx.send(self.coordinator, msg);
    }

    /// Open loop: send everything that is due, then arm a timer for the
    /// next due time unless one is already pending.
    fn pump_open(&mut self, now_us: u64, ctx: &mut Context<'_, Msg>) {
        let Some(epoch) = self.epoch_us else {
            return;
        };
        let since = now_us.saturating_sub(epoch);
        while self.next < self.script.ops.len() && self.script.due_us[self.next] <= since {
            self.issue(now_us, ctx);
        }
        if !self.due_armed && self.next < self.script.ops.len() {
            self.due_armed = true;
            // Wake at the first wheel-tick boundary after the due time. A
            // reactor timer that falls inside a tick the wheel has already
            // visited waits a whole rotation (262 ms) at the seed commit;
            // one that falls on a boundary fires within the tick.
            let tick = planet_cluster::wheel::DEFAULT_TICK_US;
            let due = epoch + self.script.due_us[self.next];
            let wake = (due / tick + 1) * tick;
            ctx.schedule(
                SimDuration::from_micros(wake - now_us),
                Msg::ClientTimer {
                    kind: TIMER_DUE,
                    tag: 0,
                },
            );
        }
    }

    /// The instant an operation's latency is counted from: when it was due
    /// (open loop) or sent (closed loop).
    fn origin_us(&self, index: usize) -> u64 {
        match self.pace {
            Pace::Open => self.epoch_us.unwrap_or(0) + self.script.due_us[index],
            Pace::Closed { .. } => self.sent_us[index],
        }
    }

    /// Record a decided (or written-off) operation and queue its sample.
    fn complete(&mut self, index: usize, end: End, now_us: u64, server_us: u64, quorum_us: u64) {
        self.state[index] = match end {
            End::Committed => OpState::Committed,
            End::Aborted => OpState::Aborted,
            End::Refused | End::Failed => OpState::Failed,
        };
        self.inflight -= 1;
        let origin = self.origin_us(index);
        let clamp = |v: u64| v.min(u32::MAX as u64 - 1) as u32;
        let late_us = clamp(self.sent_us[index].saturating_sub(origin));
        self.batch.push(Done {
            sample: Sample {
                latency_us: clamp(now_us.saturating_sub(origin)),
                class: if self.script.ops[index].is_read_only() {
                    Class::Read
                } else {
                    Class::Write
                },
                end,
            },
            server_us: clamp(server_us),
            quorum_wait_us: clamp(quorum_us),
            late_us,
        });
        if self.batch.len() >= BATCH {
            self.flush();
        }
    }

    fn flush(&mut self) {
        if !self.batch.is_empty() {
            let batch = std::mem::replace(&mut self.batch, Vec::with_capacity(BATCH));
            let _ = self.out.send(Report::Batch(batch));
        }
    }

    fn sweep(&mut self, now_us: u64, ctx: &mut Context<'_, Msg>) {
        while self.oldest < self.next
            && !matches!(
                self.state[self.oldest],
                OpState::InFlight | OpState::InFlightWrong
            )
        {
            self.oldest += 1;
        }
        let stopped = self.stop.load(Ordering::Relaxed);
        for index in self.oldest..self.next {
            if matches!(
                self.state[index],
                OpState::InFlight | OpState::InFlightWrong
            ) && now_us.saturating_sub(self.sent_us[index]) > OP_TIMEOUT_US
            {
                self.complete(index, End::Failed, now_us, 0, 0);
                if !stopped && matches!(self.pace, Pace::Closed { .. }) {
                    self.refill(now_us, ctx);
                }
            }
        }
        self.flush();
        let exhausted = self.next == self.script.ops.len();
        if (stopped || exhausted)
            && self.inflight == 0
            && self.epoch_us.is_some()
            && !self.idle_reported
        {
            self.idle_reported = true;
            let _ = self.out.send(Report::Idle);
        }
    }

    fn refill(&mut self, now_us: u64, ctx: &mut Context<'_, Msg>) {
        if self.next < self.script.ops.len() && !self.stop.load(Ordering::Relaxed) {
            self.issue(now_us, ctx);
        }
    }

    fn register_plans(&mut self, ctx: &mut Context<'_, Msg>) {
        let me = ctx.self_id();
        for (plan, program) in &self.plans {
            ctx.send(
                self.coordinator,
                Msg::RegisterPlan {
                    plan: *plan,
                    program: program.clone(),
                    reply_to: me,
                },
            );
        }
    }
}

impl Actor<Msg> for Generator {
    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        if self.plans.is_empty() {
            let _ = self.out.send(Report::Ready);
        } else {
            self.register_plans(ctx);
        }
        ctx.schedule(
            SWEEP_EVERY,
            Msg::ClientTimer {
                kind: TIMER_SWEEP,
                tag: 0,
            },
        );
    }

    fn on_message(&mut self, _from: ActorId, msg: Msg, ctx: &mut Context<'_, Msg>) {
        let now_us = ctx.now().as_micros();
        match msg {
            Msg::TxnDone {
                tag,
                outcome,
                stats,
                ..
            } => {
                let index = tag as usize;
                let wrong = match self.state.get(index) {
                    Some(OpState::InFlight) => false,
                    Some(OpState::InFlightWrong) => true,
                    // A straggler for an operation already written off.
                    _ => return,
                };
                let end = match outcome {
                    _ if wrong => End::Failed,
                    Outcome::Committed => End::Committed,
                    Outcome::Aborted => End::Aborted,
                    Outcome::TimedOut => End::Failed,
                };
                self.complete(
                    index,
                    end,
                    now_us,
                    stats.server_us(),
                    stats.quorum_wait_us(),
                );
                if matches!(self.pace, Pace::Closed { .. }) {
                    self.refill(now_us, ctx);
                }
            }
            Msg::Progress {
                tag,
                stage: ProgressStage::ReadsDone { reads },
                ..
            } if !reads.iter().all(|r| self.check.holds(r)) => {
                if let Some(state @ OpState::InFlight) = self.state.get_mut(tag as usize) {
                    *state = OpState::InFlightWrong;
                }
            }
            Msg::PlanReady { .. } => {
                self.plans_pending = self.plans_pending.saturating_sub(1);
                if self.plans_pending == 0 {
                    let _ = self.out.send(Report::Ready);
                }
            }
            Msg::ClientTimer {
                kind: TIMER_START, ..
            } => {
                self.epoch_us = Some(now_us);
                if let Pace::Closed { clients } = self.pace {
                    for _ in 0..clients.min(self.script.ops.len()) {
                        self.issue(now_us, ctx);
                    }
                }
            }
            Msg::ClientTimer {
                kind: TIMER_DUE, ..
            } => self.due_armed = false,
            Msg::ClientTimer {
                kind: TIMER_SWEEP, ..
            } => {
                self.sweep(now_us, ctx);
                ctx.schedule(
                    SWEEP_EVERY,
                    Msg::ClientTimer {
                        kind: TIMER_SWEEP,
                        tag: 0,
                    },
                );
            }
            _ => {}
        }
        if self.pace == Pace::Open {
            self.pump_open(now_us, ctx);
        }
    }
}

/// `ClientTimer.kind`: the preloader's give-up deadline.
const TIMER_PRELOAD_DEADLINE: u32 = 0x9E10;
/// Preload writes in flight at once.
const PRELOAD_WINDOW: usize = 64;

/// A finite, pipelined client that writes the initial keyspace through the
/// protocol, then reports and goes quiet. Writes are never resent (a `Set`
/// applied twice would leave version 2 and break the read invariant), so a
/// write that does not commit is reported as failed and fails the run.
pub struct Preloader {
    coordinator: ActorId,
    specs: Vec<TxnSpec>,
    next: usize,
    decided: usize,
    failed: u64,
    reported: bool,
    out: Sender<Report>,
}

impl Preloader {
    /// A preloader submitting `specs` to `coordinator`.
    pub fn new(coordinator: ActorId, specs: Vec<TxnSpec>, out: Sender<Report>) -> Self {
        Preloader {
            coordinator,
            specs,
            next: 0,
            decided: 0,
            failed: 0,
            reported: false,
            out,
        }
    }

    fn issue(&mut self, ctx: &mut Context<'_, Msg>) {
        if self.next < self.specs.len() {
            let me = ctx.self_id();
            ctx.send(
                self.coordinator,
                Msg::Submit {
                    spec: self.specs[self.next].clone(),
                    reply_to: me,
                    tag: self.next as u64,
                },
            );
            self.next += 1;
        }
    }

    fn report_if_done(&mut self, force: bool) {
        if !self.reported && (force || self.decided == self.specs.len()) {
            self.reported = true;
            let undecided = (self.specs.len() - self.decided) as u64;
            let _ = self.out.send(Report::Preloaded {
                failed: self.failed + undecided,
            });
        }
    }
}

impl Actor<Msg> for Preloader {
    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        for _ in 0..PRELOAD_WINDOW {
            self.issue(ctx);
        }
        ctx.schedule(
            SimDuration::from_secs(60),
            Msg::ClientTimer {
                kind: TIMER_PRELOAD_DEADLINE,
                tag: 0,
            },
        );
        self.report_if_done(false);
    }

    fn on_message(&mut self, _from: ActorId, msg: Msg, ctx: &mut Context<'_, Msg>) {
        match msg {
            Msg::TxnDone { outcome, .. } => {
                self.decided += 1;
                if outcome != Outcome::Committed {
                    self.failed += 1;
                }
                self.issue(ctx);
                self.report_if_done(false);
            }
            Msg::ClientTimer {
                kind: TIMER_PRELOAD_DEADLINE,
                ..
            } => self.report_if_done(true),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use planet_mdcc::TxnStats;
    use planet_sim::{drive_into, DetRng, Effect, Metrics, SimTime, SiteId, TurnInputs};
    use planet_storage::{TxnId, Value};
    use std::sync::mpsc::{channel, Receiver};

    const ME: ActorId = ActorId(100);
    const COORDINATOR: ActorId = ActorId(3);

    struct Bench {
        generator: Generator,
        reports: Receiver<Report>,
        stop: Arc<AtomicBool>,
        rng: DetRng,
        metrics: Metrics,
    }

    impl Bench {
        fn new(script: Script, pace: Pace) -> Self {
            let (tx, reports) = channel();
            let stop = Arc::new(AtomicBool::new(false));
            let keys = Arc::new((0..8).map(|i| Key::new(format!("kv:{i}"))).collect());
            Bench {
                generator: Generator::new(
                    COORDINATOR,
                    script,
                    pace,
                    keys,
                    Vec::new(),
                    ReadCheck::Counter,
                    tx,
                    stop.clone(),
                ),
                reports,
                stop,
                rng: DetRng::new(1),
                metrics: Metrics::new(),
            }
        }

        /// Deliver `msg` at `now_us`; returns the tags submitted in reply.
        fn deliver(&mut self, now_us: u64, msg: Msg) -> Vec<u64> {
            let mut effects = Vec::new();
            drive_into(
                &mut self.generator,
                TurnInputs {
                    now: SimTime::from_micros(now_us),
                    self_id: ME,
                    self_site: SiteId(0),
                },
                ME,
                msg,
                &mut self.rng,
                &mut self.metrics,
                &mut effects,
            );
            effects
                .into_iter()
                .filter_map(|e| match e {
                    Effect::Send {
                        msg: Msg::Submit { tag, .. } | Msg::SubmitPlan { tag, .. },
                        ..
                    } => Some(tag),
                    _ => None,
                })
                .collect()
        }

        fn timer(&mut self, now_us: u64, kind: u32) -> Vec<u64> {
            self.deliver(now_us, Msg::ClientTimer { kind, tag: 0 })
        }

        fn done(&mut self, now_us: u64, tag: u64, outcome: Outcome) -> Vec<u64> {
            let at = SimTime::from_micros(now_us);
            self.deliver(
                now_us,
                Msg::TxnDone {
                    tag,
                    txn: TxnId::new(0, tag),
                    outcome,
                    stats: TxnStats {
                        submitted_at: SimTime::from_micros(now_us - 700),
                        decided_at: at,
                        proposals_sent_at: SimTime::from_micros(now_us - 500),
                        write_keys: 2,
                        votes_received: 6,
                        rejections: 0,
                    },
                },
            )
        }

        fn completions(&mut self) -> Vec<Done> {
            let mut all = Vec::new();
            while let Ok(report) = self.reports.try_recv() {
                if let Report::Batch(batch) = report {
                    all.extend(batch);
                }
            }
            all
        }
    }

    fn open_script(due_us: &[u64]) -> Script {
        Script {
            ops: due_us.iter().map(|_| Op::KvRmw(1, 2)).collect(),
            due_us: due_us.to_vec(),
        }
    }

    #[test]
    fn open_loop_latency_runs_from_the_due_time_across_a_stall() {
        let mut b = Bench::new(open_script(&[0, 1_000, 2_000]), Pace::Open);
        // The phase starts at t = 10 ms; the first operation is due at once.
        assert_eq!(b.timer(10_000, TIMER_START), vec![0]);
        // The generator is then not scheduled for 50 ms (a stalled worker):
        // operations 1 and 2 fell due at 11 ms and 12 ms and go out late.
        assert_eq!(b.timer(60_000, TIMER_DUE), vec![1, 2]);
        assert!(b.done(61_000, 1, Outcome::Committed).is_empty());
        assert!(b.done(61_500, 0, Outcome::Committed).is_empty());
        b.timer(62_000, TIMER_SWEEP);
        let done = b.completions();
        assert_eq!(done.len(), 2);
        // Operation 1: due at 11 ms, decided at 61 ms. The 49 ms it waited
        // to be sent are in its latency, and reported as lateness.
        assert_eq!(done[0].sample.latency_us, 50_000);
        assert_eq!(done[0].late_us, 49_000);
        // Operation 0 went out on time and was decided 51.5 ms later.
        assert_eq!(done[1].sample.latency_us, 51_500);
        assert_eq!(done[1].late_us, 0);
        assert_eq!(done[0].server_us, 700);
        assert_eq!(done[0].quorum_wait_us, 500);
        assert_eq!(done[0].sample.class, Class::Write);
    }

    #[test]
    fn open_loop_wakes_on_a_wheel_tick_boundary() {
        let mut b = Bench::new(open_script(&[0, 5_000]), Pace::Open);
        let mut effects = Vec::new();
        drive_into(
            &mut b.generator,
            TurnInputs {
                now: SimTime::from_micros(10_100),
                self_id: ME,
                self_site: SiteId(0),
            },
            ME,
            Msg::ClientTimer {
                kind: TIMER_START,
                tag: 0,
            },
            &mut b.rng,
            &mut b.metrics,
            &mut effects,
        );
        let tick = planet_cluster::wheel::DEFAULT_TICK_US;
        let delay = effects
            .iter()
            .find_map(|e| match e {
                Effect::Timer {
                    delay,
                    msg:
                        Msg::ClientTimer {
                            kind: TIMER_DUE, ..
                        },
                } => Some(delay.as_micros()),
                _ => None,
            })
            .expect("a due timer is armed");
        // Due at 15.1 ms: the wake is the next boundary after it.
        let wake = 10_100 + delay;
        assert_eq!(wake % tick, 0);
        assert!(wake > 15_100 && wake <= 15_100 + tick);
    }

    #[test]
    fn closed_loop_keeps_one_operation_per_client_in_flight() {
        let script = Script {
            ops: vec![Op::KvRmw(1, 2); 5],
            due_us: Vec::new(),
        };
        let mut b = Bench::new(script, Pace::Closed { clients: 2 });
        assert_eq!(b.timer(1_000, TIMER_START), vec![0, 1]);
        assert_eq!(b.done(4_000, 0, Outcome::Committed), vec![2]);
        assert_eq!(b.done(5_000, 2, Outcome::Aborted), vec![3]);
        // A straggler for a decided operation changes nothing.
        assert!(b.done(5_500, 0, Outcome::Committed).is_empty());
        // Once told to stop, completions are recorded but not replaced.
        b.stop.store(true, Ordering::Relaxed);
        assert!(b.done(6_000, 1, Outcome::Committed).is_empty());
        assert!(b.done(7_000, 3, Outcome::TimedOut).is_empty());
        b.timer(8_000, TIMER_SWEEP);
        let done = b.completions();
        assert_eq!(done.len(), 4);
        assert_eq!(done[0].sample.latency_us, 3_000);
        assert_eq!(done[1].sample.end, End::Aborted);
        assert_eq!(done[3].sample.end, End::Failed);
        assert_eq!(b.generator.states()[4], OpState::Unsent);
    }

    #[test]
    fn an_operation_without_a_decision_times_out_as_failed() {
        let mut b = Bench::new(open_script(&[0]), Pace::Open);
        b.timer(0, TIMER_START);
        b.timer(OP_TIMEOUT_US + 1, TIMER_SWEEP);
        let done = b.completions();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].sample.end, End::Failed);
        assert_eq!(b.generator.states()[0], OpState::Failed);
    }

    #[test]
    fn a_read_that_breaks_the_invariant_fails_its_operation() {
        let read = |version, value| KeyRead {
            key: Key::new("k"),
            version,
            value,
            pending: 0,
        };
        assert!(ReadCheck::Counter.holds(&read(3, Value::Int(3))));
        assert!(ReadCheck::Counter.holds(&read(0, Value::None)));
        assert!(!ReadCheck::Counter.holds(&read(3, Value::Int(4))));
        let ticket = ReadCheck::Ticket { stock: 100, per: 2 };
        assert!(ticket.holds(&read(1, Value::Int(100))));
        assert!(ticket.holds(&read(4, Value::Int(94))));
        assert!(ticket.holds(&read(0, Value::None)));
        assert!(!ticket.holds(&read(4, Value::Int(95))));
        assert!(!ticket.holds(&read(0, Value::Int(7))));

        let mut b = Bench::new(open_script(&[0]), Pace::Open);
        b.timer(0, TIMER_START);
        b.deliver(
            500,
            Msg::Progress {
                tag: 0,
                txn: TxnId::new(0, 0),
                stage: ProgressStage::ReadsDone {
                    reads: vec![read(2, Value::Int(9))],
                },
            },
        );
        b.done(1_000, 0, Outcome::Committed);
        b.timer(2_000, TIMER_SWEEP);
        assert_eq!(b.completions()[0].sample.end, End::Failed);
    }
}
