//! The reactor message plane: N workers driving many actors each — the one
//! runtime every live actor runs on.
//!
//! An OS thread per replica shard, coordinator and client does not scale
//! down: at 3 sites x 4 shards plus coordinators and client pools the host
//! scheduler — not the protocol — dominates the profile, tens of runnable
//! threads context-switching and thrashing caches on a small machine. So a
//! fixed pool of [`PlaneConfig::workers`] OS threads drives every actor as
//! a schedulable *task* — its mailbox, its `drive` state (actor, RNG,
//! metrics, outbox) and its scheduling word. Every delivered message is
//! funnelled through [`planet_sim::drive_into`], the step function the
//! deterministic engine uses; only the interpretation of the emitted
//! effects differs (sends go to the task's [`Transport`], timers to the
//! task's own *held* queue).
//!
//! A mailbox packet is stamped with the instant it becomes deliverable:
//! now for a plain send, the sampled delivery time for one the channel
//! transport's network model delays. That is how a network delay costs no
//! thread: the packet waits in its destination's mailbox, not in a fabric.
//! A task drives a packet at most [`PlaneConfig::fabric_slack_us`] before
//! its instant, and never later than its first drive after it; a drive
//! that drains a packet due further out keeps it in the task's held queue
//! (an [`EventQueue`]), in due order, for a later drive.
//!
//! A timer is a packet its task holds: an envelope from and to the arming
//! actor, kept on the task's own timer queue at its instant. Unlike a
//! held packet it takes no slack — it is never driven before its instant —
//! and it is driven after the batch its drive drains from the mailbox. It
//! gates no packet: per-pair FIFO among held packets holds whatever timers
//! are armed. A harness call's follow-up messages are self-sent envelopes
//! too, so one loop over the batch drives everything a task receives.
//!
//! Scheduling is a sharded run queue with work stealing:
//!
//! * A task is woken by mailbox arrival (the mailbox's wake hook) or by
//!   its initial schedule. An arrival stamped beyond the slack wakes
//!   nothing: it arms a *timed wake* for its instant instead, as does a
//!   drive that leaves packets or timers held. Timed wakes sit on one
//!   queue that every worker checks at its loop top and parks against, so
//!   any worker fires a timer, not only the one that drove its arming.
//! * Wakes enqueue the task at the back of its home worker's queue — a
//!   fired timed wake at the front, since its packet is due now; an idle
//!   worker with an empty queue steals from its peers, so a skewed shard
//!   cannot strand runnable tasks behind one busy worker.
//! * The per-task scheduling word (idle / queued / running / running+
//!   notified) guarantees exactly one worker drives a task at a time —
//!   actor state never needs a lock of its own.
//!
//! An idle worker parks until the earliest timed wake — a sleep that is
//! exact, because a mailbox arrival, a wake or an earlier timed wake cuts
//! it short, so no polling tick is needed. A worker parks in a poller of
//! its own (`crate::poll`: an epoll set with an eventfd, woken by an
//! eventfd write, timed to the microsecond).
//!
//! Sockets are read where the actors run. A spawn *adopts* the transport
//! the new task sends through if it has socket I/O ([`Transport::io`]):
//! the transport's own I/O thread stops, its poller is nested in every
//! worker's, and each worker runs the transport's poll — accept, read and
//! deliver, finish queued writes — without waiting at its loop top. A
//! frame reaching an idle reactor ends the park it is in.
//! Outbound sends coalesce across tasks driven back-to-back on the same
//! worker and flush as one `send_many` batch, capped by
//! [`PlaneConfig::fabric_slack_us`]: a pending batch is handed to the
//! transport when it fills, when the worker runs out of tasks, or when its
//! oldest envelope has waited a full horizon — whichever comes first — so
//! a flush can never be stranded behind a long run of stolen or busy
//! tasks. A task's sends reach the transport in the order it made them,
//! whichever workers drive it: before a worker drives a task that another
//! worker drove last, it flushes that worker's pending batch (waiting out a
//! flush already in flight).

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use planet_mdcc::Msg;
use planet_sim::{
    drive_into, drive_start, Actor, ActorId, DetRng, Effect, EventQueue, FastHash, Metrics,
    SimTime, SiteId, TurnInputs,
};

use crate::node::{Clock, NodeHandle, Packet, PoolHandle, PoolMembers};
use crate::plane::{mailbox, MailboxReceiver, MailboxSender, PlaneConfig};
use crate::sync::{
    AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Condvar, Mutex, MutexGuard, Ordering, Waiter,
};
use crate::transport::{Envelope, Io, Transport};

/// Idle park backstop when no timed wake is pending (wakes cut it short).
const IDLE_WAIT: Duration = Duration::from_millis(500);

/// Task scheduling states (the per-task scheduling word).
const IDLE: u8 = 0;
const QUEUED: u8 = 1;
const RUNNING: u8 = 2;
const RUNNING_NOTIFIED: u8 = 3;

/// `TaskCore::wake_at` / `ReactorInner::earliest` when nothing is armed.
const NO_WAKE: u64 = u64::MAX;

/// One actor hosted by a task: id, state, and a private RNG seeded from
/// the reactor's seed and the actor's id.
struct TaskMember {
    id: ActorId,
    actor: Box<dyn Actor<Msg>>,
    rng: DetRng,
}

/// Everything a worker needs exclusive access to while driving a task.
/// Lives inside the task's slot mutex and is *taken out* for the duration
/// of a drive, so no lock is held while the actor runs or the transport is
/// called.
///
/// A task hosts one *or more* members behind its single mailbox. The
/// multi-member shape ([`Reactor::spawn_pool`]) exists for load
/// generators: hundreds of tiny closed-loop clients each completing
/// ~2 messages per wake would pay the full scheduling cost (queue hop,
/// state-word CAS, body checkout, cold task state) per message, where a
/// pool amortizes one drive across a whole batch of its members' traffic.
/// Members keep private ids and RNGs; routing is by envelope destination.
struct TaskBody {
    site: SiteId,
    members: Vec<TaskMember>,
    /// Destination-id routing for multi-member tasks; `None` for the
    /// single-member case (everything goes to member 0, no map lookup).
    by_id: Option<HashMap<u32, usize, FastHash>>,
    metrics: Metrics,
    rx: MailboxReceiver,
    /// The batch a drive moved out of the mailbox under one lock and is
    /// working through, each packet with its deliverable instant; empty
    /// between drives.
    inbox: VecDeque<(Instant, Packet)>,
    /// Packets drained before they were due, by due time: each is driven
    /// by the first drive within the slack of its instant.
    held: EventQueue<(Instant, Packet)>,
    /// Armed timers, by due time: each is driven by the first drive at or
    /// after its instant, after the batch that drive drains.
    timers: EventQueue<(Instant, Packet)>,
    /// Each driven packet's wait since it became deliverable, µs: recorded
    /// into `span.queue_us` once per drive, not once per packet.
    queue_waits: Vec<u64>,
    transport: Arc<dyn Transport>,
    outbox: Vec<Envelope>,
    /// The worker whose pending flush may still hold this task's sends.
    flushes_on: Option<usize>,
    effects: Vec<Effect<Msg>>,
    started: bool,
}

/// The shared core of a reactor task: its scheduling word, the drive-state
/// slot, and the finish rendezvous. Synchronization lives in the contained
/// `Mutex`/atomic fields.
pub(crate) struct TaskCore {
    /// The worker whose run queue wakes enqueue this task on.
    home: usize,
    /// IDLE / QUEUED / RUNNING / RUNNING_NOTIFIED.
    sched: AtomicU8,
    /// Set once the task has been finalized; late wakes become no-ops.
    done: AtomicBool,
    /// The earliest timed wake armed for this task and not yet fired, as
    /// µs on the reactor clock; [`NO_WAKE`] when none is. An arrival due
    /// later than it arms nothing: the earlier wake's drive takes the
    /// packet and re-arms for what it holds.
    wake_at: AtomicU64,
    /// The drive state; `None` while a worker has it out for a drive, or
    /// after finalization.
    body: Mutex<Option<TaskBody>>,
    /// The harvested members and metrics, present after finalization.
    result: Mutex<Option<(PoolMembers, Metrics)>>,
    finished: Condvar,
}

impl TaskCore {
    /// Block until the task has finalized, returning its member actors and
    /// shared metrics. Called by [`NodeHandle::stop_and_join`] and
    /// [`PoolHandle::stop_and_join`].
    pub(crate) fn wait_finished(&self) -> (PoolMembers, Metrics) {
        let mut slot = self.result.lock().expect("lock poisoned");
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            slot = self.finished.wait(slot).expect("lock poisoned");
        }
    }

    /// The wake-side transition of the scheduling word. Collapses
    /// concurrent wakes into at most one queue entry (IDLE → QUEUED) plus
    /// one re-run note (RUNNING → RUNNING_NOTIFIED); wakes of a finalized
    /// task are dead. Extracted so the loom harness can drive the *same*
    /// transition code the reactor runs, not a transliteration.
    fn try_wake(&self) -> WakeVerdict {
        if self.done.load(Ordering::Acquire) {
            return WakeVerdict::Dead;
        }
        loop {
            match self.sched.load(Ordering::Acquire) {
                IDLE => {
                    if self
                        .sched
                        .compare_exchange(IDLE, QUEUED, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        return WakeVerdict::Enqueue;
                    }
                }
                QUEUED | RUNNING_NOTIFIED => return WakeVerdict::Coalesced,
                _ => {
                    if self
                        .sched
                        .compare_exchange(
                            RUNNING,
                            RUNNING_NOTIFIED,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        )
                        .is_ok()
                    {
                        return WakeVerdict::Coalesced;
                    }
                }
            }
        }
    }

    /// The drive-side entry transition: QUEUED → RUNNING. `false` means
    /// the queue entry was stale (the task finalized after being queued)
    /// and there is nothing to drive.
    fn claim_running(&self) -> bool {
        self.sched
            .compare_exchange(QUEUED, RUNNING, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// The drive-side exit transition: RUNNING → IDLE, unless a wake noted
    /// itself mid-drive (RUNNING_NOTIFIED), in which case the word goes
    /// back to QUEUED and the caller must re-enqueue — the note is the
    /// only record of that wake, so dropping it here is a lost drive.
    fn release_running(&self) -> bool {
        if self
            .sched
            .compare_exchange(RUNNING, IDLE, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            return false;
        }
        self.sched.store(QUEUED, Ordering::Release);
        true
    }
}

/// What [`TaskCore::try_wake`] decided the waker must do.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum WakeVerdict {
    /// The wake won IDLE → QUEUED: the caller owns the queue push.
    Enqueue,
    /// Another wake already queued or noted the task; nothing to do.
    Coalesced,
    /// The task has finalized; wakes are no-ops.
    Dead,
}

/// One worker's shared face: its run queue, its parker, and its pending
/// coalesced flush (locked by its owner, and by a worker about to drive a
/// task whose sends it may still hold).
struct WorkerShared {
    queue: Mutex<VecDeque<Arc<TaskCore>>>,
    parker: Parker,
    pending: Mutex<PendingFlush>,
}

/// The park/rouse rendezvous of one worker: its [`Waiter`], a poller with
/// an eventfd in it (and, once the reactor adopts a transport, that
/// transport's poller nested in it). A rouse is sticky: one that lands
/// while the worker is between its recheck and its wait leaves the
/// eventfd counting, and the wait returns at once, so wakes are never
/// lost. The `parked` flag gates the whole rouse path: a busy worker costs
/// its wakers nothing but an atomic load — crucial, since every send
/// funnels through its destination's wake.
struct Parker {
    waiter: Waiter,
    /// True from just before the pre-sleep recheck until wakeup. Paired
    /// with [`Parker::park_unless`]'s flag-then-recheck order (Dekker
    /// style): an enqueuer that reads `parked == false` is guaranteed its
    /// push is visible to the recheck, so skipping the rouse is safe.
    parked: AtomicBool,
}

impl Parker {
    fn new() -> Self {
        Parker {
            waiter: Waiter::new(),
            parked: AtomicBool::new(false),
        }
    }

    /// End the worker's park, or its next one (the eventfd write).
    fn rouse(&self) {
        self.waiter.rouse();
    }

    /// Park for as long as `wait` says, read after the `parked` flag is
    /// visible: `None` (runnable work, or a deadline already reached)
    /// returns at once. Enqueuers and wake-armers order
    /// publish-then-check-`parked`; this orders set-`parked`-then-recheck.
    /// Under SeqCst one side must see the other: either the publisher
    /// rouses, or the recheck finds what it published. A socket of an
    /// adopted transport turning ready ends the park too.
    fn park_unless(&self, wait: impl FnOnce() -> Option<Duration>) {
        self.parked.store(true, Ordering::SeqCst);
        if let Some(timeout) = wait() {
            self.waiter.wait(timeout);
        }
        self.parked.store(false, Ordering::SeqCst);
    }
}

/// The shared state of a reactor: worker queues, parkers, and counters.
/// All interior state is synchronized (queues and parkers carry their own
/// locks; the rest is atomic).
struct ReactorInner {
    workers: Vec<WorkerShared>,
    running: AtomicBool,
    clock: Clock,
    plane: PlaneConfig,
    /// How early a task may drive a packet ([`PlaneConfig::fabric_slack_us`]).
    slack: Duration,
    seed: u64,
    /// Timed wakes: each task with a packet due beyond the slack, at the
    /// packet's instant on `clock`.
    timed: Mutex<EventQueue<Arc<TaskCore>>>,
    /// The earliest instant on `timed`, µs on `clock` ([`NO_WAKE`] when it
    /// is empty), stored under its lock: what a worker compares with the
    /// clock at its loop top and parks against without taking the lock.
    earliest: AtomicU64,
    /// The socket I/O of the transport this reactor adopted, if any: its
    /// workers run it at their loop top and park in its poller too.
    io: OnceLock<Io>,
    next_home: AtomicUsize,
    steals: AtomicU64,
    /// Microseconds workers spent driving tasks (summed across workers).
    busy_us: AtomicU64,
    /// Microseconds workers spent parked waiting for work.
    idle_us: AtomicU64,
    /// Tasks driven (scheduling slots used, not messages).
    drives: AtomicU64,
    /// Times a worker ran out of runnable tasks and entered its parker.
    parks: AtomicU64,
}

impl ReactorInner {
    fn new(clock: Clock, plane: PlaneConfig, seed: u64) -> Self {
        ReactorInner {
            workers: (0..plane.workers.max(1))
                .map(|_| WorkerShared {
                    queue: Mutex::new(VecDeque::new()),
                    parker: Parker::new(),
                    pending: Mutex::new(PendingFlush::new(&plane)),
                })
                .collect(),
            running: AtomicBool::new(true),
            clock,
            plane,
            slack: Duration::from_micros(plane.fabric_slack_us),
            seed,
            timed: Mutex::new(EventQueue::new()),
            earliest: AtomicU64::new(NO_WAKE),
            io: OnceLock::new(),
            next_home: AtomicUsize::new(0),
            steals: AtomicU64::new(0),
            busy_us: AtomicU64::new(0),
            idle_us: AtomicU64::new(0),
            drives: AtomicU64::new(0),
            parks: AtomicU64::new(0),
        }
    }

    /// A packet deliverable at `due` reached `task`'s mailbox: wake the
    /// task if `due` is within the slack, else arm a timed wake for `due`.
    fn wake_for(&self, task: &Arc<TaskCore>, due: Instant) {
        if due <= Instant::now() + self.slack {
            self.wake(task);
        } else {
            self.arm(task, self.clock.sim_time(due));
        }
    }

    /// Wake `task` at `at`, unless a wake at or before `at` is armed for it
    /// already. A wake that becomes the earliest of all rouses a parked
    /// worker, whose park was timed against the earliest before it.
    fn arm(&self, task: &Arc<TaskCore>, at: SimTime) {
        let at_us = at.as_micros();
        if task.wake_at.fetch_min(at_us, Ordering::AcqRel) <= at_us {
            return;
        }
        let lowered = {
            let mut timed = self.timed.lock().expect("lock poisoned");
            timed.push(at, Arc::clone(task));
            let head = timed.peek_at().map_or(NO_WAKE, SimTime::as_micros);
            let lowered = head < self.earliest.load(Ordering::SeqCst);
            self.earliest.store(head, Ordering::SeqCst);
            lowered
        };
        if lowered {
            for worker in &self.workers {
                if worker.parker.parked.load(Ordering::SeqCst) {
                    worker.parker.rouse();
                    return;
                }
            }
        }
    }

    /// Wake every task whose timed wake is due by `now`.
    fn fire_timed(&self, now: SimTime) {
        if self.earliest.load(Ordering::SeqCst) > now.as_micros() {
            return;
        }
        loop {
            let fired = {
                let mut timed = self.timed.lock().expect("lock poisoned");
                let fired = timed.pop_due(now);
                let head = timed.peek_at().map_or(NO_WAKE, SimTime::as_micros);
                self.earliest.store(head, Ordering::SeqCst);
                fired
            };
            let Some((at, task)) = fired else {
                return;
            };
            // Disarm, unless an earlier wake was armed since (it is still
            // queued, and will fire too).
            let _ = task.wake_at.compare_exchange(
                at.as_micros(),
                NO_WAKE,
                Ordering::AcqRel,
                Ordering::Acquire,
            );
            // Ahead of the queue: its packet is due now, and behind every
            // task queued before it, it would be driven that much late.
            if task.try_wake() == WakeVerdict::Enqueue {
                self.enqueue(task.home, task, true);
            }
        }
    }

    /// Park worker `w` until the earliest timed wake, a rouse, or a socket
    /// of the adopted transport turning ready — or not at all if a task is
    /// runnable or the earliest timed wake is due by `now()`.
    fn park(&self, w: usize, now: impl Fn() -> SimTime) {
        let Some(worker) = self.workers.get(w) else {
            return;
        };
        worker.parker.park_unless(|| {
            if self.has_runnable() {
                return None;
            }
            let now = now();
            let next = SimTime::from_micros(self.earliest.load(Ordering::SeqCst));
            if next <= now {
                return None;
            }
            Some(next.since(now).to_std().min(IDLE_WAIT))
        });
    }

    /// Make `task` runnable (mailbox arrival, initial schedule).
    /// Idempotent under any interleaving: the scheduling word collapses
    /// concurrent wakes into at most one queue entry plus one re-run note.
    fn wake(&self, task: &Arc<TaskCore>) {
        if task.try_wake() == WakeVerdict::Enqueue {
            self.enqueue(task.home, Arc::clone(task), false);
        }
    }

    /// Push a runnable task onto worker `home`'s queue — at the back, or
    /// at the front when `ahead` (a fired timed wake) — and rouse a
    /// *sleeper* if there is one: the home worker when it is parked, else
    /// one parked peer (home is mid-drive, and a parked peer can steal the
    /// task immediately instead of it waiting out an idle backstop). Awake
    /// workers need no rouse at all — before parking they recheck every
    /// queue under the parked flag, so a push they weren't told about is
    /// still found — which keeps the saturated path free of the eventfd.
    fn enqueue(&self, home: usize, task: Arc<TaskCore>, ahead: bool) {
        {
            // `home` is a `TaskCore::home` (taken modulo `workers.len()` at
            // spawn) or the calling worker's own index: check:allow(panic)
            let mut queue = self.workers[home].queue.lock().expect("lock poisoned");
            if ahead {
                queue.push_front(task);
            } else {
                queue.push_back(task);
            }
        }
        // check:allow(panic): `home` < `workers.len()`, as above
        if self.workers[home].parker.parked.load(Ordering::SeqCst) {
            // check:allow(panic): `home` < `workers.len()`, as above
            self.workers[home].parker.rouse();
            return;
        }
        for (w, worker) in self.workers.iter().enumerate() {
            if w != home && worker.parker.parked.load(Ordering::SeqCst) {
                worker.parker.rouse();
                return;
            }
        }
    }

    /// Any task queued on any worker? The pre-park recheck: a worker about
    /// to sleep must look at every queue (not just its own), because
    /// enqueuers skip the rouse for workers that weren't parked yet.
    fn has_runnable(&self) -> bool {
        self.workers
            .iter()
            .any(|w| !w.queue.lock().expect("lock poisoned").is_empty())
    }

    /// Pop the next runnable task for worker `w`: its own queue first,
    /// then a steal sweep over its peers.
    fn next_task(&self, w: usize) -> Option<(Arc<TaskCore>, bool)> {
        // `w` is the calling worker's index, one of the `0..workers.len()`
        // `Reactor::new` hands out: check:allow(panic)
        if let Some(task) = self.workers[w]
            .queue
            .lock()
            .expect("lock poisoned")
            .pop_front()
        {
            return Some((task, false));
        }
        let n = self.workers.len();
        for step in 1..n {
            let victim = (w + step) % n;
            // check:allow(panic): taken modulo `n == workers.len()`
            let stolen = self.workers[victim]
                .queue
                .lock()
                .expect("lock poisoned")
                .pop_front();
            if let Some(task) = stolen {
                self.steals.fetch_add(1, Ordering::Relaxed);
                return Some((task, true));
            }
        }
        None
    }
}

/// Outbound envelopes coalesced across the tasks a worker drives
/// back-to-back, flushed as one `send_many` per transport. `since` is the
/// age of the *oldest* pending envelope: the flush horizon
/// ([`PlaneConfig::fabric_slack_us`]) is measured from it, so batching can
/// delay no send by more than one horizon regardless of how many tasks —
/// stolen or home-grown — the worker drives in between.
struct PendingFlush {
    /// One pending batch per transport the worker's tasks send through (a
    /// process hosts a handful at most — linear scan by pointer identity).
    /// Keeping them separate lets sends coalesce across task drives even
    /// when consecutive drives alternate transports, as they do in a
    /// multi-site tcp topology.
    slots: Vec<(Arc<dyn Transport>, Vec<Envelope>, Instant)>,
    max_batch: usize,
    horizon: Duration,
}

impl PendingFlush {
    fn new(plane: &PlaneConfig) -> Self {
        PendingFlush {
            slots: Vec::new(),
            max_batch: plane.max_batch.max(1),
            horizon: Duration::from_micros(plane.fabric_slack_us),
        }
    }

    /// Lock a worker's pending flush. Callers bind the guard with `let`,
    /// so that planet-check's call graph resolves `pending.flush()` to
    /// this type's method and not to every `Write::flush` in the workspace.
    fn lock(slot: &Mutex<PendingFlush>) -> MutexGuard<'_, PendingFlush> {
        slot.lock().expect("lock poisoned")
    }

    /// Absorb one task's outbox into its transport's batch. A full batch
    /// flushes inline; otherwise the envelopes wait for the horizon or the
    /// worker's next idle moment.
    fn absorb(&mut self, transport: &Arc<dyn Transport>, outbox: &mut Vec<Envelope>) {
        if outbox.is_empty() {
            return;
        }
        let slot = match self
            .slots
            .iter_mut()
            .find(|(t, _, _)| Arc::ptr_eq(t, transport))
        {
            Some(slot) => slot,
            None => {
                self.slots
                    .push((Arc::clone(transport), Vec::new(), Instant::now()));
                // check:allow(panic): non-empty, pushed on the line above
                self.slots.last_mut().expect("just pushed")
            }
        };
        if slot.1.is_empty() {
            slot.2 = Instant::now();
        }
        slot.1.append(outbox);
        if slot.1.len() >= self.max_batch || self.horizon.is_zero() {
            slot.0.send_many(&mut slot.1);
            slot.1.clear();
        }
    }

    /// Hand everything pending to its transport.
    fn flush(&mut self) {
        for (transport, envs, _) in &mut self.slots {
            if !envs.is_empty() {
                transport.send_many(envs);
                envs.clear();
            }
        }
    }

    /// Flush every batch whose oldest pending envelope has aged past the
    /// horizon.
    fn flush_if_due(&mut self) {
        for (transport, envs, since) in &mut self.slots {
            if !envs.is_empty() && since.elapsed() >= self.horizon {
                transport.send_many(envs);
                envs.clear();
            }
        }
    }
}

/// The reactor runtime: worker threads, their shared queues, and the spawn
/// surface. One reactor hosts every actor of a process (servers and
/// clients alike); harness code holds the [`NodeHandle`]s and
/// [`PoolHandle`]s its spawn calls return.
pub struct Reactor {
    inner: Arc<ReactorInner>,
    joins: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Reactor {
    /// Start a reactor with `plane.workers` workers (at least one) sharing
    /// `clock`. `seed` feeds each task's private deterministic RNG; live
    /// runs are not replayable (the OS scheduler orders events), but
    /// per-actor jitter sampling stays well-defined.
    pub fn new(clock: Clock, plane: PlaneConfig, seed: u64) -> Arc<Reactor> {
        let inner = Arc::new(ReactorInner::new(clock, plane, seed));
        let joins = (0..inner.workers.len())
            .map(|w| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("planet-reactor-{w}"))
                    .spawn(move || run_worker(w, inner))
                    // Start-up, on the caller's thread; no worker calls this
                    // (reached by a by-name `new` edge): check:allow(panic)
                    .expect("spawn reactor worker")
            })
            .collect();
        Arc::new(Reactor {
            inner,
            joins: Mutex::new(joins),
        })
    }

    /// Worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.inner.workers.len()
    }

    /// Tasks taken off a peer's queue so far.
    pub fn steals(&self) -> u64 {
        self.inner.steals.load(Ordering::Relaxed)
    }

    /// Worker-time accounting: `(busy_us, idle_us, drives, parks)` summed
    /// across workers — microseconds spent driving tasks, microseconds
    /// spent parked, scheduling slots used, and times a worker ran dry and
    /// entered its parker.
    pub fn worker_stats(&self) -> (u64, u64, u64, u64) {
        (
            self.inner.busy_us.load(Ordering::Relaxed),
            self.inner.idle_us.load(Ordering::Relaxed),
            self.inner.drives.load(Ordering::Relaxed),
            self.inner.parks.load(Ordering::Relaxed),
        )
    }

    /// Spawn `actor` as a reactor task. The caller has registered `mailbox`
    /// with the transport already (actors may emit sends from `on_start`,
    /// so every peer must be routable before any task starts), and the
    /// actor's `on_start` runs on a worker as soon as the task is first
    /// scheduled (which happens before this call returns control flow to
    /// message delivery — the wake hook is installed first, so no arrival
    /// can race past an unscheduled task).
    pub fn spawn(
        self: &Arc<Self>,
        id: ActorId,
        site: SiteId,
        actor: Box<dyn Actor<Msg>>,
        mailbox: MailboxSender,
        rx: MailboxReceiver,
        transport: Arc<dyn Transport>,
    ) -> NodeHandle {
        let core = self.spawn_task(vec![(id, actor)], site, rx, transport);
        NodeHandle { id, mailbox, core }
    }

    /// Spawn one task driving a *pool* of actors behind a single shared
    /// mailbox: the caller registered each member id against `mailbox`
    /// already, members keep private ids and RNGs, one drive drains the
    /// whole pool's traffic, and `Packet::Call` (which names no member) is
    /// counted and dropped — pools are for headless load actors; facade
    /// clients that need `call` / `inject` get a task of their own via
    /// [`spawn`](Self::spawn). The pool is one schedulable task — it
    /// migrates between workers like any other, so load generators stay
    /// stealable without paying per-client scheduling.
    pub fn spawn_pool(
        self: &Arc<Self>,
        members: PoolMembers,
        site: SiteId,
        mailbox: MailboxSender,
        rx: MailboxReceiver,
        transport: Arc<dyn Transport>,
    ) -> PoolHandle {
        assert!(!members.is_empty(), "a pool needs at least one member");
        let ids: Vec<ActorId> = members.iter().map(|(id, _)| *id).collect();
        let core = self.spawn_task(members, site, rx, transport);
        PoolHandle { ids, mailbox, core }
    }

    /// Spawn a site's load clients as one pool task *per worker*, each
    /// hosting `ceil(len / workers)` of `members` behind a mailbox of its
    /// own. A task per client would pay the full scheduling cost for every
    /// ~2 messages a closed-loop client moves per wake, so a concurrency
    /// sweep would measure the scheduler instead of the cluster; one pool
    /// for all of them could not spread over the workers. `route` makes an
    /// id reachable at its chunk's mailbox (`ChannelTransport::register`,
    /// `TcpTransport::host`) and runs before that chunk's task exists.
    pub fn spawn_pool_per_worker(
        self: &Arc<Self>,
        members: PoolMembers,
        site: SiteId,
        transport: Arc<dyn Transport>,
        mut route: impl FnMut(ActorId, MailboxSender),
    ) -> Vec<PoolHandle> {
        let chunk = members.len().div_ceil(self.workers()).max(1);
        let mut members = members.into_iter().peekable();
        let mut pools = Vec::new();
        while members.peek().is_some() {
            let group: PoolMembers = members.by_ref().take(chunk).collect();
            let (tx, rx) = mailbox(self.inner.plane.mailbox_capacity);
            for (id, _) in &group {
                route(*id, tx.clone());
            }
            pools.push(self.spawn_pool(group, site, tx, rx, Arc::clone(&transport)));
        }
        pools
    }

    /// The shared spawn path: build the task core, install the wake hook,
    /// seat the body, and schedule the initial drive (which runs every
    /// member's `on_start`).
    fn spawn_task(
        self: &Arc<Self>,
        members: PoolMembers,
        site: SiteId,
        rx: MailboxReceiver,
        transport: Arc<dyn Transport>,
    ) -> Arc<TaskCore> {
        self.adopt(&transport);
        let inner = &self.inner;
        let home = inner.next_home.fetch_add(1, Ordering::Relaxed) % inner.workers.len();
        let members: Vec<TaskMember> = members
            .into_iter()
            .map(|(id, actor)| TaskMember {
                id,
                actor,
                rng: DetRng::new(
                    inner.seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(id.0 as u64 + 1)),
                ),
            })
            .collect();
        let by_id = (members.len() > 1).then(|| {
            members
                .iter()
                .enumerate()
                .map(|(idx, m)| (m.id.0, idx))
                .collect()
        });
        let core = Arc::new(TaskCore {
            home,
            sched: AtomicU8::new(IDLE),
            done: AtomicBool::new(false),
            wake_at: AtomicU64::new(NO_WAKE),
            body: Mutex::new(None),
            result: Mutex::new(None),
            finished: Condvar::new(),
        });
        // Wake hook first (while the receiver is still ours, no task lock
        // held), initial schedule last: anything enqueued before the hook
        // existed is picked up by the initial drive. The task core must be
        // weak (the receiver lives inside the task body, so a strong ref
        // would cycle), but the reactor itself is safe to hold strongly —
        // one upgrade per delivery instead of two.
        let weak_core = Arc::downgrade(&core);
        let wake_inner = Arc::clone(inner);
        rx.set_waker(Arc::new(move |due| {
            if let Some(core) = weak_core.upgrade() {
                wake_inner.wake_for(&core, due);
            }
        }));
        *core.body.lock().expect("lock poisoned") = Some(TaskBody {
            site,
            members,
            by_id,
            metrics: Metrics::new(),
            rx,
            inbox: VecDeque::new(),
            held: EventQueue::new(),
            timers: EventQueue::new(),
            queue_waits: Vec::new(),
            transport,
            outbox: Vec::new(),
            flushes_on: None,
            effects: Vec::new(),
            started: false,
        });
        inner.wake(&core);
        core
    }

    /// Run `transport`'s socket I/O on this reactor's workers, if it has
    /// any ([`Transport::io`]) and this reactor runs none yet: stop the
    /// transport's own I/O thread, nest its poller in every worker's park,
    /// and publish it for the workers' loop tops. The own thread goes
    /// first: until then it is the only waiter on the transport's poller,
    /// so the notify that stops it is not taken by a worker. What turns
    /// ready meanwhile is still ready once nested (level-triggered). A
    /// reactor adopts one transport; another one's sockets stay on its own
    /// thread. A worker whose park the poller could not be nested in still
    /// polls at its loop top, and wakes for sockets only with its other
    /// wakes.
    fn adopt(&self, transport: &Arc<dyn Transport>) {
        let inner = &self.inner;
        if inner.io.get().is_some() {
            return;
        }
        let Some(io) = transport.io() else {
            return;
        };
        inner.io.get_or_init(|| {
            io.source.adopted();
            for worker in &inner.workers {
                let _ = worker.parker.waiter.attach(io.source.poller());
            }
            io
        });
    }

    /// Stop the worker pool. Tasks must have been joined first (via their
    /// handles); workers exit at their next idle moment.
    pub fn shutdown(&self) {
        self.inner.running.store(false, Ordering::SeqCst);
        for worker in &self.inner.workers {
            worker.parker.rouse();
        }
        let joins: Vec<_> = {
            let mut slot = self.joins.lock().expect("lock poisoned");
            slot.drain(..).collect()
        };
        for join in joins {
            let _ = join.join();
        }
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// True for message classes whose replica-side drive is dominated by
/// validation + WAL append: what the `span.wal_us` histogram times.
fn is_wal_class(msg: &Msg) -> bool {
    matches!(
        msg,
        Msg::Propose { .. } | Msg::FastPropose { .. } | Msg::Replicate { .. }
    )
}

/// The worker main loop: fire timed wakes, drive tasks (own queue first,
/// then steals), coalesce flushes, park on the earliest timed wake.
fn run_worker(w: usize, inner: Arc<ReactorInner>) {
    let Some(me) = inner.workers.get(w) else {
        return;
    };
    loop {
        inner.fire_timed(inner.clock.now());
        // Socket I/O of the adopted transport, without waiting: frames
        // read here wake their tasks before the queue is looked at.
        if let Some(io) = inner.io.get() {
            io.source.poll();
        }
        // The flush horizon is checked between drives, so a batch ages at
        // most one drive past `fabric_slack_us` even on a saturated worker.
        let mut pending = PendingFlush::lock(&me.pending);
        pending.flush_if_due();
        drop(pending);
        match inner.next_task(w) {
            Some((task, stolen)) => {
                let began = Instant::now();
                drive_task(&inner, w, &task, stolen);
                inner
                    .busy_us
                    .fetch_add(began.elapsed().as_micros() as u64, Ordering::Relaxed);
                inner.drives.fetch_add(1, Ordering::Relaxed);
            }
            None => {
                let mut pending = PendingFlush::lock(&me.pending);
                pending.flush();
                drop(pending);
                if !inner.running.load(Ordering::SeqCst) {
                    return;
                }
                let began = Instant::now();
                inner.parks.fetch_add(1, Ordering::Relaxed);
                inner.park(w, || inner.clock.now());
                inner
                    .idle_us
                    .fetch_add(began.elapsed().as_micros() as u64, Ordering::Relaxed);
            }
        }
    }
}

/// Drive one scheduled task: the held packets now within the slack, then
/// up to `max_batch` mailbox packets (holding those due further out), then
/// the timers now due, one turn-group, one coalesced flush hand-off.
/// Ends by arming a timed wake for what the task holds and releasing the
/// scheduling word (re-queueing if traffic arrived mid-drive or the batch
/// cap left the mailbox non-empty).
fn drive_task(inner: &Arc<ReactorInner>, w: usize, task: &Arc<TaskCore>, stolen: bool) {
    if !task.claim_running() {
        return; // finalized under us; nothing to drive
    }
    let taken = task.body.lock().expect("lock poisoned").take();
    let Some(mut body) = taken else {
        // Finalized between the CAS and the take: leave the word as-is,
        // wakes check `done` first.
        return;
    };
    // The task's earlier sends go before anything this drive sends: if the
    // worker that drove it last may still hold some, they are flushed now,
    // after any flush of them already in flight.
    if let Some(prev) = body.flushes_on.filter(|&prev| prev != w) {
        if let Some(worker) = inner.workers.get(prev) {
            let mut pending = PendingFlush::lock(&worker.pending);
            pending.flush();
        }
        body.flushes_on = None;
    }
    let max_batch = inner.plane.max_batch.max(1);
    let site = body.site;
    let inputs = |id: ActorId, now: SimTime| TurnInputs {
        now,
        self_id: id,
        self_site: site,
    };
    if stolen {
        body.metrics.counter("plane.steal").add(1);
    }
    if !body.started {
        body.started = true;
        for idx in 0..body.members.len() {
            let now = inner.clock.now();
            // check:allow(panic): `idx` ranges over `0..members.len()`
            let member = &mut body.members[idx];
            let start = drive_start(
                member.actor.as_mut(),
                inputs(member.id, now),
                &mut member.rng,
                &mut body.metrics,
            );
            body.effects.extend(start);
            absorb_effects(&mut body, idx, inner.clock, now);
        }
    }
    // What this drive may deliver: everything due by the slack past now.
    // Held packets within it go first, in due order; a packet of the batch
    // due later than any of them is of another pair or later on its own.
    let horizon = Instant::now() + inner.slack;
    let held_until = inner.clock.sim_time(horizon);
    while let Some((_, held)) = body.held.pop_due(held_until) {
        body.inbox.push_back(held);
    }
    // The batch moves out of the mailbox under one lock, so the senders
    // contend with this task once a drive, not once a packet.
    let drained = body.rx.drain_into(max_batch, &mut body.inbox);
    // Due timers go after the batch and take no slack: an early fire would
    // end a coordinator's timeout chain, which re-arms only when due.
    let now = inner.clock.now();
    while let Some((_, fire)) = body.timers.pop_due(now) {
        body.inbox.push_back(fire);
    }
    let mut stopped = false;
    while let Some((due, packet)) = body.inbox.pop_front() {
        if due > horizon {
            body.held.push(inner.clock.sim_time(due), (due, packet));
            continue;
        }
        let at = Instant::now();
        body.queue_waits
            .push(at.saturating_duration_since(due).as_micros() as u64);
        match packet {
            Packet::Env(env) => {
                let idx = match &body.by_id {
                    None => 0,
                    Some(map) => match map.get(&env.to.0) {
                        Some(&idx) => idx,
                        None => {
                            body.metrics.counter("plane.pool.misrouted").add(1);
                            continue;
                        }
                    },
                };
                let now = inner.clock.sim_time(at);
                let wal = is_wal_class(&env.msg);
                // `idx` comes out of `by_id`, built over `members` at spawn,
                // or is 0 on a single-member task: check:allow(panic)
                let member = &mut body.members[idx];
                drive_into(
                    member.actor.as_mut(),
                    inputs(member.id, now),
                    env.from,
                    env.msg,
                    &mut member.rng,
                    &mut body.metrics,
                    &mut body.effects,
                );
                if wal {
                    body.metrics
                        .histogram("span.wal_us")
                        .record(at.elapsed().as_micros() as u64);
                }
                absorb_effects(&mut body, idx, inner.clock, now);
            }
            Packet::Call(f) => {
                if body.members.len() > 1 {
                    // A call names no member; see `spawn_pool` docs.
                    body.metrics.counter("plane.pool.dropped_call").add(1);
                    continue;
                }
                // check:allow(panic): a task has at least one member
                let member = &mut body.members[0];
                let id = member.id;
                // The follow-ups are self-sent, ahead of everything the
                // batch still holds, and deliverable when the call was.
                for msg in f(member.actor.as_mut()).into_iter().rev() {
                    let env = Envelope {
                        from: id,
                        to: id,
                        msg,
                    };
                    body.inbox.push_front((due, Packet::Env(env)));
                }
            }
            Packet::Stop => {
                stopped = true;
                break;
            }
        }
    }
    if !body.queue_waits.is_empty() {
        let queue = body.metrics.histogram("span.queue_us");
        for wait in body.queue_waits.drain(..) {
            queue.record(wait);
        }
    }
    if drained > 0 {
        body.metrics.histogram("plane.batch").record(drained as u64);
        body.metrics
            .histogram("plane.mailbox.depth")
            .record(body.rx.depth() as u64);
    }
    if !body.outbox.is_empty() {
        if let Some(me) = inner.workers.get(w) {
            let mut pending = PendingFlush::lock(&me.pending);
            pending.absorb(&body.transport, &mut body.outbox);
            body.flushes_on = Some(w);
        }
    }
    if stopped {
        finalize(task, body);
        return;
    }
    if let Some(at) = body
        .held
        .peek_at()
        .into_iter()
        .chain(body.timers.peek_at())
        .min()
    {
        inner.arm(task, at);
    }
    // More work queued behind the batch cap? Treat it as a wake. (Under
    // the cap the batch emptied the mailbox — anything arriving since has
    // flipped the scheduling word to RUNNING_NOTIFIED — so the depth
    // probe and its lock are only paid when the cap hit.)
    let more = drained == max_batch && body.rx.depth() > 0;
    // Body back before the word is released: a stealer may drive the task
    // the instant it reads QUEUED.
    *task.body.lock().expect("lock poisoned") = Some(body);
    if task.release_running() {
        inner.enqueue(w, Arc::clone(task), false);
    } else if more {
        inner.wake(task);
    }
}

/// Harvest a stopped task: record the mailbox high-water, publish
/// the member actors and metrics, mark the task done (late wakes no-op),
/// and drop the mailbox receiver so blocked senders unblock.
fn finalize(task: &Arc<TaskCore>, mut body: TaskBody) {
    body.metrics
        .histogram("plane.mailbox.depth")
        .record(body.rx.high_water() as u64);
    task.done.store(true, Ordering::Release);
    let members: PoolMembers = body.members.into_iter().map(|m| (m.id, m.actor)).collect();
    let result = (members, body.metrics);
    drop(body.rx);
    let mut slot = task.result.lock().expect("lock poisoned");
    *slot = Some(result);
    task.finished.notify_all();
}

/// Apply one member's turn effects: sends to the task outbox, timers to
/// the task's timer queue at `now` plus their delay on `clock` (addressed
/// from and to the arming member).
fn absorb_effects(body: &mut TaskBody, member: usize, clock: Clock, now: SimTime) {
    // check:allow(panic): every caller passes the index it just drove
    let id = body.members[member].id;
    for effect in body.effects.drain(..) {
        match effect {
            Effect::Send { dst, msg } => body.outbox.push(Envelope {
                from: id,
                to: dst,
                msg,
            }),
            Effect::Timer { delay, msg } => {
                let at = now + delay;
                let fire = Packet::Env(Envelope {
                    from: id,
                    to: id,
                    msg,
                });
                body.timers.push(at, (clock.instant(at), fire));
            }
        }
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use std::sync::mpsc;
    use std::sync::Mutex;
    use std::time::{Duration, Instant};

    use planet_mdcc::Msg;
    use planet_sim::{Actor, ActorId, Context, SimDuration, SiteId};

    use super::Reactor;
    use crate::node::{Clock, NodeHandle, Packet, PoolMembers};
    use crate::plane::{mailbox, PlaneConfig, TrySendError};
    use crate::transport::{Envelope, Transport};

    /// A transport that records when each envelope reached it.
    #[derive(Default)]
    struct RecordingTransport {
        sent: Mutex<Vec<(Instant, Envelope)>>,
    }

    impl RecordingTransport {
        fn sent_times(&self) -> Vec<Instant> {
            self.sent
                .lock()
                .expect("lock poisoned")
                .iter()
                .map(|(at, _)| *at)
                .collect()
        }
    }

    impl Transport for RecordingTransport {
        fn send(&self, env: Envelope) {
            self.sent
                .lock()
                .expect("lock poisoned")
                .push((Instant::now(), env));
        }

        fn send_many(&self, envs: &mut Vec<Envelope>) {
            let now = Instant::now();
            let mut sent = self.sent.lock().expect("lock poisoned");
            sent.extend(envs.drain(..).map(|env| (now, env)));
        }
    }

    /// Occupies its worker by sleeping through `on_start`.
    struct BusyActor(Duration);

    impl Actor<Msg> for BusyActor {
        fn on_start(&mut self, _ctx: &mut Context<'_, Msg>) {
            std::thread::sleep(self.0);
        }
        fn on_message(&mut self, _from: ActorId, _msg: Msg, _ctx: &mut Context<'_, Msg>) {}
    }

    /// Sends one envelope at startup, then goes quiet.
    struct OneShotSender;

    impl Actor<Msg> for OneShotSender {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            ctx.send(ActorId(999), Msg::ClientTimer { kind: 1, tag: 0 });
        }
        fn on_message(&mut self, _from: ActorId, _msg: Msg, _ctx: &mut Context<'_, Msg>) {}
    }

    /// Satellite regression: a task driven away from its busy home worker
    /// (the steal path) hands its outbox to the *stealing* worker's
    /// coalescing buffer, and that buffer must reach the transport no later
    /// than the flush horizon — not sit stranded until the idle backstop or
    /// the home worker's next drive.
    #[test]
    fn stolen_task_flush_is_not_stranded_past_horizon() {
        let horizon_us = 150_000u64;
        let plane = PlaneConfig {
            fabric_slack_us: horizon_us,
            max_batch: 1024, // count-based flush never triggers
            ..PlaneConfig::default()
        }
        .with_workers(2);
        let transport = std::sync::Arc::new(RecordingTransport::default());
        let reactor = Reactor::new(Clock::new(), plane, 7);

        let mut handles = Vec::new();
        let spawn = |actor: Box<dyn Actor<Msg>>, id: u32| {
            let (tx, rx) = mailbox(plane.mailbox_capacity);
            reactor.spawn(
                ActorId(id),
                SiteId(0),
                actor,
                tx,
                rx,
                transport.clone() as std::sync::Arc<dyn Transport>,
            )
        };
        let started = Instant::now();
        // Home assignment round-robins: the busy task pins worker 0 for
        // 100ms, so every sender homed there can only run by being stolen.
        handles.push(spawn(Box::new(BusyActor(Duration::from_millis(100))), 0));
        let senders = 8;
        for i in 0..senders {
            handles.push(spawn(Box::new(OneShotSender), 100 + i));
        }

        let deadline = Instant::now() + Duration::from_secs(5);
        while (transport.sent.lock().expect("lock poisoned").len() as u32) < senders
            && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(5));
        }

        let times = transport.sent_times();
        assert_eq!(times.len() as u32, senders, "every startup send must land");
        assert!(
            reactor.steals() >= 1,
            "senders homed behind the busy worker must have been stolen"
        );
        // Twice the horizon is the generous bound: a stranded flush would
        // wait out the 500ms idle backstop (or the busy task's 100ms sleep
        // plus a full horizon) instead.
        let bound = Duration::from_micros(2 * horizon_us);
        for at in times {
            let waited = at.duration_since(started);
            assert!(
                waited < bound,
                "flush stranded {waited:?} (bound {bound:?})"
            );
        }
        for handle in handles {
            handle.stop_and_join();
        }
        reactor.shutdown();
    }

    /// Re-arms a short timer on every fire, reporting each one (the
    /// rearm-under-wake test adds a firehose of external messages that
    /// concurrently wakes, and migrates, the task).
    struct RearmActor {
        every: SimDuration,
        fires: u64,
        target: u64,
        msgs: u64,
        progress: mpsc::Sender<u64>,
    }

    impl Actor<Msg> for RearmActor {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            ctx.schedule(self.every, Msg::ClientTimer { kind: 7, tag: 0 });
        }

        fn on_message(&mut self, _from: ActorId, msg: Msg, ctx: &mut Context<'_, Msg>) {
            match msg {
                Msg::ClientTimer { kind: 7, .. } => {
                    self.fires += 1;
                    let _ = self.progress.send(self.fires);
                    if self.fires < self.target {
                        ctx.schedule(self.every, Msg::ClientTimer { kind: 7, tag: 0 });
                    }
                }
                _ => self.msgs += 1,
            }
        }
    }

    /// Satellite regression: timer re-arm under concurrent wake. Every
    /// re-armed deadline must fire exactly once even while external
    /// messages race the fire into the task's mailbox and drives hop
    /// between workers — a lost re-arm (or a double fire) under the
    /// wake/steal interleaving shows up as a count mismatch.
    #[test]
    fn timer_rearm_survives_concurrent_wakes() {
        let plane = PlaneConfig::default().with_workers(2);
        let transport = std::sync::Arc::new(RecordingTransport::default());
        let reactor = Reactor::new(Clock::new(), plane, 11);
        let target = 40u64;
        let (progress_tx, progress_rx) = mpsc::channel();
        let (tx, rx) = mailbox(plane.mailbox_capacity);
        let handle = reactor.spawn(
            ActorId(1),
            SiteId(0),
            Box::new(RearmActor {
                every: SimDuration::from_micros(500),
                fires: 0,
                target,
                msgs: 0,
                progress: progress_tx,
            }),
            tx.clone(),
            rx,
            transport.clone() as std::sync::Arc<dyn Transport>,
        );

        // The firehose: concurrent envelopes that keep waking the task
        // while its timers are in flight.
        let noise = 400u64;
        let pump = std::thread::spawn(move || {
            for i in 0..noise {
                let _ = tx.send(crate::node::Packet::Env(Envelope {
                    from: ActorId(77),
                    to: ActorId(1),
                    msg: Msg::ClientTimer { kind: 99, tag: i },
                }));
                if i % 16 == 0 {
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
        });

        let mut last = 0;
        let deadline = Instant::now() + Duration::from_secs(10);
        while last < target && Instant::now() < deadline {
            match progress_rx.recv_timeout(Duration::from_millis(500)) {
                Ok(n) => last = n,
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }
        pump.join().expect("pump thread");
        assert_eq!(last, target, "every re-armed timer must fire exactly once");

        let (actor, _metrics) = handle.stop_and_join();
        reactor.shutdown();
        let any: &dyn std::any::Any = actor.as_ref();
        let rearm = any
            .downcast_ref::<RearmActor>()
            .expect("harvested actor downcasts");
        assert_eq!(rearm.fires, target);
        assert_eq!(rearm.msgs, noise, "no external message may be lost");
    }

    /// Satellite regression: a timer shorter than a wheel tick fires within
    /// that tick. The wheel used to step past the tick and strand the timer
    /// for a whole rotation, ~262 ms: four fires a second.
    #[test]
    fn sub_tick_timers_fire_on_time_through_the_reactor() {
        let plane = PlaneConfig::default().with_workers(1);
        let transport = std::sync::Arc::new(RecordingTransport::default());
        let reactor = Reactor::new(Clock::new(), plane, 3);
        let target = 300u64;
        let (progress_tx, progress_rx) = mpsc::channel();
        let (tx, rx) = mailbox(plane.mailbox_capacity);
        let handle = reactor.spawn(
            ActorId(1),
            SiteId(0),
            Box::new(RearmActor {
                every: SimDuration::from_micros(200),
                fires: 0,
                target,
                msgs: 0,
                progress: progress_tx,
            }),
            tx,
            rx,
            transport as std::sync::Arc<dyn Transport>,
        );
        let mut first = None;
        loop {
            let n = progress_rx
                .recv_timeout(Duration::from_secs(20))
                .expect("the next fire must come");
            let first = *first.get_or_insert_with(Instant::now);
            if n == target {
                let took = first.elapsed();
                let per_s = (target - 1) as f64 / took.as_secs_f64();
                assert!(per_s >= 1_000.0, "{per_s:.0} fires/s over {took:?}");
                break;
            }
        }
        handle.stop_and_join();
        reactor.shutdown();
    }

    /// What a [`Recorder`] saw: `(self, from, kind, tag)`.
    type Seen = (u32, u32, u32, u64);

    /// Reports every message it receives. Optionally arms one timer at
    /// start (`ClientTimer { kind: 7, tag }`); a `kind: 1` message holds
    /// its worker for 500 ms, so its mailbox fills meanwhile.
    struct Recorder {
        arm: Option<(SimDuration, u64)>,
        seen: mpsc::Sender<Seen>,
    }

    impl Actor<Msg> for Recorder {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            if let Some((delay, tag)) = self.arm {
                ctx.schedule(delay, Msg::ClientTimer { kind: 7, tag });
            }
        }

        fn on_message(&mut self, from: ActorId, msg: Msg, ctx: &mut Context<'_, Msg>) {
            let Msg::ClientTimer { kind, tag } = msg else {
                return;
            };
            let _ = self.seen.send((ctx.self_id().0, from.0, kind, tag));
            if kind == 1 {
                std::thread::sleep(Duration::from_millis(500));
            }
        }
    }

    fn env(kind: u32, tag: u64) -> Packet {
        Packet::Env(Envelope {
            from: ActorId(77),
            to: ActorId(1),
            msg: Msg::ClientTimer { kind, tag },
        })
    }

    fn next<T>(seen: &mpsc::Receiver<T>) -> T {
        seen.recv_timeout(Duration::from_secs(10))
            .expect("the next message must come")
    }

    /// A one-worker reactor whose one task, a [`Recorder`] (id 1) behind a
    /// mailbox of `capacity`, is holding the worker.
    fn held(
        capacity: usize,
        arm: Option<(SimDuration, u64)>,
    ) -> (std::sync::Arc<Reactor>, NodeHandle, mpsc::Receiver<Seen>) {
        let plane = PlaneConfig {
            mailbox_capacity: capacity,
            ..PlaneConfig::default()
        }
        .with_workers(1);
        let reactor = Reactor::new(Clock::new(), plane, 5);
        let (seen_tx, seen) = mpsc::channel();
        let (tx, rx) = mailbox(capacity);
        let recorder = Recorder { arm, seen: seen_tx };
        let transport = std::sync::Arc::new(RecordingTransport::default());
        let handle = reactor.spawn(ActorId(1), SiteId(0), Box::new(recorder), tx, rx, transport);
        assert!(handle.mailbox.send(env(1, 0)).is_ok());
        assert_eq!(next(&seen), (1, 77, 1, 0), "the hold begins");
        (reactor, handle, seen)
    }

    /// A timer that comes due while its task's mailbox is at capacity is
    /// still delivered, behind what was queued before it, and the worker
    /// that holds it does not block: it is the only worker, so a blocked
    /// push would strand the task forever.
    #[test]
    fn a_timer_due_on_a_full_mailbox_is_delivered_without_blocking() {
        let capacity = 4;
        // The timer comes due 20 ms into the hold.
        let (reactor, handle, seen) = held(capacity, Some((SimDuration::from_micros(20_000), 0)));
        for tag in 0..capacity as u64 {
            assert!(handle.mailbox.try_send(env(2, tag)).is_ok(), "{tag} fits");
        }
        let full = handle.mailbox.try_send(env(2, 99));
        assert!(matches!(full, Err(TrySendError::Full(_))));
        let got: Vec<Seen> = (0..=capacity).map(|_| next(&seen)).collect();
        let mut want: Vec<Seen> = (0..capacity as u64).map(|tag| (1, 77, 2, tag)).collect();
        want.push((1, 1, 7, 0));
        assert_eq!(got, want, "the queued packets, then the fire from itself");
        handle.stop_and_join();
        reactor.shutdown();
    }

    /// Two members of one pool arm distinct timers: each fire comes back
    /// through the shared mailbox to the member that armed it, from itself.
    #[test]
    fn each_pool_member_gets_the_timer_it_armed() {
        let plane = PlaneConfig::default().with_workers(2);
        let reactor = Reactor::new(Clock::new(), plane, 9);
        let (seen_tx, seen) = mpsc::channel();
        let (tx, rx) = mailbox(plane.mailbox_capacity);
        let members: PoolMembers = [(10, 2_000), (11, 6_000)]
            .into_iter()
            .map(|(id, delay_us)| {
                let arm = Some((SimDuration::from_micros(delay_us), u64::from(id)));
                let seen = seen_tx.clone();
                (
                    ActorId(id),
                    Box::new(Recorder { arm, seen }) as Box<dyn Actor<Msg>>,
                )
            })
            .collect();
        let transport = std::sync::Arc::new(RecordingTransport::default());
        let pool = reactor.spawn_pool(members, SiteId(0), tx, rx, transport);
        let mut got = [next(&seen), next(&seen)];
        got.sort();
        assert_eq!(got, [(10, 10, 7, 10), (11, 11, 7, 11)]);
        let (_, metrics) = pool.stop_and_join();
        assert_eq!(metrics.counter_value("plane.pool.misrouted"), 0);
        reactor.shutdown();
    }

    /// A `Call`'s follow-ups run before any packet already queued behind
    /// it: they are self-sent to the front of the drive's batch.
    #[test]
    fn call_follow_ups_run_before_queued_packets() {
        let (reactor, handle, seen) = held(64, None);
        // While the only worker is held, a call and then a packet queue up,
        // so one drive takes both.
        handle.call(|_| {
            (1..=2)
                .map(|tag| Msg::ClientTimer { kind: 3, tag })
                .collect()
        });
        assert!(handle.mailbox.send(env(2, 0)).is_ok());
        let got = [next(&seen), next(&seen), next(&seen)];
        assert_eq!(got, [(1, 1, 3, 1), (1, 1, 3, 2), (1, 77, 2, 0)]);
        handle.stop_and_join();
        reactor.shutdown();
    }

    /// Reports `(now, tag)` for every message: a test that stamps each
    /// packet's instant into its tag sees how early or late it was driven.
    struct DueProbe(mpsc::Sender<(u64, u64)>);

    impl Actor<Msg> for DueProbe {
        fn on_message(&mut self, _from: ActorId, msg: Msg, ctx: &mut Context<'_, Msg>) {
            if let Msg::ClientTimer { tag, .. } = msg {
                let _ = self.0.send((ctx.now().as_micros(), tag));
            }
        }
    }

    /// Packets stamped for up to 5 ms out, pushed by two threads in no due
    /// order, are each driven no earlier than their instant less the slack,
    /// whether held by an earlier drive or taken on a timed wake.
    #[test]
    fn no_packet_is_driven_earlier_than_its_instant_less_the_slack() {
        let plane = PlaneConfig::default().with_workers(2);
        let clock = Clock::new();
        let reactor = Reactor::new(clock, plane, 17);
        let (seen_tx, seen) = mpsc::channel();
        let (tx, rx) = mailbox(plane.mailbox_capacity);
        let transport = std::sync::Arc::new(RecordingTransport::default());
        let handle = reactor.spawn(
            ActorId(1),
            SiteId(0),
            Box::new(DueProbe(seen_tx)),
            tx.clone(),
            rx,
            transport,
        );
        const EACH: u64 = 1_000;
        let pushers: Vec<_> = (0..2u64)
            .map(|p| {
                let tx = tx.clone();
                std::thread::spawn(move || {
                    let mut rng = planet_sim::DetRng::new(p);
                    for i in 0..EACH {
                        let due = clock.now() + SimDuration::from_micros(rng.index(5_000) as u64);
                        let env = Envelope {
                            from: ActorId(70 + p as u32),
                            to: ActorId(1),
                            msg: Msg::ClientTimer {
                                kind: 0,
                                tag: due.as_micros(),
                            },
                        };
                        let pushed =
                            tx.open_run()
                                .push(clock.instant(due), Packet::Env(env), false);
                        assert!(pushed.is_ok());
                        if i % 8 == 0 {
                            std::thread::sleep(Duration::from_micros(100));
                        }
                    }
                })
            })
            .collect();
        for pusher in pushers {
            pusher.join().expect("pusher");
        }
        let slack = plane.fabric_slack_us;
        for _ in 0..2 * EACH {
            let (now, due) = seen
                .recv_timeout(Duration::from_secs(10))
                .expect("every packet is driven");
            assert!(now + slack >= due, "driven {} µs early", due - now);
            assert!(now <= due + 200_000, "driven {} µs late", now - due);
        }
        handle.stop_and_join();
        reactor.shutdown();
    }

    /// Logs `(id, when)` as each message begins, then holds its worker for
    /// `hold`.
    struct Logged {
        id: u32,
        hold: Duration,
        log: std::sync::Arc<Mutex<Vec<(u32, Instant)>>>,
    }

    impl Actor<Msg> for Logged {
        fn on_message(&mut self, _from: ActorId, _msg: Msg, _ctx: &mut Context<'_, Msg>) {
            let entry = (self.id, Instant::now());
            self.log.lock().expect("lock poisoned").push(entry);
            std::thread::sleep(self.hold);
        }
    }

    /// A task woken by a fired timed wake goes to the front of its home
    /// queue: on one worker kept busy by four tasks with a backlog each
    /// (one packet per drive, so they queue behind each other), a packet
    /// stamped 2 ms out is driven before the busy tasks queued ahead of it
    /// when it fell due — at most the one drive that began before the
    /// worker's next loop top may come between.
    #[test]
    fn a_fired_timed_wake_is_driven_before_the_tasks_queued_ahead_of_it() {
        let plane = PlaneConfig {
            max_batch: 1,
            ..PlaneConfig::default()
        }
        .with_workers(1);
        let reactor = Reactor::new(Clock::new(), plane, 21);
        let log = std::sync::Arc::new(Mutex::new(Vec::new()));
        let transport = std::sync::Arc::new(RecordingTransport::default());
        let spawn = |id: u32, hold: Duration, backlog: u64| {
            let (tx, rx) = mailbox(plane.mailbox_capacity);
            for tag in 0..backlog {
                assert!(tx.send(env(0, tag)).is_ok());
            }
            let actor = Logged {
                id,
                hold,
                log: log.clone(),
            };
            let shared = transport.clone() as std::sync::Arc<dyn Transport>;
            reactor.spawn(ActorId(id), SiteId(0), Box::new(actor), tx, rx, shared)
        };
        let stamped = spawn(1, Duration::ZERO, 0);
        let busy: Vec<_> = (10..14)
            .map(|id| spawn(id, Duration::from_millis(1), 40))
            .collect();
        let due = Instant::now() + Duration::from_millis(2);
        let pushed = stamped.mailbox.open_run().push(due, env(0, 99), false);
        assert!(pushed.is_ok());
        let deadline = Instant::now() + Duration::from_secs(10);
        let at = loop {
            let found = log
                .lock()
                .expect("lock poisoned")
                .iter()
                .position(|&(id, _)| id == 1);
            if let Some(at) = found {
                break at;
            }
            assert!(Instant::now() < deadline, "the stamped packet is driven");
            std::thread::sleep(Duration::from_millis(1));
        };
        stamped.stop_and_join();
        for handle in busy {
            handle.stop_and_join();
        }
        reactor.shutdown();
        let log = log.lock().expect("lock poisoned");
        let ahead = log[..at].iter().filter(|&&(_, when)| when >= due).count();
        assert!(
            ahead <= 1,
            "{ahead} busy drives began after the packet fell due and before it"
        );
    }

    /// Sleeps `hold` on every message: occupies whichever worker drives it.
    struct Busy(Duration);

    impl Actor<Msg> for Busy {
        fn on_message(&mut self, _from: ActorId, _msg: Msg, _ctx: &mut Context<'_, Msg>) {
            std::thread::sleep(self.0);
        }
    }

    /// Sends one numbered message to actor 99 per `kind: 0` message it
    /// receives, and nothing for any other.
    struct Numbering(u64);

    impl Actor<Msg> for Numbering {
        fn on_message(&mut self, _from: ActorId, msg: Msg, ctx: &mut Context<'_, Msg>) {
            if let Msg::ClientTimer { kind: 0, .. } = msg {
                let tag = self.0;
                ctx.send(ActorId(99), Msg::ClientTimer { kind: 5, tag });
                self.0 += 1;
            }
        }
    }

    /// A task's sends reach the transport in the order it made them, even
    /// when its drives hop between workers: the sender's home worker keeps
    /// a batch pending (the slack is long) while it sits in an 8 ms drive,
    /// and the other worker, stealing the sender meanwhile, must not flush
    /// the sender's later messages first — not even when a drive that sent
    /// nothing came in between.
    #[test]
    fn a_task_s_sends_keep_their_order_across_workers() {
        let plane = PlaneConfig {
            fabric_slack_us: 20_000,
            ..PlaneConfig::default()
        }
        .with_workers(2);
        let transport = std::sync::Arc::new(RecordingTransport::default());
        let reactor = Reactor::new(Clock::new(), plane, 13);
        let spawn = |id: u32, actor: Box<dyn Actor<Msg>>| {
            let (tx, rx) = mailbox(plane.mailbox_capacity);
            let shared = transport.clone() as std::sync::Arc<dyn Transport>;
            reactor.spawn(ActorId(id), SiteId(0), actor, tx, rx, shared)
        };
        // Homes alternate between the two workers: 1 and 3 share one.
        let sender = spawn(1, Box::new(Numbering(0)));
        let other = spawn(2, Box::new(Busy(Duration::ZERO)));
        let busy = spawn(3, Box::new(Busy(Duration::from_millis(8))));
        let poke = |handle: &NodeHandle, kind: u32| {
            let _ = handle.mailbox.send(Packet::Env(Envelope {
                from: ActorId(77),
                to: handle.id,
                msg: Msg::ClientTimer { kind, tag: 0 },
            }));
        };
        let until = Instant::now() + Duration::from_secs(2);
        let mut injected = 0u64;
        while Instant::now() < until {
            poke(&sender, 0);
            if injected.is_multiple_of(30) {
                poke(&busy, 0);
            }
            injected += 1;
            std::thread::sleep(Duration::from_micros(150));
            // A message the sender answers with nothing.
            poke(&sender, 9);
            std::thread::sleep(Duration::from_micros(150));
        }
        let (numbering, _) = sender.stop_and_join();
        for handle in [other, busy] {
            handle.stop_and_join();
        }
        reactor.shutdown();
        let any: &dyn std::any::Any = numbering.as_ref();
        let sent = any.downcast_ref::<Numbering>().map_or(0, |n| n.0);
        assert_eq!(sent, injected, "one send per numbered message received");
        let tags: Vec<u64> = transport
            .sent
            .lock()
            .expect("lock poisoned")
            .iter()
            .filter_map(|(_, env)| match env.msg {
                Msg::ClientTimer { kind: 5, tag } => Some(tag),
                _ => None,
            })
            .collect();
        assert_eq!(tags.len() as u64, sent, "every send reached the transport");
        let out_of_order = tags.windows(2).filter(|w| w[1] < w[0]).count();
        assert!(
            reactor.steals() > 0,
            "the sender must have run on both workers"
        );
        assert_eq!(
            out_of_order,
            0,
            "{out_of_order} of {} sends reached the transport out of order",
            tags.len()
        );
    }

    /// What a [`TimerProbe`] reports: its worker thread, the kind of the
    /// message (`None` for the arming) and an instant, µs: the timer's
    /// instant when armed, `ctx.now()` when driven.
    type Probed = (String, Option<u32>, u64);

    fn worker() -> String {
        std::thread::current()
            .name()
            .unwrap_or_default()
            .to_string()
    }

    /// Arms one `ClientTimer { kind: 7 }` at `delay` in `on_start`, and
    /// reports that and every message it receives.
    struct TimerProbe {
        delay: SimDuration,
        seen: mpsc::Sender<Probed>,
    }

    impl Actor<Msg> for TimerProbe {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            ctx.schedule(self.delay, Msg::ClientTimer { kind: 7, tag: 0 });
            let _ = self
                .seen
                .send((worker(), None, (ctx.now() + self.delay).as_micros()));
        }

        fn on_message(&mut self, _from: ActorId, msg: Msg, ctx: &mut Context<'_, Msg>) {
            if let Msg::ClientTimer { kind, .. } = msg {
                let _ = self
                    .seen
                    .send((worker(), Some(kind), ctx.now().as_micros()));
            }
        }
    }

    /// Reports its worker thread, then holds it through `on_start`.
    struct ReportedHold(Duration, mpsc::Sender<String>);

    impl Actor<Msg> for ReportedHold {
        fn on_start(&mut self, _ctx: &mut Context<'_, Msg>) {
            let _ = self.1.send(worker());
            std::thread::sleep(self.0);
        }
        fn on_message(&mut self, _from: ActorId, _msg: Msg, _ctx: &mut Context<'_, Msg>) {}
    }

    /// Any worker fires a timer, not only the one that armed it. On two
    /// workers with round-robin homes, worker 0 arms a 250 ms timer after a
    /// 40 ms start and just before it takes a 500 ms drive, while worker 1
    /// is free after 200 ms: a timer kept on the queue of the worker that
    /// armed it fired some 250 ms late. The 160 ms between worker 0
    /// taking the long drive and worker 1 coming free keep a preempted
    /// worker from swapping their roles.
    #[test]
    fn a_timer_fires_on_time_while_the_worker_that_armed_it_is_busy() {
        let plane = PlaneConfig::default().with_workers(2);
        let reactor = Reactor::new(Clock::new(), plane, 23);
        let transport = std::sync::Arc::new(RecordingTransport::default());
        let spawn = |id: u32, actor: Box<dyn Actor<Msg>>| {
            let (tx, rx) = mailbox(plane.mailbox_capacity);
            let shared = transport.clone() as std::sync::Arc<dyn Transport>;
            reactor.spawn(ActorId(id), SiteId(0), actor, tx, rx, shared)
        };
        // Both workers park first, so that each takes its own queue's head.
        std::thread::sleep(Duration::from_millis(20));
        let (seen_tx, seen) = mpsc::channel();
        let (hold_tx, hold) = mpsc::channel();
        let probe = TimerProbe {
            delay: SimDuration::from_micros(250_000),
            seen: seen_tx,
        };
        let handles = [
            spawn(1, Box::new(BusyActor(Duration::from_millis(40)))),
            spawn(2, Box::new(BusyActor(Duration::from_millis(200)))),
            spawn(3, Box::new(probe)),
            spawn(4, Box::new(Busy(Duration::ZERO))),
            spawn(
                5,
                Box::new(ReportedHold(Duration::from_millis(500), hold_tx)),
            ),
        ];
        let (armed_on, _, due) = next(&seen);
        let (_, kind, fired) = next(&seen);
        assert_eq!(kind, Some(7), "the fire is the probe's first message");
        assert_eq!(
            next(&hold),
            armed_on,
            "the worker that armed the timer takes the long drive"
        );
        let late = fired.saturating_sub(due);
        assert!(late < 100_000, "the timer fired {late} µs late");
        for handle in handles {
            handle.stop_and_join();
        }
        reactor.shutdown();
    }

    /// A timer gates no packet: with a timer armed ahead of a held packet
    /// P, a later packet Q from P's sender is still driven after P. Slack
    /// 20 ms and a 20 ms timer: P, stamped 30 ms out, is held by the drive
    /// that a packet due now triggers; Q, stamped just after P, arrives
    /// once P is within the slack but before the timer is due, and its
    /// drive must take P first.
    #[test]
    fn a_held_timer_does_not_reorder_the_packets_of_a_pair() {
        let plane = PlaneConfig {
            fabric_slack_us: 20_000,
            ..PlaneConfig::default()
        }
        .with_workers(2);
        let clock = Clock::new();
        let reactor = Reactor::new(clock, plane, 31);
        let (seen_tx, seen) = mpsc::channel();
        let (tx, rx) = mailbox(plane.mailbox_capacity);
        let probe = TimerProbe {
            delay: SimDuration::from_micros(20_000),
            seen: seen_tx,
        };
        let transport = std::sync::Arc::new(RecordingTransport::default());
        let handle = reactor.spawn(ActorId(1), SiteId(0), Box::new(probe), tx, rx, transport);
        let _armed = next(&seen);
        let stamped = |kind: u32, due: planet_sim::SimTime| {
            let env = Envelope {
                from: ActorId(70),
                to: ActorId(1),
                msg: Msg::ClientTimer { kind, tag: 0 },
            };
            let pushed =
                handle
                    .mailbox
                    .open_run()
                    .push(clock.instant(due), Packet::Env(env), false);
            assert!(pushed.is_ok());
        };
        let p_due = clock.now() + SimDuration::from_micros(30_000);
        stamped(1, p_due);
        assert!(handle.mailbox.send(env(3, 0)).is_ok());
        while clock.now() + SimDuration::from_micros(16_000) < p_due {
            std::thread::sleep(Duration::from_micros(200));
        }
        stamped(2, p_due + SimDuration::from_micros(1));
        let mut order = Vec::new();
        while order.len() < 4 {
            if let (_, Some(kind), _) = next(&seen) {
                order.push(kind);
            }
        }
        let at = |kind: u32| order.iter().position(|&k| k == kind);
        assert!(at(1) < at(2), "P must be driven before Q: {order:?}");
        handle.stop_and_join();
        reactor.shutdown();
    }

    /// A timer carries no slack: traffic that keeps driving its task does
    /// not drive it before its instant, however early `fabric_slack_us`
    /// lets a packet go. An early fire would end a coordinator's timeout
    /// chain, which re-arms only for a deadline that is due.
    #[test]
    fn a_timer_is_not_driven_early_by_traffic_within_the_slack() {
        let plane = PlaneConfig {
            fabric_slack_us: 20_000,
            ..PlaneConfig::default()
        }
        .with_workers(2);
        let reactor = Reactor::new(Clock::new(), plane, 29);
        let (seen_tx, seen) = mpsc::channel();
        let (tx, rx) = mailbox(plane.mailbox_capacity);
        let probe = TimerProbe {
            delay: SimDuration::from_micros(10_000),
            seen: seen_tx,
        };
        let transport = std::sync::Arc::new(RecordingTransport::default());
        let handle = reactor.spawn(ActorId(1), SiteId(0), Box::new(probe), tx, rx, transport);
        let (_, _, due) = next(&seen);
        for tag in 0..30 {
            assert!(handle.mailbox.send(env(0, tag)).is_ok());
            std::thread::sleep(Duration::from_micros(500));
        }
        let fired = loop {
            if let (_, Some(7), now) = next(&seen) {
                break now;
            }
        };
        assert!(
            fired >= due,
            "the timer due at {due} µs was driven at {fired} µs"
        );
        handle.stop_and_join();
        reactor.shutdown();
    }
}

/// Exhaustive weak-memory verification of the reactor's lock-free
/// protocols, run under `RUSTFLAGS="--cfg loom"` (the `crate::sync`
/// facade swaps every primitive above for `planet-loom`'s modeled
/// types). Each model drives the *real* `Parker` / `TaskCore` code —
/// `park_unless`, `try_wake`, `claim_running`, `release_running`,
/// `wait_finished` — under every bounded-preemption interleaving and
/// every C11-visible load value. Broken "twin" variants re-create the protocol with the load-bearing piece
/// removed (a sub-SeqCst Dekker word, a lock-free mailbox with no
/// happens-before bridge) and assert the harness *finds* the lost
/// wakeup, so the clean runs are evidence rather than vacuity.
///
/// A timer has no model of its own: a drive that leaves a timer armed arms
/// a timed wake for it as it does for a held packet, the path that
/// `loom_a_packet_stamped_for_later_wakes_its_task_by_its_instant` and its
/// seeded twin `loom_a_timed_wake_that_does_not_lower_the_earliest_is_found`
/// explore.
#[cfg(all(test, loom))]
pub(crate) mod loom_tests {
    use std::collections::VecDeque;
    use std::io::Write as _;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;
    use std::time::Duration;

    use planet_sim::{Metrics, SimTime};

    use super::{Parker, ReactorInner, TaskCore, WakeVerdict, IDLE, NO_WAKE};
    use crate::node::{Clock, Packet, PoolMembers};
    use crate::plane::{mailbox, PlaneConfig};
    use crate::sync::{AtomicBool, AtomicU64, AtomicU8, Condvar, Mutex, Ordering};

    /// Park backstop passed to `park_unless`; modeled condvars never time
    /// out, so a wait that is only saved by this backstop is reported as
    /// a deadlock — exactly the lost-wakeup semantics we want.
    const TICK: Duration = Duration::from_millis(1);

    fn fresh_core() -> Arc<TaskCore> {
        Arc::new(TaskCore {
            home: 0,
            sched: AtomicU8::new(IDLE),
            done: AtomicBool::new(false),
            wake_at: AtomicU64::new(NO_WAKE),
            body: Mutex::new(None),
            result: Mutex::new(None),
            finished: Condvar::new(),
        })
    }

    /// Run a model expected to FAIL and return the failure message.
    pub(crate) fn fails(f: impl Fn() + Send + Sync + 'static) -> String {
        let Err(err) = catch_unwind(AssertUnwindSafe(|| loom::model(f))) else {
            panic!("model must fail");
        };
        err.downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_default()
    }

    /// Record the exploration report where CI archives it: `loom/*.json`
    /// under `$CARGO_TARGET_DIR` when it is set (a relative one resolves
    /// against the workspace root, where cargo runs), else under the
    /// checkout's `target/`. Best-effort: the assertions, not the
    /// artifact, are the test.
    pub(crate) fn record(name: &str, report: &loom::Report) {
        let root = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
        let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
        let dir = root.join(target).join("loom");
        if std::fs::create_dir_all(&dir).is_err() {
            return;
        }
        let Ok(mut f) = std::fs::File::create(dir.join(format!("{name}.json"))) else {
            return;
        };
        let _ = writeln!(
            f,
            "{{\"model\":\"{name}\",\"iterations\":{},\"max_depth\":{},\"preemption_bound\":{}}}",
            report.iterations,
            report.max_depth,
            report.preemption_bound.map_or(-1, |b| b as i64),
        );
    }

    /// A one-worker reactor core, with no threads.
    fn one_worker() -> Arc<ReactorInner> {
        let plane = PlaneConfig::default().with_workers(1);
        Arc::new(ReactorInner::new(Clock::new(), plane, 0))
    }

    /// [`one_worker`] and a task homed on it whose mailbox wakes it through
    /// the reactor's real waker, `wake_for`.
    fn timed_wake_rig() -> (
        Arc<ReactorInner>,
        Arc<TaskCore>,
        crate::plane::MailboxSender,
    ) {
        let inner = one_worker();
        let core = fresh_core();
        let (tx, rx) = mailbox(4);
        let (waking, task) = (Arc::clone(&inner), Arc::downgrade(&core));
        rx.set_waker(Arc::new(move |due| {
            if let Some(task) = task.upgrade() {
                waking.wake_for(&task, due);
            }
        }));
        // The receiver stays open for the model's length.
        std::mem::forget(rx);
        (inner, core, tx)
    }

    /// The worker's side of a timed wake, as `run_worker` runs it but
    /// with the clock stopped at `now`: fire what is due, take a runnable
    /// task, else park against the earliest deadline. Modeled waits never
    /// time out, so a worker whose park missed the new earliest wake
    /// deadlocks instead of waking late.
    fn work_until_woken(inner: &ReactorInner, core: &Arc<TaskCore>, now: SimTime) {
        loop {
            inner.fire_timed(now);
            if let Some((task, _)) = inner.next_task(0) {
                assert!(Arc::ptr_eq(&task, core), "the stamped task is woken");
                assert!(task.claim_running(), "queued task must be claimable");
                return;
            }
            inner.park(0, || now);
        }
    }

    /// A packet stamped for later, pushed by a thread that is not a worker
    /// while the one worker may already be parked, wakes its task once its
    /// instant comes: the stamped push arms a timed wake, and the park
    /// either sees the new earliest wake or is notified of it.
    #[test]
    fn loom_a_packet_stamped_for_later_wakes_its_task_by_its_instant() {
        let report = loom::model(|| {
            let (inner, core, tx) = timed_wake_rig();
            let due = std::time::Instant::now() + Duration::from_secs(3_600);
            let stamper = loom::thread::spawn(move || {
                assert!(tx.open_run().push(due, Packet::Stop, false).is_ok());
            });
            work_until_woken(&inner, &core, inner.clock.sim_time(due));
            stamper.join().expect("stamper");
        });
        record("timed_wake", &report);
        assert!(report.iterations >= 2, "explorer must branch");
    }

    /// The broken twin: the timed wake is queued, but the push does not
    /// lower the earliest due time the workers read and park against. A
    /// parked worker sleeps past it, and the harness must find that. (No
    /// mailbox here: a sender dropped while the failed run unwinds would
    /// take a modeled lock.)
    #[test]
    fn loom_a_timed_wake_that_does_not_lower_the_earliest_is_found() {
        let msg = fails(|| {
            let (inner, core) = (one_worker(), fresh_core());
            let due = inner.clock.now() + planet_sim::SimDuration::from_secs(3_600);
            let (arming, task) = (Arc::clone(&inner), Arc::clone(&core));
            let stamper = loom::thread::spawn(move || {
                let _ = task.wake_at.fetch_min(due.as_micros(), Ordering::AcqRel);
                arming.timed.lock().expect("lock poisoned").push(due, task);
            });
            work_until_woken(&inner, &core, due);
            stamper.join().expect("stamper");
        });
        assert!(msg.contains("deadlock"), "{msg}");
    }

    /// A frame or an enqueue that lands while the only worker parks in its
    /// poller is never lost. One thread plays the kernel's side of a
    /// readable socket: the bytes land, and the poller the worker parks in
    /// reads ready (a rouse of its waiter, which is what the nested
    /// transport poller amounts to). Another pushes into a task's mailbox,
    /// whose real waker runs `wake_for`, `enqueue` and its parked-gated
    /// rouse. The worker runs its loop as `run_worker` does: take what the
    /// socket holds, take a runnable task, else park in the poller.
    #[test]
    fn loom_a_frame_or_an_enqueue_reaches_a_worker_parked_in_its_poller() {
        let report = loom::model(|| {
            let (inner, core, tx) = timed_wake_rig();
            let socket = Arc::new(Mutex::new(0u32));
            let reader = {
                let (inner, socket) = (Arc::clone(&inner), Arc::clone(&socket));
                loom::thread::spawn(move || {
                    *socket.lock().expect("lock poisoned") += 1;
                    inner.workers[0].parker.waiter.rouse();
                })
            };
            let sender = loom::thread::spawn(move || {
                let now = std::time::Instant::now();
                assert!(tx.open_run().push(now, Packet::Stop, false).is_ok());
            });
            let (mut frame, mut task) = (false, false);
            loop {
                frame |= std::mem::take(&mut *socket.lock().expect("lock poisoned")) > 0;
                if let Some((woken, _)) = inner.next_task(0) {
                    assert!(Arc::ptr_eq(&woken, &core), "the pushed-to task is woken");
                    assert!(woken.claim_running(), "queued task must be claimable");
                    task = true;
                }
                if frame && task {
                    break;
                }
                inner.park(0, || SimTime::ZERO);
            }
            reader.join().expect("reader");
            sender.join().expect("sender");
        });
        record("poller_park", &report);
        assert!(report.iterations >= 2, "explorer must branch");
    }

    /// The broken twin: an enqueue whose rouse skips the eventfd — the
    /// push and the `parked` check, and nothing after. A worker already in
    /// its poller sleeps on past the task, and the harness must find it.
    #[test]
    fn loom_a_rouse_that_skips_the_eventfd_is_found() {
        let msg = fails(|| {
            let (inner, core) = (one_worker(), fresh_core());
            let (enqueuing, task) = (Arc::clone(&inner), Arc::clone(&core));
            let sender = loom::thread::spawn(move || {
                assert_eq!(task.try_wake(), WakeVerdict::Enqueue);
                let worker = &enqueuing.workers[0];
                worker.queue.lock().expect("lock poisoned").push_back(task);
                let _ = worker.parker.parked.load(Ordering::SeqCst);
            });
            while inner.next_task(0).is_none() {
                inner.park(0, || SimTime::ZERO);
            }
            sender.join().expect("sender");
        });
        assert!(msg.contains("deadlock"), "{msg}");
    }

    /// The worker/enqueuer rendezvous, exactly as the reactor runs it:
    /// the enqueuer pushes under the queue lock then does the
    /// parked-flag-gated rouse (`ReactorInner::enqueue`); the worker
    /// loops `park_unless` with the every-queue recheck (`run_worker`).
    /// A lost handoff leaves the worker committed to a wait no one will
    /// notify — the explorer reports that as a deadlock.
    #[test]
    fn parker_enqueue_handoff_is_never_lost() {
        let report = loom::model(|| {
            let queue = Arc::new(Mutex::new(VecDeque::new()));
            let parker = Arc::new(Parker::new());
            let (q2, p2) = (Arc::clone(&queue), Arc::clone(&parker));
            let enqueuer = loom::thread::spawn(move || {
                q2.lock().expect("lock poisoned").push_back(1u32);
                if p2.parked.load(Ordering::SeqCst) {
                    p2.rouse();
                }
            });
            loop {
                if queue.lock().expect("lock poisoned").pop_front().is_some() {
                    break;
                }
                parker.park_unless(|| {
                    queue
                        .lock()
                        .expect("lock poisoned")
                        .is_empty()
                        .then_some(TICK)
                });
            }
            enqueuer.join().expect("enqueuer");
        });
        record("parker_enqueue_handoff", &report);
        assert!(report.iterations >= 2, "explorer must branch");
    }

    /// The same store→load protocol with the queue replaced by a bare
    /// atomic counter and sub-SeqCst orderings: the work publish and the
    /// parked-flag read may now pass each other, and the harness must
    /// find the resulting lost wakeup. This is the exact downgrade
    /// ATOM002 exists to reject statically.
    #[test]
    fn dekker_handoff_below_seqcst_is_found() {
        let msg = fails(|| {
            let work = Arc::new(AtomicU64::new(0));
            let parker = Arc::new(Parker::new());
            let (w2, p2) = (Arc::clone(&work), Arc::clone(&parker));
            let producer = loom::thread::spawn(move || {
                w2.fetch_add(1, Ordering::Release);
                if p2.parked.load(Ordering::SeqCst) {
                    p2.rouse();
                }
            });
            loop {
                if work.load(Ordering::Acquire) > 0 {
                    break;
                }
                parker.park_unless(|| (work.load(Ordering::Acquire) == 0).then_some(TICK));
            }
            producer.join().expect("producer");
        });
        assert!(msg.contains("deadlock"), "{msg}");
    }

    /// The sound twin: both sides of the Dekker pair at `SeqCst`. The
    /// single total order forbids the double-stale read, so exploration
    /// completes clean without any lock bridging the two words.
    #[test]
    fn dekker_handoff_at_seqcst_is_sound() {
        let report = loom::model(|| {
            let work = Arc::new(AtomicU64::new(0));
            let parker = Arc::new(Parker::new());
            let (w2, p2) = (Arc::clone(&work), Arc::clone(&parker));
            let producer = loom::thread::spawn(move || {
                w2.fetch_add(1, Ordering::SeqCst);
                if p2.parked.load(Ordering::SeqCst) {
                    p2.rouse();
                }
            });
            loop {
                if work.load(Ordering::SeqCst) > 0 {
                    break;
                }
                parker.park_unless(|| (work.load(Ordering::SeqCst) == 0).then_some(TICK));
            }
            producer.join().expect("producer");
        });
        record("dekker_seqcst", &report);
        assert!(report.iterations >= 2, "explorer must branch");
    }

    /// The full scheduling-word protocol under two concurrent wakers:
    /// each producer deposits a message in a mutex-backed mailbox (the
    /// happens-before bridge a real `MailboxSender` provides) and then
    /// runs `try_wake`; the worker claims, drains until empty, and
    /// releases, re-queueing on a mid-drive note — `drive_task`'s exact
    /// shape. The protocol's correctness argument is subtle: a waker
    /// that pushes after the drain's last empty look *must* observe
    /// RUNNING (the mailbox lock forces it) and so leaves the
    /// RUNNING_NOTIFIED note. If any interleaving or stale read loses a
    /// wake, the worker parks forever and the explorer reports the
    /// deadlock.
    #[test]
    fn sched_word_never_loses_a_wake() {
        let report = loom::model(|| {
            let core = fresh_core();
            let mailbox = Arc::new(Mutex::new(0u32));
            let queue = Arc::new(Mutex::new(VecDeque::new()));
            let parker = Arc::new(Parker::new());
            let mut producers = Vec::new();
            for _ in 0..2 {
                let core = Arc::clone(&core);
                let mailbox = Arc::clone(&mailbox);
                let queue = Arc::clone(&queue);
                let parker = Arc::clone(&parker);
                producers.push(loom::thread::spawn(move || {
                    *mailbox.lock().expect("lock poisoned") += 1;
                    if core.try_wake() == WakeVerdict::Enqueue {
                        queue
                            .lock()
                            .expect("lock poisoned")
                            .push_back(Arc::clone(&core));
                        if parker.parked.load(Ordering::SeqCst) {
                            parker.rouse();
                        }
                    }
                }));
            }
            let mut seen = 0u32;
            while seen < 2 {
                let task = queue.lock().expect("lock poisoned").pop_front();
                match task {
                    Some(task) => {
                        assert!(task.claim_running(), "queued task must be claimable");
                        // Drain until the mailbox reads empty — the last
                        // empty look is what the release races against.
                        loop {
                            let got = {
                                let mut slot = mailbox.lock().expect("lock poisoned");
                                std::mem::take(&mut *slot)
                            };
                            if got == 0 {
                                break;
                            }
                            seen += got;
                        }
                        if task.release_running() {
                            queue.lock().expect("lock poisoned").push_back(task);
                        }
                    }
                    None => parker.park_unless(|| {
                        queue
                            .lock()
                            .expect("lock poisoned")
                            .is_empty()
                            .then_some(TICK)
                    }),
                }
            }
            for p in producers {
                p.join().expect("producer");
            }
        });
        record("sched_word", &report);
        assert!(report.iterations >= 2, "explorer must branch");
    }

    /// The broken twin: the mailbox's mutex replaced by a relaxed
    /// counter, severing the happens-before bridge. A waker can now read
    /// a stale QUEUED after the drain's last empty look, coalesce into a
    /// queue entry that has already been consumed, and strand its
    /// message — the lost wake the comment in `drive_task` argues cannot
    /// happen *with* the bridge. The harness must find it.
    #[test]
    fn sched_word_without_mailbox_bridge_is_found() {
        let msg = fails(|| {
            let core = fresh_core();
            let mailbox = Arc::new(AtomicU64::new(0));
            let queue = Arc::new(Mutex::new(VecDeque::new()));
            let parker = Arc::new(Parker::new());
            let mut producers = Vec::new();
            for _ in 0..2 {
                let core = Arc::clone(&core);
                let mailbox = Arc::clone(&mailbox);
                let queue = Arc::clone(&queue);
                let parker = Arc::clone(&parker);
                producers.push(loom::thread::spawn(move || {
                    mailbox.fetch_add(1, Ordering::Relaxed);
                    if core.try_wake() == WakeVerdict::Enqueue {
                        queue
                            .lock()
                            .expect("lock poisoned")
                            .push_back(Arc::clone(&core));
                        if parker.parked.load(Ordering::SeqCst) {
                            parker.rouse();
                        }
                    }
                }));
            }
            let mut seen = 0u64;
            while seen < 2 {
                let task = queue.lock().expect("lock poisoned").pop_front();
                match task {
                    Some(task) => {
                        assert!(task.claim_running(), "queued task must be claimable");
                        loop {
                            let got = mailbox.swap(0, Ordering::Relaxed);
                            if got == 0 {
                                break;
                            }
                            seen += got;
                        }
                        if task.release_running() {
                            queue.lock().expect("lock poisoned").push_back(task);
                        }
                    }
                    None => parker.park_unless(|| {
                        queue
                            .lock()
                            .expect("lock poisoned")
                            .is_empty()
                            .then_some(TICK)
                    }),
                }
            }
            for p in producers {
                p.join().expect("producer");
            }
        });
        assert!(msg.contains("deadlock"), "{msg}");
    }

    /// The finish rendezvous: `finalize`'s publish (done flag, result
    /// slot, notify_all) against `wait_finished`'s take-loop, plus the
    /// late-wake gate — a wake arriving after finalization must observe
    /// `done` and die.
    #[test]
    fn finalize_rendezvous_never_loses_the_waiter() {
        let report = loom::model(|| {
            let core = fresh_core();
            let c2 = Arc::clone(&core);
            let finalizer = loom::thread::spawn(move || {
                // The tail of `finalize`.
                c2.done.store(true, Ordering::Release);
                let mut slot = c2.result.lock().expect("lock poisoned");
                *slot = Some((PoolMembers::new(), Metrics::new()));
                c2.finished.notify_all();
            });
            let (members, _metrics) = core.wait_finished();
            assert!(members.is_empty());
            assert_eq!(
                core.try_wake(),
                WakeVerdict::Dead,
                "a post-finalize wake must observe done"
            );
            finalizer.join().expect("finalizer");
        });
        record("finalize_rendezvous", &report);
        assert!(report.iterations >= 2, "explorer must branch");
    }
}
