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
//! effects differs (sends go to the task's [`Transport`], timers on the
//! driving worker's [`EventQueue`]).
//!
//! The mailbox is a task's one way in. A due timer is a message to
//! yourself: the worker holding it enqueues it in the arming task's
//! mailbox as an envelope from and to the arming actor, and a harness
//! call's follow-up messages are self-sent envelopes too, so one loop
//! over the drained batch drives everything a task receives.
//!
//! Scheduling is a sharded run queue with work stealing:
//!
//! * A task is woken by mailbox arrival (the mailbox's wake hook, which a
//!   timer fire triggers like any other packet) or by its initial
//!   schedule.
//! * Wakes enqueue the task on its home worker's queue; an idle worker
//!   with an empty queue steals from its peers, so a skewed shard cannot
//!   strand runnable tasks behind one busy worker.
//! * The per-task scheduling word (idle / queued / running / running+
//!   notified) guarantees exactly one worker drives a task at a time —
//!   actor state never needs a lock of its own.
//!
//! Timers go on a per-worker [`EventQueue`], the simulator's own event
//! queue (an actor keeps a timer or two armed, not one per transaction):
//! each loop pops everything due into its task's mailbox, past the
//! mailbox bound so a worker never blocks, and an idle worker parks until
//! the queue's earliest deadline — a sleep that is exact, because a
//! mailbox arrival or a wake cuts it short, so no polling tick is needed.
//! Outbound sends coalesce across tasks driven back-to-back on the same
//! worker and flush as one `send_many` batch, capped by
//! [`PlaneConfig::fabric_slack_us`]: a pending batch is handed to the
//! transport when it fills, when the worker runs out of tasks, or when its
//! oldest envelope has waited a full horizon — whichever comes first — so
//! a flush can never be stranded behind a long run of stolen or busy
//! tasks.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use planet_mdcc::Msg;
use planet_sim::{
    drive_into, drive_start, Actor, ActorId, DetRng, Effect, EventQueue, Metrics, SimTime, SiteId,
    TurnInputs,
};

use crate::node::{Clock, NodeHandle, Packet, PoolHandle, PoolMembers};
use crate::plane::{mailbox, MailboxReceiver, MailboxSender, PlaneConfig};
use crate::sync::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Condvar, Mutex, Ordering};
use crate::transport::{Envelope, Transport};

/// Idle park backstop when no timer is pending (wakes cut it short).
const IDLE_WAIT: Duration = Duration::from_millis(500);

/// Task scheduling states (the per-task scheduling word).
const IDLE: u8 = 0;
const QUEUED: u8 = 1;
const RUNNING: u8 = 2;
const RUNNING_NOTIFIED: u8 = 3;

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
    by_id: Option<HashMap<u32, usize>>,
    metrics: Metrics,
    /// The task's own mailbox: where its armed timers fire into.
    tx: MailboxSender,
    rx: MailboxReceiver,
    /// The batch a drive moved out of the mailbox under one lock and is
    /// working through; empty between drives unless the task halted.
    inbox: VecDeque<(Instant, Packet)>,
    transport: Arc<dyn Transport>,
    outbox: Vec<Envelope>,
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

/// One worker's shared face: its run queue and its parker.
struct WorkerShared {
    queue: Mutex<VecDeque<Arc<TaskCore>>>,
    parker: Parker,
}

/// The park/notify rendezvous of one worker. `notified` is sticky: a
/// notify that lands while the worker is between its recheck and its wait
/// is consumed by the wait's guard check, so wakes are never lost. The
/// `parked` flag gates the whole notify path: a busy worker costs its
/// wakers nothing but an atomic load — crucial, since every fabric thread
/// funnels through its destination's parker on every delivery.
struct Parker {
    notified: Mutex<bool>,
    cv: Condvar,
    /// True from just before the pre-sleep recheck until wakeup. Paired
    /// with [`Parker::park_unless`]'s flag-then-recheck order (Dekker
    /// style): an enqueuer that reads `parked == false` is guaranteed its
    /// push is visible to the recheck, so skipping the notify is safe.
    parked: AtomicBool,
}

impl Parker {
    fn new() -> Self {
        Parker {
            notified: Mutex::new(false),
            cv: Condvar::new(),
            parked: AtomicBool::new(false),
        }
    }

    fn notify(&self) {
        let mut notified = self.notified.lock().expect("lock poisoned");
        *notified = true;
        self.cv.notify_one();
    }

    /// Park up to `timeout` — unless `has_work` observes runnable work
    /// after the `parked` flag is visible, in which case the call returns
    /// immediately. Enqueuers order push-then-check-`parked`; this orders
    /// set-`parked`-then-recheck. Under SeqCst one side must see the other:
    /// either the enqueuer notifies, or the recheck finds the push.
    fn park_unless(&self, timeout: Duration, has_work: impl FnOnce() -> bool) {
        self.parked.store(true, Ordering::SeqCst);
        if has_work() {
            self.parked.store(false, Ordering::SeqCst);
            return;
        }
        {
            let mut notified = self.notified.lock().expect("lock poisoned");
            if !*notified {
                let (guard, _) = self
                    .cv
                    .wait_timeout(notified, timeout)
                    // Errs only when the lock is poisoned, i.e. a holder
                    // already panicked (the `.lock()` idiom): check:allow(panic)
                    .expect("lock poisoned");
                notified = guard;
            }
            *notified = false;
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
    seed: u64,
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
    /// Make `task` runnable (mailbox arrival, initial schedule).
    /// Idempotent under any interleaving: the scheduling word collapses
    /// concurrent wakes into at most one queue entry plus one re-run note.
    fn wake(&self, task: &Arc<TaskCore>) {
        if task.try_wake() == WakeVerdict::Enqueue {
            self.enqueue(task.home, Arc::clone(task));
        }
    }

    /// Push a runnable task onto worker `home`'s queue and rouse a
    /// *sleeper* if there is one: the home worker when it is parked, else
    /// one parked peer (home is mid-drive, and a parked peer can steal the
    /// task immediately instead of it waiting out an idle backstop). Awake
    /// workers need no notify at all — before parking they recheck every
    /// queue under the parked flag, so a push they weren't told about is
    /// still found — which keeps the saturated path free of the parker
    /// mutex and its condvar.
    fn enqueue(&self, home: usize, task: Arc<TaskCore>) {
        {
            // `home` is a `TaskCore::home` (taken modulo `workers.len()` at
            // spawn) or the calling worker's own index: check:allow(panic)
            let mut queue = self.workers[home].queue.lock().expect("lock poisoned");
            queue.push_back(task);
        }
        // check:allow(panic): `home` < `workers.len()`, as above
        if self.workers[home].parker.parked.load(Ordering::SeqCst) {
            // check:allow(panic): `home` < `workers.len()`, as above
            self.workers[home].parker.notify();
            return;
        }
        for (w, worker) in self.workers.iter().enumerate() {
            if w != home && worker.parker.parked.load(Ordering::SeqCst) {
                worker.parker.notify();
                return;
            }
        }
    }

    /// Any task queued on any worker? The pre-park recheck: a worker about
    /// to sleep must look at every queue (not just its own), because
    /// enqueuers skip the notify for workers that weren't parked yet.
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

/// A payload on a worker's timer queue: the self-addressed envelope and
/// the mailbox of the task whose member armed it. After a steal, a task's
/// older timers still live on the queue of the worker that armed them.
struct TimerFire {
    mailbox: MailboxSender,
    env: Envelope,
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
        let workers = plane.workers.max(1);
        let inner = Arc::new(ReactorInner {
            workers: (0..workers)
                .map(|_| WorkerShared {
                    queue: Mutex::new(VecDeque::new()),
                    parker: Parker::new(),
                })
                .collect(),
            running: AtomicBool::new(true),
            clock,
            plane,
            seed,
            next_home: AtomicUsize::new(0),
            steals: AtomicU64::new(0),
            busy_us: AtomicU64::new(0),
            idle_us: AtomicU64::new(0),
            drives: AtomicU64::new(0),
            parks: AtomicU64::new(0),
        });
        let joins = (0..workers)
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
        let core = self.spawn_task(vec![(id, actor)], site, &mailbox, rx, transport);
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
        let core = self.spawn_task(members, site, &mailbox, rx, transport);
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
        tx: &MailboxSender,
        rx: MailboxReceiver,
        transport: Arc<dyn Transport>,
    ) -> Arc<TaskCore> {
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
        rx.set_waker(Arc::new(move || {
            if let Some(core) = weak_core.upgrade() {
                wake_inner.wake(&core);
            }
        }));
        *core.body.lock().expect("lock poisoned") = Some(TaskBody {
            site,
            members,
            by_id,
            metrics: Metrics::new(),
            tx: tx.clone(),
            rx,
            inbox: VecDeque::new(),
            transport,
            outbox: Vec::new(),
            effects: Vec::new(),
            started: false,
        });
        inner.wake(&core);
        core
    }

    /// Stop the worker pool. Tasks must have been joined first (via their
    /// handles); workers exit at their next idle moment.
    pub fn shutdown(&self) {
        self.inner.running.store(false, Ordering::SeqCst);
        for worker in &self.inner.workers {
            worker.parker.notify();
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

/// The worker main loop: fire timers, drive tasks (own queue first, then
/// steals), coalesce flushes, park on the timer queue's next deadline.
fn run_worker(w: usize, inner: Arc<ReactorInner>) {
    let mut timers: EventQueue<TimerFire> = EventQueue::new();
    let mut pending = PendingFlush::new(&inner.plane);
    loop {
        // Deliver every due timer into its task's mailbox, whose waker
        // wakes the task; a closed mailbox is a finalized task, and drops
        // the fire.
        let now = inner.clock.now();
        while let Some((_, fire)) = timers.pop_due(now) {
            let _ = fire.mailbox.send_unbounded(Packet::Env(fire.env));
        }
        // The flush horizon is checked between drives, so a batch ages at
        // most one drive past `fabric_slack_us` even on a saturated worker.
        pending.flush_if_due();
        match inner.next_task(w) {
            Some((task, stolen)) => {
                let began = Instant::now();
                drive_task(&inner, w, &task, stolen, &mut timers, &mut pending);
                inner
                    .busy_us
                    .fetch_add(began.elapsed().as_micros() as u64, Ordering::Relaxed);
                inner.drives.fetch_add(1, Ordering::Relaxed);
            }
            None => {
                pending.flush();
                if !inner.running.load(Ordering::SeqCst) {
                    return;
                }
                let timeout = match timers.peek_at() {
                    Some(at) => at.since(inner.clock.now()).to_std().min(IDLE_WAIT),
                    None => IDLE_WAIT,
                };
                let began = Instant::now();
                inner.parks.fetch_add(1, Ordering::Relaxed);
                // check:allow(panic): `w` is this worker's own index
                inner.workers[w]
                    .parker
                    .park_unless(timeout, || inner.has_runnable());
                inner
                    .idle_us
                    .fetch_add(began.elapsed().as_micros() as u64, Ordering::Relaxed);
            }
        }
    }
}

/// Drive one scheduled task: up to `max_batch` mailbox packets, one
/// turn-group, one coalesced flush hand-off. Ends by releasing the
/// scheduling word (re-queueing if traffic arrived mid-drive or the batch
/// cap left the mailbox non-empty).
fn drive_task(
    inner: &Arc<ReactorInner>,
    w: usize,
    task: &Arc<TaskCore>,
    stolen: bool,
    timers: &mut EventQueue<TimerFire>,
    pending: &mut PendingFlush,
) {
    if !task.claim_running() {
        return; // finalized under us; nothing to drive
    }
    let taken = task.body.lock().expect("lock poisoned").take();
    let Some(mut body) = taken else {
        // Finalized between the CAS and the take: leave the word as-is,
        // wakes check `done` first.
        return;
    };
    let max_batch = inner.plane.max_batch.max(1);
    let site = body.site;
    let inputs = |id: ActorId, now: SimTime| TurnInputs {
        now,
        self_id: id,
        self_site: site,
    };
    let mut halted = false;
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
            body.effects.extend(start.effects);
            absorb_effects(&mut body, idx, timers, now, &mut halted);
        }
    }
    // The batch moves out of the mailbox under one lock, so the senders
    // contend with this task once a drive, not once a packet.
    let drained = if halted {
        0
    } else {
        body.rx.drain_into(max_batch, &mut body.inbox)
    };
    while !halted {
        let Some((enqueued, packet)) = body.inbox.pop_front() else {
            break;
        };
        body.metrics
            .histogram("span.queue_us")
            .record(enqueued.elapsed().as_micros() as u64);
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
                let now = inner.clock.now();
                let wal = is_wal_class(&env.msg);
                let before = if wal { Some(Instant::now()) } else { None };
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
                if let Some(before) = before {
                    body.metrics
                        .histogram("span.wal_us")
                        .record(before.elapsed().as_micros() as u64);
                }
                absorb_effects(&mut body, idx, timers, now, &mut halted);
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
                // batch still holds, and arrived with the call.
                for msg in f(member.actor.as_mut()).into_iter().rev() {
                    let env = Envelope {
                        from: id,
                        to: id,
                        msg,
                    };
                    body.inbox.push_front((enqueued, Packet::Env(env)));
                }
            }
            Packet::Stop => {
                halted = true;
            }
        }
    }
    if drained > 0 {
        body.metrics.histogram("plane.batch").record(drained as u64);
        body.metrics
            .histogram("plane.mailbox.depth")
            .record(body.rx.depth() as u64);
    }
    pending.absorb(&body.transport, &mut body.outbox);
    if halted {
        finalize(task, body);
        return;
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
        inner.enqueue(w, Arc::clone(task));
    } else if more {
        inner.wake(task);
    }
}

/// Harvest a stopped/halted task: record the mailbox high-water, publish
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
/// the driving worker's timer queue (addressed from and to the arming
/// member, through the task's own mailbox), halt to the drive loop.
fn absorb_effects(
    body: &mut TaskBody,
    member: usize,
    timers: &mut EventQueue<TimerFire>,
    now: SimTime,
    halted: &mut bool,
) {
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
                timers.push(
                    now + delay,
                    TimerFire {
                        mailbox: body.tx.clone(),
                        env: Envelope {
                            from: id,
                            to: id,
                            msg,
                        },
                    },
                );
            }
            Effect::Halt => *halted = true,
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

    fn next(seen: &mpsc::Receiver<Seen>) -> Seen {
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
#[cfg(all(test, loom))]
pub(crate) mod loom_tests {
    use std::collections::VecDeque;
    use std::io::Write as _;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;
    use std::time::Duration;

    use planet_sim::Metrics;

    use super::{Parker, TaskCore, WakeVerdict, IDLE};
    use crate::node::PoolMembers;
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

    /// Record the exploration report where CI archives it
    /// (`target/loom/*.json`). Best-effort: the assertions, not the
    /// artifact, are the test.
    pub(crate) fn record(name: &str, report: &loom::Report) {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/loom");
        if std::fs::create_dir_all(dir).is_err() {
            return;
        }
        let Ok(mut f) = std::fs::File::create(format!("{dir}/{name}.json")) else {
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

    /// The worker/enqueuer rendezvous, exactly as the reactor runs it:
    /// the enqueuer pushes under the queue lock then does the
    /// parked-flag-gated notify (`ReactorInner::enqueue`); the worker
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
                    p2.notify();
                }
            });
            loop {
                if queue.lock().expect("lock poisoned").pop_front().is_some() {
                    break;
                }
                parker.park_unless(TICK, || !queue.lock().expect("lock poisoned").is_empty());
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
                    p2.notify();
                }
            });
            loop {
                if work.load(Ordering::Acquire) > 0 {
                    break;
                }
                parker.park_unless(TICK, || work.load(Ordering::Acquire) > 0);
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
                    p2.notify();
                }
            });
            loop {
                if work.load(Ordering::SeqCst) > 0 {
                    break;
                }
                parker.park_unless(TICK, || work.load(Ordering::SeqCst) > 0);
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
                            parker.notify();
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
                    None => parker
                        .park_unless(TICK, || !queue.lock().expect("lock poisoned").is_empty()),
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
                            parker.notify();
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
                    None => parker
                        .park_unless(TICK, || !queue.lock().expect("lock poisoned").is_empty()),
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
