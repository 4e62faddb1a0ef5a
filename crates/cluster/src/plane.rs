//! The batched message plane: tuning knobs and bounded mailboxes.
//!
//! Every live node receives packets through a bounded [`MailboxSender`] /
//! [`MailboxReceiver`] pair. Each queued packet carries the instant it
//! becomes *deliverable*: a send is stamped now, and the in-process
//! [`ChannelTransport`] stamps a packet with the delivery time its network
//! model sampled, so a mailbox holds what the network still has in flight
//! and no thread has to hold it anywhere else. A reactor task drains its
//! mailbox whole and keeps what is not yet due (see the reactor); a bare
//! receiver ([`MailboxReceiver::recv_timeout`], [`MailboxReceiver::try_recv`])
//! never hands out a packet before its instant.
//!
//! The bound is the backpressure mechanism of a sender that may block: a
//! harness call from a thread outside the reactor that would overflow a
//! peer's mailbox *blocks* until the peer drains. A reactor worker never
//! blocks on a mailbox, and both transports send and read on workers: they
//! take protocol traffic past the bound and *shed* client submissions at
//! it (bounced straight back as a timed-out `TxnDone`, see
//! [`ChannelTransport`]), so admission stays end-to-end.
//! Unbounded client load is exactly the >64-client latency collapse:
//! queues grow without limit, and every queued message ages before it is
//! even looked at.
//!
//! A mailbox is one `VecDeque` and its bookkeeping behind one mutex, with a
//! condvar for blocked senders and one for a blocked receiver. A send is one
//! lock and one `push_back`, a run of sends to one mailbox is one lock
//! (`MailboxSender::open_run`), and a reactor drive takes its whole batch
//! under one (`MailboxReceiver::drain_into`). A condvar is notified only when a
//! waiter has registered under that lock: with std's futex condvar a notify
//! is a system call even when nobody waits, and a mailbox that paid it on
//! every dequeue paid it some twenty times per committed transaction. The
//! two handshakes take `Mutex` and `Condvar` from `crate::sync`, so
//! planet-loom runs this file's code (`loom_tests`, under `--cfg loom`).
//!
//! [`PlaneConfig`] carries the knobs ([`max_batch`], the mailbox capacity,
//! the slack, the worker count) and travels from `LiveClusterBuilder` (or
//! the application front end's live fabric argument) down to the reactor's
//! workers.
//!
//! [`max_batch`]: PlaneConfig::max_batch
//! [`ChannelTransport`]: crate::ChannelTransport

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
// The receive errors stay std's (callers match on them); no channel does.
use std::sync::mpsc::{RecvTimeoutError, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::node::Packet;
use crate::sync::{Condvar, Mutex, MutexGuard};

/// A hook invoked after every successful mailbox enqueue with the instant
/// the enqueued packet becomes deliverable (for a run, the earliest of
/// its packets): how the reactor learns a task has traffic, and when. Set
/// once (before the task goes live) via [`MailboxReceiver::set_waker`].
pub type Waker = Arc<dyn Fn(Instant) + Send + Sync>;

/// Tuning knobs for the batched message plane. One value configures every
/// node and the transport fabric of a cluster.
#[derive(Debug, Clone, Copy)]
pub struct PlaneConfig {
    /// Most packets a node drains (and drives) per mailbox wakeup before
    /// flushing its accumulated sends as one coalesced transport batch.
    pub max_batch: usize,
    /// Mailbox capacity. Client submissions are shed at it (bounced as a
    /// timed-out `TxnDone`); a harness call outside the reactor blocks at
    /// it; both transports take protocol traffic past it, so that no
    /// reactor worker ever blocks on a mailbox.
    pub mailbox_capacity: usize,
    /// Ignored: the channel fabric has no threads to shard over (a send is
    /// stamped on the sending thread and enqueued at its destination). It
    /// stays only because the benchmark's plane names it.
    pub fabric_shards: usize,
    /// The delivery slack, in microseconds. A reactor task drives a packet
    /// stamped for later up to this much before its instant, so that one
    /// drive takes a window of deliveries instead of one, and a packet due
    /// further out than this does not wake its task at all but arms a timed
    /// wake for its instant. Keep it well under the smallest modelled
    /// cross-site delay (per-pair FIFO is unaffected). The same slack caps
    /// how long a reactor worker may hold a pending coalesced flush before
    /// handing it to the transport.
    pub fabric_slack_us: u64,
    /// Reactor worker threads driving the cluster's actors, each actor a
    /// schedulable task on a sharded-run-queue reactor with work stealing.
    /// Defaults to the host's available parallelism; [`Reactor::new`] runs
    /// at least one worker whatever this says.
    ///
    /// [`Reactor::new`]: crate::Reactor::new
    pub workers: usize,
}

impl Default for PlaneConfig {
    fn default() -> Self {
        PlaneConfig {
            max_batch: 64,
            mailbox_capacity: 4096,
            fabric_shards: 1,
            fabric_slack_us: 200,
            workers: default_workers(),
        }
    }
}

impl PlaneConfig {
    /// Override the reactor worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }
}

/// The host's available parallelism: the default reactor width.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// What both halves of a mailbox share: the queue with its bookkeeping
/// behind one lock, and the two conditions threads block on.
struct Shared {
    state: Mutex<State>,
    /// Senders blocked on a full queue wait here.
    drained: Condvar,
    /// A receiver blocked in [`MailboxReceiver::recv_timeout`] waits here.
    arrived: Condvar,
    capacity: usize,
    // Depth watermark for stats; the state mutex carries the real
    // synchronization. check:allow(atomics)
    high_water: AtomicUsize,
}

struct State {
    /// Queued packets in push order, each with the instant it becomes
    /// deliverable. Not in due order across senders; one sender's packets
    /// to one mailbox are, so the first due packet never overtakes an
    /// earlier one of its pair.
    queue: VecDeque<(Instant, Packet)>,
    /// The receiver is gone.
    closed: bool,
    /// Every [`MailboxSender`] is gone: an empty queue is disconnected.
    senders_gone: bool,
    /// Senders waiting on `drained`. A condvar is notified only when a
    /// waiter has registered here, under the lock: a notify nobody waits
    /// for is still a `futex_wake` system call.
    blocked_senders: usize,
    /// The receiver is waiting on `arrived` (registered the same way).
    receiver_waiting: bool,
    /// Invoked (outside the lock) after every successful enqueue.
    waker: Option<Waker>,
}

impl Shared {
    /// Enqueue under the held lock, deliverable at `due` (read before the
    /// lock was taken: the clock is not read inside the critical section).
    /// What the caller has left to do is to call the waker with `due` once
    /// the lock is released.
    fn enqueue(&self, state: &mut State, due: Instant, packet: Packet) {
        state.queue.push_back((due, packet));
        self.high_water
            .fetch_max(state.queue.len(), Ordering::Relaxed);
        if state.receiver_waiting {
            self.arrived.notify_one();
        }
    }

    /// Rouse blocked senders after `freed` packets left the queue under
    /// the held lock: one dequeue makes room for one sender.
    fn note_dequeued(&self, state: &State, freed: usize) {
        if state.blocked_senders == 0 || freed == 0 {
            return;
        }
        if freed == 1 {
            self.drained.notify_one();
        } else {
            self.drained.notify_all();
        }
    }
}

/// A failed [`MailboxSender::try_send`].
pub enum TrySendError {
    /// The mailbox is at capacity; the packet is handed back.
    Full(Packet),
    /// The receiving node is gone; the packet is handed back.
    Closed(Packet),
}

impl std::fmt::Debug for TrySendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // `Packet` holds a boxed call closure, so only the variant is shown.
        match self {
            TrySendError::Full(_) => f.write_str("Full(..)"),
            TrySendError::Closed(_) => f.write_str("Closed(..)"),
        }
    }
}

/// The sending half of a bounded mailbox. Cloneable; every clone feeds the
/// same queue, and a clone costs one reference count (the fabric makes one
/// per message it holds).
#[derive(Clone)]
pub struct MailboxSender {
    side: Arc<SenderSide>,
}

/// What the clones of a sender share, so that it drops with the last one.
struct SenderSide {
    shared: Arc<Shared>,
}

/// The last sender to go disconnects the mailbox: a receiver waiting on an
/// empty queue is told, so it stops waiting for traffic that cannot come.
impl Drop for SenderSide {
    fn drop(&mut self) {
        let mut state = lock_in_drop(&self.shared.state);
        state.senders_gone = true;
        if state.receiver_waiting {
            self.shared.arrived.notify_one();
        }
    }
}

impl MailboxSender {
    /// Enqueue `packet`, blocking while the mailbox is full (backpressure).
    /// Returns the packet if the receiving node is gone, or if the lock was
    /// poisoned while this sender waited.
    // The Err variant hands the undelivered packet back (as std's
    // SendError does); its size is the price of not dropping messages.
    #[allow(clippy::result_large_err)]
    pub fn send(&self, packet: Packet) -> Result<(), Packet> {
        let shared = &*self.side.shared;
        let mut at = Instant::now();
        let waker = {
            let mut state = shared.state.lock().expect("lock poisoned");
            loop {
                if state.closed {
                    return Err(packet);
                }
                if state.queue.len() < shared.capacity {
                    break;
                }
                state.blocked_senders += 1;
                // A thread that panicked holding the lock poisoned it:
                // hand the packet back, as a closed mailbox does.
                let Ok(woken) = shared.drained.wait(state) else {
                    return Err(packet);
                };
                state = woken;
                state.blocked_senders -= 1;
                // Time spent blocked is the sender's, not the queue's.
                at = Instant::now();
            }
            shared.enqueue(&mut state, at, packet);
            state.waker.clone()
        };
        if let Some(waker) = waker {
            waker(at);
        }
        Ok(())
    }

    /// Enqueue `packet` without blocking; a full mailbox hands the packet
    /// back so the caller can shed it.
    #[allow(clippy::result_large_err)]
    pub fn try_send(&self, packet: Packet) -> Result<(), TrySendError> {
        self.open_run().push(Instant::now(), packet, true)
    }

    /// True when `other` feeds the same mailbox.
    pub(crate) fn same_as(&self, other: &MailboxSender) -> bool {
        Arc::ptr_eq(&self.side.shared, &other.side.shared)
    }

    /// Open a run of enqueues under one lock: each packet is stamped with
    /// its own deliverable instant, and the waker is called once, when the
    /// run ends, with the earliest of them. Nothing in a run blocks.
    pub(crate) fn open_run(&self) -> Run<'_> {
        let shared = &*self.side.shared;
        Run {
            shared,
            state: Some(shared.state.lock().expect("lock poisoned")),
            wake_due: None,
        }
    }
}

/// Enqueues into one mailbox under one hold of its lock, opened by
/// [`MailboxSender::open_run`]. Dropping it releases the lock and then
/// calls the waker with `wake_due`, the earliest instant pushed.
pub(crate) struct Run<'a> {
    shared: &'a Shared,
    /// The held lock; taken out only by `drop`.
    state: Option<MutexGuard<'a, State>>,
    /// The earliest deliverable instant pushed so far.
    wake_due: Option<Instant>,
}

impl Run<'_> {
    /// Enqueue `packet`, deliverable at `due`: at the capacity bound when
    /// `bounded` (a full mailbox hands the packet back), past it otherwise.
    /// A closed mailbox hands the packet back.
    #[allow(clippy::result_large_err)]
    pub(crate) fn push(
        &mut self,
        due: Instant,
        packet: Packet,
        bounded: bool,
    ) -> Result<(), TrySendError> {
        let Some(state) = self.state.as_mut() else {
            return Err(TrySendError::Closed(packet));
        };
        if state.closed {
            return Err(TrySendError::Closed(packet));
        }
        if bounded && state.queue.len() >= self.shared.capacity {
            return Err(TrySendError::Full(packet));
        }
        self.shared.enqueue(state, due, packet);
        // The waker is called once, with the earliest, when the run ends.
        self.wake_due = Some(self.wake_due.map_or(due, |at| at.min(due)));
        Ok(())
    }
}

impl Drop for Run<'_> {
    fn drop(&mut self) {
        let (Some(state), Some(due)) = (self.state.take(), self.wake_due) else {
            return;
        };
        let waker = state.waker.clone();
        drop(state);
        if let Some(waker) = waker {
            waker(due);
        }
    }
}

/// The receiving half of a bounded mailbox, owned by the node's task. Dropping
/// it marks the mailbox closed, drops what is still queued and unblocks every
/// waiting sender.
pub struct MailboxReceiver {
    shared: Arc<Shared>,
}

impl MailboxReceiver {
    /// Receive the first packet already deliverable, waiting up to
    /// `timeout` for one: a packet stamped for later is not handed out
    /// before its instant. `Disconnected` once every sender is gone and the
    /// queue is empty.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Packet, RecvTimeoutError> {
        let shared = &*self.shared;
        // A timeout too long to add to the clock is no deadline at all.
        let deadline = Instant::now().checked_add(timeout);
        let mut state = shared.state.lock().expect("lock poisoned");
        loop {
            let now = Instant::now();
            if let Some(packet) = take_due(&mut state, now) {
                shared.note_dequeued(&state, 1);
                return Ok(packet);
            }
            if state.queue.is_empty() && state.senders_gone {
                return Err(RecvTimeoutError::Disconnected);
            }
            let mut left = deadline.map_or(timeout, |d| d.saturating_duration_since(now));
            if left.is_zero() {
                return Err(RecvTimeoutError::Timeout);
            }
            // Nothing queued is due yet: wake no later than the earliest.
            if let Some(next) = state.queue.iter().map(|(due, _)| *due).min() {
                left = left.min(next.saturating_duration_since(now));
            }
            state.receiver_waiting = true;
            state = shared
                .arrived
                .wait_timeout(state, left)
                .expect("lock poisoned")
                .0;
            state.receiver_waiting = false;
        }
    }

    /// Receive the first queued packet that is already deliverable.
    /// `Empty` while nothing queued is due yet.
    pub fn try_recv(&self) -> Result<Packet, TryRecvError> {
        let mut state = self.shared.state.lock().expect("lock poisoned");
        match take_due(&mut state, Instant::now()) {
            Some(packet) => {
                self.shared.note_dequeued(&state, 1);
                Ok(packet)
            }
            None if state.queue.is_empty() && state.senders_gone => Err(TryRecvError::Disconnected),
            None => Err(TryRecvError::Empty),
        }
    }

    /// Move up to `max` queued packets, in push order and whether due or
    /// not, onto the back of `into` under one lock — how a reactor drive
    /// takes its batch (the task holds what is not due yet). Returns how
    /// many moved.
    pub(crate) fn drain_into(&self, max: usize, into: &mut VecDeque<(Instant, Packet)>) -> usize {
        let mut state = self.shared.state.lock().expect("lock poisoned");
        let moved = max.min(state.queue.len());
        into.extend(state.queue.drain(..moved));
        self.shared.note_dequeued(&state, moved);
        moved
    }

    /// Install the wake hook invoked after every successful enqueue. The
    /// reactor sets this before a task goes live (and schedules the task
    /// once right after), so no arrival can slip through unobserved.
    pub fn set_waker(&self, waker: Waker) {
        self.shared.state.lock().expect("lock poisoned").waker = Some(waker);
    }

    /// Packets currently queued.
    pub fn depth(&self) -> usize {
        self.shared.state.lock().expect("lock poisoned").queue.len()
    }

    /// Deepest the mailbox has ever been.
    pub fn high_water(&self) -> usize {
        self.shared.high_water.load(Ordering::Relaxed)
    }
}

impl Drop for MailboxReceiver {
    fn drop(&mut self) {
        // The queued packets leave under the lock and are dropped after it:
        // a packet's destructor is not ours to run while senders wait.
        let _queued = {
            let mut state = lock_in_drop(&self.shared.state);
            state.closed = true;
            if state.blocked_senders > 0 {
                self.shared.drained.notify_all();
            }
            std::mem::take(&mut state.queue)
        };
    }
}

/// Take the first packet deliverable by `now`, in push order.
fn take_due(state: &mut State, now: Instant) -> Option<Packet> {
    let at = state.queue.iter().position(|(due, _)| *due <= now)?;
    state.queue.remove(at).map(|(_, packet)| packet)
}

/// `lock` for a destructor, which must not panic: the state is valid at
/// every step, so a poisoned lock's guard is as good as any.
fn lock_in_drop(state: &Mutex<State>) -> MutexGuard<'_, State> {
    state
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Create a bounded mailbox holding at most `capacity` packets.
pub fn mailbox(capacity: usize) -> (MailboxSender, MailboxReceiver) {
    assert!(capacity > 0, "mailbox capacity must be positive");
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            closed: false,
            senders_gone: false,
            blocked_senders: 0,
            receiver_waiting: false,
            waker: None,
        }),
        drained: Condvar::new(),
        arrived: Condvar::new(),
        capacity,
        high_water: AtomicUsize::new(0),
    });
    (
        MailboxSender {
            side: Arc::new(SenderSide {
                shared: Arc::clone(&shared),
            }),
        },
        MailboxReceiver { shared },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use planet_mdcc::Msg;
    use std::time::Instant;

    fn packet(tag: u64) -> Packet {
        Packet::Env(crate::transport::Envelope {
            from: planet_sim::ActorId(0),
            to: planet_sim::ActorId(1),
            msg: Msg::ClientTimer { kind: 0, tag },
        })
    }

    #[test]
    fn try_send_sheds_at_capacity() {
        let (tx, rx) = mailbox(2);
        tx.try_send(packet(0)).expect("first fits");
        tx.try_send(packet(1)).expect("second fits");
        assert!(matches!(tx.try_send(packet(2)), Err(TrySendError::Full(_))));
        assert_eq!(rx.depth(), 2);
        assert_eq!(rx.high_water(), 2);
        rx.try_recv().expect("drains");
        tx.try_send(packet(3)).expect("space freed");
    }

    /// A blocked sender whose wait ends on a poisoned lock gets its packet
    /// back instead of panicking.
    #[test]
    fn a_poisoned_wait_hands_the_packet_back() {
        let (tx, _rx) = mailbox(1);
        assert!(tx.send(packet(0)).is_ok());
        let shared = Arc::clone(&tx.side.shared);
        let sender = std::thread::spawn(move || tx.send(packet(1)).is_err());
        while lock_in_drop(&shared.state).blocked_senders == 0 {
            std::thread::yield_now();
        }
        let poisoner = Arc::clone(&shared);
        let poisoned = std::thread::spawn(move || {
            let _held = poisoner.state.lock();
            panic!("poison the mailbox lock");
        });
        assert!(poisoned.join().is_err());
        shared.drained.notify_all();
        let handed_back = sender.join().expect("the sender does not panic");
        assert!(handed_back);
    }

    #[test]
    fn blocking_send_waits_for_drain() {
        let (tx, rx) = mailbox(1);
        assert!(tx.send(packet(0)).is_ok());
        let t = std::thread::spawn(move || {
            let started = Instant::now();
            assert!(tx.send(packet(1)).is_ok(), "eventually fits");
            started.elapsed()
        });
        std::thread::sleep(Duration::from_millis(50));
        rx.recv_timeout(Duration::from_secs(1)).expect("first");
        let blocked_for = t.join().expect("sender thread");
        assert!(
            blocked_for >= Duration::from_millis(40),
            "sender should have blocked, only waited {blocked_for:?}"
        );
        rx.recv_timeout(Duration::from_secs(1)).expect("second");
    }

    #[test]
    fn dropping_receiver_unblocks_senders() {
        let (tx, rx) = mailbox(1);
        assert!(tx.send(packet(0)).is_ok());
        #[allow(clippy::result_large_err)]
        let t = std::thread::spawn(move || tx.send(packet(1)));
        std::thread::sleep(Duration::from_millis(50));
        drop(rx);
        assert!(t.join().expect("sender thread").is_err(), "send errors out");
    }
    fn tag_of(packet: Packet) -> u64 {
        match packet {
            Packet::Env(env) => match env.msg {
                Msg::ClientTimer { tag, .. } => tag,
                other => panic!("unexpected message {other:?}"),
            },
            _ => panic!("only envelopes are queued"),
        }
    }

    /// Spin until `ready` holds for the mailbox's state: how a test learns
    /// that a sender has blocked, without guessing how long that takes.
    fn wait_for_state(tx: &MailboxSender, ready: impl Fn(&State) -> bool) {
        while !ready(&tx.side.shared.state.lock().expect("lock poisoned")) {
            std::thread::yield_now();
        }
    }

    #[test]
    fn each_senders_packets_arrive_in_its_order() {
        const SENDERS: u64 = 8;
        const EACH: u64 = 2_000;
        // A small mailbox, so senders block and wake throughout.
        let (tx, rx) = mailbox(16);
        let threads: Vec<_> = (0..SENDERS)
            .map(|s| {
                let tx = tx.clone();
                std::thread::spawn(move || {
                    for i in 0..EACH {
                        assert!(tx.send(packet(s * EACH + i)).is_ok());
                    }
                })
            })
            .collect();
        drop(tx);
        let mut next = [0u64; SENDERS as usize];
        let mut batch = VecDeque::new();
        // Alternate the two ways out of the queue: one packet, one batch.
        loop {
            match rx.recv_timeout(Duration::from_secs(10)) {
                Ok(p) => batch.push_back((Instant::now(), p)),
                Err(RecvTimeoutError::Disconnected) => break,
                Err(RecvTimeoutError::Timeout) => panic!("senders stalled"),
            }
            rx.drain_into(5, &mut batch);
            for (_, p) in batch.drain(..) {
                let tag = tag_of(p);
                let sender = (tag / EACH) as usize;
                assert_eq!(tag % EACH, next[sender], "sender {sender} reordered");
                next[sender] += 1;
            }
        }
        assert_eq!(next, [EACH; SENDERS as usize]);
        assert!(rx.high_water() <= 16);
        for t in threads {
            t.join().expect("sender thread");
        }
    }

    #[test]
    fn disconnected_only_once_every_sender_is_gone_and_the_queue_is_empty() {
        let (tx, rx) = mailbox(4);
        let second = tx.clone();
        assert!(matches!(rx.try_recv(), Err(TryRecvError::Empty)));
        assert!(tx.send(packet(1)).is_ok());
        drop(tx);
        assert!(second.send(packet(2)).is_ok());
        drop(second);
        // Both senders are gone; what they queued still arrives, in order.
        assert_eq!(rx.try_recv().map(tag_of).ok(), Some(1));
        assert_eq!(
            rx.recv_timeout(Duration::ZERO).map(tag_of).ok(),
            Some(2),
            "a queued packet beats a zero timeout"
        );
        assert!(matches!(rx.try_recv(), Err(TryRecvError::Disconnected)));
        // (A timeout the clock cannot hold is no deadline, not a panic.)
        assert!(matches!(
            rx.recv_timeout(Duration::MAX),
            Err(RecvTimeoutError::Disconnected)
        ));

        // A live sender and an empty queue is a timeout, not a disconnect.
        let (tx, rx) = mailbox(4);
        assert!(matches!(
            rx.recv_timeout(Duration::from_millis(1)),
            Err(RecvTimeoutError::Timeout)
        ));
        // The last sender going wakes a receiver that is already waiting.
        let waiting = std::thread::spawn(move || rx.recv_timeout(Duration::from_secs(10)));
        wait_for_state(&tx, |state| state.receiver_waiting);
        drop(tx);
        assert!(matches!(
            waiting.join().expect("receiver thread"),
            Err(RecvTimeoutError::Disconnected)
        ));
    }

    #[test]
    fn dropping_the_receiver_frees_what_is_queued_and_every_blocked_sender() {
        let (tx, rx) = mailbox(2);
        let held = Arc::new(());
        for _ in 0..2 {
            let held = Arc::clone(&held);
            let call = Packet::Call(Box::new(move |_| {
                let _ = &held;
                Vec::new()
            }));
            assert!(tx.send(call).is_ok());
        }
        assert_eq!(Arc::strong_count(&held), 3);
        #[allow(clippy::result_large_err)]
        let blocked: Vec<_> = (0..3)
            .map(|i| {
                let tx = tx.clone();
                std::thread::spawn(move || tx.send(packet(i)))
            })
            .collect();
        wait_for_state(&tx, |state| state.blocked_senders == 3);
        drop(rx);
        for t in blocked {
            assert!(t.join().expect("sender thread").is_err(), "handed back");
        }
        assert_eq!(Arc::strong_count(&held), 1, "queued packets were dropped");
        assert!(matches!(
            tx.try_send(packet(9)),
            Err(TrySendError::Closed(_))
        ));
    }

    #[test]
    fn one_dequeue_lets_one_of_two_blocked_senders_through() {
        let (tx, rx) = mailbox(1);
        assert!(tx.send(packet(0)).is_ok());
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let threads: Vec<_> = (1..=2)
            .map(|i| {
                let (tx, done) = (tx.clone(), done_tx.clone());
                std::thread::spawn(move || {
                    assert!(tx.send(packet(i)).is_ok());
                    done.send(i).expect("test is listening");
                })
            })
            .collect();
        wait_for_state(&tx, |state| state.blocked_senders == 2);
        assert_eq!(rx.try_recv().map(tag_of).ok(), Some(0));
        let first = done_rx.recv().expect("one sender gets through");
        // The mailbox is full again, so the other is blocked whether or
        // not it was woken; it gets through on the next dequeue only.
        wait_for_state(&tx, |state| state.blocked_senders == 1);
        assert_eq!(rx.depth(), 1);
        assert!(done_rx.try_recv().is_err(), "the second sender got through");
        assert_eq!(rx.try_recv().map(tag_of).ok(), Some(first));
        let second = done_rx.recv().expect("the other sender gets through");
        assert_eq!(first + second, 3);
        assert_eq!(rx.try_recv().map(tag_of).ok(), Some(second));
        for t in threads {
            t.join().expect("sender thread");
        }
    }
}

/// The mailbox's two blocking handshakes under `RUSTFLAGS="--cfg loom"`:
/// the real `send` / `drain_into` / `recv_timeout` / `Drop` code runs under
/// every bounded-preemption interleaving (`crate::sync` resolves to
/// `planet-loom`'s modeled `Mutex` and `Condvar`, whose waits never time
/// out), so a notify skipped because its waiter had not registered yet
/// shows as a deadlock. The broken twin registers outside the lock and the
/// harness must find that.
#[cfg(all(test, loom))]
mod loom_tests {
    use std::collections::VecDeque;
    use std::sync::mpsc::RecvTimeoutError;
    use std::sync::Arc;
    use std::time::Duration;

    use super::mailbox;
    use crate::node::Packet;
    use crate::reactor::loom_tests::{fails, record};
    use crate::sync::{Condvar, Mutex};

    /// Never elapses in real time, and modeled waits never time out: a
    /// receive that is only saved by its timeout deadlocks instead.
    const FOREVER: Duration = Duration::from_secs(3_600);

    #[test]
    fn loom_blocked_sender_is_woken_by_the_drain() {
        let report = loom::model(|| {
            let (tx, rx) = mailbox(1);
            assert!(tx.send(Packet::Stop).is_ok());
            // Blocks unless the drain below came first.
            let sender = loom::thread::spawn(move || assert!(tx.send(Packet::Stop).is_ok()));
            let mut batch = VecDeque::new();
            assert_eq!(rx.drain_into(64, &mut batch), 1, "the packet that fitted");
            sender.join().expect("sender");
            assert_eq!(rx.drain_into(64, &mut batch), 1, "the one that waited");
            assert_eq!(rx.depth(), 0);
        });
        record("mailbox_blocked_sender", &report);
        assert!(report.iterations >= 2, "explorer must branch");
    }

    #[test]
    fn loom_blocked_receiver_is_woken_by_a_send_and_by_the_last_sender_leaving() {
        let report = loom::model(|| {
            let (tx, rx) = mailbox(1);
            let sender = loom::thread::spawn(move || {
                assert!(tx.send(Packet::Stop).is_ok());
                // `tx` drops here: the second receive below must hear of it.
            });
            assert!(matches!(rx.recv_timeout(FOREVER), Ok(Packet::Stop)));
            assert!(matches!(
                rx.recv_timeout(FOREVER),
                Err(RecvTimeoutError::Disconnected)
            ));
            sender.join().expect("sender");
        });
        record("mailbox_blocked_receiver", &report);
        assert!(report.iterations >= 2, "explorer must branch");
    }

    /// `send`'s full-queue wait with the waiter registered *after* the lock
    /// that saw the queue full was released: the drain can run in between,
    /// find nobody registered, skip its notify, and strand the sender.
    #[test]
    fn loom_registering_the_waiter_outside_the_lock_is_found() {
        struct State {
            queued: usize,
            blocked_senders: usize,
        }
        let msg = fails(|| {
            let state = Arc::new(Mutex::new(State {
                queued: 1,
                blocked_senders: 0,
            }));
            let drained = Arc::new(Condvar::new());
            let (s2, d2) = (Arc::clone(&state), Arc::clone(&drained));
            let sender = loom::thread::spawn(move || {
                let full = s2.lock().expect("lock poisoned").queued == 1;
                if full {
                    let mut state = s2.lock().expect("lock poisoned");
                    state.blocked_senders += 1;
                    state = d2.wait(state).expect("lock poisoned");
                    state.blocked_senders -= 1;
                }
                s2.lock().expect("lock poisoned").queued += 1;
            });
            {
                let mut state = state.lock().expect("lock poisoned");
                state.queued -= 1;
                if state.blocked_senders > 0 {
                    drained.notify_one();
                }
            }
            sender.join().expect("sender");
        });
        assert!(msg.contains("deadlock"), "{msg}");
    }
}
