//! The batched message plane: tuning knobs and bounded mailboxes.
//!
//! Every live node receives packets through a bounded [`MailboxSender`] /
//! [`MailboxReceiver`] pair. The bound is the backpressure mechanism of the
//! live cluster: a sender that would overflow a peer's mailbox *blocks*
//! until the peer drains (protocol traffic must never be silently lost to
//! queueing), except for client `Submit`s, which the transports *shed* —
//! bounced straight back as a timed-out `TxnDone` so the admission story
//! stays end-to-end (see [`ChannelTransport`]). Unbounded mailboxes are
//! exactly the >64-client latency collapse: queues grow without limit, and
//! every queued message ages before it is even looked at.
//!
//! [`PlaneConfig`] carries the two knobs ([`max_batch`], the mailbox
//! capacity) plus the fabric shard count, and travels from
//! `LiveClusterBuilder` / `LivePlanetBuilder` down to the reactor's workers.
//!
//! [`max_batch`]: PlaneConfig::max_batch
//! [`ChannelTransport`]: crate::ChannelTransport

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::node::Packet;

/// A hook invoked after every successful mailbox enqueue: how the reactor
/// learns a task has traffic. Set once (before the task goes live) via
/// [`MailboxReceiver::set_waker`].
pub type Waker = Arc<dyn Fn() + Send + Sync>;

/// Tuning knobs for the batched message plane. One value configures every
/// node and the transport fabric of a cluster.
#[derive(Debug, Clone, Copy)]
pub struct PlaneConfig {
    /// Most packets a node drains (and drives) per mailbox wakeup before
    /// flushing its accumulated sends as one coalesced transport batch.
    pub max_batch: usize,
    /// Mailbox capacity. Senders of protocol traffic block when the
    /// destination is full; client `Submit`s are shed instead (bounced as a
    /// timed-out `TxnDone`). Must comfortably exceed the worst-case
    /// instantaneous fan-in of the protocol or backpressure degenerates
    /// into lock-step.
    pub mailbox_capacity: usize,
    /// Number of fabric threads the in-process [`ChannelTransport`] shards
    /// deliveries over (by destination actor, preserving per-pair FIFO).
    ///
    /// [`ChannelTransport`]: crate::ChannelTransport
    pub fabric_shards: usize,
    /// Delivery coalescing horizon of the fabric, in microseconds. When a
    /// fabric thread wakes it delivers every held message due within the
    /// next `fabric_slack_us`, not just the one whose timer fired — one
    /// futex sleep/wake cycle then covers a whole window of deliveries, and
    /// destinations receive bursts their task drains in one drive.
    /// Messages may arrive up to this much *early*; keep it well under the
    /// smallest modelled cross-site delay (per-pair FIFO is unaffected).
    /// The same horizon caps how long a reactor worker may hold a pending
    /// coalesced flush before handing it to the transport.
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
            // Sharding the fabric past the host's parallelism buys no
            // concurrency and costs a futex wake per extra shard on every
            // coalesced flush that spans destinations, so the default
            // tracks the core count (capped at 4 — delivery is cheap).
            fabric_shards: default_workers().min(4),
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

/// Shared admission gate of one mailbox: depth and high-water tracking plus
/// the condition senders block on.
struct Gate {
    state: Mutex<GateState>,
    drained: Condvar,
}

struct GateState {
    depth: usize,
    closed: bool,
    /// Invoked (outside the gate lock) after every successful enqueue.
    waker: Option<Waker>,
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

/// The sending half of a bounded mailbox. Cloneable; every clone shares the
/// same capacity gate.
#[derive(Clone)]
pub struct MailboxSender {
    tx: Sender<(Instant, Packet)>,
    gate: Arc<Gate>,
    // Depth watermark for stats; the gate mutex carries the real
    // synchronization. check:allow(atomics)
    high_water: Arc<AtomicUsize>,
    capacity: usize,
}

impl MailboxSender {
    /// Enqueue `packet`, blocking while the mailbox is full (backpressure).
    /// Returns the packet if the receiving node is gone.
    // The Err variant hands the undelivered packet back (as std's
    // SendError does); its size is the price of not dropping messages.
    #[allow(clippy::result_large_err)]
    pub fn send(&self, packet: Packet) -> Result<(), Packet> {
        let waker = {
            let mut state = self.gate.state.lock().expect("lock poisoned");
            loop {
                if state.closed {
                    return Err(packet);
                }
                if state.depth < self.capacity {
                    break;
                }
                state = self.gate.drained.wait(state).expect("lock poisoned");
            }
            state.depth += 1;
            self.high_water.fetch_max(state.depth, Ordering::Relaxed);
            state.waker.clone()
        };
        self.tx.send((Instant::now(), packet)).map_err(|e| {
            self.on_send_failed();
            e.0 .1
        })?;
        if let Some(waker) = waker {
            waker();
        }
        Ok(())
    }

    /// Enqueue `packet` without blocking; a full mailbox hands the packet
    /// back so the caller can shed it.
    #[allow(clippy::result_large_err)]
    pub fn try_send(&self, packet: Packet) -> Result<(), TrySendError> {
        let waker = {
            let mut state = self.gate.state.lock().expect("lock poisoned");
            if state.closed {
                return Err(TrySendError::Closed(packet));
            }
            if state.depth >= self.capacity {
                return Err(TrySendError::Full(packet));
            }
            state.depth += 1;
            self.high_water.fetch_max(state.depth, Ordering::Relaxed);
            state.waker.clone()
        };
        self.tx.send((Instant::now(), packet)).map_err(|e| {
            self.on_send_failed();
            TrySendError::Closed(e.0 .1)
        })?;
        if let Some(waker) = waker {
            waker();
        }
        Ok(())
    }

    /// Undo the depth reservation after a failed channel send (receiver
    /// dropped between the gate check and the send).
    fn on_send_failed(&self) {
        let mut state = self.gate.state.lock().expect("lock poisoned");
        state.depth -= 1;
        state.closed = true;
        self.gate.drained.notify_all();
    }
}

/// The receiving half of a bounded mailbox, owned by the node's task. Dropping
/// it marks the mailbox closed and unblocks every waiting sender.
pub struct MailboxReceiver {
    rx: Receiver<(Instant, Packet)>,
    gate: Arc<Gate>,
    high_water: Arc<AtomicUsize>, // check:allow(atomics)
}

impl MailboxReceiver {
    /// Receive one packet, waiting up to `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Packet, RecvTimeoutError> {
        let (_, packet) = self.rx.recv_timeout(timeout)?;
        self.note_dequeue();
        Ok(packet)
    }

    /// Receive one packet if one is already queued.
    pub fn try_recv(&self) -> Result<Packet, TryRecvError> {
        self.try_recv_stamped().map(|(p, _)| p)
    }

    /// [`try_recv`](Self::try_recv), also yielding when the packet was
    /// enqueued — the base of the `span.queue` measurement.
    pub fn try_recv_stamped(&self) -> Result<(Packet, Instant), TryRecvError> {
        let (at, packet) = self.rx.try_recv()?;
        self.note_dequeue();
        Ok((packet, at))
    }

    /// Install the wake hook invoked after every successful enqueue. The
    /// reactor sets this before a task goes live (and schedules the task
    /// once right after), so no arrival can slip through unobserved.
    pub fn set_waker(&self, waker: Waker) {
        self.gate.state.lock().expect("lock poisoned").waker = Some(waker);
    }

    /// Packets currently queued (including any a blocked sender is about to
    /// enqueue).
    pub fn depth(&self) -> usize {
        self.gate.state.lock().expect("lock poisoned").depth
    }

    /// Deepest the mailbox has ever been.
    pub fn high_water(&self) -> usize {
        self.high_water.load(Ordering::Relaxed)
    }

    fn note_dequeue(&self) {
        let mut state = self.gate.state.lock().expect("lock poisoned");
        state.depth -= 1;
        self.gate.drained.notify_one();
    }
}

impl Drop for MailboxReceiver {
    fn drop(&mut self) {
        let mut state = self.gate.state.lock().expect("lock poisoned");
        state.closed = true;
        self.gate.drained.notify_all();
    }
}

/// Create a bounded mailbox holding at most `capacity` packets.
pub fn mailbox(capacity: usize) -> (MailboxSender, MailboxReceiver) {
    assert!(capacity > 0, "mailbox capacity must be positive");
    let (tx, rx) = channel();
    let gate = Arc::new(Gate {
        state: Mutex::new(GateState {
            depth: 0,
            closed: false,
            waker: None,
        }),
        drained: Condvar::new(),
    });
    let high_water = Arc::new(AtomicUsize::new(0));
    (
        MailboxSender {
            tx,
            gate: gate.clone(),
            high_water: high_water.clone(),
            capacity,
        },
        MailboxReceiver {
            rx,
            gate,
            high_water,
        },
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
}
