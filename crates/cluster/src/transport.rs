//! The pluggable message fabric underneath a live cluster.

use std::sync::Arc;
use std::time::Duration;

use planet_mdcc::{Msg, Outcome, TxnStats};
use planet_sim::{ActorId, SimTime};
use planet_storage::TxnId;

use crate::poll::Poller;

/// A protocol message in flight between two live actors.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Sending actor.
    pub from: ActorId,
    /// Destination actor.
    pub to: ActorId,
    /// The protocol message, identical to what the simulator schedules.
    pub msg: Msg,
}

/// The answer to a shed submission: a synthetic timed-out `TxnDone` from
/// the coordinator it was for (`from`) to its `reply_to`, carrying its
/// `tag`, so a closed-loop client observes the shed the way it observes any
/// other timeout. `at` stamps its submission and decision times.
pub(crate) fn shed_bounce(from: ActorId, reply_to: ActorId, tag: u64, at: SimTime) -> Envelope {
    Envelope {
        from,
        to: reply_to,
        msg: Msg::TxnDone {
            tag,
            txn: TxnId::new(0, 0),
            outcome: Outcome::TimedOut,
            stats: TxnStats {
                submitted_at: at,
                decided_at: at,
                proposals_sent_at: SimTime::ZERO,
                write_keys: 0,
                votes_received: 0,
                rejections: 0,
            },
        },
    }
}

/// A message fabric: anything that can carry an [`Envelope`] from one live
/// actor to another. Implementations decide delivery latency, loss, and
/// ordering; the reactor above is transport-agnostic.
///
/// Backpressure: a send never blocks. Destination mailboxes are bounded;
/// protocol traffic goes past the bound (a reactor worker, which is what
/// sends, must never wait on a peer), and client load — a transaction
/// submitted as `Msg::Submit` or as `Msg::SubmitPlan` (`Msg::submission`
/// tells) — is shed at it: the client gets a `shed_bounce`, a timed-out
/// `TxnDone`, instead (see [`ChannelTransport`]). Both transports apply
/// this one policy.
///
/// [`ChannelTransport`]: crate::ChannelTransport
pub trait Transport: Send + Sync {
    /// Enqueue `env` for delivery.
    fn send(&self, env: Envelope);

    /// Enqueue a batch of envelopes, draining `envs` (the caller keeps the
    /// vector's capacity for reuse): a reactor drive's outbox, handed over
    /// at the drive's end. Implementations coalesce: one fabric lock per
    /// batch, each connection's frames on one buffer (staged there, on a
    /// transport a reactor adopted, until a worker parks or the slack
    /// passes). Per-(src, dst) delivery order follows the order within
    /// `envs`, exactly as a loop of [`send`]s would.
    ///
    /// [`send`]: Transport::send
    fn send_many(&self, envs: &mut Vec<Envelope>) {
        for env in envs.drain(..) {
            self.send(env);
        }
    }

    /// The transport's socket I/O, for a reactor to run on its workers: a
    /// reactor that spawns a task sending through this transport *adopts*
    /// it (see [`Reactor`]). `None`, the default, for a transport with no
    /// sockets — and for a wrapper that does not pass its inner
    /// transport's on, whose sockets then stay on the inner transport's
    /// own I/O thread.
    ///
    /// [`Reactor`]: crate::Reactor
    fn io(&self) -> Option<Io> {
        None
    }
}

/// A transport's socket I/O, as [`Transport::io`] hands it to the reactor
/// that adopts the transport. Opaque outside this crate.
pub struct Io {
    pub(crate) source: Arc<dyn SocketIo>,
}

/// What a reactor does with an adopted transport's sockets.
pub(crate) trait SocketIo: Send + Sync {
    /// The poller that reads ready when [`poll`](Self::poll) has work: the
    /// adopting reactor nests it in each worker's park.
    fn poller(&self) -> &Poller;

    /// Do every ready socket operation, without waiting. A writable
    /// connection's staged frames are written if `idle` (the calling worker
    /// is about to park), or once the oldest has waited the slack.
    fn poll(&self, idle: bool);

    /// The reactor runs [`poll`](Self::poll) from now on: stop the
    /// transport's own I/O thread, if it runs, and stage sends for up to
    /// `slack` (the reactor's [`PlaneConfig::fabric_slack_us`]).
    ///
    /// [`PlaneConfig::fabric_slack_us`]: crate::PlaneConfig::fabric_slack_us
    fn adopted(&self, slack: Duration);
}
