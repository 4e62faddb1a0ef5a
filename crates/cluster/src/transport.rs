//! The pluggable message fabric underneath a live cluster.

use planet_mdcc::{Msg, Outcome, TxnStats};
use planet_sim::{ActorId, SimTime};
use planet_storage::TxnId;

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
/// Backpressure: a send *may* block while the destination's bounded mailbox
/// is full — that is the mechanism that keeps queues (and therefore queueing
/// latency) bounded. The exception is client load — a transaction submitted
/// as `Msg::Submit` or as `Msg::SubmitPlan` (`Msg::submission` tells) —
/// which transports shed rather than block on (see [`ChannelTransport`]), so
/// it can never wedge the protocol plane; the client gets a
/// `shed_bounce` instead.
///
/// [`ChannelTransport`]: crate::ChannelTransport
pub trait Transport: Send + Sync {
    /// Enqueue `env` for delivery.
    fn send(&self, env: Envelope);

    /// Enqueue a batch of envelopes, draining `envs` (the caller keeps the
    /// vector's capacity for reuse). Implementations coalesce: one fabric
    /// handoff per shard, one socket write per destination. Per-(src, dst)
    /// delivery order follows the order within `envs`, exactly as a loop of
    /// [`send`]s would.
    ///
    /// [`send`]: Transport::send
    fn send_many(&self, envs: &mut Vec<Envelope>) {
        for env in envs.drain(..) {
            self.send(env);
        }
    }
}
