//! What a live node is to the code that holds it: the shared [`Clock`], the
//! [`Packet`]s its mailbox carries, and the [`NodeHandle`] / [`PoolHandle`]
//! through which a harness calls into, injects into, and finally stops and
//! harvests a spawned actor or actor pool.
//!
//! Every actor runs as a task on the [`Reactor`](crate::reactor::Reactor),
//! which funnels each delivered message through [`planet_sim::drive_into`],
//! the same factored step function the deterministic engine uses, so the
//! protocol logic is byte-for-byte shared between the simulated and live
//! worlds. The handles here are what `Reactor::spawn` / `spawn_pool` return.

use std::sync::Arc;
use std::time::{Duration, Instant};

use planet_mdcc::Msg;
use planet_sim::{Actor, ActorId, Metrics, SimTime};

use crate::plane::MailboxSender;
use crate::reactor::TaskCore;
use crate::transport::Envelope;

/// A shared wall-clock epoch. Every node and the delay fabric of a cluster
/// share one clock, so "now" is consistent across threads and maps directly
/// onto [`SimTime`] (microseconds since cluster start) — the same timeline
/// the network model's spike and partition windows are expressed in, and
/// the one a mailbox stamp ([`Instant`]) converts to and from.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    epoch: Instant,
}

impl Clock {
    /// A clock whose origin is now.
    pub fn new() -> Self {
        Clock {
            epoch: Instant::now(),
        }
    }

    /// Wall time since the epoch, as a [`SimTime`].
    pub fn now(&self) -> SimTime {
        self.sim_time(Instant::now())
    }

    /// The wall-clock instant `at` on this clock's timeline.
    pub fn instant(&self, at: SimTime) -> Instant {
        self.epoch + Duration::from_micros(at.as_micros())
    }

    /// `at` as a [`SimTime`] on this clock's timeline (the epoch for an
    /// instant before it).
    pub fn sim_time(&self, at: Instant) -> SimTime {
        SimTime::from_micros(at.saturating_duration_since(self.epoch).as_micros() as u64)
    }
}

impl Default for Clock {
    fn default() -> Self {
        Clock::new()
    }
}

/// A closure executed by the worker driving the node's task, with exclusive
/// access to its actor. The returned messages go to the front of the
/// drive's batch as envelopes from the actor to itself, so they run next,
/// ahead of every packet already queued: that is how facade-level
/// operations such as staging a transaction and firing its submit timer
/// stay atomic with respect to protocol traffic.
pub type CallFn = Box<dyn FnOnce(&mut dyn Actor<Msg>) -> Vec<Msg> + Send>;

/// What a node's mailbox carries.
pub enum Packet {
    /// A protocol message from another actor.
    Env(Envelope),
    /// Run a closure against the actor, between two of its messages.
    Call(CallFn),
    /// Stop; the task finalizes and publishes its actor for harvesting.
    Stop,
}

/// A handle to a spawned node: its id, its mailbox, and the reactor task
/// through which the actor (and the node's private metrics registry) is
/// recovered at shutdown.
pub struct NodeHandle {
    /// The actor this node runs.
    pub id: ActorId,
    /// The node's mailbox.
    pub mailbox: MailboxSender,
    pub(crate) core: Arc<TaskCore>,
}

impl NodeHandle {
    /// Run `f` with exclusive access to the actor (on whichever reactor
    /// worker drives the task next); messages it returns are delivered to
    /// the actor immediately after.
    pub fn call(&self, f: impl FnOnce(&mut dyn Actor<Msg>) -> Vec<Msg> + Send + 'static) {
        let _ = self.mailbox.send(Packet::Call(Box::new(f)));
    }

    /// Deliver a message to the actor directly (bypassing any transport
    /// delay model), as if self-sent. Mirrors `Simulation::inject_at`.
    pub fn inject(&self, msg: Msg) {
        let _ = self.mailbox.send(Packet::Env(Envelope {
            from: self.id,
            to: self.id,
            msg,
        }));
    }

    /// Stop the node and recover its actor and metrics.
    pub fn stop_and_join(self) -> (Box<dyn Actor<Msg>>, Metrics) {
        let _ = self.mailbox.send(Packet::Stop);
        let (mut members, metrics) = self.core.wait_finished();
        let (_, actor) = members
            .pop()
            .expect("single-actor task harvests one member");
        (actor, metrics)
    }
}

/// A pool's member list: each actor with its id. What
/// [`Reactor::spawn_pool`](crate::reactor::Reactor::spawn_pool) consumes and
/// [`PoolHandle::stop_and_join`] gives back.
pub type PoolMembers = Vec<(ActorId, Box<dyn Actor<Msg>>)>;

/// A handle to a spawned actor pool: the member ids, the shared mailbox,
/// and the reactor task through which the actors (and the pool's metrics
/// registry) are recovered at shutdown.
pub struct PoolHandle {
    /// Ids of the pooled actors, in spawn order.
    pub ids: Vec<ActorId>,
    /// The pool's shared mailbox (every member id routes here).
    pub mailbox: MailboxSender,
    pub(crate) core: Arc<TaskCore>,
}

impl PoolHandle {
    /// Stop the pool and recover every member actor plus the pool's shared
    /// metrics registry.
    pub fn stop_and_join(self) -> (PoolMembers, Metrics) {
        let _ = self.mailbox.send(Packet::Stop);
        self.core.wait_finished()
    }
}
