//! The actor abstraction executed by the simulation engine.
//!
//! Every protocol participant — storage replica, transaction coordinator,
//! workload client — is an [`Actor`]. Actors communicate exclusively by
//! message passing through the engine, which applies the network model's
//! delays; there is no shared mutable state, which is what makes a run
//! deterministic and replayable.

use crate::net::SiteId;
use crate::rng::DetRng;
use crate::time::{SimDuration, SimTime};

/// Identifies an actor within a simulation. Ids are assigned densely in
/// registration order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActorId(pub u32);

impl std::fmt::Display for ActorId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "actor#{}", self.0)
    }
}

/// A participant in the simulation, parameterised over the message type `M`
/// shared by all actors in a given simulation.
///
/// The `Any` supertrait lets harnesses downcast a registered actor back to
/// its concrete type after a run (see [`Simulation::actor_as`]) to harvest
/// results.
///
/// [`Simulation::actor_as`]: crate::Simulation::actor_as
/// `Send` lets a whole simulation move to a background thread (the
/// wall-clock runtime in `planet-core` does this).
pub trait Actor<M>: std::any::Any + Send {
    /// Called once when the simulation starts, before any messages flow.
    fn on_start(&mut self, _ctx: &mut Context<'_, M>) {}

    /// Called for each delivered message. `from` is the sending actor
    /// (equal to the receiver's own id for self-scheduled timer messages).
    fn on_message(&mut self, from: ActorId, msg: M, ctx: &mut Context<'_, M>);
}

/// Operations an actor may perform while handling a message. Each operation
/// is recorded by the engine and applied after the handler returns, keeping
/// event ordering under the engine's control.
pub struct Context<'a, M> {
    pub(crate) now: SimTime,
    pub(crate) self_id: ActorId,
    pub(crate) self_site: SiteId,
    pub(crate) rng: &'a mut DetRng,
    pub(crate) outbox: &'a mut Vec<Effect<M>>,
    pub(crate) metrics: &'a mut crate::metrics::Metrics,
}

/// A side effect emitted by an actor handler.
///
/// Public so that *drivers other than the simulation engine* — the live
/// cluster's reactor in `planet-cluster` — can apply
/// the effects of a [`drive`] call to their own fabric. Within the
/// deterministic engine, effects are still applied in emission order by the
/// scheduler.
#[derive(Debug)]
pub enum Effect<M> {
    /// Send `msg` to `dst` over the network (delay applied by the driver).
    Send {
        /// Destination actor.
        dst: ActorId,
        /// The message.
        msg: M,
    },
    /// Deliver `msg` back to the sender after exactly `delay` (a timer; the
    /// network model is not involved).
    Timer {
        /// How long from now the timer fires.
        delay: SimDuration,
        /// The message delivered back to the emitting actor.
        msg: M,
    },
}

/// Identity and clock inputs for one [`drive`] call — everything the
/// [`Context`] needs that is not borrowed state.
#[derive(Debug, Clone, Copy)]
pub struct TurnInputs {
    /// Current time (simulated, or wall-clock mapped to [`SimTime`]).
    pub now: SimTime,
    /// The actor being driven.
    pub self_id: ActorId,
    /// The site the actor lives at.
    pub self_site: SiteId,
}

/// Deliver one message to `actor` outside any engine, returning the effects
/// it emitted, in emission order.
///
/// This is the factored "step function" of the actor model. The simulation
/// engine and a live thread's mailbox loop both funnel events through
/// [`drive_into`] / [`drive_start`], so one body of protocol logic serves
/// both worlds; only the interpretation of the effects differs (scheduler
/// heap vs. transport + local timer heap).
pub fn drive<M: 'static>(
    actor: &mut dyn Actor<M>,
    inputs: TurnInputs,
    from: ActorId,
    msg: M,
    rng: &mut DetRng,
    metrics: &mut crate::metrics::Metrics,
) -> Vec<Effect<M>> {
    let mut effects = Vec::new();
    drive_into(actor, inputs, from, msg, rng, metrics, &mut effects);
    effects
}

/// Deliver one message to `actor`, appending its effects to `effects`
/// instead of allocating a fresh buffer.
///
/// This is the turn-group entry point used by batching drivers (the live
/// cluster's mailbox loop): a whole batch of delivered messages is driven
/// back to back into one reused effect buffer, so steady-state message
/// handling performs no per-message allocation and the driver can flush the
/// accumulated sends as a single coalesced transport batch.
pub fn drive_into<M: 'static>(
    actor: &mut dyn Actor<M>,
    inputs: TurnInputs,
    from: ActorId,
    msg: M,
    rng: &mut DetRng,
    metrics: &mut crate::metrics::Metrics,
    effects: &mut Vec<Effect<M>>,
) {
    let mut ctx = Context {
        now: inputs.now,
        self_id: inputs.self_id,
        self_site: inputs.self_site,
        rng,
        outbox: effects,
        metrics,
    };
    actor.on_message(from, msg, &mut ctx);
}

/// Run an actor's `on_start` hook outside any engine, returning the effects
/// it emitted.
pub fn drive_start<M: 'static>(
    actor: &mut dyn Actor<M>,
    inputs: TurnInputs,
    rng: &mut DetRng,
    metrics: &mut crate::metrics::Metrics,
) -> Vec<Effect<M>> {
    let mut effects = Vec::new();
    let mut ctx = Context {
        now: inputs.now,
        self_id: inputs.self_id,
        self_site: inputs.self_site,
        rng,
        outbox: &mut effects,
        metrics,
    };
    actor.on_start(&mut ctx);
    effects
}

impl<'a, M> Context<'a, M> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the actor handling this event.
    pub fn self_id(&self) -> ActorId {
        self.self_id
    }

    /// The site (data center) the handling actor lives in.
    pub fn self_site(&self) -> SiteId {
        self.self_site
    }

    /// The simulation's deterministic RNG.
    pub fn rng(&mut self) -> &mut DetRng {
        self.rng
    }

    /// The shared metrics registry.
    pub fn metrics(&mut self) -> &mut crate::metrics::Metrics {
        self.metrics
    }

    /// Send a message to another actor. The engine samples the network model
    /// for the delay between the two actors' sites; the message may be lost
    /// if the model says so.
    pub fn send(&mut self, dst: ActorId, msg: M) {
        self.outbox.push(Effect::Send { dst, msg });
    }

    /// Schedule `msg` for delivery back to this actor after `delay`,
    /// bypassing the network model. Use for timeouts and periodic work.
    pub fn schedule(&mut self, delay: SimDuration, msg: M) {
        self.outbox.push(Effect::Timer { delay, msg });
    }
}
