//! The discrete-event simulation engine.
//!
//! The engine owns the actors, the event queue, the network model, the clock,
//! the RNG and the metrics registry. Execution is single-threaded and
//! deterministic: events are ordered by `(time, sequence number)` where the
//! sequence number breaks ties in scheduling order.
//!
//! Every event is driven into one effects buffer the engine owns and
//! drains, as the live runtime's workers do with theirs: an event
//! allocates what its messages carry, and nothing for being an event.
//!
//! Events wait on an [`EventQueue`], the same queue a live reactor task
//! holds its timers on. The per-channel FIFO high-water marks are a dense
//! table indexed by `(src, dst)`, sized when the run starts (actors are
//! fixed from then on): a send hashes nothing.

use crate::actor::{drive_into, drive_start, Actor, ActorId, Effect, TurnInputs};
use crate::metrics::Metrics;
use crate::net::{NetworkModel, SiteId};
use crate::queue::EventQueue;
use crate::rng::DetRng;
use crate::time::{SimDuration, SimTime};

/// What a scheduled delivery carries.
struct Payload<M> {
    from: ActorId,
    dst: ActorId,
    msg: M,
}

/// The simulation engine. `M` is the message type shared by all actors.
pub struct Simulation<M> {
    time: SimTime,
    queue: EventQueue<Payload<M>>,
    actors: Vec<Option<Box<dyn Actor<M>>>>,
    sites: Vec<SiteId>,
    net: NetworkModel,
    rng: DetRng,
    metrics: Metrics,
    /// What the turn being dispatched emitted; empty between turns.
    effects: Vec<Effect<M>>,
    started: bool,
    events_processed: u64,
    dropped_messages: u64,
    /// Per-(src, dst) pair, at `src * actors + dst`: the latest delivery
    /// time scheduled so far. Deliveries between one ordered pair never
    /// reorder (TCP-like FIFO channels); cross-pair timing remains fully
    /// stochastic. Sized when the run starts.
    fifo_high_water: Vec<SimTime>,
}

impl<M: 'static> Simulation<M> {
    /// Create a simulation over the given network model, seeded
    /// deterministically.
    pub fn new(net: NetworkModel, seed: u64) -> Self {
        Simulation {
            time: SimTime::ZERO,
            queue: EventQueue::new(),
            actors: Vec::new(),
            sites: Vec::new(),
            net,
            rng: DetRng::new(seed),
            metrics: Metrics::new(),
            effects: Vec::new(),
            started: false,
            events_processed: 0,
            dropped_messages: 0,
            fifo_high_water: Vec::new(),
        }
    }

    /// Register an actor at a site, returning its id. All actors must be
    /// registered before the first call to a `run_*` method.
    pub fn add_actor(&mut self, site: SiteId, actor: Box<dyn Actor<M>>) -> ActorId {
        assert!(
            !self.started,
            "cannot add actors after the simulation started"
        );
        assert!(
            (site.0 as usize) < self.net.num_sites(),
            "site {site} not in topology"
        );
        let id = ActorId(self.actors.len() as u32);
        self.actors.push(Some(actor));
        self.sites.push(site);
        id
    }

    /// The site an actor was registered at.
    pub fn site_of(&self, id: ActorId) -> SiteId {
        self.sites[id.0 as usize]
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.time
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Messages lost to the network model so far.
    pub fn dropped_messages(&self) -> u64 {
        self.dropped_messages
    }

    /// Shared metrics registry (read access).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The network model (e.g. to add spikes before running).
    pub fn network_mut(&mut self) -> &mut NetworkModel {
        &mut self.net
    }

    /// Inject a message from "outside" (the harness) to an actor at an
    /// absolute time. Must not be in the past.
    pub fn inject_at(&mut self, at: SimTime, dst: ActorId, msg: M) {
        assert!(at >= self.time, "cannot inject into the past");
        self.push_event(at, dst, dst, msg);
    }

    /// Queue `msg` for delivery to `dst` at `at`, after everything already
    /// queued for the same instant.
    fn push_event(&mut self, at: SimTime, from: ActorId, dst: ActorId, msg: M) {
        self.queue.push(at, Payload { from, dst, msg });
    }

    fn start_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        let n = self.actors.len();
        self.fifo_high_water = vec![SimTime::ZERO; n * n];
        for i in 0..n {
            self.dispatch_start(ActorId(i as u32));
        }
    }

    fn dispatch_start(&mut self, id: ActorId) {
        let mut actor = self.actors[id.0 as usize].take().expect("actor missing");
        let inputs = TurnInputs {
            now: self.time,
            self_id: id,
            self_site: self.sites[id.0 as usize],
        };
        let effects = drive_start(actor.as_mut(), inputs, &mut self.rng, &mut self.metrics);
        self.actors[id.0 as usize] = Some(actor);
        self.effects.extend(effects);
        self.apply_effects(id);
    }

    /// Turn what `src`'s turn left in the effects buffer into scheduled
    /// events, in the order it was emitted.
    fn apply_effects(&mut self, src: ActorId) {
        let mut effects = std::mem::take(&mut self.effects);
        for effect in effects.drain(..) {
            match effect {
                Effect::Send { dst, msg } => {
                    let src_site = self.sites[src.0 as usize];
                    let dst_site = self.sites[dst.0 as usize];
                    match self
                        .net
                        .sample_delay(src_site, dst_site, self.time, &mut self.rng)
                    {
                        Some(delay) => {
                            let mut at = self.time + delay;
                            // FIFO per ordered pair: a message never
                            // overtakes an earlier one on the same channel.
                            let pair = src.0 as usize * self.actors.len() + dst.0 as usize;
                            let hw = &mut self.fifo_high_water[pair];
                            if at <= *hw {
                                at = *hw + SimDuration::from_micros(1);
                            }
                            *hw = at;
                            self.push_event(at, src, dst, msg);
                        }
                        None => self.dropped_messages += 1,
                    }
                }
                Effect::Timer { delay, msg } => self.push_event(self.time + delay, src, src, msg),
            }
        }
        self.effects = effects;
    }

    /// Process a single event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        self.start_if_needed();
        let Some((at, Payload { from, dst, msg })) =
            self.queue.peek_at().and_then(|at| self.queue.pop_due(at))
        else {
            return false;
        };
        debug_assert!(at >= self.time, "time went backwards");
        self.time = at;
        self.events_processed += 1;

        let idx = dst.0 as usize;
        let mut actor = self.actors[idx]
            .take()
            .expect("actor missing (re-entrant dispatch?)");
        let inputs = TurnInputs {
            now: self.time,
            self_id: dst,
            self_site: self.sites[idx],
        };
        drive_into(
            actor.as_mut(),
            inputs,
            from,
            msg,
            &mut self.rng,
            &mut self.metrics,
            &mut self.effects,
        );
        self.actors[idx] = Some(actor);
        self.apply_effects(dst);
        true
    }

    /// Run until the queue drains or `deadline` passes. Returns the time at
    /// which the run stopped.
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        self.start_if_needed();
        while self.queue.peek_at().is_some_and(|at| at <= deadline) {
            self.step();
        }
        // Advance the clock to the deadline if we stopped early with events
        // still pending beyond it.
        if self.time < deadline && !self.queue.is_empty() {
            self.time = deadline;
        }
        self.time
    }

    /// Run for an additional `span` of simulated time.
    pub fn run_for(&mut self, span: SimDuration) -> SimTime {
        let deadline = self.time + span;
        self.run_until(deadline)
    }

    /// Run until the event queue is empty. `max_events` bounds runaway
    /// simulations (panics if exceeded).
    pub fn run_to_completion(&mut self, max_events: u64) {
        self.start_if_needed();
        let start = self.events_processed;
        while self.step() {
            assert!(
                self.events_processed - start <= max_events,
                "simulation exceeded {max_events} events — livelock?"
            );
        }
    }

    /// Borrow a registered actor (e.g. to read results after a run). Panics
    /// if the id is unknown.
    pub fn actor(&self, id: ActorId) -> &dyn Actor<M> {
        self.actors[id.0 as usize]
            .as_deref()
            .expect("actor missing")
    }

    /// Borrow a registered actor downcast to its concrete type, or `None`
    /// if the type does not match.
    pub fn actor_as<T: Actor<M>>(&self, id: ActorId) -> Option<&T>
    where
        M: 'static,
    {
        let actor: &dyn std::any::Any = self.actors[id.0 as usize].as_deref()?;
        actor.downcast_ref::<T>()
    }

    /// Mutably borrow a registered actor downcast to its concrete type.
    pub fn actor_as_mut<T: Actor<M>>(&mut self, id: ActorId) -> Option<&mut T>
    where
        M: 'static,
    {
        let actor: &mut dyn std::any::Any = self.actors[id.0 as usize].as_deref_mut()?;
        actor.downcast_mut::<T>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::Context;
    use crate::topology;

    #[derive(Debug, Clone, PartialEq)]
    enum TestMsg {
        Ping(u32),
        Pong(u32),
        Tick,
    }

    /// Replies to pings, counts what it saw.
    struct Ponger {
        seen: Vec<u32>,
    }

    impl Actor<TestMsg> for Ponger {
        fn on_message(&mut self, from: ActorId, msg: TestMsg, ctx: &mut Context<'_, TestMsg>) {
            if let TestMsg::Ping(n) = msg {
                self.seen.push(n);
                ctx.send(from, TestMsg::Pong(n));
            }
        }
    }

    /// Sends pings on start and on a periodic timer; records pong latencies.
    struct Pinger {
        peer: ActorId,
        remaining: u32,
        sent_at: std::collections::HashMap<u32, SimTime>,
        latencies: Vec<SimDuration>,
        next: u32,
    }

    impl Actor<TestMsg> for Pinger {
        fn on_start(&mut self, ctx: &mut Context<'_, TestMsg>) {
            ctx.schedule(SimDuration::from_millis(1), TestMsg::Tick);
        }

        fn on_message(&mut self, _from: ActorId, msg: TestMsg, ctx: &mut Context<'_, TestMsg>) {
            match msg {
                TestMsg::Tick => {
                    if self.remaining > 0 {
                        self.remaining -= 1;
                        let n = self.next;
                        self.next += 1;
                        self.sent_at.insert(n, ctx.now());
                        ctx.send(self.peer, TestMsg::Ping(n));
                        ctx.schedule(SimDuration::from_millis(10), TestMsg::Tick);
                    }
                }
                TestMsg::Pong(n) => {
                    let sent = self.sent_at[&n];
                    let rtt = ctx.now() - sent;
                    self.latencies.push(rtt);
                    ctx.metrics().histogram("rtt").record(rtt.as_micros());
                }
                TestMsg::Ping(_) => unreachable!(),
            }
        }
    }

    fn build() -> (Simulation<TestMsg>, ActorId) {
        let mut sim = Simulation::new(topology::three_dc(), 42);
        let ponger = sim.add_actor(SiteId(2), Box::new(Ponger { seen: Vec::new() }));
        let pinger = sim.add_actor(
            SiteId(0),
            Box::new(Pinger {
                peer: ponger,
                remaining: 5,
                sent_at: Default::default(),
                latencies: Vec::new(),
                next: 0,
            }),
        );
        (sim, pinger)
    }

    #[test]
    fn ping_pong_round_trips_near_rtt() {
        let (mut sim, pinger) = build();
        sim.run_to_completion(10_000);
        let h = sim.metrics().get_histogram("rtt").unwrap();
        assert_eq!(h.count(), 5);
        // site0 <-> site2 RTT is 150ms; jitter is mild.
        let mean = h.mean().unwrap() / 1_000.0;
        assert!((mean - 150.0).abs() < 25.0, "mean rtt {mean}ms");
        let _ = sim.actor(pinger); // still retrievable after the run
    }

    #[test]
    fn identical_seeds_replay_identically() {
        let run = |seed| {
            let mut sim = Simulation::new(topology::three_dc(), seed);
            let ponger = sim.add_actor(SiteId(2), Box::new(Ponger { seen: Vec::new() }));
            let _ = sim.add_actor(
                SiteId(0),
                Box::new(Pinger {
                    peer: ponger,
                    remaining: 5,
                    sent_at: Default::default(),
                    latencies: Vec::new(),
                    next: 0,
                }),
            );
            sim.run_to_completion(10_000);
            (sim.now(), sim.events_processed())
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn run_until_respects_deadline() {
        let (mut sim, _) = build();
        let stop = sim.run_until(SimTime::from_millis(5));
        assert!(stop <= SimTime::from_millis(5));
        // First ping fires at 1ms; pong can't have arrived inside 5ms
        // (one-way delay is 75ms), so no RTT samples yet.
        assert!(sim.metrics().get_histogram("rtt").is_none());
    }

    #[test]
    fn same_pair_messages_never_reorder() {
        // A burst of pings from one actor to another must arrive in send
        // order despite independent jitter draws.
        struct Burst {
            peer: ActorId,
        }
        impl Actor<TestMsg> for Burst {
            fn on_start(&mut self, ctx: &mut Context<'_, TestMsg>) {
                for n in 0..50 {
                    ctx.send(self.peer, TestMsg::Ping(n));
                }
            }
            fn on_message(&mut self, _f: ActorId, _m: TestMsg, _c: &mut Context<'_, TestMsg>) {}
        }
        let mut sim = Simulation::new(topology::three_dc(), 11);
        let ponger = sim.add_actor(SiteId(2), Box::new(Ponger { seen: Vec::new() }));
        let _burst = sim.add_actor(SiteId(0), Box::new(Burst { peer: ponger }));
        sim.run_for(SimDuration::from_secs(2));
        let seen = &sim.actor_as::<Ponger>(ponger).unwrap().seen;
        assert_eq!(*seen, (0..50).collect::<Vec<_>>(), "FIFO per channel");
    }

    #[test]
    fn inject_delivers_external_messages() {
        let mut sim: Simulation<TestMsg> = Simulation::new(topology::single_dc(), 1);
        let ponger = sim.add_actor(SiteId(0), Box::new(Ponger { seen: Vec::new() }));
        sim.inject_at(SimTime::from_millis(3), ponger, TestMsg::Ping(99));
        sim.run_to_completion(100);
        assert!(sim.now() >= SimTime::from_millis(3));
    }

    #[test]
    #[should_panic(expected = "cannot inject into the past")]
    fn inject_into_past_panics() {
        let mut sim: Simulation<TestMsg> = Simulation::new(topology::single_dc(), 1);
        let a = sim.add_actor(SiteId(0), Box::new(Ponger { seen: Vec::new() }));
        sim.inject_at(SimTime::from_millis(10), a, TestMsg::Tick);
        sim.run_to_completion(100);
        sim.inject_at(SimTime::from_millis(1), a, TestMsg::Tick);
    }

    #[test]
    fn actor_downcast_mismatch_returns_none() {
        let mut sim: Simulation<TestMsg> = Simulation::new(topology::single_dc(), 1);
        let id = sim.add_actor(SiteId(0), Box::new(Ponger { seen: Vec::new() }));
        assert!(sim.actor_as::<Ponger>(id).is_some());
        assert!(sim.actor_as::<Pinger>(id).is_none());
        assert!(sim.actor_as_mut::<Pinger>(id).is_none());
        assert_eq!(sim.site_of(id), SiteId(0));
    }

    #[test]
    fn dropped_messages_are_counted() {
        let mut sim: Simulation<TestMsg> = Simulation::new(topology::three_dc(), 2);
        sim.network_mut().loss_prob = 1.0; // all inter-site traffic dies
        let ponger = sim.add_actor(SiteId(2), Box::new(Ponger { seen: Vec::new() }));
        let _pinger = sim.add_actor(
            SiteId(0),
            Box::new(Pinger {
                peer: ponger,
                remaining: 3,
                sent_at: Default::default(),
                latencies: Vec::new(),
                next: 0,
            }),
        );
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(sim.dropped_messages(), 3, "all three pings must be lost");
        let seen = &sim.actor_as::<Ponger>(ponger).unwrap().seen;
        assert!(seen.is_empty());
    }

    #[test]
    #[should_panic(expected = "site")]
    fn adding_actor_at_unknown_site_panics() {
        let mut sim: Simulation<TestMsg> = Simulation::new(topology::single_dc(), 1);
        sim.add_actor(SiteId(3), Box::new(Ponger { seen: Vec::new() }));
    }
}
