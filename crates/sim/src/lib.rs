//! # planet-sim
//!
//! A deterministic discrete-event simulation kernel and wide-area network
//! model. This is the substrate on which the PLANET reproduction runs its
//! geo-replicated protocols: every replica, coordinator and client is an
//! [`Actor`] exchanging messages through a [`Simulation`] that applies a
//! configurable WAN latency model (base delay matrix, log-normal jitter,
//! heavy tails, loss, scheduled spikes and partitions).
//!
//! Determinism is the design center: a run is a pure function of
//! `(seed, configuration)`, so every experiment in the repository is exactly
//! replayable.
//!
//! ```
//! use planet_sim::{Actor, ActorId, Context, Simulation, SiteId, topology};
//!
//! #[derive(Debug)]
//! enum Msg { Hello }
//!
//! struct Greeter { greeted: bool }
//! impl Actor<Msg> for Greeter {
//!     fn on_message(&mut self, _from: ActorId, _msg: Msg, _ctx: &mut Context<'_, Msg>) {
//!         self.greeted = true;
//!     }
//! }
//!
//! let mut sim = Simulation::new(topology::single_dc(), 42);
//! let id = sim.add_actor(SiteId(0), Box::new(Greeter { greeted: false }));
//! sim.inject_at(planet_sim::SimTime::from_millis(1), id, Msg::Hello);
//! sim.run_to_completion(100);
//! assert!(sim.now() >= planet_sim::SimTime::from_millis(1));
//! ```

#![warn(missing_docs)]

mod actor;
mod engine;
mod hash;
pub mod metrics;
pub mod net;
mod queue;
mod rng;
mod time;
pub mod topology;

pub use actor::{drive, drive_into, drive_start, Actor, ActorId, Context, Effect, TurnInputs};
pub use engine::Simulation;
pub use hash::{FastHash, FastHasher};
pub use metrics::{Counter, Histogram, Metrics};
pub use net::{JitterModel, NetworkModel, Partition, SiteId, SiteMask, Spike};
pub use queue::EventQueue;
pub use rng::DetRng;
pub use time::{SimDuration, SimTime};
