//! # planet-workload
//!
//! Workload generation for the PLANET reproduction: Zipfian key popularity,
//! YCSB-style read/write mixes, the paper's motivating ticket-sales
//! scenario, Poisson/uniform arrival processes and load-spike schedules.
//!
//! Generators implement [`planet_core::TxnSource`] and attach to a site via
//! [`planet_core::Planet::attach_source`]; each site's client then paces the
//! arrivals inside the deterministic simulation. [`closed_loop`] drives a
//! live cluster the same way: one client per site carrying closed-loop
//! virtual users.

#![warn(missing_docs)]

pub mod anomaly;
pub mod arrival;
pub mod closed_loop;
pub mod keyspace;
pub mod plan;
pub mod ticket;
pub mod ycsb;
pub mod zipf;

pub use anomaly::{SpecGen, ANOMALY_WORKLOADS};
pub use arrival::{Arrival, LoadSchedule};
pub use keyspace::{KeyChooser, KeyDistribution};
pub use plan::{ticket_program, ycsb_point_program, TicketPlanParams, YcsbPointParams};
pub use ticket::{preload_events, stock_key, TicketConfig, TicketWorkload};
pub use ycsb::{WriteKind, YcsbConfig, YcsbWorkload};
pub use zipf::Zipf;
