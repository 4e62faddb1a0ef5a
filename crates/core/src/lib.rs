//! # planet-core
//!
//! The PLANET transaction programming model (SIGMOD 2014): *Predictive
//! Latency-Aware NEtworked Transactions*. This crate is the paper's primary
//! contribution, rebuilt on the substrates in this workspace:
//!
//! * **Progress callbacks** — the internal progress of a geo-replicated
//!   commit (per-replica votes, per-key quorum resolution) is exposed to the
//!   application as [`TxnEvent`]s, each carrying a freshly predicted commit
//!   likelihood.
//! * **Commit-likelihood prediction** — each site's client maintains an
//!   online [`planet_predict::LikelihoodModel`] fed by every observed vote.
//! * **Speculative commits** — when the likelihood crosses an
//!   application-chosen threshold the app may respond to its user early,
//!   accepting a (measured) risk of a later [`TxnEvent::Apology`].
//! * **Deadlines** — control returns to the application at its deadline with
//!   the current likelihood while the transaction finishes in the
//!   background.
//! * **Admission control** — transactions predicted to abort are refused at
//!   submission, protecting goodput under contention.
//!
//! Entry point: [`Planet::builder`]. Its [`build`](PlanetBuilder::build)
//! returns the deterministic simulated deployment every experiment runs
//! on; its [`live`](PlanetBuilder::live) deploys the same stack on
//! `planet-cluster`'s reactor, over the channel fabric or tcp, against the
//! wall clock. Both are one handle, [`Planet`], whose shared methods are
//! written once over the [`Fabric`] it runs on.

#![warn(missing_docs)]

mod admission;
mod client;
mod db;
mod txn;

pub use admission::{AdmissionController, AdmissionPolicy, RefusalReason};
pub use client::{ClientActor, PredictionPoint, SourceMode, TxnRecord, TxnSource};
pub use db::{Clients, Fabric, Live, LiveFabric, Planet, PlanetBuilder, Sim};
pub use planet_cluster::{Harvest, PlaneConfig};
pub use txn::{
    ChainTrigger, EventCallback, FinalOutcome, PlanetTxn, Stage, TxnBuilder, TxnEvent, TxnHandle,
};

// Re-export the vocabulary types applications need.
pub use planet_mdcc::{KeyRead, Protocol, TxnSpec};
pub use planet_plan::{
    CompiledPlan, DeltaRef, KeyRef, KeyTemplate, OpTemplate, PlanError, PlanId, PlanParam,
    TxnProgram,
};
pub use planet_sim::{SimDuration, SimTime};
pub use planet_storage::{Key, Value, WriteOp};
