//! # planet-mdcc
//!
//! A geo-replicated, strongly consistent transactional store in the style of
//! MDCC (Kraska et al., EuroSys 2013) — the substrate the PLANET SIGMOD 2014
//! evaluation ran on, rebuilt from scratch because no open-source version
//! exists (see DESIGN.md).
//!
//! Three commit paths are provided:
//!
//! * [`Protocol::Fast`] — coordinator proposes options directly to every
//!   replica; a fast quorum (⌈3N/4⌉) of independent validations commits a
//!   key in one coordinator↔replica round trip.
//! * [`Protocol::Classic`] — options route through each key's master, which
//!   validates and replicates; replicas ack straight to the coordinator.
//! * [`Protocol::TwoPc`] — the primary-copy 2PC baseline: acks return via
//!   the master, which votes once a majority is durable.
//!
//! Replica convergence uses master-sequenced state transfer (`Apply`
//! messages), so every copy converges to the master's commit order
//! regardless of WAN message timing; pending options are leased so lost
//! decisions cannot wedge a record.
//!
//! The coordinator streams fine-grained [`ProgressStage`] events (per-replica
//! votes with elapsed times, per-key resolutions) to the submitting client —
//! this event stream is exactly what `planet-core`'s commit-likelihood
//! predictor consumes.

#![warn(missing_docs)]

mod cluster;
mod config;
mod coordinator;
pub mod digest;
mod messages;
mod replica_actor;
pub mod trace;

pub use cluster::{
    build_cluster, build_sim, server_actors, set_spec, Cluster, CompletedTxn, TestClient,
};
pub use config::{ClusterConfig, Protocol};
pub use coordinator::CoordinatorActor;
pub use messages::{KeyRead, Msg, Outcome, ProgressStage, ReadLevel, TxnSpec, TxnStats};
pub use replica_actor::ReplicaActor;
pub use trace::{FileSink, Trace, TraceEvent, TraceSink, VecSink};
