//! # planet
//!
//! A from-scratch Rust reproduction of **PLANET: Making Progress with
//! Commit Processing in Unpredictable Environments** (Pang, Kraska,
//! Franklin, Fekete — SIGMOD 2014): a transaction programming model for
//! strongly consistent geo-replicated databases that exposes commit
//! *progress* to the application, predicts the *commit likelihood* online,
//! supports *speculative commits* (with apologies when wrong), returns
//! control at application *deadlines*, and uses the likelihood model for
//! *admission control* under contention.
//!
//! This facade re-exports the workspace:
//!
//! * [`core`] — the PLANET programming model and the [`Planet`] deployment
//!   handle (start here);
//! * [`mdcc`] — the MDCC-style geo-replicated commit protocol substrate
//!   (fast/classic Paxos-inspired paths + a 2PC baseline);
//! * [`storage`] — per-replica versioned storage with MDCC options,
//!   demarcation bounds, WAL and recovery;
//! * [`predict`] — the commit-likelihood model and its calibration
//!   instruments;
//! * [`sim`] — the deterministic discrete-event WAN simulator;
//! * [`workload`] — YCSB-style and ticket-sales workloads.
//!
//! ```
//! use planet::{Planet, PlanetTxn, Protocol, SimDuration};
//!
//! let mut db = Planet::builder().protocol(Protocol::Fast).seed(1).build();
//! let txn = PlanetTxn::builder()
//!     .set("hello", 1i64)
//!     .speculate_at(0.95)
//!     .build();
//! let handle = db.submit(0, txn);
//! db.run_for(SimDuration::from_secs(2));
//! assert!(db.record(handle).unwrap().outcome.is_commit());
//! ```

#![warn(missing_docs)]

pub use planet_core as core;
pub use planet_mdcc as mdcc;
pub use planet_predict as predict;
pub use planet_sim as sim;
pub use planet_storage as storage;
pub use planet_workload as workload;

// The everyday vocabulary, flattened.
pub use planet_core::{
    AdmissionPolicy, FinalOutcome, Key, Planet, PlanetTxn, Protocol, SimDuration, SimTime, Stage,
    TxnEvent, TxnHandle, TxnRecord, Value, WriteOp,
};
