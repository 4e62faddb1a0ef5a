//! # planet-storage
//!
//! The per-site storage engine underneath the PLANET reproduction's
//! geo-replicated store: multi-versioned records, MDCC-style *options*
//! (conditional writes validated optimistically, including commutative
//! demarcation-bounded deltas), a write-ahead log, and crash recovery.
//!
//! The protocol layer (`planet-mdcc`) instantiates one [`Replica`] per data
//! center and drives it through `accept` / `decide`; the record module's
//! validation rules are exactly the conflict semantics the commit protocol —
//! and therefore the commit-likelihood predictor above it — observes.

#![warn(missing_docs)]

pub mod intern;
pub mod options;
mod paged;
pub mod record;
mod replica;
mod store;
pub mod types;
pub mod wal;

pub use intern::KeyInterner;
pub use options::{RecordOption, RejectReason, WriteOp};
pub use paged::PAGE_LEN;
pub use record::{CommittedVersion, VersionedRecord};
pub use replica::Replica;
pub use store::{ReadResult, Store, StoreSnapshot};
pub use types::{Bytes, Key, KeyId, KeyList, TxnId, Value, VersionNo};
pub use wal::{LogRecord, Wal};
