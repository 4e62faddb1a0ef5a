//! Swappable synchronization facade for the reactor's lock-free core and
//! the mailbox's blocking handshakes.
//!
//! Default builds re-export `std::sync` — zero cost, the real primitives.
//! Under `RUSTFLAGS="--cfg loom"` the same names resolve to the
//! `planet-loom` model checker's types, so the reactor's *actual*
//! `Parker`, scheduling-word, and timer-handshake code (not a
//! transliteration of it) runs under exhaustive interleaving and
//! weak-memory exploration in `reactor.rs`'s `loom_tests` module, and so
//! does the mailbox's real blocked-sender / blocked-receiver code in
//! `plane.rs`'s.
//!
//! Only `reactor.rs` and `plane.rs` import from here: the rest of the crate
//! is either mutex-protected (already covered by planet-check's lock
//! passes) or never runs inside a model.

#[cfg(not(loom))]
pub(crate) use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
#[cfg(not(loom))]
pub(crate) use std::sync::{Condvar, Mutex, MutexGuard};

#[cfg(loom)]
pub(crate) use loom::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
#[cfg(loom)]
pub(crate) use loom::sync::{Condvar, Mutex, MutexGuard};
