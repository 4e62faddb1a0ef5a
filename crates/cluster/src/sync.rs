//! Swappable synchronization facade for the reactor's lock-free core, its
//! workers' parks and the mailbox's blocking handshakes.
//!
//! Default builds re-export `std::sync` — zero cost, the real primitives —
//! and the poller a worker parks in ([`Waiter`], an epoll set with an
//! eventfd). Under `RUSTFLAGS="--cfg loom"` the same names resolve to the
//! `planet-loom` model checker's types, and `Waiter` to a stand-in with the
//! eventfd's semantics (a counter under the modeled `Mutex` and `Condvar`:
//! a rouse before the wait is kept, a wait consumes it), so the reactor's
//! *actual* `Parker`, scheduling-word and timed-wake code (not a
//! transliteration of it) runs under exhaustive interleaving and
//! weak-memory exploration in `reactor.rs`'s `loom_tests` module, and so
//! does the mailbox's real blocked-sender / blocked-receiver code in
//! `plane.rs`'s.
//!
//! Only `reactor.rs` and `plane.rs` import from here: the rest of the crate
//! is either mutex-protected (already covered by planet-check's lock
//! passes) or never runs inside a model.

#[cfg(not(loom))]
pub(crate) use crate::poll::Waiter;
#[cfg(not(loom))]
pub(crate) use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
#[cfg(not(loom))]
pub(crate) use std::sync::{Condvar, Mutex, MutexGuard};

#[cfg(loom)]
pub(crate) use loom::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
#[cfg(loom)]
pub(crate) use loom::sync::{Condvar, Mutex, MutexGuard};

/// The stand-in for a worker's poller under `--cfg loom`: the eventfd's
/// count under a modeled lock, and a modeled condvar for the wait. A
/// modeled wait never times out, so a park that only its timeout would
/// end is reported as a deadlock.
#[cfg(loom)]
pub(crate) struct Waiter {
    count: Mutex<u64>,
    cv: Condvar,
}

#[cfg(loom)]
impl Waiter {
    pub(crate) fn new() -> Self {
        Waiter {
            count: Mutex::new(0),
            cv: Condvar::new(),
        }
    }

    /// The eventfd write: count up, wake the waiter.
    pub(crate) fn rouse(&self) {
        *self.count.lock().expect("lock poisoned") += 1;
        self.cv.notify_one();
    }

    /// The park: return at once on a count left by an earlier rouse, else
    /// wait for one; either way the count goes back to zero.
    pub(crate) fn wait(&self, timeout: std::time::Duration) {
        let mut count = self.count.lock().expect("lock poisoned");
        if *count == 0 {
            count = self
                .cv
                .wait_timeout(count, timeout)
                // Errs only when the lock is poisoned, i.e. a holder
                // already panicked (the `.lock()` idiom): check:allow(panic)
                .expect("lock poisoned")
                .0;
        }
        *count = 0;
    }

    /// A model has no sockets to attach.
    pub(crate) fn attach(&self, _io: &crate::poll::Poller) -> std::io::Result<()> {
        Ok(())
    }
}
