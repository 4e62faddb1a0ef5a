//! Modeled `std::sync` lookalikes: drop-in types for code compiled with
//! `--cfg loom`. Signatures mirror `std` (lock results, poison-free in
//! practice, `wait_timeout` shapes) so production code switches over with
//! a `use` swap and zero call-site edits.
//!
//! Construction registers each object with the execution that is
//! currently running on this thread, so every primitive must be created
//! *inside* a [`crate::model`] closure. Data protected by [`Mutex`] lives
//! in a real `std::sync::Mutex` underneath — the model serializes owners,
//! so the inner lock is uncontended and exists only to hand out guards
//! without `unsafe`.

use std::sync::{LockResult, Mutex as StdMutex, MutexGuard as StdMutexGuard};
use std::time::Duration;

use crate::rt;

pub mod atomic {
    //! Modeled atomics with per-location store histories: loads may read
    //! any C11-visible store, not just the newest one.

    pub use std::sync::atomic::Ordering;

    /// A `SeqCst` fence joins the global fence clock both ways; weaker
    /// fences are modeled as no-ops (under-synchronizing, so races are
    /// surfaced rather than hidden).
    pub fn fence(order: Ordering) {
        crate::rt::fence(order);
    }

    macro_rules! int_atomic {
        ($(#[$doc:meta])* $name:ident, $ty:ty) => {
            $(#[$doc])*
            #[derive(Debug)]
            pub struct $name {
                id: usize,
            }

            // The widening casts are identities for the 64-bit instance.
            #[allow(clippy::unnecessary_cast)]
            impl $name {
                #[allow(clippy::new_without_default)]
                pub fn new(value: $ty) -> $name {
                    $name {
                        id: crate::rt::register_atomic(value as u64),
                    }
                }

                pub fn load(&self, order: Ordering) -> $ty {
                    crate::rt::atomic_load(self.id, order) as $ty
                }

                pub fn store(&self, value: $ty, order: Ordering) {
                    crate::rt::atomic_store(self.id, value as u64, order);
                }

                pub fn swap(&self, value: $ty, order: Ordering) -> $ty {
                    crate::rt::atomic_rmw(self.id, order, |_| value as u64) as $ty
                }

                pub fn fetch_add(&self, value: $ty, order: Ordering) -> $ty {
                    crate::rt::atomic_rmw(self.id, order, |old| {
                        (old as $ty).wrapping_add(value) as u64
                    }) as $ty
                }

                pub fn fetch_sub(&self, value: $ty, order: Ordering) -> $ty {
                    crate::rt::atomic_rmw(self.id, order, |old| {
                        (old as $ty).wrapping_sub(value) as u64
                    }) as $ty
                }

                pub fn fetch_max(&self, value: $ty, order: Ordering) -> $ty {
                    crate::rt::atomic_rmw(self.id, order, |old| {
                        (old as $ty).max(value) as u64
                    }) as $ty
                }

                pub fn fetch_min(&self, value: $ty, order: Ordering) -> $ty {
                    crate::rt::atomic_rmw(self.id, order, |old| {
                        (old as $ty).min(value) as u64
                    }) as $ty
                }

                pub fn compare_exchange(
                    &self,
                    current: $ty,
                    new: $ty,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$ty, $ty> {
                    crate::rt::atomic_cas(self.id, current as u64, new as u64, success, failure)
                        .map(|v| v as $ty)
                        .map_err(|v| v as $ty)
                }

                /// Modeled without spurious failure (the strong variant's
                /// behavior is a legal implementation of the weak one).
                pub fn compare_exchange_weak(
                    &self,
                    current: $ty,
                    new: $ty,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$ty, $ty> {
                    self.compare_exchange(current, new, success, failure)
                }
            }
        };
    }

    int_atomic!(
        /// Modeled `AtomicU8`.
        AtomicU8,
        u8
    );
    int_atomic!(
        /// Modeled `AtomicU32`.
        AtomicU32,
        u32
    );
    int_atomic!(
        /// Modeled `AtomicU64`.
        AtomicU64,
        u64
    );
    int_atomic!(
        /// Modeled `AtomicUsize`.
        AtomicUsize,
        usize
    );

    /// Modeled `AtomicBool`.
    #[derive(Debug)]
    pub struct AtomicBool {
        id: usize,
    }

    impl AtomicBool {
        #[allow(clippy::new_without_default)]
        pub fn new(value: bool) -> AtomicBool {
            AtomicBool {
                id: crate::rt::register_atomic(u64::from(value)),
            }
        }

        pub fn load(&self, order: Ordering) -> bool {
            crate::rt::atomic_load(self.id, order) != 0
        }

        pub fn store(&self, value: bool, order: Ordering) {
            crate::rt::atomic_store(self.id, u64::from(value), order);
        }

        pub fn swap(&self, value: bool, order: Ordering) -> bool {
            crate::rt::atomic_rmw(self.id, order, |_| u64::from(value)) != 0
        }

        pub fn compare_exchange(
            &self,
            current: bool,
            new: bool,
            success: Ordering,
            failure: Ordering,
        ) -> Result<bool, bool> {
            crate::rt::atomic_cas(
                self.id,
                u64::from(current),
                u64::from(new),
                success,
                failure,
            )
            .map(|v| v != 0)
            .map_err(|v| v != 0)
        }
    }
}

/// Modeled mutex: ownership, blocking, and the release/acquire clock edge
/// are simulated; the payload rides in an uncontended real mutex.
#[derive(Debug)]
pub struct Mutex<T> {
    id: usize,
    cell: StdMutex<T>,
}

impl<T> Mutex<T> {
    pub fn new(value: T) -> Mutex<T> {
        Mutex {
            id: rt::register_mutex(),
            cell: StdMutex::new(value),
        }
    }

    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        rt::mutex_lock(self.id);
        let inner = match self.cell.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        Ok(MutexGuard {
            mtx: self,
            inner: Some(inner),
        })
    }

    pub fn into_inner(self) -> LockResult<T> {
        match self.cell.into_inner() {
            Ok(value) => Ok(value),
            Err(poisoned) => Ok(poisoned.into_inner()),
        }
    }
}

/// Guard over a modeled [`Mutex`]; dropping it releases the modeled lock
/// (a release edge on the mutex clock).
#[derive(Debug)]
pub struct MutexGuard<'a, T> {
    mtx: &'a Mutex<T>,
    inner: Option<StdMutexGuard<'a, T>>,
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard holds the inner lock")
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard holds the inner lock")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Free the real lock before the modeled release hands the turn to
        // a thread that may immediately reacquire.
        self.inner = None;
        rt::mutex_unlock(self.mtx.id);
    }
}

/// Result shim for [`Condvar::wait_timeout`]: modeled waits never time
/// out — a protocol leaning on its timeout backstop deadlocks here.
#[derive(Debug)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// Modeled condvar: FIFO-registered waiters, explored wake order, no
/// spurious wakeups, no timeouts.
#[derive(Debug)]
pub struct Condvar {
    id: usize,
}

impl Condvar {
    #[allow(clippy::new_without_default)]
    pub fn new() -> Condvar {
        Condvar {
            id: rt::register_cv(),
        }
    }

    pub fn wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
        let mtx = guard.mtx;
        // Hand back the real lock for the duration of the modeled wait;
        // the modeled mutex release/reacquire happens inside `cv_wait`.
        guard.inner = None;
        rt::cv_wait(self.id, mtx.id);
        guard.inner = Some(match mtx.cell.lock() {
            Ok(inner) => inner,
            Err(poisoned) => poisoned.into_inner(),
        });
        Ok(guard)
    }

    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        _timeout: Duration,
    ) -> LockResult<(MutexGuard<'a, T>, WaitTimeoutResult)> {
        match self.wait(guard) {
            Ok(guard) => Ok((guard, WaitTimeoutResult(false))),
            Err(poisoned) => {
                let guard = poisoned.into_inner();
                Ok((guard, WaitTimeoutResult(false)))
            }
        }
    }

    pub fn notify_one(&self) {
        rt::cv_notify_one(self.id);
    }

    pub fn notify_all(&self) {
        rt::cv_notify_all(self.id);
    }
}
