//! Litmus tests for the explorer itself: classic weak-memory shapes and
//! wakeup protocols, each in a sound variant (exploration completes
//! clean) and a broken variant (the harness must *find* the bug). The
//! broken variants are what make the sound ones meaningful — a checker
//! that cannot reproduce store buffering or a lost wakeup proves nothing
//! by passing.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use loom::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use loom::sync::{Condvar, Mutex};

fn fails(f: impl Fn() + Send + Sync + 'static) -> String {
    let Err(err) = catch_unwind(AssertUnwindSafe(|| loom::model(f))) else {
        panic!("model must fail");
    };
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_default()
}

/// RMW atomicity: concurrent `fetch_add`s never lose an increment, even
/// relaxed — and the explorer actually explores (more than one execution).
#[test]
fn concurrent_fetch_add_never_loses_increments() {
    let report = loom::model(|| {
        let n = Arc::new(AtomicU64::new(0));
        let n2 = Arc::clone(&n);
        let t = loom::thread::spawn(move || {
            n2.fetch_add(1, Ordering::Relaxed);
        });
        n.fetch_add(1, Ordering::Relaxed);
        t.join().expect("joins");
        assert_eq!(n.load(Ordering::Relaxed), 2);
    });
    assert!(report.iterations >= 2, "explorer must branch on schedules");
}

/// Store buffering under `SeqCst`: both threads reading the stale zero is
/// forbidden — the single-total-order guarantee Dekker protocols rely on.
#[test]
fn store_buffering_seqcst_forbids_double_stale_read() {
    loom::model(|| {
        let x = Arc::new(AtomicU64::new(0));
        let y = Arc::new(AtomicU64::new(0));
        let (x2, y2) = (Arc::clone(&x), Arc::clone(&y));
        let t = loom::thread::spawn(move || {
            x2.store(1, Ordering::SeqCst);
            y2.load(Ordering::SeqCst)
        });
        y.store(1, Ordering::SeqCst);
        let r2 = x.load(Ordering::SeqCst);
        let r1 = t.join().expect("joins");
        assert!(
            r1 == 1 || r2 == 1,
            "SeqCst store buffering: both sides read stale"
        );
    });
}

/// The same shape downgraded to `Relaxed` MUST exhibit both-stale — this
/// is the weak behavior a lost-wakeup bug hides behind, and the harness
/// has to be able to produce it.
#[test]
fn store_buffering_relaxed_is_found() {
    let msg = fails(|| {
        let x = Arc::new(AtomicU64::new(0));
        let y = Arc::new(AtomicU64::new(0));
        let (x2, y2) = (Arc::clone(&x), Arc::clone(&y));
        let t = loom::thread::spawn(move || {
            x2.store(1, Ordering::Relaxed);
            y2.load(Ordering::Relaxed)
        });
        y.store(1, Ordering::Relaxed);
        let r2 = x.load(Ordering::Relaxed);
        let r1 = t.join().expect("joins");
        assert!(r1 == 1 || r2 == 1, "relaxed store buffering observed");
    });
    assert!(msg.contains("relaxed store buffering observed"), "{msg}");
}

/// Message passing with a `Release` publish and an `Acquire` consume: a
/// reader that sees the flag must see the payload.
#[test]
fn message_passing_release_acquire_is_clean() {
    loom::model(|| {
        let data = Arc::new(AtomicU64::new(0));
        let flag = Arc::new(AtomicBool::new(false));
        let (d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
        let t = loom::thread::spawn(move || {
            d2.store(42, Ordering::Relaxed);
            f2.store(true, Ordering::Release);
        });
        if flag.load(Ordering::Acquire) {
            assert_eq!(data.load(Ordering::Relaxed), 42, "publish must be seen");
        }
        t.join().expect("joins");
    });
}

/// With the publish downgraded to `Relaxed` the stale payload is visible —
/// exactly the "misclassified relaxed handoff" ATOM001 exists to catch.
#[test]
fn message_passing_relaxed_publish_is_found() {
    let msg = fails(|| {
        let data = Arc::new(AtomicU64::new(0));
        let flag = Arc::new(AtomicBool::new(false));
        let (d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
        let t = loom::thread::spawn(move || {
            d2.store(42, Ordering::Relaxed);
            f2.store(true, Ordering::Relaxed);
        });
        if flag.load(Ordering::Acquire) {
            assert_eq!(data.load(Ordering::Relaxed), 42, "stale payload");
        }
        t.join().expect("joins");
    });
    assert!(msg.contains("stale payload"), "{msg}");
}

/// Modeled mutexes serialize their critical sections.
#[test]
fn mutex_critical_sections_are_exclusive() {
    loom::model(|| {
        let n = Arc::new(Mutex::new(0u64));
        let n2 = Arc::clone(&n);
        let t = loom::thread::spawn(move || {
            let mut g = n2.lock().expect("lock");
            let read = *g;
            *g = read + 1;
        });
        {
            let mut g = n.lock().expect("lock");
            let read = *g;
            *g = read + 1;
        }
        t.join().expect("joins");
        assert_eq!(*n.lock().expect("lock"), 2);
    });
}

/// The textbook lost wakeup: the consumer checks the predicate, the
/// producer sets it and notifies into empty air, the consumer then waits
/// forever. The harness must report the deadlock with a decision trace.
#[test]
fn lost_wakeup_check_outside_lock_is_found() {
    let msg = fails(|| {
        let work = Arc::new((Mutex::new(false), Condvar::new()));
        let w2 = Arc::clone(&work);
        let t = loom::thread::spawn(move || {
            *w2.0.lock().expect("lock") = true;
            w2.1.notify_one();
        });
        // Broken: the predicate check and the wait are not atomic, and the
        // wait never re-reads the predicate — the producer can run
        // entirely inside the window between them (a park without a recheck).
        let ready = { *work.0.lock().expect("lock") };
        if !ready {
            let guard = work.0.lock().expect("lock");
            let _guard = work.1.wait(guard).expect("wait");
        }
        t.join().expect("joins");
    });
    assert!(msg.contains("deadlock"), "{msg}");
}

/// The fixed protocol — re-check the predicate under the lock the condvar
/// is tied to — explores clean.
#[test]
fn recheck_under_lock_never_loses_the_wakeup() {
    loom::model(|| {
        let work = Arc::new((Mutex::new(false), Condvar::new()));
        let w2 = Arc::clone(&work);
        let t = loom::thread::spawn(move || {
            *w2.0.lock().expect("lock") = true;
            w2.1.notify_one();
        });
        let mut guard = work.0.lock().expect("lock");
        while !*guard {
            guard = work.1.wait(guard).expect("wait");
        }
        drop(guard);
        t.join().expect("joins");
    });
}
