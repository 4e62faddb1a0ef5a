//! `planet_sim::Metrics` is touched on every delivered message and every
//! commit, on all three runtimes. A touch of a name that already exists
//! must not allocate (it used to build a `String` per touch: two thirds of
//! all allocations per commit), and making it so must not move a byte of
//! what the registry reports: same names, same iteration order, same
//! `planet-bench` text for a fixed seed as before the change
//! (`golden/metrics_report.txt`, written at the parent commit).
//!
//! Lives here because this crate owns the counting `#[global_allocator]`.
//! The counter is process-wide: the two tests take turns, and what must be
//! zero is measured several times and the least taken, because the test
//! harness's own threads may allocate at any moment (an allocation of the
//! measured code shows in every attempt).

use std::fmt::Write as _;
use std::sync::Mutex;

use planet_bench::alloc_counter::alloc_count;
use planet_bench::{run_experiment, Scale};
use planet_core::{Planet, PlanetTxn, Protocol, SimDuration};
use planet_sim::{Metrics, SimTime};

static TURN: Mutex<()> = Mutex::new(());

/// Wait for the other test; the lock guards no data, so one test's failure
/// must not fail the other.
fn my_turn() -> std::sync::MutexGuard<'static, ()> {
    TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Allocations made by `f`.
fn allocs_during(mut f: impl FnMut()) -> u64 {
    let before = alloc_count();
    f();
    alloc_count() - before
}

/// The fewest allocations seen over a few runs of `f`.
fn least_allocs_during(mut f: impl FnMut()) -> u64 {
    (0..5).map(|_| allocs_during(&mut f)).min().unwrap_or(0)
}

#[test]
fn touching_an_existing_name_allocates_nothing() {
    let _turn = my_turn();
    let mut m = Metrics::new();
    // First touch creates the entry (and may allocate for it).
    assert!(m.get_histogram("span.queue_us").is_none());
    m.histogram("span.queue_us").record(7);
    m.counter("txn.committed.fast").inc();
    assert_eq!(m.get_histogram("span.queue_us").map(|h| h.count()), Some(1));
    assert_eq!(m.counter_value("txn.committed.fast"), 1);
    // Neighbours in name order, so a lookup really compares names.
    m.histogram("span.queue").record(1);
    m.histogram("span.queue_us2").record(1);

    let touches = least_allocs_during(|| {
        for i in 0..1_000u64 {
            m.histogram("span.queue_us").record(i);
            m.counter("txn.committed.fast").inc();
        }
    });
    assert_eq!(touches, 0, "allocations in 2 000 touches of existing names");
    assert_eq!(
        m.get_histogram("span.queue_us").map(|h| h.count()),
        Some(5_001)
    );
    assert_eq!(m.counter_value("txn.committed.fast"), 5_001);

    // A new name still allocates its key, once.
    assert!(allocs_during(|| m.counter("plan.unknown").inc()) >= 1);
    assert_eq!(least_allocs_during(|| m.counter("plan.unknown").inc()), 0);
    assert_eq!(m.counter_value("plan.unknown"), 6);
}

/// Every histogram and counter of a fixed-seed simulator run in the
/// registry's own iteration order, then one `planet-bench` table that is
/// read back out of the registry by name.
fn report() -> String {
    let mut db = Planet::builder()
        .protocol(Protocol::Fast)
        .seed(20_140_622)
        .build();
    for site in 0..db.num_sites() {
        for i in 0..10u64 {
            let txn = match i % 3 {
                0 => PlanetTxn::builder().add("hot", 1).build(),
                1 => PlanetTxn::builder().read("hot").build(),
                _ => PlanetTxn::builder()
                    .set(format!("k:{site}:{i}"), i as i64)
                    .build(),
            };
            db.submit_at(site, SimTime::from_millis(1 + i * 400), txn);
        }
    }
    db.run_for(SimDuration::from_secs(15));
    let mut out = String::new();
    for (name, h) in db.metrics().histograms() {
        writeln!(out, "histogram {name} {}", h.summary()).expect("write to a String");
    }
    for (name, value) in db.metrics().counters() {
        writeln!(out, "counter {name} {value}").expect("write to a String");
    }
    let table = run_experiment("tab1-percentiles", Scale::Quick).expect("a known experiment");
    out.push_str(&table.render());
    out
}

#[test]
fn registry_order_and_report_text_match_the_parent_commit() {
    let _turn = my_turn();
    let got = report();
    let golden = include_str!("golden/metrics_report.txt");
    assert!(
        got == golden,
        "report text moved.\n--- expected\n{golden}\n--- got\n{got}"
    );
}
