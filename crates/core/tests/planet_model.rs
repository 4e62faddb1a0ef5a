//! Integration tests for the PLANET programming model over the full stack:
//! callbacks, likelihood traces, speculation, apologies, deadlines and
//! admission control.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use planet_core::{
    AdmissionPolicy, FinalOutcome, Planet, PlanetTxn, Protocol, SimDuration, SimTime, TxnEvent,
};
use planet_storage::{Key, Value};

/// Warm the likelihood model with a stream of easy transactions.
fn warm(db: &mut Planet, site: usize, n: u64) {
    let base = db.now();
    for i in 0..n {
        let txn = PlanetTxn::builder()
            .set(format!("warm:{site}:{i}"), i as i64)
            .build();
        db.submit_at(site, base + SimDuration::from_millis(1 + i * 400), txn);
    }
    db.run_for(SimDuration::from_secs(n / 2 + 5));
}

#[test]
fn commit_with_progress_callbacks_and_rising_likelihood() {
    let mut db = Planet::builder().protocol(Protocol::Fast).seed(1).build();
    warm(&mut db, 0, 30);

    let txn = PlanetTxn::builder().set("answer", 42i64).build();
    let start = db.now();
    let handle = db.submit_at(0, start + SimDuration::from_millis(10), txn);
    db.run_for(SimDuration::from_secs(5));

    let record = db.record(handle).expect("finished");
    assert_eq!(record.outcome, FinalOutcome::Committed);
    assert!(record.predictions.len() >= 5, "one prediction per event");
    // With a warmed model, the likelihood right before the decision must be
    // near 1 and the trace must end above where it started.
    let last = record.predictions.last().unwrap();
    assert!(
        last.likelihood > 0.9,
        "final likelihood {}",
        last.likelihood
    );
    assert_eq!(db.read_local(0, &Key::new("answer")), Value::Int(42));
}

#[test]
fn speculation_fires_before_final_and_is_usually_right() {
    let mut db = Planet::builder().protocol(Protocol::Fast).seed(2).build();
    warm(&mut db, 0, 40);

    let mut handles = Vec::new();
    for i in 0..20u64 {
        let txn = PlanetTxn::builder()
            .set(format!("spec:{i}"), i as i64)
            .speculate_at(0.95)
            .build();
        let at = db.now() + SimDuration::from_millis(10 + i * 500);
        handles.push(db.submit_at(0, at, txn));
    }
    db.run_for(SimDuration::from_secs(30));

    let mut speculated = 0;
    for h in &handles {
        let r = db.record(*h).expect("finished");
        assert_eq!(r.outcome, FinalOutcome::Committed);
        if let Some(at) = r.speculated_at {
            speculated += 1;
            assert!(
                at < r.latency,
                "speculation ({at}) must precede the final outcome ({})",
                r.latency
            );
            assert!(!r.apologised());
        }
    }
    assert!(
        speculated >= 15,
        "uncontended txns should mostly speculate, got {speculated}/20"
    );
}

#[test]
fn apology_fires_when_speculation_goes_wrong() {
    // Force mispredictions: a warmed, optimistic model plus a burst of
    // conflicting physical writes to one key from all five sites. With a
    // low speculation threshold some losers will have speculated.
    let mut db = Planet::builder().protocol(Protocol::Fast).seed(3).build();
    for site in 0..5 {
        warm(&mut db, site, 10);
    }
    let apologies = Arc::new(AtomicU32::new(0));
    let mut handles = Vec::new();
    for round in 0..10u64 {
        for site in 0..5usize {
            let a = apologies.clone();
            let txn = PlanetTxn::builder()
                .set("contested", (round * 10 + site as u64) as i64)
                .speculate_at(0.5)
                .on_apology(move || {
                    a.fetch_add(1, Ordering::SeqCst);
                })
                .build();
            let at = db.now() + SimDuration::from_millis(10 + round * 300);
            handles.push(db.submit_at(site, at, txn));
        }
    }
    db.run_for(SimDuration::from_secs(60));

    let records: Vec<_> = handles
        .iter()
        .map(|h| db.record(*h).expect("finished"))
        .collect();
    let aborted = records.iter().filter(|r| !r.outcome.is_commit()).count();
    assert!(aborted > 10, "contention must abort many, got {aborted}/50");
    let apologised = records.iter().filter(|r| r.apologised()).count();
    assert_eq!(apologies.load(Ordering::SeqCst) as usize, apologised);
    assert!(apologised >= 1, "some speculations must have gone wrong");
    // Apologies must be rare relative to aborts only when the threshold is
    // high; at 0.5 we just require they happened and were counted in the
    // metrics too.
    assert_eq!(
        db.metrics().counter_value("planet.apologies") as usize,
        apologised
    );
}

#[test]
fn deadline_returns_control_with_likelihood() {
    let mut db = Planet::builder().protocol(Protocol::Fast).seed(4).build();
    warm(&mut db, 0, 20);
    // A 60ms deadline is far below the ~200ms WAN commit: the deadline
    // event must fire, carrying a meaningful likelihood, and the txn must
    // still commit afterwards.
    let deadline_seen = Arc::new(AtomicU32::new(0));
    let d2 = deadline_seen.clone();
    let txn = PlanetTxn::builder()
        .set("deadline-key", 1i64)
        .deadline(SimDuration::from_millis(60))
        .on_event(move |e| {
            if let TxnEvent::DeadlineExceeded { likelihood, .. } = e {
                assert!((0.0..=1.0).contains(likelihood));
                d2.fetch_add(1, Ordering::SeqCst);
            }
        })
        .build();
    let handle = db.submit_at(0, db.now() + SimDuration::from_millis(5), txn);
    db.run_for(SimDuration::from_secs(5));

    assert_eq!(deadline_seen.load(Ordering::SeqCst), 1);
    let r = db.record(handle).unwrap();
    assert_eq!(
        r.outcome,
        FinalOutcome::Committed,
        "txn finishes in the background"
    );
    assert!(r.deadline_likelihood.is_some());
    assert!(r.latency > SimDuration::from_millis(60));
}

#[test]
fn admission_control_rejects_under_synthetic_overload() {
    let mut db = Planet::builder()
        .protocol(Protocol::Fast)
        .seed(5)
        .admission(AdmissionPolicy {
            min_likelihood: 0.0,
            max_inflight: 1,
        })
        .build();
    // Submit 5 at once: the first occupies the single in-flight slot for
    // ~200ms; the rest are refused on arrival.
    let handles: Vec<_> = (0..5)
        .map(|i| {
            let txn = PlanetTxn::builder().set(format!("k{i}"), i as i64).build();
            db.submit_at(0, SimTime::from_millis(1), txn)
        })
        .collect();
    db.run_for(SimDuration::from_secs(5));
    let outcomes: Vec<_> = handles
        .iter()
        .map(|h| db.record(*h).unwrap().outcome)
        .collect();
    let rejected = outcomes
        .iter()
        .filter(|o| **o == FinalOutcome::Rejected)
        .count();
    let committed = outcomes.iter().filter(|o| o.is_commit()).count();
    assert_eq!(committed, 1);
    assert_eq!(rejected, 4);
    let (admitted, refused) = db.admission_stats(0);
    assert_eq!((admitted, refused), (1, 4));
}

#[test]
fn admission_control_sheds_doomed_transactions_under_contention() {
    // Hammer one hot key; once the model learns the abort pattern the
    // controller starts refusing, and refusals show up in the stats.
    let mut db = Planet::builder()
        .protocol(Protocol::Fast)
        .seed(6)
        .admission(AdmissionPolicy {
            min_likelihood: 0.5,
            max_inflight: 10_000,
        })
        .build();
    for round in 0..60u64 {
        for site in 0..5usize {
            let txn = PlanetTxn::builder().set("ultra-hot", round as i64).build();
            let at = SimTime::from_millis(1 + round * 150);
            db.submit_at(site, at, txn);
        }
    }
    db.run_for(SimDuration::from_secs(60));
    let refused: u64 = (0..5).map(|s| db.admission_stats(s).1).sum();
    assert!(
        refused > 20,
        "admission control must kick in, refused only {refused}"
    );
    assert_eq!(db.metrics().counter_value("planet.rejected"), refused);
}

#[test]
fn rejected_transactions_fail_fast() {
    let mut db = Planet::builder()
        .protocol(Protocol::Fast)
        .seed(7)
        .admission(AdmissionPolicy {
            min_likelihood: 0.0,
            max_inflight: 0,
        })
        .build();
    let txn = PlanetTxn::builder().set("x", 1i64).build();
    let h = db.submit_at(0, SimTime::from_millis(1), txn);
    db.run_for(SimDuration::from_secs(1));
    let r = db.record(h).unwrap();
    assert_eq!(r.outcome, FinalOutcome::Rejected);
    assert_eq!(r.latency, SimDuration::ZERO, "rejection costs no WAN time");
}

#[test]
fn read_only_transactions_bypass_admission_likelihood() {
    let mut db = Planet::builder()
        .protocol(Protocol::Fast)
        .seed(8)
        .admission(AdmissionPolicy {
            min_likelihood: 0.99,
            max_inflight: 100,
        })
        .build();
    let txn = PlanetTxn::builder().read("anything").build();
    let h = db.submit_at(0, SimTime::from_millis(1), txn);
    db.run_for(SimDuration::from_secs(1));
    assert_eq!(db.record(h).unwrap().outcome, FinalOutcome::Committed);
}

#[test]
fn predictions_are_calibrated_on_mixed_workload() {
    // The headline property (paper Fig. "prediction quality"): among
    // transactions whose mid-flight prediction was p, about p of them
    // commit. Build a mixed workload (uncontended + hot keys), collect the
    // first prediction of each transaction, and check the Brier skill.
    let mut db = Planet::builder().protocol(Protocol::Fast).seed(9).build();
    for site in 0..5 {
        warm(&mut db, site, 20);
    }
    let mut handles = Vec::new();
    for round in 0..80u64 {
        for site in 0..5usize {
            let hot = round % 2 == 0;
            let key = if hot {
                "hot".to_string()
            } else {
                format!("cold:{site}:{round}")
            };
            let txn = PlanetTxn::builder().set(key, round as i64).build();
            let at = db.now() + SimDuration::from_millis(10 + round * 250);
            handles.push(db.submit_at(site, at, txn));
        }
    }
    db.run_for(SimDuration::from_secs(200));

    let mut cal = planet_predict::Calibration::new(10);
    for h in &handles {
        let r = db.record(*h).expect("finished");
        // Prediction at the moment proposals went out (pre-vote).
        if let Some(p) = r
            .predictions
            .iter()
            .find(|p| p.votes_seen == 0 && p.elapsed_us > 0)
        {
            cal.record(p.likelihood, r.outcome.is_commit());
        }
    }
    assert!(
        cal.count() > 300,
        "need most txns measured, got {}",
        cal.count()
    );
    let base = cal.base_rate().unwrap();
    assert!(
        base > 0.2 && base < 0.98,
        "workload must mix outcomes, base {base}"
    );
    let skill = cal.skill().unwrap();
    assert!(
        skill > 0.15,
        "prediction must beat the base-rate guesser, skill {skill}"
    );
    let ece = cal.ece().unwrap();
    assert!(ece < 0.25, "expected calibration error too high: {ece}");
}

#[test]
fn runs_replay_identically() {
    let run = |seed: u64| {
        let mut db = Planet::builder()
            .protocol(Protocol::Fast)
            .seed(seed)
            .build();
        for i in 0..20u64 {
            let txn = PlanetTxn::builder()
                .set(format!("k{}", i % 3), i as i64)
                .build();
            db.submit_at((i % 5) as usize, SimTime::from_millis(1 + i * 97), txn);
        }
        db.run_for(SimDuration::from_secs(30));
        let commits = db.metrics().counter_value("planet.committed");
        let aborts = db.metrics().counter_value("planet.aborted");
        (commits, aborts)
    };
    assert_eq!(run(77), run(77));
}
