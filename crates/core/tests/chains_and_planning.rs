//! Tests for the programming-model extensions: chained speculative
//! transactions (the paper's workflow use case) and deadline planning.

use planet_core::{ChainTrigger, FinalOutcome, Planet, PlanetTxn, Protocol, SimDuration};

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
fn speculative_chain_launches_before_predecessor_commits() {
    let mut db = Planet::builder().protocol(Protocol::Fast).seed(1).build();
    warm(&mut db, 0, 25);

    let first = db.submit(
        0,
        PlanetTxn::builder()
            .set("step1", 1i64)
            .speculate_at(0.9)
            .build(),
    );
    let second = db.submit_after(
        first,
        ChainTrigger::Speculative,
        PlanetTxn::builder().set("step2", 2i64).build(),
    );
    db.run_for(SimDuration::from_secs(5));

    let r1 = db.record(first).expect("first finished");
    let r2 = db.record(second).expect("second finished");
    assert_eq!(r1.outcome, FinalOutcome::Committed);
    assert_eq!(r2.outcome, FinalOutcome::Committed);
    // The chain launched at speculation time, so the two WAN rounds overlap:
    // the pair finishes well before two sequential commits (~2 × 170ms).
    let spec_at = r1.speculated_at.expect("first speculated");
    let pair_span = r2.submitted_at + r2.latency - r1.submitted_at;
    assert!(
        r2.submitted_at.since(r1.submitted_at) <= spec_at + SimDuration::from_millis(2),
        "second must launch at ~speculation time"
    );
    assert!(
        pair_span < SimDuration::from_millis(300),
        "overlapped chain took {pair_span}, sequential would be ~350ms+"
    );
}

#[test]
fn commit_chain_waits_for_durability() {
    let mut db = Planet::builder().protocol(Protocol::Fast).seed(2).build();
    warm(&mut db, 0, 25);
    let first = db.submit(
        0,
        PlanetTxn::builder()
            .set("c1", 1i64)
            .speculate_at(0.9)
            .build(),
    );
    let second = db.submit_after(
        first,
        ChainTrigger::Commit,
        PlanetTxn::builder().set("c2", 2i64).build(),
    );
    db.run_for(SimDuration::from_secs(5));
    let r1 = db.record(first).unwrap();
    let r2 = db.record(second).unwrap();
    assert!(r2.outcome.is_commit());
    // Launched only at the durable commit, not at speculation.
    let launch_gap = r2.submitted_at.since(r1.submitted_at);
    assert!(
        launch_gap >= r1.latency,
        "commit-triggered chain launched at {launch_gap}, before the {} commit",
        r1.latency
    );
}

#[test]
fn suggest_deadline_matches_measured_latency_distribution() {
    let mut db = Planet::builder().protocol(Protocol::Fast).seed(5).build();
    warm(&mut db, 0, 40);

    let txn = PlanetTxn::builder().set("plan:target", 1i64).build();
    let d50 = db.suggest_deadline(0, &txn, 0.50).expect("p50 deadline");
    let d95 = db.suggest_deadline(0, &txn, 0.95).expect("p95 deadline");
    assert!(d50 <= d95, "{d50} > {d95}");
    // The suggested deadlines must bracket the real commit-latency band
    // from us-east (~150–210 ms).
    assert!(
        (SimDuration::from_millis(120)..=SimDuration::from_millis(260)).contains(&d95),
        "d95 = {d95}"
    );

    // Empirical check: run transactions with the d95 deadline; ≥ ~90%
    // should finish inside it.
    let base = db.now();
    let handles: Vec<_> = (0..40u64)
        .map(|i| {
            let txn = PlanetTxn::builder()
                .set(format!("plan:{i}"), i as i64)
                .build();
            db.submit_at(0, base + SimDuration::from_millis(1 + i * 400), txn)
        })
        .collect();
    db.run_for(SimDuration::from_secs(30));
    let within = handles
        .iter()
        .filter(|h| {
            let r = db.record(**h).unwrap();
            r.outcome.is_commit() && r.latency <= d95
        })
        .count();
    assert!(
        within >= 34,
        "expected ≥85% within the d95 deadline, got {within}/40"
    );
}

#[test]
fn suggest_deadline_refuses_hopeless_keys() {
    let mut db = Planet::builder().protocol(Protocol::Fast).seed(6).build();
    // Teach the model that "cursed" always fails: hammer it with conflicting
    // writes from all sites.
    let base = db.now();
    for round in 0..30u64 {
        for site in 0..5usize {
            let txn = PlanetTxn::builder().set("cursed", round as i64).build();
            db.submit_at(site, base + SimDuration::from_millis(1 + round * 120), txn);
        }
    }
    db.run_for(SimDuration::from_secs(30));

    let txn = PlanetTxn::builder().set("cursed", 99i64).build();
    // From some site the learned commit rate is far below 0.99.
    let suggestion = db.suggest_deadline(0, &txn, 0.99);
    assert!(
        suggestion.is_none(),
        "no deadline can make a hopeless key 99% likely, got {suggestion:?}"
    );
    // A fresh key is still plannable.
    let fresh = PlanetTxn::builder().set("fresh-key", 1i64).build();
    assert!(db.suggest_deadline(0, &fresh, 0.9).is_some());
}

#[test]
fn compensation_fires_on_apology() {
    // Force a mispredicted speculation: an optimistic model plus racing
    // physical writes. The loser that speculated must auto-submit its
    // compensation.
    let mut db = Planet::builder().protocol(Protocol::Fast).seed(1).build();
    warm(&mut db, 0, 15);
    warm(&mut db, 2, 15);

    let mut winners = 0;
    let mut compensations_seen = 0;
    for round in 0..12u64 {
        let comp = PlanetTxn::builder()
            .add("refund-ledger".to_string(), 1)
            .build();
        let a = PlanetTxn::builder()
            .set("race-key", round as i64)
            .speculate_at(0.5)
            .compensate_with(comp)
            .build();
        let b = PlanetTxn::builder()
            .set("race-key", 1000 + round as i64)
            .build();
        let at = db.now() + SimDuration::from_millis(5);
        let ha = db.submit_at(0, at, a);
        let _hb = db.submit_at(2, at, b);
        db.run_for(SimDuration::from_secs(4));
        let ra = db.record(ha).unwrap();
        if ra.outcome.is_commit() {
            winners += 1;
        } else if ra.speculated_at.is_some() {
            compensations_seen += 1;
        }
    }
    db.run_for(SimDuration::from_secs(5));
    assert!(winners < 12, "some races must be lost for the test to bite");
    let ledger = db.read_local(0, &planet_core::Key::new("refund-ledger"));
    let metric = db.metrics().counter_value("planet.compensations");
    assert_eq!(
        metric as usize, compensations_seen,
        "one compensation per apology"
    );
    assert!(
        compensations_seen > 0,
        "expected at least one apology across 12 races"
    );
    assert_eq!(
        ledger,
        planet_core::Value::Int(compensations_seen as i64),
        "every compensation must have committed to the ledger"
    );
}
