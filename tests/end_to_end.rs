//! Workspace-level end-to-end tests through the `planet` facade: the whole
//! stack — simulator, storage, protocol, prediction, programming model,
//! workloads — exercised together the way a downstream user would.

use planet::workload::{preload_events, stock_key, Arrival, TicketConfig, TicketWorkload};
use planet::{
    AdmissionPolicy, FinalOutcome, Key, Planet, PlanetTxn, Protocol, SimDuration, TxnEvent, Value,
};

#[test]
fn facade_quickstart_flow() {
    let mut db = Planet::builder().protocol(Protocol::Fast).seed(1).build();
    let handle = db.submit(0, PlanetTxn::builder().set("k", 9i64).build());
    db.run_for(SimDuration::from_secs(2));
    let record = db.record(handle).unwrap();
    assert_eq!(record.outcome, FinalOutcome::Committed);
    assert_eq!(db.read_local(4, &Key::new("k")), Value::Int(9));
}

#[test]
fn callbacks_and_speculation_through_facade() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    let mut db = Planet::builder().protocol(Protocol::Fast).seed(2).build();
    // Warm.
    for i in 0..15u64 {
        let txn = PlanetTxn::builder().set(format!("w{i}"), 0i64).build();
        db.submit_at(0, db.now() + SimDuration::from_millis(1 + i * 300), txn);
    }
    db.run_for(SimDuration::from_secs(8));

    let events = Arc::new(AtomicUsize::new(0));
    let speculated = Arc::new(AtomicUsize::new(0));
    let (e2, s2) = (events.clone(), speculated.clone());
    let txn = PlanetTxn::builder()
        .set("target", 5i64)
        .speculate_at(0.9)
        .on_event(move |e| {
            e2.fetch_add(1, Ordering::SeqCst);
            if matches!(e, TxnEvent::Speculative { .. }) {
                s2.fetch_add(1, Ordering::SeqCst);
            }
        })
        .build();
    let handle = db.submit(0, txn);
    db.run_for(SimDuration::from_secs(3));

    assert!(db.record(handle).unwrap().outcome.is_commit());
    assert!(
        events.load(Ordering::SeqCst) >= 5,
        "progress events must flow"
    );
    assert_eq!(
        speculated.load(Ordering::SeqCst),
        1,
        "speculation fires exactly once"
    );
}

#[test]
fn ticket_sale_inventory_balances_across_protocols() {
    for (protocol, seed) in [(Protocol::Fast, 3u64), (Protocol::Classic, 4)] {
        let config = TicketConfig {
            events: 5,
            theta: 0.8,
            initial_stock: 20,
            arrival: Arrival::poisson(8.0),
            limit: Some(15),
            ..Default::default()
        };
        let mut db = Planet::builder().protocol(protocol).seed(seed).build();
        preload_events(&mut db, &config);
        for site in 0..5 {
            db.attach_source(
                site,
                Box::new(TicketWorkload::new(config.clone(), site as u8)),
            );
        }
        db.run_for(SimDuration::from_secs(60));

        let purchases: Vec<_> = db
            .all_records()
            .into_iter()
            .filter(|r| r.write_keys == 2)
            .collect();
        assert_eq!(purchases.len(), 75);
        let commits = purchases.iter().filter(|r| r.outcome.is_commit()).count();
        let consumed: i64 = (0..config.events)
            .map(|e| match db.read_local(0, &stock_key(e)) {
                Value::Int(s) => {
                    assert!(s >= 0, "{protocol}: oversold event {e}");
                    config.initial_stock - s
                }
                _ => 0,
            })
            .sum();
        assert_eq!(
            consumed as usize, commits,
            "{protocol}: inventory must balance"
        );
    }
}

#[test]
fn admission_control_improves_goodput_in_a_storm() {
    // The headline admission-control claim end to end: finite replica
    // capacity + hot-key storm; the controller must deliver more committed
    // work than the uncontrolled system.
    let run = |policy: Option<AdmissionPolicy>, seed: u64| {
        let mut builder = Planet::builder()
            .protocol(Protocol::Fast)
            .seed(seed)
            .validation_service(SimDuration::from_millis(10));
        if let Some(p) = policy {
            builder = builder.admission(p);
        }
        let mut db = builder.build();
        let start = db.now();
        for site in 0..5 {
            let w = planet::workload::YcsbWorkload::new(
                planet::workload::YcsbConfig {
                    arrival: Arrival::poisson(30.0),
                    ..Default::default()
                },
                planet::workload::KeyChooser::new(
                    "hot",
                    planet::workload::KeyDistribution::Zipfian { n: 10, theta: 0.9 },
                ),
            );
            db.attach_source(site, Box::new(w));
        }
        db.run_for(SimDuration::from_secs(25));
        let end = db.now();
        db.run_for(SimDuration::from_secs(15));
        db.all_records()
            .into_iter()
            .filter(|r| r.submitted_at >= start && r.submitted_at < end && r.outcome.is_commit())
            .count()
    };
    let without = run(None, 10);
    let with = run(
        Some(AdmissionPolicy {
            min_likelihood: 0.2,
            max_inflight: 4096,
        }),
        11,
    );
    assert!(
        with > without * 2,
        "admission control must multiply goodput in the collapse regime: {with} vs {without}"
    );
}

#[test]
fn deterministic_replay_through_the_full_stack() {
    let fingerprint = |seed: u64| {
        let mut db = Planet::builder()
            .protocol(Protocol::Fast)
            .seed(seed)
            .build();
        let config = TicketConfig {
            events: 3,
            initial_stock: 10,
            arrival: Arrival::poisson(12.0),
            limit: Some(10),
            ..Default::default()
        };
        preload_events(&mut db, &config);
        for site in 0..5 {
            db.attach_source(
                site,
                Box::new(TicketWorkload::new(config.clone(), site as u8)),
            );
        }
        db.run_for(SimDuration::from_secs(30));
        let commits = db.metrics().counter_value("planet.committed");
        let aborts = db.metrics().counter_value("planet.aborted");
        let spec = db.metrics().counter_value("planet.speculated");
        (commits, aborts, spec)
    };
    assert_eq!(fingerprint(77), fingerprint(77), "same seed, same universe");
}

#[test]
fn wal_recovery_invariant_holds_after_real_traffic() {
    // Drive real protocol traffic, then check every replica's recovery
    // invariant through the facade's lower layers.
    let mut db = Planet::builder().protocol(Protocol::Fast).seed(12).build();
    for i in 0..25u64 {
        let txn = PlanetTxn::builder()
            .set(format!("k{}", i % 4), i as i64)
            .add("counter", 1)
            .build();
        db.submit_at(
            (i % 5) as usize,
            db.now() + SimDuration::from_millis(1 + i * 200),
            txn,
        );
    }
    db.run_for(SimDuration::from_secs(30));

    let sim = db.sim_mut();
    for id in 0..5u32 {
        let replica = sim
            .actor_as::<planet::mdcc::ReplicaActor>(planet::sim::ActorId(id))
            .expect("replica actor");
        assert!(
            replica.storage().verify_recovery().is_empty(),
            "replica {id}: WAL replay must reproduce live state"
        );
    }
}

#[test]
fn facade_fault_injection_shifts_the_quorum() {
    // Crash ap-northeast (us-east's normal quorum completer) through the
    // facade; commits continue at ap-southeast's longer round trip, and
    // after recovery the crashed site converges on subsequent writes.
    let mut db = Planet::builder().protocol(Protocol::Fast).seed(21).build();
    db.run_until(planet::SimTime::from_millis(1));
    db.crash_site(3);

    let during = db.submit_at(
        0,
        planet::SimTime::from_millis(10),
        PlanetTxn::builder().set("fault-key", 1i64).build(),
    );
    db.run_for(SimDuration::from_secs(3));
    let r = db.record(during).unwrap();
    assert_eq!(r.outcome, FinalOutcome::Committed);
    assert!(
        r.latency > SimDuration::from_millis(185),
        "quorum must wait for ap-southeast (~200ms RTT), got {}",
        r.latency
    );

    db.recover_site(3);
    let after = db.submit_at(
        0,
        db.now() + SimDuration::from_millis(100),
        PlanetTxn::builder().set("fault-key", 2i64).build(),
    );
    db.run_for(SimDuration::from_secs(3));
    assert!(db.record(after).unwrap().outcome.is_commit());
    assert_eq!(db.read_local(3, &Key::new("fault-key")), Value::Int(2));
}

/// A transaction that writes one key twice used to report `Committed` and
/// apply only its first write (the replicas took the second proposal for a
/// retry of the first). No front end executes it now: the coordinator
/// answers `Aborted` before reading anything, and the key keeps its value.
#[test]
fn a_key_written_twice_aborts_at_once_and_changes_nothing() {
    for (protocol, seed) in [(Protocol::Fast, 21u64), (Protocol::Classic, 22)] {
        let mut db = Planet::builder().protocol(protocol).seed(seed).build();
        let seeded = db.submit(0, PlanetTxn::builder().set("k", 100i64).build());
        db.run_for(SimDuration::from_secs(2));
        assert!(db.record(seeded).unwrap().outcome.is_commit());

        let twice = PlanetTxn::builder().add("k", 1).add("k", 10).build();
        let handle = db.submit(0, twice);
        db.run_for(SimDuration::from_secs(2));
        let record = db.record(handle).unwrap();
        assert_eq!(record.outcome, FinalOutcome::Aborted, "{protocol}");
        // Client to its local coordinator and back: no read, no WAN hop.
        assert!(
            record.latency < SimDuration::from_millis(5),
            "{protocol}: refused after {:?}",
            record.latency
        );
        for site in 0..5 {
            assert_eq!(db.read_local(site, &Key::new("k")), Value::Int(100));
        }
    }
}
