//! Tests for read levels: local (fast, possibly stale) versus quorum
//! (one WAN round trip, freshest-of-majority), and the read results exposed
//! in transaction records.

use planet_core::{FinalOutcome, Key, Planet, PlanetTxn, Protocol, SimDuration, Value};

#[test]
fn quorum_reads_cost_a_wan_round_trip() {
    let mut db = Planet::builder().protocol(Protocol::Fast).seed(2).build();
    let local = db.submit(0, PlanetTxn::builder().read("k").build());
    db.run_for(SimDuration::from_secs(2));
    let quorum = db.submit(0, PlanetTxn::builder().read("k").quorum_reads().build());
    db.run_for(SimDuration::from_secs(2));

    let local_lat = db.record(local).unwrap().latency;
    let quorum_lat = db.record(quorum).unwrap().latency;
    assert!(
        local_lat < SimDuration::from_millis(5),
        "local read must stay intra-site: {local_lat}"
    );
    // The majority (3rd of 5) response from us-east arrives at ~us-west or
    // eu-west RTT (70–80ms).
    assert!(
        quorum_lat > SimDuration::from_millis(50) && quorum_lat < SimDuration::from_millis(150),
        "quorum read should cost ~1 regional WAN RTT: {quorum_lat}"
    );
}

#[test]
fn quorum_reads_see_past_a_stale_replica() {
    let mut db = Planet::builder().protocol(Protocol::Fast).seed(3).build();
    // Establish version 1 everywhere.
    let w1 = db.submit(0, PlanetTxn::builder().set("fresh", 1i64).build());
    db.run_for(SimDuration::from_secs(3));
    assert!(db.record(w1).unwrap().outcome.is_commit());

    // Crash ap-southeast, commit version 2 without it, recover it. Its WAL
    // replay restores version 1 only — it is now stale until the next write.
    db.crash_site(4);
    let w2 = db.submit(0, PlanetTxn::builder().set("fresh", 2i64).build());
    db.run_for(SimDuration::from_secs(3));
    assert!(db.record(w2).unwrap().outcome.is_commit());
    db.recover_site(4);
    db.run_for(SimDuration::from_secs(1));

    // Local read at the recovered site: stale.
    assert_eq!(db.read_local(4, &Key::new("fresh")), Value::Int(1));
    let local = db.submit(4, PlanetTxn::builder().read("fresh").build());
    db.run_for(SimDuration::from_secs(1));
    assert_eq!(
        db.record(local).unwrap().reads[0].value,
        Value::Int(1),
        "local read is stale"
    );

    // Quorum read from the same site: the majority includes fresh replicas.
    let quorum = db.submit(4, PlanetTxn::builder().read("fresh").quorum_reads().build());
    db.run_for(SimDuration::from_secs(2));
    let record = db.record(quorum).unwrap();
    assert_eq!(
        record.reads[0].value,
        Value::Int(2),
        "quorum read must see version 2"
    );
    assert_eq!(record.reads[0].version, 2);
}

#[test]
fn quorum_read_versions_feed_writes() {
    // A physical write based on a quorum read must carry the fresh version,
    // so it does not abort with a stale-version rejection at up-to-date
    // replicas.
    let mut db = Planet::builder()
        .protocol(Protocol::Classic)
        .seed(4)
        .build();
    let w1 = db.submit(0, PlanetTxn::builder().set("base", 1i64).build());
    db.run_for(SimDuration::from_secs(3));
    assert!(db.record(w1).unwrap().outcome.is_commit());

    let w2 = db.submit(
        2,
        PlanetTxn::builder()
            .read("base")
            .set("base", 2i64)
            .quorum_reads()
            .build(),
    );
    db.run_for(SimDuration::from_secs(3));
    assert_eq!(db.record(w2).unwrap().outcome, FinalOutcome::Committed);
    assert_eq!(db.read_local(0, &Key::new("base")), Value::Int(2));
}
