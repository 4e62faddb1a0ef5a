//! Crash-injection tests: quorum tolerance of replica failures, WAL-based
//! restart, and lazy catch-up after recovery.

use planet_mdcc::{
    build_sim, ClusterConfig, Msg, Outcome, Protocol, ReplicaActor, TestClient, TxnSpec,
};
use planet_sim::{ActorId, SimDuration, SimTime, Simulation, SiteId};
use planet_storage::{Key, RecordOption, Replica, TxnId, Value, WriteOp};

fn client(sim: &Simulation<Msg>, id: ActorId) -> &TestClient {
    sim.actor_as::<TestClient>(id).expect("not a TestClient")
}

fn storage(sim: &Simulation<Msg>, id: ActorId) -> &Replica {
    sim.actor_as::<ReplicaActor>(id)
        .expect("not a ReplicaActor")
        .storage()
}

fn set_txn(key: &str, v: i64) -> TxnSpec {
    TxnSpec::write_one(Key::new(key), WriteOp::Set(Value::Int(v)))
}

#[test]
fn fast_path_survives_one_crashed_replica() {
    let mut config = ClusterConfig::new(5, Protocol::Fast);
    config.txn_timeout = SimDuration::from_secs(3);
    let (mut sim, cluster) = build_sim(planet_sim::topology::five_dc(), config, 1);
    // Crash ap-southeast before traffic starts.
    sim.inject_at(SimTime::from_micros(1), cluster.replicas[4], Msg::Crash);
    let script: Vec<(SimTime, TxnSpec)> = (0..10)
        .map(|i| {
            (
                SimTime::from_millis(5 + i * 500),
                set_txn(&format!("k{i}"), 1),
            )
        })
        .collect();
    let c = sim.add_actor(
        SiteId(0),
        Box::new(TestClient::new(cluster.coordinators[0], script)),
    );
    sim.run_for(SimDuration::from_secs(15));
    let tc = client(&sim, c);
    let commits = (0..10)
        .filter(|i| tc.outcome(*i) == Some(Outcome::Committed))
        .count();
    assert_eq!(commits, 10, "a 4/5 fast quorum exists without ap-southeast");
}

#[test]
fn fast_path_stalls_with_two_crashed_replicas_but_classic_survives() {
    for (protocol, expect_commit) in [(Protocol::Fast, false), (Protocol::Classic, true)] {
        let mut config = ClusterConfig::new(5, protocol);
        config.txn_timeout = SimDuration::from_secs(2);
        let (mut sim, cluster) = build_sim(planet_sim::topology::five_dc(), config, 2);
        // Key "crashkey" masters at some site; crash two *non-master*,
        // non-coordinator replicas so the classic majority (3) still exists.
        let cfg = ClusterConfig::new(5, protocol);
        let master = cfg.master_of(&Key::new("crashkey")).0 as usize;
        let mut crashed = 0;
        for site in (0..5).rev() {
            if site != master && site != 0 && crashed < 2 {
                sim.inject_at(SimTime::from_micros(1), cluster.replicas[site], Msg::Crash);
                crashed += 1;
            }
        }
        assert_eq!(crashed, 2);
        let c = sim.add_actor(
            SiteId(0),
            Box::new(TestClient::new(
                cluster.coordinators[0],
                vec![(SimTime::from_millis(5), set_txn("crashkey", 1))],
            )),
        );
        sim.run_for(SimDuration::from_secs(10));
        let outcome = client(&sim, c).outcome(0).unwrap();
        if expect_commit {
            assert_eq!(
                outcome,
                Outcome::Committed,
                "{protocol} should survive 2 crashes"
            );
        } else {
            assert_eq!(
                outcome,
                Outcome::TimedOut,
                "{protocol} cannot form a 4/5 quorum with 2 replicas down"
            );
        }
    }
}

#[test]
fn recovered_replica_restarts_from_wal_and_catches_up_on_new_writes() {
    let mut config = ClusterConfig::new(5, Protocol::Fast);
    config.txn_timeout = SimDuration::from_secs(3);
    let (mut sim, cluster) = build_sim(planet_sim::topology::five_dc(), config, 3);

    // Phase 1: write k0 while everyone is up.
    // Phase 2: crash site 4, write k1 (commits on the other four).
    // Phase 3: recover site 4, write k1 again — site 4 must converge on k1.
    sim.inject_at(SimTime::from_secs(3), cluster.replicas[4], Msg::Crash);
    sim.inject_at(SimTime::from_secs(8), cluster.replicas[4], Msg::Recover);
    let script = vec![
        (SimTime::from_millis(5), set_txn("k0", 10)),
        (SimTime::from_secs(4), set_txn("k1", 20)),
        (SimTime::from_secs(10), set_txn("k1", 30)),
    ];
    let c = sim.add_actor(
        SiteId(0),
        Box::new(TestClient::new(cluster.coordinators[0], script)),
    );
    sim.run_for(SimDuration::from_secs(20));
    let tc = client(&sim, c);
    for tag in 0..3 {
        assert_eq!(tc.outcome(tag), Some(Outcome::Committed), "txn {tag}");
    }

    let site4 = sim
        .actor_as::<planet_mdcc::ReplicaActor>(cluster.replicas[4])
        .unwrap();
    assert!(!site4.is_crashed());
    // k0 predates the crash: durable through the WAL restart.
    assert_eq!(site4.storage().read(&Key::new("k0")).value, Value::Int(10));
    // k1's second write happened after recovery: the Apply state transfer
    // brings site 4 to the latest version even though it missed the first.
    assert_eq!(site4.storage().read(&Key::new("k1")).value, Value::Int(30));
    // And the recovery invariant still holds on the restarted replica.
    assert!(site4.storage().verify_recovery().is_empty());
    assert_eq!(sim.metrics().counter_value("replica.crashes"), 1);
    assert_eq!(sim.metrics().counter_value("replica.recoveries"), 1);
}

#[test]
fn commits_during_crash_count_rejoiner_as_absent_voter() {
    // While a replica is down its votes simply never arrive; commit latency
    // rises to the RTT of the new 4th-fastest voter but commits continue.
    let mut config = ClusterConfig::new(5, Protocol::Fast);
    config.txn_timeout = SimDuration::from_secs(5);
    let (mut sim, cluster) = build_sim(planet_sim::topology::five_dc(), config, 4);
    // From us-east, the fast quorum normally completes at ap-ne (170ms RTT).
    // Crash ap-ne: the quorum must now include ap-se (200ms RTT).
    sim.inject_at(SimTime::from_micros(1), cluster.replicas[3], Msg::Crash);
    let script: Vec<(SimTime, TxnSpec)> = (0..10)
        .map(|i| {
            (
                SimTime::from_millis(5 + i * 500),
                set_txn(&format!("c{i}"), 1),
            )
        })
        .collect();
    let c = sim.add_actor(
        SiteId(0),
        Box::new(TestClient::new(cluster.coordinators[0], script)),
    );
    sim.run_for(SimDuration::from_secs(15));
    let tc = client(&sim, c);
    let mean: f64 = tc
        .completed
        .iter()
        .filter(|r| r.outcome.is_commit())
        .map(|r| {
            r.stats
                .decided_at
                .since(r.stats.submitted_at)
                .as_millis_f64()
        })
        .sum::<f64>()
        / 10.0;
    assert!(
        (185.0..260.0).contains(&mean),
        "quorum should complete at ap-se's ~200ms RTT, mean {mean}ms"
    );
}

/// A crash-restart re-issues key ids in log order, and a key interned by an
/// accept that was then rejected is in no log record: here it shifts every
/// later key's id by one. The lease on an option pending at the crash must
/// follow its key to the new id, and run from the restart, or the sweep
/// drops an option of another key, or asks for an id past the recovered
/// store's end.
#[test]
fn a_lease_pending_at_a_crash_is_reclaimed_under_the_recovered_id() {
    let mut config = ClusterConfig::new(5, Protocol::Fast);
    config.txn_timeout = SimDuration::from_secs(2);
    let (mut sim, cluster) = build_sim(planet_sim::topology::five_dc(), config, 5);
    let replica = cluster.replicas[0];
    let (rejected, held) = (Key::new("rejected"), Key::new("held"));
    let propose = |txn: TxnId, key: &Key, read_version| Msg::FastPropose {
        txn,
        key: key.clone(),
        option: RecordOption::new(txn, read_version, WriteOp::Set(Value::Int(1))),
        round: 0,
    };
    let (stale, pending, later) = (TxnId::new(0, 1), TxnId::new(0, 2), TxnId::new(0, 3));
    // Based on a version the key never had: interned, then rejected.
    sim.inject_at(
        SimTime::from_millis(100),
        replica,
        propose(stale, &rejected, 7),
    );
    sim.inject_at(
        SimTime::from_millis(200),
        replica,
        propose(pending, &held, 0),
    );
    sim.inject_at(SimTime::from_millis(500), replica, Msg::Crash);
    sim.inject_at(SimTime::from_secs(3), replica, Msg::Recover);

    sim.run_until(SimTime::from_millis(300));
    assert!(storage(&sim, replica).has_pending(&held, pending));
    assert_eq!(
        storage(&sim, replica).store().key_id(&held).map(|id| id.0),
        Some(1)
    );
    // The lease runs from the restart (3 s) and outlives two sweeps.
    sim.run_until(SimTime::from_millis(5_500));
    assert_eq!(
        storage(&sim, replica).store().key_id(&held).map(|id| id.0),
        Some(0)
    );
    assert!(storage(&sim, replica).has_pending(&held, pending));
    assert_eq!(sim.metrics().counter_value("replica.leases_expired"), 0);
    // The sweep past it reclaims exactly that option.
    sim.run_until(SimTime::from_millis(6_500));
    assert!(!storage(&sim, replica).has_pending(&held, pending));
    assert_eq!(sim.metrics().counter_value("replica.leases_expired"), 1);
    // And the replica keeps serving: the key takes a new option.
    sim.inject_at(
        SimTime::from_millis(6_600),
        replica,
        propose(later, &held, 0),
    );
    sim.run_until(SimTime::from_secs(7));
    assert!(storage(&sim, replica).has_pending(&held, later));
    assert_eq!(
        storage(&sim, replica).store().len(),
        1,
        "the rejected key is in no log"
    );
    assert!(storage(&sim, replica).verify_recovery().is_empty());
}
