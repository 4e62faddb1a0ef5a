//! Fault-model tests: message loss, wedged options, duplicate votes, and
//! behaviour at the edges of the quorum math.

use planet_mdcc::{build_sim, ClusterConfig, Msg, Outcome, Protocol, TestClient, TxnSpec};
use planet_sim::{ActorId, SimDuration, SimTime, Simulation, SiteId};
use planet_storage::{Key, RecordOption, TxnId, Value, WriteOp};

fn client(sim: &Simulation<Msg>, id: ActorId) -> &TestClient {
    sim.actor_as::<TestClient>(id).expect("not a TestClient")
}

fn set_txn(key: &str, v: i64) -> TxnSpec {
    TxnSpec::write_one(Key::new(key), WriteOp::Set(Value::Int(v)))
}

#[test]
fn fast_path_tolerates_one_lost_vote() {
    // The fast quorum is 4 of 5: losing any single vote message must not
    // prevent commits. With 2% loss most transactions still commit.
    let mut config = ClusterConfig::new(5, Protocol::Fast);
    config.txn_timeout = SimDuration::from_secs(3);
    let (mut sim, cluster) = build_sim(planet_sim::topology::five_dc(), config, 5);
    sim.network_mut().loss_prob = 0.02;

    let script: Vec<(SimTime, TxnSpec)> = (0..50)
        .map(|i| {
            (
                SimTime::from_millis(1 + i * 500),
                set_txn(&format!("k{i}"), i as i64),
            )
        })
        .collect();
    let c = sim.add_actor(
        SiteId(0),
        Box::new(TestClient::new(cluster.coordinators[0], script)),
    );
    sim.run_for(SimDuration::from_secs(40));
    let tc = client(&sim, c);
    let commits = (0..50)
        .filter(|i| tc.outcome(*i) == Some(Outcome::Committed))
        .count();
    assert!(
        commits >= 40,
        "2% loss should rarely break a 4/5 quorum, got {commits}/50"
    );
    assert!(
        sim.dropped_messages() > 0,
        "loss must actually have occurred"
    );
}

#[test]
fn heavy_loss_times_out_rather_than_wedging() {
    let mut config = ClusterConfig::new(5, Protocol::Fast);
    config.txn_timeout = SimDuration::from_secs(2);
    let (mut sim, cluster) = build_sim(planet_sim::topology::five_dc(), config, 6);
    sim.network_mut().loss_prob = 0.6;

    let script: Vec<(SimTime, TxnSpec)> = (0..10)
        .map(|i| {
            (
                SimTime::from_millis(1 + i * 100),
                set_txn(&format!("k{i}"), 1),
            )
        })
        .collect();
    let c = sim.add_actor(
        SiteId(0),
        Box::new(TestClient::new(cluster.coordinators[0], script)),
    );
    sim.run_for(SimDuration::from_secs(10));
    let tc = client(&sim, c);
    // Every transaction terminates — committed or timed out, never stuck.
    assert_eq!(
        tc.completed.len(),
        10,
        "all txns must reach a terminal state"
    );
}

#[test]
fn lease_sweep_unwedges_a_record_after_lost_decides() {
    // Drop ~everything for a while so a pending option's Decide is lost,
    // then heal and verify a later transaction can still claim the record
    // (the lease sweep reclaimed the orphan).
    let mut config = ClusterConfig::new(5, Protocol::Fast);
    config.txn_timeout = SimDuration::from_secs(1);
    let (mut sim, cluster) = build_sim(planet_sim::topology::five_dc(), config, 7);

    let script = vec![
        (SimTime::from_millis(1), set_txn("wedge", 1)),
        // Well after the lease (= txn_timeout) plus sweep period.
        (SimTime::from_secs(8), set_txn("wedge", 2)),
    ];
    let c = sim.add_actor(
        SiteId(0),
        Box::new(TestClient::new(cluster.coordinators[0], script)),
    );
    // Heavy loss only during the first transaction.
    sim.network_mut().loss_prob = 0.9;
    sim.run_for(SimDuration::from_secs(4));
    sim.network_mut().loss_prob = 0.0;
    sim.run_for(SimDuration::from_secs(10));

    let tc = client(&sim, c);
    assert_eq!(tc.completed.len(), 2);
    assert_eq!(
        tc.outcome(1),
        Some(Outcome::Committed),
        "the record must be reclaimable after the lease expires"
    );
    assert!(sim.metrics().counter_value("replica.leases_expired") > 0);
}

#[test]
fn three_site_cluster_commits_with_majority_quorums() {
    // N=3: classic quorum 2, fast quorum 3 (fast Paxos needs all three).
    for protocol in [Protocol::Fast, Protocol::Classic, Protocol::TwoPc] {
        let (mut sim, cluster) = build_sim(
            planet_sim::topology::three_dc(),
            ClusterConfig::new(3, protocol),
            8,
        );
        let c = sim.add_actor(
            SiteId(0),
            Box::new(TestClient::new(
                cluster.coordinators[0],
                vec![(SimTime::from_millis(1), set_txn("tri", 1))],
            )),
        );
        sim.run_for(SimDuration::from_secs(5));
        assert_eq!(
            client(&sim, c).outcome(0),
            Some(Outcome::Committed),
            "{protocol}"
        );
    }
}

#[test]
fn single_site_cluster_is_a_local_database() {
    let (mut sim, cluster) = build_sim(
        planet_sim::topology::single_dc(),
        ClusterConfig::new(1, Protocol::Fast),
        9,
    );
    let c = sim.add_actor(
        SiteId(0),
        Box::new(TestClient::new(
            cluster.coordinators[0],
            vec![(SimTime::from_millis(1), set_txn("solo", 1))],
        )),
    );
    sim.run_for(SimDuration::from_secs(1));
    let tc = client(&sim, c);
    assert_eq!(tc.outcome(0), Some(Outcome::Committed));
    let latency = tc.completed[0]
        .stats
        .decided_at
        .since(tc.completed[0].stats.submitted_at);
    assert!(
        latency < SimDuration::from_millis(10),
        "single-site commit is local: {latency}"
    );
}

#[test]
fn multi_key_txn_with_mixed_masters_is_atomic() {
    // A transaction writing several keys mastered at different sites either
    // installs all of its writes or none.
    let (mut sim, cluster) = build_sim(
        planet_sim::topology::five_dc(),
        ClusterConfig::new(5, Protocol::Classic),
        10,
    );
    let spec = TxnSpec {
        writes: (0..6)
            .map(|i| {
                (
                    Key::new(format!("atomic:{i}")),
                    WriteOp::Set(Value::Int(77)),
                )
            })
            .collect(),
        ..Default::default()
    };
    let c = sim.add_actor(
        SiteId(1),
        Box::new(TestClient::new(
            cluster.coordinators[1],
            vec![(SimTime::from_millis(1), spec)],
        )),
    );
    sim.run_for(SimDuration::from_secs(10));
    let outcome = client(&sim, c).outcome(0).unwrap();
    assert_eq!(outcome, Outcome::Committed);
    for site in 0..5 {
        let storage = sim
            .actor_as::<planet_mdcc::ReplicaActor>(cluster.replicas[site])
            .unwrap()
            .storage();
        for i in 0..6 {
            assert_eq!(
                storage.read(&Key::new(format!("atomic:{i}"))).value,
                Value::Int(77),
                "site {site} key {i}"
            );
        }
    }
}

#[test]
fn validation_service_queue_adds_delay_under_burst() {
    // With a 20ms validation cost, a burst of 10 simultaneous proposals
    // queues ~200ms at each replica; commit latency must reflect that.
    let run = |service_ms: u64, seed: u64| {
        let mut config = ClusterConfig::new(5, Protocol::Fast);
        config.validation_service = SimDuration::from_millis(service_ms);
        let (mut sim, cluster) = build_sim(planet_sim::topology::five_dc(), config, seed);
        let script: Vec<(SimTime, TxnSpec)> = (0..10)
            .map(|i| (SimTime::from_millis(1), set_txn(&format!("b{i}"), 1)))
            .collect();
        let c = sim.add_actor(
            SiteId(0),
            Box::new(TestClient::new(cluster.coordinators[0], script)),
        );
        sim.run_for(SimDuration::from_secs(10));
        let tc = client(&sim, c);
        let mean: f64 = tc
            .completed
            .iter()
            .map(|r| {
                r.stats
                    .decided_at
                    .since(r.stats.submitted_at)
                    .as_millis_f64()
            })
            .sum::<f64>()
            / tc.completed.len() as f64;
        (
            tc.completed
                .iter()
                .filter(|r| r.outcome.is_commit())
                .count(),
            mean,
        )
    };
    let (commits_free, mean_free) = run(0, 11);
    let (commits_busy, mean_busy) = run(20, 12);
    assert_eq!(commits_free, 10);
    assert_eq!(commits_busy, 10, "queueing must delay, not break, commits");
    assert!(
        mean_busy > mean_free + 50.0,
        "queueing delay must show: {mean_free}ms vs {mean_busy}ms"
    );
}

/// A message addressed to the wrong role — one well-formed frame from a
/// peer can be one — is dropped and counted, and the actor goes on serving.
#[test]
fn a_misaddressed_message_is_dropped_and_counted() {
    let config = ClusterConfig::new(5, Protocol::Fast);
    let (mut sim, cluster) = build_sim(planet_sim::topology::five_dc(), config, 6);
    let stray = TxnId::new(0, 999);
    sim.inject_at(
        SimTime::from_micros(1),
        cluster.replicas[1],
        Msg::Submit {
            spec: set_txn("stray", 1),
            reply_to: cluster.coordinators[0],
            tag: 0,
        },
    );
    sim.inject_at(
        SimTime::from_micros(1),
        cluster.coordinators[0],
        Msg::FastPropose {
            txn: stray,
            key: Key::new("stray"),
            option: RecordOption::new(stray, 0, WriteOp::Set(Value::Int(1))),
            round: 0,
        },
    );
    let c = sim.add_actor(
        SiteId(0),
        Box::new(TestClient::new(
            cluster.coordinators[0],
            vec![(SimTime::from_millis(5), set_txn("k", 1))],
        )),
    );
    sim.run_for(SimDuration::from_secs(5));
    assert_eq!(client(&sim, c).outcome(0), Some(Outcome::Committed));
    assert_eq!(sim.metrics().counter_value("replica.unexpected_msgs"), 1);
    assert_eq!(
        sim.metrics().counter_value("coordinator.unexpected_msgs"),
        1
    );
}
