//! Sharded-execution tests: the key-partitioned cluster must be
//! observationally equivalent to the unsharded one on conflict-free
//! workloads, every shard must hold exactly its own keyspace slice, safety
//! must hold under contention at any shard count, and the periodic
//! checkpoint sweep must keep the recovery invariant while bounding the WAL.

use planet_mdcc::{
    build_sim, Cluster, ClusterConfig, Msg, Outcome, Protocol, ReplicaActor, TestClient, TxnSpec,
};
use planet_sim::{ActorId, DetRng, SimDuration, SimTime, Simulation, SiteId};
use planet_storage::{Key, Value, WriteOp};

const FIVE: usize = 5;

fn five_dc(config: ClusterConfig, seed: u64) -> (Simulation<Msg>, Cluster) {
    build_sim(planet_sim::topology::five_dc(), config, seed)
}

fn add_client(
    sim: &mut Simulation<Msg>,
    site: SiteId,
    coordinator: ActorId,
    script: Vec<(SimTime, TxnSpec)>,
) -> ActorId {
    sim.add_actor(site, Box::new(TestClient::new(coordinator, script)))
}

fn read_at(sim: &Simulation<Msg>, cluster: &Cluster, site: usize, key: &Key) -> Value {
    let shard = cluster.config.shard_of(key);
    sim.actor_as::<ReplicaActor>(cluster.replica(site, shard))
        .expect("replica actor")
        .storage()
        .read(key)
        .value
}

/// One client's timed transaction script.
type Script = Vec<(SimTime, TxnSpec)>;

/// A conflict-free randomized workload: each client owns a disjoint key
/// pool, so every transaction must commit and the final value of each key
/// is the sum of the deltas applied to it — at *any* shard count.
fn disjoint_scripts(seed: u64) -> (Vec<Script>, Vec<(Key, i64)>) {
    let mut rng = DetRng::new(seed);
    let mut scripts = Vec::new();
    let mut expected: std::collections::BTreeMap<Key, i64> = Default::default();
    for site in 0..3u64 {
        let pool: Vec<Key> = (0..6).map(|j| Key::new(format!("s{site}-k{j}"))).collect();
        let mut script = Vec::new();
        for i in 0..8u64 {
            let key = pool[rng.index(pool.len())].clone();
            let delta = rng.range_u64(1, 9) as i64;
            *expected.entry(key.clone()).or_insert(0) += delta;
            script.push((
                SimTime::from_millis(1 + i * 700),
                TxnSpec::write_one(key, WriteOp::add(delta)),
            ));
        }
        scripts.push(script);
    }
    (scripts, expected.into_iter().collect())
}

/// Per-client outcomes, final per-key values, and the run itself.
type DisjointRun = (
    Vec<Vec<Option<Outcome>>>,
    Vec<(Key, Value)>,
    Simulation<Msg>,
    Cluster,
);

fn run_disjoint(shards: usize, seed: u64) -> DisjointRun {
    let config = ClusterConfig::new(FIVE, Protocol::Fast).with_shards(shards);
    let (mut sim, cluster) = five_dc(config, seed);
    let (scripts, expected) = disjoint_scripts(0xD15C_0000 + seed);
    let clients: Vec<ActorId> = scripts
        .into_iter()
        .enumerate()
        .map(|(site, script)| {
            add_client(
                &mut sim,
                SiteId(site as u8),
                cluster.coordinators[site],
                script,
            )
        })
        .collect();
    sim.run_for(SimDuration::from_secs(20));
    let outcomes = clients
        .iter()
        .map(|&c| {
            let tc = sim.actor_as::<TestClient>(c).expect("test client");
            (0..8).map(|tag| tc.outcome(tag)).collect()
        })
        .collect();
    let finals = expected
        .iter()
        .map(|(key, _)| (key.clone(), read_at(&sim, &cluster, 0, key)))
        .collect();
    (outcomes, finals, sim, cluster)
}

/// Observational equivalence: the same conflict-free workload produces the
/// same outcomes and the same final committed values whether the cluster
/// runs one shard or four.
#[test]
fn sharded_matches_unsharded_on_disjoint_workload() {
    for seed in [7, 21] {
        let (o1, v1, _, _) = run_disjoint(1, seed);
        let (o4, v4, _, _) = run_disjoint(4, seed);
        assert_eq!(o1, o4, "seed {seed}: outcomes diverge between S=1 and S=4");
        for row in &o1 {
            for (tag, outcome) in row.iter().enumerate() {
                assert_eq!(
                    *outcome,
                    Some(Outcome::Committed),
                    "seed {seed}: conflict-free txn {tag} must commit"
                );
            }
        }
        assert_eq!(v1, v4, "seed {seed}: final values diverge");
        // And the values are exactly the sum of committed deltas.
        let (_, expected) = disjoint_scripts(0xD15C_0000 + seed);
        for ((key, got), (ekey, want)) in v4.iter().zip(expected.iter()) {
            assert_eq!(key, ekey);
            assert_eq!(got, &Value::Int(*want), "seed {seed}: {key:?}");
        }
    }
}

/// Every replica holds only keys of its own shard: the coordinator routing
/// invariant, observed from the stores after a run.
#[test]
fn shards_hold_disjoint_keyspace_slices() {
    let (_, _, sim, cluster) = run_disjoint(4, 7);
    let mut populated = 0;
    for shard in 0..4 {
        for site in 0..FIVE {
            let actor = sim
                .actor_as::<ReplicaActor>(cluster.replica(site, shard))
                .expect("replica actor");
            assert_eq!(actor.shard(), shard);
            for key in actor.storage().store().keys() {
                populated += 1;
                assert_eq!(
                    cluster.config.shard_of(key),
                    shard,
                    "replica (site {site}, shard {shard}) holds foreign key {key:?}"
                );
            }
        }
    }
    assert!(populated > 0, "the run must have populated some shards");
}

/// Two racing physical writes on one key still commit at most once with the
/// keyspace sharded — per-key ordering lives entirely inside one shard.
#[test]
fn contention_safety_holds_when_sharded() {
    let config = ClusterConfig::new(FIVE, Protocol::Fast).with_shards(4);
    let (mut sim, cluster) = five_dc(config, 31);
    let spec = |v| TxnSpec::write_one(Key::new("contested"), WriteOp::Set(Value::Int(v)));
    let c0 = add_client(
        &mut sim,
        SiteId(0),
        cluster.coordinators[0],
        vec![(SimTime::from_millis(1), spec(1))],
    );
    let c1 = add_client(
        &mut sim,
        SiteId(2),
        cluster.coordinators[2],
        vec![(SimTime::from_millis(1), spec(2))],
    );
    sim.run_for(SimDuration::from_secs(5));
    let o0 = sim.actor_as::<TestClient>(c0).unwrap().outcome(0).unwrap();
    let o1 = sim.actor_as::<TestClient>(c1).unwrap().outcome(0).unwrap();
    let commits = [o0, o1].iter().filter(|o| o.is_commit()).count();
    assert!(
        commits <= 1,
        "at most one racing write commits: {o0:?} {o1:?}"
    );
}

/// Under sustained traffic with an aggressive checkpoint threshold, the
/// periodic maintenance sweep must actually checkpoint (bounding the WAL)
/// while the recovery invariant keeps holding on every shard.
#[test]
fn checkpoint_sweep_preserves_recovery_under_load() {
    let mut config = ClusterConfig::new(FIVE, Protocol::Fast).with_shards(2);
    config.txn_timeout = SimDuration::from_secs(2); // sweep every second
    config.checkpoint_every = 4;
    let (mut sim, cluster) = five_dc(config, 93);
    let script: Vec<(SimTime, TxnSpec)> = (0..30)
        .map(|i| {
            (
                SimTime::from_millis(1 + i * 600),
                TxnSpec::write_one(Key::new(format!("ck{}", i % 4)), WriteOp::add(1)),
            )
        })
        .collect();
    add_client(&mut sim, SiteId(0), cluster.coordinators[0], script);
    sim.run_for(SimDuration::from_secs(30));

    let mut snapshots = 0;
    for shard in 0..2 {
        for site in 0..FIVE {
            let replica = sim
                .actor_as::<ReplicaActor>(cluster.replica(site, shard))
                .expect("replica actor")
                .storage();
            assert!(
                replica.verify_recovery().is_empty(),
                "site {site} shard {shard} diverged after checkpointing"
            );
            if replica.wal().has_snapshot() {
                snapshots += 1;
                assert!(
                    replica.wal().len() < 30,
                    "site {site} shard {shard}: WAL tail unbounded"
                );
            }
        }
    }
    assert!(snapshots > 0, "no shard ever checkpointed");
    assert!(
        sim.metrics().counter_value("replica.checkpoints") > 0,
        "checkpoint counter never incremented"
    );
}
