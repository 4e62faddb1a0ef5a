//! Fault injection through the front end on a sharded deployment: a site
//! crashes and recovers as a host would, every shard it hosts together.

use planet_core::{Key, Planet, PlanetTxn, Protocol, SimDuration, Value};
use planet_mdcc::ReplicaActor;

/// `f` of the replica of each shard `site` hosts.
fn per_shard<T>(db: &mut Planet, site: usize, f: impl Fn(&ReplicaActor) -> T) -> Vec<T> {
    let config = db.config().clone();
    let sim = db.sim_mut();
    let replica = |shard| sim.actor_as(config.replica_id(site, shard));
    (0..config.num_shards)
        .map(|shard| f(replica(shard).expect("replica actor")))
        .collect()
}

#[test]
fn a_sharded_site_crashes_and_recovers_on_every_shard() {
    let site = 3;
    let mut db = Planet::builder().protocol(Protocol::Fast).shards(2).build();
    // One key per shard, so the write crosses both.
    let keys: Vec<Key> = (0..2)
        .filter_map(|shard| {
            (0..)
                .map(|i| Key::new(format!("k{i}")))
                .find(|k| db.config().shard_of(k) == shard)
        })
        .collect();
    let txn = keys
        .iter()
        .fold(PlanetTxn::builder(), |t, k| t.set(k.clone(), 1));

    db.crash_site(site);
    assert_eq!(per_shard(&mut db, site, |r| r.is_crashed()), [true; 2]);
    let write = db.submit(0, txn.build());
    db.run_for(SimDuration::from_secs(3));
    assert!(db.record(write).unwrap().outcome.is_commit());
    for k in &keys {
        assert_eq!(
            db.read_local(site, k),
            Value::None,
            "{k} reached site {site}"
        );
    }

    db.recover_site(site);
    assert_eq!(per_shard(&mut db, site, |r| r.is_crashed()), [false; 2]);
    let replayed = per_shard(&mut db, site, |r| r.storage().verify_recovery().is_empty());
    assert_eq!(replayed, [true; 2]);
}
