//! The closed-loop driver on both live fabrics: the channel fabric (also
//! with two shards per site over a 2 ms LAN), tcp with every site hosted,
//! and the `planetd` / `planet-load` split, where a cluster that hosts no
//! site drives the servers of another. Every transaction commits
//! (commutative increments under Fast Paxos never abort, however the
//! keyspace is split across shards), nothing sheds, throughput holds a
//! loose floor, all four latency-attribution spans are recorded, and every
//! client is harvested as the product's `ClientActor`.

use std::net::SocketAddr;
use std::time::Duration;

use planet_cluster::{Harvest, LiveCluster, LiveClusterBuilder};
use planet_core::ClientActor;
use planet_mdcc::{ClusterConfig, Protocol};
use planet_sim::{ActorId, Metrics, NetworkModel};
use planet_storage::Key;
use planet_workload::closed_loop::{self, Mix};

/// Every latency-attribution span, the client's `span.network_us`
/// included.
const SPANS: [&str; 4] = [
    "span.queue_us",
    "span.quorum_wait_us",
    "span.wal_us",
    "span.network_us",
];

/// Finished transactions a second any row must reach: loose enough for a debug build on
/// a loaded host, so only a scheduling regression in the message plane
/// (say, a reintroduced poll tick) or broken shard routing trips it.
const OPS_FLOOR: f64 = 100.0;

fn builder(shards: usize) -> LiveClusterBuilder {
    LiveCluster::builder(ClusterConfig::new(3, Protocol::Fast).with_shards(shards)).seed(5)
}

/// Three sites 2 ms apart, 0.1 ms within one.
fn lan() -> NetworkModel {
    let rtt: Vec<Vec<f64>> = (0..3)
        .map(|i| (0..3).map(|j| if i == j { 0.1 } else { 2.0 }).collect())
        .collect();
    NetworkModel::from_rtt_ms(&rtt)
}

fn loopback() -> Vec<SocketAddr> {
    vec!["127.0.0.1:0".parse().expect("loopback"); 3]
}

/// Drive `cluster` with six closed-loop users for a short window; return
/// the clients' ids and the harvest.
fn drive(label: &str, mut cluster: LiveCluster) -> (Vec<ActorId>, Harvest) {
    let keys: Vec<Key> = (0..8).map(|i| Key::new(format!("cl-{i}"))).collect();
    let ids = closed_loop::spawn(&mut cluster, 6, &Mix::Increments(keys.into()));
    assert_eq!(ids.len(), 3, "{label}: one client per site");
    let window = Duration::from_millis(300);
    let tally = closed_loop::measure(&cluster, &ids, Duration::from_millis(50), window);
    assert!(tally.total() > 0, "{label}: nothing finished");
    assert_eq!(tally.commit_rate(), 1.0, "{label}: every increment commits");
    assert!(
        tally.ops_per_sec() >= OPS_FLOOR,
        "{label}: {:.1} ops/s under the {OPS_FLOOR} floor",
        tally.ops_per_sec()
    );
    assert_eq!(
        tally.latency_us.count(),
        tally.total(),
        "{label}: latencies"
    );
    (ids, cluster.shutdown())
}

/// Every client is a harvested `ClientActor`, and `metrics` carries all four
/// spans.
fn check(label: &str, ids: &[ActorId], harvest: &Harvest, mut metrics: Metrics) {
    assert_eq!(harvest.shed, 0, "{label}: nothing should shed");
    for &id in ids {
        assert!(
            harvest.actor_as::<ClientActor>(id).is_some(),
            "{label}: client {id:?} not harvested as a ClientActor"
        );
    }
    for span in SPANS {
        assert!(metrics.histogram(span).count() > 0, "{label}: {span} empty");
    }
}

#[test]
fn the_driver_commits_on_channel_and_tcp() {
    for (label, cluster) in [
        ("channel", builder(1).build()),
        ("channel, 2 shards, LAN", builder(2).network(lan()).build()),
        ("tcp", builder(1).tcp(loopback(), 0..3).build()),
    ] {
        let (ids, harvest) = drive(label, cluster);
        check(label, &ids, &harvest, harvest.merged_metrics());
    }
}

#[test]
fn the_driver_commits_through_servers_of_another_cluster() {
    // The planetd / planet-load split in one process: one cluster hosts
    // every site, a second hosts none and drives the first's coordinators.
    // Its harvest holds the clients' spans; the servers record the rest.
    let servers = builder(1).tcp(loopback(), 0..3).build();
    let addrs: Vec<SocketAddr> = (0..3).filter_map(|site| servers.addr(site)).collect();
    let load = builder(1).tcp(addrs, []).build();
    let (ids, harvest) = drive("split", load);
    let mut metrics = harvest.merged_metrics();
    for (name, hist) in servers.shutdown().merged_metrics().histograms() {
        metrics.histogram(name).merge(hist);
    }
    check("split", &ids, &harvest, metrics);
}
