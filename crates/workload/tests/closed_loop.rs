//! The closed-loop driver on both live fabrics: the channel fabric, tcp
//! with every site hosted, and the `planetd` / `planet-load` split, where a
//! cluster that hosts no site drives the servers of another. Every
//! transaction commits (commutative increments under Fast Paxos never
//! abort), all four latency-attribution spans are recorded, and every
//! client is harvested as the product's `ClientActor`.

use std::net::SocketAddr;
use std::time::Duration;

use planet_cluster::{Harvest, LiveCluster, LiveClusterBuilder};
use planet_core::ClientActor;
use planet_mdcc::{ClusterConfig, Protocol};
use planet_sim::{ActorId, Metrics};
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

fn builder() -> LiveClusterBuilder {
    LiveCluster::builder(ClusterConfig::new(3, Protocol::Fast)).seed(5)
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
        ("channel", builder().build()),
        ("tcp", builder().tcp(loopback(), 0..3).build()),
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
    let servers = builder().tcp(loopback(), 0..3).build();
    let addrs: Vec<SocketAddr> = (0..3).filter_map(|site| servers.addr(site)).collect();
    let load = builder().tcp(addrs, []).build();
    let (ids, harvest) = drive("split", load);
    let mut metrics = harvest.merged_metrics();
    for (name, hist) in servers.shutdown().merged_metrics().histograms() {
        metrics.histogram(name).merge(hist);
    }
    check("split", &ids, &harvest, metrics);
}
