//! Smoke-scale live-cluster throughput gate for CI.
//!
//! Runs the closed-loop driver at small concurrency on the in-process
//! channel transport and enforces two floors: every completion commits
//! (`commit_rate == 1.0` — commutative increments under Fast Paxos must
//! never abort or time out at this scale), and throughput stays above a
//! deliberately loose ops/s floor that only a scheduling regression (e.g.
//! reintroducing a polling tick in the worker loop) would trip. Results land
//! in `BENCH_throughput_smoke.json` as a CI artifact.
//!
//! `#[ignore]`d because it is wall-clock-sensitive: run it explicitly with
//! `cargo test --release -p planet-bench --test throughput_smoke -- --ignored`.

use std::time::Duration;

use planet_bench::common::lan;
use planet_cluster::{LiveCluster, PlaneConfig};
use planet_mdcc::{ClusterConfig, Protocol};
use planet_storage::Key;
use planet_workload::closed_loop::{self, Mix};

const SITES: usize = 3;
const KEYS: usize = 64;
const OPS_FLOOR: f64 = 100.0;

struct SmokePoint {
    clients: usize,
    shards: usize,
    ops_per_sec: f64,
    commit_rate: f64,
    completions: u64,
    shed: u64,
}

fn run_point(clients: usize, shards: usize) -> SmokePoint {
    let config = ClusterConfig::new(SITES, Protocol::Fast).with_shards(shards);
    let mut cluster = LiveCluster::builder(config)
        .network(lan(SITES))
        .seed(0x540C ^ clients as u64 ^ (shards as u64) << 32)
        .plane(PlaneConfig::default())
        .build();
    let keys: Vec<Key> = (0..KEYS).map(|i| Key::new(format!("smoke-{i}"))).collect();
    let ids = closed_loop::spawn(&mut cluster, clients, &Mix::Increments(keys.into()));
    let warmup = Duration::from_millis(300);
    let tally = closed_loop::measure(&cluster, &ids, warmup, Duration::from_secs(1));
    let harvest = cluster.shutdown();

    SmokePoint {
        clients,
        shards,
        ops_per_sec: tally.ops_per_sec(),
        commit_rate: tally.commit_rate(),
        completions: tally.total(),
        shed: harvest.shed,
    }
}

#[test]
#[ignore = "wall-clock throughput gate; run explicitly in the CI smoke job"]
fn smoke_scale_throughput_holds_the_floor() {
    // Unsharded ladder plus one sharded point: the key-partitioned cluster
    // must hold the exact same floors (commutative increments never abort
    // regardless of how the keyspace is split across shard actors).
    let points: Vec<SmokePoint> = [(4usize, 1usize), (8, 1), (8, 2)]
        .iter()
        .map(|&(c, s)| run_point(c, s))
        .collect();

    let mut out = String::from("{\n  \"experiment\": \"throughput_smoke\",\n");
    out.push_str(&format!(
        "  \"sites\": {SITES},\n  \"keys\": {KEYS},\n  \"ops_floor\": {OPS_FLOOR},\n  \"transport\": \"channel\",\n  \"points\": [\n"
    ));
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"clients\": {}, \"shards\": {}, \"ops_per_sec\": {:.1}, \"commit_rate\": {:.4}, \"completions\": {}, \"shed\": {}}}{}\n",
            p.clients,
            p.shards,
            p.ops_per_sec,
            p.commit_rate,
            p.completions,
            p.shed,
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::write("BENCH_throughput_smoke.json", &out).expect("write smoke artifact");
    eprintln!("wrote BENCH_throughput_smoke.json:\n{out}");

    for p in &points {
        assert!(
            p.completions > 0,
            "{} clients: no transactions completed",
            p.clients
        );
        assert_eq!(
            p.commit_rate, 1.0,
            "{} clients: commutative increments must all commit",
            p.clients
        );
        assert_eq!(p.shed, 0, "{} clients: nothing should shed", p.clients);
        assert!(
            p.ops_per_sec >= OPS_FLOOR,
            "{} clients: {:.1} ops/s under the {OPS_FLOOR} floor",
            p.clients,
            p.ops_per_sec
        );
    }
}
