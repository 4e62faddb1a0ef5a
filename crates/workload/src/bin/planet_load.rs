//! `planet-load` — a multi-client load driver for a `planetd` deployment.
//!
//! Runs `--clients` closed-loop virtual users, round-robined across the
//! sites in `--addrs`: one product `ClientActor` per site carries the
//! site's users and drives its coordinator over TCP from the client node of
//! `LiveCluster::builder(..).tcp(addrs, [])`. After `--secs` of measurement
//! it prints throughput and latency percentiles.
//!
//! ```text
//! planet-load --addrs 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 \
//!     --clients 32 --secs 10 --keys 64
//! ```
//!
//! `--workload <name>` swaps the default single-key-increment mix for one of
//! the anomaly recipes registered in `planet-workload` (one shared generator
//! feeds all clients, so e.g. write-skew mirror twins land on different
//! clients concurrently). For an audit, trace the servers: each
//! `planetd --trace` file carries the coordinator's outcome of every
//! transaction it ran.

use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use planet_cluster::{LiveCluster, PlaneConfig};
use planet_mdcc::{ClusterConfig, Protocol};
use planet_storage::Key;
use planet_workload::closed_loop::{self, Mix};
use planet_workload::{SpecGen, ANOMALY_WORKLOADS};

struct Args {
    addrs: Vec<SocketAddr>,
    clients: usize,
    secs: u64,
    keys: usize,
    shards: usize,
    workers: usize,
    workload: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: planet-load --addrs <a0,a1,...> [--clients <n>] [--secs <s>] [--keys <k>] [--shards <s>]\n\
         \x20                 [--workers <w>] [--workload <name>]\n\
         \x20 --workers: reactor worker threads multiplexing the clients\n\
         \x20            (default: host parallelism; at least 1)\n\
         \x20 --workload: replace the increment mix with an anomaly recipe ({})",
        ANOMALY_WORKLOADS.join(", ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut addrs = Vec::new();
    let mut clients = 8;
    let mut secs = 10;
    let mut keys = 64;
    let mut shards = 1;
    let mut workers = planet_cluster::default_workers();
    let mut workload = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addrs" => {
                let Some(list) = args.next() else { usage() };
                addrs = list
                    .split(',')
                    .map(|a| a.parse().unwrap_or_else(|_| usage()))
                    .collect();
            }
            "--clients" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => clients = v,
                None => usage(),
            },
            "--secs" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => secs = v,
                None => usage(),
            },
            "--keys" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => keys = v,
                None => usage(),
            },
            // Must match the servers' --shards: coordinator ids sit above
            // the shards*n replica id block.
            "--shards" => match args.next().and_then(|v| v.parse().ok()).filter(|&s| s >= 1) {
                Some(v) => shards = v,
                None => usage(),
            },
            "--workers" => match args.next().and_then(|v| v.parse().ok()).filter(|&w| w >= 1) {
                Some(v) => workers = v,
                None => usage(),
            },
            "--workload" => match args.next() {
                Some(w) if SpecGen::by_name(&w).is_some() => workload = Some(w),
                _ => usage(),
            },
            _ => usage(),
        }
    }
    if addrs.is_empty() || clients == 0 || keys == 0 {
        usage();
    }
    Args {
        addrs,
        clients,
        secs,
        keys,
        shards,
        workers,
        workload,
    }
}

fn main() {
    let args = parse_args();
    let n = args.addrs.len();
    let key_space: Vec<Key> = (0..args.keys)
        .map(|i| Key::new(format!("load-{i}")))
        .collect();

    // A cluster that hosts no site: its client node routes to the servers'
    // ids, and replies come back down its own connections via the servers'
    // learned-peer routes. Coordinator ids depend on the deployment's shard
    // count (replicas come first).
    let config = ClusterConfig::new(n, Protocol::Fast).with_shards(args.shards);
    let mut cluster = LiveCluster::builder(config)
        .tcp(args.addrs.clone(), [])
        .plane(PlaneConfig::default().with_workers(args.workers))
        .seed(0x10AD)
        .build();

    // One shared generator behind a mutex: clients pull specs interleaved,
    // so paired transactions (write-skew twins, snapshot pairs) go to
    // *different* clients and genuinely overlap.
    let mix = match args.workload.as_deref().and_then(SpecGen::by_name) {
        Some(gen) => Mix::Specs(Arc::new(Mutex::new(gen))),
        None => Mix::Increments(key_space.into()),
    };
    let clients = closed_loop::spawn(&mut cluster, args.clients, &mix);
    println!(
        "planet-load: {} clients across {n} sites, {} keys, {}s window, {} mix, reactor x{}",
        args.clients,
        args.keys,
        args.secs,
        args.workload.as_deref().unwrap_or("increment"),
        cluster.reactors().map(|r| r.workers()).sum::<usize>()
    );

    let window = Duration::from_secs(args.secs);
    let tally = closed_loop::measure(&cluster, &clients, Duration::ZERO, window);
    let elapsed = tally.elapsed.as_secs_f64();

    let coordinators = cluster.coordinator(0).0..cluster.coordinator(n - 1).0 + 1;
    cluster.stop_tasks();
    let steals: u64 = cluster.reactors().map(|r| r.steals()).sum();
    let (flushes, bytes) = cluster.io_stats();
    let mut merged = cluster.shutdown().merged_metrics();
    println!("planet-load: {steals} task steals");

    let total = tally.total();
    println!(
        "planet-load: {total} txns in {elapsed:.2}s ({} committed, {} other)",
        tally.committed,
        tally.aborted + tally.timed_out
    );
    if tally.committed + tally.aborted == 0 {
        // A run that measured nothing must not look like a run that
        // measured zero.
        let addrs: Vec<String> = args.addrs.iter().map(|a| a.to_string()).collect();
        eprintln!(
            "planet-load: no transaction committed or aborted ({} timed out): no server reachable at {}, \
             or --shards {} is not the servers' (coordinators are addressed as ids {coordinators:?})",
            tally.timed_out,
            addrs.join(","),
            args.shards,
        );
        std::process::exit(1);
    }
    println!("planet-load: {:.1} ops/sec", tally.ops_per_sec());
    let latency = &tally.latency_us;
    if let (Some(p50), Some(p99)) = (latency.quantile(0.50), latency.quantile(0.99)) {
        println!("planet-load: latency p50 {p50} us, p99 {p99} us");
    }
    let batch = merged.histogram("plane.batch");
    if let (Some(mean), Some(max)) = (batch.mean(), batch.max()) {
        println!("planet-load: drain batch mean {mean:.2}, max {max}");
    }
    if let Some(hwm) = merged.histogram("plane.mailbox.depth").max() {
        println!("planet-load: mailbox depth high-water {hwm}");
    }
    if flushes > 0 {
        println!(
            "planet-load: {flushes} socket flushes, {bytes} bytes ({:.1} bytes/flush)",
            bytes as f64 / flushes as f64
        );
    }
}
