//! `planet-load` — a multi-client load driver for a `planetd` deployment.
//!
//! Spawns `--clients` closed-loop [`LoadClient`] actors, round-robined
//! across the sites in `--addrs`, each driving its site's coordinator over
//! TCP from the client node of `LiveCluster::builder(..).tcp(addrs, [])`.
//! After `--secs` of measurement it drains the completion channel and
//! prints throughput and latency percentiles.
//!
//! ```text
//! planet-load --addrs 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 \
//!     --clients 32 --secs 10 --keys 64
//! ```
//!
//! `--workload <name>` swaps the default single-key-increment mix for one of
//! the anomaly recipes registered in `planet-workload` (one shared generator
//! feeds all clients, so e.g. write-skew mirror twins land on different
//! clients concurrently). `--trace <path>` appends client-observed outcome
//! events in `planet-audit`'s trace format; pair it with the servers'
//! `planetd --trace` files for a full audit.

use std::net::SocketAddr;
use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex};
// check:allow(determinism) — live closed-loop driver; wall-clock windows are the point
use std::time::{Duration, Instant};

use planet_cluster::{LiveCluster, LoadClient, LoadRecord, PlaneConfig, SpecSource};
use planet_mdcc::{ClusterConfig, FileSink, Msg, Outcome, Protocol, Trace};
use planet_sim::metrics::Histogram;
use planet_sim::{Actor, ActorId};
use planet_storage::Key;
use planet_workload::{SpecGen, ANOMALY_WORKLOADS};

struct Args {
    addrs: Vec<SocketAddr>,
    clients: usize,
    secs: u64,
    keys: usize,
    shards: usize,
    workers: usize,
    workload: Option<String>,
    trace: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: planet-load --addrs <a0,a1,...> [--clients <n>] [--secs <s>] [--keys <k>] [--shards <s>]\n\
         \x20                 [--workers <w>] [--workload <name>] [--trace <path>]\n\
         \x20 --workers: reactor worker threads multiplexing the clients\n\
         \x20            (default: host parallelism; at least 1)\n\
         \x20 --workload: replace the increment mix with an anomaly recipe ({})\n\
         \x20 --trace: append client-observed outcomes in planet-audit trace format",
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
    let mut trace = None;
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
            "--trace" => match args.next() {
                Some(p) => trace = Some(p),
                None => usage(),
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
        trace,
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
    let spec_gen: Option<Arc<Mutex<SpecGen>>> = args
        .workload
        .as_deref()
        .and_then(SpecGen::by_name)
        .map(|g| Arc::new(Mutex::new(g)));
    let (trace, trace_sink) = match &args.trace {
        Some(path) => {
            let sink = match FileSink::create(std::path::Path::new(path)) {
                Ok(sink) => Arc::new(sink),
                Err(e) => {
                    eprintln!("planet-load: cannot create trace file {path}: {e}");
                    std::process::exit(1);
                }
            };
            (Trace::to(sink.clone()), Some(sink))
        }
        None => (Trace::off(), None),
    };

    let (results_tx, results_rx) = channel::<LoadRecord>();
    let make_client = |coordinator: ActorId| -> Box<dyn Actor<Msg>> {
        let mut load = LoadClient::new(coordinator, key_space.clone(), results_tx.clone())
            .with_trace(trace.clone());
        if let Some(gen) = &spec_gen {
            let gen = gen.clone();
            let source: SpecSource =
                Box::new(move |rng| gen.lock().expect("spec generator poisoned").next_spec(rng));
            load = load.with_spec_source(source);
        }
        Box::new(load)
    };
    // Each site's clients become one pool task per worker.
    for site in 0..n {
        let coordinator = cluster.coordinator(site);
        let members: Vec<Box<dyn Actor<Msg>>> = (0..args.clients)
            .filter(|k| k % n == site)
            .map(|_| make_client(coordinator))
            .collect();
        cluster.spawn_client_pool(site, members);
    }
    drop(results_tx);
    println!(
        "planet-load: {} clients across {n} sites, {} keys, {}s window, {} mix, reactor x{}",
        args.clients,
        args.keys,
        args.secs,
        args.workload.as_deref().unwrap_or("increment"),
        cluster.reactors().map(|r| r.workers()).sum::<usize>()
    );

    let window = Duration::from_secs(args.secs);
    // check:allow(determinism) — measurement window of the live run
    let started = Instant::now();
    let mut latencies = Histogram::new();
    let mut committed = 0u64;
    let mut aborted = 0u64;
    let mut timed_out = 0u64;
    while started.elapsed() < window {
        let remaining = window.saturating_sub(started.elapsed());
        if let Ok(record) = results_rx.recv_timeout(remaining.min(Duration::from_millis(100))) {
            latencies.record(record.latency_us());
            match record.outcome {
                Outcome::Committed => committed += 1,
                Outcome::Aborted => aborted += 1,
                Outcome::TimedOut => timed_out += 1,
            }
        }
    }
    let elapsed = started.elapsed().as_secs_f64();

    let coordinators = cluster.coordinator(0).0..cluster.coordinator(n - 1).0 + 1;
    cluster.stop_tasks();
    let steals: u64 = cluster.reactors().map(|r| r.steals()).sum();
    let (flushes, bytes) = cluster.io_stats();
    let mut merged = cluster.shutdown().merged_metrics();
    println!("planet-load: {steals} task steals");
    if let Some(sink) = &trace_sink {
        if let Err(e) = sink.flush() {
            eprintln!("planet-load: trace flush failed: {e}");
        }
    }

    let total = committed + aborted + timed_out;
    println!(
        "planet-load: {total} txns in {elapsed:.2}s ({committed} committed, {} other)",
        aborted + timed_out
    );
    if committed + aborted == 0 {
        // A run that measured nothing must not look like a run that
        // measured zero.
        let addrs: Vec<String> = args.addrs.iter().map(|a| a.to_string()).collect();
        eprintln!(
            "planet-load: no transaction committed or aborted ({timed_out} timed out): no server reachable at {}, \
             or --shards {} is not the servers' (coordinators are addressed as ids {coordinators:?})",
            addrs.join(","),
            args.shards,
        );
        std::process::exit(1);
    }
    println!("planet-load: {:.1} ops/sec", total as f64 / elapsed);
    if let (Some(p50), Some(p99)) = (latencies.quantile(0.50), latencies.quantile(0.99)) {
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
