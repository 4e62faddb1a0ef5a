//! `planetd` — one live PLANET server process.
//!
//! Hosts one site's replica shards and coordinator as tasks on a reactor,
//! speaking the length-prefixed wire format over TCP: its command line is
//! parsed into `LiveCluster::builder(..).tcp(addrs, [site])`. Every
//! `planetd` in a deployment is started with the same `--addrs` list (the
//! topology) and its own `--site` index:
//!
//! ```text
//! planetd --site 0 --addrs 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002
//! planetd --site 1 --addrs 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002
//! planetd --site 2 --addrs 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002
//! ```
//!
//! Drive it with `planet-load`. Actor ids follow the cluster convention:
//! replica shard `s` of site `i` is `s*n + i` and coordinator `shards*n + i`,
//! all living at `addrs[i]`. Every process of a deployment, `planet-load`
//! included, must be started with the same `--shards` (default 1) or routing
//! ids disagree.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use planet_cluster::{LiveCluster, PlaneConfig};
use planet_mdcc::{ClusterConfig, FileSink, Protocol, Trace};

struct Args {
    site: usize,
    addrs: Vec<SocketAddr>,
    protocol: Protocol,
    shards: usize,
    workers: usize,
    run_secs: Option<u64>,
    trace: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: planetd --site <i> --addrs <a0,a1,...> [--protocol fast|classic|twopc] [--shards <s>] [--workers <w>] [--run-secs <s>] [--trace <path>]\n\
         \x20 --workers: reactor worker threads driving this site's actors\n\
         \x20            (default: host parallelism; at least 1)\n\
         \x20 --trace: record this site's reads/commits/applies for planet-audit\n\
         \x20          (flushed on shutdown; use --run-secs for complete traces)"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut site = None;
    let mut addrs = Vec::new();
    let mut protocol = Protocol::Fast;
    // Every process of a deployment must agree on this, so the default is
    // a constant (`ClusterConfig::new`'s and `planet-load`'s), never
    // something derived from the local host.
    let mut shards = 1;
    let mut workers = planet_cluster::default_workers();
    let mut run_secs = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--site" => site = args.next().and_then(|v| v.parse().ok()),
            "--addrs" => {
                let Some(list) = args.next() else { usage() };
                addrs = list
                    .split(',')
                    .map(|a| a.parse().unwrap_or_else(|_| usage()))
                    .collect();
            }
            "--protocol" => {
                protocol = match args.next().as_deref() {
                    Some("fast") => Protocol::Fast,
                    Some("classic") => Protocol::Classic,
                    Some("twopc") => Protocol::TwoPc,
                    _ => usage(),
                }
            }
            "--shards" => {
                shards = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&s| s >= 1)
                    .unwrap_or_else(|| usage())
            }
            "--workers" => {
                workers = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&w| w >= 1)
                    .unwrap_or_else(|| usage())
            }
            "--run-secs" => match args.next().and_then(|v| v.parse().ok()) {
                Some(secs) => run_secs = Some(secs),
                None => usage(),
            },
            "--trace" => match args.next() {
                Some(p) => trace = Some(p),
                None => usage(),
            },
            _ => usage(),
        }
    }
    let Some(site) = site else { usage() };
    if addrs.is_empty() || site >= addrs.len() {
        usage();
    }
    Args {
        site,
        addrs,
        protocol,
        shards,
        workers,
        run_secs,
        trace,
    }
}

fn main() {
    let args = parse_args();
    let n = args.addrs.len();
    let mut config = ClusterConfig::new(n, args.protocol).with_shards(args.shards);
    let trace_sink = match &args.trace {
        Some(path) => match FileSink::create(std::path::Path::new(path)) {
            Ok(sink) => {
                let sink = Arc::new(sink);
                config.trace = Trace::to(sink.clone());
                Some(sink)
            }
            Err(e) => {
                eprintln!("planetd: cannot create trace file {path}: {e}");
                std::process::exit(1);
            }
        },
        None => None,
    };
    let mut cluster = match LiveCluster::builder(config)
        .tcp(args.addrs.clone(), [args.site])
        .plane(PlaneConfig::default().with_workers(args.workers))
        .seed(0x5EED)
        .try_build()
    {
        Ok(cluster) => cluster,
        Err(e) => {
            eprintln!("planetd: cannot bind {}: {e}", args.addrs[args.site]);
            std::process::exit(1);
        }
    };
    println!(
        "planetd: site {} of {n} serving {} replica shard(s) and coordinator {} on {} ({:?}, reactor x{})",
        args.site,
        args.shards,
        cluster.coordinator(args.site).0,
        cluster.addr(args.site).unwrap_or(args.addrs[args.site]),
        args.protocol,
        cluster.reactors().map(|r| r.workers()).sum::<usize>()
    );

    match args.run_secs {
        Some(secs) => std::thread::sleep(Duration::from_secs(secs)),
        None => loop {
            std::thread::sleep(Duration::from_secs(3600));
        },
    }
    println!("planetd: run window elapsed, shutting down");
    cluster.stop_tasks();
    let steals: u64 = cluster.reactors().map(|r| r.steals()).sum();
    let (flushes, bytes) = cluster.io_stats();
    let harvest = cluster.shutdown();
    let mut actors: Vec<_> = harvest.actors.iter().collect();
    actors.sort_by_key(|(id, _)| **id);
    for (_, (_, metrics)) in actors {
        for (name, value) in metrics.counters() {
            println!("planetd: {name} = {value}");
        }
        for (name, hist) in metrics.histograms() {
            if let (Some(mean), Some(max)) = (hist.mean(), hist.max()) {
                println!("planetd: {name} mean {mean:.1}, max {max}");
            }
        }
    }
    println!("planetd: {steals} task steals");
    if flushes > 0 {
        println!(
            "planetd: {flushes} socket flushes, {bytes} bytes ({:.1} bytes/flush), {} submits shed",
            bytes as f64 / flushes as f64,
            harvest.shed,
        );
    }
    if let Some(sink) = &trace_sink {
        if let Err(e) = sink.flush() {
            eprintln!("planetd: trace flush failed: {e}");
        }
    }
}
