//! Sharded-replica throughput: the same closed-loop concurrency sweep as
//! [`crate::exp_throughput`], but varying the number of replica shards per
//! site (`ClusterConfig::with_shards`) on both live transports:
//!
//! * **channel** — the in-process [`LiveCluster`], the delay fabric shaping
//!   deliveries;
//! * **tcp** — three in-process [`TcpTransport`]s (one per "planetd"), each
//!   hosting its site's shard replicas and coordinator on a [`Reactor`] of
//!   its own, clients driving load through a fourth client-side transport
//!   and reactor over real sockets.
//!
//! Each point reports the host's core count alongside the numbers: shards
//! only buy parallel commit work when the host actually has cores to run
//! them on, so `cores` is part of the result, not a footnote. Every point
//! also carries the four per-txn latency-attribution spans (queueing,
//! quorum wait, WAL drive, network) harvested from the actors' metrics. At
//! `Scale::Full` the sweep lands in `BENCH_throughput_sharded.json`.

use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::{Duration, Instant};

use planet_cluster::{
    mailbox, Clock, LiveCluster, LoadClient, LoadRecord, PlaneConfig, PoolMembers, Reactor,
    TcpTransport, Transport,
};
use planet_mdcc::{ClusterConfig, CoordinatorActor, Msg, Outcome, Protocol, ReplicaActor};
use planet_sim::metrics::{Histogram, Metrics};
use planet_sim::{Actor, ActorId, NetworkModel, SiteId};
use planet_storage::Key;

use crate::common::Scale;
use crate::report::Table;

const SITES: usize = 3;
const KEYS: usize = 64;

/// Summary of one span histogram at one point.
#[derive(Clone, Copy, Default)]
struct SpanStat {
    p50_us: u64,
    p99_us: u64,
    count: u64,
}

/// The four per-txn latency-attribution spans, harvested per point.
#[derive(Clone, Copy, Default)]
struct SpanSet {
    /// Mailbox enqueue → drain, all actors.
    queue: SpanStat,
    /// Coordinator proposal dispatch → decision.
    quorum_wait: SpanStat,
    /// WAL-class message drive time at replicas.
    wal: SpanStat,
    /// Client-observed latency minus coordinator hold time.
    network: SpanStat,
}

fn span_stat(metrics: &mut Metrics, name: &str) -> SpanStat {
    let h = metrics.histogram(name);
    SpanStat {
        p50_us: h.quantile(0.50).unwrap_or(0),
        p99_us: h.quantile(0.99).unwrap_or(0),
        count: h.count(),
    }
}

fn span_set(metrics: &mut Metrics) -> SpanSet {
    SpanSet {
        queue: span_stat(metrics, "span.queue_us"),
        quorum_wait: span_stat(metrics, "span.quorum_wait_us"),
        wal: span_stat(metrics, "span.wal_us"),
        network: span_stat(metrics, "span.network_us"),
    }
}

/// Merge many harvested [`Metrics`] and summarize their spans.
fn span_set_of(all: impl IntoIterator<Item = Metrics>) -> SpanSet {
    let mut merged = Metrics::new();
    for metrics in all {
        for (name, hist) in metrics.histograms() {
            merged.histogram(name).merge(hist);
        }
    }
    span_set(&mut merged)
}

/// One measured point of the sharded sweep.
struct Point {
    shards: usize,
    transport: &'static str,
    /// Worker threads per reactor (channel: one reactor; tcp: four).
    workers: usize,
    clients: usize,
    ops_per_sec: f64,
    p50_us: u64,
    p99_us: u64,
    commit_rate: f64,
    completions: u64,
    shed: u64,
    spans: SpanSet,
}

/// Same LAN-ish model as the base throughput sweep: 2 ms cross-site RTT.
fn lan() -> NetworkModel {
    let rtt: Vec<Vec<f64>> = (0..SITES)
        .map(|i| (0..SITES).map(|j| if i == j { 0.1 } else { 2.0 }).collect())
        .collect();
    NetworkModel::from_rtt_ms(&rtt)
}

fn keys() -> Vec<Key> {
    (0..KEYS).map(|i| Key::new(format!("sh-{i}"))).collect()
}

/// Drain the completion channel through a warmup, then a measured window.
/// Returns `(ops_per_sec, p50, p99, commit_rate, completions)`.
fn measure(
    rx: &std::sync::mpsc::Receiver<LoadRecord>,
    warmup: Duration,
    window: Duration,
) -> (f64, u64, u64, f64, u64) {
    // Coarse poll-and-drain, not per-record blocking recv: at tens of
    // thousands of completions per second a per-record wake of this thread
    // preempts the system under test once per transaction and the sweep
    // measures the kernel's wakeup behavior instead of the cluster.
    let warm_end = Instant::now() + warmup;
    while Instant::now() < warm_end {
        std::thread::sleep(Duration::from_millis(10).min(warm_end - Instant::now()));
        while rx.try_recv().is_ok() {}
    }
    let started = Instant::now();
    let mut latencies = Histogram::new();
    let mut committed = 0u64;
    let mut completions = 0u64;
    while started.elapsed() < window {
        std::thread::sleep(Duration::from_millis(10).min(window - started.elapsed()));
        while let Ok(record) = rx.try_recv() {
            completions += 1;
            latencies.record(record.latency_us());
            if record.outcome == Outcome::Committed {
                committed += 1;
            }
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    (
        completions as f64 / elapsed,
        latencies.quantile(0.50).unwrap_or(0),
        latencies.quantile(0.99).unwrap_or(0),
        if completions > 0 {
            committed as f64 / completions as f64
        } else {
            0.0
        },
        completions,
    )
}

/// One point on the in-process channel transport: a [`LiveCluster`] on one
/// reactor of `workers` workers.
fn run_channel_point(
    shards: usize,
    workers: usize,
    clients: usize,
    warmup: Duration,
    window: Duration,
    seed: u64,
) -> Point {
    let config = ClusterConfig::new(SITES, Protocol::Fast).with_shards(shards);
    let mut cluster = LiveCluster::builder(config)
        .network(lan())
        .seed(seed)
        .plane(PlaneConfig::default().with_workers(workers))
        .build();
    let keys = keys();
    let (tx, rx) = channel::<LoadRecord>();
    for site in 0..SITES {
        let coordinator = cluster.coordinator(site);
        let actors: Vec<Box<dyn Actor<Msg>>> = (0..clients)
            .filter(|k| k % SITES == site)
            .map(|_| Box::new(LoadClient::new(coordinator, keys.clone(), tx.clone())) as _)
            .collect();
        if !actors.is_empty() {
            cluster.spawn_client_pool(site, actors);
        }
    }
    drop(tx);
    let (ops_per_sec, p50_us, p99_us, commit_rate, completions) = measure(&rx, warmup, window);
    let harvest = cluster.shutdown();
    let mut merged = harvest.merged_metrics();
    Point {
        shards,
        transport: "channel",
        workers,
        clients,
        ops_per_sec,
        p50_us,
        p99_us,
        commit_rate,
        completions,
        shed: harvest.shed,
        spans: span_set(&mut merged),
    }
}

/// One point over real sockets: three server transports (one per
/// "planetd", hosting that site's shard replicas and coordinator with the
/// shard-major id layout) plus one client-side transport whose
/// [`LoadClient`]s reach coordinators through static routes and receive
/// replies down the learned connections — exactly the planetd/planet-load
/// split, inside one process: each "planetd" runs its actors on a
/// [`Reactor`] of its own, as a `planetd` process does, and the clients ride
/// a fourth as pool tasks, as `planet-load`'s do.
fn run_tcp_point(
    shards: usize,
    workers: usize,
    clients: usize,
    warmup: Duration,
    window: Duration,
    seed: u64,
) -> Point {
    let n = SITES;
    let config = ClusterConfig::new(n, Protocol::Fast).with_shards(shards);
    let clock = Clock::new();
    let plane = PlaneConfig::default().with_workers(workers);
    // One per site, then the load generator's.
    let reactors: Vec<Arc<Reactor>> = (0..=n)
        .map(|i| Reactor::new(clock, plane, seed ^ i as u64))
        .collect();
    let replica_ids: Vec<ActorId> = (0..shards * n).map(|i| ActorId(i as u32)).collect();
    let server_ids: Vec<u32> = (0..(shards + 1) * n).map(|i| i as u32).collect();

    let transports: Vec<Arc<TcpTransport>> = (0..n).map(|_| TcpTransport::new()).collect();
    let addrs: Vec<_> = transports
        .iter()
        .map(|t| {
            let any = "127.0.0.1:0".parse().expect("loopback addr");
            t.listen(any).expect("bind")
        })
        .collect();
    let client_transport = TcpTransport::new();
    for t in transports.iter().chain(std::iter::once(&client_transport)) {
        for &id in &server_ids {
            // Replica (site, shard) = shard*n + site and coordinator
            // shards*n + site are both served by site's transport.
            t.add_route(id, addrs[id as usize % n]);
        }
    }

    let mut nodes = Vec::new();
    for (site, transport) in transports.iter().enumerate() {
        let mut hosted: Vec<(u32, Box<dyn Actor<Msg>>)> = Vec::new();
        for shard in 0..shards {
            let peers = replica_ids[shard * n..(shard + 1) * n].to_vec();
            hosted.push((
                (shard * n + site) as u32,
                Box::new(ReplicaActor::new(config.clone(), peers, shard)),
            ));
        }
        hosted.push((
            (shards * n + site) as u32,
            Box::new(CoordinatorActor::new(
                config.clone(),
                replica_ids.clone(),
                SiteId(site as u8),
            )),
        ));
        for (id, actor) in hosted {
            let (tx, rx) = mailbox(plane.mailbox_capacity);
            transport.host(id, tx.clone());
            nodes.push(reactors[site].spawn(
                ActorId(id),
                SiteId(site as u8),
                actor,
                tx,
                rx,
                transport.clone() as Arc<dyn Transport>,
            ));
        }
    }

    let keys = keys();
    let (tx, rx) = channel::<LoadRecord>();
    let mut next_client = ((shards + 1) * n) as u32;
    let mut pools = Vec::new();
    for site in 0..n {
        let coordinator = ActorId((shards * n + site) as u32);
        let members: PoolMembers = (0..clients)
            .filter(|k| k % n == site)
            .map(|_| {
                let id = ActorId(next_client);
                next_client += 1;
                let actor: Box<dyn Actor<Msg>> =
                    Box::new(LoadClient::new(coordinator, keys.clone(), tx.clone()));
                (id, actor)
            })
            .collect();
        pools.extend(reactors[n].spawn_pool_per_worker(
            members,
            SiteId(site as u8),
            client_transport.clone() as Arc<dyn Transport>,
            |id, mtx| client_transport.host(id.0, mtx),
        ));
    }
    drop(tx);

    let (ops_per_sec, p50_us, p99_us, commit_rate, completions) = measure(&rx, warmup, window);

    let mut all_metrics = Vec::new();
    for pool in pools {
        let (_, metrics) = pool.stop_and_join();
        all_metrics.push(metrics);
    }
    // Coordinators before replicas, as LiveCluster::shutdown does.
    for node in nodes.into_iter().rev() {
        let (_, metrics) = node.stop_and_join();
        all_metrics.push(metrics);
    }
    for reactor in &reactors {
        reactor.shutdown();
    }
    let mut shed = client_transport.shed();
    client_transport.stop();
    for t in &transports {
        shed += t.shed();
        t.stop();
    }

    Point {
        shards,
        transport: "tcp",
        workers,
        clients,
        ops_per_sec,
        p50_us,
        p99_us,
        commit_rate,
        completions,
        shed,
        spans: span_set_of(all_metrics),
    }
}

/// Median-of-`trials` by ops/sec, as the base throughput sweep does.
#[allow(clippy::too_many_arguments)]
fn cores() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

fn span_json(name: &str, s: &SpanStat) -> String {
    format!(
        "\"{name}\": {{\"p50_us\": {}, \"p99_us\": {}, \"count\": {}}}",
        s.p50_us, s.p99_us, s.count
    )
}

fn write_json(points: &[Point], warmup: Duration, window: Duration, trials: usize) {
    let mut out = String::from("{\n  \"experiment\": \"throughput_sharded\",\n");
    out.push_str(&format!(
        "  \"sites\": {SITES},\n  \"keys\": {KEYS},\n  \"cores\": {},\n  \"warmup_secs\": {},\n  \"window_secs\": {},\n  \"trials\": {trials},\n  \"points\": [\n",
        cores(),
        warmup.as_secs_f64(),
        window.as_secs_f64()
    ));
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"shards\": {}, \"transport\": \"{}\", \"workers\": {}, \"clients\": {}, \"ops_per_sec\": {:.1}, \"p50_us\": {}, \"p99_us\": {}, \"commit_rate\": {:.4}, \"completions\": {}, \"shed\": {}, \"spans\": {{{}, {}, {}, {}}}}}{}\n",
            p.shards,
            p.transport,
            p.workers,
            p.clients,
            p.ops_per_sec,
            p.p50_us,
            p.p99_us,
            p.commit_rate,
            p.completions,
            p.shed,
            span_json("queue_us", &p.spans.queue),
            span_json("quorum_wait_us", &p.spans.quorum_wait),
            span_json("wal_us", &p.spans.wal),
            span_json("network_us", &p.spans.network),
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    if let Err(e) = std::fs::write("BENCH_throughput_sharded.json", &out) {
        eprintln!("throughput-sharded: could not write BENCH_throughput_sharded.json: {e}");
    } else {
        eprintln!("wrote BENCH_throughput_sharded.json");
    }
}

/// The `throughput-sharded` experiment: ops/sec vs shard count and client
/// concurrency, on both live transports.
pub fn throughput_sharded(scale: Scale) -> Table {
    let shard_counts: &[usize] = &[1, 2, 4];
    let client_points: &[usize] = match scale {
        Scale::Quick => &[8],
        Scale::Full => &[64, 256, 1024],
    };
    let (warmup, window, trials) = match scale {
        Scale::Quick => (Duration::from_millis(200), Duration::from_millis(500), 1),
        Scale::Full => (Duration::from_millis(500), Duration::from_secs(2), 3),
    };
    let workers = planet_cluster::default_workers();

    let mut table = Table::new(
        "throughput-sharded",
        "Live cluster: throughput vs replica shards per site (channel + tcp transports)",
        &[
            "shards",
            "transport",
            "workers",
            "clients",
            "ops/sec",
            "p50",
            "p99",
            "commit rate",
            "q-wait p50",
            "net p50",
        ],
    );
    // Every (transport, shards, clients) combination, in display order.
    let mut configs: Vec<(&'static str, usize, usize)> = Vec::new();
    for &transport in &["channel", "tcp"] {
        for &shards in shard_counts {
            for &clients in client_points {
                configs.push((transport, shards, clients));
            }
        }
    }
    // Trial-major order: one trial of every config, then the next round.
    // Ambient load on the host drifts over the minutes a full sweep takes;
    // interleaving spreads that drift across all configs instead of letting
    // it bias whichever config happened to run during a noisy stretch.
    let mut by_config: Vec<Vec<Point>> = configs.iter().map(|_| Vec::new()).collect();
    for trial in 0..trials {
        for (i, &(transport, shards, clients)) in configs.iter().enumerate() {
            let seed = 9000 + shards as u64 * 100 + clients as u64 + 1000 * trial as u64;
            by_config[i].push(match transport {
                "tcp" => run_tcp_point(shards, workers, clients, warmup, window, seed),
                _ => run_channel_point(shards, workers, clients, warmup, window, seed),
            });
        }
    }
    let mut points = Vec::new();
    for mut trials_of in by_config {
        trials_of.sort_by(|a, b| a.ops_per_sec.total_cmp(&b.ops_per_sec));
        let point = trials_of.remove(trials_of.len() / 2);
        table.row(vec![
            point.shards.to_string(),
            point.transport.to_string(),
            point.workers.to_string(),
            point.clients.to_string(),
            format!("{:.0}", point.ops_per_sec),
            crate::report::ms(point.p50_us),
            crate::report::ms(point.p99_us),
            crate::report::pct(point.commit_rate),
            crate::report::ms(point.spans.quorum_wait.p50_us),
            crate::report::ms(point.spans.network.p50_us),
        ]);
        points.push(point);
    }
    table.note(format!(
        "{SITES} sites, {KEYS} keys, commutative increments, {} host core(s), median of {trials}; workers is per reactor: channel points run one reactor and ride the 2ms-RTT fabric, tcp points run four (one per site, one for the clients) over raw loopback sockets",
        cores()
    ));
    if scale == Scale::Full {
        write_json(&points, warmup, window, trials);
    }
    table
}
