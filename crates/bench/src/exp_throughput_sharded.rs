//! Sharded-replica throughput: a closed-loop concurrency sweep that varies
//! the number of replica shards per site (`ClusterConfig::with_shards`) on
//! both live transports. Every point is one [`run_point`]: a
//! [`LiveCluster`] built on the transport under test, the virtual users of
//! `planet_workload::closed_loop` on one product client per site, a
//! measured window, a harvest.
//!
//! * **channel** — one reactor for every actor, the delay fabric shaping
//!   deliveries at a 2 ms cross-site RTT;
//! * **tcp** — `.tcp(..)` with all three sites hosted on loopback ports:
//!   three planetd-style nodes, each with a listener and a reactor of its
//!   own, and the clients on a fourth, planet-load-style node, all over
//!   real sockets.
//!
//! Each point reports the host's core count alongside the numbers: shards
//! only buy parallel commit work when the host actually has cores to run
//! them on, so `cores` is part of the result, not a footnote. Every point
//! also carries the four per-txn latency-attribution spans (queueing,
//! quorum wait, WAL drive, network) harvested from the actors' metrics. At
//! `Scale::Full` the sweep lands in `BENCH_throughput_sharded.json`.

use std::time::Duration;

use planet_cluster::{default_workers, LiveCluster, PlaneConfig};
use planet_mdcc::{ClusterConfig, Protocol};
use planet_sim::metrics::Metrics;
use planet_storage::Key;
use planet_workload::closed_loop::{self, Mix};

use crate::common::{lan, Scale};
use crate::report::Table;

const SITES: usize = 3;
const KEYS: usize = 64;

/// The four per-txn latency-attribution spans, harvested per point:
/// mailbox enqueue → drain at every actor, coordinator proposal dispatch →
/// decision, WAL-class drive time at replicas, and client-observed latency
/// minus coordinator hold time.
const SPANS: [&str; 4] = ["queue_us", "quorum_wait_us", "wal_us", "network_us"];

/// Summary of one span histogram at one point.
#[derive(Clone, Copy, Default)]
struct SpanStat {
    p50_us: u64,
    p99_us: u64,
    count: u64,
}

fn span_stats(metrics: &mut Metrics) -> [SpanStat; 4] {
    SPANS.map(|name| {
        let h = metrics.histogram(&format!("span.{name}"));
        SpanStat {
            p50_us: h.quantile(0.50).unwrap_or(0),
            p99_us: h.quantile(0.99).unwrap_or(0),
            count: h.count(),
        }
    })
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
    /// One per [`SPANS`] entry.
    spans: [SpanStat; 4],
}

/// One point on `transport` (`"channel"` or `"tcp"`): a [`LiveCluster`] of
/// `shards` replica shards per site on reactors of `workers` workers, and
/// `clients` closed-loop clients round-robined over the sites.
fn run_point(
    transport: &'static str,
    shards: usize,
    workers: usize,
    clients: usize,
    warmup: Duration,
    window: Duration,
    seed: u64,
) -> Point {
    let config = ClusterConfig::new(SITES, Protocol::Fast).with_shards(shards);
    let builder = LiveCluster::builder(config)
        .seed(seed)
        .plane(PlaneConfig::default().with_workers(workers));
    let mut cluster = match transport {
        "tcp" => {
            let loopback = "127.0.0.1:0".parse().expect("loopback addr");
            builder.tcp(vec![loopback; SITES], 0..SITES)
        }
        _ => builder.network(lan(SITES)),
    }
    .build();
    let keys: Vec<Key> = (0..KEYS).map(|i| Key::new(format!("sh-{i}"))).collect();
    let ids = closed_loop::spawn(&mut cluster, clients, &Mix::Increments(keys.into()));
    let tally = closed_loop::measure(&cluster, &ids, warmup, window);
    let harvest = cluster.shutdown();
    Point {
        shards,
        transport,
        workers,
        clients,
        ops_per_sec: tally.ops_per_sec(),
        p50_us: tally.latency_us.quantile(0.50).unwrap_or(0),
        p99_us: tally.latency_us.quantile(0.99).unwrap_or(0),
        commit_rate: tally.commit_rate(),
        completions: tally.total(),
        shed: harvest.shed,
        spans: span_stats(&mut harvest.merged_metrics()),
    }
}

fn write_json(points: &[Point], warmup: Duration, window: Duration, trials: usize) {
    let mut out = String::from("{\n  \"experiment\": \"throughput_sharded\",\n");
    out.push_str(&format!(
        "  \"sites\": {SITES},\n  \"keys\": {KEYS},\n  \"cores\": {},\n  \"warmup_secs\": {},\n  \"window_secs\": {},\n  \"trials\": {trials},\n  \"points\": [\n",
        default_workers(),
        warmup.as_secs_f64(),
        window.as_secs_f64()
    ));
    for (i, p) in points.iter().enumerate() {
        let spans: Vec<String> = SPANS
            .iter()
            .zip(&p.spans)
            .map(|(name, s)| {
                let (p50, p99, count) = (s.p50_us, s.p99_us, s.count);
                format!("\"{name}\": {{\"p50_us\": {p50}, \"p99_us\": {p99}, \"count\": {count}}}")
            })
            .collect();
        out.push_str(&format!(
            "    {{\"shards\": {}, \"transport\": \"{}\", \"workers\": {}, \"clients\": {}, \"ops_per_sec\": {:.1}, \"p50_us\": {}, \"p99_us\": {}, \"commit_rate\": {:.4}, \"completions\": {}, \"shed\": {}, \"spans\": {{{}}}}}{}\n",
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
            spans.join(", "),
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
    let workers = default_workers();

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
            by_config[i].push(run_point(
                transport, shards, workers, clients, warmup, window, seed,
            ));
        }
    }
    let mut points = Vec::new();
    for mut trials_of in by_config {
        trials_of.sort_by(|a, b| a.ops_per_sec.total_cmp(&b.ops_per_sec));
        let point = trials_of.remove(trials_of.len() / 2);
        let [_, quorum_wait, _, network] = point.spans;
        table.row(vec![
            point.shards.to_string(),
            point.transport.to_string(),
            point.workers.to_string(),
            point.clients.to_string(),
            format!("{:.0}", point.ops_per_sec),
            crate::report::ms(point.p50_us),
            crate::report::ms(point.p99_us),
            crate::report::pct(point.commit_rate),
            crate::report::ms(quorum_wait.p50_us),
            crate::report::ms(network.p50_us),
        ]);
        points.push(point);
    }
    table.note(format!(
        "{SITES} sites, {KEYS} keys, commutative increments, {} host core(s), median of {trials}; workers is per reactor: channel points run one reactor and ride the 2ms-RTT fabric, tcp points run four (one per site, one for the clients) over raw loopback sockets",
        workers
    ));
    if scale == Scale::Full {
        write_json(&points, warmup, window, trials);
    }
    table
}
