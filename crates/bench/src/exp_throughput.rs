//! Live-cluster throughput: sweep closed-loop client concurrency over a
//! [`LiveCluster`] on the in-process channel transport.
//!
//! Unlike every other experiment (which runs the deterministic simulation),
//! this one measures the *live* runtime: replicas, coordinators and client
//! pools as tasks on the reactor's workers, wall-clock time, the LAN-ish
//! network model shaping deliveries. Every point warms up before the
//! measured window and reports the plane's own telemetry (mean drain batch,
//! mailbox high-water) alongside throughput and latency. At `Scale::Full`
//! the sweep covers 1→256 clients and is written to `BENCH_throughput.json`.

use std::sync::mpsc::channel;
use std::time::{Duration, Instant};

use planet_cluster::{LiveCluster, LoadClient, LoadRecord, PlaneConfig};
use planet_mdcc::{ClusterConfig, Outcome, Protocol};
use planet_sim::metrics::Histogram;
use planet_sim::NetworkModel;
use planet_storage::Key;

use crate::common::Scale;
use crate::report::Table;

const SITES: usize = 3;
const KEYS: usize = 64;

/// One measured sweep point.
struct Point {
    clients: usize,
    ops_per_sec: f64,
    p50_us: u64,
    p99_us: u64,
    commit_rate: f64,
    completions: u64,
    mean_batch: f64,
    mailbox_hwm: u64,
    shed: u64,
}

/// A LAN-ish topology: the point of the sweep is scheduling and protocol
/// cost under concurrency, not WAN geography, so cross-site RTT is 2 ms.
pub(crate) fn lan() -> NetworkModel {
    let rtt: Vec<Vec<f64>> = (0..SITES)
        .map(|i| (0..SITES).map(|j| if i == j { 0.1 } else { 2.0 }).collect())
        .collect();
    NetworkModel::from_rtt_ms(&rtt)
}

fn run_point(
    clients: usize,
    warmup: Duration,
    window: Duration,
    seed: u64,
    plane: PlaneConfig,
) -> Point {
    let config = ClusterConfig::new(SITES, Protocol::Fast);
    let mut cluster = LiveCluster::builder(config)
        .network(lan())
        .seed(seed)
        .plane(plane)
        .build();
    let keys: Vec<Key> = (0..KEYS).map(|i| Key::new(format!("tp-{i}"))).collect();
    let (tx, rx) = channel::<LoadRecord>();
    // One client *pool* per site: hundreds of closed-loop clients ride on
    // a few pool tasks, so the sweep measures the cluster, not the
    // scheduling of hundreds of tiny tasks.
    for site in 0..SITES {
        let coordinator = cluster.coordinator(site);
        let actors: Vec<Box<dyn planet_sim::Actor<planet_mdcc::Msg>>> = (0..clients)
            .filter(|k| k % SITES == site)
            .map(|_| {
                Box::new(LoadClient::new(coordinator, keys.clone(), tx.clone()))
                    as Box<dyn planet_sim::Actor<planet_mdcc::Msg>>
            })
            .collect();
        if !actors.is_empty() {
            cluster.spawn_client_pool(site, actors);
        }
    }
    drop(tx);

    // Warm up: let every client reach steady state, discarding completions.
    let warm_end = Instant::now() + warmup;
    while Instant::now() < warm_end {
        let _ = rx.recv_timeout(warm_end - Instant::now());
    }

    // Measure: count completions and latencies inside the window only.
    let started = Instant::now();
    let mut latencies = Histogram::new();
    let mut committed = 0u64;
    let mut completions = 0u64;
    while started.elapsed() < window {
        let remaining = window - started.elapsed();
        if let Ok(record) = rx.recv_timeout(remaining.min(Duration::from_millis(50))) {
            completions += 1;
            latencies.record(record.latency_us());
            if record.outcome == Outcome::Committed {
                committed += 1;
            }
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    let harvest = cluster.shutdown();
    let metrics = harvest.merged_metrics();
    let mut mean_batch = 0.0;
    let mut mailbox_hwm = 0;
    for (name, hist) in metrics.histograms() {
        match name {
            "plane.batch" => mean_batch = hist.mean().unwrap_or(0.0),
            "plane.mailbox.depth" => mailbox_hwm = hist.max().unwrap_or(0),
            _ => {}
        }
    }

    Point {
        clients,
        ops_per_sec: completions as f64 / elapsed,
        p50_us: latencies.quantile(0.50).unwrap_or(0),
        p99_us: latencies.quantile(0.99).unwrap_or(0),
        commit_rate: if completions > 0 {
            committed as f64 / completions as f64
        } else {
            0.0
        },
        completions,
        mean_batch,
        mailbox_hwm,
        shed: harvest.shed,
    }
}

fn points_json(points: &[Point], indent: &str) -> String {
    let mut out = String::new();
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            "{indent}{{\"clients\": {}, \"ops_per_sec\": {:.1}, \"p50_us\": {}, \"p99_us\": {}, \"commit_rate\": {:.4}, \"completions\": {}, \"mean_batch\": {:.2}, \"mailbox_hwm\": {}, \"shed\": {}}}{}\n",
            p.clients,
            p.ops_per_sec,
            p.p50_us,
            p.p99_us,
            p.commit_rate,
            p.completions,
            p.mean_batch,
            p.mailbox_hwm,
            p.shed,
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    out
}

fn write_json(points: &[Point], warmup: Duration, window: Duration, trials: usize) {
    let mut out = String::from("{\n  \"experiment\": \"throughput\",\n");
    out.push_str(&format!(
        "  \"sites\": {SITES},\n  \"keys\": {KEYS},\n  \"warmup_secs\": {},\n  \"window_secs\": {},\n  \"trials\": {trials},\n  \"transport\": \"channel\",\n",
        warmup.as_secs_f64(),
        window.as_secs_f64()
    ));
    out.push_str("  \"points\": [\n");
    out.push_str(&points_json(points, "    "));
    out.push_str("  ]\n}\n");
    if let Err(e) = std::fs::write("BENCH_throughput.json", &out) {
        eprintln!("throughput: could not write BENCH_throughput.json: {e}");
    } else {
        eprintln!("wrote BENCH_throughput.json");
    }
}

/// Run `trials` independent deployments of one point and keep the median
/// by ops/sec. Throughput on a loaded host is noisy (±15% run-to-run at
/// high concurrency on one core); the median keeps one descheduled trial
/// from deciding the shape of the whole curve.
fn run_trials(
    clients: usize,
    warmup: Duration,
    window: Duration,
    plane: PlaneConfig,
    trials: usize,
) -> Point {
    let mut points: Vec<Point> = (0..trials)
        .map(|t| {
            run_point(
                clients,
                warmup,
                window,
                42 + clients as u64 + 1000 * t as u64,
                plane,
            )
        })
        .collect();
    points.sort_by(|a, b| a.ops_per_sec.total_cmp(&b.ops_per_sec));
    points.remove(points.len() / 2)
}

fn run_sweep(
    sweep: &[usize],
    warmup: Duration,
    window: Duration,
    plane: PlaneConfig,
    trials: usize,
    table: &mut Table,
) -> Vec<Point> {
    let mut points = Vec::new();
    for &clients in sweep {
        let point = run_trials(clients, warmup, window, plane, trials);
        table.row(vec![
            point.clients.to_string(),
            format!("{:.0}", point.ops_per_sec),
            crate::report::ms(point.p50_us),
            crate::report::ms(point.p99_us),
            crate::report::pct(point.commit_rate),
            format!("{:.1}", point.mean_batch),
            point.mailbox_hwm.to_string(),
        ]);
        points.push(point);
    }
    points
}

/// The `throughput` experiment: ops/sec and latency percentiles vs client
/// concurrency on the live cluster.
pub fn throughput(scale: Scale) -> Table {
    let sweep: &[usize] = match scale {
        Scale::Quick => &[1, 4, 16],
        Scale::Full => &[1, 2, 4, 8, 16, 32, 64, 128, 256],
    };
    let (warmup, window, trials) = match scale {
        Scale::Quick => (Duration::from_millis(200), Duration::from_millis(500), 1),
        Scale::Full => (Duration::from_millis(500), Duration::from_secs(3), 3),
    };

    let mut table = Table::new(
        "throughput",
        "Live cluster: closed-loop throughput vs concurrency (channel transport)",
        &[
            "clients",
            "ops/sec",
            "p50",
            "p99",
            "commit rate",
            "batch",
            "mbox hwm",
        ],
    );
    let plane = PlaneConfig::default();
    let points = run_sweep(sweep, warmup, window, plane, trials, &mut table);
    table.note(format!(
        "{SITES} sites, one reactor of {} worker(s), 2ms cross-site RTT, {KEYS} keys, commutative increments, {}s warmup, {}s window, median of {trials}",
        plane.workers,
        warmup.as_secs_f64(),
        window.as_secs_f64()
    ));
    if scale == Scale::Full {
        write_json(&points, warmup, window, trials);
    }
    table
}
