//! Trace-overhead gate for the isolation auditor.
//!
//! Runs the closed-loop driver (`planet_workload::closed_loop`) at smoke
//! scale twice — tracing off, then tracing into a live `VecSink` — and enforces
//! that the traced run keeps at least 95% of the untraced throughput. The
//! trace layer sits on the coordinator/replica hot paths (reads, commits,
//! applies), so this is the gate that keeps it honest: one mutex push per
//! event, and nothing at all when no sink is attached.
//!
//! Both points land in `BENCH_audit.json` in cargo's per-target temporary
//! directory (`target/tmp/` by default), which CI uploads as an
//! artifact; the committed root `BENCH_audit.json` is the recorded run
//! EXPERIMENTS.md cites, and no test run rewrites it. Each
//! configuration takes the best of three 1-second windows to damp scheduler
//! noise; the 5% envelope is on those bests.
//!
//! `#[ignore]`d because it is wall-clock-sensitive: run it explicitly with
//! `cargo test --release -p planet-bench --test audit_overhead -- --ignored`.

use std::sync::Arc;
use std::time::Duration;

use planet_bench::common::lan;
use planet_cluster::{LiveCluster, PlaneConfig};
use planet_mdcc::{ClusterConfig, Protocol, Trace, VecSink};
use planet_storage::Key;
use planet_workload::closed_loop::{self, Mix};

const SITES: usize = 3;
const KEYS: usize = 64;
const CLIENTS: usize = 8;
const REPS: usize = 3;
/// Traced throughput must stay within 5% of untraced.
const MIN_RATIO: f64 = 0.95;

struct Point {
    traced: bool,
    ops_per_sec: f64,
    commit_rate: f64,
    completions: u64,
    trace_events: usize,
}

fn run_window(traced: bool) -> Point {
    let mut config = ClusterConfig::new(SITES, Protocol::Fast).with_shards(1);
    let sink = Arc::new(VecSink::new());
    if traced {
        config.trace = Trace::to(sink.clone());
    }
    let mut cluster = LiveCluster::builder(config)
        .network(lan(SITES))
        .seed(0xA0D1 ^ traced as u64)
        .plane(PlaneConfig::default())
        .build();
    let keys: Vec<Key> = (0..KEYS).map(|i| Key::new(format!("audit-{i}"))).collect();
    let ids = closed_loop::spawn(&mut cluster, CLIENTS, &Mix::Increments(keys.into()));
    let warmup = Duration::from_millis(300);
    let tally = closed_loop::measure(&cluster, &ids, warmup, Duration::from_secs(1));
    cluster.shutdown();

    Point {
        traced,
        ops_per_sec: tally.ops_per_sec(),
        commit_rate: tally.commit_rate(),
        completions: tally.total(),
        trace_events: sink.len(),
    }
}

fn best_of(traced: bool) -> Point {
    (0..REPS)
        .map(|_| run_window(traced))
        .max_by(|a, b| a.ops_per_sec.total_cmp(&b.ops_per_sec))
        .expect("REPS >= 1")
}

#[test]
#[ignore = "wall-clock overhead gate; run explicitly in the CI smoke job"]
fn tracing_overhead_stays_inside_the_envelope() {
    let off = best_of(false);
    let on = best_of(true);
    let ratio = if off.ops_per_sec > 0.0 {
        on.ops_per_sec / off.ops_per_sec
    } else {
        0.0
    };

    let mut out = String::from("{\n  \"experiment\": \"audit_overhead\",\n");
    out.push_str(&format!(
        "  \"sites\": {SITES},\n  \"clients\": {CLIENTS},\n  \"keys\": {KEYS},\n  \
         \"reps\": {REPS},\n  \"min_ratio\": {MIN_RATIO},\n  \"ratio\": {ratio:.4},\n  \"points\": [\n"
    ));
    for (i, p) in [&off, &on].iter().enumerate() {
        out.push_str(&format!(
            "    {{\"traced\": {}, \"ops_per_sec\": {:.1}, \"commit_rate\": {:.4}, \"completions\": {}, \"trace_events\": {}}}{}\n",
            p.traced,
            p.ops_per_sec,
            p.commit_rate,
            p.completions,
            p.trace_events,
            if i == 0 { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("BENCH_audit.json");
    std::fs::write(&path, &out).expect("write audit overhead artifact");
    eprintln!("wrote {}:\n{out}", path.display());

    for p in [&off, &on] {
        assert!(p.completions > 0, "traced={}: nothing completed", p.traced);
        assert_eq!(
            p.commit_rate, 1.0,
            "traced={}: commutative increments must all commit",
            p.traced
        );
    }
    assert_eq!(off.trace_events, 0, "no sink, no events");
    assert!(
        on.trace_events > 0,
        "traced run must actually record events"
    );
    assert!(
        ratio >= MIN_RATIO,
        "tracing costs too much: {:.1} -> {:.1} ops/s (ratio {ratio:.3} < {MIN_RATIO})",
        off.ops_per_sec,
        on.ops_per_sec
    );
}
