//! `planet-audit` — offline isolation-anomaly auditor.
//!
//! Two modes:
//!
//! * **Offline** (`--trace f1 [f2 ...]`): parse one or more trace files
//!   (written by `planetd --trace`, one per site), merge them into a single
//!   history, and audit it.
//! * **Run** (`--run <workload>`): execute a named anomaly workload on the
//!   deterministic in-process sim cluster with tracing on, then audit the
//!   captured trace. This is what CI uses — no servers, no wall clock.
//!
//! Exit codes: without `--expect-anomaly`, 0 iff the history is clean.
//! With `--expect-anomaly <kind>`, 0 iff that anomaly *was* found (the run
//! is a detector regression test), 1 otherwise. 2 for usage errors.

use std::io::{BufRead, BufReader, Write};

use planet_audit::harness::{run_workload, RunConfig};
use planet_audit::{audit, Verdict};
use planet_mdcc::{Protocol, TraceEvent};
use planet_workload::ANOMALY_WORKLOADS;

struct Args {
    traces: Vec<String>,
    run: Option<String>,
    txns: usize,
    sites: usize,
    shards: usize,
    seed: u64,
    protocol: Protocol,
    json: Option<String>,
    expect_anomaly: Option<String>,
    quiet: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: planet-audit (--trace <file>... | --run <workload>) [options]\n\
         \n\
         modes:\n\
         \x20 --trace <file>...        audit one or more recorded trace files\n\
         \x20 --run <workload>         run a sim workload with tracing and audit it\n\
         \x20                          (workloads: {})\n\
         options:\n\
         \x20 --txns <n>               transactions for --run (default 200)\n\
         \x20 --sites <n>              sites for --run (default 3)\n\
         \x20 --shards <n>             shards per site for --run (default 1)\n\
         \x20 --seed <n>               deterministic seed for --run\n\
         \x20 --protocol fast|classic|twopc   commit protocol for --run\n\
         \x20 --json <path>            write the full JSON verdict to <path>\n\
         \x20 --expect-anomaly <kind>  exit 0 iff <kind> was detected\n\
         \x20 --quiet                  suppress the summary line",
        ANOMALY_WORKLOADS.join(", ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut out = Args {
        traces: Vec::new(),
        run: None,
        txns: 200,
        sites: 3,
        shards: 1,
        seed: 0xA0D17,
        protocol: Protocol::Fast,
        json: None,
        expect_anomaly: None,
        quiet: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--trace" => match args.next() {
                Some(f) => out.traces.push(f),
                None => usage(),
            },
            "--run" => match args.next() {
                Some(w) => out.run = Some(w),
                None => usage(),
            },
            "--txns" => match args.next().and_then(|v| v.parse().ok()).filter(|&v| v > 0) {
                Some(v) => out.txns = v,
                None => usage(),
            },
            "--sites" => match args.next().and_then(|v| v.parse().ok()).filter(|&v| v > 0) {
                Some(v) => out.sites = v,
                None => usage(),
            },
            "--shards" => match args.next().and_then(|v| v.parse().ok()).filter(|&v| v > 0) {
                Some(v) => out.shards = v,
                None => usage(),
            },
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => out.seed = v,
                None => usage(),
            },
            "--protocol" => match args.next().as_deref() {
                Some("fast") => out.protocol = Protocol::Fast,
                Some("classic") => out.protocol = Protocol::Classic,
                Some("twopc") => out.protocol = Protocol::TwoPc,
                _ => usage(),
            },
            "--json" => match args.next() {
                Some(p) => out.json = Some(p),
                None => usage(),
            },
            "--expect-anomaly" => match args.next() {
                Some(k) => out.expect_anomaly = Some(k),
                None => usage(),
            },
            "--quiet" => out.quiet = true,
            _ => usage(),
        }
    }
    // Exactly one mode.
    if out.traces.is_empty() == out.run.is_none() {
        usage();
    }
    out
}

/// Parse one trace file, counting (but tolerating) malformed lines — a
/// truncated final line from a killed server must not sink the whole audit.
fn read_trace(path: &str) -> Result<(Vec<TraceEvent>, usize), String> {
    let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
    let mut events = Vec::new();
    let mut malformed = 0;
    for line in BufReader::new(file).lines() {
        let line = line.map_err(|e| format!("{path}: {e}"))?;
        if line.trim().is_empty() {
            continue;
        }
        match TraceEvent::parse_line(&line) {
            Some(ev) => events.push(ev),
            None => malformed += 1,
        }
    }
    Ok((events, malformed))
}

fn run() -> Result<i32, String> {
    let args = parse_args();

    let verdict: Verdict = if let Some(workload) = &args.run {
        let out = run_workload(&RunConfig {
            workload: workload.clone(),
            txns: args.txns,
            sites: args.sites,
            shards: args.shards,
            protocol: args.protocol,
            seed: args.seed,
        })?;
        if !args.quiet {
            eprintln!(
                "ran {workload}: {} committed, {} aborted, {} trace events",
                out.committed,
                out.aborted,
                out.events.len()
            );
        }
        audit(&out.events)
    } else {
        let mut events = Vec::new();
        for path in &args.traces {
            let (mut evs, malformed) = read_trace(path)?;
            if malformed > 0 {
                eprintln!("warning: {path}: skipped {malformed} malformed line(s)");
            }
            events.append(&mut evs);
        }
        // Merged multi-site traces interleave arbitrarily; the auditor keys
        // everything off (txn, key, version), so raw order is fine, but sort
        // by logical time for a stable verdict regardless of file order.
        events.sort_by_key(|e| (e.at(), e.to_line()));
        audit(&events)
    };

    if let Some(path) = &args.json {
        let mut f = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
        f.write_all(verdict.to_json().as_bytes())
            .and_then(|()| f.write_all(b"\n"))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    if !args.quiet {
        println!("{}", verdict.summary());
        for a in &verdict.anomalies {
            println!("  {}: {}", a.kind, a.note);
        }
    }

    let code = match &args.expect_anomaly {
        Some(kind) => {
            if verdict.has(kind) {
                0
            } else {
                eprintln!("expected anomaly {kind:?} was NOT detected");
                1
            }
        }
        None => {
            if verdict.clean() {
                0
            } else {
                1
            }
        }
    };
    Ok(code)
}

fn main() {
    match run() {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("planet-audit: {e}");
            std::process::exit(2);
        }
    }
}
