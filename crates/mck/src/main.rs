//! The `planet-mck` CLI: bounded exhaustive exploration of the MDCC commit
//! protocol with invariant checking.
//!
//! ```text
//! cargo run --release -p planet-mck -- --sites 3 --clients 2 --depth 8
//! cargo run --release -p planet-mck -- --sites 2 --clients 1 --depth 12 \
//!     --mutation tamper-apply        # must report an agreement violation
//! cargo run --release -p planet-mck -- --routing-check --depth 10 --json
//! ```
//!
//! Exit status: 0 when every invariant held over the explored bound, 1 when
//! a violation was found (or the routing check disagreed), 2 on bad usage.

use std::process::ExitCode;

use planet_mck::{explore, routing_check, MckConfig, Mutation, Report, Scenario};
use planet_mdcc::Protocol;

struct Opts {
    cfg: MckConfig,
    routing: bool,
    json: bool,
}

fn parse_args() -> Result<Opts, String> {
    let mut cfg = MckConfig::new(2, 1, 8);
    let mut routing = false;
    let mut json = false;
    let mut args = std::env::args().skip(1);
    let num = |args: &mut dyn Iterator<Item = String>, flag: &str| -> Result<usize, String> {
        args.next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .parse()
            .map_err(|e| format!("{flag}: {e}"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--sites" => cfg.sites = num(&mut args, "--sites")?,
            "--clients" => cfg.clients = num(&mut args, "--clients")?,
            "--shards" => cfg.shards = num(&mut args, "--shards")?,
            "--depth" => cfg.depth = num(&mut args, "--depth")?,
            "--drops" => cfg.drops = num(&mut args, "--drops")?,
            "--dups" => cfg.dups = num(&mut args, "--dups")?,
            "--max-states" => cfg.max_states = num(&mut args, "--max-states")?,
            "--no-symmetry" => cfg.symmetry = false,
            "--routing-check" => routing = true,
            "--json" => json = true,
            "--protocol" => {
                cfg.protocol = match args.next().as_deref() {
                    Some("fast") => Protocol::Fast,
                    Some("classic") => Protocol::Classic,
                    Some("2pc") => Protocol::TwoPc,
                    other => return Err(format!("--protocol: bad value {other:?}")),
                }
            }
            "--scenario" => {
                cfg.scenario = match args.next().as_deref() {
                    Some("conflict") => Scenario::Conflict,
                    Some("write-skew") => Scenario::WriteSkew,
                    other => return Err(format!("--scenario: bad value {other:?}")),
                }
            }
            "--audit" => cfg.audit = true,
            "--mutation" => {
                cfg.mutation = match args.next().as_deref() {
                    Some("tamper-apply") => Some(Mutation::TamperApply),
                    Some("drop-decide") => Some(Mutation::DropDecide),
                    other => return Err(format!("--mutation: bad value {other:?}")),
                }
            }
            "--help" | "-h" => {
                println!(
                    "planet-mck: bounded explicit-state model checker for the commit protocol\n\n\
                     USAGE: planet-mck [--sites N] [--clients N] [--shards N] [--depth K]\n\
                     \x20               [--drops N] [--dups N] [--protocol fast|classic|2pc]\n\
                     \x20               [--mutation tamper-apply|drop-decide] [--max-states N]\n\
                     \x20               [--scenario conflict|write-skew] [--audit]\n\
                     \x20               [--no-symmetry] [--routing-check] [--json]\n\n\
                     --sites N         sites / replication-group size (default 2)\n\
                     --clients N       concurrent clients, one txn each (default 1)\n\
                     --shards N        replica shards per site (default 1)\n\
                     --depth K         scheduler choices per path (default 8)\n\
                     --drops N         per-path message-loss budget (default 0)\n\
                     --dups N          per-path duplication budget (default 0)\n\
                     --protocol P      commit path under test (default fast)\n\
                     --mutation M      seeded corruption; the run SHOULD report a violation\n\
                     --scenario S      workload shape: conflict (default) or write-skew\n\
                     --audit           trace every path and certify reachable isolation anomalies\n\
                     --max-states N    unique-state cap (default 250000)\n\
                     --no-symmetry     disable the site-symmetry reduction\n\
                     --routing-check   compare S=1 vs S=2 verdicts (invariant 4)\n\
                     --json            machine-readable report"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(Opts { cfg, routing, json })
}

fn print_text(r: &Report, label: &str) {
    println!(
        "{label}: {} unique states, {} turns, {:.1}% dedup, {} truncated, max depth {}{}",
        r.unique_states,
        r.steps,
        100.0 * r.dedup_rate(),
        r.truncated,
        r.max_depth,
        if r.capped { " (CAPPED)" } else { "" }
    );
    println!(
        "{label}: verdicts {:?}, complete {:?}",
        r.verdicts, r.complete_verdicts
    );
    for v in r.violations.iter().take(8) {
        println!(
            "{label}: VIOLATION [{}] {} (path {:?})",
            v.invariant, v.detail, v.path
        );
    }
    if !r.anomalies.is_empty() {
        println!("{label}: reachable isolation anomalies {:?}", r.anomalies);
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("planet-mck: {e}");
            return ExitCode::from(2);
        }
    };

    // Wall-clock measurement of the exploration itself; nothing downstream
    // depends on it.
    let t0 = std::time::Instant::now();

    if opts.routing {
        let rep = routing_check(&opts.cfg);
        let wall_ms = t0.elapsed().as_millis();
        if opts.json {
            println!(
                "{{\"routing_consistent\":{},\"wall_ms\":{},\"s1\":{},\"s2\":{}}}",
                rep.consistent,
                wall_ms,
                rep.s1.to_json(),
                rep.s2.to_json()
            );
        } else {
            print_text(&rep.s1, "shards=1");
            print_text(&rep.s2, "shards=2");
            println!(
                "routing check: {} ({wall_ms} ms)",
                if rep.consistent {
                    "CONSISTENT"
                } else {
                    "INCONSISTENT"
                }
            );
        }
        return if rep.consistent {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let rep = explore(&opts.cfg);
    let wall_ms = t0.elapsed().as_millis();
    if opts.json {
        println!(
            "{{\"wall_ms\":{},\"depth\":{},\"sites\":{},\"clients\":{},\"shards\":{},\
             \"report\":{}}}",
            wall_ms,
            opts.cfg.depth,
            opts.cfg.sites,
            opts.cfg.clients,
            opts.cfg.shards,
            rep.to_json()
        );
    } else {
        print_text(&rep, "mck");
        println!("wall time: {wall_ms} ms");
    }
    if rep.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
