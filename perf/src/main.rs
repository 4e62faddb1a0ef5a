//! `planet-perf`: the repo's benchmark. One invocation runs one workload
//! once, checks its outputs, prints every metric by name with its unit and a
//! provenance record, and ends with the driver's one-line JSON result.
//!
//! ```text
//! planet-perf --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! planet-perf --names
//! ```
//!
//! See `perf/README.md` for the workloads, the metrics and how to read them.

mod alloc;
mod cluster;
mod estimators;
mod generator;
mod layers;
mod live;
mod measure;
mod probes;
mod procstat;
mod report;
mod script;
mod simgeo;

use cluster::TransportKind;
use live::{LiveSpec, Traffic};
use measure::PhaseReport;
use report::{json_number, json_string, Values, END_TO_END, PER_LAYER};

#[global_allocator]
static GLOBAL: alloc::CountingAllocator = alloc::CountingAllocator;

/// The workloads, each with the completions per second it sustains at the
/// seed commit on the reference host (2 cores, Xeon 2.1 GHz). The rate only
/// sizes the run: `--seconds` × rate completions are measured, so the work
/// is fixed by the command line and not by how fast the host is while the
/// run lasts, and the measured phase lasts about `--seconds` at the seed.
const WORKLOADS: &[(&str, f64)] = &[
    ("chan-ticket-sat", 21_500.0),
    ("tcp-ticket-sat", 21_500.0),
    ("chan-kv-open", live::OPEN_RATE),
    ("sim-geo-planet", 12_000.0),
];

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: planet-perf --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n       planet-perf --names",
        WORKLOADS
            .iter()
            .map(|w| w.0)
            .collect::<Vec<_>>()
            .join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 16.0,
        traced: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = value(),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.traced = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--smoke" => args.smoke = true,
            "--names" => {
                // One metric per line, for the check against BENCHMARK.json.
                for (kind, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
                    for (name, unit, better) in defs {
                        println!("{kind} {name} {unit} {}", better.word());
                    }
                }
                for (name, _) in WORKLOADS {
                    println!("workload {name}");
                }
                std::process::exit(0);
            }
            _ => usage(),
        }
    }
    let known = WORKLOADS.iter().any(|w| w.0 == args.workload);
    if !(known && args.seconds > 0.0 && args.seconds <= 60.0) {
        usage();
    }
    args
}

fn first_line_of(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

/// The host/revision stamp of a record. The revision and compiler come from
/// `perf/run.sh` through the environment; a bare binary says "unknown".
fn provenance(
    args: &Args,
    warmup: u64,
    measured: u64,
    plane: Option<planet_cluster::PlaneConfig>,
    phase: &PhaseReport,
    setups_s: &[f64],
) -> String {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_string());
    let plane = match plane {
        Some(p) => format!(
            "{{\"workers\": {}, \"fabric_shards\": {}, \"max_batch\": {}, \"mailbox_capacity\": {}, \"fabric_slack_us\": {}}}",
            p.workers, p.fabric_shards, p.max_batch, p.mailbox_capacity, p.fabric_slack_us
        ),
        None => "null".to_string(),
    };
    let numbers = |xs: &[f64]| -> String {
        let xs: Vec<String> = xs.iter().map(|x| json_number(*x)).collect();
        xs.join(", ")
    };
    format!(
        "{{\"git_rev\": {}, \"rustc\": {}, \"profile\": {}, \"nproc\": {}, \"cpu_model\": {}, \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"traced\": {}, \"smoke\": {}, \"plane\": {plane}, \"ops\": {{\"warmup\": {warmup}, \"measured\": {measured}, \"slices\": {}}}, \"samples\": {{\"commit_latency\": {}, \"read_latency\": {}, \"smallest_slice_commit_latency\": {}}}, \"counts\": {{\"attempted\": {}, \"failed\": {}, \"admitted\": {}, \"committed\": {}, \"refused\": {}}}, \"measured_span_s\": {}, \"slice_iqr_ratio\": {}, \"slice_goodput_ops_s\": [{}], \"setups_s\": [{}]}}",
        json_string(&env("PERF_GIT_REV")),
        json_string(&env("PERF_RUSTC")),
        json_string(if cfg!(debug_assertions) { "debug" } else { "release" }),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        json_string(&first_line_of("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".to_string())),
        json_string(&args.workload),
        args.seed,
        json_number(args.seconds),
        args.traced,
        args.smoke,
        estimators::SLICES,
        phase.write_samples,
        phase.read_samples,
        phase.min_slice_write_samples,
        phase.counts.attempted,
        phase.counts.failed,
        phase.counts.admitted,
        phase.counts.committed,
        phase.counts.refused,
        json_number(phase.span_s),
        json_number(phase.slice_iqr_ratio),
        numbers(&phase.slice_goodput),
        numbers(setups_s),
    )
}

/// The end-to-end record: the phase's estimates, as measured.
fn end_to_end(phase: &PhaseReport, setup_s: f64) -> Values {
    let mut v = report::zeros(END_TO_END);
    v.insert("setup_s", setup_s);
    v.insert("goodput_ops_s", phase.goodput_ops_s);
    v.insert("commit_p50_ms", phase.commit_p50_ms);
    v.insert("allocs_per_commit", phase.allocs_per_commit);
    v.insert("commit_ratio", phase.commit_ratio);
    v
}

/// What `main` needs of a run, whichever engine ran it.
struct Ran {
    phase: PhaseReport,
    setups_s: Vec<f64>,
    wrong: u64,
    checked: String,
    plane: Option<planet_cluster::PlaneConfig>,
    layer_values: Option<Values>,
}

fn main() {
    let args = parse_args();
    let rate = WORKLOADS
        .iter()
        .find(|w| w.0 == args.workload)
        .map_or(0.0, |w| w.1);
    // A traced run measures a third of the operations; the smoke size is a
    // fiftieth.
    let scale =
        if args.smoke { 1.0 / 50.0 } else { 1.0 } * if args.traced { 1.0 / 3.0 } else { 1.0 };
    let measured = ((args.seconds * rate * scale) as u64).max(estimators::SLICES as u64 * 40);
    let warmup = measured / 8;
    let setups = if args.traced || args.smoke { 1 } else { SETUPS };

    // A traced run times a fixed hash loop before and after itself, while
    // the process is otherwise idle (`host.spin_ms`).
    let spin_before = args.traced.then(probes::host_spin_ms);

    let live = match args.workload.as_str() {
        "chan-ticket-sat" => Some((TransportKind::Channel, Traffic::Ticket)),
        "tcp-ticket-sat" => Some((TransportKind::Tcp, Traffic::Ticket)),
        "chan-kv-open" => Some((TransportKind::Channel, Traffic::KeyValue)),
        _ => None,
    };
    let ran = match live {
        Some((kind, traffic)) => {
            let spec = LiveSpec {
                kind,
                traffic,
                warmup,
                measured,
                seed: args.seed,
            };
            let run = match live::run(&spec, setups, args.traced) {
                Ok(run) => run,
                Err(why) => {
                    eprintln!("planet-perf: {}: {why}", args.workload);
                    std::process::exit(1);
                }
            };
            let layer_values = args
                .traced
                .then(|| layers::live_layers(&run, kind, traffic, args.seed));
            Ran {
                phase: run.phase,
                setups_s: run.setups_s,
                wrong: run.wrong,
                checked: run.checked,
                plane: Some(run.plane),
                layer_values,
            }
        }
        None => {
            let run = simgeo::run(args.seed, warmup, measured, setups);
            let layer_values = args
                .traced
                .then(|| layers::sim_layers(&run.layers, &run.phase));
            Ran {
                phase: run.phase,
                setups_s: run.setups_s,
                wrong: run.wrong,
                checked: run.checked,
                plane: None,
                layer_values,
            }
        }
    };
    let Ran {
        phase,
        setups_s,
        wrong,
        checked,
        plane,
        mut layer_values,
    } = ran;
    // The host's speed beside the run: the slower of the two readings.
    if let (Some(values), Some(before)) = (&mut layer_values, spin_before) {
        values.insert("host.spin_ms", before.max(probes::host_spin_ms()));
    }

    let setup_s = estimators::median(&setups_s).unwrap_or(0.0);
    let e2e = end_to_end(&phase, setup_s);
    println!(
        "# {} seed {} — {} run",
        args.workload,
        args.seed,
        if args.traced { "traced" } else { "untraced" }
    );
    if args.traced {
        println!(
            "# end-to-end figures of a traced run are for orientation only; compare untraced runs"
        );
    }
    report::print_metrics(END_TO_END, &e2e);
    if let Some(values) = &layer_values {
        report::print_metrics(PER_LAYER, values);
    }
    let failed = phase.counts.failed + wrong;
    println!("ops_attempted {}", phase.counts.attempted);
    println!("ops_failed {failed}");
    println!("checked: {checked}; {wrong} wrong");
    println!(
        "provenance {}",
        provenance(&args, warmup, measured, plane, &phase, &setups_s)
    );
    let (defs, values) = match &layer_values {
        Some(values) => (PER_LAYER, values),
        None => (END_TO_END, &e2e),
    };
    println!(
        "{}",
        report::result_line(defs, values, failed == 0, phase.counts.attempted, failed)
    );
}
