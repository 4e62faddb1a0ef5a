//! The `planet-check` CLI: run the protocol-analysis pipeline over the
//! workspace and report findings.
//!
//! ```text
//! cargo run -p planet-check                 # human-readable report
//! cargo run -p planet-check -- --json      # JSON for CI
//! cargo run -p planet-check -- --pass flow # a single pass
//! ```
//!
//! Exit status is 0 when no error-severity diagnostics were produced, 1
//! otherwise — the CI gate is just the exit code. There is no allowance
//! file: a finding is fixed, or its site carries a `check:allow` marker
//! that cites the invariant.

use std::path::PathBuf;
use std::process::ExitCode;

use planet_check::{all_passes, diag, run_passes_timed, PassTiming, Severity, Workspace};

struct Opts {
    root: PathBuf,
    json: bool,
    list: bool,
    passes: Vec<String>,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        root: PathBuf::from("."),
        json: false,
        list: false,
        passes: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => opts.json = true,
            "--list" => opts.list = true,
            "--root" => {
                opts.root = PathBuf::from(
                    args.next()
                        .ok_or_else(|| "--root needs a path".to_string())?,
                );
            }
            "--pass" => {
                opts.passes.push(
                    args.next()
                        .ok_or_else(|| "--pass needs a name".to_string())?,
                );
            }
            "--help" | "-h" => {
                println!(
                    "planet-check: protocol-aware static analysis\n\n\
                     USAGE: planet-check [--root <dir>] [--pass <name>]... [--json] [--list]\n\n\
                     --root <dir>           workspace root (default: current directory)\n\
                     --pass <name>          run only the named pass (repeatable); see --list\n\
                     --json                 machine-readable output\n\
                     --list                 list the registered passes and exit"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(opts)
}

/// The `--json` report: the findings array (unchanged shape, as
/// `"findings"`) plus per-pass wall time so CI can track the self-check's
/// time budget per pass.
fn render_json_report(diags: &[diag::Diagnostic], timings: &[PassTiming]) -> String {
    let mut s = String::from("{\n  \"findings\": ");
    let findings = diag::render_json(diags);
    for (i, line) in findings.trim_end().lines().enumerate() {
        if i > 0 {
            s.push_str("\n  ");
        }
        s.push_str(line);
    }
    s.push_str(",\n  \"timings\": [\n");
    for (i, t) in timings.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"pass\": \"{}\", \"micros\": {}, \"findings\": {}}}{}\n",
            t.name,
            t.micros,
            t.findings,
            if i + 1 < timings.len() { "," } else { "" }
        ));
    }
    s.push_str(&format!(
        "  ],\n  \"total_micros\": {}\n}}\n",
        timings.iter().map(|t| t.micros).sum::<u128>()
    ));
    s
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("planet-check: {e}");
            return ExitCode::from(2);
        }
    };

    if opts.list {
        for pass in all_passes() {
            println!("{:12} {}", pass.name(), pass.description());
        }
        return ExitCode::SUCCESS;
    }

    let known: Vec<&str> = all_passes().iter().map(|p| p.name()).collect();
    for name in &opts.passes {
        if !known.contains(&name.as_str()) {
            eprintln!(
                "planet-check: unknown pass `{name}` (known: {})",
                known.join(", ")
            );
            return ExitCode::from(2);
        }
    }

    let ws = match Workspace::load(&opts.root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!(
                "planet-check: cannot load workspace at {}: {e}",
                opts.root.display()
            );
            return ExitCode::from(2);
        }
    };

    let (diags, timings) = run_passes_timed(&ws, &opts.passes);

    if opts.json {
        print!("{}", render_json_report(&diags, &timings));
    } else {
        print!("{}", diag::render_text(&diags));
    }

    let errors = diags.iter().any(|d| d.severity == Severity::Error);
    if errors {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
