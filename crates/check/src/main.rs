//! The `planet-check` CLI: run the protocol-analysis pipeline over the
//! workspace and report findings.
//!
//! ```text
//! cargo run -p planet-check                 # human-readable report
//! cargo run -p planet-check -- --json      # JSON for CI
//! cargo run -p planet-check -- --pass flow # a single pass
//! cargo run -p planet-check -- --baseline check-baseline.tsv   # CI gate
//! ```
//!
//! Exit status is 0 when no error-severity diagnostics were produced, 1
//! otherwise — the CI gate is just the exit code. With `--baseline`, known
//! findings recorded in the baseline file are reported separately and only
//! *new* errors fail the run, so a legacy debt list can be burned down
//! without blocking unrelated changes.

use std::path::PathBuf;
use std::process::ExitCode;

use planet_check::{
    all_passes, baseline::Baseline, diag, run_passes_timed, PassTiming, Severity, Workspace,
};

struct Opts {
    root: PathBuf,
    json: bool,
    list: bool,
    passes: Vec<String>,
    baseline: Option<PathBuf>,
    write_baseline: Option<PathBuf>,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        root: PathBuf::from("."),
        json: false,
        list: false,
        passes: Vec::new(),
        baseline: None,
        write_baseline: None,
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
            "--baseline" => {
                opts.baseline = Some(PathBuf::from(
                    args.next()
                        .ok_or_else(|| "--baseline needs a path".to_string())?,
                ));
            }
            "--write-baseline" => {
                opts.write_baseline =
                    Some(PathBuf::from(args.next().ok_or_else(|| {
                        "--write-baseline needs a path".to_string()
                    })?));
            }
            "--help" | "-h" => {
                println!(
                    "planet-check: protocol-aware static analysis\n\n\
                     USAGE: planet-check [--root <dir>] [--pass <name>]... [--json] [--list]\n\
                     \x20                   [--baseline <file>] [--write-baseline <file>]\n\n\
                     --root <dir>           workspace root (default: current directory)\n\
                     --pass <name>          run only the named pass (repeatable); see --list\n\
                     --json                 machine-readable output\n\
                     --list                 list the registered passes and exit\n\
                     --baseline <file>      suppress findings recorded in <file>; only NEW\n\
                     \x20                       errors fail the run\n\
                     --write-baseline <file> snapshot current findings to <file> and exit 0"
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

    if let Some(path) = &opts.write_baseline {
        let baseline = Baseline::from_diags(diags.iter());
        if let Err(e) = std::fs::write(path, baseline.render()) {
            eprintln!(
                "planet-check: cannot write baseline {}: {e}",
                path.display()
            );
            return ExitCode::from(2);
        }
        eprintln!(
            "planet-check: wrote {} baseline entr{} to {}",
            baseline.len(),
            if baseline.len() == 1 { "y" } else { "ies" },
            path.display()
        );
        return ExitCode::SUCCESS;
    }

    let baseline = match &opts.baseline {
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("planet-check: cannot read baseline {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            };
            match Baseline::parse(&text) {
                Ok(b) => Some(b),
                Err(e) => {
                    eprintln!("planet-check: bad baseline {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            }
        }
        None => None,
    };

    let gated: Vec<diag::Diagnostic> = match &baseline {
        Some(b) => {
            let (fresh, old) = b.filter(&diags);
            if !old.is_empty() {
                eprintln!(
                    "planet-check: {} baselined finding(s) suppressed",
                    old.len()
                );
            }
            fresh.into_iter().cloned().collect()
        }
        None => diags.clone(),
    };

    if opts.json {
        print!("{}", render_json_report(&gated, &timings));
    } else {
        print!("{}", diag::render_text(&gated));
    }

    let errors = gated.iter().any(|d| d.severity == Severity::Error);
    if errors {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
