//! Metric names, units and directions — the table `BENCHMARK.json` must
//! agree with — and the printing of a run's record.

use std::collections::BTreeMap;

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's name, unit and direction.
pub type MetricDef = (&'static str, &'static str, Better);

use Better::{Higher, Lower};

/// What a user of the system sees; reported by every untraced run.
pub const END_TO_END: &[MetricDef] = &[
    ("setup_s", "s", Lower),
    ("goodput_ops_s", "1/s", Higher),
    ("commit_p50_ms", "ms", Lower),
    ("allocs_per_commit", "count", Lower),
    ("commit_ratio", "ratio", Higher),
];

/// Single layers; reported by every traced run (zero where the workload
/// bypasses the layer).
pub const PER_LAYER: &[MetricDef] = &[
    // cluster::wire
    ("wire.encode_ns_per_msg", "ns", Lower),
    ("wire.decode_ns_per_msg", "ns", Lower),
    ("wire.bytes_per_msg", "B", Lower),
    ("wire.msgs_per_commit", "count", Lower),
    ("wire.bytes_per_commit", "B", Lower),
    // cluster::tcp
    ("tcp.flushes_per_commit", "count", Lower),
    ("tcp.bytes_per_flush", "B", Higher),
    ("tcp.loopback_rtt_us", "us", Lower),
    // cluster::channel
    ("channel.send_ns_per_msg", "ns", Lower),
    ("channel.dropped", "count", Lower),
    // cluster::plane
    ("plane.batch_p50", "count", Higher),
    ("plane.mailbox_depth_p95", "count", Lower),
    ("plane.shed", "count", Lower),
    // cluster::reactor
    ("reactor.busy_ratio", "ratio", Lower),
    ("reactor.drives_per_commit", "count", Lower),
    ("reactor.parks_per_commit", "count", Lower),
    ("reactor.steals_per_kcommit", "count", Lower),
    ("reactor.wake_rtt_us", "us", Lower),
    // mdcc::coordinator / mdcc::replica_actor
    ("coordinator.plan_step_ns", "ns", Lower),
    ("coordinator.spec_step_ns", "ns", Lower),
    ("replica.step_ns", "ns", Lower),
    ("mdcc.msgs_per_commit", "count", Lower),
    ("mdcc.drive_commits_per_s", "1/s", Higher),
    ("mdcc.fast_fallbacks_per_kcommit", "count", Lower),
    // plan
    ("plan.compile_us", "us", Lower),
    ("plan.instantiate_ns", "ns", Lower),
    ("plan.fallback_interpreted", "count", Lower),
    // storage
    ("store.read_ns", "ns", Lower),
    ("store.accept_ns", "ns", Lower),
    ("store.decide_ns", "ns", Lower),
    ("wal.append_ns", "ns", Lower),
    ("wal.records_per_commit", "count", Lower),
    ("wal.checkpoints", "count", Lower),
    ("store.keys_end", "count", Lower),
    // spans (variance tree)
    ("span.queue_p50_us", "us", Lower),
    ("span.queue_p95_us", "us", Lower),
    ("span.quorum_wait_p50_us", "us", Lower),
    ("span.quorum_wait_p95_us", "us", Lower),
    ("span.wal_p50_us", "us", Lower),
    ("span.network_p50_us", "us", Lower),
    ("span.queue_var_share", "ratio", Lower),
    ("span.quorum_wait_var_share", "ratio", Lower),
    ("span.wal_var_share", "ratio", Lower),
    ("span.network_var_share", "ratio", Lower),
    // core / predict / sim
    ("core.spec_commit_p50_ms", "ms", Lower),
    ("core.apology_ratio", "ratio", Lower),
    ("core.rejected_ratio", "ratio", Lower),
    ("core.deadline_miss_ratio", "ratio", Lower),
    ("predict.brier", "score", Lower),
    ("predict.calibration_err", "ratio", Lower),
    ("predict.update_ns", "ns", Lower),
    ("sim.events_per_commit", "count", Lower),
    ("sim.events_per_wall_s", "1/s", Higher),
    // client / host; the first four were end-to-end candidates whose A/A
    // spread did not fit a bound (perf/README.md, "Calibration")
    ("client.commit_p95_ms", "ms", Lower),
    ("client.read_p50_ms", "ms", Lower),
    ("proc.cpu_us_per_commit", "us", Lower),
    ("proc.peak_rss_mb", "MiB", Lower),
    ("client.commit_p99_ms", "ms", Lower),
    ("client.late_p95_ms", "ms", Lower),
    ("client.timeouts", "count", Lower),
    ("client.goodput_total_ops_s", "1/s", Higher),
    ("client.slice_iqr_ratio", "ratio", Lower),
    ("proc.ctx_switches_per_commit", "count", Lower),
    ("proc.threads", "count", Lower),
    ("host.spin_ms", "ms", Lower),
    ("trace.overhead_ratio", "ratio", Higher),
    ("ledger.cpu_accounted_ratio", "ratio", Higher),
];

/// A zero for every metric of `defs`: the starting point of a traced
/// record, so a bypassed layer reads zero instead of going missing.
pub fn zeros(defs: &[MetricDef]) -> Values {
    defs.iter().map(|&(name, _, _)| (name, 0.0)).collect()
}

/// JSON text of a finite number with all its digits (`0` for a NaN or an
/// infinity, which JSON cannot carry).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Escape a string for a JSON document.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Print every metric of `defs` by name with its unit, one per line.
pub fn print_metrics(defs: &[MetricDef], values: &Values) {
    for &(name, unit, better) in defs {
        let value = values.get(name).copied().unwrap_or(0.0);
        println!(
            "{name:<34} {value:>16.4} {unit:<6} ({} is better)",
            better.word()
        );
    }
}

/// The driver's result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the metrics being every name in `defs`.
pub fn result_line(
    defs: &[MetricDef],
    values: &Values,
    correct: bool,
    attempted: u64,
    failed: u64,
) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .map(|&(name, unit, _)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(name),
                json_number(values.get(name).copied().unwrap_or(0.0)),
                json_string(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for &(name, unit, _) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(name), "{name} used twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().any(|m| m.0 == "setup_s" && m.1 == "s"));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut values = zeros(END_TO_END);
        values.insert("setup_s", 1.25);
        let line = result_line(END_TO_END, &values, true, 10, 0);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
        assert_eq!(json_number(f64::NAN), "0");
        assert_eq!(json_string("a\"b"), "\"a\\\"b\"");
    }
}
