//! Process accounting read from `/proc/self`: CPU time, context switches,
//! thread count and the resident-set high-water mark.
//!
//! Parsing is split from reading so the unit tests run on fixed text.

use std::fs;

/// The kernel's clock-tick rate for `utime`/`stime`. Linux has exposed 100
/// to user space on every architecture since 2.6 (`USER_HZ`), whatever the
/// kernel's internal HZ.
const USER_HZ: u64 = 100;

/// What one look at the process costs so far.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProcSnapshot {
    /// User + system CPU time of all threads, in microseconds.
    pub cpu_us: u64,
    /// Voluntary + involuntary context switches of all threads.
    pub ctx_switches: u64,
    /// Live threads.
    pub threads: u64,
}

/// `utime + stime` in microseconds and the thread count from the text of
/// `/proc/<pid>/stat`. The command name (field 2) may contain spaces and
/// parentheses, so fields are counted from the *last* `)`.
pub fn parse_stat(text: &str) -> Option<(u64, u64)> {
    let rest = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_ascii_whitespace().collect();
    // `rest` starts at field 3 (state): utime is field 14, stime 15,
    // num_threads 20.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    let threads: u64 = fields.get(17)?.parse().ok()?;
    Some(((utime + stime) * (1_000_000 / USER_HZ), threads))
}

/// The value of a `Key:   123 kB`-style line of `/proc/<pid>/status`.
pub fn parse_status_field(text: &str, key: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        value.split_ascii_whitespace().next()?.parse().ok()
    })
}

/// Context switches (voluntary + involuntary) from the text of a
/// `/proc/<pid>/task/<tid>/status` (or process-level `status`) file.
pub fn parse_ctx_switches(text: &str) -> u64 {
    parse_status_field(text, "voluntary_ctxt_switches").unwrap_or(0)
        + parse_status_field(text, "nonvoluntary_ctxt_switches").unwrap_or(0)
}

/// Read the process's accounting now.
pub fn snapshot() -> ProcSnapshot {
    let (cpu_us, threads) = fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|t| parse_stat(&t))
        .unwrap_or((0, 0));
    let mut ctx = 0u64;
    if let Ok(tasks) = fs::read_dir("/proc/self/task") {
        for task in tasks.flatten() {
            if let Ok(text) = fs::read_to_string(task.path().join("status")) {
                ctx += parse_ctx_switches(&text);
            }
        }
    }
    ProcSnapshot {
        cpu_us,
        ctx_switches: ctx,
        threads,
    }
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| parse_status_field(&t, "VmHWM"))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (planet perf) x) S 1 4242 4242 0 -1 4194304 1234 0 0 0 \
        731 269 0 0 20 0 7 0 123456 1000000 2000 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";

    #[test]
    fn stat_fields_are_counted_after_the_command_name() {
        // utime 731 + stime 269 ticks = 1000 ticks = 10 s; 7 threads. The
        // command name holds a space and a ')' to trip naive splitting.
        assert_eq!(parse_stat(STAT), Some((10_000_000, 7)));
        assert_eq!(parse_stat("garbage"), None);
        assert_eq!(parse_stat("1 (x) S 1 2"), None);
    }

    #[test]
    fn status_fields_parse_with_and_without_units() {
        let status = "Name:\tplanet-perf\nVmHWM:\t  204800 kB\nThreads:\t7\n\
            voluntary_ctxt_switches:\t120\nnonvoluntary_ctxt_switches:\t30\n";
        assert_eq!(parse_status_field(status, "VmHWM"), Some(204_800));
        assert_eq!(parse_status_field(status, "Threads"), Some(7));
        assert_eq!(parse_status_field(status, "VmPeak"), None);
        // "voluntary_…" must not match inside "nonvoluntary_…".
        assert_eq!(parse_ctx_switches(status), 150);
    }

    #[test]
    fn live_snapshot_reads_this_process() {
        let a = snapshot();
        assert!(a.threads >= 1);
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(x);
        let b = snapshot();
        assert!(b.cpu_us >= a.cpu_us);
        assert!(peak_rss_mb() > 0.0);
    }
}
