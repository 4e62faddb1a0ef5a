//! A minimal wall-clock micro-benchmark harness.
//!
//! Replaces Criterion (external crates are unavailable in the offline build
//! environment) with the part we actually rely on: calibrated repetition,
//! a handful of samples, and a median ns/iter report. Benches register with
//! `harness = false` in Cargo.toml and drive this from `fn main()`.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Target wall time per sample; iteration counts are doubled until a sample
/// takes at least this long, so cheap operations are measured in bulk.
const TARGET_SAMPLE: Duration = Duration::from_millis(10);

/// Samples per benchmark; the median is reported, which is robust to the
/// odd descheduling blip without Criterion's full bootstrap machinery.
const SAMPLES: usize = 11;

/// A named group of benchmarks with an optional substring filter taken from
/// the command line (`cargo bench -- <filter>`).
pub struct Harness {
    filter: Option<String>,
}

impl Harness {
    /// Build from `std::env::args`, ignoring flags (cargo passes `--bench`).
    pub fn from_args() -> Self {
        let filter = std::env::args().skip(1).find(|a| !a.starts_with("--"));
        Harness { filter }
    }

    /// True when `name` passes the command line's filter.
    fn selected(&self, name: &str) -> bool {
        self.filter
            .as_ref()
            .is_none_or(|filter| name.contains(filter.as_str()))
    }

    /// Measure `f`, printing `name ... <median> ns/iter`. The closure's
    /// return value is black-boxed so the work cannot be optimised away.
    pub fn bench<T, F: FnMut() -> T>(&mut self, name: &str, mut f: F) {
        if !self.selected(name) {
            return;
        }
        // Calibrate: double the per-sample iteration count until one sample
        // takes long enough to time reliably.
        let mut iters: u64 = 1;
        loop {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let elapsed = t.elapsed();
            if elapsed >= TARGET_SAMPLE || iters >= 1 << 30 {
                break;
            }
            // Jump close to the target in one step once we have a signal.
            if elapsed > Duration::from_micros(50) {
                let scale = TARGET_SAMPLE.as_nanos() as f64 / elapsed.as_nanos().max(1) as f64;
                iters = ((iters as f64 * scale).ceil() as u64).clamp(iters + 1, iters * 128);
            } else {
                iters *= 8;
            }
        }

        let per_iter: Vec<f64> = (0..SAMPLES)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..iters {
                    black_box(f());
                }
                t.elapsed().as_nanos() as f64 / iters as f64
            })
            .collect();
        report(name, per_iter, iters);
    }

    /// Measure an operation that changes what it measures — an insert
    /// grows its table — on state that `setup` rebuilds every `batch`
    /// calls of `run(state, i)`, `i` counting from 0 within the batch. Only
    /// the calls are timed; the report is per call, as for
    /// [`bench`](Self::bench).
    pub fn bench_batched<S, T>(
        &mut self,
        name: &str,
        batch: u64,
        mut setup: impl FnMut() -> S,
        mut run: impl FnMut(&mut S, u64) -> T,
    ) {
        if !self.selected(name) {
            return;
        }
        let batch = batch.max(1);
        let mut timed = |rounds: u64| {
            let mut spent = Duration::ZERO;
            for _ in 0..rounds {
                let mut state = setup();
                let t = Instant::now();
                for i in 0..batch {
                    black_box(run(&mut state, i));
                }
                spent += t.elapsed();
            }
            spent
        };
        let once = timed(1);
        let rounds = (TARGET_SAMPLE.as_nanos() / once.as_nanos().max(1)).clamp(1, 1 << 20) as u64;
        let per_iter: Vec<f64> = (0..SAMPLES)
            .map(|_| timed(rounds).as_nanos() as f64 / (rounds * batch) as f64)
            .collect();
        report(name, per_iter, rounds * batch);
    }
}

/// Print the median of `per_iter`, with its range.
fn report(name: &str, mut per_iter: Vec<f64>, iters: u64) {
    per_iter.sort_by(|a, b| a.partial_cmp(b).expect("latencies are never NaN"));
    let median = per_iter[SAMPLES / 2];
    let (lo, hi) = (per_iter[0], per_iter[SAMPLES - 1]);
    println!(
        "{name:<44} {:>12} ns/iter  (min {}, max {}, {iters} iters x {SAMPLES} samples)",
        fmt_ns(median),
        fmt_ns(lo),
        fmt_ns(hi),
    );
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2}us", ns / 1e3)
    } else {
        format!("{ns:.0}")
    }
}
