//! The measured phase: completions in, slice-median metrics out.
//!
//! A [`Recorder`] receives every completion of a run in the order the
//! harvesting thread observes them. The first `warmup` completions only let
//! caches fill; the next `measured` are cut into [`SLICES`] equal slices by
//! completion count. At each slice boundary the recorder takes a
//! [`Mark`] (time, process CPU, allocation count), so a rate is a ratio of
//! two deltas taken at the same instants, and a percentile is computed on
//! the slice's own exact samples. [`Recorder::finish`] reports the median
//! slice of each.

use crate::estimators::{iqr_ratio, median, percentile, slice_boundaries, SLICES};

/// Which latency population a transaction belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// A transaction with at least one write.
    Write,
    /// A read-only transaction.
    Read,
}

/// How one attempted operation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum End {
    /// Durably committed.
    Committed,
    /// Executed and aborted by the protocol (conflict, bound).
    Aborted,
    /// Refused by admission control before execution: attempted, not
    /// admitted, not a failure.
    Refused,
    /// Timed out, shed, lost, or wrong: counted in `failed`, and as missing
    /// every latency limit.
    Failed,
}

/// One completion, as the generator (or the simulator's record) reports it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Submit (closed loop) or due time (open loop) → decision, µs.
    pub latency_us: u32,
    /// Read-only or writing.
    pub class: Class,
    /// Outcome.
    pub end: End,
}

/// The latency a failed operation is entered with: above every limit.
pub const FAILED_LATENCY_US: u32 = u32::MAX;

/// The readings taken at a slice boundary.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mark {
    /// Seconds on the workload's clock (wall, or virtual on the simulator).
    pub time_s: f64,
    /// Process CPU time so far, µs.
    pub cpu_us: u64,
    /// Allocations so far.
    pub allocs: u64,
    /// Context switches of the process's threads so far.
    pub ctx_switches: u64,
}

impl Mark {
    /// The process's readings now, stamped with `time_s` on the workload's
    /// clock.
    pub fn now(time_s: f64) -> Mark {
        let proc = crate::procstat::snapshot();
        Mark {
            time_s,
            cpu_us: proc.cpu_us,
            allocs: crate::alloc::count(),
            ctx_switches: proc.ctx_switches,
        }
    }
}

#[derive(Debug, Default)]
struct Slice {
    write_us: Vec<u32>,
    read_us: Vec<u32>,
    committed: u64,
}

/// Whole-phase counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Operations issued (warm-up and measured).
    pub attempted: u64,
    /// Of those, timed out / shed / lost / wrong.
    pub failed: u64,
    /// Measured-phase operations that were admitted (not refused).
    pub admitted: u64,
    /// Measured-phase commits.
    pub committed: u64,
    /// Measured-phase refusals.
    pub refused: u64,
}

/// The estimates of one measured phase.
#[derive(Debug, Clone, Default)]
pub struct PhaseReport {
    /// Median-slice committed transactions per second.
    pub goodput_ops_s: f64,
    /// Median-slice p50 of writing transactions, ms.
    pub commit_p50_ms: f64,
    /// Median-slice p95 of writing transactions, ms.
    pub commit_p95_ms: f64,
    /// Median-slice p50 of read-only transactions, ms.
    pub read_p50_ms: f64,
    /// Process CPU µs per commit over the whole measured phase.
    pub cpu_us_per_commit: f64,
    /// Allocations per commit over the whole measured phase.
    pub allocs_per_commit: f64,
    /// Committed / admitted over the whole measured phase.
    pub commit_ratio: f64,
    /// Whole-phase commits per second (first to last mark).
    pub goodput_total_ops_s: f64,
    /// Whole-phase exact p99 of writing transactions, ms.
    pub commit_p99_ms: f64,
    /// IQR of the slice goodputs as a share of their median.
    pub slice_iqr_ratio: f64,
    /// Writing-transaction samples in the measured phase.
    pub write_samples: u64,
    /// Read-only samples in the measured phase.
    pub read_samples: u64,
    /// Samples behind each per-slice percentile (smallest slice).
    pub min_slice_write_samples: u64,
    /// Whole-phase counts.
    pub counts: Counts,
    /// Seconds from the first to the last mark.
    pub span_s: f64,
    /// Whole-phase context switches per commit.
    pub ctx_switches_per_commit: f64,
    /// Per-slice goodput, for the traced run's on/off comparison.
    pub slice_goodput: Vec<f64>,
    /// Per-slice commits.
    pub slice_commits: Vec<u64>,
}

/// Collects one phase. See the module docs.
pub struct Recorder {
    warmup_left: u64,
    boundaries: Vec<u64>,
    seen: u64,
    slices: Vec<Slice>,
    marks: Vec<Mark>,
    counts: Counts,
}

impl Recorder {
    /// A recorder for `warmup` unmeasured completions followed by `measured`
    /// measured ones.
    pub fn new(warmup: u64, measured: u64) -> Self {
        assert!(measured >= SLICES as u64, "fewer completions than slices");
        let per_slice = (measured / SLICES as u64 + 1) as usize;
        Recorder {
            warmup_left: warmup,
            boundaries: slice_boundaries(measured, SLICES),
            seen: 0,
            slices: (0..SLICES)
                .map(|_| Slice {
                    write_us: Vec::with_capacity(per_slice),
                    read_us: Vec::with_capacity(per_slice / 2),
                    committed: 0,
                })
                .collect(),
            marks: Vec::with_capacity(SLICES + 1),
            counts: Counts::default(),
        }
    }

    /// True once every measured completion has arrived.
    pub fn done(&self) -> bool {
        self.marks.len() == SLICES + 1
    }

    /// The slice (0-based) the next completion falls into, or `None` during
    /// warm-up and after the end.
    pub fn current_slice(&self) -> Option<usize> {
        (self.warmup_left == 0 && !self.done()).then(|| self.marks.len().saturating_sub(1))
    }

    /// Take in one completion. `mark` is called when this completion ends
    /// the warm-up or a slice, and must return the readings *now*.
    pub fn push(&mut self, sample: Sample, mark: &mut dyn FnMut() -> Mark) {
        if self.done() {
            return;
        }
        self.counts.attempted += 1;
        if sample.end == End::Failed {
            self.counts.failed += 1;
        }
        if self.warmup_left > 0 {
            self.warmup_left -= 1;
            if self.warmup_left == 0 {
                self.marks.push(mark());
            }
            return;
        }
        if self.marks.is_empty() {
            // No warm-up at all: the phase starts at its first completion.
            self.marks.push(mark());
        }
        let slice = &mut self.slices[self.marks.len() - 1];
        match sample.end {
            End::Refused => self.counts.refused += 1,
            end => {
                self.counts.admitted += 1;
                let latency = if end == End::Failed {
                    FAILED_LATENCY_US
                } else {
                    sample.latency_us
                };
                match sample.class {
                    Class::Write => slice.write_us.push(latency),
                    Class::Read => slice.read_us.push(latency),
                }
                if end == End::Committed {
                    slice.committed += 1;
                    self.counts.committed += 1;
                }
            }
        }
        self.seen += 1;
        if self.seen == self.boundaries[self.marks.len() - 1] {
            self.marks.push(mark());
        }
    }

    /// Counts so far.
    pub fn counts(&self) -> Counts {
        self.counts
    }

    /// Reduce the phase to its estimates. Panics if the phase is not
    /// [`done`](Self::done) — a short run is a harness bug, not a result.
    pub fn finish(mut self) -> PhaseReport {
        assert!(self.done(), "measured phase incomplete");
        let ms = |us: u32| us as f64 / 1000.0;
        let mut goodput = Vec::new();
        let mut p50 = Vec::new();
        let mut p95 = Vec::new();
        let mut read_p50 = Vec::new();
        let mut min_slice = u64::MAX;
        for (i, slice) in self.slices.iter_mut().enumerate() {
            let (a, b) = (self.marks[i], self.marks[i + 1]);
            let dt = (b.time_s - a.time_s).max(1e-9);
            goodput.push(slice.committed as f64 / dt);
            min_slice = min_slice.min(slice.write_us.len() as u64);
            if let Some(v) = percentile(&mut slice.write_us, 0.50) {
                p50.push(ms(v));
            }
            if let Some(v) = percentile(&mut slice.write_us, 0.95) {
                p95.push(ms(v));
            }
            if let Some(v) = percentile(&mut slice.read_us, 0.50) {
                read_p50.push(ms(v));
            }
        }
        let mut all_writes: Vec<u32> = Vec::with_capacity(self.seen as usize);
        let mut reads = 0u64;
        for slice in &self.slices {
            all_writes.extend_from_slice(&slice.write_us);
            reads += slice.read_us.len() as u64;
        }
        let (first, last) = (self.marks[0], self.marks[SLICES]);
        let span_s = (last.time_s - first.time_s).max(1e-9);
        let commits = self.counts.committed.max(1) as f64;
        PhaseReport {
            goodput_ops_s: median(&goodput).unwrap_or(0.0),
            commit_p50_ms: median(&p50).unwrap_or(0.0),
            commit_p95_ms: median(&p95).unwrap_or(0.0),
            read_p50_ms: median(&read_p50).unwrap_or(0.0),
            // Resources are totals: the periodic background work a slice
            // may or may not contain (a checkpoint clones a store) is part
            // of what a commit costs, and a median over slices would count
            // it or not depending on where the boundaries fall.
            cpu_us_per_commit: (last.cpu_us - first.cpu_us) as f64 / commits,
            allocs_per_commit: (last.allocs - first.allocs) as f64 / commits,
            commit_ratio: self.counts.committed as f64 / self.counts.admitted.max(1) as f64,
            goodput_total_ops_s: self.counts.committed as f64 / span_s,
            commit_p99_ms: percentile(&mut all_writes, 0.99).map_or(0.0, ms),
            slice_iqr_ratio: iqr_ratio(&goodput).unwrap_or(0.0),
            write_samples: all_writes.len() as u64,
            read_samples: reads,
            min_slice_write_samples: if min_slice == u64::MAX { 0 } else { min_slice },
            counts: self.counts,
            span_s,
            ctx_switches_per_commit: (last.ctx_switches - first.ctx_switches) as f64 / commits,
            slice_goodput: goodput,
            slice_commits: self.slices.iter().map(|s| s.committed).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(latency_us: u32, class: Class) -> Sample {
        Sample {
            latency_us,
            class,
            end: End::Committed,
        }
    }

    #[test]
    fn slices_are_cut_by_count_and_the_median_slice_is_reported() {
        // 150 measured completions after 10 of warm-up; the clock advances
        // 1 ms per completion except in slice 7, where a burst makes every
        // completion take 10 ms. CPU and allocations advance in step.
        let mut rec = Recorder::new(10, 150);
        let mut t = 0.0f64;
        let mut n = 0u64;
        for i in 0..160u64 {
            let measured = i.saturating_sub(10);
            let slow = i >= 10 && measured / 10 == 7;
            t += if slow { 0.010 } else { 0.001 };
            n += 1;
            let now = Mark {
                time_s: t,
                cpu_us: n * 500,
                allocs: n * 20,
                ctx_switches: n,
            };
            rec.push(
                ok(if slow { 9_000 } else { 1_000 }, Class::Write),
                &mut || now,
            );
        }
        assert!(rec.done());
        let r = rec.finish();
        // Median slice: 10 commits per 10 ms.
        assert!(
            (r.goodput_ops_s - 1000.0).abs() < 1e-6,
            "{}",
            r.goodput_ops_s
        );
        // The whole-run figure carries the burst; the median does not.
        assert!(r.goodput_total_ops_s < 650.0, "{}", r.goodput_total_ops_s);
        assert_eq!(r.commit_p50_ms, 1.0);
        assert_eq!(r.commit_p95_ms, 1.0);
        assert_eq!(r.cpu_us_per_commit, 500.0);
        assert_eq!(r.allocs_per_commit, 20.0);
        assert_eq!(r.write_samples, 150);
        assert_eq!(r.min_slice_write_samples, 10);
        assert_eq!(r.counts.attempted, 160);
        assert_eq!(r.commit_ratio, 1.0);
        // Whole-run p99 sees the slow slice.
        assert_eq!(r.commit_p99_ms, 9.0);
    }

    #[test]
    fn failures_count_against_attempts_and_miss_every_limit() {
        let mut rec = Recorder::new(0, 30);
        let mut t = 0.0;
        for i in 0..30u64 {
            t += 0.001;
            let now = Mark {
                time_s: t,
                ..Mark::default()
            };
            let sample = Sample {
                latency_us: 1_000,
                class: if i % 3 == 0 {
                    Class::Read
                } else {
                    Class::Write
                },
                // Two of every ten fail; one is refused.
                end: match i % 10 {
                    0 | 1 => End::Failed,
                    2 => End::Refused,
                    3 => End::Aborted,
                    _ => End::Committed,
                },
            };
            rec.push(sample, &mut || now);
        }
        let r = rec.finish();
        assert_eq!(r.counts.attempted, 30);
        assert_eq!(r.counts.failed, 6);
        assert_eq!(r.counts.refused, 3);
        assert_eq!(r.counts.admitted, 27);
        assert_eq!(r.counts.committed, 18);
        assert!((r.commit_ratio - 18.0 / 27.0).abs() < 1e-12);
        // With more than 5 % of writes failed, p95 is the failure latency.
        assert_eq!(r.commit_p99_ms, FAILED_LATENCY_US as f64 / 1000.0);
    }
}
