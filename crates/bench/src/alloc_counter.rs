//! A counting global allocator: [`std::alloc::System`] plus one relaxed
//! atomic increment per allocation, so experiments can report
//! allocations-per-transaction alongside throughput, and tests can pin
//! what an operation allocates (`tests/metrics_touch.rs`,
//! `tests/checkpoint_cost.rs`). The per-allocation overhead (one
//! uncontended atomic add) is identical for both sides of every
//! comparison, so ratios are undistorted.
//!
//! It also says *where* allocations come from. Between
//! [`start_attribution`] and [`stop_attribution`], one allocation in
//! [`SAMPLE_EVERY`] (a prime, so no loop's allocation pattern keeps
//! landing on the same site) of the thread that called them captures a
//! [`Backtrace`]; [`Attribution::top`] books each sample to the innermost
//! frame under `crates/`. The sampler's own allocations are neither counted
//! nor sampled: a thread-local flag is up while it captures. Other threads
//! are left alone, so tests running beside the one attributing are not
//! slowed or sampled.

use std::alloc::{GlobalAlloc, Layout, System};
use std::backtrace::Backtrace;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// While attributing, one allocation in this many captures a backtrace.
pub const SAMPLE_EVERY: u64 = 211;

/// What the sampler is doing on a thread.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Sampler {
    Off,
    On,
    /// Taking a sample: what it allocates is neither counted nor sampled.
    Capturing,
}

thread_local! {
    static SAMPLER: Cell<Sampler> = const { Cell::new(Sampler::Off) };
    static SAMPLES: RefCell<Vec<Backtrace>> = const { RefCell::new(Vec::new()) };
}

/// The counting allocator registered as `#[global_allocator]` in
/// `planet-bench`'s crate root.
pub struct CountingAllocator;

/// The first line of the allocator's own code in this file (see
/// [`OWN_LINES_END`]).
const OWN_LINES_START: u32 = line!();

/// Count one allocation, and sample it if this thread attributes and it is
/// its turn. Not while the thread panics: the panic hook allocates while it
/// holds the lock a capture takes.
fn note_allocation() {
    let sampler = SAMPLER.try_with(Cell::get).unwrap_or(Sampler::Off);
    if sampler == Sampler::Capturing {
        return;
    }
    let n = ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    if sampler == Sampler::On && n.is_multiple_of(SAMPLE_EVERY) && !std::thread::panicking() {
        SAMPLER.set(Sampler::Capturing);
        let trace = Backtrace::force_capture();
        let _ = SAMPLES.try_with(|samples| samples.borrow_mut().push(trace));
        SAMPLER.set(Sampler::On);
    }
}

// The one unsafe impl in the workspace: it forwards verbatim to `System`
// and only adds a counter, preserving `System`'s safety contract.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow that moves is a fresh allocation as far as hot-path
        // hygiene is concerned; counting every realloc keeps `Vec` growth
        // visible instead of laundering it.
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

/// One past the last line of the allocator's own code. A release build
/// inlines `note_allocation` into `alloc`, whose frame then reads as a bare
/// `alloc` in this file: its name says nothing, its line does.
const OWN_LINES_END: u32 = line!();

/// Total allocations (allocs + reallocs) since process start, across all
/// threads. Subtract two readings to attribute a window.
pub fn alloc_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Start sampling this thread's allocations, dropping earlier samples.
pub fn start_attribution() {
    SAMPLES.with_borrow_mut(Vec::clear);
    SAMPLER.set(Sampler::On);
}

/// Stop sampling this thread's allocations and hand over the samples.
pub fn stop_attribution() -> Attribution {
    SAMPLER.set(Sampler::Off);
    Attribution {
        samples: SAMPLES.take(),
    }
}

/// The allocations sampled between [`start_attribution`] and
/// [`stop_attribution`], not yet resolved to sites.
pub struct Attribution {
    samples: Vec<Backtrace>,
}

impl Attribution {
    /// The `n` sites with the most samples, most first, each with its
    /// estimated allocation count (samples × [`SAMPLE_EVERY`]). A site is
    /// `crates/<path>:<line> <function>`. Resolves the backtraces, which
    /// takes a while: call it to explain a count, not on every run.
    pub fn top(&self, n: usize) -> Vec<(String, u64)> {
        let cwd = std::env::current_dir().unwrap_or_default();
        let mut sites: HashMap<String, u64> = HashMap::new();
        for trace in &self.samples {
            *sites.entry(site_of(trace, &cwd)).or_default() += SAMPLE_EVERY;
        }
        let mut sites: Vec<(String, u64)> = sites.into_iter().collect();
        sites.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        sites.truncate(n);
        sites
    }
}

/// The innermost frame of `trace` under `crates/`, the allocator's own
/// frames aside. Read off the `Debug` form (the frame API is not stable),
/// whose frames are `{ fn: "..", file: "..", line: N }`, a file under the
/// working directory `cwd` being written `./..`. A release build names an
/// inlined frame without its path, so the allocator's own frames are told
/// by line as well as by name, and a bare `{closure#N}` is named after the
/// function around it (the next named frame in the same file).
fn site_of(trace: &Backtrace, cwd: &std::path::Path) -> String {
    let text = format!("{trace:?}");
    let frames: Vec<(&str, String, u32)> = text
        .split("{ fn: \"")
        .skip(1)
        .filter_map(|frame| {
            let (function, rest) = frame.split_once('"')?;
            let (_, rest) = rest.split_once("file: \"")?;
            let (path, rest) = rest.split_once('"')?;
            let path = match path.strip_prefix("./") {
                Some(relative) => cwd.join(relative).display().to_string(),
                None => path.to_string(),
            };
            let file = path.get(path.find("crates/")?..)?.to_string();
            let line = rest.trim_start_matches(", line: ");
            let line = line.split(|c: char| !c.is_ascii_digit()).next()?;
            Some((function, file, line.parse().ok()?))
        })
        .collect();
    let own = |(function, file, line): &(&str, String, u32)| {
        ["note_allocation", "CountingAllocator", "__rust_"]
            .iter()
            .any(|own| function.contains(own))
            || (file.ends_with("bench/src/alloc_counter.rs")
                && (OWN_LINES_START..OWN_LINES_END).contains(line))
    };
    let Some(at) = frames.iter().position(|frame| !own(frame)) else {
        return "(no frame under crates/)".to_string();
    };
    let (function, file, line) = &frames[at];
    let outer = frames[at + 1..]
        .iter()
        .find(|(name, outer_file, _)| outer_file == file && !name.starts_with('{'))
        .filter(|_| function.starts_with('{'));
    match outer {
        Some((name, ..)) => format!("{file}:{line} {name}::{function}"),
        None => format!("{file}:{line} {function}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[inline(never)]
    fn allocate_many() -> usize {
        (0..50 * SAMPLE_EVERY)
            .map(|i| std::hint::black_box(Box::new(i)))
            .map(|b| *b as usize)
            .sum()
    }

    #[test]
    fn attribution_books_samples_to_the_allocating_line() {
        start_attribution();
        let before = alloc_count();
        allocate_many();
        let counted = alloc_count() - before;
        let attribution = stop_attribution();
        let top = attribution.top(1);
        let (site, estimate) = top.first().expect("something was sampled");
        assert!(
            site.starts_with("crates/bench/src/alloc_counter.rs:"),
            "{site}"
        );
        assert!(site.contains("allocate_many"), "{site}");
        // Sampling is one in `SAMPLE_EVERY` of what was counted, and what
        // the sampler allocated itself was not counted.
        assert!(counted >= 50 * SAMPLE_EVERY);
        assert!(*estimate >= 45 * SAMPLE_EVERY, "{estimate}");
        assert!(
            *estimate <= counted + SAMPLE_EVERY,
            "{estimate} of {counted}"
        );
    }
}
