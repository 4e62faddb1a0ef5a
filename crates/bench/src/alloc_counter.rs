//! A counting global allocator: [`std::alloc::System`] plus one relaxed
//! atomic increment per allocation, so experiments can report
//! allocations-per-transaction alongside throughput, and tests can pin
//! what an operation allocates (`tests/metrics_touch.rs`,
//! `tests/checkpoint_cost.rs`). The per-allocation overhead (one
//! uncontended atomic add) is identical for both sides of every
//! comparison, so ratios are undistorted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The counting allocator registered as `#[global_allocator]` in
/// `planet-bench`'s crate root.
pub struct CountingAllocator;

// The one unsafe impl in the workspace: it forwards verbatim to `System`
// and only adds a counter, preserving `System`'s safety contract.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow that moves is a fresh allocation as far as hot-path
        // hygiene is concerned; counting every realloc keeps `Vec` growth
        // visible instead of laundering it.
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Total allocations (allocs + reallocs) since process start, across all
/// threads. Subtract two readings to attribute a window.
pub fn alloc_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}
